//! Frozen quality targets for time-to-quality.
//!
//! `ttq` asks how long a caller waits for a result of a fixed quality. The
//! quality must not move with the code under test, or a slower searcher
//! that also lowers its own bar would look unchanged. So the targets are
//! constants, calibrated once at the commit that added the benchmark and
//! never recomputed at run time (`targets_are_constants` below holds that).
//!
//! # The rule
//!
//! A target is an EDP as a multiple of the problem's algorithmic minimum.
//! For each problem, over the searches of `--seed 1..=5` (one round each),
//! take the best (lowest) multiple any judged search ended on, and
//! the candidates 1.2×, 1.5×, 2×, 3×, 5× and 10× that best. The target is
//! the tightest candidate that at least 90 % of them ended at or below.
//! Judged are the SA and GA searches on `layer_search` and every search on
//! `gradient_search`. `benchmark calibrate` prints the tables below again
//! from scratch; the comment on each row is how many judged calibration
//! searches reach it, and the comment above each table is the best multiple
//! per problem that seed 1 alone saw.
//!
//! On `layer_search` the 1.2×–2× candidates always suffice. The gradient
//! search at this surrogate size ends anywhere within 10× of its own best,
//! which is why the longer list exists.
//!
//! Requests of the serve workloads are judged whole: a request meets its
//! target when the geometric mean over its layers of the EDP multiple is at
//! or below the workload's one constant, the tightest candidate that every
//! request of seeds 1..=5 met. It is a floor under what the service may
//! deliver, not a goal a search works towards.

/// One row of a calibration table.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Target {
    pub problem: &'static str,
    /// Best EDP ÷ algorithmic minimum any calibration search reached.
    pub best_seen: f64,
    /// Which of [`FACTORS`] the rule picked.
    pub factor: f64,
}

impl Target {
    /// The frozen target, as a multiple of the algorithmic minimum.
    pub fn norm(&self) -> f64 {
        self.best_seen * self.factor
    }
}

const fn row(problem: &'static str, best_seen: f64, factor: f64) -> Target {
    Target {
        problem,
        best_seen,
        factor,
    }
}

/// `layer_search`: 12 searches per problem and seed (3 searchers × 4) of
/// 5 000 evaluations; time-to-quality is judged on the 8 SA and GA ones.
// seed-1 best: [9.423, 10.280, 10.374, 8.682, 11.720, 9.581, 15.889, 17.883]
pub const LAYER_SEARCH: [Target; 8] = [
    row("ResNet Conv_3", 9.336060282181752, 2.0), // 39/40 reach it
    row("ResNet Conv_4", 10.080594791288632, 1.5), // 40/40 reach it
    row("Inception Conv_2", 10.374187425980436, 1.2), // 36/40 reach it
    row("VGG Conv_2", 8.408019049427395, 1.5),    // 36/40 reach it
    row("AlexNet Conv_2", 10.851935528945384, 1.5), // 36/40 reach it
    row("AlexNet Conv_4", 9.581353389232165, 2.0), // 40/40 reach it
    row("MTTKRP_0", 15.422047946363458, 1.2),     // 40/40 reach it
    row("MTTKRP_1", 17.53165765103688, 1.2),      // 40/40 reach it
];

/// `gradient_search`: 5 searches per problem and seed of 500 steps.
// seed-1 best: [27.475, 25.379, 20.353, 23.033, 25.545, 22.080, 18.027, 19.449]
pub const GRADIENT_SEARCH: [Target; 8] = [
    row("ResNet Conv_3", 21.16139657733968, 5.0), // 23/25 reach it
    row("ResNet Conv_4", 13.557588259310885, 5.0), // 24/25 reach it
    row("Inception Conv_2", 13.366862922675386, 5.0), // 24/25 reach it
    row("VGG Conv_2", 11.41984621567193, 5.0),    // 24/25 reach it
    row("AlexNet Conv_2", 25.544593502630402, 10.0), // 24/25 reach it
    row("AlexNet Conv_4", 18.077339192657128, 10.0), // 24/25 reach it
    row("MTTKRP_0", 16.459517014394066, 1.5),     // 25/25 reach it
    row("MTTKRP_1", 18.8749800993436, 1.2),       // 24/25 reach it
];

/// Whole-request targets of the serve workloads (`problem` names the
/// workload here).
// seed-1 best: serve_batch 18.387, serve_seq 19.034, serve_reuse 18.311
pub const SERVE: [Target; 3] = [
    row("serve_batch", 18.099882743725825, 1.5), // 100/100 reach it
    row("serve_seq", 18.945565153490435, 2.0),   // 100/100 reach it
    row("serve_reuse", 17.776408760470492, 5.0), // 2000/2000 reach it
];

/// The target of `problem` in `table`, as a multiple of the algorithmic
/// minimum.
///
/// # Errors
///
/// Names the problem that has no row: a workload must not run without its
/// targets.
pub fn lookup(table: &[Target], problem: &str) -> Result<f64, String> {
    table
        .iter()
        .find(|t| t.problem == problem)
        .map(Target::norm)
        .ok_or_else(|| format!("no frozen target for '{problem}'"))
}

/// The candidates of the rule, tightest first.
pub const FACTORS: [f64; 6] = [1.2, 1.5, 2.0, 3.0, 5.0, 10.0];

/// Share of searches that must reach a candidate for it to qualify.
pub const REACH_SHARE: f64 = 0.9;
/// The same for whole requests: all of them. A request's target is a floor
/// under the quality a service may deliver, not a goal a search works
/// towards.
pub const REACH_SHARE_REQUESTS: f64 = 1.0;

/// The rule: given the best multiple seen and the final multiples of the
/// searches that are judged, pick the factor.
pub fn pick_factor(best_seen: f64, finals: &[f64], share: f64) -> f64 {
    for factor in FACTORS {
        let reached = finals.iter().filter(|f| **f <= best_seen * factor).count();
        if reached as f64 >= share * finals.len() as f64 {
            return factor;
        }
    }
    FACTORS[FACTORS.len() - 1]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_table1_problem_has_a_target_in_both_tables() {
        for spec in crate::inputs::table1_problems() {
            for table in [&LAYER_SEARCH[..], &GRADIENT_SEARCH[..]] {
                let norm = lookup(table, &spec.name).unwrap();
                assert!(norm.is_finite() && norm > 1.0, "{}: {norm}", spec.name);
            }
        }
        for workload in ["serve_batch", "serve_seq", "serve_reuse"] {
            assert!(lookup(&SERVE, workload).unwrap() > 1.0);
        }
        assert!(lookup(&LAYER_SEARCH, "no such problem").is_err());
    }

    /// A target recomputed at run time would move with the code under
    /// test. They are `const`: this only compiles while they can be
    /// evaluated without running anything, and the factors must be the
    /// rule's own.
    #[test]
    fn targets_are_constants() {
        const FROZEN: f64 = LAYER_SEARCH[0].best_seen * LAYER_SEARCH[0].factor;
        const { assert!(FROZEN > 1.0) };
        for t in LAYER_SEARCH.iter().chain(&GRADIENT_SEARCH).chain(&SERVE) {
            assert!(FACTORS.contains(&t.factor), "{}: {}", t.problem, t.factor);
            assert!(t.best_seen >= 1.0, "{}: below the minimum", t.problem);
        }
    }

    #[test]
    fn the_rule_picks_the_tightest_factor_nine_in_ten_reach() {
        let best = 10.0;
        // All ten within 1.2×.
        assert_eq!(
            pick_factor(
                best,
                &[10.0, 11.0, 12.0, 11.5, 10.5, 11.0, 11.9, 12.0, 10.1, 11.1],
                REACH_SHARE
            ),
            1.2
        );
        // Two of ten beyond 1.2× but within 1.5×.
        assert_eq!(
            pick_factor(
                best,
                &[10.0, 11.0, 14.0, 11.5, 10.5, 11.0, 14.9, 12.0, 10.1, 11.1],
                REACH_SHARE
            ),
            1.5
        );
        // One straggler beyond 2× is tolerated at 90 %.
        let straggler = [10.0, 16.0, 16.0, 11.5, 10.5, 11.0, 99.0, 12.0, 10.1, 11.1];
        assert_eq!(pick_factor(best, &straggler, REACH_SHARE), 2.0);
        // ...but not when every one must reach it.
        assert_eq!(pick_factor(best, &straggler, REACH_SHARE_REQUESTS), 10.0);
        // Nothing qualifies: fall back to the loosest.
        assert_eq!(pick_factor(best, &[500.0, 600.0], REACH_SHARE), 10.0);
    }
}
