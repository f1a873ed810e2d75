//! Sync-policy sweep: best-EDP quality of the sharded mapper under every
//! [`SyncPolicy`] (off / anchor / annealed) at 1/2/4 disjoint shards, over
//! conv1d + the Table 1 set at a fixed iso-budget.
//!
//! The quality numbers are machine-independent: the policies exchange
//! incumbents between rounds whose content depends only on the seed, the budget, and the policy —
//! never on worker count or wall-clock. The JSON (`BENCH_sync.json`)
//! records geomean best EDP, evaluations, and throughput per
//! (policy, shard-count) point, and is diffed by the CI bench gate.

use std::sync::Arc;

use mm_accel::CostModel;
use mm_mapper::{
    CostEvaluator, Mapper, MapperConfig, ModelEvaluator, SyncPolicy, TerminationPolicy,
};
use mm_mapspace::{MapSpace, ProblemSpec};
use mm_search::SimulatedAnnealing;
use mm_workloads::{evaluated_accelerator, table1};

use crate::report::{rate, write_bench_json, Stopwatch};

/// Sync interval used by the sweep: short enough that even CI-sized
/// budgets (200 evaluations per problem) cross several rounds per shard.
const SYNC_INTERVAL: u64 = 16;

/// The measured policy set (paired with stable labels for the JSON).
pub fn policy_set() -> Vec<(String, SyncPolicy)> {
    vec![
        ("off".to_string(), SyncPolicy::Off),
        ("anchor".to_string(), SyncPolicy::Anchor),
        (
            "annealed(0.9->0.1)".to_string(),
            SyncPolicy::Annealed {
                start: 0.9,
                end: 0.1,
            },
        ),
    ]
}

/// One measured (policy, shard count) configuration.
#[derive(Debug, Clone)]
pub struct SyncBenchPoint {
    /// Stable policy label (see [`policy_set`]).
    pub policy: String,
    /// Number of pairwise-disjoint map-space shards.
    pub shards: usize,
    /// Geometric-mean best EDP (J·s) over the problem set.
    pub geomean_best_edp: f64,
    /// Σ evaluations across all runs of this configuration.
    pub total_evaluations: u64,
    /// Aggregate evaluations/second of this configuration.
    pub evals_per_sec: f64,
    /// Σ wall seconds across all runs of this configuration.
    pub wall_s: f64,
}

/// The sync-policy measurement set.
#[derive(Debug, Clone)]
pub struct SyncBenchResult {
    /// Problems measured (conv1d + the Table 1 rows).
    pub problems: Vec<String>,
    /// Evaluation budget per problem per configuration.
    pub evals_per_problem: u64,
    /// Worker threads executing the shards.
    pub threads: usize,
    /// `std::thread::available_parallelism()` on the measuring machine.
    pub available_parallelism: usize,
    /// One point per (policy, shard count).
    pub points: Vec<SyncBenchPoint>,
}

impl SyncBenchResult {
    /// Serialize as the `BENCH_sync.json` document.
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        out.push_str(&crate::output::bench_json_header(
            "sync_policy",
            &self.problems,
            self.evals_per_problem,
            self.threads,
            self.available_parallelism,
        ));
        for (i, p) in self.points.iter().enumerate() {
            out.push_str(&format!(
                "    {{\"policy\": {:?}, \"shards\": {}, \"geomean_best_edp\": {:.6e}, \
                 \"total_evaluations\": {}, \"evals_per_sec\": {:.3}, \"wall_s\": {:.6}}}{}\n",
                p.policy,
                p.shards,
                p.geomean_best_edp,
                p.total_evaluations,
                p.evals_per_sec,
                p.wall_s,
                if i + 1 < self.points.len() { "," } else { "" }
            ));
        }
        out.push_str("  ]\n}\n");
        out
    }

    /// Write `BENCH_sync.json` under the results directory (plus a
    /// telemetry sibling when collection is on), returning the path.
    ///
    /// # Errors
    ///
    /// Returns any I/O error from creating the directory or file.
    pub fn write_json(&self) -> std::io::Result<std::path::PathBuf> {
        write_bench_json("BENCH_sync.json", &self.to_json())
    }
}

/// The measured problem set: the toy conv1d plus every Table 1 row.
fn problem_set() -> Vec<ProblemSpec> {
    let mut problems = vec![ProblemSpec::conv1d(1024, 7)];
    problems.extend(table1::all_problems().into_iter().map(|t| t.problem));
    problems
}

/// Run the sweep: every policy of [`policy_set`] × 1/2/4 disjoint shards,
/// SA per shard, `evals` evaluations per problem per point.
pub fn run_sync_bench(evals: u64, threads: usize, seed: u64) -> SyncBenchResult {
    let arch = evaluated_accelerator();
    let problems = problem_set();
    let mut points = Vec::new();

    for (label, sync) in policy_set() {
        for &shards in &[1usize, 2, 4] {
            let mut log_sum = 0.0f64;
            let mut counted = 0usize;
            let mut total_evaluations = 0u64;
            let watch = Stopwatch::start();
            for problem in &problems {
                let space = MapSpace::new(problem.clone(), arch.mapping_constraints());
                let evaluator: Arc<dyn CostEvaluator> = Arc::new(ModelEvaluator::edp(
                    CostModel::new(arch.clone(), problem.clone()),
                ));
                let mapper = Mapper::new(MapperConfig {
                    threads,
                    shards: Some(shards),
                    shard_space: shards > 1,
                    seed,
                    sync_interval: SYNC_INTERVAL,
                    sync,
                    termination: TerminationPolicy::search_size(evals),
                    ..MapperConfig::default()
                });
                let report = mapper.run(&space, evaluator, |_| {
                    Box::new(SimulatedAnnealing::default())
                });
                total_evaluations += report.total_evaluations;
                let best = report.best_cost();
                if best.is_finite() && best > 0.0 {
                    log_sum += best.ln();
                    counted += 1;
                }
            }
            let wall_s = watch.elapsed_s();
            points.push(SyncBenchPoint {
                policy: label.clone(),
                shards,
                geomean_best_edp: if counted > 0 {
                    (log_sum / counted as f64).exp()
                } else {
                    f64::INFINITY
                },
                total_evaluations,
                evals_per_sec: rate(total_evaluations, wall_s),
                wall_s,
            });
        }
    }

    SyncBenchResult {
        problems: problems.iter().map(|p| p.name.clone()).collect(),
        evals_per_problem: evals,
        threads,
        available_parallelism: std::thread::available_parallelism()
            .map(std::num::NonZeroUsize::get)
            .unwrap_or(1),
        points,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tiny_sync_bench_produces_all_points_and_valid_json() {
        // 144 evals ⇒ a 4-shard share of 36 crosses two 16-eval rounds, so
        // the policies actually fire even at test size.
        let result = run_sync_bench(144, 2, 3);
        assert_eq!(result.points.len(), 9, "3 policies x 3 shard counts");
        assert_eq!(result.problems.len(), 9, "conv1d + eight Table 1 rows");
        for p in &result.points {
            assert!(p.geomean_best_edp.is_finite() && p.geomean_best_edp > 0.0);
            assert_eq!(p.total_evaluations, 144 * 9, "{}: iso-budget", p.policy);
        }
        // The policies genuinely diverge at multi-shard points: "off" and
        // "anchor" cannot coincide on every problem.
        let edp = |policy: &str, shards: usize| {
            result
                .points
                .iter()
                .find(|p| p.policy == policy && p.shards == shards)
                .unwrap()
                .geomean_best_edp
        };
        assert_ne!(edp("off", 4), edp("anchor", 4));
        let json = result.to_json();
        assert!(json.contains("\"bench\": \"sync_policy\""));
        assert!(json.contains("annealed(0.9->0.1)"));
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        assert_eq!(json.matches('[').count(), json.matches(']').count());
    }
}
