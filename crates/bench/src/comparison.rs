//! The SA / GA / RL / Random / MM comparison machinery behind Figures 5
//! and 6: run every search method on one target problem under a common
//! budget, average over several runs, and report normalized-EDP traces.

use mm_accel::CostModel;
use mm_core::{CostModelObjective, GradientSearch, Phase2Config, Surrogate};
use mm_mapspace::{MapSpace, ProblemSpec};
use mm_search::{
    drive, AnnealingConfig, Budget, DdpgAgent, DdpgConfig, GeneticAlgorithm, GeneticConfig,
    ProposalSearch, RandomSearch, SearchTrace, SimulatedAnnealing,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

/// The averaged result of one search method on one problem.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MethodRun {
    /// Method name (`SA`, `GA`, `RL`, `Random`, `MM`).
    pub method: String,
    /// Run-averaged trace with costs normalized to the algorithmic minimum.
    pub trace: SearchTrace,
    /// Best normalized EDP, averaged across runs.
    pub best_normalized_edp: f64,
    /// Mean wall-clock seconds per cost-function (or surrogate) query.
    pub seconds_per_query: f64,
}

/// Results for all methods on one target problem.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ComparisonResult {
    /// Problem name.
    pub problem: String,
    /// log10 of the estimated map-space size (Section 5.1.3 context).
    pub log10_space_size: f64,
    /// One entry per method.
    pub methods: Vec<MethodRun>,
}

impl ComparisonResult {
    /// Best normalized EDP of a method, if present.
    pub fn best_of(&self, method: &str) -> Option<f64> {
        self.methods
            .iter()
            .find(|m| m.method == method)
            .map(|m| m.best_normalized_edp)
    }

    /// Ratio `best(method) / best(MM)` — how much worse a baseline is than
    /// Mind Mappings (the headline numbers of the abstract).
    pub fn ratio_vs_mm(&self, method: &str) -> Option<f64> {
        let mm = self.best_of("MM")?;
        Some(self.best_of(method)? / mm)
    }
}

/// Which baselines to include in a comparison.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MethodSelection {
    /// Include Simulated Annealing.
    pub sa: bool,
    /// Include the Genetic Algorithm.
    pub ga: bool,
    /// Include the RL (DDPG) agent.
    pub rl: bool,
    /// Include uniform random search.
    pub random: bool,
    /// Include Mind Mappings (requires a surrogate).
    pub mm: bool,
}

impl Default for MethodSelection {
    fn default() -> Self {
        MethodSelection {
            sa: true,
            ga: true,
            rl: true,
            random: true,
            mm: true,
        }
    }
}

/// Run every selected method on `problem` for the given budget, averaging
/// `runs` independent repetitions. Costs in the returned traces are EDPs
/// normalized to the problem's algorithmic minimum (the `y`-axis of Figures 5
/// and 6).
pub fn run_comparison(
    problem: &ProblemSpec,
    surrogate: Option<&Surrogate>,
    budget: Budget,
    runs: usize,
    selection: MethodSelection,
    seed: u64,
) -> ComparisonResult {
    let arch = mm_workloads::evaluated_accelerator();
    let space = MapSpace::new(problem.clone(), arch.mapping_constraints());
    let model = CostModel::new(arch.clone(), problem.clone());
    let lb_edp = model.lower_bound().edp;
    let runs = runs.max(1);

    let mut methods: Vec<MethodRun> = Vec::new();

    let mut run_baseline = |name: &str, make: &dyn Fn() -> Box<dyn ProposalSearch>| {
        let mut traces = Vec::with_capacity(runs);
        for r in 0..runs {
            let mut rng = StdRng::seed_from_u64(seed ^ (r as u64) << 16 ^ hash_name(name));
            let mut searcher = make();
            let mut objective = CostModelObjective::new(model.clone());
            let mut trace = drive(&mut *searcher, &space, &mut objective, budget, &mut rng);
            normalize_trace(&mut trace, lb_edp);
            traces.push(trace);
        }
        let avg = SearchTrace::average(&traces);
        methods.push(MethodRun {
            method: name.to_string(),
            best_normalized_edp: avg.best_cost,
            seconds_per_query: avg.seconds_per_query(),
            trace: avg,
        });
    };

    if selection.random {
        run_baseline("Random", &|| Box::new(RandomSearch::new()));
    }
    if selection.sa {
        run_baseline("SA", &|| {
            Box::new(SimulatedAnnealing::new(AnnealingConfig::default()))
        });
    }
    if selection.ga {
        run_baseline("GA", &|| {
            Box::new(GeneticAlgorithm::new(GeneticConfig::default()))
        });
    }
    if selection.rl {
        run_baseline("RL", &|| Box::new(DdpgAgent::new(DdpgConfig::default())));
    }

    if selection.mm {
        if let Some(surrogate) = surrogate {
            let gs = GradientSearch::new(surrogate, problem.clone(), Phase2Config::default())
                .expect("surrogate family must match the problem");
            let mut traces = Vec::with_capacity(runs);
            for r in 0..runs {
                let mut rng = StdRng::seed_from_u64(seed ^ (r as u64) << 16 ^ hash_name("MM"));
                let mut trace = gs.run(budget, &model, &mut rng);
                normalize_trace(&mut trace, lb_edp);
                traces.push(trace);
            }
            let avg = SearchTrace::average(&traces);
            methods.push(MethodRun {
                method: "MM".to_string(),
                best_normalized_edp: avg.best_cost,
                seconds_per_query: avg.seconds_per_query(),
                trace: avg,
            });
        }
    }

    ComparisonResult {
        problem: problem.name.clone(),
        log10_space_size: space.log10_size_estimate(),
        methods,
    }
}

/// Mean normalized EDP of uniformly random valid mappings — the
/// characterization statistic of Section 5.1.3 (reported there as energy;
/// we report both energy and EDP in the Table 1 binary).
pub fn random_sampling_statistics(
    problem: &ProblemSpec,
    samples: usize,
    seed: u64,
) -> (f64, f64, f64, f64) {
    let arch = mm_workloads::evaluated_accelerator();
    let space = MapSpace::new(problem.clone(), arch.mapping_constraints());
    let model = CostModel::new(arch, problem.clone());
    let lb = model.lower_bound();
    let mut rng = StdRng::seed_from_u64(seed);
    let mut energy = Vec::with_capacity(samples);
    let mut edp = Vec::with_capacity(samples);
    for _ in 0..samples.max(1) {
        let m = space.random_mapping(&mut rng);
        let cost = model.evaluate(&m);
        energy.push(cost.total_energy_pj / lb.energy_pj);
        edp.push(cost.edp / lb.edp);
    }
    (mean(&energy), std_dev(&energy), mean(&edp), std_dev(&edp))
}

fn mean(v: &[f64]) -> f64 {
    v.iter().sum::<f64>() / v.len().max(1) as f64
}

fn std_dev(v: &[f64]) -> f64 {
    let m = mean(v);
    (v.iter().map(|x| (x - m) * (x - m)).sum::<f64>() / v.len().max(1) as f64).sqrt()
}

fn normalize_trace(trace: &mut SearchTrace, lb_edp: f64) {
    for p in &mut trace.points {
        p.cost /= lb_edp;
        p.best_cost /= lb_edp;
    }
    trace.best_cost /= lb_edp;
}

fn hash_name(name: &str) -> u64 {
    name.bytes().fold(0xcbf29ce484222325u64, |h, b| {
        (h ^ b as u64).wrapping_mul(0x100000001b3)
    })
}

/// Convenience wrapper: a quick comparison with every method and a fresh RNG,
/// used by tests and the examples.
pub fn quick_comparison(
    problem: &ProblemSpec,
    surrogate: Option<&Surrogate>,
    iterations: u64,
    seed: u64,
) -> ComparisonResult {
    run_comparison(
        problem,
        surrogate,
        Budget::iterations(iterations),
        1,
        MethodSelection::default(),
        seed,
    )
}

/// Deterministically seeded RNG helper for the binaries.
pub fn seeded_rng(seed: u64) -> StdRng {
    StdRng::seed_from_u64(seed)
}

/// Sample `n` random mappings and return their normalized EDPs (used by the
/// Figure 3 cost-surface binary for context lines).
pub fn sample_normalized_edps(problem: &ProblemSpec, n: usize, rng: &mut impl Rng) -> Vec<f64> {
    let arch = mm_workloads::evaluated_accelerator();
    let space = MapSpace::new(problem.clone(), arch.mapping_constraints());
    let model = CostModel::new(arch, problem.clone());
    (0..n)
        .map(|_| model.normalized_edp(&space.random_mapping(rng)))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use mm_workloads::mttkrp::MttkrpShape;

    #[test]
    fn comparison_without_surrogate_runs_baselines() {
        let problem = MttkrpShape {
            name: "tiny",
            i: 64,
            j: 64,
            k: 64,
            l: 64,
        }
        .into_problem();
        let result = run_comparison(
            &problem,
            None,
            Budget::iterations(60),
            1,
            MethodSelection {
                mm: false,
                rl: false,
                ..MethodSelection::default()
            },
            7,
        );
        assert_eq!(result.methods.len(), 3); // Random, SA, GA
        for m in &result.methods {
            assert!(m.best_normalized_edp >= 0.99, "{}", m.best_normalized_edp);
            assert!(!m.trace.is_empty());
        }
        assert!(result.best_of("SA").is_some());
        assert!(result.best_of("MM").is_none());
        assert!(result.ratio_vs_mm("SA").is_none());
        assert!(result.log10_space_size > 0.0);
    }

    #[test]
    fn random_statistics_are_positive() {
        let problem = MttkrpShape {
            name: "tiny2",
            i: 64,
            j: 128,
            k: 64,
            l: 64,
        }
        .into_problem();
        let (e_mean, e_std, edp_mean, edp_std) = random_sampling_statistics(&problem, 50, 3);
        assert!(e_mean >= 1.0);
        assert!(e_std >= 0.0);
        assert!(edp_mean >= 1.0);
        assert!(edp_std >= 0.0);
    }
}
