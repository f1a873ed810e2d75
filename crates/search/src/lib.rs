//! # mm-search
//!
//! Black-box mapping-space search baselines, as used for comparison in
//! Section 5 of *Mind Mappings* (ASPLOS 2021):
//!
//! * [`SimulatedAnnealing`] — the `simanneal`-style baseline (Appendix A);
//! * [`GeneticAlgorithm`] — the DEAP-style baseline with population 100,
//!   crossover probability 0.75, and per-attribute mutation probability 0.05;
//! * [`DdpgAgent`] — a deep-deterministic-policy-gradient actor–critic agent
//!   in the spirit of the HAQ-derived RL baseline;
//! * [`RandomSearch`] — uniform random sampling (a sanity baseline).
//!
//! All searchers implement the stepwise [`ProposalSearch`] protocol
//! (`propose`/`report`): random search, SA, GA and the DDPG agent are state
//! machines that someone else drives. [`drive`] is the classic sequential
//! loop over an [`Objective`] (typically the `mm-accel` cost model, or the
//! Mind Mappings surrogate); it produces a [`SearchTrace`]: the best-so-far
//! cost after every cost-function query plus wall-clock timing, which is
//! exactly what the iso-iteration (Figure 5) and iso-time (Figure 6)
//! comparisons need. The parallel mapper (`mm-mapper`) and the service
//! (`mm-serve`) drive the same searchers from their own loops.
//!
//! Multi-shard drivers additionally speak the **global-best sync protocol**:
//! a [`SyncPolicy`] decides *when* a shard re-anchors on the shared
//! incumbent (never, always, or with annealed probability), and each
//! searcher's [`ProposalSearch::observe_global_best`] implements the
//! re-anchor mechanics for its own trajectory representation.

pub mod annealing;
pub mod genetic;
pub mod objective;
pub mod proposal;
pub mod random;
pub mod rl;
pub mod sync;
pub mod trace;

pub use annealing::{AnnealingConfig, SimulatedAnnealing};
pub use genetic::{GeneticAlgorithm, GeneticConfig};
pub use objective::{split_evenly, Budget, FnObjective, Objective};
pub use proposal::{drive, ProposalBuf, ProposalSearch};
pub use random::RandomSearch;
pub use rl::{DdpgAgent, DdpgConfig};
pub use sync::{SyncAction, SyncPolicy};
pub use trace::{
    merge_shard_convergence, ConvergencePoint, ConvergenceTrace, SearchTrace, TracePoint,
};

/// Intern-once helper for the searchers' proposal/acceptance counters: each
/// call site owns a `OnceLock` cell, so the hot path is one atomic load plus
/// the counter's own relaxed level check.
pub(crate) fn tele_counter(
    cell: &'static std::sync::OnceLock<std::sync::Arc<mm_telemetry::Counter>>,
    name: &'static str,
) -> &'static std::sync::Arc<mm_telemetry::Counter> {
    cell.get_or_init(|| mm_telemetry::counter(name))
}

#[cfg(test)]
mod tests {
    use super::*;
    use mm_accel::{Architecture, CostModel};
    use mm_mapspace::{MapSpace, Mapping, ProblemSpec};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// End-to-end smoke test: every searcher improves on the average random
    /// mapping for a small 1-D convolution problem.
    #[test]
    fn all_searchers_beat_average_random_mapping() {
        let arch = Architecture::example();
        let problem = ProblemSpec::conv1d(512, 7);
        let space = MapSpace::new(problem.clone(), arch.mapping_constraints());
        let model = CostModel::new(arch, problem);
        let mut rng = StdRng::seed_from_u64(99);

        // Baseline: mean EDP of random mappings.
        let mut mean = 0.0;
        let samples = 30;
        for _ in 0..samples {
            mean += model.edp(&space.random_mapping(&mut rng));
        }
        mean /= samples as f64;

        let budget = Budget::iterations(300);
        let mut searchers: Vec<Box<dyn ProposalSearch>> = vec![
            Box::new(RandomSearch::new()),
            Box::new(SimulatedAnnealing::new(AnnealingConfig::default())),
            Box::new(GeneticAlgorithm::new(GeneticConfig {
                population: 20,
                ..GeneticConfig::default()
            })),
            Box::new(DdpgAgent::new(DdpgConfig {
                warmup: 16,
                batch_size: 8,
                ..DdpgConfig::default()
            })),
        ];
        for searcher in &mut searchers {
            let mut objective = FnObjective::new(|m: &Mapping| model.edp(m));
            let trace = drive(&mut **searcher, &space, &mut objective, budget, &mut rng);
            assert!(
                trace.best_cost < mean,
                "{} did not beat the random-mapping mean: {} vs {}",
                searcher.name(),
                trace.best_cost,
                mean
            );
            assert!(trace.best_mapping.is_some());
            assert!(space.is_member(trace.best_mapping.as_ref().unwrap()));
        }
    }
}
