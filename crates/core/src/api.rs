//! The Mind Mappings API (Appendix B): a facade intended to be embedded in
//! compilers/frameworks targeting a specialized accelerator.
//!
//! The API requires three routines from the map space — `getMapping`,
//! `isMember`, and `getProjection` — all of which are provided by
//! `mm-mapspace` and re-exposed here per problem, plus the two-phase search
//! itself: [`MindMappings::train`] (Phase 1, offline, once per
//! algorithm-accelerator pair) and [`MindMappings::search`] /
//! [`MindMappings::best_mapping`] (Phase 2, online, per target problem).

use mm_accel::{Architecture, CostModel};
use mm_mapspace::problem::ProblemFamily;
use mm_mapspace::{MapSpace, Mapping, ProblemSpec};
use mm_nn::TrainHistory;
use mm_search::{Budget, SearchTrace};
use rand::rngs::StdRng;
use rand::Rng;

use crate::config::{Phase1Config, Phase2Config};
use crate::dataset::generate_training_set;
use crate::gradient_search::GradientSearch;
use crate::surrogate::Surrogate;
use crate::MindMappingsError;

/// The Mind Mappings optimization framework for one
/// (accelerator, algorithm family) pair.
#[derive(Debug, Clone)]
pub struct MindMappings {
    arch: Architecture,
    surrogate: Surrogate,
    phase2: Phase2Config,
}

impl MindMappings {
    /// Phase 1: generate a training set for `family` on `arch` and train the
    /// differentiable surrogate. Performed offline, once per target
    /// algorithm (Section 4.1); the returned history contains the train/test
    /// loss curves of Figure 7a.
    ///
    /// # Errors
    ///
    /// Returns an error if the training-set size is zero or training fails.
    pub fn train<F: ProblemFamily + ?Sized, R: Rng>(
        arch: Architecture,
        family: &F,
        config: &Phase1Config,
        rng: &mut R,
    ) -> Result<(Self, TrainHistory), MindMappingsError> {
        let dataset = generate_training_set(
            &arch,
            family,
            config.num_samples,
            config.mappings_per_problem,
            rng,
        )?;
        let (surrogate, history) = Surrogate::train_owned(arch.clone(), dataset, config, rng)?;
        Ok((
            MindMappings {
                arch,
                surrogate,
                phase2: Phase2Config::default(),
            },
            history,
        ))
    }

    /// Build a framework instance from an already-trained surrogate (e.g.
    /// one trained with a custom dataset), with the given Phase-2
    /// configuration.
    pub fn from_surrogate(surrogate: Surrogate, phase2: Phase2Config) -> Self {
        MindMappings {
            arch: surrogate.arch().clone(),
            surrogate,
            phase2,
        }
    }

    /// The accelerator this framework targets.
    pub fn arch(&self) -> &Architecture {
        &self.arch
    }

    /// The trained surrogate.
    pub fn surrogate(&self) -> &Surrogate {
        &self.surrogate
    }

    /// The Phase-2 configuration.
    pub fn phase2_config(&self) -> &Phase2Config {
        &self.phase2
    }

    /// Replace the Phase-2 configuration.
    pub fn set_phase2_config(&mut self, config: Phase2Config) {
        self.phase2 = config;
    }

    /// The map space of `problem` on this accelerator.
    pub fn map_space(&self, problem: &ProblemSpec) -> MapSpace {
        MapSpace::new(problem.clone(), self.arch.mapping_constraints())
    }

    /// `getMapping`: a uniformly random valid mapping for `problem`.
    pub fn get_mapping<R: Rng>(&self, problem: &ProblemSpec, rng: &mut R) -> Mapping {
        self.map_space(problem).random_mapping(rng)
    }

    /// `isMember`: whether `mapping` is valid for `problem` on this
    /// accelerator.
    pub fn is_member(&self, problem: &ProblemSpec, mapping: &Mapping) -> bool {
        self.map_space(problem).is_member(mapping)
    }

    /// `getProjection`: the nearest valid mapping to an arbitrary encoded
    /// mapping vector.
    ///
    /// # Errors
    ///
    /// Returns an error if the vector length does not match the problem's
    /// encoding.
    pub fn get_projection(
        &self,
        problem: &ProblemSpec,
        mapping_values: &[f32],
    ) -> Result<Mapping, mm_mapspace::MapSpaceError> {
        self.map_space(problem).project(mapping_values)
    }

    /// Phase 2 with full instrumentation: run one gradient trajectory for
    /// `iterations` surrogate queries and return a trace whose costs are true
    /// EDPs (evaluated with the reference cost model after the timed loop).
    ///
    /// This is the paper's single-trajectory protocol. A sharded, synced or
    /// multi-threaded Phase 2 is an `mm-mapper` `Mapper` run whose searcher
    /// factory returns [`GradientProposer`](crate::GradientProposer)s.
    ///
    /// # Panics
    ///
    /// Panics if `problem` does not belong to the family the surrogate was
    /// trained for; use [`GradientSearch::new`] directly for a fallible
    /// variant.
    pub fn search(&self, problem: &ProblemSpec, iterations: u64, rng: &mut StdRng) -> SearchTrace {
        self.search_with_budget(problem, Budget::iterations(iterations), rng)
            // mm-lint: allow(panic): documented contract — the fallible
            // variant is `GradientSearch::new`, per the doc comment above.
            .expect("problem must belong to the surrogate's family")
    }

    /// Phase 2 with an arbitrary budget (iteration- and/or time-limited).
    ///
    /// # Errors
    ///
    /// Returns an error if the problem does not match the surrogate's family.
    pub fn search_with_budget(
        &self,
        problem: &ProblemSpec,
        budget: Budget,
        rng: &mut StdRng,
    ) -> Result<SearchTrace, MindMappingsError> {
        let evaluator = CostModel::new(self.arch.clone(), problem.clone());
        let gs = GradientSearch::new(&self.surrogate, problem.clone(), self.phase2)?;
        Ok(gs.run(budget, &evaluator, rng))
    }

    /// Deployment-mode Phase 2: return only the best mapping found, never
    /// touching the reference cost model (pure surrogate-guided search).
    ///
    /// # Errors
    ///
    /// Returns an error if the problem does not match the surrogate's family.
    pub fn best_mapping(
        &self,
        problem: &ProblemSpec,
        budget: Budget,
        rng: &mut StdRng,
    ) -> Result<Mapping, MindMappingsError> {
        let gs = GradientSearch::new(&self.surrogate, problem.clone(), self.phase2)?;
        Ok(gs.best_mapping(budget, rng))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mm_accel::Architecture;
    use mm_workloads::conv1d::Conv1dFamily;
    use rand::SeedableRng;

    fn quick_framework(seed: u64) -> MindMappings {
        let mut rng = StdRng::seed_from_u64(seed);
        let cfg = Phase1Config {
            num_samples: 1500,
            mappings_per_problem: 50,
            hidden_layers: vec![48, 48],
            epochs: 20,
            batch_size: 64,
            ..Phase1Config::quick()
        };
        MindMappings::train(
            Architecture::example(),
            &Conv1dFamily::default(),
            &cfg,
            &mut rng,
        )
        .unwrap()
        .0
    }

    #[test]
    fn api_routines_work_end_to_end() {
        let mm = quick_framework(11);
        let problem = ProblemSpec::conv1d(640, 5);
        let mut rng = StdRng::seed_from_u64(12);

        // getMapping / isMember
        let m = mm.get_mapping(&problem, &mut rng);
        assert!(mm.is_member(&problem, &m));

        // getProjection of random noise
        let enc = mm.surrogate().encoding();
        let noise: Vec<f32> = (0..enc.mapping_len())
            .map(|i| i as f32 * 3.7 - 10.0)
            .collect();
        let projected = mm.get_projection(&problem, &noise).unwrap();
        assert!(mm.is_member(&problem, &projected));

        // Phase 2 search
        let trace = mm.search(&problem, 200, &mut rng);
        assert!(trace.best_cost.is_finite() && trace.best_cost > 0.0);
        assert_eq!(trace.method, "MM");

        // Deployment mode
        let best = mm
            .best_mapping(&problem, Budget::iterations(100), &mut rng)
            .unwrap();
        assert!(mm.is_member(&problem, &best));
    }

    #[test]
    fn search_with_budget_rejects_foreign_family() {
        let mm = quick_framework(13);
        let cnn = mm_workloads::cnn::CnnLayer::resnet_conv3().into_problem();
        let mut rng = StdRng::seed_from_u64(14);
        assert!(mm
            .search_with_budget(&cnn, Budget::iterations(10), &mut rng)
            .is_err());
    }

    #[test]
    fn phase2_config_roundtrip() {
        let mut mm = quick_framework(15);
        let cfg = Phase2Config {
            learning_rate: 0.5,
            ..Phase2Config::default()
        };
        mm.set_phase2_config(cfg);
        assert!((mm.phase2_config().learning_rate - 0.5).abs() < 1e-9);
        assert_eq!(mm.arch().num_pes, 16);
    }
}
