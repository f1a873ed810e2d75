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
use mm_search::{drive, split_evenly, Budget, FnObjective, SearchTrace, TracePoint};
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
        let (surrogate, history) = Surrogate::train(arch.clone(), &dataset, config, rng)?;
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

    /// Phase 2 with full instrumentation: run the gradient search for
    /// `iterations` surrogate queries and return a trace whose costs are true
    /// EDPs (evaluated with the reference cost model after the timed loop).
    ///
    /// When [`Phase2Config::shards`] is greater than 1, the iteration budget
    /// is split exactly across that many pairwise-disjoint map-space shards
    /// ([`MapSpace::shard`]), each searched by its own gradient trajectory;
    /// the per-shard traces are merged in shard order.
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

    /// The effective shard count for `space` under this framework's
    /// [`Phase2Config::shards`] knob.
    fn effective_shards(&self, space: &MapSpace) -> usize {
        space.clamp_shard_count(self.phase2.shards.max(1))
    }

    /// The per-shard slice of `budget`: queries split exactly via
    /// [`split_evenly`], any wall-clock limit divided evenly.
    fn shard_budget(budget: Budget, shard: usize, shards: usize) -> Budget {
        Budget {
            max_queries: if budget.max_queries == u64::MAX {
                u64::MAX
            } else {
                split_evenly(budget.max_queries, shard, shards)
            },
            max_time: budget.max_time.map(|t| t / shards as u32),
        }
    }

    /// Phase 2 over disjoint map-space shards: one gradient trajectory per
    /// shard, the budget split exactly, traces merged in shard order. Each
    /// proposal is scored by `objective` as it is visited.
    ///
    /// With [`Phase2Config::sync`] enabled, the policy is consulted before
    /// each trajectory after the first — progress = fraction of shards
    /// completed — and, when it acts, the running best mapping is handed to
    /// the next shard's proposer as its starting anchor.
    fn search_sharded(
        &self,
        problem: &ProblemSpec,
        budget: Budget,
        objective: &mut dyn mm_search::Objective,
        rng: &mut StdRng,
    ) -> Result<SearchTrace, MindMappingsError> {
        /// Presents the shared objective with a per-shard query counter, so
        /// each shard's budget starts from zero instead of inheriting the
        /// previous shards' query count.
        struct OffsetObjective<'a> {
            inner: &'a mut dyn mm_search::Objective,
            base: u64,
        }
        impl mm_search::Objective for OffsetObjective<'_> {
            fn cost(&mut self, mapping: &Mapping) -> f64 {
                self.inner.cost(mapping)
            }
            fn queries(&self) -> u64 {
                self.inner.queries() - self.base
            }
        }

        let space = self.map_space(problem);
        let shards = self.effective_shards(&space);
        let mut merged = SearchTrace::new("MM");
        for s in 0..shards {
            let view = space.shard(s, shards);
            let mut proposer =
                crate::GradientProposer::new(&self.surrogate, problem.clone(), self.phase2)?;
            // One sync point per shard boundary.
            if self.phase2.sync.is_enabled() && s > 0 {
                if let Some(best) = &merged.best_mapping {
                    let progress = s as f64 / shards as f64;
                    if let Some(action) = self.phase2.sync.decide(progress, rng) {
                        use mm_search::ProposalSearch;
                        proposer.observe_global_best(&view, best, merged.best_cost, action, rng);
                    }
                }
            }
            let mut shard_objective = OffsetObjective {
                base: objective.queries(),
                inner: objective,
            };
            let trace = drive(
                &mut proposer,
                &view,
                &mut shard_objective,
                Self::shard_budget(budget, s, shards),
                rng,
            );
            merge_trace(&mut merged, &trace);
        }
        Ok(merged)
    }

    /// Phase 2 with an arbitrary budget (iteration- and/or time-limited).
    ///
    /// With [`Phase2Config::shards`] greater than 1 the budget is split
    /// exactly across that many pairwise-disjoint map-space shards
    /// ([`MapSpace::shard`]), each searched by its own gradient trajectory
    /// (scored by the reference cost model as it goes); the per-shard traces
    /// are merged in shard order.
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
        if self.phase2.shards > 1 {
            let mut objective = FnObjective::new(|m: &Mapping| evaluator.edp(m));
            return self.search_sharded(problem, budget, &mut objective, rng);
        }
        let gs = GradientSearch::new(&self.surrogate, problem.clone(), self.phase2)?;
        Ok(gs.run(budget, &evaluator, rng))
    }

    /// Deployment-mode Phase 2: return only the best mapping found, never
    /// touching the reference cost model (pure surrogate-guided search).
    ///
    /// With [`Phase2Config::shards`] greater than 1, one trajectory searches
    /// each disjoint shard and the candidate with the best *surrogate*
    /// prediction across shards is returned — the reference model is still
    /// never queried.
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
        if self.phase2.shards > 1 {
            // Score visited candidates with the surrogate only.
            let surrogate = &self.surrogate;
            let mut objective = FnObjective::new(|m: &Mapping| {
                let x = surrogate.encode_normalized(problem, m);
                surrogate.predict_normalized_edp_from_input(&x)
            });
            let trace = self.search_sharded(problem, budget, &mut objective, rng)?;
            if let Some(best) = trace.best_mapping {
                return Ok(best);
            }
            // Zero-budget runs fall through to a plain valid mapping.
            return Ok(self.map_space(problem).random_mapping(rng));
        }
        let gs = GradientSearch::new(&self.surrogate, problem.clone(), self.phase2)?;
        Ok(gs.best_mapping(budget, rng))
    }
}

/// Append `trace`'s points to `merged` (renumbering queries and rebuilding
/// the monotone best-so-far prefix) and merge the best mapping.
fn merge_trace(merged: &mut SearchTrace, trace: &SearchTrace) {
    let prev_best = merged.best_cost;
    for p in &trace.points {
        if p.cost < merged.best_cost {
            merged.best_cost = p.cost;
        }
        merged.points.push(TracePoint {
            queries: merged.points.len() as u64 + 1,
            cost: p.cost,
            best_cost: merged.best_cost,
            elapsed_s: merged.wall_time_s + p.elapsed_s,
        });
    }
    // Strictly-better-wins, so ties resolve to the earliest shard.
    if trace.best_mapping.is_some()
        && (merged.best_mapping.is_none() || trace.best_cost < prev_best)
    {
        merged.best_mapping = trace.best_mapping.clone();
    }
    merged.wall_time_s += trace.wall_time_s;
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
    fn sharded_phase2_search_spends_the_exact_budget() {
        let mut mm = quick_framework(21);
        mm.set_phase2_config(Phase2Config {
            shards: 4,
            ..Phase2Config::default()
        });
        let problem = ProblemSpec::conv1d(640, 5);
        let mut rng = StdRng::seed_from_u64(22);
        let trace = mm.search(&problem, 202, &mut rng);
        assert_eq!(trace.method, "MM");
        assert_eq!(trace.len(), 202, "shard shares must sum to the budget");
        assert!(trace.best_cost.is_finite() && trace.best_cost > 0.0);
        assert!(mm.is_member(&problem, trace.best_mapping.as_ref().unwrap()));
        // Best-so-far prefix stays monotone across the shard boundary merge.
        for w in trace.points.windows(2) {
            assert!(w[1].best_cost <= w[0].best_cost);
        }

        // The other Phase-2 entry points honor the shards knob too.
        let budgeted = mm
            .search_with_budget(&problem, Budget::iterations(101), &mut rng)
            .unwrap();
        assert_eq!(budgeted.len(), 101);
        let deployed = mm
            .best_mapping(&problem, Budget::iterations(80), &mut rng)
            .unwrap();
        assert!(mm.is_member(&problem, &deployed));
    }

    #[test]
    fn synced_sharded_phase2_spends_the_exact_budget_and_stays_valid() {
        use mm_search::SyncPolicy;
        let mut mm = quick_framework(31);
        let problem = ProblemSpec::conv1d(640, 5);
        for sync in [
            SyncPolicy::Anchor,
            SyncPolicy::Annealed {
                start: 1.0,
                end: 1.0,
            },
        ] {
            mm.set_phase2_config(Phase2Config {
                shards: 4,
                sync,
                ..Phase2Config::default()
            });
            let mut rng = StdRng::seed_from_u64(32);
            let trace = mm.search(&problem, 120, &mut rng);
            assert_eq!(trace.len(), 120, "{sync}: shard shares must sum");
            assert!(trace.best_cost.is_finite() && trace.best_cost > 0.0);
            assert!(mm.is_member(&problem, trace.best_mapping.as_ref().unwrap()));
            for w in trace.points.windows(2) {
                assert!(w[1].best_cost <= w[0].best_cost);
            }
        }
    }

    #[test]
    fn shard_budget_split_is_exact() {
        for (total, count) in [(10u64, 3usize), (202, 4), (7, 7), (5, 8), (0, 3), (100, 1)] {
            let shares: Vec<u64> = (0..count).map(|i| split_evenly(total, i, count)).collect();
            assert_eq!(shares.iter().sum::<u64>(), total, "{total}/{count}");
            let max = shares.iter().max().unwrap();
            let min = shares.iter().min().unwrap();
            assert!(max - min <= 1, "{total}/{count}: {shares:?}");
        }
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
