//! [`GradientProposer`]: the Phase-2 gradient search as a stepwise
//! [`ProposalSearch`].
//!
//! The monolithic [`GradientSearch`](crate::GradientSearch) owns its loop
//! and queries only the surrogate; true costs are filled in afterwards. The
//! proposer inverts that control: every [`propose`](ProposalSearch::propose)
//! call advances the surrogate-side trajectory (gradient step → projection →
//! periodic annealed random injection, exactly as Section 4.2 describes) and
//! emits the visited mappings as proposals for the orchestrator to evaluate
//! against the reference cost model.
//!
//! This is how every sharded, synced or multi-threaded Phase 2 runs:
//! `Mapper::run(&space, evaluator, |_| Box::new(GradientProposer::new(..)))`
//! in `mm-mapper`, with `MapperConfig { shards, shard_space: true, sync, .. }`
//! (deployment mode: the same with `mm-serve`'s `SurrogateEvaluator`). The
//! `Mapper` owns shards, budgets, rounds and the sync policy; `mm-core` has
//! no driver of its own beyond the single-trajectory `GradientSearch`.
//!
//! Crucially, the trajectory *never* depends on the reported true costs —
//! matching the paper's methodology, where the reference model only scores
//! visited mappings offline. That makes the gradient proposer the ideal
//! pipelining citizen: proposals can run arbitrarily far ahead of pending
//! evaluations ([`ProposalSearch::lookahead`] is large), keeping every
//! evaluation worker busy.

use mm_mapspace::{MapSpaceView, Mapping, ProblemSpec};
use mm_search::{ProposalBuf, ProposalSearch, SyncAction};
use rand::rngs::StdRng;

use crate::config::Phase2Config;
use crate::gradient_search::Trajectory;
use crate::surrogate::Surrogate;
use crate::MindMappingsError;

/// The Phase-2 gradient search as a stepwise proposal source.
#[derive(Debug, Clone)]
pub struct GradientProposer {
    surrogate: Surrogate,
    problem: ProblemSpec,
    config: Phase2Config,
    /// The live trajectory of one run.
    trajectory: Option<Trajectory>,
    /// Whether the run's starting mapping has been proposed yet.
    proposed_initial: bool,
}

impl GradientProposer {
    /// Create a proposer for `problem` using a trained `surrogate`.
    ///
    /// The surrogate is cloned in, so the proposer is `Send` and each mapper
    /// thread can own one.
    ///
    /// # Errors
    ///
    /// Returns [`MindMappingsError::FamilyMismatch`] if the problem's shape
    /// does not match the family the surrogate was trained on.
    pub fn new(
        surrogate: &Surrogate,
        problem: ProblemSpec,
        config: Phase2Config,
    ) -> Result<Self, MindMappingsError> {
        surrogate.check_problem(&problem)?;
        Ok(GradientProposer {
            surrogate: surrogate.clone(),
            problem,
            config,
            trajectory: None,
            proposed_initial: false,
        })
    }
}

impl ProposalSearch for GradientProposer {
    fn name(&self) -> &str {
        "MM"
    }

    fn begin(&mut self, space: &dyn MapSpaceView, _horizon: Option<u64>, rng: &mut StdRng) {
        assert_eq!(
            (space.problem().num_dims(), space.problem().num_tensors()),
            (self.problem.num_dims(), self.problem.num_tensors()),
            "map space problem shape does not match the proposer's problem"
        );
        self.trajectory = Some(Trajectory::new(
            &self.surrogate,
            &self.problem,
            space.random_mapping(rng),
            self.config,
        ));
        self.proposed_initial = false;
    }

    /// The trajectory is independent of reported costs, so proposals can run
    /// far ahead of evaluations.
    fn lookahead(&self) -> usize {
        1024
    }

    fn propose(
        &mut self,
        space: &dyn MapSpaceView,
        rng: &mut StdRng,
        max: usize,
        out: &mut ProposalBuf,
    ) {
        // mm-lint: allow(panic): calling the strategy outside a begin()
        // session is a driver bug, not a recoverable state.
        let trajectory = self.trajectory.as_mut().expect("begin() not called");
        if !self.proposed_initial {
            self.proposed_initial = true;
            out.next_slot().clone_from(&trajectory.current);
        }
        // One surrogate iteration per proposal; skip consecutive duplicates
        // (a rounded-back gradient step) up to a bounded number of retries
        // so stuck trajectories still emit.
        let mut retries = 0usize;
        while out.len() < max.max(1) && retries < 4 * max.max(1) {
            let moved = trajectory.step(&self.surrogate, &self.problem, space, rng, |_, _| {});
            if moved || out.is_empty() {
                out.next_slot().clone_from(&trajectory.current);
            } else {
                retries += 1;
            }
        }
    }

    /// True costs never steer the surrogate trajectory (paper methodology);
    /// best-so-far tracking lives in the orchestrator.
    fn report(&mut self, _mapping: &Mapping, _cost: f64, _rng: &mut StdRng) {}

    /// Re-anchor the trajectory on the incumbent: the current point (and
    /// its whitened encoding) jump to `mapping`, which may lie in another
    /// shard — it is never emitted itself, and the next step projects back
    /// into `space`. An incumbent observed before
    /// [`begin`](ProposalSearch::begin) is ignored, as by the trait default.
    fn observe_global_best(
        &mut self,
        _space: &dyn MapSpaceView,
        mapping: &Mapping,
        _cost: f64,
        _action: SyncAction,
        _rng: &mut StdRng,
    ) {
        if let Some(trajectory) = self.trajectory.as_mut() {
            trajectory.move_to(&self.surrogate, &self.problem, mapping);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::Phase1Config;
    use crate::dataset::generate_training_set;
    use mm_accel::{Architecture, CostModel};
    use mm_mapspace::MapSpace;
    use mm_search::{drive, Budget, FnObjective};
    use mm_workloads::conv1d::Conv1dFamily;
    use rand::SeedableRng;

    fn surrogate(seed: u64) -> Surrogate {
        let arch = Architecture::example();
        let fam = Conv1dFamily::default();
        let mut rng = StdRng::seed_from_u64(seed);
        let ds = generate_training_set(&arch, &fam, 1500, 50, &mut rng).unwrap();
        let cfg = Phase1Config {
            hidden_layers: vec![48, 48],
            epochs: 25,
            batch_size: 64,
            ..Phase1Config::quick()
        };
        Surrogate::train(arch, &ds, &cfg, &mut rng).unwrap().0
    }

    #[test]
    fn rejects_problems_from_another_family() {
        let s = surrogate(0);
        let cnn = mm_workloads::cnn::CnnLayer::alexnet_conv4().into_problem();
        assert!(GradientProposer::new(&s, cnn, Phase2Config::default()).is_err());
    }

    #[test]
    fn proposals_are_valid_and_batch_ahead() {
        let s = surrogate(1);
        let problem = mm_mapspace::ProblemSpec::conv1d(900, 7);
        let space = MapSpace::new(problem.clone(), s.arch().mapping_constraints());
        let mut gp = GradientProposer::new(&s, problem, Phase2Config::default()).unwrap();
        let mut rng = StdRng::seed_from_u64(2);
        gp.begin(&space, None, &mut rng);
        let mut buf = ProposalBuf::new();
        gp.propose(&space, &mut rng, 32, &mut buf);
        assert!(!buf.is_empty(), "gradient proposer always makes progress");
        assert!(buf.len() <= 32);
        assert!(buf.iter().all(|m| space.is_member(m)));
        // No reports were needed to keep proposing: trajectory independence.
        buf.clear();
        gp.propose(&space, &mut rng, 32, &mut buf);
        assert!(!buf.is_empty());
    }

    #[test]
    fn driven_gradient_search_beats_average_random_mapping() {
        let s = surrogate(3);
        let problem = mm_mapspace::ProblemSpec::conv1d(1200, 5);
        let space = MapSpace::new(problem.clone(), s.arch().mapping_constraints());
        let model = CostModel::new(s.arch().clone(), problem.clone());
        let mut rng = StdRng::seed_from_u64(4);
        let mut mean = 0.0;
        let n = 30;
        for _ in 0..n {
            mean += model.edp(&space.random_mapping(&mut rng));
        }
        mean /= n as f64;

        let mut gp = GradientProposer::new(&s, problem, Phase2Config::default()).unwrap();
        let mut obj = FnObjective::new(|m: &Mapping| model.edp(m));
        let trace = drive(&mut gp, &space, &mut obj, Budget::iterations(400), &mut rng);
        assert_eq!(trace.method, "MM");
        assert!(
            trace.best_cost < mean,
            "MM proposer ({}) did not beat the random-mapping mean ({mean})",
            trace.best_cost
        );
        assert!(space.is_member(trace.best_mapping.as_ref().unwrap()));
    }
}
