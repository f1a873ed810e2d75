//! Uniform random search: repeatedly sample valid mappings and keep the
//! best. A sanity baseline that any guided method should beat.
//!
//! Random search is the ideal pipelining citizen: proposals are independent
//! of evaluation results, so its [`ProposalSearch::lookahead`] is unbounded
//! and an orchestrator can batch arbitrarily many proposals onto an
//! evaluation pool without waiting for reports.
//!
//! Under a [`SyncPolicy`](crate::SyncPolicy), random search turns into
//! *anchored* random search: once a global best is observed, every second
//! proposal is a neighbour of the anchor instead of a uniform sample —
//! half the budget keeps exploring globally, half exploits the incumbent's
//! basin. Without an observation the behaviour is exactly uniform.

use mm_mapspace::{MapSpaceView, Mapping};
use rand::rngs::StdRng;

use crate::proposal::{ProposalBuf, ProposalSearch};
use crate::sync::SyncAction;

/// Uniform random search (anchored near the global best once one is
/// observed).
#[derive(Debug, Clone, Default)]
pub struct RandomSearch {
    /// The last observed global best; when set, every second proposal is a
    /// neighbour of it.
    anchor: Option<Mapping>,
    /// Proposal counter driving the uniform/neighbour alternation.
    proposed: u64,
}

impl RandomSearch {
    /// Create a random-search baseline.
    pub fn new() -> Self {
        RandomSearch::default()
    }
}

impl ProposalSearch for RandomSearch {
    fn name(&self) -> &str {
        "Random"
    }

    fn begin(&mut self, _space: &dyn MapSpaceView, _horizon: Option<u64>, _rng: &mut StdRng) {
        self.anchor = None;
        self.proposed = 0;
    }

    fn lookahead(&self) -> usize {
        usize::MAX
    }

    // mm-lint: hot-path — the steady-state eval loop must not allocate.
    fn propose(
        &mut self,
        space: &dyn MapSpaceView,
        rng: &mut StdRng,
        max: usize,
        out: &mut ProposalBuf,
    ) {
        for _ in 0..max.max(1) {
            self.proposed += 1;
            match &self.anchor {
                // Alternate: exploit the anchor's neighbourhood on even
                // proposals, keep sampling uniformly on odd ones.
                Some(anchor) if self.proposed.is_multiple_of(2) => {
                    space.neighbor_into(anchor, out.next_slot(), rng);
                }
                _ => space.random_mapping_into(out.next_slot(), rng),
            }
        }
        static PROPOSED: std::sync::OnceLock<std::sync::Arc<mm_telemetry::Counter>> =
            std::sync::OnceLock::new();
        crate::tele_counter(&PROPOSED, "search.random.proposed").bump(max.max(1) as u64);
    }

    fn report(&mut self, _mapping: &Mapping, _cost: f64, _rng: &mut StdRng) {}

    /// Anchor future proposals near the incumbent.
    fn observe_global_best(
        &mut self,
        _space: &dyn MapSpaceView,
        mapping: &Mapping,
        _cost: f64,
        _action: SyncAction,
        _rng: &mut StdRng,
    ) {
        match &mut self.anchor {
            Some(anchor) => anchor.clone_from(mapping),
            None => self.anchor = Some(mapping.clone()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::objective::{Budget, FnObjective};
    use crate::proposal::drive;
    use mm_accel::{Architecture, CostModel};
    use mm_mapspace::{MapSpace, Mapping, ProblemSpec};
    use rand::SeedableRng;

    #[test]
    fn random_search_exhausts_budget_and_finds_finite_cost() {
        let arch = Architecture::example();
        let problem = ProblemSpec::conv1d(256, 5);
        let space = MapSpace::new(problem.clone(), arch.mapping_constraints());
        let model = CostModel::new(arch, problem);
        let mut rng = StdRng::seed_from_u64(11);
        let mut obj = FnObjective::new(|m: &Mapping| model.edp(m));
        let mut rs = RandomSearch::new();
        let trace = drive(&mut rs, &space, &mut obj, Budget::iterations(50), &mut rng);
        assert_eq!(trace.len(), 50);
        assert!(trace.best_cost.is_finite());
        assert!(trace.best_cost > 0.0);
        assert_eq!(trace.method, "Random");
    }

    #[test]
    fn proposals_are_valid_and_batchable() {
        let arch = Architecture::example();
        let problem = ProblemSpec::conv1d(128, 3);
        let space = MapSpace::new(problem, arch.mapping_constraints());
        let mut rng = StdRng::seed_from_u64(1);
        let mut rs = RandomSearch::new();
        rs.begin(&space, None, &mut rng);
        let mut buf = ProposalBuf::new();
        rs.propose(&space, &mut rng, 32, &mut buf);
        assert_eq!(buf.len(), 32);
        assert!(buf.iter().all(|m| space.is_member(m)));
    }

    #[test]
    fn observed_best_anchors_half_the_proposals() {
        let arch = Architecture::example();
        let problem = ProblemSpec::conv1d(128, 3);
        let space = MapSpace::new(problem, arch.mapping_constraints());
        let mut rng = StdRng::seed_from_u64(2);
        let mut rs = RandomSearch::new();
        rs.begin(&space, None, &mut rng);
        let anchor = space.random_mapping(&mut rng);
        rs.observe_global_best(&space, &anchor, 1.0, SyncAction::Adopt, &mut rng);
        let mut buf = ProposalBuf::new();
        rs.propose(&space, &mut rng, 64, &mut buf);
        assert_eq!(buf.len(), 64);
        assert!(buf.iter().all(|m| space.is_member(m)));
        // Neighbours perturb a single attribute, so anchored proposals stay
        // closer to the anchor than uniform samples do: at least some of
        // them must share the anchor's L2 loop order.
        let close = buf
            .iter()
            .filter(|m| m.loop_orders == anchor.loop_orders)
            .count();
        assert!(close > 0, "no proposal stayed near the anchor");
        // begin() drops the anchor for the next run.
        rs.begin(&space, None, &mut rng);
        assert!(rs.anchor.is_none());
    }
}
