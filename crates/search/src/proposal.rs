//! The stepwise search protocol: [`ProposalSearch`].
//!
//! A monolithic search *loop* — one that owns control flow from the first
//! random mapping to budget exhaustion, querying the objective inline —
//! cannot be parallelized: an orchestrator (like `mm-mapper`'s `Mapper`)
//! needs to own the loop itself so it can batch evaluations onto worker
//! pools, interleave many searchers, sync a globally shared best mapping,
//! and apply termination policies.
//!
//! [`ProposalSearch`] is the inverted-control protocol every search method
//! implements:
//!
//! * [`propose`](ProposalSearch::propose) appends candidate mappings to a
//!   buffer (up to a driver-chosen batch size);
//! * [`report`](ProposalSearch::report) feeds back the evaluated cost of a
//!   proposal, in proposal order;
//! * [`lookahead`](ProposalSearch::lookahead) tells the driver how many
//!   unreported proposals the searcher tolerates in flight, so proposals can
//!   pipeline ahead of pending evaluations (1 for strictly sequential
//!   methods like simulated annealing, a full generation for GA, unbounded
//!   for random search).
//!
//! [`drive`] is the classic sequential loop over one searcher and one
//! [`Objective`] (the Figure 5/6 comparison harness, the examples).

use std::ops::Deref;
use std::time::Instant;

use mm_mapspace::{MapSpaceView, Mapping};
use rand::rngs::StdRng;

use crate::objective::{Budget, Objective};
use crate::sync::SyncAction;
use crate::trace::SearchTrace;

/// A slot-reusing proposal buffer: the write half of the zero-allocation
/// proposal hot path.
///
/// Works like `Vec<Mapping>` from the reader's side (it derefs to
/// `[Mapping]` of the *logical* length), but keeps cleared mappings as
/// spare slots so a steady-state `clear()` → `next_slot()` → fill cycle
/// reuses their nested allocations instead of reallocating every proposal.
#[derive(Debug, Default)]
pub struct ProposalBuf {
    /// Slot storage; `slots[len..]` are cleared-but-allocated spares.
    slots: Vec<Mapping>,
    /// Logical number of live proposals.
    len: usize,
}

impl ProposalBuf {
    /// An empty buffer with no slots.
    pub fn new() -> Self {
        ProposalBuf::default()
    }

    /// Logical number of live proposals.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the buffer holds no live proposals.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Drop all live proposals, keeping their slots (and allocations) as
    /// spares for reuse.
    pub fn clear(&mut self) {
        self.len = 0;
    }

    /// Hand out the next writable slot (reusing a spare when available) and
    /// count it as live. The slot holds whatever mapping occupied it last —
    /// callers overwrite it with an `*_into` operation.
    // mm-lint: hot-path — the steady-state eval loop must not allocate.
    pub fn next_slot(&mut self) -> &mut Mapping {
        if self.len == self.slots.len() {
            self.slots.push(Mapping::default());
        }
        let slot = &mut self.slots[self.len];
        self.len += 1;
        slot
    }
}

impl Deref for ProposalBuf {
    type Target = [Mapping];

    fn deref(&self) -> &[Mapping] {
        &self.slots[..self.len]
    }
}

/// A search method driven from outside: it proposes mappings and is told
/// their cost, while someone else owns the evaluation loop.
///
/// # Contract
///
/// * [`begin`](Self::begin) is called exactly once before any proposal.
/// * When the searcher has no outstanding (unreported) proposals,
///   [`propose`](Self::propose) must append at least one mapping — otherwise
///   the driver would deadlock. With proposals outstanding it may append
///   nothing (e.g. a GA waiting for the rest of a generation).
/// * Reports arrive in proposal order, each exactly once.
pub trait ProposalSearch: Send {
    /// Short method name used in reports (e.g. `"SA"`, `"GA"`).
    fn name(&self) -> &str;

    /// Prepare for a fresh run over `space`. `horizon` is the approximate
    /// number of evaluations this searcher will receive (`None` if unknown);
    /// schedule-based methods (SA cooling) size their schedules with it.
    fn begin(&mut self, space: &dyn MapSpaceView, horizon: Option<u64>, rng: &mut StdRng);

    /// Maximum number of unreported proposals this searcher tolerates in
    /// flight. The driver never requests more than this many proposals ahead
    /// of pending evaluations.
    fn lookahead(&self) -> usize {
        1
    }

    /// Append up to `max` new candidate mappings to `out`.
    ///
    /// Implementations fill slots from [`ProposalBuf::next_slot`] with the
    /// map space's `*_into` operations so the steady state reuses the
    /// buffer's allocations.
    fn propose(
        &mut self,
        space: &dyn MapSpaceView,
        rng: &mut StdRng,
        max: usize,
        out: &mut ProposalBuf,
    );

    /// Report the evaluated cost of a previously proposed mapping.
    fn report(&mut self, mapping: &Mapping, cost: f64, rng: &mut StdRng);

    /// Observe the shared global-best mapping, with the [`SyncAction`] a
    /// driver-side [`SyncPolicy`](crate::SyncPolicy) chose for this sync
    /// point. The default ignores it.
    ///
    /// Implementations provide the *mechanics* of the action —
    /// [`SyncAction::Adopt`] re-anchors the current trajectory on `mapping`
    /// (SA current point, GA population injection, DDPG episode state).
    /// The *decision* of when to call this belongs to the driver, which
    /// must do so only at deterministic sync points if it wants to preserve
    /// replayability.
    ///
    /// `mapping` may lie outside `space` when shards search pairwise
    /// disjoint slices: implementations must route all follow-up proposals
    /// through `space`'s own operations (`neighbor`, `crossover`,
    /// `project`, …), which keep them inside the shard.
    fn observe_global_best(
        &mut self,
        _space: &dyn MapSpaceView,
        _mapping: &Mapping,
        _cost: f64,
        _action: SyncAction,
        _rng: &mut StdRng,
    ) {
    }
}

/// Cap on proposals materialized per driver iteration. Searchers with huge
/// (or unbounded) lookaheads would otherwise be asked to generate their
/// whole remaining query budget up front — pathological under iso-time
/// budgets, where `max_queries` is effectively infinite. Evaluation is
/// sequential here anyway, so small batches lose nothing.
const DRIVE_BATCH: usize = 64;

/// Drive a [`ProposalSearch`] through the classic sequential evaluate loop
/// until `budget` is exhausted, and return the best-so-far [`SearchTrace`].
pub fn drive(
    search: &mut dyn ProposalSearch,
    space: &dyn MapSpaceView,
    objective: &mut dyn Objective,
    budget: Budget,
    rng: &mut StdRng,
) -> SearchTrace {
    let start = Instant::now();
    let mut trace = SearchTrace::new(search.name());
    let horizon = (budget.max_queries < u64::MAX).then_some(budget.max_queries);
    search.begin(space, horizon, rng);

    let mut buf = ProposalBuf::new();
    while !budget.exhausted(objective.queries(), start.elapsed()) {
        let remaining = budget.max_queries.saturating_sub(objective.queries());
        let max = search
            .lookahead()
            .min(DRIVE_BATCH)
            .min(usize::try_from(remaining).unwrap_or(usize::MAX))
            .max(1);
        buf.clear();
        search.propose(space, rng, max, &mut buf);
        if buf.is_empty() {
            // No proposals with none outstanding: the searcher is done.
            break;
        }
        for mapping in buf.iter() {
            if budget.exhausted(objective.queries(), start.elapsed()) {
                return trace;
            }
            let cost = objective.cost(mapping);
            trace.record(cost, mapping, start.elapsed());
            search.report(mapping, cost, rng);
        }
    }
    trace
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::objective::FnObjective;
    use crate::random::RandomSearch;
    use mm_mapspace::{MapSpace, ProblemSpec};
    use rand::SeedableRng;

    #[test]
    fn drive_respects_budget_and_records_trace() {
        let problem = ProblemSpec::conv1d(64, 3);
        let space = MapSpace::new(problem, mm_mapspace::MappingConstraints::example());
        let mut rng = StdRng::seed_from_u64(0);
        let mut obj = FnObjective::new(|m: &Mapping| m.tiles[0].iter().sum::<u64>() as f64);
        let mut rs = RandomSearch::new();
        let trace = drive(&mut rs, &space, &mut obj, Budget::iterations(25), &mut rng);
        assert_eq!(trace.len(), 25);
        assert_eq!(obj.queries(), 25);
        assert!(trace.best_cost.is_finite());
    }

    #[test]
    fn iso_time_budget_with_unbounded_lookahead_evaluates_promptly() {
        // Regression: RandomSearch's lookahead is usize::MAX; under an
        // iso-time budget (huge max_queries) the driver must not ask for
        // the whole remaining query budget as one proposal batch.
        let problem = ProblemSpec::conv1d(64, 3);
        let space = MapSpace::new(problem, mm_mapspace::MappingConstraints::example());
        let mut rng = StdRng::seed_from_u64(1);
        let mut obj = FnObjective::new(|m: &Mapping| m.tiles[0].iter().sum::<u64>() as f64);
        let mut rs = RandomSearch::new();
        let start = std::time::Instant::now();
        let trace = drive(
            &mut rs,
            &space,
            &mut obj,
            Budget::time(std::time::Duration::from_millis(20)),
            &mut rng,
        );
        assert!(
            start.elapsed() < std::time::Duration::from_secs(5),
            "driver must stay responsive under a time budget"
        );
        assert!(!trace.is_empty(), "evaluations must actually happen");
    }
}
