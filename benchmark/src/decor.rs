//! The benchmark's own decorators around the two layer boundaries it can
//! reach from outside: the cost evaluator and the proposal searcher.
//!
//! All of them forward every call unchanged, so a decorated run must
//! produce bit-identical results; the traced pass checks that it does.

use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::sync::Arc;
use std::time::Instant;

use mm_mapper::{CostEvaluator, Evaluation, OptMetric};
use mm_mapspace::{MapSpaceView, Mapping};
use mm_search::{ProposalBuf, ProposalSearch, SyncAction};
use rand::rngs::StdRng;

/// Adds to a counter that one thread at a time owns (a `&mut self` method
/// of a searcher, or the single thread of a 1-thread search). A plain load
/// and store: no locked instruction on the measured path.
fn bump(counter: &AtomicU64, by: u64) {
    counter.store(counter.load(Relaxed) + by, Relaxed);
}

fn ns_since(start: Instant) -> u64 {
    start.elapsed().as_nanos() as u64
}

// ---------------------------------------------------------------------
// Threshold observer (the one decorator of the untraced pass)
// ---------------------------------------------------------------------

/// When a search first evaluated a mapping at or below its target.
#[derive(Debug)]
pub struct Threshold {
    /// Bits of the target; set to −∞ after the first crossing so the hot
    /// path stays one `f64` compare per evaluation.
    target_bits: AtomicU64,
    start: Instant,
    evals: AtomicU64,
    hit_evals: AtomicU64,
    hit_ns: AtomicU64,
}

impl Threshold {
    /// Starts the clock: create it right before the search begins.
    pub fn new(target: f64) -> Arc<Self> {
        Arc::new(Threshold {
            target_bits: AtomicU64::new(target.to_bits()),
            start: Instant::now(),
            evals: AtomicU64::new(0),
            hit_evals: AtomicU64::new(0),
            hit_ns: AtomicU64::new(0),
        })
    }

    /// Evaluations seen.
    pub fn evals(&self) -> u64 {
        self.evals.load(Relaxed)
    }

    /// `(evaluations, seconds)` up to and including the first evaluation at
    /// or below the target; `None` if no evaluation reached it.
    pub fn reached(&self) -> Option<(u64, f64)> {
        let evals = self.hit_evals.load(Relaxed);
        (evals > 0).then(|| (evals, self.hit_ns.load(Relaxed) as f64 * 1e-9))
    }

    fn see(&self, costs: &[Evaluation]) {
        let seen = self.evals.load(Relaxed);
        let target = f64::from_bits(self.target_bits.load(Relaxed));
        for (i, cost) in costs.iter().enumerate() {
            if cost.primary() <= target {
                self.hit_ns.store(ns_since(self.start), Relaxed);
                self.hit_evals.store(seen + i as u64 + 1, Relaxed);
                self.target_bits.store(f64::NEG_INFINITY.to_bits(), Relaxed);
                break;
            }
        }
        self.evals.store(seen + costs.len() as u64, Relaxed);
    }
}

/// Forwards to `inner` and stamps the first time a cost reaches the target.
/// For searches that evaluate on one thread (`threads: 1`).
pub struct ThresholdEvaluator {
    pub inner: Arc<dyn CostEvaluator>,
    pub state: Arc<Threshold>,
}

impl CostEvaluator for ThresholdEvaluator {
    fn evaluate(&self, mapping: &Mapping) -> Evaluation {
        let cost = self.inner.evaluate(mapping);
        self.state.see(std::slice::from_ref(&cost));
        cost
    }

    fn evaluate_batch(&self, mappings: &[Mapping]) -> Vec<Evaluation> {
        let costs = self.inner.evaluate_batch(mappings);
        self.state.see(&costs);
        costs
    }

    fn metrics(&self) -> &[OptMetric] {
        self.inner.metrics()
    }
}

// ---------------------------------------------------------------------
// Timing decorators (traced pass only)
// ---------------------------------------------------------------------

/// What a [`TimedEvaluator`] saw. Shared by every evaluator a service
/// builds, so it adds up across jobs and pool threads.
#[derive(Debug, Default)]
pub struct EvalStats {
    pub calls: AtomicU64,
    pub evals: AtomicU64,
    pub busy_ns: AtomicU64,
}

/// [`EvalStats`] read out.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EvalSeen {
    pub calls: u64,
    pub evals: u64,
    pub busy_ns: u64,
}

impl EvalStats {
    /// Read and reset.
    pub fn take(&self) -> EvalSeen {
        EvalSeen {
            calls: self.calls.swap(0, Relaxed),
            evals: self.evals.swap(0, Relaxed),
            busy_ns: self.busy_ns.swap(0, Relaxed),
        }
    }
}

/// Counts and times every evaluator call, on whatever thread makes it.
pub struct TimedEvaluator {
    pub inner: Arc<dyn CostEvaluator>,
    pub stats: Arc<EvalStats>,
}

impl TimedEvaluator {
    fn note(&self, evals: usize, start: Instant) {
        // Pool threads share these: a real atomic add, not `bump`.
        self.stats.busy_ns.fetch_add(ns_since(start), Relaxed);
        self.stats.calls.fetch_add(1, Relaxed);
        self.stats.evals.fetch_add(evals as u64, Relaxed);
    }
}

impl CostEvaluator for TimedEvaluator {
    fn evaluate(&self, mapping: &Mapping) -> Evaluation {
        let start = Instant::now();
        let cost = self.inner.evaluate(mapping);
        self.note(1, start);
        cost
    }

    fn evaluate_batch(&self, mappings: &[Mapping]) -> Vec<Evaluation> {
        let start = Instant::now();
        let costs = self.inner.evaluate_batch(mappings);
        self.note(mappings.len(), start);
        costs
    }

    fn metrics(&self) -> &[OptMetric] {
        self.inner.metrics()
    }
}

/// What a [`TimedSearcher`] saw.
#[derive(Debug, Default)]
pub struct SearchStats {
    pub propose_calls: AtomicU64,
    pub proposals: AtomicU64,
    pub propose_ns: AtomicU64,
    pub reports: AtomicU64,
    pub report_ns: AtomicU64,
}

/// [`SearchStats`] read out.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SearchSeen {
    pub propose_calls: u64,
    pub proposals: u64,
    pub propose_ns: u64,
    pub reports: u64,
    pub report_ns: u64,
}

impl SearchStats {
    /// Read and reset.
    pub fn take(&self) -> SearchSeen {
        SearchSeen {
            propose_calls: self.propose_calls.swap(0, Relaxed),
            proposals: self.proposals.swap(0, Relaxed),
            propose_ns: self.propose_ns.swap(0, Relaxed),
            reports: self.reports.swap(0, Relaxed),
            report_ns: self.report_ns.swap(0, Relaxed),
        }
    }
}

/// Counts and times `propose`, `report` and `observe_global_best` (the last
/// is booked as report time: both feed results back to the searcher). Each
/// searcher is driven by one thread at a time; searchers of concurrent jobs
/// share `stats` only through the service's single driving thread.
pub struct TimedSearcher {
    pub inner: Box<dyn ProposalSearch>,
    pub stats: Arc<SearchStats>,
}

impl ProposalSearch for TimedSearcher {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn begin(&mut self, space: &dyn MapSpaceView, horizon: Option<u64>, rng: &mut StdRng) {
        self.inner.begin(space, horizon, rng);
    }

    fn lookahead(&self) -> usize {
        self.inner.lookahead()
    }

    fn propose(
        &mut self,
        space: &dyn MapSpaceView,
        rng: &mut StdRng,
        max: usize,
        out: &mut ProposalBuf,
    ) {
        let before = out.len();
        let start = Instant::now();
        self.inner.propose(space, rng, max, out);
        bump(&self.stats.propose_ns, ns_since(start));
        bump(&self.stats.propose_calls, 1);
        bump(&self.stats.proposals, (out.len() - before) as u64);
    }

    fn report(&mut self, mapping: &Mapping, cost: f64, rng: &mut StdRng) {
        let start = Instant::now();
        self.inner.report(mapping, cost, rng);
        bump(&self.stats.report_ns, ns_since(start));
        bump(&self.stats.reports, 1);
    }

    fn observe_global_best(
        &mut self,
        space: &dyn MapSpaceView,
        mapping: &Mapping,
        cost: f64,
        action: SyncAction,
        rng: &mut StdRng,
    ) {
        let start = Instant::now();
        self.inner
            .observe_global_best(space, mapping, cost, action, rng);
        bump(&self.stats.report_ns, ns_since(start));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mm_mapper::FnEvaluator;
    use mm_mapspace::{MapSpace, MappingConstraints, ProblemSpec};
    use mm_search::RandomSearch;
    use rand::SeedableRng;

    fn space() -> MapSpace {
        MapSpace::new(ProblemSpec::conv1d(64, 3), MappingConstraints::example())
    }

    #[test]
    fn threshold_stamps_the_first_crossing_only() {
        let costs = [9.0, 7.0, 5.0, 3.0, 4.0, 1.0];
        let next = AtomicU64::new(0);
        let inner: Arc<dyn CostEvaluator> = Arc::new(FnEvaluator::new(move |_: &Mapping| {
            costs[next.fetch_add(1, Relaxed) as usize]
        }));
        let state = Threshold::new(5.0);
        let eval = ThresholdEvaluator {
            inner,
            state: Arc::clone(&state),
        };
        let m = Mapping::minimal(space().problem());
        assert_eq!(eval.evaluate(&m).primary(), 9.0);
        assert_eq!(state.reached(), None);
        // A batch of three: the crossing is its second member, evaluation 3.
        let batch = eval.evaluate_batch(&[m.clone(), m.clone(), m.clone()]);
        assert_eq!(batch.len(), 3);
        let (evals, seconds) = state.reached().unwrap();
        assert_eq!(evals, 3);
        assert!(seconds > 0.0);
        // Later, better costs do not move the stamp.
        eval.evaluate_batch(&[m.clone(), m]);
        assert_eq!(state.reached().unwrap().0, 3);
        assert_eq!(state.evals(), 6);
    }

    #[test]
    fn timed_decorators_count_what_passes_through() {
        let space = space();
        let stats = Arc::new(SearchStats::default());
        let mut searcher = TimedSearcher {
            inner: Box::new(RandomSearch::new()),
            stats: Arc::clone(&stats),
        };
        assert_eq!(searcher.name(), RandomSearch::new().name());
        let mut rng = StdRng::seed_from_u64(5);
        searcher.begin(&space, Some(10), &mut rng);
        let mut buf = ProposalBuf::new();
        searcher.propose(&space, &mut rng, 4, &mut buf);
        assert_eq!(buf.len(), 4);

        let eval_stats = Arc::new(EvalStats::default());
        let eval = TimedEvaluator {
            inner: Arc::new(FnEvaluator::new(|_: &Mapping| 1.0)),
            stats: Arc::clone(&eval_stats),
        };
        let costs = eval.evaluate_batch(&buf);
        eval.evaluate(&buf[0]);
        for (m, c) in buf.iter().zip(&costs) {
            searcher.report(m, c.primary(), &mut rng);
        }
        let eval_seen = eval_stats.take();
        assert_eq!((eval_seen.calls, eval_seen.evals), (2, 5));
        let seen = stats.take();
        assert_eq!(
            (seen.propose_calls, seen.proposals, seen.reports),
            (1, 4, 4)
        );
        assert_eq!(eval_stats.take(), EvalSeen::default());
    }
}
