//! Mapping evaluation: the [`CostEvaluator`] abstraction and the
//! [`EvalPool`] worker pool.
//!
//! A [`CostEvaluator`] is the thread-safe counterpart of `mm-search`'s
//! `Objective`: a pure `&self` cost function that many threads can query
//! concurrently. [`EvalPool`] fans batches of mappings out to a fixed set of
//! `std::thread` workers over channels — the `AcceleratorPool` pattern from
//! pytimeloop — returning results tagged with job ids so callers can
//! pipeline submissions ahead of completions.

use std::cell::RefCell;
use std::collections::HashMap;
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;

use mm_accel::{BatchCosts, CostModel, EvalScratch};
use mm_mapspace::Mapping;
use mm_search::Objective;

use crate::metrics::{Evaluation, OptMetric};

thread_local! {
    /// Per-thread eval scratch shared by every [`ModelEvaluator`] on this
    /// thread: pool workers evaluate thousands of mappings each, and the
    /// scratch makes all but the first allocation-free.
    static SCRATCH: RefCell<(EvalScratch, BatchCosts)> =
        RefCell::new((EvalScratch::new(), BatchCosts::new()));
}

/// A thread-safe mapping cost function producing prioritized metrics.
pub trait CostEvaluator: Send + Sync {
    /// Evaluate one mapping.
    fn evaluate(&self, mapping: &Mapping) -> Evaluation;

    /// Evaluate a batch of mappings, preserving input order: exactly one
    /// result per mapping (both the [`EvalPool`] workers and the `Mapper`'s
    /// inline path reject anything else).
    ///
    /// The default loops over [`evaluate`](Self::evaluate); evaluators with a
    /// cheaper amortized path (the surrogate's single batched forward pass,
    /// or any cost model with per-call setup worth hoisting) override this.
    /// [`EvalPool`] dispatches whole batches to workers through this method.
    fn evaluate_batch(&self, mappings: &[Mapping]) -> Vec<Evaluation> {
        mappings.iter().map(|m| self.evaluate(m)).collect()
    }

    /// The metric priority list this evaluator produces (for reporting).
    fn metrics(&self) -> &[OptMetric] {
        &[OptMetric::Edp]
    }
}

/// The reference cost model as a [`CostEvaluator`] with a prioritized
/// `optimization_metrics` list (Timeloop-mapper style).
#[derive(Debug, Clone)]
pub struct ModelEvaluator {
    model: CostModel,
    metrics: Vec<OptMetric>,
}

impl ModelEvaluator {
    /// Evaluator optimizing EDP only (the paper's objective).
    pub fn edp(model: CostModel) -> Self {
        Self::with_metrics(model, vec![OptMetric::Edp])
    }

    /// Evaluator with an explicit metric priority list.
    ///
    /// # Panics
    ///
    /// Panics if `metrics` is empty.
    pub fn with_metrics(model: CostModel, metrics: Vec<OptMetric>) -> Self {
        assert!(
            !metrics.is_empty(),
            "optimization_metrics must be non-empty"
        );
        ModelEvaluator { model, metrics }
    }

    /// The underlying cost model.
    pub fn model(&self) -> &CostModel {
        &self.model
    }
}

impl CostEvaluator for ModelEvaluator {
    fn evaluate(&self, mapping: &Mapping) -> Evaluation {
        let arch = self.model.arch();
        SCRATCH.with(|cell| {
            let scratch = &mut cell.borrow_mut().0;
            let cost = self.model.evaluate_into(scratch, mapping);
            Evaluation {
                metrics: self
                    .metrics
                    .iter()
                    .map(|m| m.resolve_summary(&cost, arch))
                    .collect(),
            }
        })
    }

    fn evaluate_batch(&self, mappings: &[Mapping]) -> Vec<Evaluation> {
        // The SoA batch kernel: one scratch arena reused across the whole
        // batch, with the arch borrow and the metric list hoisted out of the
        // per-mapping loop.
        let arch = self.model.arch();
        SCRATCH.with(|cell| {
            let (scratch, costs) = &mut *cell.borrow_mut();
            self.model.evaluate_batch_into(scratch, mappings, costs);
            (0..costs.len())
                .map(|i| {
                    let cost = costs.summary(i);
                    Evaluation {
                        metrics: self
                            .metrics
                            .iter()
                            .map(|m| m.resolve_summary(&cost, arch))
                            .collect(),
                    }
                })
                .collect()
        })
    }

    fn metrics(&self) -> &[OptMetric] {
        &self.metrics
    }
}

/// Wrap any thread-safe closure as a single-metric [`CostEvaluator`].
pub struct FnEvaluator<F> {
    f: F,
}

impl<F: Fn(&Mapping) -> f64 + Send + Sync> FnEvaluator<F> {
    /// Wrap `f` as an evaluator.
    pub fn new(f: F) -> Self {
        FnEvaluator { f }
    }
}

impl<F: Fn(&Mapping) -> f64 + Send + Sync> CostEvaluator for FnEvaluator<F> {
    fn evaluate(&self, mapping: &Mapping) -> Evaluation {
        Evaluation::scalar((self.f)(mapping))
    }
}

/// Adapter exposing a [`CostEvaluator`] as a classic mutable
/// [`Objective`], for the single-threaded `mm_search::drive` loop.
pub struct EvaluatorObjective {
    evaluator: Arc<dyn CostEvaluator>,
    queries: u64,
}

impl EvaluatorObjective {
    /// Wrap `evaluator` with query counting.
    pub fn new(evaluator: Arc<dyn CostEvaluator>) -> Self {
        EvaluatorObjective {
            evaluator,
            queries: 0,
        }
    }
}

impl Objective for EvaluatorObjective {
    fn cost(&mut self, mapping: &Mapping) -> f64 {
        self.queries += 1;
        self.evaluator.evaluate(mapping).primary()
    }

    fn queries(&self) -> u64 {
        self.queries
    }
}

/// What both evaluation paths (pool workers, the `Mapper`'s inline loop)
/// fail with when an `evaluate_batch` override returns the wrong number of
/// results.
pub(crate) fn short_batch_message(results: usize, mappings: usize) -> String {
    format!("evaluate_batch returned {results} results for {mappings} mappings")
}

/// One unit of work for the pool: a batch of mappings occupying the
/// contiguous id range `base_id .. base_id + mappings.len()`, evaluated by
/// `evaluator` (or the pool's default when `None`) in a single
/// [`CostEvaluator::evaluate_batch`] call on one worker.
struct Job {
    base_id: u64,
    mappings: Vec<Mapping>,
    evaluator: Option<Arc<dyn CostEvaluator>>,
    /// Enqueue time, captured only when telemetry timing is on so the off
    /// level never reads a clock (the queue-latency histogram is fed from
    /// it on the worker side).
    queued_at: Option<std::time::Instant>,
}

/// A fixed pool of evaluation workers fed over channels.
///
/// Work is dispatched in *batch jobs*: each job is a contiguous range of
/// per-mapping ids evaluated by one worker through a single
/// [`CostEvaluator::evaluate_batch`] call (amortizing dispatch and enabling
/// batched evaluators such as the surrogate's single forward pass). Results
/// still come back per mapping, tagged with monotonically increasing ids, in
/// completion order — single-mapping [`submit`](EvalPool::submit)/
/// [`recv`](EvalPool::recv) consumers are unaffected.
///
/// Every [`submit_chunked`](EvalPool::submit_chunked) submission may carry
/// its own evaluator, so one long-lived pool can serve many problems at
/// once — the substrate of `mm-serve`'s whole-network mapping service.
pub struct EvalPool {
    job_tx: Option<Sender<Job>>,
    result_rx: Receiver<(u64, Result<Evaluation, Arc<str>>)>,
    workers: Vec<JoinHandle<()>>,
    next_id: u64,
    in_flight: u64,
}

/// Human-readable message from a caught panic payload, shared so a failing
/// batch clones one `Arc` per member instead of one `String` per member.
fn panic_message(payload: Box<dyn std::any::Any + Send>) -> Arc<str> {
    if let Some(s) = payload.downcast_ref::<&str>() {
        Arc::from(*s)
    } else if let Some(s) = payload.downcast_ref::<String>() {
        Arc::from(s.as_str())
    } else {
        Arc::from("non-string panic payload")
    }
}

impl EvalPool {
    /// Spawn `workers` evaluation threads sharing `evaluator` as the default
    /// for submissions that do not carry their own.
    ///
    /// # Panics
    ///
    /// Panics if `workers` is zero.
    pub fn new(evaluator: Arc<dyn CostEvaluator>, workers: usize) -> Self {
        Self::spawn(Some(evaluator), workers)
    }

    /// Spawn a pool with **no** default evaluator: every submission must
    /// name one through [`submit_chunked`](Self::submit_chunked). This is
    /// the shape used by a long-lived shared pool serving many problems
    /// (`mm-serve`).
    ///
    /// # Panics
    ///
    /// Panics if `workers` is zero.
    pub fn shared(workers: usize) -> Self {
        Self::spawn(None, workers)
    }

    fn spawn(default_evaluator: Option<Arc<dyn CostEvaluator>>, workers: usize) -> Self {
        assert!(workers > 0, "EvalPool needs at least one worker");
        let (job_tx, job_rx) = channel::<Job>();
        let (result_tx, result_rx) = channel::<(u64, Result<Evaluation, Arc<str>>)>();
        let job_rx = Arc::new(Mutex::new(job_rx));
        let handles = (0..workers)
            .map(|w| {
                let job_rx = Arc::clone(&job_rx);
                let result_tx = result_tx.clone();
                let default_evaluator = default_evaluator.clone();
                // Telemetry handles interned once per worker; bumps are one
                // relaxed level check on the hot path. The handles must
                // exist even while telemetry is off because the level can
                // be raised at runtime.
                // mm-lint: allow(telemetry-gate): one-time interning at worker spawn, not a hot-path call site
                let tele_evals = mm_telemetry::counter(&format!("eval_pool.worker{w}.evals"));
                let tele_latency = mm_telemetry::histogram("eval_pool.queue_latency_us");
                // mm-lint: allow(telemetry-gate): one-time interning at worker spawn, not a hot-path call site
                let tele_track = mm_telemetry::track(&format!("eval_pool.worker{w}"));
                std::thread::spawn(move || loop {
                    // Hold the lock only while popping; evaluate unlocked.
                    let job = match job_rx.lock() {
                        Ok(rx) => rx.recv(),
                        Err(_) => return,
                    };
                    match job {
                        Ok(job) => {
                            let mappings = job.mappings.as_slice();
                            let n = mappings.len() as u64;
                            tele_evals.bump(n);
                            if let Some(queued_at) = job.queued_at {
                                tele_latency.record(
                                    queued_at.elapsed().as_micros().min(u128::from(u64::MAX))
                                        as u64,
                                );
                            }
                            let evaluator = job.evaluator.as_ref().or(default_evaluator.as_ref());
                            let Some(evaluator) = evaluator else {
                                let msg: Arc<str> =
                                    Arc::from("pool has no default evaluator; use submit_chunked");
                                for i in 0..n {
                                    let _ =
                                        result_tx.send((job.base_id + i, Err(Arc::clone(&msg))));
                                }
                                continue;
                            };
                            // A panicking evaluator must not strand the
                            // job: report the panic as every batch member's
                            // result so the consumer fails loudly instead of
                            // blocking forever on results that never come.
                            let batch_span = tele_track.span_n("eval_pool.batch", n);
                            let evals =
                                std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                                    evaluator.evaluate_batch(mappings)
                                }));
                            drop(batch_span);
                            match evals {
                                Ok(evals) if evals.len() == mappings.len() => {
                                    for (i, eval) in evals.into_iter().enumerate() {
                                        if result_tx
                                            .send((job.base_id + i as u64, Ok(eval)))
                                            .is_err()
                                        {
                                            return; // pool dropped
                                        }
                                    }
                                }
                                Ok(evals) => {
                                    let msg: Arc<str> = Arc::from(
                                        short_batch_message(evals.len(), mappings.len()).as_str(),
                                    );
                                    for i in 0..n {
                                        let _ = result_tx
                                            .send((job.base_id + i, Err(Arc::clone(&msg))));
                                    }
                                    // Keep serving: one broken evaluator must
                                    // not shrink the shared pool for every
                                    // other job multiplexed on it.
                                }
                                Err(payload) => {
                                    let msg = panic_message(payload);
                                    for i in 0..n {
                                        let _ = result_tx
                                            .send((job.base_id + i, Err(Arc::clone(&msg))));
                                    }
                                    // The worker survives the caught panic:
                                    // the failure travels to the submitting
                                    // job as an Err result (recv re-raises
                                    // it; recv_result surfaces it), while
                                    // unrelated jobs sharing this pool keep
                                    // their workers.
                                }
                            }
                        }
                        Err(_) => return, // job channel closed
                    }
                })
            })
            .collect();
        EvalPool {
            job_tx: Some(job_tx),
            result_rx,
            workers: handles,
            next_id: 0,
            in_flight: 0,
        }
    }

    /// Number of worker threads.
    pub fn workers(&self) -> usize {
        self.workers.len()
    }

    /// Mappings submitted but not yet received.
    pub fn in_flight(&self) -> u64 {
        self.in_flight
    }

    /// Submit one mapping for the pool's default evaluator; returns its id.
    pub fn submit(&mut self, mapping: Mapping) -> u64 {
        self.submit_job(None, vec![mapping]).start
    }

    /// Submit a batch of mappings as **one job** (one worker, one
    /// [`CostEvaluator::evaluate_batch`] call) for `evaluator` (`None` = the
    /// pool default); returns the contiguous id range of the batch members.
    fn submit_job(
        &mut self,
        evaluator: Option<Arc<dyn CostEvaluator>>,
        mappings: Vec<Mapping>,
    ) -> std::ops::Range<u64> {
        let base_id = self.next_id;
        let n = mappings.len() as u64;
        if n == 0 {
            return base_id..base_id;
        }
        self.next_id += n;
        self.in_flight += n;
        {
            static BATCH_SIZES: std::sync::OnceLock<Arc<mm_telemetry::Histogram>> =
                std::sync::OnceLock::new();
            BATCH_SIZES
                .get_or_init(|| mm_telemetry::histogram("eval_pool.batch_size"))
                .record(n);
        }
        self.job_tx
            .as_ref()
            // mm-lint: allow(panic): submitting after shutdown() is a
            // driver bug, not a recoverable state.
            .expect("pool not shut down")
            .send(Job {
                base_id,
                mappings,
                evaluator,
                queued_at: mm_telemetry::timing_enabled().then(std::time::Instant::now),
            })
            // mm-lint: allow(panic): workers only exit after the job channel
            // closes, so a send failure means the pool was torn down early.
            .expect("evaluation workers alive");
        base_id..base_id + n
    }

    /// Submit a batch of mappings split into one contiguous chunk job per
    /// worker (`None` = the pool default evaluator); returns the contiguous
    /// id range of the batch members. This is the canonical fan-out idiom —
    /// every worker gets one [`CostEvaluator::evaluate_batch`] call instead
    /// of one job per mapping — shared by [`evaluate_batch`](Self::evaluate_batch)
    /// and `mm-serve`'s scheduler.
    pub fn submit_chunked(
        &mut self,
        evaluator: Option<Arc<dyn CostEvaluator>>,
        mappings: &[Mapping],
    ) -> std::ops::Range<u64> {
        let base_id = self.next_id;
        if mappings.is_empty() {
            return base_id..base_id;
        }
        let chunk = mappings.len().div_ceil(self.workers()).max(1);
        for c in mappings.chunks(chunk) {
            self.submit_job(evaluator.clone(), c.to_vec());
        }
        base_id..base_id + mappings.len() as u64
    }

    /// Block until the next result is ready.
    ///
    /// # Panics
    ///
    /// Panics if nothing is in flight, or if the worker evaluating the
    /// received job panicked (the panic message is propagated).
    pub fn recv(&mut self) -> (u64, Evaluation) {
        assert!(self.in_flight > 0, "recv with no jobs in flight");
        let (id, result) = self
            .result_rx
            .recv()
            // mm-lint: allow(panic): a closed result channel with jobs in
            // flight means every worker died — unrecoverable.
            .expect("evaluation workers alive while jobs are in flight");
        self.in_flight -= 1;
        match result {
            Ok(eval) => (id, eval),
            // mm-lint: allow(panic): re-raising a worker panic on the
            // consuming thread is propagation, not a new failure.
            Err(msg) => panic!("evaluation worker panicked: {msg}"),
        }
    }

    /// Block until the next result is ready, surfacing a worker panic as an
    /// `Err` instead of re-raising it.
    ///
    /// This is the fault-isolating receive: a panicking evaluator fails only
    /// the job that submitted it (the worker survives the caught panic), so
    /// a multi-tenant consumer can fail one request without poisoning the
    /// shared pool. [`recv`](EvalPool::recv) keeps the propagating behavior
    /// for single-tenant drivers.
    ///
    /// # Panics
    ///
    /// Panics if nothing is in flight.
    pub fn recv_result(&mut self) -> (u64, Result<Evaluation, Arc<str>>) {
        assert!(self.in_flight > 0, "recv_result with no jobs in flight");
        let (id, result) = self
            .result_rx
            .recv()
            // mm-lint: allow(panic): a closed result channel with jobs in
            // flight means every worker died — unrecoverable.
            .expect("evaluation workers alive while jobs are in flight");
        self.in_flight -= 1;
        (id, result)
    }

    /// Evaluate a batch, preserving input order. Requires nothing else in
    /// flight (so ids map cleanly back to batch positions).
    ///
    /// The batch is split into one contiguous chunk job per worker (not one
    /// job per mapping), so batched evaluators amortize their whole-batch
    /// fast path across at most `workers()` calls.
    ///
    /// # Panics
    ///
    /// Panics if jobs are already in flight.
    pub fn evaluate_batch(&mut self, mappings: &[Mapping]) -> Vec<Evaluation> {
        assert_eq!(self.in_flight, 0, "evaluate_batch needs an idle pool");
        if mappings.is_empty() {
            return Vec::new();
        }
        let base = self.submit_chunked(None, mappings).start;
        let mut by_id: HashMap<u64, Evaluation> = HashMap::with_capacity(mappings.len());
        while by_id.len() < mappings.len() {
            let (id, eval) = self.recv();
            by_id.insert(id, eval);
        }
        (0..mappings.len() as u64)
            // mm-lint: allow(panic): the recv loop above drains exactly the
            // ids submitted for this batch; a hole is a pool bug that must
            // fail loudly.
            .map(|i| by_id.remove(&(base + i)).expect("every job completed"))
            .collect()
    }
}

impl Drop for EvalPool {
    fn drop(&mut self) {
        // Closing the job channel lets every worker drain and exit.
        self.job_tx.take();
        for handle in self.workers.drain(..) {
            let _ = handle.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mm_accel::Architecture;
    use mm_mapspace::{MapSpace, ProblemSpec};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn space_and_evaluator() -> (MapSpace, Arc<dyn CostEvaluator>) {
        let arch = Architecture::example();
        let problem = ProblemSpec::conv1d(256, 5);
        let space = MapSpace::new(problem.clone(), arch.mapping_constraints());
        let model = CostModel::new(arch, problem);
        (space, Arc::new(ModelEvaluator::edp(model)))
    }

    #[test]
    fn pool_matches_inline_evaluation() {
        let (space, evaluator) = space_and_evaluator();
        let mut rng = StdRng::seed_from_u64(0);
        let mappings: Vec<Mapping> = (0..24).map(|_| space.random_mapping(&mut rng)).collect();
        let inline: Vec<Evaluation> = mappings.iter().map(|m| evaluator.evaluate(m)).collect();

        let mut pool = EvalPool::new(Arc::clone(&evaluator), 4);
        assert_eq!(pool.workers(), 4);
        let pooled = pool.evaluate_batch(&mappings);
        assert_eq!(inline, pooled, "pool preserves order and values");
        assert_eq!(pool.in_flight(), 0);
    }

    #[test]
    fn submit_and_recv_pipeline() {
        let (space, evaluator) = space_and_evaluator();
        let mut rng = StdRng::seed_from_u64(1);
        let mut pool = EvalPool::new(evaluator, 2);
        let ids: Vec<u64> = (0..8)
            .map(|_| pool.submit(space.random_mapping(&mut rng)))
            .collect();
        assert_eq!(pool.in_flight(), 8);
        let mut seen = Vec::new();
        for _ in 0..8 {
            let (id, eval) = pool.recv();
            assert!(eval.primary() > 0.0);
            seen.push(id);
        }
        seen.sort_unstable();
        assert_eq!(seen, ids);
        assert_eq!(pool.in_flight(), 0);
    }

    #[test]
    fn evaluator_objective_counts_queries() {
        let (space, evaluator) = space_and_evaluator();
        let mut rng = StdRng::seed_from_u64(2);
        let m = space.random_mapping(&mut rng);
        let mut obj = EvaluatorObjective::new(evaluator);
        assert_eq!(obj.queries(), 0);
        let a = obj.cost(&m);
        let b = obj.cost(&m);
        assert_eq!(a, b);
        assert_eq!(obj.queries(), 2);
    }

    #[test]
    #[should_panic(expected = "evaluation worker panicked: boom for tile")]
    fn worker_panic_propagates_instead_of_hanging() {
        let (space, _) = space_and_evaluator();
        let mut rng = StdRng::seed_from_u64(4);
        let evaluator = Arc::new(FnEvaluator::new(|m: &Mapping| {
            assert!(m.tiles[0].is_empty(), "boom for tile {}", m.tiles[0].len());
            0.0
        }));
        let mut pool = EvalPool::new(evaluator, 2);
        pool.submit(space.random_mapping(&mut rng));
        // Must panic with the worker's message, not block forever.
        let _ = pool.recv();
    }

    #[test]
    fn trait_batch_default_matches_singles() {
        let (space, evaluator) = space_and_evaluator();
        let mut rng = StdRng::seed_from_u64(5);
        let mappings: Vec<Mapping> = (0..7).map(|_| space.random_mapping(&mut rng)).collect();
        let singles: Vec<Evaluation> = mappings.iter().map(|m| evaluator.evaluate(m)).collect();
        assert_eq!(evaluator.evaluate_batch(&mappings), singles);
        // FnEvaluator exercises the default (loop) implementation.
        let f = FnEvaluator::new(|m: &Mapping| m.active_pes() as f64);
        let batched = f.evaluate_batch(&mappings);
        for (m, e) in mappings.iter().zip(&batched) {
            assert_eq!(e.primary(), m.active_pes() as f64);
        }
    }

    #[test]
    fn batch_submission_is_one_job_per_chunk() {
        use std::sync::atomic::{AtomicUsize, Ordering};

        // Count evaluate_batch calls to prove chunking: 10 mappings on 2
        // workers must arrive in exactly 2 batch jobs of 5, not 10 singles.
        struct Counting {
            calls: AtomicUsize,
        }
        impl CostEvaluator for Counting {
            fn evaluate(&self, m: &Mapping) -> Evaluation {
                Evaluation::scalar(m.active_pes() as f64)
            }
            fn evaluate_batch(&self, mappings: &[Mapping]) -> Vec<Evaluation> {
                self.calls.fetch_add(1, Ordering::SeqCst);
                assert_eq!(mappings.len(), 5, "chunk size is ceil(10 / 2)");
                mappings.iter().map(|m| self.evaluate(m)).collect()
            }
        }

        let (space, _) = space_and_evaluator();
        let mut rng = StdRng::seed_from_u64(6);
        let mappings: Vec<Mapping> = (0..10).map(|_| space.random_mapping(&mut rng)).collect();
        let counting = Arc::new(Counting {
            calls: AtomicUsize::new(0),
        });
        let mut pool = EvalPool::new(Arc::<Counting>::clone(&counting), 2);
        let evals = pool.evaluate_batch(&mappings);
        assert_eq!(evals.len(), 10);
        assert_eq!(counting.calls.load(Ordering::SeqCst), 2);
        for (m, e) in mappings.iter().zip(&evals) {
            assert_eq!(e.primary(), m.active_pes() as f64);
        }
    }

    #[test]
    fn shared_pool_routes_per_job_evaluators() {
        let (space, model_eval) = space_and_evaluator();
        let mut rng = StdRng::seed_from_u64(7);
        let m = space.random_mapping(&mut rng);
        let pes: Arc<dyn CostEvaluator> =
            Arc::new(FnEvaluator::new(|m: &Mapping| m.active_pes() as f64));

        let mut pool = EvalPool::shared(2);
        let one = std::slice::from_ref(&m);
        let a = pool
            .submit_chunked(Some(Arc::clone(&model_eval)), one)
            .start;
        let b = pool.submit_chunked(Some(Arc::clone(&pes)), one).start;
        let mut results: HashMap<u64, Evaluation> = HashMap::new();
        for _ in 0..2 {
            let (id, eval) = pool.recv();
            results.insert(id, eval);
        }
        assert_eq!(results[&a], model_eval.evaluate(&m));
        assert_eq!(results[&b].primary(), m.active_pes() as f64);

        // Batch ids are contiguous and in input order.
        let batch: Vec<Mapping> = (0..4).map(|_| space.random_mapping(&mut rng)).collect();
        let ids = pool.submit_chunked(Some(Arc::clone(&model_eval)), &batch);
        assert_eq!(ids.end - ids.start, 4);
        let mut by_id: HashMap<u64, Evaluation> = HashMap::new();
        for _ in 0..4 {
            let (id, eval) = pool.recv();
            by_id.insert(id, eval);
        }
        for (i, m) in batch.iter().enumerate() {
            assert_eq!(by_id[&(ids.start + i as u64)], model_eval.evaluate(m));
        }
        assert_eq!(pool.in_flight(), 0);
    }

    #[test]
    #[should_panic(expected = "no default evaluator")]
    fn shared_pool_without_evaluator_fails_loudly() {
        let (space, _) = space_and_evaluator();
        let mut rng = StdRng::seed_from_u64(8);
        let mut pool = EvalPool::shared(1);
        pool.submit(space.random_mapping(&mut rng));
        let _ = pool.recv();
    }

    #[test]
    fn fn_evaluator_wraps_closures() {
        let (space, _) = space_and_evaluator();
        let mut rng = StdRng::seed_from_u64(3);
        let m = space.random_mapping(&mut rng);
        let eval = FnEvaluator::new(|m: &Mapping| m.active_pes() as f64);
        assert_eq!(eval.evaluate(&m).primary(), m.active_pes() as f64);
        assert_eq!(eval.metrics(), &[OptMetric::Edp]);
    }
}
