//! The fair-share layer-job scheduler: multiplex many `ProposalSearch`
//! instances — from many *concurrent requests* — over **one** shared
//! [`EvalPool`].
//!
//! The scheduler drives the job queues of every in-flight request at once:
//! up to `max_active` jobs keep proposals in flight simultaneously, every
//! batch is tagged with the pool ids of its members, and completions are
//! routed back to the owning job in proposal order. Pool workers never idle
//! while any job still has budget, and pool threads are spawned once for
//! the service's lifetime instead of once per layer.
//!
//! # Refill in halves
//!
//! A job's pipeline is refilled when it has drained to half its depth, not
//! after every completion (`ActiveJob::fill`): in steady state a pool job
//! carries at least half a pipeline of mappings, so the worker always has
//! the next batch queued behind the one it is evaluating. Topping up by one
//! proposal per step sends one-mapping jobs, and an evaluator faster than
//! the driving thread then drains its queue and parks after each of them —
//! every submission costs the driving thread, by then the bottleneck, a
//! wake-up system call. Searchers with lookahead 1 have a pipeline of one
//! and still make one round trip per evaluation.
//!
//! # Fair share
//!
//! Pending jobs are grouped by owning request. When an active slot frees,
//! the scheduler activates the front job of the request minimizing
//! *(served budget + next job's budget) / weight* — deterministic weighted
//! fair queuing over evaluation budgets (ties resolve to the lower request
//! id; the arithmetic is exact integer cross-multiplication). A request
//! with weight *w* therefore gets *w*× the pool share of a baseline
//! request. Fairness steers only *when* jobs run: outcomes are a pure
//! function of each job's spec, so interleaving never touches results.
//!
//! # Determinism
//!
//! Each job owns an RNG stream seeded from its spec alone, proposals are
//! reported back in proposal order per job, and best-mapping ties resolve
//! first-found. A searcher's proposal sequence must not depend on how
//! `propose` calls are batched, so a job's outcome is independent of worker count, concurrency
//! level, sibling requests, and completion timing — only the spec (seed,
//! budget, space, evaluator, sync policy) matters.
//!
//! # Failure isolation
//!
//! A panicking evaluator or searcher fails only its own job: the pool
//! worker survives (`EvalPool::recv_result` surfaces the panic as an `Err`
//! result), the job drains its in-flight proposals without reporting them
//! (results that had already arrived out of order are dropped with the
//! error — they were consumed from the pool and cannot arrive again), and
//! retires as [`JobEnd::Failed`]. Sibling jobs — including jobs of the
//! same request — keep running; the service decides which requests the
//! failure dooms.
//!
//! # Job-local sync
//!
//! A [`SyncPolicy`] on the spec is applied *within* each job: every
//! [`JOB_SYNC_INTERVAL`] completed evaluations the job's own best-so-far
//! is offered back to its searcher (`Anchor`/`Annealed` pull a drifting
//! trajectory back onto it). Keeping the incumbent job-local preserves both the determinism
//! guarantee above and the disjointness of sharded layer jobs.

use std::collections::{BTreeMap, HashMap, VecDeque};
use std::sync::{Arc, OnceLock};
use std::time::Instant;

use mm_mapper::{CostEvaluator, EvalPool, Evaluation, OptMetric};
use mm_mapspace::{MapSpaceView, Mapping};
use mm_search::{ConvergenceTrace, ProposalBuf, ProposalSearch, SyncPolicy};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Completed evaluations between job-local sync points (matches the
/// mapper's default `sync_interval`).
pub(crate) const JOB_SYNC_INTERVAL: u64 = 64;

/// Minimum in-flight proposal depth of a job (when its searcher tolerates
/// it), independent of pool width. A pipeline is refilled by halves, so a
/// refill of this depth is 16 proposals: one 16-mapping job on a one-worker
/// pool, two 8-row `CostEvaluator::evaluate_batch` calls (e.g. surrogate
/// forward passes) on a two-worker pool.
const MIN_PIPELINE_DEPTH: usize = 32;

/// Clamp a searcher's `lookahead` to the in-flight depth a pool can keep
/// fed: at least 1, at most two proposals per worker — but never capped
/// below [`MIN_PIPELINE_DEPTH`]. [`ActiveJob::fill`] lets a pipeline of
/// this depth drain to half before refilling it, so the depth also sets the
/// steady-state size of a refill (half of it).
fn pipeline_depth(lookahead: usize, workers: usize) -> usize {
    lookahead.clamp(1, (workers * 2).max(MIN_PIPELINE_DEPTH))
}

fn tele_jobs_started() -> &'static Arc<mm_telemetry::Counter> {
    static C: OnceLock<Arc<mm_telemetry::Counter>> = OnceLock::new();
    C.get_or_init(|| mm_telemetry::counter("serve.scheduler.jobs_started"))
}

fn tele_jobs_finished() -> &'static Arc<mm_telemetry::Counter> {
    static C: OnceLock<Arc<mm_telemetry::Counter>> = OnceLock::new();
    C.get_or_init(|| mm_telemetry::counter("serve.scheduler.jobs_finished"))
}

fn tele_jobs_failed() -> &'static Arc<mm_telemetry::Counter> {
    static C: OnceLock<Arc<mm_telemetry::Counter>> = OnceLock::new();
    C.get_or_init(|| mm_telemetry::counter("serve.scheduler.jobs_failed"))
}

fn tele_sync_points() -> &'static Arc<mm_telemetry::Counter> {
    static C: OnceLock<Arc<mm_telemetry::Counter>> = OnceLock::new();
    C.get_or_init(|| mm_telemetry::counter("serve.scheduler.sync_actions"))
}

/// One layer search to run: everything the scheduler needs, self-contained.
pub(crate) struct JobSpec {
    /// Owning request: the fair-share group this job's budget bills to.
    pub request: u64,
    /// Fair-share weight of the owning request (clamped to ≥ 1).
    pub weight: u64,
    /// The map-space view searched (the full space or one shard of it).
    pub space: Box<dyn MapSpaceView>,
    /// Scores this job's proposals (routed per batch on the shared pool).
    pub evaluator: Arc<dyn CostEvaluator>,
    /// The search method instance.
    pub search: Box<dyn ProposalSearch>,
    /// Seed of this job's private RNG stream.
    pub seed: u64,
    /// Evaluations to spend.
    pub budget: u64,
    /// Job-local global-best sync policy (see the module docs).
    pub sync: SyncPolicy,
}

/// What one layer search produced.
#[derive(Debug, Clone)]
pub(crate) struct JobOutcome {
    pub searcher: String,
    pub metric_names: Vec<OptMetric>,
    pub best: Option<(Mapping, Evaluation)>,
    pub evaluations: u64,
    pub wall_time_s: f64,
    pub exhausted: bool,
    /// Best-so-far convergence indexed by this job's completed-eval count
    /// (recorded when telemetry is enabled; completions are reported in
    /// proposal order, so the curve is pool-shape independent).
    pub convergence: Option<ConvergenceTrace>,
}

/// How one job left the scheduler.
#[derive(Debug)]
pub(crate) enum JobEnd {
    /// Ran to completion (budget spent or space exhausted).
    Done(JobOutcome),
    /// A worker evaluating this job's proposals panicked; the message is
    /// the propagated panic payload.
    Failed(String),
    /// Cancelled by the service before completion (its subscribers all
    /// failed); in-flight proposals were drained and discarded.
    Cancelled,
}

/// What one [`Scheduler::step`] did, for the service's bookkeeping.
#[derive(Debug, Default)]
pub(crate) struct StepEvents {
    /// Requests whose *first* job was activated this step (the
    /// queue→run transition of the request lifecycle).
    pub started: Vec<u64>,
    /// Jobs that left the scheduler this step, by job id.
    pub finished: Vec<(u64, JobEnd)>,
}

/// A job currently multiplexed on the pool.
struct ActiveJob {
    job_id: u64,
    request: u64,
    space: Box<dyn MapSpaceView>,
    evaluator: Arc<dyn CostEvaluator>,
    search: Box<dyn ProposalSearch>,
    rng: StdRng,
    budget: u64,
    submitted: u64,
    completed: u64,
    /// Proposals in flight, in proposal order (front = oldest).
    pending: VecDeque<(u64, Mapping)>,
    /// Results that arrived out of order, keyed by pool id.
    arrived: BTreeMap<u64, Evaluation>,
    best: Option<(Mapping, Evaluation)>,
    started: Instant,
    exhausted: bool,
    /// First worker-panic message routed to this job; once set, the job
    /// only drains its in-flight proposals.
    failed: Option<String>,
    /// Cancelled by the service; drains like a failed job.
    cancelled: bool,
    sync: SyncPolicy,
    /// Improvement-only convergence recorder (telemetry enabled).
    convergence: Option<ConvergenceTrace>,
    /// This job's span track (`serve.job{id}`), spans level only.
    track: Option<Arc<mm_telemetry::Track>>,
    /// The job-lifecycle span, held open from start to finish.
    job_span: Option<mm_telemetry::SpanGuard>,
}

impl ActiveJob {
    fn start(job_id: u64, mut spec: JobSpec) -> Self {
        let mut rng = StdRng::seed_from_u64(spec.seed);
        spec.search.begin(&*spec.space, Some(spec.budget), &mut rng);
        tele_jobs_started().bump(1);
        mm_telemetry::event("serve.job.start", || {
            format!(
                "job={job_id} request={} budget={}",
                spec.request, spec.budget
            )
        });
        let track = mm_telemetry::span_enabled()
            .then(|| mm_telemetry::track(&format!("serve.job{job_id}")));
        let job_span = track.as_ref().and_then(|t| t.span("job.run"));
        ActiveJob {
            job_id,
            request: spec.request,
            space: spec.space,
            evaluator: spec.evaluator,
            search: spec.search,
            rng,
            budget: spec.budget,
            submitted: 0,
            completed: 0,
            pending: VecDeque::new(),
            arrived: BTreeMap::new(),
            best: None,
            started: Instant::now(),
            exhausted: false,
            failed: None,
            cancelled: false,
            sync: spec.sync,
            convergence: mm_telemetry::enabled().then(ConvergenceTrace::new),
            track,
            job_span,
        }
    }

    /// Whether this job is merely draining its in-flight proposals.
    fn doomed(&self) -> bool {
        self.failed.is_some() || self.cancelled
    }

    /// Refill this job's pipeline once it has drained to half its depth
    /// (lookahead capped by pool depth): propose up to the depth, the sync
    /// horizon and the budget, and submit as one chunk job per worker.
    ///
    /// Refilling by halves rather than topping up after every completion is
    /// what makes pool jobs carry batches: a top-up is one proposal, one
    /// one-mapping job, and — once the evaluator is faster than this thread
    /// — one wake-up of a worker that parked after the previous one. What is
    /// left before the horizon or the budget goes out as soon as it fits,
    /// however small, so a pipeline never waits to send its tail.
    fn fill(
        &mut self,
        pool: &mut EvalPool,
        id_to_job: &mut HashMap<u64, u64>,
        buf: &mut ProposalBuf,
    ) {
        if self.doomed() || self.exhausted || self.submitted >= self.budget {
            return;
        }
        let cap = pipeline_depth(self.search.lookahead(), pool.workers()) as u64;
        // With sync on, never propose past the next sync boundary: a sync
        // point mutates searcher state (and may draw from the job RNG), so
        // it must land at a *fixed* position in the proposal stream. If the
        // pipeline could run ahead of the boundary, how many proposals were
        // drawn before the adopt would depend on arrival timing —
        // and the result on pool scheduling. The pipeline drains briefly at
        // each boundary; that bounded stall is the price of determinism.
        let horizon = if self.sync.is_enabled() {
            ((self.completed / JOB_SYNC_INTERVAL + 1) * JOB_SYNC_INTERVAL).min(self.budget)
        } else {
            self.budget
        };
        let in_flight = self.pending.len() as u64;
        let left = horizon - self.submitted;
        let room = cap.saturating_sub(in_flight).min(left);
        if room == 0 || (in_flight > cap / 2 && room < left) {
            return;
        }
        buf.clear();
        self.search
            .propose(&*self.space, &mut self.rng, room as usize, buf);
        if buf.is_empty() {
            // Contract: with nothing outstanding the searcher must propose;
            // an empty batch then means its space/schedule is exhausted.
            if self.pending.is_empty() {
                self.exhausted = true;
            }
            return;
        }
        let ids = pool.submit_chunked(Some(Arc::clone(&self.evaluator)), buf);
        for (off, mapping) in buf.iter().enumerate() {
            let id = ids.start + off as u64;
            id_to_job.insert(id, self.job_id);
            self.pending.push_back((id, mapping.clone()));
        }
        self.submitted += buf.len() as u64;
    }

    /// Record one arrived result (or the panic that replaced it). Doomed
    /// jobs only shed the proposal from their in-flight set; healthy jobs
    /// flush completions in proposal order.
    fn route(&mut self, id: u64, result: Result<Evaluation, Arc<str>>) {
        if self.doomed() {
            self.pending.retain(|(pid, _)| *pid != id);
            self.arrived.remove(&id);
            return;
        }
        match result {
            Ok(eval) => {
                self.arrived.insert(id, eval);
                self.flush();
            }
            Err(message) => {
                tele_jobs_failed().bump(1);
                mm_telemetry::event("serve.job.fail", || {
                    format!("job={} request={}", self.job_id, self.request)
                });
                // One String per failed job (not per batch member): the
                // pool shares the panic message as an `Arc<str>`.
                self.failed = Some(message.to_string());
                // Results buffered out of order were already consumed from
                // the pool and will never arrive again: drop their pending
                // entries with the errored one, or `done()` waits forever
                // for them and the doomed job never retires.
                let arrived = std::mem::take(&mut self.arrived);
                self.pending
                    .retain(|(pid, _)| *pid != id && !arrived.contains_key(pid));
            }
        }
    }

    /// Report every completion available in proposal order, applying the
    /// job-local sync policy at its cadence. The sequence of `report` and
    /// `observe_global_best` calls depends only on the completed-count, so
    /// arrival batching cannot perturb it.
    fn flush(&mut self) {
        while let Some(&(front_id, _)) = self.pending.front() {
            let Some(eval) = self.arrived.remove(&front_id) else {
                break;
            };
            let Some((_, mapping)) = self.pending.pop_front() else {
                break;
            };
            if let Some(convergence) = self.convergence.as_mut() {
                convergence.record(eval.primary());
            }
            self.search.report(&mapping, eval.primary(), &mut self.rng);
            let improved = match self.best.as_ref() {
                None => true,
                Some((_, incumbent)) => eval.better_than(incumbent),
            };
            if improved {
                self.best = Some((mapping, eval));
            }
            self.completed += 1;
            if self.sync.is_enabled() && self.completed.is_multiple_of(JOB_SYNC_INTERVAL) {
                self.sync_point();
            }
        }
    }

    /// One job-local sync point: consult the policy with the job's budget
    /// progress; when it acts, hand the job's own best back to the searcher
    /// (re-anchor).
    fn sync_point(&mut self) {
        let _span = self.track.as_ref().and_then(|t| t.span("job.sync"));
        let Some((mapping, eval)) = self.best.clone() else {
            return;
        };
        let own = eval.primary();
        let progress = if self.budget == 0 {
            1.0
        } else {
            self.completed as f64 / self.budget as f64
        };
        let Some(action) = self.sync.decide(progress, &mut self.rng) else {
            return;
        };
        tele_sync_points().bump(1);
        self.search
            .observe_global_best(&*self.space, &mapping, own, action, &mut self.rng);
    }

    fn done(&self) -> bool {
        if self.doomed() {
            return self.pending.is_empty();
        }
        self.pending.is_empty() && (self.exhausted || self.completed >= self.budget)
    }

    fn finish(mut self) -> (u64, JobEnd) {
        tele_jobs_finished().bump(1);
        mm_telemetry::event("serve.job.finish", || {
            format!(
                "job={} evals={} exhausted={} failed={} cancelled={}",
                self.job_id,
                self.completed,
                self.exhausted,
                self.failed.is_some(),
                self.cancelled
            )
        });
        // Close the lifecycle span before the outcome is built, so a
        // snapshot taken right after the step returns includes it.
        drop(self.job_span.take());
        let end = if let Some(message) = self.failed {
            JobEnd::Failed(message)
        } else if self.cancelled {
            JobEnd::Cancelled
        } else {
            JobEnd::Done(JobOutcome {
                searcher: self.search.name().to_string(),
                metric_names: self.evaluator.metrics().to_vec(),
                best: self.best,
                evaluations: self.completed,
                wall_time_s: self.started.elapsed().as_secs_f64(),
                exhausted: self.exhausted,
                convergence: self.convergence,
            })
        };
        (self.job_id, end)
    }
}

/// Per-request fair-share state: the pending job queue and the budget this
/// request has been served so far.
struct RequestQueue {
    weight: u64,
    served: u64,
    queue: VecDeque<(u64, JobSpec)>,
    started: bool,
}

/// The persistent fair-share scheduler of one `MappingService`.
///
/// Owns the pending job queues of every in-flight request and the active
/// set multiplexed on the pool; the service calls [`enqueue`],
/// [`step`]s until the results it needs arrive, and [`cancel_jobs`] when a
/// failure dooms part of the plan.
///
/// [`enqueue`]: Scheduler::enqueue
/// [`step`]: Scheduler::step
/// [`cancel_jobs`]: Scheduler::cancel_jobs
pub(crate) struct Scheduler {
    max_active: usize,
    next_job_id: u64,
    /// Pending queues by request id — a BTreeMap so fair-share ties break
    /// by request id deterministically.
    requests: BTreeMap<u64, RequestQueue>,
    active: Vec<ActiveJob>,
    /// Pool id → job id of every proposal in flight.
    id_to_job: HashMap<u64, u64>,
    buf: ProposalBuf,
    track: Option<Arc<mm_telemetry::Track>>,
}

impl Scheduler {
    pub fn new(max_active: usize) -> Self {
        Scheduler {
            max_active: max_active.max(1),
            next_job_id: 0,
            requests: BTreeMap::new(),
            active: Vec::new(),
            id_to_job: HashMap::new(),
            buf: ProposalBuf::new(),
            track: mm_telemetry::span_enabled().then(|| mm_telemetry::track("serve.scheduler")),
        }
    }

    /// Queue `spec` behind its request's earlier jobs; returns the job id.
    pub fn enqueue(&mut self, spec: JobSpec) -> u64 {
        let job_id = self.next_job_id;
        self.next_job_id += 1;
        let entry = self
            .requests
            .entry(spec.request)
            .or_insert_with(|| RequestQueue {
                weight: spec.weight.max(1),
                served: 0,
                queue: VecDeque::new(),
                started: false,
            });
        entry.queue.push_back((job_id, spec));
        job_id
    }

    /// Nothing queued and nothing active.
    pub fn idle(&self) -> bool {
        self.active.is_empty() && self.requests.is_empty()
    }

    /// Drop the given jobs: pending ones are dequeued outright; active ones
    /// stop proposing and drain their in-flight results, retiring as
    /// [`JobEnd::Cancelled`].
    pub fn cancel_jobs(&mut self, job_ids: &[u64]) {
        for request in self.requests.values_mut() {
            request.queue.retain(|(id, _)| !job_ids.contains(id));
        }
        self.requests.retain(|_, r| !r.queue.is_empty());
        for job in self.active.iter_mut() {
            if job_ids.contains(&job.job_id) {
                job.cancelled = true;
            }
        }
    }

    /// The request that should activate next under weighted fair queuing:
    /// minimize (served + next budget) / weight, ties to the lower request
    /// id. Exact integer arithmetic — no float order sensitivity.
    fn pick_next(&self) -> Option<u64> {
        let mut best: Option<(u128, u64, u64)> = None; // (num, weight, request)
        for (&request, rq) in &self.requests {
            let Some((_, front)) = rq.queue.front() else {
                continue;
            };
            let num = (rq.served + front.budget).max(1) as u128;
            let better = match best {
                None => true,
                // num_a / w_a < num_b / w_b  ⟺  num_a * w_b < num_b * w_a
                Some((bn, bw, _)) => num * (bw as u128) < bn * (rq.weight as u128),
            };
            if better {
                best = Some((num, rq.weight, request));
            }
        }
        best.map(|(_, _, request)| request)
    }

    /// One scheduling step: activate pending jobs into free slots by fair
    /// share, keep every active pipeline full, route one completion, and
    /// retire finished jobs. Progress is guaranteed whenever `!idle()`.
    pub fn step(&mut self, pool: &mut EvalPool) -> StepEvents {
        let mut events = StepEvents::default();

        // Activation: fair-share pick until the active set is full.
        while self.active.len() < self.max_active {
            let Some(request) = self.pick_next() else {
                break;
            };
            let Some(rq) = self.requests.get_mut(&request) else {
                break;
            };
            let Some((job_id, spec)) = rq.queue.pop_front() else {
                break;
            };
            rq.served += spec.budget;
            if !rq.started {
                rq.started = true;
                events.started.push(request);
            }
            if rq.queue.is_empty() {
                self.requests.remove(&request);
            }
            self.active.push(ActiveJob::start(job_id, spec));
        }

        // Keep every active pipeline full before blocking on a result.
        for job in self.active.iter_mut() {
            job.fill(pool, &mut self.id_to_job, &mut self.buf);
        }

        // Route one completion back to its job (proposal-order per job).
        if pool.in_flight() > 0 {
            let (id, result) = {
                let _span = self.track.as_ref().and_then(|t| t.span("scheduler.wait"));
                pool.recv_result()
            };
            if let Some(job_id) = self.id_to_job.remove(&id) {
                if let Some(job) = self.active.iter_mut().find(|j| j.job_id == job_id) {
                    job.route(id, result);
                } else {
                    debug_assert!(false, "routed job {job_id} retired with results in flight");
                }
            } else {
                debug_assert!(false, "completion {id} not routed to any job");
            }
        }

        // Retire finished jobs, preserving activation order of the rest.
        let mut i = 0;
        while i < self.active.len() {
            if self.active[i].done() {
                events.finished.push(self.active.remove(i).finish());
            } else {
                i += 1;
            }
        }
        events
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mm_accel::{Architecture, CostModel};
    use mm_mapper::ModelEvaluator;
    use mm_mapspace::{MapSpace, ProblemSpec};
    use mm_search::{GeneticAlgorithm, GeneticConfig, RandomSearch, SimulatedAnnealing};

    fn spec(request: u64, w: u64, seed: u64, budget: u64) -> JobSpec {
        let arch = Architecture::example();
        let problem = ProblemSpec::conv1d(w, 5);
        let space = MapSpace::new(problem.clone(), arch.mapping_constraints());
        let model = CostModel::new(arch, problem);
        JobSpec {
            request,
            weight: 1,
            space: Box::new(space),
            evaluator: Arc::new(ModelEvaluator::edp(model)),
            search: Box::new(RandomSearch::new()),
            seed,
            budget,
            sync: SyncPolicy::Off,
        }
    }

    /// Drive `specs` to completion (one request per spec), returning
    /// outcomes in enqueue order — the shape of the old `run_jobs` helper,
    /// so the determinism suite exercises the persistent scheduler the
    /// same way the service does.
    fn run_specs(pool: &mut EvalPool, specs: Vec<JobSpec>, max_active: usize) -> Vec<JobOutcome> {
        let mut sched = Scheduler::new(max_active);
        let ids: Vec<u64> = specs.into_iter().map(|s| sched.enqueue(s)).collect();
        let mut ends: HashMap<u64, JobOutcome> = HashMap::new();
        while !sched.idle() {
            for (job, end) in sched.step(pool).finished {
                match end {
                    JobEnd::Done(outcome) => {
                        ends.insert(job, outcome);
                    }
                    other => panic!("job {job} ended {other:?} in a healthy run"),
                }
            }
        }
        assert_eq!(pool.in_flight(), 0);
        ids.into_iter()
            .map(|id| ends.remove(&id).expect("every enqueued job retires"))
            .collect()
    }

    #[test]
    fn jobs_complete_with_exact_budgets_over_one_pool() {
        let mut pool = EvalPool::shared(3);
        let jobs: Vec<JobSpec> = (0..5).map(|i| spec(i, 128 + 64 * i, i, 40)).collect();
        let outcomes = run_specs(&mut pool, jobs, 2);
        assert_eq!(outcomes.len(), 5);
        for o in &outcomes {
            assert_eq!(o.evaluations, 40);
            assert!(!o.exhausted);
            assert!(o.best.as_ref().unwrap().1.primary().is_finite());
        }
        assert_eq!(pool.in_flight(), 0);
    }

    #[test]
    fn outcomes_are_independent_of_concurrency_and_workers() {
        let run = |workers: usize, max_active: usize| -> Vec<f64> {
            let mut pool = EvalPool::shared(workers);
            let jobs: Vec<JobSpec> = (0..4).map(|i| spec(i, 200, 7 + i, 60)).collect();
            run_specs(&mut pool, jobs, max_active)
                .iter()
                .map(|o| o.best.as_ref().unwrap().1.primary())
                .collect()
        };
        let base = run(1, 1);
        assert_eq!(base, run(3, 2));
        assert_eq!(base, run(2, 4));
    }

    #[test]
    fn mixed_searchers_multiplex_deterministically() {
        let mk = || -> Vec<JobSpec> {
            (0..3)
                .map(|i| {
                    let mut s = spec(i, 256, 11 + i, 50);
                    s.search = match i {
                        0 => Box::new(SimulatedAnnealing::default()),
                        1 => Box::new(GeneticAlgorithm::new(GeneticConfig {
                            population: 10,
                            ..GeneticConfig::default()
                        })),
                        _ => Box::new(RandomSearch::new()),
                    };
                    s
                })
                .collect()
        };
        let mut pool_a = EvalPool::shared(2);
        let a = run_specs(&mut pool_a, mk(), 3);
        let mut pool_b = EvalPool::shared(4);
        let b = run_specs(&mut pool_b, mk(), 2);
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.searcher, y.searcher);
            assert_eq!(x.evaluations, y.evaluations);
            assert_eq!(
                x.best.as_ref().unwrap().1,
                y.best.as_ref().unwrap().1,
                "same spec ⇒ same best, regardless of pool shape"
            );
        }
    }

    #[test]
    fn fair_share_activates_by_weighted_virtual_finish() {
        // Two requests, equal job budgets, weights 3 and 1, one slot: the
        // weighted request owns ~3 of every 4 activations. Activation order
        // is observable through `started`+`finished` with max_active=1.
        let mut pool = EvalPool::shared(2);
        let mut sched = Scheduler::new(1);
        let mut owners: HashMap<u64, u64> = HashMap::new();
        for i in 0..6 {
            let mut s = spec(1, 128, 40 + i, 16);
            s.weight = 3;
            owners.insert(sched.enqueue(s), 1);
        }
        for i in 0..2 {
            owners.insert(sched.enqueue(spec(2, 128, 50 + i, 16)), 2);
        }
        let mut order: Vec<u64> = Vec::new();
        while !sched.idle() {
            for (job, end) in sched.step(&mut pool).finished {
                assert!(matches!(end, JobEnd::Done(_)));
                order.push(owners[&job]);
            }
        }
        // Virtual finish times: request 1 jobs at 16/3, 32/3, 48/3, 64/3…;
        // request 2 jobs at 16, 32. Expected interleaving: 1,1,1,2,1,1,1,2.
        assert_eq!(order, vec![1, 1, 1, 2, 1, 1, 1, 2]);
    }

    #[test]
    fn equal_weights_interleave_round_robin() {
        let mut pool = EvalPool::shared(1);
        let mut sched = Scheduler::new(1);
        let mut owners: HashMap<u64, u64> = HashMap::new();
        for r in 0..2u64 {
            for i in 0..3 {
                owners.insert(sched.enqueue(spec(r, 128, 60 + 10 * r + i, 8)), r);
            }
        }
        let mut order: Vec<u64> = Vec::new();
        while !sched.idle() {
            for (job, _) in sched.step(&mut pool).finished {
                order.push(owners[&job]);
            }
        }
        assert_eq!(order, vec![0, 1, 0, 1, 0, 1], "ties break by request id");
    }

    #[test]
    fn pipeline_depth_pins_the_clamp_boundaries() {
        // Below MIN_PIPELINE_DEPTH worth of workers, the floor wins: the
        // cap is MIN_PIPELINE_DEPTH regardless of pool width.
        assert_eq!(pipeline_depth(1000, 1), MIN_PIPELINE_DEPTH);
        assert_eq!(
            pipeline_depth(1000, MIN_PIPELINE_DEPTH / 2),
            MIN_PIPELINE_DEPTH
        );
        // From workers*2 == MIN_PIPELINE_DEPTH upward, workers*2 wins.
        assert_eq!(
            pipeline_depth(1000, MIN_PIPELINE_DEPTH / 2 + 1),
            MIN_PIPELINE_DEPTH + 2
        );
        assert_eq!(pipeline_depth(1000, 20), 40);
        // A modest lookahead is never inflated, and zero clamps to 1.
        assert_eq!(pipeline_depth(10, 20), 10);
        assert_eq!(pipeline_depth(1, 20), 1);
        assert_eq!(pipeline_depth(0, 20), 1);
        assert_eq!(pipeline_depth(usize::MAX, 3), MIN_PIPELINE_DEPTH);
    }

    /// Forwards to the analytic evaluator and records how many mappings
    /// each pool job handed it.
    struct CountingEvaluator {
        inner: ModelEvaluator,
        calls: std::sync::Mutex<Vec<usize>>,
    }

    impl CostEvaluator for CountingEvaluator {
        fn metrics(&self) -> &[OptMetric] {
            self.inner.metrics()
        }
        fn evaluate(&self, mapping: &Mapping) -> Evaluation {
            self.inner.evaluate(mapping)
        }
        fn evaluate_batch(&self, mappings: &[Mapping]) -> Vec<Evaluation> {
            self.calls.lock().unwrap().push(mappings.len());
            self.inner.evaluate_batch(mappings)
        }
    }

    /// Forwards to a searcher and checks at every `propose` that nothing
    /// was drawn past the next job-local sync boundary.
    struct Fenced {
        inner: Box<dyn ProposalSearch>,
        drawn: u64,
        reported: u64,
    }

    impl ProposalSearch for Fenced {
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
            self.inner.propose(space, rng, max, out);
            self.drawn += (out.len() - before) as u64;
            let boundary = (self.reported / JOB_SYNC_INTERVAL + 1) * JOB_SYNC_INTERVAL;
            assert!(
                self.drawn <= boundary,
                "{} proposals drawn with {} reported: past the boundary at {boundary}",
                self.drawn,
                self.reported
            );
        }
        fn report(&mut self, mapping: &Mapping, cost: f64, rng: &mut StdRng) {
            self.reported += 1;
            self.inner.report(mapping, cost, rng);
        }
        fn observe_global_best(
            &mut self,
            space: &dyn MapSpaceView,
            mapping: &Mapping,
            cost: f64,
            action: mm_search::SyncAction,
            rng: &mut StdRng,
        ) {
            self.inner
                .observe_global_best(space, mapping, cost, action, rng);
        }
    }

    #[test]
    fn pipelines_refill_in_halves_without_changing_any_outcome() {
        // One worker, one job at a time: the sizes of the pool jobs are then
        // a function of the refill rule alone. The expected outcomes were
        // recorded at the parent commit, whose `fill` topped the pipeline up
        // by one proposal per step — the same specs must still find the same
        // best mapping at the same cost after the same number of
        // evaluations.
        struct Case {
            sa: bool,
            w: u64,
            seed: u64,
            budget: u64,
            sync: SyncPolicy,
            best_bits: u64,
            best: &'static str,
        }
        let cases = [
            Case {
                sa: false,
                w: 200,
                seed: 7,
                budget: 200,
                sync: SyncPolicy::Off,
                best_bits: 0x3d15876eb7b84658,
                best: "Mapping { tiles: [[5, 1], [28, 5]], parallel: [3, 5], \
                       loop_orders: [[0, 1], [0, 1], [1, 0]], buffer_alloc: \
                       [[0.29077613784220036, 0.36012901046976753, 0.3191548132770266], \
                       [0.3471545044113378, 0.4191890030552052, 0.1397288211090857]] }",
            },
            Case {
                sa: true,
                w: 256,
                seed: 5,
                budget: 3 * JOB_SYNC_INTERVAL,
                sync: SyncPolicy::Anchor,
                best_bits: 0x3d1ca7f8d14ee849,
                best: "Mapping { tiles: [[16, 1], [252, 5]], parallel: [8, 1], \
                       loop_orders: [[1, 0], [0, 1], [1, 0]], buffer_alloc: \
                       [[0.4666666666666667, 0.02635788421234657, 0.4187013294141635], \
                       [0.3091859323671876, 0.08761861253809133, 0.3780644712846062]] }",
            },
            // Annealed draws from the job RNG at every sync point, so a
            // boundary at the wrong place in the stream would shift every
            // later random proposal.
            Case {
                sa: false,
                w: 200,
                seed: 9,
                budget: 200,
                sync: SyncPolicy::Annealed {
                    start: 0.9,
                    end: 0.1,
                },
                best_bits: 0x3d1312f17768fc0c,
                best: "Mapping { tiles: [[2, 1], [196, 5]], parallel: [2, 5], \
                       loop_orders: [[0, 1], [0, 1], [1, 0]], buffer_alloc: \
                       [[0.3581327047991107, 0.5041230332180842, 0.06623711067995362], \
                       [0.12204550864716739, 0.3476221806705281, 0.38632299042685303]] }",
            },
        ];
        for case in cases {
            let mut s = spec(0, case.w, case.seed, case.budget);
            let problem = ProblemSpec::conv1d(case.w, 5);
            let counting = Arc::new(CountingEvaluator {
                inner: ModelEvaluator::edp(CostModel::new(Architecture::example(), problem)),
                calls: std::sync::Mutex::new(Vec::new()),
            });
            s.evaluator = Arc::clone(&counting) as Arc<dyn CostEvaluator>;
            let inner: Box<dyn ProposalSearch> = if case.sa {
                Box::new(SimulatedAnnealing::default())
            } else {
                Box::new(RandomSearch::new())
            };
            let depth = pipeline_depth(inner.lookahead(), 1);
            s.search = if case.sync.is_enabled() {
                Box::new(Fenced {
                    inner,
                    drawn: 0,
                    reported: 0,
                })
            } else {
                inner
            };
            s.sync = case.sync;

            let mut pool = EvalPool::shared(1);
            let outcome = run_specs(&mut pool, vec![s], 1).remove(0);
            let (mapping, eval) = outcome.best.expect("a best mapping");
            assert_eq!(outcome.evaluations, case.budget);
            assert_eq!(eval.primary().to_bits(), case.best_bits);
            assert_eq!(format!("{mapping:?}"), case.best);

            let calls = counting.calls.lock().unwrap().clone();
            assert_eq!(calls.iter().sum::<usize>() as u64, case.budget);
            if case.sa {
                assert_eq!(depth, 1);
                assert!(calls.iter().all(|&n| n == 1), "SA: {calls:?}");
            } else if !case.sync.is_enabled() {
                // First fill, refills of at least half a pipeline, one tail.
                assert_eq!(depth, MIN_PIPELINE_DEPTH);
                assert_eq!(calls[0], depth);
                let steady = &calls[1..calls.len() - 1];
                assert!(steady.len() >= 8, "{calls:?}");
                assert!(steady.iter().all(|&n| n >= depth / 2), "{calls:?}");
            } else {
                // The pipeline drains at every boundary and fills afresh.
                assert!(calls.iter().all(|&n| n >= 8), "{calls:?}");
            }
        }
    }

    #[test]
    fn empty_scheduler_is_idle() {
        let sched = Scheduler::new(2);
        assert!(sched.idle());
    }

    #[test]
    fn cancelled_pending_jobs_never_start() {
        let mut pool = EvalPool::shared(1);
        let mut sched = Scheduler::new(1);
        let keep = sched.enqueue(spec(0, 128, 1, 16));
        let drop_id = sched.enqueue(spec(1, 128, 2, 16));
        sched.cancel_jobs(&[drop_id]);
        let mut finished: Vec<u64> = Vec::new();
        while !sched.idle() {
            for (job, end) in sched.step(&mut pool).finished {
                assert!(matches!(end, JobEnd::Done(_)));
                finished.push(job);
            }
        }
        assert_eq!(finished, vec![keep], "the cancelled job never activated");
    }

    #[test]
    fn a_panic_drops_pending_entries_whose_results_already_arrived() {
        // With >1 worker a job's chunks complete independently, so Ok
        // results for later proposals can be buffered in `arrived` when an
        // earlier proposal's Err lands. Those results were consumed from
        // the pool; if their pending entries survived the failure the job
        // could never drain, and the whole service would hang.
        let mut job = ActiveJob::start(0, spec(0, 96, 3, 16));
        let mut proposals = ProposalBuf::new();
        job.search
            .propose(&*job.space, &mut job.rng, 3, &mut proposals);
        assert_eq!(proposals.len(), 3);
        for (i, mapping) in proposals.iter().enumerate() {
            job.pending.push_back((i as u64, mapping.clone()));
        }
        job.submitted = 3;
        // Results 1 and 2 arrive before 0 and buffer out of order.
        job.route(1, Ok(Evaluation::scalar(1.0)));
        job.route(2, Ok(Evaluation::scalar(2.0)));
        assert_eq!(job.arrived.len(), 2);
        assert_eq!(job.pending.len(), 3);
        // The worker evaluating proposal 0 panicked.
        job.route(0, Err("boom".into()));
        assert!(
            job.pending.is_empty(),
            "entries for consumed results must not outlive the failure"
        );
        assert!(
            job.done(),
            "the doomed job retires instead of waiting forever"
        );
    }

    /// Evaluator that stalls then panics on one poisoned mapping and scores
    /// everything else instantly, so with two workers the healthy chunk's
    /// Oks arrive — and buffer out of order — before the poisoned chunk's
    /// Errs are routed.
    struct SlowPoison {
        poison: Mapping,
        metrics: Vec<OptMetric>,
    }

    impl CostEvaluator for SlowPoison {
        fn metrics(&self) -> &[OptMetric] {
            &self.metrics
        }
        fn evaluate(&self, mapping: &Mapping) -> Evaluation {
            if *mapping == self.poison {
                std::thread::sleep(std::time::Duration::from_millis(60));
                panic!("slow poison");
            }
            Evaluation::scalar(1.0)
        }
    }

    #[test]
    fn buffered_results_before_a_panic_never_wedge_the_scheduler() {
        // Reproduce the poisoned job's first proposal: the proposal stream
        // is batch-size independent (the scheduler's contract), so this is
        // the lowest pool id of the job's first chunk — the chunk whose Err
        // lands after the sibling chunk's Oks have buffered.
        let seed = 21;
        let probe = spec(0, 128, seed, 64);
        let mut search = RandomSearch::new();
        let mut rng = StdRng::seed_from_u64(seed);
        search.begin(&*probe.space, Some(probe.budget), &mut rng);
        let mut first = ProposalBuf::new();
        search.propose(&*probe.space, &mut rng, 1, &mut first);
        let mut doomed_spec = spec(0, 128, seed, 64);
        doomed_spec.evaluator = Arc::new(SlowPoison {
            poison: first[0].clone(),
            metrics: vec![OptMetric::Edp],
        });

        let mut pool = EvalPool::shared(2);
        let mut sched = Scheduler::new(2);
        let doomed = sched.enqueue(doomed_spec);
        let healthy = sched.enqueue(spec(1, 160, 5, 32));
        let mut ends: HashMap<u64, JobEnd> = HashMap::new();
        // Before the fix this loop never terminated: the doomed job kept
        // pending entries for results consumed before the Err was routed.
        while !sched.idle() {
            for (job, end) in sched.step(&mut pool).finished {
                ends.insert(job, end);
            }
        }
        assert_eq!(pool.in_flight(), 0, "the doomed job drained completely");
        assert!(
            matches!(&ends[&doomed], JobEnd::Failed(m) if m.contains("slow poison")),
            "the poisoned job fails with the propagated panic payload"
        );
        let JobEnd::Done(outcome) = &ends[&healthy] else {
            panic!("the sibling job must complete, got {:?}", ends[&healthy]);
        };
        assert_eq!(outcome.evaluations, 32);
    }

    #[test]
    fn job_local_sync_stays_deterministic_and_changes_the_search() {
        // Budget spans several JOB_SYNC_INTERVAL cadences so the policy
        // actually fires; SA makes re-anchoring visible.
        let mk = |sync: SyncPolicy| -> Vec<JobSpec> {
            (0..2)
                .map(|i| {
                    let mut s = spec(i, 256, 5 + i, 3 * JOB_SYNC_INTERVAL);
                    s.search = Box::new(SimulatedAnnealing::default());
                    s.sync = sync;
                    s
                })
                .collect()
        };
        let run = |workers: usize, sync: SyncPolicy| -> Vec<f64> {
            let mut pool = EvalPool::shared(workers);
            run_specs(&mut pool, mk(sync), 2)
                .iter()
                .map(|o| o.best.as_ref().unwrap().1.primary())
                .collect()
        };
        let anchored = run(1, SyncPolicy::Anchor);
        assert_eq!(
            anchored,
            run(3, SyncPolicy::Anchor),
            "job-local sync must stay worker-count independent"
        );
        assert_ne!(
            anchored,
            run(1, SyncPolicy::Off),
            "an always-adopting policy must steer the search"
        );
    }
}
