//! The [`Mapper`] driver: multi-threaded search over sharded map spaces.
//!
//! Follows the proven Timeloop-mapper architecture, with the map space
//! partitioned into **logical shards** executed by a pool of **worker
//! threads** — the two are decoupled:
//!
//! * [`MapperConfig::shards`] fixes how many independent search units exist
//!   (default: one per thread). Each shard owns a deterministically derived
//!   RNG stream, its own [`ProposalSearch`] instance, and — when
//!   [`MapperConfig::shard_space`] is set — a pairwise-disjoint slice of the
//!   map space itself ([`MapSpace::shard`]), so shards provably never cover
//!   the same mappings.
//! * [`MapperConfig::threads`] fixes how many OS threads execute them.
//!   Workers pull shards off a queue; shard results are merged in shard
//!   order.
//!
//! # One schedule
//!
//! Every shard gets its exact [`split_evenly`](crate::policy::split_evenly)
//! share of `search_size`, and a run is a sequence of **rounds**: each live
//! shard runs one round (on any worker), all shards rendezvous, their bests
//! are merged in shard order, and each still-live shard applies the
//! [`SyncPolicy`] to the merged incumbent. A round is
//! [`MapperConfig::sync_interval`] evaluations long when a policy is
//! enabled; with [`SyncPolicy::Off`] the run is one round of each shard's
//! whole share. Each round's work depends only on shard-local state and the
//! incumbent delivered before it, so shard `s` of a run with seed `q` always
//! performs the same evaluations and [`MapperReport::canonical_string`] is
//! **byte-identical across worker counts** — 1 thread or 16, same report,
//! under every policy, with or without a `search_size`.
//!
//! Wall-clock `timeout` still intentionally trades determinism away.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use mm_mapspace::{MapSpace, MapSpaceView, Mapping};
use mm_search::{
    merge_shard_convergence, ConvergenceTrace, ProposalBuf, ProposalSearch, SearchTrace, SyncPolicy,
};
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::eval::{short_batch_message, CostEvaluator};
use crate::metrics::Evaluation;
use crate::policy::{StopReason, TerminationPolicy};

/// Configuration of a [`Mapper`] run.
#[derive(Debug, Clone)]
pub struct MapperConfig {
    /// Number of worker threads executing shards.
    pub threads: usize,
    /// Number of logical search shards (`None`: one per thread). Shard
    /// results and RNG streams depend only on the shard index, never on
    /// which thread runs the shard.
    pub shards: Option<usize>,
    /// Partition the map space itself across shards via [`MapSpace::shard`]
    /// (pairwise-disjoint slices of the mixed-radix loop-order/parallelism/
    /// tiling axis product) instead of separating shards by RNG stream
    /// alone. Shard counts beyond the space's
    /// [`MapSpace::shard_capacity`] are clamped.
    pub shard_space: bool,
    /// Master seed; per-shard streams are derived deterministically.
    pub seed: u64,
    /// Round length, in evaluations per shard, when [`sync`](Self::sync) is
    /// enabled: the cadence at which shards rendezvous and the
    /// [`SyncPolicy`] is consulted (0 disables the exchange).
    pub sync_interval: u64,
    /// Maximum proposals a shard requests per driver iteration (bounded
    /// further by the searcher's own lookahead).
    pub batch_size: usize,
    /// When to stop.
    pub termination: TerminationPolicy,
    /// How shards re-anchor on the shared global best ([`SyncPolicy::Off`]:
    /// never — fully independent shards). The policy runs between rounds
    /// and preserves the byte-identical canonical report across worker
    /// counts.
    pub sync: SyncPolicy,
    /// Record a full per-shard [`SearchTrace`] (costs mapping clones per
    /// evaluation; leave off for throughput measurements).
    pub record_traces: bool,
}

impl Default for MapperConfig {
    fn default() -> Self {
        MapperConfig {
            threads: 1,
            shards: None,
            shard_space: false,
            seed: 0,
            sync_interval: 64,
            batch_size: 16,
            termination: TerminationPolicy::search_size(10_000),
            sync: SyncPolicy::Off,
            record_traces: false,
        }
    }
}

/// What one search shard did.
#[derive(Debug, Clone)]
pub struct ShardReport {
    /// Shard index.
    pub shard: usize,
    /// Evaluations performed.
    pub evaluations: u64,
    /// Best mapping found by this shard and its metrics.
    pub best: Option<(Mapping, Evaluation)>,
    /// Why the shard stopped.
    pub stop: StopReason,
    /// Full trace, when [`MapperConfig::record_traces`] is set.
    pub trace: Option<SearchTrace>,
    /// Best-so-far convergence curve indexed by this shard's evaluation
    /// count: recorded when [`MapperConfig::record_traces`] is set *or*
    /// telemetry is enabled (improvement points only — no mapping clones,
    /// no clock reads — so it is cheap enough for the parallel hot path).
    pub convergence: Option<ConvergenceTrace>,
}

/// The result of a [`Mapper`] run.
#[derive(Debug, Clone)]
pub struct MapperReport {
    /// Globally best mapping (merged across shards in shard order).
    pub best_mapping: Option<Mapping>,
    /// Metrics of the best mapping, in the evaluator's priority order.
    pub best_metrics: Option<Evaluation>,
    /// Total evaluations across all shards.
    pub total_evaluations: u64,
    /// Wall-clock duration of the run in seconds.
    pub wall_time_s: f64,
    /// Aggregate evaluation throughput.
    pub evals_per_sec: f64,
    /// The global-best sync policy the run used (part of the canonical
    /// identity: distinct policies are distinct search configurations).
    pub sync: SyncPolicy,
    /// Per-shard details, indexed by shard.
    pub shards: Vec<ShardReport>,
    /// The Figures 5/6-style best-so-far convergence curve, merged across
    /// shards in the canonical round-robin order
    /// ([`merge_shard_convergence`]). Present when per-shard convergence
    /// was recorded (traces requested or telemetry on); deterministic
    /// across worker counts, but — like `telemetry` — excluded from
    /// [`canonical_string`](Self::canonical_string) so levels that do not
    /// record it replay byte-identically.
    pub convergence: Option<ConvergenceTrace>,
    /// Telemetry recorded during the run (`None` when `MM_TELEMETRY` is
    /// off). Excluded from [`canonical_string`](Self::canonical_string),
    /// like the wall-clock fields, so instrumentation never perturbs the
    /// deterministic replay contract.
    pub telemetry: Option<mm_telemetry::TelemetrySnapshot>,
}

impl MapperReport {
    /// The best primary-metric value, or ∞ when nothing was evaluated.
    pub fn best_cost(&self) -> f64 {
        self.best_metrics
            .as_ref()
            .map_or(f64::INFINITY, Evaluation::primary)
    }

    /// Render the deterministic portion of the report — everything except
    /// the wall-clock fields — as a stable string. Without a wall-clock
    /// `timeout`, the same seed and shard count produce byte-identical
    /// output **regardless of worker count**, under *every* [`SyncPolicy`]
    /// — policy-enabled runs exchange incumbents between rounds whose
    /// content is worker-count independent.
    pub fn canonical_string(&self) -> String {
        use std::fmt::Write;
        let mut out = String::new();
        let _ = writeln!(out, "sync={}", self.sync.canonical_string());
        for s in &self.shards {
            let _ = writeln!(
                out,
                "shard={} evals={} stop={:?} metrics={:?} mapping={:?}",
                s.shard,
                s.evaluations,
                s.stop,
                s.best.as_ref().map(|(_, e)| &e.metrics),
                s.best.as_ref().map(|(m, _)| m),
            );
        }
        let _ = writeln!(
            out,
            "total_evaluations={} best_metrics={:?} best_mapping={:?}",
            self.total_evaluations,
            self.best_metrics.as_ref().map(|e| &e.metrics),
            self.best_mapping,
        );
        out
    }
}

/// Deterministic RNG-stream seed derivation (SplitMix64 over seed ⊕ index):
/// stream `i` of master seed `s` is always the same, and distinct indices
/// give decorrelated streams. Used for the mapper's per-shard streams and
/// exported for any orchestrator needing the same guarantee (e.g.
/// `mm-serve`'s per-job streams).
pub fn derive_stream_seed(master: u64, index: usize) -> u64 {
    let mut z = master.wrapping_add(0x9E37_79B9_7F4A_7C15u64.wrapping_mul(index as u64 + 1));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// `best` replaced by `candidate` when the candidate is strictly better
/// (so ties keep the earlier one — merge in shard order for a
/// worker-count-independent winner).
pub fn keep_better(best: &mut Option<(Mapping, Evaluation)>, candidate: &(Mapping, Evaluation)) {
    let better = match best.as_ref() {
        None => true,
        Some((_, incumbent)) => candidate.1.better_than(incumbent),
    };
    if better {
        *best = Some(candidate.clone());
    }
}

/// The multi-threaded mapper orchestration engine.
#[derive(Debug, Clone, Default)]
pub struct Mapper {
    config: MapperConfig,
}

impl Mapper {
    /// Create a mapper with the given configuration.
    pub fn new(config: MapperConfig) -> Self {
        Mapper { config }
    }

    /// The configuration.
    pub fn config(&self) -> &MapperConfig {
        &self.config
    }

    /// The number of logical shards a run over `space` will use (the
    /// configured count, clamped to the space's shard capacity when
    /// [`MapperConfig::shard_space`] is set).
    pub fn effective_shards(&self, space: &MapSpace) -> usize {
        let shards = self.config.shards.unwrap_or(self.config.threads).max(1);
        if self.config.shard_space {
            space.clamp_shard_count(shards)
        } else {
            shards
        }
    }

    /// Run the search: `factory(s)` builds the searcher for shard `s`
    /// (typically identical searchers, diverging through their derived RNG
    /// streams and — with [`MapperConfig::shard_space`] — their disjoint
    /// map-space slices), `evaluator` scores proposals.
    ///
    /// # Panics
    ///
    /// Panics if the termination policy is unbounded (no `search_size`,
    /// `victory_condition`, or `timeout`) — such a run would never end —
    /// or if `evaluator`'s `evaluate_batch` returns a different number of
    /// results than it was given mappings.
    pub fn run(
        &self,
        space: &MapSpace,
        evaluator: Arc<dyn CostEvaluator>,
        mut factory: impl FnMut(usize) -> Box<dyn ProposalSearch>,
    ) -> MapperReport {
        let config = &self.config;
        assert!(
            config.termination.is_bounded(),
            "unbounded termination policy: set search_size, victory_condition, or timeout"
        );
        let shards = self.effective_shards(space);
        let workers = config.threads.clamp(1, shards);

        // Per-shard views: disjoint slices of the space when sharding the
        // space itself, otherwise every shard searches the full space
        // (RNG-stream sharding only).
        let views = if config.shard_space {
            space.shard_views(shards)
        } else {
            Vec::new()
        };
        let view = |s: usize| views.get(s).map_or(space as &dyn MapSpaceView, |v| &**v);
        let stop = AtomicBool::new(false);
        // At the spans level the whole run is one span on the "mapper"
        // track (dropped before the snapshot so it lands in the report).
        let track = mm_telemetry::span_enabled().then(|| mm_telemetry::track("mapper"));
        let run_span = track.as_ref().and_then(|t| t.span("mapper.run"));
        let start = Instant::now();

        let mut live: Vec<ShardRun> = (0..shards)
            .map(|s| ShardRun::start(s, shards, config, view(s), factory(s)))
            .collect();
        // With no policy to consult there is nothing to rendezvous for: one
        // round of each shard's whole share.
        let round_len = if config.sync.is_enabled() && config.sync_interval > 0 {
            config.sync_interval
        } else {
            u64::MAX
        };

        let mut reports: Vec<Option<ShardReport>> = (0..shards).map(|_| None).collect();
        loop {
            let round = run_round(config, live, workers, &evaluator, round_len, &stop, start);
            // A shard retires when it stopped for any reason other than
            // exhausting its round grant, or when its share is gone.
            let halted = stop.load(Ordering::Relaxed);
            live = Vec::new();
            for run in round {
                if halted || run.stop_reason != StopReason::SearchSize || run.remaining == 0 {
                    let shard = run.shard;
                    reports[shard] = Some(run.finish());
                } else {
                    live.push(run);
                }
            }
            if live.is_empty() {
                break;
            }

            // Rendezvous: merge every shard's best in shard order and let
            // each still-live shard apply the policy to the incumbent.
            let _round_span = track.as_ref().and_then(|t| t.span("mapper.sync_round"));
            let mut bests: Vec<Option<&(Mapping, Evaluation)>> =
                reports.iter().map(|r| r.as_ref()?.best.as_ref()).collect();
            for run in &live {
                bests[run.shard] = run.best.as_ref();
            }
            let mut incumbent = None;
            for best in bests.into_iter().flatten() {
                keep_better(&mut incumbent, best);
            }
            for run in &mut live {
                run.sync_point(config, incumbent.as_ref());
            }
            static ROUNDS: std::sync::OnceLock<Arc<mm_telemetry::Counter>> =
                std::sync::OnceLock::new();
            ROUNDS
                .get_or_init(|| mm_telemetry::counter("mapper.sync_rounds"))
                .bump(1);
            mm_telemetry::event("mapper.sync_round", || {
                format!(
                    "live={} incumbent={:?}",
                    live.len(),
                    incumbent.as_ref().map(|(_, e)| e.primary())
                )
            });
        }
        let reports: Vec<ShardReport> = reports.into_iter().flatten().collect();
        drop(run_span);

        let wall_time_s = start.elapsed().as_secs_f64();
        let total_evaluations: u64 = reports.iter().map(|r| r.evaluations).sum();
        let mut best = None;
        for shard_best in reports.iter().filter_map(|r| r.best.as_ref()) {
            keep_better(&mut best, shard_best);
        }
        let (best_mapping, best_metrics) = best.unzip();
        // Merge the per-shard convergence curves (shard order, canonical
        // round-robin interleave) when every shard recorded one.
        let convergence = reports
            .iter()
            .map(|r| r.convergence.clone())
            .collect::<Option<Vec<ConvergenceTrace>>>()
            .filter(|t| !t.is_empty())
            .map(|t| merge_shard_convergence(&t));
        MapperReport {
            best_mapping,
            best_metrics,
            total_evaluations,
            wall_time_s,
            evals_per_sec: if wall_time_s > 0.0 {
                total_evaluations as f64 / wall_time_s
            } else {
                0.0
            },
            sync: config.sync,
            shards: reports,
            convergence,
            telemetry: mm_telemetry::snapshot_if_enabled(),
        }
    }
}

/// One shard's live search state, carried across rounds so every round
/// resumes the same searcher, RNG stream, trace, and victory counter exactly
/// where the previous one stopped.
struct ShardRun<'a> {
    shard: usize,
    space: &'a dyn MapSpaceView,
    searcher: Box<dyn ProposalSearch>,
    rng: StdRng,
    trace: Option<SearchTrace>,
    /// Improvement-only convergence recorder (traces requested or
    /// telemetry on); a u64 bump plus one comparison per evaluation.
    convergence: Option<ConvergenceTrace>,
    /// This shard's span track (`mapper.shard{N}`), interned only at the
    /// spans level. Only this shard's driving thread touches it, so its
    /// span sequence is deterministic.
    track: Option<Arc<mm_telemetry::Track>>,
    best: Option<(Mapping, Evaluation)>,
    evaluations: u64,
    since_improvement: u64,
    stop_reason: StopReason,
    /// Unspent part of this shard's `search_size` share (`u64::MAX` when
    /// the run is not bounded by a search size).
    remaining: u64,
    /// The shard's whole share, for the annealed policy's progress.
    horizon: Option<u64>,
}

impl<'a> ShardRun<'a> {
    /// Seed the shard's RNG stream and begin its searcher.
    fn start(
        shard: usize,
        shards: usize,
        config: &MapperConfig,
        space: &'a dyn MapSpaceView,
        mut searcher: Box<dyn ProposalSearch>,
    ) -> Self {
        // The exact share doubles as the horizon schedule-based searchers
        // (SA cooling, GA generations) size themselves with.
        let horizon = config.termination.per_shard_search_size(shard, shards);
        let mut rng = StdRng::seed_from_u64(derive_stream_seed(config.seed, shard));
        searcher.begin(space, horizon, &mut rng);
        let trace = config
            .record_traces
            .then(|| SearchTrace::new(searcher.name()));
        let convergence =
            (config.record_traces || mm_telemetry::enabled()).then(ConvergenceTrace::new);
        let track = mm_telemetry::span_enabled()
            .then(|| mm_telemetry::track(&format!("mapper.shard{shard}")));
        ShardRun {
            shard,
            space,
            searcher,
            rng,
            trace,
            convergence,
            track,
            best: None,
            evaluations: 0,
            since_improvement: 0,
            stop_reason: StopReason::SearchSize,
            remaining: horizon.unwrap_or(u64::MAX),
            horizon,
        }
    }

    /// One sync point: consult the policy and — when it acts — hand the
    /// incumbent to the searcher. Consumes only shard-local state (plus the
    /// incumbent itself), so deterministic incumbents give deterministic
    /// behaviour.
    fn sync_point(&mut self, config: &MapperConfig, incumbent: Option<&(Mapping, Evaluation)>) {
        let Some((mapping, eval)) = incumbent else {
            return;
        };
        let _span = self.track.as_ref().and_then(|t| t.span("shard.sync"));
        let progress = match self.horizon {
            Some(0) | None => 0.0,
            Some(h) => self.evaluations as f64 / h as f64,
        };
        let Some(action) = config.sync.decide(progress, &mut self.rng) else {
            return;
        };
        // Adopting your own (or a worse) incumbent is a no-op by intent:
        // Adopt means "re-anchor on a strictly better peer".
        let strictly_better = match self.best.as_ref() {
            None => true,
            Some((_, own_eval)) => eval.better_than(own_eval),
        };
        if strictly_better {
            self.searcher.observe_global_best(
                self.space,
                mapping,
                eval.primary(),
                action,
                &mut self.rng,
            );
        }
    }

    /// Drive the shard for one round of at most `round_len` evaluations (or
    /// until a stop criterion fires): propose → evaluate inline → report.
    fn drive(
        &mut self,
        config: &MapperConfig,
        evaluator: &Arc<dyn CostEvaluator>,
        round_len: u64,
        stop: &AtomicBool,
        start: Instant,
    ) {
        let policy = &config.termination;
        // One span per drive call: the shard occupying a worker.
        let _drive_span = self.track.as_ref().and_then(|t| t.span("shard.drive"));
        let mut buf = ProposalBuf::new();
        let grant = self.remaining.min(round_len);
        let mut granted = grant;

        self.stop_reason = 'search: loop {
            if stop.load(Ordering::Relaxed) {
                break StopReason::GlobalStop;
            }
            if let Some(timeout) = policy.timeout {
                if start.elapsed() >= timeout {
                    stop.store(true, Ordering::Relaxed);
                    break StopReason::Timeout;
                }
            }
            if granted == 0 {
                break StopReason::SearchSize;
            }

            let max = (config.batch_size.max(1) as u64)
                .min(granted)
                .min(self.searcher.lookahead() as u64) as usize;
            buf.clear();
            {
                let _span = self.track.as_ref().and_then(|t| t.span("searcher.propose"));
                self.searcher
                    .propose(self.space, &mut self.rng, max.max(1), &mut buf);
            }
            if buf.is_empty() {
                break StopReason::Exhausted;
            }

            let _eval_span = self
                .track
                .as_ref()
                .and_then(|t| t.span_n("cost.evaluate", buf.len() as u64));
            // Whole-batch evaluation (bit-identical to per-mapping calls)
            // amortizes the evaluator's batched fast path; reports still
            // flow back per mapping, in proposal order.
            let evals = evaluator.evaluate_batch(&buf);
            // A short batch would silently drop proposals the searcher is
            // waiting to hear about (the pool workers reject it too).
            assert!(
                evals.len() == buf.len(),
                "{}",
                short_batch_message(evals.len(), buf.len())
            );
            for (mapping, eval) in buf.iter().zip(evals) {
                self.evaluations += 1;
                granted = granted.saturating_sub(1);
                if let Some(trace) = self.trace.as_mut() {
                    trace.record(eval.primary(), mapping, start.elapsed());
                }
                if let Some(convergence) = self.convergence.as_mut() {
                    convergence.record(eval.primary());
                }
                let improved = match self.best.as_ref() {
                    None => true,
                    Some((_, incumbent)) => eval.better_than(incumbent),
                };
                if improved {
                    self.best = Some((mapping.clone(), eval.clone()));
                    self.since_improvement = 0;
                } else {
                    self.since_improvement += 1;
                }
                self.searcher.report(mapping, eval.primary(), &mut self.rng);

                if let Some(victory) = policy.victory_condition {
                    if self.since_improvement >= victory {
                        break 'search StopReason::Victory;
                    }
                }
            }
        };
        self.remaining -= grant - granted;
    }

    fn finish(self) -> ShardReport {
        ShardReport {
            shard: self.shard,
            evaluations: self.evaluations,
            best: self.best,
            stop: self.stop_reason,
            trace: self.trace,
            convergence: self.convergence,
        }
    }
}

/// Run one round of every queued shard on `workers` threads (each worker
/// pops the next shard, drives it through its round, and moves on). Returns
/// the runs in shard order.
fn run_round<'a>(
    config: &MapperConfig,
    runs: Vec<ShardRun<'a>>,
    workers: usize,
    evaluator: &Arc<dyn CostEvaluator>,
    round_len: u64,
    stop: &AtomicBool,
    start: Instant,
) -> Vec<ShardRun<'a>> {
    let shards = runs.len();
    let queue: Mutex<VecDeque<ShardRun<'a>>> = Mutex::new(runs.into());
    let done: Mutex<Vec<ShardRun<'a>>> = Mutex::new(Vec::with_capacity(shards));

    std::thread::scope(|scope| {
        let mut handles = Vec::new();
        for _ in 0..workers.min(shards).max(1) {
            let queue = &queue;
            let done = &done;
            let evaluator = Arc::clone(evaluator);
            handles.push(scope.spawn(move || loop {
                // Poisoned locks only mean a sibling worker panicked while
                // holding the queue; the data is a plain VecDeque/Vec and
                // stays valid, so recover instead of cascading the panic.
                let next = queue.lock().unwrap_or_else(|e| e.into_inner()).pop_front();
                let Some(mut run) = next else {
                    break;
                };
                run.drive(config, &evaluator, round_len, stop, start);
                done.lock().unwrap_or_else(|e| e.into_inner()).push(run);
            }));
        }
        for handle in handles {
            // Re-raise a worker's panic on the driving thread with its own
            // message.
            if let Err(payload) = handle.join() {
                std::panic::resume_unwind(payload);
            }
        }
    });

    let mut runs = done.into_inner().unwrap_or_else(|e| e.into_inner());
    runs.sort_by_key(|r| r.shard);
    runs
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::eval::ModelEvaluator;
    use mm_accel::{Architecture, CostModel};
    use mm_mapspace::ProblemSpec;
    use mm_search::{RandomSearch, SimulatedAnnealing};
    use std::time::Duration;

    fn setup() -> (MapSpace, Arc<dyn CostEvaluator>) {
        let arch = Architecture::example();
        let problem = ProblemSpec::conv1d(512, 7);
        let space = MapSpace::new(problem.clone(), arch.mapping_constraints());
        let model = CostModel::new(arch, problem);
        (space, Arc::new(ModelEvaluator::edp(model)))
    }

    #[test]
    fn search_size_is_split_and_respected() {
        let (space, evaluator) = setup();
        let mapper = Mapper::new(MapperConfig {
            threads: 3,
            termination: TerminationPolicy::search_size(90),
            ..MapperConfig::default()
        });
        let report = mapper.run(&space, evaluator, |_| Box::new(RandomSearch::new()));
        assert_eq!(report.total_evaluations, 90);
        for t in &report.shards {
            assert_eq!(t.evaluations, 30);
            assert_eq!(t.stop, StopReason::SearchSize);
        }
        assert!(report.best_mapping.is_some());
        assert!(space.is_member(report.best_mapping.as_ref().unwrap()));
        assert!(report.best_cost().is_finite());
        assert!(report.evals_per_sec > 0.0);
    }

    #[test]
    fn shards_decouple_from_threads() {
        let (space, evaluator) = setup();
        let mapper = Mapper::new(MapperConfig {
            threads: 2,
            shards: Some(5),
            termination: TerminationPolicy::search_size(52),
            ..MapperConfig::default()
        });
        let report = mapper.run(&space, evaluator, |_| Box::new(RandomSearch::new()));
        assert_eq!(report.shards.len(), 5);
        assert_eq!(report.total_evaluations, 52);
        let evals: Vec<u64> = report.shards.iter().map(|s| s.evaluations).collect();
        assert_eq!(evals, vec![11, 11, 10, 10, 10], "exact split");
    }

    #[test]
    fn deterministic_schedule_is_byte_identical_across_worker_counts() {
        let (space, evaluator) = setup();
        let run = |threads: usize, shard_space: bool| {
            Mapper::new(MapperConfig {
                threads,
                shards: Some(4),
                shard_space,
                seed: 7,
                termination: TerminationPolicy::search_size(240),
                ..MapperConfig::default()
            })
            .run(&space, Arc::clone(&evaluator), |_| {
                Box::new(SimulatedAnnealing::default())
            })
        };
        for shard_space in [false, true] {
            let canon1 = run(1, shard_space).canonical_string();
            let canon2 = run(2, shard_space).canonical_string();
            let canon4 = run(4, shard_space).canonical_string();
            assert_eq!(canon1, canon2, "shard_space={shard_space}");
            assert_eq!(canon1, canon4, "shard_space={shard_space}");
        }
    }

    #[test]
    fn sharded_space_results_stay_in_their_shards() {
        let (space, evaluator) = setup();
        let mapper = Mapper::new(MapperConfig {
            threads: 2,
            shards: Some(4),
            shard_space: true,
            termination: TerminationPolicy::search_size(200),
            ..MapperConfig::default()
        });
        let report = mapper.run(&space, Arc::clone(&evaluator), |_| {
            Box::new(RandomSearch::new())
        });
        assert_eq!(report.total_evaluations, 200);
        for (s, r) in report.shards.iter().enumerate() {
            let shard = space.shard(s, 4);
            let (m, _) = r.best.as_ref().expect("shard found something");
            assert!(
                MapSpaceView::is_member(&shard, m),
                "shard {s} best must belong to shard {s}"
            );
            for (other, _) in report.shards.iter().enumerate().filter(|&(o, _)| o != s) {
                assert!(
                    !MapSpaceView::is_member(&space.shard(other, 4), m),
                    "shard {s} best must not belong to shard {other}"
                );
            }
        }
    }

    /// A proposal-limited searcher: exhausts after `limit` proposals.
    struct LimitedRandom {
        inner: RandomSearch,
        limit: u64,
        proposed: u64,
    }

    impl ProposalSearch for LimitedRandom {
        fn name(&self) -> &str {
            "LimitedRandom"
        }
        fn begin(&mut self, space: &dyn MapSpaceView, horizon: Option<u64>, rng: &mut StdRng) {
            self.inner.begin(space, horizon, rng);
        }
        fn propose(
            &mut self,
            space: &dyn MapSpaceView,
            rng: &mut StdRng,
            max: usize,
            out: &mut ProposalBuf,
        ) {
            let room = self.limit.saturating_sub(self.proposed).min(max as u64) as usize;
            if room == 0 {
                return; // exhausted: propose nothing even when asked
            }
            self.inner.propose(space, rng, room, out);
            self.proposed += out.len() as u64;
        }
        fn report(&mut self, mapping: &Mapping, cost: f64, rng: &mut StdRng) {
            self.inner.report(mapping, cost, rng);
        }
    }

    #[test]
    fn an_exhausted_shard_stops_and_the_others_keep_their_share() {
        let (space, evaluator) = setup();
        const TOTAL: u64 = 200;
        const LIMIT: u64 = 20; // shard 0 exhausts at 20 of its 100 share
        let report = Mapper::new(MapperConfig {
            threads: 2,
            shards: Some(2),
            seed: 11,
            termination: TerminationPolicy::search_size(TOTAL),
            ..MapperConfig::default()
        })
        .run(&space, evaluator, |s| {
            if s == 0 {
                Box::new(LimitedRandom {
                    inner: RandomSearch::new(),
                    limit: LIMIT,
                    proposed: 0,
                })
            } else {
                Box::new(RandomSearch::new())
            }
        });
        assert_eq!(report.shards[0].evaluations, LIMIT);
        assert_eq!(report.shards[0].stop, StopReason::Exhausted);
        assert_eq!(report.shards[1].stop, StopReason::SearchSize);
        assert_eq!(report.total_evaluations, LIMIT + TOTAL / 2);
    }

    /// An evaluator whose `evaluate_batch` override breaks the
    /// one-result-per-mapping contract.
    struct ShortBatch;

    impl CostEvaluator for ShortBatch {
        fn evaluate(&self, _mapping: &Mapping) -> Evaluation {
            Evaluation::scalar(1.0)
        }
        fn evaluate_batch(&self, mappings: &[Mapping]) -> Vec<Evaluation> {
            mappings.iter().skip(1).map(|m| self.evaluate(m)).collect()
        }
    }

    #[test]
    #[should_panic(expected = "evaluate_batch returned 0 results for 1 mappings")]
    fn a_short_evaluate_batch_fails_loudly_instead_of_dropping_proposals() {
        let (space, _) = setup();
        // SA proposes one mapping and waits for its report: with the result
        // dropped it would end as `Exhausted` after 0 evaluations.
        let _ = Mapper::new(MapperConfig {
            termination: TerminationPolicy::search_size(10),
            ..MapperConfig::default()
        })
        .run(&space, Arc::new(ShortBatch), |_| {
            Box::new(SimulatedAnnealing::default())
        });
    }

    #[test]
    fn synced_runs_spend_exact_budgets_and_stay_deterministic() {
        let (space, evaluator) = setup();
        let run = |threads: usize, sync: SyncPolicy| {
            Mapper::new(MapperConfig {
                threads,
                shards: Some(4),
                seed: 19,
                sync_interval: 16,
                sync,
                termination: TerminationPolicy::search_size(242),
                ..MapperConfig::default()
            })
            .run(&space, Arc::clone(&evaluator), |_| {
                Box::new(SimulatedAnnealing::default())
            })
        };
        let policies = [
            SyncPolicy::Anchor,
            SyncPolicy::Annealed {
                start: 0.9,
                end: 0.1,
            },
        ];
        let off = run(1, SyncPolicy::Off);
        assert_eq!(off.total_evaluations, 242);
        for sync in policies {
            let one = run(1, sync);
            assert_eq!(one.total_evaluations, 242, "{sync}: exact budget");
            assert_eq!(
                one.canonical_string(),
                run(3, sync).canonical_string(),
                "{sync}: worker count leaked into the report"
            );
            assert_ne!(
                one.canonical_string(),
                off.canonical_string(),
                "{sync}: policy must actually steer the search"
            );
        }
    }

    #[test]
    fn sync_policy_is_part_of_the_canonical_identity() {
        let (space, evaluator) = setup();
        let run = |sync: SyncPolicy| {
            Mapper::new(MapperConfig {
                sync,
                termination: TerminationPolicy::search_size(10),
                ..MapperConfig::default()
            })
            .run(&space, Arc::clone(&evaluator), |_| {
                Box::new(RandomSearch::new())
            })
        };
        // Single shard: identical evaluations either way, but the rendered
        // identity must still differ so downstream fingerprints (serve
        // cache, bench baselines) never conflate the configurations.
        let off = run(SyncPolicy::Off);
        let anchored = run(SyncPolicy::Anchor);
        assert!(off.canonical_string().starts_with("sync=off\n"));
        assert!(anchored.canonical_string().starts_with("sync=anchor\n"));
    }

    /// The configuration that read a racy shared best until every run
    /// became rounds: no `search_size`, a policy on, space shards.
    #[test]
    fn unbounded_synced_runs_are_worker_count_independent() {
        let (space, evaluator) = setup();
        let run = |threads: usize| {
            Mapper::new(MapperConfig {
                threads,
                shards: Some(4),
                shard_space: true,
                seed: 13,
                sync_interval: 16,
                sync: SyncPolicy::Anchor,
                termination: TerminationPolicy::default().with_victory_condition(60),
                ..MapperConfig::default()
            })
            .run(&space, Arc::clone(&evaluator), |_| {
                Box::new(SimulatedAnnealing::default())
            })
        };
        let one = run(1);
        assert!(one.shards.iter().all(|s| s.stop == StopReason::Victory));
        assert!(
            one.shards.iter().any(|s| s.evaluations > 16),
            "the run must span several rounds"
        );
        assert_eq!(one.canonical_string(), run(2).canonical_string());
        assert_eq!(one.canonical_string(), run(4).canonical_string());
    }

    #[test]
    fn victory_condition_stops_stagnant_shards() {
        let (space, evaluator) = setup();
        let mapper = Mapper::new(MapperConfig {
            threads: 2,
            termination: TerminationPolicy::search_size(100_000).with_victory_condition(25),
            ..MapperConfig::default()
        });
        let report = mapper.run(&space, evaluator, |_| Box::new(RandomSearch::new()));
        assert!(report.total_evaluations < 100_000);
        for t in &report.shards {
            assert_eq!(t.stop, StopReason::Victory);
        }
    }

    #[test]
    fn timeout_stops_the_run() {
        let (space, evaluator) = setup();
        let mapper = Mapper::new(MapperConfig {
            threads: 2,
            termination: TerminationPolicy::default().with_timeout(Duration::from_millis(50)),
            ..MapperConfig::default()
        });
        let start = Instant::now();
        let report = mapper.run(&space, evaluator, |_| Box::new(RandomSearch::new()));
        assert!(start.elapsed() < Duration::from_secs(10));
        assert!(report.total_evaluations > 0);
        assert!(report
            .shards
            .iter()
            .all(|t| matches!(t.stop, StopReason::Timeout | StopReason::GlobalStop)));
    }

    #[test]
    #[should_panic(expected = "unbounded termination policy")]
    fn unbounded_policy_is_rejected() {
        let (space, evaluator) = setup();
        let mapper = Mapper::new(MapperConfig {
            termination: TerminationPolicy::default(),
            ..MapperConfig::default()
        });
        let _ = mapper.run(&space, evaluator, |_| Box::new(RandomSearch::new()));
    }

    #[test]
    fn traces_are_recorded_when_requested() {
        let (space, evaluator) = setup();
        let mapper = Mapper::new(MapperConfig {
            threads: 2,
            record_traces: true,
            termination: TerminationPolicy::search_size(40),
            ..MapperConfig::default()
        });
        let report = mapper.run(&space, evaluator, |_| {
            Box::new(SimulatedAnnealing::default())
        });
        for t in &report.shards {
            let trace = t.trace.as_ref().expect("trace recorded");
            assert_eq!(trace.len(), t.evaluations as usize);
            assert_eq!(trace.best_cost, t.best.as_ref().unwrap().1.primary());
            // The convergence recorder rides along and agrees with the
            // full trace collapsed to improvements.
            let convergence = t.convergence.as_ref().expect("convergence recorded");
            assert_eq!(convergence, &trace.convergence());
        }
        let merged = report.convergence.as_ref().expect("merged convergence");
        assert_eq!(merged.total_evals, report.total_evaluations);
        assert_eq!(merged.best_cost(), report.best_cost());
    }

    #[test]
    fn convergence_traces_are_worker_count_invariant() {
        let (space, evaluator) = setup();
        let run = |threads: usize| {
            Mapper::new(MapperConfig {
                threads,
                shards: Some(4),
                seed: 31,
                record_traces: true,
                sync: SyncPolicy::Anchor,
                sync_interval: 16,
                termination: TerminationPolicy::search_size(240),
                ..MapperConfig::default()
            })
            .run(&space, Arc::clone(&evaluator), |_| {
                Box::new(SimulatedAnnealing::default())
            })
        };
        let one = run(1);
        let four = run(4);
        assert_eq!(one.convergence, four.convergence);
        assert!(!one.convergence.as_ref().unwrap().is_empty());
        // Best-so-far is monotone non-increasing along the merged curve.
        let points = &one.convergence.as_ref().unwrap().points;
        for w in points.windows(2) {
            assert!(w[1].best_cost < w[0].best_cost);
            assert!(w[1].evals > w[0].evals);
        }
    }

    #[test]
    fn convergence_is_absent_when_untracked() {
        let (space, evaluator) = setup();
        let report = Mapper::new(MapperConfig {
            termination: TerminationPolicy::search_size(20),
            ..MapperConfig::default()
        })
        .run(&space, evaluator, |_| Box::new(RandomSearch::new()));
        if !mm_telemetry::enabled() {
            assert!(report.convergence.is_none());
            assert!(report.shards.iter().all(|s| s.convergence.is_none()));
        }
    }

    #[test]
    fn shard_seeds_are_distinct_and_stable() {
        let a: Vec<u64> = (0..8).map(|t| derive_stream_seed(42, t)).collect();
        let b: Vec<u64> = (0..8).map(|t| derive_stream_seed(42, t)).collect();
        assert_eq!(a, b);
        let mut dedup = a.clone();
        dedup.sort_unstable();
        dedup.dedup();
        assert_eq!(dedup.len(), 8, "distinct streams per shard");
        assert_ne!(derive_stream_seed(1, 0), derive_stream_seed(2, 0));
    }

    #[test]
    fn effective_shards_clamps_to_capacity() {
        let (space, _) = setup();
        let mapper = Mapper::new(MapperConfig {
            shards: Some(1_000_000_000),
            shard_space: true,
            ..MapperConfig::default()
        });
        let n = mapper.effective_shards(&space);
        assert!(n as u128 <= space.shard_capacity());
        let unclamped = Mapper::new(MapperConfig {
            shards: Some(64),
            shard_space: false,
            ..MapperConfig::default()
        });
        assert_eq!(unclamped.effective_shards(&space), 64);
    }
}
