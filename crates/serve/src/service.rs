//! [`MappingService`]: the multi-tenant whole-network mapping front-end.
//!
//! One service owns one long-lived [`EvalPool`] and serves many concurrent
//! requests over it: [`submit`](MappingService::submit) admits a
//! [`Network`] + [`RequestConfig`] through a bounded queue (typed
//! [`AdmissionError`] when full or over a tenant budget) and returns a
//! [`RequestHandle`]; the per-layer search jobs of every in-flight request
//! are interleaved over the **one** shared pool by a deterministic
//! weighted fair-share scheduler; [`wait`](MappingService::wait) collects
//! the per-request [`NetworkReport`].
//!
//! # Determinism under concurrency
//!
//! A request's report is a pure function of `(network, RequestConfig,
//! service identity, persistent-cache state at admission)`:
//! [`NetworkReport::canonical_string`] is byte-identical regardless of how
//! many sibling requests are in flight, how submissions interleave, and
//! how many pool workers run. Two mechanisms make that hold:
//!
//! * every layer search job derives its RNG stream from the layer
//!   fingerprint and the request seed — never from arrival order or pool
//!   timing — so a job's outcome depends only on its spec;
//! * concurrent requests that need the *same* fingerprint share one
//!   in-flight search unit, and every subscriber reports it as its own
//!   fresh search (`cache_hit=false`, full evaluations attributed): the
//!   shared outcome is byte-identical to what the request's own search
//!   would have produced, so sharing saves work without leaking sibling
//!   presence into any report. Only results *completed and cached before
//!   admission* report as cache hits — exactly the sequential semantics.
//!
//! # Failure isolation
//!
//! A panicking evaluator or searcher fails only the requests attached to
//! the panicking search unit ([`RequestError::Failed`] from `wait`); pool
//! workers survive, sibling requests complete, and their reports are
//! byte-identical to an undisturbed run.

use std::collections::{BTreeMap, HashMap};
use std::sync::Arc;
use std::time::Instant;

use mm_accel::{Architecture, CostModel};
use mm_mapper::{
    derive_stream_seed, keep_better, split_evenly, CostEvaluator, EvalPool, ModelEvaluator,
    OptMetric,
};
use mm_mapspace::{MapSpace, ProblemSpec};
use mm_search::{ProposalSearch, RandomSearch};
use mm_workloads::Network;
use serde::{Deserialize, Serialize};

use crate::cache::{fingerprint_parts, fnv1a, hash_part, CachedLayer, ResultCache};
use crate::config::{RequestConfig, ServiceConfig, ServiceProfile};
use crate::report::{LayerReport, NetworkAggregate, NetworkReport};
use crate::request::{AdmissionError, RequestError, RequestHandle};
use crate::scheduler::{JobEnd, JobOutcome, JobSpec, Scheduler};

/// Builds the cost evaluator for one layer's problem.
pub type EvaluatorFactory = Box<dyn Fn(&Architecture, &ProblemSpec) -> Arc<dyn CostEvaluator>>;

/// Builds a fresh searcher instance for one layer job.
pub type SearchFactory = Box<dyn Fn() -> Box<dyn ProposalSearch>>;

/// Lifetime counters of a service.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct ServeStats {
    /// Fresh layer searches run (search units completed).
    pub searches_run: u64,
    /// Layers answered from cache (or deduplicated within a request).
    pub cache_hits: u64,
    /// Evaluations actually spent across all fresh searches.
    pub total_evaluations: u64,
    /// Requests admitted.
    pub requests_admitted: u64,
    /// Requests rejected at admission (queue full or tenant budget).
    pub requests_rejected: u64,
    /// Requests completed successfully.
    pub requests_completed: u64,
    /// Requests failed by a panicking evaluator/searcher.
    pub requests_failed: u64,
    /// In-flight search units shared with a concurrent request instead of
    /// re-run (cross-request incumbent sharing).
    pub shared_searches: u64,
}

fn tele_admission(kind: usize) -> &'static Arc<mm_telemetry::Counter> {
    use std::sync::OnceLock;
    static CELLS: [OnceLock<Arc<mm_telemetry::Counter>>; 5] = [const { OnceLock::new() }; 5];
    const NAMES: [&str; 5] = [
        "serve.admission.accepted",
        "serve.admission.rejected_queue_full",
        "serve.admission.rejected_tenant_budget",
        "serve.requests.completed",
        "serve.requests.failed",
    ];
    CELLS[kind].get_or_init(|| mm_telemetry::counter(NAMES[kind]))
}

fn tele_shared_units() -> &'static Arc<mm_telemetry::Counter> {
    use std::sync::OnceLock;
    static C: OnceLock<Arc<mm_telemetry::Counter>> = OnceLock::new();
    C.get_or_init(|| mm_telemetry::counter("serve.scheduler.shared_units"))
}

/// How one layer of a request is satisfied.
enum Plan {
    /// Replay this cached result (captured at plan time, so a bounded
    /// cache evicting the entry mid-request cannot strand the layer).
    Hit(Arc<CachedLayer>),
    /// The in-flight search unit with this id produces the result.
    Unit(u64),
}

/// One in-flight search unit: the shard jobs of one distinct fingerprint,
/// shared by every request that planned against it while it ran.
struct UnitState {
    fingerprint: u64,
    /// Scheduler job ids, in shard order (merge order).
    job_ids: Vec<u64>,
    outcomes: Vec<Option<JobOutcome>>,
    remaining: usize,
    /// Requests reporting this unit (creator first).
    subscribers: Vec<u64>,
    /// Insert the merged result into the persistent cache (the creator ran
    /// with `use_cache`).
    insert_on_completion: bool,
    sync: mm_search::SyncPolicy,
}

/// Everything the service tracks for one admitted request.
struct RequestState {
    network_name: String,
    /// Per layer: name, problem name, repeat.
    layers: Vec<(String, String, u64)>,
    plans: Vec<Plan>,
    /// Distinct unit ids, in first-reference order.
    units: Vec<u64>,
    /// Merged results, filled in as units complete.
    resolved: HashMap<u64, Arc<CachedLayer>>,
    /// Planned fresh evaluations (tenant-budget units, released on exit).
    planned_evals: u64,
    tenant: String,
    /// Units attached to a sibling's in-flight search.
    shared_units: u64,
    started_wall: Instant,
    /// Request-lifecycle span track (`serve.request{id}`), spans level only.
    track: Option<Arc<mm_telemetry::Track>>,
    /// `request.queue`: admission → first job activation.
    queue_span: Option<mm_telemetry::SpanGuard>,
    /// `request.run`: first job activation → completion.
    run_span: Option<mm_telemetry::SpanGuard>,
}

/// Distinct problems [`PrefixMemo`] holds before it is cleared. A cleared
/// memo costs one rendering per problem, as every layer cost without it.
const PREFIX_MEMO_CAPACITY: usize = 1_024;

/// Per distinct problem, the FNV-1a state of its fingerprint after the
/// problem's `{:?}` rendering, the part separator and the service identity
/// — every byte ahead of the request's search tag. One entry per problem,
/// whatever the seeds and tags it is requested under.
///
/// Buckets are keyed by name but matched on the whole spec: two problems
/// with one name and different sizes or tensors have different states.
/// The states hash one identity tag, so the memo is cleared whenever the
/// identity changes.
#[derive(Default)]
struct PrefixMemo {
    by_name: HashMap<String, Vec<(ProblemSpec, u64)>>,
    len: usize,
}

impl PrefixMemo {
    /// The state for `problem` under `identity_tag`, rendered and kept on
    /// the first request for it.
    fn get(&mut self, problem: &ProblemSpec, identity_tag: &str) -> u64 {
        let known = self
            .by_name
            .get(&problem.name)
            .and_then(|bucket| bucket.iter().find(|(spec, _)| spec == problem));
        if let Some(&(_, state)) = known {
            return state;
        }
        if self.len >= PREFIX_MEMO_CAPACITY {
            self.clear();
        }
        let rendered = fingerprint_parts(&[&format!("{problem:?}")]);
        let state = fnv1a(rendered, identity_tag.as_bytes());
        self.by_name
            .entry(problem.name.clone())
            .or_default()
            .push((problem.clone(), state));
        self.len += 1;
        state
    }

    fn clear(&mut self) {
        self.by_name.clear();
        self.len = 0;
    }
}

/// A long-lived, multi-tenant mapping service over one shared eval pool.
pub struct MappingService {
    arch: Architecture,
    service: ServiceConfig,
    default_request: RequestConfig,
    pool: EvalPool,
    cache: ResultCache,
    evaluator_factory: EvaluatorFactory,
    evaluator_tag: String,
    search_factory: SearchFactory,
    searcher_name: String,
    /// `{arch:?}|{searcher}|{evaluator}|`: the bytes of a fingerprint's
    /// second part ahead of the request's search tag (see
    /// [`fingerprint`](MappingService::fingerprint)).
    identity_tag: String,
    /// Per distinct problem, the fingerprint state up to and including
    /// `identity_tag`.
    prefixes: PrefixMemo,
    scheduler: Scheduler,
    stats: ServeStats,
    next_request_id: u64,
    next_unit_id: u64,
    /// Admitted, uncompleted requests.
    requests: HashMap<u64, RequestState>,
    /// In-flight search units by unit id.
    units: HashMap<u64, UnitState>,
    /// Scheduler job id → unit id, for routing job ends.
    job_to_unit: HashMap<u64, u64>,
    /// Fingerprint → in-flight unit id (cross-request sharing).
    inflight_by_fp: HashMap<u64, u64>,
    /// Outstanding planned evaluations per tenant (admission budgeting).
    tenant_outstanding: HashMap<String, u64>,
    /// Finished requests awaiting collection by `wait`, bounded to
    /// [`ServiceConfig::completed_capacity`] (oldest-admitted results are
    /// dropped past the bound, so abandoned handles cannot grow service
    /// state forever). A `BTreeMap` so eviction follows request-id order —
    /// deterministic — rather than completion timing.
    completed: BTreeMap<u64, Result<NetworkReport, RequestError>>,
}

impl MappingService {
    /// A service mapping onto `arch` with the reference cost model
    /// (optimizing `edp`, with `energy` and `delay` carried for the
    /// network aggregates) and random search per layer.
    ///
    /// `profile` accepts a [`ServiceConfig`] (default per-request config)
    /// or a `(ServiceConfig, RequestConfig)` pair.
    pub fn new(arch: Architecture, profile: impl Into<ServiceProfile>) -> Self {
        let factory: EvaluatorFactory = Box::new(|arch, problem| {
            Arc::new(ModelEvaluator::with_metrics(
                CostModel::new(arch.clone(), problem.clone()),
                vec![OptMetric::Edp, OptMetric::Energy, OptMetric::Delay],
            ))
        });
        Self::with_evaluator_factory(
            arch,
            profile,
            factory,
            "reference-model[edp,energy,delay]".to_string(),
        )
    }

    /// A service with a custom per-problem evaluator. `evaluator_tag` is a
    /// stable description of the evaluator configuration; it participates in
    /// result-cache fingerprints, so distinct evaluators must use distinct
    /// tags.
    pub fn with_evaluator_factory(
        arch: Architecture,
        profile: impl Into<ServiceProfile>,
        evaluator_factory: EvaluatorFactory,
        evaluator_tag: String,
    ) -> Self {
        let ServiceProfile {
            service,
            default_request,
        } = profile.into();
        let search_factory: SearchFactory = Box::new(|| Box::new(RandomSearch::new()));
        let searcher_name = search_factory().name().to_string();
        let identity_tag = Self::identity_tag(&arch, &searcher_name, &evaluator_tag);
        MappingService {
            pool: EvalPool::shared(service.workers.max(1)),
            cache: ResultCache::with_capacity(service.cache_capacity),
            scheduler: Scheduler::new(service.max_active_jobs),
            arch,
            service,
            default_request,
            evaluator_factory,
            evaluator_tag,
            search_factory,
            searcher_name,
            identity_tag,
            prefixes: PrefixMemo::default(),
            stats: ServeStats::default(),
            next_request_id: 0,
            next_unit_id: 0,
            requests: HashMap::new(),
            units: HashMap::new(),
            job_to_unit: HashMap::new(),
            inflight_by_fp: HashMap::new(),
            tenant_outstanding: HashMap::new(),
            completed: BTreeMap::new(),
        }
    }

    /// Replace the per-layer search method (builder style); call before
    /// submitting requests.
    ///
    /// Cached results are dropped: fingerprints identify searchers by name
    /// only (`"GA"`, `"SA"`, …), so results produced by a differently
    /// configured searcher of the same name must not be replayed.
    pub fn with_searcher(mut self, search_factory: SearchFactory) -> Self {
        debug_assert!(
            self.requests.is_empty(),
            "swap searchers on an idle service"
        );
        self.searcher_name = search_factory().name().to_string();
        self.search_factory = search_factory;
        self.identity_tag =
            Self::identity_tag(&self.arch, &self.searcher_name, &self.evaluator_tag);
        // The memoised prefixes hash the identity tag just replaced.
        self.prefixes.clear();
        self.cache = ResultCache::with_capacity(self.service.cache_capacity);
        self
    }

    /// Render the service identity: the bytes of a fingerprint's second
    /// part ahead of the request's [`search_tag`](RequestConfig), which
    /// follows with no separator, so identity and tag together are the
    /// legacy `config_tag` bytes. Rendered once per searcher; the service
    /// hashes it once per distinct problem.
    fn identity_tag(arch: &Architecture, searcher_name: &str, evaluator_tag: &str) -> String {
        format!("{arch:?}|{searcher_name}|{evaluator_tag}|")
    }

    /// The architecture served.
    pub fn arch(&self) -> &Architecture {
        &self.arch
    }

    /// The service-level configuration.
    pub fn service_config(&self) -> &ServiceConfig {
        &self.service
    }

    /// The per-request configuration used by [`map_network`] and
    /// [`map_problem`].
    ///
    /// [`map_network`]: MappingService::map_network
    /// [`map_problem`]: MappingService::map_problem
    pub fn default_request(&self) -> &RequestConfig {
        &self.default_request
    }

    /// Worker threads of the shared pool.
    pub fn pool_workers(&self) -> usize {
        self.pool.workers()
    }

    /// Lifetime counters.
    pub fn stats(&self) -> ServeStats {
        self.stats
    }

    /// Distinct results currently cached.
    pub fn cached_results(&self) -> usize {
        self.cache.len()
    }

    /// Requests admitted but not yet completed.
    pub fn in_flight_requests(&self) -> usize {
        self.requests.len()
    }

    /// Deterministic cache/replay key for a problem under this service's
    /// architecture, searcher, evaluator, and the request's search tag.
    ///
    /// The key is FNV-1a over these bytes, in this order: the problem's
    /// `{:?}` rendering, `0xFF`, `identity_tag`, `search_tag`, `0xFF` —
    /// that is, [`fingerprint_parts`](crate::fingerprint_parts) of the
    /// rendering and of identity and tag concatenated. The state after
    /// `identity_tag` depends on the problem and the service alone and
    /// comes from [`PrefixMemo`], so a request hashes only its tag and the
    /// closing byte per layer.
    ///
    /// **Byte-stable:** the key seeds every layer job's RNG stream, so any
    /// change to these bytes moves every serve result, golden fixture and
    /// bench quality baseline.
    fn fingerprint(&mut self, problem: &ProblemSpec, search_tag: &str) -> u64 {
        hash_part(self.prefixes.get(problem, &self.identity_tag), search_tag)
    }

    /// Admit `network` for mapping under `config`, returning a handle to
    /// [`wait`](MappingService::wait) on. Jobs start running as any handle
    /// is waited on (or [`drive`](MappingService::drive) is called);
    /// submission order only affects scheduling, never results.
    ///
    /// Admission is all-or-nothing: a rejected request changes no service
    /// state (no budget consumed, no statistics perturbed).
    pub fn submit(
        &mut self,
        network: &Network,
        config: RequestConfig,
    ) -> Result<RequestHandle, AdmissionError> {
        // Bounded queue: depth counts admitted-but-uncompleted requests.
        let queue_depth = self.service.queue_depth.max(1);
        if self.requests.len() >= queue_depth {
            self.stats.requests_rejected += 1;
            tele_admission(1).bump(1);
            mm_telemetry::event("serve.request.reject", || {
                format!("network={} reason=queue_full", network.name)
            });
            return Err(AdmissionError::QueueFull {
                backlog: self.requests.len(),
                queue_depth,
            });
        }

        // Plan without mutating state: per layer, a persistent-cache hit,
        // an attachment to an in-flight unit, or a fresh unit. `PlanStep`
        // indexes into `new_units` for fresh ones.
        enum PlanStep {
            Hit(Arc<CachedLayer>),
            Attach(u64),
            Fresh(usize),
        }
        let search_tag = config.search_tag();
        let mut steps: Vec<(u64, PlanStep)> = Vec::with_capacity(network.len());
        let mut new_units: Vec<(u64, ProblemSpec)> = Vec::new();
        let mut fresh_for_fp: HashMap<u64, usize> = HashMap::new();
        for layer in &network.layers {
            let fp = self.fingerprint(&layer.problem, &search_tag);
            let step = if config.use_cache {
                if let Some(cached) = self.cache.get(fp) {
                    PlanStep::Hit(cached)
                } else if let Some(&unit) = self.inflight_by_fp.get(&fp) {
                    PlanStep::Attach(unit)
                } else if let Some(&idx) = fresh_for_fp.get(&fp) {
                    PlanStep::Fresh(idx)
                } else {
                    let idx = new_units.len();
                    new_units.push((fp, layer.problem.clone()));
                    fresh_for_fp.insert(fp, idx);
                    PlanStep::Fresh(idx)
                }
            } else {
                // Cache off: every occurrence searches independently —
                // identical searches, so results match the cached path;
                // only provenance and evaluation spend differ.
                let idx = new_units.len();
                new_units.push((fp, layer.problem.clone()));
                PlanStep::Fresh(idx)
            };
            steps.push((fp, step));
        }

        // Tenant budget: planned fresh evaluations of this request against
        // the tenant's outstanding total.
        let planned_evals = new_units.len() as u64 * config.search_size;
        if let Some(budget) = self.service.tenant_budget {
            let outstanding = self
                .tenant_outstanding
                .get(&config.tenant)
                .copied()
                .unwrap_or(0);
            if outstanding + planned_evals > budget {
                self.stats.requests_rejected += 1;
                tele_admission(2).bump(1);
                mm_telemetry::event("serve.request.reject", || {
                    format!(
                        "network={} tenant={} reason=tenant_budget",
                        network.name, config.tenant
                    )
                });
                return Err(AdmissionError::TenantBudgetExhausted {
                    tenant: config.tenant.clone(),
                    outstanding,
                    requested: planned_evals,
                    budget,
                });
            }
        }

        // Admitted: assign the id, open the lifecycle track, record the
        // planned cache lookups (in layer order, as the sequential path
        // did), and materialize units.
        let id = self.next_request_id;
        self.next_request_id += 1;
        self.stats.requests_admitted += 1;
        tele_admission(0).bump(1);
        let track = mm_telemetry::span_enabled()
            .then(|| mm_telemetry::track(&format!("serve.request{id}")));
        let admit_span = track.as_ref().and_then(|t| t.span("request.admit"));
        mm_telemetry::event("serve.request.submit", || {
            format!(
                "request={id} network={} layers={} fresh={} tenant={}",
                network.name,
                network.len(),
                new_units.len(),
                config.tenant
            )
        });

        // Lookups happened only if the request consulted the cache: with
        // `use_cache` off every layer plans Fresh without a probe, so
        // recording per-layer misses would overcount lookups that never ran.
        if config.use_cache {
            for (fp, step) in &steps {
                self.cache
                    .note_lookup(*fp, matches!(step, PlanStep::Hit(_)));
            }
        }

        // A fully cached request needs no scheduling: its layer reports are
        // built now, straight from the plan.
        let replayed: Option<Vec<LayerReport>> = if new_units.is_empty() {
            network
                .layers
                .iter()
                .zip(&steps)
                .map(|(layer, (_, step))| match step {
                    PlanStep::Hit(cached) => Some(LayerReport::from_cached(
                        &layer.name,
                        &layer.problem.name,
                        layer.repeat,
                        true,
                        cached,
                    )),
                    PlanStep::Attach(_) | PlanStep::Fresh(_) => None,
                })
                .collect()
        } else {
            None
        };

        let weight = u64::from(config.priority.max(1));
        let mut fresh_unit_ids: Vec<u64> = Vec::with_capacity(new_units.len());
        for (fp, problem) in &new_units {
            let unit_id = self.next_unit_id;
            self.next_unit_id += 1;
            let specs = self.shard_job_specs(id, weight, *fp, problem, &config);
            let job_ids: Vec<u64> = specs
                .into_iter()
                .map(|spec| {
                    let job_id = self.scheduler.enqueue(spec);
                    self.job_to_unit.insert(job_id, unit_id);
                    job_id
                })
                .collect();
            let remaining = job_ids.len();
            self.units.insert(
                unit_id,
                UnitState {
                    fingerprint: *fp,
                    outcomes: vec![None; remaining],
                    job_ids,
                    remaining,
                    subscribers: vec![id],
                    insert_on_completion: config.use_cache,
                    sync: config.sync,
                },
            );
            if config.use_cache {
                self.inflight_by_fp.insert(*fp, unit_id);
            }
            fresh_unit_ids.push(unit_id);
        }

        // Final plans and the request's distinct-unit order.
        let mut plans: Vec<Plan> = Vec::with_capacity(steps.len());
        let mut unit_order: Vec<u64> = Vec::new();
        let mut shared_units = 0u64;
        for (_, step) in steps {
            let plan = match step {
                PlanStep::Hit(cached) => Plan::Hit(cached),
                PlanStep::Attach(unit) => {
                    if !unit_order.contains(&unit) {
                        unit_order.push(unit);
                        shared_units += 1;
                        self.units
                            .get_mut(&unit)
                            .map(|u| u.subscribers.push(id))
                            .unwrap_or_default();
                    }
                    Plan::Unit(unit)
                }
                PlanStep::Fresh(idx) => {
                    let unit = fresh_unit_ids[idx];
                    if !unit_order.contains(&unit) {
                        unit_order.push(unit);
                    }
                    Plan::Unit(unit)
                }
            };
            plans.push(plan);
        }
        self.stats.shared_searches += shared_units;
        if shared_units > 0 {
            tele_shared_units().bump(shared_units);
        }
        if planned_evals > 0 {
            *self
                .tenant_outstanding
                .entry(config.tenant.clone())
                .or_insert(0) += planned_evals;
        }

        drop(admit_span);
        let queue_span = track.as_ref().and_then(|t| t.span("request.queue"));
        let state = RequestState {
            network_name: network.name.clone(),
            // Only a request that waits for units needs its layer names later.
            layers: match replayed {
                Some(_) => Vec::new(),
                None => network
                    .layers
                    .iter()
                    .map(|l| (l.name.clone(), l.problem.name.clone(), l.repeat))
                    .collect(),
            },
            plans,
            units: unit_order,
            resolved: HashMap::new(),
            planned_evals,
            tenant: config.tenant,
            shared_units,
            started_wall: Instant::now(),
            track,
            queue_span,
            run_span: None,
        };
        match replayed {
            Some(layers) => self.finish_request(id, state, layers),
            None => {
                self.requests.insert(id, state);
            }
        }
        Ok(RequestHandle { id })
    }

    /// Block until `handle`'s request completes, driving the scheduler, and
    /// return its report (or the failure that ended it).
    ///
    /// Results are retained for uncollected handles only up to
    /// [`ServiceConfig::completed_capacity`]; past that, the
    /// oldest-admitted uncollected result is dropped and waiting on its
    /// handle returns [`RequestError::Unknown`].
    pub fn wait(&mut self, handle: RequestHandle) -> Result<NetworkReport, RequestError> {
        loop {
            if let Some(result) = self.completed.remove(&handle.id) {
                return result;
            }
            if !self.requests.contains_key(&handle.id) {
                return Err(RequestError::Unknown { request: handle.id });
            }
            if self.scheduler.idle() {
                debug_assert!(
                    false,
                    "request {} in flight with an idle scheduler",
                    handle.id
                );
                return Err(RequestError::Unknown { request: handle.id });
            }
            self.pump();
        }
    }

    /// Drive every in-flight request to completion (without collecting any
    /// report — `wait` each handle afterwards).
    pub fn drive(&mut self) {
        while !self.scheduler.idle() {
            self.pump();
        }
    }

    /// One scheduler step plus request bookkeeping.
    fn pump(&mut self) {
        let events = self.scheduler.step(&mut self.pool);
        for request in events.started {
            if let Some(state) = self.requests.get_mut(&request) {
                // queue → run transition of the request lifecycle.
                drop(state.queue_span.take());
                state.run_span = state.track.as_ref().and_then(|t| t.span("request.run"));
            }
        }
        for (job, end) in events.finished {
            self.on_job_end(job, end);
        }
    }

    /// Route one retired job to its unit, completing or failing dependents.
    fn on_job_end(&mut self, job: u64, end: JobEnd) {
        let Some(&unit_id) = self.job_to_unit.get(&job) else {
            // A drained job of an already-failed/cancelled unit.
            return;
        };
        match end {
            JobEnd::Done(outcome) => {
                let Some(unit) = self.units.get_mut(&unit_id) else {
                    return;
                };
                let Some(pos) = unit.job_ids.iter().position(|&j| j == job) else {
                    return;
                };
                if unit.outcomes[pos].replace(outcome).is_none() {
                    unit.remaining -= 1;
                }
                if unit.remaining == 0 {
                    self.finalize_unit(unit_id);
                }
            }
            JobEnd::Failed(message) => self.fail_unit(unit_id, message),
            JobEnd::Cancelled => {
                self.job_to_unit.remove(&job);
            }
        }
    }

    /// Merge a completed unit's shard outcomes (in shard order,
    /// strictly-better-wins, budgets summed), publish to cache and
    /// subscribers, and finalize any request this completes.
    fn finalize_unit(&mut self, unit_id: u64) {
        let Some(unit) = self.units.remove(&unit_id) else {
            return;
        };
        for job in &unit.job_ids {
            self.job_to_unit.remove(job);
        }
        if self.inflight_by_fp.get(&unit.fingerprint) == Some(&unit_id) {
            self.inflight_by_fp.remove(&unit.fingerprint);
        }
        let group: Vec<JobOutcome> = unit
            .outcomes
            .into_iter()
            .map(|o| {
                // mm-lint: allow(panic): finalize_unit runs only at
                // remaining == 0; a hole is a service bug that must fail
                // loudly rather than ship a shortened merge.
                o.expect("every shard outcome present at finalize")
            })
            .collect();
        let mut best = None;
        for shard_best in group.iter().filter_map(|o| o.best.as_ref()) {
            keep_better(&mut best, shard_best);
        }
        let (best_mapping, best_metrics) = best.unzip();
        let first = &group[0];
        // Shard convergence curves merge in shard order (round-robin global
        // eval indexing), mirroring the mapper's report.
        let convergence = group
            .iter()
            .map(|o| o.convergence.clone())
            .collect::<Option<Vec<_>>>()
            .filter(|t| !t.is_empty())
            .map(|t| mm_search::merge_shard_convergence(&t));
        let merged = Arc::new(CachedLayer {
            best_mapping,
            best_metrics,
            metric_names: first.metric_names.clone(),
            evaluations: group.iter().map(|o| o.evaluations).sum(),
            searcher: first.searcher.clone(),
            sync: unit.sync,
            wall_time_s: group.iter().map(|o| o.wall_time_s).fold(0.0, f64::max),
            exhausted: group.iter().any(|o| o.exhausted),
            convergence,
        });
        self.stats.searches_run += 1;
        self.stats.total_evaluations += merged.evaluations;
        if unit.insert_on_completion {
            // The unit id is the admission sequence: bounded-cache eviction
            // follows it, so residency never depends on which of several
            // concurrent units happened to complete first.
            self.cache
                .insert(unit.fingerprint, Arc::clone(&merged), unit_id);
        }
        for subscriber in unit.subscribers {
            let complete = match self.requests.get_mut(&subscriber) {
                Some(state) => {
                    state.resolved.insert(unit_id, Arc::clone(&merged));
                    state.resolved.len() == state.units.len()
                }
                None => false,
            };
            if complete {
                self.finalize_request(subscriber);
            }
        }
    }

    /// A job of `unit_id` panicked: fail every subscriber request and tear
    /// the unit (and any now-subscriber-less units) down.
    fn fail_unit(&mut self, unit_id: u64, message: String) {
        let subscribers = self
            .units
            .get(&unit_id)
            .map(|u| u.subscribers.clone())
            .unwrap_or_default();
        for request in subscribers {
            self.fail_request(request, message.clone());
        }
        // All subscribers failed, so the detach pass in fail_request has
        // already cancelled and removed the unit itself.
        debug_assert!(!self.units.contains_key(&unit_id));
    }

    /// Fail one request: surface the error on its handle, release its
    /// budget, and cancel any search unit no healthy request still needs.
    fn fail_request(&mut self, request: u64, message: String) {
        let Some(mut state) = self.requests.remove(&request) else {
            return;
        };
        self.stats.requests_failed += 1;
        tele_admission(4).bump(1);
        mm_telemetry::event("serve.request.fail", || {
            format!("request={request} network={}", state.network_name)
        });
        drop(state.queue_span.take());
        drop(state.run_span.take());
        if let Some(outstanding) = self.tenant_outstanding.get_mut(&state.tenant) {
            *outstanding = outstanding.saturating_sub(state.planned_evals);
            if *outstanding == 0 {
                self.tenant_outstanding.remove(&state.tenant);
            }
        }
        for unit_id in &state.units {
            let Some(unit) = self.units.get_mut(unit_id) else {
                continue;
            };
            unit.subscribers.retain(|&r| r != request);
            if !unit.subscribers.is_empty() {
                continue;
            }
            // Nobody is waiting on this search any more: tear it down.
            if let Some(unit) = self.units.remove(unit_id) {
                self.scheduler.cancel_jobs(&unit.job_ids);
                for job in &unit.job_ids {
                    self.job_to_unit.remove(job);
                }
                if self.inflight_by_fp.get(&unit.fingerprint) == Some(unit_id) {
                    self.inflight_by_fp.remove(&unit.fingerprint);
                }
            }
        }
        self.park_result(request, Err(RequestError::Failed { request, message }));
    }

    /// Park a finished request's result for `wait`, dropping the
    /// oldest-admitted uncollected result once the retained set exceeds
    /// [`ServiceConfig::completed_capacity`]. A later `wait` on a dropped
    /// handle gets [`RequestError::Unknown`].
    fn park_result(&mut self, request: u64, result: Result<NetworkReport, RequestError>) {
        self.completed.insert(request, result);
        let capacity = self.service.completed_capacity.max(1);
        while self.completed.len() > capacity {
            let Some((expired, _)) = self.completed.pop_first() else {
                break;
            };
            mm_telemetry::event("serve.request.expire", || {
                format!("request={expired} reason=uncollected_past_completed_capacity")
            });
        }
    }

    /// Assemble the report of a request whose units are all resolved.
    fn finalize_request(&mut self, request: u64) {
        let Some(state) = self.requests.remove(&request) else {
            return;
        };
        // Per-layer reports in network order. A layer is a cache hit unless
        // it is the first occurrence referencing its unit in this request —
        // identical to the sequential semantics, and independent of sibling
        // requests (shared units report as fresh searches; their outcome is
        // byte-identical to an unshared run).
        let mut seen_units: Vec<u64> = Vec::new();
        let layers: Vec<LayerReport> = state
            .layers
            .iter()
            .zip(&state.plans)
            .map(|((layer, problem, repeat), plan)| {
                let (cached, hit): (Arc<CachedLayer>, bool) = match plan {
                    Plan::Hit(cached) => (Arc::clone(cached), true),
                    Plan::Unit(unit) => {
                        let first = !seen_units.contains(unit);
                        if first {
                            seen_units.push(*unit);
                        }
                        let resolved = state
                            .resolved
                            .get(unit)
                            // mm-lint: allow(panic): finalize_request runs
                            // only once every unit resolved; a hole is a
                            // service bug that must fail loudly.
                            .expect("unit resolved before request finalize");
                        (Arc::clone(resolved), !first)
                    }
                };
                LayerReport::from_cached(layer, problem, *repeat, hit, &cached)
            })
            .collect();
        self.finish_request(request, state, layers);
    }

    /// Complete an admitted request — already out of `requests`, or never
    /// in it — with its layer reports: statistics, budget release, spans,
    /// and the report parked for `wait`.
    fn finish_request(&mut self, request: u64, mut state: RequestState, layers: Vec<LayerReport>) {
        let cache_hits = layers.iter().filter(|l| l.cache_hit).count();
        let unique_searches = state.units.len();
        let total_evaluations: u64 = state
            .units
            .iter()
            .map(|u| state.resolved.get(u).map_or(0, |r| r.evaluations))
            .sum();
        self.stats.cache_hits += cache_hits as u64;
        self.stats.requests_completed += 1;
        tele_admission(3).bump(1);
        mm_telemetry::event("serve.request.finish", || {
            format!(
                "request={request} network={} unique={} hits={} evals={}",
                state.network_name, unique_searches, cache_hits, total_evaluations
            )
        });
        if let Some(outstanding) = self.tenant_outstanding.get_mut(&state.tenant) {
            *outstanding = outstanding.saturating_sub(state.planned_evals);
            if *outstanding == 0 {
                self.tenant_outstanding.remove(&state.tenant);
            }
        }
        // Close the lifecycle spans (queue may still be open for a request
        // that never activated a job of its own).
        drop(state.queue_span.take());
        drop(state.run_span.take());
        let wall_time_s = state.started_wall.elapsed().as_secs_f64();
        let report = NetworkReport {
            network: state.network_name,
            aggregate: NetworkAggregate::from_layers(&layers),
            layers,
            unique_searches,
            cache_hits,
            total_evaluations,
            wall_time_s,
            evals_per_sec: if wall_time_s > 0.0 {
                total_evaluations as f64 / wall_time_s
            } else {
                0.0
            },
            request_id: request,
            tenant: state.tenant,
            shared_searches: state.shared_units,
            cache: self.cache.stats(),
            telemetry: mm_telemetry::snapshot_if_enabled(),
        };
        self.park_result(request, Ok(report));
    }

    /// Map every layer of `network` under the service's default request
    /// config, returning per-layer reports in network order plus
    /// repeat-weighted aggregates — the legacy synchronous surface, now
    /// sugar over [`submit`](MappingService::submit) +
    /// [`wait`](MappingService::wait).
    ///
    /// Distinct uncached layer shapes each get one search job of
    /// `search_size` evaluations, multiplexed over the shared pool; repeated
    /// shapes — within this network or cached from earlier calls — replay
    /// the existing result without searching. With `use_cache` off, every
    /// layer occurrence searches; the searches are identical, so the best
    /// mappings and metrics are unchanged — only the evaluation cost and
    /// the provenance fields (`cache_hit`, `unique_searches`, …) differ.
    pub fn map_network(&mut self, network: &Network) -> NetworkReport {
        let config = self.default_request.clone();
        self.map_network_with(network, config)
    }

    /// [`map_network`](MappingService::map_network) with an explicit
    /// per-request config.
    ///
    /// # Panics
    ///
    /// Panics if admission fails (other requests hold the queue) or the
    /// request fails (a panicking evaluator/searcher) — matching the legacy
    /// synchronous contract. Use `submit`/`wait` for typed errors.
    pub fn map_network_with(&mut self, network: &Network, config: RequestConfig) -> NetworkReport {
        match self.submit(network, config) {
            Ok(handle) => match self.wait(handle) {
                Ok(report) => report,
                // mm-lint: allow(panic): the legacy synchronous surface
                // propagates a request failure as a panic, exactly as the
                // pre-multi-tenant service did via EvalPool::recv.
                Err(err) => panic!("map_network: {err}"),
            },
            // mm-lint: allow(panic): same legacy contract — the synchronous
            // caller has no handle to surface a typed rejection on.
            Err(err) => panic!("map_network: {err}"),
        }
    }

    /// Map a single named problem (a one-layer network).
    pub fn map_problem(&mut self, name: &str, problem: ProblemSpec) -> LayerReport {
        let net = Network::new(name).with_layer(name, problem, 1);
        self.map_network(&net)
            .layers
            .into_iter()
            .next()
            // mm-lint: allow(panic): map_network emits exactly one
            // LayerReport per layer and `net` has one layer by construction.
            .expect("one-layer network yields one report")
    }

    /// The shard jobs of one distinct layer search: one job per map-space
    /// shard (a single full-space job when `shards` is 1), with the layer's
    /// evaluation budget split exactly across the shards and each shard's
    /// RNG stream derived from the fingerprint *and* the shard index.
    fn shard_job_specs(
        &self,
        request: u64,
        weight: u64,
        fingerprint: u64,
        problem: &ProblemSpec,
        config: &RequestConfig,
    ) -> Vec<JobSpec> {
        let space = MapSpace::new(problem.clone(), self.arch.mapping_constraints());
        let shards = space.clamp_shard_count(config.shards.max(1));
        space
            .shard_views(shards)
            .into_iter()
            .enumerate()
            .map(|(s, view)| JobSpec {
                request,
                weight,
                space: view,
                evaluator: (self.evaluator_factory)(&self.arch, problem),
                search: (self.search_factory)(),
                // Seed from the fingerprint and shard, not the layer
                // position: a layer's result is independent of where it
                // appears, so cache replay is exactly what a fresh
                // search would have produced.
                seed: derive_stream_seed(config.seed ^ fingerprint, s),
                budget: split_evenly(config.search_size, s, shards),
                sync: config.sync,
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    //! `fingerprint` against the body it had before [`PrefixMemo`], kept
    //! here verbatim as the oracle: the same `u64` for every problem, tag
    //! and service identity, including same-name problems, a swapped
    //! searcher and a memo cleared at its cap. Tier-1 runs the property at
    //! 32 cases, CI at 256 (`PROPTEST_CASES`).

    use super::*;
    use mm_mapspace::problem::{DimId, TensorDim, TensorKind, TensorSpec};
    use mm_search::{SimulatedAnnealing, SyncPolicy};
    use mm_workloads::table1;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{Rng, RngCore, SeedableRng};

    /// The replaced `fingerprint` body, verbatim.
    fn oracle(identity: &str, problem: &ProblemSpec, tag: &str) -> u64 {
        fingerprint_parts(&[&format!("{problem:?}"), &format!("{identity}{tag}")])
    }

    fn service() -> MappingService {
        MappingService::new(
            Architecture::example(),
            ServiceConfig::default().with_workers(1),
        )
    }

    fn annealing() -> SearchFactory {
        Box::new(|| Box::new(SimulatedAnnealing::default()))
    }

    /// Every problem under every tag, memoised path against the oracle.
    fn check(service: &mut MappingService, problems: &[ProblemSpec], tags: &[String]) -> Vec<u64> {
        let mut fingerprints = Vec::new();
        for problem in problems {
            for tag in tags {
                let expected = oracle(&service.identity_tag, problem, tag);
                let got = service.fingerprint(problem, tag);
                assert_eq!(got, expected, "{problem:?} under {tag}");
                fingerprints.push(got);
            }
        }
        fingerprints
    }

    /// Tags over several seeds, budgets, shard counts (0 renders as 1) and
    /// all three sync-policy renderings.
    fn tags() -> Vec<String> {
        let syncs = [
            SyncPolicy::Off,
            SyncPolicy::Anchor,
            SyncPolicy::Annealed {
                start: 0.9,
                end: 0.1,
            },
        ];
        let mut tags = Vec::new();
        for seed in [0, 1, 7, u64::MAX] {
            for search_size in [1, 500, 2_000] {
                for shards in [0, 1, 4] {
                    for sync in syncs {
                        let config = RequestConfig::default()
                            .with_seed(seed)
                            .with_search_size(search_size)
                            .with_shards(shards)
                            .with_sync(sync);
                        tags.push(config.search_tag());
                    }
                }
            }
        }
        tags
    }

    /// `problem` with dimension `dim` halved, under the same name.
    fn halved(problem: &ProblemSpec, dim: usize) -> ProblemSpec {
        let mut half = problem.clone();
        half.dim_sizes[dim] = (half.dim_sizes[dim] / 2).max(1);
        half
    }

    fn distinct(problems: &[ProblemSpec]) -> usize {
        let mut seen: Vec<&ProblemSpec> = Vec::new();
        for p in problems {
            if !seen.contains(&p) {
                seen.push(p);
            }
        }
        seen.len()
    }

    #[test]
    fn table1_problems_and_their_halves_match_the_oracle() {
        let problems: Vec<ProblemSpec> = table1::all_problems()
            .into_iter()
            .flat_map(|t| [halved(&t.problem, 0), halved(&t.problem, 1), t.problem])
            .collect();
        let tags = tags();
        let mut service = service();
        let first = check(&mut service, &problems, &tags);
        // The second pass is answered from the memo alone.
        assert_eq!(check(&mut service, &problems, &tags), first);
        assert_eq!(
            service.prefixes.len,
            distinct(&problems),
            "one entry per distinct problem, whatever the tags"
        );
    }

    #[test]
    fn problems_sharing_a_name_never_share_a_prefix() {
        let base = ProblemSpec::conv1d(400, 5);
        let mut resized = ProblemSpec::conv1d(600, 5);
        resized.name = base.name.clone();
        let mut retensored = base.clone();
        retensored.tensors[1].kind = TensorKind::Output;
        let mut renamed_tensor = base.clone();
        renamed_tensor.tensors[0].name = "J".to_string();
        let problems = [base, resized, retensored, renamed_tensor];
        let tags = [RequestConfig::default().search_tag()];
        let mut service = service();
        let fingerprints = check(&mut service, &problems, &tags);
        for (i, a) in fingerprints.iter().enumerate() {
            assert!(!fingerprints[i + 1..].contains(a), "{problems:?}");
        }
        assert_eq!(service.prefixes.len, problems.len());
    }

    #[test]
    fn swapping_the_searcher_clears_the_memo() {
        let problems: Vec<ProblemSpec> = table1::all_problems()
            .into_iter()
            .map(|t| t.problem)
            .collect();
        let tags = tags();
        let mut service = service();
        let random = check(&mut service, &problems, &tags);
        let mut service = service.with_searcher(annealing());
        assert_eq!(service.prefixes.len, 0);
        let annealed = check(&mut service, &problems, &tags);
        assert!(random.iter().zip(&annealed).all(|(r, a)| r != a));
    }

    #[test]
    fn a_memo_filled_past_its_cap_stays_exact_and_bounded() {
        let problems: Vec<ProblemSpec> = (0..PREFIX_MEMO_CAPACITY as u64 + 100)
            .map(|i| ProblemSpec::conv1d(8 + i, 1 + i % 7))
            .collect();
        let tags = [RequestConfig::default().with_seed(3).search_tag()];
        let mut service = service();
        let first = check(&mut service, &problems, &tags);
        assert!(service.prefixes.len <= PREFIX_MEMO_CAPACITY);
        assert_eq!(service.prefixes.len, 100, "cleared once, at the cap");
        // The problems the clear dropped are rendered again, to the same key.
        assert_eq!(check(&mut service, &problems[..200], &tags), first[..200]);
    }

    /// A random problem: one of three names, one to four dimensions, zero
    /// to two input tensors and an output over single or compound
    /// coordinates — so names collide across different specs.
    fn random_problem(rng: &mut StdRng) -> ProblemSpec {
        const NAMES: [&str; 3] = ["p", "q", "conv1d_w400_r5"];
        const DIMS: [&str; 4] = ["X", "R", "K", "C"];
        let dims = rng.gen_range(1..=DIMS.len());
        let sizes = DIMS[..dims]
            .iter()
            .map(|&name| (name, rng.gen_range(1..=64u64)))
            .collect();
        let mut tensors = Vec::new();
        for t in 0..rng.gen_range(0..3) {
            let dim = TensorDim::Single(DimId(rng.gen_range(0..dims)));
            tensors.push(TensorSpec::new(
                format!("T{t}"),
                TensorKind::Input,
                vec![dim],
            ));
        }
        let (a, b) = (DimId(rng.gen_range(0..dims)), DimId(rng.gen_range(0..dims)));
        let out = if rng.gen_bool(0.5) {
            TensorDim::Single(a)
        } else {
            TensorDim::Compound(a, b)
        };
        tensors.push(TensorSpec::new("O", TensorKind::Output, vec![out]));
        ProblemSpec::new(NAMES[rng.gen_range(0..NAMES.len())], sizes, tensors)
    }

    fn random_tag(rng: &mut StdRng) -> String {
        let sync = match rng.gen_range(0..3) {
            0 => SyncPolicy::Off,
            1 => SyncPolicy::Anchor,
            _ => SyncPolicy::Annealed {
                start: rng.gen_range(0.0..1.0),
                end: rng.gen_range(0.0..1.0),
            },
        };
        RequestConfig::default()
            .with_seed(rng.next_u64())
            .with_search_size(rng.gen_range(0..100_000))
            .with_shards(rng.gen_range(0..9))
            .with_sync(sync)
            .search_tag()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases_env(32))]

        /// Random problems under random tags, with the searcher swapped
        /// once part-way, equal the oracle at every step.
        #[test]
        fn random_problems_and_tags_match_the_oracle(seed in 0u64..u64::MAX) {
            let mut rng = StdRng::seed_from_u64(seed);
            let problems: Vec<ProblemSpec> = (0..12).map(|_| random_problem(&mut rng)).collect();
            let tags: Vec<String> = (0..4).map(|_| random_tag(&mut rng)).collect();
            let swap_at = rng.gen_range(0..64);
            let mut service = service();
            for step in 0..64 {
                if step == swap_at {
                    service = service.with_searcher(annealing());
                }
                let problem = &problems[rng.gen_range(0..problems.len())];
                let tag = &tags[rng.gen_range(0..tags.len())];
                let expected = oracle(&service.identity_tag, problem, tag);
                prop_assert_eq!(service.fingerprint(problem, tag), expected);
            }
        }
    }
}
