//! The three serve workloads: one long-lived `MappingService`, a closed
//! loop of [`TENANTS`] clients on the driving thread, `submit` → `wait`.
//!
//! * `serve_batch` — the default searcher (Random, unbounded lookahead, so
//!   whole batches go to the pool per job); every seed distinct, nothing
//!   shared. The throughput-bound dispatch path.
//! * `serve_seq` — the same service and loop with SA (lookahead 1: one
//!   evaluation per pool round trip). The same scheduler and pool, bound by
//!   latency instead; the kernel is a small share of the time, so a kernel
//!   speed-up must not move it.
//! * `serve_reuse` — a warm service with a bounded cache and a Zipf-popular
//!   catalog: admission, fingerprinting, cache, in-flight sharing and report
//!   assembly do most of the work. The median request is a replay, the p90
//!   request a miss.

use std::collections::{BTreeMap, VecDeque};
use std::sync::Arc;
use std::time::Instant;

use mm_accel::{Architecture, CostModel};
use mm_mapper::{CostEvaluator, Mapper, ModelEvaluator, OptMetric};
use mm_serve::{
    CacheStats, EvaluatorFactory, MappingService, NetworkReport, RequestConfig, SearchFactory,
    ServeStats, ServiceConfig,
};
use mm_workloads::{evaluated_accelerator, table1_network, Network};

use crate::common::{
    build_problems, check_count, check_result, mapper_config, searcher, timed_setup, Digest,
    LayerMetrics, Problem, Round, Scored, Ttq, Workload, DECORATOR_EVALS,
};
use crate::decor::{EvalSeen, EvalStats, SearchSeen, SearchStats, TimedEvaluator, TimedSearcher};
use crate::inputs::{
    reuse_inputs, reuse_problems, serve_stream, table1_problems, Request, SearcherKind,
    REUSE_CACHE_CAPACITY, REUSE_EVALS, SERVE_BATCH_EVALS, SERVE_SEQ_EVALS, TENANTS,
};
use crate::iso;
use crate::metrics::name;
use crate::proc::{cpu_seconds, Placement};
use crate::spans::Recorder;
use crate::stats::{geomean, median};
use crate::targets;

/// Admission bound of every service: twice the client count, so a correct
/// closed loop is never refused.
const QUEUE_DEPTH: usize = 2 * TENANTS;
/// Bursts of equal requests behind `serve.fair_spread`.
const FAIR_BURSTS: usize = 3;
/// Mappings per problem of the pool behind the `EvalPool` loops.
const POOL_MAPPINGS: usize = 1_024;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ServeKind {
    Batch,
    Seq,
    Reuse,
}

impl ServeKind {
    pub fn name(self) -> &'static str {
        match self {
            ServeKind::Batch => "serve_batch",
            ServeKind::Seq => "serve_seq",
            ServeKind::Reuse => "serve_reuse",
        }
    }

    fn search_size(self) -> u64 {
        match self {
            ServeKind::Batch => SERVE_BATCH_EVALS,
            ServeKind::Seq => SERVE_SEQ_EVALS,
            ServeKind::Reuse => REUSE_EVALS,
        }
    }

    fn searcher(self) -> SearcherKind {
        match self {
            ServeKind::Seq => SearcherKind::Sa,
            ServeKind::Batch | ServeKind::Reuse => SearcherKind::Random,
        }
    }
}

pub struct Serve {
    kind: ServeKind,
    arch: Architecture,
    seed: u64,
    placement: Placement,
}

/// The decorators' counters of one traced service.
#[derive(Default)]
struct Probes {
    eval: Arc<EvalStats>,
    search: Arc<SearchStats>,
}

/// The inputs of one round, built in set-up.
struct Inputs {
    problems: Vec<Problem>,
    networks: Vec<Network>,
    requests: Vec<Request>,
    /// Requests that prime the cache before the timed phase.
    primers: Vec<Request>,
}

/// One request as the client saw it.
struct Served {
    request: usize,
    /// `submit` start → `wait` return.
    wall_s: f64,
    submit_s: f64,
    /// Complete when `submit` returned: nothing was searched or waited for.
    replayed: bool,
    result: Result<NetworkReport, String>,
}

fn model_metrics() -> Vec<OptMetric> {
    vec![OptMetric::Edp, OptMetric::Energy, OptMetric::Delay]
}

impl Serve {
    pub fn new(kind: ServeKind, seed: u64, placement: Placement) -> Self {
        Serve {
            kind,
            arch: evaluated_accelerator(),
            seed,
            placement,
        }
    }

    fn inputs(&self) -> Inputs {
        match self.kind {
            ServeKind::Batch | ServeKind::Seq => Inputs {
                problems: build_problems(&self.arch, table1_problems()),
                networks: vec![table1_network()],
                requests: serve_stream(self.seed, self.kind.name()),
                primers: Vec::new(),
            },
            ServeKind::Reuse => {
                let specs = reuse_problems();
                let inputs = reuse_inputs(self.seed);
                let networks = inputs
                    .catalog
                    .iter()
                    .enumerate()
                    .map(|(n, layers)| {
                        let mut net = Network::new(format!("net{n}"));
                        for (l, &p) in layers.iter().enumerate() {
                            net.push_layer(format!("layer{l}"), specs[p].clone(), 1);
                        }
                        net
                    })
                    .collect();
                let primers = (0..inputs.catalog.len())
                    .map(|network| Request {
                        tenant: network % TENANTS,
                        network,
                        seed: inputs.shared_seed,
                        novel: false,
                    })
                    .collect();
                Inputs {
                    problems: build_problems(&self.arch, specs),
                    networks,
                    requests: inputs.requests,
                    primers,
                }
            }
        }
    }

    /// The service of one round. Both passes go through
    /// `with_evaluator_factory` under one tag, so fingerprints — and with
    /// them every derived seed and result — are the same with and without
    /// the decorators.
    fn service(&self, probes: Option<&Probes>) -> Result<MappingService, String> {
        let config = ServiceConfig::default()
            .with_workers(self.placement.pool_workers())
            .with_max_active_jobs(self.placement.pool_workers().max(2))
            .with_queue_depth(QUEUE_DEPTH)
            .with_cache_capacity((self.kind == ServeKind::Reuse).then_some(REUSE_CACHE_CAPACITY));
        let eval_stats = probes.map(|p| Arc::clone(&p.eval));
        let factory: EvaluatorFactory = Box::new(move |arch, problem| {
            let model: Arc<dyn CostEvaluator> = Arc::new(ModelEvaluator::with_metrics(
                CostModel::new(arch.clone(), problem.clone()),
                model_metrics(),
            ));
            match &eval_stats {
                Some(stats) => Arc::new(TimedEvaluator {
                    inner: model,
                    stats: Arc::clone(stats),
                }),
                None => model,
            }
        });
        // The constructor spawns the pool: its threads go to the workers' CPUs.
        let service = self.placement.spawn_workers(|| {
            MappingService::with_evaluator_factory(
                self.arch.clone(),
                config,
                factory,
                "benchmark-model".to_string(),
            )
        })?;
        let kind = self.kind;
        let search_factory: Option<SearchFactory> = match probes {
            Some(p) => {
                let stats = Arc::clone(&p.search);
                Some(Box::new(move || {
                    Box::new(TimedSearcher {
                        inner: searcher(kind.searcher()),
                        stats: Arc::clone(&stats),
                    })
                }))
            }
            // Random is the service's own default: leave it in place.
            None if kind == ServeKind::Seq => Some(Box::new(move || searcher(kind.searcher()))),
            None => None,
        };
        Ok(match search_factory {
            Some(f) => service.with_searcher(f),
            None => service,
        })
    }

    fn config(&self, request: &Request) -> RequestConfig {
        RequestConfig::default()
            .with_seed(request.seed)
            .with_search_size(self.kind.search_size())
            .with_tenant(format!("tenant{}", request.tenant))
    }

    /// The closed loop: at most [`TENANTS`] requests in flight; a client
    /// whose request was complete when `submit` returned collects it at
    /// once and the next request goes out, otherwise the oldest request in
    /// flight is waited for.
    fn serve(
        &self,
        service: &mut MappingService,
        networks: &[Network],
        requests: &[Request],
        mut trace: Option<(&mut Recorder, usize)>,
    ) -> Vec<Served> {
        struct Pending {
            request: usize,
            handle: mm_serve::RequestHandle,
            start: Instant,
            submit_s: f64,
            span: Option<usize>,
        }
        let mut served: Vec<Served> = Vec::with_capacity(requests.len());
        let mut in_flight: VecDeque<Pending> = VecDeque::new();
        let mut next = 0;
        loop {
            while in_flight.len() < TENANTS && next < requests.len() {
                let request = &requests[next];
                let config = self.config(request);
                let span = trace.as_mut().map(|(rec, parent)| {
                    let lane = request.tenant as u32;
                    let span = rec.open("request", Some(*parent), next as u64, lane);
                    (span, rec.open("submit", Some(span), next as u64, lane))
                });
                let before = service.in_flight_requests();
                let start = Instant::now();
                let submitted = service.submit(&networks[request.network], config);
                let submit_s = start.elapsed().as_secs_f64();
                if let (Some((rec, _)), Some((_, submit_span))) = (trace.as_mut(), span) {
                    rec.close(submit_span);
                }
                let span = span.map(|(request_span, _)| request_span);
                match submitted {
                    Ok(handle) => {
                        let pending = Pending {
                            request: next,
                            handle,
                            start,
                            submit_s,
                            span,
                        };
                        if service.in_flight_requests() == before {
                            served.push(collect(service, pending, true, &mut trace));
                        } else {
                            in_flight.push_back(pending);
                        }
                    }
                    Err(refused) => {
                        if let (Some((rec, _)), Some(span)) = (trace.as_mut(), span) {
                            rec.close(span);
                        }
                        served.push(Served {
                            request: next,
                            wall_s: submit_s,
                            submit_s,
                            replayed: false,
                            result: Err(format!("refused at admission: {refused}")),
                        });
                    }
                }
                next += 1;
            }
            match in_flight.pop_front() {
                Some(pending) => served.push(collect(service, pending, false, &mut trace)),
                None => break,
            }
        }

        fn collect(
            service: &mut MappingService,
            pending: Pending,
            replayed: bool,
            trace: &mut Option<(&mut Recorder, usize)>,
        ) -> Served {
            let wait_span = match (trace.as_mut(), pending.span) {
                (Some((rec, _)), Some(span)) => {
                    Some(rec.open("wait", Some(span), pending.request as u64, 0))
                }
                _ => None,
            };
            let result = service.wait(pending.handle).map_err(|e| e.to_string());
            let wall_s = pending.start.elapsed().as_secs_f64();
            if let Some((rec, _)) = trace.as_mut() {
                for span in wait_span.into_iter().chain(pending.span) {
                    rec.close(span);
                }
            }
            Served {
                request: pending.request,
                wall_s,
                submit_s: pending.submit_s,
                replayed,
                result,
            }
        }
        served.sort_by_key(|s| s.request);
        served
    }

    /// Every check of the correctness gate on every request of a round.
    fn check(&self, inputs: &Inputs, target: f64, served: &[Served], round: &mut Round) {
        let size = self.kind.search_size();
        let by_name: BTreeMap<&str, (usize, &Problem)> = inputs
            .problems
            .iter()
            .enumerate()
            .map(|(i, p)| (p.spec.name.as_str(), (i, p)))
            .collect();
        // What the first answer for a (network, seed) was: every later one,
        // replayed or shared or searched again after an eviction, must
        // carry the same results.
        let mut first_answer: BTreeMap<(usize, u64), u64> = BTreeMap::new();
        let mut digest = Digest::default();
        round.attempted = served.len() as u64;

        for s in served {
            let request = &inputs.requests[s.request];
            let id = format!(
                "{} request {} (network {} seed {})",
                self.kind.name(),
                s.request,
                request.network,
                request.seed
            );
            round.calls_s.push(s.wall_s);
            let report = match &s.result {
                Ok(report) => report,
                Err(why) => {
                    round.failures.push(format!("{id}: {why}"));
                    round.ttq.push(Ttq {
                        row: 0,
                        norm: f64::INFINITY,
                        reached_s: None,
                        wall_s: s.wall_s,
                    });
                    continue;
                }
            };
            let layers = inputs.networks[request.network].len() as u64;
            let failures = &mut round.failures;
            check_count(&id, "layers", report.layers.len() as u64, layers, failures);
            check_count(
                &id,
                "unique_searches + cache_hits",
                (report.unique_searches + report.cache_hits) as u64,
                layers,
                failures,
            );
            check_count(
                &id,
                "total_evaluations",
                report.total_evaluations,
                report.unique_searches as u64 * size,
                failures,
            );
            if self.kind != ServeKind::Reuse {
                // Distinct seeds, distinct layers: everything is searched.
                check_count(&id, "cache_hits", report.cache_hits as u64, 0, failures);
                check_count(
                    &id,
                    "unique_searches",
                    report.unique_searches as u64,
                    layers,
                    failures,
                );
            }
            if report.wall_time_s > s.wall_s {
                failures.push(format!(
                    "{id}: reported wall_time_s {} exceeds the {} s observed from outside",
                    report.wall_time_s, s.wall_s
                ));
            }

            let mut answer = Digest::default();
            let mut norms = Vec::with_capacity(report.layers.len());
            for layer in &report.layers {
                let layer_id = format!("{id} layer {}", layer.layer);
                check_count(&layer_id, "evaluations", layer.evaluations, size, failures);
                round.evals += layer.evaluations;
                let Some(&(index, problem)) = by_name.get(layer.problem.as_str()) else {
                    failures.push(format!("{layer_id}: unknown problem '{}'", layer.problem));
                    continue;
                };
                let norm = check_result(
                    &layer_id,
                    problem,
                    layer.best_mapping.as_ref(),
                    layer.edp(),
                    failures,
                );
                norms.extend(norm);
                round.results.extend(norm.map(|norm| Scored {
                    problem: index,
                    cell: round.results.len() as u64,
                    norm,
                }));
                answer.text(&layer.problem);
                answer.word(layer.evaluations);
                for v in layer.best_metrics.iter().flat_map(|e| &e.metrics) {
                    answer.word(v.to_bits());
                }
                answer.text(&format!("{:?}", layer.best_mapping));
            }
            let answer = answer.finish();
            let first = *first_answer
                .entry((request.network, request.seed))
                .or_insert(answer);
            if first != answer {
                failures.push(format!(
                    "{id}: results differ from the first answer for the same network and seed"
                ));
            }
            digest.word(answer);
            let whole = geomean(&norms);
            let met = whole.is_some_and(|g| g <= target);
            round.ttq.push(Ttq {
                row: 0,
                norm: whole.unwrap_or(f64::INFINITY),
                reached_s: met.then_some(s.wall_s),
                wall_s: s.wall_s,
            });
        }
        round.digest = digest.finish();
    }

    /// `Mapper` evaluations per second on the layers, searcher and budget
    /// of the first [`TENANTS`] requests: what the service is held against.
    fn mapper_rate(&self, inputs: &Inputs) -> f64 {
        let (mut evals, mut wall_s) = (0u64, 0.0);
        for request in inputs.requests.iter().take(TENANTS) {
            for layer in &inputs.networks[request.network].layers {
                let evaluator: Arc<dyn CostEvaluator> = Arc::new(ModelEvaluator::with_metrics(
                    CostModel::new(self.arch.clone(), layer.problem.clone()),
                    model_metrics(),
                ));
                let space = mm_mapspace::MapSpace::new(
                    layer.problem.clone(),
                    self.arch.mapping_constraints(),
                );
                let mapper = Mapper::new(mapper_config(request.seed, self.kind.search_size()));
                let kind = self.kind.searcher();
                let start = Instant::now();
                let report = mapper.run(&space, evaluator, |_| searcher(kind));
                wall_s += start.elapsed().as_secs_f64();
                evals += report.total_evaluations;
            }
        }
        evals as f64 / wall_s
    }
}

impl Workload for Serve {
    fn round(&mut self, mut trace: Option<&mut Recorder>) -> Result<Round, String> {
        // ---- set-up -------------------------------------------------
        let probes = trace.is_some().then(Probes::default);
        let target = targets::lookup(&targets::SERVE, self.kind.name())?;
        let (setup_s, (inputs, mut service, cache_before)) = timed_setup(|| {
            let inputs = self.inputs();
            let mut service = self.service(probes.as_ref())?;
            let primed = self.serve(&mut service, &inputs.networks, &inputs.primers, None);
            let mut cache = CacheStats::default();
            for s in &primed {
                match &s.result {
                    Ok(report) => cache = report.cache,
                    Err(why) => return Err(format!("priming request {} failed: {why}", s.request)),
                }
            }
            Ok((inputs, service, cache))
        })?;
        let stats_before: ServeStats = service.stats();
        if let Some(p) = &probes {
            p.eval.take();
            p.search.take();
        }

        // ---- timed --------------------------------------------------
        let cpu_before = cpu_seconds()?;
        let timed_span = trace
            .as_deref_mut()
            .map(|rec| rec.open("serve.timed", None, 0, TENANTS as u32));
        let timed = Instant::now();
        let served = self.serve(
            &mut service,
            &inputs.networks,
            &inputs.requests,
            trace.as_deref_mut().zip(timed_span),
        );
        let timed_s = timed.elapsed().as_secs_f64();
        let cpu_after = cpu_seconds()?;
        if let (Some(rec), Some(span)) = (trace.as_deref_mut(), timed_span) {
            rec.close(span);
        }

        // ---- checks and aggregation (off the clock) -----------------
        let mut round = Round {
            setup_s,
            timed_s,
            ..Round::default()
        };
        self.check(&inputs, target, &served, &mut round);
        let stats = service.stats();
        check_count(
            self.kind.name(),
            "requests completed",
            stats.requests_completed - stats_before.requests_completed,
            inputs.requests.len() as u64,
            &mut round.failures,
        );

        if let (Some(rec), Some(p), Some(span)) = (trace, &probes, timed_span) {
            let EvalSeen {
                calls,
                evals,
                busy_ns: eval_ns,
            } = p.eval.take();
            let SearchSeen {
                propose_calls,
                proposals,
                propose_ns,
                reports,
                report_ns,
            } = p.search.take();
            rec.add_busy(span, "evaluate", calls, eval_ns, true);
            rec.add_busy(span, "propose", propose_calls, propose_ns, false);
            rec.add_busy(span, "report", reports, report_ns, false);
            let fresh = stats.total_evaluations - stats_before.total_evaluations;
            check_count(
                self.kind.name(),
                DECORATOR_EVALS,
                evals,
                fresh,
                &mut round.failures,
            );

            // Reports carry the cumulative cache counters as of their own
            // completion: the furthest along is the end of the timed phase.
            let cache_after = served
                .iter()
                .filter_map(|s| s.result.as_ref().ok())
                .map(|r| r.cache)
                .max_by_key(|c| c.hits + c.misses + c.inserts + c.evictions)
                .unwrap_or(cache_before);
            let hits = cache_after.hits - cache_before.hits;
            let misses = cache_after.misses - cache_before.misses;
            let evictions = cache_after.evictions - cache_before.evictions;
            let cpu_user = cpu_after.0 - cpu_before.0;
            let cpu_sys = cpu_after.1 - cpu_before.1;
            let eval_s = eval_ns as f64 * 1e-9;
            let submit_us: Vec<f64> = served.iter().map(|s| s.submit_s * 1e6).collect();
            let replay_us: Vec<f64> = served
                .iter()
                .filter(|s| s.replayed)
                .map(|s| s.wall_s * 1e6)
                .collect();
            let ratio = |a: u64, b: u64| if b == 0 { 0.0 } else { a as f64 / b as f64 };
            let m = &mut round.layer;
            m.insert(name::ACCEL_BUSY_S, eval_s);
            m.insert(name::ACCEL_EVALS, evals as f64);
            m.insert(
                name::ACCEL_BUSY_SHARE,
                eval_s / (timed_s * self.placement.pool_workers() as f64),
            );
            m.insert(name::SEARCH_PROPOSE_BUSY_S, propose_ns as f64 * 1e-9);
            m.insert(name::SEARCH_REPORT_BUSY_S, report_ns as f64 * 1e-9);
            m.insert(name::SEARCH_PROPOSALS, proposals as f64);
            m.insert(
                name::SEARCH_PROPOSE_BATCH_MEAN,
                ratio(proposals, propose_calls),
            );
            m.insert(name::MAPPER_EVAL_BATCH_MEAN, ratio(evals, calls));
            m.insert(
                name::SERVE_CPU_NS_PER_EVAL,
                if fresh == 0 {
                    0.0
                } else {
                    (cpu_user + cpu_sys) * 1e9 / fresh as f64
                },
            );
            m.insert(
                name::SERVE_SYS_SHARE,
                if cpu_user + cpu_sys > 0.0 {
                    cpu_sys / (cpu_user + cpu_sys)
                } else {
                    0.0
                },
            );
            m.insert(name::SERVE_SUBMIT_US_P50, median(&submit_us).unwrap_or(0.0));
            m.insert(name::SERVE_REPLAY_US_P50, median(&replay_us).unwrap_or(0.0));
            m.insert(name::SERVE_HIT_RATIO, ratio(hits, hits + misses));
            m.insert(name::SERVE_EVICTIONS, evictions as f64);
            m.insert(
                name::SERVE_SHARED_SEARCHES,
                (stats.shared_searches - stats_before.shared_searches) as f64,
            );
            m.insert(
                name::SERVE_REJECTED,
                (stats.requests_rejected - stats_before.requests_rejected) as f64,
            );
        }
        Ok(round)
    }

    fn extras(&mut self) -> Result<LayerMetrics, String> {
        let inputs = self.inputs();
        let mut out = LayerMetrics::new();

        let table1 = build_problems(&self.arch, table1_problems());
        let pool = iso::Pool::new(self.seed, &table1, POOL_MAPPINGS);
        iso::accel(&table1, &pool, &mut out);
        iso::eval_pool(&table1, &pool, &self.placement, &mut out)?;

        // The service against the `Mapper` on identical layers, searcher
        // and budget, one after the other in this run.
        let mut service = self.service(None)?;
        self.serve(&mut service, &inputs.networks, &inputs.primers, None);
        let before = service.stats().total_evaluations;
        let start = Instant::now();
        self.serve(&mut service, &inputs.networks, &inputs.requests, None);
        let serve_s = start.elapsed().as_secs_f64();
        let fresh = service.stats().total_evaluations - before;
        out.insert(
            name::SERVE_REL_MAPPER,
            fresh as f64 / serve_s / self.mapper_rate(&inputs),
        );

        // Equal requests submitted together should finish together.
        let mut spreads = Vec::new();
        for burst in 0..FAIR_BURSTS {
            let mut service = self.service(None)?;
            let handles: Vec<_> = (0..TENANTS)
                .filter_map(|t| {
                    let request = Request {
                        tenant: t,
                        network: 0,
                        seed: self.seed ^ ((burst * TENANTS + t + 1) as u64) << 32,
                        novel: true,
                    };
                    service
                        .submit(&inputs.networks[0], self.config(&request))
                        .ok()
                })
                .collect();
            let walls: Vec<f64> = handles
                .into_iter()
                .filter_map(|h| service.wait(h).ok())
                .map(|r| r.wall_time_s)
                .collect();
            let max = walls.iter().copied().fold(0.0, f64::max);
            let min = walls.iter().copied().fold(f64::INFINITY, f64::min);
            if walls.len() == TENANTS && max > 0.0 {
                spreads.push((max - min) / max);
            }
        }
        out.insert(
            name::SERVE_FAIR_SPREAD,
            median(&spreads).ok_or("no burst of equal requests completed")?,
        );
        Ok(out)
    }
}
