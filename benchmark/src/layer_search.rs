//! `layer_search`: the paper's black-box baselines on the analytic model.
//!
//! `Mapper::run`, 1 thread, 1 shard, `SyncPolicy::Off`, on the 8 Table-1
//! problems × {Random, SA, GA} × [`LAYER_REPS`] seeds × [`LAYER_EVALS`]
//! evaluations. The kernel, proposal generation, the searchers and the
//! mapper loop do all the work; the pool, the service and the networks do
//! none, so a gain in those must leave this workload flat.

use std::sync::Arc;
use std::time::Instant;

use mm_accel::Architecture;
use mm_mapper::{
    CostEvaluator, EvaluatorObjective, Mapper, MapperConfig, MapperReport, ModelEvaluator,
    SyncPolicy,
};
use mm_search::{drive, Budget, DdpgAgent, DdpgConfig, ProposalSearch};
use mm_workloads::evaluated_accelerator;
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::common::{
    build_problems, check_count, check_result, mapper_config, searcher, timed_setup, Digest,
    LayerMetrics, Problem, Round, Scored, Ttq, Workload, DECORATOR_EVALS,
};
use crate::decor::{
    EvalSeen, EvalStats, SearchSeen, SearchStats, Threshold, ThresholdEvaluator, TimedEvaluator,
    TimedSearcher,
};
use crate::inputs::{layer_runs, table1_problems, SearchRun, SearcherKind, LAYER_EVALS};
use crate::iso;
use crate::metrics::name;
use crate::spans::Recorder;
use crate::stats::{censored_median, geomean};
use crate::targets;

/// Evaluations of the DDPG run behind `search.rl.step_us`.
const RL_EVALS: u64 = 1_000;
/// Shards of the sharded comparison.
const SHARDS: usize = 4;

pub struct LayerSearch {
    arch: Architecture,
    seed: u64,
}

/// What one `Mapper::run` gave back and what the decorators saw (zeros when
/// untraced).
struct Outcome {
    wall_s: f64,
    report: MapperReport,
    threshold: Arc<Threshold>,
    eval: EvalSeen,
    search: SearchSeen,
}

fn evaluator(problem: &Problem) -> Arc<dyn CostEvaluator> {
    Arc::new(ModelEvaluator::edp(problem.model.clone()))
}

/// One search. The threshold observer rides along in both passes (one
/// compare per evaluation); the timing decorators only when `traced`.
fn search(
    problem: &Problem,
    evaluator: &Arc<dyn CostEvaluator>,
    kind: SearcherKind,
    config: MapperConfig,
    target_edp: f64,
    traced: bool,
) -> Outcome {
    let eval_stats = Arc::new(EvalStats::default());
    let search_stats = Arc::new(SearchStats::default());
    let inner: Arc<dyn CostEvaluator> = if traced {
        Arc::new(TimedEvaluator {
            inner: Arc::clone(evaluator),
            stats: Arc::clone(&eval_stats),
        })
    } else {
        Arc::clone(evaluator)
    };
    let mapper = Mapper::new(config);
    let start = Instant::now();
    let threshold = Threshold::new(target_edp);
    let observed: Arc<dyn CostEvaluator> = Arc::new(ThresholdEvaluator {
        inner,
        state: Arc::clone(&threshold),
    });
    let report = mapper.run(&problem.space, observed, |_| -> Box<dyn ProposalSearch> {
        if traced {
            Box::new(TimedSearcher {
                inner: searcher(kind),
                stats: Arc::clone(&search_stats),
            })
        } else {
            searcher(kind)
        }
    });
    let wall_s = start.elapsed().as_secs_f64();
    Outcome {
        wall_s,
        report,
        threshold,
        eval: eval_stats.take(),
        search: search_stats.take(),
    }
}

/// A search for a same-run comparison: no target, no decorators.
fn compare_search(problem: &Problem, kind: SearcherKind, config: MapperConfig) -> Outcome {
    search(
        problem,
        &evaluator(problem),
        kind,
        config,
        f64::NEG_INFINITY,
        false,
    )
}

/// Rep 0 of every problem for `kind`: the subset the comparisons run on.
fn first_reps(
    runs: &[(SearcherKind, SearchRun)],
    kind: SearcherKind,
) -> impl Iterator<Item = &SearchRun> {
    runs.iter()
        .filter(move |(k, run)| *k == kind && run.rep == 0)
        .map(|(_, run)| run)
}

/// Evaluations per second of `drive` and of the `Mapper` on the same
/// searches (rep 0 of every problem × searcher), back to back.
fn drive_comparison(problems: &[Problem], runs: &[(SearcherKind, SearchRun)]) -> (f64, f64) {
    let (mut drive_s, mut mapper_s, mut evals) = (0.0, 0.0, 0u64);
    for (kind, run) in runs.iter().filter(|(_, run)| run.rep == 0) {
        let problem = &problems[run.problem];
        let mut objective = EvaluatorObjective::new(evaluator(problem));
        let start = Instant::now();
        let trace = drive(
            searcher(*kind).as_mut(),
            &problem.space,
            &mut objective,
            Budget::iterations(LAYER_EVALS),
            &mut StdRng::seed_from_u64(run.seed),
        );
        drive_s += start.elapsed().as_secs_f64();
        evals += trace.len() as u64;
        mapper_s += compare_search(problem, *kind, mapper_config(run.seed, LAYER_EVALS)).wall_s;
    }
    (evals as f64 / drive_s, evals as f64 / mapper_s)
}

/// 1 thread, [`SHARDS`] shards over a sharded space with `Anchor` sync,
/// against the unsharded search of the same seed and budget (SA, rep 0 of
/// every problem): throughput ratio and geomean best-EDP ratio.
fn sharded_comparison(
    problems: &[Problem],
    runs: &[(SearcherKind, SearchRun)],
) -> Option<(f64, f64)> {
    let (mut sharded_s, mut plain_s) = (0.0, 0.0);
    let mut ratios = Vec::new();
    for run in first_reps(runs, SearcherKind::Sa) {
        let problem = &problems[run.problem];
        let plain = mapper_config(run.seed, LAYER_EVALS);
        let sharded = MapperConfig {
            shards: Some(SHARDS),
            shard_space: true,
            sync: SyncPolicy::Anchor,
            ..plain.clone()
        };
        let a = compare_search(problem, SearcherKind::Sa, sharded);
        let b = compare_search(problem, SearcherKind::Sa, plain);
        sharded_s += a.wall_s;
        plain_s += b.wall_s;
        ratios.push(a.report.best_cost() / b.report.best_cost());
    }
    Some((plain_s / sharded_s, geomean(&ratios)?))
}

/// Random search (rep 0 of every problem) with `mm_telemetry` at the spans
/// level against the same searches with it off, interleaved.
fn telemetry_comparison(problems: &[Problem], runs: &[(SearcherKind, SearchRun)]) -> f64 {
    let (mut on_s, mut off_s) = (0.0, 0.0);
    for run in first_reps(runs, SearcherKind::Random) {
        let one = |level: mm_telemetry::Level| {
            mm_telemetry::set_level(level);
            let config = mapper_config(run.seed, LAYER_EVALS);
            let outcome = compare_search(&problems[run.problem], SearcherKind::Random, config);
            mm_telemetry::set_level(mm_telemetry::Level::Off);
            outcome.wall_s
        };
        on_s += one(mm_telemetry::Level::Spans);
        off_s += one(mm_telemetry::Level::Off);
    }
    mm_telemetry::global().reset();
    off_s / on_s
}

impl LayerSearch {
    pub fn new(seed: u64) -> Self {
        LayerSearch {
            arch: evaluated_accelerator(),
            seed,
        }
    }
}

impl Workload for LayerSearch {
    fn round(&mut self, mut trace: Option<&mut Recorder>) -> Result<Round, String> {
        // ---- set-up -------------------------------------------------
        let (setup_s, (problems, evaluators, targets, runs)) = timed_setup(|| {
            let problems = build_problems(&self.arch, table1_problems());
            let evaluators: Vec<Arc<dyn CostEvaluator>> = problems.iter().map(evaluator).collect();
            let targets = problems
                .iter()
                .map(|p| Ok(targets::lookup(&targets::LAYER_SEARCH, &p.spec.name)? * p.min_edp))
                .collect::<Result<Vec<f64>, String>>()?;
            Ok((problems, evaluators, targets, layer_runs(self.seed)))
        })?;

        // ---- timed --------------------------------------------------
        let traced = trace.is_some();
        let timed_span = trace
            .as_deref_mut()
            .map(|rec| rec.open("layer_search.timed", None, 0, 0));
        let timed = Instant::now();
        let mut outcomes = Vec::with_capacity(runs.len());
        for (i, (kind, run)) in runs.iter().enumerate() {
            let span = trace
                .as_deref_mut()
                .map(|rec| rec.open("mapper.run", timed_span, i as u64, 0));
            let outcome = search(
                &problems[run.problem],
                &evaluators[run.problem],
                *kind,
                mapper_config(run.seed, LAYER_EVALS),
                targets[run.problem],
                traced,
            );
            if let (Some(rec), Some(span)) = (trace.as_deref_mut(), span) {
                rec.close(span);
                let (eval, search) = (outcome.eval, outcome.search);
                rec.add_busy(span, "evaluate", eval.calls, eval.busy_ns, false);
                rec.add_busy(
                    span,
                    "propose",
                    search.propose_calls,
                    search.propose_ns,
                    false,
                );
                rec.add_busy(span, "report", search.reports, search.report_ns, false);
            }
            outcomes.push(outcome);
        }
        let timed_s = timed.elapsed().as_secs_f64();
        if let (Some(rec), Some(span)) = (trace, timed_span) {
            rec.close(span);
        }

        // ---- checks and aggregation (off the clock) -----------------
        let mut round = Round {
            setup_s,
            timed_s,
            attempted: outcomes.len() as u64,
            ..Round::default()
        };
        let mut digest = Digest::default();
        let mut ttq_evals: Vec<Option<f64>> = Vec::new();
        for (i, ((kind, run), outcome)) in runs.iter().zip(&outcomes).enumerate() {
            let problem = &problems[run.problem];
            let id = format!(
                "layer_search run {i} ({} {} rep {})",
                problem.spec.name,
                kind.label(),
                run.rep
            );
            let report = &outcome.report;
            let norm = check_result(
                &id,
                problem,
                report.best_mapping.as_ref(),
                report.best_cost(),
                &mut round.failures,
            );
            check_count(
                &id,
                "total_evaluations",
                report.total_evaluations,
                LAYER_EVALS,
                &mut round.failures,
            );
            check_count(
                &id,
                "evaluations seen by the observer",
                outcome.threshold.evals(),
                LAYER_EVALS,
                &mut round.failures,
            );
            if traced {
                check_count(
                    &id,
                    DECORATOR_EVALS,
                    outcome.eval.evals,
                    LAYER_EVALS,
                    &mut round.failures,
                );
                check_count(
                    &id,
                    "reports seen by the decorator",
                    outcome.search.reports,
                    LAYER_EVALS,
                    &mut round.failures,
                );
            }
            round.results.extend(norm.map(|norm| Scored {
                problem: run.problem,
                cell: *kind as u64,
                norm,
            }));
            round.evals += report.total_evaluations;

            let reached = outcome.threshold.reached();
            round.calls_s.push(outcome.wall_s);
            // Random search is the floor; the targets are set for SA and GA.
            if *kind != SearcherKind::Random {
                round.ttq.push(Ttq {
                    row: run.problem,
                    norm: norm.unwrap_or(f64::INFINITY),
                    reached_s: reached.map(|(_, s)| s),
                    wall_s: outcome.wall_s,
                });
                ttq_evals.push(reached.map(|(e, _)| e as f64));
            }
            digest.word(report.best_cost().to_bits());
            digest.word(report.total_evaluations);
            digest.word(reached.map_or(0, |(e, _)| e));
        }
        round.digest = digest.finish();

        if traced {
            let sum = |f: fn(&Outcome) -> u64| outcomes.iter().map(f).sum::<u64>() as f64;
            let eval_s = sum(|o| o.eval.busy_ns) * 1e-9;
            let propose_s = sum(|o| o.search.propose_ns) * 1e-9;
            let report_s = sum(|o| o.search.report_ns) * 1e-9;
            let run_s: f64 = outcomes.iter().map(|o| o.wall_s).sum();
            let m = &mut round.layer;
            m.insert(name::ACCEL_BUSY_S, eval_s);
            m.insert(name::ACCEL_EVALS, sum(|o| o.eval.evals));
            m.insert(name::ACCEL_BUSY_SHARE, eval_s / timed_s);
            m.insert(name::SEARCH_PROPOSE_BUSY_S, propose_s);
            m.insert(name::SEARCH_REPORT_BUSY_S, report_s);
            m.insert(name::SEARCH_PROPOSALS, sum(|o| o.search.proposals));
            m.insert(
                name::SEARCH_PROPOSE_BATCH_MEAN,
                sum(|o| o.search.proposals) / sum(|o| o.search.propose_calls),
            );
            m.insert(name::MAPPER_SELF_S, run_s - eval_s - propose_s - report_s);
            m.insert(
                name::MAPPER_EVAL_BATCH_MEAN,
                sum(|o| o.eval.evals) / sum(|o| o.eval.calls),
            );
            for kind in SearcherKind::ALL {
                let (mut evals, mut wall) = (0u64, 0.0);
                for ((k, _), o) in runs.iter().zip(&outcomes) {
                    if *k == kind {
                        evals += o.report.total_evaluations;
                        wall += o.wall_s;
                    }
                }
                let name = match kind {
                    SearcherKind::Random => name::SEARCH_RANDOM_EVALS_PER_S,
                    SearcherKind::Sa => name::SEARCH_SA_EVALS_PER_S,
                    SearcherKind::Ga => name::SEARCH_GA_EVALS_PER_S,
                };
                m.insert(name, evals as f64 / wall);
            }
            let unreached = ttq_evals.iter().filter(|t| t.is_none()).count();
            m.insert(name::SEARCH_TTQ_UNREACHED, unreached as f64);
            // Censored at the budget: a median that never arrived reads as
            // the whole budget, which no arrived median can.
            m.insert(
                name::SEARCH_TTQ_EVALS_P50,
                censored_median(&ttq_evals).unwrap_or(LAYER_EVALS as f64),
            );
        }
        Ok(round)
    }

    fn extras(&mut self) -> Result<LayerMetrics, String> {
        let problems = build_problems(&self.arch, table1_problems());
        let runs = layer_runs(self.seed);
        let mut out = LayerMetrics::new();

        let mut pool = iso::Pool::new(self.seed, &problems, iso::POOL_PER_PROBLEM);
        iso::accel(&problems, &pool, &mut out);
        iso::mapspace(&problems, &mut pool, &mut out);

        let (drive_rate, mapper_rate) = drive_comparison(&problems, &runs);
        out.insert(name::SEARCH_DRIVE_EVALS_PER_S, drive_rate);
        out.insert(name::MAPPER_REL_DRIVE, mapper_rate / drive_rate);

        let (rel, edp) = sharded_comparison(&problems, &runs)
            .ok_or("sharded comparison produced no finite EDP ratio")?;
        out.insert(name::MAPPER_SHARDED_REL_THROUGHPUT, rel);
        out.insert(name::MAPPER_SHARDED_EDP_RATIO, edp);

        out.insert(
            name::TELEMETRY_SPANS_REL_THROUGHPUT,
            telemetry_comparison(&problems, &runs),
        );

        // DDPG on the first problem: actor/critic updates per proposal make
        // it the one searcher whose own step, not the kernel, is the cost.
        let problem = problems.first().ok_or("no problems")?;
        let mut objective = EvaluatorObjective::new(evaluator(problem));
        let mut agent = DdpgAgent::new(DdpgConfig::default());
        let mut rng = StdRng::seed_from_u64(runs.first().map_or(self.seed, |(_, r)| r.seed));
        let start = Instant::now();
        let trace = drive(
            &mut agent,
            &problem.space,
            &mut objective,
            Budget::iterations(RL_EVALS),
            &mut rng,
        );
        out.insert(
            name::SEARCH_RL_STEP_US,
            start.elapsed().as_secs_f64() * 1e6 / trace.len().max(1) as f64,
        );
        Ok(out)
    }
}
