//! Mapper throughput bench: evaluations/second of the parallel [`Mapper`]
//! at 1/2/4/8 threads vs the classic single-threaded `drive` loop, on
//! the ResNet Conv_4 workload, plus criterion micro-benchmarks of the
//! per-evaluation orchestration overhead.
//!
//! Writes a `BENCH_mapper.json` summary under the results directory
//! (override with `MM_RESULTS_DIR`). Tune the sweep with
//! `MM_MAPPER_BENCH_EVALS` (per-thread evaluations; falls back to
//! `MM_CI_BENCH_EVALS`, default 2000).
//!
//! The acceptance question — 4 threads ≥ 2× the single-threaded loop — is
//! only answerable on ≥ 2 usable cores; `available_parallelism` is recorded
//! in the JSON so single-core CI numbers aren't misread as a regression.

use std::sync::Arc;

use criterion::{criterion_group, Criterion};
use mm_accel::CostModel;
use mm_bench::{
    measure_telemetry_overhead, measure_telemetry_overhead_at, report, run_mapper_scaling,
};
use mm_mapper::{Mapper, MapperConfig, ModelEvaluator, TerminationPolicy};
use mm_mapspace::MapSpace;
use mm_search::RandomSearch;
use mm_workloads::{evaluated_accelerator, table1};

fn resnet_conv4() -> (CostModel, MapSpace) {
    let target = table1::by_name("ResNet Conv_4").expect("table1 problem");
    let arch = evaluated_accelerator();
    let space = MapSpace::new(target.problem.clone(), arch.mapping_constraints());
    (CostModel::new(arch, target.problem.clone()), space)
}

/// Criterion view: wall-clock of a fixed mapper run at each thread count.
fn bench_mapper_threads(c: &mut Criterion) {
    let (model, space) = resnet_conv4();
    let evaluator: Arc<dyn mm_mapper::CostEvaluator> = Arc::new(ModelEvaluator::edp(model));
    let mut group = c.benchmark_group("mapper_throughput");
    group.sample_size(10);
    for threads in [1usize, 2, 4, 8] {
        let evaluator = Arc::clone(&evaluator);
        let space = space.clone();
        group.bench_function(format!("random/{threads}threads/512evals"), move |b| {
            b.iter(|| {
                let mapper = Mapper::new(MapperConfig {
                    threads,
                    seed: 7,
                    termination: TerminationPolicy::search_size(512),
                    ..MapperConfig::default()
                });
                mapper.run(&space, Arc::clone(&evaluator), |_| {
                    Box::new(RandomSearch::new())
                })
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench_mapper_threads);

fn main() {
    benches();

    let evals_per_thread = report::env_evals("MM_MAPPER_BENCH_EVALS", 2000);
    let (model, space) = resnet_conv4();

    // The telemetry-layer A/Bs: journal-level and spans-level vs. off
    // throughput, gated by bench_gate at MM_GATE_TELEMETRY_TOL (default
    // 2 %) and MM_GATE_TELEMETRY_SPANS_TOL (default 3 %). Measured before
    // the headline sweep because they reset the telemetry registry — this
    // way the TELEMETRY_mapper.json sibling describes the sweep itself.
    //
    // The A/B gets its own eval floor: resolving a 2 % throughput delta
    // needs runs long enough that scheduler jitter averages out, so a small
    // CI-wide `MM_CI_BENCH_EVALS` must not starve the measurement. (The
    // zero-alloc hot path roughly doubled evals/sec, halving the wall time
    // a given budget buys — the floor keeps the A/B meaningful.)
    let ab_evals = evals_per_thread.max(5_000);
    let rel = measure_telemetry_overhead(&model, &space, ab_evals, 7, 15);
    let rel_spans =
        measure_telemetry_overhead_at(&model, &space, ab_evals, 7, 15, mm_telemetry::Level::Spans);

    // The headline sweep: iso-per-thread budgets, JSON summary.
    let mut result = run_mapper_scaling(&model, &space, &[1, 2, 4, 8], evals_per_thread, 7);
    result.telemetry_rel_throughput = Some(rel);
    result.telemetry_spans_rel_throughput = Some(rel_spans);

    let rows: Vec<Vec<String>> = result
        .points
        .iter()
        .map(|p| {
            vec![
                p.threads.to_string(),
                p.total_evaluations.to_string(),
                report::fmt(p.wall_time_s),
                report::fmt(p.evals_per_sec),
                report::fmt(p.speedup_vs_baseline),
                report::fmt(p.best_cost),
            ]
        })
        .collect();
    println!();
    println!(
        "mapper scaling on {} (baseline single-threaded drive loop: {} evals/s; {} core(s) available)",
        result.problem,
        report::fmt(result.baseline_evals_per_sec),
        result.available_parallelism
    );
    println!(
        "telemetry overhead: journal-level throughput at {:.1}% of telemetry-off, \
         spans-level at {:.1}%",
        rel * 100.0,
        rel_spans * 100.0
    );
    println!(
        "{}",
        report::format_table(
            &["threads", "evals", "wall_s", "evals/s", "speedup", "best_edp"],
            &rows
        )
    );
    match result.write_json() {
        Ok(path) => println!("wrote {}", path.display()),
        Err(e) => eprintln!("could not write BENCH_mapper.json: {e}"),
    }
}
