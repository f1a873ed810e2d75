//! Shard-scaling bench: sharded mapper quality/coverage across 1/2/4/8
//! pairwise-disjoint map-space shards over conv1d + the Table 1 set; plus a
//! criterion micro-benchmark of a small sharded mapper run.
//!
//! Writes a `BENCH_shard.json` summary under the results directory
//! (override with `MM_RESULTS_DIR`). Tune with `MM_SHARD_BENCH_EVALS`
//! (evaluations per problem per point; falls back to `MM_CI_BENCH_EVALS`,
//! default 2000) and `MM_SHARD_BENCH_THREADS` (worker threads, default 2).
//!
//! Quality numbers are iso-budget and deterministic per configuration; the
//! wall-clock columns only show parallel speedups on ≥ 2 usable cores
//! (`available_parallelism` is recorded in the JSON — see EXPERIMENTS.md).

use std::sync::Arc;

use criterion::{criterion_group, Criterion};
use mm_accel::CostModel;
use mm_bench::{report, run_shard_bench};
use mm_mapper::{CostEvaluator, Mapper, MapperConfig, ModelEvaluator, TerminationPolicy};
use mm_mapspace::{MapSpace, ProblemSpec};
use mm_search::RandomSearch;
use mm_workloads::evaluated_accelerator;

/// Criterion view: wall-clock of a small fixed sharded mapper run.
fn bench_sharded_mapper(c: &mut Criterion) {
    let arch = evaluated_accelerator();
    let problem = ProblemSpec::conv1d(1024, 7);
    let space = MapSpace::new(problem.clone(), arch.mapping_constraints());
    let evaluator: Arc<dyn CostEvaluator> =
        Arc::new(ModelEvaluator::edp(CostModel::new(arch, problem)));
    let mut group = c.benchmark_group("shard_scaling");
    group.sample_size(10);
    for shards in [1usize, 4] {
        group.bench_function(format!("conv1d/{shards}shards/512evals"), |b| {
            b.iter(|| {
                Mapper::new(MapperConfig {
                    threads: 2,
                    shards: Some(shards),
                    shard_space: shards > 1,
                    termination: TerminationPolicy::search_size(512),
                    ..MapperConfig::default()
                })
                .run(&space, Arc::clone(&evaluator), |_| {
                    Box::new(RandomSearch::new())
                })
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench_sharded_mapper);

fn main() {
    benches();

    let evals = report::env_evals("MM_SHARD_BENCH_EVALS", 2000);
    let threads = report::env_u64("MM_SHARD_BENCH_THREADS", 2) as usize;
    let result = run_shard_bench(evals, threads, 7);

    println!();
    println!(
        "sharded mapper over {} problems x {} evals, {} worker thread(s) ({} core(s) available)",
        result.problems.len(),
        result.evals_per_problem,
        result.threads,
        result.available_parallelism
    );
    let rows: Vec<Vec<String>> = result
        .points
        .iter()
        .map(|p| {
            vec![
                p.shards.to_string(),
                format!("{:.4e}", p.geomean_best_edp),
                p.distinct_best_l2_orders.to_string(),
                p.total_evaluations.to_string(),
                report::fmt(p.wall_s),
            ]
        })
        .collect();
    println!(
        "{}",
        report::format_table(
            &[
                "shards",
                "geomean_best_edp",
                "distinct_L2_orders",
                "evals",
                "wall_s"
            ],
            &rows
        )
    );
    let path = result.write_json().expect("write BENCH_shard.json");
    println!("wrote {}", path.display());
}
