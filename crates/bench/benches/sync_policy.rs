//! Sync-policy bench: mapper quality under every global-best sync policy
//! (off / anchor / annealed) at 1/2/4 disjoint shards, over conv1d + the
//! Table 1 set; plus a criterion micro-benchmark of a small policy-synced
//! mapper run.
//!
//! Writes a `BENCH_sync.json` summary under the results directory
//! (override with `MM_RESULTS_DIR`). Tune with `MM_SYNC_BENCH_EVALS`
//! (evaluations per problem per point; falls back to `MM_CI_BENCH_EVALS`,
//! default 2000) and `MM_SYNC_BENCH_THREADS` (worker threads, default 2).
//!
//! Quality numbers are iso-budget and deterministic per configuration
//! (incumbents are exchanged between rounds), so they are
//! machine-independent; only the wall-clock columns vary by host.

use std::sync::Arc;

use criterion::{criterion_group, Criterion};
use mm_accel::CostModel;
use mm_bench::{report, run_sync_bench};
use mm_mapper::{
    CostEvaluator, Mapper, MapperConfig, ModelEvaluator, SyncPolicy, TerminationPolicy,
};
use mm_mapspace::{MapSpace, ProblemSpec};
use mm_search::SimulatedAnnealing;
use mm_workloads::evaluated_accelerator;

/// Criterion view: wall-clock of a small fixed policy-synced mapper run.
fn bench_synced_mapper(c: &mut Criterion) {
    let arch = evaluated_accelerator();
    let problem = ProblemSpec::conv1d(1024, 7);
    let space = MapSpace::new(problem.clone(), arch.mapping_constraints());
    let evaluator: Arc<dyn CostEvaluator> =
        Arc::new(ModelEvaluator::edp(CostModel::new(arch, problem)));
    let mut group = c.benchmark_group("sync_policy");
    group.sample_size(10);
    for (label, sync) in [("off", SyncPolicy::Off), ("anchor", SyncPolicy::Anchor)] {
        group.bench_function(format!("conv1d/4shards/{label}/512evals"), |b| {
            b.iter(|| {
                Mapper::new(MapperConfig {
                    threads: 2,
                    shards: Some(4),
                    shard_space: true,
                    sync_interval: 16,
                    sync,
                    termination: TerminationPolicy::search_size(512),
                    ..MapperConfig::default()
                })
                .run(&space, Arc::clone(&evaluator), |_| {
                    Box::new(SimulatedAnnealing::default())
                })
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench_synced_mapper);

fn main() {
    benches();

    let evals = report::env_evals("MM_SYNC_BENCH_EVALS", 2000);
    let threads = report::env_u64("MM_SYNC_BENCH_THREADS", 2) as usize;
    let result = run_sync_bench(evals, threads, 7);

    println!();
    println!(
        "sync-policy sweep over {} problems x {} evals, {} worker thread(s) ({} core(s) available)",
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
                p.policy.clone(),
                p.shards.to_string(),
                format!("{:.4e}", p.geomean_best_edp),
                p.total_evaluations.to_string(),
                report::fmt(p.evals_per_sec),
                report::fmt(p.wall_s),
            ]
        })
        .collect();
    println!(
        "{}",
        report::format_table(
            &[
                "policy",
                "shards",
                "geomean_best_edp",
                "evals",
                "evals/s",
                "wall_s"
            ],
            &rows
        )
    );
    let path = result.write_json().expect("write BENCH_sync.json");
    println!("wrote {}", path.display());
}
