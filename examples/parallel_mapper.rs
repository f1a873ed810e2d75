//! Map ResNet Conv_4 onto the paper's 256-PE accelerator with the parallel
//! [`Mapper`]: the map space is sharded across search threads (each running
//! its own simulated-annealing instance over a deterministically derived RNG
//! stream), threads sync a shared best mapping, and Timeloop-style
//! termination policies bound the run.
//!
//! ```bash
//! cargo run --release --example parallel_mapper
//! # knobs:
//! MM_MAPPER_THREADS=8 MM_MAPPER_SEARCH_SIZE=20000 cargo run --release --example parallel_mapper
//! # disjoint map-space shards (loop-order/tiling slices):
//! MM_MAPPER_SHARDS=8 MM_MAPPER_SHARD_SPACE=1 cargo run --release --example parallel_mapper
//! # global-best sync policy (off | anchor | annealed):
//! MM_MAPPER_SHARDS=4 MM_MAPPER_SYNC=anchor cargo run --release --example parallel_mapper
//! ```

use std::sync::Arc;

use mind_mappings::prelude::*;
use mm_mapper::{
    Mapper, MapperConfig, ModelEvaluator, OptMetric, StopReason, SyncPolicy, TerminationPolicy,
};
use mm_search::AnnealingConfig;

fn env_u64(key: &str, default: u64) -> u64 {
    std::env::var(key)
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

fn main() {
    let threads = env_u64("MM_MAPPER_THREADS", 4) as usize;
    let search_size = env_u64("MM_MAPPER_SEARCH_SIZE", 8_000);
    let shards = env_u64("MM_MAPPER_SHARDS", threads as u64) as usize;
    let shard_space = env_u64("MM_MAPPER_SHARD_SPACE", 0) != 0;
    let sync = match std::env::var("MM_MAPPER_SYNC").as_deref() {
        Ok("anchor") => SyncPolicy::Anchor,
        Ok("annealed") => SyncPolicy::Annealed {
            start: 0.9,
            end: 0.1,
        },
        _ => SyncPolicy::Off,
    };

    let arch = evaluated_accelerator();
    let target = table1::by_name("ResNet Conv_4").expect("table 1 problem");
    let space = MapSpace::new(target.problem.clone(), arch.mapping_constraints());
    let model = CostModel::new(arch, target.problem.clone());
    let lower_bound = model.lower_bound().edp;

    println!("problem:    {}", target.problem);
    println!(
        "map space:  ~10^{:.1} mappings",
        space.log10_size_estimate()
    );
    println!(
        "threads:    {threads}, shards: {shards} (space sharding: {shard_space}, sync: {sync})"
    );
    println!("search:     {search_size} evaluations\n");

    // Optimize EDP first; break near-ties by DRAM traffic (a prioritized
    // optimization_metrics list, Timeloop-mapper style).
    let evaluator = Arc::new(ModelEvaluator::with_metrics(
        model.clone(),
        vec![OptMetric::Edp, OptMetric::LastLevelAccesses],
    ));

    let mapper = Mapper::new(MapperConfig {
        threads,
        shards: Some(shards),
        shard_space,
        seed: 1,
        sync_interval: 128,
        sync,
        termination: TerminationPolicy::search_size(search_size).with_victory_condition(2_000),
        ..MapperConfig::default()
    });
    let report = mapper.run(&space, evaluator, |_| {
        Box::new(SimulatedAnnealing::new(AnnealingConfig::default()))
    });

    println!(
        "evaluated {} mappings in {:.2}s  ({:.0} evals/s aggregate)",
        report.total_evaluations, report.wall_time_s, report.evals_per_sec
    );
    for t in &report.shards {
        let best = t
            .best
            .as_ref()
            .map_or(f64::INFINITY, |(_, eval)| eval.primary());
        println!(
            "  shard {}: {:>6} evals, best EDP {:.3e} J·s, stopped by {:?}",
            t.shard, t.evaluations, best, t.stop
        );
    }

    let (Some(best_mapping), Some(metrics)) =
        (report.best_mapping.as_ref(), report.best_metrics.as_ref())
    else {
        eprintln!("no mappings were evaluated — set MM_MAPPER_SEARCH_SIZE to at least 1");
        std::process::exit(1);
    };
    assert!(space.is_member(best_mapping));
    println!("\nbest mapping found:");
    println!("  EDP:           {:.3e} J·s", metrics.metrics[0]);
    println!("  DRAM accesses: {:.3e}", metrics.metrics[1]);
    println!(
        "  vs theoretical lower bound: {:.1}x",
        metrics.metrics[0] / lower_bound
    );
    let random_cost = {
        use rand::SeedableRng;
        let mut rng = rand::rngs::StdRng::seed_from_u64(99);
        let samples = 50;
        (0..samples)
            .map(|_| model.edp(&space.random_mapping(&mut rng)))
            .sum::<f64>()
            / samples as f64
    };
    println!(
        "  vs average random mapping:  {:.1}x better",
        random_cost / metrics.metrics[0]
    );

    if report.shards.iter().any(|t| t.stop == StopReason::Victory) {
        println!(
            "\n(some shards declared victory early — raise the victory condition to search longer)"
        );
    }
}
