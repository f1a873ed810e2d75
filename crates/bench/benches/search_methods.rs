//! Criterion bench: per-step cost of each search method (experiment E11).
//!
//! Measures the wall-clock cost of a fixed small number of search steps for
//! SA, GA, RL, random search, and the Mind Mappings gradient search; the
//! paper reports MM to be 153.7x / 286.8x / 425.5x faster per step than
//! SA / GA / RL because the baselines must query the (expensive) reference
//! cost model while MM queries its surrogate.

use criterion::{criterion_group, criterion_main, Criterion};
use mm_accel::CostModel;
use mm_bench::{train_surrogate, ExperimentScale};
use mm_core::{CostModelObjective, GradientSearch, Phase2Config};
use mm_mapspace::MapSpace;
use mm_search::{
    drive, AnnealingConfig, Budget, DdpgAgent, DdpgConfig, GeneticAlgorithm, GeneticConfig,
    RandomSearch, SimulatedAnnealing,
};
use mm_workloads::evaluated_accelerator;
use mm_workloads::table1::{self, Algorithm};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn bench_search_steps(c: &mut Criterion) {
    let target = table1::by_name("ResNet Conv_4").expect("table1 problem");
    let problem = target.problem;
    let arch = evaluated_accelerator();
    let space = MapSpace::new(problem.clone(), arch.mapping_constraints());
    let model = CostModel::new(arch, problem.clone());

    let mut rng = StdRng::seed_from_u64(11);
    let scale = ExperimentScale::quick();
    let (surrogate, _) = train_surrogate(Algorithm::CnnLayer, &scale, &mut rng).expect("surrogate");

    let budget = Budget::iterations(64);
    let mut group = c.benchmark_group("search_steps_64");
    group.sample_size(10);

    group.bench_function("Random", |b| {
        b.iter(|| {
            let mut rng = StdRng::seed_from_u64(1);
            let mut obj = CostModelObjective::new(model.clone());
            let mut searcher = RandomSearch::new();
            drive(&mut searcher, &space, &mut obj, budget, &mut rng)
        })
    });
    group.bench_function("SA", |b| {
        b.iter(|| {
            let mut rng = StdRng::seed_from_u64(2);
            let mut obj = CostModelObjective::new(model.clone());
            let mut searcher = SimulatedAnnealing::new(AnnealingConfig::default());
            drive(&mut searcher, &space, &mut obj, budget, &mut rng)
        })
    });
    group.bench_function("GA", |b| {
        b.iter(|| {
            let mut rng = StdRng::seed_from_u64(3);
            let mut obj = CostModelObjective::new(model.clone());
            let mut searcher = GeneticAlgorithm::new(GeneticConfig {
                population: 16,
                ..GeneticConfig::default()
            });
            drive(&mut searcher, &space, &mut obj, budget, &mut rng)
        })
    });
    group.bench_function("RL", |b| {
        b.iter(|| {
            let mut rng = StdRng::seed_from_u64(4);
            let mut obj = CostModelObjective::new(model.clone());
            let mut searcher = DdpgAgent::new(DdpgConfig {
                warmup: 16,
                batch_size: 8,
                ..DdpgConfig::default()
            });
            drive(&mut searcher, &space, &mut obj, budget, &mut rng)
        })
    });
    group.bench_function("MM", |b| {
        let gs = GradientSearch::new(&surrogate, problem.clone(), Phase2Config::default())
            .expect("family match");
        b.iter(|| {
            let mut rng = StdRng::seed_from_u64(5);
            gs.best_mapping(budget, &mut rng)
        })
    });
    group.finish();
}

criterion_group!(benches, bench_search_steps);
criterion_main!(benches);
