//! Isolated loops: one public entry point of one layer, called over a fixed
//! pool of valid mappings, with nothing else on the clock.
//!
//! These are the per-layer numbers that do not depend on the workload. They
//! are the second way of measuring a layer; the decorators of the traced
//! rounds are the first, and README.md says how far the two may differ.

use std::hint::black_box;
use std::sync::Arc;
use std::time::{Duration, Instant};

use mm_accel::{BatchCosts, EvalScratch};
use mm_core::Surrogate;
use mm_mapper::{CostEvaluator, EvalPool, ModelEvaluator};
use mm_mapspace::{Encoding, MapSpaceView, Mapping};
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::common::{LayerMetrics, Problem};
use crate::inputs::Prng;
use crate::metrics::name;
use crate::proc::Placement;

/// Valid mappings per problem in the pool.
pub const POOL_PER_PROBLEM: usize = 4_096;
/// Batch size of the batched entry points.
pub const BATCH: usize = 64;
/// Each loop repeats whole passes over the pool until this much time is on
/// the clock, so a 100 ns call and a 20 µs call are both resolved.
const MIN_LOOP: Duration = Duration::from_millis(40);

/// A seeded pool of valid mappings for each problem.
pub struct Pool {
    pub per_problem: Vec<Vec<Mapping>>,
    rng: StdRng,
}

impl Pool {
    pub fn new(seed: u64, problems: &[Problem], per_problem: usize) -> Self {
        let mut rng = StdRng::seed_from_u64(Prng::new(seed, "iso.pool").next_u64());
        let per_problem = problems
            .iter()
            .map(|p| {
                (0..per_problem)
                    .map(|_| p.space.random_mapping(&mut rng))
                    .collect()
            })
            .collect();
        Pool { per_problem, rng }
    }
}

/// Nanoseconds per call: `pass` runs the calls of one pass over the pool
/// and returns how many it made.
fn ns_per_call(mut pass: impl FnMut() -> usize) -> f64 {
    ns_per_prepared_call(|| (), |()| pass())
}

/// As [`ns_per_call`], with `prepare` run off the clock before each pass.
fn ns_per_prepared_call<T>(
    mut prepare: impl FnMut() -> T,
    mut pass: impl FnMut(T) -> usize,
) -> f64 {
    let mut on_clock = Duration::ZERO;
    let mut calls = 0usize;
    loop {
        let input = prepare();
        let start = Instant::now();
        calls += pass(input);
        on_clock += start.elapsed();
        if on_clock >= MIN_LOOP && calls > 0 {
            return on_clock.as_nanos() as f64 / calls as f64;
        }
    }
}

/// `accel.evaluate_ns`, `accel.evaluate_batch_ns`.
pub fn accel(problems: &[Problem], pool: &Pool, out: &mut LayerMetrics) {
    let mut scratch = EvalScratch::new();
    out.insert(
        name::ACCEL_EVALUATE_NS,
        ns_per_call(|| {
            for (p, mappings) in problems.iter().zip(&pool.per_problem) {
                for m in mappings {
                    black_box(p.model.evaluate_into(&mut scratch, black_box(m)));
                }
            }
            pool.per_problem.iter().map(Vec::len).sum()
        }),
    );
    let mut costs = BatchCosts::new();
    out.insert(
        name::ACCEL_EVALUATE_BATCH_NS,
        ns_per_call(|| {
            for (p, mappings) in problems.iter().zip(&pool.per_problem) {
                for batch in mappings.chunks(BATCH) {
                    p.model
                        .evaluate_batch_into(&mut scratch, black_box(batch), &mut costs);
                    black_box(costs.len());
                }
            }
            pool.per_problem.iter().map(Vec::len).sum()
        }),
    );
}

/// The six `mapspace.*_ns` loops.
pub fn mapspace(problems: &[Problem], pool: &mut Pool, out: &mut LayerMetrics) {
    let total: usize = pool.per_problem.iter().map(Vec::len).sum();
    let rng = &mut pool.rng;
    let per_problem = &pool.per_problem;
    let mut slot = Mapping::default();

    out.insert(
        name::MAPSPACE_RANDOM_INTO_NS,
        ns_per_call(|| {
            for (p, mappings) in problems.iter().zip(per_problem) {
                for _ in 0..mappings.len() {
                    p.space.random_mapping_into(&mut slot, rng);
                    black_box(&slot);
                }
            }
            total
        }),
    );
    out.insert(
        name::MAPSPACE_NEIGHBOR_INTO_NS,
        ns_per_call(|| {
            for (p, mappings) in problems.iter().zip(per_problem) {
                for m in mappings {
                    p.space.neighbor_into(black_box(m), &mut slot, rng);
                    black_box(&slot);
                }
            }
            total
        }),
    );
    out.insert(
        name::MAPSPACE_CROSSOVER_INTO_NS,
        ns_per_call(|| {
            for (p, mappings) in problems.iter().zip(per_problem) {
                for pair in mappings.windows(2) {
                    p.space
                        .crossover_into(black_box(&pair[0]), &pair[1], &mut slot, rng);
                    black_box(&slot);
                }
            }
            total - per_problem.len()
        }),
    );
    out.insert(
        name::MAPSPACE_VALIDATE_NS,
        ns_per_call(|| {
            for (p, mappings) in problems.iter().zip(per_problem) {
                for m in mappings {
                    black_box(p.space.validate(black_box(m)).is_ok());
                }
            }
            total
        }),
    );

    // Projection input: each pool mapping's encoded vector pushed off the
    // valid grid, as a gradient step leaves it.
    let off_grid: Vec<Vec<Vec<f32>>> = problems
        .iter()
        .zip(per_problem)
        .map(|(p, mappings)| {
            let enc = Encoding::for_problem(&p.spec);
            mappings
                .iter()
                .map(|m| {
                    enc.encode_mapping(&p.spec, m)
                        .iter()
                        .map(|v| v * 1.37 + 0.25)
                        .collect()
                })
                .collect()
        })
        .collect();
    out.insert(
        name::MAPSPACE_PROJECT_NS,
        ns_per_call(|| {
            for (p, vectors) in problems.iter().zip(&off_grid) {
                for v in vectors {
                    black_box(p.space.project(black_box(v)).is_ok());
                }
            }
            total
        }),
    );

    let shards: Vec<_> = problems.iter().map(|p| p.space.shard(0, 4)).collect();
    out.insert(
        name::MAPSPACE_SHARD_RANDOM_INTO_NS,
        ns_per_call(|| {
            for (shard, mappings) in shards.iter().zip(per_problem) {
                for _ in 0..mappings.len() {
                    shard.random_mapping_into(&mut slot, rng);
                    black_box(&slot);
                }
            }
            total
        }),
    );
}

/// `mapper.pool_single_ns`, `mapper.pool_batch_ns`: submit → receive per
/// mapping through an [`EvalPool`] of the run's pool-worker count, one mapping in
/// flight and one batch of [`BATCH`] in flight.
///
/// # Errors
///
/// When the pool's threads cannot be placed.
pub fn eval_pool(
    problems: &[Problem],
    pool: &Pool,
    placement: &Placement,
    out: &mut LayerMetrics,
) -> Result<(), String> {
    let Some((problem, mappings)) = problems.first().zip(pool.per_problem.first()) else {
        return Ok(());
    };
    let evaluator: Arc<dyn CostEvaluator> = Arc::new(ModelEvaluator::edp(problem.model.clone()));
    let mut eval_pool =
        placement.spawn_workers(|| EvalPool::new(evaluator, placement.pool_workers()))?;
    out.insert(
        name::MAPPER_POOL_SINGLE_NS,
        // `submit` takes the mapping: clone off the clock.
        ns_per_prepared_call(
            || mappings.to_vec(),
            |owned| {
                let n = owned.len();
                for m in owned {
                    eval_pool.submit(m);
                    black_box(eval_pool.recv());
                }
                n
            },
        ),
    );
    out.insert(
        name::MAPPER_POOL_BATCH_NS,
        ns_per_call(|| {
            for batch in mappings.chunks(BATCH) {
                black_box(eval_pool.evaluate_batch(black_box(batch)).len());
            }
            mappings.len()
        }),
    );
    Ok(())
}

/// `nn.forward_batch_ns`, `nn.input_gradient_us`, `core.gradient_us`,
/// `core.encode_us` on a trained surrogate of `problem`'s family.
pub fn surrogate(
    problem: &Problem,
    mappings: &[Mapping],
    surrogate: &Surrogate,
    out: &mut LayerMetrics,
) {
    let xs: Vec<Vec<f32>> = mappings
        .iter()
        .map(|m| surrogate.encode_normalized(&problem.spec, m))
        .collect();
    let mlp = surrogate.mlp();
    out.insert(
        name::NN_FORWARD_BATCH_NS,
        ns_per_call(|| {
            for batch in xs.chunks(BATCH) {
                black_box(mlp.predict_batch(black_box(batch)).len());
            }
            xs.len()
        }),
    );
    let weights = vec![1.0f32; mlp.output_dim()];
    out.insert(
        name::NN_INPUT_GRADIENT_US,
        ns_per_call(|| {
            for x in &xs {
                black_box(mlp.input_gradient(black_box(x), &weights));
            }
            xs.len()
        }) / 1e3,
    );
    out.insert(
        name::CORE_GRADIENT_US,
        ns_per_call(|| {
            for x in &xs {
                black_box(surrogate.normalized_edp_gradient(black_box(x)));
            }
            xs.len()
        }) / 1e3,
    );
    out.insert(
        name::CORE_ENCODE_US,
        ns_per_call(|| {
            for m in mappings {
                black_box(surrogate.encode_normalized(&problem.spec, black_box(m)));
            }
            mappings.len()
        }) / 1e3,
    );
}
