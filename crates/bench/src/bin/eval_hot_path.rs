//! Eval hot-path micro-benchmark: single-core evals/second of the
//! evaluation paths, on the ResNet Conv_4 workload.
//!
//! * `reference walk` — `mm_accel::reuse::count_accesses`, the literal
//!   `TiledNest` + `reuse_factors` analysis the kernel is tested against
//!   (access counts only: no energy, cycles or EDP, so the printed
//!   kernel-vs-reference ratio understates the kernel's advantage);
//! * `analytic scalar (alloc)` — the public allocating
//!   [`CostModel::evaluate`] (the pre-PR-10 hot path);
//! * `analytic scalar (into)` — [`CostModel::evaluate_into`] through one
//!   reused [`EvalScratch`];
//! * `analytic batch (into)` — [`CostModel::evaluate_batch_into`] over
//!   reused batch columns;
//! * `surrogate batch` — the MLP's batched forward pass
//!   (`Surrogate::predict_normalized_edp_batch`), quick-scale training.
//!
//! Then the price of a proposal, in the same currency: ns per call of
//! [`MapSpace::random_mapping_into`], `neighbor_into`, `crossover_into` and
//! of [`MapSpace::repair`] on an already-valid mapping (copied into the slot
//! first), each as a multiple of one `evaluate_into`.
//!
//! And the surrogate's kernels (quick-scale network, one CNN surrogate): ns
//! per generated training sample, per training sample-epoch (`Surrogate::train`
//! wall over samples × epochs, the per-epoch test pass included), per
//! one-row forward pass and per input gradient, the last two through the
//! reused buffers a gradient-search step uses.
//!
//! Backs the EXPERIMENTS.md "Zero-alloc eval hot path", "Cost kernel",
//! "Proposal generation" and "Surrogate kernels and Phase 1" tables; the last lines printed are ns per
//! evaluation of the reference walk against the kernel and ns per proposal
//! against the kernel, so both ratios are visible in a CI log. Purely
//! informational — `BENCH_mapper.json` (regenerated by
//! `mapper_throughput`) is the artifact `bench_gate` checks. Tune with
//! `MM_EVAL_HOT_PATH_EVALS` (default 100000 analytic evaluations;
//! the surrogate runs 1/10 of that).

use mm_accel::reuse::count_accesses;
use mm_accel::{BatchCosts, CostModel, EvalScratch};
use mm_bench::report::{self, fmt, format_table, Stopwatch};
use mm_bench::ExperimentScale;
use mm_core::{generate_training_set, GradientScratch, Surrogate};
use mm_mapspace::mapping::Level;
use mm_mapspace::{MapSpace, Mapping};
use mm_nn::ForwardCache;
use mm_workloads::cnn::CnnFamily;
use mm_workloads::{evaluated_accelerator, table1};
use rand::rngs::StdRng;
use rand::SeedableRng;

const BATCH: usize = 64;

fn main() {
    let evals = report::env_evals("MM_EVAL_HOT_PATH_EVALS", 100_000) as usize;
    let target = table1::by_name("ResNet Conv_4").expect("table1 problem");
    let arch = evaluated_accelerator();
    let space = MapSpace::new(target.problem.clone(), arch.mapping_constraints());
    let model = CostModel::new(arch.clone(), target.problem.clone());
    let mut rng = StdRng::seed_from_u64(7);

    // One shared pool of valid mappings, cycled by every path, so each
    // path prices evaluation — not proposal generation.
    let pool: Vec<Mapping> = (0..1024).map(|_| space.random_mapping(&mut rng)).collect();
    let mut sink = 0.0f64;

    let rate = |count: usize, secs: f64| count as f64 / secs.max(1e-12);

    // The reference walk the kernel is held to (counts only).
    let watch = Stopwatch::start();
    for i in 0..evals {
        let counts = count_accesses(&target.problem, &pool[i % pool.len()]);
        sink += counts.total_at(Level::Dram) as f64;
    }
    let reference = rate(evals, watch.elapsed_s());

    // Analytic scalar, allocating (the pre-zero-alloc hot path).
    let watch = Stopwatch::start();
    for i in 0..evals {
        sink += model.evaluate(&pool[i % pool.len()]).edp;
    }
    let scalar_alloc = rate(evals, watch.elapsed_s());

    // Analytic scalar through a reused scratch.
    let mut scratch = EvalScratch::new();
    let watch = Stopwatch::start();
    for i in 0..evals {
        sink += model.evaluate_into(&mut scratch, &pool[i % pool.len()]).edp;
    }
    let scalar_into = rate(evals, watch.elapsed_s());

    // Analytic SoA batch kernel over reused columns.
    let mut costs = BatchCosts::new();
    let rounds = evals / BATCH;
    let watch = Stopwatch::start();
    for r in 0..rounds {
        let start = (r * BATCH) % (pool.len() - BATCH);
        model.evaluate_batch_into(&mut scratch, &pool[start..start + BATCH], &mut costs);
        sink += costs.summary(0).edp;
    }
    let batch_into = rate(rounds * BATCH, watch.elapsed_s());

    // Surrogate batched forward pass (quick-scale training: the table
    // compares throughput, not fidelity).
    let phase1 = ExperimentScale::quick().phase1_config();
    let mut train_rng = StdRng::seed_from_u64(0xE7A1);
    let watch = Stopwatch::start();
    let dataset = generate_training_set(
        &arch,
        &CnnFamily::default(),
        phase1.num_samples,
        phase1.mappings_per_problem,
        &mut train_rng,
    )
    .expect("dataset generates");
    let sample_ns = 1e9 * watch.elapsed_s() / phase1.num_samples as f64;
    let watch = Stopwatch::start();
    let (surrogate, _) =
        Surrogate::train(arch, &dataset, &phase1, &mut train_rng).expect("surrogate trains");
    let sample_epoch_ns =
        1e9 * watch.elapsed_s() / (phase1.num_samples * phase1.epochs.max(1)) as f64;
    let sur_evals = (evals / 10).max(BATCH);
    let sur_rounds = sur_evals / BATCH;
    let watch = Stopwatch::start();
    for r in 0..sur_rounds {
        let start = (r * BATCH) % (pool.len() - BATCH);
        let preds =
            surrogate.predict_normalized_edp_batch(&target.problem, &pool[start..start + BATCH]);
        sink += preds[0];
    }
    let surrogate_batch = rate(sur_rounds * BATCH, watch.elapsed_s());

    println!(
        "eval hot path on {} ({} analytic evals, batch size {BATCH}; checksum {sink:.3e})",
        target.problem.name, evals
    );
    let rows = vec![
        vec![
            "reference walk (counts only)".to_string(),
            fmt(reference),
            format!("{:.2}", reference / scalar_alloc),
        ],
        vec![
            "analytic scalar (alloc)".to_string(),
            fmt(scalar_alloc),
            "1.00".to_string(),
        ],
        vec![
            "analytic scalar (into)".to_string(),
            fmt(scalar_into),
            format!("{:.2}", scalar_into / scalar_alloc),
        ],
        vec![
            "analytic batch (into)".to_string(),
            fmt(batch_into),
            format!("{:.2}", batch_into / scalar_alloc),
        ],
        vec![
            "surrogate batch".to_string(),
            fmt(surrogate_batch),
            format!("{:.2}", surrogate_batch / scalar_alloc),
        ],
    ];
    println!(
        "{}",
        format_table(&["path", "evals/s", "vs alloc scalar"], &rows)
    );
    println!(
        "reference walk {:.0} ns/eval, kernel (into) {:.0} ns/eval: kernel is {:.2}x the reference",
        1e9 / reference,
        1e9 / scalar_into,
        scalar_into / reference
    );

    // Proposal generation, through reused slots as the searchers call it.
    let mut slot = Mapping::default();
    let mut timed = |name: &str, call: &mut dyn FnMut(usize, &mut Mapping, &mut StdRng)| {
        call(0, &mut slot, &mut rng); // the slot takes its shape
        let watch = Stopwatch::start();
        for i in 0..evals {
            call(i, &mut slot, &mut rng);
        }
        let ns = 1e9 * watch.elapsed_s() / evals as f64;
        std::hint::black_box(&slot);
        vec![
            name.to_string(),
            format!("{ns:.0}"),
            format!("{:.2}", ns * scalar_into / 1e9),
        ]
    };
    let rows = vec![
        timed("random_mapping_into", &mut |_, slot, rng| {
            space.random_mapping_into(slot, rng)
        }),
        timed("neighbor_into", &mut |i, slot, rng| {
            space.neighbor_into(&pool[i % pool.len()], slot, rng)
        }),
        timed("crossover_into", &mut |i, slot, rng| {
            let (a, b) = (&pool[i % pool.len()], &pool[(i + 1) % pool.len()]);
            space.crossover_into(a, b, slot, rng)
        }),
        timed("repair (valid mapping)", &mut |i, slot, _| {
            slot.clone_from(&pool[i % pool.len()]);
            space.repair(slot)
        }),
    ];
    println!(
        "{}",
        format_table(&["proposal path", "ns/call", "evaluate_into's"], &rows)
    );

    // The surrogate's kernels, through the buffers a gradient-search step
    // reuses.
    let xs: Vec<Vec<f32>> = pool
        .iter()
        .map(|m| surrogate.encode_normalized(&target.problem, m))
        .collect();
    let (mut cache, mut gradient) = (ForwardCache::default(), GradientScratch::default());
    let watch = Stopwatch::start();
    for i in 0..sur_evals {
        sink += surrogate.predict_normalized_edp_into(&xs[i % xs.len()], &mut cache);
    }
    let forward_ns = 1e9 * watch.elapsed_s() / sur_evals as f64;
    let watch = Stopwatch::start();
    for _ in 0..sur_evals {
        sink += f64::from(surrogate.normalized_edp_gradient_into(&cache, &mut gradient)[0]);
    }
    let gradient_ns = 1e9 * watch.elapsed_s() / sur_evals as f64;
    std::hint::black_box(sink);
    println!(
        "surrogate: {sample_ns:.0} ns/generated sample, {sample_epoch_ns:.0} ns/training \
         sample-epoch, {forward_ns:.0} ns/forward, {gradient_ns:.0} ns/input gradient"
    );
}
