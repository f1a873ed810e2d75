//! The zero-allocation contract, enforced by the allocator itself.
//!
//! A counting `#[global_allocator]` wraps `System`; after a warmup pass
//! (first-use growth of scratch rows, proposal slots, and RNG state) the
//! steady-state `neighbor_into → validate → evaluate_into` loop — and the
//! batched `evaluate_batch_into` kernel — must perform **zero** heap
//! allocations per evaluation. This is the machine-checked version of the
//! `// mm-lint: hot-path` tags: the lint bans allocation *tokens*, this
//! test bans allocation *behaviour*.
//!
//! The same holds for the loop the searchers actually run — fresh draws,
//! crossovers, and `SimulatedAnnealing` / `GeneticAlgorithm` driven
//! propose → `evaluate_into` → `report` through one [`ProposalBuf`], across
//! whole GA generations (an accepted SA move and a retired GA generation
//! hand their storage on instead of freeing it).
//!
//! The same holds for a whole gradient-search step: encode, backward from
//! the kept activations, decode, forward — through one reused set of
//! buffers — and, driven as `GradientProposer::propose` over one
//! [`ProposalBuf`], the projection into a kept mapping and the periodic
//! random injections too.
//!
//! And for Phase 1: `Trainer::fit` allocates its buffers during the first
//! mini-batch and nothing after it, however many batches and epochs follow.
//!
//! And for the service's warm path: a request answered wholly from the
//! result cache allocates its report and a fixed count besides.
//!
//! Allocations are counted per thread: the harness's main thread does its
//! own bookkeeping (its table of running tests, its channel's waker) after
//! it has spawned the test's thread, and on a busy two-core box that can
//! land milliseconds later, inside a measured window.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use mind_mappings::core::GradientScratch;
use mind_mappings::nn::optim::Sgd;
use mind_mappings::nn::{Dataset, ForwardCache, Loss, Matrix, Mlp, TrainConfig, Trainer};
use mind_mappings::prelude::*;
use mind_mappings::search::ProposalBuf;
use mind_mappings::workloads::cnn::CnnFamily;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

struct CountingAlloc;

thread_local! {
    /// Allocator calls made by this thread. Const-initialised and without a
    /// destructor, so reading it never allocates and it outlives every
    /// other thread-local of its thread.
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

fn count_one() {
    ALLOCATIONS.with(|count| count.set(count.get() + 1));
}

// SAFETY: delegates every operation to `System`; the counter is a
// thread-local side effect with no influence on the returned memory.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_one();
        unsafe { System.alloc(layout) }
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // A realloc that moves (or grows in place) is still allocator
        // traffic the hot path must not generate.
        count_one();
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

fn allocations() -> u64 {
    ALLOCATIONS.with(Cell::get)
}

#[test]
fn steady_state_eval_loop_allocates_nothing() {
    let arch = evaluated_accelerator();
    let problem = CnnLayer {
        name: "zero-alloc",
        n: 1,
        k: 64,
        c: 64,
        hw: 14,
        rs: 3,
    }
    .into_problem();
    let space = MapSpace::new(problem.clone(), arch.mapping_constraints());
    let model = CostModel::new(arch, problem);
    let mut rng = StdRng::seed_from_u64(11);

    let mut current = space.random_mapping(&mut rng);
    let mut best_cost = f64::INFINITY;
    let mut proposal = current.clone();
    let mut scratch = EvalScratch::new();

    let mut hill_climb_step =
        |current: &mut Mapping, proposal: &mut Mapping, best: &mut f64, rng: &mut StdRng| {
            space.neighbor_into(current, proposal, rng);
            assert!(space.validate(proposal).is_ok());
            let cost = model.evaluate_into(&mut scratch, proposal);
            if cost.edp < *best {
                *best = cost.edp;
                std::mem::swap(current, proposal);
            }
        };

    // Warmup: first-use growth of scratch rows and mapping storage.
    for _ in 0..64 {
        hill_climb_step(&mut current, &mut proposal, &mut best_cost, &mut rng);
    }

    let before = allocations();
    for _ in 0..512 {
        hill_climb_step(&mut current, &mut proposal, &mut best_cost, &mut rng);
    }
    let scalar_allocs = allocations() - before;
    assert_eq!(
        scalar_allocs, 0,
        "scalar hot path allocated {scalar_allocs} times over 512 evals after warmup"
    );

    // The batch kernel over a reused buffer must be equally silent.
    let batch: Vec<Mapping> = (0..32).map(|_| space.random_mapping(&mut rng)).collect();
    let mut costs = BatchCosts::new();
    model.evaluate_batch_into(&mut scratch, &batch, &mut costs); // warmup growth

    let before = allocations();
    for _ in 0..16 {
        model.evaluate_batch_into(&mut scratch, &batch, &mut costs);
    }
    let batch_allocs = allocations() - before;
    assert_eq!(
        batch_allocs, 0,
        "batch hot path allocated {batch_allocs} times over 16x32 evals after warmup"
    );
    assert_eq!(costs.len(), batch.len());
    assert!(best_cost.is_finite());

    surrogate_step_allocates_nothing(&space, &batch, &mut rng);
    proposal_loop_allocates_nothing(&space, &model, &mut scratch, &mut rng);
}

/// Steady-state training: a `fit` of five epochs allocates exactly as often
/// as a `fit` of one — the split, the gathered test rows, the history and
/// the first mini-batch's buffers — so every batch after the first, the
/// short last batch of an epoch and the per-epoch test pass included,
/// allocates nothing. The network is the benchmark's `phase1()` surrogate.
#[test]
fn training_allocates_nothing_after_the_first_batch() {
    let mut rng = StdRng::seed_from_u64(22);
    let widths = [62, 64, 128, 64, 12];
    // 270 training rows: four batches of 64 and one of 14 per epoch.
    let rows = 300;
    let column = |width: usize, rng: &mut StdRng| {
        let data = (0..rows * width).map(|_| rng.gen_range(-1.0f32..1.0));
        Matrix::from_vec(rows, width, data.collect())
    };
    let dataset = Dataset::from_matrices(column(62, &mut rng), column(12, &mut rng)).unwrap();
    let model = Mlp::new(&widths, &mut rng);

    let mut allocations_of = |epochs: usize| {
        let mut model = model.clone();
        let mut optimizer = Sgd::new(5e-3, 0.9);
        let mut trainer = Trainer::new(TrainConfig {
            epochs,
            batch_size: 64,
            test_fraction: 0.1,
            lr_schedule: None,
        });
        let before = allocations();
        let history = trainer.fit(
            &mut model,
            &dataset,
            &mut optimizer,
            Loss::default_huber(),
            &mut rng,
        );
        let count = allocations() - before;
        assert_eq!(history.train_loss.len(), epochs);
        assert!(history.final_test_loss().is_finite());
        count
    };
    let (one_epoch, five_epochs) = (allocations_of(1), allocations_of(5));
    assert!(one_epoch > 0, "the first batch sizes every buffer");
    assert_eq!(
        five_epochs,
        one_epoch,
        "20 further training batches allocated {} times",
        five_epochs.abs_diff(one_epoch)
    );
}

/// A replayed request — every layer answered from the result cache —
/// allocates what cloning its own report does plus a fixed count (its
/// search tag, its plan, the parked result), however many layers it has:
/// once a problem has been seen, fingerprinting its layer allocates nothing.
#[test]
fn a_cached_replay_allocates_its_report_and_a_fixed_count() {
    // Journal events and telemetry snapshots allocate per layer and per
    // request by design; the contract is about the service's own work, and
    // no other test in this binary allocates differently by level.
    let level = mm_telemetry::level();
    mm_telemetry::set_level(mm_telemetry::Level::Off);
    const FIXED: u64 = 8;

    let network = table1_network();
    let mut service = MappingService::new(
        evaluated_accelerator(),
        ServiceConfig::default().with_workers(1),
    );
    let config = RequestConfig::default()
        .with_search_size(16)
        .with_tenant("tenant0");
    service.map_network_with(&network, config.clone());
    let mut replay = || {
        let config = config.clone();
        let before = allocations();
        let handle = service.submit(&network, config).expect("admitted");
        let report = service.wait(handle).expect("replayed");
        (allocations() - before, report)
    };
    // Warm-up: the service's maps and counters take their shape.
    for _ in 0..4 {
        replay();
    }
    let (replay_allocs, report) = replay();
    mm_telemetry::set_level(level);

    assert_eq!(report.cache_hits, network.len());
    let before = allocations();
    let copy = report.clone();
    let clone_allocs = allocations() - before;
    assert_eq!(copy.layers.len(), network.len());
    assert!(
        replay_allocs <= clone_allocs + FIXED,
        "a {}-layer replay allocated {replay_allocs} times; cloning its report {clone_allocs}",
        network.len()
    );
}

/// Proposal generation and the searchers' report path: after warm-up, fresh
/// draws, crossovers and the driven SA and GA loops must not allocate.
fn proposal_loop_allocates_nothing(
    space: &MapSpace,
    model: &CostModel,
    scratch: &mut EvalScratch,
    rng: &mut StdRng,
) {
    let (mut a, mut b, mut child) = (Mapping::default(), Mapping::default(), Mapping::default());
    let mut draw_and_cross = |rng: &mut StdRng| {
        space.random_mapping_into(&mut a, rng);
        space.random_mapping_into(&mut b, rng);
        space.crossover_into(&a, &b, &mut child, rng);
        assert!(space.validate(&child).is_ok());
    };
    draw_and_cross(rng); // warmup: the three mappings take their shape
    let before = allocations();
    for _ in 0..256 {
        draw_and_cross(rng);
    }
    let draw_allocs = allocations() - before;
    assert_eq!(
        draw_allocs, 0,
        "random_mapping_into / crossover_into allocated {draw_allocs} times over 256 rounds"
    );

    // The driven loop, as `drive` and the `Mapper` run it. The GA's
    // population is the default 100: a generation is 98 reports, and
    // storage cycles once two generations have retired.
    const GENERATION: u64 = 100;
    let searchers: [(Box<dyn ProposalSearch>, u64, u64); 2] = [
        (Box::new(SimulatedAnnealing::default()), 256, 1024),
        (
            Box::new(GeneticAlgorithm::default()),
            4 * GENERATION,
            4 * GENERATION,
        ),
    ];
    for (mut searcher, warmup, measured) in searchers {
        searcher.begin(space, Some(warmup + measured), rng);
        let mut buf = ProposalBuf::new();
        let mut best = f64::INFINITY;
        let mut evals = 0u64;
        let mut run = |until: u64, rng: &mut StdRng| {
            while evals < until {
                buf.clear();
                searcher.propose(space, rng, searcher.lookahead().min(64), &mut buf);
                assert!(
                    !buf.is_empty(),
                    "a searcher with nothing in flight proposes"
                );
                for mapping in buf.iter() {
                    let cost = model.evaluate_into(scratch, mapping).edp;
                    best = best.min(cost);
                    searcher.report(mapping, cost, rng);
                    evals += 1;
                }
            }
        };
        run(warmup, rng);
        let before = allocations();
        run(warmup + measured, rng);
        let loop_allocs = allocations() - before;
        assert_eq!(
            loop_allocs,
            0,
            "{} propose -> evaluate_into -> report allocated {loop_allocs} times over \
             {measured} evaluations after warmup",
            searcher.name()
        );
        assert!(best.is_finite());
    }
}

/// The network part of a Phase-2 step over reused buffers: after warm-up,
/// 256 rounds of encode → backward from the kept activations → step →
/// decode → forward (kept for the next round) must not allocate.
fn surrogate_step_allocates_nothing(space: &MapSpace, mappings: &[Mapping], rng: &mut StdRng) {
    let phase1 = Phase1Config {
        num_samples: 200,
        hidden_layers: vec![24, 40, 9],
        epochs: 1,
        ..Phase1Config::quick()
    };
    let (mm, _) = MindMappings::train(evaluated_accelerator(), &CnnFamily::default(), &phase1, rng)
        .expect("phase 1");
    let surrogate = mm.surrogate();
    let problem = space.problem();

    let (mut x, mut raw) = (Vec::new(), Vec::new());
    let mut activations = ForwardCache::default();
    let mut scratch = GradientScratch::default();
    let mut checksum = 0.0f64;
    let mut round = |m: &Mapping| {
        surrogate.encode_normalized_into(problem, m, &mut x);
        checksum += surrogate.predict_normalized_edp_into(&x, &mut activations);
        let grad = surrogate.normalized_edp_gradient_into(&activations, &mut scratch);
        for (xi, g) in x.iter_mut().zip(grad) {
            *xi -= 0.5 * g;
        }
        surrogate.decode_normalized_into(&x, &mut raw);
        checksum += surrogate.predict_normalized_edp_into(&x, &mut activations);
    };

    // Warmup: first-use growth of the encode/decode vectors, the per-layer
    // activation matrices and the backward buffers.
    round(&mappings[0]);

    let before = allocations();
    for i in 0..256 {
        round(&mappings[i % mappings.len()]);
    }
    let step_allocs = allocations() - before;
    assert_eq!(
        step_allocs, 0,
        "surrogate step allocated {step_allocs} times over 256 rounds after warmup"
    );
    assert!(checksum.is_finite() && raw.len() == x.len() - problem.num_dims());

    // The whole step as the `Mapper` drives it: gradient, projection,
    // forward, and an injection every tenth step (its acceptance swaps
    // mappings and buffers, so both sides must have been warmed).
    let mut proposer =
        GradientProposer::new(surrogate, problem.clone(), Phase2Config::default()).expect("family");
    proposer.begin(space, None, rng);
    let mut buf = ProposalBuf::new();
    let mut propose = |rng: &mut StdRng| {
        buf.clear();
        proposer.propose(space, rng, 32, &mut buf);
        assert!(!buf.is_empty());
    };
    for _ in 0..8 {
        propose(rng);
    }
    let before = allocations();
    for _ in 0..32 {
        propose(rng);
    }
    let propose_allocs = allocations() - before;
    assert_eq!(
        propose_allocs, 0,
        "GradientProposer::propose allocated {propose_allocs} times over 32 batches after warmup"
    );
    assert!(buf.iter().all(|m| space.is_member(m)));
}
