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
//! The same holds for the network part of a gradient-search step: encode,
//! backward from the kept activations, decode, forward — through one
//! reused set of buffers (`MapSpace::project`, which returns a fresh
//! mapping, is not part of the contract).
//!
//! This file deliberately holds a single `#[test]`: the counter is global,
//! so a sibling test running on another harness thread would alias it.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use mind_mappings::core::GradientScratch;
use mind_mappings::nn::ForwardCache;
use mind_mappings::prelude::*;
use mind_mappings::workloads::cnn::CnnFamily;
use rand::rngs::StdRng;
use rand::SeedableRng;

struct CountingAlloc;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

// SAFETY: delegates every operation to `System`; the counter is a relaxed
// side effect with no influence on the returned memory.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // A realloc that moves (or grows in place) is still allocator
        // traffic the hot path must not generate.
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

fn allocations() -> u64 {
    ALLOCATIONS.load(Ordering::Relaxed)
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
}
