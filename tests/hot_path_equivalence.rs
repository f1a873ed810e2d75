//! The cost kernel against an oracle that is not itself.
//!
//! `CostModel::evaluate_into` is the one cost kernel: `evaluate`,
//! `evaluate_batch_into` and every `CostEvaluator` are wrappers around it,
//! so none of them can serve as its reference. The reference here is built
//! inside this file from the literal loop-nest walk
//! `mm_accel::reuse::count_accesses` (materialise the `TiledNest`, ask
//! `reuse_factors` about each block, tensor by tensor) and the public
//! `Architecture` fields: energy rows, their level-major sum plus compute
//! energy, bandwidth-limited cycles, utilization, EDP. Every integer and
//! every float the kernel produces must match it *to the bit*
//! (`f64::to_bits`), on valid mappings and on out-of-space ones alike —
//! otherwise the fast path is silently a different cost model and every
//! checked-in baseline lies.
//!
//! The golden-fixture replay closes the loop end to end: the pinned mapper
//! scenario from `golden_determinism` re-run through the batched pool at
//! 1, 2, and 4 workers must still reproduce the checked-in canonical bytes.

use std::path::PathBuf;
use std::sync::Arc;

use mind_mappings::accel::reuse::{count_accesses, AccessCounts};
use mind_mappings::mapspace::mapping::Level;
use mind_mappings::prelude::*;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// The cost of one mapping, derived without the kernel.
struct Reference {
    accesses: AccessCounts,
    energy_pj: Vec<Vec<f64>>,
    summary: CostSummary,
}

fn reference_cost(arch: &Architecture, problem: &ProblemSpec, mapping: &Mapping) -> Reference {
    let accesses = count_accesses(problem, mapping);
    let energy_pj: Vec<Vec<f64>> = Level::ALL
        .iter()
        .map(|&level| {
            (0..problem.num_tensors())
                .map(|t| {
                    accesses.tensor_at(level, t) as f64 * arch.level(level).energy_per_access_pj
                })
                .collect()
        })
        .collect();
    let padded_macs = mapping.padded_macs(problem) as f64;
    let compute_energy_pj = padded_macs * arch.mac_energy_pj;
    let total_energy_pj = energy_pj.iter().flatten().sum::<f64>() + compute_energy_pj;

    let active_pes = mapping.active_pes().min(arch.num_pes) as f64;
    let mac_rate = active_pes * arch.macs_per_pe_per_cycle as f64;
    let (cycles, utilization) = if mac_rate > 0.0 {
        let mut cycles = padded_macs / mac_rate;
        for level in Level::ALL {
            let bandwidth = arch.level(level).bandwidth_words_per_cycle.max(1e-9);
            cycles = cycles.max(accesses.total_at(level) as f64 / bandwidth);
        }
        let achieved = problem.total_macs() as f64 / cycles;
        let utilization = (achieved / arch.peak_macs_per_cycle() as f64).clamp(0.0, 1.0);
        (cycles, utilization)
    } else {
        (f64::INFINITY, 0.0)
    };
    let edp = (total_energy_pj * 1e-12) * (cycles * arch.cycle_time_s());

    Reference {
        summary: CostSummary {
            compute_energy_pj,
            total_energy_pj,
            cycles,
            utilization,
            edp,
            last_level_accesses: accesses.total_at(Level::Dram),
        },
        accesses,
        energy_pj,
    }
}

fn assert_summary_bits(reference: &CostSummary, fast: &CostSummary, what: &str) {
    let floats = [
        (
            "compute_energy_pj",
            reference.compute_energy_pj,
            fast.compute_energy_pj,
        ),
        (
            "total_energy_pj",
            reference.total_energy_pj,
            fast.total_energy_pj,
        ),
        ("cycles", reference.cycles, fast.cycles),
        ("utilization", reference.utilization, fast.utilization),
        ("edp", reference.edp, fast.edp),
    ];
    for (name, want, got) in floats {
        assert_eq!(
            want.to_bits(),
            got.to_bits(),
            "{what}: {name} diverged ({want} vs {got})"
        );
    }
    assert_eq!(
        reference.last_level_accesses, fast.last_level_accesses,
        "{what}: last_level_accesses diverged"
    );
}

/// Hold one `evaluate_into` result — summary, access counts and energy
/// rows — to the reference.
fn assert_kernel_matches(
    model: &CostModel,
    scratch: &mut EvalScratch,
    mapping: &Mapping,
    what: &str,
) {
    let reference = reference_cost(model.arch(), model.problem(), mapping);
    let fast = model.evaluate_into(scratch, mapping);
    assert_summary_bits(&reference.summary, &fast, what);
    assert_eq!(
        &reference.accesses,
        scratch.accesses(),
        "{what}: access counts diverged"
    );
    let bits = |rows: &[Vec<f64>]| -> Vec<Vec<u64>> {
        rows.iter()
            .map(|row| row.iter().map(|e| e.to_bits()).collect())
            .collect()
    };
    assert_eq!(
        bits(&reference.energy_pj),
        bits(scratch.energy_pj()),
        "{what}: per-level energy rows diverged"
    );
}

/// A valid mapping plus deliberately out-of-space mutants of it: the cost
/// model is total over the encoding, so the kernel must agree with the
/// reference off the feasible set too (the searcher evaluates repaired
/// proposals, but the contract is on the whole domain). The last two members
/// carry zero-valued tiles and parallelism, which the model reads as 1.
fn mapping_family(space: &MapSpace, rng: &mut StdRng) -> Vec<Mapping> {
    let valid = space.random_mapping(rng);
    let mut oversized = valid.clone();
    for tile in &mut oversized.tiles[0] {
        *tile = tile.saturating_mul(3);
    }
    let mut starved = valid.clone();
    for alloc in &mut starved.buffer_alloc {
        for frac in alloc.iter_mut() {
            *frac = (*frac * 0.01).max(1e-6);
        }
    }
    let mut overfanned = valid.clone();
    for par in &mut overfanned.parallel {
        *par = par.saturating_mul(7);
    }
    // Every other entry zero (tiles and fan-out out of phase), then all zero.
    let mut holed = valid.clone();
    for (d, par) in holed.parallel.iter_mut().enumerate() {
        if d % 2 == 0 {
            *par = 0;
        } else {
            holed.tiles[0][d] = 0;
            holed.tiles[1][d] = 0;
        }
    }
    let mut zeroed = valid.clone();
    zeroed.parallel.fill(0);
    for tiles in &mut zeroed.tiles {
        tiles.fill(0);
    }
    vec![valid, oversized, starved, overfanned, holed, zeroed]
}

/// One problem per algorithm family from three free sizes: a CNN layer
/// (seven dimensions, compound input coordinates), an MTTKRP (four tensors)
/// and the two-dimensional `conv1d`.
fn problem_family(a: u64, b: u64, c: u64) -> Vec<ProblemSpec> {
    vec![
        CnnLayer {
            name: "hot-path",
            n: 1,
            k: a,
            c: b,
            hw: c,
            rs: 3,
        }
        .into_problem(),
        MttkrpShape {
            name: "hot-path",
            i: a,
            j: b,
            k: 4 * c,
            l: a + b,
        }
        .into_problem(),
        ProblemSpec::conv1d(4 * a, 1 + c % 9),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases_env(32))]

    /// `evaluate_into` through one reused scratch is bit-identical to the
    /// reference walk: across CNN, MTTKRP and conv1d shapes, on valid and
    /// invalid mappings, summary and detail.
    #[test]
    fn evaluate_into_is_bit_identical_across_the_domain(
        seed in 0u64..1_000_000,
        a in 16u64..256,
        b in 8u64..128,
        c in 7u64..42,
    ) {
        let arch = evaluated_accelerator();
        let mut rng = StdRng::seed_from_u64(seed);
        // One scratch across every problem and mapping: stale state from
        // the previous evaluation — even one of another shape — must never
        // leak into the next result.
        let mut scratch = EvalScratch::new();
        for problem in problem_family(a, b, c) {
            let space = MapSpace::new(problem.clone(), arch.mapping_constraints());
            let model = CostModel::new(arch.clone(), problem);
            for (i, mapping) in mapping_family(&space, &mut rng).iter().enumerate() {
                let what = format!("{} family member {i}", model.problem().name);
                assert_kernel_matches(&model, &mut scratch, mapping, &what);
            }
        }
    }

    /// The SoA batch kernel equals the reference column for column, and
    /// reusing the output buffer across batches leaves no stale rows.
    #[test]
    fn evaluate_batch_into_matches_scalar_bits(
        seed in 0u64..1_000_000,
        k in 16u64..256,
        c in 8u64..128,
    ) {
        let problem = CnnLayer { name: "hot-path-batch", n: 1, k, c, hw: 14, rs: 3 }.into_problem();
        let arch = evaluated_accelerator();
        let space = MapSpace::new(problem.clone(), arch.mapping_constraints());
        let model = CostModel::new(arch, problem);
        let mut rng = StdRng::seed_from_u64(seed);

        let big: Vec<Mapping> = (0..6).flat_map(|_| mapping_family(&space, &mut rng)).collect();
        let small: Vec<Mapping> = mapping_family(&space, &mut rng);

        let mut scratch = EvalScratch::new();
        let mut costs = BatchCosts::new();
        for mappings in [&big, &small] {
            model.evaluate_batch_into(&mut scratch, mappings, &mut costs);
            prop_assert_eq!(costs.len(), mappings.len(), "batch length mismatch");
            for (i, mapping) in mappings.iter().enumerate() {
                let reference = reference_cost(model.arch(), model.problem(), mapping);
                assert_summary_bits(&reference.summary, &costs.summary(i), &format!("batch row {i}"));
            }
        }
    }
}

/// A zero-throughput architecture takes the kernel's other branch
/// (infinite cycles, zero utilization); the reference must agree there too.
#[test]
fn kernel_matches_the_reference_on_a_machine_that_never_finishes() {
    let mut arch = Architecture::example();
    arch.macs_per_pe_per_cycle = 0;
    let problem = ProblemSpec::conv1d(128, 7);
    let space = MapSpace::new(problem.clone(), arch.mapping_constraints());
    let model = CostModel::new(arch, problem);
    let mut rng = StdRng::seed_from_u64(5);
    let mut scratch = EvalScratch::new();
    for (i, mapping) in mapping_family(&space, &mut rng).iter().enumerate() {
        assert_kernel_matches(
            &model,
            &mut scratch,
            mapping,
            &format!("stalled member {i}"),
        );
    }
}

/// Replay the pinned `golden_determinism` mapper scenario through the
/// batched pool at 1, 2, and 4 workers: the canonical bytes must match the
/// checked-in fixture at every width. (No `MM_BLESS` path here on purpose —
/// this test *consumes* the fixture; blessing stays with
/// `golden_determinism`.)
#[test]
fn golden_fixture_replays_identically_at_1_2_4_workers() {
    let fixture =
        PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/mapper_canonical.txt");
    let expected = std::fs::read_to_string(&fixture).unwrap_or_else(|e| {
        panic!(
            "missing fixture mapper_canonical.txt ({e}); generate it with \
             MM_BLESS=1 cargo test --test golden_determinism"
        )
    });
    for threads in [1usize, 2, 4] {
        let arch = Architecture::example();
        let problem = ProblemSpec::conv1d(512, 7);
        let space = MapSpace::new(problem.clone(), arch.mapping_constraints());
        let evaluator: Arc<dyn CostEvaluator> =
            Arc::new(ModelEvaluator::edp(CostModel::new(arch, problem)));
        let report = Mapper::new(MapperConfig {
            threads,
            shards: Some(4),
            shard_space: true,
            seed: 7,
            termination: TerminationPolicy::search_size(240),
            ..MapperConfig::default()
        })
        .run(&space, evaluator, |_| {
            Box::new(SimulatedAnnealing::default())
        });
        assert_eq!(report.total_evaluations, 240, "threads={threads}");
        assert_eq!(
            report.canonical_string(),
            expected,
            "canonical bytes shifted at threads={threads}; the hot path must be \
             worker-count independent"
        );
    }
}
