//! The zero-alloc hot path is a pure refactor: bit-identical costs.
//!
//! `CostModel::evaluate_into` (scratch-reusing) and
//! `CostModel::evaluate_batch_into` (SoA batch kernel) are the steady-state
//! entry points behind `CostEvaluator::evaluate` / `evaluate_batch`; the
//! allocating `evaluate` is the reference implementation. Every float they
//! produce must match `evaluate` *to the bit* (`f64::to_bits`), on valid
//! mappings and on out-of-space ones alike — otherwise the "fast path" is
//! silently a different cost model and every checked-in baseline lies.
//!
//! The golden-fixture replay closes the loop end to end: the pinned mapper
//! scenario from `golden_determinism` re-run through the batched pool at
//! 1, 2, and 4 workers must still reproduce the checked-in canonical bytes.

use std::path::PathBuf;
use std::sync::Arc;

use mind_mappings::prelude::*;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn assert_summary_bits(reference: &CostBreakdown, fast: &CostSummary, what: &str) {
    assert_eq!(
        reference.compute_energy_pj.to_bits(),
        fast.compute_energy_pj.to_bits(),
        "{what}: compute_energy_pj diverged"
    );
    assert_eq!(
        reference.total_energy_pj.to_bits(),
        fast.total_energy_pj.to_bits(),
        "{what}: total_energy_pj diverged"
    );
    assert_eq!(
        reference.cycles.to_bits(),
        fast.cycles.to_bits(),
        "{what}: cycles diverged"
    );
    assert_eq!(
        reference.utilization.to_bits(),
        fast.utilization.to_bits(),
        "{what}: utilization diverged"
    );
    assert_eq!(
        reference.edp.to_bits(),
        fast.edp.to_bits(),
        "{what}: edp diverged"
    );
    assert_eq!(
        reference
            .accesses
            .total_at(mind_mappings::mapspace::mapping::Level::Dram),
        fast.last_level_accesses,
        "{what}: last_level_accesses diverged"
    );
}

/// A valid mapping plus deliberately out-of-space mutants of it: the cost
/// model is total over the encoding, so the fast paths must agree off the
/// feasible set too (the searcher evaluates repaired proposals, but the
/// contract is on the whole domain).
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
    vec![valid, oversized, starved, overfanned]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases_env(32))]

    /// `evaluate_into` through a reused scratch is bit-identical to the
    /// allocating `evaluate`, across random CNN shapes and both valid and
    /// invalid mappings.
    #[test]
    fn evaluate_into_is_bit_identical_across_the_domain(
        seed in 0u64..1_000_000,
        k in 16u64..256,
        c in 8u64..128,
        hw in 7u64..42,
    ) {
        let problem = CnnLayer { name: "hot-path", n: 1, k, c, hw, rs: 3 }.into_problem();
        let arch = evaluated_accelerator();
        let space = MapSpace::new(problem.clone(), arch.mapping_constraints());
        let model = CostModel::new(arch, problem);
        let mut rng = StdRng::seed_from_u64(seed);

        // One scratch across the whole family: stale state from the
        // previous mapping must never leak into the next result.
        let mut scratch = EvalScratch::new();
        for (i, mapping) in mapping_family(&space, &mut rng).iter().enumerate() {
            let reference = model.evaluate(mapping);
            let fast = model.evaluate_into(&mut scratch, mapping);
            assert_summary_bits(&reference, &fast, &format!("family member {i}"));
            prop_assert_eq!(
                &reference.energy_pj,
                &scratch.energy_pj().to_vec(),
                "family member {}: per-level energy rows diverged",
                i
            );
        }
    }

    /// The SoA batch kernel equals the scalar path column for column, and
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

        let big: Vec<Mapping> = (0..9).flat_map(|_| mapping_family(&space, &mut rng)).collect();
        let small: Vec<Mapping> = mapping_family(&space, &mut rng);

        let mut scratch = EvalScratch::new();
        let mut costs = BatchCosts::new();
        for mappings in [&big, &small] {
            model.evaluate_batch_into(&mut scratch, mappings, &mut costs);
            prop_assert_eq!(costs.len(), mappings.len(), "batch length mismatch");
            for (i, mapping) in mappings.iter().enumerate() {
                let reference = model.evaluate(mapping);
                let fast = costs.summary(i);
                assert_summary_bits(&reference, &fast, &format!("batch row {i}"));
            }
        }
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
