//! Integration tests of the cost model's qualitative behaviour on the
//! paper's workloads: the properties that make mapping space search hard
//! (Section 3.1) and the properties any credible accelerator model must have,
//! including metamorphic relations that hold to the bit.

use mind_mappings::accel::{AlgorithmicMinimum, MemLevelSpec};
use mind_mappings::prelude::*;
use mind_mappings::workloads::cnn::CnnLayer;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn setup(name: &str) -> (CostModel, MapSpace) {
    let target = table1::by_name(name).expect("table 1 problem");
    let arch = evaluated_accelerator();
    let space = MapSpace::new(target.problem.clone(), arch.mapping_constraints());
    (CostModel::new(arch, target.problem), space)
}

#[test]
fn cost_varies_by_orders_of_magnitude_across_mappings() {
    // Section 3.1: the choice of mapping changes cost by multiplicative
    // factors; random mappings of ResNet Conv_4 must span a wide EDP range.
    let (model, space) = setup("ResNet Conv_4");
    let mut rng = StdRng::seed_from_u64(0);
    let mut min = f64::INFINITY;
    let mut max = 0.0f64;
    for _ in 0..200 {
        let edp = model.normalized_edp(&space.random_mapping(&mut rng));
        min = min.min(edp);
        max = max.max(edp);
    }
    assert!(
        max / min > 10.0,
        "cost spread too small: min {min}, max {max}"
    );
}

#[test]
fn all_table1_problems_evaluate_consistently() {
    let mut rng = StdRng::seed_from_u64(1);
    for target in table1::all_problems() {
        let arch = evaluated_accelerator();
        let space = MapSpace::new(target.problem.clone(), arch.mapping_constraints());
        let model = CostModel::new(arch, target.problem.clone());
        for _ in 0..10 {
            let m = space.random_mapping(&mut rng);
            let cost = model.evaluate(&m);
            assert!(cost.edp.is_finite(), "{}", target.problem.name);
            assert!(
                cost.edp >= model.lower_bound().edp * 0.999,
                "{} beats its lower bound",
                target.problem.name
            );
            // Meta statistics must be finite and mostly nonzero.
            let meta = cost.meta_statistics();
            assert!(meta.iter().all(|v| v.is_finite()));
            assert!(meta.iter().filter(|&&v| v > 0.0).count() >= meta.len() - 1);
        }
    }
}

#[test]
fn parallelism_improves_edp_for_compute_bound_layer() {
    // Spreading work over more PEs must reduce delay (and EDP) for a large
    // layer when tiles are kept identical.
    let problem = CnnLayer::resnet_conv4().into_problem();
    let arch = evaluated_accelerator();
    let space = MapSpace::new(problem.clone(), arch.mapping_constraints());
    let model = CostModel::new(arch, problem.clone());

    let k = problem.dim_by_name("K").unwrap();
    let mut serial = Mapping::minimal(&problem);
    for d in problem.dims() {
        serial.tiles[0][d.index()] = 1;
        serial.tiles[1][d.index()] = 2.min(problem.dim_size(d));
    }
    space.repair(&mut serial);
    let mut parallel = serial.clone();
    parallel.parallel[k.index()] = 64;
    space.repair(&mut parallel);
    assert!(space.is_member(&serial) && space.is_member(&parallel));

    let cs = model.evaluate(&serial);
    let cp = model.evaluate(&parallel);
    assert!(
        cp.cycles < cs.cycles,
        "parallel mapping should have fewer cycles ({} vs {})",
        cp.cycles,
        cs.cycles
    );
}

#[test]
fn dram_energy_dominates_for_poor_reuse_mappings() {
    // A mapping with unit tiles refetches operands constantly; DRAM energy
    // should dominate the breakdown (the physical motivation for tiling).
    let (model, _space) = setup("AlexNet Conv_2");
    let problem = model.problem().clone();
    let minimal = Mapping::minimal(&problem);
    let cost = model.evaluate(&minimal);
    let dram_energy: f64 = cost.energy_pj[2].iter().sum();
    let onchip_energy: f64 =
        cost.energy_pj[0].iter().sum::<f64>() + cost.energy_pj[1].iter().sum::<f64>();
    assert!(
        dram_energy > onchip_energy,
        "expected DRAM-dominated energy for a unit-tile mapping"
    );
}

#[test]
fn lower_bound_scales_with_problem_size() {
    let arch = evaluated_accelerator();
    let small = CostModel::new(arch.clone(), CnnLayer::alexnet_conv4().into_problem());
    let large = CostModel::new(arch, CnnLayer::inception_conv2().into_problem());
    assert!(large.lower_bound().energy_pj > small.lower_bound().energy_pj);
    assert!(large.lower_bound().cycles > small.lower_bound().cycles);
}

#[test]
fn map_space_size_estimates_match_paper_magnitude() {
    // Section 3.1 / 5.4.1: ResNet Conv_4's space is ~1e25 valid mappings.
    // Our estimate is a loose upper bound over the attribute product space
    // (it does not subtract capacity-invalid assignments), so we only check
    // that both spaces are astronomically large — far beyond exhaustive
    // search — which is the property the paper's argument rests on.
    let arch = evaluated_accelerator();
    let cnn = MapSpace::new(
        table1::by_name("ResNet Conv_4").unwrap().problem,
        arch.mapping_constraints(),
    );
    let mttkrp = MapSpace::new(
        table1::by_name("MTTKRP_0").unwrap().problem,
        arch.mapping_constraints(),
    );
    assert!(cnn.log10_size_estimate() > 20.0);
    assert!(mttkrp.log10_size_estimate() > 15.0);
}

/// A random valid mapping of Table 1 problem `index`, its accelerator and
/// its cost there.
fn table1_sample(index: usize, seed: u64) -> (Architecture, ProblemSpec, Mapping, CostBreakdown) {
    let problem = table1::all_problems().swap_remove(index).problem;
    let arch = evaluated_accelerator();
    let space = MapSpace::new(problem.clone(), arch.mapping_constraints());
    let mapping = space.random_mapping(&mut StdRng::seed_from_u64(seed));
    let cost = CostModel::new(arch.clone(), problem.clone()).evaluate(&mapping);
    (arch, problem, mapping, cost)
}

/// Memory level `index` of `arch`, in `Level::index` order (L1, L2, DRAM).
fn level_mut(arch: &mut Architecture, index: usize) -> &mut MemLevelSpec {
    match index {
        0 => &mut arch.l1,
        1 => &mut arch.l2,
        _ => &mut arch.dram,
    }
}

fn row_bits(energy_pj: &[Vec<f64>]) -> Vec<Vec<u64>> {
    energy_pj
        .iter()
        .map(|row| row.iter().map(|e| e.to_bits()).collect())
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases_env(32))]

    /// Bandwidth only bounds time: raising one level's bandwidth never
    /// raises cycles and leaves every energy bit where it was.
    #[test]
    fn raising_a_bandwidth_never_raises_cycles_nor_moves_energy(
        problem in 0usize..8,
        seed in 0u64..1_000_000,
        level in 0usize..3,
        eighths in 1u32..64,
    ) {
        let (mut arch, problem, mapping, base) = table1_sample(problem, seed);
        level_mut(&mut arch, level).bandwidth_words_per_cycle *= 1.0 + f64::from(eighths) / 8.0;
        let faster = CostModel::new(arch, problem).evaluate(&mapping);
        prop_assert!(faster.cycles <= base.cycles, "{} > {}", faster.cycles, base.cycles);
        prop_assert_eq!(row_bits(&faster.energy_pj), row_bits(&base.energy_pj));
        prop_assert_eq!(faster.compute_energy_pj.to_bits(), base.compute_energy_pj.to_bits());
        prop_assert_eq!(faster.total_energy_pj.to_bits(), base.total_energy_pj.to_bits());
    }

    /// Scaling one level's energy per access by a power of two scales
    /// exactly that level's energy row by it, bit for bit, and moves no
    /// other row, the MAC energy or the cycles.
    #[test]
    fn scaling_an_energy_per_access_scales_exactly_its_row(
        problem in 0usize..8,
        seed in 0u64..1_000_000,
        level in 0usize..3,
        halve in 0usize..2,
    ) {
        let (mut arch, problem, mapping, base) = table1_sample(problem, seed);
        let k = [2.0, 0.5][halve];
        level_mut(&mut arch, level).energy_per_access_pj *= k;
        let scaled = CostModel::new(arch, problem).evaluate(&mapping);
        let expected: Vec<Vec<f64>> = base
            .energy_pj
            .iter()
            .enumerate()
            .map(|(l, row)| row.iter().map(|e| if l == level { e * k } else { *e }).collect())
            .collect();
        prop_assert_eq!(row_bits(&scaled.energy_pj), row_bits(&expected));
        prop_assert_eq!(scaled.compute_energy_pj.to_bits(), base.compute_energy_pj.to_bits());
        prop_assert_eq!(scaled.cycles.to_bits(), base.cycles.to_bits());
    }

    /// The algorithmic minimum bounds every mapping's energy and cycles
    /// with no slack.
    #[test]
    fn algorithmic_minimum_bounds_every_mapping_without_slack(
        problem in 0usize..8,
        seed in 0u64..1_000_000,
    ) {
        let (arch, problem, _, cost) = table1_sample(problem, seed);
        let bound = AlgorithmicMinimum::compute(&arch, &problem);
        prop_assert!(bound.energy_pj <= cost.total_energy_pj, "{} > {}", bound.energy_pj, cost.total_energy_pj);
        prop_assert!(bound.cycles <= cost.cycles, "{} > {}", bound.cycles, cost.cycles);
    }
}
