//! Property-based tests of the map-space invariants on randomly generated
//! problems and constraints (not just the paper's workloads).

use mm_mapspace::problem::{DimId, ProblemSpec, TensorDim, TensorKind, TensorSpec};
use mm_mapspace::{Encoding, MapSpace, Mapping, MappingConstraints};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Build a random matrix-multiply-like problem: O[i,j] = Σ_k A[i,k] · B[k,j].
fn matmul_problem(i: u64, j: u64, k: u64) -> ProblemSpec {
    ProblemSpec::new(
        "prop-matmul",
        vec![("I", i), ("J", j), ("K", k)],
        vec![
            TensorSpec::new(
                "A",
                TensorKind::Input,
                vec![TensorDim::Single(DimId(0)), TensorDim::Single(DimId(2))],
            ),
            TensorSpec::new(
                "B",
                TensorKind::Input,
                vec![TensorDim::Single(DimId(2)), TensorDim::Single(DimId(1))],
            ),
            TensorSpec::new(
                "O",
                TensorKind::Output,
                vec![TensorDim::Single(DimId(0)), TensorDim::Single(DimId(1))],
            ),
        ],
    )
}

fn constraints(pes: u64, l1: u64, l2: u64) -> MappingConstraints {
    MappingConstraints {
        num_pes: pes,
        l1_capacity_words: l1,
        l2_capacity_words: l2,
        l1_banks: 8,
        l2_banks: 16,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases_env(64))]

    /// Sampling always returns a valid member of the map space, for any
    /// problem shape and any (sane) accelerator constraints.
    #[test]
    fn random_mapping_is_always_valid(
        seed in 0u64..u64::MAX,
        i in 1u64..512,
        j in 1u64..512,
        k in 1u64..512,
        pes in 1u64..128,
        l1 in 64u64..4096,
        l2 in prop::sample::select(vec![1024u64, 8192, 65536]),
    ) {
        let problem = matmul_problem(i, j, k);
        let space = MapSpace::new(problem, constraints(pes, l1, l2));
        let mut rng = StdRng::seed_from_u64(seed);
        let m = space.random_mapping(&mut rng);
        prop_assert!(space.is_member(&m), "{:?}", space.validate(&m));
        prop_assert!(m.active_pes() <= pes);
    }

    /// Projection of arbitrary vectors always lands inside the map space,
    /// and projecting an already-valid mapping's encoding is idempotent on
    /// the discrete attributes.
    #[test]
    fn projection_is_total_and_idempotent(
        seed in 0u64..u64::MAX,
        i in 1u64..300,
        j in 1u64..300,
        k in 1u64..300,
        noise_scale in 1.0f32..500.0,
    ) {
        let problem = matmul_problem(i, j, k);
        let space = MapSpace::new(problem.clone(), MappingConstraints::example());
        let enc = Encoding::for_problem(&problem);
        let mut rng = StdRng::seed_from_u64(seed);

        use rand::Rng;
        let noise: Vec<f32> = (0..enc.mapping_len())
            .map(|_| rng.gen_range(-noise_scale..noise_scale))
            .collect();
        let projected = space.project(&noise).unwrap();
        prop_assert!(space.is_member(&projected));

        let valid = space.random_mapping(&mut rng);
        let reprojected = space.project(&enc.encode_mapping(&problem, &valid)).unwrap();
        prop_assert_eq!(&reprojected.tiles[0], &valid.tiles[0]);
        prop_assert_eq!(&reprojected.parallel, &valid.parallel);
        prop_assert_eq!(&reprojected.loop_orders, &valid.loop_orders);
    }

    /// What `repair` guarantees on a mapping that is already valid — less
    /// than idempotence. On a product of `random_mapping`, `neighbor` or
    /// `crossover` a second `repair` leaves tiles, parallelism and loop
    /// orders alone and the mapping a member, but may move a buffer fraction
    /// by a few ulp (a row normalised to a sum one ulp above 1.0 is divided
    /// again): searchers must not skip a `repair` as redundant and expect
    /// the same trajectory.
    #[test]
    fn second_repair_moves_only_fraction_ulps(
        seed in 0u64..u64::MAX,
        i in 1u64..512,
        j in 1u64..512,
        k in 1u64..512,
        pes in 1u64..128,
        l1 in 64u64..4096,
        l2 in prop::sample::select(vec![1024u64, 8192, 65536]),
    ) {
        let space = MapSpace::new(matmul_problem(i, j, k), constraints(pes, l1, l2));
        let mut rng = StdRng::seed_from_u64(seed);
        let a = space.random_mapping(&mut rng);
        let b = space.random_mapping(&mut rng);
        let moved = space.neighbor(&a, &mut rng);
        let child = space.crossover(&a, &b, &mut rng);
        for once in [a, b, moved, child] {
            let mut twice = once.clone();
            space.repair(&mut twice);
            prop_assert!(space.is_member(&twice), "{:?}", space.validate(&twice));
            prop_assert_eq!(&twice.tiles, &once.tiles);
            prop_assert_eq!(&twice.parallel, &once.parallel);
            prop_assert_eq!(&twice.loop_orders, &once.loop_orders);
            let fractions = |m: &Mapping| m.buffer_alloc.concat();
            for (f, g) in fractions(&once).into_iter().zip(fractions(&twice)) {
                // Both are positive and finite, so their bit patterns are
                // ordered like the numbers and differ by the ulps between.
                let ulps = f.to_bits().abs_diff(g.to_bits());
                prop_assert!(ulps <= 4, "{} became {} ({} ulp)", f, g, ulps);
            }
        }
    }

    /// The minimal mapping is valid for every problem/constraint pair whose
    /// L1 can hold at least one word per tensor.
    #[test]
    fn minimal_mapping_is_always_valid(
        i in 1u64..1000,
        j in 1u64..1000,
        k in 1u64..1000,
        pes in 1u64..512,
    ) {
        let problem = matmul_problem(i, j, k);
        let space = MapSpace::new(problem.clone(), constraints(pes, 256, 4096));
        let m = Mapping::minimal(&problem);
        prop_assert!(space.is_member(&m), "{:?}", space.validate(&m));
    }

    /// Encoding lengths follow the closed-form layout for any problem shape.
    #[test]
    fn encoding_length_formula(dims in 1usize..10, tensors in 1usize..6) {
        let enc = Encoding { num_dims: dims, num_tensors: tensors };
        prop_assert_eq!(enc.mapping_len(), 7 * dims + 2 * tensors);
        prop_assert_eq!(enc.total_len(), 8 * dims + 2 * tensors);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases_env(48))]

    /// `MapSpace::shard(i, n)` shards are pairwise disjoint and jointly
    /// covering: every random mapping of the full space is a member of
    /// exactly one shard, and every shard's own random mappings are members
    /// of that shard (and the base space) and of no other shard — including
    /// shard counts beyond the permutation count (3! = 6 here), which
    /// exercise the largest-tiling-axis fallback.
    #[test]
    fn shards_partition_the_map_space(
        seed in 0u64..u64::MAX,
        i in 1u64..256,
        j in 1u64..256,
        k in 1u64..256,
        n in 1usize..=8,
    ) {
        use mm_mapspace::MapSpaceView;

        let problem = matmul_problem(i, j, k);
        let space = MapSpace::new(problem, MappingConstraints::example());
        let n = (n as u128).min(space.shard_capacity()) as usize;
        let shards: Vec<_> = (0..n).map(|s| space.shard(s, n)).collect();
        let mut rng = StdRng::seed_from_u64(seed);

        // Jointly covering + pairwise disjoint over full-space samples.
        for _ in 0..8 {
            let m = space.random_mapping(&mut rng);
            let owners: Vec<usize> = shards
                .iter()
                .enumerate()
                .filter(|(_, sh)| sh.is_member(&m))
                .map(|(s, _)| s)
                .collect();
            prop_assert_eq!(owners.len(), 1, "full-space mapping must land in exactly one shard");
        }

        // Shard sampling stays inside its own shard and the base space.
        for (s, shard) in shards.iter().enumerate() {
            for _ in 0..4 {
                let m = shard.random_mapping(&mut rng);
                prop_assert!(shard.is_member(&m), "shard {} rejects its own sample: {:?}", s, shard.validate(&m));
                prop_assert!(space.is_member(&m), "shard sample invalid in base space: {:?}", space.validate(&m));
                for (o, other) in shards.iter().enumerate() {
                    if o != s {
                        prop_assert!(!other.is_member(&m), "shard {} sample also claimed by shard {}", s, o);
                    }
                }
            }
        }
    }

    /// Shard-local moves (neighbor, crossover, projection) never escape the
    /// shard or the base space.
    #[test]
    fn shard_moves_never_escape(
        seed in 0u64..u64::MAX,
        i in 1u64..256,
        j in 1u64..256,
        k in 1u64..256,
        n in 2usize..=8,
        index in 0usize..8,
    ) {
        use mm_mapspace::MapSpaceView;

        let problem = matmul_problem(i, j, k);
        let space = MapSpace::new(problem.clone(), MappingConstraints::example());
        let n = (n as u128).min(space.shard_capacity()) as usize;
        let index = index % n;
        let shard = space.shard(index, n);
        let mut rng = StdRng::seed_from_u64(seed);

        let mut m = shard.random_mapping(&mut rng);
        for _ in 0..12 {
            m = shard.neighbor(&m, &mut rng);
            prop_assert!(shard.is_member(&m), "{:?}", shard.validate(&m));
        }
        let a = shard.random_mapping(&mut rng);
        let child = shard.crossover(&a, &m, &mut rng);
        prop_assert!(shard.is_member(&child), "{:?}", shard.validate(&child));

        use rand::Rng;
        let enc = Encoding::for_problem(&problem);
        let noise: Vec<f32> = (0..enc.mapping_len()).map(|_| rng.gen_range(-40.0..400.0)).collect();
        let mut projected = Mapping::default();
        shard.project_into(&noise, &mut projected).unwrap();
        prop_assert!(shard.is_member(&projected), "{:?}", shard.validate(&projected));
    }
}
