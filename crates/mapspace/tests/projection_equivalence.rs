//! Projection against the code it replaced, to the bit.
//!
//! `MapSpaceView::project_into` decodes in place into a reused mapping; the
//! golden fixtures were recorded with the allocating `decode_mapping` kept
//! in [`reference`] verbatim, followed by the view's `repair` (for a shard,
//! the base space's `repair` and then its pin-and-fix, exactly what the
//! replaced `ShardedMapSpace::project` ran). The same mapping must come out,
//! every fraction to the bit, on the eight Table-1 spaces and two conv1d
//! spaces, on the full space and on shards of it, from vectors a gradient
//! step could leave — and from NaN, ±∞, negatives, values far past the
//! dimension sizes and tied loop-order keys. A vector of the wrong length
//! gives the same typed error and leaves the output as it was.
//!
//! Tier-1 runs 32 cases, CI 256 (`PROPTEST_CASES`).

use mm_mapspace::{Encoding, MapSpace, MapSpaceView, Mapping, MappingConstraints, ProblemSpec};
use mm_workloads::table1;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// The decode `project` ran before it wrote in place, copied verbatim.
mod reference {
    use mm_mapspace::mapping::{ONCHIP_LEVELS, ORDER_LEVELS};
    use mm_mapspace::{Encoding, MapSpaceError, Mapping, ProblemSpec};

    pub fn decode_mapping(
        enc: &Encoding,
        problem: &ProblemSpec,
        mapping_values: &[f32],
    ) -> Result<Mapping, MapSpaceError> {
        if mapping_values.len() != enc.mapping_len() {
            return Err(MapSpaceError::BadVectorLength {
                expected: enc.mapping_len(),
                actual: mapping_values.len(),
            });
        }
        let d = enc.num_dims;
        let t = enc.num_tensors;
        let mut m = Mapping::minimal(problem);
        let mut idx = 0;

        // Tile factors.
        let mut factors = vec![vec![1u64; d]; ORDER_LEVELS];
        for lvl in factors.iter_mut() {
            for item in lvl.iter_mut() {
                let f = mapping_values[idx];
                idx += 1;
                *item = round_positive(f);
            }
        }
        // Parallelism.
        let mut par = vec![1u64; d];
        for item in par.iter_mut() {
            *item = round_positive(mapping_values[idx]);
            idx += 1;
        }
        // Reconstruct absolute tiles: t1 = f1, spatial = t1*par,
        // t2 = spatial * f2 (clamped later by repair).
        for dim in 0..d {
            let size = problem.dim_sizes[dim];
            let t1 = factors[0][dim].clamp(1, size);
            let p = par[dim].clamp(1, size);
            let t2 = (t1 * p).saturating_mul(factors[1][dim]).clamp(t1, size);
            m.tiles[0][dim] = t1;
            m.tiles[1][dim] = t2;
            m.parallel[dim] = p;
        }

        // Loop orders: argsort of the position values.
        for lv in 0..ORDER_LEVELS {
            let keys: Vec<f32> = (0..d).map(|i| mapping_values[idx + i]).collect();
            idx += d;
            let mut dims: Vec<usize> = (0..d).collect();
            dims.sort_by(|&a, &b| {
                keys[a]
                    .partial_cmp(&keys[b])
                    .unwrap_or(std::cmp::Ordering::Equal)
            });
            m.loop_orders[lv] = dims;
        }

        // Buffer allocation fractions.
        for lv in 0..ONCHIP_LEVELS {
            for ti in 0..t {
                let f = mapping_values[idx] as f64;
                idx += 1;
                m.buffer_alloc[lv][ti] = if f.is_finite() {
                    f.clamp(1e-3, 1.0)
                } else {
                    1e-3
                };
            }
        }
        debug_assert_eq!(idx, enc.mapping_len());
        Ok(m)
    }

    fn round_positive(f: f32) -> u64 {
        if !f.is_finite() || f < 1.0 {
            1
        } else {
            f.round() as u64
        }
    }
}

/// Space `pick`: the eight Table-1 problems on the paper's accelerator,
/// then two conv1d spaces on the example one.
fn space(pick: usize) -> MapSpace {
    let table = table1::all_problems();
    match table.get(pick) {
        Some(target) => MapSpace::new(
            target.problem.clone(),
            MappingConstraints::paper_accelerator(),
        ),
        None => MapSpace::new(
            ProblemSpec::conv1d([128, 4096][pick - table.len()], 7),
            MappingConstraints::example(),
        ),
    }
}

const SPACES: usize = 10;

/// `a == b` with every fraction compared by its bits.
fn same(a: &Mapping, b: &Mapping) -> Result<(), TestCaseError> {
    prop_assert_eq!(a, b);
    for (ra, rb) in a.buffer_alloc.iter().zip(&b.buffer_alloc) {
        for (fa, fb) in ra.iter().zip(rb) {
            prop_assert_eq!(fa.to_bits(), fb.to_bits(), "{} vs {}", fa, fb);
        }
    }
    Ok(())
}

/// The encoding of a valid mapping, pushed off the grid the way a gradient
/// step leaves it, with some entries replaced by anything at all.
fn wild_vector(space: &MapSpace, enc: &Encoding, rng: &mut StdRng) -> Vec<f32> {
    let problem = space.problem();
    let largest = problem.dim_sizes.iter().copied().max().unwrap_or(1) as f32;
    let mut v = enc.encode_mapping(problem, &space.random_mapping(rng));
    let step = rng.gen_range(0.0f32..2.0);
    for x in v.iter_mut() {
        *x += rng.gen_range(-step..step);
        *x = match rng.gen_range(0..16) {
            0 => f32::NAN,
            1 => f32::INFINITY,
            2 => f32::NEG_INFINITY,
            3 => -rng.gen_range(0.0f32..50.0),
            4 => largest * rng.gen_range(1.0f32..100.0),
            5 => f32::MAX,
            6 => 0.0,
            7 => x.round(),
            _ => *x,
        };
    }
    // Tied loop-order keys: a key copied onto another of the same level.
    let d = enc.num_dims;
    let keys = 4 * d;
    for _ in 0..rng.gen_range(0..=d) {
        let level = rng.gen_range(0..3);
        let (from, to) = (rng.gen_range(0..d), rng.gen_range(0..d));
        v[keys + level * d + to] = v[keys + level * d + from];
    }
    v
}

/// The replaced projection: the reference decode, then the view's repair.
fn expected(
    view: &dyn MapSpaceView,
    enc: &Encoding,
    v: &[f32],
) -> Result<Mapping, mm_mapspace::MapSpaceError> {
    let mut m = reference::decode_mapping(enc, view.problem(), v)?;
    view.repair(&mut m);
    Ok(m)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases_env(32))]

    /// `project_into` gives what decode + repair gave, on the full space
    /// and on shards, into fresh and into reused mappings.
    #[test]
    fn project_into_matches_the_reference(
        seed in 0u64..u64::MAX,
        pick in 0usize..SPACES,
        shards in 1usize..64,
    ) {
        let full = space(pick);
        let enc = Encoding::for_problem(full.problem());
        let count = full.clamp_shard_count(shards);
        let mut rng = StdRng::seed_from_u64(seed);
        let shard = full.shard(rng.gen_range(0..count), count);
        let views: [&dyn MapSpaceView; 2] = [&full, &shard];
        let mut reused = Mapping::default();
        for round in 0..24 {
            let v = wild_vector(&full, &enc, &mut rng);
            let view = views[round % 2];
            let want = expected(view, &enc, &v).expect("right length");
            let mut fresh = Mapping::default();
            view.project_into(&v, &mut fresh).expect("right length");
            same(&fresh, &want)?;
            view.project_into(&v, &mut reused).expect("right length");
            same(&reused, &want)?;
            // Membership is claimed for the full space only: pinning a
            // shard's axes can leave an extreme vector's L2 tiles over
            // capacity (about 1 in 3 000 here), as it always could.
            if view.shard_info().is_none() {
                prop_assert!(view.is_member(&reused), "{:?}", view.validate(&reused));
            }
        }
        // A wrong length: the same typed error, and the slot untouched.
        let before = reused.clone();
        for len in [0, enc.mapping_len() - 1, enc.mapping_len() + 1] {
            let v = vec![1.0f32; len];
            for view in views {
                let err = view.project_into(&v, &mut reused).unwrap_err();
                prop_assert_eq!(&err, &expected(view, &enc, &v).unwrap_err());
                same(&reused, &before)?;
            }
        }
    }
}
