//! Proposal generation against the code it replaced, to the bit.
//!
//! `MapSpace::repair` and `MapSpace::random_mapping_into` work over a table
//! lowered once per map space, cached footprints and a carried PE product;
//! the golden fixtures were recorded with the bodies in [`reference`], which
//! re-derive everything per call. Those bodies are kept here verbatim (over
//! the public fields, `ALLOC_EPS_WORDS` inlined) as the oracle, the way
//! `mm_accel::reuse::count_accesses` is kept for the cost kernel: the same
//! `Mapping` out, the same bits in every fraction, and the RNG left in the
//! same state — on the eight Table-1 spaces, conv1d spaces and random matmul
//! spaces, over fresh draws, unrepaired crossovers and out-of-range garbage
//! (zero and oversized tiles and fan-outs, NaN, infinite and negative
//! fractions).
//!
//! Tier-1 runs 32 cases of each property, CI 256 (`PROPTEST_CASES`).

use mm_mapspace::problem::{DimId, ProblemSpec, TensorDim, TensorKind, TensorSpec};
use mm_mapspace::{MapSpace, Mapping, MappingConstraints};
use mm_workloads::table1;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, RngCore, SeedableRng};

/// The sampler and the repair of PR 15, copied verbatim.
mod reference {
    use mm_mapspace::mapping::{Level, ONCHIP_LEVELS, ORDER_LEVELS};
    use mm_mapspace::problem::DimId;
    use mm_mapspace::{MapSpace, Mapping};
    use rand::seq::SliceRandom;
    use rand::Rng;

    const ALLOC_EPS_WORDS: f64 = 0.0625;
    const DIM_STACK: usize = 64;

    /// `random_mapping_into` up to, and without, its final `repair`.
    pub fn draw<R: Rng + ?Sized>(space: &MapSpace, m: &mut Mapping, rng: &mut R) {
        m.reset_minimal(space.problem());
        let p = space.problem();
        let d = p.num_dims();
        let t = p.num_tensors();

        // Parallelism: repeatedly assign a random factor to a random dim
        // while staying under the PE budget.
        let mut pe_budget = space.constraints().num_pes;
        for _ in 0..d * 2 {
            if pe_budget <= 1 {
                break;
            }
            let dim = DimId(rng.gen_range(0..d));
            let max_par = p.dim_size(dim).min(pe_budget);
            if max_par <= 1 {
                continue;
            }
            let f = log_uniform(rng, 1, max_par);
            let newp = (m.parallel[dim.0] * f).min(p.dim_size(dim));
            m.parallel[dim.0] = newp.max(1);
            pe_budget = space.constraints().num_pes / m.active_pes().max(1);
        }

        // Tile sizes: log-uniform L1 tile, then L2 tile between the spatial
        // tile and the full dimension.
        for dim in p.dims() {
            let size = p.dim_size(dim);
            let par = m.parallel[dim.0].max(1);
            let t1 = log_uniform(rng, 1, (size / par).max(1));
            let spatial = (t1 * par).min(size);
            let t2 = log_uniform(rng, spatial.max(1), size);
            m.tiles[0][dim.0] = t1;
            m.tiles[1][dim.0] = t2.max(spatial).max(t1);
        }

        // Loop orders: independent random permutations per level. The shuffle
        // draws depend only on the length, so rebuilding the identity
        // permutation in place keeps the RNG stream identical to the old
        // collect-then-shuffle form.
        for lv in 0..ORDER_LEVELS {
            let order = &mut m.loop_orders[lv];
            order.clear();
            order.extend(0..d);
            order.shuffle(rng);
        }

        // Buffer allocation: random positive fractions normalized to sum <= 1.
        for lv in 0..ONCHIP_LEVELS {
            let row = &mut m.buffer_alloc[lv];
            row.clear();
            row.resize(t, 0.0);
            for r in row.iter_mut() {
                *r = rng.gen_range(0.05..1.0);
            }
            let total: f64 = row.iter().sum();
            let scale = rng.gen_range(0.85..1.0) / total;
            for r in row.iter_mut() {
                *r = (*r * scale).clamp(1e-3, 1.0);
            }
        }
    }

    /// `random_mapping_into`.
    pub fn random_mapping_into<R: Rng + ?Sized>(space: &MapSpace, m: &mut Mapping, rng: &mut R) {
        draw(space, m, rng);
        repair(space, m);
    }

    fn log_uniform<R: Rng + ?Sized>(rng: &mut R, lo: u64, hi: u64) -> u64 {
        let lo = lo.max(1);
        if hi <= lo {
            return lo;
        }
        let llo = (lo as f64).ln();
        let lhi = (hi as f64).ln();
        let v = rng.gen_range(llo..=lhi).exp().round() as u64;
        v.clamp(lo, hi)
    }

    /// `repair`.
    pub fn repair(space: &MapSpace, m: &mut Mapping) {
        let p = space.problem();
        let d = p.num_dims();
        let t = p.num_tensors();

        // Clamp basic ranges.
        for dim in p.dims() {
            let size = p.dim_size(dim);
            m.parallel[dim.0] = m.parallel[dim.0].clamp(1, size);
            m.tiles[0][dim.0] = m.tiles[0][dim.0].clamp(1, size);
            m.tiles[1][dim.0] = m.tiles[1][dim.0].clamp(1, size);
        }

        // Enforce the PE budget by shrinking the largest parallelism factors.
        while m.active_pes() > space.constraints().num_pes {
            let Some(worst) = (0..d).max_by_key(|&i| m.parallel[i]) else {
                break; // zero-dimensional problems have nothing to shrink
            };
            m.parallel[worst] = (m.parallel[worst] / 2).max(1);
            if m.parallel.iter().all(|&x| x == 1) {
                break;
            }
        }

        // Spatial tile must fit within the dimension; L2 tile must cover the
        // spatial tile and dominate the L1 tile.
        for dim in p.dims() {
            let size = p.dim_size(dim);
            while m.tiles[0][dim.0].saturating_mul(m.parallel[dim.0]) > size {
                if m.parallel[dim.0] > 1 {
                    m.parallel[dim.0] = (m.parallel[dim.0] / 2).max(1);
                } else {
                    m.tiles[0][dim.0] = (m.tiles[0][dim.0] / 2).max(1);
                }
            }
            let spatial = (m.tiles[0][dim.0] * m.parallel[dim.0]).min(size);
            if m.tiles[1][dim.0] < spatial {
                m.tiles[1][dim.0] = spatial;
            }
            m.tiles[1][dim.0] = m.tiles[1][dim.0].clamp(m.tiles[0][dim.0], size);
        }

        // Normalize buffer fractions.
        for lv in 0..ONCHIP_LEVELS {
            for f in &mut m.buffer_alloc[lv] {
                if !f.is_finite() || *f <= 0.0 {
                    *f = 1e-3;
                }
                *f = f.min(1.0);
            }
            let sum: f64 = m.buffer_alloc[lv].iter().sum();
            if sum > 1.0 {
                for f in &mut m.buffer_alloc[lv] {
                    *f /= sum;
                }
            }
        }

        // Capacity repair: grow allocations toward the free budget first,
        // then shrink tiles until everything fits.
        for (lv, level) in [Level::L1, Level::L2].into_iter().enumerate() {
            let Some(cap) = space.constraints().capacity_words(level) else {
                continue; // only on-chip levels carry a capacity bound
            };
            // Footprints are recomputed on demand instead of collected into a
            // Vec: `footprint` is a short fold and this loop sits on the
            // proposal hot path, which must stay allocation-free.
            let fp_of = |m: &Mapping, ti: usize| match level {
                Level::L1 => m.l1_footprint(p, ti),
                Level::L2 => m.l2_footprint(p, ti),
                // mm-lint: allow(panic): the enclosing loop iterates
                // on-chip levels only.
                Level::Dram => unreachable!(),
            };
            for _iter in 0..256 {
                // One pass: total footprint plus the largest tensor, keeping
                // `max_by_key`'s last-max tie-breaking (`>=`).
                let mut total_fp: u64 = 0;
                let mut worst: Option<usize> = None;
                let mut worst_fp: u64 = 0;
                for ti in 0..t {
                    let f = fp_of(m, ti);
                    total_fp += f;
                    if worst.is_none() || f >= worst_fp {
                        worst = Some(ti);
                        worst_fp = f;
                    }
                }
                // Feasible when the combined working set fits in the level.
                if total_fp <= cap {
                    let insufficient = (0..t).any(|ti| {
                        (m.buffer_alloc[lv][ti] * cap as f64 + ALLOC_EPS_WORDS).floor()
                            < fp_of(m, ti) as f64
                    });
                    if insufficient {
                        // Redistribute: each tensor gets exactly what it needs
                        // plus a proportional share of the remaining capacity.
                        let slack = (cap - total_fp) as f64;
                        for ti in 0..t {
                            let fp = fp_of(m, ti);
                            let share = if total_fp > 0 {
                                slack * fp as f64 / total_fp as f64
                            } else {
                                slack / t as f64
                            };
                            m.buffer_alloc[lv][ti] =
                                ((fp as f64 + share) / cap as f64).clamp(1e-6, 1.0);
                        }
                    }
                    break;
                }
                // Does not fit at all: shrink the tile dimension contributing
                // the most to the largest tensor.
                let Some(worst_tensor) = worst else {
                    break; // no tensors: nothing occupies the buffer
                };
                let mut dims_stack = [DimId(0); DIM_STACK];
                let dims_overflow;
                let dims: &[DimId] = if d <= DIM_STACK {
                    let n = p.tensors[worst_tensor].relevant_dims_into(&mut dims_stack);
                    &dims_stack[..n]
                } else {
                    // Cold fallback for pathological dimension counts.
                    dims_overflow = p.tensors[worst_tensor].relevant_dims();
                    &dims_overflow
                };
                let target_dim = dims
                    .iter()
                    .copied()
                    .max_by_key(|&dd| match level {
                        Level::L1 => m.tiles[0][dd.0],
                        _ => m.tiles[1][dd.0],
                    })
                    .unwrap_or(DimId(0));
                match level {
                    Level::L1 => {
                        let cur = m.tiles[0][target_dim.0];
                        if cur > 1 {
                            m.tiles[0][target_dim.0] = cur / 2;
                        } else if m.parallel[target_dim.0] > 1 {
                            m.parallel[target_dim.0] /= 2;
                        } else {
                            // Shrink some other dim of this tensor.
                            let mut shrunk = false;
                            for &dd in dims {
                                if m.tiles[0][dd.0] > 1 {
                                    m.tiles[0][dd.0] /= 2;
                                    shrunk = true;
                                    break;
                                }
                            }
                            if !shrunk {
                                break;
                            }
                        }
                        // Keep L2 >= spatial invariant.
                        let size = p.dim_size(target_dim);
                        let spatial =
                            (m.tiles[0][target_dim.0] * m.parallel[target_dim.0]).min(size);
                        if m.tiles[1][target_dim.0] < spatial {
                            m.tiles[1][target_dim.0] = spatial;
                        }
                    }
                    Level::L2 => {
                        // Prefer shrinking whichever L2 tile (of any
                        // dimension) has slack over its spatial tile: that
                        // never touches the (already-valid) L1 tiling or
                        // parallelism, which keeps projection idempotent on
                        // valid mappings.
                        let slack_dim = p
                            .dims()
                            .filter(|&dd| {
                                let sp = m.tiles[0][dd.0] * m.parallel[dd.0];
                                m.tiles[1][dd.0] > sp.max(1)
                            })
                            .max_by_key(|&dd| {
                                let sp = m.tiles[0][dd.0] * m.parallel[dd.0];
                                m.tiles[1][dd.0] - sp.max(1)
                            });
                        if let Some(dd) = slack_dim {
                            let sp = m.tiles[0][dd.0] * m.parallel[dd.0];
                            m.tiles[1][dd.0] = (m.tiles[1][dd.0] / 2).max(sp).max(1);
                        } else if m.tiles[0][target_dim.0] > 1 {
                            m.tiles[0][target_dim.0] /= 2;
                            let sp = m.tiles[0][target_dim.0] * m.parallel[target_dim.0];
                            m.tiles[1][target_dim.0] =
                                m.tiles[1][target_dim.0].min(sp.max(1)).max(1);
                        } else if m.parallel[target_dim.0] > 1 {
                            m.parallel[target_dim.0] /= 2;
                        } else {
                            let mut shrunk = false;
                            for &dd in dims {
                                if m.tiles[0][dd.0] > 1 {
                                    m.tiles[0][dd.0] /= 2;
                                    shrunk = true;
                                    break;
                                } else if m.parallel[dd.0] > 1 {
                                    m.parallel[dd.0] /= 2;
                                    shrunk = true;
                                    break;
                                }
                            }
                            if !shrunk {
                                break;
                            }
                        }
                    }
                    // mm-lint: allow(panic): the enclosing loop iterates
                    // on-chip levels only.
                    Level::Dram => unreachable!(),
                }
            }
        }
    }
}

/// O[i,j] = Σ_k A[i,k] · B[k,j].
fn matmul_problem(i: u64, j: u64, k: u64) -> ProblemSpec {
    let d = DimId;
    let two = |a, b| vec![TensorDim::Single(d(a)), TensorDim::Single(d(b))];
    ProblemSpec::new(
        "prop-matmul",
        vec![("I", i), ("J", j), ("K", k)],
        vec![
            TensorSpec::new("A", TensorKind::Input, two(0, 2)),
            TensorSpec::new("B", TensorKind::Input, two(2, 1)),
            TensorSpec::new("O", TensorKind::Output, two(0, 1)),
        ],
    )
}

/// Space `pick` of the catalogue: the eight Table-1 problems on the paper's
/// accelerator, two conv1d spaces on the example one, and a matmul of the
/// drawn shape on an accelerator small enough that the capacity loops have
/// work to do.
fn space(pick: usize, shape: (u64, u64, u64), pes: u64, l1: u64, l2: u64) -> MapSpace {
    let table = table1::all_problems();
    match pick {
        p if p < table.len() => MapSpace::new(
            table[p].problem.clone(),
            MappingConstraints::paper_accelerator(),
        ),
        p if p < table.len() + 2 => MapSpace::new(
            ProblemSpec::conv1d([128, 4096][p - table.len()], 7),
            MappingConstraints::example(),
        ),
        _ => MapSpace::new(
            matmul_problem(shape.0, shape.1, shape.2),
            MappingConstraints {
                num_pes: pes,
                l1_capacity_words: l1,
                l2_capacity_words: l2,
                l1_banks: 8,
                l2_banks: 16,
            },
        ),
    }
}

/// Number of spaces [`space`] distinguishes (the last is the random matmul).
const SPACES: usize = 11;

/// `a == b` with every fraction compared by its bits (`==` alone would let
/// `0.0` pass for `-0.0`).
fn same(a: &Mapping, b: &Mapping) -> Result<(), TestCaseError> {
    prop_assert_eq!(a, b);
    for (ra, rb) in a.buffer_alloc.iter().zip(&b.buffer_alloc) {
        for (fa, fb) in ra.iter().zip(rb) {
            prop_assert_eq!(fa.to_bits(), fb.to_bits(), "{} vs {}", fa, fb);
        }
    }
    Ok(())
}

/// An extent around `size`: zero, one, in range, or far beyond.
fn wild_extent(rng: &mut StdRng, size: u64) -> u64 {
    match rng.gen_range(0..6) {
        0 => 0,
        1 => 1,
        2 => size,
        3 => rng.gen_range(0..=size.saturating_mul(3)),
        4 => rng.gen_range(0..=u64::MAX),
        _ => rng.gen_range(1..=size),
    }
}

/// A fraction that may be anything a gradient step or a bad caller produces.
fn wild_fraction(rng: &mut StdRng) -> f64 {
    match rng.gen_range(0..8) {
        0 => f64::NAN,
        1 => f64::INFINITY,
        2 => f64::NEG_INFINITY,
        3 => -rng.gen_range(0.0..2.0),
        4 => 0.0,
        5 => rng.gen_range(0.0..40.0),
        _ => rng.gen_range(0.0..1.0),
    }
}

/// A mapping of the right shape and nothing else: the input `project` hands
/// `repair`.
fn garbage(space: &MapSpace, rng: &mut StdRng) -> Mapping {
    let p = space.problem();
    let mut m = Mapping::minimal(p);
    for dim in p.dims() {
        let size = p.dim_size(dim);
        m.tiles[0][dim.0] = wild_extent(rng, size);
        m.tiles[1][dim.0] = wild_extent(rng, size);
        m.parallel[dim.0] = wild_extent(rng, size);
    }
    for order in &mut m.loop_orders {
        order.shuffle(rng);
    }
    for row in &mut m.buffer_alloc {
        for f in row.iter_mut() {
            *f = wild_fraction(rng);
        }
    }
    m
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases_env(32))]

    /// `repair` leaves what the reference leaves, on everything it is handed.
    #[test]
    fn repair_matches_the_reference(
        seed in 0u64..u64::MAX,
        pick in 0usize..SPACES,
        i in 1u64..400,
        j in 1u64..400,
        k in 1u64..400,
        pes in 1u64..300,
        l1 in 8u64..2048,
        l2 in 16u64..65536,
    ) {
        let space = space(pick, (i, j, k), pes, l1, l2);
        let mut rng = StdRng::seed_from_u64(seed);
        let check = |input: Mapping| -> Result<Mapping, TestCaseError> {
            let (mut fast, mut slow) = (input.clone(), input);
            space.repair(&mut fast);
            reference::repair(&space, &mut slow);
            same(&fast, &slow)?;
            prop_assert!(space.is_member(&fast), "{:?}", space.validate(&fast));
            Ok(fast)
        };
        for _ in 0..16 {
            let mut drawn = [Mapping::default(), Mapping::default()];
            for m in &mut drawn {
                reference::draw(&space, m, &mut rng);
            }
            let [a, b] = drawn;
            let a = check(a)?;
            let b = check(b)?;
            check(raw_crossover(&a, &b, &mut rng))?;
            let wild = check(garbage(&space, &mut rng))?;
            check(raw_crossover(&a, &wild, &mut rng))?;
            // A valid mapping goes through both the same way, too.
            check(b)?;
        }
    }

    /// `random_mapping_into` draws what the reference draws and leaves the
    /// generator where the reference leaves it; so do the moves built on
    /// `repair`.
    #[test]
    fn draws_match_the_reference_and_keep_the_stream(
        seed in 0u64..u64::MAX,
        pick in 0usize..SPACES,
        i in 1u64..400,
        j in 1u64..400,
        k in 1u64..400,
        pes in 1u64..300,
        l1 in 8u64..2048,
        l2 in 16u64..65536,
    ) {
        let space = space(pick, (i, j, k), pes, l1, l2);
        let mut fast_rng = StdRng::seed_from_u64(seed);
        let mut slow_rng = StdRng::seed_from_u64(seed);
        // Reused slots, as a `ProposalBuf` hands them out: whatever the last
        // proposal left behind must not show.
        let (mut fast, mut slow) = (Mapping::default(), Mapping::default());
        let mut previous = Mapping::default();
        for round in 0..48 {
            space.random_mapping_into(&mut fast, &mut fast_rng);
            reference::random_mapping_into(&space, &mut slow, &mut slow_rng);
            same(&fast, &slow)?;
            if round > 0 {
                let mut child = Mapping::default();
                space.crossover_into(&previous, &fast, &mut child, &mut fast_rng);
                let mut expected = raw_crossover(&previous, &slow, &mut slow_rng);
                reference::repair(&space, &mut expected);
                same(&child, &expected)?;
            }
            previous.clone_from(&fast);
        }
        prop_assert_eq!(fast_rng.next_u64(), slow_rng.next_u64());
    }
}

/// Uniform crossover without the repair — `crossover_into`'s draws in
/// `crossover_into`'s order (loop orders sit between the extents and the
/// fractions): what it hands `repair`.
fn raw_crossover(a: &Mapping, b: &Mapping, rng: &mut StdRng) -> Mapping {
    let mut out = a.clone();
    for dim in 0..a.parallel.len() {
        if rng.gen_bool(0.5) {
            out.tiles[0][dim] = b.tiles[0][dim];
        }
        if rng.gen_bool(0.5) {
            out.tiles[1][dim] = b.tiles[1][dim];
        }
        if rng.gen_bool(0.5) {
            out.parallel[dim] = b.parallel[dim];
        }
    }
    for (order, other) in out.loop_orders.iter_mut().zip(&b.loop_orders) {
        if rng.gen_bool(0.5) {
            order.clone_from(other);
        }
    }
    for (row, other) in out.buffer_alloc.iter_mut().zip(&b.buffer_alloc) {
        for (f, g) in row.iter_mut().zip(other) {
            if rng.gen_bool(0.5) {
                *f = *g;
            }
        }
    }
    out
}
