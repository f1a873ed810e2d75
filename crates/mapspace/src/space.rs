//! The [`MapSpace`]: the set of valid mappings for one (accelerator, problem)
//! pair, together with sampling, validity checking, and the local-move
//! operators used by black-box searchers.

use rand::seq::SliceRandom;
use rand::Rng;
use serde::{Deserialize, Serialize};

use crate::mapping::{Level, Mapping, ONCHIP_LEVELS, ORDER_LEVELS};
use crate::problem::{DimId, ProblemSpec};

/// The accelerator parameters that constrain which mappings are valid:
/// buffer capacities, bank counts, and the number of processing elements.
///
/// This is the *mapping-relevant* subset of the architecture description; the
/// full architecture (energies, bandwidths, clock) lives in `mm-accel`.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct MappingConstraints {
    /// Number of processing elements available for spatial parallelism.
    pub num_pes: u64,
    /// Capacity of each PE's private L1 buffer, in data words.
    pub l1_capacity_words: u64,
    /// Capacity of the shared L2 buffer, in data words.
    pub l2_capacity_words: u64,
    /// Number of allocatable banks in each L1 buffer.
    pub l1_banks: u64,
    /// Number of allocatable banks in the L2 buffer.
    pub l2_banks: u64,
}

impl MappingConstraints {
    /// The accelerator evaluated in Section 5: 256 PEs, 64 KB private L1 per
    /// PE and 512 KB shared L2, with 4-byte words and 16/32 banks.
    pub fn paper_accelerator() -> Self {
        MappingConstraints {
            num_pes: 256,
            l1_capacity_words: 64 * 1024 / 4,
            l2_capacity_words: 512 * 1024 / 4,
            l1_banks: 16,
            l2_banks: 32,
        }
    }

    /// A small configuration handy for unit tests and doc examples.
    pub fn example() -> Self {
        MappingConstraints {
            num_pes: 16,
            l1_capacity_words: 1024,
            l2_capacity_words: 16 * 1024,
            l1_banks: 8,
            l2_banks: 16,
        }
    }

    /// Capacity in words of the given on-chip level (`None` for DRAM).
    pub fn capacity_words(&self, level: Level) -> Option<u64> {
        match level {
            Level::L1 => Some(self.l1_capacity_words),
            Level::L2 => Some(self.l2_capacity_words),
            Level::Dram => None,
        }
    }
}

impl Default for MappingConstraints {
    fn default() -> Self {
        Self::paper_accelerator()
    }
}

/// Tolerance (in words) used when comparing tensor footprints against buffer
/// allocations, absorbing the precision lost when allocation fractions pass
/// through the `f32` mapping encoding.
const ALLOC_EPS_WORDS: f64 = 0.0625;

/// Stack capacity for per-tensor relevant-dimension scratch in
/// [`MapSpace::repair`]; problems with more dimensions fall back to a heap
/// allocation (none of the paper's workloads come close).
const DIM_STACK: usize = 64;

/// The map space `M_{a,p}` (Definition 2.2): all valid mappings of problem
/// `p` onto the accelerator described by [`MappingConstraints`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MapSpace {
    problem: ProblemSpec,
    constraints: MappingConstraints,
}

impl MapSpace {
    /// Create the map space for `problem` on the accelerator described by
    /// `constraints`.
    pub fn new(problem: ProblemSpec, constraints: MappingConstraints) -> Self {
        Self {
            problem,
            constraints,
        }
    }

    /// The problem this map space targets.
    #[inline]
    pub fn problem(&self) -> &ProblemSpec {
        &self.problem
    }

    /// The accelerator constraints.
    #[inline]
    pub fn constraints(&self) -> &MappingConstraints {
        &self.constraints
    }

    // ------------------------------------------------------------------
    // Validity (isMember)
    // ------------------------------------------------------------------

    /// `isMember(m, p)` — whether `m` is a valid mapping of the problem onto
    /// the accelerator (Appendix B). Checks shape, tile monotonicity,
    /// parallelism limits, loop-order permutations, buffer-allocation ranges
    /// and per-tensor capacity fits.
    pub fn is_member(&self, m: &Mapping) -> bool {
        self.validate(m).is_ok()
    }

    /// Like [`is_member`](Self::is_member) but returns the first violated
    /// constraint as a human-readable string, which is useful in tests and
    /// debugging.
    ///
    /// # Errors
    ///
    /// Returns a description of the first violated validity constraint.
    pub fn validate(&self, m: &Mapping) -> Result<(), String> {
        let p = &self.problem;
        let d = p.num_dims();
        let t = p.num_tensors();
        if m.tiles.len() != ONCHIP_LEVELS || m.tiles.iter().any(|v| v.len() != d) {
            return Err(format!("tiles must be {ONCHIP_LEVELS} levels x {d} dims"));
        }
        if m.parallel.len() != d {
            return Err(format!("parallel must have {d} entries"));
        }
        if m.loop_orders.len() != ORDER_LEVELS || m.loop_orders.iter().any(|v| v.len() != d) {
            return Err(format!(
                "loop_orders must be {ORDER_LEVELS} levels x {d} dims"
            ));
        }
        if m.buffer_alloc.len() != ONCHIP_LEVELS || m.buffer_alloc.iter().any(|v| v.len() != t) {
            return Err(format!(
                "buffer_alloc must be {ONCHIP_LEVELS} levels x {t} tensors"
            ));
        }

        for dim in p.dims() {
            let size = p.dim_size(dim);
            let t1 = m.tiles[0][dim.0];
            let t2 = m.tiles[1][dim.0];
            let par = m.parallel[dim.0];
            if t1 == 0 || t2 == 0 || par == 0 {
                return Err(format!("zero tile/parallelism for dim {dim}"));
            }
            if t1 > size || t2 > size {
                return Err(format!(
                    "tile larger than dimension {dim} (t1={t1}, t2={t2}, size={size})"
                ));
            }
            if par > size {
                return Err(format!("parallelism {par} exceeds dim {dim} size {size}"));
            }
            if t1.saturating_mul(par) > size {
                return Err(format!(
                    "spatial tile t1*par = {} exceeds dim {dim} size {size}",
                    t1 * par
                ));
            }
            if t2 < t1 {
                return Err(format!("L2 tile {t2} smaller than L1 tile {t1} ({dim})"));
            }
        }

        if m.active_pes() > self.constraints.num_pes {
            return Err(format!(
                "parallelism product {} exceeds {} PEs",
                m.active_pes(),
                self.constraints.num_pes
            ));
        }

        for lv in 0..ORDER_LEVELS {
            if d <= 128 {
                // Bitmask permutation check: keeps the hot validate path
                // allocation-free for every realistic problem.
                let mut seen: u128 = 0;
                for &i in &m.loop_orders[lv] {
                    if i >= d || seen & (1u128 << i) != 0 {
                        return Err(format!("loop order at level {lv} is not a permutation"));
                    }
                    seen |= 1u128 << i;
                }
            } else {
                let mut seen = vec![false; d];
                for &i in &m.loop_orders[lv] {
                    if i >= d || seen[i] {
                        return Err(format!("loop order at level {lv} is not a permutation"));
                    }
                    seen[i] = true;
                }
            }
        }

        for lv in 0..ONCHIP_LEVELS {
            let sum: f64 = m.buffer_alloc[lv].iter().sum();
            if m.buffer_alloc[lv].iter().any(|&f| !(f > 0.0 && f <= 1.0)) {
                return Err(format!("buffer fractions at level {lv} out of (0,1]"));
            }
            if sum > 1.0 + 1e-9 {
                return Err(format!("buffer fractions at level {lv} sum to {sum} > 1"));
            }
        }

        // Capacity checks: each tensor's tile must fit within its allocation.
        for (lv, level) in [Level::L1, Level::L2].into_iter().enumerate() {
            let Some(cap) = self.constraints.capacity_words(level) else {
                continue; // only on-chip levels carry a capacity bound
            };
            for ti in 0..t {
                let fp = match level {
                    Level::L1 => m.l1_footprint(p, ti),
                    Level::L2 => m.l2_footprint(p, ti),
                    // mm-lint: allow(panic): the enclosing loop iterates
                    // on-chip levels only.
                    Level::Dram => unreachable!(),
                };
                let allowed =
                    (m.buffer_alloc[lv][ti] * cap as f64 + ALLOC_EPS_WORDS).floor() as u64;
                if fp > allowed {
                    return Err(format!(
                        "tensor {} footprint {fp} exceeds allocation {allowed} at {level}",
                        p.tensors[ti].name
                    ));
                }
            }
        }
        Ok(())
    }

    // ------------------------------------------------------------------
    // Sampling (getMapping)
    // ------------------------------------------------------------------

    /// `getMapping` — draw a uniformly random *valid* mapping (Section 4.1.1,
    /// question 2). Sampling is log-uniform over tile sizes and parallelism
    /// followed by a deterministic capacity repair, so every call returns a
    /// valid mapping.
    pub fn random_mapping<R: Rng + ?Sized>(&self, rng: &mut R) -> Mapping {
        let mut m = Mapping::default();
        self.random_mapping_into(&mut m, rng);
        m
    }

    /// In-place form of [`random_mapping`](Self::random_mapping): rewrites
    /// `m` to a fresh random valid mapping, reusing its allocations.
    pub fn random_mapping_into<R: Rng + ?Sized>(&self, m: &mut Mapping, rng: &mut R) {
        m.reset_minimal(&self.problem);
        let p = &self.problem;
        let d = p.num_dims();
        let t = p.num_tensors();

        // Parallelism: repeatedly assign a random factor to a random dim
        // while staying under the PE budget.
        let mut pe_budget = self.constraints.num_pes;
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
            pe_budget = self.constraints.num_pes / m.active_pes().max(1);
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

        self.repair(m);
        debug_assert!(self.is_member(m), "{:?}", self.validate(m));
    }

    /// Deterministically repair a structurally well-formed mapping so that it
    /// satisfies tile-ordering, parallelism, and capacity constraints. Used
    /// by both sampling and projection.
    pub fn repair(&self, m: &mut Mapping) {
        let p = &self.problem;
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
        while m.active_pes() > self.constraints.num_pes {
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
            let Some(cap) = self.constraints.capacity_words(level) else {
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

    // ------------------------------------------------------------------
    // Local-move operators for black-box searchers
    // ------------------------------------------------------------------

    /// Produce a neighbouring mapping by perturbing one randomly chosen
    /// programmable attribute (used by Simulated Annealing and as GA's
    /// mutation kernel). The result is always valid.
    pub fn neighbor<R: Rng + ?Sized>(&self, m: &Mapping, rng: &mut R) -> Mapping {
        let mut out = Mapping::default();
        self.neighbor_into(m, &mut out, rng);
        out
    }

    /// In-place form of [`neighbor`](Self::neighbor): rewrites `out` to a
    /// valid neighbour of `current`, reusing `out`'s allocations.
    pub fn neighbor_into<R: Rng + ?Sized>(
        &self,
        current: &Mapping,
        out: &mut Mapping,
        rng: &mut R,
    ) {
        out.clone_from(current);
        self.mutate_in_place(out, rng);
        self.repair(out);
    }

    /// Mutate one attribute in place (may leave the mapping invalid until
    /// [`repair`](Self::repair) is called).
    pub fn mutate_in_place<R: Rng + ?Sized>(&self, m: &mut Mapping, rng: &mut R) {
        let p = &self.problem;
        let d = p.num_dims();
        let t = p.num_tensors();
        match rng.gen_range(0..5) {
            0 => {
                // Perturb an L1 tile size: multiply or divide by 2, or resample.
                let dim = rng.gen_range(0..d);
                let size = p.dim_sizes[dim];
                m.tiles[0][dim] = perturb_extent(rng, m.tiles[0][dim], size);
            }
            1 => {
                // Perturb an L2 tile size.
                let dim = rng.gen_range(0..d);
                let size = p.dim_sizes[dim];
                m.tiles[1][dim] = perturb_extent(rng, m.tiles[1][dim], size);
            }
            2 => {
                // Perturb parallelism.
                let dim = rng.gen_range(0..d);
                let size = p.dim_sizes[dim];
                m.parallel[dim] =
                    perturb_extent(rng, m.parallel[dim], size.min(self.constraints.num_pes));
            }
            3 => {
                // Swap two loops in a random level's order.
                let lv = rng.gen_range(0..ORDER_LEVELS);
                if d >= 2 {
                    let a = rng.gen_range(0..d);
                    let b = rng.gen_range(0..d);
                    m.loop_orders[lv].swap(a, b);
                }
            }
            _ => {
                // Perturb a buffer allocation fraction.
                let lv = rng.gen_range(0..ONCHIP_LEVELS);
                let ti = rng.gen_range(0..t);
                let delta = rng.gen_range(-0.2..0.2);
                m.buffer_alloc[lv][ti] = (m.buffer_alloc[lv][ti] + delta).clamp(1e-3, 1.0);
            }
        }
    }

    /// Uniform crossover of two parent mappings (used by the Genetic
    /// Algorithm baseline): each programmable attribute is inherited from a
    /// randomly chosen parent. The child is repaired to validity.
    pub fn crossover<R: Rng + ?Sized>(&self, a: &Mapping, b: &Mapping, rng: &mut R) -> Mapping {
        let mut child = Mapping::default();
        self.crossover_into(a, b, &mut child, rng);
        child
    }

    /// In-place form of [`crossover`](Self::crossover): writes the child into
    /// `out`, reusing its existing allocations.
    // mm-lint: hot-path — the steady-state eval loop must not allocate.
    pub fn crossover_into<R: Rng + ?Sized>(
        &self,
        a: &Mapping,
        b: &Mapping,
        out: &mut Mapping,
        rng: &mut R,
    ) {
        let p = &self.problem;
        let d = p.num_dims();
        let t = p.num_tensors();
        out.clone_from(a);
        for dim in 0..d {
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
        for lv in 0..ORDER_LEVELS {
            if rng.gen_bool(0.5) {
                out.loop_orders[lv].clone_from(&b.loop_orders[lv]);
            }
        }
        for lv in 0..ONCHIP_LEVELS {
            for ti in 0..t {
                if rng.gen_bool(0.5) {
                    out.buffer_alloc[lv][ti] = b.buffer_alloc[lv][ti];
                }
            }
        }
        self.repair(out);
    }

    /// Order-of-magnitude estimate of `log10 |M|`, the size of the mapping
    /// space (Section 3.1 quotes ≈ 10^25 for ResNet Conv_4).
    pub fn log10_size_estimate(&self) -> f64 {
        let p = &self.problem;
        let mut log = 0.0f64;
        for dim in p.dims() {
            let s = p.dim_size(dim) as f64;
            // Two tile levels plus a parallelism factor per dimension.
            log += 3.0 * s.log10();
        }
        // Loop orders: (d!)^3.
        let d = p.num_dims() as f64;
        let mut logfact = 0.0;
        for i in 2..=(p.num_dims()) {
            logfact += (i as f64).log10();
        }
        log += ORDER_LEVELS as f64 * logfact;
        // Buffer allocations at bank granularity.
        log += p.num_tensors() as f64
            * ((self.constraints.l1_banks as f64).log10()
                + (self.constraints.l2_banks as f64).log10());
        let _ = d;
        log
    }
}

/// Sample an integer in `[lo, hi]` approximately log-uniformly.
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

/// Perturb an extent: multiply/divide by 2 or resample log-uniformly, staying
/// within `[1, max]`.
fn perturb_extent<R: Rng + ?Sized>(rng: &mut R, cur: u64, max: u64) -> u64 {
    match rng.gen_range(0..3) {
        0 => (cur.saturating_mul(2)).clamp(1, max.max(1)),
        1 => (cur / 2).clamp(1, max.max(1)),
        _ => log_uniform(rng, 1, max.max(1)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn space() -> MapSpace {
        MapSpace::new(ProblemSpec::conv1d(128, 7), MappingConstraints::example())
    }

    #[test]
    fn minimal_mapping_is_member() {
        let s = space();
        let m = Mapping::minimal(s.problem());
        assert!(s.is_member(&m), "{:?}", s.validate(&m));
    }

    #[test]
    fn random_mappings_are_valid() {
        let s = space();
        let mut rng = StdRng::seed_from_u64(7);
        for _ in 0..200 {
            let m = s.random_mapping(&mut rng);
            assert!(s.is_member(&m), "{:?}", s.validate(&m));
        }
    }

    #[test]
    fn random_mappings_are_diverse() {
        let s = space();
        let mut rng = StdRng::seed_from_u64(11);
        let a = s.random_mapping(&mut rng);
        let b = s.random_mapping(&mut rng);
        assert_ne!(a, b, "two random mappings should almost surely differ");
    }

    #[test]
    fn neighbor_stays_valid() {
        let s = space();
        let mut rng = StdRng::seed_from_u64(3);
        let mut m = s.random_mapping(&mut rng);
        for _ in 0..100 {
            m = s.neighbor(&m, &mut rng);
            assert!(s.is_member(&m), "{:?}", s.validate(&m));
        }
    }

    #[test]
    fn crossover_stays_valid() {
        let s = space();
        let mut rng = StdRng::seed_from_u64(5);
        let a = s.random_mapping(&mut rng);
        let b = s.random_mapping(&mut rng);
        for _ in 0..50 {
            let c = s.crossover(&a, &b, &mut rng);
            assert!(s.is_member(&c), "{:?}", s.validate(&c));
        }
    }

    #[test]
    fn into_forms_match_allocating_forms() {
        let s = space();
        let mut rng_a = StdRng::seed_from_u64(17);
        let mut rng_b = StdRng::seed_from_u64(17);
        let mut sample_buf = Mapping::default();
        let mut neigh_buf = Mapping::default();
        for _ in 0..50 {
            let a = s.random_mapping(&mut rng_a);
            s.random_mapping_into(&mut sample_buf, &mut rng_b);
            assert_eq!(a, sample_buf, "random_mapping_into diverged");
            let n = s.neighbor(&a, &mut rng_a);
            s.neighbor_into(&a, &mut neigh_buf, &mut rng_b);
            assert_eq!(n, neigh_buf, "neighbor_into diverged");
            let c = s.crossover(&a, &n, &mut rng_a);
            let mut cross_buf = Mapping::default();
            s.crossover_into(&a, &n, &mut cross_buf, &mut rng_b);
            assert_eq!(c, cross_buf, "crossover_into diverged");
        }
    }

    #[test]
    fn validity_rejects_oversized_tiles() {
        let s = space();
        let mut m = Mapping::minimal(s.problem());
        m.tiles[0][0] = 10_000;
        assert!(!s.is_member(&m));
    }

    #[test]
    fn validity_rejects_excess_parallelism() {
        let s = space();
        let mut m = Mapping::minimal(s.problem());
        m.parallel[0] = 64; // > 16 PEs in the example config
        m.tiles[1][0] = 64;
        assert!(!s.is_member(&m));
    }

    #[test]
    fn validity_rejects_bad_loop_order() {
        let s = space();
        let mut m = Mapping::minimal(s.problem());
        m.loop_orders[0] = vec![0, 0];
        assert!(!s.is_member(&m));
    }

    #[test]
    fn validity_rejects_overfull_buffer_fractions() {
        let s = space();
        let mut m = Mapping::minimal(s.problem());
        m.buffer_alloc[0] = vec![0.9, 0.9, 0.9];
        assert!(!s.is_member(&m));
    }

    #[test]
    fn validity_rejects_capacity_overflow() {
        let s = space();
        let mut m = Mapping::minimal(s.problem());
        // L1 has 1024 words; a 1000-wide output tile with a tiny allocation
        // cannot fit.
        m.tiles[0][0] = 120;
        m.tiles[1][0] = 122;
        m.buffer_alloc[0] = vec![0.01, 0.01, 0.01];
        assert!(!s.is_member(&m));
    }

    #[test]
    fn repair_fixes_capacity_overflow() {
        let s = space();
        let mut m = Mapping::minimal(s.problem());
        m.tiles[0] = vec![122, 7];
        m.tiles[1] = vec![122, 7];
        m.buffer_alloc[0] = vec![0.001, 0.001, 0.001];
        s.repair(&mut m);
        assert!(s.is_member(&m), "{:?}", s.validate(&m));
    }

    #[test]
    fn repair_respects_pe_budget() {
        let s = space();
        let mut m = Mapping::minimal(s.problem());
        m.parallel = vec![16, 7];
        s.repair(&mut m);
        assert!(m.active_pes() <= s.constraints().num_pes);
        assert!(s.is_member(&m), "{:?}", s.validate(&m));
    }

    #[test]
    fn paper_accelerator_dimensions() {
        let c = MappingConstraints::paper_accelerator();
        assert_eq!(c.num_pes, 256);
        assert_eq!(c.l1_capacity_words, 16 * 1024);
        assert_eq!(c.l2_capacity_words, 128 * 1024);
    }

    #[test]
    fn size_estimate_is_positive_and_monotone() {
        let small = MapSpace::new(ProblemSpec::conv1d(32, 3), MappingConstraints::example());
        let big = MapSpace::new(ProblemSpec::conv1d(4096, 9), MappingConstraints::example());
        assert!(small.log10_size_estimate() > 0.0);
        assert!(big.log10_size_estimate() > small.log10_size_estimate());
    }

    #[test]
    fn log_uniform_bounds() {
        let mut rng = StdRng::seed_from_u64(1);
        for _ in 0..1000 {
            let v = log_uniform(&mut rng, 1, 100);
            assert!((1..=100).contains(&v));
        }
        assert_eq!(log_uniform(&mut rng, 5, 5), 5);
        assert_eq!(log_uniform(&mut rng, 9, 3), 9);
    }
}
