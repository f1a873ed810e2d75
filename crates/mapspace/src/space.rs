//! The [`MapSpace`]: the set of valid mappings for one (accelerator, problem)
//! pair, together with sampling, validity checking, and the local-move
//! operators used by black-box searchers.

use rand::seq::SliceRandom;
use rand::Rng;
use serde::{Deserialize, Serialize};

use crate::mapping::{Level, Mapping, ONCHIP_LEVELS, ORDER_LEVELS};
use crate::problem::{DimId, ProblemSpec, TensorDim};

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

/// Tensors whose cached footprints [`MapSpace::repair`] keeps on the stack;
/// a problem with more runs the same code over a heap buffer (none of the
/// paper's workloads come close).
const TENSOR_STACK: usize = 16;

/// What sampling and [`MapSpace::repair`] need of the problem, lowered once
/// by [`MapSpace::new`] (the counterpart of `mm-accel`'s lowered
/// `CostModel`). A pure function of the problem, built in O(dimensions +
/// tensor coordinates) whatever the extents are, and one flat allocation, so
/// that building and cloning a [`MapSpace`] stay cheap.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
struct Lowered {
    /// Three regions, in order: `ln(size)` of every dimension, as `f64`
    /// bits; `tensors + 1` list bounds; then, per tensor, its relevant
    /// dimensions in
    /// [`TensorSpec::relevant_dims`](crate::problem::TensorSpec::relevant_dims)
    /// order (`repair`'s tie-breaks depend on that order).
    words: Vec<u64>,
    /// Where the list bounds start (the number of dimensions).
    bounds: usize,
}

impl Lowered {
    fn new(problem: &ProblemSpec) -> Self {
        let bounds = problem.num_dims();
        let tensors = problem.num_tensors();
        let lists = bounds + tensors + 1;
        let coords: usize = problem.tensors.iter().map(|t| t.dims.len()).sum();
        let mut words = Vec::with_capacity(lists + 2 * coords);
        words.extend(
            problem
                .dim_sizes
                .iter()
                .map(|&size| (size as f64).ln().to_bits()),
        );
        words.resize(lists, 0);
        for (ti, tensor) in problem.tensors.iter().enumerate() {
            let relevant = words.len();
            words[bounds + ti] = relevant as u64;
            for td in &tensor.dims {
                let (a, b) = match *td {
                    TensorDim::Single(a) => (a, None),
                    TensorDim::Compound(a, b) => (a, Some(b)),
                };
                for DimId(i) in std::iter::once(a).chain(b) {
                    if !words[relevant..].contains(&(i as u64)) {
                        words.push(i as u64);
                    }
                }
            }
        }
        words[bounds + tensors] = words.len() as u64;
        Lowered { words, bounds }
    }

    /// `ln(size)` of dimension `dim`.
    #[inline]
    fn ln_size(&self, dim: usize) -> f64 {
        f64::from_bits(self.words[dim])
    }

    /// The dimensions tensor `ti`'s footprint depends on.
    #[inline]
    fn relevant(&self, ti: usize) -> &[u64] {
        let at = self.bounds + ti;
        &self.words[self.words[at] as usize..self.words[at + 1] as usize]
    }
}

/// The map space `M_{a,p}` (Definition 2.2): all valid mappings of problem
/// `p` onto the accelerator described by [`MappingConstraints`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MapSpace {
    problem: ProblemSpec,
    constraints: MappingConstraints,
    lowered: Lowered,
}

impl MapSpace {
    /// Create the map space for `problem` on the accelerator described by
    /// `constraints`.
    pub fn new(problem: ProblemSpec, constraints: MappingConstraints) -> Self {
        let lowered = Lowered::new(&problem);
        Self {
            problem,
            constraints,
            lowered,
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
    ///
    /// The draws, their order and every float operation on them are those of
    /// the sampler the golden fixtures were recorded with; what is skipped
    /// is what never reached the stream: `ln(1)`, the `ln` of a bound that
    /// is the dimension itself (lowered once), and the PE product, carried
    /// along instead of refolded per attempt.
    // mm-lint: hot-path — the steady-state eval loop must not allocate.
    pub fn random_mapping_into<R: Rng + ?Sized>(&self, m: &mut Mapping, rng: &mut R) {
        let low = &self.lowered;
        let sizes = self.problem.dim_sizes.as_slice();
        let d = sizes.len();
        let num_pes = self.constraints.num_pes;
        // Every row below is written in full; only parallelism is
        // accumulated into, so only it starts from the minimal mapping.
        m.reshape(d, self.problem.num_tensors());
        m.parallel.fill(1);

        // Parallelism: repeatedly assign a random factor to a random dim
        // while staying under the PE budget. `active` is the product of the
        // factors so far; it never exceeds `num_pes`, so it never saturates.
        let mut active = 1u64;
        let mut pe_budget = num_pes;
        for _ in 0..d * 2 {
            if pe_budget <= 1 {
                break;
            }
            let dim = rng.gen_range(0..d);
            let size = sizes[dim];
            let max_par = size.min(pe_budget);
            if max_par <= 1 {
                continue;
            }
            let ln_max = if max_par == size {
                low.ln_size(dim)
            } else {
                (max_par as f64).ln()
            };
            let f = log_uniform_between(rng, 1, max_par, 0.0, ln_max);
            let grown = (m.parallel[dim] * f).min(size);
            active = active / m.parallel[dim] * grown;
            m.parallel[dim] = grown;
            debug_assert_eq!(active, m.active_pes());
            pe_budget = num_pes / active;
        }

        // Tile sizes: log-uniform L1 tile, then L2 tile between the spatial
        // tile and the full dimension.
        let (l1, l2) = m.tiles.split_at_mut(1);
        for dim in 0..d {
            let size = sizes[dim];
            let par = m.parallel[dim];
            let room = size / par;
            let t1 = if room <= 1 {
                1
            } else {
                let ln_room = if par == 1 {
                    low.ln_size(dim)
                } else {
                    (room as f64).ln()
                };
                log_uniform_between(rng, 1, room, 0.0, ln_room)
            };
            let spatial = (t1 * par).min(size);
            l1[0][dim] = t1;
            l2[0][dim] = if size <= spatial {
                spatial
            } else {
                log_uniform_between(rng, spatial, size, ln_extent(spatial), low.ln_size(dim))
            };
        }

        // Loop orders: independent random permutations per level. The shuffle
        // draws depend only on the length, so rebuilding the identity
        // permutation in place keeps the RNG stream identical to the old
        // collect-then-shuffle form.
        for order in &mut m.loop_orders {
            order.clear();
            order.extend(0..d);
            order.shuffle(rng);
        }

        // Buffer allocation: random positive fractions normalized to sum <= 1.
        for row in &mut m.buffer_alloc {
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

    /// Deterministically repair a structurally well-formed mapping (every
    /// row of the problem's shape, any values) so that it satisfies the
    /// tile-ordering, parallelism and capacity constraints. Used by
    /// sampling, by every move operator and by projection.
    ///
    /// On a mapping that is already a member, `repair` leaves `tiles`,
    /// `parallel` and `loop_orders` as they are and the result is still a
    /// member — but it is **not** idempotent to the bit. A `buffer_alloc`
    /// row normalised to a sum one ulp above 1.0 is divided by that sum
    /// again: a second `repair` moved about 1.5 % of 540 000 sampled,
    /// mutated and recombined mappings, no entry by more than 4 ulp, and a
    /// third still moved a few. Skipping a `repair` that "cannot have
    /// changed anything" therefore changes search trajectories
    /// (`tests/proptest_space.rs` pins exactly this much).
    // mm-lint: hot-path — the steady-state eval loop must not allocate.
    pub fn repair(&self, m: &mut Mapping) {
        let low = &self.lowered;
        let sizes = self.problem.dim_sizes.as_slice();
        let tensors = self.problem.tensors.as_slice();
        let d = sizes.len();
        let t = tensors.len();
        let (l1, l2) = m.tiles.split_at_mut(1);
        let (t1, t2) = (&mut l1[0][..d], &mut l2[0][..d]);
        let par = &mut m.parallel[..d];

        // Clamp basic ranges, carrying the PE product.
        let mut active = 1u64;
        for i in 0..d {
            let size = sizes[i];
            par[i] = par[i].clamp(1, size);
            t1[i] = t1[i].clamp(1, size);
            t2[i] = t2[i].clamp(1, size);
            active = active.saturating_mul(par[i]);
        }

        // Enforce the PE budget by shrinking the largest parallelism factors
        // (the last of equals, as `max_by_key` picks).
        while active > self.constraints.num_pes {
            let Some(worst) = (0..d).max_by_key(|&i| par[i]) else {
                break; // zero-dimensional problems have nothing to shrink
            };
            par[worst] = (par[worst] / 2).max(1);
            if par.iter().all(|&x| x == 1) {
                break;
            }
            active = par.iter().fold(1u64, |acc, &x| acc.saturating_mul(x));
        }

        // Spatial tile must fit within the dimension; L2 tile must cover the
        // spatial tile and dominate the L1 tile. From here on
        // `t1 * par <= t2 <= size` holds for every dimension.
        for i in 0..d {
            let size = sizes[i];
            while t1[i].saturating_mul(par[i]) > size {
                if par[i] > 1 {
                    par[i] /= 2;
                } else {
                    t1[i] /= 2;
                }
            }
            t2[i] = t2[i].max(t1[i] * par[i]).clamp(t1[i], size);
        }

        // Normalize buffer fractions.
        for row in &mut m.buffer_alloc[..ONCHIP_LEVELS] {
            for f in row.iter_mut() {
                if !f.is_finite() || *f <= 0.0 {
                    *f = 1e-3;
                }
                *f = f.min(1.0);
            }
            let sum: f64 = row.iter().sum();
            if sum > 1.0 {
                for f in row.iter_mut() {
                    *f /= sum;
                }
            }
        }

        // Capacity repair: grow allocations toward the free budget first,
        // then shrink tiles until everything fits. With `t1 * par <= t2` a
        // tensor's footprint folds the L1 tiles at L1 and the L2 tiles at
        // L2; `fp` caches it per tensor and is refolded only for the tensors
        // a shrunk tile is relevant to.
        let mut stack = [0u64; TENSOR_STACK];
        // mm-lint: allow(hot-path): grows only beyond TENSOR_STACK tensors.
        let mut heap = Vec::new();
        let fp = match stack.get_mut(..t) {
            Some(fp) => fp,
            None => {
                heap.resize(t, 0);
                heap.as_mut_slice()
            }
        };
        let caps = [
            self.constraints.l1_capacity_words,
            self.constraints.l2_capacity_words,
        ];
        for (lv, cap) in caps.into_iter().enumerate() {
            let alloc = &mut m.buffer_alloc[lv][..t];
            let at_l1 = lv == 0;
            for (f, tensor) in fp.iter_mut().zip(tensors) {
                let row: &[u64] = if at_l1 { t1 } else { t2 };
                *f = tensor.footprint(|dim| row[dim.0]);
            }
            for _iter in 0..256 {
                // One pass: total footprint plus the largest tensor, keeping
                // `max_by_key`'s last-max tie-breaking (`>=`).
                let (mut total_fp, mut worst, mut worst_fp) = (0u64, 0usize, 0u64);
                for (ti, &f) in fp.iter().enumerate() {
                    total_fp += f;
                    if f >= worst_fp {
                        worst = ti;
                        worst_fp = f;
                    }
                }
                // Feasible when the combined working set fits in the level.
                if total_fp <= cap {
                    let insufficient = alloc
                        .iter()
                        .zip(fp.iter())
                        .any(|(&a, &f)| (a * cap as f64 + ALLOC_EPS_WORDS).floor() < f as f64);
                    if insufficient {
                        // Redistribute: each tensor gets exactly what it needs
                        // plus a proportional share of the remaining capacity.
                        let slack = (cap - total_fp) as f64;
                        for (a, &f) in alloc.iter_mut().zip(fp.iter()) {
                            let share = if total_fp > 0 {
                                slack * f as f64 / total_fp as f64
                            } else {
                                slack / t as f64
                            };
                            *a = ((f as f64 + share) / cap as f64).clamp(1e-6, 1.0);
                        }
                    }
                    break;
                }
                // Does not fit at all: shrink the tile dimension contributing
                // the most to the largest tensor (the last of equals; the
                // first dimension for a tensor with none).
                let row: &[u64] = if at_l1 { t1 } else { t2 };
                let (mut target, mut widest) = (0usize, 0u64);
                for &dd in low.relevant(worst) {
                    if row[dd as usize] >= widest {
                        target = dd as usize;
                        widest = row[target];
                    }
                }
                // The dimension whose tile at this level shrank, if one did.
                let shrunk = if at_l1 {
                    if t1[target] > 1 {
                        t1[target] /= 2;
                        Some(target)
                    } else if par[target] > 1 {
                        par[target] /= 2;
                        None
                    } else {
                        // `target` holds the tensor's widest L1 tile, so no
                        // other dimension of it has anything left to give.
                        break;
                    }
                } else {
                    // Prefer shrinking whichever L2 tile (of any dimension)
                    // has the most slack over its spatial tile: that never
                    // touches the (already-valid) L1 tiling or parallelism,
                    // so repairing a valid mapping again leaves its tiles
                    // and parallelism alone (its fractions may still move by
                    // a few ulp: see this function's documentation).
                    let (mut slack_dim, mut most) = (None, 0u64);
                    for i in 0..d {
                        let spatial = t1[i] * par[i];
                        if t2[i] > spatial && t2[i] - spatial >= most {
                            slack_dim = Some(i);
                            most = t2[i] - spatial;
                        }
                    }
                    if let Some(i) = slack_dim {
                        t2[i] = (t2[i] / 2).max(t1[i] * par[i]);
                        slack_dim
                    } else if t1[target] > 1 {
                        t1[target] /= 2;
                        t2[target] = t2[target].min(t1[target] * par[target]);
                        Some(target)
                    } else if par[target] > 1 {
                        par[target] /= 2;
                        None
                    } else {
                        // No slack anywhere means `t2 == t1 * par`
                        // everywhere, and `target` holds the tensor's widest
                        // L2 tile: nothing of it is left to shrink.
                        break;
                    }
                };
                if let Some(dim) = shrunk {
                    let row: &[u64] = if at_l1 { t1 } else { t2 };
                    for (ti, f) in fp.iter_mut().enumerate() {
                        if low.relevant(ti).contains(&(dim as u64)) {
                            *f = tensors[ti].footprint(|dim| row[dim.0]);
                        }
                    }
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
    // mm-lint: hot-path — the steady-state eval loop must not allocate.
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
    // mm-lint: hot-path — the steady-state eval loop must not allocate.
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
        let mut logfact = 0.0;
        for i in 2..=(p.num_dims()) {
            logfact += (i as f64).log10();
        }
        log += ORDER_LEVELS as f64 * logfact;
        // Buffer allocations at bank granularity.
        log += p.num_tensors() as f64
            * ((self.constraints.l1_banks as f64).log10()
                + (self.constraints.l2_banks as f64).log10());
        log
    }
}

/// `ln(v)` of an extent, without the call for the commonest one: `ln(1)`
/// is `0.0` exactly.
#[inline]
fn ln_extent(v: u64) -> f64 {
    if v <= 1 {
        0.0
    } else {
        (v as f64).ln()
    }
}

/// Sample an integer in `[lo, hi]` approximately log-uniformly.
fn log_uniform<R: Rng + ?Sized>(rng: &mut R, lo: u64, hi: u64) -> u64 {
    let lo = lo.max(1);
    if hi <= lo {
        return lo;
    }
    log_uniform_between(rng, lo, hi, ln_extent(lo), ln_extent(hi))
}

/// The draw of [`log_uniform`] for `1 <= lo < hi`, given their logarithms.
///
/// `x + 0.5` truncated is `x.round()` for every `1 <= x < 2^51` (the sum is
/// exact there), without the libm call; beyond that — a dimension of 10^15 —
/// it may differ by one before the clamp and is a valid draw all the same.
#[inline]
fn log_uniform_between<R: Rng + ?Sized>(
    rng: &mut R,
    lo: u64,
    hi: u64,
    ln_lo: f64,
    ln_hi: f64,
) -> u64 {
    let x = rng.gen_range(ln_lo..=ln_hi).exp();
    ((x + 0.5) as u64).clamp(lo, hi)
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
