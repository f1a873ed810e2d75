//! [`MapSpaceView`]: the searcher-facing map-space API, and
//! [`ShardedMapSpace`]: a provably disjoint slice of a [`MapSpace`].
//!
//! Search methods never need the whole concrete [`MapSpace`] — they consume a
//! small operational surface (sample, perturb, recombine, repair, check).
//! [`MapSpaceView`] names exactly that surface as an object-safe trait, so a
//! searcher works identically over the full space and over a *shard* of it.
//!
//! # Sharding
//!
//! [`MapSpace::shard(i, n)`](MapSpace::shard) splits the space into `n`
//! pairwise-disjoint, jointly-covering subspaces by restricting a
//! **mixed-radix product of discrete axes**, in the spirit of Timeloop's
//! mapspace splits. The axes, most significant first:
//!
//! * **L2 loop-order prefix** ([`ShardAxisKind::OrderL2`]). The L2-level
//!   temporal loop order is a permutation of the problem dimensions; its
//!   lexicographic (Lehmer) rank lives in `[0, d!)`.
//! * **L1 loop-order prefix** ([`ShardAxisKind::OrderL1`]). The same rank
//!   over the L1-level loop order — another independent `d!` factor.
//! * **Parallelism split** ([`ShardAxisKind::Parallel`]). The spatial
//!   fan-out assigned to one split dimension (a dimension *other than* the
//!   tile-split dimension, so the two pins never conflict), bucketed into
//!   `[1, P]` where `P` is capped so that every (parallelism, tile) pin
//!   combination still admits a valid mapping under the buffer capacities.
//! * **L2 tile prefix** ([`ShardAxisKind::Tile`]). The L2 tile extent of the
//!   largest problem dimension, bucketed into `[1, size]` (PR 3's fallback
//!   axis, now the least-significant refinement).
//!
//! Every mapping has exactly one **combined rank** — the mixed-radix number
//! whose digits are the axis values above — so contiguous rank intervals
//! partition the space: disjoint by construction and jointly covering
//! (attribute values beyond a bucketed axis's extent are absorbed by its
//! last bucket, keeping the digit function total). [`MapSpace::shard_capacity`]
//! is the *product* of the axis cardinalities (`d!·d!·P·size`), so the
//! useful shard count grows multiplicatively instead of being throttled by
//! a single axis on small-`d!` problems.

use std::sync::{Arc, OnceLock};

use rand::{Rng, RngCore};

use crate::mapping::Mapping;
use crate::problem::{DimId, ProblemSpec};
use crate::space::{MapSpace, MappingConstraints};
use crate::MapSpaceError;

/// Interned telemetry counters for the shard clamp/repair path. Handles are
/// cached in `OnceLock` statics so the hot path is one relaxed level check
/// plus (when enabled) one relaxed add; instrumentation never draws RNG or
/// reorders anything, keeping the deterministic replay contract intact.
fn tele_clamp_moved() -> &'static Arc<mm_telemetry::Counter> {
    static C: OnceLock<Arc<mm_telemetry::Counter>> = OnceLock::new();
    C.get_or_init(|| mm_telemetry::counter("mapspace.clamp_moved"))
}

fn tele_pin_fix_calls() -> &'static Arc<mm_telemetry::Counter> {
    static C: OnceLock<Arc<mm_telemetry::Counter>> = OnceLock::new();
    C.get_or_init(|| mm_telemetry::counter("mapspace.pin_fix_calls"))
}

fn tele_pin_fix_refits() -> &'static Arc<mm_telemetry::Counter> {
    static C: OnceLock<Arc<mm_telemetry::Counter>> = OnceLock::new();
    C.get_or_init(|| mm_telemetry::counter("mapspace.pin_fix_refits"))
}

/// Index of the L1 temporal loop order within `Mapping::loop_orders`.
const L1_ORDER_LEVEL: usize = 0;
/// Index of the L2 temporal loop order within `Mapping::loop_orders`.
const L2_ORDER_LEVEL: usize = 1;

/// The operations searchers actually use, abstracted over "the full map
/// space" and "one shard of it".
///
/// Object-safe (`&dyn MapSpaceView`) so heterogeneous drivers — the
/// sequential `drive` loop, the multi-shard `Mapper`, the serve scheduler —
/// can hold any view behind one pointer. [`MapSpace`] implements it by delegation; [`ShardedMapSpace`] implements
/// it with the shard constraint enforced after every operation.
pub trait MapSpaceView: Send + Sync {
    /// The problem this view's mappings target.
    fn problem(&self) -> &ProblemSpec;

    /// The accelerator constraints.
    fn constraints(&self) -> &MappingConstraints;

    /// Rewrite `out` to a fresh random *valid* mapping belonging to this
    /// view, reusing its allocations.
    fn random_mapping_into(&self, out: &mut Mapping, rng: &mut dyn RngCore);

    /// Allocating form of [`random_mapping_into`](Self::random_mapping_into):
    /// same RNG stream, same mapping.
    fn random_mapping(&self, rng: &mut dyn RngCore) -> Mapping {
        let mut out = Mapping::default();
        self.random_mapping_into(&mut out, rng);
        out
    }

    /// Rewrite `out` to a valid neighbour of `current` within this view,
    /// reusing `out`'s allocations.
    fn neighbor_into(&self, current: &Mapping, out: &mut Mapping, rng: &mut dyn RngCore);

    /// Allocating form of [`neighbor_into`](Self::neighbor_into): same RNG
    /// stream, same mapping.
    fn neighbor(&self, m: &Mapping, rng: &mut dyn RngCore) -> Mapping {
        let mut out = Mapping::default();
        self.neighbor_into(m, &mut out, rng);
        out
    }

    /// Mutate one attribute in place (may leave the mapping invalid until
    /// [`repair`](Self::repair) is called).
    fn mutate_in_place(&self, m: &mut Mapping, rng: &mut dyn RngCore);

    /// Uniform crossover of two parents, written into `out` (reusing its
    /// allocations); the child is valid and in-view.
    fn crossover_into(&self, a: &Mapping, b: &Mapping, out: &mut Mapping, rng: &mut dyn RngCore);

    /// Allocating form of [`crossover_into`](Self::crossover_into): same
    /// RNG stream, same child.
    fn crossover(&self, a: &Mapping, b: &Mapping, rng: &mut dyn RngCore) -> Mapping {
        let mut out = Mapping::default();
        self.crossover_into(a, b, &mut out, rng);
        out
    }

    /// Deterministically repair `m` to validity *within this view*.
    fn repair(&self, m: &mut Mapping);

    /// Whether `m` is a valid mapping belonging to this view.
    fn is_member(&self, m: &Mapping) -> bool;

    /// Like [`is_member`](Self::is_member), returning the first violated
    /// constraint as a human-readable string.
    ///
    /// # Errors
    ///
    /// Returns a description of the first violated validity (or shard
    /// membership) constraint.
    fn validate(&self, m: &Mapping) -> Result<(), String>;

    /// Order-of-magnitude estimate of `log10 |view|`.
    fn log10_size_estimate(&self) -> f64;

    /// Project the mapping portion of a flat encoded vector onto this view,
    /// writing the result into `out` (reusing its allocations).
    ///
    /// # Errors
    ///
    /// Returns [`MapSpaceError::BadVectorLength`], leaving `out` untouched,
    /// if the vector length does not match the encoding for this problem.
    fn project_into(&self, values: &[f32], out: &mut Mapping) -> Result<(), MapSpaceError>;

    /// `(index, count)` when this view is one shard of a partition; `None`
    /// for the full space.
    fn shard_info(&self) -> Option<(usize, usize)> {
        None
    }

    /// Clone this view behind a fresh box (object-safe `Clone`).
    fn clone_view(&self) -> Box<dyn MapSpaceView>;
}

impl MapSpaceView for MapSpace {
    fn problem(&self) -> &ProblemSpec {
        MapSpace::problem(self)
    }

    fn constraints(&self) -> &MappingConstraints {
        MapSpace::constraints(self)
    }

    fn random_mapping_into(&self, out: &mut Mapping, rng: &mut dyn RngCore) {
        MapSpace::random_mapping_into(self, out, rng);
    }

    fn neighbor_into(&self, current: &Mapping, out: &mut Mapping, rng: &mut dyn RngCore) {
        MapSpace::neighbor_into(self, current, out, rng);
    }

    fn mutate_in_place(&self, m: &mut Mapping, rng: &mut dyn RngCore) {
        MapSpace::mutate_in_place(self, m, rng);
    }

    fn crossover_into(&self, a: &Mapping, b: &Mapping, out: &mut Mapping, rng: &mut dyn RngCore) {
        MapSpace::crossover_into(self, a, b, out, rng);
    }

    fn repair(&self, m: &mut Mapping) {
        MapSpace::repair(self, m);
    }

    fn is_member(&self, m: &Mapping) -> bool {
        MapSpace::is_member(self, m)
    }

    fn validate(&self, m: &Mapping) -> Result<(), String> {
        MapSpace::validate(self, m)
    }

    fn log10_size_estimate(&self) -> f64 {
        MapSpace::log10_size_estimate(self)
    }

    fn project_into(&self, values: &[f32], out: &mut Mapping) -> Result<(), MapSpaceError> {
        MapSpace::project_into(self, values, out)
    }

    fn clone_view(&self) -> Box<dyn MapSpaceView> {
        Box::new(self.clone())
    }
}

/// The discrete axes a shard partition restricts (see the
/// [module docs](self)): what [`ShardAxis::kind`] reports.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ShardAxisKind {
    /// Lexicographic rank of the L2 temporal loop order (`d!` values).
    OrderL2,
    /// Lexicographic rank of the L1 temporal loop order (`d!` values).
    OrderL1,
    /// Spatial fan-out of the parallelism-split dimension.
    Parallel,
    /// L2 tile extent of the largest problem dimension.
    Tile,
}

/// One concrete axis of a shard partition's mixed-radix product.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ShardAxis {
    /// Digit = lexicographic rank of `loop_orders[level]`, in `[0, perms)`.
    OrderPrefix {
        /// Which loop-order level is ranked (0 = L1, 1 = L2).
        level: usize,
        /// `d!` for `d` problem dimensions.
        perms: u128,
    },
    /// Digit = `parallel[dim].clamp(1, extent) − 1`, in `[0, extent)` (the
    /// last bucket absorbs fan-outs beyond `extent`).
    ParallelSplit {
        /// The split dimension (never the tile-split dimension).
        dim: usize,
        /// Number of parallelism buckets, capped for joint satisfiability
        /// with the tile axis.
        extent: u64,
    },
    /// Digit = `tiles[L2][dim].clamp(1, extent) − 1`, in `[0, extent)`.
    TilePrefix {
        /// The split tiling dimension (largest problem dimension).
        dim: usize,
        /// That dimension's size (number of admissible L2 tile extents).
        extent: u64,
    },
}

impl ShardAxis {
    /// Number of digit values of this axis.
    pub fn cardinality(&self) -> u128 {
        match self {
            ShardAxis::OrderPrefix { perms, .. } => *perms,
            ShardAxis::ParallelSplit { extent, .. } | ShardAxis::TilePrefix { extent, .. } => {
                u128::from(*extent)
            }
        }
    }

    /// Which [`ShardAxisKind`] this axis realizes.
    pub fn kind(&self) -> ShardAxisKind {
        match self {
            ShardAxis::OrderPrefix { level, .. } if *level == L2_ORDER_LEVEL => {
                ShardAxisKind::OrderL2
            }
            ShardAxis::OrderPrefix { .. } => ShardAxisKind::OrderL1,
            ShardAxis::ParallelSplit { .. } => ShardAxisKind::Parallel,
            ShardAxis::TilePrefix { .. } => ShardAxisKind::Tile,
        }
    }

    /// The digit this axis assigns to a (structurally well-formed) mapping.
    fn digit(&self, m: &Mapping) -> u128 {
        match self {
            ShardAxis::OrderPrefix { level, .. } => perm_rank(&m.loop_orders[*level]),
            ShardAxis::ParallelSplit { dim, extent } => {
                u128::from(m.parallel[*dim].clamp(1, *extent) - 1)
            }
            ShardAxis::TilePrefix { dim, extent } => {
                u128::from(m.tiles[1][*dim].clamp(1, *extent) - 1)
            }
        }
    }

    /// Overwrite the attribute this axis ranks from a digit value.
    fn apply(&self, m: &mut Mapping, digit: u128) {
        match self {
            ShardAxis::OrderPrefix { level, .. } => {
                let d = m.loop_orders[*level].len();
                m.loop_orders[*level] = perm_unrank(d, digit);
            }
            ShardAxis::ParallelSplit { dim, .. } => {
                m.parallel[*dim] = digit as u64 + 1;
            }
            ShardAxis::TilePrefix { dim, .. } => {
                m.tiles[1][*dim] = digit as u64 + 1;
            }
        }
    }
}

/// One shard of a [`MapSpace`]: the subset of mappings whose combined
/// mixed-radix rank (see [module docs](self)) falls in `[lo, hi)`.
///
/// Produced by [`MapSpace::shard`]; the `n` shards of one space are
/// pairwise disjoint and jointly cover the full space.
#[derive(Debug, Clone)]
pub struct ShardedMapSpace {
    base: MapSpace,
    index: usize,
    count: usize,
    /// The restricted axes, most significant first.
    axes: Vec<ShardAxis>,
    /// `strides[i]` = product of cardinalities of `axes[i+1..]`.
    strides: Vec<u128>,
    /// Inclusive lower bound of this shard's combined-rank interval.
    lo: u128,
    /// Exclusive upper bound of this shard's combined-rank interval.
    hi: u128,
}

impl MapSpace {
    /// The mixed-radix axis product [`shard`](Self::shard) partitions: every
    /// [`ShardAxisKind`] whose cardinality on this space is at least 2, in
    /// canonical significance order.
    pub fn axis_product(&self) -> Vec<ShardAxis> {
        let d = self.problem().num_dims();
        let perms = factorial(d);
        let (tile_dim, raw_tile_size) = largest_dim(self.problem());
        let tile_size = self.satisfiable_tile_extent(tile_dim, raw_tile_size);
        let mut axes = Vec::new();
        if perms >= 2 {
            for level in [L2_ORDER_LEVEL, L1_ORDER_LEVEL] {
                axes.push(ShardAxis::OrderPrefix { level, perms });
            }
        }
        if let Some((dim, extent)) = self.parallel_axis(tile_dim, tile_size) {
            axes.push(ShardAxis::ParallelSplit { dim, extent });
        }
        if tile_size >= 2 {
            axes.push(ShardAxis::TilePrefix {
                dim: tile_dim,
                extent: tile_size,
            });
        }
        axes
    }

    /// The largest L2 tile extent of the tile-split dimension whose pin
    /// still admits a valid mapping (witness: that tile alone at `extent`,
    /// everything else minimal — L2 footprints are monotone in the pin, and
    /// extents beyond the cap are absorbed by the axis's last bucket).
    fn satisfiable_tile_extent(&self, tile_dim: usize, mut extent: u64) -> u64 {
        let p = self.problem();
        let cap = self.constraints().l2_capacity_words;
        while extent >= 2 {
            let mut witness = Mapping::minimal(p);
            witness.tiles[1][tile_dim] = extent;
            let total: u64 = (0..p.num_tensors())
                .map(|ti| witness.l2_footprint(p, ti))
                .sum();
            if total <= cap {
                break;
            }
            extent /= 2;
        }
        extent
    }

    /// The parallelism-split axis: the non-tile dimension with the largest
    /// usable fan-out, capped so that *every* (parallelism, tile) pin
    /// combination still admits a valid mapping (the witness pins both axes
    /// at their extremes — L2 footprints are monotone in both pins — with
    /// unit L1 tiles and no other parallelism). `None` when no such axis
    /// with at least 2 buckets exists.
    fn parallel_axis(&self, tile_dim: usize, tile_size: u64) -> Option<(usize, u64)> {
        let p = self.problem();
        let (dim, raw) = p
            .dims()
            .filter(|dd| dd.0 != tile_dim)
            .map(|dd| (dd.0, p.dim_size(dd).min(self.constraints().num_pes)))
            .max_by_key(|&(i, e)| (e, std::cmp::Reverse(i)))?;
        let mut extent = raw;
        let cap = self.constraints().l2_capacity_words;
        while extent >= 2 {
            let mut witness = Mapping::minimal(p);
            witness.parallel[dim] = extent;
            witness.tiles[1][dim] = extent;
            witness.tiles[1][tile_dim] = tile_size.max(1);
            let total: u64 = (0..p.num_tensors())
                .map(|ti| witness.l2_footprint(p, ti))
                .sum();
            if total <= cap {
                break;
            }
            extent /= 2;
        }
        (extent >= 2).then_some((dim, extent))
    }

    /// The largest shard count [`shard`](Self::shard) supports for this
    /// space: the product of every axis cardinality (`d!·d!·P·size`, see the
    /// [module docs](self)).
    pub fn shard_capacity(&self) -> u128 {
        self.axis_product()
            .iter()
            .fold(1u128, |acc, a| acc.saturating_mul(a.cardinality()))
    }

    /// `count` clamped into [`shard`](Self::shard)'s valid range
    /// `[1, shard_capacity()]` — the one idiom every shard-count knob
    /// (mapper, serve) funnels through before calling `shard`.
    pub fn clamp_shard_count(&self, count: usize) -> usize {
        usize::try_from(self.shard_capacity().min(count.max(1) as u128)).unwrap_or(count.max(1))
    }

    /// Shard `index` of a partition of this space into `count`
    /// pairwise-disjoint, jointly-covering subspaces over the axis product
    /// (see the [module docs](self)).
    ///
    /// # Panics
    ///
    /// Panics if `count` is zero, `index >= count`, or `count` exceeds
    /// [`shard_capacity`](Self::shard_capacity).
    pub fn shard(&self, index: usize, count: usize) -> ShardedMapSpace {
        assert!(count > 0, "shard count must be positive");
        assert!(index < count, "shard index {index} out of range 0..{count}");
        let axes = self.axis_product();
        let total = axes
            .iter()
            .fold(1u128, |acc, a| acc.saturating_mul(a.cardinality()));
        assert!(
            count as u128 <= total,
            "shard count {count} exceeds the axis-product cardinality {total} \
             (= shard_capacity)"
        );
        let mut strides = vec![1u128; axes.len()];
        for i in (0..axes.len().saturating_sub(1)).rev() {
            strides[i] = strides[i + 1].saturating_mul(axes[i + 1].cardinality());
        }
        let lo = index as u128 * total / count as u128;
        let hi = (index as u128 + 1) * total / count as u128;
        ShardedMapSpace {
            base: self.clone(),
            index,
            count,
            axes,
            strides,
            lo,
            hi,
        }
    }

    /// The `count` views a sharded driver hands its search units: the
    /// [`shard`](Self::shard)s of this space in index order, or the whole
    /// space itself when `count` is 1.
    ///
    /// # Panics
    ///
    /// Panics if `count` exceeds [`shard_capacity`](Self::shard_capacity).
    pub fn shard_views(&self, count: usize) -> Vec<Box<dyn MapSpaceView>> {
        if count == 1 {
            return vec![Box::new(self.clone())];
        }
        (0..count)
            .map(|s| Box::new(self.shard(s, count)) as Box<dyn MapSpaceView>)
            .collect()
    }
}

/// `d!` as `u128` (problem dimension counts are single digits, so this never
/// overflows in practice; saturates defensively).
fn factorial(d: usize) -> u128 {
    (1..=d as u128).fold(1u128, |acc, i| acc.saturating_mul(i))
}

/// The first largest problem dimension `(index, size)`.
fn largest_dim(problem: &ProblemSpec) -> (usize, u64) {
    let mut best = (0usize, 0u64);
    for d in problem.dims() {
        let size = problem.dim_size(d);
        if size > best.1 {
            best = (d.0, size);
        }
    }
    best
}

/// Lexicographic (Lehmer) rank of a permutation of `0..d`, in `[0, d!)`.
fn perm_rank(perm: &[usize]) -> u128 {
    let d = perm.len();
    let mut rank = 0u128;
    for i in 0..d {
        let smaller_after = perm[i + 1..].iter().filter(|&&x| x < perm[i]).count();
        rank += smaller_after as u128 * factorial(d - 1 - i);
    }
    rank
}

/// The permutation of `0..d` with lexicographic rank `rank` (mod `d!`).
fn perm_unrank(d: usize, mut rank: u128) -> Vec<usize> {
    let mut pool: Vec<usize> = (0..d).collect();
    let mut out = Vec::with_capacity(d);
    rank %= factorial(d).max(1);
    for i in 0..d {
        let f = factorial(d - 1 - i);
        let idx = (rank / f) as usize;
        rank %= f;
        out.push(pool.remove(idx));
    }
    out
}

/// The adjustable (validity-coupled) suffix of a shard's axis product: the
/// parallelism and tile pins, with the admissible windows the shard
/// interval leaves them at the mapping's current loop-order prefix.
struct PinWindow {
    /// Local suffix rank window `[qlo, qhi]` (inclusive).
    qlo: u128,
    qhi: u128,
    /// `(dim, extent)` of the parallelism axis, when present.
    par: Option<(usize, u64)>,
    /// `(dim, extent)` of the tile axis, when present.
    tile: Option<(usize, u64)>,
}

impl PinWindow {
    /// Admissible parallelism *values* `[lo, hi]` of the split dimension.
    fn par_bounds(&self) -> Option<(usize, u64, u64)> {
        let (dim, extent) = self.par?;
        let t = self.tile.map_or(1u128, |(_, e)| u128::from(e));
        let lo = (self.qlo / t) as u64 + 1;
        let hi = ((self.qhi / t) as u64 + 1).min(extent);
        Some((dim, lo.min(extent), hi))
    }

    /// Admissible L2 tile *extents* `[lo, hi]` of the split dimension, given
    /// the current parallelism value of the parallelism-split dimension.
    fn tile_bounds(&self, par_value: u64) -> Option<(usize, u64, u64)> {
        let (dim, extent) = self.tile?;
        let t = u128::from(extent);
        let dp = match self.par {
            Some((_, pe)) => u128::from(par_value.clamp(1, pe) - 1),
            None => 0,
        };
        let lo = self.qlo.saturating_sub(dp * t).min(t - 1) as u64 + 1;
        let hi = ((self.qhi - (dp * t).min(self.qhi)).min(t - 1) as u64 + 1).max(lo);
        Some((dim, lo.min(extent), hi.min(extent)))
    }
}

impl ShardedMapSpace {
    /// The full space this shard was cut from.
    pub fn base(&self) -> &MapSpace {
        &self.base
    }

    /// This shard's index within the partition.
    pub fn index(&self) -> usize {
        self.index
    }

    /// Number of shards in the partition.
    pub fn count(&self) -> usize {
        self.count
    }

    /// The restricted axes, most significant first.
    pub fn axes(&self) -> &[ShardAxis] {
        &self.axes
    }

    /// Human-readable description of the restricted axis product, for
    /// reports.
    pub fn axis_description(&self) -> String {
        let radix: Vec<String> = self
            .axes
            .iter()
            .map(|a| match a {
                ShardAxis::OrderPrefix { level, perms } => {
                    format!("L{}-order:{perms}", level + 1)
                }
                ShardAxis::ParallelSplit { dim, extent } => format!("par[{dim}]:{extent}"),
                ShardAxis::TilePrefix { dim, extent } => format!("tile[{dim}]:{extent}"),
            })
            .collect();
        format!(
            "mixed-radix ranks [{}, {}) of {}",
            self.lo,
            self.hi,
            radix.join("x")
        )
    }

    /// The combined mixed-radix rank of a (structurally well-formed)
    /// mapping.
    fn combined_rank(&self, m: &Mapping) -> u128 {
        self.axes
            .iter()
            .zip(&self.strides)
            .map(|(a, s)| a.digit(m).saturating_mul(*s))
            .sum()
    }

    /// Whether `m`'s combined rank falls in this shard's interval.
    fn in_shard(&self, m: &Mapping) -> bool {
        let c = self.combined_rank(m);
        self.lo <= c && c < self.hi
    }

    /// Clamp `m`'s sharded attributes into this shard's rank interval,
    /// axis by axis: each digit is clamped into the window the interval
    /// (and the more-significant digits) leaves it, and as soon as the
    /// remaining interval covers a whole block every less-significant
    /// attribute is left untouched — an escaping move is pulled back with
    /// the minimal per-axis correction instead of wiping the unconstrained
    /// digits to the interval edge.
    fn clamp_into_interval(&self, m: &mut Mapping) {
        let mut l = self.lo;
        let mut h = self.hi;
        let mut moved = false;
        for (axis, stride) in self.axes.iter().zip(&self.strides) {
            let card = axis.cardinality();
            let s = *stride;
            if l == 0 && h == s.saturating_mul(card) {
                break; // whole block admissible: nothing below needs moving
            }
            let current = axis.digit(m);
            let dlo = l / s;
            let dhi = (h - 1) / s;
            let digit = current.clamp(dlo, dhi);
            if digit != current {
                axis.apply(m, digit);
                moved = true;
            }
            l = if digit == dlo { l - digit * s } else { 0 };
            h = if digit == dhi { h - digit * s } else { s };
        }
        if moved {
            tele_clamp_moved().bump(1);
            mm_telemetry::event("mapspace.clamp", || {
                format!("shard={}/{}", self.index, self.count)
            });
        }
        debug_assert!(self.in_shard(m), "clamp must land in the interval");
    }

    /// Re-sample `m`'s sharded attributes into this shard's rank interval,
    /// axis by axis (most significant first): an axis the interval
    /// *restricts* gets a uniformly chosen admissible digit; as soon as the
    /// remaining interval covers a whole block, every less-significant axis
    /// is unconstrained and the **base-sampled attributes are kept** — so
    /// shard sampling matches the full space's distribution wherever the
    /// shard imposes no constraint (exactly PR 3's behaviour when the
    /// partition only cuts the leading order axis).
    ///
    /// Returns `true` when a validity-coupled attribute (parallelism or
    /// tile) changed — the caller must then force a capacity refit.
    fn sample_in_interval(&self, m: &mut Mapping, rng: &mut dyn RngCore) -> bool {
        // [l, h) is the admissible rank interval relative to the current
        // axis's block (the whole product at the top level).
        let mut l = self.lo;
        let mut h = self.hi;
        let mut touched = false;
        for (axis, stride) in self.axes.iter().zip(&self.strides) {
            let card = axis.cardinality();
            let s = *stride;
            if l == 0 && h == s.saturating_mul(card) {
                break; // whole block admissible: keep the base sample
            }
            let dlo = l / s;
            let dhi = (h - 1) / s;
            let digit = if dlo == dhi {
                dlo
            } else {
                let span = dhi - dlo + 1;
                dlo + u128::from(rng.gen_range(0..u64::try_from(span).unwrap_or(u64::MAX)))
            };
            touched |= axis.digit(m) != digit && !matches!(axis, ShardAxis::OrderPrefix { .. });
            axis.apply(m, digit);
            l = if digit == dlo { l - digit * s } else { 0 };
            h = if digit == dhi { h - digit * s } else { s };
        }
        touched
    }

    /// The pin window of the adjustable suffix (parallelism/tile axes) at
    /// `m`'s current loop-order prefix, or `None` when the product restricts
    /// loop orders only (which never affect base validity).
    fn pin_window(&self, m: &Mapping) -> Option<PinWindow> {
        let mut par = None;
        let mut tile = None;
        for axis in &self.axes {
            match axis {
                ShardAxis::ParallelSplit { dim, extent } => par = Some((*dim, *extent)),
                ShardAxis::TilePrefix { dim, extent } => tile = Some((*dim, *extent)),
                ShardAxis::OrderPrefix { .. } => {}
            }
        }
        let w =
            par.map_or(1u128, |(_, e)| u128::from(e)) * tile.map_or(1u128, |(_, e)| u128::from(e));
        if w <= 1 {
            return None;
        }
        // The adjustable axes are the least-significant suffix of the
        // product, so the suffix value is simply `rank mod w`.
        let c = self.combined_rank(m);
        debug_assert!(
            self.lo <= c && c < self.hi,
            "pin window needs a pinned rank"
        );
        let block = c - c % w;
        let qlo = self.lo.max(block) - block;
        let qhi = self.hi.min(block + w) - 1 - block;
        Some(PinWindow {
            qlo,
            qhi,
            par,
            tile,
        })
    }

    /// Pull a base-valid mapping into this shard and restore validity: pin
    /// the combined rank into `[lo, hi)`, then re-establish the tile/
    /// parallelism/capacity invariants the pin may have disturbed — without
    /// leaving the shard again.
    fn pin_and_fix(&self, m: &mut Mapping) {
        self.pin_and_fix_impl(m, false);
    }

    /// [`pin_and_fix`](Self::pin_and_fix) with `force_fit` requesting the
    /// capacity refit even when the pins themselves moved nothing (used
    /// after [`sample_in_interval`](Self::sample_in_interval) already
    /// changed validity-coupled attributes).
    fn pin_and_fix_impl(&self, m: &mut Mapping, force_fit: bool) {
        tele_pin_fix_calls().bump(1);
        // Snapshot the validity-coupled attributes: when no pin moves any
        // of them, the (base-valid) mapping needs no refit at all.
        let tiles_before = m.tiles.clone();
        let parallel_before = m.parallel.clone();
        self.clamp_into_interval(m);
        let Some(window) = self.pin_window(m) else {
            // Loop orders never affect base validity: pinned and done.
            return;
        };
        let p = self.base.problem();
        let t = p.num_tensors();
        let d = p.num_dims();

        // -- Parallelism pin: clamp the digit into its window, then restore
        //    the local invariants around the pinned fan-out. The pinned
        //    dimension's parallelism never shrinks again below `plo`.
        let mut par_pin: Option<(usize, u64)> = None; // (dim, floor value)
        if let Some((pdim, plo, phi)) = window.par_bounds() {
            // mm-lint: allow(panic): par_bounds() returning Some implies
            // the window has a par axis by construction.
            let (_, extent) = window.par.expect("par bounds imply a par axis");
            let bucket = m.parallel[pdim].clamp(1, extent);
            if bucket < plo || bucket > phi {
                // Out-of-window digits move; in-window fan-outs beyond the
                // last bucket stay (the bucket absorbs the tail).
                m.parallel[pdim] = bucket.clamp(plo, phi);
            }
            let size = p.dim_size(DimId(pdim));
            // Spatial tile within the dimension: only the L1 tile gives way.
            while m.tiles[0][pdim].saturating_mul(m.parallel[pdim]) > size && m.tiles[0][pdim] > 1 {
                m.tiles[0][pdim] /= 2;
            }
            let spatial = m.tiles[0][pdim].saturating_mul(m.parallel[pdim]).min(size);
            m.tiles[1][pdim] = m.tiles[1][pdim].max(spatial).min(size).max(1);
            // PE budget: only unpinned dimensions give way (the axis extent
            // is at most `num_pes`, so this always converges).
            while m.active_pes() > self.base.constraints().num_pes {
                let Some(worst) = (0..d)
                    .filter(|&i| i != pdim && m.parallel[i] > 1)
                    .max_by_key(|&i| m.parallel[i])
                else {
                    break;
                };
                m.parallel[worst] /= 2;
            }
            par_pin = Some((pdim, plo));
        }

        // -- Tile pin: clamp the digit into the window its (possibly moved)
        //    parallelism digit leaves it, then refit L1 tile/parallelism
        //    under the pinned L2 tile.
        let mut tile_pin: Option<(usize, u64)> = None; // (dim, floor value)
        let par_value = window.par.map_or(1, |(pdim, _)| m.parallel[pdim]);
        if let Some((tdim, tlo, thi)) = window.tile_bounds(par_value) {
            // mm-lint: allow(panic): tile_bounds() returning Some implies
            // the window has a tile axis by construction.
            let (_, extent) = window.tile.expect("tile bounds imply a tile axis");
            let bucket = m.tiles[1][tdim].clamp(1, extent);
            if bucket < tlo || bucket > thi {
                m.tiles[1][tdim] = bucket.clamp(tlo, thi);
            }
            m.tiles[0][tdim] = m.tiles[0][tdim].clamp(1, m.tiles[1][tdim]);
            while m.tiles[0][tdim].saturating_mul(m.parallel[tdim]) > m.tiles[1][tdim] {
                if m.parallel[tdim] > 1 {
                    m.parallel[tdim] /= 2;
                } else if m.tiles[0][tdim] > 1 {
                    m.tiles[0][tdim] /= 2;
                } else {
                    break;
                }
            }
            tile_pin = Some((tdim, tlo));
        }

        // Nothing validity-coupled moved: the mapping was base-valid and
        // still is — skip the refit so in-shard mappings pass through
        // untouched.
        if !force_fit && m.tiles == tiles_before && m.parallel == parallel_before {
            return;
        }
        tele_pin_fix_refits().bump(1);
        mm_telemetry::event("mapspace.refit", || {
            format!("shard={}/{} force={force_fit}", self.index, self.count)
        });

        // -- Shared-buffer refit: the pins may have *grown* L2 footprints;
        //    shrink un-pinned contributions until everything fits, never
        //    moving a pinned attribute out of its window (the parallelism
        //    axis extent is capped at construction so the pinned extremes
        //    always fit — see `MapSpace::parallel_axis`).
        let cap = self.base.constraints().l2_capacity_words;
        let pdim = par_pin.map(|(i, _)| i);
        'fit: for _ in 0..256 {
            let footprints: Vec<u64> = (0..t).map(|ti| m.l2_footprint(p, ti)).collect();
            let total_fp: u64 = footprints.iter().sum();
            if total_fp <= cap {
                // Redistribute allocations: exactly what each tensor needs
                // plus a proportional share of the slack.
                let slack = (cap - total_fp) as f64;
                for (ti, &fp) in footprints.iter().enumerate() {
                    let share = if total_fp > 0 {
                        slack * fp as f64 / total_fp as f64
                    } else {
                        slack / t as f64
                    };
                    m.buffer_alloc[1][ti] = ((fp as f64 + share) / cap as f64).clamp(1e-6, 1.0);
                }
                break;
            }
            let Some(worst) = (0..t).max_by_key(|&ti| footprints[ti]) else {
                break; // no tensors: nothing occupies the buffer
            };
            // Shrink the worst tensor's largest shrinkable L2 contribution;
            // pinned dimensions only shrink down to their window floors.
            // When every dim of the worst tensor is pinned at its floor,
            // fall back to the remaining dims (largest contribution first):
            // other tensors may still hold shrinkable extent.
            let mut dims: Vec<DimId> = p.tensors[worst].relevant_dims();
            let mut rest: Vec<DimId> = p.dims().filter(|dd| !dims.contains(dd)).collect();
            dims.sort_by_key(|dd| std::cmp::Reverse(m.tiles[1][dd.0].max(m.spatial_tile(*dd))));
            rest.sort_by_key(|dd| std::cmp::Reverse(m.tiles[1][dd.0].max(m.spatial_tile(*dd))));
            dims.extend(rest);
            for dd in dims {
                let i = dd.0;
                let tile_floor = match tile_pin {
                    Some((tdim, tlo)) if tdim == i => tlo,
                    _ => 1,
                };
                // The pinned-parallelism dim's L2 tile cannot drop under its
                // spatial tile, whose parallelism factor is itself pinned.
                let spatial_floor = if pdim == Some(i) {
                    m.parallel[i].max(1)
                } else {
                    1
                };
                let floor = tile_floor.max(spatial_floor);
                if m.tiles[1][i] > floor {
                    m.tiles[1][i] = (m.tiles[1][i] / 2).max(floor).max(1);
                    while m.tiles[0][i].saturating_mul(m.parallel[i]) > m.tiles[1][i] {
                        if m.parallel[i] > 1 && pdim != Some(i) {
                            m.parallel[i] /= 2;
                        } else if m.tiles[0][i] > 1 {
                            m.tiles[0][i] /= 2;
                        } else {
                            break;
                        }
                    }
                    continue 'fit;
                }
                if pdim != Some(i) && tile_pin.map(|(tdim, _)| tdim) != Some(i) {
                    if m.parallel[i] > 1 {
                        m.parallel[i] /= 2;
                        continue 'fit;
                    }
                    if m.tiles[0][i] > 1 {
                        m.tiles[0][i] /= 2;
                        continue 'fit;
                    }
                }
                if m.tiles[0][i] > 1 {
                    m.tiles[0][i] /= 2;
                    continue 'fit;
                }
            }
            break; // nothing left to shrink
        }
    }
}

impl MapSpaceView for ShardedMapSpace {
    fn problem(&self) -> &ProblemSpec {
        MapSpace::problem(&self.base)
    }

    fn constraints(&self) -> &MappingConstraints {
        MapSpace::constraints(&self.base)
    }

    fn random_mapping_into(&self, out: &mut Mapping, rng: &mut dyn RngCore) {
        MapSpace::random_mapping_into(&self.base, out, rng);
        // Re-sample only the axes this shard actually restricts (keeping
        // the base distribution elsewhere), then restore validity (forcing
        // the capacity refit when the sampler moved parallelism/tiles).
        let touched = self.sample_in_interval(out, rng);
        self.pin_and_fix_impl(out, touched);
        debug_assert!(
            self.is_member(out),
            "{:?}\naxes={:?} lo={} hi={}\nmapping={:?}",
            self.validate(out),
            self.axes,
            self.lo,
            self.hi,
            out
        );
    }

    fn neighbor_into(&self, current: &Mapping, out: &mut Mapping, rng: &mut dyn RngCore) {
        out.clone_from(current);
        MapSpace::mutate_in_place(&self.base, out, rng);
        self.repair(out);
    }

    fn mutate_in_place(&self, m: &mut Mapping, rng: &mut dyn RngCore) {
        MapSpace::mutate_in_place(&self.base, m, rng);
    }

    fn crossover_into(&self, a: &Mapping, b: &Mapping, out: &mut Mapping, rng: &mut dyn RngCore) {
        MapSpace::crossover_into(&self.base, a, b, out, rng);
        self.pin_and_fix(out);
        debug_assert!(self.is_member(out), "{:?}", self.validate(out));
    }

    fn repair(&self, m: &mut Mapping) {
        MapSpace::repair(&self.base, m);
        self.pin_and_fix(m);
    }

    fn is_member(&self, m: &Mapping) -> bool {
        MapSpace::is_member(&self.base, m) && self.in_shard(m)
    }

    fn validate(&self, m: &Mapping) -> Result<(), String> {
        MapSpace::validate(&self.base, m)?;
        if self.in_shard(m) {
            Ok(())
        } else {
            Err(format!(
                "combined rank {} outside shard {}/{} interval [{}, {})",
                self.combined_rank(m),
                self.index,
                self.count,
                self.lo,
                self.hi
            ))
        }
    }

    fn log10_size_estimate(&self) -> f64 {
        MapSpace::log10_size_estimate(&self.base) - (self.count.max(1) as f64).log10()
    }

    fn project_into(&self, values: &[f32], out: &mut Mapping) -> Result<(), MapSpaceError> {
        MapSpace::project_into(&self.base, values, out)?;
        self.pin_and_fix(out);
        Ok(())
    }

    fn shard_info(&self) -> Option<(usize, usize)> {
        Some((self.index, self.count))
    }

    fn clone_view(&self) -> Box<dyn MapSpaceView> {
        Box::new(self.clone())
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
    fn sharded_into_forms_match_allocating_forms() {
        let s = space();
        for i in 0..4 {
            let sh = s.shard(i, 4);
            let mut rng_a = StdRng::seed_from_u64(23 + i as u64);
            let mut rng_b = StdRng::seed_from_u64(23 + i as u64);
            let mut sample_buf = Mapping::default();
            let mut neigh_buf = Mapping::default();
            for _ in 0..20 {
                let a = MapSpaceView::random_mapping(&sh, &mut rng_a);
                sh.random_mapping_into(&mut sample_buf, &mut rng_b);
                assert_eq!(a, sample_buf, "sharded random_mapping_into diverged");
                let n = MapSpaceView::neighbor(&sh, &a, &mut rng_a);
                sh.neighbor_into(&a, &mut neigh_buf, &mut rng_b);
                assert_eq!(n, neigh_buf, "sharded neighbor_into diverged");
            }
        }
    }

    #[test]
    fn perm_rank_unrank_roundtrip() {
        for d in 1..=5usize {
            let total = factorial(d);
            for r in 0..total {
                let p = perm_unrank(d, r);
                assert_eq!(perm_rank(&p), r, "d={d} rank={r} perm={p:?}");
            }
        }
        assert_eq!(perm_rank(&[0, 1, 2]), 0);
        assert_eq!(perm_rank(&[2, 1, 0]), 5);
    }

    #[test]
    fn axis_product_is_the_canonical_four_axis_stack() {
        let s = space();
        // conv1d(128, 7): dims X=122 (largest → tile axis), R=7 (par axis,
        // capped at min(7, 16 PEs) = 7).
        let axes = s.axis_product();
        let kinds: Vec<ShardAxisKind> = axes.iter().map(ShardAxis::kind).collect();
        assert_eq!(
            kinds,
            vec![
                ShardAxisKind::OrderL2,
                ShardAxisKind::OrderL1,
                ShardAxisKind::Parallel,
                ShardAxisKind::Tile,
            ]
        );
        assert_eq!(axes[0].cardinality(), 2); // 2! L2 orders
        assert_eq!(axes[1].cardinality(), 2); // 2! L1 orders
        assert_eq!(axes[2].cardinality(), 7); // R fan-out
        assert_eq!(axes[3].cardinality(), 122); // X tile extents
        assert!(matches!(
            axes[2],
            ShardAxis::ParallelSplit { dim: 1, extent: 7 }
        ));
        assert!(matches!(
            axes[3],
            ShardAxis::TilePrefix {
                dim: 0,
                extent: 122
            }
        ));
    }

    #[test]
    fn shard_capacity_is_the_axis_product() {
        let s = space();
        // 2! · 2! · 7 · 122 — multiplicative, not the PR 3 single-axis
        // d!·largest_dim = 244.
        assert_eq!(s.shard_capacity(), 2 * 2 * 7 * 122);
    }

    #[test]
    fn order_prefix_shards_partition_the_permutations() {
        let s = space();
        // Two shards cut the leading (L2 loop-order) axis only.
        let a = s.shard(0, 2);
        let b = s.shard(1, 2);
        let mut rng = StdRng::seed_from_u64(1);
        for _ in 0..50 {
            let m = MapSpace::random_mapping(&s, &mut rng);
            let ina = a.in_shard(&m);
            let inb = b.in_shard(&m);
            assert!(ina ^ inb, "every mapping lands in exactly one shard");
        }
    }

    #[test]
    fn high_shard_counts_partition_via_the_full_product() {
        let s = space();
        // 8 > 2! — PR 3 would fall back to one refinement axis; the product
        // now spreads the cut across orders, parallelism, and tiles.
        let shards: Vec<ShardedMapSpace> = (0..8).map(|i| s.shard(i, 8)).collect();
        let mut rng = StdRng::seed_from_u64(2);
        for round in 0..40 {
            let m = MapSpace::random_mapping(&s, &mut rng);
            let owners = shards.iter().filter(|sh| sh.in_shard(&m)).count();
            assert_eq!(owners, 1, "round {round}: exactly one owner");
        }
    }

    #[test]
    fn shard_sampling_stays_in_shard_and_valid() {
        let s = space();
        let mut rng = StdRng::seed_from_u64(3);
        for n in [1usize, 2, 3, 5, 8, 29, 488] {
            for i in 0..n {
                let sh = s.shard(i, n);
                for _ in 0..5 {
                    let m = sh.random_mapping(&mut rng);
                    assert!(sh.is_member(&m), "n={n} i={i}: {:?}", sh.validate(&m));
                    assert!(MapSpace::is_member(&s, &m));
                }
            }
        }
    }

    #[test]
    fn shard_moves_stay_in_shard() {
        let s = space();
        let mut rng = StdRng::seed_from_u64(4);
        for (i, n) in [(2usize, 4usize), (11, 16), (200, 488)] {
            let sh = s.shard(i, n);
            let mut m = sh.random_mapping(&mut rng);
            for _ in 0..100 {
                m = sh.neighbor(&m, &mut rng);
                assert!(sh.is_member(&m), "{:?}", sh.validate(&m));
            }
            let a = sh.random_mapping(&mut rng);
            let b = sh.random_mapping(&mut rng);
            for _ in 0..25 {
                let c = MapSpaceView::crossover(&sh, &a, &b, &mut rng);
                assert!(sh.is_member(&c), "{:?}", sh.validate(&c));
            }
        }
    }

    #[test]
    fn shard_projection_is_valid_and_in_shard() {
        let s = space();
        let enc = crate::encode::Encoding::for_problem(s.problem());
        let mut rng = StdRng::seed_from_u64(5);
        for (i, n) in [(1usize, 3usize), (7, 12), (100, 300)] {
            let sh = s.shard(i, n);
            for _ in 0..25 {
                let v: Vec<f32> = (0..enc.mapping_len())
                    .map(|_| rng.gen_range(-20.0..200.0))
                    .collect();
                let mut m = Mapping::default();
                sh.project_into(&v, &mut m).unwrap();
                assert!(sh.is_member(&m), "{:?}", sh.validate(&m));
            }
        }
    }

    #[test]
    fn shard_info_and_size_estimate() {
        let s = space();
        let sh = s.shard(1, 4);
        assert_eq!(sh.shard_info(), Some((1, 4)));
        assert_eq!(MapSpaceView::shard_info(&s), None);
        assert!(sh.log10_size_estimate() < MapSpaceView::log10_size_estimate(&s));
        assert!(!sh.axis_description().is_empty());
        assert_eq!(sh.axes().len(), 4);
    }

    #[test]
    fn pinned_axis_extents_are_capacity_capped() {
        // A tiny L2 forces the tile (and possibly parallelism) axis extents
        // down: every pin combination must still admit a valid mapping.
        let tight = MapSpace::new(
            ProblemSpec::conv1d(128, 7),
            MappingConstraints {
                num_pes: 16,
                l1_capacity_words: 1024,
                l2_capacity_words: 160, // cannot hold a full-width X tile twice
                l1_banks: 8,
                l2_banks: 16,
            },
        );
        let tile_extent = tight
            .axis_product()
            .iter()
            .find(|a| a.kind() == ShardAxisKind::Tile)
            .map(ShardAxis::cardinality)
            .expect("tile axis present");
        assert!(
            tile_extent < 122,
            "capacity cap must bite, got {tile_extent}"
        );
        // Sampling still works at the full capacity, in every shard.
        let n = tight.clamp_shard_count(1_000_000);
        let mut rng = StdRng::seed_from_u64(9);
        for i in [0, n / 2, n - 1] {
            let sh = tight.shard(i, n);
            let m = sh.random_mapping(&mut rng);
            assert!(sh.is_member(&m), "{:?}", sh.validate(&m));
        }
    }

    #[test]
    #[should_panic(expected = "shard index")]
    fn shard_rejects_out_of_range_index() {
        let _ = space().shard(3, 3);
    }

    #[test]
    #[should_panic(expected = "exceeds the axis-product cardinality")]
    fn shard_rejects_count_beyond_capacity() {
        let s = space();
        let cap = s.shard_capacity() as usize;
        let _ = s.shard(0, cap + 1);
    }

    #[test]
    fn dyn_view_is_usable_behind_a_pointer() {
        let s = space();
        let views: Vec<Box<dyn MapSpaceView>> = vec![Box::new(s.clone()), Box::new(s.shard(0, 2))];
        let mut rng = StdRng::seed_from_u64(6);
        for v in &views {
            let m = v.random_mapping(&mut rng);
            assert!(v.is_member(&m));
            let n = v.neighbor(&m, &mut rng);
            assert!(v.is_member(&n));
            let v2 = v.clone_view();
            assert!(v2.is_member(&m));
        }
    }
}
