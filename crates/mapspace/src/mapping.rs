// mm-lint: identity — this file feeds canonical output; the determinism rule applies.
//! The [`Mapping`] type: one point in the algorithm-accelerator map space.
//!
//! A mapping fixes the accelerator's programmable attributes for one problem
//! (Definition 2.1): per-level tile sizes, spatial parallelism across PEs,
//! per-level loop orders, and per-level buffer allocation fractions. The
//! memory hierarchy is modelled with two on-chip levels (a private L1 per PE
//! and a shared L2) below DRAM, matching the accelerator evaluated in
//! Section 5.

use serde::{Deserialize, Serialize};

use crate::problem::{DimId, ProblemSpec};

/// Number of on-chip buffer levels (L1 private, L2 shared).
pub const ONCHIP_LEVELS: usize = 2;
/// Number of loop-nest levels carrying temporal loop orders (L1, L2, DRAM).
pub const ORDER_LEVELS: usize = 3;

/// Identifier of a loop-nest / buffer level, innermost first.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Level {
    /// Per-PE private buffer (innermost tiles).
    L1,
    /// Shared on-chip buffer.
    L2,
    /// Off-chip DRAM (outermost loops).
    Dram,
}

impl Level {
    /// The three levels, innermost first.
    pub const ALL: [Level; 3] = [Level::L1, Level::L2, Level::Dram];

    /// Index used throughout the crate: L1 = 0, L2 = 1, DRAM = 2.
    #[inline]
    pub fn index(self) -> usize {
        match self {
            Level::L1 => 0,
            Level::L2 => 1,
            Level::Dram => 2,
        }
    }
}

impl std::fmt::Display for Level {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Level::L1 => write!(f, "L1"),
            Level::L2 => write!(f, "L2"),
            Level::Dram => write!(f, "DRAM"),
        }
    }
}

/// A complete assignment of the accelerator's programmable attributes for one
/// problem: tiling, parallelism, loop ordering, and buffer allocation.
///
/// Invariants expected by the cost model (and enforced by
/// [`MapSpace::is_member`](crate::space::MapSpace::is_member)):
///
/// * `1 <= tiles[L1][d] <= tiles[L2][d] <= dim_size(d)` for every dimension;
/// * `1 <= parallel[d]` and `Π_d parallel[d] <= num_pes`;
/// * `tiles[L2][d] >= tiles[L1][d] * parallel[d]` (the shared-buffer tile must
///   cover the work spread across PEs);
/// * each `loop_orders[level]` is a permutation of the dimensions;
/// * `buffer_alloc[level]` entries are in `(0, 1]` and sum to at most 1;
/// * the per-level tensor footprints fit in the buffer capacity allocated to
///   them.
#[derive(Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct Mapping {
    /// Tile sizes per on-chip level: `tiles[0]` = L1 (per-PE) tile extents,
    /// `tiles[1]` = L2 (shared buffer) tile extents, indexed by dimension.
    pub tiles: Vec<Vec<u64>>,
    /// Spatial fan-out (number of PEs) assigned to each dimension.
    pub parallel: Vec<u64>,
    /// Loop order per level (innermost level first): a permutation of the
    /// dimension indices, outermost loop first within each level.
    pub loop_orders: Vec<Vec<usize>>,
    /// Fraction of each on-chip level's capacity allocated to each tensor:
    /// `buffer_alloc[level][tensor] ∈ (0, 1]`, summing to ≤ 1 per level.
    pub buffer_alloc: Vec<Vec<f64>>,
}

/// Hand-written so `clone_from` reuses the destination's nested allocations
/// (the derived impl would fall back to `*self = source.clone()`), which is
/// what lets proposal buffers and eval pipelines recycle mapping storage.
impl Clone for Mapping {
    fn clone(&self) -> Self {
        Mapping {
            tiles: self.tiles.clone(),
            parallel: self.parallel.clone(),
            loop_orders: self.loop_orders.clone(),
            buffer_alloc: self.buffer_alloc.clone(),
        }
    }

    fn clone_from(&mut self, source: &Self) {
        self.tiles.clone_from(&source.tiles);
        self.parallel.clone_from(&source.parallel);
        self.loop_orders.clone_from(&source.loop_orders);
        self.buffer_alloc.clone_from(&source.buffer_alloc);
    }
}

impl Mapping {
    /// A trivially valid "minimal" mapping for the given problem: unit tiles,
    /// no parallelism, identity loop orders, and equal buffer split.
    ///
    /// Useful as a starting point for tests and as a guaranteed-valid
    /// fallback.
    pub fn minimal(problem: &ProblemSpec) -> Self {
        let d = problem.num_dims();
        let t = problem.num_tensors();
        Mapping {
            tiles: vec![vec![1; d]; ONCHIP_LEVELS],
            parallel: vec![1; d],
            loop_orders: vec![(0..d).collect(); ORDER_LEVELS],
            buffer_alloc: vec![vec![1.0 / t as f64; t]; ONCHIP_LEVELS],
        }
    }

    /// Rewrite `self` in place to equal [`Mapping::minimal`] for `problem`,
    /// reusing the existing nested allocations when shapes already match.
    pub fn reset_minimal(&mut self, problem: &ProblemSpec) {
        let d = problem.num_dims();
        let t = problem.num_tensors();
        self.reshape(d, t);
        for row in &mut self.tiles {
            row.fill(1);
        }
        self.parallel.fill(1);
        for order in &mut self.loop_orders {
            order.clear();
            order.extend(0..d);
        }
        for row in &mut self.buffer_alloc {
            row.fill(1.0 / t as f64);
        }
    }

    /// Give every row the shape of a mapping over `dims` dimensions and
    /// `tensors` tensors, reusing the nested allocations. Entries a row
    /// already had keep their values (and loop orders are left as they
    /// are): for callers that go on to write every entry.
    pub(crate) fn reshape(&mut self, dims: usize, tensors: usize) {
        self.tiles.resize_with(ONCHIP_LEVELS, Vec::new);
        for row in &mut self.tiles {
            row.resize(dims, 1);
        }
        self.parallel.resize(dims, 1);
        self.loop_orders.resize_with(ORDER_LEVELS, Vec::new);
        self.buffer_alloc.resize_with(ONCHIP_LEVELS, Vec::new);
        for row in &mut self.buffer_alloc {
            row.resize(tensors, 0.0);
        }
    }

    /// Number of problem dimensions this mapping covers.
    #[inline]
    pub fn num_dims(&self) -> usize {
        self.parallel.len()
    }

    /// Number of tensors this mapping allocates buffers for.
    #[inline]
    pub fn num_tensors(&self) -> usize {
        self.buffer_alloc.first().map_or(0, |v| v.len())
    }

    /// L1 (per-PE) tile extent of dimension `d`.
    #[inline]
    pub fn l1_tile(&self, d: DimId) -> u64 {
        self.tiles[0][d.0].max(1)
    }

    /// L2 (shared buffer) tile extent of dimension `d`.
    #[inline]
    pub fn l2_tile(&self, d: DimId) -> u64 {
        self.tiles[1][d.0].max(1)
    }

    /// Spatial parallelism assigned to dimension `d`.
    #[inline]
    pub fn parallelism(&self, d: DimId) -> u64 {
        self.parallel[d.0].max(1)
    }

    /// Total number of PEs used: the product of per-dimension parallelism.
    pub fn active_pes(&self) -> u64 {
        self.parallel
            .iter()
            .fold(1u64, |acc, &p| acc.saturating_mul(p.max(1)))
    }

    /// The extent of dimension `d` covered by one "spatial tile": the L1 tile
    /// replicated across the PEs assigned to `d`.
    #[inline]
    pub fn spatial_tile(&self, d: DimId) -> u64 {
        self.l1_tile(d).saturating_mul(self.parallelism(d))
    }

    /// Temporal loop trip count for dimension `d` at the given level, using
    /// ceiling division (imperfect factorizations are padded).
    pub fn trip_count(&self, problem: &ProblemSpec, level: Level, d: DimId) -> u64 {
        match level {
            Level::L1 => self.l1_tile(d),
            Level::L2 => div_ceil(self.l2_tile(d), self.spatial_tile(d)),
            Level::Dram => div_ceil(problem.dim_size(d), self.l2_tile(d)),
        }
    }

    /// The loop order (outermost first) at `level`.
    pub fn order(&self, level: Level) -> &[usize] {
        &self.loop_orders[level.index()]
    }

    /// Buffer fraction allocated to tensor `t` at on-chip level `level`
    /// (L1 or L2). Returns 0 for DRAM.
    pub fn alloc_fraction(&self, level: Level, t: usize) -> f64 {
        match level {
            Level::Dram => 0.0,
            _ => self.buffer_alloc[level.index()][t],
        }
    }

    /// Per-PE L1 footprint (in elements) of tensor `t`.
    pub fn l1_footprint(&self, problem: &ProblemSpec, t: usize) -> u64 {
        problem.tensors[t].footprint(|d| self.l1_tile(d))
    }

    /// Shared L2 footprint (in elements) of tensor `t`; covers the spatial
    /// tile so data for all active PEs is resident.
    pub fn l2_footprint(&self, problem: &ProblemSpec, t: usize) -> u64 {
        problem.tensors[t].footprint(|d| self.l2_tile(d).max(self.spatial_tile(d)))
    }

    /// The total padded iteration-space size implied by the mapping (may be
    /// larger than the problem's true MAC count when tiles do not divide the
    /// dimensions evenly).
    pub fn padded_macs(&self, problem: &ProblemSpec) -> u128 {
        problem
            .dims()
            .map(|d| {
                let per_dim = self.trip_count(problem, Level::L1, d)
                    * self.parallelism(d)
                    * self.trip_count(problem, Level::L2, d)
                    * self.trip_count(problem, Level::Dram, d);
                per_dim as u128
            })
            .product()
    }
}

/// Ceiling division for `u64`, returning at least 1.
#[inline]
pub fn div_ceil(a: u64, b: u64) -> u64 {
    if b == 0 {
        return a.max(1);
    }
    a.div_ceil(b).max(1)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::problem::ProblemSpec;

    fn conv() -> ProblemSpec {
        ProblemSpec::conv1d(64, 5)
    }

    #[test]
    fn minimal_mapping_is_well_formed() {
        let p = conv();
        let m = Mapping::minimal(&p);
        assert_eq!(m.num_dims(), 2);
        assert_eq!(m.num_tensors(), 3);
        assert_eq!(m.active_pes(), 1);
        for d in p.dims() {
            assert_eq!(m.l1_tile(d), 1);
            assert_eq!(m.l2_tile(d), 1);
        }
    }

    #[test]
    fn trip_counts_use_ceiling_division() {
        let p = conv();
        let mut m = Mapping::minimal(&p);
        let x = DimId(0);
        m.tiles[0][0] = 4; // L1 tile of X
        m.parallel[0] = 2; // 2 PEs on X
        m.tiles[1][0] = 16; // L2 tile of X
        assert_eq!(m.trip_count(&p, Level::L1, x), 4);
        assert_eq!(m.trip_count(&p, Level::L2, x), 2); // 16 / (4*2)
        assert_eq!(m.trip_count(&p, Level::Dram, x), 4); // ceil(60/16)
    }

    #[test]
    fn footprints_follow_tiles() {
        let p = conv();
        let mut m = Mapping::minimal(&p);
        m.tiles[0] = vec![8, 3];
        m.tiles[1] = vec![32, 5];
        // Input footprint at L1 = (8 + 3 - 1) = 10
        assert_eq!(m.l1_footprint(&p, 0), 10);
        // Filter footprint at L1 = 3
        assert_eq!(m.l1_footprint(&p, 1), 3);
        // Output footprint at L2 = 32
        assert_eq!(m.l2_footprint(&p, 2), 32);
    }

    #[test]
    fn padded_macs_at_least_actual() {
        let p = conv();
        let mut m = Mapping::minimal(&p);
        m.tiles[0] = vec![7, 2];
        m.tiles[1] = vec![14, 4];
        assert!(m.padded_macs(&p) >= p.total_macs());
    }

    #[test]
    fn active_pes_is_product() {
        let p = conv();
        let mut m = Mapping::minimal(&p);
        m.parallel = vec![4, 2];
        assert_eq!(m.active_pes(), 8);
    }

    #[test]
    fn reset_minimal_matches_minimal() {
        let p = conv();
        let mut m = Mapping::minimal(&p);
        m.tiles[0] = vec![8, 3];
        m.parallel = vec![4, 2];
        m.loop_orders[1] = vec![1, 0];
        m.buffer_alloc[0] = vec![0.9, 0.05, 0.05];
        m.reset_minimal(&p);
        assert_eq!(m, Mapping::minimal(&p));

        // Starting from empty (Default) also works.
        let mut e = Mapping::default();
        e.reset_minimal(&p);
        assert_eq!(e, Mapping::minimal(&p));
    }

    #[test]
    fn div_ceil_edge_cases() {
        assert_eq!(div_ceil(10, 3), 4);
        assert_eq!(div_ceil(9, 3), 3);
        assert_eq!(div_ceil(1, 10), 1);
        assert_eq!(div_ceil(0, 0), 1);
        assert_eq!(div_ceil(5, 0), 5);
    }

    #[test]
    fn level_indices_are_stable() {
        assert_eq!(Level::L1.index(), 0);
        assert_eq!(Level::L2.index(), 1);
        assert_eq!(Level::Dram.index(), 2);
        assert_eq!(Level::ALL.len(), 3);
        assert_eq!(Level::Dram.to_string(), "DRAM");
    }
}
