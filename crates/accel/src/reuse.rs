//! Loop-nest reuse analysis: per-level, per-tensor access counting.
//!
//! This module implements the core of the analytical cost model. Given a
//! mapping's tiled loop nest, it determines, for every tensor and every
//! buffer level, how many words must cross that level boundary. The analysis
//! follows the standard stationarity argument used by Timeloop-class models:
//!
//! * a tensor's tile at level ℓ stays resident while loops *irrelevant* to
//!   the tensor iterate **innermost** of the loops above ℓ (temporal reuse);
//! * as soon as a relevant loop iterates — or an irrelevant loop sits outside
//!   a relevant one — the tile must be refetched;
//! * spatial parallelism over a dimension irrelevant to a tensor lets the NoC
//!   multicast/broadcast the same data to many PEs, so the shared-buffer read
//!   count does not scale with the fan-out for that tensor.

use mm_mapspace::mapping::{Level, Mapping};
use mm_mapspace::problem::{DimId, ProblemSpec};
use serde::{Deserialize, Serialize};

/// One temporal loop of the tiled nest: the dimension it iterates and its
/// trip count, at a particular level.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct LoopSpec {
    /// Problem dimension iterated by the loop.
    pub dim: DimId,
    /// Trip count (number of iterations).
    pub trips: u64,
}

/// The tiled loop nest implied by a mapping, split by level.
/// Loops within each level are ordered outermost-first.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct TiledNest {
    /// Temporal loops at the DRAM level (outermost).
    pub dram_loops: Vec<LoopSpec>,
    /// Temporal loops at the L2 level.
    pub l2_loops: Vec<LoopSpec>,
    /// Temporal loops at the L1 level (innermost).
    pub l1_loops: Vec<LoopSpec>,
    /// Spatial fan-out per dimension (unordered).
    pub spatial: Vec<(DimId, u64)>,
}

impl TiledNest {
    /// Lower a mapping into its tiled loop nest for `problem`.
    pub fn from_mapping(problem: &ProblemSpec, m: &Mapping) -> Self {
        let loops = |level: Level| -> Vec<LoopSpec> {
            m.order(level)
                .iter()
                .map(|&d| LoopSpec {
                    dim: DimId(d),
                    trips: m.trip_count(problem, level, DimId(d)),
                })
                .collect()
        };
        TiledNest {
            dram_loops: loops(Level::Dram),
            l2_loops: loops(Level::L2),
            l1_loops: loops(Level::L1),
            spatial: problem.dims().map(|d| (d, m.parallelism(d))).collect(),
        }
    }

    /// All temporal loops above the L1 tile (DRAM then L2), outermost first.
    pub fn loops_above_l1(&self) -> Vec<LoopSpec> {
        let mut v = self.dram_loops.clone();
        v.extend(self.l2_loops.iter().copied());
        v
    }

    /// Total trip-count product of a slice of loops.
    pub fn product(loops: &[LoopSpec]) -> u128 {
        loops.iter().map(|l| l.trips as u128).product()
    }
}

/// Result of the stationarity analysis for one tensor over one loop block.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct ReuseFactors {
    /// Number of times the tensor's tile below this loop block must be
    /// (re)loaded: the product of all loop trip counts except the innermost
    /// contiguous run of irrelevant loops.
    pub reloads: u128,
    /// Number of *distinct* tiles touched: the product of relevant loop trip
    /// counts only. `reloads >= distinct`; the difference is redundant
    /// refetching (for outputs: partial-sum spills and refills).
    pub distinct: u128,
}

/// Analyze one loop block (outermost first) for a tensor whose relevance to
/// each dimension is given by `relevant`.
pub fn reuse_factors(loops: &[LoopSpec], relevant: impl Fn(DimId) -> bool) -> ReuseFactors {
    // Find the innermost relevant loop with a trip count > 1; loops strictly
    // inside it that are irrelevant give temporal reuse (no reloads).
    let last_relevant = loops
        .iter()
        .rposition(|l| relevant(l.dim) && l.trips > 1)
        .map(|i| i + 1)
        .unwrap_or(0);
    let reloads = loops[..last_relevant]
        .iter()
        .map(|l| l.trips as u128)
        .product::<u128>()
        .max(1);
    let distinct = loops
        .iter()
        .filter(|l| relevant(l.dim))
        .map(|l| l.trips as u128)
        .product::<u128>()
        .max(1);
    ReuseFactors { reloads, distinct }
}

/// Per-tensor, per-level word-transfer counts produced by the reuse analysis.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct AccessCounts {
    /// Words read from DRAM (per tensor).
    pub dram_reads: Vec<u128>,
    /// Words written to DRAM (per tensor; nonzero only for outputs).
    pub dram_writes: Vec<u128>,
    /// Words read from the shared L2 buffer (per tensor).
    pub l2_reads: Vec<u128>,
    /// Words written into the shared L2 buffer (per tensor).
    pub l2_writes: Vec<u128>,
    /// Words read from the private L1 buffers, summed over PEs (per tensor).
    pub l1_reads: Vec<u128>,
    /// Words written into the private L1 buffers, summed over PEs (per tensor).
    pub l1_writes: Vec<u128>,
}

impl AccessCounts {
    /// Total accesses (reads + writes) at a level, summed over tensors.
    pub fn total_at(&self, level: Level) -> u128 {
        let (r, w) = match level {
            Level::L1 => (&self.l1_reads, &self.l1_writes),
            Level::L2 => (&self.l2_reads, &self.l2_writes),
            Level::Dram => (&self.dram_reads, &self.dram_writes),
        };
        r.iter().sum::<u128>() + w.iter().sum::<u128>()
    }

    /// Total accesses (reads + writes) at a level for one tensor.
    pub fn tensor_at(&self, level: Level, t: usize) -> u128 {
        match level {
            Level::L1 => self.l1_reads[t] + self.l1_writes[t],
            Level::L2 => self.l2_reads[t] + self.l2_writes[t],
            Level::Dram => self.dram_reads[t] + self.dram_writes[t],
        }
    }

    /// Reset every per-tensor count vector to `nt` zeros, reusing capacity.
    pub fn reset(&mut self, nt: usize) {
        for v in [
            &mut self.dram_reads,
            &mut self.dram_writes,
            &mut self.l2_reads,
            &mut self.l2_writes,
            &mut self.l1_reads,
            &mut self.l1_writes,
        ] {
            v.clear();
            v.resize(nt, 0);
        }
    }
}

/// Run the full reuse analysis for `mapping` on `problem`.
///
/// This is the *reference* walk: it materialises the [`TiledNest`] and asks
/// [`reuse_factors`] about each loop block, one tensor at a time, exactly as
/// the module docs describe the analysis. `CostModel::evaluate_into` computes
/// the same counts in one pass over flat per-dimension data without building
/// a nest; the tests hold that kernel to this function bit for bit, so keep
/// this one readable rather than fast.
pub fn count_accesses(problem: &ProblemSpec, mapping: &Mapping) -> AccessCounts {
    let nest = TiledNest::from_mapping(problem, mapping);
    let loops_above_l1 = nest.loops_above_l1();
    let nt = problem.num_tensors();
    let out_idx = problem.output_tensor();
    let padded_macs = mapping.padded_macs(problem);
    let active_pes = mapping.active_pes() as u128;
    let mut counts = AccessCounts::default();
    counts.reset(nt);

    for (t, tensor) in problem.tensors.iter().enumerate() {
        let relevant = |d: DimId| tensor.is_relevant(d);
        let is_output = t == out_idx;

        // Footprints.
        let l1_fp = mapping.l1_footprint(problem, t) as u128;
        // Spatial footprint at L2-read granularity: extents grow only along
        // dimensions relevant to the tensor (irrelevant spatial fan-out is a
        // multicast of the same words).
        let spatial_fp = tensor.footprint(|d| {
            mapping
                .l1_tile(d)
                .saturating_mul(mapping.parallelism(d))
                .min(problem.dim_size(d).max(1))
        }) as u128;
        let l2_fp = mapping.l2_footprint(problem, t) as u128;

        // --- DRAM <-> L2 boundary: governed by the DRAM-level loops.
        let dram = reuse_factors(&nest.dram_loops, relevant);
        if is_output {
            // Each (re)load of the output L2 tile implies a write-back; loads
            // beyond the first per distinct tile also require re-reading the
            // previously spilled partial sums.
            counts.dram_writes[t] = dram.reloads * l2_fp;
            counts.dram_reads[t] = dram.reloads.saturating_sub(dram.distinct) * l2_fp;
            // Writing back to DRAM reads the tile out of L2.
            counts.l2_reads[t] += dram.reloads * l2_fp;
            // Re-filling spilled partials writes them back into L2.
            counts.l2_writes[t] += dram.reloads.saturating_sub(dram.distinct) * l2_fp;
        } else {
            counts.dram_reads[t] = dram.reloads * l2_fp;
            // Fills coming from DRAM are writes into L2.
            counts.l2_writes[t] += dram.reloads * l2_fp;
        }

        // --- L2 <-> L1 boundary: governed by all loops above L1.
        let inner = reuse_factors(&loops_above_l1, relevant);
        if is_output {
            // PEs push completed/partial output tiles up into L2 …
            counts.l2_writes[t] += inner.reloads * spatial_fp;
            // … and pull previously accumulated partials back down when the
            // same tile is revisited.
            counts.l2_reads[t] += inner.reloads.saturating_sub(inner.distinct) * spatial_fp;
            // L1 side of the same transfers.
            counts.l1_reads[t] += inner.reloads * l1_fp * active_pes;
            counts.l1_writes[t] +=
                inner.reloads.saturating_sub(inner.distinct) * l1_fp * active_pes;
        } else {
            counts.l2_reads[t] += inner.reloads * spatial_fp;
            // Every PE stores its own copy of the (possibly multicast) tile.
            counts.l1_writes[t] += inner.reloads * l1_fp * active_pes;
        }

        // --- L1 <-> datapath: one operand read per MAC; outputs are
        // read-modify-write.
        if is_output {
            counts.l1_reads[t] += padded_macs;
            counts.l1_writes[t] += padded_macs;
        } else {
            counts.l1_reads[t] += padded_macs;
        }
    }
    counts
}

#[cfg(test)]
mod tests {
    use super::*;
    use mm_mapspace::{MapSpace, MappingConstraints};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn conv() -> ProblemSpec {
        ProblemSpec::conv1d(64, 5)
    }

    #[test]
    fn reuse_factors_basic_stationarity() {
        // Loops (outer->inner): A(4), B(3) where the tensor depends only on A.
        let loops = [
            LoopSpec {
                dim: DimId(0),
                trips: 4,
            },
            LoopSpec {
                dim: DimId(1),
                trips: 3,
            },
        ];
        let f = reuse_factors(&loops, |d| d == DimId(0));
        // B innermost and irrelevant -> reused; only 4 reloads.
        assert_eq!(f.reloads, 4);
        assert_eq!(f.distinct, 4);

        // Swap the order: irrelevant loop outside forces refetching.
        let loops = [
            LoopSpec {
                dim: DimId(1),
                trips: 3,
            },
            LoopSpec {
                dim: DimId(0),
                trips: 4,
            },
        ];
        let f = reuse_factors(&loops, |d| d == DimId(0));
        assert_eq!(f.reloads, 12);
        assert_eq!(f.distinct, 4);
    }

    #[test]
    fn reuse_factors_no_relevant_loops() {
        let loops = [LoopSpec {
            dim: DimId(1),
            trips: 9,
        }];
        let f = reuse_factors(&loops, |d| d == DimId(0));
        assert_eq!(f.reloads, 1);
        assert_eq!(f.distinct, 1);
    }

    #[test]
    fn reuse_factors_ignores_unit_trip_relevant_loops() {
        let loops = [
            LoopSpec {
                dim: DimId(0),
                trips: 1,
            },
            LoopSpec {
                dim: DimId(1),
                trips: 5,
            },
        ];
        let f = reuse_factors(&loops, |d| d == DimId(0));
        assert_eq!(f.reloads, 1);
        assert_eq!(f.distinct, 1);
    }

    #[test]
    fn minimal_mapping_access_counts_are_positive() {
        let p = conv();
        let m = Mapping::minimal(&p);
        let c = count_accesses(&p, &m);
        for t in 0..p.num_tensors() {
            assert!(c.l1_reads[t] > 0, "tensor {t} should be read at L1");
        }
        assert!(c.total_at(Level::Dram) > 0);
        assert!(c.total_at(Level::L2) > 0);
    }

    #[test]
    fn inputs_are_never_written_to_dram() {
        let p = conv();
        let mut rng = StdRng::seed_from_u64(3);
        let space = MapSpace::new(p.clone(), MappingConstraints::example());
        for _ in 0..20 {
            let m = space.random_mapping(&mut rng);
            let c = count_accesses(&p, &m);
            assert_eq!(c.dram_writes[0], 0);
            assert_eq!(c.dram_writes[1], 0);
            assert!(c.dram_writes[p.output_tensor()] > 0);
        }
    }

    #[test]
    fn dram_reads_at_least_tensor_size() {
        // Every input word must be read from DRAM at least once.
        let p = conv();
        let mut rng = StdRng::seed_from_u64(5);
        let space = MapSpace::new(p.clone(), MappingConstraints::example());
        for _ in 0..20 {
            let m = space.random_mapping(&mut rng);
            let c = count_accesses(&p, &m);
            for t in 0..p.num_tensors() {
                if t == p.output_tensor() {
                    assert!(c.dram_writes[t] >= p.tensor_size(t) as u128);
                } else {
                    assert!(
                        c.dram_reads[t] >= p.tensor_size(t) as u128,
                        "tensor {t}: {} < {}",
                        c.dram_reads[t],
                        p.tensor_size(t)
                    );
                }
            }
        }
    }

    #[test]
    fn larger_l2_tiles_reduce_dram_traffic_for_stationary_tensor() {
        // With the full problem resident in L2 (tiles = full dims), each
        // tensor is read from DRAM exactly once.
        let p = conv();
        let mut m = Mapping::minimal(&p);
        m.tiles[1] = vec![60, 5];
        let c = count_accesses(&p, &m);
        assert_eq!(c.dram_reads[0], p.tensor_size(0) as u128);
        assert_eq!(c.dram_reads[1], p.tensor_size(1) as u128);
        assert_eq!(c.dram_writes[2], p.tensor_size(2) as u128);
    }

    #[test]
    fn loop_order_changes_traffic() {
        // Tiny L2 tiles force refetch; which tensor suffers depends on the
        // DRAM loop order.
        let p = conv();
        let mut a = Mapping::minimal(&p);
        a.tiles[0] = vec![1, 1];
        a.tiles[1] = vec![4, 1];
        a.loop_orders[2] = vec![0, 1]; // X outer, R inner
        let mut b = a.clone();
        b.loop_orders[2] = vec![1, 0]; // R outer, X inner
        let ca = count_accesses(&p, &a);
        let cb = count_accesses(&p, &b);
        assert_ne!(
            ca.dram_reads, cb.dram_reads,
            "loop order must influence DRAM traffic"
        );
    }

    #[test]
    fn multicast_keeps_l2_reads_constant_for_irrelevant_parallelism() {
        // Parallelizing over X does not increase L2 reads of the filter F
        // (it is broadcast), but does increase L1 fill writes.
        let p = conv();
        let mut serial = Mapping::minimal(&p);
        serial.tiles[0] = vec![2, 5];
        serial.tiles[1] = vec![8, 5];
        let mut par = serial.clone();
        par.parallel = vec![4, 1];
        par.tiles[1] = vec![8, 5];
        let cs = count_accesses(&p, &serial);
        let cp = count_accesses(&p, &par);
        let f = 1; // filter tensor index
        assert_eq!(cs.l2_reads[f], cp.l2_reads[f]);
        assert!(cp.l1_writes[f] > cs.l1_writes[f]);
    }

    #[test]
    fn total_at_matches_tensor_sum() {
        let p = conv();
        let m = Mapping::minimal(&p);
        let c = count_accesses(&p, &m);
        for level in Level::ALL {
            let total: u128 = (0..p.num_tensors()).map(|t| c.tensor_at(level, t)).sum();
            assert_eq!(total, c.total_at(level));
        }
    }
}
