//! The accelerator cost model: energy, cycles, utilization, and EDP for a
//! mapping (the reference cost function `f(a, m)` of Equation 1).

use mm_mapspace::mapping::{div_ceil, Level};
use mm_mapspace::problem::TensorDim;
use mm_mapspace::{Mapping, ProblemSpec};
use serde::{Deserialize, Serialize};

use crate::arch::Architecture;
use crate::bound::AlgorithmicMinimum;
use crate::reuse::{AccessCounts, ReuseFactors};

/// Full cost breakdown for one mapping, matching the "meta-statistics" output
/// representation of Section 4.1.3: per-level, per-tensor energy plus total
/// energy, cycles, and compute utilization.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct CostBreakdown {
    /// Energy (pJ) spent accessing each memory level for each tensor:
    /// `energy_pj[level][tensor]` with levels ordered `[L1, L2, DRAM]`.
    pub energy_pj: Vec<Vec<f64>>,
    /// Energy (pJ) spent in the MAC datapath.
    pub compute_energy_pj: f64,
    /// Total energy in picojoules.
    pub total_energy_pj: f64,
    /// Execution time in cycles (max of compute- and bandwidth-limited time).
    pub cycles: f64,
    /// Compute utilization in `[0, 1]`: achieved MACs/cycle over peak.
    pub utilization: f64,
    /// Energy-delay product in joule-seconds.
    pub edp: f64,
    /// Raw access counts backing the energy numbers.
    pub accesses: AccessCounts,
}

impl CostBreakdown {
    /// The meta-statistics vector used to train the surrogate
    /// (Section 4.1.3): per-level energy for each tensor, followed by compute
    /// utilization, total cycles, and total energy. Length is
    /// `3 * num_tensors + 3` — 12 for CNN-Layer (3 tensors), 15 for MTTKRP
    /// (4 tensors), as reported in Section 5.5.
    pub fn meta_statistics(&self) -> Vec<f64> {
        // Capacity from the actual row lengths: indexing `energy_pj[0]` would
        // panic on an empty breakdown and under-reserve for ragged rows.
        let cells: usize = self.energy_pj.iter().map(Vec::len).sum();
        let mut v = Vec::with_capacity(cells + 3);
        for level in &self.energy_pj {
            for &e in level {
                v.push(e);
            }
        }
        v.push(self.utilization);
        v.push(self.cycles);
        v.push(self.total_energy_pj);
        v
    }

    /// Delay in seconds given the architecture's clock.
    pub fn delay_s(&self, arch: &Architecture) -> f64 {
        self.cycles * arch.cycle_time_s()
    }
}

/// Scalar cost summary of one evaluation: everything a search loop needs to
/// rank a mapping, without the per-level/per-tensor detail (which stays in
/// the [`EvalScratch`] that produced it). `Copy`, so the hot path moves no
/// heap data.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CostSummary {
    /// Energy (pJ) spent in the MAC datapath.
    pub compute_energy_pj: f64,
    /// Total energy in picojoules.
    pub total_energy_pj: f64,
    /// Execution time in cycles (max of compute- and bandwidth-limited time).
    pub cycles: f64,
    /// Compute utilization in `[0, 1]`.
    pub utilization: f64,
    /// Energy-delay product in joule-seconds.
    pub edp: f64,
    /// Total accesses to the last (DRAM) level.
    pub last_level_accesses: u128,
}

/// What the current mapping makes of one problem dimension: the tile
/// extents the footprints are built from and the trip counts of the two
/// loop levels above L1. Everything per-tensor is derived from these.
#[derive(Debug, Clone, Copy, Default)]
struct DimTerms {
    /// L1 (per-PE) tile extent.
    l1: u64,
    /// Extent read from L2 at once: the L1 tile across the PEs assigned to
    /// the dimension, clipped to the dimension.
    spatial: u64,
    /// Extent resident in L2: the L2 tile, at least the spatial tile.
    l2: u64,
    /// Trip count of the dimension's L2-level loop.
    l2_trips: u64,
    /// Trip count of the dimension's DRAM-level loop.
    dram_trips: u64,
}

/// Reusable working memory for [`CostModel::evaluate_into`]: the
/// per-dimension terms, access counts, and energy rows of the *most recent*
/// evaluation. One scratch per evaluation thread; after warmup (first call
/// per problem shape) evaluations through it perform zero heap allocations.
#[derive(Debug, Clone, Default)]
pub struct EvalScratch {
    dims: Vec<DimTerms>,
    counts: AccessCounts,
    energy_pj: Vec<Vec<f64>>,
}

impl EvalScratch {
    /// An empty scratch; buffers are sized on first use.
    pub fn new() -> Self {
        Self::default()
    }

    /// Access counts of the most recent [`CostModel::evaluate_into`] call.
    pub fn accesses(&self) -> &AccessCounts {
        &self.counts
    }

    /// Per-level, per-tensor energy (pJ) of the most recent evaluation,
    /// levels ordered `[L1, L2, DRAM]`.
    pub fn energy_pj(&self) -> &[Vec<f64>] {
        &self.energy_pj
    }

    /// Assemble the full [`CostBreakdown`] of the most recent evaluation,
    /// *moving* the detail buffers out of the scratch (they regrow on the
    /// next evaluation). `summary` must be the value that evaluation
    /// returned.
    pub fn take_breakdown(&mut self, summary: CostSummary) -> CostBreakdown {
        CostBreakdown {
            energy_pj: std::mem::take(&mut self.energy_pj),
            compute_energy_pj: summary.compute_energy_pj,
            total_energy_pj: summary.total_energy_pj,
            cycles: summary.cycles,
            utilization: summary.utilization,
            edp: summary.edp,
            accesses: std::mem::take(&mut self.counts),
        }
    }
}

/// Structure-of-arrays cost columns for a whole proposal batch, filled by
/// [`CostModel::evaluate_batch_into`]. Column `i` holds the cost of
/// `mappings[i]`; values are bit-identical to per-mapping
/// [`CostModel::evaluate`] calls.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct BatchCosts {
    /// Datapath (MAC) energy in picojoules, per mapping.
    pub compute_energy_pj: Vec<f64>,
    /// Total energy in picojoules, per mapping.
    pub total_energy_pj: Vec<f64>,
    /// Execution time in cycles, per mapping.
    pub cycles: Vec<f64>,
    /// Compute utilization in `[0, 1]`, per mapping.
    pub utilization: Vec<f64>,
    /// Energy-delay product in joule-seconds, per mapping.
    pub edp: Vec<f64>,
    /// Total DRAM accesses, per mapping.
    pub last_level_accesses: Vec<u128>,
}

impl BatchCosts {
    /// An empty column set; columns are sized on first use.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of mappings scored.
    pub fn len(&self) -> usize {
        self.edp.len()
    }

    /// Whether the batch is empty.
    pub fn is_empty(&self) -> bool {
        self.edp.is_empty()
    }

    /// Drop all rows, keeping column capacity.
    pub fn clear(&mut self) {
        self.compute_energy_pj.clear();
        self.total_energy_pj.clear();
        self.cycles.clear();
        self.utilization.clear();
        self.edp.clear();
        self.last_level_accesses.clear();
    }

    /// Reserve room for `n` more rows in every column.
    pub fn reserve(&mut self, n: usize) {
        self.compute_energy_pj.reserve(n);
        self.total_energy_pj.reserve(n);
        self.cycles.reserve(n);
        self.utilization.reserve(n);
        self.edp.reserve(n);
        self.last_level_accesses.reserve(n);
    }

    /// Append one mapping's summary as a new row.
    pub fn push(&mut self, s: CostSummary) {
        self.compute_energy_pj.push(s.compute_energy_pj);
        self.total_energy_pj.push(s.total_energy_pj);
        self.cycles.push(s.cycles);
        self.utilization.push(s.utilization);
        self.edp.push(s.edp);
        self.last_level_accesses.push(s.last_level_accesses);
    }

    /// Reassemble row `i` as a [`CostSummary`].
    ///
    /// # Panics
    ///
    /// Panics if `i >= len()`.
    pub fn summary(&self, i: usize) -> CostSummary {
        CostSummary {
            compute_energy_pj: self.compute_energy_pj[i],
            total_energy_pj: self.total_energy_pj[i],
            cycles: self.cycles[i],
            utilization: self.utilization[i],
            edp: self.edp[i],
            last_level_accesses: self.last_level_accesses[i],
        }
    }
}

/// Everything [`CostModel::evaluate_into`] needs that depends on the problem
/// and the architecture alone, lowered once by [`CostModel::new`] so that no
/// evaluation re-derives it.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
struct Lowered {
    /// `relevant[t * num_dims + d]`: tensor `t` depends on dimension `d`
    /// ([`TensorSpec::is_relevant`](mm_mapspace::problem::TensorSpec::is_relevant),
    /// tabulated).
    relevant: Vec<bool>,
    /// Index of the output tensor.
    output: usize,
    /// `ProblemSpec::total_macs` as the float the utilization divides.
    total_macs: f64,
    /// Energy per access (pJ) by [`Level::index`].
    energy_per_access_pj: [f64; 3],
    /// Bandwidth (words per cycle, floored away from zero) by [`Level::index`].
    bandwidth: [f64; 3],
}

impl Lowered {
    fn new(arch: &Architecture, problem: &ProblemSpec) -> Self {
        // `Level::ALL` is in `Level::index` order.
        let levels = Level::ALL.map(|level| arch.level(level));
        let mut relevant = Vec::with_capacity(problem.num_tensors() * problem.num_dims());
        for tensor in &problem.tensors {
            relevant.extend(problem.dims().map(|d| tensor.is_relevant(d)));
        }
        Lowered {
            relevant,
            output: problem.output_tensor(),
            total_macs: problem.total_macs() as f64,
            energy_per_access_pj: levels.map(|l| l.energy_per_access_pj),
            bandwidth: levels.map(|l| l.bandwidth_words_per_cycle.max(1e-9)),
        }
    }
}

/// Outer-to-inner walk over the temporal loops above a tensor's tile: the
/// stationarity analysis of [`reuse_factors`](crate::reuse::reuse_factors)
/// as running state, so one pass over the DRAM order and then the L2 order
/// yields the factors of both loop blocks (the loops above L1 are DRAM ++ L2,
/// so the DRAM block's factors are the state at the boundary).
struct ReuseWalk {
    /// Product of every trip count walked so far.
    prefix: u128,
    /// `prefix` as of the innermost relevant loop that iterates (> 1 trip):
    /// the loops inside it are irrelevant and reuse the tile.
    reloads: u128,
    /// Product of the relevant trip counts.
    distinct: u128,
}

impl ReuseWalk {
    fn new() -> Self {
        ReuseWalk {
            prefix: 1,
            reloads: 1,
            distinct: 1,
        }
    }

    #[inline]
    fn step(&mut self, trips: u64, relevant: bool) {
        self.prefix *= trips as u128;
        if relevant {
            self.distinct *= trips as u128;
            if trips > 1 {
                self.reloads = self.prefix;
            }
        }
    }

    fn factors(&self) -> ReuseFactors {
        ReuseFactors {
            reloads: self.reloads.max(1),
            distinct: self.distinct.max(1),
        }
    }
}

/// The analytical cost model: an [`Architecture`] bound to a [`ProblemSpec`].
///
/// Cloneable and cheap to construct; evaluation is a pure function of the
/// mapping.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CostModel {
    arch: Architecture,
    problem: ProblemSpec,
    lower_bound: AlgorithmicMinimum,
    lowered: Lowered,
}

impl CostModel {
    /// Bind an architecture to a problem.
    pub fn new(arch: Architecture, problem: ProblemSpec) -> Self {
        let lower_bound = AlgorithmicMinimum::compute(&arch, &problem);
        let lowered = Lowered::new(&arch, &problem);
        Self {
            arch,
            problem,
            lower_bound,
            lowered,
        }
    }

    /// The architecture being modelled.
    pub fn arch(&self) -> &Architecture {
        &self.arch
    }

    /// The problem being mapped.
    pub fn problem(&self) -> &ProblemSpec {
        &self.problem
    }

    /// The (possibly unachievable) theoretical lower bound for this problem
    /// on this architecture (Appendix A).
    pub fn lower_bound(&self) -> &AlgorithmicMinimum {
        &self.lower_bound
    }

    /// Evaluate the full cost breakdown of a mapping.
    ///
    /// The mapping is taken at face value: callers are expected to have
    /// validated it against the map space (invalid mappings still produce a
    /// finite cost, which is useful for penalty-based search, but the numbers
    /// are only meaningful for valid mappings).
    pub fn evaluate(&self, mapping: &Mapping) -> CostBreakdown {
        let mut scratch = EvalScratch::new();
        let summary = self.evaluate_into(&mut scratch, mapping);
        scratch.take_breakdown(summary)
    }

    /// The allocation-free hot entry point: evaluate `mapping` using the
    /// reusable buffers in `scratch`, returning the scalar [`CostSummary`].
    /// Per-level/per-tensor detail stays readable in `scratch` until the
    /// next call.
    ///
    /// This is the one cost kernel ([`evaluate`](Self::evaluate) is a thin
    /// allocating wrapper around it). It computes what the reference walk
    /// [`reuse::count_accesses`](crate::reuse::count_accesses) computes —
    /// same integer widths, same floating-point order, so every result is
    /// bit-identical to it — in one pass: each dimension's extents and trip
    /// counts once, then per tensor the three footprints from those extents
    /// and both loop blocks' reuse factors from a single outer-to-inner
    /// walk. What depends on the problem alone comes from the table built
    /// by [`new`](Self::new).
    // mm-lint: hot-path — the steady-state eval loop must not allocate.
    pub fn evaluate_into(&self, scratch: &mut EvalScratch, mapping: &Mapping) -> CostSummary {
        let p = &self.problem;
        let a = &self.arch;
        let low = &self.lowered;
        let nd = p.num_dims();
        let nt = p.num_tensors();

        // Per dimension: extents, trip counts, and the two whole-mapping
        // products (padded iteration space, PEs in use).
        let (l1_tiles, l2_tiles) = (&mapping.tiles[0][..nd], &mapping.tiles[1][..nd]);
        let parallel = &mapping.parallel[..nd];
        scratch.dims.resize(nd, DimTerms::default());
        let mut padded_macs = 1u128;
        let mut active_pes = 1u64;
        for (d, terms) in scratch.dims.iter_mut().enumerate() {
            let size = p.dim_sizes[d];
            let l1 = l1_tiles[d].max(1);
            let l2 = l2_tiles[d].max(1);
            let par = parallel[d].max(1);
            let spatial_tile = l1.saturating_mul(par);
            let l2_trips = div_ceil(l2, spatial_tile);
            let dram_trips = div_ceil(size, l2);
            *terms = DimTerms {
                l1,
                spatial: spatial_tile.min(size.max(1)),
                l2: l2.max(spatial_tile),
                l2_trips,
                dram_trips,
            };
            padded_macs *= (l1 * par * l2_trips * dram_trips) as u128;
            active_pes = active_pes.saturating_mul(par);
        }
        let dims = scratch.dims.as_slice();
        let dram_order = mapping.order(Level::Dram);
        let l2_order = mapping.order(Level::L2);

        // Per tensor: footprints, reuse factors, and the word counts that
        // cross each level boundary.
        let counts = &mut scratch.counts;
        counts.reset(nt);
        let active = active_pes as u128;
        for (t, tensor) in p.tensors.iter().enumerate() {
            let relevant = &low.relevant[t * nd..(t + 1) * nd];

            // The three footprints in one pass over the tensor's coordinates
            // (`TensorSpec::footprint` three times over reads 2 % slower).
            let (mut l1_fp, mut spatial_fp, mut l2_fp) = (1u64, 1u64, 1u64);
            for coord in &tensor.dims {
                let (e1, es, e2) = match *coord {
                    TensorDim::Single(d) => {
                        let x = &dims[d.0];
                        (x.l1, x.spatial, x.l2)
                    }
                    // Sliding window `a + b`: extents add, minus the overlap.
                    TensorDim::Compound(a, b) => {
                        let (x, y) = (&dims[a.0], &dims[b.0]);
                        (
                            (x.l1 + y.l1).saturating_sub(1),
                            (x.spatial + y.spatial).saturating_sub(1),
                            (x.l2 + y.l2).saturating_sub(1),
                        )
                    }
                };
                l1_fp = l1_fp.saturating_mul(e1.max(1));
                spatial_fp = spatial_fp.saturating_mul(es.max(1));
                l2_fp = l2_fp.saturating_mul(e2.max(1));
            }
            let (l1_fp, spatial_fp, l2_fp) = (l1_fp as u128, spatial_fp as u128, l2_fp as u128);

            let mut walk = ReuseWalk::new();
            for &d in dram_order {
                walk.step(dims[d].dram_trips, relevant[d]);
            }
            let dram = walk.factors();
            for &d in l2_order {
                walk.step(dims[d].l2_trips, relevant[d]);
            }
            let inner = walk.factors();

            // DRAM <-> L2 moves L2 tiles, L2 <-> L1 spatial tiles on the L2
            // side and one L1 tile per active PE on the L1 side; the
            // datapath reads one operand per MAC. Outputs are written back
            // on every (re)load and re-read whenever a tile is revisited
            // (see `reuse::count_accesses` for the argument).
            let fills = inner.reloads * l1_fp * active;
            if t == low.output {
                let dram_spills = dram.reloads.saturating_sub(dram.distinct);
                let inner_spills = inner.reloads.saturating_sub(inner.distinct);
                counts.dram_writes[t] = dram.reloads * l2_fp;
                counts.dram_reads[t] = dram_spills * l2_fp;
                counts.l2_reads[t] = dram.reloads * l2_fp + inner_spills * spatial_fp;
                counts.l2_writes[t] = dram_spills * l2_fp + inner.reloads * spatial_fp;
                counts.l1_reads[t] = fills + padded_macs;
                counts.l1_writes[t] = inner_spills * l1_fp * active + padded_macs;
            } else {
                counts.dram_reads[t] = dram.reloads * l2_fp;
                counts.l2_writes[t] = dram.reloads * l2_fp;
                counts.l2_reads[t] = inner.reloads * spatial_fp;
                counts.l1_writes[t] = fills;
                counts.l1_reads[t] = padded_macs;
            }
        }
        let accesses = &scratch.counts;

        // mm-lint: allow(hot-path): Vec::new is alloc-free; the three rows
        // are created once per scratch and reused across calls.
        scratch.energy_pj.resize_with(3, Vec::new);
        for level in Level::ALL {
            let epa = low.energy_per_access_pj[level.index()];
            let row = &mut scratch.energy_pj[level.index()];
            row.clear();
            row.resize(nt, 0.0);
            for (t, e) in row.iter_mut().enumerate() {
                *e = accesses.tensor_at(level, t) as f64 * epa;
            }
        }

        let padded_macs = padded_macs as f64;
        let compute_energy_pj = padded_macs * a.mac_energy_pj;
        let total_energy_pj: f64 =
            scratch.energy_pj.iter().flatten().sum::<f64>() + compute_energy_pj;

        // Compute-limited time. A mapping/architecture pair with no MAC
        // throughput (zero PEs or zero-rate PEs) can never finish: it gets
        // an explicit worst-case cost rather than a silently clamped
        // denominator. `active_pes * rate` is a product of integers, so the
        // guard changes nothing for any functioning configuration.
        let active_pes = (active_pes.min(a.num_pes)) as f64;
        let mac_rate = active_pes * a.macs_per_pe_per_cycle as f64;
        let level_totals = Level::ALL.map(|level| accesses.total_at(level));
        let (cycles, utilization) = if mac_rate > 0.0 {
            let mut cycles = padded_macs / mac_rate;
            // Bandwidth-limited time per level.
            for (&total, bandwidth) in level_totals.iter().zip(low.bandwidth) {
                let mem_cycles = total as f64 / bandwidth;
                if mem_cycles > cycles {
                    cycles = mem_cycles;
                }
            }
            let utilization =
                ((low.total_macs / cycles) / a.peak_macs_per_cycle() as f64).clamp(0.0, 1.0);
            (cycles, utilization)
        } else {
            (f64::INFINITY, 0.0)
        };

        let energy_j = total_energy_pj * 1e-12;
        let delay_s = cycles * a.cycle_time_s();
        let edp = energy_j * delay_s;

        CostSummary {
            compute_energy_pj,
            total_energy_pj,
            cycles,
            utilization,
            edp,
            last_level_accesses: level_totals[Level::Dram.index()],
        }
    }

    /// Batch form of [`evaluate_into`](Self::evaluate_into): score every
    /// mapping through one scratch, appending structure-of-arrays cost
    /// columns to `out` (cleared first). The per-dimension, count, and
    /// energy buffers are reused across the whole batch, so the per-mapping
    /// steady state allocates nothing beyond the (caller-reusable) output
    /// columns.
    // mm-lint: hot-path — the steady-state eval loop must not allocate.
    pub fn evaluate_batch_into(
        &self,
        scratch: &mut EvalScratch,
        mappings: &[Mapping],
        out: &mut BatchCosts,
    ) {
        out.clear();
        out.reserve(mappings.len());
        for mapping in mappings {
            let summary = self.evaluate_into(scratch, mapping);
            out.push(summary);
        }
    }

    /// Convenience: just the EDP (joule-seconds) of a mapping.
    pub fn edp(&self, mapping: &Mapping) -> f64 {
        self.evaluate(mapping).edp
    }

    /// EDP normalized to the algorithmic minimum (≥ 1 for valid mappings,
    /// barring lower-bound slack). This is the `y`-axis of Figures 5 and 6.
    pub fn normalized_edp(&self, mapping: &Mapping) -> f64 {
        self.edp(mapping) / self.lower_bound.edp
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mm_mapspace::MapSpace;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn model() -> CostModel {
        CostModel::new(Architecture::example(), ProblemSpec::conv1d(128, 7))
    }

    fn space(model: &CostModel) -> MapSpace {
        MapSpace::new(model.problem().clone(), model.arch().mapping_constraints())
    }

    #[test]
    fn evaluate_produces_positive_costs() {
        let m = model();
        let cost = m.evaluate(&Mapping::minimal(m.problem()));
        assert!(cost.total_energy_pj > 0.0);
        assert!(cost.cycles > 0.0);
        assert!(cost.edp > 0.0);
        assert!(cost.utilization > 0.0 && cost.utilization <= 1.0);
    }

    #[test]
    fn meta_statistics_length_matches_paper() {
        // 3 tensors (conv) -> 3*3 + 3 = 12 outputs; 4 tensors -> 15.
        let m = model();
        let cost = m.evaluate(&Mapping::minimal(m.problem()));
        assert_eq!(cost.meta_statistics().len(), 12);
    }

    #[test]
    fn edp_equals_energy_times_delay() {
        let m = model();
        let cost = m.evaluate(&Mapping::minimal(m.problem()));
        let expect = cost.total_energy_pj * 1e-12 * cost.delay_s(m.arch());
        assert!((cost.edp - expect).abs() / expect < 1e-12);
    }

    #[test]
    fn valid_mappings_never_beat_lower_bound_energy() {
        let m = model();
        let s = space(&m);
        let mut rng = StdRng::seed_from_u64(11);
        for _ in 0..50 {
            let mapping = s.random_mapping(&mut rng);
            let cost = m.evaluate(&mapping);
            assert!(
                cost.total_energy_pj >= m.lower_bound().energy_pj * 0.999,
                "energy {} below lower bound {}",
                cost.total_energy_pj,
                m.lower_bound().energy_pj
            );
            assert!(cost.cycles >= m.lower_bound().cycles * 0.999);
            assert!(m.normalized_edp(&mapping) >= 0.999);
        }
    }

    #[test]
    fn parallelism_reduces_cycles() {
        let m = model();
        let mut serial = Mapping::minimal(m.problem());
        serial.tiles[0] = vec![4, 7];
        serial.tiles[1] = vec![16, 7];
        let mut par = serial.clone();
        par.parallel = vec![8, 1];
        par.tiles[1] = vec![32, 7];
        let cs = m.evaluate(&serial);
        let cp = m.evaluate(&par);
        assert!(
            cp.cycles < cs.cycles,
            "parallel mapping should be faster: {} vs {}",
            cp.cycles,
            cs.cycles
        );
    }

    #[test]
    fn better_reuse_reduces_energy() {
        let m = model();
        // Tiny L2 tiles (lots of refetch) vs. large L2 tiles (good reuse).
        let mut small = Mapping::minimal(m.problem());
        small.tiles[0] = vec![1, 1];
        small.tiles[1] = vec![2, 1];
        let mut large = Mapping::minimal(m.problem());
        large.tiles[0] = vec![4, 7];
        large.tiles[1] = vec![61, 7];
        let cs = m.evaluate(&small);
        let cl = m.evaluate(&large);
        assert!(
            cl.total_energy_pj < cs.total_energy_pj,
            "better reuse should reduce energy: {} vs {}",
            cl.total_energy_pj,
            cs.total_energy_pj
        );
    }

    #[test]
    fn cost_depends_on_loop_order() {
        let m = model();
        let mut a = Mapping::minimal(m.problem());
        a.tiles[0] = vec![1, 1];
        a.tiles[1] = vec![4, 1];
        let mut b = a.clone();
        b.loop_orders[2] = vec![1, 0];
        let ca = m.evaluate(&a);
        let cb = m.evaluate(&b);
        assert_ne!(ca.total_energy_pj, cb.total_energy_pj);
    }

    #[test]
    fn cost_surface_is_non_smooth() {
        // Scanning a tile size produces at least one large relative jump
        // between adjacent sizes (the "spiky" surface of Figure 3).
        let m = model();
        let s = space(&m);
        let mut prev: Option<f64> = None;
        let mut max_jump: f64 = 0.0;
        for t in 1..=61u64 {
            let mut mapping = Mapping::minimal(m.problem());
            mapping.tiles[0] = vec![t.min(8), 7];
            mapping.tiles[1] = vec![t * 2, 7];
            s.repair(&mut mapping);
            let edp = m.edp(&mapping);
            if let Some(p) = prev {
                let jump = (edp - p).abs() / p.min(edp);
                if jump > max_jump {
                    max_jump = jump;
                }
            }
            prev = Some(edp);
        }
        assert!(
            max_jump > 0.05,
            "expected a non-smooth cost surface, max relative jump {max_jump}"
        );
    }

    #[test]
    fn evaluate_is_deterministic() {
        let m = model();
        let s = space(&m);
        let mut rng = StdRng::seed_from_u64(42);
        let mapping = s.random_mapping(&mut rng);
        let a = m.evaluate(&mapping);
        let b = m.evaluate(&mapping);
        assert_eq!(a, b);
    }

    #[test]
    fn reuse_walk_yields_both_blocks_factors() {
        // Random loop blocks and relevance masks: the walk's state at the
        // boundary is `reuse_factors` of the outer block, its final state
        // `reuse_factors` of outer ++ inner.
        use crate::reuse::{reuse_factors, LoopSpec};
        use mm_mapspace::problem::DimId;
        use rand::Rng;
        let mut rng = StdRng::seed_from_u64(9);
        for _ in 0..500 {
            let nd = rng.gen_range(1..=6usize);
            let relevant: Vec<bool> = (0..nd).map(|_| rng.gen_bool(0.5)).collect();
            let block = |rng: &mut StdRng| -> Vec<LoopSpec> {
                (0..nd)
                    .map(|d| LoopSpec {
                        dim: DimId(d),
                        // Unit trip counts are common and matter: a relevant
                        // loop that does not iterate ends no reuse run.
                        trips: if rng.gen_bool(0.4) {
                            1
                        } else {
                            rng.gen_range(2..9)
                        },
                    })
                    .collect()
            };
            let (outer, inner) = (block(&mut rng), block(&mut rng));
            let mut walk = ReuseWalk::new();
            for l in &outer {
                walk.step(l.trips, relevant[l.dim.0]);
            }
            assert_eq!(walk.factors(), reuse_factors(&outer, |d| relevant[d.0]));
            for l in &inner {
                walk.step(l.trips, relevant[l.dim.0]);
            }
            let both: Vec<LoopSpec> = outer.iter().chain(&inner).copied().collect();
            assert_eq!(walk.factors(), reuse_factors(&both, |d| relevant[d.0]));
        }
    }

    #[test]
    fn kernel_counts_match_the_reference_walk() {
        // The crate-local half of `tests/hot_path_equivalence.rs`: one
        // scratch, valid mappings and zero-valued mutants, counts held to
        // `reuse::count_accesses`.
        let m = model();
        let s = space(&m);
        let mut rng = StdRng::seed_from_u64(1234);
        let mut scratch = EvalScratch::new();
        for i in 0..64 {
            let mut mapping = s.random_mapping(&mut rng);
            if i % 4 == 3 {
                mapping.tiles[i % 2][0] = 0;
                mapping.parallel[1] = 0;
            }
            let summary = m.evaluate_into(&mut scratch, &mapping);
            let reference = crate::reuse::count_accesses(m.problem(), &mapping);
            assert_eq!(scratch.accesses(), &reference);
            assert_eq!(summary.last_level_accesses, reference.total_at(Level::Dram));
        }
    }

    #[test]
    fn evaluate_into_is_bit_identical_to_evaluate() {
        // `evaluate` is the allocating wrapper: the same summary, plus the
        // detail buffers moved out of the scratch.
        let m = model();
        let s = space(&m);
        let mut rng = StdRng::seed_from_u64(1234);
        let mut scratch = EvalScratch::new();
        for _ in 0..16 {
            let mapping = s.random_mapping(&mut rng);
            let breakdown = m.evaluate(&mapping);
            let summary = m.evaluate_into(&mut scratch, &mapping);
            assert_eq!(scratch.energy_pj(), breakdown.energy_pj.as_slice());
            assert_eq!(scratch.accesses(), &breakdown.accesses);
            assert_eq!(scratch.take_breakdown(summary), breakdown);
        }
    }

    #[test]
    fn evaluate_batch_into_matches_scalar_path() {
        let m = model();
        let s = space(&m);
        let mut rng = StdRng::seed_from_u64(77);
        let mappings: Vec<Mapping> = (0..16).map(|_| s.random_mapping(&mut rng)).collect();
        let mut scratch = EvalScratch::new();
        let mut batch = BatchCosts::new();
        m.evaluate_batch_into(&mut scratch, &mappings, &mut batch);
        assert_eq!(batch.len(), mappings.len());
        for (i, mapping) in mappings.iter().enumerate() {
            let baseline = m.evaluate(mapping);
            assert_eq!(
                batch.total_energy_pj[i].to_bits(),
                baseline.total_energy_pj.to_bits()
            );
            assert_eq!(batch.cycles[i].to_bits(), baseline.cycles.to_bits());
            assert_eq!(
                batch.utilization[i].to_bits(),
                baseline.utilization.to_bits()
            );
            assert_eq!(batch.edp[i].to_bits(), baseline.edp.to_bits());
            assert_eq!(
                batch.last_level_accesses[i],
                baseline.accesses.total_at(Level::Dram)
            );
        }
        // Reusing the same BatchCosts must clear stale columns.
        m.evaluate_batch_into(&mut scratch, &mappings[..3], &mut batch);
        assert_eq!(batch.len(), 3);
    }

    #[test]
    fn zero_throughput_architecture_gets_worst_case_cost() {
        // An accelerator with PEs that retire zero MACs per cycle can never
        // finish any workload: the cost model must report an explicit
        // worst-case cost, not a silently clamped finite one.
        let mut arch = Architecture::example();
        arch.macs_per_pe_per_cycle = 0;
        let m = CostModel::new(arch, ProblemSpec::conv1d(128, 7));
        let cost = m.evaluate(&Mapping::minimal(m.problem()));
        assert!(cost.cycles.is_infinite());
        assert_eq!(cost.utilization, 0.0);
        assert!(cost.edp.is_infinite());
        // Energy accounting is still well-defined.
        assert!(cost.total_energy_pj.is_finite() && cost.total_energy_pj > 0.0);
    }

    #[test]
    fn meta_statistics_handles_degenerate_breakdowns() {
        // An empty breakdown (no levels at all) must not panic.
        let empty = CostBreakdown::default();
        let stats = empty.meta_statistics();
        assert_eq!(stats.len(), 3);
        // Ragged rows (levels with differing tensor counts) must count every
        // cell, not assume row 0's width times the row count.
        let ragged = CostBreakdown {
            energy_pj: vec![vec![1.0, 2.0, 3.0], vec![4.0], vec![]],
            compute_energy_pj: 5.0,
            total_energy_pj: 15.0,
            cycles: 10.0,
            utilization: 0.5,
            edp: 1.5e-10,
            accesses: AccessCounts::default(),
        };
        let stats = ragged.meta_statistics();
        assert_eq!(stats.len(), 4 + 3);
    }
}
