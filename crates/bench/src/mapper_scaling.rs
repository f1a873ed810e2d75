//! Threads-vs-throughput comparison for the parallel mapper: measure
//! evaluations/second of the classic single-threaded `drive` loop, then
//! of [`Mapper`] runs at increasing thread counts, under iso-per-thread
//! evaluation budgets.
//!
//! The headline question — "does a 4-thread `Mapper` evaluate ≥ 2× as many
//! mappings per second as the single-threaded loop?" — only has a chance of
//! a *yes* on hardware with ≥ 2 usable cores; the result records
//! `available_parallelism` so consumers can interpret the numbers honestly.

use std::sync::Arc;

use mm_accel::CostModel;
use mm_mapper::{EvaluatorObjective, Mapper, MapperConfig, ModelEvaluator, TerminationPolicy};
use mm_mapspace::MapSpace;
use mm_search::{drive, Budget, RandomSearch};
use rand::rngs::StdRng;
use rand::SeedableRng;
use serde::{Deserialize, Serialize};

use crate::report::{write_bench_json, Stopwatch};

/// Throughput of one mapper configuration.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ScalingPoint {
    /// Mapper thread count.
    pub threads: usize,
    /// Evaluations performed (threads × per-thread budget).
    pub total_evaluations: u64,
    /// Wall-clock seconds.
    pub wall_time_s: f64,
    /// Aggregate evaluations per second.
    pub evals_per_sec: f64,
    /// Best primary-metric cost found.
    pub best_cost: f64,
    /// Throughput relative to the single-threaded `drive` baseline.
    pub speedup_vs_baseline: f64,
}

/// The full threads-vs-throughput sweep.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MapperScalingResult {
    /// Problem name.
    pub problem: String,
    /// Evaluations given to each thread at every point (iso-per-thread).
    pub evals_per_thread: u64,
    /// Evaluations/second of the classic single-threaded `drive` loop.
    pub baseline_evals_per_sec: f64,
    /// `std::thread::available_parallelism()` on the measuring machine.
    pub available_parallelism: usize,
    /// Mapper throughput with journal-level telemetry relative to telemetry
    /// off — 1.0 = free, 0.98 = 2 % overhead (see
    /// [`measure_telemetry_overhead`]). `None` when not measured.
    pub telemetry_rel_throughput: Option<f64>,
    /// Mapper throughput with span tracing (`spans` level) relative to
    /// telemetry off — the cost of the full tracing pillar. `None` when not
    /// measured.
    pub telemetry_spans_rel_throughput: Option<f64>,
    /// One entry per measured thread count.
    pub points: Vec<ScalingPoint>,
}

impl MapperScalingResult {
    /// The point measured at `threads`, if any.
    pub fn at_threads(&self, threads: usize) -> Option<&ScalingPoint> {
        self.points.iter().find(|p| p.threads == threads)
    }

    /// Serialize as the `BENCH_mapper.json` document.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\n");
        out.push_str("  \"bench\": \"mapper_throughput\",\n");
        out.push_str(&format!("  \"problem\": {:?},\n", self.problem));
        out.push_str(&format!(
            "  \"evals_per_thread\": {},\n",
            self.evals_per_thread
        ));
        out.push_str(&format!(
            "  \"baseline_single_thread_searcher_evals_per_sec\": {:.3},\n",
            self.baseline_evals_per_sec
        ));
        out.push_str(&format!(
            "  \"available_parallelism\": {},\n",
            self.available_parallelism
        ));
        if let Some(rel) = self.telemetry_rel_throughput {
            out.push_str(&format!("  \"telemetry_rel_throughput\": {rel:.4},\n"));
        }
        if let Some(rel) = self.telemetry_spans_rel_throughput {
            out.push_str(&format!(
                "  \"telemetry_spans_rel_throughput\": {rel:.4},\n"
            ));
        }
        out.push_str("  \"points\": [\n");
        for (i, p) in self.points.iter().enumerate() {
            out.push_str(&format!(
                "    {{\"threads\": {}, \"total_evaluations\": {}, \"wall_time_s\": {:.6}, \
                 \"evals_per_sec\": {:.3}, \"best_cost\": {:.6e}, \"speedup_vs_baseline\": {:.3}}}{}\n",
                p.threads,
                p.total_evaluations,
                p.wall_time_s,
                p.evals_per_sec,
                p.best_cost,
                p.speedup_vs_baseline,
                if i + 1 < self.points.len() { "," } else { "" }
            ));
        }
        out.push_str("  ]\n}\n");
        out
    }

    /// Write `BENCH_mapper.json` under the results directory (plus a
    /// telemetry sibling when collection is on), returning the path.
    ///
    /// # Errors
    ///
    /// Returns any I/O error from creating the directory or file.
    pub fn write_json(&self) -> std::io::Result<std::path::PathBuf> {
        write_bench_json("BENCH_mapper.json", &self.to_json())
    }
}

/// Run the sweep: random search over `problem`'s map space, measuring the
/// single-threaded `drive` loop first and then a [`Mapper`] at each of
/// `thread_counts`, giving every thread `evals_per_thread` evaluations.
pub fn run_mapper_scaling(
    model: &CostModel,
    space: &MapSpace,
    thread_counts: &[usize],
    evals_per_thread: u64,
    seed: u64,
) -> MapperScalingResult {
    let evaluator: Arc<dyn mm_mapper::CostEvaluator> = Arc::new(ModelEvaluator::edp(model.clone()));

    // Baseline: the classic single-threaded `drive` loop.
    let mut objective = EvaluatorObjective::new(Arc::clone(&evaluator));
    let mut rng = StdRng::seed_from_u64(seed);
    let watch = Stopwatch::start();
    let trace = drive(
        &mut RandomSearch::new(),
        space,
        &mut objective,
        Budget::iterations(evals_per_thread),
        &mut rng,
    );
    let baseline_evals_per_sec = watch.rate(trace.len() as u64);

    let points = thread_counts
        .iter()
        .map(|&threads| {
            let mapper = Mapper::new(MapperConfig {
                threads,
                seed,
                termination: TerminationPolicy::search_size(evals_per_thread * threads as u64),
                ..MapperConfig::default()
            });
            let report = mapper.run(space, Arc::clone(&evaluator), |_| {
                Box::new(RandomSearch::new())
            });
            ScalingPoint {
                threads,
                total_evaluations: report.total_evaluations,
                wall_time_s: report.wall_time_s,
                evals_per_sec: report.evals_per_sec,
                best_cost: report.best_cost(),
                speedup_vs_baseline: if baseline_evals_per_sec > 0.0 {
                    report.evals_per_sec / baseline_evals_per_sec
                } else {
                    0.0
                },
            }
        })
        .collect();

    MapperScalingResult {
        problem: space.problem().name.clone(),
        evals_per_thread,
        baseline_evals_per_sec,
        available_parallelism: std::thread::available_parallelism().map_or(1, |n| n.get()),
        telemetry_rel_throughput: None,
        telemetry_spans_rel_throughput: None,
        points,
    }
}

/// A/B overhead of the telemetry layer: mapper evaluations/second with
/// collection at `level` relative to telemetry off, as the median of
/// per-pair on/off ratios over `reps` alternating off→on pairs. Pairing
/// adjacent runs makes each ratio see the same machine-load conditions, so
/// slow drift (a sibling process, frequency scaling) cancels instead of
/// landing on one side — the estimator a 2 % tolerance needs on shared
/// runners. 1.0 means free; the CI gate requires
/// ≥ `1 − MM_GATE_TELEMETRY_TOL` for the journal level (default 0.98) and
/// ≥ `1 − MM_GATE_TELEMETRY_SPANS_TOL` for the spans level (default 0.97).
///
/// Toggles the process-global telemetry level while measuring and restores
/// the previous level before returning, so call it from a bench binary —
/// not concurrently with other telemetry consumers.
pub fn measure_telemetry_overhead_at(
    model: &CostModel,
    space: &MapSpace,
    evals_per_thread: u64,
    seed: u64,
    reps: usize,
    level: mm_telemetry::Level,
) -> f64 {
    let evaluator: Arc<dyn mm_mapper::CostEvaluator> = Arc::new(ModelEvaluator::edp(model.clone()));
    let previous = mm_telemetry::level();
    let run_once = |level: mm_telemetry::Level| -> f64 {
        mm_telemetry::set_level(level);
        mm_telemetry::global().reset();
        let mapper = Mapper::new(MapperConfig {
            threads: 2,
            seed,
            termination: TerminationPolicy::search_size(evals_per_thread * 2),
            ..MapperConfig::default()
        });
        let watch = Stopwatch::start();
        let report = mapper.run(space, Arc::clone(&evaluator), |_| {
            Box::new(RandomSearch::new())
        });
        watch.rate(report.total_evaluations)
    };
    // Alternate off/on runs and ratio each adjacent pair, so machine-load
    // drift hits both sides of every ratio it lands in.
    let reps = reps.max(1);
    let mut ratios = Vec::with_capacity(reps);
    for _ in 0..reps {
        let off = run_once(mm_telemetry::Level::Off);
        let on = run_once(level);
        if off > 0.0 {
            ratios.push(on / off);
        }
    }
    mm_telemetry::set_level(previous);
    mm_telemetry::global().reset();
    if ratios.is_empty() {
        return 0.0;
    }
    ratios.sort_by(f64::total_cmp);
    ratios[ratios.len() / 2]
}

/// [`measure_telemetry_overhead_at`] at the journal level (the PR-6 A/B).
pub fn measure_telemetry_overhead(
    model: &CostModel,
    space: &MapSpace,
    evals_per_thread: u64,
    seed: u64,
    reps: usize,
) -> f64 {
    measure_telemetry_overhead_at(
        model,
        space,
        evals_per_thread,
        seed,
        reps,
        mm_telemetry::Level::Journal,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use mm_workloads::{evaluated_accelerator, table1};

    #[test]
    fn sweep_measures_and_serializes() {
        let target = table1::by_name("ResNet Conv_4").expect("table1 problem");
        let arch = evaluated_accelerator();
        let space = MapSpace::new(target.problem.clone(), arch.mapping_constraints());
        let model = CostModel::new(arch, target.problem.clone());
        let result = run_mapper_scaling(&model, &space, &[1, 2], 50, 7);

        assert_eq!(result.points.len(), 2);
        assert_eq!(result.at_threads(1).unwrap().total_evaluations, 50);
        assert_eq!(result.at_threads(2).unwrap().total_evaluations, 100);
        assert!(result.baseline_evals_per_sec > 0.0);
        assert!(result.points.iter().all(|p| p.evals_per_sec > 0.0));
        assert!(result.points.iter().all(|p| p.best_cost.is_finite()));

        let json = result.to_json();
        assert!(json.contains("\"bench\": \"mapper_throughput\""));
        assert!(json.contains("\"threads\": 2"));
        assert!(json.contains("available_parallelism"));
        assert!(
            !json.contains("telemetry_rel_throughput"),
            "unmeasured overhead must not emit a gateable key"
        );
    }

    #[test]
    fn telemetry_overhead_measures_and_serializes() {
        let _guard = crate::report::test_env_guard();
        let target = table1::by_name("ResNet Conv_4").expect("table1 problem");
        let arch = evaluated_accelerator();
        let space = MapSpace::new(target.problem.clone(), arch.mapping_constraints());
        let model = CostModel::new(arch, target.problem.clone());
        let previous = mm_telemetry::level();
        let rel = measure_telemetry_overhead(&model, &space, 60, 7, 1);
        assert!(rel > 0.0 && rel.is_finite());
        assert_eq!(mm_telemetry::level(), previous, "previous level restored");
        let rel_spans =
            measure_telemetry_overhead_at(&model, &space, 60, 7, 1, mm_telemetry::Level::Spans);
        assert!(rel_spans > 0.0 && rel_spans.is_finite());
        assert_eq!(mm_telemetry::level(), previous, "previous level restored");

        let mut result = run_mapper_scaling(&model, &space, &[1], 30, 7);
        result.telemetry_rel_throughput = Some(rel);
        result.telemetry_spans_rel_throughput = Some(rel_spans);
        let json = result.to_json();
        assert!(json.contains("\"telemetry_rel_throughput\": "));
        assert!(json.contains("\"telemetry_spans_rel_throughput\": "));
    }
}
