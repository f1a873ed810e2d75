//! Shard-scaling measurement: best-EDP and coverage of the sharded mapper
//! across shard counts, over conv1d + the Table 1 set.
//!
//! For each shard count (1/2/4/8), every target problem gets one `Mapper`
//! run with the map space partitioned into pairwise-disjoint shards
//! (`MapSpace::shard`) and a fixed total evaluation budget. The JSON
//! (`BENCH_shard.json`) records per point:
//!
//! * **best EDP** (geometric mean over the problem set) — does disjoint
//!   coverage help or hurt solution quality at iso-budget?
//! * **coverage** — how many distinct L2 loop orders the per-shard best
//!   mappings span (one restricted axis; 1 shard explores orders freely but
//!   reports a single best, `n` disjoint shards are *guaranteed* `≥ 1`
//!   distinct best region each);
//! * wall time and total evaluations.

use std::sync::Arc;

use mm_accel::CostModel;
use mm_mapper::{CostEvaluator, Mapper, MapperConfig, ModelEvaluator, TerminationPolicy};
use mm_mapspace::{MapSpace, ProblemSpec};
use mm_search::SimulatedAnnealing;
use mm_workloads::{evaluated_accelerator, table1};

use crate::report::{write_bench_json, Stopwatch};

/// One measured shard count.
#[derive(Debug, Clone)]
pub struct ShardBenchPoint {
    /// Number of pairwise-disjoint map-space shards.
    pub shards: usize,
    /// Geometric-mean best EDP (J·s) over the problem set.
    pub geomean_best_edp: f64,
    /// Σ distinct L2 loop orders among per-shard best mappings, over the
    /// problem set (coverage of the sharded axis).
    pub distinct_best_l2_orders: usize,
    /// Σ evaluations across all runs of this configuration.
    pub total_evaluations: u64,
    /// Σ wall seconds across all runs of this configuration.
    pub wall_s: f64,
}

/// The shard-scaling measurement set.
#[derive(Debug, Clone)]
pub struct ShardBenchResult {
    /// Problems measured (conv1d + the Table 1 rows).
    pub problems: Vec<String>,
    /// Evaluation budget per problem per configuration.
    pub evals_per_problem: u64,
    /// Worker threads executing the shards.
    pub threads: usize,
    /// `std::thread::available_parallelism()` on the measuring machine.
    pub available_parallelism: usize,
    /// One point per shard count.
    pub points: Vec<ShardBenchPoint>,
}

impl ShardBenchResult {
    /// Serialize as the `BENCH_shard.json` document.
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        out.push_str(&crate::output::bench_json_header(
            "shard_scaling",
            &self.problems,
            self.evals_per_problem,
            self.threads,
            self.available_parallelism,
        ));
        for (i, p) in self.points.iter().enumerate() {
            // The bench gate keys a point by (`shards`, `schedule`, `axes`);
            // the two constant columns keep each row's key, and with it its
            // baseline, stable.
            out.push_str(&format!(
                "    {{\"shards\": {}, \"schedule\": \"deterministic\", \"axes\": \"full\", \
                 \"geomean_best_edp\": {:.6e}, \
                 \"distinct_best_l2_orders\": {}, \"total_evaluations\": {}, \
                 \"wall_s\": {:.6}}}{}\n",
                p.shards,
                p.geomean_best_edp,
                p.distinct_best_l2_orders,
                p.total_evaluations,
                p.wall_s,
                if i + 1 < self.points.len() { "," } else { "" }
            ));
        }
        out.push_str("  ]\n}\n");
        out
    }

    /// Write `BENCH_shard.json` under the results directory (plus a
    /// telemetry sibling when collection is on), returning the path.
    ///
    /// # Errors
    ///
    /// Returns any I/O error from creating the directory or file.
    pub fn write_json(&self) -> std::io::Result<std::path::PathBuf> {
        write_bench_json("BENCH_shard.json", &self.to_json())
    }
}

/// The measured problem set: the toy conv1d plus every Table 1 row.
fn problem_set() -> Vec<ProblemSpec> {
    let mut problems = vec![ProblemSpec::conv1d(1024, 7)];
    problems.extend(table1::all_problems().into_iter().map(|t| t.problem));
    problems
}

/// Run the shard-scaling sweep: shard counts 1/2/4/8, `evals` evaluations
/// per problem per point.
pub fn run_shard_bench(evals: u64, threads: usize, seed: u64) -> ShardBenchResult {
    let arch = evaluated_accelerator();
    let problems = problem_set();

    let mut points = Vec::new();
    for shards in [1usize, 2, 4, 8] {
        let mut log_sum = 0.0f64;
        let mut counted = 0usize;
        let mut distinct_orders = 0usize;
        let mut total_evaluations = 0u64;
        let watch = Stopwatch::start();
        for problem in &problems {
            let space = MapSpace::new(problem.clone(), arch.mapping_constraints());
            let evaluator: Arc<dyn CostEvaluator> = Arc::new(ModelEvaluator::edp(CostModel::new(
                arch.clone(),
                problem.clone(),
            )));
            let mapper = Mapper::new(MapperConfig {
                threads,
                shards: Some(shards),
                shard_space: shards > 1,
                seed,
                termination: TerminationPolicy::search_size(evals),
                ..MapperConfig::default()
            });
            let report = mapper.run(&space, evaluator, |_| {
                Box::new(SimulatedAnnealing::default())
            });
            total_evaluations += report.total_evaluations;
            let best = report.best_cost();
            if best.is_finite() && best > 0.0 {
                log_sum += best.ln();
                counted += 1;
            }
            let mut orders: Vec<&Vec<usize>> = report
                .shards
                .iter()
                .filter_map(|s| s.best.as_ref().map(|(m, _)| &m.loop_orders[1]))
                .collect();
            orders.sort();
            orders.dedup();
            distinct_orders += orders.len();
        }
        points.push(ShardBenchPoint {
            shards,
            geomean_best_edp: if counted > 0 {
                (log_sum / counted as f64).exp()
            } else {
                f64::INFINITY
            },
            distinct_best_l2_orders: distinct_orders,
            total_evaluations,
            wall_s: watch.elapsed_s(),
        });
    }

    ShardBenchResult {
        problems: problems.iter().map(|p| p.name.clone()).collect(),
        evals_per_problem: evals,
        threads,
        available_parallelism: std::thread::available_parallelism()
            .map(std::num::NonZeroUsize::get)
            .unwrap_or(1),
        points,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tiny_shard_bench_produces_all_points_and_valid_json() {
        let result = run_shard_bench(24, 2, 3);
        assert_eq!(result.points.len(), 4, "shard counts 1/2/4/8");
        assert_eq!(result.problems.len(), 9, "conv1d + eight Table 1 rows");
        for p in &result.points {
            assert!(p.geomean_best_edp.is_finite() && p.geomean_best_edp > 0.0);
            assert_eq!(p.total_evaluations, 24 * 9);
            assert!(p.distinct_best_l2_orders >= result.problems.len());
        }
        let json = result.to_json();
        assert!(json.contains("\"bench\": \"shard_scaling\""));
        assert!(json.contains("\"shards\": 8, \"schedule\": \"deterministic\", \"axes\": \"full\""));
        // Balanced braces/brackets as a cheap well-formedness check.
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        assert_eq!(json.matches('[').count(), json.matches(']').count());
    }
}
