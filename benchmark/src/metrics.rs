//! The benchmark's vocabulary: workloads, metrics, units, directions, bounds.
//!
//! One table, read by the run (what to print), by `compare` (how to judge)
//! and by a test that holds `BENCHMARK.json` to it.

use Better::{Higher, Lower};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Higher,
    Lower,
}

impl Better {
    pub fn word(self) -> &'static str {
        match self {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median by which the metric may worsen before
    /// `compare` calls it a regression. End-to-end metrics only.
    pub bound: Option<f64>,
    /// A function of the seed alone: two runs of one commit with one seed
    /// must agree to the bit, whatever the machine does.
    pub exact: bool,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> Metric {
    Metric {
        name,
        unit,
        better,
        bound: Some(bound),
        exact: false,
    }
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> Metric {
    Metric {
        name,
        unit,
        better,
        bound: None,
        exact: false,
    }
}

const fn exact(mut m: Metric) -> Metric {
    m.exact = true;
    m
}

/// `(name, why)` of the five workloads.
pub const WORKLOADS: [(&str, &str); 5] = [
    (
        "layer_search",
        "Mapper::run with Random, SA and GA on the 8 Table-1 problems: kernel, proposals, searchers and mapper loop do all the work; pool, service and networks none",
    ),
    (
        "serve_batch",
        "one MappingService, Random searcher, 4 closed-loop tenants, distinct seeds: whole batches per pool job, the throughput-bound dispatch path",
    ),
    (
        "serve_seq",
        "same service and loop with SA, one evaluation per pool round trip: the same scheduler and pool latency-bound, the kernel a small share of the time",
    ),
    (
        "serve_reuse",
        "warm bounded cache, Zipf-popular catalog, one request in five novel: admission, fingerprints, cache and report assembly do the work, the median request is a replay",
    ),
    (
        "gradient_search",
        "the paper's method: surrogates trained in set-up, search_with_budget timed; mm-nn and mm-core dominate and the analytic kernel is idle",
    ),
];

/// What a user of the system sees. Every workload reports every one.
pub const END_TO_END: [Metric; 8] = [
    e2e("setup_s", "s", Lower, 0.25),
    e2e("evals_per_s", "1/s", Higher, 0.12),
    e2e("requests_per_s", "1/s", Higher, 0.12),
    e2e("request_s_p50", "s", Lower, 0.12),
    e2e("request_s_p90", "s", Lower, 0.15),
    e2e("ttq_s_p50", "s", Lower, 0.25),
    exact(e2e("best_edp_norm", "ratio", Lower, 0.25)),
    e2e("peak_rss_mb", "MB", Lower, 0.12),
];

/// The per-layer metric names, spelled once: a workload that measures a
/// metric names it through these, so a slip is a compile error and not a
/// silent 0.
pub mod name {
    pub const ACCEL_EVALUATE_NS: &str = "accel.evaluate_ns";
    pub const ACCEL_EVALUATE_BATCH_NS: &str = "accel.evaluate_batch_ns";
    pub const ACCEL_BUSY_S: &str = "accel.busy_s";
    pub const ACCEL_EVALS: &str = "accel.evals";
    pub const ACCEL_BUSY_SHARE: &str = "accel.busy_share";
    pub const MAPSPACE_RANDOM_INTO_NS: &str = "mapspace.random_into_ns";
    pub const MAPSPACE_NEIGHBOR_INTO_NS: &str = "mapspace.neighbor_into_ns";
    pub const MAPSPACE_CROSSOVER_INTO_NS: &str = "mapspace.crossover_into_ns";
    pub const MAPSPACE_VALIDATE_NS: &str = "mapspace.validate_ns";
    pub const MAPSPACE_PROJECT_NS: &str = "mapspace.project_ns";
    pub const MAPSPACE_SHARD_RANDOM_INTO_NS: &str = "mapspace.shard_random_into_ns";
    pub const SEARCH_RANDOM_EVALS_PER_S: &str = "search.random.evals_per_s";
    pub const SEARCH_SA_EVALS_PER_S: &str = "search.sa.evals_per_s";
    pub const SEARCH_GA_EVALS_PER_S: &str = "search.ga.evals_per_s";
    pub const SEARCH_PROPOSE_BUSY_S: &str = "search.propose_busy_s";
    pub const SEARCH_REPORT_BUSY_S: &str = "search.report_busy_s";
    pub const SEARCH_PROPOSALS: &str = "search.proposals";
    pub const SEARCH_PROPOSE_BATCH_MEAN: &str = "search.propose_batch_mean";
    pub const SEARCH_DRIVE_EVALS_PER_S: &str = "search.drive_evals_per_s";
    pub const SEARCH_RL_STEP_US: &str = "search.rl.step_us";
    pub const SEARCH_TTQ_EVALS_P50: &str = "search.ttq_evals_p50";
    pub const SEARCH_TTQ_UNREACHED: &str = "search.ttq_unreached";
    pub const MAPPER_SELF_S: &str = "mapper.self_s";
    pub const MAPPER_REL_DRIVE: &str = "mapper.rel_drive";
    pub const MAPPER_EVAL_BATCH_MEAN: &str = "mapper.eval_batch_mean";
    pub const MAPPER_POOL_SINGLE_NS: &str = "mapper.pool_single_ns";
    pub const MAPPER_POOL_BATCH_NS: &str = "mapper.pool_batch_ns";
    pub const MAPPER_SHARDED_REL_THROUGHPUT: &str = "mapper.sharded_rel_throughput";
    pub const MAPPER_SHARDED_EDP_RATIO: &str = "mapper.sharded_edp_ratio";
    pub const SERVE_REL_MAPPER: &str = "serve.rel_mapper";
    pub const SERVE_CPU_NS_PER_EVAL: &str = "serve.cpu_ns_per_eval";
    pub const SERVE_SYS_SHARE: &str = "serve.sys_share";
    pub const SERVE_FAIR_SPREAD: &str = "serve.fair_spread";
    pub const SERVE_SUBMIT_US_P50: &str = "serve.submit_us_p50";
    pub const SERVE_REPLAY_US_P50: &str = "serve.replay_us_p50";
    pub const SERVE_HIT_RATIO: &str = "serve.hit_ratio";
    pub const SERVE_EVICTIONS: &str = "serve.evictions";
    pub const SERVE_SHARED_SEARCHES: &str = "serve.shared_searches";
    pub const SERVE_REJECTED: &str = "serve.rejected";
    pub const CORE_STEP_US: &str = "core.step_us";
    pub const CORE_GRADIENT_US: &str = "core.gradient_us";
    pub const CORE_ENCODE_US: &str = "core.encode_us";
    pub const CORE_DATASET_GEN_S: &str = "core.dataset_gen_s";
    pub const CORE_TRAIN_S: &str = "core.train_s";
    pub const CORE_SURROGATE_SPEARMAN: &str = "core.surrogate_spearman";
    pub const CORE_MM_VS_SA_ISO_ITER: &str = "core.mm_vs_sa_iso_iter";
    pub const NN_FORWARD_BATCH_NS: &str = "nn.forward_batch_ns";
    pub const NN_INPUT_GRADIENT_US: &str = "nn.input_gradient_us";
    pub const NN_TRAIN_EPOCH_S: &str = "nn.train_epoch_s";
    pub const TELEMETRY_SPANS_REL_THROUGHPUT: &str = "telemetry.spans_rel_throughput";
    pub const BENCH_TRACE_OVERHEAD: &str = "bench.trace_overhead";
}

/// One layer each; layer = crate. A traced run reports every one; a layer
/// the workload never enters reads 0.
pub const PER_LAYER: [Metric; 51] = [
    // mm-accel
    layer(name::ACCEL_EVALUATE_NS, "ns", Lower),
    layer(name::ACCEL_EVALUATE_BATCH_NS, "ns", Lower),
    layer(name::ACCEL_BUSY_S, "s", Lower),
    exact(layer(name::ACCEL_EVALS, "count", Lower)),
    layer(name::ACCEL_BUSY_SHARE, "ratio", Lower),
    // mm-mapspace
    layer(name::MAPSPACE_RANDOM_INTO_NS, "ns", Lower),
    layer(name::MAPSPACE_NEIGHBOR_INTO_NS, "ns", Lower),
    layer(name::MAPSPACE_CROSSOVER_INTO_NS, "ns", Lower),
    layer(name::MAPSPACE_VALIDATE_NS, "ns", Lower),
    layer(name::MAPSPACE_PROJECT_NS, "ns", Lower),
    layer(name::MAPSPACE_SHARD_RANDOM_INTO_NS, "ns", Lower),
    // mm-search
    layer(name::SEARCH_RANDOM_EVALS_PER_S, "1/s", Higher),
    layer(name::SEARCH_SA_EVALS_PER_S, "1/s", Higher),
    layer(name::SEARCH_GA_EVALS_PER_S, "1/s", Higher),
    layer(name::SEARCH_PROPOSE_BUSY_S, "s", Lower),
    layer(name::SEARCH_REPORT_BUSY_S, "s", Lower),
    exact(layer(name::SEARCH_PROPOSALS, "count", Lower)),
    layer(name::SEARCH_PROPOSE_BATCH_MEAN, "count", Higher),
    layer(name::SEARCH_DRIVE_EVALS_PER_S, "1/s", Higher),
    layer(name::SEARCH_RL_STEP_US, "us", Lower),
    exact(layer(name::SEARCH_TTQ_EVALS_P50, "count", Lower)),
    exact(layer(name::SEARCH_TTQ_UNREACHED, "count", Lower)),
    // mm-mapper
    layer(name::MAPPER_SELF_S, "s", Lower),
    layer(name::MAPPER_REL_DRIVE, "ratio", Higher),
    layer(name::MAPPER_EVAL_BATCH_MEAN, "count", Higher),
    layer(name::MAPPER_POOL_SINGLE_NS, "ns", Lower),
    layer(name::MAPPER_POOL_BATCH_NS, "ns", Lower),
    layer(name::MAPPER_SHARDED_REL_THROUGHPUT, "ratio", Higher),
    exact(layer(name::MAPPER_SHARDED_EDP_RATIO, "ratio", Lower)),
    // mm-serve
    layer(name::SERVE_REL_MAPPER, "ratio", Higher),
    layer(name::SERVE_CPU_NS_PER_EVAL, "ns", Lower),
    layer(name::SERVE_SYS_SHARE, "ratio", Lower),
    layer(name::SERVE_FAIR_SPREAD, "ratio", Lower),
    layer(name::SERVE_SUBMIT_US_P50, "us", Lower),
    layer(name::SERVE_REPLAY_US_P50, "us", Lower),
    exact(layer(name::SERVE_HIT_RATIO, "ratio", Higher)),
    exact(layer(name::SERVE_EVICTIONS, "count", Lower)),
    layer(name::SERVE_SHARED_SEARCHES, "count", Higher),
    exact(layer(name::SERVE_REJECTED, "count", Lower)),
    // mm-core
    layer(name::CORE_STEP_US, "us", Lower),
    layer(name::CORE_GRADIENT_US, "us", Lower),
    layer(name::CORE_ENCODE_US, "us", Lower),
    layer(name::CORE_DATASET_GEN_S, "s", Lower),
    layer(name::CORE_TRAIN_S, "s", Lower),
    exact(layer(name::CORE_SURROGATE_SPEARMAN, "ratio", Higher)),
    exact(layer(name::CORE_MM_VS_SA_ISO_ITER, "ratio", Lower)),
    // mm-nn
    layer(name::NN_FORWARD_BATCH_NS, "ns", Lower),
    layer(name::NN_INPUT_GRADIENT_US, "us", Lower),
    layer(name::NN_TRAIN_EPOCH_S, "s", Lower),
    // mm-telemetry
    layer(name::TELEMETRY_SPANS_REL_THROUGHPUT, "ratio", Higher),
    // the benchmark itself
    layer(name::BENCH_TRACE_OVERHEAD, "ratio", Lower),
];

/// The metric called `name`, end-to-end or per-layer.
pub fn find(name: &str) -> Option<&'static Metric> {
    END_TO_END.iter().chain(&PER_LAYER).find(|m| m.name == name)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::{parse, Value};

    fn charset_ok(s: &str, extra: &str, max: usize) -> bool {
        !s.is_empty()
            && s.len() <= max
            && s.chars()
                .all(|c| c.is_ascii_alphanumeric() || extra.contains(c))
    }

    #[test]
    fn names_and_units_stay_inside_the_contract_charset() {
        let mut names: Vec<&str> = Vec::new();
        for m in END_TO_END.iter().chain(&PER_LAYER) {
            assert!(charset_ok(m.name, "_.-", 64), "name {:?}", m.name);
            assert!(m.name.starts_with(|c: char| c.is_ascii_alphanumeric()));
            assert!(charset_ok(m.unit, "_/%.-", 16), "unit {:?}", m.unit);
            names.push(m.name);
        }
        for (name, why) in WORKLOADS {
            assert!(charset_ok(name, "_.-", 64), "workload {name:?}");
            assert!(
                why.len() <= 200 && !why.contains('\n'),
                "{name}: why is one short line"
            );
            names.push(name);
        }
        let total = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), total, "every name is used once");
    }

    #[test]
    fn bounds_follow_the_contract() {
        for m in &END_TO_END {
            let bound = m.bound.unwrap();
            assert!(bound > 0.0 && bound <= 0.25, "{}: {bound}", m.name);
        }
        let setup = find("setup_s").unwrap();
        assert_eq!((setup.unit, setup.better), ("s", Lower));
        let widest = END_TO_END
            .iter()
            .filter_map(|m| m.bound)
            .fold(0.0, f64::max);
        assert_eq!(setup.bound, Some(widest), "set-up gets the largest bound");
        assert!(PER_LAYER.iter().all(|m| m.bound.is_none()));
        assert!(find("no.such.metric").is_none());
    }

    /// `BENCHMARK.json` at the repo root is what the driver reads; it must
    /// say what this table says.
    #[test]
    fn benchmark_json_matches_this_table() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let doc = parse(&std::fs::read_to_string(path).expect(path)).unwrap();
        let keys: Vec<&str> = doc
            .as_obj()
            .unwrap()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(
            keys,
            [
                "command",
                "paths",
                "run_seconds",
                "workloads",
                "end_to_end",
                "per_layer"
            ]
        );
        let list = |key: &str| match doc.get(key) {
            Some(Value::Arr(items)) => items.clone(),
            other => panic!("{key}: {other:?}"),
        };
        let field = |v: &Value, k: &str| v.get(k).and_then(Value::as_str).unwrap().to_string();

        let workloads = list("workloads");
        assert_eq!(workloads.len(), WORKLOADS.len());
        for (v, (name, why)) in workloads.iter().zip(WORKLOADS) {
            assert_eq!(v.as_obj().unwrap().len(), 2);
            assert_eq!(
                (field(v, "name"), field(v, "why")),
                (name.to_string(), why.to_string())
            );
        }
        let end_to_end = list("end_to_end");
        assert_eq!(end_to_end.len(), END_TO_END.len());
        for (v, m) in end_to_end.iter().zip(&END_TO_END) {
            assert_eq!(v.as_obj().unwrap().len(), 4);
            assert_eq!(field(v, "name"), m.name);
            assert_eq!(field(v, "unit"), m.unit);
            assert_eq!(field(v, "better"), m.better.word());
            assert_eq!(v.get("bound").and_then(Value::as_f64), m.bound);
        }
        let per_layer = list("per_layer");
        assert_eq!(per_layer.len(), PER_LAYER.len());
        for (v, m) in per_layer.iter().zip(&PER_LAYER) {
            assert_eq!(v.as_obj().unwrap().len(), 3);
            assert_eq!(field(v, "name"), m.name);
            assert_eq!(field(v, "unit"), m.unit);
            assert_eq!(field(v, "better"), m.better.word());
        }
        let seconds = doc.get("run_seconds").and_then(Value::as_f64).unwrap();
        assert!(seconds.fract() == 0.0 && (1.0..=60.0).contains(&seconds));
        assert_eq!(list("paths"), [Value::str("benchmark")]);
    }
}
