//! # mm-mapper
//!
//! A parallel mapper-orchestration engine for the Mind Mappings
//! reproduction, following the architecture proven by Timeloop's mapper and
//! pytimeloop's `AcceleratorPool`: mapping *proposal* is decoupled from
//! mapping *evaluation*, so both can scale independently.
//!
//! The pieces:
//!
//! * [`CostEvaluator`] / [`ModelEvaluator`] — a thread-safe (`&self`) cost
//!   function over mappings, with a prioritized [`OptMetric`] list
//!   (`energy`, `delay`, `edp`, `last_level_accesses`) resolved against
//!   `mm-accel`'s `CostBreakdown` and compared lexicographically
//!   ([`Evaluation`]);
//! * [`EvalPool`] — a `std::thread` worker pool evaluating batches of
//!   mappings concurrently over channels;
//! * [`Mapper`] — the driver: partitions the search into deterministically
//!   seeded logical shards (optionally slicing the map space itself into
//!   pairwise-disjoint subspaces via `MapSpace::shard`), executes them on a
//!   worker-thread pool in rounds, exchanges the best mapping between
//!   rounds every [`MapperConfig::sync_interval`] evaluations under a
//!   configurable [`SyncPolicy`] (never / always / with annealed
//!   probability — worker-count independent under each), and terminates on
//!   Timeloop-style [`TerminationPolicy`] knobs (`search_size`,
//!   `victory_condition`, `timeout`).
//!
//! ```
//! use std::sync::Arc;
//! use mm_accel::{Architecture, CostModel};
//! use mm_mapper::{Mapper, MapperConfig, ModelEvaluator, TerminationPolicy};
//! use mm_mapspace::{MapSpace, ProblemSpec};
//! use mm_search::RandomSearch;
//!
//! let arch = Architecture::example();
//! let problem = ProblemSpec::conv1d(256, 5);
//! let space = MapSpace::new(problem.clone(), arch.mapping_constraints());
//! let evaluator = Arc::new(ModelEvaluator::edp(CostModel::new(arch, problem)));
//!
//! let mapper = Mapper::new(MapperConfig {
//!     threads: 2,
//!     seed: 7,
//!     termination: TerminationPolicy::search_size(200),
//!     ..MapperConfig::default()
//! });
//! let report = mapper.run(&space, evaluator, |_| Box::new(RandomSearch::new()));
//! assert_eq!(report.total_evaluations, 200);
//! assert!(space.is_member(report.best_mapping.as_ref().unwrap()));
//! ```

pub mod eval;
pub mod mapper;
pub mod metrics;
pub mod policy;

pub use eval::{CostEvaluator, EvalPool, EvaluatorObjective, FnEvaluator, ModelEvaluator};
pub use mapper::{
    derive_stream_seed, keep_better, Mapper, MapperConfig, MapperReport, ShardReport,
};
pub use metrics::{Evaluation, OptMetric};
pub use policy::{split_evenly, StopReason, TerminationPolicy};
// The sync-policy vocabulary is defined next to the searchers (mm-search)
// and re-exported here because `MapperConfig::sync` is its main consumer.
pub use mm_search::{SyncAction, SyncPolicy};
