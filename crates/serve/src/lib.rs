//! # mm-serve
//!
//! A multi-tenant whole-network mapping service over a shared evaluation
//! pool: the "map this whole model" layer of the Mind Mappings reproduction.
//!
//! The paper searches one layer at a time; production workloads are whole
//! networks whose layers repeat shapes heavily, submitted by many
//! concurrent callers. `mm-serve` accepts [`Network`](mm_workloads::Network)
//! requests (ordered named layers with repeat counts — e.g.
//! [`table1_network`](mm_workloads::table1_network)), plans one search job
//! per *distinct* layer shape, and multiplexes the jobs of every in-flight
//! request over one long-lived [`EvalPool`](mm_mapper::EvalPool):
//!
//! * [`MappingService`] — the front-end:
//!   [`submit`](MappingService::submit) admits a network under a
//!   [`RequestConfig`] through a bounded queue (typed [`AdmissionError`],
//!   optional per-tenant budgets) and returns a [`RequestHandle`];
//!   [`wait`](MappingService::wait) collects that request's
//!   [`NetworkReport`]. [`map_network`](MappingService::map_network) remains
//!   as synchronous sugar over submit + wait;
//! * a deterministic weighted fair-share scheduler: per-layer jobs of
//!   concurrent requests interleave on the shared pool proportionally to
//!   request priority, so pool threads are spawned once per service — not
//!   once per request — and never idle while any job has budget;
//! * a result cache keyed by a `(problem, architecture, search-config)`
//!   fingerprint: repeated layers are mapped once and replayed, within a
//!   request, across requests, and across tenants — and concurrent requests
//!   needing the same shape share one in-flight search;
//! * request-scoped failure isolation: a panicking evaluator fails only the
//!   requests attached to the panicking search ([`RequestError`]); pool
//!   workers survive and sibling requests complete byte-identically;
//! * a batched evaluation path: the pool hands whole proposal batches to
//!   [`CostEvaluator::evaluate_batch`](mm_mapper::CostEvaluator::evaluate_batch),
//!   which [`SurrogateEvaluator`] answers with a **single** forward pass of
//!   the surrogate MLP per batch.
//!
//! # Determinism
//!
//! Same seed + same network ⇒ the same report, byte for byte
//! ([`NetworkReport::canonical_string`]), independent of worker count,
//! concurrency, scheduling, machine speed — and of *sibling requests*: a
//! request's canonical report is unchanged by how many other requests are
//! in flight or how submissions interleave. Each layer's RNG stream is
//! derived from the request seed and the layer's fingerprint — not its
//! position — so cache replay and cross-request sharing return exactly what
//! a fresh search would.
//!
//! ```
//! use mm_serve::{MappingService, RequestConfig, ServiceConfig};
//! use mm_workloads::Network;
//! use mm_mapspace::ProblemSpec;
//! use mm_accel::Architecture;
//!
//! let net = Network::new("tiny")
//!     .with_layer("conv_a", ProblemSpec::conv1d(128, 3), 2)
//!     .with_layer("conv_b", ProblemSpec::conv1d(256, 5), 1)
//!     .with_layer("conv_a_again", ProblemSpec::conv1d(128, 3), 1);
//!
//! let mut service = MappingService::new(Architecture::example(), ServiceConfig::default());
//! let handle = service
//!     .submit(&net, RequestConfig::default().with_search_size(64))
//!     .expect("queue has room");
//! let report = service.wait(handle).expect("no evaluator panics");
//!
//! assert_eq!(report.layers.len(), 3);
//! assert_eq!(report.unique_searches, 2); // conv_a's shape is searched once
//! assert_eq!(report.cache_hits, 1);
//! assert_eq!(report.total_evaluations, 128);
//! assert!(report.aggregate.total_edp_js.unwrap() > 0.0);
//! ```

pub mod cache;
pub mod config;
pub mod eval;
pub mod report;
pub mod request;
mod scheduler;
pub mod service;

pub use cache::{fingerprint_parts, CacheStats, CachedLayer};
pub use config::{RequestConfig, ServiceConfig, ServiceProfile};
// Re-exported so serve callers can configure `RequestConfig::sync` without
// depending on mm-search directly.
pub use eval::SurrogateEvaluator;
pub use mm_search::{SyncAction, SyncPolicy};
pub use report::{LayerReport, NetworkAggregate, NetworkReport};
pub use request::{AdmissionError, RequestError, RequestHandle};
pub use service::{EvaluatorFactory, MappingService, SearchFactory, ServeStats};
