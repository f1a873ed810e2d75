// mm-lint: identity — RequestConfig renders the fingerprint tag; the determinism rule applies.
//! Service- and request-level knobs of a
//! [`MappingService`](crate::MappingService).
//!
//! The knobs are split along the multi-tenant boundary:
//!
//! * [`ServiceConfig`] — properties of the long-lived service itself: the
//!   shared pool size, the concurrency level, the admission-queue depth,
//!   per-tenant budgets, and the result-cache bound. Fixed at construction.
//! * [`RequestConfig`] — properties of one submitted request: search budget
//!   and seed, sharding, sync policy, cache participation, and the
//!   scheduling identity (fair-share weight and tenant). Every
//!   [`submit`](crate::MappingService::submit) carries its own.

use mm_search::SyncPolicy;
use serde::{Deserialize, Serialize};

/// Construction-time configuration of the service: everything shared by all
/// requests (the pool, the scheduler bounds, admission control, the cache).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ServiceConfig {
    /// Evaluation-pool worker threads (shared by all requests' layer jobs).
    pub workers: usize,
    /// Layer-search jobs multiplexed over the pool concurrently, across all
    /// in-flight requests.
    pub max_active_jobs: usize,
    /// Admission bound: requests admitted but not yet completed. A
    /// [`submit`](crate::MappingService::submit) beyond this depth is
    /// rejected with [`AdmissionError::QueueFull`](crate::AdmissionError).
    pub queue_depth: usize,
    /// Per-tenant admission budget: the cap on a tenant's outstanding
    /// *planned* fresh evaluations (summed over its admitted, uncompleted
    /// requests). `None` (the default) disables the check. A submit that
    /// would exceed it is rejected with
    /// [`AdmissionError::TenantBudgetExhausted`](crate::AdmissionError).
    pub tenant_budget: Option<u64>,
    /// Bound on distinct results the cache retains (`None`, the default, is
    /// unbounded). When full, the oldest-*admitted* entry is evicted
    /// (deterministic — eviction order never depends on the replay pattern
    /// or on which of several concurrent searches completed first).
    pub cache_capacity: Option<usize>,
    /// Bound on completed-but-uncollected request results retained for
    /// [`wait`](crate::MappingService::wait) (clamped to ≥ 1). Past the
    /// bound the oldest-admitted uncollected result is dropped — a later
    /// `wait` on its handle returns
    /// [`RequestError::Unknown`](crate::RequestError) — so clients that
    /// abandon handles cannot grow service state without bound.
    pub completed_capacity: usize,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        ServiceConfig {
            workers: 2,
            max_active_jobs: 2,
            queue_depth: 8,
            tenant_budget: None,
            cache_capacity: None,
            completed_capacity: 1024,
        }
    }
}

impl ServiceConfig {
    /// A config with the given pool size.
    pub fn with_workers(mut self, workers: usize) -> Self {
        self.workers = workers;
        self
    }

    /// A config with the given concurrent-job bound.
    pub fn with_max_active_jobs(mut self, max_active_jobs: usize) -> Self {
        self.max_active_jobs = max_active_jobs;
        self
    }

    /// A config with the given admission-queue depth.
    pub fn with_queue_depth(mut self, queue_depth: usize) -> Self {
        self.queue_depth = queue_depth;
        self
    }

    /// A config with the given per-tenant outstanding-evaluation budget.
    pub fn with_tenant_budget(mut self, tenant_budget: Option<u64>) -> Self {
        self.tenant_budget = tenant_budget;
        self
    }

    /// A config with the given result-cache entry bound (`None` =
    /// unbounded).
    pub fn with_cache_capacity(mut self, cache_capacity: Option<usize>) -> Self {
        self.cache_capacity = cache_capacity;
        self
    }

    /// A config with the given bound on uncollected completed results.
    pub fn with_completed_capacity(mut self, completed_capacity: usize) -> Self {
        self.completed_capacity = completed_capacity;
        self
    }
}

/// Per-request configuration: how one submitted network is searched, and
/// how its jobs compete for the shared pool.
///
/// Everything except `priority` and `tenant` participates in the
/// result-cache fingerprint (it changes what a layer search produces);
/// `priority` and `tenant` are scheduling identity only — they steer *when*
/// jobs run, never *what* they return, so reports stay byte-identical
/// across priorities, tenants, and request interleavings.
#[derive(Debug, Clone, PartialEq)]
pub struct RequestConfig {
    /// Master seed; per-layer streams are derived from it and the layer
    /// fingerprint, so a layer's result does not depend on its position.
    pub seed: u64,
    /// Evaluations spent searching each distinct layer.
    pub search_size: u64,
    /// Map-space shards per layer search: 1 (the default) searches the full
    /// space with one job; `n > 1` routes `n` jobs per distinct layer, each
    /// restricted to a pairwise-disjoint slice of the layer's map space
    /// with an exact `search_size / n` budget split, and merges their
    /// results in shard order. Clamped per layer to the space's shard
    /// capacity.
    pub shards: usize,
    /// How each layer-search job re-anchors on its incumbent best
    /// ([`SyncPolicy::Off`], the default: plain independent search). Serve
    /// sync is **job-local** — at a fixed evaluation cadence a job's own
    /// best-so-far is offered back to its searcher — so jobs stay
    /// independent, determinism is preserved, and disjoint shard jobs never
    /// contaminate each other.
    pub sync: SyncPolicy,
    /// Reuse results for repeated `(problem, arch, config)` fingerprints —
    /// across layers of one request and across requests on one service.
    pub use_cache: bool,
    /// Fair-share weight (1 = baseline, clamped to at least 1): the
    /// scheduler activates pending layer jobs so each request's share of
    /// the pool is proportional to its weight. Scheduling only — results
    /// are weight-independent.
    pub priority: u32,
    /// Tenant identity for admission budgeting and telemetry. Scheduling
    /// only — results are tenant-independent.
    pub tenant: String,
}

impl Default for RequestConfig {
    fn default() -> Self {
        RequestConfig {
            seed: 0,
            search_size: 2_000,
            shards: 1,
            sync: SyncPolicy::Off,
            use_cache: true,
            priority: 1,
            tenant: String::new(),
        }
    }
}

impl RequestConfig {
    /// A config with the given master seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// A config with the given per-layer evaluation budget.
    pub fn with_search_size(mut self, search_size: u64) -> Self {
        self.search_size = search_size;
        self
    }

    /// A config with the given per-layer map-space shard count.
    pub fn with_shards(mut self, shards: usize) -> Self {
        self.shards = shards;
        self
    }

    /// A config with the given job-local global-best sync policy.
    pub fn with_sync(mut self, sync: SyncPolicy) -> Self {
        self.sync = sync;
        self
    }

    /// A config with cache participation switched on or off.
    pub fn with_use_cache(mut self, use_cache: bool) -> Self {
        self.use_cache = use_cache;
        self
    }

    /// A config with the given fair-share weight.
    pub fn with_priority(mut self, priority: u32) -> Self {
        self.priority = priority;
        self
    }

    /// A config owned by the given tenant.
    pub fn with_tenant(mut self, tenant: impl Into<String>) -> Self {
        self.tenant = tenant.into();
        self
    }

    /// The request's portion of the fingerprint tag. `priority` and
    /// `tenant` never appear (scheduling identity must not change search
    /// results).
    ///
    /// **Byte-stable:** fingerprints seed every layer job's RNG stream, so
    /// these bytes pin cached fixtures and bench quality baselines.
    pub(crate) fn search_tag(&self) -> String {
        // The ` shard_horizon=false` suffix is what every surviving
        // configuration rendered while that knob existed; dropping it would
        // move every fingerprint and, through them, every serve result.
        format!(
            "seed={} search_size={} shards={} sync={} shard_horizon=false",
            self.seed,
            self.search_size,
            self.shards.max(1),
            self.sync.canonical_string(),
        )
    }
}

/// What [`MappingService::new`](crate::MappingService::new) consumes: the
/// service-level config plus the default [`RequestConfig`] used by the
/// legacy synchronous [`map_network`](crate::MappingService::map_network)
/// surface. Build it from a [`ServiceConfig`] (default requests) or a
/// `(ServiceConfig, RequestConfig)` pair.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct ServiceProfile {
    /// Service-level configuration.
    pub service: ServiceConfig,
    /// The default per-request configuration (legacy `map_network` calls and
    /// [`RequestConfig::default`]-based submissions).
    pub default_request: RequestConfig,
}

impl From<ServiceConfig> for ServiceProfile {
    fn from(service: ServiceConfig) -> Self {
        ServiceProfile {
            service,
            default_request: RequestConfig::default(),
        }
    }
}

impl From<(ServiceConfig, RequestConfig)> for ServiceProfile {
    fn from((service, default_request): (ServiceConfig, RequestConfig)) -> Self {
        ServiceProfile {
            service,
            default_request,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_are_sane_and_builders_compose() {
        let s = ServiceConfig::default();
        assert!(s.workers >= 1 && s.max_active_jobs >= 1 && s.queue_depth >= 1);
        assert_eq!(s.tenant_budget, None, "tenant budgets are off by default");
        assert_eq!(s.cache_capacity, None, "cache is unbounded by default");
        assert!(
            s.completed_capacity >= 1,
            "uncollected results are bounded by default"
        );
        let s = s
            .with_workers(3)
            .with_max_active_jobs(4)
            .with_queue_depth(2)
            .with_tenant_budget(Some(10_000))
            .with_cache_capacity(Some(16))
            .with_completed_capacity(5);
        assert_eq!(
            (s.workers, s.max_active_jobs, s.queue_depth),
            (3, 4, 2),
            "service builders compose"
        );
        assert_eq!(s.tenant_budget, Some(10_000));
        assert_eq!(s.cache_capacity, Some(16));
        assert_eq!(s.completed_capacity, 5);

        let r = RequestConfig::default();
        assert!(r.use_cache);
        assert_eq!(r.shards, 1, "sharding is off by default");
        assert_eq!(r.sync, SyncPolicy::Off, "sync is off by default");
        assert_eq!(r.priority, 1, "baseline fair-share weight");
        let r = r
            .with_seed(9)
            .with_search_size(64)
            .with_shards(4)
            .with_sync(SyncPolicy::Anchor)
            .with_use_cache(false)
            .with_priority(3)
            .with_tenant("team-a");
        assert_eq!((r.seed, r.search_size, r.shards), (9, 64, 4));
        assert_eq!(r.sync, SyncPolicy::Anchor);
        assert!(!r.use_cache);
        assert_eq!((r.priority, r.tenant.as_str()), (3, "team-a"));
    }

    #[test]
    fn search_tag_matches_the_legacy_byte_format() {
        // The exact legacy rendering: golden fixtures and bench quality
        // baselines pin fingerprints derived from these bytes.
        let r = RequestConfig::default().with_seed(1).with_search_size(500);
        assert_eq!(
            r.search_tag(),
            "seed=1 search_size=500 shards=1 sync=off shard_horizon=false"
        );
        let r = r.with_shards(4).with_sync(SyncPolicy::Anchor);
        assert_eq!(
            r.search_tag(),
            "seed=1 search_size=500 shards=4 sync=anchor shard_horizon=false"
        );
        let r = r.with_sync(SyncPolicy::Annealed {
            start: 0.9,
            end: 0.1,
        });
        assert_eq!(
            r.search_tag(),
            "seed=1 search_size=500 shards=4 sync=annealed(start=0.9,end=0.1) shard_horizon=false"
        );
    }

    #[test]
    fn scheduling_identity_stays_out_of_the_search_tag() {
        let base = RequestConfig::default();
        let weighted = base.clone().with_priority(7).with_tenant("team-b");
        assert_eq!(
            base.search_tag(),
            weighted.search_tag(),
            "priority/tenant steer scheduling, never results"
        );
    }
}
