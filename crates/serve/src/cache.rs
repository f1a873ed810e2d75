//! The serve-side result cache: completed layer searches keyed by a
//! deterministic `(problem, architecture, search-config)` fingerprint.
//!
//! Real networks repeat shapes heavily (every block of a ResNet stage shares
//! one convolution shape), so the service maps each distinct fingerprint
//! once and replays the cached result for every other occurrence — within a
//! network and across `map_network` calls on a long-lived service.
//!
//! The cache keeps real statistics (hits, misses, inserts, evictions) and
//! supports an optional entry bound with **admission-ordered eviction**:
//! every insert carries the admission sequence of the search unit that
//! produced it (assigned when its request was planned, not when the search
//! finished), and the resident entry with the lowest sequence is evicted
//! first. Under the concurrent service, inserts land in unit *completion*
//! order — which varies with worker timing — but the surviving resident
//! set depends only on the admission sequence, so a fixed submit/wait call
//! sequence always leaves the same entries resident, unlike recency- or
//! completion-driven policies whose order would depend on replay patterns
//! or thread timing. (An insert admitted earlier than every resident entry
//! evicts itself immediately: the deterministic outcome of arriving late.)
//! Statistics are surfaced in `NetworkReport` and mirrored into
//! `mm-telemetry` counters.

use std::collections::{BTreeMap, HashMap};
use std::sync::{Arc, OnceLock};

use mm_mapper::{Evaluation, OptMetric, SyncPolicy};
use mm_mapspace::Mapping;
use mm_search::ConvergenceTrace;
use serde::{Deserialize, Serialize};

/// FNV-1a 64-bit over the given parts, each part's bytes followed by one
/// `0xFF` byte (a byte no UTF-8 string contains, so `["ab", "c"]` and
/// `["a", "bc"]` differ). Stable across processes — unlike `DefaultHasher`
/// — which keeps fingerprints usable as on-disk or cross-run cache keys
/// later.
///
/// A service fingerprint is this hash of two parts: the problem's `{:?}`
/// rendering, then the service identity and the request's search tag
/// concatenated — so the bytes are rendering, `0xFF`, identity, tag,
/// `0xFF`. The hash is a left-to-right fold over bytes: the service keeps
/// the state after the identity once per problem and continues it with
/// the tag, to the same `u64`.
pub fn fingerprint_parts(parts: &[&str]) -> u64 {
    const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    parts.iter().fold(OFFSET, |h, part| hash_part(h, part))
}

/// FNV-1a state `h` advanced over `bytes`.
pub(crate) fn fnv1a(h: u64, bytes: &[u8]) -> u64 {
    const PRIME: u64 = 0x0000_0100_0000_01B3;
    bytes
        .iter()
        .fold(h, |h, &b| (h ^ u64::from(b)).wrapping_mul(PRIME))
}

/// FNV-1a state `h` advanced over `part` and the closing `0xFF` byte.
pub(crate) fn hash_part(h: u64, part: &str) -> u64 {
    fnv1a(fnv1a(h, part.as_bytes()), &[0xFF])
}

/// The reusable outcome of one layer search.
#[derive(Debug, Clone, PartialEq)]
pub struct CachedLayer {
    /// Best mapping found (None only if the search evaluated nothing).
    pub best_mapping: Option<Mapping>,
    /// Metrics of the best mapping, in the evaluator's priority order.
    pub best_metrics: Option<Evaluation>,
    /// The evaluator's metric priority list.
    pub metric_names: Vec<OptMetric>,
    /// Evaluations the producing search spent.
    pub evaluations: u64,
    /// Searcher name (e.g. `"Random"`, `"SA"`).
    pub searcher: String,
    /// The job-local sync policy the producing search ran under (also part
    /// of the fingerprint that keyed this entry).
    pub sync: SyncPolicy,
    /// Wall-clock seconds of the producing search.
    pub wall_time_s: f64,
    /// Whether the searcher exhausted its proposals before the budget.
    pub exhausted: bool,
    /// Merged best-so-far convergence of the producing search (present when
    /// telemetry was enabled while it ran; replayed verbatim on cache hits).
    pub convergence: Option<ConvergenceTrace>,
}

/// Observable result-cache statistics, surfaced in `NetworkReport`.
///
/// Hits and misses count cache lookups (one per layer
/// occurrence the service checks against the cache); inserts and evictions
/// count entry turnover under the optional capacity bound.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct CacheStats {
    /// Lookups answered from the cache.
    pub hits: u64,
    /// Lookups that found nothing.
    pub misses: u64,
    /// Entries inserted (including replacements of an existing key).
    pub inserts: u64,
    /// Entries evicted to the capacity bound (lowest admission sequence
    /// first).
    pub evictions: u64,
    /// Entries resident when the stats were read.
    pub entries: u64,
    /// The configured capacity bound (`None` = unbounded).
    pub capacity: Option<u64>,
}

fn tele_cache(kind: usize) -> &'static Arc<mm_telemetry::Counter> {
    static CELLS: [OnceLock<Arc<mm_telemetry::Counter>>; 4] = [const { OnceLock::new() }; 4];
    const NAMES: [&str; 4] = [
        "serve.cache.hits",
        "serve.cache.misses",
        "serve.cache.inserts",
        "serve.cache.evictions",
    ];
    CELLS[kind].get_or_init(|| mm_telemetry::counter(NAMES[kind]))
}

/// Fingerprint-keyed store of completed layer searches, with statistics and
/// optional admission-ordered eviction.
#[derive(Default)]
pub(crate) struct ResultCache {
    map: HashMap<u64, Arc<CachedLayer>>,
    /// Resident keys by admission sequence (the eviction order: lowest
    /// sequence evicts first, regardless of the order inserts landed in).
    order: BTreeMap<u64, u64>,
    capacity: Option<usize>,
    hits: u64,
    misses: u64,
    inserts: u64,
    evictions: u64,
}

impl ResultCache {
    /// Fresh cache bounded to `capacity` entries (`None` = unbounded).
    pub fn with_capacity(capacity: Option<usize>) -> Self {
        ResultCache {
            capacity: capacity.map(|c| c.max(1)),
            ..ResultCache::default()
        }
    }

    /// Fetch without touching the statistics.
    ///
    /// Admission planning peeks first and records the lookups only once the
    /// request is accepted ([`note_lookup`](Self::note_lookup)), so a
    /// rejected submit perturbs no statistics.
    pub fn get(&self, fingerprint: u64) -> Option<Arc<CachedLayer>> {
        self.map.get(&fingerprint).cloned()
    }

    /// Record a hit or miss observed earlier via [`get`](Self::get).
    pub fn note_lookup(&mut self, fingerprint: u64, hit: bool) {
        if hit {
            self.hits += 1;
            tele_cache(0).bump(1);
            mm_telemetry::event("serve.cache.hit", || format!("fp={fingerprint:016x}"));
        } else {
            self.misses += 1;
            tele_cache(1).bump(1);
            mm_telemetry::event("serve.cache.miss", || format!("fp={fingerprint:016x}"));
        }
    }

    /// Fetch and record a hit or miss (the service uses the two-phase
    /// `get` + `note_lookup` so rejected admissions stay stats-neutral).
    #[cfg(test)]
    pub fn lookup(&mut self, fingerprint: u64) -> Option<Arc<CachedLayer>> {
        let found = self.map.get(&fingerprint).cloned();
        self.note_lookup(fingerprint, found.is_some());
        found
    }

    #[cfg(test)]
    pub fn contains(&self, fingerprint: u64) -> bool {
        self.map.contains_key(&fingerprint)
    }

    /// Insert (or replace) an entry, evicting the lowest-admission-sequence
    /// residents beyond the capacity bound.
    ///
    /// `seq` is the producing unit's admission sequence (the service passes
    /// its unit id, monotonic in planning order): eviction follows it
    /// instead of insert-arrival order, so the resident set is independent
    /// of the completion timing of concurrent units. Replacing a resident
    /// key keeps the key's original admission slot.
    pub fn insert(&mut self, fingerprint: u64, layer: Arc<CachedLayer>, seq: u64) {
        self.inserts += 1;
        tele_cache(2).bump(1);
        if self.map.insert(fingerprint, layer).is_none() {
            self.order.insert(seq, fingerprint);
        }
        if let Some(cap) = self.capacity {
            while self.map.len() > cap {
                let Some((_, oldest)) = self.order.pop_first() else {
                    break;
                };
                self.map.remove(&oldest);
                self.evictions += 1;
                tele_cache(3).bump(1);
                mm_telemetry::event("serve.cache.evict", || format!("fp={oldest:016x}"));
            }
        }
    }

    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// Point-in-time statistics (counters plus residency/capacity).
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits,
            misses: self.misses,
            inserts: self.inserts,
            evictions: self.evictions,
            entries: self.map.len() as u64,
            capacity: self.capacity.map(|c| c as u64),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn entry(evaluations: u64) -> Arc<CachedLayer> {
        Arc::new(CachedLayer {
            best_mapping: None,
            best_metrics: Some(Evaluation::scalar(1.5)),
            metric_names: vec![OptMetric::Edp],
            evaluations,
            searcher: "Random".into(),
            sync: SyncPolicy::Off,
            wall_time_s: 0.0,
            exhausted: false,
            convergence: None,
        })
    }

    #[test]
    fn fingerprints_are_stable_and_separator_aware() {
        let a = fingerprint_parts(&["problem", "arch", "cfg"]);
        assert_eq!(a, fingerprint_parts(&["problem", "arch", "cfg"]));
        assert_ne!(a, fingerprint_parts(&["problem", "archcfg"]));
        assert_ne!(
            fingerprint_parts(&["ab", "c"]),
            fingerprint_parts(&["a", "bc"])
        );
        assert_ne!(fingerprint_parts(&[]), fingerprint_parts(&[""]));
    }

    #[test]
    fn cache_round_trips() {
        let mut cache = ResultCache::default();
        let fp = fingerprint_parts(&["x"]);
        assert!(!cache.contains(fp));
        assert!(cache.get(fp).is_none());
        cache.insert(fp, entry(10), 0);
        assert!(cache.contains(fp));
        assert_eq!(cache.len(), 1);
        assert_eq!(cache.get(fp).unwrap().evaluations, 10);
    }

    #[test]
    fn lookup_counts_hits_and_misses() {
        let mut cache = ResultCache::default();
        let fp = fingerprint_parts(&["x"]);
        assert!(cache.lookup(fp).is_none());
        cache.insert(fp, entry(1), 0);
        assert!(cache.lookup(fp).is_some());
        assert!(cache.lookup(fp).is_some());
        let stats = cache.stats();
        assert_eq!(
            (stats.hits, stats.misses, stats.inserts, stats.evictions),
            (2, 1, 1, 0)
        );
        assert_eq!(stats.entries, 1);
        assert_eq!(stats.capacity, None);
        // `get`/`contains` stay statistics-neutral.
        let _ = cache.get(fp);
        let _ = cache.contains(fp);
        assert_eq!(cache.stats().hits, 2);
    }

    #[test]
    fn bounded_cache_evicts_by_admission_sequence() {
        let mut cache = ResultCache::with_capacity(Some(2));
        let fps: Vec<u64> = ["a", "b", "c"]
            .iter()
            .map(|s| fingerprint_parts(&[s]))
            .collect();
        cache.insert(fps[0], entry(0), 0);
        cache.insert(fps[1], entry(1), 1);
        // A hit on the oldest entry does not save it: eviction follows the
        // admission sequence, so the order stays deterministic under any
        // replay mix.
        assert!(cache.lookup(fps[0]).is_some());
        cache.insert(fps[2], entry(2), 2);
        assert_eq!(cache.len(), 2);
        assert!(!cache.contains(fps[0]), "oldest admission evicted first");
        assert!(cache.contains(fps[1]) && cache.contains(fps[2]));
        let stats = cache.stats();
        assert_eq!(stats.evictions, 1);
        assert_eq!(stats.capacity, Some(2));

        // Replacing a resident key neither grows the cache nor evicts, and
        // keeps the key's original admission slot.
        cache.insert(fps[1], entry(9), 7);
        assert_eq!(cache.len(), 2);
        assert_eq!(cache.stats().evictions, 1);
        assert_eq!(cache.get(fps[1]).unwrap().evaluations, 9);
        cache.insert(fps[0], entry(5), 8);
        assert!(
            !cache.contains(fps[1]),
            "the replaced key still evicts at its original (oldest) slot"
        );
    }

    #[test]
    fn eviction_is_independent_of_insert_arrival_order() {
        // Concurrent units complete — and therefore insert — in
        // timing-dependent order; the resident set must depend only on the
        // admission sequence each insert carries.
        let fps: Vec<u64> = ["a", "b", "c"]
            .iter()
            .map(|s| fingerprint_parts(&[s]))
            .collect();
        let run = |arrival: &[usize]| -> Vec<bool> {
            let mut cache = ResultCache::with_capacity(Some(2));
            for &i in arrival {
                cache.insert(fps[i], entry(i as u64), i as u64);
            }
            fps.iter().map(|fp| cache.contains(*fp)).collect()
        };
        let in_order = run(&[0, 1, 2]);
        assert_eq!(in_order, vec![false, true, true]);
        // Reversed arrival: the seq-0 insert lands last, finds the cache
        // full of younger admissions, and evicts itself — same residents.
        assert_eq!(in_order, run(&[2, 1, 0]));
        assert_eq!(in_order, run(&[1, 2, 0]));
    }

    #[test]
    fn capacity_floor_is_one() {
        let mut cache = ResultCache::with_capacity(Some(0));
        let a = fingerprint_parts(&["a"]);
        let b = fingerprint_parts(&["b"]);
        cache.insert(a, entry(0), 0);
        assert_eq!(cache.len(), 1, "capacity clamps to at least one entry");
        cache.insert(b, entry(1), 1);
        assert_eq!(cache.len(), 1);
        assert!(cache.contains(b));
    }
}
