//! Termination policies for mapper threads, Timeloop-mapper style.
//!
//! Timeloop's mapper terminates each search thread on three knobs:
//! `search-size` (how many mappings to evaluate), `victory-condition`
//! (consecutive evaluations without improvement), and `timeout`. This module
//! provides the same vocabulary; any subset may be active, and a thread
//! stops on whichever fires first.

use std::time::Duration;

use serde::{Deserialize, Serialize};

pub use mm_search::split_evenly;

/// Why a mapper shard stopped.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum StopReason {
    /// Its share of the evaluation budget was spent.
    SearchSize,
    /// `victory_condition` consecutive evaluations failed to improve its
    /// best.
    Victory,
    /// The wall-clock `timeout` expired.
    Timeout,
    /// The searcher stopped proposing (its space or schedule is exhausted).
    Exhausted,
    /// Another thread triggered a global stop.
    GlobalStop,
}

/// Per-run termination policy.
///
/// `search_size` is the *total* evaluation budget, divided evenly across
/// threads (Timeloop semantics). `victory_condition` counts consecutive
/// non-improving evaluations against each thread's own best — a
/// thread-local criterion, so it preserves run determinism.
/// `timeout` is wall-clock and therefore *not* deterministic; leave it
/// unset when reproducibility matters.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct TerminationPolicy {
    /// Total evaluations across all threads.
    pub search_size: Option<u64>,
    /// Consecutive non-improving evaluations before a thread declares
    /// victory.
    pub victory_condition: Option<u64>,
    /// Wall-clock limit for the whole run.
    pub timeout: Option<Duration>,
}

impl TerminationPolicy {
    /// Terminate after `total` evaluations across all threads.
    pub fn search_size(total: u64) -> Self {
        TerminationPolicy {
            search_size: Some(total),
            ..Default::default()
        }
    }

    /// Add a victory condition (consecutive non-improving evaluations).
    pub fn with_victory_condition(mut self, evals: u64) -> Self {
        self.victory_condition = Some(evals);
        self
    }

    /// Add a wall-clock timeout.
    pub fn with_timeout(mut self, timeout: Duration) -> Self {
        self.timeout = Some(timeout);
        self
    }

    /// Whether any stopping criterion is configured.
    pub fn is_bounded(&self) -> bool {
        self.search_size.is_some() || self.victory_condition.is_some() || self.timeout.is_some()
    }

    /// Shard `shard`'s share of the total `search_size`: an exact
    /// remainder-distributing split via [`split_evenly`].
    pub fn per_shard_search_size(&self, shard: usize, shards: usize) -> Option<u64> {
        Some(split_evenly(self.search_size?, shard, shards))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn search_size_splits_evenly_with_remainder_first() {
        let p = TerminationPolicy::search_size(10);
        let shares: Vec<u64> = (0..4)
            .map(|t| p.per_shard_search_size(t, 4).unwrap())
            .collect();
        assert_eq!(shares, vec![3, 3, 2, 2]);
        assert_eq!(shares.iter().sum::<u64>(), 10);
        assert_eq!(p.per_shard_search_size(0, 1), Some(10));
    }

    /// The split is *exact* for any (total, count): shares sum to the total
    /// and differ by at most one — no shard silently gets a different
    /// budget.
    #[test]
    fn split_evenly_is_exact_for_any_shape() {
        for total in [0u64, 1, 7, 90, 1000, 10_001] {
            for count in 1usize..=13 {
                let shares: Vec<u64> = (0..count).map(|i| split_evenly(total, i, count)).collect();
                assert_eq!(
                    shares.iter().sum::<u64>(),
                    total,
                    "sum mismatch for {total}/{count}"
                );
                let max = *shares.iter().max().unwrap();
                let min = *shares.iter().min().unwrap();
                assert!(
                    max - min <= 1,
                    "uneven split for {total}/{count}: {shares:?}"
                );
            }
        }
        assert_eq!(split_evenly(5, 0, 0), 5, "zero count clamps to one shard");
    }

    #[test]
    fn builder_composes_criteria() {
        let p = TerminationPolicy::search_size(100)
            .with_victory_condition(32)
            .with_timeout(Duration::from_millis(50));
        assert!(p.is_bounded());
        assert_eq!(p.search_size, Some(100));
        assert_eq!(p.victory_condition, Some(32));
        assert_eq!(p.timeout, Some(Duration::from_millis(50)));
        assert!(!TerminationPolicy::default().is_bounded());
    }
}
