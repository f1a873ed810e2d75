//! The [`Objective`] abstraction shared by all search methods, plus the
//! search [`Budget`].

use std::time::Duration;

use mm_mapspace::Mapping;

/// A cost function over mappings (Equation 1's `f(a, m)`): lower is better.
///
/// Implementations count their queries so that iso-iteration comparisons can
/// bound the number of cost-function evaluations rather than loop iterations.
pub trait Objective {
    /// Evaluate the cost of a mapping.
    fn cost(&mut self, mapping: &Mapping) -> f64;

    /// Number of cost evaluations performed so far.
    fn queries(&self) -> u64;
}

/// Wrap any closure as an [`Objective`].
pub struct FnObjective<F> {
    f: F,
    queries: u64,
}

impl<F: FnMut(&Mapping) -> f64> FnObjective<F> {
    /// Wrap `f` as an objective.
    pub fn new(f: F) -> Self {
        FnObjective { f, queries: 0 }
    }
}

impl<F: FnMut(&Mapping) -> f64> Objective for FnObjective<F> {
    fn cost(&mut self, mapping: &Mapping) -> f64 {
        self.queries += 1;
        (self.f)(mapping)
    }

    fn queries(&self) -> u64 {
        self.queries
    }
}

/// Exact budget split: share `index` of `count` receives `total / count`
/// plus one of the `total % count` leftovers (lowest indices first). The
/// shares always sum to `total` exactly and differ by at most one — no
/// share silently gets a different budget.
///
/// The single source of truth for budget splitting across the workspace:
/// mapper shard shares (`TerminationPolicy::per_shard_search_size`) and
/// serve per-shard job budgets both call this.
pub fn split_evenly(total: u64, index: usize, count: usize) -> u64 {
    let count = count.max(1) as u64;
    let base = total / count;
    let extra = u64::from((index as u64) < total % count);
    base + extra
}

/// Search termination criteria: a maximum number of cost-function queries
/// (iso-iteration), an optional wall-clock limit (iso-time), or both.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Budget {
    /// Maximum number of cost-function queries.
    pub max_queries: u64,
    /// Optional wall-clock limit.
    pub max_time: Option<Duration>,
}

impl Budget {
    /// Iso-iteration budget: a fixed number of cost-function queries.
    pub fn iterations(max_queries: u64) -> Self {
        Budget {
            max_queries,
            max_time: None,
        }
    }

    /// Iso-time budget: a wall-clock limit (with a generous query cap so the
    /// time limit is the binding constraint).
    pub fn time(limit: Duration) -> Self {
        Budget {
            max_queries: u64::MAX,
            max_time: Some(limit),
        }
    }

    /// Both a query cap and a time limit.
    pub fn queries_and_time(max_queries: u64, limit: Duration) -> Self {
        Budget {
            max_queries,
            max_time: Some(limit),
        }
    }

    /// Whether the budget is exhausted given the queries used so far and the
    /// elapsed wall-clock time.
    pub fn exhausted(&self, queries: u64, elapsed: Duration) -> bool {
        if queries >= self.max_queries {
            return true;
        }
        if let Some(limit) = self.max_time {
            if elapsed >= limit {
                return true;
            }
        }
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mm_mapspace::{Mapping, ProblemSpec};

    #[test]
    fn fn_objective_counts_queries() {
        let problem = ProblemSpec::conv1d(32, 3);
        let m = Mapping::minimal(&problem);
        let mut obj = FnObjective::new(|_: &Mapping| 42.0);
        assert_eq!(obj.queries(), 0);
        assert_eq!(obj.cost(&m), 42.0);
        assert_eq!(obj.cost(&m), 42.0);
        assert_eq!(obj.queries(), 2);
    }

    #[test]
    fn budget_exhaustion_rules() {
        let b = Budget::iterations(10);
        assert!(!b.exhausted(9, Duration::from_secs(100)));
        assert!(b.exhausted(10, Duration::ZERO));

        let b = Budget::time(Duration::from_millis(5));
        assert!(!b.exhausted(1_000_000, Duration::from_millis(4)));
        assert!(b.exhausted(0, Duration::from_millis(5)));

        let b = Budget::queries_and_time(10, Duration::from_millis(5));
        assert!(b.exhausted(10, Duration::ZERO));
        assert!(b.exhausted(0, Duration::from_millis(6)));
        assert!(!b.exhausted(9, Duration::from_millis(4)));
    }
}
