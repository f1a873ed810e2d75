// mm-lint: identity — this file feeds canonical output; the determinism rule applies.
//! Global-best synchronization policies: [`SyncPolicy`] and [`SyncAction`].
//!
//! Two drivers consult a policy, and it means one thing in each: the
//! `mm-mapper` `Mapper` surfaces the best mapping *any shard* has found to
//! every shard between rounds (cross-shard), and an `mm-serve` layer job
//! hands its searcher the job's *own* best at a fixed cadence (job-local).
//! *How* a searcher re-anchors on that incumbent dominates iso-budget
//! quality: blind adoption collapses diversity early, never adopting wastes
//! the information entirely, and the useful middle ground depends on the
//! search method and the remaining budget.
//!
//! [`SyncPolicy`] is the driver-side half of the protocol: at every sync
//! point it turns shard-local state (the budget progress, the shard's own
//! RNG stream) into an optional [`SyncAction`]. The searcher-side half is
//! [`ProposalSearch::observe_global_best`](crate::ProposalSearch::observe_global_best),
//! which implements the *mechanics* of re-anchoring the current trajectory
//! on the incumbent.
//!
//! Because the decision consumes only deterministic, shard-local inputs,
//! policies compose with deterministic orchestration: a driver that
//! delivers incumbents at deterministic rendezvous points (see
//! `mm-mapper`'s rounds) keeps its reports byte-identical across worker
//! counts under every policy.

use std::fmt;
use std::sync::{Arc, OnceLock};

use rand::rngs::StdRng;
use rand::Rng;
use serde::{Deserialize, Serialize};

/// What a searcher should do with an observed global-best mapping.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum SyncAction {
    /// Re-anchor the current trajectory on the incumbent (SA-style: make it
    /// the current point; GA-style: inject it into the population).
    Adopt,
}

/// When and how a search shard re-anchors on the shared global best.
///
/// The policy is consulted at every sync point (every
/// `sync_interval` evaluations in the mapper, every completed cadence in
/// the serve scheduler) with the shard's *budget progress* in `[0, 1]` and
/// its own RNG stream. Both inputs are shard-local and deterministic, so the
/// decision stream is too.
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub enum SyncPolicy {
    /// Never observe the global best (fully independent shards).
    #[default]
    Off,
    /// Always adopt: re-anchor on the incumbent at every sync point
    /// (today's SA-style re-anchoring, made explicit).
    Anchor,
    /// Adopt with a probability that anneals linearly over the budget:
    /// `p = start + (end - start) · progress`. A decaying schedule
    /// (`start > end`) explores greedily early and preserves diversity
    /// late; an increasing one does the opposite.
    Annealed {
        /// Adoption probability at progress 0.
        start: f64,
        /// Adoption probability at progress 1.
        end: f64,
    },
}

impl SyncPolicy {
    /// Whether the policy ever produces an action (`false` only for
    /// [`SyncPolicy::Off`]). Drivers skip sync bookkeeping entirely when
    /// this is `false`.
    pub fn is_enabled(&self) -> bool {
        !matches!(self, SyncPolicy::Off)
    }

    /// Decide what to do at one sync point.
    ///
    /// * `progress` — fraction of the shard's evaluation budget spent,
    ///   clamped to `[0, 1]`;
    /// * `rng` — the shard's own RNG stream ([`SyncPolicy::Annealed`] draws
    ///   one sample; the other variants draw none).
    pub fn decide(&self, progress: f64, rng: &mut StdRng) -> Option<SyncAction> {
        let action = match *self {
            SyncPolicy::Off => None,
            SyncPolicy::Anchor => Some(SyncAction::Adopt),
            SyncPolicy::Annealed { start, end } => {
                let t = progress.clamp(0.0, 1.0);
                let p = (start + (end - start) * t).clamp(0.0, 1.0);
                (rng.gen_range(0.0..1.0) < p).then_some(SyncAction::Adopt)
            }
        };
        // Observation only: the decision and its RNG draw are already made.
        static DECIDES: OnceLock<Arc<mm_telemetry::Counter>> = OnceLock::new();
        static ADOPTS: OnceLock<Arc<mm_telemetry::Counter>> = OnceLock::new();
        crate::tele_counter(&DECIDES, "sync.decides").bump(1);
        if action.is_some() {
            crate::tele_counter(&ADOPTS, "sync.adopts").bump(1);
        }
        action
    }

    /// A stable, human-readable rendering used wherever the policy
    /// participates in deterministic identity: `MapperReport`
    /// canonical strings and the `mm-serve` result-cache fingerprint.
    /// Distinct policies (including distinct parameters of the same
    /// variant) always render distinctly.
    pub fn canonical_string(&self) -> String {
        match *self {
            SyncPolicy::Off => "off".to_string(),
            SyncPolicy::Anchor => "anchor".to_string(),
            SyncPolicy::Annealed { start, end } => format!("annealed(start={start},end={end})"),
        }
    }
}

impl fmt::Display for SyncPolicy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.canonical_string())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn off_never_acts_and_anchor_always_adopts() {
        let mut rng = StdRng::seed_from_u64(0);
        for progress in [0.0, 0.5, 1.0] {
            assert_eq!(SyncPolicy::Off.decide(progress, &mut rng), None);
            assert_eq!(
                SyncPolicy::Anchor.decide(progress, &mut rng),
                Some(SyncAction::Adopt)
            );
        }
    }

    #[test]
    fn annealed_probability_tracks_progress() {
        // p = 1 at progress 0, p = 0 at progress 1 (start=1, end=0): the
        // endpoints are decidable without sampling statistics.
        let p = SyncPolicy::Annealed {
            start: 1.0,
            end: 0.0,
        };
        let mut rng = StdRng::seed_from_u64(2);
        for _ in 0..50 {
            assert_eq!(p.decide(0.0, &mut rng), Some(SyncAction::Adopt));
            assert_eq!(p.decide(1.0, &mut rng), None);
        }
        // Out-of-range progress clamps instead of extrapolating.
        for _ in 0..50 {
            assert_eq!(p.decide(-3.0, &mut rng), Some(SyncAction::Adopt));
            assert_eq!(p.decide(7.0, &mut rng), None);
        }
        // Mid-budget the decision is genuinely probabilistic: both outcomes
        // occur over a deterministic seeded stream.
        let adopted = (0..200)
            .filter(|_| p.decide(0.5, &mut rng) == Some(SyncAction::Adopt))
            .count();
        assert!(adopted > 50 && adopted < 150, "p≈0.5, got {adopted}/200");
    }

    #[test]
    fn canonical_strings_are_distinct_and_stable() {
        let policies = [
            SyncPolicy::Off,
            SyncPolicy::Anchor,
            SyncPolicy::Annealed {
                start: 0.9,
                end: 0.1,
            },
            SyncPolicy::Annealed {
                start: 0.5,
                end: 0.1,
            },
        ];
        let rendered: Vec<String> = policies.iter().map(SyncPolicy::canonical_string).collect();
        for (i, a) in rendered.iter().enumerate() {
            for b in rendered.iter().skip(i + 1) {
                assert_ne!(a, b);
            }
        }
        assert_eq!(rendered[0], "off");
        assert_eq!(rendered[1], "anchor");
        assert_eq!(
            SyncPolicy::Annealed {
                start: 0.9,
                end: 0.1
            }
            .to_string(),
            "annealed(start=0.9,end=0.1)"
        );
        assert_eq!(SyncPolicy::default(), SyncPolicy::Off);
    }
}
