//! Simulated Annealing (Kirkpatrick et al.), the `simanneal`-style baseline
//! of Appendix A.
//!
//! The implementation mirrors the library used by the paper: a geometric
//! cooling schedule between an automatically chosen initial temperature and a
//! small final temperature, Metropolis acceptance of uphill moves, and the
//! map space's single-attribute perturbation as the neighbourhood move.
//!
//! The searcher is a stepwise state machine implementing [`ProposalSearch`]:
//! it proposes one neighbour at a time (its trajectory depends on every
//! acceptance decision, so [`ProposalSearch::lookahead`] is 1) and applies
//! the Metropolis rule when the evaluated cost is reported back.
//!
//! Under a [`SyncPolicy`](crate::SyncPolicy), [`SyncAction::Adopt`] moves
//! the walk's current point to the shared incumbent when that improves it
//! (classic SA re-anchoring); the cooling schedule is left alone.

use mm_mapspace::{MapSpaceView, Mapping};
use rand::rngs::StdRng;
use rand::Rng;
use serde::{Deserialize, Serialize};

use crate::proposal::{ProposalBuf, ProposalSearch};
use crate::sync::SyncAction;

/// Simulated Annealing hyper-parameters.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct AnnealingConfig {
    /// Initial temperature. When `None`, the temperature is auto-tuned from
    /// the cost spread of a handful of random mappings (the `simanneal`
    /// auto-tuning behaviour referenced in Appendix A).
    pub initial_temperature: Option<f64>,
    /// Final temperature as a fraction of the initial temperature.
    pub final_temperature_fraction: f64,
    /// Number of neighbourhood moves per temperature step.
    pub moves_per_temperature: u64,
}

impl Default for AnnealingConfig {
    fn default() -> Self {
        AnnealingConfig {
            initial_temperature: None,
            final_temperature_fraction: 1e-4,
            moves_per_temperature: 10,
        }
    }
}

/// Number of probe moves used to auto-tune the initial temperature.
const PROBES: u64 = 8;

/// Default schedule horizon when the driver cannot bound the number of
/// evaluations (e.g. a pure wall-clock budget).
const DEFAULT_HORIZON: u64 = 10_000;

/// Which part of the annealing run the next report belongs to.
#[derive(Debug, Clone, PartialEq)]
enum Phase {
    /// Waiting for the initial random mapping's cost.
    Init,
    /// Auto-tuning probes: `done` of [`PROBES`] reported, `spread`
    /// accumulated.
    Probe { done: u64, spread: f64 },
    /// Metropolis walk under the geometric cooling schedule.
    Anneal,
}

#[derive(Debug, Clone)]
struct SaState {
    phase: Phase,
    /// The walk's point and its cost; see [`SaState::move_to`].
    current: Option<(Mapping, f64)>,
    /// Whether a proposal is in flight (lookahead is 1).
    outstanding: bool,
    temperature: f64,
    t_final: f64,
    alpha: f64,
    moves_at_temperature: u64,
    reports: u64,
    horizon: u64,
}

impl SaState {
    /// Make `mapping` the walk's current point, into the storage of the
    /// point it replaces: an accepted move allocates nothing.
    fn move_to(&mut self, mapping: &Mapping, cost: f64) {
        match &mut self.current {
            Some((current, current_cost)) => {
                current.clone_from(mapping);
                *current_cost = cost;
            }
            None => self.current = Some((mapping.clone(), cost)),
        }
    }
}

/// Simulated Annealing searcher.
#[derive(Debug, Clone)]
pub struct SimulatedAnnealing {
    config: AnnealingConfig,
    state: Option<SaState>,
}

impl SimulatedAnnealing {
    /// Create a simulated-annealing searcher.
    pub fn new(config: AnnealingConfig) -> Self {
        SimulatedAnnealing {
            config,
            state: None,
        }
    }

    /// Install the cooling schedule once the initial temperature is known.
    fn install_schedule(&mut self, t0: f64) {
        // mm-lint: allow(panic): calling the strategy outside a begin()
        // session is a driver bug, not a recoverable state.
        let state = self.state.as_mut().expect("begin() not called");
        let t_final = (t0 * self.config.final_temperature_fraction).max(1e-300);
        let remaining = state.horizon.saturating_sub(state.reports).max(1);
        let steps = (remaining / self.config.moves_per_temperature.max(1)).max(1);
        state.temperature = t0;
        state.t_final = t_final;
        state.alpha = (t_final / t0).powf(1.0 / steps as f64);
        state.moves_at_temperature = 0;
        state.phase = Phase::Anneal;
    }
}

impl Default for SimulatedAnnealing {
    fn default() -> Self {
        Self::new(AnnealingConfig::default())
    }
}

impl ProposalSearch for SimulatedAnnealing {
    fn name(&self) -> &str {
        "SA"
    }

    fn begin(&mut self, _space: &dyn MapSpaceView, horizon: Option<u64>, _rng: &mut StdRng) {
        self.state = Some(SaState {
            phase: Phase::Init,
            current: None,
            outstanding: false,
            temperature: 0.0,
            t_final: 0.0,
            alpha: 1.0,
            moves_at_temperature: 0,
            reports: 0,
            horizon: horizon.unwrap_or(DEFAULT_HORIZON),
        });
    }

    // mm-lint: hot-path — the steady-state eval loop must not allocate.
    fn propose(
        &mut self,
        space: &dyn MapSpaceView,
        rng: &mut StdRng,
        _max: usize,
        out: &mut ProposalBuf,
    ) {
        // mm-lint: allow(panic): calling the strategy outside a begin()
        // session is a driver bug, not a recoverable state.
        let state = self.state.as_mut().expect("begin() not called");
        if state.outstanding {
            return;
        }
        match &state.current {
            None => space.random_mapping_into(out.next_slot(), rng),
            Some((current, _)) => space.neighbor_into(current, out.next_slot(), rng),
        }
        state.outstanding = true;
        static PROPOSED: std::sync::OnceLock<std::sync::Arc<mm_telemetry::Counter>> =
            std::sync::OnceLock::new();
        crate::tele_counter(&PROPOSED, "search.sa.proposed").bump(1);
    }

    // mm-lint: hot-path — the steady-state eval loop must not allocate.
    fn report(&mut self, mapping: &Mapping, cost: f64, rng: &mut StdRng) {
        // mm-lint: allow(panic): calling the strategy outside a begin()
        // session is a driver bug, not a recoverable state.
        let state = self.state.as_mut().expect("begin() not called");
        state.outstanding = false;
        state.reports += 1;
        match state.phase.clone() {
            Phase::Init => {
                state.move_to(mapping, cost);
                match self.config.initial_temperature {
                    Some(t0) => self.install_schedule(t0),
                    None => {
                        state.phase = Phase::Probe {
                            done: 0,
                            spread: 0.0,
                        }
                    }
                }
            }
            Phase::Probe { done, spread } => {
                let current_cost = state.current.as_ref().map_or(0.0, |(_, c)| *c);
                let spread = spread + (cost - current_cost).abs();
                let done = done + 1;
                if done >= PROBES {
                    // Aim for ~60% initial acceptance of a typical uphill
                    // move, exactly as the monolithic implementation did.
                    let t0 = (spread / PROBES as f64)
                        .max(current_cost.abs() * 1e-3)
                        .max(1e-30)
                        / 0.5;
                    self.install_schedule(t0);
                } else {
                    state.phase = Phase::Probe { done, spread };
                }
            }
            Phase::Anneal => {
                let current_cost = state.current.as_ref().map_or(f64::INFINITY, |(_, c)| *c);
                let delta = cost - current_cost;
                let accept = delta <= 0.0
                    || rng.gen_range(0.0..1.0) < (-delta / state.temperature.max(1e-300)).exp();
                if accept {
                    state.move_to(mapping, cost);
                    static ACCEPTED: std::sync::OnceLock<std::sync::Arc<mm_telemetry::Counter>> =
                        std::sync::OnceLock::new();
                    crate::tele_counter(&ACCEPTED, "search.sa.accepted").bump(1);
                }
                state.moves_at_temperature += 1;
                if state.moves_at_temperature >= self.config.moves_per_temperature.max(1) {
                    state.moves_at_temperature = 0;
                    state.temperature = (state.temperature * state.alpha).max(state.t_final);
                }
            }
        }
    }

    /// [`SyncAction::Adopt`] re-anchors the walk on the incumbent when that
    /// improves the current point.
    fn observe_global_best(
        &mut self,
        _space: &dyn MapSpaceView,
        mapping: &Mapping,
        cost: f64,
        _action: SyncAction,
        _rng: &mut StdRng,
    ) {
        let Some(state) = self.state.as_mut() else {
            return;
        };
        let improves = match &state.current {
            None => true,
            Some((_, current_cost)) => cost < *current_cost,
        };
        if improves {
            state.move_to(mapping, cost);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::objective::{Budget, FnObjective, Objective};
    use crate::proposal::drive;
    use mm_accel::{Architecture, CostModel};
    use mm_mapspace::{MapSpace, Mapping, ProblemSpec};
    use rand::SeedableRng;

    fn setup() -> (MapSpace, CostModel) {
        let arch = Architecture::example();
        let problem = ProblemSpec::conv1d(512, 7);
        let space = MapSpace::new(problem.clone(), arch.mapping_constraints());
        (space, CostModel::new(arch, problem))
    }

    #[test]
    fn respects_query_budget() {
        let (space, model) = setup();
        let mut rng = StdRng::seed_from_u64(0);
        let mut obj = FnObjective::new(|m: &Mapping| model.edp(m));
        let mut sa = SimulatedAnnealing::default();
        let trace = drive(&mut sa, &space, &mut obj, Budget::iterations(100), &mut rng);
        assert_eq!(obj.queries(), 100);
        assert_eq!(trace.len(), 100);
    }

    #[test]
    fn improves_over_initial_mapping() {
        let (space, model) = setup();
        let mut rng = StdRng::seed_from_u64(1);
        let mut obj = FnObjective::new(|m: &Mapping| model.edp(m));
        let mut sa = SimulatedAnnealing::default();
        let trace = drive(&mut sa, &space, &mut obj, Budget::iterations(400), &mut rng);
        assert!(trace.best_cost < trace.points[0].cost);
        assert!(space.is_member(trace.best_mapping.as_ref().unwrap()));
    }

    #[test]
    fn best_so_far_is_monotone() {
        let (space, model) = setup();
        let mut rng = StdRng::seed_from_u64(2);
        let mut obj = FnObjective::new(|m: &Mapping| model.edp(m));
        let mut sa = SimulatedAnnealing::new(AnnealingConfig {
            initial_temperature: Some(1e-3),
            ..AnnealingConfig::default()
        });
        let trace = drive(&mut sa, &space, &mut obj, Budget::iterations(200), &mut rng);
        for w in trace.points.windows(2) {
            assert!(w[1].best_cost <= w[0].best_cost);
        }
    }

    #[test]
    fn time_budget_terminates_quickly() {
        let (space, model) = setup();
        let mut rng = StdRng::seed_from_u64(3);
        let mut obj = FnObjective::new(|m: &Mapping| model.edp(m));
        let mut sa = SimulatedAnnealing::default();
        let start = std::time::Instant::now();
        let _ = drive(
            &mut sa,
            &space,
            &mut obj,
            Budget::time(std::time::Duration::from_millis(50)),
            &mut rng,
        );
        assert!(start.elapsed() < std::time::Duration::from_secs(5));
    }

    #[test]
    fn adopt_improves_the_anchor_and_never_reheats() {
        let (space, _) = setup();
        let mut rng = StdRng::seed_from_u64(5);
        let mut sa = SimulatedAnnealing::new(AnnealingConfig {
            initial_temperature: Some(4.0),
            moves_per_temperature: 1,
            ..AnnealingConfig::default()
        });
        sa.begin(&space, Some(50), &mut rng);
        let mut buf = ProposalBuf::new();
        // Burn some moves so the temperature decays below t0.
        for _ in 0..10 {
            buf.clear();
            sa.propose(&space, &mut rng, 1, &mut buf);
            sa.report(&buf[0].clone(), 10.0, &mut rng);
        }
        let cooled = sa.state.as_ref().unwrap().temperature;
        assert!(cooled < 4.0, "schedule must have cooled, got {cooled}");

        // Adopt: a worse incumbent is ignored, a better one becomes current.
        let incumbent = space.random_mapping(&mut rng);
        sa.observe_global_best(&space, &incumbent, 99.0, SyncAction::Adopt, &mut rng);
        assert_ne!(
            sa.state.as_ref().unwrap().current.as_ref().unwrap().1,
            99.0,
            "worse incumbent must not be adopted"
        );
        sa.observe_global_best(&space, &incumbent, 0.5, SyncAction::Adopt, &mut rng);
        let state = sa.state.as_ref().unwrap();
        assert_eq!(state.current.as_ref().unwrap().1, 0.5);
        assert!(
            (state.temperature - cooled).abs() < 1e-12,
            "adopt never reheats"
        );
    }

    #[test]
    fn proposes_one_at_a_time_until_reported() {
        let (space, _) = setup();
        let mut rng = StdRng::seed_from_u64(4);
        let mut sa = SimulatedAnnealing::default();
        sa.begin(&space, Some(100), &mut rng);
        let mut buf = ProposalBuf::new();
        sa.propose(&space, &mut rng, 16, &mut buf);
        assert_eq!(buf.len(), 1, "SA is strictly sequential");
        let pending = buf[0].clone();
        buf.clear();
        sa.propose(&space, &mut rng, 16, &mut buf);
        assert!(buf.is_empty(), "no new proposal while one is in flight");
        sa.report(&pending, 1.0, &mut rng);
        sa.propose(&space, &mut rng, 16, &mut buf);
        assert_eq!(buf.len(), 1);
    }
}
