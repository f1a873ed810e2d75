//! Phase 2: gradient search on the surrogate (Section 4.2).
//!
//! Starting from a random valid mapping, each iteration
//!
//! 1. evaluates the surrogate's predicted cost `c* = f*(m@t, p_target)`;
//! 2. back-propagates through the surrogate to obtain `∇ = ∂f*/∂m@t`;
//! 3. steps `m@t+1 = m@t − α∇` in the whitened input space;
//! 4. projects the result back onto the valid map space (rounding every
//!    attribute to its domain and repairing capacity violations);
//! 5. every `N` iterations proposes a random valid mapping and accepts it
//!    with a simulated-annealing-style probability whose temperature decays
//!    over time (Appendix A: interval 10, T₀ = 50, ×0.75 every 50
//!    injections).
//!
//! Crucially the loop only ever queries the **surrogate**; the expensive
//! reference cost model is not needed during the search, which is what gives
//! Mind Mappings its iso-time advantage (Section 5.4.2). The true cost of
//! each visited candidate is scored as it lands, with the trace's clock
//! stopped, so that the returned [`SearchTrace`] can be compared against the
//! baselines while its times (and time budgets) count surrogate work only.

use std::time::{Duration, Instant};

use mm_accel::{CostModel, EvalScratch};
use mm_mapspace::{MapSpace, MapSpaceView, Mapping, ProblemSpec};
use mm_nn::ForwardCache;
use mm_search::{Budget, SearchTrace};
use rand::rngs::StdRng;
use rand::Rng;

use crate::config::Phase2Config;
use crate::surrogate::{GradientScratch, Surrogate};
use crate::MindMappingsError;

/// One surrogate-side trajectory of the Section-4.2 search, shared by
/// [`GradientSearch`] and [`GradientProposer`](crate::GradientProposer).
///
/// Beside the point it sits at, a trajectory keeps the activations and the
/// prediction of the forward pass taken there, so a [`step`](Self::step)
/// costs one backward pass (from the kept activations) and one forward pass
/// (at the point it lands on, kept for the next step). All its buffers,
/// mappings included, are reused: after the first steps a step allocates
/// nothing.
#[derive(Debug, Clone, Default)]
pub(crate) struct Trajectory {
    /// The knobs of this run.
    pub(crate) config: Phase2Config,
    /// Current (valid, projected) mapping.
    pub(crate) current: Mapping,
    /// The mapping the last step started from; the next step projects into
    /// it, and the two trade places.
    previous: Mapping,
    /// Whitened input vector of `current`, the activations of the
    /// surrogate's forward pass there, and its predicted normalized EDP.
    x: Vec<f32>,
    activations: ForwardCache,
    predicted: f64,
    /// The same for an injection candidate; they trade places with
    /// `current`, `x` and `activations` when the candidate is accepted.
    candidate: Mapping,
    candidate_x: Vec<f32>,
    candidate_activations: ForwardCache,
    /// The un-whitened mapping values handed to `project_into`.
    raw_mapping: Vec<f32>,
    gradient: GradientScratch,
    temperature: f64,
    injections: u64,
    pub(crate) iteration: u64,
}

impl Trajectory {
    /// A trajectory sitting at `start` with a fresh annealing schedule.
    pub(crate) fn new(
        surrogate: &Surrogate,
        problem: &ProblemSpec,
        start: Mapping,
        config: Phase2Config,
    ) -> Self {
        let mut trajectory = Trajectory {
            config,
            current: start,
            temperature: config.initial_temperature,
            ..Trajectory::default()
        };
        trajectory.land(surrogate, problem);
        trajectory
    }

    /// Jump to `to`: copy it in, encode it and take the forward pass there.
    pub(crate) fn move_to(&mut self, surrogate: &Surrogate, problem: &ProblemSpec, to: &Mapping) {
        self.current.clone_from(to);
        self.land(surrogate, problem);
    }

    /// Encode `current` and take the forward pass there.
    fn land(&mut self, surrogate: &Surrogate, problem: &ProblemSpec) {
        surrogate.encode_normalized_into(problem, &self.current, &mut self.x);
        self.predicted = surrogate.predict_normalized_edp_into(&self.x, &mut self.activations);
    }

    /// One iteration of Section 4.2: gradient of the predicted cost at the
    /// current point, a step against it in whitened space, projection back
    /// onto `space`, and — every `injection_interval` iterations — a random
    /// candidate accepted with annealed probability. Returns whether the
    /// mapping changed. `landed` sees every point the trajectory lands on
    /// (the projected one, then an accepted candidate) with its prediction.
    ///
    /// The RNG is drawn from only when projection fails (fallback mapping),
    /// for an injection candidate, and for the acceptance draw of a
    /// candidate that predicts worse — in that order.
    // mm-lint: hot-path — projection and injections write into kept
    // mappings; the whole step must not allocate.
    pub(crate) fn step(
        &mut self,
        surrogate: &Surrogate,
        problem: &ProblemSpec,
        space: &dyn MapSpaceView,
        rng: &mut StdRng,
        mut landed: impl FnMut(&Mapping, f64),
    ) -> bool {
        let cfg = self.config;
        self.iteration += 1;

        // The problem id is held constant (Section 4.2): only the mapping
        // part of the gradient is normalized and applied.
        let offset = surrogate.encoding().mapping_offset();
        let grad = surrogate.normalized_edp_gradient_into(&self.activations, &mut self.gradient);
        let grad = &grad[offset..];
        let mut divisor = 1.0f32;
        if cfg.normalize_gradient {
            let norm = grad.iter().map(|g| g * g).sum::<f32>().sqrt();
            if norm > 1e-12 {
                divisor = norm;
            }
        }
        for (xi, g) in self.x[offset..].iter_mut().zip(grad) {
            *xi -= cfg.learning_rate * (g / divisor);
        }

        // Project back onto the map space and take the forward pass there.
        surrogate.decode_normalized_into(&self.x, &mut self.raw_mapping);
        let landing = &mut self.previous;
        if space.project_into(&self.raw_mapping, landing).is_err() {
            space.random_mapping_into(landing, rng);
        }
        std::mem::swap(&mut self.current, &mut self.previous);
        self.land(surrogate, problem);
        landed(&self.current, self.predicted);

        // Periodic random injection with annealed acceptance (Appendix A).
        if cfg.injection_interval > 0 && self.iteration.is_multiple_of(cfg.injection_interval) {
            space.random_mapping_into(&mut self.candidate, rng);
            surrogate.encode_normalized_into(problem, &self.candidate, &mut self.candidate_x);
            let candidate_pred = surrogate
                .predict_normalized_edp_into(&self.candidate_x, &mut self.candidate_activations);
            let accept = candidate_pred <= self.predicted || {
                let delta = candidate_pred - self.predicted;
                rng.gen_range(0.0..1.0) < (-delta / self.temperature.max(1e-12)).exp()
            };
            if accept {
                std::mem::swap(&mut self.current, &mut self.candidate);
                std::mem::swap(&mut self.x, &mut self.candidate_x);
                std::mem::swap(&mut self.activations, &mut self.candidate_activations);
                self.predicted = candidate_pred;
                landed(&self.current, candidate_pred);
            }
            self.injections += 1;
            if cfg.decay_every_injections > 0
                && self.injections.is_multiple_of(cfg.decay_every_injections)
            {
                self.temperature *= cfg.temperature_decay;
            }
        }
        self.current != self.previous
    }
}

/// The Phase-2 gradient searcher, bound to a surrogate and a target problem.
#[derive(Debug, Clone)]
pub struct GradientSearch<'a> {
    surrogate: &'a Surrogate,
    space: MapSpace,
    problem: ProblemSpec,
    config: Phase2Config,
}

impl<'a> GradientSearch<'a> {
    /// Create a gradient search for `problem` using a trained `surrogate`.
    ///
    /// # Errors
    ///
    /// Returns [`MindMappingsError::FamilyMismatch`] if the problem's shape
    /// does not match the family the surrogate was trained on.
    pub fn new(
        surrogate: &'a Surrogate,
        problem: ProblemSpec,
        config: Phase2Config,
    ) -> Result<Self, MindMappingsError> {
        surrogate.check_problem(&problem)?;
        let space = MapSpace::new(problem.clone(), surrogate.arch().mapping_constraints());
        Ok(GradientSearch {
            surrogate,
            space,
            problem,
            config,
        })
    }

    /// The map space being searched.
    pub fn space(&self) -> &MapSpace {
        &self.space
    }

    /// Run the search for at most `budget` surrogate iterations (and/or
    /// wall-clock time), returning the per-iteration trace. Trace costs are
    /// true EDPs (joule-seconds) from `evaluator`, scored as each mapping is
    /// reached with the trace's clock stopped: the reference cost model
    /// never influences the search itself and its time is not counted,
    /// matching the paper's evaluation methodology where the visited
    /// mappings are scored offline for plotting (Section 5.2). The trace
    /// starts at the first step that moves.
    pub fn run(&self, budget: Budget, evaluator: &CostModel, rng: &mut StdRng) -> SearchTrace {
        let mut trace = SearchTrace::new("MM");
        let mut scratch = EvalScratch::new();
        // The true cost of the mapping the search sits at, once it moved.
        let mut cost = None;
        self.walk(
            budget,
            rng,
            |_, _| {},
            |moved, current, clock| {
                if moved {
                    cost = Some(evaluator.evaluate_into(&mut scratch, current).edp);
                }
                if let Some(cost) = cost {
                    trace.record(cost, current, clock);
                }
            },
        );
        trace
    }

    /// Walk one trajectory from a random start until `budget` is spent on
    /// a clock that runs during steps only. `landed` is handed to every
    /// [`Trajectory::step`]; `after` sees, once a step is done, whether it
    /// moved, the mapping it sits at and the clock.
    fn walk(
        &self,
        budget: Budget,
        rng: &mut StdRng,
        mut landed: impl FnMut(&Mapping, f64),
        mut after: impl FnMut(bool, &Mapping, Duration),
    ) {
        let lap = Instant::now();
        let first = self.space.random_mapping(rng);
        let mut trajectory = Trajectory::new(self.surrogate, &self.problem, first, self.config);
        let mut clock = lap.elapsed();
        while !budget.exhausted(trajectory.iteration, clock) {
            let lap = Instant::now();
            let moved =
                trajectory.step(self.surrogate, &self.problem, &self.space, rng, &mut landed);
            clock += lap.elapsed();
            after(moved, &trajectory.current, clock);
        }
    }

    /// Surrogate-only search returning just the best mapping found by
    /// prediction (no true cost evaluation at all); this is the
    /// deployment-mode entry point used by the `MindMappings` API.
    pub fn best_mapping(&self, budget: Budget, rng: &mut StdRng) -> Mapping {
        let mut best_pred = f64::INFINITY;
        let mut best: Option<Mapping> = None;
        let track_best = |mapping: &Mapping, predicted: f64| {
            if predicted < best_pred {
                best_pred = predicted;
                best.get_or_insert_with(Mapping::default)
                    .clone_from(mapping);
            }
        };
        self.walk(budget, rng, track_best, |_, _, _| {});
        best.unwrap_or_else(|| Mapping::minimal(&self.problem))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::Phase1Config;
    use crate::dataset::generate_training_set;
    use mm_accel::Architecture;
    use mm_workloads::conv1d::Conv1dFamily;
    use rand::SeedableRng;

    fn surrogate(seed: u64) -> Surrogate {
        let arch = Architecture::example();
        let fam = Conv1dFamily::default();
        let mut rng = StdRng::seed_from_u64(seed);
        let ds = generate_training_set(&arch, &fam, 1500, 50, &mut rng).unwrap();
        let cfg = Phase1Config {
            hidden_layers: vec![48, 48],
            epochs: 25,
            batch_size: 64,
            ..Phase1Config::quick()
        };
        Surrogate::train(arch, &ds, &cfg, &mut rng).unwrap().0
    }

    /// The search as it ran before it scored in place: the trajectory that
    /// allocated a projected mapping, a candidate and a record per step,
    /// then the two-pass loop that scored the records after the timed one.
    /// Kept as the oracle of [`GradientSearch::run`].
    mod replaced {
        use super::*;
        use std::time::Duration;

        struct Trajectory {
            config: Phase2Config,
            current: Mapping,
            previous: Mapping,
            x: Vec<f32>,
            activations: ForwardCache,
            predicted: f64,
            candidate_x: Vec<f32>,
            candidate_activations: ForwardCache,
            raw_mapping: Vec<f32>,
            gradient: GradientScratch,
            temperature: f64,
            injections: u64,
            iteration: u64,
        }

        impl Trajectory {
            fn move_to(&mut self, surrogate: &Surrogate, problem: &ProblemSpec, to: Mapping) {
                self.current = to;
                surrogate.encode_normalized_into(problem, &self.current, &mut self.x);
                self.predicted =
                    surrogate.predict_normalized_edp_into(&self.x, &mut self.activations);
            }

            fn step(
                &mut self,
                surrogate: &Surrogate,
                problem: &ProblemSpec,
                space: &MapSpace,
                rng: &mut StdRng,
            ) -> bool {
                let cfg = self.config;
                self.iteration += 1;
                let offset = surrogate.encoding().mapping_offset();
                let grad =
                    surrogate.normalized_edp_gradient_into(&self.activations, &mut self.gradient);
                let grad = &grad[offset..];
                let mut divisor = 1.0f32;
                if cfg.normalize_gradient {
                    let norm = grad.iter().map(|g| g * g).sum::<f32>().sqrt();
                    if norm > 1e-12 {
                        divisor = norm;
                    }
                }
                for (xi, g) in self.x[offset..].iter_mut().zip(grad) {
                    *xi -= cfg.learning_rate * (g / divisor);
                }
                surrogate.decode_normalized_into(&self.x, &mut self.raw_mapping);
                std::mem::swap(&mut self.current, &mut self.previous);
                let projected = space
                    .project(&self.raw_mapping)
                    .unwrap_or_else(|_| space.random_mapping(rng));
                self.move_to(surrogate, problem, projected);
                if cfg.injection_interval > 0
                    && self.iteration.is_multiple_of(cfg.injection_interval)
                {
                    let candidate = space.random_mapping(rng);
                    surrogate.encode_normalized_into(problem, &candidate, &mut self.candidate_x);
                    let candidate_pred = surrogate.predict_normalized_edp_into(
                        &self.candidate_x,
                        &mut self.candidate_activations,
                    );
                    let accept = candidate_pred <= self.predicted || {
                        let delta = candidate_pred - self.predicted;
                        rng.gen_range(0.0..1.0) < (-delta / self.temperature.max(1e-12)).exp()
                    };
                    if accept {
                        self.current = candidate;
                        std::mem::swap(&mut self.x, &mut self.candidate_x);
                        std::mem::swap(&mut self.activations, &mut self.candidate_activations);
                        self.predicted = candidate_pred;
                    }
                    self.injections += 1;
                    if cfg.decay_every_injections > 0
                        && self.injections.is_multiple_of(cfg.decay_every_injections)
                    {
                        self.temperature *= cfg.temperature_decay;
                    }
                }
                self.current != self.previous
            }
        }

        pub fn run(
            gs: &GradientSearch,
            budget: Budget,
            evaluator: &CostModel,
            rng: &mut StdRng,
        ) -> SearchTrace {
            let first = gs.space.random_mapping(rng);
            let mut trajectory = Trajectory {
                config: gs.config,
                current: Mapping::default(),
                previous: Mapping::default(),
                x: Vec::new(),
                activations: ForwardCache::default(),
                predicted: 0.0,
                candidate_x: Vec::new(),
                candidate_activations: ForwardCache::default(),
                raw_mapping: Vec::new(),
                gradient: GradientScratch::default(),
                temperature: gs.config.initial_temperature,
                injections: 0,
                iteration: 0,
            };
            trajectory.move_to(gs.surrogate, &gs.problem, first);
            let mut records = Vec::new();
            while !budget.exhausted(trajectory.iteration, Duration::ZERO) {
                let moved = trajectory.step(gs.surrogate, &gs.problem, &gs.space, rng);
                records.push(moved.then(|| trajectory.current.clone()));
            }
            let mut trace = SearchTrace::new("MM");
            let mut scratch = EvalScratch::new();
            let mut last: Option<(f64, Mapping)> = None;
            for candidate in records {
                if let Some(mapping) = candidate {
                    let cost = evaluator.evaluate_into(&mut scratch, &mapping).edp;
                    last = Some((cost, mapping));
                }
                if let Some((cost, mapping)) = &last {
                    trace.record(*cost, mapping, Duration::ZERO);
                }
            }
            trace
        }
    }

    #[test]
    fn run_matches_the_replaced_two_pass_loop() {
        let s = surrogate(1);
        let steeper = Phase2Config {
            learning_rate: 3.0,
            injection_interval: 4,
            ..Phase2Config::default()
        };
        let mut compared = 0;
        for (problem, config) in [
            (ProblemSpec::conv1d(900, 7), Phase2Config::default()),
            (ProblemSpec::conv1d(1200, 5), steeper),
            (ProblemSpec::conv1d(600, 9), Phase2Config::default()),
        ] {
            let gs = GradientSearch::new(&s, problem.clone(), config).unwrap();
            let model = CostModel::new(s.arch().clone(), problem);
            for seed in [2, 9, 40] {
                let budget = Budget::iterations(250);
                let got = gs.run(budget, &model, &mut StdRng::seed_from_u64(seed));
                let want = replaced::run(&gs, budget, &model, &mut StdRng::seed_from_u64(seed));
                assert_eq!(got.len(), want.len(), "seed {seed}");
                for (g, w) in got.points.iter().zip(&want.points) {
                    assert_eq!(g.queries, w.queries);
                    assert_eq!(g.cost.to_bits(), w.cost.to_bits(), "seed {seed}");
                    assert_eq!(g.best_cost.to_bits(), w.best_cost.to_bits(), "seed {seed}");
                }
                assert_eq!(got.best_cost.to_bits(), want.best_cost.to_bits());
                assert_eq!(got.best_mapping, want.best_mapping);
                compared += got.len();
            }
        }
        assert!(
            compared > 1000,
            "the traces are long enough to say something"
        );
    }

    /// The clock `walk` hands to `after` — and so `run`'s trace times and
    /// time budgets — counts the steps, what `landed` does inside them
    /// included, and not what `after` does between them, where `run` scores.
    #[test]
    fn the_clock_stops_between_steps() {
        let s = surrogate(7);
        let problem = ProblemSpec::conv1d(800, 5);
        let gs = GradientSearch::new(&s, problem, Phase2Config::default()).unwrap();
        let pause = Duration::from_millis(1);
        let (mut landings, mut afters, mut last_clock) = (0u32, 0u32, Duration::ZERO);
        let start = Instant::now();
        gs.walk(
            Budget::time(Duration::from_millis(40)),
            &mut StdRng::seed_from_u64(8),
            |_, _| {
                landings += 1;
                std::thread::sleep(pause);
            },
            |_, _, clock| {
                afters += 1;
                last_clock = clock;
                std::thread::sleep(pause);
            },
        );
        let outside = start.elapsed();
        assert!(afters > 0);
        assert!(
            last_clock >= pause * landings,
            "the clock {last_clock:?} misses the {landings} pauses inside the steps"
        );
        assert!(
            outside >= last_clock + pause * afters,
            "the clock {last_clock:?} counts the {afters} pauses between steps \
             ({outside:?} outside)"
        );
    }

    #[test]
    fn rejects_problems_from_another_family() {
        let s = surrogate(0);
        let cnn = mm_workloads::cnn::CnnLayer::alexnet_conv4().into_problem();
        assert!(GradientSearch::new(&s, cnn, Phase2Config::default()).is_err());
    }

    #[test]
    fn search_produces_monotone_trace_of_valid_mappings() {
        let s = surrogate(1);
        let problem = ProblemSpec::conv1d(900, 7);
        let gs = GradientSearch::new(&s, problem.clone(), Phase2Config::default()).unwrap();
        let model = CostModel::new(s.arch().clone(), problem);
        let mut rng = StdRng::seed_from_u64(2);
        let trace = gs.run(Budget::iterations(300), &model, &mut rng);
        assert!(!trace.is_empty());
        assert!(trace.best_cost.is_finite());
        for w in trace.points.windows(2) {
            assert!(w[1].best_cost <= w[0].best_cost);
        }
        let best = trace.best_mapping.as_ref().unwrap();
        assert!(gs.space().is_member(best));
    }

    #[test]
    fn search_beats_average_random_mapping() {
        let s = surrogate(3);
        let problem = ProblemSpec::conv1d(1200, 5);
        let gs = GradientSearch::new(&s, problem.clone(), Phase2Config::default()).unwrap();
        let model = CostModel::new(s.arch().clone(), problem.clone());
        let space = gs.space().clone();
        let mut rng = StdRng::seed_from_u64(4);
        let mut mean = 0.0;
        let n = 30;
        for _ in 0..n {
            mean += model.edp(&space.random_mapping(&mut rng));
        }
        mean /= n as f64;
        let trace = gs.run(Budget::iterations(400), &model, &mut rng);
        assert!(
            trace.best_cost < mean,
            "MM ({}) did not beat the random-mapping mean ({mean})",
            trace.best_cost
        );
    }

    #[test]
    fn best_mapping_is_valid_without_evaluator() {
        let s = surrogate(5);
        let problem = ProblemSpec::conv1d(600, 9);
        let gs = GradientSearch::new(&s, problem, Phase2Config::default()).unwrap();
        let mut rng = StdRng::seed_from_u64(6);
        let best = gs.best_mapping(Budget::iterations(150), &mut rng);
        assert!(gs.space().is_member(&best));
    }

    #[test]
    fn time_budget_is_respected() {
        let s = surrogate(7);
        let problem = ProblemSpec::conv1d(800, 5);
        let gs = GradientSearch::new(&s, problem, Phase2Config::default()).unwrap();
        let mut rng = StdRng::seed_from_u64(8);
        let start = std::time::Instant::now();
        let _ = gs.best_mapping(
            Budget::time(std::time::Duration::from_millis(100)),
            &mut rng,
        );
        assert!(start.elapsed() < std::time::Duration::from_secs(10));
    }
}
