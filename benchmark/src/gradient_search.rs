//! `gradient_search`: the paper's own method.
//!
//! Set-up trains one surrogate per problem family (CNN, MTTKRP) under an
//! explicit, fixed [`phase1`] configuration; the timed phase runs
//! `MindMappings::search_with_budget` for [`GRADIENT_STEPS`] steps on the 8
//! Table-1 problems × [`GRADIENT_REPS`] seeds. `mm-nn` forward/backward and
//! `mm-core` encode/project dominate and the analytic kernel only scores
//! visited mappings afterwards, so gains there show here and nowhere else;
//! surrogate training is where work moved into set-up would show.

use std::time::Instant;

use mm_accel::Architecture;
use mm_core::{generate_training_set, MindMappings, Phase1Config, Phase2Config, Surrogate};
use mm_mapper::{EvaluatorObjective, ModelEvaluator};
use mm_mapspace::problem::ProblemFamily;
use mm_nn::optim::StepLr;
use mm_nn::Loss;
use mm_search::{drive, AnnealingConfig, Budget, SearchTrace, SimulatedAnnealing};
use mm_workloads::cnn::CnnFamily;
use mm_workloads::evaluated_accelerator;
use mm_workloads::mttkrp::MttkrpFamily;
use mm_workloads::table1::{all_problems, Algorithm};
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::common::{
    build_problems, check_result, timed_setup, Digest, LayerMetrics, Problem, Round, Scored, Ttq,
    Workload,
};
use crate::inputs::{gradient_runs, table1_problems, Prng, SearchRun, GRADIENT_STEPS};
use crate::iso;
use crate::metrics::name;
use crate::spans::Recorder;
use crate::stats::{geomean, spearman};
use crate::targets;

/// Held-out mappings per problem behind `core.surrogate_spearman` (2 000
/// over the 8 problems).
const HELD_OUT_PER_PROBLEM: usize = 250;
/// Mappings of the pool behind the `nn.*` and `core.*` loops.
const POOL_MAPPINGS: usize = 1_024;

/// The surrogate's training configuration, spelled out so that a change of
/// `Phase1Config::quick()` cannot change what this workload trains.
pub fn phase1() -> Phase1Config {
    Phase1Config {
        num_samples: 2_000,
        mappings_per_problem: 50,
        hidden_layers: vec![64, 128, 64],
        epochs: 10,
        batch_size: 64,
        learning_rate: 5e-3,
        momentum: 0.9,
        lr_schedule: Some(StepLr {
            every_epochs: 4,
            gamma: 0.3,
        }),
        loss: Loss::Huber { delta: 1.0 },
        test_fraction: 0.1,
    }
}

pub struct GradientSearch {
    arch: Architecture,
    seed: u64,
    /// Family of each Table-1 problem: 0 = CNN, 1 = MTTKRP.
    family: Vec<usize>,
    /// The surrogates of the last round, for [`Workload::extras`].
    trained: Option<[MindMappings; 2]>,
}

/// Seconds spent generating the dataset and fitting the network.
#[derive(Debug, Default, Clone, Copy)]
struct TrainSplit {
    dataset_s: f64,
    fit_s: f64,
}

impl GradientSearch {
    pub fn new(seed: u64) -> Self {
        GradientSearch {
            arch: evaluated_accelerator(),
            seed,
            family: all_problems()
                .iter()
                .map(|t| usize::from(t.algorithm == Algorithm::Mttkrp))
                .collect(),
            trained: None,
        }
    }

    /// Untraced: the one public call. Traced: the same three steps
    /// `MindMappings::train` takes, made one by one with a stopwatch
    /// between them; the RNG is consumed in the same order, so the
    /// surrogate is the same to the bit (the round digests prove it).
    fn train<F: ProblemFamily>(
        &self,
        family: &F,
        seed: u64,
        trace: Option<(&mut Recorder, usize, &mut TrainSplit)>,
    ) -> Result<MindMappings, String> {
        let mut rng = StdRng::seed_from_u64(seed);
        let config = phase1();
        let Some((rec, parent, split)) = trace else {
            return MindMappings::train(self.arch.clone(), family, &config, &mut rng)
                .map(|(mm, _)| mm)
                .map_err(|e| e.to_string());
        };
        let span = rec.open("dataset_gen", Some(parent), seed, 0);
        let start = Instant::now();
        let dataset = generate_training_set(
            &self.arch,
            family,
            config.num_samples,
            config.mappings_per_problem,
            &mut rng,
        )
        .map_err(|e| e.to_string())?;
        split.dataset_s += start.elapsed().as_secs_f64();
        rec.close(span);
        let span = rec.open("surrogate.train", Some(parent), seed, 0);
        let start = Instant::now();
        let (surrogate, _) = Surrogate::train(self.arch.clone(), &dataset, &config, &mut rng)
            .map_err(|e| e.to_string())?;
        split.fit_s += start.elapsed().as_secs_f64();
        rec.close(span);
        Ok(MindMappings::from_surrogate(
            surrogate,
            Phase2Config::default(),
        ))
    }

    fn search(
        &self,
        mm: &MindMappings,
        problem: &Problem,
        run: &SearchRun,
    ) -> Result<(f64, SearchTrace), String> {
        let mut rng = StdRng::seed_from_u64(run.seed);
        let start = Instant::now();
        let trace = mm
            .search_with_budget(&problem.spec, Budget::iterations(GRADIENT_STEPS), &mut rng)
            .map_err(|e| e.to_string())?;
        Ok((start.elapsed().as_secs_f64(), trace))
    }
}

impl Workload for GradientSearch {
    fn round(&mut self, mut trace: Option<&mut Recorder>) -> Result<Round, String> {
        // ---- set-up -------------------------------------------------
        let mut split = TrainSplit::default();
        let (setup_s, (problems, targets, runs, trained)) = timed_setup(|| {
            let setup_span = trace
                .as_deref_mut()
                .map(|rec| rec.open("gradient_search.setup", None, 0, 0));
            let problems = build_problems(&self.arch, table1_problems());
            let targets = problems
                .iter()
                .map(|p| Ok(targets::lookup(&targets::GRADIENT_SEARCH, &p.spec.name)? * p.min_edp))
                .collect::<Result<Vec<f64>, String>>()?;
            let (train_seeds, runs) = gradient_runs(self.seed);
            split = TrainSplit::default();
            let cnn = self.train(
                &CnnFamily::default(),
                train_seeds[0],
                trace
                    .as_deref_mut()
                    .zip(setup_span)
                    .map(|(r, s)| (r, s, &mut split)),
            )?;
            let mttkrp = self.train(
                &MttkrpFamily::default(),
                train_seeds[1],
                trace
                    .as_deref_mut()
                    .zip(setup_span)
                    .map(|(r, s)| (r, s, &mut split)),
            )?;
            if let (Some(rec), Some(span)) = (trace.as_deref_mut(), setup_span) {
                rec.close(span);
            }
            Ok((problems, targets, runs, [cnn, mttkrp]))
        })?;

        // ---- timed --------------------------------------------------
        let timed_span = trace
            .as_deref_mut()
            .map(|rec| rec.open("gradient_search.timed", None, 0, 0));
        let timed = Instant::now();
        let mut results = Vec::with_capacity(runs.len());
        for (i, run) in runs.iter().enumerate() {
            let span = trace
                .as_deref_mut()
                .map(|rec| rec.open("search_with_budget", timed_span, i as u64, 0));
            let mm = &trained[self.family[run.problem]];
            results.push(self.search(mm, &problems[run.problem], run)?);
            if let (Some(rec), Some(span)) = (trace.as_deref_mut(), span) {
                rec.close(span);
            }
        }
        let timed_s = timed.elapsed().as_secs_f64();
        if let (Some(rec), Some(span)) = (trace.as_deref_mut(), timed_span) {
            rec.close(span);
        }

        // ---- checks and aggregation (off the clock) -----------------
        let mut round = Round {
            setup_s,
            timed_s,
            attempted: results.len() as u64,
            ..Round::default()
        };
        let mut digest = Digest::default();
        for (i, (run, (wall_s, search))) in runs.iter().zip(&results).enumerate() {
            let problem = &problems[run.problem];
            let id = format!(
                "gradient_search run {i} ({} rep {})",
                problem.spec.name, run.rep
            );
            let norm = check_result(
                &id,
                problem,
                search.best_mapping.as_ref(),
                search.best_cost,
                &mut round.failures,
            );
            // The trace starts at the first step that moved, so it may be
            // shorter than the budget; it can never be longer, or empty.
            if search.is_empty() || search.len() as u64 > GRADIENT_STEPS {
                round.failures.push(format!(
                    "{id}: trace has {} points for a budget of {GRADIENT_STEPS} steps",
                    search.len()
                ));
            }
            if search.wall_time_s > *wall_s {
                round.failures.push(format!(
                    "{id}: reported wall_time_s {} exceeds the {wall_s} s observed from outside",
                    search.wall_time_s
                ));
            }
            round.results.extend(norm.map(|norm| Scored {
                problem: run.problem,
                cell: 0,
                norm,
            }));
            round.evals += GRADIENT_STEPS;
            round.calls_s.push(*wall_s);
            // `search_with_budget` hands its result over when it returns:
            // that is when the caller holds a mapping of the final quality.
            let reached = search.best_cost <= targets[run.problem];
            round.ttq.push(Ttq {
                row: run.problem,
                norm: norm.unwrap_or(f64::INFINITY),
                reached_s: reached.then_some(*wall_s),
                wall_s: *wall_s,
            });
            digest.word(search.best_cost.to_bits());
            digest.word(search.len() as u64);
        }
        round.digest = digest.finish();

        if trace.is_some() {
            let m = &mut round.layer;
            m.insert(name::CORE_DATASET_GEN_S, split.dataset_s);
            m.insert(name::CORE_TRAIN_S, split.fit_s);
            m.insert(
                name::NN_TRAIN_EPOCH_S,
                split.fit_s / (2 * phase1().epochs) as f64,
            );
            m.insert(name::CORE_STEP_US, timed_s * 1e6 / round.evals as f64);
        }
        self.trained = Some(trained);
        Ok(round)
    }

    fn extras(&mut self) -> Result<LayerMetrics, String> {
        let trained = self
            .trained
            .take()
            .ok_or("extras need the surrogates of a finished round")?;
        let problems = build_problems(&self.arch, table1_problems());
        let (_, runs) = gradient_runs(self.seed);
        let mut out = LayerMetrics::new();

        let mut pool = iso::Pool::new(self.seed, &problems, POOL_MAPPINGS);
        iso::mapspace(&problems, &mut pool, &mut out);
        if let (Some(problem), Some(mappings)) = (problems.first(), pool.per_problem.first()) {
            iso::surrogate(problem, mappings, trained[0].surrogate(), &mut out);
        }

        // Does the surrogate still rank mappings as the analytic model
        // does? Fresh mappings, never seen in training.
        let mut rng = StdRng::seed_from_u64(Prng::new(self.seed, "held-out").next_u64());
        let mut correlations = Vec::new();
        for (problem, &family) in problems.iter().zip(&self.family) {
            let surrogate = trained[family].surrogate();
            let (mut predicted, mut analytic) = (Vec::new(), Vec::new());
            for _ in 0..HELD_OUT_PER_PROBLEM {
                let m = problem.space.random_mapping(&mut rng);
                predicted.push(surrogate.predict_normalized_edp(&problem.spec, &m));
                analytic.push(problem.model.normalized_edp(&m));
            }
            correlations.extend(spearman(&predicted, &analytic));
        }
        out.insert(
            name::CORE_SURROGATE_SPEARMAN,
            correlations.iter().sum::<f64>() / correlations.len().max(1) as f64,
        );

        // The paper's iso-iteration ratio: gradient search against SA at
        // the same number of cost queries (rep 0 of every problem).
        let mut ratios = Vec::new();
        for run in runs.iter().filter(|r| r.rep == 0) {
            let problem = &problems[run.problem];
            let (_, mm_trace) = self.search(&trained[self.family[run.problem]], problem, run)?;
            let mut objective = EvaluatorObjective::new(std::sync::Arc::new(ModelEvaluator::edp(
                problem.model.clone(),
            )));
            let sa_trace = drive(
                &mut SimulatedAnnealing::new(AnnealingConfig::default()),
                &problem.space,
                &mut objective,
                Budget::iterations(GRADIENT_STEPS),
                &mut StdRng::seed_from_u64(run.seed),
            );
            ratios.push(mm_trace.best_cost / sa_trace.best_cost);
        }
        out.insert(
            name::CORE_MM_VS_SA_ISO_ITER,
            geomean(&ratios).ok_or("no finite gradient-search ÷ SA ratio")?,
        );
        Ok(out)
    }
}
