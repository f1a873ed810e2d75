//! # mm-bench
//!
//! The experiment harness that regenerates every table and figure of the
//! Mind Mappings evaluation (Section 5). Each figure/table has a dedicated
//! binary under `src/bin/`; see README.md ("Experiments") for the experiment
//! index and EXPERIMENTS.md for paper-vs-measured results. `eval_hot_path`
//! prints ns per evaluation, proposal and surrogate pass; performance claims
//! are measured by the `benchmark/` package instead.
//!
//! All experiments share:
//!
//! * [`ExperimentScale`] — laptop-scale defaults with environment-variable
//!   overrides (`MM_SCALE=quick|default|large`, plus per-knob overrides), so
//!   the same binaries can be pushed toward paper scale;
//! * [`train_surrogate`] — Phase-1 training for a given algorithm family;
//! * [`comparison`] — the SA/GA/RL/Random/MM comparison machinery behind
//!   Figures 5 and 6;
//! * [`report`] — CSV/table output helpers (results land in `results/`).

pub mod comparison;
pub mod json;
pub mod output;
pub mod report;
pub mod scale;

pub use comparison::{run_comparison, ComparisonResult, MethodRun};
pub use scale::ExperimentScale;

use mm_core::{MindMappingsError, Phase1Config, Surrogate};
use mm_nn::TrainHistory;
use mm_workloads::cnn::CnnFamily;
use mm_workloads::mttkrp::MttkrpFamily;
use mm_workloads::table1::Algorithm;
use rand::rngs::StdRng;

/// Train a Phase-1 surrogate for the given algorithm on the evaluated
/// accelerator, at the given experiment scale.
///
/// # Errors
///
/// Propagates surrogate-training errors (e.g. an empty dataset).
pub fn train_surrogate(
    algorithm: Algorithm,
    scale: &ExperimentScale,
    rng: &mut StdRng,
) -> Result<(Surrogate, TrainHistory), MindMappingsError> {
    train_surrogate_with_config(algorithm, &scale.phase1_config(), rng)
}

/// Train a surrogate with an explicit Phase-1 configuration (used by the
/// loss-function and dataset-size ablations).
///
/// # Errors
///
/// Propagates surrogate-training errors (e.g. an empty dataset).
pub fn train_surrogate_with_config(
    algorithm: Algorithm,
    config: &Phase1Config,
    rng: &mut StdRng,
) -> Result<(Surrogate, TrainHistory), MindMappingsError> {
    let arch = mm_workloads::evaluated_accelerator();
    let dataset = match algorithm {
        Algorithm::CnnLayer => mm_core::generate_training_set(
            &arch,
            &CnnFamily::default(),
            config.num_samples,
            config.mappings_per_problem,
            rng,
        )?,
        Algorithm::Mttkrp => mm_core::generate_training_set(
            &arch,
            &MttkrpFamily::default(),
            config.num_samples,
            config.mappings_per_problem,
            rng,
        )?,
    };
    Surrogate::train(arch, &dataset, config, rng)
}

/// Geometric mean of a slice of positive values (used for the headline
/// EDP-ratio summaries).
pub fn geometric_mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let log_sum: f64 = values.iter().map(|v| v.max(1e-300).ln()).sum();
    (log_sum / values.len() as f64).exp()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn geometric_mean_basics() {
        assert!((geometric_mean(&[1.0, 4.0]) - 2.0).abs() < 1e-12);
        assert!((geometric_mean(&[3.0]) - 3.0).abs() < 1e-12);
        assert!(geometric_mean(&[]).is_nan());
    }

    #[test]
    fn quick_scale_surrogate_trains() {
        let mut rng = <StdRng as rand::SeedableRng>::seed_from_u64(0);
        let scale = ExperimentScale::quick();
        let (surrogate, history) = train_surrogate(Algorithm::Mttkrp, &scale, &mut rng).unwrap();
        assert_eq!(surrogate.num_dims(), 4);
        assert!(history.final_train_loss().is_finite());
    }
}
