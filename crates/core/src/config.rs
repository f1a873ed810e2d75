//! Hyper-parameters for the two phases of Mind Mappings.
//!
//! The paper-scale defaults follow Sections 5.3/5.5 and Appendix A; the
//! `quick()` constructors are laptop-scale configurations (smaller network,
//! fewer samples) used by the examples, tests, and the default benchmark
//! harness, as documented in README.md and EXPERIMENTS.md.

use mm_nn::optim::StepLr;
use mm_nn::Loss;
use serde::{Deserialize, Serialize};

/// Phase 1 (offline surrogate training) configuration.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Phase1Config {
    /// Number of `(mapping, problem, cost)` samples in the training set
    /// (the paper uses 10 M; `quick()` uses a few thousand).
    pub num_samples: usize,
    /// Number of mappings sampled per representative problem before a new
    /// problem is drawn from the family.
    pub mappings_per_problem: usize,
    /// Hidden-layer widths of the surrogate MLP (the paper uses
    /// `[64, 256, 1024, 2048, 2048, 1024, 256, 64]`).
    pub hidden_layers: Vec<usize>,
    /// Training epochs (the paper uses 100).
    pub epochs: usize,
    /// Mini-batch size (the paper uses 128).
    pub batch_size: usize,
    /// Initial learning rate (the paper uses 1e-2).
    pub learning_rate: f32,
    /// SGD momentum (the paper uses 0.9).
    pub momentum: f32,
    /// Learning-rate schedule (the paper decays ×0.1 every 25 epochs).
    pub lr_schedule: Option<StepLr>,
    /// Loss function (the paper selects Huber; see Figure 7b).
    pub loss: Loss,
    /// Held-out fraction for the test-loss curve of Figure 7a.
    pub test_fraction: f64,
}

impl Phase1Config {
    /// The paper-scale configuration (Section 5.5). Training this takes hours
    /// of CPU time; use [`Phase1Config::quick`] for interactive runs.
    pub fn paper_scale() -> Self {
        Phase1Config {
            num_samples: 10_000_000,
            mappings_per_problem: 1000,
            hidden_layers: vec![64, 256, 1024, 2048, 2048, 1024, 256, 64],
            epochs: 100,
            batch_size: 128,
            learning_rate: 1e-2,
            momentum: 0.9,
            lr_schedule: Some(StepLr {
                every_epochs: 25,
                gamma: 0.1,
            }),
            loss: Loss::Huber { delta: 1.0 },
            test_fraction: 0.05,
        }
    }

    /// A laptop-scale configuration: a few thousand samples and a small MLP,
    /// enough for the surrogate to be clearly better than chance and for the
    /// end-to-end pipeline to run in seconds.
    pub fn quick() -> Self {
        Phase1Config {
            num_samples: 4000,
            mappings_per_problem: 50,
            hidden_layers: vec![64, 128, 64],
            epochs: 30,
            batch_size: 64,
            learning_rate: 5e-3,
            momentum: 0.9,
            lr_schedule: Some(StepLr {
                every_epochs: 10,
                gamma: 0.3,
            }),
            loss: Loss::Huber { delta: 1.0 },
            test_fraction: 0.1,
        }
    }

    /// A medium configuration used by the benchmark harness by default.
    pub fn default_experiment() -> Self {
        Phase1Config {
            num_samples: 20_000,
            mappings_per_problem: 100,
            hidden_layers: vec![64, 256, 256, 64],
            epochs: 40,
            batch_size: 128,
            learning_rate: 1e-2,
            momentum: 0.9,
            lr_schedule: Some(StepLr {
                every_epochs: 15,
                gamma: 0.1,
            }),
            loss: Loss::Huber { delta: 1.0 },
            test_fraction: 0.1,
        }
    }
}

impl Default for Phase1Config {
    fn default() -> Self {
        Self::default_experiment()
    }
}

/// Phase 2 (online gradient search) configuration. Defaults follow
/// Appendix A: learning rate 1 (no decay), random injection every 10
/// iterations, initial acceptance temperature 50 annealed by ×0.75 every 50
/// injections.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Phase2Config {
    /// Gradient-descent learning rate in normalized input space.
    pub learning_rate: f32,
    /// Normalize the gradient to unit L2 norm before stepping (keeps the
    /// step size meaningful across problems of very different cost scales).
    pub normalize_gradient: bool,
    /// Inject a random valid mapping every this many iterations.
    pub injection_interval: u64,
    /// Initial acceptance temperature for random injections.
    pub initial_temperature: f64,
    /// Multiplicative temperature decay factor.
    pub temperature_decay: f64,
    /// Number of injections between temperature decays.
    pub decay_every_injections: u64,
}

impl Default for Phase2Config {
    fn default() -> Self {
        Phase2Config {
            learning_rate: 1.0,
            normalize_gradient: true,
            injection_interval: 10,
            initial_temperature: 50.0,
            temperature_decay: 0.75,
            decay_every_injections: 50,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_scale_matches_section_5_5() {
        let c = Phase1Config::paper_scale();
        assert_eq!(c.num_samples, 10_000_000);
        assert_eq!(
            c.hidden_layers,
            vec![64, 256, 1024, 2048, 2048, 1024, 256, 64]
        );
        assert_eq!(c.epochs, 100);
        assert_eq!(c.batch_size, 128);
        assert!((c.learning_rate - 1e-2).abs() < 1e-9);
        assert_eq!(c.lr_schedule.unwrap().every_epochs, 25);
    }

    #[test]
    fn phase2_defaults_match_appendix_a() {
        let c = Phase2Config::default();
        assert!((c.learning_rate - 1.0).abs() < 1e-9);
        assert_eq!(c.injection_interval, 10);
        assert!((c.initial_temperature - 50.0).abs() < 1e-9);
        assert!((c.temperature_decay - 0.75).abs() < 1e-9);
        assert_eq!(c.decay_every_injections, 50);
    }

    #[test]
    fn quick_config_is_small() {
        let c = Phase1Config::quick();
        assert!(c.num_samples <= 10_000);
        assert!(c.hidden_layers.iter().all(|&w| w <= 256));
    }
}
