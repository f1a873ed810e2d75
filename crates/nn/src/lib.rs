//! # mm-nn
//!
//! A minimal, dependency-light dense neural-network library: the substrate
//! for the differentiable surrogate of *Mind Mappings* (ASPLOS 2021,
//! Section 4.1) and for the DDPG-flavoured reinforcement-learning baseline.
//!
//! The paper trains a multi-layer perceptron in PyTorch; this crate provides
//! the equivalent functionality in pure Rust:
//!
//! * [`Matrix`] — a small row-major `f32` matrix with the kernels we need;
//! * [`Linear`] / [`Activation`] / [`Mlp`] — dense layers with manual
//!   backpropagation producing gradients w.r.t. **parameters and inputs**
//!   (input gradients are what Phase 2's gradient search needs);
//! * [`Loss`] — MSE, MAE, and Huber losses (Section 5.5 / Figure 7b);
//! * [`optim`] — SGD with momentum and Adam, with step learning-rate decay;
//! * [`Normalizer`], [`Dataset`], [`Trainer`] — z-score normalization,
//!   mini-batch shuffling, and a supervised training loop with train/test
//!   loss curves (Figure 7a).
//!
//! ```
//! use mm_nn::{Mlp, Loss, optim::Sgd, Trainer, TrainConfig, Dataset};
//! use rand::SeedableRng;
//!
//! // Learn y = 2x on a handful of points.
//! let mut rng = rand::rngs::StdRng::seed_from_u64(2);
//! let xs: Vec<Vec<f32>> = (0..64).map(|i| vec![i as f32 / 64.0]).collect();
//! let ys: Vec<Vec<f32>> = xs.iter().map(|x| vec![2.0 * x[0]]).collect();
//! let dataset = Dataset::new(xs, ys).unwrap();
//! let mut mlp = Mlp::new(&[1, 8, 1], &mut rng);
//! let mut trainer = Trainer::new(TrainConfig { epochs: 50, batch_size: 8, ..Default::default() });
//! let history = trainer.fit(&mut mlp, &dataset, &mut mm_nn::optim::Sgd::new(0.05, 0.9), Loss::Mse, &mut rng);
//! assert!(history.final_train_loss() < 0.05);
//! # let _ = Sgd::new(0.1, 0.0);
//! ```

pub mod data;
pub mod layer;
pub mod loss;
pub mod matrix;
pub mod mlp;
pub mod optim;
pub mod train;

pub use data::{Dataset, Normalizer};
pub use layer::{Activation, Linear};
pub use loss::Loss;
pub use matrix::Matrix;
pub use mlp::{BackwardScratch, ForwardCache, Mlp};
pub use train::{TrainConfig, TrainHistory, Trainer};

/// Errors from dataset construction and shape checking.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum NnError {
    /// Input/target row counts differ or are empty.
    BadDataset {
        /// Description of the problem.
        what: String,
    },
    /// A matrix or vector had an unexpected shape.
    ShapeMismatch {
        /// Description of the mismatch.
        what: String,
    },
}

impl std::fmt::Display for NnError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            NnError::BadDataset { what } => write!(f, "bad dataset: {what}"),
            NnError::ShapeMismatch { what } => write!(f, "shape mismatch: {what}"),
        }
    }
}

impl std::error::Error for NnError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn error_display() {
        let e = NnError::BadDataset {
            what: "empty".into(),
        };
        assert!(e.to_string().contains("empty"));
        let e = NnError::ShapeMismatch { what: "row".into() };
        assert!(e.to_string().contains("row"));
    }
}
