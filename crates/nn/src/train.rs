//! Supervised training loop producing the train/test loss curves of
//! Figure 7a.

use rand::seq::SliceRandom;
use rand::Rng;
use serde::{Deserialize, Serialize};

use crate::data::Dataset;
use crate::loss::Loss;
use crate::matrix::Matrix;
use crate::mlp::{BackwardScratch, ForwardCache, Mlp, MlpGrad};
use crate::optim::{Optimizer, StepLr};

/// Training hyper-parameters.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct TrainConfig {
    /// Number of passes over the training set.
    pub epochs: usize,
    /// Mini-batch size (the paper uses 128).
    pub batch_size: usize,
    /// Fraction of the data held out for the test-loss curve.
    pub test_fraction: f64,
    /// Optional step learning-rate schedule.
    pub lr_schedule: Option<StepLr>,
}

impl Default for TrainConfig {
    fn default() -> Self {
        TrainConfig {
            epochs: 20,
            batch_size: 128,
            test_fraction: 0.1,
            lr_schedule: Some(StepLr::paper_default()),
        }
    }
}

/// Per-epoch train/test losses recorded during training.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize, Default)]
pub struct TrainHistory {
    /// Mean training loss per epoch.
    pub train_loss: Vec<f32>,
    /// Held-out test loss per epoch.
    pub test_loss: Vec<f32>,
}

impl TrainHistory {
    /// Training loss of the final epoch (`INFINITY` if training never ran).
    pub fn final_train_loss(&self) -> f32 {
        self.train_loss.last().copied().unwrap_or(f32::INFINITY)
    }

    /// Test loss of the final epoch (`INFINITY` if training never ran).
    pub fn final_test_loss(&self) -> f32 {
        self.test_loss.last().copied().unwrap_or(f32::INFINITY)
    }
}

/// Mini-batch supervised trainer.
#[derive(Debug, Clone)]
pub struct Trainer {
    config: TrainConfig,
}

impl Trainer {
    /// Create a trainer with the given configuration.
    pub fn new(config: TrainConfig) -> Self {
        Trainer { config }
    }

    /// The configuration in use.
    pub fn config(&self) -> &TrainConfig {
        &self.config
    }

    /// Train `model` on `dataset` (already normalized by the caller if
    /// desired), returning the loss history. The dataset is split into
    /// train/test portions internally — by index, the examples stay where
    /// they are — and every buffer a step needs is allocated once: after the
    /// first mini-batch, training allocates nothing.
    pub fn fit<R: Rng + ?Sized>(
        &mut self,
        model: &mut Mlp,
        dataset: &Dataset,
        optimizer: &mut dyn Optimizer,
        loss: Loss,
        rng: &mut R,
    ) -> TrainHistory {
        let (train, test) = if dataset.len() >= 4 && self.config.test_fraction > 0.0 {
            dataset.split(self.config.test_fraction, rng)
        } else {
            let all: Vec<usize> = (0..dataset.len()).collect();
            (all.clone(), all)
        };
        let epochs = self.config.epochs;
        let mut history = TrainHistory {
            train_loss: Vec::with_capacity(epochs),
            test_loss: Vec::with_capacity(epochs),
        };
        let batch = self.config.batch_size.max(1);

        let (mut test_x, mut test_y) = (Matrix::default(), Matrix::default());
        dataset.gather_into(&test, &mut test_x, &mut test_y);
        let (mut x, mut y) = (Matrix::default(), Matrix::default());
        let mut cache = ForwardCache::default();
        let mut grad_out = Matrix::default();
        let mut scratch = BackwardScratch::default();
        let mut grads = MlpGrad::default();
        let mut order = Vec::with_capacity(train.len());

        for epoch in 0..epochs {
            if let Some(sched) = self.config.lr_schedule {
                sched.apply(epoch, optimizer);
            }
            // Every epoch shuffles the split's own order, not the previous
            // epoch's permutation.
            order.clear();
            order.extend_from_slice(&train);
            order.shuffle(rng);
            let mut epoch_loss = 0.0f64;
            let mut batches = 0usize;
            for chunk in order.chunks(batch) {
                dataset.gather_into(chunk, &mut x, &mut y);
                model.forward_into(x.rows(), x.as_slice(), &mut cache);
                epoch_loss += loss.value(cache.output(), &y) as f64;
                loss.gradient_into(cache.output(), &y, &mut grad_out);
                model.backward_into(&cache, grad_out.as_slice(), &mut scratch, &mut grads);
                optimizer.step(model, &grads);
                batches += 1;
            }
            history
                .train_loss
                .push((epoch_loss / batches.max(1) as f64) as f32);
            model.forward_into(test_x.rows(), test_x.as_slice(), &mut cache);
            history.test_loss.push(loss.value(cache.output(), &test_y));
        }
        history
    }

    /// Mean loss of `model` over a dataset.
    pub fn evaluate(model: &Mlp, dataset: &Dataset, loss: Loss) -> f32 {
        loss.value(&model.forward(dataset.inputs()), dataset.targets())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::optim::{Adam, Sgd};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn toy_dataset(n: usize) -> Dataset {
        // y = [x0 + x1, x0 * 0.5 - x1]
        let xs: Vec<Vec<f32>> = (0..n)
            .map(|i| {
                let a = (i as f32 * 0.37).sin();
                let b = (i as f32 * 0.11).cos();
                vec![a, b]
            })
            .collect();
        let ys: Vec<Vec<f32>> = xs
            .iter()
            .map(|x| vec![x[0] + x[1], 0.5 * x[0] - x[1]])
            .collect();
        Dataset::new(xs, ys).unwrap()
    }

    #[test]
    fn training_reduces_loss_on_toy_regression() {
        let mut rng = StdRng::seed_from_u64(0);
        let ds = toy_dataset(256);
        let mut model = Mlp::new(&[2, 16, 2], &mut rng);
        let mut trainer = Trainer::new(TrainConfig {
            epochs: 40,
            batch_size: 32,
            test_fraction: 0.2,
            lr_schedule: None,
        });
        let mut opt = Sgd::new(0.05, 0.9);
        let hist = trainer.fit(&mut model, &ds, &mut opt, Loss::Mse, &mut rng);
        assert_eq!(hist.train_loss.len(), 40);
        assert!(
            hist.final_train_loss() < 0.02,
            "{}",
            hist.final_train_loss()
        );
        assert!(hist.final_test_loss() < 0.05, "{}", hist.final_test_loss());
        assert!(hist.train_loss[0] > hist.final_train_loss());
    }

    #[test]
    fn training_with_huber_and_adam_converges() {
        let mut rng = StdRng::seed_from_u64(1);
        let ds = toy_dataset(256);
        let mut model = Mlp::new(&[2, 16, 2], &mut rng);
        let mut trainer = Trainer::new(TrainConfig {
            epochs: 30,
            batch_size: 32,
            test_fraction: 0.2,
            lr_schedule: None,
        });
        let mut opt = Adam::new(0.01);
        let hist = trainer.fit(&mut model, &ds, &mut opt, Loss::default_huber(), &mut rng);
        assert!(
            hist.final_train_loss() < 0.02,
            "{}",
            hist.final_train_loss()
        );
    }

    #[test]
    fn lr_schedule_is_applied() {
        let mut rng = StdRng::seed_from_u64(2);
        let ds = toy_dataset(64);
        let mut model = Mlp::new(&[2, 8, 2], &mut rng);
        let mut trainer = Trainer::new(TrainConfig {
            epochs: 6,
            batch_size: 16,
            test_fraction: 0.2,
            lr_schedule: Some(StepLr {
                every_epochs: 2,
                gamma: 0.5,
            }),
        });
        let mut opt = Sgd::new(0.1, 0.0);
        let _ = trainer.fit(&mut model, &ds, &mut opt, Loss::Mse, &mut rng);
        // Decayed at epochs 2 and 4 (x0.5 twice).
        assert!((opt.learning_rate() - 0.025).abs() < 1e-6);
    }

    #[test]
    fn empty_history_reports_infinity() {
        let h = TrainHistory::default();
        assert!(h.final_train_loss().is_infinite());
        assert!(h.final_test_loss().is_infinite());
    }

    #[test]
    fn evaluate_matches_manual_loss() {
        let mut rng = StdRng::seed_from_u64(3);
        let ds = toy_dataset(16);
        let model = Mlp::new(&[2, 4, 2], &mut rng);
        let l = Trainer::evaluate(&model, &ds, Loss::Mse);
        assert!(l.is_finite() && l >= 0.0);
    }
}
