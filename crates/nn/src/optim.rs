//! Optimizers: SGD with momentum (the paper's choice for surrogate
//! training, Section 5.5) and Adam (used by the RL baseline), plus a step
//! learning-rate schedule.

use serde::{Deserialize, Serialize};

use crate::matrix::Matrix;
use crate::mlp::{Mlp, MlpGrad};

/// Common interface for gradient-based parameter updates on an [`Mlp`].
pub trait Optimizer {
    /// Apply one update step given the gradients of the current mini-batch.
    fn step(&mut self, model: &mut Mlp, grads: &MlpGrad);

    /// Current learning rate.
    fn learning_rate(&self) -> f32;

    /// Override the learning rate (used by schedules).
    fn set_learning_rate(&mut self, lr: f32);
}

/// Stochastic gradient descent with classical momentum.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Sgd {
    lr: f32,
    momentum: f32,
    velocity: Vec<(Matrix, Vec<f32>)>,
}

impl Sgd {
    /// Create an SGD optimizer. The paper uses `lr = 1e-2`, `momentum = 0.9`.
    pub fn new(lr: f32, momentum: f32) -> Self {
        Sgd {
            lr,
            momentum,
            velocity: Vec::new(),
        }
    }

    fn ensure_state(&mut self, model: &Mlp) {
        if self.velocity.len() != model.layers().len() {
            self.velocity = model
                .layers()
                .iter()
                .map(|l| {
                    (
                        Matrix::zeros(l.out_features(), l.in_features()),
                        vec![0.0; l.out_features()],
                    )
                })
                .collect();
        }
    }
}

impl Optimizer for Sgd {
    fn step(&mut self, model: &mut Mlp, grads: &MlpGrad) {
        self.ensure_state(model);
        for ((layer, grad), (vw, vb)) in model
            .layers_mut()
            .iter_mut()
            .zip(&grads.layers)
            .zip(&mut self.velocity)
        {
            let (lr, momentum) = (self.lr, self.momentum);
            layer.update(|weight, bias| {
                for (v, g) in vw.as_mut_slice().iter_mut().zip(grad.weight.as_slice()) {
                    *v = momentum * *v - lr * g;
                }
                for (w, v) in weight.iter_mut().zip(vw.as_slice()) {
                    *w += v;
                }
                for ((v, g), b) in vb.iter_mut().zip(&grad.bias).zip(bias) {
                    *v = momentum * *v - lr * g;
                    *b += *v;
                }
            });
        }
    }

    fn learning_rate(&self) -> f32 {
        self.lr
    }

    fn set_learning_rate(&mut self, lr: f32) {
        self.lr = lr;
    }
}

/// Adam optimizer (Kingma & Ba), used by the DDPG-style RL baseline.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Adam {
    lr: f32,
    beta1: f32,
    beta2: f32,
    eps: f32,
    t: u64,
    m: Vec<(Matrix, Vec<f32>)>,
    v: Vec<(Matrix, Vec<f32>)>,
}

impl Adam {
    /// Create an Adam optimizer with the usual defaults for the betas.
    pub fn new(lr: f32) -> Self {
        Adam {
            lr,
            beta1: 0.9,
            beta2: 0.999,
            eps: 1e-8,
            t: 0,
            m: Vec::new(),
            v: Vec::new(),
        }
    }

    fn ensure_state(&mut self, model: &Mlp) {
        if self.m.len() != model.layers().len() {
            let zeros = || {
                model
                    .layers()
                    .iter()
                    .map(|l| {
                        (
                            Matrix::zeros(l.out_features(), l.in_features()),
                            vec![0.0; l.out_features()],
                        )
                    })
                    .collect::<Vec<_>>()
            };
            self.m = zeros();
            self.v = zeros();
        }
    }
}

impl Optimizer for Adam {
    fn step(&mut self, model: &mut Mlp, grads: &MlpGrad) {
        self.ensure_state(model);
        self.t += 1;
        let b1t = 1.0 - self.beta1.powi(self.t as i32);
        let b2t = 1.0 - self.beta2.powi(self.t as i32);
        for (((layer, grad), (mw, mb)), (vw, vb)) in model
            .layers_mut()
            .iter_mut()
            .zip(&grads.layers)
            .zip(&mut self.m)
            .zip(&mut self.v)
        {
            let (lr, beta1, beta2, eps) = (self.lr, self.beta1, self.beta2, self.eps);
            let adam = |p: &mut f32, g: f32, m: &mut f32, v: &mut f32| {
                *m = beta1 * *m + (1.0 - beta1) * g;
                *v = beta2 * *v + (1.0 - beta2) * g * g;
                let mhat = *m / b1t;
                let vhat = *v / b2t;
                *p -= lr * mhat / (vhat.sqrt() + eps);
            };
            layer.update(|weight, bias| {
                for (((w, g), m), v) in weight
                    .iter_mut()
                    .zip(grad.weight.as_slice())
                    .zip(mw.as_mut_slice())
                    .zip(vw.as_mut_slice())
                {
                    adam(w, *g, m, v);
                }
                for (((b, g), m), v) in bias.iter_mut().zip(&grad.bias).zip(mb).zip(vb) {
                    adam(b, *g, m, v);
                }
            });
        }
    }

    fn learning_rate(&self) -> f32 {
        self.lr
    }

    fn set_learning_rate(&mut self, lr: f32) {
        self.lr = lr;
    }
}

/// Step learning-rate decay: multiply the learning rate by `gamma` every
/// `every_epochs` epochs (the paper decays by 0.1 every 25 epochs).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct StepLr {
    /// Epoch interval between decays.
    pub every_epochs: usize,
    /// Multiplicative decay factor.
    pub gamma: f32,
}

impl StepLr {
    /// The schedule used in Section 5.5: ×0.1 every 25 epochs.
    pub fn paper_default() -> Self {
        StepLr {
            every_epochs: 25,
            gamma: 0.1,
        }
    }

    /// Apply the schedule at the start of `epoch` (0-based).
    pub fn apply(&self, epoch: usize, optimizer: &mut dyn Optimizer) {
        if epoch > 0 && self.every_epochs > 0 && epoch.is_multiple_of(self.every_epochs) {
            let lr = optimizer.learning_rate() * self.gamma;
            optimizer.set_learning_rate(lr);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::loss::Loss;
    use crate::mlp::{BackwardScratch, ForwardCache};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn quadratic_fit(optimizer: &mut dyn Optimizer, steps: usize) -> f32 {
        // Fit y = 3x - 1 with a linear model; loss should drop substantially.
        let mut rng = StdRng::seed_from_u64(0);
        let mut model = Mlp::new(&[1, 1], &mut rng);
        let xs = Matrix::from_vec(8, 1, (0..8).map(|i| i as f32 / 8.0).collect());
        let ys = Matrix::from_vec(8, 1, (0..8).map(|i| 3.0 * i as f32 / 8.0 - 1.0).collect());
        let loss = Loss::Mse;
        let mut last = f32::MAX;
        let mut cache = ForwardCache::default();
        let (mut grad_out, mut grads) = (Matrix::default(), MlpGrad::default());
        let mut scratch = BackwardScratch::default();
        for _ in 0..steps {
            model.forward_into(xs.rows(), xs.as_slice(), &mut cache);
            last = loss.value(cache.output(), &ys);
            loss.gradient_into(cache.output(), &ys, &mut grad_out);
            model.backward_into(&cache, grad_out.as_slice(), &mut scratch, &mut grads);
            optimizer.step(&mut model, &grads);
        }
        last
    }

    #[test]
    fn sgd_reduces_loss() {
        let mut opt = Sgd::new(0.1, 0.9);
        let final_loss = quadratic_fit(&mut opt, 200);
        assert!(final_loss < 0.01, "SGD failed to fit: {final_loss}");
    }

    #[test]
    fn adam_reduces_loss() {
        let mut opt = Adam::new(0.05);
        let final_loss = quadratic_fit(&mut opt, 200);
        assert!(final_loss < 0.01, "Adam failed to fit: {final_loss}");
    }

    #[test]
    fn step_lr_decays_at_interval() {
        let mut opt = Sgd::new(1.0, 0.0);
        let sched = StepLr {
            every_epochs: 10,
            gamma: 0.5,
        };
        sched.apply(0, &mut opt);
        assert_eq!(opt.learning_rate(), 1.0);
        sched.apply(5, &mut opt);
        assert_eq!(opt.learning_rate(), 1.0);
        sched.apply(10, &mut opt);
        assert_eq!(opt.learning_rate(), 0.5);
        sched.apply(20, &mut opt);
        assert_eq!(opt.learning_rate(), 0.25);
    }

    #[test]
    fn paper_default_schedule() {
        let s = StepLr::paper_default();
        assert_eq!(s.every_epochs, 25);
        assert!((s.gamma - 0.1).abs() < 1e-6);
    }

    #[test]
    fn learning_rate_accessors() {
        let mut opt = Adam::new(0.01);
        assert!((opt.learning_rate() - 0.01).abs() < 1e-9);
        opt.set_learning_rate(0.001);
        assert!((opt.learning_rate() - 0.001).abs() < 1e-9);
    }
}
