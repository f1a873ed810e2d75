//! Regression losses: MSE, MAE, and Huber (Section 5.5, Figure 7b).
//!
//! The paper selects the Huber loss for surrogate training because it
//! behaves like MSE for small residuals and like MAE for large ones, which
//! stabilizes training in the presence of the heavy-tailed cost distribution
//! of the map space.

use serde::{Deserialize, Serialize};

use crate::matrix::Matrix;

/// Supported regression losses.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum Loss {
    /// Mean squared error.
    Mse,
    /// Mean absolute error.
    Mae,
    /// Huber loss with the given transition point `delta`.
    Huber {
        /// Residual magnitude at which the loss switches from quadratic to
        /// linear behaviour.
        delta: f32,
    },
}

impl Loss {
    /// The paper's default: Huber with `delta = 1` (matching the normalized
    /// output scale).
    pub fn default_huber() -> Self {
        Loss::Huber { delta: 1.0 }
    }

    /// Loss value averaged over all elements of the batch.
    ///
    /// # Panics
    ///
    /// Panics if `prediction` and `target` shapes differ.
    pub fn value(&self, prediction: &Matrix, target: &Matrix) -> f32 {
        assert_eq!(
            (prediction.rows(), prediction.cols()),
            (target.rows(), target.cols()),
            "loss shape mismatch"
        );
        let n = (prediction.rows() * prediction.cols()).max(1) as f32;
        let mut total = 0.0f32;
        for (&p, &t) in prediction.as_slice().iter().zip(target.as_slice()) {
            let r = p - t;
            total += match *self {
                Loss::Mse => r * r,
                Loss::Mae => r.abs(),
                Loss::Huber { delta } => {
                    if r.abs() <= delta {
                        0.5 * r * r
                    } else {
                        delta * (r.abs() - 0.5 * delta)
                    }
                }
            };
        }
        total / n
    }

    /// Gradient of the averaged loss with respect to the predictions, into
    /// `grad`, which is reshaped (its allocation reused) and overwritten.
    ///
    /// # Panics
    ///
    /// Panics if `prediction` and `target` shapes differ.
    // mm-lint: hot-path — one call per training step.
    pub fn gradient_into(&self, prediction: &Matrix, target: &Matrix, grad: &mut Matrix) {
        assert_eq!(
            (prediction.rows(), prediction.cols()),
            (target.rows(), target.cols()),
            "loss shape mismatch"
        );
        let n = (prediction.rows() * prediction.cols()).max(1) as f32;
        grad.reset(prediction.rows(), prediction.cols());
        for ((g, &p), &t) in grad
            .as_mut_slice()
            .iter_mut()
            .zip(prediction.as_slice())
            .zip(target.as_slice())
        {
            let r = p - t;
            let sign = if r == 0.0 { 0.0 } else { r.signum() };
            *g = match *self {
                Loss::Mse => 2.0 * r,
                Loss::Mae => sign,
                Loss::Huber { delta } => {
                    if r.abs() <= delta {
                        r
                    } else {
                        delta * sign
                    }
                }
            } / n;
        }
    }
}

impl std::fmt::Display for Loss {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Loss::Mse => write!(f, "MSE"),
            Loss::Mae => write!(f, "MAE"),
            Loss::Huber { delta } => write!(f, "Huber(delta={delta})"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    impl Loss {
        fn gradient(&self, prediction: &Matrix, target: &Matrix) -> Matrix {
            // Into a buffer that held another shape.
            let mut grad = Matrix::zeros(1, 7);
            self.gradient_into(prediction, target, &mut grad);
            grad
        }
    }

    fn pt() -> (Matrix, Matrix) {
        (
            Matrix::from_vec(1, 3, vec![1.0, -2.0, 4.0]),
            Matrix::from_vec(1, 3, vec![0.0, -2.0, 1.0]),
        )
    }

    #[test]
    fn mse_value_and_gradient() {
        let (p, t) = pt();
        let l = Loss::Mse;
        // residuals: 1, 0, 3 -> mean of squares = (1 + 0 + 9)/3
        assert!((l.value(&p, &t) - 10.0 / 3.0).abs() < 1e-6);
        let g = l.gradient(&p, &t);
        assert!((g.as_slice()[2] - 2.0 * 3.0 / 3.0).abs() < 1e-6);
    }

    #[test]
    fn mae_value_and_gradient() {
        let (p, t) = pt();
        let l = Loss::Mae;
        assert!((l.value(&p, &t) - 4.0 / 3.0).abs() < 1e-6);
        let g = l.gradient(&p, &t);
        assert!((g.as_slice()[0] - 1.0 / 3.0).abs() < 1e-6);
        assert!((g.as_slice()[1]).abs() < 1e-6 || g.as_slice()[1].abs() <= 1.0 / 3.0);
    }

    #[test]
    fn huber_interpolates_between_mse_and_mae() {
        let (p, t) = pt();
        let l = Loss::Huber { delta: 1.0 };
        // residual 1 -> quadratic 0.5; residual 0 -> 0; residual 3 -> 1*(3-0.5)=2.5
        assert!((l.value(&p, &t) - (0.5 + 0.0 + 2.5) / 3.0).abs() < 1e-6);
        let g = l.gradient(&p, &t);
        // small residual: r / n ; large residual: delta*sign / n
        assert!((g.as_slice()[0] - 1.0 / 3.0).abs() < 1e-6);
        assert!((g.as_slice()[2] - 1.0 / 3.0).abs() < 1e-6);
    }

    #[test]
    fn gradients_match_finite_differences() {
        let (p, t) = pt();
        for loss in [Loss::Mse, Loss::Mae, Loss::Huber { delta: 1.0 }] {
            let g = loss.gradient(&p, &t);
            let base = loss.value(&p, &t);
            let eps = 1e-3f32;
            for i in 0..3 {
                // Skip the kink of the non-smooth losses (residual exactly 0),
                // where the subgradient and the one-sided finite difference
                // legitimately disagree.
                if loss != Loss::Mse && (p.as_slice()[i] - t.as_slice()[i]).abs() < 1e-9 {
                    continue;
                }
                let mut pp = p.clone();
                pp.as_mut_slice()[i] += eps;
                let fd = (loss.value(&pp, &t) - base) / eps;
                assert!(
                    (fd - g.as_slice()[i]).abs() < 1e-2,
                    "{loss}: fd {fd} vs {}",
                    g.as_slice()[i]
                );
            }
        }
    }

    #[test]
    fn display_names() {
        assert_eq!(Loss::Mse.to_string(), "MSE");
        assert_eq!(Loss::Mae.to_string(), "MAE");
        assert!(Loss::default_huber().to_string().contains("Huber"));
    }

    #[test]
    fn zero_residual_gives_zero_loss() {
        let p = Matrix::from_vec(2, 2, vec![1.0; 4]);
        for loss in [Loss::Mse, Loss::Mae, Loss::default_huber()] {
            assert_eq!(loss.value(&p, &p), 0.0);
            assert!(loss.gradient(&p, &p).as_slice().iter().all(|&g| g == 0.0));
        }
    }
}
