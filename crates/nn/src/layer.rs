//! Dense layers and activations with manual backpropagation.

use rand::Rng;
use serde::{Deserialize, Serialize};

use crate::matrix::Matrix;

/// Element-wise activation functions.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Activation {
    /// Identity (no non-linearity); used at the output layer.
    Identity,
    /// Rectified linear unit.
    Relu,
    /// Hyperbolic tangent (used by the RL actor to bound actions).
    Tanh,
}

impl Activation {
    /// Apply the activation element-wise.
    pub fn forward(&self, x: &Matrix) -> Matrix {
        let mut out = x.clone();
        self.forward_in_place(&mut out);
        out
    }

    /// In-place form of [`forward`](Self::forward).
    // mm-lint: hot-path — every forward pass runs through here.
    pub fn forward_in_place(&self, x: &mut Matrix) {
        match self {
            Activation::Identity => {}
            Activation::Relu => {
                for v in x.as_mut_slice() {
                    if *v < 0.0 {
                        *v = 0.0;
                    }
                }
            }
            Activation::Tanh => {
                for v in x.as_mut_slice() {
                    *v = v.tanh();
                }
            }
        }
    }

    /// Back-propagate through the activation: element-wise product of the
    /// upstream gradient with the activation derivative evaluated at the
    /// *pre-activation* input `x`.
    pub fn backward(&self, x: &Matrix, grad_out: &Matrix) -> Matrix {
        let mut grad = grad_out.clone();
        self.backward_in_place(x, &mut grad);
        grad
    }

    /// In-place form of [`backward`](Self::backward): `grad` holds the
    /// upstream gradient on entry and the downstream one on return.
    // mm-lint: hot-path — every backward pass runs through here.
    pub fn backward_in_place(&self, x: &Matrix, grad: &mut Matrix) {
        match self {
            Activation::Identity => {}
            Activation::Relu => {
                for (g, &xv) in grad.as_mut_slice().iter_mut().zip(x.as_slice()) {
                    if xv <= 0.0 {
                        *g = 0.0;
                    }
                }
            }
            Activation::Tanh => {
                for (g, &xv) in grad.as_mut_slice().iter_mut().zip(x.as_slice()) {
                    let t = xv.tanh();
                    *g *= 1.0 - t * t;
                }
            }
        }
    }
}

/// A fully connected layer `y = x Wᵀ + b`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Linear {
    /// Weight matrix of shape `[out_features, in_features]`.
    pub weight: Matrix,
    /// Bias vector of length `out_features`.
    pub bias: Vec<f32>,
}

/// Gradients of a [`Linear`] layer's parameters.
#[derive(Debug, Clone, PartialEq)]
pub struct LinearGrad {
    /// Gradient w.r.t. the weight matrix (same shape as the weights).
    pub weight: Matrix,
    /// Gradient w.r.t. the bias.
    pub bias: Vec<f32>,
}

impl Linear {
    /// He-uniform initialization, appropriate for ReLU networks.
    pub fn new<R: Rng + ?Sized>(in_features: usize, out_features: usize, rng: &mut R) -> Self {
        let bound = (6.0 / in_features as f32).sqrt();
        let mut weight = Matrix::zeros(out_features, in_features);
        for v in weight.as_mut_slice() {
            *v = rng.gen_range(-bound..bound);
        }
        Linear {
            weight,
            bias: vec![0.0; out_features],
        }
    }

    /// Input feature count.
    pub fn in_features(&self) -> usize {
        self.weight.cols()
    }

    /// Output feature count.
    pub fn out_features(&self) -> usize {
        self.weight.rows()
    }

    /// Number of trainable parameters.
    pub fn num_parameters(&self) -> usize {
        self.weight.rows() * self.weight.cols() + self.bias.len()
    }

    /// Forward pass for a batch `x` of shape `[batch, in_features]`.
    pub fn forward(&self, x: &Matrix) -> Matrix {
        let mut y = Matrix::default();
        self.forward_into(x, &mut y);
        y
    }

    /// In-place form of [`forward`](Self::forward): `y` is reshaped (its
    /// allocation reused) and overwritten.
    // mm-lint: hot-path — every forward pass runs through here.
    pub fn forward_into(&self, x: &Matrix, y: &mut Matrix) {
        x.matmul_transpose_b_into(&self.weight, y);
        for r in 0..y.rows() {
            for (v, b) in y.row_mut(r).iter_mut().zip(&self.bias) {
                *v += b;
            }
        }
    }

    /// Backward pass: given the batch input `x` and upstream gradient
    /// `grad_out` (shape `[batch, out_features]`), returns the gradient
    /// w.r.t. the input (shape `[batch, in_features]`) and the parameter
    /// gradients.
    pub fn backward(&self, x: &Matrix, grad_out: &Matrix) -> (Matrix, LinearGrad) {
        let mut grad_input = Matrix::default();
        self.backward_input_into(grad_out, &mut grad_input);
        (grad_input, LinearGrad::from_batch(x, grad_out))
    }

    /// The input half of [`backward`](Self::backward), in place:
    /// `grad_input` is reshaped (its allocation reused) and overwritten with
    /// `dX = dY · W`.
    // mm-lint: hot-path — the input-only backward pass must not allocate.
    pub fn backward_input_into(&self, grad_out: &Matrix, grad_input: &mut Matrix) {
        grad_out.matmul_into(&self.weight, grad_input);
    }
}

impl LinearGrad {
    /// The parameter half of [`Linear::backward`]: `dW = dYᵀ · X` and the
    /// bias gradient (column sums of `dY`) for the batch input `x`.
    pub fn from_batch(x: &Matrix, grad_out: &Matrix) -> Self {
        LinearGrad {
            weight: grad_out.transpose_a_matmul(x),
            bias: grad_out.column_sums(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn linear_forward_matches_hand_computation() {
        let layer = Linear {
            weight: Matrix::from_vec(2, 3, vec![1., 0., -1., 2., 1., 0.]),
            bias: vec![0.5, -0.5],
        };
        let x = Matrix::from_vec(1, 3, vec![1., 2., 3.]);
        let y = layer.forward(&x);
        // y0 = 1 - 3 + 0.5 = -1.5 ; y1 = 2 + 2 - 0.5 = 3.5
        assert_eq!(y.as_slice(), &[-1.5, 3.5]);
    }

    #[test]
    fn relu_and_tanh_forward_backward() {
        let x = Matrix::from_vec(1, 3, vec![-1., 0., 2.]);
        let relu = Activation::Relu.forward(&x);
        assert_eq!(relu.as_slice(), &[0., 0., 2.]);
        let g = Activation::Relu.backward(&x, &Matrix::from_vec(1, 3, vec![1., 1., 1.]));
        assert_eq!(g.as_slice(), &[0., 0., 1.]);

        let t = Activation::Tanh.forward(&x);
        assert!((t.as_slice()[2] - 2.0f32.tanh()).abs() < 1e-6);
        let g = Activation::Tanh.backward(&x, &Matrix::from_vec(1, 3, vec![1., 1., 1.]));
        assert!((g.as_slice()[1] - 1.0).abs() < 1e-6); // derivative at 0 is 1
    }

    #[test]
    fn linear_gradients_match_finite_differences() {
        let mut rng = StdRng::seed_from_u64(1);
        let layer = Linear::new(4, 3, &mut rng);
        let x = Matrix::from_vec(2, 4, (0..8).map(|i| i as f32 * 0.1 - 0.3).collect());
        // Scalar objective: sum of outputs.
        let ones = Matrix::from_vec(2, 3, vec![1.0; 6]);
        let (grad_in, grads) = layer.backward(&x, &ones);

        let eps = 1e-3f32;
        let obj = |l: &Linear, xx: &Matrix| -> f32 { l.forward(xx).as_slice().iter().sum() };

        // Check one weight.
        let mut perturbed = layer.clone();
        let base = obj(&layer, &x);
        let w00 = perturbed.weight.get(0, 0);
        perturbed.weight.set(0, 0, w00 + eps);
        let fd = (obj(&perturbed, &x) - base) / eps;
        assert!(
            (fd - grads.weight.get(0, 0)).abs() < 1e-2,
            "fd {fd} vs analytic {}",
            grads.weight.get(0, 0)
        );

        // Check one bias.
        let mut perturbed = layer.clone();
        perturbed.bias[1] += eps;
        let fd = (obj(&perturbed, &x) - base) / eps;
        assert!((fd - grads.bias[1]).abs() < 1e-2);

        // Check one input.
        let mut xp = x.clone();
        xp.set(0, 2, x.get(0, 2) + eps);
        let fd = (obj(&layer, &xp) - base) / eps;
        assert!((fd - grad_in.get(0, 2)).abs() < 1e-2);
    }

    #[test]
    fn parameter_count() {
        let mut rng = StdRng::seed_from_u64(2);
        let layer = Linear::new(10, 5, &mut rng);
        assert_eq!(layer.num_parameters(), 55);
        assert_eq!(layer.in_features(), 10);
        assert_eq!(layer.out_features(), 5);
    }
}
