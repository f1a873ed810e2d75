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
    /// Apply the activation element-wise, in place.
    // mm-lint: hot-path — every forward pass runs through here.
    pub fn forward_in_place(&self, x: &mut Matrix) {
        match self {
            Activation::Identity => {}
            Activation::Relu => {
                // A select, not a conditional store: about half the values
                // are negative, in no predictable order.
                for v in x.as_mut_slice() {
                    *v = if *v < 0.0 { 0.0 } else { *v };
                }
            }
            Activation::Tanh => {
                for v in x.as_mut_slice() {
                    *v = v.tanh();
                }
            }
        }
    }

    /// Back-propagate through the activation, in place: element-wise product
    /// of the upstream gradient with the activation derivative evaluated at
    /// the *pre-activation* input `x`. `grad` holds the upstream gradient on
    /// entry and the downstream one on return.
    // mm-lint: hot-path — every backward pass runs through here.
    pub fn backward_in_place(&self, x: &Matrix, grad: &mut Matrix) {
        match self {
            Activation::Identity => {}
            Activation::Relu => {
                for (g, &xv) in grad.as_mut_slice().iter_mut().zip(x.as_slice()) {
                    *g = if xv <= 0.0 { 0.0 } else { *g };
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
///
/// The weights are held twice: as `[out_features, in_features]` (what the
/// backward pass and the optimizers walk) and as its `[in_features,
/// out_features]` transpose (what the forward product walks, so that its
/// loads are contiguous too). The fields are private and the only way to
/// change a parameter is [`update`](Self::update), which re-lays the
/// transpose out before it returns: a forward pass cannot see a stale copy.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Linear {
    weight: Matrix,
    /// `weight` transposed; rebuilt by every [`update`](Self::update).
    weight_t: Matrix,
    bias: Vec<f32>,
}

/// Gradients of a [`Linear`] layer's parameters.
#[derive(Debug, Clone, Default, PartialEq)]
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
        Linear::from_parts(weight, vec![0.0; out_features])
    }

    /// A layer with the given `[out_features, in_features]` weights and
    /// bias.
    ///
    /// # Panics
    ///
    /// Panics if `bias.len() != weight.rows()`.
    pub fn from_parts(weight: Matrix, bias: Vec<f32>) -> Self {
        assert_eq!(bias.len(), weight.rows(), "one bias per output feature");
        let mut weight_t = Matrix::default();
        weight.transpose_into(&mut weight_t);
        Linear {
            weight,
            weight_t,
            bias,
        }
    }

    /// The weight matrix, shape `[out_features, in_features]`.
    pub fn weight(&self) -> &Matrix {
        &self.weight
    }

    /// The bias vector, length `out_features`.
    pub fn bias(&self) -> &[f32] {
        &self.bias
    }

    /// The one way to change the parameters: `change` gets the row-major
    /// `[out_features, in_features]` weights and the bias, and the layout the
    /// forward pass reads is rebuilt from what it leaves (`in × out` copies,
    /// against the `batch × in × out` products of the step that called for
    /// the update).
    // mm-lint: hot-path — one call per layer per training step.
    pub fn update(&mut self, change: impl FnOnce(&mut [f32], &mut [f32])) {
        change(self.weight.as_mut_slice(), &mut self.bias);
        self.weight.transpose_into(&mut self.weight_t);
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

    /// Forward pass for a batch `x` of shape `[batch, in_features]`: `y` is
    /// reshaped (its allocation reused) and overwritten.
    ///
    /// A zero input (ReLU's, mostly) is skipped, not multiplied: the same
    /// bits for finite weights, and no NaN from a `0 · ±∞` or `0 · NaN`
    /// against a weight that has diverged.
    // mm-lint: hot-path — every forward pass runs through here.
    pub fn forward_into(&self, x: &Matrix, y: &mut Matrix) {
        x.matmul_into(&self.weight_t, y);
        for r in 0..y.rows() {
            for (v, b) in y.row_mut(r).iter_mut().zip(&self.bias) {
                *v += b;
            }
        }
    }

    /// The input half of the backward pass: `grad_input` is reshaped (its
    /// allocation reused) and overwritten with `dX = dY · W` for the
    /// upstream gradient `grad_out` (shape `[batch, out_features]`).
    // mm-lint: hot-path — the input-only backward pass must not allocate.
    pub fn backward_input_into(&self, grad_out: &Matrix, grad_input: &mut Matrix) {
        grad_out.matmul_into(&self.weight, grad_input);
    }
}

impl LinearGrad {
    /// The parameter half of the backward pass, in place: `dW = dYᵀ · X` and
    /// the bias gradient (column sums of `dY`) for the batch input `x`.
    // mm-lint: hot-path — one call per layer per training step.
    pub fn fill_from_batch(&mut self, x: &Matrix, grad_out: &Matrix) {
        grad_out.transpose_a_matmul_into(x, &mut self.weight);
        grad_out.column_sums_into(&mut self.bias);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn forward(layer: &Linear, x: &Matrix) -> Matrix {
        let mut y = Matrix::default();
        layer.forward_into(x, &mut y);
        y
    }

    #[test]
    fn linear_forward_matches_hand_computation() {
        let layer = Linear::from_parts(
            Matrix::from_vec(2, 3, vec![1., 0., -1., 2., 1., 0.]),
            vec![0.5, -0.5],
        );
        let x = Matrix::from_vec(1, 3, vec![1., 2., 3.]);
        let y = forward(&layer, &x);
        // y0 = 1 - 3 + 0.5 = -1.5 ; y1 = 2 + 2 - 0.5 = 3.5
        assert_eq!(y.as_slice(), &[-1.5, 3.5]);
    }

    #[test]
    fn update_is_seen_by_the_next_forward() {
        let mut layer =
            Linear::from_parts(Matrix::from_vec(2, 2, vec![1., 2., 3., 4.]), vec![0.; 2]);
        let x = Matrix::from_vec(1, 2, vec![1., 10.]);
        assert_eq!(forward(&layer, &x).as_slice(), &[21., 43.]);
        layer.update(|w, b| {
            w[1] = -2.0;
            b[1] = 0.5;
        });
        assert_eq!(layer.weight().as_slice(), &[1., -2., 3., 4.]);
        assert_eq!(forward(&layer, &x).as_slice(), &[-19., 43.5]);
    }

    #[test]
    fn relu_and_tanh_forward_backward() {
        let x = Matrix::from_vec(1, 3, vec![-1., 0., 2.]);
        let forward = |act: Activation| {
            let mut y = x.clone();
            act.forward_in_place(&mut y);
            y
        };
        let backward = |act: Activation| {
            let mut g = Matrix::from_vec(1, 3, vec![1., 1., 1.]);
            act.backward_in_place(&x, &mut g);
            g
        };
        assert_eq!(forward(Activation::Relu).as_slice(), &[0., 0., 2.]);
        assert_eq!(backward(Activation::Relu).as_slice(), &[0., 0., 1.]);

        let t = forward(Activation::Tanh);
        assert!((t.as_slice()[2] - 2.0f32.tanh()).abs() < 1e-6);
        let g = backward(Activation::Tanh);
        assert!((g.as_slice()[1] - 1.0).abs() < 1e-6); // derivative at 0 is 1
    }

    #[test]
    fn linear_gradients_match_finite_differences() {
        let mut rng = StdRng::seed_from_u64(1);
        let layer = Linear::new(4, 3, &mut rng);
        let x = Matrix::from_vec(2, 4, (0..8).map(|i| i as f32 * 0.1 - 0.3).collect());
        // Scalar objective: sum of outputs.
        let ones = Matrix::from_vec(2, 3, vec![1.0; 6]);
        let mut grad_in = Matrix::default();
        layer.backward_input_into(&ones, &mut grad_in);
        let mut grads = LinearGrad::default();
        grads.fill_from_batch(&x, &ones);

        let eps = 1e-3f32;
        let obj = |l: &Linear, xx: &Matrix| -> f32 { forward(l, xx).as_slice().iter().sum() };

        // Check one weight.
        let mut perturbed = layer.clone();
        let base = obj(&layer, &x);
        perturbed.update(|w, _| w[0] += eps);
        let fd = (obj(&perturbed, &x) - base) / eps;
        assert!(
            (fd - grads.weight.get(0, 0)).abs() < 1e-2,
            "fd {fd} vs analytic {}",
            grads.weight.get(0, 0)
        );

        // Check one bias.
        let mut perturbed = layer.clone();
        perturbed.update(|_, b| b[1] += eps);
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
