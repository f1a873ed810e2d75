//! The multi-layer perceptron used as the differentiable surrogate
//! (Section 4.1) and as the actor/critic networks of the RL baseline.

use rand::Rng;
use serde::{Deserialize, Serialize};

use crate::layer::{Activation, Linear, LinearGrad};
use crate::matrix::Matrix;

/// A sequential MLP: `Linear → act → Linear → act → … → Linear`.
///
/// The hidden activation is configurable (ReLU by default); the output layer
/// is linear (identity) unless an output activation is set, which the RL
/// actor uses to bound its actions with `tanh`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Mlp {
    layers: Vec<Linear>,
    hidden_activation: Activation,
    output_activation: Activation,
}

/// Per-layer parameter gradients produced by [`Mlp::backward_into`].
/// Reusable: a trainer that keeps one allocates only on its first step.
#[derive(Debug, Clone, Default)]
pub struct MlpGrad {
    /// Gradients for each [`Linear`] layer, in layer order.
    pub layers: Vec<LinearGrad>,
}

/// Activations of one forward pass, needed for backpropagation.
///
/// Reusable: [`Mlp::forward_into`] overwrites a cache in place, so a caller
/// that keeps one per evaluation point allocates only on first use (and when
/// the batch grows).
#[derive(Debug, Clone, Default)]
pub struct ForwardCache {
    /// Input to each linear layer (post-activation of the previous layer).
    inputs: Vec<Matrix>,
    /// Pre-activation output of each linear layer.
    pre_activations: Vec<Matrix>,
    /// Final network output (post output-activation).
    output: Matrix,
}

impl ForwardCache {
    /// The network output for the cached forward pass (empty before the
    /// first pass).
    pub fn output(&self) -> &Matrix {
        &self.output
    }
}

/// Reusable buffers of the backward passes: the gradient being propagated
/// and the one the next layer down receives.
#[derive(Debug, Clone, Default)]
pub struct BackwardScratch {
    grad: Matrix,
    next: Matrix,
}

impl Mlp {
    /// Create an MLP with the given layer widths, e.g. `&[62, 256, 256, 12]`,
    /// ReLU hidden activations and a linear output.
    ///
    /// # Panics
    ///
    /// Panics if fewer than two widths are given.
    pub fn new<R: Rng + ?Sized>(widths: &[usize], rng: &mut R) -> Self {
        Self::with_activations(widths, Activation::Relu, Activation::Identity, rng)
    }

    /// Create an MLP with explicit hidden/output activations.
    ///
    /// # Panics
    ///
    /// Panics if fewer than two widths are given or any width is zero.
    pub fn with_activations<R: Rng + ?Sized>(
        widths: &[usize],
        hidden: Activation,
        output: Activation,
        rng: &mut R,
    ) -> Self {
        assert!(
            widths.len() >= 2,
            "MLP needs at least input and output widths"
        );
        assert!(
            widths.iter().all(|&w| w > 0),
            "layer widths must be nonzero"
        );
        let layers = widths
            .windows(2)
            .map(|w| Linear::new(w[0], w[1], rng))
            .collect();
        Mlp {
            layers,
            hidden_activation: hidden,
            output_activation: output,
        }
    }

    /// Number of inputs.
    pub fn input_dim(&self) -> usize {
        self.layers.first().map_or(0, Linear::in_features)
    }

    /// Number of outputs.
    pub fn output_dim(&self) -> usize {
        self.layers.last().map_or(0, Linear::out_features)
    }

    /// Total number of trainable parameters.
    pub fn num_parameters(&self) -> usize {
        self.layers.iter().map(Linear::num_parameters).sum()
    }

    /// The linear layers (read-only).
    pub fn layers(&self) -> &[Linear] {
        &self.layers
    }

    /// The linear layers, for the optimizers: a layer's parameters change
    /// through [`Linear::update`] only.
    pub fn layers_mut(&mut self) -> &mut [Linear] {
        &mut self.layers
    }

    /// The activation after layer `i`.
    fn activation(&self, i: usize) -> Activation {
        if i + 1 == self.layers.len() {
            self.output_activation
        } else {
            self.hidden_activation
        }
    }

    /// The one forward pass: run the row-major batch `x` of `rows` examples
    /// through the network, overwriting `cache` (its allocations reused)
    /// with the output and the activations backpropagation needs.
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != rows * self.input_dim()`.
    // mm-lint: hot-path — one call per gradient-search and training step.
    pub fn forward_into(&self, rows: usize, x: &[f32], cache: &mut ForwardCache) {
        let n = self.layers.len();
        cache.inputs.resize_with(n, Matrix::default);
        cache.pre_activations.resize_with(n, Matrix::default);
        cache.inputs[0].copy_from_slice(rows, self.input_dim(), x);
        for (i, layer) in self.layers.iter().enumerate() {
            let pre = &mut cache.pre_activations[i];
            layer.forward_into(&cache.inputs[i], pre);
            let post = if i + 1 == n {
                &mut cache.output
            } else {
                &mut cache.inputs[i + 1]
            };
            post.copy_from(pre);
            self.activation(i).forward_in_place(post);
        }
    }

    /// Forward pass returning just the outputs.
    pub fn forward(&self, x: &Matrix) -> Matrix {
        let mut cache = ForwardCache::default();
        self.forward_into(x.rows(), x.as_slice(), &mut cache);
        cache.output
    }

    /// Convenience: forward pass on a single example.
    pub fn predict(&self, x: &[f32]) -> Vec<f32> {
        let mut cache = ForwardCache::default();
        self.forward_into(1, x, &mut cache);
        cache.output.as_slice().to_vec()
    }

    /// Forward pass on a batch of examples in **one** matrix pass: the whole
    /// batch goes through each layer as a single matmul instead of one
    /// network traversal per example. This is the primitive behind batched
    /// surrogate evaluation (`CostEvaluator::evaluate_batch`).
    pub fn predict_batch(&self, xs: &[Vec<f32>]) -> Vec<Vec<f32>> {
        if xs.is_empty() {
            return Vec::new();
        }
        let y = self.forward(&Matrix::from_rows(xs));
        (0..y.rows()).map(|r| y.row(r).to_vec()).collect()
    }

    /// The one backward pass: walk the layers last to first, turning
    /// `grad_output` (dL/d output, row-major `[batch, out]`) into the
    /// gradient at each layer's pre-activation — what `on_layer` sees, with
    /// the layer's index, and what the parameter gradients are made from —
    /// and, when `to_input`, on into dL/d input, which is left in
    /// `scratch.grad` (otherwise the first layer's input gradient, which
    /// training has no use for, is not computed).
    fn backward_with(
        &self,
        cache: &ForwardCache,
        grad_output: &[f32],
        scratch: &mut BackwardScratch,
        to_input: bool,
        mut on_layer: impl FnMut(usize, &Matrix),
    ) {
        scratch
            .grad
            .copy_from_slice(cache.output.rows(), self.output_dim(), grad_output);
        for (i, layer) in self.layers.iter().enumerate().rev() {
            self.activation(i)
                .backward_in_place(&cache.pre_activations[i], &mut scratch.grad);
            on_layer(i, &scratch.grad);
            if i > 0 || to_input {
                layer.backward_input_into(&scratch.grad, &mut scratch.next);
                std::mem::swap(&mut scratch.grad, &mut scratch.next);
            }
        }
    }

    /// Backpropagate `grad_output` (dL/d output, row-major `[batch, out]`)
    /// through the network from the activations `cache` holds, overwriting
    /// `grads` (its allocations reused) with the parameter gradients.
    ///
    /// # Panics
    ///
    /// Panics if `grad_output` is not `[batch, out]` for the batch `cache`
    /// holds.
    // mm-lint: hot-path — one call per training step.
    pub fn backward_into(
        &self,
        cache: &ForwardCache,
        grad_output: &[f32],
        scratch: &mut BackwardScratch,
        grads: &mut MlpGrad,
    ) {
        grads
            .layers
            .resize_with(self.layers.len(), LinearGrad::default);
        self.backward_with(cache, grad_output, scratch, false, |i, grad| {
            grads.layers[i].fill_from_batch(&cache.inputs[i], grad);
        });
    }

    /// Input-only form of [`backward_into`](Self::backward_into): the same
    /// chain without the parameter gradients, carried on to the input.
    /// Returns dL/d input, shape `[batch, in]`, borrowed from `scratch`.
    ///
    /// # Panics
    ///
    /// Panics if `grad_output` is not `[batch, out]` for the batch `cache`
    /// holds.
    // mm-lint: hot-path — one call per gradient-search step.
    pub fn backward_input<'s>(
        &self,
        cache: &ForwardCache,
        grad_output: &[f32],
        scratch: &'s mut BackwardScratch,
    ) -> &'s Matrix {
        self.backward_with(cache, grad_output, scratch, true, |_, _| {});
        &scratch.grad
    }

    /// Gradient of a scalar objective `sum(weights ⊙ output)` with respect to
    /// a single input vector. This is the primitive used by Phase 2 of Mind
    /// Mappings: the gradient of the surrogate-predicted cost w.r.t. the
    /// candidate mapping.
    pub fn input_gradient(&self, x: &[f32], output_weights: &[f32]) -> Vec<f32> {
        let mut cache = ForwardCache::default();
        self.forward_into(1, x, &mut cache);
        self.backward_input(&cache, output_weights, &mut BackwardScratch::default())
            .as_slice()
            .to_vec()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn mlp(seed: u64) -> Mlp {
        let mut rng = StdRng::seed_from_u64(seed);
        Mlp::new(&[5, 16, 8, 3], &mut rng)
    }

    #[test]
    fn shapes_and_parameter_count() {
        let net = mlp(0);
        assert_eq!(net.input_dim(), 5);
        assert_eq!(net.output_dim(), 3);
        assert_eq!(net.layers().len(), 3);
        let expected = (5 * 16 + 16) + (16 * 8 + 8) + (8 * 3 + 3);
        assert_eq!(net.num_parameters(), expected);
    }

    #[test]
    fn forward_is_deterministic_and_correct_shape() {
        let net = mlp(1);
        let x = Matrix::from_vec(4, 5, (0..20).map(|i| i as f32 * 0.05).collect());
        let y1 = net.forward(&x);
        let y2 = net.forward(&x);
        assert_eq!(y1, y2);
        assert_eq!((y1.rows(), y1.cols()), (4, 3));
        assert_eq!(net.predict(&[0.1; 5]).len(), 3);
    }

    #[test]
    fn parameter_gradients_match_finite_differences() {
        let net = mlp(2);
        let x = Matrix::from_vec(3, 5, (0..15).map(|i| (i as f32 * 0.13).sin()).collect());
        let mut cache = ForwardCache::default();
        net.forward_into(x.rows(), x.as_slice(), &mut cache);
        // Objective: sum of all outputs.
        let mut grads = MlpGrad::default();
        net.backward_into(
            &cache,
            &[1.0; 9],
            &mut BackwardScratch::default(),
            &mut grads,
        );

        let objective = |n: &Mlp| -> f32 { n.forward(&x).as_slice().iter().sum() };
        let base = objective(&net);
        let eps = 1e-2f32;

        // Spot-check a few weights in different layers.
        for (li, r, c) in [(0usize, 0usize, 1usize), (1, 3, 2), (2, 2, 5)] {
            let mut p = net.clone();
            let cols = p.layers()[li].in_features();
            p.layers_mut()[li].update(|w, _| w[r * cols + c] += eps);
            let fd = (objective(&p) - base) / eps;
            let analytic = grads.layers[li].weight.get(r, c);
            assert!(
                (fd - analytic).abs() < 0.05 * (1.0 + analytic.abs()),
                "layer {li} weight ({r},{c}): fd {fd} vs analytic {analytic}"
            );
        }
    }

    #[test]
    fn input_gradient_matches_finite_differences() {
        let net = mlp(3);
        let x: Vec<f32> = (0..5).map(|i| 0.3 * i as f32 - 0.5).collect();
        let w = [1.0f32, -2.0, 0.5];
        let grad = net.input_gradient(&x, &w);
        assert_eq!(grad.len(), 5);

        let objective = |xx: &[f32]| -> f32 {
            net.predict(xx)
                .iter()
                .zip(&w)
                .map(|(o, wi)| o * wi)
                .sum::<f32>()
        };
        let base = objective(&x);
        let eps = 1e-2f32;
        for i in 0..5 {
            let mut xp = x.clone();
            xp[i] += eps;
            let fd = (objective(&xp) - base) / eps;
            assert!(
                (fd - grad[i]).abs() < 0.05 * (1.0 + grad[i].abs()),
                "input {i}: fd {fd} vs analytic {}",
                grad[i]
            );
        }
    }

    #[test]
    fn predict_batch_matches_per_example_predict() {
        let net = mlp(6);
        let xs: Vec<Vec<f32>> = (0..9)
            .map(|i| (0..5).map(|j| ((i * 5 + j) as f32 * 0.07).cos()).collect())
            .collect();
        let batched = net.predict_batch(&xs);
        assert_eq!(batched.len(), xs.len());
        for (x, y) in xs.iter().zip(&batched) {
            assert_eq!(&net.predict(x), y);
        }
        assert!(net.predict_batch(&[]).is_empty());
    }

    #[test]
    fn tanh_output_bounds_values() {
        let mut rng = StdRng::seed_from_u64(4);
        let net = Mlp::with_activations(&[3, 8, 2], Activation::Relu, Activation::Tanh, &mut rng);
        let y = net.predict(&[100.0, -50.0, 30.0]);
        assert!(y.iter().all(|v| v.abs() <= 1.0));
    }

    #[test]
    #[should_panic(expected = "at least input and output")]
    fn rejects_single_width() {
        let mut rng = StdRng::seed_from_u64(5);
        let _ = Mlp::new(&[4], &mut rng);
    }
}
