//! Bit-identity of the fast paths against the loops they replaced.
//!
//! The blocked forward product, the in-place forward pass into a reused
//! [`ForwardCache`] and the input-only backward pass into a reused
//! [`BackwardScratch`] claim the *same bits* as the one-output-at-a-time,
//! clone-per-layer code they replaced. That code lives on here, as the
//! reference: plain loops over `Vec<f32>`, sharing nothing with the crate's
//! kernels.

use mm_nn::mlp::{BackwardScratch, ForwardCache};
use mm_nn::{Activation, Matrix, Mlp};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Bit pattern with every NaN folded to one: which NaN an operation returns
/// (sign, payload) is not specified, that it returns one is.
fn bits(v: f32) -> u32 {
    if v.is_nan() {
        f32::NAN.to_bits()
    } else {
        v.to_bits()
    }
}

fn all_bits(m: &[f32]) -> Vec<u32> {
    m.iter().map(|&v| bits(v)).collect()
}

/// `a · bᵀ` one output at a time: a single add chain over `k` from `0.0`.
fn ref_matmul_transpose_b(a: &[f32], b: &[f32], k: usize) -> Vec<f32> {
    let mut out = Vec::new();
    for arow in a.chunks(k) {
        for brow in b.chunks(k) {
            let mut acc = 0.0f32;
            for (x, y) in arow.iter().zip(brow) {
                acc += x * y;
            }
            out.push(acc);
        }
    }
    out
}

/// `a · b` for `a: [rows, k]`, `b: [k, n]`, skipping zero multipliers.
fn ref_matmul(a: &[f32], b: &[f32], k: usize, n: usize) -> Vec<f32> {
    let rows = a.len() / k;
    let mut out = vec![0.0f32; rows * n];
    for i in 0..rows {
        for kk in 0..k {
            let x = a[i * k + kk];
            if x == 0.0 {
                continue;
            }
            for j in 0..n {
                out[i * n + j] += x * b[kk * n + j];
            }
        }
    }
    out
}

/// `aᵀ · b` for `a: [rows, m]`, `b: [rows, n]`, skipping zero multipliers.
fn ref_transpose_a_matmul(a: &[f32], b: &[f32], m: usize, n: usize) -> Vec<f32> {
    let rows = a.len() / m;
    let mut out = vec![0.0f32; m * n];
    for r in 0..rows {
        for i in 0..m {
            let x = a[r * m + i];
            if x == 0.0 {
                continue;
            }
            for j in 0..n {
                out[i * n + j] += x * b[r * n + j];
            }
        }
    }
    out
}

fn ref_activate(act: Activation, pre: &[f32]) -> Vec<f32> {
    pre.iter()
        .map(|&v| match act {
            Activation::Identity => v,
            Activation::Relu => {
                if v < 0.0 {
                    0.0
                } else {
                    v
                }
            }
            Activation::Tanh => v.tanh(),
        })
        .collect()
}

fn ref_activation_backward(act: Activation, pre: &[f32], grad: &mut [f32]) {
    for (g, &x) in grad.iter_mut().zip(pre) {
        match act {
            Activation::Identity => {}
            Activation::Relu => {
                if x <= 0.0 {
                    *g = 0.0;
                }
            }
            Activation::Tanh => {
                let t = x.tanh();
                *g *= 1.0 - t * t;
            }
        }
    }
}

/// What the reference passes produce for one batch.
struct Reference {
    output: Vec<f32>,
    grad_input: Vec<f32>,
    /// Per layer: `(dW, db)`.
    param_grads: Vec<(Vec<f32>, Vec<f32>)>,
}

/// Forward with every layer input and pre-activation kept, then the full
/// backward pass — the shape of the code before the in-place forms.
fn reference_passes(
    net: &Mlp,
    hidden: Activation,
    output: Activation,
    x: &[f32],
    grad_output: &[f32],
) -> Reference {
    let n = net.layers().len();
    let act = |i: usize| if i + 1 == n { output } else { hidden };
    let mut inputs = Vec::new();
    let mut pres = Vec::new();
    let mut cur = x.to_vec();
    for (i, layer) in net.layers().iter().enumerate() {
        let mut pre = ref_matmul_transpose_b(&cur, layer.weight.as_slice(), layer.in_features());
        for row in pre.chunks_mut(layer.out_features()) {
            for (v, b) in row.iter_mut().zip(&layer.bias) {
                *v += b;
            }
        }
        inputs.push(cur);
        cur = ref_activate(act(i), &pre);
        pres.push(pre);
    }
    let mut grad = grad_output.to_vec();
    let mut param_grads = Vec::new();
    for (i, layer) in net.layers().iter().enumerate().rev() {
        let (out_f, in_f) = (layer.out_features(), layer.in_features());
        ref_activation_backward(act(i), &pres[i], &mut grad);
        let mut db = vec![0.0f32; out_f];
        for row in grad.chunks(out_f) {
            for (s, g) in db.iter_mut().zip(row) {
                *s += g;
            }
        }
        param_grads.push((ref_transpose_a_matmul(&grad, &inputs[i], out_f, in_f), db));
        grad = ref_matmul(&grad, layer.weight.as_slice(), out_f, in_f);
    }
    param_grads.reverse();
    Reference {
        output: cur,
        grad_input: grad,
        param_grads,
    }
}

/// Values a product must survive: ordinary magnitudes, exact and signed
/// zeros, subnormals, and (when `non_finite`) infinities and NaN.
fn awkward_values(rng: &mut StdRng, len: usize, non_finite: bool) -> Vec<f32> {
    (0..len)
        .map(
            |_| match rng.gen_range(0..if non_finite { 12 } else { 9 }) {
                0 => 0.0,
                1 => -0.0,
                2 => f32::MIN_POSITIVE / 4.0,
                3 => -f32::MIN_POSITIVE / 1024.0,
                4 => rng.gen_range(-1e-20f32..1e-20),
                5 => rng.gen_range(-1e6f32..1e6),
                9 => f32::INFINITY,
                10 => f32::NEG_INFINITY,
                11 => f32::NAN,
                _ => rng.gen_range(-2.0f32..2.0),
            },
        )
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases_env(48))]

    /// The blocked `x · Wᵀ` equals the one-chain-per-output loop to the bit,
    /// for one row and a batch, on output widths around the block size.
    #[test]
    fn blocked_product_matches_scalar_chain_bits(
        seed in 0u64..u64::MAX,
        rows in prop::sample::select(vec![1usize, 3, 64]),
        n in prop::sample::select(vec![1usize, 7, 8, 9, 64, 130]),
        k in 1usize..70,
        non_finite in prop::sample::select(vec![false, false, true]),
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let a = awkward_values(&mut rng, rows * k, non_finite);
        let b = awkward_values(&mut rng, n * k, non_finite);
        let expected = ref_matmul_transpose_b(&a, &b, k);

        let (am, bm) = (Matrix::from_vec(rows, k, a), Matrix::from_vec(n, k, b));
        // Into a buffer that held another shape, to catch stale state.
        let mut out = Matrix::zeros(5, 3);
        am.matmul_transpose_b_into(&bm, &mut out);
        prop_assert_eq!((out.rows(), out.cols()), (rows, n));
        prop_assert_eq!(all_bits(out.as_slice()), all_bits(&expected));
        prop_assert_eq!(all_bits(am.matmul_transpose_b(&bm).as_slice()), all_bits(&expected));
    }

    /// The in-place forward and the input-only backward, through a cache and
    /// scratch reused across nets and batch sizes, equal the clone-per-layer
    /// reference to the bit — and so do the allocating wrappers and the
    /// training backward's parameter gradients.
    #[test]
    fn in_place_passes_match_reference_bits(
        seed in 0u64..u64::MAX,
        hidden in prop::sample::select(vec![Activation::Relu, Activation::Tanh]),
        output in prop::sample::select(vec![Activation::Identity, Activation::Tanh]),
        depth in 1usize..4,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut cache = ForwardCache::default();
        let mut scratch = BackwardScratch::default();
        // Two nets of different shape through the same buffers, the larger
        // batch first so the second pass runs in over-sized storage.
        for rows in [rng.gen_range(2usize..40), 1] {
            let mut widths = vec![rng.gen_range(1usize..20)];
            widths.extend((0..depth).map(|_| rng.gen_range(1usize..40)));
            widths.push(rng.gen_range(1usize..12));
            let net = Mlp::with_activations(&widths, hidden, output, &mut rng);
            let (in_dim, out_dim) = (net.input_dim(), net.output_dim());
            let x = awkward_values(&mut rng, rows * in_dim, false);
            let grad_output = awkward_values(&mut rng, rows * out_dim, false);
            let reference = reference_passes(&net, hidden, output, &x, &grad_output);

            net.forward_into(rows, &x, &mut cache);
            prop_assert_eq!(all_bits(cache.output().as_slice()), all_bits(&reference.output));
            let grad_input = net.backward_input(&cache, &grad_output, &mut scratch);
            prop_assert_eq!((grad_input.rows(), grad_input.cols()), (rows, in_dim));
            prop_assert_eq!(all_bits(grad_input.as_slice()), all_bits(&reference.grad_input));

            // The allocating forms are wrappers over the same passes.
            let xm = Matrix::from_vec(rows, in_dim, x.clone());
            let fresh = net.forward_cached(&xm);
            prop_assert_eq!(all_bits(fresh.output().as_slice()), all_bits(&reference.output));
            let (grads, grad_in) =
                net.backward(&fresh, &Matrix::from_vec(rows, out_dim, grad_output.clone()));
            prop_assert_eq!(all_bits(grad_in.as_slice()), all_bits(&reference.grad_input));
            for (got, (dw, db)) in grads.layers.iter().zip(&reference.param_grads) {
                prop_assert_eq!(all_bits(got.weight.as_slice()), all_bits(dw));
                prop_assert_eq!(all_bits(&got.bias), all_bits(db));
            }
            if rows == 1 {
                prop_assert_eq!(all_bits(&net.predict(&x)), all_bits(&reference.output));
                prop_assert_eq!(
                    all_bits(&net.input_gradient(&x, &grad_output)),
                    all_bits(&reference.grad_input)
                );
            }
        }
    }
}
