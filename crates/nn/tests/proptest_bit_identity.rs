//! Bit-identity of the fast paths against the loops they replaced.
//!
//! The one product kernel under all three matrix products, the in-place
//! forward pass into a reused [`ForwardCache`], the backward passes into a
//! reused [`BackwardScratch`] / [`MlpGrad`] and the allocation-free
//! [`Trainer::fit`] claim the *same bits* as the one-output-at-a-time,
//! clone-per-layer, `Vec<Vec<f32>>`-per-split code they replaced. That code
//! lives on here, as the reference: plain loops over `Vec<f32>`, sharing
//! nothing with the crate's kernels.

use mm_nn::layer::LinearGrad;
use mm_nn::mlp::{BackwardScratch, ForwardCache, MlpGrad};
use mm_nn::optim::{Adam, Optimizer, Sgd, StepLr};
use mm_nn::{Activation, Dataset, Loss, Matrix, Mlp, TrainConfig, TrainHistory, Trainer};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, RngCore, SeedableRng};

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

/// `a · bᵀ` one output at a time: a single add chain over `k` from `0.0`,
/// zero multipliers multiplied like any other. This is the body of the
/// forward product the kernel replaced.
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

fn ref_transpose(a: &[f32], rows: usize, cols: usize) -> Vec<f32> {
    let mut out = vec![0.0f32; a.len()];
    for i in 0..rows {
        for j in 0..cols {
            out[j * rows + i] = a[i * cols + j];
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
/// backward pass — the shape of the code before the in-place forms. Reads
/// the weights as they are *now*, in their `[out, in]` layout.
fn reference_passes(
    net: &Mlp,
    hidden: Activation,
    output: Activation,
    x: &[f32],
    grad_output: impl FnOnce(&[f32]) -> Vec<f32>,
) -> Reference {
    let n = net.layers().len();
    let act = |i: usize| if i + 1 == n { output } else { hidden };
    let mut inputs = Vec::new();
    let mut pres = Vec::new();
    let mut cur = x.to_vec();
    for (i, layer) in net.layers().iter().enumerate() {
        let mut pre = ref_matmul_transpose_b(&cur, layer.weight().as_slice(), layer.in_features());
        for row in pre.chunks_mut(layer.out_features()) {
            for (v, b) in row.iter_mut().zip(layer.bias()) {
                *v += b;
            }
        }
        inputs.push(cur);
        cur = ref_activate(act(i), &pre);
        pres.push(pre);
    }
    let mut grad = grad_output(&cur);
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
        grad = ref_matmul(&grad, layer.weight().as_slice(), out_f, in_f);
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

/// What the rows of a multiplier matrix look like.
#[derive(Debug, Clone, Copy)]
enum Rows {
    /// [`awkward_values`]: about one entry in five is a zero of either sign.
    Mixed,
    /// Every entry `0.0`: the kernel's list stays empty.
    Zero,
    /// Every entry `-0.0`: skipped like `0.0`, the result is `+0.0`.
    NegativeZero,
    /// No zero at all: the list is the whole row.
    Nonzero,
}

fn multipliers(rng: &mut StdRng, len: usize, rows: Rows, non_finite: bool) -> Vec<f32> {
    match rows {
        Rows::Mixed => awkward_values(rng, len, non_finite),
        Rows::Zero => vec![0.0; len],
        Rows::NegativeZero => vec![-0.0; len],
        Rows::Nonzero => (0..len)
            .map(|_| rng.gen_range(0.25f32..2.0) * if rng.gen_bool(0.5) { -1.0 } else { 1.0 })
            .collect(),
    }
}

/// Hold the kernel's three products to the references for one shape:
/// `a: [rows, k]` times `b: [k, n]` (forward and backward-input), and
/// `gᵀ · a` for `g: [rows, m]` (weight gradient, summed over `rows`).
fn check_products(
    rng: &mut StdRng,
    (rows, k, n, m): (usize, usize, usize, usize),
    pattern: Rows,
    non_finite: bool,
) -> Result<(), TestCaseError> {
    let a = multipliers(rng, rows * k, pattern, non_finite);
    // Finite `b`: what the multiply-the-zeros forward reference needs to
    // agree with a kernel that skips them.
    let b = awkward_values(rng, k * n, false);
    let (am, bm) = (
        Matrix::from_vec(rows, k, a.clone()),
        Matrix::from_vec(k, n, b.clone()),
    );
    // Into a buffer that held another shape, to catch stale state.
    let mut out = Matrix::zeros(5, 3);
    am.matmul_into(&bm, &mut out);
    prop_assert_eq!((out.rows(), out.cols()), (rows, n));
    let forward = ref_matmul_transpose_b(&a, &ref_transpose(&b, k, n), k);
    prop_assert_eq!(all_bits(out.as_slice()), all_bits(&forward), "forward");
    prop_assert_eq!(
        all_bits(out.as_slice()),
        all_bits(&ref_matmul(&a, &b, k, n)),
        "backward"
    );

    // Against the skipping reference the second factor may be anything.
    let b = awkward_values(rng, k * n, non_finite);
    am.matmul_into(&Matrix::from_vec(k, n, b.clone()), &mut out);
    prop_assert_eq!(
        all_bits(out.as_slice()),
        all_bits(&ref_matmul(&a, &b, k, n)),
        "backward"
    );

    let g = multipliers(rng, rows * m, pattern, non_finite);
    let a = awkward_values(rng, rows * k, non_finite);
    Matrix::from_vec(rows, m, g.clone())
        .transpose_a_matmul_into(&Matrix::from_vec(rows, k, a.clone()), &mut out);
    prop_assert_eq!((out.rows(), out.cols()), (m, k));
    prop_assert_eq!(
        all_bits(out.as_slice()),
        all_bits(&ref_transpose_a_matmul(&g, &a, m, k)),
        "weight gradient"
    );
    Ok(())
}

/// Output widths that hit every remainder path of the kernel: below the
/// narrow block, between the blocks, exact multiples, and one past.
const WIDTHS: [usize; 11] = [1, 7, 8, 12, 31, 32, 33, 62, 64, 128, 130];

/// Every width × every side of the 256-multiplier chunk edge × every row
/// pattern, at two rows: the coverage the sampled property cannot promise
/// in 32 cases.
#[test]
fn every_width_and_chunk_edge_matches_the_references() {
    let mut rng = StdRng::seed_from_u64(22);
    for n in WIDTHS {
        for k in [1, 255, 256, 257, 513] {
            for pattern in [Rows::Mixed, Rows::Zero, Rows::NegativeZero, Rows::Nonzero] {
                // The weight gradient sums over `rows`: give it `k` of them.
                check_products(&mut rng, (2, k, n, 3), pattern, false).unwrap();
                check_products(&mut rng, (k, 2, n, 3), pattern, false).unwrap();
            }
        }
    }
}

// --- the trainer this PR replaced, as the reference ---------------------

/// The `Vec<Vec<f32>>` dataset the trainer used to copy three times.
#[derive(Clone)]
struct RefDataset {
    inputs: Vec<Vec<f32>>,
    targets: Vec<Vec<f32>>,
}

impl RefDataset {
    fn len(&self) -> usize {
        self.inputs.len()
    }

    fn split<R: Rng + ?Sized>(&self, test_fraction: f64, rng: &mut R) -> (RefDataset, RefDataset) {
        let mut idx: Vec<usize> = (0..self.len()).collect();
        idx.shuffle(rng);
        let n_test = ((self.len() as f64) * test_fraction).round() as usize;
        let n_test = n_test.clamp(1, self.len().saturating_sub(1).max(1));
        let (test_idx, train_idx) = idx.split_at(n_test.min(self.len()));
        let pick = |ids: &[usize]| RefDataset {
            inputs: ids.iter().map(|&i| self.inputs[i].clone()).collect(),
            targets: ids.iter().map(|&i| self.targets[i].clone()).collect(),
        };
        (pick(train_idx), pick(test_idx))
    }

    fn batch(&self, indices: &[usize]) -> (Matrix, Matrix) {
        let xs: Vec<Vec<f32>> = indices.iter().map(|&i| self.inputs[i].clone()).collect();
        let ys: Vec<Vec<f32>> = indices.iter().map(|&i| self.targets[i].clone()).collect();
        (Matrix::from_rows(&xs), Matrix::from_rows(&ys))
    }

    fn as_matrices(&self) -> (Matrix, Matrix) {
        (
            Matrix::from_rows(&self.inputs),
            Matrix::from_rows(&self.targets),
        )
    }
}

/// `Loss::gradient` as it was: a fresh matrix per call.
fn ref_loss_gradient(loss: Loss, prediction: &[f32], target: &[f32]) -> Vec<f32> {
    let n = prediction.len().max(1) as f32;
    let mut grad = vec![0.0f32; prediction.len()];
    for ((g, &p), &t) in grad.iter_mut().zip(prediction).zip(target) {
        let r = p - t;
        let sign = if r == 0.0 { 0.0 } else { r.signum() };
        *g = match loss {
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
    grad
}

/// One training step's forward, loss and backward through the reference
/// passes: the loss value and the parameter gradients the optimizer gets.
fn ref_step(model: &Mlp, loss: Loss, x: &Matrix, y: &Matrix) -> (f32, MlpGrad) {
    let mut value = 0.0;
    let reference = reference_passes(
        model,
        Activation::Relu,
        Activation::Identity,
        x.as_slice(),
        |output| {
            let output = Matrix::from_vec(y.rows(), y.cols(), output.to_vec());
            value = loss.value(&output, y);
            ref_loss_gradient(loss, output.as_slice(), y.as_slice())
        },
    );
    let layers = (model.layers().iter().zip(reference.param_grads))
        .map(|(layer, (dw, db))| LinearGrad {
            weight: Matrix::from_vec(layer.out_features(), layer.in_features(), dw),
            bias: db,
        })
        .collect();
    (value, MlpGrad { layers })
}

fn ref_evaluate(model: &Mlp, dataset: &RefDataset, loss: Loss) -> f32 {
    let (x, y) = dataset.as_matrices();
    let out = reference_passes(
        model,
        Activation::Relu,
        Activation::Identity,
        x.as_slice(),
        |o| vec![0.0; o.len()],
    )
    .output;
    loss.value(&Matrix::from_vec(y.rows(), y.cols(), out), &y)
}

/// `Trainer::fit` as it stood before it stopped allocating, line for line;
/// forward, loss gradient and backward go through the reference passes
/// above instead of the crate's.
fn reference_fit<R: Rng + ?Sized>(
    config: &TrainConfig,
    model: &mut Mlp,
    dataset: &RefDataset,
    optimizer: &mut dyn Optimizer,
    loss: Loss,
    rng: &mut R,
) -> TrainHistory {
    let (train, test) = if dataset.len() >= 4 && config.test_fraction > 0.0 {
        dataset.split(config.test_fraction, rng)
    } else {
        (dataset.clone(), dataset.clone())
    };
    let mut history = TrainHistory::default();
    let batch = config.batch_size.max(1);

    for epoch in 0..config.epochs {
        if let Some(sched) = config.lr_schedule {
            sched.apply(epoch, optimizer);
        }
        let mut order: Vec<usize> = (0..train.len()).collect();
        order.shuffle(rng);
        let mut epoch_loss = 0.0f64;
        let mut batches = 0usize;
        for chunk in order.chunks(batch) {
            let (x, y) = train.batch(chunk);
            let (value, grads) = ref_step(model, loss, &x, &y);
            epoch_loss += value as f64;
            optimizer.step(model, &grads);
            batches += 1;
        }
        history
            .train_loss
            .push((epoch_loss / batches.max(1) as f64) as f32);
        history.test_loss.push(ref_evaluate(model, &test, loss));
    }
    history
}

/// The batch `x` through the reference forward on the weights `net` holds
/// now.
fn ref_forward(net: &Mlp, x: &[f32]) -> Vec<f32> {
    reference_passes(net, Activation::Relu, Activation::Identity, x, |o| {
        vec![0.0; o.len()]
    })
    .output
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases_env(32))]

    /// The kernel's three products equal the one-at-a-time loops to the bit
    /// — the forward one although it skips the zeros they multiply — over
    /// widths on every remainder path, sums across the chunk edge, whole
    /// batches, and rows of zeros, negative zeros and no zeros.
    #[test]
    fn blocked_product_matches_scalar_chain_bits(
        seed in 0u64..u64::MAX,
        rows in prop::sample::select(vec![1usize, 7, 64, 300]),
        k in prop::sample::select(vec![1usize, 3, 62, 64, 255, 256, 257, 300]),
        n in prop::sample::select(WIDTHS.to_vec()),
        m in prop::sample::select(vec![1usize, 12, 33]),
        pattern in prop::sample::select(vec![
            Rows::Mixed, Rows::Mixed, Rows::Mixed, Rows::Zero, Rows::NegativeZero, Rows::Nonzero,
        ]),
        non_finite in prop::sample::select(vec![false, false, true]),
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        check_products(&mut rng, (rows, k, n, m), pattern, non_finite)?;
    }

    /// The in-place forward and both backward passes, through a cache,
    /// scratch and gradient set reused across nets and batch sizes, equal
    /// the clone-per-layer reference to the bit — and so do the allocating
    /// conveniences.
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
        let mut grads = MlpGrad::default();
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
            let reference = reference_passes(&net, hidden, output, &x, |_| grad_output.clone());

            net.forward_into(rows, &x, &mut cache);
            prop_assert_eq!(all_bits(cache.output().as_slice()), all_bits(&reference.output));
            let grad_input = net.backward_input(&cache, &grad_output, &mut scratch);
            prop_assert_eq!((grad_input.rows(), grad_input.cols()), (rows, in_dim));
            prop_assert_eq!(all_bits(grad_input.as_slice()), all_bits(&reference.grad_input));

            // The training backward: the same chain, stopped before the
            // first layer's input gradient, with the parameter gradients.
            net.backward_into(&cache, &grad_output, &mut scratch, &mut grads);
            prop_assert_eq!(grads.layers.len(), reference.param_grads.len());
            for (got, (dw, db)) in grads.layers.iter().zip(&reference.param_grads) {
                prop_assert_eq!(all_bits(got.weight.as_slice()), all_bits(dw));
                prop_assert_eq!(all_bits(&got.bias), all_bits(db));
            }

            let xm = Matrix::from_vec(rows, in_dim, x.clone());
            prop_assert_eq!(all_bits(net.forward(&xm).as_slice()), all_bits(&reference.output));
            if rows == 1 {
                prop_assert_eq!(all_bits(&net.predict(&x)), all_bits(&reference.output));
                prop_assert_eq!(
                    all_bits(&net.input_gradient(&x, &grad_output)),
                    all_bits(&reference.grad_input)
                );
            }
        }
    }

    /// Three epochs of `Trainer::fit` leave every weight, bias and history
    /// entry with the bits the trainer it replaced leaves, and the RNG in
    /// the same state: same split, same per-epoch order, same sums.
    #[test]
    fn fit_matches_the_reference_trainer_bits(
        seed in 0u64..u64::MAX,
        examples in 3usize..90,
        batch_size in prop::sample::select(vec![1usize, 7, 16, 64]),
        test_fraction in prop::sample::select(vec![0.0f64, 0.1, 0.3]),
        adam in prop::sample::select(vec![false, true]),
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let widths = [rng.gen_range(1usize..9), rng.gen_range(1usize..40), rng.gen_range(1usize..34), rng.gen_range(1usize..5)];
        let row = |rng: &mut StdRng, len: usize| -> Vec<f32> {
            (0..len).map(|_| rng.gen_range(-2.0f32..2.0)).collect()
        };
        let inputs: Vec<Vec<f32>> = (0..examples).map(|_| row(&mut rng, widths[0])).collect();
        let targets: Vec<Vec<f32>> = (0..examples).map(|_| row(&mut rng, widths[3])).collect();
        let reference_set = RefDataset { inputs: inputs.clone(), targets: targets.clone() };
        let dataset = Dataset::new(inputs, targets).unwrap();
        let config = TrainConfig {
            epochs: 3,
            batch_size,
            test_fraction,
            lr_schedule: Some(StepLr { every_epochs: 1, gamma: 0.5 }),
        };
        // SGD + momentum under Huber (the surrogate's set-up), or Adam.
        let (loss, optimizer): (Loss, fn() -> Box<dyn Optimizer>) = if adam {
            (Loss::Mse, || Box::new(Adam::new(0.01)))
        } else {
            (Loss::default_huber(), || Box::new(Sgd::new(0.05, 0.9)))
        };

        let mut model = Mlp::new(&widths, &mut rng);
        let mut expected = model.clone();
        let mut expected_rng = rng.clone();
        let history = Trainer::new(config).fit(&mut model, &dataset, optimizer().as_mut(), loss, &mut rng);
        let expected_history = reference_fit(
            &config, &mut expected, &reference_set, optimizer().as_mut(), loss, &mut expected_rng,
        );

        prop_assert_eq!(all_bits(&history.train_loss), all_bits(&expected_history.train_loss));
        prop_assert_eq!(all_bits(&history.test_loss), all_bits(&expected_history.test_loss));
        for (got, want) in model.layers().iter().zip(expected.layers()) {
            prop_assert_eq!(all_bits(got.weight().as_slice()), all_bits(want.weight().as_slice()));
            prop_assert_eq!(all_bits(got.bias()), all_bits(want.bias()));
        }
        prop_assert_eq!(rng.next_u64(), expected_rng.next_u64());
        // And the layout the forward reads is the trained one.
        let x = row(&mut rng, widths[0]);
        prop_assert_eq!(all_bits(&model.predict(&x)), all_bits(&ref_forward(&model, &x)));
    }

    /// No mutation path leaves the forward pass reading old weights: after
    /// an optimizer step of either kind and after a direct
    /// `Linear::update`, `forward` equals the reference forward on the
    /// weights the layers hold now. (`mm-search`'s DDPG soft update, the
    /// other caller of `update`, has the same test beside it.)
    #[test]
    fn forward_follows_every_weight_mutation(seed in 0u64..u64::MAX) {
        let mut rng = StdRng::seed_from_u64(seed);
        let widths = [rng.gen_range(1usize..9), rng.gen_range(1usize..40), rng.gen_range(1usize..5)];
        let mut net = Mlp::new(&widths, &mut rng);
        let x = awkward_values(&mut rng, 3 * widths[0], false);
        let y = Matrix::from_vec(3, widths[2], awkward_values(&mut rng, 3 * widths[2], false));
        let mut optimizers: [Box<dyn Optimizer>; 2] = [Box::new(Adam::new(0.05)), Box::new(Sgd::new(0.05, 0.9))];
        for optimizer in &mut optimizers {
            let (_, grads) = ref_step(&net, Loss::Mse, &Matrix::from_vec(3, widths[0], x.clone()), &y);
            let before = net.clone();
            optimizer.step(&mut net, &grads);
            prop_assert!(net != before, "the step moved the weights");
            let got = net.forward(&Matrix::from_vec(3, widths[0], x.clone()));
            prop_assert_eq!(all_bits(got.as_slice()), all_bits(&ref_forward(&net, &x)));
        }
        for layer in net.layers_mut() {
            layer.update(|weight, bias| {
                weight.iter_mut().for_each(|w| *w = 0.5 - *w);
                bias.iter_mut().for_each(|b| *b += 0.25);
            });
        }
        let got = net.forward(&Matrix::from_vec(3, widths[0], x.clone()));
        prop_assert_eq!(all_bits(got.as_slice()), all_bits(&ref_forward(&net, &x)));
    }
}
