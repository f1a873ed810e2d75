//! Property-based gradient checks: for randomly shaped MLPs and random
//! inputs, analytic input gradients must agree with central finite
//! differences, and training must never produce NaNs.

use mm_nn::optim::Sgd;
use mm_nn::{Dataset, Loss, Matrix, Mlp, Normalizer, TrainConfig, Trainer};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

proptest! {
    #![proptest_config(ProptestConfig::with_cases_env(32))]

    /// Input gradients of a random MLP match central finite differences for
    /// a random linear functional of the outputs.
    #[test]
    fn input_gradient_matches_central_difference(
        seed in 0u64..u64::MAX,
        input_dim in 2usize..8,
        hidden in 4usize..24,
        output_dim in 1usize..5,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        // Use tanh hidden units: the check compares against finite
        // differences, which are only reliable for smooth activations (ReLU
        // kinks are exercised by the unit tests in `mm_nn::layer`).
        let net = Mlp::with_activations(
            &[input_dim, hidden, output_dim],
            mm_nn::Activation::Tanh,
            mm_nn::Activation::Identity,
            &mut rng,
        );
        use rand::Rng;
        let x: Vec<f32> = (0..input_dim).map(|_| rng.gen_range(-1.0f32..1.0)).collect();
        let w: Vec<f32> = (0..output_dim).map(|_| rng.gen_range(-1.0f32..1.0)).collect();
        let grad = net.input_gradient(&x, &w);
        prop_assert_eq!(grad.len(), input_dim);

        let objective = |xx: &[f32]| -> f64 {
            net.predict(xx).iter().zip(&w).map(|(o, wi)| (o * wi) as f64).sum()
        };
        let eps = 1e-2f32;
        for i in 0..input_dim {
            let mut hi = x.clone();
            let mut lo = x.clone();
            hi[i] += eps;
            lo[i] -= eps;
            let fd = (objective(&hi) - objective(&lo)) / (2.0 * eps as f64);
            prop_assert!(
                (fd - grad[i] as f64).abs() < 0.05 * (1.0 + grad[i].abs() as f64),
                "feature {}: fd {} vs analytic {}", i, fd, grad[i]
            );
        }
    }

    /// A few SGD steps on random regression data keep every parameter finite.
    #[test]
    fn training_never_produces_nans(
        seed in 0u64..u64::MAX,
        n in 8usize..64,
        lr in 0.001f32..0.2,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        use rand::Rng;
        let xs: Vec<Vec<f32>> = (0..n).map(|_| vec![rng.gen_range(-2.0f32..2.0), rng.gen_range(-2.0f32..2.0)]).collect();
        let ys: Vec<Vec<f32>> = xs.iter().map(|x| vec![x[0] * 0.5 - x[1]]).collect();
        let ds = Dataset::new(xs, ys).unwrap();
        let mut model = Mlp::new(&[2, 8, 1], &mut rng);
        let mut trainer = Trainer::new(TrainConfig {
            epochs: 5,
            batch_size: 8,
            test_fraction: 0.2,
            lr_schedule: None,
        });
        let hist = trainer.fit(&mut model, &ds, &mut Sgd::new(lr, 0.9), Loss::default_huber(), &mut rng);
        prop_assert!(hist.final_train_loss().is_finite());
        for layer in model.layers() {
            prop_assert!(layer.weight().as_slice().iter().all(|v| v.is_finite()));
            prop_assert!(layer.bias().iter().all(|v| v.is_finite()));
        }
    }

    /// Normalizer round-trips arbitrary data within floating-point tolerance.
    #[test]
    fn normalizer_roundtrip_property(
        rows in prop::collection::vec(prop::collection::vec(-1e3f32..1e3, 3), 2..40)
    ) {
        let norm = Normalizer::fit(&Matrix::from_rows(&rows));
        for r in &rows {
            let back = norm.inverse(&norm.transform(r));
            for (a, b) in back.iter().zip(r) {
                prop_assert!((a - b).abs() < 1e-2 * (1.0 + b.abs()));
            }
        }
    }

    /// Loss gradients always point "uphill": stepping predictions against the
    /// gradient reduces the loss (for a small enough step).
    #[test]
    fn loss_gradient_descends(
        p in prop::collection::vec(-10.0f32..10.0, 4),
        t in prop::collection::vec(-10.0f32..10.0, 4),
    ) {
        for loss in [Loss::Mse, Loss::Mae, Loss::default_huber()] {
            let pm = Matrix::from_vec(1, 4, p.clone());
            let tm = Matrix::from_vec(1, 4, t.clone());
            let mut g = Matrix::default();
            loss.gradient_into(&pm, &tm, &mut g);
            let before = loss.value(&pm, &tm);
            let mut stepped = pm.clone();
            for (s, gv) in stepped.as_mut_slice().iter_mut().zip(g.as_slice()) {
                *s -= 0.01 * gv;
            }
            let after = loss.value(&stepped, &tm);
            prop_assert!(after <= before + 1e-6, "{loss}: {before} -> {after}");
        }
    }
}
