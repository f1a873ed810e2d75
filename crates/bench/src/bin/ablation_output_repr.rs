//! Experiment E10 — output-representation ablation (Section 4.1.3).
//!
//! The paper reports that predicting a rich vector of meta-statistics (and
//! deriving EDP from it) gives a surrogate with 32.8× lower EDP
//! mean-squared error than a surrogate trained to predict EDP directly.
//! This binary trains both variants on identical data and compares their EDP
//! MSE on held-out mappings. Writes `results/ablation_output_repr.csv`.

use mm_accel::CostModel;
use mm_bench::report::{self, fmt, format_table};
use mm_bench::ExperimentScale;
use mm_core::dataset::lower_bound_reference;
use mm_core::{generate_training_set, Surrogate, SurrogateDataset};
use mm_mapspace::MapSpace;
use mm_workloads::cnn::{CnnFamily, CnnLayer};
use mm_workloads::evaluated_accelerator;
use rand::SeedableRng;

fn main() {
    let scale = ExperimentScale::from_env();
    let arch = evaluated_accelerator();
    println!("Output-representation ablation, scale '{}'", scale.name);

    let mut rng = rand::rngs::StdRng::seed_from_u64(0xAB1A);
    println!(
        "generating training data ({} samples)…",
        scale.surrogate_samples
    );
    let meta_dataset = generate_training_set(
        &arch,
        &CnnFamily::default(),
        scale.surrogate_samples,
        scale.mappings_per_problem,
        &mut rng,
    )
    .expect("dataset generation");

    // Scalar-output variant: same inputs, but the target is just the
    // normalized EDP (relative energy x relative cycles), stored under the
    // same ln(1 + x) transform the meta-statistics targets use.
    let t_len = meta_dataset.target_len();
    let scalar_targets: Vec<f32> = meta_dataset
        .targets
        .as_slice()
        .chunks(t_len)
        .map(|t| {
            let energy = mm_core::dataset::denormalize_meta_element(t[t_len - 1] as f64);
            let cycles = mm_core::dataset::denormalize_meta_element(t[t_len - 2] as f64);
            (energy * cycles).ln_1p() as f32
        })
        .collect();
    let scalar_dataset = SurrogateDataset {
        inputs: meta_dataset.inputs.clone(),
        targets: mm_nn::Matrix::from_vec(meta_dataset.len(), 1, scalar_targets),
        num_dims: meta_dataset.num_dims,
        num_tensors: meta_dataset.num_tensors,
    };

    let config = scale.phase1_config();
    println!("training meta-statistics surrogate…");
    let mut rng_a = rand::rngs::StdRng::seed_from_u64(1);
    let (meta_surrogate, _) =
        Surrogate::train(arch.clone(), &meta_dataset, &config, &mut rng_a).expect("training");
    println!("training direct-EDP surrogate…");
    let mut rng_b = rand::rngs::StdRng::seed_from_u64(1);
    let (edp_surrogate, _) =
        Surrogate::train(arch.clone(), &scalar_dataset, &config, &mut rng_b).expect("training");

    // Held-out evaluation on an unseen Table 1 layer.
    let problem = CnnLayer::vgg_conv2().into_problem();
    let space = MapSpace::new(problem.clone(), arch.mapping_constraints());
    let model = CostModel::new(arch.clone(), problem.clone());
    let reference = lower_bound_reference(&arch, &problem);
    let mut eval_rng = rand::rngs::StdRng::seed_from_u64(0xE7A1);
    let n_eval = 400;
    let mut meta_sq = 0.0;
    let mut scalar_sq = 0.0;
    for _ in 0..n_eval {
        let m = space.random_mapping(&mut eval_rng);
        let cost = model.evaluate(&m);
        let true_norm_edp = (cost.total_energy_pj / reference[reference.len() - 1])
            * (cost.cycles / reference[reference.len() - 2]);
        let meta_pred = meta_surrogate.predict_normalized_edp(&problem, &m);
        // The scalar surrogate's single output *is* the normalized EDP; its
        // "cycles" neuron does not exist, so read the raw prediction.
        let scalar_pred = edp_surrogate.predict_meta(&problem, &m)[0];
        meta_sq += (meta_pred - true_norm_edp).powi(2);
        scalar_sq += (scalar_pred - true_norm_edp).powi(2);
    }
    let meta_mse = meta_sq / n_eval as f64;
    let scalar_mse = scalar_sq / n_eval as f64;

    let rows = vec![
        vec!["meta-statistics (12 outputs)".to_string(), fmt(meta_mse)],
        vec!["direct EDP (1 output)".to_string(), fmt(scalar_mse)],
        vec![
            "MSE ratio (direct / meta)".to_string(),
            fmt(scalar_mse / meta_mse.max(1e-12)),
        ],
    ];
    let path = report::write_csv(
        "ablation_output_repr.csv",
        &["surrogate output representation", "EDP MSE (normalized)"],
        &rows,
    )
    .expect("write results");
    println!(
        "{}",
        format_table(&["output representation", "EDP MSE"], &rows)
    );
    println!("(paper: meta-statistics representation gives 32.8x lower EDP MSE)");
    println!("wrote {}", path.display());
}
