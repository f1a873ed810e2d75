//! Phase 1, step 2: the differentiable surrogate `f*(m, p_id)`
//! (Section 4.1.2–4.1.3).
//!
//! The surrogate is an MLP whose input is the whitened
//! `problem-id ⊕ mapping` vector and whose output is the whitened,
//! lower-bound-normalized meta-statistics vector (per-level/per-tensor
//! energy, utilization, cycles, total energy). Because the MLP is
//! differentiable end-to-end, the gradient of the *predicted EDP* with
//! respect to the mapping values is available in closed form — that gradient
//! is what Phase 2 descends.

use mm_accel::{AlgorithmicMinimum, Architecture};
use mm_mapspace::{Encoding, Mapping, ProblemSpec};
use mm_nn::optim::Sgd;
use mm_nn::{
    BackwardScratch, Dataset, ForwardCache, Mlp, Normalizer, TrainConfig, TrainHistory, Trainer,
};
use rand::Rng;
use serde::{Deserialize, Serialize};

use crate::config::Phase1Config;
use crate::dataset::SurrogateDataset;
use crate::MindMappingsError;

/// A trained surrogate cost model for one (architecture, algorithm family)
/// pair.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Surrogate {
    mlp: Mlp,
    input_norm: Normalizer,
    output_norm: Normalizer,
    num_dims: usize,
    num_tensors: usize,
    arch: Architecture,
}

/// Reusable buffers of [`Surrogate::normalized_edp_gradient_into`].
#[derive(Debug, Clone, Default)]
pub struct GradientScratch {
    /// dEDP/d output: zero everywhere but the energy and cycles neurons.
    output_weights: Vec<f32>,
    backward: BackwardScratch,
}

impl Surrogate {
    /// Train a surrogate on a generated dataset (Section 4.1: supervised
    /// regression with whitened inputs/outputs and — by default — the Huber
    /// loss and SGD with momentum).
    ///
    /// # Errors
    ///
    /// Returns [`MindMappingsError::Training`] if the dataset is empty.
    pub fn train<R: Rng>(
        arch: Architecture,
        dataset: &SurrogateDataset,
        config: &Phase1Config,
        rng: &mut R,
    ) -> Result<(Self, TrainHistory), MindMappingsError> {
        Self::train_owned(arch, dataset.clone(), config, rng)
    }

    /// [`train`](Self::train) on a dataset the caller is done with: the
    /// samples are whitened where they lie, so training holds them once.
    pub(crate) fn train_owned<R: Rng>(
        arch: Architecture,
        dataset: SurrogateDataset,
        config: &Phase1Config,
        rng: &mut R,
    ) -> Result<(Self, TrainHistory), MindMappingsError> {
        if dataset.is_empty() {
            return Err(MindMappingsError::Training {
                what: "empty dataset".to_string(),
            });
        }
        let (num_dims, num_tensors) = (dataset.num_dims, dataset.num_tensors);
        let input_norm = Normalizer::fit(&dataset.inputs);
        let output_norm = Normalizer::fit(&dataset.targets);
        let mut normalized =
            Dataset::from_matrices(dataset.inputs, dataset.targets).map_err(|e| {
                MindMappingsError::Training {
                    what: e.to_string(),
                }
            })?;
        normalized.normalize(&input_norm, &output_norm);

        let mut widths = Vec::with_capacity(config.hidden_layers.len() + 2);
        widths.push(normalized.input_dim());
        widths.extend_from_slice(&config.hidden_layers);
        widths.push(normalized.target_dim());
        let mut mlp = Mlp::new(&widths, rng);

        let mut trainer = Trainer::new(TrainConfig {
            epochs: config.epochs,
            batch_size: config.batch_size,
            test_fraction: config.test_fraction,
            lr_schedule: config.lr_schedule,
        });
        let mut optimizer = Sgd::new(config.learning_rate, config.momentum);
        let history = trainer.fit(&mut mlp, &normalized, &mut optimizer, config.loss, rng);

        Ok((
            Surrogate {
                mlp,
                input_norm,
                output_norm,
                num_dims,
                num_tensors,
                arch,
            },
            history,
        ))
    }

    /// The architecture this surrogate models.
    pub fn arch(&self) -> &Architecture {
        &self.arch
    }

    /// The trained MLP (read-only).
    pub fn mlp(&self) -> &Mlp {
        &self.mlp
    }

    /// Number of problem dimensions of the family the surrogate was trained
    /// on.
    pub fn num_dims(&self) -> usize {
        self.num_dims
    }

    /// Number of tensors of the family.
    pub fn num_tensors(&self) -> usize {
        self.num_tensors
    }

    /// The encoding used for mapping vectors.
    pub fn encoding(&self) -> Encoding {
        Encoding {
            num_dims: self.num_dims,
            num_tensors: self.num_tensors,
        }
    }

    /// Check that `problem` has the same shape as the training family.
    ///
    /// # Errors
    ///
    /// Returns [`MindMappingsError::FamilyMismatch`] when the dimension or
    /// tensor counts differ.
    pub fn check_problem(&self, problem: &ProblemSpec) -> Result<(), MindMappingsError> {
        if problem.num_dims() != self.num_dims || problem.num_tensors() != self.num_tensors {
            return Err(MindMappingsError::FamilyMismatch {
                what: format!(
                    "surrogate trained for {} dims / {} tensors, problem '{}' has {} / {}",
                    self.num_dims,
                    self.num_tensors,
                    problem.name,
                    problem.num_dims(),
                    problem.num_tensors()
                ),
            });
        }
        Ok(())
    }

    // ------------------------------------------------------------------
    // Normalized-space encoding helpers used by Phase 2
    // ------------------------------------------------------------------

    /// Encode a mapping (plus problem id) into the surrogate's whitened input
    /// space.
    pub fn encode_normalized(&self, problem: &ProblemSpec, mapping: &Mapping) -> Vec<f32> {
        let mut x = Vec::with_capacity(self.encoding().total_len());
        self.encode_normalized_into(problem, mapping, &mut x);
        x
    }

    /// In-place form of [`encode_normalized`](Self::encode_normalized): `x`
    /// is overwritten (its allocation reused).
    // mm-lint: hot-path — one call per gradient-search step.
    pub fn encode_normalized_into(
        &self,
        problem: &ProblemSpec,
        mapping: &Mapping,
        x: &mut Vec<f32>,
    ) {
        self.encoding().encode_into(problem, mapping, x);
        self.input_norm.transform_in_place(x);
    }

    /// Extract the raw (un-whitened) mapping portion of a whitened input
    /// vector; the result can be fed to
    /// [`MapSpace::project`](mm_mapspace::MapSpace::project).
    pub fn decode_normalized(&self, x_normalized: &[f32]) -> Vec<f32> {
        let mut raw = Vec::with_capacity(self.encoding().mapping_len());
        self.decode_normalized_into(x_normalized, &mut raw);
        raw
    }

    /// In-place form of [`decode_normalized`](Self::decode_normalized):
    /// `raw_mapping` is overwritten (its allocation reused).
    // mm-lint: hot-path — one call per gradient-search step.
    pub fn decode_normalized_into(&self, x_normalized: &[f32], raw_mapping: &mut Vec<f32>) {
        raw_mapping.clear();
        raw_mapping.extend(
            x_normalized
                .iter()
                .enumerate()
                .skip(self.encoding().mapping_offset())
                .map(|(i, &v)| self.input_norm.inverse_feature(i, v)),
        );
    }

    // ------------------------------------------------------------------
    // Prediction
    // ------------------------------------------------------------------

    /// Predict the (de-normalized, lower-bound-relative) meta-statistics
    /// vector for a mapping.
    pub fn predict_meta(&self, problem: &ProblemSpec, mapping: &Mapping) -> Vec<f64> {
        let x = self.encode_normalized(problem, mapping);
        let z = self.mlp.predict(&x);
        self.output_norm
            .inverse(&z)
            .iter()
            .map(|&v| crate::dataset::denormalize_meta_element(v as f64))
            .collect()
    }

    /// Index of the relative-cycles output neuron.
    fn cycles_index(&self) -> usize {
        3 * self.num_tensors + 1
    }

    /// Index of the relative-total-energy output neuron.
    fn energy_index(&self) -> usize {
        3 * self.num_tensors + 2
    }

    /// Predicted EDP normalized to the problem's algorithmic minimum (the
    /// quantity Phase 2 minimizes, and the `y`-axis of Figures 5/6).
    pub fn predict_normalized_edp(&self, problem: &ProblemSpec, mapping: &Mapping) -> f64 {
        let x = self.encode_normalized(problem, mapping);
        self.predict_normalized_edp_from_input(&x)
    }

    /// Predicted absolute EDP in joule-seconds.
    pub fn predict_edp(&self, problem: &ProblemSpec, mapping: &Mapping) -> f64 {
        let lb = AlgorithmicMinimum::compute(&self.arch, problem);
        self.predict_normalized_edp(problem, mapping) * lb.edp
    }

    /// Predicted normalized EDP directly from a whitened input vector.
    pub fn predict_normalized_edp_from_input(&self, x_normalized: &[f32]) -> f64 {
        self.predict_normalized_edp_into(x_normalized, &mut ForwardCache::default())
    }

    /// In-place form of
    /// [`predict_normalized_edp_from_input`](Self::predict_normalized_edp_from_input):
    /// one forward pass whose activations stay in `cache` (overwritten, its
    /// allocations reused), where
    /// [`normalized_edp_gradient_into`](Self::normalized_edp_gradient_into)
    /// finds them.
    // mm-lint: hot-path — one call per gradient-search step.
    pub fn predict_normalized_edp_into(
        &self,
        x_normalized: &[f32],
        cache: &mut ForwardCache,
    ) -> f64 {
        self.mlp.forward_into(1, x_normalized, cache);
        let (rel_energy, rel_cycles, _, _) =
            self.energy_cycles_from_output(cache.output().as_slice());
        // EDP relative to the lower bound is the product of the relative
        // energy and relative delay.
        rel_energy * rel_cycles
    }

    /// Predicted normalized EDP for a whole batch of mappings in **one**
    /// forward pass ([`Mlp::predict_batch`]) — the surrogate's
    /// `evaluate_batch` fast path: one matrix traversal of the network
    /// instead of one per mapping.
    pub fn predict_normalized_edp_batch(
        &self,
        problem: &ProblemSpec,
        mappings: &[Mapping],
    ) -> Vec<f64> {
        let xs: Vec<Vec<f32>> = mappings
            .iter()
            .map(|m| self.encode_normalized(problem, m))
            .collect();
        self.mlp
            .predict_batch(&xs)
            .iter()
            .map(|z| {
                let (rel_energy, rel_cycles, _, _) = self.energy_cycles_from_output(z);
                rel_energy * rel_cycles
            })
            .collect()
    }

    /// Decode one network-output row into lower-bound-relative energy and
    /// cycles, plus the z-space standard deviations of the two neurons
    /// (needed by the chain rule in
    /// [`normalized_edp_gradient_into`](Self::normalized_edp_gradient_into)).
    fn energy_cycles_from_output(&self, z: &[f32]) -> (f64, f64, f64, f64) {
        let ci = self.cycles_index();
        let ei = self.energy_index();
        // Invert z-scoring, then the ln(1 + x) target transform; clamp at a
        // small positive value since the network can extrapolate below zero
        // early in training.
        let log_cycles = self.output_norm.inverse_feature(ci, z[ci]) as f64;
        let log_energy = self.output_norm.inverse_feature(ei, z[ei]) as f64;
        let rel_cycles = crate::dataset::denormalize_meta_element(log_cycles).max(1e-6);
        let rel_energy = crate::dataset::denormalize_meta_element(log_energy).max(1e-6);
        let std_e = (self.output_norm.inverse_feature(ei, 1.0)
            - self.output_norm.inverse_feature(ei, 0.0)) as f64;
        let std_c = (self.output_norm.inverse_feature(ci, 1.0)
            - self.output_norm.inverse_feature(ci, 0.0)) as f64;
        (rel_energy, rel_cycles, std_e, std_c)
    }

    /// Gradient of the predicted normalized EDP with respect to the whitened
    /// input vector (problem id ⊕ mapping). Phase 2 only applies the mapping
    /// portion (the problem id is held fixed, Section 4.2).
    pub fn normalized_edp_gradient(&self, x_normalized: &[f32]) -> Vec<f32> {
        let mut cache = ForwardCache::default();
        self.predict_normalized_edp_into(x_normalized, &mut cache);
        self.normalized_edp_gradient_into(&cache, &mut GradientScratch::default())
            .to_vec()
    }

    /// In-place form of
    /// [`normalized_edp_gradient`](Self::normalized_edp_gradient): the
    /// backward pass alone, from the activations
    /// [`predict_normalized_edp_into`](Self::predict_normalized_edp_into)
    /// left in `cache`. The gradient is borrowed from `scratch`.
    // mm-lint: hot-path — one call per gradient-search step.
    pub fn normalized_edp_gradient_into<'s>(
        &self,
        cache: &ForwardCache,
        scratch: &'s mut GradientScratch,
    ) -> &'s [f32] {
        let ci = self.cycles_index();
        let ei = self.energy_index();
        let (rel_energy, rel_cycles, std_e, std_c) =
            self.energy_cycles_from_output(cache.output().as_slice());
        // EDP = E · C with E = exp(std_E·z_E + mean_E) − 1 (and likewise C),
        // so dEDP/dz_E = C · std_E · (E + 1) and dEDP/dz_C = E · std_C · (C + 1).
        // Both terms are linear in the network output, so a single backward
        // pass with the combined output weights suffices.
        let weights = &mut scratch.output_weights;
        weights.clear();
        weights.resize(self.mlp.output_dim(), 0.0);
        weights[ei] = (rel_cycles * std_e * (rel_energy + 1.0)) as f32;
        weights[ci] = (rel_energy * std_c * (rel_cycles + 1.0)) as f32;
        self.mlp
            .backward_input(cache, weights, &mut scratch.backward)
            .as_slice()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dataset::generate_training_set;
    use mm_accel::CostModel;
    use mm_mapspace::MapSpace;
    use mm_nn::Matrix;
    use mm_workloads::conv1d::Conv1dFamily;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn quick_surrogate(seed: u64) -> (Surrogate, Architecture) {
        let arch = Architecture::example();
        let fam = Conv1dFamily::default();
        let mut rng = StdRng::seed_from_u64(seed);
        let ds = generate_training_set(&arch, &fam, 1500, 50, &mut rng).unwrap();
        let cfg = Phase1Config {
            num_samples: 1500,
            hidden_layers: vec![48, 48],
            epochs: 25,
            batch_size: 64,
            ..Phase1Config::quick()
        };
        let (s, hist) = Surrogate::train(arch.clone(), &ds, &cfg, &mut rng).unwrap();
        assert!(hist.final_train_loss().is_finite());
        (s, arch)
    }

    #[test]
    fn training_produces_finite_decreasing_loss() {
        let arch = Architecture::example();
        let fam = Conv1dFamily::default();
        let mut rng = StdRng::seed_from_u64(1);
        let ds = generate_training_set(&arch, &fam, 800, 40, &mut rng).unwrap();
        let cfg = Phase1Config {
            hidden_layers: vec![32, 32],
            epochs: 15,
            ..Phase1Config::quick()
        };
        let (_s, hist) = Surrogate::train(arch, &ds, &cfg, &mut rng).unwrap();
        assert_eq!(hist.train_loss.len(), 15);
        assert!(hist.final_train_loss() < hist.train_loss[0]);
    }

    #[test]
    fn rejects_empty_dataset() {
        let arch = Architecture::example();
        let ds = SurrogateDataset {
            inputs: Matrix::default(),
            targets: Matrix::default(),
            num_dims: 2,
            num_tensors: 3,
        };
        let mut rng = StdRng::seed_from_u64(0);
        assert!(Surrogate::train(arch, &ds, &Phase1Config::quick(), &mut rng).is_err());
    }

    #[test]
    fn predictions_have_expected_shapes_and_signs() {
        let (s, arch) = quick_surrogate(2);
        let problem = ProblemSpec::conv1d(777, 5);
        let space = MapSpace::new(problem.clone(), arch.mapping_constraints());
        let mut rng = StdRng::seed_from_u64(3);
        let m = space.random_mapping(&mut rng);
        let meta = s.predict_meta(&problem, &m);
        assert_eq!(meta.len(), 12);
        let edp = s.predict_normalized_edp(&problem, &m);
        assert!(edp.is_finite() && edp > 0.0);
        assert!(s.predict_edp(&problem, &m) > 0.0);
    }

    #[test]
    fn batch_prediction_matches_singles() {
        let (s, arch) = quick_surrogate(11);
        let problem = ProblemSpec::conv1d(640, 5);
        let space = MapSpace::new(problem.clone(), arch.mapping_constraints());
        let mut rng = StdRng::seed_from_u64(12);
        let mappings: Vec<_> = (0..16).map(|_| space.random_mapping(&mut rng)).collect();
        let batched = s.predict_normalized_edp_batch(&problem, &mappings);
        assert_eq!(batched.len(), 16);
        for (m, b) in mappings.iter().zip(&batched) {
            assert_eq!(s.predict_normalized_edp(&problem, m), *b);
        }
        assert!(s.predict_normalized_edp_batch(&problem, &[]).is_empty());
    }

    #[test]
    fn surrogate_correlates_with_true_cost() {
        // The surrogate must rank mappings better than chance: across random
        // pairs, predicted ordering should agree with true ordering clearly
        // more than 50% of the time.
        let (s, arch) = quick_surrogate(4);
        let problem = ProblemSpec::conv1d(1024, 5);
        let space = MapSpace::new(problem.clone(), arch.mapping_constraints());
        let model = CostModel::new(arch, problem.clone());
        let mut rng = StdRng::seed_from_u64(5);
        let mut agree = 0;
        let pairs = 150;
        for _ in 0..pairs {
            let a = space.random_mapping(&mut rng);
            let b = space.random_mapping(&mut rng);
            let true_order = model.edp(&a) < model.edp(&b);
            let pred_order =
                s.predict_normalized_edp(&problem, &a) < s.predict_normalized_edp(&problem, &b);
            if true_order == pred_order {
                agree += 1;
            }
        }
        let rate = agree as f64 / pairs as f64;
        assert!(rate > 0.6, "pairwise ranking agreement only {rate}");
    }

    #[test]
    fn gradient_matches_finite_difference_of_predicted_edp() {
        let (s, arch) = quick_surrogate(6);
        let problem = ProblemSpec::conv1d(512, 7);
        let space = MapSpace::new(problem.clone(), arch.mapping_constraints());
        let mut rng = StdRng::seed_from_u64(7);
        let m = space.random_mapping(&mut rng);
        let x = s.encode_normalized(&problem, &m);
        let grad = s.normalized_edp_gradient(&x);
        assert_eq!(grad.len(), x.len());
        let base = s.predict_normalized_edp_from_input(&x);
        let eps = 1e-2f32;
        let mut checked = 0;
        for i in 0..x.len() {
            if grad[i].abs() < 1e-3 {
                continue;
            }
            let mut xp = x.clone();
            xp[i] += eps;
            let fd = (s.predict_normalized_edp_from_input(&xp) - base) / eps as f64;
            assert!(
                (fd - grad[i] as f64).abs() < 0.2 * (1.0 + grad[i].abs() as f64),
                "feature {i}: fd {fd} vs analytic {}",
                grad[i]
            );
            checked += 1;
            if checked > 5 {
                break;
            }
        }
        assert!(checked > 0, "no informative gradient entries found");
    }

    #[test]
    fn check_problem_rejects_wrong_family() {
        let (s, _) = quick_surrogate(8);
        let cnn = mm_workloads::cnn::CnnLayer::resnet_conv4().into_problem();
        assert!(s.check_problem(&cnn).is_err());
        assert!(s.check_problem(&ProblemSpec::conv1d(100, 3)).is_ok());
    }

    #[test]
    fn in_place_encode_and_decode_match_the_encoding_to_the_bit() {
        use mm_mapspace::problem::ProblemFamily;
        use mm_workloads::cnn::CnnFamily;
        use mm_workloads::mttkrp::MttkrpFamily;

        // Hold the in-place encoder to `Encoding::encode` + whitening, and
        // the decoder to the whole-vector inverse, on every family shape (2/3, 7/3, 4/4
        // dims/tensors) through buffers that held another shape before.
        let arch = mm_workloads::evaluated_accelerator();
        let families: [&dyn ProblemFamily; 3] = [
            &Conv1dFamily::default(),
            &CnnFamily::default(),
            &MttkrpFamily::default(),
        ];
        let cfg = Phase1Config {
            hidden_layers: vec![4],
            epochs: 1,
            ..Phase1Config::quick()
        };
        let (mut x, mut raw) = (vec![7.0f32; 99], vec![7.0f32; 99]);
        for (i, family) in families.into_iter().enumerate() {
            let mut rng = StdRng::seed_from_u64(40 + i as u64);
            let ds = generate_training_set(&arch, family, 120, 30, &mut rng).unwrap();
            let (s, _) = Surrogate::train(arch.clone(), &ds, &cfg, &mut rng).unwrap();
            let problem = family.sample_problem(&mut rng);
            let space = MapSpace::new(problem.clone(), arch.mapping_constraints());
            for _ in 0..40 {
                let m = space.random_mapping(&mut rng);
                let expected = s.input_norm.transform(&s.encoding().encode(&problem, &m));
                s.encode_normalized_into(&problem, &m, &mut x);
                let bits = |v: &[f32]| v.iter().map(|f| f.to_bits()).collect::<Vec<_>>();
                assert_eq!(bits(&x), bits(&expected), "{}", family.algorithm());
                assert_eq!(bits(&s.encode_normalized(&problem, &m)), bits(&expected));

                let expected = &s.input_norm.inverse(&x)[s.encoding().mapping_offset()..];
                s.decode_normalized_into(&x, &mut raw);
                assert_eq!(bits(&raw), bits(expected), "{}", family.algorithm());
                assert_eq!(bits(&s.decode_normalized(&x)), bits(expected));
            }
        }
    }

    #[test]
    fn encode_decode_normalized_roundtrip() {
        let (s, arch) = quick_surrogate(9);
        let problem = ProblemSpec::conv1d(300, 5);
        let space = MapSpace::new(problem.clone(), arch.mapping_constraints());
        let mut rng = StdRng::seed_from_u64(10);
        let m = space.random_mapping(&mut rng);
        let x = s.encode_normalized(&problem, &m);
        let raw_mapping = s.decode_normalized(&x);
        let enc = s.encoding();
        assert_eq!(raw_mapping.len(), enc.mapping_len());
        // Projecting the decoded vector must reproduce a valid mapping with
        // the same discrete structure.
        let m2 = space.project(&raw_mapping).unwrap();
        assert_eq!(m.tiles[0], m2.tiles[0]);
        assert_eq!(m.parallel, m2.parallel);
    }
}
