//! Datasets and z-score normalization.
//!
//! Section 4.1.2/4.1.3 normalizes every input value and every output value to
//! zero mean and unit standard deviation over the training set ("input
//! whitening"); [`Normalizer`] implements exactly that, and [`Dataset`]
//! holds the examples once, as two flat row-major matrices that are
//! normalized in place, split by index and gathered into mini-batches.

use rand::seq::SliceRandom;
use rand::Rng;
use serde::{Deserialize, Serialize};

use crate::matrix::Matrix;
use crate::NnError;

/// Per-feature z-score normalizer: `x' = (x - mean) / std`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Normalizer {
    mean: Vec<f32>,
    std: Vec<f32>,
}

impl Normalizer {
    /// Fit a normalizer to a set of feature vectors.
    ///
    /// Features with (near-)zero variance get a standard deviation of 1 so
    /// that normalization is always well defined.
    ///
    /// # Panics
    ///
    /// Panics if `rows` has no rows.
    pub fn fit(rows: &Matrix) -> Self {
        assert!(rows.rows() > 0, "cannot fit a normalizer to no data");
        let dim = rows.cols();
        let n = rows.rows() as f64;
        let each_row = || rows.as_slice().chunks_exact(dim.max(1));
        let mut mean = vec![0.0f64; dim];
        for row in each_row() {
            for (m, &v) in mean.iter_mut().zip(row) {
                *m += v as f64;
            }
        }
        for m in &mut mean {
            *m /= n;
        }
        let mut var = vec![0.0f64; dim];
        for row in each_row() {
            for ((s, &v), m) in var.iter_mut().zip(row).zip(&mean) {
                let d = v as f64 - m;
                *s += d * d;
            }
        }
        let std: Vec<f32> = var
            .iter()
            .map(|&s| {
                let sd = (s / n).sqrt();
                if sd < 1e-8 {
                    1.0
                } else {
                    sd as f32
                }
            })
            .collect();
        Normalizer {
            mean: mean.iter().map(|&m| m as f32).collect(),
            std,
        }
    }

    /// Identity normalizer for `dim` features (mean 0, std 1).
    pub fn identity(dim: usize) -> Self {
        Normalizer {
            mean: vec![0.0; dim],
            std: vec![1.0; dim],
        }
    }

    /// Number of features.
    pub fn dim(&self) -> usize {
        self.mean.len()
    }

    /// Normalize one vector.
    pub fn transform(&self, x: &[f32]) -> Vec<f32> {
        let mut out = x.to_vec();
        self.transform_in_place(&mut out);
        out
    }

    /// In-place form of [`transform`](Self::transform).
    // mm-lint: hot-path — one call per gradient-search step.
    pub fn transform_in_place(&self, x: &mut [f32]) {
        for ((v, &m), &s) in x.iter_mut().zip(&self.mean).zip(&self.std) {
            *v = (*v - m) / s;
        }
    }

    /// Invert the normalization of one vector.
    pub fn inverse(&self, x: &[f32]) -> Vec<f32> {
        x.iter()
            .zip(&self.mean)
            .zip(&self.std)
            .map(|((&v, &m), &s)| v * s + m)
            .collect()
    }

    /// Invert a single feature.
    pub fn inverse_feature(&self, index: usize, value: f32) -> f32 {
        value * self.std[index] + self.mean[index]
    }

    /// Scale a gradient expressed w.r.t. normalized inputs back to the raw
    /// input space (`d/dx = d/dx' · 1/std`).
    pub fn gradient_to_raw(&self, grad_normalized: &[f32]) -> Vec<f32> {
        grad_normalized
            .iter()
            .zip(&self.std)
            .map(|(&g, &s)| g / s)
            .collect()
    }
}

/// A supervised dataset of `(input, target)` vector pairs, one row of each
/// matrix per example.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Dataset {
    inputs: Matrix,
    targets: Matrix,
}

impl Dataset {
    /// Create a dataset from one row per example.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::BadDataset`] if the lists are empty, have different
    /// lengths, or rows have inconsistent dimensions.
    pub fn new(inputs: Vec<Vec<f32>>, targets: Vec<Vec<f32>>) -> Result<Self, NnError> {
        let in_dim = inputs.first().map_or(0, Vec::len);
        let out_dim = targets.first().map_or(0, Vec::len);
        if inputs.iter().any(|r| r.len() != in_dim) || targets.iter().any(|r| r.len() != out_dim) {
            return Err(NnError::BadDataset {
                what: "inconsistent row dimensions".to_string(),
            });
        }
        Self::from_matrices(Matrix::from_rows(&inputs), Matrix::from_rows(&targets))
    }

    /// Create a dataset from the two flat matrices, one row per example.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::BadDataset`] if the matrices are empty or their
    /// row counts differ.
    pub fn from_matrices(inputs: Matrix, targets: Matrix) -> Result<Self, NnError> {
        if inputs.rows() == 0 || inputs.rows() != targets.rows() {
            return Err(NnError::BadDataset {
                what: format!(
                    "{} inputs vs {} targets (must be equal and nonzero)",
                    inputs.rows(),
                    targets.rows()
                ),
            });
        }
        Ok(Dataset { inputs, targets })
    }

    /// Number of examples.
    pub fn len(&self) -> usize {
        self.inputs.rows()
    }

    /// Whether the dataset is empty (never true for constructed datasets).
    pub fn is_empty(&self) -> bool {
        self.inputs.rows() == 0
    }

    /// Input dimensionality.
    pub fn input_dim(&self) -> usize {
        self.inputs.cols()
    }

    /// Target dimensionality.
    pub fn target_dim(&self) -> usize {
        self.targets.cols()
    }

    /// The inputs, one row per example.
    pub fn inputs(&self) -> &Matrix {
        &self.inputs
    }

    /// The targets, one row per example.
    pub fn targets(&self) -> &Matrix {
        &self.targets
    }

    /// Normalize both inputs and targets in place.
    pub fn normalize(&mut self, input_norm: &Normalizer, target_norm: &Normalizer) {
        for (matrix, norm) in [
            (&mut self.inputs, input_norm),
            (&mut self.targets, target_norm),
        ] {
            let dim = matrix.cols().max(1);
            for row in matrix.as_mut_slice().chunks_exact_mut(dim) {
                norm.transform_in_place(row);
            }
        }
    }

    /// Split into the example indices of `(train, test)` with the given test
    /// fraction, shuffling with `rng` first.
    pub fn split<R: Rng + ?Sized>(
        &self,
        test_fraction: f64,
        rng: &mut R,
    ) -> (Vec<usize>, Vec<usize>) {
        let mut idx: Vec<usize> = (0..self.len()).collect();
        idx.shuffle(rng);
        let n_test = ((self.len() as f64) * test_fraction).round() as usize;
        let n_test = n_test.clamp(1, self.len().saturating_sub(1).max(1));
        let train = idx.split_off(n_test.min(self.len()));
        (train, idx)
    }

    /// Gather the examples at `indices`, in that order, into the matrices
    /// `x` and `y`, which are reshaped (their allocations reused) and
    /// overwritten.
    // mm-lint: hot-path — one call per training step.
    pub fn gather_into(&self, indices: &[usize], x: &mut Matrix, y: &mut Matrix) {
        for (from, to) in [(&self.inputs, x), (&self.targets, y)] {
            to.reset(indices.len(), from.cols());
            let dim = from.cols().max(1);
            for (row, &i) in to.as_mut_slice().chunks_exact_mut(dim).zip(indices) {
                row.copy_from_slice(from.row(i));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn normalizer_zero_mean_unit_std() {
        let rows = vec![vec![1.0, 10.0], vec![3.0, 20.0], vec![5.0, 30.0]];
        let norm = Normalizer::fit(&Matrix::from_rows(&rows));
        let transformed: Vec<Vec<f32>> = rows.iter().map(|r| norm.transform(r)).collect();
        for j in 0..2 {
            let mean: f32 = transformed.iter().map(|r| r[j]).sum::<f32>() / 3.0;
            let var: f32 = transformed
                .iter()
                .map(|r| (r[j] - mean).powi(2))
                .sum::<f32>()
                / 3.0;
            assert!(mean.abs() < 1e-5);
            assert!((var - 1.0).abs() < 1e-4);
        }
    }

    #[test]
    fn normalizer_roundtrip() {
        let rows = vec![
            vec![1.0, -5.0, 3.0],
            vec![2.0, 0.0, 9.0],
            vec![0.5, 5.0, -3.0],
        ];
        let norm = Normalizer::fit(&Matrix::from_rows(&rows));
        for r in &rows {
            let back = norm.inverse(&norm.transform(r));
            for (a, b) in back.iter().zip(r) {
                assert!((a - b).abs() < 1e-4);
            }
        }
        assert!((norm.inverse_feature(0, norm.transform(&rows[0])[0]) - 1.0).abs() < 1e-4);
    }

    #[test]
    fn normalizer_handles_constant_features() {
        let norm = Normalizer::fit(&Matrix::from_vec(3, 1, vec![7.0; 3]));
        let t = norm.transform(&[7.0]);
        assert_eq!(t[0], 0.0);
        assert_eq!(norm.inverse(&t)[0], 7.0);
    }

    #[test]
    fn gradient_to_raw_divides_by_std() {
        let norm = Normalizer::fit(&Matrix::from_vec(2, 1, vec![0.0, 10.0])); // std = 5
        let g = norm.gradient_to_raw(&[1.0]);
        assert!((g[0] - 0.2).abs() < 1e-6);
    }

    #[test]
    fn dataset_construction_and_split() {
        let xs: Vec<Vec<f32>> = (0..20).map(|i| vec![i as f32]).collect();
        let ys: Vec<Vec<f32>> = (0..20).map(|i| vec![2.0 * i as f32]).collect();
        let ds = Dataset::new(xs, ys).unwrap();
        assert_eq!(ds.len(), 20);
        assert_eq!(ds.input_dim(), 1);
        assert_eq!(ds.target_dim(), 1);
        let mut rng = StdRng::seed_from_u64(0);
        let (train, test) = ds.split(0.25, &mut rng);
        assert_eq!(test.len(), 5);
        // Every example lands on exactly one side.
        let mut all: Vec<usize> = train.iter().chain(&test).copied().collect();
        all.sort_unstable();
        assert_eq!(all, (0..20).collect::<Vec<_>>());
    }

    #[test]
    fn dataset_rejects_mismatched_lengths() {
        assert!(Dataset::new(vec![vec![1.0]], vec![]).is_err());
        assert!(Dataset::new(vec![vec![1.0], vec![1.0, 2.0]], vec![vec![1.0]; 2]).is_err());
        assert!(Dataset::new(vec![], vec![]).is_err());
    }

    #[test]
    fn batch_materialization() {
        let xs: Vec<Vec<f32>> = (0..4).map(|i| vec![i as f32, 1.0]).collect();
        let ys: Vec<Vec<f32>> = (0..4).map(|i| vec![i as f32 * 3.0]).collect();
        let ds = Dataset::new(xs, ys).unwrap();
        // Into buffers that held a larger batch of another shape.
        let (mut bx, mut by) = (Matrix::zeros(3, 5), Matrix::zeros(3, 5));
        ds.gather_into(&[0, 2], &mut bx, &mut by);
        assert_eq!((bx.rows(), bx.cols()), (2, 2));
        assert_eq!(bx.as_slice(), &[0.0, 1.0, 2.0, 1.0]);
        assert_eq!((by.rows(), by.cols()), (2, 1));
        assert_eq!(by.get(1, 0), 6.0);
        assert_eq!(ds.inputs().rows(), 4);
        assert_eq!(ds.targets().rows(), 4);
    }

    #[test]
    fn normalized_dataset_statistics() {
        let xs: Vec<Vec<f32>> = (0..50).map(|i| vec![i as f32, 100.0 - i as f32]).collect();
        let ys: Vec<Vec<f32>> = (0..50).map(|i| vec![(i * i) as f32]).collect();
        let mut ds = Dataset::new(xs, ys).unwrap();
        let (inorm, tnorm) = (Normalizer::fit(ds.inputs()), Normalizer::fit(ds.targets()));
        let first = inorm.transform(ds.inputs().row(0));
        ds.normalize(&inorm, &tnorm);
        assert_eq!(ds.inputs().row(0), &first[..]);
        let mean0: f32 = (0..50).map(|r| ds.inputs().get(r, 0)).sum::<f32>() / 50.0;
        assert!(mean0.abs() < 1e-4);
        let mean_y: f32 = (0..50).map(|r| ds.targets().get(r, 0)).sum::<f32>() / 50.0;
        assert!(mean_y.abs() < 1e-4);
    }
}
