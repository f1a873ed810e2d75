//! A small row-major `f32` matrix with exactly the kernels the MLP needs.
//!
//! Deliberately minimal: the surrogate networks are small (a few hundred
//! thousand parameters in the default experiment configuration), so one
//! row-update kernel (`accumulate`) under all three products is adequate,
//! and keeping the type simple makes the backpropagation code easy to audit.

use serde::{Deserialize, Serialize};

/// Nonzero multipliers [`accumulate`] compacts before it sweeps the columns.
const K_CHUNK: usize = 256;
/// Columns [`accumulate`] holds in registers per sweep of the compacted
/// list: eight 4-lane vectors, enough independent add chains to cover the
/// add latency.
const WIDE: usize = 32;
/// The narrower block for what is left of a row after the wide ones.
const NARROW: usize = 8;

/// The one product kernel: `out[j] += Σ a · b[k][j]` over the **nonzero**
/// multipliers `a` (the `k`-th item of `multipliers`, pairing with row `k`
/// of the row-major `b`, `out.len()` columns wide), `k` ascending.
///
/// The nonzero multipliers are compacted branch-free into a stack list
/// (ReLU's zeros would otherwise be an unpredictable branch per `k`); then,
/// per block of columns, the accumulators are loaded once, take every listed
/// product in turn, and are stored once — so the loads of `b` are contiguous
/// and the loop vectorises across columns. Each output element still adds
/// its products one by one in ascending `k`, nothing is reassociated or
/// fused: it has the bits the scalar `out[j] += a * b[k][j]` loop gives.
///
/// Skipping a zero multiplier is bit-neutral while `b` is finite: an
/// accumulator that starts at `+0.0` never holds `-0.0`, so adding `±0.0`
/// leaves it as it is. A `0 · ±∞` or `0 · NaN` product is dropped, not
/// turned into NaN.
// mm-lint: hot-path — all three products of every pass run through here.
fn accumulate<'a>(multipliers: impl Iterator<Item = &'a f32>, b: &[f32], out: &mut [f32]) {
    let n = out.len();
    let mut values = [0.0f32; K_CHUNK];
    let mut offsets = [0usize; K_CHUNK];
    let mut multipliers = multipliers.enumerate();
    loop {
        let mut len = 0;
        while len < K_CHUNK {
            let Some((k, &a)) = multipliers.next() else {
                break;
            };
            values[len] = a;
            offsets[len] = k * n;
            len += usize::from(a != 0.0);
        }
        if len == 0 {
            return;
        }
        let (values, offsets) = (&values[..len], &offsets[..len]);
        let mut c = 0;
        while c + WIDE <= n {
            accumulate_block::<WIDE>(values, offsets, &b[c..], &mut out[c..c + WIDE]);
            c += WIDE;
        }
        while c + NARROW <= n {
            accumulate_block::<NARROW>(values, offsets, &b[c..], &mut out[c..c + NARROW]);
            c += NARROW;
        }
        // Fewer than NARROW columns left: one sweep, a chain each.
        let tail = &mut out[c..];
        if !tail.is_empty() {
            let mut acc = [0.0f32; NARROW];
            acc[..tail.len()].copy_from_slice(tail);
            for (&a, &offset) in values.iter().zip(offsets) {
                let brow = &b[offset + c..offset + c + tail.len()];
                for (s, &w) in acc.iter_mut().zip(brow) {
                    *s += a * w;
                }
            }
            tail.copy_from_slice(&acc[..tail.len()]);
        }
        if len < K_CHUNK {
            return;
        }
    }
}

/// `W` columns of [`accumulate`]: `b` starts at the block's first column.
#[inline(always)]
fn accumulate_block<const W: usize>(values: &[f32], offsets: &[usize], b: &[f32], out: &mut [f32]) {
    let mut acc = [0.0f32; W];
    acc.copy_from_slice(out);
    for (&a, &offset) in values.iter().zip(offsets) {
        for (s, &w) in acc.iter_mut().zip(&b[offset..offset + W]) {
            *s += a * w;
        }
    }
    out.copy_from_slice(&acc);
}

/// Dense row-major matrix of `f32`.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f32>,
}

impl Matrix {
    /// All-zeros matrix.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Matrix {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// Build from a flat row-major buffer.
    ///
    /// # Panics
    ///
    /// Panics if `data.len() != rows * cols`.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f32>) -> Self {
        assert_eq!(data.len(), rows * cols, "matrix data length mismatch");
        Matrix { rows, cols, data }
    }

    /// Build from a slice of rows.
    ///
    /// # Panics
    ///
    /// Panics if rows have inconsistent lengths.
    pub fn from_rows(rows: &[Vec<f32>]) -> Self {
        let r = rows.len();
        let c = rows.first().map_or(0, |row| row.len());
        let mut data = Vec::with_capacity(r * c);
        for row in rows {
            assert_eq!(row.len(), c, "inconsistent row lengths");
            data.extend_from_slice(row);
        }
        Matrix {
            rows: r,
            cols: c,
            data,
        }
    }

    /// A 1×n row vector.
    pub fn row_vector(v: &[f32]) -> Self {
        Matrix::from_vec(1, v.len(), v.to_vec())
    }

    /// Number of rows.
    #[inline]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    #[inline]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Immutable view of the underlying row-major buffer.
    #[inline]
    pub fn as_slice(&self) -> &[f32] {
        &self.data
    }

    /// Mutable view of the underlying row-major buffer.
    #[inline]
    pub fn as_mut_slice(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Element accessor.
    #[inline]
    pub fn get(&self, r: usize, c: usize) -> f32 {
        self.data[r * self.cols + c]
    }

    /// Element mutator.
    #[inline]
    pub fn set(&mut self, r: usize, c: usize, v: f32) {
        self.data[r * self.cols + c] = v;
    }

    /// Immutable view of row `r`.
    #[inline]
    pub fn row(&self, r: usize) -> &[f32] {
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Mutable view of row `r`.
    #[inline]
    pub fn row_mut(&mut self, r: usize) -> &mut [f32] {
        &mut self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Become the `rows × cols` zero matrix, reusing the allocation.
    pub(crate) fn reset(&mut self, rows: usize, cols: usize) {
        self.rows = rows;
        self.cols = cols;
        self.data.clear();
        self.data.resize(rows * cols, 0.0);
    }

    /// Become a `rows × cols` copy of the row-major `data`, reusing the
    /// allocation.
    ///
    /// # Panics
    ///
    /// Panics if `data.len() != rows * cols`.
    pub fn copy_from_slice(&mut self, rows: usize, cols: usize, data: &[f32]) {
        assert_eq!(data.len(), rows * cols, "matrix data length mismatch");
        self.rows = rows;
        self.cols = cols;
        self.data.clear();
        self.data.extend_from_slice(data);
    }

    /// Become a copy of `other`, reusing the allocation.
    pub fn copy_from(&mut self, other: &Matrix) {
        self.copy_from_slice(other.rows, other.cols, &other.data);
    }

    /// `self · other` (standard matrix product): `out` is reshaped (its
    /// allocation reused) and overwritten.
    ///
    /// This is the forward product `x · Wᵀ` of every layer (over the
    /// `[in, out]` layout of the weights) and the backward one `dY · W`.
    /// Every output element starts at `0.0` and adds its products one by one
    /// in ascending `k`, skipping the zero entries of `self`.
    ///
    /// # Panics
    ///
    /// Panics if `self.cols() != other.rows()`.
    // mm-lint: hot-path — every forward and backward pass runs through here.
    pub fn matmul_into(&self, other: &Matrix, out: &mut Matrix) {
        assert_eq!(self.cols, other.rows, "matmul shape mismatch");
        out.reset(self.rows, other.cols);
        if self.cols == 0 || other.cols == 0 {
            return;
        }
        for (arow, out_row) in self
            .data
            .chunks_exact(self.cols)
            .zip(out.data.chunks_exact_mut(other.cols))
        {
            accumulate(arow.iter(), &other.data, out_row);
        }
    }

    /// `selfᵀ · other`: `out` is reshaped (its allocation reused) and
    /// overwritten.
    ///
    /// This is the weight gradient `dYᵀ · X`. Every output element starts at
    /// `0.0` and adds its products one by one in ascending row, skipping the
    /// zero entries of `self`.
    ///
    /// # Panics
    ///
    /// Panics if `self.rows() != other.rows()`.
    // mm-lint: hot-path — one call per layer per training step.
    pub fn transpose_a_matmul_into(&self, other: &Matrix, out: &mut Matrix) {
        assert_eq!(self.rows, other.rows, "transpose_a_matmul shape mismatch");
        out.reset(self.cols, other.cols);
        if self.rows == 0 || other.cols == 0 {
            return;
        }
        for (i, out_row) in out.data.chunks_exact_mut(other.cols).enumerate() {
            let column = self.data[i..].iter().step_by(self.cols);
            accumulate(column, &other.data, out_row);
        }
    }

    /// Transposed copy into `out`, which is reshaped (its allocation
    /// reused) and overwritten.
    // mm-lint: hot-path — one call per layer per weight update.
    pub fn transpose_into(&self, out: &mut Matrix) {
        out.reset(self.cols, self.rows);
        for (i, row) in self.data.chunks_exact(self.cols.max(1)).enumerate() {
            for (j, &v) in row.iter().enumerate() {
                out.data[j * self.rows + i] = v;
            }
        }
    }

    /// Element-wise in-place addition.
    ///
    /// # Panics
    ///
    /// Panics on shape mismatch.
    pub fn add_assign(&mut self, other: &Matrix) {
        assert_eq!((self.rows, self.cols), (other.rows, other.cols));
        for (a, b) in self.data.iter_mut().zip(&other.data) {
            *a += b;
        }
    }

    /// In-place scaling.
    pub fn scale(&mut self, s: f32) {
        for a in &mut self.data {
            *a *= s;
        }
    }

    /// Sum over rows into `out`, which is overwritten (its allocation
    /// reused) with the length-`cols` vector.
    // mm-lint: hot-path — one call per layer per training step.
    pub fn column_sums_into(&self, out: &mut Vec<f32>) {
        out.clear();
        out.resize(self.cols, 0.0);
        for r in 0..self.rows {
            for (o, &v) in out.iter_mut().zip(self.row(r)) {
                *o += v;
            }
        }
    }

    /// Frobenius norm.
    pub fn norm(&self) -> f32 {
        self.data.iter().map(|v| v * v).sum::<f32>().sqrt()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn matmul(a: &Matrix, b: &Matrix) -> Matrix {
        // Into a buffer that held another shape.
        let mut out = Matrix::zeros(5, 3);
        a.matmul_into(b, &mut out);
        out
    }

    fn transpose(a: &Matrix) -> Matrix {
        let mut out = Matrix::default();
        a.transpose_into(&mut out);
        out
    }

    #[test]
    fn matmul_matches_hand_computation() {
        let a = Matrix::from_vec(2, 3, vec![1., 2., 3., 4., 5., 6.]);
        let b = Matrix::from_vec(3, 2, vec![7., 8., 9., 10., 11., 12.]);
        let c = matmul(&a, &b);
        assert_eq!(c.as_slice(), &[58., 64., 139., 154.]);
    }

    #[test]
    fn transposed_products_are_consistent() {
        let a = Matrix::from_vec(2, 3, vec![1., 2., 3., 4., 5., 6.]);
        let c = Matrix::from_vec(2, 4, vec![1., 2., 3., 4., 5., 6., 7., 8.]);
        // aᵀ · c == a.transpose().matmul(c)
        let mut direct = Matrix::zeros(1, 9);
        a.transpose_a_matmul_into(&c, &mut direct);
        assert_eq!(direct, matmul(&transpose(&a), &c));
        assert_eq!(transpose(&transpose(&a)), a);
        assert_eq!(transpose(&a).as_slice(), &[1., 4., 2., 5., 3., 6.]);
    }

    #[test]
    fn zero_multipliers_are_skipped_not_multiplied() {
        // `0 · ∞` and `0 · NaN` are dropped, not turned into NaN: skipping a
        // zero multiplier equals multiplying by it only for finite factors
        // (what trained weights are). A nonzero multiplier meets them as
        // IEEE says.
        let a = Matrix::from_vec(2, 2, vec![0.0, 2.0, -0.0, 0.0]);
        let b = Matrix::from_vec(2, 2, vec![f32::INFINITY, f32::NAN, 3.0, f32::NEG_INFINITY]);
        let c = matmul(&a, &b);
        assert_eq!(c.as_slice()[..2], [6.0, f32::NEG_INFINITY]);
        // A row of zeros is `+0.0`, whatever it skipped.
        assert_eq!(c.as_slice()[2].to_bits(), 0.0f32.to_bits());
        assert_eq!(c.as_slice()[3].to_bits(), 0.0f32.to_bits());
        let mut t = Matrix::default();
        transpose(&a).transpose_a_matmul_into(&b, &mut t);
        assert_eq!(t, c);
    }

    #[test]
    fn column_sums_and_norm() {
        let a = Matrix::from_vec(2, 2, vec![3., 4., 1., 2.]);
        let mut sums = vec![9.0; 5];
        a.column_sums_into(&mut sums);
        assert_eq!(sums, vec![4., 6.]);
        assert!((a.norm() - (9.0f32 + 16.0 + 1.0 + 4.0).sqrt()).abs() < 1e-6);
    }

    #[test]
    fn from_rows_and_accessors() {
        let a = Matrix::from_rows(&[vec![1., 2.], vec![3., 4.]]);
        assert_eq!(a.get(1, 0), 3.0);
        let mut a = a;
        a.set(1, 0, 9.0);
        assert_eq!(a.row(1), &[9., 4.]);
        a.row_mut(0)[1] = 7.0;
        assert_eq!(a.get(0, 1), 7.0);
        assert_eq!(Matrix::row_vector(&[1., 2., 3.]).cols(), 3);
    }

    #[test]
    fn add_and_scale() {
        let mut a = Matrix::from_vec(1, 3, vec![1., 2., 3.]);
        let b = Matrix::from_vec(1, 3, vec![1., 1., 1.]);
        a.add_assign(&b);
        a.scale(2.0);
        assert_eq!(a.as_slice(), &[4., 6., 8.]);
    }

    #[test]
    #[should_panic(expected = "matmul shape mismatch")]
    fn matmul_rejects_bad_shapes() {
        let a = Matrix::zeros(2, 3);
        let b = Matrix::zeros(2, 3);
        let _ = matmul(&a, &b);
    }

    #[test]
    #[should_panic(expected = "matrix data length mismatch")]
    fn from_vec_rejects_bad_length() {
        let _ = Matrix::from_vec(2, 2, vec![1.0; 3]);
    }
}
