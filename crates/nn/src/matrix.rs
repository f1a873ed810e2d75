//! A small row-major `f32` matrix with exactly the kernels the MLP needs.
//!
//! Deliberately minimal: the surrogate networks are small enough (a few
//! hundred thousand parameters in the default experiment configuration) that
//! a cache-friendly naive GEMM is adequate, and keeping the type simple makes
//! the backpropagation code easy to audit.

use serde::{Deserialize, Serialize};

/// Rows of `other` that [`Matrix::matmul_transpose_b_into`] computes per pass
/// over `k`, one independent accumulator each.
const DOT_BLOCK: usize = 8;

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
    fn reset(&mut self, rows: usize, cols: usize) {
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

    /// `self · other` (standard matrix product).
    ///
    /// # Panics
    ///
    /// Panics if `self.cols() != other.rows()`.
    pub fn matmul(&self, other: &Matrix) -> Matrix {
        let mut out = Matrix::default();
        self.matmul_into(other, &mut out);
        out
    }

    /// In-place form of [`matmul`](Self::matmul): `out` is reshaped (its
    /// allocation reused) and overwritten with `self · other`.
    ///
    /// # Panics
    ///
    /// Panics if `self.cols() != other.rows()`.
    // mm-lint: hot-path — the input-only backward pass must not allocate.
    pub fn matmul_into(&self, other: &Matrix, out: &mut Matrix) {
        assert_eq!(self.cols, other.rows, "matmul shape mismatch");
        out.reset(self.rows, other.cols);
        for i in 0..self.rows {
            for k in 0..self.cols {
                let a = self.data[i * self.cols + k];
                if a == 0.0 {
                    continue;
                }
                let orow = &other.data[k * other.cols..(k + 1) * other.cols];
                let out_row = &mut out.data[i * other.cols..(i + 1) * other.cols];
                for (o, &b) in out_row.iter_mut().zip(orow) {
                    *o += a * b;
                }
            }
        }
    }

    /// `self · otherᵀ`.
    ///
    /// # Panics
    ///
    /// Panics if `self.cols() != other.cols()`.
    pub fn matmul_transpose_b(&self, other: &Matrix) -> Matrix {
        let mut out = Matrix::default();
        self.matmul_transpose_b_into(other, &mut out);
        out
    }

    /// In-place form of [`matmul_transpose_b`](Self::matmul_transpose_b):
    /// `out` is reshaped (its allocation reused) and overwritten with
    /// `self · otherᵀ`.
    ///
    /// This is the forward product `x · Wᵀ` of every layer. One output at a
    /// time it is a single dependent add chain over `k`, bound by the add
    /// latency; here eight rows of `other` (`DOT_BLOCK`) share one pass over
    /// `k`, each with its own accumulator, so the chains overlap. Every
    /// accumulator still starts at `0.0` and sums its products in ascending
    /// `k` — nothing is reassociated or fused, so each output has the bits
    /// the one-at-a-time loop gives.
    ///
    /// # Panics
    ///
    /// Panics if `self.cols() != other.cols()`.
    // mm-lint: hot-path — every forward pass runs through here.
    pub fn matmul_transpose_b_into(&self, other: &Matrix, out: &mut Matrix) {
        assert_eq!(self.cols, other.cols, "matmul_transpose_b shape mismatch");
        let k = self.cols;
        out.reset(self.rows, other.rows);
        if k == 0 || other.rows == 0 {
            return;
        }
        for (arow, out_row) in self
            .data
            .chunks_exact(k)
            .zip(out.data.chunks_exact_mut(other.rows))
        {
            let mut blocks = other.data.chunks_exact(DOT_BLOCK * k);
            let mut out_blocks = out_row.chunks_exact_mut(DOT_BLOCK);
            for (block, out_block) in blocks.by_ref().zip(out_blocks.by_ref()) {
                let brows: [&[f32]; DOT_BLOCK] = std::array::from_fn(|j| &block[j * k..][..k]);
                let mut acc = [0.0f32; DOT_BLOCK];
                for (kk, &a) in arow.iter().enumerate() {
                    for (s, brow) in acc.iter_mut().zip(&brows) {
                        *s += a * brow[kk];
                    }
                }
                out_block.copy_from_slice(&acc);
            }
            // Fewer than DOT_BLOCK rows left: one chain each.
            for (brow, o) in blocks
                .remainder()
                .chunks_exact(k)
                .zip(out_blocks.into_remainder())
            {
                let mut acc = 0.0f32;
                for (a, b) in arow.iter().zip(brow) {
                    acc += a * b;
                }
                *o = acc;
            }
        }
    }

    /// `selfᵀ · other`.
    ///
    /// # Panics
    ///
    /// Panics if `self.rows() != other.rows()`.
    pub fn transpose_a_matmul(&self, other: &Matrix) -> Matrix {
        assert_eq!(self.rows, other.rows, "transpose_a_matmul shape mismatch");
        let mut out = Matrix::zeros(self.cols, other.cols);
        for k in 0..self.rows {
            let arow = self.row(k);
            let brow = other.row(k);
            for (i, &a) in arow.iter().enumerate() {
                if a == 0.0 {
                    continue;
                }
                let out_row = &mut out.data[i * other.cols..(i + 1) * other.cols];
                for (o, &b) in out_row.iter_mut().zip(brow) {
                    *o += a * b;
                }
            }
        }
        out
    }

    /// Transposed copy.
    pub fn transpose(&self) -> Matrix {
        let mut out = Matrix::zeros(self.cols, self.rows);
        for i in 0..self.rows {
            for j in 0..self.cols {
                out.data[j * self.rows + i] = self.data[i * self.cols + j];
            }
        }
        out
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

    /// Sum over rows, yielding a length-`cols` vector.
    pub fn column_sums(&self) -> Vec<f32> {
        let mut out = vec![0.0f32; self.cols];
        for r in 0..self.rows {
            for (o, &v) in out.iter_mut().zip(self.row(r)) {
                *o += v;
            }
        }
        out
    }

    /// Frobenius norm.
    pub fn norm(&self) -> f32 {
        self.data.iter().map(|v| v * v).sum::<f32>().sqrt()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matmul_matches_hand_computation() {
        let a = Matrix::from_vec(2, 3, vec![1., 2., 3., 4., 5., 6.]);
        let b = Matrix::from_vec(3, 2, vec![7., 8., 9., 10., 11., 12.]);
        let c = a.matmul(&b);
        assert_eq!(c.as_slice(), &[58., 64., 139., 154.]);
    }

    #[test]
    fn transposed_products_are_consistent() {
        let a = Matrix::from_vec(2, 3, vec![1., 2., 3., 4., 5., 6.]);
        let b = Matrix::from_vec(4, 3, vec![1., 0., 1., 2., 1., 0., 0., 3., 1., 1., 1., 1.]);
        // a · bᵀ == a.matmul(b.transpose())
        let direct = a.matmul_transpose_b(&b);
        let via_t = a.matmul(&b.transpose());
        assert_eq!(direct, via_t);

        let c = Matrix::from_vec(2, 4, vec![1., 2., 3., 4., 5., 6., 7., 8.]);
        // aᵀ · c == a.transpose().matmul(c)
        let direct = a.transpose_a_matmul(&c);
        let via_t = a.transpose().matmul(&c);
        assert_eq!(direct, via_t);
    }

    #[test]
    fn column_sums_and_norm() {
        let a = Matrix::from_vec(2, 2, vec![3., 4., 1., 2.]);
        assert_eq!(a.column_sums(), vec![4., 6.]);
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
        let _ = a.matmul(&b);
    }

    #[test]
    #[should_panic(expected = "matrix data length mismatch")]
    fn from_vec_rejects_bad_length() {
        let _ = Matrix::from_vec(2, 2, vec![1.0; 3]);
    }
}
