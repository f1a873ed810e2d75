//! A small row-major `f32` matrix with exactly the kernels the MLP needs.
//!
//! Deliberately minimal: the surrogate networks are small (a few hundred
//! thousand parameters in the default experiment configuration), so one
//! row-update kernel (`accumulate`) under all three products is adequate,
//! and keeping the type simple makes the backpropagation code easy to audit.

use serde::{Deserialize, Serialize};

/// Nonzero multipliers [`accumulate`] compacts before it sweeps the columns.
const K_CHUNK: usize = 256;
/// Columns the portable body holds in registers per sweep of the compacted
/// list: eight 4-lane vectors, enough independent add chains to cover the
/// add latency.
const WIDE: usize = 32;
/// The narrower block for what is left of a row after the wide ones.
const NARROW: usize = 8;

/// The one product kernel: `out[j] += Σ a · b[k][j]` over the **nonzero**
/// multipliers `a` (the `k`-th item of `multipliers`, pairing with row `k`
/// of the row-major `b`, `out.len()` columns wide), `k` ascending.
///
/// One body, [`accumulate_body`], compiled once for the build's baseline
/// target and, on x86-64, once more inside an AVX-512F `#[target_feature]`
/// wrapper, picked here at run time when the running CPU supports it. Both
/// paths perform the same `f32` multiplies and adds in the same order —
/// nothing is fused into an FMA or reassociated, Rust never contracts float
/// expressions — so the vector width changes how many columns move per
/// instruction, never a bit of the result.
// mm-lint: hot-path — all three products of every pass run through here.
fn accumulate<'a>(multipliers: impl Iterator<Item = &'a f32>, b: &[f32], out: &mut [f32]) {
    #[cfg(target_arch = "x86_64")]
    {
        if std::arch::is_x86_feature_detected!("avx512f") {
            // SAFETY: the running CPU supports AVX-512F.
            return unsafe { x86::accumulate_avx512(multipliers, b, out) };
        }
    }
    accumulate_body::<WIDE, NARROW>(multipliers, b, out);
}

/// The vector-width wrapper of [`accumulate_body`]: the same body, the
/// blocks widened to the register file.
#[cfg(target_arch = "x86_64")]
mod x86 {
    use super::accumulate_body;

    /// Four 16-lane vectors per wide block.
    #[target_feature(enable = "avx512f")]
    pub(super) fn accumulate_avx512<'a>(
        multipliers: impl Iterator<Item = &'a f32>,
        b: &[f32],
        out: &mut [f32],
    ) {
        accumulate_body::<64, 16>(multipliers, b, out);
    }
}

/// [`accumulate`]'s body, `W` columns per wide block and `N` per narrow one.
///
/// The nonzero multipliers are compacted branch-free into a stack list
/// (ReLU's zeros would otherwise be an unpredictable branch per `k`); then,
/// per block of columns, the accumulators are loaded once, take every listed
/// product in turn, and are stored once — so the loads of `b` are contiguous
/// and the loop vectorises across columns. Each output element still adds
/// its products one by one in ascending `k`, nothing is reassociated or
/// fused: it has the bits the scalar `out[j] += a * b[k][j]` loop gives,
/// whatever `W` and `N` are.
///
/// Skipping a zero multiplier is bit-neutral while `b` is finite: an
/// accumulator that starts at `+0.0` never holds `-0.0`, so adding `±0.0`
/// leaves it as it is. A `0 · ±∞` or `0 · NaN` product is dropped, not
/// turned into NaN.
#[inline(always)]
fn accumulate_body<'a, const W: usize, const N: usize>(
    multipliers: impl Iterator<Item = &'a f32>,
    b: &[f32],
    out: &mut [f32],
) {
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
        // Columns past the last whole block are swept as the last `N`
        // columns of the row, from the values they hold now, before the
        // blocks they overlap have written theirs: an overlapped column
        // comes out of both sweeps with the same bits, and the stores
        // agree.
        let rest = n % W % N;
        let mut last = [0.0f32; N];
        let overlap = rest != 0 && n >= N;
        if overlap {
            accumulate_block::<N>(values, offsets, &b[n - N..], &mut last, &out[n - N..]);
        }
        let mut c = 0;
        while c + W <= n {
            let block = &mut out[c..c + W];
            let mut acc = [0.0f32; W];
            accumulate_block::<W>(values, offsets, &b[c..], &mut acc, block);
            block.copy_from_slice(&acc);
            c += W;
        }
        while c + N <= n {
            let block = &mut out[c..c + N];
            let mut acc = [0.0f32; N];
            accumulate_block::<N>(values, offsets, &b[c..], &mut acc, block);
            block.copy_from_slice(&acc);
            c += N;
        }
        if overlap {
            out[n - N..].copy_from_slice(&last);
        } else if rest != 0 {
            // A row narrower than one block: one sweep, a chain each.
            let tail = &mut out[c..];
            let mut acc = [0.0f32; N];
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

/// `W` columns of [`accumulate_body`] into `acc`, starting from `start`:
/// `b` starts at the block's first column.
#[inline(always)]
fn accumulate_block<const W: usize>(
    values: &[f32],
    offsets: &[usize],
    b: &[f32],
    acc: &mut [f32; W],
    start: &[f32],
) {
    acc.copy_from_slice(start);
    for (&a, &offset) in values.iter().zip(offsets) {
        for (s, &w) in acc.iter_mut().zip(&b[offset..offset + W]) {
            *s += a * w;
        }
    }
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
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// One way of running [`accumulate`]: `(multipliers, b, out)`.
    type Path = fn(&[f32], &[f32], &mut [f32]);

    /// The portable body and the vector-width wrapper, if this CPU can run it.
    fn paths() -> Vec<(&'static str, Path)> {
        let mut paths: Vec<(&'static str, Path)> = vec![("generic", |a, b, out| {
            accumulate_body::<WIDE, NARROW>(a.iter(), b, out)
        })];
        #[cfg(target_arch = "x86_64")]
        {
            if std::arch::is_x86_feature_detected!("avx512f") {
                // SAFETY: only listed when the running CPU supports AVX-512F.
                paths.push(("avx512f", |a, b, out| unsafe {
                    x86::accumulate_avx512(a.iter(), b, out)
                }));
            }
        }
        paths
    }

    /// Bit pattern with every NaN folded to one: which NaN an operation
    /// returns is not specified by the language, that it returns one is.
    fn bits(v: &[f32]) -> Vec<u32> {
        v.iter()
            .map(|&x| if x.is_nan() { f32::NAN } else { x }.to_bits())
            .collect()
    }

    /// A value as the kernel may meet it: zeros of both signs, ordinary
    /// magnitudes and, when `non_finite`, ±∞ and NaN.
    fn awkward(rng: &mut StdRng, non_finite: bool) -> f32 {
        match rng.gen_range(0..if non_finite { 12 } else { 9 }) {
            0 | 1 => 0.0,
            2 => -0.0,
            3 => rng.gen_range(-1e-30f32..1e-30),
            4 => rng.gen_range(-1e30f32..1e30),
            9 => f32::INFINITY,
            10 => f32::NEG_INFINITY,
            11 => f32::NAN,
            _ => rng.gen_range(-2.0f32..2.0),
        }
    }

    /// Runs every path on one `k × n` problem, `out` starting from values of
    /// its own, and requires the generic path's bits of each.
    fn check_paths(rng: &mut StdRng, k: usize, n: usize) -> Result<(), TestCaseError> {
        let a: Vec<f32> = (0..k).map(|_| awkward(rng, true)).collect();
        let b: Vec<f32> = (0..k * n).map(|_| awkward(rng, true)).collect();
        let start: Vec<f32> = (0..n).map(|_| awkward(rng, false)).collect();
        let mut expected = None;
        for (name, path) in paths() {
            let mut out = start.clone();
            path(&a, &b, &mut out);
            let got = bits(&out);
            match &expected {
                None => expected = Some(got),
                Some(want) => prop_assert_eq!(&got, want, "{} at k = {}, n = {}", name, k, n),
            }
        }
        Ok(())
    }

    /// Every width up to past two wide AVX-512 blocks (so every remainder of
    /// 8, 16, 32 and 64), on each side of the `K_CHUNK` edge.
    #[test]
    fn every_path_has_the_generic_bits_at_every_width() {
        let mut rng = StdRng::seed_from_u64(31);
        for n in 1..=136 {
            for k in [1, K_CHUNK, K_CHUNK + 1, 2 * K_CHUNK + 7] {
                check_paths(&mut rng, k, n).unwrap();
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases_env(32))]

        /// The same at sampled shapes.
        #[test]
        fn every_path_has_the_generic_bits(
            seed in 0u64..u64::MAX,
            k in 1usize..700,
            n in 1usize..300,
        ) {
            check_paths(&mut StdRng::seed_from_u64(seed), k, n)?;
        }
    }

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
