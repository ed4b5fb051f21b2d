//! Row-major dense matrices for CP factor matrices.
//!
//! CP-ALS keeps one dense `Iₙ × R` factor matrix per mode plus small `R × R`
//! gram matrices. `R` is small (the paper fixes `R = 2` in its experiments),
//! so a straightforward row-major implementation with tight inner loops is
//! all that is needed; no external BLAS.

use crate::{Result, TensorError};
use rand::Rng;

/// A dense row-major `rows × cols` matrix of `f64`.
///
/// # Examples
///
/// ```
/// use cstf_tensor::DenseMatrix;
///
/// let a = DenseMatrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
/// let g = a.gram(); // AᵀA
/// assert_eq!(g.get(0, 0), 10.0);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct DenseMatrix {
    rows: usize,
    cols: usize,
    data: Vec<f64>,
}

impl DenseMatrix {
    /// All-zero matrix.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        DenseMatrix {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// Identity matrix of size `n`.
    pub(crate) fn identity(n: usize) -> Self {
        let mut m = DenseMatrix::zeros(n, n);
        for i in 0..n {
            m.data[i * n + i] = 1.0;
        }
        m
    }

    /// Builds a matrix from explicit rows.
    ///
    /// # Panics
    ///
    /// Panics if rows have differing lengths.
    pub fn from_rows(rows: &[&[f64]]) -> Self {
        let r = rows.len();
        let c = rows.first().map_or(0, |row| row.len());
        let mut data = Vec::with_capacity(r * c);
        for row in rows {
            assert_eq!(row.len(), c, "ragged rows");
            data.extend_from_slice(row);
        }
        DenseMatrix {
            rows: r,
            cols: c,
            data,
        }
    }

    /// Wraps an existing row-major buffer.
    ///
    /// # Panics
    ///
    /// Panics if `data.len() != rows * cols`.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f64>) -> Self {
        assert_eq!(data.len(), rows * cols, "buffer length mismatch");
        DenseMatrix { rows, cols, data }
    }

    /// Matrix with entries drawn uniformly from `[0, 1)`.
    pub fn random<R: Rng>(rows: usize, cols: usize, rng: &mut R) -> Self {
        let data = (0..rows * cols).map(|_| rng.gen::<f64>()).collect();
        DenseMatrix { rows, cols, data }
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

    /// Raw row-major buffer.
    #[inline]
    pub fn data(&self) -> &[f64] {
        &self.data
    }

    /// Mutable raw buffer.
    #[inline]
    pub fn data_mut(&mut self) -> &mut [f64] {
        &mut self.data
    }

    /// Element accessor.
    #[inline]
    pub fn get(&self, r: usize, c: usize) -> f64 {
        debug_assert!(r < self.rows && c < self.cols);
        self.data[r * self.cols + c]
    }

    /// Element mutator.
    #[inline]
    pub fn set(&mut self, r: usize, c: usize, v: f64) {
        debug_assert!(r < self.rows && c < self.cols);
        self.data[r * self.cols + c] = v;
    }

    /// Row `r` as a slice.
    #[inline]
    pub fn row(&self, r: usize) -> &[f64] {
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Row `r` as a mutable slice.
    #[inline]
    pub fn row_mut(&mut self, r: usize) -> &mut [f64] {
        &mut self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Iterates over rows as slices.
    pub fn rows_iter(&self) -> impl Iterator<Item = &[f64]> + '_ {
        self.data.chunks_exact(self.cols)
    }

    /// Matrix transpose.
    pub fn transpose(&self) -> DenseMatrix {
        let mut t = DenseMatrix::zeros(self.cols, self.rows);
        for r in 0..self.rows {
            for c in 0..self.cols {
                t.data[c * self.rows + r] = self.data[r * self.cols + c];
            }
        }
        t
    }

    /// Matrix product `self · other`.
    pub fn matmul(&self, other: &DenseMatrix) -> Result<DenseMatrix> {
        if self.cols != other.rows {
            return Err(TensorError::ShapeMismatch(format!(
                "matmul: {}x{} · {}x{}",
                self.rows, self.cols, other.rows, other.cols
            )));
        }
        let mut out = DenseMatrix::zeros(self.rows, other.cols);
        // i-k-j loop order: streams through `other` rows, cache friendly.
        for i in 0..self.rows {
            let out_row = &mut out.data[i * other.cols..(i + 1) * other.cols];
            for k in 0..self.cols {
                let a = self.data[i * self.cols + k];
                if a == 0.0 {
                    continue;
                }
                let b_row = &other.data[k * other.cols..(k + 1) * other.cols];
                for (o, &b) in out_row.iter_mut().zip(b_row) {
                    *o += a * b;
                }
            }
        }
        Ok(out)
    }

    /// Gram matrix `AᵀA` (`cols × cols`, symmetric positive semidefinite).
    ///
    /// CP-ALS computes one gram per factor per iteration (paper §4.2: "the
    /// gram matrix for each factor is only computed once per CP-ALS
    /// iteration").
    pub fn gram(&self) -> DenseMatrix {
        let c = self.cols;
        let mut g = DenseMatrix::zeros(c, c);
        for row in self.rows_iter() {
            for i in 0..c {
                let ri = row[i];
                if ri == 0.0 {
                    continue;
                }
                let g_row = &mut g.data[i * c..(i + 1) * c];
                for (j, &rj) in row.iter().enumerate().skip(i) {
                    g_row[j] += ri * rj;
                }
            }
        }
        // Mirror the upper triangle.
        for i in 0..c {
            for j in 0..i {
                g.data[i * c + j] = g.data[j * c + i];
            }
        }
        g
    }

    /// Element-wise (Hadamard) product `self ∗ other`.
    pub fn hadamard(&self, other: &DenseMatrix) -> Result<DenseMatrix> {
        if self.rows != other.rows || self.cols != other.cols {
            return Err(TensorError::ShapeMismatch(format!(
                "hadamard: {}x{} vs {}x{}",
                self.rows, self.cols, other.rows, other.cols
            )));
        }
        let data = self
            .data
            .iter()
            .zip(&other.data)
            .map(|(a, b)| a * b)
            .collect();
        Ok(DenseMatrix {
            rows: self.rows,
            cols: self.cols,
            data,
        })
    }

    /// Element-wise sum.
    pub fn add(&self, other: &DenseMatrix) -> Result<DenseMatrix> {
        if self.rows != other.rows || self.cols != other.cols {
            return Err(TensorError::ShapeMismatch(format!(
                "add: {}x{} vs {}x{}",
                self.rows, self.cols, other.rows, other.cols
            )));
        }
        let data = self
            .data
            .iter()
            .zip(&other.data)
            .map(|(a, b)| a + b)
            .collect();
        Ok(DenseMatrix {
            rows: self.rows,
            cols: self.cols,
            data,
        })
    }

    /// Element-wise difference `self - other`.
    pub fn sub(&self, other: &DenseMatrix) -> Result<DenseMatrix> {
        if self.rows != other.rows || self.cols != other.cols {
            return Err(TensorError::ShapeMismatch(format!(
                "sub: {}x{} vs {}x{}",
                self.rows, self.cols, other.rows, other.cols
            )));
        }
        let data = self
            .data
            .iter()
            .zip(&other.data)
            .map(|(a, b)| a - b)
            .collect();
        Ok(DenseMatrix {
            rows: self.rows,
            cols: self.cols,
            data,
        })
    }

    /// Scales every element in place.
    pub fn scale(&mut self, s: f64) {
        for v in &mut self.data {
            *v *= s;
        }
    }

    /// Frobenius norm.
    pub fn frobenius_norm(&self) -> f64 {
        self.data.iter().map(|v| v * v).sum::<f64>().sqrt()
    }

    /// Largest absolute element-wise difference to `other`.
    pub fn max_abs_diff(&self, other: &DenseMatrix) -> f64 {
        assert_eq!(self.rows, other.rows);
        assert_eq!(self.cols, other.cols);
        self.data
            .iter()
            .zip(&other.data)
            .map(|(a, b)| (a - b).abs())
            .fold(0.0, f64::max)
    }

    /// Euclidean norm of each column.
    pub fn column_norms(&self) -> Vec<f64> {
        let mut norms = vec![0.0; self.cols];
        for row in self.rows_iter() {
            for (n, &v) in norms.iter_mut().zip(row) {
                *n += v * v;
            }
        }
        for n in &mut norms {
            *n = n.sqrt();
        }
        norms
    }

    /// Normalizes each column to unit Euclidean norm and returns the norms
    /// (the `λ` weights of Algorithm 1: "Normalize columns of A and store the
    /// norms as λ"). Zero columns are left untouched and report norm 0.
    pub fn normalize_columns(&mut self) -> Vec<f64> {
        let norms = self.column_norms();
        for row in self.data.chunks_exact_mut(self.cols) {
            for (v, &n) in row.iter_mut().zip(&norms) {
                if n > 0.0 {
                    *v /= n;
                }
            }
        }
        norms
    }

    /// True when every entry is finite (no NaN/±∞). Decompositions assert
    /// this to catch numerical blowups early.
    pub fn all_finite(&self) -> bool {
        self.data.iter().all(|v| v.is_finite())
    }

    /// Whether the matrix is symmetric within `tol`.
    pub fn is_symmetric(&self, tol: f64) -> bool {
        if self.rows != self.cols {
            return false;
        }
        for i in 0..self.rows {
            for j in 0..i {
                if (self.get(i, j) - self.get(j, i)).abs() > tol {
                    return false;
                }
            }
        }
        true
    }
}

impl std::fmt::Display for DenseMatrix {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        for row in self.rows_iter() {
            for (c, v) in row.iter().enumerate() {
                if c > 0 {
                    write!(f, " ")?;
                }
                write!(f, "{v:>12.6}")?;
            }
            writeln!(f)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{rngs::StdRng, SeedableRng};

    #[test]
    fn zeros_and_identity() {
        let z = DenseMatrix::zeros(2, 3);
        assert_eq!(z.rows(), 2);
        assert_eq!(z.cols(), 3);
        assert!(z.data().iter().all(|&v| v == 0.0));
        let i = DenseMatrix::identity(3);
        assert_eq!(i.get(1, 1), 1.0);
        assert_eq!(i.get(0, 2), 0.0);
    }

    #[test]
    fn matmul_known_product() {
        let a = DenseMatrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
        let b = DenseMatrix::from_rows(&[&[5.0, 6.0], &[7.0, 8.0]]);
        let c = a.matmul(&b).unwrap();
        assert_eq!(c.data(), &[19.0, 22.0, 43.0, 50.0]);
    }

    #[test]
    fn matmul_rejects_mismatch() {
        let a = DenseMatrix::zeros(2, 3);
        let b = DenseMatrix::zeros(2, 3);
        assert!(a.matmul(&b).is_err());
    }

    #[test]
    fn matmul_identity_is_noop() {
        let mut rng = StdRng::seed_from_u64(7);
        let a = DenseMatrix::random(4, 4, &mut rng);
        let i = DenseMatrix::identity(4);
        assert!(a.matmul(&i).unwrap().max_abs_diff(&a) < 1e-15);
        assert!(i.matmul(&a).unwrap().max_abs_diff(&a) < 1e-15);
    }

    #[test]
    fn transpose_involution() {
        let mut rng = StdRng::seed_from_u64(3);
        let a = DenseMatrix::random(3, 5, &mut rng);
        let t = a.transpose();
        assert_eq!(t.rows(), 5);
        assert_eq!(t.get(4, 2), a.get(2, 4));
        assert_eq!(t.transpose(), a);
    }

    #[test]
    fn gram_matches_explicit_transpose_product() {
        let mut rng = StdRng::seed_from_u64(11);
        let a = DenseMatrix::random(6, 4, &mut rng);
        let g = a.gram();
        let explicit = a.transpose().matmul(&a).unwrap();
        assert!(g.max_abs_diff(&explicit) < 1e-12);
        assert!(g.is_symmetric(1e-15));
    }

    #[test]
    fn hadamard_elementwise() {
        let a = DenseMatrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
        let b = DenseMatrix::from_rows(&[&[2.0, 0.5], &[1.0, -1.0]]);
        let h = a.hadamard(&b).unwrap();
        assert_eq!(h.data(), &[2.0, 1.0, 3.0, -4.0]);
        assert!(a.hadamard(&DenseMatrix::zeros(1, 2)).is_err());
    }

    #[test]
    fn add_sub_roundtrip() {
        let mut rng = StdRng::seed_from_u64(5);
        let a = DenseMatrix::random(3, 3, &mut rng);
        let b = DenseMatrix::random(3, 3, &mut rng);
        let back = a.add(&b).unwrap().sub(&b).unwrap();
        assert!(back.max_abs_diff(&a) < 1e-12);
    }

    #[test]
    fn scale_and_norm() {
        let mut a = DenseMatrix::from_rows(&[&[3.0, 4.0]]);
        assert_eq!(a.frobenius_norm(), 5.0);
        a.scale(2.0);
        assert_eq!(a.frobenius_norm(), 10.0);
    }

    #[test]
    fn column_normalization_unit_norms() {
        let mut a = DenseMatrix::from_rows(&[&[3.0, 0.0], &[4.0, 0.0]]);
        let lambda = a.normalize_columns();
        assert!((lambda[0] - 5.0).abs() < 1e-15);
        assert_eq!(lambda[1], 0.0); // zero column untouched
        assert!((a.get(0, 0) - 0.6).abs() < 1e-15);
        assert!((a.get(1, 0) - 0.8).abs() < 1e-15);
        assert_eq!(a.get(0, 1), 0.0);
        let renorm = a.column_norms();
        assert!((renorm[0] - 1.0).abs() < 1e-15);
    }

    #[test]
    fn from_rows_and_from_vec_agree() {
        let a = DenseMatrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
        let b = DenseMatrix::from_vec(2, 2, vec![1.0, 2.0, 3.0, 4.0]);
        assert_eq!(a, b);
    }

    #[test]
    #[should_panic(expected = "buffer length mismatch")]
    fn from_vec_rejects_bad_length() {
        DenseMatrix::from_vec(2, 2, vec![1.0]);
    }

    #[test]
    fn all_finite_detects_nan() {
        let mut a = DenseMatrix::zeros(2, 2);
        assert!(a.all_finite());
        a.set(0, 1, f64::NAN);
        assert!(!a.all_finite());
    }

    #[test]
    fn random_is_seeded_deterministic() {
        let mut r1 = StdRng::seed_from_u64(42);
        let mut r2 = StdRng::seed_from_u64(42);
        let a = DenseMatrix::random(3, 3, &mut r1);
        let b = DenseMatrix::random(3, 3, &mut r2);
        assert_eq!(a, b);
    }

    #[test]
    fn symmetric_check() {
        let s = DenseMatrix::from_rows(&[&[1.0, 2.0], &[2.0, 3.0]]);
        assert!(s.is_symmetric(0.0));
        let ns = DenseMatrix::from_rows(&[&[1.0, 2.0], &[2.5, 3.0]]);
        assert!(!ns.is_symmetric(1e-9));
        assert!(!DenseMatrix::zeros(2, 3).is_symmetric(1.0));
    }
}
