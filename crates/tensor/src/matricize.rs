//! Explicit mode-n matricization (unfolding) of sparse tensors.
//!
//! CSTF exists to *avoid* this operation ("matricization across all modes of
//! an N-order tensor requires N replications of the tensor", paper §4.1),
//! but the BIGtensor baseline is built on it and the reference MTTKRP uses
//! it for validation, so we implement it faithfully.
//!
//! Convention (Kolda & Bader): the mode-`n` unfolding `X₍ₙ₎` has `Iₙ` rows
//! and `Π_{m≠n} Iₘ` columns; nonzero `(i₁,…,i_N)` lands in column
//! `Σ_{m≠n} iₘ · Jₘ` with `Jₘ = Π_{m'<m, m'≠n} Iₘ'` (lower modes vary
//! fastest). This matches [`crate::kr::khatri_rao_all`] applied to the
//! factors in *descending* mode order.

use crate::{CooTensor, DenseMatrix, Result, TensorError};

/// A sparse matrix in triplet form produced by unfolding. Column indices are
/// `u64` because unfolded column spaces are products of mode sizes.
#[derive(Debug, Clone, PartialEq)]
pub struct SparseMatrix {
    /// Number of rows.
    pub rows: u32,
    /// Number of columns (may exceed `u32`).
    pub cols: u64,
    /// `(row, col, value)` triplets in tensor storage order.
    pub entries: Vec<(u32, u64, f64)>,
}

impl SparseMatrix {
    /// Number of stored entries.
    pub fn nnz(&self) -> usize {
        self.entries.len()
    }

    /// Dense product `self · rhs` (`rows × rhs.cols`). `rhs` must have
    /// `self.cols` rows — only usable when the unfolded column space is
    /// small (tests and the intermediate-blowup demo).
    pub(crate) fn matmul_dense(&self, rhs: &DenseMatrix) -> Result<DenseMatrix> {
        if self.cols != rhs.rows() as u64 {
            return Err(TensorError::ShapeMismatch(format!(
                "sparse {}x{} · dense {}x{}",
                self.rows,
                self.cols,
                rhs.rows(),
                rhs.cols()
            )));
        }
        let mut out = DenseMatrix::zeros(self.rows as usize, rhs.cols());
        for &(r, c, v) in &self.entries {
            let rhs_row = rhs.row(c as usize);
            let out_row = out.row_mut(r as usize);
            for (o, &x) in out_row.iter_mut().zip(rhs_row) {
                *o += v * x;
            }
        }
        Ok(out)
    }
}

/// Column strides of the mode-`n` unfolding: `strides[m]` is the multiplier
/// for the mode-`m` index (and `0` for `m == n`, which does not participate).
pub fn unfold_strides(shape: &[u32], mode: usize) -> Vec<u64> {
    let mut strides = vec![0u64; shape.len()];
    let mut acc = 1u64;
    for (m, &extent) in shape.iter().enumerate() {
        if m == mode {
            continue;
        }
        strides[m] = acc;
        acc *= extent as u64;
    }
    strides
}

/// Column index of `coord` in the mode-`n` unfolding.
pub fn unfold_column(coord: &[u32], strides: &[u64]) -> u64 {
    coord.iter().zip(strides).map(|(&i, &s)| i as u64 * s).sum()
}

/// Mode-`n` matricization `X₍ₙ₎` of a COO tensor.
pub fn matricize(t: &CooTensor, mode: usize) -> Result<SparseMatrix> {
    if mode >= t.order() {
        return Err(TensorError::ShapeMismatch(format!(
            "mode {mode} out of range for order-{} tensor",
            t.order()
        )));
    }
    let strides = unfold_strides(t.shape(), mode);
    let cols: u64 = t
        .shape()
        .iter()
        .enumerate()
        .filter(|&(m, _)| m != mode)
        .map(|(_, &s)| s as u64)
        .product();
    let entries = t
        .iter()
        .map(|(coord, v)| (coord[mode], unfold_column(coord, &strides), v))
        .collect();
    Ok(SparseMatrix {
        rows: t.shape()[mode],
        cols,
        entries,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t() -> CooTensor {
        CooTensor::from_entries(
            vec![2, 3, 4],
            vec![
                (vec![0, 0, 0], 1.0),
                (vec![1, 2, 3], 2.0),
                (vec![0, 1, 2], -3.0),
            ],
        )
        .unwrap()
    }

    #[test]
    fn strides_match_convention() {
        // shape (I=2, J=3, K=4)
        assert_eq!(unfold_strides(&[2, 3, 4], 0), vec![0, 1, 3]); // col = j + k·J
        assert_eq!(unfold_strides(&[2, 3, 4], 1), vec![1, 0, 2]); // col = i + k·I
        assert_eq!(unfold_strides(&[2, 3, 4], 2), vec![1, 2, 0]); // col = i + j·I
    }

    #[test]
    fn matricize_mode1_dims_and_positions() {
        let m = matricize(&t(), 0).unwrap();
        assert_eq!(m.rows, 2);
        assert_eq!(m.cols, 12);
        assert_eq!(m.nnz(), 3);
        // (1,2,3) → row 1, col 2 + 3·3 = 11.
        assert!(m.entries.contains(&(1, 11, 2.0)));
        // (0,1,2) → row 0, col 1 + 2·3 = 7.
        assert!(m.entries.contains(&(0, 7, -3.0)));
    }

    #[test]
    fn matricize_all_modes_preserve_nnz_and_values() {
        let x = t();
        for mode in 0..3 {
            let m = matricize(&x, mode).unwrap();
            assert_eq!(m.nnz(), x.nnz());
            let mut vals: Vec<f64> = m.entries.iter().map(|e| e.2).collect();
            vals.sort_by(|a, b| a.partial_cmp(b).unwrap());
            assert_eq!(vals, vec![-3.0, 1.0, 2.0]);
        }
    }

    #[test]
    fn matricize_rejects_bad_mode() {
        assert!(matricize(&t(), 3).is_err());
    }

    #[test]
    fn unfolding_columns_are_unique_per_distinct_offmode_coord() {
        let x = t();
        let m = matricize(&x, 0).unwrap();
        let mut cols: Vec<u64> = m.entries.iter().map(|e| e.1).collect();
        cols.sort_unstable();
        cols.dedup();
        assert_eq!(cols.len(), 3);
    }

    #[test]
    fn matmul_dense_identity() {
        let x = t();
        let m = matricize(&x, 0).unwrap();
        let id = DenseMatrix::identity(12);
        let d = m.matmul_dense(&id).unwrap();
        assert_eq!(d.rows(), 2);
        assert_eq!(d.cols(), 12);
        assert_eq!(d.get(1, 11), 2.0);
        assert_eq!(d.get(0, 0), 1.0);
    }

    #[test]
    fn matmul_dense_shape_check() {
        let m = matricize(&t(), 0).unwrap();
        assert!(m.matmul_dense(&DenseMatrix::zeros(5, 2)).is_err());
    }
}
