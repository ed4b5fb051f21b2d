//! Khatri-Rao products (and, in the tests, the Kronecker product they are
//! checked against).
//!
//! CSTF's whole point is to *avoid* materializing these ("the result matrix
//! of explicitly constructing the Khatri-Rao product C ⊙ B is a dense matrix
//! of size JK × R, which is very large and is defined as the intermediate
//! data explosion problem", paper §2.3). We implement them anyway: the
//! reference (unfolded) MTTKRP uses them to validate the COO
//! implementations, and the benchmark suite uses them to demonstrate the
//! blowup.

use crate::{DenseMatrix, Result, TensorError};

/// Khatri-Rao (column-wise Kronecker) product `A ⊙ B`.
///
/// For `A: I×R` and `B: J×R`, the result is `(I·J)×R` with
/// `(A ⊙ B)[i·J + j, r] = A[i, r] · B[j, r]`.
///
/// Row ordering convention: the *first* operand's row index is the slow
/// dimension. With this convention, mode-1 MTTKRP of a third-order tensor is
/// `X₍₁₎ · (C ⊙ B)` where `X₍₁₎`'s columns are indexed by `z = k·J + j`
/// (matching [`crate::matricize::matricize`] with reverse-mode ordering).
pub fn khatri_rao(a: &DenseMatrix, b: &DenseMatrix) -> Result<DenseMatrix> {
    if a.cols() != b.cols() {
        return Err(TensorError::ShapeMismatch(format!(
            "khatri_rao: column counts differ ({} vs {})",
            a.cols(),
            b.cols()
        )));
    }
    let r = a.cols();
    let mut out = DenseMatrix::zeros(a.rows() * b.rows(), r);
    for i in 0..a.rows() {
        let arow = a.row(i);
        for j in 0..b.rows() {
            let brow = b.row(j);
            let orow = out.row_mut(i * b.rows() + j);
            for c in 0..r {
                orow[c] = arow[c] * brow[c];
            }
        }
    }
    Ok(out)
}

/// Khatri-Rao product of a sequence of matrices, left-associated:
/// `M₁ ⊙ M₂ ⊙ ⋯ ⊙ M_k`.
///
/// # Panics
///
/// Panics if `mats` is empty.
pub fn khatri_rao_all(mats: &[&DenseMatrix]) -> Result<DenseMatrix> {
    assert!(!mats.is_empty(), "khatri_rao_all of zero matrices");
    let mut acc = mats[0].clone();
    for m in &mats[1..] {
        acc = khatri_rao(&acc, m)?;
    }
    Ok(acc)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{rngs::StdRng, SeedableRng};

    /// Reference Kronecker product `A ⊗ B` (`(I·K) × (J·L)` for `A: I×J`,
    /// `B: K×L`): Khatri-Rao columns are its columns.
    fn kronecker(a: &DenseMatrix, b: &DenseMatrix) -> DenseMatrix {
        let mut out = DenseMatrix::zeros(a.rows() * b.rows(), a.cols() * b.cols());
        for ia in 0..a.rows() {
            for ja in 0..a.cols() {
                let s = a.get(ia, ja);
                if s == 0.0 {
                    continue;
                }
                for ib in 0..b.rows() {
                    for jb in 0..b.cols() {
                        out.set(ia * b.rows() + ib, ja * b.cols() + jb, s * b.get(ib, jb));
                    }
                }
            }
        }
        out
    }

    #[test]
    fn khatri_rao_small_known() {
        let a = DenseMatrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
        let b = DenseMatrix::from_rows(&[&[5.0, 6.0], &[7.0, 8.0], &[9.0, 10.0]]);
        let k = khatri_rao(&a, &b).unwrap();
        assert_eq!(k.rows(), 6);
        assert_eq!(k.cols(), 2);
        // Row (i=0, j=0): [1*5, 2*6]
        assert_eq!(k.row(0), &[5.0, 12.0]);
        // Row (i=1, j=2): [3*9, 4*10]
        assert_eq!(k.row(5), &[27.0, 40.0]);
    }

    #[test]
    fn khatri_rao_rejects_col_mismatch() {
        let a = DenseMatrix::zeros(2, 2);
        let b = DenseMatrix::zeros(2, 3);
        assert!(khatri_rao(&a, &b).is_err());
    }

    /// The central CP-ALS identity: (A ⊙ B)ᵀ (A ⊙ B) = AᵀA ∗ BᵀB.
    /// This is what lets CP-ALS avoid forming the Khatri-Rao product when
    /// solving the normal equations (the `V` queue of Algorithm 3).
    #[test]
    fn gram_of_khatri_rao_is_hadamard_of_grams() {
        let mut rng = StdRng::seed_from_u64(99);
        let a = DenseMatrix::random(5, 3, &mut rng);
        let b = DenseMatrix::random(4, 3, &mut rng);
        let kr = khatri_rao(&a, &b).unwrap();
        let lhs = kr.gram();
        let rhs = a.gram().hadamard(&b.gram()).unwrap();
        assert!(lhs.max_abs_diff(&rhs) < 1e-12);
    }

    #[test]
    fn khatri_rao_all_three_matrices() {
        let mut rng = StdRng::seed_from_u64(1);
        let a = DenseMatrix::random(2, 2, &mut rng);
        let b = DenseMatrix::random(3, 2, &mut rng);
        let c = DenseMatrix::random(4, 2, &mut rng);
        let k = khatri_rao_all(&[&a, &b, &c]).unwrap();
        assert_eq!(k.rows(), 24);
        // Spot-check one element: row (i,j,l) = i*12 + j*4 + l.
        let (i, j, l) = (1, 2, 3);
        let row = k.row(i * 12 + j * 4 + l);
        for (r, &got) in row.iter().enumerate().take(2) {
            let expect = a.get(i, r) * b.get(j, r) * c.get(l, r);
            assert!((got - expect).abs() < 1e-14);
        }
    }

    #[test]
    fn kronecker_identity_blocks() {
        let i2 = DenseMatrix::identity(2);
        let a = DenseMatrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
        let k = kronecker(&i2, &a);
        assert_eq!(k.rows(), 4);
        assert_eq!(k.get(0, 0), 1.0);
        assert_eq!(k.get(1, 1), 4.0);
        assert_eq!(k.get(2, 2), 1.0);
        assert_eq!(k.get(3, 3), 4.0);
        assert_eq!(k.get(0, 2), 0.0);
    }

    /// Khatri-Rao columns are the Kronecker products of the corresponding
    /// columns.
    #[test]
    fn khatri_rao_columns_are_kronecker_columns() {
        let mut rng = StdRng::seed_from_u64(17);
        let a = DenseMatrix::random(3, 2, &mut rng);
        let b = DenseMatrix::random(2, 2, &mut rng);
        let kr = khatri_rao(&a, &b).unwrap();
        for r in 0..2 {
            let acol = DenseMatrix::from_vec(3, 1, (0..3).map(|i| a.get(i, r)).collect());
            let bcol = DenseMatrix::from_vec(2, 1, (0..2).map(|i| b.get(i, r)).collect());
            let kcol = kronecker(&acol, &bcol);
            for i in 0..6 {
                assert!((kr.get(i, r) - kcol.get(i, 0)).abs() < 1e-14);
            }
        }
    }
}
