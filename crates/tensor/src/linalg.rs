//! Small dense linear-algebra routines for the CP-ALS normal equations.
//!
//! Each factor update solves `Aₙ ← Mₙ · V⁺` where `V = ∗_{m≠n} AₘᵀAₘ` is a
//! small `R × R` symmetric positive-semidefinite matrix (Algorithms 1 and 3
//! in the paper use the pseudoinverse `†`). `R` is tiny — the paper fixes
//! `R = 2` — so Jacobi eigendecomposition and unblocked Cholesky are more
//! than adequate and keep the crate dependency-free.

use crate::{DenseMatrix, Result, TensorError};

/// Relative eigenvalue cutoff for the pseudoinverse: eigenvalues below
/// `PINV_RCOND * λ_max` are treated as zero.
///
/// Jacobi eigenvectors carry ~1e-15 relative error; inverting an
/// eigenvalue much smaller than `1e-10·λ_max` would amplify that noise
/// past the residual tolerances CP-ALS relies on, so such directions are
/// treated as genuine rank deficiency instead.
pub(crate) const PINV_RCOND: f64 = 1e-10;

/// Cholesky factorization of a symmetric positive-definite matrix:
/// returns lower-triangular `L` with `L·Lᵀ = A`.
pub(crate) fn cholesky(a: &DenseMatrix) -> Result<DenseMatrix> {
    if a.rows() != a.cols() {
        return Err(TensorError::ShapeMismatch(format!(
            "cholesky of non-square {}x{}",
            a.rows(),
            a.cols()
        )));
    }
    let n = a.rows();
    let mut l = DenseMatrix::zeros(n, n);
    for i in 0..n {
        for j in 0..=i {
            let mut sum = a.get(i, j);
            for k in 0..j {
                sum -= l.get(i, k) * l.get(j, k);
            }
            if i == j {
                if sum <= 0.0 {
                    return Err(TensorError::Singular(format!(
                        "pivot {sum:e} at index {i} is not positive"
                    )));
                }
                l.set(i, j, sum.sqrt());
            } else {
                l.set(i, j, sum / l.get(j, j));
            }
        }
    }
    Ok(l)
}

/// Solves `A·x = b` for symmetric positive-definite `A` via Cholesky.
/// `b` may have multiple right-hand-side columns.
pub fn solve_spd(a: &DenseMatrix, b: &DenseMatrix) -> Result<DenseMatrix> {
    let l = cholesky(a)?;
    let n = a.rows();
    if b.rows() != n {
        return Err(TensorError::ShapeMismatch(format!(
            "solve_spd: rhs has {} rows, matrix has {n}",
            b.rows()
        )));
    }
    let m = b.cols();
    let mut x = b.clone();
    // Forward substitution: L·y = b.
    for i in 0..n {
        for c in 0..m {
            let mut v = x.get(i, c);
            for k in 0..i {
                v -= l.get(i, k) * x.get(k, c);
            }
            x.set(i, c, v / l.get(i, i));
        }
    }
    // Back substitution: Lᵀ·x = y.
    for i in (0..n).rev() {
        for c in 0..m {
            let mut v = x.get(i, c);
            for k in i + 1..n {
                v -= l.get(k, i) * x.get(k, c);
            }
            x.set(i, c, v / l.get(i, i));
        }
    }
    Ok(x)
}

/// Symmetric eigendecomposition by cyclic Jacobi rotations.
///
/// Returns `(eigenvalues, V)` with `A = V · diag(λ) · Vᵀ` and orthonormal
/// columns in `V`. Eigenvalues are sorted descending.
pub(crate) fn jacobi_eigen(a: &DenseMatrix) -> Result<(Vec<f64>, DenseMatrix)> {
    if a.rows() != a.cols() {
        return Err(TensorError::ShapeMismatch(format!(
            "eigendecomposition of non-square {}x{}",
            a.rows(),
            a.cols()
        )));
    }
    let n = a.rows();
    let mut m = a.clone();
    let mut v = DenseMatrix::identity(n);

    // Frobenius-scaled convergence threshold.
    let scale = a.frobenius_norm().max(f64::MIN_POSITIVE);
    let tol = 1e-14 * scale;
    let max_sweeps = 64;

    for _ in 0..max_sweeps {
        // Largest off-diagonal magnitude.
        let mut off = 0.0f64;
        for i in 0..n {
            for j in i + 1..n {
                off = off.max(m.get(i, j).abs());
            }
        }
        if off <= tol {
            break;
        }
        for p in 0..n {
            for q in p + 1..n {
                let apq = m.get(p, q);
                if apq.abs() <= tol {
                    continue;
                }
                let app = m.get(p, p);
                let aqq = m.get(q, q);
                let theta = (aqq - app) / (2.0 * apq);
                // Stable tangent of the rotation angle.
                let t = if theta >= 0.0 {
                    1.0 / (theta + (1.0 + theta * theta).sqrt())
                } else {
                    -1.0 / (-theta + (1.0 + theta * theta).sqrt())
                };
                let c = 1.0 / (1.0 + t * t).sqrt();
                let s = t * c;
                // Apply the rotation G(p,q,θ) on both sides: m = Gᵀ m G.
                for k in 0..n {
                    let mkp = m.get(k, p);
                    let mkq = m.get(k, q);
                    m.set(k, p, c * mkp - s * mkq);
                    m.set(k, q, s * mkp + c * mkq);
                }
                for k in 0..n {
                    let mpk = m.get(p, k);
                    let mqk = m.get(q, k);
                    m.set(p, k, c * mpk - s * mqk);
                    m.set(q, k, s * mpk + c * mqk);
                }
                for k in 0..n {
                    let vkp = v.get(k, p);
                    let vkq = v.get(k, q);
                    v.set(k, p, c * vkp - s * vkq);
                    v.set(k, q, s * vkp + c * vkq);
                }
            }
        }
    }

    let mut pairs: Vec<(f64, usize)> = (0..n).map(|i| (m.get(i, i), i)).collect();
    pairs.sort_by(|a, b| b.0.partial_cmp(&a.0).unwrap_or(std::cmp::Ordering::Equal));
    let eigvals: Vec<f64> = pairs.iter().map(|&(l, _)| l).collect();
    let mut vec_sorted = DenseMatrix::zeros(n, n);
    for (new_c, &(_, old_c)) in pairs.iter().enumerate() {
        for r in 0..n {
            vec_sorted.set(r, new_c, v.get(r, old_c));
        }
    }
    Ok((eigvals, vec_sorted))
}

/// Moore–Penrose pseudoinverse of a symmetric matrix via eigendecomposition.
///
/// This is the `M†` of Algorithm 1/3: the gram-product matrix `V` can be
/// rank-deficient (e.g. zero factor columns), so CP-ALS uses `V⁺` instead of
/// an inverse.
pub fn pinv_symmetric(a: &DenseMatrix) -> Result<DenseMatrix> {
    let (eigvals, v) = jacobi_eigen(a)?;
    let n = a.rows();
    let lmax = eigvals.iter().fold(0.0f64, |m, &l| m.max(l.abs()));
    let cutoff = PINV_RCOND * lmax;
    let mut out = DenseMatrix::zeros(n, n);
    for (c, &l) in eigvals.iter().enumerate() {
        if l.abs() <= cutoff {
            continue;
        }
        let inv = 1.0 / l;
        // out += inv * v_c v_cᵀ
        for i in 0..n {
            let vi = v.get(i, c);
            if vi == 0.0 {
                continue;
            }
            for j in 0..n {
                let cur = out.get(i, j);
                out.set(i, j, cur + inv * vi * v.get(j, c));
            }
        }
    }
    Ok(out)
}

/// Solves the CP-ALS normal equations `Aₙ = Mₙ · V⁺` for the MTTKRP output
/// `Mₙ` (`Iₙ × R`) and gram product `V` (`R × R`).
///
/// Tries Cholesky first (fast path: `V` is usually positive definite) and
/// falls back to the pseudoinverse when `V` is (near-)singular.
pub fn solve_normal_equations(m: &DenseMatrix, v: &DenseMatrix) -> Result<DenseMatrix> {
    if v.rows() != v.cols() || m.cols() != v.rows() {
        return Err(TensorError::ShapeMismatch(format!(
            "normal equations: M is {}x{}, V is {}x{}",
            m.rows(),
            m.cols(),
            v.rows(),
            v.cols()
        )));
    }
    // A = M V⁺  ⇔  Aᵀ = V⁺ Mᵀ  ⇔  V Aᵀ = Mᵀ (when V is invertible).
    match solve_spd(v, &m.transpose()) {
        Ok(xt) if xt.all_finite() => Ok(xt.transpose()),
        _ => {
            let p = pinv_symmetric(v)?;
            m.matmul(&p)
        }
    }
}

/// First half of an ALS mode update: the new factor `Aₙ = Mₙ · V⁺` for the
/// MTTKRP output `m` of `mode`, where `V = ∗ₘ≠ₙ Gₘ` is the Hadamard product
/// of the other modes' Gram matrices. The caller may constrain or check the
/// result before handing it to [`als_normalize`].
pub fn als_solve(m: &DenseMatrix, grams: &[DenseMatrix], mode: usize) -> Result<DenseMatrix> {
    let rank = m.cols();
    let mut v = DenseMatrix::from_vec(rank, rank, vec![1.0; rank * rank]);
    for (g_mode, g) in grams.iter().enumerate() {
        if g_mode != mode {
            v = v.hadamard(g)?;
        }
    }
    solve_normal_equations(m, &v)
}

/// Second half of an ALS mode update: normalizes the columns of `updated`,
/// stores it as `factors[mode]` with its Gram in `grams[mode]`, and returns
/// the column norms `λ` — an all-zero column reports `λ = 1`, not 0, so the
/// reconstruction stays well-defined.
pub fn als_normalize(
    mut updated: DenseMatrix,
    mode: usize,
    factors: &mut [DenseMatrix],
    grams: &mut [DenseMatrix],
) -> Vec<f64> {
    let mut lambda = updated.normalize_columns();
    for l in &mut lambda {
        if *l == 0.0 {
            *l = 1.0;
        }
    }
    grams[mode] = updated.gram();
    factors[mode] = updated;
    lambda
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{rngs::StdRng, SeedableRng};

    #[test]
    fn als_halves_solve_against_the_other_grams_and_guard_zero_columns() {
        let mut rng = StdRng::seed_from_u64(5);
        let mut factors: Vec<DenseMatrix> = [4, 3, 5]
            .iter()
            .map(|&rows| DenseMatrix::random(rows, 2, &mut rng))
            .collect();
        let mut grams: Vec<DenseMatrix> = factors.iter().map(DenseMatrix::gram).collect();
        let m = DenseMatrix::random(3, 2, &mut rng);
        let v = grams[0].hadamard(&grams[2]).unwrap();
        let solved = als_solve(&m, &grams, 1).unwrap();
        assert_eq!(solved, solve_normal_equations(&m, &v).unwrap());

        // Column 0 is all zero: it stays zero and reports λ = 1.
        let updated = DenseMatrix::from_vec(3, 2, vec![0.0, 3.0, 0.0, 0.0, 0.0, 4.0]);
        let lambda = als_normalize(updated, 1, &mut factors, &mut grams);
        assert_eq!(lambda, vec![1.0, 5.0]);
        assert_eq!(factors[1].data(), &[0.0, 0.6, 0.0, 0.0, 0.0, 0.8]);
        assert_eq!(grams[1], factors[1].gram());
    }

    fn spd(n: usize, seed: u64) -> DenseMatrix {
        let mut rng = StdRng::seed_from_u64(seed);
        let b = DenseMatrix::random(n + 2, n, &mut rng);
        let mut g = b.gram();
        for i in 0..n {
            g.set(i, i, g.get(i, i) + 0.5); // keep it comfortably PD
        }
        g
    }

    #[test]
    fn cholesky_reconstructs() {
        let a = spd(4, 1);
        let l = cholesky(&a).unwrap();
        let back = l.matmul(&l.transpose()).unwrap();
        assert!(back.max_abs_diff(&a) < 1e-10);
        // L is lower-triangular.
        for i in 0..4 {
            for j in i + 1..4 {
                assert_eq!(l.get(i, j), 0.0);
            }
        }
    }

    #[test]
    fn cholesky_rejects_indefinite() {
        let a = DenseMatrix::from_rows(&[&[1.0, 2.0], &[2.0, 1.0]]); // eigvals 3, -1
        assert!(matches!(cholesky(&a), Err(TensorError::Singular(_))));
    }

    #[test]
    fn cholesky_rejects_non_square() {
        assert!(cholesky(&DenseMatrix::zeros(2, 3)).is_err());
    }

    #[test]
    fn solve_spd_recovers_solution() {
        let a = spd(5, 2);
        let mut rng = StdRng::seed_from_u64(3);
        let x_true = DenseMatrix::random(5, 3, &mut rng);
        let b = a.matmul(&x_true).unwrap();
        let x = solve_spd(&a, &b).unwrap();
        assert!(x.max_abs_diff(&x_true) < 1e-8);
    }

    #[test]
    fn jacobi_diagonal_matrix() {
        let a = DenseMatrix::from_rows(&[&[3.0, 0.0], &[0.0, 1.0]]);
        let (vals, vecs) = jacobi_eigen(&a).unwrap();
        assert!((vals[0] - 3.0).abs() < 1e-12);
        assert!((vals[1] - 1.0).abs() < 1e-12);
        // Eigenvectors are signed unit axes.
        assert!((vecs.get(0, 0).abs() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn jacobi_reconstructs_random_symmetric() {
        let a = spd(6, 7);
        let (vals, v) = jacobi_eigen(&a).unwrap();
        // A = V diag(λ) Vᵀ
        let mut d = DenseMatrix::zeros(6, 6);
        for (i, &l) in vals.iter().enumerate() {
            d.set(i, i, l);
        }
        let back = v.matmul(&d).unwrap().matmul(&v.transpose()).unwrap();
        assert!(back.max_abs_diff(&a) < 1e-9);
        // V orthonormal.
        let vtv = v.transpose().matmul(&v).unwrap();
        assert!(vtv.max_abs_diff(&DenseMatrix::identity(6)) < 1e-10);
        // Eigenvalues sorted descending.
        for w in vals.windows(2) {
            assert!(w[0] >= w[1] - 1e-12);
        }
    }

    #[test]
    fn jacobi_known_2x2() {
        // [[2,1],[1,2]] has eigenvalues 3 and 1.
        let a = DenseMatrix::from_rows(&[&[2.0, 1.0], &[1.0, 2.0]]);
        let (vals, _) = jacobi_eigen(&a).unwrap();
        assert!((vals[0] - 3.0).abs() < 1e-12);
        assert!((vals[1] - 1.0).abs() < 1e-12);
    }

    #[test]
    fn pinv_of_invertible_is_inverse() {
        let a = spd(4, 9);
        let p = pinv_symmetric(&a).unwrap();
        let prod = a.matmul(&p).unwrap();
        assert!(prod.max_abs_diff(&DenseMatrix::identity(4)) < 1e-9);
    }

    /// The four Penrose axioms for a genuinely rank-deficient matrix.
    #[test]
    fn pinv_penrose_axioms_rank_deficient() {
        // Rank-1 symmetric: u uᵀ with u = [1, 2, 3].
        let u = DenseMatrix::from_vec(3, 1, vec![1.0, 2.0, 3.0]);
        let a = u.matmul(&u.transpose()).unwrap();
        let p = pinv_symmetric(&a).unwrap();
        let apa = a.matmul(&p).unwrap().matmul(&a).unwrap();
        assert!(apa.max_abs_diff(&a) < 1e-9, "A P A = A");
        let pap = p.matmul(&a).unwrap().matmul(&p).unwrap();
        assert!(pap.max_abs_diff(&p) < 1e-9, "P A P = P");
        let ap = a.matmul(&p).unwrap();
        assert!(ap.max_abs_diff(&ap.transpose()) < 1e-9, "(AP)ᵀ = AP");
        let pa = p.matmul(&a).unwrap();
        assert!(pa.max_abs_diff(&pa.transpose()) < 1e-9, "(PA)ᵀ = PA");
    }

    #[test]
    fn pinv_of_zero_is_zero() {
        let z = DenseMatrix::zeros(3, 3);
        let p = pinv_symmetric(&z).unwrap();
        assert_eq!(p, z);
    }

    #[test]
    fn normal_equations_match_pinv_path() {
        let mut rng = StdRng::seed_from_u64(21);
        let m = DenseMatrix::random(7, 3, &mut rng);
        let v = spd(3, 22);
        let fast = solve_normal_equations(&m, &v).unwrap();
        let slow = m.matmul(&pinv_symmetric(&v).unwrap()).unwrap();
        assert!(fast.max_abs_diff(&slow) < 1e-8);
    }

    #[test]
    fn normal_equations_singular_v_falls_back() {
        let mut rng = StdRng::seed_from_u64(23);
        let m = DenseMatrix::random(4, 2, &mut rng);
        let v = DenseMatrix::from_rows(&[&[1.0, 1.0], &[1.0, 1.0]]); // rank 1
        let a = solve_normal_equations(&m, &v).unwrap();
        assert!(a.all_finite());
        // Consistency: A·V ≈ M projected onto range(V). Verify A V V⁺ = A V.
        let p = pinv_symmetric(&v).unwrap();
        let av = a.matmul(&v).unwrap();
        let avvp = av.matmul(&v).unwrap().matmul(&p).unwrap();
        assert!(av.max_abs_diff(&avvp) < 1e-9);
    }

    #[test]
    fn normal_equations_shape_errors() {
        let m = DenseMatrix::zeros(4, 2);
        let v = DenseMatrix::zeros(3, 3);
        assert!(solve_normal_equations(&m, &v).is_err());
    }
}
