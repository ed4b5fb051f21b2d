//! Kruskal tensors — the output `[λ; A₁, …, A_N]` of a CP decomposition.
//!
//! A rank-`R` Kruskal tensor is a weighted sum of `R` rank-one tensors:
//! `X̂ = Σ_r λ_r · a¹_r ∘ a²_r ∘ ⋯ ∘ a^N_r`. CP-ALS (Algorithm 1 in the
//! paper) produces normalized factor matrices plus the column norms `λ`.

use crate::{CooTensor, DenseMatrix, Result, TensorError};

/// A CP decomposition result: weights `λ` and one normalized factor matrix
/// per mode.
#[derive(Debug, Clone, PartialEq)]
pub struct KruskalTensor {
    /// Component weights `λ`, length `R`.
    pub weights: Vec<f64>,
    /// Factor matrices, `factors[m]` is `Iₘ × R`.
    pub factors: Vec<DenseMatrix>,
}

impl KruskalTensor {
    /// Builds a Kruskal tensor, validating that every factor has `R`
    /// columns.
    pub fn new(weights: Vec<f64>, factors: Vec<DenseMatrix>) -> Result<Self> {
        if factors.is_empty() {
            return Err(TensorError::ShapeMismatch(
                "Kruskal tensor needs at least one factor".into(),
            ));
        }
        let r = weights.len();
        for (m, f) in factors.iter().enumerate() {
            if f.cols() != r {
                return Err(TensorError::ShapeMismatch(format!(
                    "factor {m} has {} columns, expected rank {r}",
                    f.cols()
                )));
            }
        }
        Ok(KruskalTensor { weights, factors })
    }

    /// Decomposition rank `R`.
    pub fn rank(&self) -> usize {
        self.weights.len()
    }

    /// Tensor order `N`.
    pub fn order(&self) -> usize {
        self.factors.len()
    }

    /// Implied shape `(I₁, …, I_N)`.
    pub fn shape(&self) -> Vec<u32> {
        self.factors.iter().map(|f| f.rows() as u32).collect()
    }

    /// Value of the reconstructed tensor at `coord`:
    /// `Σ_r λ_r Π_m A_m(iₘ, r)`.
    pub fn eval(&self, coord: &[u32]) -> f64 {
        debug_assert_eq!(coord.len(), self.order());
        let mut total = 0.0;
        for r in 0..self.rank() {
            let mut prod = self.weights[r];
            for (m, &i) in coord.iter().enumerate() {
                prod *= self.factors[m].get(i as usize, r);
            }
            total += prod;
        }
        total
    }

    /// Squared Frobenius norm of the reconstruction, computed *without*
    /// materializing it: `‖X̂‖² = λᵀ (∗_m AₘᵀAₘ) λ`.
    pub(crate) fn norm_squared(&self) -> f64 {
        let r = self.rank();
        if r == 0 {
            return 0.0;
        }
        let mut gram_prod = DenseMatrix::from_vec(r, r, vec![1.0; r * r]);
        for f in &self.factors {
            gram_prod = gram_prod
                .hadamard(&f.gram())
                .expect("gram matrices share rank");
        }
        let mut total = 0.0;
        for i in 0..r {
            for j in 0..r {
                total += self.weights[i] * self.weights[j] * gram_prod.get(i, j);
            }
        }
        total.max(0.0)
    }

    /// Inner product `⟨X, X̂⟩` with a sparse tensor, summing only over the
    /// stored nonzeros of `X`.
    pub(crate) fn inner_with(&self, x: &CooTensor) -> Result<f64> {
        if x.shape() != self.shape().as_slice() {
            return Err(TensorError::ShapeMismatch(format!(
                "tensor shape {:?} vs Kruskal shape {:?}",
                x.shape(),
                self.shape()
            )));
        }
        Ok(x.iter().map(|(coord, v)| v * self.eval(coord)).sum())
    }

    /// CP *fit* against `x`: `1 − ‖X − X̂‖_F / ‖X‖_F`, the standard quality
    /// metric for CP decompositions (1 is perfect). Uses the expansion
    /// `‖X − X̂‖² = ‖X‖² − 2⟨X, X̂⟩ + ‖X̂‖²` so the residual is never
    /// materialized.
    ///
    /// Note: exact only when `X` is *interpreted* as its stored nonzeros
    /// (zero elsewhere), which is the standard sparse-CP objective.
    pub fn fit(&self, x: &CooTensor) -> Result<f64> {
        let xnorm2 = x.norm_squared();
        if xnorm2 == 0.0 {
            return Err(TensorError::ShapeMismatch(
                "fit is undefined against an all-zero tensor".into(),
            ));
        }
        let resid2 = (xnorm2 - 2.0 * self.inner_with(x)? + self.norm_squared()).max(0.0);
        Ok(1.0 - (resid2.sqrt() / xnorm2.sqrt()))
    }

    /// Densifies the reconstruction (row-major, last mode fastest).
    /// For small tensors only.
    pub fn to_dense(&self) -> Vec<f64> {
        let shape = self.shape();
        let total: usize = shape.iter().map(|&s| s as usize).product();
        let mut out = vec![0.0; total];
        let order = self.order();
        let mut coord = vec![0u32; order];
        for slot in out.iter_mut() {
            *slot = self.eval(&coord);
            for d in (0..order).rev() {
                coord[d] += 1;
                if coord[d] < shape[d] {
                    break;
                }
                coord[d] = 0;
            }
        }
        out
    }

    /// Normalizes all factor columns to unit norm, folding the norms into
    /// the weights. Idempotent.
    pub(crate) fn normalize(&mut self) {
        for f in &mut self.factors {
            let norms = f.normalize_columns();
            for (w, n) in self.weights.iter_mut().zip(norms) {
                *w *= n;
            }
        }
    }

    /// Total parameter count: `R·(1 + Σ Iₘ)` — the compression the paper's
    /// intro motivates.
    pub fn parameter_count(&self) -> usize {
        self.rank() * (1 + self.factors.iter().map(|f| f.rows()).sum::<usize>())
    }

    /// Factor match score (FMS) against another Kruskal tensor of the same
    /// shape and rank: components are greedily matched by the product of
    /// absolute column cosine similarities across modes, and the score is
    /// the mean similarity of the matching (1 = identical factors up to
    /// permutation and sign). The standard metric for "did the
    /// decomposition recover the planted factors".
    ///
    /// Greedy matching is exact for well-separated components; for
    /// near-degenerate ones it lower-bounds the optimal assignment.
    pub fn factor_match_score(&self, other: &KruskalTensor) -> Result<f64> {
        if self.shape() != other.shape() {
            return Err(TensorError::ShapeMismatch(format!(
                "shapes {:?} vs {:?}",
                self.shape(),
                other.shape()
            )));
        }
        if self.rank() != other.rank() {
            return Err(TensorError::ShapeMismatch(format!(
                "ranks {} vs {}",
                self.rank(),
                other.rank()
            )));
        }
        let r = self.rank();
        if r == 0 {
            return Ok(1.0);
        }
        // Column norms per factor.
        let col = |k: &KruskalTensor, m: usize, c: usize| -> Vec<f64> {
            (0..k.factors[m].rows())
                .map(|row| k.factors[m].get(row, c))
                .collect()
        };
        let cos = |a: &[f64], b: &[f64]| -> f64 {
            let dot: f64 = a.iter().zip(b).map(|(x, y)| x * y).sum();
            let na: f64 = a.iter().map(|x| x * x).sum::<f64>().sqrt();
            let nb: f64 = b.iter().map(|x| x * x).sum::<f64>().sqrt();
            if na == 0.0 || nb == 0.0 {
                0.0
            } else {
                (dot / (na * nb)).abs()
            }
        };
        // Similarity of every component pair: product over modes.
        let mut sim = vec![vec![0.0f64; r]; r];
        for (i, row) in sim.iter_mut().enumerate() {
            for (j, s) in row.iter_mut().enumerate() {
                let mut p = 1.0;
                for m in 0..self.order() {
                    p *= cos(&col(self, m, i), &col(other, m, j));
                }
                *s = p;
            }
        }
        // Greedy maximum matching.
        let mut used_i = vec![false; r];
        let mut used_j = vec![false; r];
        let mut total = 0.0;
        for _ in 0..r {
            let mut best = (0usize, 0usize, -1.0f64);
            for i in 0..r {
                if used_i[i] {
                    continue;
                }
                for j in 0..r {
                    if used_j[j] {
                        continue;
                    }
                    if sim[i][j] > best.2 {
                        best = (i, j, sim[i][j]);
                    }
                }
            }
            used_i[best.0] = true;
            used_j[best.1] = true;
            total += best.2;
        }
        Ok(total / r as f64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{rngs::StdRng, SeedableRng};

    fn rank1() -> KruskalTensor {
        // λ=2, a = [1, 0.5], b = [1, 2, 3]
        KruskalTensor::new(
            vec![2.0],
            vec![
                DenseMatrix::from_rows(&[&[1.0], &[0.5]]),
                DenseMatrix::from_rows(&[&[1.0], &[2.0], &[3.0]]),
            ],
        )
        .unwrap()
    }

    fn random_kruskal(shape: &[u32], rank: usize, seed: u64) -> KruskalTensor {
        let mut rng = StdRng::seed_from_u64(seed);
        let factors = shape
            .iter()
            .map(|&s| DenseMatrix::random(s as usize, rank, &mut rng))
            .collect();
        let weights = (0..rank)
            .map(|_| 1.0 + rand::Rng::gen::<f64>(&mut rng))
            .collect();
        KruskalTensor::new(weights, factors).unwrap()
    }

    #[test]
    fn eval_rank1() {
        let k = rank1();
        assert_eq!(k.eval(&[0, 0]), 2.0);
        assert_eq!(k.eval(&[1, 2]), 2.0 * 0.5 * 3.0);
        assert_eq!(k.rank(), 1);
        assert_eq!(k.order(), 2);
        assert_eq!(k.shape(), vec![2, 3]);
    }

    #[test]
    fn new_rejects_rank_mismatch() {
        let f = vec![DenseMatrix::zeros(2, 2), DenseMatrix::zeros(3, 3)];
        assert!(KruskalTensor::new(vec![1.0, 1.0], f).is_err());
        assert!(KruskalTensor::new(vec![], vec![]).is_err());
    }

    #[test]
    fn norm_squared_matches_dense() {
        let k = random_kruskal(&[4, 3, 5], 3, 9);
        let dense = k.to_dense();
        let dense_norm2: f64 = dense.iter().map(|v| v * v).sum();
        assert!((k.norm_squared() - dense_norm2).abs() < 1e-9 * dense_norm2.max(1.0));
    }

    #[test]
    fn inner_product_matches_dense() {
        let k = random_kruskal(&[3, 4, 2], 2, 10);
        let x = crate::random::RandomTensor::new(vec![3, 4, 2])
            .nnz(10)
            .seed(4)
            .build();
        let inner = k.inner_with(&x).unwrap();
        let manual: f64 = x.iter().map(|(c, v)| v * k.eval(c)).sum();
        assert!((inner - manual).abs() < 1e-12);
    }

    #[test]
    fn inner_rejects_shape_mismatch() {
        let k = rank1();
        let x = CooTensor::new(vec![2, 4]);
        assert!(k.inner_with(&x).is_err());
    }

    #[test]
    fn fit_is_one_for_exact_representation() {
        // Build X exactly from a Kruskal tensor: all entries present.
        let k = random_kruskal(&[3, 3, 3], 2, 11);
        let dense = k.to_dense();
        let x = CooTensor::from_dense(vec![3, 3, 3], &dense, 0.0).unwrap();
        let fit = k.fit(&x).unwrap();
        assert!((fit - 1.0).abs() < 1e-7, "fit was {fit}");
    }

    #[test]
    fn fit_degrades_for_perturbed_weights() {
        let k = random_kruskal(&[3, 3, 3], 2, 12);
        let dense = k.to_dense();
        let x = CooTensor::from_dense(vec![3, 3, 3], &dense, 0.0).unwrap();
        let mut bad = k.clone();
        bad.weights[0] *= 3.0;
        assert!(bad.fit(&x).unwrap() < k.fit(&x).unwrap());
    }

    #[test]
    fn fit_undefined_for_zero_tensor() {
        let k = rank1();
        let x = CooTensor::new(vec![2, 3]);
        assert!(k.fit(&x).is_err());
    }

    #[test]
    fn normalize_preserves_reconstruction() {
        let mut k = random_kruskal(&[4, 4], 3, 13);
        let before = k.to_dense();
        k.normalize();
        let after = k.to_dense();
        for (b, a) in before.iter().zip(&after) {
            assert!((b - a).abs() < 1e-10);
        }
        // Columns are unit-norm afterwards.
        for f in &k.factors {
            for n in f.column_norms() {
                assert!((n - 1.0).abs() < 1e-10);
            }
        }
    }

    #[test]
    fn fms_identical_is_one() {
        let k = random_kruskal(&[8, 7, 6], 3, 20);
        assert!((k.factor_match_score(&k).unwrap() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn fms_invariant_to_permutation_and_sign() {
        let k = random_kruskal(&[8, 7], 2, 21);
        // Swap the two components and flip signs consistently.
        let mut f0 = DenseMatrix::zeros(8, 2);
        let mut f1 = DenseMatrix::zeros(7, 2);
        for i in 0..8 {
            f0.set(i, 0, -k.factors[0].get(i, 1));
            f0.set(i, 1, k.factors[0].get(i, 0));
        }
        for i in 0..7 {
            f1.set(i, 0, k.factors[1].get(i, 1));
            f1.set(i, 1, -k.factors[1].get(i, 0));
        }
        let permuted = KruskalTensor::new(vec![k.weights[1], k.weights[0]], vec![f0, f1]).unwrap();
        assert!((k.factor_match_score(&permuted).unwrap() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn fms_low_for_unrelated_factors() {
        let a = random_kruskal(&[30, 30, 30], 2, 22);
        let b = random_kruskal(&[30, 30, 30], 2, 99);
        let fms = a.factor_match_score(&b).unwrap();
        // Random unit vectors in R^30: per-mode |cos| ≈ 0.15, cubed ≈ tiny.
        assert!(fms < 0.7, "fms {fms}");
    }

    #[test]
    fn fms_shape_and_rank_checks() {
        let a = random_kruskal(&[4, 4], 2, 23);
        let b = random_kruskal(&[4, 5], 2, 23);
        assert!(a.factor_match_score(&b).is_err());
        let c = random_kruskal(&[4, 4], 3, 23);
        assert!(a.factor_match_score(&c).is_err());
    }

    #[test]
    fn parameter_count() {
        let k = random_kruskal(&[10, 20, 30], 5, 14);
        assert_eq!(k.parameter_count(), 5 * (1 + 60));
    }
}
