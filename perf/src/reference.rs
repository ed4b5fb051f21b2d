//! Sequential reference CP-ALS on `cstf_tensor` alone.
//!
//! The oracle the distributed runs are checked against, and the plain
//! single-threaded baseline (`tensor.seq_iter_s`). It follows the same
//! update order as `CpAls::run` — seeded `StdRng` factors, MTTKRP,
//! Hadamard of the other Grams, normal-equations solve, column
//! normalization — but touches no dataflow code.

use cstf_tensor::linalg::solve_normal_equations;
use cstf_tensor::mttkrp::mttkrp;
use cstf_tensor::{CooTensor, DenseMatrix, KruskalTensor};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::time::Instant;

/// Result of a reference run.
pub struct Reference {
    /// `[λ; A₁…A_N]` after the first iteration (`None` for 0 iterations).
    pub after_first: Option<KruskalTensor>,
    /// `[λ; A₁…A_N]` after the last iteration.
    pub last: KruskalTensor,
    /// Seconds spent in the ALS loop (initialization excluded).
    pub loop_secs: f64,
}

/// The seeded random factors `CpAls::run` starts from.
pub fn initial_factors(shape: &[u32], rank: usize, seed: u64) -> Vec<DenseMatrix> {
    let mut rng = StdRng::seed_from_u64(seed);
    shape
        .iter()
        .map(|&s| DenseMatrix::random(s as usize, rank, &mut rng))
        .collect()
}

/// Runs `iterations` ALS sweeps of rank `rank` from the seeded start.
pub fn cp_als(tensor: &CooTensor, rank: usize, iterations: usize, seed: u64) -> Reference {
    let order = tensor.order();
    let mut factors = initial_factors(tensor.shape(), rank, seed);
    let mut lambda = vec![1.0f64; rank];
    let mut grams: Vec<DenseMatrix> = factors.iter().map(DenseMatrix::gram).collect();
    let mut after_first = None;

    let started = Instant::now();
    for iter in 0..iterations {
        for mode in 0..order {
            let refs: Vec<&DenseMatrix> = factors.iter().collect();
            let m = mttkrp(tensor, &refs, mode).expect("reference MTTKRP");
            let mut v = DenseMatrix::from_vec(rank, rank, vec![1.0; rank * rank]);
            for (g_mode, g) in grams.iter().enumerate() {
                if g_mode != mode {
                    v = v.hadamard(g).expect("R×R Hadamard");
                }
            }
            let mut updated = solve_normal_equations(&m, &v).expect("reference solve");
            lambda = updated.normalize_columns();
            for l in &mut lambda {
                if *l == 0.0 {
                    *l = 1.0;
                }
            }
            grams[mode] = updated.gram();
            factors[mode] = updated;
        }
        if iter == 0 {
            after_first =
                Some(KruskalTensor::new(lambda.clone(), factors.clone()).expect("shapes agree"));
        }
    }
    let loop_secs = started.elapsed().as_secs_f64();
    Reference {
        after_first,
        last: KruskalTensor::new(lambda, factors).expect("shapes agree"),
        loop_secs,
    }
}

/// Largest absolute difference between two decompositions' factor
/// entries and (relative) weights.
pub fn max_diff(a: &KruskalTensor, b: &KruskalTensor) -> f64 {
    let factors = a
        .factors
        .iter()
        .zip(&b.factors)
        .map(|(x, y)| x.max_abs_diff(y))
        .fold(0.0, f64::max);
    let weights = a
        .weights
        .iter()
        .zip(&b.weights)
        .map(|(x, y)| (x - y).abs() / y.abs().max(1.0))
        .fold(0.0, f64::max);
    factors.max(weights)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// 3×3×3 hand case: X = a∘b∘c with a=(1,2,3), b=(1,0,2), c=(2,1,0)
    /// has 3·2·2 = 12 nonzeros and is exactly rank 1.
    fn hand_tensor() -> CooTensor {
        let (a, b, c) = ([1.0, 2.0, 3.0], [1.0, 0.0, 2.0], [2.0, 1.0, 0.0]);
        let mut t = CooTensor::new(vec![3, 3, 3]);
        for (i, x) in a.iter().enumerate() {
            for (j, y) in b.iter().enumerate() {
                for (k, z) in c.iter().enumerate() {
                    let v = x * y * z;
                    if v != 0.0 {
                        t.push(&[i as u32, j as u32, k as u32], v).unwrap();
                    }
                }
            }
        }
        assert_eq!(t.nnz(), 12);
        t
    }

    #[test]
    fn first_update_is_the_library_mttkrp_solved_by_hand() {
        // Rank 1: V is the scalar (b₀ᵀb₀)(c₀ᵀc₀), so A₁ = M / V and the
        // normalized column is M / ‖M‖ with λ = ‖M‖ / V.
        let t = hand_tensor();
        let init = initial_factors(t.shape(), 1, 5);
        let refs: Vec<&DenseMatrix> = init.iter().collect();
        let m = mttkrp(&t, &refs, 0).unwrap();
        // By hand: M(i) = aᵢ · (b·b₀)(c·c₀) — a multiple of a = (1,2,3).
        let col: Vec<f64> = (0..3).map(|i| m.get(i, 0)).collect();
        assert!((col[1] / col[0] - 2.0).abs() < 1e-12 && (col[2] / col[0] - 3.0).abs() < 1e-12);

        let norm = col.iter().map(|x| x * x).sum::<f64>().sqrt();
        let after = cp_als(&t, 1, 1, 5).after_first.unwrap();
        for (i, want) in col.iter().map(|x| x / norm).enumerate() {
            assert!((after.factors[0].get(i, 0) - want).abs() < 1e-12);
        }
    }

    #[test]
    fn recovers_the_rank_one_hand_tensor_exactly() {
        let t = hand_tensor();
        let r = cp_als(&t, 1, 3, 5);
        assert!(r.last.fit(&t).unwrap() > 1.0 - 1e-9);
        // Columns are the normalized generators, up to sign.
        let a = &r.last.factors[0];
        let n = 14f64.sqrt();
        for (i, want) in [1.0 / n, 2.0 / n, 3.0 / n].into_iter().enumerate() {
            assert!((a.get(i, 0).abs() - want).abs() < 1e-9);
        }
        assert!(r.loop_secs >= 0.0);
        assert!(cp_als(&t, 1, 0, 5).after_first.is_none());
        assert_eq!(max_diff(&r.last, &r.last), 0.0);
    }
}
