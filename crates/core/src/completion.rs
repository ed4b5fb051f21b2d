//! Distributed CP tensor *completion* — an extension beyond the paper,
//! in the spirit of DisTenC (Ge et al., cited in the paper's related
//! work), which implements CP-based completion on Spark.
//!
//! CP-ALS (the paper's algorithm) treats unstored positions as true
//! zeros. Completion instead fits only the *observed* entries
//! `Ω = {(i₁,…,i_N) stored in X}` and predicts the rest:
//!
//! ```text
//! min_{A₁..A_N}  Σ_{z ∈ Ω} ( X_z − Σ_r Π_m A_m(i_m, r) )²  +  λ Σ ‖A_m‖²
//! ```
//!
//! The ALS update for row `i` of factor `n` solves the `R × R` system
//!
//! ```text
//! ( Σ_{z ∈ Ω, z_n = i} w_z w_zᵀ + λI ) · A_n(i,:)ᵀ = Σ_{z ∈ Ω, z_n = i} x_z w_z
//! ```
//!
//! with `w_z = ∗_{m≠n} A_m(i_m,:)`. Distribution: the non-target factors
//! are broadcast, each tensor record maps to
//! `(i_n, (w wᵀ flattened, x·w))`, a `reduceByKey` sums the per-row
//! normal equations (one shuffle per mode), and the driver solves the
//! per-row systems.

use crate::factors::tensor_to_rdd;
use crate::records::CooRecord;
use crate::{CstfError, Result};
use cstf_dataflow::prelude::*;
use cstf_tensor::linalg::solve_spd;
use cstf_tensor::{CooTensor, DenseMatrix, KruskalTensor};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Builder for a distributed CP completion run.
///
/// ```
/// use cstf_core::CpCompletion;
/// use cstf_dataflow::{Cluster, ClusterConfig};
/// use cstf_tensor::random::low_rank_tensor;
///
/// let cluster = Cluster::new(ClusterConfig::local(2).nodes(2));
/// let (observed, _) = low_rank_tensor(&[15, 12, 10], 2, 600, 0.0, 7);
/// let result = CpCompletion::new(2)
///     .max_iterations(8)
///     .regularization(1e-3)
///     .run(&cluster, &observed)
///     .unwrap();
/// // Predict an arbitrary (possibly unobserved) cell.
/// let _rating = result.predict(&[3, 4, 5]);
/// assert!(result.final_rmse.is_finite());
/// ```
#[derive(Debug, Clone)]
pub struct CpCompletion {
    rank: usize,
    max_iterations: usize,
    regularization: f64,
    tolerance: f64,
    seed: u64,
}

impl CpCompletion {
    /// Starts a builder for a rank-`rank` completion. Defaults: 20
    /// iterations, `λ = 0.01`, no early stopping.
    pub fn new(rank: usize) -> Self {
        CpCompletion {
            rank,
            max_iterations: 20,
            regularization: 1e-2,
            tolerance: 0.0,
            seed: 0,
        }
    }

    /// Maximum ALS sweeps.
    pub fn max_iterations(mut self, iters: usize) -> Self {
        self.max_iterations = iters;
        self
    }

    /// Tikhonov regularization `λ` (must be > 0: it also keeps rows with
    /// few observations well-posed).
    pub fn regularization(mut self, lambda: f64) -> Self {
        self.regularization = lambda;
        self
    }

    /// Stops early when train RMSE improves by less than `tol`.
    pub fn tolerance(mut self, tol: f64) -> Self {
        self.tolerance = tol;
        self
    }

    /// Seed for factor initialization.
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Runs the completion on `cluster` over the observed entries of
    /// `tensor`.
    pub fn run(&self, cluster: &Cluster, tensor: &CooTensor) -> Result<CompletionResult> {
        if self.rank == 0 {
            return Err(CstfError::Config("rank must be ≥ 1".into()));
        }
        if self.regularization <= 0.0 {
            return Err(CstfError::Config(
                "completion requires positive regularization".into(),
            ));
        }
        if tensor.is_empty() {
            return Err(CstfError::Config("no observed entries".into()));
        }
        if tensor.order() < 2 {
            return Err(CstfError::Config("tensor order must be ≥ 2".into()));
        }
        let order = tensor.order();
        let shape = tensor.shape().to_vec();
        let rank = self.rank;
        let partitions = cluster.config().default_parallelism;

        cluster.metrics().set_scope("Other");
        let observed = tensor_to_rdd(cluster, tensor, partitions).persist(StorageLevel::MemoryRaw);
        let _ = observed.count();

        let mut rng = StdRng::seed_from_u64(self.seed);
        let mut factors: Vec<DenseMatrix> = shape
            .iter()
            .map(|&s| {
                let mut f = DenseMatrix::random(s as usize, rank, &mut rng);
                // Small random init keeps early iterations stable.
                f.scale(1.0 / rank as f64);
                f
            })
            .collect();

        let n_obs = tensor.nnz() as f64;
        let mut rmse_history = Vec::new();
        let mut prev_rmse = f64::INFINITY;
        let mut iterations = 0usize;

        'outer: for _ in 0..self.max_iterations {
            for mode in 0..order {
                cluster.metrics().set_scope(format!("MTTKRP-{}", mode + 1));
                let stats =
                    normal_equation_rows(cluster, &observed, &factors, mode, rank, partitions)?;
                // Driver: solve (G + λI) a = rhs per observed row; rows
                // with no observations shrink to zero under λ.
                let lambda = self.regularization;
                let mut updated = DenseMatrix::zeros(shape[mode] as usize, rank);
                for (row_idx, (gram_flat, rhs)) in stats {
                    let mut g = DenseMatrix::from_vec(rank, rank, gram_flat.to_vec());
                    for d in 0..rank {
                        g.set(d, d, g.get(d, d) + lambda);
                    }
                    let b = DenseMatrix::from_vec(rank, 1, rhs.to_vec());
                    let sol = solve_spd(&g, &b)?;
                    for r in 0..rank {
                        updated.set(row_idx as usize, r, sol.get(r, 0));
                    }
                }
                if !updated.all_finite() {
                    return Err(CstfError::Config(
                        "completion update produced non-finite values".into(),
                    ));
                }
                factors[mode] = updated;
            }
            iterations += 1;
            cluster.metrics().set_scope("Other");

            // Train RMSE over the observed entries.
            let model = KruskalTensor::new(vec![1.0; rank], factors.clone())?;
            let sse: f64 = tensor
                .iter()
                .map(|(coord, v)| {
                    let e = v - model.eval(coord);
                    e * e
                })
                .sum();
            let rmse = (sse / n_obs).sqrt();
            rmse_history.push(rmse);
            if self.tolerance > 0.0 && (prev_rmse - rmse).abs() < self.tolerance {
                break 'outer;
            }
            prev_rmse = rmse;
        }

        observed.unpersist();
        cluster.metrics().clear_scope();
        let final_rmse = rmse_history.last().copied().unwrap_or(f64::NAN);
        Ok(CompletionResult {
            kruskal: KruskalTensor::new(vec![1.0; rank], factors)?,
            iterations,
            rmse_history,
            final_rmse,
        })
    }
}

/// Per-row normal-equation components as `(gram R×R flat, rhs R)`.
type RowStats = (Box<[f64]>, Box<[f64]>);

/// One distributed pass: broadcast the non-target factors, accumulate
/// `Σ w wᵀ` and `Σ x·w` per output-mode row (one tensor-sized shuffle).
fn normal_equation_rows(
    cluster: &Cluster,
    observed: &Rdd<CooRecord>,
    factors: &[DenseMatrix],
    mode: usize,
    rank: usize,
    partitions: usize,
) -> Result<Vec<(u32, RowStats)>> {
    let non_target: Vec<(usize, DenseMatrix)> = factors
        .iter()
        .enumerate()
        .filter(|&(m, _)| m != mode)
        .map(|(m, f)| (m, f.clone()))
        .collect();
    let bcast = cluster.broadcast(BFactors(non_target));

    let rows = observed
        .map(move |rec| {
            let mut w = vec![1.0f64; rank];
            for (m, f) in &bcast.value().0 {
                let row = f.row(rec.coord[*m] as usize);
                for (acc, &x) in w.iter_mut().zip(row) {
                    *acc *= x;
                }
            }
            let mut gram = vec![0.0f64; rank * rank];
            for i in 0..rank {
                for j in 0..rank {
                    gram[i * rank + j] = w[i] * w[j];
                }
            }
            let rhs: Vec<f64> = w.iter().map(|&x| x * rec.val).collect();
            (
                rec.coord[mode],
                (gram.into_boxed_slice(), rhs.into_boxed_slice()),
            )
        })
        .reduce_by_key_with(partitions, true, |(mut g1, mut r1), (g2, r2)| {
            for (a, b) in g1.iter_mut().zip(g2.iter()) {
                *a += b;
            }
            for (a, b) in r1.iter_mut().zip(r2.iter()) {
                *a += b;
            }
            (g1, r1)
        })
        .collect();
    Ok(rows)
}

/// Broadcast payload: the non-target factor matrices.
struct BFactors(Vec<(usize, DenseMatrix)>);

impl EstimateSize for BFactors {
    fn estimate_size(&self) -> usize {
        4 + self
            .0
            .iter()
            .map(|(_, f)| 8 + f.rows() * f.cols() * 8)
            .sum::<usize>()
    }
}

/// Output of a completion run.
#[derive(Debug, Clone)]
pub struct CompletionResult {
    /// The learned model (unit weights; scale lives in the factors).
    pub kruskal: KruskalTensor,
    /// ALS sweeps executed.
    pub iterations: usize,
    /// Train RMSE over observed entries after each sweep.
    pub rmse_history: Vec<f64>,
    /// Final train RMSE.
    pub final_rmse: f64,
}

impl CompletionResult {
    /// Predicts the value at an arbitrary coordinate (observed or not).
    pub fn predict(&self, coord: &[u32]) -> f64 {
        self.kruskal.eval(coord)
    }

    /// Root-mean-square error over a held-out set of `(coord, value)`
    /// pairs.
    pub fn rmse_on(&self, held_out: &CooTensor) -> f64 {
        if held_out.is_empty() {
            return f64::NAN;
        }
        let sse: f64 = held_out
            .iter()
            .map(|(c, v)| {
                let e = v - self.predict(c);
                e * e
            })
            .sum();
        (sse / held_out.nnz() as f64).sqrt()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cstf_dataflow::ClusterConfig;
    use cstf_tensor::random::{low_rank_tensor, RandomTensor};

    fn cluster() -> Cluster {
        Cluster::new(ClusterConfig::local(4).nodes(4))
    }

    /// Split a tensor's nonzeros into train/test parts.
    fn split(t: &CooTensor, every: usize) -> (CooTensor, CooTensor) {
        let mut train = CooTensor::new(t.shape().to_vec());
        let mut test = CooTensor::new(t.shape().to_vec());
        for (z, (coord, v)) in t.iter().enumerate() {
            if z % every == 0 {
                test.push(coord, v).unwrap();
            } else {
                train.push(coord, v).unwrap();
            }
        }
        (train, test)
    }

    #[test]
    fn completes_low_rank_data() {
        // Entries sampled from a dense rank-2 model — exactly the setting
        // where plain CP-ALS fails (zeros are NOT real) and completion
        // shines.
        let (full, _) = low_rank_tensor(&[20, 18, 16], 2, 1500, 0.0, 61);
        let (train, test) = split(&full, 5);
        let c = cluster();
        let res = CpCompletion::new(2)
            .max_iterations(15)
            .regularization(1e-3)
            .seed(2)
            .run(&c, &train)
            .unwrap();
        // Held-out prediction error far below the data's scale (values
        // are O(1); rank-2 truth is exactly recoverable).
        let test_rmse = res.rmse_on(&test);
        assert!(test_rmse < 0.05, "held-out RMSE {test_rmse}");
        assert!(res.final_rmse < 0.05, "train RMSE {}", res.final_rmse);
    }

    #[test]
    fn train_rmse_is_monotone_nonincreasing() {
        let (full, _) = low_rank_tensor(&[15, 12, 10], 3, 800, 0.05, 62);
        let c = cluster();
        let res = CpCompletion::new(3)
            .max_iterations(10)
            .seed(3)
            .run(&c, &full)
            .unwrap();
        for w in res.rmse_history.windows(2) {
            assert!(
                w[1] <= w[0] + 1e-9,
                "rmse regressed: {:?}",
                res.rmse_history
            );
        }
    }

    #[test]
    fn completion_beats_plain_cp_on_sampled_dense_model() {
        let (full, _) = low_rank_tensor(&[18, 15, 12], 2, 1200, 0.0, 63);
        let (train, test) = split(&full, 5);
        let c = cluster();
        let comp = CpCompletion::new(2)
            .max_iterations(12)
            .regularization(1e-3)
            .seed(4)
            .run(&c, &train)
            .unwrap();
        let cp = crate::CpAls::new(2)
            .max_iterations(12)
            .seed(4)
            .run(&cluster(), &train)
            .unwrap();
        let cp_rmse = {
            let sse: f64 = test
                .iter()
                .map(|(coord, v)| {
                    let e = v - cp.kruskal.eval(coord);
                    e * e
                })
                .sum();
            (sse / test.nnz() as f64).sqrt()
        };
        let comp_rmse = comp.rmse_on(&test);
        assert!(
            comp_rmse * 2.0 < cp_rmse,
            "completion {comp_rmse} vs CP {cp_rmse}"
        );
    }

    #[test]
    fn regularization_keeps_unobserved_rows_finite() {
        // Mode-0 index 9 never observed: its row must be zero, not NaN.
        let t = CooTensor::from_entries(
            vec![10, 4, 4],
            vec![
                (vec![0, 1, 2], 1.0),
                (vec![1, 2, 3], 2.0),
                (vec![2, 0, 0], 3.0),
            ],
        )
        .unwrap();
        let c = cluster();
        let res = CpCompletion::new(2)
            .max_iterations(3)
            .seed(5)
            .run(&c, &t)
            .unwrap();
        let row = res.kruskal.factors[0].row(9);
        assert!(row.iter().all(|&x| x == 0.0), "unobserved row {row:?}");
        assert!(res.kruskal.factors.iter().all(|f| f.all_finite()));
    }

    #[test]
    fn one_shuffle_per_mode() {
        let t = RandomTensor::new(vec![12, 12, 12]).nnz(300).seed(6).build();
        let c = cluster();
        c.metrics().reset();
        let _ = CpCompletion::new(2)
            .max_iterations(1)
            .seed(7)
            .run(&c, &t)
            .unwrap();
        let m = c.metrics().snapshot();
        // 3 modes × 1 reduce shuffle (broadcast join needs none).
        assert_eq!(m.significant_shuffle_count(t.nnz() as u64 / 2), 3);
        assert!(m.total_broadcast_bytes() > 0);
    }

    #[test]
    fn rejects_bad_config() {
        let t = RandomTensor::new(vec![5, 5]).nnz(10).seed(8).build();
        let c = cluster();
        assert!(CpCompletion::new(0).run(&c, &t).is_err());
        assert!(CpCompletion::new(2)
            .regularization(0.0)
            .run(&c, &t)
            .is_err());
        let empty = CooTensor::new(vec![3, 3]);
        assert!(CpCompletion::new(2).run(&c, &empty).is_err());
    }
}
