//! BIGtensor-style CP baseline (the paper's comparison system, §4.3).
//!
//! BIGtensor (Park et al.) runs GigaTensor's CP algorithm on Hadoop MapReduce.
//! Its mode-1 MTTKRP (Table 2, left column) is built on *matricization*:
//!
//! ```text
//! STAGE 1: map X₍₁₎ on k, join with C            → (i, j₀, X₍₁₎(i,j₀)·C(k,:))
//! STAGE 2: map bin(X₍₁₎) on j, join with B       → (i, j₀, bin·B(j,:))
//! STAGE 3: join stage-1 & stage-2 results on (i, j₀), Hadamard, reduce on i
//! ```
//!
//! Four tensor-sized shuffles per MTTKRP (two factor joins + the two-sided
//! intermediate join), `5·nnz·R` flops, plus the `bin()` pass over the
//! tensor (Table 4). Like BIGtensor, this implementation supports only
//! **3rd-order** tensors.
//!
//! Hadoop platform accounting: BIGtensor cannot cache RDDs between
//! MapReduce jobs, so the driver additionally records per MTTKRP
//! (constants documented in DESIGN.md):
//!
//! * 3 HDFS reads of the tensor (stage-1 input, stage-2 input, `bin()`
//!   pass) and 2 HDFS writes + 2 re-reads of the `nnz·R` intermediates
//!   committed between jobs,
//! * 2 MapReduce job launches (the `bin()` trick fuses stages 1 and 2
//!   into one job; stage 3 is the second).
//!
//! Evaluate the recorded log with `cstf_model::TimeModel::hadoop`.

use crate::cp_als::DecompositionStats;
use crate::factors::{factor_to_rdd, rows_to_matrix, tensor_storage_bytes, tensor_to_rdd};
use crate::records::{scale_row, CooRecord, Row};
use crate::{CpResult, CstfError, Result, Strategy};
use cstf_dataflow::prelude::*;
use cstf_tensor::linalg::{als_normalize, als_solve};
use cstf_tensor::{unfold_column, unfold_strides};
use cstf_tensor::{CooTensor, DenseMatrix, KruskalTensor};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// MapReduce jobs BIGtensor launches per MTTKRP (stages 1+2 fused by the
/// `bin()` trick, then stage 3).
pub(crate) const JOBS_PER_MTTKRP: u64 = 2;

/// Full tensor passes read from HDFS per MTTKRP (stage-1 input, stage-2
/// input, `bin()` pass — "an expensive operation" requiring "a full
/// pass over the tensor data", §4.3).
pub(crate) const TENSOR_READS_PER_MTTKRP: u64 = 3;

fn check3(shape: &[u32]) -> Result<()> {
    if shape.len() != 3 {
        return Err(CstfError::Config(format!(
            "BIGtensor supports only 3rd-order tensors (got order {})",
            shape.len()
        )));
    }
    Ok(())
}

/// One BIGtensor-style mode-`mode` MTTKRP over a 3rd-order tensor RDD.
///
/// `factors` are the three current factor matrices; returns the dense
/// `Iₙ × R` result. Shuffle metrics land in `cluster.metrics()`; Hadoop
/// disk/job events are recorded by the caller (see [`bigtensor_cp`]) so
/// this function can also be benchmarked in isolation.
pub fn bigtensor_mttkrp(
    cluster: &Cluster,
    tensor: &Rdd<CooRecord>,
    factors: &[DenseMatrix],
    shape: &[u32],
    mode: usize,
    partitions: usize,
) -> Result<DenseMatrix> {
    check3(shape)?;
    if mode >= 3 {
        return Err(CstfError::Config(format!("mode {mode} out of range")));
    }
    let rank = factors[0].cols();
    // The two non-target modes: p joined first (the higher, like C for
    // mode 1), then q (like B).
    let others: Vec<usize> = (0..3).rev().filter(|&m| m != mode).collect();
    let (p, q) = (others[0], others[1]);
    let strides = unfold_strides(shape, mode);

    // STAGE 1: matricized tensor keyed on i_p, joined with factor p.
    // Result records are (i, (j₀, X₍ₙ₎(i,j₀) · F_p(i_p, :))).
    // Record layout: keyed on the join index, value is ((row, unfolded
    // column), tensor entry).
    type KeyedEntry = (u32, ((u32, u64), f64));
    let strides1 = strides.clone();
    let keyed_p: Rdd<KeyedEntry> = tensor.map(move |rec| {
        let col = unfold_column(&rec.coord, &strides1);
        (rec.coord[p], ((rec.coord[mode], col), rec.val))
    });
    let fp = factor_to_rdd(cluster, &factors[p], partitions, None);
    let stage1: Rdd<(u32, (u64, Row))> = keyed_p
        .join_with(&fp, partitions)
        .map(move |(_, ((cell, x), row))| (cell.0, (cell.1, scale_row(row, x))));

    // STAGE 2: bin(X) keyed on i_q, joined with factor q. bin() drops the
    // value, keeping only the sparsity pattern.
    let strides2 = strides;
    let keyed_q: Rdd<(u32, (u32, u64))> = tensor.map(move |rec| {
        let col = unfold_column(&rec.coord, &strides2);
        (rec.coord[q], (rec.coord[mode], col))
    });
    let fq = factor_to_rdd(cluster, &factors[q], partitions, None);
    let stage2: Rdd<(u32, (u64, Row))> = keyed_q
        .join_with(&fq, partitions)
        .map(move |(_, ((i, col), row))| (i, (col, row)));

    // STAGE 3: both intermediates are mapped on the output index i (as in
    // Table 2's left column) and combined at the reducer: rows are paired
    // by matricized column j₀, Hadamard-multiplied, and summed into
    // M(i,:). One MapReduce round — two shuffles (both intermediates),
    // no further reduce.
    let rows: Vec<(u32, Row)> = stage1
        .cogroup_with(&stage2, partitions)
        .map(move |(i, (lefts, rights))| {
            let mut by_col: std::collections::HashMap<u64, Vec<&Row>> =
                std::collections::HashMap::with_capacity(rights.len());
            for (col, row) in &rights {
                by_col.entry(*col).or_default().push(row);
            }
            let mut acc: Row = vec![0.0; rank].into_boxed_slice();
            for (col, a) in &lefts {
                if let Some(matches) = by_col.get(col) {
                    for b in matches {
                        for ((s, &x), &y) in acc.iter_mut().zip(a.iter()).zip(b.iter()) {
                            *s += x * y;
                        }
                    }
                }
            }
            (i, acc)
        })
        .collect();

    Ok(rows_to_matrix(rows, shape[mode] as usize, rank))
}

/// Full BIGtensor-style CP-ALS for a 3rd-order tensor, with Hadoop
/// platform accounting (no caching across jobs; per-MTTKRP HDFS traffic
/// and job launches recorded into the metrics log).
pub fn bigtensor_cp(
    cluster: &Cluster,
    tensor: &CooTensor,
    rank: usize,
    iterations: usize,
    seed: u64,
) -> Result<CpResult> {
    check3(tensor.shape())?;
    if rank == 0 {
        return Err(CstfError::Config("rank must be ≥ 1".into()));
    }
    if tensor.is_empty() {
        return Err(CstfError::Config("tensor has no nonzeros".into()));
    }
    let started = std::time::Instant::now();
    let shape = tensor.shape().to_vec();
    let partitions = cluster.config().default_parallelism;
    let tensor_bytes = tensor_storage_bytes(tensor.nnz(), 3);
    let intermediate_bytes = (tensor.nnz() * (8 + 8 * rank)) as u64;

    cluster.metrics().set_scope("Other");
    // Hadoop has no resident cache: the tensor RDD is *not* persisted and
    // every MTTKRP recomputes it from the source (and is charged HDFS
    // reads below).
    let tensor_rdd = tensor_to_rdd(cluster, tensor, partitions);

    let mut rng = StdRng::seed_from_u64(seed);
    let mut factors: Vec<DenseMatrix> = shape
        .iter()
        .map(|&s| DenseMatrix::random(s as usize, rank, &mut rng))
        .collect();
    let mut lambda = vec![1.0f64; rank];
    let mut grams: Vec<DenseMatrix> = factors.iter().map(DenseMatrix::gram).collect();

    let mut fits = Vec::new();
    for _ in 0..iterations {
        for mode in 0..3 {
            cluster.metrics().set_scope(format!("MTTKRP-{}", mode + 1));
            // Hadoop platform events for this MTTKRP.
            for _ in 0..JOBS_PER_MTTKRP {
                cluster.metrics().record_job_boundary();
            }
            cluster
                .metrics()
                .record_disk_read(TENSOR_READS_PER_MTTKRP * tensor_bytes);
            // Stage-1/2 outputs are committed to HDFS between jobs and
            // read back by stage 3.
            cluster.metrics().record_disk_write(2 * intermediate_bytes);
            cluster.metrics().record_disk_read(2 * intermediate_bytes);

            let m = bigtensor_mttkrp(cluster, &tensor_rdd, &factors, &shape, mode, partitions)?;
            let updated = als_solve(&m, &grams, mode)?;
            lambda = als_normalize(updated, mode, &mut factors, &mut grams);
        }
        cluster.metrics().set_scope("Other");
        let kruskal = KruskalTensor::new(lambda.clone(), factors.clone())?;
        fits.push(kruskal.fit(tensor)?);
    }
    cluster.metrics().clear_scope();

    let final_fit = fits.last().copied().unwrap_or(f64::NAN);
    Ok(CpResult {
        kruskal: KruskalTensor::new(lambda, factors)?,
        stats: DecompositionStats {
            iterations,
            fits,
            final_fit,
            strategy: Strategy::Coo, // closest label; see DESIGN.md
            elapsed: started.elapsed(),
        },
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use cstf_dataflow::ClusterConfig;
    use cstf_tensor::mttkrp::mttkrp as mttkrp_seq;
    use cstf_tensor::random::{low_rank_tensor, RandomTensor};

    fn cluster() -> Cluster {
        Cluster::new(ClusterConfig::local(4).nodes(4))
    }

    fn random_factors(shape: &[u32], rank: usize, seed: u64) -> Vec<DenseMatrix> {
        let mut rng = StdRng::seed_from_u64(seed);
        shape
            .iter()
            .map(|&s| DenseMatrix::random(s as usize, rank, &mut rng))
            .collect()
    }

    #[test]
    fn matches_sequential_all_modes() {
        let t = RandomTensor::new(vec![12, 9, 15]).nnz(200).seed(3).build();
        let c = cluster();
        let rdd = tensor_to_rdd(&c, &t, 8);
        let factors = random_factors(t.shape(), 3, 41);
        let refs: Vec<&DenseMatrix> = factors.iter().collect();
        for mode in 0..3 {
            let dist = bigtensor_mttkrp(&c, &rdd, &factors, t.shape(), mode, 16).unwrap();
            let seq = mttkrp_seq(&t, &refs, mode).unwrap();
            assert!(dist.max_abs_diff(&seq) < 1e-9, "mode {mode}");
        }
    }

    #[test]
    fn four_significant_shuffles_per_mttkrp() {
        // Table 4: BIGtensor performs 4 tensor-sized shuffles per MTTKRP
        // (two factor joins shuffle the tensor; the stage-3 join shuffles
        // BOTH intermediates — "double the number of tensor nonzeros are
        // shuffled", §4.3).
        let t = RandomTensor::new(vec![10, 10, 10]).nnz(300).seed(6).build();
        let c = cluster();
        let rdd = tensor_to_rdd(&c, &t, 8);
        let factors = random_factors(t.shape(), 2, 42);
        c.metrics().reset();
        let _ = bigtensor_mttkrp(&c, &rdd, &factors, t.shape(), 0, 16).unwrap();
        let m = c.metrics().snapshot();
        assert_eq!(m.significant_shuffle_count(t.nnz() as u64 / 2), 4);
    }

    #[test]
    fn rejects_non_third_order() {
        let t = RandomTensor::new(vec![4, 4, 4, 4]).nnz(10).seed(1).build();
        let c = cluster();
        let rdd = tensor_to_rdd(&c, &t, 2);
        let factors = random_factors(t.shape(), 2, 43);
        assert!(matches!(
            bigtensor_mttkrp(&c, &rdd, &factors, t.shape(), 0, 4),
            Err(CstfError::Config(_))
        ));
        assert!(bigtensor_cp(&c, &t, 2, 1, 0).is_err());
    }

    #[test]
    fn cp_converges_like_cstf() {
        let (t, _) = low_rank_tensor(&[10, 9, 8], 2, 400, 0.0, 44);
        let c = cluster();
        let res = bigtensor_cp(&c, &t, 2, 6, 1).unwrap();
        assert_eq!(res.stats.iterations, 6);
        assert!(res.stats.final_fit > 0.3, "fit {}", res.stats.final_fit);
        // Same math as CSTF ⇒ same trajectory for the same seed.
        let c2 = cluster();
        let cstf = crate::CpAls::new(2)
            .strategy(crate::Strategy::Coo)
            .max_iterations(6)
            .seed(1)
            .run(&c2, &t)
            .unwrap();
        assert!((res.stats.final_fit - cstf.stats.final_fit).abs() < 1e-6);
    }

    #[test]
    fn hadoop_accounting_recorded() {
        let t = RandomTensor::new(vec![8, 8, 8]).nnz(100).seed(45).build();
        let c = cluster();
        let _ = bigtensor_cp(&c, &t, 2, 2, 0).unwrap();
        let m = c.metrics().snapshot();
        // 2 iterations × 3 modes × 2 jobs.
        assert_eq!(m.job_count() as u64, 2 * 3 * JOBS_PER_MTTKRP);
        let tensor_bytes = tensor_storage_bytes(t.nnz(), 3);
        // Disk reads include ≥ 3 tensor passes per MTTKRP.
        assert!(m.total_disk_read() >= 6 * TENSOR_READS_PER_MTTKRP * tensor_bytes);
        assert!(m.total_disk_write() > 0);
    }

    #[test]
    fn bin_stage_drops_values() {
        // The stage-2 path must not depend on tensor values: scaling the
        // tensor scales the result linearly (it would be quadratic if both
        // stages carried x).
        let t = RandomTensor::new(vec![6, 6, 6]).nnz(50).seed(46).build();
        let doubled = CooTensor::from_flat(
            t.shape().to_vec(),
            t.flat_indices().to_vec(),
            t.values().iter().map(|v| v * 2.0).collect(),
        )
        .unwrap();
        let c = cluster();
        let factors = random_factors(t.shape(), 2, 47);
        let r1 =
            bigtensor_mttkrp(&c, &tensor_to_rdd(&c, &t, 4), &factors, t.shape(), 0, 8).unwrap();
        let r2 = bigtensor_mttkrp(
            &c,
            &tensor_to_rdd(&c, &doubled, 4),
            &factors,
            t.shape(),
            0,
            8,
        )
        .unwrap();
        let mut r1x2 = r1.clone();
        r1x2.scale(2.0);
        assert!(r2.max_abs_diff(&r1x2) < 1e-9);
    }
}
