//! BIGtensor-style MTTKRP (the paper's comparison system, §4.3): the
//! pipeline behind [`Strategy::BigTensor`](crate::Strategy::BigTensor).
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
//! **3rd-order** tensors; [`crate::planner::plan`] rejects any other.
//!
//! Hadoop platform accounting: BIGtensor cannot cache RDDs between
//! MapReduce jobs, so its plan never caches the tensor, its joins shuffle
//! both sides, and every MTTKRP additionally records (constants documented
//! in DESIGN.md):
//!
//! * 3 HDFS reads of the tensor (stage-1 input, stage-2 input, `bin()`
//!   pass) and 2 HDFS writes + 2 re-reads of the `nnz·R` intermediates
//!   committed between jobs,
//! * 2 MapReduce job launches (the `bin()` trick fuses stages 1 and 2
//!   into one job; stage 3 is the second).
//!
//! Evaluate the recorded log with `cstf_model::TimeModel::hadoop`.

use crate::factors::{rows_to_matrix, tensor_storage_bytes};
use crate::mttkrp::JoinContext;
use crate::planner::PlanConfig;
use crate::records::{scale_row, CooRecord, Row};
use cstf_dataflow::prelude::*;
use cstf_tensor::{unfold_column, unfold_strides, DenseMatrix};

/// MapReduce jobs BIGtensor launches per MTTKRP (stages 1+2 fused by the
/// `bin()` trick, then stage 3).
const JOBS_PER_MTTKRP: u64 = 2;

/// Full tensor passes read from HDFS per MTTKRP (stage-1 input, stage-2
/// input, `bin()` pass — "an expensive operation" requiring "a full
/// pass over the tensor data", §4.3).
const TENSOR_READS_PER_MTTKRP: u64 = 3;

/// One BIGtensor-style mode-`mode` MTTKRP over the `nnz` nonzeros of a
/// 3rd-order tensor RDD, preceded by the Hadoop events of its two
/// MapReduce jobs. Returns the dense `Iₙ × R` result; shuffle metrics land
/// in `cluster.metrics()` beside the Hadoop events.
pub(crate) fn mttkrp_bigtensor(
    cluster: &Cluster,
    tensor: &Rdd<CooRecord>,
    nnz: usize,
    factors: &[DenseMatrix],
    shape: &[u32],
    mode: usize,
    config: &PlanConfig,
) -> DenseMatrix {
    let (rank, ctx) = (config.rank, JoinContext::new(config));
    let tensor_bytes = tensor_storage_bytes(nnz, 3);
    let intermediate_bytes = (nnz * (8 + 8 * rank)) as u64;
    let metrics = cluster.metrics();
    for _ in 0..JOBS_PER_MTTKRP {
        metrics.record_job_boundary();
    }
    metrics.record_disk_read(TENSOR_READS_PER_MTTKRP * tensor_bytes);
    // Stage-1/2 outputs are committed to HDFS between jobs and read back
    // by stage 3.
    metrics.record_disk_write(2 * intermediate_bytes);
    metrics.record_disk_read(2 * intermediate_bytes);

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
    let fp = ctx.factor_rdd(cluster, &factors[p]);
    let stage1: Rdd<(u32, (u64, Row))> = keyed_p
        .join_with(&fp, ctx.partitions)
        .map(move |(_, ((cell, x), row))| (cell.0, (cell.1, scale_row(row, x))));

    // STAGE 2: bin(X) keyed on i_q, joined with factor q. bin() drops the
    // value, keeping only the sparsity pattern.
    let strides2 = strides;
    let keyed_q: Rdd<(u32, (u32, u64))> = tensor.map(move |rec| {
        let col = unfold_column(&rec.coord, &strides2);
        (rec.coord[q], (rec.coord[mode], col))
    });
    let fq = ctx.factor_rdd(cluster, &factors[q]);
    let stage2: Rdd<(u32, (u64, Row))> = keyed_q
        .join_with(&fq, ctx.partitions)
        .map(move |(_, ((i, col), row))| (i, (col, row)));

    // STAGE 3: both intermediates are mapped on the output index i (as in
    // Table 2's left column) and combined at the reducer: rows are paired
    // by matricized column j₀, Hadamard-multiplied, and summed into
    // M(i,:). One MapReduce round — two shuffles (both intermediates),
    // no further reduce.
    let rows: Vec<(u32, Row)> = stage1
        .cogroup_with(&stage2, ctx.partitions)
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

    rows_to_matrix(rows, shape[mode] as usize, rank)
}

#[cfg(test)]
mod tests {
    use super::{JOBS_PER_MTTKRP, TENSOR_READS_PER_MTTKRP};
    use crate::factors::tensor_storage_bytes;
    use crate::planner::testing::*;
    use crate::planner::{plan, Partitioning, PlanConfig, Strategy};
    use crate::{CpAls, CstfError};
    use cstf_tensor::mttkrp::mttkrp as mttkrp_seq;
    use cstf_tensor::random::{low_rank_tensor, RandomTensor};
    use cstf_tensor::{CooTensor, DenseMatrix};

    #[test]
    fn matches_sequential_all_modes() {
        let t = RandomTensor::new(vec![12, 9, 15]).nnz(200).seed(3).build();
        let factors = random_factors(t.shape(), 3, 41);
        let refs: Vec<&DenseMatrix> = factors.iter().collect();
        let config = PlanConfig {
            rank: 3,
            ..config(Partitioning::CoPartitionedFactors)
        };
        let c = cluster();
        let mut p = plan(&c, &t, Strategy::BigTensor, &config, &factors).unwrap();
        for mode in 0..3 {
            let dist = p.mttkrp(&factors, mode).unwrap();
            let seq = mttkrp_seq(&t, &refs, mode).unwrap();
            assert!(dist.max_abs_diff(&seq) < 1e-9, "mode {mode}");
        }
    }

    #[test]
    fn four_significant_shuffles_per_mttkrp() {
        // Table 4: BIGtensor performs 4 tensor-sized shuffles per MTTKRP
        // (two factor joins shuffle the tensor; the stage-3 join shuffles
        // BOTH intermediates — "double the number of tensor nonzeros are
        // shuffled", §4.3). Its joins shuffle the factor side too, at
        // every partitioning: 6 raw shuffle-map stages, none skipped.
        assert_shuffle_counts(
            Strategy::BigTensor,
            &[
                (Partitioning::None, [6, 0, 4]),
                (Partitioning::CoPartitionedFactors, [6, 0, 4]),
                (Partitioning::PrePartitionedTensor, [6, 0, 4]),
            ],
        );
    }

    #[test]
    fn rejects_non_third_order() {
        let order2 = RandomTensor::new(vec![4, 4]).nnz(8).seed(1).build();
        let order4 = RandomTensor::new(vec![4, 4, 4, 4]).nnz(10).seed(1).build();
        for t in [&order2, &order4] {
            let c = cluster();
            let factors = random_factors(t.shape(), 2, 43);
            let config = config(Partitioning::CoPartitionedFactors);
            let planned = plan(&c, t, Strategy::BigTensor, &config, &factors);
            assert!(matches!(planned, Err(CstfError::Config(_))), "plan");
            let run = CpAls::new(2).strategy(Strategy::BigTensor).run(&c, t);
            assert!(matches!(run, Err(CstfError::Config(_))), "CpAls::run");
            assert!(c.metrics().snapshot().stages().next().is_none());
        }
        assert_bad_inputs_fail(Strategy::BigTensor);
    }

    #[test]
    fn never_caches_the_tensor() {
        // Hadoop keeps nothing between jobs, whatever `cache_tensor` says.
        let t = RandomTensor::new(vec![8, 8, 8]).nnz(100).seed(45).build();
        let factors = random_factors(t.shape(), 2, 46);
        let c = cluster();
        let config = config(Partitioning::CoPartitionedFactors);
        assert!(config.cache_tensor);
        let mut p = plan(&c, &t, Strategy::BigTensor, &config, &factors).unwrap();
        assert!(c.block_manager().is_empty());
        p.mttkrp(&factors, 0).unwrap();
        assert!(c.block_manager().is_empty());
    }

    #[test]
    fn empty_mode_rows_are_zero() {
        assert_empty_rows_zero(Strategy::BigTensor);
    }

    #[test]
    fn cp_converges_like_cstf() {
        let (t, _) = low_rank_tensor(&[10, 9, 8], 2, 400, 0.0, 44);
        let run = |strategy| {
            CpAls::new(2)
                .strategy(strategy)
                .max_iterations(6)
                .seed(1)
                .run(&cluster(), &t)
                .unwrap()
        };
        let res = run(Strategy::BigTensor);
        assert_eq!(res.stats.iterations, 6);
        assert_eq!(res.stats.strategy, Strategy::BigTensor);
        assert!(res.stats.final_fit > 0.3, "fit {}", res.stats.final_fit);
        // Same math as CSTF ⇒ same trajectory for the same seed.
        let cstf = run(Strategy::Coo);
        assert!((res.stats.final_fit - cstf.stats.final_fit).abs() < 1e-6);
    }

    #[test]
    fn hadoop_accounting_recorded() {
        let t = RandomTensor::new(vec![8, 8, 8]).nnz(100).seed(45).build();
        let c = cluster();
        CpAls::new(2)
            .strategy(Strategy::BigTensor)
            .max_iterations(2)
            .run(&c, &t)
            .unwrap();
        let m = c.metrics().snapshot();
        // 2 iterations × 3 modes, each 2 jobs, 3 tensor passes, and the
        // 2 intermediates written and read back.
        let mttkrps = 2 * 3;
        assert_eq!(m.job_count() as u64, mttkrps * JOBS_PER_MTTKRP);
        let tensor_bytes = tensor_storage_bytes(t.nnz(), 3);
        let intermediate_bytes = (t.nnz() * (8 + 8 * 2)) as u64;
        assert_eq!(
            m.total_disk_read(),
            mttkrps * (TENSOR_READS_PER_MTTKRP * tensor_bytes + 2 * intermediate_bytes)
        );
        assert_eq!(m.total_disk_write(), mttkrps * 2 * intermediate_bytes);
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
        let factors = random_factors(t.shape(), 2, 47);
        let mode0 = |t: &CooTensor| {
            let config = config(Partitioning::CoPartitionedFactors);
            let mut p = plan(&cluster(), t, Strategy::BigTensor, &config, &factors).unwrap();
            p.mttkrp(&factors, 0).unwrap()
        };
        let mut r1x2 = mode0(&t);
        r1x2.scale(2.0);
        assert!(mode0(&doubled).max_abs_diff(&r1x2) < 1e-9);
    }
}
