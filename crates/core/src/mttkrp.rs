//! CSTF-COO: distributed MTTKRP over COO key-value records (paper §4.1).
//!
//! The mode-`n` MTTKRP `Mₙ = Σ_z X(z) · ∗_{m≠n} A_m(i_m,:)` is executed as
//! the Table 2 (middle column) workflow, generalized to order `N`:
//!
//! ```text
//! STAGE 1..N-1 (one per non-target mode m, descending):
//!     key tensor records by i_m  →  join with factor-m row RDD
//!     →  multiply the joined row into the carried partial product
//! STAGE N:
//!     key by i_n, map to partial · X(z)  →  reduceByKey(+)  →  Mₙ rows
//! ```
//!
//! Each join and the final `reduceByKey` shuffles the tensor-sized RDD once:
//! `N` shuffles per MTTKRP, `N²` per CP-ALS iteration (Table 4). No
//! unfolding, no Khatri-Rao materialization, no `bin()` pass.
//!
//! # Table 4 counts vs the pre-partitioned path
//!
//! Table 4's "Shuffles" column counts *tensor-sized* data movements, and
//! those are unchanged by partitioner-aware scheduling unless the tensor
//! itself is pre-partitioned: [`cstf_dataflow::JobMetrics::significant_shuffle_count`]
//! still reports `N` per MTTKRP. What the partitioner machinery removes
//! first is the *factor-side* shuffle of every join (small, but a full
//! shuffle-map stage each): with co-partitioned factor RDDs (the default,
//! [`MttkrpOptions::co_partition_factors`]) an order-3 `mttkrp_coo` drops
//! from 5 raw shuffle-map stages to 3. Pre-partitioning the tensor by the
//! first join mode ([`mttkrp_coo_pre`]) additionally removes stage 1's
//! tensor shuffle — 2 raw stages, and `N−1` tensor-sized shuffles instead
//! of `N`, strictly better than Table 4's COO row. Results are
//! bit-identical in every case: buckets receive the same records in the
//! same order whether they travel through a shuffle or are read narrowly.
//!
//! # Stage concurrency
//!
//! The engine's [`cstf_dataflow::scheduler`] cuts each MTTKRP action into
//! a stage DAG and runs independent stages of a wave concurrently. With
//! `co_partition_factors: false` the factor-side shuffles have no
//! dependency path to the tensor-side ones, so an order-3 `mttkrp_coo`
//! schedules all three wave-0 stages (tensor key + both factor shuffles)
//! at once — the overlap Spark's `DAGScheduler` gives the paper's
//! implementation for free, and what the critical-path time model prices
//! (`ablation_scheduler`). The default co-partitioned path replaces those
//! factor stages with narrow reads, leaving a pure chain: fewer stages,
//! but nothing left for the scheduler to overlap.

use crate::factors::{factor_to_rdd, rows_to_matrix};
use crate::records::{add_rows, hadamard_rows, row_kernel_ops, scale_row, CooRecord, Row};
use crate::{CstfError, Result};
use cstf_dataflow::kernel::pool;
use cstf_dataflow::prelude::*;
use cstf_tensor::DenseMatrix;
use std::sync::Arc;

/// Options for one distributed MTTKRP.
#[derive(Debug, Clone)]
pub struct MttkrpOptions {
    /// Shuffle partition count (defaults to the cluster's parallelism).
    pub partitions: Option<usize>,
    /// Combine rows map-side in the final `reduceByKey` (Spark's default;
    /// off here to match the paper's Table 4 accounting — see the
    /// `ablation_combine` experiment).
    pub map_side_combine: bool,
    /// Emit factor-row RDDs pre-partitioned by the join partitioner so the
    /// factor side of every join is narrow (no shuffle-map stage). On by
    /// default: it never changes results, only removes stages.
    pub co_partition_factors: bool,
    /// Task kernel of the final `reduceByKey` combine. The default
    /// [`KernelStrategy::SortedRuns`] walks stable-sorted key runs with one
    /// arena-backed accumulator per distinct key; its results are
    /// bit-identical to [`KernelStrategy::RecordAtATime`]'s hash fold, and
    /// measured in isolation the two are within noise of each other
    /// (DESIGN.md §5f withdrew the earlier speed-up claim).
    pub kernel: KernelStrategy,
}

impl Default for MttkrpOptions {
    fn default() -> Self {
        MttkrpOptions {
            partitions: None,
            map_side_combine: false,
            co_partition_factors: true,
            kernel: KernelStrategy::default(),
        }
    }
}

pub(crate) fn check(factors: &[DenseMatrix], shape: &[u32], mode: usize) -> Result<usize> {
    if factors.len() != shape.len() {
        return Err(CstfError::Config(format!(
            "{} factors for an order-{} tensor",
            factors.len(),
            shape.len()
        )));
    }
    if mode >= shape.len() {
        return Err(CstfError::Config(format!(
            "mode {mode} out of range for order {}",
            shape.len()
        )));
    }
    let rank = factors[0].cols();
    for (m, f) in factors.iter().enumerate() {
        if f.cols() != rank || f.rows() != shape[m] as usize {
            return Err(CstfError::Config(format!(
                "factor {m} is {}x{}, expected {}x{rank}",
                f.rows(),
                f.cols(),
                shape[m]
            )));
        }
    }
    Ok(rank)
}

/// The join order CSTF-COO uses for output mode `n`: all non-target modes,
/// descending (for mode 1 of a 3rd-order tensor: mode 3 (`C`) then mode 2
/// (`B`) — exactly STAGE 1 and 2 of Table 2).
pub fn join_order(order: usize, mode: usize) -> Vec<usize> {
    (0..order).rev().filter(|&m| m != mode).collect()
}

/// Shared frame of every MTTKRP pipeline (COO, QCOO, SpMV, broadcast): the
/// resolved partition count, the single join partitioner threaded through
/// all stages, pre-hashed factor-row emission, and the reduce tail that
/// sums rows per output index.
pub(crate) struct JoinContext {
    partitions: usize,
    pub(crate) partitioner: Arc<dyn KeyPartitioner<u32>>,
    pref: PartitionerRef,
    co_partition_factors: bool,
    map_side_combine: bool,
    kernel: KernelStrategy,
}

impl JoinContext {
    /// Resolves `opts.partitions` against the cluster default and builds
    /// the shared hash partitioner (+ provenance ref for narrow factor
    /// sides).
    pub(crate) fn new(cluster: &Cluster, opts: &MttkrpOptions) -> Self {
        let partitions = opts
            .partitions
            .unwrap_or(cluster.config().default_parallelism);
        let partitioner: Arc<dyn KeyPartitioner<u32>> = Arc::new(HashPartitioner::new(partitions));
        let pref = PartitionerRef::of(partitioner.clone());
        JoinContext {
            partitions,
            partitioner,
            pref,
            co_partition_factors: opts.co_partition_factors,
            map_side_combine: opts.map_side_combine,
            kernel: opts.kernel,
        }
    }

    /// Emits a factor matrix as a row RDD, pre-partitioned by the join
    /// partitioner when co-partitioning is on (so the join side is
    /// narrow).
    pub(crate) fn factor_rdd(&self, cluster: &Cluster, factor: &DenseMatrix) -> Rdd<(u32, Row)> {
        factor_to_rdd(
            cluster,
            factor,
            self.partitions,
            self.co_partition_factors.then_some(&self.pref),
        )
    }

    /// The reduce every pipeline ends its stages with: sums rows per key
    /// through the configured combine kernel. The sorted-runs kernel emits
    /// rows in key order instead of hash order, so callers consume the
    /// result order-insensitively (or canonicalize it, as SpMV's
    /// intermediate reduces do).
    pub(crate) fn reduce_rows<K>(&self, rows: Rdd<(K, Row)>) -> Rdd<(K, Row)>
    where
        K: Key + Ord + EstimateSize,
    {
        rows.reduce_by_key_kernel(
            self.partitions,
            self.map_side_combine,
            self.kernel,
            add_rows,
            row_kernel_ops(),
        )
    }

    /// The tail of every MTTKRP: [`JoinContext::reduce_rows`] keyed by
    /// output index, collected and assembled into the dense
    /// `num_rows × rank` result on the driver (`rows_to_matrix` is
    /// index-addressed, so the emit order does not matter).
    pub(crate) fn sum_rows(
        &self,
        rows: Rdd<(u32, Row)>,
        num_rows: usize,
        rank: usize,
    ) -> DenseMatrix {
        rows_to_matrix(self.reduce_rows(rows).collect(), num_rows, rank)
    }
}

/// A dataset a plan persisted. Dropping the handle unpersists it, so the
/// blocks go back on every exit path: return, `?`, or a panic unwinding
/// out of an aborted stage — including the job that was still filling the
/// cache. Unpersisting twice, or a dataset that was never cached, is a
/// no-op.
pub(crate) struct Persisted<T: Data>(pub(crate) Rdd<T>);

impl<T: Data> Drop for Persisted<T> {
    fn drop(&mut self) {
        self.0.unpersist();
    }
}

impl<T: Data> std::ops::Deref for Persisted<T> {
    type Target = Rdd<T>;

    fn deref(&self) -> &Rdd<T> {
        &self.0
    }
}

/// Distributed mode-`n` MTTKRP over a tensor RDD.
///
/// `tensor` is the COO record RDD (cache it across calls — CP-ALS reuses
/// it every iteration, paper §4.1 "Caching"); `factors` are the current
/// driver-side factor matrices; the result is the dense `Iₙ × R` MTTKRP
/// output assembled on the driver.
pub fn mttkrp_coo(
    cluster: &Cluster,
    tensor: &Rdd<CooRecord>,
    factors: &[DenseMatrix],
    shape: &[u32],
    mode: usize,
    opts: &MttkrpOptions,
) -> Result<DenseMatrix> {
    let rank = check(factors, shape, mode)?;
    let joins = join_order(shape.len(), mode);
    let first = joins[0];
    let keyed: Rdd<(u32, CooRecord)> = tensor.map(move |rec| (rec.coord[first], rec));
    mttkrp_coo_keyed(cluster, &keyed, factors, shape, mode, rank, opts)
}

/// MTTKRP over a tensor RDD already keyed by the *first* join mode
/// (`join_order(order, mode)[0]`) — the pre-partitioned hot path.
///
/// When `keyed` carries partitioner provenance matching the join
/// partitioner (built with
/// [`crate::factors::tensor_to_rdd_keyed`]), stage 1's tensor-sized
/// shuffle disappears too: with co-partitioned factors an order-3 MTTKRP
/// runs 2 raw shuffle-map stages (stage-2 re-key + final reduce) instead
/// of 5. Results are bit-identical to [`mttkrp_coo`].
pub fn mttkrp_coo_pre(
    cluster: &Cluster,
    keyed: &Rdd<(u32, CooRecord)>,
    factors: &[DenseMatrix],
    shape: &[u32],
    mode: usize,
    opts: &MttkrpOptions,
) -> Result<DenseMatrix> {
    let rank = check(factors, shape, mode)?;
    mttkrp_coo_keyed(cluster, keyed, factors, shape, mode, rank, opts)
}

fn mttkrp_coo_keyed(
    cluster: &Cluster,
    keyed: &Rdd<(u32, CooRecord)>,
    factors: &[DenseMatrix],
    shape: &[u32],
    mode: usize,
    rank: usize,
    opts: &MttkrpOptions,
) -> Result<DenseMatrix> {
    // One shared partitioner threads through every stage; with
    // `co_partition_factors` the factor side of each join is narrow.
    let ctx = JoinContext::new(cluster, opts);

    let joins = join_order(shape.len(), mode);

    // STAGE 1: join the first factor's rows against the keyed tensor.
    // After the join, re-key for the next stage (or the final reduce).
    let factor_rdd = ctx.factor_rdd(cluster, &factors[joins[0]]);
    let next_key_mode = *joins.get(1).unwrap_or(&mode);
    let mut state: Rdd<(u32, (CooRecord, Row))> = keyed
        .join_by(&factor_rdd, ctx.partitioner.clone())
        .map(move |(_, (rec, row))| (rec.coord[next_key_mode], (rec, row)));

    // STAGES 2..N-1: join remaining factors, folding rows into the partial
    // Hadamard product (consumed rows go back into the kernel arena).
    for (idx, &m) in joins.iter().enumerate().skip(1) {
        let factor_rdd = ctx.factor_rdd(cluster, &factors[m]);
        let next_key_mode = *joins.get(idx + 1).unwrap_or(&mode);
        state = state.join_by(&factor_rdd, ctx.partitioner.clone()).map(
            move |(_, ((rec, partial), row))| {
                (rec.coord[next_key_mode], (rec, hadamard_rows(partial, row)))
            },
        );
    }

    // STAGE N: scale by the tensor value and sum rows per output index.
    let scaled = state.map_values(|(rec, partial)| scale_row(partial, rec.val));
    Ok(ctx.sum_rows(scaled, shape[mode] as usize, rank))
}

/// Broadcast-join MTTKRP — an extension beyond the paper.
///
/// Instead of shuffling the tensor once per non-target mode to fetch
/// factor rows, every factor matrix is *broadcast* to all nodes and each
/// partition computes its partial products locally; only the final
/// `reduceByKey` shuffles (`1` shuffle per MTTKRP instead of `N`). This
/// trades `Σ Iₘ·R` of broadcast traffic per MTTKRP against `(N−1)`
/// tensor-sized shuffles — a win whenever factor matrices are much
/// smaller than `nnz`, which holds for every dataset in the paper. The
/// `ablation_strategies` experiment quantifies the trade-off.
pub fn mttkrp_coo_broadcast(
    cluster: &Cluster,
    tensor: &Rdd<CooRecord>,
    factors: &[DenseMatrix],
    shape: &[u32],
    mode: usize,
    opts: &MttkrpOptions,
) -> Result<DenseMatrix> {
    let rank = check(factors, shape, mode)?;
    let ctx = JoinContext::new(cluster, opts);

    // Broadcast the non-target factors (metered by the engine).
    let non_target: Vec<DenseMatrix> = (0..shape.len())
        .filter(|&m| m != mode)
        .map(|m| factors[m].clone())
        .collect();
    let modes: Vec<usize> = (0..shape.len()).filter(|&m| m != mode).collect();
    let bcast = cluster.broadcast(FactorSet {
        modes,
        factors: non_target,
    });

    let rows = tensor.map(move |rec| {
        let set = bcast.value();
        // Arena rows come back stale: fill with `rec.val` before the
        // in-order multiplies.
        let mut acc: Row = pool::take_row(rank);
        acc.fill(rec.val);
        for (&m, f) in set.modes.iter().zip(&set.factors) {
            let row = f.row(rec.coord[m] as usize);
            for (a, &x) in acc.iter_mut().zip(row) {
                *a *= x;
            }
        }
        (rec.coord[mode], acc)
    });
    Ok(ctx.sum_rows(rows, shape[mode] as usize, rank))
}

/// The broadcast payload: non-target factor matrices plus their modes.
struct FactorSet {
    modes: Vec<usize>,
    factors: Vec<DenseMatrix>,
}

impl cstf_dataflow::EstimateSize for FactorSet {
    fn estimate_size(&self) -> usize {
        4 + self
            .factors
            .iter()
            .map(|f| 8 + f.rows() * f.cols() * 8)
            .sum::<usize>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::factors::tensor_to_rdd;
    use cstf_dataflow::ClusterConfig;
    use cstf_tensor::random::RandomTensor;
    use cstf_tensor::{mttkrp::mttkrp as mttkrp_seq, CooTensor};
    use rand::{rngs::StdRng, SeedableRng};

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

    fn run_all_modes(t: &CooTensor, rank: usize, seed: u64) {
        let c = cluster();
        let rdd = tensor_to_rdd(&c, t, 8).persist(StorageLevel::MemoryRaw);
        let factors = random_factors(t.shape(), rank, seed);
        let refs: Vec<&DenseMatrix> = factors.iter().collect();
        for mode in 0..t.order() {
            let dist = mttkrp_coo(
                &c,
                &rdd,
                &factors,
                t.shape(),
                mode,
                &MttkrpOptions::default(),
            )
            .unwrap();
            let seq = mttkrp_seq(t, &refs, mode).unwrap();
            let diff = dist.max_abs_diff(&seq);
            assert!(diff < 1e-9, "mode {mode}: diff {diff}");
        }
    }

    #[test]
    fn matches_sequential_third_order() {
        let t = RandomTensor::new(vec![12, 9, 15]).nnz(200).seed(3).build();
        run_all_modes(&t, 3, 11);
    }

    #[test]
    fn matches_sequential_fourth_order() {
        let t = RandomTensor::new(vec![8, 6, 7, 5]).nnz(150).seed(4).build();
        run_all_modes(&t, 2, 12);
    }

    #[test]
    fn matches_sequential_fifth_order() {
        let t = RandomTensor::new(vec![5, 4, 6, 3, 4])
            .nnz(80)
            .seed(5)
            .build();
        run_all_modes(&t, 2, 13);
    }

    #[test]
    fn join_order_is_descending_non_target() {
        assert_eq!(join_order(3, 0), vec![2, 1]);
        assert_eq!(join_order(3, 1), vec![2, 0]);
        assert_eq!(join_order(3, 2), vec![1, 0]);
        assert_eq!(join_order(4, 1), vec![3, 2, 0]);
    }

    #[test]
    fn shuffle_count_matches_table4() {
        // An order-N MTTKRP performs N tensor-sized shuffles: N−1 joins +
        // 1 reduceByKey (Table 4: 3 for a 3rd-order tensor).
        let t = RandomTensor::new(vec![10, 10, 10]).nnz(300).seed(6).build();
        let c = cluster();
        let rdd = tensor_to_rdd(&c, &t, 8).persist(StorageLevel::MemoryRaw);
        let _ = rdd.count();
        let factors = random_factors(t.shape(), 2, 1);
        c.metrics().reset();
        let _ = mttkrp_coo(&c, &rdd, &factors, t.shape(), 0, &MttkrpOptions::default()).unwrap();
        let m = c.metrics().snapshot();
        // Tensor-sized shuffles only (factor-row sides are small).
        assert_eq!(m.significant_shuffle_count(t.nnz() as u64 / 2), 3);
        // Raw shuffle-map stages with co-partitioned factors (default):
        // the 2 factor-side shuffles are narrow, leaving 2 tensor-side
        // join shuffles + 1 reduce = 3 (down from 5).
        assert_eq!(m.shuffle_count(), 3);
        assert_eq!(m.skipped_shuffle_count(), 2);
    }

    #[test]
    fn legacy_path_still_runs_five_stages() {
        // With co-partitioning disabled the original stage structure is
        // preserved: 2 joins × 2 sides + 1 reduce = 5 shuffle-map stages.
        let t = RandomTensor::new(vec![10, 10, 10]).nnz(300).seed(6).build();
        let c = cluster();
        let rdd = tensor_to_rdd(&c, &t, 8).persist(StorageLevel::MemoryRaw);
        let _ = rdd.count();
        let factors = random_factors(t.shape(), 2, 1);
        c.metrics().reset();
        let opts = MttkrpOptions {
            co_partition_factors: false,
            ..MttkrpOptions::default()
        };
        let _ = mttkrp_coo(&c, &rdd, &factors, t.shape(), 0, &opts).unwrap();
        let m = c.metrics().snapshot();
        assert_eq!(m.shuffle_count(), 5);
        assert_eq!(m.skipped_shuffle_count(), 0);
    }

    #[test]
    fn co_partitioned_factors_bit_identical_to_legacy() {
        let t = RandomTensor::new(vec![14, 11, 9]).nnz(250).seed(21).build();
        let c = cluster();
        let rdd = tensor_to_rdd(&c, &t, 8).persist(StorageLevel::MemoryRaw);
        let _ = rdd.count();
        let factors = random_factors(t.shape(), 3, 22);
        let legacy_opts = MttkrpOptions {
            co_partition_factors: false,
            ..MttkrpOptions::default()
        };
        for mode in 0..3 {
            let fast = mttkrp_coo(
                &c,
                &rdd,
                &factors,
                t.shape(),
                mode,
                &MttkrpOptions::default(),
            )
            .unwrap();
            let legacy = mttkrp_coo(&c, &rdd, &factors, t.shape(), mode, &legacy_opts).unwrap();
            for i in 0..fast.rows() {
                for (a, b) in fast.row(i).iter().zip(legacy.row(i)) {
                    assert_eq!(a.to_bits(), b.to_bits(), "mode {mode} row {i}");
                }
            }
        }
    }

    #[test]
    fn pre_partitioned_tensor_runs_two_stages_bit_identically() {
        use crate::factors::tensor_to_rdd_keyed;
        use cstf_dataflow::{HashPartitioner, PartitionerRef};
        use std::sync::Arc;

        let t = RandomTensor::new(vec![10, 10, 10]).nnz(300).seed(6).build();
        let c = cluster();
        let partitions = 8;
        let mode = 0;
        let first = join_order(t.order(), mode)[0];
        let factors = random_factors(t.shape(), 2, 1);
        let opts = MttkrpOptions {
            partitions: Some(partitions),
            ..MttkrpOptions::default()
        };

        let baseline = {
            let rdd = tensor_to_rdd(&c, &t, partitions).persist(StorageLevel::MemoryRaw);
            let _ = rdd.count();
            mttkrp_coo(&c, &rdd, &factors, t.shape(), mode, &opts).unwrap()
        };

        let p: Arc<dyn KeyPartitioner<u32>> = Arc::new(HashPartitioner::new(partitions));
        let pref = PartitionerRef::of(p);
        let keyed = tensor_to_rdd_keyed(&c, &t, first, partitions, Some(&pref))
            .persist(StorageLevel::MemoryRaw);
        let _ = keyed.count();
        c.metrics().reset();
        let fast = mttkrp_coo_pre(&c, &keyed, &factors, t.shape(), mode, &opts).unwrap();
        let m = c.metrics().snapshot();
        // Stage 1 is fully narrow: only the stage-2 re-key and the final
        // reduce shuffle remain.
        assert_eq!(m.shuffle_count(), 2);
        assert_eq!(m.significant_shuffle_count(t.nnz() as u64 / 2), 2);
        // Skipped: both sides of join 1, plus the factor side of join 2.
        assert_eq!(m.skipped_shuffle_count(), 3);

        for i in 0..fast.rows() {
            for (a, b) in fast.row(i).iter().zip(baseline.row(i)) {
                assert_eq!(a.to_bits(), b.to_bits(), "row {i}");
            }
        }
    }

    #[test]
    fn kernel_strategies_bit_identical_and_counted() {
        let t = RandomTensor::new(vec![6, 30, 30]).nnz(400).seed(33).build();
        let c = cluster();
        let rdd = tensor_to_rdd(&c, &t, 8).persist(StorageLevel::MemoryRaw);
        let _ = rdd.count();
        let factors = random_factors(t.shape(), 3, 34);
        let run = |kernel: KernelStrategy| {
            c.metrics().reset();
            let out = mttkrp_coo(
                &c,
                &rdd,
                &factors,
                t.shape(),
                0,
                &MttkrpOptions {
                    kernel,
                    ..MttkrpOptions::default()
                },
            )
            .unwrap();
            (out, c.metrics().snapshot())
        };
        let (legacy, legacy_m) = run(KernelStrategy::RecordAtATime);
        let (sorted, sorted_m) = run(KernelStrategy::SortedRuns);
        for i in 0..legacy.rows() {
            for (a, b) in legacy.row(i).iter().zip(sorted.row(i)) {
                assert_eq!(a.to_bits(), b.to_bits(), "row {i}");
            }
        }
        // Kernel counters appear only on kernel runs; mode 0 has 6
        // distinct output indices.
        assert_eq!(legacy_m.total_kernel_runs(), 0);
        assert_eq!(sorted_m.total_kernel_runs(), 6);
        assert!(sorted_m.total_arena_hits() > 0, "arena never reused");
    }

    #[test]
    fn intermediate_data_close_to_nnz_r() {
        // Table 4: COO intermediate data is nnz × R (one carried row per
        // record). Check the reduce stage's written bytes.
        let t = RandomTensor::new(vec![20, 20, 20]).nnz(500).seed(7).build();
        let c = cluster();
        let rdd = tensor_to_rdd(&c, &t, 8).persist(StorageLevel::MemoryRaw);
        let _ = rdd.count();
        let rank = 4;
        let factors = random_factors(t.shape(), rank, 2);
        c.metrics().reset();
        let _ = mttkrp_coo(&c, &rdd, &factors, t.shape(), 0, &MttkrpOptions::default()).unwrap();
        let m = c.metrics().snapshot();
        let reduce_stage = m
            .stages()
            .find(|s| s.name.contains("reduce_by_key"))
            .unwrap();
        // Each reduce record: key 4 + row (4 + 8R) bytes.
        let expect = (t.nnz() * (8 + 8 * rank)) as u64;
        assert_eq!(reduce_stage.shuffle_write_bytes, expect);
        assert_eq!(reduce_stage.shuffle_write_records, t.nnz() as u64);
    }

    #[test]
    fn empty_mode_rows_are_zero() {
        // Index 9 in mode 0 has no nonzeros: its MTTKRP row must be zero.
        let t = CooTensor::from_entries(vec![10, 4, 4], vec![(vec![0, 1, 2], 5.0)]).unwrap();
        let c = cluster();
        let rdd = tensor_to_rdd(&c, &t, 2);
        let factors = random_factors(t.shape(), 2, 3);
        let m = mttkrp_coo(&c, &rdd, &factors, t.shape(), 0, &MttkrpOptions::default()).unwrap();
        assert_eq!(m.row(9), &[0.0, 0.0]);
        assert_ne!(m.row(0), &[0.0, 0.0]);
    }

    #[test]
    fn broadcast_matches_shuffle_join_all_modes() {
        let t = RandomTensor::new(vec![12, 9, 15]).nnz(200).seed(8).build();
        let c = cluster();
        let rdd = tensor_to_rdd(&c, &t, 8).persist(StorageLevel::MemoryRaw);
        let _ = rdd.count();
        let factors = random_factors(t.shape(), 3, 14);
        for mode in 0..3 {
            let shuffle = mttkrp_coo(
                &c,
                &rdd,
                &factors,
                t.shape(),
                mode,
                &MttkrpOptions::default(),
            )
            .unwrap();
            let broadcast = mttkrp_coo_broadcast(
                &c,
                &rdd,
                &factors,
                t.shape(),
                mode,
                &MttkrpOptions::default(),
            )
            .unwrap();
            assert!(broadcast.max_abs_diff(&shuffle) < 1e-9, "mode {mode}");
        }
    }

    #[test]
    fn broadcast_uses_one_shuffle_and_meters_broadcast_bytes() {
        let t = RandomTensor::new(vec![10, 10, 10]).nnz(300).seed(9).build();
        let c = cluster();
        let rdd = tensor_to_rdd(&c, &t, 8).persist(StorageLevel::MemoryRaw);
        let _ = rdd.count();
        let factors = random_factors(t.shape(), 2, 15);
        c.metrics().reset();
        let _ = mttkrp_coo_broadcast(&c, &rdd, &factors, t.shape(), 0, &MttkrpOptions::default())
            .unwrap();
        let m = c.metrics().snapshot();
        assert_eq!(m.significant_shuffle_count(t.nnz() as u64 / 2), 1);
        // Two 10×2 factors broadcast to 3 remote nodes.
        assert!(m.total_broadcast_bytes() > 0);
    }

    #[test]
    fn map_side_combine_reduces_reduce_traffic() {
        // Mode with few distinct indices: combining collapses records.
        let t = RandomTensor::new(vec![4, 40, 40]).nnz(400).seed(10).build();
        let c = cluster();
        let rdd = tensor_to_rdd(&c, &t, 8).persist(StorageLevel::MemoryRaw);
        let _ = rdd.count();
        let factors = random_factors(t.shape(), 2, 16);
        let reduce_bytes = |combine: bool| {
            c.metrics().reset();
            let _ = mttkrp_coo(
                &c,
                &rdd,
                &factors,
                t.shape(),
                0,
                &MttkrpOptions {
                    map_side_combine: combine,
                    ..MttkrpOptions::default()
                },
            )
            .unwrap();
            let m = c.metrics().snapshot();
            m.stages()
                .filter(|s| s.name.contains("reduce_by_key"))
                .map(|s| s.shuffle_write_bytes)
                .sum::<u64>()
        };
        let plain = reduce_bytes(false);
        let combined = reduce_bytes(true);
        assert!(
            combined * 2 < plain,
            "combining did not help: {combined} vs {plain}"
        );
    }

    #[test]
    fn rejects_bad_config() {
        let t = RandomTensor::new(vec![4, 4, 4]).nnz(10).seed(1).build();
        let c = cluster();
        let rdd = tensor_to_rdd(&c, &t, 2);
        let factors = random_factors(t.shape(), 2, 1);
        assert!(matches!(
            mttkrp_coo(
                &c,
                &rdd,
                &factors[..2],
                t.shape(),
                0,
                &MttkrpOptions::default()
            ),
            Err(CstfError::Config(_))
        ));
        assert!(matches!(
            mttkrp_coo(&c, &rdd, &factors, t.shape(), 5, &MttkrpOptions::default()),
            Err(CstfError::Config(_))
        ));
    }
}
