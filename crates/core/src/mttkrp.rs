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
//! [`Partitioning::CoPartitionedFactors`]) an order-3 [`mttkrp_coo`] drops
//! from 5 raw shuffle-map stages to 3. Pre-partitioning the tensor by the
//! first join mode ([`Partitioning::PrePartitionedTensor`]) additionally
//! removes stage 1's tensor shuffle — 2 raw stages, and `N−1`
//! tensor-sized shuffles instead of `N`, strictly better than Table 4's
//! COO row. Results are bit-identical in every case: buckets receive the
//! same records in the same order whether they travel through a shuffle
//! or are read narrowly.
//!
//! # Stage concurrency
//!
//! The engine's DAG scheduler ([`cstf_dataflow::Job`]) cuts each MTTKRP
//! action into a stage DAG and runs independent stages of a wave
//! concurrently. With
//! [`Partitioning::None`] the factor-side shuffles have no dependency path
//! to the tensor-side ones, so an order-3 [`mttkrp_coo`] schedules all
//! three wave-0 stages (tensor key + both factor shuffles) at once — the
//! overlap Spark's `DAGScheduler` gives the paper's implementation for
//! free, and what the critical-path time model prices
//! (`ablation_scheduler`). The default co-partitioned path replaces those
//! factor stages with narrow reads, leaving a pure chain: fewer stages,
//! but nothing left for the scheduler to overlap.

use crate::factors::{factor_to_rdd, rows_to_matrix};
use crate::planner::{join_order, Partitioning, PlanConfig};
use crate::records::{add_rows, hadamard_rows, row_kernel_ops, scale_row, CooRecord, Row};
use cstf_dataflow::prelude::*;
use cstf_tensor::DenseMatrix;

/// Shared frame of every MTTKRP pipeline (COO, QCOO, SpMV, broadcast): the
/// partition count every join and reduce hashes keys into, the rank,
/// pre-hashed factor-row emission, and the reduce tail that sums rows per
/// output index.
pub(crate) struct JoinContext {
    pub(crate) partitions: usize,
    rank: usize,
    co_partition_factors: bool,
}

impl JoinContext {
    /// The frame `config` describes.
    pub(crate) fn new(config: &PlanConfig) -> Self {
        JoinContext {
            partitions: config.partitions,
            rank: config.rank,
            co_partition_factors: config.partitioning != Partitioning::None,
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
            self.co_partition_factors
                .then(|| HashPartitioner::new(self.partitions)),
        )
    }

    /// The reduce every pipeline ends its stages with: sums rows per key,
    /// reduce-side only (the paper's Table 4 accounting; `ablation_combine`
    /// measures Spark's map-side combine beside it), merging fetched rows
    /// in place by reference so each task clones one row per distinct key.
    /// Rows emit in the order their keys first arrived, so callers consume
    /// the result order-insensitively (or canonicalize it, as SpMV's
    /// intermediate reduces do).
    pub(crate) fn reduce_rows<K>(&self, rows: Rdd<(K, Row)>) -> Rdd<(K, Row)>
    where
        K: Key + EstimateSize,
    {
        rows.reduce_by_key_kernel(
            self.partitions,
            false,
            KernelStrategy::default(),
            add_rows,
            row_kernel_ops(),
        )
    }

    /// The tail of every MTTKRP: [`JoinContext::reduce_rows`] keyed by
    /// output index, collected and assembled into the dense
    /// `num_rows × rank` result on the driver (`rows_to_matrix` is
    /// index-addressed, so the emit order does not matter).
    pub(crate) fn sum_rows(&self, rows: Rdd<(u32, Row)>, num_rows: usize) -> DenseMatrix {
        rows_to_matrix(self.reduce_rows(rows).collect(), num_rows, self.rank)
    }
}

/// A dataset a plan persisted. Dropping the handle unpersists it, so the
/// blocks go back on every exit path: return, `?`, or a panic unwinding
/// out of an aborted stage — including the job that was still filling the
/// cache. Unpersisting twice, or a dataset that was never cached, is a
/// no-op.
///
/// Dropping also releases the shuffle outputs that built the dataset
/// ([`Rdd::release_shuffles`]): the plan owns that lineage, and once the
/// handle is gone nothing live reads it — QCOO's rotation drops the old
/// queue only after the new one is cached. The lineage stays, so a node
/// loss replays the released shuffles.
pub(crate) struct Persisted<T: Data>(pub(crate) Rdd<T>);

impl<T: Data> Drop for Persisted<T> {
    fn drop(&mut self) {
        // Unpersist first: only an uncached node lets the walk reach
        // the lineage below it.
        self.0.unpersist();
        self.0.release_shuffles();
    }
}

impl<T: Data> std::ops::Deref for Persisted<T> {
    type Target = Rdd<T>;

    fn deref(&self) -> &Rdd<T> {
        &self.0
    }
}

/// Distributed mode-`n` MTTKRP over a tensor RDD keyed by the *first*
/// join mode (`join_order(order, mode)[0]`): the plan's cached pre-keyed
/// copy, or its plain tensor RDD mapped to that key.
///
/// When `keyed` carries partitioner provenance matching the join
/// partitioner (built with [`crate::factors::tensor_to_rdd_keyed`]),
/// stage 1's tensor-sized shuffle disappears too: with co-partitioned
/// factors an order-3 MTTKRP then runs 2 raw shuffle-map stages, the
/// stage-2 re-key and the final reduce. The result is the dense `Iₙ × R`
/// MTTKRP output assembled on the driver.
pub(crate) fn mttkrp_coo(
    cluster: &Cluster,
    keyed: &Rdd<(u32, CooRecord)>,
    factors: &[DenseMatrix],
    shape: &[u32],
    mode: usize,
    config: &PlanConfig,
) -> DenseMatrix {
    // Every stage hashes keys into the same partition count; with
    // co-partitioned factors the factor side of each join is narrow.
    let ctx = JoinContext::new(config);

    let joins = join_order(shape.len(), mode);

    // STAGE 1: join the first factor's rows against the keyed tensor.
    // After the join, re-key for the next stage (or the final reduce).
    let factor_rdd = ctx.factor_rdd(cluster, &factors[joins[0]]);
    let next_key_mode = *joins.get(1).unwrap_or(&mode);
    let mut state: Rdd<(u32, (CooRecord, Row))> = keyed
        .join_with(&factor_rdd, ctx.partitions)
        .map(move |(_, (rec, row))| (rec.coord[next_key_mode], (rec, row)));

    // STAGES 2..N-1: join remaining factors, multiplying each factor row
    // into the partial Hadamard product in place.
    for (idx, &m) in joins.iter().enumerate().skip(1) {
        let factor_rdd = ctx.factor_rdd(cluster, &factors[m]);
        let next_key_mode = *joins.get(idx + 1).unwrap_or(&mode);
        let joined = state.join_with(&factor_rdd, ctx.partitions);
        state = joined.map(move |(_, ((rec, partial), row))| {
            let partial = hadamard_rows(partial, &row);
            (rec.coord[next_key_mode], (rec, partial))
        });
    }

    // STAGE N: scale by the tensor value and sum rows per output index.
    let scaled = state.map_values(|(rec, partial)| scale_row(partial, rec.val));
    ctx.sum_rows(scaled, shape[mode] as usize)
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
pub(crate) fn mttkrp_coo_broadcast(
    cluster: &Cluster,
    tensor: &Rdd<CooRecord>,
    factors: &[DenseMatrix],
    shape: &[u32],
    mode: usize,
    config: &PlanConfig,
) -> DenseMatrix {
    let (rank, ctx) = (config.rank, JoinContext::new(config));

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
        let mut acc: Row = vec![rec.val; rank].into_boxed_slice();
        for (&m, f) in set.modes.iter().zip(&set.factors) {
            let row = f.row(rec.coord[m] as usize);
            for (a, &x) in acc.iter_mut().zip(row) {
                *a *= x;
            }
        }
        (rec.coord[mode], acc)
    });
    ctx.sum_rows(rows, shape[mode] as usize)
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
    use crate::planner::testing::*;
    use crate::planner::{Partitioning, Strategy};

    #[test]
    fn shuffle_count_matches_table4() {
        // An order-N MTTKRP performs N tensor-sized shuffles: N−1 joins +
        // 1 reduceByKey (Table 4: 3 for a 3rd-order tensor). With
        // co-partitioned factors the 2 factor-side shuffles are narrow,
        // leaving 2 tensor-side join shuffles + 1 reduce = 3 raw stages.
        assert_shuffle_counts(
            Strategy::Coo,
            &[(Partitioning::CoPartitionedFactors, [3, 2, 3])],
        );
    }

    #[test]
    fn legacy_path_still_runs_five_stages() {
        // Without co-partitioning the original stage structure remains:
        // 2 joins × 2 sides + 1 reduce = 5 shuffle-map stages.
        assert_shuffle_counts(Strategy::Coo, &[(Partitioning::None, [5, 0, 3])]);
    }

    #[test]
    fn pre_partitioned_tensor_runs_two_stages_bit_identically() {
        // Stage 1 is fully narrow: only the stage-2 re-key and the final
        // reduce shuffle remain. Skipped: both sides of join 1, plus the
        // factor side of join 2.
        assert_shuffle_counts(
            Strategy::Coo,
            &[(Partitioning::PrePartitionedTensor, [2, 3, 2])],
        );
        let (_, pre, _) = mode0_run(Strategy::Coo, Partitioning::PrePartitionedTensor);
        let (_, legacy, _) = mode0_run(Strategy::Coo, Partitioning::None);
        assert_bits_eq(&pre, &legacy);
    }

    #[test]
    fn broadcast_uses_one_shuffle_and_meters_broadcast_bytes() {
        // The factors travel as broadcasts at every partitioning: the
        // final reduce is the only shuffle.
        assert_shuffle_counts(
            Strategy::CooBroadcast,
            &[
                (Partitioning::None, [1, 0, 1]),
                (Partitioning::CoPartitionedFactors, [1, 0, 1]),
                (Partitioning::PrePartitionedTensor, [1, 0, 1]),
            ],
        );
    }

    #[test]
    fn intermediate_data_close_to_nnz_r() {
        // Table 4: COO intermediate data is nnz × R (one carried row per
        // record). The final reduce writes a full `nnz · (8 + 8R)`: there
        // is no map-side combine. Broadcast writes only that reduce.
        assert_shuffle_writes(Strategy::Coo, |nnz, _| {
            vec![
                (nnz, KEY + RECORD),
                (nnz, KEY + RECORD + ROW),
                (nnz, KEY + ROW),
            ]
        });
        assert_shuffle_writes(Strategy::CooBroadcast, |nnz, _| vec![(nnz, KEY + ROW)]);
    }

    #[test]
    fn empty_mode_rows_are_zero() {
        assert_empty_rows_zero(Strategy::Coo);
        assert_empty_rows_zero(Strategy::CooBroadcast);
    }

    #[test]
    fn rejects_bad_config() {
        assert_bad_inputs_fail(Strategy::Coo);
        assert_bad_inputs_fail(Strategy::CooBroadcast);
    }
}
