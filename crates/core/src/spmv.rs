//! DFacTo-SpMV: distributed MTTKRP as a chain of sparse matrix–vector
//! products (the fourth exact strategy; see [`cstf_tensor::spmv`] for the
//! formulation and the sequential reference).
//!
//! Where CSTF-COO carries one partial-product row per *nonzero* through
//! `N − 1` joins, DFacTo reduces to one row per *fiber* after the first
//! contraction, and every later stage operates on the fiber-sized set
//! (`F ≤ nnz` rows):
//!
//! ```text
//! SpMV 1:  key tensor by i_{j₁} → join A_{j₁} → (fiber, X(z)·row)
//!          → reduceByKey(+)                                  — F₁ rows
//! SpMV k:  key fibers by i_{j_k} → join A_{j_k} → hadamard
//!          → re-key by the contracted fiber → reduceByKey(+) — F_k rows
//! final:   the last contraction's reduce is keyed by i_n directly
//! ```
//!
//! Fibers are encoded as dense `u64` mixed-radix keys
//! ([`cstf_tensor::spmv::FiberSpace`]), so re-keying after a contraction is
//! pure arithmetic — no coordinates travel past the first shuffle. Each
//! SpMV is one join + one `reduceByKey`: `2(N−1)` shuffles per MTTKRP, of
//! which only the first two move nnz-sized data; the rest are fiber-sized.
//! Every reduce merges fetched rows by reference, `u64` fiber keys as
//! `u32` ones.
//!
//! Like the other strategies the pipeline is deterministic: joins and
//! reduces emit per-partition records in a fixed order, so results are
//! bit-identical across retries, speculation and partitioning levels.

use crate::mttkrp::JoinContext;
use crate::planner::{join_order, PlanConfig};
use crate::records::{hadamard_rows, scale_row, CooRecord, Row};
use cstf_dataflow::prelude::*;
use cstf_tensor::spmv::FiberSpace;
use cstf_tensor::DenseMatrix;

/// Distributed mode-`n` MTTKRP via the DFacTo SpMV chain, over a tensor
/// RDD keyed by the first contraction mode (`join_order(order, mode)[0]`)
/// — the same keyed input as [`crate::mttkrp::mttkrp_coo`]; with matching
/// partitioner provenance the first join is fully narrow.
///
/// The result is the dense `Iₙ × R` MTTKRP assembled on the driver. It
/// agrees with the sequential reference within floating-point
/// reassociation tolerance (the summation tree groups by fiber first), and
/// is bit-identical across tensor layouts and fault schedules.
pub(crate) fn mttkrp_spmv(
    cluster: &Cluster,
    keyed: &Rdd<(u32, CooRecord)>,
    factors: &[DenseMatrix],
    shape: &[u32],
    mode: usize,
    config: &PlanConfig,
) -> DenseMatrix {
    let ctx = JoinContext::new(config);
    let joins = join_order(shape.len(), mode);

    // SpMV 1: join the first contraction factor, scale each row by the
    // nonzero value, and sum per fiber.
    let factor_rdd = ctx.factor_rdd(cluster, &factors[joins[0]]);
    let joined = keyed.join_with(&factor_rdd, ctx.partitions);

    if joins.len() == 1 {
        // Order 2 degenerates to a single SpMV: the "fiber" is the target
        // index itself, so reduce directly on it.
        let rows = joined.map(move |(_, (rec, row))| (rec.coord[mode], scale_row(row, rec.val)));
        return ctx.sum_rows(rows, shape[mode] as usize);
    }

    // Intermediate reduces feed further joins + reduces, so their emit
    // order is load-bearing: it sets the downstream addition order. A
    // reduce emits keys in first-arrival order and a join emits in its
    // left side's read order, so unsorted, each round inherits its order
    // from the round before and, through it, from the order of the
    // tensor's nonzeros within their partitions. Canonicalize every
    // intermediate fiber partition to ascending key order so the later
    // rounds' addition order depends on the fiber set alone. Unsorted,
    // every partitioning level, retry and node loss still gives the same
    // bits (EXPERIMENTS.md, "SpMV's canonical sort"), but dropping the
    // sort would move `GOLDEN_DENSE`'s SpMV constant.
    let canonical = |rdd: Rdd<(u64, Row)>| {
        rdd.map_partitions(|_, mut recs| {
            recs.sort_by_key(|&(key, _)| key);
            recs
        })
    };

    let space = FiberSpace::new(shape, joins[0]);
    let enc = space.clone();
    let mut fibers: Rdd<(u64, Row)> = canonical(ctx.reduce_rows(
        joined.map(move |(_, (rec, row))| (enc.encode(&rec.coord), scale_row(row, rec.val))),
    ));

    // SpMV 2..N−1: contract one further mode per round. The fiber key
    // carries every remaining coordinate, so each round extracts the join
    // index, hadamards the factor row in, drops the contracted component,
    // and reduces. The last round's reduce is keyed by the target index
    // (`u32`) so the collected rows feed `rows_to_matrix` directly.
    for (idx, &m) in joins.iter().enumerate().skip(1) {
        let ex = space.clone();
        let keyed_by_m: Rdd<(u32, (u64, Row))> =
            fibers.map(move |(key, row)| (ex.extract(key, m), (key, row)));
        let factor_rdd = ctx.factor_rdd(cluster, &factors[m]);
        let joined = keyed_by_m.join_with(&factor_rdd, ctx.partitions);
        let drop = space.clone();
        if idx + 1 == joins.len() {
            // Final contraction: only the target component survives.
            let rows = joined.map(move |(_, ((key, partial), frow))| {
                let combined = hadamard_rows(partial, &frow);
                (drop.extract(drop.drop_mode(key, m), mode), combined)
            });
            return ctx.sum_rows(rows, shape[mode] as usize);
        }
        fibers = canonical(
            ctx.reduce_rows(joined.map(move |(_, ((key, partial), frow))| {
                (drop.drop_mode(key, m), hadamard_rows(partial, &frow))
            })),
        );
    }
    unreachable!("joins.len() >= 2 always returns from the final round")
}

#[cfg(test)]
mod tests {
    use crate::planner::testing::*;
    use crate::planner::{Partitioning, Strategy};

    #[test]
    fn two_spmvs_four_stages_third_order() {
        // 2(N−1) shuffles for order 3 = 4 raw shuffle-map stages with
        // co-partitioned factors (both factor sides narrow), 6 without;
        // only the first two move nnz-sized data.
        assert_shuffle_counts(
            Strategy::DfactoSpmv,
            &[
                (Partitioning::None, [6, 0, 2]),
                (Partitioning::CoPartitionedFactors, [4, 2, 2]),
            ],
        );
    }

    #[test]
    fn later_stages_move_fiber_sized_data() {
        // After SpMV 1 only one row per fiber remains, so join 2 and
        // reduce 2 are fiber-sized while join 1 and reduce 1 are
        // nnz-sized.
        assert_shuffle_writes(Strategy::DfactoSpmv, |nnz, fibers| {
            assert!(
                fibers < nnz,
                "the tensor must have fewer fibers than nonzeros"
            );
            vec![
                (nnz, KEY + RECORD),
                (nnz, FIBER_KEY + ROW),
                (fibers, KEY + FIBER_KEY + ROW),
                (fibers, KEY + ROW),
            ]
        });
    }

    #[test]
    fn pre_partitioned_first_join_is_narrow_and_bit_identical() {
        // Join 1 fully narrow: reduce 1 + join 2 + reduce 2 shuffle.
        assert_shuffle_counts(
            Strategy::DfactoSpmv,
            &[(Partitioning::PrePartitionedTensor, [3, 3, 1])],
        );
        let (_, pre, _) = mode0_run(Strategy::DfactoSpmv, Partitioning::PrePartitionedTensor);
        let (_, co, _) = mode0_run(Strategy::DfactoSpmv, Partitioning::CoPartitionedFactors);
        assert_bits_eq(&pre, &co);
    }

    #[test]
    fn empty_mode_rows_are_zero() {
        assert_empty_rows_zero(Strategy::DfactoSpmv);
    }

    #[test]
    fn rejects_bad_config() {
        assert_bad_inputs_fail(Strategy::DfactoSpmv);
    }
}
