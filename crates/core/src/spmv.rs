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
//! Both reduces ride the sorted-runs kernels (PR 8) — `u64` keys walk the
//! same stable-sorted run combiner as `u32` ones.
//!
//! Like the other strategies the pipeline is deterministic: joins and
//! kernel reduces emit per-partition records in a fixed order, so results
//! are bit-identical across retries, speculation, and kernel choices.

use crate::mttkrp::{check, join_order, JoinContext, MttkrpOptions};
use crate::records::{hadamard_rows, scale_row, CooRecord, Row};
use crate::Result;
use cstf_dataflow::prelude::*;
use cstf_tensor::spmv::FiberSpace;
use cstf_tensor::DenseMatrix;

/// Distributed mode-`n` MTTKRP via the DFacTo SpMV chain.
///
/// Same contract as [`crate::mttkrp::mttkrp_coo`]: `tensor` is the COO
/// record RDD (cache it across calls), the result is the dense `Iₙ × R`
/// MTTKRP assembled on the driver. Agrees with the sequential reference
/// within floating-point reassociation tolerance (the summation tree
/// groups by fiber first), and is bit-identical to
/// [`mttkrp_spmv_pre`] and to itself under any fault schedule or kernel.
pub fn mttkrp_spmv(
    cluster: &Cluster,
    tensor: &Rdd<CooRecord>,
    factors: &[DenseMatrix],
    shape: &[u32],
    mode: usize,
    opts: &MttkrpOptions,
) -> Result<DenseMatrix> {
    let rank = check(factors, shape, mode)?;
    let first = join_order(shape.len(), mode)[0];
    let keyed: Rdd<(u32, CooRecord)> = tensor.map(move |rec| (rec.coord[first], rec));
    mttkrp_spmv_keyed(cluster, &keyed, factors, shape, mode, rank, opts)
}

/// [`mttkrp_spmv`] over a tensor RDD already keyed by the first
/// contraction mode (`join_order(order, mode)[0]`) — the pre-partitioned
/// hot path, sharing the keyed tensor copies with
/// [`crate::mttkrp::mttkrp_coo_pre`]. With matching partitioner provenance
/// the first join is fully narrow.
pub fn mttkrp_spmv_pre(
    cluster: &Cluster,
    keyed: &Rdd<(u32, CooRecord)>,
    factors: &[DenseMatrix],
    shape: &[u32],
    mode: usize,
    opts: &MttkrpOptions,
) -> Result<DenseMatrix> {
    let rank = check(factors, shape, mode)?;
    mttkrp_spmv_keyed(cluster, keyed, factors, shape, mode, rank, opts)
}

fn mttkrp_spmv_keyed(
    cluster: &Cluster,
    keyed: &Rdd<(u32, CooRecord)>,
    factors: &[DenseMatrix],
    shape: &[u32],
    mode: usize,
    rank: usize,
    opts: &MttkrpOptions,
) -> Result<DenseMatrix> {
    let ctx = JoinContext::new(cluster, opts);
    let joins = join_order(shape.len(), mode);

    // SpMV 1: join the first contraction factor, scale each row by the
    // nonzero value, and sum per fiber.
    let factor_rdd = ctx.factor_rdd(cluster, &factors[joins[0]]);
    let joined = keyed.join_by(&factor_rdd, ctx.partitioner.clone());

    if joins.len() == 1 {
        // Order 2 degenerates to a single SpMV: the "fiber" is the target
        // index itself, so reduce directly on it.
        let rows = joined.map(move |(_, (rec, row))| (rec.coord[mode], scale_row(row, rec.val)));
        return Ok(ctx.sum_rows(rows, shape[mode] as usize, rank));
    }

    // Intermediate reduces feed further joins + reduces, so their emit
    // order is load-bearing: the sorted kernels emit ascending key order
    // while record-at-a-time emits hash order, which would change the
    // downstream addition order. Canonicalize every intermediate fiber
    // partition to ascending key order (a no-op for sorted kernels) so
    // all kernels are bit-identical end to end.
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
        let joined = keyed_by_m.join_by(&factor_rdd, ctx.partitioner.clone());
        let drop = space.clone();
        if idx + 1 == joins.len() {
            // Final contraction: only the target component survives.
            let rows = joined.map(move |(_, ((key, partial), frow))| {
                let combined = hadamard_rows(partial, frow);
                (drop.extract(drop.drop_mode(key, m), mode), combined)
            });
            return Ok(ctx.sum_rows(rows, shape[mode] as usize, rank));
        }
        fibers = canonical(
            ctx.reduce_rows(joined.map(move |(_, ((key, partial), frow))| {
                (drop.drop_mode(key, m), hadamard_rows(partial, frow))
            })),
        );
    }
    unreachable!("joins.len() >= 2 always returns from the final round")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::factors::{tensor_to_rdd, tensor_to_rdd_keyed};
    use cstf_dataflow::ClusterConfig;
    use cstf_tensor::random::RandomTensor;
    use cstf_tensor::{mttkrp::mttkrp as mttkrp_seq, CooTensor};
    use rand::{rngs::StdRng, SeedableRng};
    use std::sync::Arc;

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
            let dist = mttkrp_spmv(
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
    fn matches_sequential_second_order() {
        let t = RandomTensor::new(vec![9, 14]).nnz(60).seed(2).build();
        run_all_modes(&t, 3, 10);
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
    fn two_spmvs_four_stages_third_order() {
        // 2(N−1) shuffles for order 3 = 4 raw shuffle-map stages with
        // co-partitioned factors (both factor sides narrow); only the
        // first two move nnz-sized data.
        let t = RandomTensor::new(vec![10, 10, 10]).nnz(300).seed(6).build();
        let c = cluster();
        let rdd = tensor_to_rdd(&c, &t, 8).persist(StorageLevel::MemoryRaw);
        let _ = rdd.count();
        let factors = random_factors(t.shape(), 2, 1);
        c.metrics().reset();
        let _ = mttkrp_spmv(&c, &rdd, &factors, t.shape(), 0, &MttkrpOptions::default()).unwrap();
        let m = c.metrics().snapshot();
        assert_eq!(m.shuffle_count(), 4);
        assert_eq!(m.skipped_shuffle_count(), 2);
    }

    #[test]
    fn later_stages_move_fiber_sized_data() {
        // A tensor with few fibers per (i, j) plane: after SpMV 1 only
        // F ≪ nnz rows remain, so the second join + reduce shuffle far
        // fewer records than the first pair.
        let t = RandomTensor::new(vec![6, 6, 40]).nnz(500).seed(7).build();
        let c = cluster();
        let rdd = tensor_to_rdd(&c, &t, 8).persist(StorageLevel::MemoryRaw);
        let _ = rdd.count();
        let factors = random_factors(t.shape(), 2, 2);
        c.metrics().reset();
        let _ = mttkrp_spmv(&c, &rdd, &factors, t.shape(), 0, &MttkrpOptions::default()).unwrap();
        let m = c.metrics().snapshot();
        let shuffled: Vec<u64> = m
            .stages()
            .filter(|s| s.shuffle_write_records > 0)
            .map(|s| s.shuffle_write_records)
            .collect();
        assert_eq!(shuffled.len(), 4);
        let fibers = cstf_tensor::spmv::fiber_counts(&t, 0).unwrap()[0] as u64;
        assert!(fibers <= 36, "at most I×J fibers");
        // Join 1 and reduce 1 are nnz-sized; join 2 and reduce 2 are
        // fiber-sized.
        assert_eq!(shuffled[0], t.nnz() as u64);
        assert_eq!(shuffled[1], t.nnz() as u64);
        assert_eq!(shuffled[2], fibers);
        assert_eq!(shuffled[3], fibers);
    }

    #[test]
    fn pre_partitioned_first_join_is_narrow_and_bit_identical() {
        let t = RandomTensor::new(vec![10, 10, 10]).nnz(300).seed(8).build();
        let c = cluster();
        let partitions = 8;
        let mode = 0;
        let first = join_order(t.order(), mode)[0];
        let factors = random_factors(t.shape(), 2, 3);
        let opts = MttkrpOptions {
            partitions: Some(partitions),
            ..MttkrpOptions::default()
        };

        let baseline = {
            let rdd = tensor_to_rdd(&c, &t, partitions).persist(StorageLevel::MemoryRaw);
            let _ = rdd.count();
            mttkrp_spmv(&c, &rdd, &factors, t.shape(), mode, &opts).unwrap()
        };

        let p: Arc<dyn KeyPartitioner<u32>> = Arc::new(HashPartitioner::new(partitions));
        let pref = PartitionerRef::of(p);
        let keyed = tensor_to_rdd_keyed(&c, &t, first, partitions, Some(&pref))
            .persist(StorageLevel::MemoryRaw);
        let _ = keyed.count();
        c.metrics().reset();
        let fast = mttkrp_spmv_pre(&c, &keyed, &factors, t.shape(), mode, &opts).unwrap();
        let m = c.metrics().snapshot();
        // Join 1 fully narrow: reduce 1 + join 2 + reduce 2 shuffle.
        assert_eq!(m.shuffle_count(), 3);
        assert_eq!(m.skipped_shuffle_count(), 3);

        for i in 0..fast.rows() {
            for (a, b) in fast.row(i).iter().zip(baseline.row(i)) {
                assert_eq!(a.to_bits(), b.to_bits(), "row {i}");
            }
        }
    }

    #[test]
    fn kernel_strategies_bit_identical() {
        let t = RandomTensor::new(vec![6, 25, 25]).nnz(400).seed(9).build();
        let c = cluster();
        let rdd = tensor_to_rdd(&c, &t, 8).persist(StorageLevel::MemoryRaw);
        let _ = rdd.count();
        let factors = random_factors(t.shape(), 3, 4);
        let run = |kernel: KernelStrategy| {
            mttkrp_spmv(
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
            .unwrap()
        };
        let legacy = run(KernelStrategy::RecordAtATime);
        let got = run(KernelStrategy::SortedRuns);
        for i in 0..legacy.rows() {
            for (a, b) in legacy.row(i).iter().zip(got.row(i)) {
                assert_eq!(a.to_bits(), b.to_bits(), "row {i}");
            }
        }
    }

    #[test]
    fn empty_mode_rows_are_zero() {
        let t = CooTensor::from_entries(vec![10, 4, 4], vec![(vec![0, 1, 2], 5.0)]).unwrap();
        let c = cluster();
        let rdd = tensor_to_rdd(&c, &t, 2);
        let factors = random_factors(t.shape(), 2, 5);
        let m = mttkrp_spmv(&c, &rdd, &factors, t.shape(), 0, &MttkrpOptions::default()).unwrap();
        assert_eq!(m.row(9), &[0.0, 0.0]);
        assert_ne!(m.row(0), &[0.0, 0.0]);
    }

    #[test]
    fn rejects_bad_config() {
        let t = RandomTensor::new(vec![4, 4, 4]).nnz(10).seed(1).build();
        let c = cluster();
        let rdd = tensor_to_rdd(&c, &t, 2);
        let factors = random_factors(t.shape(), 2, 1);
        assert!(mttkrp_spmv(
            &c,
            &rdd,
            &factors[..2],
            t.shape(),
            0,
            &MttkrpOptions::default()
        )
        .is_err());
        assert!(mttkrp_spmv(&c, &rdd, &factors, t.shape(), 5, &MttkrpOptions::default()).is_err());
    }
}
