//! Factor matrices as distributed row datasets.
//!
//! The paper stores factor matrices as Spark `IndexedRowMatrix` — an RDD of
//! `(row index, row vector)` records (Table 3). These helpers move factor
//! matrices between the driver (dense form, for grams and normal-equation
//! solves) and the cluster (row-RDD form, for joins against tensor keys).

use crate::records::{CooRecord, Coord, Row};
use cstf_dataflow::prelude::*;
use cstf_tensor::{CooTensor, DenseMatrix};

/// Distributes a factor matrix as an RDD of `(row_index, row)` records
/// (the paper's `IndexedRowMatrix`).
///
/// With `partitioner: None` the rows are split into `partitions` even
/// chunks and any downstream join shuffles them. With `Some(p)` the rows
/// are hash-bucketed by `p` on the driver and the RDD carries `p` as
/// provenance, so a join over `p`'s partition count turns the factor
/// side into a narrow (zero-shuffle) dependency; `partitions` is
/// ignored. Row order within each bucket matches what a shuffle of the
/// unpartitioned variant would deliver, so downstream results stay
/// bit-identical either way.
pub fn factor_to_rdd(
    cluster: &Cluster,
    factor: &DenseMatrix,
    partitions: usize,
    partitioner: Option<HashPartitioner>,
) -> Rdd<(u32, Row)> {
    let rows: Vec<(u32, Row)> = factor
        .rows_iter()
        .enumerate()
        .map(|(i, row)| (i as u32, row.into()))
        .collect();
    match partitioner {
        Some(p) => cluster.parallelize_by_key(rows, p),
        None => cluster.parallelize(rows, partitions),
    }
}

/// Assembles collected `(row_index, row)` records into a dense `extent × rank`
/// matrix. Missing rows (indices with no tensor nonzeros) stay zero —
/// exactly what MTTKRP produces for empty slices.
pub(crate) fn rows_to_matrix(rows: Vec<(u32, Row)>, extent: usize, rank: usize) -> DenseMatrix {
    let mut m = DenseMatrix::zeros(extent, rank);
    for (i, row) in rows {
        debug_assert_eq!(row.len(), rank);
        m.row_mut(i as usize).copy_from_slice(&row);
    }
    m
}

/// Distributes a sparse tensor as an RDD of [`CooRecord`]s — the paper's
/// `RDD[Vector]` representation of `X` (Table 3).
///
/// The record construction is a lineage `map` step (mirroring Spark's
/// parse of HDFS text into tuples), so an *uncached* tensor RDD pays the
/// re-parse on every reuse — the cost the paper's §4.1 caching discussion
/// avoids, and which the engine's `records_computed` metric captures.
pub fn tensor_to_rdd(cluster: &Cluster, tensor: &CooTensor, partitions: usize) -> Rdd<CooRecord> {
    let raw: Vec<(Coord, f64)> = tensor
        .iter()
        .map(|(coord, val)| (coord.into(), val))
        .collect();
    cluster
        .parallelize(raw, partitions)
        .map(|(coord, val)| CooRecord { coord, val })
}

/// Distributes a sparse tensor keyed by `coord[key_mode]` — the
/// `pre_partition(mode)` variant of [`tensor_to_rdd`].
///
/// With `partitioner: Some(p)` the entries are hash-bucketed by `p` on
/// the driver (and `partitions` is ignored); when the first join of an
/// MTTKRP targets `key_mode` over `p`'s partition count, the tensor side
/// of that join is narrow too, removing the one remaining tensor-sized
/// shuffle of stage 1 (what a plan at
/// [`crate::Partitioning::PrePartitionedTensor`] caches). With `None` the
/// keyed entries are split into `partitions` even chunks and the first
/// join shuffles them as usual.
pub(crate) fn tensor_to_rdd_keyed(
    cluster: &Cluster,
    tensor: &CooTensor,
    key_mode: usize,
    partitions: usize,
    partitioner: Option<HashPartitioner>,
) -> Rdd<(u32, CooRecord)> {
    assert!(key_mode < tensor.order(), "key mode out of range");
    let raw: Vec<(u32, (Coord, f64))> = tensor
        .iter()
        .map(|(coord, val)| (coord[key_mode], (coord.into(), val)))
        .collect();
    let keyed = match partitioner {
        Some(p) => cluster.parallelize_by_key(raw, p),
        None => cluster.parallelize(raw, partitions),
    };
    keyed.map_values(|(coord, val)| CooRecord { coord, val })
}

/// Serialized size of a COO tensor on distributed storage: `N` u32 indices
/// plus one f64 per nonzero. Used by the Hadoop platform model when
/// charging HDFS reads.
pub(crate) fn tensor_storage_bytes(nnz: usize, order: usize) -> u64 {
    (nnz * (order * 4 + 8)) as u64
}

#[cfg(test)]
mod tests {
    use super::*;
    use cstf_dataflow::ClusterConfig;
    use cstf_tensor::random::RandomTensor;

    fn cluster() -> Cluster {
        Cluster::new(ClusterConfig::local(2).nodes(2))
    }

    #[test]
    fn factor_roundtrip() {
        let c = cluster();
        let m = DenseMatrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0], &[5.0, 6.0]]);
        let rdd = factor_to_rdd(&c, &m, 2, None);
        assert_eq!(rdd.count(), 3);
        let back = rows_to_matrix(rdd.collect(), 3, 2);
        assert_eq!(back, m);
    }

    #[test]
    fn partitioned_factor_carries_provenance() {
        let c = cluster();
        let m = DenseMatrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0], &[5.0, 6.0]]);
        let p = HashPartitioner::new(2);
        let rdd = factor_to_rdd(&c, &m, 7, Some(p));
        // `partitions` is ignored: the partitioner decides the layout.
        assert_eq!(rdd.num_partitions(), 2);
        assert_eq!(rdd.partitioner(), Some(p));
        let back = rows_to_matrix(rdd.collect(), 3, 2);
        assert_eq!(back, m);
    }

    #[test]
    fn rows_to_matrix_zero_fills_missing() {
        let rows: Vec<(u32, Row)> = vec![(2, vec![7.0, 8.0].into_boxed_slice())];
        let m = rows_to_matrix(rows, 4, 2);
        assert_eq!(m.row(0), &[0.0, 0.0]);
        assert_eq!(m.row(2), &[7.0, 8.0]);
        assert_eq!(m.row(3), &[0.0, 0.0]);
    }

    #[test]
    fn tensor_rdd_preserves_entries() {
        let c = cluster();
        let t = RandomTensor::new(vec![10, 10, 10]).nnz(50).seed(1).build();
        let rdd = tensor_to_rdd(&c, &t, 4);
        let collected = rdd.collect();
        assert_eq!(collected.len(), 50);
        for (z, rec) in collected.iter().enumerate() {
            assert_eq!(&*rec.coord, t.coord(z));
            assert_eq!(rec.val, t.value(z));
        }
    }

    #[test]
    fn keyed_tensor_matches_flat_tensor() {
        let c = cluster();
        let t = RandomTensor::new(vec![10, 10, 10]).nnz(50).seed(2).build();
        let keyed = tensor_to_rdd_keyed(&c, &t, 1, 4, None).collect();
        assert_eq!(keyed.len(), 50);
        for (k, rec) in &keyed {
            assert_eq!(*k, rec.coord[1]);
        }
    }

    #[test]
    fn storage_bytes_formula() {
        // 3rd order: 3·4 + 8 = 20 bytes per nonzero.
        assert_eq!(tensor_storage_bytes(100, 3), 2000);
        assert_eq!(tensor_storage_bytes(10, 4), 240);
    }
}
