//! Key-value record types (Table 3 of the paper).
//!
//! | Dataset | Spark RDD element (paper)                                   | Here |
//! |---------|-------------------------------------------------------------|------|
//! | `X`     | `(i, j, k, X(i,j,k))`                                        | [`CooRecord`] |
//! | `X_Q`   | `((i, j, k, X(i,j,k)), Queue(A(i,:), B(j,:), …))`            | [`QRecord`] |
//! | `A,B,C` | `IndexedRowMatrix` row: `(index, A(index,:))`                | `(u32, Row)` |

use cstf_dataflow::kernel::pool;
use cstf_dataflow::prelude::*;
use std::collections::VecDeque;

/// One dense factor-matrix row (length `R`).
pub type Row = Box<[f64]>;

/// One tensor nonzero in COO form: coordinate plus value.
#[derive(Debug, Clone, PartialEq)]
pub struct CooRecord {
    /// Mode indices `(i₁, …, i_N)`.
    pub coord: Box<[u32]>,
    /// Nonzero value `X(i₁, …, i_N)`.
    pub val: f64,
}

impl CooRecord {
    /// Builds a record from a coordinate slice and value.
    pub fn new(coord: &[u32], val: f64) -> Self {
        CooRecord {
            coord: coord.into(),
            val,
        }
    }

    /// Tensor order.
    pub fn order(&self) -> usize {
        self.coord.len()
    }
}

impl EstimateSize for CooRecord {
    fn estimate_size(&self) -> usize {
        self.coord.estimate_size() + 8
    }
}

/// A QCOO record: one nonzero plus its FIFO queue of factor rows
/// (paper §4.2). The queue holds `N − 1` rows; each MTTKRP enqueues the
/// freshly joined row and dequeues the stalest one ("a dequeue operation is
/// performed which drops the oldest vector from the queue").
#[derive(Debug, Clone, PartialEq)]
pub struct QRecord {
    /// The tensor nonzero.
    pub entry: CooRecord,
    /// FIFO queue of factor rows, oldest first.
    pub queue: VecDeque<Row>,
}

impl QRecord {
    /// Wraps a nonzero with an empty queue.
    pub fn new(entry: CooRecord) -> Self {
        QRecord {
            entry,
            queue: VecDeque::new(),
        }
    }

    /// Enqueues `row` and drops the oldest row, keeping the queue at
    /// `capacity` entries. Rows are only dropped once the queue is full,
    /// so initialization can grow the queue without losses. Dropped rows
    /// are recycled into the kernel row arena.
    pub fn rotate(&mut self, row: Row, capacity: usize) {
        self.queue.push_back(row);
        while self.queue.len() > capacity {
            if let Some(stale) = self.queue.pop_front() {
                pool::give_row(stale);
            }
        }
    }

    /// Reduces the queue: Hadamard product of all queued rows scaled by the
    /// tensor value — the `mapValues` of STAGE 3 in Table 2
    /// (`B(j,:) ∗ C(k,:) ∗ X(i,j,k)`). The output row comes from the
    /// kernel row arena and is fully overwritten (`fill(val)`, then the
    /// in-order multiplies), so stale contents never leak.
    pub fn reduce_queue(&self, rank: usize) -> Row {
        let mut acc = pool::take_row(rank);
        acc.fill(self.entry.val);
        for row in &self.queue {
            debug_assert_eq!(row.len(), rank);
            for (a, &r) in acc.iter_mut().zip(row.iter()) {
                *a *= r;
            }
        }
        acc
    }
}

impl EstimateSize for QRecord {
    fn estimate_size(&self) -> usize {
        self.entry.estimate_size() + self.queue.estimate_size()
    }
}

/// Element-wise product of two rows through the kernel row arena: the
/// output buffer comes from the pool (fully overwritten, so stale contents
/// never leak) and both consumed inputs are recycled into it.
pub fn hadamard_rows(a: Row, b: Row) -> Row {
    debug_assert_eq!(a.len(), b.len());
    let mut out = pool::take_row(a.len());
    for ((o, &x), &y) in out.iter_mut().zip(a.iter()).zip(b.iter()) {
        *o = x * y;
    }
    pool::give_row(a);
    pool::give_row(b);
    out
}

/// [`cstf_dataflow::kernel::KernelOps`] for `Row` accumulation with
/// [`add_rows`] semantics: an arena-backed accumulator seed (bitwise copy
/// of the run's first row), the same in-place element-wise add, and pool
/// recycling of rows consumed by owned combines.
pub fn row_kernel_ops() -> KernelOps<Row> {
    KernelOps::new(|acc: &mut Row, b: &Row| {
        debug_assert_eq!(acc.len(), b.len());
        for (x, y) in acc.iter_mut().zip(b.iter()) {
            *x += y;
        }
    })
    .with_lift(|r: &Row| {
        let mut out = pool::take_row(r.len());
        out.copy_from_slice(r);
        out
    })
    .with_recycle(pool::give_row)
}

/// Element-wise sum of two rows (the `reduceByKey` combiner).
// The combiner contract is `Fn(V, V) -> V` with `V = Row`, so `b` must be
// taken by value even though it is only read.
#[allow(clippy::boxed_local)]
pub fn add_rows(mut a: Row, b: Row) -> Row {
    debug_assert_eq!(a.len(), b.len());
    for (x, y) in a.iter_mut().zip(b.iter()) {
        *x += y;
    }
    a
}

/// Scales a row by `s` in place and returns it.
pub fn scale_row(mut r: Row, s: f64) -> Row {
    for x in r.iter_mut() {
        *x *= s;
    }
    r
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec() -> CooRecord {
        CooRecord::new(&[1, 2, 3], 2.0)
    }

    #[test]
    fn coo_record_basics() {
        let r = rec();
        assert_eq!(r.order(), 3);
        assert_eq!(r.coord.as_ref(), &[1, 2, 3]);
        assert_eq!(r.val, 2.0);
        // coord: 4 + 12, val: 8
        assert_eq!(r.estimate_size(), 24);
    }

    #[test]
    fn qrecord_rotation_fifo() {
        let mut q = QRecord::new(rec());
        let row = |v: f64| vec![v, v].into_boxed_slice();
        q.rotate(row(1.0), 2);
        q.rotate(row(2.0), 2);
        assert_eq!(q.queue.len(), 2);
        q.rotate(row(3.0), 2);
        assert_eq!(q.queue.len(), 2);
        // Oldest (1.0) dropped; order preserved.
        assert_eq!(q.queue[0].as_ref(), &[2.0, 2.0]);
        assert_eq!(q.queue[1].as_ref(), &[3.0, 3.0]);
    }

    #[test]
    fn qrecord_grows_until_capacity() {
        let mut q = QRecord::new(rec());
        q.rotate(vec![1.0].into_boxed_slice(), 3);
        assert_eq!(q.queue.len(), 1);
    }

    #[test]
    fn reduce_queue_hadamard_times_value() {
        let mut q = QRecord::new(rec()); // val = 2.0
        q.rotate(vec![3.0, 4.0].into_boxed_slice(), 2);
        q.rotate(vec![5.0, 6.0].into_boxed_slice(), 2);
        let out = q.reduce_queue(2);
        assert_eq!(out.as_ref(), &[2.0 * 3.0 * 5.0, 2.0 * 4.0 * 6.0]);
    }

    #[test]
    fn reduce_queue_empty_is_value_vector() {
        let q = QRecord::new(rec());
        assert_eq!(q.reduce_queue(3).as_ref(), &[2.0, 2.0, 2.0]);
    }

    #[test]
    fn qrecord_size_matches_paper_intermediate_data() {
        // QCOO intermediate data is (N−1)·R doubles per nonzero plus the
        // entry itself (Table 4: 2·nnz·R for N = 3).
        let mut q = QRecord::new(rec());
        let r = 4usize;
        q.rotate(vec![0.0; r].into_boxed_slice(), 2);
        q.rotate(vec![0.0; r].into_boxed_slice(), 2);
        let row_bytes = 4 + 8 * r;
        assert_eq!(q.estimate_size(), 24 + 4 + 2 * row_bytes);
    }

    #[test]
    fn row_helpers() {
        let a: Row = vec![1.0, 2.0].into_boxed_slice();
        let b: Row = vec![3.0, 4.0].into_boxed_slice();
        assert_eq!(hadamard_rows(a.clone(), b.clone()).as_ref(), &[3.0, 8.0]);
        assert_eq!(add_rows(a.clone(), b).as_ref(), &[4.0, 6.0]);
        assert_eq!(scale_row(a, 2.0).as_ref(), &[2.0, 4.0]);
    }
}
