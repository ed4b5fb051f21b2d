//! Key-value record types (Table 3 of the paper).
//!
//! | Dataset | Spark RDD element (paper)                                   | Here |
//! |---------|-------------------------------------------------------------|------|
//! | `X`     | `(i, j, k, X(i,j,k))`                                        | [`CooRecord`] |
//! | `X_Q`   | `((i, j, k, X(i,j,k)), Queue(A(i,:), B(j,:), …))`            | [`QRecord`] |
//! | `A,B,C` | `IndexedRowMatrix` row: `(index, A(index,:))`                | `(u32, Row)` |
//!
//! **What a record owns.** Every stage boundary deep-copies its records
//! (cache hit, shuffle read, cache put), so the number of heap blocks a
//! record owns is paid several times per nonzero per MTTKRP. A
//! [`CooRecord`] owns none: its [`Coord`] holds up to
//! [`Coord::INLINE`] indices in place (boxed only above that), so cloning
//! a tensor partition is one allocation and a flat copy. A [`QRecord`]
//! owns exactly one: its queue is a private contiguous stripe of
//! `(N−1)·R` doubles rotated by index, not a deque of boxed rows. A
//! factor [`Row`] stays a `Box<[f64]>`: rows travel alone through the
//! joins and reduces as the *value* of a pair, their length `R` is only
//! known at run time, and the kernel arena ([`pool`]) recycles exactly
//! that box type.

use cstf_dataflow::kernel::pool;
use cstf_dataflow::prelude::*;
use cstf_dataflow::size::LEN_WORD;

/// One dense factor-matrix row (length `R`).
pub type Row = Box<[f64]>;

/// The mode indices `(i₁, …, i_N)` of one nonzero: a small vector that
/// stores up to [`Coord::INLINE`] indices in place and falls back to a
/// heap slice above that, so no tensor order is lost. Reads go through
/// `Deref<Target = [u32]>`.
#[derive(Clone)]
pub struct Coord(CoordRepr);

#[derive(Clone)]
enum CoordRepr {
    Inline { len: u8, idx: [u32; Coord::INLINE] },
    Heap(Box<[u32]>),
}

impl Coord {
    /// Highest tensor order whose coordinates are stored without a heap
    /// block.
    pub const INLINE: usize = 7;
}

impl From<&[u32]> for Coord {
    fn from(coord: &[u32]) -> Self {
        if coord.len() > Coord::INLINE {
            return Coord(CoordRepr::Heap(coord.into()));
        }
        let mut idx = [0u32; Coord::INLINE];
        idx[..coord.len()].copy_from_slice(coord);
        Coord(CoordRepr::Inline {
            len: coord.len() as u8,
            idx,
        })
    }
}

impl std::ops::Deref for Coord {
    type Target = [u32];

    #[inline]
    fn deref(&self) -> &[u32] {
        match &self.0 {
            CoordRepr::Inline { len, idx } => &idx[..usize::from(*len)],
            CoordRepr::Heap(idx) => idx,
        }
    }
}

impl PartialEq for Coord {
    fn eq(&self, other: &Self) -> bool {
        **self == **other
    }
}

impl std::fmt::Debug for Coord {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        (**self).fmt(f)
    }
}

impl EstimateSize for Coord {
    fn estimate_size(&self) -> usize {
        LEN_WORD + 4 * self.len()
    }
}

/// One tensor nonzero in COO form: coordinate plus value.
#[derive(Debug, Clone, PartialEq)]
pub struct CooRecord {
    /// Mode indices `(i₁, …, i_N)`.
    pub coord: Coord,
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
///
/// The queue is one contiguous stripe of `capacity · R` doubles, allocated
/// by the first [`QRecord::rotate`] and reused for the record's life: slot
/// `s` is `stripe[s·R..(s+1)·R]`, the logical queue is the `len` slots
/// starting at `head`, wrapping. Equality and `Debug` see the logical
/// queue only, never the rotation.
#[derive(Clone)]
pub struct QRecord {
    /// The tensor nonzero.
    pub entry: CooRecord,
    stripe: Box<[f64]>,
    /// Row length `R` and slot count of the stripe (both 0 until the first
    /// rotation sizes it).
    width: u32,
    slots: u32,
    /// Slot of the oldest queued row, and how many rows are queued.
    head: u32,
    len: u32,
}

impl QRecord {
    /// Wraps a nonzero with an empty queue.
    pub fn new(entry: CooRecord) -> Self {
        QRecord {
            entry,
            stripe: Box::default(),
            width: 0,
            slots: 0,
            head: 0,
            len: 0,
        }
    }

    /// Enqueues `row` and drops the oldest row, keeping the queue at
    /// `capacity` entries. Rows are only dropped once the queue is full,
    /// so initialization can grow the queue without losses. The row's
    /// values are copied over the stalest slot and its buffer is recycled
    /// into the kernel row arena.
    ///
    /// # Panics
    ///
    /// If `capacity` or the row length differs from the first rotation's:
    /// the stripe is sized once.
    pub fn rotate(&mut self, row: Row, capacity: usize) {
        if capacity == 0 {
            pool::give_row(row);
            return;
        }
        if self.slots == 0 {
            self.stripe = vec![0.0; capacity * row.len()].into_boxed_slice();
            self.width = u32::try_from(row.len()).expect("row length fits u32");
            self.slots = u32::try_from(capacity).expect("queue capacity fits u32");
        }
        assert!(
            row.len() == self.width as usize && capacity == self.slots as usize,
            "queue capacity or row length changed between rotations"
        );
        // `head` stays 0 until the queue first fills, so the next free
        // slot is `len`; from then on the row replaces the stalest one.
        let slot = if self.len < self.slots {
            self.len += 1;
            self.len - 1
        } else {
            let stalest = self.head;
            self.head = self.slot_of(1);
            stalest
        };
        let width = self.width as usize;
        self.stripe[slot as usize * width..][..width].copy_from_slice(&row);
        pool::give_row(row);
    }

    /// The stripe slot holding the `i`-th queued row (`i ≤ slots`).
    fn slot_of(&self, i: u32) -> u32 {
        let slot = self.head + i;
        if slot >= self.slots {
            slot - self.slots
        } else {
            slot
        }
    }

    /// Rows currently queued.
    pub fn queue_len(&self) -> usize {
        self.len as usize
    }

    /// The `i`-th queued row, oldest first.
    ///
    /// # Panics
    ///
    /// If `i >= self.queue_len()`.
    pub fn queue_row(&self, i: usize) -> &[f64] {
        assert!(i < self.queue_len(), "queue row {i} out of range");
        let width = self.width as usize;
        &self.stripe[self.slot_of(i as u32) as usize * width..][..width]
    }

    fn queue_rows(&self) -> impl Iterator<Item = &[f64]> {
        (0..self.queue_len()).map(|i| self.queue_row(i))
    }

    /// Reduces the queue: Hadamard product of all queued rows, oldest
    /// first, scaled by the tensor value — the `mapValues` of STAGE 3 in
    /// Table 2 (`B(j,:) ∗ C(k,:) ∗ X(i,j,k)`). The output row comes from
    /// the kernel row arena and is fully overwritten (`fill(val)`, then the
    /// in-order multiplies), so stale contents never leak.
    pub fn reduce_queue(&self, rank: usize) -> Row {
        let mut acc = pool::take_row(rank);
        acc.fill(self.entry.val);
        for row in self.queue_rows() {
            debug_assert_eq!(row.len(), rank);
            for (a, &r) in acc.iter_mut().zip(row) {
                *a *= r;
            }
        }
        acc
    }
}

impl PartialEq for QRecord {
    fn eq(&self, other: &Self) -> bool {
        self.entry == other.entry && self.queue_rows().eq(other.queue_rows())
    }
}

impl std::fmt::Debug for QRecord {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("QRecord")
            .field("entry", &self.entry)
            .field("queue", &self.queue_rows().collect::<Vec<_>>())
            .finish()
    }
}

/// Arithmetic, not a traversal: the flat encoding of the entry, a length
/// word, and per queued row a length word plus `R` doubles — what a
/// `VecDeque<Row>` of the same rows would report.
impl EstimateSize for QRecord {
    fn estimate_size(&self) -> usize {
        self.entry.estimate_size()
            + LEN_WORD
            + self.queue_len() * (LEN_WORD + 8 * self.width as usize)
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
    use proptest::prelude::*;
    use std::collections::VecDeque;

    fn rec() -> CooRecord {
        CooRecord::new(&[1, 2, 3], 2.0)
    }

    #[test]
    fn coo_record_basics() {
        let r = rec();
        assert_eq!(r.order(), 3);
        assert_eq!(&*r.coord, &[1, 2, 3]);
        assert_eq!(r.val, 2.0);
        // coord: 4 + 12, val: 8
        assert_eq!(r.estimate_size(), 24);
        assert!(std::mem::size_of::<CooRecord>() <= 48);
    }

    #[test]
    fn coord_falls_back_to_the_heap_above_inline_capacity() {
        for order in [0, 1, Coord::INLINE, Coord::INLINE + 1, 2 * Coord::INLINE] {
            let idx: Vec<u32> = (0..order as u32).map(|i| i * 3 + 1).collect();
            let r = CooRecord::new(&idx, 1.5);
            assert_eq!(&*r.coord, &idx[..], "order {order}");
            assert_eq!(r.clone(), r);
            assert_eq!(r.estimate_size(), 4 + 4 * order + 8);
            assert_eq!(format!("{:?}", r.coord), format!("{idx:?}"));
        }
    }

    #[test]
    fn qrecord_rotation_fifo() {
        let mut q = QRecord::new(rec());
        let row = |v: f64| vec![v, v].into_boxed_slice();
        q.rotate(row(1.0), 2);
        q.rotate(row(2.0), 2);
        assert_eq!(q.queue_len(), 2);
        q.rotate(row(3.0), 2);
        assert_eq!(q.queue_len(), 2);
        // Oldest (1.0) dropped; order preserved.
        assert_eq!(q.queue_row(0), &[2.0, 2.0]);
        assert_eq!(q.queue_row(1), &[3.0, 3.0]);
    }

    #[test]
    fn qrecord_grows_until_capacity() {
        let mut q = QRecord::new(rec());
        q.rotate(vec![1.0].into_boxed_slice(), 3);
        assert_eq!(q.queue_len(), 1);
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
    fn qrecord_equality_ignores_the_rotation() {
        // Same logical queue [2, 3], reached with and without wrapping.
        let row = |v: f64| vec![v].into_boxed_slice();
        let mut wrapped = QRecord::new(rec());
        for v in [1.0, 2.0, 3.0] {
            wrapped.rotate(row(v), 2);
        }
        let mut straight = QRecord::new(rec());
        for v in [2.0, 3.0] {
            straight.rotate(row(v), 2);
        }
        assert_eq!(wrapped, straight);
        assert_eq!(format!("{wrapped:?}"), format!("{straight:?}"));
        straight.rotate(row(4.0), 2);
        assert_ne!(wrapped, straight);
    }

    #[test]
    fn row_helpers() {
        let a: Row = vec![1.0, 2.0].into_boxed_slice();
        let b: Row = vec![3.0, 4.0].into_boxed_slice();
        assert_eq!(hadamard_rows(a.clone(), b.clone()).as_ref(), &[3.0, 8.0]);
        assert_eq!(add_rows(a.clone(), b).as_ref(), &[4.0, 6.0]);
        assert_eq!(scale_row(a, 2.0).as_ref(), &[2.0, 4.0]);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// The stripe queue against the `VecDeque<Row>` it replaced, driven
        /// through the same rotations — partial fill, exact fill and several
        /// wrap-arounds: same rows in the same order, bit-equal reduction
        /// (same multiply order), same estimated size.
        #[test]
        fn stripe_queue_matches_the_deque_model(
            capacity in 1usize..=4,
            rank in 1usize..=8,
            rotations in 0usize..=13,
            values in prop::collection::vec(-1e3f64..1e3, 13 * 8),
        ) {
            let mut q = QRecord::new(rec());
            let mut model: VecDeque<Row> = VecDeque::new();
            for rotation in 0..rotations {
                let row: Row = values[rotation * 8..][..rank].into();
                model.push_back(row.clone());
                while model.len() > capacity {
                    model.pop_front();
                }
                q.rotate(row, capacity);

                prop_assert_eq!(q.queue_len(), model.len());
                for (i, expected) in model.iter().enumerate() {
                    prop_assert_eq!(q.queue_row(i), expected.as_ref());
                }
                let mut expected = vec![q.entry.val; rank];
                for row in &model {
                    for (a, &r) in expected.iter_mut().zip(row.iter()) {
                        *a *= r;
                    }
                }
                let reduced = q.reduce_queue(rank);
                for (a, b) in reduced.iter().zip(&expected) {
                    prop_assert_eq!(a.to_bits(), b.to_bits());
                }
                prop_assert_eq!(
                    q.estimate_size(),
                    q.entry.estimate_size() + model.estimate_size()
                );
            }
            if rotations >= capacity {
                prop_assert_eq!(q.estimate_size(), 24 + 4 + capacity * (4 + 8 * rank));
            }
        }
    }
}
