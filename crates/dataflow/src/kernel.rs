//! Raw-speed task kernels: sorted-runs combining over SoA tiles.
//!
//! The record-at-a-time combine path ([`crate::rdd::Rdd::reduce_by_key`])
//! clones every fetched record out of its shared shuffle bucket and folds
//! it through a per-key hash-map probe — `O(nnz)` allocations and `O(nnz)`
//! cache-hostile lookups per reduce task. The kernel layer replaces that
//! inner loop for callers that opt in via
//! [`crate::rdd::Rdd::reduce_by_key_kernel`]:
//!
//! * **SoA sorted tile** — the partition's records are viewed as parallel
//!   `keys`/`values` arrays and a permutation sorted *stably* by key, so
//!   each distinct key's records form one contiguous run. Combining walks
//!   runs linearly instead of probing a hash map per record.
//! * **Run combining** — the first record of a run seeds the accumulator
//!   (one allocation per *distinct key*); the rest are merged in place by
//!   reference, straight out of the shared (`Arc`) shuffle buckets — no
//!   per-record clone.
//!
//! # Determinism
//!
//! Every kernel path replays the record-at-a-time within-key op sequence
//! exactly: the stable sort preserves arrival order inside each run, the
//! first record seeds the accumulator (as the hash map's vacant-entry
//! insert does), and later records merge in arrival order (as occupied
//! entries do). Only the *emit order* of distinct keys changes (sorted
//! instead of hash order), which is why the kernel is opt-in: callers must
//! consume the output order-insensitively (`reduceByKey` feeding an
//! index-addressed matrix assembly does).

use crate::metrics::Counters;
use std::cmp::Ordering;
use std::sync::Arc;

/// Which combine kernel a `reduceByKey`-style operation runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum KernelStrategy {
    /// The hash-map path: clone every record, probe per record. Kept as
    /// the oracle the sorted kernel is proven bit-identical against.
    RecordAtATime,
    /// Sorted-runs SoA kernel (default): stable-sorted tile, one
    /// accumulator allocation per distinct key, in-place merges.
    #[default]
    SortedRuns,
}

/// Erased in-place merge: `merge(accumulator, record)`.
pub(crate) type MergeFn<C> = Arc<dyn Fn(&mut C, &C) + Send + Sync>;

/// Erased key comparator, captured where `K: Ord` is known.
pub(crate) type CmpFn<K> = Arc<dyn Fn(&K, &K) -> Ordering + Send + Sync>;

/// The one type-specific operation a sorted-runs kernel needs beyond
/// `Clone` (which seeds each run's accumulator): merging a borrowed
/// record into an accumulator in place.
pub struct KernelOps<C> {
    pub(crate) merge_in_place: MergeFn<C>,
}

impl<C> Clone for KernelOps<C> {
    fn clone(&self) -> Self {
        KernelOps {
            merge_in_place: self.merge_in_place.clone(),
        }
    }
}

impl<C> KernelOps<C> {
    /// Ops with the given in-place merge.
    ///
    /// `merge_in_place(acc, rec)` must perform exactly the same
    /// floating-point operations, in the same order, as the owning reduce
    /// function `f(acc, rec)` the caller passes alongside — that is the
    /// bit-identity contract of the sorted kernels.
    pub fn new(merge_in_place: impl Fn(&mut C, &C) + Send + Sync + 'static) -> Self {
        KernelOps {
            merge_in_place: Arc::new(merge_in_place),
        }
    }
}

/// A fully-resolved sorted-runs kernel for one shuffle: an erased key
/// comparator (captured where `K: Ord` is known, so the generic RDD nodes
/// need no extra bounds), and the combiner ops.
pub(crate) struct KernelPlan<K, C> {
    pub(crate) cmp: CmpFn<K>,
    pub(crate) ops: KernelOps<C>,
}

impl<K, C> KernelPlan<K, C> {
    /// Builds a plan, capturing `K: Ord` into the erased comparator.
    pub(crate) fn new(ops: KernelOps<C>) -> Self
    where
        K: Ord + 'static,
    {
        KernelPlan {
            cmp: Arc::new(|a: &K, b: &K| a.cmp(b)),
            ops,
        }
    }
}

/// Walks the sorted permutation and yields `[start, end)` run bounds.
fn run_end<K, C>(plan: &KernelPlan<K, C>, keys: &[K], order: &[u32], start: usize) -> usize {
    let first = &keys[order[start] as usize];
    let mut end = start + 1;
    while end < order.len() && (plan.cmp)(&keys[order[end] as usize], first) == Ordering::Equal {
        end += 1;
    }
    end
}

/// Sorted-runs combine over *shared* shuffle buckets (the reduce side).
///
/// Only the first record of each run is cloned into an owned accumulator;
/// every other record merges by reference straight out of the `Arc`'d
/// buckets — `O(distinct keys)` allocations instead of the legacy path's
/// `O(records)` clone-out. Output is in ascending key order.
pub(crate) fn combine_fetched<K: Clone, C: Clone>(
    plan: &KernelPlan<K, C>,
    buckets: &[Arc<Vec<(K, C)>>],
) -> (Vec<(K, C)>, Counters) {
    let total: usize = buckets.iter().map(|b| b.len()).sum();
    assert!(
        total <= u32::MAX as usize,
        "partition too large for kernel tile"
    );
    // SoA tile: keys in a flat array (small index types — cheap to clone),
    // values referenced in place inside the shared buckets.
    let mut keys: Vec<K> = Vec::with_capacity(total);
    let mut vals: Vec<&C> = Vec::with_capacity(total);
    for bucket in buckets {
        for (k, c) in bucket.iter() {
            keys.push(k.clone());
            vals.push(c);
        }
    }
    // Stable sort: ties keep arrival (bucket-scan) order, so within-key
    // accumulation replays the record-at-a-time op sequence exactly.
    let mut order: Vec<u32> = (0..total as u32).collect();
    order.sort_by(|&a, &b| (plan.cmp)(&keys[a as usize], &keys[b as usize]));

    let mut counters = Counters {
        kernel_max_subtask_records: total as u64,
        ..Counters::default()
    };
    let mut out: Vec<(K, C)> = Vec::new();
    let mut i = 0usize;
    while i < total {
        let j = run_end(plan, &keys, &order, i);
        let first = order[i] as usize;
        let mut acc = vals[first].clone();
        for &o in &order[i + 1..j] {
            (plan.ops.merge_in_place)(&mut acc, vals[o as usize]);
        }
        out.push((keys[first].clone(), acc));
        counters.kernel_runs += 1;
        i = j;
    }
    (out, counters)
}

/// Sorted-runs combine over *owned* records (map-side combine and the
/// narrow, co-partitioned reduce path).
///
/// The first record of each run *becomes* the accumulator (zero extra
/// allocations); the others are dropped once merged. Output is in
/// ascending key order.
pub(crate) fn combine_owned<K: Clone, C>(
    plan: &KernelPlan<K, C>,
    data: Vec<(K, C)>,
) -> (Vec<(K, C)>, Counters) {
    let total = data.len();
    assert!(
        total <= u32::MAX as usize,
        "partition too large for kernel tile"
    );
    let keys: Vec<K> = data.iter().map(|(k, _)| k.clone()).collect();
    let mut order: Vec<u32> = (0..total as u32).collect();
    order.sort_by(|&a, &b| (plan.cmp)(&keys[a as usize], &keys[b as usize]));

    let mut slots: Vec<Option<(K, C)>> = data.into_iter().map(Some).collect();
    let mut counters = Counters {
        kernel_max_subtask_records: total as u64,
        ..Counters::default()
    };
    let mut out: Vec<(K, C)> = Vec::new();
    let mut i = 0usize;
    while i < total {
        let j = run_end(plan, &keys, &order, i);
        let (k, mut acc) = slots[order[i] as usize].take().expect("record taken once");
        for &o in &order[i + 1..j] {
            let (_, c) = slots[o as usize].take().expect("record taken once");
            (plan.ops.merge_in_place)(&mut acc, &c);
        }
        out.push((k, acc));
        counters.kernel_runs += 1;
        i = j;
    }
    (out, counters)
}

pub mod pool {
    //! What is left of the row arena: a stub that always reports no reuse.
    //!
    //! Rows are plain allocations everywhere, so nothing is pooled. The two
    //! functions stay only because the benchmark harness (`perf/`) calls
    //! them by path to report `dataflow.kernel.arena_hit_rate`; they go
    //! with that metric.

    /// Process-wide `(hits, misses)` of the row arena: always `(0, 0)`.
    pub fn total_stats() -> (u64, u64) {
        (0, 0)
    }

    /// Resets the row arena's counters: does nothing.
    pub fn reset_total_stats() {}
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hash::FxHashMap;

    fn plan() -> KernelPlan<u32, f64> {
        KernelPlan::new(KernelOps::new(|a: &mut f64, b: &f64| *a += b))
    }

    /// Record-at-a-time reference: hash-map fold in arrival order.
    fn reference(data: &[(u32, f64)]) -> FxHashMap<u32, f64> {
        let mut m: FxHashMap<u32, f64> = FxHashMap::default();
        for &(k, v) in data {
            match m.entry(k) {
                std::collections::hash_map::Entry::Occupied(mut e) => {
                    let prev = *e.get();
                    e.insert(prev + v);
                }
                std::collections::hash_map::Entry::Vacant(e) => {
                    e.insert(v);
                }
            }
        }
        m
    }

    #[test]
    fn within_key_accumulation_preserves_arrival_order() {
        // f64 addition is order-sensitive: 1.0 + 1e16 − 1e16 = 0.0 in
        // arrival order, but −1e16 + 1e16 + 1.0 = 1.0 reversed. The kernel
        // must replay arrival order exactly.
        let data = vec![(7u32, 1.0f64), (7, 1e16), (7, -1e16)];
        let (out, c) = combine_owned(&plan(), data.clone());
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].0, 7);
        assert_eq!(out[0].1.to_bits(), 0.0f64.to_bits());
        assert_eq!(c.kernel_runs, 1);
        // The reversed fold really does differ — the assertion above is
        // pinning an order, not an algebraic identity.
        let reversed: f64 = -1e16 + 1e16 + 1.0;
        assert_ne!(reversed.to_bits(), out[0].1.to_bits());

        // Same through the fetched (shared-bucket) path, split across
        // map buckets the way a shuffle would deliver them.
        let buckets = vec![
            Arc::new(vec![(7u32, 1.0f64)]),
            Arc::new(vec![(7u32, 1e16), (7, -1e16)]),
        ];
        let (out, _) = combine_fetched(&plan(), &buckets);
        assert_eq!(out[0].1.to_bits(), 0.0f64.to_bits());
    }

    #[test]
    fn combine_matches_record_at_a_time_reference() {
        // Pseudo-random keys with sum-order-sensitive values.
        let mut data = Vec::new();
        let mut x = 1u64;
        for i in 0..500 {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let k = (x >> 33) as u32 % 37;
            let v = if i % 3 == 0 {
                1e16
            } else {
                (i as f64) * 0.1 - 8.0
            };
            data.push((k, v));
        }
        let expect = reference(&data);
        let (out, c) = combine_owned(&plan(), data.clone());
        assert_eq!(out.len(), expect.len());
        assert_eq!(c.kernel_runs as usize, expect.len());
        assert_eq!(c.kernel_max_subtask_records, 500);
        for (k, v) in &out {
            assert_eq!(v.to_bits(), expect[k].to_bits(), "key {k}");
        }
        // Sorted emit order.
        assert!(out.windows(2).all(|w| w[0].0 < w[1].0));

        let buckets: Vec<Arc<Vec<(u32, f64)>>> =
            data.chunks(123).map(|c| Arc::new(c.to_vec())).collect();
        let (fetched, c) = combine_fetched(&plan(), &buckets);
        assert_eq!(c.kernel_max_subtask_records, 500);
        assert_eq!(fetched.len(), out.len());
        for ((k1, v1), (k2, v2)) in fetched.iter().zip(&out) {
            assert_eq!(k1, k2);
            assert_eq!(v1.to_bits(), v2.to_bits());
        }
    }

    #[test]
    fn empty_input_combines_to_nothing() {
        let (out, c) = combine_owned(&plan(), Vec::new());
        assert!(out.is_empty());
        assert_eq!(c, Counters::default());
        let (out, c) = combine_fetched(&plan(), &[]);
        assert!(out.is_empty());
        assert_eq!(c, Counters::default());
    }
}
