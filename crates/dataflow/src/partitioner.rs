//! Key partitioning for shuffles, plus the partitioner *provenance*
//! machinery that lets the scheduler recognize co-partitioned inputs.
//!
//! Spark's core optimization for iterative workloads is that an RDD
//! remembers the [`KeyPartitioner`] that produced it; a join whose input
//! already matches the requested partitioner needs no shuffle on that
//! side. [`PartitionerSig`] is the comparable identity of a partitioner
//! (two partitioners with equal signatures place every key identically)
//! and [`PartitionerRef`] is the type-erased handle an [`crate::Rdd`]
//! carries.

use crate::hash::fx_hash;
use std::hash::Hash;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Comparable identity of a partitioner.
///
/// Two partitioners whose signatures compare equal are guaranteed to map
/// every key to the same partition (and to have the same partition
/// count). `Unknown` never equals anything — including itself — so a
/// custom partitioner without a signature can never be mistaken for
/// co-partitioned.
#[derive(Debug, Clone, Copy)]
pub enum PartitionerSig {
    /// A [`HashPartitioner`] over `n` partitions. Hash partitioning is
    /// stateless, so the count alone identifies the placement.
    Hash(usize),
    /// A stateful partitioner (e.g. [`RangePartitioner`]) identified by a
    /// process-unique token: only clones of the *same instance* compare
    /// equal.
    Token {
        /// Process-unique instance token.
        token: u64,
        /// Number of partitions.
        count: usize,
    },
    /// No comparable identity; never equal to anything.
    Unknown,
}

impl PartialEq for PartitionerSig {
    fn eq(&self, other: &Self) -> bool {
        match (self, other) {
            (PartitionerSig::Hash(a), PartitionerSig::Hash(b)) => a == b,
            (
                PartitionerSig::Token {
                    token: a,
                    count: ca,
                },
                PartitionerSig::Token {
                    token: b,
                    count: cb,
                },
            ) => a == b && ca == cb,
            _ => false,
        }
    }
}

fn next_partitioner_token() -> u64 {
    static NEXT: AtomicU64 = AtomicU64::new(0);
    NEXT.fetch_add(1, Ordering::Relaxed)
}

/// Object-safe key-to-partition mapping used by shuffle dependencies.
pub trait KeyPartitioner<K>: Send + Sync {
    /// Target partition for `key`.
    fn partition_of(&self, key: &K) -> usize;
    /// Number of reduce partitions.
    fn partition_count(&self) -> usize;
    /// Comparable identity used for co-partitioning checks. The default
    /// (`Unknown`) is always safe: it just disables narrow-dependency
    /// scheduling for this partitioner.
    fn signature(&self) -> PartitionerSig {
        PartitionerSig::Unknown
    }
}

impl<K: Hash> KeyPartitioner<K> for HashPartitioner {
    fn partition_of(&self, key: &K) -> usize {
        self.partition(key)
    }
    fn partition_count(&self) -> usize {
        self.num_partitions()
    }
    fn signature(&self) -> PartitionerSig {
        PartitionerSig::Hash(self.num_partitions())
    }
}

/// Type-erased partitioner provenance carried by an [`crate::Rdd`].
///
/// Wraps an `Arc<dyn KeyPartitioner<K>>` behind `Any` so the non-generic
/// parts of the engine can store and compare it; pair operations recover
/// the typed partitioner with [`PartitionerRef::downcast`].
#[derive(Clone)]
pub struct PartitionerRef {
    sig: PartitionerSig,
    count: usize,
    typed: Arc<dyn std::any::Any + Send + Sync>,
}

impl PartitionerRef {
    /// Wraps a typed partitioner.
    pub fn of<K: 'static>(partitioner: Arc<dyn KeyPartitioner<K>>) -> Self {
        PartitionerRef {
            sig: partitioner.signature(),
            count: partitioner.partition_count(),
            typed: Arc::new(partitioner),
        }
    }

    /// The partitioner's comparable identity.
    pub fn sig(&self) -> PartitionerSig {
        self.sig
    }

    /// Number of partitions the partitioner produces.
    pub fn partition_count(&self) -> usize {
        self.count
    }

    /// Whether this provenance matches `other`: equal signatures mean
    /// identical key placement. `Unknown` signatures never match.
    pub(crate) fn matches(&self, other: &PartitionerSig) -> bool {
        self.sig == *other
    }

    /// Recovers the typed partitioner, if `K` is the key type it was
    /// created with.
    pub fn downcast<K: 'static>(&self) -> Option<Arc<dyn KeyPartitioner<K>>> {
        self.typed
            .downcast_ref::<Arc<dyn KeyPartitioner<K>>>()
            .cloned()
    }
}

impl std::fmt::Debug for PartitionerRef {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PartitionerRef")
            .field("sig", &self.sig)
            .field("count", &self.count)
            .finish()
    }
}

/// Range partitioner: keys are assigned to partitions by comparing against
/// sorted boundaries, so partition `i` holds a contiguous key range —
/// the partitioner behind [`crate::Rdd::sort_by_key`] (Spark
/// `RangePartitioner`).
#[derive(Debug, Clone)]
pub struct RangePartitioner<K> {
    /// Sorted upper boundaries; keys ≤ `boundaries[i]` (and above the
    /// previous boundary) go to partition `i`; larger keys go to the last
    /// partition.
    boundaries: Vec<K>,
    /// Process-unique instance token: clones (which share boundaries by
    /// construction) compare co-partitioned, distinct instances never do
    /// — boundary vectors are not compared element-wise.
    token: u64,
}

impl<K: Ord> RangePartitioner<K> {
    /// Builds a partitioner with explicit sorted boundaries, producing
    /// `boundaries.len() + 1` partitions.
    ///
    /// # Panics
    ///
    /// Panics if the boundaries are not sorted.
    pub fn new(boundaries: Vec<K>) -> Self {
        assert!(
            boundaries.windows(2).all(|w| w[0] <= w[1]),
            "range boundaries must be sorted"
        );
        RangePartitioner {
            boundaries,
            token: next_partitioner_token(),
        }
    }

    /// Derives boundaries from a sample of keys, targeting `partitions`
    /// output partitions. The sample is sorted and split at even
    /// quantiles.
    pub(crate) fn from_sample(mut sample: Vec<K>, partitions: usize) -> Self
    where
        K: Clone,
    {
        assert!(partitions > 0);
        sample.sort();
        sample.dedup();
        let mut boundaries = Vec::new();
        if !sample.is_empty() {
            for i in 1..partitions {
                let idx = i * sample.len() / partitions;
                if idx < sample.len() {
                    boundaries.push(sample[idx].clone());
                }
            }
            boundaries.dedup();
        }
        RangePartitioner {
            boundaries,
            token: next_partitioner_token(),
        }
    }
}

impl<K: Ord + Send + Sync> KeyPartitioner<K> for RangePartitioner<K> {
    fn partition_of(&self, key: &K) -> usize {
        self.boundaries.partition_point(|b| b < key)
    }
    fn partition_count(&self) -> usize {
        self.boundaries.len() + 1
    }
    fn signature(&self) -> PartitionerSig {
        PartitionerSig::Token {
            token: self.token,
            count: self.boundaries.len() + 1,
        }
    }
}

/// Hash partitioner: key `k` goes to partition `hash(k) mod partitions`.
///
/// Uses the deterministic FxHash of [`crate::FxHashMap`], so partition
/// placement (and therefore remote/local byte attribution) is
/// reproducible across runs and machines.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HashPartitioner {
    partitions: usize,
}

impl HashPartitioner {
    /// Creates a partitioner over `partitions` reduce partitions.
    ///
    /// # Panics
    ///
    /// Panics if `partitions == 0`.
    pub fn new(partitions: usize) -> Self {
        assert!(partitions > 0, "partitioner needs at least one partition");
        HashPartitioner { partitions }
    }

    /// Number of reduce partitions.
    #[inline]
    pub(crate) fn num_partitions(&self) -> usize {
        self.partitions
    }

    /// Target partition for `key`.
    #[inline]
    pub(crate) fn partition<K: Hash>(&self, key: &K) -> usize {
        (fx_hash(key) % self.partitions as u64) as usize
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn in_range() {
        let p = HashPartitioner::new(7);
        for k in 0u32..1000 {
            assert!(p.partition(&k) < 7);
        }
    }

    #[test]
    fn deterministic() {
        let p1 = HashPartitioner::new(16);
        let p2 = HashPartitioner::new(16);
        for k in 0u64..100 {
            assert_eq!(p1.partition(&k), p2.partition(&k));
        }
    }

    #[test]
    fn reasonably_balanced_for_dense_keys() {
        let p = HashPartitioner::new(8);
        let mut counts = [0usize; 8];
        for k in 0u32..8000 {
            counts[p.partition(&k)] += 1;
        }
        for &c in &counts {
            assert!((500..=1500).contains(&c), "imbalanced: {counts:?}");
        }
    }

    #[test]
    fn single_partition_maps_everything_to_zero() {
        let p = HashPartitioner::new(1);
        assert_eq!(p.partition(&123u32), 0);
        assert_eq!(p.partition(&"abc"), 0);
    }

    #[test]
    #[should_panic(expected = "at least one partition")]
    fn zero_partitions_rejected() {
        HashPartitioner::new(0);
    }

    #[test]
    fn range_partitioner_explicit_boundaries() {
        let p = RangePartitioner::new(vec![10u32, 20]);
        assert_eq!(p.partition_count(), 3);
        assert_eq!(p.partition_of(&5), 0);
        assert_eq!(p.partition_of(&10), 0); // ≤ boundary stays left
        assert_eq!(p.partition_of(&11), 1);
        assert_eq!(p.partition_of(&20), 1);
        assert_eq!(p.partition_of(&99), 2);
    }

    #[test]
    fn range_partitioner_is_order_preserving() {
        let p = RangePartitioner::new(vec![3u32, 7, 12]);
        let mut last = 0;
        for k in 0u32..20 {
            let part = p.partition_of(&k);
            assert!(part >= last, "partition regressed at key {k}");
            last = part;
        }
    }

    #[test]
    fn range_from_sample_quantiles() {
        let sample: Vec<u32> = (0..100).collect();
        let p = RangePartitioner::from_sample(sample, 4);
        assert_eq!(p.partition_count(), 4);
        // Roughly balanced assignment of the sampled domain.
        let mut counts = vec![0usize; 4];
        for k in 0u32..100 {
            counts[p.partition_of(&k)] += 1;
        }
        for &c in &counts {
            assert!((15..=35).contains(&c), "unbalanced: {counts:?}");
        }
    }

    #[test]
    fn range_from_empty_sample_single_partition() {
        let p = RangePartitioner::from_sample(Vec::<u32>::new(), 5);
        assert_eq!(p.partition_count(), 1);
        assert_eq!(p.partition_of(&123), 0);
    }

    #[test]
    #[should_panic(expected = "sorted")]
    fn range_rejects_unsorted_boundaries() {
        RangePartitioner::new(vec![5u32, 2]);
    }

    #[test]
    fn hash_signatures_compare_by_count() {
        let a: Arc<dyn KeyPartitioner<u32>> = Arc::new(HashPartitioner::new(8));
        let b: Arc<dyn KeyPartitioner<u32>> = Arc::new(HashPartitioner::new(8));
        let c: Arc<dyn KeyPartitioner<u32>> = Arc::new(HashPartitioner::new(4));
        assert_eq!(a.signature(), b.signature());
        assert_ne!(a.signature(), c.signature());
    }

    #[test]
    fn unknown_signature_matches_nothing() {
        struct Custom;
        impl KeyPartitioner<u32> for Custom {
            fn partition_of(&self, _key: &u32) -> usize {
                0
            }
            fn partition_count(&self) -> usize {
                1
            }
        }
        let sig = Custom.signature();
        assert_ne!(sig, sig, "Unknown must not even equal itself");
        assert_ne!(sig, PartitionerSig::Hash(1));
    }

    #[test]
    fn range_signatures_only_match_clones() {
        let p1 = RangePartitioner::new(vec![10u32, 20]);
        let p2 = RangePartitioner::new(vec![10u32, 20]);
        let clone = p1.clone();
        let s1 = KeyPartitioner::<u32>::signature(&p1);
        assert_eq!(s1, KeyPartitioner::<u32>::signature(&clone));
        assert_ne!(s1, KeyPartitioner::<u32>::signature(&p2));
    }

    #[test]
    fn partitioner_ref_downcast_roundtrip() {
        let p: Arc<dyn KeyPartitioner<u32>> = Arc::new(HashPartitioner::new(6));
        let r = PartitionerRef::of(p.clone());
        assert_eq!(r.partition_count(), 6);
        assert!(r.matches(&PartitionerSig::Hash(6)));
        assert!(!r.matches(&PartitionerSig::Hash(7)));
        let back = r.downcast::<u32>().expect("same key type");
        for k in 0u32..100 {
            assert_eq!(back.partition_of(&k), p.partition_of(&k));
        }
        assert!(r.downcast::<u64>().is_none(), "wrong key type");
    }
}
