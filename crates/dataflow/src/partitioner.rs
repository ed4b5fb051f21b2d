//! Key placement for shuffles: the one rule every wide operation uses.
//!
//! Key `k` lands in partition `fx_hash(k) mod n`. The rule is stateless,
//! so the partition count alone identifies a placement: two
//! [`HashPartitioner`]s compare equal exactly when they place every key
//! identically. An [`crate::Rdd`] records the partitioner that produced
//! it, and a wide operation onto an equal one reads that input narrowly
//! instead of shuffling it (Spark's co-partitioning).

use crate::hash::fx_hash;
use std::hash::Hash;

/// Hash partitioner: key `k` goes to partition `hash(k) mod partitions`.
///
/// Uses the deterministic FxHash of [`crate::FxHashMap`], so partition
/// placement (and therefore remote/local byte attribution) is
/// reproducible across runs and machines.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
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
    pub(crate) fn num_partitions(self) -> usize {
        self.partitions
    }

    /// Target partition for `key`.
    #[inline]
    pub(crate) fn partition<K: Hash>(self, key: &K) -> usize {
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
    fn hash_signatures_compare_by_count() {
        let a = HashPartitioner::new(8);
        assert_eq!(a, HashPartitioner::new(8));
        assert_ne!(a, HashPartitioner::new(4));
        for k in 0u32..100 {
            assert_eq!(a.partition(&k), HashPartitioner::new(8).partition(&k));
        }
    }
}
