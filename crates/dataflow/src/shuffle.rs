//! In-memory shuffle service with budget-governed spill.
//!
//! Maps Spark's shuffle files: the map side of a shuffle writes, for each
//! map partition, one bucket per reduce partition; reducers later fetch
//! "their" bucket from every map output. Byte sizes are estimated at write
//! time so the read side can attribute remote/local traffic without
//! re-walking records.
//!
//! Map outputs are blocks keyed `(shuffle, map partition)` in a
//! [`crate::store`] of their own, under the cluster's memory budget
//! ([`crate::ClusterConfig::memory_budget`]); the block manager keeps the
//! cached partitions in a second store with the same budget figure. A map
//! output over the budget always *spills*: it stays stored, off the memory
//! ledger, and every later fetch of one of its buckets logs a spill read.
//! A fetch takes its bucket in place: it neither refreshes recency nor
//! brings the output back into memory. Spill writes and reads are
//! [`crate::metrics::Meter`] events under the owner `shuffle-<id>`; the
//! metrics log is the only count of them.
//!
//! A shuffle's outputs live until its dependency drops, or until the
//! dataset they built is released: a cached dataset's lineage keeps every
//! shuffle below it, so an owner that drops a persisted dataset nothing
//! live reads calls [`crate::Rdd::release_shuffles`] after unpersisting
//! it. The lineage stays, and a job that needs a released shuffle re-runs
//! its map stage, as after a node loss ([`ShuffleService::clear`]).

use crate::hash::FxHashMap;
use crate::metrics::MetricsRegistry;
use crate::store::Store;
use std::sync::Arc;

/// One bucket: the records a map task destined for one reduce partition,
/// with their estimated bytes recorded at write time. A map output stores
/// one per reduce partition. The records are shared (`Arc`), so a
/// reducer's fetch is O(1) per bucket instead of an `nnz × R`-sized deep
/// copy under the service lock; readers that need ownership copy outside
/// the lock.
pub(crate) type Bucket<T> = (Arc<Vec<T>>, u64);

/// Cluster-wide registry of in-flight shuffle data.
pub struct ShuffleService {
    /// Map outputs, and each registered shuffle's `(map partitions,
    /// reduce partitions)`.
    store: Store<FxHashMap<usize, (usize, usize)>>,
}

impl ShuffleService {
    /// Creates an empty service with an optional byte budget for
    /// in-memory map outputs, logging its spills to `metrics`.
    pub fn new(budget: Option<u64>, metrics: Arc<MetricsRegistry>) -> Self {
        ShuffleService {
            store: Store::new("shuffle", budget, metrics),
        }
    }

    /// Registers a shuffle before its map stage runs. Idempotent.
    pub fn register(&self, shuffle_id: usize, num_maps: usize, num_reduce: usize) {
        self.store.update(|ledger| {
            ledger
                .own
                .entry(shuffle_id)
                .or_insert((num_maps, num_reduce));
        });
    }

    /// Stores the bucketed output of one map task, spilling the oldest
    /// outputs if the memory budget would be exceeded. The first output
    /// stored for a map partition wins: the scheduler only commits winning
    /// attempts, and a racing duplicate never clobbers an output a reducer
    /// may already be reading.
    ///
    /// # Panics
    ///
    /// Panics if the shuffle is unregistered or the bucket count disagrees
    /// with the registered reduce partition count.
    pub fn put_map_output<T: Send + Sync + 'static>(
        &self,
        shuffle_id: usize,
        map_partition: usize,
        buckets: Vec<Vec<T>>,
        bucket_bytes: Vec<u64>,
    ) {
        assert_eq!(buckets.len(), bucket_bytes.len(), "bucket count mismatch");
        let total_bytes = bucket_bytes.iter().sum();
        // Arc-wrap each bucket so reads hand out shared references
        // instead of deep copies.
        let buckets: Vec<Bucket<T>> = buckets
            .into_iter()
            .map(Arc::new)
            .zip(bucket_bytes)
            .collect();
        self.store.update(|ledger| {
            let &(_, num_reduce) = ledger
                .own
                .get(&shuffle_id)
                .unwrap_or_else(|| panic!("shuffle {shuffle_id} not registered"));
            assert_eq!(buckets.len(), num_reduce, "bucket count mismatch");
            let key = (shuffle_id, map_partition);
            ledger.insert(key, Arc::new(buckets), total_bytes, true);
        });
    }

    /// Map partitions of `shuffle_id` whose output is absent (never
    /// written, or lost to a simulated node failure). Unregistered
    /// shuffles report an empty list.
    pub(crate) fn missing_map_outputs(&self, shuffle_id: usize) -> Vec<usize> {
        self.store.read(|ledger| {
            let num_maps = ledger.own.get(&shuffle_id).map_or(0, |&(maps, _)| maps);
            (0..num_maps)
                .filter(|&map| ledger.block((shuffle_id, map)).is_none())
                .collect()
        })
    }

    /// Whether every map output for `shuffle_id` has been stored.
    pub(crate) fn is_complete(&self, shuffle_id: usize) -> bool {
        self.store.read(|ledger| {
            ledger.own.get(&shuffle_id).is_some_and(|&(num_maps, _)| {
                (0..num_maps).all(|map| ledger.block((shuffle_id, map)).is_some())
            })
        })
    }

    /// Drops every map output written by a map partition for which
    /// `lost(map_partition)` is true — the shuffle-file loss caused by a
    /// node failure (spill files on the node's local disk are lost too).
    /// Affected shuffles become incomplete and re-run their missing map
    /// tasks on next use.
    pub fn remove_map_outputs_where(&self, lost: impl Fn(usize) -> bool) -> usize {
        self.store
            .update(|ledger| ledger.remove_where(|(_, map_partition)| lost(map_partition)))
    }

    /// Fetches reduce partition `reduce_partition`'s bucket from every map
    /// output, in map-partition order. Only bucket `Arc`s are cloned under
    /// the lock; record data is never copied here. Buckets of spilled
    /// outputs charge the modeled spill-read cost.
    ///
    /// # Panics
    ///
    /// Panics if the shuffle is missing, incomplete, or was written with a
    /// different record type.
    pub(crate) fn read<T: Send + Sync + 'static>(
        &self,
        shuffle_id: usize,
        reduce_partition: usize,
    ) -> Vec<Bucket<T>> {
        let mut reloaded = 0u64;
        let fetched: Vec<Bucket<T>> = self.store.read(|ledger| {
            let &(num_maps, _) = ledger
                .own
                .get(&shuffle_id)
                .unwrap_or_else(|| panic!("shuffle {shuffle_id} not materialized"));
            (0..num_maps)
                .map(|map| {
                    let out = ledger
                        .block((shuffle_id, map))
                        .unwrap_or_else(|| panic!("shuffle {shuffle_id} map {map} missing"));
                    let buckets = out
                        .data
                        .downcast_ref::<Vec<Bucket<T>>>()
                        .expect("shuffle read with mismatched record type");
                    let bucket = buckets[reduce_partition].clone();
                    if out.spilled {
                        reloaded += bucket.1;
                    }
                    bucket
                })
                .collect()
        });
        if reloaded > 0 {
            let owner = self.store.owner(shuffle_id);
            self.store.metrics().record_spill_read(&owner, reloaded);
        }
        fetched
    }

    /// Drops a shuffle's data (Spark's `unpersist` of shuffle files).
    pub fn remove(&self, shuffle_id: usize) {
        self.store.update(|ledger| {
            ledger.own.remove(&shuffle_id);
            ledger.remove_where(|(id, _)| id == shuffle_id)
        });
    }

    /// Drops every stored shuffle (the engine's analogue of Spark's
    /// `ContextCleaner` reclaiming shuffle files). Lineage transparently
    /// re-materializes a cleared shuffle if a later job needs it, so this
    /// is always safe — merely a time/space trade.
    pub fn clear(&self) {
        self.store.update(|ledger| {
            ledger.own.clear();
            ledger.remove_where(|_| true)
        });
    }

    /// Number of live shuffles (for leak checks in tests).
    pub fn live_shuffles(&self) -> usize {
        self.store.read(|ledger| ledger.own.len())
    }

    /// Bytes of map outputs currently resident in memory (non-spilled).
    pub fn memory_bytes(&self) -> u64 {
        self.store.memory_bytes()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn unbounded() -> ShuffleService {
        ShuffleService::new(None, Arc::default())
    }

    #[test]
    fn roundtrip_two_maps_two_reducers() {
        let svc = unbounded();
        svc.register(1, 2, 2);
        assert!(!svc.is_complete(1));
        svc.put_map_output::<(u32, f64)>(1, 0, vec![vec![(1, 1.0)], vec![(2, 2.0)]], vec![12, 12]);
        svc.put_map_output::<(u32, f64)>(1, 1, vec![vec![(3, 3.0)], vec![]], vec![12, 0]);
        assert!(svc.is_complete(1));

        let r0 = svc.read::<(u32, f64)>(1, 0);
        assert_eq!(r0.len(), 2);
        assert_eq!(*r0[0].0, vec![(1, 1.0)]);
        assert_eq!(*r0[1].0, vec![(3, 3.0)]);
        assert_eq!(r0[0].1, 12);

        let r1 = svc.read::<(u32, f64)>(1, 1);
        assert_eq!(*r1[0].0, vec![(2, 2.0)]);
        assert!(r1[1].0.is_empty());
    }

    #[test]
    fn register_is_idempotent() {
        let svc = unbounded();
        svc.register(5, 1, 1);
        svc.put_map_output(5, 0, vec![vec![9u32]], vec![4]);
        svc.register(5, 1, 1); // must not wipe existing data
        assert!(svc.is_complete(5));
    }

    #[test]
    fn clear_frees_everything() {
        let svc = unbounded();
        svc.register(1, 1, 1);
        svc.put_map_output::<u8>(1, 0, vec![vec![1]], vec![1]);
        svc.register(2, 1, 1);
        assert_eq!(svc.live_shuffles(), 2);
        svc.clear();
        assert_eq!(svc.live_shuffles(), 0);
        assert_eq!(svc.memory_bytes(), 0);
    }

    #[test]
    fn remove_frees_shuffle() {
        let svc = unbounded();
        svc.register(2, 1, 1);
        svc.put_map_output(2, 0, vec![vec![1u8]], vec![1]);
        assert_eq!(svc.live_shuffles(), 1);
        assert_eq!(svc.memory_bytes(), 1);
        svc.remove(2);
        assert_eq!(svc.live_shuffles(), 0);
        assert_eq!(svc.memory_bytes(), 0);
        assert!(!svc.is_complete(2));
    }

    #[test]
    #[should_panic(expected = "not registered")]
    fn put_to_unregistered_panics() {
        let svc = unbounded();
        svc.put_map_output(9, 0, vec![vec![1u8]], vec![1]);
    }

    #[test]
    #[should_panic(expected = "mismatched record type")]
    fn type_confusion_panics() {
        let svc = unbounded();
        svc.register(3, 1, 1);
        svc.put_map_output(3, 0, vec![vec![1u32]], vec![4]);
        let _ = svc.read::<u64>(3, 0);
    }

    #[test]
    #[should_panic(expected = "bucket count mismatch")]
    fn wrong_bucket_count_panics() {
        let svc = unbounded();
        svc.register(4, 1, 3);
        svc.put_map_output(4, 0, vec![vec![1u32]], vec![4]);
    }

    /// A budgeted service and the log it records into.
    fn bounded(budget: u64) -> (ShuffleService, Arc<MetricsRegistry>) {
        let metrics = Arc::new(MetricsRegistry::new());
        (ShuffleService::new(Some(budget), metrics.clone()), metrics)
    }

    #[test]
    fn oversized_map_outputs_spill_oldest_first() {
        let (svc, metrics) = bounded(20);
        let spilled = || metrics.snapshot().spilled_bytes();
        let spill_read = || metrics.snapshot().spill_read_bytes();
        svc.register(1, 3, 1);
        svc.put_map_output(1, 0, vec![vec![1u64]], vec![8]);
        svc.put_map_output(1, 1, vec![vec![2u64]], vec![8]);
        assert_eq!(spilled(), 0);
        svc.put_map_output(1, 2, vec![vec![3u64]], vec![8]);
        // 24 B > 20 B: the oldest output (map 0) spills.
        assert_eq!(spilled(), 8);
        assert_eq!(svc.memory_bytes(), 16);
        // Data stays readable; fetching the spilled bucket pays a reload.
        let r = svc.read::<u64>(1, 0);
        assert_eq!(*r[0].0, vec![1]);
        assert_eq!(*r[1].0, vec![2]);
        assert_eq!(*r[2].0, vec![3]);
        assert_eq!(spill_read(), 8);
        // A second read of the spilled bucket pays again.
        let _ = svc.read::<u64>(1, 0);
        assert_eq!(spill_read(), 16);
    }

    #[test]
    fn removing_a_spilled_shuffle_keeps_accounting_consistent() {
        let (svc, metrics) = bounded(8);
        svc.register(7, 2, 1);
        svc.put_map_output(7, 0, vec![vec![1u64]], vec![8]);
        svc.put_map_output(7, 1, vec![vec![2u64]], vec![8]);
        assert_eq!(metrics.snapshot().spilled_bytes(), 8);
        assert_eq!(svc.memory_bytes(), 8);
        svc.remove(7);
        assert_eq!(svc.memory_bytes(), 0);
        assert_eq!(svc.live_shuffles(), 0);
    }
}
