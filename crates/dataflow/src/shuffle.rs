//! In-memory shuffle service with budget-governed spill.
//!
//! Maps Spark's shuffle files: the map side of a shuffle writes, for each
//! map partition, one bucket per reduce partition; reducers later fetch
//! "their" bucket from every map output. Byte sizes are estimated at write
//! time so the read side can attribute remote/local traffic without
//! re-walking records.
//!
//! Map outputs are bounded by the cluster's memory budget
//! ([`crate::ClusterConfig::memory_budget`]) on a ledger of their own:
//! the service is handed the same figure as the block manager but counts
//! only its own bytes, so each store stays within the budget and the two
//! together within twice it. When stored outputs exceed it, the oldest
//! outputs are *spilled*: they stay stored, flagged `spilled`, off the
//! memory ledger (no file is written: see [`crate::cache`]), and every
//! later fetch of one of their buckets logs a spill read. Spill writes
//! and reads are [`crate::metrics::Meter`] events under the owner
//! `shuffle-<id>`; the metrics log is the only count of them.

use crate::hash::FxHashMap;
use crate::metrics::MetricsRegistry;
use parking_lot::{Mutex, MutexGuard};
use std::any::Any;
use std::sync::Arc;

/// One map task's output: `buckets[r]` holds the records destined for
/// reduce partition `r`. Stored type-erased; the typed shuffle dependency
/// downcasts on read.
struct MapOutput {
    buckets: Box<dyn Any + Send + Sync>,
    bucket_bytes: Vec<u64>,
    total_bytes: u64,
    /// Insertion order, for oldest-first spill.
    tick: u64,
    /// Whether this output has been spilled (is off the memory ledger).
    spilled: bool,
}

struct ShuffleData {
    num_reduce: usize,
    map_outputs: Vec<Option<MapOutput>>,
}

#[derive(Default)]
struct SvcInner {
    shuffles: FxHashMap<usize, ShuffleData>,
    /// Bytes of non-spilled map outputs (counted against the budget).
    mem_bytes: u64,
    tick: u64,
}

impl SvcInner {
    /// Takes a dropped map output off the memory ledger (a spilled one
    /// left it when it spilled).
    fn release(&mut self, output: &MapOutput) {
        if !output.spilled {
            self.mem_bytes -= output.total_bytes;
        }
    }
}

/// One bucket fetched by a reducer. The records are shared with the
/// service (`Arc`), so fetching is O(1) per bucket instead of an
/// `nnz × R`-sized deep copy under the service lock; readers that need
/// ownership copy outside the lock.
pub(crate) struct FetchedBucket<T> {
    /// Which map partition produced the bucket.
    pub map_partition: usize,
    /// The records, shared with the shuffle store.
    pub records: Arc<Vec<T>>,
    /// Estimated serialized size recorded at write time.
    pub bytes: u64,
}

/// Cluster-wide registry of in-flight shuffle data.
pub struct ShuffleService {
    inner: Mutex<SvcInner>,
    budget: Option<u64>,
    metrics: Arc<MetricsRegistry>,
}

fn shuffle_owner(shuffle_id: usize) -> String {
    format!("shuffle-{shuffle_id}")
}

impl ShuffleService {
    /// Creates an empty service with an optional byte budget for
    /// in-memory map outputs, logging its spills to `metrics`.
    pub fn new(budget: Option<u64>, metrics: Arc<MetricsRegistry>) -> Self {
        ShuffleService {
            inner: Mutex::default(),
            budget,
            metrics,
        }
    }

    /// Registers a shuffle before its map stage runs. Idempotent.
    pub fn register(&self, shuffle_id: usize, num_maps: usize, num_reduce: usize) {
        let mut inner = self.inner.lock();
        inner
            .shuffles
            .entry(shuffle_id)
            .or_insert_with(|| ShuffleData {
                num_reduce,
                map_outputs: (0..num_maps).map(|_| None).collect(),
            });
    }

    /// Spills oldest-first until resident map-output bytes fit the budget.
    fn enforce_budget(&self, inner: &mut SvcInner) {
        let Some(budget) = self.budget else { return };
        while inner.mem_bytes > budget {
            let victim = inner
                .shuffles
                .iter()
                .flat_map(|(&id, data)| {
                    data.map_outputs
                        .iter()
                        .enumerate()
                        .filter_map(move |(map, out)| {
                            out.as_ref()
                                .filter(|o| !o.spilled)
                                .map(|o| (o.tick, id, map, o.total_bytes))
                        })
                })
                .min();
            let Some((_, shuffle_id, map_partition, bytes)) = victim else {
                break;
            };
            let out = inner
                .shuffles
                .get_mut(&shuffle_id)
                .expect("victim shuffle present")
                .map_outputs[map_partition]
                .as_mut()
                .expect("victim output present");
            out.spilled = true;
            inner.mem_bytes -= bytes;
            self.metrics
                .record_spill_write(&shuffle_owner(shuffle_id), bytes);
        }
    }

    /// Stores the bucketed output of one map task, spilling oldest outputs
    /// if the memory budget would be exceeded.
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
        let mut inner = self.inner.lock();
        inner.tick += 1;
        let tick = inner.tick;
        let data = inner
            .shuffles
            .get_mut(&shuffle_id)
            .unwrap_or_else(|| panic!("shuffle {shuffle_id} not registered"));
        assert_eq!(buckets.len(), data.num_reduce, "bucket count mismatch");
        assert_eq!(bucket_bytes.len(), data.num_reduce);
        // First writer wins: the scheduler only commits winning attempts,
        // but stay idempotent so a racing duplicate can never clobber an
        // output a reducer may already be reading.
        if data.map_outputs[map_partition].is_some() {
            return;
        }
        let total_bytes = bucket_bytes.iter().sum();
        // Arc-wrap each bucket so reads hand out shared references
        // instead of deep copies.
        let buckets: Vec<Arc<Vec<T>>> = buckets.into_iter().map(Arc::new).collect();
        data.map_outputs[map_partition] = Some(MapOutput {
            buckets: Box::new(buckets),
            bucket_bytes,
            total_bytes,
            tick,
            spilled: false,
        });
        inner.mem_bytes += total_bytes;
        self.enforce_budget(&mut inner);
    }

    /// Whether every map output for `shuffle_id` has been stored.
    pub(crate) fn is_complete(&self, shuffle_id: usize) -> bool {
        let inner = self.inner.lock();
        inner
            .shuffles
            .get(&shuffle_id)
            .map(|d| d.map_outputs.iter().all(Option::is_some))
            .unwrap_or(false)
    }

    /// Map partitions of `shuffle_id` whose output is absent (never
    /// written, or lost to a simulated node failure). Unregistered
    /// shuffles report an empty list.
    pub(crate) fn missing_map_outputs(&self, shuffle_id: usize) -> Vec<usize> {
        let inner = self.inner.lock();
        inner
            .shuffles
            .get(&shuffle_id)
            .map(|d| {
                d.map_outputs
                    .iter()
                    .enumerate()
                    .filter(|(_, o)| o.is_none())
                    .map(|(i, _)| i)
                    .collect()
            })
            .unwrap_or_default()
    }

    /// Drops every map output written by a map partition for which
    /// `lost(map_partition)` is true — the shuffle-file loss caused by a
    /// node failure (spill files on the node's local disk are lost too).
    /// Affected shuffles become incomplete and re-run their missing map
    /// tasks on next use.
    pub fn remove_map_outputs_where(&self, lost: impl Fn(usize) -> bool) -> usize {
        let mut removed = Vec::new();
        let mut inner = self.inner.lock();
        let ids: Vec<usize> = inner.shuffles.keys().copied().collect();
        for shuffle_id in ids {
            let num_maps = inner.shuffles[&shuffle_id].map_outputs.len();
            for map_partition in 0..num_maps {
                if !lost(map_partition) {
                    continue;
                }
                let slot = inner
                    .shuffles
                    .get_mut(&shuffle_id)
                    .expect("shuffle present")
                    .map_outputs[map_partition]
                    .take();
                if let Some(output) = slot {
                    inner.release(&output);
                    removed.push(output);
                }
            }
        }
        // The ledger is settled; the records themselves are freed after
        // the lock is released, so no reader waits on the deallocation.
        drop(inner);
        removed.len()
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
    ) -> Vec<FetchedBucket<T>> {
        let inner = self.inner.lock();
        let data = inner
            .shuffles
            .get(&shuffle_id)
            .unwrap_or_else(|| panic!("shuffle {shuffle_id} not materialized"));
        let mut reloaded = 0u64;
        let fetched: Vec<FetchedBucket<T>> = data
            .map_outputs
            .iter()
            .enumerate()
            .map(|(map_partition, out)| {
                let out = out
                    .as_ref()
                    .unwrap_or_else(|| panic!("shuffle {shuffle_id} map {map_partition} missing"));
                let buckets = out
                    .buckets
                    .downcast_ref::<Vec<Arc<Vec<T>>>>()
                    .expect("shuffle read with mismatched record type");
                if out.spilled {
                    reloaded += out.bucket_bytes[reduce_partition];
                }
                FetchedBucket {
                    map_partition,
                    records: buckets[reduce_partition].clone(),
                    bytes: out.bucket_bytes[reduce_partition],
                }
            })
            .collect();
        drop(inner);
        if reloaded > 0 {
            self.metrics
                .record_spill_read(&shuffle_owner(shuffle_id), reloaded);
        }
        fetched
    }

    /// Settles the ledger for every output of the removed `shuffles`
    /// under the lock, then releases it before the record data is freed:
    /// freeing a tensor-sized shuffle takes milliseconds no other job's
    /// `read` or `put_map_output` should wait for.
    fn retire(
        mut inner: MutexGuard<'_, SvcInner>,
        shuffles: impl IntoIterator<Item = ShuffleData>,
    ) {
        let shuffles: Vec<ShuffleData> = shuffles.into_iter().collect();
        for output in shuffles
            .iter()
            .flat_map(|data| data.map_outputs.iter().flatten())
        {
            inner.release(output);
        }
        drop(inner);
    }

    /// Drops a shuffle's data (Spark's `unpersist` of shuffle files).
    pub fn remove(&self, shuffle_id: usize) {
        let mut inner = self.inner.lock();
        let removed = inner.shuffles.remove(&shuffle_id);
        Self::retire(inner, removed);
    }

    /// Drops every stored shuffle (the engine's analogue of Spark's
    /// `ContextCleaner` reclaiming shuffle files). Lineage transparently
    /// re-materializes a cleared shuffle if a later job needs it, so this
    /// is always safe — merely a time/space trade.
    pub fn clear(&self) {
        let mut inner = self.inner.lock();
        let shuffles = std::mem::take(&mut inner.shuffles);
        Self::retire(inner, shuffles.into_values());
    }

    /// Number of live shuffles (for leak checks in tests).
    pub fn live_shuffles(&self) -> usize {
        self.inner.lock().shuffles.len()
    }

    /// Bytes of map outputs currently resident in memory (non-spilled).
    pub fn memory_bytes(&self) -> u64 {
        self.inner.lock().mem_bytes
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
        assert_eq!(*r0[0].records, vec![(1, 1.0)]);
        assert_eq!(*r0[1].records, vec![(3, 3.0)]);
        assert_eq!(r0[0].bytes, 12);

        let r1 = svc.read::<(u32, f64)>(1, 1);
        assert_eq!(*r1[0].records, vec![(2, 2.0)]);
        assert!(r1[1].records.is_empty());
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
        assert_eq!(*r[0].records, vec![1]);
        assert_eq!(*r[1].records, vec![2]);
        assert_eq!(*r[2].records, vec![3]);
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
