//! Block manager: memory-governed RDD caching.
//!
//! CSTF caches the tensor RDD so CP-ALS iterations reuse it without
//! recomputation ("keeping the tensor in memory can improve the performance
//! significantly since the tensor data is reused across iterations", paper
//! §4.1), and QCOO explicitly unpersists the previous MTTKRP's queue RDD
//! (§4.2). The block manager stores computed partitions keyed by
//! `(rdd_id, partition)` in a [`crate::store`] of its own, under the
//! cluster's memory budget ([`crate::ClusterConfig::memory_budget`]); the
//! shuffle service keeps its map outputs in a second store with the same
//! budget figure. What the store's eviction of the least recent block
//! means depends on the block's [`StorageLevel`]:
//!
//! * [`StorageLevel::MemoryRaw`] blocks are dropped — a later read misses
//!   and the owning [`crate::rdd::nodes::CachedNode`] recomputes the
//!   partition from lineage, exactly like recovery after a lost node;
//! * [`StorageLevel::MemoryAndDisk`] blocks are *spilled*: they stay
//!   stored, off the memory ledger, and the next read promotes them back.
//!
//! A hit refreshes the block's recency. Every eviction, spill, reload and
//! recompute is one [`crate::metrics::Meter`] event in the metrics log
//! under the owner `rdd-<id>`; the log is the only count of them.

use crate::metrics::MetricsRegistry;
use crate::store::Store;
use std::sync::Arc;

/// Where/how a cached partition is stored, mirroring Spark's storage levels.
/// All data lives in this process (the cluster is simulated); the levels
/// differ in how they behave under the memory budget. The paper uses raw
/// caching ("we cache the tensors using the raw format", §4.1).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum StorageLevel {
    /// Raw object storage (Spark `MEMORY_ONLY`). Evicted blocks are
    /// dropped and recomputed from lineage on the next read.
    MemoryRaw,
    /// Memory first, spill to local disk under memory pressure (Spark
    /// `MEMORY_AND_DISK`). Evicted blocks are spilled and promoted back
    /// to memory on the next read.
    MemoryAndDisk,
}

/// Thread-safe, budget-governed cache of computed partitions.
pub struct BlockManager {
    store: Store<()>,
}

impl BlockManager {
    /// Creates an empty block manager with an optional byte budget,
    /// logging its storage events to `metrics`.
    pub fn new(budget: Option<u64>, metrics: Arc<MetricsRegistry>) -> Self {
        BlockManager {
            store: Store::new("rdd", budget, metrics),
        }
    }

    /// Stores a computed partition at the given level, evicting older
    /// blocks if the memory budget would be exceeded. A partition already
    /// stored keeps its first copy.
    pub fn put<T: Send + Sync + 'static>(
        &self,
        rdd_id: usize,
        partition: usize,
        data: Vec<T>,
        bytes: u64,
        level: StorageLevel,
    ) {
        let spills = level == StorageLevel::MemoryAndDisk;
        let data = Arc::new(data);
        self.store
            .update(|ledger| ledger.insert((rdd_id, partition), data, bytes, spills));
    }

    /// Fetches a cached partition as the stored `Arc` (no deep clone).
    ///
    /// A hit refreshes the block's LRU recency; a hit on a spilled block
    /// logs a spill read and promotes the block back into memory,
    /// re-running budget enforcement. Returns `None` when the block was
    /// never stored or was dropped — the caller recomputes from lineage,
    /// and a miss on a block the budget dropped logs that recompute, so
    /// metrics distinguish first computation from recompute-after-eviction.
    pub fn get<T: Send + Sync + 'static>(
        &self,
        rdd_id: usize,
        partition: usize,
    ) -> Option<Arc<Vec<T>>> {
        let key = (rdd_id, partition);
        let metrics = self.store.metrics();
        let Some((data, reloaded)) = self.store.update(|ledger| ledger.reload(key)) else {
            if self.store.update(|ledger| ledger.take_tombstone(key)) {
                metrics.record_storage_recompute(&self.store.owner(rdd_id));
            }
            return None;
        };
        if let Some(reloaded) = reloaded {
            metrics.record_spill_read(&self.store.owner(rdd_id), reloaded);
        }
        let data = data.downcast::<Vec<T>>();
        Some(data.expect("cached block read with mismatched type"))
    }

    /// Whether a specific partition is resident (in memory or spilled).
    pub fn contains(&self, rdd_id: usize, partition: usize) -> bool {
        self.store
            .read(|ledger| ledger.block((rdd_id, partition)).is_some())
    }

    /// Whether *all* `num_partitions` partitions of an RDD are resident —
    /// in memory or spilled — which lets the scheduler prune lineage above
    /// a fully-cached RDD (spilled blocks reload without lineage).
    pub(crate) fn has_all(&self, rdd_id: usize, num_partitions: usize) -> bool {
        self.store
            .read(|ledger| (0..num_partitions).all(|p| ledger.block((rdd_id, p)).is_some()))
    }

    /// Drops every resident block (and eviction tombstone) for which
    /// `lost(partition)` is true — the cache loss caused by a node failure
    /// (a node's local disk is lost with it). Returns removed block count.
    pub fn remove_where(&self, lost: impl Fn(usize) -> bool) -> usize {
        self.store
            .update(|ledger| ledger.remove_where(|(_, partition)| lost(partition)))
    }

    /// Drops every resident partition of an RDD (Spark `unpersist`),
    /// in memory or spilled. Returns how many blocks were removed.
    pub fn remove_rdd(&self, rdd_id: usize) -> usize {
        self.store
            .update(|ledger| ledger.remove_where(|(id, _)| id == rdd_id))
    }

    /// Estimated bytes resident in memory (counted against the budget).
    pub fn memory_bytes(&self) -> u64 {
        self.store.memory_bytes()
    }

    /// High-water mark of [`Self::memory_bytes`] over the manager's life.
    pub fn peak_memory_bytes(&self) -> u64 {
        self.store.peak_memory_bytes()
    }

    /// Estimated bytes across all resident blocks (memory + spilled).
    pub fn total_bytes(&self) -> u64 {
        self.store
            .read(|ledger| ledger.blocks().map(|b| b.bytes).sum())
    }

    /// Number of resident blocks (memory + spilled).
    pub fn len(&self) -> usize {
        self.store.read(|ledger| ledger.blocks().len())
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Storage level of a resident partition, if present.
    pub fn level_of(&self, rdd_id: usize, partition: usize) -> Option<StorageLevel> {
        let spills = self
            .store
            .read(|l| l.block((rdd_id, partition)).map(|b| b.spills))?;
        Some(if spills {
            StorageLevel::MemoryAndDisk
        } else {
            StorageLevel::MemoryRaw
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn unbounded() -> BlockManager {
        BlockManager::new(None, Arc::default())
    }

    #[test]
    fn put_get_roundtrip() {
        let bm = unbounded();
        bm.put(1, 0, vec![1u32, 2, 3], 12, StorageLevel::MemoryRaw);
        assert_eq!(bm.get::<u32>(1, 0).as_deref(), Some(&vec![1, 2, 3]));
        assert_eq!(bm.get::<u32>(1, 1), None);
        assert_eq!(bm.get::<u32>(2, 0), None);
        assert!(bm.contains(1, 0));
        assert_eq!(bm.level_of(1, 0), Some(StorageLevel::MemoryRaw));
    }

    #[test]
    fn get_returns_the_stored_arc_without_cloning() {
        let bm = unbounded();
        bm.put(3, 0, vec![7u64; 8], 64, StorageLevel::MemoryRaw);
        let a = bm.get::<u64>(3, 0).unwrap();
        let b = bm.get::<u64>(3, 0).unwrap();
        assert!(Arc::ptr_eq(&a, &b), "reads must share the stored Arc");
    }

    #[test]
    fn has_all_requires_every_partition() {
        let bm = unbounded();
        bm.put(7, 0, vec![0u8], 1, StorageLevel::MemoryRaw);
        bm.put(7, 2, vec![0u8], 1, StorageLevel::MemoryRaw);
        assert!(!bm.has_all(7, 3));
        bm.put(7, 1, vec![0u8], 1, StorageLevel::MemoryRaw);
        assert!(bm.has_all(7, 3));
    }

    #[test]
    fn remove_rdd_evicts_only_that_rdd() {
        let bm = unbounded();
        bm.put(1, 0, vec![0u8], 1, StorageLevel::MemoryRaw);
        bm.put(1, 1, vec![0u8], 1, StorageLevel::MemoryRaw);
        bm.put(2, 0, vec![0u8], 1, StorageLevel::MemoryRaw);
        assert_eq!(bm.remove_rdd(1), 2);
        assert_eq!(bm.len(), 1);
        assert!(bm.contains(2, 0));
        assert_eq!(bm.remove_rdd(99), 0);
    }

    #[test]
    fn byte_accounting() {
        let bm = unbounded();
        bm.put(1, 0, vec![0u64; 4], 32, StorageLevel::MemoryRaw);
        bm.put(1, 1, vec![0u64; 2], 16, StorageLevel::MemoryRaw);
        assert_eq!(bm.total_bytes(), 48);
        assert_eq!(bm.memory_bytes(), 48);
        assert!(!bm.is_empty());
    }

    #[test]
    #[should_panic(expected = "mismatched type")]
    fn type_confusion_panics() {
        let bm = unbounded();
        bm.put(1, 0, vec![1u32], 4, StorageLevel::MemoryRaw);
        let _ = bm.get::<u64>(1, 0);
    }

    /// A budgeted block manager and the log it records into.
    fn bounded(budget: u64) -> (BlockManager, Arc<MetricsRegistry>) {
        let metrics = Arc::new(MetricsRegistry::new());
        (BlockManager::new(Some(budget), metrics.clone()), metrics)
    }

    #[test]
    fn lru_evicts_least_recently_used_memory_block() {
        let (bm, metrics) = bounded(24);
        bm.put(1, 0, vec![0u64], 8, StorageLevel::MemoryRaw);
        bm.put(1, 1, vec![0u64], 8, StorageLevel::MemoryRaw);
        bm.put(1, 2, vec![0u64], 8, StorageLevel::MemoryRaw);
        // Touch partition 0 so partition 1 becomes the LRU victim.
        assert!(bm.get::<u64>(1, 0).is_some());
        bm.put(1, 3, vec![0u64], 8, StorageLevel::MemoryRaw);
        assert!(bm.contains(1, 0));
        assert!(!bm.contains(1, 1), "LRU block must be evicted");
        assert!(bm.contains(1, 2));
        assert!(bm.contains(1, 3));
        assert_eq!(metrics.snapshot().eviction_count(), 1);
        assert_eq!(metrics.snapshot().evicted_bytes(), 8);
        assert!(bm.memory_bytes() <= 24);
        // A miss on the evicted key logs a lineage recompute, once.
        assert_eq!(bm.get::<u64>(1, 1), None);
        assert_eq!(bm.get::<u64>(1, 1), None);
        assert_eq!(metrics.snapshot().recompute_count(), 1);
    }

    #[test]
    fn memory_and_disk_spills_and_reloads() {
        let (bm, metrics) = bounded(16);
        bm.put(5, 0, vec![1u32, 2], 8, StorageLevel::MemoryAndDisk);
        bm.put(5, 1, vec![3u32, 4], 8, StorageLevel::MemoryAndDisk);
        bm.put(5, 2, vec![5u32, 6], 8, StorageLevel::MemoryAndDisk);
        assert_eq!(metrics.snapshot().spilled_bytes(), 8);
        assert_eq!(bm.total_bytes() - bm.memory_bytes(), 8);
        assert!(bm.has_all(5, 3), "spilled blocks still count as resident");
        // Reload promotes the spilled block back into memory (evicting
        // another block to make room) and charges a spill read.
        assert_eq!(bm.get::<u32>(5, 0).as_deref(), Some(&vec![1, 2]));
        assert_eq!(metrics.snapshot().spill_read_bytes(), 8);
        assert!(bm.memory_bytes() <= 16);
        assert!(bm.has_all(5, 3));
        // Nothing was dropped: every block still reads, none recomputes.
        for partition in 0..3 {
            assert!(bm.get::<u32>(5, partition).is_some());
        }
        assert_eq!(metrics.snapshot().recompute_count(), 0);
    }

    #[test]
    fn oversized_block_is_evicted_immediately() {
        let (bm, metrics) = bounded(10);
        bm.put(2, 0, vec![0u8; 64], 64, StorageLevel::MemoryRaw);
        assert_eq!(bm.memory_bytes(), 0, "budget is a hard ceiling");
        assert!(!bm.contains(2, 0));
        assert_eq!(bm.get::<u8>(2, 0), None);
        assert_eq!(metrics.snapshot().recompute_count(), 1);
    }

    #[test]
    fn unpersist_purges_disk_blocks_and_tombstones() {
        let (bm, metrics) = bounded(8);
        bm.put(4, 0, vec![0u64], 8, StorageLevel::MemoryAndDisk);
        bm.put(4, 1, vec![0u64], 8, StorageLevel::MemoryAndDisk);
        bm.put(4, 2, vec![0u64], 8, StorageLevel::MemoryRaw);
        bm.put(4, 3, vec![0u64], 8, StorageLevel::MemoryRaw);
        // Budget 8 holds one block: 0 and 1 spilled, 2 was dropped
        // (tombstoned), 3 is resident — 3 blocks to remove.
        assert_eq!(bm.remove_rdd(4), 3);
        assert_eq!(bm.total_bytes(), 0);
        assert_eq!(bm.memory_bytes(), 0);
        // Tombstones are cleared too: a miss on block 2 is no recompute.
        assert_eq!(bm.get::<u64>(4, 2), None);
        assert_eq!(metrics.snapshot().recompute_count(), 0);
    }
}
