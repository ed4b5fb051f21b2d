//! Block manager: memory-governed RDD caching.
//!
//! CSTF caches the tensor RDD so CP-ALS iterations reuse it without
//! recomputation ("keeping the tensor in memory can improve the performance
//! significantly since the tensor data is reused across iterations", paper
//! §4.1), and QCOO explicitly unpersists the previous MTTKRP's queue RDD
//! (§4.2). The block manager stores computed partitions keyed by
//! `(rdd_id, partition)` in one map.
//!
//! Storage is governed by an optional byte budget
//! ([`crate::ClusterConfig::memory_budget`]): when the block manager's
//! resident bytes exceed it, the least-recently-used resident block is
//! *evicted*. The memory ledger is the block manager's own — the shuffle
//! service is handed the same figure and keeps a second, separate ledger
//! ([`crate::shuffle`]), so "resident ≤ budget" holds per store and the
//! two together are bounded by twice the budget. What eviction means
//! depends on the block's [`StorageLevel`]:
//!
//! * [`StorageLevel::MemoryRaw`] blocks are dropped — a later read misses
//!   and the owning [`crate::rdd::nodes::CachedNode`] recomputes the
//!   partition from lineage, exactly like recovery after a lost node;
//! * [`StorageLevel::MemoryAndDisk`] blocks are *spilled*: they stay in
//!   the map flagged `spilled`, off the memory ledger, and the next read
//!   promotes them back. The cluster is one process and records carry no
//!   serialization bound, so a spill is an accounting state: no file is
//!   written.
//!
//! Every eviction, spill, reload and recompute is one
//! [`crate::metrics::Meter`] event in the metrics log under the owner
//! `rdd-<id>`; the log is the only count of them.

use crate::hash::{FxHashMap, FxHashSet};
use crate::metrics::MetricsRegistry;
use parking_lot::Mutex;
use std::any::Any;
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

struct Block {
    data: Arc<dyn Any + Send + Sync>,
    bytes: u64,
    level: StorageLevel,
    last_use: u64,
    /// Whether this block has been spilled (is off the memory ledger).
    spilled: bool,
}

#[derive(Default)]
struct Inner {
    /// Every resident block, in memory or spilled.
    blocks: FxHashMap<(usize, usize), Block>,
    /// Blocks dropped by the budget enforcer; a later miss on one of these
    /// keys is a lineage *recompute*, not a first computation.
    evicted: FxHashSet<(usize, usize)>,
    /// Bytes of non-spilled blocks (counted against the budget).
    mem_bytes: u64,
    peak_mem_bytes: u64,
    tick: u64,
}

impl Inner {
    /// Takes a retired block off the memory ledger (a spilled one left it
    /// when it spilled).
    fn release(&mut self, block: &Block) {
        if !block.spilled {
            self.mem_bytes -= block.bytes;
        }
    }
}

/// Thread-safe, budget-governed cache of computed partitions.
pub struct BlockManager {
    inner: Mutex<Inner>,
    budget: Option<u64>,
    metrics: Arc<MetricsRegistry>,
}

fn owner(rdd_id: usize) -> String {
    format!("rdd-{rdd_id}")
}

impl BlockManager {
    /// Creates an empty block manager with an optional byte budget,
    /// logging its storage events to `metrics`.
    pub fn new(budget: Option<u64>, metrics: Arc<MetricsRegistry>) -> Self {
        BlockManager {
            inner: Mutex::default(),
            budget,
            metrics,
        }
    }

    /// Drops or spills least-recently-used memory blocks until resident
    /// bytes fit the budget, then raises the peak. `protect` is evicted
    /// only as a last resort (when it alone exceeds the budget). Returns
    /// the dropped (memory-only) blocks: the caller frees them after
    /// releasing the lock.
    #[must_use]
    fn enforce_budget(&self, inner: &mut Inner, protect: (usize, usize)) -> Vec<Block> {
        let mut dropped = Vec::new();
        while inner.mem_bytes > self.budget.unwrap_or(u64::MAX) {
            let in_memory = |b: &Block| !b.spilled;
            let victim = inner
                .blocks
                .iter()
                .filter(|(k, b)| in_memory(b) && **k != protect)
                .min_by_key(|(k, b)| (b.last_use, **k))
                .map(|(k, _)| *k)
                .or_else(|| {
                    let protected = inner.blocks.get(&protect);
                    protected.is_some_and(in_memory).then_some(protect)
                });
            let Some(key) = victim else { break };
            let owner = owner(key.0);
            let block = inner.blocks.get_mut(&key).expect("victim block present");
            let bytes = block.bytes;
            self.metrics.record_storage_eviction(&owner, bytes);
            inner.mem_bytes -= bytes;
            if block.level == StorageLevel::MemoryAndDisk {
                block.spilled = true;
                self.metrics.record_spill_write(&owner, bytes);
            } else {
                inner.evicted.insert(key);
                dropped.extend(inner.blocks.remove(&key));
            }
        }
        // Peak is post-enforcement: the high-water mark of *resident*
        // bytes, never transient over-budget states.
        inner.peak_mem_bytes = inner.peak_mem_bytes.max(inner.mem_bytes);
        dropped
    }

    /// Stores a computed partition at the given level, evicting older
    /// blocks if the memory budget would be exceeded.
    pub fn put<T: Send + Sync + 'static>(
        &self,
        rdd_id: usize,
        partition: usize,
        data: Vec<T>,
        bytes: u64,
        level: StorageLevel,
    ) {
        let key = (rdd_id, partition);
        let mut inner = self.inner.lock();
        inner.tick += 1;
        let block = Block {
            data: Arc::new(data),
            bytes,
            level,
            last_use: inner.tick,
            spilled: false,
        };
        inner.evicted.remove(&key);
        // Replace semantics: retire any stale copy of this key. Like every
        // block this call retires, it is freed after the lock is released
        // — a partition's records can take milliseconds to drop.
        let stale = inner.blocks.insert(key, block);
        if let Some(old) = &stale {
            inner.release(old);
        }
        inner.mem_bytes += bytes;
        let dropped = self.enforce_budget(&mut inner, key);
        drop(inner);
        drop((stale, dropped));
    }

    /// Fetches a cached partition as the stored `Arc` (no deep clone).
    ///
    /// A hit refreshes the block's LRU recency; a hit on a spilled block
    /// logs a spill read and promotes the block back into memory,
    /// re-running budget enforcement. Returns `None` when the block was
    /// never stored or was dropped — the caller recomputes from lineage.
    pub fn get<T: Send + Sync + 'static>(
        &self,
        rdd_id: usize,
        partition: usize,
    ) -> Option<Arc<Vec<T>>> {
        let key = (rdd_id, partition);
        let mut inner = self.inner.lock();
        inner.tick += 1;
        let tick = inner.tick;
        let block = inner.blocks.get_mut(&key)?;
        block.last_use = tick;
        let data = block.data.clone();
        if !block.spilled {
            drop(inner);
            return Some(downcast::<T>(data));
        }
        block.spilled = false;
        let bytes = block.bytes;
        inner.mem_bytes += bytes;
        let dropped = self.enforce_budget(&mut inner, key);
        drop(inner);
        // Blocks the promotion pushed out are freed here, unlocked.
        drop(dropped);
        self.metrics.record_spill_read(&owner(rdd_id), bytes);
        Some(downcast::<T>(data))
    }

    /// Pops the eviction tombstone for a block, logging a lineage
    /// recompute if one was set. Called by the cached node when a read
    /// misses, so metrics distinguish first computation from
    /// recompute-after-eviction.
    pub(crate) fn begin_recompute(&self, rdd_id: usize, partition: usize) -> bool {
        let was_evicted = self.inner.lock().evicted.remove(&(rdd_id, partition));
        if was_evicted {
            self.metrics.record_storage_recompute(&owner(rdd_id));
        }
        was_evicted
    }

    /// Whether a specific partition is resident (in memory or spilled).
    pub fn contains(&self, rdd_id: usize, partition: usize) -> bool {
        self.inner.lock().blocks.contains_key(&(rdd_id, partition))
    }

    /// Whether *all* `num_partitions` partitions of an RDD are resident —
    /// in memory or spilled — which lets the scheduler prune lineage above
    /// a fully-cached RDD (spilled blocks reload without lineage).
    pub(crate) fn has_all(&self, rdd_id: usize, num_partitions: usize) -> bool {
        let inner = self.inner.lock();
        (0..num_partitions).all(|p| inner.blocks.contains_key(&(rdd_id, p)))
    }

    /// Removes every resident block (and eviction tombstone) whose
    /// `(rdd, partition)` key is `doomed`; returns how many blocks went.
    /// The ledger is settled under the lock, the blocks' records are freed
    /// after it is released.
    fn remove_blocks(&self, doomed: impl Fn((usize, usize)) -> bool) -> usize {
        let mut inner = self.inner.lock();
        let keys: Vec<(usize, usize)> = inner
            .blocks
            .keys()
            .copied()
            .filter(|&k| doomed(k))
            .collect();
        let mut removed = Vec::with_capacity(keys.len());
        for key in keys {
            let block = inner.blocks.remove(&key).expect("key just listed");
            inner.release(&block);
            removed.push(block);
        }
        inner.evicted.retain(|&k| !doomed(k));
        drop(inner);
        removed.len()
    }

    /// Drops every resident block for which `lost(partition)` is true —
    /// the cache loss caused by a node failure (a node's local disk is
    /// lost with it). Returns removed block count.
    pub fn remove_where(&self, lost: impl Fn(usize) -> bool) -> usize {
        self.remove_blocks(|(_, partition)| lost(partition))
    }

    /// Drops every resident partition of an RDD (Spark `unpersist`),
    /// in memory or spilled. Returns how many blocks were removed.
    pub fn remove_rdd(&self, rdd_id: usize) -> usize {
        self.remove_blocks(|(id, _)| id == rdd_id)
    }

    /// Estimated bytes resident in memory (counted against the budget).
    pub fn memory_bytes(&self) -> u64 {
        self.inner.lock().mem_bytes
    }

    /// High-water mark of [`Self::memory_bytes`] over the manager's life.
    pub fn peak_memory_bytes(&self) -> u64 {
        self.inner.lock().peak_mem_bytes
    }

    /// Estimated bytes across all resident blocks (memory + spilled).
    pub fn total_bytes(&self) -> u64 {
        self.inner.lock().blocks.values().map(|b| b.bytes).sum()
    }

    /// Number of resident blocks (memory + spilled).
    pub fn len(&self) -> usize {
        self.inner.lock().blocks.len()
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Storage level of a resident partition, if present.
    pub fn level_of(&self, rdd_id: usize, partition: usize) -> Option<StorageLevel> {
        let inner = self.inner.lock();
        inner.blocks.get(&(rdd_id, partition)).map(|b| b.level)
    }
}

fn downcast<T: Send + Sync + 'static>(data: Arc<dyn Any + Send + Sync>) -> Arc<Vec<T>> {
    match data.downcast::<Vec<T>>() {
        Ok(v) => v,
        Err(_) => panic!("cached block read with mismatched type"),
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
        // A miss on the evicted key registers as a pending recompute, once.
        assert!(bm.begin_recompute(1, 1));
        assert!(!bm.begin_recompute(1, 1));
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
        // Nothing was dropped, so no recompute is pending anywhere.
        assert!(!bm.begin_recompute(5, 0));
        assert!(!bm.begin_recompute(5, 1));
        assert!(!bm.begin_recompute(5, 2));
    }

    #[test]
    fn oversized_block_is_evicted_immediately() {
        let (bm, _) = bounded(10);
        bm.put(2, 0, vec![0u8; 64], 64, StorageLevel::MemoryRaw);
        assert_eq!(bm.memory_bytes(), 0, "budget is a hard ceiling");
        assert!(!bm.contains(2, 0));
        assert!(bm.begin_recompute(2, 0));
    }

    #[test]
    fn unpersist_purges_disk_blocks_and_tombstones() {
        let (bm, _) = bounded(8);
        bm.put(4, 0, vec![0u64], 8, StorageLevel::MemoryAndDisk);
        bm.put(4, 1, vec![0u64], 8, StorageLevel::MemoryAndDisk);
        bm.put(4, 2, vec![0u64], 8, StorageLevel::MemoryRaw);
        bm.put(4, 3, vec![0u64], 8, StorageLevel::MemoryRaw);
        // Budget 8 holds one block: 0 and 1 spilled, 2 was dropped
        // (tombstoned), 3 is resident — 3 blocks to remove.
        assert_eq!(bm.remove_rdd(4), 3);
        assert_eq!(bm.total_bytes(), 0);
        assert_eq!(bm.memory_bytes(), 0);
        // Tombstones are cleared too: no recompute pending for block 2.
        assert!(!bm.begin_recompute(4, 2));
    }
}
