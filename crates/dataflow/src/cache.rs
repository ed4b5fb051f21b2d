//! Block manager: memory-governed RDD caching.
//!
//! CSTF caches the tensor RDD so CP-ALS iterations reuse it without
//! recomputation ("keeping the tensor in memory can improve the performance
//! significantly since the tensor data is reused across iterations", paper
//! §4.1), and QCOO explicitly unpersists the previous MTTKRP's queue RDD
//! (§4.2). The block manager stores computed partitions keyed by
//! `(rdd_id, partition)`.
//!
//! Storage is governed by an optional byte budget
//! ([`crate::ClusterConfig::memory_budget`]): when the block manager's
//! resident bytes exceed it, the least-recently-used block is *evicted*.
//! The ledger is the block manager's own — the shuffle service is handed
//! the same figure and keeps a second, separate ledger
//! ([`crate::shuffle`]), so "resident ≤ budget" holds per store and the
//! two together are bounded by twice the budget. What eviction means
//! depends on the block's [`StorageLevel`]:
//!
//! * [`StorageLevel::MemoryRaw`] blocks are dropped — a later read misses
//!   and the owning [`crate::rdd::nodes::CachedNode`] recomputes the
//!   partition from lineage, exactly like recovery after a lost node;
//! * [`StorageLevel::MemoryAndDisk`] blocks are *spilled*: they leave the
//!   memory ledger for the disk tier and are transparently reloaded (and
//!   promoted back to memory) on the next read, with the modeled
//!   serialization cost charged through
//!   [`crate::metrics::Meter::SpillWrite`]/`SpillRead` events that the
//!   `cstf-model` time model prices at its spill throughputs. The cluster
//!   is one process and records carry no serialization bound, so the disk
//!   tier is an accounting tier: a spilled block's records stay reachable
//!   here and no file is written.

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
    /// `MEMORY_AND_DISK`). Evicted blocks move to the disk tier and are
    /// promoted back to memory on the next read.
    MemoryAndDisk,
    /// Straight to local disk (Spark `DISK_ONLY`); never occupies budget,
    /// every read pays the spill-read cost.
    DiskOnly,
}

impl StorageLevel {
    /// Whether eviction moves the block to disk instead of dropping it.
    pub fn spills_to_disk(self) -> bool {
        matches!(self, StorageLevel::MemoryAndDisk | StorageLevel::DiskOnly)
    }
}

struct Block {
    data: Arc<dyn Any + Send + Sync>,
    bytes: u64,
    level: StorageLevel,
    last_use: u64,
}

#[derive(Default)]
struct Inner {
    /// Memory-resident blocks (counted against the budget).
    mem: FxHashMap<(usize, usize), Block>,
    /// Disk-resident blocks (spilled or `DiskOnly`; not counted).
    disk: FxHashMap<(usize, usize), Block>,
    /// Blocks dropped by the budget enforcer; a later miss on one of these
    /// keys is a lineage *recompute*, not a first computation.
    evicted: FxHashSet<(usize, usize)>,
    mem_bytes: u64,
    peak_mem_bytes: u64,
    tick: u64,
}

#[derive(Default)]
struct Stats {
    eviction_count: u64,
    evicted_bytes: u64,
    spilled_bytes: u64,
    spill_read_bytes: u64,
    recompute_count: u64,
}

/// Thread-safe, budget-governed cache of computed partitions.
#[derive(Default)]
pub struct BlockManager {
    inner: Mutex<Inner>,
    stats: Mutex<Stats>,
    budget: Option<u64>,
    metrics: Option<Arc<MetricsRegistry>>,
}

fn owner(rdd_id: usize) -> String {
    format!("rdd-{rdd_id}")
}

impl BlockManager {
    /// Creates an empty, unbounded block manager (no budget, no metrics).
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates a block manager with an optional byte budget, reporting
    /// storage events to `metrics`.
    pub fn with_budget(budget: Option<u64>, metrics: Arc<MetricsRegistry>) -> Self {
        BlockManager {
            budget,
            metrics: Some(metrics),
            ..Self::default()
        }
    }

    fn record_eviction(&self, rdd_id: usize, bytes: u64) {
        let mut stats = self.stats.lock();
        stats.eviction_count += 1;
        stats.evicted_bytes += bytes;
        drop(stats);
        if let Some(m) = &self.metrics {
            m.record_storage_eviction(&owner(rdd_id), bytes);
        }
    }

    fn record_spill_write(&self, rdd_id: usize, bytes: u64) {
        self.stats.lock().spilled_bytes += bytes;
        if let Some(m) = &self.metrics {
            m.record_spill_write(&owner(rdd_id), bytes);
        }
    }

    fn record_spill_read(&self, rdd_id: usize, bytes: u64) {
        self.stats.lock().spill_read_bytes += bytes;
        if let Some(m) = &self.metrics {
            m.record_spill_read(&owner(rdd_id), bytes);
        }
    }

    /// Drops or spills least-recently-used blocks until resident bytes fit
    /// the budget. `protect` is evicted only as a last resort (when it
    /// alone exceeds the budget). Returns the dropped (memory-only) blocks:
    /// the caller frees them after releasing the lock.
    #[must_use]
    fn enforce_budget(&self, inner: &mut Inner, protect: (usize, usize)) -> Vec<Block> {
        let mut dropped = Vec::new();
        let Some(budget) = self.budget else {
            return dropped;
        };
        while inner.mem_bytes > budget {
            let victim = inner
                .mem
                .iter()
                .filter(|(k, _)| **k != protect)
                .min_by_key(|(k, b)| (b.last_use, **k))
                .map(|(k, _)| *k)
                .or_else(|| inner.mem.contains_key(&protect).then_some(protect));
            let Some(key) = victim else { break };
            let block = inner.mem.remove(&key).expect("victim block present");
            inner.mem_bytes -= block.bytes;
            self.record_eviction(key.0, block.bytes);
            if block.level.spills_to_disk() {
                self.record_spill_write(key.0, block.bytes);
                inner.disk.insert(key, block);
            } else {
                inner.evicted.insert(key);
                dropped.push(block);
            }
        }
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
        let block = Block {
            data: Arc::new(data),
            bytes,
            level,
            last_use: 0,
        };
        let mut inner = self.inner.lock();
        inner.tick += 1;
        let tick = inner.tick;
        inner.evicted.remove(&key);
        // Replace semantics: retire any stale copy of this key first. Like
        // every block this call retires, it is freed after the lock is
        // released — a partition's records can take milliseconds to drop.
        let stale_mem = inner.mem.remove(&key);
        if let Some(old) = &stale_mem {
            inner.mem_bytes -= old.bytes;
        }
        let _stale_disk = inner.disk.remove(&key);
        if level == StorageLevel::DiskOnly {
            inner.disk.insert(key, block);
            drop(inner);
            self.record_spill_write(rdd_id, bytes);
            return;
        }
        let mut block = block;
        block.last_use = tick;
        inner.mem_bytes += bytes;
        inner.mem.insert(key, block);
        let _dropped = self.enforce_budget(&mut inner, key);
        // Peak is post-enforcement: the high-water mark of *resident*
        // bytes, never transient over-budget states.
        inner.peak_mem_bytes = inner.peak_mem_bytes.max(inner.mem_bytes);
        drop(inner);
        // The stale copies and `_dropped` are freed on return, unlocked.
    }

    /// Fetches a cached partition as the stored `Arc` (no deep clone).
    ///
    /// A memory hit refreshes the block's LRU recency. A disk hit charges
    /// the spill-read cost; `MemoryAndDisk` blocks are promoted back into
    /// memory (re-running budget enforcement), `DiskOnly` blocks stay on
    /// disk. Returns `None` when the block was never stored or was evicted
    /// — the caller recomputes from lineage.
    pub fn get<T: Send + Sync + 'static>(
        &self,
        rdd_id: usize,
        partition: usize,
    ) -> Option<Arc<Vec<T>>> {
        let key = (rdd_id, partition);
        let mut inner = self.inner.lock();
        inner.tick += 1;
        let tick = inner.tick;
        if let Some(block) = inner.mem.get_mut(&key) {
            block.last_use = tick;
            let data = block.data.clone();
            drop(inner);
            return Some(downcast::<T>(data));
        }
        let block = inner.disk.get(&key)?;
        let bytes = block.bytes;
        let promote = block.level == StorageLevel::MemoryAndDisk;
        let data = block.data.clone();
        // Blocks the promotion pushes out are freed on return, unlocked.
        let _dropped = if promote {
            let mut block = inner.disk.remove(&key).expect("disk block present");
            block.last_use = tick;
            inner.mem_bytes += bytes;
            inner.mem.insert(key, block);
            let dropped = self.enforce_budget(&mut inner, key);
            inner.peak_mem_bytes = inner.peak_mem_bytes.max(inner.mem_bytes);
            dropped
        } else {
            Vec::new()
        };
        drop(inner);
        self.record_spill_read(rdd_id, bytes);
        Some(downcast::<T>(data))
    }

    /// Pops the eviction tombstone for a block, recording a lineage
    /// recompute if one was set. Called by the cached node when a read
    /// misses, so metrics distinguish first computation from
    /// recompute-after-eviction.
    pub fn begin_recompute(&self, rdd_id: usize, partition: usize) -> bool {
        let was_evicted = self.inner.lock().evicted.remove(&(rdd_id, partition));
        if was_evicted {
            self.stats.lock().recompute_count += 1;
            if let Some(m) = &self.metrics {
                m.record_storage_recompute(&owner(rdd_id));
            }
        }
        was_evicted
    }

    /// Whether a specific partition is resident (in memory or on disk).
    pub fn contains(&self, rdd_id: usize, partition: usize) -> bool {
        let inner = self.inner.lock();
        let key = (rdd_id, partition);
        inner.mem.contains_key(&key) || inner.disk.contains_key(&key)
    }

    /// Whether *all* `num_partitions` partitions of an RDD are resident —
    /// in memory or spilled to disk — which lets the scheduler prune
    /// lineage above a fully-cached RDD (spilled blocks reload without
    /// lineage).
    pub fn has_all(&self, rdd_id: usize, num_partitions: usize) -> bool {
        let inner = self.inner.lock();
        (0..num_partitions)
            .all(|p| inner.mem.contains_key(&(rdd_id, p)) || inner.disk.contains_key(&(rdd_id, p)))
    }

    /// Removes every resident block (and eviction tombstone) whose
    /// `(rdd, partition)` key is `doomed`; returns how many blocks went.
    /// The ledger is settled under the lock, the blocks' records are freed
    /// after it is released.
    fn remove_blocks(&self, doomed: impl Fn((usize, usize)) -> bool) -> usize {
        let doomed_keys = |blocks: &FxHashMap<(usize, usize), Block>| -> Vec<(usize, usize)> {
            blocks.keys().copied().filter(|&k| doomed(k)).collect()
        };
        let mut removed = Vec::new();
        let mut inner = self.inner.lock();
        for key in doomed_keys(&inner.mem) {
            let block = inner.mem.remove(&key).expect("key just listed");
            inner.mem_bytes -= block.bytes;
            removed.push(block);
        }
        for key in doomed_keys(&inner.disk) {
            removed.extend(inner.disk.remove(&key));
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
    /// memory and disk alike. Returns how many blocks were removed.
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

    /// Estimated bytes of blocks currently spilled to disk.
    pub fn disk_bytes(&self) -> u64 {
        self.inner.lock().disk.values().map(|b| b.bytes).sum()
    }

    /// Estimated bytes across all resident blocks (memory + disk).
    pub fn total_bytes(&self) -> u64 {
        let inner = self.inner.lock();
        inner.mem_bytes + inner.disk.values().map(|b| b.bytes).sum::<u64>()
    }

    /// The configured memory budget, if any.
    pub fn budget(&self) -> Option<u64> {
        self.budget
    }

    /// How many blocks the budget enforcer has dropped or spilled.
    pub fn eviction_count(&self) -> u64 {
        self.stats.lock().eviction_count
    }

    /// Total bytes evicted from memory by the budget enforcer.
    pub fn evicted_bytes(&self) -> u64 {
        self.stats.lock().evicted_bytes
    }

    /// Total bytes written to the disk store (spill-outs + `DiskOnly` puts).
    pub fn spilled_bytes(&self) -> u64 {
        self.stats.lock().spilled_bytes
    }

    /// Total bytes read back from the disk store.
    pub fn spill_read_bytes(&self) -> u64 {
        self.stats.lock().spill_read_bytes
    }

    /// How many evicted blocks were recomputed from lineage.
    pub fn recompute_count(&self) -> u64 {
        self.stats.lock().recompute_count
    }

    /// Number of resident blocks (memory + disk).
    pub fn len(&self) -> usize {
        let inner = self.inner.lock();
        inner.mem.len() + inner.disk.len()
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Storage level of a resident partition, if present.
    pub fn level_of(&self, rdd_id: usize, partition: usize) -> Option<StorageLevel> {
        let inner = self.inner.lock();
        let key = (rdd_id, partition);
        inner
            .mem
            .get(&key)
            .or_else(|| inner.disk.get(&key))
            .map(|b| b.level)
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

    #[test]
    fn put_get_roundtrip() {
        let bm = BlockManager::new();
        bm.put(1, 0, vec![1u32, 2, 3], 12, StorageLevel::MemoryRaw);
        assert_eq!(bm.get::<u32>(1, 0).as_deref(), Some(&vec![1, 2, 3]));
        assert_eq!(bm.get::<u32>(1, 1), None);
        assert_eq!(bm.get::<u32>(2, 0), None);
        assert!(bm.contains(1, 0));
        assert_eq!(bm.level_of(1, 0), Some(StorageLevel::MemoryRaw));
    }

    #[test]
    fn get_returns_the_stored_arc_without_cloning() {
        let bm = BlockManager::new();
        bm.put(3, 0, vec![7u64; 8], 64, StorageLevel::MemoryRaw);
        let a = bm.get::<u64>(3, 0).unwrap();
        let b = bm.get::<u64>(3, 0).unwrap();
        assert!(Arc::ptr_eq(&a, &b), "reads must share the stored Arc");
    }

    #[test]
    fn has_all_requires_every_partition() {
        let bm = BlockManager::new();
        bm.put(7, 0, vec![0u8], 1, StorageLevel::MemoryRaw);
        bm.put(7, 2, vec![0u8], 1, StorageLevel::MemoryRaw);
        assert!(!bm.has_all(7, 3));
        bm.put(7, 1, vec![0u8], 1, StorageLevel::MemoryRaw);
        assert!(bm.has_all(7, 3));
    }

    #[test]
    fn remove_rdd_evicts_only_that_rdd() {
        let bm = BlockManager::new();
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
        let bm = BlockManager::new();
        bm.put(1, 0, vec![0u64; 4], 32, StorageLevel::MemoryRaw);
        bm.put(1, 1, vec![0u64; 2], 16, StorageLevel::MemoryRaw);
        assert_eq!(bm.total_bytes(), 48);
        assert_eq!(bm.memory_bytes(), 48);
        assert!(!bm.is_empty());
    }

    #[test]
    #[should_panic(expected = "mismatched type")]
    fn type_confusion_panics() {
        let bm = BlockManager::new();
        bm.put(1, 0, vec![1u32], 4, StorageLevel::MemoryRaw);
        let _ = bm.get::<u64>(1, 0);
    }

    fn bounded(budget: u64) -> BlockManager {
        BlockManager::with_budget(Some(budget), Arc::new(MetricsRegistry::new()))
    }

    #[test]
    fn lru_evicts_least_recently_used_memory_block() {
        let bm = bounded(24);
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
        assert_eq!(bm.eviction_count(), 1);
        assert_eq!(bm.evicted_bytes(), 8);
        assert!(bm.memory_bytes() <= 24);
        // A miss on the evicted key registers as a pending recompute, once.
        assert!(bm.begin_recompute(1, 1));
        assert!(!bm.begin_recompute(1, 1));
        assert_eq!(bm.recompute_count(), 1);
    }

    #[test]
    fn memory_and_disk_spills_and_reloads() {
        let bm = bounded(16);
        bm.put(5, 0, vec![1u32, 2], 8, StorageLevel::MemoryAndDisk);
        bm.put(5, 1, vec![3u32, 4], 8, StorageLevel::MemoryAndDisk);
        bm.put(5, 2, vec![5u32, 6], 8, StorageLevel::MemoryAndDisk);
        assert_eq!(bm.spilled_bytes(), 8);
        assert_eq!(bm.disk_bytes(), 8);
        assert!(bm.has_all(5, 3), "spilled blocks still count as resident");
        // Reload promotes the spilled block back into memory (evicting
        // another block to make room) and charges a spill read.
        assert_eq!(bm.get::<u32>(5, 0).as_deref(), Some(&vec![1, 2]));
        assert_eq!(bm.spill_read_bytes(), 8);
        assert!(bm.memory_bytes() <= 16);
        assert!(bm.has_all(5, 3));
        // Nothing was dropped, so no recompute is pending anywhere.
        assert!(!bm.begin_recompute(5, 0));
        assert!(!bm.begin_recompute(5, 1));
        assert!(!bm.begin_recompute(5, 2));
    }

    #[test]
    fn disk_only_bypasses_the_budget() {
        let bm = bounded(8);
        bm.put(9, 0, vec![0u8; 100], 100, StorageLevel::DiskOnly);
        assert_eq!(bm.memory_bytes(), 0);
        assert_eq!(bm.disk_bytes(), 100);
        assert_eq!(bm.spilled_bytes(), 100);
        assert!(bm.get::<u8>(9, 0).is_some());
        assert_eq!(bm.spill_read_bytes(), 100);
        // DiskOnly is never promoted: a second read pays again.
        assert!(bm.get::<u8>(9, 0).is_some());
        assert_eq!(bm.spill_read_bytes(), 200);
        assert_eq!(bm.memory_bytes(), 0);
    }

    #[test]
    fn oversized_block_is_evicted_immediately() {
        let bm = bounded(10);
        bm.put(2, 0, vec![0u8; 64], 64, StorageLevel::MemoryRaw);
        assert_eq!(bm.memory_bytes(), 0, "budget is a hard ceiling");
        assert!(!bm.contains(2, 0));
        assert!(bm.begin_recompute(2, 0));
    }

    #[test]
    fn unpersist_purges_disk_blocks_and_tombstones() {
        let bm = bounded(8);
        bm.put(4, 0, vec![0u64], 8, StorageLevel::MemoryAndDisk);
        bm.put(4, 1, vec![0u64], 8, StorageLevel::MemoryAndDisk);
        bm.put(4, 2, vec![0u64], 8, StorageLevel::MemoryRaw);
        bm.put(4, 3, vec![0u64], 8, StorageLevel::MemoryRaw);
        // Budget 8 holds one block: 0 and 1 spilled to disk, 2 was dropped
        // (tombstoned), 3 is resident — 3 blocks to remove.
        assert_eq!(bm.remove_rdd(4), 3);
        assert_eq!(bm.disk_bytes(), 0);
        assert_eq!(bm.memory_bytes(), 0);
        // Tombstones are cleared too: no recompute pending for block 2.
        assert!(!bm.begin_recompute(4, 2));
    }
}
