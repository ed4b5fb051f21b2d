//! One block store under a byte budget, shared by the block manager
//! ([`crate::cache`]) and the shuffle service ([`crate::shuffle`]).
//!
//! A block is keyed by `(owner id, index)` — `(rdd, partition)` or
//! `(shuffle, map partition)` — and carries its type-erased records, their
//! estimated bytes, a recency tick and a `spilled` flag. One memory ledger
//! counts the bytes of the blocks in memory against the budget
//! ([`crate::ClusterConfig::memory_budget`]) and keeps their peak. When
//! they exceed it, the least recent in-memory block is evicted: a block
//! stored as spilling stays stored, flagged `spilled` and off the ledger
//! (the cluster is one process, so no file is written), any other block
//! is dropped and leaves a tombstone. The first writer of a key wins. Every
//! change goes through [`Store::update`], which settles the ledger under
//! the lock and frees retired records after releasing it: a partition's
//! records can take milliseconds to drop, and no reader should wait.
//!
//! [`crate::Cluster`] builds one store per service, each with the same
//! budget figure, so the two together hold at most twice it. Each eviction
//! and spill is a [`crate::metrics::Meter`] event under the block's owner,
//! `rdd-<id>` or `shuffle-<id>`: a cached block logs `Evicted` (and
//! `SpillWrite` when it spills), a map output only ever spills and logs
//! `SpillWrite` alone.

use crate::hash::{FxHashMap, FxHashSet};
use crate::metrics::MetricsRegistry;
use parking_lot::Mutex;
use std::any::Any;
use std::sync::Arc;

/// `(owner id, index)`: `(rdd, partition)` or `(shuffle, map partition)`.
pub(crate) type Key = (usize, usize);

/// A block's records, type-erased; the owning service downcasts on read.
pub(crate) type Payload = Arc<dyn Any + Send + Sync>;

/// One stored block.
pub(crate) struct Block {
    pub(crate) data: Payload,
    pub(crate) bytes: u64,
    /// Whether an eviction spills this block rather than dropping it.
    pub(crate) spills: bool,
    /// Whether it has spilled: still stored, off the memory ledger.
    pub(crate) spilled: bool,
    last_use: u64,
}

/// Everything the store's lock guards: the blocks, the memory ledger and
/// the service's own state `S`.
#[derive(Default)]
pub(crate) struct Ledger<S> {
    blocks: FxHashMap<Key, Block>,
    /// Keys of blocks an eviction dropped: a later miss on one is a
    /// lineage recompute, not a first computation.
    tombstones: FxHashSet<Key>,
    /// Bytes of the blocks in memory (counted against the budget).
    mem_bytes: u64,
    peak_mem_bytes: u64,
    tick: u64,
    /// Records retired under the lock, freed after it is released.
    retired: Vec<Payload>,
    /// State of the service that owns the store, under the same lock.
    pub(crate) own: S,
}

impl<S> Ledger<S> {
    /// The block stored under `key`, in memory or spilled.
    pub(crate) fn block(&self, key: Key) -> Option<&Block> {
        self.blocks.get(&key)
    }

    /// Every stored block, in memory or spilled.
    pub(crate) fn blocks(&self) -> impl ExactSizeIterator<Item = &Block> {
        self.blocks.values()
    }

    /// Stores a block in memory unless `key` holds one already: the first
    /// writer wins, and a duplicate's records are freed after the lock.
    pub(crate) fn insert(&mut self, key: Key, data: Payload, bytes: u64, spills: bool) {
        if self.blocks.contains_key(&key) {
            self.retired.push(data);
            return;
        }
        self.tick += 1;
        self.tombstones.remove(&key);
        self.mem_bytes += bytes;
        let block = Block {
            data,
            bytes,
            spills,
            spilled: false,
            last_use: self.tick,
        };
        self.blocks.insert(key, block);
    }

    /// A read of `key` that refreshes its recency and brings it back into
    /// memory if it had spilled. Returns its records, and the bytes
    /// reloaded from disk if it had spilled.
    pub(crate) fn reload(&mut self, key: Key) -> Option<(Payload, Option<u64>)> {
        self.tick += 1;
        let block = self.blocks.get_mut(&key)?;
        block.last_use = self.tick;
        let reloaded = block.spilled.then_some(block.bytes);
        if block.spilled {
            block.spilled = false;
            self.mem_bytes += block.bytes;
        }
        Some((block.data.clone(), reloaded))
    }

    /// Pops the tombstone an eviction left on `key`: whether it had one.
    pub(crate) fn take_tombstone(&mut self, key: Key) -> bool {
        self.tombstones.remove(&key)
    }

    /// Takes `key`'s block off the ledger and retires its records.
    fn retire(&mut self, key: Key) {
        let block = self.blocks.remove(&key).expect("retired block present");
        if !block.spilled {
            self.mem_bytes -= block.bytes;
        }
        self.retired.push(block.data);
    }

    /// Removes every block, and every tombstone, whose key is `doomed`;
    /// returns how many blocks went.
    pub(crate) fn remove_where(&mut self, doomed: impl Fn(Key) -> bool) -> usize {
        let keys: Vec<Key> = self.blocks.keys().copied().filter(|&k| doomed(k)).collect();
        for &key in &keys {
            self.retire(key);
        }
        self.tombstones.retain(|&k| !doomed(k));
        keys.len()
    }
}

/// A thread-safe block store under an optional byte budget.
pub(crate) struct Store<S> {
    ledger: Mutex<Ledger<S>>,
    /// What the metrics log calls the owners of the blocks: `rdd` or
    /// `shuffle`, suffixed with the owner id.
    owner: &'static str,
    budget: Option<u64>,
    metrics: Arc<MetricsRegistry>,
}

impl<S: Default> Store<S> {
    /// An empty store of `owner`'s blocks, logging to `metrics`.
    pub(crate) fn new(
        owner: &'static str,
        budget: Option<u64>,
        metrics: Arc<MetricsRegistry>,
    ) -> Self {
        Store {
            ledger: Mutex::default(),
            owner,
            budget,
            metrics,
        }
    }

    /// Reads the ledger under the lock.
    pub(crate) fn read<R>(&self, f: impl FnOnce(&Ledger<S>) -> R) -> R {
        f(&self.ledger.lock())
    }

    /// The one way to change the store: runs `f` on the ledger under the
    /// lock and holds memory to the budget, then releases the lock before
    /// freeing the records `f` and the budget retired.
    pub(crate) fn update<R>(&self, f: impl FnOnce(&mut Ledger<S>) -> R) -> R {
        let mut ledger = self.ledger.lock();
        let out = f(&mut ledger);
        self.enforce_budget(&mut ledger);
        let retired = std::mem::take(&mut ledger.retired);
        drop(ledger);
        drop(retired);
        out
    }

    /// Evicts the least recent in-memory block until the blocks in memory
    /// fit the budget, then raises the peak. A block just stored or read
    /// holds the newest tick, so it goes last.
    fn enforce_budget(&self, ledger: &mut Ledger<S>) {
        while ledger.mem_bytes > self.budget.unwrap_or(u64::MAX) {
            let victim = ledger
                .blocks
                .iter()
                .filter(|(_, b)| !b.spilled)
                .min_by_key(|(_, b)| b.last_use)
                .map(|(k, _)| *k);
            let Some(key) = victim else { break };
            let owner = self.owner(key.0);
            let block = ledger.blocks.get_mut(&key).expect("victim block present");
            let bytes = block.bytes;
            // A cached block's eviction is an event of its own; a map
            // output only ever spills, and logs the spill alone.
            if self.owner == "rdd" {
                self.metrics.record_storage_eviction(&owner, bytes);
            }
            if block.spills {
                block.spilled = true;
                ledger.mem_bytes -= bytes;
                self.metrics.record_spill_write(&owner, bytes);
            } else {
                ledger.retire(key);
                ledger.tombstones.insert(key);
            }
        }
        // The peak is post-enforcement: the high-water mark of resident
        // bytes, never a transient over-budget state.
        ledger.peak_mem_bytes = ledger.peak_mem_bytes.max(ledger.mem_bytes);
    }

    /// Bytes of the blocks in memory (counted against the budget).
    pub(crate) fn memory_bytes(&self) -> u64 {
        self.ledger.lock().mem_bytes
    }

    /// High-water mark of [`Self::memory_bytes`] over the store's life.
    pub(crate) fn peak_memory_bytes(&self) -> u64 {
        self.ledger.lock().peak_mem_bytes
    }

    /// The metrics-log owner of the blocks of `id`: `rdd-<id>` or
    /// `shuffle-<id>`.
    pub(crate) fn owner(&self, id: usize) -> String {
        format!("{}-{id}", self.owner)
    }

    /// The metrics log, for the service's own events.
    pub(crate) fn metrics(&self) -> &MetricsRegistry {
        &self.metrics
    }
}
