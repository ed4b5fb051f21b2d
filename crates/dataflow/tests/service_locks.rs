//! The shuffle service and the block manager free record data *after*
//! releasing their lock: dropping a tensor-sized shuffle or cached
//! partition takes milliseconds, and on a shared cluster every other
//! job's `read`/`get`/`put` would wait behind it. The probe records here
//! call back into the store that held them from their destructor — under
//! the lock that is a self-deadlock, so each test runs under a deadline.

mod common;

use common::within;
use cstf_dataflow::cache::BlockManager;
use cstf_dataflow::shuffle::ShuffleService;
use cstf_dataflow::{MetricsRegistry, StorageLevel};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Duration;

const LIMIT: Duration = Duration::from_secs(30);

/// Destructor runs, counted per probe type (each type is used by one
/// test), so the tests also prove the records really died.
static SHUFFLE_PROBES_DROPPED: AtomicUsize = AtomicUsize::new(0);
static BLOCK_PROBES_DROPPED: AtomicUsize = AtomicUsize::new(0);

struct ShuffleProbe(Arc<ShuffleService>);

impl Drop for ShuffleProbe {
    fn drop(&mut self) {
        let _ = self.0.live_shuffles();
        SHUFFLE_PROBES_DROPPED.fetch_add(1, Ordering::SeqCst);
    }
}

struct BlockProbe(Arc<BlockManager>);

impl Drop for BlockProbe {
    fn drop(&mut self) {
        let _ = self.0.memory_bytes();
        BLOCK_PROBES_DROPPED.fetch_add(1, Ordering::SeqCst);
    }
}

/// A service holding shuffles `1` and `2`, two map outputs of one probe
/// record each.
fn shuffles() -> Arc<ShuffleService> {
    let svc = Arc::new(ShuffleService::new());
    for shuffle_id in [1, 2] {
        svc.register(shuffle_id, 2, 1);
        for map_partition in 0..2 {
            let bucket = vec![ShuffleProbe(svc.clone())];
            svc.put_map_output(shuffle_id, map_partition, vec![bucket], vec![8]);
        }
    }
    svc
}

#[test]
fn shuffle_service_frees_records_outside_its_lock() {
    within(LIMIT, "remove / remove_map_outputs_where / clear", || {
        let svc = shuffles();
        svc.remove(1);
        assert_eq!(svc.live_shuffles(), 1);
        assert_eq!(svc.memory_bytes(), 16);
        assert_eq!(svc.remove_map_outputs_where(|map| map == 0), 1);
        assert_eq!(svc.memory_bytes(), 8);
        svc.clear();
        assert_eq!(svc.live_shuffles(), 0);
        assert_eq!(svc.memory_bytes(), 0);
        assert_eq!(SHUFFLE_PROBES_DROPPED.load(Ordering::SeqCst), 4);
    });
}

fn put_probe(bm: &Arc<BlockManager>, rdd: usize, partition: usize, level: StorageLevel) {
    bm.put(rdd, partition, vec![BlockProbe(bm.clone())], 8, level);
}

#[test]
fn block_manager_frees_records_outside_its_lock() {
    within(LIMIT, "remove_rdd / remove_where / replacing put", || {
        let bm = Arc::new(BlockManager::new());
        for partition in 0..3 {
            put_probe(&bm, 7, partition, StorageLevel::MemoryRaw);
        }
        put_probe(&bm, 8, 0, StorageLevel::DiskOnly);
        // Replacing a resident block retires the stale copy.
        put_probe(&bm, 7, 0, StorageLevel::MemoryRaw);
        assert_eq!(bm.remove_where(|partition| partition == 2), 1);
        assert_eq!(bm.remove_rdd(7), 2);
        assert_eq!(bm.remove_rdd(8), 1);
        assert!(bm.is_empty());
        assert_eq!(bm.memory_bytes(), 0);
        assert_eq!(BLOCK_PROBES_DROPPED.load(Ordering::SeqCst), 5);
    });

    within(
        LIMIT,
        "memory-only eviction in put and in a promoting get",
        || {
            let bm = Arc::new(BlockManager::with_budget(
                Some(16),
                Arc::new(MetricsRegistry::new()),
            ));
            put_probe(&bm, 1, 0, StorageLevel::MemoryAndDisk);
            put_probe(&bm, 1, 1, StorageLevel::MemoryRaw);
            // Third block over budget: the LRU block (1, 0) spills to disk.
            put_probe(&bm, 1, 2, StorageLevel::MemoryRaw);
            assert_eq!(bm.eviction_count(), 1);
            // Reading it back promotes it and drops the memory-only (1, 1).
            assert!(bm.get::<BlockProbe>(1, 0).is_some());
            assert!(!bm.contains(1, 1));
            // A fourth block drops the memory-only (1, 2) from inside `put`.
            put_probe(&bm, 1, 3, StorageLevel::MemoryAndDisk);
            assert!(!bm.contains(1, 2));
            assert_eq!(bm.eviction_count(), 3);
            assert_eq!(BLOCK_PROBES_DROPPED.load(Ordering::SeqCst), 5 + 2);
            assert_eq!(bm.remove_rdd(1), 2);
            assert_eq!(BLOCK_PROBES_DROPPED.load(Ordering::SeqCst), 5 + 4);
        },
    );
}
