//! End-to-end engine semantics tests: every operator checked against a
//! sequential reference, plus caching, metrics and determinism.

use cstf_dataflow::{prelude::*, StageKind};
use std::collections::BTreeMap;

fn cluster() -> Cluster {
    Cluster::new(ClusterConfig::local(4).nodes(4))
}

fn sorted<T: Ord>(mut v: Vec<T>) -> Vec<T> {
    v.sort();
    v
}

#[test]
fn parallelize_collect_roundtrip() {
    let c = cluster();
    let data: Vec<u32> = (0..1000).collect();
    let rdd = c.parallelize(data.clone(), 7);
    assert_eq!(rdd.num_partitions(), 7);
    assert_eq!(rdd.collect(), data); // partition order preserves input order
}

#[test]
fn parallelize_more_partitions_than_elements() {
    let c = cluster();
    let rdd = c.parallelize(vec![1u8, 2], 10);
    assert_eq!(rdd.num_partitions(), 10);
    assert_eq!(rdd.collect(), vec![1, 2]);
    assert_eq!(rdd.count(), 2);
}

#[test]
fn map_filter_flat_map_chain() {
    let c = cluster();
    let out = c
        .parallelize((0u32..100).collect(), 8)
        .map(|x| x * 2)
        .filter(|x| x % 3 == 0)
        .flat_map(|x| vec![x, x + 1])
        .collect();
    let expect: Vec<u32> = (0u32..100)
        .map(|x| x * 2)
        .filter(|x| x % 3 == 0)
        .flat_map(|x| vec![x, x + 1])
        .collect();
    assert_eq!(out, expect);
}

#[test]
fn map_partitions_sees_every_partition_once() {
    let c = cluster();
    let out = c
        .parallelize((0u32..20).collect(), 5)
        .map_partitions(|idx, data| vec![(idx, data.len())])
        .collect();
    assert_eq!(out.len(), 5);
    let total: usize = out.iter().map(|(_, n)| n).sum();
    assert_eq!(total, 20);
}

#[test]
fn reduce_and_fold_and_take() {
    let c = cluster();
    let rdd = c.parallelize((1u64..=100).collect(), 9);
    assert_eq!(rdd.reduce(|a, b| a + b), Some(5050));
    assert_eq!(rdd.fold(0u64, |acc, x| acc + x, |a, b| a + b), 5050);
    assert_eq!(rdd.take(3), vec![1, 2, 3]);
    assert_eq!(rdd.first(), Some(1));
    let empty = c.parallelize(Vec::<u64>::new(), 3);
    assert_eq!(empty.reduce(|a, b| a + b), None);
    assert_eq!(empty.first(), None);
}

#[test]
fn reduce_by_key_matches_reference() {
    let c = cluster();
    let data: Vec<(u32, u64)> = (0..500).map(|i| (i % 37, i as u64)).collect();
    let mut expect: BTreeMap<u32, u64> = BTreeMap::new();
    for &(k, v) in &data {
        *expect.entry(k).or_insert(0) += v;
    }
    let got: BTreeMap<u32, u64> = c
        .parallelize(data, 8)
        .reduce_by_key(|a, b| a + b)
        .collect()
        .into_iter()
        .collect();
    assert_eq!(got, expect);
}

#[test]
fn reduce_by_key_map_side_same_result_fewer_bytes() {
    let data: Vec<(u32, u64)> = (0..2000).map(|i| (i % 5, 1u64)).collect();

    let c1 = cluster();
    let plain: BTreeMap<u32, u64> = c1
        .parallelize(data.clone(), 8)
        .reduce_by_key(|a, b| a + b)
        .collect()
        .into_iter()
        .collect();
    let plain_bytes = c1.metrics().snapshot().total_shuffle_bytes();

    let c2 = cluster();
    let partitions = c2.config().default_parallelism;
    let combined: BTreeMap<u32, u64> = c2
        .parallelize(data, 8)
        .reduce_by_key_with(partitions, true, |a, b| a + b)
        .collect()
        .into_iter()
        .collect();
    let combined_bytes = c2.metrics().snapshot().total_shuffle_bytes();

    assert_eq!(plain, combined);
    // 5 hot keys: map-side combining collapses ~2000 records to ≤ 5/partition.
    assert!(
        combined_bytes * 10 < plain_bytes,
        "combined {combined_bytes} vs plain {plain_bytes}"
    );
}

#[test]
fn reduce_by_key_collects_all_values() {
    let c = cluster();
    let data = vec![(1u32, 10u32), (2, 20), (1, 11), (1, 12), (2, 21)];
    let grouped: BTreeMap<u32, Vec<u32>> = c
        .parallelize(data, 3)
        .map_values(|v| vec![v])
        .reduce_by_key(|mut a, mut b| {
            a.append(&mut b);
            a
        })
        .collect()
        .into_iter()
        .map(|(k, v)| (k, sorted(v)))
        .collect();
    assert_eq!(grouped[&1], vec![10, 11, 12]);
    assert_eq!(grouped[&2], vec![20, 21]);
}

#[test]
fn partition_by_preserves_duplicates_and_places_keys_together() {
    let c = cluster();
    let data = vec![(7u32, 1u8), (7, 2), (7, 3), (9, 4)];
    let rdd = c.parallelize(data, 4).partition_by(5);
    assert_eq!(rdd.num_partitions(), 5);
    let per_part = rdd.map_partitions(|idx, d| vec![(idx, d)]).collect();
    // All key-7 records must land in one partition.
    let mut seven_parts = std::collections::HashSet::new();
    let mut total = 0;
    for (idx, records) in per_part {
        for (k, _) in &records {
            total += 1;
            if *k == 7 {
                seven_parts.insert(idx);
            }
        }
    }
    assert_eq!(total, 4);
    assert_eq!(seven_parts.len(), 1);
}

#[test]
fn join_matches_reference() {
    let c = cluster();
    let left = vec![(1u32, "a"), (2, "b"), (2, "c"), (3, "d")];
    let right = vec![(2u32, 20u32), (2, 21), (3, 30), (4, 40)];
    let got = sorted(
        c.parallelize(left, 3)
            .join(&c.parallelize(right, 2))
            .collect(),
    );
    let expect = sorted(vec![
        (2u32, ("b", 20u32)),
        (2, ("b", 21)),
        (2, ("c", 20)),
        (2, ("c", 21)),
        (3, ("d", 30)),
    ]);
    assert_eq!(got, expect);
}

#[test]
fn cogroup_groups_both_sides() {
    let c = cluster();
    let left = vec![(1u32, 1u8), (1, 2), (2, 3)];
    let right = vec![(1u32, 9u16), (3, 8)];
    let got: BTreeMap<u32, (Vec<u8>, Vec<u16>)> = c
        .parallelize(left, 2)
        .cogroup(&c.parallelize(right, 2))
        .collect()
        .into_iter()
        .map(|(k, (a, b))| (k, (sorted(a), sorted(b))))
        .collect();
    assert_eq!(got[&1], (vec![1, 2], vec![9]));
    assert_eq!(got[&2], (vec![3], vec![]));
    assert_eq!(got[&3], (vec![], vec![8]));
}

#[test]
fn keys_values_map_values() {
    let c = cluster();
    let rdd = c.parallelize(vec![(1u32, 2u32), (3, 4)], 2);
    assert_eq!(rdd.keys().collect(), vec![1, 3]);
    assert_eq!(rdd.values().collect(), vec![2, 4]);
    assert_eq!(rdd.map_values(|v| v * 10).collect(), vec![(1, 20), (3, 40)]);
}

// ---- caching ---------------------------------------------------------

#[test]
fn cache_prevents_recomputation() {
    use std::sync::atomic::{AtomicU32, Ordering};
    use std::sync::Arc;
    let c = cluster();
    let computed = Arc::new(AtomicU32::new(0));
    let counter = computed.clone();
    let rdd = c
        .parallelize((0u32..100).collect(), 4)
        .map(move |x| {
            counter.fetch_add(1, Ordering::Relaxed);
            x
        })
        .persist(StorageLevel::MemoryRaw);
    assert_eq!(rdd.count(), 100);
    assert_eq!(computed.load(Ordering::Relaxed), 100);
    assert!(rdd.is_fully_cached());
    assert_eq!(rdd.count(), 100); // second action served from cache
    assert_eq!(computed.load(Ordering::Relaxed), 100);
    // unpersist forces recomputation again
    assert_eq!(rdd.unpersist(), 4);
    assert!(!rdd.is_fully_cached());
    assert_eq!(rdd.count(), 100);
    assert_eq!(computed.load(Ordering::Relaxed), 200);
}

/// `persist(StorageLevel)` is the one persistence entry point (the old
/// `cache`/`cache_serialized`/`persist_now` aliases are gone): lazy at
/// every level, materialized by the first action, at the requested level.
#[test]
fn persist_levels_cover_former_wrappers() {
    let c = cluster();
    let raw = c
        .parallelize((0u32..10).collect(), 2)
        .persist(StorageLevel::MemoryRaw);
    assert!(!raw.is_fully_cached(), "persist is lazy");
    assert_eq!(raw.count(), 10);
    assert!(raw.is_fully_cached());
    assert_eq!(c.block_manager().len(), 2);
    let spilling = c
        .parallelize((0u64..8).collect(), 2)
        .persist(StorageLevel::MemoryAndDisk);
    let _ = spilling.count();
    assert_eq!(
        c.block_manager().level_of(spilling.id(), 0),
        Some(StorageLevel::MemoryAndDisk)
    );
}

#[test]
fn cache_prunes_upstream_shuffles() {
    let c = cluster();
    let cached = c
        .parallelize((0u32..100).map(|i| (i % 10, i)).collect(), 4)
        .reduce_by_key(|a, b| a + b)
        .persist(StorageLevel::MemoryRaw);
    let _ = cached.count();
    let before = c.metrics().snapshot().shuffle_count();
    assert_eq!(before, 1);
    // A new job over the cached RDD must not shuffle again.
    let _ = cached.map(|(k, _)| k).collect();
    assert_eq!(c.metrics().snapshot().shuffle_count(), 1);
}

#[test]
fn cache_serialized_tracks_bytes() {
    let c = cluster();
    let rdd = c
        .parallelize((0u64..64).collect(), 4)
        .persist(StorageLevel::MemoryRaw);
    let _ = rdd.count();
    assert_eq!(c.block_manager().total_bytes(), 64 * 8);
}

// ---- metrics ----------------------------------------------------------

#[test]
fn shuffle_counting_per_operator() {
    let c = cluster();
    let pairs = c.parallelize((0u32..100).map(|i| (i % 10, i)).collect(), 4);
    let _ = pairs.reduce_by_key(|a, b| a + b).collect();
    assert_eq!(c.metrics().snapshot().shuffle_count(), 1);

    c.metrics().reset();
    let other = c.parallelize((0u32..50).map(|i| (i % 10, i)).collect(), 4);
    let _ = pairs.join(&other).collect();
    // A join shuffles both sides: 2 shuffle-map stages.
    assert_eq!(c.metrics().snapshot().shuffle_count(), 2);
}

#[test]
fn narrow_ops_do_not_shuffle() {
    let c = cluster();
    let _ = c
        .parallelize((0u32..100).collect(), 4)
        .map(|x| x + 1)
        .filter(|x| x % 2 == 0)
        .collect();
    let m = c.metrics().snapshot();
    assert_eq!(m.shuffle_count(), 0);
    assert_eq!(m.total_shuffle_bytes(), 0);
    // One result stage ran.
    assert_eq!(
        m.stages().filter(|s| s.kind == StageKind::Result).count(),
        1
    );
}

#[test]
fn remote_local_split_depends_on_node_count() {
    // On 1 node, ALL shuffle bytes are local; on many nodes most are remote.
    let data: Vec<(u32, u64)> = (0..4000).map(|i| (i, i as u64)).collect();

    let c1 = Cluster::new(ClusterConfig::local(4).nodes(1).default_parallelism(16));
    let _ = c1
        .parallelize(data.clone(), 16)
        .reduce_by_key(|a, b| a + b)
        .collect();
    let m1 = c1.metrics().snapshot();
    assert!(m1.total_shuffle_bytes() > 0);
    assert_eq!(m1.total_remote_bytes(), 0, "single node must be all-local");

    let c8 = Cluster::new(ClusterConfig::local(4).nodes(8).default_parallelism(16));
    let _ = c8
        .parallelize(data, 16)
        .reduce_by_key(|a, b| a + b)
        .collect();
    let m8 = c8.metrics().snapshot();
    assert!(m8.total_remote_bytes() > 0);
    // Uniform hashing: expect ~7/8 of traffic remote.
    let remote_frac = m8.total_remote_bytes() as f64 / m8.total_shuffle_bytes() as f64;
    assert!(
        (0.7..1.0).contains(&remote_frac),
        "remote fraction {remote_frac}"
    );
    // Total bytes moved are identical regardless of node count.
    assert_eq!(m1.total_shuffle_bytes(), m8.total_shuffle_bytes());
}

#[test]
fn scope_labels_attach_to_stages() {
    let c = cluster();
    c.metrics().set_scope("phase-1");
    let _ = c
        .parallelize((0u32..10).map(|i| (i, i)).collect(), 2)
        .reduce_by_key(|a, b| a + b)
        .collect();
    c.metrics().set_scope("phase-2");
    let _ = c.parallelize(vec![1u32], 1).collect();
    let m = c.metrics().snapshot();
    assert!(m.stages_in_scope("phase-1").count() >= 2); // shuffle map + result
    assert_eq!(m.stages_in_scope("phase-2").count(), 1);
}

#[test]
fn shuffle_write_records_match_input() {
    let c = cluster();
    let _ = c
        .parallelize((0u32..123).map(|i| (i % 7, i)).collect(), 5)
        .reduce_by_key(|a, b| a + b)
        .collect();
    let m = c.metrics().snapshot();
    let s = m
        .stages()
        .find(|s| s.kind == StageKind::ShuffleMap)
        .unwrap();
    assert_eq!(s.shuffle_write_records, 123);
    assert_eq!(s.shuffle_write_bytes, 123 * 8); // (u32, u32) records
                                                // Read side saw every written byte exactly once.
    let read: u64 = m.stages().map(|s| s.shuffle_read_bytes()).sum();
    assert_eq!(read, 123 * 8);
}

// ---- determinism -------------------------------------------------------

#[test]
fn repeated_runs_are_bit_identical() {
    let run = || {
        let c = Cluster::new(ClusterConfig::local(4).nodes(4).default_parallelism(16));
        let data: Vec<(u32, f64)> = (0..3000).map(|i| (i % 100, i as f64 * 0.5)).collect();
        let out = c
            .parallelize(data, 16)
            .reduce_by_key(|a, b| a + b)
            .collect();
        let m = c.metrics().snapshot();
        (out, m.total_remote_bytes(), m.total_local_bytes())
    };
    let (o1, r1, l1) = run();
    let (o2, r2, l2) = run();
    assert_eq!(o1, o2, "record order and values must be reproducible");
    assert_eq!(r1, r2);
    assert_eq!(l1, l2);
}

#[test]
fn lineage_recomputes_after_shuffle_cleanup() {
    let c = cluster();
    let rdd = c
        .parallelize((0u32..50).map(|i| (i % 5, 1u32)).collect(), 4)
        .reduce_by_key(|a, b| a + b);
    let first = sorted(rdd.collect());
    // Drop all shuffle data; lineage must transparently rebuild it.
    for sid in 0..10 {
        c.shuffle_service().remove(sid);
    }
    let second = sorted(rdd.collect());
    assert_eq!(first, second);
}

#[test]
fn released_shuffle_reruns_its_map_stage() {
    let c = cluster();
    let rdd = c
        .parallelize((0u32..50).map(|i| (i % 5, 1u32)).collect(), 4)
        .reduce_by_key(|a, b| a + b);
    let first = sorted(rdd.collect());
    c.metrics().reset();
    let _ = rdd.collect();
    let m = c.metrics().snapshot();
    assert_eq!((m.shuffle_count(), m.skipped_stage_count()), (0, 1));

    rdd.release_shuffles();
    assert_eq!(c.shuffle_service().live_shuffles(), 0);
    assert_eq!(c.shuffle_service().memory_bytes(), 0);
    rdd.release_shuffles(); // a second release is a no-op

    c.metrics().reset();
    assert_eq!(sorted(rdd.collect()), first);
    let m = c.metrics().snapshot();
    assert_eq!((m.shuffle_count(), m.skipped_stage_count()), (1, 0));
}

#[test]
fn release_stops_at_a_fully_cached_ancestor() {
    let c = cluster();
    let cached = c
        .parallelize((0u32..100).map(|i| (i % 10, i)).collect(), 4)
        .reduce_by_key(|a, b| a + b)
        .persist(StorageLevel::MemoryRaw);
    let _ = cached.count();
    let top = cached.map(|(k, v)| (k % 3, v)).reduce_by_key(|a, b| a + b);
    let first = sorted(top.collect());
    assert_eq!(c.shuffle_service().live_shuffles(), 2);

    top.release_shuffles();
    assert_eq!(
        c.shuffle_service().live_shuffles(),
        1,
        "upstream shuffle kept"
    );
    assert!(cached.is_fully_cached());
    assert_eq!(c.block_manager().len(), cached.num_partitions());
    let held = c.shuffle_service().memory_bytes();
    top.release_shuffles();
    assert_eq!(
        c.shuffle_service().live_shuffles(),
        1,
        "a second release is a no-op"
    );
    assert_eq!(c.shuffle_service().memory_bytes(), held);

    c.metrics().reset();
    assert_eq!(sorted(top.collect()), first);
    let m = c.metrics().snapshot();
    assert_eq!(m.shuffle_count(), 1, "only the released shuffle re-runs");
    assert_eq!(c.shuffle_service().live_shuffles(), 2);
}

#[test]
fn chained_shuffles_schedule_in_order() {
    let c = cluster();
    // Two dependent shuffles: reduce → re-key → reduce.
    let out: BTreeMap<u32, u64> = c
        .parallelize((0u32..1000).map(|i| (i % 100, 1u64)).collect(), 8)
        .reduce_by_key(|a, b| a + b)
        .map(|(k, v)| (k % 10, v))
        .reduce_by_key(|a, b| a + b)
        .collect()
        .into_iter()
        .collect();
    let m = c.metrics().snapshot();
    assert_eq!(m.shuffle_count(), 2);
    assert_eq!(out.len(), 10);
    assert!(out.values().all(|&v| v == 100));
}

#[test]
fn checkpoint_truncates_lineage() {
    let c = cluster();
    let reduced = c
        .parallelize((0u32..100).map(|i| (i % 10, 1u64)).collect(), 4)
        .reduce_by_key(|a, b| a + b);
    let cp = reduced.checkpoint();
    let mut expect = reduced.collect();
    expect.sort();

    // Wipe every shuffle and cache: the checkpoint must still serve reads
    // without recomputing anything upstream.
    c.shuffle_service().clear();
    c.metrics().reset();
    let mut got = cp.collect();
    got.sort();
    assert_eq!(got, expect);
    let m = c.metrics().snapshot();
    assert_eq!(m.shuffle_count(), 0, "checkpoint read must not re-shuffle");

    // The original lineage, by contrast, does re-shuffle.
    let _ = reduced.collect();
    assert_eq!(c.metrics().snapshot().shuffle_count(), 1);
}

#[test]
fn checkpoint_preserves_partitioning() {
    let c = cluster();
    let rdd = c.parallelize((0u32..40).collect(), 5);
    let cp = rdd.checkpoint();
    assert_eq!(cp.num_partitions(), 5);
    assert_eq!(cp.collect(), rdd.collect());
}
