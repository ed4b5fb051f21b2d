//! Memory-governed storage at the engine level: LRU eviction under a
//! byte budget, disk spill and reload, lineage recompute of evicted
//! blocks, shuffle spill — and the invariant that resident memory never
//! exceeds the budget, property-tested over random workloads.

use cstf_dataflow::{prelude::*, StageKind};
use cstf_model::TimeModel;
use proptest::prelude::*;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Arc;

fn budgeted(budget: u64) -> Cluster {
    Cluster::new(ClusterConfig::local(4).nodes(4).memory_budget(budget))
}

/// A memory-only persisted RDD whose working set exceeds the budget keeps
/// producing correct results: evicted partitions are recomputed from
/// lineage on demand.
#[test]
fn evicted_memory_blocks_recompute_from_lineage() {
    // 8 partitions × 100 u64 each = 6400 B working set, 2000 B budget.
    let c = budgeted(2000);
    let computed = Arc::new(AtomicU32::new(0));
    let counter = computed.clone();
    let rdd = c
        .parallelize((0u64..800).collect(), 8)
        .map(move |x| {
            counter.fetch_add(1, Ordering::Relaxed);
            x * 2
        })
        .persist(StorageLevel::MemoryRaw);
    let expect: Vec<u64> = (0u64..800).map(|x| x * 2).collect();
    assert_eq!(rdd.collect(), expect);
    let first_pass = computed.load(Ordering::Relaxed);
    assert_eq!(first_pass, 800);
    assert!(c.block_manager().memory_bytes() <= 2000);
    assert!(c.metrics().snapshot().eviction_count() > 0);

    // Second action: cache hits for resident blocks, lineage recompute
    // for evicted ones — same bytes either way.
    assert_eq!(rdd.collect(), expect);
    let second_pass = computed.load(Ordering::Relaxed);
    // Under a tight budget the second pass may recompute anywhere from a
    // few partitions up to all of them (recomputed blocks re-enter the LRU
    // and can evict the survivors), but never more than one full pass.
    assert!(
        second_pass > first_pass && second_pass <= 2 * first_pass,
        "recompute expected: {first_pass} then {second_pass}"
    );
    assert!(c.metrics().snapshot().recompute_count() > 0);
}

/// MemoryAndDisk blocks survive eviction on disk and reload without any
/// recomputation.
#[test]
fn memory_and_disk_blocks_reload_without_recompute() {
    let c = budgeted(2000);
    let computed = Arc::new(AtomicU32::new(0));
    let counter = computed.clone();
    let rdd = c
        .parallelize((0u64..800).collect(), 8)
        .map(move |x| {
            counter.fetch_add(1, Ordering::Relaxed);
            x + 1
        })
        .persist(StorageLevel::MemoryAndDisk);
    let expect: Vec<u64> = (0u64..800).map(|x| x + 1).collect();
    assert_eq!(rdd.collect(), expect);
    assert_eq!(computed.load(Ordering::Relaxed), 800);
    let bm = c.block_manager();
    let [_, spilled, _, _] = c.metrics().snapshot().block_manager_storage();
    assert!(spilled > 0, "working set must spill");
    assert!(bm.total_bytes() > bm.memory_bytes());
    assert!(bm.memory_bytes() <= 2000);
    // All partitions still resident (memory or disk): lineage is pruned
    // and a second pass recomputes nothing.
    assert!(rdd.is_fully_cached());
    assert_eq!(rdd.collect(), expect);
    assert_eq!(computed.load(Ordering::Relaxed), 800, "no recompute");
    let [_, _, spill_read, recomputes] = c.metrics().snapshot().block_manager_storage();
    assert!(spill_read > 0, "spilled hits pay a spill read");
    assert_eq!(recomputes, 0);
}

/// The spill traffic shows up in the simulated time model: the same job
/// under a tight budget models strictly more seconds than unbounded.
#[test]
fn spill_traffic_costs_simulated_time() {
    let run = |budget: Option<u64>| {
        let mut config = ClusterConfig::local(4).nodes(4);
        if let Some(b) = budget {
            config = config.memory_budget(b);
        }
        let c = Cluster::new(config);
        let rdd = c
            .parallelize((0u64..2000).collect(), 8)
            .persist(StorageLevel::MemoryAndDisk);
        let _ = rdd.count();
        let _ = rdd.count(); // reads pay spill-read under the budget
        TimeModel::spark().job_time(&c.metrics().snapshot())
    };
    let unbounded = run(None);
    let tight = run(Some(2000));
    assert!(
        tight > unbounded,
        "spilled run must model slower: {tight} vs {unbounded}"
    );
}

/// Oversized shuffle map outputs spill under the same budget and remain
/// readable; the report aggregates both storage owners.
#[test]
fn shuffle_spill_keeps_results_correct_and_reported() {
    let c = budgeted(1500);
    let reduced = c
        .parallelize((0u32..1000).map(|i| (i % 16, 1u64)).collect(), 8)
        .reduce_by_key(|a, b| a + b);
    let mut got = reduced.collect();
    got.sort();
    // 1000 records over 16 keys: keys 0..8 appear 63 times, the rest 62.
    let expect: Vec<(u32, u64)> = (0..16).map(|k| (k, if k < 8 { 63 } else { 62 })).collect();
    assert_eq!(got, expect);
    let m = c.metrics().snapshot();
    let [_, cached_spilled, cached_spill_read, _] = m.block_manager_storage();
    assert!(m.spilled_bytes() > cached_spilled);
    assert!(m.spill_read_bytes() > cached_spill_read);
    let report = m.render_report();
    assert!(report.contains("STORAGE"), "report: {report}");
    assert!(report.contains("shuffle-"), "report: {report}");
}

/// Under one budget both stores spill, and the log tells them apart: the
/// block manager's share comes from the `rdd-*` owners, the rest of
/// `spilled_bytes` is the shuffle service's, and evictions and recomputes
/// belong to cached RDDs alone.
#[test]
fn log_splits_storage_between_block_manager_and_shuffle_service() {
    let c = budgeted(1500);
    let dropped = c
        .parallelize((0u64..400).collect(), 4)
        .map(|x| x + 1)
        .persist(StorageLevel::MemoryRaw);
    let spilled = c
        .parallelize((0u32..1000).map(|i| (i % 16, 1u64)).collect(), 8)
        .persist(StorageLevel::MemoryAndDisk);
    for _ in 0..2 {
        assert_eq!(dropped.count(), 400);
        assert_eq!(spilled.reduce_by_key(|a, b| a + b).count(), 16);
    }
    let m = c.metrics().snapshot();
    let [evicted, cached_spilled, _, recomputes] = m.block_manager_storage();
    assert!(cached_spilled > 0, "cached blocks must spill");
    assert!(
        m.spilled_bytes() - cached_spilled > 0,
        "shuffle outputs must spill"
    );
    assert!(m.eviction_count() > 0 && m.recompute_count() > 0);
    assert_eq!(evicted, m.evicted_bytes(), "every eviction is an rdd-* one");
    assert_eq!(recomputes, m.recompute_count() as u64);
}

/// Budget interacts safely with node failures: recovery after a crash on
/// a budgeted cluster still reproduces the unbounded reference bits.
#[test]
fn eviction_and_node_failure_compose() {
    let expect: Vec<u64> = {
        let c = Cluster::new(ClusterConfig::local(4).nodes(4));
        let rdd = c
            .parallelize((0u64..600).collect(), 8)
            .map(|x| x * 7)
            .persist(StorageLevel::MemoryRaw);
        rdd.collect()
    };
    let c = budgeted(1600);
    let rdd = c
        .parallelize((0u64..600).collect(), 8)
        .map(|x| x * 7)
        .persist(StorageLevel::MemoryRaw);
    assert_eq!(rdd.collect(), expect);
    for node in 0..4 {
        c.simulate_node_failure(node);
        assert_eq!(rdd.collect(), expect, "after losing node {node}");
        assert!(c.block_manager().memory_bytes() <= 1600);
    }
}

/// Unpersist drops every trace of a budgeted RDD — memory, disk, and
/// eviction tombstones — so re-running starts clean.
#[test]
fn unpersist_clears_memory_disk_and_tombstones() {
    let c = budgeted(1000);
    let rdd = c
        .parallelize((0u64..500).collect(), 5)
        .persist(StorageLevel::MemoryAndDisk);
    let _ = rdd.count();
    assert!(c.block_manager().total_bytes() > 0);
    rdd.unpersist();
    assert_eq!(c.block_manager().total_bytes(), 0);
    // Still usable afterwards.
    assert_eq!(rdd.count(), 500);
}

/// Recompute of evicted blocks is tracked per stage: the reading stage
/// pays the CPU, visible in records_computed.
#[test]
fn recompute_cpu_lands_in_the_reading_stage() {
    let c = budgeted(800);
    let rdd = c
        .parallelize((0u64..400).collect(), 4)
        .map(|x| x + 3)
        .persist(StorageLevel::MemoryRaw);
    let _ = rdd.count();
    c.metrics().reset();
    let _ = rdd.count();
    let m = c.metrics().snapshot();
    let computed: u64 = m
        .stages()
        .filter(|s| s.kind == StageKind::Result)
        .map(|s| s.records_computed)
        .sum();
    assert!(computed > 0, "evicted partitions recomputed in-stage");
}

/// The sum of every value of a keyed RDD.
fn sum_of(sums: &Rdd<(u64, u64)>) -> u64 {
    sums.collect().iter().map(|&(_, v)| v).sum()
}

/// `0 + 1 + … + (n - 1)`.
fn sum_below(n: usize) -> u64 {
    let n = n as u64;
    n * n.saturating_sub(1) / 2
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Resident memory never exceeds the budget in either store, whatever
    /// the mix of block sizes, storage levels, and access order — and
    /// every action still returns the right answer.
    #[test]
    fn memory_never_exceeds_budget(
        budget in 64u64..4096,
        partition_counts in proptest::collection::vec(1usize..12, 1..5),
        sizes in proptest::collection::vec(8u64..600, 1..5),
        levels in proptest::collection::vec(0u8..2, 1..5),
    ) {
        let c = budgeted(budget);
        let mut rdds = Vec::new();
        for (i, &parts) in partition_counts.iter().enumerate() {
            let n = sizes[i % sizes.len()] / 8; // u64 elements per task
            let total = (n as usize) * parts;
            let level = match levels[i % levels.len()] {
                0 => StorageLevel::MemoryRaw,
                _ => StorageLevel::MemoryAndDisk,
            };
            let rdd = c
                .parallelize((0u64..total as u64).collect(), parts)
                .persist(level);
            prop_assert_eq!(rdd.count() as usize, total);
            prop_assert!(
                c.block_manager().memory_bytes() <= budget,
                "resident {} over budget {}",
                c.block_manager().memory_bytes(),
                budget
            );
            // A shuffle of the cached records, kept alive: its map outputs
            // stay in the shuffle service, under the same budget figure.
            let sums = rdd.map(|x| (x % 5, x)).reduce_by_key(|a, b| a + b);
            prop_assert_eq!(sum_of(&sums), sum_below(total));
            prop_assert!(c.block_manager().memory_bytes() <= budget);
            prop_assert!(
                c.shuffle_service().memory_bytes() <= budget,
                "map outputs {} over budget {}",
                c.shuffle_service().memory_bytes(),
                budget
            );
            rdds.push((rdd, sums, total));
        }
        // Re-read everything (mixing cache hits, disk reloads, recomputes,
        // and reads of spilled map outputs).
        for (rdd, sums, total) in &rdds {
            prop_assert_eq!(rdd.count() as usize, *total);
            prop_assert!(c.block_manager().memory_bytes() <= budget);
            prop_assert!(c.shuffle_service().memory_bytes() <= budget);
            prop_assert_eq!(sum_of(sums), sum_below(*total));
            prop_assert!(c.block_manager().memory_bytes() <= budget);
            prop_assert!(c.shuffle_service().memory_bytes() <= budget);
        }
        prop_assert!(c.block_manager().peak_memory_bytes() <= budget);
    }
}
