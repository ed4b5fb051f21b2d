//! Tests for the operators past the basic suite: the broadcast-join
//! idiom, the pinned emit sequence of every keyed operator, the join's
//! clone count and its emit order against its definition.

use cstf_dataflow::{
    Cluster, ClusterConfig, EstimateSize, KernelOps, KernelStrategy, Rdd, StageKind,
};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

fn cluster() -> Cluster {
    Cluster::new(ClusterConfig::local(4).nodes(4))
}

#[test]
fn broadcast_join_pattern_matches_shuffle_join() {
    // The broadcast-join idiom CSTF's extension uses: small side is
    // broadcast, the big side maps over it — no shuffle of either side.
    let c = cluster();
    let big: Vec<(u32, f64)> = (0..1000).map(|i| (i % 50, i as f64)).collect();
    let small: Vec<(u32, f64)> = (0..50u32).map(|k| (k, k as f64 * 10.0)).collect();

    let shuffled = {
        let mut v = c
            .parallelize(big.clone(), 8)
            .join(&c.parallelize(small.clone(), 4))
            .collect();
        v.sort_by(|a, b| a.partial_cmp(b).unwrap());
        v
    };

    c.metrics().reset();
    let lookup = c.broadcast(small.into_iter().collect::<BTreeMap<u32, f64>>());
    let broadcast_joined = {
        let mut v = c
            .parallelize(big, 8)
            .map(move |(k, v)| (k, (v, lookup[&k])))
            .collect();
        v.sort_by(|a, b| a.partial_cmp(b).unwrap());
        v
    };
    assert_eq!(shuffled, broadcast_joined);
    // Broadcast path shuffles nothing.
    let m = c.metrics().snapshot();
    assert_eq!(m.shuffle_count(), 0);
    assert!(m.total_broadcast_bytes() > 0);
}

#[test]
fn results_identical_across_executor_thread_counts() {
    // Thread interleavings must not leak into results or byte metrics:
    // everything is keyed by deterministic hashing and read in fixed
    // partition order.
    let run = |threads: usize| {
        let c = Cluster::new(
            ClusterConfig::local(threads)
                .nodes(4)
                .default_parallelism(12),
        );
        let data: Vec<(u32, f64)> = (0..5000).map(|i| (i % 97, i as f64 * 0.25)).collect();
        let mut out = c
            .parallelize(data, 12)
            .reduce_by_key(|a, b| a + b)
            .map(|(k, v)| (k, v * 2.0))
            .collect();
        out.sort_by_key(|&(k, _)| k);
        let m = c.metrics().snapshot();
        (out, m.total_remote_bytes(), m.total_local_bytes())
    };
    let single = run(1);
    let multi = run(8);
    assert_eq!(single, multi);
}

#[test]
fn many_partitions_stress() {
    let c = Cluster::new(ClusterConfig::local(4).nodes(16).default_parallelism(64));
    let data: Vec<(u32, u64)> = (0..20_000).map(|i| (i % 512, 1)).collect();
    let total: u64 = c
        .parallelize(data, 200)
        .reduce_by_key(|a, b| a + b)
        .values()
        .reduce(|a, b| a + b)
        .unwrap();
    assert_eq!(total, 20_000);
}

/// Pins the exact `collect()` sequence — order included — of every keyed
/// operator on one fixed input. The other suites compare two paths of the
/// same build; only this table notices a refactor that re-sequences a hash
/// map or a fold. The values make `f64` addition order-sensitive
/// (`1.0 + 1e16 − 1e16` is `0.0` in that order and `1.0` reversed), so a
/// changed within-key fold order shows up in the sums, a changed emit
/// order in the sequence. Expected strings recorded at rev `33f3c41`
/// (`SUMS` and `SUMS_MAP_SIDE` when every combine became one fold that
/// emits keys in first-arrival order; `COGROUPED`, `JOINED` and
/// `JOINED_ONE_TO_MANY` when the cogroup began folding its sides, left
/// first, through that fold, and the join began streaming its left side
/// in read order against the fold of its right side). `JOINED` holds
/// many-to-many (key 0, 4 × 2) and many-to-one (keys 4 and 6, 4 × 1) keys,
/// its mirror image one-to-many ones; `COGROUPED`'s left lists are the
/// per-key groups of the left side, in its first-arrival key order.
#[test]
fn keyed_operators_emit_a_pinned_sequence() {
    let c = cluster();
    let data: Vec<(u32, f64)> = (0..40u32)
        .map(|i| {
            let val = match i % 4 {
                0 => 1.0 + f64::from(i),
                1 => 1e16,
                2 => -1e16,
                _ => 0.5,
            };
            ((i * 13 + 5) % 11, val)
        })
        .collect();
    let left = c.parallelize(data, 3);
    let right = c.parallelize(vec![(0u32, 7u8), (4, 8), (0, 9), (12, 1), (6, 2)], 2);
    let parted = left.partition_by(4);
    let add = |a: f64, b: f64| a + b;
    let sums = |input: &Rdd<(u32, f64)>, map_side, kernel: Option<KernelStrategy>| match kernel {
        None => seq(input.reduce_by_key_with(4, map_side, add)),
        Some(strategy) => {
            let ops = KernelOps::new(|a: &mut f64, b: &f64| *a += b);
            seq(input.reduce_by_key_kernel(4, map_side, strategy, add, ops))
        }
    };
    // (input, map-side combine, kernel — `None` is `reduce_by_key_with`)
    let reduces = [
        (&left, false, None, SUMS),
        (&left, true, None, SUMS_MAP_SIDE),
        (&left, false, Some(KernelStrategy::default()), SUMS),
        (&left, true, Some(KernelStrategy::default()), SUMS_MAP_SIDE),
        (&parted, false, Some(KernelStrategy::default()), SUMS),
    ];
    for (row, (input, map_side, kernel, expected)) in reduces.into_iter().enumerate() {
        assert_eq!(sums(input, map_side, kernel), expected, "reduce row {row}");
    }
    assert_eq!(seq(left.cogroup_with(&right, 4)), COGROUPED);
    assert_eq!(seq(left.join_with(&right, 4)), JOINED);
    assert_eq!(seq(parted.join_with(&right, 4)), JOINED);
    assert_eq!(seq(right.join_with(&left, 4)), JOINED_ONE_TO_MANY);
}

/// The exact `collect()` sequence of `rdd`, rendered: `f64`'s `Debug` form
/// round-trips, so equal strings are equal bits in equal order.
fn seq<T: cstf_dataflow::Data + std::fmt::Debug>(rdd: Rdd<T>) -> String {
    format!("{:?}", rdd.collect())
}

const SUMS: &str = "[(0, 37.0), (4, 16.0), (8, 0.0), (5, 2.0), (9, 25.5), (1, 1.000000000000002e16), (2, 6.0), (6, 29.5), (10, -9999999999999990.0), (7, 12.0), (3, 33.0)]";
const SUMS_MAP_SIDE: &str = "[(0, 37.5), (4, 16.0), (8, 0.0), (5, 2.0), (9, 25.5), (1, 1.000000000000002e16), (2, 4.0), (6, 29.5), (10, -9999999999999990.0), (7, 12.0), (3, 33.0)]";
const COGROUPED: &str = "[(0, ([0.5, -1e16, 1e16, 37.0], [7, 9])), (4, ([1e16, 17.0, 0.5, -1e16], [8])), (8, ([0.5, -1e16, 1e16], [])), (12, ([], [1])), (5, ([1.0, 0.5, -1e16, 1e16], [])), (9, ([-1e16, 1e16, 25.0, 0.5], [])), (1, ([1e16, 21.0, 0.5], [])), (2, ([5.0, 0.5, -1e16, 1e16], [])), (6, ([-1e16, 1e16, 29.0, 0.5], [2])), (10, ([9.0, 0.5, -1e16], [])), (7, ([1e16, 13.0, 0.5, -1e16], [])), (3, ([-1e16, 1e16, 33.0], []))]";
const JOINED: &str = "[(0, (0.5, 7)), (0, (0.5, 9)), (4, (1e16, 8)), (0, (-1e16, 7)), (0, (-1e16, 9)), (4, (17.0, 8)), (0, (1e16, 7)), (0, (1e16, 9)), (4, (0.5, 8)), (0, (37.0, 7)), (0, (37.0, 9)), (4, (-1e16, 8)), (6, (-1e16, 2)), (6, (1e16, 2)), (6, (29.0, 2)), (6, (0.5, 2))]";
const JOINED_ONE_TO_MANY: &str = "[(0, (7, 0.5)), (0, (7, -1e16)), (0, (7, 1e16)), (0, (7, 37.0)), (4, (8, 1e16)), (4, (8, 17.0)), (4, (8, 0.5)), (4, (8, -1e16)), (0, (9, 0.5)), (0, (9, -1e16)), (0, (9, 1e16)), (0, (9, 37.0)), (6, (2, -1e16)), (6, (2, 1e16)), (6, (2, 29.0)), (6, (2, 0.5))]";

/// A join value that counts its clones on the counter it carries.
#[derive(Debug)]
struct Counted(Arc<AtomicUsize>);

impl Clone for Counted {
    fn clone(&self) -> Self {
        self.0.fetch_add(1, Ordering::Relaxed);
        Counted(self.0.clone())
    }
}

impl EstimateSize for Counted {
    fn estimate_size(&self) -> usize {
        0
    }
}

/// The join streams its left side against the fold of its right side:
/// a left value is cloned for each of its pairs but the last, which takes
/// it, and a right value is cloned once per pair it joins. The MTTKRP
/// shape — many nonzeros on the left, one factor row per key on the
/// right — so moves every nonzero and clones the row once per nonzero.
/// Reading the inputs clones records too (out of the source partitions
/// and the shuffle buckets), so the expansion's share is the join's clone
/// count minus the cogroup's, which reads the same inputs the same way
/// and expands nothing.
#[test]
fn join_moves_left_values_and_clones_right_values_once_per_pair() {
    let c = cluster();
    let many_clones = Arc::new(AtomicUsize::new(0));
    let single_clones = Arc::new(AtomicUsize::new(0));
    // Key k: 2 + k values on the many side, one on the single side; key 9
    // only on the many side, key 10 only on the single side.
    let many_per_key = |k: u32| 2 + k as usize;
    let many: Vec<(u32, Counted)> = (0..4u32)
        .flat_map(|k| vec![k; many_per_key(k)])
        .chain([9, 9])
        .map(|k| (k, Counted(many_clones.clone())))
        .collect();
    let single: Vec<(u32, Counted)> = (0..4u32)
        .chain([10])
        .map(|k| (k, Counted(single_clones.clone())))
        .collect();
    let pairs: usize = (0..4).map(many_per_key).sum();
    let many = c.parallelize(many, 3);
    let single = c.parallelize(single, 2);

    let clones_during = |job: &dyn Fn() -> usize| {
        let before = (
            many_clones.load(Ordering::Relaxed),
            single_clones.load(Ordering::Relaxed),
        );
        let records = job();
        (
            records,
            many_clones.load(Ordering::Relaxed) - before.0,
            single_clones.load(Ordering::Relaxed) - before.1,
        )
    };
    let (_, many_read, single_read) =
        clones_during(&|| many.cogroup_with(&single, 4).collect().len());
    for many_on_the_left in [true, false] {
        let (records, many_total, single_total) = clones_during(&|| {
            if many_on_the_left {
                many.join_with(&single, 4).collect().len()
            } else {
                single.join_with(&many, 4).collect().len()
            }
        });
        assert_eq!(records, pairs);
        let (many_extra, single_extra) = (many_total - many_read, single_total - single_read);
        // Every paired value of the many side is in one pair; the single
        // side's 4 paired values are in 2 + k each.
        let (left, right, left_values_paired) = if many_on_the_left {
            (many_extra, single_extra, pairs)
        } else {
            (single_extra, many_extra, 4)
        };
        assert_eq!(
            left,
            pairs - left_values_paired,
            "left: all pairs but the last"
        );
        assert_eq!(right, pairs, "right: one clone per pair");
    }
}

/// A reduce given an in-place merge merges fetched values by reference:
/// its reduce tasks clone one value per distinct key out of the shared
/// shuffle buckets and count one kernel run per key, where the by-value
/// reduce clones every record. The values are made by a `map`, so reading
/// the source partitions clones none of them.
#[test]
fn by_reference_reduce_clones_one_value_per_distinct_key() {
    let c = cluster();
    let clones = Arc::new(AtomicUsize::new(0));
    let counter = clones.clone();
    // 60 records over 7 keys, from 3 map partitions.
    let keys: Vec<u32> = (0..60).map(|i| i % 7).collect();
    let values = c
        .parallelize(keys, 3)
        .map(move |k| (k, Counted(counter.clone())));
    let keep_first = |a: Counted, _: Counted| a;
    let ops = KernelOps::new(|_: &mut Counted, _: &Counted| {});
    let reduced = values.reduce_by_key_kernel(4, false, KernelStrategy::default(), keep_first, ops);
    assert_eq!(reduced.collect().len(), 7);
    assert_eq!(clones.load(Ordering::Relaxed), 7);
    assert_eq!(c.metrics().snapshot().total_kernel_runs(), 7);

    clones.store(0, Ordering::Relaxed);
    assert_eq!(values.reduce_by_key_with(4, false, keep_first).count(), 7);
    assert_eq!(clones.load(Ordering::Relaxed), 60);
}

/// `join` against its definition: the left side in read order — the
/// order `partition_by` delivers it in — with each left value paired
/// with its key's right values in the order the cogroup lists them,
/// compared record for record, unsorted. The input holds keys with one
/// right value (0–3), with one left value (10–13), with one of each (14),
/// many-to-many keys (20, 21) and keys on one side only (30, 31); the
/// left values are dealt round-robin over their keys, so no key's pairs
/// need be contiguous. A join's result stage computes one record per
/// distinct key of either side and one per pair.
#[test]
fn join_pairs_each_left_value_in_read_order_with_its_right_values() {
    let c = cluster();
    let mut left: Vec<(u32, u32)> = Vec::new();
    let mut right: Vec<(u32, i64)> = Vec::new();
    for k in 0..4u32 {
        left.extend((0..=k).map(|i| (k, 100 * k + i)));
        right.push((k, -i64::from(k)));
    }
    for k in 10..14u32 {
        left.push((k, 100 * k));
        right.extend((0..=i64::from(k - 10)).map(|i| (k, 10 * i64::from(k) + i)));
    }
    left.extend([
        (14, 1400),
        (20, 2000),
        (20, 2001),
        (20, 2002),
        (21, 2100),
        (21, 2101),
    ]);
    left.push((30, 3000));
    // Round i holds the i-th left value of every key that has one.
    left.sort_by_key(|&(k, v)| (v % 100, k));
    right.extend([
        (14, 140),
        (20, 200),
        (20, 201),
        (21, 210),
        (21, 211),
        (21, 212),
    ]);
    right.push((31, 310));
    let left = c.parallelize(left, 3);
    let right = c.parallelize(right, 2);
    let result_stage_records = || -> u64 {
        let m = c.metrics().snapshot();
        m.stages()
            .filter(|s| s.kind == StageKind::Result)
            .map(|s| s.records_computed)
            .sum()
    };

    c.metrics().reset();
    let groups = left.cogroup_with(&right, 4).collect();
    assert_eq!(result_stage_records(), groups.len() as u64);
    let right_values: BTreeMap<u32, &Vec<i64>> =
        groups.iter().map(|(k, (_, ws))| (*k, ws)).collect();
    let expected: Vec<(u32, (u32, i64))> = left
        .partition_by(4)
        .collect()
        .into_iter()
        .flat_map(|(k, v)| right_values[&k].iter().map(move |&w| (k, (v, w))))
        .collect();

    c.metrics().reset();
    let joined = left.join_with(&right, 4).collect();
    assert_eq!(joined, expected);
    assert_eq!(
        result_stage_records(),
        (groups.len() + expected.len()) as u64,
        "distinct keys + pairs"
    );
}
