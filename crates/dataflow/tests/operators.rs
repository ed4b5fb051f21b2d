//! Tests for the extended operator set: sort_by_key, distinct, sample,
//! coalesce, zip_with_index, combine_by_key, aggregate_by_key, broadcast.

use cstf_dataflow::{Cluster, ClusterConfig, EstimateSize, KernelOps, KernelStrategy, Rdd};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

fn cluster() -> Cluster {
    Cluster::new(ClusterConfig::local(4).nodes(4))
}

#[test]
fn sort_by_key_produces_globally_sorted_output() {
    let c = cluster();
    let data: Vec<(u32, u32)> = (0..1000u32).rev().map(|k| (k * 7 % 997, k)).collect();
    let sorted = c.parallelize(data.clone(), 8).sort_by_key(6).collect();
    assert_eq!(sorted.len(), data.len());
    for w in sorted.windows(2) {
        assert!(w[0].0 <= w[1].0, "out of order: {:?} then {:?}", w[0], w[1]);
    }
    // Same multiset of records.
    let mut expect = data;
    expect.sort();
    let mut got = sorted;
    got.sort();
    assert_eq!(got, expect);
}

#[test]
fn sort_by_key_handles_skewed_and_tiny_inputs() {
    let c = cluster();
    // Heavy duplication of one key.
    let data: Vec<(u32, u8)> = (0..200)
        .map(|i| (if i % 3 == 0 { 5 } else { i }, 0))
        .collect();
    let sorted = c.parallelize(data, 5).sort_by_key(4).collect();
    for w in sorted.windows(2) {
        assert!(w[0].0 <= w[1].0);
    }
    // Empty input.
    let empty = c
        .parallelize(Vec::<(u32, u8)>::new(), 3)
        .sort_by_key(4)
        .collect();
    assert!(empty.is_empty());
    // Single record.
    let one = c.parallelize(vec![(9u32, 1u8)], 2).sort_by_key(4).collect();
    assert_eq!(one, vec![(9, 1)]);
}

#[test]
fn distinct_removes_duplicates() {
    let c = cluster();
    let data = vec![3u32, 1, 3, 7, 1, 1, 9, 7];
    let mut got = c.parallelize(data, 3).distinct().collect();
    got.sort_unstable();
    assert_eq!(got, vec![1, 3, 7, 9]);
}

#[test]
fn distinct_on_pairs() {
    let c = cluster();
    let data = vec![(1u32, 2u32), (1, 2), (1, 3)];
    let got = c.parallelize(data, 2).distinct().collect();
    assert_eq!(got.len(), 2);
}

#[test]
fn sample_is_deterministic_and_proportional() {
    let c = cluster();
    let rdd = c.parallelize((0u32..10_000).collect(), 8);
    let s1 = rdd.sample(0.2, 42).collect();
    let s2 = rdd.sample(0.2, 42).collect();
    assert_eq!(s1, s2, "same seed must give the same sample");
    let frac = s1.len() as f64 / 10_000.0;
    assert!((0.17..0.23).contains(&frac), "fraction {frac}");
    let s3 = rdd.sample(0.2, 43).collect();
    assert_ne!(s1, s3, "different seed should differ");
    assert!(rdd.sample(0.0, 1).collect().is_empty());
    assert_eq!(rdd.sample(1.0, 1).count(), 10_000);
}

#[test]
fn coalesce_merges_partitions_without_losing_records() {
    let c = cluster();
    let rdd = c.parallelize((0u32..100).collect(), 10);
    let co = rdd.coalesce(3);
    assert_eq!(co.num_partitions(), 3);
    let mut got = co.collect();
    got.sort_unstable();
    assert_eq!(got, (0..100).collect::<Vec<_>>());
    // No shuffle happened.
    assert_eq!(c.metrics().snapshot().shuffle_count(), 0);
    // Coalescing to more partitions than exist is a no-op.
    assert_eq!(rdd.coalesce(50).num_partitions(), 10);
}

#[test]
fn zip_with_index_is_global_and_ordered() {
    let c = cluster();
    let data: Vec<u32> = (100..200).collect();
    let zipped = c.parallelize(data.clone(), 7).zip_with_index().collect();
    assert_eq!(zipped.len(), 100);
    for (i, (v, idx)) in zipped.iter().enumerate() {
        assert_eq!(*idx, i as u64);
        assert_eq!(*v, data[i]);
    }
}

#[test]
fn combine_by_key_builds_custom_combiners() {
    let c = cluster();
    let data = vec![(1u32, 5u32), (2, 1), (1, 7), (2, 2), (1, 6)];
    // Combiner: (count, max).
    let got: BTreeMap<u32, (u32, u32)> = c
        .parallelize(data, 3)
        .combine_by_key(
            4,
            true,
            |v| (1u32, v),
            |(n, m), v| (n + 1, m.max(v)),
            |(n1, m1), (n2, m2)| (n1 + n2, m1.max(m2)),
        )
        .collect()
        .into_iter()
        .collect();
    assert_eq!(got[&1], (3, 7));
    assert_eq!(got[&2], (2, 2));
}

#[test]
fn aggregate_by_key_folds_into_zero() {
    let c = cluster();
    let data = vec![(1u32, 2u64), (1, 3), (2, 10)];
    let got: BTreeMap<u32, u64> = c
        .parallelize(data, 2)
        .aggregate_by_key(100u64, |acc, v| acc + v, |a, b| a + b - 100)
        .collect()
        .into_iter()
        .collect();
    // Per-key fold starts from the zero once per combiner; merging
    // compensates. Key 1: 100+2+3; key 2: 100+10 (single combiner each,
    // since reduce-side create starts one combiner per first value).
    assert_eq!(got[&1], 105);
    assert_eq!(got[&2], 110);
}

#[test]
fn partition_by_range_places_ranges_contiguously() {
    use cstf_dataflow::partitioner::RangePartitioner;
    let c = cluster();
    let data: Vec<(u32, ())> = (0..90u32).map(|k| (k, ())).collect();
    let rdd = c
        .parallelize(data, 4)
        .partition_by_range(RangePartitioner::new(vec![29, 59]));
    assert_eq!(rdd.num_partitions(), 3);
    let per_part = rdd.map_partitions(|idx, d| vec![(idx, d.len())]).collect();
    let counts: BTreeMap<usize, usize> = per_part.into_iter().collect();
    assert_eq!(counts[&0], 30);
    assert_eq!(counts[&1], 30);
    assert_eq!(counts[&2], 30);
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
fn sorted_output_feeds_downstream_ops() {
    let c = cluster();
    let data: Vec<(u32, u32)> = (0..500u32).map(|k| (499 - k, k)).collect();
    let top3 = c.parallelize(data, 8).sort_by_key(4).take(3);
    assert_eq!(
        top3.iter().map(|(k, _)| *k).collect::<Vec<_>>(),
        vec![0, 1, 2]
    );
}

#[test]
fn full_outer_join_covers_both_sides() {
    let c = cluster();
    let left = vec![(1u32, 10u8), (2, 20)];
    let right = vec![(2u32, 200u16), (3, 300)];
    let mut got = c
        .parallelize(left, 2)
        .full_outer_join(&c.parallelize(right, 2))
        .collect();
    got.sort();
    assert_eq!(
        got,
        vec![
            (1, (Some(10), None)),
            (2, (Some(20), Some(200))),
            (3, (None, Some(300))),
        ]
    );
}

#[test]
fn subtract_by_key_removes_matching_keys() {
    let c = cluster();
    let left = vec![(1u32, 1u8), (2, 2), (2, 22), (3, 3)];
    let right = vec![(2u32, ()), (9, ())];
    let mut got = c
        .parallelize(left, 3)
        .subtract_by_key(&c.parallelize(right, 2))
        .collect();
    got.sort();
    assert_eq!(got, vec![(1, 1), (3, 3)]);
}

#[test]
fn lookup_finds_all_values() {
    let c = cluster();
    let data = vec![(7u32, 1u8), (8, 2), (7, 3)];
    let rdd = c.parallelize(data, 3);
    let mut vs = rdd.lookup(&7);
    vs.sort();
    assert_eq!(vs, vec![1, 3]);
    assert!(rdd.lookup(&99).is_empty());
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
        let out = c
            .parallelize(data, 12)
            .reduce_by_key(|a, b| a + b)
            .map(|(k, v)| (k, v * 2.0))
            .sort_by_key(6)
            .collect();
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
/// (`JOINED_ONE_TO_MANY` and the narrow-left join at `e111037`, before the
/// join's per-key expansion started moving values): `JOINED` holds
/// many-to-many (key 0, 4 × 2) and many-to-one (keys 4 and 6, 4 × 1) keys,
/// its mirror image one-to-many ones.
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
    use KernelStrategy::{RecordAtATime, SortedRuns};
    // (input, map-side combine, kernel — `None` is `reduce_by_key_with`)
    let reduces = [
        (&left, false, None, HASH_SUMS),
        (&left, true, None, HASH_SUMS_MAP_SIDE),
        (&left, false, Some(RecordAtATime), HASH_SUMS),
        (&left, true, Some(RecordAtATime), HASH_SUMS_MAP_SIDE),
        (&left, false, Some(SortedRuns), SORTED_SUMS),
        (&left, true, Some(SortedRuns), SORTED_SUMS_MAP_SIDE),
        (&parted, false, Some(RecordAtATime), HASH_SUMS),
        (&parted, false, Some(SortedRuns), SORTED_SUMS),
    ];
    for (row, (input, map_side, kernel, expected)) in reduces.into_iter().enumerate() {
        assert_eq!(sums(input, map_side, kernel), expected, "reduce row {row}");
    }
    assert_eq!(seq(left.group_by_key_with(4)), GROUPED);
    assert_eq!(seq(left.cogroup_with(&right, 4)), COGROUPED);
    assert_eq!(seq(left.join_with(&right, 4)), JOINED);
    assert_eq!(seq(parted.join_with(&right, 4)), JOINED);
    assert_eq!(seq(right.join_with(&left, 4)), JOINED_ONE_TO_MANY);
    assert_eq!(seq(left.left_outer_join(&right)), LEFT_OUTER_JOINED);
}

/// The exact `collect()` sequence of `rdd`, rendered: `f64`'s `Debug` form
/// round-trips, so equal strings are equal bits in equal order.
fn seq<T: cstf_dataflow::Data + std::fmt::Debug>(rdd: Rdd<T>) -> String {
    format!("{:?}", rdd.collect())
}

const HASH_SUMS: &str = "[(0, 37.0), (4, 16.0), (8, 0.0), (5, 2.0), (9, 25.5), (1, 1.000000000000002e16), (10, -9999999999999990.0), (2, 6.0), (6, 29.5), (3, 33.0), (7, 12.0)]";
const HASH_SUMS_MAP_SIDE: &str = "[(0, 37.5), (4, 16.0), (8, 0.0), (5, 2.0), (9, 25.5), (1, 1.000000000000002e16), (6, 29.5), (10, -9999999999999990.0), (2, 4.0), (7, 12.0), (3, 33.0)]";
const SORTED_SUMS: &str = "[(0, 37.0), (4, 16.0), (8, 0.0), (1, 1.000000000000002e16), (5, 2.0), (9, 25.5), (2, 6.0), (6, 29.5), (10, -9999999999999990.0), (3, 33.0), (7, 12.0)]";
const SORTED_SUMS_MAP_SIDE: &str = "[(0, 37.5), (4, 16.0), (8, 0.0), (1, 1.000000000000002e16), (5, 2.0), (9, 25.5), (2, 4.0), (6, 29.5), (10, -9999999999999990.0), (3, 33.0), (7, 12.0)]";
const GROUPED: &str = "[(0, [0.5, -1e16, 1e16, 37.0]), (4, [1e16, 17.0, 0.5, -1e16]), (8, [0.5, -1e16, 1e16]), (5, [1.0, 0.5, -1e16, 1e16]), (9, [-1e16, 1e16, 25.0, 0.5]), (1, [1e16, 21.0, 0.5]), (10, [9.0, 0.5, -1e16]), (2, [5.0, 0.5, -1e16, 1e16]), (6, [-1e16, 1e16, 29.0, 0.5]), (3, [-1e16, 1e16, 33.0]), (7, [1e16, 13.0, 0.5, -1e16])]";
const COGROUPED: &str = "[(0, ([0.5, -1e16, 1e16, 37.0], [7, 9])), (8, ([0.5, -1e16, 1e16], [])), (4, ([1e16, 17.0, 0.5, -1e16], [8])), (12, ([], [1])), (5, ([1.0, 0.5, -1e16, 1e16], [])), (9, ([-1e16, 1e16, 25.0, 0.5], [])), (1, ([1e16, 21.0, 0.5], [])), (10, ([9.0, 0.5, -1e16], [])), (2, ([5.0, 0.5, -1e16, 1e16], [])), (6, ([-1e16, 1e16, 29.0, 0.5], [2])), (3, ([-1e16, 1e16, 33.0], [])), (7, ([1e16, 13.0, 0.5, -1e16], []))]";
const JOINED: &str = "[(0, (0.5, 7)), (0, (0.5, 9)), (0, (-1e16, 7)), (0, (-1e16, 9)), (0, (1e16, 7)), (0, (1e16, 9)), (0, (37.0, 7)), (0, (37.0, 9)), (4, (1e16, 8)), (4, (17.0, 8)), (4, (0.5, 8)), (4, (-1e16, 8)), (6, (-1e16, 2)), (6, (1e16, 2)), (6, (29.0, 2)), (6, (0.5, 2))]";
const JOINED_ONE_TO_MANY: &str = "[(0, (7, 0.5)), (0, (7, -1e16)), (0, (7, 1e16)), (0, (7, 37.0)), (0, (9, 0.5)), (0, (9, -1e16)), (0, (9, 1e16)), (0, (9, 37.0)), (4, (8, 1e16)), (4, (8, 17.0)), (4, (8, 0.5)), (4, (8, -1e16)), (6, (2, -1e16)), (6, (2, 1e16)), (6, (2, 29.0)), (6, (2, 0.5))]";
const LEFT_OUTER_JOINED: &str = "[(0, (0.5, Some(7))), (0, (0.5, Some(9))), (0, (-1e16, Some(7))), (0, (-1e16, Some(9))), (0, (1e16, Some(7))), (0, (1e16, Some(9))), (0, (37.0, Some(7))), (0, (37.0, Some(9))), (10, (9.0, None)), (10, (0.5, None)), (10, (-1e16, None)), (7, (1e16, None)), (7, (13.0, None)), (7, (0.5, None)), (7, (-1e16, None)), (4, (1e16, Some(8))), (4, (17.0, Some(8))), (4, (0.5, Some(8))), (4, (-1e16, Some(8))), (1, (1e16, None)), (1, (21.0, None)), (1, (0.5, None)), (8, (0.5, None)), (8, (-1e16, None)), (8, (1e16, None)), (5, (1.0, None)), (5, (0.5, None)), (5, (-1e16, None)), (5, (1e16, None)), (2, (5.0, None)), (2, (0.5, None)), (2, (-1e16, None)), (2, (1e16, None)), (9, (-1e16, None)), (9, (1e16, None)), (9, (25.0, None)), (9, (0.5, None)), (6, (-1e16, Some(2))), (6, (1e16, Some(2))), (6, (29.0, Some(2))), (6, (0.5, Some(2))), (3, (-1e16, None)), (3, (1e16, None)), (3, (33.0, None))]";

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

/// The join's per-key expansion moves what it can: where one side holds a
/// single value (the MTTKRP shape — many nonzeros, one factor row), every
/// value of the many side moves into its pair and the single value is
/// cloned for all pairs but the last. Reading the inputs clones records
/// too (out of the source partitions and the shuffle buckets), so the
/// expansion's share is the join's clone count minus the cogroup's, which
/// reads the same inputs the same way and expands nothing.
#[test]
fn join_moves_the_many_side_and_clones_the_single_side_n_minus_1_times() {
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
        assert_eq!(many_total - many_read, 0, "many side cloned");
        assert_eq!(single_total - single_read, pairs - 4, "n − 1 per key");
    }
}
