//! Partitioner-propagation and narrow-join scheduling tests.
//!
//! Verifies the provenance rules (which operators keep, set, or drop the
//! recorded partitioner), that co-partitioned wide operations really run
//! without shuffle-map stages, and that the shuffle-skipping paths return
//! exactly what the shuffled paths would.

use cstf_dataflow::prelude::*;
use proptest::prelude::*;
use std::collections::BTreeMap;

fn cluster(nodes: usize) -> Cluster {
    Cluster::new(ClusterConfig::local(2).nodes(nodes))
}

#[test]
fn shuffle_outputs_record_their_partitioner() {
    let c = cluster(2);
    let pairs = c.parallelize(vec![(1u32, 1i64), (2, 2), (1, 3)], 2);
    assert!(
        pairs.partitioner().is_none(),
        "parallelize has no partitioner"
    );

    let reduced = pairs.reduce_by_key_with(4, false, |a, b| a + b);
    assert_eq!(reduced.partitioner(), Some(HashPartitioner::new(4)));

    let parted = pairs.partition_by(3);
    assert_eq!(parted.partitioner(), Some(HashPartitioner::new(3)));

    let grouped = pairs.group_by_key_with(5);
    assert_eq!(grouped.partitioner(), Some(HashPartitioner::new(5)));

    let other = c.parallelize(vec![(1u32, 9u8)], 2);
    let joined = pairs.join_with(&other, 6);
    assert_eq!(joined.partitioner(), Some(HashPartitioner::new(6)));

    let cogrouped = pairs.cogroup_with(&other, 7);
    assert_eq!(cogrouped.partitioner(), Some(HashPartitioner::new(7)));
}

#[test]
fn narrow_ops_preserve_and_key_changing_ops_drop() {
    let c = cluster(2);
    let parted = c
        .parallelize(vec![(1u32, 1i64), (2, 2), (1, 3)], 2)
        .partition_by(4);
    let p = Some(HashPartitioner::new(4));
    assert_eq!(parted.partitioner(), p);

    // Partitioning-preserving narrow ops propagate provenance.
    assert_eq!(parted.map_values(|v| v * 2).partitioner(), p);
    assert_eq!(parted.filter(|_| true).partitioner(), p);
    assert_eq!(parted.persist(StorageLevel::MemoryRaw).partitioner(), p);

    // Key-changing (or key-oblivious) ops drop it.
    assert!(parted.map(|kv| kv).partitioner().is_none());
    assert!(parted.flat_map(|kv| vec![kv]).partitioner().is_none());
    assert!(parted
        .map_partitions(|_, data| data)
        .partitioner()
        .is_none());
}

#[test]
fn co_partitioned_join_spawns_zero_shuffle_map_stages() {
    let c = cluster(2);
    let p = HashPartitioner::new(4);
    let left = c.parallelize_by_key(vec![(1u32, 10i64), (2, 20), (3, 30), (1, 11)], p);
    let right = c.parallelize_by_key(vec![(1u32, 7u8), (2, 8), (4, 9)], p);
    c.metrics().reset();
    let mut joined = left.join_with(&right, 4).collect();
    joined.sort();
    assert_eq!(joined, vec![(1, (10, 7)), (1, (11, 7)), (2, (20, 8))]);
    let m = c.metrics().snapshot();
    assert_eq!(m.shuffle_count(), 0, "co-partitioned join must not shuffle");
    assert_eq!(m.total_shuffle_bytes(), 0);
    assert_eq!(m.skipped_shuffle_count(), 2);
}

#[test]
fn half_partitioned_join_shuffles_only_the_mismatched_side() {
    let c = cluster(2);
    let left = c.parallelize_by_key(vec![(1u32, 10i64), (2, 20)], HashPartitioner::new(4));
    let right = c.parallelize(vec![(1u32, 7u8), (2, 8)], 3); // unpartitioned
    c.metrics().reset();
    let mut joined = left.join_with(&right, 4).collect();
    joined.sort();
    assert_eq!(joined, vec![(1, (10, 7)), (2, (20, 8))]);
    let m = c.metrics().snapshot();
    assert_eq!(m.shuffle_count(), 1, "only the right side shuffles");
    assert_eq!(m.skipped_shuffle_count(), 1);
}

#[test]
fn partition_by_is_a_no_op_when_already_partitioned() {
    let c = cluster(2);
    let parted = c
        .parallelize(vec![(1u32, 1i64), (2, 2), (5, 5)], 2)
        .partition_by(4);
    parted.count(); // materialize the first shuffle
    c.metrics().reset();
    let again = parted.partition_by(4);
    again.count();
    let m = c.metrics().snapshot();
    assert_eq!(m.shuffle_count(), 0);
    assert_eq!(m.skipped_shuffle_count(), 1);
    // A different target count still shuffles.
    parted.partition_by(3).count();
    assert_eq!(c.metrics().snapshot().shuffle_count(), 1);
}

#[test]
fn narrow_reduce_by_key_matches_shuffled_reduce_bitwise() {
    let c = cluster(3);
    let data: Vec<(u32, f64)> = (0..500)
        .map(|i| (i % 37, (i as f64) * 0.1 + 0.013))
        .collect();

    // Shuffled baseline: no partitioner provenance on the input.
    let mut base = c
        .parallelize(data.clone(), 5)
        .reduce_by_key_with(4, false, |a, b| a + b)
        .collect();
    base.sort_by_key(|&(k, _)| k);

    // Narrow path: pre-partitioned input, reduce onto the same partitioner.
    let pre = c.parallelize_by_key(data, HashPartitioner::new(4));
    c.metrics().reset();
    let mut narrow = pre.reduce_by_key_with(4, false, |a, b| a + b).collect();
    narrow.sort_by_key(|&(k, _)| k);
    assert_eq!(c.metrics().snapshot().shuffle_count(), 0);
    assert_eq!(c.metrics().snapshot().skipped_shuffle_count(), 1);

    assert_eq!(base.len(), narrow.len());
    for ((k1, v1), (k2, v2)) in base.iter().zip(narrow.iter()) {
        assert_eq!(k1, k2);
        assert_eq!(
            v1.to_bits(),
            v2.to_bits(),
            "key {k1}: f64 sums must be bit-identical"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// The narrow (shuffle-skipping) join agrees with the plain shuffled
    /// join for arbitrary data, partition counts and node counts.
    #[test]
    fn narrow_join_equals_shuffled_join(
        left in prop::collection::vec((0u32..40, any::<i32>()), 0..120),
        right in prop::collection::vec((0u32..40, any::<i16>()), 0..120),
        parts in 1usize..8,
        nodes in 1usize..5,
    ) {
        let c = cluster(nodes);
        let mut shuffled = c
            .parallelize(left.clone(), 3)
            .join_with(&c.parallelize(right.clone(), 2), parts)
            .collect();
        shuffled.sort();

        let p = HashPartitioner::new(parts);
        let lp = c.parallelize_by_key(left, p);
        let rp = c.parallelize_by_key(right, p);
        c.metrics().reset();
        let mut narrow = lp.join_with(&rp, parts).collect();
        narrow.sort();
        prop_assert_eq!(c.metrics().snapshot().shuffle_count(), 0);
        prop_assert_eq!(shuffled, narrow);
    }

    /// parallelize_by_key + narrow reduce agrees with a sequential map.
    #[test]
    fn pre_partitioned_reduce_matches_reference(
        data in prop::collection::vec((0u32..30, any::<i64>()), 0..200),
        parts in 1usize..8,
    ) {
        let c = cluster(2);
        let mut expect: BTreeMap<u32, i64> = BTreeMap::new();
        for (k, v) in &data {
            expect.entry(*k).and_modify(|s| *s = s.wrapping_add(*v)).or_insert(*v);
        }
        let got: BTreeMap<u32, i64> = c
            .parallelize_by_key(data, HashPartitioner::new(parts))
            .reduce_by_key_with(parts, false, |a, b| a.wrapping_add(b))
            .collect()
            .into_iter()
            .collect();
        prop_assert_eq!(got, expect);
    }
}
