//! Property-based tests: engine operators must agree with sequential
//! reference semantics for arbitrary inputs and partitionings.

use cstf_dataflow::prelude::*;
use proptest::prelude::*;
use std::collections::BTreeMap;

fn cluster(nodes: usize) -> Cluster {
    Cluster::new(ClusterConfig::local(2).nodes(nodes))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn collect_preserves_order(
        data in prop::collection::vec(any::<u32>(), 0..200),
        parts in 1usize..12,
    ) {
        let c = cluster(2);
        prop_assert_eq!(c.parallelize(data.clone(), parts).collect(), data);
    }

    #[test]
    fn count_matches_len(
        data in prop::collection::vec(any::<u8>(), 0..300),
        parts in 1usize..9,
    ) {
        let c = cluster(3);
        prop_assert_eq!(c.parallelize(data.clone(), parts).count(), data.len() as u64);
    }

    #[test]
    fn map_commutes_with_collect(
        data in prop::collection::vec(any::<i32>(), 0..200),
        parts in 1usize..8,
    ) {
        let c = cluster(2);
        let got = c.parallelize(data.clone(), parts).map(|x| x.wrapping_mul(3)).collect();
        let expect: Vec<i32> = data.into_iter().map(|x| x.wrapping_mul(3)).collect();
        prop_assert_eq!(got, expect);
    }

    #[test]
    fn filter_commutes_with_collect(
        data in prop::collection::vec(any::<u16>(), 0..200),
        parts in 1usize..8,
    ) {
        let c = cluster(2);
        let got = c.parallelize(data.clone(), parts).filter(|x| x % 3 == 1).collect();
        let expect: Vec<u16> = data.into_iter().filter(|x| x % 3 == 1).collect();
        prop_assert_eq!(got, expect);
    }

    #[test]
    fn reduce_by_key_equals_btreemap_reference(
        data in prop::collection::vec((0u32..50, any::<i64>()), 0..300),
        parts in 1usize..10,
        nodes in 1usize..6,
        map_side in any::<bool>(),
    ) {
        let c = cluster(nodes);
        let got: BTreeMap<u32, i64> = c
            .parallelize(data.clone(), parts)
            .reduce_by_key_with(8, map_side, |a, b| a.wrapping_add(b))
            .collect()
            .into_iter()
            .collect();
        let mut expect: BTreeMap<u32, i64> = BTreeMap::new();
        for (k, v) in data {
            expect.entry(k).and_modify(|e| *e = e.wrapping_add(v)).or_insert(v);
        }
        prop_assert_eq!(got, expect);
    }

    #[test]
    fn cogroup_equals_reference(
        left in prop::collection::vec((0u32..20, 0u32..1000), 0..200),
        right in prop::collection::vec((0u32..20, 0u8..100), 0..60),
        parts in 1usize..8,
    ) {
        let c = cluster(4);
        let mut got: BTreeMap<u32, (Vec<u32>, Vec<u8>)> = c
            .parallelize(left.clone(), parts)
            .cogroup(&c.parallelize(right.clone(), parts))
            .collect()
            .into_iter()
            .collect();
        let mut expect: BTreeMap<u32, (Vec<u32>, Vec<u8>)> = BTreeMap::new();
        for (k, v) in left { expect.entry(k).or_default().0.push(v); }
        for (k, w) in right { expect.entry(k).or_default().1.push(w); }
        for (vs, ws) in got.values_mut().chain(expect.values_mut()) {
            vs.sort_unstable();
            ws.sort_unstable();
        }
        prop_assert_eq!(got, expect);
    }

    #[test]
    fn join_equals_nested_loop_reference(
        left in prop::collection::vec((0u32..15, 0u8..100), 0..60),
        right in prop::collection::vec((0u32..15, 100u8..200), 0..60),
        parts in 1usize..6,
    ) {
        let c = cluster(3);
        let mut got = c
            .parallelize(left.clone(), parts)
            .join_with(&c.parallelize(right.clone(), parts), 7)
            .collect();
        got.sort();
        let mut expect = Vec::new();
        for &(kl, v) in &left {
            for &(kr, w) in &right {
                if kl == kr { expect.push((kl, (v, w))); }
            }
        }
        expect.sort();
        prop_assert_eq!(got, expect);
    }

    #[test]
    fn partition_by_is_a_permutation(
        data in prop::collection::vec((any::<u32>(), any::<u16>()), 0..200),
        parts in 1usize..9,
    ) {
        let c = cluster(4);
        let mut got = c.parallelize(data.clone(), 3).partition_by(parts).collect();
        let mut expect = data;
        got.sort();
        expect.sort();
        prop_assert_eq!(got, expect);
    }

    #[test]
    fn shuffle_bytes_are_node_count_invariant(
        data in prop::collection::vec((0u32..64, any::<u32>()), 1..200),
        nodes_a in 1usize..8,
        nodes_b in 1usize..8,
    ) {
        // Total shuffled bytes depend only on data and partitioning, not on
        // node placement; only the remote/local split moves.
        let run = |nodes| {
            let c = Cluster::new(ClusterConfig::local(2).nodes(nodes).default_parallelism(8));
            let _ = c.parallelize(data.clone(), 8).reduce_by_key(|a, b| a ^ b).collect();
            let m = c.metrics().snapshot();
            (m.total_shuffle_bytes(), m.total_remote_bytes())
        };
        let (total_a, _) = run(nodes_a);
        let (total_b, _) = run(nodes_b);
        prop_assert_eq!(total_a, total_b);
    }

    #[test]
    fn cache_does_not_change_results(
        data in prop::collection::vec((0u32..30, any::<u32>()), 0..150),
    ) {
        let c = cluster(2);
        let base = c.parallelize(data, 5).map(|(k, v)| (k, v as u64));
        let plain = {
            let mut v = base.reduce_by_key(|a, b| a + b).collect();
            v.sort();
            v
        };
        let cached_rdd = base.persist(StorageLevel::MemoryRaw);
        let cached_once = {
            let mut v = cached_rdd.reduce_by_key(|a, b| a + b).collect();
            v.sort();
            v
        };
        let cached_twice = {
            let mut v = cached_rdd.reduce_by_key(|a, b| a + b).collect();
            v.sort();
            v
        };
        prop_assert_eq!(&plain, &cached_once);
        prop_assert_eq!(&plain, &cached_twice);
    }
}
