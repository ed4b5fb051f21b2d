//! The bit-identity oracle's own tests: the group table is valid and run
//! by tier-1, tier-1 covers every pair of column values, and the full
//! product (`--ignored`).

use cstf_core::Strategy;
use cstf_integration_tests::oracle::{check, check_all, cycle, Row, Tensor, COLUMN_SIZES, GROUPS};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::cmp::Reverse;
use std::collections::HashSet;

/// `(column a, value a, column b, value b)`.
type Pair = (usize, usize, usize, usize);

fn pairs(row: &Row) -> impl Iterator<Item = Pair> {
    let v = row.labels();
    let n = v.len();
    let columns = (0..n).flat_map(move |a| (a + 1..n).map(move |b| (a, b)));
    columns.map(move |(a, b)| (a, v[a], b, v[b]))
}

/// The row every column value is set on: each column at its first value.
fn reference() -> Row {
    cycle(Tensor::Golden, Strategy::Coo)
}

/// Every pair of column values some valid row can take.
fn valid_pairs() -> Vec<Pair> {
    let n = COLUMN_SIZES;
    let values =
        |a: usize, b: usize| (0..n[a]).flat_map(move |va| (0..n[b]).map(move |vb| (va, vb)));
    let all = (0..n.len()).flat_map(|a| (a + 1..n.len()).map(move |b| (a, b)));
    let all = all.flat_map(|(a, b)| values(a, b).map(move |(va, vb)| (a, va, b, vb)));
    all.filter(|&(a, va, b, vb)| reference().set(a, va, 0).set(b, vb, 0).valid())
        .collect()
}

fn explicit_rows() -> Vec<Row> {
    GROUPS.iter().flat_map(|(_, rows)| rows()).collect()
}

/// Greedy seeded pairwise cover of what the explicit rows leave
/// uncovered: each new row starts from an uncovered pair and fills the
/// other columns with the values that cover the most uncovered pairs.
fn pairwise_sample() -> Vec<Row> {
    let mut rng = StdRng::seed_from_u64(0x0c57_f0a1);
    let mut uncovered: HashSet<Pair> = valid_pairs().into_iter().collect();
    for row in explicit_rows() {
        for p in pairs(&row) {
            uncovered.remove(&p);
        }
    }
    let (sizes, base) = (COLUMN_SIZES, reference());
    let mut sample = Vec::new();
    while let Some(&(a, va, b, vb)) = uncovered.iter().min() {
        let seed = rng.gen::<u64>() % 1000;
        let mut row = base.set(a, va, seed).set(b, vb, seed);
        for col in (0..sizes.len()).filter(|&c| c != a && c != b) {
            let gain = |v: usize| {
                let r = row.set(col, v, seed);
                if !r.valid() {
                    return None;
                }
                Some(pairs(&r).filter(|p| uncovered.contains(p)).count())
            };
            // Ties go to the earlier (cheaper, reference-side) value.
            let best = (0..sizes[col])
                .filter_map(|v| gain(v).map(|g| (g, Reverse(v))))
                .max();
            if let Some((_, Reverse(v))) = best {
                row = row.set(col, v, seed);
            }
        }
        for p in pairs(&row) {
            uncovered.remove(&p);
        }
        sample.push(row);
    }
    sample
}

#[test]
fn groups_are_valid_run_by_their_tests_and_tier_one_covers_every_pair() {
    let base = reference();
    assert_eq!(base.labels().len(), COLUMN_SIZES.len());
    for (col, &n) in COLUMN_SIZES.iter().enumerate() {
        for value in 0..n {
            let labels = base.set(col, value, 1).labels();
            assert_eq!(labels[col], value, "column {col}: set and labels disagree");
        }
    }
    for (name, rows) in GROUPS {
        let (suite, test) = name.split_once("::").unwrap();
        let path = format!("{}/tests/{suite}.rs", env!("CARGO_MANIFEST_DIR"));
        let source = std::fs::read_to_string(path).unwrap();
        assert!(source.contains(test), "{name}: no test runs this group");
        assert!(rows().iter().all(Row::valid), "{name}: invalid row");
    }
    let mut covered: HashSet<Pair> = HashSet::new();
    for row in explicit_rows().iter().chain(&pairwise_sample()) {
        covered.extend(pairs(row));
    }
    for pair in valid_pairs() {
        assert!(covered.contains(&pair), "pair {pair:?} is not covered");
    }
}

#[test]
fn pairwise_sample_reproduces_ground_truth() {
    check_all(&pairwise_sample());
}

/// Every valid combination of column values (seed 7 for generated
/// tensors and fault schedules): hours on two cores.
#[test]
#[ignore]
fn full_product_reproduces_ground_truth() {
    let sizes = COLUMN_SIZES;
    let base = reference();
    let total: usize = sizes.iter().product();
    for mut index in 0..total {
        let mut row = base;
        for (col, &n) in sizes.iter().enumerate() {
            row = row.set(col, index % n, 7);
            index /= n;
        }
        if row.valid() {
            check(&row);
        }
    }
}
