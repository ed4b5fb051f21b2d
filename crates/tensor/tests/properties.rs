//! Property-based tests for the tensor substrate: storage-format
//! round-trips, algebraic identities, and MTTKRP equivalences on
//! arbitrary inputs.

use cstf_tensor::linalg::{pinv_symmetric, solve_normal_equations};
use cstf_tensor::mttkrp::{mttkrp, mttkrp_unfolded};
use cstf_tensor::random::RandomTensor;
use cstf_tensor::{khatri_rao, khatri_rao_all, matricize, unfold_column, unfold_strides};
use cstf_tensor::{CooTensor, DenseMatrix};
use proptest::prelude::*;
use rand::{rngs::StdRng, SeedableRng};

fn arb_tensor() -> impl Strategy<Value = CooTensor> {
    (2usize..=4)
        .prop_flat_map(|order| {
            let shape = prop::collection::vec(2u32..9, order..=order);
            (shape, 0usize..50, any::<u64>())
        })
        .prop_map(|(shape, nnz, seed)| {
            RandomTensor::new(shape)
                .nnz(nnz)
                .seed(seed)
                .values_in(-2.0, 2.0)
                .build()
        })
}

fn factors_for(t: &CooTensor, rank: usize, seed: u64) -> Vec<DenseMatrix> {
    let mut rng = StdRng::seed_from_u64(seed);
    t.shape()
        .iter()
        .map(|&s| DenseMatrix::random(s as usize, rank, &mut rng))
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    /// Sorting preserves the (coordinate, value) multiset.
    #[test]
    fn sort_is_a_permutation(t in arb_tensor(), mode_pick in any::<u8>()) {
        let mut sorted = t.clone();
        let mode = mode_pick as usize % t.order();
        sorted.sort_by_mode(mode);
        prop_assert_eq!(sorted.nnz(), t.nnz());
        let mut a: Vec<(Vec<u32>, u64)> =
            t.iter().map(|(c, v)| (c.to_vec(), v.to_bits())).collect();
        let mut b: Vec<(Vec<u32>, u64)> =
            sorted.iter().map(|(c, v)| (c.to_vec(), v.to_bits())).collect();
        a.sort();
        b.sort();
        prop_assert_eq!(a, b);
    }

    /// sum_duplicates preserves the total sum per coordinate.
    #[test]
    fn sum_duplicates_preserves_totals(
        coords in prop::collection::vec((0u32..4, 0u32..4), 1..40),
        values in prop::collection::vec(-10.0f64..10.0, 40),
    ) {
        let mut t = CooTensor::new(vec![4, 4]);
        for (i, &(a, b)) in coords.iter().enumerate() {
            t.push(&[a, b], values[i]).unwrap();
        }
        let total_before: f64 = t.values().iter().sum();
        let mut deduped = t.clone();
        deduped.sum_duplicates();
        let total_after: f64 = deduped.values().iter().sum();
        prop_assert!((total_before - total_after).abs() < 1e-9);
        // No coordinate appears twice afterwards.
        let mut seen = std::collections::HashSet::new();
        for (c, _) in deduped.iter() {
            prop_assert!(seen.insert(c.to_vec()));
        }
    }

    /// Nonzero-driven MTTKRP ≡ unfolded-matrix MTTKRP on every mode.
    #[test]
    fn mttkrp_equals_unfolded(t in arb_tensor(), fseed in any::<u64>()) {
        let factors = factors_for(&t, 2, fseed);
        let refs: Vec<&DenseMatrix> = factors.iter().collect();
        for mode in 0..t.order() {
            let fast = mttkrp(&t, &refs, mode).unwrap();
            let slow = mttkrp_unfolded(&t, &refs, mode).unwrap();
            prop_assert!(fast.max_abs_diff(&slow) < 1e-9, "mode {mode}");
        }
    }

    /// Unfolding column indices are injective over distinct off-mode
    /// coordinates and bounded by the column-space size.
    #[test]
    fn unfold_columns_injective(t in arb_tensor(), mode_pick in any::<u8>()) {
        let mode = mode_pick as usize % t.order();
        let m = matricize(&t, mode).unwrap();
        let strides = unfold_strides(t.shape(), mode);
        let mut seen = std::collections::HashMap::new();
        for (coord, _) in t.iter() {
            let col = unfold_column(coord, &strides);
            prop_assert!(col < m.cols);
            let mut off: Vec<u32> = coord.to_vec();
            off.remove(mode);
            if let Some(prev) = seen.insert(col, off.clone()) {
                prop_assert_eq!(prev, off, "distinct off-coords collided");
            }
        }
    }

    /// (A ⊙ B)ᵀ(A ⊙ B) = AᵀA ∗ BᵀB for arbitrary sizes.
    #[test]
    fn kr_gram_identity(ra in 1usize..6, rb in 1usize..6, rank in 1usize..5, seed in any::<u64>()) {
        let mut rng = StdRng::seed_from_u64(seed);
        let a = DenseMatrix::random(ra, rank, &mut rng);
        let b = DenseMatrix::random(rb, rank, &mut rng);
        let kr = khatri_rao(&a, &b).unwrap();
        let lhs = kr.gram();
        let rhs = a.gram().hadamard(&b.gram()).unwrap();
        prop_assert!(lhs.max_abs_diff(&rhs) < 1e-10);
    }

    /// Khatri-Rao is associative: (A ⊙ B) ⊙ C = A ⊙ (B ⊙ C).
    #[test]
    fn kr_associative(seed in any::<u64>()) {
        let mut rng = StdRng::seed_from_u64(seed);
        let a = DenseMatrix::random(2, 3, &mut rng);
        let b = DenseMatrix::random(3, 3, &mut rng);
        let c = DenseMatrix::random(4, 3, &mut rng);
        let left = khatri_rao(&khatri_rao(&a, &b).unwrap(), &c).unwrap();
        let right = khatri_rao(&a, &khatri_rao(&b, &c).unwrap()).unwrap();
        prop_assert!(left.max_abs_diff(&right) < 1e-12);
        let all = khatri_rao_all(&[&a, &b, &c]).unwrap();
        prop_assert!(left.max_abs_diff(&all) < 1e-12);
    }

    /// Pseudoinverse satisfies A·A⁺·A = A for random symmetric PSD inputs
    /// (including rank-deficient ones).
    #[test]
    fn pinv_reproduces(n in 1usize..6, r in 1usize..6, seed in any::<u64>()) {
        let mut rng = StdRng::seed_from_u64(seed);
        let b = DenseMatrix::random(r.min(n), n, &mut rng);
        let a = b.transpose().matmul(&b).unwrap(); // PSD, rank ≤ min(r, n)
        let p = pinv_symmetric(&a).unwrap();
        let apa = a.matmul(&p).unwrap().matmul(&a).unwrap();
        // Relative tolerance: near-cutoff eigenvalues leave residuals
        // proportional to the matrix scale.
        prop_assert!(apa.max_abs_diff(&a) < 1e-6 * (1.0 + a.frobenius_norm()));
    }

    /// Normal-equation solutions satisfy the normal equations:
    /// (M V⁺) V ≈ M whenever V is invertible.
    #[test]
    fn normal_equations_solve(rows in 1usize..8, rank in 1usize..5, seed in any::<u64>()) {
        let mut rng = StdRng::seed_from_u64(seed);
        let base = DenseMatrix::random(rank + 3, rank, &mut rng);
        let mut v = base.gram();
        for i in 0..rank {
            v.set(i, i, v.get(i, i) + 0.1); // keep comfortably PD
        }
        let m = DenseMatrix::random(rows, rank, &mut rng);
        let a = solve_normal_equations(&m, &v).unwrap();
        let mv = a.matmul(&v).unwrap();
        prop_assert!(mv.max_abs_diff(&m) < 1e-6);
    }

    /// MTTKRP distributes over tensor concatenation: M(X₁ ∪ X₂) = M(X₁) + M(X₂).
    #[test]
    fn mttkrp_additive(t in arb_tensor(), fseed in any::<u64>(), split_pick in any::<u16>()) {
        prop_assume!(t.nnz() >= 2);
        let factors = factors_for(&t, 2, fseed);
        let refs: Vec<&DenseMatrix> = factors.iter().collect();
        let split = 1 + (split_pick as usize % (t.nnz() - 1));
        let order = t.order();
        let (idx1, idx2) = t.flat_indices().split_at(split * order);
        let (v1, v2) = t.values().split_at(split);
        let t1 = CooTensor::from_flat(t.shape().to_vec(), idx1.to_vec(), v1.to_vec()).unwrap();
        let t2 = CooTensor::from_flat(t.shape().to_vec(), idx2.to_vec(), v2.to_vec()).unwrap();
        let whole = mttkrp(&t, &refs, 0).unwrap();
        let parts = mttkrp(&t1, &refs, 0).unwrap().add(&mttkrp(&t2, &refs, 0).unwrap()).unwrap();
        prop_assert!(whole.max_abs_diff(&parts) < 1e-9);
    }
}

/// One line of a hostile `.tns` file, built from `pick`, and what a
/// correct reader must make of it: `None` for a comment or blank line,
/// else the data line's index count and whether all its tokens are valid.
fn hostile_line(pick: u64, order: usize) -> (String, Option<(usize, bool)>) {
    const GOOD_INDEX: [&str; 3] = ["1", "2", "4294967295"];
    const BAD_INDEX: [&str; 5] = ["0", "4294967296", "x", "-1", "1.5"];
    const GOOD_VALUE: [&str; 4] = ["1.5", "-2", "0", "3e-5"];
    const BAD_VALUE: [&str; 6] = ["nan", "NaN", "inf", "-Infinity", "1e400", "one"];
    let at = |list: &[&'static str], k: u64| list[(k % list.len() as u64) as usize];
    let (kind, rest) = (pick % 8, pick / 8);
    let count = match kind {
        5 => 1 + (rest % 5) as usize,
        6 => 1,
        _ => order,
    };
    let mut tokens: Vec<&str> = (0..count)
        .map(|m| at(&GOOD_INDEX, rest >> (2 * m)))
        .collect();
    tokens.push(at(&GOOD_VALUE, rest >> 20));
    let valid = match kind {
        1 => return ("# a comment 1 2 3".into(), None),
        2 => return (["", "   ", "\t"][(rest % 3) as usize].into(), None),
        3 => {
            tokens[(rest % count as u64) as usize] = at(&BAD_INDEX, rest >> 24);
            false
        }
        4 => {
            tokens[count] = at(&BAD_VALUE, rest >> 24);
            false
        }
        7 => return (at(&GOOD_INDEX, rest).into(), Some((0, false))),
        _ => true,
    };
    (tokens.join(" "), Some((count, valid)))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// `read_tns` on files assembled from good and hostile lines never
    /// panics, succeeds exactly when every data line is well formed (and
    /// agrees with the first on its index count), round-trips through
    /// `write_tns` bit for bit, and names the first bad line on failure.
    #[test]
    fn read_tns_survives_hostile_input(
        picks in prop::collection::vec(any::<u64>(), 0..12),
        order in 1usize..=4,
    ) {
        let lines: Vec<_> = picks.iter().map(|&p| hostile_line(p, order)).collect();
        let text: String = lines.iter().map(|(l, _)| format!("{l}\n")).collect();
        let mut first_count = None;
        let mut first_bad = None;
        for (n, (_, data)) in lines.iter().enumerate() {
            let Some((count, valid)) = *data else { continue };
            let agrees = *first_count.get_or_insert(count) == count;
            if !(valid && agrees) {
                first_bad = Some(n + 1);
                break;
            }
        }
        match cstf_tensor::io::read_tns(text.as_bytes()) {
            Ok(t) => {
                prop_assert!(first_bad.is_none() && first_count.is_some(), "accepted:\n{text}");
                let mut out = Vec::new();
                cstf_tensor::io::write_tns(&t, &mut out).unwrap();
                let back = cstf_tensor::io::read_tns(out.as_slice()).unwrap();
                prop_assert_eq!(back.shape(), t.shape());
                prop_assert_eq!(back.nnz(), t.nnz());
                for z in 0..t.nnz() {
                    prop_assert_eq!(back.coord(z), t.coord(z));
                    prop_assert_eq!(back.values()[z].to_bits(), t.values()[z].to_bits());
                }
            }
            Err(e) => {
                let want = match first_bad {
                    Some(n) => format!("line {n}:"),
                    None => "no data lines".to_string(),
                };
                prop_assert!(e.to_string().contains(&want), "{e} lacks {want}:\n{text}");
            }
        }
    }
}
