//! Analytic cost model — Table 4 and §5 of the paper.
//!
//! For a mode-1 MTTKRP on a 3rd-order tensor with `nnz` nonzeros and rank
//! `R` (Table 4):
//!
//! | Algorithm  | Flops    | Intermediate data        | Shuffles |
//! |------------|----------|--------------------------|----------|
//! | BIGtensor  | 5·nnz·R  | max(J+nnz, K+nnz) elems  | 4        |
//! | CSTF-COO   | 3·nnz·R  | nnz·R elems              | 3        |
//! | CSTF-QCOO  | 3·nnz·R  | 2·nnz·R elems            | 2        |
//!
//! Beyond the paper's table, [`Algorithm::DfactoSpmv`] models the
//! DFacTo-style SpMV chain: `2(N−1)·nnz·R` flops and `2(N−1)` shuffles in
//! the worst case; [`spmv_mttkrp_communication`] tightens its traffic when
//! the reduced fiber counts `F_k ≤ nnz` are known.
//!
//! §5 generalizes per CP-ALS iteration: COO shuffles `N²` times moving up
//! to `N²·nnz·R`; QCOO shuffles `2N` times moving `N·(N−1)·nnz·R` in joins,
//! a `1/N` communication saving (33% / 25% / 20% for orders 3 / 4 / 5).
//! The engine-measured counterparts of these numbers are asserted in this
//! crate's tests and regenerated by `figures table4_cost`.

use serde::Serialize;

/// The algorithms the cost model covers: the paper's three plus the
/// DFacTo-style SpMV formulation implemented by
/// [`Strategy::DfactoSpmv`](crate::Strategy::DfactoSpmv).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub enum Algorithm {
    /// BIGtensor / GigaTensor unfolding workflow (3rd-order only).
    BigTensor,
    /// CSTF-COO.
    CstfCoo,
    /// CSTF-QCOO.
    CstfQcoo,
    /// DFacTo-style SpMV chain: `N−1` sparse matrix–vector products over
    /// fiber-keyed rows, `2(N−1)` shuffles of which only the first two are
    /// nnz-sized (the rest move `F_k ≤ nnz` fiber rows).
    DfactoSpmv,
}

impl std::fmt::Display for Algorithm {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Algorithm::BigTensor => write!(f, "BIGtensor"),
            Algorithm::CstfCoo => write!(f, "CSTF-COO"),
            Algorithm::CstfQcoo => write!(f, "CSTF-QCOO"),
            Algorithm::DfactoSpmv => write!(f, "DFacTo-SpMV"),
        }
    }
}

/// Predicted cost of a single MTTKRP.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub struct MttkrpCost {
    /// Floating-point operations.
    pub flops: u64,
    /// Intermediate data, in *elements* (multiply by 8 for bytes).
    pub intermediate_elements: u64,
    /// Tensor-sized shuffle operations.
    pub shuffles: u32,
}

/// Table 4 / §5 cost of one MTTKRP.
///
/// `dims` are the mode extents (used only for BIGtensor's intermediate
/// column term). For CSTF the formulas generalize to any order `N ≥ 2`;
/// BIGtensor is defined for `N = 3` only.
///
/// # Panics
///
/// Panics if `order < 2`, or for [`Algorithm::BigTensor`] with `order != 3`.
pub fn mttkrp_cost(alg: Algorithm, order: usize, nnz: u64, rank: u64, dims: &[u32]) -> MttkrpCost {
    assert!(order >= 2, "MTTKRP needs order ≥ 2");
    let n = order as u64;
    match alg {
        Algorithm::BigTensor => {
            assert_eq!(order, 3, "BIGtensor supports only 3rd-order tensors");
            // J and K: the two non-target mode extents; Table 4 writes the
            // mode-1 case max(J + nnz, K + nnz).
            let j = dims.get(1).copied().unwrap_or(0) as u64;
            let k = dims.get(2).copied().unwrap_or(0) as u64;
            MttkrpCost {
                flops: 5 * nnz * rank,
                intermediate_elements: (j + nnz).max(k + nnz),
                shuffles: 4,
            }
        }
        Algorithm::CstfCoo => MttkrpCost {
            // One row multiply per join stage (N−1 of them) + the final
            // reduce: N·nnz·R (3·nnz·R for N = 3, matching Table 4).
            flops: n * nnz * rank,
            intermediate_elements: nnz * rank,
            shuffles: order as u32,
        },
        Algorithm::CstfQcoo => MttkrpCost {
            flops: n * nnz * rank,
            // (N−1) carried rows per nonzero (2·nnz·R for N = 3).
            intermediate_elements: (n - 1) * nnz * rank,
            shuffles: 2,
        },
        // Upper bound with every fiber count F_k taken as nnz.
        Algorithm::DfactoSpmv => MttkrpCost {
            // 2R flops per stored element of each of the N−1 operands:
            // the first SpMV touches nnz elements, later ones at most.
            flops: 2 * (n - 1) * nnz * rank,
            intermediate_elements: nnz * rank,
            shuffles: 2 * (order as u32 - 1),
        },
    }
}

/// Exact data communicated by one DFacTo-SpMV MTTKRP, in elements: the
/// first join + reduce each move `nnz·R`, and each later join + reduce
/// pair moves `F_k·R` twice — `R(2·nnz + 2·ΣF_k)` in total.
pub fn spmv_mttkrp_communication(nnz: u64, rank: u64, fiber_counts: &[u64]) -> u64 {
    2 * rank * (nnz + fiber_counts.iter().sum::<u64>())
}

/// Maximum data communicated by shuffles during one full CP-ALS iteration,
/// in elements (§5): `N²·nnz·R` for COO; `N·(N−1)·nnz·R` of join traffic
/// for QCOO.
pub fn iteration_communication(alg: Algorithm, order: usize, nnz: u64, rank: u64) -> u64 {
    let n = order as u64;
    match alg {
        Algorithm::BigTensor => {
            assert_eq!(order, 3);
            // §5: "the total amount of communicated data is 4 × nnz × R"
            // per MTTKRP; N MTTKRPs per iteration.
            4 * n * nnz * rank
        }
        Algorithm::CstfCoo => n * n * nnz * rank,
        Algorithm::CstfQcoo => n * (n - 1) * nnz * rank,
        // Upper bound (F_k = nnz): N MTTKRPs × 2(N−1) shuffles × nnz·R.
        // With real fiber counts, `spmv_mttkrp_communication` per mode is
        // much tighter — all but the first two shuffles are fiber-sized.
        Algorithm::DfactoSpmv => n * 2 * (n - 1) * nnz * rank,
    }
}

/// QCOO's predicted communication saving over COO for an order-`N` tensor:
/// `1 − N(N−1)/N² = 1/N`. The paper quotes 33% / 25% / 20% for orders
/// 3 / 4 / 5.
pub fn qcoo_savings(order: usize) -> f64 {
    assert!(order >= 2);
    1.0 / order as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    const DIMS3: [u32; 3] = [100, 200, 300];

    #[test]
    fn table4_exact_values() {
        let nnz = 1_000u64;
        let r = 2u64;
        let big = mttkrp_cost(Algorithm::BigTensor, 3, nnz, r, &DIMS3);
        assert_eq!(big.flops, 5 * nnz * r);
        assert_eq!(big.intermediate_elements, 300 + nnz); // max(J,K)+nnz
        assert_eq!(big.shuffles, 4);

        let coo = mttkrp_cost(Algorithm::CstfCoo, 3, nnz, r, &DIMS3);
        assert_eq!(coo.flops, 3 * nnz * r);
        assert_eq!(coo.intermediate_elements, nnz * r);
        assert_eq!(coo.shuffles, 3);

        let qcoo = mttkrp_cost(Algorithm::CstfQcoo, 3, nnz, r, &DIMS3);
        assert_eq!(qcoo.flops, 3 * nnz * r);
        assert_eq!(qcoo.intermediate_elements, 2 * nnz * r);
        assert_eq!(qcoo.shuffles, 2);
    }

    #[test]
    fn cstf_flops_are_equal() {
        // "The required number of flops for CSTF-QCOO is the same as
        // CSTF-COO" (§5).
        for order in 2..6 {
            let dims = vec![10u32; order];
            let a = mttkrp_cost(Algorithm::CstfCoo, order, 500, 4, &dims);
            let b = mttkrp_cost(Algorithm::CstfQcoo, order, 500, 4, &dims);
            assert_eq!(a.flops, b.flops);
        }
    }

    #[test]
    fn iteration_communication_formulas() {
        let nnz = 100u64;
        let r = 2u64;
        // §5: COO moves N²·nnz·R per iteration.
        assert_eq!(
            iteration_communication(Algorithm::CstfCoo, 3, nnz, r),
            9 * nnz * r
        );
        // QCOO: N(N−1)·nnz·R.
        assert_eq!(
            iteration_communication(Algorithm::CstfQcoo, 3, nnz, r),
            6 * nnz * r
        );
        assert_eq!(
            iteration_communication(Algorithm::CstfQcoo, 4, nnz, r),
            12 * nnz * r
        );
    }

    #[test]
    fn savings_match_paper_percentages() {
        // "for real world tensors of orders of 3, 4, or 5, CSTF-QCOO
        // reduces communication costs up to 33%, 25%, and 20%" (§5).
        assert!((qcoo_savings(3) - 1.0 / 3.0).abs() < 1e-12);
        assert!((qcoo_savings(4) - 0.25).abs() < 1e-12);
        assert!((qcoo_savings(5) - 0.20).abs() < 1e-12);
        for order in 3..6 {
            let coo = iteration_communication(Algorithm::CstfCoo, order, 1000, 2) as f64;
            let qcoo = iteration_communication(Algorithm::CstfQcoo, order, 1000, 2) as f64;
            assert!(((coo - qcoo) / coo - qcoo_savings(order)).abs() < 1e-12);
        }
    }

    #[test]
    #[should_panic(expected = "3rd-order")]
    fn bigtensor_rejects_order4() {
        mttkrp_cost(Algorithm::BigTensor, 4, 10, 2, &[2, 2, 2, 2]);
    }

    #[test]
    fn display_names() {
        assert_eq!(Algorithm::BigTensor.to_string(), "BIGtensor");
        assert_eq!(Algorithm::CstfCoo.to_string(), "CSTF-COO");
        assert_eq!(Algorithm::CstfQcoo.to_string(), "CSTF-QCOO");
        assert_eq!(Algorithm::DfactoSpmv.to_string(), "DFacTo-SpMV");
    }

    #[test]
    fn spmv_upper_bound_and_shuffles() {
        let nnz = 1_000u64;
        let r = 2u64;
        let spmv = mttkrp_cost(Algorithm::DfactoSpmv, 3, nnz, r, &DIMS3);
        // Order 3: two SpMVs, 2·2·nnz·R flops, 4 shuffles.
        assert_eq!(spmv.flops, 4 * nnz * r);
        assert_eq!(spmv.shuffles, 4);
        assert_eq!(
            iteration_communication(Algorithm::DfactoSpmv, 3, nnz, r),
            12 * nnz * r
        );
    }

    #[test]
    fn spmv_exact_cost_tightens_with_fiber_counts() {
        let nnz = 1_000u64;
        let r = 2u64;
        // Order 4 with fiber counts well below nnz. Communication:
        // R(2·nnz + 2·ΣF).
        assert_eq!(
            spmv_mttkrp_communication(nnz, r, &[120, 30]),
            2 * r * (nnz + 150)
        );
    }
}
