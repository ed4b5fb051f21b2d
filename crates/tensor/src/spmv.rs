//! DFacTo-style SpMV formulation of MTTKRP (*DFacTo: Distributed
//! Factorization of Tensors*, Choi & Vishwanathan — see PAPERS.md).
//!
//! DFacTo observes that the mode-`n` MTTKRP column
//! `Mₙ(:,r) = X₍ₙ₎ (∗-column r of the Khatri-Rao product)` never needs the
//! Khatri-Rao product at all: it is two sparse matrix–vector products. For
//! a 3rd-order tensor with target mode `n` and contraction modes `j₁, j₂`
//! (descending non-target order, matching CSTF's join order):
//!
//! ```text
//! SpMV 1:  V = contract(X, j₁) · A_{j₁}     — V(fiber,:) = Σ_{i_{j₁}} X(z) · A_{j₁}(i_{j₁},:)
//! SpMV 2:  Mₙ = contract(V, j₂) ∗ A_{j₂}    — Mₙ(iₙ,:)  = Σ_{i_{j₂}} V(fiber,:) ∗ A_{j₂}(i_{j₂},:)
//! ```
//!
//! where a *fiber* is the flattened coordinate over the not-yet-contracted
//! modes. `V` is a CSR-like *matricized view* of the tensor: at most `nnz`
//! rows, usually far fewer (the number of distinct mode-`j₁` fibers), so
//! the second SpMV touches `F ≤ nnz` rows instead of `nnz` — DFacTo's flop
//! and communication saving. Orders above 3 chain one SpMV per non-target
//! mode.
//!
//! This module provides the shared-memory substrate the distributed
//! `DfactoSpmv` strategy in `cstf-core` rides on:
//!
//! * [`FiberSpace`] — mixed-radix encoding of fiber coordinates into `u64`
//!   keys, with per-mode extraction and contraction (`drop_mode`), so the
//!   distributed pipeline can re-key reduced fibers without carrying full
//!   coordinates.
//! * [`SpmvView`] — the CSR-like matricized view for the first SpMV of a
//!   mode, sorted by fiber id (the layout the sorted-runs kernels combine
//!   in linear passes).

use crate::matricize::unfold_strides;
use crate::{CooTensor, DenseMatrix, Result, TensorError};

/// The contraction (SpMV) order the DFacTo chain uses for output mode
/// `mode`: all non-target modes, descending — identical to CSTF's COO join
/// order, so both strategies walk factors in the same sequence.
pub(crate) fn contraction_order(order: usize, mode: usize) -> Vec<usize> {
    (0..order).rev().filter(|&m| m != mode).collect()
}

/// Mixed-radix encoding of *fiber* coordinates — every mode except the
/// first contraction mode — into dense `u64` keys.
///
/// Lower modes vary fastest (the [`crate::matricize`] convention), so the
/// key of a coordinate equals its column index in the mode-`contract`
/// unfolding. Contracting a further mode is pure arithmetic on the key
/// ([`FiberSpace::drop_mode`]): the remaining components keep their
/// strides, so reduced keys stay unique per reduced fiber.
#[derive(Debug, Clone, PartialEq)]
pub struct FiberSpace {
    shape: Vec<u32>,
    contract_mode: usize,
    strides: Vec<u64>,
}

impl FiberSpace {
    /// Builds the fiber space over all modes of `shape` except
    /// `contract_mode`.
    ///
    /// # Panics
    ///
    /// Panics if `contract_mode` is out of range.
    pub fn new(shape: &[u32], contract_mode: usize) -> Self {
        assert!(contract_mode < shape.len(), "contract mode out of range");
        FiberSpace {
            shape: shape.to_vec(),
            contract_mode,
            strides: unfold_strides(shape, contract_mode),
        }
    }

    /// The mode this space contracts away (its index never enters keys).
    pub fn contract_mode(&self) -> usize {
        self.contract_mode
    }

    /// The per-mode key strides (`0` for the contraction mode).
    pub fn strides(&self) -> &[u64] {
        &self.strides
    }

    /// Encodes the fiber of `coord`: `Σ_{m ≠ contract} coord[m] · stride[m]`.
    pub fn encode(&self, coord: &[u32]) -> u64 {
        debug_assert_eq!(coord.len(), self.shape.len());
        coord
            .iter()
            .zip(&self.strides)
            .map(|(&i, &s)| i as u64 * s)
            .sum()
    }

    /// Recovers the mode-`m` component of a fiber key.
    ///
    /// # Panics
    ///
    /// Panics if `m` is the contraction mode (it has no component).
    pub fn extract(&self, key: u64, m: usize) -> u32 {
        assert_ne!(m, self.contract_mode, "contracted mode has no component");
        ((key / self.strides[m]) % self.shape[m] as u64) as u32
    }

    /// Removes the mode-`m` component from `key` — the key of the fiber
    /// after contracting mode `m`. Remaining components are untouched, so
    /// two keys collide iff their remaining fibers are equal.
    pub fn drop_mode(&self, key: u64, m: usize) -> u64 {
        key - self.extract(key, m) as u64 * self.strides[m]
    }
}

/// CSR-like matricized view of a tensor for the *first* SpMV of a mode-`n`
/// MTTKRP: rows are distinct fibers (sorted ascending by fiber key),
/// columns are the first contraction mode's indices.
#[derive(Debug, Clone, PartialEq)]
pub struct SpmvView {
    /// The MTTKRP target mode this view serves.
    pub target_mode: usize,
    /// The mode the first SpMV contracts (highest non-target mode).
    pub space: FiberSpace,
    /// Sorted distinct fiber keys — the CSR row ids.
    pub fiber_ids: Vec<u64>,
    /// CSR row pointers (`fiber_ids.len() + 1` entries).
    pub ptr: Vec<usize>,
    /// Contract-mode index per stored entry.
    pub cols: Vec<u32>,
    /// Nonzero value per stored entry.
    pub vals: Vec<f64>,
}

impl SpmvView {
    /// Builds the view for target mode `mode`, grouping nonzeros by fiber
    /// (entries within a fiber sorted by contract-mode column).
    pub fn build(t: &CooTensor, mode: usize) -> Result<SpmvView> {
        if mode >= t.order() {
            return Err(TensorError::ShapeMismatch(format!(
                "mode {mode} out of range for order-{} tensor",
                t.order()
            )));
        }
        if t.order() < 2 {
            return Err(TensorError::ShapeMismatch(
                "SpMV view needs an order ≥ 2 tensor".into(),
            ));
        }
        let contract = contraction_order(t.order(), mode)[0];
        let space = FiberSpace::new(t.shape(), contract);
        let mut triplets: Vec<(u64, u32, f64)> = t
            .iter()
            .map(|(coord, val)| (space.encode(coord), coord[contract], val))
            .collect();
        triplets.sort_by_key(|&(fiber, col, _)| (fiber, col));

        let mut fiber_ids = Vec::new();
        let mut ptr = vec![0usize];
        let mut cols = Vec::with_capacity(triplets.len());
        let mut vals = Vec::with_capacity(triplets.len());
        for (fiber, col, val) in triplets {
            if fiber_ids.last() != Some(&fiber) {
                if !fiber_ids.is_empty() {
                    ptr.push(cols.len());
                }
                fiber_ids.push(fiber);
            }
            cols.push(col);
            vals.push(val);
        }
        ptr.push(cols.len());
        if fiber_ids.is_empty() {
            ptr = vec![0];
        }
        Ok(SpmvView {
            target_mode: mode,
            space,
            fiber_ids,
            ptr,
            cols,
            vals,
        })
    }

    /// Number of stored entries (the tensor's nnz).
    pub fn nnz(&self) -> usize {
        self.cols.len()
    }

    /// Number of distinct fibers — the row count of the matricized view,
    /// and the `F` term of the DFacTo cost model.
    pub(crate) fn fiber_count(&self) -> usize {
        self.fiber_ids.len()
    }

    /// The first SpMV: `V(fiber,:) = Σ_entries val · factor(col,:)` for all
    /// `R` columns at once. Returns `(fiber key, row)` pairs in ascending
    /// fiber order.
    pub fn spmv(&self, factor: &DenseMatrix) -> Result<Vec<(u64, Box<[f64]>)>> {
        let contract = self.space.contract_mode();
        if factor.rows() != self.space.shape[contract] as usize {
            return Err(TensorError::ShapeMismatch(format!(
                "factor has {} rows, contract mode extent is {}",
                factor.rows(),
                self.space.shape[contract]
            )));
        }
        let rank = factor.cols();
        let mut out = Vec::with_capacity(self.fiber_count());
        for (f, &fiber) in self.fiber_ids.iter().enumerate() {
            let mut acc = vec![0.0f64; rank];
            for e in self.ptr[f]..self.ptr[f + 1] {
                let row = factor.row(self.cols[e] as usize);
                let v = self.vals[e];
                for (a, &x) in acc.iter_mut().zip(row) {
                    *a += v * x;
                }
            }
            out.push((fiber, acc.into_boxed_slice()));
        }
        Ok(out)
    }
}

/// Distinct-fiber counts at every level of the mode-`n` contraction chain:
/// element `k` is the row count of the sparse operand of SpMV `k + 2`
/// (the first SpMV always has `nnz` stored entries). Feeds the DFacTo cost
/// model's `F` terms.
pub fn fiber_counts(t: &CooTensor, mode: usize) -> Result<Vec<usize>> {
    let view = SpmvView::build(t, mode)?;
    let chain = contraction_order(t.order(), mode);
    let mut counts = vec![view.fiber_count()];
    let mut keys: Vec<u64> = view.fiber_ids.clone();
    for &m in &chain[1..chain.len().saturating_sub(1)] {
        let mut reduced: Vec<u64> = keys.iter().map(|&k| view.space.drop_mode(k, m)).collect();
        reduced.sort_unstable();
        reduced.dedup();
        counts.push(reduced.len());
        keys = reduced;
    }
    Ok(counts)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::random::RandomTensor;

    #[test]
    fn contraction_order_matches_join_order() {
        assert_eq!(contraction_order(3, 0), vec![2, 1]);
        assert_eq!(contraction_order(3, 2), vec![1, 0]);
        assert_eq!(contraction_order(4, 1), vec![3, 2, 0]);
    }

    #[test]
    fn fiber_space_roundtrip_and_drop() {
        let shape = [4u32, 5, 6, 7];
        let space = FiberSpace::new(&shape, 3);
        // strides over modes 0,1,2: 1, 4, 20; mode 3 contracted.
        assert_eq!(space.strides(), &[1, 4, 20, 0]);
        let coord = [3u32, 2, 5, 6];
        let key = space.encode(&coord);
        assert_eq!(key, 3 + 2 * 4 + 5 * 20);
        assert_eq!(space.extract(key, 0), 3);
        assert_eq!(space.extract(key, 1), 2);
        assert_eq!(space.extract(key, 2), 5);
        // Dropping mode 2 zeroes its component, preserving the rest.
        let dropped = space.drop_mode(key, 2);
        assert_eq!(dropped, 3 + 2 * 4);
        assert_eq!(space.extract(dropped, 0), 3);
    }

    #[test]
    fn reduced_keys_unique_per_reduced_fiber() {
        // Two coords differing only in the dropped mode must collide; any
        // other difference must not.
        let space = FiberSpace::new(&[4, 5, 6], 2);
        let a = space.encode(&[1, 2, 0]);
        let b = space.encode(&[1, 4, 0]);
        assert_eq!(space.drop_mode(a, 1), space.drop_mode(b, 1));
        let c = space.encode(&[2, 2, 0]);
        assert_ne!(space.drop_mode(a, 1), space.drop_mode(c, 1));
    }

    #[test]
    fn view_groups_fibers_csr_style() {
        // shape (2,3,2), target mode 0 → contract mode 2 first; fibers are
        // (i, j) pairs.
        let t = CooTensor::from_entries(
            vec![2, 3, 2],
            vec![
                (vec![0, 1, 0], 1.0),
                (vec![0, 1, 1], 2.0),
                (vec![1, 2, 0], 3.0),
            ],
        )
        .unwrap();
        let v = SpmvView::build(&t, 0).unwrap();
        assert_eq!(v.space.contract_mode(), 2);
        assert_eq!(v.nnz(), 3);
        // Fibers: (0,1) and (1,2) — two distinct rows, the first holding
        // both k-entries.
        assert_eq!(v.fiber_count(), 2);
        assert_eq!(v.ptr, vec![0, 2, 3]);
        assert_eq!(v.cols, vec![0, 1, 0]);
    }

    #[test]
    fn view_of_empty_tensor() {
        let t = CooTensor::new(vec![3, 3, 3]);
        let v = SpmvView::build(&t, 1).unwrap();
        assert_eq!(v.fiber_count(), 0);
        assert_eq!(v.nnz(), 0);
        let f = DenseMatrix::zeros(3, 2);
        assert!(v.spmv(&f).unwrap().is_empty());
    }

    #[test]
    fn first_spmv_contracts_highest_mode() {
        // X(0,1,k) with k ∈ {0,1}: V(fiber (0,1),:) = Σ_k X·C(k,:).
        let t = CooTensor::from_entries(
            vec![2, 2, 2],
            vec![(vec![0, 1, 0], 2.0), (vec![0, 1, 1], 3.0)],
        )
        .unwrap();
        let c = DenseMatrix::from_rows(&[&[1.0, 10.0], &[100.0, 1000.0]]);
        let v = SpmvView::build(&t, 0).unwrap();
        let rows = v.spmv(&c).unwrap();
        assert_eq!(rows.len(), 1);
        assert_eq!(rows[0].1.as_ref(), &[2.0 + 300.0, 20.0 + 3000.0]);
    }

    #[test]
    fn fiber_counts_shrink_along_chain() {
        let t = RandomTensor::new(vec![6, 5, 4, 3]).nnz(150).seed(8).build();
        let counts = fiber_counts(&t, 0).unwrap();
        // Order 4 → chain contracts 3 modes; counts cover the operands of
        // SpMV 2 and SpMV 3.
        assert_eq!(counts.len(), 2);
        assert!(counts[0] <= t.nnz());
        assert!(counts[1] <= counts[0]);
        // Last reduction is bounded by the remaining coordinate space
        // (modes 0 and 1 for the mode-0 chain after dropping modes 3, 2).
        assert!(counts[1] <= 6 * 5);
    }

    #[test]
    fn fiber_count_never_exceeds_nnz() {
        let t = RandomTensor::new(vec![20, 20, 20]).nnz(300).seed(3).build();
        for mode in 0..3 {
            let v = SpmvView::build(&t, mode).unwrap();
            assert!(v.fiber_count() <= t.nnz());
            assert!(v.fiber_count() > 0);
        }
    }

    #[test]
    fn rejects_bad_inputs() {
        let t = RandomTensor::new(vec![4, 4, 4]).nnz(10).seed(1).build();
        assert!(SpmvView::build(&t, 3).is_err());
        let v = SpmvView::build(&t, 0).unwrap();
        let wrong = DenseMatrix::zeros(7, 2);
        assert!(v.spmv(&wrong).is_err());
        let order1 = CooTensor::from_entries(vec![5], vec![(vec![1], 1.0)]).unwrap();
        assert!(SpmvView::build(&order1, 0).is_err());
    }
}
