//! Dimension-tree MTTKRP sequences (Kaya & Uçar, SIAM SISC 2018 — cited
//! as the shared/distributed-memory state of the art in the paper's
//! related work).
//!
//! CSTF-QCOO reuses *factor rows* between consecutive MTTKRPs; dimension
//! trees instead reuse *partial contractions*: a binary tree over the
//! mode set where each node caches the tensor contracted with the
//! factors of all modes **outside** its set, stored as a semi-sparse
//! tensor with `R`-vector values. Siblings share their parent's
//! contraction, so a full CP-ALS iteration costs `O(log N)` tensor-sized
//! contraction passes instead of `N·(N−1)` row lookups.
//!
//! This is a local (shared-memory) implementation used as a reference
//! and for the `mttkrp` benchmarks; the update schedule follows the
//! standard left-to-right mode order, recomputing a node only when a
//! factor it depends on has changed — each internal node is computed
//! exactly once per ALS iteration.

use crate::linalg::{als_normalize, als_solve};
use crate::{CooTensor, DenseMatrix, KruskalTensor, Result, TensorError};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// One tree node: a mode subset `S` and the cached contraction of the
/// tensor with every factor outside `S`.
struct Node {
    /// Sorted mode subset this node retains.
    modes: Vec<usize>,
    /// Children indices in the arena (empty for leaves).
    children: Vec<usize>,
    /// Parent index (`None` for the root).
    parent: Option<usize>,
    /// Flattened coordinates over `modes` (entry-major).
    coords: Vec<u32>,
    /// Flattened `R`-vectors parallel to `coords`.
    vals: Vec<f64>,
    /// Whether the cached contraction matches the current factors.
    valid: bool,
}

/// A dimension tree over an order-`N` sparse tensor for rank-`R` MTTKRP
/// sequences.
///
/// ```
/// use cstf_tensor::dimtree::DimTree;
/// use cstf_tensor::random::RandomTensor;
/// use cstf_tensor::DenseMatrix;
/// use rand::{rngs::StdRng, SeedableRng};
///
/// let t = RandomTensor::new(vec![10, 8, 6]).nnz(50).seed(1).build();
/// let mut rng = StdRng::seed_from_u64(2);
/// let factors: Vec<DenseMatrix> = t
///     .shape()
///     .iter()
///     .map(|&s| DenseMatrix::random(s as usize, 2, &mut rng))
///     .collect();
/// let mut tree = DimTree::new(t, 2).unwrap();
/// let m0 = tree.mttkrp(&factors, 0).unwrap();
/// assert_eq!(m0.rows(), 10);
/// // The second mode reuses the shared {0,1} contraction.
/// let _m1 = tree.mttkrp(&factors, 1).unwrap();
/// ```
pub struct DimTree {
    tensor: CooTensor,
    rank: usize,
    nodes: Vec<Node>,
    /// Leaf node index per mode.
    leaf_of_mode: Vec<usize>,
}

impl DimTree {
    /// Builds the tree structure (no contractions yet) for `tensor` and
    /// decomposition rank `rank`.
    pub fn new(tensor: CooTensor, rank: usize) -> Result<Self> {
        let order = tensor.order();
        if order < 2 {
            return Err(TensorError::ShapeMismatch(
                "dimension tree needs order ≥ 2".into(),
            ));
        }
        if rank == 0 {
            return Err(TensorError::ShapeMismatch("rank must be ≥ 1".into()));
        }
        let mut nodes = Vec::new();
        let mut leaf_of_mode = vec![usize::MAX; order];
        let all: Vec<usize> = (0..order).collect();
        build(&all, None, &mut nodes, &mut leaf_of_mode);
        Ok(DimTree {
            tensor,
            rank,
            nodes,
            leaf_of_mode,
        })
    }

    /// Number of tree nodes (diagnostics).
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// The MTTKRP along `mode` using the current `factors`, reusing every
    /// valid cached contraction on the root-to-leaf path.
    pub fn mttkrp(&mut self, factors: &[DenseMatrix], mode: usize) -> Result<DenseMatrix> {
        self.check(factors, mode)?;
        self.ensure(self.leaf_of_mode[mode], factors)?;
        let leaf = &self.nodes[self.leaf_of_mode[mode]];
        let mut out = DenseMatrix::zeros(self.tensor.shape()[mode] as usize, self.rank);
        for (e, chunk) in leaf.vals.chunks_exact(self.rank).enumerate() {
            let row = out.row_mut(leaf.coords[e] as usize);
            for (o, &v) in row.iter_mut().zip(chunk) {
                *o += v;
            }
        }
        Ok(out)
    }

    /// Invalidates every cached contraction that depends on `mode`'s
    /// factor — call after updating that factor in ALS.
    pub fn factor_updated(&mut self, mode: usize) {
        for node in &mut self.nodes {
            // A node's contraction uses the factors of modes NOT in its
            // set.
            if !node.modes.contains(&mode) {
                node.valid = false;
                node.coords.clear();
                node.vals.clear();
            }
        }
    }

    /// Cached contractions currently valid (diagnostics: measures reuse).
    pub fn valid_nodes(&self) -> usize {
        self.nodes.iter().filter(|n| n.valid).count()
    }

    fn check(&self, factors: &[DenseMatrix], mode: usize) -> Result<()> {
        if factors.len() != self.tensor.order() {
            return Err(TensorError::ShapeMismatch(format!(
                "{} factors for order-{}",
                factors.len(),
                self.tensor.order()
            )));
        }
        if mode >= self.tensor.order() {
            return Err(TensorError::ShapeMismatch(format!(
                "mode {mode} out of range"
            )));
        }
        for (m, f) in factors.iter().enumerate() {
            if f.cols() != self.rank || f.rows() != self.tensor.shape()[m] as usize {
                return Err(TensorError::ShapeMismatch(format!(
                    "factor {m} is {}x{}, expected {}x{}",
                    f.rows(),
                    f.cols(),
                    self.tensor.shape()[m],
                    self.rank
                )));
            }
        }
        Ok(())
    }

    /// Recursively (re)computes node `idx`'s contraction if stale.
    fn ensure(&mut self, idx: usize, factors: &[DenseMatrix]) -> Result<()> {
        if self.nodes[idx].valid {
            return Ok(());
        }
        let rank = self.rank;
        match self.nodes[idx].parent {
            None => {
                // Root: contract nothing; coords = all modes, vals =
                // scalar replicated is wasteful, so the root instead
                // stores the raw tensor (vec = val broadcast handled by
                // children). Represent as |S| = N coords with a 1-slot
                // "vector" of the raw value; children multiply rows in.
                let order = self.tensor.order();
                let mut coords = Vec::with_capacity(self.tensor.nnz() * order);
                let mut vals = Vec::with_capacity(self.tensor.nnz());
                for (c, v) in self.tensor.iter() {
                    coords.extend_from_slice(c);
                    vals.push(v);
                }
                let node = &mut self.nodes[idx];
                node.coords = coords;
                node.vals = vals; // width 1 at the root
                node.valid = true;
            }
            Some(parent) => {
                self.ensure(parent, factors)?;
                let (p_modes, p_coords, p_vals, p_width) = {
                    let p = &self.nodes[parent];
                    let width = if p.parent.is_none() { 1 } else { rank };
                    (p.modes.clone(), p.coords.clone(), p.vals.clone(), width)
                };
                let my_modes = self.nodes[idx].modes.clone();
                // Positions of retained modes and contracted modes within
                // the parent's coordinate layout.
                let keep: Vec<usize> = p_modes
                    .iter()
                    .enumerate()
                    .filter(|(_, m)| my_modes.contains(m))
                    .map(|(i, _)| i)
                    .collect();
                let contract: Vec<(usize, usize)> = p_modes
                    .iter()
                    .enumerate()
                    .filter(|(_, m)| !my_modes.contains(m))
                    .map(|(i, &m)| (i, m))
                    .collect();

                let pw = p_modes.len();
                let entries = p_coords.len() / pw.max(1);
                // BTreeMap: deterministic merge order ⇒ reproducible
                // floating-point accumulation.
                let mut merged: std::collections::BTreeMap<Vec<u32>, Vec<f64>> =
                    std::collections::BTreeMap::new();
                let mut key: Vec<u32> = Vec::with_capacity(keep.len());
                let mut vec = vec![0.0f64; rank];
                for e in 0..entries {
                    let coord = &p_coords[e * pw..(e + 1) * pw];
                    // Start from the parent's value (scalar or R-vector).
                    if p_width == 1 {
                        vec.iter_mut().for_each(|x| *x = p_vals[e]);
                    } else {
                        vec.copy_from_slice(&p_vals[e * rank..(e + 1) * rank]);
                    }
                    for &(pos, m) in &contract {
                        let row = factors[m].row(coord[pos] as usize);
                        for (x, &r) in vec.iter_mut().zip(row) {
                            *x *= r;
                        }
                    }
                    key.clear();
                    key.extend(keep.iter().map(|&i| coord[i]));
                    match merged.get_mut(&key) {
                        Some(acc) => {
                            for (a, &x) in acc.iter_mut().zip(&vec) {
                                *a += x;
                            }
                        }
                        None => {
                            merged.insert(key.clone(), vec.clone());
                        }
                    }
                }

                let node = &mut self.nodes[idx];
                node.coords.clear();
                node.vals.clear();
                for (coord, v) in merged {
                    node.coords.extend_from_slice(&coord);
                    node.vals.extend_from_slice(&v);
                }
                node.valid = true;
            }
        }
        Ok(())
    }
}

fn build(
    modes: &[usize],
    parent: Option<usize>,
    nodes: &mut Vec<Node>,
    leaf_of_mode: &mut [usize],
) -> usize {
    let idx = nodes.len();
    nodes.push(Node {
        modes: modes.to_vec(),
        children: Vec::new(),
        parent,
        coords: Vec::new(),
        vals: Vec::new(),
        valid: false,
    });
    if modes.len() == 1 {
        leaf_of_mode[modes[0]] = idx;
        return idx;
    }
    let mid = modes.len().div_ceil(2);
    let left = build(&modes[..mid], Some(idx), nodes, leaf_of_mode);
    let right = build(&modes[mid..], Some(idx), nodes, leaf_of_mode);
    nodes[idx].children = vec![left, right];
    idx
}

/// Shared-memory CP-ALS built on the dimension tree: the local
/// counterpart of the paper's distributed drivers, with `O(log N)`
/// contraction passes per iteration.
pub fn cp_als_dimtree(
    tensor: &CooTensor,
    rank: usize,
    iterations: usize,
    seed: u64,
) -> Result<(KruskalTensor, Vec<f64>)> {
    let order = tensor.order();
    let mut tree = DimTree::new(tensor.clone(), rank)?;
    let mut rng = StdRng::seed_from_u64(seed);
    let mut factors: Vec<DenseMatrix> = tensor
        .shape()
        .iter()
        .map(|&s| DenseMatrix::random(s as usize, rank, &mut rng))
        .collect();
    let mut grams: Vec<DenseMatrix> = factors.iter().map(DenseMatrix::gram).collect();
    let mut lambda = vec![1.0f64; rank];
    let mut fits = Vec::new();

    for _ in 0..iterations {
        for mode in 0..order {
            let m = tree.mttkrp(&factors, mode)?;
            let updated = als_solve(&m, &grams, mode)?;
            lambda = als_normalize(updated, mode, &mut factors, &mut grams);
            tree.factor_updated(mode);
        }
        let k = KruskalTensor::new(lambda.clone(), factors.clone())?;
        fits.push(k.fit(tensor)?);
    }
    Ok((KruskalTensor::new(lambda, factors)?, fits))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mttkrp::mttkrp as mttkrp_ref;
    use crate::random::{sparse_low_rank_tensor, RandomTensor};

    fn factors_for(t: &CooTensor, rank: usize, seed: u64) -> Vec<DenseMatrix> {
        let mut rng = StdRng::seed_from_u64(seed);
        t.shape()
            .iter()
            .map(|&s| DenseMatrix::random(s as usize, rank, &mut rng))
            .collect()
    }

    #[test]
    fn tree_shape_third_order() {
        let t = RandomTensor::new(vec![4, 4, 4]).nnz(10).seed(1).build();
        let tree = DimTree::new(t, 2).unwrap();
        // {0,1,2} → {0,1},{2}; {0,1} → {0},{1}: 5 nodes.
        assert_eq!(tree.node_count(), 5);
    }

    #[test]
    fn matches_reference_all_modes_orders_3_to_5() {
        for (shape, nnz) in [
            (vec![8u32, 7, 6], 60usize),
            (vec![6, 5, 4, 7], 50),
            (vec![4, 5, 3, 4, 5], 40),
        ] {
            let t = RandomTensor::new(shape).nnz(nnz).seed(2).build();
            let factors = factors_for(&t, 3, 3);
            let refs: Vec<&DenseMatrix> = factors.iter().collect();
            let mut tree = DimTree::new(t.clone(), 3).unwrap();
            for mode in 0..t.order() {
                let got = tree.mttkrp(&factors, mode).unwrap();
                let expect = mttkrp_ref(&t, &refs, mode).unwrap();
                assert!(
                    got.max_abs_diff(&expect) < 1e-9,
                    "order {} mode {mode}",
                    t.order()
                );
            }
        }
    }

    #[test]
    fn reuse_within_an_iteration() {
        let t = RandomTensor::new(vec![10, 9, 8, 7])
            .nnz(100)
            .seed(4)
            .build();
        let factors = factors_for(&t, 2, 5);
        let mut tree = DimTree::new(t, 2).unwrap();
        let _ = tree.mttkrp(&factors, 0).unwrap();
        let cached_after_first = tree.valid_nodes();
        let _ = tree.mttkrp(&factors, 1).unwrap();
        // Mode 1 shares the {0,1} subtree path with mode 0: nothing above
        // the leaf was recomputed, only the new leaf was added.
        assert_eq!(tree.valid_nodes(), cached_after_first + 1);
    }

    #[test]
    fn invalidation_tracks_factor_updates() {
        let t = RandomTensor::new(vec![6, 6, 6]).nnz(50).seed(6).build();
        let mut factors = factors_for(&t, 2, 7);
        let mut tree = DimTree::new(t.clone(), 2).unwrap();
        let refs: Vec<&DenseMatrix> = factors.iter().collect();
        let _ = tree.mttkrp(&factors, 0).unwrap();
        drop(refs);
        // Update factor 0 and recompute mode 1: must use the NEW factor.
        factors[0] = factors_for(&t, 2, 99).remove(0);
        tree.factor_updated(0);
        let got = tree.mttkrp(&factors, 1).unwrap();
        let refs: Vec<&DenseMatrix> = factors.iter().collect();
        let expect = mttkrp_ref(&t, &refs, 1).unwrap();
        assert!(got.max_abs_diff(&expect) < 1e-9);
    }

    #[test]
    fn full_als_cycle_matches_per_mode_reference() {
        // Simulate a real ALS iteration: factors change between modes.
        let t = RandomTensor::new(vec![8, 7, 6, 5]).nnz(80).seed(8).build();
        let mut factors = factors_for(&t, 2, 9);
        let mut tree = DimTree::new(t.clone(), 2).unwrap();
        for mode in 0..4 {
            let got = tree.mttkrp(&factors, mode).unwrap();
            let refs: Vec<&DenseMatrix> = factors.iter().collect();
            let expect = mttkrp_ref(&t, &refs, mode).unwrap();
            assert!(got.max_abs_diff(&expect) < 1e-9, "mode {mode}");
            // "Update" the factor (any new values) and notify the tree.
            factors[mode] = factors_for(&t, 2, 100 + mode as u64).remove(mode);
            tree.factor_updated(mode);
        }
    }

    #[test]
    fn cp_als_dimtree_converges() {
        let (t, _) = sparse_low_rank_tensor(&[25, 20, 18], 2, 6, 10);
        let (k, fits) = cp_als_dimtree(&t, 2, 15, 1).unwrap();
        assert_eq!(k.rank(), 2);
        assert!(
            *fits.last().unwrap() > 0.95,
            "fit {:?}",
            fits.last().unwrap()
        );
        for w in fits.windows(2) {
            // Once the exactly-representable tensor is recovered, fit sits at
            // ~1.0 and the residual norm cancels to ~1e-8 of jitter.
            assert!(w[1] >= w[0] - 1e-6);
        }
    }

    #[test]
    fn dimtree_als_matches_plain_als_trajectory() {
        // Same math, same seed ⇒ same fits as a naive per-mode local ALS.
        let t = RandomTensor::new(vec![10, 9, 8]).nnz(150).seed(11).build();
        let (_, fits_tree) = cp_als_dimtree(&t, 2, 4, 5).unwrap();
        // Naive local ALS with identical update rules.
        let mut rng = StdRng::seed_from_u64(5);
        let mut factors: Vec<DenseMatrix> = t
            .shape()
            .iter()
            .map(|&s| DenseMatrix::random(s as usize, 2, &mut rng))
            .collect();
        let mut grams: Vec<DenseMatrix> = factors.iter().map(DenseMatrix::gram).collect();
        let mut lambda = vec![1.0f64; 2];
        let mut fits = Vec::new();
        for _ in 0..4 {
            for mode in 0..3 {
                let refs: Vec<&DenseMatrix> = factors.iter().collect();
                let m = mttkrp_ref(&t, &refs, mode).unwrap();
                let updated = als_solve(&m, &grams, mode).unwrap();
                lambda = als_normalize(updated, mode, &mut factors, &mut grams);
            }
            let k = KruskalTensor::new(lambda.clone(), factors.clone()).unwrap();
            fits.push(k.fit(&t).unwrap());
        }
        for (a, b) in fits_tree.iter().zip(&fits) {
            assert!((a - b).abs() < 1e-9, "{fits_tree:?} vs {fits:?}");
        }
    }

    #[test]
    fn rejects_bad_inputs() {
        let t = RandomTensor::new(vec![4, 4, 4]).nnz(10).seed(12).build();
        assert!(DimTree::new(t.clone(), 0).is_err());
        let order1 = CooTensor::from_entries(vec![4], vec![(vec![1], 1.0)]).unwrap();
        assert!(DimTree::new(order1, 2).is_err());
        let mut tree = DimTree::new(t.clone(), 2).unwrap();
        let factors = factors_for(&t, 2, 13);
        assert!(tree.mttkrp(&factors[..2], 0).is_err());
        assert!(tree.mttkrp(&factors, 3).is_err());
    }
}
