//! CSF: compressed sparse fiber storage with a fiber-amortized MTTKRP.
//!
//! The paper's related work (SPLATT [Smith et al.]) stores tensors as a
//! tree of fibers so MTTKRP can amortize partial products across nonzeros
//! that share index prefixes — the shared-memory state of the art CSTF
//! compares its design against. This module implements a single-tree CSF
//! (one tree per target mode, SPLATT's baseline configuration): level 0
//! holds the distinct root-mode indices, each deeper level the child
//! indices of the level above, and the leaves the values.
//!
//! It serves as a fast local MTTKRP for validation: fiber-amortized
//! instead of flat-COO sequential MTTKRP.

use crate::{CooTensor, DenseMatrix, Result, TensorError};

/// One internal level of the fiber tree: `indices[i]` is a node, its
/// children occupy `ptr[i]..ptr[i+1]` in the next level (CSR-style).
#[derive(Debug, Clone, PartialEq)]
pub struct CsfLevel {
    /// Node indices at this level (an index of the level's tensor mode).
    pub indices: Vec<u32>,
    /// Child ranges into the next level (`len == indices.len() + 1`).
    pub ptr: Vec<usize>,
}

/// A sparse tensor compressed as a fiber tree rooted at `mode_order[0]`.
///
/// ```
/// use cstf_tensor::csf::CsfTensor;
/// use cstf_tensor::random::RandomTensor;
///
/// let t = RandomTensor::new(vec![30, 20, 10]).nnz(200).seed(1).build();
/// let csf = CsfTensor::rooted_at(&t, 0).unwrap();
/// assert_eq!(csf.nnz(), 200);
/// // Fiber sharing means strictly fewer stored indices than flat COO.
/// assert!(csf.storage_indices() <= 200 * 3);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct CsfTensor {
    shape: Vec<u32>,
    mode_order: Vec<usize>,
    /// The `N − 1` internal levels (root first).
    levels: Vec<CsfLevel>,
    /// Leaf-level indices (mode `mode_order[N−1]`), parallel to `values`.
    leaf_indices: Vec<u32>,
    values: Vec<f64>,
}

impl CsfTensor {
    /// Compresses `tensor` with the given mode order (`mode_order[0]` is
    /// the tree root — the natural MTTKRP target).
    pub fn from_coo(tensor: &CooTensor, mode_order: &[usize]) -> Result<Self> {
        let n = tensor.order();
        if mode_order.len() != n {
            return Err(TensorError::ShapeMismatch(format!(
                "mode order has {} entries for order-{n} tensor",
                mode_order.len()
            )));
        }
        let mut seen = vec![false; n];
        for &m in mode_order {
            if m >= n || seen[m] {
                return Err(TensorError::ShapeMismatch(format!(
                    "invalid mode order {mode_order:?}"
                )));
            }
            seen[m] = true;
        }
        if n < 2 {
            return Err(TensorError::ShapeMismatch(
                "CSF needs an order ≥ 2 tensor".into(),
            ));
        }

        // Sort nonzeros lexicographically in tree order.
        let mut perm: Vec<usize> = (0..tensor.nnz()).collect();
        perm.sort_unstable_by(|&a, &b| {
            let ca = tensor.coord(a);
            let cb = tensor.coord(b);
            for &m in mode_order {
                match ca[m].cmp(&cb[m]) {
                    std::cmp::Ordering::Equal => continue,
                    other => return other,
                }
            }
            std::cmp::Ordering::Equal
        });

        // Permuted coordinate paths, tree order.
        let mut paths: Vec<Vec<u32>> = Vec::with_capacity(perm.len());
        let mut values = Vec::with_capacity(perm.len());
        for &z in &perm {
            let coord = tensor.coord(z);
            paths.push(mode_order.iter().map(|&m| coord[m]).collect());
            values.push(tensor.value(z));
        }

        // `split(i)` = first level where path i differs from path i−1; a
        // node is created at every level ≥ split.
        let split_of = |i: usize, paths: &[Vec<u32>]| -> Result<usize> {
            if i == 0 {
                return Ok(0);
            }
            (0..n)
                .find(|&l| paths[i - 1][l] != paths[i][l])
                .ok_or_else(|| {
                    TensorError::ShapeMismatch(
                        "duplicate coordinate in CSF input (run sum_duplicates first)".into(),
                    )
                })
        };

        let mut levels: Vec<CsfLevel> = (0..n - 1)
            .map(|_| CsfLevel {
                indices: Vec::new(),
                ptr: vec![0],
            })
            .collect();
        let mut leaves: Vec<u32> = Vec::with_capacity(paths.len());
        // Per-level cumulative child counters (children of level l live at
        // level l+1, or are leaves for l = n−2).
        let mut child_counts = vec![0usize; n - 1];

        for i in 0..paths.len() {
            let split = split_of(i, &paths)?;
            for (l, level) in levels.iter_mut().enumerate() {
                if split <= l {
                    // New node at level l: close the previous node's child
                    // range first.
                    if i > 0 {
                        level.ptr.push(child_counts[l]);
                    }
                    level.indices.push(paths[i][l]);
                }
                // A child of level l appears whenever a node at level l+1
                // (or a leaf, for the last internal level) is created.
                if split <= l + 1 {
                    child_counts[l] += 1;
                }
            }
            leaves.push(paths[i][n - 1]);
        }
        for (l, level) in levels.iter_mut().enumerate() {
            level.ptr.push(child_counts[l]);
        }
        // An empty tensor leaves each ptr as [0, 0]; normalize to [0].
        if paths.is_empty() {
            for level in &mut levels {
                level.ptr = vec![0];
            }
        }

        Ok(CsfTensor {
            shape: tensor.shape().to_vec(),
            mode_order: mode_order.to_vec(),
            levels,
            leaf_indices: leaves,
            values,
        })
    }

    /// Convenience: CSF rooted at `mode` with the remaining modes in
    /// ascending order.
    pub fn rooted_at(tensor: &CooTensor, mode: usize) -> Result<Self> {
        let mut order = vec![mode];
        order.extend((0..tensor.order()).filter(|&m| m != mode));
        CsfTensor::from_coo(tensor, &order)
    }

    /// Tensor order.
    pub fn order(&self) -> usize {
        self.shape.len()
    }

    /// Stored nonzeros.
    pub fn nnz(&self) -> usize {
        self.values.len()
    }

    /// The mode permutation (root first).
    pub fn mode_order(&self) -> &[usize] {
        &self.mode_order
    }

    /// Number of nodes at internal level `l` (0 = root).
    pub fn level_size(&self, l: usize) -> usize {
        self.levels[l].indices.len()
    }

    /// Total index entries stored — always ≤ the `nnz × N` a COO tensor
    /// stores; the gap is the fiber compression.
    pub fn storage_indices(&self) -> usize {
        self.levels.iter().map(|l| l.indices.len()).sum::<usize>() + self.leaf_indices.len()
    }

    /// Expands back to COO (in tree order).
    pub fn to_coo(&self) -> CooTensor {
        let n = self.order();
        let mut out = CooTensor::with_capacity(self.shape.clone(), self.nnz());
        let mut coord = vec![0u32; n];
        self.walk(
            0,
            0..self.levels[0].indices.len(),
            &mut coord,
            &mut |coord, v| {
                out.push(coord, v).expect("CSF coordinates in bounds");
            },
        );
        out
    }

    fn walk(
        &self,
        level: usize,
        range: std::ops::Range<usize>,
        coord: &mut [u32],
        emit: &mut impl FnMut(&[u32], f64),
    ) {
        let n = self.order();
        for node in range {
            coord[self.mode_order[level]] = self.levels[level].indices[node];
            let children = self.levels[level].ptr[node]..self.levels[level].ptr[node + 1];
            if level + 1 < n - 1 {
                self.walk(level + 1, children, coord, emit);
            } else {
                for leaf in children {
                    coord[self.mode_order[n - 1]] = self.leaf_indices[leaf];
                    emit(coord, self.values[leaf]);
                }
            }
        }
    }

    /// MTTKRP along the root mode: `M(i_root,:) += Σ_subtree
    /// X(…)·∗rows`. Partial row products are computed once per internal
    /// fiber node and shared by all nonzeros below it — the win CSF has
    /// over flat COO iteration.
    pub fn mttkrp_root(&self, factors: &[&DenseMatrix]) -> Result<DenseMatrix> {
        let n = self.order();
        if factors.len() != n {
            return Err(TensorError::ShapeMismatch(format!(
                "{} factors for order-{n} tensor",
                factors.len()
            )));
        }
        let rank = factors[0].cols();
        for (m, f) in factors.iter().enumerate() {
            if f.cols() != rank || f.rows() != self.shape[m] as usize {
                return Err(TensorError::ShapeMismatch(format!(
                    "factor {m} is {}x{}, expected {}x{rank}",
                    f.rows(),
                    f.cols(),
                    self.shape[m]
                )));
            }
        }
        let root_mode = self.mode_order[0];
        let mut out = DenseMatrix::zeros(self.shape[root_mode] as usize, rank);
        let mut acc = vec![0.0f64; rank];
        for node in 0..self.levels[0].indices.len() {
            let root_idx = self.levels[0].indices[node] as usize;
            acc.iter_mut().for_each(|a| *a = 0.0);
            let children = self.levels[0].ptr[node]..self.levels[0].ptr[node + 1];
            self.accumulate(1, children, factors, &mut acc);
            let row = out.row_mut(root_idx);
            for (o, &a) in row.iter_mut().zip(&acc) {
                *o += a;
            }
        }
        Ok(out)
    }

    /// Sums `∗_{levels below} rows · value` over a subtree into `acc`
    /// (length `rank`).
    fn accumulate(
        &self,
        level: usize,
        range: std::ops::Range<usize>,
        factors: &[&DenseMatrix],
        acc: &mut [f64],
    ) {
        let n = self.order();
        let rank = acc.len();
        if level == n - 1 {
            // `range` indexes leaves directly.
            let leaf_mode = self.mode_order[n - 1];
            for leaf in range {
                let row = factors[leaf_mode].row(self.leaf_indices[leaf] as usize);
                let v = self.values[leaf];
                for (a, &r) in acc.iter_mut().zip(row) {
                    *a += v * r;
                }
            }
            return;
        }
        let mode = self.mode_order[level];
        let mut child_acc = vec![0.0f64; rank];
        for node in range {
            child_acc.iter_mut().for_each(|a| *a = 0.0);
            let children = self.levels[level].ptr[node]..self.levels[level].ptr[node + 1];
            self.accumulate(level + 1, children, factors, &mut child_acc);
            let row = factors[mode].row(self.levels[level].indices[node] as usize);
            for ((a, &c), &r) in acc.iter_mut().zip(&child_acc).zip(row) {
                *a += c * r;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mttkrp::mttkrp as mttkrp_coo_seq;
    use crate::random::RandomTensor;
    use rand::{rngs::StdRng, SeedableRng};

    fn factors(t: &CooTensor, rank: usize, seed: u64) -> Vec<DenseMatrix> {
        let mut rng = StdRng::seed_from_u64(seed);
        t.shape()
            .iter()
            .map(|&s| DenseMatrix::random(s as usize, rank, &mut rng))
            .collect()
    }

    #[test]
    fn roundtrip_small_third_order() {
        let t = RandomTensor::new(vec![6, 5, 4]).nnz(30).seed(1).build();
        let csf = CsfTensor::rooted_at(&t, 0).unwrap();
        assert_eq!(csf.nnz(), 30);
        let mut back = csf.to_coo();
        back.sort_lexicographic();
        let mut orig = t.clone();
        orig.sort_lexicographic();
        assert_eq!(back, orig);
    }

    #[test]
    fn roundtrip_fourth_order_all_roots() {
        let t = RandomTensor::new(vec![5, 4, 6, 3]).nnz(40).seed(2).build();
        for mode in 0..4 {
            let csf = CsfTensor::rooted_at(&t, mode).unwrap();
            let mut back = csf.to_coo();
            back.sort_lexicographic();
            let mut orig = t.clone();
            orig.sort_lexicographic();
            assert_eq!(back, orig, "root mode {mode}");
        }
    }

    #[test]
    fn compression_reduces_index_storage() {
        // Many nonzeros share (i, j) fiber prefixes.
        let mut t = CooTensor::new(vec![4, 4, 50]);
        for i in 0..4u32 {
            for j in 0..2u32 {
                for k in 0..50u32 {
                    t.push(&[i, j, k], 1.0).unwrap();
                }
            }
        }
        let coo_indices = t.nnz() * 3;
        let csf = CsfTensor::rooted_at(&t, 0).unwrap();
        assert!(
            csf.storage_indices() * 2 < coo_indices,
            "CSF {} vs COO {}",
            csf.storage_indices(),
            coo_indices
        );
        assert_eq!(csf.level_size(0), 4); // 4 distinct roots
        assert_eq!(csf.level_size(1), 8); // 8 (i,j) fibers
    }

    #[test]
    fn mttkrp_root_matches_coo_reference() {
        let t = RandomTensor::new(vec![10, 8, 9]).nnz(120).seed(3).build();
        let f = factors(&t, 3, 4);
        let refs: Vec<&DenseMatrix> = f.iter().collect();
        for mode in 0..3 {
            let csf = CsfTensor::rooted_at(&t, mode).unwrap();
            let got = csf.mttkrp_root(&refs).unwrap();
            let expect = mttkrp_coo_seq(&t, &refs, mode).unwrap();
            assert!(got.max_abs_diff(&expect) < 1e-10, "mode {mode}");
        }
    }

    #[test]
    fn mttkrp_root_matches_reference_order4() {
        let t = RandomTensor::new(vec![6, 5, 4, 7]).nnz(90).seed(5).build();
        let f = factors(&t, 2, 6);
        let refs: Vec<&DenseMatrix> = f.iter().collect();
        for mode in 0..4 {
            let csf = CsfTensor::rooted_at(&t, mode).unwrap();
            let got = csf.mttkrp_root(&refs).unwrap();
            let expect = mttkrp_coo_seq(&t, &refs, mode).unwrap();
            assert!(got.max_abs_diff(&expect) < 1e-10, "mode {mode}");
        }
    }

    #[test]
    fn rejects_invalid_inputs() {
        let t = RandomTensor::new(vec![4, 4, 4]).nnz(10).seed(7).build();
        assert!(CsfTensor::from_coo(&t, &[0, 1]).is_err());
        assert!(CsfTensor::from_coo(&t, &[0, 0, 1]).is_err());
        assert!(CsfTensor::from_coo(&t, &[0, 1, 5]).is_err());
        let mut dup = CooTensor::new(vec![2, 2]);
        dup.push(&[0, 0], 1.0).unwrap();
        dup.push(&[0, 0], 2.0).unwrap();
        assert!(CsfTensor::from_coo(&dup, &[0, 1]).is_err());
        let f = factors(&t, 2, 8);
        let refs: Vec<&DenseMatrix> = f.iter().collect();
        let csf = CsfTensor::rooted_at(&t, 0).unwrap();
        assert!(csf.mttkrp_root(&refs[..2]).is_err());
    }

    #[test]
    fn empty_tensor_yields_empty_csf() {
        let t = CooTensor::new(vec![3, 3, 3]);
        let csf = CsfTensor::rooted_at(&t, 0).unwrap();
        assert_eq!(csf.nnz(), 0);
        assert_eq!(csf.level_size(0), 0);
        let f = factors(&t, 2, 9);
        let refs: Vec<&DenseMatrix> = f.iter().collect();
        let m = csf.mttkrp_root(&refs).unwrap();
        assert_eq!(m, DenseMatrix::zeros(3, 2));
    }
}
