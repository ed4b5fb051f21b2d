//! N-order sparse tensors in coordinate (COO) storage.
//!
//! COO stores one `(i₁, …, i_N, value)` tuple per nonzero. This is the
//! storage format CSTF operates on directly: "COO stores a list of tuples
//! including indices and values to represent all elements of the sparse
//! tensor" (paper §4.1). Indices are `u32` (the largest FROSTT mode in the
//! paper is 28M, well within range); values are `f64`.

use crate::{Result, TensorError};

/// An N-order sparse tensor in coordinate storage.
///
/// Coordinates are stored flat: nonzero `z`'s coordinate occupies
/// `indices[z * order .. (z + 1) * order]`. This keeps every nonzero in one
/// contiguous cache line group and avoids per-nonzero allocations.
///
/// # Examples
///
/// ```
/// use cstf_tensor::CooTensor;
///
/// let mut x = CooTensor::new(vec![4, 5, 6]);
/// x.push(&[0, 1, 2], 3.0).unwrap();
/// x.push(&[3, 4, 5], -1.0).unwrap();
/// assert_eq!(x.nnz(), 2);
/// assert_eq!(x.order(), 3);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct CooTensor {
    shape: Vec<u32>,
    indices: Vec<u32>,
    values: Vec<f64>,
}

impl CooTensor {
    /// Creates an empty tensor with the given mode sizes.
    ///
    /// # Panics
    ///
    /// Panics if `shape` is empty or any extent is zero.
    pub fn new(shape: Vec<u32>) -> Self {
        assert!(!shape.is_empty(), "tensor must have at least one mode");
        assert!(
            shape.iter().all(|&s| s > 0),
            "every mode extent must be positive, got {shape:?}"
        );
        CooTensor {
            shape,
            indices: Vec::new(),
            values: Vec::new(),
        }
    }

    /// Creates an empty tensor and reserves room for `nnz` nonzeros.
    pub fn with_capacity(shape: Vec<u32>, nnz: usize) -> Self {
        let mut t = CooTensor::new(shape);
        t.indices.reserve(nnz * t.order());
        t.values.reserve(nnz);
        t
    }

    /// Builds a tensor from parallel coordinate/value lists.
    ///
    /// `shape` needs at least one mode, every extent positive (as for
    /// [`CooTensor::new`]). `indices` must hold `values.len() * shape.len()`
    /// entries, flattened nonzero-major. Every coordinate is bounds-checked.
    pub fn from_flat(shape: Vec<u32>, indices: Vec<u32>, values: Vec<f64>) -> Result<Self> {
        if shape.is_empty() || shape.contains(&0) {
            return Err(TensorError::ShapeMismatch(format!(
                "a tensor needs at least one mode and positive extents, got {shape:?}"
            )));
        }
        let order = shape.len();
        if indices.len() != values.len() * order {
            return Err(TensorError::ShapeMismatch(format!(
                "expected {} flat indices for {} nonzeros of order {}, got {}",
                values.len() * order,
                values.len(),
                order,
                indices.len()
            )));
        }
        let t = CooTensor {
            shape,
            indices,
            values,
        };
        t.validate()?;
        Ok(t)
    }

    /// Builds a tensor from `(coordinate, value)` pairs.
    pub fn from_entries<I>(shape: Vec<u32>, entries: I) -> Result<Self>
    where
        I: IntoIterator<Item = (Vec<u32>, f64)>,
    {
        let mut t = CooTensor::new(shape);
        for (coord, v) in entries {
            t.push(&coord, v)?;
        }
        Ok(t)
    }

    /// Appends one nonzero. The coordinate is bounds-checked.
    pub fn push(&mut self, coord: &[u32], value: f64) -> Result<()> {
        if coord.len() != self.order() {
            return Err(TensorError::ShapeMismatch(format!(
                "coordinate has {} modes, tensor has {}",
                coord.len(),
                self.order()
            )));
        }
        for (mode, (&i, &extent)) in coord.iter().zip(&self.shape).enumerate() {
            if i >= extent {
                return Err(TensorError::IndexOutOfBounds {
                    mode,
                    index: i,
                    extent,
                });
            }
        }
        self.indices.extend_from_slice(coord);
        self.values.push(value);
        Ok(())
    }

    /// Number of modes (the tensor *order*, `N` in the paper).
    #[inline]
    pub fn order(&self) -> usize {
        self.shape.len()
    }

    /// Mode extents `I₁ × ⋯ × I_N`.
    #[inline]
    pub fn shape(&self) -> &[u32] {
        &self.shape
    }

    /// Number of stored nonzeros (`nnz` in the paper).
    #[inline]
    pub fn nnz(&self) -> usize {
        self.values.len()
    }

    /// Whether the tensor stores no nonzeros.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// Coordinate of nonzero `z` as a slice of length [`Self::order`].
    #[inline]
    pub fn coord(&self, z: usize) -> &[u32] {
        let n = self.order();
        &self.indices[z * n..(z + 1) * n]
    }

    /// Value of nonzero `z`.
    #[inline]
    pub fn value(&self, z: usize) -> f64 {
        self.values[z]
    }

    /// All values, nonzero-major.
    #[inline]
    pub fn values(&self) -> &[f64] {
        &self.values
    }

    /// Flat coordinate storage (see type docs for layout).
    #[inline]
    pub fn flat_indices(&self) -> &[u32] {
        &self.indices
    }

    /// Iterates `(coordinate, value)` pairs in storage order.
    pub fn iter(&self) -> impl Iterator<Item = (&[u32], f64)> + '_ {
        let n = self.order();
        self.indices
            .chunks_exact(n)
            .zip(self.values.iter().copied())
    }

    /// Largest mode extent — the "Max mode size" column of Table 5.
    pub fn max_mode_size(&self) -> u32 {
        self.shape.iter().copied().max().unwrap_or(0)
    }

    /// Fraction of possible positions that hold a stored nonzero —
    /// the "Density" column of Table 5.
    pub fn density(&self) -> f64 {
        let total: f64 = self.shape.iter().map(|&s| s as f64).product();
        if total == 0.0 {
            0.0
        } else {
            self.nnz() as f64 / total
        }
    }

    /// Sum of squared values, `‖X‖²_F`.
    pub fn norm_squared(&self) -> f64 {
        self.values.iter().map(|v| v * v).sum()
    }

    /// Frobenius norm `‖X‖_F`.
    pub fn norm(&self) -> f64 {
        self.norm_squared().sqrt()
    }

    /// Checks that every stored coordinate is within bounds.
    pub fn validate(&self) -> Result<()> {
        let n = self.order();
        if self.indices.len() != self.values.len() * n {
            return Err(TensorError::ShapeMismatch(format!(
                "flat index storage has {} entries, expected {}",
                self.indices.len(),
                self.values.len() * n
            )));
        }
        for (z, coord) in self.indices.chunks_exact(n).enumerate() {
            for (mode, (&i, &extent)) in coord.iter().zip(&self.shape).enumerate() {
                if i >= extent {
                    let _ = z;
                    return Err(TensorError::IndexOutOfBounds {
                        mode,
                        index: i,
                        extent,
                    });
                }
            }
        }
        Ok(())
    }

    /// Sorts nonzeros lexicographically with `mode` as the primary key and
    /// the remaining modes in ascending order as tie-breakers.
    pub fn sort_by_mode(&mut self, mode: usize) {
        assert!(mode < self.order(), "mode {mode} out of range");
        let n = self.order();
        let mut perm: Vec<usize> = (0..self.nnz()).collect();
        let idx = &self.indices;
        perm.sort_unstable_by(|&a, &b| {
            let ca = &idx[a * n..(a + 1) * n];
            let cb = &idx[b * n..(b + 1) * n];
            ca[mode].cmp(&cb[mode]).then_with(|| ca.cmp(cb))
        });
        self.apply_permutation(&perm);
    }

    /// Sorts nonzeros in plain lexicographic coordinate order.
    pub fn sort_lexicographic(&mut self) {
        self.sort_by_mode(0);
    }

    fn apply_permutation(&mut self, perm: &[usize]) {
        let n = self.order();
        let mut new_idx = Vec::with_capacity(self.indices.len());
        let mut new_val = Vec::with_capacity(self.values.len());
        for &p in perm {
            new_idx.extend_from_slice(&self.indices[p * n..(p + 1) * n]);
            new_val.push(self.values[p]);
        }
        self.indices = new_idx;
        self.values = new_val;
    }

    /// Sorts lexicographically and sums duplicated coordinates into a single
    /// nonzero. Entries that sum to exactly zero are kept (they remain
    /// "structural" nonzeros, as in most sparse formats).
    pub fn sum_duplicates(&mut self) {
        if self.nnz() <= 1 {
            return;
        }
        self.sort_lexicographic();
        let n = self.order();
        let mut w = 0usize; // write cursor (in nonzeros)
        for z in 1..self.nnz() {
            let same = {
                let (head, tail) = self.indices.split_at(z * n);
                head[w * n..(w + 1) * n] == tail[..n]
            };
            if same {
                self.values[w] += self.values[z];
            } else {
                w += 1;
                if w != z {
                    let (head, tail) = self.indices.split_at_mut(z * n);
                    head[w * n..(w + 1) * n].copy_from_slice(&tail[..n]);
                    self.values[w] = self.values[z];
                }
            }
        }
        let keep = w + 1;
        self.indices.truncate(keep * n);
        self.values.truncate(keep);
    }

    /// Returns a tensor with modes reordered by `perm` (`perm[d]` is the old
    /// mode that becomes new mode `d`).
    pub fn permute_modes(&self, perm: &[usize]) -> Result<Self> {
        let n = self.order();
        if perm.len() != n {
            return Err(TensorError::ShapeMismatch(format!(
                "permutation has {} entries for order-{} tensor",
                perm.len(),
                n
            )));
        }
        let mut seen = vec![false; n];
        for &p in perm {
            if p >= n || seen[p] {
                return Err(TensorError::ShapeMismatch(format!(
                    "invalid mode permutation {perm:?}"
                )));
            }
            seen[p] = true;
        }
        let shape = perm.iter().map(|&p| self.shape[p]).collect();
        let mut indices = Vec::with_capacity(self.indices.len());
        for coord in self.indices.chunks_exact(n) {
            for &p in perm {
                indices.push(coord[p]);
            }
        }
        Ok(CooTensor {
            shape,
            indices,
            values: self.values.clone(),
        })
    }

    /// Histogram of nonzero counts per index of `mode` — useful for
    /// inspecting load balance of a mode-keyed partitioning.
    pub fn mode_histogram(&self, mode: usize) -> Vec<u64> {
        assert!(mode < self.order(), "mode {mode} out of range");
        let mut hist = vec![0u64; self.shape[mode] as usize];
        let n = self.order();
        for coord in self.indices.chunks_exact(n) {
            hist[coord[mode] as usize] += 1;
        }
        hist
    }

    /// Number of distinct indices that actually appear in `mode`.
    pub fn distinct_indices(&self, mode: usize) -> usize {
        self.mode_histogram(mode).iter().filter(|&&c| c > 0).count()
    }

    /// Materializes the tensor densely (row-major over coordinates,
    /// last mode fastest). Only sensible for small test tensors.
    ///
    /// # Panics
    ///
    /// Panics if the dense element count exceeds `u32::MAX`.
    pub fn to_dense(&self) -> Vec<f64> {
        let total: usize = self.shape.iter().map(|&s| s as usize).product();
        assert!(total <= u32::MAX as usize, "tensor too large to densify");
        let mut dense = vec![0.0; total];
        for (coord, v) in self.iter() {
            dense[self.linear_index(coord)] += v;
        }
        dense
    }

    /// Linear offset of `coord` in the row-major dense layout.
    pub fn linear_index(&self, coord: &[u32]) -> usize {
        let mut off = 0usize;
        for (d, &i) in coord.iter().enumerate() {
            off = off * self.shape[d] as usize + i as usize;
        }
        off
    }

    /// Builds a COO tensor from a dense row-major array, keeping entries with
    /// `|v| > threshold`.
    pub fn from_dense(shape: Vec<u32>, dense: &[f64], threshold: f64) -> Result<Self> {
        let total: usize = shape.iter().map(|&s| s as usize).product();
        if dense.len() != total {
            return Err(TensorError::ShapeMismatch(format!(
                "dense array has {} elements, shape implies {}",
                dense.len(),
                total
            )));
        }
        let order = shape.len();
        let mut t = CooTensor::new(shape);
        let mut coord = vec![0u32; order];
        for &v in dense {
            if v.abs() > threshold {
                t.indices.extend_from_slice(&coord);
                t.values.push(v);
            }
            // Row-major odometer increment, last mode fastest.
            for d in (0..order).rev() {
                coord[d] += 1;
                if coord[d] < t.shape[d] {
                    break;
                }
                coord[d] = 0;
            }
        }
        Ok(t)
    }

    /// Remaps every mode's indices onto a dense `0..k` range, dropping
    /// unused indices (crawled FROSTT tensors have gappy id spaces).
    /// Returns the compacted tensor plus, per mode, the original index
    /// each new index stands for.
    ///
    /// ```
    /// use cstf_tensor::CooTensor;
    ///
    /// let t = CooTensor::from_entries(
    ///     vec![100, 50],
    ///     vec![(vec![7, 40], 1.0), (vec![99, 3], 2.0)],
    /// ).unwrap();
    /// let (compact, maps) = t.compact_modes();
    /// assert_eq!(compact.shape(), &[2, 2]);
    /// assert_eq!(maps[0], vec![7, 99]);  // new index 0 was 7, 1 was 99
    /// assert_eq!(compact.coord(1), &[1, 0]);
    /// ```
    pub fn compact_modes(&self) -> (CooTensor, Vec<Vec<u32>>) {
        let order = self.order();
        // Per mode: sorted list of used indices and old→new lookup.
        let mut maps: Vec<Vec<u32>> = Vec::with_capacity(order);
        let mut lookups: Vec<std::collections::HashMap<u32, u32>> = Vec::with_capacity(order);
        for mode in 0..order {
            let mut used: Vec<u32> = self
                .iter()
                .map(|(c, _)| c[mode])
                .collect::<std::collections::BTreeSet<_>>()
                .into_iter()
                .collect();
            used.sort_unstable();
            let lookup = used
                .iter()
                .enumerate()
                .map(|(new, &old)| (old, new as u32))
                .collect();
            maps.push(used);
            lookups.push(lookup);
        }
        let shape: Vec<u32> = maps.iter().map(|m| m.len().max(1) as u32).collect();
        let mut out = CooTensor::with_capacity(shape, self.nnz());
        let mut coord = vec![0u32; order];
        for (c, v) in self.iter() {
            for (m, slot) in coord.iter_mut().enumerate() {
                *slot = lookups[m][&c[m]];
            }
            out.push(&coord, v).expect("compacted coordinate in bounds");
        }
        (out, maps)
    }

    /// Splits the nonzeros into `parts` nearly equal contiguous chunks,
    /// preserving storage order. Used to parallelize scans.
    pub fn chunks(&self, parts: usize) -> Vec<CooTensor> {
        assert!(parts > 0);
        let n = self.order();
        let nnz = self.nnz();
        let base = nnz / parts;
        let rem = nnz % parts;
        let mut out = Vec::with_capacity(parts);
        let mut start = 0usize;
        for p in 0..parts {
            let len = base + usize::from(p < rem);
            let end = start + len;
            out.push(CooTensor {
                shape: self.shape.clone(),
                indices: self.indices[start * n..end * n].to_vec(),
                values: self.values[start..end].to_vec(),
            });
            start = end;
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> CooTensor {
        CooTensor::from_entries(
            vec![2, 3, 4],
            vec![
                (vec![0, 0, 0], 1.0),
                (vec![1, 2, 3], 2.0),
                (vec![0, 1, 2], -3.0),
            ],
        )
        .unwrap()
    }

    #[test]
    fn from_flat_rejects_empty_and_zero_extent_shapes() {
        for shape in [vec![], vec![0, 3]] {
            let err = CooTensor::from_flat(shape.clone(), vec![], vec![]).unwrap_err();
            assert!(
                matches!(err, TensorError::ShapeMismatch(_)),
                "{shape:?}: {err}"
            );
        }
    }

    #[test]
    fn construction_and_accessors() {
        let t = small();
        assert_eq!(t.order(), 3);
        assert_eq!(t.shape(), &[2, 3, 4]);
        assert_eq!(t.nnz(), 3);
        assert_eq!(t.coord(1), &[1, 2, 3]);
        assert_eq!(t.value(2), -3.0);
        assert_eq!(t.max_mode_size(), 4);
        assert!(!t.is_empty());
    }

    #[test]
    fn push_rejects_out_of_bounds() {
        let mut t = CooTensor::new(vec![2, 2]);
        let err = t.push(&[0, 2], 1.0).unwrap_err();
        assert_eq!(
            err,
            TensorError::IndexOutOfBounds {
                mode: 1,
                index: 2,
                extent: 2
            }
        );
        assert_eq!(t.nnz(), 0);
    }

    #[test]
    fn push_rejects_wrong_arity() {
        let mut t = CooTensor::new(vec![2, 2]);
        assert!(matches!(
            t.push(&[0], 1.0),
            Err(TensorError::ShapeMismatch(_))
        ));
    }

    #[test]
    fn from_flat_validates_length_and_bounds() {
        assert!(CooTensor::from_flat(vec![2, 2], vec![0, 0, 1], vec![1.0]).is_err());
        assert!(CooTensor::from_flat(vec![2, 2], vec![0, 5], vec![1.0]).is_err());
        let t = CooTensor::from_flat(vec![2, 2], vec![0, 1, 1, 0], vec![1.0, 2.0]).unwrap();
        assert_eq!(t.nnz(), 2);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_extent_panics() {
        CooTensor::new(vec![2, 0]);
    }

    #[test]
    fn density_small_tensor() {
        let t = small();
        let expected = 3.0 / (2.0 * 3.0 * 4.0);
        assert!((t.density() - expected).abs() < 1e-15);
    }

    #[test]
    fn norms() {
        let t = small();
        assert!((t.norm_squared() - (1.0 + 4.0 + 9.0)).abs() < 1e-12);
        assert!((t.norm() - 14.0_f64.sqrt()).abs() < 1e-12);
    }

    #[test]
    fn sort_by_mode_orders_primary_key() {
        let mut t = small();
        t.sort_by_mode(2);
        let ks: Vec<u32> = (0..t.nnz()).map(|z| t.coord(z)[2]).collect();
        assert_eq!(ks, vec![0, 2, 3]);
    }

    #[test]
    fn sort_lexicographic_full_order() {
        let mut t = CooTensor::from_entries(
            vec![2, 2],
            vec![
                (vec![1, 0], 1.0),
                (vec![0, 1], 2.0),
                (vec![0, 0], 3.0),
                (vec![1, 1], 4.0),
            ],
        )
        .unwrap();
        t.sort_lexicographic();
        let coords: Vec<Vec<u32>> = (0..4).map(|z| t.coord(z).to_vec()).collect();
        assert_eq!(coords, vec![vec![0, 0], vec![0, 1], vec![1, 0], vec![1, 1]]);
    }

    #[test]
    fn sum_duplicates_merges_and_keeps_distinct() {
        let mut t = CooTensor::from_entries(
            vec![3, 3],
            vec![
                (vec![1, 1], 2.0),
                (vec![0, 0], 1.0),
                (vec![1, 1], 3.0),
                (vec![2, 2], 4.0),
                (vec![1, 1], -1.0),
            ],
        )
        .unwrap();
        t.sum_duplicates();
        assert_eq!(t.nnz(), 3);
        let entries: Vec<(Vec<u32>, f64)> = t.iter().map(|(c, v)| (c.to_vec(), v)).collect();
        assert_eq!(
            entries,
            vec![(vec![0, 0], 1.0), (vec![1, 1], 4.0), (vec![2, 2], 4.0)]
        );
    }

    #[test]
    fn sum_duplicates_on_empty_and_singleton() {
        let mut e = CooTensor::new(vec![2, 2]);
        e.sum_duplicates();
        assert_eq!(e.nnz(), 0);
        let mut s = CooTensor::from_entries(vec![2, 2], vec![(vec![1, 1], 5.0)]).unwrap();
        s.sum_duplicates();
        assert_eq!(s.nnz(), 1);
    }

    #[test]
    fn permute_modes_roundtrip() {
        let t = small();
        let p = t.permute_modes(&[2, 0, 1]).unwrap();
        assert_eq!(p.shape(), &[4, 2, 3]);
        assert_eq!(p.coord(1), &[3, 1, 2]);
        // Applying the inverse permutation restores the original.
        let back = p.permute_modes(&[1, 2, 0]).unwrap();
        assert_eq!(back, t);
    }

    #[test]
    fn permute_modes_rejects_invalid() {
        let t = small();
        assert!(t.permute_modes(&[0, 1]).is_err());
        assert!(t.permute_modes(&[0, 0, 1]).is_err());
        assert!(t.permute_modes(&[0, 1, 3]).is_err());
    }

    #[test]
    fn mode_histogram_counts() {
        let t = small();
        assert_eq!(t.mode_histogram(0), vec![2, 1]);
        assert_eq!(t.mode_histogram(1), vec![1, 1, 1]);
        assert_eq!(t.distinct_indices(1), 3);
        assert_eq!(t.distinct_indices(2), 3);
    }

    #[test]
    fn dense_roundtrip() {
        let t = small();
        let dense = t.to_dense();
        assert_eq!(dense.len(), 24);
        assert_eq!(dense[t.linear_index(&[1, 2, 3])], 2.0);
        let mut back = CooTensor::from_dense(vec![2, 3, 4], &dense, 0.0).unwrap();
        back.sort_lexicographic();
        let mut orig = t.clone();
        orig.sort_lexicographic();
        assert_eq!(back, orig);
    }

    #[test]
    fn from_dense_threshold_filters() {
        let dense = vec![0.5, -0.1, 2.0, 0.0];
        let t = CooTensor::from_dense(vec![2, 2], &dense, 0.25).unwrap();
        assert_eq!(t.nnz(), 2);
    }

    #[test]
    fn compact_modes_drops_gaps_and_preserves_values() {
        let t = CooTensor::from_entries(
            vec![1000, 1000, 1000],
            vec![
                (vec![5, 900, 17], 1.0),
                (vec![500, 900, 42], 2.0),
                (vec![5, 3, 42], 3.0),
            ],
        )
        .unwrap();
        let (c, maps) = t.compact_modes();
        assert_eq!(c.shape(), &[2, 2, 2]);
        assert_eq!(maps[0], vec![5, 500]);
        assert_eq!(maps[1], vec![3, 900]);
        assert_eq!(maps[2], vec![17, 42]);
        // Values and relative structure survive; density improves.
        assert_eq!(c.nnz(), 3);
        assert!(c.density() > t.density() * 1000.0);
        // Round-trip one coordinate through the maps.
        let (cc, v) = c.iter().nth(1).map(|(c, v)| (c.to_vec(), v)).unwrap();
        let orig: Vec<u32> = cc.iter().zip(&maps).map(|(&i, m)| m[i as usize]).collect();
        assert_eq!(t.iter().nth(1).unwrap(), (orig.as_slice(), v));
    }

    #[test]
    fn compact_modes_of_empty_tensor() {
        let t = CooTensor::new(vec![10, 10]);
        let (c, maps) = t.compact_modes();
        assert_eq!(c.nnz(), 0);
        assert_eq!(c.shape(), &[1, 1]); // extents floored at 1
        assert!(maps.iter().all(|m| m.is_empty()));
    }

    #[test]
    fn chunks_partition_all_nonzeros() {
        let t = small();
        let parts = t.chunks(2);
        assert_eq!(parts.len(), 2);
        assert_eq!(parts[0].nnz() + parts[1].nnz(), t.nnz());
        assert_eq!(parts[0].nnz(), 2); // remainder goes to the first chunks
        for p in &parts {
            assert_eq!(p.shape(), t.shape());
            p.validate().unwrap();
        }
    }

    #[test]
    fn chunks_more_parts_than_nnz() {
        let t = small();
        let parts = t.chunks(10);
        assert_eq!(parts.len(), 10);
        let total: usize = parts.iter().map(|p| p.nnz()).sum();
        assert_eq!(total, 3);
    }

    #[test]
    fn iter_matches_accessors() {
        let t = small();
        for (z, (coord, v)) in t.iter().enumerate() {
            assert_eq!(coord, t.coord(z));
            assert_eq!(v, t.value(z));
        }
    }
}
