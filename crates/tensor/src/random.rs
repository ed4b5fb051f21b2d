//! Seeded random tensor and factor generators.
//!
//! All generators are deterministic given a seed, so tests and experiments
//! are reproducible across runs and machines.

use crate::{CooTensor, DenseMatrix, KruskalTensor};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::HashSet;

/// How nonzero coordinates are distributed along each mode.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum IndexDistribution {
    /// Uniform over the mode extent — matches the paper's synthetic `synt3d`.
    Uniform,
    /// Zipf-distributed with the given exponent (> 0): a few indices are
    /// very popular. Real crawled tensors (delicious, flickr, NELL) have
    /// heavily skewed mode histograms; Zipf reproduces that character.
    Zipf(f64),
}

/// Samples Zipf-distributed indices in `[0, n)` via an inverse-CDF table.
///
/// Popularity rank equals index (index 0 is the most popular); callers that
/// want scattered hubs can post-permute.
#[derive(Debug, Clone)]
pub(crate) struct ZipfSampler {
    cdf: Vec<f64>,
}

impl ZipfSampler {
    /// Builds a sampler over `n` indices with exponent `s`.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0` or `s <= 0`.
    pub(crate) fn new(n: u32, s: f64) -> Self {
        assert!(n > 0, "ZipfSampler over empty range");
        assert!(s > 0.0, "Zipf exponent must be positive");
        let mut cdf = Vec::with_capacity(n as usize);
        let mut acc = 0.0f64;
        for k in 1..=n as u64 {
            acc += 1.0 / (k as f64).powf(s);
            cdf.push(acc);
        }
        let total = acc;
        for c in &mut cdf {
            *c /= total;
        }
        ZipfSampler { cdf }
    }

    /// Draws one index.
    pub(crate) fn sample<R: Rng>(&self, rng: &mut R) -> u32 {
        let u: f64 = rng.gen();
        // partition_point returns the count of entries < u, i.e. the first
        // index whose cumulative mass reaches u.
        self.cdf.partition_point(|&c| c < u) as u32
    }
}

/// Builder for random sparse COO tensors.
///
/// ```
/// use cstf_tensor::random::RandomTensor;
///
/// let t = RandomTensor::new(vec![100, 80, 60]).nnz(500).seed(42).build();
/// assert_eq!(t.nnz(), 500);
/// assert_eq!(t.shape(), &[100, 80, 60]);
/// ```
#[derive(Debug, Clone)]
pub struct RandomTensor {
    shape: Vec<u32>,
    nnz: usize,
    seed: u64,
    distribution: IndexDistribution,
    value_range: (f64, f64),
}

impl RandomTensor {
    /// Starts a builder for the given shape.
    pub fn new(shape: Vec<u32>) -> Self {
        RandomTensor {
            shape,
            nnz: 0,
            seed: 0,
            distribution: IndexDistribution::Uniform,
            value_range: (0.0, 1.0),
        }
    }

    /// Requested number of *distinct* nonzeros.
    pub fn nnz(mut self, nnz: usize) -> Self {
        self.nnz = nnz;
        self
    }

    /// RNG seed (default 0).
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Index distribution (default uniform).
    pub(crate) fn distribution(mut self, d: IndexDistribution) -> Self {
        self.distribution = d;
        self
    }

    /// Value range for the uniform nonzero values (default `[0, 1)`).
    pub fn values_in(mut self, lo: f64, hi: f64) -> Self {
        self.value_range = (lo, hi);
        self
    }

    /// Generates the tensor. Coordinates are deduplicated by rejection, so
    /// the result has exactly `nnz` distinct coordinates (capped at the
    /// number of positions in the tensor).
    ///
    /// # Panics
    ///
    /// Panics if the requested nnz exceeds 90% of the total positions under
    /// a Zipf distribution (rejection would stall).
    pub fn build(self) -> CooTensor {
        let mut rng = StdRng::seed_from_u64(self.seed);
        let total_positions: f64 = self.shape.iter().map(|&s| s as f64).product();
        let target = (self.nnz as f64).min(total_positions) as usize;
        if matches!(self.distribution, IndexDistribution::Zipf(_)) {
            assert!(
                (target as f64) <= 0.9 * total_positions,
                "Zipf generation too dense to dedup by rejection"
            );
        }

        let samplers: Vec<Option<ZipfSampler>> = match self.distribution {
            IndexDistribution::Uniform => self.shape.iter().map(|_| None).collect(),
            IndexDistribution::Zipf(s) => self
                .shape
                .iter()
                .map(|&n| Some(ZipfSampler::new(n, s)))
                .collect(),
        };

        let order = self.shape.len();
        let mut seen: HashSet<Vec<u32>> = HashSet::with_capacity(target);
        let mut t = CooTensor::with_capacity(self.shape.clone(), target);
        let (lo, hi) = self.value_range;
        let mut coord = vec![0u32; order];
        let mut stall = 0usize;
        while seen.len() < target {
            for (d, slot) in coord.iter_mut().enumerate() {
                *slot = match &samplers[d] {
                    Some(z) => z.sample(&mut rng),
                    None => rng.gen_range(0..self.shape[d]),
                };
            }
            if seen.insert(coord.clone()) {
                let v = if hi > lo { rng.gen_range(lo..hi) } else { lo };
                t.push(&coord, v).expect("generated coordinate in bounds");
                stall = 0;
            } else {
                stall += 1;
                // With heavy skew the head of the Zipf fills up; bail out to
                // uniform resampling of the stuck coordinate.
                if stall > 10_000 {
                    for (d, slot) in coord.iter_mut().enumerate() {
                        *slot = rng.gen_range(0..self.shape[d]);
                    }
                    if seen.insert(coord.clone()) {
                        let v = if hi > lo { rng.gen_range(lo..hi) } else { lo };
                        t.push(&coord, v).expect("generated coordinate in bounds");
                    }
                    stall = 0;
                }
            }
        }
        t
    }
}

/// Generates a random rank-`rank` Kruskal tensor with the given shape:
/// normalized random factors and weights in `[1, 2)`.
pub(crate) fn random_kruskal(shape: &[u32], rank: usize, seed: u64) -> KruskalTensor {
    let mut rng = StdRng::seed_from_u64(seed);
    let factors: Vec<DenseMatrix> = shape
        .iter()
        .map(|&s| DenseMatrix::random(s as usize, rank, &mut rng))
        .collect();
    let weights = (0..rank).map(|_| rng.gen_range(1.0..2.0)).collect();
    let mut k = KruskalTensor::new(weights, factors).expect("shapes consistent");
    k.normalize();
    k
}

/// Samples a sparse tensor whose stored values come from a hidden low-rank
/// Kruskal tensor plus Gaussian-ish noise. Useful for recovery tests: a CP
/// decomposition at the true rank should reach a high fit.
///
/// Returns `(tensor, ground_truth)`.
pub fn low_rank_tensor(
    shape: &[u32],
    rank: usize,
    nnz: usize,
    noise: f64,
    seed: u64,
) -> (CooTensor, KruskalTensor) {
    let truth = random_kruskal(shape, rank, seed);
    let coords = RandomTensor::new(shape.to_vec())
        .nnz(nnz)
        .seed(seed.wrapping_add(1))
        .build();
    let mut rng = StdRng::seed_from_u64(seed.wrapping_add(2));
    let mut t = CooTensor::with_capacity(shape.to_vec(), coords.nnz());
    for (coord, _) in coords.iter() {
        // Sum of 4 uniforms, centered: cheap approximately-normal noise.
        let n: f64 = (0..4).map(|_| rng.gen::<f64>()).sum::<f64>() - 2.0;
        let v = truth.eval(coord) + noise * n;
        t.push(coord, v).expect("in bounds");
    }
    (t, truth)
}

/// Generates a *genuinely sparse* exactly-low-rank tensor: each rank-one
/// component's factor columns are supported on only `support` random
/// indices per mode, so the reconstruction is nonzero on at most
/// `rank · supportᴺ` positions. Unlike [`low_rank_tensor`] (which samples a
/// dense model), every zero here is a true zero, so the sparse CP
/// objective can reach fit ≈ 1 at the true rank.
///
/// Returns `(tensor, ground_truth)`; the tensor contains **all** nonzeros
/// of the ground-truth reconstruction.
///
/// # Panics
///
/// Panics if `support` exceeds any mode extent, or if the implied dense
/// work `rank · supportᴺ` exceeds 50 million entries.
pub fn sparse_low_rank_tensor(
    shape: &[u32],
    rank: usize,
    support: usize,
    seed: u64,
) -> (CooTensor, KruskalTensor) {
    assert!(
        shape.iter().all(|&s| support <= s as usize),
        "support {support} exceeds a mode extent in {shape:?}"
    );
    let order = shape.len();
    let work = rank as f64 * (support as f64).powi(order as i32);
    assert!(
        work <= 5e7,
        "sparse_low_rank_tensor too large: {work} entries"
    );

    let mut rng = StdRng::seed_from_u64(seed);
    let mut factors: Vec<DenseMatrix> = shape
        .iter()
        .map(|&s| DenseMatrix::zeros(s as usize, rank))
        .collect();
    // supports[r][m] = sorted list of active indices of mode m in component r.
    let mut supports: Vec<Vec<Vec<u32>>> = Vec::with_capacity(rank);
    for r in 0..rank {
        let mut comp = Vec::with_capacity(order);
        for (m, &extent) in shape.iter().enumerate() {
            let mut chosen: Vec<u32> = Vec::with_capacity(support);
            let mut seen = HashSet::new();
            while chosen.len() < support {
                let i = rng.gen_range(0..extent);
                if seen.insert(i) {
                    chosen.push(i);
                    factors[m].set(i as usize, r, rng.gen_range(0.5..1.5));
                }
            }
            chosen.sort_unstable();
            comp.push(chosen);
        }
        supports.push(comp);
    }
    let weights = vec![1.0; rank];
    let truth = KruskalTensor::new(weights, factors).expect("consistent shapes");

    // Enumerate every support combination of every component; overlapping
    // positions are summed by `sum_duplicates`.
    let mut t = CooTensor::new(shape.to_vec());
    let mut coord = vec![0u32; order];
    for (r, comp) in supports.iter().enumerate() {
        let mut odo = vec![0usize; order];
        let mut done = false;
        while !done {
            let mut v = truth.weights[r];
            for (m, &pos) in odo.iter().enumerate() {
                coord[m] = comp[m][pos];
                v *= truth.factors[m].get(coord[m] as usize, r);
            }
            t.push(&coord, v).expect("support index in bounds");
            // Odometer over support positions, last mode fastest.
            done = true;
            for d in (0..order).rev() {
                odo[d] += 1;
                if odo[d] < support {
                    done = false;
                    break;
                }
                odo[d] = 0;
            }
        }
    }
    t.sum_duplicates();
    (t, truth)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_produces_requested_nnz() {
        let t = RandomTensor::new(vec![50, 40, 30]).nnz(200).seed(1).build();
        assert_eq!(t.nnz(), 200);
        t.validate().unwrap();
    }

    #[test]
    fn builder_caps_at_total_positions() {
        let t = RandomTensor::new(vec![2, 2]).nnz(100).seed(2).build();
        assert_eq!(t.nnz(), 4);
    }

    #[test]
    fn coordinates_are_distinct() {
        let t = RandomTensor::new(vec![10, 10]).nnz(60).seed(3).build();
        let mut seen = HashSet::new();
        for (c, _) in t.iter() {
            assert!(seen.insert(c.to_vec()), "duplicate coordinate {c:?}");
        }
    }

    #[test]
    fn deterministic_for_same_seed() {
        let a = RandomTensor::new(vec![20, 20, 20]).nnz(100).seed(9).build();
        let b = RandomTensor::new(vec![20, 20, 20]).nnz(100).seed(9).build();
        assert_eq!(a, b);
        let c = RandomTensor::new(vec![20, 20, 20])
            .nnz(100)
            .seed(10)
            .build();
        assert_ne!(a, c);
    }

    #[test]
    fn values_respect_range() {
        let t = RandomTensor::new(vec![30, 30])
            .nnz(100)
            .seed(4)
            .values_in(5.0, 6.0)
            .build();
        for (_, v) in t.iter() {
            assert!((5.0..6.0).contains(&v));
        }
    }

    #[test]
    fn zipf_sampler_is_skewed() {
        let z = ZipfSampler::new(1000, 1.2);
        let mut rng = StdRng::seed_from_u64(5);
        let mut head = 0usize;
        let draws = 10_000;
        for _ in 0..draws {
            if z.sample(&mut rng) < 10 {
                head += 1;
            }
        }
        // Top-10 of 1000 indices should absorb far more than the uniform 1%.
        assert!(
            head > draws / 5,
            "zipf head only captured {head}/{draws} draws"
        );
    }

    #[test]
    fn zipf_sampler_in_bounds() {
        let z = ZipfSampler::new(7, 2.0);
        let mut rng = StdRng::seed_from_u64(6);
        for _ in 0..1000 {
            assert!(z.sample(&mut rng) < 7);
        }
    }

    #[test]
    fn zipf_tensor_mode_histogram_is_skewed() {
        let t = RandomTensor::new(vec![500, 500, 500])
            .nnz(3000)
            .seed(7)
            .distribution(IndexDistribution::Zipf(1.1))
            .build();
        let hist = t.mode_histogram(0);
        let max = *hist.iter().max().unwrap();
        let mean = 3000.0 / 500.0;
        assert!(max as f64 > 10.0 * mean, "max {max} not ≫ mean {mean}");
    }

    /// Max |X(coord) − truth(coord)| over the stored samples.
    fn sample_error(t: &CooTensor, truth: &crate::KruskalTensor) -> f64 {
        t.iter()
            .map(|(c, v)| (v - truth.eval(c)).abs())
            .fold(0.0, f64::max)
    }

    #[test]
    fn low_rank_tensor_samples_match_truth_exactly_without_noise() {
        let (t, truth) = low_rank_tensor(&[15, 12, 10], 3, 400, 0.0, 8);
        assert_eq!(t.nnz(), 400);
        assert!(sample_error(&t, &truth) < 1e-12);
    }

    #[test]
    fn low_rank_tensor_noise_perturbs_samples() {
        let (clean, truth) = low_rank_tensor(&[15, 12, 10], 3, 400, 0.0, 8);
        let (noisy, truth2) = low_rank_tensor(&[15, 12, 10], 3, 400, 0.5, 8);
        assert_eq!(truth, truth2); // same seed → same hidden factors
        assert!(sample_error(&noisy, &truth) > sample_error(&clean, &truth));
    }

    #[test]
    fn low_rank_tensor_dense_sampling_gives_high_fit() {
        // Sample (nearly) every position: the Kruskal fit metric then
        // applies and the ground truth must explain the data.
        let shape = [8u32, 7, 6];
        let total = 8 * 7 * 6;
        let (t, truth) = low_rank_tensor(&shape, 2, total, 0.0, 9);
        let fit = truth.fit(&t).unwrap();
        assert!(fit > 0.999, "fit was {fit}");
    }

    #[test]
    fn sparse_low_rank_tensor_is_exactly_representable() {
        let (t, truth) = sparse_low_rank_tensor(&[40, 30, 20], 2, 5, 10);
        // At most rank·supportᴺ nonzeros, and sparse relative to the shape.
        assert!(t.nnz() <= 2 * 125);
        assert!(t.nnz() > 100); // overlaps are rare at this density
        assert!(t.density() < 0.02);
        // Every stored entry equals the ground truth ⇒ fit ≈ 1 under the
        // sparse objective (truth's off-support values are exactly zero).
        let fit = truth.fit(&t).unwrap();
        assert!(fit > 0.999999, "fit was {fit}");
    }

    #[test]
    fn sparse_low_rank_tensor_zero_positions_are_true_zeros() {
        let (t, truth) = sparse_low_rank_tensor(&[15, 15, 15], 2, 3, 11);
        let mut stored: HashSet<Vec<u32>> = HashSet::new();
        for (c, _) in t.iter() {
            stored.insert(c.to_vec());
        }
        let mut checked = 0;
        'outer: for i in 0..15u32 {
            for j in 0..15u32 {
                for k in 0..15u32 {
                    if !stored.contains(&vec![i, j, k]) {
                        assert_eq!(truth.eval(&[i, j, k]), 0.0);
                        checked += 1;
                        if checked > 500 {
                            break 'outer;
                        }
                    }
                }
            }
        }
        assert!(checked > 0);
    }

    #[test]
    fn sparse_low_rank_tensor_deterministic() {
        let a = sparse_low_rank_tensor(&[20, 20], 3, 4, 5);
        let b = sparse_low_rank_tensor(&[20, 20], 3, 4, 5);
        assert_eq!(a.0, b.0);
        assert_eq!(a.1, b.1);
    }

    #[test]
    #[should_panic(expected = "support")]
    fn sparse_low_rank_rejects_oversized_support() {
        sparse_low_rank_tensor(&[4, 4], 1, 5, 0);
    }

    #[test]
    fn random_kruskal_is_normalized() {
        let k = random_kruskal(&[10, 10], 4, 11);
        for f in &k.factors {
            for n in f.column_norms() {
                assert!((n - 1.0).abs() < 1e-10);
            }
        }
    }
}
