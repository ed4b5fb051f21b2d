//! Scaled synthetic stand-ins for the paper's datasets (Table 5).
//!
//! The paper evaluates on FROSTT tensors (delicious3d, nell1, flickr,
//! delicious4d) plus a synthetic `synt3d`. Those files are 100M+ nonzeros —
//! far beyond a single-machine reproduction — so each dataset here is a
//! *generator* that preserves the properties CSTF's behaviour actually
//! depends on: tensor order, relative mode sizes, nonzero count, and index
//! skew (crawled tag data is heavily Zipf-skewed; `synt3d` is uniform).
//! A `scale` parameter divides both mode sizes and nnz, keeping density in
//! the same regime as the original.
//!
//! | name        | order | full shape                      | full nnz |
//! |-------------|-------|---------------------------------|----------|
//! | delicious3d | 3     | 532k × 17.3M × 2.5M             | 140M     |
//! | nell1       | 3     | 2.9M × 2.1M × 25.5M             | 144M     |
//! | synt3d      | 3     | 15M × 5M × 500k                 | 200M     |
//! | flickr      | 4     | 320k × 28M × 1.6M × 731         | 112M     |
//! | delicious4d | 4     | 532k × 17.3M × 2.5M × 1443      | 140M     |

use crate::random::{IndexDistribution, RandomTensor};
use crate::CooTensor;

/// Static description of one benchmark dataset.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DatasetSpec {
    /// Dataset name as used in the paper's figures.
    pub name: &'static str,
    /// Full-scale mode sizes (from FROSTT / the paper's Table 5).
    pub full_shape: &'static [u64],
    /// Full-scale nonzero count.
    pub full_nnz: u64,
    /// Index distribution character of the real data.
    pub distribution: IndexDistribution,
}

/// delicious3d: user-item-tag triples crawled from a tagging system.
pub const DELICIOUS3D: DatasetSpec = DatasetSpec {
    name: "delicious3d",
    full_shape: &[532_924, 17_262_471, 2_480_308],
    full_nnz: 140_126_181,
    distribution: IndexDistribution::Zipf(1.05),
};

/// nell1: noun-verb-noun triples from the Never Ending Language Learning
/// project.
pub const NELL1: DatasetSpec = DatasetSpec {
    name: "nell1",
    full_shape: &[2_902_330, 2_143_368, 25_495_389],
    full_nnz: 143_599_552,
    distribution: IndexDistribution::Zipf(1.1),
};

/// synt3d: the paper's synthetically generated random third-order tensor
/// (uniform indices).
pub const SYNT3D: DatasetSpec = DatasetSpec {
    name: "synt3d",
    // Mode sizes chosen to match the paper's reported max mode (15M) and
    // density (5.3e-12) for 200M nonzeros.
    full_shape: &[15_000_000, 5_000_000, 500_000],
    full_nnz: 200_000_000,
    distribution: IndexDistribution::Uniform,
};

/// flickr: user-item-tag-date 4th-order tensor.
pub const FLICKR: DatasetSpec = DatasetSpec {
    name: "flickr",
    full_shape: &[319_686, 28_153_045, 1_607_191, 731],
    full_nnz: 112_890_310,
    distribution: IndexDistribution::Zipf(1.05),
};

/// delicious4d: delicious3d with a day-granularity date mode added.
pub const DELICIOUS4D: DatasetSpec = DatasetSpec {
    name: "delicious4d",
    full_shape: &[532_924, 17_262_471, 2_480_308, 1_443],
    full_nnz: 140_126_181,
    distribution: IndexDistribution::Zipf(1.05),
};

/// All five datasets of Table 5, in the paper's order.
pub const ALL: [DatasetSpec; 5] = [DELICIOUS3D, NELL1, SYNT3D, FLICKR, DELICIOUS4D];

/// The three third-order datasets of Figure 2.
pub const THIRD_ORDER: [DatasetSpec; 3] = [DELICIOUS3D, NELL1, SYNT3D];

/// The two fourth-order datasets of Figure 3.
pub const FOURTH_ORDER: [DatasetSpec; 2] = [DELICIOUS4D, FLICKR];

impl DatasetSpec {
    /// Looks a dataset up by its paper name.
    pub fn by_name(name: &str) -> Option<DatasetSpec> {
        ALL.iter().find(|d| d.name == name).copied()
    }

    /// Tensor order.
    pub fn order(&self) -> usize {
        self.full_shape.len()
    }

    /// Density of the full-scale tensor (the Table 5 "Density" column).
    pub fn full_density(&self) -> f64 {
        let total: f64 = self.full_shape.iter().map(|&s| s as f64).product();
        self.full_nnz as f64 / total
    }

    /// Mode sizes after dividing by `scale` (minimum extent 2; the tiny
    /// `flickr` date mode shrinks more slowly so it never collapses).
    pub(crate) fn scaled_shape(&self, scale: f64) -> Vec<u32> {
        assert!(scale >= 1.0, "scale must be ≥ 1");
        self.full_shape
            .iter()
            .map(|&s| {
                // Small modes (like flickr's 731 days) divide by the cube
                // root of the scale so they keep meaningful extent.
                let div = if s < 10_000 { scale.cbrt() } else { scale };
                ((s as f64 / div).ceil() as u32).max(2)
            })
            .collect()
    }

    /// Nonzero count after dividing by `scale`, floored at 64.
    pub(crate) fn scaled_nnz(&self, scale: f64) -> usize {
        (((self.full_nnz as f64) / scale).ceil() as usize).max(64)
    }

    /// Generates the scaled tensor deterministically from `seed`.
    ///
    /// The requested nnz is capped when the scaled index space is too small
    /// to host that many distinct coordinates.
    pub fn generate(&self, scale: f64, seed: u64) -> CooTensor {
        let shape = self.scaled_shape(scale);
        let positions: f64 = shape.iter().map(|&s| s as f64).product();
        let nnz = (self.scaled_nnz(scale) as f64).min(0.5 * positions) as usize;
        RandomTensor::new(shape)
            .nnz(nnz.max(1))
            .seed(seed)
            .distribution(self.distribution)
            .values_in(0.5, 1.5)
            .build()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table5_full_scale_properties() {
        // Order column of Table 5.
        assert_eq!(DELICIOUS3D.order(), 3);
        assert_eq!(NELL1.order(), 3);
        assert_eq!(SYNT3D.order(), 3);
        assert_eq!(FLICKR.order(), 4);
        assert_eq!(DELICIOUS4D.order(), 4);
        // Max mode size column (paper: 17.3M, 25.5M, 15M, 28M, 17.3M).
        assert_eq!(*DELICIOUS3D.full_shape.iter().max().unwrap(), 17_262_471);
        assert_eq!(*NELL1.full_shape.iter().max().unwrap(), 25_495_389);
        assert_eq!(*FLICKR.full_shape.iter().max().unwrap(), 28_153_045);
        // Density column orders of magnitude (6.5e-12, 9.3e-13, …).
        assert!((DELICIOUS3D.full_density() / 6.5e-12 - 1.0).abs() < 0.5);
        assert!((NELL1.full_density() / 9.3e-13 - 1.0).abs() < 0.5);
        assert!((SYNT3D.full_density() / 5.3e-12 - 1.0).abs() < 0.5);
        assert!((FLICKR.full_density() / 1.1e-14 - 1.0).abs() < 4.0);
        assert!((DELICIOUS4D.full_density() / 4.3e-15 - 1.0).abs() < 0.5);
    }

    #[test]
    fn by_name_lookup() {
        assert_eq!(DatasetSpec::by_name("nell1"), Some(NELL1));
        assert_eq!(DatasetSpec::by_name("flickr"), Some(FLICKR));
        assert!(DatasetSpec::by_name("unknown").is_none());
    }

    #[test]
    fn scaled_shape_divides_large_modes() {
        let s = DELICIOUS3D.scaled_shape(1000.0);
        assert_eq!(s.len(), 3);
        assert_eq!(s[0], 533); // 532_924 / 1000, ceil
        assert_eq!(s[1], 17_263);
    }

    #[test]
    fn scaled_shape_protects_small_modes() {
        let s = FLICKR.scaled_shape(1000.0);
        // 731 days divides by cbrt(1000) = 10, not 1000.
        assert_eq!(s[3], 74);
    }

    #[test]
    fn generate_small_scale_matches_request() {
        let t = NELL1.generate(1_000_000.0, 42);
        assert_eq!(t.order(), 3);
        assert!(t.nnz() >= 64);
        t.validate().unwrap();
    }

    #[test]
    fn generate_is_deterministic() {
        let a = SYNT3D.generate(500_000.0, 7);
        let b = SYNT3D.generate(500_000.0, 7);
        assert_eq!(a, b);
    }

    #[test]
    fn crawled_datasets_are_skewed_uniform_is_not() {
        let zipf = DELICIOUS3D.generate(200_000.0, 3);
        let uni = SYNT3D.generate(200_000.0, 3);
        let max_share = |t: &CooTensor| {
            let h = t.mode_histogram(0);
            *h.iter().max().unwrap() as f64 / t.nnz() as f64
        };
        assert!(
            max_share(&zipf) > 4.0 * max_share(&uni),
            "zipf {} vs uniform {}",
            max_share(&zipf),
            max_share(&uni)
        );
    }

    #[test]
    fn all_collections_consistent() {
        assert_eq!(ALL.len(), 5);
        assert!(THIRD_ORDER.iter().all(|d| d.order() == 3));
        assert!(FOURTH_ORDER.iter().all(|d| d.order() == 4));
    }
}
