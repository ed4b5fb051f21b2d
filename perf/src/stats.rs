//! Order statistics for samples: median, quartiles, percentiles.

/// Median, quartiles and count of one metric's samples.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    pub median: f64,
    pub q1: f64,
    pub q3: f64,
    pub min: f64,
    pub max: f64,
    pub n: usize,
}

impl Summary {
    /// Summarises `values`; `None` when there are none.
    pub fn of(values: &[f64]) -> Option<Summary> {
        if values.is_empty() {
            return None;
        }
        let s = sorted(values);
        let (q1, q3) = quartiles_sorted(&s);
        Some(Summary {
            median: quantile_sorted(&s, 0.5),
            q1,
            q3,
            min: s[0],
            max: s[s.len() - 1],
            n: s.len(),
        })
    }

    /// Distance between the quartiles as a share of the median — the
    /// run-to-run spread the bounds are compared against.
    pub fn spread(&self) -> f64 {
        if self.median == 0.0 {
            0.0
        } else {
            (self.q3 - self.q1) / self.median.abs()
        }
    }
}

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut s = values.to_vec();
    s.sort_by(f64::total_cmp);
    s
}

/// Median of `values` (mean of the two middle values for an even count).
/// Panics on an empty slice.
pub fn median(values: &[f64]) -> f64 {
    quantile_sorted(&sorted(values), 0.5)
}

/// The `p`-th percentile (0–100) by linear interpolation between closest
/// ranks (the "inclusive" method: p=0 is the minimum, p=100 the maximum).
pub fn percentile(values: &[f64], p: f64) -> f64 {
    quantile_sorted(&sorted(values), (p / 100.0).clamp(0.0, 1.0))
}

fn quantile_sorted(s: &[f64], q: f64) -> f64 {
    assert!(!s.is_empty(), "quantile of no samples");
    let pos = q * (s.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    s[lo] + (s[hi] - s[lo]) * (pos - lo as f64)
}

/// First and third quartile exactly as Python's
/// `statistics.quantiles(values, n=4)` (the default "exclusive" method)
/// gives them — the rule the benchmark's acceptance spread is judged by.
/// A single sample is its own quartiles.
fn quartiles_sorted(s: &[f64]) -> (f64, f64) {
    let n = s.len();
    if n < 2 {
        return (s[0], s[0]);
    }
    let cut = |i: usize| -> f64 {
        // j = i·(n+1) div 4, clamped to [1, n−1]; delta = i·(n+1) − 4j.
        let m = n + 1;
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (s[j - 1] * (4.0 - delta) + s[j] * delta) / 4.0
    };
    (cut(1), cut(3))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_odd_even_unsorted() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[7.0]), 7.0);
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let s = Summary::of(&v).unwrap();
        assert_eq!((s.q1, s.median, s.q3), (2.75, 5.5, 8.25));
        // statistics.quantiles([1, 2, 4, 8, 16], n=4) == [1.5, 4.0, 12.0]
        let s = Summary::of(&[16.0, 1.0, 8.0, 2.0, 4.0]).unwrap();
        assert_eq!((s.q1, s.median, s.q3), (1.5, 4.0, 12.0));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        let s = Summary::of(&[1.0, 2.0]).unwrap();
        assert_eq!((s.q1, s.q3), (0.75, 2.25));
        assert_eq!((s.min, s.max, s.n), (1.0, 2.0, 2));
    }

    #[test]
    fn spread_is_iqr_over_median() {
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert!((Summary::of(&v).unwrap().spread() - 1.0).abs() < 1e-12);
        assert_eq!(Summary::of(&[5.0]).unwrap().spread(), 0.0);
        assert!(Summary::of(&[]).is_none());
    }

    #[test]
    fn percentile_interpolates() {
        let v = [10.0, 20.0, 30.0, 40.0, 50.0];
        assert_eq!(percentile(&v, 0.0), 10.0);
        assert_eq!(percentile(&v, 100.0), 50.0);
        assert_eq!(percentile(&v, 50.0), 30.0);
        assert_eq!(percentile(&v, 90.0), 46.0);
    }
}
