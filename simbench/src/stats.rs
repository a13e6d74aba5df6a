//! Summaries of repeated host-time samples: the median, and the highest
//! percentile that still has at least ten samples beyond it.

/// Percentiles a tail is reported at, in hundredths of a percent.
const LADDER: [u64; 5] = [5_000, 9_000, 9_900, 9_990, 9_999];

/// Samples that must lie beyond a percentile for it to be reported.
const BEYOND: usize = 10;

/// A reported tail percentile of a sample set.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Tail {
    /// The percentile, in hundredths of a percent (`9_900` is p99).
    pub pct: u64,
    /// The sample at that percentile (nearest rank).
    pub value: f64,
    /// How many samples the percentile was taken over.
    pub samples: usize,
}

impl Tail {
    /// The percentile as a metric-name suffix: `p50`, `p99`, `p99.9`.
    pub fn label(&self) -> String {
        let (whole, frac) = (self.pct / 100, self.pct % 100);
        match frac {
            0 => format!("p{whole}"),
            f if f % 10 == 0 => format!("p{whole}.{}", f / 10),
            f => format!("p{whole}.{f:02}"),
        }
    }
}

/// Median of `samples` (the mean of the middle two for an even count),
/// or `None` when empty.
pub fn median(samples: &[f64]) -> Option<f64> {
    let s = sorted(samples);
    let n = s.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(s[n / 2]),
        _ => Some((s[n / 2 - 1] + s[n / 2]) / 2.0),
    }
}

/// The highest percentile of [`LADDER`] with at least [`BEYOND`]
/// samples ranked above it, by the nearest-rank rule. `None` when there
/// are too few samples for even the median to have ten beyond it.
pub fn tail(samples: &[f64]) -> Option<Tail> {
    let s = sorted(samples);
    let n = s.len() as u64;
    LADDER.iter().rev().find_map(|&pct| {
        // Nearest rank: the ceil(pct * n)-th smallest sample (1-based).
        let rank = (pct * n).div_ceil(10_000);
        let beyond = n.saturating_sub(rank) as usize;
        (rank >= 1 && beyond >= BEYOND).then(|| Tail {
            pct,
            value: s[rank as usize - 1],
            samples: s.len(),
        })
    })
}

fn sorted(samples: &[f64]) -> Vec<f64> {
    let mut s = samples.to_vec();
    s.sort_by(f64::total_cmp);
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        // Shuffled so the helpers must sort.
        (1..=n).rev().map(|v| v as f64).collect()
    }

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[]), None);
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
    }

    #[test]
    fn tail_needs_ten_samples_beyond_the_median() {
        assert_eq!(tail(&ramp(19)), None);
        let t = tail(&ramp(20)).expect("20 samples carry a median");
        assert_eq!((t.label().as_str(), t.value, t.samples), ("p50", 10.0, 20));
    }

    #[test]
    fn tail_picks_the_highest_percentile_with_ten_beyond() {
        let t = tail(&ramp(99)).unwrap();
        assert_eq!(t.label(), "p50", "99 samples leave only 9 beyond p90");
        let t = tail(&ramp(100)).unwrap();
        assert_eq!((t.label().as_str(), t.value), ("p90", 90.0));
        let t = tail(&ramp(999)).unwrap();
        assert_eq!(t.label(), "p90");
        let t = tail(&ramp(1000)).unwrap();
        assert_eq!(
            (t.label().as_str(), t.value, t.samples),
            ("p99", 990.0, 1000)
        );
        let t = tail(&ramp(10_000)).unwrap();
        assert_eq!((t.label().as_str(), t.value), ("p99.9", 9990.0));
        let t = tail(&ramp(100_000)).unwrap();
        assert_eq!((t.label().as_str(), t.value), ("p99.99", 99990.0));
    }

    #[test]
    fn every_reported_tail_has_ten_samples_beyond_it() {
        for n in 1..2500 {
            if let Some(t) = tail(&ramp(n)) {
                let beyond = ramp(n).iter().filter(|&&v| v > t.value).count();
                assert!(beyond >= BEYOND, "n={n}: {t:?} has {beyond} beyond");
            }
        }
    }
}
