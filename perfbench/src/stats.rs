//! Order statistics for the timing metrics.

/// Median of `values`; the mean of the middle two for an even count.
///
/// # Panics
///
/// Panics on an empty slice.
pub fn median(values: &[f64]) -> f64 {
    let sorted = sorted(values);
    let n = sorted.len();
    assert!(n > 0, "median of no values");
    if n % 2 == 1 {
        sorted[n / 2]
    } else {
        (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0
    }
}

/// A tail latency: the `percentile`-th nearest-rank value of `count`
/// samples.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    /// Whole percentile the value was read at (100 = the maximum).
    pub percentile: u32,
    /// The sample at that rank.
    pub value: f64,
    /// Number of samples.
    pub count: usize,
}

/// The highest whole percentile that leaves at least `beyond` samples
/// ranked above it, by the nearest-rank rule (rank = ⌈p·n/100⌉). `None`
/// when fewer than `beyond + 1` samples exist.
pub fn tail(values: &[f64], beyond: usize) -> Option<Tail> {
    let sorted = sorted(values);
    let n = sorted.len();
    (1..=99u32).rev().find_map(|p| {
        let rank = (p as usize * n).div_ceil(100);
        (rank >= 1 && n - rank >= beyond).then(|| Tail {
            percentile: p,
            value: sorted[rank - 1],
            count: n,
        })
    })
}

/// [`tail`], or the maximum (reported as percentile 100) when the run
/// has too few samples for any percentile to leave `beyond` above it.
///
/// # Panics
///
/// Panics on an empty slice.
pub fn tail_or_max(values: &[f64], beyond: usize) -> Tail {
    tail(values, beyond).unwrap_or_else(|| {
        let sorted = sorted(values);
        Tail {
            percentile: 100,
            value: *sorted.last().expect("tail of no values"),
            count: sorted.len(),
        }
    })
}

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    sorted
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        // Descending: the rule must not depend on input order.
        (1..=n).rev().map(|i| i as f64).collect()
    }

    #[test]
    fn tail_leaves_at_least_ten_samples_beyond() {
        for n in 11..400 {
            let t = tail(&ramp(n), 10).expect("n > 10 has a tail");
            let rank = t.value as usize;
            assert!(
                n - rank >= 10,
                "n={n}: p{} leaves {}",
                t.percentile,
                n - rank
            );
            // The next percentile up would leave fewer than ten.
            if t.percentile < 99 {
                let next = ((t.percentile as usize + 1) * n).div_ceil(100);
                assert!(
                    n - next < 10,
                    "n={n}: p{} was not the highest",
                    t.percentile
                );
            }
            assert_eq!(t.count, n);
        }
    }

    #[test]
    fn tail_matches_hand_computed_ranks() {
        // 120 jobs: p91 has rank 110 (ten beyond), p92 rank 111 (nine).
        let t = tail(&ramp(120), 10).unwrap();
        assert_eq!((t.percentile, t.value), (91, 110.0));
        // 1000 jobs: p99 has rank 990, exactly ten beyond.
        let t = tail(&ramp(1000), 10).unwrap();
        assert_eq!((t.percentile, t.value), (99, 990.0));
        // 11 jobs: only p1..p9 have rank 1 with ten beyond.
        let t = tail(&ramp(11), 10).unwrap();
        assert_eq!((t.percentile, t.value), (9, 1.0));
    }

    #[test]
    fn too_few_samples_have_no_tail_and_fall_back_to_the_maximum() {
        assert_eq!(tail(&ramp(10), 10), None);
        let t = tail_or_max(&[3.0, 9.0, 1.0, 4.0, 5.0], 10);
        assert_eq!((t.percentile, t.value, t.count), (100, 9.0, 5));
    }

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }
}
