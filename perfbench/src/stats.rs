//! Order statistics for timings: medians, quartiles and the tail rule.
//!
//! A tail is reported as the highest percentile that still has at least
//! [`TAIL_BEYOND`] samples beyond it (capped at the percentile a metric
//! is named for), together with the sample count, so a "p99" read from
//! 300 samples is never silently a maximum.

/// Samples a tail percentile must leave beyond it.
pub const TAIL_BEYOND: usize = 10;

/// Median of `v` (mean of the two middle values for even lengths);
/// `None` when empty.
pub fn median(v: &[f64]) -> Option<f64> {
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let n = s.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(s[n / 2]),
        _ => Some((s[n / 2 - 1] + s[n / 2]) / 2.0),
    }
}

/// A tail read off a sample: the percentile used, its value, and how
/// many samples it was read from.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Tail {
    /// Percentile actually reported (at most the cap).
    pub pct: f64,
    /// Nearest-rank value at `pct`.
    pub value: f64,
    /// Sample count.
    pub n: usize,
}

/// The highest percentile, at most `cap`, with at least [`TAIL_BEYOND`]
/// samples strictly beyond its nearest-rank position. `None` when the
/// sample has too few values to support any such percentile.
pub fn tail(v: &[f64], cap: f64) -> Option<Tail> {
    let n = v.len();
    if n <= TAIL_BEYOND {
        return None;
    }
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    // Nearest rank r (1-based) leaves n - r samples beyond it; the
    // supported ranks are r <= n - TAIL_BEYOND.
    let cap_rank = ((cap / 100.0) * n as f64).ceil() as usize;
    let rank = cap_rank.clamp(1, n - TAIL_BEYOND);
    Some(Tail {
        pct: 100.0 * rank as f64 / n as f64,
        value: s[rank - 1],
        n,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        (1..=n).map(|i| i as f64).collect()
    }

    #[test]
    fn median_of_odd_and_even_samples() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn tail_is_capped_when_the_sample_is_large() {
        let t = tail(&ramp(10_000), 99.0).unwrap();
        assert_eq!(t.value, 9_900.0);
        assert_eq!(t.pct, 99.0);
        assert_eq!(t.n, 10_000);
    }

    #[test]
    fn tail_leaves_ten_samples_beyond_it() {
        // 200 samples: p99 would leave only 2 beyond, so the rule falls
        // back to rank 190 (p95), which leaves exactly 10.
        let v = ramp(200);
        let t = tail(&v, 99.0).unwrap();
        assert_eq!(t.value, 190.0);
        assert_eq!(t.pct, 95.0);
        assert_eq!(v.iter().filter(|&&x| x > t.value).count(), TAIL_BEYOND);
    }

    #[test]
    fn tail_needs_more_than_ten_samples() {
        assert_eq!(tail(&ramp(10), 99.0), None);
        let t = tail(&ramp(11), 99.0).unwrap();
        assert_eq!((t.value, t.n), (1.0, 11));
    }

    #[test]
    fn tail_ignores_input_order() {
        let mut v = ramp(500);
        v.reverse();
        assert_eq!(tail(&v, 99.0).unwrap().value, 490.0);
    }
}
