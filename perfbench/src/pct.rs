//! Order statistics for timing samples.
//!
//! Percentiles use the nearest-rank definition of the trace analyzer
//! (`sparkscore-obs`): the value at 1-based rank `ceil(len · pct / 100)`.
//! A tail is reported only where it is resolved: the highest percentile
//! of a fixed ladder that still leaves at least [`TAIL_BEYOND`] samples
//! beyond it.

/// Samples a reported tail percentile must leave beyond it.
pub const TAIL_BEYOND: usize = 10;

/// Tail percentiles tried, highest first.
const TAIL_LADDER: [f64; 4] = [99.9, 99.0, 90.0, 75.0];

/// Nearest-rank percentile of an ascending-sorted sample (0 when empty).
pub fn nearest_rank(sorted: &[f64], pct: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = ((sorted.len() as f64 * pct / 100.0).ceil() as usize).max(1);
    sorted[rank.min(sorted.len()) - 1]
}

/// Samples strictly beyond the nearest-rank position of `pct`.
fn beyond(len: usize, pct: f64) -> usize {
    let rank = ((len as f64 * pct / 100.0).ceil() as usize).max(1);
    len - rank.min(len)
}

/// A sample summarised as its median and its resolved tail.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    pub n: usize,
    pub p50: f64,
    /// The tail percentile reported, or `None` when the sample is too
    /// small for any percentile of the ladder (the tail then reads as the
    /// median).
    pub tail_pct: Option<f64>,
    pub tail: f64,
}

impl Summary {
    pub fn of(samples: &[f64]) -> Self {
        let mut sorted = samples.to_vec();
        sorted.sort_by(f64::total_cmp);
        let p50 = nearest_rank(&sorted, 50.0);
        let tail_pct = TAIL_LADDER
            .iter()
            .copied()
            .find(|&p| beyond(sorted.len(), p) >= TAIL_BEYOND);
        Summary {
            n: sorted.len(),
            p50,
            tail_pct,
            tail: tail_pct.map_or(p50, |p| nearest_rank(&sorted, p)),
        }
    }

    /// `p99 (n=1234)`-style label of the tail.
    pub fn tail_label(&self) -> String {
        match self.tail_pct {
            Some(p) => format!("p{p} (n={})", self.n),
            None => format!("p50, no resolved tail (n={})", self.n),
        }
    }
}

/// Median by nearest rank (0 when empty).
pub fn median(samples: &[f64]) -> f64 {
    Summary::of(samples).p50
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_matches_the_trace_analyzer() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(nearest_rank(&v, 50.0), 50.0);
        assert_eq!(nearest_rank(&v, 99.0), 99.0);
        assert_eq!(nearest_rank(&[7.0], 99.0), 7.0);
        assert_eq!(nearest_rank(&[], 50.0), 0.0);
        assert_eq!(nearest_rank(&[42.0], 1.0), 42.0);
        assert_eq!(nearest_rank(&[42.0], 100.0), 42.0);
    }

    #[test]
    fn tail_leaves_ten_samples_beyond_it() {
        // 1000 samples: p99 is rank 990, ten beyond; p99.9 leaves one.
        let v: Vec<f64> = (1..=1000).map(f64::from).collect();
        let s = Summary::of(&v);
        assert_eq!(
            (s.n, s.p50, s.tail_pct, s.tail),
            (1000, 500.0, Some(99.0), 990.0)
        );
        // 50 samples: p90 is rank 45 (five beyond), p75 rank 38 (twelve).
        let v: Vec<f64> = (1..=50).rev().map(f64::from).collect();
        let s = Summary::of(&v);
        assert_eq!((s.tail_pct, s.tail), (Some(75.0), 38.0));
        // Too few samples for any tail: the median stands in.
        let s = Summary::of(&[3.0, 1.0, 2.0]);
        assert_eq!((s.p50, s.tail_pct, s.tail), (2.0, None, 2.0));
        assert!(s.tail_label().contains("no resolved tail"));
    }
}
