//! Order statistics, the tail-percentile rule, run-to-run spread, and
//! the failure tally every workload counts its operations in.

/// Percentiles the tail rule may report, highest first.
const LADDER: [f64; 4] = [0.999, 0.99, 0.9, 0.5];

/// Samples that must lie strictly beyond a reported tail percentile.
pub const TAIL_BEYOND: usize = 10;

/// Sorts a copy of `values` ascending.
pub fn sorted(values: &[f64]) -> Vec<f64> {
    let mut out = values.to_vec();
    out.sort_by(f64::total_cmp);
    out
}

/// Nearest-rank index of percentile `p` in a sorted run of `n` samples.
fn rank(n: usize, p: f64) -> usize {
    ((p * n as f64).ceil() as usize).clamp(1, n) - 1
}

/// Nearest-rank percentile `p` (in `0..=1`) of ascending `sorted`.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return f64::NAN;
    }
    sorted[rank(sorted.len(), p)]
}

/// Samples strictly beyond the nearest-rank percentile `p` of `n`.
pub fn beyond(n: usize, p: f64) -> usize {
    if n == 0 {
        return 0;
    }
    n - 1 - rank(n, p)
}

/// The highest percentile of the ladder (p99.9, p99, p90, p50), capped
/// at `ceiling`, that has at least [`TAIL_BEYOND`] samples beyond it in
/// a run of `n`. Falls back to the median when none has.
pub fn tail_percentile(n: usize, ceiling: f64) -> f64 {
    LADDER
        .iter()
        .copied()
        .filter(|&p| p <= ceiling)
        .find(|&p| beyond(n, p) >= TAIL_BEYOND)
        .unwrap_or(0.5)
}

/// Most windows [`windowed`] splits a run into.
pub const WINDOWS: usize = 5;

/// Percentile `p` of time-ordered samples, robust to a burst of noise
/// in one part of the run: the run is cut into up to [`WINDOWS`] equal
/// windows in time order, each large enough to keep [`TAIL_BEYOND`]
/// samples beyond `p`, and the median of the windows' percentiles is
/// returned. The median of a window is Python's median; other
/// percentiles are nearest-rank.
pub fn windowed(samples: &[f64], p: f64) -> f64 {
    let n = samples.len();
    let windows = (1..=WINDOWS)
        .rev()
        .find(|&w| beyond(n / w, p) >= TAIL_BEYOND)
        .unwrap_or(1);
    let size = n / windows;
    let values: Vec<f64> = samples
        .chunks_exact(size.max(1))
        .take(windows)
        .map(|part| {
            if p == 0.5 {
                median(part)
            } else {
                percentile(&sorted(part), p)
            }
        })
        .collect();
    median(&values)
}

/// Completions per second over a run of `wall` seconds, robust like
/// [`windowed`]: the median rate over [`WINDOWS`] equal time windows.
/// `times` are completion times in seconds since the run started.
pub fn windowed_rate(times: &[f64], wall: f64) -> f64 {
    let width = wall / WINDOWS as f64;
    let mut counts = [0usize; WINDOWS];
    for &t in times {
        counts[((t / width) as usize).min(WINDOWS - 1)] += 1;
    }
    let rates: Vec<f64> = counts.iter().map(|&c| c as f64 / width).collect();
    median(&rates)
}

/// The median as Python's `statistics.median` computes it (the mean of
/// the two middle values for an even count).
pub fn median(values: &[f64]) -> f64 {
    let s = sorted(values);
    let n = s.len();
    match n {
        0 => f64::NAN,
        _ if n % 2 == 1 => s[n / 2],
        _ => (s[n / 2 - 1] + s[n / 2]) / 2.0,
    }
}

/// Quartiles as Python's `statistics.quantiles(values, n=4)` computes
/// them (its default "exclusive" method). `None` below two values.
pub fn quartiles(values: &[f64]) -> Option<[f64; 3]> {
    let data = sorted(values);
    let len = data.len() as i64;
    if len < 2 {
        return None;
    }
    let m = len + 1;
    let mut out = [0.0; 3];
    for (slot, i) in out.iter_mut().zip(1..4i64) {
        let j = (i * m / 4).clamp(1, len - 1);
        let delta = (i * m - j * 4) as f64;
        let (lo, hi) = (data[(j - 1) as usize], data[j as usize]);
        *slot = (lo * (4.0 - delta) + hi * delta) / 4.0;
    }
    Some(out)
}

/// Run-to-run spread: the interquartile distance as a share of the
/// median.
pub fn spread(values: &[f64]) -> Option<f64> {
    let [q1, _, q3] = quartiles(values)?;
    Some((q3 - q1) / median(values))
}

/// Operations attempted and failed. A failure is anything that did not
/// end in a correct verdict: an error or refused response, a timeout,
/// or a verdict that disagrees with the reference.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Tally {
    /// Operations started.
    pub attempted: u64,
    /// Operations that did not end in a correct verdict.
    pub failed: u64,
}

impl Tally {
    /// Counts one operation.
    pub fn record(&mut self, correct: bool) {
        self.attempted += 1;
        self.failed += u64::from(!correct);
    }

    /// Adds another tally's counts.
    pub fn merge(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
    }

    /// Failed over attempted (0 when nothing was attempted).
    pub fn fail_rate(&self) -> f64 {
        if self.attempted == 0 {
            0.0
        } else {
            self.failed as f64 / self.attempted as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_rule_picks_highest_percentile_with_ten_beyond() {
        assert_eq!(tail_percentile(100, 0.99), 0.9);
        assert_eq!(
            tail_percentile(99, 0.99),
            0.5,
            "p90 of 99 leaves nine beyond"
        );
        assert_eq!(tail_percentile(1000, 0.99), 0.99);
        assert_eq!(tail_percentile(1000, 0.9), 0.9, "capped at the ceiling");
        assert_eq!(tail_percentile(10_000, 1.0), 0.999);
        assert_eq!(tail_percentile(8, 0.99), 0.5);
        assert_eq!(beyond(100, 0.9), 10);
        assert_eq!(beyond(1000, 0.99), 10);
    }

    #[test]
    fn windows_take_the_median_window() {
        // Five windows of 1000: the p99 of each is its 990th value; one
        // noisy window does not move the median of the five.
        let mut samples: Vec<f64> = (0..5000).map(|i| f64::from(i % 1000)).collect();
        for s in &mut samples[1000..2000] {
            *s += 500.0;
        }
        assert_eq!(windowed(&samples, 0.99), 989.0);
        assert_eq!(windowed(&samples, 0.5), 499.5);
        // 150 samples: p90 needs 100 per window, so one window.
        let few: Vec<f64> = (1..=150).map(f64::from).collect();
        assert_eq!(windowed(&few, 0.9), 135.0);
        assert_eq!(windowed(&few[..8], 0.5), 4.5);
    }

    #[test]
    fn rate_is_the_median_window() {
        // 10 s, five 2 s windows with 20, 20, 2, 20, 20 completions.
        let mut times = Vec::new();
        for (w, n) in [20, 20, 2, 20, 20].into_iter().enumerate() {
            times.extend((0..n).map(|i| w as f64 * 2.0 + f64::from(i) * 0.05));
        }
        assert_eq!(windowed_rate(&times, 10.0), 10.0);
    }

    #[test]
    fn nearest_rank_percentiles() {
        let s: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&s, 0.5), 50.0);
        assert_eq!(percentile(&s, 0.9), 90.0);
        assert_eq!(percentile(&s, 1.0), 100.0);
        assert_eq!(percentile(&[7.0], 0.99), 7.0);
        assert!(percentile(&[], 0.5).is_nan());
    }

    #[test]
    fn quartiles_match_python_statistics() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), Some([2.75, 5.5, 8.25]));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), Some([1.0, 2.0, 3.0]));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), Some([0.75, 1.5, 2.25]));
        // statistics.quantiles([92.232, 2.901, 46.562, 94.336, 64.897], n=4)
        // == [24.7315, 64.897, 93.284]
        let q = quartiles(&[92.232, 2.901, 46.562, 94.336, 64.897]).unwrap();
        for (got, want) in q.iter().zip([24.7315, 64.897, 93.284]) {
            assert!((got - want).abs() < 1e-9, "{q:?}");
        }
        assert_eq!(quartiles(&[1.0]), None);
    }

    #[test]
    fn spread_is_iqr_over_median() {
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(median(&v), 5.5);
        assert_eq!(spread(&v), Some((8.25 - 2.75) / 5.5));
        assert_eq!(spread(&[4.0; 10]), Some(0.0));
    }

    #[test]
    fn tally_counts_failures_against_attempts() {
        let mut t = Tally::default();
        t.record(true);
        t.record(false);
        t.record(true);
        t.record(true);
        assert_eq!(
            t,
            Tally {
                attempted: 4,
                failed: 1
            }
        );
        assert_eq!(t.fail_rate(), 0.25);
        assert_eq!(Tally::default().fail_rate(), 0.0);
    }
}
