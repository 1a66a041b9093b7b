//! Order statistics over timing samples, and failure accounting.
//!
//! A failed or refused request counts as missing every latency limit,
//! so it enters a latency sample as `+∞` rather than being dropped:
//! [`Latencies::miss`] keeps the sample count honest and pushes the
//! percentiles up exactly as a user would see them.

use crate::steal::Steal;
use std::collections::BTreeMap;
use std::time::Instant;

/// Samples that must lie strictly above a reported percentile.
pub const MIN_BEYOND: usize = 10;

/// Smallest sample count at which the `q`-th percentile has
/// [`MIN_BEYOND`] samples above it under the nearest-rank rule.
pub fn min_samples(q: f64) -> usize {
    (1..)
        .find(|&n| beyond(n, q) >= MIN_BEYOND)
        .expect("unbounded search")
}

/// 1-based nearest rank of the `q`-th percentile among `n` samples.
fn rank(n: usize, q: f64) -> usize {
    ((q * n as f64).ceil() as usize).clamp(1, n)
}

/// Samples ranked above the `q`-th percentile of `n` samples.
fn beyond(n: usize, q: f64) -> usize {
    if n == 0 {
        0
    } else {
        n - rank(n, q)
    }
}

/// Nearest-rank `q`-th percentile (`q` in `(0, 1]`) of `samples`, or
/// `None` unless at least [`MIN_BEYOND`] samples lie above it.
pub fn percentile(samples: &[f64], q: f64) -> Option<f64> {
    if beyond(samples.len(), q) < MIN_BEYOND {
        return None;
    }
    Some(sorted(samples)[rank(samples.len(), q) - 1])
}

/// [`percentile`] at 0.5, or — when a phase hit its time cap with
/// too few samples — the plain median, with a warning on stderr.
pub fn p50_or_median(samples: &[f64]) -> f64 {
    percentile(samples, 0.5).unwrap_or_else(|| {
        eprintln!(
            "warning: {} samples, too few for a reportable median",
            samples.len()
        );
        median(samples).unwrap_or(f64::INFINITY)
    })
}

/// Median of `samples` (mean of the middle pair for an even count),
/// with no minimum sample count; `None` when empty. For per-layer
/// summaries of a handful of repetitions.
pub fn median(samples: &[f64]) -> Option<f64> {
    let s = sorted(samples);
    let n = s.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(s[n / 2]),
        _ => Some(0.5 * (s[n / 2 - 1] + s[n / 2])),
    }
}

/// Quartiles `(q1, q2, q3)` by the same rule as Python's
/// `statistics.quantiles(values, n=4)` (the "exclusive" method).
/// Needs at least two samples.
pub fn quartiles(samples: &[f64]) -> Option<(f64, f64, f64)> {
    let s = sorted(samples);
    let len = s.len();
    if len < 2 {
        return None;
    }
    let cut = |i: usize| {
        let m = len + 1;
        let j = (i * m / 4).clamp(1, len - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (s[j - 1] * (4.0 - delta) + s[j] * delta) / 4.0
    };
    Some((cut(1), cut(2), cut(3)))
}

/// Interquartile range as a share of the median (the spread the
/// benchmark's bounds are stated in).
pub fn iqr_frac(samples: &[f64]) -> Option<f64> {
    quartiles(samples).map(|(q1, q2, q3)| (q3 - q1) / q2)
}

fn sorted(samples: &[f64]) -> Vec<f64> {
    let mut s = samples.to_vec();
    s.sort_by(f64::total_cmp);
    s
}

/// Latency samples in milliseconds, each with the instant it ended;
/// failures enter as `+∞`.
#[derive(Debug, Default, Clone)]
pub struct Latencies {
    ms: Vec<f64>,
    end: Vec<Instant>,
}

impl Latencies {
    /// A completed, correct request that ended just now.
    pub fn hit(&mut self, ms: f64) {
        self.ms.push(ms);
        self.end.push(Instant::now());
    }

    /// A failed or refused request: misses any limit.
    pub fn miss(&mut self) {
        self.ms.push(f64::INFINITY);
        self.end.push(Instant::now());
    }

    /// Every sample, failures included.
    pub fn samples(&self) -> &[f64] {
        &self.ms
    }

    /// Every sample net of the host's steal over its interval.
    pub fn net(&self, steal: &Steal) -> Vec<f64> {
        self.ms
            .iter()
            .zip(&self.end)
            .map(|(&ms, &end)| steal.net_ms(ms, end))
            .collect()
    }

    /// A copy in which every sample `i` with `condemned(i)` became a
    /// miss (a check after the fact failed those requests).
    pub fn voided(&self, condemned: impl Fn(usize) -> bool) -> Latencies {
        let ms = self
            .ms
            .iter()
            .enumerate()
            .map(|(i, &x)| if condemned(i) { f64::INFINITY } else { x });
        Latencies {
            ms: ms.collect(),
            end: self.end.clone(),
        }
    }

    /// Merge another client's samples.
    pub fn extend(&mut self, other: &Latencies) {
        self.ms.extend_from_slice(&other.ms);
        self.end.extend_from_slice(&other.end);
    }
}

/// Attempted and failed counts, with the failures broken down by
/// reason so a report says *why* a run was incorrect.
#[derive(Debug, Default, Clone)]
pub struct Tally {
    attempted: u64,
    failed: u64,
    reasons: BTreeMap<String, u64>,
}

impl Tally {
    /// Count one attempt with its outcome.
    pub fn record(&mut self, outcome: Result<(), String>) {
        self.attempted += 1;
        if let Err(reason) = outcome {
            self.failed += 1;
            *self.reasons.entry(reason).or_default() += 1;
        }
    }

    /// Count an attempt that already happened as failed after all (a
    /// later check condemned it).
    pub fn condemn(&mut self, count: u64, reason: &str) {
        self.failed = (self.failed + count).min(self.attempted);
        *self.reasons.entry(reason.to_string()).or_default() += count;
    }

    /// Merge another client's tally.
    pub fn merge(&mut self, other: &Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        for (r, k) in &other.reasons {
            *self.reasons.entry(r.clone()).or_default() += k;
        }
    }

    /// Requests attempted.
    pub fn attempted(&self) -> u64 {
        self.attempted
    }

    /// Requests that failed any check.
    pub fn failed(&self) -> u64 {
        self.failed
    }

    /// `failed / attempted` (0 when nothing was attempted).
    pub fn error_rate(&self) -> f64 {
        if self.attempted == 0 {
            0.0
        } else {
            self.failed as f64 / self.attempted as f64
        }
    }

    /// Failure reasons with their counts.
    pub fn reasons(&self) -> &BTreeMap<String, u64> {
        &self.reasons
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_needs_ten_samples_beyond() {
        let xs: Vec<f64> = (1..=19).map(f64::from).collect();
        assert_eq!(percentile(&xs, 0.5), None, "19 samples: 9 above the median");
        let xs: Vec<f64> = (1..=20).map(f64::from).collect();
        assert_eq!(percentile(&xs, 0.5), Some(10.0));
        assert_eq!(min_samples(0.5), 20);
        assert_eq!(min_samples(0.99), 1000);
        let xs: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(percentile(&xs, 0.99), Some(990.0));
        assert_eq!(percentile(&xs[..999], 0.99), None);
    }

    #[test]
    fn percentile_ignores_input_order() {
        let mut xs: Vec<f64> = (0..40).map(|i| f64::from((i * 17) % 40)).collect();
        let p = percentile(&xs, 0.5);
        xs.sort_by(f64::total_cmp);
        assert_eq!(p, percentile(&xs, 0.5));
        assert_eq!(p, Some(19.0));
    }

    #[test]
    fn median_of_odd_even_and_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), Some(2.5));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&xs), Some((2.75, 5.5, 8.25)));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[2.0, 1.0]), Some((0.75, 1.5, 2.25)));
        // statistics.quantiles([1, 2, 4, 8, 16], n=4) == [1.5, 4.0, 12.0]
        assert_eq!(
            quartiles(&[16.0, 1.0, 8.0, 2.0, 4.0]),
            Some((1.5, 4.0, 12.0))
        );
        assert_eq!(quartiles(&[1.0]), None);
        let f = iqr_frac(&xs).unwrap();
        assert!((f - 5.5 / 5.5).abs() < 1e-12);
    }

    #[test]
    fn failures_count_against_attempts_and_miss_every_limit() {
        let mut t = Tally::default();
        let mut lat = Latencies::default();
        for i in 0..100 {
            if i % 25 == 0 {
                t.record(Err("bits differ from solo".into()));
                lat.miss();
            } else {
                t.record(Ok(()));
                lat.hit(1.0);
            }
        }
        assert_eq!((t.attempted(), t.failed()), (100, 4));
        assert!((t.error_rate() - 0.04).abs() < 1e-12);
        assert_eq!(t.reasons().get("bits differ from solo"), Some(&4));
        // 4% of requests failed: the median is unaffected, but every
        // percentile above the 96th reads as a missed limit.
        assert_eq!(lat.samples().len(), 100);
        let tail: Vec<f64> = lat.samples().iter().copied().cycle().take(1000).collect();
        assert_eq!(percentile(&tail, 0.5), Some(1.0));
        assert_eq!(percentile(&tail, 0.99), Some(f64::INFINITY));
    }

    #[test]
    fn condemn_and_merge_keep_failed_within_attempted() {
        let mut a = Tally::default();
        a.record(Ok(()));
        a.record(Ok(()));
        a.condemn(5, "solo answer out of tolerance");
        assert_eq!((a.attempted(), a.failed()), (2, 2));
        let mut b = Tally::default();
        b.record(Err("typed error".into()));
        a.merge(&b);
        assert_eq!((a.attempted(), a.failed()), (3, 3));
        assert_eq!(a.reasons().len(), 2);
    }
}
