//! Online statistics for simulation output analysis.

/// Welford's online mean/variance accumulator.
///
/// # Examples
///
/// ```
/// use uavail_sim::stats::OnlineStats;
///
/// let mut s = OnlineStats::new();
/// for x in [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0] {
///     s.push(x);
/// }
/// assert_eq!(s.count(), 8);
/// assert!((s.mean() - 5.0).abs() < 1e-12);
/// assert!((s.sample_variance() - 32.0 / 7.0).abs() < 1e-12);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct OnlineStats {
    count: u64,
    mean: f64,
    m2: f64,
}

impl OnlineStats {
    /// Creates an empty accumulator.
    pub fn new() -> Self {
        OnlineStats::default()
    }

    /// Adds an observation.
    pub fn push(&mut self, x: f64) {
        self.count += 1;
        let delta = x - self.mean;
        self.mean += delta / self.count as f64;
        let delta2 = x - self.mean;
        self.m2 += delta * delta2;
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sample mean (0 when empty).
    pub fn mean(&self) -> f64 {
        self.mean
    }

    /// Sample variance (divides by `n - 1`; 0 when fewer than two points).
    pub fn sample_variance(&self) -> f64 {
        if self.count < 2 {
            0.0
        } else {
            self.m2 / (self.count - 1) as f64
        }
    }

    /// Standard error of the mean.
    pub fn standard_error(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            (self.sample_variance() / self.count as f64).sqrt()
        }
    }

    /// Normal-approximation confidence half-width at the given z quantile
    /// (e.g. 1.96 for 95%).
    pub fn confidence_half_width(&self, z: f64) -> f64 {
        z * self.standard_error()
    }

    /// Merges another accumulator into this one (parallel reduction).
    pub fn merge(&mut self, other: &OnlineStats) {
        if other.count == 0 {
            return;
        }
        if self.count == 0 {
            *self = *other;
            return;
        }
        let total = self.count + other.count;
        let delta = other.mean - self.mean;
        let new_mean = self.mean + delta * other.count as f64 / total as f64;
        self.m2 += other.m2 + delta * delta * self.count as f64 * other.count as f64 / total as f64;
        self.mean = new_mean;
        self.count = total;
    }
}

/// A binomial proportion with a Wilson-score confidence interval.
///
/// # Examples
///
/// ```
/// use uavail_sim::stats::Proportion;
///
/// let p = Proportion::new(90, 100);
/// assert!((p.estimate() - 0.9).abs() < 1e-12);
/// let (lo, hi) = p.confidence_interval(1.96);
/// assert!(lo < 0.9 && 0.9 < hi);
///
/// // Unlike the Wald interval, the Wilson interval stays informative in
/// // the rare-event regime: zero observed losses still yield an upper
/// // bound strictly above zero.
/// let rare = Proportion::new(0, 10_000);
/// let (lo, hi) = rare.confidence_interval(1.96);
/// assert_eq!(lo, 0.0);
/// assert!(hi > 0.0 && hi < 1e-3);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Proportion {
    successes: u64,
    trials: u64,
}

impl Proportion {
    /// Creates a proportion observation.
    ///
    /// # Panics
    ///
    /// Panics when `successes > trials`.
    pub fn new(successes: u64, trials: u64) -> Self {
        assert!(successes <= trials, "successes exceed trials");
        Proportion { successes, trials }
    }

    /// Number of successes.
    pub fn successes(&self) -> u64 {
        self.successes
    }

    /// Number of trials.
    pub fn trials(&self) -> u64 {
        self.trials
    }

    /// Point estimate (0 for zero trials).
    pub fn estimate(&self) -> f64 {
        if self.trials == 0 {
            0.0
        } else {
            self.successes as f64 / self.trials as f64
        }
    }

    /// Wilson score interval clamped to `[0, 1]`.
    ///
    /// The Wald interval `p ± z √(p(1−p)/n)` collapses to zero width at
    /// `p = 0` or `p = 1` — exactly the regime of rare-loss availability
    /// estimates, where it falsely reports certainty. The Wilson score
    /// interval inverts the normal test on the true proportion instead,
    /// so `0/n` successes still produce a strictly positive upper bound
    /// (≈ `z²/(n+z²)`) and `n/n` a lower bound strictly below one.
    pub fn confidence_interval(&self, z: f64) -> (f64, f64) {
        if self.trials == 0 {
            return (0.0, 1.0);
        }
        let n = self.trials as f64;
        let p = self.estimate();
        let z2 = z * z;
        let denom = 1.0 + z2 / n;
        let center = (p + z2 / (2.0 * n)) / denom;
        let half = (z / denom) * (p * (1.0 - p) / n + z2 / (4.0 * n * n)).sqrt();
        ((center - half).max(0.0), (center + half).min(1.0))
    }
}

/// Splits a series into `batches` near-equal batches and returns the
/// batch-mean statistics — the standard way to build confidence intervals
/// on autocorrelated simulation output.
///
/// Every observation contributes: when `len` is not divisible by
/// `batches`, the first `len % batches` batches take `⌈len/batches⌉`
/// observations and the rest `⌊len/batches⌋` (an earlier version silently
/// dropped the trailing `len % batches` points, biasing the interval when
/// the tail of a run differed from its body). The divisible case is
/// unchanged.
///
/// Returns `None` when there are fewer observations than batches.
///
/// # Examples
///
/// ```
/// use uavail_sim::stats::batch_means;
///
/// let data: Vec<f64> = (0..100).map(|i| i as f64).collect();
/// let stats = batch_means(&data, 10).unwrap();
/// assert_eq!(stats.count(), 10);
/// assert!((stats.mean() - 49.5).abs() < 1e-9);
/// ```
pub fn batch_means(series: &[f64], batches: usize) -> Option<OnlineStats> {
    if batches == 0 || series.len() < batches {
        return None;
    }
    let base = series.len() / batches;
    let remainder = series.len() % batches;
    let mut stats = OnlineStats::new();
    let mut start = 0;
    for b in 0..batches {
        let size = base + usize::from(b < remainder);
        let chunk = &series[start..start + size];
        start += size;
        let mean = chunk.iter().sum::<f64>() / chunk.len() as f64;
        stats.push(mean);
    }
    debug_assert_eq!(start, series.len(), "every observation is consumed");
    Some(stats)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn welford_against_two_pass() {
        let data = [1.5, 2.5, 3.5, -1.0, 0.0, 10.0];
        let mut s = OnlineStats::new();
        for &x in &data {
            s.push(x);
        }
        let mean: f64 = data.iter().sum::<f64>() / data.len() as f64;
        let var: f64 =
            data.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / (data.len() - 1) as f64;
        assert!((s.mean() - mean).abs() < 1e-12);
        assert!((s.sample_variance() - var).abs() < 1e-12);
    }

    #[test]
    fn merge_equals_single_pass() {
        let data: Vec<f64> = (0..100).map(|i| (i as f64).sin()).collect();
        let mut whole = OnlineStats::new();
        for &x in &data {
            whole.push(x);
        }
        let mut a = OnlineStats::new();
        let mut b = OnlineStats::new();
        for &x in &data[..37] {
            a.push(x);
        }
        for &x in &data[37..] {
            b.push(x);
        }
        a.merge(&b);
        assert_eq!(a.count(), whole.count());
        assert!((a.mean() - whole.mean()).abs() < 1e-12);
        assert!((a.sample_variance() - whole.sample_variance()).abs() < 1e-12);
    }

    #[test]
    fn merge_with_empty() {
        let mut a = OnlineStats::new();
        a.push(1.0);
        let before = a;
        a.merge(&OnlineStats::new());
        assert_eq!(a, before);
        let mut e = OnlineStats::new();
        e.merge(&a);
        assert_eq!(e, a);
    }

    #[test]
    fn empty_stats_are_zero() {
        let s = OnlineStats::new();
        assert_eq!(s.mean(), 0.0);
        assert_eq!(s.standard_error(), 0.0);
        assert_eq!(s.sample_variance(), 0.0);
    }

    #[test]
    fn proportion_interval_shrinks_with_trials() {
        let small = Proportion::new(9, 10).confidence_interval(1.96);
        let large = Proportion::new(9_000, 10_000).confidence_interval(1.96);
        assert!(large.1 - large.0 < small.1 - small.0);
    }

    #[test]
    fn proportion_degenerate() {
        assert_eq!(Proportion::new(0, 0).estimate(), 0.0);
        assert_eq!(Proportion::new(0, 0).confidence_interval(1.96), (0.0, 1.0));
    }

    #[test]
    fn wilson_interval_never_collapses_at_zero_successes() {
        // Regression: the Wald interval has zero width at p = 0 — the
        // rare-loss regime — falsely reporting certainty.
        for n in [1u64, 10, 100, 10_000, 1_000_000] {
            let (lo, hi) = Proportion::new(0, n).confidence_interval(1.96);
            assert_eq!(lo, 0.0, "n={n}");
            assert!(hi > 0.0, "n={n}: upper bound must stay positive");
            // Wilson upper bound at x = 0 is z²/(n + z²).
            let z2 = 1.96f64 * 1.96;
            let expected = z2 / (n as f64 + z2);
            assert!((hi - expected).abs() < 1e-12, "n={n}: {hi} vs {expected}");
        }
    }

    #[test]
    fn wilson_interval_never_collapses_at_all_successes() {
        for n in [1u64, 10, 100, 10_000, 1_000_000] {
            let (lo, hi) = Proportion::new(n, n).confidence_interval(1.96);
            // Algebraically the upper bound is exactly 1 at p = 1; allow
            // for floating-point roundoff just below it.
            assert!((1.0 - hi) < 1e-9 && hi <= 1.0, "n={n}: hi={hi}");
            assert!(lo < 1.0, "n={n}: lower bound must stay below one");
            let z2 = 1.96f64 * 1.96;
            let expected = n as f64 / (n as f64 + z2);
            assert!((lo - expected).abs() < 1e-12, "n={n}: {lo} vs {expected}");
        }
    }

    #[test]
    fn wilson_interval_contains_estimate_and_shrinks() {
        // For interior p the Wilson interval brackets the point estimate
        // and approaches the Wald interval as n grows.
        let p = Proportion::new(9_000, 10_000);
        let (lo, hi) = p.confidence_interval(1.96);
        assert!(lo < 0.9 && 0.9 < hi);
        let wald_half = 1.96 * (0.9f64 * 0.1 / 10_000.0).sqrt();
        assert!(((hi - lo) / 2.0 - wald_half).abs() < 1e-4);
    }

    #[test]
    #[should_panic(expected = "successes exceed trials")]
    fn proportion_validates() {
        let _ = Proportion::new(2, 1);
    }

    #[test]
    fn batch_means_bounds() {
        assert!(batch_means(&[1.0], 2).is_none());
        assert!(batch_means(&[1.0, 2.0], 0).is_none());
        let s = batch_means(&[1.0, 2.0, 3.0, 4.0], 2).unwrap();
        assert_eq!(s.count(), 2);
        assert!((s.mean() - 2.5).abs() < 1e-12);
    }

    #[test]
    fn batch_means_uses_every_observation() {
        // Regression: the old implementation dropped the trailing
        // len % batches points — here the only nonzero observation.
        let series = [0.0, 0.0, 0.0, 0.0, 1000.0];
        let stats = batch_means(&series, 2).unwrap();
        // Sizes 3 and 2: means 0 and 500; dropping the tail gave 0.
        assert_eq!(stats.count(), 2);
        assert!((stats.mean() - 250.0).abs() < 1e-12, "{}", stats.mean());
    }

    #[test]
    fn batch_means_size_weighted_total_is_exact() {
        // Batch sizes ⌈len/b⌉ and ⌊len/b⌋ partition the series, so the
        // size-weighted batch means recover the exact series sum.
        let series: Vec<f64> = (0..103).map(|i| (i as f64).sin() + 2.0).collect();
        let batches = 7;
        let base = series.len() / batches;
        let remainder = series.len() % batches;
        let stats = batch_means(&series, batches).unwrap();
        assert_eq!(stats.count(), batches as u64);
        let mut start = 0;
        let mut weighted = 0.0;
        for b in 0..batches {
            let size = base + usize::from(b < remainder);
            let chunk_mean = series[start..start + size].iter().sum::<f64>() / size as f64;
            weighted += chunk_mean * size as f64;
            start += size;
        }
        assert_eq!(start, series.len());
        let total: f64 = series.iter().sum();
        assert!((weighted - total).abs() < 1e-9);
    }

    #[test]
    fn batch_means_divisible_case_unchanged() {
        // When batches divides len the chunks are identical to the old
        // equal-size split.
        let series: Vec<f64> = (0..60).map(|i| (i as f64) * 0.5).collect();
        let stats = batch_means(&series, 6).unwrap();
        let mut expected = OnlineStats::new();
        for chunk in series.chunks(10) {
            expected.push(chunk.iter().sum::<f64>() / 10.0);
        }
        assert_eq!(stats, expected);
    }
}
