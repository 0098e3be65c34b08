//! Sampling helpers for event-driven simulation.
//!
//! Two tiers coexist here. The original helpers ([`exponential`],
//! [`bernoulli`], [`weighted_index`]) are the simple O(n) reference
//! samplers whose seeded streams are pinned by regression tests. The
//! production-throughput tier added for high-volume replication keeps the
//! same distributions but removes the per-draw linear work:
//! [`AliasTable`] — Walker/Vose O(1) discrete sampling over a weight
//! vector, with a reusable [`AliasWorkspace`] so rebuilding a table for
//! new weights never reallocates once capacity is warm.

use rand::Rng;

/// Samples an exponential inter-event time with the given rate using
/// inversion: `-ln(1 - U) / rate`.
///
/// # Panics
///
/// Panics (via `debug_assert!`) when `rate` is not strictly positive in
/// debug builds; callers validate rates at model construction time.
///
/// # Examples
///
/// ```
/// use rand::rngs::StdRng;
/// use rand::SeedableRng;
///
/// let mut rng = StdRng::seed_from_u64(3);
/// let sum: f64 = (0..10_000)
///     .map(|_| uavail_sim::rng::exponential(&mut rng, 2.0))
///     .sum();
/// // Mean should be 1/2.
/// assert!((sum / 10_000.0 - 0.5).abs() < 0.05);
/// ```
pub fn exponential<R: Rng + ?Sized>(rng: &mut R, rate: f64) -> f64 {
    debug_assert!(rate > 0.0, "exponential rate must be positive");
    let u: f64 = rng.random();
    // 1 - u in (0, 1]: ln never sees zero. But u == 0.0 maps to -0.0/rate,
    // and a zero inter-event time creates simultaneous events (ties) in a
    // DES future-event list; clamp that single lattice point to the
    // smallest positive draw. Every u > 0 returns the same value as before.
    let t = -(1.0 - u).ln() / rate;
    if t > 0.0 {
        t
    } else {
        f64::MIN_POSITIVE
    }
}

/// Bernoulli draw with success probability `p`.
///
/// # Examples
///
/// ```
/// use rand::rngs::StdRng;
/// use rand::SeedableRng;
///
/// let mut rng = StdRng::seed_from_u64(3);
/// let hits = (0..10_000)
///     .filter(|_| uavail_sim::rng::bernoulli(&mut rng, 0.25))
///     .count();
/// assert!((hits as f64 / 10_000.0 - 0.25).abs() < 0.02);
/// ```
pub fn bernoulli<R: Rng + ?Sized>(rng: &mut R, p: f64) -> bool {
    debug_assert!((0.0..=1.0).contains(&p), "probability must be in [0, 1]");
    rng.random::<f64>() < p
}

/// Picks an index from a slice of non-negative weights, proportionally.
/// Returns `None` when all weights are zero or when any weight is
/// non-finite (a NaN weight would otherwise poison the running total and
/// silently degrade the draw to the last positive index).
///
/// # Examples
///
/// ```
/// use rand::rngs::StdRng;
/// use rand::SeedableRng;
///
/// let mut rng = StdRng::seed_from_u64(3);
/// let idx = uavail_sim::rng::weighted_index(&mut rng, &[0.0, 1.0, 0.0]);
/// assert_eq!(idx, Some(1));
/// ```
pub fn weighted_index<R: Rng + ?Sized>(rng: &mut R, weights: &[f64]) -> Option<usize> {
    let total: f64 = weights.iter().sum();
    // A NaN weight makes the total NaN (every comparison below false) and
    // an infinite weight breaks the subtraction scan; both are caller bugs,
    // reported as "no valid index" rather than a silently biased draw. The
    // check runs before any draw, so seeded streams of valid callers are
    // untouched.
    if !total.is_finite() || total <= 0.0 {
        return None;
    }
    let mut u: f64 = rng.random::<f64>() * total;
    for (i, &w) in weights.iter().enumerate() {
        if u < w {
            return Some(i);
        }
        u -= w;
    }
    // Numerical slack: return the last positive-weight index.
    weights.iter().rposition(|&w| w > 0.0)
}

/// Builds Walker/Vose alias rows into caller-provided storage.
///
/// `prob` and `alias` must be exactly `weights.len()` long; `small` and
/// `large` are worklist scratch of at least that length. On success the
/// acceptance thresholds land in `prob`, the alias targets in `alias`, and
/// the weight total is returned. Returns `None` — leaving the output
/// unspecified — exactly when [`weighted_index`] would: any non-finite
/// weight, or a non-positive total (plus, stricter than the scan, any
/// negative weight, which the scan merely documents away).
///
/// This is the shared non-allocating core: [`AliasTable`] drives it with
/// `Vec` storage, the farm's epoch kernel with slices of its flat
/// end-state tables.
pub fn build_alias_into(
    weights: &[f64],
    prob: &mut [f64],
    alias: &mut [u32],
    small: &mut [u32],
    large: &mut [u32],
) -> Option<f64> {
    let n = weights.len();
    assert!(
        prob.len() == n && alias.len() == n,
        "alias output storage must match the weight count"
    );
    assert!(
        small.len() >= n && large.len() >= n,
        "alias worklists must hold every column"
    );
    if n == 0 {
        return None;
    }
    let mut total = 0.0;
    for &w in weights {
        if !w.is_finite() || w < 0.0 {
            return None;
        }
        total += w;
    }
    if !total.is_finite() || total <= 0.0 {
        return None;
    }
    // Scale so the average column mass is exactly 1, then pair each
    // under-full column with an over-full donor (Vose's method). The
    // scaled masses live in `prob` and are overwritten in place by the
    // final acceptance thresholds.
    let scale = n as f64 / total;
    let (mut ns, mut nl) = (0usize, 0usize);
    for (i, &w) in weights.iter().enumerate() {
        let p = w * scale;
        prob[i] = p;
        if p < 1.0 {
            small[ns] = i as u32;
            ns += 1;
        } else {
            large[nl] = i as u32;
            nl += 1;
        }
    }
    while ns > 0 && nl > 0 {
        ns -= 1;
        let l = small[ns] as usize;
        let g = large[nl - 1];
        alias[l] = g;
        // The donor keeps whatever mass the under-full column left over.
        let residual = (prob[g as usize] + prob[l]) - 1.0;
        prob[g as usize] = residual;
        if residual < 1.0 {
            nl -= 1;
            small[ns] = g;
            ns += 1;
        }
    }
    // Leftovers on either list carry mass 1 up to rounding: full columns.
    while nl > 0 {
        nl -= 1;
        let g = large[nl] as usize;
        prob[g] = 1.0;
        alias[g] = g as u32;
    }
    while ns > 0 {
        ns -= 1;
        let l = small[ns] as usize;
        prob[l] = 1.0;
        alias[l] = l as u32;
    }
    Some(total)
}

/// Draws an index from prebuilt alias rows (see [`build_alias_into`]).
///
/// Consumes exactly one `f64` draw — the same RNG budget as one
/// [`weighted_index`] call — split into a column pick and a fractional
/// accept/alias test, so a draw costs O(1) regardless of the weight count.
#[inline]
pub fn alias_sample<R: Rng + ?Sized>(rng: &mut R, prob: &[f64], alias: &[u32]) -> usize {
    let n = prob.len();
    debug_assert!(n > 0 && alias.len() == n);
    let scaled = rng.random::<f64>() * n as f64;
    let mut i = scaled as usize;
    if i >= n {
        // u < 1 guarantees scaled < n mathematically; guard the rounding
        // edge where scaled == n after the multiply.
        i = n - 1;
    }
    if scaled - (i as f64) < prob[i] {
        i
    } else {
        alias[i] as usize
    }
}

/// Reusable worklists for [`AliasTable`] construction: rebuilding a table
/// through the same workspace performs no allocation once the workspace
/// has seen the largest weight count.
#[derive(Debug, Clone, Default)]
pub struct AliasWorkspace {
    small: Vec<u32>,
    large: Vec<u32>,
}

/// Walker/Vose alias table: O(1) sampling from a discrete distribution
/// given by non-negative weights.
///
/// Construction is O(n); each draw then costs one RNG draw, one table
/// lookup, and one compare — independent of the number of outcomes,
/// replacing the O(n) subtraction scan of [`weighted_index`].
///
/// # Examples
///
/// ```
/// use rand::rngs::StdRng;
/// use rand::SeedableRng;
/// use uavail_sim::rng::AliasTable;
///
/// let table = AliasTable::new(&[1.0, 3.0]).unwrap();
/// let mut rng = StdRng::seed_from_u64(3);
/// let ones = (0..10_000).filter(|_| table.sample(&mut rng) == 1).count();
/// assert!((ones as f64 / 10_000.0 - 0.75).abs() < 0.02);
/// ```
#[derive(Debug, Clone)]
pub struct AliasTable {
    prob: Vec<f64>,
    alias: Vec<u32>,
    total: f64,
}

impl AliasTable {
    /// Builds a table for `weights`. Returns `None` for the same inputs
    /// [`weighted_index`] rejects: an empty or all-zero weight vector, or
    /// any non-finite weight (and, additionally, any negative weight).
    pub fn new(weights: &[f64]) -> Option<Self> {
        let mut table = AliasTable {
            prob: Vec::new(),
            alias: Vec::new(),
            total: 0.0,
        };
        table
            .rebuild(weights, &mut AliasWorkspace::default())
            .then_some(table)
    }

    /// Rebuilds the table in place for new `weights`, reusing both the
    /// table's own storage and the workspace worklists — the incremental
    /// path for callers whose weights change mid-replication. Returns
    /// `false` (leaving the table contents unspecified and `total` at 0)
    /// when the weights are rejected; see [`AliasTable::new`].
    pub fn rebuild(&mut self, weights: &[f64], workspace: &mut AliasWorkspace) -> bool {
        let n = weights.len();
        self.prob.resize(n, 0.0);
        self.alias.resize(n, 0);
        workspace.small.resize(n, 0);
        workspace.large.resize(n, 0);
        match build_alias_into(
            weights,
            &mut self.prob,
            &mut self.alias,
            &mut workspace.small,
            &mut workspace.large,
        ) {
            Some(total) => {
                self.total = total;
                true
            }
            None => {
                self.total = 0.0;
                false
            }
        }
    }

    /// Number of outcomes.
    pub fn len(&self) -> usize {
        self.prob.len()
    }

    /// Whether the table has no outcomes (only via `rebuild` misuse).
    pub fn is_empty(&self) -> bool {
        self.prob.is_empty()
    }

    /// Sum of the weights the table was built from.
    pub fn total(&self) -> f64 {
        self.total
    }

    /// Draws an outcome index. O(1); consumes one `f64` draw.
    #[inline]
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> usize {
        alias_sample(rng, &self.prob, &self.alias)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn exponential_mean_and_positivity() {
        let mut rng = StdRng::seed_from_u64(99);
        let n = 100_000;
        let samples: Vec<f64> = (0..n).map(|_| exponential(&mut rng, 4.0)).collect();
        assert!(samples.iter().all(|&x| x >= 0.0));
        let mean = samples.iter().sum::<f64>() / n as f64;
        assert!((mean - 0.25).abs() < 0.01, "mean {mean}");
    }

    #[test]
    fn exponential_memoryless_quartiles() {
        let mut rng = StdRng::seed_from_u64(5);
        let n = 100_000;
        let median_count = (0..n)
            .filter(|_| exponential(&mut rng, 1.0) < std::f64::consts::LN_2)
            .count();
        assert!((median_count as f64 / n as f64 - 0.5).abs() < 0.01);
    }

    #[test]
    fn weighted_index_distribution() {
        let mut rng = StdRng::seed_from_u64(11);
        let weights = [1.0, 3.0];
        let n = 100_000;
        let ones = (0..n)
            .filter(|_| weighted_index(&mut rng, &weights) == Some(1))
            .count();
        assert!((ones as f64 / n as f64 - 0.75).abs() < 0.01);
    }

    #[test]
    fn weighted_index_degenerate() {
        let mut rng = StdRng::seed_from_u64(1);
        assert_eq!(weighted_index(&mut rng, &[0.0, 0.0]), None);
        assert_eq!(weighted_index(&mut rng, &[]), None);
    }

    /// Forces the `u == 0.0` lattice point: `next_u64() == 0` maps to the
    /// float draw 0.0 under the shim's 53-bit construction.
    struct ZeroRng;

    impl rand::RngCore for ZeroRng {
        fn next_u64(&mut self) -> u64 {
            0
        }
    }

    #[test]
    fn exponential_never_returns_zero() {
        let t = exponential(&mut ZeroRng, 4.0);
        assert!(t > 0.0, "u == 0.0 must not produce a zero inter-event time");
        assert_eq!(t, f64::MIN_POSITIVE);
        // Large rates cannot underflow the clamp back to zero either.
        assert!(exponential(&mut ZeroRng, 1e300) > 0.0);
    }

    #[test]
    fn weighted_index_rejects_non_finite_weights() {
        let mut rng = StdRng::seed_from_u64(17);
        // NaN poisons the total: must refuse, not pick the last positive.
        assert_eq!(weighted_index(&mut rng, &[1.0, f64::NAN, 3.0]), None);
        assert_eq!(weighted_index(&mut rng, &[f64::INFINITY, 1.0]), None);
        assert_eq!(
            weighted_index(&mut rng, &[f64::INFINITY, f64::NEG_INFINITY]),
            None
        );
    }

    /// The fixes only touch invalid inputs, so existing seeded streams
    /// must replay bit-for-bit. Pinned against the pre-fix sampler
    /// (`-ln(1 - u) / rate` and the plain subtraction scan).
    #[test]
    fn seeded_streams_unchanged_by_fixes() {
        let mut fixed = StdRng::seed_from_u64(42);
        let mut reference = StdRng::seed_from_u64(42);
        for _ in 0..10_000 {
            let got = exponential(&mut fixed, 3.0);
            let u: f64 = reference.random();
            let want = -(1.0 - u).ln() / 3.0;
            assert_eq!(got.to_bits(), want.to_bits());
        }
        let weights = [0.5, 1.5, 2.0];
        for _ in 0..10_000 {
            let got = weighted_index(&mut fixed, &weights);
            let mut u: f64 = reference.random::<f64>() * 4.0;
            let mut want = None;
            for (i, &w) in weights.iter().enumerate() {
                if u < w {
                    want = Some(i);
                    break;
                }
                u -= w;
            }
            assert_eq!(got, want.or(Some(2)));
        }
    }

    #[test]
    fn alias_table_matches_exact_probabilities() {
        let weights = [0.5, 0.0, 3.5, 1.0, 0.0, 5.0];
        let total: f64 = weights.iter().sum();
        let table = AliasTable::new(&weights).unwrap();
        assert_eq!(table.len(), weights.len());
        assert_eq!(table.total(), total);
        let mut rng = StdRng::seed_from_u64(12);
        let n = 400_000usize;
        let mut counts = [0u64; 6];
        for _ in 0..n {
            counts[table.sample(&mut rng)] += 1;
        }
        for (i, &w) in weights.iter().enumerate() {
            let p = w / total;
            let got = counts[i] as f64 / n as f64;
            let slack = 4.0 * (p * (1.0 - p) / n as f64).sqrt() + 1e-12;
            assert!((got - p).abs() <= slack, "index {i}: {got} vs {p}");
        }
        // Zero-weight outcomes are never drawn.
        assert_eq!(counts[1], 0);
        assert_eq!(counts[4], 0);
    }

    #[test]
    fn alias_table_rejects_what_weighted_index_rejects() {
        let cases: [&[f64]; 6] = [
            &[],
            &[0.0, 0.0],
            &[1.0, f64::NAN, 3.0],
            &[f64::INFINITY, 1.0],
            &[f64::INFINITY, f64::NEG_INFINITY],
            &[-1.0, 2.0],
        ];
        let mut rng = StdRng::seed_from_u64(4);
        for weights in cases {
            let scan = weighted_index(&mut rng, weights);
            let table = AliasTable::new(weights);
            // The scan accepts negative weights only by documentation;
            // every class it rejects, the table rejects too.
            if scan.is_none() {
                assert!(table.is_none(), "{weights:?}");
            }
        }
        assert!(AliasTable::new(&[-1.0, 2.0]).is_none());
    }

    #[test]
    fn alias_rebuild_reuses_storage_and_matches_fresh_build() {
        let mut workspace = AliasWorkspace::default();
        let mut table = AliasTable::new(&[1.0; 8]).unwrap();
        let weights = [2.0, 0.0, 1.0, 5.0, 0.5, 0.25, 3.25, 1.0];
        assert!(table.rebuild(&weights, &mut workspace));
        let fresh = AliasTable::new(&weights).unwrap();
        assert_eq!(table.prob, fresh.prob);
        assert_eq!(table.alias, fresh.alias);
        assert_eq!(table.total, fresh.total);
        // A failed rebuild reports cleanly and can be rebuilt again.
        assert!(!table.rebuild(&[0.0, 0.0], &mut workspace));
        assert_eq!(table.total(), 0.0);
        assert!(table.rebuild(&weights, &mut workspace));
        assert_eq!(table.prob, fresh.prob);
    }

    #[test]
    fn alias_single_outcome_is_degenerate() {
        let table = AliasTable::new(&[3.0]).unwrap();
        let mut rng = StdRng::seed_from_u64(1);
        for _ in 0..100 {
            assert_eq!(table.sample(&mut rng), 0);
        }
    }
}
