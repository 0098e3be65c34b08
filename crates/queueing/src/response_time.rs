//! Response-time distributions — the paper's future-work extension.
//!
//! The DSN 2003 paper's conclusion proposes extending the availability
//! measure "to include failures that occur when the response time exceeds
//! an acceptable threshold". This module supplies the required analytics:
//! the exact FCFS response-time tail `P(T > t)` for M/M/c/K queues.
//!
//! For an accepted arrival that finds `n` customers in an M/M/c/K system
//! (PASTA, conditioned on acceptance):
//!
//! * `n < c`: service starts immediately, `T ~ Exp(ν)`;
//! * `n ≥ c`: the customer waits for `n − c + 1` departures, each at rate
//!   `c·ν` (all servers busy while it waits), then is served:
//!   `T ~ Erlang(n − c + 1, c·ν) + Exp(ν)`.
//!
//! The Erlang + Exp convolution has the closed form (for `a > b`):
//! `P(E_k(a) + Exp(b) > t) = P(E_k(a) > t) + e^{-bt} (a/(a−b))^k F_{E_k(a−b)}(t)`,
//! which is numerically stable for every parameter this crate accepts.

use crate::{powu, MMcK, MM1K};

/// Tail of the Erlang(`k`, `rate`) distribution:
/// `P(X > t) = e^{-rt} Σ_{j<k} (rt)^j / j!`.
///
/// Returns 1.0 for `t <= 0` and handles `k = 0` as a point mass at zero.
///
/// # Examples
///
/// ```
/// use uavail_queueing::response_time::erlang_tail;
///
/// // Erlang(1, r) is Exp(r).
/// let t = erlang_tail(1, 2.0, 0.5);
/// assert!((t - (-1.0f64).exp()).abs() < 1e-12);
/// ```
pub fn erlang_tail(k: usize, rate: f64, t: f64) -> f64 {
    if t <= 0.0 {
        return if k == 0 { 0.0 } else { 1.0 };
    }
    if k == 0 {
        return 0.0;
    }
    let rt = rate * t;
    let mut term = 1.0f64; // (rt)^0 / 0!
    let mut sum = 1.0f64;
    for j in 1..k {
        term *= rt / j as f64;
        sum += term;
    }
    ((-rt).exp() * sum).clamp(0.0, 1.0)
}

/// CDF of the Erlang(`k`, `rate`) distribution.
pub fn erlang_cdf(k: usize, rate: f64, t: f64) -> f64 {
    1.0 - erlang_tail(k, rate, t)
}

/// Tail of `Erlang(k, a) + Exp(b)` for independent summands.
///
/// Requires `a > 0`, `b > 0`. Handles the `a == b` case exactly
/// (the sum is then Erlang(k + 1, a)).
///
/// # Panics
///
/// Panics (debug) when a rate is not strictly positive.
pub fn erlang_plus_exp_tail(k: usize, a: f64, b: f64, t: f64) -> f64 {
    debug_assert!(a > 0.0 && b > 0.0, "rates must be positive");
    if t <= 0.0 {
        return 1.0;
    }
    if k == 0 {
        return (-b * t).exp();
    }
    if (a - b).abs() < 1e-12 * a.max(b) {
        return erlang_tail(k + 1, a, t);
    }
    if a > b {
        let ratio = powu(a / (a - b), k);
        (erlang_tail(k, a, t) + (-b * t).exp() * ratio * erlang_cdf(k, a - b, t)).clamp(0.0, 1.0)
    } else {
        // Symmetric form with the roles swapped: X + Y is symmetric.
        // P(E_k(a) + Exp(b) > t) with b > a: condition on the Exp instead.
        // Use the general partial-fraction form:
        // P(sum > t) = P(E_k(a) > t)
        //            + e^{-bt} * (a/(a-b))^k * [F_{E_k}(a-b)](t) fails for
        // a < b because a-b < 0; instead integrate the other way:
        // P = e^{-bt} * (a/(a-b))^k * ... — derive numerically by series:
        numeric_convolution_tail(k, a, b, t)
    }
}

/// Numerically integrates `P(E_k(a) + Exp(b) > t)` by adaptive Simpson on
/// the convolution integral — only used for the `b > a` corner that the
/// closed form does not cover (it cannot occur for M/M/c/K with `c ≥ 2`,
/// where `a = cν > ν = b`).
fn numeric_convolution_tail(k: usize, a: f64, b: f64, t: f64) -> f64 {
    // P(sum > t) = P(E > t) + ∫_0^t f_E(u) e^{-b(t-u)} du.
    let f = |u: f64| -> f64 {
        // Erlang(k, a) density at u, computed in log space. At u = 0 the
        // density is `a` for k = 1 and 0 for k >= 2.
        if u <= 0.0 {
            return if k == 1 { a * (-b * t).exp() } else { 0.0 };
        }
        let mut log_f = k as f64 * a.ln() + (k as f64 - 1.0) * u.ln() - a * u;
        for j in 2..k {
            log_f -= (j as f64).ln();
        }
        log_f.exp() * (-b * (t - u)).exp()
    };
    // Composite Simpson with enough panels for smooth integrands.
    let n = 2000;
    let h = t / n as f64;
    let mut integral = f(0.0) + f(t);
    for i in 1..n {
        let u = i as f64 * h;
        integral += if i % 2 == 1 { 4.0 } else { 2.0 } * f(u);
    }
    integral *= h / 3.0;
    (erlang_tail(k, a, t) + integral).clamp(0.0, 1.0)
}

impl MMcK {
    /// FCFS response-time tail `P(T > t)` for an *accepted* customer.
    ///
    /// Combines the PASTA arrival distribution conditioned on acceptance
    /// with the per-state Erlang waiting analysis described in the
    /// [module documentation](self).
    ///
    /// # Examples
    ///
    /// ```
    /// use uavail_queueing::MMcK;
    ///
    /// # fn main() -> Result<(), uavail_queueing::QueueingError> {
    /// let q = MMcK::new(100.0, 100.0, 4, 10)?;
    /// let p = q.response_time_exceeds(0.05);
    /// assert!(p > 0.0 && p < 1.0);
    /// // Tail is monotone decreasing in t.
    /// assert!(q.response_time_exceeds(0.10) < p);
    /// # Ok(())
    /// # }
    /// ```
    pub fn response_time_exceeds(&self, t: f64) -> f64 {
        if t <= 0.0 {
            return 1.0;
        }
        let c = self.servers();
        let k_cap = self.capacity();
        let nu = self.service_rate();
        let dist = self.state_distribution();
        let p_block = dist[k_cap];
        let accept = 1.0 - p_block;
        if accept <= 0.0 {
            return 0.0; // no accepted customers at all
        }
        let mut tail = 0.0;
        for (n, &p_n) in dist.iter().enumerate().take(k_cap) {
            let q_n = p_n / accept;
            let contribution = if n < c {
                (-nu * t).exp()
            } else {
                // Wait for n - c + 1 departures at rate c·ν, then service.
                erlang_plus_exp_tail(n - c + 1, c as f64 * nu, nu, t)
            };
            tail += q_n * contribution;
        }
        tail.clamp(0.0, 1.0)
    }

    /// Probability that an offered request is *not served within `t`* —
    /// lost to a full buffer **or** accepted but slower than the deadline.
    /// This is the per-state quantity of the paper's future-work measure.
    pub fn deadline_miss_probability(&self, t: f64) -> f64 {
        let p_block = self.loss_probability();
        p_block + (1.0 - p_block) * self.response_time_exceeds(t)
    }

    /// The `p`-quantile of the FCFS response time of accepted customers:
    /// the smallest `t` with `P(T ≤ t) ≥ p`, found by bisection on the
    /// exact tail.
    ///
    /// # Panics
    ///
    /// Panics if `p` is not strictly inside `(0, 1)`.
    ///
    /// # Examples
    ///
    /// ```
    /// use uavail_queueing::MMcK;
    ///
    /// # fn main() -> Result<(), uavail_queueing::QueueingError> {
    /// let q = MMcK::new(100.0, 100.0, 4, 10)?;
    /// let p95 = q.response_time_quantile(0.95);
    /// assert!(q.response_time_exceeds(p95) <= 0.05 + 1e-9);
    /// # Ok(())
    /// # }
    /// ```
    pub fn response_time_quantile(&self, p: f64) -> f64 {
        assert!(
            p > 0.0 && p < 1.0,
            "quantile level must be strictly inside (0, 1)"
        );
        let target_tail = 1.0 - p;
        // Bracket: upper bound grows until the tail drops below target.
        let mut hi = 1.0 / self.service_rate();
        while self.response_time_exceeds(hi) > target_tail {
            hi *= 2.0;
            if hi > 1e12 {
                return f64::INFINITY;
            }
        }
        let mut lo = 0.0;
        for _ in 0..200 {
            let mid = 0.5 * (lo + hi);
            if self.response_time_exceeds(mid) > target_tail {
                lo = mid;
            } else {
                hi = mid;
            }
            if hi - lo < 1e-12 * hi.max(1.0) {
                break;
            }
        }
        hi
    }

    /// Mean response time of accepted customers, derived from the exact
    /// state analysis (cross-checks Little's-law value).
    pub fn mean_response_time_exact(&self) -> f64 {
        let c = self.servers();
        let k_cap = self.capacity();
        let nu = self.service_rate();
        let dist = self.state_distribution();
        let accept = 1.0 - dist[k_cap];
        let mut mean = 0.0;
        for (n, &p_n) in dist.iter().enumerate().take(k_cap) {
            let q_n = p_n / accept;
            let wait = if n < c {
                0.0
            } else {
                (n - c + 1) as f64 / (c as f64 * nu)
            };
            mean += q_n * (wait + 1.0 / nu);
        }
        mean
    }
}

impl MM1K {
    /// FCFS response-time tail `P(T > t)` for an accepted customer: with
    /// `n` customers found, `T ~ Erlang(n + 1, ν)`.
    ///
    /// # Examples
    ///
    /// ```
    /// use uavail_queueing::MM1K;
    ///
    /// # fn main() -> Result<(), uavail_queueing::QueueingError> {
    /// let q = MM1K::new(50.0, 100.0, 10)?;
    /// assert!(q.response_time_exceeds(0.0) == 1.0);
    /// assert!(q.response_time_exceeds(1.0) < 1e-12);
    /// # Ok(())
    /// # }
    /// ```
    pub fn response_time_exceeds(&self, t: f64) -> f64 {
        if t <= 0.0 {
            return 1.0;
        }
        let k_cap = self.capacity();
        let nu = self.service_rate();
        let dist = self.state_distribution();
        let accept = 1.0 - dist[k_cap];
        if accept <= 0.0 {
            return 0.0;
        }
        let mut tail = 0.0;
        for (n, &p_n) in dist.iter().enumerate().take(k_cap) {
            tail += p_n / accept * erlang_tail(n + 1, nu, t);
        }
        tail.clamp(0.0, 1.0)
    }

    /// Deadline-miss probability: blocked or slower than `t`.
    pub fn deadline_miss_probability(&self, t: f64) -> f64 {
        let p_block = self.loss_probability();
        p_block + (1.0 - p_block) * self.response_time_exceeds(t)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::MM1;

    #[test]
    fn erlang_tail_base_cases() {
        assert_eq!(erlang_tail(3, 1.0, 0.0), 1.0);
        assert_eq!(erlang_tail(0, 1.0, 1.0), 0.0);
        // Erlang(1) = Exp.
        assert!((erlang_tail(1, 3.0, 0.5) - (-1.5f64).exp()).abs() < 1e-14);
        // CDF complement.
        assert!((erlang_cdf(4, 2.0, 1.0) + erlang_tail(4, 2.0, 1.0) - 1.0).abs() < 1e-14);
    }

    #[test]
    fn erlang_tail_mean_consistency() {
        // Numerically integrate the tail: ∫ P(X > t) dt = k / rate.
        let (k, rate) = (4usize, 2.0f64);
        let dt = 1e-3;
        let mut integral = 0.0;
        let mut t = 0.0;
        while t < 40.0 {
            integral += erlang_tail(k, rate, t) * dt;
            t += dt;
        }
        assert!((integral - 2.0).abs() < 1e-2, "{integral}");
    }

    #[test]
    fn erlang_plus_exp_equal_rates_is_erlang() {
        let tail = erlang_plus_exp_tail(2, 3.0, 3.0, 0.7);
        assert!((tail - erlang_tail(3, 3.0, 0.7)).abs() < 1e-12);
    }

    #[test]
    fn erlang_plus_exp_closed_form_vs_numeric() {
        // a > b branch vs brute-force Simpson: must agree.
        for &(k, a, b, t) in &[
            (1usize, 4.0, 1.0, 0.5),
            (3, 5.0, 2.0, 1.0),
            (5, 10.0, 3.0, 0.3),
        ] {
            let closed = erlang_plus_exp_tail(k, a, b, t);
            let numeric = super::numeric_convolution_tail(k, a, b, t);
            assert!(
                (closed - numeric).abs() < 1e-6,
                "k={k} a={a} b={b}: {closed} vs {numeric}"
            );
        }
    }

    #[test]
    fn mm1k_response_tail_is_monotone_and_bounded() {
        let q = MM1K::new(80.0, 100.0, 10).unwrap();
        let mut prev = 1.0;
        for i in 0..20 {
            let t = i as f64 * 0.01;
            let tail = q.response_time_exceeds(t);
            assert!((0.0..=1.0).contains(&tail));
            assert!(tail <= prev + 1e-12);
            prev = tail;
        }
    }

    #[test]
    fn mm1k_tail_approaches_mm1_for_large_buffer() {
        // For rho < 1, K large: P(T > t) -> e^{-(nu - alpha) t}.
        let q = MM1K::new(50.0, 100.0, 400).unwrap();
        let reference = MM1::new(50.0, 100.0).unwrap();
        for &t in &[0.01, 0.02, 0.05] {
            let a = q.response_time_exceeds(t);
            let b = reference.response_time_exceeds(t).unwrap();
            assert!((a - b).abs() < 1e-9, "t={t}: {a} vs {b}");
        }
    }

    #[test]
    fn mmck_single_server_matches_mm1k() {
        let a = MMcK::new(70.0, 100.0, 1, 8).unwrap();
        let b = MM1K::new(70.0, 100.0, 8).unwrap();
        for &t in &[0.005, 0.02, 0.08] {
            assert!(
                (a.response_time_exceeds(t) - b.response_time_exceeds(t)).abs() < 1e-12,
                "t={t}"
            );
        }
    }

    #[test]
    fn mmck_exact_mean_matches_littles_law() {
        let q = MMcK::new(100.0, 100.0, 4, 10).unwrap();
        let exact = q.mean_response_time_exact();
        let little = q.mean_response_time();
        assert!(
            (exact - little).abs() / little < 1e-10,
            "{exact} vs {little}"
        );
    }

    #[test]
    fn deadline_miss_decomposition() {
        let q = MMcK::new(100.0, 100.0, 2, 6).unwrap();
        let t = 0.05;
        let miss = q.deadline_miss_probability(t);
        assert!(miss >= q.loss_probability());
        assert!(miss <= 1.0);
        // At t = 0 every request "misses".
        assert!((q.deadline_miss_probability(0.0) - 1.0).abs() < 1e-12);
        // For huge t only blocking remains.
        assert!((q.deadline_miss_probability(1e6) - q.loss_probability()).abs() < 1e-12);
    }

    #[test]
    fn quantile_inverts_tail() {
        let q = MMcK::new(100.0, 100.0, 4, 10).unwrap();
        for &p in &[0.5, 0.9, 0.99] {
            let t = q.response_time_quantile(p);
            // At the quantile, the tail equals 1 - p (continuity).
            assert!(
                (q.response_time_exceeds(t) - (1.0 - p)).abs() < 1e-9,
                "p = {p}"
            );
        }
        // Quantiles are increasing in p.
        assert!(q.response_time_quantile(0.99) > q.response_time_quantile(0.5));
    }

    #[test]
    #[should_panic(expected = "quantile level")]
    fn quantile_validates_level() {
        let q = MMcK::new(50.0, 100.0, 1, 5).unwrap();
        let _ = q.response_time_quantile(1.0);
    }

    #[test]
    fn more_servers_faster_responses() {
        let t = 0.02;
        let mut prev = 1.0;
        for c in 1..=5 {
            let q = MMcK::new(100.0, 100.0, c, 12).unwrap();
            let tail = q.response_time_exceeds(t);
            assert!(tail < prev, "c={c}: {tail} !< {prev}");
            prev = tail;
        }
    }
}
