use crate::{check_rate, QueueingError};

/// The M/M/c/K queue — equation (3) of the paper.
///
/// Poisson arrivals at rate `α`, `c` identical exponential servers each at
/// rate `ν`, and at most `K` customers in the system (in service plus
/// waiting). The paper uses this model for the redundant web-server farm:
/// when `i` of the `N_W` servers are operational, request losses follow
/// an M/M/i/K queue and `p_K(i)` is its blocking probability.
///
/// Requires `K ≥ c` (every server must be usable).
///
/// # Examples
///
/// ```
/// use uavail_queueing::MMcK;
///
/// # fn main() -> Result<(), uavail_queueing::QueueingError> {
/// // Four operational servers, full offered load, buffer 10 (paper Table 7).
/// let q = MMcK::new(100.0, 100.0, 4, 10)?;
/// let p = q.loss_probability();
/// assert!(p > 3.0e-6 && p < 4.0e-6);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct MMcK {
    arrival_rate: f64,
    service_rate: f64,
    servers: usize,
    capacity: usize,
    /// Steady-state distribution `p_0 ..= p_K`, computed once at
    /// construction; every derived metric below reads from it.
    distribution: Vec<f64>,
    loss: f64,
    wait: f64,
    wait_accepted: f64,
    mean_customers: f64,
}

/// Unnormalized term above which [`fill_distribution`] rescales: 2^512.
const RESCALE_ABOVE: f64 = f64::from_bits((1023 + 512) << 52);
/// Exact power-of-two factor [`fill_distribution`] rescales by: 2^-512.
const RESCALE_BY: f64 = f64::from_bits((1023 - 512) << 52);

/// Fills `out` with the steady-state distribution `p_0 ..= p_K` by the
/// birth–death recurrence `p_{n+1} = p_n · a / min(n + 1, c)` on
/// unnormalized terms, normalized once at the end.
///
/// The terms grow like `(a/c)^n`, which overflows for large `K` under
/// overload (`a = 10`, `c = 1` at `K = 309`). Whenever the running term
/// passes 2^512, it and every stored term are multiplied by 2^-512. A
/// power-of-two scaling of normal numbers is exact, and a recurrence
/// that stays finite without it rescales at most once and produces no
/// subnormals, so its result keeps the same bits.
fn fill_distribution(offered_load: f64, servers: usize, capacity: usize, out: &mut Vec<f64>) {
    let a = offered_load;
    let c = servers;
    let k = capacity;
    out.clear();
    out.reserve(k + 1);
    let mut w = 1.0f64;
    let mut max = 1.0f64;
    out.push(w);
    for n in 0..k {
        let effective_servers = (n + 1).min(c) as f64;
        w *= a / effective_servers;
        if w > RESCALE_ABOVE {
            w *= RESCALE_BY;
            max *= RESCALE_BY;
            for v in out.iter_mut() {
                *v *= RESCALE_BY;
            }
        }
        out.push(w);
        max = max.max(w);
    }
    let total: f64 = out.iter().map(|v| v / max).sum();
    for v in out.iter_mut() {
        *v = (*v / max) / total;
    }
    if uavail_obs::enabled() {
        // Normalization error of the finished distribution: |Σp − 1|
        // should sit at a few ulps; growth flags a loss of precision in
        // the recurrence (e.g. extreme offered loads).
        let norm_error = (out.iter().sum::<f64>() - 1.0).abs();
        uavail_obs::health_record("queueing.mmck.norm_error", norm_error);
    }
}

impl MMcK {
    /// Creates an M/M/c/K model.
    ///
    /// The full state distribution is computed here, once; the metric
    /// accessors are then plain field reads. An arrival rate of exactly 0 is
    /// accepted and describes the empty system: `p_0 = 1`, no losses, no
    /// waiting, zero throughput.
    ///
    /// # Errors
    ///
    /// Returns [`QueueingError::InvalidParameter`] for a negative or
    /// non-finite arrival rate, a non-positive service rate, `servers == 0`,
    /// or `capacity < servers`.
    pub fn new(
        arrival_rate: f64,
        service_rate: f64,
        servers: usize,
        capacity: usize,
    ) -> Result<Self, QueueingError> {
        let arrival_rate = checked_arrival_rate(arrival_rate, service_rate)?;
        check_servers(servers, capacity)?;
        let mut buf = Vec::new();
        fill_distribution(arrival_rate / service_rate, servers, capacity, &mut buf);
        // One pass over the distribution for every derived metric. Each
        // accumulator adds terms in increasing state order, matching the
        // slice sums the per-accessor implementations used to perform, so
        // the results are bit-for-bit unchanged.
        let loss = *buf.last().expect("distribution is non-empty");
        let mut wait = 0.0;
        let mut wait_accepted_num = 0.0;
        let mut mean_customers = 0.0;
        for (n, &p) in buf.iter().enumerate() {
            if n >= servers {
                wait += p;
                if n < capacity {
                    wait_accepted_num += p;
                }
            }
            mean_customers += n as f64 * p;
        }
        let admitted = 1.0 - loss;
        let wait_accepted = if admitted <= 0.0 {
            0.0
        } else {
            wait_accepted_num / admitted
        };
        Ok(MMcK {
            arrival_rate,
            service_rate,
            servers,
            capacity,
            distribution: buf,
            loss,
            wait,
            wait_accepted,
            mean_customers,
        })
    }

    /// Arrival rate `α`.
    pub fn arrival_rate(&self) -> f64 {
        self.arrival_rate
    }

    /// Per-server service rate `ν`.
    pub fn service_rate(&self) -> f64 {
        self.service_rate
    }

    /// Number of servers `c`.
    pub fn servers(&self) -> usize {
        self.servers
    }

    /// System capacity `K`.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Offered load in Erlangs, `a = α / ν` (the paper's ρ).
    pub fn offered_load(&self) -> f64 {
        self.arrival_rate / self.service_rate
    }

    /// Per-server utilization `α / (c·ν)`.
    pub fn utilization(&self) -> f64 {
        self.arrival_rate / (self.servers as f64 * self.service_rate)
    }

    /// Full steady-state distribution `p_0 ..= p_K` as an owned vector.
    ///
    /// Computed once at construction by the birth–death recurrence
    /// `p_{n+1} = p_n · a / min(n + 1, c)` on terms rescaled by exact
    /// powers of two before they overflow and normalized at the end, so
    /// it stays finite for any offered load below 2^512 (including the
    /// paper's `ρ = 1` and overload cases). Prefer [`MMcK::distribution`]
    /// to borrow it without cloning.
    pub fn state_distribution(&self) -> Vec<f64> {
        self.distribution.clone()
    }

    /// Borrows the precomputed steady-state distribution `p_0 ..= p_K`.
    pub fn distribution(&self) -> &[f64] {
        &self.distribution
    }

    /// Blocking probability `p_K` — equation (3) of the paper
    /// (`p_K(i)` with `i = self.servers()`).
    ///
    /// By PASTA this equals the long-run fraction of lost requests.
    pub fn loss_probability(&self) -> f64 {
        self.loss
    }

    /// Probability a Poisson arrival finds all servers busy —
    /// `Σ_{n=c}^{K} p_n`.
    ///
    /// By PASTA this is the time-stationary probability of the
    /// "all-servers-busy" states, which *includes* state `K`: arrivals
    /// that find the system full are blocked, not queued, yet they still
    /// count here. This is the quantity an external observer (or an
    /// arriving probe) sees. For the delay probability conditioned on
    /// actually being admitted, use
    /// [`wait_probability_accepted`](MMcK::wait_probability_accepted).
    /// The two are tied through [`loss_probability`](MMcK::loss_probability):
    ///
    /// `wait = (1 − p_K) · wait_accepted + p_K`
    pub fn wait_probability(&self) -> f64 {
        self.wait
    }

    /// Probability an *accepted* customer must wait for service —
    /// `Σ_{n=c}^{K−1} p_n / (1 − p_K)`.
    ///
    /// Conditions the arriving customer's state on admission (states
    /// `0..K`), so blocked arrivals — which never wait, they are lost —
    /// are excluded. When `c == K` (a pure loss system, no waiting room)
    /// this is exactly 0.
    pub fn wait_probability_accepted(&self) -> f64 {
        self.wait_accepted
    }

    /// Effective throughput `α (1 - p_K)`.
    pub fn throughput(&self) -> f64 {
        self.arrival_rate * (1.0 - self.loss_probability())
    }

    /// Mean number of customers in the system.
    pub fn mean_customers(&self) -> f64 {
        self.mean_customers
    }

    /// Mean response time of accepted customers (Little's law).
    ///
    /// For an idle system (`arrival_rate == 0`, hence zero throughput)
    /// Little's law degenerates to 0/0; this returns 0.0 — no customers are
    /// accepted, so none spend any time in the system.
    pub fn mean_response_time(&self) -> f64 {
        let throughput = self.throughput();
        if throughput == 0.0 {
            return 0.0;
        }
        self.mean_customers / throughput
    }
}

/// Validates an M/M/c/K arrival and service rate pair, firing the
/// `queueing.mmck.corrupt` injection site on the arrival rate first, and
/// returns the arrival rate the model runs with.
fn checked_arrival_rate(arrival_rate: f64, service_rate: f64) -> Result<f64, QueueingError> {
    // Injection site (inert unless `uavail-faultinject` is enabled): a
    // corrupted arrival rate funnels into the typed validation below,
    // demonstrating that degraded inputs degrade to errors, not to NaN
    // probabilities.
    let arrival_rate = uavail_faultinject::corrupt_f64("queueing.mmck.corrupt", arrival_rate);
    if !(arrival_rate.is_finite() && arrival_rate >= 0.0) {
        return Err(QueueingError::InvalidParameter {
            name: "arrival_rate",
            value: arrival_rate,
            requirement: "finite and non-negative",
        });
    }
    check_rate("service_rate", service_rate)?;
    Ok(arrival_rate)
}

/// Checks that an M/M/c/K queue has at least one server and a capacity
/// of at least `servers` (every server must be usable).
///
/// # Errors
///
/// [`QueueingError::InvalidParameter`] naming `servers` or `capacity`, as
/// [`MMcK::new`] returns them.
pub fn check_servers(servers: usize, capacity: usize) -> Result<(), QueueingError> {
    if servers == 0 {
        return Err(QueueingError::InvalidParameter {
            name: "servers",
            value: 0.0,
            requirement: "at least 1",
        });
    }
    if capacity < servers {
        return Err(QueueingError::InvalidParameter {
            name: "capacity",
            value: capacity as f64,
            requirement: "at least the number of servers",
        });
    }
    Ok(())
}

/// The blocking probabilities `p_K(1), p_K(2), …, p_K(K)` of equation (3)
/// for one arrival rate `α`, service rate `ν` and capacity `K`, in closed
/// form: O(1) per server count and no allocation.
///
/// With `a = α/ν` and `i` servers, divide every unnormalized state term
/// by state `i`'s, `a^i/i!`. The states below `i` then sum to
/// `R_i = (R_{i−1} + 1)·(i/a)`, `R_0 = 0`, and the states `i ..= K` form
/// the geometric series `Σ_{j=0}^{m} ρ^j` with `ρ = a/i` and `m = K − i`,
/// so
///
/// `p_K(i) = ρ^m / (R_i + Σ_{j=0}^{m} ρ^j)`.
///
/// With `δ = (a − i)/i = ρ − 1` and `l = ln ρ` (taken as `ln_1p(δ)` when
/// `|δ| < 1/2`, where `a − i` is exact, and as `ln(a/i)` otherwise, where
/// `ln_1p` near `δ = −1` is ill-conditioned), the series is
/// `expm1((m+1)·l)/δ`. Four cases:
///
/// * `m = 0` (Erlang B): `p = 1/(R + 1)`;
/// * `δ = 0`: `p = 1/(R + m + 1)`;
/// * `δ < 0`: `p = e^{m·l} / (R + expm1((m+1)·l)/δ)`;
/// * `δ > 0`: divided through by `ρ^m`,
///   `p = 1 / (R·e^{−m·l} + expm1(−(m+1)·l)/expm1(−l))`.
///
/// Nothing overflows to NaN: an offered load that underflows to 0 gives
/// `R = ∞` and `p = 0`, and one that overflows to `∞` gives `R = 0`,
/// `l = ∞` and `p = 1`. `m = 0` is its own case because `0·∞` is NaN.
/// [`MMcK`], the O(K) birth–death recurrence, is this family's test
/// oracle.
///
/// While the `uavail-obs` recorder is on, each family records one value
/// to the health channel `queueing.mmck.loss_increase` when it is
/// dropped: the largest relative increase `p_K(i)/p_K(i−1) − 1` over the
/// consecutive items it yielded with `p_K(i−1)` normal. Equation (3) is
/// decreasing in `i`, so the value is ≤ 0 up to rounding.
///
/// # Errors
///
/// As [`MMcK::new`] for the arrival and service rates, and it fires the
/// same `queueing.mmck.corrupt` injection site, once per family.
///
/// # Examples
///
/// ```
/// use uavail_queueing::{mmck::loss_probabilities, MMcK};
///
/// # fn main() -> Result<(), uavail_queueing::QueueingError> {
/// // p_K(1) ..= p_K(4) of the paper's farm at full load, buffer 10.
/// let family: Vec<f64> = loss_probabilities(100.0, 100.0, 10)?.take(4).collect();
/// let oracle = MMcK::new(100.0, 100.0, 4, 10)?.loss_probability();
/// assert!((family[3] - oracle).abs() <= 1e-14 * oracle);
/// assert!(family.windows(2).all(|w| w[1] < w[0]));
/// # Ok(())
/// # }
/// ```
pub fn loss_probabilities(
    arrival_rate: f64,
    service_rate: f64,
    capacity: usize,
) -> Result<impl Iterator<Item = f64>, QueueingError> {
    let arrival_rate = checked_arrival_rate(arrival_rate, service_rate)?;
    Ok(LossProbabilities {
        offered_load: arrival_rate / service_rate,
        capacity,
        servers: 0,
        below: 0.0,
        record: uavail_obs::enabled(),
        previous: 0.0,
        max_increase: f64::NEG_INFINITY,
    })
}

/// The iterator [`loss_probabilities`] returns.
struct LossProbabilities {
    offered_load: f64,
    capacity: usize,
    /// Server count of the last item yielded.
    servers: usize,
    /// `R_i` for `i = servers`.
    below: f64,
    /// Whether to track and record the health value.
    record: bool,
    previous: f64,
    max_increase: f64,
}

impl Iterator for LossProbabilities {
    type Item = f64;

    fn next(&mut self) -> Option<f64> {
        if self.servers == self.capacity {
            return None;
        }
        self.servers += 1;
        let a = self.offered_load;
        let i = self.servers as f64;
        self.below = (self.below + 1.0) * (i / a);
        let r = self.below;
        let m = self.capacity - self.servers;
        let p = if m == 0 {
            1.0 / (r + 1.0)
        } else {
            let m = m as f64;
            let delta = (a - i) / i;
            if delta == 0.0 {
                1.0 / (r + m + 1.0)
            } else {
                let l = if delta.abs() < 0.5 {
                    delta.ln_1p()
                } else {
                    (a / i).ln()
                };
                if delta < 0.0 {
                    (m * l).exp() / (r + ((m + 1.0) * l).exp_m1() / delta)
                } else {
                    1.0 / (r * (-m * l).exp() + (-(m + 1.0) * l).exp_m1() / (-l).exp_m1())
                }
            }
        };
        if self.record {
            if self.previous >= f64::MIN_POSITIVE {
                self.max_increase = self.max_increase.max(p / self.previous - 1.0);
            }
            self.previous = p;
        }
        Some(p)
    }
}

impl Drop for LossProbabilities {
    fn drop(&mut self) {
        if self.record && self.max_increase > f64::NEG_INFINITY {
            uavail_obs::health_record("queueing.mmck.loss_increase", self.max_increase);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::erlang::erlang_b;
    use crate::MM1K;

    #[test]
    fn validation() {
        assert!(MMcK::new(1.0, 1.0, 0, 5).is_err());
        assert!(MMcK::new(1.0, 1.0, 4, 3).is_err());
        assert!(MMcK::new(-1.0, 1.0, 1, 5).is_err());
        assert!(MMcK::new(1.0, 0.0, 1, 5).is_err());
    }

    #[test]
    fn rejects_zero_servers_with_typed_error() {
        assert!(matches!(
            MMcK::new(1.0, 1.0, 0, 5),
            Err(QueueingError::InvalidParameter {
                name: "servers",
                ..
            })
        ));
    }

    #[test]
    fn rejects_capacity_below_servers_with_typed_error() {
        assert!(matches!(
            MMcK::new(1.0, 1.0, 4, 3),
            Err(QueueingError::InvalidParameter {
                name: "capacity",
                ..
            })
        ));
        // capacity == servers (a pure loss system) stays legal.
        assert!(MMcK::new(1.0, 1.0, 4, 4).is_ok());
    }

    #[test]
    fn rejects_non_finite_arrival_rate_with_typed_error() {
        for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            assert!(
                matches!(
                    MMcK::new(bad, 1.0, 1, 5),
                    Err(QueueingError::InvalidParameter {
                        name: "arrival_rate",
                        ..
                    })
                ),
                "arrival_rate {bad} must be rejected"
            );
        }
    }

    #[test]
    fn rejects_non_finite_or_non_positive_service_rate_with_typed_error() {
        for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY, 0.0, -2.0] {
            assert!(
                matches!(
                    MMcK::new(1.0, bad, 1, 5),
                    Err(QueueingError::InvalidParameter {
                        name: "service_rate",
                        ..
                    })
                ),
                "service_rate {bad} must be rejected"
            );
        }
    }

    #[test]
    fn no_constructor_path_yields_nan_metrics() {
        // Every successfully constructed queue has a clean distribution:
        // degraded inputs must error out above, never produce NaN here.
        for &(a, v, c, k) in &[
            (0.0, 1.0, 1, 1),
            (1e5, 1.0, 2, 64),
            (50.0, 100.0, 4, 10),
            (1000.0, 100.0, 1, 309),
            (1e6, 100.0, 1, 10_000),
        ] {
            let q = MMcK::new(a, v, c, k).unwrap();
            assert!(q.loss_probability().is_finite(), "a={a} v={v}");
            assert!(q.mean_customers().is_finite(), "a={a} v={v}");
            assert!(q.throughput().is_finite(), "a={a} v={v}");
        }
        // (a/c)^K overflows f64 here; the loss is 1 − 1/ρ up to ρ^−K.
        let q = MMcK::new(1000.0, 100.0, 1, 309).unwrap();
        assert!((q.loss_probability() - 0.9).abs() < 1e-12);
    }

    #[test]
    fn rescaling_keeps_the_bits_of_the_plain_recurrence() {
        // The recurrence as it reads on paper, normalized at the end;
        // wherever it stays finite the rescaled one must match it bit for
        // bit, including runs whose terms pass 2^512.
        fn plain(a: f64, c: usize, k: usize) -> Vec<f64> {
            let mut w = vec![1.0f64];
            for n in 0..k {
                w.push(w[n] * (a / (n + 1).min(c) as f64));
            }
            let max = w.iter().cloned().fold(1.0, f64::max);
            let total: f64 = w.iter().map(|v| v / max).sum();
            w.iter().map(|v| (v / max) / total).collect()
        }
        for &(a, c, k) in &[
            (1.0, 4, 10),
            (0.5, 3, 12),
            (1e5, 2, 64),
            (10.0, 1, 300),
            (150.0, 100, 400),
            (2.0, 1, 1020),
        ] {
            let want = plain(a, c, k);
            assert!(want.iter().all(|p| p.is_finite()), "a={a} c={c} K={k}");
            let got = MMcK::new(a, 1.0, c, k).unwrap();
            for (x, y) in got.distribution().iter().zip(&want) {
                assert_eq!(x.to_bits(), y.to_bits(), "a={a} c={c} K={k}");
            }
        }
    }

    #[test]
    fn single_server_reduces_to_mm1k() {
        for &(a, v, k) in &[
            (50.0, 100.0, 10usize),
            (100.0, 100.0, 10),
            (150.0, 100.0, 10),
        ] {
            let mmck = MMcK::new(a, v, 1, k).unwrap();
            let mm1k = MM1K::new(a, v, k).unwrap();
            assert!(
                (mmck.loss_probability() - mm1k.loss_probability()).abs() < 1e-12,
                "a={a}"
            );
        }
    }

    #[test]
    fn paper_parameters_c4_k10_full_load() {
        // Hand-computed: a = 1, c = 4, K = 10 => p_K ≈ 3.737e-6.
        let q = MMcK::new(100.0, 100.0, 4, 10).unwrap();
        let p = q.loss_probability();
        assert!((p - 3.737e-6).abs() < 0.01e-6, "got {p}");
    }

    #[test]
    fn distribution_is_probability() {
        let q = MMcK::new(120.0, 50.0, 3, 12).unwrap();
        let dist = q.state_distribution();
        assert_eq!(dist.len(), 13);
        let sum: f64 = dist.iter().sum();
        assert!((sum - 1.0).abs() < 1e-12);
        assert!(dist.iter().all(|&p| p >= 0.0));
    }

    #[test]
    fn explicit_formula_cross_check() {
        // Direct evaluation of the textbook formula for a moderate case.
        let (alpha, nu, c, k) = (80.0f64, 30.0f64, 4usize, 9usize);
        let a = alpha / nu;
        let mut z = 0.0;
        let mut fact = 1.0;
        for n in 0..=k {
            if n > 0 {
                fact *= n as f64;
            }
            let w = if n <= c {
                a.powi(n as i32) / fact
            } else {
                let cf: f64 = (1..=c).map(|x| x as f64).product();
                a.powi(n as i32) / (cf * (c as f64).powi((n - c) as i32))
            };
            z += w;
        }
        let cf: f64 = (1..=c).map(|x| x as f64).product();
        let pk = a.powi(k as i32) / (cf * (c as f64).powi((k - c) as i32)) / z;
        let q = MMcK::new(alpha, nu, c, k).unwrap();
        assert!((q.loss_probability() - pk).abs() < 1e-12);
    }

    #[test]
    fn more_servers_less_loss() {
        let base = MMcK::new(100.0, 100.0, 1, 10).unwrap().loss_probability();
        let mut prev = base;
        for c in 2..=6 {
            let p = MMcK::new(100.0, 100.0, c, 10).unwrap().loss_probability();
            assert!(p < prev, "c={c}: {p} !< {prev}");
            prev = p;
        }
    }

    #[test]
    fn wait_probability_bounds() {
        let q = MMcK::new(100.0, 100.0, 4, 10).unwrap();
        let wait = q.wait_probability();
        assert!(wait > 0.0 && wait < 1.0);
        assert!(q.loss_probability() <= wait);
    }

    #[test]
    fn wait_probabilities_tie_through_loss() {
        // wait = (1 − p_K) · wait_accepted + p_K: the PASTA wait
        // probability decomposes into admitted-and-waiting plus blocked.
        for &(alpha, nu, c, k) in &[
            (100.0, 100.0, 4usize, 10usize),
            (150.0, 100.0, 2, 6),
            (90.0, 30.0, 3, 12),
        ] {
            let q = MMcK::new(alpha, nu, c, k).unwrap();
            let pk = q.loss_probability();
            let wait = q.wait_probability();
            let accepted = q.wait_probability_accepted();
            assert!(
                (wait - ((1.0 - pk) * accepted + pk)).abs() < 1e-12,
                "alpha={alpha} c={c} k={k}"
            );
            // Blocked arrivals count as "waiting" under PASTA but never
            // as accepted-and-waiting, so the conditional is smaller.
            assert!(accepted < wait, "alpha={alpha} c={c} k={k}");
        }
    }

    #[test]
    fn pure_loss_system_has_no_accepted_waiting() {
        // c == K: no waiting room at all. PASTA wait probability is the
        // blocking probability itself; the accepted-customer wait is 0.
        let q = MMcK::new(120.0, 40.0, 5, 5).unwrap();
        assert!((q.wait_probability() - q.loss_probability()).abs() < 1e-15);
        assert_eq!(q.wait_probability_accepted(), 0.0);
    }

    #[test]
    fn throughput_and_response_time() {
        let q = MMcK::new(200.0, 100.0, 2, 8).unwrap();
        assert!(q.throughput() < 200.0);
        // Response time at least one mean service time.
        assert!(q.mean_response_time() >= 1.0 / 100.0 - 1e-12);
    }

    #[test]
    fn accessors() {
        let q = MMcK::new(100.0, 50.0, 3, 9).unwrap();
        assert_eq!(q.servers(), 3);
        assert_eq!(q.capacity(), 9);
        assert!((q.offered_load() - 2.0).abs() < 1e-15);
        assert!((q.utilization() - 2.0 / 3.0).abs() < 1e-15);
    }

    #[test]
    fn heavy_overload_mass_at_capacity() {
        let q = MMcK::new(1000.0, 10.0, 2, 6).unwrap();
        // a = 100, so nearly every arrival is blocked.
        assert!(q.loss_probability() > 0.9);
    }

    #[test]
    fn zero_arrival_rate_is_a_well_defined_empty_system() {
        // Regression: mean_response_time used to return NaN (0/0) for
        // λ = 0; the empty system now has every metric defined.
        let q = MMcK::new(0.0, 100.0, 4, 10).unwrap();
        assert_eq!(q.state_distribution()[0], 1.0);
        assert!(q.state_distribution()[1..].iter().all(|&p| p == 0.0));
        assert_eq!(q.loss_probability(), 0.0);
        assert_eq!(q.wait_probability(), 0.0);
        assert_eq!(q.wait_probability_accepted(), 0.0);
        assert_eq!(q.throughput(), 0.0);
        assert_eq!(q.mean_customers(), 0.0);
        assert_eq!(q.mean_response_time(), 0.0);
        assert!(!q.mean_response_time().is_nan());
        // Negative and non-finite arrival rates are still rejected.
        assert!(MMcK::new(-1e-9, 100.0, 4, 10).is_err());
        assert!(MMcK::new(f64::NAN, 100.0, 4, 10).is_err());
    }

    #[test]
    fn precomputed_metrics_match_distribution_recompute() {
        // The one-pass construction must agree bit-for-bit with summing
        // the distribution slices the way the old accessors did.
        for &(alpha, nu, c, k) in &[
            (100.0, 100.0, 4usize, 10usize),
            (150.0, 100.0, 2, 6),
            (1000.0, 10.0, 2, 6),
            (90.0, 30.0, 3, 12),
            (120.0, 40.0, 5, 5),
        ] {
            let q = MMcK::new(alpha, nu, c, k).unwrap();
            let dist = q.distribution();
            assert_eq!(q.loss_probability().to_bits(), dist[k].to_bits());
            let wait: f64 = dist[c..].iter().sum();
            assert_eq!(q.wait_probability().to_bits(), wait.to_bits());
            let mean: f64 = dist.iter().enumerate().map(|(n, p)| n as f64 * p).sum();
            assert_eq!(q.mean_customers().to_bits(), mean.to_bits());
            let accepted: f64 = dist[c..k].iter().sum::<f64>() / (1.0 - dist[k]);
            if c < k {
                assert_eq!(q.wait_probability_accepted().to_bits(), accepted.to_bits());
            }
        }
    }

    /// `4·(K + 1 + |ln q|)·ε·q`. The oracle's recurrence rounds once per
    /// state (`a/c` itself is rounded once and multiplied in up to K
    /// times); the closed form's exponentials lose about `|ln p|` ulps.
    fn oracle_bound(capacity: usize, q: f64) -> f64 {
        4.0 * (capacity as f64 + 1.0 + q.ln().abs()) * f64::EPSILON * q
    }

    /// Checks the family's first `servers` items for offered load `a` and
    /// capacity `K` against [`MMcK`], and returns the largest error as a
    /// fraction of [`oracle_bound`] wherever the oracle is ≥ 1e-300.
    fn worst_against_oracle(a: f64, capacity: usize, servers: usize) -> f64 {
        let mut worst = 0.0f64;
        let family = loss_probabilities(a, 1.0, capacity).unwrap();
        for (p, i) in family.take(servers).zip(1..) {
            let case = format!("a={a} i={i} K={capacity}");
            assert!(p.is_finite() && (0.0..=1.0).contains(&p), "{case}: {p}");
            let q = MMcK::new(a, 1.0, i, capacity).unwrap().loss_probability();
            if q >= 1e-300 {
                let share = (p - q).abs() / oracle_bound(capacity, q);
                assert!(share <= 1.0, "{case}: {p:e} vs MMcK {q:e}");
                worst = worst.max(share);
            }
        }
        worst
    }

    #[test]
    fn closed_form_agrees_with_the_recurrence() {
        let extra = [0usize, 1, 8, 80, 920, 9_920];
        let mut worst = 0.0f64;
        // Offered loads across the `/eval` domain's scale, every item up
        // to N_W = 80 servers at K = N_W + extra.
        let loads = [
            0.01, 0.1, 0.5, 0.9, 1.0, 1.5, 2.0, 3.7, 8.0, 10.0, 25.0, 50.0, 79.5, 100.0, 150.0,
            400.0, 800.0,
        ];
        for a in loads {
            for servers in [1usize, 4, 80] {
                for x in extra {
                    worst = worst.max(worst_against_oracle(a, servers + x, servers));
                }
            }
        }
        // ρ = a/i at and around 1, where the geometric tail's three cases
        // meet.
        let near_one = [
            1.0,
            1.0 + 1e-15,
            1.0 - 1e-15,
            1.0 + 1e-12,
            1.0 - 1e-12,
            1.0 + 1e-9,
            1.0 - 1e-9,
            1.0 + 1e-6,
            1.0 - 1e-6,
        ];
        for i in [1usize, 2, 3, 7, 20, 80] {
            for rho in near_one {
                for x in extra {
                    worst = worst.max(worst_against_oracle(i as f64 * rho, i + x, i));
                }
            }
        }
        eprintln!("worst |p − p_MMcK| = {worst:.3} of the bound");
    }

    #[test]
    fn pure_loss_item_is_erlang_b() {
        // m = K − i = 0 leaves no waiting room: M/M/K/K, Erlang's loss
        // formula, by its own recurrence.
        for a in [0.01, 0.5, 1.0, 3.7, 50.0, 800.0] {
            for capacity in [1usize, 2, 5, 40, 200, 1_000] {
                let p = loss_probabilities(a, 1.0, capacity)
                    .unwrap()
                    .last()
                    .unwrap();
                let b = erlang_b(capacity, a).unwrap();
                assert!(
                    (p - b).abs() <= 4.0 * (capacity as f64 + 1.0) * f64::EPSILON * b,
                    "a={a} K={capacity}: {p:e} vs Erlang B {b:e}"
                );
            }
        }
    }

    #[test]
    fn extreme_offered_loads_lose_everything_or_nothing() {
        // α/ν overflows to ∞: every item is exactly 1, none NaN.
        assert!(loss_probabilities(1e308, 1e-300, 12)
            .unwrap()
            .all(|p| p == 1.0));
        // 1e302 Erlangs: the loss 1 − i/a rounds to 1.
        assert!(loss_probabilities(100.0, 1e-300, 12)
            .unwrap()
            .all(|p| p == 1.0));
        // α/ν underflows to 0, or α is 0: nothing is lost.
        for (alpha, nu) in [(5e-324, 1e300), (0.0, 1.0), (1e-300, 1e10)] {
            assert!(
                loss_probabilities(alpha, nu, 12).unwrap().all(|p| p == 0.0),
                "α={alpha} ν={nu}"
            );
        }
    }

    #[test]
    fn family_validates_as_the_recurrence_does() {
        for (alpha, nu) in [
            (f64::NAN, 1.0),
            (f64::INFINITY, 1.0),
            (-1.0, 1.0),
            (1.0, 0.0),
            (1.0, -2.0),
            (1.0, f64::NAN),
            (1.0, f64::INFINITY),
        ] {
            let family = loss_probabilities(alpha, nu, 5)
                .err()
                .map(|e| e.to_string());
            let oracle = MMcK::new(alpha, nu, 1, 5).err().map(|e| e.to_string());
            assert!(family.is_some(), "α={alpha} ν={nu} accepted");
            assert_eq!(family, oracle, "α={alpha} ν={nu}");
        }
        assert_eq!(loss_probabilities(1.0, 1.0, 7).unwrap().count(), 7);
        assert_eq!(loss_probabilities(1.0, 1.0, 0).unwrap().count(), 0);
    }
}
