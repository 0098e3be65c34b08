use crate::{check_rate, powu, QueueingError};

/// The M/M/1/K queue — equation (1) of the paper.
///
/// Poisson arrivals at rate `α`, exponential service at rate `ν`, a single
/// server, and at most `K` customers in the system. An arrival that finds
/// `K` customers present is lost; the paper counts such losses as
/// performance-related failures of the basic web-server architecture.
///
/// # Examples
///
/// ```
/// use uavail_queueing::MM1K;
///
/// # fn main() -> Result<(), uavail_queueing::QueueingError> {
/// let q = MM1K::new(50.0, 100.0, 10)?;  // rho = 0.5
/// let p = q.loss_probability();
/// // Equation (1): p_K = rho^K (1 - rho) / (1 - rho^{K+1}).
/// let rho: f64 = 0.5;
/// let expected = rho.powi(10) * (1.0 - rho) / (1.0 - rho.powi(11));
/// assert!((p - expected).abs() < 1e-15);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MM1K {
    arrival_rate: f64,
    service_rate: f64,
    capacity: usize,
}

impl MM1K {
    /// Creates an M/M/1/K model.
    ///
    /// # Errors
    ///
    /// Returns [`QueueingError::InvalidParameter`] for non-positive rates or
    /// `capacity == 0`.
    pub fn new(
        arrival_rate: f64,
        service_rate: f64,
        capacity: usize,
    ) -> Result<Self, QueueingError> {
        check_rate("arrival_rate", arrival_rate)?;
        check_rate("service_rate", service_rate)?;
        if capacity == 0 {
            return Err(QueueingError::InvalidParameter {
                name: "capacity",
                value: 0.0,
                requirement: "at least 1",
            });
        }
        Ok(MM1K {
            arrival_rate,
            service_rate,
            capacity,
        })
    }

    /// Arrival rate `α`.
    pub fn arrival_rate(&self) -> f64 {
        self.arrival_rate
    }

    /// Service rate `ν`.
    pub fn service_rate(&self) -> f64 {
        self.service_rate
    }

    /// System capacity `K`.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Offered load `ρ = α / ν`.
    pub fn rho(&self) -> f64 {
        self.arrival_rate / self.service_rate
    }

    /// Steady-state probability of `n` customers in the system
    /// (`0` for `n > K`).
    pub fn state_probability(&self, n: usize) -> f64 {
        if n > self.capacity {
            return 0.0;
        }
        let dist = self.state_distribution();
        dist[n]
    }

    /// Full steady-state distribution `p_0 ..= p_K`, computed by normalized
    /// powers to remain stable both for `ρ < 1` and `ρ ≥ 1`. When `ρ^K`
    /// overflows, the weights are filled downward from state `K` instead.
    pub fn state_distribution(&self) -> Vec<f64> {
        let rho = self.rho();
        let k = self.capacity;
        let mut weights = Vec::with_capacity(k + 1);
        let mut w = 1.0f64;
        let mut max = 1.0f64;
        weights.push(w);
        for _ in 0..k {
            w *= rho;
            weights.push(w);
            max = max.max(w);
        }
        if max.is_infinite() {
            // ρ > 1: weigh every state against state K, w_n = ρ^(n − K).
            w = 1.0;
            for weight in weights.iter_mut().rev() {
                *weight = w;
                w /= rho;
            }
            max = 1.0;
        }
        // Normalize by the max weight first to avoid overflow at large rho.
        let total: f64 = weights.iter().map(|v| v / max).sum();
        weights.into_iter().map(|v| (v / max) / total).collect()
    }

    /// Loss (blocking) probability `p_K` — equation (1) of the paper.
    ///
    /// By PASTA this is both the fraction of time the system is full and
    /// the fraction of arrivals that are rejected. At `ρ = 1` the formula
    /// degenerates to `1 / (K + 1)`. Where `ρ^(K+1)` overflows (`ρ > 1`),
    /// numerator and denominator are divided by it: with `r = 1 / ρ`,
    /// `p_K = (1 − r) / (1 − r^(K+1))`, which tends to `1 − 1/ρ`.
    pub fn loss_probability(&self) -> f64 {
        let rho = self.rho();
        let k = self.capacity;
        if (rho - 1.0).abs() < 1e-12 {
            return 1.0 / (k as f64 + 1.0);
        }
        let top = powu(rho, k.saturating_add(1));
        if top.is_finite() {
            powu(rho, k) * (1.0 - rho) / (1.0 - top)
        } else {
            let r = rho.recip();
            (1.0 - r) / (1.0 - powu(r, k.saturating_add(1)))
        }
    }

    /// Effective throughput: accepted-arrival rate `α (1 - p_K)`.
    pub fn throughput(&self) -> f64 {
        self.arrival_rate * (1.0 - self.loss_probability())
    }

    /// Mean number of customers in the system.
    pub fn mean_customers(&self) -> f64 {
        self.state_distribution()
            .iter()
            .enumerate()
            .map(|(n, p)| n as f64 * p)
            .sum()
    }

    /// Mean response time of *accepted* customers, by Little's law
    /// `W = L / α_eff`.
    pub fn mean_response_time(&self) -> f64 {
        self.mean_customers() / self.throughput()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn validation() {
        assert!(MM1K::new(0.0, 1.0, 5).is_err());
        assert!(MM1K::new(1.0, -1.0, 5).is_err());
        assert!(MM1K::new(1.0, 1.0, 0).is_err());
        assert!(MM1K::new(f64::NAN, 1.0, 5).is_err());
    }

    #[test]
    fn loss_probability_rho_below_one() {
        let q = MM1K::new(1.0, 2.0, 3).unwrap();
        // rho = 0.5: p3 = 0.5^3 * 0.5 / (1 - 0.5^4) = 0.0625 / 0.9375
        assert!((q.loss_probability() - 0.0625 / 0.9375).abs() < 1e-15);
    }

    #[test]
    fn loss_probability_at_critical_load() {
        let q = MM1K::new(100.0, 100.0, 10).unwrap();
        assert!((q.loss_probability() - 1.0 / 11.0).abs() < 1e-14);
    }

    #[test]
    fn loss_probability_overloaded() {
        // rho = 1.5, K = 4: p_K = rho^4 (1-rho)/(1-rho^5)
        let q = MM1K::new(150.0, 100.0, 4).unwrap();
        let rho: f64 = 1.5;
        let expected = rho.powi(4) * (1.0 - rho) / (1.0 - rho.powi(5));
        assert!((q.loss_probability() - expected).abs() < 1e-14);
        assert!(q.loss_probability() > 0.0 && q.loss_probability() < 1.0);
    }

    #[test]
    fn distribution_sums_to_one_and_matches_pk() {
        let mut cases = vec![(1.0, 2.0, 5usize), (3.0, 1.0, 8), (7.0, 7.0, 10)];
        // Around and past the K where ρ^K overflows at ρ = 1.5 and 1 000.
        for (a, v) in [
            (50.0, 100.0),
            (100.0, 100.0),
            (150.0, 100.0),
            (1_000.0, 1.0),
        ] {
            for k in [1_749, 1_750, 1_751, 10_000] {
                cases.push((a, v, k));
            }
        }
        for (a, v, k) in cases {
            let q = MM1K::new(a, v, k).unwrap();
            let dist = q.state_distribution();
            let sum: f64 = dist.iter().sum();
            assert!((sum - 1.0).abs() < 1e-12, "{a}/{v}, K {k}: sum {sum}");
            assert!(
                (dist[k] - q.loss_probability()).abs() < 1e-12,
                "{a}/{v}, K {k}: {} vs {}",
                dist[k],
                q.loss_probability()
            );
        }
    }

    #[test]
    fn loss_probability_holds_its_limit_where_rho_to_the_k_overflows() {
        // At ρ = 1.5, ρ^(K+1) overflows from K = 1 750; at ρ = 1 000 from
        // K = 102. K ≥ 2³¹ does not fit `powi`'s `i32` exponent.
        let ks = [1_749, 1_750, 1_751, 10_000, (1 << 31) - 1, 1 << 31, 1 << 32];
        for (alpha, nu) in [
            (50.0, 100.0),
            (100.0, 100.0),
            (150.0, 100.0),
            (1_000.0, 1.0),
        ] {
            let rho: f64 = alpha / nu;
            for k in ks {
                let limit = if rho < 1.0 {
                    0.0
                } else if rho > 1.0 {
                    1.0 - 1.0 / rho
                } else {
                    1.0 / (k as f64 + 1.0)
                };
                let p = MM1K::new(alpha, nu, k).unwrap().loss_probability();
                assert!(
                    (p - limit).abs() < 1e-12,
                    "rho {rho}, K {k}: {p} vs {limit}"
                );
            }
        }
    }

    #[test]
    fn state_probability_bounds() {
        let q = MM1K::new(1.0, 2.0, 3).unwrap();
        assert_eq!(q.state_probability(4), 0.0);
        assert!(q.state_probability(0) > 0.0);
    }

    #[test]
    fn throughput_and_little() {
        let q = MM1K::new(10.0, 20.0, 6).unwrap();
        assert!(q.throughput() <= q.arrival_rate());
        assert!(q.mean_response_time() >= 1.0 / q.service_rate() - 1e-12);
    }

    #[test]
    fn large_buffer_approaches_mm1() {
        // For rho < 1 and K large, loss -> 0 and L -> rho/(1-rho).
        let q = MM1K::new(1.0, 2.0, 200).unwrap();
        assert!(q.loss_probability() < 1e-50);
        assert!((q.mean_customers() - 1.0).abs() < 1e-10); // rho/(1-rho) = 1
    }

    #[test]
    fn accessors() {
        let q = MM1K::new(3.0, 4.0, 7).unwrap();
        assert_eq!(q.arrival_rate(), 3.0);
        assert_eq!(q.service_rate(), 4.0);
        assert_eq!(q.capacity(), 7);
        assert!((q.rho() - 0.75).abs() < 1e-15);
    }
}
