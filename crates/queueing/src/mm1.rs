use crate::{check_rate, powu, QueueingError};

/// The M/M/1 queue with infinite buffer.
///
/// Used for capacity-planning comparisons against the finite-buffer models:
/// it shows what the response time *would be* if no request were ever
/// dropped, and therefore how much of the paper's unavailability is a pure
/// buffer-size effect.
///
/// # Examples
///
/// ```
/// use uavail_queueing::MM1;
///
/// # fn main() -> Result<(), uavail_queueing::QueueingError> {
/// let q = MM1::new(50.0, 100.0)?;
/// assert!((q.mean_customers() - 1.0).abs() < 1e-12);       // rho/(1-rho)
/// assert!((q.mean_response_time() - 0.02).abs() < 1e-12);  // 1/(nu-alpha)
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MM1 {
    arrival_rate: f64,
    service_rate: f64,
}

impl MM1 {
    /// Creates a stable M/M/1 model.
    ///
    /// # Errors
    ///
    /// * [`QueueingError::InvalidParameter`] for non-positive rates.
    /// * [`QueueingError::Unstable`] when `α ≥ ν`.
    pub fn new(arrival_rate: f64, service_rate: f64) -> Result<Self, QueueingError> {
        check_rate("arrival_rate", arrival_rate)?;
        check_rate("service_rate", service_rate)?;
        let rho = arrival_rate / service_rate;
        if rho >= 1.0 {
            return Err(QueueingError::Unstable { utilization: rho });
        }
        Ok(MM1 {
            arrival_rate,
            service_rate,
        })
    }

    /// Utilization `ρ = α / ν < 1`.
    pub fn rho(&self) -> f64 {
        self.arrival_rate / self.service_rate
    }

    /// Steady-state probability of `n` customers: `(1 - ρ) ρⁿ`.
    pub fn state_probability(&self, n: usize) -> f64 {
        let rho = self.rho();
        (1.0 - rho) * powu(rho, n)
    }

    /// Mean number in system `L = ρ / (1 - ρ)`.
    pub fn mean_customers(&self) -> f64 {
        let rho = self.rho();
        rho / (1.0 - rho)
    }

    /// Mean number waiting `Lq = ρ² / (1 - ρ)`.
    pub fn mean_queue_length(&self) -> f64 {
        let rho = self.rho();
        rho * rho / (1.0 - rho)
    }

    /// Mean response time `W = 1 / (ν - α)`.
    pub fn mean_response_time(&self) -> f64 {
        1.0 / (self.service_rate - self.arrival_rate)
    }

    /// Mean waiting time `Wq = ρ / (ν - α)`.
    pub fn mean_waiting_time(&self) -> f64 {
        self.rho() / (self.service_rate - self.arrival_rate)
    }

    /// Probability the response time exceeds `t`:
    /// `P(T > t) = e^{-(ν - α) t}` — the measure proposed by the paper's
    /// future-work extension (failures when response time exceeds a
    /// threshold).
    ///
    /// # Errors
    ///
    /// Returns [`QueueingError::InvalidParameter`] for negative or
    /// non-finite `t`.
    pub fn response_time_exceeds(&self, t: f64) -> Result<f64, QueueingError> {
        if !(t.is_finite() && t >= 0.0) {
            return Err(QueueingError::InvalidParameter {
                name: "t",
                value: t,
                requirement: "finite and >= 0",
            });
        }
        Ok((-(self.service_rate - self.arrival_rate) * t).exp())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rejects_unstable() {
        assert!(matches!(
            MM1::new(100.0, 100.0),
            Err(QueueingError::Unstable { .. })
        ));
        assert!(matches!(
            MM1::new(150.0, 100.0),
            Err(QueueingError::Unstable { .. })
        ));
    }

    #[test]
    fn littles_law_consistency() {
        let q = MM1::new(30.0, 100.0).unwrap();
        // L = alpha * W
        assert!((q.mean_customers() - 30.0 * q.mean_response_time()).abs() < 1e-12);
        // Lq = alpha * Wq
        assert!((q.mean_queue_length() - 30.0 * q.mean_waiting_time()).abs() < 1e-12);
    }

    #[test]
    fn geometric_distribution_sums_to_one() {
        let q = MM1::new(60.0, 100.0).unwrap();
        let sum: f64 = (0..500).map(|n| q.state_probability(n)).sum();
        assert!((sum - 1.0).abs() < 1e-12);
    }

    #[test]
    fn response_time_tail() {
        let q = MM1::new(50.0, 100.0).unwrap();
        assert!((q.response_time_exceeds(0.0).unwrap() - 1.0).abs() < 1e-15);
        let p = q.response_time_exceeds(0.02).unwrap(); // one mean: e^-1
        assert!((p - (-1.0f64).exp()).abs() < 1e-12);
        assert!(q.response_time_exceeds(-1.0).is_err());
    }

    #[test]
    fn relation_between_l_and_lq() {
        let q = MM1::new(40.0, 100.0).unwrap();
        assert!((q.mean_customers() - q.mean_queue_length() - q.rho()).abs() < 1e-12);
    }
}
