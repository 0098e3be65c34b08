use rand::Rng;

use crate::error::check_rate;
use crate::rng::exponential;
use crate::SimError;

/// Simulates a repairable component as an alternating renewal process:
/// exponential up times (rate `λ`) alternating with exponential down times
/// (rate `µ`).
///
/// The long-run fraction of up time must converge to the two-state CTMC
/// availability `µ / (λ + µ)` — the base case every analytic model in the
/// workspace builds on.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AlternatingRenewal {
    failure_rate: f64,
    repair_rate: f64,
}

/// Result of an [`AlternatingRenewal`] run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RenewalObservation {
    /// Fraction of the horizon spent up.
    pub availability: f64,
    /// Number of complete failures observed.
    pub failures: u64,
    /// Total simulated time.
    pub horizon: f64,
}

impl AlternatingRenewal {
    /// Creates the process with the given failure and repair rates.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::InvalidParameter`] for non-positive rates.
    pub fn new(failure_rate: f64, repair_rate: f64) -> Result<Self, SimError> {
        check_rate("failure_rate", failure_rate)?;
        check_rate("repair_rate", repair_rate)?;
        Ok(AlternatingRenewal {
            failure_rate,
            repair_rate,
        })
    }

    /// Analytic steady-state availability `µ / (λ + µ)` for comparison.
    pub fn analytic_availability(&self) -> f64 {
        self.repair_rate / (self.failure_rate + self.repair_rate)
    }

    /// Runs the process from the up state for `horizon` time units.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::InvalidParameter`] for a non-positive horizon.
    pub fn run<R: Rng + ?Sized>(
        &self,
        rng: &mut R,
        horizon: f64,
    ) -> Result<RenewalObservation, SimError> {
        if !(horizon.is_finite() && horizon > 0.0) {
            return Err(SimError::InvalidParameter {
                name: "horizon",
                value: horizon,
                requirement: "finite and > 0",
            });
        }
        let mut t = 0.0;
        let mut up_time = 0.0;
        let mut failures = 0u64;
        let mut up = true;
        while t < horizon {
            let rate = if up {
                self.failure_rate
            } else {
                self.repair_rate
            };
            let sojourn = exponential(rng, rate);
            let end = (t + sojourn).min(horizon);
            if up {
                up_time += end - t;
                if t + sojourn <= horizon {
                    failures += 1;
                }
            }
            t += sojourn;
            up = !up;
        }
        Ok(RenewalObservation {
            availability: up_time / horizon,
            failures,
            horizon,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn validation() {
        assert!(AlternatingRenewal::new(0.0, 1.0).is_err());
        assert!(AlternatingRenewal::new(1.0, -1.0).is_err());
        let ok = AlternatingRenewal::new(1.0, 2.0).unwrap();
        assert!(ok.run(&mut StdRng::seed_from_u64(0), 0.0).is_err());
        assert!(ok.run(&mut StdRng::seed_from_u64(0), f64::NAN).is_err());
    }

    #[test]
    fn converges_to_analytic_availability() {
        let mut rng = StdRng::seed_from_u64(2024);
        let sim = AlternatingRenewal::new(0.2, 1.0).unwrap();
        let obs = sim.run(&mut rng, 200_000.0).unwrap();
        let analytic = sim.analytic_availability();
        assert!(
            (obs.availability - analytic).abs() < 0.005,
            "sim {} vs analytic {}",
            obs.availability,
            analytic
        );
    }

    #[test]
    fn failure_count_matches_rate() {
        // Expected failures ≈ horizon * availability * λ.
        let mut rng = StdRng::seed_from_u64(7);
        let sim = AlternatingRenewal::new(0.5, 5.0).unwrap();
        let horizon = 100_000.0;
        let obs = sim.run(&mut rng, horizon).unwrap();
        let expected = horizon * sim.analytic_availability() * 0.5;
        assert!(
            (obs.failures as f64 - expected).abs() / expected < 0.05,
            "{} vs {expected}",
            obs.failures
        );
    }

    #[test]
    fn highly_reliable_component() {
        let mut rng = StdRng::seed_from_u64(3);
        let sim = AlternatingRenewal::new(1e-4, 1.0).unwrap();
        let obs = sim.run(&mut rng, 1_000_000.0).unwrap();
        assert!(obs.availability > 0.999);
    }
}
