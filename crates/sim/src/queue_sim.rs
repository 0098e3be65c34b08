use rand::Rng;

use crate::engine::EventQueue;
use crate::error::check_rate;
use crate::rng::exponential;
use crate::stats::Proportion;
use crate::SimError;

/// Event alphabet of the M/M/c/K simulation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum QueueEvent {
    Arrival,
    Departure,
}

/// Event-driven simulation of an M/M/c/K queue.
///
/// Validates the closed-form blocking probabilities of equations (1) and
/// (3): the observed loss fraction must converge to `p_K` within its
/// binomial confidence interval.
///
/// # Examples
///
/// ```
/// use rand::rngs::StdRng;
/// use rand::SeedableRng;
/// use uavail_sim::QueueSimulation;
///
/// # fn main() -> Result<(), uavail_sim::SimError> {
/// let sim = QueueSimulation::new(100.0, 100.0, 1, 10)?;
/// let mut rng = StdRng::seed_from_u64(1);
/// let obs = sim.run(&mut rng, 100_000)?;
/// // M/M/1/10 at rho = 1: p_K = 1/11.
/// assert!((obs.loss_fraction() - 1.0 / 11.0).abs() < 0.01);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct QueueSimulation {
    arrival_rate: f64,
    service_rate: f64,
    servers: usize,
    capacity: usize,
}

/// Result of a [`QueueSimulation`] run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct QueueObservation {
    /// Arrivals offered.
    pub arrivals: u64,
    /// Arrivals rejected because the system was full.
    pub losses: u64,
    /// Time-averaged number of customers in the system.
    pub mean_customers: f64,
    /// Total simulated time.
    pub horizon: f64,
}

impl QueueObservation {
    /// Observed loss fraction.
    pub fn loss_fraction(&self) -> f64 {
        Proportion::new(self.losses, self.arrivals).estimate()
    }

    /// Binomial confidence interval on the loss fraction.
    pub fn loss_confidence_interval(&self, z: f64) -> (f64, f64) {
        Proportion::new(self.losses, self.arrivals).confidence_interval(z)
    }
}

impl QueueSimulation {
    /// Creates the simulation.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::InvalidParameter`] for non-positive rates,
    /// `servers == 0`, or `capacity < servers`.
    pub fn new(
        arrival_rate: f64,
        service_rate: f64,
        servers: usize,
        capacity: usize,
    ) -> Result<Self, SimError> {
        check_rate("arrival_rate", arrival_rate)?;
        check_rate("service_rate", service_rate)?;
        if servers == 0 {
            return Err(SimError::InvalidParameter {
                name: "servers",
                value: 0.0,
                requirement: "at least 1",
            });
        }
        if capacity < servers {
            return Err(SimError::InvalidParameter {
                name: "capacity",
                value: capacity as f64,
                requirement: "at least the number of servers",
            });
        }
        Ok(QueueSimulation {
            arrival_rate,
            service_rate,
            servers,
            capacity,
        })
    }

    /// Runs until `target_arrivals` arrivals have been offered.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::NoObservations`] when `target_arrivals == 0`.
    pub fn run<R: Rng + ?Sized>(
        &self,
        rng: &mut R,
        target_arrivals: u64,
    ) -> Result<QueueObservation, SimError> {
        if target_arrivals == 0 {
            return Err(SimError::NoObservations);
        }
        let mut events: EventQueue<QueueEvent> = EventQueue::new();
        let mut in_system = 0usize;
        let mut arrivals = 0u64;
        let mut losses = 0u64;
        let mut area = 0.0; // ∫ in_system dt
        let mut last_time = 0.0;

        events.schedule_in(exponential(rng, self.arrival_rate), QueueEvent::Arrival);
        while let Some((t, ev)) = events.pop() {
            area += in_system as f64 * (t - last_time);
            last_time = t;
            match ev {
                QueueEvent::Arrival => {
                    arrivals += 1;
                    if in_system >= self.capacity {
                        losses += 1;
                    } else {
                        in_system += 1;
                        // Departure fires when ANY busy server finishes;
                        // schedule per-customer completions instead: each
                        // accepted customer eventually departs. Using the
                        // memoryless property we schedule the aggregate:
                        // one departure event per busy server slot. Here we
                        // simply schedule this customer's own service start
                        // lazily via the aggregate-departure approach below.
                        if in_system <= self.servers {
                            // Customer enters service immediately.
                            events.schedule_in(
                                exponential(rng, self.service_rate),
                                QueueEvent::Departure,
                            );
                        }
                    }
                    if arrivals < target_arrivals {
                        events
                            .schedule_in(exponential(rng, self.arrival_rate), QueueEvent::Arrival);
                    }
                }
                QueueEvent::Departure => {
                    debug_assert!(in_system > 0, "departure from an empty system");
                    in_system -= 1;
                    // A waiting customer (if any) takes the freed server.
                    if in_system >= self.servers {
                        events.schedule_in(
                            exponential(rng, self.service_rate),
                            QueueEvent::Departure,
                        );
                    }
                }
            }
        }
        let horizon = last_time;
        Ok(QueueObservation {
            arrivals,
            losses,
            mean_customers: if horizon > 0.0 { area / horizon } else { 0.0 },
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
        assert!(QueueSimulation::new(0.0, 1.0, 1, 1).is_err());
        assert!(QueueSimulation::new(1.0, 1.0, 0, 1).is_err());
        assert!(QueueSimulation::new(1.0, 1.0, 2, 1).is_err());
        let sim = QueueSimulation::new(1.0, 1.0, 1, 1).unwrap();
        assert!(sim.run(&mut StdRng::seed_from_u64(0), 0).is_err());
    }

    #[test]
    fn mm1k_loss_matches_formula() {
        // rho = 0.8, K = 5: p_K = rho^5 (1 - rho) / (1 - rho^6).
        let sim = QueueSimulation::new(80.0, 100.0, 1, 5).unwrap();
        let mut rng = StdRng::seed_from_u64(11);
        let obs = sim.run(&mut rng, 400_000).unwrap();
        let rho: f64 = 0.8;
        let expected = rho.powi(5) * (1.0 - rho) / (1.0 - rho.powi(6));
        let (lo, hi) = obs.loss_confidence_interval(3.5);
        assert!(
            lo <= expected && expected <= hi,
            "expected {expected}, observed {} in [{lo}, {hi}]",
            obs.loss_fraction()
        );
    }

    #[test]
    fn mmck_loss_matches_formula() {
        // c = 3, K = 8, a = 2.4.
        let sim = QueueSimulation::new(240.0, 100.0, 3, 8).unwrap();
        let mut rng = StdRng::seed_from_u64(5);
        let obs = sim.run(&mut rng, 400_000).unwrap();
        // Closed form via the recurrence (mirrors uavail-queueing).
        let a: f64 = 2.4;
        let mut w = 1.0;
        let mut weights = vec![1.0];
        for n in 0..8usize {
            w *= a / ((n + 1).min(3)) as f64;
            weights.push(w);
        }
        let z: f64 = weights.iter().sum();
        let expected = weights[8] / z;
        let (lo, hi) = obs.loss_confidence_interval(3.5);
        assert!(
            lo <= expected && expected <= hi,
            "expected {expected}, got {}",
            obs.loss_fraction()
        );
    }

    #[test]
    fn little_law_holds_in_simulation() {
        let sim = QueueSimulation::new(50.0, 100.0, 1, 20).unwrap();
        let mut rng = StdRng::seed_from_u64(21);
        let obs = sim.run(&mut rng, 200_000).unwrap();
        // L ≈ rho / (1 - rho) = 1 for rho = 0.5 (loss negligible at K=20).
        assert!(
            (obs.mean_customers - 1.0).abs() < 0.05,
            "{}",
            obs.mean_customers
        );
    }

    #[test]
    fn loss_free_when_capacity_is_huge() {
        let sim = QueueSimulation::new(10.0, 100.0, 2, 50).unwrap();
        let mut rng = StdRng::seed_from_u64(2);
        let obs = sim.run(&mut rng, 50_000).unwrap();
        assert_eq!(obs.losses, 0);
    }
}
