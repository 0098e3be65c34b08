use std::collections::VecDeque;

use rand::Rng;

use crate::engine::EventQueue;
use crate::error::check_rate;
use crate::rng::exponential;
use crate::stats::{OnlineStats, Proportion};
use crate::SimError;

/// Per-customer FCFS simulation of an M/M/c/K queue that records response
/// times — the validation counterpart of the analytic response-time tails
/// in `uavail-queueing` (the paper's future-work deadline measure).
///
/// Unlike [`crate::QueueSimulation`] (which tracks only occupancy), this
/// model follows each customer individually so FCFS response times are
/// exact for any number of servers.
///
/// # Examples
///
/// ```
/// use rand::rngs::StdRng;
/// use rand::SeedableRng;
/// use uavail_sim::ResponseSimulation;
///
/// # fn main() -> Result<(), uavail_sim::SimError> {
/// let sim = ResponseSimulation::new(50.0, 100.0, 1, 10)?;
/// let mut rng = StdRng::seed_from_u64(1);
/// let obs = sim.run(&mut rng, 50_000, 0.02)?;
/// assert!(obs.deadline_miss_fraction() > 0.0);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ResponseSimulation {
    arrival_rate: f64,
    service_rate: f64,
    servers: usize,
    capacity: usize,
}

/// Result of a [`ResponseSimulation`] run.
#[derive(Debug, Clone, PartialEq)]
pub struct ResponseObservation {
    /// Arrivals offered.
    pub arrivals: u64,
    /// Arrivals lost to a full system.
    pub losses: u64,
    /// Accepted customers whose response time exceeded the deadline.
    pub deadline_misses: u64,
    /// Completed customers.
    pub completions: u64,
    /// Response-time statistics over completed customers.
    pub response_stats: OnlineStats,
}

impl ResponseObservation {
    /// Fraction of accepted-and-completed customers exceeding the deadline.
    pub fn deadline_miss_fraction(&self) -> f64 {
        Proportion::new(self.deadline_misses, self.completions).estimate()
    }

    /// Observed loss fraction.
    pub fn loss_fraction(&self) -> f64 {
        Proportion::new(self.losses, self.arrivals).estimate()
    }
}

#[derive(Debug, Clone, Copy, PartialEq)]
enum ResponseEvent {
    Arrival,
    /// Completion of the customer that arrived at the carried time.
    Completion {
        arrived_at: f64,
    },
}

impl ResponseSimulation {
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
        Ok(ResponseSimulation {
            arrival_rate,
            service_rate,
            servers,
            capacity,
        })
    }

    /// Runs until `target_arrivals` arrivals were offered, recording each
    /// completed customer's response time against `deadline`.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::NoObservations`] when `target_arrivals == 0` or
    /// the deadline is not finite/non-negative (reported as
    /// [`SimError::InvalidParameter`]).
    pub fn run<R: Rng + ?Sized>(
        &self,
        rng: &mut R,
        target_arrivals: u64,
        deadline: f64,
    ) -> Result<ResponseObservation, SimError> {
        if target_arrivals == 0 {
            return Err(SimError::NoObservations);
        }
        if !(deadline.is_finite() && deadline >= 0.0) {
            return Err(SimError::InvalidParameter {
                name: "deadline",
                value: deadline,
                requirement: "finite and >= 0",
            });
        }
        let mut events: EventQueue<ResponseEvent> = EventQueue::new();
        let mut waiting: VecDeque<f64> = VecDeque::new();
        let mut busy = 0usize;
        let mut arrivals = 0u64;
        let mut losses = 0u64;
        let mut misses = 0u64;
        let mut completions = 0u64;
        let mut stats = OnlineStats::new();

        events.schedule_in(exponential(rng, self.arrival_rate), ResponseEvent::Arrival);
        while let Some((now, ev)) = events.pop() {
            match ev {
                ResponseEvent::Arrival => {
                    arrivals += 1;
                    if busy < self.servers {
                        busy += 1;
                        events.schedule_in(
                            exponential(rng, self.service_rate),
                            ResponseEvent::Completion { arrived_at: now },
                        );
                    } else if busy + waiting.len() < self.capacity {
                        waiting.push_back(now);
                    } else {
                        losses += 1;
                    }
                    if arrivals < target_arrivals {
                        events.schedule_in(
                            exponential(rng, self.arrival_rate),
                            ResponseEvent::Arrival,
                        );
                    }
                }
                ResponseEvent::Completion { arrived_at } => {
                    let response = now - arrived_at;
                    stats.push(response);
                    completions += 1;
                    if response > deadline {
                        misses += 1;
                    }
                    if let Some(next_arrival) = waiting.pop_front() {
                        // Head-of-line customer takes the freed server.
                        events.schedule_in(
                            exponential(rng, self.service_rate),
                            ResponseEvent::Completion {
                                arrived_at: next_arrival,
                            },
                        );
                    } else {
                        busy -= 1;
                    }
                }
            }
        }
        Ok(ResponseObservation {
            arrivals,
            losses,
            deadline_misses: misses,
            completions,
            response_stats: stats,
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
        assert!(ResponseSimulation::new(0.0, 1.0, 1, 1).is_err());
        assert!(ResponseSimulation::new(1.0, 1.0, 0, 1).is_err());
        assert!(ResponseSimulation::new(1.0, 1.0, 2, 1).is_err());
        let sim = ResponseSimulation::new(1.0, 1.0, 1, 1).unwrap();
        let mut rng = StdRng::seed_from_u64(0);
        assert!(sim.run(&mut rng, 0, 1.0).is_err());
        assert!(sim.run(&mut rng, 10, -1.0).is_err());
    }

    #[test]
    fn mm1_response_mean_matches_theory() {
        // Stable M/M/1 with huge buffer: E[T] = 1 / (nu - alpha).
        let sim = ResponseSimulation::new(50.0, 100.0, 1, 200).unwrap();
        let mut rng = StdRng::seed_from_u64(3);
        let obs = sim.run(&mut rng, 300_000, 1.0).unwrap();
        let mean = obs.response_stats.mean();
        assert!((mean - 0.02).abs() < 0.001, "mean {mean}");
    }

    #[test]
    fn loss_fraction_matches_blocking_formula() {
        // M/M/2/4 at a = 2.
        let sim = ResponseSimulation::new(200.0, 100.0, 2, 4).unwrap();
        let mut rng = StdRng::seed_from_u64(11);
        let obs = sim.run(&mut rng, 300_000, 1.0).unwrap();
        // p_K from the birth-death weights: 1, 2, 2, 2, 2 -> p4 = 2/9.
        let expected = 2.0 / 9.0;
        assert!(
            (obs.loss_fraction() - expected).abs() < 0.005,
            "{} vs {expected}",
            obs.loss_fraction()
        );
    }

    #[test]
    fn deadline_miss_monotone_in_deadline() {
        let sim = ResponseSimulation::new(90.0, 100.0, 1, 20).unwrap();
        let mut fractions = Vec::new();
        for (seed, deadline) in [(5u64, 0.01), (5, 0.05), (5, 0.2)] {
            let mut rng = StdRng::seed_from_u64(seed);
            let obs = sim.run(&mut rng, 100_000, deadline).unwrap();
            fractions.push(obs.deadline_miss_fraction());
        }
        assert!(fractions[0] > fractions[1]);
        assert!(fractions[1] > fractions[2]);
    }
}
