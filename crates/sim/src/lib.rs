//! # uavail-sim
//!
//! Discrete-event simulation substrate for cross-validating the analytical
//! availability models.
//!
//! The paper's results are purely analytical. This crate provides the
//! independent evidence a reproduction should have: event-driven simulators
//! whose long-run estimates must converge to the closed-form results within
//! confidence intervals.
//!
//! * [`EventQueue`] — a minimal future-event list (time-ordered heap) for
//!   event-driven models.
//! * [`SimContext`] — preallocated per-replication scratch (the farm's
//!   occupancy buffer and epoch-resolvent tables) threaded through
//!   [`FarmSimulation::run_counts_with`] so steady-state replication runs
//!   allocation-free.
//! * [`stats`] — online statistics: Welford mean/variance, binomial
//!   confidence intervals, batch means.
//! * [`rng`] — sampling helpers on top of any [`rand::Rng`]: exponential
//!   inversion and O(1) Walker/Vose alias tables.
//! * [`replicate`] — deterministic independent replications on any
//!   number of worker threads with bit-for-bit identical results (each
//!   replication owns an RNG stream derived from the base seed): one
//!   driver that returns the observations in index order, reusing one
//!   workspace per worker.
//! * [`AlternatingRenewal`] — up/down component simulation; validates
//!   two-state availability `µ/(λ+µ)`.
//! * [`QueueSimulation`] — M/M/c/K loss simulation; validates the
//!   equation-(1)/(3) blocking probabilities.
//! * [`FarmSimulation`] — the full joint web-farm model: failures, shared
//!   repair, imperfect coverage, reconfiguration, and request traffic in
//!   one simulation; validates the composite performability equations
//!   (5) and (9) end to end, including the quasi-steady-state separation
//!   assumption itself.
//!
//! # Examples
//!
//! ```
//! use rand::rngs::StdRng;
//! use rand::SeedableRng;
//! use uavail_sim::AlternatingRenewal;
//!
//! # fn main() -> Result<(), uavail_sim::SimError> {
//! let mut rng = StdRng::seed_from_u64(1);
//! let sim = AlternatingRenewal::new(0.1, 1.0)?; // λ, µ
//! let result = sim.run(&mut rng, 50_000.0)?;
//! let analytic = 1.0 / 1.1;
//! assert!((result.availability - analytic).abs() < 0.01);
//! # Ok(())
//! # }
//! ```

mod context;
mod engine;
mod error;
mod farm;
mod queue_sim;
mod renewal;
pub mod replicate;
mod response_sim;
pub mod rng;
pub mod stats;

pub use context::SimContext;
pub use engine::EventQueue;
pub use error::SimError;
pub use farm::{FarmCounts, FarmObservation, FarmSimulation};
pub use queue_sim::{QueueObservation, QueueSimulation};
pub use renewal::{AlternatingRenewal, RenewalObservation};
pub use response_sim::{ResponseObservation, ResponseSimulation};
