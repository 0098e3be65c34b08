//! # uavail-queueing
//!
//! Closed-form queueing formulas for performance-related failure modeling.
//!
//! The paper's web-service availability combines a *pure availability* model
//! (how many servers are up) with a *pure performance* model (what fraction
//! of requests is lost because the input buffer is full). This crate
//! provides the performance side:
//!
//! * [`MM1K`] — the M/M/1/K queue of equation (1): loss probability for the
//!   basic single-server architecture.
//! * [`MMcK`] — the M/M/i/K queue of equation (3): loss probability when
//!   `i` servers share a buffer of size `K`, by the birth–death recurrence.
//!   [`mmck::loss_probabilities`] gives the same `p_K(1), p_K(2), …` in
//!   closed form at O(1) per server count; `MMcK` is its test oracle.
//! * [`MM1`] / [`MMc`] — the corresponding infinite-buffer queues, for
//!   capacity-planning comparisons (Erlang C delay probability, mean
//!   response times via Little's law).
//! * [`erlang`] — Erlang B and Erlang C blocking/delay formulas computed by
//!   numerically stable recurrences.
//! * [`BirthDeathQueue`] — general state-dependent-rate queue, used to
//!   cross-validate every closed form against the Markov solver.
//! * [`MG1`] — Pollaczek–Khinchine formulas, supporting the paper's
//!   future-work extension to response-time-threshold failures.
//!
//! ## Conventions
//!
//! `K` throughout denotes the *system capacity* — the maximum number of
//! customers simultaneously present (in service + waiting), matching the
//! paper's "input buffer of size K" whose loss probability is `p_K`, the
//! probability that an arriving request finds the system full.
//!
//! # Examples
//!
//! ```
//! use uavail_queueing::MM1K;
//!
//! # fn main() -> Result<(), uavail_queueing::QueueingError> {
//! // Paper's basic architecture at full load: alpha = nu = 100/s, K = 10.
//! let q = MM1K::new(100.0, 100.0, 10)?;
//! assert!((q.loss_probability() - 1.0 / 11.0).abs() < 1e-12);
//! # Ok(())
//! # }
//! ```

mod birth_death_queue;
pub mod erlang;
mod error;
mod mg1;
mod mm1;
mod mm1k;
mod mmc;
pub mod mmck;
pub mod response_time;

pub use birth_death_queue::BirthDeathQueue;
pub use error::QueueingError;
pub use mg1::MG1;
pub use mm1::MM1;
pub use mm1k::MM1K;
pub use mmc::MMc;
pub use mmck::MMcK;

/// `x^n` for a `usize` exponent: `powi` while `n` fits an `i32`, `powf`
/// beyond that, since `powi` takes an `i32` and a cast would wrap.
pub(crate) fn powu(x: f64, n: usize) -> f64 {
    match i32::try_from(n) {
        Ok(n) => x.powi(n),
        Err(_) => x.powf(n as f64),
    }
}

/// Validates that a rate is finite and strictly positive.
pub(crate) fn check_rate(name: &'static str, value: f64) -> Result<(), QueueingError> {
    if value.is_finite() && value > 0.0 {
        Ok(())
    } else {
        Err(QueueingError::InvalidParameter {
            name,
            value,
            requirement: "finite and > 0",
        })
    }
}
