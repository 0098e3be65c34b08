//! # uavail-markov
//!
//! Discrete- and continuous-time Markov chain engine for dependability
//! modeling.
//!
//! This crate implements the analytical machinery behind the availability
//! models of Kaâniche, Kanoun & Martinello (DSN 2003): birth–death
//! availability chains with perfect and imperfect failure coverage, absorbing
//! chains for operational-profile analysis, and Markov reward models for
//! composite performance–availability ("performability") measures.
//!
//! ## Components
//!
//! * [`Dtmc`] — discrete-time chains: validation, stationary distributions
//!   (GTH and direct LU), n-step transient distributions.
//! * [`AbsorbingDtmc`] — absorbing-chain analysis: fundamental matrix,
//!   absorption probabilities, expected visit counts.
//! * [`Ctmc`] / [`CtmcBuilder`] — continuous-time chains over labeled state
//!   spaces: steady-state solutions via GTH (default) or LU; transient
//!   solutions via uniformization.
//! * [`BirthDeath`] — closed-form steady state for birth–death processes,
//!   the shape of every repairable-redundancy model in the paper.
//! * [`reward`] — steady-state expected reward (performability) on top of
//!   any solved chain.
//!
//! ## Example: two-state availability model
//!
//! ```
//! use uavail_markov::CtmcBuilder;
//!
//! # fn main() -> Result<(), uavail_markov::MarkovError> {
//! let mut b = CtmcBuilder::new();
//! let up = b.add_state("up");
//! let down = b.add_state("down");
//! b.add_transition(up, down, 1e-3)?;   // failure rate λ
//! b.add_transition(down, up, 1.0)?;    // repair rate µ
//! let ctmc = b.build()?;
//! let pi = ctmc.steady_state()?;
//! let availability = pi[up.index()];
//! assert!((availability - 1.0 / 1.001).abs() < 1e-12);
//! # Ok(())
//! # }
//! ```

mod absorbing;
mod birth_death;
mod ctmc;
mod dtmc;
mod error;
mod gth;
pub mod reward;
pub mod transient;

pub use absorbing::{AbsorbingAnalysis, AbsorbingDtmc};
pub use birth_death::BirthDeath;
pub use ctmc::{Ctmc, CtmcBuilder, StateId, SteadyStateMethod};
pub use dtmc::Dtmc;
pub use error::MarkovError;
pub use gth::{
    gth_imperfect_coverage_farm, gth_steady_state, steady_state_mass_drift,
    STEADY_STATE_DRIFT_TOLERANCE,
};

/// Tolerance used when validating stochastic matrices and generators.
pub const VALIDATION_TOLERANCE: f64 = 1e-9;
