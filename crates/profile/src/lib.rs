//! # uavail-profile
//!
//! User operational profiles: who invokes what, how often, and in which
//! combinations.
//!
//! The *user level* of the paper's hierarchy describes a visit to the site
//! as a walk on a graph: `Start → {functions} → Exit` with transition
//! probabilities `p_ij` (Figure 2). Every walk terminates at `Exit`, so the
//! graph is an absorbing Markov chain, and the quantities the paper needs
//! are absorbing-chain functionals:
//!
//! * [`ProfileGraph`] — the validated graph; per-function *visit
//!   probabilities* and *expected invocation counts* via the fundamental
//!   matrix; **exact scenario-class probabilities** (the probability that a
//!   session invokes exactly a given set of functions — the rows of the
//!   paper's Table 1) via taboo chains and inclusion–exclusion; Monte Carlo
//!   session sampling for cross-validation.
//! * [`ScenarioTable`] — a directly specified scenario-probability table
//!   (the form the paper's Table 1 takes), with validation, category
//!   grouping (the paper's SC1–SC4) and convenience queries.
//!
//! # Examples
//!
//! ```
//! use uavail_profile::ProfileGraph;
//!
//! # fn main() -> Result<(), uavail_profile::ProfileError> {
//! let mut g = ProfileGraph::new(vec!["Home", "Search"])?;
//! g.set_start_transition("Home", 1.0)?;
//! g.set_transition("Home", Some("Search"), 0.6)?;
//! g.set_transition("Home", None, 0.4)?;       // None = Exit
//! g.set_transition("Search", None, 1.0)?;
//! let g = g.validated()?;
//! // 60% of sessions reach Search.
//! let visit = g.visit_probabilities()?;
//! assert!((visit[1] - 0.6).abs() < 1e-12);
//! # Ok(())
//! # }
//! ```

#![allow(clippy::needless_range_loop)] // index loops mirror the math
mod error;
mod graph;
mod scenario;

pub use error::ProfileError;
pub use graph::ProfileGraph;
pub use scenario::{Scenario, ScenarioCategory, ScenarioTable};
