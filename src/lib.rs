//! # uavail — user-perceived availability evaluation of web applications
//!
//! A Rust reproduction of Kaâniche, Kanoun & Martinello, *"A User-Perceived
//! Availability Evaluation of a Web Based Travel Agency"* (DSN 2003): a
//! hierarchical dependability-modeling framework plus the complete
//! travel-agency case study, built from first principles — Markov chains,
//! queueing formulas, reliability block diagrams, fault trees, operational
//! profiles and a discrete-event simulator for cross-validation.
//!
//! This facade crate re-exports the workspace members:
//!
//! * [`linalg`] — dense linear algebra (LU, GTH support).
//! * [`markov`] — DTMC/CTMC engines, birth–death chains, reward models.
//! * [`queueing`] — M/M/1/K, M/M/c/K, Erlang B/C, M/G/1.
//! * [`rbd`] — reliability block diagrams, cut sets, importance.
//! * [`faulttree`] — fault-tree analysis.
//! * [`profile`] — operational profiles and scenario classes.
//! * [`core`] — the four-level hierarchical framework (the paper's
//!   contribution): expressions, interaction diagrams, dual-number
//!   sensitivities, performability composition, downtime/revenue models.
//! * [`sim`] — discrete-event simulation substrate.
//! * [`obs`] — the opt-in metrics recorder behind every instrumented path,
//!   plus sliding windows and the user-perceived availability SLO monitor.
//! * [`serve`] — the std-only HTTP telemetry plane (`/metrics`, `/health`,
//!   `/trace`, `/slo`) over the obs state.
//! * [`travel`] — the travel-agency case study: every table and figure.
//!
//! # Quickstart
//!
//! ```
//! use uavail::travel::{Architecture, TaParameters, TravelAgencyModel};
//! use uavail::travel::user::class_a;
//!
//! # fn main() -> Result<(), uavail::travel::TravelError> {
//! let model = TravelAgencyModel::new(
//!     TaParameters::paper_defaults(),
//!     Architecture::paper_reference(),
//! )?;
//! println!("A(user) = {:.5}", model.user_availability(&class_a())?);
//! # Ok(())
//! # }
//! ```
//!
//! Run `cargo run -p uavail-bench --bin reproduce` to regenerate every
//! table and figure of the paper; see `EXPERIMENTS.md` for the
//! paper-vs-measured comparison.

pub use uavail_core as core;
pub use uavail_faulttree as faulttree;
pub use uavail_linalg as linalg;
pub use uavail_markov as markov;
pub use uavail_obs as obs;
pub use uavail_profile as profile;
pub use uavail_queueing as queueing;
pub use uavail_rbd as rbd;
pub use uavail_serve as serve;
pub use uavail_sim as sim;
pub use uavail_travel as travel;

/// The types most sessions start with, importable in one line:
/// `use uavail::prelude::*;`.
pub mod prelude {
    pub use uavail_core::{AvailExpr, HierarchicalModel, InteractionDiagram, Level};
    pub use uavail_markov::{BirthDeath, Ctmc, CtmcBuilder, Dtmc};
    pub use uavail_profile::{ProfileGraph, Scenario, ScenarioTable};
    pub use uavail_queueing::{MMcK, MM1K};
    pub use uavail_rbd::{component, k_of_n, parallel, series, BlockDiagram};
    pub use uavail_travel::user::{class_a, class_b};
    pub use uavail_travel::{Architecture, Coverage, TaParameters, TravelAgencyModel, TravelError};
}
