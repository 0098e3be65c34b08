//! # uavail-travel
//!
//! The complete travel-agency (TA) case study of Kaâniche, Kanoun &
//! Martinello, *"A User-Perceived Availability Evaluation of a Web Based
//! Travel Agency"*, DSN 2003 — every model, table and figure of the paper,
//! built on the `uavail` framework crates.
//!
//! ## Map from the paper to this crate
//!
//! | Paper artifact | Here |
//! |---|---|
//! | Table 1 (user scenarios, classes A/B) | [`user::class_a`], [`user::class_b`] |
//! | Table 2 (function → service mapping) | [`functions::service_mapping`] |
//! | Table 3 (external services) | [`services`] |
//! | Table 4 (application/database services) | [`services`] |
//! | Table 5 / eqs. 1–9 (web service) | [`webservice`] |
//! | Table 6 (function availabilities) | [`functions`] |
//! | Table 7 (parameters) | [`TaParameters::paper_defaults`], [`params::PARAMS`] |
//! | Table 8, Figures 11–13, §5.2 revenue | [`evaluation`] |
//! | Figures 7–8 (architectures) | [`Architecture`] |
//! | Simulation cross-validation (ours) | [`sim_validation`] |
//!
//! # Examples
//!
//! Reproduce the paper's headline web-service availability
//! (`A(WS) = 0.999995587`, Table 7):
//!
//! ```
//! use uavail_travel::{TaParameters, webservice};
//!
//! # fn main() -> Result<(), uavail_travel::TravelError> {
//! let params = TaParameters::paper_defaults();
//! let a = webservice::redundant_imperfect_availability(&params)?;
//! assert!((a - 0.999995587).abs() < 1e-8);
//! # Ok(())
//! # }
//! ```

mod architecture;
pub mod context;
mod error;
pub mod evaluation;
pub mod extensions;
pub mod fig2;
pub mod fta;
pub mod functions;
pub mod maintenance;
mod model;
pub mod multisite;
pub mod params;
pub mod report;
pub mod services;
pub mod session_sim;
pub mod sim_validation;
pub mod transient;
pub mod user;
pub mod webservice;

pub use architecture::{Architecture, Coverage};
pub use context::EvalContext;
pub use error::TravelError;
pub use model::TravelAgencyModel;
pub use params::TaParameters;
