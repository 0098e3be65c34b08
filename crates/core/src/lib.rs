//! # uavail-core
//!
//! The hierarchical user-perceived availability modeling framework of
//! Kaâniche, Kanoun & Martinello (DSN 2003).
//!
//! The framework structures an Internet application into four levels and
//! propagates availability bottom-up (Figure 1 of the paper):
//!
//! ```text
//!  user level      A(user)      ← operational profile over functions
//!  function level  A(function)  ← interaction diagrams over services
//!  service level   A(service)   ← structural formulas over resources,
//!                                 incl. composite performance–availability
//!  resource level  A(resource)  ← component models (Markov, measured, …)
//! ```
//!
//! ## Components
//!
//! * [`AvailExpr`] — an algebraic availability expression over named
//!   quantities: products (series use), complements, parallel redundancy,
//!   k-of-n, and probability-weighted sums (scenario mixtures). Expressions
//!   evaluate over plain `f64` or over [`Dual`] numbers, which makes every
//!   evaluation differentiable: `∂A(user)/∂A(LAN)` is exact, not a finite
//!   difference.
//! * [`InteractionDiagram`] — the paper's function-level notation
//!   (Figures 3–6): stages that use services, probabilistic branches,
//!   AND-forks; compiles into an [`AvailExpr`].
//! * [`HierarchicalModel`] — the four-level registry: define quantities at
//!   each [`Level`], reference lower-level quantities by name, evaluate
//!   everything in dependency order, and query exact sensitivities.
//! * [`composite`] — the Meyer-style composite performance–availability
//!   operator used by the paper's web service (equations 5 and 9).
//! * [`downtime`] — availability ↔ downtime conversions and the revenue
//!   -loss model of Section 5.2.
//! * [`sweep`] — the parameter sweep driver used by the evaluation
//!   section. It is one function that takes a [`par::Exec`] (worker
//!   threads, abort-or-report failure policy); every option produces
//!   bit-for-bit the same points.
//! * [`par`] — the order-preserving scoped-thread map and fold that
//!   driver is built on, reusable for any embarrassingly parallel
//!   evaluation (the simulation crates use them for independent
//!   replications).
//!
//! # Examples
//!
//! A miniature two-level model:
//!
//! ```
//! use uavail_core::{AvailExpr, HierarchicalModel, Level};
//!
//! # fn main() -> Result<(), uavail_core::CoreError> {
//! let mut m = HierarchicalModel::new();
//! m.define_value("web_host", Level::Resource, 0.99)?;
//! m.define_value("lan", Level::Resource, 0.999)?;
//! m.define_expr(
//!     "web_service",
//!     Level::Service,
//!     AvailExpr::product(vec![AvailExpr::param("lan"), AvailExpr::param("web_host")]),
//! )?;
//! let eval = m.evaluate()?;
//! assert!((eval.value("web_service")? - 0.99 * 0.999).abs() < 1e-12);
//! // Exact sensitivity of the service to the LAN availability:
//! let d = m.sensitivity("web_service", "lan")?;
//! assert!((d - 0.99).abs() < 1e-12);
//! # Ok(())
//! # }
//! ```

pub mod composite;
pub mod downtime;
mod dual;
mod error;
mod expr;
mod interaction;
mod model;
pub mod par;
mod simplify;
pub mod sweep;

pub use dual::{Dual, Scalar};
pub use error::{panic_payload_text, CoreError, FromWorkerPanic};
pub use expr::AvailExpr;
pub use interaction::{InteractionDiagram, NodeId};
pub use model::{Evaluation, HierarchicalModel, Level};
