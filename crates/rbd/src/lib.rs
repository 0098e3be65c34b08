//! # uavail-rbd
//!
//! Reliability block diagrams (RBDs) with exact availability evaluation.
//!
//! The paper composes service availabilities out of structural formulas —
//! parallel reservation systems (`1 - Π(1 - A_i)`, Table 3), duplicated
//! application/database servers and mirrored disks (Table 4), and series
//! chains of services inside each function (Table 6). This crate provides
//! those compositions as first-class diagrams:
//!
//! * [`BlockSpec`] — a structural expression over named components:
//!   series, parallel, k-of-n, arbitrarily nested, components may repeat.
//! * [`BlockDiagram`] — a validated diagram: exact availability for
//!   independent components (Shannon conditioning handles repeated
//!   components), structure-function evaluation, minimal path and cut sets,
//!   and Birnbaum / improvement-potential importance measures.
//!
//! # Examples
//!
//! The paper's external flight service with 3 redundant reservation systems:
//!
//! ```
//! use uavail_rbd::{component, parallel, BlockDiagram};
//! use std::collections::HashMap;
//!
//! # fn main() -> Result<(), uavail_rbd::RbdError> {
//! let spec = parallel(vec![
//!     component("AF"), component("KLM"), component("BA"),
//! ]);
//! let diagram = BlockDiagram::new(spec)?;
//! let mut probs = HashMap::new();
//! for name in ["AF", "KLM", "BA"] {
//!     probs.insert(name.to_string(), 0.9);
//! }
//! let a = diagram.availability(&probs)?;
//! assert!((a - (1.0 - 0.1f64.powi(3))).abs() < 1e-12);
//! # Ok(())
//! # }
//! ```

mod block;
mod error;
mod importance;
mod sets;

pub use block::{component, constant, k_of_n, parallel, series, BlockDiagram, BlockSpec};
pub use error::RbdError;
pub use importance::ImportanceReport;
