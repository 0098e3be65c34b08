//! # uavail-linalg
//!
//! Self-contained dense linear algebra for dependability models.
//!
//! Availability and performability models (Markov chains, reward models)
//! reduce to small linear-algebra problems: solving `Ax = b`, computing
//! stationary vectors `πQ = 0`, and inverting fundamental matrices
//! `(I - Q)^{-1}`. This crate provides exactly the kernels the rest of the
//! `uavail` workspace needs, with no external dependencies:
//!
//! * [`Matrix`] — dense, row-major `f64` matrix with the usual algebra.
//! * [`Lu`] — LU decomposition with partial pivoting (solve, determinant,
//!   inverse).
//! * [`vector`] — norms and probability-vector helpers.
//!
//! Numerical robustness matters more than speed here: availability models mix
//! rates spanning many orders of magnitude (failures per hour vs. requests
//! per second). The API surfaces residuals and pivot diagnostics so callers
//! can verify solutions instead of trusting them blindly.
//!
//! # Examples
//!
//! ```
//! use uavail_linalg::{Matrix, Lu};
//!
//! # fn main() -> Result<(), uavail_linalg::LinalgError> {
//! let a = Matrix::from_rows(&[&[4.0, 1.0], &[1.0, 3.0]])?;
//! let lu = Lu::new(&a)?;
//! let x = lu.solve(&[1.0, 2.0])?;
//! assert!((4.0 * x[0] + x[1] - 1.0).abs() < 1e-12);
//! # Ok(())
//! # }
//! ```

#![allow(clippy::needless_range_loop)] // index loops mirror the math
mod error;
mod lu;
mod matrix;
pub mod vector;

pub use error::LinalgError;
pub use lu::{solve, Lu, LuWorkspace};
pub use matrix::Matrix;
