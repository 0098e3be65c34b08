//! # uavail-linalg
//!
//! Self-contained dense and sparse linear algebra for dependability models.
//!
//! Availability and performability models (Markov chains, reward models)
//! reduce to small-to-medium linear-algebra problems: solving `Ax = b`,
//! computing stationary vectors `πQ = 0`, and inverting fundamental matrices
//! `(I - Q)^{-1}`. This crate provides exactly the kernels the rest of the
//! `uavail` workspace needs, with no external dependencies:
//!
//! * [`Matrix`] — dense, row-major `f64` matrix with the usual algebra.
//! * [`Lu`] — LU decomposition with partial pivoting (solve, determinant,
//!   inverse).
//! * [`CsrMatrix`] — compressed sparse row matrix with matrix–vector
//!   products for iterative methods.
//! * [`iterative`] — Jacobi, Gauss–Seidel, SOR and power iteration.
//!
//! Numerical robustness matters more than speed here: availability models mix
//! rates spanning many orders of magnitude (failures per hour vs. requests
//! per second). The API surfaces residuals and convergence diagnostics so
//! callers can verify solutions instead of trusting them blindly.
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
pub mod iterative;
mod lu;
mod matrix;
mod sparse;
mod tridiagonal;
pub mod vector;

pub use error::LinalgError;
pub use lu::{solve, Lu, LuWorkspace};
pub use matrix::Matrix;
pub use sparse::{CsrBuilder, CsrMatrix, Triplet};
pub use tridiagonal::Tridiagonal;

/// Default tolerance used by convergence checks throughout the crate.
pub const DEFAULT_TOLERANCE: f64 = 1e-12;

/// Default iteration cap for iterative solvers.
pub const DEFAULT_MAX_ITERATIONS: usize = 100_000;
