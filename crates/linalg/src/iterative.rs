//! Iterative solvers: Jacobi, Gauss–Seidel, SOR for `A·x = b`, and power
//! iteration for dominant-eigenvector problems (`x ← x·P` for stochastic
//! `P`).
//!
//! These are the sparse counterparts to the dense [`crate::Lu`] path. For the
//! moderately sized, diagonally structured systems produced by availability
//! models they converge quickly and avoid fill-in entirely.

use crate::vector::{max_abs_diff, normalize_probability};
use crate::{CsrMatrix, LinalgError, DEFAULT_MAX_ITERATIONS, DEFAULT_TOLERANCE};

/// Options controlling an iterative solve.
///
/// # Examples
///
/// ```
/// use uavail_linalg::iterative::IterOptions;
/// let opts = IterOptions::new().tolerance(1e-10).max_iterations(5_000);
/// assert_eq!(opts.tolerance_value(), 1e-10);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct IterOptions {
    tolerance: f64,
    max_iterations: usize,
    /// Relaxation factor for SOR; 1.0 degenerates to Gauss–Seidel.
    relaxation: f64,
}

impl IterOptions {
    /// Creates options with the crate defaults
    /// ([`DEFAULT_TOLERANCE`], [`DEFAULT_MAX_ITERATIONS`], relaxation 1.0).
    pub fn new() -> Self {
        IterOptions {
            tolerance: DEFAULT_TOLERANCE,
            max_iterations: DEFAULT_MAX_ITERATIONS,
            relaxation: 1.0,
        }
    }

    /// Sets the convergence tolerance (max-norm of successive differences).
    ///
    /// # Panics
    ///
    /// Panics if `tol` is not strictly positive and finite.
    pub fn tolerance(mut self, tol: f64) -> Self {
        assert!(tol.is_finite() && tol > 0.0, "tolerance must be positive");
        self.tolerance = tol;
        self
    }

    /// Sets the iteration cap.
    pub fn max_iterations(mut self, n: usize) -> Self {
        self.max_iterations = n;
        self
    }

    /// Sets the SOR relaxation factor `ω ∈ (0, 2)`.
    ///
    /// # Panics
    ///
    /// Panics if `omega` is outside `(0, 2)`.
    pub fn relaxation(mut self, omega: f64) -> Self {
        assert!(
            omega > 0.0 && omega < 2.0,
            "SOR relaxation must lie in (0, 2)"
        );
        self.relaxation = omega;
        self
    }

    /// Returns the configured tolerance.
    pub fn tolerance_value(&self) -> f64 {
        self.tolerance
    }

    /// Returns the configured iteration cap.
    pub fn max_iterations_value(&self) -> usize {
        self.max_iterations
    }

    /// Returns the configured relaxation factor.
    pub fn relaxation_value(&self) -> f64 {
        self.relaxation
    }
}

impl Default for IterOptions {
    fn default() -> Self {
        IterOptions::new()
    }
}

/// Outcome of a converged iterative solve.
#[derive(Debug, Clone, PartialEq)]
pub struct IterSolution {
    /// The solution vector.
    pub x: Vec<f64>,
    /// Iterations actually performed.
    pub iterations: usize,
    /// Final max-norm difference between successive iterates.
    pub residual: f64,
}

fn check_system(a: &CsrMatrix, b: &[f64]) -> Result<(), LinalgError> {
    if a.rows() != a.cols() {
        return Err(LinalgError::NotSquare { shape: a.shape() });
    }
    if b.len() != a.rows() {
        return Err(LinalgError::ShapeMismatch {
            operation: "iterative_solve",
            left: a.shape(),
            right: (b.len(), 1),
        });
    }
    Ok(())
}

/// Solves `A·x = b` with Jacobi iteration.
///
/// # Errors
///
/// * [`LinalgError::NotSquare`] / [`LinalgError::ShapeMismatch`] for bad
///   shapes.
/// * [`LinalgError::Singular`] when a diagonal entry is zero.
/// * [`LinalgError::NotConverged`] if the tolerance is not met within the
///   iteration cap (Jacobi requires diagonal dominance to be guaranteed to
///   converge).
///
/// # Examples
///
/// ```
/// use uavail_linalg::{CsrMatrix, Matrix};
/// use uavail_linalg::iterative::{jacobi, IterOptions};
///
/// # fn main() -> Result<(), uavail_linalg::LinalgError> {
/// let a = CsrMatrix::from_dense(&Matrix::from_rows(&[&[4.0, 1.0], &[1.0, 3.0]])?, 0.0);
/// let sol = jacobi(&a, &[1.0, 2.0], IterOptions::new())?;
/// assert!((4.0 * sol.x[0] + sol.x[1] - 1.0).abs() < 1e-9);
/// # Ok(())
/// # }
/// ```
pub fn jacobi(a: &CsrMatrix, b: &[f64], opts: IterOptions) -> Result<IterSolution, LinalgError> {
    check_system(a, b)?;
    let n = a.rows();
    let diag = a.diagonal();
    if let Some(i) = diag.iter().position(|&d| d == 0.0) {
        return Err(LinalgError::Singular { pivot: i });
    }
    let mut x = vec![0.0; n];
    let mut next = vec![0.0; n];
    let mut residual = f64::INFINITY;
    for it in 1..=opts.max_iterations {
        for r in 0..n {
            let mut sum = b[r];
            for (c, v) in a.row_entries(r) {
                if c != r {
                    sum -= v * x[c];
                }
            }
            next[r] = sum / diag[r];
        }
        residual = max_abs_diff(&x, &next);
        std::mem::swap(&mut x, &mut next);
        if residual <= opts.tolerance {
            return Ok(IterSolution {
                x,
                iterations: it,
                residual,
            });
        }
    }
    Err(LinalgError::NotConverged {
        iterations: opts.max_iterations,
        residual,
        tolerance: opts.tolerance,
    })
}

/// Solves `A·x = b` with Gauss–Seidel (SOR when
/// [`IterOptions::relaxation`] ≠ 1).
///
/// # Errors
///
/// Same contract as [`jacobi`].
pub fn gauss_seidel(
    a: &CsrMatrix,
    b: &[f64],
    opts: IterOptions,
) -> Result<IterSolution, LinalgError> {
    check_system(a, b)?;
    let n = a.rows();
    let diag = a.diagonal();
    if let Some(i) = diag.iter().position(|&d| d == 0.0) {
        return Err(LinalgError::Singular { pivot: i });
    }
    let omega = opts.relaxation;
    let mut x = vec![0.0; n];
    let mut residual = f64::INFINITY;
    for it in 1..=opts.max_iterations {
        let mut max_delta = 0.0f64;
        for r in 0..n {
            let mut sum = b[r];
            for (c, v) in a.row_entries(r) {
                if c != r {
                    sum -= v * x[c];
                }
            }
            let new = (1.0 - omega) * x[r] + omega * sum / diag[r];
            max_delta = max_delta.max((new - x[r]).abs());
            x[r] = new;
        }
        residual = max_delta;
        if residual <= opts.tolerance {
            return Ok(IterSolution {
                x,
                iterations: it,
                residual,
            });
        }
    }
    Err(LinalgError::NotConverged {
        iterations: opts.max_iterations,
        residual,
        tolerance: opts.tolerance,
    })
}

/// Power iteration for the stationary row-vector of a stochastic matrix:
/// iterates `x ← x·P` with L1 normalization until the iterates stop moving.
///
/// The caller is responsible for `P` being row-stochastic and the chain being
/// ergodic (irreducible + aperiodic); otherwise the iteration may oscillate
/// and report [`LinalgError::NotConverged`].
///
/// # Errors
///
/// * [`LinalgError::NotSquare`] for a non-square matrix.
/// * [`LinalgError::NotConverged`] when the cap is reached.
///
/// # Examples
///
/// ```
/// use uavail_linalg::{CsrMatrix, Matrix};
/// use uavail_linalg::iterative::{power_stationary, IterOptions};
///
/// # fn main() -> Result<(), uavail_linalg::LinalgError> {
/// let p = CsrMatrix::from_dense(
///     &Matrix::from_rows(&[&[0.9, 0.1], &[0.5, 0.5]])?, 0.0);
/// let sol = power_stationary(&p, IterOptions::new().tolerance(1e-14))?;
/// assert!((sol.x[0] - 5.0 / 6.0).abs() < 1e-10);
/// # Ok(())
/// # }
/// ```
pub fn power_stationary(p: &CsrMatrix, opts: IterOptions) -> Result<IterSolution, LinalgError> {
    if p.rows() != p.cols() {
        return Err(LinalgError::NotSquare { shape: p.shape() });
    }
    let n = p.rows();
    if n == 0 {
        return Err(LinalgError::Empty);
    }
    let mut x = vec![1.0 / n as f64; n];
    let mut next = Vec::with_capacity(n);
    let mut residual = f64::INFINITY;
    for it in 1..=opts.max_iterations {
        p.vec_mul_into(&x, &mut next)?;
        normalize_probability(&mut next).map_err(|_| LinalgError::InvalidInput {
            reason: "matrix is not substochastic-compatible: iterate sum vanished".into(),
        })?;
        residual = max_abs_diff(&x, &next);
        std::mem::swap(&mut x, &mut next);
        if residual <= opts.tolerance {
            return Ok(IterSolution {
                x,
                iterations: it,
                residual,
            });
        }
    }
    Err(LinalgError::NotConverged {
        iterations: opts.max_iterations,
        residual,
        tolerance: opts.tolerance,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Matrix;

    fn diag_dominant() -> CsrMatrix {
        CsrMatrix::from_dense(
            &Matrix::from_rows(&[&[10.0, -1.0, 2.0], &[-1.0, 11.0, -1.0], &[2.0, -1.0, 10.0]])
                .unwrap(),
            0.0,
        )
    }

    #[test]
    fn jacobi_converges_on_diagonally_dominant() {
        let a = diag_dominant();
        let b = [6.0, 25.0, -11.0];
        let sol = jacobi(&a, &b, IterOptions::new().tolerance(1e-12)).unwrap();
        let ax = a.mul_vec(&sol.x).unwrap();
        assert!(max_abs_diff(&ax, &b) < 1e-9);
    }

    #[test]
    fn gauss_seidel_converges_faster_than_jacobi() {
        let a = diag_dominant();
        let b = [6.0, 25.0, -11.0];
        let opts = IterOptions::new().tolerance(1e-12);
        let j = jacobi(&a, &b, opts).unwrap();
        let gs = gauss_seidel(&a, &b, opts).unwrap();
        assert!(gs.iterations <= j.iterations);
    }

    #[test]
    fn sor_with_relaxation_converges() {
        let a = diag_dominant();
        let b = [6.0, 25.0, -11.0];
        let sol = gauss_seidel(&a, &b, IterOptions::new().relaxation(1.1)).unwrap();
        let ax = a.mul_vec(&sol.x).unwrap();
        assert!(max_abs_diff(&ax, &b) < 1e-9);
    }

    #[test]
    fn zero_diagonal_is_singular_error() {
        let a = CsrMatrix::from_dense(
            &Matrix::from_rows(&[&[0.0, 1.0], &[1.0, 1.0]]).unwrap(),
            0.0,
        );
        assert!(matches!(
            jacobi(&a, &[1.0, 1.0], IterOptions::new()),
            Err(LinalgError::Singular { .. })
        ));
        assert!(matches!(
            gauss_seidel(&a, &[1.0, 1.0], IterOptions::new()),
            Err(LinalgError::Singular { .. })
        ));
    }

    #[test]
    fn non_convergence_is_reported() {
        // Not diagonally dominant; Jacobi diverges.
        let a = CsrMatrix::from_dense(
            &Matrix::from_rows(&[&[1.0, 3.0], &[4.0, 1.0]]).unwrap(),
            0.0,
        );
        let err = jacobi(&a, &[1.0, 1.0], IterOptions::new().max_iterations(50)).unwrap_err();
        assert!(matches!(err, LinalgError::NotConverged { .. }));
    }

    #[test]
    fn power_iteration_two_state_chain() {
        // Birth-death chain with known stationary distribution.
        let p = CsrMatrix::from_dense(
            &Matrix::from_rows(&[&[0.7, 0.3], &[0.6, 0.4]]).unwrap(),
            0.0,
        );
        let sol = power_stationary(&p, IterOptions::new().tolerance(1e-14)).unwrap();
        // pi = (2/3, 1/3)
        assert!((sol.x[0] - 2.0 / 3.0).abs() < 1e-10);
        assert!((sol.x[1] - 1.0 / 3.0).abs() < 1e-10);
    }

    #[test]
    fn power_iteration_shape_check() {
        let p = CsrMatrix::from_dense(&Matrix::zeros(2, 3), 0.0);
        assert!(matches!(
            power_stationary(&p, IterOptions::new()),
            Err(LinalgError::NotSquare { .. })
        ));
    }

    #[test]
    #[should_panic(expected = "relaxation")]
    fn invalid_relaxation_panics() {
        let _ = IterOptions::new().relaxation(2.5);
    }
}
