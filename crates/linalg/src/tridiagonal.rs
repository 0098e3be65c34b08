//! Tridiagonal systems — the Thomas algorithm.
//!
//! Birth–death generators are tridiagonal; solving their balance equations
//! with a specialized O(n) elimination instead of dense O(n³) LU matters
//! once chains get long (large buffers, many servers). The `solvers` bench
//! compares this path against GTH and dense LU.

use crate::LinalgError;

/// A tridiagonal matrix stored as three diagonals.
///
/// Row `i` is `(lower[i-1], diag[i], upper[i])`; `lower` and `upper` have
/// length `n - 1`.
///
/// # Examples
///
/// ```
/// use uavail_linalg::Tridiagonal;
///
/// # fn main() -> Result<(), uavail_linalg::LinalgError> {
/// // [2 1 0; 1 2 1; 0 1 2] x = [4; 8; 8] -> x = [1; 2; 3].
/// let m = Tridiagonal::new(vec![1.0, 1.0], vec![2.0, 2.0, 2.0], vec![1.0, 1.0])?;
/// let x = m.solve(&[4.0, 8.0, 8.0])?;
/// assert!((x[0] - 1.0).abs() < 1e-12);
/// assert!((x[1] - 2.0).abs() < 1e-12);
/// assert!((x[2] - 3.0).abs() < 1e-12);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Tridiagonal {
    lower: Vec<f64>,
    diag: Vec<f64>,
    upper: Vec<f64>,
}

impl Tridiagonal {
    /// Creates a tridiagonal matrix from its three diagonals.
    ///
    /// # Errors
    ///
    /// * [`LinalgError::Empty`] when `diag` is empty.
    /// * [`LinalgError::InvalidInput`] when the off-diagonals do not have
    ///   length `diag.len() - 1` or any entry is not finite.
    pub fn new(lower: Vec<f64>, diag: Vec<f64>, upper: Vec<f64>) -> Result<Self, LinalgError> {
        if diag.is_empty() {
            return Err(LinalgError::Empty);
        }
        let n = diag.len();
        if lower.len() != n - 1 || upper.len() != n - 1 {
            return Err(LinalgError::InvalidInput {
                reason: format!(
                    "off-diagonals must have length {} (got {} and {})",
                    n - 1,
                    lower.len(),
                    upper.len()
                ),
            });
        }
        for v in lower.iter().chain(diag.iter()).chain(upper.iter()) {
            if !v.is_finite() {
                return Err(LinalgError::InvalidInput {
                    reason: "non-finite entry".into(),
                });
            }
        }
        Ok(Tridiagonal { lower, diag, upper })
    }

    /// Dimension of the (square) matrix.
    pub fn dim(&self) -> usize {
        self.diag.len()
    }

    /// Solves `A·x = b` with the Thomas algorithm (no pivoting — requires
    /// the matrix to be diagonally dominant or positive definite, which
    /// shifted birth–death balance systems are).
    ///
    /// # Errors
    ///
    /// * [`LinalgError::ShapeMismatch`] when `b.len() != self.dim()`.
    /// * [`LinalgError::Singular`] when elimination hits a vanishing pivot.
    pub fn solve(&self, b: &[f64]) -> Result<Vec<f64>, LinalgError> {
        let n = self.dim();
        if b.len() != n {
            return Err(LinalgError::ShapeMismatch {
                operation: "tridiagonal_solve",
                left: (n, n),
                right: (b.len(), 1),
            });
        }
        let mut c_prime = vec![0.0; n];
        let mut d_prime = vec![0.0; n];
        if self.diag[0].abs() < 1e-300 {
            return Err(LinalgError::Singular { pivot: 0 });
        }
        c_prime[0] = if n > 1 {
            self.upper[0] / self.diag[0]
        } else {
            0.0
        };
        d_prime[0] = b[0] / self.diag[0];
        for i in 1..n {
            let m = self.diag[i] - self.lower[i - 1] * c_prime[i - 1];
            if m.abs() < 1e-300 {
                return Err(LinalgError::Singular { pivot: i });
            }
            if i < n - 1 {
                c_prime[i] = self.upper[i] / m;
            }
            d_prime[i] = (b[i] - self.lower[i - 1] * d_prime[i - 1]) / m;
        }
        let mut x = d_prime;
        for i in (0..n - 1).rev() {
            let next = x[i + 1];
            x[i] -= c_prime[i] * next;
        }
        Ok(x)
    }

    /// Matrix–vector product `A·x`.
    ///
    /// # Errors
    ///
    /// [`LinalgError::ShapeMismatch`] on length mismatch.
    pub fn mul_vec(&self, x: &[f64]) -> Result<Vec<f64>, LinalgError> {
        let n = self.dim();
        if x.len() != n {
            return Err(LinalgError::ShapeMismatch {
                operation: "tridiagonal_mul_vec",
                left: (n, n),
                right: (x.len(), 1),
            });
        }
        let mut out = vec![0.0; n];
        for i in 0..n {
            let mut sum = self.diag[i] * x[i];
            if i > 0 {
                sum += self.lower[i - 1] * x[i - 1];
            }
            if i < n - 1 {
                sum += self.upper[i] * x[i + 1];
            }
            out[i] = sum;
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Lu, Matrix};

    fn to_dense(t: &Tridiagonal) -> Matrix {
        let n = t.dim();
        let mut m = Matrix::zeros(n, n);
        let e = vec![0.0; n];
        for j in 0..n {
            let mut unit = e.clone();
            unit[j] = 1.0;
            let col = t.mul_vec(&unit).unwrap();
            for i in 0..n {
                m[(i, j)] = col[i];
            }
        }
        m
    }

    #[test]
    fn validation() {
        assert!(Tridiagonal::new(vec![], vec![], vec![]).is_err());
        assert!(Tridiagonal::new(vec![1.0], vec![1.0], vec![]).is_err());
        assert!(Tridiagonal::new(vec![], vec![f64::NAN], vec![]).is_err());
        assert!(Tridiagonal::new(vec![], vec![1.0], vec![]).is_ok());
    }

    #[test]
    fn single_entry() {
        let t = Tridiagonal::new(vec![], vec![4.0], vec![]).unwrap();
        assert_eq!(t.solve(&[8.0]).unwrap(), vec![2.0]);
    }

    #[test]
    fn matches_dense_lu() {
        // Diagonally dominant random-ish tridiagonal system.
        let n = 12;
        let lower: Vec<f64> = (0..n - 1).map(|i| -(0.3 + 0.05 * i as f64)).collect();
        let upper: Vec<f64> = (0..n - 1).map(|i| -(0.2 + 0.07 * i as f64)).collect();
        let diag: Vec<f64> = (0..n).map(|i| 2.5 + 0.1 * i as f64).collect();
        let t = Tridiagonal::new(lower, diag, upper).unwrap();
        let b: Vec<f64> = (0..n).map(|i| (i as f64).sin()).collect();
        let x = t.solve(&b).unwrap();
        let dense = to_dense(&t);
        let x_ref = Lu::new(&dense).unwrap().solve(&b).unwrap();
        for (a, r) in x.iter().zip(&x_ref) {
            assert!((a - r).abs() < 1e-10, "{a} vs {r}");
        }
        // Residual check.
        let ax = t.mul_vec(&x).unwrap();
        for (l, r) in ax.iter().zip(&b) {
            assert!((l - r).abs() < 1e-10);
        }
    }

    #[test]
    fn detects_singularity() {
        let t = Tridiagonal::new(vec![1.0], vec![0.0, 1.0], vec![1.0]).unwrap();
        assert!(matches!(
            t.solve(&[1.0, 1.0]),
            Err(LinalgError::Singular { .. })
        ));
    }

    #[test]
    fn shape_checks() {
        let t = Tridiagonal::new(vec![1.0], vec![2.0, 2.0], vec![1.0]).unwrap();
        assert!(t.solve(&[1.0]).is_err());
        assert!(t.mul_vec(&[1.0, 2.0, 3.0]).is_err());
    }

    #[test]
    fn birth_death_hitting_time_system() {
        // Mean hitting time of state 0 for a birth-death chain solves a
        // tridiagonal system: (Q restricted) h = -1.
        // Chain: 3 states {0,1,2}, birth 1.0, death 2.0. From state 2:
        // h2; from 1: h1. Solve [[-(2+1),1],[2,-2]] h = [-1,-1]:
        // -3h1 + 1h2 = -1; 2h1 - 2h2 = -1 => h1 = 0.75, h2 = 1.25.
        let t = Tridiagonal::new(vec![2.0], vec![-3.0, -2.0], vec![1.0]).unwrap();
        let h = t.solve(&[-1.0, -1.0]).unwrap();
        assert!((h[0] - 0.75).abs() < 1e-12);
        assert!((h[1] - 1.25).abs() < 1e-12);
    }
}
