use crate::{LinalgError, Matrix};

/// LU decomposition with partial (row) pivoting: `P·A = L·U`.
///
/// The decomposition is computed once and can then be reused to solve many
/// right-hand sides, compute the determinant, or form the explicit inverse —
/// exactly the access pattern of Markov-reward solvers that repeatedly solve
/// against the same fundamental matrix.
///
/// # Examples
///
/// ```
/// use uavail_linalg::{Lu, Matrix};
///
/// # fn main() -> Result<(), uavail_linalg::LinalgError> {
/// let a = Matrix::from_rows(&[&[2.0, 1.0], &[1.0, 3.0]])?;
/// let lu = Lu::new(&a)?;
/// let x = lu.solve(&[3.0, 5.0])?;
/// assert!((x[0] - 0.8).abs() < 1e-12);
/// assert!((x[1] - 1.4).abs() < 1e-12);
/// assert!((lu.determinant() - 5.0).abs() < 1e-12);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct Lu {
    /// Combined L (strictly lower, unit diagonal implied) and U (upper).
    factors: Matrix,
    /// Row permutation: `perm[i]` is the original row now in position `i`.
    perm: Vec<usize>,
    /// Sign of the permutation (+1.0 or -1.0), used by the determinant.
    sign: f64,
}

/// Pivot magnitudes below this threshold are treated as singular.
const SINGULARITY_THRESHOLD: f64 = 1e-300;

/// Factors the matrix held in `f` in place (combined L/U layout), recording
/// the row permutation in `perm` and returning its sign.
///
/// This is the single factorization kernel shared by [`Lu::new`] and
/// [`LuWorkspace::factor`], so the owned and workspace paths execute the
/// exact same floating-point operations in the same order.
fn factor_in_place(f: &mut Matrix, perm: &mut Vec<usize>) -> Result<f64, LinalgError> {
    let n = f.rows();
    // Injection sites (inert unless `uavail-faultinject` is enabled):
    // a forced singularity exercises callers' typed-error paths, and a
    // perturbed leading pivot silently degrades the factorization so the
    // residual/health checks above this layer have something to catch.
    if n > 0 && uavail_faultinject::fired("linalg.lu.force_singular") {
        return Err(LinalgError::Singular { pivot: 0 });
    }
    if n > 0 && uavail_faultinject::fired("linalg.lu.pivot_perturb") {
        let perturbed = f[(0, 0)] * (1.0 + 1e-3) + 1e-6;
        f[(0, 0)] = perturbed;
    }
    perm.clear();
    perm.extend(0..n);
    let mut sign = 1.0;
    // Smallest pivot magnitude of the factorization — the health layer's
    // early-warning proxy for near-singularity. Tracking it is one f64
    // `min` per column and never branches on recorder state.
    let mut min_pivot = f64::INFINITY;

    for k in 0..n {
        // Partial pivoting: find the largest |entry| in column k at or
        // below the diagonal.
        let mut pivot_row = k;
        let mut pivot_val = f[(k, k)].abs();
        for r in (k + 1)..n {
            let v = f[(r, k)].abs();
            if v > pivot_val {
                pivot_val = v;
                pivot_row = r;
            }
        }
        if pivot_val < SINGULARITY_THRESHOLD {
            return Err(LinalgError::Singular { pivot: k });
        }
        min_pivot = min_pivot.min(pivot_val);
        if pivot_row != k {
            for c in 0..n {
                let tmp = f[(k, c)];
                f[(k, c)] = f[(pivot_row, c)];
                f[(pivot_row, c)] = tmp;
            }
            perm.swap(k, pivot_row);
            sign = -sign;
        }
        let pivot = f[(k, k)];
        for r in (k + 1)..n {
            let m = f[(r, k)] / pivot;
            f[(r, k)] = m;
            if m != 0.0 {
                for c in (k + 1)..n {
                    let u = f[(k, c)];
                    f[(r, c)] -= m * u;
                }
            }
        }
    }
    if n > 0 && uavail_obs::enabled() {
        uavail_obs::health_record("linalg.lu.min_pivot", min_pivot);
    }
    Ok(sign)
}

/// Forward- and back-substitutes `x` (already permuted) through the combined
/// L/U factors, leaving the solution of `A·x = b` in place.
fn substitute_in_place(factors: &Matrix, x: &mut [f64]) {
    let n = factors.rows();
    for r in 1..n {
        let mut sum = x[r];
        for c in 0..r {
            sum -= factors[(r, c)] * x[c];
        }
        x[r] = sum;
    }
    for r in (0..n).rev() {
        let mut sum = x[r];
        for c in (r + 1)..n {
            sum -= factors[(r, c)] * x[c];
        }
        x[r] = sum / factors[(r, r)];
    }
}

/// Substitutes `y` through the transposed factors: on return `y = P·x` where
/// `Aᵀ·x = b` for the `b` initially held in `y`.
fn substitute_transposed_in_place(factors: &Matrix, y: &mut [f64]) {
    let n = factors.rows();
    // Forward substitution with Uᵀ (lower triangular with diagonal).
    for r in 0..n {
        let mut sum = y[r];
        for c in 0..r {
            sum -= factors[(c, r)] * y[c];
        }
        y[r] = sum / factors[(r, r)];
    }
    // Back substitution with Lᵀ (unit upper triangular).
    for r in (0..n).rev() {
        let mut sum = y[r];
        for c in (r + 1)..n {
            sum -= factors[(c, r)] * y[c];
        }
        y[r] = sum;
    }
}

impl Lu {
    /// Factorizes the square matrix `a`.
    ///
    /// # Errors
    ///
    /// * [`LinalgError::NotSquare`] if `a` is not square.
    /// * [`LinalgError::Empty`] if `a` has zero size.
    /// * [`LinalgError::Singular`] if a pivot underflows to zero, meaning the
    ///   matrix is singular to working precision.
    pub fn new(a: &Matrix) -> Result<Self, LinalgError> {
        if !a.is_square() {
            return Err(LinalgError::NotSquare { shape: a.shape() });
        }
        let n = a.rows();
        if n == 0 {
            return Err(LinalgError::Empty);
        }
        let mut f = a.clone();
        let mut perm = Vec::new();
        let sign = factor_in_place(&mut f, &mut perm)?;
        Ok(Lu {
            factors: f,
            perm,
            sign,
        })
    }

    /// Dimension of the factorized matrix.
    pub fn dim(&self) -> usize {
        self.factors.rows()
    }

    /// Solves `A·x = b` for `x` using the stored factorization.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::ShapeMismatch`] if `b.len() != self.dim()`.
    pub fn solve(&self, b: &[f64]) -> Result<Vec<f64>, LinalgError> {
        let n = self.dim();
        if b.len() != n {
            return Err(LinalgError::ShapeMismatch {
                operation: "lu_solve",
                left: (n, n),
                right: (b.len(), 1),
            });
        }
        // Apply the permutation, then forward- and back-substitute.
        let mut x: Vec<f64> = self.perm.iter().map(|&p| b[p]).collect();
        substitute_in_place(&self.factors, &mut x);
        Ok(x)
    }

    /// Solves `A·x = b` into the caller-owned vector `x`, reusing its
    /// allocation.
    ///
    /// Performs exactly the same floating-point operations as [`Lu::solve`],
    /// so the results are bit-for-bit identical; the only difference is that
    /// `x` is cleared and refilled instead of freshly allocated.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::ShapeMismatch`] if `b.len() != self.dim()`.
    pub fn solve_into(&self, b: &[f64], x: &mut Vec<f64>) -> Result<(), LinalgError> {
        let n = self.dim();
        if b.len() != n {
            return Err(LinalgError::ShapeMismatch {
                operation: "lu_solve",
                left: (n, n),
                right: (b.len(), 1),
            });
        }
        x.clear();
        x.extend(self.perm.iter().map(|&p| b[p]));
        substitute_in_place(&self.factors, x);
        Ok(())
    }

    /// Solves `xᵀ·A = bᵀ` (equivalently `Aᵀ·x = b`), the orientation used by
    /// stationary-distribution equations `π·Q = 0`.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::ShapeMismatch`] if `b.len() != self.dim()`.
    pub fn solve_transposed(&self, b: &[f64]) -> Result<Vec<f64>, LinalgError> {
        let n = self.dim();
        if b.len() != n {
            return Err(LinalgError::ShapeMismatch {
                operation: "lu_solve_transposed",
                left: (n, n),
                right: (b.len(), 1),
            });
        }
        // P·A = L·U  =>  Aᵀ·x = b  <=>  Uᵀ·(Lᵀ·(P·x)) = b.
        let mut y = b.to_vec();
        substitute_transposed_in_place(&self.factors, &mut y);
        // Undo the permutation: y = P·x, so x[perm[i]] = y[i].
        let mut x = vec![0.0; n];
        for (i, &p) in self.perm.iter().enumerate() {
            x[p] = y[i];
        }
        Ok(x)
    }

    /// Determinant of the original matrix.
    pub fn determinant(&self) -> f64 {
        let mut det = self.sign;
        for i in 0..self.dim() {
            det *= self.factors[(i, i)];
        }
        det
    }

    /// Explicit inverse of the original matrix.
    ///
    /// Prefer [`Lu::solve`] when only products with the inverse are needed;
    /// the explicit inverse is provided for fundamental-matrix computations
    /// `N = (I - Q)^{-1}` where all entries are themselves meaningful
    /// (expected visit counts).
    ///
    /// # Errors
    ///
    /// Propagates errors from the per-column solves (none expected for a
    /// successfully constructed factorization).
    pub fn inverse(&self) -> Result<Matrix, LinalgError> {
        let n = self.dim();
        let mut inv = Matrix::zeros(n, n);
        let mut e = vec![0.0; n];
        for c in 0..n {
            e[c] = 1.0;
            let col = self.solve(&e)?;
            e[c] = 0.0;
            for r in 0..n {
                inv[(r, c)] = col[r];
            }
        }
        Ok(inv)
    }
}

/// Convenience one-shot solve of `A·x = b`.
///
/// # Errors
///
/// Propagates factorization and shape errors from [`Lu`].
///
/// # Examples
///
/// ```
/// use uavail_linalg::Matrix;
///
/// # fn main() -> Result<(), uavail_linalg::LinalgError> {
/// let a = Matrix::identity(2);
/// let x = uavail_linalg::solve(&a, &[7.0, 8.0])?;
/// assert_eq!(x, vec![7.0, 8.0]);
/// # Ok(())
/// # }
/// ```
pub fn solve(a: &Matrix, b: &[f64]) -> Result<Vec<f64>, LinalgError> {
    let x = Lu::new(a)?.solve(b)?;
    if uavail_obs::enabled() {
        record_solve_health(a, b, &x);
    }
    Ok(x)
}

/// Health gauge for a one-shot solve: the residual `‖A·x − b‖∞`. Only
/// reached while recording is on (the extra matvec never runs on the
/// production path) and purely observational — `x` is returned untouched.
#[cold]
fn record_solve_health(a: &Matrix, b: &[f64], x: &[f64]) {
    let n = a.rows();
    let mut residual = 0.0f64;
    for r in 0..n {
        let mut acc = 0.0;
        for (c, xc) in x.iter().enumerate() {
            acc += a[(r, c)] * xc;
        }
        residual = residual.max((acc - b[r]).abs());
    }
    uavail_obs::health_record("linalg.lu.residual", residual);
}

/// A reusable LU factorization workspace: factor-in-place into caller-owned
/// storage so that sweep loops solving many same-sized systems allocate
/// nothing after warm-up.
///
/// The workspace runs the same kernels as [`Lu`], so every solve is
/// bit-for-bit identical to the owned path.
///
/// # Examples
///
/// ```
/// use uavail_linalg::{LuWorkspace, Matrix};
///
/// # fn main() -> Result<(), uavail_linalg::LinalgError> {
/// let mut ws = LuWorkspace::new();
/// let mut x = Vec::new();
/// for scale in [1.0, 2.0, 4.0] {
///     let a = Matrix::from_rows(&[&[2.0 * scale, 1.0], &[1.0, 3.0]])?;
///     ws.factor(&a)?;
///     ws.solve_into(&[3.0, 5.0], &mut x)?;
///     assert!((a.mul_vec(&x)?[0] - 3.0).abs() < 1e-12);
/// }
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct LuWorkspace {
    factors: Matrix,
    perm: Vec<usize>,
    sign: f64,
    factored: bool,
}

impl Default for LuWorkspace {
    fn default() -> Self {
        LuWorkspace::new()
    }
}

impl LuWorkspace {
    /// Creates an empty workspace; storage grows on first use.
    pub fn new() -> Self {
        LuWorkspace {
            factors: Matrix::zeros(0, 0),
            perm: Vec::new(),
            sign: 1.0,
            factored: false,
        }
    }

    /// Factorizes `a` into the workspace's storage, reusing allocations.
    ///
    /// # Errors
    ///
    /// As for [`Lu::new`]. On error the workspace is left unfactored.
    pub fn factor(&mut self, a: &Matrix) -> Result<(), LinalgError> {
        if !a.is_square() {
            return Err(LinalgError::NotSquare { shape: a.shape() });
        }
        if a.rows() == 0 {
            return Err(LinalgError::Empty);
        }
        self.factored = false;
        self.factors.copy_from(a);
        self.sign = factor_in_place(&mut self.factors, &mut self.perm)?;
        self.factored = true;
        Ok(())
    }

    /// Dimension of the currently factored matrix (0 when unfactored).
    pub fn dim(&self) -> usize {
        if self.factored {
            self.factors.rows()
        } else {
            0
        }
    }

    /// Solves `A·x = b` into `x` using the stored factorization.
    ///
    /// # Errors
    ///
    /// [`LinalgError::InvalidInput`] if no factorization is stored,
    /// [`LinalgError::ShapeMismatch`] if `b.len()` differs from the factored
    /// dimension.
    pub fn solve_into(&self, b: &[f64], x: &mut Vec<f64>) -> Result<(), LinalgError> {
        let n = self.checked_dim(b.len(), "lu_workspace_solve")?;
        x.clear();
        x.extend(self.perm.iter().map(|&p| b[p]));
        debug_assert_eq!(x.len(), n);
        substitute_in_place(&self.factors, x);
        Ok(())
    }

    /// Determinant of the most recently factored matrix.
    ///
    /// # Errors
    ///
    /// [`LinalgError::InvalidInput`] if no factorization is stored.
    pub fn determinant(&self) -> Result<f64, LinalgError> {
        if !self.factored {
            return Err(LinalgError::InvalidInput {
                reason: "workspace holds no factorization".into(),
            });
        }
        let mut det = self.sign;
        for i in 0..self.factors.rows() {
            det *= self.factors[(i, i)];
        }
        Ok(det)
    }

    fn checked_dim(&self, b_len: usize, operation: &'static str) -> Result<usize, LinalgError> {
        if !self.factored {
            return Err(LinalgError::InvalidInput {
                reason: "workspace holds no factorization".into(),
            });
        }
        let n = self.factors.rows();
        if b_len != n {
            return Err(LinalgError::ShapeMismatch {
                operation,
                left: (n, n),
                right: (b_len, 1),
            });
        }
        Ok(n)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn residual(a: &Matrix, x: &[f64], b: &[f64]) -> f64 {
        let ax = a.mul_vec(x).unwrap();
        ax.iter()
            .zip(b)
            .map(|(l, r)| (l - r).abs())
            .fold(0.0, f64::max)
    }

    #[test]
    fn solves_small_system() {
        let a =
            Matrix::from_rows(&[&[3.0, 2.0, -1.0], &[2.0, -2.0, 4.0], &[-1.0, 0.5, -1.0]]).unwrap();
        let b = [1.0, -2.0, 0.0];
        let lu = Lu::new(&a).unwrap();
        let x = lu.solve(&b).unwrap();
        // Known solution x = (1, -2, -2).
        assert!((x[0] - 1.0).abs() < 1e-12);
        assert!((x[1] + 2.0).abs() < 1e-12);
        assert!((x[2] + 2.0).abs() < 1e-12);
        assert!(residual(&a, &x, &b) < 1e-12);
    }

    #[test]
    fn pivoting_handles_zero_leading_entry() {
        let a = Matrix::from_rows(&[&[0.0, 1.0], &[1.0, 0.0]]).unwrap();
        let x = Lu::new(&a).unwrap().solve(&[2.0, 3.0]).unwrap();
        assert_eq!(x, vec![3.0, 2.0]);
    }

    #[test]
    fn detects_singularity() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[2.0, 4.0]]).unwrap();
        assert!(matches!(Lu::new(&a), Err(LinalgError::Singular { .. })));
    }

    #[test]
    fn rejects_non_square() {
        let a = Matrix::zeros(2, 3);
        assert!(matches!(Lu::new(&a), Err(LinalgError::NotSquare { .. })));
    }

    #[test]
    fn determinant_with_permutation_sign() {
        let a = Matrix::from_rows(&[&[0.0, 1.0], &[1.0, 0.0]]).unwrap();
        let lu = Lu::new(&a).unwrap();
        assert!((lu.determinant() + 1.0).abs() < 1e-14);
        let b = Matrix::from_rows(&[&[2.0, 0.0], &[0.0, 3.0]]).unwrap();
        assert!((Lu::new(&b).unwrap().determinant() - 6.0).abs() < 1e-14);
    }

    #[test]
    fn inverse_matches_identity() {
        let a = Matrix::from_rows(&[&[4.0, 7.0], &[2.0, 6.0]]).unwrap();
        let inv = Lu::new(&a).unwrap().inverse().unwrap();
        let prod = a.mul_matrix(&inv).unwrap();
        let diff = prod.sub_matrix(&Matrix::identity(2)).unwrap();
        assert!(diff.max_abs() < 1e-12);
    }

    #[test]
    fn transposed_solve_matches_explicit_transpose() {
        let a = Matrix::from_rows(&[&[3.0, 1.0, 0.0], &[1.0, 4.0, 2.0], &[0.5, 0.0, 5.0]]).unwrap();
        let b = [1.0, 2.0, 3.0];
        let lu = Lu::new(&a).unwrap();
        let x = lu.solve_transposed(&b).unwrap();
        let at = a.transpose();
        let x_ref = Lu::new(&at).unwrap().solve(&b).unwrap();
        for (l, r) in x.iter().zip(&x_ref) {
            assert!((l - r).abs() < 1e-12, "{l} vs {r}");
        }
    }

    #[test]
    fn solve_rejects_wrong_length() {
        let lu = Lu::new(&Matrix::identity(3)).unwrap();
        assert!(lu.solve(&[1.0]).is_err());
        assert!(lu.solve_transposed(&[1.0]).is_err());
    }

    #[test]
    fn convenience_solve() {
        let a = Matrix::from_rows(&[&[2.0, 0.0], &[0.0, 4.0]]).unwrap();
        let x = super::solve(&a, &[2.0, 8.0]).unwrap();
        assert_eq!(x, vec![1.0, 2.0]);
    }

    #[test]
    fn solve_into_is_bit_identical_to_solve() {
        let a =
            Matrix::from_rows(&[&[3.0, 2.0, -1.0], &[2.0, -2.0, 4.0], &[-1.0, 0.5, -1.0]]).unwrap();
        let b = [1.0, -2.0, 0.25];
        let lu = Lu::new(&a).unwrap();
        let owned = lu.solve(&b).unwrap();
        let mut reused = vec![99.0; 7]; // stale, oversized: must be fully replaced
        lu.solve_into(&b, &mut reused).unwrap();
        assert_eq!(owned.len(), reused.len());
        for (l, r) in owned.iter().zip(&reused) {
            assert_eq!(l.to_bits(), r.to_bits());
        }
    }

    #[test]
    fn workspace_matches_owned_factorization_bit_for_bit() {
        let mut ws = LuWorkspace::new();
        let mut x = Vec::new();
        // Reuse one workspace across systems of different sizes and scales.
        for scale in [1.0, 0.5, 1e-6, 3.0e4] {
            let a = Matrix::from_rows(&[
                &[3.0 * scale, 1.0, 0.0],
                &[1.0, 4.0 * scale, 2.0],
                &[0.5, 0.0, 5.0 * scale],
            ])
            .unwrap();
            let b = [1.0, 2.0, 3.0];
            let lu = Lu::new(&a).unwrap();
            ws.factor(&a).unwrap();
            assert_eq!(ws.dim(), 3);
            ws.solve_into(&b, &mut x).unwrap();
            for (l, r) in lu.solve(&b).unwrap().iter().zip(&x) {
                assert_eq!(l.to_bits(), r.to_bits());
            }
            assert_eq!(
                ws.determinant().unwrap().to_bits(),
                lu.determinant().to_bits()
            );
        }
        // And across a size change (2x2 after 3x3).
        let a = Matrix::from_rows(&[&[0.0, 1.0], &[1.0, 0.0]]).unwrap();
        ws.factor(&a).unwrap();
        ws.solve_into(&[2.0, 3.0], &mut x).unwrap();
        assert_eq!(x, vec![3.0, 2.0]);
    }

    #[test]
    fn workspace_rejects_unfactored_and_bad_shapes() {
        let mut ws = LuWorkspace::new();
        let mut x = Vec::new();
        assert!(matches!(
            ws.solve_into(&[1.0], &mut x),
            Err(LinalgError::InvalidInput { .. })
        ));
        assert!(ws.determinant().is_err());
        assert!(matches!(
            ws.factor(&Matrix::zeros(2, 3)),
            Err(LinalgError::NotSquare { .. })
        ));
        assert!(matches!(
            ws.factor(&Matrix::zeros(0, 0)),
            Err(LinalgError::Empty)
        ));
        ws.factor(&Matrix::identity(2)).unwrap();
        assert!(matches!(
            ws.solve_into(&[1.0], &mut x),
            Err(LinalgError::ShapeMismatch { .. })
        ));
        // A failed factorization invalidates the previous one.
        let singular = Matrix::from_rows(&[&[1.0, 2.0], &[2.0, 4.0]]).unwrap();
        assert!(ws.factor(&singular).is_err());
        assert_eq!(ws.dim(), 0);
    }

    #[test]
    fn ill_conditioned_but_solvable() {
        // Rates spanning ~8 orders of magnitude, like availability models.
        let a = Matrix::from_rows(&[&[1e-8, 1.0], &[1.0, 1.0]]).unwrap();
        let b = [1.0, 2.0];
        let x = super::solve(&a, &b).unwrap();
        assert!(residual(&a, &x, &b) < 1e-9);
    }
}
