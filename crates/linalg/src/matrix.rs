use std::fmt;
use std::ops::{Add, Index, IndexMut, Mul, Sub};

use crate::LinalgError;

/// A dense, row-major matrix of `f64` values.
///
/// `Matrix` is the workhorse container for the Markov-chain and reward-model
/// solvers in the workspace. It deliberately keeps a small, predictable API:
/// explicit constructors that validate their input, element access by
/// `(row, col)` tuple indexing, and checked algebraic operations that return
/// [`LinalgError`] on shape mismatches.
///
/// # Examples
///
/// ```
/// use uavail_linalg::Matrix;
///
/// # fn main() -> Result<(), uavail_linalg::LinalgError> {
/// let a = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]])?;
/// let i = Matrix::identity(2);
/// let b = a.mul_matrix(&i)?;
/// assert_eq!(a, b);
/// assert_eq!(b[(1, 0)], 3.0);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f64>,
}

impl Default for Matrix {
    /// An empty `0 × 0` matrix, useful as the initial state of reusable
    /// scratch storage (see [`Matrix::copy_from`]).
    fn default() -> Self {
        Matrix::zeros(0, 0)
    }
}

impl Matrix {
    /// Creates a `rows × cols` matrix filled with zeros.
    ///
    /// # Examples
    ///
    /// ```
    /// use uavail_linalg::Matrix;
    /// let z = Matrix::zeros(2, 3);
    /// assert_eq!(z.shape(), (2, 3));
    /// assert_eq!(z[(1, 2)], 0.0);
    /// ```
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Matrix {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// Creates the `n × n` identity matrix.
    ///
    /// # Examples
    ///
    /// ```
    /// use uavail_linalg::Matrix;
    /// let i = Matrix::identity(3);
    /// assert_eq!(i[(0, 0)], 1.0);
    /// assert_eq!(i[(0, 1)], 0.0);
    /// ```
    pub fn identity(n: usize) -> Self {
        let mut m = Matrix::zeros(n, n);
        for i in 0..n {
            m[(i, i)] = 1.0;
        }
        m
    }

    /// Builds a matrix from a slice of row slices.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::Empty`] for an empty input and
    /// [`LinalgError::InvalidInput`] when rows have differing lengths or any
    /// entry is not finite.
    ///
    /// # Examples
    ///
    /// ```
    /// use uavail_linalg::Matrix;
    /// # fn main() -> Result<(), uavail_linalg::LinalgError> {
    /// let m = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]])?;
    /// assert_eq!(m.shape(), (2, 2));
    /// # Ok(())
    /// # }
    /// ```
    pub fn from_rows(rows: &[&[f64]]) -> Result<Self, LinalgError> {
        if rows.is_empty() || rows[0].is_empty() {
            return Err(LinalgError::Empty);
        }
        let cols = rows[0].len();
        let mut data = Vec::with_capacity(rows.len() * cols);
        for (i, row) in rows.iter().enumerate() {
            if row.len() != cols {
                return Err(LinalgError::InvalidInput {
                    reason: format!("row {i} has length {}, expected {cols}", row.len()),
                });
            }
            for (j, &v) in row.iter().enumerate() {
                if !v.is_finite() {
                    return Err(LinalgError::InvalidInput {
                        reason: format!("non-finite entry at ({i}, {j})"),
                    });
                }
                data.push(v);
            }
        }
        Ok(Matrix {
            rows: rows.len(),
            cols,
            data,
        })
    }

    /// Builds a matrix from a flat row-major vector.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::InvalidInput`] if `data.len() != rows * cols`
    /// or any entry is not finite, and [`LinalgError::Empty`] if either
    /// dimension is zero.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f64>) -> Result<Self, LinalgError> {
        if rows == 0 || cols == 0 {
            return Err(LinalgError::Empty);
        }
        if data.len() != rows * cols {
            return Err(LinalgError::InvalidInput {
                reason: format!("data length {} does not match {rows}x{cols}", data.len()),
            });
        }
        if let Some(pos) = data.iter().position(|v| !v.is_finite()) {
            return Err(LinalgError::InvalidInput {
                reason: format!("non-finite entry at flat index {pos}"),
            });
        }
        Ok(Matrix { rows, cols, data })
    }

    /// Builds a diagonal matrix from the given diagonal entries.
    ///
    /// # Examples
    ///
    /// ```
    /// use uavail_linalg::Matrix;
    /// let d = Matrix::from_diagonal(&[1.0, 2.0]);
    /// assert_eq!(d[(1, 1)], 2.0);
    /// assert_eq!(d[(0, 1)], 0.0);
    /// ```
    pub fn from_diagonal(diag: &[f64]) -> Self {
        let mut m = Matrix::zeros(diag.len(), diag.len());
        for (i, &v) in diag.iter().enumerate() {
            m[(i, i)] = v;
        }
        m
    }

    /// Returns the number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Returns the number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Returns the shape as `(rows, cols)`.
    pub fn shape(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }

    /// Returns `true` if the matrix is square.
    pub fn is_square(&self) -> bool {
        self.rows == self.cols
    }

    /// Returns the entry at `(row, col)`, or `None` if out of bounds.
    pub fn get(&self, row: usize, col: usize) -> Option<f64> {
        if row < self.rows && col < self.cols {
            Some(self.data[row * self.cols + col])
        } else {
            None
        }
    }

    /// Returns a view of row `r` as a slice.
    ///
    /// # Panics
    ///
    /// Panics if `r >= self.rows()`.
    pub fn row(&self, r: usize) -> &[f64] {
        assert!(r < self.rows, "row index {r} out of bounds ({})", self.rows);
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Returns column `c` as an owned vector.
    ///
    /// # Panics
    ///
    /// Panics if `c >= self.cols()`.
    pub fn column(&self, c: usize) -> Vec<f64> {
        assert!(
            c < self.cols,
            "column index {c} out of bounds ({})",
            self.cols
        );
        (0..self.rows)
            .map(|r| self.data[r * self.cols + c])
            .collect()
    }

    /// Returns the underlying row-major data as a slice.
    pub fn as_slice(&self) -> &[f64] {
        &self.data
    }

    /// Copies `other`'s shape and contents into `self`, reusing the existing
    /// allocation when it is large enough.
    ///
    /// This is the storage-reuse counterpart of `clone()`: workspaces that
    /// factor or eliminate many same-sized matrices in a loop can hold one
    /// `Matrix` and refill it per iteration without reallocating.
    ///
    /// # Examples
    ///
    /// ```
    /// use uavail_linalg::Matrix;
    /// # fn main() -> Result<(), uavail_linalg::LinalgError> {
    /// let a = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]])?;
    /// let mut scratch = Matrix::zeros(0, 0);
    /// scratch.copy_from(&a);
    /// assert_eq!(scratch, a);
    /// # Ok(())
    /// # }
    /// ```
    pub fn copy_from(&mut self, other: &Matrix) {
        self.rows = other.rows;
        self.cols = other.cols;
        self.data.clear();
        self.data.extend_from_slice(&other.data);
    }

    /// Reshapes `self` to `rows × cols` and fills it with zeros, reusing the
    /// existing allocation when it is large enough.
    ///
    /// # Examples
    ///
    /// ```
    /// use uavail_linalg::Matrix;
    /// let mut m = Matrix::identity(3);
    /// m.reset_zeros(2, 4);
    /// assert_eq!(m.shape(), (2, 4));
    /// assert_eq!(m[(1, 3)], 0.0);
    /// ```
    pub fn reset_zeros(&mut self, rows: usize, cols: usize) {
        self.rows = rows;
        self.cols = cols;
        self.data.clear();
        self.data.resize(rows * cols, 0.0);
    }

    /// Returns the transpose as a new matrix.
    ///
    /// # Examples
    ///
    /// ```
    /// use uavail_linalg::Matrix;
    /// # fn main() -> Result<(), uavail_linalg::LinalgError> {
    /// let m = Matrix::from_rows(&[&[1.0, 2.0, 3.0]])?;
    /// let t = m.transpose();
    /// assert_eq!(t.shape(), (3, 1));
    /// assert_eq!(t[(2, 0)], 3.0);
    /// # Ok(())
    /// # }
    /// ```
    pub fn transpose(&self) -> Matrix {
        let mut out = Matrix::zeros(self.cols, self.rows);
        for r in 0..self.rows {
            for c in 0..self.cols {
                out[(c, r)] = self[(r, c)];
            }
        }
        out
    }

    /// Checked matrix addition.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::ShapeMismatch`] when shapes differ.
    pub fn add_matrix(&self, other: &Matrix) -> Result<Matrix, LinalgError> {
        if self.shape() != other.shape() {
            return Err(LinalgError::ShapeMismatch {
                operation: "add",
                left: self.shape(),
                right: other.shape(),
            });
        }
        let data = self
            .data
            .iter()
            .zip(&other.data)
            .map(|(a, b)| a + b)
            .collect();
        Ok(Matrix {
            rows: self.rows,
            cols: self.cols,
            data,
        })
    }

    /// Checked matrix subtraction.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::ShapeMismatch`] when shapes differ.
    pub fn sub_matrix(&self, other: &Matrix) -> Result<Matrix, LinalgError> {
        if self.shape() != other.shape() {
            return Err(LinalgError::ShapeMismatch {
                operation: "sub",
                left: self.shape(),
                right: other.shape(),
            });
        }
        let data = self
            .data
            .iter()
            .zip(&other.data)
            .map(|(a, b)| a - b)
            .collect();
        Ok(Matrix {
            rows: self.rows,
            cols: self.cols,
            data,
        })
    }

    /// Checked matrix multiplication (`self * other`).
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::ShapeMismatch`] when `self.cols() !=
    /// other.rows()`.
    ///
    /// # Examples
    ///
    /// ```
    /// use uavail_linalg::Matrix;
    /// # fn main() -> Result<(), uavail_linalg::LinalgError> {
    /// let a = Matrix::from_rows(&[&[1.0, 2.0]])?;          // 1x2
    /// let b = Matrix::from_rows(&[&[3.0], &[4.0]])?;       // 2x1
    /// let c = a.mul_matrix(&b)?;                           // 1x1
    /// assert_eq!(c[(0, 0)], 11.0);
    /// # Ok(())
    /// # }
    /// ```
    pub fn mul_matrix(&self, other: &Matrix) -> Result<Matrix, LinalgError> {
        if self.cols != other.rows {
            return Err(LinalgError::ShapeMismatch {
                operation: "mul",
                left: self.shape(),
                right: other.shape(),
            });
        }
        let mut out = Matrix::zeros(self.rows, other.cols);
        for r in 0..self.rows {
            for k in 0..self.cols {
                let a = self.data[r * self.cols + k];
                if a == 0.0 {
                    continue;
                }
                for c in 0..other.cols {
                    out.data[r * other.cols + c] += a * other.data[k * other.cols + c];
                }
            }
        }
        Ok(out)
    }

    /// Multiplies the matrix by a column vector on the right (`self * x`).
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::ShapeMismatch`] when `x.len() != self.cols()`.
    pub fn mul_vec(&self, x: &[f64]) -> Result<Vec<f64>, LinalgError> {
        if x.len() != self.cols {
            return Err(LinalgError::ShapeMismatch {
                operation: "mul_vec",
                left: self.shape(),
                right: (x.len(), 1),
            });
        }
        let mut out = vec![0.0; self.rows];
        for r in 0..self.rows {
            let row = &self.data[r * self.cols..(r + 1) * self.cols];
            out[r] = row.iter().zip(x).map(|(a, b)| a * b).sum();
        }
        Ok(out)
    }

    /// Multiplies a row vector by the matrix on the left (`x * self`).
    ///
    /// This is the natural orientation for Markov-chain stationary vectors
    /// (`π P`).
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::ShapeMismatch`] when `x.len() != self.rows()`.
    pub fn vec_mul(&self, x: &[f64]) -> Result<Vec<f64>, LinalgError> {
        if x.len() != self.rows {
            return Err(LinalgError::ShapeMismatch {
                operation: "vec_mul",
                left: (1, x.len()),
                right: self.shape(),
            });
        }
        let mut out = vec![0.0; self.cols];
        for r in 0..self.rows {
            let a = x[r];
            if a == 0.0 {
                continue;
            }
            let row = &self.data[r * self.cols..(r + 1) * self.cols];
            for (o, &m) in out.iter_mut().zip(row) {
                *o += a * m;
            }
        }
        Ok(out)
    }

    /// Returns the matrix scaled by `factor`.
    pub fn scale(&self, factor: f64) -> Matrix {
        Matrix {
            rows: self.rows,
            cols: self.cols,
            data: self.data.iter().map(|v| v * factor).collect(),
        }
    }

    /// Maximum absolute entry (the max norm).
    pub fn max_abs(&self) -> f64 {
        self.data.iter().fold(0.0, |acc, v| acc.max(v.abs()))
    }

    /// Returns `true` if every row sums to `target` within `tol`.
    ///
    /// Useful to validate stochastic matrices (`target = 1.0`) and CTMC
    /// generators (`target = 0.0`).
    pub fn rows_sum_to(&self, target: f64, tol: f64) -> bool {
        (0..self.rows).all(|r| (self.row(r).iter().sum::<f64>() - target).abs() <= tol)
    }
}

impl Index<(usize, usize)> for Matrix {
    type Output = f64;

    fn index(&self, (r, c): (usize, usize)) -> &f64 {
        assert!(
            r < self.rows && c < self.cols,
            "index ({r}, {c}) out of bounds for {}x{} matrix",
            self.rows,
            self.cols
        );
        &self.data[r * self.cols + c]
    }
}

impl IndexMut<(usize, usize)> for Matrix {
    fn index_mut(&mut self, (r, c): (usize, usize)) -> &mut f64 {
        assert!(
            r < self.rows && c < self.cols,
            "index ({r}, {c}) out of bounds for {}x{} matrix",
            self.rows,
            self.cols
        );
        &mut self.data[r * self.cols + c]
    }
}

impl Add for &Matrix {
    type Output = Matrix;

    /// # Panics
    ///
    /// Panics on shape mismatch; use [`Matrix::add_matrix`] for a checked
    /// variant.
    fn add(self, rhs: &Matrix) -> Matrix {
        self.add_matrix(rhs)
            .expect("matrix addition shape mismatch")
    }
}

impl Sub for &Matrix {
    type Output = Matrix;

    /// # Panics
    ///
    /// Panics on shape mismatch; use [`Matrix::sub_matrix`] for a checked
    /// variant.
    fn sub(self, rhs: &Matrix) -> Matrix {
        self.sub_matrix(rhs)
            .expect("matrix subtraction shape mismatch")
    }
}

impl Mul for &Matrix {
    type Output = Matrix;

    /// # Panics
    ///
    /// Panics on shape mismatch; use [`Matrix::mul_matrix`] for a checked
    /// variant.
    fn mul(self, rhs: &Matrix) -> Matrix {
        self.mul_matrix(rhs)
            .expect("matrix multiplication shape mismatch")
    }
}

impl fmt::Display for Matrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for r in 0..self.rows {
            write!(f, "[")?;
            for c in 0..self.cols {
                if c > 0 {
                    write!(f, ", ")?;
                }
                write!(f, "{:>12.6e}", self[(r, c)])?;
            }
            writeln!(f, "]")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zeros_and_identity() {
        let z = Matrix::zeros(2, 3);
        assert_eq!(z.shape(), (2, 3));
        assert!(z.as_slice().iter().all(|&v| v == 0.0));
        let i = Matrix::identity(3);
        assert!(i.is_square());
        assert_eq!(i[(1, 1)], 1.0);
        assert_eq!(i[(1, 2)], 0.0);
    }

    #[test]
    fn from_rows_validates_raggedness() {
        let err = Matrix::from_rows(&[&[1.0, 2.0], &[3.0]]).unwrap_err();
        assert!(matches!(err, LinalgError::InvalidInput { .. }));
    }

    #[test]
    fn from_rows_rejects_nan() {
        let err = Matrix::from_rows(&[&[1.0, f64::NAN]]).unwrap_err();
        assert!(matches!(err, LinalgError::InvalidInput { .. }));
    }

    #[test]
    fn from_rows_rejects_empty() {
        assert_eq!(Matrix::from_rows(&[]).unwrap_err(), LinalgError::Empty);
    }

    #[test]
    fn from_vec_validates_length() {
        let err = Matrix::from_vec(2, 2, vec![1.0, 2.0, 3.0]).unwrap_err();
        assert!(matches!(err, LinalgError::InvalidInput { .. }));
        assert!(Matrix::from_vec(2, 2, vec![1.0; 4]).is_ok());
    }

    #[test]
    fn transpose_roundtrip() {
        let m = Matrix::from_rows(&[&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0]]).unwrap();
        let t = m.transpose();
        assert_eq!(t.shape(), (3, 2));
        assert_eq!(t[(2, 1)], 6.0);
        assert_eq!(t.transpose(), m);
    }

    #[test]
    fn multiplication_against_hand_result() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]).unwrap();
        let b = Matrix::from_rows(&[&[5.0, 6.0], &[7.0, 8.0]]).unwrap();
        let c = a.mul_matrix(&b).unwrap();
        assert_eq!(
            c,
            Matrix::from_rows(&[&[19.0, 22.0], &[43.0, 50.0]]).unwrap()
        );
    }

    #[test]
    fn mul_shape_mismatch_is_error() {
        let a = Matrix::zeros(2, 3);
        let b = Matrix::zeros(2, 3);
        assert!(matches!(
            a.mul_matrix(&b),
            Err(LinalgError::ShapeMismatch { .. })
        ));
    }

    #[test]
    fn vector_products_left_and_right() {
        let m = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]).unwrap();
        assert_eq!(m.mul_vec(&[1.0, 1.0]).unwrap(), vec![3.0, 7.0]);
        assert_eq!(m.vec_mul(&[1.0, 1.0]).unwrap(), vec![4.0, 6.0]);
        assert!(m.mul_vec(&[1.0]).is_err());
        assert!(m.vec_mul(&[1.0, 2.0, 3.0]).is_err());
    }

    #[test]
    fn row_and_column_views() {
        let m = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]).unwrap();
        assert_eq!(m.row(1), &[3.0, 4.0]);
        assert_eq!(m.column(0), vec![1.0, 3.0]);
    }

    #[test]
    fn rows_sum_detection() {
        let p = Matrix::from_rows(&[&[0.5, 0.5], &[0.2, 0.8]]).unwrap();
        assert!(p.rows_sum_to(1.0, 1e-12));
        assert!(!p.rows_sum_to(0.0, 1e-12));
    }

    #[test]
    fn norms() {
        let m = Matrix::from_rows(&[&[3.0, -4.0]]).unwrap();
        assert_eq!(m.max_abs(), 4.0);
    }

    #[test]
    fn operators_match_checked_variants() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]).unwrap();
        let b = Matrix::identity(2);
        assert_eq!(&a + &b, a.add_matrix(&b).unwrap());
        assert_eq!(&a - &b, a.sub_matrix(&b).unwrap());
        assert_eq!(&a * &b, a.clone());
    }

    #[test]
    fn scale_and_diagonal() {
        let d = Matrix::from_diagonal(&[1.0, 2.0]).scale(3.0);
        assert_eq!(d[(1, 1)], 6.0);
        assert_eq!(d[(0, 1)], 0.0);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn index_out_of_bounds_panics() {
        let m = Matrix::zeros(1, 1);
        let _ = m[(1, 0)];
    }
}
