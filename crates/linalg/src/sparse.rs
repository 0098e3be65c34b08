use crate::{LinalgError, Matrix};

/// A `(row, col, value)` coordinate entry used to assemble sparse matrices.
///
/// # Examples
///
/// ```
/// use uavail_linalg::Triplet;
/// let t = Triplet::new(0, 1, 2.5);
/// assert_eq!(t.row, 0);
/// assert_eq!(t.value, 2.5);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Triplet {
    /// Row index.
    pub row: usize,
    /// Column index.
    pub col: usize,
    /// Entry value.
    pub value: f64,
}

impl Triplet {
    /// Creates a new coordinate entry.
    pub fn new(row: usize, col: usize, value: f64) -> Self {
        Triplet { row, col, value }
    }
}

/// Compressed sparse row (CSR) matrix of `f64` values.
///
/// Large Markov generators are sparse — a birth–death availability model has
/// O(n) non-zeros — so iterative solvers in [`crate::iterative`] operate on
/// this format. Duplicate coordinates passed to [`CsrMatrix::from_triplets`]
/// are summed, the usual assembly convention; entries whose merged value is
/// exactly `0.0` are dropped rather than stored, so duplicate coordinates
/// that cancel do not inflate [`CsrMatrix::nnz`] (which would skew any
/// solver-selection heuristic keyed on the stored-entry count).
///
/// For assembly loops that already visit entries in row-major order, the
/// sort-free [`CsrBuilder`] produces the same format in O(nnz).
///
/// # Examples
///
/// ```
/// use uavail_linalg::{CsrMatrix, Triplet};
///
/// # fn main() -> Result<(), uavail_linalg::LinalgError> {
/// let m = CsrMatrix::from_triplets(
///     2,
///     2,
///     &[Triplet::new(0, 0, 1.0), Triplet::new(0, 1, 2.0), Triplet::new(1, 1, 3.0)],
/// )?;
/// assert_eq!(m.mul_vec(&[1.0, 1.0])?, vec![3.0, 3.0]);
/// assert_eq!(m.nnz(), 3);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct CsrMatrix {
    rows: usize,
    cols: usize,
    /// Index into `col_indices`/`values` where each row starts; length `rows + 1`.
    row_offsets: Vec<usize>,
    col_indices: Vec<usize>,
    values: Vec<f64>,
}

impl CsrMatrix {
    /// Assembles a CSR matrix from coordinate triplets, summing duplicates.
    ///
    /// Duplicates at one coordinate are summed in their insertion order, so
    /// the merged value carries the exact floating-point bits of sequential
    /// accumulation. Entries that are exactly `0.0` after merging —
    /// duplicates that cancel, or explicit zero triplets — are dropped:
    /// they are indistinguishable from absent entries to every consumer
    /// ([`CsrMatrix::get`] returns `0.0` either way) but would inflate
    /// [`CsrMatrix::nnz`] and with it any nnz-keyed solver heuristic.
    ///
    /// # Errors
    ///
    /// * [`LinalgError::Empty`] when either dimension is zero.
    /// * [`LinalgError::InvalidInput`] when an index is out of bounds or a
    ///   value is not finite.
    pub fn from_triplets(
        rows: usize,
        cols: usize,
        triplets: &[Triplet],
    ) -> Result<Self, LinalgError> {
        if rows == 0 || cols == 0 {
            return Err(LinalgError::Empty);
        }
        for (i, t) in triplets.iter().enumerate() {
            if t.row >= rows || t.col >= cols {
                return Err(LinalgError::InvalidInput {
                    reason: format!(
                        "triplet {i} at ({}, {}) out of bounds for {rows}x{cols}",
                        t.row, t.col
                    ),
                });
            }
            if !t.value.is_finite() {
                return Err(LinalgError::InvalidInput {
                    reason: format!("triplet {i} has non-finite value"),
                });
            }
        }
        // Counting sort by row, then sort each row's columns and merge dups.
        let mut sorted: Vec<Triplet> = triplets.to_vec();
        sorted.sort_by_key(|t| (t.row, t.col));

        let mut row_offsets = vec![0usize; rows + 1];
        let mut col_indices = Vec::with_capacity(sorted.len());
        let mut values = Vec::with_capacity(sorted.len());
        let mut iter = sorted.into_iter().peekable();
        for r in 0..rows {
            while let Some(&t) = iter.peek() {
                if t.row != r {
                    break;
                }
                iter.next();
                // Merge a duplicate coordinate into the entry just pushed,
                // provided that entry belongs to the current row.
                let row_has_entries = values.len() > row_offsets[r];
                if row_has_entries && col_indices.last() == Some(&t.col) {
                    *values.last_mut().expect("non-empty") += t.value;
                } else {
                    col_indices.push(t.col);
                    values.push(t.value);
                }
            }
            row_offsets[r + 1] = values.len();
        }
        // Compact away entries that merged to exactly 0.0 (cancelling
        // duplicates or explicit zeros) so they never count toward nnz.
        let mut kept = 0usize;
        let mut read_from = 0usize;
        for r in 0..rows {
            let hi = row_offsets[r + 1];
            for k in read_from..hi {
                if values[k] != 0.0 {
                    col_indices[kept] = col_indices[k];
                    values[kept] = values[k];
                    kept += 1;
                }
            }
            read_from = hi;
            row_offsets[r + 1] = kept;
        }
        col_indices.truncate(kept);
        values.truncate(kept);
        Ok(CsrMatrix {
            rows,
            cols,
            row_offsets,
            col_indices,
            values,
        })
    }

    /// Converts a dense matrix, dropping entries with absolute value below
    /// `drop_tol`.
    pub fn from_dense(m: &Matrix, drop_tol: f64) -> Self {
        let mut row_offsets = vec![0usize; m.rows() + 1];
        let mut col_indices = Vec::new();
        let mut values = Vec::new();
        for r in 0..m.rows() {
            for c in 0..m.cols() {
                let v = m[(r, c)];
                if v.abs() > drop_tol {
                    col_indices.push(c);
                    values.push(v);
                }
            }
            row_offsets[r + 1] = values.len();
        }
        CsrMatrix {
            rows: m.rows(),
            cols: m.cols(),
            row_offsets,
            col_indices,
            values,
        }
    }

    /// Converts back to a dense matrix.
    pub fn to_dense(&self) -> Matrix {
        let mut out = Matrix::zeros(self.rows, self.cols);
        for r in 0..self.rows {
            for k in self.row_offsets[r]..self.row_offsets[r + 1] {
                out[(r, self.col_indices[k])] += self.values[k];
            }
        }
        out
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Shape as `(rows, cols)`.
    pub fn shape(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }

    /// Number of explicitly stored entries.
    pub fn nnz(&self) -> usize {
        self.values.len()
    }

    /// Returns the stored entry at `(row, col)`, or `0.0` when absent.
    ///
    /// # Panics
    ///
    /// Panics if the indices are out of bounds.
    pub fn get(&self, row: usize, col: usize) -> f64 {
        assert!(row < self.rows && col < self.cols, "index out of bounds");
        let lo = self.row_offsets[row];
        let hi = self.row_offsets[row + 1];
        match self.col_indices[lo..hi].binary_search(&col) {
            Ok(k) => self.values[lo + k],
            Err(_) => 0.0,
        }
    }

    /// Iterates over stored entries of row `r` as `(col, value)` pairs.
    ///
    /// # Panics
    ///
    /// Panics if `r >= self.rows()`.
    pub fn row_entries(&self, r: usize) -> impl Iterator<Item = (usize, f64)> + '_ {
        assert!(r < self.rows, "row index out of bounds");
        let lo = self.row_offsets[r];
        let hi = self.row_offsets[r + 1];
        self.col_indices[lo..hi]
            .iter()
            .copied()
            .zip(self.values[lo..hi].iter().copied())
    }

    /// Matrix–vector product `self * x`.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::ShapeMismatch`] when `x.len() != self.cols()`.
    pub fn mul_vec(&self, x: &[f64]) -> Result<Vec<f64>, LinalgError> {
        if x.len() != self.cols {
            return Err(LinalgError::ShapeMismatch {
                operation: "csr_mul_vec",
                left: self.shape(),
                right: (x.len(), 1),
            });
        }
        let mut out = vec![0.0; self.rows];
        for r in 0..self.rows {
            let mut sum = 0.0;
            for k in self.row_offsets[r]..self.row_offsets[r + 1] {
                sum += self.values[k] * x[self.col_indices[k]];
            }
            out[r] = sum;
        }
        Ok(out)
    }

    /// Row-vector product `x * self` — the Markov stationary orientation.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::ShapeMismatch`] when `x.len() != self.rows()`.
    pub fn vec_mul(&self, x: &[f64]) -> Result<Vec<f64>, LinalgError> {
        if x.len() != self.rows {
            return Err(LinalgError::ShapeMismatch {
                operation: "csr_vec_mul",
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
            for k in self.row_offsets[r]..self.row_offsets[r + 1] {
                out[self.col_indices[k]] += a * self.values[k];
            }
        }
        Ok(out)
    }

    /// Matrix–vector product `self * x` written into `out`, reusing its
    /// allocation — the workspace twin of [`CsrMatrix::mul_vec`], running
    /// the exact same floating-point operations (bit-for-bit identical
    /// results). Intended for iterative solvers that perform one SpMV per
    /// sweep: after the first call no further allocation occurs.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::ShapeMismatch`] when `x.len() != self.cols()`.
    pub fn mul_vec_into(&self, x: &[f64], out: &mut Vec<f64>) -> Result<(), LinalgError> {
        if x.len() != self.cols {
            return Err(LinalgError::ShapeMismatch {
                operation: "csr_mul_vec",
                left: self.shape(),
                right: (x.len(), 1),
            });
        }
        out.clear();
        out.resize(self.rows, 0.0);
        for r in 0..self.rows {
            let mut sum = 0.0;
            for k in self.row_offsets[r]..self.row_offsets[r + 1] {
                sum += self.values[k] * x[self.col_indices[k]];
            }
            out[r] = sum;
        }
        Ok(())
    }

    /// Row-vector product `x * self` written into `out`, reusing its
    /// allocation — the workspace twin of [`CsrMatrix::vec_mul`],
    /// bit-for-bit identical.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::ShapeMismatch`] when `x.len() != self.rows()`.
    pub fn vec_mul_into(&self, x: &[f64], out: &mut Vec<f64>) -> Result<(), LinalgError> {
        if x.len() != self.rows {
            return Err(LinalgError::ShapeMismatch {
                operation: "csr_vec_mul",
                left: (1, x.len()),
                right: self.shape(),
            });
        }
        out.clear();
        out.resize(self.cols, 0.0);
        for r in 0..self.rows {
            let a = x[r];
            if a == 0.0 {
                continue;
            }
            for k in self.row_offsets[r]..self.row_offsets[r + 1] {
                out[self.col_indices[k]] += a * self.values[k];
            }
        }
        Ok(())
    }

    /// Returns the transpose as a new CSR matrix.
    pub fn transpose(&self) -> CsrMatrix {
        let mut counts = vec![0usize; self.cols + 1];
        for &c in &self.col_indices {
            counts[c + 1] += 1;
        }
        for i in 0..self.cols {
            counts[i + 1] += counts[i];
        }
        let row_offsets = counts.clone();
        let mut col_indices = vec![0usize; self.nnz()];
        let mut values = vec![0.0; self.nnz()];
        let mut next = counts;
        for r in 0..self.rows {
            for k in self.row_offsets[r]..self.row_offsets[r + 1] {
                let c = self.col_indices[k];
                let dst = next[c];
                col_indices[dst] = r;
                values[dst] = self.values[k];
                next[c] += 1;
            }
        }
        CsrMatrix {
            rows: self.cols,
            cols: self.rows,
            row_offsets,
            col_indices,
            values,
        }
    }

    /// Extracts the diagonal as a vector (zero where absent).
    pub fn diagonal(&self) -> Vec<f64> {
        let n = self.rows.min(self.cols);
        (0..n).map(|i| self.get(i, i)).collect()
    }
}

/// Sort-free CSR assembly for entries produced in row-major order.
///
/// [`CsrMatrix::from_triplets`] accepts arbitrary coordinate order at the
/// cost of an O(nnz log nnz) sort. Generator-assembly loops — uniformization
/// `P = I + Q/Λ`, dense-matrix scans, birth–death chains — already visit
/// entries row by row with increasing columns, so this builder writes the
/// CSR arrays directly in O(nnz) with no intermediate triplet buffer.
///
/// Entries must be pushed in strictly increasing `(row, col)` lexicographic
/// order; exact-zero values are skipped (the same policy as
/// [`CsrMatrix::from_triplets`] after merging).
///
/// # Examples
///
/// ```
/// use uavail_linalg::CsrBuilder;
///
/// # fn main() -> Result<(), uavail_linalg::LinalgError> {
/// let mut b = CsrBuilder::new(2, 2);
/// b.push(0, 0, 1.0)?;
/// b.push(0, 1, 2.0)?;
/// b.push(1, 1, 3.0)?;
/// let m = b.finish()?;
/// assert_eq!(m.nnz(), 3);
/// assert_eq!(m.get(0, 1), 2.0);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct CsrBuilder {
    rows: usize,
    cols: usize,
    row_offsets: Vec<usize>,
    col_indices: Vec<usize>,
    values: Vec<f64>,
    /// Row the next entry may land in (rows below are sealed).
    cur_row: usize,
}

impl CsrBuilder {
    /// Creates a builder for a `rows × cols` matrix.
    pub fn new(rows: usize, cols: usize) -> Self {
        CsrBuilder::with_capacity(rows, cols, 0)
    }

    /// Creates a builder with pre-reserved storage for `nnz` entries.
    pub fn with_capacity(rows: usize, cols: usize, nnz: usize) -> Self {
        let mut row_offsets = Vec::with_capacity(rows + 1);
        row_offsets.push(0);
        CsrBuilder {
            rows,
            cols,
            row_offsets,
            col_indices: Vec::with_capacity(nnz),
            values: Vec::with_capacity(nnz),
            cur_row: 0,
        }
    }

    /// Appends one entry; `(row, col)` must be lexicographically greater
    /// than the previous entry. Exact zeros are skipped.
    ///
    /// # Errors
    ///
    /// * [`LinalgError::InvalidInput`] for out-of-bounds indices,
    ///   out-of-order pushes, or non-finite values.
    pub fn push(&mut self, row: usize, col: usize, value: f64) -> Result<(), LinalgError> {
        if row >= self.rows || col >= self.cols {
            return Err(LinalgError::InvalidInput {
                reason: format!(
                    "entry at ({row}, {col}) out of bounds for {}x{}",
                    self.rows, self.cols
                ),
            });
        }
        if !value.is_finite() {
            return Err(LinalgError::InvalidInput {
                reason: format!("entry at ({row}, {col}) has non-finite value"),
            });
        }
        let in_order = row > self.cur_row
            || (row == self.cur_row
                && (self.values.len() == self.row_offsets[self.cur_row]
                    || self.col_indices.last() < Some(&col)));
        if !in_order {
            return Err(LinalgError::InvalidInput {
                reason: format!("entry at ({row}, {col}) pushed out of row-major order"),
            });
        }
        while self.cur_row < row {
            self.row_offsets.push(self.values.len());
            self.cur_row += 1;
        }
        if value != 0.0 {
            self.col_indices.push(col);
            self.values.push(value);
        }
        Ok(())
    }

    /// Number of entries stored so far (zeros skipped at push).
    pub fn nnz(&self) -> usize {
        self.values.len()
    }

    /// Seals remaining rows and returns the assembled matrix.
    ///
    /// # Errors
    ///
    /// [`LinalgError::Empty`] when either dimension is zero.
    pub fn finish(mut self) -> Result<CsrMatrix, LinalgError> {
        if self.rows == 0 || self.cols == 0 {
            return Err(LinalgError::Empty);
        }
        while self.row_offsets.len() <= self.rows {
            self.row_offsets.push(self.values.len());
        }
        Ok(CsrMatrix {
            rows: self.rows,
            cols: self.cols,
            row_offsets: self.row_offsets,
            col_indices: self.col_indices,
            values: self.values,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> CsrMatrix {
        CsrMatrix::from_triplets(
            3,
            3,
            &[
                Triplet::new(0, 0, 1.0),
                Triplet::new(0, 2, 2.0),
                Triplet::new(1, 1, 3.0),
                Triplet::new(2, 0, 4.0),
                Triplet::new(2, 2, 5.0),
            ],
        )
        .unwrap()
    }

    #[test]
    fn assembly_and_access() {
        let m = sample();
        assert_eq!(m.nnz(), 5);
        assert_eq!(m.get(0, 2), 2.0);
        assert_eq!(m.get(0, 1), 0.0);
        assert_eq!(m.diagonal(), vec![1.0, 3.0, 5.0]);
    }

    #[test]
    fn duplicates_are_summed() {
        let m = CsrMatrix::from_triplets(1, 1, &[Triplet::new(0, 0, 1.0), Triplet::new(0, 0, 2.5)])
            .unwrap();
        assert_eq!(m.nnz(), 1);
        assert_eq!(m.get(0, 0), 3.5);
    }

    #[test]
    fn out_of_bounds_triplet_rejected() {
        let err = CsrMatrix::from_triplets(1, 1, &[Triplet::new(0, 1, 1.0)]).unwrap_err();
        assert!(matches!(err, LinalgError::InvalidInput { .. }));
    }

    #[test]
    fn matvec_left_and_right() {
        let m = sample();
        assert_eq!(m.mul_vec(&[1.0, 1.0, 1.0]).unwrap(), vec![3.0, 3.0, 9.0]);
        assert_eq!(m.vec_mul(&[1.0, 1.0, 1.0]).unwrap(), vec![5.0, 3.0, 7.0]);
        assert!(m.mul_vec(&[1.0]).is_err());
        assert!(m.vec_mul(&[1.0]).is_err());
    }

    #[test]
    fn dense_roundtrip() {
        let m = sample();
        let d = m.to_dense();
        assert_eq!(d[(2, 0)], 4.0);
        let back = CsrMatrix::from_dense(&d, 0.0);
        assert_eq!(back.to_dense(), d);
    }

    #[test]
    fn transpose_matches_dense_transpose() {
        let m = sample();
        assert_eq!(m.transpose().to_dense(), m.to_dense().transpose());
    }

    #[test]
    fn row_entries_iteration() {
        let m = sample();
        let row0: Vec<(usize, f64)> = m.row_entries(0).collect();
        assert_eq!(row0, vec![(0, 1.0), (2, 2.0)]);
    }

    #[test]
    fn empty_rejected() {
        assert!(matches!(
            CsrMatrix::from_triplets(0, 3, &[]),
            Err(LinalgError::Empty)
        ));
    }

    #[test]
    fn cancelling_duplicates_are_dropped_not_stored() {
        // +2.5 and -2.5 at (0, 1) cancel to exactly 0.0: the entry must
        // not survive as a stored explicit zero inflating nnz.
        let m = CsrMatrix::from_triplets(
            2,
            2,
            &[
                Triplet::new(0, 1, 2.5),
                Triplet::new(0, 0, 1.0),
                Triplet::new(0, 1, -2.5),
                Triplet::new(1, 1, 4.0),
            ],
        )
        .unwrap();
        assert_eq!(m.nnz(), 2);
        assert_eq!(m.get(0, 1), 0.0);
        assert_eq!(m.get(0, 0), 1.0);
        assert_eq!(m.get(1, 1), 4.0);
        // Explicit zero triplets are dropped too.
        let z = CsrMatrix::from_triplets(1, 2, &[Triplet::new(0, 0, 0.0)]).unwrap();
        assert_eq!(z.nnz(), 0);
        assert_eq!(z.get(0, 0), 0.0);
    }

    #[test]
    fn builder_matches_from_triplets() {
        let triplets = [
            Triplet::new(0, 0, 1.0),
            Triplet::new(0, 2, 2.0),
            Triplet::new(1, 1, 3.0),
            Triplet::new(2, 0, 4.0),
            Triplet::new(2, 2, 5.0),
        ];
        let sorted = CsrMatrix::from_triplets(3, 3, &triplets).unwrap();
        let mut b = CsrBuilder::with_capacity(3, 3, triplets.len());
        for t in &triplets {
            b.push(t.row, t.col, t.value).unwrap();
        }
        assert_eq!(b.nnz(), 5);
        assert_eq!(b.finish().unwrap(), sorted);
    }

    #[test]
    fn builder_skips_zeros_and_seals_empty_rows() {
        let mut b = CsrBuilder::new(4, 4);
        b.push(1, 0, 0.0).unwrap(); // skipped
        b.push(1, 3, 7.0).unwrap();
        let m = b.finish().unwrap();
        assert_eq!(m.nnz(), 1);
        assert_eq!(m.get(1, 3), 7.0);
        assert_eq!(m.row_entries(0).count(), 0);
        assert_eq!(m.row_entries(3).count(), 0);
    }

    #[test]
    fn builder_rejects_out_of_order_and_bad_input() {
        let mut b = CsrBuilder::new(2, 2);
        b.push(1, 1, 1.0).unwrap();
        assert!(b.push(0, 0, 1.0).is_err()); // earlier row
        assert!(b.push(1, 1, 1.0).is_err()); // duplicate coordinate
        assert!(b.push(1, 0, 1.0).is_err()); // earlier column
        assert!(b.push(2, 0, 1.0).is_err()); // out of bounds
        assert!(b.push(1, 1, f64::NAN).is_err());
        assert!(CsrBuilder::new(0, 2).finish().is_err());
    }

    #[test]
    fn spmv_workspace_twins_are_bit_identical() {
        let m = sample();
        let x = [0.25, -1.5, 3.0];
        let mut out = vec![9.0; 17]; // stale contents must be replaced
        m.mul_vec_into(&x, &mut out).unwrap();
        assert_eq!(out, m.mul_vec(&x).unwrap());
        m.vec_mul_into(&x, &mut out).unwrap();
        assert_eq!(out, m.vec_mul(&x).unwrap());
        assert!(m.mul_vec_into(&[1.0], &mut out).is_err());
        assert!(m.vec_mul_into(&[1.0], &mut out).is_err());
    }
}
