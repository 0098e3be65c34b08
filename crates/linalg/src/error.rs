use std::fmt;

/// Errors produced by linear-algebra operations in this crate.
///
/// All variants carry enough context to diagnose the failing operation
/// without a debugger; the [`fmt::Display`] representation is lowercase and
/// concise per Rust API guidelines.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum LinalgError {
    /// Operand shapes are incompatible (e.g. multiplying a 2×3 by a 2×2).
    ShapeMismatch {
        /// Human-readable name of the failing operation.
        operation: &'static str,
        /// Shape of the left/first operand as `(rows, cols)`.
        left: (usize, usize),
        /// Shape of the right/second operand as `(rows, cols)`.
        right: (usize, usize),
    },
    /// A matrix that must be square is not.
    NotSquare {
        /// Actual shape as `(rows, cols)`.
        shape: (usize, usize),
    },
    /// A zero (or numerically negligible) pivot was encountered; the matrix
    /// is singular to working precision.
    Singular {
        /// Index of the failing pivot.
        pivot: usize,
    },
    /// Construction input was invalid (e.g. ragged rows, NaN entries, a
    /// data length that does not match the shape).
    InvalidInput {
        /// Explanation of what was wrong.
        reason: String,
    },
    /// An empty matrix or vector was supplied where data is required.
    Empty,
}

impl fmt::Display for LinalgError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LinalgError::ShapeMismatch {
                operation,
                left,
                right,
            } => write!(
                f,
                "shape mismatch in {operation}: {}x{} vs {}x{}",
                left.0, left.1, right.0, right.1
            ),
            LinalgError::NotSquare { shape } => {
                write!(f, "matrix must be square, got {}x{}", shape.0, shape.1)
            }
            LinalgError::Singular { pivot } => {
                write!(
                    f,
                    "matrix is singular to working precision at pivot {pivot}"
                )
            }
            LinalgError::InvalidInput { reason } => write!(f, "invalid input: {reason}"),
            LinalgError::Empty => write!(f, "empty matrix or vector"),
        }
    }
}

impl std::error::Error for LinalgError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_informative() {
        let err = LinalgError::ShapeMismatch {
            operation: "mul",
            left: (2, 3),
            right: (2, 2),
        };
        assert_eq!(err.to_string(), "shape mismatch in mul: 2x3 vs 2x2");
        let err = LinalgError::Singular { pivot: 4 };
        assert!(err.to_string().contains("pivot 4"));
    }

    #[test]
    fn error_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<LinalgError>();
    }
}
