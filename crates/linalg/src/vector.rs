//! Small vector utilities shared across the workspace: norms and the
//! comparisons used by probability vectors.

/// L1 norm (sum of absolute values).
///
/// # Examples
///
/// ```
/// assert_eq!(uavail_linalg::vector::norm_l1(&[3.0, -4.0]), 7.0);
/// ```
pub fn norm_l1(x: &[f64]) -> f64 {
    x.iter().map(|v| v.abs()).sum()
}

/// L2 (Euclidean) norm.
///
/// # Examples
///
/// ```
/// assert_eq!(uavail_linalg::vector::norm_l2(&[3.0, 4.0]), 5.0);
/// ```
pub fn norm_l2(x: &[f64]) -> f64 {
    x.iter().map(|v| v * v).sum::<f64>().sqrt()
}

/// Max (infinity) norm.
///
/// # Examples
///
/// ```
/// assert_eq!(uavail_linalg::vector::norm_max(&[3.0, -4.0]), 4.0);
/// ```
pub fn norm_max(x: &[f64]) -> f64 {
    x.iter().fold(0.0, |acc, v| acc.max(v.abs()))
}

/// Maximum absolute component-wise difference between two vectors.
///
/// # Panics
///
/// Panics if the vectors have different lengths.
pub fn max_abs_diff(a: &[f64], b: &[f64]) -> f64 {
    assert_eq!(a.len(), b.len(), "vector length mismatch");
    a.iter()
        .zip(b)
        .map(|(l, r)| (l - r).abs())
        .fold(0.0, f64::max)
}

/// Dot product of two vectors.
///
/// # Panics
///
/// Panics if the vectors have different lengths.
///
/// # Examples
///
/// ```
/// assert_eq!(uavail_linalg::vector::dot(&[1.0, 2.0], &[3.0, 4.0]), 11.0);
/// ```
pub fn dot(a: &[f64], b: &[f64]) -> f64 {
    assert_eq!(a.len(), b.len(), "vector length mismatch");
    a.iter().zip(b).map(|(l, r)| l * r).sum()
}

/// Checks that `x` is a probability vector: entries in `[0, 1]` (within
/// `tol` slack) summing to one (within `tol`).
pub fn is_probability_vector(x: &[f64], tol: f64) -> bool {
    if x.is_empty() {
        return false;
    }
    let sum: f64 = x.iter().sum();
    (sum - 1.0).abs() <= tol && x.iter().all(|&v| v >= -tol && v <= 1.0 + tol)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn norms() {
        assert_eq!(norm_l1(&[1.0, -2.0, 3.0]), 6.0);
        assert!((norm_l2(&[1.0, 2.0, 2.0]) - 3.0).abs() < 1e-15);
        assert_eq!(norm_max(&[]), 0.0);
    }

    #[test]
    fn diff_and_dot() {
        assert_eq!(max_abs_diff(&[1.0, 5.0], &[2.0, 5.5]), 1.0);
        assert_eq!(dot(&[1.0, 0.0], &[0.0, 1.0]), 0.0);
    }

    #[test]
    fn probability_vector_detection() {
        assert!(is_probability_vector(&[0.5, 0.5], 1e-12));
        assert!(!is_probability_vector(&[0.5, 0.6], 1e-12));
        assert!(!is_probability_vector(&[1.5, -0.5], 1e-12));
        assert!(!is_probability_vector(&[], 1e-12));
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn dot_length_mismatch_panics() {
        dot(&[1.0], &[1.0, 2.0]);
    }
}
