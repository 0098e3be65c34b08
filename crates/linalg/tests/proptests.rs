//! Property-based tests for `uavail-linalg`: algebraic identities that must
//! hold for arbitrary well-formed inputs.

use proptest::prelude::*;
use uavail_linalg::vector::max_abs_diff;
use uavail_linalg::{Lu, Matrix};

/// Strategy: an n×n matrix with entries in [-10, 10], made strictly
/// diagonally dominant so it is nonsingular.
fn diag_dominant_matrix(n: usize) -> impl Strategy<Value = Matrix> {
    prop::collection::vec(-10.0f64..10.0, n * n).prop_map(move |mut data| {
        for i in 0..n {
            let row_sum: f64 = (0..n)
                .filter(|&j| j != i)
                .map(|j| data[i * n + j].abs())
                .sum();
            data[i * n + i] = row_sum + 1.0 + data[i * n + i].abs();
        }
        Matrix::from_vec(n, n, data).expect("valid shape")
    })
}

fn vector(n: usize) -> impl Strategy<Value = Vec<f64>> {
    prop::collection::vec(-100.0f64..100.0, n)
}

proptest! {
    #[test]
    fn lu_solve_has_small_residual(
        (a, b) in (2usize..7).prop_flat_map(|n| (diag_dominant_matrix(n), vector(n)))
    ) {
        let lu = Lu::new(&a).expect("diag dominant is nonsingular");
        let x = lu.solve(&b).unwrap();
        let ax = a.mul_vec(&x).unwrap();
        prop_assert!(max_abs_diff(&ax, &b) < 1e-8);
    }

    #[test]
    fn inverse_times_matrix_is_identity(
        a in (2usize..6).prop_flat_map(diag_dominant_matrix)
    ) {
        let inv = Lu::new(&a).unwrap().inverse().unwrap();
        let prod = a.mul_matrix(&inv).unwrap();
        let diff = prod.sub_matrix(&Matrix::identity(a.rows())).unwrap();
        prop_assert!(diff.max_abs() < 1e-8);
    }

    #[test]
    fn transposed_solve_agrees_with_transpose(
        (a, b) in (2usize..6).prop_flat_map(|n| (diag_dominant_matrix(n), vector(n)))
    ) {
        let lu = Lu::new(&a).unwrap();
        let x1 = lu.solve_transposed(&b).unwrap();
        let x2 = Lu::new(&a.transpose()).unwrap().solve(&b).unwrap();
        prop_assert!(max_abs_diff(&x1, &x2) < 1e-8);
    }

    #[test]
    fn determinant_of_product_is_product_of_determinants(
        (a, b) in (2usize..5).prop_flat_map(|n| (diag_dominant_matrix(n), diag_dominant_matrix(n)))
    ) {
        let da = Lu::new(&a).unwrap().determinant();
        let db = Lu::new(&b).unwrap().determinant();
        let dab = Lu::new(&a.mul_matrix(&b).unwrap()).unwrap().determinant();
        // Relative comparison: determinants can be large.
        let scale = dab.abs().max(1.0);
        prop_assert!(((da * db - dab) / scale).abs() < 1e-6);
    }
}
