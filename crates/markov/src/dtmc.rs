use uavail_linalg::vector::is_probability_vector;
use uavail_linalg::{Lu, Matrix};

use crate::{gth_steady_state, MarkovError, VALIDATION_TOLERANCE};

/// A discrete-time Markov chain over states `0..n`.
///
/// Construction validates that the transition matrix is row-stochastic.
/// The chain supports stationary analysis (for ergodic chains) and n-step
/// transient distributions; for chains with absorbing states see
/// [`crate::AbsorbingDtmc`].
///
/// # Examples
///
/// ```
/// use uavail_linalg::Matrix;
/// use uavail_markov::Dtmc;
///
/// # fn main() -> Result<(), uavail_markov::MarkovError> {
/// let p = Matrix::from_rows(&[&[0.9, 0.1], &[0.5, 0.5]])?;
/// let chain = Dtmc::new(p)?;
/// let pi = chain.stationary()?;
/// assert!((pi[0] - 5.0 / 6.0).abs() < 1e-12);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Dtmc {
    p: Matrix,
}

impl Dtmc {
    /// Creates a chain from a row-stochastic transition matrix.
    ///
    /// # Errors
    ///
    /// * [`MarkovError::EmptyChain`] for a 0×0 matrix.
    /// * [`MarkovError::Linalg`] for a non-square matrix.
    /// * [`MarkovError::InvalidValue`] for negative entries.
    /// * [`MarkovError::NotStochastic`] when a row does not sum to one
    ///   within [`VALIDATION_TOLERANCE`].
    pub fn new(p: Matrix) -> Result<Self, MarkovError> {
        if p.rows() == 0 {
            return Err(MarkovError::EmptyChain);
        }
        if !p.is_square() {
            return Err(MarkovError::Linalg(uavail_linalg::LinalgError::NotSquare {
                shape: p.shape(),
            }));
        }
        for r in 0..p.rows() {
            let mut sum = 0.0;
            for c in 0..p.cols() {
                let v = p[(r, c)];
                if !(0.0..=1.0 + VALIDATION_TOLERANCE).contains(&v) {
                    return Err(MarkovError::InvalidValue {
                        context: format!("transition probability at ({r}, {c})"),
                        value: v,
                    });
                }
                sum += v;
            }
            if (sum - 1.0).abs() > VALIDATION_TOLERANCE {
                return Err(MarkovError::NotStochastic { row: r, sum });
            }
        }
        Ok(Dtmc { p })
    }

    /// Number of states.
    pub fn num_states(&self) -> usize {
        self.p.rows()
    }

    /// Borrow the transition matrix.
    pub fn transition_matrix(&self) -> &Matrix {
        &self.p
    }

    /// One-step transition probability from `from` to `to`.
    ///
    /// # Errors
    ///
    /// Returns [`MarkovError::UnknownState`] for out-of-range indices.
    pub fn probability(&self, from: usize, to: usize) -> Result<f64, MarkovError> {
        let n = self.num_states();
        for idx in [from, to] {
            if idx >= n {
                return Err(MarkovError::UnknownState {
                    index: idx,
                    states: n,
                });
            }
        }
        Ok(self.p[(from, to)])
    }

    /// Stationary distribution of an ergodic chain, solved directly via GTH
    /// on `P - I` (subtraction-free elimination, robust for stiff chains).
    ///
    /// # Errors
    ///
    /// Returns [`MarkovError::BadStructure`] for reducible chains.
    pub fn stationary(&self) -> Result<Vec<f64>, MarkovError> {
        let n = self.num_states();
        let mut q = self.p.clone();
        for i in 0..n {
            q[(i, i)] -= 1.0;
        }
        gth_steady_state(&q)
    }

    /// Stationary distribution via a dense linear solve of
    /// `πᵀ(P - I) = 0` with the normalization constraint replacing one
    /// equation. Exists alongside [`Dtmc::stationary`] to cross-validate GTH.
    ///
    /// # Errors
    ///
    /// Returns [`MarkovError::Linalg`] if the constrained system is
    /// singular (reducible chain).
    pub fn stationary_direct(&self) -> Result<Vec<f64>, MarkovError> {
        let n = self.num_states();
        // Build (P - I)ᵀ, then overwrite the last row with the
        // normalization constraint Σπ = 1.
        let mut a = Matrix::zeros(n, n);
        for r in 0..n {
            for c in 0..n {
                a[(r, c)] = self.p[(c, r)] - if r == c { 1.0 } else { 0.0 };
            }
        }
        for c in 0..n {
            a[(n - 1, c)] = 1.0;
        }
        let mut b = vec![0.0; n];
        b[n - 1] = 1.0;
        let x = Lu::new(&a)?.solve(&b)?;
        Ok(x)
    }

    /// Distribution after `steps` transitions from `initial`.
    ///
    /// # Errors
    ///
    /// Returns [`MarkovError::InvalidValue`] when `initial` is not a
    /// probability vector of the right length.
    pub fn transient(&self, initial: &[f64], steps: usize) -> Result<Vec<f64>, MarkovError> {
        if initial.len() != self.num_states() || !is_probability_vector(initial, 1e-9) {
            return Err(MarkovError::InvalidValue {
                context: "initial distribution".into(),
                value: initial.iter().sum(),
            });
        }
        let mut x = initial.to_vec();
        for _ in 0..steps {
            x = self.p.vec_mul(&x)?;
        }
        Ok(x)
    }

    /// Expected number of visits to each state before hitting `target`,
    /// starting from `start` (both inclusive of the start visit), computed by
    /// making `target` absorbing and using the fundamental matrix.
    ///
    /// # Errors
    ///
    /// Propagates structural and index errors.
    pub fn expected_visits_before(
        &self,
        start: usize,
        target: usize,
    ) -> Result<Vec<f64>, MarkovError> {
        let n = self.num_states();
        for idx in [start, target] {
            if idx >= n {
                return Err(MarkovError::UnknownState {
                    index: idx,
                    states: n,
                });
            }
        }
        let mut p = self.p.clone();
        for c in 0..n {
            p[(target, c)] = 0.0;
        }
        p[(target, target)] = 1.0;
        let chain = crate::AbsorbingDtmc::new(Dtmc { p })?;
        let analysis = chain.analyze()?;
        let row = analysis.expected_visits_from(start)?;
        // Map transient-indexed visits back to full state indexing.
        let mut out = vec![0.0; n];
        for (k, &s) in analysis.transient_states().iter().enumerate() {
            out[s] = row[k];
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn weather() -> Dtmc {
        // Classic 2-state weather chain.
        Dtmc::new(Matrix::from_rows(&[&[0.7, 0.3], &[0.4, 0.6]]).unwrap()).unwrap()
    }

    #[test]
    fn validates_stochasticity() {
        let bad = Matrix::from_rows(&[&[0.5, 0.4], &[0.5, 0.5]]).unwrap();
        assert!(matches!(
            Dtmc::new(bad),
            Err(MarkovError::NotStochastic { row: 0, .. })
        ));
        let neg = Matrix::from_rows(&[&[1.5, -0.5], &[0.5, 0.5]]).unwrap();
        assert!(matches!(
            Dtmc::new(neg),
            Err(MarkovError::InvalidValue { .. })
        ));
    }

    #[test]
    fn stationary_matches_hand_computation() {
        let chain = weather();
        let pi = chain.stationary().unwrap();
        // pi = (4/7, 3/7)
        assert!((pi[0] - 4.0 / 7.0).abs() < 1e-14);
        assert!((pi[1] - 3.0 / 7.0).abs() < 1e-14);
    }

    #[test]
    fn three_methods_agree() {
        let p = Matrix::from_rows(&[&[0.5, 0.3, 0.2], &[0.1, 0.8, 0.1], &[0.3, 0.3, 0.4]]).unwrap();
        let chain = Dtmc::new(p).unwrap();
        let gth = chain.stationary().unwrap();
        let direct = chain.stationary_direct().unwrap();
        // Third leg: the n-step distribution long past the mixing time.
        let late = chain.transient(&[1.0, 0.0, 0.0], 2_000).unwrap();
        for i in 0..3 {
            assert!((gth[i] - direct[i]).abs() < 1e-12);
            assert!((gth[i] - late[i]).abs() < 1e-9);
        }
    }

    #[test]
    fn stationary_is_fixed_point() {
        let chain = weather();
        let pi = chain.stationary().unwrap();
        let next = chain.transition_matrix().vec_mul(&pi).unwrap();
        for (a, b) in pi.iter().zip(&next) {
            assert!((a - b).abs() < 1e-14);
        }
    }

    #[test]
    fn transient_converges_to_stationary() {
        let chain = weather();
        let dist = chain.transient(&[1.0, 0.0], 200).unwrap();
        let pi = chain.stationary().unwrap();
        for (a, b) in dist.iter().zip(&pi) {
            assert!((a - b).abs() < 1e-12);
        }
    }

    #[test]
    fn transient_validates_initial() {
        let chain = weather();
        assert!(chain.transient(&[0.5, 0.4], 1).is_err());
        assert!(chain.transient(&[1.0], 1).is_err());
    }

    #[test]
    fn probability_accessor_bounds() {
        let chain = weather();
        assert_eq!(chain.probability(0, 1).unwrap(), 0.3);
        assert!(chain.probability(0, 9).is_err());
    }

    #[test]
    fn expected_visits_before_target() {
        // From state 0, chain 0 -> {0 w.p. 0.5, 1 w.p. 0.5}; state 1 -> 0/1
        // equally. Visits to 0 before hitting 1: geometric with p = 0.5,
        // expectation 2 (counting the initial visit).
        let p = Matrix::from_rows(&[&[0.5, 0.5], &[0.5, 0.5]]).unwrap();
        let chain = Dtmc::new(p).unwrap();
        let visits = chain.expected_visits_before(0, 1).unwrap();
        assert!((visits[0] - 2.0).abs() < 1e-12);
        assert_eq!(visits[1], 0.0);
    }
}
