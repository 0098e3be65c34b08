use uavail_linalg::{Lu, Matrix};

use crate::{Dtmc, MarkovError};

/// A DTMC with at least one absorbing state, partitioned into transient and
/// absorbing states for fundamental-matrix analysis.
///
/// Operational-profile graphs (user sessions that always terminate at
/// "Exit") are absorbing chains: analysis yields expected visit counts per
/// function, absorption probabilities and expected session length — the
/// quantities needed for user-perceived availability.
///
/// # Examples
///
/// ```
/// use uavail_linalg::Matrix;
/// use uavail_markov::{AbsorbingDtmc, Dtmc};
///
/// # fn main() -> Result<(), uavail_markov::MarkovError> {
/// // Start (0) -> Page (1) -> Exit (2); Page loops on itself w.p. 0.5.
/// let p = Matrix::from_rows(&[
///     &[0.0, 1.0, 0.0],
///     &[0.0, 0.5, 0.5],
///     &[0.0, 0.0, 1.0],
/// ])?;
/// let chain = AbsorbingDtmc::new(Dtmc::new(p)?)?;
/// let analysis = chain.analyze()?;
/// // Expected visits to Page starting from Start: 1 / 0.5 = 2.
/// let visits = analysis.expected_visits_from(0)?;
/// assert!((visits[1] - 2.0).abs() < 1e-12);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct AbsorbingDtmc {
    chain: Dtmc,
    transient: Vec<usize>,
    absorbing: Vec<usize>,
}

impl AbsorbingDtmc {
    /// Wraps a validated [`Dtmc`], detecting absorbing states
    /// (`P[i][i] = 1`).
    ///
    /// # Errors
    ///
    /// Returns [`MarkovError::BadStructure`] when the chain has no absorbing
    /// state or no transient state.
    pub fn new(chain: Dtmc) -> Result<Self, MarkovError> {
        let n = chain.num_states();
        let p = chain.transition_matrix();
        let mut transient = Vec::new();
        let mut absorbing = Vec::new();
        for i in 0..n {
            if (p[(i, i)] - 1.0).abs() < 1e-12 {
                absorbing.push(i);
            } else {
                transient.push(i);
            }
        }
        if absorbing.is_empty() {
            return Err(MarkovError::BadStructure {
                reason: "no absorbing state (no row with P[i][i] = 1)".into(),
            });
        }
        if transient.is_empty() {
            return Err(MarkovError::BadStructure {
                reason: "all states are absorbing".into(),
            });
        }
        Ok(AbsorbingDtmc {
            chain,
            transient,
            absorbing,
        })
    }

    /// The wrapped chain.
    pub fn chain(&self) -> &Dtmc {
        &self.chain
    }

    /// Indices of transient states, in increasing order.
    pub fn transient_states(&self) -> &[usize] {
        &self.transient
    }

    /// Indices of absorbing states, in increasing order.
    pub fn absorbing_states(&self) -> &[usize] {
        &self.absorbing
    }

    /// Performs the fundamental-matrix analysis: `N = (I - Q)^{-1}` and
    /// `B = N·R` where `Q` is the transient-to-transient block and `R` the
    /// transient-to-absorbing block.
    ///
    /// # Errors
    ///
    /// Returns [`MarkovError::BadStructure`] when `(I - Q)` is singular,
    /// which means some transient state can never be absorbed.
    pub fn analyze(&self) -> Result<AbsorbingAnalysis, MarkovError> {
        let p = self.chain.transition_matrix();
        let t = self.transient.len();
        let a = self.absorbing.len();
        let mut q = Matrix::zeros(t, t);
        let mut r = Matrix::zeros(t, a);
        for (ri, &si) in self.transient.iter().enumerate() {
            for (ci, &sj) in self.transient.iter().enumerate() {
                q[(ri, ci)] = p[(si, sj)];
            }
            for (ci, &sj) in self.absorbing.iter().enumerate() {
                r[(ri, ci)] = p[(si, sj)];
            }
        }
        let mut i_minus_q = Matrix::identity(t);
        i_minus_q = i_minus_q.sub_matrix(&q)?;
        let lu = Lu::new(&i_minus_q).map_err(|_| MarkovError::BadStructure {
            reason: "(I - Q) singular: some transient state never reaches absorption".into(),
        })?;
        let fundamental = lu.inverse()?;
        let absorption = fundamental.mul_matrix(&r)?;
        Ok(AbsorbingAnalysis {
            transient: self.transient.clone(),
            absorbing: self.absorbing.clone(),
            fundamental,
            absorption,
        })
    }
}

/// Results of absorbing-chain analysis.
///
/// Rows/columns of the matrices here are indexed by *position* within
/// [`AbsorbingAnalysis::transient_states`] /
/// [`AbsorbingAnalysis::absorbing_states`], not by raw state index; the
/// accessor methods perform the translation.
#[derive(Debug, Clone)]
pub struct AbsorbingAnalysis {
    transient: Vec<usize>,
    absorbing: Vec<usize>,
    /// `N = (I - Q)^{-1}`; `N[i][j]` = expected visits to transient j from i.
    fundamental: Matrix,
    /// `B = N·R`; `B[i][k]` = probability of absorption in state k from i.
    absorption: Matrix,
}

impl AbsorbingAnalysis {
    /// Indices of transient states, in increasing order.
    pub fn transient_states(&self) -> &[usize] {
        &self.transient
    }

    /// Indices of absorbing states, in increasing order.
    pub fn absorbing_states(&self) -> &[usize] {
        &self.absorbing
    }

    /// The fundamental matrix `N`.
    pub fn fundamental_matrix(&self) -> &Matrix {
        &self.fundamental
    }

    fn transient_position(&self, state: usize) -> Result<usize, MarkovError> {
        self.transient
            .iter()
            .position(|&s| s == state)
            .ok_or(MarkovError::BadStructure {
                reason: format!("state {state} is not transient"),
            })
    }

    /// Expected visits to each transient state starting from `start`
    /// (a transient state), indexed by position in
    /// [`Self::transient_states`]. The count includes the initial visit.
    ///
    /// # Errors
    ///
    /// Returns [`MarkovError::BadStructure`] when `start` is not transient.
    pub fn expected_visits_from(&self, start: usize) -> Result<Vec<f64>, MarkovError> {
        let row = self.transient_position(start)?;
        Ok(self.fundamental.row(row).to_vec())
    }

    /// Expected number of steps before absorption starting from `start`.
    ///
    /// # Errors
    ///
    /// Returns [`MarkovError::BadStructure`] when `start` is not transient.
    pub fn expected_steps_to_absorption(&self, start: usize) -> Result<f64, MarkovError> {
        Ok(self.expected_visits_from(start)?.iter().sum())
    }

    /// Probability of being absorbed in `target` (an absorbing state) when
    /// starting from transient state `start`.
    ///
    /// # Errors
    ///
    /// Returns [`MarkovError::BadStructure`] when `start` is not transient
    /// or `target` is not absorbing.
    pub fn absorption_probability(&self, start: usize, target: usize) -> Result<f64, MarkovError> {
        let row = self.transient_position(start)?;
        let col =
            self.absorbing
                .iter()
                .position(|&s| s == target)
                .ok_or(MarkovError::BadStructure {
                    reason: format!("state {target} is not absorbing"),
                })?;
        Ok(self.absorption[(row, col)])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The classic gambler's-ruin chain on {0, 1, 2, 3} with absorbing
    /// barriers at 0 and 3 and fair coin flips.
    fn gamblers_ruin() -> AbsorbingDtmc {
        let p = Matrix::from_rows(&[
            &[1.0, 0.0, 0.0, 0.0],
            &[0.5, 0.0, 0.5, 0.0],
            &[0.0, 0.5, 0.0, 0.5],
            &[0.0, 0.0, 0.0, 1.0],
        ])
        .unwrap();
        AbsorbingDtmc::new(Dtmc::new(p).unwrap()).unwrap()
    }

    #[test]
    fn partitions_states() {
        let chain = gamblers_ruin();
        assert_eq!(chain.transient_states(), &[1, 2]);
        assert_eq!(chain.absorbing_states(), &[0, 3]);
    }

    #[test]
    fn ruin_probabilities() {
        let analysis = gamblers_ruin().analyze().unwrap();
        // From state 1 (fortune 1 of 3): ruin probability 2/3.
        assert!((analysis.absorption_probability(1, 0).unwrap() - 2.0 / 3.0).abs() < 1e-12);
        assert!((analysis.absorption_probability(1, 3).unwrap() - 1.0 / 3.0).abs() < 1e-12);
        // Probabilities sum to one.
        let total = analysis.absorption_probability(2, 0).unwrap()
            + analysis.absorption_probability(2, 3).unwrap();
        assert!((total - 1.0).abs() < 1e-12);
    }

    #[test]
    fn expected_game_length() {
        let analysis = gamblers_ruin().analyze().unwrap();
        // Known result: expected duration from fortune i is i(N - i) = 2.
        assert!((analysis.expected_steps_to_absorption(1).unwrap() - 2.0).abs() < 1e-12);
        assert!((analysis.expected_steps_to_absorption(2).unwrap() - 2.0).abs() < 1e-12);
        // N = (I - Q)⁻¹ with Q = [[0, ½], [½, 0]]: 4/3 visits to the start
        // fortune and 2/3 to the other, which sum to the duration.
        let n = analysis.fundamental_matrix();
        for (i, j, expected) in [(0, 0, 4.0 / 3.0), (0, 1, 2.0 / 3.0), (1, 0, 2.0 / 3.0)] {
            assert!((n[(i, j)] - expected).abs() < 1e-12, "N[{i}][{j}]");
        }
    }

    #[test]
    fn no_absorbing_state_is_error() {
        let p = Matrix::from_rows(&[&[0.5, 0.5], &[0.5, 0.5]]).unwrap();
        assert!(matches!(
            AbsorbingDtmc::new(Dtmc::new(p).unwrap()),
            Err(MarkovError::BadStructure { .. })
        ));
    }

    #[test]
    fn all_absorbing_is_error() {
        let p = Matrix::identity(2);
        assert!(matches!(
            AbsorbingDtmc::new(Dtmc::new(p).unwrap()),
            Err(MarkovError::BadStructure { .. })
        ));
    }

    #[test]
    fn unreachable_absorption_detected() {
        // Transient states 0 and 1 loop between themselves forever; state 2
        // is absorbing but unreachable... but rows must be stochastic, so
        // build a pair that never leaks to the absorbing state.
        let p = Matrix::from_rows(&[&[0.0, 1.0, 0.0], &[1.0, 0.0, 0.0], &[0.0, 0.0, 1.0]]).unwrap();
        let chain = AbsorbingDtmc::new(Dtmc::new(p).unwrap()).unwrap();
        assert!(matches!(
            chain.analyze(),
            Err(MarkovError::BadStructure { .. })
        ));
    }

    #[test]
    fn accessor_errors() {
        let analysis = gamblers_ruin().analyze().unwrap();
        assert!(analysis.expected_visits_from(0).is_err()); // absorbing
        assert!(analysis.absorption_probability(1, 2).is_err()); // not absorbing
    }
}
