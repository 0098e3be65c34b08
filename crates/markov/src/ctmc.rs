use std::collections::HashMap;
use std::fmt;

use uavail_linalg::vector::is_probability_vector;
use uavail_linalg::{Lu, Matrix};

use crate::{gth_steady_state, MarkovError};

/// Opaque handle to a state added through [`CtmcBuilder::add_state`].
///
/// Using a newtype instead of a bare `usize` prevents accidentally mixing
/// state handles between different chains or with other integer quantities.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct StateId(usize);

impl StateId {
    /// The raw index of this state in the chain's state vector.
    pub fn index(self) -> usize {
        self.0
    }
}

impl fmt::Display for StateId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "state#{}", self.0)
    }
}

/// Algorithm used to compute a CTMC steady-state distribution.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SteadyStateMethod {
    /// Grassmann–Taksar–Heyman state elimination (subtraction-free,
    /// numerically robust for stiff generators). The default.
    #[default]
    Gth,
    /// Dense LU solve of the balance equations with a normalization row.
    DirectLu,
}

/// Builder for [`Ctmc`] with human-readable state labels.
///
/// # Examples
///
/// ```
/// use uavail_markov::CtmcBuilder;
///
/// # fn main() -> Result<(), uavail_markov::MarkovError> {
/// let mut b = CtmcBuilder::new();
/// let up = b.add_state("up");
/// let down = b.add_state("down");
/// b.add_transition(up, down, 0.01)?;
/// b.add_transition(down, up, 2.0)?;
/// let chain = b.build()?;
/// assert_eq!(chain.num_states(), 2);
/// assert_eq!(chain.label(up), Some("up"));
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Default)]
pub struct CtmcBuilder {
    labels: Vec<String>,
    /// (from, to, rate) triples; duplicates are summed at build time.
    transitions: Vec<(usize, usize, f64)>,
}

impl CtmcBuilder {
    /// Creates an empty builder.
    pub fn new() -> Self {
        CtmcBuilder::default()
    }

    /// Adds a state with the given label and returns its handle.
    pub fn add_state(&mut self, label: impl Into<String>) -> StateId {
        self.labels.push(label.into());
        StateId(self.labels.len() - 1)
    }

    /// Adds a transition with the given rate.
    ///
    /// Multiple transitions between the same pair are summed. Self-loops are
    /// rejected: a CTMC self-rate is meaningless (it cancels in the
    /// generator diagonal).
    ///
    /// # Errors
    ///
    /// * [`MarkovError::UnknownState`] for handles not from this builder.
    /// * [`MarkovError::InvalidRate`] for negative, zero, or non-finite
    ///   rates (the index is the source state).
    /// * [`MarkovError::InvalidValue`] for self-loops (`from == to`).
    pub fn add_transition(
        &mut self,
        from: StateId,
        to: StateId,
        rate: f64,
    ) -> Result<&mut Self, MarkovError> {
        let n = self.labels.len();
        for id in [from, to] {
            if id.0 >= n {
                return Err(MarkovError::UnknownState {
                    index: id.0,
                    states: n,
                });
            }
        }
        if !(rate.is_finite() && rate > 0.0) {
            return Err(MarkovError::InvalidRate {
                index: from.0,
                value: rate,
            });
        }
        if from == to {
            return Err(MarkovError::InvalidValue {
                context: format!("self-loop on {from}"),
                value: rate,
            });
        }
        self.transitions.push((from.0, to.0, rate));
        Ok(self)
    }

    /// Number of states added so far.
    pub fn num_states(&self) -> usize {
        self.labels.len()
    }

    /// Finalizes the chain, assembling the generator matrix.
    ///
    /// # Errors
    ///
    /// Returns [`MarkovError::EmptyChain`] when no states were added.
    pub fn build(self) -> Result<Ctmc, MarkovError> {
        let n = self.labels.len();
        if n == 0 {
            return Err(MarkovError::EmptyChain);
        }
        let mut q = Matrix::zeros(n, n);
        for (from, to, rate) in self.transitions {
            q[(from, to)] += rate;
            q[(from, from)] -= rate;
        }
        let mut label_index = HashMap::with_capacity(n);
        for (i, l) in self.labels.iter().enumerate() {
            label_index.insert(l.clone(), i);
        }
        Ok(Ctmc {
            labels: self.labels,
            label_index,
            q,
        })
    }
}

/// A continuous-time Markov chain with labeled states.
///
/// See [`CtmcBuilder`] for construction. The chain exposes its infinitesimal
/// generator `Q`, steady-state solutions by several methods, and transient
/// solutions via uniformization.
#[derive(Debug, Clone)]
pub struct Ctmc {
    labels: Vec<String>,
    label_index: HashMap<String, usize>,
    q: Matrix,
}

impl Ctmc {
    /// Builds a chain directly from a generator matrix with
    /// auto-generated labels (`"s0"`, `"s1"`, ...).
    ///
    /// # Errors
    ///
    /// * [`MarkovError::EmptyChain`] / non-square via [`MarkovError::Linalg`].
    /// * [`MarkovError::InvalidRate`] for negative off-diagonals (the
    ///   index is the offending row).
    /// * [`MarkovError::BadStructure`] when a row does not sum to ~0.
    pub fn from_generator(q: Matrix) -> Result<Self, MarkovError> {
        if q.rows() == 0 {
            return Err(MarkovError::EmptyChain);
        }
        if !q.is_square() {
            return Err(MarkovError::Linalg(uavail_linalg::LinalgError::NotSquare {
                shape: q.shape(),
            }));
        }
        let n = q.rows();
        for r in 0..n {
            let mut sum = 0.0;
            for c in 0..n {
                let v = q[(r, c)];
                if r != c && v < 0.0 {
                    return Err(MarkovError::InvalidRate { index: r, value: v });
                }
                sum += v;
            }
            // Scale tolerance by the row magnitude: request rates make
            // diagonals huge.
            let scale = q.row(r).iter().fold(1.0f64, |a, v| a.max(v.abs()));
            if sum.abs() > 1e-9 * scale {
                return Err(MarkovError::BadStructure {
                    reason: format!("generator row {r} sums to {sum}, expected 0"),
                });
            }
        }
        let labels: Vec<String> = (0..n).map(|i| format!("s{i}")).collect();
        let mut label_index = HashMap::with_capacity(n);
        for (i, l) in labels.iter().enumerate() {
            label_index.insert(l.clone(), i);
        }
        Ok(Ctmc {
            labels,
            label_index,
            q,
        })
    }

    /// Number of states.
    pub fn num_states(&self) -> usize {
        self.labels.len()
    }

    /// Borrow the infinitesimal generator `Q`.
    pub fn generator(&self) -> &Matrix {
        &self.q
    }

    /// The label of a state, or `None` for a foreign handle.
    pub fn label(&self, id: StateId) -> Option<&str> {
        self.labels.get(id.0).map(String::as_str)
    }

    /// Looks a state up by label.
    pub fn state_by_label(&self, label: &str) -> Option<StateId> {
        self.label_index.get(label).copied().map(StateId)
    }

    /// Steady-state distribution using the default method (GTH).
    ///
    /// # Errors
    ///
    /// Returns [`MarkovError::BadStructure`] for reducible chains.
    pub fn steady_state(&self) -> Result<Vec<f64>, MarkovError> {
        self.steady_state_with(SteadyStateMethod::Gth)
    }

    /// Steady-state distribution with an explicit method, letting callers
    /// cross-validate GTH against a dense LU solve.
    ///
    /// # Errors
    ///
    /// Structural errors as for [`Ctmc::steady_state`].
    pub fn steady_state_with(&self, method: SteadyStateMethod) -> Result<Vec<f64>, MarkovError> {
        match method {
            SteadyStateMethod::Gth => gth_steady_state(&self.q),
            SteadyStateMethod::DirectLu => self.steady_state_lu(),
        }
    }

    fn steady_state_lu(&self) -> Result<Vec<f64>, MarkovError> {
        let n = self.num_states();
        if n == 1 {
            return Ok(vec![1.0]);
        }
        // Solve Qᵀπ = 0 with the last equation replaced by Σπ = 1.
        let mut a = self.q.transpose();
        for c in 0..n {
            a[(n - 1, c)] = 1.0;
        }
        let mut b = vec![0.0; n];
        b[n - 1] = 1.0;
        let x = Lu::new(&a)
            .map_err(|_| MarkovError::BadStructure {
                reason: "balance equations singular: chain is reducible".into(),
            })?
            .solve(&b)?;
        Ok(x)
    }

    /// Uniformized DTMC `P = I + Q/Λ`. When `rate` is `None`, Λ is chosen as
    /// 1.02 × the largest exit rate, which guarantees aperiodicity. An
    /// explicit `rate` must *strictly* exceed the largest exit rate —
    /// equality would zero the self-loop of the bottleneck state and can
    /// make the uniformized chain periodic, so its powers oscillate
    /// instead of converging.
    ///
    /// # Errors
    ///
    /// Returns [`MarkovError::InvalidValue`] if `rate` is provided but does
    /// not strictly exceed the largest exit rate.
    pub fn uniformized(&self, rate: Option<f64>) -> Result<Matrix, MarkovError> {
        let n = self.num_states();
        let max_exit = self.max_exit_rate();
        let lambda = match rate {
            Some(l) if l <= max_exit => {
                return Err(MarkovError::InvalidValue {
                    context: "uniformization rate must strictly exceed max exit rate".into(),
                    value: l,
                })
            }
            Some(l) => l,
            None if max_exit == 0.0 => 1.0,
            None => max_exit * 1.02,
        };
        let mut p = self.q.scale(1.0 / lambda);
        for i in 0..n {
            p[(i, i)] += 1.0;
        }
        Ok(p)
    }

    /// Largest exit rate `max_i −q_ii`.
    pub fn max_exit_rate(&self) -> f64 {
        (0..self.num_states())
            .map(|i| -self.q[(i, i)])
            .fold(0.0, f64::max)
    }

    /// Transient distribution at time `t` from `initial`, by uniformization
    /// with adaptive truncation of the Poisson series.
    ///
    /// # Errors
    ///
    /// * [`MarkovError::InvalidValue`] when `initial` is not a probability
    ///   vector of the right length, or `t` is negative/non-finite.
    pub fn transient(&self, initial: &[f64], t: f64) -> Result<Vec<f64>, MarkovError> {
        let n = self.num_states();
        if initial.len() != n || !is_probability_vector(initial, 1e-9) {
            return Err(MarkovError::InvalidValue {
                context: "initial distribution".into(),
                value: initial.iter().sum(),
            });
        }
        if !(t.is_finite() && t >= 0.0) {
            return Err(MarkovError::InvalidValue {
                context: "time horizon".into(),
                value: t,
            });
        }
        if t == 0.0 {
            return Ok(initial.to_vec());
        }
        let max_exit = (0..n).map(|i| -self.q[(i, i)]).fold(0.0, f64::max);
        if max_exit == 0.0 {
            return Ok(initial.to_vec());
        }
        let lambda = max_exit * 1.02;
        let p = self.uniformized(Some(lambda))?;
        let lt = lambda * t;

        // Poisson(lt) weights, computed iteratively in log space to avoid
        // overflow; truncate when the cumulative weight reaches 1 - 1e-12.
        let mut result = vec![0.0; n];
        let mut v = initial.to_vec();
        // weight_0 = exp(-lt)
        let mut log_weight = -lt;
        let mut cumulative = 0.0;
        let mut k = 0usize;
        let target = 1.0 - 1e-12;
        loop {
            let w = log_weight.exp();
            if w > 0.0 {
                for (r, vi) in result.iter_mut().zip(&v) {
                    *r += w * vi;
                }
                cumulative += w;
            }
            if cumulative >= target {
                break;
            }
            k += 1;
            // Hard safety cap: lt + 10 sqrt(lt) + 50 terms always suffice.
            if (k as f64) > lt + 10.0 * lt.sqrt() + 50.0 {
                break;
            }
            log_weight += (lt).ln() - (k as f64).ln();
            v = p.vec_mul(&v)?;
        }
        // Renormalize for the truncated tail.
        let total: f64 = result.iter().sum();
        if total > 0.0 {
            for r in result.iter_mut() {
                *r /= total;
            }
        }
        Ok(result)
    }

    /// Expected total time spent in each state before hitting any state in
    /// `targets`, starting from `start`. Used for mean-time-to-failure style
    /// measures.
    ///
    /// # Errors
    ///
    /// * [`MarkovError::UnknownState`] for out-of-range indices.
    /// * [`MarkovError::BadStructure`] when `targets` is empty, contains
    ///   `start`, or absorption is not certain.
    pub fn expected_sojourns_before(
        &self,
        start: StateId,
        targets: &[StateId],
    ) -> Result<Vec<f64>, MarkovError> {
        let n = self.num_states();
        if start.0 >= n {
            return Err(MarkovError::UnknownState {
                index: start.0,
                states: n,
            });
        }
        if targets.is_empty() {
            return Err(MarkovError::BadStructure {
                reason: "no target states".into(),
            });
        }
        let mut is_target = vec![false; n];
        for t in targets {
            if t.0 >= n {
                return Err(MarkovError::UnknownState {
                    index: t.0,
                    states: n,
                });
            }
            is_target[t.0] = true;
        }
        if is_target[start.0] {
            return Err(MarkovError::BadStructure {
                reason: "start state is a target".into(),
            });
        }
        let others: Vec<usize> = (0..n).filter(|&i| !is_target[i]).collect();
        let m = others.len();
        // Solve  -Q_TT · τ = e_start  restricted to non-target states:
        // τ_j = expected time in state j before absorption.
        // Using the transposed system: sojourn vector s solves s·Q_TT = -δ.
        let mut qtt = Matrix::zeros(m, m);
        for (ri, &si) in others.iter().enumerate() {
            for (ci, &sj) in others.iter().enumerate() {
                qtt[(ri, ci)] = self.q[(si, sj)];
            }
        }
        let start_pos = others
            .iter()
            .position(|&s| s == start.0)
            .expect("start is non-target");
        let mut rhs = vec![0.0; m];
        rhs[start_pos] = -1.0;
        let lu = Lu::new(&qtt).map_err(|_| MarkovError::BadStructure {
            reason: "target set unreachable from some state".into(),
        })?;
        let s = lu.solve_transposed(&rhs)?;
        if uavail_obs::enabled() {
            record_sojourn_solve_health(&qtt, &s, &rhs);
        }
        let mut out = vec![0.0; n];
        for (pos, &state) in others.iter().enumerate() {
            out[state] = s[pos];
        }
        Ok(out)
    }

    /// Mean time from `start` until first hitting any of `targets`.
    ///
    /// # Errors
    ///
    /// Same contract as [`Ctmc::expected_sojourns_before`].
    pub fn mean_time_to(&self, start: StateId, targets: &[StateId]) -> Result<f64, MarkovError> {
        Ok(self.expected_sojourns_before(start, targets)?.iter().sum())
    }
}

/// Health gauge for the sojourn-time LU solve: the residual
/// `‖s·Q_TT − rhs‖∞` of the transposed system, reported on the shared
/// `linalg.lu.residual` channel. Only reached while recording is on —
/// the O(m²) matvec never runs on the production path.
#[cold]
fn record_sojourn_solve_health(qtt: &Matrix, s: &[f64], rhs: &[f64]) {
    let m = s.len();
    let mut residual = 0.0f64;
    for j in 0..m {
        let mut acc = 0.0;
        for (i, v) in s.iter().enumerate() {
            acc += v * qtt[(i, j)];
        }
        residual = residual.max((acc - rhs[j]).abs());
    }
    uavail_obs::health_record("linalg.lu.residual", residual);
}

#[cfg(test)]
mod tests {
    use super::*;

    fn two_state(lambda: f64, mu: f64) -> Ctmc {
        let mut b = CtmcBuilder::new();
        let up = b.add_state("up");
        let down = b.add_state("down");
        b.add_transition(up, down, lambda).unwrap();
        b.add_transition(down, up, mu).unwrap();
        b.build().unwrap()
    }

    #[test]
    fn builder_basics() {
        let chain = two_state(0.1, 1.0);
        assert_eq!(chain.num_states(), 2);
        assert_eq!(chain.label(StateId(0)), Some("up"));
        assert_eq!(chain.state_by_label("down"), Some(StateId(1)));
        assert_eq!(chain.state_by_label("missing"), None);
    }

    #[test]
    fn builder_rejects_bad_input() {
        let mut b = CtmcBuilder::new();
        let a = b.add_state("a");
        let c = b.add_state("b");
        assert!(b.add_transition(a, c, -1.0).is_err());
        assert!(b.add_transition(a, c, 0.0).is_err());
        assert!(b.add_transition(a, a, 1.0).is_err());
        assert!(CtmcBuilder::new().build().is_err());
    }

    #[test]
    fn generator_rows_sum_to_zero() {
        let chain = two_state(0.5, 2.0);
        assert!(chain.generator().rows_sum_to(0.0, 1e-12));
    }

    #[test]
    fn steady_state_two_state_availability() {
        let chain = two_state(0.001, 1.0);
        let pi = chain.steady_state().unwrap();
        let expected = 1.0 / 1.001;
        assert!((pi[0] - expected).abs() < 1e-15);
    }

    #[test]
    fn all_methods_agree_on_random_chain() {
        let q =
            Matrix::from_rows(&[&[-3.0, 2.0, 1.0], &[4.0, -5.0, 1.0], &[1.0, 1.0, -2.0]]).unwrap();
        let chain = Ctmc::from_generator(q).unwrap();
        let gth = chain.steady_state_with(SteadyStateMethod::Gth).unwrap();
        let lu = chain
            .steady_state_with(SteadyStateMethod::DirectLu)
            .unwrap();
        // Third leg: the uniformized transient solve at a horizon long
        // past the chain's mixing time.
        let late = chain.transient(&[1.0, 0.0, 0.0], 200.0).unwrap();
        for i in 0..3 {
            assert!((gth[i] - lu[i]).abs() < 1e-12);
            assert!((gth[i] - late[i]).abs() < 1e-9);
        }
    }

    #[test]
    fn from_generator_validation() {
        assert!(Ctmc::from_generator(Matrix::zeros(0, 0)).is_err());
        let bad_sum = Matrix::from_rows(&[&[-1.0, 0.5], &[1.0, -1.0]]).unwrap();
        assert!(matches!(
            Ctmc::from_generator(bad_sum),
            Err(MarkovError::BadStructure { .. })
        ));
        let neg = Matrix::from_rows(&[&[1.0, -1.0], &[1.0, -1.0]]).unwrap();
        assert!(matches!(
            Ctmc::from_generator(neg),
            Err(MarkovError::InvalidRate { index: 0, .. })
        ));
    }

    #[test]
    fn builder_rejects_bad_rates_with_the_offending_index() {
        let mut b = CtmcBuilder::new();
        let s0 = b.add_state("s0");
        let s1 = b.add_state("s1");
        for bad in [-1.0, 0.0, f64::NAN, f64::INFINITY] {
            assert!(
                matches!(
                    b.add_transition(s1, s0, bad),
                    Err(MarkovError::InvalidRate { index: 1, value }) if value.to_bits() == bad.to_bits()
                ),
                "rate {bad}"
            );
        }
        // Self-loops keep their structural error.
        assert!(matches!(
            b.add_transition(s0, s0, 1.0),
            Err(MarkovError::InvalidValue { .. })
        ));
    }

    #[test]
    fn transient_approaches_steady_state() {
        let chain = two_state(0.5, 1.5);
        let pi = chain.steady_state().unwrap();
        let p_t = chain.transient(&[1.0, 0.0], 50.0).unwrap();
        for (a, b) in p_t.iter().zip(&pi) {
            assert!((a - b).abs() < 1e-9, "{a} vs {b}");
        }
    }

    #[test]
    fn transient_at_zero_is_initial() {
        let chain = two_state(1.0, 1.0);
        assert_eq!(chain.transient(&[0.0, 1.0], 0.0).unwrap(), vec![0.0, 1.0]);
    }

    #[test]
    fn transient_matches_closed_form_two_state() {
        // P_up(t) = mu/(l+mu) + l/(l+mu) e^{-(l+mu)t} starting in up.
        let (l, mu) = (0.3, 0.7);
        let chain = two_state(l, mu);
        for &t in &[0.1, 0.5, 1.0, 3.0] {
            let p = chain.transient(&[1.0, 0.0], t).unwrap();
            let expected = mu / (l + mu) + l / (l + mu) * (-(l + mu) * t).exp();
            assert!(
                (p[0] - expected).abs() < 1e-9,
                "t={t}: {} vs {expected}",
                p[0]
            );
        }
    }

    #[test]
    fn transient_validates_inputs() {
        let chain = two_state(1.0, 1.0);
        assert!(chain.transient(&[0.5, 0.4], 1.0).is_err());
        assert!(chain.transient(&[1.0, 0.0], -1.0).is_err());
        assert!(chain.transient(&[1.0, 0.0], f64::NAN).is_err());
    }

    #[test]
    fn mttf_of_two_state_chain() {
        // Mean time from up to down is 1/lambda.
        let chain = two_state(0.25, 1.0);
        let up = StateId(0);
        let down = StateId(1);
        let mttf = chain.mean_time_to(up, &[down]).unwrap();
        assert!((mttf - 4.0).abs() < 1e-12);
    }

    #[test]
    fn mttf_of_redundant_pair() {
        // Two machines, failure rate l each, single repairer rate mu.
        // MTTF from state 2 (both up) to state 0 (both down):
        // known result (3l + mu) / (2 l^2)... derive numerically instead:
        let (l, mu) = (0.1, 1.0);
        let mut b = CtmcBuilder::new();
        let s2 = b.add_state("2up");
        let s1 = b.add_state("1up");
        let s0 = b.add_state("0up");
        b.add_transition(s2, s1, 2.0 * l).unwrap();
        b.add_transition(s1, s0, l).unwrap();
        b.add_transition(s1, s2, mu).unwrap();
        let chain = b.build().unwrap();
        let mttf = chain.mean_time_to(s2, &[s0]).unwrap();
        let expected = (3.0 * l + mu) / (2.0 * l * l);
        assert!((mttf - expected).abs() / expected < 1e-12);
    }

    #[test]
    fn sojourn_errors() {
        let chain = two_state(1.0, 1.0);
        let up = StateId(0);
        assert!(chain.expected_sojourns_before(up, &[]).is_err());
        assert!(chain.expected_sojourns_before(up, &[up]).is_err());
        assert!(chain.expected_sojourns_before(StateId(7), &[up]).is_err());
    }

    #[test]
    fn uniformized_is_stochastic() {
        let chain = two_state(2.0, 3.0);
        let p = chain.uniformized(None).unwrap();
        assert!(p.rows_sum_to(1.0, 1e-12));
        assert!(chain.uniformized(Some(1.0)).is_err()); // below max exit rate
    }

    #[test]
    fn uniformized_rejects_rate_equal_to_max_exit() {
        // With equal rates, Λ = max exit zeroes both self-loops: the
        // uniformized chain is periodic. The margin must therefore be
        // strict.
        let chain = two_state(1.0, 1.0);
        assert!(matches!(
            chain.uniformized(Some(1.0)),
            Err(MarkovError::InvalidValue { .. })
        ));
        assert!(chain.uniformized(Some(1.0 + 1e-9)).is_ok());
    }
}
