//! Sparse CTMC twin: direct CSR generator assembly and iterative
//! steady-state solvers for state spaces too large to densify.
//!
//! [`Ctmc`](crate::Ctmc) stores its generator densely, which caps it at a
//! few thousand states (a 10⁵-state generator would need ~80 GB). The
//! composite web-server-farm models of the paper grow linearly in `N_W`
//! but their generators stay ~4 entries per row, so [`SparseCtmc`]
//! assembles the generator straight into CSR form from a transition list
//! — a dense `Matrix` is never allocated on this path — and solves for
//! the stationary vector with the iterative sweeps of
//! [`uavail_linalg::iterative`].
//!
//! Assembly is bit-compatible with the dense path: triplet merging is
//! stable in insertion order, so the accumulated rate at every coordinate
//! (and the accumulated `-rate` diagonal) carries exactly the bits the
//! dense `q[(i, j)] += rate` loop would produce. Densifying a
//! [`SparseCtmc`] therefore reproduces the dense generator bit-for-bit,
//! which is what lets the [`Dense`](SparseSteadyStateMethod::Dense) route
//! of the solver heuristic inherit every pinned value of the dense
//! pipeline.

use std::collections::HashMap;

use uavail_linalg::iterative::{
    power_stationary, stationary_gauss_seidel, stationary_jacobi, IterOptions,
};
use uavail_linalg::vector::is_probability_vector;
use uavail_linalg::{CsrBuilder, CsrMatrix, Matrix, Triplet};

use crate::{gth_steady_state, MarkovError};

/// State count at or below which [`SparseCtmc::steady_state`] densifies
/// the generator and solves with GTH instead of iterating.
///
/// Below this size the dense solve is effectively instant, exact to
/// machine precision, and — because sparse assembly is bit-compatible
/// with dense assembly — reproduces the dense pipeline's results
/// bit-for-bit. Above it, the O(n²) densification and O(n³) elimination
/// start to dominate and the iterative chain takes over.
pub const SPARSE_DENSE_CUTOFF: usize = 1024;

/// Relative residual bound `‖π·Q‖∞ / Λ` a candidate stationary vector
/// must meet before an iterative stage's answer is accepted.
const RESIDUAL_TOLERANCE: f64 = 1e-8;

/// Bidirectional label ↔ index map for sparse chain state spaces.
///
/// Interns labels: inserting an existing label returns its original
/// index, so incremental model builders can reference states by name
/// without tracking handles.
///
/// # Examples
///
/// ```
/// use uavail_markov::IxMap;
///
/// let mut ix = IxMap::new();
/// assert_eq!(ix.insert("up"), 0);
/// assert_eq!(ix.insert("down"), 1);
/// assert_eq!(ix.insert("up"), 0); // interned
/// assert_eq!(ix.get("down"), Some(1));
/// assert_eq!(ix.label(1), Some("down"));
/// assert_eq!(ix.len(), 2);
/// ```
#[derive(Debug, Clone, Default)]
pub struct IxMap {
    labels: Vec<String>,
    index: HashMap<String, usize>,
}

impl IxMap {
    /// Creates an empty map.
    pub fn new() -> Self {
        IxMap::default()
    }

    /// Interns `label`, returning its index (existing or freshly assigned).
    pub fn insert(&mut self, label: impl Into<String>) -> usize {
        let label = label.into();
        if let Some(&ix) = self.index.get(&label) {
            return ix;
        }
        let ix = self.labels.len();
        self.index.insert(label.clone(), ix);
        self.labels.push(label);
        ix
    }

    /// Looks up the index of `label`.
    pub fn get(&self, label: &str) -> Option<usize> {
        self.index.get(label).copied()
    }

    /// The label at `ix`, or `None` when out of range (or when the chain
    /// was built without labels via [`SparseCtmc::from_transitions`]).
    pub fn label(&self, ix: usize) -> Option<&str> {
        self.labels.get(ix).map(String::as_str)
    }

    /// Number of interned labels.
    pub fn len(&self) -> usize {
        self.labels.len()
    }

    /// Whether no labels have been interned.
    pub fn is_empty(&self) -> bool {
        self.labels.is_empty()
    }
}

/// Builder for [`SparseCtmc`] with interned state labels.
///
/// # Examples
///
/// ```
/// use uavail_markov::SparseCtmcBuilder;
///
/// # fn main() -> Result<(), uavail_markov::MarkovError> {
/// let mut b = SparseCtmcBuilder::new();
/// let up = b.add_state("up");
/// let down = b.add_state("down");
/// b.add_transition(up, down, 1e-3)?;
/// b.add_transition(down, up, 1.0)?;
/// let chain = b.build()?;
/// let pi = chain.steady_state()?;
/// assert!((pi[up] - 1.0 / 1.001).abs() < 1e-12);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Default)]
pub struct SparseCtmcBuilder {
    ix: IxMap,
    transitions: Vec<(usize, usize, f64)>,
}

impl SparseCtmcBuilder {
    /// Creates an empty builder.
    pub fn new() -> Self {
        SparseCtmcBuilder::default()
    }

    /// Interns a state label, returning its index.
    pub fn add_state(&mut self, label: impl Into<String>) -> usize {
        self.ix.insert(label)
    }

    /// Adds a transition with the given rate. Duplicates are summed at
    /// build time, exactly as in the dense [`crate::CtmcBuilder`].
    ///
    /// # Errors
    ///
    /// * [`MarkovError::UnknownState`] for indices not interned yet.
    /// * [`MarkovError::InvalidRate`] for negative, zero, or non-finite
    ///   rates.
    /// * [`MarkovError::InvalidValue`] for self-loops.
    pub fn add_transition(
        &mut self,
        from: usize,
        to: usize,
        rate: f64,
    ) -> Result<&mut Self, MarkovError> {
        let n = self.ix.len();
        for ix in [from, to] {
            if ix >= n {
                return Err(MarkovError::UnknownState {
                    index: ix,
                    states: n,
                });
            }
        }
        check_transition(from, to, rate)?;
        self.transitions.push((from, to, rate));
        Ok(self)
    }

    /// Number of states interned so far.
    pub fn num_states(&self) -> usize {
        self.ix.len()
    }

    /// Finalizes the chain, assembling the generator directly in CSR form.
    ///
    /// # Errors
    ///
    /// Returns [`MarkovError::EmptyChain`] when no states were added.
    pub fn build(self) -> Result<SparseCtmc, MarkovError> {
        let n = self.ix.len();
        SparseCtmc::assemble(self.ix, n, &self.transitions)
    }
}

fn check_transition(from: usize, to: usize, rate: f64) -> Result<(), MarkovError> {
    if !(rate.is_finite() && rate > 0.0) {
        return Err(MarkovError::InvalidRate {
            index: from,
            value: rate,
        });
    }
    if from == to {
        return Err(MarkovError::InvalidValue {
            context: format!("self-loop on state#{from}"),
            value: rate,
        });
    }
    Ok(())
}

/// Algorithm used for a [`SparseCtmc`] steady-state solve.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SparseSteadyStateMethod {
    /// Solver-selection heuristic keyed on state count (the default):
    /// chains with at most [`SPARSE_DENSE_CUTOFF`] states densify and
    /// solve with GTH (exact, bit-identical to the dense pipeline);
    /// larger chains run Gauss–Seidel → power → damped Jacobi, accepting
    /// the first candidate whose relative residual `‖π·Q‖∞ / Λ` is below
    /// `1e-8`.
    #[default]
    Auto,
    /// Densify the generator and solve with GTH. Exact, but O(n²) memory —
    /// only sensible for small chains.
    Dense,
    /// Gauss–Seidel sweeps on `π·Q = 0`. The workhorse for large chains:
    /// one in-place sweep propagates probability mass across the whole
    /// state space, so long birth–death chains converge in a handful of
    /// sweeps.
    GaussSeidel,
    /// Power iteration on the uniformized DTMC `P = I + Q/Λ`. Robust
    /// (handles absorbing states) but moves mass one transition per step.
    Power,
    /// Damped Jacobi sweeps (`ω = 0.5`, immune to jump-chain
    /// periodicity).
    Jacobi,
}

/// A CTMC whose generator lives in CSR form end to end.
///
/// Construction via [`SparseCtmcBuilder`] (labeled) or
/// [`SparseCtmc::from_transitions`] (index-only, no per-state strings —
/// the right choice for 10⁵-state generated models). No dense `Matrix`
/// is allocated by assembly, uniformization, or the iterative solvers;
/// only the [`SparseSteadyStateMethod::Dense`] route densifies.
#[derive(Debug, Clone)]
pub struct SparseCtmc {
    ix: IxMap,
    q: CsrMatrix,
    /// Largest exit rate `max_i −q_ii`, fixed at assembly.
    max_exit: f64,
}

impl SparseCtmc {
    /// Builds a chain from `(from, to, rate)` transitions over states
    /// `0..num_states`, without interning any labels.
    ///
    /// # Errors
    ///
    /// * [`MarkovError::EmptyChain`] when `num_states` is zero.
    /// * [`MarkovError::UnknownState`] for out-of-range indices.
    /// * [`MarkovError::InvalidRate`] / [`MarkovError::InvalidValue`] as
    ///   for [`SparseCtmcBuilder::add_transition`].
    pub fn from_transitions(
        num_states: usize,
        transitions: &[(usize, usize, f64)],
    ) -> Result<Self, MarkovError> {
        for &(from, to, rate) in transitions {
            for ix in [from, to] {
                if ix >= num_states {
                    return Err(MarkovError::UnknownState {
                        index: ix,
                        states: num_states,
                    });
                }
            }
            check_transition(from, to, rate)?;
        }
        SparseCtmc::assemble(IxMap::new(), num_states, transitions)
    }

    fn assemble(
        ix: IxMap,
        num_states: usize,
        transitions: &[(usize, usize, f64)],
    ) -> Result<Self, MarkovError> {
        if num_states == 0 {
            return Err(MarkovError::EmptyChain);
        }
        // Two triplets per transition: the rate and its diagonal
        // compensation. `from_triplets` merges duplicates stably in
        // insertion order, so every merged entry carries the same bits
        // the dense `+=`/`-=` accumulation would.
        let mut triplets = Vec::with_capacity(2 * transitions.len());
        for &(from, to, rate) in transitions {
            triplets.push(Triplet::new(from, to, rate));
            triplets.push(Triplet::new(from, from, -rate));
        }
        let q = CsrMatrix::from_triplets(num_states, num_states, &triplets)?;
        let max_exit = (0..num_states).map(|i| -q.get(i, i)).fold(0.0, f64::max);
        Ok(SparseCtmc { ix, q, max_exit })
    }

    /// Number of states.
    pub fn num_states(&self) -> usize {
        self.q.rows()
    }

    /// Stored non-zeros of the generator.
    pub fn nnz(&self) -> usize {
        self.q.nnz()
    }

    /// Borrow the CSR generator `Q`.
    pub fn generator(&self) -> &CsrMatrix {
        &self.q
    }

    /// The label ↔ index map (empty for chains built via
    /// [`SparseCtmc::from_transitions`]).
    pub fn ix_map(&self) -> &IxMap {
        &self.ix
    }

    /// Largest exit rate `max_i −q_ii`.
    pub fn max_exit_rate(&self) -> f64 {
        self.max_exit
    }

    /// Densifies the generator. The result is bit-identical to what the
    /// dense [`crate::CtmcBuilder`] would have assembled from the same
    /// transitions.
    pub fn to_dense_generator(&self) -> Matrix {
        self.q.to_dense()
    }

    /// Uniformized DTMC `P = I + Q/Λ`, built directly in CSR form — the
    /// dense `n×n` matrix is never materialized. Returns `(P, Λ)`.
    ///
    /// When `rate` is `None`, `Λ = 1.02 × max exit rate`, which
    /// guarantees aperiodicity; an explicit `rate` must exceed the
    /// largest exit rate *strictly* (equality would zero the bottleneck
    /// state's self-loop and can make the chain periodic).
    ///
    /// # Errors
    ///
    /// Returns [`MarkovError::InvalidValue`] when `rate` does not
    /// strictly exceed the largest exit rate.
    pub fn uniformized(&self, rate: Option<f64>) -> Result<(CsrMatrix, f64), MarkovError> {
        let lambda = uniformization_rate(self.max_exit, rate)?;
        let n = self.num_states();
        let recip = 1.0 / lambda;
        let mut b = CsrBuilder::with_capacity(n, n, self.q.nnz() + n);
        for r in 0..n {
            let mut wrote_diag = false;
            for (c, v) in self.q.row_entries(r) {
                if c == r {
                    b.push(r, r, v * recip + 1.0)?;
                    wrote_diag = true;
                } else {
                    if c > r && !wrote_diag {
                        b.push(r, r, 1.0)?;
                        wrote_diag = true;
                    }
                    b.push(r, c, v * recip)?;
                }
            }
            if !wrote_diag {
                b.push(r, r, 1.0)?;
            }
        }
        Ok((b.finish()?, lambda))
    }

    /// Steady-state distribution via the [`Auto`]
    /// (state-count-keyed) solver heuristic.
    ///
    /// [`Auto`]: SparseSteadyStateMethod::Auto
    ///
    /// # Errors
    ///
    /// [`MarkovError::BadStructure`] when every applicable solver fails
    /// or no candidate meets the residual bound — for a well-formed
    /// generator this means the chain is reducible.
    pub fn steady_state(&self) -> Result<Vec<f64>, MarkovError> {
        self.steady_state_with(SparseSteadyStateMethod::Auto)
    }

    /// Steady-state distribution with an explicit method.
    ///
    /// Candidates from the iterative methods are accepted only when
    /// their relative residual `‖π·Q‖∞ / Λ` is below `1e-8` (recorded on
    /// the `markov.sparse.residual` health channel); the `Auto` chain
    /// counts every stage it falls through on
    /// `markov.sparse.steady_state.fallbacks`.
    ///
    /// # Errors
    ///
    /// As for [`SparseCtmc::steady_state`]; single-method solves also
    /// surface the underlying iteration failure via
    /// [`MarkovError::Linalg`].
    pub fn steady_state_with(
        &self,
        method: SparseSteadyStateMethod,
    ) -> Result<Vec<f64>, MarkovError> {
        match method {
            SparseSteadyStateMethod::Auto => self.steady_state_auto(),
            SparseSteadyStateMethod::Dense => gth_steady_state(&self.q.to_dense()),
            SparseSteadyStateMethod::GaussSeidel => {
                let qt = self.q.transpose();
                let sol = stationary_gauss_seidel(
                    &qt,
                    IterOptions::new().tolerance(1e-14).max_iterations(20_000),
                )?;
                self.accept_candidate(sol.x)
            }
            SparseSteadyStateMethod::Power => {
                let (p, _) = self.uniformized(None)?;
                let sol = power_stationary(
                    &p,
                    IterOptions::new().tolerance(1e-13).max_iterations(500_000),
                )?;
                self.accept_candidate(sol.x)
            }
            SparseSteadyStateMethod::Jacobi => {
                let qt = self.q.transpose();
                let sol = stationary_jacobi(
                    &qt,
                    IterOptions::new()
                        .tolerance(1e-13)
                        .max_iterations(500_000)
                        .relaxation(0.5),
                )?;
                self.accept_candidate(sol.x)
            }
        }
    }

    /// The `Auto` route: dense GTH for small chains, otherwise the
    /// Gauss–Seidel → power → Jacobi fallback chain.
    fn steady_state_auto(&self) -> Result<Vec<f64>, MarkovError> {
        if self.num_states() <= SPARSE_DENSE_CUTOFF {
            return self.steady_state_with(SparseSteadyStateMethod::Dense);
        }
        for method in [
            SparseSteadyStateMethod::GaussSeidel,
            SparseSteadyStateMethod::Power,
            SparseSteadyStateMethod::Jacobi,
        ] {
            match self.steady_state_with(method) {
                Ok(pi) => return Ok(pi),
                Err(_) => uavail_obs::counter_add("markov.sparse.steady_state.fallbacks", 1),
            }
        }
        Err(MarkovError::BadStructure {
            reason: "sparse steady-state chain exhausted: Gauss-Seidel, power and \
                     Jacobi all failed or exceeded the residual bound"
                .into(),
        })
    }

    /// Residual gate: accepts `pi` only when `‖π·Q‖∞ / Λ ≤ 1e-8`.
    fn accept_candidate(&self, pi: Vec<f64>) -> Result<Vec<f64>, MarkovError> {
        let residual = self
            .q
            .vec_mul(&pi)?
            .iter()
            .fold(0.0f64, |a, v| a.max(v.abs()));
        let scale = if self.max_exit > 0.0 {
            self.max_exit
        } else {
            1.0
        };
        let relative = residual / scale;
        uavail_obs::health_record("markov.sparse.residual", relative);
        if relative <= RESIDUAL_TOLERANCE {
            Ok(pi)
        } else {
            Err(MarkovError::BadStructure {
                reason: format!(
                    "iterative stationary candidate rejected: relative residual \
                     {relative:.3e} exceeds {RESIDUAL_TOLERANCE:.0e}"
                ),
            })
        }
    }

    /// Transient distribution at time `t` from `initial`, by sparse
    /// uniformization with adaptive truncation of the Poisson series —
    /// the same series as [`crate::Ctmc::transient`], evaluated with
    /// nnz-proportional buffers.
    ///
    /// # Errors
    ///
    /// * [`MarkovError::InvalidValue`] when `initial` is not a
    ///   probability vector of the right length, or `t` is
    ///   negative/non-finite.
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
        if t == 0.0 || self.max_exit == 0.0 {
            return Ok(initial.to_vec());
        }
        let lambda = self.max_exit * 1.02;
        let (p, _) = self.uniformized(Some(lambda))?;
        let lt = lambda * t;

        let mut result = vec![0.0; n];
        let mut v = initial.to_vec();
        let mut next = Vec::with_capacity(n);
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
            if (k as f64) > lt + 10.0 * lt.sqrt() + 50.0 {
                break;
            }
            log_weight += (lt).ln() - (k as f64).ln();
            p.vec_mul_into(&v, &mut next)?;
            std::mem::swap(&mut v, &mut next);
        }
        let total: f64 = result.iter().sum();
        if total > 0.0 {
            for r in result.iter_mut() {
                *r /= total;
            }
        }
        Ok(result)
    }
}

/// Shared uniformization-rate selection with the strict-margin rule.
pub(crate) fn uniformization_rate(max_exit: f64, rate: Option<f64>) -> Result<f64, MarkovError> {
    match rate {
        Some(l) => {
            if l <= max_exit {
                Err(MarkovError::InvalidValue {
                    context: "uniformization rate must strictly exceed max exit rate".into(),
                    value: l,
                })
            } else {
                Ok(l)
            }
        }
        None => {
            if max_exit == 0.0 {
                Ok(1.0)
            } else {
                Ok(max_exit * 1.02)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::CtmcBuilder;

    /// Shared-repair birth–death farm transitions: `n` servers, failure
    /// rate `lam` each, one repairer at rate `mu`. State i = i failed.
    fn farm_transitions(n: usize, lam: f64, mu: f64) -> Vec<(usize, usize, f64)> {
        let mut t = Vec::new();
        for i in 0..n {
            t.push((i, i + 1, (n - i) as f64 * lam));
            t.push((i + 1, i, mu));
        }
        t
    }

    fn dense_twin(n: usize, transitions: &[(usize, usize, f64)]) -> crate::Ctmc {
        let mut b = CtmcBuilder::new();
        let ids: Vec<_> = (0..n).map(|i| b.add_state(format!("s{i}"))).collect();
        for &(from, to, rate) in transitions {
            b.add_transition(ids[from], ids[to], rate).unwrap();
        }
        b.build().unwrap()
    }

    #[test]
    fn ixmap_interns() {
        let mut ix = IxMap::new();
        assert!(ix.is_empty());
        assert_eq!(ix.insert("a"), 0);
        assert_eq!(ix.insert("b"), 1);
        assert_eq!(ix.insert("a"), 0);
        assert_eq!(ix.len(), 2);
        assert_eq!(ix.get("missing"), None);
        assert_eq!(ix.label(5), None);
    }

    #[test]
    fn builder_validation() {
        let mut b = SparseCtmcBuilder::new();
        let a = b.add_state("a");
        let c = b.add_state("b");
        assert!(b.add_transition(a, 7, 1.0).is_err());
        assert!(b.add_transition(a, c, -1.0).is_err());
        assert!(b.add_transition(a, c, 0.0).is_err());
        assert!(b.add_transition(a, a, 1.0).is_err());
        assert!(SparseCtmcBuilder::new().build().is_err());
        assert!(SparseCtmc::from_transitions(0, &[]).is_err());
        assert!(SparseCtmc::from_transitions(2, &[(0, 2, 1.0)]).is_err());
    }

    #[test]
    fn sparse_generator_is_bit_identical_to_dense() {
        // Duplicate transitions force the merge path; insertion-order
        // accumulation must match the dense += / -= loop bit-for-bit.
        let transitions = vec![
            (0, 1, 0.1),
            (1, 0, 2.0),
            (0, 1, 0.3),
            (1, 2, 0.7),
            (2, 0, 1.3),
        ];
        let sparse = SparseCtmc::from_transitions(3, &transitions).unwrap();
        let dense = dense_twin(3, &transitions);
        let d = sparse.to_dense_generator();
        for r in 0..3 {
            for c in 0..3 {
                assert_eq!(
                    d[(r, c)].to_bits(),
                    dense.generator()[(r, c)].to_bits(),
                    "({r},{c})"
                );
            }
        }
        assert_eq!(sparse.nnz(), 7); // 5 off-diagonals merge to 4, plus 3 diagonals
    }

    #[test]
    fn uniformized_is_stochastic_and_strict() {
        let chain = SparseCtmc::from_transitions(2, &[(0, 1, 2.0), (1, 0, 3.0)]).unwrap();
        let (p, lambda) = chain.uniformized(None).unwrap();
        assert!((lambda - 3.06).abs() < 1e-12);
        for r in 0..2 {
            let sum: f64 = p.row_entries(r).map(|(_, v)| v).sum();
            assert!((sum - 1.0).abs() < 1e-12);
        }
        // rate == max_exit is rejected (periodic uniformized chain).
        assert!(chain.uniformized(Some(3.0)).is_err());
        assert!(chain.uniformized(Some(3.1)).is_ok());
    }

    #[test]
    fn uniformized_matches_dense_bits() {
        let transitions = farm_transitions(6, 0.3, 1.7);
        let sparse = SparseCtmc::from_transitions(7, &transitions).unwrap();
        let dense = dense_twin(7, &transitions);
        let (p, lambda) = sparse.uniformized(None).unwrap();
        let pd = dense.uniformized(Some(lambda)).unwrap();
        let back = p.to_dense();
        for r in 0..7 {
            for c in 0..7 {
                assert_eq!(back[(r, c)].to_bits(), pd[(r, c)].to_bits(), "({r},{c})");
            }
        }
    }

    #[test]
    fn small_chain_auto_matches_dense_gth_bits() {
        let transitions = farm_transitions(5, 1e-4, 1.0);
        let sparse = SparseCtmc::from_transitions(6, &transitions).unwrap();
        let dense = dense_twin(6, &transitions);
        let ps = sparse.steady_state().unwrap();
        let pd = dense.steady_state().unwrap();
        for (a, b) in ps.iter().zip(&pd) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    #[test]
    fn iterative_methods_agree_with_dense() {
        let transitions = farm_transitions(8, 0.2, 1.5);
        let sparse = SparseCtmc::from_transitions(9, &transitions).unwrap();
        let want = dense_twin(9, &transitions).steady_state().unwrap();
        for method in [
            SparseSteadyStateMethod::GaussSeidel,
            SparseSteadyStateMethod::Power,
            SparseSteadyStateMethod::Jacobi,
        ] {
            let pi = sparse.steady_state_with(method).unwrap();
            for (a, b) in pi.iter().zip(&want) {
                assert!((a - b).abs() < 1e-9, "{method:?}: {a} vs {b}");
            }
        }
    }

    #[test]
    fn large_birth_death_solves_through_iterative_chain() {
        // Above the dense cutoff: must go through Gauss–Seidel and agree
        // with the closed-form geometric stationary distribution.
        let n = SPARSE_DENSE_CUTOFF + 500;
        let mut transitions = Vec::new();
        for i in 0..n - 1 {
            transitions.push((i, i + 1, 0.4));
            transitions.push((i + 1, i, 1.0));
        }
        let chain = SparseCtmc::from_transitions(n, &transitions).unwrap();
        let pi = chain.steady_state().unwrap();
        let rho: f64 = 0.4;
        let z = (1.0 - rho.powi(n as i32)) / (1.0 - rho);
        for (i, p) in pi.iter().take(20).enumerate() {
            let want = rho.powi(i as i32) / z;
            assert!((p - want).abs() < 1e-9, "state {i}: {p} vs {want}");
        }
    }

    #[test]
    fn transient_matches_dense_twin() {
        let transitions = farm_transitions(4, 0.5, 1.2);
        let sparse = SparseCtmc::from_transitions(5, &transitions).unwrap();
        let dense = dense_twin(5, &transitions);
        let mut initial = vec![0.0; 5];
        initial[0] = 1.0;
        for &t in &[0.1, 1.0, 10.0] {
            let a = sparse.transient(&initial, t).unwrap();
            let b = dense.transient(&initial, t).unwrap();
            for (x, y) in a.iter().zip(&b) {
                assert!((x - y).abs() < 1e-12, "t={t}: {x} vs {y}");
            }
        }
        assert!(sparse.transient(&initial, -1.0).is_err());
        assert!(sparse.transient(&[0.5, 0.1], 1.0).is_err());
    }

    #[test]
    fn labeled_builder_round_trip() {
        let mut b = SparseCtmcBuilder::new();
        let up = b.add_state("up");
        let down = b.add_state("down");
        b.add_transition(up, down, 0.5).unwrap();
        b.add_transition(down, up, 2.0).unwrap();
        let chain = b.build().unwrap();
        assert_eq!(chain.ix_map().get("down"), Some(down));
        assert_eq!(chain.ix_map().label(up), Some("up"));
        assert_eq!(chain.num_states(), 2);
        assert!((chain.max_exit_rate() - 2.0).abs() < 1e-15);
    }
}
