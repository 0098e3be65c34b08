use std::cmp::Ordering;
use std::collections::HashMap;

use rand::Rng;
use uavail_linalg::{LinalgError, LuWorkspace, Matrix};
use uavail_markov::{AbsorbingDtmc, Dtmc};

use crate::ProfileError;

/// Cap on the number of functions for exact scenario-class enumeration
/// (the algorithm iterates over all `2^n` visited-function sets).
const MAX_FUNCTIONS_FOR_ENUMERATION: usize = 20;

/// A user operational-profile graph: `Start → functions → Exit`.
///
/// Construction is incremental: create the node set with
/// [`ProfileGraph::new`], assign transition probabilities, then seal the
/// graph with [`ProfileGraph::validated`], which checks stochasticity and
/// termination. All analysis methods require a validated graph (they
/// re-validate cheaply and return [`ProfileError`] otherwise).
///
/// Sessions start at `Start`, which routes to a first function
/// (`set_start_transition`); each function routes to other functions or to
/// `Exit` (`set_transition` with `None` as destination).
///
/// See the [crate documentation](crate) for an end-to-end example.
#[derive(Debug, Clone, PartialEq)]
pub struct ProfileGraph {
    functions: Vec<String>,
    /// `start[j]`: probability the session begins at function `j`.
    start: Vec<f64>,
    /// `trans[i][j]`: probability of moving from function `i` to `j`.
    trans: Vec<Vec<f64>>,
    /// `exit[i]`: probability of leaving the site from function `i`.
    exit: Vec<f64>,
}

impl ProfileGraph {
    /// Creates a graph over the given function names with all transition
    /// probabilities zero.
    ///
    /// # Errors
    ///
    /// * [`ProfileError::Empty`] when no functions are given.
    /// * [`ProfileError::BadTable`] for duplicate function names.
    pub fn new<S: Into<String>>(functions: Vec<S>) -> Result<Self, ProfileError> {
        if functions.is_empty() {
            return Err(ProfileError::Empty);
        }
        let functions: Vec<String> = functions.into_iter().map(Into::into).collect();
        for (i, f) in functions.iter().enumerate() {
            if functions[..i].contains(f) {
                return Err(ProfileError::BadTable {
                    reason: format!("duplicate function name {f:?}"),
                });
            }
        }
        let n = functions.len();
        Ok(ProfileGraph {
            functions,
            start: vec![0.0; n],
            trans: vec![vec![0.0; n]; n],
            exit: vec![0.0; n],
        })
    }

    /// Number of functions.
    pub fn num_functions(&self) -> usize {
        self.functions.len()
    }

    fn resolve(&self, name: &str) -> Result<usize, ProfileError> {
        self.functions
            .iter()
            .position(|f| f == name)
            .ok_or_else(|| ProfileError::UnknownFunction { name: name.into() })
    }

    /// Checks `p` is a probability; `context` names the edge and is only
    /// formatted when the check fails.
    fn check_probability(p: f64, context: impl FnOnce() -> String) -> Result<(), ProfileError> {
        if p.is_finite() && (0.0..=1.0).contains(&p) {
            Ok(())
        } else {
            Err(ProfileError::InvalidProbability {
                context: context(),
                value: p,
            })
        }
    }

    /// Sets the probability that a session begins at `function`.
    ///
    /// # Errors
    ///
    /// [`ProfileError::UnknownFunction`] / [`ProfileError::InvalidProbability`].
    pub fn set_start_transition(&mut self, function: &str, p: f64) -> Result<(), ProfileError> {
        let j = self.resolve(function)?;
        Self::check_probability(p, || format!("Start -> {function}"))?;
        self.start[j] = p;
        Ok(())
    }

    /// Sets the probability of moving from `from` to `to`
    /// (`None` meaning Exit).
    ///
    /// # Errors
    ///
    /// [`ProfileError::UnknownFunction`] / [`ProfileError::InvalidProbability`].
    pub fn set_transition(
        &mut self,
        from: &str,
        to: Option<&str>,
        p: f64,
    ) -> Result<(), ProfileError> {
        let i = self.resolve(from)?;
        match to {
            Some(name) => {
                let j = self.resolve(name)?;
                Self::check_probability(p, || format!("{from} -> {name}"))?;
                self.trans[i][j] = p;
            }
            None => {
                Self::check_probability(p, || format!("{from} -> Exit"))?;
                self.exit[i] = p;
            }
        }
        Ok(())
    }

    fn validate(&self) -> Result<(), ProfileError> {
        let tol = 1e-9;
        let start_sum: f64 = self.start.iter().sum();
        if (start_sum - 1.0).abs() > tol {
            return Err(ProfileError::UnnormalizedNode {
                node: "Start".into(),
                sum: start_sum,
            });
        }
        for (i, name) in self.functions.iter().enumerate() {
            let sum: f64 = self.trans[i].iter().sum::<f64>() + self.exit[i];
            if (sum - 1.0).abs() > tol {
                return Err(ProfileError::UnnormalizedNode {
                    node: name.clone(),
                    sum,
                });
            }
        }
        // Termination: from every function reachable from Start, Exit must
        // be reachable. Equivalent to the absorbing analysis succeeding;
        // here run a cheap reachability check both ways.
        let n = self.num_functions();
        let mut reachable = vec![false; n];
        let mut stack: Vec<usize> = (0..n).filter(|&j| self.start[j] > 0.0).collect();
        for &s in &stack {
            reachable[s] = true;
        }
        while let Some(i) = stack.pop() {
            for j in 0..n {
                if self.trans[i][j] > 0.0 && !reachable[j] {
                    reachable[j] = true;
                    stack.push(j);
                }
            }
        }
        // Backward from Exit.
        let mut reaches_exit = vec![false; n];
        let mut changed = true;
        while changed {
            changed = false;
            for i in 0..n {
                if reaches_exit[i] {
                    continue;
                }
                let direct = self.exit[i] > 0.0;
                let via = (0..n).any(|j| self.trans[i][j] > 0.0 && reaches_exit[j]);
                if direct || via {
                    reaches_exit[i] = true;
                    changed = true;
                }
            }
        }
        for i in 0..n {
            if reachable[i] && !reaches_exit[i] {
                return Err(ProfileError::NonTerminating {
                    reason: format!("function {:?} cannot reach Exit", self.functions[i]),
                });
            }
        }
        Ok(())
    }

    /// Validates the graph and returns it, enabling the analysis methods.
    ///
    /// # Errors
    ///
    /// * [`ProfileError::UnnormalizedNode`] when any node's outgoing
    ///   probabilities do not sum to one.
    /// * [`ProfileError::NonTerminating`] when a reachable function cannot
    ///   reach Exit.
    pub fn validated(self) -> Result<Self, ProfileError> {
        self.validate()?;
        Ok(self)
    }

    /// Converts to an absorbing DTMC: state 0 = Start, states `1..=n` =
    /// functions, state `n + 1` = Exit (absorbing).
    ///
    /// # Errors
    ///
    /// Propagates validation failures.
    pub fn to_dtmc(&self) -> Result<Dtmc, ProfileError> {
        self.validate()?;
        let n = self.num_functions();
        let size = n + 2;
        let mut p = Matrix::zeros(size, size);
        for j in 0..n {
            p[(0, j + 1)] = self.start[j];
        }
        for i in 0..n {
            for j in 0..n {
                p[(i + 1, j + 1)] = self.trans[i][j];
            }
            p[(i + 1, n + 1)] = self.exit[i];
        }
        p[(n + 1, n + 1)] = 1.0;
        Ok(Dtmc::new(p)?)
    }

    /// Probability that a session visits each function at least once, in
    /// declaration order.
    ///
    /// # Errors
    ///
    /// Propagates validation and Markov failures.
    pub fn visit_probabilities(&self) -> Result<Vec<f64>, ProfileError> {
        self.validate()?;
        let n = self.num_functions();
        let mut out = Vec::with_capacity(n);
        for target in 0..n {
            // Make `target` absorbing alongside Exit; absorption at target
            // = the session visits it.
            let dtmc = self.to_dtmc()?;
            let mut p = dtmc.transition_matrix().clone();
            let t = target + 1;
            for c in 0..p.cols() {
                p[(t, c)] = 0.0;
            }
            p[(t, t)] = 1.0;
            let chain = AbsorbingDtmc::new(Dtmc::new(p)?)?;
            let analysis = chain.analyze()?;
            out.push(analysis.absorption_probability(0, t)?);
        }
        Ok(out)
    }

    /// Expected number of invocations of each function per session.
    ///
    /// # Errors
    ///
    /// Propagates validation and Markov failures.
    pub fn expected_invocations(&self) -> Result<Vec<f64>, ProfileError> {
        let dtmc = self.to_dtmc()?;
        let chain = AbsorbingDtmc::new(dtmc)?;
        let analysis = chain.analyze()?;
        let visits = analysis.expected_visits_from(0)?;
        // visits is indexed by transient position; transient states are
        // 0 (Start) and 1..=n (functions) — Exit is the only absorbing one.
        let n = self.num_functions();
        let mut out = vec![0.0; n];
        for (pos, &state) in analysis.transient_states().iter().enumerate() {
            if state >= 1 && state <= n {
                out[state - 1] = visits[pos];
            }
        }
        Ok(out)
    }

    /// Expected number of function invocations in a session (session
    /// "length" in pages).
    ///
    /// # Errors
    ///
    /// Propagates validation and Markov failures.
    pub fn mean_session_length(&self) -> Result<f64, ProfileError> {
        Ok(self.expected_invocations()?.iter().sum())
    }

    /// Probability mass function of the session length (number of
    /// function invocations), truncated at `max_len`; the last returned
    /// entry at index `max_len` carries the remaining tail mass
    /// `P(length > max_len - 1) - P(length > max_len)`… more precisely the
    /// vector has `max_len + 1` entries where entry `k` (for
    /// `1 <= k <= max_len`) is `P(length = k)` and entry 0 is always 0
    /// (every session invokes at least one function).
    ///
    /// Computed by stepping the sub-stochastic function-to-function kernel:
    /// `P(length = k) = v Tᵏ⁻¹ e` with `v` the start vector, `T` the
    /// function-transition block and `e` the exit column.
    ///
    /// # Errors
    ///
    /// Propagates validation failures; [`ProfileError::BadTable`] when
    /// `max_len == 0`.
    pub fn session_length_pmf(&self, max_len: usize) -> Result<Vec<f64>, ProfileError> {
        self.validate()?;
        if max_len == 0 {
            return Err(ProfileError::BadTable {
                reason: "max_len must be at least 1".into(),
            });
        }
        let n = self.num_functions();
        let mut pmf = vec![0.0; max_len + 1];
        let mut v = self.start.clone();
        for k in 1..=max_len {
            // Mass exiting after exactly this invocation.
            pmf[k] = v.iter().zip(&self.exit).map(|(p, e)| p * e).sum();
            // Advance one function step.
            let mut next = vec![0.0; n];
            for i in 0..n {
                if v[i] == 0.0 {
                    continue;
                }
                for j in 0..n {
                    next[j] += v[i] * self.trans[i][j];
                }
            }
            v = next;
        }
        Ok(pmf)
    }

    /// Probability that a session reaches Exit while invoking only
    /// functions from `allowed` (a bitmask-like slice of booleans over the
    /// functions in declaration order).
    ///
    /// # Errors
    ///
    /// Propagates validation failures; length mismatches are reported as
    /// [`ProfileError::BadTable`].
    pub fn subset_probability(&self, allowed: &[bool]) -> Result<f64, ProfileError> {
        self.validate()?;
        let n = self.num_functions();
        if allowed.len() != n {
            return Err(ProfileError::BadTable {
                reason: format!("allowed mask has length {}, expected {n}", allowed.len()),
            });
        }
        self.subset_probability_in(|i| allowed[i], &mut SubsetScratch::default())
    }

    /// [`ProfileGraph::subset_probability`] for the functions `i` with
    /// `allowed(i)`, on an already validated graph, solving in `s`.
    ///
    /// `h[i]` = P(reach Exit staying within the allowed set | currently at
    /// function `i`) solves `(I - T) h = e`, where `T` is the
    /// allowed-to-allowed transition block and `e` the exit column.
    fn subset_probability_in(
        &self,
        allowed: impl Fn(usize) -> bool,
        s: &mut SubsetScratch,
    ) -> Result<f64, ProfileError> {
        s.members.clear();
        s.members
            .extend((0..self.num_functions()).filter(|&i| allowed(i)));
        let m = s.members.len();
        if m == 0 {
            // No function allowed: a session always invokes at least one.
            return Ok(0.0);
        }
        s.a.reset_zeros(m, m);
        s.b.clear();
        for (r, &i) in s.members.iter().enumerate() {
            s.a[(r, r)] = 1.0;
            for (c, &j) in s.members.iter().enumerate() {
                s.a[(r, c)] -= self.trans[i][j];
            }
            s.b.push(self.exit[i]);
        }
        let markov = |e: LinalgError| ProfileError::Markov(e.into());
        s.lu.factor(&s.a).map_err(markov)?;
        s.lu.solve_into(&s.b, &mut s.h).map_err(markov)?;
        let mut total = 0.0;
        for (r, &i) in s.members.iter().enumerate() {
            total += self.start[i] * s.h[r];
        }
        Ok(total)
    }

    /// Exact scenario-class probabilities: for every set `S` of functions,
    /// the probability that a session invokes *exactly* the functions in
    /// `S` (each at least once, none outside). Rows of the paper's Table 1
    /// are precisely these classes.
    ///
    /// Returns `(mask, probability)` pairs for classes with probability
    /// above `threshold`, sorted by decreasing probability. `mask` is a
    /// bitmask over the functions' declaration-order indices.
    ///
    /// Computed by inclusion–exclusion over taboo-chain probabilities:
    /// `P(= S) = Σ_{T ⊆ S} (-1)^{|S \ T|} P(⊆ T)`. The graph is validated
    /// once; the `2ⁿ` taboo systems `P(⊆ T)` are then solved one after
    /// another in a single reused workspace, so the enumeration allocates
    /// nothing per subset.
    ///
    /// # Errors
    ///
    /// * [`ProfileError::BadTable`] when the profile has more than 20
    ///   functions (the enumeration is exponential).
    /// * [`ProfileError::InvalidProbability`] when a class probability is
    ///   not finite (a near-singular subset solve).
    /// * Propagated validation and subset-solve failures.
    pub fn scenario_class_probabilities(
        &self,
        threshold: f64,
    ) -> Result<Vec<(u32, f64)>, ProfileError> {
        self.validate()?;
        let n = self.num_functions();
        if n > MAX_FUNCTIONS_FOR_ENUMERATION {
            return Err(ProfileError::BadTable {
                reason: format!(
                    "scenario enumeration supports at most \
                     {MAX_FUNCTIONS_FOR_ENUMERATION} functions, got {n}"
                ),
            });
        }
        let full = 1u32 << n;
        // Subset-reach probabilities for every mask.
        let mut subset = vec![0.0f64; full as usize];
        let mut scratch = SubsetScratch::default();
        for mask in 0..full {
            subset[mask as usize] =
                self.subset_probability_in(|i| mask & (1 << i) != 0, &mut scratch)?;
        }
        // Möbius inversion (inclusion–exclusion) via the subset-sum
        // transform: exact[S] = Σ_{T⊆S} (-1)^{|S|-|T|} subset[T].
        // Computed in O(n 2^n) with the standard in-place transform.
        let mut exact = subset;
        for bit in 0..n {
            for mask in 0..full {
                if mask & (1 << bit) != 0 {
                    let lower = exact[(mask ^ (1 << bit)) as usize];
                    exact[mask as usize] -= lower;
                }
            }
        }
        if let Some((mask, &p)) = exact.iter().enumerate().find(|(_, p)| !p.is_finite()) {
            return Err(ProfileError::InvalidProbability {
                context: format!("scenario class {mask:#b}"),
                value: p,
            });
        }
        let mut out: Vec<(u32, f64)> = exact
            .into_iter()
            .enumerate()
            .filter(|&(_, p)| p > threshold)
            .map(|(m, p)| (m as u32, p))
            .collect();
        // Every probability is finite here, so `partial_cmp` is total.
        out.sort_by(|a, b| b.1.partial_cmp(&a.1).unwrap_or(Ordering::Equal));
        Ok(out)
    }

    /// Converts a scenario mask from
    /// [`ProfileGraph::scenario_class_probabilities`] to sorted function
    /// names.
    pub fn mask_to_names(&self, mask: u32) -> Vec<String> {
        (0..self.num_functions())
            .filter(|i| mask & (1 << i) != 0)
            .map(|i| self.functions[i].clone())
            .collect()
    }

    /// Converts the exact scenario-class enumeration into a validated
    /// [`crate::ScenarioTable`], with labels listing the visited functions
    /// (`"Home+Search"`). Classes below `threshold` are dropped and the
    /// remaining probabilities renormalized, so the table always sums to
    /// one.
    ///
    /// # Errors
    ///
    /// Propagates enumeration failures; [`ProfileError::BadTable`] when
    /// every class falls below the threshold.
    pub fn to_scenario_table(&self, threshold: f64) -> Result<crate::ScenarioTable, ProfileError> {
        let classes = self.scenario_class_probabilities(threshold)?;
        let total: f64 = classes.iter().map(|(_, p)| p).sum();
        if total <= 0.0 {
            return Err(ProfileError::BadTable {
                reason: "no scenario class above the threshold".into(),
            });
        }
        let scenarios = classes
            .into_iter()
            .map(|(mask, p)| {
                let names = self.mask_to_names(mask);
                crate::Scenario::new(names.join("+"), names, p / total)
            })
            .collect();
        crate::ScenarioTable::new(scenarios)
    }

    /// Samples one user session: the sequence of function indices invoked.
    ///
    /// # Errors
    ///
    /// Propagates validation failures.
    pub fn sample_session<R: Rng + ?Sized>(&self, rng: &mut R) -> Result<Vec<usize>, ProfileError> {
        self.validate()?;
        let n = self.num_functions();
        let mut session = Vec::new();
        // Draw the first function.
        let mut u: f64 = rng.random();
        let mut current = None;
        for j in 0..n {
            if u < self.start[j] {
                current = Some(j);
                break;
            }
            u -= self.start[j];
        }
        let mut at = match current {
            Some(j) => j,
            None => n - 1, // numerical slack: fall back to the last function
        };
        loop {
            session.push(at);
            // Guard against pathological cycles (validated graphs terminate
            // with probability one, but a bound keeps tests robust).
            if session.len() > 1_000_000 {
                return Err(ProfileError::NonTerminating {
                    reason: "session exceeded 1e6 steps".into(),
                });
            }
            let mut u: f64 = rng.random();
            if u < self.exit[at] {
                return Ok(session);
            }
            u -= self.exit[at];
            let mut moved = false;
            for j in 0..n {
                if u < self.trans[at][j] {
                    at = j;
                    moved = true;
                    break;
                }
                u -= self.trans[at][j];
            }
            if !moved {
                // Numerical slack at the top of the distribution: exit.
                return Ok(session);
            }
        }
    }

    /// Monte Carlo estimate of scenario-class probabilities from
    /// `sessions` sampled sessions: returns `mask -> relative frequency`.
    ///
    /// # Errors
    ///
    /// Propagates validation failures.
    pub fn monte_carlo_scenarios<R: Rng + ?Sized>(
        &self,
        rng: &mut R,
        sessions: usize,
    ) -> Result<HashMap<u32, f64>, ProfileError> {
        let mut counts: HashMap<u32, usize> = HashMap::new();
        for _ in 0..sessions {
            let session = self.sample_session(rng)?;
            let mut mask = 0u32;
            for f in session {
                mask |= 1 << f;
            }
            *counts.entry(mask).or_insert(0) += 1;
        }
        Ok(counts
            .into_iter()
            .map(|(m, c)| (m, c as f64 / sessions as f64))
            .collect())
    }
}

/// Reusable storage for the taboo-chain solves of one scenario
/// enumeration: the allowed members, the system `(I - T) h = e` and its
/// LU factors.
#[derive(Default)]
struct SubsetScratch {
    members: Vec<usize>,
    a: Matrix,
    b: Vec<f64>,
    h: Vec<f64>,
    lu: LuWorkspace,
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// Two-function demo: Home -> Search -> Exit with a retry loop.
    fn simple() -> ProfileGraph {
        let mut g = ProfileGraph::new(vec!["Home", "Search"]).unwrap();
        g.set_start_transition("Home", 1.0).unwrap();
        g.set_transition("Home", Some("Search"), 0.5).unwrap();
        g.set_transition("Home", None, 0.5).unwrap();
        g.set_transition("Search", Some("Home"), 0.2).unwrap();
        g.set_transition("Search", None, 0.8).unwrap();
        g.validated().unwrap()
    }

    #[test]
    fn construction_validation() {
        assert!(matches!(
            ProfileGraph::new(Vec::<String>::new()),
            Err(ProfileError::Empty)
        ));
        assert!(ProfileGraph::new(vec!["a", "a"]).is_err());
        let mut g = ProfileGraph::new(vec!["a"]).unwrap();
        assert!(g.set_start_transition("missing", 0.5).is_err());
        assert!(g.set_start_transition("a", 1.5).is_err());
        g.set_start_transition("a", 1.0).unwrap();
        // "a" has no outgoing probability yet.
        assert!(matches!(
            g.clone().validated(),
            Err(ProfileError::UnnormalizedNode { .. })
        ));
        g.set_transition("a", None, 1.0).unwrap();
        assert!(g.validated().is_ok());
    }

    #[test]
    fn detects_non_termination() {
        let mut g = ProfileGraph::new(vec!["trap"]).unwrap();
        g.set_start_transition("trap", 1.0).unwrap();
        g.set_transition("trap", Some("trap"), 1.0).unwrap();
        assert!(matches!(
            g.validated(),
            Err(ProfileError::NonTerminating { .. })
        ));
    }

    #[test]
    fn visit_probabilities_simple() {
        let g = simple();
        let v = g.visit_probabilities().unwrap();
        // Home always visited.
        assert!((v[0] - 1.0).abs() < 1e-12);
        // Search: from Home, reach Search before Exit. h = 0.5 + 0 =…
        // P(visit Search) = 0.5 / (1) computed via first-step: from Home,
        // p = 0.5 (direct); returning to Home only happens after Search.
        assert!((v[1] - 0.5).abs() < 1e-12);
    }

    #[test]
    fn expected_invocations_match_hand_calculation() {
        let g = simple();
        let e = g.expected_invocations().unwrap();
        // E[Home visits] h satisfies: h = 1 + P(return to Home) * h where
        // return = 0.5 * 0.2. So h = 1 / 0.9.
        assert!((e[0] - 1.0 / 0.9).abs() < 1e-12);
        // E[Search visits] = 0.5 * E[Home visits].
        assert!((e[1] - 0.5 / 0.9).abs() < 1e-12);
        assert!((g.mean_session_length().unwrap() - 1.5 / 0.9).abs() < 1e-12);
    }

    #[test]
    fn subset_probability_home_only() {
        let g = simple();
        // Sessions visiting only Home: exit directly from Home: 0.5.
        let p = g.subset_probability(&[true, false]).unwrap();
        assert!((p - 0.5).abs() < 1e-12);
        // Only Search: impossible (sessions start at Home).
        let p = g.subset_probability(&[false, true]).unwrap();
        assert_eq!(p, 0.0);
        // Everything allowed: certainty.
        let p = g.subset_probability(&[true, true]).unwrap();
        assert!((p - 1.0).abs() < 1e-12);
        assert!(g.subset_probability(&[true]).is_err());
    }

    #[test]
    fn scenario_classes_sum_to_one() {
        let g = simple();
        let classes = g.scenario_class_probabilities(0.0).unwrap();
        let total: f64 = classes.iter().map(|(_, p)| p).sum();
        assert!((total - 1.0).abs() < 1e-12);
        // Two classes: {Home} with 0.5 and {Home, Search} with 0.5.
        assert_eq!(classes.len(), 2);
        for (mask, p) in classes {
            match mask {
                0b01 => assert!((p - 0.5).abs() < 1e-12),
                0b11 => assert!((p - 0.5).abs() < 1e-12),
                other => panic!("unexpected scenario mask {other:#b}"),
            }
        }
    }

    #[test]
    fn mask_to_names() {
        let g = simple();
        assert_eq!(g.mask_to_names(0b10), vec!["Search".to_string()]);
        assert_eq!(
            g.mask_to_names(0b11),
            vec!["Home".to_string(), "Search".to_string()]
        );
    }

    #[test]
    fn session_length_pmf_properties() {
        let g = simple();
        let pmf = g.session_length_pmf(200).unwrap();
        assert_eq!(pmf[0], 0.0);
        // P(length = 1): exit directly from Home = 0.5.
        assert!((pmf[1] - 0.5).abs() < 1e-12);
        // P(length = 2): Home -> Search -> exit = 0.5 * 0.8 = 0.4.
        assert!((pmf[2] - 0.4).abs() < 1e-12);
        // Total mass (truncation tail is negligible at 200).
        let total: f64 = pmf.iter().sum();
        assert!((total - 1.0).abs() < 1e-10);
        // Mean from the pmf matches the fundamental-matrix value.
        let mean: f64 = pmf.iter().enumerate().map(|(k, p)| k as f64 * p).sum();
        assert!((mean - g.mean_session_length().unwrap()).abs() < 1e-9);
        assert!(g.session_length_pmf(0).is_err());
    }

    #[test]
    fn session_length_pmf_matches_sampling() {
        let g = simple();
        let pmf = g.session_length_pmf(30).unwrap();
        let mut rng = StdRng::seed_from_u64(12);
        let samples = 100_000usize;
        let mut counts = vec![0usize; 31];
        for _ in 0..samples {
            let len = g.sample_session(&mut rng).unwrap().len();
            if len <= 30 {
                counts[len] += 1;
            }
        }
        for k in 1..=6 {
            let est = counts[k] as f64 / samples as f64;
            assert!(
                (est - pmf[k]).abs() < 0.01,
                "k={k}: pmf {} vs sampled {est}",
                pmf[k]
            );
        }
    }

    #[test]
    fn monte_carlo_agrees_with_exact() {
        let g = simple();
        let mut rng = StdRng::seed_from_u64(42);
        let mc = g.monte_carlo_scenarios(&mut rng, 200_000).unwrap();
        let exact = g.scenario_class_probabilities(0.0).unwrap();
        for (mask, p) in exact {
            let est = mc.get(&mask).copied().unwrap_or(0.0);
            assert!(
                (est - p).abs() < 0.01,
                "mask {mask:#b}: exact {p}, MC {est}"
            );
        }
    }

    #[test]
    fn scenario_table_bridge() {
        let g = simple();
        let table = g.to_scenario_table(0.0).unwrap();
        assert_eq!(table.len(), 2);
        let total: f64 = table.scenarios().iter().map(|s| s.probability).sum();
        assert!((total - 1.0).abs() < 1e-12);
        let home_only = table
            .scenarios()
            .iter()
            .find(|s| s.label == "Home")
            .expect("home-only class");
        assert!((home_only.probability - 0.5).abs() < 1e-12);
        let both = table
            .scenarios()
            .iter()
            .find(|s| s.label == "Home+Search")
            .expect("combined class");
        assert!(both.invokes("Search"));
        // Unreachable threshold.
        assert!(g.to_scenario_table(2.0).is_err());
    }

    /// The scenario enumeration as first written: every subset re-validates
    /// the graph and solves through a freshly built `Vec<bool>`, identity
    /// matrix and owned [`uavail_linalg::Lu`]. Kept only as the
    /// bit-identity reference for the production path.
    fn reference_classes(
        g: &ProfileGraph,
        threshold: f64,
    ) -> Result<Vec<(u32, f64)>, ProfileError> {
        fn subset(g: &ProfileGraph, allowed: &[bool]) -> Result<f64, ProfileError> {
            g.validate()?;
            let members: Vec<usize> = (0..g.num_functions()).filter(|&i| allowed[i]).collect();
            let m = members.len();
            if m == 0 {
                return Ok(0.0);
            }
            let mut a = Matrix::identity(m);
            let mut b = vec![0.0; m];
            for (r, &i) in members.iter().enumerate() {
                for (c, &j) in members.iter().enumerate() {
                    a[(r, c)] -= g.trans[i][j];
                }
                b[r] = g.exit[i];
            }
            let h = uavail_linalg::Lu::new(&a)
                .map_err(|e| ProfileError::Markov(e.into()))?
                .solve(&b)
                .map_err(|e| ProfileError::Markov(e.into()))?;
            Ok(members
                .iter()
                .enumerate()
                .fold(0.0, |total, (r, &i)| total + g.start[i] * h[r]))
        }
        g.validate()?;
        let n = g.num_functions();
        let full = 1u32 << n;
        let mut exact = vec![0.0f64; full as usize];
        for mask in 0..full {
            let allowed: Vec<bool> = (0..n).map(|i| mask & (1 << i) != 0).collect();
            exact[mask as usize] = subset(g, &allowed)?;
        }
        for bit in 0..n {
            for mask in 0..full {
                if mask & (1 << bit) != 0 {
                    let lower = exact[(mask ^ (1 << bit)) as usize];
                    exact[mask as usize] -= lower;
                }
            }
        }
        let mut out: Vec<(u32, f64)> = exact
            .into_iter()
            .enumerate()
            .filter(|&(_, p)| p > threshold)
            .map(|(m, p)| (m as u32, p))
            .collect();
        out.sort_by(|a, b| b.1.partial_cmp(&a.1).expect("finite probabilities"));
        Ok(out)
    }

    const FIG2: [&str; 5] = ["Home", "Browse", "Search", "Book", "Pay"];

    /// Builds an unvalidated 5-function graph from raw weights: row 0 is
    /// Start (5 weights), rows 1..=5 are the functions (5 transition
    /// weights then Exit). Each row is normalized; an all-zero row is left
    /// zero, so normalization and termination failures are generated too.
    fn graph_from_weights(rows: &[Vec<f64>]) -> ProfileGraph {
        let mut g = ProfileGraph::new(FIG2.to_vec()).unwrap();
        let normalized = |row: &[f64]| -> Vec<f64> {
            let sum: f64 = row.iter().sum();
            row.iter()
                .map(|w| if sum > 0.0 { w / sum } else { 0.0 })
                .collect()
        };
        for (j, p) in normalized(&rows[0][..5]).into_iter().enumerate() {
            g.set_start_transition(FIG2[j], p).unwrap();
        }
        for (i, row) in rows[1..].iter().enumerate() {
            let p = normalized(row);
            for (j, &pj) in p[..5].iter().enumerate() {
                g.set_transition(FIG2[i], Some(FIG2[j]), pj).unwrap();
            }
            g.set_transition(FIG2[i], None, p[5]).unwrap();
        }
        g
    }

    fn assert_same_classes(
        got: &Result<Vec<(u32, f64)>, ProfileError>,
        want: &Result<Vec<(u32, f64)>, ProfileError>,
    ) -> Result<(), String> {
        match (got, want) {
            (Ok(got), Ok(want)) => {
                let bits = |v: &[(u32, f64)]| -> Vec<(u32, u64)> {
                    v.iter().map(|&(m, p)| (m, p.to_bits())).collect()
                };
                if bits(got) == bits(want) {
                    Ok(())
                } else {
                    Err(format!("classes differ: {got:?} vs reference {want:?}"))
                }
            }
            (Err(got), Err(want)) if got == want => Ok(()),
            _ => Err(format!("{got:?} vs reference {want:?}")),
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::test_runner::ProptestConfig::with_cases(256))]
        #[test]
        fn enumeration_is_bit_identical_to_per_mask_reference(
            rows in proptest::prop::collection::vec(
                proptest::prop::collection::vec(
                    // Half the weights are exactly 0, so rows with a single
                    // survivor carry an exact probability of 1.
                    proptest::prop_oneof![
                        proptest::strategy::Just(0.0),
                        proptest::strategy::Just(0.0),
                        proptest::strategy::Just(1.0),
                        0.0f64..1.0,
                    ],
                    6,
                ),
                6,
            ),
            threshold in proptest::prop_oneof![
                proptest::strategy::Just(0.0),
                proptest::strategy::Just(-1.0),
                0.0f64..0.05,
            ],
        ) {
            let g = graph_from_weights(&rows);
            let got = g.scenario_class_probabilities(threshold);
            let want = reference_classes(&g, threshold);
            if let Err(msg) = assert_same_classes(&got, &want) {
                proptest::prop_assert!(false, "{msg}");
            }
        }
    }

    #[test]
    fn unreachable_closed_loop_errors_like_reference() {
        // Search <-> Book with probability 1 and no start mass: the graph
        // validates (the loop is unreachable) but the taboo system of any
        // subset holding both is singular.
        let mut g = ProfileGraph::new(FIG2.to_vec()).unwrap();
        g.set_start_transition("Home", 0.5).unwrap();
        g.set_start_transition("Browse", 0.5).unwrap();
        g.set_transition("Home", Some("Browse"), 0.25).unwrap();
        g.set_transition("Home", None, 0.75).unwrap();
        g.set_transition("Browse", None, 1.0).unwrap();
        g.set_transition("Search", Some("Book"), 1.0).unwrap();
        g.set_transition("Book", Some("Search"), 1.0).unwrap();
        g.set_transition("Pay", None, 1.0).unwrap();
        let g = g.validated().unwrap();
        let got = g.scenario_class_probabilities(0.0);
        assert!(matches!(got, Err(ProfileError::Markov(_))), "{got:?}");
        assert_same_classes(&got, &reference_classes(&g, 0.0)).unwrap();
    }

    #[test]
    fn non_finite_class_probability_is_an_error_not_a_panic() {
        // A NaN start mass stands in for a non-finite subset solve: it
        // passes the tolerance check of validation (every comparison with
        // NaN is false) and poisons every class probability.
        let mut g = simple();
        g.start[0] = f64::NAN;
        let err = g.scenario_class_probabilities(0.0).unwrap_err();
        assert!(
            matches!(&err, ProfileError::InvalidProbability { context, value }
                if context.starts_with("scenario class") && value.is_nan()),
            "{err:?}"
        );
        assert!(g.to_scenario_table(0.0).is_err());
    }

    #[test]
    fn probability_errors_name_the_edge() {
        let mut g = simple();
        let err = g.set_transition("Home", Some("Search"), 1.5).unwrap_err();
        assert_eq!(
            err.to_string(),
            "invalid probability 1.5 for Home -> Search"
        );
        let err = g.set_transition("Search", None, -0.5).unwrap_err();
        assert_eq!(
            err.to_string(),
            "invalid probability -0.5 for Search -> Exit"
        );
        let err = g.set_start_transition("Home", f64::NAN).unwrap_err();
        assert_eq!(err.to_string(), "invalid probability NaN for Start -> Home");
        assert!(matches!(
            g.set_transition("Nowhere", None, 0.5),
            Err(ProfileError::UnknownFunction { .. })
        ));
    }

    #[test]
    fn sample_sessions_terminate_and_start_at_home() {
        let g = simple();
        let mut rng = StdRng::seed_from_u64(7);
        for _ in 0..100 {
            let s = g.sample_session(&mut rng).unwrap();
            assert!(!s.is_empty());
            assert_eq!(s[0], 0); // Home
        }
    }
}
