use crate::{Ctmc, CtmcBuilder, MarkovError};

/// A finite birth–death process with per-level birth and death rates.
///
/// States are `0..=n` where `n = birth_rates.len() = death_rates.len()`.
/// `birth_rates[i]` is the rate from state `i` to `i + 1`;
/// `death_rates[i]` is the rate from state `i + 1` to `i`.
///
/// Birth–death processes are the backbone of repairable-redundancy
/// availability models: the paper's web-server farm with shared repair
/// (Figure 9) is a birth–death chain on the number of operational servers,
/// and M/M/c/K queues are birth–death chains on the number of queued
/// requests.
///
/// # Examples
///
/// An M/M/1/3 queue with arrival rate 1 and service rate 2:
///
/// ```
/// use uavail_markov::BirthDeath;
///
/// # fn main() -> Result<(), uavail_markov::MarkovError> {
/// let bd = BirthDeath::new(vec![1.0; 3], vec![2.0; 3])?;
/// let pi = bd.steady_state();
/// // rho = 0.5: pi_i ∝ 0.5^i
/// let z: f64 = (0..4).map(|i| 0.5f64.powi(i)).sum();
/// assert!((pi[0] - 1.0 / z).abs() < 1e-14);
/// assert!((pi[3] - 0.125 / z).abs() < 1e-14);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct BirthDeath {
    birth_rates: Vec<f64>,
    death_rates: Vec<f64>,
}

impl BirthDeath {
    /// Creates a birth–death process.
    ///
    /// # Errors
    ///
    /// * [`MarkovError::EmptyChain`] when both rate vectors are empty
    ///   (a single-state chain is trivial but allowed: pass empty vectors is
    ///   NOT allowed; use lengths ≥ 1).
    /// * [`MarkovError::BadStructure`] when the vectors have different
    ///   lengths.
    /// * [`MarkovError::InvalidRate`] for non-positive or non-finite rates,
    ///   carrying the offending index into the concatenated
    ///   birth-then-death rate sequence.
    pub fn new(birth_rates: Vec<f64>, death_rates: Vec<f64>) -> Result<Self, MarkovError> {
        if birth_rates.is_empty() {
            return Err(MarkovError::EmptyChain);
        }
        if birth_rates.len() != death_rates.len() {
            return Err(MarkovError::BadStructure {
                reason: format!(
                    "birth ({}) and death ({}) rate vectors differ in length",
                    birth_rates.len(),
                    death_rates.len()
                ),
            });
        }
        for (i, &r) in birth_rates.iter().chain(death_rates.iter()).enumerate() {
            if !(r.is_finite() && r > 0.0) {
                return Err(MarkovError::InvalidRate { index: i, value: r });
            }
        }
        Ok(BirthDeath {
            birth_rates,
            death_rates,
        })
    }

    /// Number of states (`levels + 1`).
    pub fn num_states(&self) -> usize {
        self.birth_rates.len() + 1
    }

    /// Steady-state distribution by the closed-form product formula
    /// `π_i ∝ Π_{k<i} (birth_k / death_k)`, computed with running
    /// normalization to avoid overflow for strongly biased chains.
    pub fn steady_state(&self) -> Vec<f64> {
        let mut pi = Vec::new();
        self.steady_state_into(&mut pi);
        pi
    }

    /// Allocation-free variant of [`BirthDeath::steady_state`]: writes the
    /// distribution into `pi`, reusing its allocation.
    ///
    /// Runs the exact same floating-point operations as
    /// [`BirthDeath::steady_state`] (which is implemented on top of this
    /// routine), so results are bit-for-bit identical.
    pub fn steady_state_into(&self, pi: &mut Vec<f64>) {
        let n = self.num_states();
        // Work with weights relative to the running maximum to stay in
        // range even when ratios span hundreds of orders of magnitude.
        // `pi` holds log-weights first, then is exponentiated and
        // normalized in place.
        pi.clear();
        pi.reserve(n);
        pi.push(0.0f64);
        for i in 0..self.birth_rates.len() {
            let prev = pi[i];
            pi.push(prev + self.birth_rates[i].ln() - self.death_rates[i].ln());
        }
        let max = pi.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        for lw in pi.iter_mut() {
            *lw = (*lw - max).exp();
        }
        let total: f64 = pi.iter().sum();
        for w in pi.iter_mut() {
            *w /= total;
        }
    }

    /// Converts to an explicit [`Ctmc`] (states labeled `"0"`, `"1"`, ...),
    /// for cross-validation against the numerical solvers.
    ///
    /// # Errors
    ///
    /// Construction cannot realistically fail for a validated process; any
    /// error from the underlying builder is propagated.
    pub fn to_ctmc(&self) -> Result<Ctmc, MarkovError> {
        let n = self.num_states();
        let mut b = CtmcBuilder::new();
        let ids: Vec<_> = (0..n).map(|i| b.add_state(i.to_string())).collect();
        for i in 0..self.birth_rates.len() {
            b.add_transition(ids[i], ids[i + 1], self.birth_rates[i])?;
            b.add_transition(ids[i + 1], ids[i], self.death_rates[i])?;
        }
        b.build()
    }

    /// Mean first-passage time from state `from` to state 0, by the
    /// backward recurrence `t_k = 1/d_k + (b_k/d_k)·t_{k+1}` over the
    /// per-level descent times (`t_k` = expected time from `k` to `k−1`).
    ///
    /// Every term is positive, so the result is accurate even when the
    /// passage time spans dozens of orders of magnitude — the regime where
    /// solving the dense hitting-time system cancels catastrophically.
    ///
    /// # Errors
    ///
    /// Returns [`MarkovError::UnknownState`] when `from` exceeds the state
    /// range.
    ///
    /// # Examples
    ///
    /// ```
    /// use uavail_markov::BirthDeath;
    ///
    /// # fn main() -> Result<(), uavail_markov::MarkovError> {
    /// // Two machines, shared repair: MTTF from 2 to 0 is (3λ+µ)/(2λ²).
    /// let (l, mu) = (0.1, 1.0);
    /// let bd = BirthDeath::new(vec![mu; 2], vec![l, 2.0 * l])?;
    /// let mttf = bd.mean_passage_to_zero(2)?;
    /// assert!((mttf - (3.0 * l + mu) / (2.0 * l * l)).abs() < 1e-9);
    /// # Ok(())
    /// # }
    /// ```
    pub fn mean_passage_to_zero(&self, from: usize) -> Result<f64, MarkovError> {
        let n = self.num_states();
        if from >= n {
            return Err(MarkovError::UnknownState {
                index: from,
                states: n,
            });
        }
        if from == 0 {
            return Ok(0.0);
        }
        // Descent times t_k for k = levels .. 1, where death rate d_k =
        // death_rates[k-1] and birth rate from k is birth_rates[k]
        // (non-existent at the top level).
        let levels = self.birth_rates.len();
        let mut t_next = 0.0; // t_{levels+1} conceptually unused
        let mut descent = vec![0.0; levels + 1]; // descent[k] = t_k
        for k in (1..=levels).rev() {
            let d = self.death_rates[k - 1];
            let b = if k < levels { self.birth_rates[k] } else { 0.0 };
            let t_k = 1.0 / d + (b / d) * t_next;
            descent[k] = t_k;
            t_next = t_k;
        }
        Ok(descent[1..=from].iter().sum())
    }

    /// Builds the paper's Figure 9 model: `n` servers each failing at rate
    /// `lambda`, a single shared repair facility with rate `mu`. State `i`
    /// counts *operational* servers; the process is expressed on the number
    /// of operational servers so state `n` is "all up".
    ///
    /// Returns the steady-state probabilities `Π_0 ..= Π_n` (index =
    /// number of operational servers), matching equation (4) of the paper:
    /// `Π_i = (1/i!) (µ/λ)^i Π_0`.
    ///
    /// # Errors
    ///
    /// * [`MarkovError::EmptyChain`] when `n == 0`.
    /// * [`MarkovError::InvalidRate`] for non-positive rates.
    pub fn shared_repair_farm(n: usize, lambda: f64, mu: f64) -> Result<Vec<f64>, MarkovError> {
        if n == 0 {
            return Err(MarkovError::EmptyChain);
        }
        // Births: i operational -> i+1 operational at rate mu (repair).
        // Deaths: i+1 operational -> i at rate (i+1) * lambda.
        let birth_rates = vec![mu; n];
        let death_rates: Vec<f64> = (1..=n).map(|i| i as f64 * lambda).collect();
        Ok(BirthDeath::new(birth_rates, death_rates)?.steady_state())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn validation() {
        assert!(BirthDeath::new(vec![], vec![]).is_err());
        assert!(BirthDeath::new(vec![1.0], vec![1.0, 2.0]).is_err());
        assert!(BirthDeath::new(vec![0.0], vec![1.0]).is_err());
        assert!(BirthDeath::new(vec![1.0], vec![f64::INFINITY]).is_err());
        // The typed error carries the offending index into the
        // concatenated birth-then-death sequence.
        assert!(matches!(
            BirthDeath::new(vec![1.0, -2.0], vec![1.0, 1.0]),
            Err(MarkovError::InvalidRate { index: 1, value }) if value == -2.0
        ));
        assert!(matches!(
            BirthDeath::new(vec![1.0, 1.0], vec![1.0, f64::NAN]),
            Err(MarkovError::InvalidRate { index: 3, value }) if value.is_nan()
        ));
    }

    #[test]
    fn uniform_rates_give_geometric_distribution() {
        let bd = BirthDeath::new(vec![2.0; 4], vec![4.0; 4]).unwrap();
        let pi = bd.steady_state();
        let rho: f64 = 0.5;
        let z: f64 = (0..5).map(|i| rho.powi(i)).sum();
        for (i, p) in pi.iter().enumerate() {
            assert!((p - rho.powi(i as i32) / z).abs() < 1e-14);
        }
    }

    #[test]
    fn closed_form_matches_ctmc_solver() {
        let bd = BirthDeath::new(vec![1.0, 2.0, 0.5], vec![3.0, 1.0, 4.0]).unwrap();
        let pi_closed = bd.steady_state();
        let pi_num = bd.to_ctmc().unwrap().steady_state().unwrap();
        for (a, b) in pi_closed.iter().zip(&pi_num) {
            assert!((a - b).abs() < 1e-13);
        }
    }

    #[test]
    fn extreme_rate_ratios_stay_finite() {
        // mu/lambda = 1e8 over 10 levels: weights span 1e80.
        let bd = BirthDeath::new(vec![1e4; 10], vec![1e-4; 10]).unwrap();
        let pi = bd.steady_state();
        assert!(pi.iter().all(|p| p.is_finite()));
        let sum: f64 = pi.iter().sum();
        assert!((sum - 1.0).abs() < 1e-12);
        // Overwhelming mass at the top state.
        assert!(pi[10] > 0.999);
    }

    #[test]
    fn shared_repair_farm_matches_paper_eq4() {
        // Equation (4): Pi_i = (1/i!)(mu/lambda)^i Pi_0.
        let (n, lambda, mu) = (4usize, 1e-4, 1.0);
        let pi = BirthDeath::shared_repair_farm(n, lambda, mu).unwrap();
        let ratio = mu / lambda;
        let mut weights = Vec::new();
        let mut fact = 1.0;
        for i in 0..=n {
            if i > 0 {
                fact *= i as f64;
            }
            weights.push(ratio.powi(i as i32) / fact);
        }
        let z: f64 = weights.iter().sum();
        for (i, p) in pi.iter().enumerate() {
            let expected = weights[i] / z;
            let denom = expected.max(1e-300);
            assert!(
                ((p - expected) / denom).abs() < 1e-10,
                "state {i}: {p} vs {expected}"
            );
        }
    }

    #[test]
    fn mean_passage_matches_ctmc_hitting_time() {
        let bd = BirthDeath::new(vec![1.0, 0.5, 2.0], vec![0.8, 1.2, 0.4]).unwrap();
        let chain = bd.to_ctmc().unwrap();
        let state = |i: usize| chain.state_by_label(&i.to_string()).expect("labeled state");
        for from in 1..=3usize {
            let closed = bd.mean_passage_to_zero(from).unwrap();
            let numeric = chain.mean_time_to(state(from), &[state(0)]).unwrap();
            assert!(
                ((closed - numeric) / numeric).abs() < 1e-10,
                "from {from}: {closed} vs {numeric}"
            );
        }
    }

    #[test]
    fn mean_passage_stable_at_extreme_ratios() {
        // 6 repairable servers, shared repair, λ = 1e-4, µ = 1: the true
        // MTTF is ~1e21 hours; dense solvers cancel catastrophically here.
        let (n, lambda, mu) = (6usize, 1e-4, 1.0);
        let births = vec![mu; n];
        let deaths: Vec<f64> = (1..=n).map(|i| i as f64 * lambda).collect();
        let smaller_deaths = deaths[..n - 1].to_vec();
        let bd = BirthDeath::new(births, deaths).unwrap();
        let mttf = bd.mean_passage_to_zero(n).unwrap();
        assert!(mttf.is_finite() && mttf > 1e19, "mttf {mttf:.3e}");
        // Sanity: dominated by the final descent 1/(1·λ) · ∏ (µ / iλ)
        // escape factors; check monotonicity in n instead of the constant.
        let smaller = BirthDeath::new(vec![mu; n - 1], smaller_deaths)
            .unwrap()
            .mean_passage_to_zero(n - 1)
            .unwrap();
        assert!(mttf > smaller * 100.0);
    }

    #[test]
    fn mean_passage_validation() {
        let bd = BirthDeath::new(vec![1.0], vec![1.0]).unwrap();
        assert_eq!(bd.mean_passage_to_zero(0).unwrap(), 0.0);
        assert!(bd.mean_passage_to_zero(5).is_err());
    }

    #[test]
    fn steady_state_into_reuses_buffer_bit_for_bit() {
        let mut pi = vec![7.0; 12]; // stale, oversized: must be fully replaced
        for (b, d) in [
            (vec![1.0, 2.0, 0.5], vec![3.0, 1.0, 4.0]),
            (vec![1e4; 10], vec![1e-4; 10]),
            (vec![2.0; 4], vec![4.0; 4]),
        ] {
            let bd = BirthDeath::new(b, d).unwrap();
            bd.steady_state_into(&mut pi);
            let fresh = bd.steady_state();
            assert_eq!(pi.len(), fresh.len());
            for (l, r) in pi.iter().zip(&fresh) {
                assert_eq!(l.to_bits(), r.to_bits());
            }
        }
    }

    #[test]
    fn shared_repair_farm_rejects_zero_servers() {
        assert!(BirthDeath::shared_repair_farm(0, 1.0, 1.0).is_err());
    }

    #[test]
    fn num_states() {
        let bd = BirthDeath::new(vec![1.0; 3], vec![1.0; 3]).unwrap();
        assert_eq!(bd.num_states(), 4);
    }
}
