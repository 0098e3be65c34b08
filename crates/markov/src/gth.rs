//! Grassmann–Taksar–Heyman (GTH) steady-state algorithm.
//!
//! GTH computes the stationary vector of an irreducible CTMC generator (or
//! DTMC transition matrix) using only additions, multiplications and
//! divisions of non-negative quantities — no subtractions — which makes it
//! numerically robust for the stiff chains that arise in availability
//! modeling, where failure rates (1e-4/h) and repair rates (1/h) or request
//! rates (100/s = 360000/h) coexist in one generator.

use uavail_linalg::Matrix;

use crate::MarkovError;

/// Computes the stationary distribution of an irreducible CTMC with
/// generator `q` (square, rows summing to zero, non-negative off-diagonals)
/// using the GTH algorithm.
///
/// The same routine solves DTMCs: pass `P - I` as the generator.
///
/// # Errors
///
/// * [`MarkovError::EmptyChain`] for a 0×0 input.
/// * [`MarkovError::Linalg`] for a non-square input.
/// * [`MarkovError::BadStructure`] when the chain is reducible (a pivot
///   vanishes, meaning some state cannot reach the remaining states).
///
/// # Examples
///
/// ```
/// use uavail_linalg::Matrix;
/// use uavail_markov::gth_steady_state;
///
/// # fn main() -> Result<(), uavail_markov::MarkovError> {
/// // Two-state availability model: failure rate 0.01, repair rate 1.
/// let q = Matrix::from_rows(&[&[-0.01, 0.01], &[1.0, -1.0]])?;
/// let pi = gth_steady_state(&q)?;
/// assert!((pi[0] - 1.0 / 1.01).abs() < 1e-14);
/// # Ok(())
/// # }
/// ```
pub fn gth_steady_state(q: &Matrix) -> Result<Vec<f64>, MarkovError> {
    if !q.is_square() {
        return Err(MarkovError::Linalg(uavail_linalg::LinalgError::NotSquare {
            shape: q.shape(),
        }));
    }
    let n = q.rows();
    if n == 0 {
        return Err(MarkovError::EmptyChain);
    }
    if n == 1 {
        return Ok(vec![1.0]);
    }

    // Work on a copy; the algorithm eliminates states n-1, n-2, ..., 1.
    let mut a = q.clone();
    for k in (1..n).rev() {
        // s = total rate out of state k toward states 0..k (the "south" block).
        let s: f64 = (0..k).map(|j| a[(k, j)]).sum();
        if s <= 0.0 || !s.is_finite() {
            return Err(MarkovError::BadStructure {
                reason: format!(
                    "state {k} has no transitions to lower-numbered states; \
                     chain is reducible or generator is malformed"
                ),
            });
        }
        // Fold state k into the remaining chain.
        for i in 0..k {
            let factor = a[(i, k)] / s;
            if factor != 0.0 {
                for j in 0..k {
                    if i != j {
                        let add = factor * a[(k, j)];
                        a[(i, j)] += add;
                    }
                }
            }
        }
    }

    // Back-substitution: unnormalized stationary weights.
    let mut pi = vec![0.0; n];
    pi[0] = 1.0;
    for k in 1..n {
        let s: f64 = (0..k).map(|j| a[(k, j)]).sum();
        let mut num = 0.0;
        for i in 0..k {
            num += pi[i] * a[(i, k)];
        }
        pi[k] = num / s;
    }
    let total: f64 = pi.iter().sum();
    for v in pi.iter_mut() {
        *v /= total;
    }
    finish_solve(&mut pi, |pi| {
        let mut residual = 0.0f64;
        for j in 0..n {
            let mut acc = 0.0;
            for (i, p) in pi.iter().enumerate() {
                acc += p * q[(i, j)];
            }
            residual = residual.max(acc.abs());
        }
        residual
    });
    Ok(pi)
}

/// GTH on the imperfect-coverage farm chain of Figure 10 in Kaâniche,
/// Kanoun & Martinello (equations (6)–(8)), running only the chain's O(n)
/// non-zero operations, in the order [`gth_steady_state`] runs them on the
/// assembled generator.
///
/// The chain has `2·n + 1` states. Operational state `i` (`i` of `n`
/// servers up) sits at index `i`, and reconfiguration state `y_i`
/// (`1 ≤ i ≤ n`) at index `n + i`, the order in which a builder adds
/// them. For `1 ≤ i ≤ n`, with `(a_i, u_i) = failure_rates(i)`:
///
/// * `i → i − 1` at the covered-failure rate `a_i` (`0.0` when no
///   failure is covered);
/// * `i → y_i` at the uncovered-failure rate `u_i`;
/// * `y_i → i − 1` at the reconfiguration rate `beta`;
/// * `i − 1 → i` at the repair rate `mu`.
///
/// Dense GTH eliminates `y_n … y_1`, then `n … 1`. Eliminating `y_i` folds
/// `i → y_i → i − 1` into the covered entry, `d_i = a_i + (u_i/β)·β`;
/// eliminating operational state `k` makes no fill-in and its pivot is
/// `d_k`. Back-substitution gives `w_0 = 1`, `w_k = w_{k−1}·µ/d_k` and
/// `w_{y_i} = w_i·u_i/β`, and the weights are summed in index order and
/// divided by their total. Every other operation of the dense routine
/// adds `factor·0.0` or `0.0` to a finite value, an exact no-op, so the
/// result has the same bits as [`gth_steady_state`] wherever every
/// pivot, factor and weight is finite.
///
/// Returns `false`, leaving `pi` unspecified, when a factor `u_i/β` or
/// `µ/d_k` is not finite, a pivot `d_k` is not finite or not positive, or
/// a weight or their total is not finite. The dense routine then fails
/// or yields an unhealthy vector too, so callers need another solver for
/// such a farm, such as the chain's closed form. Like the dense routine,
/// it does not detect a product or quotient that underflows, which loses
/// precision silently; callers that accept extreme rates check them
/// first. On success `pi` holds the stationary vector in the layout
/// above; the `markov.gth.mass_drift` injection site and the health
/// gauges run as in [`gth_steady_state`], the residual taken over the
/// chain's edges in O(n).
///
/// # Examples
///
/// ```
/// use uavail_markov::gth_imperfect_coverage_farm;
///
/// // One server: up --λ(1−c)--> y_1 --β--> down, up --λc--> down,
/// // down --µ--> up.
/// let (lambda, c, mu, beta) = (0.01, 0.9, 1.0, 12.0);
/// let mut pi = Vec::new();
/// let solved = gth_imperfect_coverage_farm(
///     1,
///     |i| (i as f64 * c * lambda, i as f64 * (1.0 - c) * lambda),
///     mu,
///     beta,
///     &mut pi,
/// );
/// assert!(solved);
/// let up = 1.0 / (1.0 + lambda / mu + lambda * (1.0 - c) / beta);
/// assert!((pi[1] - up).abs() < 1e-15);
/// ```
#[must_use]
pub fn gth_imperfect_coverage_farm(
    n: usize,
    failure_rates: impl Fn(usize) -> (f64, f64),
    mu: f64,
    beta: f64,
    pi: &mut Vec<f64>,
) -> bool {
    pi.clear();
    pi.resize(2 * n + 1, 0.0);
    pi[0] = 1.0;
    if n == 0 {
        return true;
    }
    for k in 1..=n {
        let (covered, uncovered) = failure_rates(k);
        // A non-finite fold factor u_k/β makes the pivot non-finite too.
        let pivot = covered + uncovered / beta * beta;
        if !(pivot > 0.0 && pivot.is_finite() && (mu / pivot).is_finite()) {
            return false;
        }
        pi[k] = pi[k - 1] * mu / pivot;
        pi[n + k] = pi[k] * uncovered / beta;
    }
    // Every weight is ≥ 0, so a non-finite weight makes the total
    // non-finite too.
    let total: f64 = pi.iter().sum();
    if !total.is_finite() {
        return false;
    }
    for v in pi.iter_mut() {
        *v /= total;
    }
    finish_solve(pi, |pi| {
        // (πQ)_j is the flow into state j minus the flow out of it.
        let (up, y) = pi.split_at(n + 1);
        let mut residual = 0.0f64;
        for j in 0..=n {
            let mut net = 0.0;
            if j > 0 {
                let (covered, uncovered) = failure_rates(j);
                net += up[j - 1] * mu - up[j] * (covered + uncovered);
                residual = residual.max((up[j] * uncovered - y[j - 1] * beta).abs());
            }
            if j < n {
                net += up[j + 1] * failure_rates(j + 1).0 + y[j] * beta - up[j] * mu;
            }
            residual = residual.max(net.abs());
        }
        residual
    });
    true
}

/// The tail both GTH routines share: the `markov.gth.mass_drift`
/// injection site, then the health gauges while recording is on.
///
/// The injection site (inert unless `uavail-faultinject` is enabled)
/// leaks probability mass *after* normalization, exactly the kind of
/// silent numerical corruption the prob-sum-drift health gauge and
/// [`steady_state_mass_drift`] exist to catch. The leak scales the
/// largest entry so the injected drift is O(1e-3) on every chain —
/// availability chains concentrate nearly all mass in one state, and
/// perturbing a tiny entry would vanish below the detection tolerance.
fn finish_solve(pi: &mut [f64], residual: impl FnOnce(&[f64]) -> f64) {
    if uavail_faultinject::fired("markov.gth.mass_drift") {
        if let Some(largest) = (0..pi.len()).max_by(|&a, &b| pi[a].total_cmp(&pi[b])) {
            pi[largest] *= 1.001;
        }
    }
    if uavail_obs::enabled() {
        record_gth_health(pi, residual(pi));
    }
}

/// Largest tolerated `|Σπ − 1|` before a stationary vector is considered
/// unhealthy by [`steady_state_mass_drift`] consumers.
pub const STEADY_STATE_DRIFT_TOLERANCE: f64 = 1e-9;

/// Probability-mass drift `|Σπ − 1|` of a candidate stationary vector, or
/// infinity when any entry is non-finite or negative beyond rounding.
/// This is the inline health check a caller runs before it accepts a
/// vector; the obs gauge `markov.gth.prob_sum_drift` records the same
/// quantity when the recorder is on.
pub fn steady_state_mass_drift(pi: &[f64]) -> f64 {
    if pi.is_empty() || pi.iter().any(|v| !v.is_finite() || *v < -1e-12) {
        return f64::INFINITY;
    }
    (pi.iter().sum::<f64>() - 1.0).abs()
}

/// Health gauges for one GTH solve: how far the normalized vector's mass
/// is from 1, and the residual `‖πQ‖∞` against the original generator.
/// Only reached while recording is on; nothing here feeds back into `pi`.
#[cold]
fn record_gth_health(pi: &[f64], residual: f64) {
    let drift = (pi.iter().sum::<f64>() - 1.0).abs();
    uavail_obs::health_record("markov.gth.prob_sum_drift", drift);
    uavail_obs::health_record("markov.gth.residual", residual);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn two_state_model() {
        let q = Matrix::from_rows(&[&[-2.0, 2.0], &[3.0, -3.0]]).unwrap();
        let pi = gth_steady_state(&q).unwrap();
        assert!((pi[0] - 0.6).abs() < 1e-14);
        assert!((pi[1] - 0.4).abs() < 1e-14);
    }

    #[test]
    fn three_state_cycle() {
        // Cyclic chain 0 -> 1 -> 2 -> 0 with unit rates: uniform stationary.
        let q =
            Matrix::from_rows(&[&[-1.0, 1.0, 0.0], &[0.0, -1.0, 1.0], &[1.0, 0.0, -1.0]]).unwrap();
        let pi = gth_steady_state(&q).unwrap();
        for v in pi {
            assert!((v - 1.0 / 3.0).abs() < 1e-14);
        }
    }

    #[test]
    fn stiff_availability_chain() {
        // Rates spanning 9 orders of magnitude: GTH must stay accurate.
        let lambda = 1e-6;
        let mu = 1e3;
        let q = Matrix::from_rows(&[&[-lambda, lambda], &[mu, -mu]]).unwrap();
        let pi = gth_steady_state(&q).unwrap();
        let expected_up = mu / (mu + lambda);
        let expected_down = lambda / (mu + lambda);
        assert!((pi[0] - expected_up).abs() < 1e-15);
        // The tiny probability must carry full *relative* accuracy — the
        // whole point of GTH's subtraction-free elimination.
        assert!(((pi[1] - expected_down) / expected_down).abs() < 1e-12);
    }

    #[test]
    fn reducible_chain_detected() {
        // State 1 cannot reach state 0.
        let q = Matrix::from_rows(&[&[-1.0, 1.0], &[0.0, 0.0]]).unwrap();
        assert!(matches!(
            gth_steady_state(&q),
            Err(MarkovError::BadStructure { .. })
        ));
    }

    #[test]
    fn singleton_chain() {
        let q = Matrix::from_rows(&[&[0.0]]).unwrap();
        assert_eq!(gth_steady_state(&q).unwrap(), vec![1.0]);
    }

    #[test]
    fn rejects_non_square() {
        let q = Matrix::zeros(2, 3);
        assert!(gth_steady_state(&q).is_err());
    }

    #[test]
    fn agrees_with_detailed_balance_birth_death() {
        // Birth-death: lambda_i = 2, mu_i = 5, 4 states.
        let q = Matrix::from_rows(&[
            &[-2.0, 2.0, 0.0, 0.0],
            &[5.0, -7.0, 2.0, 0.0],
            &[0.0, 5.0, -7.0, 2.0],
            &[0.0, 0.0, 5.0, -5.0],
        ])
        .unwrap();
        let pi = gth_steady_state(&q).unwrap();
        let rho: f64 = 2.0 / 5.0;
        let weights: Vec<f64> = (0..4).map(|i| rho.powi(i)).collect();
        let total: f64 = weights.iter().sum();
        for (p, w) in pi.iter().zip(&weights) {
            assert!((p - w / total).abs() < 1e-14);
        }
    }

    /// The generator of the farm `gth_imperfect_coverage_farm` solves,
    /// `rates[i - 1]` being `(a_i, u_i)`, with transitions added in the
    /// order a builder adds them.
    fn farm_generator(rates: &[(f64, f64)], mu: f64, beta: f64) -> Matrix {
        let n = rates.len();
        let mut q = Matrix::zeros(2 * n + 1, 2 * n + 1);
        let mut add = |from: usize, to: usize, rate: f64| {
            q[(from, to)] += rate;
            q[(from, from)] -= rate;
        };
        for (i, &(covered, uncovered)) in (1..=n).zip(rates) {
            if covered > 0.0 {
                add(i, i - 1, covered);
            }
            add(i, n + i, uncovered);
            add(n + i, i - 1, beta);
            add(i - 1, i, mu);
        }
        q
    }

    /// A farm case: per-server (covered, uncovered) failure rates, µ, β,
    /// and whether the structured solve should accept it.
    type FarmCase<'a> = (&'a [(f64, f64)], f64, f64, bool);

    #[test]
    fn imperfect_coverage_farm_matches_dense_gth_or_declines() {
        let paper: Vec<(f64, f64)> = (1..=4)
            .map(|i| (i as f64 * 0.98 * 1e-4, i as f64 * 0.02 * 1e-4))
            .collect();
        let cases: [FarmCase; 4] = [
            // The paper's farm: λ = 1e-4/h, c = 0.98, µ = 1/h, β = 12/h.
            (&paper, 1.0, 12.0, true),
            // No coverage, and rates that fall with i.
            (&[(0.0, 3.0), (0.0, 0.5), (0.0, 2e-3)], 0.7, 5.0, true),
            // d_2 ≈ 1e-310 after d_1 ≈ 1e10: every weight stays finite, but
            // µ/d_2 overflows and dense GTH's fill-in turns into NaN.
            (&[(1e10, 1.0), (1e-310, 1e-320)], 1.0, 12.0, false),
            // u_1/β overflows.
            (&[(1.0, 1e300)], 1.0, 1e-300, false),
        ];
        for (rates, mu, beta, healthy) in cases {
            let mut pi = vec![7.0; 3];
            let solved =
                gth_imperfect_coverage_farm(rates.len(), |i| rates[i - 1], mu, beta, &mut pi);
            let dense = gth_steady_state(&farm_generator(rates, mu, beta));
            assert_eq!(solved, healthy, "{rates:?}");
            if healthy {
                let dense = dense.unwrap();
                assert_eq!(pi.len(), dense.len());
                for (s, d) in pi.iter().zip(&dense) {
                    assert_eq!(s.to_bits(), d.to_bits(), "{rates:?}");
                }
            } else {
                assert!(dense.map_or(true, |d| steady_state_mass_drift(&d) > 1e-9));
            }
        }
    }
}
