//! Composite performance–availability evaluation (performability).
//!
//! The paper evaluates the web service with Meyer's composite approach
//! (Section 4.1.2): a *pure availability* model yields the steady-state
//! probability `π_i` of each structural state (number of operational
//! servers, down states), and a *pure performance* model yields the
//! per-state probability `p_K(i)` that a request is lost. Under the
//! quasi-steady-state assumption (failure/repair rates ≪ request rates),
//! the user-visible service availability is
//!
//! `A = Σ_i π_i · (1 − loss_i)` — equations (5) and (9).
//!
//! This module provides that combination as a validated operator.

use crate::CoreError;

/// One structural state of the availability model, paired with the
/// conditional service quality delivered in that state.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CompositeState {
    /// Steady-state probability `π_i` of being in this state.
    pub probability: f64,
    /// Probability that a request is served (not lost) in this state,
    /// i.e. `1 − p_K(i)`; `0.0` for down states.
    pub service_probability: f64,
}

impl CompositeState {
    /// Creates a composite state.
    pub fn new(probability: f64, service_probability: f64) -> Self {
        CompositeState {
            probability,
            service_probability,
        }
    }
}

/// Combines availability-state probabilities with per-state service
/// probabilities into the composite service availability
/// `Σ_i π_i · service_i`, accumulated in one pass in slice order and
/// capped at 1. Every farm size of equations (5) and (9) goes through it,
/// from the paper's 9 states to the 20 001 of a 10 000-server farm.
///
/// # Errors
///
/// * [`CoreError::BadWeights`] when `states` is empty or the state
///   probabilities do not form a distribution (negative, or not summing
///   to 1 within a tolerance of
///   `max(1e-6, states.len() × 1e-7)` — roundoff in the underlying
///   steady-state solve grows with the number of states, so the cutoff
///   scales with the model instead of rejecting large valid models).
/// * [`CoreError::InvalidProbability`] when a service probability is
///   outside `[0, 1]`.
///
/// # Examples
///
/// ```
/// use uavail_core::composite::{composite_availability, CompositeState};
///
/// # fn main() -> Result<(), uavail_core::CoreError> {
/// // Two-state farm: 99% of the time 1 server up serving 90% of requests,
/// // 1% of the time down.
/// let a = composite_availability(&[
///     CompositeState::new(0.99, 0.9),
///     CompositeState::new(0.01, 0.0),
/// ])?;
/// assert!((a - 0.891).abs() < 1e-12);
/// # Ok(())
/// # }
/// ```
pub fn composite_availability(states: &[CompositeState]) -> Result<f64, CoreError> {
    if states.is_empty() {
        return Err(CoreError::BadWeights {
            reason: "no composite states".into(),
        });
    }
    let mut total_probability = 0.0;
    let mut availability = 0.0;
    for (i, s) in states.iter().enumerate() {
        if !(s.probability.is_finite() && s.probability >= 0.0) {
            return Err(CoreError::BadWeights {
                reason: format!("state {i} has probability {}", s.probability),
            });
        }
        if !(s.service_probability.is_finite() && (0.0..=1.0).contains(&s.service_probability)) {
            return Err(CoreError::InvalidProbability {
                context: format!("service probability of composite state {i}"),
                value: s.service_probability,
            });
        }
        total_probability += s.probability;
        availability += s.probability * s.service_probability;
    }
    let count = states.len();
    // Normalization tolerance scales with the state count: each π_i from
    // a numerical steady-state solve carries roundoff of a few ulps, and
    // those errors add across states, so a fixed cutoff that is fine for
    // the paper's ~12-state farm chains spuriously rejects distributions
    // from large generated models. The floor keeps the historical 1e-6
    // for small models — the tolerance is never stricter than before.
    let tolerance = 1e-6_f64.max(count as f64 * 1e-7);
    if (total_probability - 1.0).abs() > tolerance {
        return Err(CoreError::BadWeights {
            reason: format!(
                "state probabilities sum to {total_probability}, expected 1 \
                 (tolerance {tolerance:e} for {count} states)"
            ),
        });
    }
    if uavail_obs::enabled() {
        let drift = (total_probability - 1.0).abs();
        uavail_obs::health_record("core.composite.prob_drift", drift);
        // Headroom left before the model would have been rejected; a
        // shrinking minimum means probability mass is drifting toward
        // the tolerance cliff.
        uavail_obs::health_record("core.composite.tolerance_headroom", tolerance - drift);
    }
    // Probabilities that pass the tolerance may still sum to a few ulps
    // above 1, and the weighted sum inherits them.
    Ok(availability.min(1.0))
}

/// Checks the quasi-steady-state separation assumption behind the
/// composite approach: the fastest failure/recovery rate should be much
/// smaller than the slowest performance rate. Returns the separation ratio
/// `min(performance rates) / max(failure rates)`; the paper's setting has
/// ratios above 10⁵.
///
/// # Errors
///
/// [`CoreError::BadWeights`] when either slice is empty or contains a
/// non-positive rate.
pub fn separation_ratio(
    failure_recovery_rates: &[f64],
    performance_rates: &[f64],
) -> Result<f64, CoreError> {
    if failure_recovery_rates.is_empty() || performance_rates.is_empty() {
        return Err(CoreError::BadWeights {
            reason: "empty rate list".into(),
        });
    }
    for &r in failure_recovery_rates.iter().chain(performance_rates) {
        if !(r.is_finite() && r > 0.0) {
            return Err(CoreError::BadWeights {
                reason: format!("non-positive rate {r}"),
            });
        }
    }
    let max_fail = failure_recovery_rates
        .iter()
        .cloned()
        .fold(f64::NEG_INFINITY, f64::max);
    let min_perf = performance_rates
        .iter()
        .cloned()
        .fold(f64::INFINITY, f64::min);
    Ok(min_perf / max_fail)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn weighted_combination() {
        let a = composite_availability(&[
            CompositeState::new(0.5, 1.0),
            CompositeState::new(0.3, 0.5),
            CompositeState::new(0.2, 0.0),
        ])
        .unwrap();
        assert!((a - 0.65).abs() < 1e-15);
    }

    #[test]
    fn validation() {
        assert!(composite_availability(&[]).is_err());
        assert!(composite_availability(&[CompositeState::new(0.5, 0.5)]).is_err()); // sums to 0.5
        assert!(composite_availability(&[
            CompositeState::new(1.0, 1.5), // bad service prob
        ])
        .is_err());
        assert!(composite_availability(&[
            CompositeState::new(-0.5, 0.5),
            CompositeState::new(1.5, 0.5),
        ])
        .is_err());
    }

    #[test]
    fn perfect_and_zero_states() {
        let a = composite_availability(&[CompositeState::new(1.0, 1.0)]).unwrap();
        assert_eq!(a, 1.0);
        // Probabilities within the tolerance but above 1 still answer 1.
        let a = composite_availability(&[
            CompositeState::new(0.5 + 1e-12, 1.0),
            CompositeState::new(0.5, 1.0),
        ])
        .unwrap();
        assert_eq!(a, 1.0);
    }

    #[test]
    fn tolerance_scales_with_state_count() {
        // 100 states each 1e-9 off: total drift 1e-7 per... scaled up —
        // total 1.0 + 5e-6, outside the fixed 1e-6 cutoff but within the
        // scaled 100 × 1e-7 = 1e-5 budget for a 100-state model.
        let n = 100;
        let drift = 5e-6;
        let mut states: Vec<CompositeState> = (0..n)
            .map(|_| CompositeState::new((1.0 + drift) / n as f64, 1.0))
            .collect();
        assert!(composite_availability(&states).is_ok());
        // The same absolute drift on a 2-state model still fails: the
        // floor keeps the historical 1e-6 for small models.
        states.truncate(2);
        for s in &mut states {
            s.probability = (1.0 + drift) / 2.0;
        }
        assert!(composite_availability(&states).is_err());
    }

    #[test]
    fn separation_ratio_paper_setting() {
        // Failures per hour vs requests per second (expressed per hour).
        let fail = [1e-4, 1.0, 12.0]; // lambda, mu, beta
        let perf = [100.0 * 3600.0, 100.0 * 3600.0]; // alpha, nu per hour
        let ratio = separation_ratio(&fail, &perf).unwrap();
        assert!(ratio > 1e4, "ratio {ratio}");
    }

    #[test]
    fn separation_validation() {
        assert!(separation_ratio(&[], &[1.0]).is_err());
        assert!(separation_ratio(&[1.0], &[]).is_err());
        assert!(separation_ratio(&[0.0], &[1.0]).is_err());
    }
}
