//! Maintenance-strategy ablations.
//!
//! Section 3.3 of the paper notes that "the architecture solutions might be
//! compared with regards to the maintenance strategy adopted by the TA
//! provider (e.g., immediate vs. deferred maintenance, dedicated vs.
//! shared repair resources)" but evaluates only shared immediate repair.
//! This module builds the comparison: three repair policies for the web
//! farm, all solved as explicit CTMCs (with the Figure 10 imperfect-
//! coverage structure where applicable).

use std::fmt;

use uavail_markov::CtmcBuilder;

use crate::{webservice, TaParameters, TravelError};

/// Repair policy for the web-server farm.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RepairStrategy {
    /// One shared repair facility, engaged as soon as anything fails —
    /// the paper's model (repair rate `µ` whenever `i < N_W`).
    SharedImmediate,
    /// One repair facility per server (repair rate `(N_W − i)·µ`).
    DedicatedImmediate,
    /// Deferred maintenance with hysteresis: repairs begin only once the
    /// number of operational servers drops to `start_below` or fewer, and
    /// continue until the farm is fully restored.
    Deferred {
        /// Repairs start when `operational <= start_below`.
        start_below: usize,
    },
}

impl fmt::Display for RepairStrategy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RepairStrategy::SharedImmediate => f.write_str("shared immediate repair"),
            RepairStrategy::DedicatedImmediate => f.write_str("dedicated immediate repair"),
            RepairStrategy::Deferred { start_below } => {
                write!(f, "deferred repair (start at <= {start_below} up)")
            }
        }
    }
}

/// Steady-state distribution of the farm under a repair strategy, with the
/// Figure 10 imperfect-coverage structure.
///
/// Returns `(operational, reconfiguring)` exactly like
/// [`webservice::farm_distribution_imperfect`]. For
/// [`RepairStrategy::Deferred`] the "repair in progress" flag doubles the
/// operational state space internally; the returned vector aggregates the
/// flag out.
///
/// # Errors
///
/// * [`TravelError::InvalidParameter`] for a deferred threshold ≥ `N_W`
///   that would never let repairs finish restoring full redundancy (the
///   threshold must be < `N_W`).
/// * Propagated chain-construction failures.
pub fn farm_distribution(
    params: &TaParameters,
    strategy: RepairStrategy,
) -> Result<(Vec<f64>, Vec<f64>), TravelError> {
    params.validate()?;
    match strategy {
        RepairStrategy::SharedImmediate => webservice::farm_distribution_imperfect(params),
        RepairStrategy::DedicatedImmediate => dedicated_distribution(params),
        RepairStrategy::Deferred { start_below } => {
            if start_below >= params.web_servers {
                return Err(TravelError::InvalidParameter {
                    name: "start_below",
                    value: start_below as f64,
                    requirement: "strictly less than the number of web servers",
                });
            }
            deferred_distribution(params, start_below)
        }
    }
}

fn dedicated_distribution(params: &TaParameters) -> Result<(Vec<f64>, Vec<f64>), TravelError> {
    let n = params.web_servers;
    let lambda = params.failure_rate_per_hour;
    let mu = params.repair_rate_per_hour;
    let c = params.coverage;
    let beta = params.reconfiguration_rate_per_hour;
    let mut b = CtmcBuilder::new();
    let op: Vec<_> = (0..=n).map(|i| b.add_state(format!("up{i}"))).collect();
    let y: Vec<_> = (1..=n).map(|i| b.add_state(format!("y{i}"))).collect();
    for i in 1..=n {
        if c > 0.0 {
            b.add_transition(op[i], op[i - 1], i as f64 * c * lambda)?;
        }
        if c < 1.0 {
            b.add_transition(op[i], y[i - 1], i as f64 * (1.0 - c) * lambda)?;
            b.add_transition(y[i - 1], op[i - 1], beta)?;
        }
        // Dedicated repair: every failed server is being repaired.
        b.add_transition(op[i - 1], op[i], (n - (i - 1)) as f64 * mu)?;
    }
    let chain = b.build()?;
    let pi = chain.steady_state()?;
    let operational = (0..=n).map(|i| pi[op[i].index()]).collect();
    let reconfiguring = if c < 1.0 {
        (0..n).map(|i| pi[y[i].index()]).collect()
    } else {
        vec![0.0; n]
    };
    Ok((operational, reconfiguring))
}

fn deferred_distribution(
    params: &TaParameters,
    start_below: usize,
) -> Result<(Vec<f64>, Vec<f64>), TravelError> {
    let n = params.web_servers;
    let lambda = params.failure_rate_per_hour;
    let mu = params.repair_rate_per_hour;
    let c = params.coverage;
    let beta = params.reconfiguration_rate_per_hour;
    // States: (operational i, repairing flag r). r flips on when
    // i <= start_below and off again only at i = n.
    // Also the y_i reconfiguration states (flag preserved through them is
    // irrelevant: after reconfiguration i - 1 <= start_below may or may
    // not hold; carry the flag).
    let mut b = CtmcBuilder::new();
    let idle: Vec<_> = (0..=n)
        .map(|i| b.add_state(format!("up{i}/idle")))
        .collect();
    let fixing: Vec<_> = (0..=n)
        .map(|i| b.add_state(format!("up{i}/repairing")))
        .collect();
    let y_idle: Vec<_> = (1..=n).map(|i| b.add_state(format!("y{i}/idle"))).collect();
    let y_fixing: Vec<_> = (1..=n)
        .map(|i| b.add_state(format!("y{i}/repairing")))
        .collect();

    // Failure target: does the destination trigger repair?
    let flag_after_drop =
        |i_next: usize, currently: bool| -> bool { currently || i_next <= start_below };
    for i in 1..=n {
        for &repairing in &[false, true] {
            let from = if repairing { fixing[i] } else { idle[i] };
            // Covered failure.
            if c > 0.0 {
                let to_flag = flag_after_drop(i - 1, repairing);
                let to = if to_flag { fixing[i - 1] } else { idle[i - 1] };
                b.add_transition(from, to, i as f64 * c * lambda)?;
            }
            // Uncovered failure: into the y state, preserving the flag
            // decision for after reconfiguration.
            if c < 1.0 {
                let to_flag = flag_after_drop(i - 1, repairing);
                let y_to = if to_flag {
                    y_fixing[i - 1]
                } else {
                    y_idle[i - 1]
                };
                b.add_transition(from, y_to, i as f64 * (1.0 - c) * lambda)?;
            }
        }
    }
    if c < 1.0 {
        for i in 1..=n {
            b.add_transition(y_idle[i - 1], idle[i - 1], beta)?;
            b.add_transition(y_fixing[i - 1], fixing[i - 1], beta)?;
        }
    }
    // Repairs: only in `fixing` states; completion of the last repair
    // (reaching n) turns the flag off.
    for i in 0..n {
        let to = if i + 1 == n { idle[n] } else { fixing[i + 1] };
        b.add_transition(fixing[i], to, mu)?;
    }
    // `idle` states with i < n simply wait (no repair) — but i = 0 idle is
    // only reachable if start_below permits, i.e. start_below >= 0 always
    // flips the flag at i <= start_below, so idle[i] for i <= start_below
    // is unreachable; the solver drops unreachable states? GTH requires
    // irreducibility over *reachable* states — prune unreachable states by
    // restricting to the reachable set. Simplest robust approach: make
    // unreachable idle states weakly connected by a tiny epsilon? No — we
    // instead build only reachable states below.
    let chain = b.build()?;
    // Prune unreachable states: compute reachability from "all up, idle".
    let pi = prune_and_solve(&chain, idle[n].index())?;
    let mut operational = vec![0.0; n + 1];
    let mut reconfiguring = vec![0.0; n];
    for i in 0..=n {
        operational[i] = pi[idle[i].index()] + pi[fixing[i].index()];
    }
    if c < 1.0 {
        for i in 1..=n {
            reconfiguring[i - 1] = pi[y_idle[i - 1].index()] + pi[y_fixing[i - 1].index()];
        }
    }
    Ok((operational, reconfiguring))
}

/// Solves the steady state of `chain` restricted to the states reachable
/// from `start`, returning a full-length vector with zeros for
/// unreachable states.
fn prune_and_solve(chain: &uavail_markov::Ctmc, start: usize) -> Result<Vec<f64>, TravelError> {
    let q = chain.generator();
    let n = q.rows();
    let mut reachable = vec![false; n];
    let mut stack = vec![start];
    reachable[start] = true;
    while let Some(i) = stack.pop() {
        for j in 0..n {
            if i != j && q[(i, j)] > 0.0 && !reachable[j] {
                reachable[j] = true;
                stack.push(j);
            }
        }
    }
    let members: Vec<usize> = (0..n).filter(|&i| reachable[i]).collect();
    let mut sub = uavail_linalg::Matrix::zeros(members.len(), members.len());
    for (r, &i) in members.iter().enumerate() {
        for (cc, &j) in members.iter().enumerate() {
            sub[(r, cc)] = q[(i, j)];
        }
        // Re-zero the diagonal against pruned leak (none exists: leaks to
        // unreachable states are impossible from reachable ones by
        // definition of reachability... transitions *to* unreachable
        // states cannot exist from reachable ones).
    }
    let pi_sub = uavail_markov::gth_steady_state(&sub).map_err(TravelError::Markov)?;
    let mut pi = vec![0.0; n];
    for (r, &i) in members.iter().enumerate() {
        pi[i] = pi_sub[r];
    }
    Ok(pi)
}

/// Web-service availability under a repair strategy (the composite
/// equation 9 with the strategy's state distribution).
///
/// # Errors
///
/// Propagates solver failures.
pub fn web_availability(
    params: &TaParameters,
    strategy: RepairStrategy,
) -> Result<f64, TravelError> {
    let (op, y) = farm_distribution(params, strategy)?;
    webservice::farm_availability(params, &op, &y, &mut Vec::with_capacity(op.len() + y.len()))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn params() -> TaParameters {
        TaParameters::paper_defaults()
    }

    #[test]
    fn shared_immediate_matches_paper_model() {
        let p = params();
        let via_strategy = web_availability(&p, RepairStrategy::SharedImmediate).unwrap();
        let direct = webservice::redundant_imperfect_availability(&p).unwrap();
        assert!((via_strategy - direct).abs() < 1e-15);
    }

    #[test]
    fn dedicated_beats_shared() {
        let p = params();
        let shared = web_availability(&p, RepairStrategy::SharedImmediate).unwrap();
        let dedicated = web_availability(&p, RepairStrategy::DedicatedImmediate).unwrap();
        assert!(
            dedicated >= shared,
            "dedicated {dedicated} vs shared {shared}"
        );
    }

    #[test]
    fn deferred_is_worse_than_immediate() {
        let p = TaParameters::builder()
            .failure_rate_per_hour(1e-2) // visible failure dynamics
            .build()
            .unwrap();
        let immediate = web_availability(&p, RepairStrategy::SharedImmediate).unwrap();
        let deferred = web_availability(&p, RepairStrategy::Deferred { start_below: 2 }).unwrap();
        assert!(
            deferred < immediate,
            "deferred {deferred} vs immediate {immediate}"
        );
    }

    #[test]
    fn later_deferral_is_worse() {
        let p = TaParameters::builder()
            .failure_rate_per_hour(1e-2)
            .web_servers(6)
            .build()
            .unwrap();
        let lax = web_availability(&p, RepairStrategy::Deferred { start_below: 1 }).unwrap();
        let eager = web_availability(&p, RepairStrategy::Deferred { start_below: 5 }).unwrap();
        assert!(
            eager > lax,
            "starting repairs earlier must help: eager {eager} vs lax {lax}"
        );
    }

    #[test]
    fn deferred_threshold_validation() {
        let p = params();
        assert!(matches!(
            web_availability(&p, RepairStrategy::Deferred { start_below: 4 }),
            Err(TravelError::InvalidParameter { .. })
        ));
    }

    #[test]
    fn distributions_are_normalized() {
        let p = TaParameters::builder()
            .failure_rate_per_hour(5e-3)
            .build()
            .unwrap();
        for strategy in [
            RepairStrategy::SharedImmediate,
            RepairStrategy::DedicatedImmediate,
            RepairStrategy::Deferred { start_below: 1 },
            RepairStrategy::Deferred { start_below: 3 },
        ] {
            let (op, y) = farm_distribution(&p, strategy).unwrap();
            let total: f64 = op.iter().sum::<f64>() + y.iter().sum::<f64>();
            assert!((total - 1.0).abs() < 1e-9, "{strategy}: total {total}");
            assert!(op.iter().chain(y.iter()).all(|&v| v >= 0.0));
        }
    }

    #[test]
    fn perfect_coverage_deferred_works_too() {
        let p = TaParameters::builder()
            .coverage(1.0)
            .failure_rate_per_hour(1e-2)
            .build()
            .unwrap();
        let a = web_availability(&p, RepairStrategy::Deferred { start_below: 2 }).unwrap();
        assert!(a > 0.9 && a < 1.0);
    }

    #[test]
    fn display_names() {
        assert!(RepairStrategy::SharedImmediate
            .to_string()
            .contains("shared"));
        assert!(RepairStrategy::Deferred { start_below: 2 }
            .to_string()
            .contains("<= 2"));
    }
}
