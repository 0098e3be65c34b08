//! End-to-end user-session simulation — independent validation of the
//! user-level equation (10).
//!
//! The analytic user measure composes steady-state service availabilities.
//! This simulator builds the *dynamic* picture instead: every service is an
//! alternating-renewal up/down process calibrated to its analytic
//! availability; user sessions arrive as a Poisson stream; each session
//! samples a Table 1 scenario and the per-function interaction-diagram
//! paths, and succeeds iff every *distinct* service it needs is up at that
//! moment. The long-run success fraction must converge to equation (10)
//! (sessions treated as instantaneous, matching the paper's steady-state
//! measure).

use std::collections::HashMap;

use rand::Rng;

use uavail_sim::replicate::replicate;
use uavail_sim::rng::exponential;
use uavail_sim::stats::Proportion;
use uavail_sim::SimError;

use crate::functions::{self, TaFunction};
use crate::user::UserClass;
use crate::{Architecture, TaParameters, TravelAgencyModel, TravelError};

/// Result of a session-level simulation run.
#[derive(Debug, Clone, PartialEq)]
pub struct SessionObservation {
    /// Sessions attempted.
    pub sessions: u64,
    /// Sessions for which every required service was up.
    pub successes: u64,
    /// Analytic user availability (equation 10) for comparison.
    pub analytic: f64,
}

impl SessionObservation {
    /// Observed user-perceived availability.
    pub fn availability(&self) -> f64 {
        Proportion::new(self.successes, self.sessions).estimate()
    }

    /// Binomial confidence interval on the observed availability.
    pub fn confidence_interval(&self, z: f64) -> (f64, f64) {
        Proportion::new(self.successes, self.sessions).confidence_interval(z)
    }

    /// Whether the analytic value falls inside the z-interval.
    pub fn agrees(&self, z: f64) -> bool {
        let (lo, hi) = self.confidence_interval(z);
        (lo..=hi).contains(&self.analytic)
    }
}

/// Per-service up/down process calibrated to a target availability.
#[derive(Debug, Clone)]
struct ServiceProcess {
    name: String,
    up: bool,
    /// Failure rate, chosen as `repair_rate (1 − A) / A` so the
    /// steady-state availability equals `A`.
    failure_rate: f64,
    repair_rate: f64,
}

/// Simulates `sessions` user sessions of `class` against dynamically
/// failing services, on the given architecture.
///
/// `mean_cycles` controls how many failure/repair cycles each service goes
/// through across the run (higher = less correlated samples). Services
/// with analytic availability exactly 1.0 never fail.
///
/// # Errors
///
/// * [`TravelError::InvalidParameter`] for `sessions == 0`.
/// * Propagated model failures.
pub fn simulate_user_availability<R: Rng + ?Sized>(
    rng: &mut R,
    class: &UserClass,
    params: &TaParameters,
    architecture: Architecture,
    sessions: u64,
) -> Result<SessionObservation, TravelError> {
    if sessions == 0 {
        return Err(TravelError::InvalidParameter {
            name: "sessions",
            value: 0.0,
            requirement: "at least 1",
        });
    }
    let model = TravelAgencyModel::new(params.clone(), architecture)?;
    let env = model.service_availabilities()?;
    let analytic = model.user_availability(class)?;

    // Calibrate the service processes: repair rate 1.0 per time unit,
    // failure rate matched to the availability.
    let mut services: Vec<ServiceProcess> = env
        .iter()
        .map(|(name, &a)| ServiceProcess {
            name: name.clone(),
            up: true,
            failure_rate: if a >= 1.0 { 0.0 } else { (1.0 - a) / a },
            repair_rate: 1.0,
        })
        .collect();
    services.sort_by(|a, b| a.name.cmp(&b.name));
    let index: HashMap<String, usize> = services
        .iter()
        .enumerate()
        .map(|(i, s)| (s.name.clone(), i))
        .collect();

    // Precompute per-function path tables once.
    let mut paths_per_function: HashMap<&'static str, Vec<(f64, Vec<usize>)>> = HashMap::new();
    for f in TaFunction::all() {
        let scenarios = functions::function_scenarios(f, params)?;
        let resolved = scenarios
            .into_iter()
            .map(|(p, svcs)| {
                let ids = svcs.iter().map(|s| index[s]).collect();
                (p, ids)
            })
            .collect();
        paths_per_function.insert(f.name(), resolved);
    }

    // Session arrivals: Poisson with rate chosen so the expected number of
    // service failure/repair events between sessions is small but nonzero,
    // giving each session a fresh-ish service state.
    let session_rate = 2.0;

    let mut successes = 0u64;
    let mut completed = 0u64;
    let scenario_probs: Vec<f64> = class
        .table()
        .scenarios()
        .iter()
        .map(|s| s.probability)
        .collect();

    let mut clock = 0.0f64;
    while completed < sessions {
        // Advance the world to the next session arrival, playing service
        // transitions in between (race of exponentials).
        let mut until_session = exponential(rng, session_rate);
        loop {
            let total_rate: f64 = services
                .iter()
                .map(|s| if s.up { s.failure_rate } else { s.repair_rate })
                .sum();
            if total_rate <= 0.0 {
                break; // nothing ever fails
            }
            let dt = exponential(rng, total_rate);
            if dt >= until_session {
                break;
            }
            until_session -= dt;
            clock += dt;
            // Pick the transitioning service.
            let mut u: f64 = rng.random::<f64>() * total_rate;
            for s in services.iter_mut() {
                let rate = if s.up { s.failure_rate } else { s.repair_rate };
                if u < rate {
                    s.up = !s.up;
                    break;
                }
                u -= rate;
            }
        }
        clock += until_session;

        // Sample a scenario.
        let mut u: f64 = rng.random();
        let mut chosen = scenario_probs.len() - 1;
        for (i, &p) in scenario_probs.iter().enumerate() {
            if u < p {
                chosen = i;
                break;
            }
            u -= p;
        }
        let scenario = &class.table().scenarios()[chosen];

        // Sample each function's path and collect the distinct services.
        let mut ok = true;
        'functions: for fname in &scenario.functions {
            let paths = &paths_per_function[fname.as_str()];
            let mut u: f64 = rng.random();
            let mut path = &paths[paths.len() - 1].1;
            for (p, ids) in paths {
                if u < *p {
                    path = ids;
                    break;
                }
                u -= p;
            }
            for &svc in path {
                if !services[svc].up {
                    ok = false;
                    break 'functions;
                }
            }
        }
        if ok {
            successes += 1;
        }
        completed += 1;
    }
    let _ = clock; // simulated time; kept for debugging symmetry
    uavail_obs::counter_add("travel.session_sim.sessions", sessions);
    uavail_obs::counter_add("travel.session_sim.successes", successes);
    Ok(SessionObservation {
        sessions,
        successes,
        analytic,
    })
}

/// Replicated [`simulate_user_availability`]: runs `replications`
/// independent batches of `sessions_per_replication` sessions on up to
/// `threads` workers (`threads <= 1` runs them serially) and pools the
/// success counts.
///
/// Each replication owns a deterministic RNG stream derived from
/// `base_seed` (see [`uavail_sim::replicate`]), so the pooled observation
/// is identical regardless of thread count or scheduling.
///
/// # Errors
///
/// * [`TravelError::InvalidParameter`] for `replications == 0` or
///   `sessions_per_replication == 0`.
/// * [`SimError::NoObservations`] when fault injection drops every
///   replication.
/// * Propagated model failures.
pub fn simulate_user_availability_replicated(
    base_seed: u64,
    class: &UserClass,
    params: &TaParameters,
    architecture: Architecture,
    sessions_per_replication: u64,
    replications: usize,
    threads: usize,
) -> Result<SessionObservation, TravelError> {
    if replications == 0 {
        return Err(TravelError::InvalidParameter {
            name: "replications",
            value: 0.0,
            requirement: "at least 1",
        });
    }
    let _span = uavail_obs::span("travel.session_sim");
    let observations = replicate(
        base_seed,
        replications,
        threads,
        || (),
        |(), rng, _| {
            simulate_user_availability(rng, class, params, architecture, sessions_per_replication)
        },
    )?;
    // Fault injection can drop every replication of the schedule.
    let analytic = observations
        .first()
        .ok_or(TravelError::Sim(SimError::NoObservations))?
        .analytic;
    Ok(SessionObservation {
        sessions: observations.iter().map(|o| o.sessions).sum(),
        successes: observations.iter().map(|o| o.successes).sum(),
        analytic,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::user::{class_a, class_b};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn rejects_zero_sessions() {
        let mut rng = StdRng::seed_from_u64(0);
        assert!(simulate_user_availability(
            &mut rng,
            &class_a(),
            &TaParameters::paper_defaults(),
            Architecture::paper_reference(),
            0,
        )
        .is_err());
    }

    #[test]
    fn converges_to_equation_10_class_a() {
        let mut rng = StdRng::seed_from_u64(42);
        let obs = simulate_user_availability(
            &mut rng,
            &class_a(),
            &TaParameters::paper_defaults(),
            Architecture::paper_reference(),
            150_000,
        )
        .unwrap();
        assert!(
            obs.agrees(4.0),
            "analytic {} vs simulated {} (CI {:?})",
            obs.analytic,
            obs.availability(),
            obs.confidence_interval(4.0)
        );
    }

    #[test]
    fn converges_to_equation_10_class_b_basic_architecture() {
        let mut rng = StdRng::seed_from_u64(7);
        let obs = simulate_user_availability(
            &mut rng,
            &class_b(),
            &TaParameters::paper_defaults(),
            Architecture::Basic,
            150_000,
        )
        .unwrap();
        assert!(
            obs.agrees(4.0),
            "analytic {} vs simulated {} (CI {:?})",
            obs.analytic,
            obs.availability(),
            obs.confidence_interval(4.0)
        );
    }

    #[test]
    fn replicated_sessions_parallel_matches_serial() {
        let params = TaParameters::paper_defaults();
        let serial = simulate_user_availability_replicated(
            3,
            &class_a(),
            &params,
            Architecture::paper_reference(),
            4_000,
            6,
            1,
        )
        .unwrap();
        for threads in [2, 4] {
            let parallel = simulate_user_availability_replicated(
                3,
                &class_a(),
                &params,
                Architecture::paper_reference(),
                4_000,
                6,
                threads,
            )
            .unwrap();
            assert_eq!(serial, parallel, "threads={threads}");
        }
        assert_eq!(serial.sessions, 24_000);
        assert!(serial.agrees(5.0));
    }

    #[test]
    fn replicated_sessions_reject_zero_replications() {
        assert!(simulate_user_availability_replicated(
            1,
            &class_a(),
            &TaParameters::paper_defaults(),
            Architecture::paper_reference(),
            100,
            0,
            1,
        )
        .is_err());
    }

    #[test]
    fn ordering_preserved_in_simulation() {
        // Class A must beat class B in simulation too.
        let params = TaParameters::paper_defaults();
        let mut rng = StdRng::seed_from_u64(99);
        let a = simulate_user_availability(
            &mut rng,
            &class_a(),
            &params,
            Architecture::paper_reference(),
            60_000,
        )
        .unwrap();
        let mut rng = StdRng::seed_from_u64(99);
        let b = simulate_user_availability(
            &mut rng,
            &class_b(),
            &params,
            Architecture::paper_reference(),
            60_000,
        )
        .unwrap();
        assert!(a.availability() > b.availability());
    }
}
