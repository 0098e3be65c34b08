//! Cross-validation of the analytic composite model against the joint
//! discrete-event simulation (our addition to the paper — E15 in
//! DESIGN.md).
//!
//! The paper's equations (5)/(9) rest on a quasi-steady-state separation
//! argument. The [`uavail_sim::FarmSimulation`] runs the *joint* model
//! with no separation, so agreement between the two is evidence for both
//! the implementation and the assumption. Because simulating 100 req/s
//! over enough failure events is infeasible at the paper's real rates,
//! validation uses time-compressed parameters that keep the separation
//! ratio large enough (≥ ~50×) for the assumption to hold approximately.

use rand::rngs::StdRng;
use rand::SeedableRng;
use uavail_sim::replicate::replicate;
use uavail_sim::stats::{batch_means, OnlineStats};
use uavail_sim::{FarmObservation, FarmSimulation, SimContext, SimError};

use crate::{webservice, TaParameters, TravelError};

/// Result of one analytic-vs-simulation comparison.
#[derive(Debug, Clone, PartialEq)]
pub struct ValidationReport {
    /// Analytic web-service unavailability (equation 9).
    pub analytic_unavailability: f64,
    /// Simulated request-loss fraction.
    pub simulated_unavailability: f64,
    /// 99.99% binomial confidence half-interval on the simulated value.
    pub confidence_interval: (f64, f64),
    /// Requests observed.
    pub arrivals: u64,
    /// Ratio of the slowest performance rate to the fastest
    /// failure/recovery rate (the separation the composite model assumes).
    pub separation_ratio: f64,
}

impl ValidationReport {
    /// Whether the analytic value lies inside the simulation confidence
    /// interval widened by `slack` (relative), accounting for the residual
    /// quasi-steady-state error at compressed time scales.
    pub fn agrees(&self, slack: f64) -> bool {
        let (lo, hi) = self.confidence_interval;
        let lo = lo * (1.0 - slack);
        let hi = hi * (1.0 + slack);
        self.analytic_unavailability >= lo && self.analytic_unavailability <= hi
    }
}

/// Compares equation (9) against the joint simulation.
///
/// `params` must use *time-compressed* rates: everything in the same time
/// unit, with arrival/service rates interpreted per-unit rather than
/// per-second (the analytic side only consumes ratios, so this is exact
/// for it; the simulation needs enough failure events per unit of CPU).
///
/// # Errors
///
/// Propagates analytic and simulation failures.
pub fn validate_web_service(
    params: &TaParameters,
    horizon: f64,
    seed: u64,
) -> Result<ValidationReport, TravelError> {
    let _span = uavail_obs::span("travel.validate");
    let analytic = 1.0 - webservice::redundant_imperfect_availability(params)?;
    let sim = farm_simulation(params)?;
    let mut rng = StdRng::seed_from_u64(seed);
    let obs = sim.run(&mut rng, horizon)?;
    Ok(pooled_report(params, analytic, std::slice::from_ref(&obs)))
}

/// Builds the [`FarmSimulation`] corresponding to a parameter set —
/// shared by the single-run and replicated validators.
fn farm_simulation(params: &TaParameters) -> Result<FarmSimulation, TravelError> {
    Ok(FarmSimulation::new(
        params.web_servers,
        params.failure_rate_per_hour,
        params.repair_rate_per_hour,
        params.coverage,
        params.reconfiguration_rate_per_hour,
        params.arrival_rate_per_second,
        params.service_rate_per_second,
        params.buffer_size,
    )?)
}

/// Ratio of the slowest performance rate to the fastest failure/recovery
/// rate — the time-scale separation the composite model assumes.
fn separation_ratio(params: &TaParameters) -> f64 {
    params
        .arrival_rate_per_second
        .min(params.service_rate_per_second)
        / params
            .failure_rate_per_hour
            .max(params.repair_rate_per_hour)
            .max(params.reconfiguration_rate_per_hour)
}

/// Pools per-replication farm observations into one [`ValidationReport`].
fn pooled_report(
    params: &TaParameters,
    analytic: f64,
    observations: &[FarmObservation],
) -> ValidationReport {
    let arrivals: u64 = observations.iter().map(|o| o.arrivals).sum();
    let losses: u64 = observations.iter().map(|o| o.losses).sum();
    uavail_obs::counter_add("travel.validate.arrivals", arrivals);
    uavail_obs::counter_add("travel.validate.losses", losses);
    // Feed the live SLO monitor the same observed outcomes the report is
    // built from: successes are arrivals that were not lost. Reads only
    // already-computed counts, so recording cannot perturb the report.
    uavail_obs::slo_record_outcomes("farm", arrivals.saturating_sub(losses), losses, 0);
    let pooled = uavail_sim::stats::Proportion::new(losses, arrivals);
    ValidationReport {
        analytic_unavailability: analytic,
        simulated_unavailability: pooled.estimate(),
        confidence_interval: pooled.confidence_interval(3.9),
        arrivals,
        separation_ratio: separation_ratio(params),
    }
}

/// Replicated [`validate_web_service`]: runs `replications` independent
/// simulations of `horizon` time units each on up to `threads` workers
/// (`threads <= 1` runs them serially) and pools their arrival/loss
/// counts into one report with a correspondingly tighter confidence
/// interval.
///
/// Each replication owns an RNG stream derived from `base_seed` (see
/// [`uavail_sim::replicate`]), so the pooled counts are identical no
/// matter how many threads run the batch.
///
/// # Errors
///
/// Propagates analytic and simulation failures (the error of the lowest
/// failing replication index); [`SimError::NoObservations`] when no
/// replication ran (`replications == 0`, or fault injection dropped every
/// one).
pub fn validate_web_service_replicated(
    params: &TaParameters,
    horizon: f64,
    base_seed: u64,
    replications: usize,
    threads: usize,
) -> Result<ValidationReport, TravelError> {
    let _span = uavail_obs::span("travel.validate");
    let analytic = 1.0 - webservice::redundant_imperfect_availability(params)?;
    let sim = farm_simulation(params)?;
    let observations = replicate(
        base_seed,
        replications,
        threads,
        || (),
        |(), rng, _| sim.run(rng, horizon),
    )?;
    if observations.is_empty() {
        return Err(TravelError::Sim(SimError::NoObservations));
    }
    Ok(pooled_report(params, analytic, &observations))
}

/// Result of the streaming analytic-vs-simulation comparison: the pooled
/// Wilson report plus batch-means statistics over the per-replication
/// loss fractions, the two interval constructions the CI gate checks.
#[derive(Debug, Clone, PartialEq)]
pub struct StreamingValidationReport {
    /// Pooled counts and Wilson interval, as in [`validate_web_service`].
    /// Arrival/loss totals here are *expected* counts from the epoch
    /// kernel, rounded — a conservative binomial envelope (the kernel's
    /// conditional-expectation estimates have strictly smaller variance
    /// than the realized counts the interval assumes).
    pub report: ValidationReport,
    /// Batch means over the per-replication loss fractions.
    pub batch_stats: OnlineStats,
    /// Replications folded (more or fewer than requested when fault
    /// injection duplicates or drops some).
    pub replications: usize,
    /// Batch count of the batch-means statistics.
    pub batches: usize,
}

impl StreamingValidationReport {
    /// Batch-means confidence interval on the mean loss fraction at the
    /// given normal quantile (e.g. 3.9 for 99.99%).
    pub fn batch_interval(&self, z: f64) -> (f64, f64) {
        let half = self.batch_stats.confidence_half_width(z);
        (
            self.batch_stats.mean() - half,
            self.batch_stats.mean() + half,
        )
    }

    /// Whether the analytic value lies inside the batch-means interval at
    /// quantile `z`, widened by `slack` (relative) for the residual
    /// quasi-steady-state error at compressed time scales.
    pub fn batch_agrees(&self, z: f64, slack: f64) -> bool {
        let (lo, hi) = self.batch_interval(z);
        let analytic = self.report.analytic_unavailability;
        analytic >= lo * (1.0 - slack) && analytic <= hi * (1.0 + slack)
    }
}

/// Production-scale validator: replicated farm runs through the
/// epoch-resolvent counting kernel
/// ([`FarmSimulation::run_counts_with`][uavail_sim::FarmSimulation]), one
/// warm [`SimContext`] per worker thread, folded in replication-index
/// order into pooled expected counts and batch means ([`batch_means`])
/// over the per-replication loss fractions.
///
/// The fold order is the replication-index order, so the resulting report
/// is **bit-for-bit identical** for any `threads` value, including the
/// serial `threads <= 1` path.
///
/// # Errors
///
/// Propagates analytic and simulation failures (the error of the lowest
/// failing replication index); [`SimError::NoObservations`] when no
/// replication ran (`replications == 0`, or fault injection dropped every
/// one).
pub fn validate_web_service_streaming(
    params: &TaParameters,
    horizon: f64,
    base_seed: u64,
    replications: usize,
    threads: usize,
) -> Result<StreamingValidationReport, TravelError> {
    let _span = uavail_obs::span("travel.validate_streaming");
    let analytic = 1.0 - webservice::redundant_imperfect_availability(params)?;
    let sim = farm_simulation(params)?;
    let observations = replicate(
        base_seed,
        replications,
        threads,
        SimContext::new,
        |ctx, rng, _| sim.run_counts_with(ctx, rng, horizon),
    )?;
    // At most 10 batches, never more than one replication per batch.
    let batches = observations.len().clamp(1, 10);
    let fractions: Vec<f64> = observations.iter().map(|c| c.loss_fraction()).collect();
    let batch_stats =
        batch_means(&fractions, batches).ok_or(TravelError::Sim(SimError::NoObservations))?;
    let arrivals = observations.iter().map(|c| c.arrivals).sum::<f64>().round() as u64;
    let losses = observations.iter().map(|c| c.losses).sum::<f64>().round() as u64;
    uavail_obs::counter_add("travel.validate.arrivals", arrivals);
    uavail_obs::counter_add("travel.validate.losses", losses);
    // Feed the live SLO monitor the same observed outcomes the report is
    // built from: successes are arrivals that were not lost. Reads only
    // already-computed counts, so recording cannot perturb the report.
    uavail_obs::slo_record_outcomes("farm", arrivals.saturating_sub(losses), losses, 0);
    let pooled = uavail_sim::stats::Proportion::new(losses, arrivals);
    Ok(StreamingValidationReport {
        report: ValidationReport {
            analytic_unavailability: analytic,
            simulated_unavailability: pooled.estimate(),
            confidence_interval: pooled.confidence_interval(3.9),
            arrivals,
            separation_ratio: separation_ratio(params),
        },
        batch_stats,
        replications: observations.len(),
        batches,
    })
}

/// Time-compressed validation parameters for the joint simulation, with
/// the same structure as the paper's farm, with failure dynamics sped up
/// so a few hundred thousand time units contain thousands of
/// failure/repair cycles while the separation ratio stays ≥ 50.
pub fn compressed_parameters() -> TaParameters {
    TaParameters::builder()
        .web_servers(3)
        .failure_rate_per_hour(0.02)
        .repair_rate_per_hour(1.0)
        .coverage(0.9)
        .reconfiguration_rate_per_hour(6.0)
        .arrival_rate_per_second(300.0)
        .service_rate_per_second(150.0)
        .buffer_size(8)
        .build()
        .expect("compressed parameters are valid")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn analytic_matches_joint_simulation() {
        let params = compressed_parameters();
        let report = validate_web_service(&params, 30_000.0, 20240601).unwrap();
        assert!(report.arrivals > 1_000_000);
        assert!(
            report.agrees(0.15),
            "analytic {} vs simulated {} (CI {:?})",
            report.analytic_unavailability,
            report.simulated_unavailability,
            report.confidence_interval
        );
    }

    #[test]
    fn perfect_coverage_agreement_is_tighter() {
        let params = TaParameters::builder()
            .web_servers(2)
            .failure_rate_per_hour(0.05)
            .repair_rate_per_hour(2.0)
            .coverage(1.0)
            .arrival_rate_per_second(200.0)
            .service_rate_per_second(150.0)
            .buffer_size(6)
            .build()
            .unwrap();
        let analytic = 1.0 - webservice::redundant_perfect_availability(&params).unwrap();
        let report = validate_web_service(&params, 30_000.0, 7).unwrap();
        // With c = 1 the imperfect model equals the perfect one.
        assert!((report.analytic_unavailability - analytic).abs() < 1e-12);
        assert!(report.agrees(0.15), "{report:?}");
    }

    #[test]
    fn replicated_validation_parallel_matches_serial() {
        let params = compressed_parameters();
        let serial = validate_web_service_replicated(&params, 800.0, 11, 5, 1).unwrap();
        for threads in [2, 4] {
            let parallel = validate_web_service_replicated(&params, 800.0, 11, 5, threads).unwrap();
            assert_eq!(serial, parallel, "threads={threads}");
        }
        assert!(serial.arrivals > 100_000);
    }

    #[test]
    fn replicated_validation_agrees_with_analytic() {
        let params = compressed_parameters();
        let report = validate_web_service_replicated(&params, 5_000.0, 20240601, 6, 2).unwrap();
        assert!(report.arrivals > 1_000_000);
        assert!(
            report.agrees(0.15),
            "analytic {} vs pooled {} (CI {:?})",
            report.analytic_unavailability,
            report.simulated_unavailability,
            report.confidence_interval
        );
    }

    #[test]
    fn streaming_validation_parallel_matches_serial() {
        let params = compressed_parameters();
        let serial = validate_web_service_streaming(&params, 2_000.0, 11, 24, 1).unwrap();
        for threads in [2, 4] {
            let parallel =
                validate_web_service_streaming(&params, 2_000.0, 11, 24, threads).unwrap();
            assert_eq!(serial, parallel, "threads={threads}");
        }
        assert!(serial.report.arrivals > 1_000_000);
        assert_eq!(serial.replications, 24);
        assert_eq!(serial.batch_stats.count(), serial.batches as u64);
    }

    #[test]
    fn streaming_validation_agrees_with_analytic() {
        // The epoch kernel folds out the queue noise, so even a modest
        // replication budget pins the analytic value tightly: the batch
        // interval and the (conservative) pooled Wilson interval must
        // both cover it with the usual quasi-steady-state slack.
        let params = compressed_parameters();
        let report = validate_web_service_streaming(&params, 10_000.0, 20240601, 32, 2).unwrap();
        assert!(
            report.batch_agrees(3.9, 0.15),
            "analytic {} vs batch mean {} (interval {:?})",
            report.report.analytic_unavailability,
            report.batch_stats.mean(),
            report.batch_interval(3.9)
        );
        assert!(
            report.report.agrees(0.15),
            "analytic {} vs pooled {} (CI {:?})",
            report.report.analytic_unavailability,
            report.report.simulated_unavailability,
            report.report.confidence_interval
        );
    }

    #[test]
    fn replicated_validation_rejects_zero_replications() {
        // Zero replications is no evidence, not an agreement.
        let params = compressed_parameters();
        for threads in [1, 4] {
            let result = validate_web_service_replicated(&params, 100.0, 1, 0, threads);
            assert!(
                matches!(result, Err(TravelError::Sim(SimError::NoObservations))),
                "threads={threads}: {result:?}"
            );
        }
    }

    #[test]
    fn streaming_validation_rejects_zero_replications() {
        let params = compressed_parameters();
        assert!(validate_web_service_streaming(&params, 1_000.0, 1, 0, 1).is_err());
    }

    #[test]
    fn separation_ratio_reported() {
        let params = compressed_parameters();
        let report = validate_web_service(&params, 2_000.0, 3).unwrap();
        assert!(report.separation_ratio >= 25.0);
    }
}
