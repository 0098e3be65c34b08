//! The `uavail-obs` contract, pinned end to end: enabling the metrics
//! recorder never changes any reproduced number, bit for bit — and while
//! enabled, the recorder actually observes the work.
//!
//! These tests toggle the process-wide recorder, so they live in their own
//! integration binary and serialize on a lock instead of sharing a process
//! with the rest of the suite.

use std::sync::Mutex;

use uavail_core::par::Exec;
use uavail_travel::evaluation::{figure11, figure12, figure_sweep, table8};
use uavail_travel::sim_validation::{compressed_parameters, validate_web_service};
use uavail_travel::{webservice, Coverage, EvalContext, TaParameters};

static RECORDER_LOCK: Mutex<()> = Mutex::new(());

/// Runs `f` once with recording off and once with recording on (resetting
/// the recorder first), returning both results plus the on-run snapshot.
fn with_and_without_recording<T>(f: impl Fn() -> T) -> (T, T, uavail_obs::Snapshot) {
    let _guard = RECORDER_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    uavail_obs::set_enabled(false);
    let off = f();
    uavail_obs::set_enabled(true);
    uavail_obs::reset();
    let on = f();
    let snap = uavail_obs::snapshot();
    uavail_obs::set_enabled(false);
    (off, on, snap)
}

#[test]
fn figure_sweeps_are_bit_identical_with_recording_on() {
    let (off, on, snap) = with_and_without_recording(|| {
        (figure11().unwrap(), figure12().unwrap(), table8().unwrap())
    });
    let (f11_off, f12_off, t8_off) = off;
    let (f11_on, f12_on, t8_on) = on;
    for (a, b) in f11_off
        .iter()
        .zip(&f11_on)
        .chain(f12_off.iter().zip(&f12_on))
    {
        assert_eq!(
            a.unavailability.to_bits(),
            b.unavailability.to_bits(),
            "N_W={} λ={} α={}",
            a.web_servers,
            a.failure_rate_per_hour,
            a.arrival_rate_per_second
        );
    }
    assert_eq!(t8_off, t8_on);

    // While on, the recorder saw the sweeps: per-figure point counts, a
    // health value from each closed-form loss family of two or more
    // servers (81 points per figure), span timings and a per-point latency
    // histogram.
    assert_eq!(snap.counter("travel.fig11.points"), 90);
    assert_eq!(snap.counter("travel.fig12.points"), 90);
    assert!(snap.health["queueing.mmck.loss_increase"].count >= 2 * 81);
    assert_eq!(snap.spans["travel.figure_sweep"].count, 2);
    assert!(snap.spans["travel.figure_sweep"].total_nanos > 0);
    assert_eq!(snap.spans["travel.table8"].count, 1);
    assert_eq!(snap.histograms["travel.figure.point_ns"].count, 180);
}

#[test]
fn parallel_sweep_is_bit_identical_with_recording_on() {
    let (off, on, snap) = with_and_without_recording(|| {
        figure_sweep(Coverage::Imperfect, &Exec::parallel())
            .unwrap()
            .points
    });
    for (a, b) in off.iter().zip(&on) {
        assert_eq!(a.unavailability.to_bits(), b.unavailability.to_bits());
    }
    assert_eq!(snap.spans["travel.figure_sweep"].count, 1);
    assert_eq!(snap.histograms["travel.figure.point_ns"].count, 90);
}

/// Distinct farms shaped like the `/eval` benchmark's cold queries: 8 to
/// 80 servers with a buffer eight slots deeper, λ from 1e-4 to 1e-3 per
/// hour and α from 50 to 150 per second.
fn cold_farms() -> Vec<TaParameters> {
    (0..32)
        .map(|k| {
            let servers = 8 + (k * 7) % 73;
            TaParameters {
                web_servers: servers,
                buffer_size: servers + 8,
                failure_rate_per_hour: 10f64.powf(-4.0 + k as f64 / 31.0),
                arrival_rate_per_second: 50.0 + 100.0 * ((k * 13) % 32) as f64 / 31.0,
                ..TaParameters::paper_defaults()
            }
        })
        .collect()
}

#[test]
fn worker_farm_solves_are_bit_identical_with_recording_on() {
    let farms = cold_farms();
    let (off, on, snap) = with_and_without_recording(|| {
        let mut ctx = EvalContext::new();
        farms
            .iter()
            .map(|p| webservice::redundant_imperfect_availability_with(p, &mut ctx).unwrap())
            .collect::<Vec<_>>()
    });
    for ((a, b), p) in off.iter().zip(&on).zip(&farms) {
        assert_eq!(a.to_bits(), b.to_bits(), "{p:?}");
    }
    // Every farm was solved once by the structured GTH, which recorded
    // both of its health gauges, within the tolerances `trace_health.rs`
    // documents for dense GTH.
    for (gauge, tolerance) in [
        ("markov.gth.prob_sum_drift", 1e-12),
        ("markov.gth.residual", 1e-8),
    ] {
        let summary = snap
            .health
            .get(gauge)
            .unwrap_or_else(|| panic!("{gauge} missing"));
        assert_eq!(summary.count, farms.len() as u64, "{gauge}");
        assert!(summary.max < tolerance, "{gauge}: {summary:?}");
    }
}

#[test]
fn simulation_is_bit_identical_with_recording_on() {
    let params = compressed_parameters();
    let (off, on, snap) =
        with_and_without_recording(|| validate_web_service(&params, 500.0, 11, 1, 1).unwrap());
    assert_eq!(off, on, "recording must not perturb the RNG stream");
    assert_eq!(snap.counter("travel.validate.arrivals"), on.arrivals);
    assert_eq!(snap.spans["travel.validate"].count, 1);
}

#[test]
fn slo_and_window_recording_is_bit_identical_and_fed_by_the_validator() {
    let params = compressed_parameters();
    let analytic = webservice::redundant_imperfect_availability(&params).unwrap();
    let _guard = RECORDER_LOCK.lock().unwrap_or_else(|e| e.into_inner());

    // Off: the full telemetry plane configured but recording disabled.
    uavail_obs::set_enabled(false);
    uavail_obs::slo_reset();
    uavail_obs::window_reset();
    uavail_obs::window::clock_reset();
    let off = validate_web_service(&params, 2_000.0, 20240601, 4, 2).unwrap();
    assert!(
        uavail_obs::slo_snapshot().is_none(),
        "disabled: the validator must not create an SLO monitor"
    );

    // On: the farm validator feeds the monitor and windows rotate.
    uavail_obs::set_enabled(true);
    uavail_obs::reset();
    uavail_obs::slo_configure(uavail_obs::SloConfig {
        target_availability: Some(analytic),
        ..uavail_obs::SloConfig::default()
    });
    uavail_obs::clock_advance_to(1_000_000_000);
    uavail_obs::window_record("validate.run_ns", 1);
    let on = validate_web_service(&params, 2_000.0, 20240601, 4, 2).unwrap();
    let slo = uavail_obs::slo_snapshot().expect("validator fed the monitor");
    uavail_obs::set_enabled(false);

    // The reproduced numbers are bit-identical, recording on or off.
    assert_eq!(
        off.simulated_unavailability.to_bits(),
        on.simulated_unavailability.to_bits()
    );
    assert_eq!(
        off.confidence_interval.0.to_bits(),
        on.confidence_interval.0.to_bits()
    );
    assert_eq!(
        off.batch_stats.mean().to_bits(),
        on.batch_stats.mean().to_bits()
    );

    // And the monitor saw exactly the pooled outcome counts.
    assert_eq!(slo.total, on.arrivals);
    assert_eq!(
        slo.losses,
        on.arrivals - slo.successes,
        "losses + successes partition the arrivals"
    );
    assert!((slo.availability - (1.0 - on.simulated_unavailability)).abs() < 1e-12);
    assert_eq!(slo.classes["farm"].total, on.arrivals);

    uavail_obs::slo_reset();
    uavail_obs::window_reset();
    uavail_obs::window::clock_reset();
}
