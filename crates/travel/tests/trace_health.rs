//! The trace-event and numerical-health contracts, pinned end to end:
//! enabling tracing never changes any reproduced number, bit for bit; the
//! exported timeline is valid Chrome-trace JSON covering the sweep; and a
//! full Table 8 run reports solver residuals below documented tolerances.
//!
//! These tests toggle the process-wide trace flag and recorder, so they
//! live in their own integration binary and serialize on a lock.

use std::sync::Mutex;

use uavail_core::par::Exec;
use uavail_travel::evaluation::{figure12, figure_sweep, table8};
use uavail_travel::{webservice, Coverage, TaParameters};

static RECORDER_LOCK: Mutex<()> = Mutex::new(());

/// Runs `f` once with tracing off and once with tracing on (resetting the
/// trace sink first), returning both results plus the on-run trace.
fn with_and_without_tracing<T>(f: impl Fn() -> T) -> (T, T, uavail_obs::TraceData) {
    let _guard = RECORDER_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    uavail_obs::set_trace_enabled(false);
    let off = f();
    uavail_obs::trace::reset();
    uavail_obs::set_trace_enabled(true);
    let on = f();
    uavail_obs::set_trace_enabled(false);
    let data = uavail_obs::take_trace();
    (off, on, data)
}

#[test]
fn serial_sweep_is_bit_identical_with_tracing_on() {
    let (off, on, data) = with_and_without_tracing(|| figure12().unwrap());
    for (a, b) in off.iter().zip(&on) {
        assert_eq!(
            a.unavailability.to_bits(),
            b.unavailability.to_bits(),
            "N_W={} λ={} α={}",
            a.web_servers,
            a.failure_rate_per_hour,
            a.arrival_rate_per_second
        );
    }
    // While on, the timeline saw the sweep: one span per figure point and
    // a valid Chrome-trace export.
    let points = data
        .events
        .iter()
        .filter(|e| {
            e.name == "travel.figure.point"
                && matches!(e.phase, uavail_obs::trace::TracePhase::Begin)
        })
        .count();
    assert_eq!(points, off.len(), "one trace span per figure point");
    uavail_obs::trace::validate_chrome_trace(&data.to_chrome_trace()).unwrap();
}

#[test]
fn parallel_sweep_is_bit_identical_with_tracing_on() {
    let (off, on, data) = with_and_without_tracing(|| {
        figure_sweep(Coverage::Imperfect, &Exec::parallel())
            .unwrap()
            .points
    });
    for (a, b) in off.iter().zip(&on) {
        assert_eq!(a.unavailability.to_bits(), b.unavailability.to_bits());
    }
    let points = data
        .events
        .iter()
        .filter(|e| {
            e.name == "travel.figure.point"
                && matches!(e.phase, uavail_obs::trace::TracePhase::Begin)
        })
        .count();
    assert_eq!(points, off.len());
    uavail_obs::trace::validate_chrome_trace(&data.to_chrome_trace()).unwrap();
}

/// Documented tolerance for the GTH probability-mass drift `|Σπ − 1|`.
/// GTH normalizes explicitly, so the drift is a couple of ulps.
const GTH_DRIFT_TOL: f64 = 1e-12;

/// Documented tolerance for the GTH residual `‖πQ‖∞`. The paper's
/// generators mix rates from 1e-4/h to 3.6e5/h, so the absolute residual
/// scales with the largest rate times machine epsilon (~1e-10) with two
/// orders of headroom.
const GTH_RESIDUAL_TOL: f64 = 1e-8;

/// Documented tolerance for the largest relative increase
/// `p_K(i)/p_K(i−1) − 1` within one closed-form loss family. Equation (3)
/// is decreasing in `i`, so the value is negative; rounding may lift two
/// equal neighbours to a few ulps above 0, never further.
const LOSS_INCREASE_TOL: f64 = 1e-12;

/// Documented tolerance for the LU residual `‖Ax − b‖∞` of the MTTF
/// solve; the right-hand sides are O(1) expected sojourn sums.
const LU_RESIDUAL_TOL: f64 = 1e-6;

#[test]
fn table8_health_report_is_within_documented_tolerances() {
    let _guard = RECORDER_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    uavail_obs::set_enabled(true);
    uavail_obs::reset();
    let rows = table8().unwrap();
    // Table 8 runs entirely on the GTH path; the LU channels come from the
    // mean-time-to-failure solve, which the paper's Table 6 exercises.
    let mttf = webservice::mean_time_to_web_down(&TaParameters::paper_defaults()).unwrap();
    let snap = uavail_obs::snapshot();
    uavail_obs::set_enabled(false);
    assert!(!rows.is_empty());
    assert!(mttf > 0.0);

    let summary = |name: &str| {
        *snap
            .health
            .get(name)
            .unwrap_or_else(|| panic!("health channel {name:?} missing from {:?}", snap.health))
    };

    let gth_drift = summary("markov.gth.prob_sum_drift");
    assert!(gth_drift.count > 0);
    assert!(gth_drift.max < GTH_DRIFT_TOL, "gth drift {gth_drift:?}");
    let gth_residual = summary("markov.gth.residual");
    assert!(
        gth_residual.max < GTH_RESIDUAL_TOL,
        "gth residual {gth_residual:?}"
    );

    let increase = summary("queueing.mmck.loss_increase");
    assert!(increase.count > 0);
    assert!(
        increase.max <= LOSS_INCREASE_TOL,
        "p_K(i) rose with i: {increase:?}"
    );

    let drift = summary("core.composite.prob_drift");
    let headroom = summary("core.composite.tolerance_headroom");
    assert_eq!(drift.count, headroom.count);
    assert!(
        headroom.min > 0.0,
        "composite drift consumed its tolerance: {drift:?} / {headroom:?}"
    );

    let pivot = summary("linalg.lu.min_pivot");
    assert!(pivot.count > 0);
    assert!(pivot.min > 0.0, "lu pivot {pivot:?}");
    let lu_residual = summary("linalg.lu.residual");
    assert!(
        lu_residual.max < LU_RESIDUAL_TOL,
        "lu residual {lu_residual:?}"
    );

    // The snapshot serializes the health section through the validating
    // JSON emitter.
    let json = snap.to_json_lines();
    uavail_obs::json::validate_lines(&json).unwrap();
    assert!(json.contains("\"type\":\"health\""));
}
