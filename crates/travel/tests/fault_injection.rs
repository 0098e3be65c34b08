//! End-to-end fault-injection acceptance tests.
//!
//! These tests flip the process-global `uavail-faultinject` switch, so
//! they live in their own integration binary (unit tests run in separate
//! processes) and serialize on one mutex: a site armed by one test must
//! never be observed by another.
//!
//! The contract under test, in order:
//!
//! 1. **Identity** — with injection disabled, armed or not, every result
//!    is bit-for-bit what the uninstrumented stack produces, pinned on
//!    the paper's `A(WS) = 0.999995587` headline and the Figure 12
//!    reversal.
//! 2. **Panic isolation** — an injected worker panic degrades a
//!    reporting sweep to a partial report with typed failures; the
//!    process never aborts.
//! 3. **Drift guard** — an injected GTH mass drift is caught by the drift
//!    check and answered by the closed form, recorded by the fallback and
//!    recovery counters.
//! 4. **Typed degradation** — corrupted queueing parameters, poisoned
//!    loss probabilities and a forced-singular LU factorization surface as
//!    typed errors, never as NaN results or panics.

use std::sync::{Mutex, MutexGuard, OnceLock};

use uavail_core::par::{default_threads, Exec, OnFailure};
use uavail_core::sweep::sweep;
use uavail_core::CoreError;
use uavail_travel::evaluation::{figure12, figure_sweep, FigureReport};
use uavail_travel::webservice::{
    mean_time_to_web_down, redundant_imperfect_availability, redundant_imperfect_availability_with,
    redundant_perfect_availability,
};
use uavail_travel::{Coverage, EvalContext, TaParameters, TravelError};

/// Table 7 headline availability for the paper's reference parameters.
const HEADLINE: f64 = 0.999995587;

/// Serializes tests and guarantees a clean slate on entry and exit, even
/// when an assertion inside a test panics.
struct InjectionGuard(#[allow(dead_code)] MutexGuard<'static, ()>);

impl InjectionGuard {
    fn acquire() -> Self {
        static LOCK: OnceLock<Mutex<()>> = OnceLock::new();
        let guard = LOCK
            .get_or_init(Mutex::default)
            .lock()
            .unwrap_or_else(|e| e.into_inner());
        uavail_faultinject::reset();
        Self(guard)
    }
}

impl Drop for InjectionGuard {
    fn drop(&mut self) {
        uavail_faultinject::reset();
    }
}

/// The reporting Figure 12 sweep `reproduce resilient` runs.
fn figure12_report() -> FigureReport {
    let exec = Exec {
        threads: default_threads(),
        on_failure: OnFailure::Report,
    };
    figure_sweep(Coverage::Imperfect, &exec).expect("a reporting sweep never fails")
}

fn headline_availability() -> f64 {
    redundant_imperfect_availability(&TaParameters::paper_defaults()).unwrap()
}

#[test]
fn armed_but_disabled_injection_is_bit_for_bit_inert() {
    let _guard = InjectionGuard::acquire();
    let baseline = headline_availability();
    assert!(
        (baseline - HEADLINE).abs() < 1e-8,
        "A(WS) = {baseline:.9}, expected {HEADLINE}"
    );
    let baseline_fig = figure12().unwrap();

    // Arm every registered site at certain-fire rates — but leave the
    // global switch off. The disabled fast path must keep every result
    // bit-for-bit identical.
    uavail_faultinject::set_seed(42);
    uavail_faultinject::arm_spec(
        "lu:1.0,singular:1.0,gth:1.0,mmck:1.0,loss:1.0,drop:1.0,dup:1.0,panic:1.0",
    )
    .unwrap();
    assert!(!uavail_faultinject::enabled());
    assert_eq!(uavail_faultinject::armed_sites().len(), 8);

    let rerun = headline_availability();
    assert_eq!(baseline.to_bits(), rerun.to_bits());

    for (label, points) in [
        ("serial", figure12().unwrap()),
        (
            "parallel",
            figure_sweep(Coverage::Imperfect, &Exec::parallel())
                .unwrap()
                .points,
        ),
    ] {
        assert_eq!(points.len(), baseline_fig.len());
        for (p, b) in points.iter().zip(&baseline_fig) {
            assert_eq!(
                p.unavailability.to_bits(),
                b.unavailability.to_bits(),
                "{label} N_W={} λ={} α={}",
                p.web_servers,
                p.failure_rate_per_hour,
                p.arrival_rate_per_second
            );
        }
    }

    // The Figure 12 reversal survives, of course.
    let at = |nw: usize| {
        baseline_fig
            .iter()
            .find(|p| {
                p.web_servers == nw
                    && p.failure_rate_per_hour == 1e-2
                    && p.arrival_rate_per_second == 50.0
            })
            .unwrap()
            .unavailability
    };
    assert!(at(10) > at(4), "U(10) = {} vs U(4) = {}", at(10), at(4));
}

#[test]
fn worker_panic_injection_keeps_resilient_sweeps_alive() {
    let _guard = InjectionGuard::acquire();
    uavail_faultinject::set_seed(2026);
    uavail_faultinject::arm("panic", 0.2).unwrap();
    uavail_faultinject::set_enabled(true);

    // Core-level acceptance: every non-failed point is present with its
    // correct value, every injected panic is a typed failure, and the
    // process is still here to assert it.
    let xs: Vec<f64> = (0..200).map(|i| i as f64 * 0.5).collect();
    let exec = Exec {
        threads: 4,
        on_failure: OnFailure::Report,
    };
    let report = sweep(&xs, &exec, || (), |(), x| Ok(x * 2.0)).unwrap();
    assert_eq!(report.points.len() + report.failures.len(), xs.len());
    assert!(
        !report.failures.is_empty(),
        "rate 0.2 over 200 points fired nothing"
    );
    for failure in &report.failures {
        assert!(
            matches!(failure.error, CoreError::WorkerPanicked { .. }),
            "untyped failure: {:?}",
            failure.error
        );
        assert_eq!(failure.x, xs[failure.index]);
    }
    for point in &report.points {
        assert_eq!(point.y.to_bits(), (point.x * 2.0).to_bits());
    }
    // Travel-level: the resilient figure sweep partitions the 90-point
    // grid into evaluated points and typed panic failures.
    let fig = figure12_report();
    assert_eq!(fig.points.len() + fig.failures.len(), 90);
    for failure in &fig.failures {
        assert!(
            matches!(
                failure.error,
                TravelError::Core(CoreError::WorkerPanicked { .. })
            ),
            "untyped figure failure: {:?}",
            failure.error
        );
    }

    // Disabling restores the exact baseline.
    uavail_faultinject::reset();
    let a = headline_availability();
    assert!((a - HEADLINE).abs() < 1e-8, "A(WS) = {a:.9} after recovery");
}

#[test]
fn gth_mass_drift_recovers_through_the_fallback_chain() {
    let _guard = InjectionGuard::acquire();
    uavail_obs::reset();
    uavail_obs::set_enabled(true);
    uavail_faultinject::set_seed(7);
    uavail_faultinject::arm("gth", 1.0).unwrap();
    uavail_faultinject::set_enabled(true);

    // Every GTH solve leaks mass; the drift check rejects it and the
    // closed form answers, which never touches the GTH site.
    let a = headline_availability();
    assert!(
        (a - HEADLINE).abs() < 1e-8,
        "A(WS) = {a:.9} through the closed form"
    );

    uavail_faultinject::set_enabled(false);
    uavail_obs::set_enabled(false);
    let snap = uavail_obs::snapshot();
    assert!(snap.counter("travel.farm.pi_fallbacks") >= 1, "{snap:?}");
    assert!(snap.counter("travel.farm.pi_recovered") >= 1);
    assert!(snap.counter("faultinject.fired.markov.gth.mass_drift") >= 1);
    uavail_obs::reset();
}

#[test]
fn gth_mass_drift_on_the_worker_path_recovers_through_the_fallback_chain() {
    let _guard = InjectionGuard::acquire();
    uavail_obs::reset();
    uavail_obs::set_enabled(true);
    uavail_faultinject::set_seed(7);
    uavail_faultinject::arm("gth", 1.0).unwrap();
    uavail_faultinject::set_enabled(true);

    // The `/eval` worker runs the same farm solve, so its drift check
    // must replace the leaked vector by the closed form too.
    let a = redundant_imperfect_availability_with(
        &TaParameters::paper_defaults(),
        &mut EvalContext::new(),
    )
    .unwrap();
    assert!(
        (a - HEADLINE).abs() < 1e-8,
        "A(WS) = {a:.9} through the closed form"
    );

    uavail_faultinject::set_enabled(false);
    uavail_obs::set_enabled(false);
    let snap = uavail_obs::snapshot();
    assert!(snap.counter("travel.farm.pi_fallbacks") >= 1, "{snap:?}");
    assert!(snap.counter("faultinject.fired.markov.gth.mass_drift") >= 1);
    uavail_obs::reset();
}

#[test]
fn forced_singular_lu_is_a_typed_error_on_the_mttf_path() {
    let _guard = InjectionGuard::acquire();
    let params = TaParameters::paper_defaults();
    let clean = mean_time_to_web_down(&params).unwrap();
    uavail_faultinject::set_seed(9);
    uavail_faultinject::arm("singular", 1.0).unwrap();
    uavail_faultinject::set_enabled(true);

    // The mean time to web-service failure solves the Figure 10 chain's
    // hitting-time system by LU, which reports the injected singularity:
    // a typed Markov error, not a panic and not a number.
    let faulted = mean_time_to_web_down(&params);
    assert!(
        matches!(faulted, Err(TravelError::Markov(_))),
        "expected a typed Markov error, got {faulted:?}"
    );

    // Disarming restores the exact value.
    uavail_faultinject::reset();
    let healed = mean_time_to_web_down(&params).unwrap();
    assert_eq!(clean.to_bits(), healed.to_bits());
}

#[test]
fn corrupted_queue_parameters_surface_as_typed_errors() {
    let _guard = InjectionGuard::acquire();
    uavail_faultinject::set_seed(11);
    uavail_faultinject::arm("mmck", 1.0).unwrap();
    uavail_faultinject::set_enabled(true);

    // Every M/M/c/K construction sees a NaN arrival rate; the satellite
    // validation rejects it before any arithmetic runs.
    let err = redundant_imperfect_availability(&TaParameters::paper_defaults());
    assert!(
        matches!(err, Err(TravelError::Queueing(_))),
        "expected a typed queueing error, got {err:?}"
    );

    // The resilient sweep turns the same corruption into per-point typed
    // failures without losing the unaffected points (there are none here
    // — every point needs the queueing model — so the report is all
    // failures, and still no abort).
    let fig = figure12_report();
    assert_eq!(fig.points.len() + fig.failures.len(), 90);
    assert!(!fig.failures.is_empty());
    for failure in &fig.failures {
        assert!(matches!(
            failure.error,
            TravelError::Queueing(_) | TravelError::Core(_)
        ));
    }
}

#[test]
fn poisoned_loss_probabilities_are_rejected_not_propagated() {
    let _guard = InjectionGuard::acquire();
    let clean = headline_availability();
    uavail_faultinject::set_seed(13);
    uavail_faultinject::arm("loss", 1.0).unwrap();
    uavail_faultinject::set_enabled(true);

    // Every p_K(i) of equation (3) comes out NaN. The composite's
    // probability validation rejects the first one as a typed error on
    // every evaluation path, instead of propagating it into a result.
    let params = TaParameters::paper_defaults();
    for (path, result) in [
        ("allocating", redundant_imperfect_availability(&params)),
        (
            "context",
            redundant_imperfect_availability_with(&params, &mut EvalContext::new()),
        ),
        ("perfect coverage", redundant_perfect_availability(&params)),
    ] {
        assert!(
            matches!(
                result,
                Err(TravelError::Core(CoreError::InvalidProbability { .. }))
            ),
            "{path}: expected typed rejection of the poisoned loss, got {result:?}"
        );
    }

    // Disarming restores the headline bits: nothing poisoned was kept.
    uavail_faultinject::reset();
    let healed = headline_availability();
    assert_eq!(clean.to_bits(), healed.to_bits());
}

#[test]
fn poisoned_figure_sweep_reports_the_same_at_every_thread_count() {
    let _guard = InjectionGuard::acquire();
    uavail_faultinject::arm("loss", 1.0).unwrap();
    uavail_faultinject::set_enabled(true);

    // Which points fail must not depend on which worker ran first: every
    // point needs equation (3), so every point fails, in grid order, at
    // any thread count.
    let report = |threads: usize| {
        let exec = Exec {
            threads,
            on_failure: OnFailure::Report,
        };
        figure_sweep(Coverage::Imperfect, &exec).expect("a reporting sweep never fails")
    };
    let serial = report(1);
    assert!(
        serial.points.is_empty(),
        "{} points survived",
        serial.points.len()
    );
    assert_eq!(serial.failures.len(), 90);
    for (index, failure) in serial.failures.iter().enumerate() {
        assert_eq!(failure.index, index);
        assert!(
            matches!(
                failure.error,
                TravelError::Core(CoreError::InvalidProbability { .. })
            ),
            "untyped figure failure: {:?}",
            failure.error
        );
    }
    let parallel = report(4);
    assert_eq!(
        format!("{serial:?}"),
        format!("{parallel:?}"),
        "1 and 4 threads reported differently"
    );
}

#[test]
fn replication_drop_and_dup_reshape_the_schedule_deterministically() {
    let _guard = InjectionGuard::acquire();
    uavail_faultinject::set_seed(17);
    uavail_faultinject::arm("drop", 0.3).unwrap();
    uavail_faultinject::set_enabled(true);

    let run = |threads: usize| -> Vec<usize> {
        uavail_sim::replicate::replicate(
            99,
            64,
            threads,
            || (),
            |(), _rng, i| Ok::<usize, uavail_sim::SimError>(i),
        )
        .unwrap()
    };
    // Drops shrink the schedule; serial and parallel agree because the
    // schedule is decided on the calling thread.
    let serial = run(1);
    assert!(serial.len() < 64, "drop rate 0.3 dropped nothing in 64");
    let parallel = run(4);
    // Same thread key (calling thread), advancing counters — the two runs
    // see different invocations, so only structural properties are
    // comparable across runs; within a run, indices stay sorted unique.
    assert!(parallel.windows(2).all(|w| w[0] < w[1]));
    assert!(serial.windows(2).all(|w| w[0] < w[1]));

    uavail_faultinject::reset();
    uavail_faultinject::set_seed(19);
    uavail_faultinject::arm("dup", 0.3).unwrap();
    uavail_faultinject::set_enabled(true);
    let duped = uavail_sim::replicate::replicate(
        7,
        64,
        1,
        || (),
        |(), _rng, i| Ok::<usize, uavail_sim::SimError>(i),
    )
    .unwrap();
    assert!(duped.len() > 64, "dup rate 0.3 duplicated nothing in 64");
}

#[test]
fn replicated_validators_reject_a_fully_dropped_schedule() {
    use uavail_sim::SimError;
    use uavail_travel::session_sim::simulate_user_availability;
    use uavail_travel::sim_validation::{compressed_parameters, validate_web_service};
    use uavail_travel::user::class_a;
    use uavail_travel::Architecture;

    let _guard = InjectionGuard::acquire();
    uavail_faultinject::arm("drop", 1.0).unwrap();
    uavail_faultinject::set_enabled(true);
    // Every replication dropped is no evidence: a typed error, never an
    // agreeing report built from zero requests or an index panic.
    for threads in [1, 4] {
        let report = validate_web_service(&compressed_parameters(), 100.0, 1, 32, threads);
        assert!(
            matches!(report, Err(TravelError::Sim(SimError::NoObservations))),
            "threads={threads}: {report:?}"
        );
        let sessions = simulate_user_availability(
            1,
            &class_a(),
            &TaParameters::paper_defaults(),
            Architecture::paper_reference(),
            100,
            4,
            threads,
        );
        assert!(
            matches!(sessions, Err(TravelError::Sim(SimError::NoObservations))),
            "threads={threads}: {sessions:?}"
        );
    }
}

#[test]
fn streaming_validator_folds_a_dropped_or_duplicated_schedule() {
    use uavail_travel::sim_validation::{compressed_parameters, validate_web_service};

    let _guard = InjectionGuard::acquire();
    // The batch partition follows the observations the schedule produced,
    // never the 32 requested: fewer under drops, more under duplicates.
    for (site, rate) in [("drop", 0.5), ("dup", 0.3)] {
        uavail_faultinject::reset();
        uavail_faultinject::set_seed(1);
        uavail_faultinject::arm(site, rate).unwrap();
        uavail_faultinject::set_enabled(true);
        for threads in [1, 4] {
            let report = validate_web_service(&compressed_parameters(), 1_000.0, 1, 32, threads)
                .unwrap_or_else(|e| panic!("{site} threads={threads}: {e}"));
            let folded = report.replications;
            match site {
                "drop" => assert!(folded < 32, "threads={threads}: {folded}"),
                _ => assert!(folded > 32, "threads={threads}: {folded}"),
            }
            assert_eq!(
                report.batches,
                folded.clamp(1, 10),
                "{site} threads={threads}"
            );
            assert_eq!(report.batch_stats.count(), report.batches as u64);
            let simulated = report.simulated_unavailability;
            assert!(
                simulated.is_finite() && (0.0..=1.0).contains(&simulated),
                "{site} threads={threads}: {simulated}"
            );
        }
    }
}
