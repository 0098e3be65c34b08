//! Parameter-sweep utilities.
//!
//! Every figure in the paper's evaluation section is a parameter sweep
//! (web-server count, failure rate, arrival rate, number of reservation
//! systems). This module provides small, composable helpers for generating
//! sweep grids and running them over arbitrary models.
//!
//! There is one sweep driver. How it runs — serially or on worker
//! threads, aborting at the first failure or reporting every failing
//! point — is an [`Exec`] value, never a different function, and no
//! option changes a result's bits.

use crate::par::{par_map, Exec, OnFailure};
use crate::CoreError;

/// A single point of a sweep: the swept value and the measured output.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SweepPoint {
    /// The swept parameter value.
    pub x: f64,
    /// The measured output.
    pub y: f64,
}

/// Wraps a model error with the sweep point it occurred at, so a failure
/// deep inside a 90-point figure sweep names the offending `x`.
fn at_sweep_point(x: f64, source: CoreError) -> CoreError {
    CoreError::EvalAt {
        context: format!("sweep point x = {x}"),
        source: Box::new(source),
    }
}

/// Runs `f` over the given parameter values on `exec`, collecting the
/// `(x, f(x))` points into a [`SweepReport`].
///
/// Each worker thread builds one private workspace via `make` and reuses
/// it for every point it claims (a serial run uses one), so per-point
/// scratch — matrices, distribution buffers — is allocated once per
/// thread. The workspace must only provide reusable storage, never
/// influence the result; then the points are bit-for-bit the same for any
/// thread count. The closure is `Fn + Sync` because it is shared across
/// threads; model evaluations in this workspace are pure, so this is not
/// restrictive in practice.
///
/// Under [`OnFailure::Report`] every point is evaluated, a failing point
/// (including a caught panic) becomes a [`SweepFailure`], and the
/// `core.sweep.resilient.{points,failures}` counters record the split.
///
/// # Errors
///
/// Under [`OnFailure::Abort`], the error at the lowest failing value —
/// the one a serial loop would hit first — wrapped in
/// [`CoreError::EvalAt`] naming that value (a caught panic surfaces as
/// [`CoreError::WorkerPanicked`]). Under `Report` the sweep never fails.
///
/// # Examples
///
/// ```
/// use uavail_core::par::Exec;
/// use uavail_core::sweep::sweep;
///
/// # fn main() -> Result<(), uavail_core::CoreError> {
/// let report = sweep(&[1.0, 2.0, 3.0], &Exec::serial(), || (), |(), x| Ok(x * x))?;
/// assert_eq!(report.points[2].y, 9.0);
///
/// // Any thread count gives the same points, bit for bit.
/// let xs: Vec<f64> = (1..=100).map(f64::from).collect();
/// let f = |_: &mut (), x: f64| Ok(1.0 / (1.0 + x));
/// assert_eq!(
///     sweep(&xs, &Exec::parallel(), || (), f)?,
///     sweep(&xs, &Exec::serial(), || (), f)?
/// );
/// # Ok(())
/// # }
/// ```
pub fn sweep<W>(
    values: &[f64],
    exec: &Exec,
    make: impl Fn() -> W + Sync,
    f: impl Fn(&mut W, f64) -> Result<f64, CoreError> + Sync,
) -> Result<SweepReport, CoreError> {
    let _span = uavail_obs::span("core.sweep");
    uavail_obs::counter_add("core.sweep.points", values.len() as u64);
    let outcomes = par_map(values, exec, make, |workspace, &x| {
        // A flat stopwatch, not a span: worker threads carry no span
        // context, and the histogram keys serial and parallel runs alike.
        let _point = uavail_obs::Stopwatch::start("core.sweep.point_ns");
        f(workspace, x).map_err(|e| at_sweep_point(x, e))
    });
    let mut report = SweepReport::default();
    for (index, (&x, outcome)) in values.iter().zip(outcomes).enumerate() {
        match outcome {
            Ok(y) => report.points.push(SweepPoint { x, y }),
            Err(error) if exec.on_failure == OnFailure::Abort => return Err(error),
            Err(error) => report.failures.push(SweepFailure { index, x, error }),
        }
    }
    if exec.on_failure == OnFailure::Report {
        // Recorded unconditionally (a zero is still a record), so a
        // metrics artifact always shows whether the reporting path ran.
        uavail_obs::counter_add("core.sweep.resilient.points", report.points.len() as u64);
        uavail_obs::counter_add(
            "core.sweep.resilient.failures",
            report.failures.len() as u64,
        );
    }
    Ok(report)
}

/// One failed point of a reporting sweep: where it failed and why.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepFailure {
    /// Index of the failing value in the swept slice.
    pub index: usize,
    /// The swept parameter value at which evaluation failed.
    pub x: f64,
    /// The failure, already wrapped in [`CoreError::EvalAt`] (or a
    /// [`CoreError::WorkerPanicked`] for a caught panic).
    pub error: CoreError,
}

/// Outcome of a sweep: every point that evaluated successfully plus a
/// typed record of every point that did not.
///
/// Under [`OnFailure::Report`] a sweep degrades gracefully — the paper's
/// own coverage argument applied to the evaluation stack: a fault at one
/// point must not take down the whole study. Under [`OnFailure::Abort`]
/// `failures` is always empty.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct SweepReport {
    /// Successfully evaluated points, in input order.
    pub points: Vec<SweepPoint>,
    /// Failed points, in input order.
    pub failures: Vec<SweepFailure>,
}

impl SweepReport {
    /// `true` when every point evaluated successfully.
    pub fn is_complete(&self) -> bool {
        self.failures.is_empty()
    }
}

/// Logarithmically spaced grid from `start` to `end` (inclusive), the
/// natural axis for failure-rate sweeps like the paper's
/// `λ ∈ {10⁻², 10⁻³, 10⁻⁴}`.
///
/// # Errors
///
/// [`CoreError::BadWeights`] (domain reuse) when endpoints are
/// non-positive or `points < 2`.
pub fn log_grid(start: f64, end: f64, points: usize) -> Result<Vec<f64>, CoreError> {
    if !(start.is_finite() && end.is_finite() && start > 0.0 && end > 0.0) {
        return Err(CoreError::BadWeights {
            reason: format!("log grid endpoints must be positive, got {start}..{end}"),
        });
    }
    if points < 2 {
        return Err(CoreError::BadWeights {
            reason: "log grid needs at least 2 points".into(),
        });
    }
    let (ls, le) = (start.ln(), end.ln());
    Ok((0..points)
        .map(|i| (ls + (le - ls) * i as f64 / (points - 1) as f64).exp())
        .collect())
}

/// Linearly spaced grid from `start` to `end` (inclusive).
///
/// # Errors
///
/// [`CoreError::BadWeights`] when `points < 2` or the endpoints are not
/// finite.
pub fn linear_grid(start: f64, end: f64, points: usize) -> Result<Vec<f64>, CoreError> {
    if !(start.is_finite() && end.is_finite()) {
        return Err(CoreError::BadWeights {
            reason: "linear grid endpoints must be finite".into(),
        });
    }
    if points < 2 {
        return Err(CoreError::BadWeights {
            reason: "linear grid needs at least 2 points".into(),
        });
    }
    Ok((0..points)
        .map(|i| start + (end - start) * i as f64 / (points - 1) as f64)
        .collect())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn exec(threads: usize, on_failure: OnFailure) -> Exec {
        Exec {
            threads,
            on_failure,
        }
    }

    /// A workspace-free sweep of `f` on `threads` threads.
    fn plain(
        values: &[f64],
        threads: usize,
        on_failure: OnFailure,
        f: impl Fn(f64) -> Result<f64, CoreError> + Sync,
    ) -> Result<SweepReport, CoreError> {
        sweep(values, &exec(threads, on_failure), || (), |(), x| f(x))
    }

    fn serial(
        values: &[f64],
        f: impl Fn(f64) -> Result<f64, CoreError> + Sync,
    ) -> Result<Vec<SweepPoint>, CoreError> {
        plain(values, 1, OnFailure::Abort, f).map(|r| r.points)
    }

    #[test]
    fn sweep_collects_points() {
        let pts = serial(&[0.0, 0.5, 1.0], |x| Ok(1.0 - x)).unwrap();
        assert_eq!(pts.len(), 3);
        assert_eq!(pts[1], SweepPoint { x: 0.5, y: 0.5 });
    }

    #[test]
    fn sweep_propagates_errors() {
        let result = serial(&[1.0], |_| {
            Err(CoreError::BadWeights {
                reason: "boom".into(),
            })
        });
        assert!(result.is_err());
    }

    #[test]
    fn sweep_error_names_failing_point() {
        let err = serial(&[1.0, 2.5, 3.0], |x| {
            if x > 2.0 {
                Err(CoreError::BadWeights {
                    reason: "boom".into(),
                })
            } else {
                Ok(x)
            }
        })
        .unwrap_err();
        let text = err.to_string();
        assert!(text.contains("2.5"), "{text}");
        assert!(text.contains("boom"), "{text}");
    }

    #[test]
    fn parallel_sweep_matches_serial_including_errors() {
        let xs: Vec<f64> = (0..200).map(|i| 0.01 + i as f64 * 0.005).collect();
        let f = |x: f64| -> Result<f64, CoreError> {
            if x > 0.9 {
                Err(CoreError::InvalidProbability {
                    context: "test".into(),
                    value: x,
                })
            } else {
                Ok((1.0 - x).powi(3) / (1.0 + x))
            }
        };
        let serial_err = serial(&xs[..180], f).unwrap_err();
        let ok_serial = serial(&xs[..170], f).unwrap();
        for threads in [1, 2, 7] {
            let ok_parallel = plain(&xs[..170], threads, OnFailure::Abort, f).unwrap();
            assert!(ok_parallel.is_complete());
            assert_eq!(ok_serial, ok_parallel.points, "threads={threads}");
            let parallel_err = plain(&xs[..180], threads, OnFailure::Abort, f).unwrap_err();
            assert_eq!(serial_err, parallel_err, "threads={threads}");
        }
    }

    #[test]
    fn workspace_sweeps_match_plain_sweeps_bit_for_bit() {
        let xs: Vec<f64> = (0..150).map(|i| 0.01 + i as f64 * 0.006).collect();
        let expected = serial(&xs, |x| Ok((1.0 - x).powi(3) / (1.0 + x))).unwrap();
        let with_ws = |buf: &mut Vec<f64>, x: f64| -> Result<f64, CoreError> {
            buf.clear();
            buf.push((1.0 - x).powi(3));
            Ok(buf[0] / (1.0 + x))
        };
        for threads in [1, 2, 7] {
            for on_failure in [OnFailure::Abort, OnFailure::Report] {
                let report = sweep(&xs, &exec(threads, on_failure), Vec::new, with_ws).unwrap();
                assert_eq!(expected, report.points, "threads={threads}");
            }
        }
    }

    #[test]
    fn workspace_sweep_error_names_failing_point() {
        let err = sweep(
            &[1.0, 2.5],
            &Exec::serial(),
            || 0u8,
            |_, x| {
                Err(CoreError::BadWeights {
                    reason: format!("boom at {x}"),
                })
            },
        )
        .unwrap_err();
        assert!(err.to_string().contains("x = 1"), "{err}");
    }

    #[test]
    fn resilient_sweep_keeps_partial_results_and_typed_failures() {
        let xs: Vec<f64> = (0..100).map(|i| i as f64).collect();
        let f = |x: f64| -> Result<f64, CoreError> {
            if (x as usize) % 25 == 7 {
                Err(CoreError::BadWeights {
                    reason: format!("bad at {x}"),
                })
            } else {
                Ok(x * 2.0)
            }
        };
        let report = plain(&xs, 1, OnFailure::Report, f).unwrap();
        assert_eq!(report.points.len(), 96);
        assert_eq!(report.failures.len(), 4);
        assert!(!report.is_complete());
        assert_eq!(report.failures[0].index, 7);
        assert_eq!(report.failures[1].x, 32.0);
        assert!(matches!(report.failures[0].error, CoreError::EvalAt { .. }));
        for threads in [2, 8] {
            assert_eq!(
                report,
                plain(&xs, threads, OnFailure::Report, f).unwrap(),
                "threads={threads}"
            );
        }
    }

    #[test]
    fn resilient_sweep_catches_panics_without_aborting() {
        let xs: Vec<f64> = (0..60).map(|i| i as f64).collect();
        let f = |x: f64| -> Result<f64, CoreError> {
            if x as usize == 41 {
                panic!("model blew up at {x}");
            }
            Ok(1.0 / (1.0 + x))
        };
        for threads in [1, 4] {
            let report = plain(&xs, threads, OnFailure::Report, f).unwrap();
            assert_eq!(report.points.len(), 59, "threads={threads}");
            assert_eq!(report.failures.len(), 1);
            assert_eq!(
                report.failures[0].error,
                CoreError::WorkerPanicked {
                    index: 41,
                    payload: "model blew up at 41".into()
                }
            );
        }
    }

    #[test]
    fn resilient_success_points_match_plain_sweep_bit_for_bit() {
        let xs: Vec<f64> = (0..90).map(|i| 0.01 + i as f64 * 0.01).collect();
        let f = |x: f64| -> Result<f64, CoreError> { Ok((1.0 - x).powi(3) / (1.0 + x)) };
        let expected = serial(&xs, f).unwrap();
        let report = plain(&xs, 4, OnFailure::Report, f).unwrap();
        assert!(report.is_complete());
        assert_eq!(expected.len(), report.points.len());
        for (a, b) in expected.iter().zip(&report.points) {
            assert_eq!(a.y.to_bits(), b.y.to_bits());
        }
    }

    #[test]
    fn log_grid_endpoints_and_spacing() {
        let g = log_grid(1e-4, 1e-2, 3).unwrap();
        assert!((g[0] - 1e-4).abs() < 1e-18);
        assert!((g[1] - 1e-3).abs() < 1e-12);
        assert!((g[2] - 1e-2).abs() < 1e-12);
        assert!(log_grid(0.0, 1.0, 3).is_err());
        assert!(log_grid(1.0, 2.0, 1).is_err());
    }

    #[test]
    fn linear_grid_endpoints() {
        let g = linear_grid(0.0, 10.0, 5).unwrap();
        assert_eq!(g, vec![0.0, 2.5, 5.0, 7.5, 10.0]);
        assert!(linear_grid(f64::NAN, 1.0, 2).is_err());
        assert!(linear_grid(0.0, 1.0, 0).is_err());
    }
}
