//! Order-preserving parallel map and fold on `std::thread::scope`.
//!
//! The evaluation workloads in this workspace — figure sweeps and
//! Monte-Carlo replications — are embarrassingly parallel maps
//! over independent points. This module provides the two primitives they
//! share, both built on scoped threads so they need no external
//! dependencies and no `'static` bounds on the closure or its captures:
//!
//! * [`par_map`], a chunked, work-stealing map that returns one outcome
//!   per item in input order. How it runs is data, not a choice of
//!   function: an [`Exec`] names the worker-thread cap and the
//!   [`OnFailure`] policy (abort at the first failure, or report every
//!   item's outcome).
//! * [`par_fold`], which streams the same ordered result sequence through
//!   a bounded ring into a fold on the calling thread, for reductions too
//!   large to materialize.
//!
//! # Determinism
//!
//! Each output slot is written from exactly one evaluation of `f` on the
//! corresponding input; thread scheduling only decides *when* a slot is
//! computed, never *what* is stored in it. So the outcomes are bit-for-bit
//! those of the serial loop for any thread count. Under
//! [`OnFailure::Abort`] the outcomes end right after the **lowest** failing
//! index — collecting them into a `Result<Vec<_>, _>` surfaces the same
//! error the serial loop would have, even when a later point happens to
//! fail first in wall-clock time.
//!
//! # Panic isolation
//!
//! A panicking closure does not tear the map down: every evaluation runs
//! under `catch_unwind`, and a caught panic becomes a typed error via
//! [`FromWorkerPanic`] carrying the input index and the panic payload, so
//! it participates in the same lowest-index-wins error semantics as an
//! ordinary `Err`. The serial path applies the same isolation, keeping
//! serial and parallel behavior identical. The `core.par.worker_panic`
//! injection site (see `uavail-faultinject`) can force such panics
//! deterministically to exercise this machinery.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Condvar, Mutex};

use crate::error::{panic_payload_text, FromWorkerPanic};

/// Upper bound on worker threads, from `std::thread::available_parallelism`.
///
/// Falls back to 1 when parallelism cannot be queried (the call is allowed
/// to fail on exotic platforms), which degrades to serial evaluation.
pub fn default_threads() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}

/// What a failing item does to the rest of a map, sweep or figure run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OnFailure {
    /// Stop at the first failure: serial first-error semantics.
    Abort,
    /// Evaluate every item and report each failure alongside the
    /// successes — graceful degradation instead of an aborted study.
    Report,
}

/// Execution options shared by every parallel entry point: how many
/// worker threads to use and what a failure does.
///
/// Options never change a result's bits — only how many items are
/// evaluated (under [`OnFailure::Abort`], nothing past the lowest failing
/// index is returned) and how fast.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Exec {
    /// Upper bound on worker threads. `threads <= 1` (or fewer than two
    /// items) runs serially on the calling thread and spawns nothing.
    pub threads: usize,
    /// What a failing item does to the rest of the run.
    pub on_failure: OnFailure,
}

impl Exec {
    /// One thread, abort at the first failure: the plain serial loop.
    pub const fn serial() -> Self {
        Exec {
            threads: 1,
            on_failure: OnFailure::Abort,
        }
    }

    /// [`default_threads`] workers, abort at the first failure.
    pub fn parallel() -> Self {
        Exec {
            threads: default_threads(),
            on_failure: OnFailure::Abort,
        }
    }
}

/// One panic-isolated evaluation: `f` runs under `catch_unwind`, a caught
/// panic becomes `E::from_worker_panic`, and the workspace — whose
/// invariants the unwound closure may have broken — is dropped and rebuilt
/// before the next item. The `core.par.worker_panic` injection site fires
/// *inside* the guarded region, so an injected panic exercises exactly the
/// recovery path a real one would.
fn eval_isolated<T, U, E: FromWorkerPanic, W>(
    workspace: &mut Option<W>,
    make: &impl Fn() -> W,
    f: &impl Fn(&mut W, &T) -> Result<U, E>,
    index: usize,
    item: &T,
) -> Result<U, E> {
    let ws = workspace.get_or_insert_with(make);
    match catch_unwind(AssertUnwindSafe(|| {
        if uavail_faultinject::fired("core.par.worker_panic") {
            panic!("injected worker panic at input index {index}");
        }
        f(ws, item)
    })) {
        Ok(result) => result,
        Err(payload) => {
            *workspace = None;
            Err(E::from_worker_panic(
                index,
                panic_payload_text(payload.as_ref()),
            ))
        }
    }
}

/// Maps `f` over `items` on up to `exec.threads` scoped worker threads,
/// returning one outcome per evaluated item, in input order.
///
/// Work is distributed in contiguous chunks claimed from an atomic
/// counter, so threads that finish early steal the remaining chunks. Each
/// worker gets a private workspace from `make`, created on the worker
/// thread (so `W` needs neither `Send` nor `Sync`) and reused across every
/// item it evaluates; the serial path uses a single workspace. The
/// workspace must only provide reusable storage, never influence results.
///
/// # Failures
///
/// Under [`OnFailure::Report`] every item is evaluated and the output has
/// exactly `items.len()` outcomes. Under [`OnFailure::Abort`] workers stop
/// claiming chunks once any item fails, and the output is truncated right
/// after the **lowest** failing index: chunks are claimed in increasing
/// index order and every claimed chunk runs to completion, so every index
/// below it was evaluated — exactly what the serial loop, which stops at
/// its first failure, would have seen. Collecting into
/// `Result<Vec<U>, E>` therefore gives serial first-error semantics.
pub fn par_map<T, U, E, W, M, F>(items: &[T], exec: &Exec, make: M, f: F) -> Vec<Result<U, E>>
where
    T: Sync,
    U: Send,
    E: Send + FromWorkerPanic,
    M: Fn() -> W + Sync,
    F: Fn(&mut W, &T) -> Result<U, E> + Sync,
{
    let n = items.len();
    let threads = exec.threads.clamp(1, n.max(1));
    let abort = exec.on_failure == OnFailure::Abort;
    let mut out = Vec::with_capacity(n);
    if threads <= 1 || n < 2 {
        let mut workspace = Some(make());
        for (i, item) in items.iter().enumerate() {
            let result = eval_isolated(&mut workspace, &make, &f, i, item);
            let stop = abort && result.is_err();
            out.push(result);
            if stop {
                break;
            }
        }
        return out;
    }

    // Several short chunks per thread so an expensive tail point cannot
    // serialize the whole sweep behind one worker.
    let chunk = n.div_ceil(threads * 4).max(1);
    let next = AtomicUsize::new(0);
    let failed = AtomicBool::new(false);
    let slots: Vec<Mutex<Option<Result<U, E>>>> = (0..n).map(|_| Mutex::new(None)).collect();

    std::thread::scope(|scope| {
        for worker in 0..threads {
            let (next, failed, slots, make, f) = (&next, &failed, &slots, &make, &f);
            scope.spawn(move || {
                {
                    // One trace span per worker lifetime, plus one per
                    // claimed chunk, so Perfetto shows utilization and
                    // work stealing.
                    let _worker_span = uavail_obs::TraceSpan::enter_with_arg(
                        "par.worker",
                        "worker",
                        worker as f64,
                    );
                    let mut workspace = None;
                    loop {
                        let start = next.fetch_add(chunk, Ordering::Relaxed);
                        if start >= n || failed.load(Ordering::Relaxed) {
                            break;
                        }
                        let _chunk_span = uavail_obs::TraceSpan::enter_with_arg(
                            "par.chunk",
                            "start",
                            start as f64,
                        );
                        let end = (start + chunk).min(n);
                        for (i, item) in items.iter().enumerate().take(end).skip(start) {
                            let result = eval_isolated(&mut workspace, make, f, i, item);
                            if abort && result.is_err() {
                                failed.store(true, Ordering::Relaxed);
                            }
                            *slots[i].lock().expect("no poisoned slot") = Some(result);
                        }
                    }
                }
                // Scope join returns when this closure does, *before* this
                // thread's TLS destructors flush its trace ring — flush
                // explicitly so `take_trace` after the join sees this
                // worker's events.
                uavail_obs::trace::flush_current_thread();
            });
        }
    });

    for slot in slots {
        // A hole can only sit above the lowest failing index (chunks are
        // claimed in order; holes come from chunks skipped under `Abort`),
        // so the loop has always stopped before reaching one.
        let result = slot
            .into_inner()
            .expect("no poisoned slot")
            .expect("unevaluated slot without a preceding failure");
        let stop = abort && result.is_err();
        out.push(result);
        if stop {
            break;
        }
    }
    out
}

/// Streaming ordered reduction: maps `f` over `items` on up to `threads`
/// workers and folds every result into `init` **in input order** on the
/// calling thread, without ever materializing the full output vector.
///
/// This is the reducer under high-volume Monte-Carlo replication: workers
/// write completed results into a bounded ring (a fixed window of slots,
/// sized from the chunk geometry), and the calling thread drains the ring
/// in index order, folding each value and freeing its slot. A worker that
/// runs ahead of the consumer by more than the window blocks until the
/// consumer catches up, so peak memory is `O(threads)` results regardless
/// of `items.len()`.
///
/// # Determinism
///
/// The fold sees exactly the sequence `f(ws, &items[0]), f(ws, &items[1]),
/// …` — the same sequence the serial loop would produce — so for any
/// `fold` the final accumulator is bit-for-bit identical across thread
/// counts, including `threads <= 1` (which runs serially on the calling
/// thread with a single workspace and no ring).
///
/// Each worker gets a private workspace from `make`, created on the worker
/// thread and reused across every item that worker evaluates, exactly as
/// in [`par_map`]; the workspace must not influence results.
///
/// # Errors
///
/// The consumer folds in index order and stops at the first `Err` it
/// meets, so the error at the **lowest** failing input index is returned —
/// serial first-error semantics. All indices below it were evaluated and
/// folded; results above it are discarded. Panicking evaluations become
/// typed errors via [`FromWorkerPanic`] and compete on index like ordinary
/// errors. A fold has nothing to report a failure into, so it always
/// aborts and takes a plain thread cap rather than an [`Exec`].
pub fn par_fold<T, U, E, W, A, M, F, G>(
    items: &[T],
    threads: usize,
    make: M,
    f: F,
    init: A,
    mut fold: G,
) -> Result<A, E>
where
    T: Sync,
    U: Send,
    E: Send + FromWorkerPanic,
    M: Fn() -> W + Sync,
    F: Fn(&mut W, &T) -> Result<U, E> + Sync,
    G: FnMut(&mut A, U),
{
    let n = items.len();
    let threads = threads.clamp(1, n.max(1));
    if threads <= 1 || n < 2 {
        let mut workspace = Some(make());
        let mut acc = init;
        for (i, item) in items.iter().enumerate() {
            fold(&mut acc, eval_isolated(&mut workspace, &make, &f, i, item)?);
        }
        return Ok(acc);
    }

    let chunk = n.div_ceil(threads * 4).max(1);
    // The window must let every worker hold one full in-flight chunk ahead
    // of the consumer; one extra chunk of slack keeps workers from
    // thrashing on the condvar at the boundary.
    let window = (chunk * (threads + 1)).min(n);
    let next = AtomicUsize::new(0);
    struct Ring<U, E> {
        slots: Vec<Option<Result<U, E>>>,
        /// Next index the consumer will fold; slot `i` may be written only
        /// once `i - consumed < window`.
        consumed: usize,
        /// Set by the consumer on first error so blocked workers bail out.
        failed: bool,
    }
    let ring = Mutex::new(Ring::<U, E> {
        slots: (0..window).map(|_| None).collect(),
        consumed: 0,
        failed: false,
    });
    let space = Condvar::new();
    let ready = Condvar::new();

    std::thread::scope(|scope| {
        for worker in 0..threads {
            let (next, ring, space, ready, make, f) = (&next, &ring, &space, &ready, &make, &f);
            scope.spawn(move || {
                {
                    let _worker_span = uavail_obs::TraceSpan::enter_with_arg(
                        "par.worker",
                        "worker",
                        worker as f64,
                    );
                    let mut workspace = None;
                    'claims: loop {
                        let start = next.fetch_add(chunk, Ordering::Relaxed);
                        if start >= n || ring.lock().expect("no poisoned ring").failed {
                            break;
                        }
                        let _chunk_span = uavail_obs::TraceSpan::enter_with_arg(
                            "par.chunk",
                            "start",
                            start as f64,
                        );
                        let end = (start + chunk).min(n);
                        for (i, item) in items.iter().enumerate().take(end).skip(start) {
                            let result = eval_isolated(&mut workspace, make, f, i, item);
                            let mut st = ring.lock().expect("no poisoned ring");
                            while !st.failed && i >= st.consumed + window {
                                st = space.wait(st).expect("no poisoned ring");
                            }
                            if st.failed {
                                break 'claims;
                            }
                            st.slots[i % window] = Some(result);
                            drop(st);
                            ready.notify_all();
                        }
                    }
                }
                // See par_map: flush this worker's trace ring
                // before the scope join observes the closure returning.
                uavail_obs::trace::flush_current_thread();
            });
        }

        // The calling thread is the consumer: fold strictly in index
        // order, freeing each slot as it goes.
        let mut acc = init;
        for i in 0..n {
            let mut st = ring.lock().expect("no poisoned ring");
            let value = loop {
                match st.slots[i % window].take() {
                    Some(result) => break result,
                    None => st = ready.wait(st).expect("no poisoned ring"),
                }
            };
            st.consumed = i + 1;
            match value {
                Ok(value) => {
                    drop(st);
                    space.notify_all();
                    fold(&mut acc, value);
                }
                Err(e) => {
                    // First error met in index order is the lowest failing
                    // index. Release every blocked worker so the scope can
                    // join, then surface it.
                    st.failed = true;
                    drop(st);
                    space.notify_all();
                    return Err(e);
                }
            }
        }
        Ok(acc)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::CoreError;

    fn abort(threads: usize) -> Exec {
        Exec {
            threads,
            on_failure: OnFailure::Abort,
        }
    }

    /// `par_map` without a workspace, collected with first-error semantics.
    fn map<T: Sync, U: Send>(
        items: &[T],
        threads: usize,
        f: impl Fn(&T) -> Result<U, CoreError> + Sync,
    ) -> Result<Vec<U>, CoreError> {
        par_map(items, &abort(threads), || (), |(), x| f(x))
            .into_iter()
            .collect()
    }

    #[test]
    fn matches_serial_map_bit_for_bit() {
        let items: Vec<f64> = (0..997).map(|i| i as f64 * 0.37).collect();
        let f = |x: &f64| -> Result<f64, CoreError> { Ok((x.sin() * 1e3).exp().ln_1p()) };
        let serial: Vec<f64> = items.iter().map(f).collect::<Result<_, _>>().unwrap();
        for threads in [1, 2, 3, 8] {
            let parallel = map(&items, threads, f).unwrap();
            assert_eq!(serial.len(), parallel.len());
            for (s, p) in serial.iter().zip(&parallel) {
                assert_eq!(s.to_bits(), p.to_bits(), "threads={threads}");
            }
        }
    }

    #[test]
    fn lowest_index_error_wins() {
        let items: Vec<usize> = (0..500).collect();
        let f = |&i: &usize| -> Result<usize, CoreError> {
            if i % 100 == 37 {
                Err(CoreError::Undefined {
                    name: format!("item-{i}"),
                })
            } else {
                Ok(i)
            }
        };
        for threads in [1, 4, 16] {
            let outcomes = par_map(&items, &abort(threads), || (), |(), i| f(i));
            // Truncated right after the lowest failing index.
            assert_eq!(outcomes.len(), 38, "threads={threads}");
            let err = outcomes.into_iter().collect::<Result<Vec<_>, _>>();
            assert_eq!(
                err.unwrap_err(),
                CoreError::Undefined {
                    name: "item-37".into()
                },
                "threads={threads}"
            );
        }
    }

    #[test]
    fn empty_and_single_inputs() {
        let none: Vec<u32> = vec![];
        let out = map(&none, 4, |&x: &u32| Ok(x)).unwrap();
        assert!(out.is_empty());
        let one = map(&[5u32], 4, |&x| Ok(x * 2)).unwrap();
        assert_eq!(one, vec![10]);
    }

    #[test]
    fn oversubscribed_thread_count_is_clamped() {
        let items: Vec<usize> = (0..7).collect();
        let out = map(&items, 64, |&i| Ok(i + 1)).unwrap();
        assert_eq!(out, vec![1, 2, 3, 4, 5, 6, 7]);
    }

    #[test]
    fn default_threads_is_positive() {
        assert!(default_threads() >= 1);
        assert_eq!(Exec::parallel().threads, default_threads());
    }

    #[test]
    fn workspace_variant_matches_plain_map_bit_for_bit() {
        let items: Vec<f64> = (0..499).map(|i| i as f64 * 0.73).collect();
        let serial: Vec<f64> = items
            .iter()
            .map(|x| (x.cos() * 1e2).exp().ln_1p())
            .collect();
        for threads in [1, 2, 8] {
            let out = par_map(
                &items,
                &abort(threads),
                Vec::<f64>::new,
                |scratch: &mut Vec<f64>, x: &f64| -> Result<f64, CoreError> {
                    // Use the scratch buffer the way a real workspace
                    // would: fill and read it, then reuse next point.
                    scratch.clear();
                    scratch.push((x.cos() * 1e2).exp());
                    Ok(scratch[0].ln_1p())
                },
            );
            for (s, p) in serial.iter().zip(&out) {
                assert_eq!(
                    s.to_bits(),
                    p.as_ref().unwrap().to_bits(),
                    "threads={threads}"
                );
            }
        }
    }

    #[test]
    fn every_parallel_worker_emits_trace_events() {
        // `--trace` must show one lane per worker: each of the N spawned
        // workers opens a `par.worker` span on its own thread, so the
        // exported timeline has at least one event per worker and N
        // distinct worker ids. Concurrent tests may add their own events
        // to the shared sink — assertions are lower bounds on our names.
        let items: Vec<usize> = (0..64).collect();
        let threads = 4;
        uavail_obs::trace::reset();
        uavail_obs::set_trace_enabled(true);
        let out = map(&items, threads, |&i| Ok(i * 2)).unwrap();
        uavail_obs::set_trace_enabled(false);
        let data = uavail_obs::take_trace();
        assert_eq!(out[63], 126);
        let workers: Vec<&uavail_obs::TraceEvent> = data
            .events
            .iter()
            .filter(|e| e.name == "par.worker")
            .collect();
        let begins = workers
            .iter()
            .filter(|e| matches!(e.phase, uavail_obs::trace::TracePhase::Begin))
            .count();
        assert!(
            begins >= threads,
            "only {begins} worker spans for {threads} workers"
        );
        let tids: std::collections::BTreeSet<u64> = workers.iter().map(|e| e.tid).collect();
        assert!(tids.len() >= threads, "worker spans on {tids:?}");
        // Chunk spans carry their start index and the export is valid
        // Chrome-trace JSON.
        assert!(data.events.iter().any(|e| e.name == "par.chunk"));
        uavail_obs::trace::validate_chrome_trace(&data.to_chrome_trace()).unwrap();
    }

    #[test]
    fn panicking_closure_becomes_typed_error_on_serial_and_parallel_paths() {
        let items: Vec<usize> = (0..200).collect();
        let f = |&i: &usize| -> Result<usize, CoreError> {
            if i == 111 {
                panic!("worker died at {i}");
            }
            Ok(i)
        };
        for threads in [1, 4] {
            let err = map(&items, threads, f).unwrap_err();
            assert_eq!(
                err,
                CoreError::WorkerPanicked {
                    index: 111,
                    payload: "worker died at 111".into()
                },
                "threads={threads}"
            );
        }
    }

    #[test]
    fn lowest_index_wins_between_panic_and_error() {
        // An Err at index 40 must beat a panic at index 170 and vice
        // versa, exactly as two ordinary errors would compete.
        let items: Vec<usize> = (0..300).collect();
        let f = |&i: &usize| -> Result<usize, CoreError> {
            match i {
                40 => Err(CoreError::Undefined {
                    name: "first".into(),
                }),
                170 => panic!("later panic"),
                _ => Ok(i),
            }
        };
        for threads in [1, 8] {
            let err = map(&items, threads, f).unwrap_err();
            assert_eq!(
                err,
                CoreError::Undefined {
                    name: "first".into()
                },
                "threads={threads}"
            );
        }
        let g = |&i: &usize| -> Result<usize, CoreError> {
            match i {
                40 => panic!("first panic"),
                170 => Err(CoreError::Undefined {
                    name: "later".into(),
                }),
                _ => Ok(i),
            }
        };
        for threads in [1, 8] {
            let err = map(&items, threads, g).unwrap_err();
            assert_eq!(
                err,
                CoreError::WorkerPanicked {
                    index: 40,
                    payload: "first panic".into()
                },
                "threads={threads}"
            );
        }
    }

    #[test]
    fn workspace_is_rebuilt_after_a_panic() {
        // A panic mid-evaluation may leave the workspace inconsistent;
        // the next item on that worker must see a freshly built one.
        let items: Vec<usize> = (0..6).collect();
        let report = Exec {
            threads: 1,
            on_failure: OnFailure::Report,
        };
        let out = par_map(
            &items,
            &report,
            Vec::<usize>::new,
            |ws: &mut Vec<usize>, &i| -> Result<usize, CoreError> {
                ws.push(i);
                if i == 2 {
                    panic!("poisoned workspace");
                }
                Ok(ws.len())
            },
        );
        // Serial path: workspace grows 1, 2, 3 (panic), then restarts.
        assert!(matches!(
            out[2],
            Err(CoreError::WorkerPanicked { index: 2, .. })
        ));
        let after: Vec<usize> = out[3..].iter().map(|r| *r.as_ref().unwrap()).collect();
        assert_eq!(after, vec![1, 2, 3]);
        assert_eq!(out[..2], [Ok(1), Ok(2)]);
    }

    #[test]
    fn capture_variant_records_every_outcome_without_aborting() {
        // Under `OnFailure::Report`, errors *and* panics land in their own
        // slot; nothing is skipped and nothing unwinds out of the map.
        let items: Vec<usize> = (0..100).collect();
        let f = |&i: &usize| -> Result<usize, CoreError> {
            match i % 30 {
                7 => Err(CoreError::Undefined {
                    name: format!("item-{i}"),
                }),
                13 => panic!("boom at {i}"),
                _ => Ok(i * 2),
            }
        };
        for threads in [1, 4] {
            let exec = Exec {
                threads,
                on_failure: OnFailure::Report,
            };
            let out = par_map(&items, &exec, || (), |(), i| f(i));
            assert_eq!(out.len(), items.len(), "threads={threads}");
            for (i, outcome) in out.iter().enumerate() {
                match i % 30 {
                    7 => assert_eq!(
                        outcome,
                        &Err(CoreError::Undefined {
                            name: format!("item-{i}")
                        })
                    ),
                    13 => assert_eq!(
                        outcome,
                        &Err(CoreError::WorkerPanicked {
                            index: i,
                            payload: format!("boom at {i}"),
                        })
                    ),
                    _ => assert_eq!(outcome, &Ok(i * 2), "threads={threads} index={i}"),
                }
            }
        }
    }

    #[test]
    fn fold_matches_serial_fold_bit_for_bit() {
        // The ordered fold must reproduce the serial map-then-fold result
        // exactly, including for a non-commutative accumulator where any
        // reordering would change the bits.
        let items: Vec<f64> = (0..1213).map(|i| i as f64 * 0.41).collect();
        let f = |x: &f64| (x.sin() * 1e3).exp().ln_1p();
        let mut serial = 0.0f64;
        for x in &items {
            serial = serial * 0.875 + f(x);
        }
        for threads in [1, 2, 3, 8] {
            let folded = par_fold(
                &items,
                threads,
                || (),
                |(), x| Ok::<_, CoreError>(f(x)),
                0.0f64,
                |acc, v| *acc = *acc * 0.875 + v,
            )
            .unwrap();
            assert_eq!(serial.to_bits(), folded.to_bits(), "threads={threads}");
        }
    }

    #[test]
    fn fold_lowest_index_error_wins_and_prefix_is_folded() {
        let items: Vec<usize> = (0..500).collect();
        let f = |_ws: &mut (), &i: &usize| -> Result<usize, CoreError> {
            if i % 100 == 61 {
                Err(CoreError::Undefined {
                    name: format!("item-{i}"),
                })
            } else {
                Ok(i)
            }
        };
        for threads in [1, 4, 16] {
            let mut seen = Vec::new();
            let err = par_fold(&items, threads, || (), f, (), |(), i| seen.push(i)).unwrap_err();
            assert_eq!(
                err,
                CoreError::Undefined {
                    name: "item-61".into()
                },
                "threads={threads}"
            );
            // Exactly the items below the failing index were folded, in order.
            assert_eq!(seen, (0..61).collect::<Vec<_>>(), "threads={threads}");
        }
    }

    #[test]
    fn fold_panic_becomes_typed_error() {
        let items: Vec<usize> = (0..300).collect();
        for threads in [1, 4] {
            let err = par_fold(
                &items,
                threads,
                || (),
                |(), &i| -> Result<usize, CoreError> {
                    if i == 123 {
                        panic!("fold worker died at {i}");
                    }
                    Ok(i)
                },
                0usize,
                |acc, i| *acc += i,
            )
            .unwrap_err();
            assert_eq!(
                err,
                CoreError::WorkerPanicked {
                    index: 123,
                    payload: "fold worker died at 123".into()
                },
                "threads={threads}"
            );
        }
    }

    #[test]
    fn fold_empty_and_single_inputs() {
        let none: Vec<u32> = vec![];
        let sum = par_fold(
            &none,
            4,
            || (),
            |(), &x| Ok::<_, CoreError>(x),
            0u32,
            |acc, x| *acc += x,
        )
        .unwrap();
        assert_eq!(sum, 0);
        let one = par_fold(
            &[5u32],
            4,
            || (),
            |(), &x| Ok::<_, CoreError>(x * 2),
            0u32,
            |acc, x| *acc += x,
        )
        .unwrap();
        assert_eq!(one, 10);
    }

    #[test]
    fn fold_workspace_is_reused_across_items() {
        // Count workspace constructions: with `threads` workers at most
        // `threads` workspaces exist over the whole fold, however many
        // items pass through.
        use std::sync::atomic::AtomicUsize;
        let built = AtomicUsize::new(0);
        let items: Vec<usize> = (0..4000).collect();
        let threads = 3;
        let total = par_fold(
            &items,
            threads,
            || {
                built.fetch_add(1, Ordering::Relaxed);
                Vec::<usize>::with_capacity(8)
            },
            |ws, &i| -> Result<usize, CoreError> {
                ws.clear();
                ws.push(i);
                Ok(ws[0])
            },
            0usize,
            |acc, i| *acc += i,
        )
        .unwrap();
        assert_eq!(total, items.iter().sum::<usize>());
        assert!(
            built.load(Ordering::Relaxed) <= threads,
            "workspaces rebuilt per item"
        );
    }

    #[test]
    fn workspace_variant_keeps_lowest_index_error() {
        let items: Vec<usize> = (0..300).collect();
        for threads in [1, 4] {
            let err = par_map(
                &items,
                &abort(threads),
                || 0u32,
                |_ws, &i| -> Result<usize, CoreError> {
                    if i % 90 == 53 {
                        Err(CoreError::Undefined {
                            name: format!("item-{i}"),
                        })
                    } else {
                        Ok(i)
                    }
                },
            )
            .into_iter()
            .collect::<Result<Vec<_>, _>>()
            .unwrap_err();
            assert_eq!(
                err,
                CoreError::Undefined {
                    name: "item-53".into()
                },
                "threads={threads}"
            );
        }
    }
}
