//! Deterministic parallel replications.
//!
//! Monte-Carlo validation needs many independent replications of the same
//! simulation. Running them on one RNG stream serializes the work; naive
//! parallelization with a shared stream destroys reproducibility. This
//! module does the standard thing instead: every replication gets its own
//! generator, seeded from the base seed through a SplitMix64 scrambler,
//! so replication `k` consumes an identical stream no matter which thread
//! runs it or in which order. Results are therefore **bit-for-bit
//! identical** for every thread count, and any single replication can be
//! re-run in isolation for debugging.
//!
//! Two drivers share those streams, each taking the worker-thread count:
//! the history-based [`replicate`] (one `Vec` of observations, right for
//! small batches that need every value) and the streaming
//! [`replicate_fold_threads`] (observations folded in index order into
//! online reducers such as [`crate::stats::StreamingBatchMeans`], right
//! for production-scale batches where the history itself is the memory
//! bill). [`replicate_fold`] is the serial streaming loop whose `FnMut`
//! closure may own one warm workspace across calls.

use rand::rngs::StdRng;
use rand::SeedableRng;
use uavail_core::par::{par_fold, par_map, Exec, OnFailure};
use uavail_core::FromWorkerPanic;

/// Derives the per-replication seed for replication `index` from a base
/// seed.
///
/// Uses the SplitMix64 output function, the conventional seed scrambler
/// (it is what xoshiro-family generators are seeded with): consecutive
/// indices map to statistically unrelated seeds, so replication streams
/// do not overlap in practice even though the base seeds are sequential.
pub fn replication_seed(base_seed: u64, index: usize) -> u64 {
    let mut z = base_seed.wrapping_add(
        (index as u64)
            .wrapping_add(1)
            .wrapping_mul(0x9E37_79B9_7F4A_7C15),
    );
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The per-replication seeds `replication_seed(base_seed, 0..count)`.
pub fn replication_seeds(base_seed: u64, count: usize) -> Vec<u64> {
    (0..count).map(|i| replication_seed(base_seed, i)).collect()
}

/// Runs `count` independent replications on up to `threads` workers
/// (`threads <= 1` runs them serially on the calling thread) and returns
/// one observation per replication, in index order.
///
/// `f` receives a fresh [`StdRng`] (seeded via [`replication_seed`]) and
/// the replication index, and returns one observation. Every evaluation
/// is panic-isolated: a panicking replication becomes
/// `E::from_worker_panic` at its index.
///
/// # Errors
///
/// Returns the error at the lowest failing replication index, for any
/// thread count.
pub fn replicate<T, E, F>(base_seed: u64, count: usize, threads: usize, f: F) -> Result<Vec<T>, E>
where
    T: Send,
    E: Send + FromWorkerPanic,
    F: Fn(&mut StdRng, usize) -> Result<T, E> + Sync,
{
    let _span = uavail_obs::span("sim.replicate");
    record_batch_metrics(base_seed, count);
    let indices: Vec<usize> = injected_indices(count).unwrap_or_else(|| (0..count).collect());
    let exec = Exec {
        threads,
        on_failure: OnFailure::Abort,
    };
    par_map(
        &indices,
        &exec,
        || (),
        |(), &i| {
            let _rep = uavail_obs::Stopwatch::start("sim.replicate.replication_ns");
            let mut rng = StdRng::seed_from_u64(replication_seed(base_seed, i));
            f(&mut rng, i)
        },
    )
    .into_iter()
    .collect()
}

/// The replication schedule under fault injection: `None` (run `0..count`
/// unchanged) unless the injection layer is enabled, in which case the
/// `sim.replicate.event_drop` / `sim.replicate.event_dup` sites may drop
/// or duplicate individual replications. The decisions are made on the
/// calling thread, so serial and parallel execution inject the same
/// schedule.
fn injected_indices(count: usize) -> Option<Vec<usize>> {
    if !uavail_faultinject::enabled() {
        return None;
    }
    let mut indices = Vec::with_capacity(count);
    for i in 0..count {
        if uavail_faultinject::fired("sim.replicate.event_drop") {
            continue;
        }
        indices.push(i);
        if uavail_faultinject::fired("sim.replicate.event_dup") {
            indices.push(i);
        }
    }
    Some(indices)
}

/// Counts one replication batch and labels it with its RNG stream (base
/// seed plus SplitMix64-derived seed range) so a metrics artifact records
/// exactly which random streams produced the reported numbers. The label
/// formatting allocates, so it is gated on the recorder being enabled.
fn record_batch_metrics(base_seed: u64, count: usize) {
    uavail_obs::counter_add("sim.replicate.batches", 1);
    uavail_obs::counter_add("sim.replicate.replications", count as u64);
    if uavail_obs::enabled() && count > 0 {
        uavail_obs::label(
            "sim.replicate.stream",
            &format!(
                "base={base_seed} reps={count} first={:#018x} last={:#018x}",
                replication_seed(base_seed, 0),
                replication_seed(base_seed, count - 1)
            ),
        );
    }
}

/// Serial streaming [`replicate`]: runs `count` replications on the
/// calling thread and folds each observation into `init` as it is
/// produced, so no per-replication history vector is ever materialized.
///
/// `f` may be a `FnMut` capturing a single reusable workspace (e.g. a
/// [`crate::SimContext`]) — the serial loop owns it for the whole batch.
/// The fold sees observations in replication-index order, exactly the
/// order [`replicate`] would return them, so folding `replicate`'s vector
/// element by element gives a bit-identical accumulator.
///
/// Under fault injection the `sim.replicate.event_drop` /
/// `sim.replicate.event_dup` sites reshape the schedule exactly as in
/// [`replicate`]; with injection disabled the path is untouched.
///
/// # Errors
///
/// Returns the first replication error, in index order; observations
/// before it were already folded.
pub fn replicate_fold<A, T, E, F, G>(
    base_seed: u64,
    count: usize,
    mut f: F,
    init: A,
    mut fold: G,
) -> Result<A, E>
where
    F: FnMut(&mut StdRng, usize) -> Result<T, E>,
    G: FnMut(&mut A, T),
{
    let _span = uavail_obs::span("sim.replicate_fold");
    record_batch_metrics(base_seed, count);
    let mut acc = init;
    let mut run = |acc: &mut A, i: usize| -> Result<(), E> {
        let _rep = uavail_obs::Stopwatch::start("sim.replicate.replication_ns");
        let mut rng = StdRng::seed_from_u64(replication_seed(base_seed, i));
        fold(acc, f(&mut rng, i)?);
        Ok(())
    };
    match injected_indices(count) {
        // The common path: injection disabled, no index vector built.
        None => {
            for i in 0..count {
                run(&mut acc, i)?;
            }
        }
        Some(indices) => {
            for i in indices {
                run(&mut acc, i)?;
            }
        }
    }
    Ok(acc)
}

/// Streaming replication on up to `threads` workers:
/// workers run replications on private workspaces from `make` (one
/// [`crate::SimContext`] per worker, built on the worker thread, reused
/// across all its replications), while the calling thread folds the
/// observations **in replication-index order** through a bounded ring
/// (`uavail_core::par::par_fold`), so memory stays
/// `O(threads)` observations regardless of `count`.
///
/// Because every replication owns a seed-derived RNG stream and the fold
/// order is the index order, the final accumulator is **bit-for-bit
/// identical** to [`replicate_fold`] with the same `f` logic, for any
/// thread count. `threads <= 1` runs serially on the calling thread.
///
/// The fault-injection schedule (`sim.replicate.event_drop` / `event_dup`)
/// is decided on the calling thread before any worker starts, exactly as
/// in [`replicate`].
///
/// # Errors
///
/// Exactly the error [`replicate_fold`] would return: the one at the
/// lowest failing replication index.
pub fn replicate_fold_threads<A, W, T, E, M, F, G>(
    base_seed: u64,
    count: usize,
    threads: usize,
    make: M,
    f: F,
    init: A,
    fold: G,
) -> Result<A, E>
where
    T: Send,
    E: Send + FromWorkerPanic,
    M: Fn() -> W + Sync,
    F: Fn(&mut W, &mut StdRng, usize) -> Result<T, E> + Sync,
    G: FnMut(&mut A, T),
{
    let _span = uavail_obs::span("sim.replicate_fold_parallel");
    record_batch_metrics(base_seed, count);
    let indices: Vec<usize> = injected_indices(count).unwrap_or_else(|| (0..count).collect());
    par_fold(
        &indices,
        threads,
        make,
        |ws, &i| {
            let _rep = uavail_obs::Stopwatch::start("sim.replicate.replication_ns");
            let mut rng = StdRng::seed_from_u64(replication_seed(base_seed, i));
            f(ws, &mut rng, i)
        },
        init,
        fold,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SimError;
    use rand::Rng;

    #[test]
    fn seeds_are_deterministic_and_distinct() {
        let a = replication_seeds(42, 64);
        let b = replication_seeds(42, 64);
        assert_eq!(a, b);
        let mut sorted = a.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), 64, "collision among replication seeds");
        // A different base seed gives a disjoint schedule.
        let c = replication_seeds(43, 64);
        assert!(a.iter().all(|s| !c.contains(s)));
    }

    #[test]
    fn parallel_matches_serial_bit_for_bit() {
        let f = |rng: &mut StdRng, i: usize| -> Result<f64, SimError> {
            let mut acc = i as f64;
            for _ in 0..100 {
                acc += rng.random::<f64>();
            }
            Ok(acc)
        };
        let serial = replicate(7, 33, 1, f).unwrap();
        for threads in [2, 8] {
            let parallel = replicate(7, 33, threads, f).unwrap();
            assert_eq!(serial.len(), parallel.len());
            for (s, p) in serial.iter().zip(&parallel) {
                assert_eq!(s.to_bits(), p.to_bits(), "threads={threads}");
            }
        }
    }

    #[test]
    fn first_error_in_index_order() {
        let f = |_: &mut StdRng, i: usize| -> Result<(), SimError> {
            if i >= 10 {
                Err(SimError::NoObservations)
            } else {
                Ok(())
            }
        };
        for threads in [1, 4] {
            assert_eq!(
                replicate(1, 40, threads, f).unwrap_err(),
                SimError::NoObservations
            );
        }
    }

    #[test]
    fn a_panicking_replication_is_a_typed_error_at_any_thread_count() {
        let f = |_: &mut StdRng, i: usize| -> Result<usize, SimError> {
            assert!(i != 10, "replication {i} blew up");
            Ok(i)
        };
        for threads in [1, 4] {
            match replicate(1, 40, threads, f) {
                Err(SimError::WorkerPanicked { index, payload }) => {
                    assert_eq!(index, 10, "threads={threads}");
                    assert!(payload.contains("blew up"), "{payload}");
                }
                other => panic!("threads={threads}: expected a caught panic, got {other:?}"),
            }
        }
    }

    #[test]
    fn fold_matches_history_path_bit_for_bit() {
        // Folding the streaming way must reproduce exactly what pushing
        // replicate()'s history vector through the same reducer gives.
        let f = |rng: &mut StdRng, i: usize| -> Result<f64, SimError> {
            let mut acc = i as f64;
            for _ in 0..50 {
                acc += rng.random::<f64>();
            }
            Ok(acc)
        };
        let history = replicate(11, 40, 1, f).unwrap();
        let mut expected = crate::stats::OnlineStats::new();
        for &x in &history {
            expected.push(x);
        }
        let folded = replicate_fold(11, 40, f, crate::stats::OnlineStats::new(), |acc, x| {
            acc.push(x)
        })
        .unwrap();
        assert_eq!(folded, expected);
    }

    #[test]
    fn fold_parallel_matches_serial_bit_for_bit() {
        let serial = replicate_fold(
            23,
            57,
            |rng: &mut StdRng, _| -> Result<f64, SimError> { Ok(rng.random::<f64>()) },
            crate::stats::OnlineStats::new(),
            |acc, x| acc.push(x),
        )
        .unwrap();
        for threads in [1, 2, 8] {
            let parallel = replicate_fold_threads(
                23,
                57,
                threads,
                || (),
                |(), rng: &mut StdRng, _| -> Result<f64, SimError> { Ok(rng.random::<f64>()) },
                crate::stats::OnlineStats::new(),
                |acc, x| acc.push(x),
            )
            .unwrap();
            assert_eq!(parallel, serial, "threads={threads}");
        }
    }

    #[test]
    fn fold_paths_surface_first_error_in_index_order() {
        let fail_from = |i: usize| -> Result<f64, SimError> {
            if i >= 10 {
                Err(SimError::NoObservations)
            } else {
                Ok(i as f64)
            }
        };
        let mut folded = Vec::new();
        let err =
            replicate_fold(1, 40, |_, i| fail_from(i), (), |(), x| folded.push(x)).unwrap_err();
        assert_eq!(err, SimError::NoObservations);
        assert_eq!(folded.len(), 10, "prefix before the error is folded");
        let err = replicate_fold_threads(1, 40, 4, || (), |(), _, i| fail_from(i), (), |(), _| {})
            .unwrap_err();
        assert_eq!(err, SimError::NoObservations);
    }

    #[test]
    fn farm_streaming_fold_pins_serial_parallel_and_history_agreement() {
        // The production estimator path end to end: farm replications
        // through the epoch kernel, loss fractions reduced by streaming
        // batch means. Serial fold, parallel fold (any thread count), and
        // the history-based batch_means estimator must agree bit for bit
        // on a pinned seed.
        use crate::stats::{batch_means, StreamingBatchMeans};
        use crate::{FarmSimulation, SimContext};
        let sim = FarmSimulation::new(3, 0.02, 1.0, 0.9, 6.0, 300.0, 150.0, 8).unwrap();
        let (seed, reps, batches, horizon) = (2024u64, 48usize, 8usize, 400.0);
        let history = replicate(seed, reps, 1, |rng, _| {
            let mut ctx = SimContext::new();
            sim.run_counts_with(&mut ctx, rng, horizon)
                .map(|c| c.loss_fraction())
        })
        .unwrap();
        let expected = batch_means(&history, batches).unwrap();
        let mut ctx = SimContext::new();
        let serial = replicate_fold(
            seed,
            reps,
            |rng, _| {
                sim.run_counts_with(&mut ctx, rng, horizon)
                    .map(|c| c.loss_fraction())
            },
            StreamingBatchMeans::new(reps, batches).unwrap(),
            |acc, x| acc.push(x),
        )
        .unwrap()
        .finish()
        .unwrap();
        assert_eq!(serial, expected, "streaming vs history estimator");
        for threads in [2, 8] {
            let parallel = replicate_fold_threads(
                seed,
                reps,
                threads,
                SimContext::new,
                |ctx, rng, _| {
                    sim.run_counts_with(ctx, rng, horizon)
                        .map(|c| c.loss_fraction())
                },
                StreamingBatchMeans::new(reps, batches).unwrap(),
                |acc, x| acc.push(x),
            )
            .unwrap()
            .finish()
            .unwrap();
            assert_eq!(parallel, serial, "threads={threads}");
        }
    }

    #[test]
    fn replication_streams_are_independent_of_execution_order() {
        // Re-running a single replication in isolation reproduces the
        // value it had inside the batch.
        let f = |rng: &mut StdRng, _: usize| -> Result<u64, SimError> { Ok(rng.random()) };
        let batch = replicate(99, 16, 4, f).unwrap();
        let mut rng = StdRng::seed_from_u64(replication_seed(99, 11));
        assert_eq!(batch[11], rng.random::<u64>());
    }
}
