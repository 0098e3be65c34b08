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
//! The one driver, [`replicate`], returns one observation per replication
//! in index order. Each worker reuses one workspace across its
//! replications (a warm [`crate::SimContext`], or `()`), and callers
//! reduce the vector in index order, so every estimator sees the same
//! additions in the same order at any thread count.

use rand::rngs::StdRng;
use rand::SeedableRng;
use uavail_core::par::{par_map, Exec, OnFailure};
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

/// Runs `count` independent replications on up to `threads` workers
/// (`threads <= 1` runs them serially on the calling thread) and returns
/// one observation per replication, in index order.
///
/// `f` receives the worker's workspace, a fresh [`StdRng`] (seeded via
/// [`replication_seed`]) and the replication index, and returns one
/// observation. `make` builds the workspace once per worker, on the
/// worker thread, exactly as in `uavail_core::par::par_map`; it must only
/// provide reusable storage, never influence results. Callers with no
/// scratch pass `|| ()`. Every evaluation is panic-isolated: a panicking
/// replication becomes `E::from_worker_panic` at its index.
///
/// Under fault injection the `sim.replicate.event_drop` /
/// `sim.replicate.event_dup` sites drop or duplicate replications, so the
/// vector may be shorter or longer than `count`, or empty.
///
/// # Errors
///
/// Returns the error at the lowest failing replication index, for any
/// thread count.
pub fn replicate<T, E, W, M, F>(
    base_seed: u64,
    count: usize,
    threads: usize,
    make: M,
    f: F,
) -> Result<Vec<T>, E>
where
    T: Send,
    E: Send + FromWorkerPanic,
    M: Fn() -> W + Sync,
    F: Fn(&mut W, &mut StdRng, usize) -> Result<T, E> + Sync,
{
    let _span = uavail_obs::span("sim.replicate");
    record_batch_metrics(base_seed, count);
    let indices: Vec<usize> = injected_indices(count).unwrap_or_else(|| (0..count).collect());
    let exec = Exec {
        threads,
        on_failure: OnFailure::Abort,
    };
    par_map(&indices, &exec, make, |ws, &i| {
        let _rep = uavail_obs::Stopwatch::start("sim.replicate.replication_ns");
        let mut rng = StdRng::seed_from_u64(replication_seed(base_seed, i));
        f(ws, &mut rng, i)
    })
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SimError;
    use rand::Rng;

    #[test]
    fn seeds_are_deterministic_and_distinct() {
        let seeds =
            |base: u64| -> Vec<u64> { (0..64).map(|i| replication_seed(base, i)).collect() };
        let a = seeds(42);
        assert_eq!(a, seeds(42));
        let mut sorted = a.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), 64, "collision among replication seeds");
        // A different base seed gives a disjoint schedule.
        let c = seeds(43);
        assert!(a.iter().all(|s| !c.contains(s)));
    }

    #[test]
    fn parallel_matches_serial_bit_for_bit() {
        let f = |(): &mut (), rng: &mut StdRng, i: usize| -> Result<f64, SimError> {
            let mut acc = i as f64;
            for _ in 0..100 {
                acc += rng.random::<f64>();
            }
            Ok(acc)
        };
        let serial = replicate(7, 33, 1, || (), f).unwrap();
        for threads in [2, 8] {
            let parallel = replicate(7, 33, threads, || (), f).unwrap();
            assert_eq!(serial.len(), parallel.len());
            for (s, p) in serial.iter().zip(&parallel) {
                assert_eq!(s.to_bits(), p.to_bits(), "threads={threads}");
            }
        }
    }

    #[test]
    fn first_error_in_index_order() {
        let f = |(): &mut (), _: &mut StdRng, i: usize| -> Result<(), SimError> {
            if i >= 10 {
                Err(SimError::NoObservations)
            } else {
                Ok(())
            }
        };
        for threads in [1, 4] {
            assert_eq!(
                replicate(1, 40, threads, || (), f).unwrap_err(),
                SimError::NoObservations
            );
        }
    }

    #[test]
    fn a_panicking_replication_is_a_typed_error_at_any_thread_count() {
        let f = |(): &mut (), _: &mut StdRng, i: usize| -> Result<usize, SimError> {
            assert!(i != 10, "replication {i} blew up");
            Ok(i)
        };
        for threads in [1, 4] {
            match replicate(1, 40, threads, || (), f) {
                Err(SimError::WorkerPanicked { index, payload }) => {
                    assert_eq!(index, 10, "threads={threads}");
                    assert!(payload.contains("blew up"), "{payload}");
                }
                other => panic!("threads={threads}: expected a caught panic, got {other:?}"),
            }
        }
    }

    #[test]
    fn warm_farm_contexts_match_fresh_ones_bit_for_bit() {
        // The production estimator path end to end: farm replications
        // through the epoch kernel, loss fractions reduced by batch
        // means. One warm `SimContext` per worker, at any thread count,
        // must give the bits a fresh context per replication gives.
        use crate::stats::batch_means;
        use crate::{FarmSimulation, SimContext};
        let sim = FarmSimulation::new(3, 0.02, 1.0, 0.9, 6.0, 300.0, 150.0, 8).unwrap();
        let (seed, reps, batches, horizon) = (2024u64, 48usize, 8usize, 400.0);
        let fresh = replicate(
            seed,
            reps,
            1,
            || (),
            |(), rng, _| {
                sim.run_counts_with(&mut SimContext::new(), rng, horizon)
                    .map(|c| c.loss_fraction())
            },
        )
        .unwrap();
        let expected = batch_means(&fresh, batches).unwrap();
        for threads in [1, 2, 8] {
            let warm = replicate(seed, reps, threads, SimContext::new, |ctx, rng, _| {
                sim.run_counts_with(ctx, rng, horizon)
                    .map(|c| c.loss_fraction())
            })
            .unwrap();
            let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&warm), bits(&fresh), "threads={threads}");
            assert_eq!(batch_means(&warm, batches).unwrap(), expected);
        }
    }

    #[test]
    fn replication_streams_are_independent_of_execution_order() {
        // Re-running a single replication in isolation reproduces the
        // value it had inside the batch.
        let f =
            |(): &mut (), rng: &mut StdRng, _: usize| -> Result<u64, SimError> { Ok(rng.random()) };
        let batch = replicate(99, 16, 4, || (), f).unwrap();
        let mut rng = StdRng::seed_from_u64(replication_seed(99, 11));
        assert_eq!(batch[11], rng.random::<u64>());
    }
}
