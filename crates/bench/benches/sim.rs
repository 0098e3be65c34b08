//! Simulation throughput benchmarks: the three layers of the
//! replication fast path, each against its baseline.
//!
//! `alias` times Walker–Vose O(1) categorical sampling against the
//! linear-scan `weighted_index` it replaced inside the per-event
//! simulators. `farm` times one per-event replication of the joint farm
//! model against the epoch-resolvent counting kernel on a warm
//! [`SimContext`] — the same model and seed, so the ratio is the
//! algorithmic win. `replicate` times the history-based replication
//! driver (materialize every observation, then batch means) against the
//! streaming fold driver (one-pass batch means, no history).

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use rand::rngs::StdRng;
use rand::SeedableRng;
use uavail_sim::replicate::{replicate, replicate_fold};
use uavail_sim::rng::{weighted_index, AliasTable};
use uavail_sim::stats::{batch_means, StreamingBatchMeans};
use uavail_sim::{FarmSimulation, SimContext};

/// The Table 2 web-farm shape used across the simulation tests: three
/// servers, imperfect coverage, M/M/3/8 request queue.
fn farm() -> FarmSimulation {
    FarmSimulation::new(3, 0.02, 1.0, 0.9, 6.0, 300.0, 150.0, 8).unwrap()
}

fn bench_alias(c: &mut Criterion) {
    // Rate vectors the farm's event loop actually draws from: one weight
    // per competing transition, most mass on the service/arrival events.
    let weights: Vec<f64> = (1..=16).map(|i| 1.0 / f64::from(i)).collect();
    let mut rng = StdRng::seed_from_u64(7);
    c.bench_function("sim/alias/linear_scan", |b| {
        b.iter(|| black_box(weighted_index(&mut rng, &weights).unwrap()))
    });
    let table = AliasTable::new(&weights).unwrap();
    let mut rng = StdRng::seed_from_u64(7);
    c.bench_function("sim/alias/alias_table", |b| {
        b.iter(|| black_box(table.sample(&mut rng)))
    });
}

fn bench_farm(c: &mut Criterion) {
    let sim = farm();
    let horizon = 200.0;
    let mut rng = StdRng::seed_from_u64(11);
    c.bench_function("sim/farm/per_event", |b| {
        b.iter(|| black_box(sim.run(&mut rng, horizon).unwrap()))
    });
    let mut ctx = SimContext::new();
    let mut rng = StdRng::seed_from_u64(11);
    sim.run_counts_with(&mut ctx, &mut rng, horizon).unwrap(); // warm the arenas
    c.bench_function("sim/farm/epoch_kernel", |b| {
        b.iter(|| black_box(sim.run_counts_with(&mut ctx, &mut rng, horizon).unwrap()))
    });
}

fn bench_replicate(c: &mut Criterion) {
    let sim = farm();
    let (seed, reps, horizon) = (20240601, 4, 200.0);
    c.bench_function("sim/replicate/history", |b| {
        b.iter(|| {
            let obs = replicate(seed, reps, 1, |rng, _| sim.run(rng, horizon)).unwrap();
            let fractions: Vec<f64> = obs.iter().map(|o| o.loss_fraction()).collect();
            black_box(batch_means(&fractions, reps))
        })
    });
    let mut ctx = SimContext::new();
    c.bench_function("sim/replicate/streaming_fold", |b| {
        b.iter(|| {
            let stats = replicate_fold(
                seed,
                reps,
                |rng, _| {
                    sim.run_counts_with(&mut ctx, rng, horizon)
                        .map(|counts| counts.loss_fraction())
                },
                StreamingBatchMeans::new(reps, reps).unwrap(),
                |acc, x| acc.push(x),
            )
            .unwrap();
            black_box(stats.finish())
        })
    });
}

criterion_group!(sim, bench_alias, bench_farm, bench_replicate);
criterion_main!(sim);
