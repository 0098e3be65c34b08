//! Property-based tests for `uavail-sim`: statistics invariants and
//! simulator sanity under random parameters.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use uavail_sim::replicate::replicate;
use uavail_sim::rng::{weighted_index, AliasTable};
use uavail_sim::stats::{batch_means, OnlineStats, Proportion};
use uavail_sim::{AlternatingRenewal, EventQueue, FarmSimulation, QueueSimulation, SimContext};

proptest! {
    #[test]
    fn welford_matches_two_pass(data in prop::collection::vec(-1e4f64..1e4, 2..200)) {
        let mut s = OnlineStats::new();
        for &x in &data {
            s.push(x);
        }
        let mean: f64 = data.iter().sum::<f64>() / data.len() as f64;
        let var: f64 = data.iter().map(|x| (x - mean).powi(2)).sum::<f64>()
            / (data.len() - 1) as f64;
        prop_assert!((s.mean() - mean).abs() < 1e-6 * mean.abs().max(1.0));
        prop_assert!((s.sample_variance() - var).abs() < 1e-5 * var.max(1.0));
    }

    #[test]
    fn merge_order_independent(
        a in prop::collection::vec(-100f64..100.0, 1..50),
        b in prop::collection::vec(-100f64..100.0, 1..50)
    ) {
        let mut sa = OnlineStats::new();
        for &x in &a { sa.push(x); }
        let mut sb = OnlineStats::new();
        for &x in &b { sb.push(x); }
        let mut ab = sa;
        ab.merge(&sb);
        let mut ba = sb;
        ba.merge(&sa);
        prop_assert!((ab.mean() - ba.mean()).abs() < 1e-9);
        prop_assert!((ab.sample_variance() - ba.sample_variance()).abs() < 1e-8);
        prop_assert_eq!(ab.count(), (a.len() + b.len()) as u64);
    }

    #[test]
    fn proportion_interval_contains_estimate(successes in 0u64..1000, extra in 0u64..1000) {
        let trials = successes + extra;
        prop_assume!(trials > 0);
        let p = Proportion::new(successes, trials);
        let (lo, hi) = p.confidence_interval(1.96);
        prop_assert!(lo <= p.estimate() && p.estimate() <= hi);
        prop_assert!((0.0..=1.0).contains(&lo) && (0.0..=1.0).contains(&hi));
    }

    #[test]
    fn batch_means_mean_equals_series_mean(
        data in prop::collection::vec(-10f64..10.0, 10..100),
        batches in 2usize..6
    ) {
        prop_assume!(data.len() % batches == 0);
        let stats = batch_means(&data, batches).unwrap();
        let mean: f64 = data.iter().sum::<f64>() / data.len() as f64;
        prop_assert!((stats.mean() - mean).abs() < 1e-9);
    }

    #[test]
    fn batch_means_consumes_every_observation(
        data in prop::collection::vec(-10f64..10.0, 2..100),
        batches in 2usize..6
    ) {
        // No divisibility assumption: the batch sizes ⌈n/b⌉/⌊n/b⌋ must
        // partition the series, so the size-weighted batch means recover
        // the full series sum (the old implementation dropped the tail).
        prop_assume!(data.len() >= batches);
        let stats = batch_means(&data, batches).unwrap();
        prop_assert_eq!(stats.count(), batches as u64);
        let base = data.len() / batches;
        let remainder = data.len() % batches;
        let mut start = 0;
        let mut weighted = 0.0;
        for b in 0..batches {
            let size = base + usize::from(b < remainder);
            weighted += data[start..start + size].iter().sum::<f64>();
            start += size;
        }
        prop_assert_eq!(start, data.len());
        let total: f64 = data.iter().sum();
        prop_assert!((weighted - total).abs() < 1e-9);
    }

    #[test]
    fn alias_table_matches_linear_scan_chi_square(
        weights in prop::collection::vec(0.1f64..10.0, 2..10),
        seed in 0u64..1000
    ) {
        // Both samplers target the same categorical law; a chi-square
        // statistic against the analytic probabilities must stay small
        // for each. With expected counts >= 5 and at most 9 degrees of
        // freedom, 80 is far beyond any plausible quantile — failures
        // mean a biased sampler, not sampling noise.
        const DRAWS: usize = 5_000;
        let total: f64 = weights.iter().sum();
        let expected: Vec<f64> = weights.iter().map(|w| w / total * DRAWS as f64).collect();
        prop_assume!(expected.iter().all(|&e| e >= 5.0));

        let chi_square = |counts: &[u64]| -> f64 {
            counts
                .iter()
                .zip(&expected)
                .map(|(&o, &e)| (o as f64 - e).powi(2) / e)
                .sum()
        };
        let table = AliasTable::new(&weights).unwrap();
        let mut rng = StdRng::seed_from_u64(seed);
        let mut alias_counts = vec![0u64; weights.len()];
        for _ in 0..DRAWS {
            alias_counts[table.sample(&mut rng)] += 1;
        }
        let mut rng = StdRng::seed_from_u64(seed.wrapping_add(1));
        let mut scan_counts = vec![0u64; weights.len()];
        for _ in 0..DRAWS {
            scan_counts[weighted_index(&mut rng, &weights).unwrap()] += 1;
        }
        prop_assert!(chi_square(&alias_counts) < 80.0, "alias sampler biased: {alias_counts:?}");
        prop_assert!(chi_square(&scan_counts) < 80.0, "linear scan biased: {scan_counts:?}");
    }

    #[test]
    fn alias_table_rejection_parity_with_linear_scan(
        weights in prop::collection::vec(
            prop_oneof![
                0.0f64..10.0,
                0.0f64..10.0,
                0.0f64..10.0,
                Just(0.0),
                Just(f64::NAN),
                Just(f64::INFINITY),
            ],
            0..8
        ),
        seed in 0u64..100
    ) {
        // On non-negative inputs the two samplers reject identically:
        // any non-finite weight or a non-positive total. (Negative
        // weights are the one asymmetry — the alias builder rejects
        // them outright while the scan documents them away — so the
        // strategy never generates them.)
        let mut rng = StdRng::seed_from_u64(seed);
        let scan = weighted_index(&mut rng, &weights);
        prop_assert_eq!(AliasTable::new(&weights).is_none(), scan.is_none());
    }

    #[test]
    fn warm_workspace_replication_serial_parallel_bit_identical(
        seed in 0u64..500,
        reps in 1usize..10,
        threads in 1usize..5
    ) {
        // The replication driver must return the same bits no matter how
        // the replications are scheduled: per-replication RNG streams are
        // derived from (seed, index) alone, and each worker's warm
        // `SimContext` only provides storage.
        let sim = FarmSimulation::new(3, 0.02, 1.0, 0.9, 6.0, 300.0, 150.0, 8).unwrap();
        let run = |threads: usize| -> Vec<u64> {
            replicate(seed, reps, threads, SimContext::new, |ctx, rng, _| {
                sim.run_counts_with(ctx, rng, 200.0)
                    .map(|c| c.loss_fraction().to_bits())
            })
            .unwrap()
        };
        prop_assert_eq!(run(1), run(threads));
    }

    #[test]
    fn event_queue_pops_sorted(times in prop::collection::vec(0.0f64..1e6, 1..100)) {
        let mut q = EventQueue::new();
        for (i, &t) in times.iter().enumerate() {
            q.schedule(t, i);
        }
        let mut last = f64::NEG_INFINITY;
        while let Some((t, _)) = q.pop() {
            prop_assert!(t >= last);
            last = t;
        }
    }

    #[test]
    fn renewal_availability_within_bounds(
        lambda in 0.01f64..2.0,
        mu in 0.01f64..2.0,
        seed in 0u64..1000
    ) {
        let sim = AlternatingRenewal::new(lambda, mu).unwrap();
        let mut rng = StdRng::seed_from_u64(seed);
        let obs = sim.run(&mut rng, 200.0).unwrap();
        prop_assert!((0.0..=1.0).contains(&obs.availability));
    }

    #[test]
    fn queue_simulation_conserves_customers(
        alpha in 1.0f64..50.0,
        nu in 1.0f64..50.0,
        servers in 1usize..4,
        extra in 0usize..6,
        seed in 0u64..100
    ) {
        let capacity = servers + extra;
        let sim = QueueSimulation::new(alpha, nu, servers, capacity).unwrap();
        let mut rng = StdRng::seed_from_u64(seed);
        let obs = sim.run(&mut rng, 2_000).unwrap();
        prop_assert_eq!(obs.arrivals, 2_000);
        prop_assert!(obs.losses <= obs.arrivals);
        prop_assert!(obs.mean_customers >= 0.0);
        prop_assert!(obs.mean_customers <= capacity as f64 + 1e-9);
    }
}
