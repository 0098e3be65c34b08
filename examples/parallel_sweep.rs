//! Parallel evaluation: run the Figure 11/12 sensitivity sweep and a
//! replicated simulation on all cores, with results bit-for-bit identical
//! to the serial engine.
//!
//! ```text
//! cargo run --example parallel_sweep
//! ```

use uavail::core::par::{default_threads, par_map, Exec};
use uavail::core::sweep::sweep;
use uavail::sim::replicate::replicate;
use uavail::travel::evaluation::{figure12, figure_sweep};
use uavail::travel::sim_validation::compressed_parameters;
use uavail::travel::{webservice, Coverage, TaParameters, TravelError};

fn main() -> Result<(), TravelError> {
    println!("worker threads: {}\n", default_threads());

    // 1. The paper's Figure 12 grid (90 points), serial vs parallel.
    //    Determinism is a guarantee, not an accident: the parallel sweep
    //    preserves input order and first-error semantics exactly.
    let serial = figure12()?;
    let parallel = figure_sweep(Coverage::Imperfect, &Exec::parallel())?.points;
    assert_eq!(serial, parallel);
    println!(
        "figure 12: {} points, parallel == serial: {}",
        parallel.len(),
        serial == parallel
    );

    // 2. A custom sweep over the travel model via the order-preserving
    //    parallel map: web-farm unavailability as the arrival rate grows.
    let alphas: Vec<f64> = (1..=19).map(|i| 10.0 * i as f64).collect();
    let unavailabilities = par_map(
        &alphas,
        &Exec::parallel(),
        || (),
        |(), &alpha| -> Result<f64, TravelError> {
            let p = TaParameters::builder()
                .arrival_rate_per_second(alpha)
                .build()?;
            Ok(1.0 - webservice::redundant_imperfect_availability(&p)?)
        },
    )
    .into_iter()
    .collect::<Result<Vec<f64>, _>>()?;
    for (alpha, u) in alphas.iter().zip(&unavailabilities).step_by(6) {
        println!("  U(WS | alpha = {alpha:>5.1}) = {u:.3e}");
    }

    // 3. The generic sweep engine: same points, same order, same errors
    //    as the serial run — `assert_eq!` holds by construction.
    let xs: Vec<f64> = (1..=200).map(f64::from).collect();
    let f = |_: &mut (), x: f64| Ok(1.0 / (1.0 + x * x));
    assert_eq!(
        sweep(&xs, &Exec::parallel(), || (), f)?,
        sweep(&xs, &Exec::serial(), || (), f)?
    );
    println!("\ngeneric sweep: 200 points, parallel == serial");

    // 4. Replicated discrete-event simulation: every replication owns an
    //    RNG stream derived from the base seed, so the pooled counts do
    //    not depend on the thread count.
    let sim_params = compressed_parameters();
    let sim = uavail::sim::FarmSimulation::new(
        sim_params.web_servers,
        sim_params.failure_rate_per_hour,
        sim_params.repair_rate_per_hour,
        sim_params.coverage,
        sim_params.reconfiguration_rate_per_hour,
        sim_params.arrival_rate_per_second,
        sim_params.service_rate_per_second,
        sim_params.buffer_size,
    )?;
    let run = |(): &mut (), rng: &mut rand::rngs::StdRng, _: usize| sim.run(rng, 500.0);
    let serial = replicate(42, 8, 1, || (), run)?;
    let parallel = replicate(42, 8, default_threads(), || (), run)?;
    assert_eq!(serial.len(), parallel.len());
    assert!(serial.iter().zip(&parallel).all(|(s, p)| s == p));
    let losses: u64 = parallel.iter().map(|o| o.losses).sum();
    let arrivals: u64 = parallel.iter().map(|o| o.arrivals).sum();
    println!(
        "\nfarm simulation: 8 replications, {arrivals} arrivals, \
         pooled loss fraction {:.3e} (thread-count independent)",
        losses as f64 / arrivals as f64
    );
    Ok(())
}
