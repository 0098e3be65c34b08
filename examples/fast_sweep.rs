//! Allocation-free dense sweep: a 10,000-point Figure-11-style grid run
//! through [`sweep`] on every core, with each worker thread reusing one
//! [`EvalContext`]. Each point's N_W loss probabilities come from
//! equation (3) in closed form, so no worker shares any state with
//! another. The `uavail-obs` recorder is switched on so the run prints
//! what the engine actually did: how often contexts were reused.
//!
//! ```text
//! cargo run --release --example fast_sweep
//! ```

use uavail::core::par::Exec;
use uavail::core::sweep::sweep;
use uavail::travel::{webservice, EvalContext, TaParameters, TravelError};

fn main() -> Result<(), TravelError> {
    uavail::obs::set_enabled(true);

    // Figure 11 plots U(WS) against the arrival rate for several farm
    // sizes. This grid densifies the paper's alpha axis to 2,500 distinct
    // rates per farm size.
    let farm_sizes = [2usize, 4, 6, 8];
    let alphas: Vec<f64> = (1..=2_500).map(|i| 0.1 * i as f64).collect();
    let exec = Exec::parallel();
    let threads = exec.threads;
    println!(
        "sweeping {} farm sizes x {} arrival rates = {} points on {threads} threads\n",
        farm_sizes.len(),
        alphas.len(),
        farm_sizes.len() * alphas.len()
    );

    for nw in farm_sizes {
        // Each worker thread builds one EvalContext and keeps it for every
        // point it claims; results are bit-for-bit identical to the
        // allocating serial path.
        let points = sweep(&alphas, &exec, EvalContext::new, |ctx, alpha| {
            let params = TaParameters::builder()
                .web_servers(nw)
                .arrival_rate_per_second(alpha)
                .build()
                .expect("grid parameters are in the validated domain");
            let a = webservice::redundant_imperfect_availability_with(&params, ctx)
                .expect("paper-domain parameters evaluate");
            Ok(1.0 - a)
        })?
        .points;
        let mid = &points[points.len() / 2];
        println!(
            "  N_W = {nw}: {} points, U(WS | alpha = {:>6.1}) = {:.3e}",
            points.len(),
            mid.x,
            mid.y
        );
    }

    // What the observability layer saw.
    let snap = uavail::obs::snapshot();
    let created = snap.counter("travel.eval_context.created");
    let reuses = snap.counter("travel.eval_context.reuses");
    println!("\neval contexts: {created} created, {reuses} evaluations served from reused storage");
    Ok(())
}
