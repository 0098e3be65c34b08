//! The reproduction path: fresh `reproduce` processes diffed against the
//! committed golden output, and in-process timings of the layers
//! `reproduce all` spends its time in.

use std::hint::black_box;
use std::path::Path;
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

use rand::rngs::StdRng;
use rand::SeedableRng;
use uavail_travel::evaluation::{figure11, figure12, figure13, table8};
use uavail_travel::fig2::fit_to_table;
use uavail_travel::user::{class_a, class_b};
use uavail_travel::webservice::reset_loss_cache;

/// `reproduce all` stdout at the commit this benchmark was defined on.
/// Every run must reproduce it byte for byte.
pub const GOLDEN_ALL: &str = include_str!("../golden/reproduce_all.txt");

/// Runs `reproduce <args>` to completion and returns its wall time and
/// stdout. A nonzero exit is an error.
fn run(reproduce: &Path, args: &[&str]) -> Result<(Duration, Vec<u8>), String> {
    let started = Instant::now();
    let output = Command::new(reproduce)
        .args(args)
        .stdin(Stdio::null())
        .output()
        .map_err(|e| format!("cannot spawn {}: {e}", reproduce.display()))?;
    let elapsed = started.elapsed();
    if !output.status.success() {
        let stderr = String::from_utf8_lossy(&output.stderr);
        return Err(format!(
            "reproduce {} exited with {}: {}",
            args.join(" "),
            output.status,
            stderr.trim()
        ));
    }
    Ok((elapsed, output.stdout))
}

/// One fresh-process `reproduce all` (plus `extra` flags), whose stdout
/// must equal the golden copy.
pub fn all(reproduce: &Path, extra: &[&str]) -> Result<Duration, String> {
    let mut args = vec!["all"];
    args.extend_from_slice(extra);
    let (elapsed, stdout) = run(reproduce, &args)?;
    if stdout != GOLDEN_ALL.as_bytes() {
        return Err(format!(
            "reproduce all stdout differs from the golden copy at byte {}",
            first_difference(&stdout, GOLDEN_ALL.as_bytes())
        ));
    }
    Ok(elapsed)
}

/// Set-up time of the reproduction path: spawn to exit of
/// `reproduce table1`, the smallest artifact, whose output must open the
/// golden copy.
pub fn startup(reproduce: &Path) -> Result<Duration, String> {
    let (elapsed, stdout) = run(reproduce, &["table1"])?;
    if stdout.is_empty() || !GOLDEN_ALL.as_bytes().starts_with(&stdout) {
        return Err("reproduce table1 stdout does not open the golden copy".to_string());
    }
    Ok(elapsed)
}

/// One `reproduce simgate` run, which must pass its statistical gate.
pub fn simgate(reproduce: &Path) -> Result<Duration, String> {
    run(reproduce, &["simgate"]).map(|(elapsed, _)| elapsed)
}

/// The Figure 2 fit exactly as `reproduce fit` runs it.
pub fn fig2_fit() -> Result<Duration, String> {
    let started = Instant::now();
    let mut rng = StdRng::seed_from_u64(20240601);
    let (_, err_a) =
        fit_to_table(&mut rng, class_a().table(), 300, 80).map_err(|e| e.to_string())?;
    let (_, err_b) =
        fit_to_table(&mut rng, class_b().table(), 300, 80).map_err(|e| e.to_string())?;
    let elapsed = started.elapsed();
    // The published table is matched to well under 1% per scenario.
    if !(err_a < 5e-4 && err_b < 5e-4) {
        return Err(format!(
            "Figure 2 fit errors {err_a:e} / {err_b:e} exceed 5e-4"
        ));
    }
    Ok(elapsed)
}

/// Table 8 and Figures 11–13 from an empty loss cache.
pub fn artifacts() -> Result<Duration, String> {
    reset_loss_cache();
    let started = Instant::now();
    black_box(table8().map_err(|e| e.to_string())?);
    black_box(figure11().map_err(|e| e.to_string())?);
    black_box(figure12().map_err(|e| e.to_string())?);
    black_box(figure13(&class_a()).map_err(|e| e.to_string())?);
    black_box(figure13(&class_b()).map_err(|e| e.to_string())?);
    Ok(started.elapsed())
}

fn first_difference(a: &[u8], b: &[u8]) -> usize {
    a.iter().zip(b).take_while(|(x, y)| x == y).count()
}
