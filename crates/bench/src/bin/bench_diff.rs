//! Compares two `uavail-bench/v1` artifacts and fails on regressions.
//!
//! ```text
//! bench-diff <baseline.json> <candidate.json> [--threshold <ratio>]
//!            [--budget <name/mode>=<ratio>]... [--csv]
//! ```
//!
//! Benchmarks are matched by `(name, mode)`; a match regresses when its
//! `candidate / baseline` mean ratio exceeds its threshold. The default
//! threshold (1.5, or `--threshold`) applies everywhere, but a repeatable
//! `--budget figure12/batched=6` holds that one benchmark to its own
//! tighter (or looser) bound. Prints the full comparison table either way.
//!
//! Exit codes: `0` no regressions, `1` at least one regression, `2` usage
//! or artifact-parse error — so CI can distinguish "slower" from "broken".

use std::process::ExitCode;

use uavail_bench::diff::diff_artifacts;

/// Default slowdown ratio: loose enough for same-machine run-to-run noise
/// on the short `reproduce bench` measurements, tight enough to catch a
/// 2x regression.
const DEFAULT_THRESHOLD: f64 = 1.5;

fn usage() -> ExitCode {
    eprintln!(
        "usage: bench-diff <baseline.json> <candidate.json> [--threshold <ratio>] \
         [--budget <name/mode>=<ratio>]... [--csv]"
    );
    ExitCode::from(2)
}

/// Parses one `--budget` operand of the form `name/mode=ratio`.
fn parse_budget(raw: &str) -> Result<(String, f64), String> {
    let Some((key, ratio)) = raw.rsplit_once('=') else {
        return Err(format!(
            "--budget {raw:?} is not of the form <name/mode>=<ratio>"
        ));
    };
    if key.is_empty() || !key.contains('/') {
        return Err(format!(
            "--budget key {key:?} must name a benchmark as <name/mode>"
        ));
    }
    let ratio = ratio
        .parse::<f64>()
        .map_err(|_| format!("--budget ratio {ratio:?} is not a number"))?;
    Ok((key.to_string(), ratio))
}

fn main() -> ExitCode {
    let mut paths: Vec<String> = Vec::new();
    let mut threshold = DEFAULT_THRESHOLD;
    let mut budgets: Vec<(String, f64)> = Vec::new();
    let mut csv = false;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        if arg == "--csv" {
            csv = true;
        } else if arg == "--budget" {
            let Some(raw) = args.next() else {
                eprintln!("bench-diff: --budget requires <name/mode>=<ratio>");
                return usage();
            };
            match parse_budget(&raw) {
                Ok(b) => budgets.push(b),
                Err(e) => {
                    eprintln!("bench-diff: {e}");
                    return usage();
                }
            }
        } else if let Some(raw) = arg.strip_prefix("--budget=") {
            match parse_budget(raw) {
                Ok(b) => budgets.push(b),
                Err(e) => {
                    eprintln!("bench-diff: {e}");
                    return usage();
                }
            }
        } else if arg == "--threshold" {
            let Some(raw) = args.next() else {
                eprintln!("bench-diff: --threshold requires a ratio");
                return usage();
            };
            match raw.parse::<f64>() {
                Ok(t) => threshold = t,
                Err(_) => {
                    eprintln!("bench-diff: --threshold {raw:?} is not a number");
                    return usage();
                }
            }
        } else if let Some(raw) = arg.strip_prefix("--threshold=") {
            match raw.parse::<f64>() {
                Ok(t) => threshold = t,
                Err(_) => {
                    eprintln!("bench-diff: --threshold {raw:?} is not a number");
                    return usage();
                }
            }
        } else if arg.starts_with("--") {
            eprintln!("bench-diff: unknown flag {arg:?}");
            return usage();
        } else {
            paths.push(arg);
        }
    }
    let [baseline_path, candidate_path] = paths.as_slice() else {
        return usage();
    };
    let read = |path: &str| {
        std::fs::read_to_string(path).map_err(|e| format!("bench-diff: cannot read {path}: {e}"))
    };
    let (baseline, candidate) = match (read(baseline_path), read(candidate_path)) {
        (Ok(b), Ok(c)) => (b, c),
        (Err(e), _) | (_, Err(e)) => {
            eprintln!("{e}");
            return ExitCode::from(2);
        }
    };
    match diff_artifacts(&baseline, &candidate, threshold, &budgets) {
        Ok(report) => {
            print!("{}", report.render(csv));
            if report.has_regressions() {
                ExitCode::from(1)
            } else {
                ExitCode::SUCCESS
            }
        }
        Err(e) => {
            eprintln!("bench-diff: {e}");
            ExitCode::from(2)
        }
    }
}
