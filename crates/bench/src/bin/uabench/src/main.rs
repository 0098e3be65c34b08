//! `uabench` — the end-to-end benchmark of the uavail reproduction and
//! its `POST /eval` query plane, with per-layer attribution.
//!
//! ```text
//! uabench [--workload <name>] [--seed <n>] [--seconds <s>] [--trace <0|1>]
//!         [--out <dir>] [--smoke]
//! ```
//!
//! Workloads: `reproduce`, `eval-hot`, `eval-cold`, `eval-user` (all four
//! when `--workload` is absent). `--trace 0` measures the end-to-end
//! metrics, `--trace 1` the per-layer ones (both when absent). Each metric
//! prints as `<workload> <metric> <value> <unit> n=<samples>`;
//! `<out>/results.json` (default `.uabench/`) records every run, and the
//! last line of standard output is a one-line JSON result. The exit code
//! is 0 only when every operation and check passed.
//!
//! The benchmark observes the program from outside: it spawns the
//! `reproduce` binary found next to its own executable, talks HTTP to
//! `reproduce serve`, and calls public library functions in-process. See
//! `README.md` beside this crate for the workloads and metrics.

mod affinity;
mod check;
mod layers;
mod load;
mod report;
mod repro;
mod run;
mod server;
mod stats;
mod workload;

use std::path::PathBuf;
use std::process::ExitCode;

use run::Settings;
use workload::Workload;

const USAGE: &str = "usage: uabench [--workload reproduce|eval-hot|eval-cold|eval-user] [--seed <n>] [--seconds <s>] [--trace 0|1] [--out <dir>] [--smoke]";

struct Args {
    workloads: Vec<Workload>,
    modes: Vec<bool>,
    settings: Settings,
}

fn parse_args() -> Result<Args, String> {
    let mut workloads = Workload::ALL.to_vec();
    let mut modes = vec![false, true];
    let mut seed = 1;
    let mut seconds = None;
    let mut smoke = false;
    let mut out = PathBuf::from(".uabench");
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut value = || args.next().ok_or_else(|| format!("{arg} needs a value"));
        match arg.as_str() {
            "--workload" => {
                let name = value()?;
                workloads =
                    vec![Workload::parse(&name)
                        .ok_or_else(|| format!("unknown workload {name:?}"))?];
            }
            "--seed" => seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                let s: f64 = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(s.is_finite() && s > 0.0 && s <= 600.0) {
                    return Err("--seconds must be in (0, 600]".to_string());
                }
                seconds = Some(s);
            }
            "--trace" => {
                modes = match value()?.as_str() {
                    "0" => vec![false],
                    "1" => vec![true],
                    other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
                }
            }
            "--out" => out = PathBuf::from(value()?),
            "--smoke" => smoke = true,
            _ => return Err(format!("unexpected argument {arg:?}")),
        }
    }
    let exe = std::env::current_exe().map_err(|e| format!("cannot locate uabench: {e}"))?;
    let reproduce = exe.with_file_name(format!("reproduce{}", std::env::consts::EXE_SUFFIX));
    if !reproduce.is_file() {
        return Err(format!(
            "{} not found; build it with `cargo build --release -p uavail-bench --bin reproduce` into the same target directory",
            reproduce.display()
        ));
    }
    let seconds = seconds.unwrap_or(if smoke { 1.0 } else { 10.0 });
    Ok(Args {
        workloads,
        modes,
        settings: Settings {
            seed,
            seconds,
            smoke,
            out,
            reproduce,
        },
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("uabench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let settings = &args.settings;
    if let Err(e) = std::fs::create_dir_all(&settings.out) {
        eprintln!("uabench: cannot create {}: {e}", settings.out.display());
        return ExitCode::FAILURE;
    }
    let mut reports = Vec::new();
    for &workload in &args.workloads {
        for &traced in &args.modes {
            eprintln!(
                "uabench: {} ({}), seed {}, {} s",
                workload.name(),
                if traced { "traced" } else { "untraced" },
                settings.seed,
                settings.seconds
            );
            match run::run(settings, workload, traced) {
                Ok(report) => {
                    for line in report.lines() {
                        println!("{line}");
                    }
                    for failure in report.tally.messages.iter().chain(&report.problems) {
                        eprintln!("uabench: {}: {failure}", workload.name());
                    }
                    reports.push(report);
                }
                Err(e) => {
                    eprintln!("uabench: {}: {e}", workload.name());
                    return ExitCode::FAILURE;
                }
            }
        }
    }
    if let Err(e) = report::write_results(&settings.out, &reports) {
        eprintln!("uabench: {e}");
        return ExitCode::FAILURE;
    }
    println!("{}", report::result_line(&reports));
    if reports.iter().all(report::Report::correct) {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
