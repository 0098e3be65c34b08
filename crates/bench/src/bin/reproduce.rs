//! Regenerates every table and figure of the DSN 2003 travel-agency paper.
//!
//! ```text
//! reproduce [ARTIFACT] [--csv] [--parallel]
//!           [--metrics <path>] [--trace <path>] [--bench-json <path>]
//!           [--inject <spec>] [--inject-seed <n>]
//!           [--port <p>] [--iterations <n>] [--workers <n>] [--queue <n>]
//!           [--addr <host:port>] [--requests <n>] [--clients <n>]
//!           [--spin-us <n>] [--seed <n>] [--deadline-ms <n>]
//!
//! ARTIFACT: table1 table2 table3 table4 table5 table6 table7 table8
//!           fig11 fig12 fig13 revenue capacity ablation deadline
//!           maintenance multisite ramp fit fta mttf validate session
//!           speedup bench simgate resilient serve loadgen all
//! ```
//!
//! `--parallel` runs the artifacts that have a multi-threaded form
//! (fig11, fig12, validate, session — and `all`, which includes the two
//! figures) on every core; any other artifact rejects the flag. The
//! figures are the one `figure_sweep` driver with more worker threads, so
//! their output is bit-for-bit identical to the serial run; the
//! simulations pool deterministic independent replications instead of one
//! long stream. `speedup` times serial vs parallel on the Figure 11/12
//! sweep and reports the ratio.
//!
//! `--metrics <path>` enables the `uavail-obs` recorder for the run and
//! writes a JSON-lines artifact to `path`: one meta record, then one
//! record per span (wall-clock tree), counter (sweep points, cache
//! hits/misses, simulated sessions), gauge, histogram (per-point
//! latencies) and label (RNG streams), plus a derived loss-cache hit
//! rate. Instrumentation never changes any reproduced number — the
//! `metrics_identity` integration test pins bit-for-bit equality with
//! recording on and off.
//!
//! `--trace <path>` enables trace-event collection for the run and writes
//! a Chrome-trace JSON timeline to `path` — open it in Perfetto
//! (<https://ui.perfetto.dev>) or `chrome://tracing`. The timeline shows
//! one lane per worker thread with `par.worker`/`par.chunk` spans, a span
//! per figure point, and instant events for memo and loss-cache traffic.
//! Like `--metrics`, tracing never changes any reproduced number.
//!
//! `--inject <spec>` arms the deterministic `uavail-faultinject` layer for
//! the run: a comma-separated list of `site[:rate]` entries (shorthands or
//! full site names, e.g. `gth:1.0,panic:0.05`; rates default to 0.25), with
//! `--inject-seed <n>` fixing the firing schedule. The exit code reports
//! what the faults did: 0 means the run completed clean, 2 means it
//! completed but degraded (a resilient report recorded typed failures, or
//! a solver fallback had to recover a solve), and 1 remains a fatal error.
//! Injection runs enable the obs recorder so `--metrics` artifacts carry
//! the fault and recovery counters (`faultinject.fired.*`,
//! `travel.farm.pi_fallbacks`, `markov.steady_state.fallbacks`), and they
//! install a quiet panic hook — injected worker panics are caught and
//! typed by the resilient layers, so the default per-panic backtrace would
//! only be noise.
//!
//! `resilient` runs the Figure 12 sweep on every core with the `Report`
//! failure policy and prints the report: every point that evaluated plus
//! a typed failure per point that did not, without aborting. It pairs with
//! `--inject` in the CI injection matrix.
//!
//! `bench` times the cold Figure 11, Figure 12 and Table 8 drivers, a
//! cold 2 000-server `sparse_farm` solve, the cold Figure 2 fit, a
//! cold/reuse pair for the `sim.farm_replication` kernel and two
//! telemetry hot paths, in-process, and prints the means; no timed row
//! replays a memo. `--bench-json <path>` additionally writes the
//! measurements as a JSON-lines artifact (schema `uavail-bench/v1`: one
//! meta record, one record per benchmark with
//! `name`/`mode`/`mean_ns`/`iters`, and one derived
//! `<name>.context_speedup` record per cold/reuse pair). The flag
//! implies the `bench` artifact when none is named; `bench` is excluded
//! from `all` because it is a timing run, not a paper artifact.
//!
//! `simgate` is the simulation statistical gate: it runs the joint farm
//! simulator (streaming batch-means replication) and the M/M/c/K queue
//! simulator against their analytic twins and exits nonzero unless the
//! analytic value falls inside every simulation confidence interval —
//! the pooled Wilson interval at z = 3.9 and, for the farm, the
//! batch-means interval as well. The farm validator also feeds its
//! pooled request outcomes into the live SLO monitor, whose independent
//! verdict must agree with the gate's — simgate doubles as the
//! end-to-end SLO-monitor test. Like `bench` it is excluded from `all`;
//! CI runs it as a standalone gate.
//!
//! `serve` attaches the live telemetry plane: it binds the std-only
//! `uavail-serve` HTTP listener on `--port <p>` (0 for an ephemeral
//! port; the bound address is printed as
//! `uavail-serve listening on http://…`), then runs `--iterations <n>`
//! evaluation rounds of the paper-parameter farm through the
//! epoch-resolvent streaming validator — one telemetry-clock second per
//! round, each round's pooled request outcomes fed into the SLO monitor
//! against the analytic `A(WS)` target and its wall-clock cost recorded
//! into a sliding window. After the rounds the logical clock freezes so
//! the windowed state never rotates out from under a scraper, and the
//! process serves `POST /eval` (batched what-if queries through the
//! overload-safe worker pool, sized by `--workers <c>` and
//! `--queue <slots>`) plus `/metrics`, `/health`, `/trace` and `/slo`
//! until `GET /shutdown`. `--iterations 0` skips the evaluation rounds
//! and goes straight to serving — the overload-smoke configuration.
//! Attaching the plane changes no reproduced number (pinned by the
//! serve crate's bit-identity test).
//!
//! `loadgen` is the closed-loop flood client for a running `serve`
//! process: `--clients <n>` threads complete `--requests <n>` logical
//! `POST /eval` requests against `--addr <host:port>` (each query
//! busy-spins `--spin-us` server-side, the service-time knob), retrying
//! sheds with capped exponential backoff + jitter seeded by `--seed`,
//! optionally attaching `--deadline-ms` as `X-Deadline-Ms`. It prints
//! the wire-outcome tally plus the server's `/slo` queueing self-model
//! and exits 1 when the overload contract is violated: any silent
//! drop, any `503` without `Retry-After`, or a measured shed rate whose
//! Wilson z = 3.9 band excludes the server's own M/M/c/K predicted
//! loss.

use std::process::ExitCode;

use uavail_bench::render;
use uavail_core::downtime::HOURS_PER_YEAR;
use uavail_core::par::{default_threads, Exec, OnFailure};
use uavail_travel::evaluation::{
    figure11, figure12, figure13, figure_grid, figure_sweep, min_web_servers_for, revenue_analysis,
    table8, FigurePoint, FigureReport, PAPER_A_WS, PAPER_TABLE8,
};
use uavail_travel::fig2::Fig2Probabilities;
use uavail_travel::functions::{self, TaFunction};
use uavail_travel::report::{fmt_availability, fmt_unavailability, Table};
use uavail_travel::sim_validation::{
    compressed_parameters, validate_web_service, validate_web_service_replicated,
    validate_web_service_streaming, ValidationReport,
};
use uavail_travel::user::{class_a, class_b};
use uavail_travel::{
    services, webservice, Architecture, Coverage, TaParameters, TravelAgencyModel, TravelError,
};

fn main() -> ExitCode {
    let mut csv = false;
    let mut parallel = false;
    let mut metrics: Option<String> = None;
    let mut trace: Option<String> = None;
    let mut bench_json: Option<String> = None;
    let mut inject: Option<String> = None;
    let mut inject_seed: Option<u64> = None;
    let mut port: Option<u16> = None;
    let mut iterations: Option<usize> = None;
    let mut workers: Option<usize> = None;
    let mut queue_slots: Option<usize> = None;
    let mut addr: Option<String> = None;
    let mut requests: Option<u64> = None;
    let mut clients: Option<usize> = None;
    let mut spin_us: Option<u64> = None;
    let mut load_seed: Option<u64> = None;
    let mut deadline_ms: Option<u64> = None;
    let mut artifact: Option<String> = None;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        if arg == "--csv" {
            csv = true;
        } else if arg == "--parallel" {
            parallel = true;
        } else if arg == "--inject" {
            match args.next() {
                Some(spec) => inject = Some(spec),
                None => {
                    eprintln!("reproduce: --inject requires a site spec (e.g. gth:1.0,panic:0.1)");
                    return ExitCode::FAILURE;
                }
            }
        } else if let Some(spec) = arg.strip_prefix("--inject=") {
            inject = Some(spec.to_string());
        } else if arg == "--inject-seed" {
            match args.next().map(|v| v.parse::<u64>()) {
                Some(Ok(seed)) => inject_seed = Some(seed),
                _ => {
                    eprintln!("reproduce: --inject-seed requires an unsigned integer");
                    return ExitCode::FAILURE;
                }
            }
        } else if let Some(seed_text) = arg.strip_prefix("--inject-seed=") {
            match seed_text.parse::<u64>() {
                Ok(seed) => inject_seed = Some(seed),
                Err(_) => {
                    eprintln!("reproduce: --inject-seed requires an unsigned integer");
                    return ExitCode::FAILURE;
                }
            }
        } else if arg == "--metrics" {
            // The path is a positional value of the flag, not an artifact.
            match args.next() {
                Some(path) => metrics = Some(path),
                None => {
                    eprintln!("reproduce: --metrics requires a file path");
                    return ExitCode::FAILURE;
                }
            }
        } else if let Some(path) = arg.strip_prefix("--metrics=") {
            metrics = Some(path.to_string());
        } else if arg == "--trace" {
            match args.next() {
                Some(path) => trace = Some(path),
                None => {
                    eprintln!("reproduce: --trace requires a file path");
                    return ExitCode::FAILURE;
                }
            }
        } else if let Some(path) = arg.strip_prefix("--trace=") {
            trace = Some(path.to_string());
        } else if arg == "--bench-json" {
            match args.next() {
                Some(path) => bench_json = Some(path),
                None => {
                    eprintln!("reproduce: --bench-json requires a file path");
                    return ExitCode::FAILURE;
                }
            }
        } else if let Some(path) = arg.strip_prefix("--bench-json=") {
            bench_json = Some(path.to_string());
        } else if arg == "--port" {
            match args.next().map(|v| v.parse::<u16>()) {
                Some(Ok(p)) => port = Some(p),
                _ => {
                    eprintln!("reproduce: --port requires a port number (0 for ephemeral)");
                    return ExitCode::FAILURE;
                }
            }
        } else if let Some(p_text) = arg.strip_prefix("--port=") {
            match p_text.parse::<u16>() {
                Ok(p) => port = Some(p),
                Err(_) => {
                    eprintln!("reproduce: --port requires a port number (0 for ephemeral)");
                    return ExitCode::FAILURE;
                }
            }
        } else if arg == "--iterations" {
            match args.next().map(|v| v.parse::<usize>()) {
                Some(Ok(n)) => iterations = Some(n),
                _ => {
                    eprintln!("reproduce: --iterations requires a round count (0 to skip rounds)");
                    return ExitCode::FAILURE;
                }
            }
        } else if let Some(n_text) = arg.strip_prefix("--iterations=") {
            match n_text.parse::<usize>() {
                Ok(n) => iterations = Some(n),
                _ => {
                    eprintln!("reproduce: --iterations requires a round count (0 to skip rounds)");
                    return ExitCode::FAILURE;
                }
            }
        } else if arg == "--workers" {
            match args.next().map(|v| v.parse::<usize>()) {
                Some(Ok(n)) if n >= 1 => workers = Some(n),
                _ => {
                    eprintln!("reproduce: --workers requires at least one worker");
                    return ExitCode::FAILURE;
                }
            }
        } else if let Some(n_text) = arg.strip_prefix("--workers=") {
            match n_text.parse::<usize>() {
                Ok(n) if n >= 1 => workers = Some(n),
                _ => {
                    eprintln!("reproduce: --workers requires at least one worker");
                    return ExitCode::FAILURE;
                }
            }
        } else if arg == "--queue" {
            match args.next().map(|v| v.parse::<usize>()) {
                Some(Ok(n)) => queue_slots = Some(n),
                _ => {
                    eprintln!("reproduce: --queue requires a waiting-slot count");
                    return ExitCode::FAILURE;
                }
            }
        } else if let Some(n_text) = arg.strip_prefix("--queue=") {
            match n_text.parse::<usize>() {
                Ok(n) => queue_slots = Some(n),
                _ => {
                    eprintln!("reproduce: --queue requires a waiting-slot count");
                    return ExitCode::FAILURE;
                }
            }
        } else if arg == "--addr" {
            match args.next() {
                Some(a) => addr = Some(a),
                None => {
                    eprintln!("reproduce: --addr requires a host:port");
                    return ExitCode::FAILURE;
                }
            }
        } else if let Some(a) = arg.strip_prefix("--addr=") {
            addr = Some(a.to_string());
        } else if arg == "--requests" {
            match args.next().map(|v| v.parse::<u64>()) {
                Some(Ok(n)) if n >= 1 => requests = Some(n),
                _ => {
                    eprintln!("reproduce: --requests requires a request count of at least 1");
                    return ExitCode::FAILURE;
                }
            }
        } else if let Some(n_text) = arg.strip_prefix("--requests=") {
            match n_text.parse::<u64>() {
                Ok(n) if n >= 1 => requests = Some(n),
                _ => {
                    eprintln!("reproduce: --requests requires a request count of at least 1");
                    return ExitCode::FAILURE;
                }
            }
        } else if arg == "--clients" {
            match args.next().map(|v| v.parse::<usize>()) {
                Some(Ok(n)) if n >= 1 => clients = Some(n),
                _ => {
                    eprintln!("reproduce: --clients requires at least one client thread");
                    return ExitCode::FAILURE;
                }
            }
        } else if let Some(n_text) = arg.strip_prefix("--clients=") {
            match n_text.parse::<usize>() {
                Ok(n) if n >= 1 => clients = Some(n),
                _ => {
                    eprintln!("reproduce: --clients requires at least one client thread");
                    return ExitCode::FAILURE;
                }
            }
        } else if arg == "--spin-us" {
            match args.next().map(|v| v.parse::<u64>()) {
                Some(Ok(n)) => spin_us = Some(n),
                _ => {
                    eprintln!("reproduce: --spin-us requires a microsecond count");
                    return ExitCode::FAILURE;
                }
            }
        } else if let Some(n_text) = arg.strip_prefix("--spin-us=") {
            match n_text.parse::<u64>() {
                Ok(n) => spin_us = Some(n),
                _ => {
                    eprintln!("reproduce: --spin-us requires a microsecond count");
                    return ExitCode::FAILURE;
                }
            }
        } else if arg == "--seed" {
            match args.next().map(|v| v.parse::<u64>()) {
                Some(Ok(n)) => load_seed = Some(n),
                _ => {
                    eprintln!("reproduce: --seed requires an unsigned integer");
                    return ExitCode::FAILURE;
                }
            }
        } else if let Some(n_text) = arg.strip_prefix("--seed=") {
            match n_text.parse::<u64>() {
                Ok(n) => load_seed = Some(n),
                _ => {
                    eprintln!("reproduce: --seed requires an unsigned integer");
                    return ExitCode::FAILURE;
                }
            }
        } else if arg == "--deadline-ms" {
            match args.next().map(|v| v.parse::<u64>()) {
                Some(Ok(n)) => deadline_ms = Some(n),
                _ => {
                    eprintln!("reproduce: --deadline-ms requires a millisecond budget");
                    return ExitCode::FAILURE;
                }
            }
        } else if let Some(n_text) = arg.strip_prefix("--deadline-ms=") {
            match n_text.parse::<u64>() {
                Ok(n) => deadline_ms = Some(n),
                _ => {
                    eprintln!("reproduce: --deadline-ms requires a millisecond budget");
                    return ExitCode::FAILURE;
                }
            }
        } else if arg.starts_with("--") {
            eprintln!("reproduce: unknown flag {arg:?}");
            return ExitCode::FAILURE;
        } else if artifact.is_none() {
            artifact = Some(arg);
        } else {
            eprintln!("reproduce: unexpected argument {arg:?}");
            return ExitCode::FAILURE;
        }
    }
    // `--bench-json` without an artifact means "run the benches".
    let artifact = artifact.unwrap_or_else(|| {
        if bench_json.is_some() {
            "bench".to_string()
        } else {
            "all".to_string()
        }
    });
    if !ARTIFACTS.iter().any(|(name, _)| *name == artifact)
        && !DRIVER_ARTIFACTS.contains(&artifact.as_str())
    {
        let names: Vec<&str> = ARTIFACTS
            .iter()
            .map(|(name, _)| *name)
            .chain(DRIVER_ARTIFACTS)
            .collect();
        eprintln!(
            "reproduce: unknown artifact {artifact:?}; expected one of: {}",
            names.join(", ")
        );
        return ExitCode::FAILURE;
    }
    if inject_seed.is_some() && inject.is_none() {
        eprintln!("reproduce: --inject-seed only applies together with --inject");
        return ExitCode::FAILURE;
    }
    if parallel
        && !matches!(
            artifact.as_str(),
            "fig11" | "fig12" | "validate" | "session" | "all"
        )
    {
        eprintln!(
            "reproduce: --parallel only applies to the fig11, fig12, validate, session and all artifacts"
        );
        return ExitCode::FAILURE;
    }
    if (port.is_some() || iterations.is_some() || workers.is_some() || queue_slots.is_some())
        && artifact != "serve"
    {
        eprintln!(
            "reproduce: --port, --iterations, --workers and --queue only apply to the `serve` artifact"
        );
        return ExitCode::FAILURE;
    }
    if (addr.is_some()
        || requests.is_some()
        || clients.is_some()
        || spin_us.is_some()
        || load_seed.is_some()
        || deadline_ms.is_some())
        && artifact != "loadgen"
    {
        eprintln!(
            "reproduce: --addr, --requests, --clients, --spin-us, --seed and --deadline-ms only apply to the `loadgen` artifact"
        );
        return ExitCode::FAILURE;
    }
    if artifact == "loadgen" {
        if bench_json.is_some() {
            eprintln!("reproduce: --bench-json only applies to the `bench` artifact");
            return ExitCode::FAILURE;
        }
        if inject.is_some() || metrics.is_some() || trace.is_some() {
            eprintln!(
                "reproduce: loadgen is a pure client; --inject, --metrics and --trace apply to the server process"
            );
            return ExitCode::FAILURE;
        }
        let Some(addr) = addr else {
            eprintln!(
                "reproduce: loadgen requires --addr <host:port> (printed by `reproduce serve` as its listening line)"
            );
            return ExitCode::FAILURE;
        };
        let cfg = uavail_serve::loadgen::LoadGenConfig {
            addr,
            requests: requests.unwrap_or(2000),
            clients: clients.unwrap_or(16),
            spin_us: spin_us.unwrap_or(2000),
            seed: load_seed.unwrap_or(42),
            deadline_ms,
            ..uavail_serve::loadgen::LoadGenConfig::default()
        };
        let report = uavail_serve::loadgen::run(&cfg);
        print_loadgen(&report, &cfg, csv);
        let violations = report.violations();
        if violations.is_empty() {
            println!("loadgen: overload contract held");
            return ExitCode::SUCCESS;
        }
        for violation in &violations {
            eprintln!("reproduce: loadgen: {violation}");
        }
        return ExitCode::FAILURE;
    }
    // Injection runs always record, so the degraded/clean verdict (and any
    // `--metrics` artifact) can read the fault and recovery counters.
    if metrics.is_some() || inject.is_some() {
        uavail_obs::set_enabled(true);
        uavail_obs::reset();
    }
    if trace.is_some() {
        uavail_obs::set_trace_enabled(true);
        uavail_obs::trace::reset();
    }
    if let Some(spec) = &inject {
        uavail_faultinject::set_seed(inject_seed.unwrap_or(0));
        if let Err(e) = uavail_faultinject::arm_spec(spec) {
            eprintln!("reproduce: --inject: {e}");
            return ExitCode::FAILURE;
        }
        uavail_faultinject::set_enabled(true);
        // Injected worker panics are caught and surfaced as typed
        // failures; the default hook would still print one backtrace per
        // fire, drowning the artifact output.
        std::panic::set_hook(Box::new(|_| {}));
        let armed = uavail_faultinject::armed_sites()
            .iter()
            .map(|(site, rate)| format!("{site}:{rate}"))
            .collect::<Vec<_>>()
            .join(", ");
        eprintln!(
            "injection armed (seed {}): {armed}",
            inject_seed.unwrap_or(0)
        );
    }
    if artifact == "resilient" {
        if bench_json.is_some() {
            eprintln!("reproduce: --bench-json only applies to the `bench` artifact");
            return ExitCode::FAILURE;
        }
        // Every core, every point: failures are reported, never fatal.
        let exec = Exec {
            threads: default_threads(),
            on_failure: OnFailure::Report,
        };
        let report = {
            let _run = uavail_obs::span("reproduce");
            match figure_sweep(Coverage::Imperfect, &exec) {
                Ok(report) => report,
                Err(e) => {
                    eprintln!("reproduce: {e}");
                    return ExitCode::FAILURE;
                }
            }
        };
        print_resilient(&report, csv);
        if let Some(path) = metrics {
            if let Err(e) = write_metrics(&path, &artifact, parallel, inject.as_deref()) {
                eprintln!("reproduce: {e}");
                return ExitCode::FAILURE;
            }
        }
        if let Some(path) = trace {
            if let Err(e) = write_trace(&path) {
                eprintln!("reproduce: {e}");
                return ExitCode::FAILURE;
            }
        }
        return if report.is_complete() {
            exit_verdict(inject.is_some())
        } else {
            ExitCode::from(2)
        };
    }
    if artifact == "simgate" {
        if bench_json.is_some() {
            eprintln!("reproduce: --bench-json only applies to the `bench` artifact");
            return ExitCode::FAILURE;
        }
        // Handled here rather than in `run` because a statistical
        // disagreement is a gate failure (nonzero exit), not a fatal
        // error in the ordinary sense.
        let verdict = {
            let _run = uavail_obs::span("reproduce");
            run_simgate(csv)
        };
        let agreed = match verdict {
            Ok(agreed) => agreed,
            Err(e) => {
                eprintln!("reproduce: {e}");
                return ExitCode::FAILURE;
            }
        };
        if let Some(path) = metrics {
            if let Err(e) = write_metrics(&path, &artifact, parallel, inject.as_deref()) {
                eprintln!("reproduce: {e}");
                return ExitCode::FAILURE;
            }
        }
        if let Some(path) = trace {
            if let Err(e) = write_trace(&path) {
                eprintln!("reproduce: {e}");
                return ExitCode::FAILURE;
            }
        }
        if !agreed {
            eprintln!("reproduce: simgate: a simulator disagrees with its analytic twin");
            return ExitCode::FAILURE;
        }
        return exit_verdict(inject.is_some());
    }
    if artifact == "serve" {
        if bench_json.is_some() {
            eprintln!("reproduce: --bench-json only applies to the `bench` artifact");
            return ExitCode::FAILURE;
        }
        // The plane records by definition — without the recorder there is
        // nothing to serve. (`--metrics`/`--inject` already enabled it.)
        if metrics.is_none() && inject.is_none() {
            uavail_obs::set_enabled(true);
            uavail_obs::reset();
        }
        let result = {
            let _run = uavail_obs::span("reproduce");
            run_serve(
                port.unwrap_or(0),
                iterations.unwrap_or(6),
                workers,
                queue_slots,
                csv,
            )
        };
        if let Err(e) = result {
            eprintln!("reproduce: {e}");
            return ExitCode::FAILURE;
        }
        if let Some(path) = metrics {
            if let Err(e) = write_metrics(&path, &artifact, parallel, inject.as_deref()) {
                eprintln!("reproduce: {e}");
                return ExitCode::FAILURE;
            }
        }
        if let Some(path) = trace {
            if let Err(e) = write_trace(&path) {
                eprintln!("reproduce: {e}");
                return ExitCode::FAILURE;
            }
        }
        return exit_verdict(inject.is_some());
    }
    if artifact == "bench" {
        // The bench artifact is handled here rather than in `run` because
        // the JSON emitter needs the raw measurements, not just stdout.
        let measurements = {
            let _run = uavail_obs::span("reproduce");
            match run_context_benches() {
                Ok(m) => m,
                Err(e) => {
                    eprintln!("reproduce: {e}");
                    return ExitCode::FAILURE;
                }
            }
        };
        print_bench_table(&measurements, csv);
        if let Some(path) = bench_json {
            if let Err(e) = write_bench_json(&path, &measurements) {
                eprintln!("reproduce: {e}");
                return ExitCode::FAILURE;
            }
        }
        if let Some(path) = metrics {
            if let Err(e) = write_metrics(&path, &artifact, parallel, inject.as_deref()) {
                eprintln!("reproduce: {e}");
                return ExitCode::FAILURE;
            }
        }
        if let Some(path) = trace {
            if let Err(e) = write_trace(&path) {
                eprintln!("reproduce: {e}");
                return ExitCode::FAILURE;
            }
        }
        return exit_verdict(inject.is_some());
    }
    if bench_json.is_some() {
        eprintln!("reproduce: --bench-json only applies to the `bench` artifact");
        return ExitCode::FAILURE;
    }
    let result = {
        let _run = uavail_obs::span("reproduce");
        run(&artifact, csv, parallel)
    };
    if let Err(e) = result {
        eprintln!("reproduce: {e}");
        return ExitCode::FAILURE;
    }
    if let Some(path) = metrics {
        if let Err(e) = write_metrics(&path, &artifact, parallel, inject.as_deref()) {
            eprintln!("reproduce: {e}");
            return ExitCode::FAILURE;
        }
    }
    if let Some(path) = trace {
        if let Err(e) = write_trace(&path) {
            eprintln!("reproduce: {e}");
            return ExitCode::FAILURE;
        }
    }
    exit_verdict(inject.is_some())
}

/// Exit-code taxonomy: 0 clean, 1 fatal (returned as `ExitCode::FAILURE`
/// before reaching this point), 2 completed-degraded. Degradation is read
/// from the recorder — which injection runs always enable — as either a
/// resilient engine that recorded typed failures or a steady-state
/// fallback that had to rescue a solve.
fn exit_verdict(injecting: bool) -> ExitCode {
    if !injecting {
        return ExitCode::SUCCESS;
    }
    let snap = uavail_obs::snapshot();
    let degraded = snap.counter("core.sweep.resilient.failures") > 0
        || snap.counter("travel.figure.resilient.failures") > 0
        || snap.counter("travel.farm.pi_fallbacks") > 0
        || snap.counter("markov.steady_state.fallbacks") > 0;
    if degraded {
        ExitCode::from(2)
    } else {
        ExitCode::SUCCESS
    }
}

/// Renders the resilient Figure 12 report: the full grid when every point
/// evaluated, otherwise a summary plus one typed failure row per point the
/// sweep survived losing.
fn print_resilient(report: &FigureReport, csv: bool) {
    if report.is_complete() {
        figure_table(
            "Figure 12 — resilient sweep (imperfect coverage), all points evaluated",
            &report.points,
            csv,
        );
        println!(
            "(panic-isolated engine; 0 of {} points failed)",
            report.points.len()
        );
        return;
    }
    let mut t = Table::new(
        "Figure 12 — resilient sweep (imperfect coverage), degraded",
        vec!["quantity", "value"],
    );
    t.add_row(vec![
        "points evaluated".into(),
        report.points.len().to_string(),
    ]);
    t.add_row(vec![
        "points failed".into(),
        report.failures.len().to_string(),
    ]);
    print!("{}", render(&t, csv));
    println!();
    let mut f = Table::new(
        "Resilient sweep failures (typed, per grid point)",
        vec!["index", "lambda (1/h)", "alpha (1/s)", "N_W", "error"],
    );
    for fail in &report.failures {
        f.add_row(vec![
            fail.index.to_string(),
            format!("{:.0e}", fail.failure_rate_per_hour),
            format!("{:.0}", fail.arrival_rate_per_second),
            fail.web_servers.to_string(),
            fail.error.to_string(),
        ]);
    }
    print!("{}", render(&f, csv));
}

/// Drains the collected trace events and writes them as a Chrome-trace
/// JSON array, self-validating the document before it touches disk, just
/// like the metrics and bench emitters.
fn write_trace(path: &str) -> Result<(), String> {
    let data = uavail_obs::take_trace();
    let json = data.to_chrome_trace();
    let events = uavail_obs::trace::validate_chrome_trace(&json)
        .map_err(|e| format!("internal error: trace artifact failed validation: {e}"))?;
    std::fs::write(path, &json).map_err(|e| format!("cannot write {path}: {e}"))?;
    if data.dropped > 0 {
        eprintln!(
            "wrote {events} trace events to {path} ({} dropped at ring capacity)",
            data.dropped
        );
    } else {
        eprintln!("wrote {events} trace events to {path}");
    }
    Ok(())
}

/// Pinned-seed serve scenario: the paper-parameter farm evaluated
/// through the epoch-resolvent streaming validator. The kernel's
/// conditional-expectation estimates keep a paper-scale horizon cheap
/// (the per-replication cost is the slow failure/repair chain, not the
/// ~10⁷ requests the counters report), and the seed is pinned so the CI
/// smoke job sees a reproducible measured-vs-analytic comparison.
const SERVE_SEED: u64 = 20240601;
const SERVE_HORIZON: f64 = 200_000.0;
const SERVE_REPLICATIONS: usize = 8;

/// Runs the resident evaluator with the telemetry plane attached: binds
/// the listener, prints the bound address (machine-parseable by the CI
/// smoke job), runs `iterations` pinned-seed evaluation rounds feeding
/// the SLO monitor and the sliding windows — one telemetry-clock second
/// per round — prints the measured-vs-analytic summary, then serves
/// until a client requests `/shutdown`.
fn run_serve(
    port: u16,
    iterations: usize,
    workers: Option<usize>,
    queue_slots: Option<usize>,
    csv: bool,
) -> Result<(), String> {
    use std::time::Instant;

    let params = TaParameters::paper_defaults();
    let analytic =
        webservice::redundant_imperfect_availability(&params).map_err(|e| e.to_string())?;
    uavail_obs::slo_configure(uavail_obs::SloConfig {
        target_availability: Some(analytic),
        ..uavail_obs::SloConfig::default()
    });
    let mut plane = uavail_serve::QueryPlaneConfig::default();
    if let Some(c) = workers {
        plane.workers = c;
    }
    if let Some(slots) = queue_slots {
        plane.queue_slots = slots;
    }
    let server = uavail_serve::ObsServer::start_with(("127.0.0.1", port), plane)
        .map_err(|e| format!("serve: {e}"))?;
    println!("uavail-serve listening on http://{}", server.addr());
    println!(
        "endpoints: POST /eval ({} workers, {} queue slots) · GET /metrics /health /slo /trace /shutdown",
        plane.workers, plane.queue_slots
    );

    let threads = default_threads();
    const EPOCH_NS: u64 = 1_000_000_000;
    for round in 0..iterations {
        // The telemetry clock advances one epoch per round; the window
        // and SLO state are a pure function of this schedule, never of
        // the wall clock.
        uavail_obs::clock_advance_to((round as u64 + 1) * EPOCH_NS);
        let started = Instant::now();
        validate_web_service_streaming(
            &params,
            SERVE_HORIZON,
            SERVE_SEED.wrapping_add(round as u64),
            SERVE_REPLICATIONS,
            threads,
        )
        .map_err(|e| e.to_string())?;
        uavail_obs::window_record("serve.eval_ns", started.elapsed().as_nanos() as u64);
    }

    if iterations > 0 {
        let slo = uavail_obs::slo_snapshot().ok_or("serve: the SLO monitor vanished mid-run")?;
        let mut t = Table::new(
            "Serve — live SLO estimate vs analytic A(WS), paper parameters",
            vec!["quantity", "value"],
        );
        t.add_row(vec!["analytic A(WS)".into(), format!("{analytic:.9}")]);
        t.add_row(vec![
            "measured availability".into(),
            format!("{:.9}", slo.availability),
        ]);
        t.add_row(vec![
            "Wilson 99.99% CI".into(),
            format!("[{:.9}, {:.9}]", slo.availability_lo, slo.availability_hi),
        ]);
        t.add_row(vec![
            "divergence".into(),
            format!("{:+.3e}", slo.divergence),
        ]);
        t.add_row(vec!["requests observed".into(), slo.total.to_string()]);
        t.add_row(vec!["slo state".into(), slo.state.as_str().into()]);
        print!("{}", render(&t, csv));
    }

    // The rounds (if any) are done and the logical clock stays frozen,
    // so the windowed state a scraper sees is exactly the summary above.
    println!("serve: evaluation rounds complete; serving until GET /shutdown");
    server.join();
    Ok(())
}

/// Renders the loadgen flood tally plus the server's post-flood
/// M/M/c/K self-model scrape; the violation list (the actual gate) is
/// printed by the caller.
fn print_loadgen(
    report: &uavail_serve::loadgen::LoadReport,
    cfg: &uavail_serve::loadgen::LoadGenConfig,
    csv: bool,
) {
    let mut t = Table::new(
        "Loadgen — closed-loop /eval flood, wire outcomes",
        vec!["quantity", "value"],
    );
    t.add_row(vec![
        "target".into(),
        format!(
            "{} ({} clients × {} requests, spin {} µs, seed {})",
            cfg.addr, cfg.clients, cfg.requests, cfg.spin_us, cfg.seed
        ),
    ]);
    t.add_row(vec!["wire attempts".into(), report.attempts.to_string()]);
    t.add_row(vec![
        "200 OK (degraded)".into(),
        format!("{} ({})", report.ok, report.ok_degraded),
    ]);
    t.add_row(vec![
        "503 shed (missing Retry-After)".into(),
        format!("{} ({})", report.shed, report.shed_without_retry_after),
    ]);
    t.add_row(vec![
        "500 worker panic".into(),
        report.server_errors.to_string(),
    ]);
    t.add_row(vec![
        "504 deadline".into(),
        report.deadline_timeouts.to_string(),
    ]);
    t.add_row(vec!["other status".into(), report.other_status.to_string()]);
    t.add_row(vec!["silent drops".into(), report.silent_drops.to_string()]);
    t.add_row(vec![
        "retries exhausted".into(),
        report.retries_exhausted.to_string(),
    ]);
    t.add_row(vec![
        "elapsed".into(),
        format!("{:.2}s", report.elapsed.as_secs_f64()),
    ]);
    match &report.queueing {
        None => t.add_row(vec!["server /slo scrape".into(), "FAILED".into()]),
        Some(q) => {
            t.add_row(vec![
                "server arrivals / shed / completed".into(),
                format!("{} / {} / {}", q.arrivals, q.shed, q.completions),
            ]);
            t.add_row(vec![
                "worker panics / restarts".into(),
                format!("{} / {}", q.worker_panics, q.worker_restarts),
            ]);
            t.add_row(vec![
                "measured shed rate (Wilson z=3.9)".into(),
                format!(
                    "{:.4} [{:.4}, {:.4}]",
                    q.measured_shed_rate, q.shed_lo, q.shed_hi
                ),
            ]);
            t.add_row(vec![
                "M/M/c/K predicted loss".into(),
                q.predicted_loss
                    .map(|p| format!("{p:.4}"))
                    .unwrap_or_else(|| "unavailable".into()),
            ]);
            t.add_row(vec![
                "self-model agrees".into(),
                q.agrees
                    .map(|a| a.to_string())
                    .unwrap_or_else(|| "n/a".into()),
            ]);
        }
    }
    print!("{}", render(&t, csv));
}

/// One in-process benchmark measurement: a named case in `cold_build`,
/// `context_reuse` (a warm `SimContext`) or (memo-free paths) `cold`
/// mode.
struct BenchMeasurement {
    name: &'static str,
    mode: &'static str,
    mean_ns: f64,
    iters: u64,
}

/// Times the Figure 11, Figure 12 and Table 8 drivers cold (the loss
/// memo reset before every iteration) in-process, plus a cold
/// `sparse_farm` solve of a 2 000-server (4 001-state) imperfect-coverage
/// farm through the sparse CTMC route and a `sim.farm_replication` pair
/// that times the per-event replication baseline against the
/// epoch-resolvent streaming path. Cold iterations allocate everything
/// fresh; the reuse iteration runs on one long-lived `SimContext`, whose
/// epoch tables are storage, not a result memo.
fn run_context_benches() -> Result<Vec<BenchMeasurement>, TravelError> {
    use std::hint::black_box;
    use std::time::Instant;

    // One calibration call sizes the loop to roughly this much wall
    // clock per case; small enough for CI, large enough to average out
    // scheduler noise.
    const BUDGET_S: f64 = 0.2;

    fn time(mut f: impl FnMut() -> Result<(), TravelError>) -> Result<(f64, u64), TravelError> {
        let calibrate = Instant::now();
        f()?;
        let per_iter = calibrate.elapsed().as_secs_f64().max(1e-9);
        let iters = ((BUDGET_S / per_iter) as u64).clamp(3, 5_000);
        let start = Instant::now();
        for _ in 0..iters {
            f()?;
        }
        Ok((start.elapsed().as_secs_f64() * 1e9 / iters as f64, iters))
    }

    let mut out = Vec::with_capacity(10);
    // The paper drivers as `reproduce` runs them, each iteration paying
    // every loss-model miss.
    type Driver = fn() -> Result<(), TravelError>;
    let drivers: [(&'static str, Driver); 3] = [
        ("figure11", || {
            black_box(figure11()?);
            Ok(())
        }),
        ("figure12", || {
            black_box(figure12()?);
            Ok(())
        }),
        ("table8", || {
            black_box(table8()?);
            Ok(())
        }),
    ];
    for (name, driver) in drivers {
        let (mean_ns, iters) = time(|| {
            webservice::reset_loss_cache();
            driver()
        })?;
        out.push(BenchMeasurement {
            name,
            mode: "cold_build",
            mean_ns,
            iters,
        });
    }
    // A farm big enough to cross the sparse routing cutoff: 2 000
    // servers → 4 001 composite states, solved iteratively in CSR. The
    // rates keep n·λ below µ (the paper's operating regime) so the
    // stationary mass stays at the all-up end. Every iteration allocates
    // the transition list and distribution vectors and runs the full
    // Gauss–Seidel solve; nothing on this path is memoized.
    let sparse_params = TaParameters::builder()
        .web_servers(2_000)
        .buffer_size(2_000)
        .failure_rate_per_hour(1e-6)
        .repair_rate_per_hour(10.0)
        .build()?;
    let (mean_ns, iters) = time(|| {
        black_box(webservice::farm_distribution_imperfect_sparse(
            &sparse_params,
        )?);
        Ok(())
    })?;
    out.push(BenchMeasurement {
        name: "sparse_farm",
        mode: "cold_build",
        mean_ns,
        iters,
    });

    // Simulation replication throughput: cold is the per-event
    // linear-scan farm DES with a materialized replication history fed to
    // one-shot batch means; reuse is the epoch-resolvent counting kernel
    // streamed through fold replication on one warm `SimContext` into
    // one-pass batch means. Same model, same seeds, same estimator — the
    // kernel replaces O(requests) event work per replication with
    // O(slow-chain transitions) resolvent lookups.
    {
        use uavail_sim::replicate::{replicate, replicate_fold};
        use uavail_sim::stats::{batch_means, StreamingBatchMeans};
        use uavail_sim::{FarmSimulation, SimContext, SimError};

        let farm = FarmSimulation::new(3, 0.02, 1.0, 0.9, 6.0, 300.0, 150.0, 8)?;
        let reps = 4usize;
        let horizon = 1_000.0;
        let (mean_ns, iters) = time(|| {
            let obs = replicate(20240601, reps, |rng, _| farm.run(rng, horizon))?;
            let fractions: Vec<f64> = obs.iter().map(|o| o.loss_fraction()).collect();
            black_box(batch_means(&fractions, reps));
            Ok(())
        })?;
        out.push(BenchMeasurement {
            name: "sim.farm_replication",
            mode: "cold_build",
            mean_ns,
            iters,
        });
        let mut ctx = SimContext::new();
        let mut streaming = || {
            let stats = replicate_fold(
                20240601,
                reps,
                |rng, _| {
                    farm.run_counts_with(&mut ctx, rng, horizon)
                        .map(|c| c.loss_fraction())
                },
                StreamingBatchMeans::new(reps, reps)
                    .ok_or(TravelError::Sim(SimError::NoObservations))?,
                |acc, x| acc.push(x),
            )?;
            black_box(stats.finish());
            Ok(())
        };
        streaming()?; // warm the context outside the timed loop
        let (mean_ns, iters) = time(streaming)?;
        out.push(BenchMeasurement {
            name: "sim.farm_replication",
            mode: "context_reuse",
            mean_ns,
            iters,
        });
    }

    // The Figure 2 fit as the `fit` artifact runs it. Nothing on this
    // path is memoized, so every iteration is cold.
    let (mean_ns, iters) = time(|| {
        black_box(fit_fig2()?);
        Ok(())
    })?;
    out.push(BenchMeasurement {
        name: "fig2_fit",
        mode: "cold",
        mean_ns,
        iters,
    });

    // Telemetry-plane hot paths: the sliding-window record (including
    // its occasional epoch rotation) and the SLO monitor's outcome fold.
    // One timed call is a batch of 1024 operations — a single operation
    // is tens of nanoseconds, far below the calibration loop's
    // resolution — and the recorded mean is divided back to per
    // operation. The timestamp steps make each batch cross roughly one
    // epoch boundary, so rotation cost is inside the measurement.
    {
        use uavail_obs::{SlidingWindow, SloConfig, SloMonitor};
        const BATCH: u64 = 1024;
        let mut window = SlidingWindow::new(1_000_000, 60);
        let mut w_now = 0u64;
        let (mean_ns, iters) = time(|| {
            for i in 0..BATCH {
                w_now += 977;
                window.record(w_now, i * 97 % 4096);
            }
            black_box(&mut window);
            Ok(())
        })?;
        out.push(BenchMeasurement {
            name: "obs.window",
            mode: "record",
            mean_ns: mean_ns / BATCH as f64,
            iters,
        });
        let mut monitor = SloMonitor::new(SloConfig {
            target_availability: Some(PAPER_A_WS),
            ..SloConfig::default()
        });
        let mut s_now = 0u64;
        let (mean_ns, iters) = time(|| {
            for i in 0..BATCH {
                s_now += 977_000;
                monitor.record_outcomes(s_now, "farm", 1_000, i % 3, 0);
            }
            black_box(&mut monitor);
            Ok(())
        })?;
        out.push(BenchMeasurement {
            name: "obs.slo",
            mode: "fold",
            mean_ns: mean_ns / BATCH as f64,
            iters,
        });
    }
    Ok(out)
}

fn print_bench_table(measurements: &[BenchMeasurement], csv: bool) {
    let mut t = Table::new(
        "Bench — cold builds and warm SimContext reuse (in-process means)",
        vec!["case", "mode", "mean (ms)", "iters"],
    );
    for m in measurements {
        t.add_row(vec![
            m.name.to_string(),
            m.mode.to_string(),
            format!("{:.3}", m.mean_ns / 1e6),
            m.iters.to_string(),
        ]);
    }
    print!("{}", render(&t, csv));
    for (name, speedup) in context_speedups(measurements) {
        println!("{name}: context reuse is {speedup:.2}x faster than cold build");
    }
}

/// `(name, cold_mean / reuse_mean)` for every case measured in both
/// `cold_build` and `context_reuse` mode.
fn context_speedups(measurements: &[BenchMeasurement]) -> Vec<(&str, f64)> {
    let mut out = Vec::new();
    for m in measurements.iter().filter(|m| m.mode == "cold_build") {
        if let Some(other) = measurements
            .iter()
            .find(|w| w.name == m.name && w.mode == "context_reuse")
        {
            out.push((m.name, m.mean_ns / other.mean_ns));
        }
    }
    out
}

/// Serializes bench measurements to `path` as JSON lines under the
/// `uavail-bench/v1` schema: one meta record, one record per measurement,
/// and a derived `<name>.context_speedup` per cold/reuse pair. Validated
/// by the in-tree JSON parser before anything touches the filesystem.
fn write_bench_json(path: &str, measurements: &[BenchMeasurement]) -> Result<(), String> {
    use uavail_obs::json::JsonValue;
    let mut out = String::new();
    out.push_str(
        &JsonValue::object(vec![
            ("type", JsonValue::str("meta")),
            ("schema", JsonValue::str("uavail-bench/v1")),
            ("artifact", JsonValue::str("bench")),
            ("threads", JsonValue::UInt(default_threads() as u64)),
        ])
        .to_string(),
    );
    out.push('\n');
    for m in measurements {
        out.push_str(
            &JsonValue::object(vec![
                ("type", JsonValue::str("bench")),
                ("name", JsonValue::str(m.name)),
                ("mode", JsonValue::str(m.mode)),
                ("mean_ns", JsonValue::Float(m.mean_ns)),
                ("iters", JsonValue::UInt(m.iters)),
            ])
            .to_string(),
        );
        out.push('\n');
    }
    for (name, speedup) in context_speedups(measurements) {
        out.push_str(
            &JsonValue::object(vec![
                ("type", JsonValue::str("derived")),
                ("name", JsonValue::str(format!("{name}.context_speedup"))),
                ("value", JsonValue::Float(speedup)),
            ])
            .to_string(),
        );
        out.push('\n');
    }
    let records = uavail_obs::json::validate_lines(&out)
        .map_err(|e| format!("bench artifact failed JSON validation: {e}"))?;
    std::fs::write(path, &out).map_err(|e| format!("cannot write bench JSON to {path}: {e}"))?;
    eprintln!("wrote {records} bench records to {path}");
    Ok(())
}

/// Serializes the global recorder to `path` as JSON lines: a meta record,
/// the snapshot records (counters, gauges, spans, histograms, labels) and
/// a derived loss-cache hit rate. The artifact is validated by the
/// in-tree JSON parser before anything touches the filesystem.
fn write_metrics(
    path: &str,
    artifact: &str,
    parallel: bool,
    inject: Option<&str>,
) -> Result<(), String> {
    use uavail_obs::json::JsonValue;
    let snap = uavail_obs::snapshot();
    let mut out = String::new();
    let mut meta = vec![
        ("type", JsonValue::str("meta")),
        ("schema", JsonValue::str("uavail-obs/v1")),
        ("artifact", JsonValue::str(artifact)),
        ("parallel", JsonValue::Bool(parallel)),
        ("threads", JsonValue::UInt(default_threads() as u64)),
    ];
    if let Some(spec) = inject {
        meta.push(("inject", JsonValue::str(spec)));
    }
    out.push_str(&JsonValue::object(meta).to_string());
    out.push('\n');
    out.push_str(&snap.to_json_lines());
    // Two telemetry-plane records that live outside the recorder ride
    // along: the trace ring's drop counter (satellite of the overflow
    // accounting — also served as `uavail_trace_dropped_total`) and, when
    // a monitor exists, the graded SLO snapshot.
    out.push_str(
        &JsonValue::object(vec![
            ("type", JsonValue::str("counter")),
            ("name", JsonValue::str("trace.dropped")),
            ("value", JsonValue::UInt(uavail_obs::trace::dropped_total())),
        ])
        .to_string(),
    );
    out.push('\n');
    if let Some(slo) = uavail_obs::slo_snapshot() {
        out.push_str(
            &JsonValue::object(vec![
                ("type", JsonValue::str("slo")),
                ("slo", slo.to_json()),
            ])
            .to_string(),
        );
        out.push('\n');
    }
    let hits = snap.counter("travel.loss_cache.hits");
    let misses = snap.counter("travel.loss_cache.misses");
    if hits + misses > 0 {
        out.push_str(
            &JsonValue::object(vec![
                ("type", JsonValue::str("derived")),
                ("name", JsonValue::str("travel.loss_cache.hit_rate")),
                (
                    "value",
                    JsonValue::Float(hits as f64 / (hits + misses) as f64),
                ),
            ])
            .to_string(),
        );
        out.push('\n');
    }
    let records = uavail_obs::json::validate_lines(&out)
        .map_err(|e| format!("metrics artifact failed JSON validation: {e}"))?;
    std::fs::write(path, &out).map_err(|e| format!("cannot write metrics to {path}: {e}"))?;
    eprintln!("wrote {records} metric records to {path}");
    Ok(())
}

type ArtifactFn = fn(bool) -> Result<(), TravelError>;

/// The artifacts [`run`] prints, in `all` order.
const ARTIFACTS: &[(&str, ArtifactFn)] = &[
    ("table1", print_table1),
    ("table2", print_table2),
    ("table3", print_table3),
    ("table4", print_table4),
    ("table5", print_table5),
    ("table6", print_table6),
    ("table7", print_table7),
    ("table8", print_table8),
    ("fig11", print_fig11),
    ("fig12", print_fig12),
    ("fig13", print_fig13),
    ("revenue", print_revenue),
    ("capacity", print_capacity),
    ("ablation", print_ablation),
    ("deadline", print_deadline),
    ("maintenance", print_maintenance),
    ("multisite", print_multisite),
    ("ramp", print_ramp),
    ("fit", print_fit),
    ("fta", print_fta),
    ("mttf", print_mttf),
    ("validate", print_validate),
    ("session", print_session),
    ("speedup", print_speedup),
];

/// The artifacts `main` drives itself, because their exit code or output
/// is more than a printed table.
const DRIVER_ARTIFACTS: [&str; 6] = ["bench", "simgate", "resilient", "serve", "loadgen", "all"];

/// Swaps in the multi-threaded implementation for the artifacts that have
/// one when `--parallel` is requested; everything else runs as-is.
fn select(name: &str, serial: ArtifactFn, parallel: bool) -> ArtifactFn {
    if !parallel {
        return serial;
    }
    match name {
        "fig11" => print_fig11_parallel,
        "fig12" => print_fig12_parallel,
        "validate" => print_validate_parallel,
        "session" => print_session_parallel,
        _ => serial,
    }
}

fn run(artifact: &str, csv: bool, parallel: bool) -> Result<(), TravelError> {
    if artifact == "all" {
        for (name, f) in ARTIFACTS {
            if *name == "validate" || *name == "session" || *name == "speedup" {
                // Simulations and timing runs take tens of seconds; only
                // on request.
                println!("(skipping `{name}` in `all`; run `reproduce {name}`)\n");
                continue;
            }
            select(name, *f, parallel)(csv)?;
            println!();
        }
        return Ok(());
    }
    let (name, f) = ARTIFACTS
        .iter()
        .find(|(name, _)| *name == artifact)
        .expect("main rejects unknown artifacts");
    select(name, *f, parallel)(csv)
}

fn print_table1(csv: bool) -> Result<(), TravelError> {
    let mut t = Table::new(
        "Table 1 — user scenario probabilities (%)",
        vec!["scenario", "class A", "class B"],
    );
    let a = class_a();
    let b = class_b();
    for (sa, sb) in a.table().scenarios().iter().zip(b.table().scenarios()) {
        t.add_row(vec![
            sa.label.clone(),
            format!("{:.1}", sa.probability * 100.0),
            format!("{:.1}", sb.probability * 100.0),
        ]);
    }
    print!("{}", render(&t, csv));
    Ok(())
}

fn print_table2(csv: bool) -> Result<(), TravelError> {
    let mut t = Table::new(
        "Table 2 — mapping between functions and services",
        vec!["function", "services"],
    );
    for (f, svcs) in functions::service_mapping() {
        t.add_row(vec![f.name().to_string(), svcs.join(", ")]);
    }
    print!("{}", render(&t, csv));
    Ok(())
}

fn print_table3(csv: bool) -> Result<(), TravelError> {
    let mut t = Table::new(
        "Table 3 — external service availability (A_sys = 0.9)",
        vec!["N_F = N_H = N_C", "A(Flight)=A(Hotel)=A(Car)", "A(Payment)"],
    );
    for n in [1usize, 2, 3, 4, 5, 10] {
        let p = TaParameters::paper_defaults().with_reservation_systems(n);
        t.add_row(vec![
            n.to_string(),
            fmt_availability(services::flight(&p)?),
            fmt_availability(services::payment(&p)),
        ]);
    }
    print!("{}", render(&t, csv));
    Ok(())
}

fn print_table4(csv: bool) -> Result<(), TravelError> {
    let p = TaParameters::paper_defaults();
    let mut t = Table::new(
        "Table 4 — application and database service availability",
        vec!["service", "basic", "redundant"],
    );
    t.add_row(vec![
        "A(AS)".into(),
        fmt_availability(services::application(&p, Architecture::Basic)?),
        fmt_availability(services::application(&p, Architecture::paper_reference())?),
    ]);
    t.add_row(vec![
        "A(DS)".into(),
        fmt_availability(services::database(&p, Architecture::Basic)?),
        fmt_availability(services::database(&p, Architecture::paper_reference())?),
    ]);
    print!("{}", render(&t, csv));
    Ok(())
}

fn print_table5(csv: bool) -> Result<(), TravelError> {
    let p = TaParameters::paper_defaults();
    let mut t = Table::new(
        "Table 5 — web service availability (reference parameters)",
        vec!["model", "A(WS)", "unavailability"],
    );
    let basic = webservice::basic_availability(&p)?;
    let perfect = webservice::redundant_perfect_availability(&p)?;
    let imperfect = webservice::redundant_imperfect_availability(&p)?;
    for (name, a) in [
        ("basic (eq. 2)", basic),
        ("redundant, perfect coverage (eq. 5)", perfect),
        ("redundant, imperfect coverage (eq. 9)", imperfect),
    ] {
        t.add_row(vec![
            name.into(),
            format!("{a:.9}"),
            fmt_unavailability(1.0 - a),
        ]);
    }
    print!("{}", render(&t, csv));
    println!(
        "paper A(WS) = {PAPER_A_WS:.9}; reproduced = {imperfect:.9} \
         (delta {:.1e})",
        (imperfect - PAPER_A_WS).abs()
    );
    Ok(())
}

fn print_table6(csv: bool) -> Result<(), TravelError> {
    let model = TravelAgencyModel::new(
        TaParameters::paper_defaults(),
        Architecture::paper_reference(),
    )?;
    let mut t = Table::new(
        "Table 6 — function availabilities (reference architecture)",
        vec!["function", "availability", "downtime (h/yr)"],
    );
    for f in TaFunction::all() {
        let a = model.function_availability(f)?;
        t.add_row(vec![
            f.name().to_string(),
            fmt_availability(a),
            format!("{:.1}", (1.0 - a) * HOURS_PER_YEAR),
        ]);
    }
    print!("{}", render(&t, csv));
    Ok(())
}

fn print_table7(csv: bool) -> Result<(), TravelError> {
    let p = TaParameters::paper_defaults();
    let mut t = Table::new("Table 7 — model parameters", vec!["parameter", "value"]);
    let rows: Vec<(&str, String)> = vec![
        ("A_net = A_LAN", format!("{}", p.a_net)),
        ("A(C_AS) = A(C_DS)", format!("{}", p.a_cas)),
        ("A(Disk)", format!("{}", p.a_disk)),
        ("A_PS = A_Fi = A_Hi = A_Ci", format!("{}", p.a_payment)),
        (
            "q23 / q24 / q45 / q47",
            format!("{} / {} / {} / {}", p.q23, p.q24, p.q45, p.q47),
        ),
        ("N_W", format!("{}", p.web_servers)),
        ("lambda (1/h)", format!("{}", p.failure_rate_per_hour)),
        ("mu (1/h)", format!("{}", p.repair_rate_per_hour)),
        ("c", format!("{}", p.coverage)),
        ("beta (1/h)", format!("{}", p.reconfiguration_rate_per_hour)),
        ("alpha (1/s)", format!("{}", p.arrival_rate_per_second)),
        ("nu (1/s)", format!("{}", p.service_rate_per_second)),
        ("K", format!("{}", p.buffer_size)),
        (
            "A(WS) (computed)",
            format!("{:.9}", webservice::redundant_imperfect_availability(&p)?),
        ),
    ];
    for (k, v) in rows {
        t.add_row(vec![k.into(), v]);
    }
    print!("{}", render(&t, csv));
    Ok(())
}

fn print_table8(csv: bool) -> Result<(), TravelError> {
    let rows = table8()?;
    let mut t = Table::new(
        "Table 8 — user availability vs N_F = N_H = N_C",
        vec!["N", "A(A users)", "paper A", "A(B users)", "paper B"],
    );
    for (row, (n, pa, pb)) in rows.iter().zip(PAPER_TABLE8) {
        assert_eq!(row.reservation_systems, n);
        t.add_row(vec![
            n.to_string(),
            fmt_availability(row.class_a),
            fmt_availability(pa),
            fmt_availability(row.class_b),
            fmt_availability(pb),
        ]);
    }
    print!("{}", render(&t, csv));
    Ok(())
}

fn figure_table(title: &str, points: &[FigurePoint], csv: bool) {
    let (lambdas, alphas) = figure_grid();
    let mut headers = vec!["N_W".to_string()];
    for &l in &lambdas {
        for &a in &alphas {
            headers.push(format!("l={l:.0e},a={a:.0}"));
        }
    }
    let mut t = Table::new(title, headers);
    for nw in 1..=10usize {
        let mut row = vec![nw.to_string()];
        for &l in &lambdas {
            for &a in &alphas {
                let p = points
                    .iter()
                    .find(|p| {
                        p.web_servers == nw
                            && p.failure_rate_per_hour == l
                            && p.arrival_rate_per_second == a
                    })
                    .expect("full grid");
                row.push(fmt_unavailability(p.unavailability));
            }
        }
        t.add_row(row);
    }
    print!("{}", render(&t, csv));
}

fn print_fig11(csv: bool) -> Result<(), TravelError> {
    let points = figure11()?;
    figure_table(
        "Figure 11 — web service unavailability vs N_W (perfect coverage)",
        &points,
        csv,
    );
    Ok(())
}

fn print_fig12(csv: bool) -> Result<(), TravelError> {
    let points = figure12()?;
    figure_table(
        "Figure 12 — web service unavailability vs N_W (imperfect coverage)",
        &points,
        csv,
    );
    Ok(())
}

fn print_fig11_parallel(csv: bool) -> Result<(), TravelError> {
    let points = figure_sweep(Coverage::Perfect, &Exec::parallel())?.points;
    figure_table(
        "Figure 11 — web service unavailability vs N_W (perfect coverage)",
        &points,
        csv,
    );
    println!(
        "(computed on {} threads; identical to the serial sweep)",
        default_threads()
    );
    Ok(())
}

fn print_fig12_parallel(csv: bool) -> Result<(), TravelError> {
    let points = figure_sweep(Coverage::Imperfect, &Exec::parallel())?.points;
    figure_table(
        "Figure 12 — web service unavailability vs N_W (imperfect coverage)",
        &points,
        csv,
    );
    println!(
        "(computed on {} threads; identical to the serial sweep)",
        default_threads()
    );
    Ok(())
}

fn print_fig13(csv: bool) -> Result<(), TravelError> {
    for class in [class_a(), class_b()] {
        let breakdown = figure13(&class)?;
        let mut t = Table::new(
            format!(
                "Figure 13 — unavailability by scenario category, class {}",
                breakdown.class_name
            ),
            vec!["category", "unavailability", "downtime (h/yr)"],
        );
        for (cat, u, hours) in &breakdown.categories {
            t.add_row(vec![
                cat.to_string(),
                fmt_unavailability(*u),
                format!("{hours:.1}"),
            ]);
        }
        t.add_row(vec![
            "total".into(),
            fmt_unavailability(breakdown.total_unavailability),
            format!("{:.1}", breakdown.total_unavailability * HOURS_PER_YEAR),
        ]);
        print!("{}", render(&t, csv));
        println!();
    }
    Ok(())
}

fn print_revenue(csv: bool) -> Result<(), TravelError> {
    let mut t = Table::new(
        "Section 5.2 — revenue loss (100 tx/s, $100/tx)",
        vec![
            "class",
            "SC4 downtime (h/yr)",
            "lost transactions",
            "lost revenue ($)",
        ],
    );
    for class in [class_a(), class_b()] {
        let r = revenue_analysis(&class)?;
        t.add_row(vec![
            r.class_name.clone(),
            format!("{:.1}", r.sc4_downtime_hours),
            format!("{:.3e}", r.lost_transactions),
            format!("{:.3e}", r.lost_revenue),
        ]);
    }
    print!("{}", render(&t, csv));
    Ok(())
}

fn print_capacity(csv: bool) -> Result<(), TravelError> {
    let mut t = Table::new(
        "Section 5.1 — minimum N_W for unavailability < 1e-5 (imperfect coverage)",
        vec!["lambda (1/h)", "alpha (1/s)", "min N_W"],
    );
    for lambda in [1e-2, 1e-3, 1e-4] {
        for alpha in [50.0, 100.0, 150.0] {
            let n = min_web_servers_for(1e-5, lambda, alpha, 10)?;
            t.add_row(vec![
                format!("{lambda:.0e}"),
                format!("{alpha:.0}"),
                n.map(|v| v.to_string()).unwrap_or_else(|| "-".into()),
            ]);
        }
    }
    print!("{}", render(&t, csv));
    Ok(())
}

fn print_ablation(csv: bool) -> Result<(), TravelError> {
    // Ablation 1: coverage sweep at N_W = 8 shows why imperfect coverage
    // reverses the redundancy benefit.
    let mut t = Table::new(
        "Ablation — coverage sweep (N_W = 8, lambda = 1e-2/h, alpha = 50/s)",
        vec!["coverage c", "A(WS)", "unavailability"],
    );
    for c in [1.0, 0.999, 0.99, 0.98, 0.95, 0.9] {
        let p = TaParameters::builder()
            .web_servers(8)
            .failure_rate_per_hour(1e-2)
            .arrival_rate_per_second(50.0)
            .coverage(c)
            .build()?;
        let a = webservice::redundant_imperfect_availability(&p)?;
        t.add_row(vec![
            format!("{c}"),
            format!("{a:.9}"),
            fmt_unavailability(1.0 - a),
        ]);
    }
    print!("{}", render(&t, csv));
    println!();

    // Ablation 2: architecture comparison at user level.
    let mut t = Table::new(
        "Ablation — architecture comparison (user level)",
        vec!["architecture", "A(user, class A)", "A(user, class B)"],
    );
    for arch in [
        Architecture::Basic,
        Architecture::Redundant(Coverage::Perfect),
        Architecture::Redundant(Coverage::Imperfect),
    ] {
        let model = TravelAgencyModel::new(TaParameters::paper_defaults(), arch)?;
        t.add_row(vec![
            arch.to_string(),
            fmt_availability(model.user_availability(&class_a())?),
            fmt_availability(model.user_availability(&class_b())?),
        ]);
    }
    print!("{}", render(&t, csv));
    println!();

    // Ablation 3: most influential resources (exact dual-number
    // sensitivities), the paper's "first order" observation.
    let model = TravelAgencyModel::new(
        TaParameters::paper_defaults(),
        Architecture::paper_reference(),
    )?;
    let h = model.hierarchical(&class_a())?;
    let ranked = h.ranked_sensitivities("user", uavail_core::Level::Resource)?;
    let mut t = Table::new(
        "Ablation — dA(user)/dA(resource), class A (exact, dual numbers)",
        vec!["resource", "sensitivity"],
    );
    for (name, d) in ranked {
        t.add_row(vec![name, format!("{d:.5}")]);
    }
    print!("{}", render(&t, csv));
    Ok(())
}

fn print_deadline(csv: bool) -> Result<(), TravelError> {
    // The paper's future-work measure: requests failing when slower than τ.
    let p = TaParameters::paper_defaults();
    let mut t = Table::new(
        "Extension — deadline-based web availability (reference parameters)",
        vec!["deadline (s)", "A(WS | deadline)", "classical A(WS)"],
    );
    let sweep =
        uavail_travel::extensions::deadline_sweep(&p, &[0.02, 0.05, 0.1, 0.2, 0.5, 1.0, 2.0])?;
    for point in sweep {
        t.add_row(vec![
            format!("{}", point.deadline),
            format!("{:.9}", point.availability),
            format!("{:.9}", point.classical_availability),
        ]);
    }
    print!("{}", render(&t, csv));
    let strict = uavail_travel::extensions::min_web_servers_for_deadline(1e-3, 0.1, &p, 10)?;
    println!(
        "min N_W for unavailability < 1e-3 under a 100 ms deadline: {}",
        strict.map(|v| v.to_string()).unwrap_or_else(|| "-".into())
    );
    Ok(())
}

fn print_maintenance(csv: bool) -> Result<(), TravelError> {
    use uavail_travel::maintenance::{web_availability, RepairStrategy};
    // Visible failure dynamics so strategies separate.
    let p = TaParameters::builder()
        .failure_rate_per_hour(1e-2)
        .web_servers(6)
        .build()?;
    let mut t = Table::new(
        "Ablation — maintenance strategies (N_W = 6, lambda = 1e-2/h)",
        vec!["strategy", "A(WS)", "unavailability"],
    );
    let strategies = [
        RepairStrategy::SharedImmediate,
        RepairStrategy::DedicatedImmediate,
        RepairStrategy::Deferred { start_below: 4 },
        RepairStrategy::Deferred { start_below: 2 },
        RepairStrategy::Deferred { start_below: 1 },
    ];
    for s in strategies {
        let a = web_availability(&p, s)?;
        t.add_row(vec![
            s.to_string(),
            format!("{a:.9}"),
            fmt_unavailability(1.0 - a),
        ]);
    }
    print!("{}", render(&t, csv));
    Ok(())
}

fn print_multisite(csv: bool) -> Result<(), TravelError> {
    use uavail_travel::multisite::MultiSiteModel;
    let mut t = Table::new(
        "Extension — geographically distributed sites (§3.3 option)",
        vec!["sites", "A(user, class A)", "A(user, class B)"],
    );
    for sites in 1..=5usize {
        let m = MultiSiteModel::new(
            TaParameters::paper_defaults(),
            Architecture::paper_reference(),
            sites,
        )?;
        t.add_row(vec![
            sites.to_string(),
            fmt_availability(m.user_availability(&class_a())?),
            fmt_availability(m.user_availability(&class_b())?),
        ]);
    }
    print!("{}", render(&t, csv));
    println!("(conservative composition: per-site platform folded into one factor)");
    Ok(())
}

fn print_ramp(csv: bool) -> Result<(), TravelError> {
    use uavail_travel::transient::user_availability_ramp;
    let mut t = Table::new(
        "Extension — transient user availability after deployment (µ = 1/h)",
        vec!["t (h)", "A(user, class A)", "A(user, class B)"],
    );
    let ts = [0.0, 0.25, 0.5, 1.0, 2.0, 4.0, 8.0, 24.0];
    let params = TaParameters::paper_defaults();
    let ramp_a = user_availability_ramp(
        &class_a(),
        &params,
        Architecture::paper_reference(),
        1.0,
        &ts,
    )?;
    let ramp_b = user_availability_ramp(
        &class_b(),
        &params,
        Architecture::paper_reference(),
        1.0,
        &ts,
    )?;
    for (pa, pb) in ramp_a.iter().zip(&ramp_b) {
        t.add_row(vec![
            format!("{}", pa.t_hours),
            fmt_availability(pa.availability),
            fmt_availability(pb.availability),
        ]);
    }
    print!("{}", render(&t, csv));
    Ok(())
}

/// Fits the Figure 2 graph to Table 1's class A then class B on one
/// seeded rng: the `fit` artifact's computation and the `fig2_fit` bench.
fn fit_fig2() -> Result<[(Fig2Probabilities, f64); 2], TravelError> {
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use uavail_travel::fig2::fit_to_table;
    let mut rng = StdRng::seed_from_u64(20240601);
    let a = fit_to_table(&mut rng, class_a().table(), 300, 80)?;
    let b = fit_to_table(&mut rng, class_b().table(), 300, 80)?;
    Ok([a, b])
}

fn print_fit(csv: bool) -> Result<(), TravelError> {
    let mut t = Table::new(
        "Extension — Figure 2 transition probabilities fitted to Table 1",
        vec!["parameter", "class A", "class B"],
    );
    let [(fit_a, err_a), (fit_b, err_b)] = fit_fig2()?;
    let rows: [(&str, f64, f64); 8] = [
        ("P(Start -> Home)", fit_a.start_home, fit_b.start_home),
        ("P(Home -> Browse)", fit_a.home_browse, fit_b.home_browse),
        ("P(Home -> Search)", fit_a.home_search, fit_b.home_search),
        ("P(Browse -> Home)", fit_a.browse_home, fit_b.browse_home),
        (
            "P(Browse -> Search)",
            fit_a.browse_search,
            fit_b.browse_search,
        ),
        ("P(Search -> Book)", fit_a.search_book, fit_b.search_book),
        ("P(Book -> Search)", fit_a.book_search, fit_b.book_search),
        ("P(Book -> Pay)", fit_a.book_pay, fit_b.book_pay),
    ];
    for (name, a, b) in rows {
        t.add_row(vec![name.into(), format!("{a:.4}"), format!("{b:.4}")]);
    }
    print!("{}", render(&t, csv));
    println!("squared fit error: class A {err_a:.2e}, class B {err_b:.2e}");
    Ok(())
}

fn print_fta(csv: bool) -> Result<(), TravelError> {
    use uavail_travel::fta::{failure_probabilities, function_fault_tree};
    let p = TaParameters::paper_defaults().with_reservation_systems(2);
    let arch = Architecture::paper_reference();
    let tree = function_fault_tree(TaFunction::Pay, &p, arch)?;
    let q = failure_probabilities(&p, arch)?;
    let mut t = Table::new(
        "Fault-tree analysis — top event: a Pay transaction fails (structural)",
        vec!["quantity", "value"],
    );
    t.add_row(vec![
        "top-event probability".into(),
        format!("{:.6}", tree.top_event_probability(&q)?),
    ]);
    let mut spof = tree.single_points_of_failure();
    spof.sort();
    t.add_row(vec!["single points of failure".into(), spof.join(", ")]);
    t.add_row(vec![
        "minimal cut sets".into(),
        tree.minimal_cut_sets().len().to_string(),
    ]);
    print!("{}", render(&t, csv));
    println!();
    let mut imp = Table::new(
        "Fussell-Vesely importance (top 5 basic events)",
        vec!["event", "fussell-vesely", "birnbaum"],
    );
    let mut reports = tree.importance(&q)?;
    reports.sort_by(|a, b| b.fussell_vesely.partial_cmp(&a.fussell_vesely).unwrap());
    for r in reports.iter().take(5) {
        imp.add_row(vec![
            r.name.clone(),
            format!("{:.4}", r.fussell_vesely),
            format!("{:.4}", r.birnbaum),
        ]);
    }
    print!("{}", render(&imp, csv));
    Ok(())
}

fn print_mttf(csv: bool) -> Result<(), TravelError> {
    let mut t = Table::new(
        "Web-service MTTF (hours from all-up to service-down)",
        vec!["N_W", "coverage", "MTTF (h)", "MTTF (years)"],
    );
    for nw in [2usize, 4, 6] {
        for c in [1.0, 0.98, 0.9] {
            let p = TaParameters::builder()
                .web_servers(nw)
                .coverage(c)
                .build()?;
            let mttf = webservice::mean_time_to_web_down(&p)?;
            t.add_row(vec![
                nw.to_string(),
                format!("{c}"),
                format!("{mttf:.3e}"),
                format!("{:.2e}", mttf / 8760.0),
            ]);
        }
    }
    print!("{}", render(&t, csv));
    Ok(())
}

fn print_session(csv: bool) -> Result<(), TravelError> {
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    let params = TaParameters::paper_defaults();
    let mut t = Table::new(
        "Validation — equation (10) vs end-to-end session simulation",
        vec!["class", "analytic A(user)", "simulated", "99.99% CI"],
    );
    for class in [class_a(), class_b()] {
        let mut rng = StdRng::seed_from_u64(20240601);
        let obs = uavail_travel::session_sim::simulate_user_availability(
            &mut rng,
            &class,
            &params,
            Architecture::paper_reference(),
            200_000,
        )?;
        let (lo, hi) = obs.confidence_interval(3.9);
        t.add_row(vec![
            class.name().to_string(),
            format!("{:.5}", obs.analytic),
            format!("{:.5}", obs.availability()),
            format!("[{lo:.5}, {hi:.5}]"),
        ]);
    }
    print!("{}", render(&t, csv));
    Ok(())
}

fn print_validate(csv: bool) -> Result<(), TravelError> {
    let params = compressed_parameters();
    let report = validate_web_service(&params, 30_000.0, 20240601)?;
    validation_table(
        "Validation — analytic (eq. 9) vs joint discrete-event simulation",
        &report,
        csv,
    );
    Ok(())
}

fn print_validate_parallel(csv: bool) -> Result<(), TravelError> {
    // Same simulated time budget as the serial artifact (4 × 7 500 =
    // 30 000 units), split into deterministic independent replications
    // that run on all cores and pool into one confidence interval.
    let params = compressed_parameters();
    let report = validate_web_service_replicated(&params, 7_500.0, 20240601, 4)?;
    validation_table(
        "Validation — analytic (eq. 9) vs 4 pooled parallel replications",
        &report,
        csv,
    );
    println!(
        "(4 replications of 7500 time units on {} threads)",
        default_threads()
    );
    Ok(())
}

fn print_session_parallel(csv: bool) -> Result<(), TravelError> {
    // Same total session count as the serial artifact (4 × 50 000),
    // pooled from deterministic replications.
    let params = TaParameters::paper_defaults();
    let mut t = Table::new(
        "Validation — equation (10) vs pooled parallel session simulation",
        vec!["class", "analytic A(user)", "simulated", "99.99% CI"],
    );
    for class in [class_a(), class_b()] {
        let obs = uavail_travel::session_sim::simulate_user_availability_replicated(
            20240601,
            &class,
            &params,
            Architecture::paper_reference(),
            50_000,
            4,
        )?;
        let (lo, hi) = obs.confidence_interval(3.9);
        t.add_row(vec![
            class.name().to_string(),
            format!("{:.5}", obs.analytic),
            format!("{:.5}", obs.availability()),
            format!("[{lo:.5}, {hi:.5}]"),
        ]);
    }
    print!("{}", render(&t, csv));
    println!(
        "(4 replications of 50000 sessions on {} threads)",
        default_threads()
    );
    Ok(())
}

fn print_speedup(csv: bool) -> Result<(), TravelError> {
    use std::hint::black_box;
    use std::time::Instant;

    let exec = Exec::parallel();
    let threads = exec.threads;
    let parallel_sweeps = || -> Result<_, TravelError> {
        Ok((
            figure_sweep(Coverage::Perfect, &exec)?.points,
            figure_sweep(Coverage::Imperfect, &exec)?.points,
        ))
    };
    // Correctness first: the parallel sweep must reproduce the serial
    // Figure 11/12 points bit for bit.
    let serial_points = (figure11()?, figure12()?);
    let parallel_points = parallel_sweeps()?;
    assert_eq!(
        serial_points, parallel_points,
        "parallel figure sweep diverged from the serial sweep"
    );

    // Each timed repetition starts from a cold loss-probability memo so
    // serial and parallel pay identical cache misses — otherwise the
    // second engine measured would mostly time the warm cache.
    let reps = 30u32;
    let time_sweeps = |parallel: bool| -> Result<f64, TravelError> {
        let start = Instant::now();
        for _ in 0..reps {
            webservice::reset_loss_cache();
            if parallel {
                black_box(parallel_sweeps()?);
            } else {
                black_box((figure11()?, figure12()?));
            }
        }
        Ok(start.elapsed().as_secs_f64() / f64::from(reps))
    };
    // Untimed warm-up, then serial and parallel under identical conditions.
    time_sweeps(false)?;
    let serial_s = time_sweeps(false)?;
    let parallel_s = time_sweeps(true)?;
    let speedup = serial_s / parallel_s;

    let mut t = Table::new(
        "Parallel engine — Figure 11+12 sweep (180 points), serial vs parallel",
        vec!["quantity", "value"],
    );
    t.add_row(vec!["worker threads".into(), threads.to_string()]);
    t.add_row(vec![
        "serial sweep (ms)".into(),
        format!("{:.3}", serial_s * 1e3),
    ]);
    t.add_row(vec![
        "parallel sweep (ms)".into(),
        format!("{:.3}", parallel_s * 1e3),
    ]);
    t.add_row(vec!["speedup".into(), format!("{speedup:.2}x")]);
    t.add_row(vec!["results identical".into(), "true".into()]);
    print!("{}", render(&t, csv));
    if threads >= 4 && speedup < 2.0 {
        eprintln!("warning: expected >= 2x speedup on {threads} threads, got {speedup:.2}x");
    }
    Ok(())
}

/// The simulation statistical gate behind `reproduce simgate`.
///
/// Gate 1 runs the joint farm simulator on the time-compressed
/// parameters through the streaming batch-means replication path and
/// checks the paper's analytic unavailability (eq. 9, imperfect
/// coverage) against both the pooled Wilson interval and the
/// batch-means interval. Gate 2 runs the M/M/c/K queue simulator and
/// checks the analytic Erlang blocking probability against the pooled
/// Wilson interval over the replicated loss counts. Returns `Ok(false)`
/// — which `main` turns into a nonzero exit — when either analytic twin
/// falls outside its simulation interval.
fn run_simgate(csv: bool) -> Result<bool, TravelError> {
    use uavail_queueing::BirthDeathQueue;
    use uavail_sim::replicate::replicate_fold_threads;
    use uavail_sim::stats::{Proportion, StreamingBatchMeans};
    use uavail_sim::{QueueSimulation, SimError};

    let threads = default_threads();

    // The farm validator feeds its pooled outcomes straight into the
    // live SLO monitor (see `sim_validation`); configuring the monitor
    // against the same analytic target makes the gate double as an
    // end-to-end monitor test: the monitor grades the same counts with
    // the same Wilson/slack convention, so its verdict must agree with
    // the gate's own check.
    let target = webservice::redundant_imperfect_availability(&compressed_parameters())?;
    if !uavail_obs::enabled() {
        uavail_obs::set_enabled(true);
    }
    uavail_obs::slo_configure(uavail_obs::SloConfig {
        target_availability: Some(target),
        ..uavail_obs::SloConfig::default()
    });
    uavail_obs::clock_advance_to(1_000_000_000);

    // Gate 1: farm simulator vs the analytic web-service unavailability.
    let farm =
        validate_web_service_streaming(&compressed_parameters(), 10_000.0, 20240601, 32, threads)?;
    validation_table(
        "Simgate — farm simulator vs analytic unavailability (streaming)",
        &farm.report,
        csv,
    );
    let (batch_lo, batch_hi) = farm.batch_interval(3.9);
    println!(
        "batch-means 99.99% CI ({} batches over {} replications): [{}, {}]",
        farm.batches,
        farm.replications,
        fmt_unavailability(batch_lo),
        fmt_unavailability(batch_hi)
    );
    let farm_ok = farm.report.agrees(0.15) && farm.batch_agrees(3.9, 0.15);
    let slo = uavail_obs::slo_snapshot();
    let slo_ok = slo.as_ref().is_some_and(|s| {
        // Degraded (fallback) events only happen under injection; they
        // must not flip a *statistical* gate, so they pass here.
        s.state == uavail_obs::SloState::Ok || s.degraded > 0
    });
    if let Some(s) = &slo {
        println!(
            "slo monitor: state {}, measured availability {:.9}, divergence {:+.3e}",
            s.state.as_str(),
            s.availability,
            s.divergence
        );
    }

    // Gate 2: M/M/c/K queue simulator vs the analytic blocking
    // probability. The load (ρ = 1.5 over 2 servers, buffer 4) keeps the
    // blocking probability large enough that 1.6M offered requests pin
    // it to a fraction of a percent.
    let (alpha, nu, servers, capacity) = (150.0, 100.0, 2, 4);
    let analytic = BirthDeathQueue::mmck(alpha, nu, servers, capacity)?.full_probability();
    let qsim = QueueSimulation::new(alpha, nu, servers, capacity)?;
    let reps = 8usize;
    let per_rep = 200_000u64;
    struct QueueAcc {
        arrivals: u64,
        losses: u64,
        reducer: StreamingBatchMeans,
    }
    let acc = replicate_fold_threads(
        20240602,
        reps,
        threads,
        || (),
        |(), rng, _| qsim.run(rng, per_rep),
        QueueAcc {
            arrivals: 0,
            losses: 0,
            reducer: StreamingBatchMeans::new(reps, reps)
                .ok_or(TravelError::Sim(SimError::NoObservations))?,
        },
        |acc, obs| {
            acc.arrivals += obs.arrivals;
            acc.losses += obs.losses;
            acc.reducer.push(obs.loss_fraction());
        },
    )?;
    let pooled = Proportion::new(acc.losses, acc.arrivals);
    let (queue_lo, queue_hi) = pooled.confidence_interval(3.9);
    let queue_ok = analytic >= queue_lo && analytic <= queue_hi;
    let queue_stats = acc
        .reducer
        .finish()
        .ok_or(TravelError::Sim(SimError::NoObservations))?;

    let mut t = Table::new(
        "Simgate — M/M/c/K simulator vs analytic blocking probability",
        vec!["quantity", "value"],
    );
    t.add_row(vec![
        "model".into(),
        format!("M/M/{servers}/{capacity}, α = {alpha}, ν = {nu}"),
    ]);
    t.add_row(vec![
        "analytic blocking p_K".into(),
        format!("{analytic:.6}"),
    ]);
    t.add_row(vec![
        "simulated blocking".into(),
        format!("{:.6}", pooled.estimate()),
    ]);
    t.add_row(vec![
        "pooled Wilson 99.99% CI".into(),
        format!("[{queue_lo:.6}, {queue_hi:.6}]"),
    ]);
    t.add_row(vec![
        "per-replication spread (std err)".into(),
        format!("{:.2e}", queue_stats.standard_error()),
    ]);
    t.add_row(vec!["requests simulated".into(), acc.arrivals.to_string()]);
    t.add_row(vec!["agreement".into(), queue_ok.to_string()]);
    print!("{}", render(&t, csv));

    if !farm_ok {
        eprintln!("simgate: farm simulator disagrees with the analytic unavailability");
    }
    if !queue_ok {
        eprintln!("simgate: M/M/c/K simulator disagrees with the analytic blocking probability");
    }
    if !slo_ok {
        eprintln!("simgate: the SLO monitor's verdict disagrees with the gate");
    }
    Ok(farm_ok && queue_ok && slo_ok)
}

fn validation_table(title: &str, report: &ValidationReport, csv: bool) {
    let mut t = Table::new(title, vec!["quantity", "value"]);
    t.add_row(vec![
        "analytic unavailability".into(),
        fmt_unavailability(report.analytic_unavailability),
    ]);
    t.add_row(vec![
        "simulated unavailability".into(),
        fmt_unavailability(report.simulated_unavailability),
    ]);
    t.add_row(vec![
        "simulation 99.99% CI".into(),
        format!(
            "[{}, {}]",
            fmt_unavailability(report.confidence_interval.0),
            fmt_unavailability(report.confidence_interval.1)
        ),
    ]);
    t.add_row(vec![
        "requests simulated".into(),
        report.arrivals.to_string(),
    ]);
    t.add_row(vec![
        "time-scale separation".into(),
        format!("{:.0}x", report.separation_ratio),
    ]);
    t.add_row(vec![
        "agreement (15% slack)".into(),
        report.agrees(0.15).to_string(),
    ]);
    print!("{}", render(&t, csv));
}
