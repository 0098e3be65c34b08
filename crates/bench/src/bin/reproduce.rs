//! Regenerates every table and figure of the DSN 2003 travel-agency paper.
//!
//! ```text
//! reproduce [ARTIFACT] [--csv]
//!           [--metrics <path>] [--trace <path>]
//!           [--inject <spec>] [--inject-seed <n>]        (all but loadgen)
//!           [--bench-json <path>]                                  (bench)
//!           [--port <p>] [--iterations <n>] [--workers <n>]
//!           [--queue <n>]                                          (serve)
//!           [--addr <host:port>] [--requests <n>] [--clients <n>]
//!           [--spin-us <n>] [--seed <n>] [--deadline-ms <n>]     (loadgen)
//!
//! ARTIFACT: table1 table2 table3 table4 table5 table6 table7 table8
//!           fig11 fig12 fig13 revenue capacity ablation deadline
//!           maintenance multisite ramp fit fta mttf validate session
//!           speedup bench simgate resilient serve loadgen all
//! ```
//!
//! The artifact defaults to `all`, or to `bench` when `--bench-json` is
//! given. Every flag is one row of the `FLAGS` table, and the command
//! line is checked against it before anything runs (a violation exits 1
//! with empty stdout):
//!
//! * each flag names the artifacts it applies to, as grouped above
//!   (`--csv` applies to every artifact);
//! * a value is given either as `--name value` or as `--name=value`;
//! * a flag may be given at most once;
//! * a value may not be empty and may not start with `--`, so a flag
//!   whose value is missing never swallows the flag after it.
//!
//! The thread count is not a flag. The simulations (`validate`,
//! `session`, `simgate` and `serve`'s rounds) and `resilient` run on
//! every core, and their output is bit-for-bit identical at any thread
//! count: each replication owns an RNG stream derived from its seed and
//! index, and results are pooled in index order. The figures and `all`
//! run serially; a Figure 11/12 sweep takes about a millisecond, less
//! than starting worker threads saves. `speedup` times the serial and
//! the parallel Figure 11/12 sweep and reports the ratio.
//!
//! `validate` prints the farm plan simgate gates on: equation (9)
//! against 32 epoch-kernel replications of 10 000 time units at the
//! time-compressed parameters, with the pooled Wilson interval and the
//! batch-means interval. `session` checks equation (10) against 4
//! replications of 50 000 simulated user sessions per class.
//!
//! `--metrics <path>` enables the `uavail-obs` recorder for the run and
//! writes a JSON-lines artifact to `path`: one meta record, then one
//! record per span (wall-clock tree), counter (sweep points, memo hits,
//! simulated sessions), gauge, health channel (solver residuals and the
//! loss family's `queueing.mmck.loss_increase`), histogram (per-point
//! latencies) and label (RNG streams). Instrumentation never changes any
//! reproduced number — the `metrics_identity` integration test pins
//! bit-for-bit equality with recording on and off.
//!
//! `--trace <path>` enables trace-event collection for the run and writes
//! a Chrome-trace JSON timeline to `path` — open it in Perfetto
//! (<https://ui.perfetto.dev>) or `chrome://tracing`. The timeline shows
//! one lane per worker thread with `par.worker`/`par.chunk` spans, a span
//! per figure point, and instant events for memo hits and health values.
//! Like `--metrics`, tracing never changes any reproduced number.
//!
//! `--inject <spec>` arms the deterministic `uavail-faultinject` layer for
//! the run: a comma-separated list of `site[:rate]` entries (shorthands or
//! full site names, e.g. `gth:1.0,panic:0.05`; rates default to 0.25), with
//! `--inject-seed <n>` fixing the firing schedule. The exit code reports
//! what the faults did: 0 means the run completed clean, 2 means it
//! completed but degraded (a resilient report recorded typed failures, or
//! a drifting farm solve had to be answered by the closed form), and 1
//! remains a fatal error. Injection runs enable the obs recorder so
//! `--metrics` artifacts carry the fault and recovery counters
//! (`faultinject.fired.*`, `travel.farm.pi_fallbacks`,
//! `travel.farm.pi_recovered`), and they
//! install a quiet panic hook — injected worker panics are caught and
//! typed by the resilient layers, so the default per-panic backtrace would
//! only be noise.
//!
//! `resilient` runs the Figure 12 sweep on every core with the `Report`
//! failure policy and prints the report: every point that evaluated plus
//! a typed failure per point that did not, without aborting. It pairs with
//! `--inject` in the CI injection matrix.
//!
//! `bench` times the cold Figure 11, Figure 12 and Table 8 drivers, the
//! cold Figure 2 fit, the `/eval` worker's web-service evaluation on
//! distinct farms (`ws_context/cold`), its class A/B queries on warm
//! memos (`class_eval/warm`, the shape of one uabench `eval-user`
//! request), a cold/reuse pair for the `sim.farm_replication` kernel and
//! two telemetry hot paths, in-process, and prints the means; only
//! `class_eval/warm` replays a memo. `--bench-json <path>` additionally
//! writes the measurements as a JSON-lines artifact (schema
//! `uavail-bench/v1`: one meta record, one record per benchmark with
//! `name`/`mode`/`mean_ns`/`iters`, and one derived
//! `<name>.kernel_speedup` record per cold/reuse pair: per-event
//! stepping against the epoch kernel). `bench` is
//! excluded from `all` because it is a timing run, not a paper artifact.
//!
//! `simgate` is the simulation statistical gate: it runs the joint farm
//! simulator (epoch-kernel replications with batch means) and the
//! M/M/c/K queue simulator against their analytic twins and exits
//! nonzero unless the analytic value falls inside every simulation
//! confidence interval — the pooled Wilson interval at z = 3.9 and, for
//! the farm, the batch-means interval as well. The farm validator also
//! feeds its pooled request outcomes into the live SLO monitor, whose
//! independent verdict must agree with the gate's — simgate doubles as
//! the end-to-end SLO-monitor test. Like `bench` it is excluded from
//! `all`; CI runs it as a standalone gate.
//!
//! `serve` attaches the live telemetry plane: it binds the std-only
//! `uavail-serve` HTTP listener on `--port <p>` (0 for an ephemeral
//! port; the bound address is printed as
//! `uavail-serve listening on http://…`), then runs `--iterations <n>`
//! evaluation rounds of the paper-parameter farm through the
//! epoch-resolvent farm validator — one telemetry-clock second per
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

use std::error::Error;
use std::process::ExitCode;

use uavail_bench::render;
use uavail_core::downtime::HOURS_PER_YEAR;
use uavail_core::par::{default_threads, Exec, OnFailure};
use uavail_travel::evaluation::{
    figure11, figure12, figure13, figure_grid, figure_sweep, min_web_servers_for, revenue_analysis,
    table8, FigurePoint, PAPER_A_WS, PAPER_TABLE8,
};
use uavail_travel::fig2::Fig2Probabilities;
use uavail_travel::functions::{self, TaFunction};
use uavail_travel::report::{fmt_availability, fmt_unavailability, Table};
use uavail_travel::session_sim::simulate_user_availability;
use uavail_travel::sim_validation::{
    compressed_parameters, validate_web_service, ValidationReport,
};
use uavail_travel::user::{class_a, class_b};
use uavail_travel::{
    services, webservice, Architecture, Coverage, EvalContext, TaParameters, TravelAgencyModel,
    TravelError,
};

/// One command-line flag: its name, what its value must be, and the
/// artifacts it applies to.
struct Flag(&'static str, Value, Scope);

/// What follows a flag, as `--name value` or `--name=value`. The text
/// completes the error "`--name` requires …".
enum Value {
    /// Nothing: the flag is a switch.
    Switch,
    /// Any text, such as a path, a site spec or an address.
    Text(&'static str),
    /// An unsigned integer in `min..=max`.
    Int(u64, u64, &'static str),
}

/// The artifacts a flag applies to.
enum Scope {
    Only(&'static [&'static str]),
    Except(&'static [&'static str]),
}

/// The recorder, trace and injection flags act on this process; `loadgen`
/// is a pure client, so they belong on the server it floods.
const NOT_LOADGEN: Scope = Scope::Except(&["loadgen"]);
const SERVE: Scope = Scope::Only(&["serve"]);
const LOADGEN: Scope = Scope::Only(&["loadgen"]);
const USIZE_MAX: u64 = usize::MAX as u64;

/// Every flag `reproduce` accepts.
const FLAGS: &[Flag] = &[
    Flag("--csv", Value::Switch, Scope::Except(&[])),
    Flag("--metrics", Value::Text("a file path"), NOT_LOADGEN),
    Flag("--trace", Value::Text("a file path"), NOT_LOADGEN),
    Flag(
        "--bench-json",
        Value::Text("a file path"),
        Scope::Only(&["bench"]),
    ),
    Flag(
        "--inject",
        Value::Text("a site spec (e.g. gth:1.0,panic:0.1)"),
        NOT_LOADGEN,
    ),
    Flag(
        "--inject-seed",
        Value::Int(0, u64::MAX, "an unsigned integer"),
        NOT_LOADGEN,
    ),
    Flag(
        "--port",
        Value::Int(0, u16::MAX as u64, "a port number (0 for ephemeral)"),
        SERVE,
    ),
    Flag(
        "--iterations",
        Value::Int(0, USIZE_MAX, "a round count (0 to skip rounds)"),
        SERVE,
    ),
    Flag(
        "--workers",
        Value::Int(1, USIZE_MAX, "at least one worker"),
        SERVE,
    ),
    // The `/slo` self-model solves an M/M/c/K over every slot, so the
    // queue takes the K cap `/eval` enforces on `buffer_size`.
    Flag(
        "--queue",
        Value::Int(
            0,
            uavail_serve::eval::MAX_BUFFER_SIZE as u64,
            "a waiting-slot count of at most 10000",
        ),
        SERVE,
    ),
    Flag("--addr", Value::Text("a host:port"), LOADGEN),
    Flag(
        "--requests",
        Value::Int(1, u64::MAX, "a request count of at least 1"),
        LOADGEN,
    ),
    Flag(
        "--clients",
        Value::Int(1, USIZE_MAX, "at least one client thread"),
        LOADGEN,
    ),
    Flag(
        "--spin-us",
        Value::Int(0, u64::MAX, "a microsecond count"),
        LOADGEN,
    ),
    Flag(
        "--seed",
        Value::Int(0, u64::MAX, "an unsigned integer"),
        LOADGEN,
    ),
    Flag(
        "--deadline-ms",
        Value::Int(0, u64::MAX, "a millisecond budget"),
        LOADGEN,
    ),
];

/// A checked command line: the artifact, plus each given flag with its
/// value (empty for a switch).
struct Args {
    artifact: String,
    given: Vec<(&'static Flag, String)>,
}

impl Args {
    /// The value of flag `name`, if it was given.
    fn text(&self, name: &str) -> Option<&str> {
        assert!(FLAGS.iter().any(|f| f.0 == name), "{name} is not in FLAGS");
        self.given
            .iter()
            .find(|(flag, _)| flag.0 == name)
            .map(|(_, value)| value.as_str())
    }

    fn has(&self, name: &str) -> bool {
        self.text(name).is_some()
    }

    /// The value of integer flag `name`, if it was given.
    fn int<T: TryFrom<u64>>(&self, name: &str) -> Option<T> {
        self.text(name).map(|value| {
            value
                .parse::<u64>()
                .ok()
                .and_then(|n| T::try_from(n).ok())
                .expect("parse_args checked the value against the flag's range")
        })
    }
}

/// Checks a command line against [`FLAGS`], [`ARTIFACTS`] and
/// [`DRIVERS`], so every usage error surfaces before anything runs.
fn parse_args(mut raw: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut artifact = None;
    let mut given: Vec<(&'static Flag, String)> = Vec::new();
    while let Some(arg) = raw.next() {
        if !arg.starts_with("--") {
            if artifact.is_some() {
                return Err(format!("unexpected argument {arg:?}"));
            }
            artifact = Some(arg);
            continue;
        }
        let (name, inline) = match arg.split_once('=') {
            Some((name, value)) => (name, Some(value.to_string())),
            None => (arg.as_str(), None),
        };
        let Some(flag) = FLAGS.iter().find(|f| f.0 == name) else {
            return Err(format!("unknown flag {arg:?}"));
        };
        let value = match flag.1 {
            Value::Switch if inline.is_some() => return Err(format!("{name} takes no value")),
            Value::Switch => String::new(),
            Value::Text(what) | Value::Int(_, _, what) => inline
                .or_else(|| raw.next())
                .filter(|v| !v.is_empty() && !v.starts_with("--"))
                .filter(|v| match flag.1 {
                    Value::Int(min, max, _) => v.parse().is_ok_and(|n| (min..=max).contains(&n)),
                    _ => true,
                })
                .ok_or_else(|| format!("{name} requires {what}"))?,
        };
        if given.iter().any(|(f, _)| f.0 == name) {
            return Err(format!("{name} given twice"));
        }
        given.push((flag, value));
    }
    let has = |name: &str| given.iter().any(|(f, _)| f.0 == name);
    let artifact =
        artifact.unwrap_or_else(|| if has("--bench-json") { "bench" } else { "all" }.to_string());
    let names = ARTIFACTS
        .iter()
        .map(|(name, _)| *name)
        .chain(DRIVERS.iter().map(|(name, _)| *name));
    if !names.clone().any(|name| name == artifact) {
        let names: Vec<&str> = names.collect();
        return Err(format!(
            "unknown artifact {artifact:?}; expected one of: {}",
            names.join(", ")
        ));
    }
    for (Flag(name, _, scope), _) in &given {
        match scope {
            Scope::Only(list) if !list.contains(&artifact.as_str()) => {
                return Err(format!("{name} only applies to {}", list.join(", ")));
            }
            Scope::Except(list) if list.contains(&artifact.as_str()) => {
                return Err(format!("{name} does not apply to {artifact}"));
            }
            _ => {}
        }
    }
    if has("--inject-seed") && !has("--inject") {
        return Err("--inject-seed only applies together with --inject".to_string());
    }
    Ok(Args { artifact, given })
}

/// How a run ended; [`run`] maps it to the exit code.
enum Outcome {
    /// Completed: exit 0, or the [`exit_verdict`] of an injection run.
    Clean,
    /// Completed with typed failures recorded: exit 2.
    Degraded,
    /// Completed, but the artifact's own gate failed: exit 1.
    Failed,
}

fn main() -> ExitCode {
    match parse_args(std::env::args().skip(1))
        .map_err(Box::from)
        .and_then(|args| run(&args))
    {
        Ok(code) => code,
        Err(e) => {
            eprintln!("reproduce: {e}");
            ExitCode::FAILURE
        }
    }
}

/// Turns on recording, tracing and injection as the flags ask, runs the
/// artifact, writes `--metrics` and `--trace`, and maps the outcome to
/// the exit code. An error is fatal: nothing more is written.
fn run(args: &Args) -> Result<ExitCode, Box<dyn Error>> {
    // Injection runs always record, so the degraded/clean verdict (and any
    // `--metrics` artifact) can read the fault and recovery counters. The
    // serve plane records by definition: without the recorder there is
    // nothing to serve.
    if args.has("--metrics") || args.has("--inject") || args.artifact == "serve" {
        uavail_obs::set_enabled(true);
        uavail_obs::reset();
    }
    if args.has("--trace") {
        uavail_obs::set_trace_enabled(true);
        uavail_obs::trace::reset();
    }
    if let Some(spec) = args.text("--inject") {
        let seed = args.int("--inject-seed").unwrap_or(0);
        uavail_faultinject::set_seed(seed);
        uavail_faultinject::arm_spec(spec).map_err(|e| format!("--inject: {e}"))?;
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
        eprintln!("injection armed (seed {seed}): {armed}");
    }
    let outcome = {
        let _run = uavail_obs::span("reproduce");
        match DRIVERS.iter().find(|(name, _)| *name == args.artifact) {
            Some((_, driver)) => driver(args)?,
            None => {
                let (_, print) = ARTIFACTS
                    .iter()
                    .find(|(name, _)| *name == args.artifact)
                    .expect("parse_args accepts only known artifacts");
                print(args)?;
                Outcome::Clean
            }
        }
    };
    if let Some(path) = args.text("--metrics") {
        write_metrics(path, args)?;
    }
    if let Some(path) = args.text("--trace") {
        write_trace(path)?;
    }
    Ok(match outcome {
        Outcome::Clean => exit_verdict(args.has("--inject")),
        Outcome::Degraded => ExitCode::from(2),
        Outcome::Failed => ExitCode::FAILURE,
    })
}

/// Exit-code taxonomy: 0 clean, 1 fatal (an error or a failed gate), 2
/// completed-degraded. This is the code of a clean outcome: degradation
/// is read from the recorder — which injection runs always enable — as
/// either a resilient engine that recorded typed failures or a farm
/// solve whose drifting vector the closed form had to replace.
fn exit_verdict(injecting: bool) -> ExitCode {
    if !injecting {
        return ExitCode::SUCCESS;
    }
    let snap = uavail_obs::snapshot();
    let degraded = snap.counter("core.sweep.resilient.failures") > 0
        || snap.counter("travel.figure.resilient.failures") > 0
        || snap.counter("travel.farm.pi_fallbacks") > 0;
    if degraded {
        ExitCode::from(2)
    } else {
        ExitCode::SUCCESS
    }
}

/// `resilient`: the Figure 12 sweep on every core under the `Report`
/// failure policy. Prints the full grid when every point evaluated,
/// otherwise a summary plus one typed failure row per point the sweep
/// survived losing (a degraded outcome, never a fatal one).
fn run_resilient(args: &Args) -> Result<Outcome, Box<dyn Error>> {
    let csv = args.has("--csv");
    let exec = Exec {
        threads: default_threads(),
        on_failure: OnFailure::Report,
    };
    let report = figure_sweep(Coverage::Imperfect, &exec)?;
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
        return Ok(Outcome::Clean);
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
    Ok(Outcome::Degraded)
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
/// through the epoch-resolvent farm validator. The kernel's
/// conditional-expectation estimates keep a paper-scale horizon cheap
/// (the per-replication cost is the slow failure/repair chain, not the
/// ~10⁷ requests the counters report), and the seed is pinned so the CI
/// smoke job sees a reproducible measured-vs-analytic comparison.
const SERVE_SEED: u64 = 20240601;
const SERVE_HORIZON: f64 = 200_000.0;
const SERVE_REPLICATIONS: usize = 8;

/// `serve`: runs the resident evaluator with the telemetry plane
/// attached: binds the listener on `--port`, prints the bound address
/// (machine-parseable by the CI smoke job), runs `--iterations`
/// pinned-seed evaluation rounds feeding the SLO monitor and the sliding
/// windows — one telemetry-clock second per round — prints the
/// measured-vs-analytic summary, then serves until a client requests
/// `/shutdown`.
fn run_serve(args: &Args) -> Result<Outcome, Box<dyn Error>> {
    use std::time::Instant;

    let params = TaParameters::paper_defaults();
    let analytic = webservice::redundant_imperfect_availability(&params)?;
    uavail_obs::slo_configure(uavail_obs::SloConfig {
        target_availability: Some(analytic),
        ..uavail_obs::SloConfig::default()
    });
    let defaults = uavail_serve::QueryPlaneConfig::default();
    let plane = uavail_serve::QueryPlaneConfig {
        workers: args.int("--workers").unwrap_or(defaults.workers),
        queue_slots: args.int("--queue").unwrap_or(defaults.queue_slots),
        ..defaults
    };
    let port: u16 = args.int("--port").unwrap_or(0);
    let server = uavail_serve::ObsServer::start_with(("127.0.0.1", port), plane)
        .map_err(|e| format!("serve: {e}"))?;
    println!("uavail-serve listening on http://{}", server.addr());
    println!(
        "endpoints: POST /eval ({} workers, {} queue slots) · GET /metrics /health /slo /trace /shutdown",
        plane.workers, plane.queue_slots
    );

    let threads = default_threads();
    let iterations: usize = args.int("--iterations").unwrap_or(6);
    const EPOCH_NS: u64 = 1_000_000_000;
    for round in 0..iterations {
        // The telemetry clock advances one epoch per round; the window
        // and SLO state are a pure function of this schedule, never of
        // the wall clock.
        uavail_obs::clock_advance_to((round as u64 + 1) * EPOCH_NS);
        let started = Instant::now();
        validate_web_service(
            &params,
            SERVE_HORIZON,
            SERVE_SEED.wrapping_add(round as u64),
            SERVE_REPLICATIONS,
            threads,
        )?;
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
        print!("{}", render(&t, args.has("--csv")));
    }

    // The rounds (if any) are done and the logical clock stays frozen,
    // so the windowed state a scraper sees is exactly the summary above.
    println!("serve: evaluation rounds complete; serving until GET /shutdown");
    server.join();
    Ok(Outcome::Clean)
}

/// `loadgen`: floods a running `serve` process with the closed-loop
/// client and fails unless the overload contract held.
fn run_loadgen(args: &Args) -> Result<Outcome, Box<dyn Error>> {
    use uavail_serve::loadgen::LoadGenConfig;
    let addr = args.text("--addr").ok_or(
        "loadgen requires --addr <host:port> (printed by `reproduce serve` as its listening line)",
    )?;
    let defaults = LoadGenConfig::default();
    let cfg = LoadGenConfig {
        addr: addr.to_string(),
        requests: args.int("--requests").unwrap_or(defaults.requests),
        clients: args.int("--clients").unwrap_or(defaults.clients),
        spin_us: args.int("--spin-us").unwrap_or(defaults.spin_us),
        seed: args.int("--seed").unwrap_or(defaults.seed),
        deadline_ms: args.int("--deadline-ms"),
        ..defaults
    };
    let report = uavail_serve::loadgen::run(&cfg);
    print_loadgen(&report, &cfg, args.has("--csv"));
    let violations = report.violations();
    if violations.is_empty() {
        println!("loadgen: overload contract held");
        return Ok(Outcome::Clean);
    }
    for violation in &violations {
        eprintln!("reproduce: loadgen: {violation}");
    }
    Ok(Outcome::Failed)
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
/// `context_reuse` (a warm `SimContext`), (memo-free paths) `cold` or
/// (every memo warm) `warm` mode.
struct BenchMeasurement {
    name: &'static str,
    mode: &'static str,
    mean_ns: f64,
    iters: u64,
}

/// Times the Figure 11, Figure 12 and Table 8 drivers cold (the loss
/// memo reset before every iteration) in-process, the `/eval` worker's
/// web-service evaluation on distinct farms, its class queries on warm
/// memos, plus a
/// `sim.farm_replication` pair that times the per-event replication
/// baseline against the epoch-resolvent kernel. Cold iterations
/// allocate everything fresh; the reuse iteration runs on one long-lived
/// `SimContext`, whose epoch tables are storage, not a result memo.
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

    let mut out = Vec::with_capacity(8);
    // The paper drivers as `reproduce` runs them.
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
        let (mean_ns, iters) = time(driver)?;
        out.push(BenchMeasurement {
            name,
            mode: "cold_build",
            mean_ns,
            iters,
        });
    }
    // The `/eval` worker's web-service evaluation as distinct farms reach
    // it: 8 to 80 servers, λ from 1e-4 to 1e-3 per hour, α from 50 to 150
    // per second. A fresh context each iteration, so every farm pays its
    // farm solve and its N_W loss probabilities; the mean is per farm.
    {
        let farms: Vec<TaParameters> = (0..32)
            .map(|k| {
                let servers = 8 + (k * 7) % 73;
                TaParameters {
                    web_servers: servers,
                    buffer_size: servers + 8,
                    failure_rate_per_hour: 10f64.powf(-4.0 + k as f64 / 31.0),
                    arrival_rate_per_second: 50.0 + 100.0 * ((k * 13) % 32) as f64 / 31.0,
                    ..TaParameters::paper_defaults()
                }
            })
            .collect();
        let (mean_ns, iters) = time(|| {
            let mut ctx = EvalContext::new();
            for p in &farms {
                black_box(webservice::redundant_imperfect_availability_with(
                    p, &mut ctx,
                )?);
            }
            Ok(())
        })?;
        out.push(BenchMeasurement {
            name: "ws_context",
            mode: "cold",
            mean_ns: mean_ns / farms.len() as f64,
            iters,
        });
    }
    // A batch shaped like uabench's `eval-user` request: 16 class A/B
    // queries on the 24-point hot farm grid, through the `/eval` worker's
    // `evaluate_query` on one context. The calibration call warms it, so
    // every timed farm and scenario lookup hits its memo; the mean is per
    // query.
    {
        use uavail_serve::eval::{evaluate_query, EvalQuery, QueryClass};
        let queries: Vec<EvalQuery> = (0..16)
            .map(|k| EvalQuery {
                params: TaParameters {
                    web_servers: 1 + k % 8,
                    failure_rate_per_hour: [1e-4, 5e-4, 1e-3][k % 3],
                    num_flight_systems: 1 + k % 5,
                    a_payment: 0.99 + 0.0099 * k as f64 / 16.0,
                    ..TaParameters::paper_defaults()
                },
                class: [QueryClass::ClassA, QueryClass::ClassB][k % 2],
            })
            .collect();
        let mut ctx = EvalContext::new();
        let (mean_ns, iters) = time(|| {
            for q in &queries {
                black_box(evaluate_query(q, &mut ctx)?);
            }
            Ok(())
        })?;
        out.push(BenchMeasurement {
            name: "class_eval",
            mode: "warm",
            mean_ns: mean_ns / queries.len() as f64,
            iters,
        });
    }
    // Simulation replication throughput: cold is the per-event
    // linear-scan farm DES; reuse is the epoch-resolvent counting kernel
    // on one `SimContext` warmed outside the timed loop (each timed batch
    // locks it as its single worker's workspace). Both rows run the same
    // serial `replicate` batch and reduce its loss fractions by batch
    // means. Same model, same seeds, same estimator — the kernel replaces
    // O(requests) event work per replication with O(slow-chain
    // transitions) resolvent lookups.
    {
        use std::sync::Mutex;
        use uavail_sim::replicate::replicate;
        use uavail_sim::stats::batch_means;
        use uavail_sim::{FarmSimulation, SimContext};

        let farm = FarmSimulation::new(3, 0.02, 1.0, 0.9, 6.0, 300.0, 150.0, 8)?;
        let reps = 4usize;
        let horizon = 1_000.0;
        let (mean_ns, iters) = time(|| {
            let obs = replicate(
                20240601,
                reps,
                1,
                || (),
                |(), rng, _| farm.run(rng, horizon),
            )?;
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
        let ctx = Mutex::new(SimContext::new());
        let warm = || {
            let fractions = replicate(
                20240601,
                reps,
                1,
                || ctx.lock().expect("no poisoned context"),
                |ctx, rng, _| {
                    farm.run_counts_with(ctx, rng, horizon)
                        .map(|c| c.loss_fraction())
                },
            )?;
            black_box(batch_means(&fractions, reps));
            Ok(())
        };
        warm()?; // warm the context outside the timed loop
        let (mean_ns, iters) = time(warm)?;
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

/// `bench`: times the cold drivers and the telemetry hot paths, prints
/// the means and writes them to `--bench-json`.
fn run_bench(args: &Args) -> Result<Outcome, Box<dyn Error>> {
    let measurements = run_context_benches()?;
    let mut t = Table::new(
        "Bench — cold builds and warm SimContext reuse (in-process means)",
        vec!["case", "mode", "mean (ms)", "iters"],
    );
    for m in &measurements {
        t.add_row(vec![
            m.name.to_string(),
            m.mode.to_string(),
            format!("{:.3}", m.mean_ns / 1e6),
            m.iters.to_string(),
        ]);
    }
    print!("{}", render(&t, args.has("--csv")));
    for (name, speedup) in kernel_speedups(&measurements) {
        println!("{name}: the epoch kernel is {speedup:.2}x faster than per-event stepping");
    }
    if let Some(path) = args.text("--bench-json") {
        write_bench_json(path, &measurements)?;
    }
    Ok(Outcome::Clean)
}

/// `(name, cold_mean / reuse_mean)` for every case measured in both
/// `cold_build` and `context_reuse` mode.
fn kernel_speedups(measurements: &[BenchMeasurement]) -> Vec<(&str, f64)> {
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
/// and a derived `<name>.kernel_speedup` per cold/reuse pair. Validated
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
    for (name, speedup) in kernel_speedups(measurements) {
        out.push_str(
            &JsonValue::object(vec![
                ("type", JsonValue::str("derived")),
                ("name", JsonValue::str(format!("{name}.kernel_speedup"))),
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
/// then the snapshot records (counters, gauges, spans, histograms, health
/// channels, labels). The artifact is validated by the in-tree JSON parser
/// before anything touches the filesystem.
fn write_metrics(path: &str, args: &Args) -> Result<(), String> {
    use uavail_obs::json::JsonValue;
    let snap = uavail_obs::snapshot();
    let mut out = String::new();
    let mut meta = vec![
        ("type", JsonValue::str("meta")),
        ("schema", JsonValue::str("uavail-obs/v1")),
        ("artifact", JsonValue::str(&args.artifact)),
        ("threads", JsonValue::UInt(default_threads() as u64)),
    ];
    if let Some(spec) = args.text("--inject") {
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
    let records = uavail_obs::json::validate_lines(&out)
        .map_err(|e| format!("metrics artifact failed JSON validation: {e}"))?;
    std::fs::write(path, &out).map_err(|e| format!("cannot write metrics to {path}: {e}"))?;
    eprintln!("wrote {records} metric records to {path}");
    Ok(())
}

type ArtifactFn = fn(&Args) -> Result<(), TravelError>;

/// The artifacts that print tables, in `all` order.
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

type DriverFn = fn(&Args) -> Result<Outcome, Box<dyn Error>>;

/// The artifacts whose outcome is more than a printed table.
const DRIVERS: &[(&str, DriverFn)] = &[
    ("bench", run_bench),
    ("simgate", run_simgate),
    ("resilient", run_resilient),
    ("serve", run_serve),
    ("loadgen", run_loadgen),
    ("all", run_all),
];

/// `all`: every artifact of [`ARTIFACTS`], in order, but `validate`,
/// `session` and `speedup`.
fn run_all(args: &Args) -> Result<Outcome, Box<dyn Error>> {
    for (name, print) in ARTIFACTS {
        if matches!(*name, "validate" | "session" | "speedup") {
            // Simulation cross-checks and the timing run are not paper
            // tables; they run only on request.
            println!("(skipping `{name}` in `all`; run `reproduce {name}`)\n");
            continue;
        }
        print(args)?;
        println!();
    }
    Ok(Outcome::Clean)
}

fn print_table1(args: &Args) -> Result<(), TravelError> {
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
    print!("{}", render(&t, args.has("--csv")));
    Ok(())
}

fn print_table2(args: &Args) -> Result<(), TravelError> {
    let mut t = Table::new(
        "Table 2 — mapping between functions and services",
        vec!["function", "services"],
    );
    for (f, svcs) in functions::service_mapping() {
        t.add_row(vec![f.name().to_string(), svcs.join(", ")]);
    }
    print!("{}", render(&t, args.has("--csv")));
    Ok(())
}

fn print_table3(args: &Args) -> Result<(), TravelError> {
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
    print!("{}", render(&t, args.has("--csv")));
    Ok(())
}

fn print_table4(args: &Args) -> Result<(), TravelError> {
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
    print!("{}", render(&t, args.has("--csv")));
    Ok(())
}

fn print_table5(args: &Args) -> Result<(), TravelError> {
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
    print!("{}", render(&t, args.has("--csv")));
    println!(
        "paper A(WS) = {PAPER_A_WS:.9}; reproduced = {imperfect:.9} \
         (delta {:.1e})",
        (imperfect - PAPER_A_WS).abs()
    );
    Ok(())
}

fn print_table6(args: &Args) -> Result<(), TravelError> {
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
    print!("{}", render(&t, args.has("--csv")));
    Ok(())
}

fn print_table7(args: &Args) -> Result<(), TravelError> {
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
    print!("{}", render(&t, args.has("--csv")));
    Ok(())
}

fn print_table8(args: &Args) -> Result<(), TravelError> {
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
    print!("{}", render(&t, args.has("--csv")));
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

fn print_fig11(args: &Args) -> Result<(), TravelError> {
    figure_table(
        "Figure 11 — web service unavailability vs N_W (perfect coverage)",
        &figure11()?,
        args.has("--csv"),
    );
    Ok(())
}

fn print_fig12(args: &Args) -> Result<(), TravelError> {
    figure_table(
        "Figure 12 — web service unavailability vs N_W (imperfect coverage)",
        &figure12()?,
        args.has("--csv"),
    );
    Ok(())
}

fn print_fig13(args: &Args) -> Result<(), TravelError> {
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
        print!("{}", render(&t, args.has("--csv")));
        println!();
    }
    Ok(())
}

fn print_revenue(args: &Args) -> Result<(), TravelError> {
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
    print!("{}", render(&t, args.has("--csv")));
    Ok(())
}

fn print_capacity(args: &Args) -> Result<(), TravelError> {
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
    print!("{}", render(&t, args.has("--csv")));
    Ok(())
}

fn print_ablation(args: &Args) -> Result<(), TravelError> {
    let csv = args.has("--csv");
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

fn print_deadline(args: &Args) -> Result<(), TravelError> {
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
    print!("{}", render(&t, args.has("--csv")));
    let strict = uavail_travel::extensions::min_web_servers_for_deadline(1e-3, 0.1, &p, 10)?;
    println!(
        "min N_W for unavailability < 1e-3 under a 100 ms deadline: {}",
        strict.map(|v| v.to_string()).unwrap_or_else(|| "-".into())
    );
    Ok(())
}

fn print_maintenance(args: &Args) -> Result<(), TravelError> {
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
    print!("{}", render(&t, args.has("--csv")));
    Ok(())
}

fn print_multisite(args: &Args) -> Result<(), TravelError> {
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
    print!("{}", render(&t, args.has("--csv")));
    println!("(conservative composition: per-site platform folded into one factor)");
    Ok(())
}

fn print_ramp(args: &Args) -> Result<(), TravelError> {
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
    print!("{}", render(&t, args.has("--csv")));
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

fn print_fit(args: &Args) -> Result<(), TravelError> {
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
    print!("{}", render(&t, args.has("--csv")));
    println!("squared fit error: class A {err_a:.2e}, class B {err_b:.2e}");
    Ok(())
}

fn print_fta(args: &Args) -> Result<(), TravelError> {
    let csv = args.has("--csv");
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

fn print_mttf(args: &Args) -> Result<(), TravelError> {
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
    print!("{}", render(&t, args.has("--csv")));
    Ok(())
}

/// Equation (10) against 4 replications of 50 000 simulated sessions
/// per class, on every core.
fn print_session(args: &Args) -> Result<(), TravelError> {
    let params = TaParameters::paper_defaults();
    let mut t = Table::new(
        "Validation — equation (10) vs end-to-end session simulation",
        vec!["class", "analytic A(user)", "simulated", "99.99% CI"],
    );
    for class in [class_a(), class_b()] {
        let obs = simulate_user_availability(
            20240601,
            &class,
            &params,
            Architecture::paper_reference(),
            50_000,
            4,
            default_threads(),
        )?;
        let (lo, hi) = obs.confidence_interval(3.9);
        t.add_row(vec![
            class.name().to_string(),
            format!("{:.5}", obs.analytic),
            format!("{:.5}", obs.availability()),
            format!("[{lo:.5}, {hi:.5}]"),
        ]);
    }
    print!("{}", render(&t, args.has("--csv")));
    println!("(4 replications of 50000 sessions)");
    Ok(())
}

fn print_validate(args: &Args) -> Result<(), TravelError> {
    farm_validation(
        "Validation — analytic (eq. 9) vs joint farm simulation",
        args.has("--csv"),
    )?;
    Ok(())
}

/// The farm plan `validate` prints and simgate gates on: equation (9)
/// against 32 epoch-kernel replications of 10 000 time units at the
/// time-compressed parameters, on every core. Prints the report under
/// `title` and the batch-means line after it.
fn farm_validation(title: &str, csv: bool) -> Result<ValidationReport, TravelError> {
    let report = validate_web_service(
        &compressed_parameters(),
        10_000.0,
        20240601,
        32,
        default_threads(),
    )?;
    validation_table(title, &report, csv);
    let (lo, hi) = report.batch_interval(3.9);
    println!(
        "batch-means 99.99% CI ({} batches over {} replications): [{}, {}]",
        report.batches,
        report.replications,
        fmt_unavailability(lo),
        fmt_unavailability(hi)
    );
    Ok(report)
}

fn print_speedup(args: &Args) -> Result<(), TravelError> {
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

    let reps = 30u32;
    let time_sweeps = |parallel: bool| -> Result<f64, TravelError> {
        let start = Instant::now();
        for _ in 0..reps {
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
    print!("{}", render(&t, args.has("--csv")));
    if threads >= 4 && speedup < 2.0 {
        eprintln!("warning: expected >= 2x speedup on {threads} threads, got {speedup:.2}x");
    }
    Ok(())
}

/// The simulation statistical gate behind `reproduce simgate`.
///
/// Gate 1 runs the joint farm simulator on the time-compressed
/// parameters through the epoch-kernel replications with batch means and
/// checks the paper's analytic unavailability (eq. 9, imperfect
/// coverage) against both the pooled Wilson interval and the
/// batch-means interval. Gate 2 runs the M/M/c/K queue simulator and
/// checks the analytic Erlang blocking probability against the pooled
/// Wilson interval over the replicated loss counts. The outcome is
/// `Failed` — a nonzero exit — when either analytic twin falls outside
/// its simulation interval.
fn run_simgate(args: &Args) -> Result<Outcome, Box<dyn Error>> {
    use uavail_queueing::BirthDeathQueue;
    use uavail_sim::replicate::replicate;
    use uavail_sim::stats::{batch_means, Proportion};
    use uavail_sim::{QueueSimulation, SimError};

    let threads = default_threads();
    let csv = args.has("--csv");

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
    let farm = farm_validation(
        "Simgate — farm simulator vs analytic unavailability (streaming)",
        csv,
    )?;
    let farm_ok = farm.agrees(0.15) && farm.batch_agrees(3.9, 0.15);
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
    let observations = replicate(
        20240602,
        reps,
        threads,
        || (),
        |(), rng, _| qsim.run(rng, per_rep),
    )?;
    // One batch per replication: the batch means are the per-replication
    // loss fractions.
    let fractions: Vec<f64> = observations.iter().map(|o| o.loss_fraction()).collect();
    let queue_stats = batch_means(&fractions, fractions.len())
        .ok_or(TravelError::Sim(SimError::NoObservations))?;
    let arrivals: u64 = observations.iter().map(|o| o.arrivals).sum();
    let losses: u64 = observations.iter().map(|o| o.losses).sum();
    let pooled = Proportion::new(losses, arrivals);
    let (queue_lo, queue_hi) = pooled.confidence_interval(3.9);
    let queue_ok = analytic >= queue_lo && analytic <= queue_hi;

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
    t.add_row(vec!["requests simulated".into(), arrivals.to_string()]);
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
    if farm_ok && queue_ok && slo_ok {
        Ok(Outcome::Clean)
    } else {
        eprintln!("reproduce: simgate: a simulator disagrees with its analytic twin");
        Ok(Outcome::Failed)
    }
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
