//! One workload in one mode, end to end.
//!
//! Untraced runs measure what a user sees: throughput, median latency and
//! set-up time. Traced runs give the per-layer numbers: the serve layer
//! read from outside the server (`/slo`, `/metrics`, inline `GET /`
//! round trips), a second server with the program's own tracing on for
//! the tracing overhead, and the in-process layer replay.

use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use uavail_obs::json::JsonValue;

use crate::check::{check_response, verify};
use crate::layers::{self, LayerTimes};
use crate::load::{self, LoadRun, CLIENTS, PROBE_CLIENT};
use crate::report::{Metric, Report};
use crate::repro;
use crate::server::{exchange, prometheus_counter, split_response, Server, SERVE_FLAGS};
use crate::stats::{median, percentile_milli, tail_percentile_milli, Tally};
use crate::workload::{body, Workload};

/// Run settings shared by every workload.
#[derive(Debug, Clone)]
pub struct Settings {
    pub seed: u64,
    /// Measured seconds per run.
    pub seconds: f64,
    /// The short CI configuration: fewer repetitions of everything.
    pub smoke: bool,
    pub out: PathBuf,
    pub reproduce: PathBuf,
}

impl Settings {
    fn measure(&self) -> Duration {
        Duration::from_secs_f64(self.seconds)
    }

    fn warmup(&self) -> Duration {
        Duration::from_millis(if self.smoke { 200 } else { 1_000 })
    }

    /// Server spawns, or `reproduce table1` runs, per set-up median.
    fn setups(&self) -> usize {
        if self.smoke {
            3
        } else {
            21
        }
    }

    fn simgate_runs(&self) -> usize {
        if self.smoke {
            2
        } else {
            10
        }
    }

    /// In-process Figure 2 fits, fastest reported (each takes about 0.35 s).
    fn fit_runs(&self) -> usize {
        if self.smoke {
            1
        } else {
            3
        }
    }

    fn transport_probes(&self) -> usize {
        if self.smoke {
            200
        } else {
            2_000
        }
    }

    /// Requests per layer-replay pass, and timed passes.
    fn replay_shape(&self) -> (usize, usize) {
        if self.smoke {
            (32, 1)
        } else {
            (256, 3)
        }
    }

    fn file(&self, name: String) -> PathBuf {
        self.out.join(name)
    }
}

/// Fewest `reproduce all` runs per phase.
const MIN_REPRODUCE_RUNS: usize = 3;

/// Runs `workload` untraced (end-to-end metrics) or traced (per-layer
/// metrics).
pub fn run(settings: &Settings, workload: Workload, traced: bool) -> Result<Report, String> {
    let mut report = Report {
        workload: workload.name(),
        traced,
        seed: settings.seed,
        seconds: settings.seconds,
        clients: if workload == Workload::Reproduce && !traced {
            1
        } else {
            CLIENTS
        },
        commands: Vec::new(),
        tally: Tally::default(),
        problems: Vec::new(),
        metrics: Vec::new(),
    };
    let outcome = match (workload, traced) {
        (Workload::Reproduce, false) => reproduce_end_to_end(settings, &mut report),
        (Workload::Reproduce, true) => reproduce_layers(settings, &mut report),
        (_, false) => eval_end_to_end(settings, workload, &mut report),
        (_, true) => eval_layers(settings, workload, &mut report),
    };
    // An aborted run still names the operations that failed before it.
    outcome.map_err(|e| {
        std::iter::once(e)
            .chain(report.tally.messages.iter().cloned())
            .collect::<Vec<_>>()
            .join("\n  ")
    })?;
    Ok(report)
}

fn eval_end_to_end(
    settings: &Settings,
    workload: Workload,
    report: &mut Report,
) -> Result<(), String> {
    report.commands.push(SERVE_FLAGS.join(" "));
    let mut setups = Vec::new();
    // Each set-up answers another probe: on `eval-cold` the first query's
    // farm size alone moves set-up time by a millisecond.
    for probe in 0..settings.setups() as u64 {
        let (server, setup) = start(settings, workload, probe, &[], report)?;
        setups.push(setup.as_secs_f64());
        server.shutdown()?;
    }
    let observed = observe(settings, workload, &[], settings.measure(), false, report)?;
    let load = &observed.load;
    report.metrics.extend([
        Metric::new(
            "qps",
            load.qps().ok_or("no whole throughput window")?,
            "1/s",
            load.window_queries.len() as u64,
        ),
        Metric::new(
            "p50_ms",
            1e3 * load
                .p50()
                .ok_or("no request completed inside a whole window")?,
            "ms",
            load.latencies.len() as u64,
        ),
        Metric::new(
            "setup_s",
            median(&setups).expect("at least one set-up"),
            "s",
            setups.len() as u64,
        ),
    ]);
    Ok(())
}

fn reproduce_end_to_end(settings: &Settings, report: &mut Report) -> Result<(), String> {
    report.commands = vec!["table1".to_string(), "all".to_string()];
    let mut setups = Vec::new();
    for _ in 0..settings.setups() {
        if let Some(d) = operation(&mut report.tally, repro::startup(&settings.reproduce)) {
            setups.push(d.as_secs_f64());
        }
    }
    let walls = reproduce_runs(settings, settings.measure(), &[], &mut report.tally);
    // Each run is a window holding one sample, so the fastest window's
    // throughput and median latency both come from the fastest run.
    let fastest = fastest(&walls).ok_or("no reproduce run succeeded")?;
    report.metrics.extend([
        Metric::new("qps", 1.0 / fastest, "1/s", walls.len() as u64),
        Metric::new("p50_ms", 1e3 * fastest, "ms", walls.len() as u64),
        Metric::new(
            "setup_s",
            median(&setups).ok_or("no set-up succeeded")?,
            "s",
            setups.len() as u64,
        ),
    ]);
    Ok(())
}

/// Fresh-process `reproduce all` runs for at least `span` and at least
/// [`MIN_REPRODUCE_RUNS`] runs; returns the wall times of the runs that
/// matched the golden output.
fn reproduce_runs(
    settings: &Settings,
    span: Duration,
    extra: &[&str],
    tally: &mut Tally,
) -> Vec<f64> {
    let started = Instant::now();
    let mut walls = Vec::new();
    let mut runs = 0;
    while runs < MIN_REPRODUCE_RUNS || (!settings.smoke && started.elapsed() < span) {
        if let Some(d) = operation(tally, repro::all(&settings.reproduce, extra)) {
            walls.push(d.as_secs_f64());
        }
        runs += 1;
    }
    walls
}

/// The shortest wall time.
fn fastest(walls: &[f64]) -> Option<f64> {
    walls.iter().copied().min_by(f64::total_cmp)
}

/// Records an operation's outcome; the value on success.
fn operation<T>(tally: &mut Tally, outcome: Result<T, String>) -> Option<T> {
    match outcome {
        Ok(value) => {
            tally.succeed();
            Some(value)
        }
        Err(e) => {
            tally.fail(e);
            None
        }
    }
}

/// Spawns a server with `extra` flags and times it to its first `200`
/// from `/eval`, answering request `probe` of the probe stream; the probe
/// counts as one operation.
fn start(
    settings: &Settings,
    workload: Workload,
    probe: u64,
    extra: &[String],
    report: &mut Report,
) -> Result<(Server, Duration), String> {
    let probe = body(workload, settings.seed, PROBE_CLIENT, probe);
    let (server, setup, answer) = Server::spawn_timed(&settings.reproduce, extra, &probe)?;
    operation(
        &mut report.tally,
        check_response(&answer, workload.queries_per_request()).map(drop),
    );
    Ok((server, setup))
}

/// One server's view of a closed-loop run.
struct Observation {
    load: LoadRun,
    /// `GET /` round-trip times in seconds (probed runs only).
    transport: Vec<f64>,
    /// The `/slo` `queueing` block after the run.
    queueing: JsonValue,
    /// The `/metrics` exposition after the run (probed runs only).
    exposition: String,
}

/// Starts a server, drives `workload` against it, optionally probes the
/// transport and scrapes `/metrics`, checks that the server completed
/// exactly the requests sent, stops it and verifies every answer.
fn observe(
    settings: &Settings,
    workload: Workload,
    extra: &[String],
    measure: Duration,
    probe: bool,
    report: &mut Report,
) -> Result<Observation, String> {
    let (server, _) = start(settings, workload, 0, extra, report)?;
    server.place_threads();
    let load = load::run(
        server.addr(),
        workload,
        settings.seed,
        settings.warmup(),
        measure,
    );
    let (transport, exposition) = if probe {
        (
            transport_round_trips(&server, settings.transport_probes())?,
            server.get("/metrics")?,
        )
    } else {
        (Vec::new(), String::new())
    };
    let queueing = server.queueing()?;
    server.shutdown()?;
    let sent = load.exchanges.len() as u64 + 1;
    let completions = field(&queueing, "completions")? as u64;
    if completions != sent {
        report.problems.push(format!(
            "{}: server completed {completions} /eval requests, {sent} were sent",
            workload.name()
        ));
    }
    verify(workload, settings.seed, &load.exchanges, &mut report.tally);
    Ok(Observation {
        load,
        transport,
        queueing,
        exposition,
    })
}

/// Round trips of `GET /` on fresh connections: the accept thread
/// answers these inline, so they time the transport alone.
fn transport_round_trips(server: &Server, count: usize) -> Result<Vec<f64>, String> {
    let raw = b"GET / HTTP/1.1\r\nHost: localhost\r\nConnection: close\r\n\r\n";
    (0..count)
        .map(|_| {
            let started = Instant::now();
            let response = exchange(server.addr(), raw).map_err(|e| format!("GET /: {e}"))?;
            let elapsed = started.elapsed().as_secs_f64();
            match split_response(&response) {
                Some((200, _)) => Ok(elapsed),
                _ => Err("GET / did not answer 200".to_string()),
            }
        })
        .collect()
}

fn field(block: &JsonValue, name: &str) -> Result<f64, String> {
    block
        .get(name)
        .and_then(JsonValue::as_f64)
        .ok_or_else(|| format!("/slo queueing block has no {name}"))
}

fn latency_ms(load: &LoadRun, p_milli: u64) -> Result<f64, String> {
    let mut sorted = load.latencies.clone();
    sorted.sort_by(f64::total_cmp);
    percentile_milli(&sorted, p_milli)
        .map(|s| s * 1e3)
        .ok_or_else(|| "no request completed inside the measured window".to_string())
}

fn eval_layers(settings: &Settings, workload: Workload, report: &mut Report) -> Result<(), String> {
    let half = settings.measure() / 2;
    let untraced = observe(settings, workload, &[], half, true, report)?;
    let name = workload.name();
    let traced_flags = vec![
        "--metrics".to_string(),
        path_arg(&settings.file(format!("{name}.server.metrics.jsonl")))?,
        "--trace".to_string(),
        path_arg(&settings.file(format!("{name}.server.trace.json")))?,
    ];
    report.commands = vec![
        SERVE_FLAGS.join(" "),
        format!("{} {}", SERVE_FLAGS.join(" "), traced_flags.join(" ")),
        "simgate".to_string(),
    ];
    let traced = observe(settings, workload, &traced_flags, half, false, report)?;
    let qps = |o: &Observation| o.load.qps().ok_or("no whole throughput window");
    let trace_overhead = 1.0 - qps(&traced)? / qps(&untraced)?;
    let layers = replay(settings, workload, report)?;
    let service_us = serve_metrics(&untraced, report)?;
    let worker_us = layers.worker_us(workload.queries_per_request());
    report.metrics.push(Metric::new(
        "obs.trace_overhead",
        trace_overhead,
        "ratio",
        2,
    ));
    layer_metrics(&layers, workload, report);
    reproduction_metrics(settings, report);
    report.metrics.push(Metric::new(
        "attribution_gap",
        1.0 - worker_us / service_us,
        "ratio",
        layers.requests as u64,
    ));
    Ok(())
}

fn reproduce_layers(settings: &Settings, report: &mut Report) -> Result<(), String> {
    let half = settings.measure() / 2;
    let untraced = reproduce_runs(settings, half, &[], &mut report.tally);
    let metrics_file = path_arg(&settings.file("reproduce.metrics.jsonl".to_string()))?;
    let trace_file = path_arg(&settings.file("reproduce.trace.json".to_string()))?;
    let traced = reproduce_runs(
        settings,
        half,
        &["--metrics", &metrics_file, "--trace", &trace_file],
        &mut report.tally,
    );
    report.commands = vec![
        "all".to_string(),
        format!("all --metrics {metrics_file} --trace {trace_file}"),
        SERVE_FLAGS.join(" "),
        "simgate".to_string(),
    ];
    let wall_untraced = fastest(&untraced).ok_or("no untraced reproduce run succeeded")?;
    let wall_traced = fastest(&traced).ok_or("no traced reproduce run succeeded")?;
    // The serve layer is not on the reproduction path; its probes run on
    // the paper-default query stream so every workload reports them.
    let serve_span = if settings.smoke {
        Duration::from_millis(500)
    } else {
        Duration::from_secs(1)
    };
    let served = observe(settings, Workload::Reproduce, &[], serve_span, true, report)?;
    serve_metrics(&served, report)?;
    let layers = replay(settings, Workload::Reproduce, report)?;
    report.metrics.push(Metric::new(
        "obs.trace_overhead",
        1.0 - wall_untraced / wall_traced,
        "ratio",
        (untraced.len() + traced.len()) as u64,
    ));
    layer_metrics(&layers, Workload::Reproduce, report);
    let attributed_s = reproduction_metrics(settings, report);
    report.metrics.push(Metric::new(
        "attribution_gap",
        1.0 - attributed_s / wall_untraced,
        "ratio",
        untraced.len() as u64,
    ));
    Ok(())
}

fn replay(
    settings: &Settings,
    workload: Workload,
    report: &mut Report,
) -> Result<LayerTimes, String> {
    let (requests, passes) = settings.replay_shape();
    let trace = settings.file(format!("{}.layers.trace.json", workload.name()));
    layers::replay(
        workload,
        settings.seed,
        requests,
        passes,
        &trace,
        &mut report.problems,
    )
}

fn path_arg(path: &Path) -> Result<String, String> {
    path.to_str()
        .map(str::to_string)
        .ok_or_else(|| format!("output path {} is not UTF-8", path.display()))
}

/// The serve-layer metrics of an untraced observation; returns the mean
/// service time in microseconds.
fn serve_metrics(o: &Observation, report: &mut Report) -> Result<f64, String> {
    let load = &o.load;
    let requests = load.latencies.len() as u64;
    let tail = tail_percentile_milli(load.latencies.len());
    let mut transport = o.transport.clone();
    transport.sort_by(f64::total_cmp);
    let transport_us = 1e6 * percentile_milli(&transport, 50_000).ok_or("no transport probe")?;
    let service_rate = field(&o.queueing, "service_rate")?;
    if service_rate <= 0.0 {
        return Err("/slo reports no service rate".to_string());
    }
    let service_us = 1e6 / service_rate;
    let mean_latency_us =
        1e6 * load.latencies.iter().sum::<f64>() / load.latencies.len().max(1) as f64;
    let failures = [
        "shed",
        "eval_errors",
        "bad_requests",
        "deadline_timeouts",
        "worker_panics",
    ]
    .iter()
    .map(|name| field(&o.queueing, name))
    .sum::<Result<f64, String>>()?;
    let completions = field(&o.queueing, "completions")? as u64;
    let hits = prometheus_counter(&o.exposition, "uavail_travel_loss_cache_hits_total");
    let misses = prometheus_counter(&o.exposition, "uavail_travel_loss_cache_misses_total");
    let in_flight = load.in_flight();
    // Little's law holds for the harness's own accounting only if the
    // clients really keep one request each in flight.
    if (in_flight / CLIENTS as f64 - 1.0).abs() > 0.05 {
        report.problems.push(format!(
            "{}: Little's law gives {in_flight:.3} requests in flight for {CLIENTS} closed-loop clients",
            report.workload
        ));
    }
    let mut tail_metric = Metric::new("client.tail_ms", latency_ms(load, tail)?, "ms", requests);
    tail_metric.percentile_milli = Some(tail);
    report.metrics.extend([
        tail_metric,
        Metric::new(
            "serve.transport_us",
            transport_us,
            "us",
            transport.len() as u64,
        ),
        Metric::new("serve.service_us", service_us, "us", completions),
        Metric::new(
            "serve.wait_us",
            mean_latency_us - transport_us - service_us,
            "us",
            requests,
        ),
        Metric::new(
            "serve.utilization",
            load.request_rate() * service_us / 1e6,
            "ratio",
            requests,
        ),
        Metric::new("serve.little_n", in_flight, "clients", requests),
        Metric::new("serve.failures", failures, "count", completions),
        Metric::new(
            "travel.loss_cache_hit_ratio",
            if hits + misses == 0 {
                0.0
            } else {
                hits as f64 / (hits + misses) as f64
            },
            "ratio",
            hits + misses,
        ),
        Metric::new(
            "travel.farm_memo_hits",
            prometheus_counter(&o.exposition, "uavail_travel_farm_memo_hits_total") as f64,
            "count",
            completions,
        ),
    ]);
    Ok(service_us)
}

fn layer_metrics(l: &LayerTimes, workload: Workload, report: &mut Report) {
    let requests = (l.requests * l.passes) as u64;
    let queries = requests * workload.queries_per_request() as u64;
    report.metrics.extend([
        Metric::new("serve.read_request_us", l.read_request_us, "us", requests),
        Metric::new("serve.parse_us", l.parse_us, "us", requests),
        Metric::new("serve.render_us", l.render_us, "us", requests),
        Metric::new("serve.write_us", l.write_us, "us", requests),
        Metric::new("travel.eval_us", l.eval_us, "us", queries),
        Metric::new("travel.webservice_us", l.webservice_us, "us", queries),
        Metric::new("travel.user_us", l.user_us, "us", queries),
        Metric::new("markov.farm_solve_us", l.farm_solve_us, "us", queries),
        Metric::new("queueing.mmck_us", l.mmck_us, "us", queries),
        Metric::new("core.composite_us", l.composite_us, "us", queries),
        Metric::new("travel.ws_alloc_us", l.ws_alloc_us, "us", queries),
        Metric::new(
            "travel.ws_attribution_gap",
            l.ws_attribution_gap(),
            "ratio",
            queries,
        ),
        Metric::new(
            "profile.scenario_probs_us",
            l.scenario_probs_us,
            "us",
            l.passes as u64,
        ),
    ]);
}

/// The layers of `reproduce all`: the Figure 2 fit, the figure/table
/// artifacts and (outside `all`) the simulation gate. Returns the seconds
/// of the fastest `reproduce all` they account for, from their own
/// fastest runs.
fn reproduction_metrics(settings: &Settings, report: &mut Report) -> f64 {
    let fits: Vec<f64> = (0..settings.fit_runs())
        .filter_map(|_| operation(&mut report.tally, repro::fig2_fit()))
        .map(|d| d.as_secs_f64())
        .collect();
    let artifact_runs: Vec<f64> = (0..3)
        .filter_map(|_| operation(&mut report.tally, repro::artifacts()))
        .map(|d| d.as_secs_f64())
        .collect();
    let simgate: Vec<f64> = (0..settings.simgate_runs())
        .filter_map(|_| operation(&mut report.tally, repro::simgate(&settings.reproduce)))
        .map(|d| d.as_secs_f64())
        .collect();
    let fit = fastest(&fits).unwrap_or(0.0);
    let artifacts = fastest(&artifact_runs).unwrap_or(0.0);
    report.metrics.extend([
        Metric::new("travel.fig2_fit_s", fit, "s", fits.len() as u64),
        Metric::new(
            "travel.artifacts_ms",
            1e3 * artifacts,
            "ms",
            artifact_runs.len() as u64,
        ),
        Metric::new(
            "sim.simgate_s",
            median(&simgate).unwrap_or(0.0),
            "s",
            simgate.len() as u64,
        ),
    ]);
    fit + artifacts
}
