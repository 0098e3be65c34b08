//! In-process replay of a workload's seeded bodies through the layer
//! functions the query plane is built from, timed layer by layer.
//!
//! Each layer is timed over a whole batch of requests at once (one
//! `Instant` pair per layer per pass), because a memo-hit evaluation
//! takes well under the cost of reading the clock. A separate, smaller
//! pass records one span per layer call — name, start, end, parent and a
//! request id shared by every span of one request — and writes them as a
//! Chrome trace, so single requests can be inspected.

use std::collections::HashMap;
use std::hint::black_box;
use std::io::Cursor;
use std::path::Path;
use std::time::{Duration, Instant};

use uavail_core::composite::{composite_availability, CompositeState};
use uavail_obs::json::JsonValue;
use uavail_queueing::MMcK;
use uavail_serve::eval::{
    evaluate_query, parse_eval_request, render_results, EvalQuery, QueryClass, QueryResult,
};
use uavail_serve::http::{read_request, write_response};
use uavail_travel::fig2::Fig2Probabilities;
use uavail_travel::user::{class_a, class_b};
use uavail_travel::webservice::{
    farm_distribution_imperfect, redundant_imperfect_availability,
    redundant_imperfect_availability_with, reset_loss_cache,
};
use uavail_travel::{functions, services, user, Architecture, Coverage, EvalContext, TaParameters};

use crate::stats::median;
use crate::workload::{body, eval_request, Workload};

/// Per-call costs of each layer, in microseconds.
#[derive(Debug, Clone, Default)]
pub struct LayerTimes {
    /// Per request.
    pub read_request_us: f64,
    pub parse_us: f64,
    pub render_us: f64,
    pub write_us: f64,
    /// Per query.
    pub eval_us: f64,
    pub webservice_us: f64,
    pub user_us: f64,
    pub farm_solve_us: f64,
    pub mmck_us: f64,
    pub composite_us: f64,
    pub ws_alloc_us: f64,
    /// Per call.
    pub scenario_probs_us: f64,
    /// Requests replayed per timed pass, and timed passes.
    pub requests: usize,
    pub passes: usize,
}

impl LayerTimes {
    /// The worker's share of one request as the layers account for it.
    pub fn worker_us(&self, queries_per_request: usize) -> f64 {
        self.parse_us + self.eval_us * queries_per_request as f64 + self.render_us + self.write_us
    }

    /// Share of the allocating web-service evaluation the farm solve,
    /// the M/M/c/K solves and the composite do not account for.
    pub fn ws_attribution_gap(&self) -> f64 {
        1.0 - (self.farm_solve_us + self.mmck_us + self.composite_us) / self.ws_alloc_us
    }
}

/// Client id whose stream the replay draws bodies from: client 0, so the
/// replay sees the very bodies the first load client sent.
const REPLAY_CLIENT: u64 = 0;

/// Requests recorded span by span into the trace file.
const SPAN_REQUESTS: usize = 32;

/// `Fig2Probabilities::scenario_probabilities` calls per timed pass.
const SCENARIO_CALLS: usize = 200;

/// One timed pass's inputs: the raw requests and their parsed queries.
struct Batch {
    raws: Vec<Vec<u8>>,
    queries: Vec<EvalQuery>,
}

fn batch(workload: Workload, seed: u64, first: u64, count: usize) -> Result<Batch, String> {
    let mut raws = Vec::with_capacity(count);
    let mut queries = Vec::new();
    for n in first..first + count as u64 {
        let text = body(workload, seed, REPLAY_CLIENT, n);
        queries.extend(parse_eval_request(text.as_bytes())?.queries);
        raws.push(eval_request(&text));
    }
    Ok(Batch { raws, queries })
}

/// Contexts that persist across passes, like a worker's.
struct Contexts {
    eval: EvalContext,
    webservice: EvalContext,
    user: EvalContext,
}

/// Replays `requests` bodies per pass through every layer, `passes` timed
/// passes after one warm-up pass, and writes the span trace to
/// `trace_path`. A decomposed web-service answer that differs from the
/// allocating path's is recorded in `problems`.
pub fn replay(
    workload: Workload,
    seed: u64,
    requests: usize,
    passes: usize,
    trace_path: &Path,
    problems: &mut Vec<String>,
) -> Result<LayerTimes, String> {
    let mut ctx = Contexts {
        eval: EvalContext::new(),
        webservice: EvalContext::new(),
        user: EvalContext::new(),
    };
    let mut samples: HashMap<&'static str, Vec<f64>> = HashMap::new();
    // Every pass draws fresh bodies, so `eval-cold` stays cold on the
    // persistent contexts exactly as it does on a worker.
    for pass in 0..=passes {
        let batch = batch(workload, seed, (pass * requests) as u64, requests)?;
        let timed = time_pass(&batch, &mut ctx, problems)?;
        if pass > 0 {
            for (name, value) in timed {
                samples.entry(name).or_default().push(value);
            }
        }
    }
    let per = |name: &str| samples.get(name).and_then(|v| median(v)).unwrap_or(0.0);
    let times = LayerTimes {
        read_request_us: per("read_request"),
        parse_us: per("parse"),
        render_us: per("render"),
        write_us: per("write"),
        eval_us: per("eval"),
        webservice_us: per("webservice"),
        user_us: per("user"),
        farm_solve_us: per("farm"),
        mmck_us: per("mmck"),
        composite_us: per("composite"),
        ws_alloc_us: per("ws_alloc"),
        scenario_probs_us: per("scenario_probs"),
        requests,
        passes,
    };
    let spans = record_spans(
        workload,
        seed,
        ((passes + 1) * requests) as u64,
        &mut ctx.eval,
    )?;
    std::fs::write(trace_path, spans.to_chrome_trace())
        .map_err(|e| format!("cannot write {}: {e}", trace_path.display()))?;
    Ok(times)
}

/// Times every layer over one batch; returns microseconds per unit.
fn time_pass(
    batch: &Batch,
    ctx: &mut Contexts,
    problems: &mut Vec<String>,
) -> Result<Vec<(&'static str, f64)>, String> {
    let per = |elapsed: Duration, units: usize| elapsed.as_secs_f64() * 1e6 / units.max(1) as f64;
    let n_requests = batch.raws.len();
    let n_queries = batch.queries.len();
    let mut out = Vec::new();

    let started = Instant::now();
    let requests: Vec<_> = batch
        .raws
        .iter()
        .map(|raw| read_request(&mut Cursor::new(raw.as_slice())))
        .collect::<Result<_, _>>()
        .map_err(|e| format!("read_request: {e:?}"))?;
    out.push(("read_request", per(started.elapsed(), n_requests)));

    let started = Instant::now();
    let parsed: Vec<_> = requests
        .iter()
        .map(|r| parse_eval_request(&r.body))
        .collect::<Result<_, _>>()?;
    out.push(("parse", per(started.elapsed(), n_requests)));

    // The loss memo is process-wide: empty it before each evaluating
    // layer so none of them replays a solve another layer just did. A
    // worker's memo never holds a cold query's solves either, and hot
    // queries hit the context memos before reaching it.
    reset_loss_cache();
    let started = Instant::now();
    let mut results = Vec::with_capacity(n_requests);
    for request in &parsed {
        let mut answers = Vec::with_capacity(request.queries.len());
        for q in &request.queries {
            let availability = evaluate_query(q, &mut ctx.eval).map_err(|e| e.to_string())?;
            answers.push(QueryResult::Ok {
                availability,
                stale: false,
            });
        }
        results.push(answers);
    }
    out.push(("eval", per(started.elapsed(), n_queries)));

    let started = Instant::now();
    let bodies: Vec<String> = parsed
        .iter()
        .zip(&results)
        .map(|(request, answers)| {
            format!(
                "{}\n",
                render_results(&request.queries, answers, false, false)
            )
        })
        .collect();
    out.push(("render", per(started.elapsed(), n_requests)));

    let mut wire = Vec::with_capacity(4096);
    let started = Instant::now();
    for body in &bodies {
        wire.clear();
        write_response(&mut wire, "200 OK", "application/json", &[], body);
        black_box(&wire);
    }
    out.push(("write", per(started.elapsed(), n_requests)));

    reset_loss_cache();
    let started = Instant::now();
    let mut a_ws = Vec::with_capacity(n_queries);
    for q in &batch.queries {
        a_ws.push(
            redundant_imperfect_availability_with(&q.params, &mut ctx.webservice)
                .map_err(|e| e.to_string())?,
        );
    }
    out.push(("webservice", per(started.elapsed(), n_queries)));

    // Web-service-only workloads still time the user layer, on their own
    // farm points, alternating the two classes.
    let (a, b) = (class_a(), class_b());
    let started = Instant::now();
    for (i, (q, &ws)) in batch.queries.iter().zip(&a_ws).enumerate() {
        let class = match q.class {
            QueryClass::ClassA => &a,
            QueryClass::ClassB => &b,
            QueryClass::WebService if i % 2 == 0 => &a,
            QueryClass::WebService => &b,
        };
        let env = service_env(&q.params, ws).map_err(|e| e.to_string())?;
        black_box(
            user::user_availability_with(class, &q.params, &env, &mut ctx.user)
                .map_err(|e| e.to_string())?,
        );
    }
    out.push(("user", per(started.elapsed(), n_queries)));

    let started = Instant::now();
    let farms: Vec<_> = batch
        .queries
        .iter()
        .map(|q| farm_distribution_imperfect(&q.params))
        .collect::<Result<_, _>>()
        .map_err(|e| e.to_string())?;
    out.push(("farm", per(started.elapsed(), n_queries)));

    let started = Instant::now();
    let losses: Vec<Vec<f64>> = batch
        .queries
        .iter()
        .map(|q| mmck_losses(&q.params))
        .collect::<Result<_, _>>()?;
    out.push(("mmck", per(started.elapsed(), n_queries)));

    let states: Vec<Vec<CompositeState>> = farms
        .iter()
        .zip(&losses)
        .map(|((op, y), loss)| composite_states(op, y, loss))
        .collect();
    let started = Instant::now();
    let composed: Vec<f64> = states
        .iter()
        .map(|s| composite_availability(s))
        .collect::<Result<_, _>>()
        .map_err(|e| e.to_string())?;
    out.push(("composite", per(started.elapsed(), n_queries)));

    let mut ws_alloc = Duration::ZERO;
    for (q, &decomposed) in batch.queries.iter().zip(&composed) {
        reset_loss_cache();
        let started = Instant::now();
        let direct = redundant_imperfect_availability(&q.params).map_err(|e| e.to_string())?;
        ws_alloc += started.elapsed();
        if direct.to_bits() != decomposed.to_bits() {
            problems.push(format!(
                "decomposed A(WS) {decomposed:e} differs from the allocating path's {direct:e}"
            ));
        }
    }
    out.push(("ws_alloc", per(ws_alloc, n_queries)));

    let profile = fig2_example();
    let started = Instant::now();
    for _ in 0..SCENARIO_CALLS {
        black_box(
            profile
                .scenario_probabilities()
                .map_err(|e| e.to_string())?,
        );
    }
    out.push(("scenario_probs", per(started.elapsed(), SCENARIO_CALLS)));
    Ok(out)
}

/// The service environment `eval::evaluate_query` builds around `A(WS)`.
fn service_env(
    p: &TaParameters,
    a_ws: f64,
) -> Result<HashMap<String, f64>, uavail_travel::TravelError> {
    let arch = Architecture::Redundant(Coverage::Imperfect);
    let mut env = HashMap::new();
    env.insert(functions::SERVICE_NET.to_string(), p.a_net);
    env.insert(functions::SERVICE_LAN.to_string(), p.a_lan);
    env.insert(functions::SERVICE_WEB.to_string(), a_ws);
    env.insert(
        functions::SERVICE_APP.to_string(),
        services::application(p, arch)?,
    );
    env.insert(
        functions::SERVICE_DB.to_string(),
        services::database(p, arch)?,
    );
    env.insert(functions::SERVICE_FLIGHT.to_string(), services::flight(p)?);
    env.insert(functions::SERVICE_HOTEL.to_string(), services::hotel(p)?);
    env.insert(functions::SERVICE_CAR.to_string(), services::car(p)?);
    env.insert(functions::SERVICE_PAYMENT.to_string(), services::payment(p));
    Ok(env)
}

/// `p_K(i)` for every operational server count `i = 1 ..= N_W`.
fn mmck_losses(p: &TaParameters) -> Result<Vec<f64>, String> {
    (1..=p.web_servers)
        .map(|i| {
            MMcK::new(
                p.arrival_rate_per_second,
                p.service_rate_per_second,
                i,
                p.buffer_size,
            )
            .map(|m| m.loss_probability())
            .map_err(|e| e.to_string())
        })
        .collect()
}

/// Equation (9)'s composite states: all-down, `i` operational servers
/// losing `p_K(i)`, and the reconfiguration states.
fn composite_states(op: &[f64], y: &[f64], loss: &[f64]) -> Vec<CompositeState> {
    let mut states = Vec::with_capacity(op.len() + y.len());
    states.push(CompositeState::new(op[0], 0.0));
    for (&p, &l) in op.iter().skip(1).zip(loss) {
        states.push(CompositeState::new(p, 1.0 - l));
    }
    states.extend(y.iter().map(|&p| CompositeState::new(p, 0.0)));
    states
}

/// A valid Figure 2 profile for timing the scenario enumeration.
fn fig2_example() -> Fig2Probabilities {
    Fig2Probabilities {
        start_home: 0.6,
        home_browse: 0.3,
        home_search: 0.3,
        browse_home: 0.2,
        browse_search: 0.3,
        search_book: 0.3,
        book_search: 0.2,
        book_pay: 0.5,
        reserved: 0.0,
    }
}

/// In-memory span log.
#[derive(Debug, Default)]
pub struct Spans {
    spans: Vec<Span>,
    origin: Option<Instant>,
}

#[derive(Debug)]
struct Span {
    name: &'static str,
    start: Duration,
    end: Duration,
    parent: Option<usize>,
    request: u64,
}

impl Spans {
    fn now(&mut self) -> Duration {
        self.origin.get_or_insert_with(Instant::now).elapsed()
    }

    /// Opens a span and returns its id.
    pub fn open(&mut self, name: &'static str, parent: Option<usize>, request: u64) -> usize {
        let start = self.now();
        self.spans.push(Span {
            name,
            start,
            end: start,
            parent,
            request,
        });
        self.spans.len() - 1
    }

    pub fn close(&mut self, id: usize) {
        self.spans[id].end = self.now();
    }

    /// Runs `f` inside a span.
    pub fn within<T>(&mut self, name: &'static str, parent: usize, f: impl FnOnce() -> T) -> T {
        let request = self.spans[parent].request;
        let id = self.open(name, Some(parent), request);
        let value = f();
        self.close(id);
        value
    }

    /// Duration minus the time covered by direct children.
    fn self_time(&self, id: usize) -> Duration {
        let children: Duration = self
            .spans
            .iter()
            .filter(|s| s.parent == Some(id))
            .map(|s| s.end - s.start)
            .sum();
        (self.spans[id].end - self.spans[id].start).saturating_sub(children)
    }

    /// Chrome/Perfetto `trace_event` JSON: one complete event per span,
    /// with the span id, parent, request id and self time as arguments.
    pub fn to_chrome_trace(&self) -> String {
        let us = |d: Duration| JsonValue::Float(d.as_secs_f64() * 1e6);
        let events = self
            .spans
            .iter()
            .enumerate()
            .map(|(id, s)| {
                JsonValue::object(vec![
                    ("name", JsonValue::str(s.name)),
                    ("cat", JsonValue::str("uabench")),
                    ("ph", JsonValue::str("X")),
                    ("ts", us(s.start)),
                    ("dur", us(s.end - s.start)),
                    ("pid", JsonValue::UInt(1)),
                    ("tid", JsonValue::UInt(1)),
                    (
                        "args",
                        JsonValue::object(vec![
                            ("span", JsonValue::UInt(id as u64)),
                            (
                                "parent",
                                s.parent
                                    .map_or(JsonValue::Null, |p| JsonValue::UInt(p as u64)),
                            ),
                            ("request", JsonValue::UInt(s.request)),
                            ("self_us", us(self.self_time(id))),
                        ]),
                    ),
                ])
            })
            .collect();
        JsonValue::object(vec![("traceEvents", JsonValue::Array(events))]).to_string()
    }
}

/// Records one span per layer call for [`SPAN_REQUESTS`] fresh requests
/// starting at stream index `first`.
fn record_spans(
    workload: Workload,
    seed: u64,
    first: u64,
    ctx: &mut EvalContext,
) -> Result<Spans, String> {
    let mut spans = Spans::default();
    for n in first..first + SPAN_REQUESTS as u64 {
        let raw = eval_request(&body(workload, seed, REPLAY_CLIENT, n));
        let root = spans.open("request", None, n);
        let request = spans
            .within("serve.read_request", root, || {
                read_request(&mut Cursor::new(raw.as_slice()))
            })
            .map_err(|e| format!("read_request: {e:?}"))?;
        let parsed = spans.within("serve.parse", root, || parse_eval_request(&request.body))?;
        let mut answers = Vec::with_capacity(parsed.queries.len());
        for q in &parsed.queries {
            let availability = spans
                .within("travel.eval", root, || evaluate_query(q, ctx))
                .map_err(|e| e.to_string())?;
            answers.push(QueryResult::Ok {
                availability,
                stale: false,
            });
        }
        let rendered = spans.within("serve.render", root, || {
            format!(
                "{}\n",
                render_results(&parsed.queries, &answers, false, false)
            )
        });
        let mut wire = Vec::new();
        spans.within("serve.write", root, || {
            write_response(&mut wire, "200 OK", "application/json", &[], &rendered)
        });
        for q in &parsed.queries {
            let decomposed = spans.open("travel.webservice.decomposed", Some(root), n);
            let (op, y) = spans
                .within("markov.farm_solve", decomposed, || {
                    farm_distribution_imperfect(&q.params)
                })
                .map_err(|e| e.to_string())?;
            let loss = spans.within("queueing.mmck", decomposed, || mmck_losses(&q.params))?;
            let states = composite_states(&op, &y, &loss);
            spans
                .within("core.composite", decomposed, || {
                    composite_availability(&states)
                })
                .map_err(|e| e.to_string())?;
            spans.close(decomposed);
        }
        spans.close(root);
    }
    Ok(spans)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_direct_children() {
        let mut spans = Spans::default();
        let root = spans.open("root", None, 7);
        spans.within("child", root, || {
            std::thread::sleep(Duration::from_millis(2))
        });
        spans.close(root);
        assert!(spans.self_time(root) < spans.spans[root].end - spans.spans[root].start);
        let trace = uavail_obs::json::parse(&spans.to_chrome_trace()).expect("valid JSON");
        let events = trace
            .get("traceEvents")
            .and_then(JsonValue::as_array)
            .expect("events");
        assert_eq!(events.len(), 2);
        let args = events[1].get("args").expect("args");
        assert_eq!(args.get("parent").and_then(JsonValue::as_u64), Some(0));
        assert_eq!(args.get("request").and_then(JsonValue::as_u64), Some(7));
    }
}
