//! The `/eval` worker pool: `c` panic-isolated workers with warm
//! [`EvalContext`]s draining the bounded admission queue, a supervisor
//! that respawns panicked workers, and the measured-side bookkeeping of
//! the plane's M/M/c/K self-model.
//!
//! The pool *is* the queueing system the repository models: `c`
//! servers, `K - c` waiting slots, arrivals shed at the door when the
//! waiting room is full. [`EvalPool::queueing_snapshot`] estimates the
//! arrival rate `λ̂` (admission attempts over the observation span) and
//! the service rate `μ̂` (jobs completed per busy-second), feeds them to
//! the in-tree [`MMcK`] solver, and grades the measured shed fraction
//! against the predicted loss probability with the same Wilson interval
//! (z = 3.9) the SLO monitor uses.

use std::collections::HashMap;
use std::io::Write;
use std::net::TcpStream;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{mpsc, Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use uavail_queueing::MMcK;
use uavail_travel::EvalContext;

use crate::breaker::{Admission, BreakerConfig, CircuitBreaker};
use crate::eval::{
    self, evaluate_query, parse_eval_request, query_key, render_results, EvalRequest, QueryKey,
    QueryResult,
};
use crate::http::{write_response, Request};
use crate::queue::AdmissionQueue;

const JSON: &str = "application/json";

/// Query-plane tuning. The defaults are sized for the CI overload
/// smoke: 2 workers and 6 waiting slots make an M/M/2/8 system small
/// enough to drive deep into its loss regime with a handful of client
/// threads.
#[derive(Debug, Clone, Copy)]
pub struct QueryPlaneConfig {
    /// Worker threads (`c` servers).
    pub workers: usize,
    /// Waiting slots in the admission queue (`K - c`).
    pub queue_slots: usize,
    /// Circuit-breaker thresholds.
    pub breaker: BreakerConfig,
    /// Most entries the stale-answer cache retains.
    pub stale_cache_cap: usize,
}

impl Default for QueryPlaneConfig {
    fn default() -> Self {
        QueryPlaneConfig {
            workers: 2,
            queue_slots: 6,
            breaker: BreakerConfig::default(),
            stale_cache_cap: 4096,
        }
    }
}

/// One admitted connection traveling through the queue to a worker.
pub(crate) struct Job {
    pub stream: TcpStream,
    pub request: Request,
    pub accepted_at: Instant,
}

/// Everything a response needs; built inside the panic fence, written
/// outside it so a panicking evaluation still yields a `500`.
struct Response {
    status: &'static str,
    extra: Vec<(&'static str, String)>,
    body: String,
}

#[derive(Debug)]
struct PoolStats {
    /// Admission attempts (admitted + shed): the arrival process.
    arrivals: AtomicU64,
    admitted: AtomicU64,
    /// Rejections at a full queue — the measured loss events.
    shed: AtomicU64,
    /// Jobs a worker finished (any response, including `500`s).
    completions: AtomicU64,
    eval_errors: AtomicU64,
    bad_requests: AtomicU64,
    deadline_timeouts: AtomicU64,
    stale_served: AtomicU64,
    /// Breaker open, stale cache missed: answered 503.
    breaker_rejected: AtomicU64,
    worker_panics: AtomicU64,
    worker_restarts: AtomicU64,
    /// Total nanoseconds workers spent occupied by a job.
    busy_ns: AtomicU64,
    /// Observation span bounds, nanoseconds since pool start.
    first_arrival_ns: AtomicU64,
    last_event_ns: AtomicU64,
}

impl Default for PoolStats {
    fn default() -> Self {
        PoolStats {
            arrivals: AtomicU64::new(0),
            admitted: AtomicU64::new(0),
            shed: AtomicU64::new(0),
            completions: AtomicU64::new(0),
            eval_errors: AtomicU64::new(0),
            bad_requests: AtomicU64::new(0),
            deadline_timeouts: AtomicU64::new(0),
            stale_served: AtomicU64::new(0),
            breaker_rejected: AtomicU64::new(0),
            worker_panics: AtomicU64::new(0),
            worker_restarts: AtomicU64::new(0),
            busy_ns: AtomicU64::new(0),
            // `fetch_min` seeds the span at the *first* arrival; a zero
            // start would silently stretch the span back to pool start
            // and deflate the measured arrival rate.
            first_arrival_ns: AtomicU64::new(u64::MAX),
            last_event_ns: AtomicU64::new(0),
        }
    }
}

/// Events flowing to the supervisor.
enum Event {
    /// A worker exited after a caught panic; respawn it.
    WorkerExit(usize),
    Shutdown,
}

struct PoolShared {
    config: QueryPlaneConfig,
    queue: AdmissionQueue<Job>,
    breaker: CircuitBreaker,
    stats: PoolStats,
    /// Stale-answer memo: query key → last live result.
    cache: Mutex<HashMap<QueryKey, f64>>,
    started: Instant,
    shutdown: AtomicBool,
    /// Every worker thread ever spawned (originals and respawns);
    /// drained at shutdown. Exited threads join instantly.
    handles: Mutex<Vec<JoinHandle<()>>>,
}

/// The running pool. [`EvalPool::shutdown`] is idempotent, callable
/// through a shared reference (the accept thread runs it when the
/// listener exits), and also runs on drop.
pub(crate) struct EvalPool {
    shared: Arc<PoolShared>,
    supervisor: Mutex<Option<JoinHandle<()>>>,
    events: Mutex<Option<mpsc::Sender<Event>>>,
}

impl std::fmt::Debug for EvalPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("EvalPool").finish_non_exhaustive()
    }
}

impl EvalPool {
    pub fn start(config: QueryPlaneConfig) -> EvalPool {
        let shared = Arc::new(PoolShared {
            queue: AdmissionQueue::new(config.queue_slots),
            breaker: CircuitBreaker::new(config.breaker),
            stats: PoolStats::default(),
            cache: Mutex::new(HashMap::new()),
            started: Instant::now(),
            shutdown: AtomicBool::new(false),
            handles: Mutex::new(Vec::new()),
            config,
        });
        let (tx, rx) = mpsc::channel::<Event>();
        for index in 0..config.workers.max(1) {
            spawn_worker(&shared, index, &tx);
        }
        let supervisor = {
            let shared = Arc::clone(&shared);
            let tx = tx.clone();
            std::thread::Builder::new()
                .name("uavail-eval-supervisor".to_string())
                .spawn(move || supervisor_loop(&shared, &rx, &tx))
                .expect("spawn supervisor")
        };
        EvalPool {
            shared,
            supervisor: Mutex::new(Some(supervisor)),
            events: Mutex::new(Some(tx)),
        }
    }

    /// Admission decision for one `/eval` connection: enqueue, or shed
    /// with an immediate `503` + `Retry-After`. Never blocks, never
    /// abandons the stream.
    pub fn admit(&self, stream: TcpStream, request: Request, accepted_at: Instant) {
        let stats = &self.shared.stats;
        let now = self.offset_ns();
        stats.arrivals.fetch_add(1, Ordering::Relaxed);
        stats.first_arrival_ns.fetch_min(now, Ordering::Relaxed);
        stats.last_event_ns.fetch_max(now, Ordering::Relaxed);
        uavail_obs::counter_add("serve.eval.arrivals", 1);
        let job = Job {
            stream,
            request,
            accepted_at,
        };
        match self.shared.queue.try_push(job) {
            Ok(depth) => {
                stats.admitted.fetch_add(1, Ordering::Relaxed);
                uavail_obs::counter_add("serve.eval.admitted", 1);
                uavail_obs::gauge_set("serve.eval.queue_depth", depth as u64);
            }
            Err(rejected) => {
                stats.shed.fetch_add(1, Ordering::Relaxed);
                uavail_obs::counter_add("serve.eval.shed", 1);
                let mut stream = rejected.item.stream;
                let retry_after = match rejected.reason {
                    crate::queue::RejectReason::Full => self.retry_after_secs(),
                    // Shutting down: the hint hardly matters, but stay
                    // honest about when a retry could succeed.
                    crate::queue::RejectReason::Closed => 1,
                };
                shed_response(&mut stream, retry_after);
            }
        }
    }

    /// Nanoseconds since pool start, saturating at u64 range.
    fn offset_ns(&self) -> u64 {
        u64::try_from(self.shared.started.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Seconds until a full waiting room drains at the measured service
    /// rate — the `Retry-After` hint, clamped to `[1, 30]`.
    fn retry_after_secs(&self) -> u64 {
        let snap = self.queueing_snapshot();
        if snap.service_rate > 0.0 {
            let drain = snap.queue_slots as f64 / (snap.workers.max(1) as f64 * snap.service_rate);
            (drain.ceil() as u64).clamp(1, 30)
        } else {
            1
        }
    }

    /// The measured + predicted view of the admission queue.
    pub fn queueing_snapshot(&self) -> QueueingSnapshot {
        let s = &self.shared.stats;
        let arrivals = s.arrivals.load(Ordering::Relaxed);
        let shed = s.shed.load(Ordering::Relaxed);
        let completions = s.completions.load(Ordering::Relaxed);
        let busy_ns = s.busy_ns.load(Ordering::Relaxed);
        let first = s.first_arrival_ns.load(Ordering::Relaxed);
        let last = s.last_event_ns.load(Ordering::Relaxed);
        let span_secs = if first == u64::MAX || last <= first {
            0.0
        } else {
            (last - first) as f64 / 1e9
        };
        let arrival_rate = if span_secs > 0.0 {
            arrivals as f64 / span_secs
        } else {
            0.0
        };
        let service_rate = if busy_ns > 0 {
            completions as f64 / (busy_ns as f64 / 1e9)
        } else {
            0.0
        };
        let workers = self.shared.config.workers.max(1);
        let capacity = workers + self.shared.config.queue_slots;
        let predicted_loss = if arrival_rate > 0.0 && service_rate > 0.0 {
            MMcK::new(arrival_rate, service_rate, workers, capacity)
                .ok()
                .and_then(|m| {
                    let p = m.loss_probability();
                    p.is_finite().then_some(p)
                })
        } else {
            None
        };
        let measured_shed_rate = if arrivals > 0 {
            shed as f64 / arrivals as f64
        } else {
            0.0
        };
        let (shed_lo, shed_hi) = if arrivals > 0 {
            uavail_obs::slo::wilson_interval(shed, arrivals, 3.9)
        } else {
            (0.0, 1.0)
        };
        let agrees = predicted_loss.map(|p| p >= shed_lo && p <= shed_hi);
        QueueingSnapshot {
            workers: workers as u64,
            queue_slots: self.shared.config.queue_slots as u64,
            capacity: capacity as u64,
            arrivals,
            admitted: s.admitted.load(Ordering::Relaxed),
            shed,
            completions,
            bad_requests: s.bad_requests.load(Ordering::Relaxed),
            eval_errors: s.eval_errors.load(Ordering::Relaxed),
            deadline_timeouts: s.deadline_timeouts.load(Ordering::Relaxed),
            stale_served: s.stale_served.load(Ordering::Relaxed),
            breaker_rejected: s.breaker_rejected.load(Ordering::Relaxed),
            worker_panics: s.worker_panics.load(Ordering::Relaxed),
            worker_restarts: s.worker_restarts.load(Ordering::Relaxed),
            breaker_state: self.shared.breaker.phase(),
            breaker_opened: self.shared.breaker.times_opened(),
            arrival_rate,
            service_rate,
            measured_shed_rate,
            shed_lo,
            shed_hi,
            predicted_loss,
            agrees,
        }
    }

    /// Stops admissions, drains already-admitted jobs, joins every
    /// worker and the supervisor. Idempotent.
    pub fn shutdown(&self) {
        if self.shared.shutdown.swap(true, Ordering::SeqCst) {
            return;
        }
        self.shared.queue.close();
        if let Some(events) = self.events.lock().unwrap_or_else(|e| e.into_inner()).take() {
            let _ = events.send(Event::Shutdown);
        }
        if let Some(supervisor) = self
            .supervisor
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .take()
        {
            let _ = supervisor.join();
        }
        let handles = std::mem::take(
            &mut *self
                .shared
                .handles
                .lock()
                .unwrap_or_else(|e| e.into_inner()),
        );
        for handle in handles {
            let _ = handle.join();
        }
        // If every worker died mid-drain, answer the leftovers instead
        // of abandoning them.
        while let Some(job) = self.shared.queue.pop() {
            let mut stream = job.stream;
            shed_response(&mut stream, 1);
        }
    }
}

impl Drop for EvalPool {
    fn drop(&mut self) {
        self.shutdown();
    }
}

fn shed_response(stream: &mut TcpStream, retry_after_secs: u64) {
    write_response(
        stream,
        "503 Service Unavailable",
        JSON,
        &[("Retry-After", retry_after_secs.to_string())],
        "{\"error\":\"admission queue full; retry later\"}\n",
    );
}

fn spawn_worker(shared: &Arc<PoolShared>, index: usize, events: &mpsc::Sender<Event>) {
    let worker_shared = Arc::clone(shared);
    let tx = events.clone();
    let handle = std::thread::Builder::new()
        .name(format!("uavail-eval-{index}"))
        .spawn(move || worker_loop(&worker_shared, index, &tx))
        .expect("spawn eval worker");
    shared
        .handles
        .lock()
        .unwrap_or_else(|e| e.into_inner())
        .push(handle);
}

fn supervisor_loop(shared: &Arc<PoolShared>, rx: &mpsc::Receiver<Event>, tx: &mpsc::Sender<Event>) {
    while let Ok(event) = rx.recv() {
        match event {
            Event::Shutdown => return,
            Event::WorkerExit(index) => {
                if shared.shutdown.load(Ordering::SeqCst) {
                    continue;
                }
                shared.stats.worker_restarts.fetch_add(1, Ordering::Relaxed);
                uavail_obs::counter_add("serve.worker.restarts", 1);
                spawn_worker(shared, index, tx);
            }
        }
    }
}

fn worker_loop(shared: &Arc<PoolShared>, index: usize, events: &mpsc::Sender<Event>) {
    let mut ctx = EvalContext::new();
    while let Some(job) = shared.queue.pop() {
        // Keep the depth gauge honest on the drain side too: a
        // push-only gauge would stay stuck at its flood-time maximum
        // after the queue empties.
        uavail_obs::gauge_set("serve.eval.queue_depth", shared.queue.depth() as u64);
        if serve_job(shared, &mut ctx, job) {
            // The evaluation panicked: the context may hold partially
            // built state, so this thread retires and the supervisor
            // spawns a replacement with a fresh context.
            let _ = events.send(Event::WorkerExit(index));
            return;
        }
    }
}

/// Handles one job end to end; returns whether the evaluation panicked.
fn serve_job(shared: &PoolShared, ctx: &mut EvalContext, job: Job) -> bool {
    let Job {
        mut stream,
        request,
        accepted_at,
    } = job;
    let deadline = request.deadline_ms.map(Duration::from_millis);
    let admission = shared.breaker.admit();
    let busy_start = Instant::now();
    let outcome = catch_unwind(AssertUnwindSafe(|| {
        process(shared, &request, accepted_at, deadline, admission, ctx)
    }));
    let panicked = match outcome {
        Ok(response) => {
            let extra: Vec<(&str, String)> = response
                .extra
                .iter()
                .map(|(k, v)| (*k, v.clone()))
                .collect();
            write_response(&mut stream, response.status, JSON, &extra, &response.body);
            false
        }
        Err(_) => {
            shared.stats.worker_panics.fetch_add(1, Ordering::Relaxed);
            uavail_obs::counter_add("serve.worker.panics", 1);
            if admission != Admission::Stale {
                shared.breaker.on_failure(admission);
            }
            write_response(
                &mut stream,
                "500 Internal Server Error",
                JSON,
                &[],
                "{\"error\":\"evaluation worker panicked; supervisor respawning\"}\n",
            );
            true
        }
    };
    let _ = stream.flush();
    // Busy time spans evaluation *and* the response write: the worker
    // is occupied for all of it, and a μ̂ that ignored the write would
    // overstate the service rate the self-model predicts loss from.
    let busy = u64::try_from(busy_start.elapsed().as_nanos()).unwrap_or(u64::MAX);
    shared.stats.busy_ns.fetch_add(busy, Ordering::Relaxed);
    shared.stats.completions.fetch_add(1, Ordering::Relaxed);
    uavail_obs::counter_add("serve.eval.completions", 1);
    let now = u64::try_from(shared.started.elapsed().as_nanos()).unwrap_or(u64::MAX);
    shared.stats.last_event_ns.fetch_max(now, Ordering::Relaxed);
    panicked
}

fn deadline_expired(accepted_at: Instant, deadline: Option<Duration>) -> bool {
    deadline.is_some_and(|d| accepted_at.elapsed() >= d)
}

/// Builds the response for one request. Runs inside the panic fence.
fn process(
    shared: &PoolShared,
    request: &Request,
    accepted_at: Instant,
    deadline: Option<Duration>,
    admission: Admission,
    ctx: &mut EvalContext,
) -> Response {
    if deadline_expired(accepted_at, deadline) {
        shared
            .stats
            .deadline_timeouts
            .fetch_add(1, Ordering::Relaxed);
        uavail_obs::counter_add("serve.eval.deadline_timeouts", 1);
        // Nothing evaluated: if this request held the half-open probe,
        // hand the slot back instead of leaking it.
        shared.breaker.on_not_evaluated(admission);
        return Response {
            status: "504 Gateway Timeout",
            extra: Vec::new(),
            body: "{\"results\":[],\"degraded\":false,\"partial\":true}\n".to_string(),
        };
    }
    let parsed = match parse_eval_request(&request.body) {
        Ok(parsed) => parsed,
        Err(message) => {
            shared.stats.bad_requests.fetch_add(1, Ordering::Relaxed);
            uavail_obs::counter_add("serve.eval.bad_requests", 1);
            shared.breaker.on_not_evaluated(admission);
            return Response {
                status: "400 Bad Request",
                extra: Vec::new(),
                body: format!(
                    "{}\n",
                    uavail_obs::json::JsonValue::object(vec![(
                        "error",
                        uavail_obs::json::JsonValue::str(message)
                    )])
                ),
            };
        }
    };
    if uavail_faultinject::fired("serve.worker_panic") {
        panic!("injected fault: serve.worker_panic");
    }
    match admission {
        Admission::Stale => serve_stale(shared, &parsed),
        Admission::Live | Admission::Probe => {
            run_live(shared, &parsed, accepted_at, deadline, admission, ctx)
        }
    }
}

/// Breaker open: answer entirely from the memo or shed with `503`.
fn serve_stale(shared: &PoolShared, parsed: &EvalRequest) -> Response {
    let cache = shared.cache.lock().unwrap_or_else(|e| e.into_inner());
    let mut results = Vec::with_capacity(parsed.queries.len());
    let mut all_memoized = true;
    for q in &parsed.queries {
        match cache.get(&query_key(q)) {
            Some(&availability) => results.push(QueryResult::Ok {
                availability,
                stale: true,
            }),
            None => {
                all_memoized = false;
                break;
            }
        }
    }
    drop(cache);
    if !all_memoized {
        shared
            .stats
            .breaker_rejected
            .fetch_add(1, Ordering::Relaxed);
        uavail_obs::counter_add("serve.eval.breaker_rejected", 1);
        return Response {
            status: "503 Service Unavailable",
            extra: vec![("Retry-After", "1".to_string())],
            body: "{\"error\":\"circuit breaker open and no memoized answer; retry later\"}\n"
                .to_string(),
        };
    }
    shared.stats.stale_served.fetch_add(1, Ordering::Relaxed);
    uavail_obs::counter_add("serve.eval.stale_served", 1);
    Response {
        status: "200 OK",
        extra: Vec::new(),
        body: format!(
            "{}\n",
            render_results(&parsed.queries, &results, true, false)
        ),
    }
}

/// Closed (or half-open probe): evaluate live with deadline
/// checkpoints between queries.
fn run_live(
    shared: &PoolShared,
    parsed: &EvalRequest,
    accepted_at: Instant,
    deadline: Option<Duration>,
    admission: Admission,
    ctx: &mut EvalContext,
) -> Response {
    let fallbacks_before = ctx.fallback_count();
    let mut results = Vec::with_capacity(parsed.queries.len());
    let mut partial = false;
    let mut had_error = false;
    let mut evaluated = 0usize;
    for q in &parsed.queries {
        if deadline_expired(accepted_at, deadline) {
            partial = true;
            break;
        }
        evaluated += 1;
        match evaluate_query(q, ctx) {
            Ok(availability) => {
                let key = query_key(q);
                let mut cache = shared.cache.lock().unwrap_or_else(|e| e.into_inner());
                if cache.len() < shared.config.stale_cache_cap || cache.contains_key(&key) {
                    cache.insert(key, availability);
                }
                drop(cache);
                results.push(QueryResult::Ok {
                    availability,
                    stale: false,
                });
            }
            Err(e) => {
                had_error = true;
                shared.stats.eval_errors.fetch_add(1, Ordering::Relaxed);
                uavail_obs::counter_add("serve.eval.errors", 1);
                results.push(QueryResult::Err(e.to_string()));
            }
        }
        eval::spin(parsed.spin_us);
    }
    while results.len() < parsed.queries.len() {
        results.push(QueryResult::Skipped);
    }
    // Degraded: one of this batch's own farm solves fell back, as counted
    // by this worker's context; other workers' solves never mark it.
    let degraded = ctx.fallback_count() > fallbacks_before;
    // Breaker health tracks *system* failures: solver errors and
    // degraded fallbacks. A client-imposed deadline is not one — and a
    // batch that evaluated nothing (deadline gone before the first
    // query, or zero queries) is no health signal at all: a probe in
    // that position hands its slot back rather than closing the breaker
    // on zero evidence.
    if evaluated == 0 {
        shared.breaker.on_not_evaluated(admission);
    } else if had_error || degraded {
        shared.breaker.on_failure(admission);
    } else {
        shared.breaker.on_success(admission);
    }
    let body = format!(
        "{}\n",
        render_results(&parsed.queries, &results, degraded, partial)
    );
    if partial {
        shared
            .stats
            .deadline_timeouts
            .fetch_add(1, Ordering::Relaxed);
        uavail_obs::counter_add("serve.eval.deadline_timeouts", 1);
        Response {
            status: "504 Gateway Timeout",
            extra: Vec::new(),
            body,
        }
    } else {
        Response {
            status: "200 OK",
            extra: Vec::new(),
            body,
        }
    }
}

/// The `/slo` `queueing` block: measured admission-queue behavior next
/// to the in-tree M/M/c/K prediction for the same `(λ̂, μ̂, c, K)`.
#[derive(Debug, Clone)]
pub struct QueueingSnapshot {
    pub workers: u64,
    pub queue_slots: u64,
    pub capacity: u64,
    pub arrivals: u64,
    pub admitted: u64,
    pub shed: u64,
    pub completions: u64,
    pub bad_requests: u64,
    pub eval_errors: u64,
    pub deadline_timeouts: u64,
    pub stale_served: u64,
    pub breaker_rejected: u64,
    pub worker_panics: u64,
    pub worker_restarts: u64,
    pub breaker_state: &'static str,
    pub breaker_opened: u64,
    pub arrival_rate: f64,
    pub service_rate: f64,
    pub measured_shed_rate: f64,
    pub shed_lo: f64,
    pub shed_hi: f64,
    pub predicted_loss: Option<f64>,
    pub agrees: Option<bool>,
}

impl QueueingSnapshot {
    /// The JSON object embedded in the `/slo` response.
    pub fn to_json(&self) -> uavail_obs::json::JsonValue {
        use uavail_obs::json::JsonValue;
        JsonValue::object(vec![
            ("workers", JsonValue::UInt(self.workers)),
            ("queue_slots", JsonValue::UInt(self.queue_slots)),
            ("capacity", JsonValue::UInt(self.capacity)),
            ("arrivals", JsonValue::UInt(self.arrivals)),
            ("admitted", JsonValue::UInt(self.admitted)),
            ("shed", JsonValue::UInt(self.shed)),
            ("completions", JsonValue::UInt(self.completions)),
            ("bad_requests", JsonValue::UInt(self.bad_requests)),
            ("eval_errors", JsonValue::UInt(self.eval_errors)),
            ("deadline_timeouts", JsonValue::UInt(self.deadline_timeouts)),
            ("stale_served", JsonValue::UInt(self.stale_served)),
            ("breaker_rejected", JsonValue::UInt(self.breaker_rejected)),
            ("worker_panics", JsonValue::UInt(self.worker_panics)),
            ("worker_restarts", JsonValue::UInt(self.worker_restarts)),
            ("breaker_state", JsonValue::str(self.breaker_state)),
            ("breaker_opened", JsonValue::UInt(self.breaker_opened)),
            ("arrival_rate", JsonValue::Float(self.arrival_rate)),
            ("service_rate", JsonValue::Float(self.service_rate)),
            (
                "measured_shed_rate",
                JsonValue::Float(self.measured_shed_rate),
            ),
            ("shed_lo", JsonValue::Float(self.shed_lo)),
            ("shed_hi", JsonValue::Float(self.shed_hi)),
            (
                "predicted_loss",
                self.predicted_loss
                    .map_or(JsonValue::Null, JsonValue::Float),
            ),
            (
                "agrees",
                self.agrees.map_or(JsonValue::Null, JsonValue::Bool),
            ),
        ])
    }
}
