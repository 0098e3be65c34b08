//! End-to-end exercises of the `/eval` query plane over real sockets:
//! batched what-if queries, protocol-error answering (400/405), load
//! shedding at the bounded admission queue (503 + Retry-After),
//! deadline checkpoints (504 with partial results), injected worker
//! panics with supervisor respawn, and the circuit breaker's
//! stale-serving path.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::{Mutex, MutexGuard};
use std::time::Duration;
use uavail_serve::{BreakerConfig, ObsServer, QueryPlaneConfig};

/// Obs and faultinject state are process-global; every test here
/// serializes on this lock and leaves both disabled behind itself.
fn global_lock() -> MutexGuard<'static, ()> {
    static GUARD: Mutex<()> = Mutex::new(());
    GUARD.lock().unwrap_or_else(|e| e.into_inner())
}

fn reset_all() {
    uavail_obs::set_enabled(false);
    uavail_obs::set_trace_enabled(false);
    uavail_obs::reset();
    uavail_obs::trace::reset();
    uavail_obs::slo_reset();
    uavail_obs::window_reset();
    uavail_obs::window::clock_reset();
    uavail_faultinject::reset();
    uavail_faultinject::set_enabled(false);
}

/// One blocking POST /eval; returns `(status line, headers, body)`.
fn post_eval(addr: SocketAddr, body: &str, deadline_ms: Option<u64>) -> (String, String, String) {
    let mut stream = TcpStream::connect(addr).expect("connect");
    let deadline = deadline_ms
        .map(|ms| format!("X-Deadline-Ms: {ms}\r\n"))
        .unwrap_or_default();
    write!(
        stream,
        "POST /eval HTTP/1.1\r\nHost: localhost\r\nContent-Length: {}\r\n{deadline}Connection: close\r\n\r\n{body}",
        body.len()
    )
    .expect("send request");
    read_split(stream)
}

fn send_raw(addr: SocketAddr, raw: &[u8]) -> (String, String, String) {
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream.write_all(raw).expect("send");
    let _ = stream.shutdown(std::net::Shutdown::Write);
    read_split(stream)
}

fn read_split(mut stream: TcpStream) -> (String, String, String) {
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .expect("timeout");
    // Tolerate a reset after the response: when the server answers 400
    // to an oversized head and closes, unread request bytes can turn
    // the close into an RST that read(2) reports after the data.
    let mut response = Vec::new();
    let mut chunk = [0u8; 4096];
    loop {
        match stream.read(&mut chunk) {
            Ok(0) => break,
            Ok(n) => response.extend_from_slice(&chunk[..n]),
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(_) if !response.is_empty() => break,
            Err(e) => panic!("read response: {e}"),
        }
    }
    let text = String::from_utf8_lossy(&response).to_string();
    let (head, body) = text
        .split_once("\r\n\r\n")
        .unwrap_or_else(|| panic!("malformed response: {text:?}"));
    (
        head.lines().next().unwrap_or_default().to_string(),
        head.to_string(),
        body.to_string(),
    )
}

fn availability_of(body: &str, index: usize) -> f64 {
    let parsed = uavail_obs::json::parse(body).unwrap_or_else(|e| panic!("{e}\n{body}"));
    parsed
        .get("results")
        .and_then(|r| r.as_array())
        .and_then(|items| items.get(index))
        .and_then(|item| item.get("availability"))
        .and_then(|a| a.as_f64())
        .unwrap_or_else(|| panic!("no availability at index {index}: {body}"))
}

#[test]
fn eval_batch_matches_direct_computation_bit_for_bit() {
    let _guard = global_lock();
    reset_all();
    let server = ObsServer::start("127.0.0.1:0").expect("bind");
    // After the paper's queries: a 10 000-server farm answered by the
    // closed form, an overloaded M/M/c/K whose unnormalized terms overflow
    // f64, and a zero-probability Browse branch.
    let (status, _, body) = post_eval(
        server.addr(),
        r#"{"queries":[{},{"class":"A"},{"class":"B"},{"web_servers":6},
            {"web_servers":10000,"buffer_size":10000,"coverage":0},
            {"web_servers":4,"buffer_size":400,"arrival_rate_per_second":1000},
            {"class":"A","q23":1,"q24":0}]}"#,
        None,
    );
    assert_eq!(status, "HTTP/1.1 200 OK", "{body}");

    use uavail_travel::webservice::redundant_imperfect_availability;
    use uavail_travel::{Architecture, Coverage, TaParameters, TravelAgencyModel};
    let defaults = TaParameters::paper_defaults();
    let a_ws = redundant_imperfect_availability(&defaults).expect("A(WS)");
    let model = TravelAgencyModel::new(
        defaults.clone(),
        Architecture::Redundant(Coverage::Imperfect),
    )
    .expect("model");
    let a_class_a = model
        .user_availability(&uavail_travel::user::class_a())
        .expect("class A");
    let a_class_b = model
        .user_availability(&uavail_travel::user::class_b())
        .expect("class B");
    let mut six = defaults.clone();
    six.web_servers = 6;
    let a_six = redundant_imperfect_availability(&six).expect("A(WS), N_W=6");
    let mut large = defaults.clone();
    (large.web_servers, large.buffer_size, large.coverage) = (10_000, 10_000, 0.0);
    let a_large = redundant_imperfect_availability(&large).expect("A(WS), N_W=10 000");
    let mut overload = defaults.clone();
    overload.buffer_size = 400;
    overload.arrival_rate_per_second = 1000.0;
    let a_overload = redundant_imperfect_availability(&overload).expect("A(WS), ρ = 10");
    let mut all_cached = defaults.clone();
    (all_cached.q23, all_cached.q24) = (1.0, 0.0);
    let a_all_cached =
        TravelAgencyModel::new(all_cached, Architecture::Redundant(Coverage::Imperfect))
            .expect("model, q24 = 0")
            .user_availability(&uavail_travel::user::class_a())
            .expect("class A, q24 = 0");

    let expected = [
        a_ws,
        a_class_a,
        a_class_b,
        a_six,
        a_large,
        a_overload,
        a_all_cached,
    ];
    for (index, want) in expected.into_iter().enumerate() {
        let got = availability_of(&body, index);
        assert!(
            got.is_finite() && (0.0..=1.0).contains(&got),
            "{index}: {got}"
        );
        assert_eq!(got.to_bits(), want.to_bits(), "query {index}");
    }
    assert!(body.contains("\"degraded\":false"), "{body}");
    assert!(body.contains("\"partial\":false"), "{body}");

    server.shutdown();
    reset_all();
}

#[test]
fn overflowing_offered_load_is_answered_not_an_error() {
    // α/ν = 1e302 and α/ν = ∞: every request is lost, so the web service
    // serves nothing. α/ν underflowing to 0 loses none. Each must answer
    // like the direct computation, not fail the query or feed the breaker.
    let _guard = global_lock();
    reset_all();
    let server = ObsServer::start("127.0.0.1:0").expect("bind");
    use uavail_travel::webservice::redundant_imperfect_availability;
    use uavail_travel::TaParameters;
    for (query, alpha, nu) in [
        (r#"{"service_rate_per_second":1e-300}"#, 100.0, 1e-300),
        (
            r#"{"arrival_rate_per_second":1e308,"service_rate_per_second":1e-300}"#,
            1e308,
            1e-300,
        ),
        (
            r#"{"arrival_rate_per_second":5e-324,"service_rate_per_second":1e300}"#,
            5e-324,
            1e300,
        ),
    ] {
        let (status, _, body) =
            post_eval(server.addr(), &format!(r#"{{"queries":[{query}]}}"#), None);
        assert_eq!(status, "HTTP/1.1 200 OK", "{query}: {body}");
        let params = TaParameters {
            arrival_rate_per_second: alpha,
            service_rate_per_second: nu,
            ..TaParameters::paper_defaults()
        };
        let want = redundant_imperfect_availability(&params).expect("direct computation");
        let got = availability_of(&body, 0);
        assert!(
            got.is_finite() && (0.0..=1.0).contains(&got),
            "{query}: {got}"
        );
        assert_eq!(got.to_bits(), want.to_bits(), "{query}");
        assert!(body.contains("\"degraded\":false"), "{query}: {body}");
    }
    server.shutdown();
    reset_all();
}

#[test]
fn valid_farms_never_trip_the_breaker() {
    // Farms whose GTH weights overflow are answered exactly, not as
    // degraded fallbacks: five of them in a row must leave the breaker
    // closed, so the paper's own query still answers live. The recorder
    // is on because it feeds the breaker its degraded signal.
    let _guard = global_lock();
    reset_all();
    uavail_obs::set_enabled(true);
    let server = ObsServer::start("127.0.0.1:0").expect("bind");
    let queries = (250..=254)
        .map(|nw| format!(r#"{{"web_servers":{nw},"buffer_size":300,"coverage":0}}"#))
        .chain([r#"{"web_servers":5}"#.to_string()]);
    for query in queries {
        let (status, _, body) =
            post_eval(server.addr(), &format!(r#"{{"queries":[{query}]}}"#), None);
        assert_eq!(status, "HTTP/1.1 200 OK", "{query}: {body}");
        assert!(body.contains("\"degraded\":false"), "{query}: {body}");
        assert!(body.contains("\"stale\":false"), "{query}: {body}");
        assert_eq!(
            server.queueing_snapshot().breaker_state,
            "closed",
            "{query}"
        );
    }
    server.shutdown();
    reset_all();
}

#[test]
fn extreme_farm_rates_are_answered_like_the_direct_computation() {
    // Rates at which GTH's arithmetic overflows or underflows: each query
    // must answer from the closed form like the direct computation, not
    // fail or come back degraded. Last, a large farm at full coverage,
    // whose normalized distribution sums a few ulps above 1: its answer
    // must still lie in [0, 1].
    let _guard = global_lock();
    reset_all();
    uavail_obs::set_enabled(true);
    let server = ObsServer::start("127.0.0.1:0").expect("bind");
    use uavail_travel::webservice::redundant_imperfect_availability;
    use uavail_travel::TaParameters;
    let paper = TaParameters::paper_defaults();
    let tiny_beta = TaParameters {
        failure_rate_per_hour: 1.0,
        reconfiguration_rate_per_hour: 1e-310,
        ..paper.clone()
    };
    for (query, params) in [
        (
            r#"{"reconfiguration_rate_per_hour":1e-300}"#,
            TaParameters {
                reconfiguration_rate_per_hour: 1e-300,
                ..paper.clone()
            },
        ),
        (
            r#"{"reconfiguration_rate_per_hour":1e-310,"failure_rate_per_hour":1}"#,
            tiny_beta.clone(),
        ),
        (
            r#"{"web_servers":600,"buffer_size":600,"reconfiguration_rate_per_hour":1e-310,"failure_rate_per_hour":1}"#,
            TaParameters {
                web_servers: 600,
                buffer_size: 600,
                ..tiny_beta
            },
        ),
        (
            r#"{"repair_rate_per_hour":1e300}"#,
            TaParameters {
                repair_rate_per_hour: 1e300,
                ..paper.clone()
            },
        ),
        (
            r#"{"web_servers":113,"buffer_size":113,"coverage":1}"#,
            TaParameters {
                web_servers: 113,
                buffer_size: 113,
                coverage: 1.0,
                ..paper.clone()
            },
        ),
    ] {
        let (status, _, body) =
            post_eval(server.addr(), &format!(r#"{{"queries":[{query}]}}"#), None);
        assert_eq!(status, "HTTP/1.1 200 OK", "{query}: {body}");
        let want = redundant_imperfect_availability(&params).expect("direct computation");
        let got = availability_of(&body, 0);
        assert!(
            got.is_finite() && (0.0..=1.0).contains(&got),
            "{query}: {got}"
        );
        assert_eq!(got.to_bits(), want.to_bits(), "{query}");
        assert!(body.contains("\"degraded\":false"), "{query}: {body}");
    }
    server.shutdown();
    reset_all();
}

#[test]
fn overflowing_failure_rate_is_a_400_and_leaves_the_breaker_closed() {
    // N_W·λ = 4e308 overflows: every farm chain would carry an infinite
    // failure rate. Validation rejects the query by name, so five of them
    // neither fail an evaluation nor open the breaker, and the next query
    // still answers live. The rule holds at any coverage.
    let _guard = global_lock();
    reset_all();
    let server = ObsServer::start("127.0.0.1:0").expect("bind");
    let overflow = |coverage: &str| {
        let query = format!(r#"{{"failure_rate_per_hour":1e308,"coverage":{coverage}}}"#);
        let (status, _, body) =
            post_eval(server.addr(), &format!(r#"{{"queries":[{query}]}}"#), None);
        assert_eq!(status, "HTTP/1.1 400 Bad Request", "{query}: {body}");
        assert!(
            body.contains("parameter failure_rate_per_hour = 1e308 must"),
            "{query}: {body}"
        );
    };
    for _ in 0..5 {
        overflow("1");
    }
    let snap = server.queueing_snapshot();
    assert_eq!(snap.breaker_state, "closed");
    assert_eq!((snap.bad_requests, snap.eval_errors), (5, 0));

    let (status, _, body) = post_eval(server.addr(), r#"{"queries":[{"web_servers":7}]}"#, None);
    assert_eq!(status, "HTTP/1.1 200 OK", "{body}");
    let params = uavail_travel::TaParameters {
        web_servers: 7,
        ..uavail_travel::TaParameters::paper_defaults()
    };
    let want = uavail_travel::webservice::redundant_imperfect_availability(&params)
        .expect("direct computation");
    assert_eq!(
        availability_of(&body, 0).to_bits(),
        want.to_bits(),
        "{body}"
    );
    assert!(body.contains("\"stale\":false"), "{body}");
    overflow("0.98");
    overflow("0");

    server.shutdown();
    reset_all();
}

#[test]
fn sum_rule_slack_above_one_is_a_400() {
    // With every other factor at 1, q23 + q24 = 1 + 9e-10 would lift a
    // class answer above 1, so the sum rules allow slack below 1 only.
    let _guard = global_lock();
    reset_all();
    let server = ObsServer::start("127.0.0.1:0").expect("bind");
    let ones = [
        "a_net",
        "a_lan",
        "a_cas",
        "a_cds",
        "a_disk",
        "a_cws",
        "a_payment",
        "a_flight_system",
        "a_hotel_system",
        "a_car_system",
        "coverage",
    ]
    .map(|name| format!(r#""{name}":1,"#))
    .concat();
    for class in ["A", "B"] {
        let query = format!(
            r#"{{{ones}"failure_rate_per_hour":5e-324,"arrival_rate_per_second":5e-324,"q24":0.8000000009,"class":"{class}"}}"#
        );
        let (status, _, body) =
            post_eval(server.addr(), &format!(r#"{{"queries":[{query}]}}"#), None);
        assert_eq!(status, "HTTP/1.1 400 Bad Request", "{query}: {body}");
        assert!(body.contains("q23 + q24"), "{query}: {body}");
    }
    server.shutdown();
    reset_all();
}

#[test]
fn protocol_errors_are_answered_not_dropped() {
    let _guard = global_lock();
    reset_all();
    let server = ObsServer::start("127.0.0.1:0").expect("bind");
    let addr = server.addr();

    // Malformed JSON body → 400 with the parse error.
    let (status, _, body) = post_eval(addr, "{\"queries\":[{", None);
    assert_eq!(status, "HTTP/1.1 400 Bad Request", "{body}");
    assert!(body.contains("invalid JSON"), "{body}");

    // Unknown parameter → 400 naming it.
    let (status, _, body) = post_eval(addr, r#"{"queries":[{"web_serverz":3}]}"#, None);
    assert_eq!(status, "HTTP/1.1 400 Bad Request");
    assert!(body.contains("web_serverz"), "{body}");

    // Truncated request head (close before blank line) → 400.
    let (status, _, _) = send_raw(addr, b"GET /metrics HTTP/1.1\r\nHost: x");
    assert_eq!(status, "HTTP/1.1 400 Bad Request");

    // Unsupported method → 405 with Allow.
    let (status, head, _) = send_raw(addr, b"DELETE /metrics HTTP/1.1\r\n\r\n");
    assert_eq!(status, "HTTP/1.1 405 Method Not Allowed");
    assert!(head.contains("Allow: GET, POST"), "{head}");

    // GET on /eval and POST on a GET endpoint → 405 with the right verb.
    let (status, head, _) = send_raw(addr, b"GET /eval HTTP/1.1\r\n\r\n");
    assert_eq!(status, "HTTP/1.1 405 Method Not Allowed");
    assert!(head.contains("Allow: POST"), "{head}");
    let (status, head, _) = send_raw(addr, b"POST /metrics HTTP/1.1\r\nContent-Length: 0\r\n\r\n");
    assert_eq!(status, "HTTP/1.1 405 Method Not Allowed");
    assert!(head.contains("Allow: GET"), "{head}");

    // Oversized header block → 400.
    let mut oversized = b"GET / HTTP/1.1\r\n".to_vec();
    oversized.extend(std::iter::repeat_n(b'x', 9000));
    oversized.extend_from_slice(b"\r\n\r\n");
    let (status, _, _) = send_raw(addr, &oversized);
    assert_eq!(status, "HTTP/1.1 400 Bad Request");

    server.shutdown();
    reset_all();
}

#[test]
fn oversized_buffer_query_gets_400_and_the_plane_keeps_serving() {
    // A buffer this large would need an 8 TB M/M/c/K distribution; the
    // allocation failure would abort the whole process, which no panic
    // fence can catch. The parser must reject it up front.
    let _guard = global_lock();
    reset_all();
    let server = ObsServer::start("127.0.0.1:0").expect("bind");
    let addr = server.addr();

    let (status, _, body) = post_eval(addr, r#"{"queries":[{"buffer_size":1000000000000}]}"#, None);
    assert_eq!(status, "HTTP/1.1 400 Bad Request", "{body}");
    assert!(body.contains("buffer_size"), "{body}");

    let (status, _, body) = post_eval(addr, r#"{"queries":[{}]}"#, None);
    assert_eq!(status, "HTTP/1.1 200 OK", "{body}");
    let a_ws = availability_of(&body, 0);
    assert!((a_ws - 0.999995587).abs() < 1e-9, "{body}");

    server.shutdown();
    reset_all();
}

#[test]
fn full_admission_queue_sheds_with_503_and_retry_after() {
    let _guard = global_lock();
    reset_all();
    let server = ObsServer::start_with(
        "127.0.0.1:0",
        QueryPlaneConfig {
            workers: 1,
            queue_slots: 1,
            ..QueryPlaneConfig::default()
        },
    )
    .expect("bind");
    let addr = server.addr();

    // Occupy the single worker for ~150 ms, fill the single waiting
    // slot, then watch the third request shed immediately.
    let busy = r#"{"queries":[{},{},{}],"spin_us":50000}"#;
    let hold_worker = spawn_post(addr, busy);
    std::thread::sleep(Duration::from_millis(60));
    let hold_queue = spawn_post(addr, busy);
    std::thread::sleep(Duration::from_millis(30));

    let (status, head, body) = post_eval(addr, r#"{"queries":[{}]}"#, None);
    assert_eq!(status, "HTTP/1.1 503 Service Unavailable", "{body}");
    assert!(
        head.lines()
            .any(|l| l.to_ascii_lowercase().starts_with("retry-after:")),
        "503 must carry Retry-After: {head}"
    );

    let (status, _, _) = hold_worker.join().expect("join");
    assert_eq!(status, "HTTP/1.1 200 OK", "admitted request must finish");
    let (status, _, _) = hold_queue.join().expect("join");
    assert_eq!(status, "HTTP/1.1 200 OK", "queued request must finish");

    let snap = server.queueing_snapshot();
    assert_eq!(snap.shed, 1);
    assert_eq!(snap.admitted, 2);
    assert_eq!(snap.arrivals, 3);

    server.shutdown();
    reset_all();
}

fn spawn_post(addr: SocketAddr, body: &str) -> std::thread::JoinHandle<(String, String, String)> {
    let body = body.to_string();
    std::thread::spawn(move || post_eval(addr, &body, None))
}

#[test]
fn expired_deadline_answers_504_with_partial_results() {
    let _guard = global_lock();
    reset_all();
    let server = ObsServer::start("127.0.0.1:0").expect("bind");

    // Already expired when the worker picks it up: empty partial answer.
    let (status, _, body) = post_eval(server.addr(), r#"{"queries":[{}]}"#, Some(0));
    assert_eq!(status, "HTTP/1.1 504 Gateway Timeout", "{body}");
    assert!(body.contains("\"partial\":true"), "{body}");

    // Expires mid-batch: the checkpoint between queries cuts the batch,
    // keeping the results computed before the budget ran out.
    let (status, _, body) = post_eval(
        server.addr(),
        r#"{"queries":[{},{},{}],"spin_us":40000}"#,
        Some(60),
    );
    assert_eq!(status, "HTTP/1.1 504 Gateway Timeout", "{body}");
    assert!(body.contains("\"partial\":true"), "{body}");
    let parsed = uavail_obs::json::parse(&body).unwrap_or_else(|e| panic!("{e}\n{body}"));
    let results = parsed.get("results").unwrap().as_array().unwrap();
    assert_eq!(results.len(), 3);
    assert!(
        results[0].get("availability").is_some(),
        "first query fits the budget: {body}"
    );
    assert!(
        results[2].get("error").is_some(),
        "last query must be cut: {body}"
    );

    let snap = server.queueing_snapshot();
    assert_eq!(snap.deadline_timeouts, 2);

    server.shutdown();
    reset_all();
}

/// The satellite-3 contract: with `serve.worker_panic` armed, the
/// in-flight request gets a `500`, the supervisor respawns the worker,
/// and subsequent requests succeed on the replacement.
#[test]
fn injected_worker_panic_gets_500_and_supervisor_respawns() {
    let _guard = global_lock();
    reset_all();
    let server = ObsServer::start_with(
        "127.0.0.1:0",
        QueryPlaneConfig {
            workers: 1,
            queue_slots: 4,
            ..QueryPlaneConfig::default()
        },
    )
    .expect("bind");

    uavail_faultinject::set_enabled(true);
    uavail_faultinject::set_seed(7);
    uavail_faultinject::arm_spec("wpanic:1").expect("arm");

    let (status, _, body) = post_eval(server.addr(), r#"{"queries":[{}]}"#, None);
    assert_eq!(status, "HTTP/1.1 500 Internal Server Error", "{body}");
    assert!(body.contains("panicked"), "{body}");

    uavail_faultinject::reset();
    uavail_faultinject::set_enabled(false);

    // The replacement worker (fresh EvalContext) serves correctly.
    let (status, _, body) = post_eval(server.addr(), r#"{"queries":[{}]}"#, None);
    assert_eq!(status, "HTTP/1.1 200 OK", "{body}");
    let direct = uavail_travel::webservice::redundant_imperfect_availability(
        &uavail_travel::TaParameters::paper_defaults(),
    )
    .expect("A(WS)");
    assert_eq!(availability_of(&body, 0).to_bits(), direct.to_bits());

    let snap = server.queueing_snapshot();
    assert_eq!(snap.worker_panics, 1);
    assert_eq!(snap.worker_restarts, 1);

    server.shutdown();
    reset_all();
}

/// Breaker lifecycle: consecutive worker panics trip it open, open
/// serves memoized answers marked degraded (or sheds on a cache miss),
/// and the half-open probe closes it again.
#[test]
fn breaker_opens_serves_stale_and_probe_recloses() {
    let _guard = global_lock();
    reset_all();
    let server = ObsServer::start_with(
        "127.0.0.1:0",
        QueryPlaneConfig {
            workers: 1,
            queue_slots: 4,
            breaker: BreakerConfig {
                failure_threshold: 2,
                probe_after: 2,
            },
            ..QueryPlaneConfig::default()
        },
    )
    .expect("bind");
    let addr = server.addr();
    let cached = r#"{"queries":[{}]}"#;
    let uncached = r#"{"queries":[{"web_servers":9}]}"#;

    // Prime the stale cache with a live answer.
    let (status, _, _) = post_eval(addr, cached, None);
    assert_eq!(status, "HTTP/1.1 200 OK");

    // Two consecutive panics reach failure_threshold = 2: breaker opens.
    uavail_faultinject::set_enabled(true);
    uavail_faultinject::set_seed(7);
    uavail_faultinject::arm_spec("wpanic:1").expect("arm");
    for _ in 0..2 {
        let (status, _, _) = post_eval(addr, cached, None);
        assert_eq!(status, "HTTP/1.1 500 Internal Server Error");
    }
    uavail_faultinject::reset();
    uavail_faultinject::set_enabled(false);
    assert_eq!(server.queueing_snapshot().breaker_state, "open");

    // Open, cache hit: stale answer marked degraded.
    let (status, _, body) = post_eval(addr, cached, None);
    assert_eq!(status, "HTTP/1.1 200 OK", "{body}");
    assert!(body.contains("\"stale\":true"), "{body}");
    assert!(body.contains("\"degraded\":true"), "{body}");

    // Open, cache miss: shed with Retry-After rather than served wrong.
    let (status, head, body) = post_eval(addr, uncached, None);
    assert_eq!(status, "HTTP/1.1 503 Service Unavailable", "{body}");
    assert!(
        head.lines()
            .any(|l| l.to_ascii_lowercase().starts_with("retry-after:")),
        "{head}"
    );

    // probe_after = 2 open-handled requests have passed: the next
    // request is the half-open probe, evaluates live, and closes the
    // breaker.
    let (status, _, body) = post_eval(addr, cached, None);
    assert_eq!(status, "HTTP/1.1 200 OK", "{body}");
    assert!(body.contains("\"stale\":false"), "{body}");
    assert_eq!(server.queueing_snapshot().breaker_state, "closed");

    // Closed again: live evaluation for previously uncached points.
    let (status, _, body) = post_eval(addr, uncached, None);
    assert_eq!(status, "HTTP/1.1 200 OK", "{body}");
    assert!(body.contains("\"stale\":false"), "{body}");

    let snap = server.queueing_snapshot();
    assert_eq!(snap.breaker_opened, 1);
    assert_eq!(snap.stale_served, 1);
    assert_eq!(snap.breaker_rejected, 1);

    server.shutdown();
    reset_all();
}

/// Regression: a half-open probe consumed by a request that never
/// evaluates anything live (pre-expired deadline, malformed body) must
/// hand the probe slot back. Before the fix such a request left the
/// breaker wedged half-open — admit() serves stale there and nothing
/// could ever close it again.
#[test]
fn unevaluated_probe_does_not_wedge_the_breaker_half_open() {
    let _guard = global_lock();
    reset_all();
    let server = ObsServer::start_with(
        "127.0.0.1:0",
        QueryPlaneConfig {
            workers: 1,
            queue_slots: 4,
            breaker: BreakerConfig {
                failure_threshold: 2,
                probe_after: 2,
            },
            ..QueryPlaneConfig::default()
        },
    )
    .expect("bind");
    let addr = server.addr();
    let cached = r#"{"queries":[{}]}"#;

    // Prime the cache, then trip the breaker with two panics.
    let (status, _, _) = post_eval(addr, cached, None);
    assert_eq!(status, "HTTP/1.1 200 OK");
    uavail_faultinject::set_enabled(true);
    uavail_faultinject::set_seed(7);
    uavail_faultinject::arm_spec("wpanic:1").expect("arm");
    for _ in 0..2 {
        let (status, _, _) = post_eval(addr, cached, None);
        assert_eq!(status, "HTTP/1.1 500 Internal Server Error");
    }
    uavail_faultinject::reset();
    uavail_faultinject::set_enabled(false);
    assert_eq!(server.queueing_snapshot().breaker_state, "open");

    // Serve out the probe_after = 2 open window on stale answers.
    for _ in 0..2 {
        let (status, _, body) = post_eval(addr, cached, None);
        assert_eq!(status, "HTTP/1.1 200 OK", "{body}");
        assert!(body.contains("\"stale\":true"), "{body}");
    }

    // The next request holds the probe, but its deadline is already
    // gone: 504, zero queries evaluated, slot handed back.
    let (status, _, body) = post_eval(addr, cached, Some(0));
    assert_eq!(status, "HTTP/1.1 504 Gateway Timeout", "{body}");
    assert_eq!(server.queueing_snapshot().breaker_state, "open");

    // The re-issued probe goes to a malformed body: 400, handed back
    // again.
    let (status, _, _) = post_eval(addr, "{\"queries\":[{", None);
    assert_eq!(status, "HTTP/1.1 400 Bad Request");
    assert_eq!(server.queueing_snapshot().breaker_state, "open");

    // A well-formed request finally probes live and closes the breaker.
    let (status, _, body) = post_eval(addr, cached, None);
    assert_eq!(status, "HTTP/1.1 200 OK", "{body}");
    assert!(body.contains("\"stale\":false"), "{body}");
    assert_eq!(server.queueing_snapshot().breaker_state, "closed");

    server.shutdown();
    reset_all();
}

/// The `/slo` scrape exposes the queueing self-model, and with no
/// arrivals the prediction is absent rather than fabricated.
#[test]
fn slo_exposes_queueing_block() {
    let _guard = global_lock();
    reset_all();
    let server = ObsServer::start("127.0.0.1:0").expect("bind");

    let mut stream = TcpStream::connect(server.addr()).expect("connect");
    write!(
        stream,
        "GET /slo HTTP/1.1\r\nHost: x\r\nConnection: close\r\n\r\n"
    )
    .expect("send");
    let (status, _, body) = read_split(stream);
    assert_eq!(status, "HTTP/1.1 200 OK");
    let parsed = uavail_obs::json::parse(&body).unwrap_or_else(|e| panic!("{e}\n{body}"));
    let q = parsed.get("queueing").expect("queueing block");
    assert_eq!(q.get("arrivals").unwrap().as_u64(), Some(0));
    assert_eq!(q.get("workers").unwrap().as_u64(), Some(2));
    assert_eq!(q.get("capacity").unwrap().as_u64(), Some(8));
    assert!(matches!(
        q.get("predicted_loss"),
        Some(uavail_obs::json::JsonValue::Null)
    ));

    // A few served queries give the self-model rates to work with.
    for _ in 0..3 {
        let (status, _, _) = post_eval(server.addr(), r#"{"queries":[{}]}"#, None);
        assert_eq!(status, "HTTP/1.1 200 OK");
    }
    let snap = server.queueing_snapshot();
    assert_eq!(snap.arrivals, 3);
    assert_eq!(snap.completions, 3);
    assert_eq!(snap.shed, 0);
    assert!(snap.service_rate > 0.0);

    server.shutdown();
    reset_all();
}
