//! `degraded` comes from the request's own farm solves.
//!
//! The worker's `EvalContext` counts the drift fallbacks of the solves it
//! runs, and the response reads that count, so the flag needs no recorder
//! and no process-wide counter. Injection is process-global, so this
//! binary holds the one test that arms it.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use uavail_serve::ObsServer;

/// One blocking POST /eval; returns `(status line, body)`.
fn post_eval(addr: SocketAddr, body: &str) -> (String, String) {
    let mut stream = TcpStream::connect(addr).expect("connect");
    write!(
        stream,
        "POST /eval HTTP/1.1\r\nHost: localhost\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{body}",
        body.len()
    )
    .expect("send request");
    let mut response = String::new();
    stream.read_to_string(&mut response).expect("read response");
    let (head, body) = response
        .split_once("\r\n\r\n")
        .unwrap_or_else(|| panic!("malformed response: {response:?}"));
    (
        head.lines().next().unwrap_or_default().to_string(),
        body.to_string(),
    )
}

#[test]
fn an_injected_drift_marks_its_own_answer_degraded_with_the_recorder_off() {
    uavail_obs::set_enabled(false);
    let server = ObsServer::start("127.0.0.1:0").expect("bind");

    // Every GTH vector drifts: the closed form answers, and the answer is
    // marked degraded although no counter records anything.
    uavail_faultinject::reset();
    uavail_faultinject::set_seed(7);
    uavail_faultinject::arm("gth", 1.0).expect("arm gth site");
    uavail_faultinject::set_enabled(true);
    let (status, body) = post_eval(server.addr(), r#"{"queries":[{}]}"#);
    assert_eq!(status, "HTTP/1.1 200 OK", "{body}");
    assert!(body.contains("\"degraded\":true"), "{body}");
    let a_ws = uavail_obs::json::parse(&body)
        .ok()
        .and_then(|v| {
            v.get("results")?
                .as_array()?
                .first()?
                .get("availability")?
                .as_f64()
        })
        .unwrap_or_else(|| panic!("no availability: {body}"));
    assert!((a_ws - 0.999995587).abs() < 1e-8, "{body}");
    assert_eq!(
        uavail_obs::snapshot().counter("travel.farm.pi_fallbacks"),
        0
    );

    // Disarmed: the same query answers without a fallback.
    uavail_faultinject::reset();
    uavail_faultinject::set_enabled(false);
    let (status, body) = post_eval(server.addr(), r#"{"queries":[{}]}"#);
    assert_eq!(status, "HTTP/1.1 200 OK", "{body}");
    assert!(body.contains("\"degraded\":false"), "{body}");
    assert_eq!(server.queueing_snapshot().breaker_state, "closed");

    server.shutdown();
}
