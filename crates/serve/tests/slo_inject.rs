//! Satellite of the injection matrix: numerical-fallback faults must
//! flip the `/health` SLO state to warn/breach, and the state must
//! recover once the window rotates past the fault burst.
//!
//! GTH faults are injected into the paper-reference farm solve; each
//! drifting vector records one degraded event into the SLO monitor, which
//! the `/health` endpoint grades live, and the closed form answers.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use uavail_core::composite::{composite_availability, CompositeState};
use uavail_serve::ObsServer;
use uavail_travel::webservice::{
    farm_distribution_imperfect_closed_form, loss_probability, redundant_imperfect_availability,
};
use uavail_travel::TaParameters;

const S: u64 = 1_000_000_000;

fn get(addr: SocketAddr, path: &str) -> String {
    let mut stream = TcpStream::connect(addr).expect("connect");
    write!(
        stream,
        "GET {path} HTTP/1.1\r\nHost: localhost\r\nConnection: close\r\n\r\n"
    )
    .expect("send");
    let mut response = String::new();
    stream.read_to_string(&mut response).expect("read");
    response
        .split_once("\r\n\r\n")
        .map(|(_, body)| body.to_string())
        .unwrap_or_default()
}

/// Equation (9) over the closed form of equations (6)–(8), summed state
/// by state through the public API.
fn closed_form_availability(params: &TaParameters) -> f64 {
    let (op, y) = farm_distribution_imperfect_closed_form(params).expect("closed form");
    let mut states = vec![CompositeState::new(op[0], 0.0)];
    for (i, &pi) in op.iter().enumerate().skip(1) {
        let loss = loss_probability(params, i).expect("p_K(i)");
        states.push(CompositeState::new(pi, 1.0 - loss));
    }
    states.extend(y.iter().map(|&pi| CompositeState::new(pi, 0.0)));
    composite_availability(&states).expect("composite")
}

fn health_state(addr: SocketAddr) -> String {
    let body = get(addr, "/health");
    let parsed = uavail_obs::json::parse(&body).unwrap_or_else(|e| panic!("{e}\n{body}"));
    parsed
        .get("state")
        .and_then(|s| s.as_str())
        .unwrap_or_default()
        .to_string()
}

#[test]
fn injected_gth_faults_flip_health_state_and_window_rotation_recovers() {
    // One test fn: injection and obs state are process-global.
    let params = TaParameters::paper_defaults();
    let clean = redundant_imperfect_availability(&params).expect("clean A(WS)");

    uavail_obs::set_enabled(true);
    uavail_obs::reset();
    uavail_obs::window::clock_reset();
    uavail_obs::slo_configure(uavail_obs::SloConfig {
        epoch_ns: S,
        epochs: 10,
        target_availability: Some(clean),
        ..uavail_obs::SloConfig::default()
    });
    let server = ObsServer::start("127.0.0.1:0").expect("bind");
    let addr = server.addr();

    // Healthy window: measured outcomes sit on the analytic target.
    uavail_obs::clock_advance_to(S);
    uavail_obs::slo_record_outcomes("farm", 1_000_000, 4, 0);
    assert_eq!(health_state(addr), "ok");

    // Arm certain-fire GTH corruption: every farm solve now drifts, is
    // answered by the closed form and records one degraded event.
    uavail_faultinject::reset();
    uavail_faultinject::set_seed(7);
    uavail_faultinject::arm("gth", 1.0).expect("arm gth site");
    uavail_faultinject::set_enabled(true);

    uavail_obs::clock_advance_to(2 * S);
    let rescued = redundant_imperfect_availability(&params).expect("rescued solve");
    assert_eq!(
        rescued.to_bits(),
        closed_form_availability(&params).to_bits(),
        "the closed form must answer the drifting solve"
    );
    assert!(
        (rescued - 0.999995587).abs() < 1e-8,
        "A(WS) = {rescued:.9}, expected 0.999995587"
    );
    let slo = uavail_obs::slo_snapshot().expect("monitor live");
    assert!(slo.degraded >= 1, "degraded events: {}", slo.degraded);
    assert_eq!(health_state(addr), "warn", "first fallback warns");

    // A sustained fault burst crosses the breach threshold.
    for _ in 0..8 {
        let _ = redundant_imperfect_availability(&params).expect("rescued solve");
    }
    let slo = uavail_obs::slo_snapshot().expect("monitor live");
    assert!(slo.degraded >= 8, "degraded events: {}", slo.degraded);
    assert_eq!(health_state(addr), "breach");
    assert!(get(addr, "/metrics").contains("uavail_slo_state 2"));

    // Disarm, rotate the window past the burst: the state recovers while
    // fresh healthy traffic keeps covering the target.
    uavail_faultinject::reset();
    uavail_obs::clock_advance_to(13 * S);
    uavail_obs::slo_record_outcomes("farm", 1_000_000, 4, 0);
    let slo = uavail_obs::slo_snapshot().expect("monitor live");
    assert_eq!(slo.degraded, 0, "the burst rotated out");
    assert_eq!(health_state(addr), "ok");

    server.shutdown();
    uavail_obs::set_enabled(false);
    uavail_obs::reset();
    uavail_obs::slo_reset();
    uavail_obs::window::clock_reset();
}
