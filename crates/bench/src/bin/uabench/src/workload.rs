//! The four workloads and the seeded `/eval` bodies they send.
//!
//! Every input is a pure function of `(seed, workload, client, n)`: request
//! `n` of client `client` is drawn from its own SplitMix64 stream, so a
//! closed-loop thread, the post-run verifier and the in-process layer
//! replay all regenerate exactly the bytes the server saw without sharing
//! state. The server only ever sees these generated bodies.

use std::fmt::Write as _;

/// One benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Fresh-process `reproduce all` runs, diffed against the golden copy.
    Reproduce,
    /// One `ws` query per request from a 24-point grid: every memo hits.
    EvalHot,
    /// One unique `ws` query per request: every memo misses.
    EvalCold,
    /// 16 class-A/B queries per request on the hot farm grid.
    EvalUser,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::Reproduce,
        Workload::EvalHot,
        Workload::EvalCold,
        Workload::EvalUser,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::Reproduce => "reproduce",
            Workload::EvalHot => "eval-hot",
            Workload::EvalCold => "eval-cold",
            Workload::EvalUser => "eval-user",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Queries carried by every request body of this workload.
    pub fn queries_per_request(self) -> usize {
        match self {
            Workload::EvalUser => USER_BATCH,
            _ => 1,
        }
    }

    fn tag(self) -> u64 {
        match self {
            Workload::Reproduce => 0x7265_7072,
            Workload::EvalHot => 0x686f_7400,
            Workload::EvalCold => 0x636f_6c64,
            Workload::EvalUser => 0x7573_6572,
        }
    }
}

/// Queries per `eval-user` request.
pub const USER_BATCH: usize = 16;

/// The hot grid's failure rates (per hour); `web_servers` spans 1..=8.
const HOT_FAILURE_RATES: [f64; 3] = [1e-4, 5e-4, 1e-3];

/// `eval-cold` farm sizes. The upper end stays well below the smallest
/// farm (135 servers at λ = 1e-4) on which the context-backed dense farm
/// solve fails today.
pub const COLD_MIN_SERVERS: u64 = 8;
pub const COLD_MAX_SERVERS: u64 = 80;

/// SplitMix64, the generator every seeded input comes from.
#[derive(Debug, Clone)]
pub struct SplitMix64(u64);

impl SplitMix64 {
    pub fn new(seed: u64) -> Self {
        SplitMix64(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)` with 53 random bits.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `0..n`.
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }
}

/// The stream of request `n` of client `client`.
fn stream(workload: Workload, seed: u64, client: u64, n: u64) -> SplitMix64 {
    let mut mix = SplitMix64::new(seed ^ workload.tag().rotate_left(32));
    let a = mix.next_u64() ^ client.wrapping_mul(0xd6e8_feb8_6659_fd93);
    let mut mix = SplitMix64::new(a);
    SplitMix64::new(mix.next_u64() ^ n.wrapping_mul(0x9e37_79b9_7f4a_7c15))
}

/// The `/eval` body of request `n` of client `client`.
///
/// `reproduce` has no query stream of its own; where the benchmark still
/// needs one (the serve-layer probes of a traced run) it cycles the paper's
/// default query through classes `ws`, `A` and `B` — the queries the
/// reproduction itself answers in Table 5 and Table 8.
pub fn body(workload: Workload, seed: u64, client: u64, n: u64) -> String {
    let mut rng = stream(workload, seed, client, n);
    let mut out = String::from("{\"queries\":[");
    match workload {
        Workload::Reproduce => {
            let class = ["ws", "A", "B"][(n % 3) as usize];
            let _ = write!(out, "{{\"class\":\"{class}\"}}");
        }
        Workload::EvalHot => {
            let (servers, lambda) = hot_point(&mut rng);
            let _ = write!(
                out,
                "{{\"web_servers\":{servers},\"failure_rate_per_hour\":{lambda}}}"
            );
        }
        Workload::EvalCold => {
            let servers = COLD_MIN_SERVERS + rng.below(COLD_MAX_SERVERS - COLD_MIN_SERVERS + 1);
            // Log-uniform in [1e-4, 1e-3].
            let lambda = 10f64.powf(-4.0 + rng.unit());
            let alpha = 50.0 + 100.0 * rng.unit();
            let _ = write!(
                out,
                "{{\"web_servers\":{servers},\"buffer_size\":{},\"failure_rate_per_hour\":{lambda},\"arrival_rate_per_second\":{alpha}}}",
                servers + 8
            );
        }
        Workload::EvalUser => {
            for i in 0..USER_BATCH {
                if i > 0 {
                    out.push(',');
                }
                let class = if rng.below(2) == 0 { "A" } else { "B" };
                let (servers, lambda) = hot_point(&mut rng);
                let flights = 1 + rng.below(5);
                let payment = 0.99 + 0.0099 * rng.unit();
                let _ = write!(
                    out,
                    "{{\"class\":\"{class}\",\"web_servers\":{servers},\"failure_rate_per_hour\":{lambda},\"num_flight_systems\":{flights},\"a_payment\":{payment}}}"
                );
            }
        }
    }
    out.push_str("]}");
    out
}

fn hot_point(rng: &mut SplitMix64) -> (u64, f64) {
    let servers = 1 + rng.below(8);
    let lambda = HOT_FAILURE_RATES[rng.below(HOT_FAILURE_RATES.len() as u64) as usize];
    (servers, lambda)
}

/// The complete HTTP request a client sends for `body`.
pub fn eval_request(body: &str) -> Vec<u8> {
    format!(
        "POST /eval HTTP/1.1\r\nHost: localhost\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{body}",
        body.len()
    )
    .into_bytes()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;
    use uavail_serve::eval::{evaluate_query, parse_eval_request, QueryClass};
    use uavail_travel::EvalContext;

    #[test]
    fn same_seed_same_bodies_other_seed_other_bodies() {
        for w in Workload::ALL {
            for client in 0..3 {
                for n in 0..50 {
                    assert_eq!(body(w, 7, client, n), body(w, 7, client, n));
                }
            }
        }
        for w in [Workload::EvalHot, Workload::EvalCold, Workload::EvalUser] {
            let a: Vec<String> = (0..50).map(|n| body(w, 7, 0, n)).collect();
            let b: Vec<String> = (0..50).map(|n| body(w, 8, 0, n)).collect();
            let c: Vec<String> = (0..50).map(|n| body(w, 7, 1, n)).collect();
            assert_ne!(a, b, "{}", w.name());
            assert_ne!(a, c, "{}", w.name());
        }
    }

    #[test]
    fn every_cold_body_is_unique_and_accepted() {
        let mut seen = HashSet::new();
        for client in 0..3 {
            for n in 0..20_000 {
                let b = body(Workload::EvalCold, 11, client, n);
                let req = parse_eval_request(b.as_bytes()).unwrap_or_else(|e| panic!("{e}: {b}"));
                assert_eq!(req.queries.len(), 1);
                assert!(seen.insert(b), "duplicate cold body");
            }
        }
    }

    #[test]
    fn every_workload_body_parses_with_the_advertised_batch() {
        for w in Workload::ALL {
            for n in 0..500 {
                let b = body(w, 3, 0, n);
                let req = parse_eval_request(b.as_bytes()).unwrap_or_else(|e| panic!("{e}: {b}"));
                assert_eq!(req.queries.len(), w.queries_per_request(), "{b}");
            }
        }
    }

    #[test]
    fn generated_queries_stay_out_of_the_failing_farm_region() {
        for w in [Workload::EvalHot, Workload::EvalCold, Workload::EvalUser] {
            for n in 0..5_000 {
                let req = parse_eval_request(body(w, 5, 0, n).as_bytes()).expect("parse");
                for q in &req.queries {
                    let p = &q.params;
                    assert!(
                        p.failure_rate_per_hour >= 1e-4,
                        "λ {}",
                        p.failure_rate_per_hour
                    );
                    assert!(
                        p.failure_rate_per_hour <= 1e-3,
                        "λ {}",
                        p.failure_rate_per_hour
                    );
                    assert!(
                        p.web_servers as u64 <= COLD_MAX_SERVERS,
                        "N_W {}",
                        p.web_servers
                    );
                    assert!(p.web_servers <= p.buffer_size);
                    if w == Workload::EvalCold {
                        assert!(p.web_servers as u64 >= COLD_MIN_SERVERS);
                        assert_eq!(p.buffer_size, p.web_servers + 8);
                        assert!((50.0..=150.0).contains(&p.arrival_rate_per_second));
                    } else {
                        assert!((1..=8).contains(&p.web_servers));
                    }
                    if w == Workload::EvalUser {
                        assert_ne!(q.class, QueryClass::WebService);
                        assert!((1..=5).contains(&p.num_flight_systems));
                        assert!((0.99..=0.9999).contains(&p.a_payment));
                    }
                }
            }
        }
        // The corners of the cold range evaluate on a worker-style context,
        // including the stiffest farm (most servers, smallest λ).
        let mut ctx = EvalContext::new();
        for servers in [COLD_MIN_SERVERS, COLD_MAX_SERVERS] {
            for lambda in ["1e-4", "1e-3"] {
                for alpha in ["50", "150"] {
                    let b = format!(
                        "{{\"queries\":[{{\"web_servers\":{servers},\"buffer_size\":{},\"failure_rate_per_hour\":{lambda},\"arrival_rate_per_second\":{alpha}}}]}}",
                        servers + 8
                    );
                    let req = parse_eval_request(b.as_bytes()).expect("parse");
                    let a = evaluate_query(&req.queries[0], &mut ctx).expect("corner evaluates");
                    assert!(a.is_finite() && (0.0..=1.0).contains(&a));
                }
            }
        }
    }

    #[test]
    fn hot_stream_covers_exactly_the_24_point_grid() {
        let distinct: HashSet<String> = (0..5_000)
            .map(|n| body(Workload::EvalHot, 9, n % 2, n))
            .collect();
        assert_eq!(distinct.len(), 24);
    }

    #[test]
    fn unit_draws_stay_in_range() {
        let mut rng = SplitMix64::new(1);
        for _ in 0..10_000 {
            let u = rng.unit();
            assert!((0.0..1.0).contains(&u));
            assert!(rng.below(5) < 5);
        }
    }
}
