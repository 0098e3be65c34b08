//! The closed-loop load: [`CLIENTS`] threads in one process, each with
//! at most one connection open and zero think time — the what-if callers
//! this plane serves wait for each answer before asking the next
//! question. Responses are only stored here; [`crate::check`] verifies
//! them after the measured window so checking never adds think time.

use std::net::SocketAddr;
use std::time::{Duration, Instant};

use crate::server::{exchange, split_response};
use crate::stats::median;
use crate::workload::{body, eval_request, Workload};

/// Client threads (and open connections) of the load. The benchmark
/// machine has two cores: the server's single worker takes one, and the
/// accept thread and these clients share the other.
pub const CLIENTS: u64 = 2;

/// Client id of the set-up probe, outside the load clients' ids so its
/// body never repeats one of theirs.
pub const PROBE_CLIENT: u64 = CLIENTS;

/// Width of the windows the end-to-end metrics are read from. The shared
/// benchmark host slows a core by up to 40% in bursts lasting seconds, so
/// throughput and median latency are taken from the fastest window: a
/// regression slows every window, a noisy neighbour only some.
pub const QPS_WINDOW: Duration = Duration::from_millis(500);

/// One request as the client saw it.
#[derive(Debug)]
pub struct Exchange {
    pub client: u64,
    pub n: u64,
    /// Status and body, or the transport error.
    pub outcome: Result<(u16, Box<[u8]>), String>,
}

/// Everything one closed-loop run produced.
#[derive(Debug, Default)]
pub struct LoadRun {
    /// Connect-to-last-byte latency of each request completed inside the
    /// measured window, in seconds.
    pub latencies: Vec<f64>,
    /// Queries answered per [`QPS_WINDOW`] of the measured window (whole
    /// windows only).
    pub window_queries: Vec<u64>,
    /// Latencies of the requests completed in each whole window.
    pub window_latencies: Vec<Vec<f64>>,
    /// Requests completed inside the measured window.
    pub measured_requests: u64,
    /// Length of the measured window.
    pub measured: Duration,
    /// Every request sent, warm-up included, in no particular order.
    pub exchanges: Vec<Exchange>,
}

impl LoadRun {
    /// Answered queries per second in the fastest whole window.
    pub fn qps(&self) -> Option<f64> {
        let best = self.window_queries.iter().max()?;
        Some(*best as f64 / QPS_WINDOW.as_secs_f64())
    }

    /// The lowest per-window median latency, in seconds.
    pub fn p50(&self) -> Option<f64> {
        self.window_latencies
            .iter()
            .filter_map(|w| median(w))
            .min_by(f64::total_cmp)
    }

    /// Completed requests per second over the measured window.
    pub fn request_rate(&self) -> f64 {
        self.measured_requests as f64 / self.measured.as_secs_f64()
    }

    /// Little's law `N = X·R̄`: the mean number of requests in flight,
    /// which for a closed loop with zero think time is the client count.
    pub fn in_flight(&self) -> f64 {
        self.latencies.iter().sum::<f64>() / self.measured.as_secs_f64()
    }
}

/// Drives `workload` against `addr` for `warmup`, then measures for
/// `measure`.
pub fn run(
    addr: SocketAddr,
    workload: Workload,
    seed: u64,
    warmup: Duration,
    measure: Duration,
) -> LoadRun {
    let start = Instant::now();
    let measure_from = start + warmup;
    let end = measure_from + measure;
    let windows = (measure.as_secs_f64() / QPS_WINDOW.as_secs_f64()).floor() as usize;
    let logs: Vec<ClientLog> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..CLIENTS)
            .map(|client| scope.spawn(move || client_loop(addr, workload, seed, client, end)))
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("load client thread panicked"))
            .collect()
    });
    let queries = workload.queries_per_request() as u64;
    let mut run = LoadRun {
        window_queries: vec![0; windows],
        window_latencies: vec![Vec::new(); windows],
        measured: measure,
        ..LoadRun::default()
    };
    for log in logs {
        for (exchange, (sent, done)) in log.exchanges.into_iter().zip(log.times) {
            if sent >= measure_from && done < end {
                let latency = (done - sent).as_secs_f64();
                run.latencies.push(latency);
                run.measured_requests += 1;
                let window =
                    ((done - measure_from).as_secs_f64() / QPS_WINDOW.as_secs_f64()) as usize;
                if let Some(slot) = run.window_latencies.get_mut(window) {
                    slot.push(latency);
                }
                if matches!(exchange.outcome, Ok((200, _))) {
                    if let Some(slot) = run.window_queries.get_mut(window) {
                        *slot += queries;
                    }
                }
            }
            run.exchanges.push(exchange);
        }
    }
    run
}

struct ClientLog {
    exchanges: Vec<Exchange>,
    times: Vec<(Instant, Instant)>,
}

fn client_loop(
    addr: SocketAddr,
    workload: Workload,
    seed: u64,
    client: u64,
    end: Instant,
) -> ClientLog {
    let mut log = ClientLog {
        exchanges: Vec::new(),
        times: Vec::new(),
    };
    crate::affinity::pin_client();
    let mut n = 0;
    while Instant::now() < end {
        let raw = eval_request(&body(workload, seed, client, n));
        let sent = Instant::now();
        let response = exchange(addr, &raw);
        let done = Instant::now();
        let outcome = match response {
            Ok(bytes) => match split_response(&bytes) {
                Some((status, body)) => Ok((status, body.into())),
                None => Err("malformed HTTP response".to_string()),
            },
            Err(e) => Err(format!("transport: {e}")),
        };
        log.exchanges.push(Exchange { client, n, outcome });
        log.times.push((sent, done));
        n += 1;
    }
    log
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn end_to_end_metrics_come_from_the_fastest_window() {
        let run = LoadRun {
            latencies: vec![0.4, 0.2, 0.3, 0.9, 0.8, 0.7],
            window_queries: vec![30, 10, 20],
            window_latencies: vec![vec![0.4, 0.2, 0.3], vec![0.9, 0.8, 0.7], Vec::new()],
            measured_requests: 6,
            measured: Duration::from_secs(2),
            exchanges: Vec::new(),
        };
        assert_eq!(run.qps(), Some(60.0));
        assert_eq!(run.p50(), Some(0.3));
        assert_eq!(run.request_rate(), 3.0);
        assert!((run.in_flight() - 1.65).abs() < 1e-12);
        assert_eq!(LoadRun::default().qps(), None);
        assert_eq!(LoadRun::default().p50(), None);
    }
}
