//! The program under test, seen from outside: `reproduce serve` child
//! processes and the plain HTTP/1.1 client that talks to them.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::Path;
use std::process::{Child, Command, Stdio};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use uavail_obs::json::JsonValue;

use crate::affinity;
use crate::workload::eval_request;

/// Server flags every benchmark server runs with: one worker, so the
/// `/slo` self-model is the M/M/1/7 system of a single core, and no
/// evaluation rounds before serving.
pub const SERVE_FLAGS: [&str; 9] = [
    "serve",
    "--port",
    "0",
    "--iterations",
    "0",
    "--workers",
    "1",
    "--queue",
    "6",
];

const LISTENING: &str = "uavail-serve listening on http://";
const IO_TIMEOUT: Duration = Duration::from_secs(10);
/// How long a server may take to drain, write its artifacts and exit.
const SHUTDOWN_GRACE: Duration = Duration::from_secs(30);

/// A running `reproduce serve` child. Dropping it kills and reaps the
/// process; [`Server::shutdown`] stops it cleanly through `/shutdown`.
pub struct Server {
    child: Child,
    addr: SocketAddr,
    stdout_drain: Option<JoinHandle<()>>,
}

impl Server {
    /// Spawns `reproduce` with [`SERVE_FLAGS`] plus `extra` and waits for
    /// its listening line.
    fn spawn(reproduce: &Path, extra: &[String]) -> Result<Server, String> {
        let mut child = Command::new(reproduce)
            .args(SERVE_FLAGS)
            .args(extra)
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit())
            .spawn()
            .map_err(|e| format!("cannot spawn {}: {e}", reproduce.display()))?;
        let stdout = child.stdout.take().expect("stdout is piped");
        let mut reader = BufReader::new(stdout);
        let mut line = String::new();
        let addr = loop {
            line.clear();
            match reader.read_line(&mut line) {
                Ok(0) | Err(_) => {
                    let _ = child.kill();
                    let _ = child.wait();
                    return Err("reproduce serve exited before listening".to_string());
                }
                Ok(_) => {
                    if let Some(rest) = line.trim().strip_prefix(LISTENING) {
                        match rest.parse::<SocketAddr>() {
                            Ok(addr) => break addr,
                            Err(e) => {
                                let _ = child.kill();
                                let _ = child.wait();
                                return Err(format!("unparseable listening address {rest:?}: {e}"));
                            }
                        }
                    }
                }
            }
        };
        // Keep the pipe drained so the child never blocks on a full stdout.
        let stdout_drain = std::thread::spawn(move || {
            let _ = std::io::copy(&mut reader, &mut std::io::sink());
        });
        Ok(Server {
            child,
            addr,
            stdout_drain: Some(stdout_drain),
        })
    }

    /// Spawns a server and times it until the first `200` from `/eval`
    /// for `body`: the benchmark's set-up time for the query plane.
    /// Returns the answer's body with the server.
    pub fn spawn_timed(
        reproduce: &Path,
        extra: &[String],
        body: &str,
    ) -> Result<(Server, Duration, String), String> {
        let started = Instant::now();
        let server = Server::spawn(reproduce, extra)?;
        let raw = eval_request(body);
        let response = exchange(server.addr, &raw).map_err(|e| format!("first /eval: {e}"))?;
        let setup = started.elapsed();
        match split_response(&response) {
            Some((200, answer)) => {
                Ok((server, setup, String::from_utf8_lossy(answer).into_owned()))
            }
            Some((status, _)) => Err(format!("first /eval answered {status}")),
            None => Err("first /eval: malformed response".to_string()),
        }
    }

    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Gives the server's `/eval` worker a core of its own; see
    /// [`crate::affinity`].
    pub fn place_threads(&self) {
        if affinity::cores().is_none() {
            return;
        }
        // The worker names itself when it first runs; give it a moment.
        for _ in 0..50 {
            if affinity::place_server(self.child.id()) > 0 {
                return;
            }
            std::thread::sleep(Duration::from_millis(2));
        }
    }

    /// `GET path`, returning the body of a `200`.
    pub fn get(&self, path: &str) -> Result<String, String> {
        let raw = format!("GET {path} HTTP/1.1\r\nHost: localhost\r\nConnection: close\r\n\r\n");
        let response =
            exchange(self.addr, raw.as_bytes()).map_err(|e| format!("GET {path}: {e}"))?;
        match split_response(&response) {
            Some((200, body)) => Ok(String::from_utf8_lossy(body).into_owned()),
            Some((status, _)) => Err(format!("GET {path} answered {status}")),
            None => Err(format!("GET {path}: malformed response")),
        }
    }

    /// The `/slo` `queueing` block.
    pub fn queueing(&self) -> Result<JsonValue, String> {
        let body = self.get("/slo")?;
        let slo = uavail_obs::json::parse(&body).map_err(|e| format!("/slo: {e}"))?;
        slo.get("queueing")
            .cloned()
            .ok_or_else(|| "/slo has no queueing block".to_string())
    }

    /// Requests `/shutdown` and waits for the process to exit cleanly. On
    /// any error the process is killed and reaped by `Drop`.
    pub fn shutdown(mut self) -> Result<(), String> {
        self.get("/shutdown")?;
        let deadline = Instant::now() + SHUTDOWN_GRACE;
        let status = loop {
            match self.child.try_wait() {
                Ok(Some(status)) => break status,
                Ok(None) if Instant::now() < deadline => {
                    std::thread::sleep(Duration::from_millis(5));
                }
                Ok(None) => return Err("reproduce serve ignored /shutdown".to_string()),
                Err(e) => return Err(format!("wait: {e}")),
            }
        };
        if let Some(drain) = self.stdout_drain.take() {
            let _ = drain.join();
        }
        if status.success() {
            Ok(())
        } else {
            Err(format!("reproduce serve exited with {status}"))
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        // Only reached without a clean shutdown; errors are moot here.
        if matches!(self.child.try_wait(), Ok(None)) {
            let _ = self.child.kill();
        }
        let _ = self.child.wait();
        if let Some(drain) = self.stdout_drain.take() {
            let _ = drain.join();
        }
    }
}

/// One request on a fresh connection: connect, send `raw`, read until the
/// server closes.
pub fn exchange(addr: SocketAddr, raw: &[u8]) -> std::io::Result<Vec<u8>> {
    let mut stream = TcpStream::connect(addr)?;
    stream.set_read_timeout(Some(IO_TIMEOUT))?;
    stream.set_write_timeout(Some(IO_TIMEOUT))?;
    stream.write_all(raw)?;
    let mut response = Vec::with_capacity(512);
    stream.read_to_end(&mut response)?;
    Ok(response)
}

/// Status code and body of a raw HTTP/1.1 response.
pub fn split_response(raw: &[u8]) -> Option<(u16, &[u8])> {
    let head_end = raw.windows(4).position(|w| w == b"\r\n\r\n")?;
    let head = std::str::from_utf8(&raw[..head_end]).ok()?;
    let status = head.split_whitespace().nth(1)?.parse().ok()?;
    Some((status, &raw[head_end + 4..]))
}

/// A counter's value in a Prometheus exposition (0 when absent).
pub fn prometheus_counter(exposition: &str, name: &str) -> u64 {
    exposition
        .lines()
        .find_map(|line| {
            let (metric, value) = line.split_once(' ')?;
            (metric == name).then(|| value.trim().parse().ok())?
        })
        .unwrap_or(0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn splits_status_and_body() {
        let raw = b"HTTP/1.1 200 OK\r\nContent-Length: 2\r\n\r\nhi";
        assert_eq!(split_response(raw), Some((200, &b"hi"[..])));
        assert_eq!(
            split_response(b"HTTP/1.1 503 X\r\n\r\n"),
            Some((503, &b""[..]))
        );
        assert_eq!(split_response(b"garbage"), None);
    }

    #[test]
    fn reads_prometheus_counters() {
        let text = "# TYPE uavail_a_total counter\nuavail_a_total 41\nuavail_ab_total 7\n";
        assert_eq!(prometheus_counter(text, "uavail_a_total"), 41);
        assert_eq!(prometheus_counter(text, "uavail_ab_total"), 7);
        assert_eq!(prometheus_counter(text, "uavail_missing_total"), 0);
    }
}
