//! A blocking, connection-per-request client for the daemon.
//!
//! Used by the integration tests and the benchmark's serve-mixed
//! workload (`benchmark/src/serving.rs`). Each call opens a fresh
//! `TcpStream`, writes one request, and reads one `Connection: close`
//! response — matching the server's one-request connection model
//! exactly, with no connection pooling to reason about.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

use alloc_locality::JobSpec;
use explore::SweepSpec;

use crate::{
    HealthResponse, MetricsResponse, StatusResponse, SubmitResponse, SweepStatusResponse,
    SweepSubmitResponse,
};

/// One parsed response.
#[derive(Debug, Clone)]
pub struct Response {
    /// HTTP status code.
    pub status: u16,
    /// The body, verbatim.
    pub body: String,
}

impl Response {
    /// Parses the body as `T`.
    ///
    /// # Errors
    ///
    /// Returns a [`ClientError::Protocol`] when the body is not valid
    /// JSON for `T`.
    pub fn json<T: serde::Deserialize>(&self) -> Result<T, ClientError> {
        serde_json::from_str(&self.body)
            .map_err(|e| ClientError::Protocol(format!("bad body for HTTP {}: {e}", self.status)))
    }
}

/// Why a client call failed.
#[derive(Debug)]
pub enum ClientError {
    /// Socket-level failure.
    Io(std::io::Error),
    /// The server answered, but not with what the call expected.
    Protocol(String),
    /// Waiting for a job outlasted the deadline.
    DeadlineExceeded(String),
}

impl std::fmt::Display for ClientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClientError::Io(e) => write!(f, "socket error: {e}"),
            ClientError::Protocol(msg) => f.write_str(msg),
            ClientError::DeadlineExceeded(msg) => f.write_str(msg),
        }
    }
}

impl std::error::Error for ClientError {}

impl From<std::io::Error> for ClientError {
    fn from(e: std::io::Error) -> Self {
        ClientError::Io(e)
    }
}

/// A handle on one daemon address.
#[derive(Debug, Clone)]
pub struct Client {
    addr: SocketAddr,
    timeout: Duration,
}

impl Client {
    /// A client for the daemon at `addr` with a 10-second per-request
    /// timeout.
    pub fn new(addr: SocketAddr) -> Self {
        Client { addr, timeout: Duration::from_secs(10) }
    }

    /// Overrides the per-request socket timeout.
    #[must_use]
    pub fn timeout(self, timeout: Duration) -> Self {
        Client { timeout, ..self }
    }

    /// Sends one request and reads the full response.
    ///
    /// # Errors
    ///
    /// Returns [`ClientError::Io`] on socket failure and
    /// [`ClientError::Protocol`] when the response is not parseable HTTP.
    pub fn request(
        &self,
        method: &str,
        path: &str,
        body: Option<&str>,
    ) -> Result<Response, ClientError> {
        let mut stream = TcpStream::connect_timeout(&self.addr, self.timeout)?;
        stream.set_read_timeout(Some(self.timeout))?;
        stream.set_write_timeout(Some(self.timeout))?;
        let body = body.unwrap_or("");
        let request = format!(
            "{method} {path} HTTP/1.1\r\nHost: {}\r\nContent-Type: application/json\r\n\
             Content-Length: {}\r\nConnection: close\r\n\r\n{body}",
            self.addr,
            body.len()
        );
        stream.write_all(request.as_bytes())?;
        let mut raw = Vec::new();
        stream.read_to_end(&mut raw)?;
        parse_response(&raw)
    }

    /// Submits a job spec.
    ///
    /// # Errors
    ///
    /// Propagates transport errors; returns [`ClientError::Protocol`]
    /// with the server's error body on a non-2xx status.
    pub fn submit(&self, spec: &JobSpec) -> Result<SubmitResponse, ClientError> {
        let body = serde_json::to_string(spec).expect("serialize job spec");
        let response = self.request("POST", "/jobs", Some(&body))?;
        if response.status == 200 || response.status == 202 {
            response.json()
        } else {
            Err(ClientError::Protocol(format!(
                "submit answered HTTP {}: {}",
                response.status, response.body
            )))
        }
    }

    /// Polls `GET /jobs/{id}` until the job is done or failed, or the
    /// deadline passes.
    ///
    /// # Errors
    ///
    /// Returns [`ClientError::DeadlineExceeded`] on timeout,
    /// [`ClientError::Protocol`] when the job failed.
    pub fn wait_done(&self, id: &str, deadline: Duration) -> Result<StatusResponse, ClientError> {
        let start = Instant::now();
        loop {
            let response = self.request("GET", &format!("/jobs/{id}"), None)?;
            let status: StatusResponse = response.json()?;
            match status.status.as_str() {
                "done" => return Ok(status),
                "failed" => {
                    return Err(ClientError::Protocol(format!(
                        "job {id} failed: {}",
                        status.error.unwrap_or_default()
                    )))
                }
                _ => {}
            }
            if start.elapsed() > deadline {
                return Err(ClientError::DeadlineExceeded(format!(
                    "job {id} still {} after {deadline:?}",
                    status.status
                )));
            }
            std::thread::sleep(Duration::from_millis(10));
        }
    }

    /// Submits a sweep spec to `POST /sweeps`.
    ///
    /// # Errors
    ///
    /// Propagates transport errors; returns [`ClientError::Protocol`]
    /// with the server's error body on a non-2xx status (including 429
    /// when the sweep's fresh points do not fit the queue).
    pub fn submit_sweep(&self, spec: &SweepSpec) -> Result<SweepSubmitResponse, ClientError> {
        let body = serde_json::to_string(spec).expect("serialize sweep spec");
        let response = self.request("POST", "/sweeps", Some(&body))?;
        if response.status == 200 || response.status == 202 {
            response.json()
        } else {
            Err(ClientError::Protocol(format!(
                "sweep submit answered HTTP {}: {}",
                response.status, response.body
            )))
        }
    }

    /// `GET /sweeps/{id}` — per-point progress counts.
    ///
    /// # Errors
    ///
    /// Propagates transport errors; protocol error on non-200.
    pub fn sweep_status(&self, id: &str) -> Result<SweepStatusResponse, ClientError> {
        let response = self.request("GET", &format!("/sweeps/{id}"), None)?;
        if response.status == 200 {
            response.json()
        } else {
            Err(ClientError::Protocol(format!(
                "sweep status for {id} answered HTTP {}: {}",
                response.status, response.body
            )))
        }
    }

    /// Polls `GET /sweeps/{id}` until every point is done, or the
    /// deadline passes.
    ///
    /// # Errors
    ///
    /// Returns [`ClientError::DeadlineExceeded`] on timeout,
    /// [`ClientError::Protocol`] when any point failed.
    pub fn wait_sweep_done(
        &self,
        id: &str,
        deadline: Duration,
    ) -> Result<SweepStatusResponse, ClientError> {
        let start = Instant::now();
        loop {
            let status = self.sweep_status(id)?;
            match status.status.as_str() {
                "done" => return Ok(status),
                "failed" => {
                    return Err(ClientError::Protocol(format!(
                        "sweep {id}: {} of {} points failed",
                        status.failed, status.total
                    )))
                }
                _ => {}
            }
            if start.elapsed() > deadline {
                return Err(ClientError::DeadlineExceeded(format!(
                    "sweep {id} still {}/{} done after {deadline:?}",
                    status.done, status.total
                )));
            }
            std::thread::sleep(Duration::from_millis(10));
        }
    }

    /// Fetches the assembled sweep-report JSONL, verbatim.
    ///
    /// # Errors
    ///
    /// Returns [`ClientError::Protocol`] when the sweep is unknown or
    /// has unfinished points.
    pub fn fetch_sweep_report(&self, id: &str) -> Result<String, ClientError> {
        let response = self.request("GET", &format!("/sweeps/{id}/report"), None)?;
        if response.status == 200 {
            Ok(response.body)
        } else {
            Err(ClientError::Protocol(format!(
                "sweep report for {id} answered HTTP {}: {}",
                response.status, response.body
            )))
        }
    }

    /// Fetches the finished run-report JSONL line, verbatim.
    ///
    /// # Errors
    ///
    /// Returns [`ClientError::Protocol`] when the job is unknown or not
    /// done.
    pub fn fetch_report(&self, id: &str) -> Result<String, ClientError> {
        let response = self.request("GET", &format!("/jobs/{id}/report"), None)?;
        if response.status == 200 {
            Ok(response.body)
        } else {
            Err(ClientError::Protocol(format!(
                "report for {id} answered HTTP {}: {}",
                response.status, response.body
            )))
        }
    }

    /// Fetches the finished job's `alloc-locality.trace` v1 JSON line,
    /// verbatim.
    ///
    /// # Errors
    ///
    /// Returns [`ClientError::Protocol`] when the job is unknown, not
    /// done, or its trace was not retained (restored from disk).
    pub fn fetch_trace(&self, id: &str) -> Result<String, ClientError> {
        let response = self.request("GET", &format!("/jobs/{id}/trace"), None)?;
        if response.status == 200 {
            Ok(response.body)
        } else {
            Err(ClientError::Protocol(format!(
                "trace for {id} answered HTTP {}: {}",
                response.status, response.body
            )))
        }
    }

    /// `GET /metrics?format=prometheus` — the text exposition, verbatim.
    ///
    /// # Errors
    ///
    /// Propagates transport errors; protocol error on non-200.
    pub fn metrics_prometheus(&self) -> Result<String, ClientError> {
        let response = self.request("GET", "/metrics?format=prometheus", None)?;
        if response.status == 200 {
            Ok(response.body)
        } else {
            Err(ClientError::Protocol(format!(
                "prometheus metrics answered HTTP {}",
                response.status
            )))
        }
    }

    /// `GET /healthz`.
    ///
    /// # Errors
    ///
    /// Propagates transport errors; protocol error on non-200.
    pub fn healthz(&self) -> Result<HealthResponse, ClientError> {
        let response = self.request("GET", "/healthz", None)?;
        if response.status == 200 {
            response.json()
        } else {
            Err(ClientError::Protocol(format!("healthz answered HTTP {}", response.status)))
        }
    }

    /// `GET /metrics`.
    ///
    /// # Errors
    ///
    /// Propagates transport errors; protocol error on non-200.
    pub fn metrics(&self) -> Result<MetricsResponse, ClientError> {
        let response = self.request("GET", "/metrics", None)?;
        if response.status == 200 {
            response.json()
        } else {
            Err(ClientError::Protocol(format!("metrics answered HTTP {}", response.status)))
        }
    }

    /// `POST /shutdown` — asks the daemon to drain and exit.
    ///
    /// # Errors
    ///
    /// Propagates transport errors; protocol error on non-200.
    pub fn shutdown(&self) -> Result<(), ClientError> {
        let response = self.request("POST", "/shutdown", None)?;
        if response.status == 200 {
            Ok(())
        } else {
            Err(ClientError::Protocol(format!("shutdown answered HTTP {}", response.status)))
        }
    }
}

fn parse_response(raw: &[u8]) -> Result<Response, ClientError> {
    let text = std::str::from_utf8(raw)
        .map_err(|_| ClientError::Protocol("response is not UTF-8".into()))?;
    let (head, body) = text
        .split_once("\r\n\r\n")
        .ok_or_else(|| ClientError::Protocol("response has no header terminator".into()))?;
    let status_line = head.lines().next().unwrap_or("");
    let status = status_line
        .split(' ')
        .nth(1)
        .and_then(|s| s.parse::<u16>().ok())
        .ok_or_else(|| ClientError::Protocol(format!("bad status line {status_line:?}")))?;
    Ok(Response { status, body: body.to_string() })
}
