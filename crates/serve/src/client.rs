//! The serve client: connects to a running `bbsim serve`, submits
//! jobs, and decodes the streamed result documents.

use std::io::{self, BufRead, BufReader, Write};

use bb_fleet::json::{self, Json};
use bb_fleet::TicketId;

use crate::server::{BindAddr, Stream};
use crate::wire::{JobKind, SweepArgs};

/// Why a client call failed.
#[derive(Debug)]
pub enum ClientError {
    /// The socket broke (connect, read, or write).
    Io(io::Error),
    /// The server answered, but not with a well-formed `bb-serve-v1`
    /// response.
    Protocol(String),
    /// The server rejected the request (`"ok": false`); the payload is
    /// its error message.
    Remote(String),
}

impl std::fmt::Display for ClientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClientError::Io(e) => write!(f, "socket error: {e}"),
            ClientError::Protocol(m) => write!(f, "protocol error: {m}"),
            ClientError::Remote(m) => write!(f, "server error: {m}"),
        }
    }
}

impl std::error::Error for ClientError {}

impl From<io::Error> for ClientError {
    fn from(e: io::Error) -> Self {
        ClientError::Io(e)
    }
}

/// A finished job's decoded wait-result.
#[derive(Debug, Clone)]
pub struct JobResult {
    /// Which grid ran.
    pub kind: JobKind,
    /// Failed jobs in the report (`failures` array length).
    pub failures: usize,
    /// The human-readable report summary (what `bbsim sweep` prints to
    /// stdout).
    pub summary: String,
    /// The pool/observability summary (what `bbsim sweep` prints to
    /// stderr).
    pub pool_summary: String,
    /// The full report document (`bb-fleet-v1` / `bb-fleet-chaos-v2`),
    /// byte-identical to the in-process `--json` output.
    pub report: String,
    /// The span-metrics document (`bb-metrics-v1`), when the job
    /// collected metrics.
    pub metrics: Option<String>,
}

/// One NDJSON connection to a serve instance. Requests are issued
/// serially; each call writes one line and reads one line. TCP
/// connections set `TCP_NODELAY`.
pub struct Client {
    /// Reads responses; requests are written through `get_ref`.
    reader: BufReader<Stream>,
    next_id: u64,
}

impl Client {
    /// Connects to a serve instance.
    pub fn connect(addr: &BindAddr) -> Result<Client, ClientError> {
        Ok(Client {
            reader: BufReader::new(Stream::connect(addr)?),
            next_id: 1,
        })
    }

    /// One request/response round trip; returns the `"result"` object.
    fn call(&mut self, body: &str) -> Result<Json, ClientError> {
        let id = self.next_id;
        self.next_id += 1;
        let line = format!("{{\"id\": {id}, {body}}}\n");
        let mut writer = self.reader.get_ref();
        writer.write_all(line.as_bytes())?;
        let mut response = String::new();
        if self.reader.read_line(&mut response)? == 0 {
            return Err(ClientError::Protocol("server closed the connection".into()));
        }
        let v = json::parse(response.trim_end())
            .map_err(|e| ClientError::Protocol(format!("bad response JSON: {e}")))?;
        match v.get("schema").and_then(Json::as_str) {
            Some(json::SCHEMA_SERVE) => {}
            other => {
                return Err(ClientError::Protocol(format!(
                    "unexpected response schema {other:?}"
                )))
            }
        }
        match v.get("ok") {
            Some(Json::Bool(true)) => v
                .get("result")
                .cloned()
                .ok_or_else(|| ClientError::Protocol("response has no \"result\"".into())),
            Some(Json::Bool(false)) => Err(ClientError::Remote(
                v.get("error")
                    .and_then(Json::as_str)
                    .unwrap_or("(no error message)")
                    .to_owned(),
            )),
            _ => Err(ClientError::Protocol("response has no \"ok\"".into())),
        }
    }

    /// Submits a job; returns its ticket.
    pub fn submit(&mut self, job: &SweepArgs) -> Result<TicketId, ClientError> {
        let result = self.call(&format!(
            "\"method\": \"submit\", \"job\": {}",
            job.to_wire_json()
        ))?;
        result
            .get("ticket")
            .and_then(Json::as_f64)
            .map(|n| n as TicketId)
            .ok_or_else(|| ClientError::Protocol("submit result has no \"ticket\"".into()))
    }

    /// Non-blocking progress: `(status, completed, total)`.
    pub fn poll(&mut self, ticket: TicketId) -> Result<(String, usize, usize), ClientError> {
        let result = self.call(&format!("\"method\": \"poll\", \"ticket\": {ticket}"))?;
        let status = result
            .get("status")
            .and_then(Json::as_str)
            .ok_or_else(|| ClientError::Protocol("poll result has no \"status\"".into()))?
            .to_owned();
        let count = |key: &str| {
            result
                .get(key)
                .and_then(Json::as_f64)
                .map_or(0, |n| n as usize)
        };
        Ok((status, count("completed"), count("total")))
    }

    /// Blocks until the ticket finishes and decodes its result.
    pub fn wait(&mut self, ticket: TicketId) -> Result<JobResult, ClientError> {
        let result = self.call(&format!("\"method\": \"wait\", \"ticket\": {ticket}"))?;
        let field = |key: &str| -> Result<String, ClientError> {
            result
                .get(key)
                .and_then(Json::as_str)
                .map(str::to_owned)
                .ok_or_else(|| ClientError::Protocol(format!("wait result has no {key:?}")))
        };
        Ok(JobResult {
            kind: field("kind")?
                .parse::<JobKind>()
                .map_err(ClientError::Protocol)?,
            failures: result
                .get("failures")
                .and_then(Json::as_f64)
                .map_or(0, |n| n as usize),
            summary: field("summary")?,
            pool_summary: field("pool_summary")?,
            report: field("report")?,
            metrics: match result.get("metrics") {
                None | Some(Json::Null) => None,
                Some(Json::Str(s)) => Some(s.clone()),
                Some(_) => {
                    return Err(ClientError::Protocol(
                        "wait result \"metrics\" must be a string or null".into(),
                    ))
                }
            },
        })
    }

    /// Submits a job and blocks for its result.
    pub fn run(&mut self, job: &SweepArgs) -> Result<JobResult, ClientError> {
        let ticket = self.submit(job)?;
        self.wait(ticket)
    }

    /// Cancels a ticket; true if it was still cancellable.
    pub fn cancel(&mut self, ticket: TicketId) -> Result<bool, ClientError> {
        let result = self.call(&format!("\"method\": \"cancel\", \"ticket\": {ticket}"))?;
        match result.get("cancelled") {
            Some(Json::Bool(b)) => Ok(*b),
            _ => Err(ClientError::Protocol(
                "cancel result has no \"cancelled\"".into(),
            )),
        }
    }

    /// Fetches the service's `bb-serve-stats-v1` document.
    pub fn stats(&mut self) -> Result<String, ClientError> {
        let result = self.call("\"method\": \"stats\"")?;
        result
            .get("stats")
            .and_then(Json::as_str)
            .map(str::to_owned)
            .ok_or_else(|| ClientError::Protocol("stats result has no \"stats\"".into()))
    }

    /// Asks the server to stop accepting work and exit once drained.
    pub fn shutdown(&mut self) -> Result<(), ClientError> {
        self.call("\"method\": \"shutdown\"").map(|_| ())
    }
}
