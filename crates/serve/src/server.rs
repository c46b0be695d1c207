//! The serve loop: a listening socket in front of one
//! [`FleetService`].
//!
//! Each accepted connection gets its own thread and its own
//! [`ClientId`] (the connection counter), so the service's per-client
//! quotas and round-robin fairness apply per connection. The protocol
//! is NDJSON request/response over the socket (see [`crate::wire`]);
//! `wait` blocks the connection's thread on the service, never the
//! accept loop, so slow sweeps don't starve other clients.
//!
//! A `shutdown` request flips the stop flag: the accept loop closes,
//! every connection thread finishes its current request and exits, and
//! the service's worker threads are joined when the last
//! [`FleetService`] handle drops. Stale Unix socket files from a
//! previous crash are removed before binding.

use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

use bb_fleet::json;
use bb_fleet::{ClientId, FleetService, ServiceConfig, ServiceReport};

use crate::wire::{self, Request};

/// Where the server listens (or the client connects).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BindAddr {
    /// A Unix-domain socket at this path.
    Unix(PathBuf),
    /// A TCP address like `127.0.0.1:7070`.
    Tcp(String),
}

impl std::fmt::Display for BindAddr {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            BindAddr::Unix(p) => write!(f, "unix:{}", p.display()),
            BindAddr::Tcp(a) => write!(f, "tcp:{a}"),
        }
    }
}

enum Listener {
    Unix(UnixListener),
    Tcp(TcpListener),
}

/// One accepted connection, either flavor. Cloned so one half can be
/// buffered for reads while the other writes responses.
pub(crate) enum Stream {
    Unix(UnixStream),
    Tcp(TcpStream),
}

impl Stream {
    pub(crate) fn try_clone(&self) -> io::Result<Stream> {
        Ok(match self {
            Stream::Unix(s) => Stream::Unix(s.try_clone()?),
            Stream::Tcp(s) => Stream::Tcp(s.try_clone()?),
        })
    }

    fn set_read_timeout(&self, dur: Option<Duration>) -> io::Result<()> {
        match self {
            Stream::Unix(s) => s.set_read_timeout(dur),
            Stream::Tcp(s) => s.set_read_timeout(dur),
        }
    }
}

impl Read for Stream {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        match self {
            Stream::Unix(s) => s.read(buf),
            Stream::Tcp(s) => s.read(buf),
        }
    }
}

impl Write for Stream {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        match self {
            Stream::Unix(s) => s.write(buf),
            Stream::Tcp(s) => s.write(buf),
        }
    }

    fn flush(&mut self) -> io::Result<()> {
        match self {
            Stream::Unix(s) => s.flush(),
            Stream::Tcp(s) => s.flush(),
        }
    }
}

/// A bound, not-yet-running serve loop.
pub struct Server {
    listener: Listener,
    service: Arc<FleetService>,
    stop: Arc<AtomicBool>,
    socket_path: Option<PathBuf>,
}

impl Server {
    /// Binds the listening socket and starts the fleet service's
    /// workers. For Unix sockets a leftover file at the path is
    /// removed first (a crashed server must not brick its address).
    pub fn bind(addr: &BindAddr, config: ServiceConfig) -> io::Result<Server> {
        let (listener, socket_path) = match addr {
            BindAddr::Unix(path) => {
                if path.exists() {
                    std::fs::remove_file(path)?;
                }
                (
                    Listener::Unix(UnixListener::bind(path)?),
                    Some(path.clone()),
                )
            }
            BindAddr::Tcp(addr) => (Listener::Tcp(TcpListener::bind(addr.as_str())?), None),
        };
        Ok(Server {
            listener,
            service: Arc::new(FleetService::start(config)),
            stop: Arc::new(AtomicBool::new(false)),
            socket_path,
        })
    }

    /// The bound TCP address, if listening on TCP — lets tests bind
    /// port 0 and discover the real port.
    pub fn tcp_addr(&self) -> Option<SocketAddr> {
        match &self.listener {
            Listener::Tcp(l) => l.local_addr().ok(),
            Listener::Unix(_) => None,
        }
    }

    /// The underlying service (for in-process inspection in tests).
    pub fn service(&self) -> &Arc<FleetService> {
        &self.service
    }

    /// A flag that stops the accept loop when set (the `shutdown`
    /// request sets it; embedders may too).
    pub fn stop_flag(&self) -> Arc<AtomicBool> {
        Arc::clone(&self.stop)
    }

    /// Runs the accept loop until a `shutdown` request arrives, then
    /// drains: connection threads are joined, the socket file is
    /// unlinked, and the fleet workers stop with the service.
    pub fn run(self) -> io::Result<()> {
        match &self.listener {
            Listener::Unix(l) => l.set_nonblocking(true)?,
            Listener::Tcp(l) => l.set_nonblocking(true)?,
        }
        let mut conns = Vec::new();
        let mut next_client: ClientId = 1;
        while !self.stop.load(Ordering::SeqCst) {
            let accepted = match &self.listener {
                Listener::Unix(l) => l.accept().map(|(s, _)| Stream::Unix(s)),
                Listener::Tcp(l) => l.accept().map(|(s, _)| Stream::Tcp(s)),
            };
            match accepted {
                Ok(stream) => {
                    let client = next_client;
                    next_client += 1;
                    let service = Arc::clone(&self.service);
                    let stop = Arc::clone(&self.stop);
                    conns.push(
                        std::thread::Builder::new()
                            .name(format!("bb-serve-{client}"))
                            .spawn(move || serve_connection(stream, service, stop, client))
                            .expect("spawn connection thread"),
                    );
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                    std::thread::sleep(Duration::from_millis(25));
                }
                Err(e) => return Err(e),
            }
            // Reap finished connections so a long-lived server doesn't
            // accumulate dead handles.
            conns.retain(|h| !h.is_finished());
        }
        for conn in conns {
            let _ = conn.join();
        }
        if let Some(path) = &self.socket_path {
            let _ = std::fs::remove_file(path);
        }
        Ok(())
    }
}

/// One connection's request loop. Read timeouts keep the thread
/// checking the stop flag even when the client is idle.
fn serve_connection(
    stream: Stream,
    service: Arc<FleetService>,
    stop: Arc<AtomicBool>,
    client: ClientId,
) {
    let _ = stream.set_read_timeout(Some(Duration::from_millis(200)));
    let mut writer = match stream.try_clone() {
        Ok(w) => w,
        Err(_) => return,
    };
    let mut reader = BufReader::new(stream);
    let mut line = String::new();
    loop {
        match reader.read_line(&mut line) {
            // EOF: the client hung up.
            Ok(0) => break,
            Ok(_) if !line.ends_with('\n') => {
                // EOF mid-line; fall through to process what arrived.
                if !process_line(&line, &service, &stop, client, &mut writer) {
                    break;
                }
                break;
            }
            Ok(_) => {
                let done = !process_line(&line, &service, &stop, client, &mut writer);
                line.clear();
                if done || stop.load(Ordering::SeqCst) {
                    break;
                }
            }
            Err(e)
                if e.kind() == io::ErrorKind::WouldBlock || e.kind() == io::ErrorKind::TimedOut =>
            {
                if stop.load(Ordering::SeqCst) {
                    break;
                }
            }
            Err(_) => break,
        }
    }
}

/// Handles one request line; returns false when the connection should
/// close (write failure).
fn process_line(
    line: &str,
    service: &FleetService,
    stop: &AtomicBool,
    client: ClientId,
    writer: &mut Stream,
) -> bool {
    if line.trim().is_empty() {
        return true;
    }
    let response = match wire::parse_request(line) {
        Err(e) => wire::render_err(0, &e),
        Ok(req) => dispatch(req, service, stop, client),
    };
    writer
        .write_all(response.as_bytes())
        .and_then(|()| writer.write_all(b"\n"))
        .and_then(|()| writer.flush())
        .is_ok()
}

/// Executes one request against the service and renders the response.
fn dispatch(req: Request, service: &FleetService, stop: &AtomicBool, client: ClientId) -> String {
    let id = req.id();
    match req {
        Request::Submit { job, .. } => {
            // Weigh the job against the queue before building its grid:
            // an oversized grid is refused, not allocated. A job that
            // cannot be counted gets the grid builder's own error.
            let admitted = match job.jobs() {
                Ok(jobs) => service.admits(jobs).map_err(|e| e.to_string()),
                Err(_) => Ok(()),
            };
            match admitted.and_then(|()| job.to_work_item()) {
                Err(e) => wire::render_err(id, &e),
                Ok(item) => match service.submit(client, item) {
                    Ok(ticket) => wire::render_ok(id, &format!("\"ticket\": {ticket}")),
                    Err(e) => wire::render_err(id, &e.to_string()),
                },
            }
        }
        Request::Poll { ticket, .. } => match service.poll(ticket) {
            None => wire::render_err(id, "unknown ticket"),
            Some(status) => {
                use bb_fleet::TicketStatus::*;
                let fields = match status {
                    Queued { total } => {
                        format!("\"status\": \"queued\", \"completed\": 0, \"total\": {total}")
                    }
                    Running { completed, total } => format!(
                        "\"status\": \"running\", \"completed\": {completed}, \"total\": {total}"
                    ),
                    Done => "\"status\": \"done\"".to_string(),
                    Cancelled => "\"status\": \"cancelled\"".to_string(),
                };
                wire::render_ok(id, &fields)
            }
        },
        Request::Wait { ticket, .. } => match service.wait(ticket) {
            Err(e) => wire::render_err(id, &e.to_string()),
            Ok(report) => wire::render_ok(id, &render_report(&report)),
        },
        Request::Cancel { ticket, .. } => {
            let cancelled = service.cancel(ticket);
            wire::render_ok(id, &format!("\"cancelled\": {cancelled}"))
        }
        Request::Stats { .. } => {
            let doc = service.stats().to_json();
            wire::render_ok(id, &format!("\"stats\": \"{}\"", json::escape(&doc)))
        }
        Request::Shutdown { .. } => {
            stop.store(true, Ordering::SeqCst);
            wire::render_ok(id, "\"stopping\": true")
        }
    }
}

/// Renders a finalized ticket as wait-result fields: the kind, the
/// failure count, the human summaries, and the full report document
/// (plus the metrics document for metric-collecting sweeps) as escaped
/// strings — the client writes them back out byte for byte.
fn render_report(report: &ServiceReport) -> String {
    let (kind, failures, summary, stats, doc, metrics) = match report {
        ServiceReport::Sweep(o) => (
            "sweep",
            o.report.failures.len(),
            o.report.summary(),
            &o.stats,
            o.report.to_json(),
            o.report.metrics.as_ref().map(|m| m.to_json()),
        ),
        ServiceReport::Chaos(o) => (
            "chaos",
            o.report.failures.len(),
            o.report.summary(),
            &o.stats,
            o.report.to_json(),
            None,
        ),
    };
    let metrics = metrics.map_or_else(|| "null".into(), |m| format!("\"{}\"", json::escape(&m)));
    format!(
        "\"kind\": \"{kind}\", \"failures\": {failures}, \"summary\": \"{}\", \
         \"pool_summary\": \"{}\", \"metrics\": {metrics}, \"report\": \"{}\"",
        json::escape(&summary),
        json::escape(&stats.summary()),
        json::escape(&doc),
    )
}
