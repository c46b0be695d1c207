//! The serve loop: a listening socket in front of one
//! [`FleetService`].
//!
//! Each accepted connection gets its own thread and its own
//! [`ClientId`] (the connection counter), so the service's per-client
//! quotas and round-robin fairness apply per connection. A ticket lives
//! as long as the connection that submitted it: when the connection
//! ends, the service forgets every ticket it has not collected
//! ([`FleetService::disconnect`]). The protocol
//! is NDJSON request/response over the socket (see [`crate::wire`]);
//! `wait` blocks the connection's thread on the service, never the
//! accept loop, so slow sweeps don't starve other clients. Each
//! response leaves in one write, and TCP streams set `TCP_NODELAY`, so
//! a response is never held back waiting for an ACK.
//!
//! Input is bounded: at most 128 connections are served at once (the
//! next one gets one error line and is closed), and a request line may
//! hold at most 64 KiB. A longer line is answered with an error and
//! skipped through its newline without being buffered, and the
//! connection stays up.
//!
//! The accept loop blocks in `accept`. A `shutdown` request, like
//! [`StopHandle::stop`], sets the stop flag and then connects to the
//! listener, which wakes the loop: it closes, every connection thread
//! finishes its current request and exits, taking its uncollected
//! tickets with it, and the service's worker threads are joined when
//! the last [`FleetService`] handle drops.
//! Stale Unix socket files from a previous crash are removed before
//! binding.

use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::{Ipv4Addr, Ipv6Addr, SocketAddr, TcpListener, TcpStream};
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::{self, JoinHandle};
use std::time::Duration;

use bb_fleet::json;
use bb_fleet::{ClientId, FleetService, ServiceConfig, ServiceReport};

use crate::wire::{self, Request};

/// Longest request line served, its newline not counted. A submit line
/// is ~400 bytes.
const MAX_LINE: usize = 64 * 1024;
/// Most connections served at once.
const MAX_CONNECTIONS: usize = 128;

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

/// One connection, either flavor, on the server or the client side.
/// Reads and writes go through `&Stream`, so one buffered reader and
/// any number of writers can share it.
pub(crate) enum Stream {
    Unix(UnixStream),
    Tcp(TcpStream),
}

impl Stream {
    /// Connects to a listening server.
    pub(crate) fn connect(addr: &BindAddr) -> io::Result<Stream> {
        Ok(match addr {
            BindAddr::Unix(path) => Stream::Unix(UnixStream::connect(path)?),
            BindAddr::Tcp(a) => Stream::tcp(TcpStream::connect(a.as_str())?),
        })
    }

    /// Wraps a TCP stream with Nagle's algorithm off: a response (or
    /// request) that follows an unacknowledged one would otherwise wait
    /// for the peer's delayed ACK, ~40 ms. Best effort: without it a
    /// round trip is only slower.
    fn tcp(s: TcpStream) -> Stream {
        let _ = s.set_nodelay(true);
        Stream::Tcp(s)
    }

    fn set_read_timeout(&self, dur: Option<Duration>) -> io::Result<()> {
        match self {
            Stream::Unix(s) => s.set_read_timeout(dur),
            Stream::Tcp(s) => s.set_read_timeout(dur),
        }
    }
}

impl Read for &Stream {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        match self {
            Stream::Unix(s) => (&*s).read(buf),
            Stream::Tcp(s) => (&*s).read(buf),
        }
    }
}

impl Read for Stream {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        (&*self).read(buf)
    }
}

impl Write for &Stream {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        match self {
            Stream::Unix(s) => (&*s).write(buf),
            Stream::Tcp(s) => (&*s).write(buf),
        }
    }

    fn flush(&mut self) -> io::Result<()> {
        Ok(())
    }
}

/// Stops a running [`Server`] from any thread, as a `shutdown` request
/// does.
#[derive(Debug, Clone)]
pub struct StopHandle {
    flag: Arc<AtomicBool>,
    /// The listener's own address, to wake a blocked `accept`.
    wake: BindAddr,
}

impl StopHandle {
    /// Sets the stop flag, then connects to the listener so the accept
    /// loop wakes and sees it. [`Server::run`] returns once every
    /// connection has finished its current request.
    pub fn stop(&self) {
        self.flag.store(true, Ordering::SeqCst);
        // Should the connect fail, the flag still stops the loop at
        // its next accept.
        let _ = Stream::connect(&self.wake);
    }

    fn stopped(&self) -> bool {
        self.flag.load(Ordering::SeqCst)
    }
}

/// A bound, not-yet-running serve loop.
pub struct Server {
    listener: Listener,
    service: Arc<FleetService>,
    stop: StopHandle,
}

impl Server {
    /// Binds the listening socket and starts the fleet service's
    /// workers. For Unix sockets a leftover file at the path is
    /// removed first (a crashed server must not brick its address).
    pub fn bind(addr: &BindAddr, config: ServiceConfig) -> io::Result<Server> {
        let (listener, wake) = match addr {
            BindAddr::Unix(path) => {
                if path.exists() {
                    std::fs::remove_file(path)?;
                }
                (Listener::Unix(UnixListener::bind(path)?), addr.clone())
            }
            BindAddr::Tcp(a) => {
                let listener = TcpListener::bind(a.as_str())?;
                // A wildcard listener is reached through loopback.
                let mut local = listener.local_addr()?;
                if local.ip().is_unspecified() {
                    local.set_ip(match local {
                        SocketAddr::V4(_) => Ipv4Addr::LOCALHOST.into(),
                        SocketAddr::V6(_) => Ipv6Addr::LOCALHOST.into(),
                    });
                }
                (Listener::Tcp(listener), BindAddr::Tcp(local.to_string()))
            }
        };
        Ok(Server {
            listener,
            service: Arc::new(FleetService::start(config)),
            stop: StopHandle {
                flag: Arc::new(AtomicBool::new(false)),
                wake,
            },
        })
    }

    /// The bound TCP address, if listening on TCP — lets callers bind
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

    /// A handle that stops the serve loop (for embedders; the
    /// `shutdown` request uses the same one).
    pub fn stop_handle(&self) -> StopHandle {
        self.stop.clone()
    }

    /// Runs the accept loop until stopped, then drains: connection
    /// threads are joined, the socket file is unlinked, and the fleet
    /// workers stop with the service.
    pub fn run(self) -> io::Result<()> {
        let mut conns: Vec<JoinHandle<()>> = Vec::new();
        let mut next_client: ClientId = 1;
        loop {
            let accepted = match &self.listener {
                Listener::Unix(l) => l.accept().map(|(s, _)| Stream::Unix(s)),
                Listener::Tcp(l) => l.accept().map(|(s, _)| Stream::tcp(s)),
            };
            if self.stop.stopped() {
                break;
            }
            let stream = accepted?;
            // Reap finished connections, which frees their slots.
            conns.retain(|h| !h.is_finished());
            // A refused stream gets one error line and closes as it drops.
            if conns.len() >= MAX_CONNECTIONS {
                let msg = format!("too many connections: {MAX_CONNECTIONS} are open");
                respond(&stream, wire::render_err(0, &msg));
                continue;
            }
            let client = next_client;
            next_client += 1;
            let stream = Arc::new(stream);
            let conn = Arc::clone(&stream);
            let service = Arc::clone(&self.service);
            let stop = self.stop.clone();
            match thread::Builder::new()
                .name(format!("bb-serve-{client}"))
                .spawn(move || serve_connection(&conn, &service, &stop, client))
            {
                Ok(handle) => conns.push(handle),
                Err(e) => {
                    let msg = format!("cannot serve the connection: {e}");
                    respond(&stream, wire::render_err(0, &msg));
                }
            }
        }
        for conn in conns {
            let _ = conn.join();
        }
        if let BindAddr::Unix(path) = &self.stop.wake {
            let _ = std::fs::remove_file(path);
        }
        Ok(())
    }
}

/// Sends one response line in one write; false if the write failed.
fn respond(mut stream: &Stream, mut response: String) -> bool {
    response.push('\n');
    stream.write_all(response.as_bytes()).is_ok()
}

/// One connection's request loop. Read timeouts keep the thread
/// checking the stop flag even when the client is idle. A line is
/// buffered up to [`MAX_LINE`] bytes, across timed-out reads too; past
/// that it is answered once and the rest of it is read and dropped.
/// When the loop ends, the connection's uncollected tickets go with it.
fn serve_connection(stream: &Stream, service: &FleetService, stop: &StopHandle, client: ClientId) {
    let _ = stream.set_read_timeout(Some(Duration::from_millis(200)));
    let mut reader = BufReader::new(stream);
    let mut line = Vec::new();
    let mut skipping = false;
    loop {
        let buf = match reader.fill_buf() {
            Ok(buf) => buf,
            Err(e)
                if e.kind() == io::ErrorKind::WouldBlock || e.kind() == io::ErrorKind::TimedOut =>
            {
                if stop.stopped() {
                    break;
                }
                continue;
            }
            Err(_) => break,
        };
        if buf.is_empty() {
            // EOF: the client hung up, maybe after a last line with no
            // newline, which is still answered.
            if !skipping && !line.is_empty() {
                process_line(&line, service, stop, client, stream);
            }
            break;
        }
        let newline = buf.iter().position(|&b| b == b'\n');
        let text = newline.unwrap_or(buf.len());
        let taken = newline.map_or(text, |i| i + 1);
        if !skipping && line.len() + text > MAX_LINE {
            skipping = true;
            line.clear();
            let msg = format!("request line longer than {MAX_LINE} bytes");
            if !respond(stream, wire::render_err(0, &msg)) {
                break;
            }
        }
        if !skipping {
            // The newline stays on the line: error positions count it.
            line.extend_from_slice(&buf[..taken]);
        }
        reader.consume(taken);
        if newline.is_none() {
            continue;
        }
        if skipping {
            skipping = false;
            continue;
        }
        let open = process_line(&line, service, stop, client, stream);
        line.clear();
        if !open || stop.stopped() {
            break;
        }
    }
    service.disconnect(client);
}

/// Handles one request line; returns false when the connection should
/// close (write failure).
fn process_line(
    line: &[u8],
    service: &FleetService,
    stop: &StopHandle,
    client: ClientId,
    stream: &Stream,
) -> bool {
    let response = match std::str::from_utf8(line) {
        Err(e) => wire::render_err(
            0,
            &format!("request line is not valid UTF-8 (byte {})", e.valid_up_to()),
        ),
        Ok(line) if line.trim().is_empty() => return true,
        Ok(line) => match wire::parse_request(line) {
            Err(e) => wire::render_err(0, &e),
            Ok(req) => dispatch(req, service, stop, client),
        },
    };
    respond(stream, response)
}

/// Executes one request against the service and renders the response.
fn dispatch(req: Request, service: &FleetService, stop: &StopHandle, client: ClientId) -> String {
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
            stop.stop();
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
