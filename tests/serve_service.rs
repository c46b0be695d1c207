//! Serving acceptance tests: N concurrent clients against one
//! [`FleetService`] must each get a report byte-identical to a
//! one-shot in-process sweep, the shared cache must dedup *across*
//! clients, and the socket server must round-trip the same bytes over
//! the `bb-serve-v1` wire protocol — sweep and chaos tickets alike —
//! without Nagle stalls, refuse oversized grids, hostile lines and
//! connections past its cap without going down, forget the tickets of
//! a connection that ends, and shut down cleanly.

use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

use booting_booster::fleet::{
    parse_json, run_chaos, run_sweep, FleetCache, FleetService, Json, PoolConfig, ServiceConfig,
    ServiceReport, TicketStatus,
};
use booting_booster::serve::{BindAddr, Client, JobKind, Server, SweepArgs};

/// The small grid every test submits: 1 cell × 3 seeds × 2 configs.
fn small_job() -> SweepArgs {
    let mut job = SweepArgs::new(JobKind::Sweep);
    job.services = Some(24);
    job.seeds = 3;
    job
}

/// What `bbsim sweep` would print for the same grid, computed
/// in-process with a fresh cache.
fn reference_report(job: &SweepArgs) -> String {
    let spec = job.sweep_spec().expect("reference spec");
    run_sweep(&spec, &PoolConfig::with_workers(2), &FleetCache::fresh())
        .report
        .to_json()
}

/// Binds a TCP server on an ephemeral port and runs it on a thread.
fn spawn_server(workers: usize) -> (BindAddr, thread::JoinHandle<()>) {
    let server = Server::bind(
        &BindAddr::Tcp("127.0.0.1:0".into()),
        ServiceConfig::with_workers(workers),
    )
    .expect("bind");
    let addr = BindAddr::Tcp(server.tcp_addr().expect("tcp addr").to_string());
    (
        addr,
        thread::spawn(move || server.run().expect("serve loop")),
    )
}

#[test]
fn concurrent_clients_get_byte_identical_reports() {
    let reference = reference_report(&small_job());
    let service = Arc::new(FleetService::start(ServiceConfig::with_workers(3)));

    let run_ticket = |service: &FleetService, client| {
        let item = small_job().to_work_item().expect("work item");
        let ticket = service.submit(client, item).expect("submit");
        match service.wait(ticket).expect("wait") {
            ServiceReport::Sweep(outcome) => outcome.report.to_json(),
            other => panic!("expected a sweep report, got {other:?}"),
        }
    };

    // Client 1 warms the shared cache so the later, fully concurrent
    // clients hit it deterministically.
    assert_eq!(run_ticket(&service, 1), reference);

    let mut handles = Vec::new();
    for client in 2..=4 {
        let service = Arc::clone(&service);
        handles.push(thread::spawn(move || run_ticket(&service, client)));
    }
    for handle in handles {
        let report = handle.join().expect("client thread");
        assert_eq!(
            report, reference,
            "every client's report must match the one-shot sweep byte for byte"
        );
    }

    // All four clients booted the same grid through one shared cache:
    // the first ticket ran its 6 boots for real, the other three were
    // served entirely from the dedup cache — a *cross-client* effect
    // the one-shot pool could never produce.
    let stats = service.stats();
    assert_eq!(stats.clients, 4);
    assert_eq!(stats.tickets_completed, 4);
    assert_eq!(
        stats.totals.cells_deduped, 18,
        "3 of 4 identical tickets (6 boots each) must hit the shared dedup cache"
    );
}

#[test]
fn tickets_poll_through_to_done() {
    let service = FleetService::start(ServiceConfig::with_workers(2));
    let ticket = service
        .submit(1, small_job().to_work_item().expect("work item"))
        .expect("submit");
    // The ticket reaches Done before anyone collects the report...
    loop {
        match service.poll(ticket) {
            Some(TicketStatus::Done) => break,
            Some(_) => thread::sleep(std::time::Duration::from_millis(5)),
            None => panic!("ticket vanished before the report was collected"),
        }
    }
    // ...and collecting it is a one-shot operation.
    let report = service.wait(ticket).expect("wait");
    assert!(matches!(report, ServiceReport::Sweep(_)));
    assert!(
        service.poll(ticket).is_none(),
        "report collected exactly once"
    );
    service.shutdown();
}

#[test]
fn socket_server_round_trips_the_same_bytes() {
    let reference = reference_report(&small_job());
    let (addr, server_thread) = spawn_server(2);

    // One client warms the shared cache, then two fully concurrent
    // clients replay the same grid over the wire.
    {
        let mut warm = Client::connect(&addr).expect("connect warm");
        let result = warm.run(&small_job()).expect("warm job");
        assert_eq!(result.report, reference);
    }
    let mut handles = Vec::new();
    for _ in 0..2 {
        let addr = addr.clone();
        handles.push(thread::spawn(move || {
            let mut client = Client::connect(&addr).expect("connect");
            client.run(&small_job()).expect("run job")
        }));
    }
    for handle in handles {
        let result = handle.join().expect("wire client");
        assert_eq!(result.kind, JobKind::Sweep);
        assert_eq!(result.failures, 0);
        assert_eq!(
            result.report, reference,
            "the report document that crossed the wire must match the in-process sweep"
        );
        assert!(result.summary.contains("UE48H6200-s24"));
        assert!(result.metrics.is_none(), "metrics were not requested");
    }

    // The stats document is live and schema-stamped.
    let mut client = Client::connect(&addr).expect("connect for stats");
    let stats = client.stats().expect("stats");
    assert!(stats.starts_with("{\n  \"schema\": \"bb-serve-stats-v1\""));
    assert!(
        stats.contains("\"cells_deduped\": 12"),
        "both replay tickets (6 boots each) dedup against the warm cache: {stats}"
    );

    // A clean shutdown drains the accept loop and joins the workers.
    client.shutdown().expect("shutdown");
    server_thread.join().expect("server thread");
}

#[test]
fn wire_errors_are_reported_not_fatal() {
    let (addr, server_thread) = spawn_server(1);

    let mut client = Client::connect(&addr).expect("connect");
    // A grid below the 24-service floor is rejected at submit, but the
    // connection (and the server) stays up for the next request.
    let mut bad = small_job();
    bad.services = Some(3);
    let err = client.submit(&bad).expect_err("tiny grid must be rejected");
    assert!(
        err.to_string().contains("24"),
        "error names the floor: {err}"
    );

    let good = small_job();
    let result = client.run(&good).expect("recovered after the error");
    assert_eq!(result.failures, 0);

    client.shutdown().expect("shutdown");
    server_thread.join().expect("server thread");
}

#[test]
fn chaos_tickets_round_trip_the_same_bytes() {
    // The chaos_s24 golden grid: every chaos event kind.
    let mut job = SweepArgs::new(JobKind::Chaos);
    job.services = Some(24);
    job.seeds = 2;
    job.plans = 4;
    job.corruption = 2;
    let spec = job.sweep_spec().expect("chaos grid");
    let reference = run_chaos(&spec, &PoolConfig::with_workers(2), &FleetCache::fresh())
        .report
        .to_json();

    let (addr, server_thread) = spawn_server(2);
    let mut client = Client::connect(&addr).expect("connect");
    let result = client.run(&job).expect("chaos job");
    assert_eq!(result.kind, JobKind::Chaos);
    assert_eq!(result.failures, 0);
    assert_eq!(
        result.report, reference,
        "the chaos document that crossed the wire must match run_chaos"
    );
    client.shutdown().expect("shutdown");
    server_thread.join().expect("server thread");
}

/// A bare connection whose reads give up after 10 s, so a response the
/// server never sends fails the test instead of hanging it.
fn connect_raw(tcp: &str) -> BufReader<TcpStream> {
    let raw = TcpStream::connect(tcp).expect("connect raw");
    raw.set_read_timeout(Some(Duration::from_secs(10)))
        .expect("read timeout");
    BufReader::new(raw)
}

/// Sends `line` on `raw` and reads one response line back as JSON.
fn exchange(raw: &mut BufReader<TcpStream>, line: &[u8]) -> Json {
    raw.get_mut().write_all(line).expect("send line");
    read_response(raw)
}

fn read_response(raw: &mut BufReader<TcpStream>) -> Json {
    let mut response = String::new();
    raw.read_line(&mut response).expect("read response");
    parse_json(&response).expect("response is JSON")
}

/// The median of `n` timed runs of `f`, in milliseconds.
fn median_ms(n: usize, mut f: impl FnMut()) -> f64 {
    let mut ms: Vec<f64> = (0..n)
        .map(|_| {
            let start = Instant::now();
            f();
            start.elapsed().as_secs_f64() * 1e3
        })
        .collect();
    ms.sort_by(f64::total_cmp);
    ms[n / 2]
}

/// Longest request line the server reads, its newline not counted.
const MAX_LINE: usize = 64 * 1024;

#[test]
fn oversized_grids_are_refused_and_the_server_survives() {
    let (addr, server_thread) = spawn_server(1);
    let BindAddr::Tcp(tcp) = &addr else {
        unreachable!("spawn_server binds TCP")
    };
    let deep = format!("{}\n", "[".repeat(20_000));
    let over_cap = format!("{}\n", "x".repeat(MAX_LINE + 1));
    let huge = format!("{}\n", "x".repeat(4 << 20));
    let not_utf8 = b"{\"id\": 4, \"method\": \"stats\", \"x\": \"\xff\"}\n";
    // Each hostile line, the id its error echoes, and what the error
    // starts with and names.
    let rows: [(&[u8], f64, &str, &str); 8] = [
        // 10^15 seeds would need petabytes of seed list: the server
        // must weigh the grid against its queue before building it.
        (
            b"{\"id\": 2, \"method\": \"submit\", \"job\": \
             {\"kind\": \"sweep\", \"services\": 24, \"seeds\": 1000000000000000}}\n",
            2.0,
            "queue saturated",
            "1000000000000000",
        ),
        // 10^11 services would size a worker's scenario tables, and a
        // failed allocation aborts past any unwind guard.
        (
            b"{\"id\": 3, \"method\": \"submit\", \"job\": \
             {\"kind\": \"sweep\", \"services\": 100000000000, \"seeds\": 1}}\n",
            3.0,
            "--services 100000000000 is out of range",
            "24 (its backbone) to 20000",
        ),
        // A burst this large would ask a worker for ~4.3 billion
        // watcher processes per service, and a backoff this long would
        // overflow the simulated nanosecond clock: both are refused
        // while the request is decoded.
        (
            b"{\"id\": 5, \"method\": \"submit\", \"job\": \
             {\"kind\": \"chaos\", \"services\": 24, \"burst\": 4294967295}}\n",
            0.0,
            "--burst 4294967295 is out of range",
            "at most 100",
        ),
        (
            b"{\"id\": 6, \"method\": \"submit\", \"job\": \
             {\"kind\": \"chaos\", \"services\": 24, \"restart_sec_ms\": 20000000000000}}\n",
            0.0,
            "--restart-sec-ms 20000000000000 is out of range",
            "one hour of simulated time",
        ),
        // Nesting this deep must be an error, not a stack overflow on
        // the connection thread that aborts the whole server.
        (
            deep.as_bytes(),
            0.0,
            "bad request JSON",
            "nesting deeper than 128 levels",
        ),
        // Lines past the cap are answered, then skipped unbuffered.
        (
            over_cap.as_bytes(),
            0.0,
            "request line longer than",
            "65536 bytes",
        ),
        (
            huge.as_bytes(),
            0.0,
            "request line longer than",
            "65536 bytes",
        ),
        // Bytes that are not text get an answer, not a silent close.
        (not_utf8, 0.0, "request line is not valid UTF-8", "byte 35"),
    ];
    let reference = reference_report(&small_job());
    for (line, id, prefix, detail) in rows {
        let mut raw = connect_raw(tcp);
        let response = exchange(&mut raw, line);
        assert_eq!(response.get("id").and_then(Json::as_f64), Some(id));
        assert_eq!(response.get("ok"), Some(&Json::Bool(false)));
        let error = response.get("error").and_then(Json::as_str).unwrap_or("");
        assert!(
            error.starts_with(prefix) && error.contains(detail),
            "refused with {prefix:?} naming {detail:?}: {error}"
        );
        // The connection still serves its next request...
        let stats = exchange(&mut raw, b"{\"id\": 9, \"method\": \"stats\"}\n");
        assert_eq!(stats.get("id").and_then(Json::as_f64), Some(9.0));
        assert_eq!(stats.get("ok"), Some(&Json::Bool(true)), "after {prefix:?}");
        drop(raw);

        // ...and the same server still completes a normal ticket.
        let mut client = Client::connect(&addr).expect("connect");
        let result = client.run(&small_job()).expect("normal job after refusal");
        assert_eq!(result.failures, 0);
        assert_eq!(result.report, reference);
    }
    // A line exactly at the cap is served.
    let request = "{\"id\": 7, \"method\": \"stats\"}";
    let at_cap = format!("{request}{}\n", " ".repeat(MAX_LINE - request.len()));
    let mut raw = connect_raw(tcp);
    let response = exchange(&mut raw, at_cap.as_bytes());
    assert_eq!(response.get("id").and_then(Json::as_f64), Some(7.0));
    assert_eq!(response.get("ok"), Some(&Json::Bool(true)));
    drop(raw);

    Client::connect(&addr)
        .expect("connect")
        .shutdown()
        .expect("shutdown");
    server_thread.join().expect("server thread");
}

#[test]
fn connections_past_the_cap_are_refused_until_one_closes() {
    let (addr, server_thread) = spawn_server(1);
    let BindAddr::Tcp(tcp) = &addr else {
        unreachable!("spawn_server binds TCP")
    };
    // A round trip on each shows the server took it.
    let mut held: Vec<Client> = (0..128)
        .map(|_| {
            let mut client = Client::connect(&addr).expect("connect");
            client.stats().expect("stats within the cap");
            client
        })
        .collect();

    // The next connection gets one error line, then end of stream.
    let mut raw = connect_raw(tcp);
    let refusal = read_response(&mut raw);
    assert_eq!(refusal.get("id").and_then(Json::as_f64), Some(0.0));
    let error = refusal.get("error").and_then(Json::as_str).unwrap_or("");
    assert!(
        error.starts_with("too many connections") && error.contains("128"),
        "refused naming the cap: {error}"
    );
    let mut rest = String::new();
    assert_eq!(raw.read_line(&mut rest).expect("read to end"), 0, "{rest}");

    // Closing one frees its slot once its thread has seen the close.
    drop(held.pop());
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        let mut client = Client::connect(&addr).expect("connect");
        match client.stats() {
            Ok(_) => break,
            Err(e) if Instant::now() < deadline => {
                assert!(e.to_string().contains("too many connections"), "{e}");
                thread::sleep(Duration::from_millis(10));
            }
            Err(e) => panic!("no slot freed: {e}"),
        }
    }

    held[0].shutdown().expect("shutdown");
    server_thread.join().expect("server thread");
}

#[test]
fn tcp_round_trips_do_not_wait_on_acks() {
    let (addr, server_thread) = spawn_server(2);
    let mut client = Client::connect(&addr).expect("connect");
    let stats = median_ms(50, || {
        client.stats().expect("stats");
    });
    assert!(stats < 5.0, "median stats round trip {stats:.3} ms");

    // Warm the cache, then time dedup-hit tickets: two round trips each.
    client.run(&small_job()).expect("warm job");
    let runs = median_ms(20, || {
        client.run(&small_job()).expect("job");
    });
    assert!(runs < 10.0, "median small_job run {runs:.3} ms");

    client.shutdown().expect("shutdown");
    server_thread.join().expect("server thread");
}

#[test]
fn a_closed_connection_takes_its_tickets_with_it() {
    let (addr, server_thread) = spawn_server(1);
    let ticket = {
        let mut a = Client::connect(&addr).expect("connect a");
        a.submit(&small_job()).expect("submit")
    };
    // Connection a is closed; its ticket goes once the server sees it.
    let mut b = Client::connect(&addr).expect("connect b");
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        match b.poll(ticket) {
            Err(e) if e.to_string().contains("unknown ticket") => break,
            Ok(_) if Instant::now() < deadline => thread::sleep(Duration::from_millis(10)),
            other => panic!("ticket {ticket} outlived its connection: {other:?}"),
        }
    }
    let stats = parse_json(&b.stats().expect("stats")).expect("stats JSON");
    assert_eq!(
        stats
            .get("queue")
            .and_then(|q| q.get("depth"))
            .and_then(Json::as_f64),
        Some(0.0)
    );
    b.shutdown().expect("shutdown");
    server_thread.join().expect("server thread");
}
