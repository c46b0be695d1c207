//! The `bbsim submit` path: a `bbsim serve --socket` process, the
//! working process, receives every ticket from one `bb_serve::Client`
//! connection.

use std::path::PathBuf;
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

use bb_core::pipeline::Pipeline;
use bb_fleet::json::{self, Json};
use bb_fleet::{ClientId, FleetService, ServiceConfig, ServiceReport};
use bb_serve::{parse_request, render_ok, BindAddr, Client, Request};

use crate::measure::{self, fnv1a, HostCpu, HostProbe};
use crate::sweep::{self, busy_s, median_ms, Replay};
use crate::tickets::{self, Class, Ticket};
use crate::trace::Tracer;
use crate::{Counters, Ctx, Layers, RunOutput, Timed};

/// Set-up repetitions per run, each on a fresh server; `setup_s` is
/// their median.
const SETUP_REPEATS: usize = 5;
/// How long a server may take to exit after `shutdown`.
const EXIT_TIMEOUT: Duration = Duration::from_secs(10);
/// How long a server may take to bind its socket.
const BIND_TIMEOUT: Duration = Duration::from_secs(30);
/// The in-process replay's one client.
const CLIENT: ClientId = 1;

/// A running `bbsim serve`; killed and reaped if dropped while running.
struct Server {
    child: Child,
    socket: PathBuf,
}

impl Server {
    fn spawn(ctx: &Ctx, socket: PathBuf) -> Result<Server, String> {
        let child = Command::new(&ctx.bbsim)
            .arg("serve")
            .arg("--socket")
            .arg(&socket)
            .arg("--workers")
            .arg(ctx.workers.to_string())
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .spawn()
            .map_err(|e| format!("spawn {}: {e}", ctx.bbsim.display()))?;
        Ok(Server { child, socket })
    }

    fn pid(&self) -> u32 {
        self.child.id()
    }

    /// Connects, retrying every millisecond until the socket is bound.
    fn connect(&mut self) -> Result<Client, String> {
        let addr = BindAddr::Unix(self.socket.clone());
        let start = Instant::now();
        loop {
            match Client::connect(&addr) {
                Ok(client) => return Ok(client),
                Err(e) => {
                    if let Ok(Some(status)) = self.child.try_wait() {
                        return Err(format!("bbsim serve exited during start-up ({status})"));
                    }
                    if start.elapsed() > BIND_TIMEOUT {
                        return Err(format!("no server on {addr}: {e}"));
                    }
                    std::thread::sleep(Duration::from_millis(1));
                }
            }
        }
    }

    /// Sends `shutdown` and checks that the server exits with status 0
    /// and removes its socket.
    fn stop(mut self, mut client: Client) -> Result<(), String> {
        client.shutdown().map_err(|e| format!("shutdown: {e}"))?;
        drop(client);
        let start = Instant::now();
        let status = loop {
            match self.child.try_wait() {
                Ok(Some(status)) => break status,
                Ok(None) if start.elapsed() < EXIT_TIMEOUT => {
                    std::thread::sleep(Duration::from_millis(1))
                }
                Ok(None) => return Err("bbsim serve did not exit after shutdown".into()),
                Err(e) => return Err(format!("wait for bbsim serve: {e}")),
            }
        };
        if !status.success() {
            return Err(format!("bbsim serve exited with {status}"));
        }
        if self.socket.exists() {
            return Err("bbsim serve left its socket behind".into());
        }
        Ok(())
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
        }
        let _ = self.child.wait();
        let _ = std::fs::remove_file(&self.socket);
    }
}

/// One set-up: spawn, connect, one round trip, warm the catalog.
/// Returns the live server, its client, the set-up seconds, and the
/// first round trip in milliseconds.
fn set_up(ctx: &Ctx, k: usize) -> Result<(Server, Client, f64, f64), String> {
    let socket = ctx
        .run_dir
        .join(format!("serve-{}-{k}.sock", std::process::id()));
    let start = Instant::now();
    let mut server = Server::spawn(ctx, socket)?;
    let mut client = server.connect()?;
    let first = Instant::now();
    client
        .stats()
        .map_err(|e| format!("first round trip: {e}"))?;
    let accept_ms = first.elapsed().as_secs_f64() * 1e3;
    for t in tickets::catalog() {
        let r = client
            .run(&t.args)
            .map_err(|e| format!("catalog grid: {e}"))?;
        if r.failures > 0 {
            return Err("a catalog grid reported failures".into());
        }
    }
    Ok((server, client, start.elapsed().as_secs_f64(), accept_ms))
}

/// The service counters of a `bb-serve-stats-v1` document.
fn read_counters(client: &mut Client) -> Result<Counters, String> {
    let doc = client.stats().map_err(|e| format!("stats: {e}"))?;
    let v = json::parse(&doc).map_err(|e| format!("stats document: {e}"))?;
    if v.get("schema").and_then(Json::as_str) != Some(json::SCHEMA_SERVE_STATS) {
        return Err("stats document has the wrong schema".into());
    }
    let n = |key: &str| {
        v.get(key)
            .and_then(Json::as_f64)
            .map(|x| x as u64)
            .ok_or_else(|| format!("stats document has no {key:?}"))
    };
    Ok(Counters {
        kernel_sims: n("kernel_sims")?,
        plans_compiled: n("plans_compiled")?,
        plan_cache_hits: n("plan_cache_hits")?,
        cells_deduped: n("cells_deduped")?,
        restarts: n("restarts")?,
        recoveries: n("recoveries")?,
        artifacts_rejected: n("artifacts_rejected")?,
    })
}

/// Runs `serve-mixed`.
pub fn run(ctx: &Ctx, probe: &HostProbe) -> Result<RunOutput, String> {
    let (mut setup_s, mut accept_ms) = (Vec::new(), Vec::new());
    let mut live = None;
    for k in 0..SETUP_REPEATS {
        let (server, client, secs, first_ms) = set_up(ctx, k)?;
        setup_s.push(secs);
        accept_ms.push(first_ms);
        if k + 1 < SETUP_REPEATS {
            server.stop(client)?;
        } else {
            live = Some((server, client));
        }
    }
    let (server, mut client) = live.expect("at least one set-up");
    let list = tickets::tickets(
        ctx.workload,
        ctx.seed,
        ctx.workload.ticket_count(ctx.seconds),
    );

    let pid = server.pid();
    let before = read_counters(&mut client)?;
    let rss0 = measure::status_kib(pid, "VmRSS")?;
    let mut timed = Timed::default();
    let mut socket_ms = vec![f64::NAN; list.len()];
    let host0 = HostCpu::read()?;
    let cpu0 = measure::cpu_seconds(pid)?;
    let t0 = Instant::now();
    for (i, t) in list.iter().enumerate() {
        timed.probe(probe, i, list.len());
        let start = Instant::now();
        let result = client.submit(&t.args).and_then(|id| client.wait(id));
        let ms = start.elapsed().as_secs_f64() * 1e3;
        match result {
            Ok(r) if r.failures == 0 => {
                timed.latencies_ms.push(ms);
                timed.hashes.push(fnv1a(r.report.as_bytes()));
                timed.boots += t.boots();
                socket_ms[i] = ms;
            }
            _ => {
                timed.failed += 1;
                timed.hashes.push(0);
            }
        }
    }
    timed.wall_s = t0.elapsed().as_secs_f64() - timed.probe_s();
    timed.cpu_s = measure::cpu_seconds(pid)? - cpu0;
    timed.steal_pct = HostCpu::read()?.steal_pct_since(&host0);
    let rss1 = measure::status_kib(pid, "VmRSS")?;
    timed.peak_rss_kib = measure::status_kib(pid, "VmHWM")?;
    timed.counters = read_counters(&mut client)?.since(&before);

    let mut out = RunOutput {
        timed,
        setup_s,
        layers: Layers::new(),
        problems: Vec::new(),
    };
    if let Err(e) = server.stop(client) {
        out.problems.push(e);
    }
    if ctx.trace {
        // Each fresh seed inserts one scenario into the server's memo.
        let fresh_seeds: u64 = list
            .iter()
            .filter(|t| t.class == Class::Fresh)
            .map(|t| t.args.seeds)
            .sum();
        let layers = &mut out.layers;
        layers.insert(
            "fleet.cache_kb_per_scenario",
            (rss1 as f64 - rss0 as f64) / fresh_seeds.max(1) as f64,
        );
        layers.insert("serve.accept_ms", measure::median(&accept_ms));
        traced_replay(ctx, &list, &socket_ms, &mut out)?;
    }
    Ok(out)
}

/// What one in-process ticket returned.
struct Served {
    report: String,
    response_len: usize,
    busy_s: f64,
}

/// One ticket through the calls `bbsim serve` and the client make for
/// it, in process: request decode, grid build, submit, wait, report
/// rendering, response encode, and the client's decode.
fn serve_ticket(
    id: u64,
    t: &Ticket,
    service: &FleetService,
    tr: &mut Tracer,
) -> Result<Served, String> {
    let line = format!(
        "{{\"id\": {id}, \"method\": \"submit\", \"job\": {}}}",
        t.args.to_wire_json()
    );
    let Request::Submit { job, .. } = tr.span("serve.wire", |_| parse_request(&line))? else {
        return Err("the request did not decode as a submit".into());
    };
    let item = tr.span("fleet.to_work_item", |_| job.to_work_item())?;
    let ticket = tr
        .span("fleet.submit", |_| service.submit(CLIENT, item))
        .map_err(|e| e.to_string())?;
    let report = tr
        .span("fleet.wait", |_| service.wait(ticket))
        .map_err(|e| e.to_string())?;
    let (kind, failures, summary, pool_summary, doc, busy) =
        tr.span("fleet.report", |_| match &report {
            ServiceReport::Sweep(o) => (
                "sweep",
                o.report.failures.len(),
                o.report.summary(),
                o.stats.summary(),
                o.report.to_json(),
                busy_s(&o.stats),
            ),
            ServiceReport::Chaos(o) => (
                "chaos",
                o.report.failures.len(),
                o.report.summary(),
                o.stats.summary(),
                o.report.to_json(),
                busy_s(&o.stats),
            ),
        });
    if failures > 0 {
        return Err("the report lists failures".into());
    }
    let response = tr.span("serve.wire", |_| {
        render_ok(
            id,
            &format!(
                "\"kind\": \"{kind}\", \"failures\": {failures}, \"summary\": \"{}\", \
                 \"pool_summary\": \"{}\", \"metrics\": null, \"report\": \"{}\"",
                json::escape(&summary),
                json::escape(&pool_summary),
                json::escape(&doc),
            ),
        )
    });
    let decoded = tr
        .span("serve.wire", |_| {
            let v = json::parse(&response).ok()?;
            v.get("result")?.get("report")?.as_str().map(str::to_owned)
        })
        .ok_or("the response carries no report")?;
    Ok(Served {
        report: decoded,
        response_len: response.len() + 1,
        busy_s: busy,
    })
}

/// The traced run: the ticket list on an in-process `FleetService`
/// with the same workers and warm-up, then the fresh tickets once more
/// layer by layer. Both must reproduce the socket run's report hashes.
fn traced_replay(
    ctx: &Ctx,
    list: &[Ticket],
    socket_ms: &[f64],
    out: &mut RunOutput,
) -> Result<(), String> {
    let me = std::process::id();
    let service = FleetService::start(ServiceConfig::with_workers(ctx.workers));
    let mut busy0 = 0.0;
    for t in tickets::catalog() {
        let ticket = service
            .submit(CLIENT, t.args.to_work_item()?)
            .map_err(|e| e.to_string())?;
        if let Ok(ServiceReport::Sweep(o)) = service.wait(ticket) {
            busy0 = busy_s(&o.stats);
        }
    }

    let mut tr = Tracer::new();
    let (mut response_bytes, mut report_bytes, mut boots) = (0, 0, 0);
    let (mut busy1, mut mismatched) = (busy0, 0);
    let cpu0 = measure::cpu_seconds(me)?;
    let t0 = Instant::now();
    for (i, t) in list.iter().enumerate() {
        tr.ticket(i);
        match tr.span("ticket", |tr| serve_ticket(i as u64 + 1, t, &service, tr)) {
            Ok(served) if fnv1a(served.report.as_bytes()) == out.timed.hashes[i] => {
                response_bytes += served.response_len;
                report_bytes += served.report.len();
                busy1 = served.busy_s;
                boots += t.boots();
            }
            _ => mismatched += 1,
        }
    }
    let wall_s = t0.elapsed().as_secs_f64();
    let cpu_s = measure::cpu_seconds(me)? - cpu0;
    let plan_entries = service.cache().plans().stats().entries;
    service.shutdown();

    // Replay latency of each ticket, for the socket's share of a hit.
    let mut replay_ms = vec![f64::NAN; list.len()];
    let mut chaos_ns = 0;
    for s in tr.spans().iter().filter(|s| s.name == "ticket") {
        replay_ms[s.ticket] = s.ns() as f64 / 1e6;
        if list[s.ticket].class == Class::Chaos {
            chaos_ns += s.ns();
        }
    }
    let socket_share: Vec<f64> = (0..list.len())
        .filter(|&i| list[i].class == Class::Hit)
        .map(|i| socket_ms[i] - replay_ms[i])
        .filter(|d| d.is_finite())
        .collect();
    let chaos_boots: usize = list
        .iter()
        .filter(|t| t.class == Class::Chaos)
        .map(Ticket::boots)
        .sum();
    let per_ticket = list.len().max(1) as f64;
    let wire_us: Vec<f64> = tr
        .self_ns_by_ticket("serve.wire")
        .values()
        .map(|&ns| ns as f64 / 1e3)
        .collect();
    let submit_us = median_ms(&tr, "fleet.submit") * 1e3;
    let report_ms = median_ms(&tr, "fleet.report");

    let pipeline = Pipeline::standard();
    let mut acc = Replay::default();
    for (i, t) in list
        .iter()
        .enumerate()
        .filter(|(_, t)| t.class == Class::Fresh)
    {
        tr.ticket(i);
        let json = tr.span("replay", |tr| {
            sweep::replay_ticket(&t.args, &pipeline, tr, &mut acc)
        })?;
        if fnv1a(json.as_bytes()) != out.timed.hashes[i] {
            mismatched += 1;
        }
    }
    if mismatched > 0 {
        out.problems.push(format!(
            "{mismatched} replayed report(s) differ from the socket run"
        ));
    }

    let layers = &mut out.layers;
    sweep::insert_replay_layers(layers, &tr, &acc);
    layers.insert("core.plan_cache_entries", plan_entries as f64);
    layers.insert("fleet.submit_us", submit_us);
    layers.insert(
        "fleet.worker_busy_pct",
        100.0 * (busy1 - busy0) / (wall_s * ctx.workers as f64),
    );
    layers.insert("fleet.report_ms", report_ms);
    layers.insert("fleet.report_kb", report_bytes as f64 / 1024.0 / per_ticket);
    layers.insert(
        "chaos.ms_per_boot",
        chaos_ns as f64 / 1e6 / chaos_boots.max(1) as f64,
    );
    layers.insert("serve.wire_us", measure::median(&wire_us));
    layers.insert(
        "serve.response_kb",
        response_bytes as f64 / 1024.0 / per_ticket,
    );
    if !socket_share.is_empty() {
        layers.insert("serve.socket_ms", measure::median(&socket_share));
    }
    let untraced = out.timed.cpu_s / out.timed.boots.max(1) as f64;
    let traced = cpu_s / boots.max(1) as f64;
    layers.insert("trace.overhead_pct", 100.0 * (traced / untraced - 1.0));
    crate::write_trace(ctx, &tr)
}
