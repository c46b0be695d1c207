//! The `bbsim sweep` path: `SweepArgs::sweep_spec` builds the grid,
//! `run_sweep` runs it on a fresh `FleetCache`, and `to_json` renders
//! the report — all in this process, which is the working process.

use std::io::{BufRead, BufReader};
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

use bb_core::pipeline::{self, Pipeline};
use bb_core::PreParser;
use bb_fleet::{
    run_sweep, Aggregator, BootSample, FleetCache, JobOutput, PoolConfig, PoolStats,
    ScenarioSource, SweepOutcome,
};
use bb_serve::SweepArgs;
use bb_workloads::{tv_scenario_with, TizenParams};

use crate::measure::{self, fnv1a, HostCpu, HostProbe};
use crate::tickets;
use crate::trace::Tracer;
use crate::{Counters, Ctx, Layers, RunOutput, Timed};

/// Set-up repetitions per run; `setup_s` is their median.
const SETUP_REPEATS: usize = 7;
/// Stolen CPU (USER_HZ ticks summed over CPUs, so 20 ms) from which a
/// ticket is measured again. A sweep ticket is deterministic work on a
/// fresh cache, so repeating it repeats the same work; host steal
/// arrives in bursts that otherwise decide the p95 of two-job tickets.
const STEAL_LIMIT_TICKS: u64 = 2;
/// Attempts per ticket at most.
const MAX_ATTEMPTS: usize = 3;

/// One ticket of the user path, start to rendered report.
fn run_ticket(
    args: &SweepArgs,
    pool: &PoolConfig,
) -> Result<(String, SweepOutcome, usize), String> {
    let spec = args.sweep_spec()?;
    let cache = FleetCache::fresh();
    let outcome = run_sweep(&spec, pool, &cache);
    let json = outcome.report.to_json();
    Ok((json, outcome, cache.plans().stats().entries))
}

/// One timed attempt at a ticket: its result, its latency in
/// milliseconds, and the CPU the hypervisor stole meanwhile.
type Attempt = (Result<(String, SweepOutcome, usize), String>, f64, u64);

fn attempt(args: &SweepArgs, pool: &PoolConfig) -> Result<Attempt, String> {
    let host = HostCpu::read()?;
    let start = Instant::now();
    let result = run_ticket(args, pool);
    let ms = start.elapsed().as_secs_f64() * 1e3;
    Ok((result, ms, HostCpu::read()?.stolen_ticks_since(&host)))
}

/// The set-up a `--setup-probe` child performs: the workload's warm-up
/// ticket. Prints `ready` when done.
pub fn probe(ctx: &Ctx) -> Result<(), String> {
    let pool = PoolConfig::with_workers(ctx.workers);
    for t in tickets::warmup(ctx.workload) {
        let (_, outcome, _) = run_ticket(&t.args, &pool)?;
        if !outcome.report.failures.is_empty() {
            return Err("warm-up ticket reported failures".into());
        }
    }
    println!("ready");
    Ok(())
}

/// Times [`SETUP_REPEATS`] fresh working processes from spawn to the
/// end of their warm-up.
fn measure_setup(ctx: &Ctx) -> Result<Vec<f64>, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    (0..SETUP_REPEATS)
        .map(|_| {
            let start = Instant::now();
            let mut child = Command::new(&exe)
                .args(["--setup-probe", "--workload", ctx.workload.name()])
                .stdin(Stdio::null())
                .stdout(Stdio::piped())
                .spawn()
                .map_err(|e| format!("spawn set-up probe: {e}"))?;
            let mut line = String::new();
            let read =
                BufReader::new(child.stdout.take().expect("piped stdout")).read_line(&mut line);
            let elapsed = start.elapsed().as_secs_f64();
            let status = child
                .wait()
                .map_err(|e| format!("wait set-up probe: {e}"))?;
            match read {
                Ok(_) if status.success() && line.trim() == "ready" => Ok(elapsed),
                _ => Err(format!("set-up probe failed ({status})")),
            }
        })
        .collect()
}

/// Runs a `sweep-*` workload.
pub fn run(ctx: &Ctx, probe: &HostProbe) -> Result<RunOutput, String> {
    let setup_s = measure_setup(ctx)?;
    let pool = PoolConfig::with_workers(ctx.workers);
    for t in tickets::warmup(ctx.workload) {
        run_ticket(&t.args, &pool)?;
    }
    let list = tickets::tickets(
        ctx.workload,
        ctx.seed,
        ctx.workload.ticket_count(ctx.seconds),
    );

    let me = std::process::id();
    let mut timed = Timed::default();
    let (mut busy, mut worker_s, mut plan_entries) = (0.0, 0.0, 0);
    let mut problems = Vec::new();
    let host0 = HostCpu::read()?;
    let cpu0 = measure::cpu_seconds(me)?;
    let t0 = Instant::now();
    for (i, t) in list.iter().enumerate() {
        timed.probe(probe, i, list.len());
        let mut attempts = vec![attempt(&t.args, &pool)?];
        while attempts.len() < MAX_ATTEMPTS && attempts[attempts.len() - 1].2 >= STEAL_LIMIT_TICKS {
            attempts.push(attempt(&t.args, &pool)?);
        }
        timed.remeasured += attempts.len() - 1;
        // Every attempt delivered its boots, and the same ticket must
        // render the same report every time.
        let reports: Vec<&String> = attempts
            .iter()
            .filter_map(|a| a.0.as_ref().ok())
            .map(|r| &r.0)
            .collect();
        if reports.windows(2).any(|w| w[0] != w[1]) {
            problems.push("a re-measured ticket rendered a different report".to_string());
        }
        for a in &attempts {
            if let Ok((_, outcome, _)) = &a.0 {
                if outcome.report.failures.is_empty() {
                    timed.boots += t.boots();
                }
            }
        }
        let (result, ms, _) = attempts
            .into_iter()
            .min_by_key(|a| a.2)
            .expect("at least one attempt");
        match result {
            Ok((json, outcome, entries)) if outcome.report.failures.is_empty() => {
                timed.latencies_ms.push(ms);
                timed.hashes.push(fnv1a(json.as_bytes()));
                let s = &outcome.stats;
                timed.counters.add(&Counters {
                    kernel_sims: s.kernel_sims as u64,
                    plans_compiled: s.plans_compiled,
                    plan_cache_hits: s.plan_cache_hits,
                    cells_deduped: s.cells_deduped as u64,
                    restarts: s.restarts as u64,
                    recoveries: s.recoveries as u64,
                    artifacts_rejected: s.artifacts_rejected as u64,
                });
                busy += busy_s(s);
                worker_s += s.wall.as_secs_f64() * s.workers as f64;
                plan_entries = entries;
            }
            _ => {
                timed.failed += 1;
                timed.hashes.push(0);
            }
        }
    }
    // This process runs the probe passes and holds the probe table.
    timed.wall_s = t0.elapsed().as_secs_f64() - timed.probe_s();
    timed.cpu_s = measure::cpu_seconds(me)? - cpu0 - timed.probe_s();
    timed.steal_pct = HostCpu::read()?.steal_pct_since(&host0);
    timed.peak_rss_kib = measure::status_kib(me, "VmHWM")? - probe.resident_kib;

    let mut out = RunOutput {
        timed,
        setup_s,
        layers: Layers::new(),
        problems,
    };
    if ctx.trace {
        out.layers
            .insert("core.plan_cache_entries", plan_entries as f64);
        out.layers.insert(
            "fleet.worker_busy_pct",
            100.0 * busy / worker_s.max(f64::MIN_POSITIVE),
        );
        traced_replay(ctx, &list, &mut out)?;
    }
    Ok(out)
}

/// Summed busy time of a service's workers.
pub fn busy_s(stats: &PoolStats) -> f64 {
    stats.per_worker.iter().map(|w| w.busy.as_secs_f64()).sum()
}

/// Counts gathered while replaying tickets layer by layer.
#[derive(Debug, Default)]
pub struct Replay {
    /// Boots simulated.
    pub boots: usize,
    /// Simulator events scheduled across those boots.
    pub events: u64,
    /// Report bytes rendered.
    pub report_bytes: usize,
}

/// Replays one sweep ticket through the layer calls a fleet worker
/// makes for each job — scenario generation, pre-parse, plan, execute —
/// then aggregation and rendering, with a span around each call.
/// Returns the report JSON, which must equal the user path's bytes.
pub fn replay_ticket(
    args: &SweepArgs,
    pipeline: &Pipeline,
    tr: &mut Tracer,
    acc: &mut Replay,
) -> Result<String, String> {
    let spec = args.sweep_spec()?;
    let mut agg = Aggregator::new(&spec);
    for job in spec.jobs() {
        let cell = &spec.cells[job.cell];
        let seed = cell.seeds[job.seed_idx];
        let ScenarioSource::Tizen { profile, params } = &cell.source else {
            return Err("sweep grids generate Tizen scenarios".into());
        };
        let scenario = tr.span("workloads.gen", |_| {
            tv_scenario_with(*profile, TizenParams { seed, ..*params })
        });
        let pre = tr.span("core.preparse", |_| PreParser::build(&scenario.units));
        let mut samples = Vec::with_capacity(cell.configs.len());
        for (config, (_, cfg)) in cell.configs.iter().enumerate() {
            let (ir, deltas) = tr
                .span("core.plan", |_| pipeline.plan(&scenario, cfg, Some(&pre)))
                .map_err(|e| e.to_string())?;
            let (report, machine) = tr.span("sim.execute", |_| pipeline::execute(&ir, deltas));
            acc.events += machine.event_queue_stats().scheduled;
            acc.boots += 1;
            let boot = report
                .try_boot_time()
                .ok_or("a replayed boot never completed")?;
            samples.push(BootSample {
                config,
                boot_ns: boot.as_nanos(),
                quiesce_ns: report.quiesce_time.as_nanos(),
            });
        }
        agg.accept(Ok(JobOutput {
            job,
            seed,
            samples,
            spans: Vec::new(),
            kernel_sims: cell.configs.len(),
            peak_events: 0,
            deduped: 0,
            elapsed: Duration::ZERO,
        }));
    }
    let json = tr.span("fleet.report", |_| agg.finalize().to_json());
    acc.report_bytes += json.len();
    Ok(json)
}

/// Median self time of the spans named `name`, in milliseconds.
/// Medians keep a call that another thread preempted from setting a
/// layer's figure.
pub fn median_ms(tr: &Tracer, name: &str) -> f64 {
    let ms: Vec<f64> = tr.self_ns(name).iter().map(|&ns| ns as f64 / 1e6).collect();
    if ms.is_empty() {
        0.0
    } else {
        measure::median(&ms)
    }
}

/// Inserts the per-boot layer figures of a layered replay.
pub fn insert_replay_layers(layers: &mut Layers, tr: &Tracer, acc: &Replay) {
    for (metric, span) in [
        ("workloads.gen_ms", "workloads.gen"),
        ("core.preparse_ms", "core.preparse"),
        ("core.plan_ms", "core.plan"),
        ("sim.execute_ms", "sim.execute"),
    ] {
        layers.insert(metric, median_ms(tr, span));
    }
    let execute_ns: u64 = tr.self_ns("sim.execute").iter().sum();
    layers.insert(
        "sim.ns_per_event",
        execute_ns as f64 / acc.events.max(1) as f64,
    );
    layers.insert(
        "sim.events_per_boot",
        acc.events as f64 / acc.boots.max(1) as f64,
    );
}

/// The traced run: every ticket again, layer by layer, checked against
/// the untraced report hashes.
fn traced_replay(ctx: &Ctx, list: &[tickets::Ticket], out: &mut RunOutput) -> Result<(), String> {
    let me = std::process::id();
    let pipeline = Pipeline::standard();
    let mut tr = Tracer::new();
    let mut acc = Replay::default();
    let cpu0 = measure::cpu_seconds(me)?;
    let mut mismatched = 0;
    for (i, t) in list.iter().enumerate() {
        tr.ticket(i);
        let json = tr.span("ticket", |tr| {
            replay_ticket(&t.args, &pipeline, tr, &mut acc)
        })?;
        if fnv1a(json.as_bytes()) != out.timed.hashes[i] {
            mismatched += 1;
        }
    }
    let cpu_s = measure::cpu_seconds(me)? - cpu0;
    if mismatched > 0 {
        out.problems.push(format!(
            "{mismatched} replayed report(s) differ from the untraced run"
        ));
    }
    let layers = &mut out.layers;
    insert_replay_layers(layers, &tr, &acc);
    layers.insert("fleet.report_ms", median_ms(&tr, "fleet.report"));
    layers.insert(
        "fleet.report_kb",
        acc.report_bytes as f64 / 1024.0 / list.len().max(1) as f64,
    );
    let untraced = out.timed.cpu_s / out.timed.boots.max(1) as f64;
    let traced = cpu_s / acc.boots.max(1) as f64;
    layers.insert("trace.overhead_pct", 100.0 * (traced / untraced - 1.0));
    crate::write_trace(ctx, &tr)
}
