//! `perfbench` — the repository's benchmark of its two user paths,
//! `bbsim sweep` and `bbsim submit` against `bbsim serve`.
//!
//! ```text
//! perfbench --workload sweep-tv136|sweep-tv1000|serve-mixed
//!           [--seed N] [--seconds N] [--trace 0|1]
//!           [--bbsim PATH] [--run-dir DIR]
//! ```
//!
//! `perfbench/run.py` builds `bbsim` and this binary, then runs it.
//! A run is a closed loop of one client over a fixed, seeded ticket
//! list. It prints the noise record, the exact counters, the report
//! digest, and every metric with its unit and sample count; the last
//! line is one JSON object with the end-to-end metrics (`--trace 0`)
//! or the per-layer metrics of a traced replay (`--trace 1`).
//! End-to-end times are reported at a reference host speed (see
//! [`measure::HostProbe`]); each `metric` line also prints the value as
//! measured. It exits 1 when a report is wrong, 2 when the run cannot
//! complete.

mod measure;
mod serve;
mod sweep;
mod tickets;
mod trace;

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::ExitCode;

use tickets::Workload;

/// The workload seed whose report digests `digests.txt` commits.
const DEFAULT_SEED: u64 = 1;
/// Default `--seconds`, as in `BENCHMARK.json`.
const DEFAULT_SECONDS: u64 = 15;
/// Host-probe pass time (see [`measure::HostProbe`]) of the reference
/// host that end-to-end times are reported at: the median pass on the
/// 2-vCPU x86-64 VM this benchmark was built on, in its usual state.
const PROBE_REF_MS: f64 = 6.0;
/// Committed digests: `workload seed seconds tickets fnv1a64` lines.
const REFERENCE_DIGESTS: &str = include_str!("../digests.txt");

/// End-to-end metrics, from untraced runs.
const END_TO_END: [(&str, &str); 6] = [
    ("boots_per_s", "boots/s"),
    ("cpu_ms_per_boot", "ms"),
    ("ticket_p50_ms", "ms"),
    ("ticket_p95_ms", "ms"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
];

/// Per-layer metrics, from the traced replay. A layer that is not on a
/// workload's path reports 0 there.
const PER_LAYER: [(&str, &str); 24] = [
    ("workloads.gen_ms", "ms"),
    ("core.preparse_ms", "ms"),
    ("core.plan_ms", "ms"),
    ("core.plan_cache_hit_pct", "%"),
    ("core.plan_cache_entries", "count"),
    ("sim.execute_ms", "ms"),
    ("sim.ns_per_event", "ns"),
    ("sim.events_per_boot", "count"),
    ("sim.kernel_sims", "count"),
    ("fleet.dedup_hit_pct", "%"),
    ("fleet.cache_kb_per_scenario", "KiB"),
    ("fleet.submit_us", "us"),
    ("fleet.worker_busy_pct", "%"),
    ("fleet.report_ms", "ms"),
    ("fleet.report_kb", "KiB"),
    ("chaos.ms_per_boot", "ms"),
    ("chaos.recoveries", "count"),
    ("chaos.artifacts_rejected", "count"),
    ("chaos.restarts", "count"),
    ("serve.wire_us", "us"),
    ("serve.response_kb", "KiB"),
    ("serve.socket_ms", "ms"),
    ("serve.accept_ms", "ms"),
    ("trace.overhead_pct", "%"),
];

/// Per-layer values by metric name.
pub type Layers = BTreeMap<&'static str, f64>;

/// What a run was asked to do.
pub struct Ctx {
    /// The workload.
    pub workload: Workload,
    /// Workload seed; the program only sees the tickets made from it.
    pub seed: u64,
    /// Sizes the ticket list (see [`Workload::ticket_count`]).
    pub seconds: u64,
    /// Replay with spans and report per-layer metrics.
    pub trace: bool,
    /// `available_parallelism` of this host.
    pub nproc: usize,
    /// Fleet workers; always `nproc`.
    pub workers: usize,
    /// The `bbsim` binary serve-mixed launches.
    pub bbsim: PathBuf,
    /// Where sockets and trace files go.
    pub run_dir: PathBuf,
}

/// Counters that repeat exactly across runs of one ticket list.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Counters {
    /// Kernel-phase simulations.
    pub kernel_sims: u64,
    /// Boot plans compiled.
    pub plans_compiled: u64,
    /// Boots that reused a compiled plan.
    pub plan_cache_hits: u64,
    /// Boots served from the dedup cache.
    pub cells_deduped: u64,
    /// Supervised restarts.
    pub restarts: u64,
    /// Artifact recoveries.
    pub recoveries: u64,
    /// Artifacts the integrity chain rejected.
    pub artifacts_rejected: u64,
}

impl Counters {
    fn fields(&self) -> [(&'static str, u64); 7] {
        [
            ("kernel_sims", self.kernel_sims),
            ("plans_compiled", self.plans_compiled),
            ("plan_cache_hits", self.plan_cache_hits),
            ("cells_deduped", self.cells_deduped),
            ("restarts", self.restarts),
            ("recoveries", self.recoveries),
            ("artifacts_rejected", self.artifacts_rejected),
        ]
    }

    /// Adds `other` field by field.
    pub fn add(&mut self, other: &Counters) {
        self.kernel_sims += other.kernel_sims;
        self.plans_compiled += other.plans_compiled;
        self.plan_cache_hits += other.plan_cache_hits;
        self.cells_deduped += other.cells_deduped;
        self.restarts += other.restarts;
        self.recoveries += other.recoveries;
        self.artifacts_rejected += other.artifacts_rejected;
    }

    /// The change since `earlier`.
    pub fn since(&self, earlier: &Counters) -> Counters {
        Counters {
            kernel_sims: self.kernel_sims - earlier.kernel_sims,
            plans_compiled: self.plans_compiled - earlier.plans_compiled,
            plan_cache_hits: self.plan_cache_hits - earlier.plan_cache_hits,
            cells_deduped: self.cells_deduped - earlier.cells_deduped,
            restarts: self.restarts - earlier.restarts,
            recoveries: self.recoveries - earlier.recoveries,
            artifacts_rejected: self.artifacts_rejected - earlier.artifacts_rejected,
        }
    }
}

/// The untraced, timed phase of a run.
#[derive(Debug, Default)]
pub struct Timed {
    /// Submit-to-report time of each successful ticket.
    pub latencies_ms: Vec<f64>,
    /// FNV-1a of each ticket's report bytes, in ticket order (0 for a
    /// failed ticket).
    pub hashes: Vec<u64>,
    /// Tickets that failed, were refused, or reported failures.
    pub failed: usize,
    /// Boots delivered by successful tickets.
    pub boots: usize,
    /// Wall time of the phase.
    pub wall_s: f64,
    /// User + system CPU of the working process during the phase.
    pub cpu_s: f64,
    /// Host steal share during the phase.
    pub steal_pct: f64,
    /// Extra attempts of tickets the host stole CPU from (sweeps only:
    /// a serve ticket changes server state and cannot be repeated).
    pub remeasured: usize,
    /// VmHWM of the working process at the end of the phase.
    pub peak_rss_kib: u64,
    /// Exact counters of the phase.
    pub counters: Counters,
    /// Host-probe passes taken between tickets, milliseconds; their
    /// time is left out of `wall_s` (and, for the sweeps, whose working
    /// process runs them, of `cpu_s`).
    pub probe_ms: Vec<f64>,
}

/// Host-probe passes per timed phase.
const PROBE_PASSES: usize = 50;

impl Timed {
    /// Takes a host-probe pass before ticket `i` of `n`, spreading
    /// [`PROBE_PASSES`] passes over the phase.
    pub fn probe(&mut self, probe: &measure::HostProbe, i: usize, n: usize) {
        if i.is_multiple_of((n / PROBE_PASSES).max(1)) {
            self.probe_ms.push(probe.pass_ms());
        }
    }

    /// Seconds spent in host-probe passes.
    pub fn probe_s(&self) -> f64 {
        self.probe_ms.iter().sum::<f64>() / 1e3
    }
}

/// Everything a workload run measured.
pub struct RunOutput {
    /// The timed phase.
    pub timed: Timed,
    /// Seconds of each set-up repetition.
    pub setup_s: Vec<f64>,
    /// Per-layer metrics (traced runs only).
    pub layers: Layers,
    /// Reasons the run's outputs are not correct.
    pub problems: Vec<String>,
}

/// Writes a traced run's spans under the run directory.
pub fn write_trace(ctx: &Ctx, tr: &trace::Tracer) -> Result<(), String> {
    let path = ctx.run_dir.join(format!(
        "{}-seed{}.trace.json",
        ctx.workload.name(),
        ctx.seed
    ));
    tr.write_chrome(&path)
        .map_err(|e| format!("{}: {e}", path.display()))?;
    println!("spans {} written to {}", tr.spans().len(), path.display());
    Ok(())
}

fn parse_args() -> Result<(Ctx, bool), String> {
    let mut workload = None;
    let (mut seed, mut seconds, mut trace, mut setup_probe) =
        (DEFAULT_SEED, DEFAULT_SECONDS, false, false);
    let mut bbsim = None;
    let mut run_dir = PathBuf::from(".bench_build/perfbench-run");
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("missing value for {flag}"));
        let number = |raw: String| {
            raw.parse::<u64>()
                .map_err(|_| format!("bad number {raw:?}"))
        };
        match flag.as_str() {
            "--workload" => workload = Some(Workload::parse(&value()?)?),
            "--seed" => seed = number(value()?)?,
            "--seconds" => seconds = number(value()?)?,
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
                }
            }
            "--bbsim" => bbsim = Some(PathBuf::from(value()?)),
            "--run-dir" => run_dir = PathBuf::from(value()?),
            "--setup-probe" => setup_probe = true,
            other => return Err(format!("unknown flag {other}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if seconds == 0 {
        return Err("--seconds must be at least 1".into());
    }
    let bbsim = match bbsim {
        Some(path) => path,
        // `cargo build` puts both binaries in one profile directory.
        None => std::env::current_exe()
            .map_err(|e| format!("current_exe: {e}"))?
            .with_file_name("bbsim"),
    };
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let ctx = Ctx {
        workload,
        seed,
        seconds,
        trace,
        nproc,
        workers: nproc,
        bbsim,
        run_dir,
    };
    Ok((ctx, setup_probe))
}

/// The committed digest for this run's workload, seed and seconds.
fn reference_digest(ctx: &Ctx) -> Option<u64> {
    REFERENCE_DIGESTS
        .lines()
        .filter(|l| !l.trim_start().starts_with('#'))
        .map(|l| l.split_whitespace().collect::<Vec<_>>())
        .find(|f| {
            f.len() == 5
                && f[0] == ctx.workload.name()
                && f[1] == ctx.seed.to_string()
                && f[2] == ctx.seconds.to_string()
        })
        .and_then(|f| u64::from_str_radix(f[4], 16).ok())
}

/// The per-layer metrics that the exact counters give directly.
fn insert_counter_layers(t: &Timed, layers: &mut Layers) {
    let c = &t.counters;
    let pct = |part: u64, whole: u64| 100.0 * part as f64 / whole.max(1) as f64;
    layers.insert("sim.kernel_sims", c.kernel_sims as f64);
    layers.insert(
        "core.plan_cache_hit_pct",
        pct(c.plan_cache_hits, c.plan_cache_hits + c.plans_compiled),
    );
    layers.insert("fleet.dedup_hit_pct", pct(c.cells_deduped, t.boots as u64));
    layers.insert("chaos.recoveries", c.recoveries as f64);
    layers.insert("chaos.artifacts_rejected", c.artifacts_rejected as f64);
    layers.insert("chaos.restarts", c.restarts as f64);
}

/// A metric value for the result line: every digit as measured.
fn json_number(name: &str, v: f64) -> Result<String, String> {
    if v.is_finite() {
        Ok(format!("{v}"))
    } else {
        Err(format!("{name} is not a finite number ({v})"))
    }
}

fn main() -> ExitCode {
    match run() {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::from(2)
        }
    }
}

/// Runs one workload and prints its result; `Ok(false)` when a report
/// was wrong.
fn run() -> Result<bool, String> {
    let (ctx, setup_probe) = parse_args()?;
    if setup_probe {
        sweep::probe(&ctx)?;
        return Ok(true);
    }
    std::fs::create_dir_all(&ctx.run_dir).map_err(|e| format!("{}: {e}", ctx.run_dir.display()))?;
    println!(
        "perfbench workload={} seed={} seconds={} trace={}",
        ctx.workload.name(),
        ctx.seed,
        ctx.seconds,
        u8::from(ctx.trace)
    );
    let host = measure::HostProbe::new()?;
    let mut out = match ctx.workload {
        Workload::ServeMixed => serve::run(&ctx, &host)?,
        _ => sweep::run(&ctx, &host)?,
    };
    let t = &out.timed;
    let attempted = t.hashes.len();
    // How much slower than the reference host this run's host was.
    let probe_ms = measure::median(&t.probe_ms);
    let slowdown = probe_ms / PROBE_REF_MS;
    println!(
        "noise nproc={} workers={} steal_pct={:.2} remeasured={} \
         host_probe_ms={probe_ms:.4} (median of {}) slowdown={slowdown:.4}",
        ctx.nproc,
        ctx.workers,
        t.steal_pct,
        t.remeasured,
        t.probe_ms.len()
    );
    let counters: Vec<String> = t
        .counters
        .fields()
        .iter()
        .map(|(k, v)| format!("{k}={v}"))
        .collect();
    println!("counters {}", counters.join(" "));

    let digest = measure::digest(&t.hashes);
    let verdict = match reference_digest(&ctx) {
        None => "none".to_string(),
        Some(r) if r == digest => "match".to_string(),
        Some(r) => format!("MISMATCH(expected={r:016x})"),
    };
    println!(
        "digest {} {} {} {attempted} {digest:016x} reference={verdict}",
        ctx.workload.name(),
        ctx.seed,
        ctx.seconds
    );
    let mut failed = t.failed;
    if verdict.starts_with("MISMATCH") {
        failed = attempted;
        out.problems
            .push("report digest differs from the committed reference".into());
    }

    let mut sorted = t.latencies_ms.clone();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    // As measured, in END_TO_END order.
    let raw = [
        t.boots as f64 / t.wall_s,
        1e3 * t.cpu_s / t.boots as f64,
        measure::percentile(&sorted, 50)?,
        measure::percentile(&sorted, 95)?,
        measure::median(&out.setup_s),
        t.peak_rss_kib as f64 / 1024.0,
    ];
    // At reference host speed: rates grow and times shrink by the
    // slowdown; memory does not scale.
    let end_to_end = [
        raw[0] * slowdown,
        raw[1] / slowdown,
        raw[2] / slowdown,
        raw[3] / slowdown,
        raw[4] / slowdown,
        raw[5],
    ];
    let notes = [
        format!("{} boots in {:.3} s", t.boots, t.wall_s),
        format!("{:.2} CPU s", t.cpu_s),
        format!("n={n} tickets"),
        format!("n={n} tickets"),
        format!("median of {}", out.setup_s.len()),
        "VmHWM".to_string(),
    ];
    for (i, (name, unit)) in END_TO_END.iter().enumerate() {
        println!(
            "metric {name} {:.4} {unit} (as measured {:.4}; {})",
            end_to_end[i], raw[i], notes[i]
        );
    }
    println!(
        "failed {failed} of {attempted} tickets ({:.2}%)",
        100.0 * failed as f64 / attempted.max(1) as f64
    );

    let mut metrics = Vec::new();
    if ctx.trace {
        insert_counter_layers(t, &mut out.layers);
        for (name, unit) in PER_LAYER {
            let value = out.layers.get(name).copied().unwrap_or(0.0);
            println!("layer {name} {value:.4} {unit}");
            metrics.push((name, json_number(name, value)?, unit));
        }
    } else {
        for ((name, unit), value) in END_TO_END.iter().zip(end_to_end) {
            metrics.push((name, json_number(name, value)?, unit));
        }
    }
    for p in &out.problems {
        println!("problem {p}");
    }
    let correct = out.problems.is_empty();
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| {
            format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    );
    Ok(correct)
}
