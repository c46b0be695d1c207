//! Chaos sweeps: the `{seed × fault-plan × corruption × config}` grid.
//!
//! A chaos sweep measures the *failure envelope* the paper's deployment
//! story depends on: with faults injected into every boot, how often
//! does supervision (`Restart=`, start limits) recover the fast path,
//! how often does the BB→conventional fallback fire, and what does boot
//! time under fault look like? Each cell extends the plain sweep grid
//! with a **fault-plan axis**: plan slot `None` is the fault-free
//! control, plan slot `Some(seed)` derives a [`FaultPlan`] from that
//! seed and the scenario's own fault targets (see
//! [`bb_core::fault_targets`]), so the same plan seed means the same
//! faults for every config — the ablation comparison stays paired.
//!
//! A second failure axis targets the *artifacts*: corruption slot
//! `None` is the pristine control (no artifact read is staged, so the
//! integrity chain never runs and the boot matches the plain chaos
//! grid), slot `Some(seed)` derives a [`CorruptionPlan`] from that
//! seed, damages the scenario's encoded pre-parse blob with it, and
//! marks the read transiently flaky (both derived from the same seed),
//! driving the boot through [`bb_core::recovery`]. Per-config statistics then carry recovery
//! counts, artifact rejection rates, and recovery-cost percentiles;
//! degraded boots surface their [`bb_core::FallbackReason`].
//!
//! Every chaos boot is one [`BootRequest`] with the cell's fault plan,
//! its [`FallbackPolicy`] supervisor, and the staged artifact read.
//!
//! Determinism matches [`crate::pool::run_sweep`]: results land in
//! slots addressed by `(cell, plan, corruption, seed)`, statistics and
//! notable events are derived in slot order at finalize, and the JSON
//! report (schema `bb-fleet-chaos-v2`) is byte-identical for any worker
//! count.

use std::panic::{catch_unwind, AssertUnwindSafe};

use crate::aggregate::percentile;
use crate::json;
use crate::pool::{panic_message, FailureKind, FleetCache, PoolConfig, PoolStats};
use crate::service::{FleetService, ServiceConfig, ServiceReport, WorkItem};
use crate::spec::ScenarioSource;
use bb_core::booster::Scenario;
use bb_core::{
    fault_targets, with_supervision, ArtifactRead, BbConfig, BootRequest, FallbackPolicy, PreParser,
};
use bb_init::{encode_units, RestartPolicy};
use bb_sim::{CorruptionPlan, FaultPlan, SimDuration};
use bb_workloads::{tv_scenario_with, TizenParams};

/// Supervision overlay a chaos cell arms on every service unit.
#[derive(Debug, Clone, Copy)]
pub struct Supervision {
    /// Restart policy to apply.
    pub restart: RestartPolicy,
    /// `RestartSec=` backoff, milliseconds.
    pub restart_sec_ms: u64,
    /// `StartLimitBurst=` respawn bound.
    pub start_limit_burst: u32,
}

impl Default for Supervision {
    fn default() -> Self {
        Supervision {
            restart: RestartPolicy::OnFailure,
            restart_sec_ms: 100,
            start_limit_burst: 3,
        }
    }
}

/// One cell of the chaos grid.
#[derive(Debug, Clone)]
pub struct ChaosCellSpec {
    /// Cell label; appears in reports and JSON.
    pub label: String,
    /// Scenario source (shared with the plain sweep grid).
    pub source: ScenarioSource,
    /// Scenario seeds; one result slot per `(plan, seed)`.
    pub seeds: Vec<u64>,
    /// Fault-plan axis: `None` is the fault-free control, `Some(seed)`
    /// a seeded plan over the scenario's fault targets.
    pub plan_seeds: Vec<Option<u64>>,
    /// Corruption axis: `None` is the pristine control (no artifact
    /// read staged, so the integrity chain never runs), `Some(seed)`
    /// damages the scenario's encoded pre-parse blob with
    /// [`CorruptionPlan::seeded`] and derives the read's
    /// transient-failure count from the same seed.
    pub corruption_seeds: Vec<Option<u64>>,
    /// Supervision overlay; `None` boots the units as authored.
    pub supervision: Option<Supervision>,
    /// `(label, config)` pairs each instance boots under.
    pub configs: Vec<(String, BbConfig)>,
    /// Boot-supervisor deadline, milliseconds.
    pub deadline_ms: u64,
}

impl ChaosCellSpec {
    /// A chaos cell generating Tizen TV workloads, with the default
    /// supervision overlay, the fault-free control plan, and the
    /// default fallback deadline.
    pub fn tizen(
        label: impl Into<String>,
        profile: bb_workloads::MachineProfile,
        params: TizenParams,
    ) -> Self {
        let seed = params.seed;
        ChaosCellSpec {
            label: label.into(),
            source: ScenarioSource::Tizen { profile, params },
            seeds: vec![seed],
            plan_seeds: vec![None],
            corruption_seeds: vec![None],
            supervision: Some(Supervision::default()),
            configs: Vec::new(),
            deadline_ms: FallbackPolicy::default().deadline.as_millis(),
        }
    }

    /// A chaos cell booting one fixed scenario.
    pub fn fixed(label: impl Into<String>, scenario: Scenario) -> Self {
        ChaosCellSpec {
            label: label.into(),
            source: ScenarioSource::Fixed(std::sync::Arc::new(scenario)),
            seeds: vec![0],
            plan_seeds: vec![None],
            corruption_seeds: vec![None],
            supervision: Some(Supervision::default()),
            configs: Vec::new(),
            deadline_ms: FallbackPolicy::default().deadline.as_millis(),
        }
    }

    /// Replaces the scenario seed list.
    pub fn seeds(mut self, seeds: impl IntoIterator<Item = u64>) -> Self {
        self.seeds = seeds.into_iter().collect();
        self
    }

    /// Sets the fault-plan axis to the control plan plus `n` seeded
    /// plans starting at `base`.
    pub fn fault_plans(mut self, n: u64, base: u64) -> Self {
        self.plan_seeds = std::iter::once(None)
            .chain((0..n).map(|i| Some(base + i)))
            .collect();
        self
    }

    /// Sets the corruption axis to the pristine control plus `n` seeded
    /// corruption plans starting at `base`.
    pub fn corruption_plans(mut self, n: u64, base: u64) -> Self {
        self.corruption_seeds = std::iter::once(None)
            .chain((0..n).map(|i| Some(base + i)))
            .collect();
        self
    }

    /// Replaces the supervision overlay.
    pub fn supervision(mut self, s: Option<Supervision>) -> Self {
        self.supervision = s;
        self
    }

    /// Sets the boot-supervisor deadline.
    pub fn deadline_ms(mut self, ms: u64) -> Self {
        self.deadline_ms = ms;
        self
    }

    /// Adds one config to boot under.
    pub fn config(mut self, label: impl Into<String>, cfg: BbConfig) -> Self {
        self.configs.push((label.into(), cfg));
        self
    }

    /// Adds the standard `"conventional"` and `"bb"` configs.
    pub fn conventional_vs_bb(self) -> Self {
        self.config("conventional", BbConfig::conventional())
            .config("bb", BbConfig::full())
    }

    /// Boots this cell contributes.
    pub fn boots(&self) -> usize {
        self.seeds.len() * self.plan_seeds.len() * self.corruption_seeds.len() * self.configs.len()
    }

    fn plan_label(plan_seed: Option<u64>) -> String {
        match plan_seed {
            None => "none".to_owned(),
            Some(s) => format!("plan-{s}"),
        }
    }

    fn corr_label(corr_seed: Option<u64>) -> String {
        match corr_seed {
            None => "pristine".to_owned(),
            Some(s) => format!("corrupt-{s}"),
        }
    }
}

/// The chaos grid.
#[derive(Debug, Clone, Default)]
pub struct ChaosSpec {
    /// The cells.
    pub cells: Vec<ChaosCellSpec>,
}

impl ChaosSpec {
    /// An empty chaos sweep.
    pub fn new() -> Self {
        ChaosSpec::default()
    }

    /// Adds a cell.
    pub fn cell(mut self, cell: ChaosCellSpec) -> Self {
        self.cells.push(cell);
        self
    }

    /// Total boots across the grid.
    pub fn total_boots(&self) -> usize {
        self.cells.iter().map(ChaosCellSpec::boots).sum()
    }

    /// Expands the grid into jobs in deterministic (cell, plan,
    /// corruption, seed) order.
    pub fn jobs(&self) -> Vec<ChaosJob> {
        let mut jobs = Vec::new();
        for (cell, c) in self.cells.iter().enumerate() {
            for plan_idx in 0..c.plan_seeds.len() {
                for corr_idx in 0..c.corruption_seeds.len() {
                    for seed_idx in 0..c.seeds.len() {
                        jobs.push(ChaosJob {
                            cell,
                            plan_idx,
                            corr_idx,
                            seed_idx,
                        });
                    }
                }
            }
        }
        jobs
    }
}

/// One unit of chaos work: all configs of one `(cell, plan, corruption,
/// seed)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ChaosJob {
    /// Index into [`ChaosSpec::cells`].
    pub cell: usize,
    /// Index into that cell's plan list.
    pub plan_idx: usize,
    /// Index into that cell's corruption list.
    pub corr_idx: usize,
    /// Index into that cell's seed list.
    pub seed_idx: usize,
}

/// One boot measurement under fault.
#[derive(Debug, Clone)]
struct ChaosSample {
    /// User-visible boot time (fallback detection + reboot included for
    /// degraded boots), simulated nanoseconds.
    boot_ns: u64,
    /// Supervised respawns the boot took.
    restarts: u32,
    /// True if the BB→conventional fallback fired.
    degraded: bool,
    /// Why the supervisor fell back, rendered; `None` for clean boots.
    fallback_reason: Option<String>,
    /// Artifact recoveries the boot went through (retried reads
    /// included).
    recoveries: u32,
    /// Artifacts the integrity chain rejected (subset of `recoveries`).
    artifacts_rejected: u32,
    /// Total priced recovery cost (retry backoff + degraded-path
    /// delta), simulated nanoseconds.
    recovery_cost_ns: u64,
    /// Stable description of the first rejection, for the event stream.
    artifact_detail: Option<String>,
}

/// One cell's result slots, addressed `[plan][corruption][seed]`; each
/// filled slot holds one sample per config, in config order.
type CellSlots = Vec<Vec<Vec<Option<Vec<ChaosSample>>>>>;

pub(crate) struct ChaosJobOutput {
    job: ChaosJob,
    samples: Vec<ChaosSample>, // one per config, in config order
}

pub(crate) struct ChaosJobFailure {
    job: ChaosJob,
    seed: u64,
    kind: FailureKind,
}

/// Aggregated statistics for one `(cell, plan, corruption, config)`.
#[derive(Debug, Clone, PartialEq)]
pub struct ChaosConfigStats {
    /// Config label.
    pub label: String,
    /// Completed boots (degraded ones included — they completed via the
    /// fallback).
    pub count: usize,
    /// Mean user-visible boot time, simulated ns.
    pub mean_ns: f64,
    /// Median (nearest-rank), simulated ns.
    pub p50_ns: u64,
    /// 95th percentile, simulated ns.
    pub p95_ns: u64,
    /// 99th percentile, simulated ns.
    pub p99_ns: u64,
    /// Boots that fell back to the conventional shape.
    pub degraded: usize,
    /// Boots that crashed but recovered on the fast path (restarts > 0,
    /// no fallback).
    pub recovered: usize,
    /// Total supervised respawns.
    pub restarts: u64,
    /// Artifact recovery events across these boots (retried reads
    /// included; see [`bb_core::recovery`]).
    pub recoveries: u64,
    /// Artifacts the integrity chain rejected outright.
    pub artifacts_rejected: u64,
    /// Median priced recovery cost over recovering boots, simulated ns
    /// (0 when no boot recovered).
    pub recovery_cost_p50_ns: u64,
    /// 95th percentile priced recovery cost over recovering boots.
    pub recovery_cost_p95_ns: u64,
}

impl ChaosConfigStats {
    /// Degraded-boot rate over completed boots.
    pub fn degraded_rate(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.degraded as f64 / self.count as f64
        }
    }

    /// Of the boots a fault actually hit (recovered or degraded), the
    /// fraction supervision rescued without a fallback.
    pub fn recovery_rate(&self) -> f64 {
        let hit = self.recovered + self.degraded;
        if hit == 0 {
            1.0
        } else {
            self.recovered as f64 / hit as f64
        }
    }

    /// Fraction of boots whose artifact the integrity chain rejected
    /// (every one of them still completed, via re-parse or cold boot).
    pub fn artifact_rejection_rate(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.artifacts_rejected as f64 / self.count as f64
        }
    }
}

/// Aggregated results for one corruption slot within one plan.
#[derive(Debug, Clone, PartialEq)]
pub struct ChaosCorruptionReport {
    /// Corruption label (`pristine` or `corrupt-<seed>`).
    pub label: String,
    /// Per-config statistics, in config order.
    pub configs: Vec<ChaosConfigStats>,
}

/// Aggregated results for one fault plan within one cell.
#[derive(Debug, Clone, PartialEq)]
pub struct ChaosPlanReport {
    /// Plan label (`none` or `plan-<seed>`).
    pub label: String,
    /// Per-corruption results, in corruption-slot order.
    pub corruptions: Vec<ChaosCorruptionReport>,
}

/// Aggregated results for one chaos cell.
#[derive(Debug, Clone, PartialEq)]
pub struct ChaosCellReport {
    /// Cell label.
    pub label: String,
    /// Per-plan results, in plan order.
    pub plans: Vec<ChaosPlanReport>,
}

/// One notable per-boot event (degraded, fault-recovered, or
/// artifact-rejected), in slot order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ChaosEvent {
    /// Cell label.
    pub cell: String,
    /// Plan label.
    pub plan: String,
    /// Corruption label.
    pub corruption: String,
    /// Scenario seed.
    pub seed: u64,
    /// Stable reason line (a [`FailureKind`] rendering; degraded boots
    /// append their [`bb_core::FallbackReason`]).
    pub reason: String,
}

/// One failed chaos job.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ChaosFailure {
    /// Cell label.
    pub cell: String,
    /// Plan label.
    pub plan: String,
    /// Corruption label.
    pub corruption: String,
    /// Scenario seed.
    pub seed: u64,
    /// Stable reason line.
    pub reason: String,
}

/// The deterministic output of a chaos sweep.
#[derive(Debug, Clone, PartialEq)]
pub struct ChaosReport {
    /// Per-cell results, in spec order.
    pub cells: Vec<ChaosCellReport>,
    /// Notable events (degraded / recovered boots), in slot order.
    pub events: Vec<ChaosEvent>,
    /// Failed jobs, sorted by (cell, plan, seed).
    pub failures: Vec<ChaosFailure>,
    /// Completed boots across all cells.
    pub total_boots: usize,
}

impl ChaosReport {
    /// Deterministic JSON: fixed key order, `{:.3}` ms floats, no
    /// host-time fields. Byte-identical for any worker count.
    pub fn to_json(&self) -> String {
        let mut out = json::open_document(json::SCHEMA_CHAOS);
        out.push_str("  \"cells\": [");
        for (i, cell) in self.cells.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str("\n    {\"label\": \"");
            out.push_str(&json::escape(&cell.label));
            out.push_str("\", \"plans\": [");
            for (j, plan) in cell.plans.iter().enumerate() {
                if j > 0 {
                    out.push(',');
                }
                out.push_str("\n      {\"label\": \"");
                out.push_str(&json::escape(&plan.label));
                out.push_str("\", \"corruptions\": [");
                for (q, corr) in plan.corruptions.iter().enumerate() {
                    if q > 0 {
                        out.push(',');
                    }
                    out.push_str("\n        {\"label\": \"");
                    out.push_str(&json::escape(&corr.label));
                    out.push_str("\", \"configs\": [");
                    for (k, c) in corr.configs.iter().enumerate() {
                        if k > 0 {
                            out.push(',');
                        }
                        out.push_str(&format!(
                            "\n          {{\"label\": \"{}\", \"count\": {}, \"mean_ms\": {}, \"p50_ms\": {}, \"p95_ms\": {}, \"p99_ms\": {}, \"degraded\": {}, \"degraded_pct\": {:.3}, \"recovered\": {}, \"recovery_pct\": {:.3}, \"restarts\": {}, \"recoveries\": {}, \"artifacts_rejected\": {}, \"rejected_pct\": {:.3}, \"recovery_cost_p50_ms\": {}, \"recovery_cost_p95_ms\": {}}}",
                            json::escape(&c.label),
                            c.count,
                            json::ms(c.mean_ns),
                            json::ms(c.p50_ns as f64),
                            json::ms(c.p95_ns as f64),
                            json::ms(c.p99_ns as f64),
                            c.degraded,
                            100.0 * c.degraded_rate(),
                            c.recovered,
                            100.0 * c.recovery_rate(),
                            c.restarts,
                            c.recoveries,
                            c.artifacts_rejected,
                            100.0 * c.artifact_rejection_rate(),
                            json::ms(c.recovery_cost_p50_ns as f64),
                            json::ms(c.recovery_cost_p95_ns as f64),
                        ));
                    }
                    if !corr.configs.is_empty() {
                        out.push_str("\n        ");
                    }
                    out.push_str("]}");
                }
                if !plan.corruptions.is_empty() {
                    out.push_str("\n      ");
                }
                out.push_str("]}");
            }
            if !cell.plans.is_empty() {
                out.push_str("\n    ");
            }
            out.push_str("]}");
        }
        if !self.cells.is_empty() {
            out.push_str("\n  ");
        }
        out.push_str("],\n  \"events\": [");
        for (i, e) in self.events.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "\n    {{\"cell\": \"{}\", \"plan\": \"{}\", \"corruption\": \"{}\", \"seed\": {}, \"reason\": \"{}\"}}",
                json::escape(&e.cell),
                json::escape(&e.plan),
                json::escape(&e.corruption),
                e.seed,
                json::escape(&e.reason)
            ));
        }
        if !self.events.is_empty() {
            out.push_str("\n  ");
        }
        out.push_str("],\n  \"failures\": [");
        for (i, f) in self.failures.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "\n    {{\"cell\": \"{}\", \"plan\": \"{}\", \"corruption\": \"{}\", \"seed\": {}, \"reason\": \"{}\"}}",
                json::escape(&f.cell),
                json::escape(&f.plan),
                json::escape(&f.corruption),
                f.seed,
                json::escape(&f.reason)
            ));
        }
        if !self.failures.is_empty() {
            out.push_str("\n  ");
        }
        out.push_str(&format!(
            "],\n  \"total_boots\": {}\n}}\n",
            self.total_boots
        ));
        out
    }

    /// Human-readable table for terminals.
    pub fn summary(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        for cell in &self.cells {
            let _ = writeln!(out, "{}", cell.label);
            for plan in &cell.plans {
                for corr in &plan.corruptions {
                    let _ = writeln!(out, "  plan {} × {}", plan.label, corr.label);
                    let _ = writeln!(
                        out,
                        "    {:<16} {:>6} {:>10} {:>10} {:>10} {:>9} {:>9} {:>9} {:>9} {:>11}",
                        "config",
                        "boots",
                        "mean",
                        "p95",
                        "p99",
                        "degraded",
                        "recovered",
                        "restarts",
                        "rejected",
                        "recov p95"
                    );
                    for c in &corr.configs {
                        let _ = writeln!(
                            out,
                            "    {:<16} {:>6} {:>8.0}ms {:>8.0}ms {:>8.0}ms {:>8.1}% {:>8.1}% {:>9} {:>8.1}% {:>9.1}ms",
                            c.label,
                            c.count,
                            c.mean_ns / 1e6,
                            c.p95_ns as f64 / 1e6,
                            c.p99_ns as f64 / 1e6,
                            100.0 * c.degraded_rate(),
                            100.0 * c.recovery_rate(),
                            c.restarts,
                            100.0 * c.artifact_rejection_rate(),
                            c.recovery_cost_p95_ns as f64 / 1e6,
                        );
                    }
                }
            }
        }
        if !self.failures.is_empty() {
            let _ = writeln!(out, "failures ({}):", self.failures.len());
            for f in &self.failures {
                let _ = writeln!(
                    out,
                    "  {} {} {} seed {}: {}",
                    f.cell, f.plan, f.corruption, f.seed, f.reason
                );
            }
        }
        let _ = writeln!(out, "total boots aggregated: {}", self.total_boots);
        out
    }
}

/// Everything a chaos sweep returns.
#[derive(Debug)]
pub struct ChaosOutcome {
    /// Aggregated, deterministic results (JSON-stable).
    pub report: ChaosReport,
    /// Pool observability (host-time, nondeterministic) — plus the
    /// deterministic total restart count.
    pub stats: PoolStats,
}

/// Runs the chaos grid to completion on a private one-shot
/// [`FleetService`] of `pool.workers` threads. Output is byte-identical
/// for any worker count. Long-lived callers wanting `submit`/`poll`/
/// `cancel` should hold a [`FleetService`] and submit
/// [`WorkItem::Chaos`] tickets instead.
pub fn run_chaos(spec: &ChaosSpec, pool: &PoolConfig) -> ChaosOutcome {
    let service =
        FleetService::with_cache(ServiceConfig::one_shot(pool.workers), FleetCache::fresh());
    let ticket = service
        .submit(0, WorkItem::Chaos(spec.clone()))
        .expect("a one-shot service accepts a single chaos sweep");
    match service.wait(ticket) {
        Ok(ServiceReport::Chaos(outcome)) => outcome,
        _ => unreachable!("chaos tickets finalize into chaos reports"),
    }
}

/// Deterministic totals finalize derives alongside the report. These
/// are aggregate-level facts (not host observability), replayed into
/// `PoolStats` by the service.
#[derive(Default)]
pub(crate) struct ChaosTotals {
    pub(crate) restarts: usize,
    pub(crate) recoveries: usize,
    pub(crate) artifacts_rejected: usize,
}

/// Accumulates chaos job results into `[plan][corruption][seed]` slots —
/// the chaos counterpart of [`crate::Aggregator`], driven by the
/// service's accept loop.
pub(crate) struct ChaosAggregator {
    slots: Vec<CellSlots>,
    raw_failures: Vec<(usize, usize, usize, usize, u64, String)>,
}

impl ChaosAggregator {
    /// Allocates slots for every `(cell, plan, corruption, seed)` of
    /// `spec`.
    pub(crate) fn new(spec: &ChaosSpec) -> Self {
        ChaosAggregator {
            slots: spec
                .cells
                .iter()
                .map(|c| {
                    vec![
                        vec![vec![None; c.seeds.len()]; c.corruption_seeds.len()];
                        c.plan_seeds.len()
                    ]
                })
                .collect(),
            raw_failures: Vec::new(),
        }
    }

    /// Accepts one result, in arrival (nondeterministic) order.
    pub(crate) fn accept(&mut self, msg: Result<ChaosJobOutput, ChaosJobFailure>) {
        match msg {
            Ok(out) => {
                let slot = &mut self.slots[out.job.cell][out.job.plan_idx][out.job.corr_idx]
                    [out.job.seed_idx];
                debug_assert!(slot.is_none(), "chaos slot filled twice");
                *slot = Some(out.samples);
            }
            Err(fail) => self.raw_failures.push((
                fail.job.cell,
                fail.job.plan_idx,
                fail.job.corr_idx,
                fail.job.seed_idx,
                fail.seed,
                fail.kind.reason(),
            )),
        }
    }

    /// Results accepted so far (filled slots plus failures) — the
    /// service's progress signal.
    pub(crate) fn accepted(&self) -> usize {
        let filled: usize = self
            .slots
            .iter()
            .flatten()
            .flatten()
            .flatten()
            .filter(|s| s.is_some())
            .count();
        filled + self.raw_failures.len()
    }

    /// Computes the final report and totals, walking slots in
    /// deterministic order.
    pub(crate) fn finalize(self, spec: &ChaosSpec) -> (ChaosReport, ChaosTotals) {
        finalize(spec, &self.slots, self.raw_failures)
    }
}

/// Walks the slots in deterministic order, deriving stats and events.
fn finalize(
    spec: &ChaosSpec,
    slots: &[CellSlots],
    mut raw_failures: Vec<(usize, usize, usize, usize, u64, String)>,
) -> (ChaosReport, ChaosTotals) {
    let mut total_boots = 0;
    let mut totals = ChaosTotals::default();
    let mut events = Vec::new();
    let mut cells = Vec::new();
    for (ci, cell) in spec.cells.iter().enumerate() {
        let mut plans = Vec::new();
        for (pi, &plan_seed) in cell.plan_seeds.iter().enumerate() {
            let plan_label = ChaosCellSpec::plan_label(plan_seed);
            let mut corruptions = Vec::new();
            for (qi, &corr_seed) in cell.corruption_seeds.iter().enumerate() {
                let corr_label = ChaosCellSpec::corr_label(corr_seed);
                let mut configs = Vec::new();
                for (ki, (label, _)) in cell.configs.iter().enumerate() {
                    let samples: Vec<&ChaosSample> = slots[ci][pi][qi]
                        .iter()
                        .flatten()
                        .map(|by_config| &by_config[ki])
                        .collect();
                    let mut sorted: Vec<u64> = samples.iter().map(|s| s.boot_ns).collect();
                    sorted.sort_unstable();
                    let count = samples.len();
                    total_boots += count;
                    let restarts: u64 = samples.iter().map(|s| u64::from(s.restarts)).sum();
                    totals.restarts += restarts as usize;
                    let recoveries: u64 = samples.iter().map(|s| u64::from(s.recoveries)).sum();
                    totals.recoveries += recoveries as usize;
                    let rejected: u64 = samples
                        .iter()
                        .map(|s| u64::from(s.artifacts_rejected))
                        .sum();
                    totals.artifacts_rejected += rejected as usize;
                    // Recovery-cost percentiles over the boots that
                    // actually recovered something.
                    let mut costs: Vec<u64> = samples
                        .iter()
                        .filter(|s| s.recoveries > 0)
                        .map(|s| s.recovery_cost_ns)
                        .collect();
                    costs.sort_unstable();
                    configs.push(ChaosConfigStats {
                        label: label.clone(),
                        count,
                        mean_ns: if count == 0 {
                            0.0
                        } else {
                            sorted.iter().map(|&n| n as f64).sum::<f64>() / count as f64
                        },
                        p50_ns: percentile(&sorted, 50),
                        p95_ns: percentile(&sorted, 95),
                        p99_ns: percentile(&sorted, 99),
                        degraded: samples.iter().filter(|s| s.degraded).count(),
                        recovered: samples
                            .iter()
                            .filter(|s| !s.degraded && s.restarts > 0)
                            .count(),
                        restarts,
                        recoveries,
                        artifacts_rejected: rejected,
                        recovery_cost_p50_ns: percentile(&costs, 50),
                        recovery_cost_p95_ns: percentile(&costs, 95),
                    });
                }
                // Notable per-boot events, in (seed, config) slot order.
                for (si, slot) in slots[ci][pi][qi].iter().enumerate() {
                    let Some(by_config) = slot else { continue };
                    for (ki, s) in by_config.iter().enumerate() {
                        let mut push = |reason: String| {
                            events.push(ChaosEvent {
                                cell: cell.label.clone(),
                                plan: plan_label.clone(),
                                corruption: corr_label.clone(),
                                seed: cell.seeds[si],
                                reason,
                            });
                        };
                        if s.artifacts_rejected > 0 {
                            let kind = FailureKind::ArtifactRejected {
                                config: cell.configs[ki].0.clone(),
                                detail: s.artifact_detail.clone().unwrap_or_default(),
                            };
                            push(kind.reason());
                        }
                        if s.degraded {
                            let kind = FailureKind::Degraded {
                                config: cell.configs[ki].0.clone(),
                            };
                            // Satellite: surface the supervisor's
                            // FallbackReason alongside the event.
                            push(match &s.fallback_reason {
                                Some(fb) => format!("{} ({fb})", kind.reason()),
                                None => kind.reason(),
                            });
                        } else if s.restarts > 0 {
                            let kind = FailureKind::FaultRecovered {
                                config: cell.configs[ki].0.clone(),
                                restarts: s.restarts,
                            };
                            push(kind.reason());
                        }
                    }
                }
                corruptions.push(ChaosCorruptionReport {
                    label: corr_label,
                    configs,
                });
            }
            plans.push(ChaosPlanReport {
                label: plan_label,
                corruptions,
            });
        }
        cells.push(ChaosCellReport {
            label: cell.label.clone(),
            plans,
        });
    }
    raw_failures.sort();
    let failures = raw_failures
        .into_iter()
        .map(|(ci, pi, qi, _, seed, reason)| ChaosFailure {
            cell: spec.cells[ci].label.clone(),
            plan: ChaosCellSpec::plan_label(spec.cells[ci].plan_seeds[pi]),
            corruption: ChaosCellSpec::corr_label(spec.cells[ci].corruption_seeds[qi]),
            seed,
            reason,
        })
        .collect();
    (
        ChaosReport {
            cells,
            events,
            failures,
            total_boots,
        },
        totals,
    )
}

/// Transient read failures derived from a corruption seed (splitmix64
/// finalizer, `% 6`): values above [`bb_core::MAX_ARTIFACT_RETRIES`]
/// exhaust the retry budget and reject the artifact on flakiness alone.
fn transient_reads(seed: u64) -> u32 {
    let mut z = seed.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    ((z ^ (z >> 31)) % 6) as u32
}

/// Executes one chaos job with panic isolation.
pub(crate) fn run_chaos_job(
    spec: &ChaosSpec,
    job: ChaosJob,
) -> Result<ChaosJobOutput, ChaosJobFailure> {
    let cell = &spec.cells[job.cell];
    let seed = cell.seeds[job.seed_idx];
    let plan_seed = cell.plan_seeds[job.plan_idx];
    let corr_seed = cell.corruption_seeds[job.corr_idx];

    let outcome = catch_unwind(AssertUnwindSafe(|| {
        let scenario = match &cell.source {
            ScenarioSource::Fixed(s) => (**s).clone(),
            ScenarioSource::Tizen { profile, params } => {
                tv_scenario_with(*profile, TizenParams { seed, ..*params })
            }
        };
        let scenario = match cell.supervision {
            Some(s) => {
                with_supervision(&scenario, s.restart, s.restart_sec_ms, s.start_limit_burst)
            }
            None => scenario,
        };
        let pre = PreParser::build(&scenario.units);
        let plan = match plan_seed {
            None => FaultPlan::none(),
            Some(ps) => FaultPlan::seeded(ps, &fault_targets(&scenario)),
        };
        // Corruption slot `None` supplies no artifact (the pristine
        // control: identical to a boot that never had a cache). A
        // seeded slot damages the scenario's own encoded blob and makes
        // the read transiently flaky, both derived from the seed.
        let artifact = corr_seed.map(|cs| {
            ArtifactRead::corrupted(encode_units(&scenario.units), &CorruptionPlan::seeded(cs))
                .flaky(transient_reads(cs))
        });
        let policy = FallbackPolicy {
            deadline: SimDuration::from_millis(cell.deadline_ms),
        };
        let mut samples = Vec::with_capacity(cell.configs.len());
        for (label, cfg) in &cell.configs {
            let mut request = BootRequest::new(&scenario)
                .config(*cfg)
                .prepared(&pre)
                .faults(&plan)
                .fallback(policy);
            if let Some(read) = &artifact {
                request = request.artifact(read);
            }
            let boot = request
                .run()
                .map_err(|e| FailureKind::Boost(e.to_string()))?;
            // A boot whose rescue never completed is a reported
            // failure, as in the plain sweep, not a worker panic.
            let Some(boot_time) = boot.user_boot_time() else {
                return Err(FailureKind::Incomplete {
                    config: label.clone(),
                });
            };
            let recoveries = &boot.recoveries;
            samples.push(ChaosSample {
                boot_ns: boot_time.as_nanos(),
                restarts: boot.restarts(),
                degraded: boot.degraded.is_some(),
                fallback_reason: boot.degraded.as_ref().map(|d| d.reason.to_string()),
                recoveries: recoveries.len() as u32,
                artifacts_rejected: recoveries.iter().filter(|e| e.rejected()).count() as u32,
                recovery_cost_ns: recoveries.iter().map(|e| e.total_cost().as_nanos()).sum(),
                artifact_detail: recoveries
                    .iter()
                    .find(|e| e.rejected())
                    .map(bb_core::RecoveryEvent::describe),
            });
        }
        Ok::<_, FailureKind>(samples)
    }));

    let fail = |kind| Err(ChaosJobFailure { job, seed, kind });
    match outcome {
        Err(payload) => fail(FailureKind::Panic(panic_message(payload))),
        Ok(Err(kind)) => fail(kind),
        Ok(Ok(samples)) => Ok(ChaosJobOutput { job, samples }),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bb_workloads::profiles;

    fn tiny_chaos(plans: u64) -> ChaosSpec {
        ChaosSpec::new().cell(
            ChaosCellSpec::tizen(
                "tiny",
                profiles::ue48h6200(),
                TizenParams {
                    services: 24,
                    ..TizenParams::open_source()
                },
            )
            .seeds([1, 2])
            .fault_plans(plans, 100)
            .conventional_vs_bb(),
        )
    }

    fn tiny_corruption(corruptions: u64) -> ChaosSpec {
        ChaosSpec::new().cell(
            ChaosCellSpec::tizen(
                "tiny",
                profiles::ue48h6200(),
                TizenParams {
                    services: 24,
                    ..TizenParams::open_source()
                },
            )
            .seeds([1, 2])
            .corruption_plans(corruptions, 500)
            .conventional_vs_bb(),
        )
    }

    #[test]
    fn chaos_sweep_completes_the_grid() {
        let spec = tiny_chaos(2);
        assert_eq!(spec.total_boots(), 2 * 3 * 2);
        let outcome = run_chaos(&spec, &PoolConfig::with_workers(2));
        assert!(outcome.report.failures.is_empty(), "no job should fail");
        assert_eq!(outcome.report.total_boots, 12);
        let cell = &outcome.report.cells[0];
        assert_eq!(cell.plans.len(), 3);
        assert_eq!(cell.plans[0].label, "none");
        assert_eq!(cell.plans[0].corruptions.len(), 1);
        assert_eq!(cell.plans[0].corruptions[0].label, "pristine");
        // The control plan is fault-free and the control corruption
        // slot supplies no artifact: nothing degrades, restarts, or
        // recovers.
        for c in &cell.plans[0].corruptions[0].configs {
            assert_eq!(c.degraded, 0);
            assert_eq!(c.restarts, 0);
            assert_eq!(c.recovery_rate(), 1.0);
            assert_eq!(c.recoveries, 0);
            assert_eq!(c.artifacts_rejected, 0);
        }
    }

    #[test]
    fn chaos_json_is_identical_across_worker_counts() {
        let spec = tiny_chaos(2);
        let one = run_chaos(&spec, &PoolConfig::with_workers(1));
        let three = run_chaos(&spec, &PoolConfig::with_workers(3));
        assert_eq!(one.report, three.report);
        assert_eq!(one.report.to_json(), three.report.to_json());
        assert_eq!(one.stats.restarts, three.stats.restarts);
    }

    #[test]
    fn corruption_sweep_json_is_identical_across_worker_counts() {
        let spec = tiny_corruption(3);
        let one = run_chaos(&spec, &PoolConfig::with_workers(1));
        let four = run_chaos(&spec, &PoolConfig::with_workers(4));
        assert_eq!(one.report, four.report);
        assert_eq!(one.report.to_json(), four.report.to_json());
        assert_eq!(one.stats.recoveries, four.stats.recoveries);
        assert_eq!(one.stats.artifacts_rejected, four.stats.artifacts_rejected);
    }

    #[test]
    fn chaos_json_parses_and_carries_the_schema() {
        let spec = tiny_chaos(1);
        let outcome = run_chaos(&spec, &PoolConfig::with_workers(2));
        let parsed = crate::json::parse(&outcome.report.to_json()).expect("chaos JSON parses");
        assert_eq!(
            parsed.get("schema").and_then(crate::json::Json::as_str),
            Some("bb-fleet-chaos-v2")
        );
        assert_eq!(
            parsed
                .get("total_boots")
                .and_then(crate::json::Json::as_f64),
            Some(8.0)
        );
    }

    #[test]
    fn seeded_plans_inject_observable_faults() {
        // Across a handful of plan seeds, at least one boot must show a
        // fault symptom (a restart, a degraded boot, or a slower boot
        // than the control) — otherwise the injection axis is dead.
        let spec = tiny_chaos(4);
        let outcome = run_chaos(&spec, &PoolConfig::with_workers(2));
        let cell = &outcome.report.cells[0];
        let control_mean: f64 = cell.plans[0].corruptions[0]
            .configs
            .iter()
            .map(|c| c.mean_ns)
            .sum();
        let symptom = cell.plans[1..].iter().any(|p| {
            p.corruptions[0]
                .configs
                .iter()
                .any(|c| c.restarts > 0 || c.degraded > 0 || c.mean_ns > control_mean)
        });
        assert!(symptom, "no fault plan produced any observable symptom");
    }

    #[test]
    fn corruption_axis_never_fails_a_boot_and_prices_recoveries() {
        // Seeded corruption must never lose a sample: every damaged
        // artifact either survives validation, is retried, or is
        // rejected and the boot re-parses — no panics, no failures.
        let spec = tiny_corruption(4);
        assert_eq!(spec.total_boots(), 2 * 5 * 2);
        let outcome = run_chaos(&spec, &PoolConfig::with_workers(2));
        assert!(outcome.report.failures.is_empty(), "no job should fail");
        assert_eq!(outcome.report.total_boots, 20);

        let plan = &outcome.report.cells[0].plans[0];
        assert_eq!(plan.corruptions.len(), 5);
        // Conventional boots never consult the artifact, so the
        // integrity chain must never bill them a recovery.
        for corr in &plan.corruptions {
            let conv = &corr.configs[0];
            assert_eq!(conv.label, "conventional");
            assert_eq!(conv.recoveries, 0);
            assert_eq!(conv.artifacts_rejected, 0);
        }
        // Across the seeded slots, at least one BB boot must hit the
        // recovery chain — otherwise the corruption axis is dead.
        let bb_recoveries: u64 = plan.corruptions[1..]
            .iter()
            .map(|corr| corr.configs[1].recoveries)
            .sum();
        assert!(bb_recoveries > 0, "no corruption plan triggered recovery");
        // Every rejection is priced: the p95 recovery cost over slots
        // with a rejection must be nonzero.
        for corr in &plan.corruptions[1..] {
            let bb = &corr.configs[1];
            if bb.artifacts_rejected > 0 {
                assert!(
                    bb.recovery_cost_p95_ns > 0,
                    "rejected artifact recoveries must carry a cost"
                );
            }
        }
    }

    #[test]
    fn rejected_artifacts_land_on_the_reparse_timeline() {
        // The acceptance property at sweep scale: a boot whose artifact
        // the chain rejects re-parses and lands on the *same simulated
        // timeline* as a BB boot that never had the cache (the artifact
        // read and its retries are host-side ledger items, not
        // simulated events).
        let spec = ChaosSpec::new().cell(
            ChaosCellSpec::tizen(
                "tiny",
                profiles::ue48h6200(),
                TizenParams {
                    services: 24,
                    ..TizenParams::open_source()
                },
            )
            .seeds([1, 2])
            .corruption_plans(4, 500)
            .config("bb", BbConfig::full())
            .config(
                "bb-sans-preparse",
                BbConfig {
                    preparser: false,
                    ..BbConfig::full()
                },
            ),
        );
        let outcome = run_chaos(&spec, &PoolConfig::with_workers(2));
        assert!(outcome.report.failures.is_empty());
        let plan = &outcome.report.cells[0].plans[0];
        let mut checked = 0;
        for corr in &plan.corruptions[1..] {
            let bb = &corr.configs[0];
            let baseline = &corr.configs[1];
            // The no-preparse config never consults the artifact.
            assert_eq!(baseline.recoveries, 0);
            if bb.artifacts_rejected as usize == bb.count {
                assert_eq!(
                    bb.p50_ns, baseline.p50_ns,
                    "rejected-artifact boots must match the re-parse timeline"
                );
                assert_eq!(bb.p95_ns, baseline.p95_ns);
                checked += 1;
            }
        }
        assert!(checked > 0, "no corruption slot rejected every artifact");
    }

    #[test]
    fn incomplete_rescue_is_a_reported_failure_not_a_panic() {
        // The BB attempt never completes, so the supervisor falls back
        // — and the conventional rescue never completes either. The job
        // fails the way the plain sweep of this scenario does.
        let spec = ChaosSpec::new().cell(
            ChaosCellSpec::fixed("hung", crate::pool::tests::deadlocked_completion())
                .seeds([0, 1])
                .conventional_vs_bb(),
        );
        let outcome = run_chaos(&spec, &PoolConfig::with_workers(2));
        assert_eq!(outcome.report.total_boots, 0);
        let reasons: Vec<&str> = outcome
            .report
            .failures
            .iter()
            .map(|f| f.reason.as_str())
            .collect();
        assert_eq!(reasons, ["incomplete boot: conventional"; 2]);
    }

    #[test]
    fn transient_reads_spread_across_the_retry_budget() {
        // The derived flakiness must exercise both sides of the retry
        // bound over a small seed range, or the retry path never runs.
        let counts: Vec<u32> = (0..32).map(transient_reads).collect();
        assert!(counts
            .iter()
            .any(|&c| c > 0 && c <= bb_core::MAX_ARTIFACT_RETRIES));
        assert!(counts.iter().any(|&c| c > bb_core::MAX_ARTIFACT_RETRIES));
    }
}
