//! One-shot grid execution, the job runner, and the shared artifact
//! cache.
//!
//! The long-lived executor lives in [`crate::service`]: a
//! [`crate::FleetService`] owns the worker threads, the bounded work
//! queue, and the per-client fairness machinery. This module keeps the
//! *one-shot* entry point — [`run_sweep`] (and [`crate::run_chaos`])
//! spin up a private service, submit the spec as a single ticket, and
//! wait — plus everything a job needs to execute: the [`FleetCache`],
//! the one job runner for plain and supervised cells, and the
//! observability types ([`PoolStats`], [`WorkerStats`]).
//!
//! Every job runs under [`std::panic::catch_unwind`], so one poisoned
//! scenario cannot take down a sweep: the panic becomes a
//! [`JobFailure`] on the failure path and the queue keeps draining.
//! A per-job wall-clock deadline (from [`SweepSpec::deadline`]) is
//! checked after the job runs — the simulator has no preemption points,
//! so overruns are detected post-hoc and the result discarded.
//!
//! Determinism: results are identified by `(cell, plan, corruption,
//! seed)` and the aggregator stores them into index-addressed slots, so
//! the *output* of a sweep is identical for any worker count even
//! though execution order is not.
//!
//! # Shared artifacts
//!
//! Every plain cell runs over three service-wide memos in a
//! [`FleetCache`] — a boot-outcome cache that lets [`SweepSpec::dedup`]
//! serve identical grid points without re-simulating, a
//! [`bb_core::PlanCache`] so each (scenario, config) pair compiles its
//! boot plan once, and a checkpoint memo so forked sweeps
//! ([`SweepSpec::fork`]) share kernel-prefix snapshots across jobs,
//! workers, and clients — plus its ticket's scenario memo, so jobs of
//! one grid with identical sources share one `Arc`'d scenario (which is
//! what makes the pointer-keyed plan cache hit across jobs). A plain
//! job asks the boot-outcome cache first and builds its scenario only
//! for a config that misses. The worker that finishes a ticket's last
//! job of a scenario drops it from the memo and evicts its plans
//! ([`bb_core::PlanCache::evict_dropped`]); a fixed cell's scenario is
//! its spec's, so its plans stay while the spec does. A checkpoint
//! holds no plan, so a long-lived service keeps small outcomes and
//! snapshots, not scenarios and plans. The memos other than the plan
//! cache key on one `ScenarioKey` (see [`crate::spec`]) and compare all
//! of it on a hit, and all four are invisible in the report:
//! simulation is deterministic, so cached results are bit-identical to
//! fresh ones. Supervised cells (fault plans, corruption, supervision,
//! fallback) take their scenario from the ticket's memo too, and leave
//! the other memos alone; their one memo of outcomes is the ticket's,
//! for the boots that never read the staged artifact and so boot alike
//! in every corruption slot.
//! [`run_sweep`] takes the cache explicitly; pass [`FleetCache::fresh`]
//! for a private per-call cache, or hold one `Arc` across calls (or
//! behind a [`crate::FleetService`]) to carry boot outcomes and
//! checkpoints across sweeps.

use std::collections::HashMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::Duration;

use crate::aggregate::{FaultRecord, SweepReport};
use crate::service::{FleetService, Plan, ServiceConfig, ServiceReport, WorkItem};
use crate::spec::{job_scenario, Job, ScenarioKey, SweepSpec};
use bb_core::{
    fault_targets, ArtifactRead, Boot, BootRequest, Checkpoint, CheckpointPhase, PlanCache,
    Scenario,
};
use bb_init::encode_units;
use bb_sim::{CorruptionPlan, FaultPlan};

/// Pool sizing for the one-shot entry points ([`run_sweep`],
/// [`crate::run_chaos`]). The persistent service has its own
/// [`ServiceConfig`].
#[derive(Debug, Clone)]
pub struct PoolConfig {
    /// Worker thread count. Defaults to available parallelism.
    pub workers: usize,
}

impl Default for PoolConfig {
    fn default() -> Self {
        PoolConfig {
            workers: std::thread::available_parallelism()
                .map(std::num::NonZeroUsize::get)
                .unwrap_or(1),
        }
    }
}

impl PoolConfig {
    /// A pool with exactly `workers` threads.
    pub fn with_workers(workers: usize) -> Self {
        PoolConfig {
            workers: workers.max(1),
        }
    }
}

/// Outcomes above which the boot-outcome cache is reset.
const BOOT_CACHE_CAP: usize = 65536;

/// Checkpoints the service-wide memo keeps before resetting. Small
/// relative to the other caps: checkpoints own a machine snapshot, and
/// a clear only costs re-forking.
const CHECKPOINT_MEMO_CAP: usize = 256;

/// One memoized boot outcome (everything a job extracts from a boot),
/// fanned out to every grid point that requests the same (scenario,
/// config) pair.
#[derive(Debug, Clone)]
pub(crate) enum CachedBoot {
    /// The boot completed; these values are deterministic functions of
    /// the (scenario, config) pair, so replaying them is bit-identical
    /// to re-simulating.
    Done {
        boot_ns: u64,
        quiesce_ns: u64,
        /// The machine's event-queue high-water mark (simulated state,
        /// deterministic), replayed into `PoolStats::peak_events`.
        peak_events: usize,
        /// Span telemetry, present only if the simulating sweep had
        /// [`SweepSpec::metrics`] on. A metrics sweep treats a
        /// span-less entry as a miss and re-simulates.
        spans: Option<Vec<(String, u64)>>,
    },
    /// The boot never met its completion definition; every requesting
    /// slot reports the failure under its own config label.
    Incomplete,
}

/// Names a supervised boot up to its corruption slot: the job with its
/// corruption index cleared (so its cell, fault-plan slot and seed
/// slot) and the config's index in the cell. Keying on the cell, not on
/// its scenario, keeps two cells with equal scenarios but different
/// fallback policies apart.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub(crate) struct OutcomeKey {
    job: Job,
    config: usize,
}

/// A supervised boot memoized on its ticket's [`Plan`]: the outcome
/// and, for a boot that completed, its fault record.
pub(crate) type SharedBoot = (CachedBoot, Option<FaultRecord>);

/// The three service-wide memos of one or more sweeps: deduplicated
/// boot outcomes, compiled boot plans, and kernel-prefix checkpoints.
/// The fourth memo, of scenarios, belongs to each ticket (see the
/// module docs).
///
/// All interior state is behind its own lock, so one cache can back any
/// number of concurrent workers — and, through [`crate::FleetService`],
/// any number of concurrent clients: two clients submitting overlapping
/// grids share boot outcomes and checkpoints, and plans while both
/// tickets hold the scenario they were compiled for.
/// Everything in here is derived deterministically from scenario
/// content, so sharing never changes a report.
#[derive(Debug, Default)]
pub struct FleetCache {
    plans: PlanCache,
    boots: Mutex<BootMemo>,
    /// Kernel-handoff checkpoints, keyed by (scenario,
    /// [`bb_core::BbConfig::prefix_key`]). Promoted from per-worker to
    /// service-wide: any worker (or client) forking the same scenario
    /// prefix resumes from one shared snapshot.
    checkpoints: Mutex<HashMap<(ScenarioKey, u8), Arc<Checkpoint>>>,
}

/// The boot-outcome memo: one entry per scenario, holding its outcomes
/// by config bits, so a scenario's key is stored once however many
/// configs it booted under.
#[derive(Debug, Default)]
struct BootMemo {
    scenarios: HashMap<ScenarioKey, Vec<(u8, CachedBoot)>>,
    /// Outcomes across every scenario, bounded by [`BOOT_CACHE_CAP`].
    outcomes: usize,
}

impl FleetCache {
    /// An empty cache.
    pub fn new() -> Self {
        FleetCache::default()
    }

    /// An empty cache behind the `Arc` the fleet APIs take — the
    /// fresh-cache convenience default:
    /// `run_sweep(&spec, &pool, &FleetCache::fresh())`.
    pub fn fresh() -> Arc<Self> {
        Arc::new(FleetCache::new())
    }

    /// The plan-compilation cache (for counter snapshots).
    pub fn plans(&self) -> &PlanCache {
        &self.plans
    }

    /// The cached outcome for (`key`, config `bits`), if one exists and
    /// carries the telemetry this sweep needs.
    fn boot_lookup(&self, key: &ScenarioKey, bits: u8, metrics: bool) -> Option<CachedBoot> {
        let memo = lock(&self.boots);
        let outcomes = memo.scenarios.get(key)?;
        let (_, hit) = outcomes.iter().find(|(b, _)| *b == bits)?;
        if metrics {
            // A span-less entry (cached by a metrics-off sweep) cannot
            // serve a metrics sweep; re-simulate and upgrade it.
            if let CachedBoot::Done { spans: None, .. } = hit {
                return None;
            }
        }
        Some(hit.clone())
    }

    /// Stores (or upgrades) the outcome for (`key`, config `bits`).
    fn boot_insert(&self, key: &ScenarioKey, bits: u8, outcome: CachedBoot) {
        let mut memo = lock(&self.boots);
        if memo.outcomes >= BOOT_CACHE_CAP {
            *memo = BootMemo::default();
        }
        let outcomes = memo.scenarios.entry(key.clone()).or_default();
        match outcomes.iter_mut().find(|(b, _)| *b == bits) {
            Some((_, old)) => *old = outcome,
            None => {
                outcomes.push((bits, outcome));
                memo.outcomes += 1;
            }
        }
    }

    /// The memoized kernel-handoff checkpoint for `key`, if any worker
    /// has forked it already.
    fn checkpoint(&self, key: &(ScenarioKey, u8)) -> Option<Arc<Checkpoint>> {
        lock(&self.checkpoints).get(key).cloned()
    }

    /// Memoizes a freshly forked checkpoint. First insert wins: on a
    /// racing double-fork both boots resume from the winner (the
    /// snapshots are deterministic and identical, so the race is
    /// invisible in reports — only the kernel-simulation *count* can
    /// vary, and that is host-side observability).
    fn checkpoint_insert(&self, key: (ScenarioKey, u8), ckpt: Checkpoint) -> Arc<Checkpoint> {
        let mut map = lock(&self.checkpoints);
        if map.len() >= CHECKPOINT_MEMO_CAP {
            map.clear();
        }
        map.entry(key).or_insert_with(|| Arc::new(ckpt)).clone()
    }
}

/// Locks a cache map, recovering from poisoning: worker panics are
/// caught per job and these maps are only ever mutated whole-entry, so
/// a poisoned lock cannot hide a half-written state.
pub(crate) fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|p| p.into_inner())
}

/// One boot measurement inside a job.
#[derive(Debug, Clone, Copy)]
pub struct BootSample {
    /// Index into the cell's config list.
    pub config: usize,
    /// Boot time (power-on to completion), simulated nanoseconds.
    pub boot_ns: u64,
    /// Full quiesce time (deferred work included), simulated nanoseconds.
    pub quiesce_ns: u64,
}

/// A completed job: every config of one `(cell, plan, corruption, seed)`
/// slot.
#[derive(Debug, Clone)]
pub struct JobOutput {
    /// Which slot this fills.
    pub job: Job,
    /// The seed that was run.
    pub seed: u64,
    /// One sample per config, in config order.
    pub samples: Vec<BootSample>,
    /// Per-config `(span name, duration ns)` lists, in config order.
    /// Empty unless [`SweepSpec::metrics`] is set.
    pub spans: Vec<Vec<(String, u64)>>,
    /// Kernel-phase simulations this job executed. Equals the config
    /// count for a plain sweep; with [`SweepSpec::fork`] it is the
    /// number of distinct prefix keys in the cell's config list the
    /// service-wide memo had no checkpoint for, and boots served from
    /// the dedup cache or the ticket's outcome memo simulate nothing at
    /// all. A supervised boot that lost its outcome memo's race counts
    /// in `deduped` instead.
    pub kernel_sims: usize,
    /// Deepest simulator event queue observed across this job's boots
    /// (the machine's high-water mark, a sizing signal for the queue's
    /// preallocated capacity).
    pub peak_events: usize,
    /// Boots served from the dedup cache, or in a supervised cell from
    /// the ticket's outcome memo, instead of simulated (see
    /// [`SweepSpec::dedup`]). A supervised boot whose outcome lost the
    /// memo's first-insert race counts here too.
    pub deduped: usize,
    /// Wall-clock time the job took (host time; not in JSON output).
    pub elapsed: Duration,
}

/// Why a job produced no samples. The workspace-level
/// [`bb_core::JobError`], re-exported under the historical fleet name.
pub use bb_core::JobError as FailureKind;

/// A failed job, reported on the failure path instead of aggregated.
#[derive(Debug, Clone)]
pub struct JobFailure {
    /// Which slot failed.
    pub job: Job,
    /// The seed that was running.
    pub seed: u64,
    /// What happened.
    pub kind: FailureKind,
}

/// Per-worker observability counters.
#[derive(Debug, Clone, Default)]
pub struct WorkerStats {
    /// Jobs this worker executed.
    pub jobs: usize,
    /// Wall-clock time spent executing jobs.
    pub busy: Duration,
}

/// Pool-level observability for the summary of every ticket, sweep and
/// chaos alike. Mostly host-time based and therefore *never* part of
/// the deterministic JSON output.
#[derive(Debug, Clone, Default)]
pub struct PoolStats {
    /// Worker thread count.
    pub workers: usize,
    /// Wall-clock duration of the whole sweep (submit to finalize).
    pub wall: Duration,
    /// Jobs executed (completed + failed).
    pub jobs: usize,
    /// Maximum service work-queue depth observed while this sweep's
    /// jobs were completing (at least this sweep's own job count).
    pub max_queue_depth: usize,
    /// Supervised respawns observed across all boots. Always 0 for
    /// plain cells; supervised cells count every `Restart=` respawn.
    pub restarts: usize,
    /// Kernel-phase simulations executed across all completed jobs.
    /// Equals the boot count for a plain sweep (a degraded supervised
    /// boot adds one for its conventional rescue); a forked sweep
    /// ([`SweepSpec::fork`]) simulates the shared prefix once per
    /// distinct prefix key the service-wide memo was missing, so this
    /// drops well below the boot count — the work the checkpoint fork
    /// saved. A supervised boot that lost its outcome memo's race counts
    /// in `cells_deduped` instead, so this is exact for any worker count.
    pub kernel_sims: usize,
    /// Deepest simulator event queue observed across all completed
    /// boots. Deterministic (simulated state, not host time), but kept
    /// out of the JSON report so sweep documents stay byte-stable
    /// across simulator sizing changes.
    pub peak_events: usize,
    /// Boot plans compiled while this sweep ran — one per distinct
    /// (scenario, config) pair that actually booted (see
    /// [`bb_core::PlanCache`]). Measured as a cache-counter delta, so
    /// on a service running concurrent tickets a neighbor's compiles
    /// can be attributed here — observability, never report data.
    pub plans_compiled: u64,
    /// Boots that reused an already-compiled plan instead of running
    /// the pass pipeline again.
    pub plan_cache_hits: u64,
    /// Boots served from the dedup cache, or in a supervised cell from
    /// the ticket's outcome memo, instead of simulated (see
    /// [`SweepSpec::dedup`]). Like everything in `PoolStats` this is
    /// execution observability, not part of the JSON report. A
    /// supervised cell's count is exact for any worker count, since a
    /// boot that lost the outcome memo's race counts here; in a plain
    /// cell racing workers may simulate a grid point twice, so the
    /// count can vary run to run even though the report never does.
    pub cells_deduped: usize,
    /// Artifact recoveries across all boots (retried reads included).
    /// Always 0 for cells without a corruption axis; see
    /// [`bb_core::recovery`].
    pub recoveries: usize,
    /// Artifacts the integrity chain rejected outright (subset of
    /// `recoveries`): corrupt, stale, or unreadable.
    pub artifacts_rejected: usize,
    /// Per-worker counters, snapshotted when this sweep finalized.
    /// On a long-lived service these are service-lifetime totals, not
    /// per-ticket ones.
    pub per_worker: Vec<WorkerStats>,
}

impl PoolStats {
    /// Jobs per wall-clock second.
    fn jobs_per_sec(&self) -> f64 {
        let secs = self.wall.as_secs_f64();
        if secs > 0.0 {
            self.jobs as f64 / secs
        } else {
            f64::INFINITY
        }
    }

    /// Fraction of the sweep wall time worker `w` spent executing jobs.
    pub fn utilization(&self, w: usize) -> f64 {
        let wall = self.wall.as_secs_f64();
        if wall > 0.0 {
            self.per_worker[w].busy.as_secs_f64() / wall
        } else {
            0.0
        }
    }

    /// Human-readable multi-line summary.
    pub fn summary(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(
            out,
            "pool: {} workers, {} jobs in {:.3}s ({:.1} jobs/s), peak queue depth {}",
            self.workers,
            self.jobs,
            self.wall.as_secs_f64(),
            self.jobs_per_sec(),
            self.max_queue_depth,
        );
        if self.peak_events > 0 {
            let _ = writeln!(
                out,
                "  peak simulator event-queue depth {}",
                self.peak_events
            );
        }
        if self.kernel_sims > 0 {
            let _ = writeln!(out, "  kernel phase simulated {} time(s)", self.kernel_sims);
        }
        if self.plans_compiled > 0 || self.plan_cache_hits > 0 {
            let _ = writeln!(
                out,
                "  boot plans compiled {} time(s), served from cache {} time(s)",
                self.plans_compiled, self.plan_cache_hits,
            );
        }
        if self.cells_deduped > 0 {
            let _ = writeln!(
                out,
                "  {} boot(s) deduplicated (identical grid points served from cache)",
                self.cells_deduped,
            );
        }
        if self.recoveries > 0 {
            let _ = writeln!(
                out,
                "  {} artifact recover(ies), {} artifact(s) rejected by the integrity chain",
                self.recoveries, self.artifacts_rejected,
            );
        }
        for (w, ws) in self.per_worker.iter().enumerate() {
            let _ = writeln!(
                out,
                "  worker {w}: {} jobs, {:.0}% utilized",
                ws.jobs,
                100.0 * self.utilization(w),
            );
        }
        out
    }
}

/// Everything a sweep returns: the deterministic report and the
/// host-time pool statistics.
#[derive(Debug, Clone)]
pub struct SweepOutcome {
    /// Aggregated, deterministic results (JSON-stable).
    pub report: SweepReport,
    /// Pool observability (host-time, nondeterministic).
    pub stats: PoolStats,
}

/// Runs `spec` to completion on a private [`FleetService`] of
/// `pool.workers` threads, over the given [`FleetCache`].
///
/// This is the one-shot entry point of the plain sweep view (the
/// historical `run_sweep`/`run_sweep_cached` pair collapsed into it).
/// Pass [`FleetCache::fresh`] for the old fresh-cache behavior, or hold
/// one `Arc<FleetCache>` across calls to carry compiled plans, memoized
/// scenarios, deduplicated boot outcomes, and checkpoints between
/// sweeps. Reports are unaffected by cache state — a warm cache only
/// changes how much work the sweep skips (visible in [`PoolStats`]).
///
/// The aggregated report is byte-identical for any worker count: result
/// slots are addressed by `(cell, plan, corruption, seed)` and finalized
/// in slot order, and nothing host-time-dependent enters the report.
/// Long-lived callers wanting `submit`/`poll`/`cancel` and cross-client
/// sharing should hold a [`FleetService`] instead.
pub fn run_sweep(spec: &SweepSpec, pool: &PoolConfig, cache: &Arc<FleetCache>) -> SweepOutcome {
    match run_grid(WorkItem::Sweep(spec.clone()), pool, cache) {
        ServiceReport::Sweep(outcome) => outcome,
        ServiceReport::Chaos(_) => unreachable!("sweep tickets finalize into sweep reports"),
    }
}

/// The one-shot path behind [`run_sweep`] and [`crate::run_chaos`]:
/// one ticket on a private [`FleetService`] over `cache`.
pub(crate) fn run_grid(
    item: WorkItem,
    pool: &PoolConfig,
    cache: &Arc<FleetCache>,
) -> ServiceReport {
    let service =
        FleetService::with_cache(ServiceConfig::one_shot(pool.workers), Arc::clone(cache));
    let ticket = service
        .submit(0, item)
        .expect("a one-shot service accepts a single grid");
    service
        .wait(ticket)
        .expect("a one-shot ticket finalizes into a report")
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

/// The fault and recovery columns of one supervised boot.
fn fault_record(boot: &Boot) -> FaultRecord {
    let recoveries = &boot.recoveries;
    FaultRecord {
        restarts: boot.restarts(),
        degraded: boot.degraded.as_ref().map(|d| d.reason.to_string()),
        recoveries: recoveries.len() as u32,
        rejected: recoveries.iter().filter(|e| e.rejected()).count() as u32,
        cost_ns: recoveries.iter().map(|e| e.total_cost().as_nanos()).sum(),
        rejection: recoveries
            .iter()
            .find(|e| e.rejected())
            .map(bb_core::RecoveryEvent::describe),
    }
}

/// What one job produced: its samples plus, for a supervised cell, one
/// fault record per config.
pub(crate) type JobResult = Result<(JobOutput, Vec<FaultRecord>), JobFailure>;

/// Executes one job of `plan` with panic isolation and post-hoc
/// deadline check.
///
/// Every config boots as one [`BootRequest`], on the scenario the
/// ticket's memo holds for the job's [`ScenarioKey`]. A plain cell's
/// configs go through the [`FleetCache`] (dedup first, then the plan
/// cache and — with [`SweepSpec::fork`] — checkpoint forks), and its
/// scenario is fetched only for a config the dedup cache misses. A
/// supervised cell fetches its scenario up front and adds the job's
/// fault plan, staged artifact read, and fallback supervisor to every
/// boot, skipping the cache's memos: the dedup key does not cover those
/// axes and a checkpoint cannot carry a supervisor. A supervised config
/// that never reads the artifact ([`bb_core::BbConfig::reads_artifact`])
/// boots alike in every corruption slot, so in a cell with more than
/// one slot it goes through the ticket's outcome memo instead
/// ([`Plan::outcome`]), keyed by the job without its corruption slot.
pub(crate) fn run_job(
    plan: &Plan,
    cache: &FleetCache,
    index: usize,
    builder: &mut bb_sim::MachineBuilder,
) -> JobResult {
    let job = plan.jobs[index];
    let spec = &plan.spec;
    let cell = &spec.cells[job.cell];
    let seed = cell.seeds[job.seed_idx];
    let supervised = cell.supervised();
    let (dedup, fork) = (spec.dedup && !supervised, spec.fork && !supervised);
    // A supervised cell shares boots only across its corruption slots,
    // so only a cell with more than one has a boot to share.
    let share = spec.dedup && supervised && cell.corruption_seeds.len() > 1;
    let key = ScenarioKey::new(cell, seed);
    let started = std::time::Instant::now();

    let outcome = catch_unwind(AssertUnwindSafe(|| {
        let builder = &mut *builder;
        // Jobs with equal keys converge on one Arc'd scenario, which is
        // what lets the pointer-keyed plan cache hit across the ticket's
        // jobs and cells.
        let fetch = || plan.scenario(index, || job_scenario(cell, seed));
        // A supervised job fetches its scenario, and builds its fault
        // plan and artifact, up front; a plain job's scenario waits for
        // its first miss.
        let mut built = supervised.then(fetch);
        let faults = built.as_ref().and_then(|scenario| {
            cell.plan_seeds[job.plan_idx].map(|ps| FaultPlan::seeded(ps, &fault_targets(scenario)))
        });
        // A seeded corruption slot damages the scenario's own encoded
        // blob and makes the read transiently flaky, both derived from
        // the seed; the pristine slot stages no artifact at all.
        let artifact = built.as_ref().and_then(|scenario| {
            cell.corruption_seeds[job.corr_idx].map(|cs| {
                ArtifactRead::corrupted(encode_units(&scenario.units), &CorruptionPlan::seeded(cs))
                    .flaky(transient_reads(cs))
            })
        });
        let mut samples = Vec::with_capacity(cell.configs.len());
        let mut records = Vec::new();
        let mut spans = Vec::new();
        let mut kernel_sims = 0usize;
        let mut peak_events = 0usize;
        let mut deduped = 0usize;
        for (config, (label, cfg)) in cell.configs.iter().enumerate() {
            let bits = cfg.bits();
            let shared = (share && !cfg.reads_artifact()).then_some(OutcomeKey {
                job: Job { corr_idx: 0, ..job },
                config,
            });
            // Dedup: an identical grid point that already ran anywhere
            // in the sweep, or this boot in another corruption slot of
            // the ticket, replays its (deterministic) outcome.
            let hit = if dedup {
                cache
                    .boot_lookup(&key, bits, spec.metrics)
                    .map(|b| (b, None))
            } else {
                shared.and_then(|k| plan.outcome(&k))
            };
            match hit {
                Some((CachedBoot::Incomplete, _)) => {
                    return Err(FailureKind::Incomplete {
                        config: label.clone(),
                    })
                }
                Some((
                    CachedBoot::Done {
                        boot_ns,
                        quiesce_ns,
                        peak_events: peak,
                        spans: cached_spans,
                    },
                    record,
                )) => {
                    samples.push(BootSample {
                        config,
                        boot_ns,
                        quiesce_ns,
                    });
                    peak_events = peak_events.max(peak);
                    if spec.metrics {
                        spans.push(cached_spans.expect("a metrics job finds spans in its memo"));
                    }
                    records.extend(record);
                    deduped += 1;
                    continue;
                }
                None => {}
            }
            // Where this config's outcome goes for the next asker; false
            // if another corruption slot's run of the boot got there first.
            let remember = |outcome, record| match shared {
                Some(k) => plan.remember(k, (outcome, record)),
                None => {
                    if dedup {
                        cache.boot_insert(&key, bits, outcome);
                    }
                    true
                }
            };
            let scenario: &Arc<Scenario> = built.get_or_insert_with(fetch);
            // Forked mode: one checkpoint per distinct (scenario, prefix
            // key), memoized service-wide in the FleetCache. Every boot
            // resumes (the first included), so forked ≡ unforked reduces
            // to resume ≡ run — the property bb-core's checkpoint tests
            // pin. The checkpoint holds no plan: it and every resume
            // take theirs from the plan cache, so each (scenario,
            // config) pair plans once.
            let checkpoint = if fork {
                let ckpt_key = (key.clone(), cfg.prefix_key());
                Some(match cache.checkpoint(&ckpt_key) {
                    Some(ckpt) => ckpt,
                    None => {
                        let forked = BootRequest::new(scenario)
                            .config(*cfg)
                            .machine_builder(&mut *builder)
                            .plan_cache(&cache.plans, scenario)
                            .checkpoint_at(CheckpointPhase::KernelHandoff)
                            .map_err(|e| FailureKind::Boost(e.to_string()))?;
                        kernel_sims += 1;
                        cache.checkpoint_insert(ckpt_key, forked)
                    }
                })
            } else {
                None
            };
            let mut request = BootRequest::new(scenario)
                .config(*cfg)
                .machine_builder(&mut *builder);
            if !supervised {
                request = request.plan_cache(&cache.plans, scenario);
            }
            if let Some(plan) = &faults {
                request = request.faults(plan);
            }
            if let Some(read) = &artifact {
                request = request.artifact(read);
            }
            if let Some(policy) = cell.fallback {
                request = request.fallback(policy);
            }
            let boot = match &checkpoint {
                Some(ckpt) => request.resume(ckpt),
                None => request.run(),
            };
            let boot = boot.map_err(|e| FailureKind::Boost(e.to_string()))?;
            // The attempt, plus the conventional rescue of a degraded
            // boot.
            let sims = 1 + usize::from(boot.degraded.is_some());
            if checkpoint.is_none() {
                kernel_sims += sims;
            }
            let peak = boot.machine.event_queue_stats().peak_depth;
            peak_events = peak_events.max(peak);
            let record = supervised.then(|| fault_record(&boot));
            let user_boot = boot.user_boot_time();
            let Boot {
                report, machine, ..
            } = boot;
            builder.recycle(machine);
            // A boot (or rescue) that never met its completion
            // definition is a reported failure, not a worker panic.
            let Some(boot_time) = user_boot else {
                remember(CachedBoot::Incomplete, None);
                return Err(FailureKind::Incomplete {
                    config: label.clone(),
                });
            };
            let boot_spans: Option<Vec<(String, u64)>> = spec.metrics.then(|| {
                bb_core::boot_spans(&report)
                    .into_iter()
                    .map(|s| (s.name, s.end.since(s.start).as_nanos()))
                    .collect()
            });
            samples.push(BootSample {
                config,
                boot_ns: boot_time.as_nanos(),
                quiesce_ns: report.quiesce_time.as_nanos(),
            });
            if dedup || shared.is_some() {
                let outcome = CachedBoot::Done {
                    boot_ns: boot_time.as_nanos(),
                    quiesce_ns: report.quiesce_time.as_nanos(),
                    peak_events: peak,
                    spans: boot_spans.clone(),
                };
                if !remember(outcome, record.clone()) {
                    // Raced: counted as the replay it would have been.
                    kernel_sims -= sims;
                    deduped += 1;
                }
            }
            records.extend(record);
            if let Some(s) = boot_spans {
                spans.push(s);
            }
        }
        let output = JobOutput {
            job,
            seed,
            samples,
            spans,
            kernel_sims,
            peak_events,
            deduped,
            elapsed: Duration::ZERO,
        };
        Ok::<_, FailureKind>((output, records))
    }));
    let elapsed = started.elapsed();

    let fail = |kind| Err(JobFailure { job, seed, kind });
    match outcome {
        Err(payload) => fail(FailureKind::Panic(panic_message(payload))),
        Ok(Err(kind)) => fail(kind),
        Ok(Ok(_)) if spec.deadline.is_some_and(|d| elapsed > d) => {
            fail(FailureKind::DeadlineExceeded { elapsed })
        }
        Ok(Ok((output, records))) => Ok((JobOutput { elapsed, ..output }, records)),
    }
}

pub(crate) fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_owned()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_owned()
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::spec::tests::{tiny_cell, tiny_scenario};
    use crate::spec::{CellSpec, ScenarioSource};
    use bb_core::booster::Scenario;
    use bb_core::BbConfig;

    pub(crate) fn tiny_spec(seeds: impl IntoIterator<Item = u64>) -> SweepSpec {
        SweepSpec::new().cell(tiny_cell("tiny").seeds(seeds).conventional_vs_bb())
    }

    #[test]
    fn sweep_completes_and_counts_jobs() {
        let spec = tiny_spec([1, 2, 3]);
        let outcome = run_sweep(&spec, &PoolConfig::with_workers(2), &FleetCache::fresh());
        assert_eq!(outcome.stats.jobs, 3);
        assert_eq!(outcome.stats.workers, 2);
        assert_eq!(outcome.report.total_boots, 6);
        assert!(outcome.report.failures.is_empty());
        let jobs_done: usize = outcome.stats.per_worker.iter().map(|w| w.jobs).sum();
        assert_eq!(jobs_done, 3);
        assert!(outcome.stats.summary().contains("pool: 2 workers"));
        // The event-queue high-water mark made it up from the machines.
        assert!(outcome.stats.peak_events > 0);
        assert!(outcome
            .stats
            .summary()
            .contains("peak simulator event-queue depth"));
    }

    #[test]
    fn zero_deadline_fails_every_job_but_sweep_survives() {
        let spec = tiny_spec([1, 2]).deadline(Duration::ZERO);
        let outcome = run_sweep(&spec, &PoolConfig::with_workers(2), &FleetCache::fresh());
        assert_eq!(outcome.report.failures.len(), 2);
        assert_eq!(outcome.report.total_boots, 0);
        assert!(outcome
            .report
            .failures
            .iter()
            .all(|f| f.reason == "deadline exceeded"));
    }

    /// A small TV scenario whose boot can never complete, under any
    /// config.
    pub(crate) fn deadlocked_completion() -> Scenario {
        use bb_init::ServiceBody;
        use bb_sim::{FlagId, Op};

        let mut scenario = tiny_scenario();
        // Deadlock the completion unit: its body waits on the
        // boot-complete gate (flag 0, the first flag the executor
        // creates), which in turn waits on this unit's readiness. With
        // no start timeout the boot can never complete.
        let name = scenario.completion[0].clone();
        let exec = scenario
            .units
            .iter()
            .find(|u| u.name == name)
            .and_then(|u| u.exec.exec_start.clone())
            .expect("completion unit has an ExecStart");
        Arc::make_mut(&mut scenario.workloads).insert(
            exec,
            ServiceBody {
                pre_ready: vec![Op::WaitFlag(FlagId::from_raw(0))],
                post_ready: Vec::new(),
            },
        );
        scenario
    }

    #[test]
    fn incomplete_boot_is_a_reported_failure_not_a_panic() {
        let spec = SweepSpec::new().cell(
            CellSpec::fixed("hung", deadlocked_completion())
                .seeds([0, 1])
                .conventional_vs_bb(),
        );
        let outcome = run_sweep(&spec, &PoolConfig::with_workers(2), &FleetCache::fresh());
        assert_eq!(outcome.report.total_boots, 0);
        assert_eq!(outcome.report.failures.len(), 2);
        assert!(outcome
            .report
            .failures
            .iter()
            .all(|f| f.reason == "incomplete boot: conventional"));
    }

    /// The acceptance property of checkpoint-forked sweeps: JSON
    /// byte-identical to the unforked sweep, shared kernel phase
    /// simulated once per prefix key per job.
    #[test]
    fn forked_sweep_is_byte_identical_and_simulates_the_kernel_once() {
        let spec = tiny_spec([1, 2]);
        let pool = PoolConfig::with_workers(2);
        let plain = run_sweep(&spec, &pool, &FleetCache::fresh());
        let forked = run_sweep(&spec.clone().with_fork(true), &pool, &FleetCache::fresh());
        assert_eq!(plain.report.to_json(), forked.report.to_json());
        // conventional vs bb differ in every prefix feature → 2 keys
        // per job; the plain sweep simulates the kernel per boot. The
        // job fingerprints are seed-dependent, so the service-wide memo
        // cannot share across the two jobs and the counts stay exact.
        assert_eq!(plain.stats.kernel_sims, 4);
        assert_eq!(forked.stats.kernel_sims, 4);

        // A config axis that shares one prefix key forks for real:
        // full BB vs BB-without-bb_group boot the same kernel.
        let shared_prefix = SweepSpec::new().cell(
            tiny_cell("tiny")
                .seeds([1, 2])
                .config("bb", BbConfig::full())
                .config(
                    "bb-no-group",
                    BbConfig {
                        bb_group: false,
                        ..BbConfig::full()
                    },
                ),
        );
        let plain = run_sweep(&shared_prefix, &pool, &FleetCache::fresh());
        let forked = run_sweep(
            &shared_prefix.clone().with_fork(true),
            &pool,
            &FleetCache::fresh(),
        );
        assert_eq!(plain.report.to_json(), forked.report.to_json());
        assert_eq!(plain.stats.kernel_sims, 4, "2 jobs x 2 configs");
        assert_eq!(forked.stats.kernel_sims, 2, "2 jobs x 1 shared prefix");
        assert!(forked.stats.summary().contains("kernel phase simulated"));
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

    #[test]
    fn pool_config_default_is_at_least_one_worker() {
        assert!(PoolConfig::default().workers >= 1);
        assert_eq!(PoolConfig::with_workers(0).workers, 1);
    }

    /// The acceptance property of grid dedup: identical grid points are
    /// simulated once, results fan out, and the JSON report is
    /// byte-identical with dedup on or off.
    #[test]
    fn dedup_serves_identical_grid_points_once_and_keeps_json_identical() {
        // Two cells with the same source and seeds: the whole second
        // cell duplicates the first.
        let spec = SweepSpec::new()
            .cell(tiny_cell("a").seeds([1, 2]).conventional_vs_bb())
            .cell(tiny_cell("b").seeds([1, 2]).conventional_vs_bb());
        // One worker makes the dedup count deterministic: jobs run in
        // order, so cell b's 4 boots are all cache hits.
        let deduped = run_sweep(&spec, &PoolConfig::with_workers(1), &FleetCache::fresh());
        let plain = run_sweep(
            &spec.clone().with_dedup(false),
            &PoolConfig::with_workers(2),
            &FleetCache::fresh(),
        );
        assert_eq!(deduped.report.to_json(), plain.report.to_json());
        assert_eq!(plain.stats.cells_deduped, 0);
        assert_eq!(deduped.stats.cells_deduped, 4);
        assert_eq!(deduped.stats.kernel_sims, 4, "only cell a simulates");
        assert!(deduped.stats.summary().contains("deduplicated"));
    }

    /// Plan compilation is per (scenario, config), not per boot: a
    /// fixed cell booting the same template across seed slots compiles
    /// each config once and reuses it from the cache.
    #[test]
    fn plan_cache_compiles_each_scenario_config_pair_once() {
        let scenario = tiny_scenario();
        // Dedup off so every slot really boots; the plan cache is the
        // only sharing layer under test.
        let spec = SweepSpec::new()
            .cell(
                CellSpec::fixed("pinned", scenario)
                    .seeds([0, 1, 2])
                    .conventional_vs_bb(),
            )
            .with_dedup(false);
        let outcome = run_sweep(&spec, &PoolConfig::with_workers(1), &FleetCache::fresh());
        assert!(outcome.report.failures.is_empty());
        assert_eq!(outcome.report.total_boots, 6);
        assert_eq!(outcome.stats.plans_compiled, 2, "one per config");
        assert_eq!(outcome.stats.plan_cache_hits, 4, "remaining boots reuse");
        assert!(outcome.stats.summary().contains("boot plans compiled"));
    }

    /// A caller-owned cache carries artifacts across sweeps: an
    /// identical second sweep simulates nothing and reports the same
    /// bytes.
    #[test]
    fn a_shared_fleet_cache_carries_results_across_sweeps() {
        let spec = tiny_spec([1]);
        let pool = PoolConfig::with_workers(1);
        let cache = FleetCache::fresh();
        let first = run_sweep(&spec, &pool, &cache);
        let second = run_sweep(&spec, &pool, &cache);
        assert_eq!(first.report.to_json(), second.report.to_json());
        assert_eq!(first.stats.cells_deduped, 0);
        assert_eq!(second.stats.cells_deduped, 2);
        assert_eq!(second.stats.kernel_sims, 0);
        assert_eq!(second.stats.plans_compiled, 0);
    }

    /// A caller-held cache keeps no scenario past its sweep: the memo
    /// that shares a fixed cell's scenario across jobs belongs to the
    /// ticket and goes with it. The scenario itself belongs to the
    /// spec, so its plans stay while the spec lives.
    #[test]
    fn a_held_cache_keeps_no_scenario_after_its_sweep() {
        let spec = SweepSpec::new().cell(
            CellSpec::fixed("pinned", tiny_scenario())
                .seeds([0, 1, 2])
                .conventional_vs_bb(),
        );
        let ScenarioSource::Fixed(scenario) = &spec.cells[0].source else {
            unreachable!("a fixed cell holds its scenario")
        };
        let before = Arc::strong_count(scenario);
        let cache = FleetCache::fresh();
        let outcome = run_sweep(&spec, &PoolConfig::with_workers(2), &cache);
        assert_eq!(outcome.report.total_boots, 6);
        assert_eq!(Arc::strong_count(scenario), before);
        assert_eq!(cache.plans().stats().entries, 2, "one plan per config");
    }

    /// A generated scenario goes with the last of its ticket's jobs that
    /// boots it, and its plans with it: a held cache keeps no plan of a
    /// finished sweep. Until then it is shared: two cells with one
    /// source and the same seeds, dedup off, boot each scenario twice
    /// and compile each (scenario, config) pair once.
    #[test]
    fn plans_go_with_the_last_job_of_their_scenario() {
        let pool = PoolConfig::with_workers(1);
        let cache = FleetCache::fresh();
        let outcome = run_sweep(&tiny_spec([1, 2, 3]), &pool, &cache);
        assert_eq!(outcome.stats.plans_compiled, 6);
        assert_eq!(cache.plans().stats().entries, 0);

        let spec = SweepSpec::new()
            .cell(tiny_cell("a").seeds([1, 2]).conventional_vs_bb())
            .cell(tiny_cell("b").seeds([1, 2]).conventional_vs_bb())
            .with_dedup(false);
        let cache = FleetCache::fresh();
        let outcome = run_sweep(&spec, &pool, &cache);
        assert_eq!(outcome.stats.kernel_sims, 8, "dedup off boots every slot");
        assert_eq!(
            (outcome.stats.plans_compiled, outcome.stats.plan_cache_hits),
            (4, 4)
        );
        assert_eq!(cache.plans().stats().entries, 0);
    }

    /// The checkpoint memo lives in the cache now: a second forked
    /// sweep over the same cache resumes from the memoized kernel
    /// snapshots without simulating the prefix again.
    #[test]
    fn checkpoints_carry_across_sweeps_through_the_cache() {
        let spec = tiny_spec([1, 2]).with_fork(true).with_dedup(false);
        let pool = PoolConfig::with_workers(1);
        let cache = FleetCache::fresh();
        let first = run_sweep(&spec, &pool, &cache);
        assert_eq!(first.stats.kernel_sims, 4, "2 jobs x 2 prefix keys");
        let second = run_sweep(&spec, &pool, &cache);
        assert_eq!(
            second.stats.kernel_sims, 0,
            "every prefix resumes from the service-wide memo"
        );
        assert_eq!(first.report.to_json(), second.report.to_json());
    }

    /// A metrics sweep must not be served span-less outcomes cached by
    /// a metrics-off sweep — it re-simulates and upgrades the entry.
    #[test]
    fn metrics_sweeps_do_not_reuse_spanless_cached_boots() {
        let spec = tiny_spec([1]);
        let pool = PoolConfig::with_workers(1);
        let cache = FleetCache::fresh();
        run_sweep(&spec, &pool, &cache);
        let with_metrics = run_sweep(&spec.clone().with_metrics(true), &pool, &cache);
        assert_eq!(with_metrics.stats.cells_deduped, 0);
        assert!(with_metrics.report.metrics.is_some());
        // The upgraded entries now serve metrics sweeps.
        let again = run_sweep(&spec.clone().with_metrics(true), &pool, &cache);
        assert_eq!(again.stats.cells_deduped, 2);
        assert_eq!(
            with_metrics.report.to_json(),
            again.report.to_json(),
            "cached boots replay byte-identically"
        );
        assert_eq!(
            with_metrics.report.metrics.as_ref().map(|m| m.to_json()),
            again.report.metrics.as_ref().map(|m| m.to_json()),
            "cached spans replay byte-identically"
        );
    }
}
