//! The persistent fleet executor: a work-queue service behind the
//! one-shot sweep entry points and the `bbsim serve` daemon.
//!
//! A [`FleetService`] owns long-lived worker threads, a central bounded
//! work queue with per-client round-robin fairness, and one shared
//! [`FleetCache`] — so every ticket it executes shares deduplicated
//! boot outcomes and kernel checkpoints with every other ticket, across
//! submissions and across clients. Scenarios, and the boot plans
//! compiled for them, live only as long as the ticket that built them:
//! each ticket memoizes its own scenarios and drops the memo when it
//! finalizes or is cancelled. This is the fleet-scale shape the paper's
//! deployment story implies: millions of near-identical boot jobs
//! amortizing their shared artifacts, not one process per sweep.
//!
//! The API is a ticketed work queue:
//!
//! * [`FleetService::submit`] enqueues a [`WorkItem`] (a boot grid and
//!   the report view it asks for) for a client and returns a
//!   [`TicketId`], applying
//!   backpressure ([`SubmitError::Saturated`]) when the queue is full
//!   and per-client quotas ([`SubmitError::QuotaExceeded`]) when one
//!   client hoards the service.
//! * [`FleetService::poll`] reports ticket progress without blocking.
//! * [`FleetService::wait`] blocks until the ticket finalizes and
//!   returns its [`ServiceReport`].
//! * [`FleetService::cancel`] retracts a ticket: queued jobs are
//!   dropped, in-flight results discarded.
//! * [`FleetService::disconnect`] forgets every ticket a client has
//!   not collected, cancelling the unfinished ones.
//! * [`FleetService::stats`] snapshots service-wide observability
//!   (rendered as the `bb-serve-stats-v1` document by
//!   [`ServiceStats::to_json`]).
//!
//! **Fairness** is round-robin over clients: the queue keeps one FIFO
//! lane per client and workers take one job from each non-empty lane in
//! turn, so a client submitting a 10,000-job grid cannot starve a
//! client submitting a 4-job one. Within a lane, jobs run in submission
//! (slot) order.
//!
//! **Determinism** is untouched by any of this: results are aggregated
//! per ticket into slots addressed by `(cell, plan, corruption, seed)`
//! and finalized in slot order, so a
//! ticket's report is byte-identical for any worker count, any client
//! interleaving, and any cache state. Only [`PoolStats`] /
//! [`ServiceStats`] — host-side observability, never part of a report —
//! can vary.

use std::collections::{HashMap, HashSet, VecDeque};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::Instant;

use crate::aggregate::Aggregator;
use crate::chaos::{self, ChaosOutcome};
use crate::json;
use crate::pool::{lock, run_job, FleetCache, JobResult, PoolStats, SweepOutcome, WorkerStats};
use crate::spec::{cell_fingerprint, Job, SweepSpec};
use bb_core::booster::Scenario;
use bb_core::{PlanCacheStats, PreParser};

/// A memoized scenario and its pre-parser measurement.
type Built = (Arc<Scenario>, PreParser);

/// Identifies a submitting client. The serve layer assigns one per
/// connection; in-process callers pick their own (quotas and fairness
/// are per-id).
pub type ClientId = u64;

/// Identifies a submitted work item, returned by
/// [`FleetService::submit`].
pub type TicketId = u64;

/// Sizing and admission policy for a [`FleetService`].
#[derive(Debug, Clone)]
pub struct ServiceConfig {
    /// Worker thread count (at least 1).
    pub workers: usize,
    /// Maximum *jobs* queued across all clients before [`submit`]
    /// returns [`SubmitError::Saturated`] — the backpressure bound.
    ///
    /// [`submit`]: FleetService::submit
    pub queue_capacity: usize,
    /// Maximum unfinished tickets per client before [`submit`] returns
    /// [`SubmitError::QuotaExceeded`].
    ///
    /// [`submit`]: FleetService::submit
    pub max_pending_per_client: usize,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        ServiceConfig {
            workers: std::thread::available_parallelism()
                .map(std::num::NonZeroUsize::get)
                .unwrap_or(1),
            queue_capacity: 65_536,
            max_pending_per_client: 64,
        }
    }
}

impl ServiceConfig {
    /// The default policy with exactly `workers` threads.
    pub fn with_workers(workers: usize) -> Self {
        ServiceConfig {
            workers: workers.max(1),
            ..ServiceConfig::default()
        }
    }

    /// Unbounded admission — what the one-shot entry points
    /// ([`crate::run_sweep`], [`crate::run_chaos`]) run under: a single
    /// caller submitting a single ticket needs neither backpressure nor
    /// quotas, and a spec larger than any fixed queue bound must still
    /// run.
    pub fn one_shot(workers: usize) -> Self {
        ServiceConfig {
            workers: workers.max(1),
            queue_capacity: usize::MAX,
            max_pending_per_client: usize::MAX,
        }
    }
}

/// One submittable unit of fleet work: a boot grid plus the report
/// view it finalizes into. Both variants run the same jobs the same
/// way; only the rendered report differs.
#[derive(Debug, Clone)]
pub enum WorkItem {
    /// A grid reported as a plain sweep (`bb-fleet-v1`, see
    /// [`crate::SweepReport`]).
    Sweep(SweepSpec),
    /// A grid reported through the chaos view (`bb-fleet-chaos-v2`, see
    /// [`crate::ChaosReport`]) — typically one whose cells set fault,
    /// corruption, supervision, or fallback axes.
    Chaos(SweepSpec),
}

/// A finalized ticket's result, matching the submitted [`WorkItem`]
/// kind.
#[derive(Debug)]
pub enum ServiceReport {
    /// Result of a [`WorkItem::Sweep`].
    Sweep(SweepOutcome),
    /// Result of a [`WorkItem::Chaos`].
    Chaos(ChaosOutcome),
}

/// Non-blocking ticket progress, from [`FleetService::poll`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TicketStatus {
    /// No job has completed yet.
    Queued {
        /// Jobs the ticket expands to.
        total: usize,
    },
    /// Some jobs have completed.
    Running {
        /// Jobs completed (failed ones included).
        completed: usize,
        /// Jobs the ticket expands to.
        total: usize,
    },
    /// The report is ready; [`FleetService::wait`] returns immediately.
    Done,
    /// The ticket was cancelled; no report will arrive.
    Cancelled,
}

/// Why [`FleetService::submit`] rejected a work item.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SubmitError {
    /// The queue is full — backpressure. Retry after draining.
    Saturated {
        /// Jobs currently queued service-wide.
        queued: usize,
        /// The configured bound ([`ServiceConfig::queue_capacity`]).
        capacity: usize,
        /// Jobs this item would have added.
        jobs: usize,
    },
    /// The client already has too many unfinished tickets.
    QuotaExceeded {
        /// Unfinished tickets the client holds.
        pending: usize,
        /// The configured bound
        /// ([`ServiceConfig::max_pending_per_client`]).
        quota: usize,
    },
    /// The service is shutting down and admits no new work.
    ShuttingDown,
}

impl std::fmt::Display for SubmitError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SubmitError::Saturated {
                queued,
                capacity,
                jobs,
            } => write!(
                f,
                "queue saturated: {queued} job(s) queued of {capacity} capacity, \
                 submission needs {jobs}"
            ),
            SubmitError::QuotaExceeded { pending, quota } => write!(
                f,
                "client quota exceeded: {pending} unfinished ticket(s) of {quota} allowed"
            ),
            SubmitError::ShuttingDown => write!(f, "service is shutting down"),
        }
    }
}

/// Why [`FleetService::wait`] returned no report.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WaitError {
    /// The ticket id was never issued, its report was already
    /// collected, or its client disconnected.
    UnknownTicket,
    /// The ticket was cancelled.
    Cancelled,
}

impl std::fmt::Display for WaitError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WaitError::UnknownTicket => write!(f, "unknown ticket"),
            WaitError::Cancelled => write!(f, "ticket was cancelled"),
        }
    }
}

/// Service-wide observability counters, from [`FleetService::stats`].
/// Everything here is host-side: reports never depend on it.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ServiceStats {
    /// Worker thread count.
    pub workers: usize,
    /// Distinct clients that have submitted work.
    pub clients: usize,
    /// Tickets admitted since the service started.
    pub tickets_submitted: u64,
    /// Tickets that finalized a report.
    pub tickets_completed: u64,
    /// Tickets cancelled before finalizing, by [`FleetService::cancel`]
    /// or by their client's [`FleetService::disconnect`].
    pub tickets_cancelled: u64,
    /// Jobs executed (completed + failed, across all tickets).
    pub jobs_executed: u64,
    /// Jobs queued right now.
    pub queue_depth: usize,
    /// Deepest the queue has ever been.
    pub queue_peak: usize,
    /// Kernel-phase simulations executed across all tickets.
    pub kernel_sims: u64,
    /// Boot plans compiled in the service's shared cache.
    pub plans_compiled: u64,
    /// Boots that reused an already-compiled plan.
    pub plan_cache_hits: u64,
    /// Boots served from the dedup cache — including *cross-client*
    /// hits, when one client's grid overlaps another's.
    pub cells_deduped: u64,
    /// Supervised respawns across all tickets.
    pub restarts: u64,
    /// Artifact recoveries across all tickets.
    pub recoveries: u64,
    /// Artifacts the integrity chain rejected across all tickets.
    pub artifacts_rejected: u64,
}

impl ServiceStats {
    /// The `bb-serve-stats-v1` document: fixed key order, schema
    /// stamped first — how a running server is observed without
    /// restarting it.
    pub fn to_json(&self) -> String {
        let mut out = json::open_document(json::SCHEMA_SERVE_STATS);
        out.push_str(&format!(
            "  \"workers\": {},\n  \"clients\": {},\n  \"tickets\": {{\"submitted\": {}, \"completed\": {}, \"cancelled\": {}}},\n  \"jobs_executed\": {},\n  \"queue\": {{\"depth\": {}, \"peak\": {}}},\n  \"kernel_sims\": {},\n  \"plans_compiled\": {},\n  \"plan_cache_hits\": {},\n  \"cells_deduped\": {},\n  \"restarts\": {},\n  \"recoveries\": {},\n  \"artifacts_rejected\": {}\n}}\n",
            self.workers,
            self.clients,
            self.tickets_submitted,
            self.tickets_completed,
            self.tickets_cancelled,
            self.jobs_executed,
            self.queue_depth,
            self.queue_peak,
            self.kernel_sims,
            self.plans_compiled,
            self.plan_cache_hits,
            self.cells_deduped,
            self.restarts,
            self.recoveries,
            self.artifacts_rejected,
        ));
        out
    }
}

/// One queued job: `index` into its ticket's job list.
#[derive(Debug, Clone, Copy)]
struct Task {
    ticket: TicketId,
    index: usize,
}

/// A ticket's expanded execution plan, shared with the workers running
/// its jobs. The ticket drops it when it finalizes or is cancelled; an
/// in-flight job holds it until that job ends.
pub(crate) struct Plan {
    pub(crate) spec: SweepSpec,
    pub(crate) shared: Vec<Option<Built>>,
    pub(crate) fps: Vec<(u64, bool)>,
    jobs: Vec<Job>,
    /// The ticket's scenario memo, keyed by job fingerprint.
    scenarios: Mutex<HashMap<u64, Built>>,
}

impl Plan {
    /// The memoized `(scenario, preparser)` for job fingerprint `fp`,
    /// building (outside the lock) and inserting on a miss. On a racing
    /// double-build the first insert wins, so every job of a fingerprint
    /// converges on one `Arc` — the pointer identity the plan cache
    /// keys on.
    pub(crate) fn scenario(&self, fp: u64, build: impl FnOnce() -> Built) -> Built {
        if let Some(hit) = lock(&self.scenarios).get(&fp) {
            return hit.clone();
        }
        let built = build();
        lock(&self.scenarios).entry(fp).or_insert(built).clone()
    }
}

struct Ticket {
    client: ClientId,
    /// The jobs' plan while any are left to run; `None` once the
    /// ticket finalized or was cancelled.
    plan: Option<Arc<Plan>>,
    /// Finalize into the chaos view instead of the sweep report.
    chaos: bool,
    agg: Option<Aggregator>,
    /// Jobs not yet accepted; 0 means finalized.
    remaining: usize,
    cancelled: bool,
    report: Option<ServiceReport>,
    started: Instant,
    plans_before: PlanCacheStats,
    /// The counters accumulated job by job; finalize fills in the rest.
    stats: PoolStats,
}

/// One client's FIFO lane of the central queue.
struct Lane {
    client: ClientId,
    tasks: VecDeque<Task>,
}

struct QueueState {
    lanes: Vec<Lane>,
    /// Round-robin cursor over lanes.
    next: usize,
    peak: usize,
    shutdown: bool,
}

impl QueueState {
    /// The lane for `client`, created on first submission and removed
    /// when the client disconnects.
    fn lane(&mut self, client: ClientId) -> &mut Lane {
        if let Some(i) = self.lanes.iter().position(|l| l.client == client) {
            return &mut self.lanes[i];
        }
        self.lanes.push(Lane {
            client,
            tasks: VecDeque::new(),
        });
        self.lanes.last_mut().expect("just pushed")
    }

    /// Pops the next task round-robin across client lanes.
    fn pop(&mut self) -> Option<Task> {
        let n = self.lanes.len();
        for probe in 0..n {
            let i = (self.next + probe) % n;
            if let Some(task) = self.lanes[i].tasks.pop_front() {
                self.next = (i + 1) % n;
                return Some(task);
            }
        }
        None
    }
}

struct TicketTable {
    entries: HashMap<TicketId, Ticket>,
    /// Unfinished tickets per client (the quota counter).
    pending: HashMap<ClientId, usize>,
}

/// Cumulative service counters: the distinct clients, and the
/// [`ServiceStats`] counters (the live gauges are filled in when
/// [`FleetService::stats`] snapshots them).
#[derive(Default)]
struct Totals {
    clients: HashSet<ClientId>,
    counters: ServiceStats,
}

struct Inner {
    workers: usize,
    queue_capacity: usize,
    quota: usize,
    cache: Arc<FleetCache>,
    queue: Mutex<QueueState>,
    /// Signals workers that the queue changed (paired with `queue`).
    work: Condvar,
    /// Mirror of total queued tasks, for lock-free depth sampling.
    queued: AtomicUsize,
    tickets: Mutex<TicketTable>,
    /// Signals waiters that a ticket finalized (paired with `tickets`).
    done: Condvar,
    next_ticket: AtomicU64,
    worker_stats: Mutex<Vec<WorkerStats>>,
    totals: Mutex<Totals>,
}

// Lock discipline: `queue`, `tickets`, `worker_stats`, and `totals` are
// never acquired in conflicting orders — `queue` is always taken alone,
// and `worker_stats`/`totals` only ever nest *inside* `tickets` (in
// accept/finalize). Waiters block on `done` holding `tickets`, which the
// condvar releases.

impl Inner {
    fn submit(&self, client: ClientId, item: WorkItem) -> Result<TicketId, SubmitError> {
        let (spec, chaos) = match item {
            WorkItem::Sweep(spec) => (spec, false),
            WorkItem::Chaos(spec) => (spec, true),
        };
        // Refuse what cannot fit before expanding jobs or allocating
        // slots: a grid's job count is cheap to compute, its expansion
        // is not.
        self.admits(spec.job_count())?;
        let jobs = spec.jobs();
        let total = jobs.len();
        let agg = Aggregator::new(&spec);
        let plan = Plan {
            shared: spec.shared_templates(),
            fps: spec.cells.iter().map(cell_fingerprint).collect(),
            spec,
            jobs,
            scenarios: Mutex::default(),
        };
        let id = self.next_ticket.fetch_add(1, Ordering::Relaxed);
        {
            let mut tickets = lock(&self.tickets);
            let pending = tickets.pending.entry(client).or_insert(0);
            if *pending >= self.quota {
                return Err(SubmitError::QuotaExceeded {
                    pending: *pending,
                    quota: self.quota,
                });
            }
            *pending += 1;
            tickets.entries.insert(
                id,
                Ticket {
                    client,
                    plan: Some(Arc::new(plan)),
                    chaos,
                    agg: Some(agg),
                    remaining: total,
                    cancelled: false,
                    report: None,
                    started: Instant::now(),
                    plans_before: self.cache.plans().stats(),
                    stats: PoolStats {
                        workers: self.workers,
                        jobs: total,
                        // The historical semantic: queue depth is at
                        // least this ticket's own job count.
                        max_queue_depth: total,
                        ..PoolStats::default()
                    },
                },
            );
        }
        if total == 0 {
            // An empty grid finalizes immediately, matching the one-shot
            // entry points (zero boots, empty report).
            let mut tickets = lock(&self.tickets);
            if let Some(t) = tickets.entries.get_mut(&id) {
                t.plan = None;
                self.finalize_ticket(t);
                if let Some(p) = tickets.pending.get_mut(&client) {
                    *p = p.saturating_sub(1);
                }
            }
            drop(tickets);
            self.done.notify_all();
        } else {
            let mut q = lock(&self.queue);
            if q.shutdown {
                drop(q);
                self.retract(id, client);
                return Err(SubmitError::ShuttingDown);
            }
            if let Err(e) = self.admits(total) {
                drop(q);
                self.retract(id, client);
                return Err(e);
            }
            let lane = q.lane(client);
            for index in 0..total {
                lane.tasks.push_back(Task { ticket: id, index });
            }
            let depth = self.queued.fetch_add(total, Ordering::Relaxed) + total;
            q.peak = q.peak.max(depth);
            drop(q);
            self.work.notify_all();
        }
        let mut totals = lock(&self.totals);
        totals.counters.tickets_submitted += 1;
        totals.clients.insert(client);
        Ok(id)
    }

    /// Backpressure: refuses `jobs` more jobs when the queue cannot hold
    /// them.
    fn admits(&self, jobs: usize) -> Result<(), SubmitError> {
        let queued = self.queued.load(Ordering::Relaxed);
        if queued.saturating_add(jobs) > self.queue_capacity {
            return Err(SubmitError::Saturated {
                queued,
                capacity: self.queue_capacity,
                jobs,
            });
        }
        Ok(())
    }

    /// Rolls back a ticket registration whose enqueue was refused.
    fn retract(&self, id: TicketId, client: ClientId) {
        let mut tickets = lock(&self.tickets);
        tickets.entries.remove(&id);
        if let Some(p) = tickets.pending.get_mut(&client) {
            *p = p.saturating_sub(1);
        }
    }

    /// Blocks for the next task; `None` means shutdown *and* an empty
    /// queue — shutdown drains accepted work before stopping.
    fn next_task(&self) -> Option<Task> {
        let mut q = lock(&self.queue);
        loop {
            if let Some(task) = q.pop() {
                self.queued.fetch_sub(1, Ordering::Relaxed);
                return Some(task);
            }
            if q.shutdown {
                return None;
            }
            q = self.work.wait(q).unwrap_or_else(|p| p.into_inner());
        }
    }

    /// Accepts one worker result into its ticket, finalizing on the
    /// last one.
    fn accept(&self, ticket: TicketId, result: JobResult) {
        let depth = self.queued.load(Ordering::Relaxed);
        let mut tickets = lock(&self.tickets);
        let table = &mut *tickets;
        let Some(t) = table.entries.get_mut(&ticket) else {
            return;
        };
        if t.cancelled {
            // The result raced a cancel: discard it.
            return;
        }
        let stats = &mut t.stats;
        stats.max_queue_depth = stats.max_queue_depth.max(depth);
        if let Ok((out, _)) = &result {
            stats.kernel_sims += out.kernel_sims;
            stats.peak_events = stats.peak_events.max(out.peak_events);
            stats.cells_deduped += out.deduped;
        }
        t.agg
            .as_mut()
            .expect("unfinished tickets aggregate")
            .accept_job(result);
        t.remaining -= 1;
        lock(&self.totals).counters.jobs_executed += 1;
        if t.remaining == 0 {
            let plan = t.plan.take();
            self.finalize_ticket(t);
            let client = t.client;
            if let Some(p) = table.pending.get_mut(&client) {
                *p = p.saturating_sub(1);
            }
            drop(tickets);
            self.done.notify_all();
            // The memo's scenarios go after the waiter is woken: here,
            // or with the last in-flight job's reference.
            drop(plan);
        }
    }

    /// Builds the ticket's report (called with the ticket lock held).
    fn finalize_ticket(&self, t: &mut Ticket) {
        let agg = t.agg.take().expect("tickets finalize exactly once");
        let plans = self.cache.plans().stats();
        let (restarts, recoveries, artifacts_rejected) = agg.fault_totals();
        let stats = PoolStats {
            wall: t.started.elapsed(),
            restarts,
            // Counter deltas around this ticket; exact when the ticket
            // ran alone, approximate when concurrent tickets compiled
            // plans meanwhile.
            plans_compiled: plans
                .plans_compiled
                .saturating_sub(t.plans_before.plans_compiled),
            plan_cache_hits: plans.hits.saturating_sub(t.plans_before.hits),
            recoveries,
            artifacts_rejected,
            per_worker: lock(&self.worker_stats).clone(),
            ..t.stats.clone()
        };
        let totals = &mut lock(&self.totals).counters;
        totals.tickets_completed += 1;
        totals.kernel_sims += stats.kernel_sims as u64;
        totals.cells_deduped += stats.cells_deduped as u64;
        totals.restarts += stats.restarts as u64;
        totals.recoveries += stats.recoveries as u64;
        totals.artifacts_rejected += stats.artifacts_rejected as u64;
        t.report = Some(if t.chaos {
            ServiceReport::Chaos(ChaosOutcome {
                report: chaos::view(agg),
                stats,
            })
        } else {
            ServiceReport::Sweep(SweepOutcome {
                report: agg.finalize(),
                stats,
            })
        });
    }

    fn wait(&self, id: TicketId) -> Result<ServiceReport, WaitError> {
        let mut tickets = lock(&self.tickets);
        loop {
            match tickets.entries.get(&id) {
                None => return Err(WaitError::UnknownTicket),
                Some(t) if t.cancelled => {
                    tickets.entries.remove(&id);
                    return Err(WaitError::Cancelled);
                }
                Some(t) if t.report.is_some() => {
                    let t = tickets.entries.remove(&id).expect("entry just observed");
                    return Ok(t.report.expect("report just observed"));
                }
                Some(_) => {
                    tickets = self.done.wait(tickets).unwrap_or_else(|p| p.into_inner());
                }
            }
        }
    }

    fn poll(&self, id: TicketId) -> Option<TicketStatus> {
        let tickets = lock(&self.tickets);
        tickets.entries.get(&id).map(|t| {
            if t.cancelled {
                TicketStatus::Cancelled
            } else if t.report.is_some() {
                TicketStatus::Done
            } else {
                let total = t.stats.jobs;
                let completed = t.agg.as_ref().map_or(total, Aggregator::accepted);
                if completed == 0 {
                    TicketStatus::Queued { total }
                } else {
                    TicketStatus::Running { completed, total }
                }
            }
        })
    }

    fn cancel(&self, id: TicketId) -> bool {
        // Retract queued jobs first; anything already in flight is
        // discarded at accept time.
        let mut removed = 0usize;
        {
            let mut q = lock(&self.queue);
            for lane in &mut q.lanes {
                lane.tasks.retain(|t| {
                    if t.ticket == id {
                        removed += 1;
                        false
                    } else {
                        true
                    }
                });
            }
        }
        if removed > 0 {
            self.queued.fetch_sub(removed, Ordering::Relaxed);
        }
        let mut tickets = lock(&self.tickets);
        let table = &mut *tickets;
        let Some(t) = table.entries.get_mut(&id) else {
            return false;
        };
        if t.cancelled || t.report.is_some() {
            return false;
        }
        t.cancelled = true;
        let plan = t.plan.take();
        // The quota slot frees immediately: a cancelled ticket is no
        // longer "pending" even while in-flight jobs drain.
        if let Some(p) = table.pending.get_mut(&t.client) {
            *p = p.saturating_sub(1);
        }
        drop(tickets);
        lock(&self.totals).counters.tickets_cancelled += 1;
        self.done.notify_all();
        drop(plan);
        true
    }

    fn disconnect(&self, client: ClientId) {
        // The client's lane holds only its own queued jobs.
        let removed = {
            let mut q = lock(&self.queue);
            match q.lanes.iter().position(|l| l.client == client) {
                Some(i) => {
                    let lane = q.lanes.remove(i);
                    if i < q.next {
                        q.next -= 1;
                    }
                    if q.next >= q.lanes.len() {
                        q.next = 0;
                    }
                    lane.tasks.len()
                }
                None => 0,
            }
        };
        self.queued.fetch_sub(removed, Ordering::Relaxed);
        let mut tickets = lock(&self.tickets);
        let forgotten: Vec<Ticket> = tickets
            .entries
            .extract_if(|_, t| t.client == client)
            .map(|(_, t)| t)
            .collect();
        tickets.pending.remove(&client);
        drop(tickets);
        let unfinished = forgotten
            .iter()
            .filter(|t| !t.cancelled && t.report.is_none())
            .count();
        lock(&self.totals).counters.tickets_cancelled += unfinished as u64;
        self.done.notify_all();
        drop(forgotten);
    }

    fn stats(&self) -> ServiceStats {
        let totals = lock(&self.totals);
        let snapshot = ServiceStats {
            workers: self.workers,
            clients: totals.clients.len(),
            queue_depth: self.queued.load(Ordering::Relaxed),
            ..totals.counters.clone()
        };
        drop(totals);
        let plans = self.cache.plans().stats();
        ServiceStats {
            queue_peak: lock(&self.queue).peak,
            plans_compiled: plans.plans_compiled,
            plan_cache_hits: plans.hits,
            ..snapshot
        }
    }
}

fn worker_loop(inner: Arc<Inner>, w: usize) {
    let mut builder = bb_sim::MachineBuilder::new();
    while let Some(task) = inner.next_task() {
        let plan = {
            let tickets = lock(&inner.tickets);
            tickets
                .entries
                .get(&task.ticket)
                .and_then(|t| t.plan.clone())
        };
        // Cancelled, forgotten or retracted tickets leave orphan tasks;
        // skip them.
        let Some(plan) = plan else { continue };
        let started = Instant::now();
        let result = run_job(&plan, &inner.cache, plan.jobs[task.index], &mut builder);
        let elapsed = started.elapsed();
        {
            let mut ws = lock(&inner.worker_stats);
            ws[w].jobs += 1;
            ws[w].busy += elapsed;
        }
        inner.accept(task.ticket, result);
    }
}

/// The persistent fleet executor (see the module docs).
///
/// Dropping the service initiates shutdown: accepted work drains, then
/// the workers join. Use [`FleetService::shutdown`] for the same thing
/// explicitly.
pub struct FleetService {
    inner: Arc<Inner>,
    handles: Vec<std::thread::JoinHandle<()>>,
}

impl FleetService {
    /// Starts a service with a fresh private [`FleetCache`].
    pub fn start(config: ServiceConfig) -> Self {
        FleetService::with_cache(config, FleetCache::fresh())
    }

    /// Starts a service over an existing cache — shared artifacts
    /// survive service restarts, and multiple services can (read: tests
    /// do) share one cache.
    pub fn with_cache(config: ServiceConfig, cache: Arc<FleetCache>) -> Self {
        let workers = config.workers.max(1);
        let inner = Arc::new(Inner {
            workers,
            queue_capacity: config.queue_capacity,
            quota: config.max_pending_per_client.max(1),
            cache,
            queue: Mutex::new(QueueState {
                lanes: Vec::new(),
                next: 0,
                peak: 0,
                shutdown: false,
            }),
            work: Condvar::new(),
            queued: AtomicUsize::new(0),
            tickets: Mutex::new(TicketTable {
                entries: HashMap::new(),
                pending: HashMap::new(),
            }),
            done: Condvar::new(),
            next_ticket: AtomicU64::new(1),
            worker_stats: Mutex::new(vec![WorkerStats::default(); workers]),
            totals: Mutex::new(Totals::default()),
        });
        let handles = (0..workers)
            .map(|w| {
                let inner = Arc::clone(&inner);
                std::thread::Builder::new()
                    .name(format!("bb-fleet-{w}"))
                    .spawn(move || worker_loop(inner, w))
                    .expect("spawn fleet worker")
            })
            .collect();
        FleetService { inner, handles }
    }

    /// The service's shared artifact cache.
    pub fn cache(&self) -> &Arc<FleetCache> {
        &self.inner.cache
    }

    /// Enqueues a work item for `client` and returns its ticket.
    /// Applies the queue-capacity and per-client-quota admission policy
    /// (see [`ServiceConfig`]) before expanding the grid; an empty grid
    /// finalizes immediately.
    pub fn submit(&self, client: ClientId, item: WorkItem) -> Result<TicketId, SubmitError> {
        self.inner.submit(client, item)
    }

    /// The queue-capacity half of [`submit`](Self::submit)'s admission
    /// policy for a grid of `jobs` jobs, checked without building the
    /// grid: [`SubmitError::Saturated`] if the queue cannot hold them
    /// right now.
    pub fn admits(&self, jobs: usize) -> Result<(), SubmitError> {
        self.inner.admits(jobs)
    }

    /// Non-blocking progress for a ticket; `None` once the report was
    /// collected or its client disconnected (or the id was never
    /// issued).
    pub fn poll(&self, ticket: TicketId) -> Option<TicketStatus> {
        self.inner.poll(ticket)
    }

    /// Blocks until the ticket finalizes and returns its report. Each
    /// report can be collected once; a second wait on the same id
    /// returns [`WaitError::UnknownTicket`].
    pub fn wait(&self, ticket: TicketId) -> Result<ServiceReport, WaitError> {
        self.inner.wait(ticket)
    }

    /// Cancels a ticket: queued jobs are dropped, in-flight results
    /// discarded, the client's quota slot freed. Returns `false` if the
    /// ticket already finalized (its report stays collectable) or is
    /// unknown.
    pub fn cancel(&self, ticket: TicketId) -> bool {
        self.inner.cancel(ticket)
    }

    /// Forgets every ticket `client` submitted and has not collected,
    /// once the client can no longer collect them (the serve layer
    /// calls this when a connection ends). Unfinished tickets are
    /// cancelled: queued jobs are dropped and in-flight results
    /// discarded. Finished reports are dropped, and the client's quota
    /// slots and queue lane are freed. Call it after the client's last
    /// submission; a ticket submitted concurrently may be missed.
    pub fn disconnect(&self, client: ClientId) {
        self.inner.disconnect(client)
    }

    /// Snapshots service-wide observability counters.
    pub fn stats(&self) -> ServiceStats {
        self.inner.stats()
    }

    /// Stops admission, drains accepted work, and joins the workers.
    pub fn shutdown(mut self) {
        self.stop();
    }

    fn stop(&mut self) {
        {
            let mut q = lock(&self.inner.queue);
            q.shutdown = true;
        }
        self.inner.work.notify_all();
        for h in self.handles.drain(..) {
            let _ = h.join();
        }
    }
}

impl Drop for FleetService {
    fn drop(&mut self) {
        self.stop();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pool::tests::tiny_spec;

    #[test]
    fn tickets_resolve_and_reports_match_the_one_shot_path() {
        let service = FleetService::start(ServiceConfig::with_workers(2));
        let ticket = service
            .submit(1, WorkItem::Sweep(tiny_spec([1, 2])))
            .expect("admitted");
        let ServiceReport::Sweep(outcome) = service.wait(ticket).expect("report") else {
            panic!("sweep ticket must yield a sweep report");
        };
        let one_shot = crate::pool::run_sweep(
            &tiny_spec([1, 2]),
            &crate::pool::PoolConfig::with_workers(1),
            &FleetCache::fresh(),
        );
        assert_eq!(outcome.report.to_json(), one_shot.report.to_json());
        // The report was collected: the ticket id is dead.
        assert!(matches!(
            service.wait(ticket),
            Err(WaitError::UnknownTicket)
        ));
        assert_eq!(service.poll(ticket), None);
        let stats = service.stats();
        assert_eq!(stats.tickets_submitted, 1);
        assert_eq!(stats.tickets_completed, 1);
        assert_eq!(stats.jobs_executed, 2);
        assert_eq!(stats.clients, 1);
    }

    #[test]
    fn empty_grids_finalize_immediately() {
        let service = FleetService::start(ServiceConfig::with_workers(1));
        let ticket = service
            .submit(7, WorkItem::Sweep(SweepSpec::new()))
            .expect("admitted");
        assert_eq!(service.poll(ticket), Some(TicketStatus::Done));
        let ServiceReport::Sweep(outcome) = service.wait(ticket).expect("report") else {
            panic!("sweep ticket must yield a sweep report");
        };
        assert_eq!(outcome.report.total_boots, 0);
        assert_eq!(outcome.stats.jobs, 0);
    }

    #[test]
    fn quota_bounds_pending_tickets_per_client() {
        let config = ServiceConfig {
            workers: 1,
            max_pending_per_client: 1,
            ..ServiceConfig::default()
        };
        let service = FleetService::start(config);
        // A big-enough grid keeps the first ticket unfinished while the
        // second submission is judged.
        let first = service
            .submit(1, WorkItem::Sweep(tiny_spec(0..6)))
            .expect("first ticket admitted");
        let second = service.submit(1, WorkItem::Sweep(tiny_spec([99])));
        assert_eq!(
            second,
            Err(SubmitError::QuotaExceeded {
                pending: 1,
                quota: 1
            })
        );
        // Another client is unaffected by the first one's quota.
        let other = service
            .submit(2, WorkItem::Sweep(tiny_spec([50])))
            .expect("other client admitted");
        assert!(service.wait(first).is_ok());
        assert!(service.wait(other).is_ok());
        // The drained quota slot admits the client again.
        let third = service
            .submit(1, WorkItem::Sweep(tiny_spec([99])))
            .expect("quota slot freed");
        assert!(service.wait(third).is_ok());
    }

    #[test]
    fn saturated_queues_push_back() {
        let config = ServiceConfig {
            workers: 1,
            queue_capacity: 4,
            ..ServiceConfig::default()
        };
        let service = FleetService::start(config);
        let first = service
            .submit(1, WorkItem::Sweep(tiny_spec(0..4)))
            .expect("fits the queue");
        // 8 more jobs cannot fit a 4-capacity queue no matter what
        // drained meanwhile.
        let big = service.submit(2, WorkItem::Sweep(tiny_spec(0..8)));
        assert!(
            matches!(
                big,
                Err(SubmitError::Saturated {
                    capacity: 4,
                    jobs: 8,
                    ..
                })
            ),
            "got {big:?}"
        );
        assert!(service.wait(first).is_ok());
        // Once drained, capacity-sized work is admitted again.
        let retry = service
            .submit(2, WorkItem::Sweep(tiny_spec(0..4)))
            .expect("drained queue admits again");
        assert!(service.wait(retry).is_ok());
    }

    #[test]
    fn cancelled_tickets_never_report() {
        let service = FleetService::start(ServiceConfig::with_workers(1));
        let ticket = service
            .submit(1, WorkItem::Sweep(tiny_spec(0..8)))
            .expect("admitted");
        assert!(service.cancel(ticket), "first cancel wins");
        assert!(!service.cancel(ticket), "second cancel is a no-op");
        assert!(matches!(service.wait(ticket), Err(WaitError::Cancelled)));
        assert_eq!(service.stats().tickets_cancelled, 1);
        // The service still executes later work.
        let next = service
            .submit(1, WorkItem::Sweep(tiny_spec([3])))
            .expect("admitted after cancel");
        assert!(service.wait(next).is_ok());
    }

    #[test]
    fn disconnect_forgets_only_that_clients_tickets() {
        let config = ServiceConfig {
            workers: 1,
            max_pending_per_client: 1,
            ..ServiceConfig::default()
        };
        let service = FleetService::start(config);
        let done = service
            .submit(1, WorkItem::Sweep(tiny_spec([1])))
            .expect("admitted");
        while service.poll(done) != Some(TicketStatus::Done) {
            std::thread::sleep(std::time::Duration::from_millis(1));
        }
        let unfinished = service
            .submit(1, WorkItem::Sweep(tiny_spec(0..64)))
            .expect("admitted");
        let other = service
            .submit(2, WorkItem::Sweep(tiny_spec([50])))
            .expect("admitted");
        service.disconnect(1);
        assert_eq!(service.poll(done), None);
        assert_eq!(service.poll(unfinished), None);
        assert!(matches!(
            service.wait(unfinished),
            Err(WaitError::UnknownTicket)
        ));
        assert!(service.poll(other).is_some(), "client 2 is untouched");
        assert!(service.wait(other).is_ok());
        // Client 1's quota slot is free again.
        let again = service
            .submit(1, WorkItem::Sweep(tiny_spec([2])))
            .expect("quota slot freed");
        assert!(service.wait(again).is_ok());
        // Every ticket finalized or was cancelled, exactly once.
        let stats = service.stats();
        assert_eq!(stats.queue_depth, 0);
        assert_eq!(
            stats.tickets_completed + stats.tickets_cancelled,
            stats.tickets_submitted
        );
    }

    #[test]
    fn cross_client_grids_share_the_dedup_cache() {
        let service = FleetService::start(ServiceConfig::with_workers(1));
        let a = service
            .submit(1, WorkItem::Sweep(tiny_spec([5, 6])))
            .expect("admitted");
        let ra = service.wait(a).expect("report");
        // Client 2 submits the identical grid afterwards: every boot is
        // a cross-client dedup hit.
        let b = service
            .submit(2, WorkItem::Sweep(tiny_spec([5, 6])))
            .expect("admitted");
        let rb = service.wait(b).expect("report");
        let (ServiceReport::Sweep(ra), ServiceReport::Sweep(rb)) = (ra, rb) else {
            panic!("sweep tickets must yield sweep reports");
        };
        assert_eq!(ra.report.to_json(), rb.report.to_json());
        assert_eq!(ra.stats.cells_deduped, 0);
        assert_eq!(rb.stats.cells_deduped, 4, "2 jobs x 2 configs, all hits");
        assert_eq!(rb.stats.kernel_sims, 0, "nothing re-simulates");
        assert_eq!(service.stats().cells_deduped, 4);
    }

    #[test]
    fn shutdown_drains_accepted_work() {
        let service = FleetService::start(ServiceConfig::with_workers(2));
        let tickets: Vec<_> = (0..3)
            .map(|i| {
                service
                    .submit(i, WorkItem::Sweep(tiny_spec([i])))
                    .expect("admitted")
            })
            .collect();
        // Collect every report, then drop the service: both orders of
        // (drain, shutdown) must leave nothing stuck.
        for t in tickets {
            assert!(service.wait(t).is_ok());
        }
        service.shutdown();
    }

    #[test]
    fn stats_render_the_serve_stats_schema() {
        let service = FleetService::start(ServiceConfig::with_workers(1));
        let t = service
            .submit(1, WorkItem::Sweep(tiny_spec([1])))
            .expect("admitted");
        service.wait(t).expect("report");
        let doc = service.stats().to_json();
        let parsed = crate::json::parse(&doc).expect("stats JSON parses");
        assert_eq!(
            parsed.get("schema").and_then(crate::json::Json::as_str),
            Some(crate::json::SCHEMA_SERVE_STATS)
        );
        assert_eq!(
            parsed
                .get("jobs_executed")
                .and_then(crate::json::Json::as_f64),
            Some(1.0)
        );
        assert_eq!(
            parsed
                .get("tickets")
                .and_then(|t| t.get("completed"))
                .and_then(crate::json::Json::as_f64),
            Some(1.0)
        );
    }
}
