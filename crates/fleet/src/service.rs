//! The persistent fleet executor: a work-queue service behind the
//! one-shot sweep entry points and the `bbsim serve` daemon.
//!
//! A [`FleetService`] owns long-lived worker threads, a central bounded
//! work queue with per-client round-robin fairness, and one shared
//! [`FleetCache`] — so every ticket it executes shares deduplicated
//! boot outcomes and kernel checkpoints with every other ticket, across
//! submissions and across clients. Scenarios, and the boot plans
//! compiled for them, live only until the last of their ticket's jobs
//! that boots them, and a shared checkpoint holds no plan, so it keeps
//! no scenario alive. This is the fleet-scale shape the paper's
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
//!   client holds too many tickets.
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
//! client submitting a 4-job one. Within a lane, jobs run in the order
//! [`SweepSpec::jobs`] queues them.
//!
//! **One state, one lock.** The ticket table, the client lanes, the
//! round-robin cursor and every counter form one plain `State` behind
//! one mutex, beside two condvars (`work` wakes workers, `done` wakes
//! waiters). Each call makes its change as one `State` transition under
//! the lock, so a ticket and its queued jobs never disagree; plans and
//! forgotten tickets are dropped after the lock is released. A ticket
//! is `Running`, `Done` or `Cancelled`, and the queue depth and a
//! client's quota count are computed from the lanes and the table.
//! `State` holds no thread, lock or cache, so a unit test drives it
//! directly through every interleaving of submit, dispatch, finish,
//! cancel, collect and disconnect for two clients, two tickets each and
//! two workers, checking the invariants after every step.
//!
//! **Determinism** is untouched by any of this: results are aggregated
//! per ticket into slots addressed by `(cell, plan, corruption, seed)`
//! and finalized in slot order, so a
//! ticket's report is byte-identical for any worker count, any client
//! interleaving, and any cache state. Only [`PoolStats`] /
//! [`ServiceStats`] — host-side observability, never part of a report —
//! can vary.

use std::collections::hash_map::Entry;
use std::collections::{HashMap, VecDeque};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

use crate::aggregate::Aggregator;
use crate::chaos::{self, ChaosOutcome};
use crate::json;
use crate::pool::{
    lock, run_job, FleetCache, JobResult, OutcomeKey, PoolStats, SharedBoot, SweepOutcome,
    WorkerStats,
};
use crate::spec::{Job, ScenarioKey, SweepSpec};
use bb_core::{PlanCacheStats, Scenario};

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
    /// Maximum tickets a client holds before [`submit`] returns
    /// [`SubmitError::QuotaExceeded`]. A ticket is held from its
    /// submission, running, finished or cancelled, until [`wait`]
    /// returns for it or the client disconnects; so the ticket table
    /// never holds more than this many tickets per client.
    ///
    /// [`submit`]: FleetService::submit
    /// [`wait`]: FleetService::wait
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
#[derive(Debug, Clone)]
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
    /// The client already holds its quota of tickets, counting finished
    /// and cancelled ones it has not collected. A slot frees when
    /// [`FleetService::wait`] returns for one of them or the client
    /// disconnects.
    QuotaExceeded {
        /// Tickets the client holds.
        pending: usize,
        /// The configured bound
        /// ([`ServiceConfig::max_pending_per_client`]).
        quota: usize,
    },
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
                "client quota exceeded: {pending} uncollected ticket(s) of {quota} allowed"
            ),
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
    /// Client lanes opened. A lane opens at a client's first submission
    /// and closes when the client disconnects, so an id that submits
    /// again after [`FleetService::disconnect`] counts twice. The server
    /// gives every connection a fresh id, so there this counts the
    /// connections that submitted work.
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
    /// hits, when one client's grid overlaps another's — or from a
    /// chaos ticket's outcome memo.
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
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Task {
    ticket: TicketId,
    index: usize,
}

/// A ticket's expanded execution plan, shared with the workers running
/// its jobs. The ticket drops it when it finalizes or is cancelled; an
/// in-flight job holds it until that job ends. Its scenarios go sooner:
/// each with the last job that boots it (see [`Plan::release`]).
pub(crate) struct Plan {
    pub(crate) spec: SweepSpec,
    pub(crate) jobs: Vec<Job>,
    /// Each job's entry in `scenarios`: jobs with equal `ScenarioKey`s
    /// share one (a key with a NaN parameter equals nothing, so each of
    /// its jobs has its own).
    slots: Vec<usize>,
    /// The ticket's scenario memo, the only way its jobs, plain and
    /// supervised, obtain a scenario. Workers use it outside the state
    /// lock, so it has a lock of its own.
    scenarios: Mutex<Vec<ScenarioMemo>>,
    /// The ticket's supervised outcome memo: a boot that never reads
    /// its staged artifact is the same in every corruption slot of its
    /// cell, so the slots after the first replay it (see [`run_job`]).
    outcomes: Mutex<HashMap<OutcomeKey, SharedBoot>>,
}

/// One key's entry in a ticket's scenario memo.
#[derive(Default)]
struct ScenarioMemo {
    /// The ticket's jobs of this key that have not finished.
    jobs_left: usize,
    /// The scenario, once one of those jobs built it.
    scenario: Option<Arc<Scenario>>,
}

impl Plan {
    /// The memoized scenario of job `index`, building (outside the
    /// lock) and storing on a miss. On a racing double-build the first
    /// store wins, so every job of a key converges on one `Arc` — the
    /// pointer identity the plan cache keys on — and so on one unit plan.
    pub(crate) fn scenario(
        &self,
        index: usize,
        build: impl FnOnce() -> Arc<Scenario>,
    ) -> Arc<Scenario> {
        let slot = self.slots[index];
        if let Some(hit) = lock(&self.scenarios)[slot].scenario.clone() {
            return hit;
        }
        let built = build();
        let mut memo = lock(&self.scenarios);
        memo[slot].scenario.get_or_insert(built).clone()
    }

    /// Counts job `index` finished, whatever its result. The last job
    /// of its key takes the key's scenario, if one was built, for the
    /// caller to drop outside the lock. A cancelled ticket's retracted
    /// jobs never finish: their scenarios go with the plan.
    pub(crate) fn release(&self, index: usize) -> Option<Arc<Scenario>> {
        let mut memo = lock(&self.scenarios);
        let entry = &mut memo[self.slots[index]];
        entry.jobs_left -= 1;
        let last = entry.jobs_left == 0;
        entry.scenario.take_if(|_| last)
    }

    /// The memoized outcome of the supervised boot `key` names, if a
    /// job of another corruption slot ran it.
    pub(crate) fn outcome(&self, key: &OutcomeKey) -> Option<SharedBoot> {
        lock(&self.outcomes).get(key).cloned()
    }

    /// Memoizes a supervised boot's outcome; false if another slot's
    /// run of the boot was stored first. First insert wins, as in the
    /// checkpoint memo: two slots that raced both simulated the same
    /// deterministic boot, and the loser counts its run as a replay.
    pub(crate) fn remember(&self, key: OutcomeKey, outcome: SharedBoot) -> bool {
        let mut memo = lock(&self.outcomes);
        !memo.contains_key(&key) && memo.insert(key, outcome).is_none()
    }
}

/// Where a ticket is in its life.
#[derive(Clone)]
enum Phase {
    /// Jobs are queued or in flight; `remaining` results are still to
    /// come into `agg`.
    Running {
        plan: Arc<Plan>,
        agg: Aggregator,
        remaining: usize,
    },
    /// Finalized; the report waits for [`FleetService::wait`].
    Done(ServiceReport),
    /// Cancelled; no report will come.
    Cancelled,
}

#[derive(Clone)]
struct Ticket {
    client: ClientId,
    /// Finalize into the chaos view instead of the sweep report.
    chaos: bool,
    started: Instant,
    plans_before: PlanCacheStats,
    /// The counters accumulated job by job; finalize fills in the rest.
    stats: PoolStats,
    phase: Phase,
}

impl Ticket {
    /// A running ticket for `item`: jobs expanded, slots allocated and
    /// plan built, all before the state lock is taken.
    fn new(client: ClientId, item: WorkItem, plans_before: PlanCacheStats) -> Ticket {
        let (spec, chaos) = match item {
            WorkItem::Sweep(spec) => (spec, false),
            WorkItem::Chaos(spec) => (spec, true),
        };
        let jobs = spec.jobs();
        let total = jobs.len();
        let agg = Aggregator::new(&spec);
        let mut keys = HashMap::with_capacity(total);
        let mut scenarios: Vec<ScenarioMemo> = Vec::with_capacity(total);
        let mut slots = Vec::with_capacity(total);
        for job in &jobs {
            let cell = &spec.cells[job.cell];
            let key = ScenarioKey::new(cell, cell.seeds[job.seed_idx]);
            let slot = *keys.entry(key).or_insert(scenarios.len());
            if slot == scenarios.len() {
                scenarios.push(ScenarioMemo::default());
            }
            scenarios[slot].jobs_left += 1;
            slots.push(slot);
        }
        let plan = Plan {
            spec,
            jobs,
            slots,
            scenarios: Mutex::new(scenarios),
            outcomes: Mutex::default(),
        };
        Ticket {
            client,
            chaos,
            started: Instant::now(),
            plans_before,
            stats: PoolStats {
                jobs: total,
                // The historical semantic: queue depth is at least this
                // ticket's own job count.
                max_queue_depth: total,
                ..PoolStats::default()
            },
            phase: Phase::Running {
                plan: Arc::new(plan),
                agg,
                remaining: total,
            },
        }
    }

    /// Turns a running ticket into its report, adds it to the service
    /// `totals`, and returns its plan for the caller to drop after
    /// releasing the state lock.
    fn finalize(
        &mut self,
        plans: PlanCacheStats,
        per_worker: &[WorkerStats],
        totals: &mut ServiceStats,
    ) -> Arc<Plan> {
        let Phase::Running { plan, agg, .. } = std::mem::replace(&mut self.phase, Phase::Cancelled)
        else {
            unreachable!("only running tickets finalize");
        };
        let (restarts, recoveries, artifacts_rejected) = agg.fault_totals();
        let stats = PoolStats {
            workers: per_worker.len(),
            wall: self.started.elapsed(),
            restarts,
            // Counter deltas around this ticket; exact when the ticket
            // ran alone, approximate when concurrent tickets compiled
            // plans meanwhile.
            plans_compiled: plans
                .plans_compiled
                .saturating_sub(self.plans_before.plans_compiled),
            plan_cache_hits: plans.hits.saturating_sub(self.plans_before.hits),
            recoveries,
            artifacts_rejected,
            per_worker: per_worker.to_vec(),
            ..std::mem::take(&mut self.stats)
        };
        totals.tickets_completed += 1;
        totals.kernel_sims += stats.kernel_sims as u64;
        totals.cells_deduped += stats.cells_deduped as u64;
        totals.restarts += stats.restarts as u64;
        totals.recoveries += stats.recoveries as u64;
        totals.artifacts_rejected += stats.artifacts_rejected as u64;
        self.phase = Phase::Done(if self.chaos {
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
        plan
    }
}

/// One client's FIFO lane of the central queue.
#[derive(Clone)]
struct Lane {
    client: ClientId,
    tasks: VecDeque<Task>,
}

/// The service's whole state: the ticket table, the client lanes, the
/// round-robin cursor, and the per-worker and service counters. It has
/// no thread, lock or cache inside: [`FleetService`] keeps it behind one
/// mutex and makes each call one transition, taking plan-cache numbers
/// as arguments, and the unit tests drive it directly.
#[derive(Clone)]
struct State {
    /// Maximum jobs queued across all clients.
    capacity: usize,
    /// Maximum tickets one client holds.
    quota: usize,
    tickets: HashMap<TicketId, Ticket>,
    lanes: Vec<Lane>,
    /// Round-robin cursor over `lanes`.
    next_lane: usize,
    next_ticket: TicketId,
    per_worker: Vec<WorkerStats>,
    /// The cumulative counters; [`State::stats`] fills in the gauges.
    counters: ServiceStats,
    shutdown: bool,
}

impl State {
    fn new(config: &ServiceConfig) -> State {
        let workers = config.workers.max(1);
        State {
            capacity: config.queue_capacity,
            quota: config.max_pending_per_client.max(1),
            tickets: HashMap::new(),
            lanes: Vec::new(),
            next_lane: 0,
            next_ticket: 1,
            per_worker: vec![WorkerStats::default(); workers],
            counters: ServiceStats {
                workers,
                ..ServiceStats::default()
            },
            shutdown: false,
        }
    }

    /// Jobs queued right now, across every lane.
    fn depth(&self) -> usize {
        self.lanes.iter().map(|l| l.tasks.len()).sum()
    }

    /// Backpressure: refuses `jobs` more jobs when the queue cannot hold
    /// them.
    fn admits(&self, jobs: usize) -> Result<(), SubmitError> {
        let queued = self.depth();
        if queued.saturating_add(jobs) > self.capacity {
            return Err(SubmitError::Saturated {
                queued,
                capacity: self.capacity,
                jobs,
            });
        }
        Ok(())
    }

    /// Admits `ticket` under the quota and the queue bound, queues its
    /// jobs on its client's lane (opening the lane on the client's first
    /// submission), and finalizes an empty grid at once.
    fn submit(&mut self, mut ticket: Ticket) -> Result<TicketId, SubmitError> {
        let client = ticket.client;
        let held = self.tickets.values().filter(|t| t.client == client).count();
        if held >= self.quota {
            return Err(SubmitError::QuotaExceeded {
                pending: held,
                quota: self.quota,
            });
        }
        let total = ticket.stats.jobs;
        self.admits(total)?;
        let id = self.next_ticket;
        self.next_ticket += 1;
        let lane = match self.lanes.iter().position(|l| l.client == client) {
            Some(i) => &mut self.lanes[i],
            None => {
                self.counters.clients += 1;
                self.lanes.push(Lane {
                    client,
                    tasks: VecDeque::new(),
                });
                self.lanes.last_mut().expect("just pushed")
            }
        };
        lane.tasks
            .extend((0..total).map(|index| Task { ticket: id, index }));
        self.counters.tickets_submitted += 1;
        self.counters.queue_peak = self.counters.queue_peak.max(self.depth());
        if total == 0 {
            // An empty grid finalizes immediately, matching the one-shot
            // entry points (zero boots, empty report).
            let plans = ticket.plans_before;
            ticket.finalize(plans, &self.per_worker, &mut self.counters);
        }
        self.tickets.insert(id, ticket);
        Ok(id)
    }

    /// Pops the next task round-robin across client lanes, with the plan
    /// its job runs in.
    fn dispatch(&mut self) -> Option<(Task, Arc<Plan>)> {
        let n = self.lanes.len();
        for probe in 0..n {
            let i = (self.next_lane + probe) % n;
            if let Some(task) = self.lanes[i].tasks.pop_front() {
                self.next_lane = (i + 1) % n;
                let Some(Phase::Running { plan, .. }) =
                    self.tickets.get(&task.ticket).map(|t| &t.phase)
                else {
                    unreachable!("queued tasks belong to running tickets");
                };
                return Some((task, Arc::clone(plan)));
            }
        }
        None
    }

    /// Takes `worker`'s result for `task`, which kept it busy for `busy`.
    /// A result for a cancelled or forgotten ticket is discarded. The
    /// ticket's last result finalizes it, and its plan is returned for
    /// the caller to drop after releasing the state lock.
    fn finish(
        &mut self,
        task: Task,
        worker: usize,
        busy: Duration,
        result: JobResult,
        plans: PlanCacheStats,
    ) -> Option<Arc<Plan>> {
        let ws = &mut self.per_worker[worker];
        ws.jobs += 1;
        ws.busy += busy;
        let depth = self.depth();
        let t = self.tickets.get_mut(&task.ticket)?;
        let Phase::Running { agg, remaining, .. } = &mut t.phase else {
            return None;
        };
        let stats = &mut t.stats;
        stats.max_queue_depth = stats.max_queue_depth.max(depth);
        if let Ok((out, _)) = &result {
            stats.kernel_sims += out.kernel_sims;
            stats.peak_events = stats.peak_events.max(out.peak_events);
            stats.cells_deduped += out.deduped;
        }
        agg.accept_job(result);
        *remaining -= 1;
        self.counters.jobs_executed += 1;
        if *remaining > 0 {
            return None;
        }
        Some(t.finalize(plans, &self.per_worker, &mut self.counters))
    }

    /// Hands over a finished ticket's outcome and forgets the ticket;
    /// `None` while it is still running.
    fn collect(&mut self, id: TicketId) -> Option<Result<ServiceReport, WaitError>> {
        match self.tickets.entry(id) {
            Entry::Vacant(_) => Some(Err(WaitError::UnknownTicket)),
            Entry::Occupied(e) if matches!(e.get().phase, Phase::Running { .. }) => None,
            Entry::Occupied(e) => match e.remove().phase {
                Phase::Done(report) => Some(Ok(report)),
                _ => Some(Err(WaitError::Cancelled)),
            },
        }
    }

    fn poll(&self, id: TicketId) -> Option<TicketStatus> {
        let t = self.tickets.get(&id)?;
        Some(match &t.phase {
            Phase::Cancelled => TicketStatus::Cancelled,
            Phase::Done(_) => TicketStatus::Done,
            Phase::Running { remaining, .. } => {
                let total = t.stats.jobs;
                match total - remaining {
                    0 => TicketStatus::Queued { total },
                    completed => TicketStatus::Running { completed, total },
                }
            }
        })
    }

    /// Cancels a running ticket and retracts its queued jobs. Returns
    /// its plan, for the caller to drop after releasing the state lock,
    /// or `None` if the ticket is not running.
    fn cancel(&mut self, id: TicketId) -> Option<Arc<Plan>> {
        let t = self.tickets.get_mut(&id)?;
        let plan = match std::mem::replace(&mut t.phase, Phase::Cancelled) {
            Phase::Running { plan, .. } => plan,
            finished => {
                t.phase = finished;
                return None;
            }
        };
        let client = t.client;
        self.counters.tickets_cancelled += 1;
        // A ticket's tasks all sit in its client's lane.
        if let Some(lane) = self.lanes.iter_mut().find(|l| l.client == client) {
            lane.tasks.retain(|task| task.ticket != id);
        }
        Some(plan)
    }

    /// Closes `client`'s lane and forgets its tickets, counting the
    /// running ones as cancelled. Returns them for the caller to drop
    /// after releasing the state lock.
    fn disconnect(&mut self, client: ClientId) -> Vec<Ticket> {
        if let Some(i) = self.lanes.iter().position(|l| l.client == client) {
            self.lanes.remove(i);
            if i < self.next_lane {
                self.next_lane -= 1;
            }
            if self.next_lane >= self.lanes.len() {
                self.next_lane = 0;
            }
        }
        let forgotten: Vec<Ticket> = self
            .tickets
            .extract_if(|_, t| t.client == client)
            .map(|(_, t)| t)
            .collect();
        let running = forgotten
            .iter()
            .filter(|t| matches!(t.phase, Phase::Running { .. }))
            .count();
        self.counters.tickets_cancelled += running as u64;
        forgotten
    }

    fn stats(&self, plans: PlanCacheStats) -> ServiceStats {
        ServiceStats {
            queue_depth: self.depth(),
            plans_compiled: plans.plans_compiled,
            plan_cache_hits: plans.hits,
            ..self.counters.clone()
        }
    }
}

/// What the service's threads share.
struct Inner {
    cache: Arc<FleetCache>,
    state: Mutex<State>,
    /// Signals workers that jobs were queued or shutdown began.
    work: Condvar,
    /// Signals waiters that a ticket finalized, was cancelled or was
    /// forgotten.
    done: Condvar,
}

fn worker_loop(inner: Arc<Inner>, w: usize) {
    let mut builder = bb_sim::MachineBuilder::new();
    loop {
        let (task, plan) = {
            let mut state = lock(&inner.state);
            loop {
                // Shutdown drains accepted work before stopping.
                if let Some(next) = state.dispatch() {
                    break next;
                }
                if state.shutdown {
                    return;
                }
                state = inner.work.wait(state).unwrap_or_else(|p| p.into_inner());
            }
        };
        let started = Instant::now();
        let result = run_job(&plan, &inner.cache, task.index, &mut builder);
        let busy = started.elapsed();
        let plans = inner.cache.plans().stats();
        let finalized = lock(&inner.state).finish(task, w, busy, result, plans);
        if finalized.is_some() {
            inner.done.notify_all();
        }
        // After the waiter is woken, a scenario's last job drops it and
        // its plans; the rest of the plan goes with the ticket's reference
        // here, or with the last in-flight job's.
        if let Some(scenario) = plan.release(task.index) {
            drop(scenario);
            inner.cache.plans().evict_dropped();
        }
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
        let state = State::new(&config);
        let workers = state.per_worker.len();
        let inner = Arc::new(Inner {
            cache,
            state: Mutex::new(state),
            work: Condvar::new(),
            done: Condvar::new(),
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
    /// (see [`ServiceConfig`]); the queue bound is checked before the
    /// grid is expanded as well. An empty grid finalizes immediately.
    pub fn submit(&self, client: ClientId, item: WorkItem) -> Result<TicketId, SubmitError> {
        // Refuse what cannot fit before expanding jobs or allocating
        // slots: a grid's job count is cheap to compute, its expansion
        // is not.
        let (WorkItem::Sweep(spec) | WorkItem::Chaos(spec)) = &item;
        self.admits(spec.job_count())?;
        let ticket = Ticket::new(client, item, self.inner.cache.plans().stats());
        let queued = ticket.stats.jobs > 0;
        let id = lock(&self.inner.state).submit(ticket)?;
        if queued {
            self.inner.work.notify_all();
        }
        Ok(id)
    }

    /// The queue-capacity half of [`submit`](Self::submit)'s admission
    /// policy for a grid of `jobs` jobs, checked without building the
    /// grid: [`SubmitError::Saturated`] if the queue cannot hold them
    /// right now.
    pub fn admits(&self, jobs: usize) -> Result<(), SubmitError> {
        lock(&self.inner.state).admits(jobs)
    }

    /// Non-blocking progress for a ticket; `None` once the report was
    /// collected or its client disconnected (or the id was never
    /// issued).
    pub fn poll(&self, ticket: TicketId) -> Option<TicketStatus> {
        lock(&self.inner.state).poll(ticket)
    }

    /// Blocks until the ticket finalizes and returns its report. Each
    /// report can be collected once; a second wait on the same id
    /// returns [`WaitError::UnknownTicket`]. Returning, with the report
    /// or with [`WaitError::Cancelled`], frees the ticket's quota slot.
    pub fn wait(&self, ticket: TicketId) -> Result<ServiceReport, WaitError> {
        let mut state = lock(&self.inner.state);
        loop {
            if let Some(outcome) = state.collect(ticket) {
                return outcome;
            }
            state = self
                .inner
                .done
                .wait(state)
                .unwrap_or_else(|p| p.into_inner());
        }
    }

    /// Cancels a ticket: queued jobs are dropped and in-flight results
    /// discarded. The ticket keeps its client's quota slot until
    /// [`wait`](Self::wait) collects the cancellation or the client
    /// disconnects. Returns `false` if the ticket already finalized (its
    /// report stays collectable), was already cancelled, or is unknown.
    pub fn cancel(&self, ticket: TicketId) -> bool {
        let plan = lock(&self.inner.state).cancel(ticket);
        if plan.is_none() {
            return false;
        }
        self.inner.done.notify_all();
        true
    }

    /// Forgets every ticket `client` submitted and has not collected,
    /// once the client can no longer collect them (the serve layer
    /// calls this when a connection ends). Unfinished tickets are
    /// cancelled: queued jobs are dropped and in-flight results
    /// discarded. Finished reports are dropped, and the client's quota
    /// slots and queue lane are freed. A later submission under the same
    /// id opens a new lane.
    pub fn disconnect(&self, client: ClientId) {
        let forgotten = lock(&self.inner.state).disconnect(client);
        if !forgotten.is_empty() {
            self.inner.done.notify_all();
        }
    }

    /// Snapshots service-wide observability counters.
    pub fn stats(&self) -> ServiceStats {
        let plans = self.inner.cache.plans().stats();
        lock(&self.inner.state).stats(plans)
    }

    /// Stops admission, drains accepted work, and joins the workers.
    pub fn shutdown(mut self) {
        self.stop();
    }

    fn stop(&mut self) {
        lock(&self.inner.state).shutdown = true;
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
    use crate::pool::JobFailure;
    use std::collections::HashSet;

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
    fn uncollected_tickets_hold_the_quota_until_wait() {
        let config = ServiceConfig {
            workers: 1,
            max_pending_per_client: 1,
            ..ServiceConfig::default()
        };
        let service = FleetService::start(config);
        let refused = Err(SubmitError::QuotaExceeded {
            pending: 1,
            quota: 1,
        });
        let first = service
            .submit(1, WorkItem::Sweep(tiny_spec([1])))
            .expect("admitted");
        while service.poll(first) != Some(TicketStatus::Done) {
            std::thread::sleep(std::time::Duration::from_millis(1));
        }
        // A finished report the client has not collected holds its slot.
        assert_eq!(service.submit(1, WorkItem::Sweep(tiny_spec([2]))), refused);
        assert!(service.wait(first).is_ok());
        // So does a cancellation, until `wait` collects it.
        let second = service
            .submit(1, WorkItem::Sweep(tiny_spec(0..8)))
            .expect("admitted once the report was collected");
        assert!(service.cancel(second));
        assert_eq!(service.submit(1, WorkItem::Sweep(tiny_spec([2]))), refused);
        assert!(matches!(service.wait(second), Err(WaitError::Cancelled)));
        let third = service
            .submit(1, WorkItem::Sweep(tiny_spec([2])))
            .expect("admitted once the cancellation was collected");
        assert!(service.wait(third).is_ok());
    }

    #[test]
    fn clients_count_lane_openings() {
        let service = FleetService::start(ServiceConfig::with_workers(1));
        let run = |client| {
            let t = service
                .submit(client, WorkItem::Sweep(tiny_spec([1])))
                .expect("admitted");
            assert!(service.wait(t).is_ok());
        };
        run(7);
        run(7);
        assert_eq!(service.stats().clients, 1, "one lane while 7 is connected");
        service.disconnect(7);
        // Reusing the id after its disconnect opens a second lane.
        run(7);
        assert_eq!(service.stats().clients, 2);
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
        // Quota 2: the finished ticket holds one slot while the second
        // submission takes the other.
        let config = ServiceConfig {
            workers: 1,
            max_pending_per_client: 2,
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

    /// Supervised jobs take their scenario from the ticket's memo, as
    /// plain jobs do: a chaos ticket of one seed, three fault-plan slots
    /// and two corruption slots builds its scenario once.
    #[test]
    fn a_chaos_tickets_jobs_share_one_scenario() {
        let cell = crate::spec::tests::tiny_cell("chaos")
            .fault_plans(2, 100)
            .corruption_plans(1, 500)
            .conventional_vs_bb();
        let item = WorkItem::Chaos(SweepSpec::new().cell(cell));
        let ticket = Ticket::new(1, item, FleetCache::fresh().plans().stats());
        let plan = proto_plan(&ticket);
        let cache = FleetCache::new();
        let mut builder = bb_sim::MachineBuilder::new();
        assert_eq!(plan.jobs.len(), 6);
        for index in 0..plan.jobs.len() {
            // Some fault plans hang a boot; only the scenario matters.
            let _ = run_job(plan, &cache, index, &mut builder);
        }
        let memo = lock(&plan.scenarios);
        assert_eq!(memo.len(), 1);
        assert!(memo[0].scenario.is_some());
    }

    /// A supervised boot that never reads its staged artifact runs once
    /// per ticket across its cell's corruption slots: the memo holds
    /// one outcome per seed and fault-plan slot, the conventional
    /// config's and never the Pre-parser's, and both corrupted slots
    /// replay it. A cell with one corruption slot, or a grid with dedup
    /// off, memoizes nothing.
    #[test]
    fn artifact_blind_boots_are_shared_across_corruption_slots() {
        let cell = |corruption| {
            crate::spec::tests::tiny_cell("chaos")
                .seeds([1, 2])
                .fault_plans(1, 100)
                .corruption_plans(corruption, 500)
                .supervision(Some(crate::Supervision::default()))
                .fallback(bb_core::FallbackPolicy::default())
                .conventional_vs_bb()
        };
        let cache = FleetCache::new();
        let mut builder = bb_sim::MachineBuilder::new();
        // Runs the ticket's jobs in queue order: (memo entries, boots
        // replayed).
        let mut run = |corruption, dedup| {
            let spec = SweepSpec::new().cell(cell(corruption)).with_dedup(dedup);
            let item = WorkItem::Chaos(spec);
            let ticket = Ticket::new(1, item, cache.plans().stats());
            let plan = proto_plan(&ticket);
            let mut replayed = 0;
            for index in 0..plan.jobs.len() {
                let (out, records) = run_job(plan, &cache, index, &mut builder).expect("boots");
                assert_eq!(records.len(), 2, "a replayed boot keeps its record");
                replayed += out.deduped;
            }
            let memoized = lock(&plan.outcomes).len();
            (memoized, replayed)
        };
        assert_eq!(run(2, true), (2 * 2, 2 * 2 * 2));
        assert_eq!(run(0, true), (0, 0));
        assert_eq!(run(2, false), (0, 0), "dedup off simulates every slot");
    }

    /// The interleaving check's scope. Each ticket is a two-job grid and
    /// each client's quota is one ticket.
    const CLIENTS: usize = 2;
    const TICKETS_PER_CLIENT: usize = 2;
    const WORKERS: usize = 2;

    /// One caller or worker action against the state.
    #[derive(Debug, Clone, Copy)]
    enum Step {
        /// The client submits its next ticket.
        Submit(usize),
        /// An idle worker takes the next task.
        Dispatch(usize),
        /// A busy worker's result arrives.
        Finish(usize),
        Cancel(TicketId),
        /// A `wait` that does not block: the ticket is not running.
        Collect(TicketId),
        Disconnect(usize),
    }

    /// The state plus what its callers and workers have done and seen.
    #[derive(Clone)]
    struct World {
        state: State,
        /// The task each worker has in flight.
        flight: [Option<Task>; WORKERS],
        /// Tickets admitted per client.
        submitted: [usize; CLIENTS],
        /// Whether the client submitted since it last disconnected (or
        /// has not disconnected yet).
        connected: [bool; CLIENTS],
        /// Bit `id`: a collect returned the ticket's report.
        reported: u8,
        /// Bit `id`: a cancel of the ticket returned true.
        cancelled: u8,
    }

    impl World {
        fn steps(&self) -> Vec<Step> {
            let mut steps = Vec::new();
            for c in 0..CLIENTS {
                if self.submitted[c] < TICKETS_PER_CLIENT {
                    steps.push(Step::Submit(c));
                }
                if self.connected[c] {
                    steps.push(Step::Disconnect(c));
                }
            }
            for (w, task) in self.flight.iter().enumerate() {
                match task {
                    None if self.state.depth() > 0 => steps.push(Step::Dispatch(w)),
                    None => {}
                    Some(_) => steps.push(Step::Finish(w)),
                }
            }
            for id in 1..self.state.next_ticket {
                if let Some(t) = self.state.tickets.get(&id) {
                    steps.push(Step::Cancel(id));
                    if !matches!(t.phase, Phase::Running { .. }) {
                        steps.push(Step::Collect(id));
                    }
                }
            }
            steps
        }

        /// Applies `step`, checking what the call returned.
        fn apply(&mut self, step: Step, proto: &Ticket) -> Result<(), String> {
            let state = &mut self.state;
            match step {
                Step::Submit(c) => {
                    let client = c as ClientId;
                    let held = state.tickets.values().filter(|t| t.client == client);
                    let held = held.count();
                    let ticket = Ticket {
                        client,
                        ..proto.clone()
                    };
                    match state.submit(ticket) {
                        Ok(_) if held < state.quota => {
                            self.submitted[c] += 1;
                            self.connected[c] = true;
                        }
                        Err(SubmitError::QuotaExceeded { pending, .. })
                            if pending == held && held >= state.quota => {}
                        other => return Err(format!("submit with {held} held: {other:?}")),
                    }
                }
                Step::Dispatch(w) => {
                    let (task, _) = state.dispatch().ok_or("nothing to dispatch")?;
                    self.flight[w] = Some(task);
                }
                Step::Finish(w) => {
                    let task = self.flight[w].take().expect("a task in flight");
                    let fail = JobFailure {
                        job: proto_plan(proto).jobs[task.index],
                        seed: task.index as u64,
                        kind: crate::FailureKind::Panic("synthetic".into()),
                    };
                    let plans = proto.plans_before;
                    let finalized = state.finish(task, w, Duration::ZERO, Err(fail), plans);
                    let done = state
                        .tickets
                        .get(&task.ticket)
                        .is_some_and(|t| matches!(t.phase, Phase::Done(_)));
                    if finalized.is_some() != done {
                        return Err(format!("finish returned a plan: {}", finalized.is_some()));
                    }
                }
                Step::Cancel(id) => {
                    let running = state
                        .tickets
                        .get(&id)
                        .is_some_and(|t| matches!(t.phase, Phase::Running { .. }));
                    let cancelled = state.cancel(id).is_some();
                    if cancelled != running {
                        return Err(format!("cancel of ticket {id} returned {cancelled}"));
                    }
                    if cancelled {
                        self.cancelled |= 1 << id;
                    }
                }
                Step::Collect(id) => {
                    let bit = 1 << id;
                    match state.collect(id) {
                        Some(Ok(_)) if self.reported & bit != 0 => {
                            return Err(format!("ticket {id} reported twice"));
                        }
                        Some(Ok(_)) if self.cancelled & bit != 0 => {
                            return Err(format!("ticket {id} reported after its cancel"));
                        }
                        Some(Ok(_)) => self.reported |= bit,
                        Some(Err(WaitError::Cancelled)) if self.cancelled & bit != 0 => {}
                        other => return Err(format!("collect of ticket {id}: {other:?}")),
                    }
                }
                Step::Disconnect(c) => {
                    state.disconnect(c as ClientId);
                    self.connected[c] = false;
                }
            }
            Ok(())
        }

        /// The invariants that hold between any two steps.
        fn check(&self) -> Result<(), String> {
            let state = &self.state;
            for c in 0..CLIENTS as ClientId {
                let held = state.tickets.values().filter(|t| t.client == c).count();
                if held > state.quota {
                    return Err(format!("client {c} holds {held} tickets"));
                }
            }
            for lane in &state.lanes {
                for task in &lane.tasks {
                    match state.tickets.get(&task.ticket) {
                        Some(t) if t.client == lane.client => {
                            if !matches!(t.phase, Phase::Running { .. }) {
                                return Err(format!("{task:?} is queued for a stopped ticket"));
                            }
                        }
                        _ => return Err(format!("{task:?} is queued in a stranger's lane")),
                    }
                }
            }
            let mut running = 0;
            for (&id, t) in &state.tickets {
                match &t.phase {
                    Phase::Running { remaining, .. } => {
                        running += 1;
                        let queued = state.lanes.iter().flat_map(|l| &l.tasks);
                        let queued = queued.filter(|task| task.ticket == id).count();
                        let flying = self.flight.iter().flatten();
                        let flying = flying.filter(|task| task.ticket == id).count();
                        if *remaining != queued + flying {
                            return Err(format!(
                                "ticket {id}: {remaining} remaining, {queued} queued, {flying} in flight"
                            ));
                        }
                    }
                    Phase::Done(_) if self.cancelled & (1 << id) != 0 => {
                        return Err(format!("ticket {id} finalized after its cancel"));
                    }
                    _ => {}
                }
            }
            let n = &state.counters;
            if n.tickets_submitted != n.tickets_completed + n.tickets_cancelled + running {
                return Err(format!(
                    "{} submitted, {} completed, {} cancelled, {running} running",
                    n.tickets_submitted, n.tickets_completed, n.tickets_cancelled
                ));
            }
            let quiet = self.connected == [false; CLIENTS] && self.flight == [None; WORKERS];
            if quiet && !(state.tickets.is_empty() && state.lanes.is_empty()) {
                return Err(format!(
                    "{} tickets and {} lanes outlive every client",
                    state.tickets.len(),
                    state.lanes.len()
                ));
            }
            Ok(())
        }

        /// Everything [`World::steps`], [`World::apply`] and
        /// [`World::check`] read, so equal keys have equal futures.
        fn key(&self) -> Vec<u8> {
            let state = &self.state;
            let task = |t: &Task| (t.ticket * 2 + t.index as u64) as u8;
            let n = &state.counters;
            let mut key = vec![
                self.reported,
                self.cancelled,
                state.next_ticket as u8,
                n.tickets_submitted as u8,
                n.tickets_completed as u8,
                n.tickets_cancelled as u8,
                state.next_lane as u8,
            ];
            key.extend(self.submitted.iter().map(|&s| s as u8));
            key.extend(self.connected.iter().map(|&c| u8::from(c)));
            key.extend(self.flight.iter().map(|f| f.as_ref().map_or(0, task)));
            for id in 1..state.next_ticket {
                key.push(match state.tickets.get(&id) {
                    None => 0,
                    Some(t) => {
                        let phase = match &t.phase {
                            Phase::Running { remaining, .. } => 1 + *remaining as u8,
                            Phase::Done(_) => 8,
                            Phase::Cancelled => 9,
                        };
                        (t.client as u8) << 4 | phase
                    }
                });
            }
            for lane in &state.lanes {
                key.push(0x80 | lane.client as u8);
                key.extend(lane.tasks.iter().map(task));
            }
            key
        }
    }

    fn proto_plan(proto: &Ticket) -> &Plan {
        match &proto.phase {
            Phase::Running { plan, .. } => plan,
            _ => unreachable!("the prototype ticket runs"),
        }
    }

    /// Depth-first over every step order from `world`, skipping states
    /// already seen; panics with the path to the first violation.
    fn explore(world: &World, proto: &Ticket, path: &mut Vec<Step>, seen: &mut HashSet<Vec<u8>>) {
        for step in world.steps() {
            path.push(step);
            let mut next = world.clone();
            if let Err(e) = next.apply(step, proto) {
                panic!("{e}, after {path:?}");
            }
            if seen.insert(next.key()) {
                if let Err(e) = next.check() {
                    panic!("{e}, after {path:?}");
                }
                explore(&next, proto, path, seen);
            }
            path.pop();
        }
    }

    #[test]
    fn every_interleaving_keeps_the_ticket_invariants() {
        let config = ServiceConfig {
            workers: WORKERS,
            queue_capacity: 64,
            max_pending_per_client: 1,
        };
        let proto = Ticket::new(
            0,
            WorkItem::Sweep(tiny_spec([1, 2])),
            FleetCache::fresh().plans().stats(),
        );
        let start = World {
            state: State::new(&config),
            flight: [None; WORKERS],
            submitted: [0; CLIENTS],
            connected: [true; CLIENTS],
            reported: 0,
            cancelled: 0,
        };
        let mut seen = HashSet::from([start.key()]);
        explore(&start, &proto, &mut Vec::new(), &mut seen);
        // Pins the search's reach: a change that loses states shrinks
        // what the check covers.
        assert_eq!(seen.len(), 147_016);
    }
}
