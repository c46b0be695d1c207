//! Job engines: execute a boot transaction on the simulated machine.
//!
//! Three engines reproduce the init-scheme families of §2.5:
//!
//! * [`EngineMode::InOrder`] — systemd-like: every service self-gates on
//!   the readiness flags of its ordering predecessors, so arbitrary
//!   non-interdependent services launch in parallel while the boot
//!   sequence is always correct.
//! * [`EngineMode::OutOfOrder`] — BSD/SysV-style: services start without
//!   waiting. Optionally with the bolted-on *path-check* retry loop
//!   (poll for the prerequisite, burning CPU), or in `assert` mode where
//!   a service crashes when its prerequisite is absent — the
//!   correctness hazard of §2.5.1.
//! * [`EngineMode::Serial`] — classic `rcS`: one service at a time.
//!
//! The Booting Booster's Service Engine effects enter through
//! [`PlanOverrides`]: per-unit priorities (BB Manager), the isolated
//! group whose members ignore foreign ordering declarations (BB Group
//! Isolator), a dispatch-first list, and a deferred set gated on boot
//! completion (Deferred Executor).

use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::sync::Arc;

use bb_sim::{
    AccessPattern, DeviceId, FlagId, Machine, Op, Pid, ProcessSpec, RunOutcome, SimDuration,
    SimTime, TraceKind,
};

use crate::graph::UnitGraph;
use crate::names::{JobNames, NameRole, OnFailure};
use crate::transaction::Transaction;
use crate::unit::{IoSchedulingClass, ServiceType, UnitName};

/// How unit configuration reaches the manager at boot.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LoadModel {
    /// Total bytes read from storage for unit configuration.
    pub io_bytes: u64,
    /// Access pattern of those reads (text files: random; cache: sequential).
    pub pattern: AccessPattern,
    /// Total CPU cost of turning the bytes into unit objects.
    pub cpu: SimDuration,
}

/// An init-scheme internal task (logging setup, hostname, machine ID…).
#[derive(Debug, Clone)]
pub struct ManagerTask {
    /// Task name, recorded in traces.
    pub name: String,
    /// Reference CPU cost.
    pub cost: SimDuration,
    /// True if the Deferred Executor postpones it past boot completion.
    pub deferred: bool,
}

impl ManagerTask {
    /// Creates a non-deferred task.
    pub fn new(name: impl Into<String>, cost: SimDuration) -> Self {
        ManagerTask {
            name: name.into(),
            cost,
            deferred: false,
        }
    }

    /// Marks the task deferred.
    pub fn deferred(mut self) -> Self {
        self.deferred = true;
        self
    }
}

/// Cost knobs of the manager process itself.
#[derive(Debug, Clone, Copy)]
pub struct ManagerCosts {
    /// Manager CPU per dispatched job (dependency bookkeeping + fork).
    pub dispatch_cpu_per_job: SimDuration,
    /// CPU charged inside each service for fork+exec+dynamic linking.
    pub fork_exec_cost: SimDuration,
    /// Manager priority (PID 1 runs urgently).
    pub manager_nice: i8,
}

impl Default for ManagerCosts {
    fn default() -> Self {
        ManagerCosts {
            dispatch_cpu_per_job: SimDuration::from_micros(400),
            fork_exec_cost: SimDuration::from_millis(3),
            manager_nice: -10,
        }
    }
}

/// Which engine executes the transaction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EngineMode {
    /// systemd-like dependency-gated parallel launching.
    InOrder,
    /// Launch everything immediately (§2.5.1).
    OutOfOrder {
        /// Bolt on the path-check polling loop for each dependency.
        path_check: bool,
        /// Crash services whose dependencies are not ready (no
        /// path-check): exposes incorrect boots.
        assert_deps: bool,
    },
    /// One service at a time (classic rcS).
    Serial,
}

/// The Booting Booster's service-engine adjustments to a plan.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct PlanOverrides {
    /// Per-unit nice overrides (BB Manager prioritization).
    pub nice: BTreeMap<usize, i8>,
    /// Per-unit I/O class overrides (BB Manager prioritization).
    pub io_class: BTreeMap<usize, IoSchedulingClass>,
    /// The isolated BB Group: members ignore ordering edges declared by
    /// units outside the group and never wait on non-group services.
    pub isolate: BTreeSet<usize>,
    /// Jobs dispatched before everything else, in order.
    pub dispatch_first: Vec<usize>,
    /// Jobs gated on boot completion (deferred services).
    pub defer: BTreeSet<usize>,
    /// Ordering edges `(src, dst)` to ignore (the dependency miner's
    /// verified-redundant set, §5 "tackle dependencies directly").
    pub drop_edges: BTreeSet<(usize, usize)>,
    /// Per-job fork+exec cost overrides (static linking of BB Group
    /// binaries removes the dynamic-linking share, §5).
    pub fork_cost: BTreeMap<usize, SimDuration>,
}

/// A service's simulated workload body.
#[derive(Debug, Clone, Default)]
pub struct ServiceBody {
    /// Ops before the service signals readiness (`forking`/`notify`).
    pub pre_ready: Vec<Op>,
    /// Ops after readiness (main-loop warm-up etc.).
    pub post_ready: Vec<Op>,
}

/// Maps `ExecStart=` strings to bodies. Units without an entry get a
/// small default body.
pub type WorkloadMap = HashMap<String, ServiceBody>;

/// Dense job→readiness-flag table, indexed by graph slot. Indexing by
/// `&usize` mirrors the map interface it replaced; only transaction
/// jobs have entries.
struct JobFlags(Vec<Option<FlagId>>);

impl std::ops::Index<&usize> for JobFlags {
    type Output = FlagId;
    fn index(&self, j: &usize) -> &FlagId {
        self.0[*j].as_ref().expect("job has a readiness flag")
    }
}

/// The ordering predecessors of one service, deduplicated in edge
/// order: a marker table over graph slots plus the list, both reused
/// for every service of a boot, so building a service's program
/// allocates nothing for its dependencies.
struct DepScratch {
    /// `marks[slot] == stamp` iff `slot` is already in `deps`.
    marks: Vec<u32>,
    stamp: u32,
    deps: Vec<usize>,
}

impl DepScratch {
    fn new(slots: usize) -> Self {
        DepScratch {
            marks: vec![0; slots],
            stamp: 0,
            deps: Vec::new(),
        }
    }

    /// Starts the next service's (empty) list.
    fn begin(&mut self) {
        self.stamp += 1;
        self.deps.clear();
    }

    /// Appends `slot` unless the current list already holds it.
    fn add(&mut self, slot: usize) {
        if self.marks[slot] != self.stamp {
            self.marks[slot] = self.stamp;
            self.deps.push(slot);
        }
    }
}

/// Everything the engine needs to run one boot.
///
/// All fields borrow from the planning layer: the engine is the
/// per-boot hot path, and a fleet cell runs it thousands of times
/// against one plan, so nothing here is cloned per boot.
#[derive(Debug, Clone, Copy)]
pub struct BootPlan<'g> {
    /// The unit graph.
    pub graph: &'g UnitGraph,
    /// The transaction to execute.
    pub transaction: &'g Transaction,
    /// Graph indices of the units whose readiness defines boot
    /// completion (§2: "the video and audio of a broadcast channel is
    /// played and it responds to remote control inputs"). Each must be a
    /// job of the transaction.
    pub completion: &'g [usize],
    /// Service-engine adjustments.
    pub overrides: &'g PlanOverrides,
    /// Serial init-phase tasks run before unit loading (Figure 6(b)).
    pub init_tasks: &'g [ManagerTask],
    /// Housekeeping spawned alongside services (Figure 6(c) Deferred
    /// Executor items).
    pub service_phase_tasks: &'g [ManagerTask],
    /// Dispatch order for the ordered engine modes, precomputed once at
    /// plan time ([`Transaction::execution_order`]) instead of running
    /// Kahn + SCC checks inside every boot. Out-of-order engines ignore
    /// it (they dispatch in name order by design).
    pub execution_order: &'g [usize],
    /// The names of the jobs' flags and processes, formatted once
    /// ([`JobNames::build`] from this graph and transaction) so a boot
    /// copies no name.
    pub names: &'g JobNames,
}

/// Engine configuration.
#[derive(Debug, Clone, Copy)]
pub struct EngineConfig {
    /// Engine family.
    pub mode: EngineMode,
    /// Unit configuration load model (the Pre-parser changes this).
    pub load: LoadModel,
    /// Manager cost knobs.
    pub costs: ManagerCosts,
    /// Storage device unit files are read from.
    pub device: DeviceId,
}

/// Per-service timeline assembled from the run.
#[derive(Debug, Clone, Default)]
pub struct ServiceRecord {
    /// When the manager spawned the service process.
    pub spawned: Option<SimTime>,
    /// First time it got a CPU core.
    pub started: Option<SimTime>,
    /// When it signalled readiness (per its `Type=`).
    pub ready: Option<SimTime>,
    /// When its process finished all work.
    pub finished: Option<SimTime>,
    /// True if it aborted on a missing dependency (out-of-order mode).
    pub failed: bool,
    /// True if its readiness was forced by `TimeoutStartSec=` expiry
    /// rather than signalled by the service itself.
    pub timed_out: bool,
    /// How many times supervision respawned the unit after a crash
    /// (`Restart=` incarnations `name#1`, `name#2`, …).
    pub restarts: u32,
    /// True if the unit exhausted `StartLimitBurst=` respawns without a
    /// successful start.
    pub start_limit_hit: bool,
    /// True if hitting the start limit activated the unit's
    /// `OnFailure=` units.
    pub escalated: bool,
}

/// Summary outcome of one unit's boot, derived from its record.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum UnitOutcome {
    /// Started and signalled readiness with no intervention.
    Clean,
    /// Crashed and was respawned this many times before succeeding.
    Restarted(u32),
    /// Exhausted `StartLimitBurst=` respawns without a successful start.
    StartLimitHit,
    /// Hit the start limit and activated its `OnFailure=` units.
    Escalated,
    /// Readiness was forced by `TimeoutStartSec=` expiry.
    TimedOut,
    /// Aborted (missing dependency or injected crash) with no respawn.
    Failed,
}

impl ServiceRecord {
    /// Attributes the unit's boot outcome.
    pub fn outcome(&self) -> UnitOutcome {
        if self.escalated {
            UnitOutcome::Escalated
        } else if self.start_limit_hit {
            UnitOutcome::StartLimitHit
        } else if self.timed_out {
            UnitOutcome::TimedOut
        } else if self.restarts > 0 {
            UnitOutcome::Restarted(self.restarts)
        } else if self.failed {
            UnitOutcome::Failed
        } else {
            UnitOutcome::Clean
        }
    }
}

/// Result of one boot run.
#[derive(Debug)]
pub struct BootRecord {
    /// Per-unit timelines.
    pub services: BTreeMap<UnitName, ServiceRecord>,
    /// When the boot-completion definition was met.
    pub completion_time: Option<SimTime>,
    /// When user space started (engine invocation time).
    pub userspace_start: SimTime,
    /// When the serial init phase finished (init tasks done).
    pub init_done: SimTime,
    /// When unit loading/parsing finished.
    pub load_done: SimTime,
    /// The machine outcome (blocked/failed processes).
    pub outcome: RunOutcome,
}

impl BootRecord {
    /// Boot time from power-on to completion.
    ///
    /// # Panics
    ///
    /// Panics if the boot never completed (a wiring error in the
    /// experiment; check `outcome.blocked` instead).
    pub fn boot_time(&self) -> SimTime {
        self.completion_time.expect("boot did not complete")
    }

    /// Boot time, or `None` if the completion definition was never met.
    pub fn try_boot_time(&self) -> Option<SimTime> {
        self.completion_time
    }

    /// Services that failed (out-of-order hazard).
    pub fn failed_services(&self) -> Vec<&UnitName> {
        self.services
            .iter()
            .filter(|(_, r)| r.failed)
            .map(|(n, _)| n)
            .collect()
    }

    /// The record for a unit.
    ///
    /// # Panics
    ///
    /// Panics if the unit was not part of the run.
    pub fn service(&self, name: &str) -> &ServiceRecord {
        self.services
            .get(&UnitName::new(name))
            .unwrap_or_else(|| panic!("no record for {name}"))
    }
}

/// Runs the boot described by `plan` on `machine`.
///
/// The machine clock should be at the kernel→userspace handover point
/// (see `bb_kernel::execute_kernel_boot`). The engine creates a
/// `boot-complete` flag on the machine, sets it when the completion
/// definition is met, and runs the machine to quiescence — including
/// deferred work that only starts after completion.
pub fn run_boot(
    machine: &mut Machine,
    plan: &BootPlan<'_>,
    workloads: &WorkloadMap,
    cfg: &EngineConfig,
) -> BootRecord {
    let userspace_start = machine.now();
    let graph = plan.graph;
    let jobs = &plan.transaction.jobs;
    let names = plan.names;
    assert_eq!(
        names.slots(),
        graph.len(),
        "BootPlan::names must name the plan's graph (build it with JobNames::build)"
    );

    // Flags: readiness per job + the boot-completion gate. Dense tables
    // indexed by graph slot — no hashing on the per-service paths.
    let boot_complete = machine.flag("boot-complete");
    let mut ready_flags: Vec<Option<FlagId>> = vec![None; graph.len()];
    for &j in jobs.iter() {
        ready_flags[j] = Some(machine.flag(Arc::clone(&names.job(j).ready)));
    }
    let ready_flags = JobFlags(ready_flags);
    // Condition flags (ConditionPathExists= stands in for path presence).
    let mut cond_flags: Vec<Option<FlagId>> = vec![None; graph.len()];
    for &j in jobs.iter() {
        if let Some(path) = &names.job(j).path {
            cond_flags[j] = Some(machine.flag(Arc::clone(path)));
        }
    }

    // Serial init phase (Figure 6(b)): non-deferred tasks run first in
    // the manager process; deferred ones become gated background
    // processes. Phase boundaries are recorded via marker flags so they
    // remain measurable while other processes (module loaders, deferred
    // kernel workers) compete for the machine.
    let init_done_flag = machine.flag("phase:init-done");
    let load_done_flag = machine.flag("phase:load-done");
    let mut manager_ops: Vec<Op> = Vec::new();
    for task in plan.init_tasks {
        if task.deferred {
            machine.spawn(
                ProcessSpec::new(
                    format!("systemd:{}", task.name),
                    vec![Op::WaitFlag(boot_complete), Op::Compute(task.cost)],
                )
                .with_nice(5),
            );
        } else {
            manager_ops.push(Op::Compute(task.cost));
        }
    }
    manager_ops.push(Op::SetFlag(init_done_flag));

    // Unit loading and parsing (what the Pre-parser accelerates).
    if cfg.load.io_bytes > 0 {
        manager_ops.push(Op::IoRead {
            device: cfg.device,
            bytes: cfg.load.io_bytes,
            pattern: cfg.load.pattern,
        });
    }
    if !cfg.load.cpu.is_zero() {
        manager_ops.push(Op::Compute(cfg.load.cpu));
    }
    manager_ops.push(Op::SetFlag(load_done_flag));

    // Transaction membership as a dense bitmap: the order filter and
    // per-service dependency filters test membership per edge, which
    // must not scan the job list each time.
    let mut is_job = vec![false; graph.len()];
    for &j in jobs.iter() {
        is_job[j] = true;
    }

    // Dispatch order.
    let base_order: &[usize] = match cfg.mode {
        EngineMode::Serial | EngineMode::InOrder => {
            assert_eq!(
                plan.execution_order.len(),
                jobs.len(),
                "BootPlan::execution_order must cover the transaction \
                 (precompute it with Transaction::execution_order)"
            );
            plan.execution_order
        }
        // Out-of-order engines use declaration order (name order for
        // determinism), ignoring dependencies.
        EngineMode::OutOfOrder { .. } => names.by_name(),
    };
    let mut order: Vec<usize> = Vec::with_capacity(base_order.len());
    let mut seen = vec![false; graph.len()];
    for &j in plan
        .overrides
        .dispatch_first
        .iter()
        .chain(base_order.iter())
    {
        if is_job.get(j).copied().unwrap_or(false) && !seen[j] {
            seen[j] = true;
            order.push(j);
        }
    }

    // Dispatch every job (services self-gate), then spawn service-phase
    // housekeeping. The manager issues a compute and a spawn per job.
    manager_ops.reserve(2 * order.len() + plan.service_phase_tasks.len());
    let mut scratch = DepScratch::new(graph.len());
    let mut prev_ready: Option<FlagId> = None;
    let mut has_timeouts = false;
    // Per supervised job: (start-limit flag, escalation flag if any).
    let mut supervised: Vec<Option<(FlagId, Option<FlagId>)>> = vec![None; graph.len()];
    for &j in &order {
        let job_names = names.job(j);
        let spec = service_spec(
            graph,
            plan,
            workloads,
            cfg,
            j,
            &is_job,
            &ready_flags,
            &cond_flags,
            boot_complete,
            prev_ready,
            &mut scratch,
        );
        // Restart=/OnFailure= supervision: a crashed incarnation sets
        // `fault:crashed:<name>` (see bb-sim fault injection); a chain of
        // watchers respawns the unit — attempt k named `<unit>#k`, after
        // a `RestartSec=` backoff — up to `StartLimitBurst=` times, then
        // marks the start limit hit and activates the `OnFailure=`
        // units. Watchers whose crash never happens stay blocked and do
        // not extend the run. `StartLimitIntervalSec=` is parsed but a
        // single boot always falls inside one interval, so the burst
        // alone bounds respawns here.
        if let Some(restart) = &job_names.restart {
            // A respawn runs the job's own program, bar serial mode's
            // wait on its predecessor, which respawns never carry.
            let without_serial_wait;
            let program = match prev_ready {
                None => &spec.ops,
                Some(_) => {
                    without_serial_wait = service_spec(
                        graph,
                        plan,
                        workloads,
                        cfg,
                        j,
                        &is_job,
                        &ready_flags,
                        &cond_flags,
                        boot_complete,
                        None,
                        &mut scratch,
                    )
                    .ops;
                    &without_serial_wait
                }
            };
            let restart_sec_ms = graph.unit(j).exec.restart_sec_ms;
            for (k, (respawn, watcher)) in
                restart.respawns.iter().zip(&restart.watchers).enumerate()
            {
                let crashed_prev = machine.flag(Arc::clone(&restart.crashed[k]));
                let mut w_ops = Vec::with_capacity(3);
                w_ops.push(Op::WaitFlag(crashed_prev));
                if restart_sec_ms > 0 {
                    w_ops.push(Op::Sleep(SimDuration::from_millis(restart_sec_ms)));
                }
                w_ops.push(Op::Spawn(Box::new(ProcessSpec {
                    name: Arc::clone(respawn),
                    nice: spec.nice,
                    io_priority: spec.io_priority,
                    ops: program.clone(),
                })));
                machine.spawn(
                    ProcessSpec::new(Arc::clone(watcher), w_ops).with_nice(cfg.costs.manager_nice),
                );
            }
            let crashed_last = machine.flag(Arc::clone(
                restart
                    .crashed
                    .last()
                    .expect("one crash flag per incarnation"),
            ));
            let limit_flag = machine.flag(Arc::clone(&restart.start_limit));
            let mut w_ops = vec![Op::WaitFlag(crashed_last), Op::SetFlag(limit_flag)];
            let escalate_flag = if restart.on_failure.is_empty() {
                None
            } else {
                for target in &restart.on_failure {
                    let target_ready = machine.flag(Arc::clone(&target.ready));
                    w_ops.push(Op::Spawn(Box::new(escalation_spec(
                        graph,
                        workloads,
                        cfg,
                        target,
                        target_ready,
                    ))));
                }
                let flag = machine.flag(Arc::clone(&restart.escalated));
                w_ops.push(Op::SetFlag(flag));
                Some(flag)
            };
            machine.spawn(
                ProcessSpec::new(Arc::clone(&restart.limit_watcher), w_ops)
                    .with_nice(cfg.costs.manager_nice),
            );
            supervised[j] = Some((limit_flag, escalate_flag));
        }
        // The manager's ops reach the machine only when it spawns, after
        // this loop, so the job's own spawn can follow its watchers here.
        manager_ops.push(Op::Compute(cfg.costs.dispatch_cpu_per_job));
        manager_ops.push(Op::Spawn(Box::new(spec)));
        // TimeoutStartSec=: a watchdog forces the readiness flag when the
        // timeout expires, so dependents are released even if the service
        // hangs (recorded as `timed_out` when the watchdog fired first).
        // Built on `TimedWaitFlag` so a watchdog whose service becomes
        // ready exits immediately and never outlives the boot.
        if let Some(watchdog) = &job_names.timeout {
            has_timeouts = true;
            manager_ops.push(Op::Spawn(Box::new(ProcessSpec::new(
                Arc::clone(watchdog),
                vec![
                    Op::TimedWaitFlag {
                        flag: ready_flags[&j],
                        timeout: SimDuration::from_millis(graph.unit(j).exec.timeout_ms),
                    },
                    Op::SetFlag(ready_flags[&j]),
                ],
            ))));
        }
        if cfg.mode == EngineMode::Serial {
            prev_ready = Some(ready_flags[&j]);
        }
    }
    for task in plan.service_phase_tasks {
        let mut ops = Vec::new();
        if task.deferred {
            ops.push(Op::WaitFlag(boot_complete));
        }
        ops.push(Op::Compute(task.cost));
        manager_ops.push(Op::Spawn(Box::new(
            ProcessSpec::new(format!("systemd:{}", task.name), ops).with_nice(0),
        )));
    }
    machine
        .spawn(ProcessSpec::new("systemd-manager", manager_ops).with_nice(cfg.costs.manager_nice));

    // Boot-completion watcher: sets the gate when the definition is met.
    let completion_waits: Vec<Op> = plan
        .completion
        .iter()
        .map(|j| Op::WaitFlag(ready_flags[j]))
        .chain([Op::SetFlag(boot_complete)])
        .collect();
    machine.spawn(ProcessSpec::new("boot-complete-watcher", completion_waits).with_nice(-20));

    let outcome = machine.run();

    // Assemble the records. One pass over the processes gives each job
    // the last process spawned under its name and counts its respawns;
    // one pass over the trace gives every process its lifecycle and
    // each flag its setter (read only to attribute timeout releases).
    let mut proc_of: Vec<Option<usize>> = vec![None; graph.len()];
    let mut restarts = vec![0u32; graph.len()];
    for (pid, process) in machine.processes().enumerate() {
        match names.role(graph, process.name()) {
            NameRole::Job(j) => proc_of[j] = Some(pid),
            NameRole::Respawn(j) => restarts[j] += 1,
            NameRole::Other => {}
        }
    }
    let mut life = vec![ServiceRecord::default(); machine.process_count()];
    let mut setters: Vec<Option<Pid>> = Vec::new();
    for e in machine.trace().events() {
        match e.kind {
            TraceKind::Spawned { .. } => life[e.pid.index()].spawned = Some(e.time),
            TraceKind::FirstRun => life[e.pid.index()].started = Some(e.time),
            TraceKind::Finished => life[e.pid.index()].finished = Some(e.time),
            TraceKind::Failed { .. } => life[e.pid.index()].failed = true,
            TraceKind::FlagSet { flag } if has_timeouts => {
                if setters.len() <= flag.index() {
                    setters.resize(flag.index() + 1, None);
                }
                setters[flag.index()] = Some(e.pid);
            }
            _ => {}
        }
    }
    let services = names
        .by_name()
        .iter()
        .map(|&j| {
            let ready_flag = ready_flags[&j];
            let mut rec = proc_of[j].map_or_else(ServiceRecord::default, |pid| life[pid].clone());
            rec.ready = machine.flag_set_at(ready_flag);
            // Timed out: the job's own watchdog set its ready flag.
            rec.timed_out = names.job(j).timeout.as_deref().is_some_and(|watchdog| {
                setters
                    .get(ready_flag.index())
                    .copied()
                    .flatten()
                    .is_some_and(|pid| machine.process(pid).name() == watchdog)
            });
            rec.restarts = restarts[j];
            if let Some((limit_flag, escalate_flag)) = supervised[j] {
                rec.start_limit_hit = machine.flag_set_at(limit_flag).is_some();
                rec.escalated = escalate_flag.is_some_and(|f| machine.flag_set_at(f).is_some());
            }
            (names.job(j).unit.clone(), rec)
        })
        .collect();

    BootRecord {
        services,
        completion_time: machine.flag_set_at(boot_complete),
        userspace_start,
        init_done: machine
            .flag_set_at(init_done_flag)
            .expect("manager always sets the init marker"),
        load_done: machine
            .flag_set_at(load_done_flag)
            .expect("manager always sets the load marker"),
        outcome,
    }
}

/// Builds the simulated process for one job. Its op list is allocated
/// once, at its final length, and the workload body is copied into it
/// from the shared map, never cloned as a whole.
#[allow(clippy::too_many_arguments)]
fn service_spec(
    graph: &UnitGraph,
    plan: &BootPlan<'_>,
    workloads: &WorkloadMap,
    cfg: &EngineConfig,
    job: usize,
    is_job: &[bool],
    ready_flags: &JobFlags,
    cond_flags: &[Option<FlagId>],
    boot_complete: FlagId,
    serial_prev: Option<FlagId>,
    scratch: &mut DepScratch,
) -> ProcessSpec {
    let unit = graph.unit(job);
    let overrides = plan.overrides;

    // Ordering predecessors this service waits for (in order) or checks
    // (out of order, with path-check or assert).
    scratch.begin();
    match cfg.mode {
        EngineMode::InOrder => {
            let isolated = overrides.isolate.contains(&job);
            for e in graph.ordering_in_edges(job) {
                // BB Group isolation: members ignore foreign
                // declarations and never wait on non-members.
                if is_job[e.src]
                    && !overrides.drop_edges.contains(&(e.src, e.dst))
                    && (!isolated
                        || (overrides.isolate.contains(&e.src)
                            && overrides.isolate.contains(&e.declared_by)))
                {
                    scratch.add(e.src);
                }
            }
        }
        EngineMode::OutOfOrder {
            path_check,
            assert_deps,
        } if path_check || assert_deps => {
            for e in graph.ordering_in_edges(job) {
                if is_job[e.src] {
                    scratch.add(e.src);
                }
            }
        }
        EngineMode::OutOfOrder { .. } | EngineMode::Serial => {}
    }

    let (pre_ready, post_ready) = body_of(workloads, unit.exec.exec_start.as_deref());
    let cond = cond_flags[job];
    let deferred = overrides.defer.contains(&job);
    let len = usize::from(deferred)
        + usize::from(serial_prev.is_some())
        + scratch.deps.len()
        + 2 // fork+exec compute, readiness flag
        + conditional_len(cond, pre_ready)
        + conditional_len(cond, post_ready);
    let mut ops: Vec<Op> = Vec::with_capacity(len);
    if deferred {
        ops.push(Op::WaitFlag(boot_complete));
    }
    if let Some(prev) = serial_prev {
        ops.push(Op::WaitFlag(prev));
    }
    ops.extend(scratch.deps.iter().map(|d| {
        let flag = ready_flags[d];
        match cfg.mode {
            EngineMode::OutOfOrder {
                path_check: true, ..
            } => Op::PollFlag {
                flag,
                interval: SimDuration::from_millis(50),
                poll_cost: SimDuration::from_micros(80),
            },
            EngineMode::OutOfOrder { .. } => Op::AssertFlag(flag),
            EngineMode::InOrder | EngineMode::Serial => Op::WaitFlag(flag),
        }
    }));

    let fork_cost = overrides
        .fork_cost
        .get(&job)
        .copied()
        .unwrap_or(cfg.costs.fork_exec_cost);
    ops.push(Op::Compute(fork_cost));

    let ready = ready_flags[&job];
    match unit.exec.service_type {
        ServiceType::Simple => {
            // Ready as soon as exec starts; condition skips the body.
            ops.push(Op::SetFlag(ready));
            push_conditional(&mut ops, cond, pre_ready);
            push_conditional(&mut ops, cond, post_ready);
        }
        ServiceType::Forking | ServiceType::Notify => {
            push_conditional(&mut ops, cond, pre_ready);
            ops.push(Op::SetFlag(ready));
            push_conditional(&mut ops, cond, post_ready);
        }
        ServiceType::Oneshot => {
            push_conditional(&mut ops, cond, pre_ready);
            push_conditional(&mut ops, cond, post_ready);
            ops.push(Op::SetFlag(ready));
        }
    }
    debug_assert_eq!(ops.len(), len, "service op list sized exactly");

    let nice = overrides.nice.get(&job).copied().unwrap_or(unit.exec.nice);
    let io_class = overrides
        .io_class
        .get(&job)
        .copied()
        .unwrap_or(unit.exec.io_class);
    let io_priority = match io_class {
        IoSchedulingClass::Realtime => bb_sim::IoPriority::Realtime,
        IoSchedulingClass::BestEffort => bb_sim::IoPriority::BestEffort,
        IoSchedulingClass::Idle => bb_sim::IoPriority::Idle,
    };
    ProcessSpec::new(Arc::clone(unit.name.as_arc()), ops)
        .with_nice(nice)
        .with_io_priority(io_priority)
}

/// The `(pre_ready, post_ready)` ops a unit runs: its `ExecStart=`
/// workload body, or a small default (2 ms of compute before readiness)
/// for units the map does not name.
fn body_of<'w>(workloads: &'w WorkloadMap, exec_start: Option<&str>) -> (&'w [Op], &'w [Op]) {
    const DEFAULT_PRE_READY: &[Op] = &[Op::Compute(SimDuration::from_millis(2))];
    match exec_start.and_then(|e| workloads.get(e)) {
        Some(body) => (&body.pre_ready, &body.post_ready),
        None => (DEFAULT_PRE_READY, &[]),
    }
}

/// Builds the process activating one `OnFailure=` unit. The target need
/// not be part of the transaction: if it is unknown (a rescue shell, a
/// reboot helper) it gets the default small body. Its readiness flag is
/// set so escalation is observable in the record and the trace.
fn escalation_spec(
    graph: &UnitGraph,
    workloads: &WorkloadMap,
    cfg: &EngineConfig,
    target: &OnFailure,
    target_ready: FlagId,
) -> ProcessSpec {
    let exec_start = target
        .slot
        .and_then(|i| graph.unit(i).exec.exec_start.as_deref());
    let (pre_ready, post_ready) = body_of(workloads, exec_start);
    let mut ops = Vec::with_capacity(2 + pre_ready.len() + post_ready.len());
    ops.push(Op::Compute(cfg.costs.fork_exec_cost));
    ops.extend_from_slice(pre_ready);
    ops.push(Op::SetFlag(target_ready));
    ops.extend_from_slice(post_ready);
    ProcessSpec::new(Arc::clone(target.unit.as_arc()), ops)
}

/// Ops [`push_conditional`] appends for `body`.
fn conditional_len(cond: Option<FlagId>, body: &[Op]) -> usize {
    match body.len() {
        0 => 0,
        n => n + usize::from(cond.is_some()),
    }
}

/// Appends `body`, wrapped in a conditional skip when `cond` is present.
fn push_conditional(ops: &mut Vec<Op>, cond: Option<FlagId>, body: &[Op]) {
    if body.is_empty() {
        return;
    }
    if let Some(flag) = cond {
        ops.push(Op::CondSkip {
            flag,
            skip_ops: body.len() as u32,
        });
    }
    ops.extend_from_slice(body);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::unit::Unit;
    use bb_sim::{DeviceProfile, MachineConfig, OpsBuilder};

    fn svc(name: &str) -> Unit {
        Unit::new(UnitName::new(name)).with_exec(format!("bin:{name}"))
    }

    fn body_ms(ms: u64) -> ServiceBody {
        ServiceBody {
            pre_ready: OpsBuilder::new().compute_ms(ms).build(),
            post_ready: Vec::new(),
        }
    }

    struct Setup {
        machine: Machine,
        cfg: EngineConfig,
    }

    fn setup(cores: usize) -> Setup {
        let mut machine = Machine::new(MachineConfig {
            cores,
            ..MachineConfig::default()
        });
        let device = machine.add_device("emmc", DeviceProfile::tv_emmc());
        let cfg = EngineConfig {
            mode: EngineMode::InOrder,
            load: LoadModel {
                io_bytes: 64 * 1024,
                pattern: AccessPattern::Random,
                cpu: SimDuration::from_millis(5),
            },
            costs: ManagerCosts::default(),
            device,
        };
        Setup { machine, cfg }
    }

    /// Units: a ← b ← c chain plus an independent d; completion = c.
    fn chain_units() -> Vec<Unit> {
        vec![
            Unit::new(UnitName::new("boot.target"))
                .requires("c.service")
                .requires("d.service"),
            svc("a.service").with_type(ServiceType::Forking),
            svc("b.service")
                .needs("a.service")
                .with_type(ServiceType::Forking),
            svc("c.service")
                .needs("b.service")
                .with_type(ServiceType::Forking),
            svc("d.service").with_type(ServiceType::Forking),
        ]
    }

    fn workloads(ms: u64) -> WorkloadMap {
        ["a", "b", "c", "d"]
            .iter()
            .map(|n| (format!("bin:{n}.service"), body_ms(ms)))
            .collect()
    }

    /// Owned plan parts: the engine's `BootPlan` is all borrows, so
    /// tests build (and freely mutate) this and borrow a view per boot.
    struct TestPlan {
        transaction: Transaction,
        completion: Vec<usize>,
        overrides: PlanOverrides,
        init_tasks: Vec<ManagerTask>,
        execution_order: Vec<usize>,
        names: JobNames,
    }

    impl TestPlan {
        fn as_plan<'g>(&'g self, graph: &'g UnitGraph) -> BootPlan<'g> {
            BootPlan {
                graph,
                transaction: &self.transaction,
                completion: &self.completion,
                overrides: &self.overrides,
                init_tasks: &self.init_tasks,
                service_phase_tasks: &[],
                execution_order: &self.execution_order,
                names: &self.names,
            }
        }
    }

    fn plan(graph: &UnitGraph, completion: &[&str]) -> TestPlan {
        // `a` is not pulled by the target in chain_units; pull everything
        // required transitively through c.
        let transaction = Transaction::build(graph, "boot.target").unwrap();
        let execution_order = transaction.execution_order(graph);
        TestPlan {
            names: JobNames::build(graph, &transaction),
            transaction,
            completion: completion.iter().map(|c| graph.idx_of(c)).collect(),
            overrides: PlanOverrides::default(),
            init_tasks: Vec::new(),
            execution_order,
        }
    }

    #[test]
    fn in_order_respects_dependencies() {
        let graph = UnitGraph::build(chain_units()).unwrap();
        let mut s = setup(4);
        let p = plan(&graph, &["c.service"]);
        let record = run_boot(&mut s.machine, &p.as_plan(&graph), &workloads(10), &s.cfg);
        let a = record.service("a.service").ready.unwrap();
        let b = record.service("b.service").ready.unwrap();
        let c = record.service("c.service").ready.unwrap();
        assert!(a < b && b < c, "chain order violated: {a} {b} {c}");
        assert!(record.completion_time.unwrap() >= c);
        assert!(record.outcome.failed.is_empty());
    }

    #[test]
    fn independent_services_run_in_parallel() {
        let graph = UnitGraph::build(chain_units()).unwrap();
        let mut s = setup(4);
        let p = plan(&graph, &["c.service"]);
        let record = run_boot(&mut s.machine, &p.as_plan(&graph), &workloads(10), &s.cfg);
        // d has no deps: its ready time should be near a's, far before c.
        let a = record.service("a.service").ready.unwrap();
        let d = record.service("d.service").ready.unwrap();
        let c = record.service("c.service").ready.unwrap();
        assert!(d.as_millis() <= a.as_millis() + 15);
        assert!(d < c);
    }

    #[test]
    fn serial_engine_is_slower_than_in_order() {
        let graph = UnitGraph::build(chain_units()).unwrap();
        let mut s1 = setup(4);
        let p1 = plan(&graph, &["c.service"]);
        let inorder = run_boot(
            &mut s1.machine,
            &p1.as_plan(&graph),
            &workloads(10),
            &s1.cfg,
        );

        let mut s2 = setup(4);
        let mut cfg = s2.cfg;
        cfg.mode = EngineMode::Serial;
        let p2 = plan(&graph, &["c.service"]);
        let serial = run_boot(&mut s2.machine, &p2.as_plan(&graph), &workloads(10), &cfg);
        assert!(serial.boot_time() > inorder.boot_time());
        assert!(serial.outcome.failed.is_empty());
    }

    #[test]
    fn out_of_order_with_asserts_fails_dependents() {
        let graph = UnitGraph::build(chain_units()).unwrap();
        let mut s = setup(4);
        let mut cfg = s.cfg;
        cfg.mode = EngineMode::OutOfOrder {
            path_check: false,
            assert_deps: true,
        };
        let p = plan(&graph, &["c.service"]);
        let record = run_boot(&mut s.machine, &p.as_plan(&graph), &workloads(10), &cfg);
        // b and c start immediately, find their prerequisites missing,
        // and crash; the boot never completes.
        assert!(!record.failed_services().is_empty());
        assert!(record.completion_time.is_none());
    }

    #[test]
    fn out_of_order_with_path_check_completes_but_burns_cpu() {
        let graph = UnitGraph::build(chain_units()).unwrap();
        let mut s = setup(4);
        let mut cfg = s.cfg;
        cfg.mode = EngineMode::OutOfOrder {
            path_check: true,
            assert_deps: false,
        };
        let p = plan(&graph, &["c.service"]);
        let record = run_boot(&mut s.machine, &p.as_plan(&graph), &workloads(10), &cfg);
        assert!(record.completion_time.is_some());
        assert!(record.outcome.failed.is_empty());
        // Polling quantizes readiness to the 50 ms retry interval: the
        // chain completes later than the dependency-gated engine would.
        let mut s2 = setup(4);
        let p2 = plan(&graph, &["c.service"]);
        let inorder = run_boot(
            &mut s2.machine,
            &p2.as_plan(&graph),
            &workloads(10),
            &s2.cfg,
        );
        assert!(record.boot_time() > inorder.boot_time());
    }

    #[test]
    fn deferred_services_wait_for_completion() {
        let graph = UnitGraph::build(chain_units()).unwrap();
        let mut s = setup(4);
        let mut p = plan(&graph, &["c.service"]);
        let d = graph.idx_of("d.service");
        p.overrides.defer.insert(d);
        let record = run_boot(&mut s.machine, &p.as_plan(&graph), &workloads(10), &s.cfg);
        let completion = record.completion_time.unwrap();
        let d_ready = record.service("d.service").ready.unwrap();
        assert!(d_ready > completion);
    }

    #[test]
    fn isolation_drops_foreign_before_edges() {
        // Foreign units declare Before=var.mount (the §4.2 abuse): the
        // isolated group ignores them.
        let mut units = vec![
            Unit::new(UnitName::new("boot.target"))
                .requires("dbus.service")
                .requires("slow1.service")
                .requires("slow2.service"),
            svc("var.mount").with_type(ServiceType::Oneshot),
            svc("dbus.service")
                .needs("var.mount")
                .with_type(ServiceType::Forking),
        ];
        for i in 1..=2 {
            units.push(
                svc(&format!("slow{i}.service"))
                    .before("var.mount")
                    .with_type(ServiceType::Forking),
            );
        }
        let graph = UnitGraph::build(units).unwrap();
        let mut wl = WorkloadMap::new();
        wl.insert("bin:var.mount".into(), body_ms(5));
        wl.insert("bin:dbus.service".into(), body_ms(10));
        wl.insert("bin:slow1.service".into(), body_ms(100));
        wl.insert("bin:slow2.service".into(), body_ms(100));

        // Conventional: dbus waits for var.mount which waits for slows.
        let mut s1 = setup(2);
        let p1 = plan(&graph, &["dbus.service"]);
        let conv = run_boot(&mut s1.machine, &p1.as_plan(&graph), &wl, &s1.cfg);

        // Isolated: var.mount + dbus in the BB group.
        let mut s2 = setup(2);
        let mut p2 = plan(&graph, &["dbus.service"]);
        p2.overrides.isolate = [graph.idx_of("var.mount"), graph.idx_of("dbus.service")].into();
        p2.overrides.dispatch_first = vec![graph.idx_of("var.mount"), graph.idx_of("dbus.service")];
        for &j in &p2.overrides.isolate.clone() {
            p2.overrides.nice.insert(j, -15);
        }
        let boosted = run_boot(&mut s2.machine, &p2.as_plan(&graph), &wl, &s2.cfg);

        let conv_dbus = conv.service("dbus.service").ready.unwrap();
        let boosted_dbus = boosted.service("dbus.service").ready.unwrap();
        assert!(
            boosted_dbus.as_millis() * 2 < conv_dbus.as_millis(),
            "isolation did not advance dbus: {boosted_dbus} vs {conv_dbus}"
        );
    }

    #[test]
    fn init_tasks_delay_or_defer() {
        let graph = UnitGraph::build(chain_units()).unwrap();
        let tasks = |deferred: bool| {
            vec![
                ManagerTask::new("enable-logging", SimDuration::from_millis(28)),
                if deferred {
                    ManagerTask::new("setup-hostname", SimDuration::from_millis(13)).deferred()
                } else {
                    ManagerTask::new("setup-hostname", SimDuration::from_millis(13))
                },
            ]
        };
        let mut s1 = setup(4);
        let mut p1 = plan(&graph, &["c.service"]);
        p1.init_tasks = tasks(false);
        let conv = run_boot(&mut s1.machine, &p1.as_plan(&graph), &workloads(5), &s1.cfg);
        assert_eq!(conv.init_done.since(conv.userspace_start).as_millis(), 41);

        let mut s2 = setup(4);
        let mut p2 = plan(&graph, &["c.service"]);
        p2.init_tasks = tasks(true);
        let boosted = run_boot(&mut s2.machine, &p2.as_plan(&graph), &workloads(5), &s2.cfg);
        assert_eq!(
            boosted.init_done.since(boosted.userspace_start).as_millis(),
            28
        );
        assert!(boosted.boot_time() < conv.boot_time());
    }

    #[test]
    fn condition_path_skips_body_but_marks_ready() {
        let mut unit = svc("cond.service").with_type(ServiceType::Oneshot);
        unit.condition_path_exists = Some("/nonexistent".into());
        let units = vec![
            Unit::new(UnitName::new("boot.target")).requires("cond.service"),
            unit,
        ];
        let graph = UnitGraph::build(units).unwrap();
        let mut s = setup(2);
        let mut wl = WorkloadMap::new();
        wl.insert("bin:cond.service".into(), body_ms(500));
        let p = plan(&graph, &["cond.service"]);
        let record = run_boot(&mut s.machine, &p.as_plan(&graph), &wl, &s.cfg);
        // Ready despite the skipped 500 ms body: completion well under it.
        let ready = record.service("cond.service").ready.unwrap();
        assert!(ready.since(record.load_done).as_millis() < 50);
    }

    #[test]
    fn priority_override_wins_cpu_contention() {
        // One core, two independent services; the prioritized one
        // finishes first even though dispatched second.
        let units = vec![
            Unit::new(UnitName::new("boot.target"))
                .requires("hi.service")
                .requires("lo.service"),
            svc("hi.service").with_type(ServiceType::Oneshot),
            svc("lo.service").with_type(ServiceType::Oneshot),
        ];
        let graph = UnitGraph::build(units).unwrap();
        let mut s = setup(1);
        let mut wl = WorkloadMap::new();
        wl.insert("bin:hi.service".into(), body_ms(20));
        wl.insert("bin:lo.service".into(), body_ms(20));
        let mut p = plan(&graph, &["hi.service", "lo.service"]);
        p.overrides.nice.insert(graph.idx_of("hi.service"), -15);
        let record = run_boot(&mut s.machine, &p.as_plan(&graph), &wl, &s.cfg);
        let hi = record.service("hi.service").ready.unwrap();
        let lo = record.service("lo.service").ready.unwrap();
        assert!(hi < lo, "priority override ineffective: {hi} vs {lo}");
    }

    #[test]
    fn crashed_service_is_restarted_and_boot_completes() {
        let mut units = chain_units();
        units[2] = svc("b.service")
            .needs("a.service")
            .with_type(ServiceType::Forking)
            .with_restart(crate::unit::RestartPolicy::OnFailure)
            .with_restart_sec_ms(50);
        let graph = UnitGraph::build(units).unwrap();
        let mut s = setup(4);
        s.machine.install_fault_plan(&bb_sim::FaultPlan {
            faults: vec![bb_sim::Fault::CrashAtReadiness {
                process: "b.service".into(),
                hits: 1,
            }],
            seed: 0,
        });
        let p = plan(&graph, &["c.service"]);
        let record = run_boot(&mut s.machine, &p.as_plan(&graph), &workloads(10), &s.cfg);
        let b = record.service("b.service");
        assert_eq!(b.restarts, 1);
        assert_eq!(b.outcome(), UnitOutcome::Restarted(1));
        assert!(!b.start_limit_hit);
        assert!(b.ready.is_some(), "respawned b never became ready");
        let c = record.service("c.service");
        assert_eq!(c.outcome(), UnitOutcome::Clean);
        assert!(
            c.ready.unwrap() > b.ready.unwrap(),
            "c must wait for the respawned b"
        );
        assert!(record.completion_time.is_some());
    }

    #[test]
    fn start_limit_breaks_restart_loop_and_escalates() {
        let mut units = chain_units();
        units[2] = svc("b.service")
            .needs("a.service")
            .with_type(ServiceType::Forking)
            .with_restart(crate::unit::RestartPolicy::Always)
            .with_restart_sec_ms(10)
            .with_start_limit_burst(2)
            .on_failure("rescue.service");
        let graph = UnitGraph::build(units).unwrap();
        let mut s = setup(4);
        s.machine.install_fault_plan(&bb_sim::FaultPlan {
            faults: vec![bb_sim::Fault::CrashAtReadiness {
                process: "b.service".into(),
                hits: 10,
            }],
            seed: 0,
        });
        let p = plan(&graph, &["c.service"]);
        let record = run_boot(&mut s.machine, &p.as_plan(&graph), &workloads(10), &s.cfg);
        let b = record.service("b.service");
        // Original + 2 respawns all crash; the chain stops at the burst.
        assert_eq!(b.restarts, 2);
        assert!(b.start_limit_hit);
        assert!(b.escalated);
        assert_eq!(b.outcome(), UnitOutcome::Escalated);
        assert!(b.ready.is_none());
        // c depends on b: the boot never completes (fallback territory).
        assert!(record.completion_time.is_none());
        // The escalation unit ran: its readiness flag was set.
        let rescue = s.machine.flag("ready:rescue.service");
        assert!(s.machine.flag_set_at(rescue).is_some());
    }

    #[test]
    fn escalating_to_a_job_of_the_transaction_rewrites_its_record() {
        // b exhausts its one respawn and escalates to d, a job of the
        // transaction that waits on b and so never readies itself. The
        // escalation process carries d's name and sets d's own
        // readiness flag; spawned after d's process, it is the process
        // d's record reads.
        let mut units = chain_units();
        units[2] = svc("b.service")
            .needs("a.service")
            .with_type(ServiceType::Forking)
            .with_restart(crate::unit::RestartPolicy::OnFailure)
            .with_restart_sec_ms(20)
            .with_start_limit_burst(1)
            .on_failure("d.service");
        units[4] = svc("d.service")
            .needs("b.service")
            .with_type(ServiceType::Forking);
        let graph = UnitGraph::build(units).unwrap();
        let mut s = setup(4);
        s.machine.install_fault_plan(&bb_sim::FaultPlan {
            faults: vec![bb_sim::Fault::CrashAtReadiness {
                process: "b.service".into(),
                hits: 10,
            }],
            seed: 0,
        });
        let p = plan(&graph, &["c.service"]);
        let record = run_boot(&mut s.machine, &p.as_plan(&graph), &workloads(10), &s.cfg);
        let at = |t: Option<SimTime>| t.map(SimTime::as_nanos);
        let b = record.service("b.service");
        assert_eq!(b.outcome(), UnitOutcome::Escalated);
        assert_eq!((b.restarts, b.start_limit_hit, b.failed), (1, true, true));
        assert_eq!(
            (at(b.spawned), at(b.started), at(b.ready), at(b.finished)),
            (Some(7_639_190), Some(20_239_190), None, None)
        );
        // d's own process never ran past its wait on b: every time in
        // its record is the escalation's, and its readiness is the
        // escalation's `SetFlag` on d's flag.
        let d = record.service("d.service");
        assert_eq!(d.outcome(), UnitOutcome::Clean);
        assert_eq!(
            (at(d.spawned), at(d.started), at(d.ready), at(d.finished)),
            (
                Some(66_239_190),
                Some(66_239_190),
                Some(79_239_190),
                Some(79_239_190)
            )
        );
        assert!(record.completion_time.is_none());
    }

    #[test]
    fn a_start_timeout_releases_a_crashed_supervised_unit_before_its_respawn() {
        let mut units = chain_units();
        let mut b = svc("b.service")
            .needs("a.service")
            .with_type(ServiceType::Forking)
            .with_restart(crate::unit::RestartPolicy::OnFailure)
            .with_restart_sec_ms(100);
        b.exec.timeout_ms = 40;
        units[2] = b;
        let graph = UnitGraph::build(units).unwrap();
        let mut s = setup(4);
        s.machine.install_fault_plan(&bb_sim::FaultPlan {
            faults: vec![bb_sim::Fault::CrashAtReadiness {
                process: "b.service".into(),
                hits: 1,
            }],
            seed: 0,
        });
        let p = plan(&graph, &["c.service"]);
        let record = run_boot(&mut s.machine, &p.as_plan(&graph), &workloads(10), &s.cfg);
        // The watchdog forces b ready 40 ms after its spawn, before the
        // respawn that follows the 100 ms backoff; c waits on the
        // forced flag.
        let b = record.service("b.service");
        assert_eq!((b.restarts, b.timed_out, b.failed), (1, true, true));
        assert_eq!(b.ready.map(SimTime::as_nanos), Some(47_639_190));
        assert_eq!(b.outcome(), UnitOutcome::TimedOut);
        assert_eq!(
            record.completion_time.map(SimTime::as_nanos),
            Some(60_639_190)
        );
    }

    #[test]
    fn unsupervised_crash_is_attributed_as_failed() {
        let graph = UnitGraph::build(chain_units()).unwrap();
        let mut s = setup(4);
        s.machine.install_fault_plan(&bb_sim::FaultPlan {
            faults: vec![bb_sim::Fault::CrashAtReadiness {
                process: "d.service".into(),
                hits: 1,
            }],
            seed: 0,
        });
        let p = plan(&graph, &["c.service"]);
        let record = run_boot(&mut s.machine, &p.as_plan(&graph), &workloads(10), &s.cfg);
        let d = record.service("d.service");
        assert_eq!(d.outcome(), UnitOutcome::Failed);
        assert_eq!(d.restarts, 0);
        assert!(d.ready.is_none());
    }

    #[test]
    fn timeout_watchdog_does_not_outlive_a_ready_service() {
        let mut unit = svc("t.service").with_type(ServiceType::Forking);
        unit.exec.timeout_ms = 60_000;
        let units = vec![
            Unit::new(UnitName::new("boot.target")).requires("t.service"),
            unit,
        ];
        let graph = UnitGraph::build(units).unwrap();
        let mut s = setup(2);
        let mut wl = WorkloadMap::new();
        wl.insert("bin:t.service".into(), body_ms(10));
        let p = plan(&graph, &["t.service"]);
        let record = run_boot(&mut s.machine, &p.as_plan(&graph), &wl, &s.cfg);
        assert!(!record.service("t.service").timed_out);
        // The watchdog exits when readiness appears: quiescence arrives
        // long before the 60 s timeout would.
        assert!(record.outcome.end_time.as_millis() < 1_000);
    }

    /// A unit may be named like a watchdog. One that readies itself is
    /// not timed out, even in a boot whose other unit has a start
    /// timeout (and so a watchdog process of that same name).
    #[test]
    fn a_unit_named_like_a_watchdog_is_not_timed_out() {
        let mut watched = svc("x.service").with_type(ServiceType::Forking);
        watched.exec.timeout_ms = 60_000;
        let units = vec![
            Unit::new(UnitName::new("boot.target"))
                .requires("timeout:x.service")
                .requires("x.service"),
            svc("timeout:x.service").with_type(ServiceType::Forking),
            watched,
        ];
        let graph = UnitGraph::build(units).unwrap();
        let mut s = setup(2);
        let wl: WorkloadMap = ["timeout:x.service", "x.service"]
            .iter()
            .map(|n| (format!("bin:{n}"), body_ms(10)))
            .collect();
        let p = plan(&graph, &["timeout:x.service", "x.service"]);
        let record = run_boot(&mut s.machine, &p.as_plan(&graph), &wl, &s.cfg);
        for unit in ["timeout:x.service", "x.service"] {
            let rec = record.service(unit);
            assert!(rec.ready.is_some(), "{unit} readies itself");
            assert!(!rec.timed_out, "{unit} is not timed out");
            assert_eq!(rec.outcome(), UnitOutcome::Clean, "{unit}");
        }
    }

    #[test]
    fn boot_record_phases_are_ordered() {
        let graph = UnitGraph::build(chain_units()).unwrap();
        let mut s = setup(4);
        let mut p = plan(&graph, &["c.service"]);
        p.init_tasks = vec![ManagerTask::new("x", SimDuration::from_millis(5))];
        let record = run_boot(&mut s.machine, &p.as_plan(&graph), &workloads(5), &s.cfg);
        assert!(record.userspace_start <= record.init_done);
        assert!(record.init_done <= record.load_done);
        assert!(record.load_done <= record.completion_time.unwrap());
    }
}
