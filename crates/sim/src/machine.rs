//! The simulated machine: cores, scheduler, devices, flags, RCU, and the
//! discrete-event run loop.
//!
//! # Execution model
//!
//! Processes are op lists ([`crate::process::Op`]). Ops that need a CPU
//! core (`Compute`, `RcuReadHold`, `RcuSync`, `PollFlag` checks) are
//! dispatched by a global priority scheduler (lowest nice first, FIFO
//! within a level, quantum-sliced preemption for `Compute`). Ops that
//! wait (`IoRead`, `Sleep`, `WaitFlag`, boosted `RcuSync`) park the
//! process off-CPU. Zero-cost ops (`SetFlag`, `Spawn`, `AssertFlag`,
//! `Yield`) are folded at advance time.
//!
//! The two RCU waiter modes differ exactly as in the paper: a classic
//! (Algorithm 1) waiter *keeps its core busy* from dispatch until its
//! grace period ends; a boosted (Algorithm 2) waiter releases the core
//! and pays a context-switch cost when woken.
//!
//! Determinism: event ties break by scheduling order, the ready queue by
//! (nice, arrival sequence); two runs of the same scenario produce
//! identical traces.

use std::collections::VecDeque;

use smallvec::SmallVec;

use crate::event::{EventKind, EventQueue, EventQueueStats};
use crate::fault::{Fault, FaultPlan};
use crate::ids::{CoreId, DeviceId, FlagId, Pid};
use crate::io::{Device, DeviceProfile, IoRequest};
use crate::process::{BlockReason, Op, ProcState, Process, ProcessSpec};
use crate::rcu::{RcuEngine, RcuMode, RcuParams, RcuStats};
use crate::telemetry::{self, Telemetry};
use crate::time::{SimDuration, SimTime};
use crate::trace::{CoreSpan, Trace, TraceKind};

/// Static machine parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MachineConfig {
    /// Number of CPU cores.
    pub cores: usize,
    /// Core speed as a multiple of the reference CPU (1.0 = reference;
    /// `Compute` durations are divided by this).
    pub core_speed: f64,
    /// Scheduler timeslice for `Compute` ops.
    pub quantum: SimDuration,
    /// RCU engine cost parameters.
    pub rcu_params: RcuParams,
    /// Initial RCU waiter mode.
    pub rcu_mode: RcuMode,
}

impl Default for MachineConfig {
    fn default() -> Self {
        MachineConfig {
            cores: 4,
            core_speed: 1.0,
            quantum: SimDuration::from_millis(1),
            rcu_params: RcuParams::default(),
            rcu_mode: RcuMode::ClassicSpin,
        }
    }
}

/// Scheduler/substrate counters, for reports and regression tests.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SchedStats {
    /// Times a process was placed on a core.
    pub dispatches: u64,
    /// Quantum-boundary preemptions (compute requeued unfinished).
    pub preemptions: u64,
    /// Storage requests submitted.
    pub io_requests: u64,
    /// Processes woken by flag sets.
    pub flag_wakeups: u64,
}

/// Why `run` returned.
#[derive(Debug, Clone)]
pub struct RunOutcome {
    /// Simulated time when the run went quiescent.
    pub end_time: SimTime,
    /// Processes still blocked (e.g. waiting on a flag nobody sets).
    pub blocked: Vec<Pid>,
    /// Processes that aborted on a failed `AssertFlag`.
    pub failed: Vec<Pid>,
}

/// Pre-sized event-queue capacity: full TV boots keep well under this
/// many pending events, so the heap never reallocates mid-run.
const EVENT_QUEUE_CAPACITY: usize = 256;

/// Most flags have zero or one waiter (readiness flags are waited on by
/// the boot manager alone), so waiter lists live inline and the hot
/// path never allocates for them.
pub(crate) const FLAG_WAITERS_INLINE: usize = 4;

#[derive(Debug, Default)]
pub(crate) struct FlagState {
    pub(crate) name: String,
    pub(crate) set_at: Option<SimTime>,
    pub(crate) waiters: SmallVec<Pid, FLAG_WAITERS_INLINE>,
}

/// The run queue: one FIFO ring per distinct nice level, levels sorted
/// by nice. A boot uses only a handful of distinct nice values, so push
/// and pop are O(#levels) scans with no per-element sifting — much
/// cheaper than the binary heap this replaces. Because `ready_seq` is
/// globally monotonic, entries within a level arrive FIFO in seq order,
/// and draining levels lowest-nice-first reproduces the old heap's
/// `(nice, seq, pid)` order exactly.
#[derive(Debug, Default)]
pub(crate) struct ReadyQueue {
    levels: Vec<(i8, VecDeque<(u64, u32)>)>,
    len: usize,
}

impl ReadyQueue {
    pub(crate) fn push(&mut self, nice: i8, seq: u64, raw: u32) {
        let idx = match self.levels.binary_search_by_key(&nice, |l| l.0) {
            Ok(i) => i,
            Err(i) => {
                self.levels.insert(i, (nice, VecDeque::new()));
                i
            }
        };
        self.levels[idx].1.push_back((seq, raw));
        self.len += 1;
    }

    /// Pops the pid of the `(nice, seq)`-minimal entry.
    pub(crate) fn pop(&mut self) -> Option<u32> {
        if self.len == 0 {
            return None;
        }
        for (_, q) in &mut self.levels {
            if let Some((_, raw)) = q.pop_front() {
                self.len -= 1;
                return Some(raw);
            }
        }
        unreachable!("ready len out of sync with levels")
    }

    pub(crate) fn len(&self) -> usize {
        self.len
    }

    pub(crate) fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Empties the queue, keeping level rings allocated (recycling).
    pub(crate) fn clear(&mut self) {
        for (_, q) in &mut self.levels {
            q.clear();
        }
        self.len = 0;
    }

    /// Entries in canonical `(nice, seq, pid)` order (snapshot encode).
    pub(crate) fn iter_sorted(&self) -> impl Iterator<Item = (i8, u64, u32)> + '_ {
        self.levels
            .iter()
            .flat_map(|(n, q)| q.iter().map(move |&(s, r)| (*n, s, r)))
    }
}

/// Where a core-occupying span started, per running process.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Running {
    pub(crate) core: CoreId,
    pub(crate) since: SimTime,
}

/// An armed crash/hang fault against a process name.
#[derive(Debug)]
pub(crate) struct ProcFaultArm {
    pub(crate) process: String,
    pub(crate) hits_left: u32,
    pub(crate) hang: bool,
}

/// An armed transient-I/O fault against a device.
#[derive(Debug)]
pub(crate) struct IoFaultArm {
    pub(crate) device: DeviceId,
    pub(crate) failures_left: u32,
    pub(crate) retry_delay: SimDuration,
}

/// Live fault-injection state built from an installed [`FaultPlan`].
/// Absent (`None` on the machine) unless a non-empty plan was installed,
/// so the fault-free path stays bit-identical.
#[derive(Debug, Default)]
pub(crate) struct FaultState {
    pub(crate) proc_arms: Vec<ProcFaultArm>,
    pub(crate) io_arms: Vec<IoFaultArm>,
    /// Flag nobody ever sets, parked on by hung processes (lazily made).
    pub(crate) hang_flag: Option<FlagId>,
}

/// The simulated machine.
#[derive(Debug)]
pub struct Machine {
    pub(crate) cfg: MachineConfig,
    pub(crate) now: SimTime,
    pub(crate) events: EventQueue,
    pub(crate) procs: Vec<Process>,
    /// `Some(pid)` per busy core.
    pub(crate) cores: Vec<Option<Pid>>,
    /// Dispatch bookkeeping for busy processes: a dense slab indexed by
    /// pid (`running[pid] == Some(..)` iff the process holds a core),
    /// kept `procs.len()` long. No hashing on the dispatch path.
    pub(crate) running: Vec<Option<Running>>,
    pub(crate) ready: ReadyQueue,
    pub(crate) ready_seq: u64,
    pub(crate) devices: Vec<Device>,
    pub(crate) flags: Vec<FlagState>,
    /// String→flag interner: flag ids sorted by flag name, binary-
    /// searched on (re)interning. Names are interned once at build time;
    /// the simulation loop itself only ever touches `FlagId` indices.
    pub(crate) flag_lookup: Vec<FlagId>,
    pub(crate) rcu: RcuEngine,
    pub(crate) trace: Trace,
    pub(crate) pending_spawns: Vec<Option<ProcessSpec>>,
    pub(crate) work: Vec<Pid>,
    pub(crate) failed: Vec<Pid>,
    pub(crate) sched_stats: SchedStats,
    pub(crate) faults: Option<FaultState>,
    /// Metrics sink; absent unless telemetry was enabled, so the
    /// uninstrumented path stays bit-identical (same pattern as
    /// `faults`).
    pub(crate) telemetry: Option<Telemetry>,
}

impl Machine {
    /// Creates an idle machine.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is degenerate (no cores, zero speed,
    /// zero quantum).
    pub fn new(cfg: MachineConfig) -> Self {
        Self::check_config(&cfg);
        Machine {
            cores: vec![None; cfg.cores],
            rcu: RcuEngine::new(cfg.rcu_mode, cfg.rcu_params),
            cfg,
            now: SimTime::ZERO,
            events: EventQueue::with_capacity(EVENT_QUEUE_CAPACITY),
            procs: Vec::new(),
            running: Vec::new(),
            ready: ReadyQueue::default(),
            ready_seq: 0,
            devices: Vec::new(),
            flags: Vec::new(),
            flag_lookup: Vec::new(),
            trace: Trace::new(),
            pending_spawns: Vec::new(),
            work: Vec::new(),
            failed: Vec::new(),
            sched_stats: SchedStats::default(),
            faults: None,
            telemetry: None,
        }
    }

    fn check_config(cfg: &MachineConfig) {
        assert!(cfg.cores > 0, "machine needs at least one core");
        assert!(
            cfg.core_speed.is_finite() && cfg.core_speed > 0.0,
            "core speed must be positive"
        );
        assert!(!cfg.quantum.is_zero(), "quantum must be nonzero");
    }

    /// Resets the machine to the pristine state [`Machine::new`]`(cfg)`
    /// would produce, but keeps the backing allocations of every arena
    /// (event heap, process table, running slab, ready queue, trace,
    /// work lists) so a recycled machine boots without reallocating.
    /// Observationally identical to a fresh machine: the recycling
    /// proptests pin trace-for-trace equality.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is degenerate, like [`Machine::new`].
    pub fn reset(&mut self, cfg: MachineConfig) {
        Self::check_config(&cfg);
        self.cores.clear();
        self.cores.resize(cfg.cores, None);
        self.rcu = RcuEngine::new(cfg.rcu_mode, cfg.rcu_params);
        self.cfg = cfg;
        self.now = SimTime::ZERO;
        self.events.reset();
        self.procs.clear();
        self.running.clear();
        self.ready.clear();
        self.ready_seq = 0;
        self.devices.clear();
        self.flags.clear();
        self.flag_lookup.clear();
        self.trace.reset();
        self.pending_spawns.clear();
        self.work.clear();
        self.failed.clear();
        self.sched_stats = SchedStats::default();
        self.faults = None;
        self.telemetry = None;
    }

    /// Current simulated time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Machine configuration.
    pub fn config(&self) -> &MachineConfig {
        &self.cfg
    }

    /// The collected trace.
    pub fn trace(&self) -> &Trace {
        &self.trace
    }

    /// Disables core-span recording (for very long runs).
    pub fn disable_span_recording(&mut self) {
        self.trace.record_spans = false;
    }

    /// RCU statistics so far.
    pub fn rcu_stats(&self) -> RcuStats {
        self.rcu.stats()
    }

    /// Scheduler counters so far.
    pub fn sched_stats(&self) -> SchedStats {
        self.sched_stats
    }

    /// Event-queue observability counters: total events scheduled and
    /// the peak pending depth (high-water mark). Host-side only — not
    /// simulated state and not part of snapshots.
    pub fn event_queue_stats(&self) -> EventQueueStats {
        self.events.stats()
    }

    /// Installs a telemetry sink. Subsequent execution records counters
    /// and histograms (RCU sync waits, run-queue depth, I/O latency)
    /// without perturbing the timeline; the instrumentation only reads
    /// state the scheduler already computes.
    pub fn enable_telemetry(&mut self) {
        if self.telemetry.is_none() {
            self.telemetry = Some(Telemetry::new());
        }
    }

    /// The telemetry sink, if enabled.
    pub fn telemetry(&self) -> Option<&Telemetry> {
        self.telemetry.as_ref()
    }

    /// Switches the RCU waiter mode (the Booster Control knob).
    pub fn set_rcu_mode(&mut self, mode: RcuMode) {
        self.rcu.set_mode(mode);
    }

    /// Current RCU waiter mode.
    pub fn rcu_mode(&self) -> RcuMode {
        self.rcu.mode()
    }

    /// Adds a storage device and returns its id.
    pub fn add_device(&mut self, name: impl Into<String>, profile: DeviceProfile) -> DeviceId {
        let id = DeviceId::from_raw(self.devices.len() as u32);
        self.devices.push(Device::new(id, name, profile));
        id
    }

    /// Read-only access to a device (for stats).
    pub fn device(&self, id: DeviceId) -> &Device {
        &self.devices[id.index()]
    }

    /// Returns the flag with the given name, creating (interning) it if
    /// needed. Interning happens at machine-build time; after that the
    /// returned `FlagId` is a plain index and the name is never hashed
    /// or compared again.
    pub fn flag(&mut self, name: impl Into<String>) -> FlagId {
        let name = name.into();
        match self.lookup_flag(&name) {
            Ok(id) => id,
            Err(slot) => {
                let id = FlagId::from_raw(self.flags.len() as u32);
                self.flags.push(FlagState {
                    name,
                    set_at: None,
                    waiters: SmallVec::new(),
                });
                self.flag_lookup.insert(slot, id);
                id
            }
        }
    }

    /// Binary-searches the name interner. `Ok(id)` if interned,
    /// `Err(insertion_slot)` otherwise.
    fn lookup_flag(&self, name: &str) -> Result<FlagId, usize> {
        let flags = &self.flags;
        self.flag_lookup
            .binary_search_by(|&id| flags[id.index()].name.as_str().cmp(name))
            .map(|i| self.flag_lookup[i])
    }

    /// Name of a flag.
    pub fn flag_name(&self, id: FlagId) -> &str {
        &self.flags[id.index()].name
    }

    /// When the flag was set, if it has been.
    pub fn flag_set_at(&self, id: FlagId) -> Option<SimTime> {
        self.flags[id.index()].set_at
    }

    /// Number of processes created so far.
    pub fn process_count(&self) -> usize {
        self.procs.len()
    }

    /// Read-only access to a process (for stats and assertions).
    pub fn process(&self, pid: Pid) -> &Process {
        &self.procs[pid.index()]
    }

    /// All processes, for reports.
    pub fn processes(&self) -> &[Process] {
        &self.procs
    }

    /// Spawns a process, ready at the current time. Returns its pid.
    pub fn spawn(&mut self, spec: ProcessSpec) -> Pid {
        let pid = self.add_process(spec);
        self.work.push(pid);
        self.drain_work();
        pid
    }

    /// Creates the process record for `spec` (trace entry, process
    /// table, running-slab slot) without making it runnable.
    fn add_process(&mut self, spec: ProcessSpec) -> Pid {
        let pid = Pid::from_raw(self.procs.len() as u32);
        self.trace.push(
            self.now,
            pid,
            TraceKind::Spawned {
                name: spec.name.clone(),
            },
        );
        self.procs.push(Process::from_spec(pid, spec, self.now));
        self.running.push(None);
        pid
    }

    /// Schedules a process to spawn at a future time.
    ///
    /// # Panics
    ///
    /// Panics if `at` is in the past.
    pub fn spawn_at(&mut self, at: SimTime, spec: ProcessSpec) {
        assert!(at >= self.now, "spawn_at in the past");
        let slot = self.pending_spawns.len() as u32;
        self.pending_spawns.push(Some(spec));
        self.events
            .push(at, EventKind::ExternalSpawn { spawn_slot: slot });
    }

    /// Sets a flag from outside the simulation (e.g. a kernel phase model
    /// marking the rootfs mounted before user space starts).
    pub fn set_flag_external(&mut self, flag: FlagId) {
        self.do_set_flag(flag, Pid::from_raw(u32::MAX));
        self.drain_work();
        self.dispatch();
    }

    /// Installs a fault plan. Call after the targeted devices have been
    /// added; device-level faults resolve names against existing devices
    /// (unknown names are ignored, so generic plans work across
    /// scenarios). Installing an empty plan is a strict no-op — the run
    /// stays bit-identical to an uninstrumented one.
    ///
    /// [`Fault::SlowDevice`] takes effect immediately (the device's
    /// profile is degraded for the rest of the run); the other faults
    /// arm triggers that fire during execution. Every injection is
    /// recorded as [`TraceKind::FaultInjected`].
    pub fn install_fault_plan(&mut self, plan: &FaultPlan) {
        if plan.is_empty() {
            return;
        }
        let mut state = self.faults.take().unwrap_or_default();
        for fault in &plan.faults {
            match fault {
                Fault::CrashAtReadiness { process, hits } => {
                    state.proc_arms.push(ProcFaultArm {
                        process: process.clone(),
                        hits_left: *hits,
                        hang: false,
                    });
                }
                Fault::HangBeforeReady { process, hits } => {
                    state.proc_arms.push(ProcFaultArm {
                        process: process.clone(),
                        hits_left: *hits,
                        hang: true,
                    });
                }
                Fault::TransientIoError {
                    device,
                    failures,
                    retry_delay,
                } => {
                    if let Some(d) = self.devices.iter().find(|d| d.name == *device) {
                        state.io_arms.push(IoFaultArm {
                            device: d.id,
                            failures_left: *failures,
                            retry_delay: *retry_delay,
                        });
                    }
                }
                Fault::SlowDevice { device, factor } => {
                    assert!(
                        factor.is_finite() && *factor >= 1.0,
                        "slow-device factor must be >= 1.0"
                    );
                    if let Some(d) = self.devices.iter_mut().find(|d| d.name == *device) {
                        let p = &mut d.profile;
                        p.seq_read_bps = ((p.seq_read_bps as f64 / factor) as u64).max(1);
                        p.rand_read_bps = ((p.rand_read_bps as f64 / factor) as u64).max(1);
                        p.request_latency = p.request_latency.scale(*factor);
                        self.trace.push(
                            self.now,
                            Pid::from_raw(u32::MAX),
                            TraceKind::FaultInjected {
                                description: fault.describe(),
                            },
                        );
                    }
                }
            }
        }
        self.faults = Some(state);
    }

    /// True if `name` is the faulted process or a respawned incarnation
    /// of it (`name#k`).
    fn fault_matches(target: &str, name: &str) -> bool {
        name == target
            || (name.len() > target.len() + 1
                && name.as_bytes()[target.len()] == b'#'
                && name.starts_with(target))
    }

    /// Injects a crash/hang if one is armed for this process. Returns
    /// true if the process was afflicted (its SetFlag must not execute).
    fn try_inject_readiness_fault(&mut self, pid: Pid, ready_flag: FlagId) -> bool {
        let Some(state) = self.faults.as_mut() else {
            return false;
        };
        let name = self.procs[pid.index()].name.clone();
        let Some(arm) = state
            .proc_arms
            .iter_mut()
            .find(|a| a.hits_left > 0 && Self::fault_matches(&a.process, &name))
        else {
            return false;
        };
        arm.hits_left -= 1;
        let hang = arm.hang;
        if hang {
            let flag = match state.hang_flag {
                Some(f) => f,
                None => {
                    let f = self.flag("fault:hang");
                    self.faults.as_mut().expect("fault state exists").hang_flag = Some(f);
                    f
                }
            };
            self.trace.push(
                self.now,
                pid,
                TraceKind::FaultInjected {
                    description: format!("hang before ready: {name}"),
                },
            );
            let p = &mut self.procs[pid.index()];
            p.ops.clear();
            p.ops.push_back(Op::WaitFlag(flag));
            // The caller's step loop re-reads the front op and blocks.
        } else {
            self.trace.push(
                self.now,
                pid,
                TraceKind::FaultInjected {
                    description: format!("crash at readiness: {name}"),
                },
            );
            let p = &mut self.procs[pid.index()];
            p.ops.clear();
            p.state = ProcState::Done;
            p.finished_at = Some(self.now);
            self.failed.push(pid);
            self.trace
                .push(self.now, pid, TraceKind::Failed { flag: ready_flag });
            // Signal supervision watchers (if any) that this incarnation
            // crashed. The flag is per-incarnation: `fault:crashed:<name>`.
            let crashed = self.flag(format!("fault:crashed:{name}"));
            self.do_set_flag(crashed, pid);
        }
        true
    }

    /// Consumes one armed transient-I/O failure for `device`, if any.
    /// Returns the retry delay the caller must impose before re-issuing.
    fn try_inject_io_fault(&mut self, pid: Pid, device: DeviceId) -> Option<SimDuration> {
        let state = self.faults.as_mut()?;
        let arm = state
            .io_arms
            .iter_mut()
            .find(|a| a.failures_left > 0 && a.device == device)?;
        arm.failures_left -= 1;
        let delay = arm.retry_delay;
        let name = self.devices[device.index()].name.clone();
        self.trace.push(
            self.now,
            pid,
            TraceKind::FaultInjected {
                description: format!("transient I/O error: {name}"),
            },
        );
        Some(delay)
    }

    /// Advances simulated time without running anything (used by phase
    /// models for costs that happen before/outside process execution).
    ///
    /// # Panics
    ///
    /// Panics if events are pending before the target time; skipping over
    /// scheduled work would corrupt the timeline.
    pub fn advance_time(&mut self, d: SimDuration) {
        let target = self.now + d;
        if let Some(t) = self.events.peek_time() {
            assert!(
                t >= target,
                "advance_time would skip a pending event at {t}"
            );
        }
        assert!(
            self.ready.is_empty(),
            "advance_time with runnable processes pending; run() them first"
        );
        self.now = target;
    }

    /// Runs until no events remain and nothing is ready.
    pub fn run(&mut self) -> RunOutcome {
        self.dispatch();
        while let Some((time, kind)) = self.events.pop() {
            debug_assert!(time >= self.now, "event queue went backwards");
            // Stale timed-wait timeouts are dropped *before* the clock
            // advances, so they never extend the run's end time.
            if self.event_is_stale(kind) {
                continue;
            }
            self.now = time;
            self.handle(kind);
            self.drain_work();
            self.dispatch();
        }
        let blocked = self
            .procs
            .iter()
            .filter(|p| matches!(p.state, ProcState::Blocked(_)))
            .map(|p| p.pid)
            .collect();
        RunOutcome {
            end_time: self.now,
            blocked,
            failed: self.failed.clone(),
        }
    }

    /// Runs until the given time (inclusive of events at it), leaving
    /// later events pending. Returns the new current time.
    pub fn run_until(&mut self, until: SimTime) -> SimTime {
        self.dispatch();
        while let Some(t) = self.events.peek_time() {
            if t > until {
                break;
            }
            let (time, kind) = self.events.pop().expect("peeked event exists");
            if self.event_is_stale(kind) {
                continue;
            }
            self.now = time;
            self.handle(kind);
            self.drain_work();
            self.dispatch();
        }
        self.now = self.now.max(until);
        self.now
    }

    /// True for events that were invalidated after scheduling (a timed
    /// flag wait whose flag arrived first).
    fn event_is_stale(&self, kind: EventKind) -> bool {
        match kind {
            EventKind::FlagWaitTimeout { pid, seq } => {
                self.procs[pid.index()].timed_wait_seq != seq
            }
            _ => false,
        }
    }

    // ---- internal: event handling -------------------------------------

    fn handle(&mut self, kind: EventKind) {
        match kind {
            EventKind::SliceDone { pid, core } => self.on_slice_done(pid, core),
            EventKind::ReadHoldDone { pid, core } => self.on_read_hold_done(pid, core),
            EventKind::IoDone { device } => self.on_io_done(device),
            EventKind::RcuGraceDone => self.on_grace_done(),
            EventKind::WakeUp { pid } => self.on_wake(pid),
            EventKind::FlagWaitTimeout { pid, seq } => self.on_flag_wait_timeout(pid, seq),
            EventKind::ExternalSpawn { spawn_slot } => {
                let spec = self.pending_spawns[spawn_slot as usize]
                    .take()
                    .expect("spawn slot fired twice");
                let pid = self.add_process(spec);
                self.work.push(pid);
            }
        }
    }

    fn on_slice_done(&mut self, pid: Pid, core: CoreId) {
        if !self.procs[pid.index()].compute_left.is_zero() {
            // Preemption point: requeue with remaining work.
            self.sched_stats.preemptions += 1;
            // Same-core continuation: with nothing else ready and every
            // lower-indexed core busy, release + requeue + dispatch
            // provably re-grants this core to this process, so skip the
            // ready-heap and core churn. Every side effect of the slow
            // path (ready_seq, span boundary, stats, telemetry, event
            // push order) is replicated exactly, keeping timelines and
            // snapshots bit-identical.
            if self.ready.is_empty() && self.cores[..core.index()].iter().all(Option::is_some) {
                let seq = self.ready_seq;
                self.ready_seq += 1;
                self.sched_stats.dispatches += 1;
                if let Some(t) = self.telemetry.as_mut() {
                    t.metrics.record(telemetry::RUN_QUEUE_DEPTH, 0);
                }
                let run = self.running[pid.index()]
                    .as_mut()
                    .expect("sliced process is running");
                let since = run.since;
                run.since = self.now;
                if since < self.now {
                    self.trace.push_span(CoreSpan {
                        core,
                        pid,
                        start: since,
                        end: self.now,
                    });
                }
                let speed = self.cfg.core_speed;
                let p = &mut self.procs[pid.index()];
                p.ready_seq = seq;
                let slice = p.compute_left.min(self.cfg.quantum);
                p.compute_left = p.compute_left - slice;
                let wall = slice.scale(1.0 / speed);
                p.cpu_time += wall;
                self.events
                    .push(self.now + wall, EventKind::SliceDone { pid, core });
            } else {
                self.release_core(pid, core);
                self.make_ready(pid);
            }
            return;
        }
        self.release_core(pid, core);
        let p = &mut self.procs[pid.index()];
        // Compute op finished (or a PollFlag check completed).
        match p.ops.front() {
            Some(Op::Compute(_)) => {
                p.ops.pop_front();
                self.work.push(pid);
            }
            Some(Op::PollFlag { flag, interval, .. }) => {
                let (flag, interval) = (*flag, *interval);
                if self.flags[flag.index()].set_at.is_some() {
                    self.procs[pid.index()].ops.pop_front();
                    self.work.push(pid);
                } else {
                    self.procs[pid.index()].state = ProcState::Blocked(BlockReason::Sleep);
                    self.events
                        .push(self.now + interval, EventKind::WakeUp { pid });
                }
            }
            other => unreachable!("slice done with unexpected front op {other:?}"),
        }
    }

    fn on_read_hold_done(&mut self, pid: Pid, core: CoreId) {
        self.rcu.reader_exit();
        self.release_core(pid, core);
        let p = &mut self.procs[pid.index()];
        debug_assert!(matches!(p.ops.front(), Some(Op::RcuReadHold(_))));
        p.ops.pop_front();
        self.work.push(pid);
    }

    fn on_io_done(&mut self, device: DeviceId) {
        let (done, next) = self.devices[device.index()].complete_head(self.now);
        if let Some(next_done) = next {
            self.events.push(next_done, EventKind::IoDone { device });
        }
        if let Some(t) = self.telemetry.as_mut() {
            let latency = self.now.saturating_since(done.submitted_at);
            t.metrics
                .record(telemetry::IO_REQUEST_LATENCY_NS, latency.as_nanos());
        }
        let p = &mut self.procs[done.pid.index()];
        debug_assert_eq!(p.state, ProcState::Blocked(BlockReason::Io));
        debug_assert!(matches!(p.ops.front(), Some(Op::IoRead { .. })));
        p.ops.pop_front();
        self.work.push(done.pid);
    }

    fn on_grace_done(&mut self) {
        let (released, next) = self.rcu.complete_grace_period(self.now);
        if let Some(next_end) = next {
            self.events.push(next_end, EventKind::RcuGraceDone);
        }
        for waiter in released {
            let waited = self.now.saturating_since(waiter.submitted_at);
            if let Some(t) = self.telemetry.as_mut() {
                t.metrics.add(telemetry::RCU_SYNCS, 1);
                t.metrics
                    .record(telemetry::RCU_SYNC_WAIT_NS, waited.as_nanos());
            }
            self.trace
                .push(self.now, waiter.pid, TraceKind::RcuSyncDone { waited });
            match waiter.kind {
                crate::rcu::WaitKind::Spinning => {
                    // The waiter burned its core the whole time; charge
                    // and free it.
                    let run = self.running[waiter.pid.index()].expect("spinning waiter runs");
                    self.procs[waiter.pid.index()].cpu_time += self.now.saturating_since(run.since);
                    self.release_core(waiter.pid, run.core);
                    self.work.push(waiter.pid);
                }
                crate::rcu::WaitKind::SleepingClassic => {
                    let p = &mut self.procs[waiter.pid.index()];
                    debug_assert_eq!(p.state, ProcState::Blocked(BlockReason::RcuBlocked));
                    self.work.push(waiter.pid);
                }
                crate::rcu::WaitKind::SleepingBoosted => {
                    // Wake the sleeper; it pays a context switch on-CPU.
                    let p = &mut self.procs[waiter.pid.index()];
                    debug_assert_eq!(p.state, ProcState::Blocked(BlockReason::RcuBlocked));
                    let ctx = self.rcu.params().ctx_switch_cost;
                    if !ctx.is_zero() {
                        p.ops.push_front(Op::Compute(ctx));
                    }
                    self.work.push(waiter.pid);
                }
            }
        }
    }

    fn on_flag_wait_timeout(&mut self, pid: Pid, seq: u64) {
        // Stale timeouts are filtered before time advances (see `run`),
        // so a firing here is for the currently parked wait.
        let p = &mut self.procs[pid.index()];
        debug_assert_eq!(p.timed_wait_seq, seq);
        let Some(&Op::TimedWaitFlag { flag, .. }) = p.ops.front() else {
            unreachable!("timed-wait timeout with unexpected front op");
        };
        debug_assert_eq!(p.state, ProcState::Blocked(BlockReason::Flag(flag)));
        p.timed_wait_seq += 1;
        p.ops.pop_front();
        self.flags[flag.index()].waiters.retain(|&w| w != pid);
        self.work.push(pid);
    }

    fn on_wake(&mut self, pid: Pid) {
        let p = &mut self.procs[pid.index()];
        debug_assert_eq!(p.state, ProcState::Blocked(BlockReason::Sleep));
        match p.ops.front() {
            Some(Op::Sleep(_)) => {
                p.ops.pop_front();
            }
            // A PollFlag sleeper re-checks on wake (the op stays at front
            // and is re-dispatched for its next on-CPU check).
            Some(Op::PollFlag { .. }) => {}
            other => unreachable!("wake with unexpected front op {other:?}"),
        }
        self.work.push(pid);
    }

    // ---- internal: process advancement ---------------------------------

    fn drain_work(&mut self) {
        while let Some(pid) = self.work.pop() {
            self.step_process(pid);
        }
    }

    /// Folds zero-cost ops and parks the process in the state its next
    /// real op requires (ready, blocked, or done).
    ///
    /// Allocation-free: every arm borrows the front op and copies only
    /// its scalar payload; `Spawn` — the one op with heap payload —
    /// pops the op and *moves* the spec into the child instead of
    /// deep-cloning it.
    fn step_process(&mut self, pid: Pid) {
        loop {
            match self.procs[pid.index()].ops.front() {
                None => {
                    let p = &mut self.procs[pid.index()];
                    if p.state != ProcState::Done {
                        p.state = ProcState::Done;
                        p.finished_at = Some(self.now);
                        self.trace.push(self.now, pid, TraceKind::Finished);
                    }
                    return;
                }
                Some(&Op::Compute(d)) => {
                    let p = &mut self.procs[pid.index()];
                    if p.compute_left.is_zero() {
                        p.compute_left = d;
                    }
                    self.make_ready(pid);
                    return;
                }
                Some(&Op::PollFlag { flag, .. }) => {
                    // PollFlag with an already-set flag can skip the check.
                    if self.flags[flag.index()].set_at.is_some() {
                        self.procs[pid.index()].ops.pop_front();
                        continue;
                    }
                    self.make_ready(pid);
                    return;
                }
                Some(&Op::RcuReadHold(_)) | Some(&Op::RcuSync) => {
                    self.make_ready(pid);
                    return;
                }
                Some(&Op::IoRead {
                    device,
                    bytes,
                    pattern,
                }) => {
                    if let Some(delay) = self.try_inject_io_fault(pid, device) {
                        // Failed read: back off, then retry the same op.
                        self.procs[pid.index()].ops.push_front(Op::Sleep(delay));
                        continue;
                    }
                    let req = IoRequest {
                        pid,
                        bytes,
                        pattern,
                        priority: self.procs[pid.index()].io_priority,
                        submitted_at: self.now,
                    };
                    self.procs[pid.index()].state = ProcState::Blocked(BlockReason::Io);
                    self.sched_stats.io_requests += 1;
                    if let Some(done_at) = self.devices[device.index()].submit(req, self.now) {
                        self.events.push(done_at, EventKind::IoDone { device });
                    }
                    return;
                }
                Some(&Op::Sleep(d)) => {
                    self.procs[pid.index()].state = ProcState::Blocked(BlockReason::Sleep);
                    self.events.push(self.now + d, EventKind::WakeUp { pid });
                    return;
                }
                Some(&Op::WaitFlag(flag)) => {
                    if self.flags[flag.index()].set_at.is_some() {
                        self.procs[pid.index()].ops.pop_front();
                        continue;
                    }
                    self.procs[pid.index()].state = ProcState::Blocked(BlockReason::Flag(flag));
                    self.flags[flag.index()].waiters.push(pid);
                    return;
                }
                Some(&Op::TimedWaitFlag { flag, timeout }) => {
                    if self.flags[flag.index()].set_at.is_some() {
                        self.procs[pid.index()].ops.pop_front();
                        continue;
                    }
                    let p = &mut self.procs[pid.index()];
                    p.state = ProcState::Blocked(BlockReason::Flag(flag));
                    let seq = p.timed_wait_seq;
                    self.flags[flag.index()].waiters.push(pid);
                    self.events
                        .push(self.now + timeout, EventKind::FlagWaitTimeout { pid, seq });
                    return;
                }
                Some(&Op::AssertFlag(flag)) => {
                    if self.flags[flag.index()].set_at.is_some() {
                        self.procs[pid.index()].ops.pop_front();
                        continue;
                    }
                    let p = &mut self.procs[pid.index()];
                    p.ops.clear();
                    p.state = ProcState::Done;
                    p.finished_at = Some(self.now);
                    self.failed.push(pid);
                    self.trace.push(self.now, pid, TraceKind::Failed { flag });
                    return;
                }
                Some(&Op::CondSkip { flag, skip_ops }) => {
                    let p = &mut self.procs[pid.index()];
                    p.ops.pop_front();
                    if self.flags[flag.index()].set_at.is_none() {
                        for _ in 0..skip_ops {
                            if self.procs[pid.index()].ops.pop_front().is_none() {
                                break;
                            }
                        }
                    }
                }
                Some(&Op::SetFlag(flag)) => {
                    if self.try_inject_readiness_fault(pid, flag) {
                        // Crashed processes are done; hung ones now have a
                        // fresh front op to park on.
                        if self.procs[pid.index()].state == ProcState::Done {
                            return;
                        }
                        continue;
                    }
                    self.procs[pid.index()].ops.pop_front();
                    self.do_set_flag(flag, pid);
                }
                Some(&Op::Spawn(_)) => {
                    let Some(Op::Spawn(spec)) = self.procs[pid.index()].ops.pop_front() else {
                        unreachable!("front op changed under us");
                    };
                    let child = self.add_process(spec);
                    self.work.push(child);
                }
                Some(&Op::Yield) => {
                    self.procs[pid.index()].ops.pop_front();
                    // A bare requeue: if the next op needs a core it will
                    // naturally arrive behind current ready peers.
                }
                Some(&Op::SetRcuMode(mode)) => {
                    self.procs[pid.index()].ops.pop_front();
                    self.rcu.set_mode(mode);
                }
            }
        }
    }

    fn do_set_flag(&mut self, flag: FlagId, setter: Pid) {
        let f = &mut self.flags[flag.index()];
        if f.set_at.is_some() {
            return;
        }
        f.set_at = Some(self.now);
        self.trace
            .push(self.now, setter, TraceKind::FlagSet { flag });
        for waiter in std::mem::take(&mut f.waiters) {
            self.sched_stats.flag_wakeups += 1;
            let p = &mut self.procs[waiter.index()];
            debug_assert_eq!(p.state, ProcState::Blocked(BlockReason::Flag(flag)));
            match p.ops.front() {
                Some(Op::WaitFlag(_)) => {
                    p.ops.pop_front();
                }
                Some(Op::TimedWaitFlag { .. }) => {
                    // Invalidate the pending timeout event for this wait.
                    p.timed_wait_seq += 1;
                    p.ops.pop_front();
                }
                other => unreachable!("flag waiter with unexpected front op {other:?}"),
            }
            self.work.push(waiter);
        }
    }

    fn make_ready(&mut self, pid: Pid) {
        let seq = self.ready_seq;
        self.ready_seq += 1;
        let p = &mut self.procs[pid.index()];
        p.state = ProcState::Ready;
        p.ready_seq = seq;
        self.ready.push(p.nice, seq, pid.as_raw());
    }

    // ---- internal: dispatching -----------------------------------------

    fn dispatch(&mut self) {
        loop {
            let Some(core) = self.cores.iter().position(Option::is_none) else {
                return;
            };
            let Some(raw) = self.ready.pop() else {
                return;
            };
            let pid = Pid::from_raw(raw);
            self.start_on_core(pid, CoreId::from_raw(core as u32));
        }
    }

    fn start_on_core(&mut self, pid: Pid, core: CoreId) {
        debug_assert!(self.cores[core.index()].is_none());
        self.sched_stats.dispatches += 1;
        if let Some(t) = self.telemetry.as_mut() {
            // Depth left behind after this dispatch took a process.
            t.metrics
                .record(telemetry::RUN_QUEUE_DEPTH, self.ready.len() as u64);
        }
        self.cores[core.index()] = Some(pid);
        self.running[pid.index()] = Some(Running {
            core,
            since: self.now,
        });
        let speed = self.cfg.core_speed;
        let p = &mut self.procs[pid.index()];
        p.state = ProcState::Running;
        if !p.first_dispatched {
            p.first_dispatched = true;
            self.trace.push(self.now, pid, TraceKind::FirstRun);
        }
        match self.procs[pid.index()].ops.front() {
            Some(&Op::Compute(_)) => {
                let p = &mut self.procs[pid.index()];
                let slice = p.compute_left.min(self.cfg.quantum);
                p.compute_left = p.compute_left - slice;
                let wall = slice.scale(1.0 / speed);
                p.cpu_time += wall;
                self.events
                    .push(self.now + wall, EventKind::SliceDone { pid, core });
            }
            Some(&Op::PollFlag { poll_cost, .. }) => {
                let wall = poll_cost.scale(1.0 / speed).max(SimDuration::from_nanos(1));
                self.procs[pid.index()].cpu_time += wall;
                self.events
                    .push(self.now + wall, EventKind::SliceDone { pid, core });
            }
            Some(&Op::RcuReadHold(d)) => {
                self.rcu.reader_enter();
                let wall = d.scale(1.0 / speed);
                self.procs[pid.index()].cpu_time += wall;
                self.events
                    .push(self.now + wall, EventKind::ReadHoldDone { pid, core });
            }
            Some(&Op::RcuSync) => {
                self.procs[pid.index()].ops.pop_front();
                let overhead = self.rcu.submit_overhead().scale(1.0 / speed);
                self.procs[pid.index()].cpu_time += overhead;
                let submit_at = self.now + overhead;
                // The overhead is tiny; fold it by submitting now but
                // starting the grace period after the overhead.
                let (kind, started) = self.rcu.submit(pid, submit_at);
                if let Some(end) = started {
                    self.events.push(end, EventKind::RcuGraceDone);
                }
                match kind {
                    crate::rcu::WaitKind::Spinning => {
                        // Busy-wait: keep the core until the grace period
                        // releases this waiter (handled in on_grace_done).
                    }
                    crate::rcu::WaitKind::SleepingClassic
                    | crate::rcu::WaitKind::SleepingBoosted => {
                        self.release_core(pid, core);
                        self.procs[pid.index()].state = ProcState::Blocked(BlockReason::RcuBlocked);
                    }
                }
            }
            other => unreachable!("dispatched process with non-core op {other:?}"),
        }
    }

    fn release_core(&mut self, pid: Pid, core: CoreId) {
        debug_assert_eq!(self.cores[core.index()], Some(pid));
        self.cores[core.index()] = None;
        if let Some(run) = self.running[pid.index()].take() {
            if run.since < self.now {
                self.trace.push_span(CoreSpan {
                    core,
                    pid,
                    start: run.since,
                    end: self.now,
                });
            }
        }
    }
}

/// Reusable machine factory for hot loops (fleet cells, sweeps):
/// recycles one finished machine's arena allocations across boots —
/// reset-and-rebuild instead of alloc-and-drop per job.
///
/// Contract: a machine obtained from [`MachineBuilder::build`] is
/// observationally identical to `Machine::new(cfg)` — same timelines,
/// traces, and snapshots, event for event — regardless of what the
/// recycled machine ran before (see `Machine::reset`).
///
/// ```
/// use bb_sim::{Machine, MachineBuilder, MachineConfig};
///
/// let mut builder = MachineBuilder::new();
/// for _ in 0..3 {
///     let mut m = builder.build(MachineConfig::default());
///     // ... run the boot ...
///     builder.recycle(m);
/// }
/// ```
#[derive(Debug, Default)]
pub struct MachineBuilder {
    spare: Option<Machine>,
}

impl MachineBuilder {
    /// Creates a builder with no recycled machine yet.
    pub fn new() -> Self {
        Self::default()
    }

    /// Returns a pristine machine for `cfg`, reusing the allocations of
    /// the last recycled machine when one is available.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is degenerate, like [`Machine::new`].
    pub fn build(&mut self, cfg: MachineConfig) -> Machine {
        match self.spare.take() {
            Some(mut m) => {
                m.reset(cfg);
                m
            }
            None => Machine::new(cfg),
        }
    }

    /// Hands a finished machine back for reuse by the next `build`.
    pub fn recycle(&mut self, machine: Machine) {
        self.spare = Some(machine);
    }

    /// Restores a machine from snapshot bytes (see
    /// [`crate::snapshot::restore`]), grafting the recycled machine's
    /// buffer capacity onto the restored machine. A fleet inner loop
    /// that restores the same checkpoint thousands of times stops
    /// re-growing the trace, event heap, and process tables from
    /// scratch every job. Capacity is never observable: timelines,
    /// traces, and snapshots are bit-identical to a plain restore.
    pub fn restore(&mut self, bytes: &[u8]) -> Result<Machine, crate::snapshot::SnapshotError> {
        let mut m = crate::snapshot::restore(bytes)?;
        if let Some(spare) = self.spare.take() {
            m.adopt_capacity(spare);
        }
        Ok(m)
    }
}

/// Moves `spare`'s larger backing buffer under `dst`, preserving
/// `dst`'s contents. No-op when `dst` is already at least as large.
fn graft<T>(dst: &mut Vec<T>, mut spare: Vec<T>) {
    if spare.capacity() > dst.capacity() {
        spare.clear();
        spare.append(dst);
        *dst = spare;
    }
}

impl Machine {
    /// Adopts `spare`'s high-water buffer capacities without changing
    /// any observable state (machine recycling for restore-heavy
    /// loops).
    fn adopt_capacity(&mut self, spare: Machine) {
        let Machine {
            events,
            procs,
            running,
            flags,
            flag_lookup,
            trace,
            pending_spawns,
            work,
            failed,
            ..
        } = spare;
        self.events.adopt_capacity(events);
        graft(&mut self.procs, procs);
        graft(&mut self.running, running);
        graft(&mut self.flags, flags);
        graft(&mut self.flag_lookup, flag_lookup);
        graft(&mut self.trace.events, trace.events);
        graft(&mut self.trace.spans, trace.spans);
        graft(&mut self.pending_spawns, pending_spawns);
        graft(&mut self.work, work);
        graft(&mut self.failed, failed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::process::OpsBuilder;

    fn machine(cores: usize) -> Machine {
        Machine::new(MachineConfig {
            cores,
            ..MachineConfig::default()
        })
    }

    #[test]
    fn single_compute_process_runs_to_completion() {
        let mut m = machine(1);
        let pid = m.spawn(ProcessSpec::new(
            "worker",
            OpsBuilder::new().compute_ms(5).build(),
        ));
        let out = m.run();
        assert_eq!(out.end_time.as_millis(), 5);
        assert!(out.blocked.is_empty());
        assert_eq!(m.process(pid).state, ProcState::Done);
        assert_eq!(m.process(pid).cpu_time.as_millis(), 5);
    }

    #[test]
    fn two_processes_share_one_core() {
        let mut m = machine(1);
        m.spawn(ProcessSpec::new(
            "a",
            OpsBuilder::new().compute_ms(3).build(),
        ));
        m.spawn(ProcessSpec::new(
            "b",
            OpsBuilder::new().compute_ms(3).build(),
        ));
        let out = m.run();
        // Serialized on one core: 6 ms total.
        assert_eq!(out.end_time.as_millis(), 6);
    }

    #[test]
    fn two_processes_run_in_parallel_on_two_cores() {
        let mut m = machine(2);
        m.spawn(ProcessSpec::new(
            "a",
            OpsBuilder::new().compute_ms(3).build(),
        ));
        m.spawn(ProcessSpec::new(
            "b",
            OpsBuilder::new().compute_ms(3).build(),
        ));
        let out = m.run();
        assert_eq!(out.end_time.as_millis(), 3);
    }

    #[test]
    fn priority_preempts_at_quantum_granularity() {
        let mut m = machine(1);
        m.spawn(ProcessSpec::new(
            "low",
            OpsBuilder::new().compute_ms(10).build(),
        ));
        m.spawn(ProcessSpec::new("high", OpsBuilder::new().compute_ms(2).build()).with_nice(-20));
        m.run();
        let tl = m.trace().process_timeline();
        let high_done = tl
            .values()
            .find(|t| t.name == "high")
            .and_then(|t| t.finished)
            .unwrap();
        // High-priority work finishes long before the 10 ms low job would
        // allow if it ran to completion first (1 ms head start max).
        assert!(high_done.as_millis() <= 3, "high finished at {high_done}");
    }

    #[test]
    fn core_speed_scales_compute() {
        let mut m = Machine::new(MachineConfig {
            cores: 1,
            core_speed: 2.0,
            ..MachineConfig::default()
        });
        m.spawn(ProcessSpec::new(
            "a",
            OpsBuilder::new().compute_ms(10).build(),
        ));
        let out = m.run();
        assert_eq!(out.end_time.as_millis(), 5);
    }

    #[test]
    fn io_blocks_and_overlaps_with_compute() {
        let mut m = machine(1);
        let dev = m.add_device("emmc", DeviceProfile::from_mibs(1, 1, SimDuration::ZERO));
        // Reader waits 1 s for I/O while the computer uses the core.
        m.spawn(ProcessSpec::new(
            "reader",
            OpsBuilder::new().read_seq(dev, crate::io::MIB).build(),
        ));
        m.spawn(ProcessSpec::new(
            "computer",
            OpsBuilder::new().compute_ms(800).build(),
        ));
        let out = m.run();
        // Overlap: total is max(1000, 800) = 1000 ms, not 1800.
        assert_eq!(out.end_time.as_millis(), 1000);
        assert_eq!(m.device(dev).bytes_read, crate::io::MIB);
    }

    #[test]
    fn flags_order_processes() {
        let mut m = machine(2);
        let f = m.flag("a-ready");
        m.spawn(ProcessSpec::new(
            "b",
            OpsBuilder::new().wait_flag(f).compute_ms(1).build(),
        ));
        m.spawn(ProcessSpec::new(
            "a",
            OpsBuilder::new().compute_ms(5).set_flag(f).build(),
        ));
        let out = m.run();
        assert_eq!(out.end_time.as_millis(), 6);
        assert_eq!(m.flag_set_at(f).unwrap().as_millis(), 5);
        assert!(out.blocked.is_empty());
    }

    #[test]
    fn unset_flag_leaves_waiter_blocked() {
        let mut m = machine(1);
        let f = m.flag("never");
        let pid = m.spawn(ProcessSpec::new(
            "waiter",
            OpsBuilder::new().wait_flag(f).build(),
        ));
        let out = m.run();
        assert_eq!(out.blocked, vec![pid]);
    }

    #[test]
    fn assert_flag_fails_process() {
        let mut m = machine(1);
        let f = m.flag("prereq");
        let pid = m.spawn(ProcessSpec::new(
            "fragile",
            OpsBuilder::new().assert_flag(f).compute_ms(1).build(),
        ));
        let out = m.run();
        assert_eq!(out.failed, vec![pid]);
        let tl = m.trace().process_timeline();
        assert!(tl[&pid].failed);
    }

    #[test]
    fn assert_flag_passes_when_set() {
        let mut m = machine(1);
        let f = m.flag("prereq");
        m.spawn(ProcessSpec::new(
            "setter",
            OpsBuilder::new().set_flag(f).build(),
        ));
        m.spawn(ProcessSpec::new(
            "fragile",
            OpsBuilder::new().assert_flag(f).compute_ms(1).build(),
        ));
        let out = m.run();
        assert!(out.failed.is_empty());
    }

    #[test]
    fn spawn_op_creates_children() {
        let mut m = machine(2);
        let child = ProcessSpec::new("child", OpsBuilder::new().compute_ms(2).build());
        m.spawn(ProcessSpec::new(
            "parent",
            OpsBuilder::new()
                .compute_ms(1)
                .spawn(child)
                .compute_ms(1)
                .build(),
        ));
        let out = m.run();
        assert_eq!(m.process_count(), 2);
        // Child spawns at 1 ms, runs 2 ms in parallel with parent's tail.
        assert_eq!(out.end_time.as_millis(), 3);
    }

    #[test]
    fn sleep_is_off_cpu() {
        let mut m = machine(1);
        m.spawn(ProcessSpec::new(
            "sleeper",
            OpsBuilder::new()
                .sleep(SimDuration::from_millis(10))
                .compute_ms(1)
                .build(),
        ));
        m.spawn(ProcessSpec::new(
            "worker",
            OpsBuilder::new().compute_ms(8).build(),
        ));
        let out = m.run();
        // Sleeper wakes at 10 and computes 1 ms; worker overlapped fully.
        assert_eq!(out.end_time.as_millis(), 11);
    }

    fn rcu_machine(cores: usize, mode: RcuMode) -> Machine {
        Machine::new(MachineConfig {
            cores,
            rcu_mode: mode,
            rcu_params: RcuParams {
                base_grace_period: SimDuration::from_millis(10),
                per_reader_extension: SimDuration::ZERO,
                ctx_switch_cost: SimDuration::ZERO,
                boosted_overhead: SimDuration::ZERO,
                classic_overhead: SimDuration::ZERO,
            },
            ..MachineConfig::default()
        })
    }

    #[test]
    fn classic_rcu_uncontended_sleeps_through_grace_period() {
        // A single classic caller is at the ticket-lock head immediately:
        // it sleeps, the worker overlaps.
        let mut m = rcu_machine(1, RcuMode::ClassicSpin);
        m.spawn(ProcessSpec::new("syncer", vec![Op::RcuSync]));
        m.spawn(ProcessSpec::new(
            "worker",
            OpsBuilder::new().compute_ms(5).build(),
        ));
        let out = m.run();
        assert_eq!(out.end_time.as_millis(), 10);
        assert!(m.process(Pid::from_raw(0)).cpu_time.as_millis() < 1);
    }

    #[test]
    fn classic_rcu_queued_waiter_burns_the_core() {
        // Two classic callers: the second spins on the ticket lock for
        // the first's whole grace period (0..10 ms), starving the worker.
        let mut m = rcu_machine(1, RcuMode::ClassicSpin);
        m.spawn(ProcessSpec::new("syncer-a", vec![Op::RcuSync]));
        m.spawn(ProcessSpec::new("syncer-b", vec![Op::RcuSync]));
        m.spawn(ProcessSpec::new(
            "worker",
            OpsBuilder::new().compute_ms(15).build(),
        ));
        let out = m.run();
        // a parks uncontended (gp 0..10); b finds a pending and spins on
        // the core for the rest of a's grace period plus its own
        // (0..20); the worker only then gets the core (20..35).
        assert_eq!(out.end_time.as_millis(), 35);
        let spinner = m.process(Pid::from_raw(1));
        assert_eq!(spinner.cpu_time.as_millis(), 20);
    }

    #[test]
    fn boosted_rcu_frees_the_core_while_queued() {
        let mut m = rcu_machine(1, RcuMode::Boosted);
        m.spawn(ProcessSpec::new("syncer-a", vec![Op::RcuSync]));
        m.spawn(ProcessSpec::new("syncer-b", vec![Op::RcuSync]));
        m.spawn(ProcessSpec::new(
            "worker",
            OpsBuilder::new().compute_ms(15).build(),
        ));
        let out = m.run();
        // Worker runs 0..15 in parallel with both sleeping waiters.
        assert_eq!(out.end_time.as_millis(), 20);
        assert!(m.process(Pid::from_raw(1)).cpu_time.as_millis() < 1);
    }

    #[test]
    fn rcu_readers_extend_grace_periods() {
        let mut m = Machine::new(MachineConfig {
            cores: 2,
            rcu_mode: RcuMode::Boosted,
            rcu_params: RcuParams {
                base_grace_period: SimDuration::from_millis(1),
                per_reader_extension: SimDuration::from_millis(4),
                ctx_switch_cost: SimDuration::ZERO,
                boosted_overhead: SimDuration::ZERO,
                classic_overhead: SimDuration::ZERO,
            },
            ..MachineConfig::default()
        });
        // Reader holds a read-side section 0..10ms; syncer's grace period
        // starts inside it and is extended.
        m.spawn(ProcessSpec::new(
            "reader",
            OpsBuilder::new()
                .rcu_read(SimDuration::from_millis(10))
                .build(),
        ));
        m.spawn(ProcessSpec::new("syncer", vec![Op::RcuSync]));
        let out = m.run();
        // Grace = 1 + 4*1 = 5 ms.
        assert_eq!(out.end_time.as_millis(), 10);
        let sync_done = m
            .trace()
            .events()
            .iter()
            .find(|e| matches!(e.kind, TraceKind::RcuSyncDone { .. }))
            .unwrap();
        assert_eq!(sync_done.time.as_millis(), 5);
    }

    #[test]
    fn poll_flag_burns_cpu_until_set() {
        let mut m = machine(1);
        let f = m.flag("path-exists");
        m.spawn(ProcessSpec::new(
            "poller",
            OpsBuilder::new()
                .poll_flag(
                    f,
                    SimDuration::from_millis(10),
                    SimDuration::from_micros(100),
                )
                .compute_ms(1)
                .build(),
        ));
        m.spawn_at(
            SimTime::from_nanos(25_000_000),
            ProcessSpec::new("creator", OpsBuilder::new().set_flag(f).build()),
        );
        let out = m.run();
        assert!(out.blocked.is_empty());
        // Poller checked at ~0, ~10, ~20, then saw the flag at ~30.
        let poller = m.process(Pid::from_raw(0));
        assert!(
            poller.cpu_time.as_micros() >= 1300,
            "cpu {}",
            poller.cpu_time
        );
        assert!(out.end_time.as_millis() >= 30);
    }

    #[test]
    fn spawn_at_defers_arrival() {
        let mut m = machine(1);
        m.spawn_at(
            SimTime::from_nanos(5_000_000),
            ProcessSpec::new("late", OpsBuilder::new().compute_ms(1).build()),
        );
        let out = m.run();
        assert_eq!(out.end_time.as_millis(), 6);
    }

    #[test]
    fn external_flag_set_wakes_waiters() {
        let mut m = machine(1);
        let f = m.flag("kernel-ready");
        m.spawn(ProcessSpec::new(
            "init",
            OpsBuilder::new().wait_flag(f).compute_ms(2).build(),
        ));
        m.run(); // goes quiescent, waiter blocked
        m.set_flag_external(f);
        let out = m.run();
        assert_eq!(out.end_time.as_millis(), 2);
        assert!(out.blocked.is_empty());
    }

    #[test]
    fn determinism_same_trace_twice() {
        let build = || {
            let mut m = machine(2);
            let dev = m.add_device("emmc", DeviceProfile::tv_emmc());
            let f = m.flag("x");
            for i in 0..10 {
                m.spawn(ProcessSpec::new(
                    format!("svc{i}"),
                    OpsBuilder::new()
                        .compute_ms(1 + i % 3)
                        .read_rand(dev, 4096 * (i + 1))
                        .set_flag(f)
                        .build(),
                ));
            }
            let out = m.run();
            (out.end_time, m.trace().events().len())
        };
        assert_eq!(build(), build());
    }

    #[test]
    fn sched_stats_count_activity() {
        let mut m = machine(1);
        let dev = m.add_device("emmc", DeviceProfile::tv_emmc());
        let f = m.flag("gate");
        m.spawn(ProcessSpec::new(
            "worker",
            OpsBuilder::new()
                .compute_ms(3) // 3 slices on a 1 ms quantum: 2 preemptions
                .read_rand(dev, 4096)
                .set_flag(f)
                .build(),
        ));
        m.spawn(ProcessSpec::new(
            "waiter",
            OpsBuilder::new().wait_flag(f).compute_ms(1).build(),
        ));
        m.run();
        let s = m.sched_stats();
        assert!(s.dispatches >= 4, "dispatches {}", s.dispatches);
        assert_eq!(s.io_requests, 1);
        assert_eq!(s.flag_wakeups, 1);
        assert!(s.preemptions >= 2, "preemptions {}", s.preemptions);
    }

    #[test]
    fn advance_time_moves_clock() {
        let mut m = machine(1);
        m.advance_time(SimDuration::from_millis(100));
        assert_eq!(m.now().as_millis(), 100);
        m.spawn(ProcessSpec::new(
            "p",
            OpsBuilder::new().compute_ms(1).build(),
        ));
        let out = m.run();
        assert_eq!(out.end_time.as_millis(), 101);
    }

    #[test]
    fn run_until_stops_at_boundary() {
        let mut m = machine(1);
        m.spawn(ProcessSpec::new(
            "p",
            OpsBuilder::new().compute_ms(10).build(),
        ));
        let t = m.run_until(SimTime::from_nanos(4_000_000));
        assert_eq!(t.as_millis(), 4);
        let out = m.run();
        assert_eq!(out.end_time.as_millis(), 10);
    }

    #[test]
    fn set_rcu_mode_op_switches_waiters() {
        let mut m = Machine::new(MachineConfig {
            cores: 1,
            rcu_mode: RcuMode::Boosted,
            rcu_params: RcuParams {
                base_grace_period: SimDuration::from_millis(10),
                per_reader_extension: SimDuration::ZERO,
                ctx_switch_cost: SimDuration::ZERO,
                boosted_overhead: SimDuration::ZERO,
                classic_overhead: SimDuration::ZERO,
            },
            ..MachineConfig::default()
        });
        let gate = m.flag("boot-complete");
        m.spawn(ProcessSpec::new(
            "booster-control",
            OpsBuilder::new()
                .wait_flag(gate)
                .build()
                .into_iter()
                .chain([Op::SetRcuMode(RcuMode::ClassicSpin)])
                .collect(),
        ));
        m.spawn(ProcessSpec::new(
            "early-sync",
            vec![Op::RcuSync, Op::SetFlag(gate)],
        ));
        m.spawn(ProcessSpec::new(
            "late-sync",
            vec![Op::WaitFlag(gate), Op::RcuSync],
        ));
        m.run();
        let stats = m.rcu_stats();
        assert_eq!(stats.boosted_syncs, 1);
        assert_eq!(stats.classic_syncs, 1);
        assert_eq!(m.rcu_mode(), RcuMode::ClassicSpin);
    }

    #[test]
    fn cond_skip_skips_body_when_flag_unset() {
        let mut m = machine(1);
        let cond = m.flag("path-exists");
        let ready = m.flag("svc-ready");
        m.spawn(ProcessSpec::new(
            "conditional",
            OpsBuilder::new()
                .cond_skip(cond, 1)
                .compute_ms(50)
                .set_flag(ready)
                .build(),
        ));
        let out = m.run();
        // Body skipped: finishes immediately, ready still set.
        assert_eq!(out.end_time.as_millis(), 0);
        assert!(m.flag_set_at(ready).is_some());
    }

    #[test]
    fn cond_skip_runs_body_when_flag_set() {
        let mut m = machine(1);
        let cond = m.flag("path-exists");
        m.spawn(ProcessSpec::new(
            "creator",
            OpsBuilder::new().set_flag(cond).build(),
        ));
        m.spawn(ProcessSpec::new(
            "conditional",
            OpsBuilder::new().cond_skip(cond, 1).compute_ms(50).build(),
        ));
        let out = m.run();
        assert_eq!(out.end_time.as_millis(), 50);
    }

    #[test]
    fn timed_wait_flag_released_by_flag_does_not_extend_run() {
        let mut m = machine(2);
        let f = m.flag("ready");
        m.spawn(ProcessSpec::new(
            "watchdog",
            OpsBuilder::new()
                .timed_wait_flag(f, SimDuration::from_millis(2000))
                .set_flag(f)
                .build(),
        ));
        m.spawn(ProcessSpec::new(
            "service",
            OpsBuilder::new().compute_ms(3).set_flag(f).build(),
        ));
        let out = m.run();
        // The watchdog exits as soon as the service signals; its stale
        // 2000 ms timeout event is dropped without moving the clock.
        assert_eq!(out.end_time.as_millis(), 3);
        let tl = m.trace().process_timeline();
        let wd = tl.values().find(|t| t.name == "watchdog").unwrap();
        assert_eq!(wd.finished.unwrap().as_millis(), 3);
    }

    #[test]
    fn timed_wait_flag_times_out_and_continues() {
        let mut m = machine(1);
        let f = m.flag("never-set");
        m.spawn(ProcessSpec::new(
            "watchdog",
            OpsBuilder::new()
                .timed_wait_flag(f, SimDuration::from_millis(50))
                .compute_ms(1)
                .build(),
        ));
        let out = m.run();
        assert_eq!(out.end_time.as_millis(), 51);
        assert!(out.blocked.is_empty());
    }

    #[test]
    fn timed_wait_flag_with_preset_flag_is_free() {
        let mut m = machine(1);
        let f = m.flag("already");
        m.set_flag_external(f);
        m.spawn(ProcessSpec::new(
            "w",
            OpsBuilder::new()
                .timed_wait_flag(f, SimDuration::from_millis(100))
                .build(),
        ));
        let out = m.run();
        assert_eq!(out.end_time.as_millis(), 0);
    }

    #[test]
    fn crash_fault_fails_process_and_sets_crash_flag() {
        let mut m = machine(1);
        let ready = m.flag("ready:svc");
        let pid = m.spawn(ProcessSpec::new(
            "svc.service",
            OpsBuilder::new().compute_ms(2).set_flag(ready).build(),
        ));
        m.install_fault_plan(&FaultPlan {
            faults: vec![Fault::CrashAtReadiness {
                process: "svc.service".into(),
                hits: 1,
            }],
            seed: 0,
        });
        let out = m.run();
        assert_eq!(out.failed, vec![pid]);
        assert!(m.flag_set_at(ready).is_none(), "readiness must not be set");
        let crashed = m.flag("fault:crashed:svc.service");
        assert_eq!(m.flag_set_at(crashed).unwrap().as_millis(), 2);
        assert!(m.trace().events().iter().any(
            |e| matches!(&e.kind, TraceKind::FaultInjected { description }
                if description.contains("crash"))
        ));
    }

    #[test]
    fn crash_fault_hits_are_bounded_and_respawns_match() {
        let mut m = machine(1);
        let ready = m.flag("ready:svc");
        m.install_fault_plan(&FaultPlan {
            faults: vec![Fault::CrashAtReadiness {
                process: "svc.service".into(),
                hits: 2,
            }],
            seed: 0,
        });
        m.spawn(ProcessSpec::new(
            "svc.service",
            OpsBuilder::new().set_flag(ready).build(),
        ));
        m.spawn(ProcessSpec::new(
            "svc.service#1",
            OpsBuilder::new().set_flag(ready).build(),
        ));
        m.spawn(ProcessSpec::new(
            "svc.service#2",
            OpsBuilder::new().set_flag(ready).build(),
        ));
        let out = m.run();
        // First two incarnations crash; the third succeeds.
        assert_eq!(out.failed.len(), 2);
        assert!(m.flag_set_at(ready).is_some());
    }

    #[test]
    fn hang_fault_blocks_forever() {
        let mut m = machine(1);
        let ready = m.flag("ready:svc");
        let pid = m.spawn(ProcessSpec::new(
            "svc.service",
            OpsBuilder::new().compute_ms(1).set_flag(ready).build(),
        ));
        m.install_fault_plan(&FaultPlan {
            faults: vec![Fault::HangBeforeReady {
                process: "svc.service".into(),
                hits: 1,
            }],
            seed: 0,
        });
        let out = m.run();
        assert_eq!(out.blocked, vec![pid]);
        assert!(out.failed.is_empty());
        assert!(m.flag_set_at(ready).is_none());
    }

    #[test]
    fn transient_io_fault_delays_but_completes() {
        let run = |faults: Vec<Fault>| {
            let mut m = machine(1);
            let dev = m.add_device("emmc", DeviceProfile::from_mibs(1, 1, SimDuration::ZERO));
            m.install_fault_plan(&FaultPlan { faults, seed: 0 });
            m.spawn(ProcessSpec::new(
                "reader",
                OpsBuilder::new().read_seq(dev, crate::io::MIB).build(),
            ));
            let out = m.run();
            (out.end_time, m.device(dev).bytes_read)
        };
        let (clean, read) = run(vec![]);
        assert_eq!(clean.as_millis(), 1000);
        assert_eq!(read, crate::io::MIB);
        let (faulted, read) = run(vec![Fault::TransientIoError {
            device: "emmc".into(),
            failures: 2,
            retry_delay: SimDuration::from_millis(25),
        }]);
        // Two 25 ms backoffs before the read goes through.
        assert_eq!(faulted.as_millis(), 1050);
        assert_eq!(read, crate::io::MIB);
    }

    #[test]
    fn slow_device_fault_scales_service_time() {
        let mut m = machine(1);
        let dev = m.add_device("emmc", DeviceProfile::from_mibs(4, 4, SimDuration::ZERO));
        m.install_fault_plan(&FaultPlan {
            faults: vec![Fault::SlowDevice {
                device: "emmc".into(),
                factor: 4.0,
            }],
            seed: 0,
        });
        m.spawn(ProcessSpec::new(
            "reader",
            OpsBuilder::new().read_seq(dev, crate::io::MIB).build(),
        ));
        let out = m.run();
        // 4 MiB/s degraded to 1 MiB/s: 1 MiB takes a full second.
        assert_eq!(out.end_time.as_millis(), 1000);
    }

    #[test]
    fn empty_fault_plan_is_a_strict_noop() {
        let run = |install: bool| {
            let mut m = machine(2);
            let dev = m.add_device("emmc", DeviceProfile::tv_emmc());
            if install {
                m.install_fault_plan(&FaultPlan::none());
            }
            let f = m.flag("x");
            for i in 0..6 {
                m.spawn(ProcessSpec::new(
                    format!("svc{i}"),
                    OpsBuilder::new()
                        .compute_ms(1 + i % 3)
                        .read_rand(dev, 4096 * (i + 1))
                        .set_flag(f)
                        .build(),
                ));
            }
            let out = m.run();
            (out.end_time, m.trace().events().len())
        };
        assert_eq!(run(false), run(true));
    }

    #[test]
    fn telemetry_records_without_perturbing_the_timeline() {
        let run = |enable: bool| {
            let mut m = Machine::new(MachineConfig {
                cores: 2,
                rcu_params: RcuParams {
                    base_grace_period: SimDuration::from_millis(5),
                    per_reader_extension: SimDuration::ZERO,
                    ctx_switch_cost: SimDuration::ZERO,
                    boosted_overhead: SimDuration::ZERO,
                    classic_overhead: SimDuration::ZERO,
                },
                ..MachineConfig::default()
            });
            if enable {
                m.enable_telemetry();
            }
            let dev = m.add_device("emmc", DeviceProfile::tv_emmc());
            let f = m.flag("x");
            m.spawn(ProcessSpec::new("syncer", vec![Op::RcuSync]));
            for i in 0..4 {
                m.spawn(ProcessSpec::new(
                    format!("svc{i}"),
                    OpsBuilder::new()
                        .compute_ms(1 + i % 2)
                        .read_rand(dev, 4096 * (i + 1))
                        .set_flag(f)
                        .build(),
                ));
            }
            let out = m.run();
            (out.end_time, m.trace().events().len(), m)
        };
        let (t_off, ev_off, m_off) = run(false);
        let (t_on, ev_on, m_on) = run(true);
        assert_eq!((t_off, ev_off), (t_on, ev_on));
        assert!(m_off.telemetry().is_none());
        let metrics = &m_on.telemetry().expect("enabled").metrics;
        assert_eq!(metrics.counter(telemetry::RCU_SYNCS), 1);
        assert_eq!(
            metrics
                .histogram(telemetry::IO_REQUEST_LATENCY_NS)
                .expect("io recorded")
                .count() as u64,
            m_on.sched_stats().io_requests
        );
        assert_eq!(
            metrics
                .histogram(telemetry::RUN_QUEUE_DEPTH)
                .expect("dispatches recorded")
                .count() as u64,
            m_on.sched_stats().dispatches
        );
    }

    #[test]
    fn yield_requeues_behind_peers() {
        let mut m = machine(1);
        m.spawn(ProcessSpec::new(
            "yielder",
            OpsBuilder::new()
                .compute_ms(1)
                .yield_now()
                .compute_ms(1)
                .build(),
        ));
        m.spawn(ProcessSpec::new(
            "other",
            OpsBuilder::new().compute_ms(1).build(),
        ));
        let out = m.run();
        assert_eq!(out.end_time.as_millis(), 3);
    }
}
