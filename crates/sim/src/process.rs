//! Simulated processes: programs as operation lists.
//!
//! A simulated process executes a straight-line list of [`Op`]s. This is
//! deliberately not a general programming model: boot-time work is
//! overwhelmingly "compute a bit, read something from flash, synchronize,
//! signal readiness", and a flat op list keeps the simulator fully
//! deterministic and inspectable. Control flow across processes is
//! expressed with flags ([`Op::WaitFlag`]/[`Op::SetFlag`]) and process
//! spawning ([`Op::Spawn`]).

use std::sync::Arc;

use crate::ids::{CoreId, DeviceId, FlagId};
use crate::time::{SimDuration, SimTime};

/// Storage access pattern, selecting which bandwidth figure of a device
/// applies to a read.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AccessPattern {
    /// Sequential read (large contiguous transfer).
    Sequential,
    /// Random read (many small scattered transfers).
    Random,
}

/// One step of a simulated process.
#[derive(Debug, Clone)]
pub enum Op {
    /// Occupy a core for the given amount of *reference* CPU time.
    ///
    /// The actual wall-clock cost is `duration / core_speed` of the
    /// machine the process runs on, and the scheduler may time-slice it.
    Compute(SimDuration),
    /// Read `bytes` from `device` with the given access `pattern`,
    /// blocking off-CPU until the device completes the request.
    IoRead {
        /// Target storage device.
        device: DeviceId,
        /// Transfer size in bytes.
        bytes: u64,
        /// Sequential or random access.
        pattern: AccessPattern,
    },
    /// Sleep off-CPU for a fixed duration (timers, debounce waits).
    Sleep(SimDuration),
    /// Invoke `synchronize_rcu()`: wait for an RCU grace period using the
    /// machine's current waiter mode (spin = burn a core; block = sleep).
    RcuSync,
    /// Hold an RCU read-side critical section on-CPU for the duration.
    ///
    /// Readers never block; this is compute time that additionally
    /// registers read-side activity with the RCU engine, lengthening
    /// concurrent grace periods.
    RcuReadHold(SimDuration),
    /// Block until the given flag has been set.
    WaitFlag(FlagId),
    /// Block until the given flag has been set *or* `timeout` elapses,
    /// whichever comes first.
    ///
    /// This is the primitive under start-timeout watchdogs: unlike a
    /// `Sleep`, a watcher built on `TimedWaitFlag` exits as soon as the
    /// flag appears and therefore never outlives the work it guards.
    TimedWaitFlag {
        /// Flag to wait for.
        flag: FlagId,
        /// Give up after this long.
        timeout: SimDuration,
    },
    /// Poll for a flag: check it on-CPU (costing `poll_cost` per check),
    /// and if unset, sleep `interval` and check again.
    ///
    /// This is the "path-check" retry loop that out-of-order init schemes
    /// bolt on (§2.5.1); unlike [`Op::WaitFlag`] it repeatedly burns CPU.
    PollFlag {
        /// Flag standing in for the watched file path.
        flag: FlagId,
        /// Sleep between checks.
        interval: SimDuration,
        /// On-CPU cost of each check.
        poll_cost: SimDuration,
    },
    /// Abort the process if the given flag is not yet set.
    ///
    /// Models a service that crashes when its prerequisite is unavailable,
    /// for init-scheme correctness experiments.
    AssertFlag(FlagId),
    /// If the flag is unset when this op is reached, skip the next
    /// `skip_ops` ops.
    ///
    /// Models systemd `ConditionPathExists=`: conditions are evaluated
    /// when the job starts; an unmet condition skips the unit body but
    /// still counts the unit as processed (its ready flag, placed after
    /// the skipped body, is still set).
    CondSkip {
        /// Condition flag (stands in for the watched path).
        flag: FlagId,
        /// Number of following ops to skip when the flag is unset.
        skip_ops: u32,
    },
    /// Set the given flag, waking all current and future waiters. Free.
    SetFlag(FlagId),
    /// Spawn a child process that becomes ready immediately. Free; the
    /// fork cost, if any, should be modelled as an explicit `Compute`.
    ///
    /// The spec is boxed so that one rare variant does not set the size
    /// of every op: unboxed, `Op` is 56 bytes; boxed, 24.
    Spawn(Box<ProcessSpec>),
    /// Relinquish the core and go to the back of the ready queue.
    Yield,
    /// Switch the machine's RCU waiter mode. Free.
    ///
    /// This is the paper's RCU Booster Control sysfs knob: the Boot-up
    /// Engine enables the boosted mode as systemd's first task and a
    /// control process disables it at boot completion (§3.2).
    SetRcuMode(crate::rcu::RcuMode),
}

// Every op list is a `Vec<Op>`; keep the op small.
const _: () = assert!(std::mem::size_of::<Op>() <= 24);

/// Static description of a process: what to run and how urgent it is.
#[derive(Debug, Clone)]
pub struct ProcessSpec {
    /// Human-readable name, recorded in traces (e.g. `dbus.service`).
    /// Shared, not copied: the process record and its trace entry hold
    /// the same allocation, and a caller that spawns the same name on
    /// every boot can keep one and hand it over by refcount.
    pub name: Arc<str>,
    /// Unix-style nice value: −20 (highest priority) to 19 (lowest).
    pub nice: i8,
    /// I/O scheduling class for the process's storage requests.
    pub io_priority: crate::io::IoPriority,
    /// The program to execute.
    pub ops: Vec<Op>,
}

impl ProcessSpec {
    /// Creates a spec with default priority (nice 0).
    pub fn new(name: impl Into<Arc<str>>, ops: Vec<Op>) -> Self {
        ProcessSpec {
            name: name.into(),
            nice: 0,
            io_priority: crate::io::IoPriority::BestEffort,
            ops,
        }
    }

    /// Sets the I/O scheduling class.
    pub fn with_io_priority(mut self, priority: crate::io::IoPriority) -> Self {
        self.io_priority = priority;
        self
    }

    /// Sets the nice value (−20 highest priority … 19 lowest).
    ///
    /// # Panics
    ///
    /// Panics if `nice` is outside the Unix range −20..=19.
    pub fn with_nice(mut self, nice: i8) -> Self {
        assert!((-20..=19).contains(&nice), "nice out of range: {nice}");
        self.nice = nice;
        self
    }

    /// Total reference CPU time of all `Compute` and `RcuReadHold` ops;
    /// useful for workload reports.
    #[cfg(test)]
    fn total_compute(&self) -> SimDuration {
        self.ops
            .iter()
            .map(|op| match op {
                Op::Compute(d) | Op::RcuReadHold(d) => *d,
                _ => SimDuration::ZERO,
            })
            .sum()
    }
}

/// Why a process is currently off the ready queue.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BlockReason {
    /// Waiting for a storage request to complete.
    Io,
    /// Sleeping until a deadline.
    Sleep,
    /// Waiting (off-CPU) for an RCU grace period in blocking mode.
    RcuBlocked,
    /// Waiting for a flag to be set.
    Flag(FlagId),
}

/// Dynamic scheduling state of a process.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ProcState {
    /// Eligible to run, waiting for a core.
    Ready,
    /// Executing (or spin-waiting) on a core.
    Running,
    /// Off-CPU, waiting for the given reason.
    Blocked(BlockReason),
    /// All ops completed.
    Done,
}

/// A process's scheduler record: every field a compute slice, a
/// preemption or a dispatch reads or writes. The machine keeps one per
/// process in a dense pid-indexed table, so a slice touches one
/// 56-byte entry and nothing else of the process.
#[derive(Debug, Clone, Copy)]
pub(crate) struct SchedRecord {
    /// Remaining reference CPU time of the `Compute` op at the cursor.
    /// Nonzero only while that op is current, so a dispatch that finds
    /// it nonzero resumes the compute without reading the op list.
    pub(crate) compute_left: SimDuration,
    /// Accumulated on-CPU time (including spin-waiting), for reports.
    pub(crate) cpu_time: SimDuration,
    /// Monotone counter used for FIFO ordering within a priority level.
    pub(crate) ready_seq: u64,
    /// When the process took its core; meaningful while `core` is set.
    pub(crate) since: SimTime,
    /// The core the process holds, if any.
    pub(crate) core: Option<CoreId>,
    /// Cursor: index of the current op in [`ProcRecord::ops`].
    pub(crate) pc: u32,
    /// Scheduling state.
    pub(crate) state: ProcState,
    /// Nice value from the spec.
    pub(crate) nice: i8,
    /// True once the process has been dispatched onto a core.
    pub(crate) first_dispatched: bool,
}

const _: () = assert!(std::mem::size_of::<SchedRecord>() <= 56);

/// The rest of a process: what spawning, op folding, faults, snapshots
/// and reports read, once per op at most, never once per slice.
#[derive(Debug)]
pub(crate) struct ProcRecord {
    /// Name from the spec.
    pub(crate) name: Arc<str>,
    /// I/O scheduling class from the spec.
    pub(crate) io_priority: crate::io::IoPriority,
    /// The op list; the ops from the scheduler record's cursor on
    /// remain. Slots before the cursor are spent.
    pub(crate) ops: Vec<Op>,
    /// When the process was spawned.
    pub(crate) spawned_at: SimTime,
    /// When the process finished, if done.
    pub(crate) finished_at: Option<SimTime>,
    /// Generation counter for [`Op::TimedWaitFlag`]: incremented on every
    /// wake (flag or timeout) so stale timeout events can be recognized
    /// and dropped.
    pub(crate) timed_wait_seq: u64,
}

/// Instantiates a spec into the two records of a live process.
///
/// # Panics
///
/// Panics if the op list is too long for the `u32` cursor.
pub(crate) fn from_spec(spec: ProcessSpec, now: SimTime) -> (SchedRecord, ProcRecord) {
    assert!(
        u32::try_from(spec.ops.len()).is_ok(),
        "op list too long for its cursor"
    );
    let sched = SchedRecord {
        compute_left: SimDuration::ZERO,
        cpu_time: SimDuration::ZERO,
        ready_seq: 0,
        since: SimTime::ZERO,
        core: None,
        pc: 0,
        state: ProcState::Ready,
        nice: spec.nice,
        first_dispatched: false,
    };
    let info = ProcRecord {
        name: spec.name,
        io_priority: spec.io_priority,
        ops: spec.ops,
        spawned_at: now,
        finished_at: None,
        timed_wait_seq: 0,
    };
    (sched, info)
}

/// A read-only view of one simulated process (for reports and
/// assertions), assembled from its scheduler and bookkeeping records.
#[derive(Debug, Clone, Copy)]
pub struct Process<'a> {
    pub(crate) sched: &'a SchedRecord,
    pub(crate) info: &'a ProcRecord,
}

impl<'a> Process<'a> {
    /// Name from the spec.
    pub fn name(&self) -> &'a str {
        &self.info.name
    }

    /// Scheduling state.
    pub fn state(&self) -> ProcState {
        self.sched.state
    }

    /// Accumulated on-CPU time (including spin-waiting).
    pub fn cpu_time(&self) -> SimDuration {
        self.sched.cpu_time
    }

    /// Arrival sequence of the process's latest run-queue entry: FIFO
    /// order within a nice level.
    pub fn ready_seq(&self) -> u64 {
        self.sched.ready_seq
    }

    /// When the process finished or failed, if it has.
    pub fn finished_at(&self) -> Option<SimTime> {
        self.info.finished_at
    }
}

/// Convenience builder for op lists, used heavily by workload generators.
#[derive(Debug, Default)]
pub struct OpsBuilder {
    ops: Vec<Op>,
}

impl OpsBuilder {
    /// Starts an empty program.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends a compute op.
    pub fn compute(mut self, d: SimDuration) -> Self {
        self.ops.push(Op::Compute(d));
        self
    }

    /// Appends a compute op given milliseconds of reference CPU time.
    pub fn compute_ms(self, ms: u64) -> Self {
        self.compute(SimDuration::from_millis(ms))
    }

    /// Appends a sequential read.
    pub fn read_seq(mut self, device: DeviceId, bytes: u64) -> Self {
        self.ops.push(Op::IoRead {
            device,
            bytes,
            pattern: AccessPattern::Sequential,
        });
        self
    }

    /// Appends a random-access read.
    pub fn read_rand(mut self, device: DeviceId, bytes: u64) -> Self {
        self.ops.push(Op::IoRead {
            device,
            bytes,
            pattern: AccessPattern::Random,
        });
        self
    }

    /// Appends a sleep.
    pub fn sleep(mut self, d: SimDuration) -> Self {
        self.ops.push(Op::Sleep(d));
        self
    }

    /// Appends `n` `synchronize_rcu()` calls separated by `between`
    /// compute time each (modelling RCU-heavy initialization code).
    pub fn rcu_syncs(mut self, n: usize, between: SimDuration) -> Self {
        for _ in 0..n {
            if !between.is_zero() {
                self.ops.push(Op::Compute(between));
            }
            self.ops.push(Op::RcuSync);
        }
        self
    }

    /// Appends an RCU read-side critical section.
    pub fn rcu_read(mut self, d: SimDuration) -> Self {
        self.ops.push(Op::RcuReadHold(d));
        self
    }

    /// Appends a flag wait.
    pub fn wait_flag(mut self, flag: FlagId) -> Self {
        self.ops.push(Op::WaitFlag(flag));
        self
    }

    /// Appends a flag wait bounded by a timeout.
    pub fn timed_wait_flag(mut self, flag: FlagId, timeout: SimDuration) -> Self {
        self.ops.push(Op::TimedWaitFlag { flag, timeout });
        self
    }

    /// Appends a path-check style polling wait.
    pub fn poll_flag(
        mut self,
        flag: FlagId,
        interval: SimDuration,
        poll_cost: SimDuration,
    ) -> Self {
        self.ops.push(Op::PollFlag {
            flag,
            interval,
            poll_cost,
        });
        self
    }

    /// Appends a flag assertion (abort if unset).
    pub fn assert_flag(mut self, flag: FlagId) -> Self {
        self.ops.push(Op::AssertFlag(flag));
        self
    }

    /// Appends a conditional skip over the next `skip_ops` ops.
    pub fn cond_skip(mut self, flag: FlagId, skip_ops: u32) -> Self {
        self.ops.push(Op::CondSkip { flag, skip_ops });
        self
    }

    /// Appends a flag set.
    pub fn set_flag(mut self, flag: FlagId) -> Self {
        self.ops.push(Op::SetFlag(flag));
        self
    }

    /// Appends a child spawn.
    pub fn spawn(mut self, spec: ProcessSpec) -> Self {
        self.ops.push(Op::Spawn(Box::new(spec)));
        self
    }

    /// Appends a yield.
    pub fn yield_now(mut self) -> Self {
        self.ops.push(Op::Yield);
        self
    }

    /// Finishes the program.
    pub fn build(self) -> Vec<Op> {
        self.ops
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spec_builder_and_totals() {
        let spec = ProcessSpec::new(
            "svc",
            OpsBuilder::new()
                .compute_ms(5)
                .read_seq(DeviceId::from_raw(0), 4096)
                .rcu_read(SimDuration::from_millis(2))
                .build(),
        )
        .with_nice(-5);
        assert_eq!(spec.nice, -5);
        assert_eq!(spec.ops.len(), 3);
        assert_eq!(spec.total_compute(), SimDuration::from_millis(7));
    }

    #[test]
    #[should_panic(expected = "nice out of range")]
    fn nice_range_checked() {
        ProcessSpec::new("x", vec![]).with_nice(42);
    }

    #[test]
    fn a_spec_splits_into_a_ready_process_at_its_first_op() {
        let spec =
            ProcessSpec::new("p", vec![Op::Compute(SimDuration::from_millis(1))]).with_nice(3);
        let (sched, info) = from_spec(spec, SimTime::from_nanos(5));
        assert_eq!(sched.state, ProcState::Ready);
        assert_eq!((sched.nice, sched.pc, sched.core), (3, 0, None));
        assert!(sched.compute_left.is_zero() && !sched.first_dispatched);
        assert_eq!(info.ops.len(), 1);
        assert_eq!(info.spawned_at, SimTime::from_nanos(5));
        assert_eq!(info.finished_at, None);
    }

    #[test]
    fn rcu_syncs_builder_shapes() {
        let ops = OpsBuilder::new()
            .rcu_syncs(3, SimDuration::from_micros(100))
            .build();
        // Each sync is preceded by a compute gap: C S C S C S.
        assert_eq!(ops.len(), 6);
        assert!(matches!(ops[0], Op::Compute(_)));
        assert!(matches!(ops[1], Op::RcuSync));
        let ops = OpsBuilder::new().rcu_syncs(2, SimDuration::ZERO).build();
        assert_eq!(ops.len(), 2);
    }
}
