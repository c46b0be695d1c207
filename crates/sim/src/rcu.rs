//! Simulated RCU synchronization engine.
//!
//! Models the cost of `synchronize_rcu()` during boot, following the
//! paper's Algorithms 1 and 2.
//!
//! # Grace periods are batched
//!
//! As in the kernel, a grace period is a *global* event: every waiter
//! that called `synchronize_rcu` before a grace period started is
//! released when it completes. The engine keeps one grace period in
//! flight; callers arriving meanwhile form the next batch. Under
//! contention, throughput therefore scales with batch size rather than
//! serializing per call.
//!
//! # The waiter modes differ in *how* they wait
//!
//! * **Classic** (Algorithm 1): the wait queue is protected by a ticket
//!   spinlock. An *uncontended* caller parks cheaply (uninterruptible
//!   sleep) — which is why the paper keeps this path after boot (§4.3).
//!   A caller that finds other waiters present hammers the contended
//!   ticket lock and effectively *busy-waits on its core* until its
//!   grace period completes ("Processor is busy doing nothing until
//!   lock is granted, wasting CPU cycles").
//! * **Boosted** (Algorithm 2): memory barriers + a blocking mutex;
//!   waiters always sleep, paying a context-switch cost on wake and a
//!   slightly higher fixed overhead per call.
//!
//! The machine layer executes these behaviours: a spinning waiter keeps
//! its core; a sleeping waiter frees it.

use crate::ids::Pid;
use crate::time::{SimDuration, SimTime};

/// Which `synchronize_rcu` waiter strategy is active.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RcuMode {
    /// Algorithm 1: ticket spinlock; contended waiters spin on-CPU.
    ClassicSpin,
    /// Algorithm 2: blocking mutex; waiters sleep off-CPU.
    Boosted,
}

/// Cost parameters of the RCU engine.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RcuParams {
    /// Minimum grace-period length with no active readers.
    pub base_grace_period: SimDuration,
    /// Grace-period extension per active read-side critical section at
    /// grace-period start.
    pub per_reader_extension: SimDuration,
    /// On-CPU cost charged to a boosted waiter when it is woken
    /// (context switch + scheduler pass).
    pub ctx_switch_cost: SimDuration,
    /// Fixed per-sync overhead of the boosted path (barriers, snapshot,
    /// mutex handshake), charged before the wait.
    pub boosted_overhead: SimDuration,
    /// Fixed per-sync overhead of the classic path (ticket acquire),
    /// charged before the wait. Cheaper than the boosted path.
    pub classic_overhead: SimDuration,
}

impl Default for RcuParams {
    fn default() -> Self {
        RcuParams {
            base_grace_period: SimDuration::from_micros(400),
            per_reader_extension: SimDuration::from_micros(150),
            ctx_switch_cost: SimDuration::from_micros(30),
            boosted_overhead: SimDuration::from_micros(8),
            classic_overhead: SimDuration::from_micros(1),
        }
    }
}

/// How a particular waiter is waiting.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WaitKind {
    /// On-core busy wait (classic path under contention).
    Spinning,
    /// Off-core sleep, no wake cost (classic path, uncontended park).
    SleepingClassic,
    /// Off-core sleep, context-switch cost on wake (boosted path).
    SleepingBoosted,
}

/// One waiter of a pending grace period.
#[derive(Debug, Clone, Copy)]
pub struct Waiter {
    /// The calling process.
    pub pid: Pid,
    /// How it waits.
    pub kind: WaitKind,
    /// Submission time, for wait statistics.
    pub submitted_at: SimTime,
}

/// Aggregate statistics of the engine, for experiment reports.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RcuStats {
    /// Completed `synchronize_rcu` calls.
    pub syncs_completed: u64,
    /// Grace periods that ran (≤ syncs thanks to batching).
    pub grace_periods: u64,
    /// Total wall time callers spent between submit and release.
    pub total_wait: SimDuration,
    /// Longest single wait.
    pub max_wait: SimDuration,
    /// Completed calls that used the classic path.
    pub classic_syncs: u64,
    /// Completed calls that used the boosted path.
    pub boosted_syncs: u64,
    /// Classic calls that spun on-CPU (contended).
    pub spinning_syncs: u64,
    /// Peak number of simultaneously pending syncs (contention level).
    pub peak_pending: usize,
}

/// The simulated RCU engine: batched grace periods plus reader tracking.
#[derive(Debug)]
pub struct RcuEngine {
    pub(crate) mode: RcuMode,
    pub(crate) params: RcuParams,
    /// Waiters covered by the in-flight grace period.
    pub(crate) current: Vec<Waiter>,
    /// Waiters for the next grace period.
    pub(crate) next: Vec<Waiter>,
    pub(crate) grace_end: Option<SimTime>,
    pub(crate) active_readers: u32,
    pub(crate) stats: RcuStats,
}

impl RcuEngine {
    /// Creates an idle engine in the given initial mode.
    pub fn new(mode: RcuMode, params: RcuParams) -> Self {
        RcuEngine {
            mode,
            params,
            current: Vec::new(),
            next: Vec::new(),
            grace_end: None,
            active_readers: 0,
            stats: RcuStats::default(),
        }
    }

    /// The currently active waiter mode for *new* syncs.
    pub fn mode(&self) -> RcuMode {
        self.mode
    }

    /// Switches the waiter mode (the RCU Booster Control sysfs knob).
    /// In-flight waiters keep the behaviour they were submitted with.
    pub fn set_mode(&mut self, mode: RcuMode) {
        self.mode = mode;
    }

    /// Engine cost parameters.
    pub fn params(&self) -> &RcuParams {
        &self.params
    }

    /// Statistics so far.
    pub fn stats(&self) -> RcuStats {
        self.stats
    }

    /// Number of pending (waiting) syncs.
    pub fn pending(&self) -> usize {
        self.current.len() + self.next.len()
    }

    /// Currently active read-side critical sections.
    pub fn active_readers(&self) -> u32 {
        self.active_readers
    }

    /// Registers entry into a read-side critical section.
    pub fn reader_enter(&mut self) {
        self.active_readers += 1;
    }

    /// Registers exit from a read-side critical section.
    ///
    /// # Panics
    ///
    /// Panics on unbalanced exit (a machine-layer logic error).
    pub fn reader_exit(&mut self) {
        assert!(self.active_readers > 0, "unbalanced rcu reader exit");
        self.active_readers -= 1;
    }

    /// Submits a `synchronize_rcu` call. Returns the waiter's wait kind
    /// and, if this call started a new grace period (engine was idle),
    /// the time it will end.
    pub fn submit(&mut self, pid: Pid, now: SimTime) -> (WaitKind, Option<SimTime>) {
        let contended = self.pending() > 0;
        let kind = match self.mode {
            RcuMode::ClassicSpin if contended => WaitKind::Spinning,
            RcuMode::ClassicSpin => WaitKind::SleepingClassic,
            RcuMode::Boosted => WaitKind::SleepingBoosted,
        };
        if kind == WaitKind::Spinning {
            self.stats.spinning_syncs += 1;
        }
        let waiter = Waiter {
            pid,
            kind,
            submitted_at: now,
        };
        let started = if self.grace_end.is_none() {
            debug_assert!(self.current.is_empty());
            self.current.push(waiter);
            Some(self.start_grace_period(now))
        } else {
            self.next.push(waiter);
            None
        };
        self.stats.peak_pending = self.stats.peak_pending.max(self.pending());
        (kind, started)
    }

    /// Completes the in-flight grace period: appends its waiters to
    /// `released`, in submission order, and, if more arrived meanwhile,
    /// starts the next grace period and returns its end time.
    ///
    /// Allocation-free once warm: the waiters move into the caller's
    /// buffer, and the two batches swap instead of being replaced, so
    /// both keep their capacity from one grace period to the next.
    ///
    /// # Panics
    ///
    /// Panics if no grace period is in flight.
    pub fn complete_grace_period(
        &mut self,
        now: SimTime,
        released: &mut Vec<Waiter>,
    ) -> Option<SimTime> {
        assert!(self.grace_end.is_some(), "grace completion on idle engine");
        self.grace_end = None;
        for w in &self.current {
            let waited = now.saturating_since(w.submitted_at);
            self.stats.syncs_completed += 1;
            self.stats.total_wait += waited;
            self.stats.max_wait = self.stats.max_wait.max(waited);
            match w.kind {
                WaitKind::Spinning | WaitKind::SleepingClassic => self.stats.classic_syncs += 1,
                WaitKind::SleepingBoosted => self.stats.boosted_syncs += 1,
            }
        }
        released.append(&mut self.current);
        std::mem::swap(&mut self.current, &mut self.next);
        if self.current.is_empty() {
            None
        } else {
            Some(self.start_grace_period(now))
        }
    }

    /// Returns the engine to the [`RcuEngine::new`] state for `mode` and
    /// `params`, keeping the waiter buffers' capacity (machine
    /// recycling).
    pub(crate) fn reset(&mut self, mode: RcuMode, params: RcuParams) {
        self.mode = mode;
        self.params = params;
        self.current.clear();
        self.next.clear();
        self.grace_end = None;
        self.active_readers = 0;
        self.stats = RcuStats::default();
    }

    /// Length of a grace period starting now, given current reader load.
    fn grace_period_length(&self) -> SimDuration {
        self.params.base_grace_period
            + self.params.per_reader_extension * u64::from(self.active_readers)
    }

    fn start_grace_period(&mut self, now: SimTime) -> SimTime {
        debug_assert!(!self.current.is_empty());
        self.stats.grace_periods += 1;
        let end = now + self.grace_period_length();
        self.grace_end = Some(end);
        end
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn engine(mode: RcuMode) -> RcuEngine {
        RcuEngine::new(
            mode,
            RcuParams {
                base_grace_period: SimDuration::from_millis(1),
                per_reader_extension: SimDuration::from_micros(500),
                ..RcuParams::default()
            },
        )
    }

    #[test]
    fn single_sync_runs_immediately_and_parks() {
        let mut e = engine(RcuMode::ClassicSpin);
        let (kind, end) = e.submit(Pid::from_raw(1), SimTime::ZERO);
        assert_eq!(kind, WaitKind::SleepingClassic);
        let end = end.unwrap();
        assert_eq!(end.as_millis(), 1);
        let mut released = Vec::new();
        let next = e.complete_grace_period(end, &mut released);
        assert_eq!(released.len(), 1);
        assert!(next.is_none());
        assert_eq!(e.stats().syncs_completed, 1);
        assert_eq!(e.stats().grace_periods, 1);
        assert_eq!(e.stats().spinning_syncs, 0);
    }

    #[test]
    fn contended_classic_waiters_spin() {
        let mut e = engine(RcuMode::ClassicSpin);
        let (_, end) = e.submit(Pid::from_raw(1), SimTime::ZERO);
        let (k2, none) = e.submit(Pid::from_raw(2), SimTime::ZERO);
        assert_eq!(k2, WaitKind::Spinning);
        assert!(none.is_none());
        assert_eq!(e.stats().spinning_syncs, 1);
        let _ = end;
    }

    #[test]
    fn grace_periods_batch_waiters() {
        // Three boosted waiters arrive during the first grace period:
        // they are released together by the *second* grace period.
        let mut e = engine(RcuMode::Boosted);
        let t0 = SimTime::ZERO;
        let (_, end1) = e.submit(Pid::from_raw(1), t0);
        let end1 = end1.unwrap();
        for pid in 2..=4 {
            let (k, started) = e.submit(Pid::from_raw(pid), t0);
            assert_eq!(k, WaitKind::SleepingBoosted);
            assert!(started.is_none());
        }
        assert_eq!(e.pending(), 4);
        let mut released1 = Vec::new();
        let end2 = e.complete_grace_period(end1, &mut released1);
        assert_eq!(released1.len(), 1);
        let end2 = end2.unwrap();
        assert_eq!(end2.as_millis(), 2);
        let mut released2 = Vec::new();
        let none = e.complete_grace_period(end2, &mut released2);
        assert_eq!(released2.len(), 3);
        assert!(none.is_none());
        // Four syncs, only two grace periods: batching works.
        assert_eq!(e.stats().syncs_completed, 4);
        assert_eq!(e.stats().grace_periods, 2);
        assert_eq!(e.stats().max_wait.as_millis(), 2);
    }

    #[test]
    fn readers_extend_grace_periods() {
        let mut e = engine(RcuMode::ClassicSpin);
        e.reader_enter();
        e.reader_enter();
        assert_eq!(e.grace_period_length().as_micros(), 2000);
        e.reader_exit();
        assert_eq!(e.grace_period_length().as_micros(), 1500);
        e.reader_exit();
        assert_eq!(e.grace_period_length().as_micros(), 1000);
    }

    #[test]
    fn mode_is_captured_at_submit() {
        let mut e = engine(RcuMode::ClassicSpin);
        let (k1, end1) = e.submit(Pid::from_raw(1), SimTime::ZERO);
        assert_eq!(k1, WaitKind::SleepingClassic);
        e.set_mode(RcuMode::Boosted);
        let (k2, _) = e.submit(Pid::from_raw(2), SimTime::ZERO);
        assert_eq!(k2, WaitKind::SleepingBoosted);
        let mut released = Vec::new();
        let end2 = e.complete_grace_period(end1.unwrap(), &mut released);
        e.complete_grace_period(end2.unwrap(), &mut released);
        assert_eq!(released[0].kind, WaitKind::SleepingClassic);
        assert_eq!(released[1].kind, WaitKind::SleepingBoosted);
        assert_eq!(e.stats().classic_syncs, 1);
        assert_eq!(e.stats().boosted_syncs, 1);
    }

    #[test]
    #[should_panic(expected = "unbalanced rcu reader exit")]
    fn unbalanced_reader_exit_panics() {
        engine(RcuMode::Boosted).reader_exit();
    }

    #[test]
    #[should_panic(expected = "grace completion on idle engine")]
    fn completion_on_idle_panics() {
        engine(RcuMode::Boosted).complete_grace_period(SimTime::ZERO, &mut Vec::new());
    }

    #[test]
    fn back_to_back_grace_periods_release_in_submission_order_and_keep_capacity() {
        let mut e = engine(RcuMode::Boosted);
        let pids = |ws: &[Waiter]| ws.iter().map(|w| w.pid.as_raw()).collect::<Vec<_>>();
        // Batch 1 is pid 1 alone; pids 2..=5 queue behind it.
        let end1 = e.submit(Pid::from_raw(1), SimTime::ZERO).1.unwrap();
        for pid in 2..=5 {
            e.submit(Pid::from_raw(pid), SimTime::ZERO);
        }
        let mut released = Vec::new();
        let end2 = e.complete_grace_period(end1, &mut released).unwrap();
        assert_eq!(pids(&released), [1]);
        // Pids 6 and 7 arrive during the second grace period.
        e.submit(Pid::from_raw(6), end1);
        e.submit(Pid::from_raw(7), end1);
        released.clear();
        let end3 = e.complete_grace_period(end2, &mut released).unwrap();
        assert_eq!(pids(&released), [2, 3, 4, 5]);
        let released_cap = released.capacity();
        let (current_cap, next_cap) = (e.current.capacity(), e.next.capacity());
        assert!(current_cap >= 2 && next_cap >= 4, "batches lost capacity");
        released.clear();
        assert!(e.complete_grace_period(end3, &mut released).is_none());
        assert_eq!(pids(&released), [6, 7]);
        // Nothing was reallocated: the batches swapped, the caller's
        // buffer reused its storage.
        assert_eq!(released.capacity(), released_cap);
        assert_eq!(
            (e.current.capacity(), e.next.capacity()),
            (next_cap, current_cap)
        );
        assert_eq!(e.pending(), 0);
    }
}
