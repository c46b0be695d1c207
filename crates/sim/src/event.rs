//! Deterministic event queue.
//!
//! Events are keyed on `(time, sequence)`; [`EventQueue`] holds the
//! earliest in a front slot and the rest in an unordered pool. The
//! sequence number is a monotone counter assigned at push time, so
//! events scheduled for the same instant fire in submission order —
//! this makes whole-simulation runs bit-for-bit reproducible, which the
//! test suite relies on.

use crate::ids::{CoreId, DeviceId, Pid};
use crate::time::SimTime;

/// What happens when an event fires.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EventKind {
    /// The current compute slice of `pid` on `core` finished.
    SliceDone {
        /// Process whose slice ended.
        pid: Pid,
        /// Core it ran on.
        core: CoreId,
    },
    /// A non-preemptible RCU read-side hold by `pid` on `core` ended.
    ReadHoldDone {
        /// Process holding the read lock.
        pid: Pid,
        /// Core it ran on.
        core: CoreId,
    },
    /// The in-flight request of `device` completed.
    IoDone {
        /// Device whose head request finished.
        device: DeviceId,
    },
    /// The in-flight RCU grace period ended.
    RcuGraceDone,
    /// A sleeping process wakes.
    WakeUp {
        /// Process to wake.
        pid: Pid,
    },
    /// An externally scheduled process becomes ready (deferred spawns).
    ExternalSpawn {
        /// Index into the machine's pending-spawn table.
        spawn_slot: u32,
    },
    /// A [`crate::process::Op::TimedWaitFlag`] wait expired. Stale if the
    /// process's wait generation no longer matches `seq` (the flag woke
    /// it first); stale events are dropped without advancing time.
    FlagWaitTimeout {
        /// Waiting process.
        pid: Pid,
        /// Wait generation this timeout was armed for.
        seq: u64,
    },
}

/// A pending event. The `(time, seq)` ordering key is pre-packed into
/// one `u128` (`time` in the high 64 bits) so every heap sift is a
/// single integer compare instead of a two-field tuple compare — the
/// heap is the simulation loop's hottest data structure.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct QueuedEvent {
    key: u128,
    pub(crate) kind: EventKind,
}

impl QueuedEvent {
    pub(crate) fn new(time: SimTime, seq: u64, kind: EventKind) -> Self {
        QueuedEvent {
            key: ((time.as_nanos() as u128) << 64) | seq as u128,
            kind,
        }
    }

    pub(crate) fn time(&self) -> SimTime {
        SimTime::from_nanos((self.key >> 64) as u64)
    }

    pub(crate) fn seq(&self) -> u64 {
        self.key as u64
    }
}

impl Ord for QueuedEvent {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.key.cmp(&other.key)
    }
}

impl PartialOrd for QueuedEvent {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

/// Host-side observability counters for an [`EventQueue`].
///
/// These describe the host's view of a run (how much work the queue
/// did), not simulated state: they are *not* serialized into snapshots,
/// and a machine restored from a snapshot starts them over from the
/// restored queue contents.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EventQueueStats {
    /// Total events ever scheduled on this queue.
    pub scheduled: u64,
    /// High-water mark: the peak number of simultaneously pending
    /// events observed.
    pub peak_depth: usize,
}

/// The simulator's future-event list.
///
/// Hot-path layout: the earliest pending event is held in `front`; the
/// rest sit in `pool`, a flat *unordered* vector. Boot workloads keep
/// very few events in flight at once (the full TV boot peaks at ~8), so
/// extracting the minimum by linear scan — a handful of single-`u128`
/// compares over contiguous memory — beats a binary heap's sift
/// bookkeeping, and `push` is a plain append instead of an up-sift.
/// The dominant pop/push pattern of the simulation loop then costs one
/// scan plus one append, and the common drained-queue checks
/// (`peek_time`, `is_empty`) never touch the pool at all. Invariant:
/// `front` is `None` only when the pool is empty, and
/// `*front <= min(pool)` otherwise. Pool order is irrelevant to
/// behavior: extraction always takes the true minimum, and keys are
/// unique (the seq counter), so runs are deterministic.
#[derive(Debug, Default)]
pub struct EventQueue {
    front: Option<QueuedEvent>,
    pool: Vec<QueuedEvent>,
    next_seq: u64,
    peak_depth: usize,
}

impl EventQueue {
    /// Creates an empty queue.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates an empty queue pre-sized for `cap` pending events.
    pub fn with_capacity(cap: usize) -> Self {
        EventQueue {
            front: None,
            pool: Vec::with_capacity(cap.saturating_sub(1)),
            next_seq: 0,
            peak_depth: 0,
        }
    }

    /// Schedules `kind` to fire at `time`.
    pub fn push(&mut self, time: SimTime, kind: EventKind) {
        let e = QueuedEvent::new(time, self.next_seq, kind);
        self.next_seq += 1;
        match &mut self.front {
            None => self.front = Some(e),
            Some(f) => {
                let evicted = if e < *f { std::mem::replace(f, e) } else { e };
                self.pool.push(evicted);
            }
        }
        let depth = self.len();
        if depth > self.peak_depth {
            self.peak_depth = depth;
        }
    }

    /// Extracts the pool's minimum into `front` (linear scan).
    fn refill_front(&mut self) {
        let mut min = 0;
        let mut best = u128::MAX;
        for (i, e) in self.pool.iter().enumerate() {
            if e.key < best {
                best = e.key;
                min = i;
            }
        }
        if !self.pool.is_empty() {
            self.front = Some(self.pool.swap_remove(min));
        }
    }

    /// Removes and returns the earliest event, or `None` when drained.
    pub fn pop(&mut self) -> Option<(SimTime, EventKind)> {
        let e = self.front.take()?;
        self.refill_front();
        Some((e.time(), e.kind))
    }

    /// The time of the earliest pending event.
    pub fn peek_time(&self) -> Option<SimTime> {
        self.front.map(|e| e.time())
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.pool.len() + usize::from(self.front.is_some())
    }

    /// True if no events are pending.
    pub fn is_empty(&self) -> bool {
        self.front.is_none()
    }

    /// Observability counters (total scheduled, peak depth).
    pub fn stats(&self) -> EventQueueStats {
        EventQueueStats {
            scheduled: self.next_seq,
            peak_depth: self.peak_depth,
        }
    }

    /// Empties the queue and resets the sequence counter and counters,
    /// keeping the pool allocation (machine recycling).
    pub(crate) fn reset(&mut self) {
        self.front = None;
        self.pool.clear();
        self.next_seq = 0;
        self.peak_depth = 0;
    }

    /// Logical section view for the snapshot codec: every pending event
    /// in canonical `(time, seq)` order, independent of the internal
    /// front-slot/pool split. The on-disk v1 format serializes exactly
    /// this sequence.
    pub(crate) fn sorted_events(&self) -> Vec<QueuedEvent> {
        let mut v = self.pool.clone();
        if let Some(f) = self.front {
            v.push(f);
        }
        v.sort_unstable();
        v
    }

    /// The sequence counter the next push will use (snapshot codec).
    pub(crate) fn next_seq(&self) -> u64 {
        self.next_seq
    }

    /// Moves `spare`'s pool allocation under this queue when it is
    /// larger, preserving this queue's contents (machine recycling:
    /// a restored machine inherits the previous boot's high-water
    /// capacity). Purely a capacity transfer — never observable.
    pub(crate) fn adopt_capacity(&mut self, mut spare: EventQueue) {
        if spare.pool.capacity() > self.pool.capacity() {
            spare.pool.clear();
            spare.pool.append(&mut self.pool);
            std::mem::swap(&mut self.pool, &mut spare.pool);
        }
    }

    /// Rebuilds a queue from a decoded snapshot section. Accepts
    /// `events` in any order (corrupt inputs must not break the
    /// front-slot invariant); the peak-depth counter restarts at the
    /// restored queue depth.
    pub(crate) fn from_parts(next_seq: u64, events: Vec<QueuedEvent>) -> Self {
        let mut q = EventQueue {
            front: None,
            pool: events,
            next_seq,
            peak_depth: 0,
        };
        q.refill_front();
        q.peak_depth = q.len();
        q
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.push(SimTime::from_nanos(30), EventKind::RcuGraceDone);
        q.push(
            SimTime::from_nanos(10),
            EventKind::WakeUp {
                pid: Pid::from_raw(1),
            },
        );
        q.push(
            SimTime::from_nanos(20),
            EventKind::IoDone {
                device: DeviceId::from_raw(0),
            },
        );
        let times: Vec<u64> = std::iter::from_fn(|| q.pop())
            .map(|(t, _)| t.as_nanos())
            .collect();
        assert_eq!(times, vec![10, 20, 30]);
    }

    #[test]
    fn ties_break_by_submission_order() {
        let mut q = EventQueue::new();
        let t = SimTime::from_nanos(5);
        for i in 0..4 {
            q.push(
                t,
                EventKind::WakeUp {
                    pid: Pid::from_raw(i),
                },
            );
        }
        let pids: Vec<u32> = std::iter::from_fn(|| q.pop())
            .map(|(_, k)| match k {
                EventKind::WakeUp { pid } => pid.as_raw(),
                _ => unreachable!(),
            })
            .collect();
        assert_eq!(pids, vec![0, 1, 2, 3]);
    }

    #[test]
    fn interleaved_push_pop_keeps_global_order() {
        // Exercises the front-slot swap: later pushes that beat the
        // held minimum must evict it back into the heap.
        let mut q = EventQueue::new();
        q.push(SimTime::from_nanos(50), EventKind::RcuGraceDone);
        q.push(SimTime::from_nanos(10), EventKind::RcuGraceDone);
        assert_eq!(q.pop().map(|(t, _)| t.as_nanos()), Some(10));
        q.push(SimTime::from_nanos(20), EventKind::RcuGraceDone);
        q.push(SimTime::from_nanos(60), EventKind::RcuGraceDone);
        q.push(SimTime::from_nanos(5), EventKind::RcuGraceDone);
        let times: Vec<u64> = std::iter::from_fn(|| q.pop())
            .map(|(t, _)| t.as_nanos())
            .collect();
        assert_eq!(times, vec![5, 20, 50, 60]);
        assert!(q.is_empty());
        assert_eq!(q.peek_time(), None);
    }

    #[test]
    fn stats_track_scheduled_and_peak_depth() {
        let mut q = EventQueue::with_capacity(8);
        assert_eq!(q.stats(), EventQueueStats::default());
        for i in 0..5 {
            q.push(SimTime::from_nanos(i), EventKind::RcuGraceDone);
        }
        q.pop();
        q.pop();
        q.push(SimTime::from_nanos(99), EventKind::RcuGraceDone);
        let stats = q.stats();
        assert_eq!(stats.scheduled, 6);
        assert_eq!(stats.peak_depth, 5);
        assert_eq!(q.len(), 4);
    }

    #[test]
    fn from_parts_restores_any_input_order() {
        let events = vec![
            QueuedEvent::new(SimTime::from_nanos(30), 2, EventKind::RcuGraceDone),
            QueuedEvent::new(SimTime::from_nanos(10), 0, EventKind::RcuGraceDone),
            QueuedEvent::new(SimTime::from_nanos(20), 1, EventKind::RcuGraceDone),
        ];
        let mut q = EventQueue::from_parts(7, events);
        assert_eq!(q.next_seq(), 7);
        let times: Vec<u64> = q
            .sorted_events()
            .iter()
            .map(|e| e.time().as_nanos())
            .collect();
        assert_eq!(times, vec![10, 20, 30]);
        let popped: Vec<u64> = std::iter::from_fn(|| q.pop())
            .map(|(t, _)| t.as_nanos())
            .collect();
        assert_eq!(popped, vec![10, 20, 30]);
    }

    #[test]
    fn peek_and_len() {
        let mut q = EventQueue::new();
        assert!(q.is_empty());
        assert_eq!(q.peek_time(), None);
        q.push(SimTime::from_nanos(9), EventKind::RcuGraceDone);
        assert_eq!(q.len(), 1);
        assert_eq!(q.peek_time(), Some(SimTime::from_nanos(9)));
    }
}
