//! Simulation trace: the timeline every chart and assertion reads.
//!
//! The machine appends [`TraceEvent`]s as the run progresses. The init
//! layer and the bootchart renderer reconstruct service timelines from
//! process spawn/first-run/finish events and flag-set times; core busy
//! spans feed CPU-utilization rows (the shaded background of
//! systemd-bootchart graphs, Figure 5(a) / Figure 7 of the paper).

use std::collections::HashMap;
use std::sync::Arc;

use crate::ids::{CoreId, FlagId, Pid};
use crate::time::{SimDuration, SimTime};

/// What a trace entry records.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TraceKind {
    /// A process was created.
    Spawned {
        /// Process name from its spec (the same allocation).
        name: Arc<str>,
    },
    /// A process was dispatched onto a core for the first time.
    FirstRun,
    /// A process completed all its ops.
    Finished,
    /// A process hit an [`crate::process::Op`]`::AssertFlag` whose flag
    /// was unset and aborted.
    Failed {
        /// The flag that was not yet set.
        flag: FlagId,
    },
    /// A flag was set.
    FlagSet {
        /// The flag.
        flag: FlagId,
    },
    /// A `synchronize_rcu` call completed.
    RcuSyncDone {
        /// Wall time from submission to grace-period end.
        waited: SimDuration,
    },
    /// An installed [`crate::fault::FaultPlan`] injected a fault. The pid
    /// is the afflicted process (or `u32::MAX` for device-level faults).
    FaultInjected {
        /// Human-readable description of the injected fault.
        description: String,
    },
}

/// One timestamped trace entry.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceEvent {
    /// When it happened.
    pub time: SimTime,
    /// The process it concerns (the setter, for `FlagSet`).
    pub pid: Pid,
    /// What happened.
    pub kind: TraceKind,
}

/// A contiguous interval during which a core executed (or spin-waited
/// on behalf of) one process.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CoreSpan {
    /// The core.
    pub core: CoreId,
    /// The occupying process.
    pub pid: Pid,
    /// Span start.
    pub start: SimTime,
    /// Span end.
    pub end: SimTime,
}

/// Collected timeline of one simulation run.
#[derive(Debug, Default)]
pub struct Trace {
    pub(crate) events: Vec<TraceEvent>,
    pub(crate) spans: Vec<CoreSpan>,
    /// Whether [`Trace::push_span`] keeps spans; set through
    /// [`crate::Machine::record_spans`].
    pub(crate) record_spans: bool,
}

impl Trace {
    /// Creates an empty trace with span recording enabled.
    pub(crate) fn new() -> Self {
        Trace {
            events: Vec::new(),
            spans: Vec::new(),
            record_spans: true,
        }
    }

    /// Empties the trace back to the [`Trace::new`] state, keeping the
    /// event and span allocations (machine recycling).
    pub(crate) fn reset(&mut self) {
        self.events.clear();
        self.spans.clear();
        self.record_spans = true;
    }

    /// Appends an event.
    pub(crate) fn push(&mut self, time: SimTime, pid: Pid, kind: TraceKind) {
        self.events.push(TraceEvent { time, pid, kind });
    }

    /// Appends a core busy span (no-op if span recording is off).
    pub(crate) fn push_span(&mut self, span: CoreSpan) {
        if self.record_spans {
            self.spans.push(span);
        }
    }

    /// All events in time order (the machine appends monotonically).
    pub fn events(&self) -> &[TraceEvent] {
        &self.events
    }

    /// All core busy spans.
    pub fn spans(&self) -> &[CoreSpan] {
        &self.spans
    }

    /// Time the given flag was set, if it was.
    #[cfg(test)]
    fn flag_set_time(&self, flag: FlagId) -> Option<SimTime> {
        self.events.iter().find_map(|e| match e.kind {
            TraceKind::FlagSet { flag: f } if f == flag => Some(e.time),
            _ => None,
        })
    }

    /// Spawn, first-run, and finish times per process.
    pub fn process_timeline(&self) -> HashMap<Pid, ProcessTimeline> {
        let mut map: HashMap<Pid, ProcessTimeline> = HashMap::new();
        for e in &self.events {
            let entry = map.entry(e.pid).or_default();
            match &e.kind {
                TraceKind::Spawned { name } => {
                    entry.name = Arc::clone(name);
                    entry.spawned = Some(e.time);
                }
                TraceKind::FirstRun => entry.first_run = Some(e.time),
                TraceKind::Finished => entry.finished = Some(e.time),
                TraceKind::Failed { .. } => entry.failed = true,
                _ => {}
            }
        }
        map
    }

    /// Total busy time summed over all cores within `[start, end)`.
    fn busy_time_in(&self, start: SimTime, end: SimTime) -> SimDuration {
        self.spans
            .iter()
            .map(|s| {
                let lo = s.start.max(start);
                let hi = if s.end <= end { s.end } else { end };
                hi.saturating_since(lo)
            })
            .sum()
    }

    /// Mean CPU utilization over `[start, end)` for a machine with
    /// `cores` cores (0.0–1.0).
    pub fn utilization(&self, start: SimTime, end: SimTime, cores: usize) -> f64 {
        let window = end.saturating_since(start);
        if window.is_zero() || cores == 0 {
            return 0.0;
        }
        self.busy_time_in(start, end).as_nanos() as f64 / (window.as_nanos() as f64 * cores as f64)
    }
}

/// Per-process lifecycle summary extracted from a trace.
#[derive(Debug, Clone, Default)]
pub struct ProcessTimeline {
    /// Process name.
    pub name: Arc<str>,
    /// Spawn time.
    pub spawned: Option<SimTime>,
    /// First dispatch onto a core.
    pub first_run: Option<SimTime>,
    /// Completion time.
    pub finished: Option<SimTime>,
    /// True if the process aborted on an unmet flag assertion.
    pub failed: bool,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn flag_set_time_finds_first() {
        let mut t = Trace::new();
        let f = FlagId::from_raw(2);
        t.push(
            SimTime::from_nanos(5),
            Pid::from_raw(0),
            TraceKind::FlagSet { flag: f },
        );
        assert_eq!(t.flag_set_time(f), Some(SimTime::from_nanos(5)));
        assert_eq!(t.flag_set_time(FlagId::from_raw(9)), None);
    }

    #[test]
    fn process_timeline_assembles_lifecycle() {
        let mut t = Trace::new();
        let p = Pid::from_raw(3);
        t.push(
            SimTime::from_nanos(1),
            p,
            TraceKind::Spawned { name: "svc".into() },
        );
        t.push(SimTime::from_nanos(4), p, TraceKind::FirstRun);
        t.push(SimTime::from_nanos(9), p, TraceKind::Finished);
        let tl = &t.process_timeline()[&p];
        assert_eq!(&*tl.name, "svc");
        assert_eq!(tl.spawned.unwrap().as_nanos(), 1);
        assert_eq!(tl.first_run.unwrap().as_nanos(), 4);
        assert_eq!(tl.finished.unwrap().as_nanos(), 9);
        assert!(!tl.failed);
    }

    #[test]
    fn utilization_from_spans() {
        let mut t = Trace::new();
        // One core busy for 50 of 100 ns, the other idle: 25% on 2 cores.
        t.push_span(CoreSpan {
            core: CoreId::from_raw(0),
            pid: Pid::from_raw(0),
            start: SimTime::from_nanos(0),
            end: SimTime::from_nanos(50),
        });
        let u = t.utilization(SimTime::ZERO, SimTime::from_nanos(100), 2);
        assert!((u - 0.25).abs() < 1e-9);
    }

    #[test]
    fn spans_clip_to_window() {
        let mut t = Trace::new();
        t.push_span(CoreSpan {
            core: CoreId::from_raw(0),
            pid: Pid::from_raw(0),
            start: SimTime::from_nanos(0),
            end: SimTime::from_nanos(100),
        });
        let busy = t.busy_time_in(SimTime::from_nanos(40), SimTime::from_nanos(60));
        assert_eq!(busy.as_nanos(), 20);
    }

    #[test]
    fn span_recording_can_be_disabled() {
        let mut t = Trace::new();
        t.record_spans = false;
        t.push_span(CoreSpan {
            core: CoreId::from_raw(0),
            pid: Pid::from_raw(0),
            start: SimTime::ZERO,
            end: SimTime::from_nanos(1),
        });
        assert!(t.spans().is_empty());
    }
}
