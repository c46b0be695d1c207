//! Zero-cost-when-disabled telemetry: named spans plus a counter /
//! histogram registry.
//!
//! The simulator already records a [`Trace`](crate::trace::Trace) of
//! scheduling events; telemetry is the *aggregated* view: named spans
//! (an interval with a start and an end) and a [`MetricsRegistry`] of
//! monotonic counters and raw-sample histograms. Like the fault plan,
//! telemetry follows the `Option<..>` pattern on
//! [`Machine`](crate::machine::Machine): when disabled the field is
//! `None` and the hot-path hooks reduce to a single `is_some()` check,
//! so timelines — and therefore the calibration pins — are untouched.
//!
//! Metric names are dotted lowercase strings (`rcu.sync.wait_ns`);
//! durations are recorded in raw nanoseconds so aggregation stays
//! exact. Histograms keep every sample: the simulated workloads are
//! small enough (thousands of samples per boot) that exactness beats
//! the memory savings of bucketing, and exact samples make fleet-level
//! percentile aggregation bit-reproducible.

use std::collections::BTreeMap;

use crate::time::{SimDuration, SimTime};

/// Number of RCU synchronizations submitted (counter).
pub const RCU_SYNCS: &str = "rcu.syncs";
/// Wait time of each RCU synchronization, submit-to-release (histogram, ns).
pub const RCU_SYNC_WAIT_NS: &str = "rcu.sync.wait_ns";
/// Ready-queue depth observed at each dispatch (histogram, processes).
pub const RUN_QUEUE_DEPTH: &str = "sched.run_queue.depth";
/// Latency of each I/O request, submit-to-complete (histogram, ns).
pub const IO_REQUEST_LATENCY_NS: &str = "io.request.latency_ns";

/// A named interval on the simulated timeline.
///
/// Spans are half-open conceptually but stored as `[start, end]`
/// instants; `end >= start` always holds for spans produced by the
/// simulator.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// Span name, e.g. `"unit/dbus.service"` or `"kernel/initcalls"`.
    pub name: String,
    /// When the interval opened.
    pub start: SimTime,
    /// When the interval closed.
    pub end: SimTime,
}

impl Span {
    /// Creates a span; `end` is clamped up to `start` if it precedes it.
    pub fn new(name: impl Into<String>, start: SimTime, end: SimTime) -> Self {
        Span {
            name: name.into(),
            start,
            end: end.max(start),
        }
    }

    /// The length of the interval.
    pub fn duration(&self) -> SimDuration {
        self.end.saturating_since(self.start)
    }
}

/// An exact-sample histogram: every recorded value is kept.
///
/// Percentiles use the nearest-rank method on the sorted sample set,
/// which is deterministic and merge-stable (merging two histograms and
/// taking a percentile equals taking it over the concatenated samples).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Histogram {
    samples: Vec<u64>,
}

impl Histogram {
    /// Creates an empty histogram.
    pub fn new() -> Self {
        Histogram::default()
    }

    /// Records one sample.
    pub fn record(&mut self, value: u64) {
        self.samples.push(value);
    }

    /// Number of recorded samples.
    pub fn count(&self) -> usize {
        self.samples.len()
    }

    /// True if no samples have been recorded.
    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }

    /// Sum of all samples (saturating).
    pub fn sum(&self) -> u64 {
        self.samples
            .iter()
            .fold(0u64, |acc, &s| acc.saturating_add(s))
    }

    /// Smallest sample, if any.
    pub fn min(&self) -> Option<u64> {
        self.samples.iter().copied().min()
    }

    /// Largest sample, if any.
    pub fn max(&self) -> Option<u64> {
        self.samples.iter().copied().max()
    }

    /// Arithmetic mean, truncating; `None` if empty.
    pub fn mean(&self) -> Option<u64> {
        if self.samples.is_empty() {
            None
        } else {
            Some(self.sum() / self.samples.len() as u64)
        }
    }

    /// Nearest-rank percentile for `p` in `1..=100`; `None` if empty.
    pub fn percentile(&self, p: u32) -> Option<u64> {
        percentile_of(&self.sorted(), p)
    }

    /// The raw samples, in recording order.
    pub fn samples(&self) -> &[u64] {
        &self.samples
    }

    /// A sorted copy of the samples.
    pub fn sorted(&self) -> Vec<u64> {
        let mut sorted = self.samples.clone();
        sorted.sort_unstable();
        sorted
    }

    /// Merges another histogram's samples into this one.
    #[cfg(test)]
    fn merge(&mut self, other: &Histogram) {
        self.samples.extend_from_slice(&other.samples);
    }
}

/// Nearest-rank percentile over an already-sorted slice.
///
/// `p` is clamped to `1..=100`; returns `None` on an empty slice.
pub fn percentile_of(sorted: &[u64], p: u32) -> Option<u64> {
    if sorted.is_empty() {
        return None;
    }
    let p = p.clamp(1, 100) as usize;
    let rank = (p * sorted.len()).div_ceil(100);
    Some(sorted[rank - 1])
}

/// A registry of named counters and histograms.
///
/// Keyed by `&'static str` metric names (the simulator's metric set is
/// closed) stored in `BTreeMap`s so iteration order — and therefore
/// every JSON rendering — is deterministic.
#[derive(Debug, Clone, Default)]
pub struct MetricsRegistry {
    counters: BTreeMap<&'static str, u64>,
    histograms: BTreeMap<&'static str, Histogram>,
}

impl MetricsRegistry {
    /// Creates an empty registry.
    pub fn new() -> Self {
        MetricsRegistry::default()
    }

    /// Adds `delta` to the named counter, creating it at zero.
    pub fn add(&mut self, name: &'static str, delta: u64) {
        let c = self.counters.entry(name).or_insert(0);
        *c = c.saturating_add(delta);
    }

    /// Records one histogram sample, creating the histogram if needed.
    pub fn record(&mut self, name: &'static str, value: u64) {
        self.histograms.entry(name).or_default().record(value);
    }

    /// Current value of a counter (zero if never touched).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// The named histogram, if any samples were recorded.
    pub fn histogram(&self, name: &str) -> Option<&Histogram> {
        self.histograms.get(name)
    }

    /// All counters in name order.
    pub fn counters(&self) -> impl Iterator<Item = (&'static str, u64)> + '_ {
        self.counters.iter().map(|(&k, &v)| (k, v))
    }

    /// All histograms in name order.
    pub fn histograms(&self) -> impl Iterator<Item = (&'static str, &Histogram)> + '_ {
        self.histograms.iter().map(|(&k, v)| (k, v))
    }

    /// True if nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.counters.is_empty() && self.histograms.is_empty()
    }
}

/// The telemetry sink installed on a [`Machine`](crate::machine::Machine).
///
/// Holds the machine-level metrics registry; span assembly happens in
/// `bb-core`, which sees the unit graph and pass provenance the
/// simulator deliberately knows nothing about.
#[derive(Debug, Clone, Default)]
pub struct Telemetry {
    /// Counters and histograms recorded by the machine's hot-path hooks.
    pub metrics: MetricsRegistry,
}

impl Telemetry {
    /// Creates an empty sink.
    pub fn new() -> Self {
        Telemetry::default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_stats() {
        let mut h = Histogram::new();
        for v in [30, 10, 20, 40] {
            h.record(v);
        }
        assert_eq!(h.count(), 4);
        assert_eq!(h.sum(), 100);
        assert_eq!(h.min(), Some(10));
        assert_eq!(h.max(), Some(40));
        assert_eq!(h.mean(), Some(25));
        assert_eq!(h.percentile(50), Some(20));
        assert_eq!(h.percentile(75), Some(30));
        assert_eq!(h.percentile(100), Some(40));
        assert_eq!(h.percentile(1), Some(10));
    }

    #[test]
    fn empty_histogram_is_all_none() {
        let h = Histogram::new();
        assert!(h.is_empty());
        assert_eq!(h.min(), None);
        assert_eq!(h.mean(), None);
        assert_eq!(h.percentile(99), None);
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let sorted: Vec<u64> = (1..=10).collect();
        assert_eq!(percentile_of(&sorted, 50), Some(5));
        assert_eq!(percentile_of(&sorted, 95), Some(10));
        assert_eq!(percentile_of(&sorted, 99), Some(10));
        assert_eq!(percentile_of(&sorted, 10), Some(1));
        assert_eq!(percentile_of(&[], 50), None);
    }

    #[test]
    fn merge_matches_concatenation() {
        let mut a = Histogram::new();
        let mut b = Histogram::new();
        for v in [5, 1, 9] {
            a.record(v);
        }
        for v in [2, 8] {
            b.record(v);
        }
        let mut merged = a.clone();
        merged.merge(&b);
        let mut all = Histogram::new();
        for v in [5, 1, 9, 2, 8] {
            all.record(v);
        }
        assert_eq!(merged.sorted(), all.sorted());
        assert_eq!(merged.percentile(50), all.percentile(50));
    }

    #[test]
    fn registry_counters_and_iteration_order() {
        let mut r = MetricsRegistry::new();
        r.add(RCU_SYNCS, 2);
        r.add(RCU_SYNCS, 3);
        r.record(RUN_QUEUE_DEPTH, 7);
        r.record(IO_REQUEST_LATENCY_NS, 1_000);
        assert_eq!(r.counter(RCU_SYNCS), 5);
        assert_eq!(r.counter("never.touched"), 0);
        let names: Vec<&str> = r.histograms().map(|(n, _)| n).collect();
        assert_eq!(names, vec![IO_REQUEST_LATENCY_NS, RUN_QUEUE_DEPTH]);
    }

    #[test]
    fn span_duration_and_clamping() {
        let s = Span::new(
            "unit/a.service",
            SimTime::from_nanos(100),
            SimTime::from_nanos(250),
        );
        assert_eq!(s.duration(), SimDuration::from_nanos(150));
        let clamped = Span::new("x", SimTime::from_nanos(10), SimTime::ZERO);
        assert_eq!(clamped.end, clamped.start);
        assert!(clamped.duration().is_zero());
    }
}
