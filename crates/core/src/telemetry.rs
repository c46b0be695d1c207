//! Boot telemetry: named spans, a metrics snapshot, and the
//! critical-path profiler.
//!
//! `bb-sim` records the raw material (trace events, machine-level
//! counters); this module assembles it into the structured views the
//! paper's methodology needs: per-kernel-phase / per-unit / per-pass
//! **spans**, a merged **metrics snapshot** (machine registry +
//! scheduler counters + supervision restarts), and the **critical
//! path** — the longest blocking chain from power-on to boot
//! completion, with per-edge slack. The critical path supersedes the
//! miner's ad-hoc slack table: [`ordering_edge_slacks`] is the one
//! shared slack computation, and [`crate::miner::mine`] consumes it.
//!
//! Everything here is read-only over an already-finished boot, so
//! profiling never perturbs the timeline; the only opt-in cost is the
//! machine-level metrics registry (see
//! [`bb_sim::machine::Machine::enable_telemetry`]).

use std::collections::{BTreeMap, BTreeSet};

use bb_init::{BootRecord, EdgeKind, UnitGraph, UnitName};
use bb_sim::{Machine, SimDuration, SimTime, Span};

use crate::booster::{FullBootReport, Scenario};
use crate::error::Error;

/// One ordering edge with its observed slack.
#[derive(Debug, Clone)]
pub struct EdgeSlack {
    /// Prerequisite unit.
    pub src: UnitName,
    /// Dependent unit.
    pub dst: UnitName,
    /// Graph indices (for re-running with the edge dropped).
    pub idx: (usize, usize),
    /// How long `src` had been ready when `dst` started. `None` when the
    /// edge was *binding* (src became ready at or after dst's start —
    /// i.e. the edge actually gated the dependent).
    pub slack: Option<SimDuration>,
}

/// Every in-transaction ordering edge of an observed boot, classified
/// by slack and sorted most-slack-first (the miner's candidate order).
pub fn ordering_edge_slacks(graph: &UnitGraph, boot: &BootRecord) -> Vec<EdgeSlack> {
    let mut edges: Vec<EdgeSlack> = Vec::new();
    let mut seen = BTreeSet::new();
    for e in graph.edges() {
        if e.kind != EdgeKind::Ordering || !seen.insert((e.src, e.dst)) {
            continue;
        }
        let src_name = &graph.unit(e.src).name;
        let dst_name = &graph.unit(e.dst).name;
        let (Some(src_rec), Some(dst_rec)) =
            (boot.services.get(src_name), boot.services.get(dst_name))
        else {
            continue;
        };
        let (Some(src_ready), Some(dst_started)) = (src_rec.ready, dst_rec.started) else {
            continue;
        };
        let slack = (src_ready < dst_started).then(|| dst_started.since(src_ready));
        edges.push(EdgeSlack {
            src: src_name.clone(),
            dst: dst_name.clone(),
            idx: (e.src, e.dst),
            slack,
        });
    }
    edges.sort_by(|a, b| b.slack.cmp(&a.slack).then_with(|| a.dst.cmp(&b.dst)));
    edges
}

/// Spans derivable from the report alone: `kernel/<phase>`,
/// `init/serial`, `init/load`, and `unit/<name>` (spawn to readiness).
///
/// Deterministic for a deterministic boot, and available without a
/// machine — the fleet aggregates exactly these across sweeps.
pub fn boot_spans(report: &FullBootReport) -> Vec<Span> {
    let mut spans = Vec::new();
    for p in &report.kernel.phases {
        spans.push(Span::new(
            format!("kernel/{}", p.name),
            p.start,
            p.start + p.duration,
        ));
    }
    spans.push(Span::new(
        "init/serial",
        report.boot.userspace_start,
        report.boot.init_done,
    ));
    spans.push(Span::new(
        "init/load",
        report.boot.init_done,
        report.boot.load_done,
    ));
    for (name, rec) in &report.boot.services {
        if let (Some(spawned), Some(ready)) = (rec.spawned, rec.ready) {
            spans.push(Span::new(format!("unit/{name}"), spawned, ready));
        }
    }
    spans
}

/// True if `process` carries out work a pass deferred past completion.
fn pass_claims_process(pass: &str, process: &str) -> bool {
    match pass {
        "defer-memory-init" => process == "kworker/mem-deferred-init",
        "ondemand-modularizer" => {
            process.starts_with("kworker/defer-init:") || process == "kworker/ondemand-modularizer"
        }
        "deferred-executor" => process.starts_with("systemd:") || process == "remount-rw-journal",
        "rcu-booster" => process == "rcu-booster-control",
        // Plan-only passes (pre-parser, isolator, priorities) leave no
        // deferred process behind.
        _ => false,
    }
}

/// Per-pass spans: for each recorded [`crate::pipeline::PassDelta`],
/// the interval its deferred background work occupied (first dispatch
/// of the earliest worker to finish of the latest). Passes with no
/// deferred processes — or whose work never ran — produce no span.
///
/// Needs the machine because the workers (`kworker/…`, `systemd:…`) are
/// not units; their lifecycle only exists in the trace.
pub fn pass_spans(report: &FullBootReport, machine: &Machine) -> Vec<Span> {
    let completion = report.boot.completion_time;
    let timeline = machine.trace().process_timeline();
    let mut spans = Vec::new();
    for delta in &report.deltas {
        let mut start: Option<SimTime> = None;
        let mut end: Option<SimTime> = None;
        for tl in timeline.values() {
            if !pass_claims_process(delta.pass, &tl.name) {
                continue;
            }
            // The deferred-executor predicate also matches the *eager*
            // service-phase housekeeping of a conventional boot; only
            // work running past completion was actually deferred.
            if delta.pass == "deferred-executor" {
                match (tl.finished, completion) {
                    (Some(f), Some(c)) if f > c => {}
                    _ => continue,
                }
            }
            let Some(began) = tl.first_run.or(tl.spawned) else {
                continue;
            };
            let Some(done) = tl.finished else { continue };
            start = Some(start.map_or(began, |s: SimTime| if began < s { began } else { s }));
            end = Some(end.map_or(done, |e: SimTime| e.max(done)));
        }
        if let (Some(s), Some(e)) = (start, end) {
            spans.push(Span::new(format!("pass/{}", delta.pass), s, e));
        }
    }
    spans
}

/// A merged view of every numeric measurement of one boot: the
/// machine's opt-in registry (RCU waits, run-queue depth, I/O latency)
/// plus counters the stack always maintains (scheduler stats, RCU
/// engine stats, supervision restarts).
#[derive(Debug, Clone, Default)]
pub struct MetricsSnapshot {
    /// Monotonic counters, keyed by dotted metric name.
    pub counters: BTreeMap<String, u64>,
    /// Histogram summaries, keyed by dotted metric name.
    pub histograms: BTreeMap<String, HistogramSummary>,
}

/// Summary statistics of one histogram (nearest-rank percentiles).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HistogramSummary {
    /// Recorded samples.
    pub count: u64,
    /// Smallest sample.
    pub min: u64,
    /// Largest sample.
    pub max: u64,
    /// Truncated arithmetic mean.
    pub mean: u64,
    /// 50th percentile.
    pub p50: u64,
    /// 95th percentile.
    pub p95: u64,
    /// 99th percentile.
    pub p99: u64,
}

impl HistogramSummary {
    fn of(h: &bb_sim::Histogram) -> Option<HistogramSummary> {
        Some(HistogramSummary {
            count: h.count() as u64,
            min: h.min()?,
            max: h.max()?,
            mean: h.mean()?,
            p50: h.percentile(50)?,
            p95: h.percentile(95)?,
            p99: h.percentile(99)?,
        })
    }
}

/// Snapshots every metric of a finished boot. Histograms are present
/// only when the machine booted with telemetry enabled.
pub fn metrics_snapshot(report: &FullBootReport, machine: &Machine) -> MetricsSnapshot {
    let mut snap = MetricsSnapshot::default();
    if let Some(t) = machine.telemetry() {
        for (name, value) in t.metrics.counters() {
            snap.counters.insert(name.to_string(), value);
        }
        for (name, h) in t.metrics.histograms() {
            if let Some(summary) = HistogramSummary::of(h) {
                snap.histograms.insert(name.to_string(), summary);
            }
        }
    }
    let sched = machine.sched_stats();
    let queue = machine.event_queue_stats();
    snap.counters
        .insert("sim.events.scheduled".into(), queue.scheduled);
    snap.counters
        .insert("sim.events.peak_depth".into(), queue.peak_depth as u64);
    snap.counters
        .insert("sched.dispatches".into(), sched.dispatches);
    snap.counters
        .insert("sched.preemptions".into(), sched.preemptions);
    snap.counters
        .insert("sched.flag_wakeups".into(), sched.flag_wakeups);
    snap.counters
        .insert("io.requests".into(), sched.io_requests);
    snap.counters
        .insert("rcu.grace_periods".into(), report.rcu.grace_periods);
    snap.counters
        .insert("rcu.syncs_completed".into(), report.rcu.syncs_completed);
    let restarts: u64 = report
        .boot
        .services
        .values()
        .map(|r| r.restarts as u64)
        .sum();
    snap.counters.insert("init.unit.restarts".into(), restarts);
    snap
}

/// One step of the critical path.
#[derive(Debug, Clone)]
pub struct CriticalStep {
    /// Span name (`kernel/…`, `init/…`, `unit/…`).
    pub name: String,
    /// When this step began holding up the boot.
    pub start: SimTime,
    /// When it released the next step (phase end / unit readiness).
    pub end: SimTime,
    /// Slack against the previous step: how long the predecessor had
    /// been done when this step's process actually started. `None` for
    /// binding hand-offs (the predecessor directly gated this step).
    pub slack: Option<SimDuration>,
}

impl CriticalStep {
    /// The step's share of the boot time.
    pub fn duration(&self) -> SimDuration {
        self.end.saturating_since(self.start)
    }
}

/// The longest blocking chain from power-on to boot completion.
///
/// The steps tile `[0, boot_time]` exactly — kernel phases, the serial
/// init phase, unit loading, then the chain of units whose readiness
/// gated completion — so [`CriticalPath::total`] always equals the
/// reported boot time.
#[derive(Debug, Clone)]
pub struct CriticalPath {
    /// Chain steps, in boot order.
    pub steps: Vec<CriticalStep>,
    /// Sum of step durations; equals the boot time by construction.
    pub total: SimDuration,
}

impl CriticalPath {
    /// Text table (for `bbsim boot --profile`).
    pub fn render(&self) -> String {
        use std::fmt::Write as _;
        let mut s = String::new();
        let _ = writeln!(
            s,
            "critical path: {} steps, {:.3} ms total",
            self.steps.len(),
            self.total.as_nanos() as f64 / 1e6
        );
        let _ = writeln!(
            s,
            "  {:<42} {:>12} {:>12} {:>10} {:>10}",
            "span", "start ms", "end ms", "dur ms", "slack ms"
        );
        for step in &self.steps {
            let slack = match step.slack {
                None => "-".to_string(),
                Some(d) => format!("{:.3}", d.as_nanos() as f64 / 1e6),
            };
            let _ = writeln!(
                s,
                "  {:<42} {:>12.3} {:>12.3} {:>10.3} {:>10}",
                step.name,
                step.start.as_nanos() as f64 / 1e6,
                step.end.as_nanos() as f64 / 1e6,
                step.duration().as_nanos() as f64 / 1e6,
                slack,
            );
        }
        s
    }
}

/// Walks the span DAG of a finished boot and extracts the critical
/// path. Returns `None` when the boot never completed (there is no
/// path to walk to).
pub fn critical_path(graph: &UnitGraph, report: &FullBootReport) -> Option<CriticalPath> {
    let boot_time = report.try_boot_time()?;
    let boot = &report.boot;
    let mut steps = Vec::new();

    // Serial prefix: kernel phases tile [0, userspace_start] …
    for p in &report.kernel.phases {
        steps.push(CriticalStep {
            name: format!("kernel/{}", p.name),
            start: p.start,
            end: p.start + p.duration,
            slack: None,
        });
    }
    // … then the manager's serial init phase and unit loading.
    steps.push(CriticalStep {
        name: "init/serial".into(),
        start: boot.userspace_start,
        end: boot.init_done,
        slack: None,
    });
    steps.push(CriticalStep {
        name: "init/load".into(),
        start: boot.init_done,
        end: boot.load_done,
        slack: None,
    });

    // Chain end: the completion unit whose readiness set boot-complete.
    let (end_name, _) = boot
        .services
        .iter()
        .filter(|(_, r)| r.ready == Some(boot_time))
        .min_by_key(|(n, _)| (*n).clone())?;

    // Walk binding predecessors backwards: from each unit, follow the
    // ordering in-edge whose source's readiness was the latest gate the
    // unit observed before starting.
    let mut chain: Vec<UnitName> = vec![end_name.clone()];
    let mut visited: BTreeSet<usize> = BTreeSet::new();
    let mut cur = graph.idx_of(end_name.as_str());
    visited.insert(cur);
    loop {
        let cur_rec = &boot.services[&graph.unit(cur).name];
        let (Some(cur_started), Some(cur_spawned)) = (cur_rec.started, cur_rec.spawned) else {
            break;
        };
        let mut best: Option<(SimTime, usize)> = None;
        let mut seen_src = BTreeSet::new();
        for e in graph.ordering_in_edges(cur) {
            if e.src == cur || !seen_src.insert(e.src) || visited.contains(&e.src) {
                continue;
            }
            let Some(src_rec) = boot.services.get(&graph.unit(e.src).name) else {
                continue;
            };
            let Some(src_ready) = src_rec.ready else {
                continue;
            };
            // Edges the run did not enforce (stripped by isolation, or
            // satisfied long before) cannot have gated the start.
            if src_ready > cur_started {
                continue;
            }
            let better = match best {
                None => true,
                Some((t, i)) => src_ready > t || (src_ready == t && e.src < i),
            };
            if better {
                best = Some((src_ready, e.src));
            }
        }
        let Some((pred_ready, pred)) = best else {
            break;
        };
        // If the predecessor was ready before this unit even existed,
        // the wait was manager dispatch, not the dependency: stop here.
        if pred_ready < cur_spawned {
            break;
        }
        chain.push(graph.unit(pred).name.clone());
        visited.insert(pred);
        cur = pred;
    }
    chain.reverse();

    // Tile (load_done, boot_time] with the chain's readiness boundaries.
    let mut boundary = boot.load_done;
    let mut prev_ready: Option<SimTime> = None;
    for name in &chain {
        let rec = &boot.services[name];
        let ready = rec.ready.expect("chain units are ready");
        let slack = match (prev_ready, rec.started) {
            (Some(pr), Some(started)) if started > pr => Some(started.since(pr)),
            (Some(_), _) => None,
            (None, _) => None,
        };
        steps.push(CriticalStep {
            name: format!("unit/{name}"),
            start: boundary,
            end: ready.max(boundary),
            slack,
        });
        boundary = ready.max(boundary);
        prev_ready = Some(ready);
    }

    let total: SimDuration = steps.iter().map(CriticalStep::duration).sum();
    debug_assert_eq!(
        total,
        boot_time.since(SimTime::ZERO),
        "critical path must tile the boot exactly"
    );
    Some(CriticalPath { steps, total })
}

/// The full profile of one boot: every span plus the critical path.
#[derive(Debug)]
pub struct BootProfile {
    /// All spans: report-derived always, pass spans when a machine was
    /// supplied.
    pub spans: Vec<Span>,
    /// The critical path; `None` for boots that never completed.
    pub critical_path: Option<CriticalPath>,
}

/// Profiles a finished boot of `scenario`. Pass the machine to include
/// per-pass spans (deferred background work intervals).
pub fn profile(
    scenario: &Scenario,
    report: &FullBootReport,
    machine: Option<&Machine>,
) -> Result<BootProfile, Error> {
    let units = scenario.unit_plan()?;
    let mut spans = boot_spans(report);
    if let Some(m) = machine {
        spans.extend(pass_spans(report, m));
    }
    Ok(BootProfile {
        spans,
        critical_path: critical_path(&units.graph, report),
    })
}

/// Names re-exported from the machine-level registry, so callers need
/// one import path for metric names.
pub mod metric_names {
    pub use bb_sim::telemetry::{
        IO_REQUEST_LATENCY_NS, RCU_SYNCS, RCU_SYNC_WAIT_NS, RUN_QUEUE_DEPTH,
    };
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::booster::tests::mini_tv;
    use crate::booster::BootRequest;
    use crate::config::BbConfig;

    fn booted(cfg: BbConfig, telemetry: bool) -> (Scenario, crate::booster::Boot) {
        let s = mini_tv();
        let boot = BootRequest::new(&s)
            .config(cfg)
            .telemetry(telemetry)
            .run()
            .expect("valid scenario");
        (s, boot)
    }

    #[test]
    fn boot_spans_cover_kernel_init_and_units() {
        let (_, boot) = booted(BbConfig::full(), false);
        let spans = boot_spans(&boot.report);
        let names: Vec<&str> = spans.iter().map(|s| s.name.as_str()).collect();
        assert!(names.contains(&"kernel/bootloader"));
        assert!(names.contains(&"kernel/rootfs-mount"));
        assert!(names.contains(&"init/serial"));
        assert!(names.contains(&"init/load"));
        assert!(names.contains(&"unit/fasttv.service"));
        for s in &spans {
            assert!(s.end >= s.start, "span {} runs backwards", s.name);
        }
    }

    #[test]
    fn pass_spans_exist_for_deferring_passes_only() {
        let (_, boot) = booted(BbConfig::full(), false);
        let spans = pass_spans(&boot.report, &boot.machine);
        let names: Vec<&str> = spans.iter().map(|s| s.name.as_str()).collect();
        assert!(names.contains(&"pass/defer-memory-init"));
        assert!(names.contains(&"pass/ondemand-modularizer"));
        assert!(names.contains(&"pass/deferred-executor"));
        assert!(!names.contains(&"pass/pre-parser"));
        // Deferred work runs up to (rcu-booster reverts exactly at) or
        // past completion.
        let completion = boot.report.boot.completion_time.unwrap();
        for s in &spans {
            assert!(
                s.end >= completion,
                "pass span {} ended before completion",
                s.name
            );
        }
    }

    #[test]
    fn conventional_boot_has_no_pass_spans() {
        let (_, boot) = booted(BbConfig::conventional(), false);
        assert!(pass_spans(&boot.report, &boot.machine).is_empty());
    }

    #[test]
    fn critical_path_total_equals_boot_time() {
        for cfg in [BbConfig::conventional(), BbConfig::full()] {
            let (s, boot) = booted(cfg, false);
            let graph = UnitGraph::build(s.units.clone()).unwrap();
            let cp = critical_path(&graph, &boot.report).expect("completed boot");
            assert_eq!(
                cp.total,
                boot.report.boot_time().since(SimTime::ZERO),
                "critical path must sum to the boot time"
            );
            // The chain ends at a completion unit.
            assert_eq!(cp.steps.last().unwrap().name, "unit/fasttv.service");
            // Steps tile: each starts where the previous ended.
            for pair in cp.steps.windows(2) {
                assert_eq!(pair[0].end, pair[1].start, "gap in the critical path");
            }
            assert!(cp.render().contains("critical path:"));
        }
    }

    #[test]
    fn critical_path_follows_the_backbone_chain() {
        let (s, boot) = booted(BbConfig::full(), false);
        let graph = UnitGraph::build(s.units.clone()).unwrap();
        let cp = critical_path(&graph, &boot.report).unwrap();
        let units: Vec<&str> = cp
            .steps
            .iter()
            .filter(|st| st.name.starts_with("unit/"))
            .map(|st| st.name.as_str())
            .collect();
        assert_eq!(
            units,
            [
                "unit/var.mount",
                "unit/dbus.service",
                "unit/tuner.service",
                "unit/fasttv.service"
            ],
            "BB group backbone should be the critical chain"
        );
    }

    #[test]
    fn metrics_snapshot_merges_registry_and_stats() {
        let (_, boot) = booted(BbConfig::full(), true);
        let snap = metrics_snapshot(&boot.report, &boot.machine);
        assert!(snap.counters["sched.dispatches"] > 0);
        assert_eq!(snap.counters["init.unit.restarts"], 0);
        assert_eq!(
            snap.counters[metric_names::RCU_SYNCS],
            boot.report.rcu.syncs_completed
        );
        let rcu_wait = &snap.histograms[metric_names::RCU_SYNC_WAIT_NS];
        assert_eq!(rcu_wait.count, boot.report.rcu.syncs_completed);
        assert!(rcu_wait.p50 <= rcu_wait.p95 && rcu_wait.p95 <= rcu_wait.p99);
    }

    #[test]
    fn snapshot_without_telemetry_has_no_histograms() {
        let (_, boot) = booted(BbConfig::full(), false);
        let snap = metrics_snapshot(&boot.report, &boot.machine);
        assert!(snap.histograms.is_empty());
        assert!(snap.counters.contains_key("sched.dispatches"));
    }

    #[test]
    fn edge_slacks_match_miner_semantics() {
        let (s, boot) = booted(BbConfig::conventional(), false);
        let graph = UnitGraph::build(s.units.clone()).unwrap();
        let edges = ordering_edge_slacks(&graph, &boot.report.boot);
        assert!(!edges.is_empty());
        // Sorted most-slack-first, binding (None) last.
        for pair in edges.windows(2) {
            assert!(pair[0].slack >= pair[1].slack);
        }
        // The backbone contains at least one binding edge.
        assert!(edges.iter().any(|e| e.slack.is_none()));
    }

    #[test]
    fn profile_assembles_spans_and_path() {
        let s = mini_tv();
        let boot = BootRequest::new(&s).config(BbConfig::full()).run().unwrap();
        let p = profile(&s, &boot.report, Some(&boot.machine)).unwrap();
        assert!(p.spans.iter().any(|sp| sp.name.starts_with("pass/")));
        assert!(p.critical_path.is_some());
        let no_machine = profile(&s, &boot.report, None).unwrap();
        assert!(!no_machine
            .spans
            .iter()
            .any(|sp| sp.name.starts_with("pass/")));
    }
}
