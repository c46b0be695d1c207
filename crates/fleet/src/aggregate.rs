//! Streaming aggregation of sweep results.
//!
//! The [`Aggregator`] consumes job results from the pool's channel as
//! they arrive (any order) and stores them into slots addressed by
//! `(cell, plan, corruption, seed)`. [`Aggregator::finalize`] then
//! computes all statistics by walking the slots in deterministic order
//! — so the resulting [`SweepReport`] (and its JSON form) is
//! byte-identical for any worker count. The chaos view
//! ([`crate::ChaosReport`]) is derived from the same slots.

use std::collections::BTreeMap;

use crate::json::{self, Json};
use crate::pool::{JobFailure, JobOutput};
use crate::spec::{Job, SweepSpec};

/// Accumulates job results into slots addressed by `(cell, plan,
/// corruption, seed)`.
#[derive(Debug, Clone)]
pub struct Aggregator {
    cells: Vec<CellSlots>,
    failures: Vec<Failure>,
}

/// A failed job: `(job, seed, reason)`. Sorting these sorts by `(cell,
/// plan, corruption, seed)`.
pub(crate) type Failure = (Job, u64, String);

/// One boot's `(span name, duration ns)` lists, one list per config.
type ConfigSpans = Vec<Vec<(String, u64)>>;

/// The fault and recovery columns of one supervised boot. They travel
/// beside [`JobOutput`], one record per config, and are empty for plain
/// cells.
#[derive(Debug, Clone, Default)]
pub(crate) struct FaultRecord {
    /// Supervised respawns the attempt took.
    pub(crate) restarts: u32,
    /// Why the supervisor fell back to the conventional boot, rendered;
    /// `None` unless the boot degraded.
    pub(crate) degraded: Option<String>,
    /// Artifact recoveries (retried reads included).
    pub(crate) recoveries: u32,
    /// Artifacts the integrity chain rejected (subset of `recoveries`).
    pub(crate) rejected: u32,
    /// Total priced recovery cost, simulated ns.
    pub(crate) cost_ns: u64,
    /// Stable description of the first rejection.
    pub(crate) rejection: Option<String>,
}

/// One filled slot: every config of one `(plan, corruption, seed)`.
#[derive(Debug, Clone)]
pub(crate) struct Slot {
    /// Boot time per config, simulated ns (user-visible for degraded
    /// boots).
    pub(crate) boots: Vec<u64>,
    /// Span lists per config; empty unless the sweep collects metrics.
    spans: ConfigSpans,
    /// Fault columns per config; empty for plain cells.
    pub(crate) faults: Vec<FaultRecord>,
}

/// One cell's slots, `[plan][corruption][seed]` flattened (see
/// [`crate::CellSpec`]'s axes).
#[derive(Debug, Clone)]
pub(crate) struct CellSlots {
    pub(crate) label: String,
    pub(crate) config_labels: Vec<String>,
    pub(crate) seeds: Vec<u64>,
    pub(crate) plan_seeds: Vec<Option<u64>>,
    pub(crate) corruption_seeds: Vec<Option<u64>>,
    pub(crate) slots: Vec<Option<Slot>>,
}

impl CellSlots {
    /// The flat index of `(plan, corruption, seed)`.
    fn index(&self, plan: usize, corruption: usize, seed: usize) -> usize {
        (plan * self.corruption_seeds.len() + corruption) * self.seeds.len() + seed
    }

    /// The seed slots of one `(plan, corruption)` pair, in seed order.
    pub(crate) fn seed_slots(&self, plan: usize, corruption: usize) -> &[Option<Slot>] {
        let start = self.index(plan, corruption, 0);
        &self.slots[start..start + self.seeds.len()]
    }

    /// The span lists of every filled slot that carries them.
    fn spans(&self) -> impl Iterator<Item = &ConfigSpans> {
        self.slots
            .iter()
            .flatten()
            .map(|s| &s.spans)
            .filter(|spans| !spans.is_empty())
    }

    /// Boot times of config `ci` over every filled slot, in slot order.
    fn samples(&self, ci: usize) -> Vec<u64> {
        self.slots.iter().flatten().map(|s| s.boots[ci]).collect()
    }
}

impl Aggregator {
    /// Allocates slots for every `(cell, plan, corruption, seed)` of
    /// `spec`.
    pub fn new(spec: &SweepSpec) -> Self {
        Aggregator {
            cells: spec
                .cells
                .iter()
                .map(|c| CellSlots {
                    label: c.label.clone(),
                    config_labels: c.configs.iter().map(|(l, _)| l.clone()).collect(),
                    seeds: c.seeds.clone(),
                    plan_seeds: c.plan_seeds.clone(),
                    corruption_seeds: c.corruption_seeds.clone(),
                    slots: vec![None; c.slots()],
                })
                .collect(),
            failures: Vec::new(),
        }
    }

    /// Accepts one pool message, in arrival (nondeterministic) order.
    pub fn accept(&mut self, msg: Result<JobOutput, JobFailure>) {
        self.accept_job(msg.map(|out| (out, Vec::new())));
    }

    /// Accepts one job result with its fault columns (one record per
    /// config for supervised cells, none for plain ones).
    pub(crate) fn accept_job(&mut self, msg: Result<(JobOutput, Vec<FaultRecord>), JobFailure>) {
        match msg {
            Ok((out, faults)) => {
                let job = out.job;
                let cell = &mut self.cells[job.cell];
                let slot = cell.index(job.plan_idx, job.corr_idx, job.seed_idx);
                debug_assert!(cell.slots[slot].is_none(), "slot filled twice");
                let mut boots = vec![0u64; cell.config_labels.len()];
                for s in &out.samples {
                    boots[s.config] = s.boot_ns;
                }
                cell.slots[slot] = Some(Slot {
                    boots,
                    spans: out.spans,
                    faults,
                });
            }
            Err(fail) => self
                .failures
                .push((fail.job, fail.seed, fail.kind.reason())),
        }
    }

    /// Results accepted so far (filled slots plus failures) — the
    /// service's progress signal for [`crate::FleetService::poll`].
    pub fn accepted(&self) -> usize {
        let filled: usize = self
            .cells
            .iter()
            .map(|c| c.slots.iter().flatten().count())
            .sum();
        filled + self.failures.len()
    }

    /// Deterministic totals of the fault columns across every accepted
    /// boot: `(restarts, recoveries, rejected artifacts)`.
    pub(crate) fn fault_totals(&self) -> (usize, usize, usize) {
        let records = self
            .cells
            .iter()
            .flat_map(|c| c.slots.iter().flatten())
            .flat_map(|s| &s.faults);
        records.fold((0, 0, 0), |(r, v, x), f| {
            (
                r + f.restarts as usize,
                v + f.recoveries as usize,
                x + f.rejected as usize,
            )
        })
    }

    /// The slots and the failures, sorted so their order cannot depend
    /// on scheduling.
    pub(crate) fn into_parts(self) -> (Vec<CellSlots>, Vec<Failure>) {
        let Aggregator {
            cells,
            mut failures,
        } = self;
        failures.sort();
        (cells, failures)
    }

    /// Computes the final report, walking slots in deterministic order.
    pub fn finalize(self) -> SweepReport {
        let (cell_slots, failures) = self.into_parts();
        let failures = failures
            .into_iter()
            .map(|(job, seed, reason)| FailureReport {
                cell: cell_slots[job.cell].label.clone(),
                seed,
                reason,
            })
            .collect();

        let mut total_boots = 0;
        let cells = cell_slots
            .iter()
            .map(|cell| {
                let completed = cell.slots.iter().flatten().count();
                let baseline = cell
                    .config_labels
                    .iter()
                    .position(|l| l == "conventional")
                    .and_then(|ci| mean_of(&cell.samples(ci)));
                let configs = cell
                    .config_labels
                    .iter()
                    .enumerate()
                    .map(|(ci, label)| {
                        // Samples in slot order, skipping failed slots.
                        let samples = cell.samples(ci);
                        total_boots += samples.len();
                        config_stats(label, &samples, label != "conventional", baseline)
                    })
                    .collect();
                CellReport {
                    label: cell.label.clone(),
                    seeds: cell.slots.len(),
                    completed,
                    configs,
                }
            })
            .collect();

        let metrics = metrics_of(&cell_slots);

        SweepReport {
            cells,
            failures,
            total_boots,
            metrics,
        }
    }
}

/// Aggregates span durations across all filled slots, walking cells,
/// configs, and seed slots in deterministic order. `None` when no slot
/// carries span data (metrics collection off).
fn metrics_of(cell_slots: &[CellSlots]) -> Option<MetricsReport> {
    if cell_slots.iter().all(|c| c.spans().next().is_none()) {
        return None;
    }
    let cells = cell_slots
        .iter()
        .map(|cell| CellMetrics {
            label: cell.label.clone(),
            configs: cell
                .config_labels
                .iter()
                .enumerate()
                .map(|(ci, label)| {
                    // Span durations keyed by name, accumulated in slot
                    // order so arrival order cannot leak in.
                    let mut by_span: BTreeMap<&str, Vec<u64>> = BTreeMap::new();
                    for per_config in cell.spans() {
                        for (name, dur) in &per_config[ci] {
                            by_span.entry(name).or_default().push(*dur);
                        }
                    }
                    ConfigMetrics {
                        label: label.clone(),
                        spans: by_span
                            .into_iter()
                            .map(|(name, mut durs)| {
                                durs.sort_unstable();
                                SpanStats {
                                    name: name.to_owned(),
                                    count: durs.len(),
                                    p50_ns: percentile(&durs, 50),
                                    p95_ns: percentile(&durs, 95),
                                    p99_ns: percentile(&durs, 99),
                                }
                            })
                            .collect(),
                    }
                })
                .collect(),
        })
        .collect();
    Some(MetricsReport { cells })
}

fn mean_of(samples: &[u64]) -> Option<f64> {
    if samples.is_empty() {
        None
    } else {
        Some(samples.iter().map(|&n| n as f64).sum::<f64>() / samples.len() as f64)
    }
}

fn config_stats(
    label: &str,
    samples: &[u64],
    compare_to_baseline: bool,
    baseline_mean_ns: Option<f64>,
) -> ConfigStats {
    let count = samples.len();
    if count == 0 {
        return ConfigStats {
            label: label.to_owned(),
            count,
            mean_ns: 0.0,
            stddev_ns: 0.0,
            min_ns: 0,
            max_ns: 0,
            p50_ns: 0,
            p95_ns: 0,
            p99_ns: 0,
            saving_ms: None,
            saving_pct: None,
        };
    }
    let mean_ns = samples.iter().map(|&n| n as f64).sum::<f64>() / count as f64;
    let var = samples
        .iter()
        .map(|&n| {
            let d = n as f64 - mean_ns;
            d * d
        })
        .sum::<f64>()
        / count as f64;
    let mut sorted = samples.to_vec();
    sorted.sort_unstable();
    let (saving_ms, saving_pct) = match baseline_mean_ns {
        Some(base) if compare_to_baseline && base > 0.0 => (
            Some((base - mean_ns) / 1e6),
            Some(100.0 * (1.0 - mean_ns / base)),
        ),
        _ => (None, None),
    };
    ConfigStats {
        label: label.to_owned(),
        count,
        mean_ns,
        stddev_ns: var.sqrt(),
        min_ns: sorted[0],
        max_ns: sorted[count - 1],
        p50_ns: percentile(&sorted, 50),
        p95_ns: percentile(&sorted, 95),
        p99_ns: percentile(&sorted, 99),
        saving_ms,
        saving_pct,
    }
}

/// Nearest-rank percentile on a sorted slice (integer nanoseconds, so
/// no float ambiguity enters the deterministic output); 0 when empty.
pub(crate) fn percentile(sorted: &[u64], p: u32) -> u64 {
    bb_sim::telemetry::percentile_of(sorted, p).unwrap_or(0)
}

/// Aggregated statistics for one config within one cell.
#[derive(Debug, Clone, PartialEq)]
pub struct ConfigStats {
    /// Config label.
    pub label: String,
    /// Completed boots.
    pub count: usize,
    /// Mean boot time, simulated ns.
    pub mean_ns: f64,
    /// Population standard deviation, simulated ns.
    pub stddev_ns: f64,
    /// Fastest boot, simulated ns.
    pub min_ns: u64,
    /// Slowest boot, simulated ns.
    pub max_ns: u64,
    /// Median (nearest-rank), simulated ns.
    pub p50_ns: u64,
    /// 95th percentile (nearest-rank), simulated ns.
    pub p95_ns: u64,
    /// 99th percentile (nearest-rank), simulated ns.
    pub p99_ns: u64,
    /// Mean saving vs the cell's `"conventional"` config, ms.
    pub saving_ms: Option<f64>,
    /// Mean saving vs `"conventional"`, percent.
    pub saving_pct: Option<f64>,
}

/// Aggregated results for one cell.
#[derive(Debug, Clone, PartialEq)]
pub struct CellReport {
    /// Cell label.
    pub label: String,
    /// Seed slots specified.
    pub seeds: usize,
    /// Seed slots that completed (rest failed).
    pub completed: usize,
    /// Per-config statistics, in config order.
    pub configs: Vec<ConfigStats>,
}

/// One failed job in the report.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FailureReport {
    /// Cell label.
    pub cell: String,
    /// Seed that was running.
    pub seed: u64,
    /// Stable reason line (no host-time content).
    pub reason: String,
}

/// Aggregated span statistics for one config within one cell.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpanStats {
    /// Span name (e.g. `unit/dbus.service`, `kernel/driver-probe`).
    pub name: String,
    /// Samples aggregated (one per completed boot emitting the span).
    pub count: usize,
    /// Median duration (nearest-rank), simulated ns.
    pub p50_ns: u64,
    /// 95th percentile duration, simulated ns.
    pub p95_ns: u64,
    /// 99th percentile duration, simulated ns.
    pub p99_ns: u64,
}

/// Span statistics for one config of one cell.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ConfigMetrics {
    /// Config label.
    pub label: String,
    /// Per-span statistics, sorted by span name.
    pub spans: Vec<SpanStats>,
}

/// Span statistics for one cell.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CellMetrics {
    /// Cell label.
    pub label: String,
    /// Per-config statistics, in config order.
    pub configs: Vec<ConfigMetrics>,
}

/// Aggregated telemetry spans across a sweep (`bb-metrics-v1`).
///
/// Built in slot order by [`Aggregator::finalize`], so — like the
/// [`SweepReport`] itself — its JSON form is byte-identical for any
/// worker count.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MetricsReport {
    /// Per-cell span statistics, in spec order.
    pub cells: Vec<CellMetrics>,
}

impl MetricsReport {
    /// Serializes as deterministic JSON stamped `bb-metrics-v1`.
    pub fn to_json(&self) -> String {
        let mut out = json::open_document(json::SCHEMA_METRICS);
        out.push_str("  \"cells\": ");
        json::array(&mut out, 4, &self.cells, |out, cell| {
            out.push_str(&format!(
                "{{\"label\": \"{}\", \"configs\": ",
                json::escape(&cell.label)
            ));
            json::array(out, 6, &cell.configs, |out, c| {
                out.push_str(&format!(
                    "{{\"label\": \"{}\", \"spans\": ",
                    json::escape(&c.label)
                ));
                json::array(out, 8, &c.spans, |out, s| {
                    out.push_str(&format!(
                        "{{\"name\": \"{}\", \"count\": {}, \"p50_ms\": {}, \"p95_ms\": {}, \"p99_ms\": {}}}",
                        json::escape(&s.name),
                        s.count,
                        json::ms(s.p50_ns as f64),
                        json::ms(s.p95_ns as f64),
                        json::ms(s.p99_ns as f64),
                    ));
                });
                out.push('}');
            });
            out.push('}');
        });
        out.push_str("\n}\n");
        out
    }
}

/// The deterministic output of a sweep.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepReport {
    /// Per-cell results, in spec order.
    pub cells: Vec<CellReport>,
    /// Failed jobs, sorted by (cell index, seed index).
    pub failures: Vec<FailureReport>,
    /// Completed boots across all cells.
    pub total_boots: usize,
    /// Aggregated span telemetry; `Some` only when the sweep ran with
    /// [`SweepSpec::with_metrics`](crate::SweepSpec::with_metrics).
    pub metrics: Option<MetricsReport>,
}

impl SweepReport {
    /// Serializes the report as deterministic JSON: fixed key order,
    /// fixed `{:.3}` ms floats, no host-time fields. Byte-identical for
    /// any worker count.
    pub fn to_json(&self) -> String {
        let mut out = json::open_document(json::SCHEMA_FLEET);
        out.push_str("  \"cells\": ");
        json::array(&mut out, 4, &self.cells, |out, cell| {
            out.push_str(&format!(
                "{{\"label\": \"{}\", \"seeds\": {}, \"completed\": {}, \"configs\": ",
                json::escape(&cell.label),
                cell.seeds,
                cell.completed
            ));
            json::array(out, 6, &cell.configs, |out, c| {
                out.push_str(&format!(
                    "{{\"label\": \"{}\", \"count\": {}, \"mean_ms\": {}, \"stddev_ms\": {}, \"min_ms\": {}, \"max_ms\": {}, \"p50_ms\": {}, \"p95_ms\": {}, \"p99_ms\": {}",
                    json::escape(&c.label),
                    c.count,
                    json::ms(c.mean_ns),
                    json::ms(c.stddev_ns),
                    json::ms(c.min_ns as f64),
                    json::ms(c.max_ns as f64),
                    json::ms(c.p50_ns as f64),
                    json::ms(c.p95_ns as f64),
                    json::ms(c.p99_ns as f64),
                ));
                if let (Some(ms), Some(pct)) = (c.saving_ms, c.saving_pct) {
                    out.push_str(&format!(
                        ", \"saving_ms\": {:.3}, \"saving_pct\": {:.3}",
                        ms, pct
                    ));
                }
                out.push('}');
            });
            out.push('}');
        });
        out.push_str(",\n  \"failures\": ");
        json::array(&mut out, 4, &self.failures, |out, f| {
            out.push_str(&format!(
                "{{\"cell\": \"{}\", \"seed\": {}, \"reason\": \"{}\"}}",
                json::escape(&f.cell),
                f.seed,
                json::escape(&f.reason)
            ));
        });
        out.push_str(&format!(",\n  \"total_boots\": {}\n}}\n", self.total_boots));
        out
    }

    /// Human-readable table for terminals.
    pub fn summary(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        for cell in &self.cells {
            let _ = writeln!(
                out,
                "{} ({} of {} seeds completed)",
                cell.label, cell.completed, cell.seeds
            );
            let _ = writeln!(
                out,
                "  {:<16} {:>6} {:>10} {:>9} {:>10} {:>10} {:>10}  saving",
                "config", "boots", "mean", "stddev", "p50", "p95", "p99"
            );
            for c in &cell.configs {
                let saving = match (c.saving_ms, c.saving_pct) {
                    (Some(ms), Some(pct)) => format!("{ms:.0} ms ({pct:.1}%)"),
                    _ => String::new(),
                };
                let _ = writeln!(
                    out,
                    "  {:<16} {:>6} {:>8.0}ms {:>7.1}ms {:>8.0}ms {:>8.0}ms {:>8.0}ms  {}",
                    c.label,
                    c.count,
                    c.mean_ns / 1e6,
                    c.stddev_ns / 1e6,
                    c.p50_ns as f64 / 1e6,
                    c.p95_ns as f64 / 1e6,
                    c.p99_ns as f64 / 1e6,
                    saving
                );
            }
        }
        if !self.failures.is_empty() {
            let _ = writeln!(out, "failures ({}):", self.failures.len());
            for f in &self.failures {
                let _ = writeln!(out, "  {} seed {}: {}", f.cell, f.seed, f.reason);
            }
        }
        let _ = writeln!(out, "total boots aggregated: {}", self.total_boots);
        out
    }

    /// Compares this report against a previously saved JSON baseline.
    /// Entries whose mean drifted more than `tolerance_pct` percent are
    /// flagged as regressions (slower) or improvements (faster).
    pub fn diff_baseline(
        &self,
        baseline_json: &str,
        tolerance_pct: f64,
    ) -> Result<Vec<DiffEntry>, json::JsonError> {
        let baseline = json::parse(baseline_json)?;
        let rows = self.cells.iter().flat_map(|cell| {
            cell.configs
                .iter()
                .map(move |cfg| (cell.label.clone(), cfg.label.clone(), cfg.mean_ns / 1e6))
        });
        diff_rows(rows, &baseline, tolerance_pct)
    }
}

/// Compares a saved `bb-fleet-v1` document against a baseline document
/// without reconstructing the report — what `bbsim submit --baseline`
/// runs on the streamed artifact. Means are read back from the
/// document's fixed `{:.3}` formatting, so a verdict sitting exactly
/// on the tolerance edge can differ from the in-process
/// [`SweepReport::diff_baseline`] by one rounding ulp.
pub fn diff_baseline_json(
    current_json: &str,
    baseline_json: &str,
    tolerance_pct: f64,
) -> Result<Vec<DiffEntry>, json::JsonError> {
    let current = json::parse(current_json)?;
    let baseline = json::parse(baseline_json)?;
    let cells = current
        .get("cells")
        .and_then(Json::as_arr)
        .ok_or(json::JsonError {
            pos: 0,
            msg: "report has no cells array".into(),
        })?;
    let mut rows = Vec::new();
    for cell in cells {
        let label = cell
            .get("label")
            .and_then(Json::as_str)
            .unwrap_or_default()
            .to_owned();
        for cfg in cell.get("configs").and_then(Json::as_arr).unwrap_or(&[]) {
            let cfg_label = cfg
                .get("label")
                .and_then(Json::as_str)
                .unwrap_or_default()
                .to_owned();
            let mean_ms = cfg.get("mean_ms").and_then(Json::as_f64).unwrap_or(0.0);
            rows.push((label.clone(), cfg_label, mean_ms));
        }
    }
    diff_rows(rows.into_iter(), &baseline, tolerance_pct)
}

/// The shared comparison: each row is `(cell label, config label,
/// current mean ms)`, looked up against the baseline document's cells.
fn diff_rows(
    rows: impl Iterator<Item = (String, String, f64)>,
    baseline: &Json,
    tolerance_pct: f64,
) -> Result<Vec<DiffEntry>, json::JsonError> {
    let cells = baseline
        .get("cells")
        .and_then(Json::as_arr)
        .ok_or(json::JsonError {
            pos: 0,
            msg: "baseline has no cells array".into(),
        })?;
    let mut diffs = Vec::new();
    for (cell_label, cfg_label, current_ms) in rows {
        let base_mean_ms = cells
            .iter()
            .find(|c| c.get("label").and_then(Json::as_str) == Some(cell_label.as_str()))
            .and_then(|bc| bc.get("configs"))
            .and_then(Json::as_arr)
            .and_then(|cfgs| {
                cfgs.iter()
                    .find(|c| c.get("label").and_then(Json::as_str) == Some(cfg_label.as_str()))
            })
            .and_then(|c| c.get("mean_ms"))
            .and_then(Json::as_f64);
        diffs.push(match base_mean_ms {
            None => DiffEntry {
                cell: cell_label,
                config: cfg_label,
                baseline_ms: None,
                current_ms,
                delta_pct: None,
                verdict: DiffVerdict::NewCell,
            },
            Some(base) => {
                let delta_pct = if base > 0.0 {
                    100.0 * (current_ms - base) / base
                } else {
                    0.0
                };
                let verdict = if delta_pct > tolerance_pct {
                    DiffVerdict::Regression
                } else if delta_pct < -tolerance_pct {
                    DiffVerdict::Improvement
                } else {
                    DiffVerdict::Unchanged
                };
                DiffEntry {
                    cell: cell_label,
                    config: cfg_label,
                    baseline_ms: Some(base),
                    current_ms,
                    delta_pct: Some(delta_pct),
                    verdict,
                }
            }
        });
    }
    Ok(diffs)
}

/// How one (cell, config) mean compares against the baseline.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DiffVerdict {
    /// Within tolerance.
    Unchanged,
    /// Slower than baseline beyond tolerance.
    Regression,
    /// Faster than baseline beyond tolerance.
    Improvement,
    /// Not present in the baseline.
    NewCell,
}

/// One row of a baseline comparison.
#[derive(Debug, Clone, PartialEq)]
pub struct DiffEntry {
    /// Cell label.
    pub cell: String,
    /// Config label.
    pub config: String,
    /// Baseline mean, ms (None if the baseline lacks this entry).
    pub baseline_ms: Option<f64>,
    /// Current mean, ms.
    pub current_ms: f64,
    /// Relative drift, percent (None if no baseline entry).
    pub delta_pct: Option<f64>,
    /// Classification at the requested tolerance.
    pub verdict: DiffVerdict,
}

impl std::fmt::Display for DiffEntry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}/{}: ", self.cell, self.config)?;
        match (self.baseline_ms, self.delta_pct) {
            (Some(base), Some(delta)) => write!(
                f,
                "{:.1} -> {:.1} ms ({:+.2}%) {:?}",
                base, self.current_ms, delta, self.verdict
            ),
            _ => write!(f, "{:.1} ms (no baseline)", self.current_ms),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pool::{BootSample, FailureKind};
    use crate::spec::tests::tiny_cell;

    fn two_seed_spec() -> SweepSpec {
        SweepSpec::new().cell(tiny_cell("cell-a").seeds([5, 6]).conventional_vs_bb())
    }

    fn job(cell: usize, seed_idx: usize) -> Job {
        Job {
            cell,
            plan_idx: 0,
            corr_idx: 0,
            seed_idx,
        }
    }

    fn output(cell: usize, seed_idx: usize, seed: u64, boots: &[u64]) -> JobOutput {
        JobOutput {
            job: job(cell, seed_idx),
            seed,
            samples: boots
                .iter()
                .enumerate()
                .map(|(config, &boot_ns)| BootSample {
                    config,
                    boot_ns,
                    quiesce_ns: boot_ns,
                })
                .collect(),
            spans: Vec::new(),
            kernel_sims: 0,
            peak_events: 0,
            deduped: 0,
            elapsed: std::time::Duration::ZERO,
        }
    }

    #[test]
    fn aggregation_is_order_independent() {
        let spec = two_seed_spec();
        let mut a = Aggregator::new(&spec);
        a.accept(Ok(output(0, 0, 5, &[8_000_000_000, 3_000_000_000])));
        a.accept(Ok(output(0, 1, 6, &[9_000_000_000, 3_500_000_000])));
        let mut b = Aggregator::new(&spec);
        b.accept(Ok(output(0, 1, 6, &[9_000_000_000, 3_500_000_000])));
        b.accept(Ok(output(0, 0, 5, &[8_000_000_000, 3_000_000_000])));
        let (ra, rb) = (a.finalize(), b.finalize());
        assert_eq!(ra, rb);
        assert_eq!(ra.to_json(), rb.to_json());
    }

    #[test]
    fn stats_and_savings_compute() {
        let spec = two_seed_spec();
        let mut agg = Aggregator::new(&spec);
        agg.accept(Ok(output(0, 0, 5, &[8_000_000_000, 3_000_000_000])));
        agg.accept(Ok(output(0, 1, 6, &[10_000_000_000, 3_000_000_000])));
        let report = agg.finalize();
        let conv = &report.cells[0].configs[0];
        let bb = &report.cells[0].configs[1];
        assert_eq!(conv.count, 2);
        assert_eq!(conv.mean_ns, 9.0e9);
        assert_eq!(conv.stddev_ns, 1.0e9);
        assert_eq!(conv.min_ns, 8_000_000_000);
        assert_eq!(conv.max_ns, 10_000_000_000);
        assert_eq!(conv.p50_ns, 8_000_000_000);
        assert_eq!(conv.p99_ns, 10_000_000_000);
        assert!(conv.saving_ms.is_none(), "baseline has no saving vs itself");
        assert_eq!(bb.saving_ms, Some(6000.0));
        let pct = bb.saving_pct.unwrap();
        assert!((pct - 66.666).abs() < 0.01, "{pct}");
    }

    #[test]
    fn failures_sort_deterministically_and_keep_slots_empty() {
        let spec = two_seed_spec();
        let mut agg = Aggregator::new(&spec);
        agg.accept(Err(JobFailure {
            job: job(0, 1),
            seed: 6,
            kind: FailureKind::Panic("boom".into()),
        }));
        agg.accept(Ok(output(0, 0, 5, &[8_000_000_000, 3_000_000_000])));
        let report = agg.finalize();
        assert_eq!(report.cells[0].completed, 1);
        assert_eq!(report.failures.len(), 1);
        assert_eq!(report.failures[0].reason, "panic: boom");
        assert_eq!(report.total_boots, 2);
    }

    #[test]
    fn json_output_parses_back() {
        let spec = two_seed_spec();
        let mut agg = Aggregator::new(&spec);
        agg.accept(Ok(output(0, 0, 5, &[8_000_000_000, 3_000_000_000])));
        agg.accept(Ok(output(0, 1, 6, &[9_000_000_000, 3_200_000_000])));
        let report = agg.finalize();
        let parsed = json::parse(&report.to_json()).expect("sweep JSON parses");
        assert_eq!(
            parsed.get("schema").and_then(Json::as_str),
            Some("bb-fleet-v1")
        );
        assert_eq!(parsed.get("total_boots").and_then(Json::as_f64), Some(4.0));
        let cells = parsed.get("cells").and_then(Json::as_arr).unwrap();
        assert_eq!(cells.len(), 1);
        let mean = cells[0].get("configs").and_then(Json::as_arr).unwrap()[0]
            .get("mean_ms")
            .and_then(Json::as_f64)
            .unwrap();
        assert!((mean - 8500.0).abs() < 0.001);
    }

    #[test]
    fn baseline_diff_classifies_drift() {
        let spec = two_seed_spec();
        let mut agg = Aggregator::new(&spec);
        agg.accept(Ok(output(0, 0, 5, &[8_000_000_000, 3_000_000_000])));
        agg.accept(Ok(output(0, 1, 6, &[9_000_000_000, 3_200_000_000])));
        let report = agg.finalize();
        let baseline = report.to_json();

        // Same data → everything unchanged.
        let diffs = report.diff_baseline(&baseline, 1.0).unwrap();
        assert!(diffs.iter().all(|d| d.verdict == DiffVerdict::Unchanged));

        // A much faster baseline → we look like a regression.
        let fast = baseline.replace("\"mean_ms\": 8500.000", "\"mean_ms\": 4000.000");
        let diffs = report.diff_baseline(&fast, 1.0).unwrap();
        assert_eq!(diffs[0].verdict, DiffVerdict::Regression);
        assert!(diffs[0].to_string().contains('%'));

        // Unknown baseline cell → NewCell.
        let diffs = report.diff_baseline("{\"cells\": []}", 1.0).unwrap();
        assert!(diffs.iter().all(|d| d.verdict == DiffVerdict::NewCell));

        // Garbage baseline → error.
        assert!(report.diff_baseline("not json", 1.0).is_err());
    }

    #[test]
    fn span_metrics_aggregate_in_slot_order() {
        let spec = two_seed_spec();
        let with_spans = |mut out: JobOutput, ns: u64| {
            out.spans = vec![
                vec![("unit/a.service".to_owned(), ns)],
                vec![("unit/a.service".to_owned(), ns / 2)],
            ];
            out
        };
        let mut a = Aggregator::new(&spec);
        a.accept(Ok(with_spans(
            output(0, 0, 5, &[8e9 as u64, 3e9 as u64]),
            100,
        )));
        a.accept(Ok(with_spans(
            output(0, 1, 6, &[9e9 as u64, 4e9 as u64]),
            200,
        )));
        let mut b = Aggregator::new(&spec);
        b.accept(Ok(with_spans(
            output(0, 1, 6, &[9e9 as u64, 4e9 as u64]),
            200,
        )));
        b.accept(Ok(with_spans(
            output(0, 0, 5, &[8e9 as u64, 3e9 as u64]),
            100,
        )));
        let (ra, rb) = (a.finalize(), b.finalize());

        // Same metrics (and bytes) regardless of arrival order.
        assert_eq!(ra.metrics, rb.metrics);
        let m = ra.metrics.as_ref().expect("span data present");
        assert_eq!(m.to_json(), rb.metrics.as_ref().unwrap().to_json());
        let conv = &m.cells[0].configs[0].spans[0];
        assert_eq!(
            (conv.name.as_str(), conv.count, conv.p50_ns, conv.p99_ns),
            ("unit/a.service", 2, 100, 200)
        );

        // The metrics document is stamped and parses back.
        let parsed = json::parse(&m.to_json()).expect("metrics JSON parses");
        assert_eq!(
            parsed.get("schema").and_then(Json::as_str),
            Some("bb-metrics-v1")
        );

        // No span data → no metrics report.
        let mut plain = Aggregator::new(&spec);
        plain.accept(Ok(output(0, 0, 5, &[8e9 as u64, 3e9 as u64])));
        assert!(plain.finalize().metrics.is_none());
    }

    #[test]
    fn supervised_slots_carry_fault_columns_in_plan_order() {
        // Two fault plans x one seed: slots are addressed by plan, and
        // the fault columns ride beside the boot samples.
        let cell = tiny_cell("cell-a").seeds([5]).fault_plans(1, 100);
        let mut agg = Aggregator::new(&SweepSpec::new().cell(cell.conventional_vs_bb()));
        let fault = |restarts, degraded: Option<&str>| FaultRecord {
            restarts,
            degraded: degraded.map(str::to_owned),
            recoveries: 1,
            rejected: 1,
            ..FaultRecord::default()
        };
        let mut plan1 = output(0, 0, 5, &[9_000_000_000, 4_000_000_000]);
        plan1.job.plan_idx = 1;
        agg.accept_job(Ok((plan1, vec![fault(2, None), fault(0, Some("late"))])));
        let failure = (job(0, 0), 5, "panic: boom".to_owned());
        agg.accept(Err(JobFailure {
            job: failure.0,
            seed: 5,
            kind: FailureKind::Panic("boom".into()),
        }));
        assert_eq!((agg.accepted(), agg.fault_totals()), (2, (2, 2, 2)));
        let (cells, failures) = agg.into_parts();
        assert_eq!(failures, [failure]);
        assert!(
            cells[0].seed_slots(0, 0)[0].is_none(),
            "control slot failed"
        );
        let filled = cells[0].seed_slots(1, 0)[0]
            .as_ref()
            .expect("plan 1 landed");
        assert_eq!(filled.boots, [9_000_000_000, 4_000_000_000]);
        assert_eq!(filled.faults[1].degraded.as_deref(), Some("late"));
    }

    #[test]
    fn percentiles_use_nearest_rank() {
        let sorted: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile(&sorted, 50), 50);
        assert_eq!(percentile(&sorted, 95), 95);
        assert_eq!(percentile(&sorted, 99), 99);
        assert_eq!(percentile(&[42], 99), 42);
    }
}
