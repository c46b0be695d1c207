//! The chaos view (`bb-fleet-chaos-v2`) of a boot grid.
//!
//! A chaos sweep measures the *failure envelope* the paper's deployment
//! story depends on: with faults injected into every boot, how often
//! does supervision (`Restart=`, start limits) recover the fast path,
//! how often does the BB→conventional fallback fire, and what does boot
//! time under fault look like? It is an ordinary [`SweepSpec`] whose
//! cells set the optional axes of [`crate::CellSpec`]: a fault-plan
//! axis (`None` is the fault-free control, `Some(seed)` a seeded
//! [`bb_sim::FaultPlan`] over the scenario's own fault targets, so the
//! same plan seed means the same faults for every config — the ablation
//! comparison stays paired), a corruption axis (`None` is the pristine
//! control, `Some(seed)` damages the scenario's encoded pre-parse blob
//! and makes its read transiently flaky, driving the boot through
//! [`bb_core::recovery`]), a [`crate::Supervision`] overlay, and a
//! [`bb_core::FallbackPolicy`] supervisor.
//!
//! The grid runs on the same service, job runner, and [`Aggregator`]
//! as a plain sweep; this module only renders the slots: per-config
//! statistics carry restart, degraded-boot, recovery, and artifact
//! rejection counts plus recovery-cost percentiles, and notable
//! per-boot events surface each degraded boot's
//! [`bb_core::FallbackReason`]. Statistics and events are derived in
//! slot order, so the JSON report is byte-identical for any worker
//! count.

use std::sync::Arc;

use crate::aggregate::{percentile, Aggregator, FaultRecord};
use crate::json;
use crate::pool::{run_grid, FailureKind, FleetCache, PoolConfig, PoolStats};
use crate::service::{ServiceReport, WorkItem};
use crate::spec::SweepSpec;

/// Aggregated statistics for one `(cell, plan, corruption, config)`.
#[derive(Debug, Clone, PartialEq)]
pub struct ChaosConfigStats {
    /// Config label.
    pub label: String,
    /// Completed boots (degraded ones included — they completed via the
    /// fallback).
    pub count: usize,
    /// Mean user-visible boot time, simulated ns.
    pub mean_ns: f64,
    /// Median (nearest-rank), simulated ns.
    pub p50_ns: u64,
    /// 95th percentile, simulated ns.
    pub p95_ns: u64,
    /// 99th percentile, simulated ns.
    pub p99_ns: u64,
    /// Boots that fell back to the conventional shape.
    pub degraded: usize,
    /// Boots that crashed but recovered on the fast path (restarts > 0,
    /// no fallback).
    pub recovered: usize,
    /// Total supervised respawns.
    pub restarts: u64,
    /// Artifact recovery events across these boots (retried reads
    /// included; see [`bb_core::recovery`]).
    pub recoveries: u64,
    /// Artifacts the integrity chain rejected outright.
    pub artifacts_rejected: u64,
    /// Median priced recovery cost over recovering boots, simulated ns
    /// (0 when no boot recovered).
    pub recovery_cost_p50_ns: u64,
    /// 95th percentile priced recovery cost over recovering boots.
    pub recovery_cost_p95_ns: u64,
}

impl ChaosConfigStats {
    /// Degraded-boot rate over completed boots.
    fn degraded_rate(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.degraded as f64 / self.count as f64
        }
    }

    /// Of the boots a fault actually hit (recovered or degraded), the
    /// fraction supervision rescued without a fallback.
    fn recovery_rate(&self) -> f64 {
        let hit = self.recovered + self.degraded;
        if hit == 0 {
            1.0
        } else {
            self.recovered as f64 / hit as f64
        }
    }

    /// Fraction of boots whose artifact the integrity chain rejected
    /// (every one of them still completed, via re-parse or cold boot).
    fn artifact_rejection_rate(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.artifacts_rejected as f64 / self.count as f64
        }
    }
}

/// Aggregated results for one corruption slot within one plan.
#[derive(Debug, Clone, PartialEq)]
pub struct ChaosCorruptionReport {
    /// Corruption label (`pristine` or `corrupt-<seed>`).
    pub label: String,
    /// Per-config statistics, in config order.
    pub configs: Vec<ChaosConfigStats>,
}

/// Aggregated results for one fault plan within one cell.
#[derive(Debug, Clone, PartialEq)]
pub struct ChaosPlanReport {
    /// Plan label (`none` or `plan-<seed>`).
    pub label: String,
    /// Per-corruption results, in corruption-slot order.
    pub corruptions: Vec<ChaosCorruptionReport>,
}

/// Aggregated results for one chaos cell.
#[derive(Debug, Clone, PartialEq)]
pub struct ChaosCellReport {
    /// Cell label.
    pub label: String,
    /// Per-plan results, in plan order.
    pub plans: Vec<ChaosPlanReport>,
}

/// One notable per-boot event (degraded, fault-recovered, or
/// artifact-rejected) or one failed job.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ChaosEvent {
    /// Cell label.
    pub cell: String,
    /// Plan label.
    pub plan: String,
    /// Corruption label.
    pub corruption: String,
    /// Scenario seed.
    pub seed: u64,
    /// Stable reason line (a [`FailureKind`] rendering; degraded boots
    /// append their [`bb_core::FallbackReason`]).
    pub reason: String,
}

/// The deterministic output of a chaos sweep.
#[derive(Debug, Clone, PartialEq)]
pub struct ChaosReport {
    /// Per-cell results, in spec order.
    pub cells: Vec<ChaosCellReport>,
    /// Notable events (degraded / recovered boots), in slot order.
    pub events: Vec<ChaosEvent>,
    /// Failed jobs, sorted by (cell, plan, corruption, seed).
    pub failures: Vec<ChaosEvent>,
    /// Completed boots across all cells.
    pub total_boots: usize,
}

impl ChaosReport {
    /// Deterministic JSON: fixed key order, `{:.3}` ms floats, no
    /// host-time fields. Byte-identical for any worker count.
    pub fn to_json(&self) -> String {
        let mut out = json::open_document(json::SCHEMA_CHAOS);
        out.push_str("  \"cells\": ");
        json::array(&mut out, 4, &self.cells, |out, cell| {
            out.push_str(&labeled(&cell.label, "plans"));
            json::array(out, 6, &cell.plans, |out, plan| {
                out.push_str(&labeled(&plan.label, "corruptions"));
                json::array(out, 8, &plan.corruptions, |out, corr| {
                    out.push_str(&labeled(&corr.label, "configs"));
                    json::array(out, 10, &corr.configs, |out, c| {
                        out.push_str(&format!(
                            "{{\"label\": \"{}\", \"count\": {}, \"mean_ms\": {}, \"p50_ms\": {}, \"p95_ms\": {}, \"p99_ms\": {}, \"degraded\": {}, \"degraded_pct\": {:.3}, \"recovered\": {}, \"recovery_pct\": {:.3}, \"restarts\": {}, \"recoveries\": {}, \"artifacts_rejected\": {}, \"rejected_pct\": {:.3}, \"recovery_cost_p50_ms\": {}, \"recovery_cost_p95_ms\": {}}}",
                            json::escape(&c.label),
                            c.count,
                            json::ms(c.mean_ns),
                            json::ms(c.p50_ns as f64),
                            json::ms(c.p95_ns as f64),
                            json::ms(c.p99_ns as f64),
                            c.degraded,
                            100.0 * c.degraded_rate(),
                            c.recovered,
                            100.0 * c.recovery_rate(),
                            c.restarts,
                            c.recoveries,
                            c.artifacts_rejected,
                            100.0 * c.artifact_rejection_rate(),
                            json::ms(c.recovery_cost_p50_ns as f64),
                            json::ms(c.recovery_cost_p95_ns as f64),
                        ));
                    });
                    out.push('}');
                });
                out.push('}');
            });
            out.push('}');
        });
        for (key, list) in [("events", &self.events), ("failures", &self.failures)] {
            out.push_str(&format!(",\n  \"{key}\": "));
            json::array(&mut out, 4, list, |out, e| {
                out.push_str(&format!(
                    "{{\"cell\": \"{}\", \"plan\": \"{}\", \"corruption\": \"{}\", \"seed\": {}, \"reason\": \"{}\"}}",
                    json::escape(&e.cell),
                    json::escape(&e.plan),
                    json::escape(&e.corruption),
                    e.seed,
                    json::escape(&e.reason)
                ));
            });
        }
        out.push_str(&format!(",\n  \"total_boots\": {}\n}}\n", self.total_boots));
        out
    }

    /// Human-readable table for terminals.
    pub fn summary(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        for cell in &self.cells {
            let _ = writeln!(out, "{}", cell.label);
            for plan in &cell.plans {
                for corr in &plan.corruptions {
                    let _ = writeln!(out, "  plan {} × {}", plan.label, corr.label);
                    let _ = writeln!(
                        out,
                        "    {:<16} {:>6} {:>10} {:>10} {:>10} {:>9} {:>9} {:>9} {:>9} {:>11}",
                        "config",
                        "boots",
                        "mean",
                        "p95",
                        "p99",
                        "degraded",
                        "recovered",
                        "restarts",
                        "rejected",
                        "recov p95"
                    );
                    for c in &corr.configs {
                        let _ = writeln!(
                            out,
                            "    {:<16} {:>6} {:>8.0}ms {:>8.0}ms {:>8.0}ms {:>8.1}% {:>8.1}% {:>9} {:>8.1}% {:>9.1}ms",
                            c.label,
                            c.count,
                            c.mean_ns / 1e6,
                            c.p95_ns as f64 / 1e6,
                            c.p99_ns as f64 / 1e6,
                            100.0 * c.degraded_rate(),
                            100.0 * c.recovery_rate(),
                            c.restarts,
                            100.0 * c.artifact_rejection_rate(),
                            c.recovery_cost_p95_ns as f64 / 1e6,
                        );
                    }
                }
            }
        }
        if !self.failures.is_empty() {
            let _ = writeln!(out, "failures ({}):", self.failures.len());
            for f in &self.failures {
                let _ = writeln!(
                    out,
                    "  {} {} {} seed {}: {}",
                    f.cell, f.plan, f.corruption, f.seed, f.reason
                );
            }
        }
        let _ = writeln!(out, "total boots aggregated: {}", self.total_boots);
        out
    }
}

/// Opens a labeled object whose last key, `list`, holds an array.
fn labeled(label: &str, list: &str) -> String {
    format!("{{\"label\": \"{}\", \"{list}\": ", json::escape(label))
}

/// Everything a chaos sweep returns.
#[derive(Debug, Clone)]
pub struct ChaosOutcome {
    /// Aggregated, deterministic results (JSON-stable).
    pub report: ChaosReport,
    /// Pool observability (host-time, nondeterministic) — plus the
    /// deterministic restart and recovery totals.
    pub stats: PoolStats,
}

/// Runs `spec` to completion on a private one-shot
/// [`crate::FleetService`] of `pool.workers` threads over `cache`, and
/// reports it through the chaos view — [`crate::run_sweep`]'s twin.
/// Output is byte-identical for any worker count. Supervised cells
/// leave the cache alone; plain cells share it as in a sweep.
/// Long-lived callers wanting `submit`/`poll`/`cancel` should hold a
/// [`crate::FleetService`] and submit [`WorkItem::Chaos`] tickets
/// instead.
pub fn run_chaos(spec: &SweepSpec, pool: &PoolConfig, cache: &Arc<FleetCache>) -> ChaosOutcome {
    match run_grid(WorkItem::Chaos(spec.clone()), pool, cache) {
        ServiceReport::Chaos(outcome) => outcome,
        ServiceReport::Sweep(_) => unreachable!("chaos tickets finalize into chaos reports"),
    }
}

fn plan_label(plan_seed: Option<u64>) -> String {
    match plan_seed {
        None => "none".to_owned(),
        Some(s) => format!("plan-{s}"),
    }
}

fn corr_label(corr_seed: Option<u64>) -> String {
    match corr_seed {
        None => "pristine".to_owned(),
        Some(s) => format!("corrupt-{s}"),
    }
}

/// Derives the chaos report from a finished grid's slots, walking them
/// in deterministic `(cell, plan, corruption, config)` order.
pub(crate) fn view(agg: Aggregator) -> ChaosReport {
    let (cell_slots, failures) = agg.into_parts();
    // The fault columns of a boot from a plain cell.
    let no_faults = FaultRecord::default();
    let mut total_boots = 0;
    let mut events = Vec::new();
    let mut cells = Vec::new();
    for cell in &cell_slots {
        let mut plans = Vec::new();
        for (pi, &plan_seed) in cell.plan_seeds.iter().enumerate() {
            let plan = plan_label(plan_seed);
            let mut corruptions = Vec::new();
            for (qi, &corr_seed) in cell.corruption_seeds.iter().enumerate() {
                let corruption = corr_label(corr_seed);
                let slots = cell.seed_slots(pi, qi);
                let mut configs = Vec::new();
                for (ki, label) in cell.config_labels.iter().enumerate() {
                    let samples: Vec<(u64, &FaultRecord)> = slots
                        .iter()
                        .flatten()
                        .map(|s| (s.boots[ki], s.faults.get(ki).unwrap_or(&no_faults)))
                        .collect();
                    total_boots += samples.len();
                    configs.push(config_stats(label, &samples));
                }
                // Notable per-boot events, in (seed, config) slot order.
                for (si, slot) in slots.iter().enumerate() {
                    let Some(slot) = slot else { continue };
                    for (ki, f) in slot.faults.iter().enumerate() {
                        let config = cell.config_labels[ki].clone();
                        let mut push = |reason: String| {
                            events.push(ChaosEvent {
                                cell: cell.label.clone(),
                                plan: plan.clone(),
                                corruption: corruption.clone(),
                                seed: cell.seeds[si],
                                reason,
                            });
                        };
                        if f.rejected > 0 {
                            let kind = FailureKind::ArtifactRejected {
                                config: config.clone(),
                                detail: f.rejection.clone().unwrap_or_default(),
                            };
                            push(kind.reason());
                        }
                        if let Some(fb) = &f.degraded {
                            let kind = FailureKind::Degraded { config };
                            push(format!("{} ({fb})", kind.reason()));
                        } else if f.restarts > 0 {
                            let kind = FailureKind::FaultRecovered {
                                config,
                                restarts: f.restarts,
                            };
                            push(kind.reason());
                        }
                    }
                }
                corruptions.push(ChaosCorruptionReport {
                    label: corruption,
                    configs,
                });
            }
            plans.push(ChaosPlanReport {
                label: plan,
                corruptions,
            });
        }
        cells.push(ChaosCellReport {
            label: cell.label.clone(),
            plans,
        });
    }
    let failures = failures
        .into_iter()
        .map(|(job, seed, reason)| {
            let cell = &cell_slots[job.cell];
            ChaosEvent {
                cell: cell.label.clone(),
                plan: plan_label(cell.plan_seeds[job.plan_idx]),
                corruption: corr_label(cell.corruption_seeds[job.corr_idx]),
                seed,
                reason,
            }
        })
        .collect();
    ChaosReport {
        cells,
        events,
        failures,
        total_boots,
    }
}

/// Statistics for one `(cell, plan, corruption, config)` over its
/// completed boots, in seed order.
fn config_stats(label: &str, samples: &[(u64, &FaultRecord)]) -> ChaosConfigStats {
    let mut sorted: Vec<u64> = samples.iter().map(|&(ns, _)| ns).collect();
    sorted.sort_unstable();
    let count = samples.len();
    let faults = || samples.iter().map(|&(_, f)| f);
    // Recovery-cost percentiles over the boots that actually recovered
    // something.
    let mut costs: Vec<u64> = faults()
        .filter(|f| f.recoveries > 0)
        .map(|f| f.cost_ns)
        .collect();
    costs.sort_unstable();
    ChaosConfigStats {
        label: label.to_owned(),
        count,
        mean_ns: if count == 0 {
            0.0
        } else {
            sorted.iter().map(|&n| n as f64).sum::<f64>() / count as f64
        },
        p50_ns: percentile(&sorted, 50),
        p95_ns: percentile(&sorted, 95),
        p99_ns: percentile(&sorted, 99),
        degraded: faults().filter(|f| f.degraded.is_some()).count(),
        recovered: faults()
            .filter(|f| f.degraded.is_none() && f.restarts > 0)
            .count(),
        restarts: faults().map(|f| u64::from(f.restarts)).sum(),
        recoveries: faults().map(|f| u64::from(f.recoveries)).sum(),
        artifacts_rejected: faults().map(|f| u64::from(f.rejected)).sum(),
        recovery_cost_p50_ns: percentile(&costs, 50),
        recovery_cost_p95_ns: percentile(&costs, 95),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::tests::tiny_cell;
    use crate::spec::{CellSpec, Supervision};
    use bb_core::{BbConfig, FallbackPolicy};

    /// Arms the default supervision overlay and fallback supervisor.
    fn supervised(cell: CellSpec) -> CellSpec {
        cell.supervision(Some(Supervision::default()))
            .fallback(FallbackPolicy::default())
    }

    /// A small supervised cell.
    fn tiny() -> CellSpec {
        supervised(tiny_cell("tiny").seeds([1, 2]))
    }

    fn tiny_chaos(plans: u64) -> SweepSpec {
        SweepSpec::new().cell(tiny().fault_plans(plans, 100).conventional_vs_bb())
    }

    fn tiny_corruption(corruptions: u64) -> SweepSpec {
        SweepSpec::new().cell(
            tiny()
                .corruption_plans(corruptions, 500)
                .conventional_vs_bb(),
        )
    }

    fn run(spec: &SweepSpec, workers: usize) -> ChaosOutcome {
        run_chaos(
            spec,
            &PoolConfig::with_workers(workers),
            &FleetCache::fresh(),
        )
    }

    #[test]
    fn chaos_sweep_completes_the_grid() {
        let spec = tiny_chaos(2);
        assert_eq!(spec.total_boots(), 2 * 3 * 2);
        let outcome = run(&spec, 2);
        assert!(outcome.report.failures.is_empty(), "no job should fail");
        assert_eq!(outcome.report.total_boots, 12);
        let cell = &outcome.report.cells[0];
        assert_eq!(cell.plans.len(), 3);
        assert_eq!(cell.plans[0].label, "none");
        assert_eq!(cell.plans[0].corruptions.len(), 1);
        assert_eq!(cell.plans[0].corruptions[0].label, "pristine");
        // The control plan is fault-free and the control corruption
        // slot supplies no artifact: nothing degrades, restarts, or
        // recovers.
        for c in &cell.plans[0].corruptions[0].configs {
            assert_eq!(c.degraded, 0);
            assert_eq!(c.restarts, 0);
            assert_eq!(c.recovery_rate(), 1.0);
            assert_eq!(c.recoveries, 0);
            assert_eq!(c.artifacts_rejected, 0);
        }
    }

    #[test]
    fn chaos_json_is_identical_across_worker_counts() {
        let spec = tiny_chaos(2);
        let one = run(&spec, 1);
        let three = run(&spec, 3);
        assert_eq!(one.report, three.report);
        assert_eq!(one.report.to_json(), three.report.to_json());
        assert_eq!(one.stats.restarts, three.stats.restarts);
    }

    #[test]
    fn corruption_sweep_json_is_identical_across_worker_counts() {
        let spec = tiny_corruption(3);
        let one = run(&spec, 1);
        let four = run(&spec, 4);
        assert_eq!(one.report, four.report);
        assert_eq!(one.report.to_json(), four.report.to_json());
        assert_eq!(one.stats.recoveries, four.stats.recoveries);
        assert_eq!(one.stats.artifacts_rejected, four.stats.artifacts_rejected);
    }

    #[test]
    fn chaos_json_parses_and_carries_the_schema() {
        let spec = tiny_chaos(1);
        let outcome = run(&spec, 2);
        let parsed = crate::json::parse(&outcome.report.to_json()).expect("chaos JSON parses");
        assert_eq!(
            parsed.get("schema").and_then(crate::json::Json::as_str),
            Some("bb-fleet-chaos-v2")
        );
        assert_eq!(
            parsed
                .get("total_boots")
                .and_then(crate::json::Json::as_f64),
            Some(8.0)
        );
    }

    #[test]
    fn seeded_plans_inject_observable_faults() {
        // Across a handful of plan seeds, at least one boot must show a
        // fault symptom (a restart, a degraded boot, or a slower boot
        // than the control) — otherwise the injection axis is dead.
        let spec = tiny_chaos(4);
        let outcome = run(&spec, 2);
        let cell = &outcome.report.cells[0];
        let control_mean: f64 = cell.plans[0].corruptions[0]
            .configs
            .iter()
            .map(|c| c.mean_ns)
            .sum();
        let symptom = cell.plans[1..].iter().any(|p| {
            p.corruptions[0]
                .configs
                .iter()
                .any(|c| c.restarts > 0 || c.degraded > 0 || c.mean_ns > control_mean)
        });
        assert!(symptom, "no fault plan produced any observable symptom");
    }

    #[test]
    fn corruption_axis_never_fails_a_boot_and_prices_recoveries() {
        // Seeded corruption must never lose a sample: every damaged
        // artifact either survives validation, is retried, or is
        // rejected and the boot re-parses — no panics, no failures.
        let spec = tiny_corruption(4);
        assert_eq!(spec.total_boots(), 2 * 5 * 2);
        let outcome = run(&spec, 2);
        assert!(outcome.report.failures.is_empty(), "no job should fail");
        assert_eq!(outcome.report.total_boots, 20);

        let plan = &outcome.report.cells[0].plans[0];
        assert_eq!(plan.corruptions.len(), 5);
        // Conventional boots never consult the artifact, so the
        // integrity chain must never bill them a recovery.
        for corr in &plan.corruptions {
            let conv = &corr.configs[0];
            assert_eq!(conv.label, "conventional");
            assert_eq!(conv.recoveries, 0);
            assert_eq!(conv.artifacts_rejected, 0);
        }
        // Across the seeded slots, at least one BB boot must hit the
        // recovery chain — otherwise the corruption axis is dead.
        let bb_recoveries: u64 = plan.corruptions[1..]
            .iter()
            .map(|corr| corr.configs[1].recoveries)
            .sum();
        assert!(bb_recoveries > 0, "no corruption plan triggered recovery");
        // Every rejection is priced: the p95 recovery cost over slots
        // with a rejection must be nonzero.
        for corr in &plan.corruptions[1..] {
            let bb = &corr.configs[1];
            if bb.artifacts_rejected > 0 {
                assert!(
                    bb.recovery_cost_p95_ns > 0,
                    "rejected artifact recoveries must carry a cost"
                );
            }
        }
    }

    #[test]
    fn rejected_artifacts_land_on_the_reparse_timeline() {
        // The acceptance property at sweep scale: a boot whose artifact
        // the chain rejects re-parses and lands on the *same simulated
        // timeline* as a BB boot that never had the cache (the artifact
        // read and its retries are host-side ledger items, not
        // simulated events).
        let spec = SweepSpec::new().cell(
            tiny()
                .corruption_plans(4, 500)
                .config("bb", BbConfig::full())
                .config(
                    "bb-sans-preparse",
                    BbConfig {
                        preparser: false,
                        ..BbConfig::full()
                    },
                ),
        );
        let outcome = run(&spec, 2);
        assert!(outcome.report.failures.is_empty());
        let plan = &outcome.report.cells[0].plans[0];
        let mut checked = 0;
        for corr in &plan.corruptions[1..] {
            let bb = &corr.configs[0];
            let baseline = &corr.configs[1];
            // The no-preparse config never consults the artifact.
            assert_eq!(baseline.recoveries, 0);
            if bb.artifacts_rejected as usize == bb.count {
                assert_eq!(
                    bb.p50_ns, baseline.p50_ns,
                    "rejected-artifact boots must match the re-parse timeline"
                );
                assert_eq!(bb.p95_ns, baseline.p95_ns);
                checked += 1;
            }
        }
        assert!(checked > 0, "no corruption slot rejected every artifact");
    }

    #[test]
    fn incomplete_rescue_is_a_reported_failure_not_a_panic() {
        // The BB attempt never completes, so the supervisor falls back
        // — and the conventional rescue never completes either. The job
        // fails the way the plain sweep of this scenario does.
        let hung = CellSpec::fixed("hung", crate::pool::tests::deadlocked_completion());
        let spec = SweepSpec::new().cell(supervised(hung.seeds([0, 1])).conventional_vs_bb());
        let outcome = run(&spec, 2);
        assert_eq!(outcome.report.total_boots, 0);
        let reasons: Vec<&str> = outcome
            .report
            .failures
            .iter()
            .map(|f| f.reason.as_str())
            .collect();
        assert_eq!(reasons, ["incomplete boot: conventional"; 2]);
    }
}
