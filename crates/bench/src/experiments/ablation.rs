//! E9 — extension: ablation and scaling sweeps.
//!
//! Beyond the paper's single-platform evaluation, these sweeps probe the
//! design space the paper argues about qualitatively: how BB's win
//! scales with the number of services (the "number of nodes almost
//! doubled" pressure of §2.5) and with core count (the §1 observation
//! that more cores alone do not fix booting because dependencies and
//! synchronization serialize the work).
//!
//! Both sweeps are expressed as one bb-fleet grid — one cell per sweep
//! coordinate, booted conventional-vs-BB on the work-stealing pool —
//! and read back from the deterministic aggregated report.

use bb_fleet::{run_sweep, CellSpec, FleetCache, PoolConfig, SweepReport, SweepSpec};
use bb_sim::SimTime;
use bb_workloads::{profiles, TizenParams};

/// One sweep point.
#[derive(Debug, Clone)]
pub struct Point {
    /// Sweep coordinate label.
    pub label: String,
    /// Conventional boot time.
    pub conventional: SimTime,
    /// Full-BB boot time.
    pub bb: SimTime,
}

impl Point {
    /// Relative reduction in percent.
    pub fn reduction_percent(&self) -> f64 {
        100.0 * (self.conventional.as_nanos() as f64 - self.bb.as_nanos() as f64)
            / self.conventional.as_nanos() as f64
    }
}

/// The E9 output.
#[derive(Debug)]
pub struct Ablation {
    /// Boot time vs service count (4 cores).
    pub service_sweep: Vec<Point>,
    /// Boot time vs core count (250 services).
    pub core_sweep: Vec<Point>,
}

fn cell(label: &str, services: usize, cores: usize) -> CellSpec {
    let mut profile = profiles::ue48h6200();
    profile.machine.cores = cores;
    let params = TizenParams {
        services,
        false_ordering_edges: 12 + services / 40,
        ..TizenParams::default()
    };
    CellSpec::tizen(label, profile, params).conventional_vs_bb()
}

fn point(report: &SweepReport, idx: usize) -> Point {
    let cell = &report.cells[idx];
    assert_eq!(
        cell.completed, cell.seeds,
        "{}: {:?}",
        cell.label, report.failures
    );
    // One seed per cell, so min == the single sample (exact, no float).
    Point {
        label: cell.label.clone(),
        conventional: SimTime::from_nanos(cell.configs[0].min_ns),
        bb: SimTime::from_nanos(cell.configs[1].min_ns),
    }
}

const SERVICE_SWEEP: [usize; 4] = [64, 136, 250, 400];
const CORE_SWEEP: [usize; 4] = [1, 2, 4, 8];

/// Runs the experiment.
pub fn run() -> Ablation {
    let mut spec = SweepSpec::new();
    for n in SERVICE_SWEEP {
        spec = spec.cell(cell(&format!("{n} services"), n, 4));
    }
    for c in CORE_SWEEP {
        spec = spec.cell(cell(&format!("{c} cores"), 250, c));
    }
    let outcome = run_sweep(&spec, &PoolConfig::default(), &FleetCache::fresh());
    let report = &outcome.report;
    Ablation {
        service_sweep: (0..SERVICE_SWEEP.len()).map(|i| point(report, i)).collect(),
        core_sweep: (0..CORE_SWEEP.len())
            .map(|i| point(report, SERVICE_SWEEP.len() + i))
            .collect(),
    }
}

impl Ablation {
    /// Text rendering.
    pub fn render(&self) -> String {
        use std::fmt::Write as _;
        let mut s = String::new();
        let mut table = |title: &str, points: &[Point]| {
            let _ = writeln!(s, "{title}");
            let _ = writeln!(
                s,
                "  {:<16} {:>14} {:>14} {:>10}",
                "point", "conventional", "bb", "reduction"
            );
            for p in points {
                let _ = writeln!(
                    s,
                    "  {:<16} {:>14} {:>14} {:>9.1}%",
                    p.label,
                    p.conventional.to_string(),
                    p.bb.to_string(),
                    p.reduction_percent()
                );
            }
        };
        table("Scaling with service count (4 cores):", &self.service_sweep);
        table("Scaling with core count (250 services):", &self.core_sweep);
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bb_wins_everywhere_and_grows_with_services() {
        let a = run();
        for p in a.service_sweep.iter().chain(&a.core_sweep) {
            assert!(
                p.bb < p.conventional,
                "{}: {} vs {}",
                p.label,
                p.bb,
                p.conventional
            );
        }
        // Conventional boot degrades with service count much faster
        // than BB (whose completion is pinned to the critical chain).
        let conv_growth = a.service_sweep.last().unwrap().conventional.as_nanos() as f64
            / a.service_sweep[0].conventional.as_nanos() as f64;
        let bb_growth = a.service_sweep.last().unwrap().bb.as_nanos() as f64
            / a.service_sweep[0].bb.as_nanos() as f64;
        assert!(
            conv_growth > bb_growth * 1.5,
            "conv x{conv_growth:.2} vs bb x{bb_growth:.2}"
        );
    }

    #[test]
    fn more_cores_help_conventional_but_bb_keeps_winning() {
        let a = run();
        let conv1 = a.core_sweep[0].conventional;
        let conv8 = a.core_sweep.last().unwrap().conventional;
        assert!(conv8 < conv1, "cores should help: {conv8} vs {conv1}");
        // Even at 8 cores the conventional boot does not reach BB at 4
        // cores — parallelism alone does not fix dependencies (§1).
        let bb4 = &a.core_sweep[2];
        assert!(
            conv8 > bb4.bb,
            "8-core conventional {conv8} vs 4-core BB {}",
            bb4.bb
        );
    }
}
