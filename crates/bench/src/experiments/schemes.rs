//! E10 — extension: init-scheme family comparison (§2.5.1/§2.5.2).
//!
//! The same workload executed by the three engine families the paper
//! surveys: serial `rcS`, out-of-order (with and without the bolted-on
//! path-check), and in-order systemd-like. Shows the §2.5.1 hazard —
//! out-of-order boots are *incorrect* when dependencies are unmet — and
//! the performance ordering.

use bb_init::{
    run_boot, BootPlan, EngineConfig, EngineMode, JobNames, LoadModel, ManagerCosts, PlanOverrides,
    Transaction, UnitGraph,
};
use bb_sim::{AccessPattern, Machine, SimDuration, SimTime};
use bb_workloads::{profiles, tizen_tv, TizenParams};

/// One engine's result.
#[derive(Debug)]
pub struct SchemeResult {
    /// Engine label.
    pub name: &'static str,
    /// Boot completion time (None when the boot broke).
    pub boot_time: Option<SimTime>,
    /// Services that crashed on missing prerequisites.
    pub failed_services: usize,
    /// CPU burned by dependency polling, across all services.
    pub total_cpu: SimDuration,
}

/// The E10 output.
#[derive(Debug)]
pub struct Schemes {
    /// Results per engine.
    pub results: Vec<SchemeResult>,
}

fn run_mode(name: &'static str, mode: EngineMode) -> SchemeResult {
    let params = TizenParams {
        services: 100,
        ..TizenParams::default()
    };
    let profile = profiles::ue48h6200();
    let mut machine = Machine::new(profile.machine);
    let device = machine.add_device("emmc", profile.storage);
    let workload = tizen_tv(&params, device);
    let graph = UnitGraph::build(workload.units.clone()).expect("valid units");
    let transaction = Transaction::build(&graph, &workload.target).expect("acyclic");
    let execution_order = transaction.execution_order(&graph);
    let names = JobNames::build(&graph, &transaction);
    let completion: Vec<usize> = workload
        .completion
        .iter()
        .map(|n| graph.idx_of(n.as_str()))
        .collect();
    let overrides = PlanOverrides::default();
    let plan = BootPlan {
        graph: &graph,
        transaction: &transaction,
        completion: &completion,
        overrides: &overrides,
        init_tasks: &[],
        service_phase_tasks: &[],
        execution_order: &execution_order,
        names: &names,
    };
    let cfg = EngineConfig {
        mode,
        load: LoadModel {
            io_bytes: 128 * 1024,
            pattern: AccessPattern::Random,
            cpu: SimDuration::from_millis(40),
        },
        costs: ManagerCosts::default(),
        device,
    };
    let record = run_boot(&mut machine, &plan, &workload.workloads, &cfg);
    SchemeResult {
        name,
        boot_time: record.completion_time,
        failed_services: record.failed_services().len(),
        total_cpu: machine.processes().map(|p| p.cpu_time()).sum(),
    }
}

/// Runs the experiment.
pub fn run() -> Schemes {
    Schemes {
        results: vec![
            run_mode("serial (rcS)", EngineMode::Serial),
            run_mode(
                "out-of-order, no checks",
                EngineMode::OutOfOrder {
                    path_check: false,
                    assert_deps: true,
                },
            ),
            run_mode(
                "out-of-order + path-check",
                EngineMode::OutOfOrder {
                    path_check: true,
                    assert_deps: false,
                },
            ),
            run_mode("in-order (systemd-like)", EngineMode::InOrder),
        ],
    }
}

impl Schemes {
    /// Text rendering.
    pub fn render(&self) -> String {
        use std::fmt::Write as _;
        let mut s = String::new();
        let _ = writeln!(s, "Init-scheme families on the 100-service TV workload:");
        let _ = writeln!(
            s,
            "  {:<28} {:>12} {:>8} {:>12}",
            "engine", "boot time", "failed", "total CPU"
        );
        for r in &self.results {
            let bt = r
                .boot_time
                .map(|t| t.to_string())
                .unwrap_or_else(|| "BROKEN".into());
            let _ = writeln!(
                s,
                "  {:<28} {:>12} {:>8} {:>12}",
                r.name,
                bt,
                r.failed_services,
                r.total_cpu.to_string()
            );
        }
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn family_ordering_matches_the_survey() {
        let s = run();
        let by_name = |n: &str| s.results.iter().find(|r| r.name.starts_with(n)).unwrap();
        let serial = by_name("serial");
        let ooo_broken = by_name("out-of-order, no");
        let ooo_poll = by_name("out-of-order + path-check");
        let inorder = by_name("in-order");

        // Unchecked out-of-order breaks the boot.
        assert!(ooo_broken.failed_services > 0);
        assert!(ooo_broken.boot_time.is_none());
        // Everyone else completes correctly.
        for r in [serial, ooo_poll, inorder] {
            assert!(r.boot_time.is_some(), "{} broke", r.name);
            assert_eq!(r.failed_services, 0);
        }
        // Serial is the slowest; in-order beats path-check polling.
        assert!(serial.boot_time > inorder.boot_time);
        assert!(ooo_poll.boot_time >= inorder.boot_time);
        // Path-check burns more CPU than dependency gating.
        assert!(ooo_poll.total_cpu > inorder.total_cpu);
    }
}
