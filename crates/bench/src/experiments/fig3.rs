//! E3 — Figure 3: how one added dependency disrupts the boot.
//!
//! The paper's Figure 3 shows a new service `c` whose declarations span
//! two service groups: it creates a cycle between the groups, forces one
//! group to be split, and reduces launch parallelism. Three effects are
//! reproduced on a two-group synthetic workload:
//!
//! 1. *Cycle creation*: `c` both after group b's tail and before its
//!    head → the Service Analyzer reports the cycle; a transaction that
//!    requires everyone fails; if `c` is only wanted, it is dropped.
//! 2. *Parallelism loss*: a non-cyclic variant of `c` (after group a's
//!    tail, before group b's head) serializes the two previously
//!    parallel groups and measurably lengthens the boot.

use bb_core::service_engine::{analyze, Finding};
use bb_init::{
    run_boot, BootPlan, EngineConfig, EngineMode, JobNames, LoadModel, ManagerCosts, PlanOverrides,
    ServiceBody, ServiceType, Transaction, TransactionError, Unit, UnitGraph, UnitName,
    WorkloadMap,
};
use bb_sim::{
    AccessPattern, DeviceProfile, Machine, MachineConfig, OpsBuilder, SimDuration, SimTime,
};

/// Experiment output.
#[derive(Debug)]
pub struct Fig3 {
    /// Boot time with the two groups independent.
    pub baseline: SimTime,
    /// Boot time after the non-cyclic cross-group `c` serializes them.
    pub with_cross_dep: SimTime,
    /// Analyzer findings for the cyclic variant.
    pub cycle_findings: Vec<Finding>,
    /// The transaction error when `c` is required.
    pub required_cycle_error: TransactionError,
    /// Jobs dropped when `c` is merely wanted.
    pub dropped_when_wanted: Vec<UnitName>,
}

const GROUP: usize = 4;

fn chain(prefix: &str) -> Vec<Unit> {
    (0..GROUP)
        .map(|i| {
            let mut u = Unit::new(UnitName::new(format!("{prefix}{i}.service")))
                .with_type(ServiceType::Forking)
                .with_exec("body")
                .wanted_by("boot.target");
            if i > 0 {
                u = u.after(&format!("{prefix}{}.service", i - 1));
            }
            u
        })
        .collect()
}

fn boot_time(units: Vec<Unit>) -> SimTime {
    let graph = UnitGraph::build(units).expect("unique names");
    let transaction = Transaction::build(&graph, "boot.target").expect("acyclic");
    let mut machine = Machine::new(MachineConfig {
        cores: 4,
        ..MachineConfig::default()
    });
    let device = machine.add_device("emmc", DeviceProfile::tv_emmc());
    let mut workloads = WorkloadMap::new();
    workloads.insert(
        "body".into(),
        ServiceBody {
            pre_ready: OpsBuilder::new().compute_ms(40).build(),
            post_ready: Vec::new(),
        },
    );
    let completion = [
        graph.idx_of(&format!("a{}.service", GROUP - 1)),
        graph.idx_of(&format!("b{}.service", GROUP - 1)),
    ];
    let execution_order = transaction.execution_order(&graph);
    let names = JobNames::build(&graph, &transaction);
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
        mode: EngineMode::InOrder,
        load: LoadModel {
            io_bytes: 0,
            pattern: AccessPattern::Sequential,
            cpu: SimDuration::ZERO,
        },
        costs: ManagerCosts::default(),
        device,
    };
    run_boot(&mut machine, &plan, &workloads, &cfg).boot_time()
}

/// Runs the experiment.
pub fn run() -> Fig3 {
    let mut base = vec![Unit::new(UnitName::new("boot.target"))];
    base.extend(chain("a"));
    base.extend(chain("b"));
    let baseline = boot_time(base.clone());

    // Non-cyclic cross-group dependency: c after a's tail, before b's
    // head — group b now waits for all of group a.
    let mut crossed = base.clone();
    crossed.push(
        Unit::new(UnitName::new("c.service"))
            .after(&format!("a{}.service", GROUP - 1))
            .before("b0.service")
            .with_type(ServiceType::Forking)
            .with_exec("body")
            .wanted_by("boot.target"),
    );
    let with_cross_dep = boot_time(crossed);

    // Cyclic variant: c after b's tail AND before b's head.
    let mut cyclic = base.clone();
    cyclic.push(
        Unit::new(UnitName::new("c.service"))
            .after(&format!("b{}.service", GROUP - 1))
            .before("b0.service")
            .with_type(ServiceType::Forking)
            .with_exec("body")
            .wanted_by("boot.target"),
    );
    let graph = UnitGraph::build(cyclic.clone()).expect("unique names");
    let cycle_findings = analyze(&graph);
    // When c is only wanted, the transaction drops it.
    let tx = Transaction::build(&graph, "boot.target").expect("weak cycle is broken");
    let dropped_when_wanted = tx
        .dropped_jobs
        .iter()
        .map(|&j| graph.unit(j).name.clone())
        .collect();
    // When c is required (as is every cycle member), the cycle is fatal.
    let mut required = cyclic;
    let all_names: Vec<String> = required[1..]
        .iter()
        .map(|u| u.name.as_str().to_owned())
        .collect();
    for name in &all_names {
        required[0] = required[0].clone().requires(name);
    }
    let graph2 = UnitGraph::build(required).expect("unique names");
    let required_cycle_error =
        Transaction::build(&graph2, "boot.target").expect_err("hard cycle is fatal");

    Fig3 {
        baseline,
        with_cross_dep,
        cycle_findings,
        required_cycle_error,
        dropped_when_wanted,
    }
}

impl Fig3 {
    /// Text rendering.
    pub fn render(&self) -> String {
        use std::fmt::Write as _;
        let mut s = String::new();
        let _ = writeln!(s, "Figure 3 — impact of one added cross-group dependency");
        let _ = writeln!(
            s,
            "  two independent 4-service groups boot in      {}",
            self.baseline
        );
        let _ = writeln!(
            s,
            "  after c (After=a3, Before=b0) serializes them {}",
            self.with_cross_dep
        );
        let _ = writeln!(s, "  cyclic variant (After=b3, Before=b0):");
        for f in &self.cycle_findings {
            let _ = writeln!(s, "    analyzer: {f}");
        }
        let _ = writeln!(
            s,
            "    wanted-only c: transaction drops {:?}",
            self.dropped_when_wanted
                .iter()
                .map(|n| n.as_str())
                .collect::<Vec<_>>()
        );
        let _ = writeln!(s, "    required c: {}", self.required_cycle_error);
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cross_dependency_reduces_parallelism() {
        let f = run();
        // Serialized groups take roughly twice as long.
        assert!(
            f.with_cross_dep.as_nanos() as f64 >= f.baseline.as_nanos() as f64 * 1.6,
            "{} vs {}",
            f.with_cross_dep,
            f.baseline
        );
    }

    #[test]
    fn cycle_is_detected_and_handled() {
        let f = run();
        assert!(f
            .cycle_findings
            .iter()
            .any(|x| matches!(x, Finding::OrderingCycle(_))));
        assert_eq!(f.dropped_when_wanted, vec![UnitName::new("c.service")]);
        assert!(matches!(
            f.required_cycle_error,
            TransactionError::OrderingCycle(_)
        ));
        assert!(run().render().contains("ordering cycle"));
    }
}
