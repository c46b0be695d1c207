//! Failure-injection tests: hung and crashing services, timeout
//! release, and how the boot degrades (never silently).

use booting_booster::init::{
    run_boot, BootPlan, EngineConfig, EngineMode, JobNames, LoadModel, ManagerCosts, PlanOverrides,
    ServiceBody, ServiceType, Transaction, Unit, UnitGraph, UnitName, WorkloadMap,
};
use booting_booster::sim::{
    AccessPattern, DeviceProfile, Machine, MachineConfig, Op, OpsBuilder, SimDuration,
};

struct Setup {
    machine: Machine,
    cfg: EngineConfig,
}

fn setup() -> Setup {
    let mut machine = Machine::new(MachineConfig::default());
    let device = machine.add_device("emmc", DeviceProfile::tv_emmc());
    let cfg = EngineConfig {
        mode: EngineMode::InOrder,
        load: LoadModel {
            io_bytes: 1024,
            pattern: AccessPattern::Random,
            cpu: SimDuration::from_millis(1),
        },
        costs: ManagerCosts::default(),
        device,
    };
    Setup { machine, cfg }
}

fn units(timeout_ms: u64) -> Vec<Unit> {
    let mut broken = Unit::new(UnitName::new("broken.service"))
        .with_type(ServiceType::Forking)
        .with_exec("hang");
    broken.exec.timeout_ms = timeout_ms;
    vec![
        Unit::new(UnitName::new("boot.target")).requires("app.service"),
        broken,
        Unit::new(UnitName::new("app.service"))
            .needs("broken.service")
            .with_type(ServiceType::Forking)
            .with_exec("app"),
    ]
}

fn wl(machine: &mut Machine) -> WorkloadMap {
    let never = machine.flag("never-set");
    let mut wl = WorkloadMap::new();
    // The broken service hangs forever waiting on a flag nobody sets.
    wl.insert(
        "hang".into(),
        ServiceBody {
            pre_ready: vec![Op::WaitFlag(never)],
            post_ready: Vec::new(),
        },
    );
    wl.insert(
        "app".into(),
        ServiceBody {
            pre_ready: OpsBuilder::new().compute_ms(5).build(),
            post_ready: Vec::new(),
        },
    );
    wl
}

fn boot(timeout_ms: u64) -> booting_booster::init::BootRecord {
    let graph = UnitGraph::build(units(timeout_ms)).expect("unique");
    let transaction = Transaction::build(&graph, "boot.target").expect("acyclic");
    let mut s = setup();
    let workloads = wl(&mut s.machine);
    let execution_order = transaction.execution_order(&graph);
    let names = JobNames::build(&graph, &transaction);
    let completion = [graph.idx_of("app.service")];
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
    run_boot(&mut s.machine, &plan, &workloads, &s.cfg)
}

#[test]
fn hung_dependency_without_timeout_blocks_the_boot() {
    let record = boot(0);
    // Boot never completes; the hang is visible, not silent.
    assert!(record.completion_time.is_none());
    assert!(!record.outcome.blocked.is_empty());
    assert!(record.service("broken.service").ready.is_none());
    assert!(record.service("app.service").ready.is_none());
}

#[test]
fn timeout_releases_dependents_and_is_recorded() {
    let record = boot(2_000);
    // The watchdog forces readiness at 2 s; the dependent proceeds and
    // boot completes shortly after.
    let broken = record.service("broken.service");
    assert!(broken.timed_out, "timeout not attributed");
    let ready = broken.ready.expect("released by watchdog");
    assert!(
        (2_000..2_100).contains(&ready.as_millis()),
        "released at {ready}"
    );
    let completion = record.completion_time.expect("boot completes");
    assert!(completion > ready);
    assert!(!record.service("app.service").timed_out);
}

#[test]
fn healthy_service_with_timeout_is_not_marked() {
    // Same topology but the "broken" body completes instantly: the
    // watchdog loses the race and nothing is marked timed out.
    let graph = UnitGraph::build(units(2_000)).expect("unique");
    let transaction = Transaction::build(&graph, "boot.target").expect("acyclic");
    let mut s = setup();
    let mut workloads = wl(&mut s.machine);
    workloads.insert(
        "hang".into(),
        ServiceBody {
            pre_ready: OpsBuilder::new().compute_ms(3).build(),
            post_ready: Vec::new(),
        },
    );
    let execution_order = transaction.execution_order(&graph);
    let names = JobNames::build(&graph, &transaction);
    let completion = [graph.idx_of("app.service")];
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
    let record = run_boot(&mut s.machine, &plan, &workloads, &s.cfg);
    assert!(!record.service("broken.service").timed_out);
    assert!(record.completion_time.unwrap().as_millis() < 100);
}

#[test]
fn crashing_service_fails_loud_in_out_of_order_mode() {
    // In out-of-order assert mode the dependent crashes on the missing
    // prerequisite instead of hanging — a different loud failure.
    let graph = UnitGraph::build(units(0)).expect("unique");
    let transaction = Transaction::build(&graph, "boot.target").expect("acyclic");
    let mut s = setup();
    s.cfg.mode = EngineMode::OutOfOrder {
        path_check: false,
        assert_deps: true,
    };
    let workloads = wl(&mut s.machine);
    let execution_order = transaction.execution_order(&graph);
    let names = JobNames::build(&graph, &transaction);
    let completion = [graph.idx_of("app.service")];
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
    let record = run_boot(&mut s.machine, &plan, &workloads, &s.cfg);
    assert!(record.service("app.service").failed);
    assert!(record.completion_time.is_none());
}
