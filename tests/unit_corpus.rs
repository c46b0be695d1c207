//! Parses the on-disk unit corpus (`examples/units/`) end to end:
//! text → parser → graph → analyzer → pre-parse cache → boot.

use std::collections::BTreeSet;

use booting_booster::bb::service_engine::{analyze, identify_bb_group, Finding};
use booting_booster::init::{
    decode_units, encode_units, parse_unit, run_boot, BootPlan, EngineConfig, EngineMode,
    IoSchedulingClass, JobNames, LoadModel, ManagerCosts, PlanOverrides, ServiceType, Transaction,
    UnitGraph, UnitName, WorkloadMap,
};
use booting_booster::sim::{AccessPattern, DeviceProfile, Machine, MachineConfig, SimDuration};

fn corpus() -> Vec<(String, String)> {
    let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/examples/units");
    let mut files: Vec<(String, String)> = std::fs::read_dir(dir)
        .expect("corpus directory exists")
        .map(|e| {
            let path = e.expect("dir entry").path();
            let name = path.file_name().unwrap().to_str().unwrap().to_owned();
            (name, std::fs::read_to_string(&path).expect("readable"))
        })
        .collect();
    files.sort();
    files
}

fn parse_corpus() -> Vec<booting_booster::init::Unit> {
    corpus()
        .iter()
        .map(|(name, text)| {
            let parsed =
                parse_unit(name, text).unwrap_or_else(|e| panic!("{name} failed to parse: {e}"));
            assert!(
                parsed.warnings.is_empty(),
                "{name} produced warnings: {:?}",
                parsed.warnings
            );
            parsed.unit
        })
        .collect()
}

#[test]
fn corpus_parses_with_expected_details() {
    let units = parse_corpus();
    assert_eq!(units.len(), 15);
    let by_name = |n: &str| {
        units
            .iter()
            .find(|u| u.name.as_str() == n)
            .unwrap_or_else(|| panic!("{n} missing"))
    };
    let dbus = by_name("dbus.service");
    assert_eq!(dbus.exec.service_type, ServiceType::Notify);
    assert_eq!(dbus.exec.nice, -10);
    assert_eq!(dbus.requires.len(), 2);
    assert_eq!(dbus.documentation, vec!["man:dbus-daemon(1)".to_string()]);
    let tuner = by_name("tuner.service");
    assert_eq!(tuner.exec.timeout_ms, 5000);
    let fasttv = by_name("fasttv.service");
    assert_eq!(fasttv.exec.io_class, IoSchedulingClass::Realtime);
    let store = by_name("store.service");
    assert_eq!(store.condition_path_exists.as_deref(), Some("/opt/store"));
    assert_eq!(store.exec.io_class, IoSchedulingClass::Idle);
    let mount = by_name("var.mount");
    assert!(!mount.default_dependencies);
    assert_eq!(mount.exec.service_type, ServiceType::Oneshot);
}

#[test]
fn corpus_graph_is_clean_and_bb_group_matches() {
    let units = parse_corpus();
    let graph = UnitGraph::build(units).expect("unique names");
    let findings = analyze(&graph);
    // The corpus is intentionally clean apart from the §4.2 abuser
    // (which is not a cycle/contradiction, just an early-bird ordering).
    assert!(
        findings
            .iter()
            .all(|f| !matches!(f, Finding::OrderingCycle(_))),
        "unexpected cycle: {findings:?}"
    );
    let group = identify_bb_group(&graph, &[graph.idx_of("fasttv.service")]);
    let names: BTreeSet<&str> = group.iter().map(|&i| graph.unit(i).name.as_str()).collect();
    let expected: BTreeSet<&str> = [
        "var.mount",
        "dbus.socket",
        "dbus.service",
        "tuner.service",
        "hdmi.service",
        "demux.service",
        "fasttv.service",
    ]
    .into();
    assert_eq!(names, expected);
}

#[test]
fn corpus_roundtrips_through_the_preparse_cache() {
    let units = parse_corpus();
    let blob = encode_units(&units);
    let back = decode_units(&blob).expect("cache decodes");
    assert_eq!(back, units);
}

#[test]
fn corpus_boots_on_the_simulator() {
    let units = parse_corpus();
    let graph = UnitGraph::build(units).expect("unique names");
    let transaction = Transaction::build(&graph, "tv-boot.target").expect("acyclic");
    let mut machine = Machine::new(MachineConfig::default());
    let device = machine.add_device("emmc", DeviceProfile::tv_emmc());
    let execution_order = transaction.execution_order(&graph);
    let names = JobNames::build(&graph, &transaction);
    let completion = [graph.idx_of("fasttv.service")];
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
            io_bytes: 16 * 1024,
            pattern: AccessPattern::Random,
            cpu: SimDuration::from_millis(4),
        },
        costs: ManagerCosts::default(),
        device,
    };
    // Default bodies for every exec (none are in a workload map).
    let record = run_boot(&mut machine, &plan, &WorkloadMap::new(), &cfg);
    assert!(record.completion_time.is_some());
    assert!(record.outcome.failed.is_empty());
    // The Listing-1 ordering held: myapp before socket.service... those
    // are under multi-user.target, not pulled in by tv-boot.target.
    assert!(!record
        .services
        .contains_key(&UnitName::new("myapp.service")));
    // The §4.2 abuser delayed var.mount behind itself.
    let var = record.service("var.mount").ready.expect("mounted");
    let messenger = record.service("messenger.service").ready.expect("ran");
    assert!(messenger <= var, "Before=var.mount was not honoured");
}
