//! Property-based tests of the init engines and the booster over
//! randomly generated acyclic service workloads.

use proptest::prelude::*;
use std::collections::HashMap;

use booting_booster::init::{
    run_boot, BootPlan, EngineConfig, EngineMode, JobNames, LoadModel, ManagerCosts, PlanOverrides,
    ServiceBody, ServiceType, Transaction, Unit, UnitGraph, UnitName, WorkloadMap,
};
use booting_booster::sim::{
    AccessPattern, DeviceProfile, Machine, MachineConfig, OpsBuilder, SimDuration,
};

/// A randomly generated acyclic workload: service i may depend only on
/// services with smaller indices, so the graph is a DAG by construction.
#[derive(Debug, Clone)]
struct RandomWorkload {
    units: Vec<Unit>,
    workloads: WorkloadMap,
    completion: UnitName,
}

fn workload_strategy() -> impl Strategy<Value = RandomWorkload> {
    (2usize..12, any::<u64>()).prop_flat_map(|(n, seed)| {
        let deps = prop::collection::vec(prop::collection::vec(0usize..n.max(1), 0..3), n);
        let costs = prop::collection::vec(1u64..40, n);
        (Just(n), Just(seed), deps, costs).prop_map(|(n, _seed, deps, costs)| {
            let mut units = vec![Unit::new(UnitName::new("boot.target"))];
            let mut workloads = WorkloadMap::new();
            for i in 0..n {
                let name = format!("s{i:02}.service");
                let mut u = Unit::new(UnitName::new(&name))
                    .with_type(ServiceType::Forking)
                    .with_exec(format!("wl:{name}"));
                for &d in deps[i].iter().filter(|&&d| d < i) {
                    u = u.needs(&format!("s{d:02}.service"));
                }
                units.push(u);
                workloads.insert(
                    format!("wl:{name}"),
                    ServiceBody {
                        pre_ready: OpsBuilder::new().compute_ms(costs[i]).build(),
                        post_ready: Vec::new(),
                    },
                );
                units[0] = units[0].clone().requires(&name);
            }
            let completion = UnitName::new(format!("s{:02}.service", n - 1));
            RandomWorkload {
                units,
                workloads,
                completion,
            }
        })
    })
}

fn boot(w: &RandomWorkload, mode: EngineMode, cores: usize) -> booting_booster::init::BootRecord {
    let graph = UnitGraph::build(w.units.clone()).expect("unique names");
    let transaction = Transaction::build(&graph, "boot.target").expect("acyclic");
    let mut machine = Machine::new(MachineConfig {
        cores,
        ..MachineConfig::default()
    });
    let device = machine.add_device("emmc", DeviceProfile::tv_emmc());
    let execution_order = transaction.execution_order(&graph);
    let names = JobNames::build(&graph, &transaction);
    let completion = [graph.idx_of(w.completion.as_str())];
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
            io_bytes: 4096,
            pattern: AccessPattern::Random,
            cpu: SimDuration::from_millis(1),
        },
        costs: ManagerCosts::default(),
        device,
    };
    run_boot(&mut machine, &plan, &w.workloads, &cfg)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The in-order engine never starts a service before every ordering
    /// predecessor is ready, on any DAG, for any core count.
    #[test]
    fn in_order_respects_dependencies(w in workload_strategy(), cores in 1usize..6) {
        let record = boot(&w, EngineMode::InOrder, cores);
        prop_assert!(record.completion_time.is_some());
        prop_assert!(record.outcome.failed.is_empty());
        let graph = UnitGraph::build(w.units.clone()).expect("valid");
        let ready: HashMap<&str, _> = record
            .services
            .iter()
            .map(|(n, r)| (n.as_str(), r))
            .collect();
        for unit in graph.units() {
            let rec = ready[unit.name.as_str()];
            let (Some(started), Some(_)) = (rec.started, rec.ready) else { continue };
            for dep in &unit.after {
                if let Some(dep_rec) = record.services.get(dep) {
                    if let Some(dep_ready) = dep_rec.ready {
                        prop_assert!(
                            started >= dep_ready,
                            "{} started {} before {} ready {}",
                            unit.name, started, dep, dep_ready
                        );
                    }
                }
            }
        }
    }

    /// The serial engine is never faster than the in-order engine on
    /// multicore machines (it forgoes all parallelism).
    #[test]
    fn serial_never_beats_in_order(w in workload_strategy()) {
        let serial = boot(&w, EngineMode::Serial, 4);
        let inorder = boot(&w, EngineMode::InOrder, 4);
        prop_assert!(serial.completion_time.expect("completes")
            >= inorder.completion_time.expect("completes"));
    }

    /// More cores never slow the in-order boot (the simulator's
    /// scheduler is work-conserving).
    #[test]
    fn more_cores_never_hurt(w in workload_strategy()) {
        let two = boot(&w, EngineMode::InOrder, 2);
        let four = boot(&w, EngineMode::InOrder, 4);
        prop_assert!(four.boot_time() <= two.boot_time());
    }

    /// Out-of-order with path-check always completes correctly (no
    /// failures), merely slower; out-of-order with asserts fails
    /// whenever a true dependency exists.
    #[test]
    fn path_check_is_correct_but_polling(w in workload_strategy()) {
        let polled = boot(
            &w,
            EngineMode::OutOfOrder { path_check: true, assert_deps: false },
            4,
        );
        prop_assert!(polled.completion_time.is_some());
        prop_assert!(polled.outcome.failed.is_empty());
        // Correctness: a service becomes ready only after each of its
        // ordering predecessors (the polling loop enforces this).
        let graph = UnitGraph::build(w.units.clone()).expect("valid");
        for unit in graph.units() {
            let Some(rec) = polled.services.get(&unit.name) else { continue };
            let Some(ready) = rec.ready else { continue };
            for dep in &unit.after {
                if let Some(dep_ready) = polled.services.get(dep).and_then(|r| r.ready) {
                    prop_assert!(ready >= dep_ready, "{} ready before its dep {}", unit.name, dep);
                }
            }
        }
    }

    /// Runs are deterministic: same workload, same record.
    #[test]
    fn engine_is_deterministic(w in workload_strategy()) {
        let a = boot(&w, EngineMode::InOrder, 4);
        let b = boot(&w, EngineMode::InOrder, 4);
        prop_assert_eq!(a.completion_time, b.completion_time);
        let ra: Vec<_> = a.services.values().map(|r| r.ready).collect();
        let rb: Vec<_> = b.services.values().map(|r| r.ready).collect();
        prop_assert_eq!(ra, rb);
    }
}
