//! Property-based tests of the fault-injection + supervision subsystem:
//! arbitrary seeded fault plans against arbitrary start-limit settings
//! must always yield a terminating, bounded, deterministic boot.

use proptest::prelude::*;

use booting_booster::bb::{fault_targets, with_supervision, Boot, BootRequest, FallbackPolicy};
use booting_booster::init::{
    run_boot, BootPlan, EngineConfig, EngineMode, JobNames, LoadModel, ManagerCosts, PlanOverrides,
    RestartPolicy, ServiceBody, ServiceType, Transaction, Unit, UnitGraph, UnitName, WorkloadMap,
};
use booting_booster::sim::{
    AccessPattern, DeviceProfile, Fault, FaultPlan, Machine, MachineConfig, OpsBuilder,
    SimDuration, SimTime,
};
use booting_booster::workloads::{profiles, tv_scenario_with, TizenParams};

fn restart_policy() -> impl Strategy<Value = RestartPolicy> {
    prop_oneof![
        Just(RestartPolicy::No),
        Just(RestartPolicy::OnFailure),
        Just(RestartPolicy::Always),
    ]
}

fn supervised_outcome(
    scenario_seed: u64,
    plan_seed: u64,
    restart: RestartPolicy,
    restart_sec_ms: u64,
    burst: u32,
) -> (Boot, FallbackPolicy) {
    let base = tv_scenario_with(
        profiles::ue48h6200(),
        TizenParams {
            services: 24,
            seed: scenario_seed,
            ..TizenParams::open_source()
        },
    );
    let scenario = with_supervision(&base, restart, restart_sec_ms, burst);
    let plan = FaultPlan::seeded(plan_seed, &fault_targets(&scenario));
    let policy = FallbackPolicy::default();
    let out = BootRequest::new(&scenario)
        .faults(&plan)
        .fallback(policy)
        .run()
        .expect("supervised boot returns");
    (out, policy)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Any seeded fault plan against any supervision settings
    /// terminates: the supervised boot returns, no unit respawns past
    /// its start limit, and the user-visible boot time is bounded by
    /// the fallback policy.
    #[test]
    fn supervised_boots_always_terminate(
        scenario_seed in 0u64..1_000,
        plan_seed in any::<u64>(),
        restart in restart_policy(),
        restart_sec_ms in 0u64..200,
        burst in 1u32..4,
    ) {
        let (out, policy) =
            supervised_outcome(scenario_seed, plan_seed, restart, restart_sec_ms, burst);

        // No infinite restart loops: every unit's respawns are bounded
        // by its start limit.
        for (name, rec) in &out.report.boot.services {
            prop_assert!(
                rec.restarts <= burst,
                "{} respawned {} times with StartLimitBurst={}",
                name, rec.restarts, burst
            );
        }

        // The supervisor bounds the user-visible boot time: a clean
        // boot beat the deadline; a degraded one paid at most the
        // deadline on top of the conventional rescue.
        match &out.degraded {
            None => {
                prop_assert!(out.report.boot_time().since(SimTime::ZERO) <= policy.deadline);
            }
            Some(d) => {
                let bound = d.rescue.boot_time().since(SimTime::ZERO) + policy.deadline;
                let total_boot = out.user_boot_time().expect("the rescue completes");
                prop_assert!(
                    total_boot.since(SimTime::ZERO) <= bound,
                    "degraded boot {} exceeds conventional+deadline {}",
                    total_boot, SimTime::ZERO + bound
                );
            }
        }
    }

    /// Fault injection preserves determinism: the same scenario, plan,
    /// and supervision settings reproduce the same outcome exactly.
    #[test]
    fn faulted_boots_are_deterministic(
        scenario_seed in 0u64..1_000,
        plan_seed in any::<u64>(),
        restart in restart_policy(),
        burst in 1u32..4,
    ) {
        let (a, _) = supervised_outcome(scenario_seed, plan_seed, restart, 50, burst);
        let (b, _) = supervised_outcome(scenario_seed, plan_seed, restart, 50, burst);
        prop_assert_eq!(a.user_boot_time(), b.user_boot_time());
        prop_assert_eq!(a.restarts(), b.restarts());
        prop_assert_eq!(a.degraded.is_some(), b.degraded.is_some());
    }
}

/// A random DAG workload where every unit carries a long `TimeoutSec=`
/// watchdog and one supervised unit crashes once. Mirrors the
/// engine_invariants generator, restricted to what the watchdog
/// property needs.
#[derive(Debug, Clone)]
struct WatchdogWorkload {
    units: Vec<Unit>,
    workloads: WorkloadMap,
    completion: UnitName,
    crash_target: String,
}

const WATCHDOG_MS: u64 = 60_000;

fn watchdog_workload() -> impl Strategy<Value = WatchdogWorkload> {
    (2usize..10).prop_flat_map(|n| {
        let deps = prop::collection::vec(prop::collection::vec(0usize..n.max(1), 0..3), n);
        let costs = prop::collection::vec(1u64..30, n);
        let crash_idx = 0usize..n;
        (Just(n), deps, costs, crash_idx).prop_map(|(n, deps, costs, crash_idx)| {
            let mut units = vec![Unit::new(UnitName::new("boot.target"))];
            let mut workloads = WorkloadMap::new();
            for i in 0..n {
                let name = format!("s{i:02}.service");
                let mut u = Unit::new(UnitName::new(&name))
                    .with_type(ServiceType::Forking)
                    .with_exec(format!("wl:{name}"));
                u.exec.timeout_ms = WATCHDOG_MS;
                u.exec.restart = RestartPolicy::OnFailure;
                u.exec.restart_sec_ms = 10;
                u.exec.start_limit_burst = 3;
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
            WatchdogWorkload {
                units,
                workloads,
                completion: UnitName::new(format!("s{:02}.service", n - 1)),
                crash_target: format!("s{crash_idx:02}.service"),
            }
        })
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Timeout watchdogs never outlive boot completion: when every unit
    /// carries a long watchdog and a supervised unit crashes once, the
    /// boot still completes and the machine quiesces long before any
    /// watchdog would have expired — the watchdogs were released at
    /// readiness, not left running to their timeout.
    #[test]
    fn watchdogs_never_outlive_completion(w in watchdog_workload(), cores in 1usize..5) {
        let graph = UnitGraph::build(w.units.clone()).expect("unique names");
        let transaction = Transaction::build(&graph, "boot.target").expect("acyclic");
        let mut machine = Machine::new(MachineConfig { cores, ..MachineConfig::default() });
        let device = machine.add_device("emmc", DeviceProfile::tv_emmc());
        machine.install_fault_plan(&FaultPlan {
            faults: vec![Fault::CrashAtReadiness { process: w.crash_target.clone(), hits: 1 }],
            seed: 0,
        });
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
            mode: EngineMode::InOrder,
            load: LoadModel {
                io_bytes: 4096,
                pattern: AccessPattern::Random,
                cpu: SimDuration::from_millis(1),
            },
            costs: ManagerCosts::default(),
            device,
        };
        let record = run_boot(&mut machine, &plan, &w.workloads, &cfg);

        prop_assert!(record.completion_time.is_some(), "supervised crash must recover");
        prop_assert!(
            record.outcome.end_time.since(SimTime::ZERO)
                < SimDuration::from_millis(WATCHDOG_MS),
            "machine quiesced at {} — a watchdog ran to its {}ms timeout",
            record.outcome.end_time, WATCHDOG_MS
        );
    }
}
