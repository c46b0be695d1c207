//! Properties of the boot-plan pass pipeline.
//!
//! 1. Every [`PlanPass`] is idempotent: once the pipeline has run,
//!    applying any enabled pass a second time must not change the plan.
//!    The executor replays the IR verbatim, so idempotence is what makes
//!    a pass safe to re-run (and the deltas trustworthy as provenance).
//! 2. The pipeline refactor is behavior-preserving: a [`BootRequest`]
//!    boot through the pipeline reproduces the pre-refactor TV-scenario
//!    boot times exactly, for both the conventional and the full-BB
//!    configuration.
//!
//! [`PlanPass`]: booting_booster::bb::PlanPass
//! [`BootRequest`]: booting_booster::bb::BootRequest

use proptest::prelude::*;

use booting_booster::bb::{BbConfig, BootPlanIr, BootRequest, Pipeline};
use booting_booster::workloads::{camera_scenario, tv_scenario};

/// The plan state passes are allowed to mutate, as one comparable
/// snapshot. (The graph, transaction, and workload tables are
/// pass-invariant inputs.)
fn snapshot(ir: &BootPlanIr) -> String {
    format!(
        "kernel={:?} modules={:?} overrides={:?} init={:?} service={:?} load={:?} rcu={:?}",
        ir.kernel,
        ir.module_strategy,
        ir.overrides,
        ir.init_tasks,
        ir.service_phase_tasks,
        ir.load,
        ir.boost_rcu,
    )
}

fn config_from_bits(bits: u8) -> BbConfig {
    BbConfig {
        rcu_booster: bits & 0x01 != 0,
        defer_memory: bits & 0x02 != 0,
        ondemand_modularizer: bits & 0x04 != 0,
        defer_journal: bits & 0x08 != 0,
        deferred_executor: bits & 0x10 != 0,
        preparser: bits & 0x20 != 0,
        bb_group: bits & 0x40 != 0,
    }
}

proptest! {
    #[test]
    fn every_enabled_pass_is_idempotent(bits in any::<u8>()) {
        let cfg = config_from_bits(bits);
        let scenario = camera_scenario();
        let pipeline = Pipeline::standard();
        let (mut ir, _) = pipeline.plan(&scenario, &cfg, None).unwrap();
        let once = snapshot(&ir);
        for pass in pipeline.enabled(&cfg) {
            pass.apply(&mut ir);
            prop_assert_eq!(
                &once,
                &snapshot(&ir),
                "pass {} is not idempotent under config {:?}",
                pass.name(),
                cfg
            );
        }
    }
}

#[test]
fn pipeline_reproduces_pre_refactor_tv_boot_times() {
    // The pass pipeline replaced the hand-threaded `boost_inner`; the
    // machine-op programs it emits are identical, so the calibrated
    // headline times must not move by a nanosecond.
    let scenario = tv_scenario();
    let boot = |cfg| {
        BootRequest::new(&scenario)
            .config(cfg)
            .run()
            .expect("valid")
            .report
    };
    let conv = boot(BbConfig::conventional());
    let bb = boot(BbConfig::full());
    assert_eq!(conv.boot_time().to_string(), "8614.474ms");
    assert_eq!(bb.boot_time().to_string(), "3200.077ms");
    // Conventional boots run zero passes; full BB runs all seven.
    assert!(conv.deltas.is_empty());
    assert_eq!(bb.deltas.len(), 7);
}
