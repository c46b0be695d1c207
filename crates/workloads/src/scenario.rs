//! Experiment scenarios: full [`Scenario`]s assembled from machine
//! profiles, kernel plans, and generated workloads.

use std::sync::{Arc, OnceLock};

use bb_core::{ParseCostParams, Scenario, UnitPlanSlot};
use bb_init::ManagerCosts;
use bb_kernel::{
    synthetic_catalog, Criticality, Initcall, InitcallLevel, InitcallRegistry, KernelPlan,
    MemoryPlan, ModuleCatalog, RootfsPlan,
};
use bb_sim::{DeviceId, SimDuration, MIB};

use crate::profiles::{self, MachineProfile};
use crate::tizen::{tizen_tv, TizenParams};

/// The kernel plan of the UE48H6200, calibrated to Figure 6(a):
/// conventional kernel ≈698 ms (memory 370, rootfs 110, residual 218)
/// and BB kernel ≈403 ms (memory 110, rootfs 75, residual 218). The
/// initcall registry contains only boot-critical built-ins — the TV's
/// deferrable components are its 408 loadable modules, handled by the
/// On-demand Modularizer during the service phase.
pub fn tv_kernel_plan() -> KernelPlan {
    let mut initcalls = InitcallRegistry::new();
    for (name, level, ms) in [
        ("clk-core", InitcallLevel::Core, 8u64),
        ("pinctrl", InitcallLevel::PostCore, 6),
        ("power-domains", InitcallLevel::Arch, 9),
        ("emmc-host", InitcallLevel::Subsys, 24),
        ("display-panel", InitcallLevel::Subsys, 22),
        ("video-core", InitcallLevel::Subsys, 18),
        ("ext4-core", InitcallLevel::Fs, 8),
        ("input-core", InitcallLevel::Device, 5),
    ] {
        initcalls.register(Initcall::new(
            name,
            level,
            SimDuration::from_millis(ms),
            Criticality::BootCritical,
        ));
    }
    KernelPlan {
        bootloader: SimDuration::from_millis(160),
        image_bytes: 10 * MIB,
        memory: MemoryPlan::tv_1gib(),
        initcalls,
        rootfs: RootfsPlan::tv_emmc(),
        misc: SimDuration::from_millis(118),
        defer_memory: false,
        defer_initcalls: false,
        defer_journal: false,
    }
}

/// The TV's 408 loadable modules and the camera's 120.
static TV_MODULES: OnceLock<Arc<ModuleCatalog>> = OnceLock::new();
static CAMERA_MODULES: OnceLock<Arc<ModuleCatalog>> = OnceLock::new();

/// The synthetic catalog of `n` modules held in `cell`, built on the
/// first call and shared by every scenario after: it depends on the
/// count alone, and no scenario mutates its catalog, so a sweep or a
/// served ticket does not re-format its module names per scenario.
fn shared_catalog(cell: &'static OnceLock<Arc<ModuleCatalog>>, n: usize) -> Arc<ModuleCatalog> {
    Arc::clone(cell.get_or_init(|| Arc::new(synthetic_catalog(n))))
}

/// The headline scenario: the UE48H6200 running the commercialized
/// (250-service) Tizen TV software stack with 408 loadable kernel
/// modules — the configuration behind the paper's Figure 6.
pub fn tv_scenario() -> Scenario {
    tv_scenario_with(profiles::ue48h6200(), TizenParams::commercial())
}

/// The open-source (136-service) variant of the TV scenario (Figure 2).
pub fn tv_scenario_open_source() -> Scenario {
    tv_scenario_with(profiles::ue48h6200(), TizenParams::open_source())
}

/// Assembles a TV scenario from any machine profile and Tizen
/// parameters (used by scaling sweeps).
pub fn tv_scenario_with(profile: MachineProfile, params: TizenParams) -> Scenario {
    // By convention the boot device is the machine's device 0.
    let workload = tizen_tv(&params, DeviceId::from_raw(0));
    Scenario {
        name: format!("{}-tizen{}", profile.name, params.services),
        machine: profile.machine,
        storage: profile.storage,
        kernel: tv_kernel_plan(),
        modules: shared_catalog(&TV_MODULES, 408),
        units: Arc::new(workload.units),
        workloads: Arc::new(workload.workloads),
        target: workload.target,
        completion: workload.completion,
        manager_costs: ManagerCosts::default(),
        parse_params: ParseCostParams::default(),
        extra_init_tasks: Vec::new(),
        unit_plan_slot: UnitPlanSlot::default(),
    }
}

/// An NX300-class camera scenario: a much smaller service set (no app
/// store), two slower cores, and a shutter-readiness completion.
pub fn camera_scenario() -> Scenario {
    let profile = profiles::nx300();
    let params = TizenParams {
        services: 40,
        seed: 300,
        false_ordering_edges: 3,
        ..TizenParams::default()
    };
    let workload = tizen_tv(&params, DeviceId::from_raw(0));
    let mut kernel = tv_kernel_plan();
    kernel.memory = MemoryPlan {
        total_mib: 512,
        required_mib: 160,
        base_cost: SimDuration::from_millis(3),
        per_mib_cost: SimDuration::from_micros(357),
    };
    Scenario {
        name: "NX300-camera".into(),
        machine: profile.machine,
        storage: profile.storage,
        kernel,
        modules: shared_catalog(&CAMERA_MODULES, 120),
        units: Arc::new(workload.units),
        workloads: Arc::new(workload.workloads),
        target: workload.target,
        completion: workload.completion,
        manager_costs: ManagerCosts::default(),
        parse_params: ParseCostParams::default(),
        extra_init_tasks: Vec::new(),
        unit_plan_slot: UnitPlanSlot::default(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bb_core::{BbConfig, BootRequest, FullBootReport};

    fn boost(s: &Scenario, cfg: &BbConfig) -> Result<FullBootReport, bb_core::Error> {
        Ok(BootRequest::new(s).config(*cfg).run()?.report)
    }

    #[test]
    fn fixed_catalogs_are_built_once_per_count() {
        let tv = tv_scenario_open_source();
        assert!(Arc::ptr_eq(&tv.modules, &tv_scenario().modules));
        assert_eq!(tv.modules.modules.len(), 408);
        let camera = camera_scenario();
        assert!(Arc::ptr_eq(&camera.modules, &camera_scenario().modules));
        assert_eq!(camera.modules.modules.len(), 120);
    }

    #[test]
    fn tv_kernel_phases_match_figure6a() {
        use bb_kernel::execute_kernel_boot;
        use bb_sim::{DeviceProfile, Machine};

        let run = |defer: bool| {
            let mut plan = tv_kernel_plan();
            plan.defer_memory = defer;
            plan.defer_journal = defer;
            let mut m = Machine::new(profiles::ue48h6200().machine);
            let dev = m.add_device("emmc", DeviceProfile::tv_emmc());
            let gate = m.flag("boot-complete");
            execute_kernel_boot(&mut m, dev, &plan, gate)
        };
        let conv = run(false);
        let bb = run(true);
        let conv_total = conv.kernel_total().as_millis();
        let bb_total = bb.kernel_total().as_millis();
        assert!(
            (660..=740).contains(&conv_total),
            "conventional kernel {conv_total} ms (paper: 698)"
        );
        assert!(
            (370..=440).contains(&bb_total),
            "bb kernel {bb_total} ms (paper: 403)"
        );
    }

    #[test]
    fn camera_scenario_boots_both_ways() {
        let s = camera_scenario();
        let conv = boost(&s, &BbConfig::conventional()).unwrap();
        let bb = boost(&s, &BbConfig::full()).unwrap();
        assert!(bb.boot_time() < conv.boot_time());
    }

    #[test]
    fn tv_scenario_shape_matches_paper() {
        // The headline calibration: conventional ≈ 8.1 s, BB ≈ 3.5 s.
        // Bands are generous (we reproduce shape, not the testbed), but
        // tight enough that the mechanisms must actually work.
        let s = tv_scenario();
        let conv = boost(&s, &BbConfig::conventional()).unwrap();
        let bb = boost(&s, &BbConfig::full()).unwrap();
        let conv_s = conv.boot_time().as_secs_f64();
        let bb_s = bb.boot_time().as_secs_f64();
        eprintln!("conventional {conv_s:.3} s, bb {bb_s:.3} s");
        assert!(
            (7.0..9.2).contains(&conv_s),
            "conventional {conv_s:.3} s (paper: 8.1)"
        );
        assert!((3.0..4.0).contains(&bb_s), "bb {bb_s:.3} s (paper: 3.5)");
        let reduction = 100.0 * (conv_s - bb_s) / conv_s;
        assert!(
            (45.0..70.0).contains(&reduction),
            "reduction {reduction:.1}% (paper: ~57%)"
        );
        // The automatically identified group is the paper's seven.
        assert_eq!(bb.bb_group.len(), 7);
    }
}
