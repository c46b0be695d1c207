//! Custom scenarios: boot *your own* unit files on a simulated device.
//!
//! Downstream users point the tools at a directory of systemd unit
//! files; this module turns the parsed units into a runnable
//! [`Scenario`] by synthesizing deterministic service bodies from the
//! unit metadata (service type, I/O class, and a name-seeded size).
//! Costs are explicitly synthetic — the point is exploring *structure*
//! (ordering, isolation, the BB Group) of a real unit set, not
//! predicting its absolute boot time.

use std::sync::Arc;

use bb_core::{ParseCostParams, Scenario};
use bb_init::{ManagerCosts, ServiceBody, Unit, UnitKind, UnitName, WorkloadMap};
use bb_kernel::synthetic_catalog;
use bb_sim::{DeviceId, OpsBuilder, SimDuration};

use crate::profiles::MachineProfile;
use crate::scenario::tv_kernel_plan;

/// Deterministic small hash of a name (FNV-1a), for body-size jitter.
fn name_hash(name: &str) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in name.bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    h
}

/// Synthesizes a plausible body for a unit: mounts do metadata I/O,
/// sockets are nearly free, services mix CPU, flash reads, and a few
/// `synchronize_rcu` calls, all scaled deterministically by name.
pub fn default_body(unit: &Unit, device: DeviceId) -> ServiceBody {
    let h = name_hash(unit.name.as_str());
    match unit.name.kind() {
        UnitKind::Mount => ServiceBody {
            pre_ready: OpsBuilder::new()
                .read_rand(device, 128 * 1024 + h % (128 * 1024))
                .compute(SimDuration::from_millis(3 + h % 5))
                .build(),
            post_ready: Vec::new(),
        },
        UnitKind::Socket | UnitKind::Target | UnitKind::Device => ServiceBody {
            pre_ready: OpsBuilder::new()
                .compute(SimDuration::from_millis(1))
                .build(),
            post_ready: Vec::new(),
        },
        UnitKind::Service => ServiceBody {
            pre_ready: OpsBuilder::new()
                .read_rand(device, 64 * 1024 + h % (256 * 1024))
                .compute(SimDuration::from_millis(15 + h % 60))
                .rcu_syncs((2 + h % 7) as usize, SimDuration::from_micros(200))
                .build(),
            post_ready: Vec::new(),
        },
    }
}

/// Builds a scenario from parsed units with synthesized bodies.
///
/// `target` is the boot target to expand; `completion` names the units
/// whose readiness defines boot completion (they must exist).
///
/// # Panics
///
/// Panics if `completion` is empty (the BB Group would be undefined).
pub fn custom_scenario(
    profile: MachineProfile,
    units: Vec<Unit>,
    target: &str,
    completion: Vec<UnitName>,
) -> Scenario {
    assert!(!completion.is_empty(), "completion definition required");
    let device = DeviceId::from_raw(0);
    let mut units = units;
    let mut workloads = WorkloadMap::new();
    for unit in &mut units {
        // Ensure every unit has an exec key so bodies can attach.
        let exec = unit
            .exec
            .exec_start
            .clone()
            .unwrap_or_else(|| format!("auto:{}", unit.name));
        unit.exec.exec_start = Some(exec.clone());
        workloads.insert(exec, default_body(unit, device));
    }
    Scenario {
        name: format!("custom-{}-{}units", profile.name, units.len()),
        machine: profile.machine,
        storage: profile.storage,
        kernel: tv_kernel_plan(),
        modules: Arc::default(),
        units,
        workloads: Arc::new(workloads),
        target: target.to_owned(),
        completion,
        manager_costs: ManagerCosts::default(),
        parse_params: ParseCostParams::default(),
        extra_init_tasks: Vec::new(),
    }
}

/// Convenience: empty module catalog variant with TV-scale `.ko` set,
/// for users who want the On-demand Modularizer effect too.
pub fn custom_scenario_with_modules(
    profile: MachineProfile,
    units: Vec<Unit>,
    target: &str,
    completion: Vec<UnitName>,
    module_count: usize,
) -> Scenario {
    let mut s = custom_scenario(profile, units, target, completion);
    s.modules = Arc::new(synthetic_catalog(module_count));
    s
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::profiles;
    use bb_core::{BbConfig, BootRequest, FullBootReport};

    fn boost(s: &Scenario, cfg: &BbConfig) -> Result<FullBootReport, bb_core::Error> {
        Ok(BootRequest::new(s).config(*cfg).run()?.report)
    }
    use bb_init::ServiceType;

    fn units() -> Vec<Unit> {
        vec![
            Unit::new(UnitName::new("boot.target")).requires("app.service"),
            Unit::new(UnitName::new("data.mount")).with_type(ServiceType::Oneshot),
            Unit::new(UnitName::new("bus.service"))
                .needs("data.mount")
                .with_type(ServiceType::Forking),
            Unit::new(UnitName::new("app.service"))
                .needs("bus.service")
                .with_type(ServiceType::Forking),
            Unit::new(UnitName::new("extra.service")).wanted_by("boot.target"),
        ]
    }

    #[test]
    fn custom_units_boot_conventional_and_boosted() {
        let s = custom_scenario(
            profiles::ue48h6200(),
            units(),
            "boot.target",
            vec![UnitName::new("app.service")],
        );
        let conv = boost(&s, &BbConfig::conventional()).expect("boots");
        let bb = boost(&s, &BbConfig::full()).expect("boots");
        assert!(conv.boot.completion_time.is_some());
        assert!(bb.boot_time() <= conv.boot_time());
        // The group derives from the unit structure.
        let names: Vec<&str> = bb.bb_group.iter().map(|n| n.as_str()).collect();
        assert_eq!(names, vec!["data.mount", "bus.service", "app.service"]);
    }

    #[test]
    fn bodies_are_deterministic_per_name() {
        let device = DeviceId::from_raw(0);
        let u = Unit::new(UnitName::new("thing.service"));
        let a = default_body(&u, device);
        let b = default_body(&u, device);
        assert_eq!(a.pre_ready.len(), b.pre_ready.len());
        // Different names, (very likely) different sizes.
        let c = default_body(&Unit::new(UnitName::new("other.service")), device);
        assert_ne!(format!("{:?}", a.pre_ready), format!("{:?}", c.pre_ready));
    }

    #[test]
    #[should_panic(expected = "completion definition required")]
    fn empty_completion_rejected() {
        custom_scenario(profiles::ue48h6200(), units(), "boot.target", vec![]);
    }

    #[test]
    fn modules_variant_includes_catalog() {
        let s = custom_scenario_with_modules(
            profiles::ue48h6200(),
            units(),
            "boot.target",
            vec![UnitName::new("app.service")],
            50,
        );
        assert_eq!(s.modules.len(), 50);
        let conv = boost(&s, &BbConfig::conventional()).expect("boots");
        let bb = boost(&s, &BbConfig::full()).expect("boots");
        assert!(bb.boot_time() <= conv.boot_time());
    }
}
