//! Machine profiles for the devices the paper discusses.
//!
//! The reference CPU of the simulator is one Cortex-A9 core of the
//! UE48H6200 at TV clocks: all workload durations are expressed in that
//! unit, and other devices scale via `core_speed`.

use bb_sim::{DeviceProfile, MachineConfig, RcuMode, RcuParams, SimDuration};

/// A named machine profile: CPU shape plus boot storage.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MachineProfile {
    /// Profile name.
    pub name: &'static str,
    /// CPU/scheduler/RCU configuration.
    pub machine: MachineConfig,
    /// Boot storage device.
    pub storage: DeviceProfile,
    /// DRAM size in MiB (for memory-init and snapshot models).
    pub dram_mib: u64,
}

/// RCU engine parameters calibrated for boot-time behaviour on the TV's
/// kernel (grace periods sub-millisecond, modest reader extension).
pub fn tv_rcu_params() -> RcuParams {
    RcuParams {
        base_grace_period: SimDuration::from_micros(1800),
        per_reader_extension: SimDuration::from_micros(120),
        ctx_switch_cost: SimDuration::from_micros(35),
        boosted_overhead: SimDuration::from_micros(8),
        classic_overhead: SimDuration::from_micros(1),
    }
}

/// The Samsung UE48H6200 (2014): 4× Cortex-A9, 1 GiB DRAM, 8 GiB eMMC
/// at 117/37 MiB/s — the paper's evaluation platform (§4).
pub fn ue48h6200() -> MachineProfile {
    MachineProfile {
        name: "UE48H6200",
        machine: MachineConfig {
            cores: 4,
            core_speed: 1.0,
            quantum: SimDuration::from_millis(1),
            rcu_params: tv_rcu_params(),
            rcu_mode: RcuMode::ClassicSpin,
        },
        storage: DeviceProfile::tv_emmc(),
        dram_mib: 1024,
    }
}

/// An eight-core flagship TV SoC (Samsung JS9500 class, §1).
pub fn js9500() -> MachineProfile {
    MachineProfile {
        name: "JS9500",
        machine: MachineConfig {
            cores: 8,
            core_speed: 1.6,
            quantum: SimDuration::from_millis(1),
            rcu_params: tv_rcu_params(),
            rcu_mode: RcuMode::ClassicSpin,
        },
        storage: DeviceProfile::tv_emmc(),
        dram_mib: 2560,
    }
}

/// An NX300-class mirrorless camera: two slower cores, 512 MiB,
/// eMMC-grade storage (§2.1).
pub fn nx300() -> MachineProfile {
    MachineProfile {
        name: "NX300",
        machine: MachineConfig {
            cores: 2,
            core_speed: 0.8,
            quantum: SimDuration::from_millis(1),
            rcu_params: tv_rcu_params(),
            rcu_mode: RcuMode::ClassicSpin,
        },
        storage: DeviceProfile::tv_emmc(),
        dram_mib: 512,
    }
}

/// A Galaxy-S6-class phone: 8 cores, 3 GiB, UFS 2.0 (§2.1/§2.3).
pub fn galaxy_s6() -> MachineProfile {
    MachineProfile {
        name: "GalaxyS6",
        machine: MachineConfig {
            cores: 8,
            core_speed: 2.2,
            quantum: SimDuration::from_millis(1),
            rcu_params: tv_rcu_params(),
            rcu_mode: RcuMode::ClassicSpin,
        },
        storage: DeviceProfile::ufs20(),
        dram_mib: 3 * 1024,
    }
}

/// A desktop with a consumer SSD (850 Evo class, §4).
pub fn desktop_ssd() -> MachineProfile {
    MachineProfile {
        name: "desktop-ssd",
        machine: MachineConfig {
            cores: 4,
            core_speed: 3.0,
            quantum: SimDuration::from_millis(1),
            rcu_params: tv_rcu_params(),
            rcu_mode: RcuMode::ClassicSpin,
        },
        storage: DeviceProfile::consumer_ssd(),
        dram_mib: 8 * 1024,
    }
}

/// A desktop with a consumer HDD (Barracuda class, §4).
pub fn desktop_hdd() -> MachineProfile {
    MachineProfile {
        name: "desktop-hdd",
        machine: MachineConfig {
            cores: 4,
            core_speed: 3.0,
            quantum: SimDuration::from_millis(1),
            rcu_params: tv_rcu_params(),
            rcu_mode: RcuMode::ClassicSpin,
        },
        storage: DeviceProfile::consumer_hdd(),
        dram_mib: 8 * 1024,
    }
}

/// Every profile, for sweep experiments.
pub fn all_profiles() -> Vec<MachineProfile> {
    vec![
        ue48h6200(),
        js9500(),
        nx300(),
        galaxy_s6(),
        desktop_ssd(),
        desktop_hdd(),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tv_profile_matches_paper_hardware() {
        let p = ue48h6200();
        assert_eq!(p.machine.cores, 4);
        assert_eq!(p.dram_mib, 1024);
        assert_eq!(p.storage.seq_read_bps / bb_sim::MIB, 117);
        assert_eq!(p.storage.rand_read_bps / bb_sim::MIB, 37);
    }

    #[test]
    fn profiles_are_distinct_and_plausible() {
        let all = all_profiles();
        assert_eq!(all.len(), 6);
        let names: std::collections::BTreeSet<_> = all.iter().map(|p| p.name).collect();
        assert_eq!(names.len(), 6);
        for p in &all {
            assert!(p.machine.cores >= 1 && p.machine.cores <= 16);
            assert!(p.machine.core_speed > 0.1);
            assert!(p.dram_mib >= 256);
        }
    }

    #[test]
    fn faster_devices_have_faster_cores() {
        assert!(galaxy_s6().machine.core_speed > ue48h6200().machine.core_speed);
        assert!(nx300().machine.core_speed < ue48h6200().machine.core_speed);
    }
}
