//! Core Engine: kernel-space BB components (§3.1).
//!
//! * *On-demand Modularizer* — partitions kernel components so
//!   non-boot-critical built-ins initialize after boot completion, and
//!   replaces the conventional external-`.ko` loading of the service
//!   phase with deferred built-in initialization. Plan-level knobs
//!   (defer flags, the [`ModuleStrategy`]) are flipped by the
//!   [`crate::pipeline`] passes; this module provides the machine-side
//!   installation.
//! * *RCU Booster* installation is a machine-level mode switch; its
//!   user-space control half lives in [`crate::bootup_engine`].

use bb_kernel::ModuleCatalog;
use bb_sim::{DeviceId, FlagId, Machine, Op, ProcessSpec};

/// How many parallel loader workers handle kernel modules in the
/// conventional path (udev forks several workers).
pub const MODULE_LOADER_WORKERS: usize = 4;

/// How the service phase handles kernel modules — the plan-level knob
/// the [`crate::pipeline::OnDemandModularizer`] pass flips.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ModuleStrategy {
    /// Conventional: every module loads as an external `.ko` during
    /// boot, spread over udev-style loader workers.
    ExternalKo {
        /// Number of parallel loader workers.
        workers: usize,
    },
    /// On-demand Modularizer: deferrable components become built-in
    /// initializations gated on boot completion; only boot-critical
    /// modules initialize eagerly (built-in, no `.ko` overhead).
    DeferredBuiltin,
}

/// Installs kernel-module handling for the service phase according to
/// `strategy` (see [`ModuleStrategy`]). Both paths compete with
/// services for CPU — and, conventionally, for storage too.
///
/// Returns the number of processes spawned.
pub(crate) fn install_module_loading(
    machine: &mut Machine,
    catalog: &ModuleCatalog,
    device: DeviceId,
    strategy: ModuleStrategy,
    boot_complete: FlagId,
) -> usize {
    if catalog.is_empty() {
        return 0;
    }
    let mut spawned = 0;
    if strategy == ModuleStrategy::DeferredBuiltin {
        // Boot-critical components initialize eagerly as built-ins (one
        // worker; the set is small), deferrable ones after completion.
        let eager: Vec<Op> = catalog
            .boot_critical()
            .flat_map(|m| catalog.deferred_builtin_ops(m))
            .collect();
        if !eager.is_empty() {
            machine.spawn(ProcessSpec::new("kworker/builtin-init", eager).with_nice(-5));
            spawned += 1;
        }
        let deferred: Vec<Op> = std::iter::once(Op::WaitFlag(boot_complete))
            .chain(
                catalog
                    .deferrable()
                    .flat_map(|m| catalog.deferred_builtin_ops(m)),
            )
            .collect();
        machine.spawn(ProcessSpec::new("kworker/ondemand-modularizer", deferred).with_nice(10));
        spawned += 1;
    } else {
        // Conventional: everything loads as external `.ko` during boot,
        // spread over a few udev-style workers.
        let workers = match strategy {
            ModuleStrategy::ExternalKo { workers } => workers.max(1),
            ModuleStrategy::DeferredBuiltin => unreachable!(),
        };
        let mut worker_ops: Vec<Vec<Op>> = vec![Vec::new(); workers];
        for (i, m) in catalog.modules.iter().enumerate() {
            worker_ops[i % workers].extend(catalog.external_load_ops(m, device));
        }
        for (i, ops) in worker_ops.into_iter().enumerate() {
            if ops.is_empty() {
                continue;
            }
            machine.spawn(ProcessSpec::new(format!("udev-worker/{i}"), ops).with_nice(0));
            spawned += 1;
        }
    }
    spawned
}

#[cfg(test)]
mod tests {
    use super::*;
    use bb_kernel::synthetic_catalog;
    use bb_sim::{DeviceProfile, MachineConfig, SimTime};

    fn machine() -> (Machine, DeviceId, FlagId) {
        let mut m = Machine::new(MachineConfig::default());
        let dev = m.add_device("emmc", DeviceProfile::tv_emmc());
        let gate = m.flag("boot-complete");
        (m, dev, gate)
    }

    fn external() -> ModuleStrategy {
        ModuleStrategy::ExternalKo {
            workers: MODULE_LOADER_WORKERS,
        }
    }

    #[test]
    fn conventional_module_loading_happens_at_boot() {
        let (mut m, dev, gate) = machine();
        let cat = synthetic_catalog(40);
        let n = install_module_loading(&mut m, &cat, dev, external(), gate);
        assert_eq!(n, MODULE_LOADER_WORKERS);
        let out = m.run();
        // All loads done without the gate ever being set.
        assert!(out.blocked.is_empty());
        assert!(m.device(dev).bytes_read > 0);
        assert!(out.end_time > SimTime::ZERO);
    }

    #[test]
    fn modularizer_defers_most_work_past_completion() {
        let (mut m, dev, gate) = machine();
        let cat = synthetic_catalog(40);
        let n = install_module_loading(&mut m, &cat, dev, ModuleStrategy::DeferredBuiltin, gate);
        assert_eq!(n, 2);
        let before_gate = m.run();
        // Only the eager built-in worker ran; the deferred one blocks.
        assert_eq!(before_gate.blocked.len(), 1);
        // No flash I/O at all: built-ins read nothing.
        assert_eq!(m.device(dev).bytes_read, 0);
        m.set_flag_external(gate);
        let after = m.run();
        assert!(after.blocked.is_empty());
    }

    #[test]
    fn modularizer_pre_completion_work_is_much_smaller() {
        let cat = synthetic_catalog(408);
        let (mut m1, dev1, g1) = machine();
        install_module_loading(&mut m1, &cat, dev1, external(), g1);
        let conv = m1.run().end_time;
        let (mut m2, dev2, g2) = machine();
        install_module_loading(&mut m2, &cat, dev2, ModuleStrategy::DeferredBuiltin, g2);
        let bb = m2.run().end_time;
        assert!(
            bb.as_nanos() * 5 < conv.as_nanos(),
            "modularizer saved too little: {bb} vs {conv}"
        );
    }

    #[test]
    fn empty_catalog_spawns_nothing() {
        let (mut m, dev, gate) = machine();
        let n = install_module_loading(&mut m, &ModuleCatalog::default(), dev, external(), gate);
        assert_eq!(n, 0);
    }
}
