//! External kernel module (`.ko`) loading versus deferred built-ins.
//!
//! A conventional embedded Linux defers hardware support by building
//! components as external modules and loading them from user space
//! (408 `.ko` files on a 2015 Samsung TV). Each load pays open/read/
//! close syscalls, flash I/O for the module image, and relocation/link
//! work — all *during* the boot-time service phase, competing with
//! services for CPU and storage.
//!
//! The On-demand Modularizer instead keeps components built-in but
//! *defers their initcalls*, which "drastically reduced the number of
//! system calls (e.g. open, read, and close) required to load many
//! external modules into volatile memory" (§3.1). This module provides
//! the cost models for both paths.

use bb_sim::{DeviceId, Op, OpsBuilder, SimDuration};

use crate::initcall::Criticality;

/// One loadable kernel component.
#[derive(Debug, Clone)]
pub struct KernelModule {
    /// Module name (`dvb-frontend`, `btusb`, …).
    pub name: String,
    /// Size of the `.ko` image on flash.
    pub image_bytes: u64,
    /// Reference CPU cost of the component's own init routine.
    pub init_cost: SimDuration,
    /// Whether boot can complete without it.
    pub criticality: Criticality,
}

/// Cost parameters of the external-module loading path.
#[derive(Debug, Clone, Copy)]
pub struct ModuleLoadCosts {
    /// CPU cost per syscall (open/read/close + mode switches).
    pub syscall_cost: SimDuration,
    /// Syscalls issued per module load (open + N reads + close + init).
    pub syscalls_per_module: u32,
    /// CPU cost of relocation/linking per KiB of module image.
    pub link_cost_per_kib: SimDuration,
}

impl Default for ModuleLoadCosts {
    fn default() -> Self {
        ModuleLoadCosts {
            syscall_cost: SimDuration::from_micros(25),
            syscalls_per_module: 40,
            link_cost_per_kib: SimDuration::from_micros(16),
        }
    }
}

/// A machine's set of loadable components.
#[derive(Debug, Clone, Default)]
pub struct ModuleCatalog {
    /// All modules.
    pub modules: Vec<KernelModule>,
    /// External-load cost parameters.
    pub costs: ModuleLoadCosts,
}

impl ModuleCatalog {
    /// Creates a catalog with default load costs.
    pub fn new(modules: Vec<KernelModule>) -> Self {
        ModuleCatalog {
            modules,
            costs: ModuleLoadCosts::default(),
        }
    }

    /// Number of modules.
    pub fn len(&self) -> usize {
        self.modules.len()
    }

    /// True if the catalog is empty.
    pub fn is_empty(&self) -> bool {
        self.modules.is_empty()
    }

    /// CPU overhead of loading one module as an external `.ko`
    /// (syscalls + linking), excluding flash I/O and the init routine.
    fn external_overhead(&self, m: &KernelModule) -> SimDuration {
        let syscalls = self.costs.syscall_cost * u64::from(self.costs.syscalls_per_module);
        let link = self.costs.link_cost_per_kib * m.image_bytes.div_ceil(1024);
        syscalls + link
    }

    /// The op list of a user-space loader that loads `m` as an external
    /// module from `device`: flash read + syscall/link CPU + init CPU.
    pub fn external_load_ops(&self, m: &KernelModule, device: DeviceId) -> Vec<Op> {
        OpsBuilder::new()
            .compute(self.external_overhead(m))
            .read_rand(device, m.image_bytes)
            .compute(m.init_cost)
            .build()
    }

    /// The op list of a deferred built-in initialization for `m`: just
    /// the init routine — the image is already in the kernel, no
    /// syscalls, no flash I/O.
    pub fn deferred_builtin_ops(&self, m: &KernelModule) -> Vec<Op> {
        OpsBuilder::new().compute(m.init_cost).build()
    }

    /// Total flash bytes the external path reads.
    pub fn total_image_bytes(&self) -> u64 {
        self.modules.iter().map(|m| m.image_bytes).sum()
    }

    /// Total CPU cost of the external path (overhead + init) for modules
    /// matching `criticality` (all when `None`).
    pub fn external_cpu_cost(&self, criticality: Option<Criticality>) -> SimDuration {
        self.modules
            .iter()
            .filter(|m| criticality.is_none_or(|c| m.criticality == c))
            .map(|m| self.external_overhead(m) + m.init_cost)
            .sum()
    }

    /// Modules that can be deferred past boot completion.
    pub fn deferrable(&self) -> impl Iterator<Item = &KernelModule> {
        self.modules
            .iter()
            .filter(|m| m.criticality == Criticality::Deferrable)
    }

    /// Modules that must be available for boot.
    pub fn boot_critical(&self) -> impl Iterator<Item = &KernelModule> {
        self.modules
            .iter()
            .filter(|m| m.criticality == Criticality::BootCritical)
    }
}

/// Builds a synthetic catalog of `n` modules resembling a 2015 TV's 408
/// `.ko` set: sizes in the tens-to-hundreds of KiB, a small minority
/// boot-critical. Deterministic in `n`.
pub fn synthetic_catalog(n: usize) -> ModuleCatalog {
    let mut modules = Vec::with_capacity(n);
    for i in 0..n {
        // Sizes cycle deterministically between ~16 KiB and ~200 KiB.
        let image_bytes = 32 * 1024 + (i as u64 * 7919) % (288 * 1024);
        let init_cost = SimDuration::from_micros(800 + (i as u64 * 131) % 1600);
        let criticality = if i % 12 == 0 {
            Criticality::BootCritical
        } else {
            Criticality::Deferrable
        };
        modules.push(KernelModule {
            name: format!("mod{i:03}"),
            image_bytes,
            init_cost,
            criticality,
        });
    }
    ModuleCatalog::new(modules)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn external_path_costs_more_than_deferred_builtin() {
        let cat = synthetic_catalog(10);
        for m in &cat.modules {
            let ext = cat.external_overhead(m) + m.init_cost;
            assert!(ext > m.init_cost);
            let ops = cat.external_load_ops(m, DeviceId::from_raw(0));
            assert_eq!(ops.len(), 3);
            let builtin = cat.deferred_builtin_ops(m);
            assert_eq!(builtin.len(), 1);
        }
    }

    #[test]
    fn synthetic_catalog_is_deterministic_and_mostly_deferrable() {
        let a = synthetic_catalog(408);
        let b = synthetic_catalog(408);
        assert_eq!(a.len(), 408);
        assert_eq!(a.total_image_bytes(), b.total_image_bytes());
        let critical = a.boot_critical().count();
        let deferrable = a.deferrable().count();
        assert_eq!(critical + deferrable, 408);
        assert!(critical * 5 < deferrable, "{critical} vs {deferrable}");
    }

    #[test]
    fn cpu_cost_partitions_sum_to_total() {
        let cat = synthetic_catalog(50);
        let total = cat.external_cpu_cost(None);
        let crit = cat.external_cpu_cost(Some(Criticality::BootCritical));
        let defer = cat.external_cpu_cost(Some(Criticality::Deferrable));
        assert_eq!(total, crit + defer);
    }

    #[test]
    fn four_hundred_modules_cost_hundreds_of_ms() {
        // Sanity: the external path for a TV-scale catalog should be in
        // the hundreds-of-milliseconds range the paper attributes to it.
        let cat = synthetic_catalog(408);
        let cpu = cat.external_cpu_cost(None);
        assert!(
            (400..2500).contains(&cpu.as_millis()),
            "external CPU cost {cpu}"
        );
    }
}
