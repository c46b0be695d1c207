//! Kernel initcalls: the ordered initialization hooks of built-in
//! kernel components.
//!
//! Linux runs built-in component initialization through leveled initcall
//! sections (`early_initcall` … `late_initcall`). The paper's On-demand
//! Modularizer (Core Engine, §3.1) tags non-boot-critical built-in
//! components and defers their initcalls until after boot completion,
//! avoiding both the serial kernel-boot cost *and* the user-space
//! alternative of loading external `.ko` modules (which pays open/read/
//! close syscalls and flash I/O per module — a 2015 Samsung TV has 408
//! of them).

use bb_sim::SimDuration;

/// Linux initcall levels, in execution order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum InitcallLevel {
    /// `early_initcall`: before SMP bring-up.
    Early,
    /// `pure_initcall` / `core_initcall`.
    Core,
    /// `postcore_initcall`.
    PostCore,
    /// `arch_initcall`.
    Arch,
    /// `subsys_initcall`.
    Subsys,
    /// `fs_initcall`.
    Fs,
    /// `device_initcall` (plain `module_init` for built-ins).
    Device,
    /// `late_initcall`.
    Late,
}

impl InitcallLevel {
    /// All levels in execution order.
    pub const ALL: [InitcallLevel; 8] = [
        InitcallLevel::Early,
        InitcallLevel::Core,
        InitcallLevel::PostCore,
        InitcallLevel::Arch,
        InitcallLevel::Subsys,
        InitcallLevel::Fs,
        InitcallLevel::Device,
        InitcallLevel::Late,
    ];
}

/// Whether a component must initialize before user space can boot.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Criticality {
    /// Required to reach the init process (storage, console, clocks…).
    BootCritical,
    /// Usable after boot completion (USB, bluetooth, debug, tracing…);
    /// a candidate for On-demand Modularizer deferral.
    Deferrable,
}

/// One built-in kernel component's initialization hook.
#[derive(Debug, Clone)]
pub struct Initcall {
    /// Component name (e.g. `usb-host`, `emmc-ctrl`).
    pub name: String,
    /// Execution level.
    pub level: InitcallLevel,
    /// Reference CPU cost of running the hook.
    pub cost: SimDuration,
    /// Boot-criticality classification.
    pub criticality: Criticality,
}

impl Initcall {
    /// Creates an initcall.
    pub fn new(
        name: impl Into<String>,
        level: InitcallLevel,
        cost: SimDuration,
        criticality: Criticality,
    ) -> Self {
        Initcall {
            name: name.into(),
            level,
            cost,
            criticality,
        }
    }
}

/// The kernel's registered initcalls, ordered by level.
#[derive(Debug, Clone, Default)]
pub struct InitcallRegistry {
    calls: Vec<Initcall>,
}

impl InitcallRegistry {
    /// Creates an empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers an initcall.
    pub fn register(&mut self, call: Initcall) {
        self.calls.push(call);
    }

    /// All calls in level order (stable within a level).
    fn in_order(&self) -> Vec<&Initcall> {
        let mut v: Vec<&Initcall> = self.calls.iter().collect();
        v.sort_by_key(|c| c.level);
        v
    }

    /// Number of registered calls.
    pub fn len(&self) -> usize {
        self.calls.len()
    }

    /// True if no calls are registered.
    pub fn is_empty(&self) -> bool {
        self.calls.is_empty()
    }

    /// Total cost of calls matching `criticality`.
    pub fn total_cost(&self, criticality: Option<Criticality>) -> SimDuration {
        self.calls
            .iter()
            .filter(|c| criticality.is_none_or(|k| c.criticality == k))
            .map(|c| c.cost)
            .sum()
    }

    /// Splits into (run-at-boot, deferred) according to `defer_deferrable`:
    /// when true, every [`Criticality::Deferrable`] call is deferred
    /// (the On-demand Modularizer's partition); when false, everything
    /// runs at boot.
    pub fn partition(&self, defer_deferrable: bool) -> (Vec<&Initcall>, Vec<&Initcall>) {
        let ordered = self.in_order();
        if !defer_deferrable {
            return (ordered, Vec::new());
        }
        ordered
            .into_iter()
            .partition(|c| c.criticality == Criticality::BootCritical)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn registry() -> InitcallRegistry {
        let mut r = InitcallRegistry::new();
        r.register(Initcall::new(
            "usb-host",
            InitcallLevel::Device,
            SimDuration::from_millis(8),
            Criticality::Deferrable,
        ));
        r.register(Initcall::new(
            "emmc-ctrl",
            InitcallLevel::Subsys,
            SimDuration::from_millis(5),
            Criticality::BootCritical,
        ));
        r.register(Initcall::new(
            "clk-core",
            InitcallLevel::Core,
            SimDuration::from_millis(2),
            Criticality::BootCritical,
        ));
        r
    }

    #[test]
    fn ordering_by_level() {
        let r = registry();
        let names: Vec<&str> = r.in_order().iter().map(|c| c.name.as_str()).collect();
        assert_eq!(names, vec!["clk-core", "emmc-ctrl", "usb-host"]);
    }

    #[test]
    fn totals_by_criticality() {
        let r = registry();
        assert_eq!(r.total_cost(None).as_millis(), 15);
        assert_eq!(r.total_cost(Some(Criticality::BootCritical)).as_millis(), 7);
        assert_eq!(r.total_cost(Some(Criticality::Deferrable)).as_millis(), 8);
    }

    #[test]
    fn partition_defers_only_deferrable() {
        let r = registry();
        let (now, deferred) = r.partition(true);
        assert_eq!(now.len(), 2);
        assert_eq!(deferred.len(), 1);
        assert_eq!(deferred[0].name, "usb-host");
        let (all, none) = r.partition(false);
        assert_eq!(all.len(), 3);
        assert!(none.is_empty());
    }

    #[test]
    fn level_order_is_kernel_order() {
        let mut sorted = InitcallLevel::ALL;
        sorted.sort();
        assert_eq!(sorted, InitcallLevel::ALL);
        assert!(InitcallLevel::Early < InitcallLevel::Late);
    }
}
