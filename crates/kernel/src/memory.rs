//! Memory-initialization model.
//!
//! The kernel zeroes and registers physical memory (struct-page init,
//! zone setup) proportionally to DRAM size; "initializing only the
//! required size of memory and defer\[ring\] initializing the remaining
//! area … may take too much time with modern large-memory computing
//! devices" (§3.1). On the UE48H6200 (1 GiB) the paper reports 370 ms
//! conventional vs 110 ms with deferral.

use bb_sim::{OpsBuilder, ProcessSpec, SimDuration};

/// DRAM initialization plan.
#[derive(Debug, Clone, Copy)]
pub struct MemoryPlan {
    /// Total DRAM size in MiB.
    pub total_mib: u64,
    /// MiB initialized eagerly at kernel boot when deferral is on.
    pub required_mib: u64,
    /// Fixed setup cost independent of size.
    pub base_cost: SimDuration,
    /// Reference CPU cost per MiB initialized.
    pub per_mib_cost: SimDuration,
}

impl MemoryPlan {
    /// The UE48H6200 TV plan: 1 GiB total, calibrated so that full init
    /// costs ≈370 ms and deferred init ≈110 ms (paper Figure 6(a)).
    pub fn tv_1gib() -> Self {
        MemoryPlan {
            total_mib: 1024,
            required_mib: 296,
            base_cost: SimDuration::from_millis(4),
            per_mib_cost: SimDuration::from_micros(357),
        }
    }

    /// Cost of initializing all DRAM at boot (conventional).
    pub fn full_init_cost(&self) -> SimDuration {
        self.base_cost + self.per_mib_cost * self.total_mib
    }

    /// Cost of initializing only the required region at boot (deferred).
    ///
    /// # Panics
    ///
    /// Panics if `required_mib > total_mib`.
    pub fn eager_init_cost(&self) -> SimDuration {
        assert!(self.required_mib <= self.total_mib, "required > total");
        self.base_cost + self.per_mib_cost * self.required_mib
    }

    /// Cost of the deferred remainder (runs post-boot in background).
    fn deferred_init_cost(&self) -> SimDuration {
        self.per_mib_cost * (self.total_mib - self.required_mib)
    }

    /// The background process that initializes the deferred region after
    /// the given flag (boot completion) is set. Runs at low priority.
    pub fn deferred_init_process(&self, gate: bb_sim::FlagId) -> ProcessSpec {
        ProcessSpec::new(
            "kworker/mem-deferred-init",
            OpsBuilder::new()
                .wait_flag(gate)
                .compute(self.deferred_init_cost())
                .build(),
        )
        .with_nice(15)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tv_plan_matches_paper_figures() {
        let p = MemoryPlan::tv_1gib();
        let full = p.full_init_cost().as_millis();
        let eager = p.eager_init_cost().as_millis();
        assert!((360..=380).contains(&full), "full {full} ms");
        assert!((100..=120).contains(&eager), "eager {eager} ms");
    }

    #[test]
    fn costs_partition() {
        let p = MemoryPlan::tv_1gib();
        let whole = p.eager_init_cost() + p.deferred_init_cost();
        // Eager + deferred covers all memory plus the base cost once.
        assert_eq!(whole, p.full_init_cost());
    }

    #[test]
    fn deferred_process_is_gated_and_low_priority() {
        let p = MemoryPlan::tv_1gib();
        let spec = p.deferred_init_process(bb_sim::FlagId::from_raw(0));
        assert_eq!(spec.nice, 15);
        assert_eq!(spec.ops.len(), 2);
    }

    #[test]
    #[should_panic(expected = "required > total")]
    fn eager_more_than_total_panics() {
        let p = MemoryPlan {
            total_mib: 100,
            required_mib: 200,
            base_cost: SimDuration::ZERO,
            per_mib_cost: SimDuration::from_micros(1),
        };
        p.eager_init_cost();
    }
}
