//! E15 — extension: boot-time variance across workload instances.
//!
//! §2.5.3: "the complicated dependency structure with non-determinism
//! and dynamicity result in a boot time that varies among instances",
//! and §5: with isolation "system administrators can maintain a
//! consistent booting time with on-going development of other OS
//! services". We quantify both: the same TV stack regenerated with
//! different seeds (different service durations, edges, and false
//! orderings — the instance-to-instance churn of a living platform)
//! boots with large spread conventionally and almost none under BB,
//! whose completion is pinned to the stable broadcast chain.
//!
//! The seed sweep itself runs on the bb-fleet work-stealing pool: one
//! cell, one seed per instance, conventional and full-BB configs per
//! job — the aggregator's per-config statistics are the spread.

use bb_fleet::{run_sweep, CellSpec, ConfigStats, FleetCache, PoolConfig, SweepSpec};
use bb_sim::SimTime;
use bb_workloads::{profiles, TizenParams};

/// Spread statistics over the seed sweep.
#[derive(Debug, Clone, Copy)]
pub struct Spread {
    /// Mean boot time in seconds.
    pub mean_s: f64,
    /// Standard deviation in seconds.
    pub stddev_s: f64,
    /// Minimum observed.
    pub min: SimTime,
    /// Maximum observed.
    pub max: SimTime,
}

impl Spread {
    fn from_stats(stats: &ConfigStats) -> Spread {
        assert!(stats.count > 0, "sweep produced no samples");
        Spread {
            mean_s: stats.mean_ns / 1e9,
            stddev_s: stats.stddev_ns / 1e9,
            min: SimTime::from_nanos(stats.min_ns),
            max: SimTime::from_nanos(stats.max_ns),
        }
    }

    /// Coefficient of variation in percent.
    fn cv_percent(&self) -> f64 {
        100.0 * self.stddev_s / self.mean_s
    }
}

/// The E15 output.
#[derive(Debug)]
pub struct Variance {
    /// Number of workload instances (seeds).
    pub instances: usize,
    /// Conventional spread.
    pub conventional: Spread,
    /// Full-BB spread.
    pub bb: Spread,
}

/// Runs the experiment over `instances` regenerated workloads.
fn run_with(instances: usize) -> Variance {
    let spec = SweepSpec::new().cell(
        CellSpec::tizen("variance", profiles::ue48h6200(), TizenParams::commercial())
            .seeds((0..instances as u64).map(|i| 9000 + i))
            .conventional_vs_bb(),
    );
    let outcome = run_sweep(&spec, &PoolConfig::default(), &FleetCache::fresh());
    let cell = &outcome.report.cells[0];
    assert_eq!(
        cell.completed, instances,
        "instances failed: {:?}",
        outcome.report.failures
    );
    Variance {
        instances,
        conventional: Spread::from_stats(&cell.configs[0]),
        bb: Spread::from_stats(&cell.configs[1]),
    }
}

/// Runs the experiment at the default instance count.
pub fn run() -> Variance {
    run_with(12)
}

impl Variance {
    /// Text rendering.
    pub fn render(&self) -> String {
        use std::fmt::Write as _;
        let mut s = String::new();
        let _ = writeln!(
            s,
            "Boot-time spread over {} regenerated workload instances:",
            self.instances
        );
        for (name, sp) in [("conventional", &self.conventional), ("bb", &self.bb)] {
            let _ = writeln!(
                s,
                "  {:<14} mean {:.3} s  stddev {:.3} s (cv {:.1}%)  range {} .. {}",
                name,
                sp.mean_s,
                sp.stddev_s,
                sp.cv_percent(),
                sp.min,
                sp.max
            );
        }
        let _ = writeln!(
            s,
            "  (§2.5.3/§5: conventional boot varies with platform churn; BB's\n   completion is pinned to the isolated critical chain)"
        );
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bb_is_dramatically_more_consistent() {
        let v = run_with(8);
        assert!(
            v.bb.cv_percent() * 3.0 < v.conventional.cv_percent(),
            "bb cv {:.2}% vs conventional cv {:.2}%",
            v.bb.cv_percent(),
            v.conventional.cv_percent()
        );
        // And faster on every instance.
        assert!(v.bb.max < v.conventional.min);
        assert!(run_with(3).render().contains("stddev"));
    }
}
