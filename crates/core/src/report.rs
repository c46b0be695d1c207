//! Figure-6-style reporting: per-step comparison of a conventional and a
//! boosted boot, plus per-pass attribution from a single boot's
//! [`PassDelta`] provenance.

use bb_sim::{SimDuration, SimTime};

use crate::booster::FullBootReport;
use crate::pipeline::PassDelta;

/// One comparison row.
#[derive(Debug, Clone)]
pub struct Row {
    /// Step name.
    pub step: String,
    /// Conventional duration.
    pub conventional: SimDuration,
    /// BB duration.
    pub boosted: SimDuration,
}

impl Row {
    /// Absolute saving (saturating).
    pub fn saving(&self) -> SimDuration {
        self.conventional.saturating_sub(self.boosted)
    }
}

/// The Figure 6 breakdown: kernel phases, init initialization, service
/// phase, and the end-to-end total.
#[derive(Debug, Clone)]
pub struct Comparison {
    /// Per-step rows.
    pub rows: Vec<Row>,
    /// Conventional end-to-end boot time.
    pub conventional_total: SimTime,
    /// BB end-to-end boot time.
    pub boosted_total: SimTime,
}

impl Comparison {
    /// Builds the comparison from two runs of the same scenario.
    pub fn build(conv: &FullBootReport, bb: &FullBootReport) -> Comparison {
        let mut rows = Vec::new();
        let phase =
            |r: &FullBootReport, name: &str| r.kernel.phase(name).unwrap_or(SimDuration::ZERO);
        for name in [
            "bootloader",
            "memory-init",
            "initcalls",
            "kernel-misc",
            "rootfs-mount",
        ] {
            rows.push(Row {
                step: format!("kernel: {name}"),
                conventional: phase(conv, name),
                boosted: phase(bb, name),
            });
        }
        rows.push(Row {
            step: "init: initialization".into(),
            conventional: conv.boot.init_done.since(conv.boot.userspace_start),
            boosted: bb.boot.init_done.since(bb.boot.userspace_start),
        });
        rows.push(Row {
            step: "init: load+parse units".into(),
            conventional: conv.boot.load_done.since(conv.boot.init_done),
            boosted: bb.boot.load_done.since(bb.boot.init_done),
        });
        rows.push(Row {
            step: "services & applications".into(),
            conventional: conv.boot.boot_time().since(conv.boot.load_done),
            boosted: bb.boot.boot_time().since(bb.boot.load_done),
        });
        Comparison {
            rows,
            conventional_total: conv.boot_time(),
            boosted_total: bb.boot_time(),
        }
    }

    /// Total saving.
    fn total_saving(&self) -> SimDuration {
        SimTime::saturating_since(self.conventional_total, self.boosted_total)
    }

    /// Percentage reduction in boot time.
    pub fn reduction_percent(&self) -> f64 {
        let conv = self.conventional_total.as_nanos() as f64;
        if conv == 0.0 {
            return 0.0;
        }
        100.0 * self.total_saving().as_nanos() as f64 / conv
    }

    /// Renders the comparison as an aligned text table.
    pub fn to_table(&self) -> String {
        use std::fmt::Write as _;
        let mut s = String::new();
        let _ = writeln!(
            s,
            "{:<28} {:>14} {:>14} {:>12}",
            "step", "conventional", "bb", "saving"
        );
        let _ = writeln!(s, "{}", "-".repeat(72));
        for row in &self.rows {
            let _ = writeln!(
                s,
                "{:<28} {:>14} {:>14} {:>12}",
                row.step,
                row.conventional.to_string(),
                row.boosted.to_string(),
                row.saving().to_string()
            );
        }
        let _ = writeln!(s, "{}", "-".repeat(72));
        let _ = writeln!(
            s,
            "{:<28} {:>14} {:>14} {:>12}  (-{:.1}%)",
            "TOTAL (power-on to ready)",
            format!("{}", self.conventional_total),
            format!("{}", self.boosted_total),
            self.total_saving().to_string(),
            self.reduction_percent()
        );
        s
    }
}

/// Renders per-pass attribution from one boot's [`PassDelta`] records
/// as an aligned text table — the single-boot replacement for deriving
/// Figure 6's per-feature savings from whole ablation sweeps.
pub fn attribution_table(deltas: &[PassDelta]) -> String {
    use std::fmt::Write as _;
    let mut s = String::new();
    let _ = writeln!(s, "{:<22} {:>14}  what moved", "pass", "est. saving");
    let _ = writeln!(s, "{}", "-".repeat(72));
    let mut total = SimDuration::ZERO;
    for d in deltas {
        total += d.estimated_saving;
        let _ = writeln!(
            s,
            "{:<22} {:>14}  {}",
            d.pass,
            d.estimated_saving.to_string(),
            d.summary()
        );
    }
    let _ = writeln!(s, "{}", "-".repeat(72));
    let _ = writeln!(s, "{:<22} {:>14}", "TOTAL (estimated)", total.to_string());
    s
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::booster::{tests::mini_tv, BootRequest};
    use crate::config::BbConfig;

    #[test]
    fn comparison_rows_cover_all_steps() {
        let s = mini_tv();
        let conv = BootRequest::new(&s)
            .config(BbConfig::conventional())
            .run()
            .unwrap()
            .report;
        let bb = BootRequest::new(&s)
            .config(BbConfig::full())
            .run()
            .unwrap()
            .report;
        let cmp = Comparison::build(&conv, &bb);
        assert_eq!(cmp.rows.len(), 8);
        assert!(cmp.total_saving() > SimDuration::ZERO);
        assert!(cmp.reduction_percent() > 0.0);
        let table = cmp.to_table();
        assert!(table.contains("memory-init"));
        assert!(table.contains("services & applications"));
        assert!(table.contains("TOTAL"));
    }

    #[test]
    fn attribution_table_renders_every_pass() {
        let s = mini_tv();
        let bb = BootRequest::new(&s)
            .config(BbConfig::full())
            .run()
            .unwrap()
            .report;
        let table = attribution_table(&bb.deltas);
        for pass in crate::Pipeline::standard().passes() {
            let pass = pass.name();
            assert!(table.contains(pass), "missing {pass} in:\n{table}");
        }
        assert!(table.contains("TOTAL (estimated)"));
    }

    #[test]
    fn step_savings_sum_close_to_total() {
        let s = mini_tv();
        let conv = BootRequest::new(&s)
            .config(BbConfig::conventional())
            .run()
            .unwrap()
            .report;
        let bb = BootRequest::new(&s)
            .config(BbConfig::full())
            .run()
            .unwrap()
            .report;
        let cmp = Comparison::build(&conv, &bb);
        let step_sum: u64 = cmp.rows.iter().map(|r| r.saving().as_nanos()).sum();
        let total = cmp.total_saving().as_nanos();
        // Steps partition the timeline, so savings should add up (small
        // slack for rows where BB is *slower* and saving saturates to 0).
        assert!(step_sum >= total, "steps {step_sum} < total {total}");
    }
}
