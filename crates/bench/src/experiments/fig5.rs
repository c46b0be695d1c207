//! E4 — Figure 5(a): bootcharts with and without the RCU Booster.
//!
//! The paper's systemd-bootchart pair shows that with the booster "more
//! tasks are quickly launched in parallel at booting" — the rows near
//! the bottom start visibly earlier. This experiment runs the TV
//! scenario with only the RCU Booster toggled, renders both charts, and
//! quantifies the effect as (a) boot time, (b) how many services are
//! ready within a fixed window of user-space start, and (c) the mean
//! service start time.

use bb_core::{BbConfig, BootRequest};
use bb_init::Bootchart;
use bb_sim::{RcuStats, SimDuration, SimTime};
use bb_workloads::tv_scenario;

/// One side of the comparison.
#[derive(Debug)]
pub struct Side {
    /// Label.
    pub name: &'static str,
    /// Boot completion time.
    pub boot_time: SimTime,
    /// Services *launched* (first CPU dispatch) within 3 s of user-space
    /// start — the paper's "more tasks are quickly launched in parallel".
    pub launched_in_3s: usize,
    /// Mean service start time (from user-space start).
    pub mean_start: SimDuration,
    /// RCU statistics.
    pub rcu: RcuStats,
    /// ASCII bootchart.
    pub ascii: String,
    /// SVG bootchart.
    pub svg: String,
}

/// The Figure 5(a) experiment output.
#[derive(Debug)]
pub struct Fig5 {
    /// Classic-spin side.
    pub classic: Side,
    /// Boosted side.
    pub boosted: Side,
}

fn side(name: &'static str, rcu_booster: bool) -> Side {
    let scenario = tv_scenario();
    let cfg = BbConfig {
        rcu_booster,
        ..BbConfig::conventional()
    };
    // The bootchart's CPU row reads the machine's core spans.
    let boot = BootRequest::new(&scenario)
        .config(cfg)
        .core_spans(true)
        .run()
        .expect("scenario valid");
    let (report, machine) = (boot.report, boot.machine);
    let chart = Bootchart::build(&report.boot, &machine);
    let us = report.boot.userspace_start;
    let window = us + SimDuration::from_secs(3);
    let launched_in_3s = report
        .boot
        .services
        .values()
        .filter(|r| r.started.is_some_and(|t| t <= window))
        .count();
    let starts: Vec<SimDuration> = report
        .boot
        .services
        .values()
        .filter_map(|r| r.started.map(|t| t.saturating_since(us)))
        .collect();
    let mean_start = if starts.is_empty() {
        SimDuration::ZERO
    } else {
        starts.iter().copied().sum::<SimDuration>() / starts.len() as u64
    };
    Side {
        name,
        boot_time: report.boot_time(),
        launched_in_3s,
        mean_start,
        rcu: report.rcu,
        ascii: chart.to_ascii(100),
        svg: chart.to_svg(),
    }
}

/// Runs the experiment.
pub fn run() -> Fig5 {
    Fig5 {
        classic: side("conventional RCU (ticket spin)", false),
        boosted: side("RCU Booster (blocking mutex)", true),
    }
}

impl Fig5 {
    /// Text rendering (summary; full charts in the artifacts).
    pub fn render(&self) -> String {
        use std::fmt::Write as _;
        let mut s = String::new();
        let _ = writeln!(s, "Figure 5(a) — effect of RCU Booster on the bootchart");
        for side in [&self.classic, &self.boosted] {
            let _ = writeln!(
                s,
                "  {:<34} boot {:>9}  launched<3s {:>4}  mean-start {:>9}  syncs {} (max wait {})",
                side.name,
                side.boot_time.to_string(),
                side.launched_in_3s,
                side.mean_start.to_string(),
                side.rcu.syncs_completed,
                side.rcu.max_wait
            );
        }
        let _ = writeln!(
            s,
            "  (paper: boosted chart launches more tasks earlier; RCU step 2289→461 ms)"
        );
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn booster_launches_more_tasks_earlier() {
        let f = run();
        assert!(f.boosted.boot_time < f.classic.boot_time);
        assert!(
            f.boosted.launched_in_3s > f.classic.launched_in_3s,
            "{} vs {}",
            f.boosted.launched_in_3s,
            f.classic.launched_in_3s
        );
        assert!(f.boosted.mean_start < f.classic.mean_start);
    }

    #[test]
    fn same_sync_count_different_modes() {
        let f = run();
        assert_eq!(f.classic.rcu.syncs_completed, f.boosted.rcu.syncs_completed);
        assert!(f.classic.rcu.classic_syncs > 0);
        assert!(f.boosted.rcu.boosted_syncs > 0);
        assert!(f.classic.ascii.contains("cpu"));
        assert!(f.boosted.svg.starts_with("<svg"));
    }
}
