//! E6 — Figure 7: partial BB Group isolation of `var.mount`.
//!
//! The paper's §4.2 experiment: about a dozen services abusively declare
//! `Before=var.mount` to launch early; because `dbus.service` depends on
//! `var.mount`, every D-Bus client is delayed. Manually adding *only*
//! `var.mount` to the BB Group (everything else conventional, the full
//! isolator disabled) advanced the dbus launch from 450 ms to 195 ms.
//!
//! We run the same manipulation via a [`BootRequest`] plan tweak and
//! report dbus's launch time measured from user-space start, plus both
//! bootcharts.

use bb_core::{BbConfig, BootRequest};
use bb_init::Bootchart;
use bb_sim::{SimDuration, SimTime};
use bb_workloads::tv_scenario;

/// One side of the comparison.
#[derive(Debug)]
pub struct Side {
    /// Label.
    pub name: &'static str,
    /// var.mount ready time (from user-space start).
    pub var_mount_ready: SimDuration,
    /// dbus.service launch (first dispatch) time (from user-space start).
    pub dbus_started: SimDuration,
    /// dbus.service ready time (from user-space start).
    pub dbus_ready: SimDuration,
    /// Boot completion.
    pub boot_time: SimTime,
    /// SVG bootchart.
    pub svg: String,
}

/// The Figure 7 experiment output.
#[derive(Debug)]
pub struct Fig7 {
    /// Fully conventional.
    pub conventional: Side,
    /// var.mount manually isolated.
    pub isolated: Side,
}

fn measure(name: &'static str, isolate_var_mount: bool) -> Side {
    let scenario = tv_scenario();
    let cfg = BbConfig::conventional();
    // The bootchart's CPU row reads the machine's core spans.
    let mut request = BootRequest::new(&scenario).config(cfg).core_spans(true);
    if isolate_var_mount {
        request = request.tweak(|graph, transaction, overrides| {
            let var = graph.idx_of("var.mount");
            assert!(transaction.jobs.contains(&var));
            overrides.isolate.insert(var);
            overrides.dispatch_first.push(var);
            overrides.nice.insert(var, -15);
        });
    }
    let boot = request.run().expect("valid");
    let (report, machine) = (boot.report, boot.machine);
    let us = report.boot.userspace_start;
    let since_us = |t: Option<SimTime>| t.expect("service ran").saturating_since(us);
    let var = report.boot.service("var.mount");
    let dbus = report.boot.service("dbus.service");
    let chart = Bootchart::build(&report.boot, &machine);
    Side {
        name,
        var_mount_ready: since_us(var.ready),
        dbus_started: since_us(dbus.started),
        dbus_ready: since_us(dbus.ready),
        boot_time: report.boot_time(),
        svg: chart.to_svg(),
    }
}

/// Runs the experiment.
pub fn run() -> Fig7 {
    Fig7 {
        conventional: measure("conventional", false),
        isolated: measure("var.mount in BB Group", true),
    }
}

impl Fig7 {
    /// Text rendering.
    pub fn render(&self) -> String {
        use std::fmt::Write as _;
        let mut s = String::new();
        let _ = writeln!(
            s,
            "Figure 7 — isolating var.mount advances dbus.service (§4.2)"
        );
        let _ = writeln!(
            s,
            "  {:<24} {:>16} {:>14} {:>12}",
            "configuration", "var.mount ready", "dbus launch", "dbus ready"
        );
        for side in [&self.conventional, &self.isolated] {
            let _ = writeln!(
                s,
                "  {:<24} {:>16} {:>14} {:>12}",
                side.name,
                side.var_mount_ready.to_string(),
                side.dbus_started.to_string(),
                side.dbus_ready.to_string()
            );
        }
        let _ = writeln!(
            s,
            "  (paper: dbus launch advanced 450 ms -> 195 ms; times from init start)"
        );
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn isolation_advances_dbus_substantially() {
        let f = run();
        assert!(
            f.isolated.dbus_started.as_nanos() * 2 <= f.conventional.dbus_started.as_nanos(),
            "dbus launch {} vs {}",
            f.isolated.dbus_started,
            f.conventional.dbus_started
        );
        assert!(f.isolated.var_mount_ready < f.conventional.var_mount_ready);
    }

    #[test]
    fn only_var_mount_is_touched_boot_still_valid() {
        let f = run();
        // Partial isolation alone should not hurt the overall boot.
        assert!(f.isolated.boot_time <= f.conventional.boot_time);
        assert!(f.isolated.svg.starts_with("<svg"));
        assert!(run().render().contains("450 ms"));
    }
}
