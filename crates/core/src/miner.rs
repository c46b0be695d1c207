//! Dependency miner: the automated dependency-verification mechanism
//! the paper calls for in §5.
//!
//! "If the size of BB Group grows (and surely will grow in a few
//! years), an automated mechanism will be required to verify dependency
//! declarations to remove or add dependencies" — and since developers
//! over-declare ("some developers tend to declare excessive dependencies
//! to feel safer"), the administrators "are virtually forced to ignore
//! what they have declared by experimenting with all possible launching
//! sequences".
//!
//! The miner automates exactly that experiment loop:
//!
//! 1. **Observe** an instrumented boot and classify every ordering edge
//!    by *slack* — how long the prerequisite had been ready before the
//!    dependent started. Edges with large slack never gated anything.
//! 2. **Verify** each removal candidate by re-running the boot with the
//!    edge ignored and checking that every service still becomes ready
//!    and boot completion is preserved.
//!
//! The result is a minimal-risk set of removable declarations plus the
//! boot-time improvement of removing them.

use std::collections::BTreeSet;

use bb_sim::{SimDuration, SimTime};

use crate::booster::{BootRequest, Scenario};
use crate::config::BbConfig;
use crate::error::Error;
use crate::telemetry::ordering_edge_slacks;
pub use crate::telemetry::EdgeSlack;

/// The mining result.
#[derive(Debug)]
pub struct MiningReport {
    /// Every in-transaction ordering edge, most slack first.
    pub edges: Vec<EdgeSlack>,
    /// Edges whose removal was verified safe (all services still ready,
    /// completion preserved).
    pub verified_removable: Vec<EdgeSlack>,
    /// Boot time of the observed baseline run.
    pub baseline_boot: SimTime,
    /// Boot time with every verified-removable edge dropped.
    pub pruned_boot: SimTime,
}

/// Minimum observed slack for an edge to become a removal candidate.
pub const SLACK_THRESHOLD: SimDuration = SimDuration::from_millis(50);

/// Mines the scenario's ordering declarations under `cfg`.
///
/// `max_candidates` bounds the verification re-runs (each is one full
/// boot simulation); candidates are taken in slack order.
pub fn mine(
    scenario: &Scenario,
    cfg: &BbConfig,
    max_candidates: usize,
) -> Result<MiningReport, Error> {
    // 1. Observe: the critical-path profiler's shared slack computation
    // classifies every ordering edge from one instrumented boot.
    let baseline = BootRequest::new(scenario).config(*cfg).run()?.report;
    let edges = ordering_edge_slacks(&scenario.unit_plan()?.graph, &baseline.boot);

    // 2. Verify candidates one at a time (conservative: each edge is
    // tested against the otherwise-unmodified boot).
    let mut verified: Vec<EdgeSlack> = Vec::new();
    for cand in edges
        .iter()
        .filter(|e| e.slack.is_some_and(|s| s >= SLACK_THRESHOLD))
        .take(max_candidates)
    {
        let pair = cand.idx;
        let run = BootRequest::new(scenario)
            .config(*cfg)
            .tweak(move |_, _, overrides| {
                overrides.drop_edges.insert(pair);
            })
            .run()?
            .report;
        let safe = run.boot.completion_time.is_some()
            && run.boot.outcome.failed.is_empty()
            && run.boot.services.values().all(|r| r.ready.is_some());
        if safe {
            verified.push(cand.clone());
        }
    }

    // 3. Measure the pruned boot with all verified removals applied.
    let pairs: BTreeSet<(usize, usize)> = verified.iter().map(|e| e.idx).collect();
    let pruned = BootRequest::new(scenario)
        .config(*cfg)
        .tweak(|_, _, overrides| {
            overrides.drop_edges.extend(pairs.iter().copied());
        })
        .run()?
        .report;

    Ok(MiningReport {
        edges,
        verified_removable: verified,
        baseline_boot: baseline.boot_time(),
        pruned_boot: pruned.boot_time(),
    })
}

impl MiningReport {
    /// Edges that actually gated their dependents in the observed run.
    pub fn binding_edges(&self) -> impl Iterator<Item = &EdgeSlack> {
        self.edges.iter().filter(|e| e.slack.is_none())
    }

    /// Text rendering of the top removal candidates.
    pub fn render(&self, top: usize) -> String {
        use std::fmt::Write as _;
        let mut s = String::new();
        let _ = writeln!(
            s,
            "dependency miner: {} ordering edges observed, {} binding, {} verified removable",
            self.edges.len(),
            self.binding_edges().count(),
            self.verified_removable.len()
        );
        let _ = writeln!(
            s,
            "boot: baseline {} -> pruned {}",
            self.baseline_boot, self.pruned_boot
        );
        for e in self.verified_removable.iter().take(top) {
            let _ = writeln!(
                s,
                "  removable: {} -> {} (slack {})",
                e.src,
                e.dst,
                e.slack.expect("candidates have slack")
            );
        }
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::booster::tests::mini_tv;

    #[test]
    fn miner_finds_the_varmount_abusers() {
        // In the mini TV scenario two services declare Before=var.mount
        // purely to launch early (§4.2); with conventional boot those
        // edges are binding-ish early but the reverse direction (their
        // own readiness gating var.mount) shows up as removable slack
        // elsewhere. At minimum: the miner runs, verifies candidates,
        // and never makes boot worse.
        let s = mini_tv();
        let report = mine(&s, &BbConfig::conventional(), 8).expect("mines");
        assert!(!report.edges.is_empty());
        // Every verified removal keeps the boot complete and not slower
        // than baseline beyond noise.
        assert!(
            report.pruned_boot.as_nanos() <= report.baseline_boot.as_nanos() + 10_000_000,
            "pruning made boot worse: {} vs {}",
            report.pruned_boot,
            report.baseline_boot
        );
        for e in &report.verified_removable {
            assert!(e.slack.expect("has slack") >= SLACK_THRESHOLD);
        }
    }

    #[test]
    fn binding_edges_are_reported() {
        // The backbone chain (var.mount -> dbus -> tuner -> fasttv) must
        // contain binding edges: those cannot be removal candidates.
        let s = mini_tv();
        let report = mine(&s, &BbConfig::conventional(), 4).expect("mines");
        let binding: Vec<String> = report
            .binding_edges()
            .map(|e| format!("{}->{}", e.src, e.dst))
            .collect();
        assert!(
            binding.iter().any(|e| e.contains("dbus.service")),
            "no binding edge around dbus: {binding:?}"
        );
        // Rendering works.
        assert!(report.render(5).contains("dependency miner"));
    }
}
