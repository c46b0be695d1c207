//! E5 — Figure 6: the headline result.
//!
//! Conventional vs full-BB boot of the calibrated UE48H6200 scenario,
//! with the paper's per-step breakdown and per-pass attribution read
//! directly from the full-BB boot's [`PassDelta`] provenance — two
//! boots total, where the pre-pipeline version re-ran 14 per-feature
//! ablation boots to recover the same table. The delta estimates are
//! cross-checked against a real ablation sweep in the workspace
//! integration test `tests/pipeline_attribution.rs`.

use bb_core::pipeline::PassDelta;
use bb_core::{attribution_table, BbConfig, BootRequest, Comparison, FullBootReport};
use bb_workloads::tv_scenario;

/// Per-pass attribution row, derived from the single full-BB boot.
#[derive(Debug, Clone)]
pub struct Attribution {
    /// Pipeline pass name.
    pub pass: &'static str,
    /// What the pass changed in the plan (counts + estimated saving).
    pub delta: PassDelta,
    /// The paper's reported saving for the closest step, if stated.
    pub paper_ms: Option<u64>,
}

/// The Figure 6 experiment output.
#[derive(Debug)]
pub struct Fig6 {
    /// Conventional run.
    pub conventional: FullBootReport,
    /// Full BB run.
    pub bb: FullBootReport,
    /// Phase comparison.
    pub comparison: Comparison,
    /// Per-pass attribution from the full-BB boot's deltas.
    pub attribution: Vec<Attribution>,
}

/// Paper-reported savings (milliseconds) for the closest pipeline pass:
/// RCU Booster 1828 (2289→461), BB Group 1101 (attributed to the
/// isolator row; the paper does not split isolation from manager
/// prioritization), Deferred Executor 496 + 124 init tasks + 35
/// journal deferral, On-demand Modularizer 428, Pre-parser 381
/// (150+231), memory init 260 (370→110).
fn paper_savings(pass: &str) -> Option<u64> {
    Some(match pass {
        "rcu-booster" => 1828,
        "group-isolator" => 1101,
        "deferred-executor" => 496 + 124 + 35,
        "ondemand-modularizer" => 428,
        "pre-parser" => 381,
        "defer-memory-init" => 260,
        _ => return None,
    })
}

/// Runs the experiment: exactly two boots (conventional + full BB); the
/// per-pass table comes from the BB boot's deltas.
pub fn run() -> Fig6 {
    let scenario = tv_scenario();
    let conventional = BootRequest::new(&scenario)
        .config(BbConfig::conventional())
        .run()
        .expect("valid")
        .report;
    let bb = BootRequest::new(&scenario).run().expect("valid").report;

    let attribution = bb
        .deltas
        .iter()
        .map(|d| Attribution {
            pass: d.pass,
            delta: d.clone(),
            paper_ms: paper_savings(d.pass),
        })
        .collect();
    let comparison = Comparison::build(&conventional, &bb);
    Fig6 {
        conventional,
        bb,
        comparison,
        attribution,
    }
}

impl Fig6 {
    /// Text rendering.
    pub fn render(&self) -> String {
        use std::fmt::Write as _;
        let mut s = String::new();
        let _ = writeln!(
            s,
            "Figure 6 — conventional vs Booting Booster (UE48H6200, 250 services)\n"
        );
        s.push_str(&self.comparison.to_table());
        let _ = writeln!(
            s,
            "\n  paper: 8.1 s -> 3.5 s (-57%); BB group: {:?}",
            self.bb
                .bb_group
                .iter()
                .map(|n| n.as_str())
                .collect::<Vec<_>>()
        );
        let _ = writeln!(
            s,
            "\nPer-feature attribution (from the full-BB boot's pass deltas):"
        );
        s.push_str(&attribution_table(&self.bb.deltas));
        let _ = writeln!(s, "\n  {:<22} {:>12}", "pass", "paper");
        for a in &self.attribution {
            let paper = a
                .paper_ms
                .map(|ms| format!("{ms}ms"))
                .unwrap_or_else(|| "-".into());
            let _ = writeln!(s, "  {:<22} {:>12}", a.pass, paper);
        }
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bb_core::STANDARD_PASSES;

    #[test]
    fn headline_bands_hold() {
        let f = run();
        let conv = f.conventional.boot_time().as_secs_f64();
        let bb = f.bb.boot_time().as_secs_f64();
        assert!((7.0..9.2).contains(&conv), "conv {conv}");
        assert!((3.0..4.0).contains(&bb), "bb {bb}");
        assert_eq!(f.attribution.len(), 7);
        let passes: Vec<&str> = f.attribution.iter().map(|a| a.pass).collect();
        assert_eq!(passes, STANDARD_PASSES);
        assert!(f.render().contains("Per-feature attribution"));
    }

    #[test]
    fn rcu_and_group_dominate_attribution() {
        // The paper's two largest levers are the RCU Booster (1828 ms)
        // and BB Group handling (1101 ms); their delta estimates should
        // dominate the small serial passes here as well.
        let f = run();
        let get = |name: &str| {
            f.attribution
                .iter()
                .find(|a| a.pass == name)
                .unwrap()
                .delta
                .estimated_saving
        };
        let rcu = get("rcu-booster");
        let group = get("group-isolator") + get("bb-manager-priority");
        for other in ["defer-memory-init", "pre-parser"] {
            assert!(rcu > get(other), "rcu {} <= {other} {}", rcu, get(other));
            assert!(group > get(other), "group {} <= {other}", group);
        }
    }
}
