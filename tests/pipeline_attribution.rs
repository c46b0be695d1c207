//! Cross-check of the pass pipeline's provenance: the per-pass
//! `PassDelta::estimated_saving` recorded during a *single* full-BB
//! boot must agree, within tolerance, with the per-feature savings the
//! ablation sweep measures by actually re-booting with one mechanism
//! enabled at a time.
//!
//! Passes that share a config flag are compared as a group against the
//! matching solo boot: the two `bb_group` passes (isolation +
//! prioritization) against the `bb_group`-only boot, and the Deferred
//! Executor pass (which owns both task deferral and journal deferral)
//! against a boot with both flags on.

use bb_core::{BbConfig, BootRequest, FullBootReport, Pipeline, Scenario};
use bb_sim::SimDuration;
use bb_workloads::tv_scenario;

fn boost(s: &Scenario, cfg: &BbConfig) -> Result<FullBootReport, bb_core::Error> {
    Ok(BootRequest::new(s).config(*cfg).run()?.report)
}

/// Pass groups, each with the feature list its solo boot enables and
/// its tolerance band: estimated saving must land in
/// `[measured * lo - slack, measured * hi + slack]`. Serial plan edits
/// (memory init, load model, manager tasks) are near-exact, so their
/// bands are tight; contention-mediated passes (module loading, RCU,
/// group handling) are analytic approximations with wide bands.
const GROUPS: &[(&[&str], &str, f64, f64, u64)] = &[
    (&["defer-memory-init"], "defer-memory", 0.9, 1.1, 10),
    (
        &["deferred-executor"],
        "deferred-executor,defer-journal",
        0.5,
        1.5,
        60,
    ),
    (&["pre-parser"], "preparser", 0.7, 1.3, 40),
    (&["ondemand-modularizer"], "modularizer", 0.25, 4.0, 150),
    (&["rcu-booster"], "rcu-booster", 0.25, 4.0, 150),
    (
        &["group-isolator", "bb-manager-priority"],
        "bb-group",
        0.25,
        4.0,
        150,
    ),
];

#[test]
fn delta_attribution_tracks_measured_ablation() {
    let scenario = tv_scenario();
    let pipeline = Pipeline::standard();
    let conv = boost(&scenario, &BbConfig::conventional())
        .unwrap()
        .boot_time();
    let full = boost(&scenario, &BbConfig::full()).unwrap();
    let est = |pass: &str| {
        full.deltas
            .iter()
            .find(|d| d.pass == pass)
            .unwrap_or_else(|| panic!("no delta for {pass}"))
            .estimated_saving
    };

    for &(passes, features, lo, hi, slack_ms) in GROUPS {
        let cfg = BbConfig::from_feature_list(features).unwrap();
        assert!(
            pipeline
                .enabled(&cfg)
                .map(|p| p.name())
                .eq(passes.iter().copied()),
            "{features} enables exactly {passes:?}"
        );
        let solo = boost(&scenario, &cfg).unwrap().boot_time();
        let measured = conv.saturating_since(solo);
        let estimated: SimDuration = passes.iter().map(|p| est(p)).sum();
        let slack = SimDuration::from_millis(slack_ms);
        let lower = measured.scale(lo).saturating_sub(slack);
        let upper = measured.scale(hi) + slack;
        eprintln!("{passes:?}: measured {measured}, estimated {estimated} (band {lower}..{upper})");
        assert!(
            estimated >= lower && estimated <= upper,
            "{passes:?}: estimated {estimated} outside [{lower}, {upper}] (measured {measured})"
        );
    }
}

#[test]
fn delta_total_tracks_full_bb_saving() {
    // The sum of all pass estimates should be the same order of
    // magnitude as the full-BB end-to-end saving. Savings do not
    // compose additively (mechanisms overlap and unblock each other),
    // so only a coarse band is asserted.
    let scenario = tv_scenario();
    let conv = boost(&scenario, &BbConfig::conventional())
        .unwrap()
        .boot_time();
    let full = boost(&scenario, &BbConfig::full()).unwrap();
    let measured = conv.saturating_since(full.boot_time());
    let estimated: SimDuration = full.deltas.iter().map(|d| d.estimated_saving).sum();
    eprintln!("full BB: measured {measured}, estimated sum {estimated}");
    assert!(
        estimated >= measured.scale(0.5) && estimated <= measured.scale(2.0),
        "estimated sum {estimated} vs measured {measured}"
    );
}
