//! Calibration pins: exact, deterministic headline numbers.
//!
//! The simulator is bit-for-bit deterministic, so the headline results
//! can be pinned exactly. These tests exist to catch *accidental*
//! calibration drift — if you change a cost model on purpose, update
//! the pins and the tables in EXPERIMENTS.md together.
use booting_booster::bb::{BbConfig, BootRequest, FallbackPolicy, FullBootReport, Scenario};
use booting_booster::sim::FaultPlan;
use booting_booster::workloads::{profiles, tv_scenario, tv_scenario_with, TizenParams};

fn boost(s: &Scenario, cfg: &BbConfig) -> Result<FullBootReport, booting_booster::bb::Error> {
    BootRequest::new(s).config(*cfg).run().map(|b| b.report)
}

#[test]
fn headline_numbers_are_pinned() {
    let scenario = tv_scenario();
    let conv = boost(&scenario, &BbConfig::conventional()).expect("valid");
    let bb = boost(&scenario, &BbConfig::full()).expect("valid");

    let conv_ms = conv.boot_time().as_millis();
    let bb_ms = bb.boot_time().as_millis();
    // Paper: 8100 ms -> 3500 ms. Pinned measured values:
    assert_eq!(
        conv_ms, 8614,
        "conventional drifted (update EXPERIMENTS.md)"
    );
    assert_eq!(bb_ms, 3200, "bb drifted (update EXPERIMENTS.md)");
    // Sub-millisecond pins, in the `{:.3}` ms formatting every JSON
    // report uses: the fault-injection machinery sits on the hot path
    // (timed waits, fault hooks), so even nanosecond-level drift on the
    // no-fault boot is a regression.
    let ms3 = |t: booting_booster::sim::SimTime| format!("{:.3}", t.as_nanos() as f64 / 1e6);
    assert_eq!(ms3(conv.boot_time()), "8614.474");
    assert_eq!(ms3(bb.boot_time()), "3200.077");
}

#[test]
fn fault_free_supervised_boot_matches_plain_boost_exactly() {
    // The supervised entry point with an empty fault plan must be
    // byte-for-byte the plain boost: installing the supervisor may not
    // perturb the calibrated timeline.
    let scenario = tv_scenario();
    for cfg in [BbConfig::conventional(), BbConfig::full()] {
        let plain = boost(&scenario, &cfg).expect("valid");
        let supervised = BootRequest::new(&scenario)
            .config(cfg)
            .faults(&FaultPlan::none())
            .fallback(FallbackPolicy::default())
            .run()
            .expect("valid");
        assert!(
            supervised.degraded.is_none(),
            "fault-free boot must not degrade"
        );
        let report = supervised.report;
        assert_eq!(report.boot_time(), plain.boot_time());
        assert_eq!(report.quiesce_time, plain.quiesce_time);
        assert_eq!(report.boot.init_done, plain.boot.init_done);
        assert_eq!(report.boot.load_done, plain.boot.load_done);
    }
}

#[test]
fn kernel_and_init_phases_are_pinned() {
    let scenario = tv_scenario();
    let conv = boost(&scenario, &BbConfig::conventional()).expect("valid");
    let bb = boost(&scenario, &BbConfig::full()).expect("valid");
    // Paper: kernel 698 -> 403 ms; init 195 -> 71 ms.
    assert_eq!(conv.kernel.kernel_total().as_millis(), 696);
    assert_eq!(bb.kernel.kernel_total().as_millis(), 401);
    assert_eq!(
        conv.boot
            .init_done
            .since(conv.boot.userspace_start)
            .as_millis(),
        195
    );
    assert_eq!(
        bb.boot.init_done.since(bb.boot.userspace_start).as_millis(),
        71
    );
}

#[test]
fn rcu_sync_counts_are_pinned() {
    let scenario = tv_scenario();
    let conv = boost(&scenario, &BbConfig::conventional()).expect("valid");
    let bb = boost(&scenario, &BbConfig::full()).expect("valid");
    // Same generated workload → identical sync counts in both modes.
    assert_eq!(conv.rcu.syncs_completed, bb.rcu.syncs_completed);
    // Batching merges grace periods; both stay well below sync count.
    assert!(conv.rcu.grace_periods < conv.rcu.syncs_completed);
    assert!(bb.rcu.grace_periods < bb.rcu.syncs_completed);
}

/// The full-BB boot of the open-source (136-service) Tizen TV at
/// workload seed 2: a generated scenario pinned beside the commercial
/// TV above, so a change that moves only other scenarios' timelines
/// still fails here.
#[test]
fn seed_two_tizen_136_full_bb_is_pinned() {
    let scenario = tv_scenario_with(
        profiles::ue48h6200(),
        TizenParams {
            services: 136,
            seed: 2,
            ..TizenParams::open_source()
        },
    );
    let bb = boost(&scenario, &BbConfig::full()).expect("valid");
    assert_eq!(bb.boot_time().to_string(), "3195.572ms");
}
