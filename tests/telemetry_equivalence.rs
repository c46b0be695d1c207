//! Telemetry is observation, not participation: enabling the span and
//! metric sink on a boot must not move the simulated timeline by a
//! single nanosecond. For arbitrary feature subsets the telemetry-on
//! and telemetry-off boots must produce identical headline times and a
//! bit-identical event trace.

use proptest::prelude::*;

use booting_booster::bb::{BbConfig, BootRequest};
use booting_booster::workloads::tv_scenario;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    #[test]
    fn telemetry_does_not_perturb_the_timeline(bits in any::<u8>()) {
        let cfg = BbConfig::from_bits(bits);
        let scenario = tv_scenario();
        let on = BootRequest::new(&scenario)
            .config(cfg)
            .telemetry(true)
            .run()
            .expect("valid scenario");
        let off = BootRequest::new(&scenario)
            .config(cfg)
            .telemetry(false)
            .run()
            .expect("valid scenario");

        prop_assert_eq!(on.report.boot_time(), off.report.boot_time());
        prop_assert_eq!(on.report.quiesce_time, off.report.quiesce_time);
        prop_assert_eq!(on.report.boot.init_done, off.report.boot.init_done);
        prop_assert_eq!(on.report.boot.load_done, off.report.boot.load_done);
        prop_assert_eq!(
            on.report.rcu.syncs_completed,
            off.report.rcu.syncs_completed
        );
        prop_assert_eq!(
            on.machine.trace().events(),
            off.machine.trace().events(),
            "trace diverged under config {:?}",
            cfg
        );
        // And the instrumented boot actually recorded something.
        prop_assert!(!booting_booster::bb::boot_spans(&on.report).is_empty());
    }
}
