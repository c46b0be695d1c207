//! The artifact integrity & recovery chain, end to end.
//!
//! 1. Golden corrupt-blob fixtures: `tests/golden/corrupt_blob_s*.bin`
//!    pin what a seeded [`CorruptionPlan`] does to the scenario's
//!    encoded pre-parse blob, byte for byte — the corruption axis of
//!    the chaos sweep replays these exact bytes. Re-bless deliberately
//!    with `BB_BLESS_GOLDEN=1 cargo test --test recovery_chain`.
//! 2. The acceptance property, for *arbitrary* corruption seeds and
//!    transient-failure counts: a BB boot handed a damaged artifact
//!    always completes — and when the chain rejects the artifact, the
//!    simulated timeline is identical to a boot that never had the
//!    cache (the read and its retries are host-side ledger items, not
//!    simulated events).

use proptest::prelude::*;

use booting_booster::bb::{ArtifactRead, BbConfig, BootRequest, FallbackPolicy, Scenario};
use booting_booster::init::{decode_units, encode_units};
use booting_booster::sim::{CorruptionPlan, FaultPlan};
use booting_booster::workloads::{profiles, tv_scenario_with, TizenParams};

/// The fixture scenario: small, deterministic, and stable (its timing
/// is already pinned by the calibration tests).
fn fixture_scenario() -> Scenario {
    tv_scenario_with(
        profiles::ue48h6200(),
        TizenParams {
            services: 24,
            seed: 7,
            ..TizenParams::open_source()
        },
    )
}

// ---------------------------------------------------------------------
// 1. Golden corrupt-blob fixtures.
// ---------------------------------------------------------------------

const FIXTURE_SEEDS: [u64; 4] = [1, 2, 3, 4];

fn fixture_path(seed: u64) -> String {
    format!(
        "{}/tests/golden/corrupt_blob_s{seed}.bin",
        env!("CARGO_MANIFEST_DIR")
    )
}

/// Each committed fixture is exactly what today's encoder + the seeded
/// corruption plan produce. A diff means either the blob format or the
/// corruption derivation changed — both are sweep-visible and must be
/// re-blessed deliberately.
#[test]
fn golden_corrupt_blobs_are_stable() {
    let scenario = fixture_scenario();
    let pristine = encode_units(&scenario.units);
    for seed in FIXTURE_SEEDS {
        let mut damaged = pristine.clone();
        CorruptionPlan::seeded(seed).apply(&mut damaged);
        let path = fixture_path(seed);
        if std::env::var_os("BB_BLESS_GOLDEN").is_some() {
            std::fs::write(&path, &damaged).expect("bless corrupt-blob fixture");
            eprintln!("blessed {path} ({} bytes)", damaged.len());
            continue;
        }
        let golden = std::fs::read(&path).unwrap_or_else(|_| {
            panic!("{path} missing — run BB_BLESS_GOLDEN=1 cargo test --test recovery_chain")
        });
        assert_eq!(
            golden, damaged,
            "corrupt-blob fixture for seed {seed} drifted; re-bless deliberately"
        );
    }
}

/// The committed fixtures exercise the detection contract: damage that
/// changed bytes is rejected by the decoder, untouched bytes decode to
/// the original units.
#[test]
fn golden_corrupt_blobs_are_detected() {
    if std::env::var_os("BB_BLESS_GOLDEN").is_some() {
        return;
    }
    let scenario = fixture_scenario();
    let pristine = encode_units(&scenario.units);
    let mut rejected = 0;
    for seed in FIXTURE_SEEDS {
        let golden = std::fs::read(fixture_path(seed)).expect("fixture committed");
        if golden == pristine {
            assert_eq!(
                decode_units(&golden).expect("pristine blob decodes"),
                *scenario.units
            );
        } else {
            assert!(
                decode_units(&golden).is_err(),
                "damaged fixture for seed {seed} decoded silently"
            );
            rejected += 1;
        }
    }
    assert!(
        rejected > 0,
        "every fixture was a no-op — the corruption seeds are dead"
    );
}

// ---------------------------------------------------------------------
// 2. The acceptance property, for arbitrary seeds.
// ---------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Any seeded corruption of the pre-parse blob, with any transient
    /// read flakiness on top: the boot completes (never panics, never
    /// errs), and the simulated timeline is either the cached one (the
    /// artifact survived) or exactly the re-parse one (it was
    /// rejected). Recovery cost is billed on the host-side ledger, not
    /// the timeline.
    #[test]
    fn corrupted_artifacts_always_boot_and_land_on_a_known_timeline(
        corr_seed in any::<u64>(),
        flaky in 0u32..6,
    ) {
        let scenario = fixture_scenario();
        let faults = FaultPlan::none();
        let policy = FallbackPolicy::default();

        let artifact = ArtifactRead::corrupted(
            encode_units(&scenario.units),
            &CorruptionPlan::seeded(corr_seed),
        )
        .flaky(flaky);

        let outcome = BootRequest::new(&scenario)
            .config(BbConfig::full())
            .artifact(&artifact)
            .faults(&faults)
            .fallback(policy)
            .run()
            .expect("a damaged artifact must never fail the boot");
        prop_assert!(outcome.degraded.is_none());
        let events = &outcome.recoveries;

        let rejected = events.iter().any(|e| e.rejected());
        let baseline_cfg = if rejected {
            BbConfig { preparser: false, ..BbConfig::full() }
        } else {
            BbConfig::full()
        };
        let baseline = BootRequest::new(&scenario)
            .config(baseline_cfg)
            .faults(&faults)
            .fallback(policy)
            .run()
            .expect("baseline boot");
        prop_assert!(baseline.recoveries.is_empty(), "no artifact, no recoveries");
        prop_assert_eq!(
            outcome.user_boot_time(),
            baseline.user_boot_time(),
            "recovered boot diverged from the {} timeline",
            if rejected { "re-parse" } else { "cached" }
        );

        // Every rejection is priced, and retries bill backoff.
        for e in events {
            if e.rejected() {
                prop_assert!(e.total_cost().as_nanos() > 0);
            }
        }
    }
}
