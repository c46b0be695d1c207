//! Property tests of the snapshot subsystem and a pinned golden
//! snapshot guarding the on-disk format.
//!
//! 1. At the simulation layer: cutting an arbitrary machine mid-run
//!    with [`snapshot::save`]/[`snapshot::restore`] and continuing is
//!    invisible — the finished timeline is bit-identical, event for
//!    event, to the uninterrupted run.
//! 2. At the boot layer: splitting an arbitrary TV boot with
//!    [`BootRequest::checkpoint_at`] + [`BootRequest::resume`] matches
//!    the uninterrupted [`BootRequest::run`] for arbitrary workload
//!    seeds, service counts, and suffix configurations.
//! 3. The golden file `tests/golden/snapshot_v2.bin` pins the current
//!    format byte for byte, and `tests/golden/snapshot_v1.bin` pins
//!    backward compatibility: the committed v1 image (no trailing
//!    checksum) must keep restoring. Any codec change — field order,
//!    widths, new sections — fails the test until the format version is
//!    bumped and the golden is deliberately re-blessed with
//!    `BB_BLESS_GOLDEN=1 cargo test --test proptest_snapshot`.
//! 4. Integrity: [`snapshot::restore`] never panics on arbitrary or
//!    corrupted bytes, and any byte-level damage to a v2 image is
//!    *detected* (the restore errs rather than returning a silently
//!    wrong machine).

use proptest::prelude::*;

use booting_booster::bb::{BbConfig, BootRequest, CheckpointPhase};
use booting_booster::sim::{
    snapshot, AccessPattern, DeviceProfile, Machine, MachineConfig, Op, ProcessSpec, SimDuration,
    SimTime,
};
use booting_booster::workloads::{profiles, tv_scenario_with, TizenParams};

// ---------------------------------------------------------------------
// 1. Simulation layer: save/restore mid-run is invisible.
// ---------------------------------------------------------------------

/// A generated process: a loop-free op program that always terminates
/// (no flag waits), so every machine runs to quiescence.
#[derive(Debug, Clone)]
struct GenProcess {
    nice: i8,
    ops: Vec<GenOp>,
}

#[derive(Debug, Clone)]
enum GenOp {
    Compute(u64),
    IoRead(u64),
    Sleep(u64),
    RcuSync,
    RcuRead(u64),
    Yield,
}

fn process_strategy() -> impl Strategy<Value = GenProcess> {
    (
        -5i8..=5,
        prop::collection::vec(
            prop_oneof![
                (1u64..15).prop_map(GenOp::Compute),
                (4096u64..262_144).prop_map(GenOp::IoRead),
                (1u64..20).prop_map(GenOp::Sleep),
                Just(GenOp::RcuSync),
                (1u64..4).prop_map(GenOp::RcuRead),
                Just(GenOp::Yield),
            ],
            1..8,
        ),
    )
        .prop_map(|(nice, ops)| GenProcess { nice, ops })
}

/// Deterministically builds the same machine from the same programs.
fn build(programs: &[GenProcess], cores: usize) -> Machine {
    let mut m = Machine::new(MachineConfig {
        cores,
        ..MachineConfig::default()
    });
    let dev = m.add_device("emmc", DeviceProfile::tv_emmc());
    for (i, p) in programs.iter().enumerate() {
        let ops: Vec<Op> = p
            .ops
            .iter()
            .map(|op| match *op {
                GenOp::Compute(ms) => Op::Compute(SimDuration::from_millis(ms)),
                GenOp::IoRead(bytes) => Op::IoRead {
                    device: dev,
                    bytes,
                    pattern: AccessPattern::Random,
                },
                GenOp::Sleep(ms) => Op::Sleep(SimDuration::from_millis(ms)),
                GenOp::RcuSync => Op::RcuSync,
                GenOp::RcuRead(ms) => Op::RcuReadHold(SimDuration::from_millis(ms)),
                GenOp::Yield => Op::Yield,
            })
            .collect();
        m.spawn(ProcessSpec::new(format!("p{i}"), ops).with_nice(p.nice));
    }
    m
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Run straight through vs. cut at an arbitrary time, round-trip
    /// through the snapshot codec, and continue: identical timelines.
    #[test]
    fn mid_run_snapshot_is_invisible(
        programs in prop::collection::vec(process_strategy(), 1..6),
        cores in 1usize..4,
        cut_percent in 0u64..100,
    ) {
        let mut straight = build(&programs, cores);
        straight.run();

        // Cut strictly inside the run — `run_until` past quiescence
        // would legitimately advance the idle clock beyond the straight
        // run's end time.
        let cut_us = straight.now().since(SimTime::ZERO).as_micros() * cut_percent / 100;
        let mut before = build(&programs, cores);
        before.run_until(SimTime::ZERO + SimDuration::from_micros(cut_us));
        let bytes = snapshot::save(&before).expect("snapshot");
        let mut after = snapshot::restore(&bytes).expect("restore");
        after.run();

        prop_assert_eq!(straight.now(), after.now());
        prop_assert_eq!(straight.rcu_stats(), after.rcu_stats());
        let a = straight.trace().events();
        let b = after.trace().events();
        prop_assert_eq!(a.len(), b.len(), "event counts diverge");
        for (x, y) in a.iter().zip(b) {
            prop_assert_eq!(x, y, "trace event diverges");
        }
    }

    /// The codec itself is a bijection on reachable states: restoring
    /// a snapshot and saving again reproduces the exact bytes.
    #[test]
    fn save_restore_save_is_identity(
        programs in prop::collection::vec(process_strategy(), 1..6),
        cores in 1usize..4,
        cut_us in 0u64..40_000,
    ) {
        let mut m = build(&programs, cores);
        m.run_until(SimTime::ZERO + SimDuration::from_micros(cut_us));
        let bytes = snapshot::save(&m).expect("snapshot");
        let restored = snapshot::restore(&bytes).expect("restore");
        let again = snapshot::save(&restored).expect("re-snapshot");
        prop_assert_eq!(bytes, again);
    }
}

// ---------------------------------------------------------------------
// 2. Boot layer: checkpoint + resume matches the uninterrupted run.
// ---------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// For arbitrary workload seeds, service counts, and suffix
    /// configurations: checkpoint the full-BB prefix at every phase,
    /// resume under a (possibly different) suffix config, and the
    /// timeline matches that config's uninterrupted run exactly.
    #[test]
    fn checkpointed_boot_matches_uninterrupted_boot(
        seed in 0u64..1_000_000,
        services in 24usize..40,
        bits in any::<u8>(),
    ) {
        let s = tv_scenario_with(
            profiles::ue48h6200(),
            TizenParams { services, seed, ..TizenParams::open_source() },
        );
        // Same prefix key as the checkpoint config (full), arbitrary
        // suffix features — the resumable family of one checkpoint.
        let cfg = BbConfig {
            deferred_executor: bits & 0x01 != 0,
            preparser: bits & 0x02 != 0,
            bb_group: bits & 0x04 != 0,
            ..BbConfig::full()
        };
        for phase in [CheckpointPhase::KernelHandoff] {
            let ckpt = BootRequest::new(&s)
                .config(BbConfig::full())
                .checkpoint_at(phase)
                .expect("checkpoint");
            let resumed = BootRequest::new(&s).config(cfg).resume(&ckpt).expect("resume");
            let straight = BootRequest::new(&s).config(cfg).run().expect("run");
            prop_assert_eq!(
                straight.report.boot.completion_time,
                resumed.report.boot.completion_time
            );
            prop_assert_eq!(straight.report.quiesce_time, resumed.report.quiesce_time);
            prop_assert_eq!(straight.report.rcu, resumed.report.rcu);
            let a = straight.machine.trace().events();
            let b = resumed.machine.trace().events();
            prop_assert_eq!(a.len(), b.len(), "event counts diverge");
            for (x, y) in a.iter().zip(b) {
                prop_assert_eq!(x, y, "trace event diverges");
            }
        }
    }
}

/// A checkpoint holds no plan, so a resume plans the scenario it is
/// given: a seed-2 Tizen-136 boot resumed from a seed-1 checkpoint under
/// the same config reads what a fresh seed-2 run reads, not seed 1's
/// timeline.
#[test]
fn resuming_another_seed_plans_that_seed() {
    let tv136 = |seed| {
        tv_scenario_with(
            profiles::ue48h6200(),
            TizenParams {
                services: 136,
                seed,
                ..TizenParams::open_source()
            },
        )
    };
    let (one, two) = (tv136(1), tv136(2));
    let cfg = BbConfig::full();
    let ckpt = BootRequest::new(&one)
        .config(cfg)
        .checkpoint_at(CheckpointPhase::KernelHandoff)
        .expect("checkpoint");
    let resumed = BootRequest::new(&two)
        .config(cfg)
        .resume(&ckpt)
        .expect("resume");
    let straight = BootRequest::new(&two).config(cfg).run().expect("run");
    assert_eq!(resumed.report.boot_time(), straight.report.boot_time());
    assert_eq!(resumed.report.quiesce_time, straight.report.quiesce_time);
    assert_eq!(resumed.report.boot_time().to_string(), "3195.572ms");
}

// ---------------------------------------------------------------------
// 3. Golden snapshot: the v1 format, pinned byte for byte.
// ---------------------------------------------------------------------

/// A small but section-complete machine: multiple processes in distinct
/// states, pending I/O, RCU activity, flags, and a cut mid-run so the
/// event queue and scheduler state are non-trivial.
fn golden_machine() -> Machine {
    let mut m = Machine::new(MachineConfig {
        cores: 2,
        ..MachineConfig::default()
    });
    let dev = m.add_device("emmc", DeviceProfile::tv_emmc());
    let gate = m.flag("golden-gate");
    m.spawn(ProcessSpec::new(
        "reader",
        vec![
            Op::Compute(SimDuration::from_millis(2)),
            Op::IoRead {
                device: dev,
                bytes: 64 * 1024,
                pattern: AccessPattern::Sequential,
            },
            Op::SetFlag(gate),
            Op::RcuSync,
        ],
    ));
    m.spawn(ProcessSpec::new(
        "waiter",
        vec![
            Op::WaitFlag(gate),
            Op::RcuReadHold(SimDuration::from_millis(1)),
            Op::Compute(SimDuration::from_millis(3)),
        ],
    ));
    m.spawn(ProcessSpec::new(
        "sleeper",
        vec![
            Op::Sleep(SimDuration::from_millis(4)),
            Op::Compute(SimDuration::from_millis(1)),
        ],
    ));
    m.run_until(SimTime::ZERO + SimDuration::from_millis(3));
    m
}

const GOLDEN_PATH: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/golden/snapshot_v2.bin");
const LEGACY_V1_PATH: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/golden/snapshot_v1.bin");

/// The committed golden bytes are exactly what today's codec produces,
/// and they still restore to a machine that finishes the run the same
/// way. A diff here means the format changed: bump
/// [`snapshot::FORMAT_VERSION`] and re-bless deliberately.
#[test]
fn golden_snapshot_format_is_stable() {
    let bytes = snapshot::save(&golden_machine()).expect("snapshot");
    if std::env::var_os("BB_BLESS_GOLDEN").is_some() {
        std::fs::create_dir_all(std::path::Path::new(GOLDEN_PATH).parent().unwrap()).unwrap();
        std::fs::write(GOLDEN_PATH, &bytes).expect("bless golden");
        eprintln!("blessed {} ({} bytes)", GOLDEN_PATH, bytes.len());
        return;
    }
    let golden = std::fs::read(GOLDEN_PATH).expect(
        "tests/golden/snapshot_v2.bin missing — run \
         BB_BLESS_GOLDEN=1 cargo test --test proptest_snapshot",
    );
    assert_eq!(
        golden.len(),
        bytes.len(),
        "snapshot format drifted (length changed); bump FORMAT_VERSION and re-bless"
    );
    assert_eq!(
        golden, bytes,
        "snapshot format drifted; bump FORMAT_VERSION and re-bless"
    );

    // The pinned bytes parse, restore, and finish the boot exactly like
    // a freshly built machine.
    let header = snapshot::read_header(&golden).expect("header");
    assert_eq!(header.version, snapshot::FORMAT_VERSION);
    assert_eq!(
        header.calibration,
        (
            snapshot::CALIBRATION_PIN_CONVENTIONAL_US,
            snapshot::CALIBRATION_PIN_BB_US
        )
    );
    let mut restored = snapshot::restore(&golden).expect("restore golden");
    let mut fresh = golden_machine();
    restored.run();
    fresh.run();
    assert_eq!(restored.now(), fresh.now());
    assert_eq!(
        restored.trace().events().len(),
        fresh.trace().events().len()
    );
}

/// The committed v1 image (written before the trailing payload
/// checksum existed) must keep restoring: devices in the field hold
/// old suspend images, and a format bump must never strand them.
#[test]
fn legacy_v1_snapshot_still_restores() {
    let golden = std::fs::read(LEGACY_V1_PATH)
        .expect("tests/golden/snapshot_v1.bin missing — the committed legacy fixture was removed");
    let header = snapshot::read_header(&golden).expect("v1 header");
    assert_eq!(header.version, 1);
    assert!(header.version >= snapshot::MIN_SUPPORTED_VERSION);
    let mut restored = snapshot::restore(&golden).expect("v1 image must keep restoring");
    let mut fresh = golden_machine();
    restored.run();
    fresh.run();
    assert_eq!(restored.now(), fresh.now());
    assert_eq!(
        restored.trace().events().len(),
        fresh.trace().events().len()
    );
}

// ---------------------------------------------------------------------
// 4. Integrity: restore never panics, and damage is always detected.
// ---------------------------------------------------------------------

proptest! {
    /// Arbitrary bytes never panic the decoder: garbage in, `Err` out.
    #[test]
    fn restore_never_panics_on_arbitrary_bytes(
        bytes in prop::collection::vec(any::<u8>(), 0..2048),
    ) {
        let _ = snapshot::restore(&bytes);
        let _ = snapshot::read_header(&bytes);
    }

    /// A seeded [`CorruptionPlan`] applied to a valid v2 image never
    /// panics the decoder, and if it changed any byte the restore MUST
    /// fail — the whole-payload checksum makes silent damage
    /// impossible.
    #[test]
    fn corrupted_snapshots_are_always_detected(seed in any::<u64>()) {
        use booting_booster::sim::CorruptionPlan;

        let pristine = snapshot::save(&golden_machine()).expect("snapshot");
        let mut damaged = pristine.clone();
        CorruptionPlan::seeded(seed).apply(&mut damaged);
        if damaged == pristine {
            // The plan was a no-op on these bytes (e.g. zeroing an
            // already-zero page): the image must still restore.
            prop_assert!(snapshot::restore(&damaged).is_ok());
        } else {
            prop_assert!(
                snapshot::restore(&damaged).is_err(),
                "byte-level damage restored silently"
            );
        }
    }

    /// Single bit-flips anywhere in the image — header, payload, or the
    /// checksum itself — are detected.
    #[test]
    fn single_bit_flips_are_always_detected(
        pos in any::<prop::sample::Index>(),
        bit in 0u8..8,
    ) {
        let pristine = snapshot::save(&golden_machine()).expect("snapshot");
        let mut damaged = pristine.clone();
        let idx = pos.index(damaged.len());
        damaged[idx] ^= 1 << bit;
        prop_assert!(
            snapshot::restore(&damaged).is_err(),
            "bit flip at byte {idx} restored silently"
        );
    }
}
