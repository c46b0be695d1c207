//! Property tests of machine recycling: the `MachineBuilder` contract.
//!
//! The fleet's inner loop recycles one machine's allocations across
//! jobs (`MachineBuilder::recycle` + `build`), so capacity reuse must
//! be *observationally invisible*. These tests pin that contract from
//! two directions:
//!
//! 1. At the simulation layer: a machine built from a recycled (dirty,
//!    differently-shaped) spare runs bit-identically to a fresh one —
//!    same timeline, same final snapshot bytes.
//! 2. At the boot layer: a `BootRequest` with a warmed builder attached
//!    replays the fresh boot event for event, across workload seeds,
//!    suffix configurations, and fault plans.

use proptest::prelude::*;

use booting_booster::bb::{fault_targets, BbConfig, BootRequest};
use booting_booster::sim::{
    snapshot, AccessPattern, DeviceProfile, FaultPlan, Machine, MachineBuilder, MachineConfig, Op,
    ProcessSpec, SimDuration,
};
use booting_booster::workloads::{profiles, tv_scenario_with, TizenParams};

// ---------------------------------------------------------------------
// Generated op programs (loop-free, always terminate).
// ---------------------------------------------------------------------

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

/// Spawns the same processes onto any machine (fresh or recycled).
fn populate(m: &mut Machine, programs: &[GenProcess]) {
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
}

fn cfg_for(cores: usize) -> MachineConfig {
    MachineConfig {
        cores,
        ..MachineConfig::default()
    }
}

/// A builder whose spare already holds a dirty machine of a *different*
/// shape, so the reset has dirty state and foreign capacity to reuse.
fn warmed_builder(junk: &[GenProcess], cores: usize) -> MachineBuilder {
    let mut m = Machine::new(cfg_for(cores));
    populate(&mut m, junk);
    m.run();
    let mut builder = MachineBuilder::new();
    builder.recycle(m);
    builder
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// A machine built from recycled buffers runs bit-identically to a
    /// fresh one: same timeline, same final snapshot bytes.
    #[test]
    fn recycled_machine_runs_bit_identically(
        programs in prop::collection::vec(process_strategy(), 1..6),
        junk in prop::collection::vec(process_strategy(), 1..6),
        cores in 1usize..4,
        junk_cores in 1usize..4,
    ) {
        let mut fresh = Machine::new(cfg_for(cores));
        populate(&mut fresh, &programs);
        fresh.run();

        let mut builder = warmed_builder(&junk, junk_cores);
        let mut pooled = builder.build(cfg_for(cores));
        populate(&mut pooled, &programs);
        pooled.run();

        prop_assert_eq!(fresh.now(), pooled.now());
        prop_assert_eq!(fresh.rcu_stats(), pooled.rcu_stats());
        let a = fresh.trace().events();
        let b = pooled.trace().events();
        prop_assert_eq!(a.len(), b.len(), "event counts diverge");
        for (x, y) in a.iter().zip(b) {
            prop_assert_eq!(x, y, "trace event diverges");
        }
        prop_assert_eq!(
            snapshot::save(&fresh).expect("snapshot fresh"),
            snapshot::save(&pooled).expect("snapshot pooled"),
            "final machine states diverge"
        );
    }
}

// ---------------------------------------------------------------------
// Boot layer: seeds × configs × fault plans.
// ---------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// A boot through a warmed builder replays the fresh boot event for
    /// event, for arbitrary workload seeds, feature subsets, and
    /// (possibly empty) fault plans.
    #[test]
    fn recycled_boot_matches_fresh_boot(
        seed in 0u64..1_000_000,
        services in 24usize..36,
        bits in any::<u8>(),
        fault_seed in 0u64..1_000,
    ) {
        let s = tv_scenario_with(
            profiles::ue48h6200(),
            TizenParams { services, seed, ..TizenParams::open_source() },
        );
        let cfg = if bits & 0x80 != 0 {
            BbConfig::conventional()
        } else {
            BbConfig {
                deferred_executor: bits & 0x01 != 0,
                preparser: bits & 0x02 != 0,
                bb_group: bits & 0x04 != 0,
                ..BbConfig::full()
            }
        };
        // Every third case is fault-free; the rest inject a seeded plan.
        let faults = if fault_seed % 3 == 0 {
            FaultPlan::none()
        } else {
            FaultPlan::seeded(fault_seed, &fault_targets(&s))
        };

        // Warm the builder with a boot of a *different* config so the
        // recycled buffers carry another timeline's shape.
        let mut builder = MachineBuilder::new();
        builder.recycle(
            BootRequest::new(&s)
                .config(BbConfig::full())
                .run()
                .expect("warm boot")
                .machine,
        );

        let fresh = BootRequest::new(&s)
            .config(cfg)
            .faults(&faults)
            .run()
            .expect("fresh boot");
        let pooled = BootRequest::new(&s)
            .config(cfg)
            .faults(&faults)
            .machine_builder(&mut builder)
            .run()
            .expect("pooled boot");

        prop_assert_eq!(
            fresh.report.boot.completion_time,
            pooled.report.boot.completion_time
        );
        prop_assert_eq!(fresh.report.quiesce_time, pooled.report.quiesce_time);
        prop_assert_eq!(&fresh.report.rcu, &pooled.report.rcu);
        let a = fresh.machine.trace().events();
        let b = pooled.machine.trace().events();
        prop_assert_eq!(a.len(), b.len(), "event counts diverge");
        for (x, y) in a.iter().zip(b) {
            prop_assert_eq!(x, y, "trace event diverges");
        }
    }
}
