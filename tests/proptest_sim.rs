//! Property-based tests of the simulation substrate: scheduling,
//! accounting, and causality invariants over random op programs.
//!
//! The same generator, widened to every [`Op`] variant, also feeds a
//! digest golden: `tests/golden/sim_digests.txt` pins, for 40 fixed
//! seeded machines, the trace, the core spans, the scheduler and
//! event-queue counters, each process's accounting and the snapshot
//! bytes. Any change to what the simulator does, down to one
//! nanosecond of one slice, fails it. Re-bless deliberately with
//! `BB_BLESS_GOLDEN=1 cargo test --test proptest_sim`.

use std::fmt::{Debug, Write as _};

use proptest::prelude::*;
use proptest::test_runner::TestRng;

use booting_booster::sim::{
    fnv1a, snapshot, AccessPattern, DeviceId, DeviceProfile, FaultPlan, FaultTargets, FlagId,
    IoPriority, Machine, MachineConfig, Op, ProcessSpec, RcuMode, SimDuration, SimTime, TraceKind,
    FNV1A_OFFSET,
};

/// A closed-universe flag space so waits can always be satisfied.
const FLAGS: usize = 4;

#[derive(Debug, Clone)]
enum GenOp {
    Compute(u64),
    IoRead(u64),
    Sleep(u64),
    RcuSync,
    RcuRead(u64),
    SetFlag(usize),
    WaitFlag(usize),
    Yield,
    // The ops below may fail a process or poll, so only the digest
    // golden draws them (`wide_op_strategy`).
    PollFlag {
        flag: usize,
        interval_ms: u64,
        cost_us: u64,
    },
    TimedWaitFlag {
        flag: usize,
        timeout_ms: u64,
    },
    AssertFlag(usize),
    CondSkip {
        flag: usize,
        skip: u32,
    },
    /// A child running a program of the ops above `PollFlag`.
    Spawn(Vec<GenOp>),
    SetRcuMode(RcuMode),
}

fn op_strategy() -> impl Strategy<Value = GenOp> {
    prop_oneof![
        (1u64..20).prop_map(GenOp::Compute),
        (512u64..262_144).prop_map(GenOp::IoRead),
        (1u64..30).prop_map(GenOp::Sleep),
        Just(GenOp::RcuSync),
        (1u64..5).prop_map(GenOp::RcuRead),
        (0usize..FLAGS).prop_map(GenOp::SetFlag),
        (0usize..FLAGS).prop_map(GenOp::WaitFlag),
        Just(GenOp::Yield),
    ]
}

/// Every `Op` variant: the ops above, weighted as much as the rest
/// together, plus the ones the properties leave out.
fn wide_op_strategy() -> impl Strategy<Value = GenOp> {
    prop_oneof![
        op_strategy(),
        op_strategy(),
        op_strategy(),
        op_strategy(),
        op_strategy(),
        op_strategy(),
        (0usize..FLAGS, 1u64..20, 1u64..500).prop_map(|(flag, interval_ms, cost_us)| {
            GenOp::PollFlag {
                flag,
                interval_ms,
                cost_us,
            }
        }),
        (0usize..FLAGS, 1u64..150)
            .prop_map(|(flag, timeout_ms)| GenOp::TimedWaitFlag { flag, timeout_ms }),
        (0usize..FLAGS).prop_map(GenOp::AssertFlag),
        (0usize..FLAGS, 0u32..4).prop_map(|(flag, skip)| GenOp::CondSkip { flag, skip }),
        prop::collection::vec(op_strategy(), 1..5).prop_map(GenOp::Spawn),
        prop_oneof![Just(RcuMode::ClassicSpin), Just(RcuMode::Boosted)].prop_map(GenOp::SetRcuMode),
    ]
}

#[derive(Debug, Clone)]
struct GenProgram {
    nice: i8,
    io_priority: IoPriority,
    ops: Vec<GenOp>,
}

fn program_strategy() -> impl Strategy<Value = GenProgram> {
    programs_of(op_strategy())
}

fn programs_of(ops: impl Strategy<Value = GenOp>) -> impl Strategy<Value = GenProgram> {
    (
        -20i8..=19,
        prop_oneof![
            Just(IoPriority::Realtime),
            Just(IoPriority::BestEffort),
            Just(IoPriority::Idle)
        ],
        prop::collection::vec(ops, 1..10),
    )
        .prop_map(|(nice, io_priority, ops)| GenProgram {
            nice,
            io_priority,
            ops,
        })
}

/// Builds a machine where every flag is eventually set (a dedicated
/// setter process guarantees waits terminate).
fn build(programs: &[GenProgram], cores: usize, mode: RcuMode) -> Machine {
    let cfg = MachineConfig {
        cores,
        rcu_mode: mode,
        ..MachineConfig::default()
    };
    build_with(programs, cfg, |_| {})
}

/// [`build`] on any configuration; `setup` runs once the device and
/// flags exist, before the first process spawns (fault plans must be
/// armed before a program reaches its first `SetFlag`).
fn build_with(
    programs: &[GenProgram],
    cfg: MachineConfig,
    setup: impl FnOnce(&mut Machine),
) -> Machine {
    let mut m = Machine::new(cfg);
    let dev = m.add_device("emmc", DeviceProfile::tv_emmc());
    let flags: Vec<_> = (0..FLAGS).map(|i| m.flag(format!("f{i}"))).collect();
    setup(&mut m);
    // Setter guarantees liveness: after 100 ms every flag is set.
    let mut setter_ops = vec![Op::Sleep(SimDuration::from_millis(100))];
    setter_ops.extend(flags.iter().map(|&f| Op::SetFlag(f)));
    m.spawn(ProcessSpec::new("setter", setter_ops));
    for (i, p) in programs.iter().enumerate() {
        let name = format!("p{i}");
        let ops = p
            .ops
            .iter()
            .enumerate()
            .map(|(k, op)| to_op(op, dev, &flags, &format!("{name}-child{k}")))
            .collect();
        m.spawn(
            ProcessSpec::new(name, ops)
                .with_nice(p.nice)
                .with_io_priority(p.io_priority),
        );
    }
    m
}

/// The op `op` stands for; a spawned child is called `child`.
fn to_op(op: &GenOp, dev: DeviceId, flags: &[FlagId], child: &str) -> Op {
    let ms = SimDuration::from_millis;
    match *op {
        GenOp::Compute(n) => Op::Compute(ms(n)),
        GenOp::IoRead(bytes) => Op::IoRead {
            device: dev,
            bytes,
            pattern: AccessPattern::Random,
        },
        GenOp::Sleep(n) => Op::Sleep(ms(n)),
        GenOp::RcuSync => Op::RcuSync,
        GenOp::RcuRead(n) => Op::RcuReadHold(ms(n)),
        GenOp::SetFlag(f) => Op::SetFlag(flags[f]),
        GenOp::WaitFlag(f) => Op::WaitFlag(flags[f]),
        GenOp::Yield => Op::Yield,
        GenOp::PollFlag {
            flag,
            interval_ms,
            cost_us,
        } => Op::PollFlag {
            flag: flags[flag],
            interval: ms(interval_ms),
            poll_cost: SimDuration::from_micros(cost_us),
        },
        GenOp::TimedWaitFlag { flag, timeout_ms } => Op::TimedWaitFlag {
            flag: flags[flag],
            timeout: ms(timeout_ms),
        },
        GenOp::AssertFlag(f) => Op::AssertFlag(flags[f]),
        GenOp::CondSkip { flag, skip } => Op::CondSkip {
            flag: flags[flag],
            skip_ops: skip,
        },
        GenOp::Spawn(ref ops) => {
            let ops = ops.iter().map(|op| to_op(op, dev, flags, child)).collect();
            Op::Spawn(Box::new(ProcessSpec::new(child, ops)))
        }
        GenOp::SetRcuMode(mode) => Op::SetRcuMode(mode),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Every process finishes (liveness), the clock never runs
    /// backwards, and total charged CPU never exceeds cores × wall time
    /// (conservation).
    #[test]
    fn liveness_and_cpu_conservation(
        programs in prop::collection::vec(program_strategy(), 1..8),
        cores in 1usize..5,
        boosted in any::<bool>(),
    ) {
        let mode = if boosted { RcuMode::Boosted } else { RcuMode::ClassicSpin };
        let mut m = build(&programs, cores, mode);
        let out = m.run();
        prop_assert!(out.blocked.is_empty(), "deadlocked: {:?}", out.blocked);
        prop_assert!(out.failed.is_empty());
        // Clock monotonicity over the trace.
        let times: Vec<SimTime> = m.trace().events().iter().map(|e| e.time).collect();
        prop_assert!(times.windows(2).all(|w| w[0] <= w[1]));
        // CPU conservation.
        let total_cpu: u64 = m.processes().map(|p| p.cpu_time().as_nanos()).sum();
        let budget = out.end_time.as_nanos().saturating_mul(cores as u64);
        prop_assert!(
            total_cpu <= budget,
            "cpu {total_cpu} exceeds {cores}-core budget {budget}"
        );
    }

    /// Core busy spans never overlap on the same core.
    #[test]
    fn core_spans_never_overlap(
        programs in prop::collection::vec(program_strategy(), 1..6),
        cores in 1usize..4,
    ) {
        let mut m = build(&programs, cores, RcuMode::ClassicSpin);
        m.run();
        let mut per_core: std::collections::HashMap<u32, Vec<(u64, u64)>> =
            std::collections::HashMap::new();
        for s in m.trace().spans() {
            per_core
                .entry(s.core.as_raw())
                .or_default()
                .push((s.start.as_nanos(), s.end.as_nanos()));
        }
        for (_core, mut spans) in per_core {
            spans.sort_unstable();
            for w in spans.windows(2) {
                prop_assert!(w[0].1 <= w[1].0, "overlap: {:?} then {:?}", w[0], w[1]);
            }
        }
    }

    /// Identical inputs give identical traces (bitwise determinism).
    #[test]
    fn determinism(
        programs in prop::collection::vec(program_strategy(), 1..6),
        cores in 1usize..4,
    ) {
        let run = || {
            let mut m = build(&programs, cores, RcuMode::Boosted);
            let out = m.run();
            let sig: Vec<(u64, u32)> = m
                .trace()
                .events()
                .iter()
                .map(|e| (e.time.as_nanos(), e.pid.as_raw()))
                .collect();
            (out.end_time, sig)
        };
        prop_assert_eq!(run(), run());
    }

    /// Flag causality: a waiter never proceeds past a wait before the
    /// flag's recorded set time.
    #[test]
    fn flag_causality(
        programs in prop::collection::vec(program_strategy(), 1..6),
    ) {
        let mut m = build(&programs, 2, RcuMode::ClassicSpin);
        m.run();
        // Every FlagSet trace time matches flag_set_at, and finished
        // processes that waited on a flag finished at or after it.
        for e in m.trace().events() {
            if let TraceKind::FlagSet { flag } = e.kind {
                prop_assert_eq!(m.flag_set_at(flag), Some(e.time));
            }
        }
    }

    /// RCU accounting: completed syncs equal submissions, and grace
    /// periods never exceed syncs (batching only merges).
    #[test]
    fn rcu_accounting(
        programs in prop::collection::vec(program_strategy(), 1..8),
        boosted in any::<bool>(),
    ) {
        let mode = if boosted { RcuMode::Boosted } else { RcuMode::ClassicSpin };
        let expected_syncs: u64 = programs
            .iter()
            .flat_map(|p| &p.ops)
            .filter(|op| matches!(op, GenOp::RcuSync))
            .count() as u64;
        let mut m = build(&programs, 4, mode);
        m.run();
        let stats = m.rcu_stats();
        prop_assert_eq!(stats.syncs_completed, expected_syncs);
        prop_assert!(stats.grace_periods <= expected_syncs.max(1));
        prop_assert_eq!(stats.classic_syncs + stats.boosted_syncs, expected_syncs);
    }
}

// ---------------------------------------------------------------------
// The simulator digest golden.
// ---------------------------------------------------------------------

/// Machines in the digest golden.
const GOLDEN_CASES: u32 = 40;

/// `fnv1a` over each item's `Debug` form, then the item count.
fn digest<T: Debug>(items: impl IntoIterator<Item = T>) -> String {
    let mut hash = FNV1A_OFFSET;
    let mut n = 0;
    for item in items {
        hash = fnv1a(hash, format!("{item:?}\n").as_bytes());
        n += 1;
    }
    format!("{hash:016x}/{n}")
}

/// One machine of the golden, run to quiescence, as one line. Case `i`
/// runs 1 + i % 8 cores at speed 1.0, 1.6 or 1.3 (the last two make
/// slices' wall times round), in either RCU mode, with spans on or off;
/// every third case arms a seeded fault plan over its programs and the
/// device, and every fifth is cut by `run_until` before the setter
/// wakes at 100 ms, saved, restored, and finished on the restored
/// machine.
fn golden_case(i: u32, fired: &mut [bool; 4]) -> String {
    let programs = prop::collection::vec(programs_of(wide_op_strategy()), 1..8)
        .generate(&mut TestRng::for_case("sim_digests", i));
    let cfg = MachineConfig {
        cores: 1 + i as usize % 8,
        core_speed: [1.0, 1.6, 1.3][i as usize % 3],
        rcu_mode: [RcuMode::ClassicSpin, RcuMode::Boosted][i as usize % 2],
        ..MachineConfig::default()
    };
    let spans = i % 4 < 2;
    let faults = i.is_multiple_of(3).then(|| {
        let targets = FaultTargets {
            processes: (0..programs.len()).map(|k| format!("p{k}")).collect(),
            devices: vec!["emmc".into()],
        };
        // Two seeded plans' faults, so the four kinds all fire over 14 cases.
        let mut plan = FaultPlan::seeded(u64::from(i), &targets);
        let more = FaultPlan::seeded(u64::from(i + GOLDEN_CASES), &targets);
        plan.faults.extend(more.faults);
        plan
    });
    let cut = (i % 5 == 4).then(|| SimTime::from_nanos(u64::from(20 + i * 7 % 80) * 1_000_000));
    let mut m = build_with(&programs, cfg, |m| {
        m.record_spans(spans);
        if let Some(plan) = &faults {
            m.install_fault_plan(plan);
        }
    });
    let mut line = format!(
        "{i:02} cores={} speed={} rcu={:?} spans={spans} faults={} cut={}:",
        cfg.cores,
        cfg.core_speed,
        cfg.rcu_mode,
        faults.as_ref().map_or(0, |p| p.faults.len()),
        cut.map_or("-".to_owned(), |t| t.as_nanos().to_string()),
    );
    if let Some(at) = cut {
        m.run_until(at);
        let bytes = snapshot::save(&m).expect("snapshot");
        write!(line, " cut_snap={}", digest(&bytes)).unwrap();
        m = snapshot::restore(&bytes).expect("restore");
    }
    let out = m.run();
    let s = m.sched_stats();
    let q = m.event_queue_stats();
    write!(
        line,
        " end={} blocked={} failed={} sched={}/{}/{}/{} queue={}/{}",
        out.end_time.as_nanos(),
        out.blocked.len(),
        out.failed.len(),
        s.dispatches,
        s.preemptions,
        s.io_requests,
        s.flag_wakeups,
        q.scheduled,
        q.peak_depth,
    )
    .unwrap();
    write!(
        line,
        " trace={} spans={} procs={} snap={}",
        digest(m.trace().events()),
        digest(m.trace().spans()),
        digest(
            m.processes()
                .map(|p| (p.cpu_time(), p.ready_seq(), p.finished_at()))
        ),
        digest(snapshot::save(&m).expect("snapshot")),
    )
    .unwrap();
    for e in m.trace().events() {
        if let TraceKind::FaultInjected { description } = &e.kind {
            let kinds = ["crash", "hang", "transient", "slow"];
            let k = kinds.iter().position(|k| description.starts_with(k));
            fired[k.expect("a known fault kind")] = true;
        }
    }
    line
}

/// The simulator pinned whole: every golden machine's trace, spans,
/// counters, per-process accounting and snapshot bytes.
#[test]
fn simulator_digests_match_golden() {
    let mut fired = [false; 4];
    let mut actual = String::new();
    for i in 0..GOLDEN_CASES {
        actual.push_str(&golden_case(i, &mut fired));
        actual.push('\n');
    }
    assert_eq!(
        fired, [true; 4],
        "every fault kind (crash, hang, transient I/O, slow device) fires in some case"
    );
    let path = format!(
        "{}/tests/golden/sim_digests.txt",
        env!("CARGO_MANIFEST_DIR")
    );
    if std::env::var_os("BB_BLESS_GOLDEN").is_some() {
        std::fs::write(&path, &actual).expect("bless simulator digests");
        return;
    }
    let golden = std::fs::read_to_string(&path)
        .expect("tests/golden/sim_digests.txt exists; bless it with BB_BLESS_GOLDEN=1");
    for (n, (want, got)) in golden.lines().zip(actual.lines()).enumerate() {
        assert_eq!(want, got, "simulator digest line {n} drifted");
    }
    assert_eq!(golden.lines().count(), actual.lines().count());
}
