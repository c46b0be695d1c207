//! Scheduler/event-loop hot-path baseline: raw events/sec on a
//! synthetic event storm and end-to-end boots/sec for full-BB TV boots.
//!
//! The event storm exercises every hot structure of the simulator inner
//! loop — compute slices (quantum preemption), sleeps, flag waiter
//! lists, timed waits (stale-timeout drops), and priority I/O — without
//! the planning/kernel layers on top, so it isolates the scheduler and
//! event queue. The boot benchmarks measure the fleet inner loop on the
//! calibration TV scenario two ways: a cold boot (plan + kernel + user
//! space, fresh machine) and the hot-path boot a `bb-fleet` forked
//! sweep actually runs per job — the plan taken from the `PlanCache`
//! the checkpoint was taken through (`run_job` attaches one cache to
//! both), snapshot restore into a recycled machine (`MachineBuilder`),
//! suffix simulation only.
//!
//! Besides the criterion timings this bench writes `BENCH_hotpath.json`
//! at the repo root — the committed scheduler-level perf baseline that
//! `scripts/bench_smoke.sh` gates against. The `baseline_*` constants
//! below were measured with this same harness (ported to the
//! pre-refactor API) at the parent commit, so the committed speedups
//! compare like with like. Iteration count: `BB_BENCH_ITERS`
//! (default 200).
//!
//! `cargo bench --bench hotpath`

use std::hint::black_box;
use std::sync::Arc;
use std::time::{Duration, Instant};

use bb_core::{BbConfig, BootRequest, CheckpointPhase, PlanCache, PreParser, Scenario};
use bb_fleet::json;
use bb_sim::{
    DeviceProfile, Machine, MachineBuilder, MachineConfig, OpsBuilder, ProcessSpec, SimDuration,
};
use bb_workloads::{profiles, tv_scenario_with, TizenParams};
use criterion::{criterion_group, criterion_main, Criterion};

/// Pre-refactor numbers, measured at the parent commit with this same
/// harness (same storm, same scenario, same median-of-200 loops) ported
/// to the old API: tuple-keyed event heap, per-boot allocation, resume
/// re-planning every boot. The committed JSON reports today's numbers
/// against these.
const BASELINE_EVENTS_PER_SEC: f64 = 9_074_826.0;
const BASELINE_FULL_BOOTS_PER_SEC: f64 = 331.641;
const BASELINE_HOTPATH_BOOTS_PER_SEC: f64 = 383.305;

fn scenario() -> Scenario {
    tv_scenario_with(
        profiles::ue48h6200(),
        TizenParams {
            services: 136,
            ..TizenParams::open_source()
        },
    )
}

const STORM_PROCS: u64 = 64;
const STORM_ROUNDS: u64 = 40;

/// A synthetic event storm: `procs` processes ping-ponging between
/// compute slices (longer than the quantum, so they preempt), sleeps,
/// flag waits, stale timed waits, and random reads on one device.
/// Deterministic: the event count is identical across runs and across
/// internal scheduler representations (the refactor invariant).
fn storm_machine(procs: u64, rounds: u64) -> Machine {
    let mut m = Machine::new(MachineConfig {
        cores: 4,
        ..MachineConfig::default()
    });
    let dev = m.add_device("emmc", DeviceProfile::tv_emmc());
    let gate = m.flag("storm-gate");
    for i in 0..procs {
        let mut b = OpsBuilder::new();
        if i % 8 == 7 {
            // Timed waiters whose timeouts go stale (the gate is set
            // long before 500 ms), exercising the stale-drop path.
            b = b.timed_wait_flag(gate, SimDuration::from_millis(500));
        } else if i % 8 == 3 {
            b = b.wait_flag(gate);
        }
        for r in 0..rounds {
            b = b
                .compute(SimDuration::from_micros(1_100 + (i * 37 + r * 13) % 900))
                .sleep(SimDuration::from_micros(200 + (i * 11 + r * 7) % 300));
            if (i + r) % 5 == 0 {
                b = b.read_rand(dev, 4096 + 512 * ((i + r) % 7));
            }
        }
        let spec = ProcessSpec::new(format!("storm-{i}"), b.build()).with_nice((i % 5) as i8 - 2);
        m.spawn(spec);
    }
    // The gate setter: releases the waiters early in the run.
    m.spawn(ProcessSpec::new(
        "gate-setter",
        OpsBuilder::new().compute_ms(2).set_flag(gate).build(),
    ));
    m
}

fn bench_hotpath(c: &mut Criterion) {
    let s = Arc::new(scenario());
    let cfg = BbConfig::full();
    let pre = PreParser::build(&s.units);
    // The checkpoint and every resume share one plan cache, as a forked
    // fleet job's do; cold boots stay uncached because they measure
    // planning.
    let cache = PlanCache::new();
    let ckpt = BootRequest::new(&s)
        .config(cfg)
        .prepared(&pre)
        .plan_cache(&cache, &s)
        .checkpoint_at(CheckpointPhase::KernelHandoff)
        .expect("checkpoint");

    let mut group = c.benchmark_group("hotpath");
    group.sample_size(10);
    group.bench_function("event-storm", |b| {
        b.iter(|| {
            let mut m = storm_machine(STORM_PROCS, STORM_ROUNDS);
            let out = m.run();
            black_box(out.end_time)
        })
    });
    group.bench_function("full-bb-boot", |b| {
        b.iter(|| {
            let boot = BootRequest::new(&s)
                .config(cfg)
                .prepared(&pre)
                .run()
                .expect("boots");
            black_box(boot.report.quiesce_time)
        })
    });
    group.bench_function("hotpath-boot", |b| {
        let mut builder = MachineBuilder::new();
        b.iter(|| {
            let boot = BootRequest::new(&s)
                .config(cfg)
                .prepared(&pre)
                .machine_builder(&mut builder)
                .plan_cache(&cache, &s)
                .resume(&ckpt)
                .expect("resumes");
            black_box(boot.report.quiesce_time);
            builder.recycle(boot.machine);
        })
    });
    group.finish();

    // The committed baseline numbers come from plain `Instant` loops
    // (the vendored criterion keeps its timings private). Medians, not
    // means: one descheduled iteration on a shared host would otherwise
    // swamp the result.
    let iters: u64 = std::env::var("BB_BENCH_ITERS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(200);
    let median = |mut v: Vec<Duration>| -> Duration {
        v.sort_unstable();
        v[v.len() / 2]
    };

    // Raw event throughput on the storm. The event count is the total
    // the queue scheduled over the run — the number of heap operations
    // the inner loop performed, the thing the arena rewrite targets.
    let mut storm_events = 0u64;
    let mut storm_times = Vec::with_capacity(iters as usize);
    for i in 0..iters + 20 {
        let mut m = storm_machine(STORM_PROCS, STORM_ROUNDS);
        let t0 = Instant::now();
        let out = m.run();
        let dt = t0.elapsed();
        black_box(out.end_time);
        storm_events = m.event_queue_stats().scheduled;
        if i >= 20 {
            storm_times.push(dt);
        }
    }
    let events_per_sec = storm_events as f64 / median(storm_times).as_secs_f64();

    // Cold boots and hot-path boots, interleaved so slow host drift
    // (thermal, scheduler) cancels out of the ratio.
    let mut builder = MachineBuilder::new();
    let mut pairs: Vec<(Duration, Duration)> = Vec::with_capacity(iters as usize);
    for i in 0..iters + 20 {
        let t0 = Instant::now();
        let boot = BootRequest::new(&s)
            .config(cfg)
            .prepared(&pre)
            .run()
            .expect("boots");
        black_box(boot.report.quiesce_time);
        let d_full = t0.elapsed();
        drop(boot);
        let t0 = Instant::now();
        let boot = BootRequest::new(&s)
            .config(cfg)
            .prepared(&pre)
            .machine_builder(&mut builder)
            .plan_cache(&cache, &s)
            .resume(&ckpt)
            .expect("resumes");
        black_box(boot.report.quiesce_time);
        let d_hot = t0.elapsed();
        builder.recycle(boot.machine);
        if i >= 20 {
            pairs.push((d_full, d_hot));
        }
    }
    let full = 1.0 / median(pairs.iter().map(|p| p.0).collect()).as_secs_f64();
    let hotpath = 1.0 / median(pairs.iter().map(|p| p.1).collect()).as_secs_f64();

    let mut out = json::open_document(json::SCHEMA_HOTPATH);
    out.push_str(&format!("  \"scenario\": \"{}\",\n", json::escape(&s.name)));
    out.push_str(&format!(
        "  \"iters\": {iters}, \"storm_procs\": {STORM_PROCS}, \"storm_rounds\": {STORM_ROUNDS},\n"
    ));
    out.push_str(&format!("  \"storm_events\": {storm_events},\n"));
    out.push_str(&format!("  \"events_per_sec\": {events_per_sec:.0},\n"));
    out.push_str(&format!("  \"full_boots_per_sec\": {full:.3},\n"));
    out.push_str(&format!("  \"hotpath_boots_per_sec\": {hotpath:.3},\n"));
    out.push_str(&format!(
        "  \"baseline_events_per_sec\": {BASELINE_EVENTS_PER_SEC:.0},\n"
    ));
    out.push_str(&format!(
        "  \"baseline_full_boots_per_sec\": {BASELINE_FULL_BOOTS_PER_SEC:.3},\n"
    ));
    out.push_str(&format!(
        "  \"baseline_hotpath_boots_per_sec\": {BASELINE_HOTPATH_BOOTS_PER_SEC:.3},\n"
    ));
    out.push_str(&format!(
        "  \"speedup_full\": {:.3},\n",
        full / BASELINE_FULL_BOOTS_PER_SEC
    ));
    out.push_str(&format!(
        "  \"speedup_hotpath\": {:.3}\n",
        hotpath / BASELINE_HOTPATH_BOOTS_PER_SEC
    ));
    out.push_str("}\n");
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_hotpath.json");
    std::fs::write(path, &out).expect("write BENCH_hotpath.json");
    println!(
        "[baseline] storm {events_per_sec:.0} events/s ({storm_events} events), \
         full {full:.1} boots/s, hotpath {hotpath:.1} boots/s -> BENCH_hotpath.json"
    );
}

criterion_group!(benches, bench_hotpath);
criterion_main!(benches);
