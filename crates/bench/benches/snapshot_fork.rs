//! Snapshot/checkpoint perf baseline: full-BB boots/sec vs
//! checkpoint-forked boots/sec on the same scenario.
//!
//! The two sides differ in more than the snapshot. A full boot plans
//! its config afresh and simulates the kernel phase. A forked boot
//! takes its plan from the [`bb_core::PlanCache`] the checkpoint was
//! taken through and resumes a [`bb_core::Checkpoint`] taken at the
//! kernel→init handoff, so restoring the snapshot replaces the kernel
//! simulation. The forked side's lead is the cached plan: with the
//! plan cache on both sides, a resume is level with a run on fresh
//! machines (EXPERIMENTS.md E20), and no fleet job resumes. Besides the
//! criterion timings this bench writes `BENCH_snapshot.json` at the
//! repo root — the committed baseline the CI gate and future
//! optimizations diff against.
//! Iteration count: `BB_BENCH_ITERS` (default 200).
//!
//! `cargo bench --bench snapshot_fork`

use std::hint::black_box;
use std::sync::Arc;
use std::time::{Duration, Instant};

use bb_core::{BbConfig, BootRequest, CheckpointPhase, PlanCache, Scenario};
use bb_fleet::json;
use bb_workloads::{profiles, tv_scenario_with, TizenParams};
use criterion::{criterion_group, criterion_main, Criterion};

fn scenario() -> Scenario {
    tv_scenario_with(
        profiles::ue48h6200(),
        TizenParams {
            services: 136,
            ..TizenParams::open_source()
        },
    )
}

fn bench_snapshot_fork(c: &mut Criterion) {
    let s = Arc::new(scenario());
    let cfg = BbConfig::full();
    // The checkpoint and every resume share one plan cache; full boots
    // stay uncached, so each plans its config on the scenario's shared
    // unit plan.
    let cache = PlanCache::new();
    let ckpt = BootRequest::new(&s)
        .config(cfg)
        .plan_cache(&cache, &s)
        .checkpoint_at(CheckpointPhase::KernelHandoff)
        .expect("checkpoint");

    let mut group = c.benchmark_group("snapshot-fork");
    group.sample_size(10);
    group.bench_function("full-boot", |b| {
        b.iter(|| {
            let boot = BootRequest::new(&s).config(cfg).run().expect("boots");
            black_box(boot.report.quiesce_time)
        })
    });
    group.bench_function("forked-boot", |b| {
        b.iter(|| {
            let boot = BootRequest::new(&s)
                .config(cfg)
                .plan_cache(&cache, &s)
                .resume(&ckpt)
                .expect("resumes");
            black_box(boot.report.quiesce_time)
        })
    });
    group.finish();

    // The committed baseline. The vendored criterion keeps its timings
    // private, so the JSON numbers come from plain `Instant` loops —
    // interleaved full/forked pairs, so slow drift on the host (thermal,
    // scheduler) cancels out of the ratio instead of biasing one side.
    let iters: u64 = std::env::var("BB_BENCH_ITERS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(200);
    let mut pairs: Vec<(Duration, Duration)> = Vec::with_capacity(iters as usize);
    for i in 0..iters + 20 {
        let t0 = Instant::now();
        let boot = BootRequest::new(&s).config(cfg).run().expect("boots");
        black_box(boot.report.quiesce_time);
        let d_full = t0.elapsed();
        // Free this boot's machine before timing the next one, so the
        // allocator hands both paths the same recycled pages.
        drop(boot);
        let t0 = Instant::now();
        let boot = BootRequest::new(&s)
            .config(cfg)
            .plan_cache(&cache, &s)
            .resume(&ckpt)
            .expect("resumes");
        black_box(boot.report.quiesce_time);
        let d_forked = t0.elapsed();
        drop(boot);
        if i >= 20 {
            // First 20 pairs are warm-up.
            pairs.push((d_full, d_forked));
        }
    }
    // Medians, not means: a single descheduled iteration on a shared
    // host would otherwise swamp the few-percent prefix saving.
    let median = |mut v: Vec<Duration>| -> Duration {
        v.sort_unstable();
        v[v.len() / 2]
    };
    let full = 1.0 / median(pairs.iter().map(|p| p.0).collect()).as_secs_f64();
    let forked = 1.0 / median(pairs.iter().map(|p| p.1).collect()).as_secs_f64();

    let mut out = json::open_document(json::SCHEMA_SNAPSHOT);
    out.push_str(&format!("  \"scenario\": \"{}\",\n", json::escape(&s.name)));
    out.push_str(&format!(
        "  \"snapshot_bytes\": {}, \"iters\": {iters},\n",
        ckpt.bytes().len()
    ));
    out.push_str(&format!("  \"full_boots_per_sec\": {full:.3},\n"));
    out.push_str(&format!("  \"forked_boots_per_sec\": {forked:.3},\n"));
    out.push_str(&format!("  \"speedup\": {:.3}\n", forked / full));
    out.push_str("}\n");
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_snapshot.json");
    std::fs::write(path, &out).expect("write BENCH_snapshot.json");
    println!(
        "[baseline] forked {forked:.1} boots/s vs full {full:.1} boots/s \
         ({:.2}x) -> BENCH_snapshot.json",
        forked / full
    );
}

criterion_group!(benches, bench_snapshot_fork);
criterion_main!(benches);
