//! Fleet sweep throughput: cells/sec on a cache-friendly wide grid —
//! the ablation-suite shape every EXPERIMENTS.md sweep uses. 15 cells
//! share one scenario source (baseline pair, 7 single-feature
//! ablations, 7 leave-one-out ablations), 2 seeds each, 60 boots total.
//!
//! This is the shape the shared-artifact layer targets: the cells'
//! configs collapse to 16 distinct (scenario, config) pairs per seed,
//! so grid dedup serves the duplicate conventional boots from cache
//! and the `PlanCache` compiles each distinct pair once.
//!
//! Besides the criterion timings this bench writes `BENCH_sweep.json`
//! at the repo root — the committed sweep-level perf baseline that
//! `scripts/bench_smoke.sh` gates against. The `BASELINE_*` constants
//! were measured with this same harness (same grid, same 1-worker pool,
//! same median-of-30 loop) at the parent commit, before the
//! shared-artifact layer existed, so the committed speedups compare
//! like with like. Iteration count: `BB_BENCH_ITERS` (default 30).
//!
//! `cargo bench --bench sweep`

use std::time::{Duration, Instant};

use bb_core::BbConfig;
use bb_fleet::{json, run_sweep, CellSpec, FleetCache, PoolConfig, PoolStats, SweepSpec};
use bb_workloads::{profiles, TizenParams};
use criterion::{criterion_group, criterion_main, Criterion};

/// Parent-commit numbers, measured with this harness driving the
/// pre-cache `run_sweep` (re-plan every boot, no scenario sharing, no
/// dedup) on the same grid: plain boots and checkpoint-forked boots.
/// The fleet no longer forks; the forked figure stays in the report
/// because EXPERIMENTS E18 cites it.
const BASELINE_PLAIN_CELLS_PER_SEC: f64 = 446.8;
const BASELINE_FORKED_CELLS_PER_SEC: f64 = 444.3;

fn grid(seeds: std::ops::Range<u64>) -> SweepSpec {
    let profile = profiles::ue48h6200();
    let params = TizenParams {
        services: 136,
        ..TizenParams::open_source()
    };
    let cell = |label: String| CellSpec::tizen(label, profile, params).seeds(seeds.clone());
    let mut spec = SweepSpec::new().cell(
        cell("baseline".into())
            .config("conventional", BbConfig::conventional())
            .config("bb", BbConfig::full()),
    );
    for (name, cfg) in BbConfig::single_feature_configs() {
        spec = spec.cell(
            cell(format!("only-{name}"))
                .config("conventional", BbConfig::conventional())
                .config(name, cfg),
        );
    }
    for (name, cfg) in BbConfig::leave_one_out_configs() {
        spec = spec.cell(
            cell(format!("without-{name}"))
                .config("conventional", BbConfig::conventional())
                .config(format!("no-{name}"), cfg),
        );
    }
    spec
}

/// Medians of wall-clock sweep times plus the counters of one
/// representative run — the committed throughput numbers.
fn measure(spec: &SweepSpec, iters: u64) -> (f64, PoolStats) {
    let boots = spec.total_boots();
    let pool = PoolConfig::with_workers(1);
    let mut times = Vec::with_capacity(iters as usize);
    let mut stats = None;
    for i in 0..iters + 3 {
        let t0 = Instant::now();
        let outcome = run_sweep(spec, &pool, &FleetCache::fresh());
        let dt = t0.elapsed();
        assert!(outcome.report.failures.is_empty());
        assert_eq!(outcome.report.total_boots, boots);
        if i >= 3 {
            times.push(dt);
            stats = Some(outcome.stats);
        }
    }
    times.sort_unstable();
    let median: Duration = times[times.len() / 2];
    (
        boots as f64 / median.as_secs_f64(),
        stats.expect("iters > 0"),
    )
}

fn bench_sweep(c: &mut Criterion) {
    let spec = grid(0..2);
    let mut group = c.benchmark_group("sweep");
    group.sample_size(10);
    group.bench_function("ablation-grid", |b| {
        b.iter(|| run_sweep(&spec, &PoolConfig::with_workers(1), &FleetCache::fresh()))
    });
    group.finish();

    let iters: u64 = std::env::var("BB_BENCH_ITERS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(30);

    // The full shared-artifact engine: plan cache + grid dedup (the
    // sweep default).
    let (cells_per_sec, stats) = measure(&spec, iters);
    // Dedup off: every grid point runs a full boot and the plan cache
    // is the only sharing layer — isolates its contribution and makes
    // its counters count one lookup per boot.
    let (nodedup_cells_per_sec, nodedup_stats) = measure(&spec.clone().with_dedup(false), iters);

    let boots = spec.total_boots();
    let speedup = cells_per_sec / BASELINE_PLAIN_CELLS_PER_SEC;
    let mut out = json::open_document(json::SCHEMA_SWEEP);
    out.push_str(&format!(
        "  \"cells\": {}, \"seeds\": 2, \"boots\": {boots}, \"iters\": {iters}, \"workers\": 1,\n",
        spec.cells.len(),
    ));
    out.push_str(&format!("  \"cells_per_sec\": {cells_per_sec:.1},\n"));
    out.push_str(&format!(
        "  \"cells_per_sec_no_dedup\": {nodedup_cells_per_sec:.1},\n"
    ));
    out.push_str(&format!(
        "  \"baseline_plain_cells_per_sec\": {BASELINE_PLAIN_CELLS_PER_SEC:.1},\n"
    ));
    out.push_str(&format!(
        "  \"baseline_forked_cells_per_sec\": {BASELINE_FORKED_CELLS_PER_SEC:.1},\n"
    ));
    out.push_str(&format!("  \"speedup\": {speedup:.3},\n"));
    out.push_str(&format!(
        "  \"speedup_no_dedup\": {:.3},\n",
        nodedup_cells_per_sec / BASELINE_PLAIN_CELLS_PER_SEC
    ));
    out.push_str(&format!(
        "  \"kernel_sims\": {}, \"cells_deduped\": {},\n",
        stats.kernel_sims, stats.cells_deduped,
    ));
    out.push_str(&format!(
        "  \"plans_compiled\": {}, \"plan_cache_hits\": {}\n",
        nodedup_stats.plans_compiled, nodedup_stats.plan_cache_hits,
    ));
    out.push_str("}\n");
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_sweep.json");
    std::fs::write(path, &out).expect("write BENCH_sweep.json");
    println!(
        "[sweep] {boots} boots: {cells_per_sec:.1} cells/s ({speedup:.2}x vs plain baseline \
         {BASELINE_PLAIN_CELLS_PER_SEC:.1}), no-dedup {nodedup_cells_per_sec:.1} cells/s; \
         {} kernel sims, {} deduped, {} plans compiled / {} cache hits -> BENCH_sweep.json",
        stats.kernel_sims,
        stats.cells_deduped,
        nodedup_stats.plans_compiled,
        nodedup_stats.plan_cache_hits,
    );
}

criterion_group!(benches, bench_sweep);
criterion_main!(benches);
