//! Fleet acceptance tests: the aggregated sweep output must be
//! byte-identical for any worker count, and one poisoned job must never
//! take the sweep down with it.

use std::sync::Arc;
use std::time::{Duration, Instant};

use booting_booster::bb::BbConfig;
use booting_booster::fleet::{
    parse_json, run_sweep, CellSpec, FleetCache, PoolConfig, ScenarioSource, SweepSpec,
};
use booting_booster::init::UnitName;
use booting_booster::workloads::{profiles, tv_scenario_with, TizenParams};

fn small_params(seed: u64) -> TizenParams {
    TizenParams {
        services: 24,
        seed,
        ..TizenParams::open_source()
    }
}

fn two_cell_spec() -> SweepSpec {
    SweepSpec::new()
        .cell(
            CellSpec::tizen("tv-small", profiles::ue48h6200(), small_params(0))
                .seeds(0..6)
                .conventional_vs_bb(),
        )
        .cell(
            CellSpec::tizen("phone-small", profiles::galaxy_s6(), small_params(0))
                .seeds([40, 41, 42])
                .config("bb", BbConfig::full())
                .config("preparser-only", {
                    let mut cfg = BbConfig::conventional();
                    cfg.preparser = true;
                    cfg
                }),
        )
}

#[test]
fn aggregated_json_is_byte_identical_across_worker_counts() {
    let spec = two_cell_spec();
    let serial = run_sweep(&spec, &PoolConfig::with_workers(1), &FleetCache::fresh());
    let json_serial = serial.report.to_json();
    assert_eq!(serial.report.total_boots, spec.total_boots());
    assert!(serial.report.failures.is_empty());

    for workers in [2, 3, 5] {
        let parallel = run_sweep(
            &spec,
            &PoolConfig::with_workers(workers),
            &FleetCache::fresh(),
        );
        assert_eq!(parallel.report, serial.report, "{workers} workers");
        assert_eq!(
            parallel.report.to_json(),
            json_serial,
            "JSON must be byte-identical with {workers} workers"
        );
    }
    // And the artifact is well-formed.
    parse_json(&json_serial).expect("sweep JSON parses");
}

#[test]
fn span_metrics_json_is_byte_identical_across_worker_counts() {
    let spec = two_cell_spec().with_metrics(true);
    let serial = run_sweep(&spec, &PoolConfig::with_workers(1), &FleetCache::fresh());
    let metrics = serial
        .report
        .metrics
        .as_ref()
        .expect("metrics collection was requested");
    let json_serial = metrics.to_json();
    parse_json(&json_serial).expect("metrics JSON parses");
    // Spans cover every layer: kernel phases, init, and units.
    let spans = &metrics.cells[0].configs[0].spans;
    for prefix in ["kernel/", "init/", "unit/"] {
        assert!(
            spans.iter().any(|s| s.name.starts_with(prefix)),
            "no {prefix} span in {:?}",
            spans.iter().map(|s| &s.name).collect::<Vec<_>>()
        );
    }

    for workers in [2, 4] {
        let parallel = run_sweep(
            &spec,
            &PoolConfig::with_workers(workers),
            &FleetCache::fresh(),
        );
        assert_eq!(
            parallel.report.metrics.as_ref().unwrap().to_json(),
            json_serial,
            "metrics JSON must be byte-identical with {workers} workers"
        );
    }
}

#[test]
fn panicking_job_is_reported_and_sweep_completes() {
    // A machine with no cores panics inside the simulator (Machine::new
    // refuses it by assertion) — the kind of poisoned cell a big sweep
    // must survive.
    let mut panicking = tv_scenario_with(profiles::ue48h6200(), small_params(0));
    panicking.machine.cores = 0;
    // A completion unit that does not exist fails the plan instead: a
    // transaction error, reported as a failed boost.
    let mut undefined = tv_scenario_with(profiles::ue48h6200(), small_params(0));
    undefined.completion = vec![UnitName::new("no-such-unit.service")];

    let spec = SweepSpec::new()
        .cell(
            CellSpec::tizen("healthy", profiles::ue48h6200(), small_params(0))
                .seeds([1, 2])
                .conventional_vs_bb(),
        )
        .cell(CellSpec::fixed("panicking", panicking).config("bb", BbConfig::full()))
        .cell(CellSpec::fixed("undefined", undefined).config("bb", BbConfig::full()));

    let outcome = run_sweep(&spec, &PoolConfig::with_workers(2), &FleetCache::fresh());
    // The healthy cell aggregated fully...
    assert_eq!(outcome.report.cells[0].completed, 2);
    assert_eq!(outcome.report.total_boots, 4);
    // ...and each poisoned job is a reported failure, not a crash.
    let reasons: Vec<(&str, &str)> = outcome
        .report
        .failures
        .iter()
        .map(|f| (f.cell.as_str(), f.reason.as_str()))
        .collect();
    assert_eq!(reasons.len(), 2, "{reasons:?}");
    let (cell, reason) = reasons[0];
    assert_eq!(cell, "panicking");
    assert!(
        reason.starts_with("panic:") && reason.contains("cores"),
        "unexpected reason: {reason}"
    );
    let (cell, reason) = reasons[1];
    assert_eq!(cell, "undefined");
    assert!(
        reason.starts_with("boost: transaction error:") && reason.contains("no-such-unit"),
        "unexpected reason: {reason}"
    );
}

#[test]
fn deadline_exceeded_jobs_are_isolated_failures() {
    let spec = SweepSpec::new()
        .cell(
            CellSpec::tizen("doomed", profiles::ue48h6200(), small_params(0))
                .seeds([7, 8])
                .conventional_vs_bb(),
        )
        .deadline(Duration::ZERO);
    let outcome = run_sweep(&spec, &PoolConfig::with_workers(2), &FleetCache::fresh());
    assert_eq!(outcome.report.total_boots, 0);
    assert_eq!(outcome.report.failures.len(), 2);
    assert!(outcome
        .report
        .failures
        .iter()
        .all(|f| f.reason == "deadline exceeded"));
    // Failure order is (cell, seed) — not scheduling order.
    assert_eq!(outcome.report.failures[0].seed, 7);
    assert_eq!(outcome.report.failures[1].seed, 8);
}

#[test]
fn fixed_cells_reuse_one_template() {
    let scenario = tv_scenario_with(profiles::ue48h6200(), small_params(3));
    let spec = SweepSpec::new().cell(
        CellSpec::fixed("pinned", scenario)
            .seeds(0..4)
            .config("bb", BbConfig::full()),
    );
    match &spec.cells[0].source {
        ScenarioSource::Fixed(s) => assert!(Arc::strong_count(s) >= 1),
        other => panic!("expected fixed source, got {other:?}"),
    }
    let outcome = run_sweep(&spec, &PoolConfig::with_workers(2), &FleetCache::fresh());
    // Identical template => identical boot time in every slot.
    let stats = &outcome.report.cells[0].configs[0];
    assert_eq!(stats.count, 4);
    assert_eq!(stats.min_ns, stats.max_ns);
    assert_eq!(stats.stddev_ns, 0.0);
}

/// The parallel-speedup acceptance target: a ≥200-boot sweep should
/// scale with the worker count. Gated at *runtime* on the hardware the
/// test actually gets: on a single-core host (this repo's CI container)
/// a parallel speedup is physically impossible and the measurement
/// part is skipped — the byte-identity half still runs everywhere. The
/// threshold is conservative to tolerate shared CI hosts: ≥2.5× on 4+
/// cores, ≥1.2× on 2–3 cores.
#[test]
fn multicore_sweep_speedup_scales_with_cores() {
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());

    // 50 seeds x 2 cells x 2 configs = 200 boots.
    let spec = SweepSpec::new()
        .cell(
            CellSpec::tizen("tv", profiles::ue48h6200(), small_params(0))
                .seeds(0..50)
                .conventional_vs_bb(),
        )
        .cell(
            CellSpec::tizen("phone", profiles::galaxy_s6(), small_params(0))
                .seeds(0..50)
                .conventional_vs_bb(),
        );
    assert_eq!(spec.total_boots(), 200);

    let start = Instant::now();
    let serial = run_sweep(&spec, &PoolConfig::with_workers(1), &FleetCache::fresh());
    let serial_wall = start.elapsed();

    let start = Instant::now();
    let parallel = run_sweep(
        &spec,
        &PoolConfig::with_workers(cores),
        &FleetCache::fresh(),
    );
    let parallel_wall = start.elapsed();

    // The determinism half holds on any hardware.
    assert_eq!(serial.report.to_json(), parallel.report.to_json());

    if cores < 2 {
        eprintln!("single-core host ({cores} core): speedup measurement skipped");
        return;
    }
    let expected = if cores >= 4 { 2.5 } else { 1.2 };
    let speedup = serial_wall.as_secs_f64() / parallel_wall.as_secs_f64();
    assert!(
        speedup >= expected,
        "expected >={expected}x speedup on {cores} cores, measured {speedup:.2}x \
         (serial {serial_wall:?}, parallel {parallel_wall:?})"
    );
}
