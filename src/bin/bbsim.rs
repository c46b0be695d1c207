//! `bbsim` — boot-simulation CLI.
//!
//! Boots a scenario under a chosen Booting Booster configuration and
//! prints the timeline; optionally writes a bootchart SVG and the
//! dependency graph. The `sweep` subcommand runs a parallel seed sweep
//! on the bb-fleet work-queue service instead of a single boot; `serve`
//! keeps that service alive behind a socket and `submit` sends jobs to
//! it.
//!
//! ```text
//! bbsim [--scenario tv|tv136|camera] [--units DIR --target T --completion U]
//!       [--features all|none|LIST] [--services N] [--cores N] [--seed N]
//!       [--compare] [--explain] [--json] [--profile] [--metrics]
//!       [--chart FILE.svg] [--dot FILE.dot] [--trace FILE.json] [--blame N]
//!
//! bbsim sweep [--profiles NAMES|all] [--services N] [--seeds N] [--seed N]
//!             [--features all|none|LIST] [--workers N] [--deadline-ms N]
//!             [--fork-from kernel-handoff] [--no-dedup] [--json FILE|-]
//!             [--metrics FILE|-] [--baseline FILE] [--tolerance PCT]
//!
//! bbsim suspend [--scenario tv|tv136|camera] [--services N] [--cores N]
//!               [--seed N] [--json]
//!
//! bbsim chaos [--profiles NAMES|all] [--services N] [--seeds N] [--seed N]
//!             [--plans N] [--plan-seed N] [--corruption N]
//!             [--corruption-seed N] [--workers N] [--deadline-ms N]
//!             [--restart no|on-failure|always] [--restart-sec-ms N]
//!             [--burst N] [--json FILE|-]
//!
//! bbsim serve (--socket PATH | --tcp ADDR) [--workers N]
//!             [--queue-cap N] [--client-quota N]
//!
//! bbsim submit [sweep|chaos] (--socket PATH | --tcp ADDR) [job flags]
//!              [--json FILE|-] [--metrics FILE|-] [--stats] [--shutdown]
//! ```
//!
//! `serve` runs the persistent fleet service: one shared cache of
//! deduplicated boots and kernel checkpoints across every job any
//! client submits (scenarios and compiled plans live as long as their
//! ticket, and a ticket as long as its connection). `submit` speaks
//! the `bb-serve-v1` NDJSON protocol to it; a submitted sweep's
//! `--json` output is byte-identical to the in-process
//! `bbsim sweep --json` for the same flags. `submit --stats` prints
//! the service's `bb-serve-stats-v1` counters; `submit --shutdown`
//! stops the server.
//!
//! With `--units DIR`, your own systemd unit files are parsed and booted
//! with synthesized workload bodies (structure exploration, not absolute
//! timing); `--target` defaults to `boot.target` and `--completion` to
//! the target's first strong requirement. Parsed-but-unsupported
//! directives (e.g. `Restart=`) are reported on stderr.
//!
//! `--explain` prints the resolved pass pipeline (which passes ran and
//! which were skipped) plus the per-pass `PassDelta` attribution
//! table; with `--json` the same deltas appear under `"passes"`.
//!
//! `--profile` prints the critical-path table (the longest blocking
//! chain from power-on to the completion unit, with per-edge slack);
//! combined with `--json` it emits a `bb-profile-v1` document instead
//! of the boot report. `--metrics` boots with machine telemetry enabled
//! and prints the counter/histogram snapshot (`bb-metrics-v1` with
//! `--json`). On `sweep`, `--metrics FILE|-` aggregates per-span
//! durations across the whole sweep into a `bb-metrics-v1` document
//! (byte-identical for any `--workers` value).
//!
//! `LIST` is a comma-separated subset of: rcu-booster, defer-memory,
//! modularizer, defer-journal, deferred-executor, preparser, bb-group.
//!
//! `sweep --fork-from kernel-handoff` forks each job's boots from a
//! shared kernel checkpoint ([`bb_core::Checkpoint`]): the boot prefix
//! is simulated once per distinct prefix key and every config resumes
//! from the saved snapshot. Output is byte-identical to the unforked
//! sweep; the pool summary shows how many kernel simulations ran.
//!
//! `sweep` deduplicates identical grid points by default: two boots
//! with the same (scenario content × seed × config) are simulated once
//! and the deterministic result is fanned out, with compiled boot plans
//! shared through a [`bb_core::PlanCache`]. Output stays byte-identical
//! (the pool summary shows dedup and plan-cache counts); `--no-dedup`
//! forces every grid point to re-simulate.
//!
//! `suspend` compares the three power paths of §2.1 on one scenario: it
//! boots the conventional and full-BB shapes, snapshots the booted
//! machine ([`bb_sim::snapshot`] — the stand-in for the suspended RAM
//! image), restores it, and executes the suspend-to-RAM resume sequence
//! on the restored machine. `--json` emits a `bb-snapshot-v1` document.
//!
//! `chaos` grids `{seed × fault-plan × corruption × config}`: every
//! boot runs under the supervised BB→conventional fallback with
//! `--plans` seeded fault plans (plus the fault-free control plan),
//! `Restart=` armed on every service, and the aggregate reports
//! recovery rate, restart counts, degraded-boot rate, and
//! boot-time-under-fault percentiles. `--corruption N` adds N seeded
//! [`bb_sim::CorruptionPlan`]s (plus the pristine control) that damage
//! each scenario's pre-parse blob and drive the boot through the
//! artifact integrity chain ([`bb_core::recovery`]); per-config stats
//! then include artifact rejection rates and recovery-cost
//! percentiles. Output is deterministic: the same seeds give
//! byte-identical `--json` for any `--workers` value.

use std::process::exit;

use booting_booster::bb::{
    analyze_directives, attribution_table, metrics_snapshot, profile, BbConfig, BootRequest,
    Comparison, Pipeline,
};
use booting_booster::fleet::{
    json, run_chaos, run_sweep, DiffVerdict, FleetCache, PoolConfig, ServiceConfig,
};
use booting_booster::init::{
    blame, parse_unit_dir_with_warnings, time_summary, Bootchart, UnitGraph, UnitName,
};
use booting_booster::serve::{BindAddr, Client, JobKind, Server, SweepArgs};
use booting_booster::workloads::{
    camera_scenario, custom_scenario, profiles, tv_scenario, tv_scenario_open_source,
    tv_scenario_with, TizenParams,
};

struct Args {
    scenario: String,
    units_dir: Option<String>,
    target: String,
    completion: Option<String>,
    features: String,
    services: Option<usize>,
    cores: Option<usize>,
    seed: Option<u64>,
    compare: bool,
    explain: bool,
    json: bool,
    profile: bool,
    metrics: bool,
    chart: Option<String>,
    dot: Option<String>,
    trace: Option<String>,
    blame: usize,
}

fn usage() -> ! {
    eprintln!(
        "usage: bbsim [--scenario tv|tv136|camera] [--features all|none|LIST]\n\
         \u{20}            [--services N] [--cores N] [--seed N] [--compare] [--explain]\n\
         \u{20}            [--json] [--profile] [--metrics] [--chart FILE.svg]\n\
         \u{20}            [--dot FILE.dot] [--blame N]\n\
         \u{20}      bbsim sweep [--profiles NAMES|all] [--services N] [--seeds N]\n\
         \u{20}            [--seed N] [--features LIST] [--workers N] [--deadline-ms N]\n\
         \u{20}            [--fork-from kernel-handoff] [--no-dedup] [--json FILE|-]\n\
         \u{20}            [--metrics FILE|-] [--baseline FILE] [--tolerance PCT]\n\
         \u{20}      bbsim suspend [--scenario tv|tv136|camera] [--services N]\n\
         \u{20}            [--cores N] [--seed N] [--json]\n\
         \u{20}      bbsim chaos [--profiles NAMES|all] [--services N] [--seeds N]\n\
         \u{20}            [--seed N] [--plans N] [--plan-seed N] [--corruption N]\n\
         \u{20}            [--corruption-seed N] [--workers N] [--deadline-ms N]\n\
         \u{20}            [--restart no|on-failure|always] [--restart-sec-ms N]\n\
         \u{20}            [--burst N] [--json FILE|-]\n\
         \u{20}      bbsim serve (--socket PATH | --tcp ADDR) [--workers N]\n\
         \u{20}            [--queue-cap N] [--client-quota N]\n\
         \u{20}      bbsim submit [sweep|chaos] (--socket PATH | --tcp ADDR)\n\
         \u{20}            [job flags] [--json FILE|-] [--metrics FILE|-]\n\
         \u{20}            [--stats] [--shutdown]\n\
         LIST: comma-separated of rcu-booster,defer-memory,modularizer,\n\
         \u{20}     defer-journal,deferred-executor,preparser,bb-group"
    );
    exit(2)
}

fn parse_args(mut it: impl Iterator<Item = String>) -> Args {
    let mut args = Args {
        scenario: "tv".into(),
        units_dir: None,
        target: "boot.target".into(),
        completion: None,
        features: "all".into(),
        services: None,
        cores: None,
        seed: None,
        compare: false,
        explain: false,
        json: false,
        profile: false,
        metrics: false,
        chart: None,
        dot: None,
        trace: None,
        blame: 0,
    };
    while let Some(flag) = it.next() {
        let mut value = |name: &str| {
            it.next().unwrap_or_else(|| {
                eprintln!("missing value for {name}");
                usage()
            })
        };
        match flag.as_str() {
            "--scenario" => args.scenario = value("--scenario"),
            "--units" => args.units_dir = Some(value("--units")),
            "--target" => args.target = value("--target"),
            "--completion" => args.completion = Some(value("--completion")),
            "--features" => args.features = value("--features"),
            "--services" => {
                args.services = Some(value("--services").parse().unwrap_or_else(|_| usage()))
            }
            "--cores" => args.cores = Some(value("--cores").parse().unwrap_or_else(|_| usage())),
            "--seed" => args.seed = Some(value("--seed").parse().unwrap_or_else(|_| usage())),
            "--compare" => args.compare = true,
            "--explain" => args.explain = true,
            "--json" => args.json = true,
            "--profile" => args.profile = true,
            "--metrics" => args.metrics = true,
            "--chart" => args.chart = Some(value("--chart")),
            "--dot" => args.dot = Some(value("--dot")),
            "--trace" => args.trace = Some(value("--trace")),
            "--blame" => args.blame = value("--blame").parse().unwrap_or_else(|_| usage()),
            "--help" | "-h" => usage(),
            other => {
                eprintln!("unknown flag {other}");
                usage()
            }
        }
    }
    args
}

fn parse_features(spec: &str) -> BbConfig {
    BbConfig::from_feature_list(spec).unwrap_or_else(|e| {
        eprintln!("{e}");
        usage()
    })
}

fn build_scenario(args: &Args) -> booting_booster::bb::Scenario {
    if let Some(dir) = &args.units_dir {
        if args.seed.is_some() {
            eprintln!("error: --seed only applies to generated tv scenarios, not --units");
            exit(2);
        }
        let (units, warnings) = parse_unit_dir_with_warnings(std::path::Path::new(dir))
            .unwrap_or_else(|e| {
                eprintln!("error: {e}");
                exit(1);
            });
        // ServiceAnalyzer lint: surface directives the parser accepted
        // but the simulation drops, instead of swallowing them.
        for finding in analyze_directives(&warnings) {
            eprintln!("warning: {finding}");
        }
        let graph = UnitGraph::build(units.clone()).unwrap_or_else(|e| {
            eprintln!("error: {e}");
            exit(1);
        });
        // Completion: explicit flag, or the target's first strong
        // requirement.
        let completion = match &args.completion {
            Some(c) => UnitName::parse(c).unwrap_or_else(|e| {
                eprintln!("error: {e}");
                exit(1);
            }),
            None => {
                let Some(target_idx) = graph.idx(&UnitName::new(&args.target)) else {
                    eprintln!(
                        "error: target {} not found in the unit directory",
                        args.target
                    );
                    exit(1);
                };
                // Prefer the target's own strong requirement; fall back
                // to anything it pulls in.
                let mut edges: Vec<_> = graph.requirement_edges(target_idx).collect();
                edges.sort_by_key(|e| {
                    (
                        e.kind != booting_booster::init::EdgeKind::RequiresStrong,
                        e.src,
                    )
                });
                edges
                    .first()
                    .map(|e| graph.unit(e.src).name.clone())
                    .unwrap_or_else(|| {
                        eprintln!(
                            "error: {} has no requirements; pass --completion",
                            args.target
                        );
                        exit(1);
                    })
            }
        };
        let mut profile = profiles::ue48h6200();
        if let Some(cores) = args.cores {
            profile.machine.cores = cores;
        }
        return custom_scenario(profile, units, &args.target, vec![completion]);
    }
    let base_params = match args.scenario.as_str() {
        "tv" => TizenParams::commercial(),
        "tv136" => TizenParams::open_source(),
        "camera" => {
            if args.seed.is_some() || args.services.is_some() {
                eprintln!("error: --seed/--services only apply to tv scenarios");
                exit(2);
            }
            let mut scenario = camera_scenario();
            if let Some(cores) = args.cores {
                scenario.machine.cores = cores;
            }
            return scenario;
        }
        other => {
            eprintln!("unknown scenario {other:?}");
            usage()
        }
    };
    if args.services.is_none() && args.seed.is_none() {
        let mut scenario = match args.scenario.as_str() {
            "tv" => tv_scenario(),
            _ => tv_scenario_open_source(),
        };
        if let Some(cores) = args.cores {
            scenario.machine.cores = cores;
        }
        return scenario;
    }
    let services = args.services.unwrap_or(base_params.services);
    if services < 24 {
        eprintln!("error: --services must be at least 24 (the TV backbone alone needs that)");
        exit(2);
    }
    let mut profile = profiles::ue48h6200();
    if let Some(cores) = args.cores {
        profile.machine.cores = cores;
    }
    tv_scenario_with(
        profile,
        TizenParams {
            services,
            seed: args.seed.unwrap_or(base_params.seed),
            ..base_params
        },
    )
}

fn boot_json(
    scenario: &booting_booster::bb::Scenario,
    cfg: &BbConfig,
    report: &booting_booster::bb::FullBootReport,
    conventional: Option<&booting_booster::bb::FullBootReport>,
    seed: Option<u64>,
) -> String {
    // Same auditable-codec policy and `{:.3}` ms formatting as the
    // fleet sweep JSON, so single boots diff cleanly against cells.
    let mut out = json::open_document(json::SCHEMA_BOOT);
    out.push_str(&format!(
        "  \"scenario\": \"{}\",\n",
        json::escape(&scenario.name)
    ));
    if let Some(seed) = seed {
        out.push_str(&format!("  \"seed\": {seed},\n"));
    }
    out.push_str(&format!(
        "  \"units\": {}, \"cores\": {}, \"features\": {},\n",
        scenario.units.len(),
        scenario.machine.cores,
        cfg.active_features()
    ));
    let completed = report.boot.completion_time.is_some();
    out.push_str(&format!("  \"completed\": {completed},\n"));
    if completed {
        out.push_str(&format!(
            "  \"boot_ms\": {},\n",
            json::ms(report.boot_time().as_nanos() as f64)
        ));
    }
    out.push_str(&format!(
        "  \"kernel_ms\": {}, \"init_ms\": {}, \"load_ms\": {}, \"quiesce_ms\": {}",
        json::ms(report.kernel.kernel_total().as_nanos() as f64),
        json::ms(
            report
                .boot
                .init_done
                .since(report.boot.userspace_start)
                .as_nanos() as f64
        ),
        json::ms(
            report
                .boot
                .load_done
                .since(report.boot.init_done)
                .as_nanos() as f64
        ),
        json::ms(report.quiesce_time.as_nanos() as f64),
    ));
    out.push_str(",\n  \"passes\": [");
    for (i, d) in report.deltas.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!(
            "\n    {{\"pass\": \"{}\", \"estimated_saving_ms\": {}, \
             \"initcalls_deferred\": {}, \"modules_deferred\": {}, \
             \"tasks_deferred\": {}, \"edges_stripped\": {}, \
             \"units_touched\": {}, \"io_bytes_shifted\": {}}}",
            json::escape(d.pass),
            json::ms(d.estimated_saving.as_nanos() as f64),
            d.initcalls_deferred,
            d.modules_deferred,
            d.tasks_deferred,
            d.edges_stripped,
            d.units_touched,
            d.io_bytes_shifted,
        ));
    }
    if report.deltas.is_empty() {
        out.push(']');
    } else {
        out.push_str("\n  ]");
    }
    if !report.bb_group.is_empty() {
        out.push_str(",\n  \"bb_group\": [");
        for (i, name) in report.bb_group.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            out.push_str(&format!("\"{}\"", json::escape(name.as_str())));
        }
        out.push(']');
    }
    if let Some(conv) = conventional {
        if let (Some(c), Some(b)) = (conv.boot.completion_time, report.boot.completion_time) {
            let conv_ns = c.as_nanos() as f64;
            let boosted_ns = b.as_nanos() as f64;
            out.push_str(&format!(
                ",\n  \"conventional_ms\": {}, \"saving_ms\": {}, \"saving_pct\": {:.3}",
                json::ms(conv_ns),
                json::ms(conv_ns - boosted_ns),
                100.0 * (1.0 - boosted_ns / conv_ns)
            ));
        }
    }
    out.push_str("\n}\n");
    out
}

fn profile_json(
    scenario: &booting_booster::bb::Scenario,
    report: &booting_booster::bb::FullBootReport,
    prof: &booting_booster::bb::BootProfile,
) -> String {
    let mut out = json::open_document(json::SCHEMA_PROFILE);
    out.push_str(&format!(
        "  \"scenario\": \"{}\",\n",
        json::escape(&scenario.name)
    ));
    out.push_str(&format!(
        "  \"boot_ms\": {},\n",
        json::ms(report.boot_time().as_nanos() as f64)
    ));
    out.push_str("  \"critical_path\": ");
    match &prof.critical_path {
        None => out.push_str("null"),
        Some(cp) => {
            out.push_str(&format!(
                "{{\n    \"total_ms\": {},\n    \"steps\": [",
                json::ms(cp.total.as_nanos() as f64)
            ));
            for (i, step) in cp.steps.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                let slack = match step.slack {
                    None => "null".to_string(),
                    Some(d) => json::ms(d.as_nanos() as f64),
                };
                out.push_str(&format!(
                    "\n      {{\"span\": \"{}\", \"start_ms\": {}, \"end_ms\": {}, \
                     \"duration_ms\": {}, \"slack_ms\": {}}}",
                    json::escape(&step.name),
                    json::ms(step.start.as_nanos() as f64),
                    json::ms(step.end.as_nanos() as f64),
                    json::ms(step.duration().as_nanos() as f64),
                    slack,
                ));
            }
            if !cp.steps.is_empty() {
                out.push_str("\n    ");
            }
            out.push_str("]\n  }");
        }
    }
    out.push_str(",\n  \"spans\": [");
    for (i, s) in prof.spans.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!(
            "\n    {{\"name\": \"{}\", \"start_ms\": {}, \"end_ms\": {}}}",
            json::escape(&s.name),
            json::ms(s.start.as_nanos() as f64),
            json::ms(s.end.as_nanos() as f64),
        ));
    }
    if !prof.spans.is_empty() {
        out.push_str("\n  ");
    }
    out.push_str("]\n}\n");
    out
}

fn metrics_json(
    scenario: &booting_booster::bb::Scenario,
    snap: &booting_booster::bb::MetricsSnapshot,
) -> String {
    let mut out = json::open_document(json::SCHEMA_METRICS);
    out.push_str(&format!(
        "  \"scenario\": \"{}\",\n",
        json::escape(&scenario.name)
    ));
    out.push_str("  \"counters\": {");
    for (i, (name, value)) in snap.counters.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!("\n    \"{}\": {}", json::escape(name), value));
    }
    if !snap.counters.is_empty() {
        out.push_str("\n  ");
    }
    out.push_str("},\n  \"histograms\": {");
    for (i, (name, h)) in snap.histograms.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!(
            "\n    \"{}\": {{\"count\": {}, \"min\": {}, \"max\": {}, \"mean\": {}, \
             \"p50\": {}, \"p95\": {}, \"p99\": {}}}",
            json::escape(name),
            h.count,
            h.min,
            h.max,
            h.mean,
            h.p50,
            h.p95,
            h.p99,
        ));
    }
    if !snap.histograms.is_empty() {
        out.push_str("\n  ");
    }
    out.push_str("}\n}\n");
    out
}

fn run_boot(args: Args) {
    let scenario = build_scenario(&args);
    let cfg = parse_features(&args.features);

    if !args.json {
        println!(
            "scenario {} | {} units | {} cores | features: {}/7",
            scenario.name,
            scenario.units.len(),
            scenario.machine.cores,
            cfg.active_features()
        );
    }

    let boot = match BootRequest::new(&scenario)
        .config(cfg)
        .telemetry(args.metrics)
        .run()
    {
        Ok(b) => b,
        Err(e) => {
            eprintln!("boot failed: {e}");
            exit(1);
        }
    };
    let (report, machine) = (boot.report, boot.machine);
    let conventional = if args.compare || args.json {
        Some(
            BootRequest::new(&scenario)
                .config(BbConfig::conventional())
                .run()
                .expect("conventional boots")
                .report,
        )
    } else {
        None
    };
    let prof = if args.profile {
        match profile(&scenario, &report, Some(&machine)) {
            Ok(p) => Some(p),
            Err(e) => {
                eprintln!("profile failed: {e}");
                exit(1);
            }
        }
    } else {
        None
    };

    if args.json {
        // --profile/--metrics switch the document; a plain --json boot
        // report stays byte-identical to what it always was.
        if let Some(prof) = &prof {
            print!("{}", profile_json(&scenario, &report, prof));
        } else if args.metrics {
            print!(
                "{}",
                metrics_json(&scenario, &metrics_snapshot(&report, &machine))
            );
        } else {
            print!(
                "{}",
                boot_json(&scenario, &cfg, &report, conventional.as_ref(), args.seed)
            );
        }
    } else {
        match report.boot.completion_time {
            Some(t) => println!("boot completed at {:.3} s", t.as_secs_f64()),
            None => {
                println!(
                    "boot did NOT complete (blocked: {})",
                    report.boot.outcome.blocked.len()
                )
            }
        }
        println!("{}", time_summary(&report.boot));
        println!(
            "kernel {} | init {} | load {} | quiesce {:.3} s",
            report.kernel.kernel_total(),
            report.boot.init_done.since(report.boot.userspace_start),
            report.boot.load_done.since(report.boot.init_done),
            report.quiesce_time.as_secs_f64()
        );
        if !report.bb_group.is_empty() {
            let names: Vec<&str> = report.bb_group.iter().map(|n| n.as_str()).collect();
            println!("BB group: {}", names.join(", "));
        }
        if let Some(conv) = &conventional {
            println!("\n{}", Comparison::build(conv, &report).to_table());
        }
        if args.explain {
            println!("\npass pipeline (features: {}/7):", cfg.active_features());
            for pass in Pipeline::standard().passes() {
                let state = if pass.enabled(&cfg) { "run " } else { "skip" };
                println!("  [{state}] {}", pass.name());
            }
            if !report.deltas.is_empty() {
                println!("\n{}", attribution_table(&report.deltas));
            }
        }
        if let Some(prof) = &prof {
            match &prof.critical_path {
                Some(cp) => println!("\n{}", cp.render()),
                None => println!("\n(no critical path: boot never completed)"),
            }
        }
        if args.metrics {
            let snap = metrics_snapshot(&report, &machine);
            println!("\ntelemetry counters:");
            for (name, value) in &snap.counters {
                println!("  {name:<26} {value}");
            }
            if !snap.histograms.is_empty() {
                println!("telemetry histograms (ns):");
                println!(
                    "  {:<26} {:>8} {:>12} {:>12} {:>12}",
                    "name", "count", "p50", "p95", "p99"
                );
                for (name, h) in &snap.histograms {
                    println!(
                        "  {:<26} {:>8} {:>12} {:>12} {:>12}",
                        name, h.count, h.p50, h.p95, h.p99
                    );
                }
            }
        }
    }

    if args.blame > 0 {
        println!("\nslowest services by activation time:");
        for (name, d) in blame(&report.boot).into_iter().take(args.blame) {
            println!("  {d:>12} {name}");
        }
    }
    if let Some(path) = &args.chart {
        let chart = Bootchart::build(&report.boot, &machine);
        std::fs::write(path, chart.to_svg()).expect("write chart");
        println!("bootchart written to {path}");
    }
    if let Some(path) = &args.trace {
        std::fs::write(path, booting_booster::sim::chrome_trace(&machine)).expect("write trace");
        println!("chrome trace written to {path} (open in chrome://tracing or Perfetto)");
    }
    if let Some(path) = &args.dot {
        let graph = UnitGraph::build(scenario.units.clone()).expect("valid units");
        let group = booting_booster::bb::identify_bb_group(&graph, &scenario.completion);
        std::fs::write(path, graph.to_dot(Some(&group))).expect("write dot");
        println!("dependency graph written to {path}");
    }
}

// ---------------------------------------------------------------------
// sweep subcommand
// ---------------------------------------------------------------------

/// Flags that never cross the wire: execution placement and output
/// destinations. Everything grid-shaped lives in the shared
/// [`SweepArgs`] wire struct.
#[derive(Default)]
struct LocalFlags {
    workers: Option<usize>,
    json: Option<String>,
    metrics: Option<String>,
    baseline: Option<String>,
    tolerance: f64,
}

/// Parses a sweep/chaos/suspend command line: wire flags go through
/// [`SweepArgs::parse_flag`]; whatever it doesn't claim is matched
/// against the client-side flags here.
fn parse_job_args(kind: JobKind, mut it: impl Iterator<Item = String>) -> (SweepArgs, LocalFlags) {
    let mut job = SweepArgs::new(kind);
    let mut local = LocalFlags {
        tolerance: 2.0,
        ..LocalFlags::default()
    };
    let name = kind.as_str();
    while let Some(flag) = it.next() {
        match job.parse_flag(&flag, &mut || it.next()) {
            Err(e) => {
                eprintln!("error: {e}");
                usage()
            }
            Ok(true) => continue,
            Ok(false) => {}
        }
        let mut value = |flag: &str| {
            it.next().unwrap_or_else(|| {
                eprintln!("missing value for {flag}");
                usage()
            })
        };
        match (flag.as_str(), kind) {
            ("--workers", JobKind::Sweep | JobKind::Chaos) => {
                local.workers = Some(value("--workers").parse().unwrap_or_else(|_| usage()))
            }
            // suspend's --json is a mode switch (print to stdout);
            // sweep/chaos take a destination path.
            ("--json", JobKind::Suspend) => local.json = Some("-".into()),
            ("--json", _) => local.json = Some(value("--json")),
            ("--metrics", JobKind::Sweep) => {
                job.metrics = true;
                local.metrics = Some(value("--metrics"));
            }
            ("--baseline", JobKind::Sweep) => local.baseline = Some(value("--baseline")),
            ("--tolerance", JobKind::Sweep) => {
                local.tolerance = value("--tolerance").parse().unwrap_or_else(|_| usage())
            }
            ("--help" | "-h", _) => usage(),
            (other, _) => {
                eprintln!("unknown {name} flag {other}");
                usage()
            }
        }
    }
    (job, local)
}

fn pool_config(local: &LocalFlags) -> PoolConfig {
    match local.workers {
        Some(n) => PoolConfig::with_workers(n),
        None => PoolConfig::default(),
    }
}

/// Writes a report document to a `--json`/`--metrics` style
/// destination: `-` is stdout, anything else a file path.
fn write_doc(path: &str, doc: &str, what: &str) {
    if path == "-" {
        print!("{doc}");
    } else {
        std::fs::write(path, doc).unwrap_or_else(|e| {
            eprintln!("error: cannot write {what} to {path}: {e}");
            exit(1);
        });
        eprintln!("{what} written to {path}");
    }
}

fn read_baseline(path: &str) -> String {
    std::fs::read_to_string(path).unwrap_or_else(|e| {
        eprintln!("error: cannot read baseline {path}: {e}");
        exit(1);
    })
}

/// Prints baseline drift and exits 1 on regression. Shared by the
/// in-process sweep and `submit`.
fn report_diffs(diffs: Vec<booting_booster::fleet::DiffEntry>, tolerance: f64) {
    let mut regressions = 0;
    for d in &diffs {
        if d.verdict != DiffVerdict::Unchanged {
            println!("{d}");
        }
        if d.verdict == DiffVerdict::Regression {
            regressions += 1;
        }
    }
    if regressions > 0 {
        eprintln!("{regressions} regression(s) beyond {tolerance}%");
        exit(1);
    }
    println!(
        "baseline check passed ({} entries, tolerance {tolerance}%)",
        diffs.len(),
    );
}

/// `bbsim sweep` and `bbsim chaos`: one grid builder, one engine, and
/// the report view of the job's kind.
fn run_grid_cmd(job: SweepArgs, local: LocalFlags) {
    let spec = job.sweep_spec().unwrap_or_else(|e| {
        eprintln!("error: {e}");
        exit(2);
    });
    let pool = pool_config(&local);
    let chaos = job.kind == JobKind::Chaos;
    let axes = if chaos {
        format!(
            " ({} fault plans + control, {} corruption plans + pristine)",
            job.plans, job.corruption
        )
    } else {
        String::new()
    };
    eprintln!(
        "{}: {} cells, {} boots{axes}, {} workers",
        job.kind.as_str(),
        spec.cells.len(),
        spec.total_boots(),
        pool.workers
    );
    if chaos {
        let outcome = run_chaos(&spec, &pool, &FleetCache::fresh());
        print!("{}", outcome.report.summary());
        eprintln!("{}", outcome.stats.summary());
        if let Some(path) = &local.json {
            write_doc(path, &outcome.report.to_json(), "chaos report");
        }
        if !outcome.report.failures.is_empty() {
            exit(1);
        }
        return;
    }
    let outcome = run_sweep(&spec, &pool, &FleetCache::fresh());

    print!("{}", outcome.report.summary());
    eprintln!("{}", outcome.stats.summary());

    if let Some(path) = &local.json {
        write_doc(path, &outcome.report.to_json(), "sweep report");
    }
    if let Some(path) = &local.metrics {
        match &outcome.report.metrics {
            None => eprintln!("no span metrics collected (every job failed)"),
            Some(metrics) => write_doc(path, &metrics.to_json(), "span metrics"),
        }
    }
    if let Some(path) = &local.baseline {
        let diffs = outcome
            .report
            .diff_baseline(&read_baseline(path), local.tolerance)
            .unwrap_or_else(|e| {
                eprintln!("error: bad baseline JSON: {e}");
                exit(1);
            });
        report_diffs(diffs, local.tolerance);
    }
}

// ---------------------------------------------------------------------
// suspend subcommand
// ---------------------------------------------------------------------

fn suspend_json(
    scenario: &booting_booster::bb::Scenario,
    snapshot_bytes: usize,
    resume: booting_booster::sim::SimDuration,
    bb_boot: booting_booster::sim::SimTime,
    conv_boot: booting_booster::sim::SimTime,
) -> String {
    use booting_booster::kernel::StandbyPolicy;
    use booting_booster::sim::snapshot;

    let standby = StandbyPolicy::tv_suspend_to_ram();
    let mut out = json::open_document(json::SCHEMA_SNAPSHOT);
    out.push_str(&format!(
        "  \"scenario\": \"{}\",\n",
        json::escape(&scenario.name)
    ));
    out.push_str(&format!(
        "  \"snapshot_bytes\": {snapshot_bytes}, \"format_version\": {},\n",
        snapshot::FORMAT_VERSION
    ));
    out.push_str(&format!(
        "  \"config_hash\": {},\n",
        snapshot::config_hash(&scenario.machine)
    ));
    out.push_str(&format!(
        "  \"resume_ms\": {}, \"bb_boot_ms\": {}, \"conventional_boot_ms\": {},\n",
        json::ms(resume.as_nanos() as f64),
        json::ms(bb_boot.as_nanos() as f64),
        json::ms(conv_boot.as_nanos() as f64),
    ));
    out.push_str(&format!(
        "  \"standby_watts\": {}, \"standby_limit_watts\": {}, \"standby_compliant\": {}\n",
        standby.standby_watts,
        standby.limit_watts,
        standby.compliant(),
    ));
    out.push_str("}\n");
    out
}

fn run_suspend_cmd(job: SweepArgs, local: LocalFlags) {
    use booting_booster::kernel::{StandbyPolicy, SuspendToRam};
    use booting_booster::sim::snapshot;

    let json = local.json.is_some();
    let boot_args = Args {
        scenario: job.scenario,
        units_dir: None,
        target: "boot.target".into(),
        completion: None,
        features: "all".into(),
        services: job.services,
        cores: job.cores,
        seed: job.seed,
        compare: false,
        explain: false,
        json,
        profile: false,
        metrics: false,
        chart: None,
        dot: None,
        trace: None,
        blame: 0,
    };
    let scenario = build_scenario(&boot_args);

    let boot = |cfg: BbConfig| {
        BootRequest::new(&scenario)
            .config(cfg)
            .run()
            .unwrap_or_else(|e| {
                eprintln!("boot failed: {e}");
                exit(1);
            })
    };
    let conv = boot(BbConfig::conventional());
    let bb = boot(BbConfig::full());
    let conv_boot = conv.report.boot_time();
    let bb_boot = bb.report.boot_time();

    // The booted, quiescent machine *is* the suspended RAM image:
    // serialize it, restore it, and wake the restored copy.
    let bytes = snapshot::save(&bb.machine).unwrap_or_else(|e| {
        eprintln!("snapshot failed: {e}");
        exit(1);
    });
    let mut resumed = snapshot::restore(&bytes).unwrap_or_else(|e| {
        eprintln!("restore failed: {e}");
        exit(1);
    });
    let resume = SuspendToRam::tv()
        .simulate_resume(&mut resumed)
        .resume_time();

    if json {
        print!(
            "{}",
            suspend_json(&scenario, bytes.len(), resume, bb_boot, conv_boot)
        );
        return;
    }

    let suspend = StandbyPolicy::tv_suspend_to_ram();
    let off = StandbyPolicy::tv_cold_off();
    let verdict = |p: &StandbyPolicy| {
        if p.compliant() {
            "compliant"
        } else {
            "VIOLATES the EU limit"
        }
    };
    println!(
        "scenario {} | {} units | snapshot of the booted machine: {} bytes (format v{})",
        scenario.name,
        scenario.units.len(),
        bytes.len(),
        snapshot::FORMAT_VERSION
    );
    println!("\npower-button to usable device:");
    println!(
        "  instant-on resume       {:>9.3} s   standby {:.1} W — {}",
        resume.as_secs_f64(),
        suspend.standby_watts,
        verdict(&suspend)
    );
    println!(
        "  BB cold boot            {:>9.3} s   standby {:.1} W — {}",
        bb_boot.as_secs_f64(),
        off.standby_watts,
        verdict(&off)
    );
    println!(
        "  conventional cold boot  {:>9.3} s   standby {:.1} W — {}",
        conv_boot.as_secs_f64(),
        off.standby_watts,
        verdict(&off)
    );
    println!(
        "\ninstant-on needs {:.1} W in standby — over the EU's {:.1} W cap (§2.1), \
         which is why the cold boot itself must be fast.",
        suspend.standby_watts,
        StandbyPolicy::EU_LIMIT_WATTS
    );
}

// ---------------------------------------------------------------------
// serve / submit subcommands
// ---------------------------------------------------------------------

fn parse_bind_addr(socket: Option<String>, tcp: Option<String>) -> BindAddr {
    match (socket, tcp) {
        (Some(path), None) => BindAddr::Unix(path.into()),
        (None, Some(addr)) => BindAddr::Tcp(addr),
        (None, None) => {
            eprintln!("error: pass --socket PATH or --tcp ADDR");
            usage()
        }
        (Some(_), Some(_)) => {
            eprintln!("error: --socket and --tcp are mutually exclusive");
            usage()
        }
    }
}

fn run_serve_cmd(mut it: impl Iterator<Item = String>) {
    let mut socket = None;
    let mut tcp = None;
    let mut config = ServiceConfig::default();
    while let Some(flag) = it.next() {
        let mut value = |name: &str| {
            it.next().unwrap_or_else(|| {
                eprintln!("missing value for {name}");
                usage()
            })
        };
        match flag.as_str() {
            "--socket" => socket = Some(value("--socket")),
            "--tcp" => tcp = Some(value("--tcp")),
            "--workers" => config.workers = value("--workers").parse().unwrap_or_else(|_| usage()),
            "--queue-cap" => {
                config.queue_capacity = value("--queue-cap").parse().unwrap_or_else(|_| usage())
            }
            "--client-quota" => {
                config.max_pending_per_client =
                    value("--client-quota").parse().unwrap_or_else(|_| usage())
            }
            "--help" | "-h" => usage(),
            other => {
                eprintln!("unknown serve flag {other}");
                usage()
            }
        }
    }
    let addr = parse_bind_addr(socket, tcp);
    let workers = config.workers;
    let server = Server::bind(&addr, config).unwrap_or_else(|e| {
        eprintln!("error: cannot bind {addr}: {e}");
        exit(1);
    });
    // Name the bound port, not the requested one: `--tcp HOST:0` picks it.
    let addr = server
        .tcp_addr()
        .map_or(addr, |bound| BindAddr::Tcp(bound.to_string()));
    eprintln!("serving on {addr} with {workers} workers (submit jobs with: bbsim submit)");
    if let Err(e) = server.run() {
        eprintln!("serve loop failed: {e}");
        exit(1);
    }
    eprintln!("serve: drained and stopped");
}

fn run_submit_cmd(mut it: std::iter::Peekable<impl Iterator<Item = String>>) {
    let kind = match it.peek().map(String::as_str) {
        Some("sweep") => {
            it.next();
            JobKind::Sweep
        }
        Some("chaos") => {
            it.next();
            JobKind::Chaos
        }
        _ => JobKind::Sweep,
    };
    let mut job = SweepArgs::new(kind);
    let mut socket = None;
    let mut tcp = None;
    let mut json = None;
    let mut metrics = None;
    let mut baseline = None;
    let mut tolerance = 2.0f64;
    let mut stats = false;
    let mut shutdown = false;
    while let Some(flag) = it.next() {
        match job.parse_flag(&flag, &mut || it.next()) {
            Err(e) => {
                eprintln!("error: {e}");
                usage()
            }
            Ok(true) => continue,
            Ok(false) => {}
        }
        let mut value = |name: &str| {
            it.next().unwrap_or_else(|| {
                eprintln!("missing value for {name}");
                usage()
            })
        };
        match flag.as_str() {
            "--socket" => socket = Some(value("--socket")),
            "--tcp" => tcp = Some(value("--tcp")),
            "--json" => json = Some(value("--json")),
            "--metrics" if kind == JobKind::Sweep => {
                job.metrics = true;
                metrics = Some(value("--metrics"));
            }
            "--baseline" if kind == JobKind::Sweep => baseline = Some(value("--baseline")),
            "--tolerance" if kind == JobKind::Sweep => {
                tolerance = value("--tolerance").parse().unwrap_or_else(|_| usage())
            }
            "--stats" => stats = true,
            "--shutdown" => shutdown = true,
            "--help" | "-h" => usage(),
            other => {
                eprintln!("unknown submit flag {other}");
                usage()
            }
        }
    }
    let addr = parse_bind_addr(socket, tcp);
    let mut client = Client::connect(&addr).unwrap_or_else(|e| {
        eprintln!("error: cannot connect to {addr}: {e}");
        exit(1);
    });

    // --stats / --shutdown are service operations, not job submissions.
    if stats {
        let doc = client.stats().unwrap_or_else(|e| {
            eprintln!("error: {e}");
            exit(1);
        });
        print!("{doc}");
    }
    if shutdown {
        client.shutdown().unwrap_or_else(|e| {
            eprintln!("error: {e}");
            exit(1);
        });
        eprintln!("server on {addr} is stopping");
    }
    if stats || shutdown {
        return;
    }

    let result = client.run(&job).unwrap_or_else(|e| {
        eprintln!("error: {e}");
        exit(1);
    });
    print!("{}", result.summary);
    eprintln!("{}", result.pool_summary);
    if let Some(path) = &json {
        let what = match kind {
            JobKind::Chaos => "chaos report",
            _ => "sweep report",
        };
        write_doc(path, &result.report, what);
    }
    if let Some(path) = &metrics {
        match &result.metrics {
            None => eprintln!("no span metrics collected (every job failed)"),
            Some(doc) => write_doc(path, doc, "span metrics"),
        }
    }
    if let Some(path) = &baseline {
        let diffs = booting_booster::fleet::diff_baseline_json(
            &result.report,
            &read_baseline(path),
            tolerance,
        )
        .unwrap_or_else(|e| {
            eprintln!("error: bad baseline or report JSON: {e}");
            exit(1);
        });
        report_diffs(diffs, tolerance);
    }
    // A chaos grid that failed boots is a failed run, same as the
    // in-process `bbsim chaos`.
    if kind == JobKind::Chaos && result.failures > 0 {
        exit(1);
    }
}

fn main() {
    let mut argv = std::env::args().skip(1).peekable();
    match argv.peek().map(String::as_str) {
        Some("sweep" | "chaos") => {
            let kind = argv.next().and_then(|k| k.parse().ok());
            let (job, local) = parse_job_args(kind.expect("a grid kind"), argv);
            run_grid_cmd(job, local);
        }
        Some("suspend") => {
            argv.next();
            let (job, local) = parse_job_args(JobKind::Suspend, argv);
            run_suspend_cmd(job, local);
        }
        Some("serve") => {
            argv.next();
            run_serve_cmd(argv);
        }
        Some("submit") => {
            argv.next();
            run_submit_cmd(argv);
        }
        _ => run_boot(parse_args(argv)),
    }
}
