//! The Service Engine's offline analyzer (§3.3): parse a directory of
//! unit files, report incorrect relations (cycles, contradictions,
//! duplicates, dangling references), and emit a Graphviz dot rendering
//! with the BB Group highlighted.
//!
//! ```text
//! cargo run --release --example service_analyzer [unit-dir]
//! ```
//!
//! Without an argument, analyzes a built-in demo set containing the
//! §4.2 pathologies.

use std::collections::BTreeSet;

use booting_booster::bb::service_engine::{analyze, analyze_directives, identify_bb_group};
use booting_booster::init::{parse_unit, parse_unit_dir_with_warnings, Unit, UnitGraph, UnitName};

/// A demo unit set exhibiting the pathologies the analyzer reports.
fn demo_units() -> Vec<(String, String)> {
    let files = [
        ("var.mount", "[Unit]\nDescription=Mount /var\n[Service]\nType=oneshot\nExecStart=mount /var\n"),
        ("dbus.service", "[Unit]\nDescription=D-Bus\nRequires=var.mount\nAfter=var.mount\n[Service]\nType=notify\nExecStart=dbus-daemon\n"),
        ("fasttv.service", "[Unit]\nRequires=dbus.service\nAfter=dbus.service\n[Service]\nExecStart=fasttv\n"),
        // A §4.2 abuser: wants to launch before the mount. Also carries
        // a real-systemd directive this model drops (lint demo).
        ("messenger.service", "[Unit]\nBefore=var.mount\n[Service]\nExecStart=messenger\nRestart=always\n"),
        // A contradiction: both before and after dbus.
        ("confused.service", "[Unit]\nBefore=dbus.service\nAfter=dbus.service\n[Service]\nExecStart=confused\n"),
        // A cycle pair.
        ("alpha.service", "[Unit]\nAfter=beta.service\n[Service]\nExecStart=alpha\n"),
        ("beta.service", "[Unit]\nAfter=alpha.service\n[Service]\nExecStart=beta\n"),
        // Dangling reference.
        ("lonely.service", "[Unit]\nRequires=ghost.service\n[Service]\nExecStart=lonely\n"),
    ];
    files
        .iter()
        .map(|(n, t)| (n.to_string(), t.to_string()))
        .collect()
}

fn main() {
    let mut warnings = Vec::new();
    let units: Vec<Unit> = match std::env::args().nth(1) {
        Some(dir) => {
            let (units, dir_warnings) = parse_unit_dir_with_warnings(std::path::Path::new(&dir))
                .unwrap_or_else(|e| {
                    eprintln!("error: {e}");
                    std::process::exit(1);
                });
            warnings = dir_warnings;
            units
        }
        None => {
            println!("(no directory given; analyzing the built-in demo set)\n");
            demo_units()
                .into_iter()
                .map(|(name, text)| {
                    let parsed = parse_unit(&name, &text).expect("demo set parses");
                    warnings.extend(parsed.warnings.into_iter().map(|w| (name.clone(), w)));
                    parsed.unit
                })
                .collect()
        }
    };
    println!("parsed {} units", units.len());

    let graph = UnitGraph::build(units).expect("unique unit names");
    let stats = graph.stats();
    println!(
        "edges: {} ordering, {} strong, {} weak, {} dangling refs\n",
        stats.ordering_edges, stats.strong_edges, stats.weak_edges, stats.dangling_refs
    );

    let mut findings = analyze(&graph);
    findings.extend(analyze_directives(&warnings));
    if findings.is_empty() {
        println!("no incorrect relations found");
    } else {
        println!("findings ({}):", findings.len());
        for f in &findings {
            println!("  - {f}");
        }
    }

    // Highlight the BB Group if a completion-defining app is present.
    let completion = UnitName::new("fasttv.service");
    let group: BTreeSet<usize> = if let Some(j) = graph.idx(&completion) {
        let g = identify_bb_group(&graph, &[j]);
        println!("\nBB Group from {completion}:");
        for &i in &g {
            println!("  {}", graph.unit(i).name);
        }
        g
    } else {
        BTreeSet::new()
    };

    let dot_path = "service-graph.dot";
    std::fs::write(dot_path, graph.to_dot(Some(&group))).expect("write dot");
    println!("\ndependency graph written to {dot_path} (render with graphviz)");
}
