//! Renders systemd-bootchart-style charts (Figure 5(a)/Figure 7) for
//! the TV scenario: ASCII to stdout, SVG files next to the binary.
//!
//! ```text
//! cargo run --release --example bootchart [conventional|bb]
//! ```

use booting_booster::bb::{BbConfig, BootRequest};
use booting_booster::init::Bootchart;
use booting_booster::workloads::tv_scenario_open_source;

fn main() {
    let which = std::env::args().nth(1).unwrap_or_else(|| "bb".into());
    let cfg = match which.as_str() {
        "conventional" => BbConfig::conventional(),
        "bb" => BbConfig::full(),
        other => {
            eprintln!("unknown mode {other:?}; use conventional|bb");
            std::process::exit(2);
        }
    };
    // The 136-service open-source graph keeps the chart readable.
    let scenario = tv_scenario_open_source();
    // The chart's CPU row reads the machine's core spans.
    let boot = BootRequest::new(&scenario)
        .config(cfg)
        .core_spans(true)
        .run()
        .expect("valid scenario");
    let (report, machine) = (boot.report, boot.machine);
    let chart = Bootchart::build(&report.boot, &machine);

    println!(
        "boot completed at {:.3} s ({} services)\n",
        report.boot_time().as_secs_f64(),
        chart.rows.len()
    );
    // Print the first 40 rows to keep the terminal readable.
    let ascii = chart.to_ascii(100);
    for line in ascii.lines().take(42) {
        println!("{line}");
    }
    if chart.rows.len() > 40 {
        println!("  … ({} more rows)", chart.rows.len() - 40);
    }

    let svg_path = format!("bootchart-{which}.svg");
    std::fs::write(&svg_path, chart.to_svg()).expect("write svg");
    println!("\nfull chart written to {svg_path}");
}
