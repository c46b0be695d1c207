//! Bootchart rendering and boot-time analysis.
//!
//! Reproduces the systemd-bootchart visualizations of the paper's
//! Figures 5(a) and 7 (services as horizontal bars over time, CPU
//! utilization in the background) as ASCII and SVG, plus the
//! `systemd-analyze blame` / `time` style reports used to attribute
//! boot time. The critical chain is `bb_core::critical_path`.

use std::fmt::Write as _;

use bb_sim::{Machine, SimTime};

use crate::engine::BootRecord;
use crate::unit::UnitName;

/// One row of a bootchart.
#[derive(Debug, Clone)]
pub struct ChartRow {
    /// Unit name.
    pub name: UnitName,
    /// When the process was spawned (queued).
    pub spawned: SimTime,
    /// First CPU dispatch.
    pub started: SimTime,
    /// Readiness signal.
    pub ready: SimTime,
}

/// A bootchart: rows sorted by start time plus utilization samples.
#[derive(Debug, Clone)]
pub struct Bootchart {
    /// Rows in start order.
    pub rows: Vec<ChartRow>,
    /// End of the charted window (boot completion or last ready).
    pub end: SimTime,
    /// CPU utilization (0–1) per [`Bootchart::SAMPLES`] buckets.
    pub utilization: Vec<f64>,
}

impl Bootchart {
    /// Number of utilization buckets sampled across the window.
    pub const SAMPLES: usize = 60;

    /// Builds a chart from a boot record and the machine that ran it.
    pub fn build(record: &BootRecord, machine: &Machine) -> Bootchart {
        let mut rows: Vec<ChartRow> = record
            .services
            .iter()
            .filter_map(|(name, r)| {
                Some(ChartRow {
                    name: name.clone(),
                    spawned: r.spawned?,
                    started: r.started?,
                    ready: r.ready?,
                })
            })
            .collect();
        rows.sort_by_key(|r| (r.started, r.name.clone()));
        let end = record
            .completion_time
            .into_iter()
            .chain(rows.iter().map(|r| r.ready))
            .max()
            .unwrap_or(SimTime::ZERO);
        let cores = machine.config().cores;
        let mut utilization = Vec::with_capacity(Self::SAMPLES);
        let span = end.saturating_since(SimTime::ZERO);
        for i in 0..Self::SAMPLES {
            let lo = SimTime::ZERO + span.scale(i as f64 / Self::SAMPLES as f64);
            let hi = SimTime::ZERO + span.scale((i + 1) as f64 / Self::SAMPLES as f64);
            utilization.push(machine.trace().utilization(lo, hi, cores));
        }
        Bootchart {
            rows,
            end,
            utilization,
        }
    }

    /// Renders an ASCII chart: one row per service, `.` queued,
    /// `=` running-to-ready, `#` the ready instant; a CPU row on top.
    ///
    /// # Panics
    ///
    /// Panics if `width < 10` (too narrow to render anything).
    pub fn to_ascii(&self, width: usize) -> String {
        assert!(width >= 10, "chart width must be at least 10");
        let mut s = String::new();
        let total = self.end.as_nanos().max(1);
        let col =
            |t: SimTime| ((t.as_nanos() as u128 * (width as u128 - 1)) / total as u128) as usize;
        let _ = writeln!(s, "time: 0 .. {}", self.end);
        // CPU utilization sparkline.
        let levels = [' ', '.', ':', '-', '=', '+', '*', '#'];
        let mut cpu_row = String::with_capacity(width);
        for i in 0..width {
            let bucket = i * Self::SAMPLES / width;
            let u = self.utilization.get(bucket).copied().unwrap_or(0.0);
            let lvl = ((u * (levels.len() - 1) as f64).round() as usize).min(levels.len() - 1);
            cpu_row.push(levels[lvl]);
        }
        let _ = writeln!(s, "{:>24} |{}|", "cpu", cpu_row);
        for row in &self.rows {
            let mut line = vec![' '; width];
            let (q, st, rd) = (col(row.spawned), col(row.started), col(row.ready));
            for c in line.iter_mut().take(st).skip(q) {
                *c = '.';
            }
            for c in line.iter_mut().take(rd).skip(st) {
                *c = '=';
            }
            line[rd.min(width - 1)] = '#';
            let _ = writeln!(
                s,
                "{:>24} |{}| {:.0}ms",
                truncate(row.name.as_str(), 24),
                line.iter().collect::<String>(),
                row.ready.as_millis_f64()
            );
        }
        s
    }

    /// Renders an SVG chart in the systemd-bootchart style.
    pub fn to_svg(&self) -> String {
        let width = 900.0;
        let row_h = 14.0;
        let top = 40.0;
        let height = top + self.rows.len() as f64 * row_h + 20.0;
        let total = self.end.as_nanos().max(1) as f64;
        let x = |t: SimTime| 180.0 + (t.as_nanos() as f64 / total) * (width - 200.0);
        let mut s = String::new();
        let _ = writeln!(
            s,
            r#"<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" font-family="monospace" font-size="10">"#
        );
        // CPU utilization background.
        for (i, u) in self.utilization.iter().enumerate() {
            let bx = 180.0 + (i as f64 / Self::SAMPLES as f64) * (width - 200.0);
            let bw = (width - 200.0) / Self::SAMPLES as f64;
            let _ = writeln!(
                s,
                r##"<rect x="{bx:.1}" y="{top}" width="{bw:.1}" height="{:.1}" fill="#d0e0ff" opacity="{:.2}"/>"##,
                self.rows.len() as f64 * row_h,
                u
            );
        }
        for (i, row) in self.rows.iter().enumerate() {
            let y = top + i as f64 * row_h;
            let _ = writeln!(
                s,
                r#"<text x="2" y="{:.1}">{}</text>"#,
                y + row_h - 4.0,
                row.name
            );
            let _ = writeln!(
                s,
                r##"<rect x="{:.1}" y="{:.1}" width="{:.1}" height="{:.1}" fill="#cccccc"/>"##,
                x(row.spawned),
                y + 3.0,
                (x(row.started) - x(row.spawned)).max(0.5),
                row_h - 6.0
            );
            let _ = writeln!(
                s,
                r##"<rect x="{:.1}" y="{:.1}" width="{:.1}" height="{:.1}" fill="#4a90d9"/>"##,
                x(row.started),
                y + 3.0,
                (x(row.ready) - x(row.started)).max(0.5),
                row_h - 6.0
            );
        }
        let _ = writeln!(
            s,
            r#"<text x="180" y="20">boot 0 .. {} ({} services)</text>"#,
            self.end,
            self.rows.len()
        );
        s.push_str("</svg>\n");
        s
    }
}

fn truncate(s: &str, n: usize) -> &str {
    match s.char_indices().nth(n) {
        Some((idx, _)) => &s[..idx],
        None => s,
    }
}

/// `systemd-analyze time`-style summary of a boot record.
pub fn time_summary(record: &BootRecord) -> String {
    let kernel = record.userspace_start;
    let init = record.init_done.saturating_since(record.userspace_start);
    let load = record.load_done.saturating_since(record.init_done);
    match record.completion_time {
        Some(done) => {
            let services = done.saturating_since(record.load_done);
            format!(
                "Startup finished in {kernel} (firmware+kernel) + {init} (init) + {load} (units) + {services} (services) = {done}"
            )
        }
        None => format!(
            "Startup DID NOT FINISH: {kernel} (firmware+kernel) + {init} (init) + {load} (units), then stalled"
        ),
    }
}

/// `systemd-analyze blame`: units by activation time (first dispatch to
/// readiness — queueing behind dependencies is not charged), descending.
pub fn blame(record: &BootRecord) -> Vec<(UnitName, bb_sim::SimDuration)> {
    let mut v: Vec<(UnitName, bb_sim::SimDuration)> = record
        .services
        .iter()
        .filter_map(|(n, r)| {
            let started = r.started?;
            let ready = r.ready?;
            Some((n.clone(), ready.saturating_since(started)))
        })
        .collect();
    v.sort_by(|a, b| b.1.cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
    v
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{
        run_boot, BootPlan, EngineConfig, EngineMode, LoadModel, ManagerCosts, PlanOverrides,
        ServiceBody, WorkloadMap,
    };
    use crate::graph::UnitGraph;
    use crate::names::JobNames;
    use crate::transaction::Transaction;
    use crate::unit::{ServiceType, Unit};
    use bb_sim::{AccessPattern, DeviceProfile, MachineConfig, OpsBuilder, SimDuration};

    fn boot() -> (BootRecord, Machine) {
        let units = vec![
            Unit::new(UnitName::new("boot.target")).requires("b.service"),
            Unit::new(UnitName::new("a.service"))
                .with_exec("bin:a")
                .with_type(ServiceType::Forking),
            Unit::new(UnitName::new("b.service"))
                .needs("a.service")
                .with_exec("bin:b")
                .with_type(ServiceType::Forking),
        ];
        let graph = UnitGraph::build(units).unwrap();
        let mut machine = Machine::new(MachineConfig::default());
        let device = machine.add_device("emmc", DeviceProfile::tv_emmc());
        let mut wl = WorkloadMap::new();
        for (k, ms) in [("bin:a", 20u64), ("bin:b", 10)] {
            wl.insert(
                k.into(),
                ServiceBody {
                    pre_ready: OpsBuilder::new().compute_ms(ms).build(),
                    post_ready: Vec::new(),
                },
            );
        }
        let transaction = Transaction::build(&graph, "boot.target").unwrap();
        let execution_order = transaction.execution_order(&graph);
        let completion = [graph.idx_of("b.service")];
        let overrides = PlanOverrides::default();
        let names = JobNames::build(&graph, &transaction);
        let plan = BootPlan {
            graph: &graph,
            transaction: &transaction,
            completion: &completion,
            overrides: &overrides,
            init_tasks: &[],
            service_phase_tasks: &[],
            execution_order: &execution_order,
            names: &names,
        };
        let cfg = EngineConfig {
            mode: EngineMode::InOrder,
            load: LoadModel {
                io_bytes: 1024,
                pattern: AccessPattern::Random,
                cpu: SimDuration::from_millis(1),
            },
            costs: ManagerCosts::default(),
            device,
        };
        let record = run_boot(&mut machine, &plan, &wl, &cfg);
        (record, machine)
    }

    #[test]
    fn chart_rows_are_ordered_and_complete() {
        let (record, machine) = boot();
        let chart = Bootchart::build(&record, &machine);
        assert_eq!(chart.rows.len(), 3); // a, b, boot.target
        assert!(chart.rows.windows(2).all(|w| w[0].started <= w[1].started));
        assert_eq!(chart.utilization.len(), Bootchart::SAMPLES);
        assert!(chart.utilization.iter().all(|u| (0.0..=1.0).contains(u)));
    }

    #[test]
    fn ascii_chart_mentions_services() {
        let (record, machine) = boot();
        let chart = Bootchart::build(&record, &machine);
        let text = chart.to_ascii(80);
        assert!(text.contains("a.service"));
        assert!(text.contains("b.service"));
        assert!(text.contains("cpu"));
    }

    #[test]
    fn svg_chart_is_wellformed_enough() {
        let (record, machine) = boot();
        let chart = Bootchart::build(&record, &machine);
        let svg = chart.to_svg();
        assert!(svg.starts_with("<svg"));
        assert!(svg.trim_end().ends_with("</svg>"));
        assert_eq!(svg.matches("<text").count(), chart.rows.len() + 1);
    }

    #[test]
    fn blame_orders_by_duration() {
        let (record, _) = boot();
        let b = blame(&record);
        assert!(b.windows(2).all(|w| w[0].1 >= w[1].1));
        // a.service has the 20 ms body, so it ranks first among services.
        assert_eq!(b[0].0.as_str(), "a.service");
    }

    #[test]
    fn time_summary_reads_like_systemd_analyze() {
        let (record, _) = boot();
        let text = time_summary(&record);
        assert!(text.starts_with("Startup finished in"));
        assert!(text.contains("(services)"));
    }
}
#[cfg(test)]
mod regression_tests {
    use super::truncate;

    #[test]
    fn truncate_respects_char_boundaries() {
        assert_eq!(truncate("télévision-décodeur.service", 4), "télé");
        assert_eq!(truncate("short", 24), "short");
        assert_eq!(truncate("", 3), "");
    }
}
