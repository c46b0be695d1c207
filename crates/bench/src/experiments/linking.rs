//! E13 — §5: linking strategies for BB Group binaries.
//!
//! The paper's discussion: pre-link and pre-fork, the traditional
//! launch-time optimizations, do *not* pay off for the BB Group —
//! pre-link shows no benefit because nothing has loaded the group's
//! libraries yet this early in boot (and raises security concerns),
//! and pre-fork's setup overhead exceeds its saving for a handful of
//! short-lived launches. Statically building the group's binaries, by
//! contrast, "completely removes overheads incurred by dynamic
//! linking".
//!
//! We reproduce this by decomposing the per-service fork+exec cost
//! (fork + execve + dynamic linking) and running the full-BB TV boot
//! under each strategy applied to the group.

use std::sync::Arc;

use bb_core::{BootRequest, Scenario, UnitPlanSlot};
use bb_init::{ManagerTask, ServiceBody, ServiceType, Unit, UnitName, WorkloadMap};
use bb_sim::{DeviceId, OpsBuilder, SimDuration, SimTime};
use bb_workloads::{profiles, tv_kernel_plan};

/// Decomposition of the default 3 ms fork+exec cost on the TV's A9.
pub mod costs {
    use bb_sim::SimDuration;

    /// `fork()` itself.
    pub fn fork() -> SimDuration {
        SimDuration::from_micros(400)
    }

    /// `execve()` + image setup.
    pub fn exec() -> SimDuration {
        SimDuration::from_micros(600)
    }

    /// Dynamic linking (ld.so relocation of cold libraries).
    pub(super) fn dynlink_cold() -> SimDuration {
        SimDuration::from_millis(2)
    }

    /// Per-service cost of setting up a pre-fork zygote at init start.
    pub(super) fn prefork_setup() -> SimDuration {
        SimDuration::from_millis(5)
    }

    /// Launch cost from a ready zygote.
    pub(super) fn prefork_launch() -> SimDuration {
        SimDuration::from_micros(300)
    }
}

/// One strategy's result.
#[derive(Debug)]
pub struct StrategyResult {
    /// Strategy label.
    pub name: &'static str,
    /// Boot completion time.
    pub boot_time: SimTime,
}

/// The E13 output.
#[derive(Debug)]
pub struct Linking {
    /// Results per strategy, baseline first.
    pub results: Vec<StrategyResult>,
}

/// A chain-only scenario — just the seven BB Group units with
/// deterministic bodies — so launch-cost differences are not drowned in
/// the full stack's scheduler noise. This matches the §5 question,
/// which is specifically about the group's binaries.
fn chain_scenario() -> Scenario {
    let device = DeviceId::from_raw(0);
    let mut units = vec![Unit::new(UnitName::new("tv-boot.target")).requires("fasttv.service")];
    let mut workloads = WorkloadMap::new();
    let mut add = |units: &mut Vec<Unit>, unit: Unit, body: ServiceBody| {
        let exec = format!("wl:{}", unit.name);
        workloads.insert(exec.clone(), body);
        units.push(unit.with_exec(exec).wanted_by("tv-boot.target"));
    };
    add(
        &mut units,
        Unit::new(UnitName::new("var.mount")).with_type(ServiceType::Oneshot),
        ServiceBody {
            pre_ready: OpsBuilder::new()
                .read_rand(device, 192 * 1024)
                .compute_ms(5)
                .build(),
            post_ready: Vec::new(),
        },
    );
    add(
        &mut units,
        Unit::new(UnitName::new("dbus.socket")).needs("var.mount"),
        ServiceBody {
            pre_ready: OpsBuilder::new().compute_ms(1).build(),
            post_ready: Vec::new(),
        },
    );
    add(
        &mut units,
        Unit::new(UnitName::new("dbus.service"))
            .needs("var.mount")
            .after("dbus.socket")
            .with_type(ServiceType::Forking),
        ServiceBody {
            pre_ready: OpsBuilder::new().compute_ms(60).build(),
            post_ready: Vec::new(),
        },
    );
    for (name, cpu, settle) in [
        ("tuner.service", 250u64, 250u64),
        ("hdmi.service", 100, 180),
        ("demux.service", 80, 120),
    ] {
        add(
            &mut units,
            Unit::new(UnitName::new(name))
                .needs("dbus.service")
                .with_type(ServiceType::Forking),
            ServiceBody {
                pre_ready: OpsBuilder::new()
                    .compute_ms(cpu)
                    .sleep(SimDuration::from_millis(settle))
                    .build(),
                post_ready: Vec::new(),
            },
        );
    }
    add(
        &mut units,
        Unit::new(UnitName::new("fasttv.service"))
            .needs("tuner.service")
            .needs("hdmi.service")
            .needs("demux.service")
            .needs("dbus.service")
            .with_type(ServiceType::Forking),
        ServiceBody {
            pre_ready: OpsBuilder::new()
                .read_seq(device, 18 * bb_sim::MIB)
                .compute_ms(1700)
                .build(),
            post_ready: Vec::new(),
        },
    );
    Scenario {
        name: "bb-group-chain".into(),
        machine: profiles::ue48h6200().machine,
        storage: profiles::ue48h6200().storage,
        kernel: tv_kernel_plan(),
        modules: Arc::default(),
        units: Arc::new(units),
        workloads: Arc::new(workloads),
        target: "tv-boot.target".into(),
        completion: vec![UnitName::new("fasttv.service")],
        manager_costs: bb_init::ManagerCosts::default(),
        parse_params: bb_core::ParseCostParams::default(),
        extra_init_tasks: Vec::new(),
        unit_plan_slot: UnitPlanSlot::default(),
    }
}

fn run_strategy(
    name: &'static str,
    group_fork_cost: Option<SimDuration>,
    prefork: bool,
) -> StrategyResult {
    let mut scenario = chain_scenario();
    if prefork {
        // Zygote setup for each of the 7 group services happens during
        // init, before any service can launch.
        scenario.extra_init_tasks.push(ManagerTask::new(
            "prefork-zygotes",
            costs::prefork_setup() * 7,
        ));
    }
    let report = BootRequest::new(&scenario)
        .tweak(|_, _, overrides| {
            if let Some(cost) = group_fork_cost {
                for &j in overrides.isolate.clone().iter() {
                    overrides.fork_cost.insert(j, cost);
                }
            }
        })
        .run()
        .expect("scenario valid")
        .report;
    StrategyResult {
        name,
        boot_time: report.boot_time(),
    }
}

/// Runs the experiment.
pub fn run() -> Linking {
    let dynamic = costs::fork() + costs::exec() + costs::dynlink_cold();
    let static_link = costs::fork() + costs::exec();
    // Pre-link: this early in boot nothing shares the group's libraries,
    // so relocation still runs against cold pages — no benefit (§5).
    let prelink_cold = dynamic;
    let prefork_launch = costs::prefork_launch();
    Linking {
        results: vec![
            run_strategy("dynamic linking (baseline BB)", Some(dynamic), false),
            run_strategy("static linking (shipped)", Some(static_link), false),
            run_strategy("pre-link", Some(prelink_cold), false),
            run_strategy("pre-fork", Some(prefork_launch), true),
        ],
    }
}

impl Linking {
    /// Text rendering.
    pub fn render(&self) -> String {
        use std::fmt::Write as _;
        let mut s = String::new();
        let _ = writeln!(s, "§5 — launch strategies for the 7 BB Group binaries:");
        let baseline = self.results[0].boot_time;
        for r in &self.results {
            let delta = r.boot_time.as_nanos() as i128 - baseline.as_nanos() as i128;
            let _ = writeln!(
                s,
                "  {:<30} boot {:>12}  ({:+.2} ms vs dynamic)",
                r.name,
                r.boot_time.to_string(),
                delta as f64 / 1e6
            );
        }
        let _ = writeln!(
            s,
            "  (paper: static wins; pre-link no benefit this early; pre-fork's\n   setup exceeds its saving for a short-lived group)"
        );
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn static_linking_wins_prefork_loses() {
        let l = run();
        let by = |n: &str| {
            l.results
                .iter()
                .find(|r| r.name.starts_with(n))
                .expect("strategy present")
                .boot_time
        };
        let dynamic = by("dynamic");
        let stat = by("static");
        let prelink = by("pre-link");
        let prefork = by("pre-fork");
        assert!(stat < dynamic, "static {stat} !< dynamic {dynamic}");
        // Pre-link: no benefit (cold libraries), identical boot.
        assert_eq!(prelink, dynamic);
        // Pre-fork: setup cost delays init more than launches save.
        assert!(prefork > dynamic, "prefork {prefork} !> dynamic {dynamic}");
        assert!(run().render().contains("static"));
    }
}
