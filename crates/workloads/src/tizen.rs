//! Synthetic Tizen TV service set: the Figure 2 graph and its workloads.
//!
//! Samsung's actual unit files are not public, so this generator
//! reproduces the *published structure*: 136 services at open-source
//! scale growing to 250+ through commercialization (§2.5); a strong
//! backbone `var.mount → dbus.socket/dbus.service → tuner/hdmi/demux →
//! fasttv` whose strong closure is the seven-member BB Group the paper
//! names (mount, socket, dbus, tuner, hdmi, demux, fasttv; §3.3); heavy
//! fan-in to dbus; layered driver/middleware/application groups; and
//! about a dozen developer-added `Before=var.mount` orderings (§4.2).
//!
//! All jitter is drawn from a seeded RNG: the same parameters always
//! produce the same workload, which the determinism tests rely on.

use bb_init::{ServiceBody, ServiceType, Unit, UnitName, WorkloadMap};
use bb_sim::{DeviceId, OpsBuilder, SimDuration};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// Generator parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TizenParams {
    /// Total service count (including the backbone; minimum 24).
    pub services: usize,
    /// RNG seed for duration/edge jitter.
    pub seed: u64,
    /// Developer-added `Before=var.mount` orderings (§4.2: "about a
    /// dozen in the final release").
    pub false_ordering_edges: usize,
    /// Multiplier on service CPU durations (calibration).
    pub work_scale: f64,
    /// Multiplier on per-service `synchronize_rcu` counts (calibration).
    pub rcu_scale: f64,
    /// Multiplier on service I/O bytes (calibration).
    pub io_scale: f64,
}

impl Default for TizenParams {
    fn default() -> Self {
        TizenParams {
            services: 136,
            seed: 2016,
            false_ordering_edges: 12,
            work_scale: 1.0,
            rcu_scale: 1.0,
            io_scale: 1.0,
        }
    }
}

impl TizenParams {
    /// The open-source 136-service graph of Figure 2.
    pub fn open_source() -> Self {
        Self::default()
    }

    /// The commercialized fork: 250+ services, more false orderings.
    pub fn commercial() -> Self {
        TizenParams {
            services: 250,
            false_ordering_edges: 18,
            ..Self::default()
        }
    }
}

/// The generated workload.
#[derive(Debug, Clone)]
pub struct TizenWorkload {
    /// All units (first entry is the boot target).
    pub units: Vec<Unit>,
    /// Service bodies keyed by `ExecStart=`.
    pub workloads: WorkloadMap,
    /// Boot target name.
    pub target: String,
    /// Boot-completion definition (§2: channel shown + remote input).
    pub completion: Vec<UnitName>,
    /// The seven services the paper names as the 2015 BB Group.
    pub paper_bb_group: Vec<UnitName>,
}

/// Generates the Tizen TV workload.
///
/// # Panics
///
/// Panics if `params.services < 24` (the backbone plus minimal layers).
pub fn tizen_tv(params: &TizenParams, device: DeviceId) -> TizenWorkload {
    assert!(params.services >= 24, "need at least 24 services");
    // The backbone (the vendor's own broadcast chain) is stable across
    // platform churn: its durations come from a fixed stream. `seed`
    // only varies the bulk services — the fellow-developer churn of
    // §2.5.3 that instance-variance experiments regenerate.
    let mut backbone_rng = SmallRng::seed_from_u64(0xBB);
    let mut bulk_rng = SmallRng::seed_from_u64(params.seed);
    let mut units: Vec<Unit> = Vec::with_capacity(params.services + 1);
    let mut workloads = WorkloadMap::new();

    let target = "tv-boot.target".to_owned();
    units.push(
        Unit::new(UnitName::new(target.clone()))
            .requires("fasttv.service")
            .with_description("TV boot completion target"),
    );

    // --- Backbone: the strong chain whose closure is the BB Group. ---
    let add =
        |units: &mut Vec<Unit>, workloads: &mut WorkloadMap, unit: Unit, body: ServiceBody| {
            let exec = format!("wl:{}", unit.name);
            let unit = unit.with_exec(exec.clone()).wanted_by("tv-boot.target");
            workloads.insert(exec, body);
            units.push(unit);
        };

    let cpu = |rng: &mut SmallRng, lo: u64, hi: u64, scale: f64| {
        SimDuration::from_millis(rng.gen_range(lo..=hi)).scale(scale)
    };

    add(
        &mut units,
        &mut workloads,
        Unit::new(UnitName::new("var.mount"))
            .with_type(ServiceType::Oneshot)
            .with_description("Mount /var"),
        ServiceBody {
            pre_ready: OpsBuilder::new()
                .read_rand(device, (192.0 * 1024.0 * params.io_scale) as u64)
                .compute(cpu(&mut backbone_rng, 4, 6, params.work_scale))
                .build(),
            post_ready: Vec::new(),
        },
    );
    add(
        &mut units,
        &mut workloads,
        Unit::new(UnitName::new("dbus.socket"))
            .needs("var.mount")
            .with_description("D-Bus activation socket"),
        ServiceBody {
            pre_ready: OpsBuilder::new()
                .compute(cpu(&mut backbone_rng, 1, 2, params.work_scale))
                .build(),
            post_ready: Vec::new(),
        },
    );
    add(
        &mut units,
        &mut workloads,
        Unit::new(UnitName::new("dbus.service"))
            .needs("var.mount")
            .after("dbus.socket")
            .with_type(ServiceType::Forking)
            .with_description("D-Bus IPC daemon"),
        ServiceBody {
            pre_ready: OpsBuilder::new()
                .read_rand(device, (64.0 * 1024.0 * params.io_scale) as u64)
                .compute(cpu(&mut backbone_rng, 55, 70, params.work_scale))
                .build(),
            post_ready: OpsBuilder::new()
                .compute(cpu(&mut backbone_rng, 8, 15, params.work_scale))
                .build(),
        },
    );
    // Broadcast-path bring-up is physically slow: tuner lock, HDMI
    // handshake, and demux pipeline setup involve hardware settle times
    // (off-CPU sleeps) on top of driver CPU work. This is why the BB
    // floor is still seconds, not milliseconds.
    for (name, cpu_range, settle_ms, rcu, io_kib) in [
        ("tuner.service", (220u64, 280u64), 250u64, 10usize, 256u64),
        ("hdmi.service", (90, 120), 180, 7, 128),
        ("demux.service", (70, 100), 120, 6, 96),
    ] {
        let syncs = (rcu as f64 * params.rcu_scale).round() as usize;
        add(
            &mut units,
            &mut workloads,
            Unit::new(UnitName::new(name))
                .needs("dbus.service")
                .after("dbus.socket")
                .with_type(ServiceType::Forking)
                .with_description("Broadcast-path driver service"),
            ServiceBody {
                pre_ready: OpsBuilder::new()
                    .read_rand(device, (io_kib as f64 * 1024.0 * params.io_scale) as u64)
                    .compute(cpu(
                        &mut backbone_rng,
                        cpu_range.0,
                        cpu_range.1,
                        params.work_scale,
                    ))
                    .sleep(SimDuration::from_millis(settle_ms))
                    .rcu_syncs(syncs, SimDuration::from_micros(150))
                    .build(),
                post_ready: Vec::new(),
            },
        );
    }
    add(
        &mut units,
        &mut workloads,
        Unit::new(UnitName::new("fasttv.service"))
            .needs("tuner.service")
            .needs("hdmi.service")
            .needs("demux.service")
            .needs("dbus.service")
            .after("dbus.socket")
            .with_type(ServiceType::Forking)
            .with_description("Broadcast channel application (boot completion)"),
        ServiceBody {
            pre_ready: OpsBuilder::new()
                .read_seq(device, (18.0 * 1024.0 * 1024.0 * params.io_scale) as u64)
                .compute(cpu(&mut backbone_rng, 1650, 1850, params.work_scale))
                .rcu_syncs(
                    (4.0 * params.rcu_scale).round() as usize,
                    SimDuration::from_micros(150),
                )
                .build(),
            post_ready: Vec::new(),
        },
    );
    // Early infra services outside the critical chain.
    for name in ["journald.service", "udevd.service"] {
        add(
            &mut units,
            &mut workloads,
            Unit::new(UnitName::new(name))
                .after("var.mount")
                .with_type(ServiceType::Forking)
                .with_description("Core infrastructure daemon"),
            ServiceBody {
                pre_ready: OpsBuilder::new()
                    .compute(cpu(&mut backbone_rng, 8, 15, params.work_scale))
                    .build(),
                post_ready: Vec::new(),
            },
        );
    }

    let backbone_count = units.len() - 1; // minus the target

    // --- Layered bulk: drivers / middleware / apps. ---
    let remaining = params.services - backbone_count;
    let n_driver = remaining * 20 / 100;
    let n_middleware = remaining * 40 / 100;
    let n_app = remaining - n_driver - n_middleware;

    let mut middleware_names: Vec<String> = Vec::new();
    let mut bulk_names: Vec<String> = Vec::new();

    for i in 0..n_driver {
        let name = format!("driver-{i:02}.service");
        let syncs = (bulk_rng.gen_range(13..=36) as f64 * params.rcu_scale).round() as usize;
        let body = ServiceBody {
            pre_ready: OpsBuilder::new()
                .read_rand(
                    device,
                    (bulk_rng.gen_range(64..=512) as f64 * 1024.0 * params.io_scale) as u64,
                )
                .compute(cpu(&mut bulk_rng, 17, 68, params.work_scale))
                .rcu_syncs(syncs, SimDuration::from_micros(200))
                .build(),
            post_ready: Vec::new(),
        };
        add(
            &mut units,
            &mut workloads,
            Unit::new(UnitName::new(name.clone()))
                .after("udevd.service")
                .wants("journald.service")
                .with_type(ServiceType::Forking)
                .with_description("Peripheral driver service"),
            body,
        );
        bulk_names.push(name);
    }
    for i in 0..n_middleware {
        let name = format!("middleware-{i:02}.service");
        let syncs = (bulk_rng.gen_range(7..=20) as f64 * params.rcu_scale).round() as usize;
        let mut unit = Unit::new(UnitName::new(name.clone()))
            .needs("dbus.service")
            .with_type(ServiceType::Forking)
            .with_description("Platform middleware service");
        // Intra-group ordering chains (teams order their own services).
        if i > 0 && bulk_rng.gen_bool(0.3) {
            unit = unit.after(&format!(
                "middleware-{:02}.service",
                bulk_rng.gen_range(0..i)
            ));
        }
        let body = ServiceBody {
            pre_ready: OpsBuilder::new()
                .read_rand(
                    device,
                    (bulk_rng.gen_range(32..=256) as f64 * 1024.0 * params.io_scale) as u64,
                )
                .compute(cpu(&mut bulk_rng, 12, 48, params.work_scale))
                .rcu_syncs(syncs, SimDuration::from_micros(200))
                .build(),
            post_ready: OpsBuilder::new()
                .compute(cpu(&mut bulk_rng, 2, 10, params.work_scale))
                .build(),
        };
        add(&mut units, &mut workloads, unit, body);
        middleware_names.push(name.clone());
        bulk_names.push(name);
    }
    for i in 0..n_app {
        let name = format!("app-{i:02}.service");
        let syncs = (bulk_rng.gen_range(2..=11) as f64 * params.rcu_scale).round() as usize;
        let mut unit = Unit::new(UnitName::new(name.clone()))
            .needs("dbus.service")
            .with_type(ServiceType::Forking)
            .with_description("Pre-loaded application service");
        // Apps depend on one or two middleware services.
        if !middleware_names.is_empty() {
            for _ in 0..bulk_rng.gen_range(1..=2usize) {
                let m = &middleware_names[bulk_rng.gen_range(0..middleware_names.len())];
                unit = unit.needs(m);
            }
        }
        let body = ServiceBody {
            pre_ready: OpsBuilder::new()
                .read_rand(
                    device,
                    (bulk_rng.gen_range(128..=768) as f64 * 1024.0 * params.io_scale) as u64,
                )
                .compute(cpu(&mut bulk_rng, 21, 68, params.work_scale))
                .rcu_syncs(syncs, SimDuration::from_micros(250))
                .build(),
            post_ready: Vec::new(),
        };
        add(&mut units, &mut workloads, unit, body);
        bulk_names.push(name);
    }

    // --- §4.2 abuse: Before=var.mount from non-critical services. ---
    // Candidates must not (transitively) depend on anything ordered
    // after var.mount, so use driver-class services (ordered only after
    // udevd) and synthesize extras if needed.
    let mut abusers = 0;
    for u in units.iter_mut() {
        if abusers >= params.false_ordering_edges {
            break;
        }
        if u.name.as_str().starts_with("driver-") {
            u.before.push(UnitName::new("var.mount"));
            // Drop the udevd ordering: these want to run first of all.
            u.after.clear();
            u.wants.clear();
            abusers += 1;
        }
    }
    while abusers < params.false_ordering_edges {
        let name = format!("earlybird-{abusers:02}.service");
        add(
            &mut units,
            &mut workloads,
            Unit::new(UnitName::new(name))
                .before("var.mount")
                .with_type(ServiceType::Forking)
                .with_description("Service that wants to launch first (§4.2)"),
            ServiceBody {
                pre_ready: OpsBuilder::new()
                    .compute(cpu(&mut bulk_rng, 20, 60, params.work_scale))
                    .build(),
                post_ready: Vec::new(),
            },
        );
        abusers += 1;
    }

    TizenWorkload {
        units,
        workloads,
        target,
        completion: vec![UnitName::new("fasttv.service")],
        paper_bb_group: [
            "var.mount",
            "dbus.socket",
            "dbus.service",
            "tuner.service",
            "hdmi.service",
            "demux.service",
            "fasttv.service",
        ]
        .iter()
        .map(|n| UnitName::new(*n))
        .collect(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bb_init::{Transaction, UnitGraph};

    fn device() -> DeviceId {
        DeviceId::from_raw(0)
    }

    #[test]
    fn default_graph_has_136_services() {
        let w = tizen_tv(&TizenParams::open_source(), device());
        // +1 for the target unit.
        assert_eq!(w.units.len(), 137);
        assert_eq!(w.workloads.len(), 136);
    }

    #[test]
    fn commercial_graph_nearly_doubles() {
        let w = tizen_tv(&TizenParams::commercial(), device());
        assert_eq!(w.units.len(), 251);
    }

    #[test]
    fn generation_is_deterministic() {
        let a = tizen_tv(&TizenParams::open_source(), device());
        let b = tizen_tv(&TizenParams::open_source(), device());
        assert_eq!(a.units, b.units);
        // Workload op counts match too.
        for (k, body) in &a.workloads {
            assert_eq!(body.pre_ready.len(), b.workloads[k].pre_ready.len());
        }
    }

    #[test]
    fn graph_builds_and_transaction_is_acyclic() {
        for params in [TizenParams::open_source(), TizenParams::commercial()] {
            let w = tizen_tv(&params, device());
            let g = UnitGraph::build(w.units.clone()).unwrap();
            let tx = Transaction::build(&g, &w.target).unwrap();
            assert_eq!(tx.jobs.len(), w.units.len(), "all units pulled in");
            assert!(tx.dropped_jobs.is_empty());
        }
    }

    #[test]
    fn bb_group_closure_is_the_paper_seven() {
        let w = tizen_tv(&TizenParams::open_source(), device());
        let g = UnitGraph::build(w.units.clone()).unwrap();
        let seeds = vec![g.idx_of("fasttv.service")];
        let group = g.strong_closure(seeds);
        let mut names: Vec<&str> = group.iter().map(|&i| g.unit(i).name.as_str()).collect();
        names.sort_unstable();
        let mut expected: Vec<&str> = w.paper_bb_group.iter().map(|n| n.as_str()).collect();
        expected.sort_unstable();
        assert_eq!(names, expected);
    }

    #[test]
    fn false_ordering_edges_target_var_mount() {
        let w = tizen_tv(&TizenParams::open_source(), device());
        let abusers = w
            .units
            .iter()
            .filter(|u| u.before.iter().any(|b| b.as_str() == "var.mount"))
            .count();
        assert_eq!(abusers, 12);
    }

    #[test]
    fn dbus_has_large_fan_in() {
        let w = tizen_tv(&TizenParams::open_source(), device());
        let g = UnitGraph::build(w.units.clone()).unwrap();
        let dbus = g.idx_of("dbus.service");
        let fan_in = g
            .edges()
            .iter()
            .filter(|e| e.src == dbus && e.kind == bb_init::EdgeKind::RequiresStrong)
            .count();
        // Most middleware and apps require dbus (Figure 2's hub shape).
        assert!(fan_in > 50, "dbus fan-in only {fan_in}");
    }

    #[test]
    fn scales_apply_to_bodies() {
        let light = tizen_tv(
            &TizenParams {
                work_scale: 0.5,
                ..TizenParams::default()
            },
            device(),
        );
        let heavy = tizen_tv(
            &TizenParams {
                work_scale: 2.0,
                ..TizenParams::default()
            },
            device(),
        );
        let total = |w: &TizenWorkload| -> u64 {
            w.workloads
                .values()
                .flat_map(|b| b.pre_ready.iter().chain(b.post_ready.iter()))
                .map(|op| match op {
                    bb_sim::Op::Compute(d) => d.as_nanos(),
                    _ => 0,
                })
                .sum()
        };
        assert!(total(&heavy) > total(&light) * 3);
    }

    #[test]
    #[should_panic(expected = "at least 24")]
    fn tiny_service_count_rejected() {
        tizen_tv(
            &TizenParams {
                services: 10,
                ..TizenParams::default()
            },
            device(),
        );
    }
}
