//! The Booting Booster facade: run a full boot scenario under any
//! [`BbConfig`] and get back the timeline every experiment reads.
//!
//! A [`Scenario`] bundles the hardware profile, the kernel plan, the
//! unit set, the service workload bodies, and the boot-completion
//! definition. The single entry point is the [`BootRequest`] builder:
//! the scenario is lowered to a [`crate::pipeline::BootPlanIr`], the
//! enabled [`PlanPass`]es transform it (recording a [`PassDelta`]
//! each), and the executor runs the boot end to end. The same builder
//! carries the deployment safety nets: a [`FallbackPolicy`] supervisor
//! ([`BootRequest::fallback`]) and a boot artifact as read back from
//! storage ([`BootRequest::artifact`]), validated through the
//! [`crate::recovery`] chain. Callers that boot in a loop attach a
//! [`MachineBuilder`] via [`BootRequest::machine_builder`] so each boot
//! reuses the previous machine's allocations, and a [`PlanCache`] via
//! [`BootRequest::plan_cache`] so every boot of one (scenario, config)
//! runs one shared plan.
//!
//! [`PlanPass`]: crate::pipeline::PlanPass
//! [`PassDelta`]: crate::pipeline::PassDelta

use bb_init::{
    BootRecord, ManagerCosts, PlanOverrides, Transaction, Unit, UnitGraph, UnitName, WorkloadMap,
};
use bb_kernel::{KernelPlan, KernelReport, ModuleCatalog};
use bb_sim::{DeviceProfile, FaultPlan, Machine, MachineBuilder, MachineConfig, RcuStats, SimTime};

use std::sync::Arc;

use crate::config::BbConfig;
use crate::error::Error;
use crate::fallback::{DegradedBoot, FallbackPolicy};
use crate::pipeline::{execute_with, PassDelta, Pipeline, SharedPlan, UnitPlanSlot};
use crate::plan_cache::PlanCache;
use crate::recovery::{validate_preparse_blob, ArtifactRead, RecoveryEvent};
use crate::service_engine::ParseCostParams;

/// A complete boot scenario (hardware + software + completion policy).
///
/// By convention the boot storage device is the machine's device 0;
/// workload bodies that read storage use `DeviceId::from_raw(0)`.
#[derive(Debug, Clone)]
pub struct Scenario {
    /// Scenario name, for reports.
    pub name: String,
    /// Machine shape (cores, speed, quantum, RCU parameters).
    pub machine: MachineConfig,
    /// Boot storage profile.
    pub storage: DeviceProfile,
    /// Kernel plan (defer flags are overwritten per config).
    pub kernel: KernelPlan,
    /// Loadable kernel components, shared with every plan compiled
    /// from this scenario.
    pub modules: Arc<ModuleCatalog>,
    /// The unit set, shared with the graph of the scenario's
    /// [`crate::pipeline::UnitPlan`]. Edit it through [`Arc::make_mut`].
    pub units: Arc<Vec<Unit>>,
    /// Service workload bodies keyed by `ExecStart=`, shared with every
    /// plan compiled from this scenario.
    pub workloads: Arc<WorkloadMap>,
    /// Boot target to expand.
    pub target: String,
    /// Units whose readiness defines boot completion.
    pub completion: Vec<UnitName>,
    /// Manager cost knobs.
    pub manager_costs: ManagerCosts,
    /// Unit-configuration parse cost parameters.
    pub parse_params: ParseCostParams,
    /// Additional init-phase tasks prepended to the Boot-up Engine's
    /// table (experiment hooks, e.g. pre-fork zygote setup).
    pub extra_init_tasks: Vec<bb_init::ManagerTask>,
    /// Memo of the unit plan [`Scenario::unit_plan`] builds; start it
    /// empty with `UnitPlanSlot::default()`.
    pub unit_plan_slot: UnitPlanSlot,
}

/// Everything measured from one boosted (or conventional) boot.
#[derive(Debug)]
pub struct FullBootReport {
    /// The configuration that ran.
    pub config: BbConfig,
    /// Kernel phase timings.
    pub kernel: KernelReport,
    /// Init/service phase record.
    pub boot: BootRecord,
    /// RCU engine statistics.
    pub rcu: RcuStats,
    /// Identified BB Group (empty when `bb_group` is off).
    pub bb_group: Vec<UnitName>,
    /// Time the machine went fully quiescent (deferred work included).
    pub quiesce_time: SimTime,
    /// Per-pass provenance: what each enabled [`crate::pipeline::PlanPass`]
    /// changed in the plan (empty for a conventional boot).
    pub deltas: Vec<PassDelta>,
}

impl FullBootReport {
    /// Boot time from power-on to the completion definition.
    ///
    /// # Panics
    ///
    /// Panics if the boot never completed.
    pub fn boot_time(&self) -> SimTime {
        self.boot.boot_time()
    }

    /// Boot time, or `None` if the completion definition was never met
    /// (a hung boot). The non-panicking form for sweep workers.
    pub fn try_boot_time(&self) -> Option<SimTime> {
        self.boot.try_boot_time()
    }
}

/// One boot of a [`Scenario`], as returned by [`BootRequest::run`]: the
/// measured report plus the machine whose trace produced it (for
/// bootcharts, chrome traces, and pass spans).
#[derive(Debug)]
pub struct Boot {
    /// Everything measured from the boot. When the fallback supervisor
    /// tripped, this is the abandoned attempt (faults installed).
    pub report: FullBootReport,
    /// The simulated machine, run to quiescence.
    pub machine: Machine,
    /// Artifact recoveries this boot incurred (empty unless an artifact
    /// was supplied and needed the [`crate::recovery`] chain).
    pub recoveries: Vec<RecoveryEvent>,
    /// The conventional rescue boot, when a
    /// [`fallback`](BootRequest::fallback) supervisor judged the
    /// attempt failed; `None` for a boot that met its policy (or ran
    /// unsupervised).
    pub degraded: Option<Box<DegradedBoot>>,
}

impl Boot {
    /// The user-visible boot time: the completion time of a boot that
    /// met its policy, or — for a degraded boot — the time the
    /// supervisor burned detecting the failure plus the conventional
    /// rescue. `None` if the boot (or its rescue) never completed.
    pub fn user_boot_time(&self) -> Option<SimTime> {
        match &self.degraded {
            None => self.report.try_boot_time(),
            Some(d) => d.rescue.try_boot_time().map(|t| t + d.detected_after),
        }
    }

    /// Total supervised respawns across all units of the attempt.
    pub fn restarts(&self) -> u32 {
        self.report.boot.services.values().map(|s| s.restarts).sum()
    }
}

/// The single entry point for booting a scenario: a builder over every
/// knob the old `boost_*` family spread across four functions.
///
/// Defaults: the full BB configuration, no faults, no fallback
/// supervisor, no artifact, telemetry off, core spans off, no plan
/// tweak.
///
/// # Examples
///
/// ```no_run
/// use bb_core::{BbConfig, BootRequest};
/// # fn scenario() -> bb_core::Scenario { unimplemented!() }
/// let s = scenario();
/// let boot = BootRequest::new(&s)
///     .config(BbConfig::full())
///     .telemetry(true)
///     .run()?;
/// println!("boot time: {}", boot.report.boot_time());
/// # Ok::<(), bb_core::Error>(())
/// ```
pub struct BootRequest<'s> {
    scenario: &'s Scenario,
    cfg: BbConfig,
    faults: Option<&'s FaultPlan>,
    fallback: Option<FallbackPolicy>,
    artifact: Option<&'s ArtifactRead>,
    telemetry: bool,
    core_spans: bool,
    builder: Option<&'s mut MachineBuilder>,
    cache: Option<(&'s PlanCache, &'s Arc<Scenario>)>,
    #[allow(clippy::type_complexity)]
    tweak: Option<Box<dyn FnOnce(&UnitGraph, &Transaction, &mut PlanOverrides) + 's>>,
}

impl<'s> BootRequest<'s> {
    /// Starts a request for one boot of `scenario` (full BB config).
    pub fn new(scenario: &'s Scenario) -> Self {
        BootRequest {
            scenario,
            cfg: BbConfig::full(),
            faults: None,
            fallback: None,
            artifact: None,
            telemetry: false,
            core_spans: false,
            builder: None,
            cache: None,
            tweak: None,
        }
    }

    /// Boots under `cfg` instead of the default full BB configuration.
    pub fn config(mut self, cfg: BbConfig) -> Self {
        self.cfg = cfg;
        self
    }

    /// Installs a fault plan before the kernel boots, so device faults
    /// afflict kernel-phase reads too. The empty plan is a strict
    /// no-op.
    pub fn faults(mut self, faults: &'s FaultPlan) -> Self {
        self.faults = Some(faults);
        self
    }

    /// Supervises the boot (§3.4 deployment safety): after
    /// [`run`](Self::run), the attempt is judged against `policy` — a
    /// unit that hit its start limit, a boot that never completed, or
    /// one that completed after the deadline trips the supervisor. A
    /// tripped boot is booted again in conventional shape with no
    /// faults (the transient faults a [`FaultPlan`] models do not
    /// survive the reboot, which is why the fallback is trusted), and
    /// the rescue lands on [`Boot::degraded`].
    pub fn fallback(mut self, policy: FallbackPolicy) -> Self {
        self.fallback = Some(policy);
        self
    }

    /// Supplies a boot artifact as it was read back from storage,
    /// validated through the [`crate::recovery`] chain (bounded
    /// transient-read retries, then integrity checks). Every recovery
    /// is priced as a [`RecoveryEvent`] on [`Boot::recoveries`].
    ///
    /// [`run`](Self::run) reads it as the Pre-parser cache: container
    /// CRC, format version, and the content hash against this
    /// scenario's unit set. A rejected cache turns the Pre-parser off
    /// for this boot (the timeline of a device whose cache was
    /// discarded: bit-identical to a boot that never had it). Ignored
    /// when the configuration does not use the Pre-parser — a
    /// conventional boot never reads the cache.
    pub fn artifact(mut self, read: &'s ArtifactRead) -> Self {
        self.artifact = Some(read);
        self
    }

    /// Draws the boot's machine from `builder`'s recycling pool instead
    /// of allocating a fresh one — the fleet hot path. Hand the
    /// finished [`Boot::machine`] back via [`MachineBuilder::recycle`]
    /// so the next request reuses its allocations. The builder contract
    /// ([`MachineBuilder::build`]) makes this invisible in results:
    /// timelines, traces, and snapshots stay bit-identical.
    pub fn machine_builder(mut self, builder: &'s mut MachineBuilder) -> Self {
        self.builder = Some(builder);
        self
    }

    /// Shares compiled plans through `cache`: [`run`](Self::run) first
    /// consults the cache for a plan compiled for (`scenario`, this
    /// request's config) and reuses it with zero clones; on a miss it
    /// plans once and moves the plan into the cache. The sweep-wide
    /// amortization this enables is why fleet workers hand every
    /// request the same cache (see `bb-fleet`).
    ///
    /// `scenario` is the cache key and **must be the very allocation
    /// this request was built from** (the `Arc` whose contents
    /// [`BootRequest::new`] borrowed) — the cache keys by pointer
    /// identity, so handing it a different `Arc` would file the plan
    /// under the wrong scenario.
    ///
    /// Requests with a [`tweak`](Self::tweak) bypass the cache: tweaks
    /// mutate the plan per boot, so their plans are never shared.
    ///
    /// # Panics
    ///
    /// Panics if `scenario` is not the request's scenario.
    pub fn plan_cache(mut self, cache: &'s PlanCache, scenario: &'s Arc<Scenario>) -> Self {
        assert!(
            std::ptr::eq::<Scenario>(Arc::as_ptr(scenario), self.scenario),
            "plan_cache scenario must be the Arc the request's scenario reference points into"
        );
        self.cache = Some((cache, scenario));
        self
    }

    /// Arms the machine's metrics sink (RCU waits, run-queue depth, I/O
    /// latency histograms; see [`bb_sim::telemetry`]). Off by default —
    /// and guaranteed not to perturb the timeline when on.
    pub fn telemetry(mut self, enabled: bool) -> Self {
        self.telemetry = enabled;
        self
    }

    /// Records core busy spans ([`bb_sim::CoreSpan`]) on the boot's
    /// machine: the CPU-utilization rows of a [`bb_init::Bootchart`] and
    /// the slices of a [`bb_sim::chrome_trace`]. Off by default, because
    /// no report reads them and a 1000-service boot dispatches ~74,000
    /// times; the timeline is the same either way.
    pub fn core_spans(mut self, enabled: bool) -> Self {
        self.core_spans = enabled;
        self
    }

    /// Adjusts the plan overrides after the passes ran — e.g. the
    /// paper's §4.2 experiment that manually adds *only* `var.mount` to
    /// the BB Group without enabling the full isolator.
    pub fn tweak(
        mut self,
        tweak: impl FnOnce(&UnitGraph, &Transaction, &mut PlanOverrides) + 's,
    ) -> Self {
        self.tweak = Some(Box::new(tweak));
        self
    }

    /// Plans and executes the boot. A supplied
    /// [`artifact`](Self::artifact) is validated first and recoveries
    /// land on [`Boot::recoveries`]; a [`fallback`](Self::fallback)
    /// supervisor then judges the attempt and, on a trip, records the
    /// conventional rescue on [`Boot::degraded`].
    pub fn run(mut self) -> Result<Boot, Error> {
        let mut recoveries = Vec::new();
        if let Some(read) = self.artifact.take().filter(|_| self.cfg.reads_artifact()) {
            match validate_preparse_blob(read, self.scenario)? {
                Ok(retried) => recoveries.extend(retried),
                Err(rejected) => {
                    // The cache is gone; this boot pays the
                    // conventional parse path, exactly as a device
                    // whose blob was discarded would.
                    self.cfg.preparser = false;
                    recoveries.push(rejected);
                }
            }
        }
        let plan = self.plan()?;
        let (ir, deltas) = &*plan;
        let no_faults = FaultPlan::none();
        let faults = self.faults.unwrap_or(&no_faults);
        let (report, machine) = execute_with(
            ir,
            deltas.clone(),
            faults,
            self.telemetry,
            self.core_spans,
            self.builder,
        );
        let mut boot = Boot {
            report,
            machine,
            recoveries,
            degraded: None,
        };
        if let Some((reason, detected_after)) = self.fallback.and_then(|p| p.judge(&boot.report)) {
            let rescue = BootRequest::new(self.scenario).config(BbConfig::conventional());
            boot.degraded = Some(Box::new(DegradedBoot {
                rescue: rescue.run()?.report,
                reason,
                detected_after,
            }));
        }
        Ok(boot)
    }

    /// The boot's plan. A plan-cache hit returns the shared `Arc`; a
    /// miss plans the boot and, with a cache attached, moves the plan
    /// into the cache. A tweaked plan is private: it is neither looked
    /// up nor published.
    fn plan(&mut self) -> Result<SharedPlan, Error> {
        let cache = self.cache.filter(|_| self.tweak.is_none());
        if let Some(plan) = cache.and_then(|(cache, key)| cache.lookup(key, &self.cfg)) {
            return Ok(plan);
        }
        let (mut ir, deltas) = Pipeline::standard().plan(self.scenario, &self.cfg, None)?;
        if let Some(tweak) = self.tweak.take() {
            let units = &ir.unit_plan;
            tweak(&units.graph, &units.transaction, &mut ir.overrides);
        }
        let plan = Arc::new((ir, deltas));
        if let Some((cache, key)) = cache {
            cache.insert(key, &self.cfg, Arc::clone(&plan));
        }
        Ok(plan)
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use bb_init::{ServiceBody, ServiceType, TransactionError};
    use bb_kernel::{
        synthetic_catalog, Criticality, Initcall, InitcallLevel, InitcallRegistry, MemoryPlan,
        RootfsPlan,
    };
    use bb_sim::{DeviceId, OpsBuilder, RcuMode, RcuParams, SimDuration};

    /// A miniature TV scenario: a BB group chain (var.mount → dbus →
    /// tuner → fasttv) plus a handful of heavy non-critical services.
    pub(crate) fn mini_tv() -> Scenario {
        let mut units = vec![
            Unit::new(UnitName::new("tv-boot.target"))
                .requires("fasttv.service")
                .requires("store.service")
                .requires("voice.service")
                .requires("browser.service"),
            Unit::new(UnitName::new("var.mount"))
                .with_type(ServiceType::Oneshot)
                .with_exec("mount:/var"),
            Unit::new(UnitName::new("dbus.service"))
                .needs("var.mount")
                .with_type(ServiceType::Forking)
                .with_exec("dbus"),
            Unit::new(UnitName::new("tuner.service"))
                .needs("dbus.service")
                .with_type(ServiceType::Forking)
                .with_exec("tuner"),
            Unit::new(UnitName::new("fasttv.service"))
                .needs("tuner.service")
                .with_type(ServiceType::Forking)
                .with_exec("fasttv"),
        ];
        // Non-critical heavies; two abuse Before=var.mount to launch
        // early (§4.2) and therefore cannot also depend on dbus.
        for (i, name) in ["store", "voice", "browser"].iter().enumerate() {
            let mut u = Unit::new(UnitName::new(format!("{name}.service")))
                .with_type(ServiceType::Forking)
                .with_exec("heavy");
            if i < 2 {
                u = u.before("var.mount");
            } else {
                u = u.needs("dbus.service");
            }
            units.push(u);
        }

        let mut workloads = WorkloadMap::new();
        let dev = DeviceId::from_raw(0);
        workloads.insert(
            "mount:/var".into(),
            ServiceBody {
                pre_ready: OpsBuilder::new()
                    .read_rand(dev, 256 * 1024)
                    .compute_ms(4)
                    .build(),
                post_ready: Vec::new(),
            },
        );
        workloads.insert(
            "dbus".into(),
            ServiceBody {
                pre_ready: OpsBuilder::new().compute_ms(8).build(),
                post_ready: OpsBuilder::new().compute_ms(3).build(),
            },
        );
        for k in ["tuner", "fasttv"] {
            workloads.insert(
                k.into(),
                ServiceBody {
                    pre_ready: OpsBuilder::new()
                        .compute_ms(10)
                        .rcu_syncs(12, SimDuration::from_micros(200))
                        .build(),
                    post_ready: Vec::new(),
                },
            );
        }
        workloads.insert(
            "heavy".into(),
            ServiceBody {
                pre_ready: OpsBuilder::new()
                    .compute_ms(40)
                    .rcu_syncs(30, SimDuration::from_micros(200))
                    .read_rand(dev, 512 * 1024)
                    .build(),
                post_ready: Vec::new(),
            },
        );

        let mut initcalls = InitcallRegistry::new();
        initcalls.register(Initcall::new(
            "emmc",
            InitcallLevel::Subsys,
            SimDuration::from_millis(30),
            Criticality::BootCritical,
        ));
        initcalls.register(Initcall::new(
            "usb",
            InitcallLevel::Device,
            SimDuration::from_millis(40),
            Criticality::Deferrable,
        ));

        Scenario {
            name: "mini-tv".into(),
            machine: MachineConfig {
                cores: 4,
                rcu_params: RcuParams::default(),
                rcu_mode: RcuMode::ClassicSpin,
                ..MachineConfig::default()
            },
            storage: DeviceProfile::tv_emmc(),
            kernel: KernelPlan {
                bootloader: SimDuration::from_millis(80),
                image_bytes: 10 * bb_sim::MIB,
                memory: MemoryPlan::tv_1gib(),
                initcalls,
                rootfs: RootfsPlan::tv_emmc(),
                misc: SimDuration::from_millis(60),
                defer_memory: false,
                defer_initcalls: false,
                defer_journal: false,
            },
            modules: Arc::new(synthetic_catalog(60)),
            units: Arc::new(units),
            workloads: Arc::new(workloads),
            target: "tv-boot.target".into(),
            completion: vec![UnitName::new("fasttv.service")],
            manager_costs: ManagerCosts::default(),
            parse_params: ParseCostParams::default(),
            extra_init_tasks: Vec::new(),
            unit_plan_slot: UnitPlanSlot::default(),
        }
    }

    fn boost(s: &Scenario, cfg: &BbConfig) -> Result<FullBootReport, Error> {
        BootRequest::new(s).config(*cfg).run().map(|b| b.report)
    }

    #[test]
    fn conventional_boot_completes() {
        let s = mini_tv();
        let r = boost(&s, &BbConfig::conventional()).unwrap();
        assert!(r.boot.completion_time.is_some());
        assert!(r.boot.outcome.failed.is_empty());
        assert!(r.bb_group.is_empty());
        assert!(r.quiesce_time >= r.boot_time());
    }

    #[test]
    fn full_bb_is_faster_than_conventional() {
        let s = mini_tv();
        let conv = boost(&s, &BbConfig::conventional()).unwrap();
        let bb = boost(&s, &BbConfig::full()).unwrap();
        assert!(
            bb.boot_time() < conv.boot_time(),
            "BB {} not faster than conventional {}",
            bb.boot_time(),
            conv.boot_time()
        );
        assert_eq!(
            bb.bb_group,
            [
                "var.mount",
                "dbus.service",
                "tuner.service",
                "fasttv.service"
            ]
            .map(UnitName::new)
        );
    }

    #[test]
    fn every_single_feature_helps_or_is_neutral() {
        let s = mini_tv();
        let conv = boost(&s, &BbConfig::conventional()).unwrap().boot_time();
        for (name, cfg) in BbConfig::single_feature_configs() {
            let t = boost(&s, &cfg).unwrap().boot_time();
            // The RCU Booster is allowed a small regression here: this
            // mini scenario has little writer contention, which is
            // exactly the regime where the paper keeps the classic path
            // (§4.3). The full TV scenario asserts the win (bb-bench).
            let slack = if name == "rcu-booster" {
                8_000_000
            } else {
                2_000_000
            };
            assert!(
                t.as_nanos() <= conv.as_nanos() + slack,
                "feature {name} hurt boot: {t} vs {conv}"
            );
        }
    }

    #[test]
    fn rcu_booster_switches_modes_across_completion() {
        let s = mini_tv();
        let r = boost(&s, &BbConfig::full()).unwrap();
        // Boot-time syncs were boosted; the control process reverted the
        // mode afterwards.
        assert!(r.rcu.boosted_syncs > 0);
    }

    #[test]
    fn deferred_work_extends_quiesce_past_completion() {
        let s = mini_tv();
        let r = boost(&s, &BbConfig::full()).unwrap();
        assert!(
            r.quiesce_time > r.boot_time(),
            "deferred work should continue after completion"
        );
    }

    #[test]
    fn recycled_builder_matches_fresh_event_for_event() {
        let s = mini_tv();
        let mut builder = MachineBuilder::new();
        for cfg in [BbConfig::conventional(), BbConfig::full()] {
            let fresh = BootRequest::new(&s).config(cfg).run().unwrap();
            // The second boot builds its machine from the first boot's
            // recycled buffers; capacity reuse must not be observable.
            builder.recycle(BootRequest::new(&s).config(cfg).run().unwrap().machine);
            let pooled = BootRequest::new(&s)
                .config(cfg)
                .machine_builder(&mut builder)
                .run()
                .unwrap();
            assert_eq!(
                fresh.report.boot.completion_time,
                pooled.report.boot.completion_time
            );
            assert_eq!(fresh.report.quiesce_time, pooled.report.quiesce_time);
            let a = fresh.machine.trace().events();
            let b = pooled.machine.trace().events();
            assert_eq!(a.len(), b.len(), "event counts diverge");
            for (x, y) in a.iter().zip(b) {
                assert_eq!(x, y, "trace event diverges");
            }
        }
    }

    #[test]
    fn core_spans_are_recorded_only_on_request() {
        let s = mini_tv();
        let plain = BootRequest::new(&s).run().unwrap();
        let spans = BootRequest::new(&s).core_spans(true).run().unwrap();
        assert!(plain.machine.trace().spans().is_empty());
        assert!(!spans.machine.trace().spans().is_empty());
        // Spans are bookkeeping only: the timeline is the same.
        assert_eq!(
            plain.machine.trace().events(),
            spans.machine.trace().events()
        );
        assert_eq!(plain.report.quiesce_time, spans.report.quiesce_time);
    }

    #[test]
    fn builder_tweak_adjusts_overrides() {
        let s = mini_tv();
        let boot = BootRequest::new(&s)
            .config(BbConfig::conventional())
            .tweak(|graph, _tx, overrides| {
                overrides.isolate.insert(graph.idx_of("var.mount"));
            })
            .run()
            .unwrap();
        assert_eq!(boot.report.bb_group, [UnitName::new("var.mount")]);
    }

    #[test]
    fn unknown_target_is_reported() {
        let mut s = mini_tv();
        s.target = "ghost.target".into();
        assert!(matches!(
            boost(&s, &BbConfig::full()),
            Err(Error::Transaction(TransactionError::UnknownTarget(_)))
        ));
    }
}
