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
//! runs one shared plan. Runs, checkpoints and resumes all get their
//! plan from one lookup step; a [`Checkpoint`] carries no plan, so a
//! resume gets its plan the way a run does.
//!
//! [`PlanPass`]: crate::pipeline::PlanPass
//! [`PassDelta`]: crate::pipeline::PassDelta

use bb_init::{
    BootRecord, ManagerCosts, PlanOverrides, Transaction, Unit, UnitGraph, UnitName, WorkloadMap,
};
use bb_kernel::{KernelPlan, KernelReport, ModuleCatalog};
use bb_sim::{
    snapshot, DeviceId, DeviceProfile, FaultPlan, Machine, MachineBuilder, MachineConfig, RcuStats,
    SimTime,
};

use std::sync::Arc;

use crate::config::BbConfig;
use crate::error::Error;
use crate::fallback::{DegradedBoot, FallbackPolicy};
use crate::pipeline::{execute_prefix, execute_suffix, PassDelta, Pipeline, SharedPlan};
use crate::plan_cache::PlanCache;
use crate::recovery::{
    validate_preparse_blob, ArtifactKind, ArtifactRead, RecoveryAction, RecoveryEvent,
    RecoveryReason,
};
use crate::service_engine::{ParseCostParams, PreParser};

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
    /// The unit set.
    pub units: Vec<Unit>,
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
    fn new((report, machine): (FullBootReport, Machine)) -> Boot {
        Boot {
            report,
            machine,
            recoveries: Vec::new(),
            degraded: None,
        }
    }

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

/// Where in the boot timeline a [`Checkpoint`] is taken.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CheckpointPhase {
    /// The kernel→init handoff: bootloader, kernel image load, memory
    /// and rootfs setup, initcalls, RCU Booster Control installation,
    /// and module-loading setup have all been simulated; the init
    /// scheme has not started. This is the natural split point because
    /// every configuration with the same [`BbConfig::prefix_key`]
    /// reaches it with a bit-identical machine.
    KernelHandoff,
}

/// A saved boot prefix: the machine state at a [`CheckpointPhase`],
/// serialized with [`bb_sim::snapshot`], plus the few prefix products
/// the suffix needs (the kernel report and the boot-storage device).
///
/// Produced by [`BootRequest::checkpoint_at`]; consumed — any number of
/// times — by [`BootRequest::resume`]. A checkpoint is `Clone`, cheap
/// to fork, and safe to hand to other threads, which is what lets a
/// fleet sweep simulate the shared kernel phase once per prefix key
/// instead of once per configuration.
///
/// A checkpoint holds no boot plan, and so nothing of its scenario:
/// each resume plans, or takes its plan from the [`PlanCache`] attached
/// to it, exactly as a run does.
#[derive(Debug, Clone)]
pub struct Checkpoint {
    phase: CheckpointPhase,
    bytes: Vec<u8>,
    kernel: KernelReport,
    device: DeviceId,
    config: BbConfig,
    config_hash: u64,
}

impl Checkpoint {
    /// Where in the boot this checkpoint was taken.
    pub fn phase(&self) -> CheckpointPhase {
        self.phase
    }

    /// The configuration the prefix was simulated under. A resume may
    /// use any configuration with the same [`BbConfig::prefix_key`].
    pub fn config(&self) -> BbConfig {
        self.config
    }

    /// The serialized machine snapshot (see [`bb_sim::snapshot`] for
    /// the format). Stable for identical scenarios and prefix keys.
    /// Hand a read of it back through [`BootRequest::artifact`] to
    /// resume from the image as it came back from storage.
    pub fn bytes(&self) -> &[u8] {
        &self.bytes
    }

    /// FNV-1a hash of the machine configuration the snapshot encodes;
    /// [`BootRequest::resume`] rejects scenarios that hash differently.
    pub fn config_hash(&self) -> u64 {
        self.config_hash
    }

    /// Kernel phase timings measured while producing the prefix.
    pub fn kernel(&self) -> &KernelReport {
        &self.kernel
    }
}

/// The single entry point for booting a scenario: a builder over every
/// knob the old `boost_*` family spread across four functions.
///
/// Defaults: the full BB configuration, no pre-built parser
/// measurements, no faults, no fallback supervisor, no artifact,
/// telemetry off, no plan tweak.
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
    pre: Option<&'s PreParser>,
    faults: Option<&'s FaultPlan>,
    fallback: Option<FallbackPolicy>,
    artifact: Option<&'s ArtifactRead>,
    telemetry: bool,
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
            pre: None,
            faults: None,
            fallback: None,
            artifact: None,
            telemetry: false,
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

    /// Reuses pre-built [`PreParser`] measurements — the sweep-friendly
    /// path: a fleet runs thousands of boots of the same scenario, and
    /// building the Pre-parser blob (rendering every unit file and
    /// encoding the binary cache) once instead of per boot removes the
    /// dominant per-boot setup cost.
    ///
    /// `pre` must describe the scenario's units; it is the caller's job
    /// to keep them in sync (use [`PreParser::build`] on the same set).
    pub fn prepared(mut self, pre: &'s PreParser) -> Self {
        self.pre = Some(pre);
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
    /// * [`run`](Self::run) reads it as the Pre-parser cache: container
    ///   CRC, format version, and the content hash against this
    ///   scenario's unit set. A rejected cache turns the Pre-parser off
    ///   for this boot (the timeline of a device whose cache was
    ///   discarded: bit-identical to a boot that never had it). Ignored
    ///   when the configuration does not use the Pre-parser — a
    ///   conventional boot never reads the cache.
    /// * [`resume`](Self::resume) reads it as the checkpoint's snapshot
    ///   image. A damaged or unreadable image is discarded and the
    ///   scenario cold-boots, priced as the kernel phase the snapshot
    ///   would have skipped.
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

    /// Shares compiled plans through `cache`: [`run`](Self::run),
    /// [`checkpoint_at`](Self::checkpoint_at), and
    /// [`resume`](Self::resume) first consult the cache for a plan
    /// compiled for (`scenario`, this request's config) and reuse it
    /// with zero clones; on a miss they plan once and move the plan
    /// into the cache. The sweep-wide amortization this enables is why
    /// fleet workers hand every request the same cache (see
    /// `bb-fleet`).
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

    /// Plans the boot, executes only its *prefix* (through the
    /// kernel→init handoff), and captures the machine as a
    /// [`Checkpoint`] that [`resume`](Self::resume) can continue from —
    /// as many times, and under as many suffix configurations, as the
    /// caller likes.
    ///
    /// # Errors
    ///
    /// [`Error::Checkpoint`] if telemetry is enabled (the metrics sink
    /// is deliberately not snapshotted; see [`bb_sim::snapshot`]), a
    /// plan tweak was installed (tweaks act on the suffix plan — apply
    /// them on the resume request instead), or a fallback supervisor or
    /// artifact was attached (both act on whole boots). Planning errors
    /// surface as usual; snapshot encoding failures as
    /// [`Error::Snapshot`].
    pub fn checkpoint_at(mut self, phase: CheckpointPhase) -> Result<Checkpoint, Error> {
        let CheckpointPhase::KernelHandoff = phase;
        if self.telemetry {
            return Err(Error::Checkpoint(
                "telemetry must be off to checkpoint: the metrics sink is not snapshotted".into(),
            ));
        }
        if self.tweak.is_some() {
            return Err(Error::Checkpoint(
                "plan tweaks act on the boot suffix; install the tweak on the resume request"
                    .into(),
            ));
        }
        if self.fallback.is_some() {
            return Err(Error::Checkpoint(
                "the fallback supervisor judges a whole boot; a checkpoint is only its prefix"
                    .into(),
            ));
        }
        if self.artifact.is_some() {
            return Err(Error::Checkpoint(
                "artifacts are validated by run() and resume(); a checkpoint simulates only \
                 the kernel prefix, which never reads a boot artifact"
                    .into(),
            ));
        }
        let plan = self.plan()?;
        let no_faults = FaultPlan::none();
        let faults = self.faults.unwrap_or(&no_faults);
        let (machine, kernel, device) =
            execute_prefix(&plan.0, faults, false, self.builder.as_deref_mut());
        let bytes = snapshot::save(&machine)?;
        // The prefix machine's job ends at the snapshot: recycle its
        // allocations for the resumes that follow.
        if let Some(b) = self.builder {
            b.recycle(machine);
        }
        Ok(Checkpoint {
            phase,
            bytes,
            kernel,
            device,
            config: self.cfg,
            config_hash: snapshot::config_hash(&plan.0.machine),
        })
    }

    /// Restores `checkpoint` and executes only the boot *suffix* (the
    /// init scheme onward) under this request's configuration. The
    /// composed timeline is bit-identical to an uninterrupted
    /// [`run`](Self::run) of the same configuration.
    ///
    /// The request's configuration must share the checkpoint's
    /// [`BbConfig::prefix_key`]; the suffix-only features
    /// (`deferred_executor`, `preparser`, `bb_group`) are free to
    /// differ, which is the whole point — one kernel simulation, many
    /// service-phase variants. A [`tweak`](Self::tweak) is applied to
    /// the resumed plan as usual.
    ///
    /// The resume gets its plan as [`run`](Self::run) does: from the
    /// attached [`plan_cache`](Self::plan_cache), or by planning afresh.
    /// Attach the cache the checkpoint was taken through, and every
    /// resume of its configuration reuses the checkpoint request's plan.
    ///
    /// With an [`artifact`](Self::artifact) the image is restored from
    /// that read instead of the checkpoint's own bytes; a damaged or
    /// unreadable image cold-boots the scenario (see
    /// [`artifact`](Self::artifact)).
    ///
    /// # Errors
    ///
    /// [`Error::Checkpoint`] if telemetry is enabled, a fault plan is
    /// attached (faults are installed *before* the kernel boots, so
    /// they belong on the checkpoint request — the snapshot carries the
    /// fault state), a fallback supervisor is attached (it judges whole
    /// boots), the prefix keys differ, or the scenario's machine
    /// configuration hashes differently from the checkpoint's.
    /// [`Error::Snapshot`] if the snapshot bytes fail validation and no
    /// artifact was supplied.
    pub fn resume(mut self, checkpoint: &Checkpoint) -> Result<Boot, Error> {
        if self.telemetry {
            return Err(Error::Checkpoint(
                "telemetry must be off to resume: the metrics sink is not snapshotted".into(),
            ));
        }
        if self.faults.is_some() {
            return Err(Error::Checkpoint(
                "a resumed boot carries the checkpoint's fault state; \
                 install the fault plan on the checkpoint request"
                    .into(),
            ));
        }
        if self.fallback.is_some() {
            return Err(Error::Checkpoint(
                "the fallback supervisor judges a whole boot; use run() to supervise".into(),
            ));
        }
        if self.cfg.prefix_key() != checkpoint.config().prefix_key() {
            return Err(Error::Checkpoint(format!(
                "prefix key mismatch: checkpoint was taken under {:?}, resume requested {:?}",
                checkpoint.config().prefix_key(),
                self.cfg.prefix_key()
            )));
        }
        let Some(read) = self.artifact.take() else {
            let machine = self.restore(&checkpoint.bytes)?;
            return self.resume_on(machine, checkpoint);
        };
        // The image as read back from storage: retry transient read
        // failures within the bound, then let the snapshot decoder
        // (header pins plus the v2 payload checksum) judge the bytes.
        let reason = match read.unreadable() {
            Some(reason) => reason,
            None => match self.restore(&read.bytes) {
                Ok(machine) => {
                    let mut boot = self.resume_on(machine, checkpoint)?;
                    boot.recoveries
                        .extend(read.retried(ArtifactKind::SnapshotImage));
                    return Ok(boot);
                }
                Err(e) => RecoveryReason::Corrupt {
                    detail: e.to_string(),
                },
            },
        };
        // The image is gone: cold-boot through the ordinary planning
        // path, pricing the kernel phase the snapshot would have
        // skipped.
        let mut boot = self.execute()?;
        let skipped = boot.report.kernel.userspace_start.since(SimTime::ZERO);
        boot.recoveries.push(read.recovery(
            ArtifactKind::SnapshotImage,
            reason,
            RecoveryAction::ColdBooted,
            skipped,
        ));
        Ok(boot)
    }

    /// Restores a snapshot image, through the request's machine
    /// builder when one is attached.
    fn restore(&mut self, bytes: &[u8]) -> Result<Machine, bb_sim::SnapshotError> {
        match self.builder.as_deref_mut() {
            Some(b) => b.restore(bytes),
            None => snapshot::restore(bytes),
        }
    }

    /// Executes the boot suffix on `machine`, restored from
    /// `checkpoint`'s image.
    fn resume_on(mut self, machine: Machine, checkpoint: &Checkpoint) -> Result<Boot, Error> {
        let plan = self.plan()?;
        if snapshot::config_hash(&plan.0.machine) != checkpoint.config_hash {
            return Err(Error::Checkpoint(
                "machine config mismatch: the scenario does not match the checkpoint's".into(),
            ));
        }
        let (ir, deltas) = &*plan;
        Ok(Boot::new(execute_suffix(
            ir,
            deltas.clone(),
            machine,
            checkpoint.kernel.clone(),
            checkpoint.device,
        )))
    }

    /// Plans and executes the boot. A supplied
    /// [`artifact`](Self::artifact) is validated first and recoveries
    /// land on [`Boot::recoveries`]; a [`fallback`](Self::fallback)
    /// supervisor then judges the attempt and, on a trip, records the
    /// conventional rescue on [`Boot::degraded`].
    pub fn run(mut self) -> Result<Boot, Error> {
        let mut recoveries = Vec::new();
        if let Some(read) = self.artifact.take().filter(|_| self.cfg.preparser) {
            let built;
            let pre = match self.pre {
                Some(p) => p,
                None => {
                    built = PreParser::build(&self.scenario.units);
                    &built
                }
            };
            match validate_preparse_blob(read, self.scenario, pre) {
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
        let (scenario, pre, fallback) = (self.scenario, self.pre, self.fallback);
        let mut boot = self.execute()?;
        boot.recoveries = recoveries;
        if let Some((reason, detected_after)) = fallback.and_then(|p| p.judge(&boot.report)) {
            let mut rescue = BootRequest::new(scenario).config(BbConfig::conventional());
            if let Some(pre) = pre {
                rescue = rescue.prepared(pre);
            }
            boot.degraded = Some(Box::new(DegradedBoot {
                rescue: rescue.run()?.report,
                reason,
                detected_after,
            }));
        }
        Ok(boot)
    }

    /// The boot's plan, the one lookup [`run`](Self::run),
    /// [`checkpoint_at`](Self::checkpoint_at) and
    /// [`resume`](Self::resume) share. A plan-cache hit returns the
    /// shared `Arc`; a miss plans the boot and, with a cache attached,
    /// moves the plan into the cache. A tweaked plan is private: it is
    /// neither looked up nor published.
    fn plan(&mut self) -> Result<SharedPlan, Error> {
        let cache = self.cache.filter(|_| self.tweak.is_none());
        if let Some(plan) = cache.and_then(|(cache, key)| cache.lookup(key, &self.cfg)) {
            return Ok(plan);
        }
        let (mut ir, deltas) = Pipeline::standard().plan(self.scenario, &self.cfg, self.pre)?;
        if let Some(tweak) = self.tweak.take() {
            tweak(&ir.graph, &ir.transaction, &mut ir.overrides);
        }
        let plan = Arc::new((ir, deltas));
        if let Some((cache, key)) = cache {
            cache.insert(key, &self.cfg, Arc::clone(&plan));
        }
        Ok(plan)
    }

    /// Plans (or looks up) and executes the boot, artifact validation
    /// already resolved by the caller.
    fn execute(mut self) -> Result<Boot, Error> {
        let plan = self.plan()?;
        let (ir, deltas) = &*plan;
        let no_faults = FaultPlan::none();
        let faults = self.faults.unwrap_or(&no_faults);
        let (machine, kernel, device) = execute_prefix(ir, faults, self.telemetry, self.builder);
        Ok(Boot::new(execute_suffix(
            ir,
            deltas.clone(),
            machine,
            kernel,
            device,
        )))
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
            units,
            workloads: Arc::new(workloads),
            target: "tv-boot.target".into(),
            completion: vec![UnitName::new("fasttv.service")],
            manager_costs: ManagerCosts::default(),
            parse_params: ParseCostParams::default(),
            extra_init_tasks: Vec::new(),
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
            let slack = if name == "rcu_booster" {
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
    fn builder_prepared_matches_unprepared() {
        let s = mini_tv();
        let pre = PreParser::build(&s.units);
        let plain = BootRequest::new(&s).run().unwrap();
        let prepared = BootRequest::new(&s).prepared(&pre).run().unwrap();
        assert_eq!(
            plain.report.boot.completion_time,
            prepared.report.boot.completion_time
        );
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

    /// The load-bearing checkpoint property: split the boot at the
    /// kernel→init handoff and the composed timeline is bit-identical
    /// to the uninterrupted run, event for event, for both ends of the
    /// config spectrum.
    #[test]
    fn checkpoint_resume_matches_uninterrupted_run() {
        let s = mini_tv();
        for cfg in [BbConfig::conventional(), BbConfig::full()] {
            let straight = BootRequest::new(&s).config(cfg).run().unwrap();
            let ckpt = BootRequest::new(&s)
                .config(cfg)
                .checkpoint_at(CheckpointPhase::KernelHandoff)
                .unwrap();
            let resumed = BootRequest::new(&s).config(cfg).resume(&ckpt).unwrap();
            assert_eq!(
                straight.report.boot.completion_time,
                resumed.report.boot.completion_time
            );
            assert_eq!(straight.report.quiesce_time, resumed.report.quiesce_time);
            assert_eq!(straight.report.rcu, resumed.report.rcu);
            let a = straight.machine.trace().events();
            let b = resumed.machine.trace().events();
            assert_eq!(a.len(), b.len(), "event counts diverge");
            for (x, y) in a.iter().zip(b) {
                assert_eq!(x, y, "trace event diverges");
            }
        }
    }

    /// One checkpoint, many suffix variants: resuming under a config
    /// that differs only in suffix features matches that config's
    /// uninterrupted run.
    #[test]
    fn one_checkpoint_serves_every_suffix_config() {
        let s = mini_tv();
        let base = BbConfig::full();
        let ckpt = BootRequest::new(&s)
            .config(base)
            .checkpoint_at(CheckpointPhase::KernelHandoff)
            .unwrap();
        for cfg in [
            base,
            BbConfig {
                bb_group: false,
                ..base
            },
            BbConfig {
                preparser: false,
                deferred_executor: false,
                ..base
            },
        ] {
            assert_eq!(cfg.prefix_key(), base.prefix_key());
            let straight = BootRequest::new(&s).config(cfg).run().unwrap();
            let resumed = BootRequest::new(&s).config(cfg).resume(&ckpt).unwrap();
            assert_eq!(straight.report.boot_time(), resumed.report.boot_time());
            assert_eq!(straight.report.quiesce_time, resumed.report.quiesce_time);
            assert_eq!(straight.report.bb_group, resumed.report.bb_group);
        }
    }

    #[test]
    fn checkpoint_rejects_incompatible_requests() {
        let s = mini_tv();
        // Telemetry is not snapshotted.
        assert!(matches!(
            BootRequest::new(&s)
                .telemetry(true)
                .checkpoint_at(CheckpointPhase::KernelHandoff),
            Err(Error::Checkpoint(_))
        ));
        // Tweaks act on the suffix plan.
        assert!(matches!(
            BootRequest::new(&s)
                .tweak(|_, _, _| {})
                .checkpoint_at(CheckpointPhase::KernelHandoff),
            Err(Error::Checkpoint(_))
        ));
        // The fallback supervisor judges whole boots.
        assert!(matches!(
            BootRequest::new(&s)
                .fallback(FallbackPolicy::default())
                .checkpoint_at(CheckpointPhase::KernelHandoff),
            Err(Error::Checkpoint(_))
        ));

        let ckpt = BootRequest::new(&s)
            .checkpoint_at(CheckpointPhase::KernelHandoff)
            .unwrap();
        assert_eq!(ckpt.phase(), CheckpointPhase::KernelHandoff);
        assert_eq!(ckpt.config(), BbConfig::full());
        // Prefix keys must match: conventional differs from full in
        // every kernel-phase feature.
        assert!(matches!(
            BootRequest::new(&s)
                .config(BbConfig::conventional())
                .resume(&ckpt),
            Err(Error::Checkpoint(_))
        ));
        // Faults belong on the checkpoint request.
        let faults = FaultPlan::none();
        assert!(matches!(
            BootRequest::new(&s).faults(&faults).resume(&ckpt),
            Err(Error::Checkpoint(_))
        ));
        // Telemetry and the fallback supervisor rejected on resume too.
        assert!(matches!(
            BootRequest::new(&s).telemetry(true).resume(&ckpt),
            Err(Error::Checkpoint(_))
        ));
        assert!(matches!(
            BootRequest::new(&s)
                .fallback(FallbackPolicy::default())
                .resume(&ckpt),
            Err(Error::Checkpoint(_))
        ));
        // A different machine shape is caught by the config hash even
        // though the prefix key matches.
        let mut other = mini_tv();
        other.machine.cores = 2;
        assert!(matches!(
            BootRequest::new(&other).resume(&ckpt),
            Err(Error::Checkpoint(_))
        ));
    }

    /// A tweak on the *resume* request adjusts the suffix plan, exactly
    /// as it would on an uninterrupted run.
    #[test]
    fn resume_applies_suffix_tweaks() {
        let s = mini_tv();
        let ckpt = BootRequest::new(&s)
            .config(BbConfig::conventional())
            .checkpoint_at(CheckpointPhase::KernelHandoff)
            .unwrap();
        let boot = BootRequest::new(&s)
            .config(BbConfig::conventional())
            .tweak(|graph, _tx, overrides| {
                overrides.isolate.insert(graph.idx_of("var.mount"));
            })
            .resume(&ckpt)
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
