//! The boot-plan pass pipeline: every BB mechanism as an explicit
//! transformation over one intermediate representation.
//!
//! The paper's three engines are each, at heart, a rewrite of the boot
//! plan — defer initcalls, postpone init-internal tasks, isolate the BB
//! Group, swap text parsing for the binary cache. This module makes the
//! rewrites first-class: a [`BootPlanIr`] bundles everything a boot
//! needs, each mechanism is a [`PlanPass`] (`enabled` / `apply`), and a
//! [`Pipeline`] runs the enabled passes in order, recording a
//! [`PassDelta`] per pass. The deltas give per-feature attribution from
//! a *single* boot — what previously required re-running whole ablation
//! sweeps — and every future mechanism (miner-driven edge removal,
//! pre-fork zygote) lands as one new pass.
//!
//! Pass order is fixed and significant only where passes share IR
//! fields (the two `bb_group` passes both derive the group; the
//! isolator runs first). Passes only transform the IR; machine-visible
//! execution is entirely in [`execute`], which replays the exact
//! op order of the pre-pipeline facade so boot timelines are
//! bit-identical to the old `boost` path.
//!
//! A compiled [`BootPlanIr`] owns its tables and shares the scenario's
//! large read-only inputs through `Arc` handles, so one value is what a
//! fresh boot runs and what a [`crate::PlanCache`] shares across a
//! sweep's runs, checkpoints and resumes.

use std::collections::BTreeSet;
use std::sync::Arc;

use bb_init::{
    run_boot, BootPlan, EngineConfig, EngineMode, LoadModel, ManagerCosts, ManagerTask,
    PlanOverrides, Transaction, UnitGraph, UnitName, WorkloadMap,
};
use bb_kernel::{execute_kernel_boot, Criticality, KernelPlan, KernelReport, ModuleCatalog};
use bb_sim::{
    AccessPattern, DeviceId, DeviceProfile, FaultPlan, Machine, MachineBuilder, MachineConfig, Op,
    SimDuration,
};

use crate::booster::{FullBootReport, Scenario};
use crate::bootup_engine;
use crate::config::BbConfig;
use crate::core_engine::{self, ModuleStrategy};
use crate::error::Error;
use crate::service_engine::{self, ParseCostParams, PreParser};

// ---------------------------------------------------------------------
// The IR
// ---------------------------------------------------------------------

/// Everything one boot needs, in one place, before any machine exists.
///
/// Built by [`Pipeline::plan`] in the *conventional* shape (no BB
/// mechanism applied); passes then transform it. Large read-only
/// inputs (module catalog, workload bodies) are shared with the
/// [`Scenario`] through `Arc` handles, so a fleet sweep does not clone
/// them per boot and a plan can outlive the scenario borrow it was
/// built from.
#[derive(Debug)]
pub struct BootPlanIr {
    /// Scenario name, for reports.
    pub name: String,
    /// The configuration this plan was specialized for.
    pub cfg: BbConfig,
    /// Machine shape (cores, speed, quantum, RCU parameters).
    pub machine: MachineConfig,
    /// Boot storage profile (device 0 by convention).
    pub storage: DeviceProfile,
    /// Kernel plan; passes flip its defer knobs.
    pub kernel: KernelPlan,
    /// Loadable kernel components (read-only input).
    pub modules: Arc<ModuleCatalog>,
    /// How the service phase handles kernel modules.
    pub module_strategy: ModuleStrategy,
    /// Service workload bodies keyed by `ExecStart=` (read-only input).
    pub workloads: Arc<WorkloadMap>,
    /// The unit graph.
    pub graph: UnitGraph,
    /// The expanded boot transaction.
    pub transaction: Transaction,
    /// Units whose readiness defines boot completion.
    pub completion: Vec<UnitName>,
    /// Plan overrides (isolation, priorities, dispatch order, …).
    pub overrides: PlanOverrides,
    /// Serial init-phase task table.
    pub init_tasks: Vec<ManagerTask>,
    /// Service-phase housekeeping task table.
    pub service_phase_tasks: Vec<ManagerTask>,
    /// Dispatch order of the transaction, recomputed by
    /// [`Pipeline::plan`] after the passes run so every boot of this
    /// plan skips the per-boot Kahn/SCC walk (plan tweaks only mutate
    /// [`PlanOverrides`], which the base order does not depend on).
    pub execution_order: Vec<usize>,
    /// Unit-configuration load model.
    pub load: LoadModel,
    /// Manager cost knobs.
    pub manager_costs: ManagerCosts,
    /// Parse cost parameters (kept for passes that recompute `load`).
    pub parse_params: ParseCostParams,
    /// Pre-parser measurements of the unit set.
    pub pre: PreParser,
    /// Whether the RCU Booster mode switch is installed at kernel boot.
    pub boost_rcu: bool,
}

impl BootPlanIr {
    /// Builds the conventional-shape IR for `scenario`.
    ///
    /// `pre` supplies pre-built [`PreParser`] measurements (the
    /// sweep-amortized path); when `None` they are measured here.
    fn from_scenario(
        scenario: &Scenario,
        cfg: &BbConfig,
        pre: Option<&PreParser>,
    ) -> Result<Self, Error> {
        let graph = UnitGraph::build(scenario.units.clone()).map_err(Error::Graph)?;
        let transaction =
            Transaction::build(&graph, &scenario.target).map_err(Error::Transaction)?;
        let pre = pre
            .copied()
            .unwrap_or_else(|| PreParser::build(&scenario.units));
        let mut kernel = scenario.kernel.clone();
        kernel.defer_memory = false;
        kernel.defer_initcalls = false;
        kernel.defer_journal = false;
        let mut init_tasks = scenario.extra_init_tasks.clone();
        init_tasks.extend(bootup_engine::init_tasks(&BbConfig::conventional()));
        let execution_order = transaction.execution_order(&graph);
        Ok(BootPlanIr {
            name: scenario.name.clone(),
            cfg: *cfg,
            machine: scenario.machine,
            storage: scenario.storage,
            kernel,
            modules: Arc::clone(&scenario.modules),
            module_strategy: ModuleStrategy::ExternalKo {
                workers: core_engine::MODULE_LOADER_WORKERS,
            },
            workloads: Arc::clone(&scenario.workloads),
            graph,
            transaction,
            completion: scenario.completion.clone(),
            overrides: PlanOverrides::default(),
            init_tasks,
            service_phase_tasks: bootup_engine::service_phase_tasks(&BbConfig::conventional()),
            execution_order,
            load: pre.load_model(&scenario.parse_params, false),
            manager_costs: scenario.manager_costs,
            parse_params: scenario.parse_params,
            pre,
            boost_rcu: false,
        })
    }

    fn cores(&self) -> u64 {
        self.machine.cores.max(1) as u64
    }

    /// Storage service time for one request.
    fn io_time(&self, bytes: u64, pattern: AccessPattern) -> SimDuration {
        self.storage.service_time(bytes, pattern)
    }

    /// Coarse serial cost of an op list on this machine (for pass
    /// saving estimates only — the simulator is the ground truth).
    fn ops_cost(&self, ops: &[Op]) -> SimDuration {
        let mut total = SimDuration::ZERO;
        for op in ops {
            match op {
                Op::Compute(d) | Op::RcuReadHold(d) | Op::Sleep(d) => total += *d,
                Op::IoRead { bytes, pattern, .. } => total += self.io_time(*bytes, *pattern),
                Op::RcuSync => total += self.machine.rcu_params.base_grace_period,
                _ => {}
            }
        }
        total
    }

    /// Coarse serial cost of one job's pre-ready body (fork included).
    fn job_body_cost(&self, job: usize) -> SimDuration {
        let mut total = self.manager_costs.fork_exec_cost;
        total += match self.job_body(job) {
            Some(body) => self.ops_cost(&body.pre_ready),
            // Engine default body: 2 ms of compute.
            None => SimDuration::from_millis(2),
        };
        total
    }

    fn job_body(&self, job: usize) -> Option<&bb_init::ServiceBody> {
        self.graph
            .unit(job)
            .exec
            .exec_start
            .as_deref()
            .and_then(|e| self.workloads.get(e))
    }

    /// `synchronize_rcu` calls issued by transaction jobs during boot.
    fn boot_rcu_syncs(&self) -> u64 {
        let mut syncs = 0;
        for &j in &self.transaction.jobs {
            if let Some(body) = self.job_body(j) {
                syncs += body
                    .pre_ready
                    .iter()
                    .chain(body.post_ready.iter())
                    .filter(|op| matches!(op, Op::RcuSync))
                    .count() as u64;
            }
        }
        syncs
    }
}

// ---------------------------------------------------------------------
// Pass deltas
// ---------------------------------------------------------------------

/// What one pass did to the plan: the provenance record that gives
/// per-feature attribution from a single boot.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct PassDelta {
    /// The pass that produced this delta.
    pub pass: &'static str,
    /// Kernel initcalls moved past boot completion.
    pub initcalls_deferred: usize,
    /// Kernel modules whose initialization moved past completion.
    pub modules_deferred: usize,
    /// Manager tasks (init-phase + service-phase) moved past completion.
    pub tasks_deferred: usize,
    /// Ordering edges the isolation rewrite strips from group members.
    pub edges_stripped: usize,
    /// Units touched (isolated, reprioritized, or RCU-affected).
    pub units_touched: usize,
    /// Boot-window storage bytes the pass removed (conventional reads
    /// that no longer happen) minus bytes it added.
    pub io_bytes_shifted: i64,
    /// Coarse estimate of boot-time saved by this pass alone. Serial
    /// plan edits (memory init, journal, init tasks, load model) are
    /// near-exact; contention-mediated passes (modularizer service
    /// phase, RCU, isolation) are analytic approximations — the
    /// simulator remains the ground truth.
    pub estimated_saving: SimDuration,
}

impl PassDelta {
    fn new(pass: &'static str) -> Self {
        PassDelta {
            pass,
            ..PassDelta::default()
        }
    }

    /// One-line human summary of the delta ("what moved").
    pub fn summary(&self) -> String {
        let mut parts = Vec::new();
        if self.initcalls_deferred > 0 {
            parts.push(format!("{} initcalls deferred", self.initcalls_deferred));
        }
        if self.modules_deferred > 0 {
            parts.push(format!("{} modules deferred", self.modules_deferred));
        }
        if self.tasks_deferred > 0 {
            parts.push(format!("{} tasks deferred", self.tasks_deferred));
        }
        if self.edges_stripped > 0 {
            parts.push(format!("{} edges stripped", self.edges_stripped));
        }
        if self.units_touched > 0 {
            parts.push(format!("{} units touched", self.units_touched));
        }
        if self.io_bytes_shifted != 0 {
            parts.push(format!("{:+} KiB I/O", self.io_bytes_shifted / 1024));
        }
        if parts.is_empty() {
            parts.push("plan knobs only".to_string());
        }
        parts.join(", ")
    }
}

// ---------------------------------------------------------------------
// The pass trait and the seven BB passes
// ---------------------------------------------------------------------

/// One BB mechanism as a plan transformation.
pub trait PlanPass {
    /// Stable pass name (kebab-case; used by pass-set selections).
    fn name(&self) -> &'static str;
    /// Whether `cfg` activates this pass.
    fn enabled(&self, cfg: &BbConfig) -> bool;
    /// Sets the config flag(s) that activate this pass (the inverse of
    /// [`PlanPass::enabled`], used to turn pass sets into configs).
    fn enable(&self, cfg: &mut BbConfig);
    /// Transforms the plan, returning what changed. Must be idempotent:
    /// applying twice yields the same plan as applying once.
    fn apply(&self, ir: &mut BootPlanIr) -> PassDelta;
}

/// Core Engine: initialize only required memory eagerly, the rest in a
/// background process after boot completion (§3.1).
pub struct DeferMemoryInit;

impl PlanPass for DeferMemoryInit {
    fn name(&self) -> &'static str {
        "defer-memory-init"
    }
    fn enabled(&self, cfg: &BbConfig) -> bool {
        cfg.defer_memory
    }
    fn enable(&self, cfg: &mut BbConfig) {
        cfg.defer_memory = true;
    }
    fn apply(&self, ir: &mut BootPlanIr) -> PassDelta {
        ir.kernel.defer_memory = true;
        let mut d = PassDelta::new(self.name());
        // Serial kernel-phase work removed exactly.
        d.estimated_saving = ir
            .kernel
            .memory
            .full_init_cost()
            .saturating_sub(ir.kernel.memory.eager_init_cost());
        d
    }
}

/// Core Engine: On-demand Modularizer — deferrable kernel components
/// become built-ins initialized after boot completion, replacing both
/// deferrable initcalls and the service-phase external-`.ko` loading
/// (§3.1).
pub struct OnDemandModularizer;

impl PlanPass for OnDemandModularizer {
    fn name(&self) -> &'static str {
        "ondemand-modularizer"
    }
    fn enabled(&self, cfg: &BbConfig) -> bool {
        cfg.ondemand_modularizer
    }
    fn enable(&self, cfg: &mut BbConfig) {
        cfg.ondemand_modularizer = true;
    }
    fn apply(&self, ir: &mut BootPlanIr) -> PassDelta {
        ir.kernel.defer_initcalls = true;
        ir.module_strategy = ModuleStrategy::DeferredBuiltin;
        let mut d = PassDelta::new(self.name());
        d.initcalls_deferred = ir.kernel.initcalls.partition(true).1.len();
        d.modules_deferred = ir.modules.deferrable().count();
        d.io_bytes_shifted = ir.modules.total_image_bytes() as i64;
        // Serial initcall time removed exactly; the `.ko` loading that
        // no longer competes with services is contention-mediated:
        // spread its CPU over the cores, and charge only a sliver of
        // its device time — module reads mostly overlap the (long,
        // compute-bound) service phase, so boot storage has slack. The
        // 0.1 utilization factor is calibrated against the TV
        // scenario's measured single-feature ablation.
        let initcall_relief = ir
            .kernel
            .initcalls
            .total_cost(Some(Criticality::Deferrable));
        let mut ko_cpu = ir.modules.external_cpu_cost(None);
        let mut ko_io = SimDuration::ZERO;
        for m in ir.modules.modules.iter() {
            ko_io += ir.io_time(m.image_bytes, AccessPattern::Random);
        }
        // Boot-critical init cost still runs eagerly as a built-in.
        ko_cpu = ko_cpu.saturating_sub(
            ir.modules
                .boot_critical()
                .map(|m| m.init_cost)
                .sum::<SimDuration>(),
        );
        d.estimated_saving =
            initcall_relief + ko_cpu.scale(1.0 / ir.cores() as f64) + ko_io.scale(0.1);
        d
    }
}

/// Core Engine: RCU Booster — boosted (blocking) `synchronize_rcu`
/// during boot, reverted to the classic spin path at completion by the
/// control process the executor installs (§3.1).
pub struct RcuBoosterInstall;

impl PlanPass for RcuBoosterInstall {
    fn name(&self) -> &'static str {
        "rcu-booster"
    }
    fn enabled(&self, cfg: &BbConfig) -> bool {
        cfg.rcu_booster
    }
    fn enable(&self, cfg: &mut BbConfig) {
        cfg.rcu_booster = true;
    }
    fn apply(&self, ir: &mut BootPlanIr) -> PassDelta {
        ir.boost_rcu = true;
        let mut d = PassDelta::new(self.name());
        let syncs = ir.boot_rcu_syncs();
        d.units_touched = ir
            .transaction
            .jobs
            .iter()
            .filter(|&&j| {
                ir.job_body(j).is_some_and(|b| {
                    b.pre_ready
                        .iter()
                        .chain(b.post_ready.iter())
                        .any(|op| matches!(op, Op::RcuSync))
                })
            })
            .count();
        // Classic contended waiters spin on-CPU for their whole queue
        // wait; with W writers racing, the queue makes the average wait
        // a multiple of the base grace period. The boosted path sleeps
        // instead, freeing the cores for services. Charge ~2 grace
        // periods of reclaimed CPU per sync, spread over the cores.
        let grace = ir.machine.rcu_params.base_grace_period;
        d.estimated_saving = (grace * syncs * 2).scale(1.0 / ir.cores() as f64);
        d
    }
}

/// Boot-up Engine: Deferred Executor — postpone the init-scheme's
/// internal tasks (Figure 6(b)/(c)) and the EXT4 journal enabling past
/// boot completion (§3.2).
pub struct DeferredExecutor;

impl PlanPass for DeferredExecutor {
    fn name(&self) -> &'static str {
        "deferred-executor"
    }
    fn enabled(&self, cfg: &BbConfig) -> bool {
        cfg.deferred_executor || cfg.defer_journal
    }
    fn enable(&self, cfg: &mut BbConfig) {
        cfg.deferred_executor = true;
        cfg.defer_journal = true;
    }
    fn apply(&self, ir: &mut BootPlanIr) -> PassDelta {
        let mut d = PassDelta::new(self.name());
        let mut saving = SimDuration::ZERO;
        if ir.cfg.deferred_executor {
            for t in &mut ir.init_tasks {
                if bootup_engine::is_deferrable_init_task(&t.name) {
                    if !t.deferred {
                        d.tasks_deferred += 1;
                    }
                    t.deferred = true;
                    // Serial init-phase time removed exactly.
                    saving += t.cost;
                }
            }
            let mut housekeeping = SimDuration::ZERO;
            for t in &mut ir.service_phase_tasks {
                if !t.deferred {
                    d.tasks_deferred += 1;
                }
                t.deferred = true;
                housekeeping += t.cost;
            }
            // Housekeeping competes with services for cores.
            saving += housekeeping.scale(1.0 / ir.cores() as f64);
        }
        if ir.cfg.defer_journal {
            ir.kernel.defer_journal = true;
            // Serial rootfs-mount time removed exactly.
            saving += ir.kernel.rootfs.journal_enable_cost;
        }
        d.estimated_saving = saving;
        d
    }
}

/// Service Engine: Pre-parser — load the binary unit cache sequentially
/// instead of reading and parsing unit-file text (§3.3).
pub struct PreParserLoad;

impl PlanPass for PreParserLoad {
    fn name(&self) -> &'static str {
        "pre-parser"
    }
    fn enabled(&self, cfg: &BbConfig) -> bool {
        cfg.preparser
    }
    fn enable(&self, cfg: &mut BbConfig) {
        cfg.preparser = true;
    }
    fn apply(&self, ir: &mut BootPlanIr) -> PassDelta {
        let conv = ir.pre.load_model(&ir.parse_params, false);
        let cached = ir.pre.load_model(&ir.parse_params, true);
        ir.load = cached;
        let mut d = PassDelta::new(self.name());
        d.units_touched = ir.pre.unit_count;
        d.io_bytes_shifted = conv.io_bytes as i64 - cached.io_bytes as i64;
        // The manager loads serially, so the model swap is near-exact.
        let conv_cost = ir.io_time(conv.io_bytes, conv.pattern) + conv.cpu;
        let cached_cost = ir.io_time(cached.io_bytes, cached.pattern) + cached.cpu;
        d.estimated_saving = conv_cost.saturating_sub(cached_cost);
        d
    }
}

/// Service Engine: BB Group Isolator — group members ignore foreign
/// ordering declarations and never wait on non-members (§3.3).
pub struct GroupIsolator;

impl PlanPass for GroupIsolator {
    fn name(&self) -> &'static str {
        "group-isolator"
    }
    fn enabled(&self, cfg: &BbConfig) -> bool {
        cfg.bb_group
    }
    fn enable(&self, cfg: &mut BbConfig) {
        cfg.bb_group = true;
    }
    fn apply(&self, ir: &mut BootPlanIr) -> PassDelta {
        let group = service_engine::identify_bb_group(&ir.graph, &ir.completion);
        let mut d = PassDelta::new(self.name());
        d.units_touched = group.len();
        // Count the ordering in-edges the engine's isolation filter will
        // strip (same predicate as the engine, deduplicated per (src,
        // dst) like the engine's per-dependency dedup) and estimate the
        // wait the stripped gates no longer impose on the group chain.
        let mut stripped_srcs: BTreeSet<usize> = BTreeSet::new();
        for &j in &group {
            let mut seen = BTreeSet::new();
            for e in ir.graph.ordering_in_edges(j) {
                if !ir.transaction.jobs.contains(&e.src) {
                    continue;
                }
                let kept = group.contains(&e.src) && group.contains(&e.declared_by);
                if !kept && seen.insert(e.src) {
                    d.edges_stripped += 1;
                    stripped_srcs.insert(e.src);
                }
            }
        }
        let mut gate_cost = SimDuration::ZERO;
        for &src in &stripped_srcs {
            gate_cost += ir.job_body_cost(src);
        }
        // Stripped prerequisites still run, just concurrently with the
        // group instead of ahead of it.
        d.estimated_saving = gate_cost.scale(1.0 / ir.cores() as f64);
        ir.overrides.isolate = group;
        d
    }
}

/// Service Engine: Booting Booster Manager — dispatch the BB Group
/// first ("as a topmost job") and prioritize its members' CPU and I/O
/// (§3.3).
pub struct BbManagerPriority;

impl PlanPass for BbManagerPriority {
    fn name(&self) -> &'static str {
        "bb-manager-priority"
    }
    fn enabled(&self, cfg: &BbConfig) -> bool {
        cfg.bb_group
    }
    fn enable(&self, cfg: &mut BbConfig) {
        cfg.bb_group = true;
    }
    fn apply(&self, ir: &mut BootPlanIr) -> PassDelta {
        let group = service_engine::identify_bb_group(&ir.graph, &ir.completion);
        // Passes never reshape the transaction, so the order cached at
        // IR construction is current.
        let order = ir.execution_order.clone();
        ir.overrides.dispatch_first = order
            .iter()
            .copied()
            .filter(|j| group.contains(j))
            .collect();
        for &j in &group {
            ir.overrides.nice.insert(j, service_engine::BB_GROUP_NICE);
            ir.overrides
                .io_class
                .insert(j, bb_init::IoSchedulingClass::Realtime);
        }
        let mut d = PassDelta::new(self.name());
        d.units_touched = group.len();
        // Dispatch-queue relief: group members no longer sit behind the
        // manager's per-job dispatch work for every earlier job.
        let mut skipped: u64 = 0;
        for (new_pos, &j) in ir.overrides.dispatch_first.iter().enumerate() {
            if let Some(old_pos) = order.iter().position(|&o| o == j) {
                skipped += old_pos.saturating_sub(new_pos) as u64;
            }
        }
        // Priority shielding, the dominant term: at BB_GROUP_NICE with
        // realtime I/O, the group chain preempts the rest of the
        // transaction instead of time-sharing with it, so the foreign
        // pre-ready work stops stretching the critical path.
        let mut foreign = SimDuration::ZERO;
        for &j in &ir.transaction.jobs {
            if !group.contains(&j) {
                foreign += ir.job_body_cost(j);
            }
        }
        d.estimated_saving = ir.manager_costs.dispatch_cpu_per_job * skipped
            + foreign.scale(1.0 / ir.cores() as f64);
        d
    }
}

// ---------------------------------------------------------------------
// The pipeline
// ---------------------------------------------------------------------

/// The standard pass names, in pipeline order.
pub const STANDARD_PASSES: [&str; 7] = [
    "defer-memory-init",
    "ondemand-modularizer",
    "rcu-booster",
    "deferred-executor",
    "pre-parser",
    "group-isolator",
    "bb-manager-priority",
];

/// An ordered set of [`PlanPass`]es plus the machinery to run them.
/// [`execute`] replays the resulting plan; to boot a scenario end to
/// end, use [`crate::BootRequest`].
pub struct Pipeline {
    passes: Vec<Box<dyn PlanPass>>,
}

impl Pipeline {
    /// The seven BB passes in standard order.
    pub fn standard() -> Pipeline {
        Pipeline {
            passes: vec![
                Box::new(DeferMemoryInit),
                Box::new(OnDemandModularizer),
                Box::new(RcuBoosterInstall),
                Box::new(DeferredExecutor),
                Box::new(PreParserLoad),
                Box::new(GroupIsolator),
                Box::new(BbManagerPriority),
            ],
        }
    }

    /// All passes, in order.
    pub fn passes(&self) -> impl Iterator<Item = &dyn PlanPass> {
        self.passes.iter().map(|p| p.as_ref())
    }

    /// The passes `cfg` activates, in order.
    pub fn enabled<'a>(&'a self, cfg: &'a BbConfig) -> impl Iterator<Item = &'a dyn PlanPass> {
        self.passes().filter(move |p| p.enabled(cfg))
    }

    /// Turns a pass-name selection into the [`BbConfig`] that enables
    /// exactly those passes. Returns `None` on an unknown pass name.
    pub fn config_for(&self, pass_names: &[&str]) -> Option<BbConfig> {
        let mut cfg = BbConfig::conventional();
        for name in pass_names {
            let pass = self.passes().find(|p| p.name() == *name)?;
            pass.enable(&mut cfg);
        }
        Some(cfg)
    }

    /// Builds the IR for `scenario` and runs the enabled passes over it,
    /// returning the transformed plan and the per-pass deltas.
    pub fn plan(
        &self,
        scenario: &Scenario,
        cfg: &BbConfig,
        pre: Option<&PreParser>,
    ) -> Result<(BootPlanIr, Vec<PassDelta>), Error> {
        let mut ir = BootPlanIr::from_scenario(scenario, cfg, pre)?;
        let mut deltas = Vec::new();
        for pass in self.enabled(cfg) {
            deltas.push(pass.apply(&mut ir));
        }
        Ok((ir, deltas))
    }
}

/// A compiled plan and the pass deltas that produced it: the one value
/// a [`crate::PlanCache`] shares across runs, checkpoints and resumes.
pub(crate) type SharedPlan = Arc<(BootPlanIr, Vec<PassDelta>)>;

/// Executes a (pass-transformed) plan end to end, replaying the exact
/// machine-op order of the pre-pipeline facade: kernel boot, RCU
/// Booster Control, module handling, then the init scheme via
/// [`bb_init::run_boot`]. With [`Pipeline::plan`] this is the layer
/// split of a [`crate::BootRequest`] boot, for callers that time the
/// two halves separately.
pub fn execute(ir: &BootPlanIr, deltas: Vec<PassDelta>) -> (FullBootReport, Machine) {
    let (machine, kernel, device) = execute_prefix(ir, &FaultPlan::none(), false, None);
    execute_suffix(ir, deltas, machine, kernel, device)
}

/// The boot *prefix*: everything up to (and including) the kernel→init
/// handoff — machine creation, storage, fault plan, kernel boot, the
/// RCU Booster Control installation, and module-loading setup. This is
/// the phase a checkpoint captures; beyond the machine, the suffix
/// needs only the kernel report and the boot-storage device id.
///
/// `faults` is installed before the kernel boots (the empty plan is a
/// strict no-op); `telemetry` arms the metrics sink before any work
/// runs (off, the hot paths reduce to an `is_some()` check); a
/// `builder` supplies the machine from its recycling pool, which its
/// contract makes observationally identical to a fresh one. Timelines
/// are bit-identical either way.
pub(crate) fn execute_prefix(
    ir: &BootPlanIr,
    faults: &FaultPlan,
    telemetry: bool,
    builder: Option<&mut MachineBuilder>,
) -> (Machine, KernelReport, DeviceId) {
    let mut machine = match builder {
        Some(b) => b.build(ir.machine),
        None => Machine::new(ir.machine),
    };
    if telemetry {
        machine.enable_telemetry();
    }
    let device = machine.add_device("boot-storage", ir.storage);
    machine.install_fault_plan(faults);
    let boot_complete = machine.flag("boot-complete");

    let kernel = execute_kernel_boot(&mut machine, device, &ir.kernel, boot_complete);
    bootup_engine::install_rcu_booster_control(&mut machine, ir.boost_rcu, boot_complete);
    core_engine::install_module_loading(
        &mut machine,
        &ir.modules,
        device,
        ir.module_strategy,
        boot_complete,
    );
    (machine, kernel, device)
}

/// The boot *suffix*: the init scheme and everything after it, on a
/// machine that completed [`execute_prefix`] (freshly, or restored from
/// a checkpoint's snapshot). Prefix then suffix replays the exact
/// machine-op order of the unsplit path, so boot timelines are
/// bit-identical.
pub(crate) fn execute_suffix(
    ir: &BootPlanIr,
    deltas: Vec<PassDelta>,
    mut machine: Machine,
    kernel: KernelReport,
    device: DeviceId,
) -> (FullBootReport, Machine) {
    let bb_group: Vec<UnitName> = ir
        .overrides
        .isolate
        .iter()
        .map(|&i| ir.graph.unit(i).name.clone())
        .collect();
    let plan = BootPlan {
        graph: &ir.graph,
        transaction: &ir.transaction,
        completion: &ir.completion,
        overrides: &ir.overrides,
        init_tasks: &ir.init_tasks,
        service_phase_tasks: &ir.service_phase_tasks,
        execution_order: &ir.execution_order,
    };
    let engine_cfg = EngineConfig {
        mode: EngineMode::InOrder,
        load: ir.load,
        costs: ir.manager_costs,
        device,
    };
    let boot = run_boot(&mut machine, &plan, &ir.workloads, &engine_cfg);
    let quiesce_time = boot.outcome.end_time;
    let rcu = machine.rcu_stats();

    (
        FullBootReport {
            config: ir.cfg,
            kernel,
            boot,
            rcu,
            bb_group,
            quiesce_time,
            deltas,
        },
        machine,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::booster::tests::mini_tv;
    use crate::booster::BootRequest;

    #[test]
    fn standard_pipeline_has_the_seven_passes_in_order() {
        let p = Pipeline::standard();
        let names: Vec<&str> = p.passes().map(|x| x.name()).collect();
        assert_eq!(names, STANDARD_PASSES);
    }

    #[test]
    fn conventional_config_enables_no_passes() {
        let p = Pipeline::standard();
        assert_eq!(p.enabled(&BbConfig::conventional()).count(), 0);
        assert_eq!(p.enabled(&BbConfig::full()).count(), 7);
    }

    #[test]
    fn config_for_round_trips_the_full_selection() {
        let p = Pipeline::standard();
        let all: Vec<&str> = STANDARD_PASSES.to_vec();
        assert_eq!(p.config_for(&all), Some(BbConfig::full()));
        assert_eq!(p.config_for(&[]), Some(BbConfig::conventional()));
        assert_eq!(p.config_for(&["no-such-pass"]), None);
    }

    #[test]
    fn enable_is_the_inverse_of_enabled() {
        let p = Pipeline::standard();
        for pass in p.passes() {
            let mut cfg = BbConfig::conventional();
            assert!(
                !pass.enabled(&cfg),
                "{} enabled on conventional",
                pass.name()
            );
            pass.enable(&mut cfg);
            assert!(
                pass.enabled(&cfg),
                "{} not enabled by its own enable()",
                pass.name()
            );
        }
    }

    #[test]
    fn full_bb_plan_records_seven_deltas_with_provenance() {
        let s = mini_tv();
        let p = Pipeline::standard();
        let (_, deltas) = p.plan(&s, &BbConfig::full(), None).unwrap();
        let names: Vec<&str> = deltas.iter().map(|d| d.pass).collect();
        assert_eq!(names, STANDARD_PASSES);
        for d in &deltas {
            assert!(
                !d.estimated_saving.is_zero(),
                "pass {} estimated no saving",
                d.pass
            );
            assert!(!d.summary().is_empty());
        }
    }

    #[test]
    fn conventional_plan_is_untransformed() {
        let s = mini_tv();
        let p = Pipeline::standard();
        let (ir, deltas) = p.plan(&s, &BbConfig::conventional(), None).unwrap();
        assert!(deltas.is_empty());
        assert!(!ir.kernel.defer_memory && !ir.kernel.defer_initcalls && !ir.kernel.defer_journal);
        assert!(ir.overrides.isolate.is_empty());
        assert!(ir.overrides.nice.is_empty() && ir.overrides.dispatch_first.is_empty());
        assert!(ir.init_tasks.iter().all(|t| !t.deferred));
        assert!(!ir.boost_rcu);
    }

    #[test]
    fn full_bb_plan_prioritizes_and_isolates_the_group() {
        let s = mini_tv();
        let (ir, _) = Pipeline::standard()
            .plan(&s, &BbConfig::full(), None)
            .unwrap();
        let o = &ir.overrides;
        let isolated: Vec<&str> = o
            .isolate
            .iter()
            .map(|&j| ir.graph.unit(j).name.as_str())
            .collect();
        assert_eq!(
            isolated,
            [
                "var.mount",
                "dbus.service",
                "tuner.service",
                "fasttv.service"
            ]
        );
        assert!(o.nice.values().all(|&n| n == service_engine::BB_GROUP_NICE));
        assert!(o
            .io_class
            .values()
            .all(|&c| c == bb_init::IoSchedulingClass::Realtime));
        // Dispatch-first respects internal order: var.mount before dbus.
        let pos = |n: &str| {
            o.dispatch_first
                .iter()
                .position(|&j| ir.graph.unit(j).name.as_str() == n)
                .unwrap()
        };
        assert!(pos("var.mount") < pos("dbus.service"));
        assert!(pos("dbus.service") < pos("fasttv.service"));
    }

    #[test]
    fn plan_then_execute_matches_boot_request() {
        let s = mini_tv();
        let p = Pipeline::standard();
        for cfg in [BbConfig::conventional(), BbConfig::full()] {
            let (ir, deltas) = p.plan(&s, &cfg, None).unwrap();
            let (via_pipeline, _) = execute(&ir, deltas);
            let via_facade = BootRequest::new(&s).config(cfg).run().unwrap().report;
            assert_eq!(
                via_pipeline.boot.completion_time,
                via_facade.boot.completion_time
            );
            assert_eq!(via_pipeline.quiesce_time, via_facade.quiesce_time);
        }
    }
}
