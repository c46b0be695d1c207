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
//! Pass order is fixed, and it is the order of a plan's deltas; no two
//! passes write the same IR field (the two BB-group passes read the
//! group the unit plan holds). Passes only transform the IR;
//! machine-visible execution is entirely in [`execute`], which replays
//! the exact op order of the pre-pipeline facade so boot timelines are
//! bit-identical to the old `boost` path.
//!
//! A compiled [`BootPlanIr`] owns the tables its passes rewrite and
//! shares the rest through `Arc` handles: the scenario's large
//! read-only inputs, and its [`UnitPlan`] — every fact that depends on
//! the unit set, target and completion definition alone (the unit
//! graph, transaction, dispatch order, resolved completion, BB Group
//! and Pre-parser sizes), built once per scenario
//! ([`Scenario::unit_plan`]). One value is what a fresh boot runs and
//! what a [`crate::PlanCache`] shares across a sweep's boots.

use std::collections::BTreeSet;
use std::sync::{Arc, Mutex, MutexGuard, OnceLock};

use bb_init::{
    run_boot, BootPlan, EngineConfig, EngineMode, JobNames, LoadModel, ManagerCosts, ManagerTask,
    PlanOverrides, Transaction, TransactionError, Unit, UnitGraph, UnitName, WorkloadMap,
};
use bb_kernel::{execute_kernel_boot, Criticality, KernelPlan, ModuleCatalog};
use bb_sim::{
    AccessPattern, DeviceProfile, FaultPlan, Machine, MachineBuilder, MachineConfig, Op,
    SimDuration,
};

use crate::booster::{FullBootReport, Scenario};
use crate::bootup_engine;
use crate::config::BbConfig;
use crate::core_engine::{self, ModuleStrategy};
use crate::error::Error;
use crate::service_engine::{self, ParseCostParams, PreParser};

// ---------------------------------------------------------------------
// The unit plan
// ---------------------------------------------------------------------

/// The scenario-only half of every boot plan: every fact that depends
/// on the scenario's units, target and completion definition alone. No
/// pass reshapes any of them, so one value serves every config's
/// [`BootPlanIr`]; [`Scenario::unit_plan`] builds it on first use and
/// shares it by `Arc` after.
#[derive(Debug)]
pub struct UnitPlan {
    /// The unit graph; it reads the scenario's units, not copies.
    pub graph: UnitGraph,
    /// The expanded boot transaction.
    pub transaction: Transaction,
    /// The transaction's jobs in dispatch order, computed once so no
    /// boot repeats the Kahn walk (plan tweaks only touch
    /// [`PlanOverrides`], which the order does not depend on).
    pub execution_order: Vec<usize>,
    /// The names the engine gives the jobs' flags and processes,
    /// formatted by the scenario's first boot and shared by every boot
    /// after (planning alone needs none of them).
    names: OnceLock<JobNames>,
    /// The completion definition as graph indices, in the scenario's
    /// order; every one is a job of the transaction.
    pub completion: Vec<usize>,
    /// The BB Group: the strong closure of the completion units (§3.3,
    /// [`service_engine::identify_bb_group`]).
    pub bb_group: BTreeSet<usize>,
    /// The Pre-parser's measurements of the unit set.
    pub pre: PreParser,
    /// The unit set the plan was built from, held so the allocation
    /// cannot be freed and its address reused while the plan lives.
    units: Arc<Vec<Unit>>,
    /// The target the transaction was expanded from.
    target: String,
}

impl UnitPlan {
    fn build(
        units: &Arc<Vec<Unit>>,
        target: &str,
        completion: &[UnitName],
    ) -> Result<UnitPlan, Error> {
        let graph = UnitGraph::build(Arc::clone(units))?;
        let transaction = Transaction::build(&graph, target)?;
        let execution_order = transaction.execution_order(&graph);
        let completion = resolve_completion(&graph, &transaction, completion)?;
        let bb_group = service_engine::identify_bb_group(&graph, &completion);
        Ok(UnitPlan {
            pre: PreParser::build(units),
            graph,
            transaction,
            execution_order,
            names: OnceLock::new(),
            completion,
            bb_group,
            units: Arc::clone(units),
            target: target.to_owned(),
        })
    }

    /// The jobs' flag and process names, formatted on first use.
    pub(crate) fn names(&self) -> &JobNames {
        self.names
            .get_or_init(|| JobNames::build(&self.graph, &self.transaction))
    }

    /// Whether this plan was built from this very unit allocation, this
    /// target and this completion definition, the only key under which
    /// it may be reused. The resolved indices name the completion units
    /// of the plan's own graph, so they stand for the names.
    fn built_from(&self, units: &Arc<Vec<Unit>>, target: &str, completion: &[UnitName]) -> bool {
        Arc::ptr_eq(&self.units, units)
            && self.target == target
            && self
                .completion
                .iter()
                .map(|&j| &self.graph.unit(j).name)
                .eq(completion)
    }
}

/// The one place a completion definition becomes graph indices: each
/// name must be a unit the graph defines and a job of the transaction,
/// or no boot could ever meet the definition.
fn resolve_completion(
    graph: &UnitGraph,
    transaction: &Transaction,
    completion: &[UnitName],
) -> Result<Vec<usize>, TransactionError> {
    completion
        .iter()
        .map(|name| match graph.idx(name) {
            None => Err(TransactionError::UnknownCompletion(name.clone())),
            Some(j) if !transaction.jobs.contains(&j) => {
                Err(TransactionError::CompletionNotInTransaction(name.clone()))
            }
            Some(j) => Ok(j),
        })
        .collect()
}

/// A [`Scenario`]'s lazily filled memo of its [`UnitPlan`]; start it
/// empty with `UnitPlanSlot::default()`. A clone starts with the same
/// plan, which it reuses only while its units, target and completion
/// are the ones the plan was built from.
#[derive(Default)]
pub struct UnitPlanSlot(Mutex<Option<Arc<UnitPlan>>>);

impl UnitPlanSlot {
    fn lock(&self) -> MutexGuard<'_, Option<Arc<UnitPlan>>> {
        // The slot is only ever replaced whole, so a panic elsewhere
        // cannot leave it half-written.
        self.0.lock().unwrap_or_else(|p| p.into_inner())
    }
}

impl Clone for UnitPlanSlot {
    fn clone(&self) -> Self {
        UnitPlanSlot(Mutex::new(self.lock().clone()))
    }
}

impl std::fmt::Debug for UnitPlanSlot {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let filled = self.lock().is_some();
        f.debug_struct("UnitPlanSlot")
            .field("filled", &filled)
            .finish()
    }
}

impl Scenario {
    /// The scenario's [`UnitPlan`]: built on the first call, then the
    /// same `Arc` for every later call — every config's plan, the
    /// artifact check, the fallback rescue, the dependency miner and
    /// [`crate::profile`].
    ///
    /// The memo answers only for the unit allocation, target and
    /// completion definition it was built from. Editing the units
    /// (through [`Arc::make_mut`], which copies them, since the memo
    /// holds them too) or replacing them, the target or the completion
    /// makes the next call build a new plan, so an edited scenario never
    /// reads an old graph.
    ///
    /// # Errors
    ///
    /// [`Error::Graph`] for a duplicate unit name, and
    /// [`Error::Transaction`] for a target the transaction cannot expand
    /// or a completion unit that is undefined or outside the
    /// transaction; a failed build leaves the memo as it was.
    pub fn unit_plan(&self) -> Result<Arc<UnitPlan>, Error> {
        let mut slot = self.unit_plan_slot.lock();
        if let Some(plan) = slot
            .as_ref()
            .filter(|p| p.built_from(&self.units, &self.target, &self.completion))
        {
            return Ok(Arc::clone(plan));
        }
        let plan = Arc::new(UnitPlan::build(
            &self.units,
            &self.target,
            &self.completion,
        )?);
        *slot = Some(Arc::clone(&plan));
        Ok(plan)
    }
}

// ---------------------------------------------------------------------
// The IR
// ---------------------------------------------------------------------

/// Everything one boot needs, in one place, before any machine exists.
///
/// Built by [`Pipeline::plan`] in the *conventional* shape (no BB
/// mechanism applied); passes then transform it. Large read-only
/// inputs (module catalog, workload bodies, the [`UnitPlan`]) are
/// shared with the [`Scenario`] through `Arc` handles, so a fleet sweep
/// does not clone them per boot and a plan can outlive the scenario
/// borrow it was built from.
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
    /// The scenario's unit graph, transaction, dispatch order,
    /// completion and BB Group.
    pub unit_plan: Arc<UnitPlan>,
    /// Plan overrides (isolation, priorities, dispatch order, …).
    pub overrides: PlanOverrides,
    /// Serial init-phase task table.
    pub init_tasks: Vec<ManagerTask>,
    /// Service-phase housekeeping task table.
    pub service_phase_tasks: Vec<ManagerTask>,
    /// Unit-configuration load model.
    pub load: LoadModel,
    /// Manager cost knobs.
    pub manager_costs: ManagerCosts,
    /// Parse cost parameters (kept for passes that recompute `load`).
    pub parse_params: ParseCostParams,
    /// Pre-parser measurements of the unit set (the unit plan's, unless
    /// [`Pipeline::plan`] was handed others).
    pub pre: PreParser,
    /// Whether the RCU Booster mode switch is installed at kernel boot.
    pub boost_rcu: bool,
}

impl BootPlanIr {
    /// Builds the conventional-shape IR for `scenario`, with `pre` in
    /// place of the unit plan's Pre-parser sizes when given.
    fn from_scenario(
        scenario: &Scenario,
        cfg: &BbConfig,
        pre: Option<&PreParser>,
    ) -> Result<Self, Error> {
        let unit_plan = scenario.unit_plan()?;
        let pre = pre.copied().unwrap_or(unit_plan.pre);
        let mut kernel = scenario.kernel.clone();
        kernel.defer_memory = false;
        kernel.defer_initcalls = false;
        kernel.defer_journal = false;
        let mut init_tasks = scenario.extra_init_tasks.clone();
        init_tasks.extend(bootup_engine::init_tasks(&BbConfig::conventional()));
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
            unit_plan,
            overrides: PlanOverrides::default(),
            init_tasks,
            service_phase_tasks: bootup_engine::service_phase_tasks(&BbConfig::conventional()),
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
        self.unit_plan
            .graph
            .unit(job)
            .exec
            .exec_start
            .as_deref()
            .and_then(|e| self.workloads.get(e))
    }

    /// `synchronize_rcu` calls issued by transaction jobs during boot,
    /// and how many jobs issue any.
    fn boot_rcu_syncs(&self) -> (u64, usize) {
        let (mut syncs, mut jobs) = (0, 0);
        for &j in &self.unit_plan.transaction.jobs {
            if let Some(body) = self.job_body(j) {
                let n = body
                    .pre_ready
                    .iter()
                    .chain(body.post_ready.iter())
                    .filter(|op| matches!(op, Op::RcuSync))
                    .count();
                syncs += n as u64;
                jobs += usize::from(n > 0);
            }
        }
        (syncs, jobs)
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
    /// Stable pass name (kebab-case): the label of the pass's
    /// [`PassDelta`], of `bbsim --explain` and of the attribution table.
    fn name(&self) -> &'static str;
    /// Whether `cfg` activates this pass.
    fn enabled(&self, cfg: &BbConfig) -> bool;
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
    fn apply(&self, ir: &mut BootPlanIr) -> PassDelta {
        ir.boost_rcu = true;
        let mut d = PassDelta::new(self.name());
        let (syncs, issuers) = ir.boot_rcu_syncs();
        d.units_touched = issuers;
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
    fn apply(&self, ir: &mut BootPlanIr) -> PassDelta {
        let units = &ir.unit_plan;
        let group = &units.bb_group;
        let mut d = PassDelta::new(self.name());
        d.units_touched = group.len();
        // Count the ordering in-edges the engine's isolation filter will
        // strip (same predicate as the engine, deduplicated per (src,
        // dst) like the engine's per-dependency dedup) and estimate the
        // wait the stripped gates no longer impose on the group chain.
        let mut stripped_srcs: BTreeSet<usize> = BTreeSet::new();
        for &j in group {
            let mut seen = BTreeSet::new();
            for e in units.graph.ordering_in_edges(j) {
                if !units.transaction.jobs.contains(&e.src) {
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
        ir.overrides.isolate = group.clone();
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
    fn apply(&self, ir: &mut BootPlanIr) -> PassDelta {
        // Passes never reshape the transaction, so the unit plan's
        // order is current.
        let units = Arc::clone(&ir.unit_plan);
        let group = &units.bb_group;
        let order = &units.execution_order;
        ir.overrides.dispatch_first = order
            .iter()
            .copied()
            .filter(|j| group.contains(j))
            .collect();
        for &j in group {
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
        for &j in &units.transaction.jobs {
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

/// The seven BB passes, in pipeline order.
const STANDARD: [&dyn PlanPass; 7] = [
    &DeferMemoryInit,
    &OnDemandModularizer,
    &RcuBoosterInstall,
    &DeferredExecutor,
    &PreParserLoad,
    &GroupIsolator,
    &BbManagerPriority,
];

/// The ordered BB passes plus the machinery to run them. [`execute`]
/// replays the resulting plan; to boot a scenario end to end, use
/// [`crate::BootRequest`].
pub struct Pipeline;

impl Pipeline {
    /// The seven BB passes in standard order.
    pub fn standard() -> Pipeline {
        Pipeline
    }

    /// All passes, in order.
    pub fn passes(&self) -> impl Iterator<Item = &dyn PlanPass> {
        STANDARD.into_iter()
    }

    /// The passes `cfg` activates, in order.
    pub fn enabled<'a>(&'a self, cfg: &'a BbConfig) -> impl Iterator<Item = &'a dyn PlanPass> {
        self.passes().filter(move |p| p.enabled(cfg))
    }

    /// Builds the IR for `scenario` and runs the enabled passes over it,
    /// returning the transformed plan and the per-pass deltas.
    ///
    /// `pre`, when given, stands in for the unit plan's Pre-parser
    /// sizes; a layer replay that times [`PreParser::build`] on its own
    /// passes the sizes it measured. Every other caller passes `None`.
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
/// a [`crate::PlanCache`] shares across boots.
pub(crate) type SharedPlan = Arc<(BootPlanIr, Vec<PassDelta>)>;

/// Executes a (pass-transformed) plan end to end, replaying the exact
/// machine-op order of the pre-pipeline facade: kernel boot, RCU
/// Booster Control, module handling, then the init scheme via
/// [`bb_init::run_boot`]. With [`Pipeline::plan`] this is the layer
/// split of a [`crate::BootRequest`] boot, for callers that time the
/// two halves separately; like a default request, it records no core
/// spans.
pub fn execute(ir: &BootPlanIr, deltas: Vec<PassDelta>) -> (FullBootReport, Machine) {
    execute_with(ir, deltas, &FaultPlan::none(), false, false, None)
}

/// The one boot executor, which [`execute`] and every
/// [`crate::BootRequest`] run: machine creation, storage, fault plan,
/// kernel boot, the RCU Booster Control installation, module-loading
/// setup, then the init scheme.
///
/// `faults` is installed before the kernel boots (the empty plan is a
/// strict no-op); `telemetry` arms the metrics sink before any work
/// runs (off, the hot paths reduce to an `is_some()` check);
/// `core_spans` says whether the machine records core busy spans; a
/// `builder` supplies the machine from its recycling pool, which its
/// contract makes observationally identical to a fresh one. Timelines
/// are bit-identical either way.
pub(crate) fn execute_with(
    ir: &BootPlanIr,
    deltas: Vec<PassDelta>,
    faults: &FaultPlan,
    telemetry: bool,
    core_spans: bool,
    builder: Option<&mut MachineBuilder>,
) -> (FullBootReport, Machine) {
    let mut machine = match builder {
        Some(b) => b.build(ir.machine),
        None => Machine::new(ir.machine),
    };
    machine.record_spans(core_spans);
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

    let units = &ir.unit_plan;
    let bb_group: Vec<UnitName> = ir
        .overrides
        .isolate
        .iter()
        .map(|&i| units.graph.unit(i).name.clone())
        .collect();
    let plan = BootPlan {
        graph: &units.graph,
        transaction: &units.transaction,
        completion: &units.completion,
        overrides: &ir.overrides,
        init_tasks: &ir.init_tasks,
        service_phase_tasks: &ir.service_phase_tasks,
        execution_order: &units.execution_order,
        names: units.names(),
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
        assert_eq!(
            names,
            [
                "defer-memory-init",
                "ondemand-modularizer",
                "rcu-booster",
                "deferred-executor",
                "pre-parser",
                "group-isolator",
                "bb-manager-priority",
            ]
        );
    }

    #[test]
    fn conventional_config_enables_no_passes() {
        let p = Pipeline::standard();
        assert_eq!(p.enabled(&BbConfig::conventional()).count(), 0);
        assert_eq!(p.enabled(&BbConfig::full()).count(), 7);
    }

    #[test]
    fn full_bb_plan_records_seven_deltas_with_provenance() {
        let s = mini_tv();
        let p = Pipeline::standard();
        let (_, deltas) = p.plan(&s, &BbConfig::full(), None).unwrap();
        assert!(deltas
            .iter()
            .map(|d| d.pass)
            .eq(p.passes().map(|x| x.name())));
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
            .map(|&j| ir.unit_plan.graph.unit(j).name.as_str())
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
        // Both BB-group passes act on the group the unit plan holds.
        assert_eq!(o.isolate, ir.unit_plan.bb_group);
        assert!(o.nice.keys().eq(&ir.unit_plan.bb_group));
        assert!(o.nice.values().all(|&n| n == service_engine::BB_GROUP_NICE));
        assert!(o
            .io_class
            .values()
            .all(|&c| c == bb_init::IoSchedulingClass::Realtime));
        // Dispatch-first respects internal order: var.mount before dbus.
        let pos = |n: &str| {
            o.dispatch_first
                .iter()
                .position(|&j| ir.unit_plan.graph.unit(j).name.as_str() == n)
                .unwrap()
        };
        assert!(pos("var.mount") < pos("dbus.service"));
        assert!(pos("dbus.service") < pos("fasttv.service"));
    }

    #[test]
    fn every_config_of_a_scenario_shares_one_unit_plan() {
        let s = mini_tv();
        let p = Pipeline::standard();
        let (conv, _) = p.plan(&s, &BbConfig::conventional(), None).unwrap();
        let (full, _) = p.plan(&s, &BbConfig::full(), None).unwrap();
        assert!(Arc::ptr_eq(&conv.unit_plan, &full.unit_plan));
        assert!(Arc::ptr_eq(&conv.unit_plan, &s.unit_plan().unwrap()));
        // The graph reads the scenario's units, not copies of them.
        assert!(std::ptr::eq(
            conv.unit_plan.graph.units().as_ptr(),
            s.units.as_ptr()
        ));
        // A clone that changes nothing keeps sharing.
        let copy = s.clone();
        let (again, _) = p.plan(&copy, &BbConfig::full(), None).unwrap();
        assert!(Arc::ptr_eq(&again.unit_plan, &full.unit_plan));
    }

    fn restart_of(ir: &BootPlanIr, unit: &str) -> bb_init::RestartPolicy {
        let graph = &ir.unit_plan.graph;
        graph.unit(graph.idx_of(unit)).exec.restart
    }

    #[test]
    fn a_supervised_copy_plans_its_edited_units() {
        use bb_init::RestartPolicy;
        let s = mini_tv();
        let p = Pipeline::standard();
        let (plain, _) = p.plan(&s, &BbConfig::full(), None).unwrap();
        // The copy starts with the original's filled slot.
        let supervised = crate::with_supervision(&s, RestartPolicy::OnFailure, 50, 3);
        let (conv, _) = p
            .plan(&supervised, &BbConfig::conventional(), None)
            .unwrap();
        let (full, _) = p.plan(&supervised, &BbConfig::full(), None).unwrap();
        assert_eq!(restart_of(&conv, "dbus.service"), RestartPolicy::OnFailure);
        assert!(!Arc::ptr_eq(&conv.unit_plan, &plain.unit_plan));
        assert!(Arc::ptr_eq(&conv.unit_plan, &full.unit_plan));
        // The original still plans its own units.
        let (again, _) = p.plan(&s, &BbConfig::full(), None).unwrap();
        assert_eq!(restart_of(&again, "dbus.service"), RestartPolicy::No);
        assert!(Arc::ptr_eq(&again.unit_plan, &plain.unit_plan));
    }

    #[test]
    fn edited_units_or_target_plan_afresh() {
        let p = Pipeline::standard();
        let s = mini_tv();
        p.plan(&s, &BbConfig::full(), None).unwrap();
        // A clone whose units change through `Arc::make_mut`.
        let mut copy = s.clone();
        Arc::make_mut(&mut copy.units).retain(|u| u.name.as_str() != "browser.service");
        Arc::make_mut(&mut copy.units)[0]
            .requires
            .retain(|n| n.as_str() != "browser.service");
        let (ir, _) = p.plan(&copy, &BbConfig::full(), None).unwrap();
        assert_eq!(ir.unit_plan.graph.len(), s.units.len() - 1);
        assert_eq!(ir.unit_plan.transaction.jobs.len(), s.units.len() - 1);
        // The planned scenario itself, edited in place: its memo holds
        // the units too, so `make_mut` copies them and the next plan
        // sees the edit.
        let mut s = s;
        Arc::make_mut(&mut s.units)[2].exec.nice = 7;
        let (ir, _) = p.plan(&s, &BbConfig::conventional(), None).unwrap();
        let graph = &ir.unit_plan.graph;
        assert_eq!(graph.unit(graph.idx_of("dbus.service")).exec.nice, 7);
        // A new target expands anew, and an unknown one is an error.
        s.target = "fasttv.service".into();
        let (ir, _) = p.plan(&s, &BbConfig::conventional(), None).unwrap();
        assert_eq!(ir.unit_plan.transaction.jobs.len(), 4);
        s.target = "foo".into();
        assert!(matches!(
            p.plan(&s, &BbConfig::conventional(), None),
            Err(Error::Transaction(
                bb_init::TransactionError::UnknownTarget(_)
            ))
        ));
    }

    #[test]
    fn edited_completion_plans_afresh() {
        let p = Pipeline::standard();
        let s = mini_tv();
        let (ir, _) = p.plan(&s, &BbConfig::full(), None).unwrap();
        let graph = &ir.unit_plan.graph;
        assert_eq!(ir.unit_plan.completion, [graph.idx_of("fasttv.service")]);
        // A clone given another completion unit: its group shrinks.
        let mut copy = s.clone();
        copy.completion = vec![UnitName::new("dbus.service")];
        let (edited, _) = p.plan(&copy, &BbConfig::full(), None).unwrap();
        let graph = &edited.unit_plan.graph;
        assert_eq!(edited.unit_plan.completion, [graph.idx_of("dbus.service")]);
        assert_eq!(
            edited.unit_plan.bb_group,
            [graph.idx_of("var.mount"), graph.idx_of("dbus.service")].into()
        );
        // The scenario itself, edited in place.
        let mut s = s;
        s.completion.push(UnitName::new("store.service"));
        let (grown, _) = p.plan(&s, &BbConfig::full(), None).unwrap();
        assert!(!Arc::ptr_eq(&grown.unit_plan, &ir.unit_plan));
        assert_eq!(grown.unit_plan.completion.len(), 2);
        assert_eq!(grown.unit_plan.bb_group.len(), 5);
    }

    #[test]
    fn a_completion_unit_outside_the_transaction_is_an_error() {
        let p = Pipeline::standard();
        let mut s = mini_tv();
        s.completion = vec![UnitName::new("nosuch.service")];
        assert!(matches!(
            p.plan(&s, &BbConfig::full(), None),
            Err(Error::Transaction(TransactionError::UnknownCompletion(n)))
                if n.as_str() == "nosuch.service"
        ));
        // Defined, but the target does not pull it in.
        s.target = "dbus.service".into();
        s.completion = vec![UnitName::new("fasttv.service")];
        assert!(matches!(
            p.plan(&s, &BbConfig::conventional(), None),
            Err(Error::Transaction(TransactionError::CompletionNotInTransaction(n)))
                if n.as_str() == "fasttv.service"
        ));
        // A failed build leaves no plan behind.
        s.completion = vec![UnitName::new("dbus.service")];
        let (ir, _) = p.plan(&s, &BbConfig::full(), None).unwrap();
        assert_eq!(ir.unit_plan.bb_group.len(), 2);
    }

    #[test]
    fn a_supervised_copy_measures_its_own_sizes() {
        use bb_init::RestartPolicy;
        let s = mini_tv();
        let plain = s.unit_plan().unwrap();
        assert_eq!(plain.pre, PreParser::build(&s.units));
        let supervised = crate::with_supervision(&s, RestartPolicy::OnFailure, 50, 3);
        let own = supervised.unit_plan().unwrap();
        assert_eq!(own.pre, PreParser::build(&supervised.units));
        // The supervision fields ride in the blob's v2 tail.
        assert!(own.pre.blob_bytes > plain.pre.blob_bytes);
        assert_eq!(own.pre.unit_count, plain.pre.unit_count);
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
