//! Sweep specification: a cartesian grid of boot simulations.
//!
//! A [`SweepSpec`] is a list of *cells*. Each cell names a scenario
//! source (a synthetic Tizen workload or a fixed [`Scenario`]), the
//! seeds to instantiate it with, and the [`BbConfig`]s to boot each
//! instance under. One *job* is one `(cell, plan, corruption, seed)`
//! slot: the worker builds the scenario once and boots every config
//! against that shared template, which plans its units once — the
//! expensive regeneration work is amortized across the whole config
//! axis instead of being paid per boot.
//!
//! The fault-plan, corruption, supervision, and fallback axes are
//! optional. A plain cell leaves all four at their defaults and boots
//! each seed once per config; a *supervised* cell sets at least one of
//! them — a chaos sweep, whose boots bypass the [`crate::FleetCache`]
//! and which [`crate::run_chaos`] reports as `bb-fleet-chaos-v2`.
//!
//! Every memo of the fleet names what a job boots by one `ScenarioKey`:
//! the cell's source with the job's seed, plus the cell's supervision
//! overlay. The ticket's scenario memo and the boot-outcome memo key on
//! it, and a hit compares the whole key, never a hash of it.

use std::hash::{Hash, Hasher};
use std::sync::{Arc, Weak};
use std::time::Duration;

use bb_core::booster::Scenario;
use bb_core::{with_supervision, BbConfig, FallbackPolicy};
use bb_init::RestartPolicy;
use bb_workloads::{tv_scenario_with, MachineProfile, TizenParams};

/// Where a cell's boot scenarios come from.
#[derive(Debug, Clone)]
pub enum ScenarioSource {
    /// Generate the synthetic Tizen TV workload per seed: each job
    /// regenerates units, workloads, and false-ordering edges with its
    /// own seed (the sweep's variance axis).
    Tizen {
        /// Hardware profile to run on.
        profile: MachineProfile,
        /// Workload parameters; the `seed` field is overridden per job.
        params: TizenParams,
    },
    /// One fixed scenario shared by every seed slot (the seed then only
    /// addresses the result slot). Useful for scenario types the
    /// generator cannot express, and for fault-injection tests.
    Fixed(Arc<Scenario>),
}

/// Supervision overlay a supervised cell arms on every service unit.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Supervision {
    /// Restart policy to apply.
    pub restart: RestartPolicy,
    /// `RestartSec=` backoff, milliseconds.
    pub restart_sec_ms: u64,
    /// `StartLimitBurst=` respawn bound.
    pub start_limit_burst: u32,
}

impl Default for Supervision {
    fn default() -> Self {
        Supervision {
            restart: RestartPolicy::OnFailure,
            restart_sec_ms: 100,
            start_limit_burst: 3,
        }
    }
}

/// One cell of the sweep grid.
#[derive(Debug, Clone)]
pub struct CellSpec {
    /// Cell label; appears in reports and JSON.
    pub label: String,
    /// Scenario source.
    pub source: ScenarioSource,
    /// Seeds to instantiate the source with; one job per seed (per
    /// fault plan and corruption slot).
    pub seeds: Vec<u64>,
    /// `(label, config)` pairs each instance boots under. A config
    /// labeled `"conventional"` becomes the cell's savings baseline.
    pub configs: Vec<(String, BbConfig)>,
    /// Fault-plan axis: `None` is the fault-free control, `Some(seed)`
    /// a seeded [`bb_sim::FaultPlan`] over the scenario's own fault
    /// targets (see [`bb_core::fault_targets`]), so the same plan seed
    /// means the same faults for every config. Defaults to `[None]`.
    pub plan_seeds: Vec<Option<u64>>,
    /// Corruption axis: `None` is the pristine control (no artifact
    /// read staged, so the integrity chain never runs), `Some(seed)`
    /// damages the scenario's encoded pre-parse blob with
    /// [`bb_sim::CorruptionPlan::seeded`] and derives the read's
    /// transient-failure count from the same seed. Defaults to `[None]`.
    pub corruption_seeds: Vec<Option<u64>>,
    /// Supervision overlay; `None` boots the units as authored.
    pub supervision: Option<Supervision>,
    /// Boot supervisor judging every attempt (see
    /// [`bb_core::BootRequest::fallback`]); `None` runs unsupervised.
    pub fallback: Option<FallbackPolicy>,
}

impl CellSpec {
    /// A cell generating Tizen TV workloads on `profile`. Starts with
    /// `params.seed` as the only seed; override with [`CellSpec::seeds`].
    pub fn tizen(label: impl Into<String>, profile: MachineProfile, params: TizenParams) -> Self {
        let seed = params.seed;
        CellSpec::new(label, ScenarioSource::Tizen { profile, params }, seed)
    }

    /// A cell booting one fixed scenario. Starts with a single seed 0
    /// (one job); add more to boot the identical scenario repeatedly.
    pub fn fixed(label: impl Into<String>, scenario: Scenario) -> Self {
        CellSpec::new(label, ScenarioSource::Fixed(Arc::new(scenario)), 0)
    }

    fn new(label: impl Into<String>, source: ScenarioSource, seed: u64) -> Self {
        CellSpec {
            label: label.into(),
            source,
            seeds: vec![seed],
            configs: Vec::new(),
            plan_seeds: vec![None],
            corruption_seeds: vec![None],
            supervision: None,
            fallback: None,
        }
    }

    /// Replaces the seed list.
    pub fn seeds(mut self, seeds: impl IntoIterator<Item = u64>) -> Self {
        self.seeds = seeds.into_iter().collect();
        self
    }

    /// Adds one config to boot under.
    pub fn config(mut self, label: impl Into<String>, cfg: BbConfig) -> Self {
        self.configs.push((label.into(), cfg));
        self
    }

    /// Adds the standard pair of configs: `"conventional"` (every
    /// feature off) and `"bb"` (every feature on).
    pub fn conventional_vs_bb(self) -> Self {
        self.config("conventional", BbConfig::conventional())
            .config("bb", BbConfig::full())
    }

    /// Sets the fault-plan axis to the control plan plus `n` seeded
    /// plans starting at `base`.
    pub fn fault_plans(mut self, n: u64, base: u64) -> Self {
        self.plan_seeds = control_plus(n, base);
        self
    }

    /// Sets the corruption axis to the pristine control plus `n` seeded
    /// corruption plans starting at `base`.
    pub fn corruption_plans(mut self, n: u64, base: u64) -> Self {
        self.corruption_seeds = control_plus(n, base);
        self
    }

    /// Replaces the supervision overlay.
    pub fn supervision(mut self, s: Option<Supervision>) -> Self {
        self.supervision = s;
        self
    }

    /// Supervises every boot with `policy`.
    pub fn fallback(mut self, policy: FallbackPolicy) -> Self {
        self.fallback = Some(policy);
        self
    }

    /// True if the cell sets any fault, corruption, supervision, or
    /// fallback axis. Supervised boots bypass the [`crate::FleetCache`]
    /// entirely: the dedup key does not cover the fault, corruption and
    /// fallback axes. Only their ticket shares some of them (see
    /// [`SweepSpec::dedup`]).
    pub(crate) fn supervised(&self) -> bool {
        self.plan_seeds != [None]
            || self.corruption_seeds != [None]
            || self.supervision.is_some()
            || self.fallback.is_some()
    }

    /// Boots this cell contributes to the sweep.
    pub fn boots(&self) -> usize {
        self.slots() * self.configs.len()
    }

    /// Result slots (= jobs) of this cell: one per `(plan, corruption,
    /// seed)`.
    pub(crate) fn slots(&self) -> usize {
        self.plan_seeds.len() * self.corruption_seeds.len() * self.seeds.len()
    }
}

/// The control slot plus `n` seeded slots starting at `base`.
fn control_plus(n: u64, base: u64) -> Vec<Option<u64>> {
    std::iter::once(None)
        .chain((0..n).map(|i| Some(base + i)))
        .collect()
}

impl Supervision {
    /// `scenario` with this overlay armed on every service unit.
    pub(crate) fn apply(&self, scenario: &Scenario) -> Scenario {
        with_supervision(
            scenario,
            self.restart,
            self.restart_sec_ms,
            self.start_limit_burst,
        )
    }
}

/// The full sweep: cells plus execution policy that belongs to the
/// *work* (not the pool), i.e. the per-job deadline.
#[derive(Debug, Clone)]
pub struct SweepSpec {
    /// The grid.
    pub cells: Vec<CellSpec>,
    /// Per-job wall-clock deadline. A job whose boots take longer is
    /// reported as failed and excluded from aggregation. `None` = no
    /// deadline.
    pub deadline: Option<Duration>,
    /// Collect per-boot telemetry spans ([`bb_core::boot_spans`]) and
    /// aggregate them into a [`crate::MetricsReport`] (`bb-metrics-v1`).
    pub metrics: bool,
    /// Deduplicate identical grid points: two boots of the same
    /// scenario under the same config — across cells with equal
    /// generated sources, across seed slots of a
    /// [`ScenarioSource::Fixed`] cell — are simulated once and the
    /// result is fanned out to every requesting slot.
    /// Simulation is deterministic, so reports stay byte-identical
    /// with dedup on or off (see `PoolStats::cells_deduped`); on by
    /// default, opt out with [`SweepSpec::with_dedup`] to force every
    /// slot to re-simulate. A supervised cell shares only the boots
    /// that never read its staged artifact
    /// ([`BbConfig::reads_artifact`]), each across its corruption slots
    /// within the ticket; it simulates every other boot.
    pub dedup: bool,
}

impl Default for SweepSpec {
    fn default() -> Self {
        SweepSpec {
            cells: Vec::new(),
            deadline: None,
            metrics: false,
            dedup: true,
        }
    }
}

impl SweepSpec {
    /// An empty sweep.
    pub fn new() -> Self {
        SweepSpec::default()
    }

    /// Adds a cell.
    pub fn cell(mut self, cell: CellSpec) -> Self {
        self.cells.push(cell);
        self
    }

    /// Sets the per-job deadline.
    pub fn deadline(mut self, deadline: Duration) -> Self {
        self.deadline = Some(deadline);
        self
    }

    /// Enables span metrics collection (see [`SweepSpec::metrics`]).
    pub fn with_metrics(mut self, metrics: bool) -> Self {
        self.metrics = metrics;
        self
    }

    /// Enables or disables grid-point dedup (see [`SweepSpec::dedup`];
    /// on by default).
    pub fn with_dedup(mut self, dedup: bool) -> Self {
        self.dedup = dedup;
        self
    }

    /// Total boots across the grid.
    pub fn total_boots(&self) -> usize {
        self.cells.iter().map(CellSpec::boots).sum()
    }

    /// Jobs the grid expands to, counted without expanding it
    /// (saturating at `usize::MAX`).
    pub(crate) fn job_count(&self) -> usize {
        self.cells.iter().fold(0usize, |n, c| {
            let slots = c
                .plan_seeds
                .len()
                .checked_mul(c.corruption_seeds.len())
                .and_then(|s| s.checked_mul(c.seeds.len()));
            slots.map_or(usize::MAX, |s| n.saturating_add(s))
        })
    }

    /// Expands the grid into jobs, in deterministic (cell, corruption,
    /// plan, seed) order — (cell, seed) order for plain cells. A
    /// supervised cell's pristine slots queue first, so a boot that
    /// never reads the artifact has run, and is in the ticket's outcome
    /// memo, by the time a corrupted slot asks for it.
    pub fn jobs(&self) -> Vec<Job> {
        let mut jobs = Vec::new();
        for (cell, c) in self.cells.iter().enumerate() {
            for corr_idx in 0..c.corruption_seeds.len() {
                for plan_idx in 0..c.plan_seeds.len() {
                    for seed_idx in 0..c.seeds.len() {
                        jobs.push(Job {
                            cell,
                            plan_idx,
                            corr_idx,
                            seed_idx,
                        });
                    }
                }
            }
        }
        jobs
    }
}

/// One unit of pool work: all configs of one `(cell, plan, corruption,
/// seed)` slot. Orders by that tuple, the order of report slots and
/// failures; [`SweepSpec::jobs`] queues them in another.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Job {
    /// Index into [`SweepSpec::cells`].
    pub cell: usize,
    /// Index into that cell's fault-plan list.
    pub plan_idx: usize,
    /// Index into that cell's corruption list.
    pub corr_idx: usize,
    /// Index into that cell's seed list.
    pub seed_idx: usize,
}

/// What one job boots: the cell's source with the job's seed, plus the
/// cell's supervision overlay. Jobs with equal keys boot identical
/// scenarios, so the ticket's scenario memo and the boot-outcome memo
/// both key on it, and a hit compares the whole key.
///
/// A generated source keys on its profile and its parameters, every
/// field compared by the types' derived `PartialEq`, with the job's seed
/// in place of the parameters' own. A NaN parameter never equals itself,
/// so its key only ever misses. A fixed source keys on the cell's own
/// `Arc`, held as a `Weak` the way [`bb_core::PlanCache`] holds its
/// scenarios: the allocation cannot be reused while the key lives, so an
/// equal address is the same scenario. Every seed slot of a fixed cell
/// has the same key, and two fixed cells share a key only if they share
/// the `Arc`.
#[derive(Debug, Clone)]
pub(crate) struct ScenarioKey {
    source: SourceKey,
    supervision: Option<Supervision>,
}

#[derive(Debug, Clone)]
enum SourceKey {
    Generated(MachineProfile, TizenParams),
    Fixed(Weak<Scenario>),
}

impl ScenarioKey {
    /// The key of `cell`'s job with seed `seed`.
    pub(crate) fn new(cell: &CellSpec, seed: u64) -> ScenarioKey {
        let source = match &cell.source {
            ScenarioSource::Tizen { profile, params } => {
                SourceKey::Generated(*profile, TizenParams { seed, ..*params })
            }
            ScenarioSource::Fixed(s) => SourceKey::Fixed(Arc::downgrade(s)),
        };
        ScenarioKey {
            source,
            supervision: cell.supervision,
        }
    }
}

impl PartialEq for ScenarioKey {
    fn eq(&self, other: &Self) -> bool {
        let source = match (&self.source, &other.source) {
            (SourceKey::Generated(p, t), SourceKey::Generated(q, u)) => p == q && t == u,
            (SourceKey::Fixed(a), SourceKey::Fixed(b)) => a.ptr_eq(b),
            _ => false,
        };
        source && self.supervision == other.supervision
    }
}

impl Eq for ScenarioKey {}

impl Hash for ScenarioKey {
    /// Hashes a part of what `eq` compares (floats left out), so equal
    /// keys hash equal and `eq` settles the rest.
    fn hash<H: Hasher>(&self, state: &mut H) {
        match &self.source {
            SourceKey::Generated(profile, params) => {
                (profile.name, params.services, params.seed).hash(state)
            }
            SourceKey::Fixed(s) => s.as_ptr().hash(state),
        }
        self.supervision.hash(state);
    }
}

/// Builds the scenario a job boots: the cell's own `Arc` for a `Fixed`
/// cell, a freshly generated instance for a `Tizen` cell, with the
/// cell's supervision overlay armed. Jobs call it through their
/// ticket's scenario memo.
pub(crate) fn job_scenario(cell: &CellSpec, seed: u64) -> Arc<Scenario> {
    let scenario = match &cell.source {
        ScenarioSource::Fixed(s) => Arc::clone(s),
        ScenarioSource::Tizen { profile, params } => {
            Arc::new(tv_scenario_with(*profile, TizenParams { seed, ..*params }))
        }
    };
    match cell.supervision {
        Some(s) => Arc::new(s.apply(&scenario)),
        None => scenario,
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use bb_workloads::profiles;
    use std::collections::HashMap;
    use std::hash::BuildHasherDefault;

    /// The 24-service open-source TV parameters the fleet tests boot.
    pub(crate) fn tiny_params() -> TizenParams {
        TizenParams {
            services: 24,
            ..TizenParams::open_source()
        }
    }

    /// A plain cell of [`tiny_params`] scenarios on the UE48H6200.
    pub(crate) fn tiny_cell(label: &str) -> CellSpec {
        CellSpec::tizen(label, profiles::ue48h6200(), tiny_params())
    }

    /// One generated [`tiny_params`] scenario.
    pub(crate) fn tiny_scenario() -> Scenario {
        tv_scenario_with(profiles::ue48h6200(), tiny_params())
    }

    fn small_cell() -> CellSpec {
        tiny_cell("small")
    }

    #[test]
    fn jobs_expand_in_cell_then_seed_order() {
        let spec = SweepSpec::new()
            .cell(small_cell().seeds([1, 2, 3]).conventional_vs_bb())
            .cell(small_cell().seeds([7]).config("bb", BbConfig::full()));
        let jobs = spec.jobs();
        assert_eq!(jobs.len(), 4);
        assert_eq!(spec.job_count(), 4);
        let job = |cell, seed_idx| Job {
            cell,
            plan_idx: 0,
            corr_idx: 0,
            seed_idx,
        };
        assert_eq!(jobs[0], job(0, 0));
        assert_eq!(jobs[2], job(0, 2));
        assert_eq!(jobs[3], job(1, 0));
        assert_eq!(spec.total_boots(), 3 * 2 + 1);
        assert!(!spec.cells[0].supervised());
    }

    #[test]
    fn supervised_cells_expand_corruption_plan_then_seed() {
        let cell = small_cell()
            .seeds([1, 2])
            .fault_plans(2, 100)
            .corruption_plans(1, 500)
            .conventional_vs_bb();
        assert!(cell.supervised());
        assert_eq!(cell.plan_seeds, [None, Some(100), Some(101)]);
        assert_eq!(cell.corruption_seeds, [None, Some(500)]);
        let spec = SweepSpec::new().cell(cell);
        let jobs = spec.jobs();
        assert_eq!(jobs.len(), 3 * 2 * 2);
        assert_eq!(spec.job_count(), jobs.len());
        assert_eq!(spec.total_boots(), 3 * 2 * 2 * 2);
        // Jobs queue in [corruption][plan][seed] order: every pristine
        // slot before the first corrupted one.
        let keys: Vec<_> = jobs
            .iter()
            .map(|j| (j.corr_idx, j.plan_idx, j.seed_idx))
            .collect();
        assert!(keys.windows(2).all(|w| w[0] < w[1]));
        assert_eq!(keys[5], (0, 2, 1));
        assert_eq!(keys[7], (1, 0, 1));
        // Each job is one slot, in slot order once sorted.
        let mut slots = jobs.clone();
        slots.sort();
        assert_eq!(
            (slots[5].plan_idx, slots[5].corr_idx, slots[5].seed_idx),
            (1, 0, 1)
        );
        slots.dedup();
        assert_eq!(slots.len(), jobs.len());
        // Each of the four axes alone makes a cell supervised.
        assert!(small_cell().fault_plans(1, 0).supervised());
        assert!(small_cell().corruption_plans(1, 0).supervised());
        assert!(small_cell()
            .supervision(Some(Supervision::default()))
            .supervised());
        assert!(small_cell()
            .fallback(FallbackPolicy::default())
            .supervised());
        assert!(!small_cell().fault_plans(0, 0).supervised());
    }

    #[test]
    fn tizen_jobs_regenerate_per_seed() {
        let cell = small_cell().seeds([10, 11]).conventional_vs_bb();
        let a = job_scenario(&cell, 10);
        let b = job_scenario(&cell, 11);
        // Different seeds draw different service durations.
        assert_ne!(
            format!("{:?}", a.workloads),
            format!("{:?}", b.workloads),
            "seeds should vary the generated workload"
        );
    }

    /// A hasher that sends every key to the same bucket.
    #[derive(Default)]
    struct OneBucket;

    impl Hasher for OneBucket {
        fn finish(&self) -> u64 {
            0
        }
        fn write(&mut self, _: &[u8]) {}
    }

    #[test]
    fn scenario_keys_compare_what_a_job_boots() {
        let key = ScenarioKey::new;
        let base = key(&small_cell(), 1);

        // Labels, seed lists and configs do not split a key.
        let relabeled = CellSpec::tizen("other", profiles::ue48h6200(), tiny_params())
            .seeds([9, 10])
            .config("bb", BbConfig::full());
        assert_eq!(key(&relabeled, 1), base);

        // The job seed replaces the params seed.
        let reseeded = CellSpec::tizen(
            "small",
            profiles::ue48h6200(),
            TizenParams {
                seed: 999,
                ..tiny_params()
            },
        );
        assert_eq!(key(&reseeded, 1), base);

        // A different seed, any parameter, the profile, or an overlay
        // splits the key.
        assert_ne!(key(&small_cell(), 2), base);
        let params = |p: TizenParams| CellSpec::tizen("small", profiles::ue48h6200(), p);
        for other in [
            TizenParams {
                services: 25,
                ..tiny_params()
            },
            TizenParams {
                false_ordering_edges: 13,
                ..tiny_params()
            },
            TizenParams {
                work_scale: 1.000_000_1,
                ..tiny_params()
            },
            TizenParams {
                rcu_scale: 2.0,
                ..tiny_params()
            },
            TizenParams {
                io_scale: 0.5,
                ..tiny_params()
            },
        ] {
            assert_ne!(key(&params(other), 1), base, "{other:?}");
        }
        let mut faster = profiles::ue48h6200();
        faster.machine.core_speed = 1.5;
        assert_ne!(
            key(&CellSpec::tizen("small", faster, tiny_params()), 1),
            base
        );
        let overlaid = small_cell().supervision(Some(Supervision::default()));
        assert_ne!(key(&overlaid, 1), base);
        let other_overlay = small_cell().supervision(Some(Supervision {
            start_limit_burst: 4,
            ..Supervision::default()
        }));
        assert_ne!(key(&other_overlay, 1), key(&overlaid, 1));

        // A fixed cell's key is its own `Arc`, the same for every seed;
        // an equal scenario in another `Arc` is another key.
        let scenario = tiny_scenario();
        let fixed = CellSpec::fixed("a", scenario.clone());
        assert_eq!(key(&fixed, 0), key(&fixed, 7));
        let relabeled = CellSpec {
            label: "b".into(),
            ..fixed.clone()
        };
        assert_eq!(key(&relabeled, 3), key(&fixed, 0));
        assert_ne!(key(&CellSpec::fixed("a", scenario), 0), key(&fixed, 0));

        // Keys whose hashes collide still keep their own entries.
        let mut map: HashMap<ScenarioKey, u64, BuildHasherDefault<OneBucket>> = HashMap::default();
        for seed in [1, 2] {
            map.insert(key(&small_cell(), seed), seed);
        }
        map.insert(key(&fixed, 0), 0);
        assert_eq!(map.len(), 3);
        assert_eq!(map[&key(&small_cell(), 1)], 1);
        assert_eq!(map[&key(&small_cell(), 2)], 2);
        assert_eq!(map[&key(&fixed, 5)], 0);
    }
}
