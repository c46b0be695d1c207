//! The merged grid engine's invariants: plain and supervised cells run
//! on one spec, one job runner, one aggregator, and one service path,
//! yet a supervised cell never touches the shared `FleetCache`, cells
//! never leak into each other through the shared slots, and a ticket's
//! scenarios and plans do not outlive the last job that boots them.

use booting_booster::bb::FallbackPolicy;
use booting_booster::fleet::{
    run_chaos, run_sweep, CellSpec, FleetCache, FleetService, PoolConfig, ServiceConfig,
    ServiceReport, Supervision, SweepSpec,
};
use booting_booster::serve::{JobKind, SweepArgs};
use booting_booster::workloads::{profiles, TizenParams};

/// A chaos ticket and a sweep ticket over the same profile, services,
/// and seeds share one service: the supervised boots must leave the
/// `FleetCache` untouched, so the sweep finds nothing to replay. The
/// chaos ticket replays only its own boots: the conventional boot of
/// each seed and fault plan runs in the pristine slot, and the
/// corrupted slot, which stages an artifact that boot never reads,
/// replays it. One worker runs the jobs in order, so the count is
/// exact.
#[test]
fn supervised_cells_leave_the_fleet_cache_alone() {
    let job = |kind| {
        let mut job = SweepArgs::new(kind);
        job.services = Some(24);
        job.seeds = 2;
        job.plans = 1;
        job.corruption = 1;
        job.to_work_item().expect("work item")
    };
    let service = FleetService::start(ServiceConfig::with_workers(1));
    let ticket = service.submit(1, job(JobKind::Chaos)).expect("admitted");
    let Ok(ServiceReport::Chaos(chaos)) = service.wait(ticket) else {
        panic!("chaos tickets finalize into chaos reports");
    };
    assert!(chaos.report.failures.is_empty());
    assert!(chaos.stats.kernel_sims > 0, "chaos boots are counted");
    assert_eq!(
        chaos.stats.cells_deduped, 4,
        "2 seeds x 2 fault-plan slots replay their conventional boot"
    );
    assert_eq!(
        service.cache().plans().stats().entries,
        0,
        "supervised boots compile no shared plans"
    );

    let ticket = service.submit(1, job(JobKind::Sweep)).expect("admitted");
    let Ok(ServiceReport::Sweep(sweep)) = service.wait(ticket) else {
        panic!("sweep tickets finalize into sweep reports");
    };
    assert_eq!(
        sweep.stats.cells_deduped, 0,
        "nothing the chaos ticket booted may be replayed"
    );
    assert_eq!(sweep.stats.kernel_sims, 4, "2 seeds x 2 configs simulate");
}

/// The grid of a served chaos ticket, `bbsim chaos --services 136
/// --seeds 1 --plans 2 --corruption 1` (whose report
/// `tests/golden/chaos_s136.json` pins).
fn served_chaos_grid() -> SweepSpec {
    let mut job = SweepArgs::new(JobKind::Chaos);
    job.services = Some(136);
    job.seeds = 1;
    job.plans = 2;
    job.corruption = 1;
    job.sweep_spec().expect("chaos grid")
}

/// In the served chaos grid the conventional boot of each of the three
/// fault-plan slots never reads the staged artifact, so the corrupted
/// slot replays the pristine slot's boot. One worker simulates 9 of the
/// 12 boots and replays 3, while the fault columns still count all 12
/// and the report equals the one with dedup off, which simulates every
/// boot.
#[test]
fn a_served_chaos_grid_simulates_each_artifact_blind_boot_once() {
    let spec = served_chaos_grid();
    let pool = PoolConfig::with_workers(1);
    let chaos = run_chaos(&spec, &pool, &FleetCache::fresh());
    let every_boot = run_chaos(&spec.with_dedup(false), &pool, &FleetCache::fresh());
    assert_eq!(chaos.report.to_json(), every_boot.report.to_json());
    assert_eq!(
        (every_boot.stats.kernel_sims, every_boot.stats.cells_deduped),
        (12, 0)
    );
    assert!(chaos.report.failures.is_empty());
    assert_eq!(chaos.report.total_boots, 12);
    assert_eq!(chaos.stats.kernel_sims, 9, "no boot degrades, so no rescue");
    assert_eq!(chaos.stats.cells_deduped, 3);
    assert_eq!(
        (
            chaos.stats.restarts,
            chaos.stats.recoveries,
            chaos.stats.artifacts_rejected
        ),
        (24, 3, 3),
        "replayed boots keep their fault records"
    );
}

/// On four workers the corrupted slots run beside the pristine ones and
/// sometimes simulate a shared boot before its outcome is memoized. The
/// run stored second counts as a replay, so every run reads what one
/// worker reads.
#[test]
fn served_chaos_counters_are_exact_on_four_workers() {
    let spec = served_chaos_grid();
    let pool = PoolConfig::with_workers(4);
    for run in 0..10 {
        let chaos = run_chaos(&spec, &pool, &FleetCache::fresh());
        let counts = (chaos.stats.kernel_sims, chaos.stats.cells_deduped);
        assert_eq!(counts, (9, 3), "run {run}");
    }
}

/// One grid, one plain and one supervised cell: each cell's row in its
/// own view equals the row a single-kind run produces.
#[test]
fn plain_and_supervised_cells_stay_isolated_in_shared_slots() {
    let cell = |label| {
        let params = TizenParams {
            services: 24,
            ..TizenParams::open_source()
        };
        CellSpec::tizen(label, profiles::ue48h6200(), params)
            .seeds([1, 2])
            .conventional_vs_bb()
    };
    let plain = cell("plain");
    let supervised = cell("faulted")
        .fault_plans(2, 100)
        .corruption_plans(1, 500)
        .supervision(Some(Supervision::default()))
        .fallback(FallbackPolicy::default());
    let mixed = SweepSpec::new()
        .cell(plain.clone())
        .cell(supervised.clone());
    let pool = PoolConfig::with_workers(3);
    let alone = |cell: CellSpec| SweepSpec::new().cell(cell);

    let plain_only = run_sweep(&alone(plain), &pool, &FleetCache::fresh());
    let mixed_sweep = run_sweep(&mixed, &pool, &FleetCache::fresh());
    assert_eq!(mixed_sweep.report.cells[0], plain_only.report.cells[0]);

    let chaos_only = run_chaos(&alone(supervised), &pool, &FleetCache::fresh());
    let mixed_chaos = run_chaos(&mixed, &pool, &FleetCache::fresh());
    assert_eq!(mixed_chaos.report.cells[1], chaos_only.report.cells[0]);
    let faulted: Vec<_> = mixed_chaos
        .report
        .events
        .iter()
        .filter(|e| e.cell == "faulted")
        .collect();
    assert!(!faulted.is_empty(), "the supervised cell exercises events");
    assert_eq!(faulted, chaos_only.report.events.iter().collect::<Vec<_>>());
    assert_eq!(
        mixed_chaos.stats.restarts, chaos_only.stats.restarts,
        "only the supervised cell restarts"
    );
}

/// Fresh tickets run one after another on one service: each compiles
/// its own plans, and a scenario's plans go with the last job that
/// boots it, so the plan cache never holds more than one job's.
///
/// One worker makes the bound exact. The worker that runs a ticket's
/// last job drops its scenario, and so its two plans, only after waking
/// the waiter, which may read the cache first; it drops them before it
/// dispatches the next job.
#[test]
fn plans_do_not_outlive_their_ticket() {
    let service = FleetService::start(ServiceConfig::with_workers(1));
    for first_seed in [1, 3, 5, 7] {
        let mut job = SweepArgs::new(JobKind::Sweep);
        job.services = Some(24);
        job.seeds = 2;
        job.seed = Some(first_seed);
        let item = job.to_work_item().expect("work item");
        let ticket = service.submit(1, item).expect("admitted");
        let Ok(ServiceReport::Sweep(sweep)) = service.wait(ticket) else {
            panic!("sweep tickets finalize into sweep reports");
        };
        assert_eq!(sweep.stats.kernel_sims, 4, "2 fresh seeds x 2 configs");
        let entries = service.cache().plans().stats().entries;
        assert!(
            entries <= 2,
            "{entries} plans held after the ticket from seed {first_seed}"
        );
    }
}
