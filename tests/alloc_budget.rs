//! Allocation budgets of one simulated boot and of planning one.
//!
//! A fleet worker boots the same few plans thousands of times on one
//! recycled machine, so what a boot allocates beyond its plan is paid
//! per boot. This binary counts the heap allocations (`alloc`,
//! `alloc_zeroed` and `realloc` calls) of one `BootRequest::run` on a
//! warm `MachineBuilder` with a `PlanCache` hit, up to and including
//! handing the machine back through `recycle`: simulating the Tizen TV
//! scenario on the UE48H6200 and building its report.
//!
//! It also counts what every scenario pays before its first boot: the
//! Pre-parser's measurement of its units, the first config's plan,
//! which builds the scenario's unit plan (graph, transaction, dispatch
//! order, resolved completion, BB Group and Pre-parser sizes), and a
//! second config's plan, which shares it. Those budgets are the counts
//! measured when they were set plus 5%: no allocation for the
//! pre-parse, 628 for the first plan at 136 services and 4,075 at 1000,
//! and 44 for the second at both sizes. The first plan made 765 and
//! 5,076 while every clone of a unit name copied its text; 761 and
//! 5,072 before the unit plan held the completion and the group; and
//! 44 was 55 when both BB-group passes computed the group afresh. When
//! every config planned its own copy of the units and the pre-parse
//! rendered and encoded them, the same calls made 1,556, 3,530 and
//! 3,556 at 136 services and 11,689, 25,567 and 25,593 at 1000.
//!
//! The counter is a `const` thread-local, so tests running in parallel
//! on other threads do not add to it. Each boot budget is the count
//! measured when it was set plus 5%: 816 (conventional) and 831 (full
//! BB) allocations at 136 services, 2,732 and 2,716 at 1000, and 2,185
//! and 2,200 for the 136-service boot under supervision. The boot's
//! flag and process names now come from a table its scenario formats
//! once, and a respawn copies its job's program; while each boot
//! formatted its names and rebuilt every respawn's program, the same
//! boots made 1,512 and 1,539, 7,799 and 7,795, and 8,328 and 8,355
//! supervised. Before the simulator's per-boot path was cut down, the
//! plain boots made 3,278 and 2,875 at 136 services and 21,042 and
//! 20,937 at 1000 (over three other seeds, 3,300 / 2,874 and ~21,000):
//! a waiter list dropped and regrown per RCU grace period, and per
//! service a cloned workload body, a regrown op list of 56-byte ops, and
//! a dependency list with its dedupe set.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::Arc;

use booting_booster::bb::{
    with_supervision, BbConfig, BootRequest, Pipeline, PlanCache, PreParser, Scenario,
};
use booting_booster::init::RestartPolicy;
use booting_booster::sim::MachineBuilder;
use booting_booster::workloads::{profiles, tv_scenario_with, TizenParams};

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

/// The system allocator, counting allocations per thread.
struct Counting;

fn count_one() {
    // `try_with`: the slot is gone while the thread's locals are torn
    // down, and an allocation then must still succeed.
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
}

// SAFETY: every call forwards unchanged to `System`, which upholds the
// `GlobalAlloc` contract; the counter itself never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_one();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count_one();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_one();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Allocations this thread makes while `f` runs.
fn allocations_in(f: impl FnOnce()) -> u64 {
    let before = ALLOCATIONS.with(Cell::get);
    f();
    ALLOCATIONS.with(Cell::get) - before
}

/// Allocations of one boot of `scenario` under `cfg` on a recycled
/// machine whose plan is already cached.
fn boot_allocations(scenario: &Arc<Scenario>, cfg: BbConfig) -> u64 {
    let cache = PlanCache::new();
    let mut builder = MachineBuilder::new();
    let boot = |builder: &mut MachineBuilder| {
        let done = BootRequest::new(scenario)
            .config(cfg)
            .machine_builder(builder)
            .plan_cache(&cache, scenario)
            .run()
            .expect("the scenario boots");
        assert!(done.report.try_boot_time().is_some(), "boot completed");
        builder.recycle(done.machine);
    };
    // The first boot plans and fills the cache, the second grows the
    // recycled machine to this scenario's high-water mark.
    boot(&mut builder);
    boot(&mut builder);
    let n = allocations_in(|| boot(&mut builder));
    assert_eq!(cache.stats().plans_compiled, 1, "one plan, then cache hits");
    n
}

fn scenario(services: usize) -> Arc<Scenario> {
    Arc::new(tv_scenario_with(
        profiles::ue48h6200(),
        TizenParams {
            services,
            seed: 7,
            ..TizenParams::default()
        },
    ))
}

fn check(scenario: &Arc<Scenario>, what: &str, budgets: [(&str, BbConfig, u64); 2]) {
    for (name, cfg, budget) in budgets {
        let n = boot_allocations(scenario, cfg);
        println!("{what}, {name}: {n} allocations (budget {budget})");
        assert!(
            n <= budget,
            "{what} {name} boot made {n} allocations, budget {budget}"
        );
    }
}

#[test]
fn a_136_service_boot_stays_within_its_allocation_budget() {
    check(
        &scenario(136),
        "136 services",
        [
            ("conventional", BbConfig::conventional(), 857),
            ("full BB", BbConfig::full(), 873),
        ],
    );
}

#[test]
fn a_1000_service_boot_stays_within_its_allocation_budget() {
    check(
        &scenario(1000),
        "1000 services",
        [
            ("conventional", BbConfig::conventional(), 2_869),
            ("full BB", BbConfig::full(), 2_852),
        ],
    );
}

/// The 136-service boot as a chaos ticket supervises it: every service
/// under `Restart=on-failure` with a 100 ms backoff and a burst of
/// three, so each one adds three respawn watchers and a start-limit
/// watcher, and their flags.
#[test]
fn a_supervised_136_service_boot_stays_within_its_allocation_budget() {
    let supervised = with_supervision(&scenario(136), RestartPolicy::OnFailure, 100, 3);
    check(
        &Arc::new(supervised),
        "136 supervised services",
        [
            ("conventional", BbConfig::conventional(), 2_294),
            ("full BB", BbConfig::full(), 2_310),
        ],
    );
}

/// Allocations of the pre-parse of a fresh `services`-service scenario,
/// of its first (conventional) plan and of its second (full BB) plan.
fn planning_allocations(services: usize) -> [u64; 3] {
    let scenario = scenario(services);
    let pipeline = Pipeline::standard();
    let preparse = allocations_in(|| {
        std::hint::black_box(PreParser::build(&scenario.units));
    });
    let mut plans = Vec::with_capacity(2);
    let mut plan = |cfg| {
        allocations_in(|| {
            plans.push(
                pipeline
                    .plan(&scenario, &cfg, None)
                    .expect("the scenario plans"),
            )
        })
    };
    let first = plan(BbConfig::conventional());
    let second = plan(BbConfig::full());
    assert!(
        Arc::ptr_eq(&plans[0].0.unit_plan, &plans[1].0.unit_plan),
        "both configs share one unit plan"
    );
    [preparse, first, second]
}

fn check_planning(services: usize, budgets: [u64; 3]) {
    let counts = planning_allocations(services);
    for ((what, n), budget) in ["pre-parse", "first plan", "second plan"]
        .into_iter()
        .zip(counts)
        .zip(budgets)
    {
        println!("{services} services, {what}: {n} allocations (budget {budget})");
        assert!(
            n <= budget,
            "{services}-service {what} made {n} allocations, budget {budget}"
        );
    }
}

#[test]
fn planning_a_136_service_scenario_stays_within_its_allocation_budget() {
    check_planning(136, [0, 659, 46]);
}

#[test]
fn planning_a_1000_service_scenario_stays_within_its_allocation_budget() {
    check_planning(1000, [0, 4_279, 46]);
}
