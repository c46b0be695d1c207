//! The live heap of a one-shot sweep: `bbsim sweep`'s default grid (the
//! UE48H6200, 136 generated services, 20 seeds, conventional and full
//! BB) on one worker, over a caller-held `FleetCache`.
//!
//! A ticket drops each generated scenario after the last of its jobs
//! that boots it, and the plans compiled for it with it, so the sweep
//! holds about one scenario's units, workloads, unit plan and plans at
//! a time. The budgets are 1.25 MiB of peak live heap and 64 KiB still
//! live after `run_sweep` returns, where 815 KiB and 33 KiB were
//! measured when they were set. While the ticket kept every scenario,
//! and through its plans every unit plan, until it finalized, the same
//! sweep peaked at 6,790 KiB and 6,322 KiB was still live afterwards:
//! the caller's last reference to the cache freed it all.
//!
//! Jobs run on the service's worker threads, so the counter is
//! process-wide, not per thread, and this binary holds no other test.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering::Relaxed};

use booting_booster::fleet::{run_sweep, FleetCache, PoolConfig};
use booting_booster::serve::{JobKind, SweepArgs};

/// Bytes allocated and not yet freed, by every thread.
static LIVE: AtomicUsize = AtomicUsize::new(0);
/// The most `LIVE` has been since it was last reset.
static PEAK: AtomicUsize = AtomicUsize::new(0);

/// The system allocator, tracking live bytes and their peak.
struct Tracking;

fn grow(bytes: usize) {
    let live = LIVE.fetch_add(bytes, Relaxed) + bytes;
    PEAK.fetch_max(live, Relaxed);
}

// SAFETY: every call forwards unchanged to `System`, which upholds the
// `GlobalAlloc` contract; the counters never allocate.
unsafe impl GlobalAlloc for Tracking {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc(layout);
        if !p.is_null() {
            grow(layout.size());
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc_zeroed(layout);
        if !p.is_null() {
            grow(layout.size());
        }
        p
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let p = System.realloc(ptr, layout, new_size);
        if !p.is_null() {
            LIVE.fetch_sub(layout.size(), Relaxed);
            grow(new_size);
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
        LIVE.fetch_sub(layout.size(), Relaxed);
    }
}

#[global_allocator]
static GLOBAL: Tracking = Tracking;

const KIB: usize = 1024;

#[test]
fn a_sweep_holds_about_one_scenario_at_a_time() {
    let spec = SweepArgs::new(JobKind::Sweep)
        .sweep_spec()
        .expect("the default sweep grid");
    assert_eq!(spec.total_boots(), 40, "20 seeds x 2 configs");
    let pool = PoolConfig::with_workers(1);
    let cache = FleetCache::fresh();

    let before = LIVE.load(Relaxed);
    PEAK.store(before, Relaxed);
    let outcome = run_sweep(&spec, &pool, &cache);
    let peak = PEAK.load(Relaxed).saturating_sub(before) / KIB;
    let after = LIVE.load(Relaxed).saturating_sub(before) / KIB;

    assert_eq!(outcome.report.total_boots, 40);
    assert_eq!(outcome.stats.plans_compiled, 40);
    println!("peak live heap {peak} KiB, {after} KiB live after the sweep");
    assert!(peak <= 1280, "the sweep peaked at {peak} KiB of live heap");
    assert!(after <= 64, "{after} KiB stayed live after the sweep");
}
