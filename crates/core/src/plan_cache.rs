//! Sweep-wide sharing of compiled boot plans.
//!
//! [`crate::Pipeline::plan`] depends only on (scenario, config) — never
//! on the seed, the fault plan, or which worker runs the boot — yet a
//! fleet sweep historically re-planned every single boot. A
//! [`PlanCache`] amortizes that: the first boot of a (scenario, config)
//! pair plans once and moves its [`crate::BootPlanIr`] (pass deltas
//! included) into an [`Arc`], and every later boot — run, checkpoint,
//! or resume, on any worker — reuses it with zero clones. Attach one to
//! a request with [`crate::BootRequest::plan_cache`]. A
//! [`crate::Checkpoint`] holds no plan, so attaching the same cache to
//! the checkpoint request and to its resumes is how a resume of the
//! checkpoint's own config skips planning.
//!
//! # Keying and safety
//!
//! Entries are keyed by the scenario's **`Arc` pointer identity** plus
//! the packed [`BbConfig::bits`]. Pointer identity makes the lookup a
//! hash of two words instead of a deep scenario comparison, and it is
//! made ABA-safe by storing a [`Weak`] to the keyed scenario: the weak
//! reference keeps the `Arc` allocation alive, so its address cannot be
//! reused by a different scenario while the entry exists. A lookup
//! therefore hits only when the caller's `Arc` *is* the keyed
//! allocation — same object, not merely equal content. Callers that
//! want content-level sharing memoize the `Arc` itself so equal
//! scenarios become the same allocation: the fleet keeps one such memo
//! per ticket, so a plan is shared inside a grid and dies with it. Each
//! insert evicts the entries whose scenario is gone, so a plan outlives
//! its scenario by at most one insert.
//!
//! Planning is deterministic, so a cache hit returns exactly the plan a
//! fresh [`crate::Pipeline::plan`] call would produce and timelines are
//! bit-identical with the cache on or off (pinned by
//! `tests/proptest_plan_cache.rs`).

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, Weak};

use crate::booster::Scenario;
use crate::config::BbConfig;
use crate::pipeline::SharedPlan;

struct Entry {
    /// Keeps the keyed allocation alive (ABA guard) and tells us when
    /// the scenario is gone and the entry is purgeable.
    scenario: Weak<Scenario>,
    plan: SharedPlan,
}

/// A thread-safe cache of compiled boot plans, shared across every
/// run/checkpoint/resume path of a sweep (see the module docs).
#[derive(Default)]
pub struct PlanCache {
    inner: Mutex<HashMap<(usize, u8), Entry>>,
    compiled: AtomicU64,
    hits: AtomicU64,
}

/// Counter snapshot from [`PlanCache::stats`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PlanCacheStats {
    /// Plans compiled and inserted (cache misses that planned).
    pub plans_compiled: u64,
    /// Lookups served from the cache without re-planning.
    pub hits: u64,
    /// Entries, those of dropped scenarios included until the next
    /// insert purges them.
    pub entries: usize,
}

impl PlanCache {
    /// An empty cache.
    pub fn new() -> Self {
        PlanCache::default()
    }

    fn map(&self) -> MutexGuard<'_, HashMap<(usize, u8), Entry>> {
        // A worker panic caught by the fleet can never corrupt the map
        // (entries are only inserted whole), so poisoning is ignorable.
        self.inner.lock().unwrap_or_else(|p| p.into_inner())
    }

    fn key(scenario: &Arc<Scenario>, cfg: &BbConfig) -> (usize, u8) {
        (Arc::as_ptr(scenario) as usize, cfg.bits())
    }

    /// The cached plan for (`scenario`, `cfg`), if this exact `Arc` was
    /// inserted before.
    pub(crate) fn lookup(&self, scenario: &Arc<Scenario>, cfg: &BbConfig) -> Option<SharedPlan> {
        let map = self.map();
        let entry = map.get(&Self::key(scenario, cfg))?;
        // The weak guard makes a pointer match sufficient: the keyed
        // allocation is still alive, so an equal address is the same
        // scenario. The upgrade check is belt-and-braces.
        if entry.scenario.strong_count() == 0 {
            return None;
        }
        let plan = Arc::clone(&entry.plan);
        drop(map);
        self.hits.fetch_add(1, Ordering::Relaxed);
        Some(plan)
    }

    /// Stores a freshly compiled plan for (`scenario`, `cfg`) and
    /// counts the compilation. Every insert first evicts the entries
    /// whose scenario has been dropped, so a plan outlives its scenario
    /// by at most one insert; the evicted plans are freed after the
    /// lock is released.
    pub(crate) fn insert(&self, scenario: &Arc<Scenario>, cfg: &BbConfig, plan: SharedPlan) {
        self.compiled.fetch_add(1, Ordering::Relaxed);
        let mut map = self.map();
        let dead: Vec<Entry> = map
            .extract_if(|_, e| e.scenario.strong_count() == 0)
            .map(|(_, e)| e)
            .collect();
        map.insert(
            Self::key(scenario, cfg),
            Entry {
                scenario: Arc::downgrade(scenario),
                plan,
            },
        );
        drop(map);
        drop(dead);
    }

    /// Current counters (monotonic over the cache's lifetime; callers
    /// that want per-sweep numbers snapshot before and after).
    pub fn stats(&self) -> PlanCacheStats {
        PlanCacheStats {
            plans_compiled: self.compiled.load(Ordering::Relaxed),
            hits: self.hits.load(Ordering::Relaxed),
            entries: self.map().len(),
        }
    }

    /// Number of cached plans.
    pub fn len(&self) -> usize {
        self.map().len()
    }

    /// Whether the cache holds no plans.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Drops every entry (counters are kept).
    pub fn clear(&self) {
        self.map().clear();
    }
}

impl std::fmt::Debug for PlanCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = self.stats();
        f.debug_struct("PlanCache")
            .field("entries", &s.entries)
            .field("plans_compiled", &s.plans_compiled)
            .field("hits", &s.hits)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::booster::tests::mini_tv;
    use crate::booster::BootRequest;

    #[test]
    fn hits_require_the_same_arc_not_just_equal_content() {
        let cache = PlanCache::new();
        let a = Arc::new(mini_tv());
        let b = Arc::new(mini_tv()); // equal content, different allocation
        let cfg = BbConfig::full();

        BootRequest::new(&a)
            .config(cfg)
            .plan_cache(&cache, &a)
            .run()
            .unwrap();
        assert_eq!(cache.stats().plans_compiled, 1);
        assert_eq!(cache.stats().hits, 0);

        // Same Arc: hit, no recompilation.
        BootRequest::new(&a)
            .config(cfg)
            .plan_cache(&cache, &a)
            .run()
            .unwrap();
        assert_eq!(cache.stats().plans_compiled, 1);
        assert_eq!(cache.stats().hits, 1);

        // Different allocation: compiles its own entry.
        BootRequest::new(&b)
            .config(cfg)
            .plan_cache(&cache, &b)
            .run()
            .unwrap();
        assert_eq!(cache.stats().plans_compiled, 2);
        assert_eq!(cache.stats().hits, 1);
        assert_eq!(cache.len(), 2);
    }

    #[test]
    fn configs_key_separately_and_clear_keeps_counters() {
        let cache = PlanCache::new();
        let s = Arc::new(mini_tv());
        for cfg in [BbConfig::conventional(), BbConfig::full()] {
            BootRequest::new(&s)
                .config(cfg)
                .plan_cache(&cache, &s)
                .run()
                .unwrap();
        }
        assert_eq!(cache.len(), 2);
        assert_eq!(cache.stats().plans_compiled, 2);
        cache.clear();
        assert!(cache.is_empty());
        assert_eq!(cache.stats().plans_compiled, 2);
    }

    /// Pins how `run`, `checkpoint_at` and `resume` share plans through
    /// one cache: after every step the (compiled, hits, entries)
    /// counters match, and every boot equals an uncached boot of its
    /// config.
    #[test]
    fn run_checkpoint_and_resume_share_plans_through_one_cache() {
        use crate::booster::{Boot, CheckpointPhase::KernelHandoff};

        let cache = PlanCache::new();
        let s = Arc::new(mini_tv());
        let full = BbConfig::full();
        let suffix = BbConfig {
            bb_group: false,
            ..full
        };
        assert_eq!(suffix.prefix_key(), full.prefix_key());
        let cached = |cfg: BbConfig| BootRequest::new(&s).config(cfg).plan_cache(&cache, &s);
        let counts = |expected: (u64, u64, usize)| {
            let stats = cache.stats();
            assert_eq!((stats.plans_compiled, stats.hits, stats.entries), expected);
        };
        let booted = |boot: Boot, cfg: BbConfig, expected: (u64, u64, usize)| {
            let fresh = BootRequest::new(&s).config(cfg).run().unwrap().report;
            assert_eq!(boot.report.try_boot_time(), fresh.try_boot_time());
            assert_eq!(boot.report.quiesce_time, fresh.quiesce_time);
            counts(expected);
        };

        booted(cached(full).run().unwrap(), full, (1, 0, 1));
        booted(cached(full).run().unwrap(), full, (1, 1, 1));
        let first = cached(full).checkpoint_at(KernelHandoff).unwrap();
        counts((1, 2, 1));
        // A checkpoint holds no plan: its own config is a cache hit.
        booted(cached(full).resume(&first).unwrap(), full, (1, 3, 1));
        booted(cached(suffix).resume(&first).unwrap(), suffix, (2, 3, 2));
        booted(cached(suffix).resume(&first).unwrap(), suffix, (2, 4, 2));
        // A tweaked plan is private: no lookup, no insert.
        let tweaked = cached(full).tweak(|_, _, _| {}).run().unwrap();
        booted(tweaked, full, (2, 4, 2));
        let second = cached(suffix).checkpoint_at(KernelHandoff).unwrap();
        counts((2, 5, 2));
        booted(cached(full).resume(&second).unwrap(), full, (2, 6, 2));
        let uncached = BootRequest::new(&s).config(full).resume(&first).unwrap();
        booted(uncached, full, (2, 6, 2));
    }

    /// A checkpoint keeps nothing of its scenario alive: once the
    /// scenario and the cache's plans are gone, the checkpoint still
    /// resumes a fresh equal scenario to the uncached run's boot time.
    #[test]
    fn a_checkpoint_holds_no_plan() {
        use crate::booster::CheckpointPhase::KernelHandoff;

        let cache = PlanCache::new();
        let s = Arc::new(mini_tv());
        let workloads = Arc::clone(&s.workloads);
        let ckpt = BootRequest::new(&s)
            .plan_cache(&cache, &s)
            .checkpoint_at(KernelHandoff)
            .unwrap();
        drop(s);
        cache.clear();
        assert_eq!(Arc::strong_count(&workloads), 1);

        let fresh = mini_tv();
        let resumed = BootRequest::new(&fresh).resume(&ckpt).unwrap().report;
        let straight = BootRequest::new(&fresh).run().unwrap().report;
        assert_eq!(resumed.try_boot_time(), straight.try_boot_time());
        assert_eq!(resumed.quiesce_time, straight.quiesce_time);
    }

    #[test]
    fn dropped_scenarios_never_hit_and_go_at_the_next_insert() {
        let cache = PlanCache::new();
        let plan = |s: &Arc<Scenario>| {
            BootRequest::new(s)
                .config(BbConfig::full())
                .plan_cache(&cache, s)
                .run()
                .unwrap();
        };
        let a = Arc::new(mini_tv());
        plan(&a);
        drop(a);
        // The entry survives (weak guard) but can no longer hit.
        assert_eq!(cache.stats().entries, 1);
        let b = Arc::new(mini_tv());
        assert!(cache.lookup(&b, &BbConfig::full()).is_none());
        // The next insert evicts it.
        plan(&b);
        assert_eq!(cache.stats().entries, 1);
        assert_eq!(cache.stats().plans_compiled, 2);
    }
}
