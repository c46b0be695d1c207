//! Sweep-wide sharing of compiled boot plans.
//!
//! [`crate::Pipeline::plan`] depends only on (scenario, config) — never
//! on the seed, the fault plan, or which worker runs the boot — yet a
//! fleet sweep historically re-planned every single boot. A
//! [`PlanCache`] amortizes that: the first boot of a (scenario, config)
//! pair plans once and moves its [`crate::BootPlanIr`] (pass deltas
//! included) into an [`Arc`], and every later boot, on any worker,
//! reuses it with zero clones. Attach one to a request with
//! [`crate::BootRequest::plan_cache`].
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
//! per ticket, so a plan is shared inside a grid. Each insert evicts the
//! entries whose scenario is gone, so a plan outlives its scenario by at
//! most one insert; [`PlanCache::evict_dropped`] evicts them at once,
//! which the fleet calls after it drops a scenario with the last of its
//! ticket's jobs that boots it.
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

/// A thread-safe cache of compiled boot plans, shared by every boot
/// it is attached to (see the module docs).
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
    /// insert or [`PlanCache::evict_dropped`] evicts them.
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
    /// counts the compilation. Every insert first runs
    /// [`PlanCache::evict_dropped`].
    pub(crate) fn insert(&self, scenario: &Arc<Scenario>, cfg: &BbConfig, plan: SharedPlan) {
        self.compiled.fetch_add(1, Ordering::Relaxed);
        self.evict_dropped();
        let entry = Entry {
            scenario: Arc::downgrade(scenario),
            plan,
        };
        self.map().insert(Self::key(scenario, cfg), entry);
    }

    /// Evicts the entries whose scenario has been dropped and frees
    /// their plans after the lock is released. A caller that drops a
    /// scenario calls it to free that scenario's plans at once;
    /// otherwise they go at the next insert.
    pub fn evict_dropped(&self) {
        let dropped: Vec<Entry> = self
            .map()
            .extract_if(|_, e| e.scenario.strong_count() == 0)
            .map(|(_, e)| e)
            .collect();
        drop(dropped);
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
        assert_eq!(cache.stats().entries, 2);
    }

    #[test]
    fn configs_key_separately() {
        let cache = PlanCache::new();
        let s = Arc::new(mini_tv());
        for cfg in [BbConfig::conventional(), BbConfig::full()] {
            BootRequest::new(&s)
                .config(cfg)
                .plan_cache(&cache, &s)
                .run()
                .unwrap();
        }
        assert_eq!(cache.stats().entries, 2);
        assert_eq!(cache.stats().plans_compiled, 2);
    }

    /// Pins how runs share plans through one cache: after every step
    /// the (compiled, hits, entries) counters match, and every boot
    /// equals an uncached boot of its config. A tweaked plan is
    /// private: it is neither looked up nor published.
    #[test]
    fn runs_share_plans_through_one_cache_and_tweaked_plans_stay_private() {
        let cache = PlanCache::new();
        let s = Arc::new(mini_tv());
        let full = BbConfig::full();
        let cached = || BootRequest::new(&s).config(full).plan_cache(&cache, &s);
        let booted = |boot: crate::Boot, expected: (u64, u64, usize)| {
            let fresh = BootRequest::new(&s).config(full).run().unwrap().report;
            assert_eq!(boot.report.try_boot_time(), fresh.try_boot_time());
            assert_eq!(boot.report.quiesce_time, fresh.quiesce_time);
            let stats = cache.stats();
            assert_eq!((stats.plans_compiled, stats.hits, stats.entries), expected);
        };

        booted(cached().run().unwrap(), (1, 0, 1));
        booted(cached().run().unwrap(), (1, 1, 1));
        booted(cached().tweak(|_, _, _| {}).run().unwrap(), (1, 1, 1));
        booted(cached().run().unwrap(), (1, 2, 1));
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
        // So does an eviction, without an insert; a live scenario's
        // entry stays.
        let c = Arc::new(mini_tv());
        plan(&c);
        drop(b);
        cache.evict_dropped();
        assert_eq!(cache.stats().entries, 1);
        assert!(cache.lookup(&c, &BbConfig::full()).is_some());
    }
}
