//! `call_rcu`-style deferred callbacks: batch reclamation work behind a
//! single grace period.
//!
//! `RcuCell::update` waits one grace period per update. The kernel
//! instead queues reclamation with `call_rcu` and amortizes one grace
//! period over many callbacks — the boot-relevant pattern, since
//! boot-time code frees many short-lived configuration objects.
//! [`DeferQueue`] provides that: [`DeferQueue::defer`] enqueues work,
//! [`DeferQueue::flush`] waits a single grace period (using whatever
//! waiter strategy the domain currently has) and then runs everything
//! enqueued before the flush began.

use parking_lot::Mutex;

use crate::domain::RcuDomain;

/// Type-erased deferred work.
type Callback = Box<dyn FnOnce() + Send>;

/// A batched deferred-callback queue over an [`RcuDomain`].
pub struct DeferQueue<'d> {
    domain: &'d RcuDomain,
    pending: Mutex<Vec<Callback>>,
}

impl std::fmt::Debug for DeferQueue<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DeferQueue")
            .field("pending", &self.pending.lock().len())
            .finish()
    }
}

impl<'d> DeferQueue<'d> {
    /// Creates an empty queue over `domain`.
    pub fn new(domain: &'d RcuDomain) -> Self {
        DeferQueue {
            domain,
            pending: Mutex::new(Vec::new()),
        }
    }

    /// Enqueues work to run after the next flushed grace period.
    ///
    /// Safe to call concurrently from any thread, including from inside
    /// read-side critical sections (it never waits).
    pub fn defer(&self, f: impl FnOnce() + Send + 'static) {
        self.pending.lock().push(Box::new(f));
    }

    /// Number of callbacks waiting for a flush.
    pub fn pending(&self) -> usize {
        self.pending.lock().len()
    }

    /// Waits one grace period and runs every callback that was enqueued
    /// before the flush began. Returns how many ran.
    ///
    /// Callbacks enqueued concurrently with the flush land in the next
    /// batch (they may not be covered by this grace period).
    pub fn flush(&self) -> usize {
        let batch: Vec<Callback> = std::mem::take(&mut *self.pending.lock());
        if batch.is_empty() {
            return 0;
        }
        self.domain.synchronize();
        let n = batch.len();
        for cb in batch {
            cb();
        }
        n
    }
}

impl Drop for DeferQueue<'_> {
    /// Unflushed callbacks run on drop (after a final grace period), so
    /// deferred frees are never leaked.
    fn drop(&mut self) {
        self.flush();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::domain::WaitStrategy;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Arc;

    #[test]
    fn flush_runs_batch_after_one_grace_period() {
        let domain = RcuDomain::new(WaitStrategy::Boosted);
        let queue = DeferQueue::new(&domain);
        let counter = Arc::new(AtomicUsize::new(0));
        for _ in 0..10 {
            let c = Arc::clone(&counter);
            queue.defer(move || {
                c.fetch_add(1, Ordering::SeqCst);
            });
        }
        assert_eq!(queue.pending(), 10);
        assert_eq!(counter.load(Ordering::SeqCst), 0);
        let before = domain.stats().grace_periods;
        assert_eq!(queue.flush(), 10);
        assert_eq!(counter.load(Ordering::SeqCst), 10);
        // One grace period amortized over the whole batch.
        assert_eq!(domain.stats().grace_periods, before + 1);
        assert_eq!(queue.flush(), 0);
    }

    #[test]
    fn empty_flush_skips_the_grace_period() {
        let domain = RcuDomain::new(WaitStrategy::ClassicSpin);
        let queue = DeferQueue::new(&domain);
        assert_eq!(queue.flush(), 0);
        assert_eq!(domain.stats().grace_periods, 0);
    }

    #[test]
    fn drop_flushes_leftovers() {
        let domain = RcuDomain::new(WaitStrategy::Boosted);
        let counter = Arc::new(AtomicUsize::new(0));
        {
            let queue = DeferQueue::new(&domain);
            let c = Arc::clone(&counter);
            queue.defer(move || {
                c.fetch_add(1, Ordering::SeqCst);
            });
        }
        assert_eq!(counter.load(Ordering::SeqCst), 1);
    }

    #[test]
    fn concurrent_deferers_all_run() {
        let domain = RcuDomain::new(WaitStrategy::Boosted);
        let queue = DeferQueue::new(&domain);
        let counter = Arc::new(AtomicUsize::new(0));
        std::thread::scope(|scope| {
            for _ in 0..8 {
                let queue = &queue;
                let counter = Arc::clone(&counter);
                scope.spawn(move || {
                    for _ in 0..100 {
                        let c = Arc::clone(&counter);
                        queue.defer(move || {
                            c.fetch_add(1, Ordering::SeqCst);
                        });
                    }
                });
            }
        });
        assert_eq!(queue.pending(), 800);
        assert_eq!(queue.flush(), 800);
        assert_eq!(counter.load(Ordering::SeqCst), 800);
    }

    #[test]
    fn readers_do_not_block_defer() {
        // defer() inside a read-side critical section must not deadlock
        // (it never synchronizes).
        let domain = RcuDomain::new(WaitStrategy::ClassicSpin);
        let queue = DeferQueue::new(&domain);
        let handle = domain.register_reader();
        {
            let _g = handle.read_lock();
            queue.defer(|| {});
            assert_eq!(queue.pending(), 1);
        }
        assert_eq!(queue.flush(), 1);
    }
}
