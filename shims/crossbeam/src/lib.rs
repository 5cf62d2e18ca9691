//! Offline stand-in for `crossbeam`.
//!
//! [`scope`] delegates to `std::thread::scope`, which has subsumed
//! crossbeam's implementation since Rust 1.63. [`queue::ArrayQueue`]
//! grew with `pfair-runtime`: the delegation lock's per-worker request
//! slots need a bounded MPMC queue. The shim keeps crossbeam's API
//! (`push` hands the value back on a full queue) but backs it with a
//! mutexed ring — the workspace forbids `unsafe`, so the lock-free
//! original is out of reach; FIFO-per-producer and drop behaviour are
//! identical and covered by tests below.

#![forbid(unsafe_code)]

use std::any::Any;

pub mod queue {
    //! Bounded queue subset of `crossbeam-queue`.

    use std::collections::VecDeque;
    use std::sync::Mutex;

    /// A bounded multi-producer multi-consumer FIFO queue.
    #[derive(Debug)]
    pub struct ArrayQueue<T> {
        inner: Mutex<VecDeque<T>>,
        cap: usize,
    }

    impl<T> ArrayQueue<T> {
        /// Creates a queue holding at most `cap` elements.
        ///
        /// # Panics
        /// Panics if `cap` is zero, matching crossbeam.
        pub fn new(cap: usize) -> ArrayQueue<T> {
            assert!(cap > 0, "capacity must be non-zero");
            ArrayQueue {
                inner: Mutex::new(VecDeque::with_capacity(cap)),
                cap,
            }
        }

        /// Appends `value`; on a full queue the value comes back as
        /// `Err` so the caller can retry or drop it deliberately.
        pub fn push(&self, value: T) -> Result<(), T> {
            let mut q = self
                .inner
                .lock()
                .unwrap_or_else(std::sync::PoisonError::into_inner);
            if q.len() == self.cap {
                Err(value)
            } else {
                q.push_back(value);
                Ok(())
            }
        }

        /// Removes and returns the oldest element, or `None` when empty.
        pub fn pop(&self) -> Option<T> {
            self.inner
                .lock()
                .unwrap_or_else(std::sync::PoisonError::into_inner)
                .pop_front()
        }

        /// Number of elements currently queued.
        pub fn len(&self) -> usize {
            self.inner
                .lock()
                .unwrap_or_else(std::sync::PoisonError::into_inner)
                .len()
        }

        /// `true` when no elements are queued.
        pub fn is_empty(&self) -> bool {
            self.len() == 0
        }

        /// The fixed capacity given at construction.
        pub fn capacity(&self) -> usize {
            self.cap
        }
    }
}

/// A scope handle passed to [`scope`]'s closure and to each spawned
/// thread's closure (crossbeam passes the scope again so spawned threads
/// can spawn).
pub struct Scope<'scope, 'env: 'scope> {
    inner: &'scope std::thread::Scope<'scope, 'env>,
}

impl<'scope, 'env> Scope<'scope, 'env> {
    /// Spawns a scoped thread; the closure receives the scope (unused by
    /// most callers, hence commonly `|_|`).
    pub fn spawn<F, T>(&self, f: F)
    where
        F: FnOnce(&Scope<'scope, 'env>) -> T + Send + 'scope,
        T: Send + 'scope,
    {
        let reborrowed = Scope { inner: self.inner };
        self.inner.spawn(move || f(&reborrowed));
    }
}

/// Runs `f` with a scope in which borrowing threads can be spawned; joins
/// them all before returning.
///
/// # Errors
/// Mirrors crossbeam's signature. `std::thread::scope` propagates child
/// panics by resuming them on the calling thread, so the `Err` arm is
/// never constructed here; callers' `.expect(..)` behaves equivalently
/// (the process still dies with the panic payload).
#[allow(clippy::missing_panics_doc)]
pub fn scope<'env, F, R>(f: F) -> Result<R, Box<dyn Any + Send + 'static>>
where
    F: for<'scope> FnOnce(&Scope<'scope, 'env>) -> R,
{
    Ok(std::thread::scope(|s| f(&Scope { inner: s })))
}

#[cfg(test)]
mod tests {
    use super::queue::ArrayQueue;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Arc;

    #[test]
    fn bounded_push_pop_semantics() {
        let q = ArrayQueue::new(2);
        assert_eq!(q.capacity(), 2);
        assert!(q.is_empty());
        assert_eq!(q.push(1), Ok(()));
        assert_eq!(q.push(2), Ok(()));
        assert_eq!(q.push(3), Err(3), "full queue hands the value back");
        assert_eq!(q.len(), 2);
        assert_eq!(q.pop(), Some(1));
        assert_eq!(q.pop(), Some(2));
        assert_eq!(q.pop(), None);
    }

    #[test]
    #[should_panic(expected = "capacity must be non-zero")]
    fn zero_capacity_rejected() {
        let _ = ArrayQueue::<u8>::new(0);
    }

    /// Satellite obligation: FIFO per producer. Each producer pushes a
    /// strictly increasing sequence tagged with its id; consumers drain
    /// concurrently. Whatever the global interleaving, each producer's
    /// items must come out in the order that producer pushed them.
    #[test]
    fn fifo_per_producer_under_contention() {
        const PRODUCERS: usize = 4;
        const CONSUMERS: usize = 3;
        const PER_PRODUCER: usize = 500;

        let q = Arc::new(ArrayQueue::new(64));
        let popped = Arc::new(std::sync::Mutex::new(Vec::new()));
        // Items popped by any consumer so far: every consumer stops once
        // the whole stream is out, whichever consumers took it.
        let taken = Arc::new(AtomicUsize::new(0));

        std::thread::scope(|s| {
            for producer in 0..PRODUCERS {
                let q = Arc::clone(&q);
                s.spawn(move || {
                    for seq in 0..PER_PRODUCER {
                        let mut item = (producer, seq);
                        while let Err(back) = q.push(item) {
                            item = back;
                            std::thread::yield_now();
                        }
                    }
                });
            }
            for _ in 0..CONSUMERS {
                let q = Arc::clone(&q);
                let popped = Arc::clone(&popped);
                let taken = Arc::clone(&taken);
                s.spawn(move || {
                    let mut local = Vec::new();
                    loop {
                        match q.pop() {
                            Some(item) => {
                                local.push(item);
                                taken.fetch_add(1, Ordering::SeqCst);
                            }
                            None => {
                                if taken.load(Ordering::SeqCst) >= PRODUCERS * PER_PRODUCER {
                                    break;
                                }
                                std::thread::yield_now();
                            }
                        }
                    }
                    popped.lock().unwrap().push(local);
                });
            }
        });

        let batches = popped.lock().unwrap();
        let mut all: Vec<(usize, usize)> = batches.iter().flatten().copied().collect();
        assert_eq!(all.len(), PRODUCERS * PER_PRODUCER, "no item lost");
        // Per consumer, a producer's items appear in push order; the
        // cross-consumer merge can interleave, so check the multiset and
        // the per-batch monotonicity rather than one global order.
        for batch in batches.iter() {
            let mut last_seq = [None; PRODUCERS];
            for &(producer, seq) in batch {
                if let Some(prev) = last_seq[producer] {
                    assert!(
                        seq > prev,
                        "producer {producer} reordered: {prev} then {seq}"
                    );
                }
                last_seq[producer] = Some(seq);
            }
        }
        all.sort_unstable();
        let expect: Vec<(usize, usize)> = (0..PRODUCERS)
            .flat_map(|p| (0..PER_PRODUCER).map(move |s| (p, s)))
            .collect();
        assert_eq!(all, expect, "every pushed item popped exactly once");
    }

    /// Satellite obligation: drop-safety. Items still queued when the
    /// queue is dropped must themselves be dropped — an `Arc` clone per
    /// item makes leaks visible as a strong-count residue.
    #[test]
    fn dropping_queue_drops_queued_items() {
        let tracker = Arc::new(AtomicUsize::new(0));
        struct Tracked(Arc<AtomicUsize>);
        impl Drop for Tracked {
            fn drop(&mut self) {
                self.0.fetch_add(1, Ordering::SeqCst);
            }
        }

        let q = ArrayQueue::new(8);
        for _ in 0..5 {
            assert!(q.push(Tracked(Arc::clone(&tracker))).is_ok());
        }
        drop(q.pop());
        assert_eq!(tracker.load(Ordering::SeqCst), 1);
        drop(q);
        assert_eq!(tracker.load(Ordering::SeqCst), 5, "queued items leaked");
        assert_eq!(Arc::strong_count(&tracker), 1);
    }
}
