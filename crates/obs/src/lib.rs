//! # pfair-obs — streaming observability for the simulators
//!
//! Everything the paper's theorems quantify — lag/LAG (Lemma 1), eligibility
//! and predecessor blocking (§3, Figs 2–3), tardiness (Eq. (7)) — was
//! previously computed *post-hoc* by `pfair-analysis` over a finished
//! [`Schedule`](../pfair_sim/schedule/struct.Schedule.html). This crate adds
//! a streaming probe layer: the simulators emit structured [`SchedEvent`]s
//! through an [`Observer`] generic, and built-in observers reconstruct the
//! same quantities online, event by event.
//!
//! ## Zero-overhead dispatch
//!
//! The observer parameter is *statically* dispatched. [`NoopObserver`] sets
//! [`Observer::ENABLED`] to `false`; every emission site in the simulators is
//! guarded by `if O::ENABLED`, a compile-time constant, so the unobserved hot
//! path monomorphizes to the pre-observability code (verified by the
//! `observability` bench group; see `BENCH_observability.json`).
//!
//! ## Built-in observers
//!
//! * [`MetricsObserver`] — counters and histograms: tardiness, blocking
//!   counts by kind, per-processor busy/idle/waste, context switches.
//! * [`LagObserver`] — exact rational total lag (LAG) at every integral
//!   slot, streamed with O(active windows) state instead of O(trace), and
//!   one reduction per slot.
//! * [`BlockingObserver`] — online replication of
//!   `pfair-analysis::blocking::detect_blocking`, emitting
//!   [`SchedEvent::Blocked`] to an inner observer as inversions form.
//! * [`JsonlObserver`] — serializes every event to a JSON line, for
//!   `pfairsim run --events <path>`.
//!
//! Observers compose: a tuple `(A, B)` fans every event out to both, and
//! `BlockingObserver` additionally *generates* `Blocked` events for its
//! inner observer (that is how `MetricsObserver` learns blocking counts).
//!
//! ## Time tiers
//!
//! Events carry `Rat` times, but the Metrics, Lag and Blocking observers
//! keep their time-valued state in `i64` ticks at
//! [`pfair_numeric::GRID`] (720720 per quantum, the workload generators'
//! cost grid), so their sums and compares are integer operations. Each
//! observer's state is written once over [`pfair_numeric::Tier`] and held
//! in a [`pfair_numeric::Tiered`], the switch the DVQ kernel's clock uses:
//! the first event time off that grid moves the state to exact `Rat`s
//! without loss. The accessors return the same `Rat`s on either tier.
//!
//! The streaming implementations are proven exactly equivalent (rational
//! equality, not float) to the post-hoc analyses by
//! `tests/observer_equivalence.rs` and conformance invariant #12.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod blocking;
pub mod event;
#[cfg(test)]
mod fixture;
pub mod jsonl;
pub mod lag;
pub mod metrics;

pub use blocking::{BlockingObserver, BlockingRecord};
pub use event::{InversionKind, ReadyCause, SchedEvent};
pub use jsonl::JsonlObserver;
pub use lag::LagObserver;
pub use metrics::{MetricsObserver, DEFAULT_BUCKETS};

/// A sink for scheduler events, statically dispatched.
///
/// Simulator hooks are generic over `O: Observer` and guard every emission
/// site with `if O::ENABLED` — a compile-time constant — so a disabled
/// observer ([`NoopObserver`]) erases the entire instrumentation at
/// monomorphization time.
pub trait Observer {
    /// Whether emission sites should be compiled in. Leave `true` (the
    /// default) for any observer that looks at events.
    const ENABLED: bool = true;

    /// Receives one event. Events arrive with nondecreasing
    /// [`SchedEvent::time`] (the `Released` input-side event excepted).
    fn on_event(&mut self, ev: &SchedEvent);
}

/// The do-nothing observer: disables instrumentation at compile time.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct NoopObserver;

impl Observer for NoopObserver {
    const ENABLED: bool = false;

    #[inline(always)]
    fn on_event(&mut self, _ev: &SchedEvent) {}
}

/// An observer that records every event verbatim, in arrival order.
///
/// This is how `pfair-runtime` turns a real multi-threaded execution into
/// a first-class artifact: the recorded stream is replayed through
/// `pfair-sim`'s `replay_events` into a `Schedule` the conformance bank
/// can judge. It also serves any test that wants to assert on an exact
/// event sequence.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct RecordingObserver {
    events: Vec<SchedEvent>,
}

impl RecordingObserver {
    /// An empty recorder.
    #[must_use]
    pub fn new() -> RecordingObserver {
        RecordingObserver::default()
    }

    /// The recorded events so far, in arrival order.
    #[must_use]
    pub fn events(&self) -> &[SchedEvent] {
        &self.events
    }

    /// Consumes the recorder, yielding the recorded events.
    #[must_use]
    pub fn into_events(self) -> Vec<SchedEvent> {
        self.events
    }
}

impl Observer for RecordingObserver {
    fn on_event(&mut self, ev: &SchedEvent) {
        self.events.push(ev.clone());
    }
}

impl<O: Observer> Observer for &mut O {
    const ENABLED: bool = O::ENABLED;

    #[inline]
    fn on_event(&mut self, ev: &SchedEvent) {
        (**self).on_event(ev);
    }
}

/// Fan-out composition: both halves see every event, in tuple order.
impl<A: Observer, B: Observer> Observer for (A, B) {
    const ENABLED: bool = A::ENABLED || B::ENABLED;

    #[inline]
    fn on_event(&mut self, ev: &SchedEvent) {
        self.0.on_event(ev);
        self.1.on_event(ev);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pfair_numeric::Time;

    /// An observer that counts events, for composition tests.
    struct Counter(usize);
    impl Observer for Counter {
        fn on_event(&mut self, _ev: &SchedEvent) {
            self.0 += 1;
        }
    }

    #[test]
    #[allow(clippy::assertions_on_constants)] // the constants ARE the contract
    fn enabled_flags_compose() {
        assert!(!NoopObserver::ENABLED);
        assert!(Counter::ENABLED);
        assert!(!<(NoopObserver, NoopObserver)>::ENABLED);
        assert!(<(NoopObserver, Counter)>::ENABLED);
        assert!(<&mut Counter>::ENABLED);
        assert!(!<&mut NoopObserver>::ENABLED);
    }

    #[test]
    fn tuple_fans_out() {
        let mut pair = (Counter(0), Counter(0));
        let ev = SchedEvent::Tick { at: Time::ZERO };
        pair.on_event(&ev);
        pair.on_event(&ev);
        assert_eq!((pair.0 .0, pair.1 .0), (2, 2));
    }
}
