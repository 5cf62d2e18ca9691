//! Streaming exact-rational LAG accounting (Lemma 1 of the paper).

use crate::{Observer, SchedEvent};
use pfair_numeric::{Rat, Time};
use pfair_taskmodel::TaskSystem;

/// Streams the system-wide lag `LAG(τ, t)` at every integral slot, with
/// state proportional to the number of *active* windows and in-flight
/// quanta instead of the whole trace.
///
/// Replicates the post-hoc sweep `pfair_analysis::lag::lag_series` (and so
/// the definitions `total_lag` and `max_lag_over_slots`) exactly, with the
/// same state. The two are written separately on purpose: the conformance
/// invariant `streaming-posthoc-agreement` compares them on every fuzz
/// case. The ideal allocation of a window `[r, d)` at integral `t` is
/// `1` once `t ≥ d`, `(t − r)/(d − r)` while `r < t < d`, and `0` before;
/// the received allocation of a quantum is `1` once `t ≥ completion` and
/// `(t − start)/cost` while `start < t < completion`. Exact `Rat`
/// arithmetic makes summation order irrelevant, so the streaming totals are
/// equal — not approximately equal — to the post-hoc ones
/// (`tests/observer_equivalence.rs`).
///
/// A slot `s` is evaluated as soon as an event with time strictly greater
/// than `s` arrives (events are nondecreasing in time, so everything at or
/// before `s` has been applied by then); call [`LagObserver::finish`] to
/// evaluate the remaining slots up to a horizon once the run ends.
#[derive(Clone, Debug)]
pub struct LagObserver {
    /// All subtask windows `(release, deadline)`, sorted by release.
    windows: Vec<(i64, i64)>,
    cursor: usize,
    /// Windows with `release < next_slot` not yet fully in the past.
    active: Vec<(i64, i64)>,
    /// Count of windows whose deadline has passed (each contributes 1).
    ideal_done: i64,
    /// In-flight quanta `(start, cost, completion)`.
    inflight: Vec<(Time, Rat, Time)>,
    /// Count of completed quanta (each contributes 1).
    recv_done: i64,
    next_slot: i64,
    series: Vec<(i64, Rat)>,
}

impl LagObserver {
    /// A lag accountant for `sys` (copies the window list; the observer
    /// does not borrow the system).
    #[must_use]
    pub fn new(sys: &TaskSystem) -> Self {
        let mut windows: Vec<(i64, i64)> = sys
            .subtasks()
            .iter()
            .map(|s| (s.release, s.deadline))
            .collect();
        windows.sort_unstable();
        LagObserver {
            windows,
            cursor: 0,
            active: Vec::new(),
            ideal_done: 0,
            inflight: Vec::new(),
            recv_done: 0,
            next_slot: 0,
            series: Vec::new(),
        }
    }

    fn eval(&mut self, s: i64) {
        let sr = Rat::int(s);
        while self.cursor < self.windows.len() && self.windows[self.cursor].0 < s {
            self.active.push(self.windows[self.cursor]);
            self.cursor += 1;
        }
        let mut promoted = 0;
        self.active.retain(|&(_, d)| {
            if d <= s {
                promoted += 1;
                false
            } else {
                true
            }
        });
        self.ideal_done += promoted;
        let mut ideal = Rat::int(self.ideal_done);
        for &(r, d) in &self.active {
            ideal += Rat::new(s - r, d - r);
        }

        let mut completed = 0;
        self.inflight.retain(|&(_, _, completion)| {
            if completion <= sr {
                completed += 1;
                false
            } else {
                true
            }
        });
        self.recv_done += completed;
        let mut received = Rat::int(self.recv_done);
        for &(start, cost, _) in &self.inflight {
            if sr > start {
                received += (sr - start) / cost;
            }
        }

        self.series.push((s, ideal - received));
    }

    /// Evaluates all remaining slots through `horizon` inclusive. Call once
    /// after the run; further events must not arrive at or before `horizon`.
    pub fn finish(&mut self, horizon: i64) {
        while self.next_slot <= horizon {
            let s = self.next_slot;
            self.next_slot += 1;
            self.eval(s);
        }
    }

    /// The per-slot series `(t, LAG(τ, t))` evaluated so far.
    #[must_use]
    pub fn series(&self) -> &[(i64, Rat)] {
        &self.series
    }

    /// The maximum LAG over all evaluated slots (`Rat::ZERO` if none),
    /// matching `max_lag_over_slots` when finished to the same horizon.
    #[must_use]
    pub fn max_lag(&self) -> Rat {
        let mut it = self.series.iter().map(|&(_, l)| l);
        match it.next() {
            None => Rat::ZERO,
            Some(first) => it.fold(first, Rat::max),
        }
    }
}

impl Observer for LagObserver {
    fn on_event(&mut self, ev: &SchedEvent) {
        // Evaluate every pending slot strictly before this event's time:
        // all events at or before those slots have already been applied,
        // and this event (time > s) cannot affect them.
        let Some(t) = ev.time() else { return };
        while Rat::int(self.next_slot) < t {
            let s = self.next_slot;
            self.next_slot += 1;
            self.eval(s);
        }
        if let SchedEvent::QuantumStart { start, cost, .. } = ev {
            self.inflight.push((*start, *cost, *start + *cost));
        }
    }
}
