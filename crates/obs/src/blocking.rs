//! Online replication of `pfair-analysis::blocking::detect_blocking`.
//!
//! The detector walks each wait's window. A blocker of the wait `(r, s]`
//! satisfies `start < s` and `start + cost > r`, so with `c_max` the
//! largest cost seen it starts in `(r − c_max, s)`. Event times are
//! nondecreasing, so the retained history is sorted by start and the
//! window is found by binary search: each dispatch costs
//! O(log P + window size) for P quanta seen, about `m·(s − r + c_max)`
//! candidates, instead of a scan of the whole history. The post-hoc
//! search walks the same window, but only for the waits a rank sweep
//! over the finished schedule has already found to be inversions; a
//! stream has no finished schedule to rank, so every wait here is walked.
//!
//! The priority test is a [`StrictKeys`] column kept entry for entry with
//! the history, so under PD², EPDF and PD each candidate costs one
//! strict-key compare instead of a comparator call.
//! Like the post-hoc search on its tick grid, the observer keeps its
//! history, completions and `c_max` in ticks, at [`pfair_numeric::GRID`],
//! so its window bounds and completion tests are integer compares; a
//! stream that leaves the grid moves them to exact rationals (a
//! [`pfair_numeric::Tiered`] switch).

use core::ops::ControlFlow;

use crate::{InversionKind, NoopObserver, Observer, SchedEvent};
use pfair_core::{PriorityOrder, StrictKeys};
use pfair_numeric::{on_tier_or_exact, Exact, Lift, Rat, Ticks, Tier, Tiered, Time, GRID};
use pfair_taskmodel::{Subtask, SubtaskRef, TaskSystem};

/// One detected priority inversion, in `SubtaskRef` terms for direct
/// comparison with the post-hoc `BlockingEvent`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct BlockingRecord {
    /// The blocked subtask.
    pub victim: SubtaskRef,
    /// When it became ready (`max(eligibility, predecessor completion)`).
    pub ready_at: Time,
    /// When it was dispatched.
    pub scheduled_at: Time,
    /// Eligibility (EB) or predecessor (PB) blocking.
    pub kind: InversionKind,
    /// Lower-priority subtasks whose quanta overlap the wait, in
    /// `(start, proc)` order.
    pub blockers: Vec<SubtaskRef>,
}

impl BlockingRecord {
    /// How long the victim waited past its ready time.
    #[must_use]
    pub fn duration(&self) -> Rat {
        self.scheduled_at - self.ready_at
    }
}

/// Detects eligibility/predecessor blocking (§3 of the paper) online, at
/// each dispatch, using the same predicate as the post-hoc
/// `detect_blocking`: the victim was dispatched strictly after its ready
/// time while strictly-lower-priority quanta that started earlier were
/// still running past that ready time.
///
/// Wraps an inner observer; every event is forwarded, and a
/// [`SchedEvent::Blocked`] is *generated* for the inner observer whenever
/// an inversion is found (this is how [`crate::MetricsObserver`] learns its
/// blocking counts).
///
/// Placement history is kept for the whole run, so memory is
/// O(placements), like the schedule itself; each dispatch searches only
/// the window described in the module docs. Pruning the history soundly
/// would need the live ready set, so it is not done.
///
/// Must observe a run from its beginning: predecessor completions are
/// learned from their `QuantumStart` events.
pub struct BlockingObserver<'a, Inner: Observer = NoopObserver> {
    sys: &'a TaskSystem,
    inner: Inner,
    history: Tiered<History<Ticks>>,
    /// The strict-priority keys of the history's subtasks under the
    /// detector's order, entry for entry.
    keys: StrictKeys<'a>,
    records: Vec<BlockingRecord>,
}

/// Every quantum seen, in tier `K`.
#[derive(Clone, Debug)]
struct History<K: Tier> {
    tier: K,
    /// Each dispatched subtask's completion.
    completion_of: Vec<Option<K::T>>,
    /// `(start, proc, subtask, completion)` for every quantum seen, in
    /// start order.
    placements: Vec<(K::T, u32, SubtaskRef, K::T)>,
    /// The largest cost in `placements`.
    c_max: K::T,
}

/// An inversion found at a dispatch: the victim's ready time, the kind,
/// and the blockers in `(start, proc)` order.
type Found = (Time, InversionKind, Vec<SubtaskRef>);

impl<K: Tier> History<K> {
    /// Records the dispatch of `st` (`sub`) on `proc` at `start` for
    /// `cost`, and returns the inversion it ends, if any; `None` (and no
    /// change) if a time is off the tier.
    fn record_start(
        &mut self,
        keys: &StrictKeys<'_>,
        (st, sub): (SubtaskRef, &Subtask),
        proc: u32,
        start: Rat,
        cost: Rat,
    ) -> Option<Option<Found>> {
        let tier = &self.tier;
        let scheduled_at = tier.from_rat(start)?;
        let cost = tier.from_rat(cost)?;
        let completion = tier.add(scheduled_at, cost)?;
        let eligible = tier.int(sub.eligible)?;
        let ready_at = match sub.pred {
            Some(p) => self.completion_of[p.idx()]
                .expect("predecessor dispatched before the observer attached")
                .max(eligible),
            None => eligible,
        };
        let mut found = None;
        if scheduled_at > ready_at {
            // Same predicate and window as detect_blocking. Event times
            // are nondecreasing, so every quantum with an earlier start is
            // already in `placements`; same-instant starts fall outside the
            // window's strict upper bound. Quanta starting after `ready_at`
            // overlap the wait by construction.
            let history = &self.placements;
            let reach = ready_at - self.c_max;
            let lo = history.partition_point(|p| p.0 <= reach);
            let mid = lo + history[lo..].partition_point(|p| p.0 <= ready_at);
            let hi = mid + history[mid..].partition_point(|p| p.0 < scheduled_at);
            let candidates = (lo..mid)
                .filter(|&i| history[i].3 > ready_at)
                .chain(mid..hi);
            let mut blockers: Vec<(K::T, u32, SubtaskRef)> = Vec::new();
            keys.for_each_lower(st, candidates, |i| {
                let (p_start, p_proc, p_st, _) = history[i];
                blockers.push((p_start, p_proc, p_st));
                ControlFlow::Continue(())
            });
            if !blockers.is_empty() {
                // detect_blocking walks placements in (start, proc) order;
                // our event order can interleave processors within a batch.
                blockers.sort_unstable_by_key(|&(s, p, _)| (s, p));
                let kind = if ready_at == eligible {
                    InversionKind::Eligibility
                } else {
                    InversionKind::Predecessor
                };
                found = Some((
                    tier.to_rat(ready_at),
                    kind,
                    blockers.iter().map(|&(_, _, p_st)| p_st).collect(),
                ));
            }
        }
        debug_assert!(
            self.placements.last().is_none_or(|p| p.0 <= scheduled_at),
            "QuantumStart times must be nondecreasing"
        );
        self.completion_of[st.idx()] = Some(completion);
        self.c_max = self.c_max.max(cost);
        self.placements.push((scheduled_at, proc, st, completion));
        Some(found)
    }
}

impl<K: Tier> Lift for History<K> {
    type Exact = History<Exact>;

    fn to_exact(&self) -> History<Exact> {
        let rat = |t| self.tier.to_rat(t);
        History {
            tier: Exact,
            completion_of: self.completion_of.iter().map(|c| c.map(rat)).collect(),
            placements: self
                .placements
                .iter()
                .map(|&(s, p, st, c)| (rat(s), p, st, rat(c)))
                .collect(),
            c_max: rat(self.c_max),
        }
    }
}

impl<'a> BlockingObserver<'a, NoopObserver> {
    /// A standalone blocking detector for `sys` under `order`.
    #[must_use]
    pub fn new(sys: &'a TaskSystem, order: &'a dyn PriorityOrder) -> Self {
        Self::with_inner(sys, order, NoopObserver)
    }
}

impl<'a, Inner: Observer> BlockingObserver<'a, Inner> {
    /// A blocking detector that forwards all events (plus generated
    /// `Blocked` events) to `inner`.
    #[must_use]
    pub fn with_inner(sys: &'a TaskSystem, order: &'a dyn PriorityOrder, inner: Inner) -> Self {
        BlockingObserver {
            sys,
            inner,
            history: Tiered::Ticks(History {
                completion_of: vec![None; sys.num_subtasks()],
                placements: Vec::new(),
                c_max: GRID.int(0).expect("time zero is representable"),
                tier: GRID,
            }),
            keys: StrictKeys::new(sys, order),
            records: Vec::new(),
        }
    }

    /// The inversions recorded so far, in dispatch order.
    #[must_use]
    pub fn records(&self) -> &[BlockingRecord] {
        &self.records
    }

    /// The wrapped observer.
    #[must_use]
    pub fn inner(&self) -> &Inner {
        &self.inner
    }

    /// Consumes the detector, returning the records sorted by victim (the
    /// order `detect_blocking` reports, since each subtask is dispatched
    /// once) and the inner observer.
    #[must_use]
    pub fn into_parts(self) -> (Vec<BlockingRecord>, Inner) {
        let mut records = self.records;
        records.sort_by_key(|r| r.victim.idx());
        (records, self.inner)
    }
}

impl<Inner: Observer> Observer for BlockingObserver<'_, Inner> {
    fn on_event(&mut self, ev: &SchedEvent) {
        if Inner::ENABLED {
            self.inner.on_event(ev);
        }
        let SchedEvent::QuantumStart {
            id,
            proc,
            start,
            cost,
            ..
        } = ev
        else {
            return;
        };
        let st = self
            .sys
            .find(*id)
            .expect("BlockingObserver saw a subtask outside its system");
        let sub = self.sys.subtask(st);
        let keys = &self.keys;
        let found = on_tier_or_exact!(self.history, |h| h.record_start(
            keys,
            (st, sub),
            *proc,
            *start,
            *cost
        ));
        if let Some((ready_at, kind, blockers)) = found {
            if Inner::ENABLED {
                self.inner.on_event(&SchedEvent::Blocked {
                    victim: *id,
                    ready_at,
                    scheduled_at: *start,
                    kind,
                    blockers: blockers.iter().map(|&r| self.sys.subtask(r).id).collect(),
                });
            }
            self.records.push(BlockingRecord {
                victim: st,
                ready_at,
                scheduled_at: *start,
                kind,
                blockers,
            });
        }
        self.keys.push(st);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fixture::{dvq_stream, grid_cost};
    use pfair_core::Pd2;
    use pfair_taskmodel::release;

    /// `events` through a fresh detector, on exact rationals from the
    /// start with `exact`.
    fn run<'a>(sys: &'a TaskSystem, events: &[SchedEvent], exact: bool) -> BlockingObserver<'a> {
        let mut blocking = BlockingObserver::new(sys, &Pd2);
        if exact {
            blocking.history.go_exact();
        }
        for ev in events {
            blocking.on_event(ev);
        }
        blocking
    }

    #[test]
    fn grid_streams_stay_on_ticks() {
        let sys = release::periodic(&[(1, 2), (2, 3), (1, 3), (3, 4), (1, 6)], 24);
        let events = dvq_stream(&sys, 3, grid_cost(usize::MAX));
        let (ticks, exact) = (run(&sys, &events, false), run(&sys, &events, true));
        assert!(ticks.history.on_ticks(), "a GRID stream left the ticks");
        assert_eq!(ticks.records(), exact.records());
        assert!(!ticks.records().is_empty(), "the stream has no inversion");
    }

    #[test]
    fn leaving_the_grid_mid_run_moves_to_exact() {
        let sys = release::periodic(&[(1, 2), (2, 3), (1, 3), (3, 4), (1, 6)], 24);
        let events = dvq_stream(&sys, 3, grid_cost(20));
        let (moved, exact) = (run(&sys, &events, false), run(&sys, &events, true));
        assert!(!moved.history.on_ticks());
        assert_eq!(moved.records(), exact.records());
        assert!(moved.records().iter().any(|r| !r.scheduled_at.is_integer()));
    }
}
