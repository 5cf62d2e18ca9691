//! The DVQ model: desynchronized, variable-sized quanta (§3).
//!
//! The DVQ model is the work-conserving relaxation of SFQ: "if a task
//! yields before executing for a full quantum, then a new quantum begins on
//! the associated processor immediately". Scheduling decisions therefore
//! happen at arbitrary rational times, independently per processor, and the
//! paper's two priority inversions arise naturally:
//!
//! * a processor freeing at `t − δ` is handed to a lower-priority subtask
//!   because the higher-priority one only becomes eligible at `t`
//!   (*eligibility blocking*);
//! * a subtask whose predecessor runs up to `t` watches an early-freed
//!   processor go to lower-priority work, and at `t` loses its
//!   predecessor's processor to a newly-eligible subtask
//!   (*predecessor blocking*).
//!
//! # Mechanics
//!
//! Event-driven simulation over exact rational times:
//!
//! * `Activate(st)` events fire when a subtask becomes *ready* — at
//!   `max(e(T_i), completion of predecessor)`;
//! * `ProcFree(k)` events fire when a quantum completes.
//!
//! All events at the same instant are drained before any assignment; then
//! free processors (ascending index) are matched with ready subtasks in
//! priority order. A subtask scheduled at time `τ` with actual cost `c`
//! completes at `τ + c` and its processor is immediately reusable — no
//! holds, no waste.
//!
//! # The two time tiers
//!
//! The loop is written once, generic over a [`Tier`]. When the cost model
//! publishes a denominator hint
//! ([`crate::cost::CostModel::denominator_hint`]) and the run's event span
//! fits `i64` ticks at that scale, the loop runs on [`Ticks`]: event times
//! are `i64` tick counts, heap entries are packed `u128` keys, and rational
//! arithmetic disappears from the hot path. The first cost off the hinted
//! grid triggers a mid-batch **bail**: the loop converts its whole state to
//! exact [`Rat`]s — losslessly, a tick count *is* a rational — and resumes
//! on [`Exact`] at the same instant with the already drawn cost, so RNG
//! streams, observer streams, and schedules are bit-identical down both
//! tiers (see `tick_times_match_exact_times` and
//! `tests/keyed_equivalence.rs`). The bail contract that makes this hold
//! is stated on `assign_batch`.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use pfair_core::priority::PriorityOrder;
use pfair_numeric::{Exact, Rat, Ticks, Tier};
use pfair_obs::{NoopObserver, Observer, ReadyCause, SchedEvent};
use pfair_taskmodel::{SubtaskRef, TaskSystem};

use crate::cost::{checked_cost, CostModel};
use crate::emit::{emit_end, flush_ends};
use crate::ready::{with_ready_set, ReadySet};
use crate::schedule::{Placement, QuantumModel, Schedule};

/// Event payloads, ordered so simultaneous batches drain deterministically.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
enum Event {
    /// A processor completed its quantum.
    ProcFree(u32),
    /// A subtask became ready.
    Activate(SubtaskRef),
}

impl Event {
    /// The 64-bit payload code for [`Tier::key`]. Code order
    /// equals the derived `Ord` above: all `ProcFree` codes (`< 2^32`,
    /// ascending by processor) sort before all `Activate` codes
    /// (`2^32 | subtask`, ascending by subtask).
    fn code(self) -> u64 {
        match self {
            Event::ProcFree(k) => u64::from(k),
            Event::Activate(st) => (1 << 32) | u64::from(st.0),
        }
    }

    /// Inverse of [`Event::code`].
    fn from_code(code: u64) -> Event {
        #[allow(clippy::cast_possible_truncation)]
        let payload = code as u32;
        if code >> 32 == 0 {
            Event::ProcFree(payload)
        } else {
            Event::Activate(SubtaskRef(payload))
        }
    }
}

/// Simulates `sys` on `m` processors under the DVQ model with priority
/// order `order` (the paper analyzes PD²-DVQ; any order is accepted so the
/// EPDF comparison of experiment E4 reuses this driver).
///
/// Dispatches on [`PriorityOrder::key_dispatch`]: orders with a
/// precomputed-key type (EPDF, PD², PD) run the event loop over a
/// deadline-bucketed key queue; others fall back to the comparator scan.
/// The schedule is identical either way.
///
/// Runs until every released subtask has been scheduled and completed.
#[must_use]
pub fn simulate_dvq(
    sys: &TaskSystem,
    m: u32,
    order: &dyn PriorityOrder,
    cost: &mut dyn CostModel,
) -> Schedule {
    simulate_dvq_observed(sys, m, order, cost, &mut NoopObserver)
}

/// [`simulate_dvq`] with a streaming [`Observer`] attached. With
/// [`NoopObserver`] this monomorphizes to exactly [`simulate_dvq`]'s code
/// (every emission site is gated by the compile-time `O::ENABLED`).
#[must_use]
pub fn simulate_dvq_observed<O: Observer>(
    sys: &TaskSystem,
    m: u32,
    order: &dyn PriorityOrder,
    cost: &mut dyn CostModel,
    obs: &mut O,
) -> Schedule {
    with_ready_set!(sys, order, |ready| run_dvq(sys, m, ready, cost, obs))
}

/// The loop state, generic over the time tier so a tick-tier run can
/// hand its whole progress to the exact tier on a bail.
struct LoopState<D: Tier> {
    /// Min-heap of packed (time, event) keys ([`Tier::key`]).
    events: BinaryHeap<Reverse<D::Key>>,
    /// Free processors as a min-heap, so `pop()` serves the lowest index
    /// first (the documented assignment order) in O(log M).
    free: BinaryHeap<Reverse<u32>>,
    /// Observability state: the in-flight quantum on each processor
    /// `(subtask, completion)`, for `QuantumEnd` emission at its
    /// `ProcFree`. Written only when the observer is enabled.
    running: Vec<Option<(SubtaskRef, D::T)>>,
    placements: Vec<Placement>,
    placed: usize,
}

/// A fast-tier abort: the instant it happened with the dispatch it could
/// not represent (cost already drawn — never redrawn, keeping RNG streams
/// identical), and the whole loop state converted to exact rationals.
struct Bail {
    resume: (Rat, (SubtaskRef, Rat)),
    state: LoopState<Exact>,
}

/// The initial loop state in tier `dom`: every chain head activates at
/// its eligibility time; every processor is free at time 0.
fn seed_dvq<D: Tier>(dom: &D, sys: &TaskSystem, m: u32) -> LoopState<D> {
    let mut events = BinaryHeap::new();
    for task in sys.tasks() {
        if let Some(head) = sys.task_subtask_refs(task.id).next() {
            let e = sys.subtask(head).eligible;
            let t = dom
                .int(e)
                .expect("seed eligibility is within the pre-checked event span");
            events.push(Reverse(dom.key(t, Event::Activate(head).code())));
        }
    }
    let zero = dom.int(0).expect("time zero is within the event span");
    for k in 0..m {
        events.push(Reverse(dom.key(zero, Event::ProcFree(k).code())));
    }
    LoopState {
        events,
        free: BinaryHeap::with_capacity(m as usize),
        running: vec![None; m as usize],
        placements: Vec::with_capacity(sys.num_subtasks()),
        placed: 0,
    }
}

/// Lossless state conversion to the exact tier (`to_rat` is total).
fn migrate_dvq<D: Tier>(dom: &D, s: &mut LoopState<D>) -> LoopState<Exact> {
    LoopState {
        events: s
            .events
            .drain()
            .map(|Reverse(k)| {
                let (t, code) = dom.split(k);
                Reverse((dom.to_rat(t), code))
            })
            .collect(),
        free: std::mem::take(&mut s.free),
        running: s
            .running
            .iter_mut()
            .map(|slot| slot.take().map(|(st, t)| (st, dom.to_rat(t))))
            .collect(),
        placements: std::mem::take(&mut s.placements),
        placed: s.placed,
    }
}

/// The borrows one event-loop run needs, bundled so the tick and exact
/// tiers can take them in turn.
struct DvqLoop<'a, D: Tier, R: ReadySet, O: Observer> {
    dom: &'a D,
    sys: &'a TaskSystem,
    m: u32,
    ready: &'a mut R,
    cost: &'a mut dyn CostModel,
    obs: &'a mut O,
}

impl<D: Tier, R: ReadySet, O: Observer> DvqLoop<'_, D, R, O> {
    /// Runs the event loop to completion in this tier's arithmetic, or
    /// bails with the exact-tier state. `resume` re-enters a batch that a
    /// previous tier abandoned: its `Tick` was already emitted, and the
    /// first dispatch reuses the carried-over cost.
    fn run_dvq_tier(
        &mut self,
        mut s: LoopState<D>,
        resume: Option<(Rat, (SubtaskRef, Rat))>,
    ) -> Result<Schedule, Box<Bail>> {
        let total = self.sys.num_subtasks();
        if let Some((now_r, pending)) = resume {
            let now = self
                .dom
                .from_rat(now_r)
                .expect("a bail instant is representable in the resuming tier");
            self.assign_batch(&mut s, now, Some(pending))?;
        }
        while s.placed < total {
            let Some(&Reverse(head)) = s.events.peek() else {
                // Every unplaced subtask owes the queue either an Activate
                // or the ProcFree that will trigger one, so an empty queue
                // here is a lost-event bug in this driver — abort loudly
                // (also in release builds) rather than looping forever on
                // `placed < total`.
                panic!(
                    "DVQ event queue drained with only {placed}/{total} subtasks placed: \
                     an Activate/ProcFree event was lost (broken successor chain?)",
                    placed = s.placed
                );
            };
            let (now, _) = self.dom.split(head);
            if O::ENABLED {
                self.obs.on_event(&SchedEvent::Tick {
                    at: self.dom.to_rat(now),
                });
            }
            // Drain the batch at `now`. The event ordering (ProcFree
            // ascending by processor, then Activate) makes the emitted
            // stream deterministic too.
            while let Some(&Reverse(k)) = s.events.peek() {
                let (t, code) = self.dom.split(k);
                if t != now {
                    break;
                }
                s.events.pop();
                match Event::from_code(code) {
                    Event::ProcFree(k) => {
                        if O::ENABLED {
                            if let Some((st, completion)) = s.running[k as usize].take() {
                                emit_end(
                                    self.sys,
                                    st,
                                    k,
                                    self.dom.to_rat(completion),
                                    Rat::ZERO,
                                    self.obs,
                                );
                            }
                        }
                        s.free.push(Reverse(k));
                    }
                    Event::Activate(st) => {
                        if O::ENABLED {
                            let sub = self.sys.subtask(st);
                            let cause = if self.dom.int(sub.eligible) == Some(now) {
                                ReadyCause::Eligibility
                            } else {
                                ReadyCause::Predecessor
                            };
                            self.obs.on_event(&SchedEvent::Ready {
                                id: sub.id,
                                at: self.dom.to_rat(now),
                                cause,
                            });
                        }
                        self.ready.push(st);
                    }
                }
            }
            self.assign_batch(&mut s, now, None)?;
        }

        if O::ENABLED {
            // Quanta still in flight when the last subtask was placed:
            // announce their ends in completion order.
            let mut pending: Vec<crate::emit::PendingEnd> = s
                .running
                .iter_mut()
                .enumerate()
                .filter_map(|(k, slot)| {
                    slot.take().map(|(st, completion)| {
                        (self.dom.to_rat(completion), k as u32, st, Rat::ZERO)
                    })
                })
                .collect();
            flush_ends(self.sys, &mut pending, self.obs);
        }

        Ok(Schedule::new(
            self.sys,
            QuantumModel::Dvq,
            self.m,
            s.placements,
        ))
    }

    /// Assigns free processors to ready subtasks in priority order, then
    /// announces residual idleness. Honors the bail-out contract: for each
    /// dispatch, every fallible time conversion runs *before* any side
    /// effect, so an unrepresentable value aborts with nothing half-done.
    fn assign_batch(
        &mut self,
        s: &mut LoopState<D>,
        now: D::T,
        mut carried: Option<(SubtaskRef, Rat)>,
    ) -> Result<(), Box<Bail>> {
        // The rational value of `now` is only needed once something is
        // emitted at this instant (a placement, a bail, an idle report);
        // pure-drain batches skip the conversion entirely.
        let mut now_r_slot: Option<Rat> = None;
        loop {
            let (st, c) = match carried.take() {
                Some(p) => p,
                None => {
                    if s.free.is_empty() || self.ready.is_empty() {
                        break;
                    }
                    let st = self.ready.pop_best().expect("ready nonempty");
                    (st, checked_cost(self.cost.cost(self.sys, st), st))
                }
            };
            // Fallible conversions first (completion, successor
            // eligibility); side effects only once both are in hand.
            let conv = self
                .dom
                .from_rat(c)
                .and_then(|c| self.dom.add(now, c))
                .and_then(|completion| match self.sys.subtask(st).succ {
                    None => Some((completion, None)),
                    Some(succ) => self
                        .dom
                        .int(self.sys.subtask(succ).eligible)
                        .map(|e| (completion, Some((succ, e)))),
                });
            let Some((completion, succ_at)) = conv else {
                return Err(Box::new(Bail {
                    resume: (self.dom.to_rat(now), (st, c)),
                    state: migrate_dvq(self.dom, s),
                }));
            };
            let now_r = *now_r_slot.get_or_insert_with(|| self.dom.to_rat(now));
            let Reverse(proc) = s.free.pop().expect("free nonempty in the assignment loop");
            s.placements.push(Placement {
                st,
                proc,
                start: now_r,
                cost: c,
                holds_until: self.dom.to_rat(completion),
            });
            s.placed += 1;
            if O::ENABLED {
                let sub = self.sys.subtask(st);
                self.obs.on_event(&SchedEvent::QuantumStart {
                    id: sub.id,
                    proc,
                    start: now_r,
                    cost: c,
                    holds_until: self.dom.to_rat(completion),
                    deadline: sub.deadline,
                    bbit: sub.bbit,
                    group_deadline: sub.group_deadline,
                });
                s.running[proc as usize] = Some((st, completion));
            }
            s.events.push(Reverse(
                self.dom.key(completion, Event::ProcFree(proc).code()),
            ));
            // The successor becomes ready once both eligible and its
            // predecessor (this subtask) has completed.
            if let Some((succ, e)) = succ_at {
                s.events.push(Reverse(
                    self.dom
                        .key(e.max(completion), Event::Activate(succ).code()),
                ));
            }
        }
        if O::ENABLED && !s.free.is_empty() {
            self.obs.on_event(&SchedEvent::Idle {
                at: *now_r_slot.get_or_insert_with(|| self.dom.to_rat(now)),
                procs: s.free.len() as u32,
            });
        }
        Ok(())
    }
}

/// The shared DVQ event loop, generic over the ready-set implementation.
/// Picks the time tier: tick arithmetic when the cost model's denominator
/// hint and the event span allow it, exact rationals otherwise — and
/// migrates tick → exact mid-run on the first unrepresentable value.
fn run_dvq<R: ReadySet, O: Observer>(
    sys: &TaskSystem,
    m: u32,
    mut ready: R,
    cost: &mut dyn CostModel,
    obs: &mut O,
) -> Schedule {
    assert!(m >= 1, "need at least one processor");
    let ticks = event_span(sys).and_then(|span| tick_scale(cost.denominator_hint(), span));
    let (state, resume) = match ticks {
        Some(dom) => {
            let mut fast = DvqLoop {
                dom: &dom,
                sys,
                m,
                ready: &mut ready,
                cost,
                obs,
            };
            match fast.run_dvq_tier(seed_dvq(&dom, sys, m), None) {
                Ok(sched) => return sched,
                Err(bail) => (bail.state, Some(bail.resume)),
            }
        }
        None => (seed_dvq(&Exact, sys, m), None),
    };
    let mut exact = DvqLoop {
        dom: &Exact,
        sys,
        m,
        ready: &mut ready,
        cost,
        obs,
    };
    match exact.run_dvq_tier(state, resume) {
        Ok(sched) => sched,
        Err(_) => unreachable!("the exact tier never bails"),
    }
}

/// An upper bound on every integral instant a DVQ run over `sys` can
/// produce, or `None` on overflow (which simply keeps the run exact).
/// Each dispatch pushes a completion `≤ now + 1` and an activation
/// `≤ max(eligible, now + 1)`, so by induction every event time is at most
/// `max |eligible| + num_subtasks + 2`.
fn event_span(sys: &TaskSystem) -> Option<i64> {
    let max_e = sys
        .iter_refs()
        .map(|(_, s)| s.eligible.unsigned_abs())
        .max()
        .unwrap_or(0);
    i64::try_from(max_e)
        .ok()?
        .checked_add(i64::try_from(sys.num_subtasks()).ok()?)?
        .checked_add(2)
}

/// The tick tier for a run over `sys`-like event times, or `None` to stay
/// exact: requires a positive denominator hint, whose value is the scale,
/// and headroom for every time the run can produce. `max_int` must bound
/// every integral instant the loop will convert ([`event_span`]); with
/// that guarantee, in-run bails can only come from costs off the hinted
/// grid, never from overflow.
fn tick_scale(hint: Option<i64>, max_int: i64) -> Option<Ticks> {
    let ticks = Ticks::new(hint.filter(|&d| d > 0)?);
    ticks.int(max_int)?;
    Some(ticks)
}

#[cfg(test)]
mod tests {
    use super::*;
    use pfair_core::key::{KeyCache, Pd2Key};
    use pfair_core::Pd2;
    use pfair_numeric::{Rat, Time};
    use pfair_taskmodel::{release, SubtaskId, TaskId};

    use crate::cost::{ExactOnly, FixedCosts, FullQuantum};

    fn fig2_system() -> TaskSystem {
        release::periodic_named(
            &[
                ("A", 1, 6),
                ("B", 1, 6),
                ("C", 1, 6),
                ("D", 1, 2),
                ("E", 1, 2),
                ("F", 1, 2),
            ],
            6,
        )
    }

    fn find(sys: &TaskSystem, task: u32, index: u64) -> SubtaskRef {
        sys.find(SubtaskId {
            task: TaskId(task),
            index,
        })
        .unwrap()
    }

    #[test]
    fn full_costs_reduce_to_sfq() {
        // With c = 1 everywhere, all completions are integral and DVQ
        // makes exactly the slot-boundary decisions of SFQ.
        let sys = fig2_system();
        let dvq = simulate_dvq(&sys, 2, &Pd2, &mut FullQuantum);
        let sfq = crate::sfq::simulate_sfq(&sys, 2, &Pd2, &mut FullQuantum);
        for (st, _) in sys.iter_refs() {
            assert_eq!(dvq.start(st), sfq.start(st), "{st:?}");
        }
    }

    #[test]
    fn fig2b_dvq_schedule_with_delta_yields() {
        // Fig. 2(b): A_1 and F_1 (scheduled at t = 1) execute for 1 − δ
        // only; both processors immediately start new quanta at 2 − δ and
        // are assigned to B_1 and C_1, blocking D_2 and E_2 at time 2.
        let sys = fig2_system();
        let delta = Rat::new(1, 4);
        let mut costs = FixedCosts::new(Rat::ONE)
            .with(TaskId(0), 1, Rat::ONE - delta) // A_1
            .with(TaskId(5), 1, Rat::ONE - delta); // F_1
        let sched = simulate_dvq(&sys, 2, &Pd2, &mut costs);

        let two_minus = Rat::int(2) - delta;
        assert_eq!(sched.start(find(&sys, 1, 1)), two_minus); // B_1
        assert_eq!(sched.start(find(&sys, 2, 1)), two_minus); // C_1
                                                              // D_2, E_2 blocked until 3 − δ; they still meet d = 4.
        let three_minus = Rat::int(3) - delta;
        assert_eq!(sched.start(find(&sys, 3, 2)), three_minus);
        assert_eq!(sched.start(find(&sys, 4, 2)), three_minus);
        assert!(sched.completion(find(&sys, 3, 2)) <= Rat::int(4));
        // F_2 runs at 4 − δ and completes at 5 − δ: it misses its deadline
        // (4) by 1 − δ — tardiness strictly below one quantum (Theorem 3).
        let f2 = find(&sys, 5, 2);
        assert_eq!(sched.start(f2), Rat::int(4) - delta);
        assert_eq!(sched.completion(f2), Rat::int(5) - delta);
        assert_eq!(sys.subtask(f2).deadline, 4);
        let tardiness = sched.completion(f2) - Rat::int(4);
        assert!(tardiness.is_positive() && tardiness < Rat::ONE);
    }

    #[test]
    fn tardiness_approaches_one_as_delta_shrinks() {
        // Tightness (E6): as δ → 0 the F_2 miss approaches a full quantum.
        let sys = fig2_system();
        for den in [10i64, 100, 10_000, 1_000_000] {
            let delta = Rat::new(1, den);
            let mut costs = FixedCosts::new(Rat::ONE)
                .with(TaskId(0), 1, Rat::ONE - delta)
                .with(TaskId(5), 1, Rat::ONE - delta);
            let sched = simulate_dvq(&sys, 2, &Pd2, &mut costs);
            let f2 = find(&sys, 5, 2);
            let tardiness = sched.completion(f2) - Rat::int(4);
            assert_eq!(tardiness, Rat::ONE - delta);
        }
    }

    #[test]
    fn work_conserving_no_holds() {
        let sys = fig2_system();
        let mut costs = FixedCosts::new(Rat::new(9, 10));
        let sched = simulate_dvq(&sys, 2, &Pd2, &mut costs);
        for p in sched.placements() {
            assert_eq!(p.waste(), Rat::ZERO);
            assert_eq!(p.holds_until, p.completion());
        }
    }

    #[test]
    fn intra_task_sequential() {
        // A subtask never starts before its predecessor completes.
        let sys = release::periodic(&[(3, 4), (1, 2)], 12);
        let mut costs = FixedCosts::new(Rat::new(1, 2));
        let sched = simulate_dvq(&sys, 1, &Pd2, &mut costs);
        for (st, s) in sys.iter_refs() {
            if let Some(pred) = s.pred {
                assert!(sched.start(st) >= sched.completion(pred));
            }
            // And never before its eligibility time.
            assert!(sched.start(st) >= Rat::int(s.eligible));
        }
    }

    #[test]
    fn single_processor_serializes() {
        let sys = release::periodic(&[(1, 2), (1, 2)], 4);
        let sched = simulate_dvq(&sys, 1, &Pd2, &mut FullQuantum);
        let mut busy: Vec<(Time, Time)> = sched
            .placements()
            .iter()
            .map(|p| (p.start, p.completion()))
            .collect();
        busy.sort();
        for w in busy.windows(2) {
            assert!(w[0].1 <= w[1].0, "overlap on one processor");
        }
    }

    #[test]
    fn processors_assigned_in_ascending_index_order() {
        // Regression for the free-list order: within one batch, the k-th
        // pick by priority lands on the k-th smallest free processor index.
        let sys = release::periodic(&[(1, 2); 6], 4);
        let sched = simulate_dvq(&sys, 3, &Pd2, &mut FullQuantum);
        let mut batches: std::collections::BTreeMap<Time, Vec<(SubtaskRef, u32)>> =
            std::collections::BTreeMap::new();
        for p in sched.placements() {
            batches.entry(p.start).or_default().push((p.st, p.proc));
        }
        let cache: KeyCache<Pd2Key> = KeyCache::build(&sys);
        for (start, mut batch) in batches {
            // Priority order within the batch is the order the loop popped;
            // the processors handed out must ascend with it.
            batch.sort_by_key(|&(st, _)| cache.key(st));
            let procs: Vec<u32> = batch.iter().map(|&(_, proc)| proc).collect();
            let mut sorted = procs.clone();
            sorted.sort_unstable();
            assert_eq!(procs, sorted, "batch at {start:?} assigned out of order");
        }
    }

    #[test]
    fn tick_scale_requires_hint_and_headroom() {
        assert_eq!(tick_scale(None, 100), None);
        assert_eq!(tick_scale(Some(0), 100), None);
        let s = tick_scale(Some(720_720), 1_000_000).expect("plenty of headroom");
        assert_eq!(s.per_quantum(), 720_720);
        // A span too wide for i64 ticks keeps the run exact.
        assert_eq!(tick_scale(Some(720_720), i64::MAX / 2), None);
    }

    #[test]
    fn tick_times_match_exact_times() {
        // The same workload down both tiers: FixedCosts publishes a
        // denominator hint (tick fast path); ExactOnly withholds it (exact
        // path). Schedules must be identical, placement for placement.
        let sys = fig2_system();
        let delta = Rat::new(1, 4);
        let costs = FixedCosts::new(Rat::ONE)
            .with(TaskId(0), 1, Rat::ONE - delta)
            .with(TaskId(5), 1, Rat::ONE - delta);
        assert_eq!(costs.denominator_hint(), Some(4), "fast path armed");
        let fast = simulate_dvq(&sys, 2, &Pd2, &mut costs.clone());
        let mut inner = costs;
        let exact = simulate_dvq(&sys, 2, &Pd2, &mut ExactOnly(&mut inner));
        assert_eq!(fast.placements(), exact.placements());
    }

    /// Lies about its grid: hints denominator 2 but emits a cost with
    /// denominator 3 on the `trip`-th draw — forcing a mid-batch bail from
    /// the tick tier to the exact tier.
    struct WrongHint {
        draws: usize,
        trip: usize,
    }

    impl CostModel for WrongHint {
        fn cost(&mut self, _sys: &TaskSystem, _st: SubtaskRef) -> Rat {
            self.draws += 1;
            if self.draws == self.trip {
                Rat::new(1, 3)
            } else {
                Rat::new(1, 2)
            }
        }

        fn denominator_hint(&self) -> Option<i64> {
            Some(2)
        }
    }

    /// Records every emission, for stream-identity checks.
    struct Record(Vec<SchedEvent>);

    impl Observer for Record {
        fn on_event(&mut self, ev: &SchedEvent) {
            self.0.push(ev.clone());
        }
    }

    #[test]
    fn mid_run_migration_is_invisible() {
        // A wrong denominator hint must cost performance only: the run
        // bails to exact arithmetic at the first off-grid cost, and both
        // the schedule and the observed event stream are identical to an
        // all-exact run of the same model.
        let sys = release::periodic(&[(1, 2), (1, 3), (2, 5), (3, 4)], 30);
        for trip in [1usize, 3, 7, 20] {
            let mut migrating = Record(Vec::new());
            let a = simulate_dvq_observed(
                &sys,
                2,
                &Pd2,
                &mut WrongHint { draws: 0, trip },
                &mut migrating,
            );
            let mut all_exact = Record(Vec::new());
            let mut inner = WrongHint { draws: 0, trip };
            let b =
                simulate_dvq_observed(&sys, 2, &Pd2, &mut ExactOnly(&mut inner), &mut all_exact);
            assert_eq!(a.placements(), b.placements(), "trip = {trip}");
            assert_eq!(migrating.0, all_exact.0, "trip = {trip}");
        }
    }
}
