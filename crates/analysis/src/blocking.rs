//! Detection of the DVQ model's priority inversions in a simulated
//! schedule.
//!
//! "A *priority inversion* occurs whenever a lower-priority subtask (or
//! job) executes, while a ready, higher-priority subtask waits" (§3). The
//! paper distinguishes two kinds, by *when* the victim became ready:
//!
//! * **eligibility blocking** — the victim is blocked in the first slot of
//!   its IS-window (it became ready at its eligibility time `e(T_i)`, an
//!   integral instant, and found all processors occupied — some by
//!   lower-priority subtasks that grabbed a processor moments earlier);
//! * **predecessor blocking** — the victim became ready when its
//!   predecessor completed, later than `e(T_i)`, and still had to wait
//!   behind a lower-priority subtask.
//!
//! [`detect_blocking`] replays a schedule: for each subtask whose
//! commencement is later than its ready time, it reports every
//! lower-priority subtask that was *executing* somewhere in the waiting
//! interval — the blockers. Under SFQ + PD² no event is ever reported
//! (there are no inversions: that's the optimality setting); under DVQ the
//! reported events are exactly the phenomena of Figs. 2(b) and 3(a).
//!
//! A blocker `p` of the wait `(r, s]` satisfies `p.start < s` and
//! `p.start + p.cost > r`, so with `c_max` the largest cost in the
//! schedule it starts in the window `(r − c_max, s)`. The detector finds
//! that window by binary search in the `(start, proc)`-sorted placements
//! instead of scanning them all: quanta starting in `(r, s)` overlap the
//! wait by construction, and only those starting in `(r − c_max, r]` need
//! their completion tested. `c_max` is read from the data, never assumed
//! to be 1, so the window is exact for any [`Schedule`]. The cost is
//! O(V log P + Σ window sizes) for V subtasks and P placements — about
//! `m·(s − r + c_max)` candidates per wait — instead of O(V·P).
//!
//! Each candidate costs two integer tests. The window walk compares `i64`
//! ticks on the schedule's grid (exact `Rat`s only when no `i64` grid fits;
//! see the crate docs), and the priority test compares precomputed strict
//! keys ([`StrictKeys`], laid out in placement order) when the order
//! registers a key type — PD², EPDF and PD. Other orders (PF, ablations,
//! custom comparators) keep `order.precedes`.
//!
//! [`pdb_slot_stats`] is the SFQ-side counterpart: it rebuilds, slot by
//! slot, the `EB/PB/DB` partition that PD^B (§3.1) consults to stage
//! those inversions at slot boundaries, measuring how often the blocking
//! machinery engages. It reads the ready sets from [`pdb_ready_sets`],
//! as the conformance bank's Table 1 check does.

use core::ops::ControlFlow;

use pfair_core::pdb;
use pfair_core::priority::PriorityOrder;
use pfair_core::StrictKeys;
use pfair_numeric::{on_tier, Rat, Tier, Time};
use pfair_sim::{QuantumModel, Schedule};
use pfair_taskmodel::{SubtaskRef, TaskSystem};

use crate::grid::{times, Grid};

/// Which of the paper's two inversion kinds a blocking event is.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum BlockingKind {
    /// Blocked from the first instant of its IS-window.
    Eligibility,
    /// Blocked after becoming ready via predecessor completion.
    Predecessor,
}

/// One observed priority inversion.
#[derive(Clone, Debug)]
pub struct BlockingEvent {
    /// The waiting higher-priority subtask.
    pub victim: SubtaskRef,
    /// When it became ready.
    pub ready_at: Time,
    /// When it finally commenced.
    pub scheduled_at: Time,
    /// Eligibility vs predecessor blocking.
    pub kind: BlockingKind,
    /// Lower-priority subtasks that executed while the victim waited.
    pub blockers: Vec<SubtaskRef>,
}

impl BlockingEvent {
    /// How long the victim waited.
    #[must_use]
    pub fn duration(&self) -> Rat {
        self.scheduled_at - self.ready_at
    }
}

/// Scans a schedule for priority inversions under `order`.
///
/// Events come in subtask order; each event's blockers come in placement
/// (`(start, proc)`) order.
#[must_use]
pub fn detect_blocking(
    sys: &TaskSystem,
    sched: &Schedule,
    order: &dyn PriorityOrder,
) -> Vec<BlockingEvent> {
    let placements = sched.placements();
    let mut events = Vec::new();
    on_tier!(&times(Some(sys), sched), |tm| inversions_in(
        sys,
        sched,
        tm,
        order,
        false,
        |victim, ready_at, scheduled_at, kind, blockers| {
            events.push(BlockingEvent {
                victim,
                ready_at: tm.to_rat(ready_at),
                scheduled_at: tm.to_rat(scheduled_at),
                kind,
                blockers: blockers.iter().map(|&i| placements[i].st).collect(),
            });
        },
    ));
    events
}

/// The inversion search in the arithmetic of `tm`: calls `found(victim,
/// ready_at, scheduled_at, kind, blockers)` for each inversion, in subtask
/// order, with the blockers' placement indices in placement order — or,
/// with `first_only`, just the first blocker, which is all a count needs.
pub(crate) fn inversions_in<K: Tier>(
    sys: &TaskSystem,
    sched: &Schedule,
    tm: &Grid<K>,
    order: &dyn PriorityOrder,
    first_only: bool,
    mut found: impl FnMut(SubtaskRef, K::T, K::T, BlockingKind, &[usize]),
) {
    let placements = sched.placements();
    let starts = tm.starts();
    let zero = tm.int(0);
    let c_max = (0..starts.len()).map(|i| tm.cost(i)).max().unwrap_or(zero);
    let keys = StrictKeys::of_subtasks(sys, order, placements.iter().map(|p| p.st));
    let mut blockers = Vec::new();
    for (st, s) in sys.iter_refs() {
        let eligible = tm.int(s.eligible);
        let ready_at = match s.pred {
            Some(p) => tm.completion(tm.index(p)).max(eligible),
            None => eligible,
        };
        let scheduled_at = tm.start(tm.index(st));
        if scheduled_at <= ready_at {
            continue;
        }
        // Lower-priority subtasks executing within (ready_at, scheduled_at]
        // — i.e. overlapping the waiting interval — are blockers. They
        // start in (ready_at − c_max, scheduled_at); the victim itself
        // starts at scheduled_at, outside the window.
        let reach = ready_at - c_max;
        let lo = starts.partition_point(|&t| t <= reach);
        let mid = lo + starts[lo..].partition_point(|&t| t <= ready_at);
        let hi = mid + starts[mid..].partition_point(|&t| t < scheduled_at);
        let candidates = (lo..mid)
            .filter(|&i| tm.completion(i) > ready_at)
            .chain(mid..hi);
        blockers.clear();
        keys.for_each_lower(st, candidates, |i| {
            blockers.push(i);
            if first_only {
                ControlFlow::Break(())
            } else {
                ControlFlow::Continue(())
            }
        });
        if blockers.is_empty() {
            continue; // waited on equal/higher-priority contention: not an inversion
        }
        let kind = if ready_at == eligible {
            BlockingKind::Eligibility
        } else {
            BlockingKind::Predecessor
        };
        found(st, ready_at, scheduled_at, kind, &blockers);
    }
}

/// Per-slot view of the PD^B partition of an SFQ schedule.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct PdbSlotStats {
    /// The slot.
    pub t: i64,
    /// `|EB(t)|`: ready subtasks eligible exactly at `t`.
    pub eb: usize,
    /// `|PB(t)|` = `p`: ready subtasks that could be predecessor-blocked.
    pub pb: usize,
    /// `|DB(t)|`: ready subtasks that cannot be blocked.
    pub db: usize,
    /// How many subtasks the slot actually scheduled (≤ `M`).
    pub scheduled: usize,
}

/// Rebuilds the PD^B partition of every slot of an SFQ schedule, in slot
/// order, skipping slots whose ready set is empty (see
/// [`pdb_ready_sets`]).
///
/// # Panics
/// Panics if `sched` is not an SFQ schedule ([`QuantumModel::Sfq`]) of
/// `sys`.
#[must_use]
pub fn pdb_slot_stats(sys: &TaskSystem, sched: &Schedule) -> Vec<PdbSlotStats> {
    pdb_ready_sets(sys, sched)
        .map(|(t, ready)| {
            let part = pdb::classify(sys, t, &ready);
            PdbSlotStats {
                t,
                eb: part.eb.len(),
                pb: part.pb.len(),
                db: part.db.len(),
                scheduled: ready
                    .iter()
                    .filter(|r| sched.start(r.st).floor() == t)
                    .count(),
            }
        })
        .collect()
}

/// The PD^B ready set of every slot of an SFQ schedule whose ready set is
/// non-empty, in slot order.
///
/// A subtask is ready at slot `t` iff it is its task's first subtask not
/// scheduled before `t` and it is eligible (`e ≤ t`); its predecessor then
/// ran before `t`, and holds its processor until `t` iff it ran in slot
/// `t − 1`. That is exactly the ready set the SFQ driver hands
/// [`pdb::classify`], so on a [`pfair_sim::simulate_sfq_pdb`] schedule the
/// partition is the one PD^B decided on. Per-task cursors find each set
/// in O(tasks).
///
/// # Panics
/// Panics if `sched` is not an SFQ schedule ([`QuantumModel::Sfq`]) of
/// `sys`.
pub fn pdb_ready_sets<'a>(
    sys: &'a TaskSystem,
    sched: &'a Schedule,
) -> impl Iterator<Item = (i64, Vec<pdb::Ready>)> + 'a {
    assert_eq!(
        sched.model(),
        QuantumModel::Sfq,
        "PD^B ready sets need an SFQ schedule"
    );
    let slot = |st: SubtaskRef| sched.start(st).floor();
    // Per task: first subtask not scheduled before the current slot.
    let mut cursor: Vec<(u32, u32)> = sys.tasks().iter().map(|k| sys.task_span(k.id)).collect();
    let last = sched.placements().iter().map(|p| p.start.floor()).max();
    (0..=last.unwrap_or(-1))
        .map(move |t| {
            let mut ready = Vec::new();
            for (cur, hi) in &mut cursor {
                while *cur < *hi && slot(SubtaskRef(*cur)) < t {
                    *cur += 1;
                }
                if *cur == *hi {
                    continue;
                }
                let st = SubtaskRef(*cur);
                let s = sys.subtask(st);
                if s.eligible > t {
                    continue;
                }
                ready.push(pdb::Ready {
                    st,
                    pred_holds_until_t: s.pred.is_some_and(|p| slot(p) == t - 1),
                });
            }
            (t, ready)
        })
        .filter(|(_, ready)| !ready.is_empty())
}

#[cfg(test)]
mod tests {
    use super::*;
    use pfair_core::Pd2;
    use pfair_sim::{simulate_dvq, simulate_sfq, simulate_sfq_pdb, FixedCosts, FullQuantum};
    use pfair_taskmodel::{release, SubtaskId, TaskId, TaskSystem};

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
    fn sfq_pd2_has_no_inversions() {
        let sys = fig2_system();
        let sched = simulate_sfq(&sys, 2, &Pd2, &mut FullQuantum);
        assert!(detect_blocking(&sys, &sched, &Pd2).is_empty());
    }

    #[test]
    fn fig2b_eligibility_blocking_detected() {
        // D_2 and E_2 (eligible at 2) are blocked by B_1 and C_1, which
        // grabbed the processors at 2 − δ.
        let sys = fig2_system();
        let delta = Rat::new(1, 4);
        let mut costs = FixedCosts::new(Rat::ONE)
            .with(TaskId(0), 1, Rat::ONE - delta)
            .with(TaskId(5), 1, Rat::ONE - delta);
        let sched = simulate_dvq(&sys, 2, &Pd2, &mut costs);
        let events = detect_blocking(&sys, &sched, &Pd2);
        let d2 = find(&sys, 3, 2);
        let ev = events
            .iter()
            .find(|e| e.victim == d2)
            .expect("D_2 must be reported blocked");
        assert_eq!(ev.kind, BlockingKind::Eligibility);
        assert_eq!(ev.ready_at, Rat::int(2));
        assert_eq!(ev.scheduled_at, Rat::int(3) - delta);
        assert_eq!(ev.duration(), Rat::ONE - delta);
        let b1 = find(&sys, 1, 1);
        let c1 = find(&sys, 2, 1);
        assert!(ev.blockers.contains(&b1) && ev.blockers.contains(&c1));
        // E_2 likewise; F_2's wait behind D_2/E_2 is priority-consistent
        // contention (D_2, E_2 have equal class but are ahead by the
        // deterministic tie) — but B_1/C_1 also overlap its waiting
        // interval, so it is reported blocked as well, with only B_1/C_1
        // (strictly lower priority) as blockers.
        let f2 = find(&sys, 5, 2);
        if let Some(evf) = events.iter().find(|e| e.victim == f2) {
            for b in &evf.blockers {
                assert!(Pd2.precedes(&sys, f2, *b));
            }
        }
    }

    #[test]
    fn blockers_are_strictly_lower_priority() {
        let sys = fig2_system();
        let delta = Rat::new(1, 10);
        let mut costs = FixedCosts::new(Rat::ONE)
            .with(TaskId(0), 1, Rat::ONE - delta)
            .with(TaskId(5), 1, Rat::ONE - delta);
        let sched = simulate_dvq(&sys, 2, &Pd2, &mut costs);
        for ev in detect_blocking(&sys, &sched, &Pd2) {
            for b in &ev.blockers {
                assert!(Pd2.precedes(&sys, ev.victim, *b));
            }
            assert!(ev.duration().is_positive());
        }
    }

    #[test]
    fn pdb_instrumentation_reports_partitions() {
        let sys = fig2_system();
        let sched = simulate_sfq_pdb(&sys, 2, &mut FullQuantum);
        let stats = pdb_slot_stats(&sys, &sched);
        let plain = simulate_sfq_pdb(&sys, 2, &mut FullQuantum);
        for (st, _) in sys.iter_refs() {
            assert_eq!(sched.start(st), plain.start(st));
        }
        // Slot 0: all first subtasks have e = 0 = t ⇒ EB only.
        let s0 = stats.iter().find(|s| s.t == 0).unwrap();
        assert_eq!((s0.eb, s0.pb, s0.db), (6, 0, 0));
        assert_eq!(s0.scheduled, 2);
        // Slot 2: the eligibility-blocking slot — D2/E2/F2 in EB, B1/C1 in
        // DB.
        let s2 = stats.iter().find(|s| s.t == 2).unwrap();
        assert_eq!((s2.eb, s2.pb, s2.db), (3, 0, 2));
        // Slot 5: F3's predecessor F2 ran in slot 4 ⇒ PB engages.
        let s5 = stats.iter().find(|s| s.t == 5).unwrap();
        assert_eq!(s5.pb, 1);
        // Every slot schedules at most M.
        assert!(stats.iter().all(|s| s.scheduled <= 2));
    }

    #[test]
    #[should_panic(expected = "SFQ schedule")]
    fn pdb_slot_stats_rejects_a_dvq_schedule() {
        let sys = fig2_system();
        let sched = simulate_dvq(&sys, 2, &Pd2, &mut FullQuantum);
        let _ = pdb_slot_stats(&sys, &sched);
    }
}
