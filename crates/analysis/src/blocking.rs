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
//! `p.start + p.cost > r`, and has strictly lower priority than the
//! victim. Under PD², EPDF and PD, whose strict order a key type
//! reproduces, the search first decides *whether* a wait is an
//! inversion, with no walk over its window:
//!
//! * every placement gets a dense `u32` rank under the strict order
//!   ([`StrictKeys::ranks`], one sort; equal priority, equal rank), kept
//!   in a max segment tree over the `(start, proc)`-sorted placements;
//! * the waits are swept by increasing ready time `r`. The quanta running
//!   at `r⁺` (start `≤ r <` completion) sit in a max-heap by rank, whose
//!   expired tops are dropped lazily — `r` never decreases, so an expired
//!   quantum stays expired, and no bound on the costs is needed. The
//!   quanta starting in `(r, s)` are one placement range, whose largest
//!   rank the tree gives;
//! * the wait is an inversion iff the larger of the two maxima is above
//!   the victim's rank.
//!
//! That costs O(log P) a wait for P placements, after an O(P log P) sort
//! of the ranks and of the waits. [`schedule_report`](crate::schedule_report)
//! only counts, so it stops there: on the n = 1000 benchmark system
//! about 3 400 subtasks wait and about 1 100 of those waits are
//! inversions, and none of them walks its window. [`detect_blocking`]
//! lists each inversion's blockers, so it walks the windows of the
//! inversions only, comparing ranks: with `c_max` the largest cost in
//! the schedule a blocker starts in `(r − c_max, s)`, which binary search
//! finds in the sorted placements; quanta starting in `(r, s)` overlap
//! the wait by construction, and only those starting in `(r − c_max, r]`
//! need their completion tested. `c_max` is read from the data, never
//! assumed to be 1, so the window is exact for any [`Schedule`].
//!
//! Orders with no key type (PF, ablations, custom comparators and
//! [`ComparatorOnly`](pfair_core::ComparatorOnly) wrappers) have no ranks:
//! both callers walk every wait's window, about `m·(s − r + c_max)`
//! candidates, and test each through `order.precedes`. Times are `i64`
//! ticks on the schedule's grid (exact `Rat`s only when no `i64` grid
//! fits; see the crate docs).
//!
//! [`pdb_slot_stats`] is the SFQ-side counterpart: it rebuilds, slot by
//! slot, the `EB/PB/DB` partition that PD^B (§3.1) consults to stage
//! those inversions at slot boundaries, measuring how often the blocking
//! machinery engages. It reads the ready sets from [`pdb_ready_sets`],
//! as the conformance bank's Table 1 check does.

use core::ops::ControlFlow;
use std::collections::BinaryHeap;

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
/// order, with the blockers' placement indices in placement order.
///
/// Under a ranked order the sweep picks out the inversions, and only
/// their windows are walked.
pub(crate) fn inversions_in<K: Tier>(
    sys: &TaskSystem,
    sched: &Schedule,
    tm: &Grid<K>,
    order: &dyn PriorityOrder,
    mut found: impl FnMut(SubtaskRef, K::T, K::T, BlockingKind, &[usize]),
) {
    let placements = sched.placements();
    let mut emit = |w: &Wait<K::T>, blockers: &[usize]| {
        let victim = placements[w.at()].st;
        found(victim, w.ready_at, tm.start(w.at()), w.kind, blockers);
    };
    match Priority::of(sys, sched, order) {
        Priority::Ranked(ranks) => {
            let mut inverted = Vec::new();
            sweep(tm, &ranks, &mut waits(sys, tm).collect::<Vec<_>>(), |w| {
                inverted.push(*w);
            });
            inverted.sort_unstable_by_key(|w| placements[w.at()].st);
            let c_max = c_max(tm);
            let mut blockers = Vec::new();
            for w in &inverted {
                let victim = ranks.rank(w.at());
                blockers.clear();
                blockers.extend(overlapping(tm, c_max, w).filter(|&i| ranks.rank(i) > victim));
                emit(w, &blockers);
            }
        }
        Priority::Compared(keys) => walk(sys, sched, tm, &keys, emit),
    }
}

/// How many inversions of each kind the schedule has, `(eligibility,
/// predecessor)`, in the arithmetic of `tm`: the sweep's test alone under
/// a ranked order, the window walk otherwise.
pub(crate) fn inversion_counts_in<K: Tier>(
    sys: &TaskSystem,
    sched: &Schedule,
    tm: &Grid<K>,
    order: &dyn PriorityOrder,
) -> (usize, usize) {
    let mut counts = (0, 0);
    let mut count = |w: &Wait<K::T>| match w.kind {
        BlockingKind::Eligibility => counts.0 += 1,
        BlockingKind::Predecessor => counts.1 += 1,
    };
    match Priority::of(sys, sched, order) {
        Priority::Ranked(ranks) => {
            sweep(tm, &ranks, &mut waits(sys, tm).collect::<Vec<_>>(), count);
        }
        Priority::Compared(keys) => walk(sys, sched, tm, &keys, |w, _| count(w)),
    }
    counts
}

/// The search of the orders with no key type: walks the window of every
/// wait, in subtask order, testing each candidate through `keys`, and
/// calls `found(wait, blockers)` for each inversion, with the blockers'
/// placement indices in placement order.
fn walk<K: Tier>(
    sys: &TaskSystem,
    sched: &Schedule,
    tm: &Grid<K>,
    keys: &StrictKeys<'_>,
    mut found: impl FnMut(&Wait<K::T>, &[usize]),
) {
    let c_max = c_max(tm);
    let mut blockers = Vec::new();
    for w in waits(sys, tm) {
        blockers.clear();
        let victim = sched.placements()[w.at()].st;
        keys.for_each_lower(victim, overlapping(tm, c_max, &w), |i| {
            blockers.push(i);
            ControlFlow::Continue(())
        });
        if !blockers.is_empty() {
            found(&w, &blockers);
        }
    }
}

/// A subtask that commenced after it became ready, at `tm.start(at)`.
#[derive(Clone, Copy, Debug)]
struct Wait<T> {
    ready_at: T,
    /// The victim's placement index.
    at: u32,
    kind: BlockingKind,
}

impl<T> Wait<T> {
    fn at(&self) -> usize {
        self.at as usize
    }
}

/// Every wait of `sys` in `tm`, in subtask order.
fn waits<'a, K: Tier>(
    sys: &'a TaskSystem,
    tm: &'a Grid<K>,
) -> impl Iterator<Item = Wait<K::T>> + 'a {
    sys.iter_refs().filter_map(move |(st, s)| {
        let eligible = tm.int(s.eligible);
        let ready_at = match s.pred {
            Some(p) => tm.completion(tm.index(p)).max(eligible),
            None => eligible,
        };
        let at = tm.index(st);
        (tm.start(at) > ready_at).then(|| Wait {
            ready_at,
            at: at as u32,
            kind: if ready_at == eligible {
                BlockingKind::Eligibility
            } else {
                BlockingKind::Predecessor
            },
        })
    })
}

/// The largest cost in `tm`.
fn c_max<K: Tier>(tm: &Grid<K>) -> K::T {
    (0..tm.starts().len())
        .map(|i| tm.cost(i))
        .max()
        .unwrap_or(tm.int(0))
}

/// The quanta that overlap the wait `(r, s]` of `w`, in placement order:
/// those starting in `(r − c_max, r]` that complete after `r`, then every
/// one starting in `(r, s)`. The victim starts at `s`, outside.
fn overlapping<'g, K: Tier>(
    tm: &'g Grid<K>,
    c_max: K::T,
    w: &Wait<K::T>,
) -> impl Iterator<Item = usize> + 'g {
    let (ready_at, starts) = (w.ready_at, tm.starts());
    let reach = ready_at - c_max;
    let lo = starts.partition_point(|&t| t <= reach);
    let mid = lo + starts[lo..].partition_point(|&t| t <= ready_at);
    let hi = mid + starts[mid..w.at()].partition_point(|&t| t < tm.start(w.at()));
    (lo..mid)
        .filter(move |&i| tm.completion(i) > ready_at)
        .chain(mid..hi)
}

/// Calls `inverted(w)` for each of `waits` that a strictly lower-priority
/// quantum overlaps, in ready-time order; `waits` is left in that order.
///
/// The quanta overlapping the wait `(r, s]` are those running at `r⁺`
/// (start `≤ r <` completion) and those starting in `(r, s)`. The sweep
/// takes the waits by increasing `r` and keeps the quanta started by `r`
/// in a max-heap by rank, dropping expired tops lazily: `r` never
/// decreases, so a quantum that has completed by one wait's `r` has by
/// every later one (and one complete before it is pushed is skipped). The second set is one placement range, whose largest
/// rank `ranks` gives. The wait is an inversion iff the larger of the two
/// maxima is above the victim's rank.
fn sweep<K: Tier>(
    tm: &Grid<K>,
    ranks: &RankTree,
    waits: &mut [Wait<K::T>],
    mut inverted: impl FnMut(&Wait<K::T>),
) {
    waits.sort_unstable_by_key(|w| w.ready_at);
    let starts = tm.starts();
    // `rank << 32 | placement`: the top is the lowest priority started.
    let mut running = BinaryHeap::new();
    let mut next = 0;
    for w in waits.iter() {
        let (r, at) = (w.ready_at, w.at());
        while next < starts.len() && starts[next] <= r {
            // One already complete is running at no later `r` either.
            if tm.completion(next) > r {
                running.push(u64::from(ranks.rank(next)) << 32 | next as u64);
            }
            next += 1;
        }
        while let Some(&top) = running.peek() {
            if tm.completion((top & u64::from(u32::MAX)) as usize) > r {
                break;
            }
            running.pop();
        }
        let victim = ranks.rank(at);
        let running_max = running.peek().map_or(0, |&top| (top >> 32) as u32);
        // The quanta starting in `(r, s)` all precede the victim, which
        // starts at `s`, in placement order.
        let blocked = running_max > victim || {
            let before = next + starts[next..at].partition_point(|&t| t < starts[at]);
            ranks.max(next, before) > victim
        };
        if blocked {
            inverted(w);
        }
    }
}

/// How the search tests strict priority: by rank when the order has a
/// key type, else through its [`StrictKeys`] comparator column.
enum Priority<'a> {
    Ranked(RankTree),
    Compared(StrictKeys<'a>),
}

impl<'a> Priority<'a> {
    /// The priority test over `sched`'s placements, in placement order.
    /// The key column is dropped once the ranks exist.
    fn of(sys: &'a TaskSystem, sched: &Schedule, order: &'a dyn PriorityOrder) -> Priority<'a> {
        let keys = StrictKeys::of_subtasks(sys, order, sched.placements().iter().map(|p| p.st));
        match keys.ranks() {
            Some(ranks) => {
                drop(keys);
                Priority::Ranked(RankTree::new(&ranks))
            }
            None => Priority::Compared(keys),
        }
    }
}

/// The placements' strict-priority ranks in a max segment tree: node
/// `n + i` holds placement `i`'s rank and every node `j < n` the larger
/// of nodes `2j` and `2j + 1`, so the largest rank of a placement range
/// costs O(log P).
struct RankTree {
    node: Vec<u32>,
}

impl RankTree {
    fn new(ranks: &[u32]) -> RankTree {
        let n = ranks.len();
        let mut node = vec![0; 2 * n];
        node[n..].copy_from_slice(ranks);
        for j in (1..n).rev() {
            node[j] = node[2 * j].max(node[2 * j + 1]);
        }
        RankTree { node }
    }

    /// Placement `i`'s rank.
    fn rank(&self, i: usize) -> u32 {
        self.node[self.node.len() / 2 + i]
    }

    /// The largest rank of placements `lo..hi`; 0, which is above no
    /// rank, if the range is empty.
    fn max(&self, lo: usize, hi: usize) -> u32 {
        let n = self.node.len() / 2;
        let (mut lo, mut hi) = (lo + n, hi + n);
        let mut max = 0;
        // Branch-free: whether a bound is odd is a coin toss per level, so
        // each side multiplies its node by that bit instead.
        while lo < hi {
            let odd = lo & 1;
            max = max.max(self.node[lo] * odd as u32);
            lo += odd;
            let odd = hi & 1;
            hi -= odd;
            max = max.max(self.node[hi + odd - 1] * odd as u32);
            lo /= 2;
            hi /= 2;
        }
        max
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
    use crate::schedule_report;
    use pfair_conformance::{generate_case, Case, GenConfig};
    use pfair_core::{ComparatorOnly, Epdf, Pd, Pd2, Pf};
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

    /// The report's per-kind counts are `detect_blocking`'s events by
    /// kind, under the ranked orders and the comparator ones, on the
    /// Fig. 2(b) run and the DVQ runs of default fuzz cases.
    #[test]
    fn report_counts_equal_detected_events() {
        let fig2 = fig2_system();
        let delta = Rat::new(1, 4);
        let mut costs = FixedCosts::new(Rat::ONE)
            .with(TaskId(0), 1, Rat::ONE - delta)
            .with(TaskId(5), 1, Rat::ONE - delta);
        let mut runs = vec![(simulate_dvq(&fig2, 2, &Pd2, &mut costs), fig2)];
        for seed in 0..12 {
            let case = Case::build(generate_case(&GenConfig::default(), seed))
                .expect("generated cases build");
            let sched = simulate_dvq(&case.sys, case.spec.m, &Pd2, &mut case.cost_model());
            runs.push((sched, case.sys));
        }
        let pd2 = ComparatorOnly(&Pd2);
        let orders: [&dyn PriorityOrder; 5] = [&Pd2, &Epdf, &Pd, &Pf, &pd2];
        let mut inversions = 0;
        for (sched, sys) in &runs {
            for order in orders {
                let events = detect_blocking(sys, sched, order);
                let count = |kind| events.iter().filter(|e| e.kind == kind).count();
                let report = schedule_report(sys, sched, order);
                assert_eq!(
                    (report.eligibility_blocking, report.predecessor_blocking),
                    (
                        count(BlockingKind::Eligibility),
                        count(BlockingKind::Predecessor)
                    ),
                    "{}",
                    order.name()
                );
                inversions += events.len();
            }
        }
        assert!(inversions > 0, "the runs must contain inversions");
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
