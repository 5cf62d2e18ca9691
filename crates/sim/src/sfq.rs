//! The SFQ model: synchronized, fixed-size quanta.
//!
//! "Scheduling decisions are made at slot boundaries only" (§2): at each
//! integral time `t` the scheduler picks up to `M` ready subtasks by
//! priority; a scheduled subtask occupies its processor for the whole slot
//! `[t, t+1)` even if it completes early — the rest of the quantum is
//! wasted (non-work-conserving). Consequently the *schedule* is independent
//! of the cost model; only completion times (hence tardiness) and waste
//! depend on it.
//!
//! A subtask is ready at slot `t` iff it is eligible (`e(T_i) ≤ t`),
//! unscheduled, and its predecessor was scheduled in an earlier slot
//! (predecessors hold their processor to the boundary, so a successor can
//! run in the very next slot). At most one subtask per task is ready at a
//! time, so intra-task parallelism is structurally impossible.
//!
//! One loop, [`simulate_sfq_with`], serves every run: its [`SfqPolicy`]
//! is either a plain priority order (EPDF/PD²/PF/PD) or the paper's PD^B
//! procedure, which needs the extra readiness fact "did the predecessor
//! run in slot `t − 1`" to form its `EB/PB/DB` partition, and its
//! [`AffinityMode`] maps picks onto processors. [`simulate_sfq`],
//! [`simulate_sfq_observed`] and [`simulate_sfq_pdb`] are its common
//! shapes.
//!
//! In the workspace's two time tiers (see [`pfair_numeric::Tier`] and the
//! `dvq` module docs), SFQ *is* the integer tier by construction: every
//! decision instant is an `i64` slot number, so there is no tick scaling
//! and no bail-out — only placement and completion bookkeeping ever touch
//! rationals. The hot loop iterates a retained list of tasks
//! with unfinished chains rather than rescanning every cursor each slot.

use pfair_core::key::{EpdfKey, KeyCache, KeyDispatch, Pd2Key, PdKey, SubtaskKey};
use pfair_core::pdb;
use pfair_core::priority::{sort_by_priority, PriorityOrder};
use pfair_numeric::Rat;
use pfair_obs::{NoopObserver, Observer};
use pfair_taskmodel::{SubtaskRef, TaskSystem};

use crate::cost::CostModel;
use crate::emit::Recorder;
use crate::schedule::{QuantumModel, Schedule};

/// Which selection rule an SFQ run uses.
#[derive(Clone, Copy)]
pub enum SfqPolicy<'a> {
    /// Sort the ready set by a priority order; take the top `M`.
    Priority(&'a dyn PriorityOrder),
    /// The PD^B procedure of §3.1 (Table 1) with the given resolution of
    /// the table's two-way ties.
    PdB(pdb::PdbLinearization),
}

impl core::fmt::Debug for SfqPolicy<'_> {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            SfqPolicy::Priority(p) => write!(f, "SfqPolicy::Priority({})", p.name()),
            SfqPolicy::PdB(lin) => write!(f, "SfqPolicy::PdB({lin:?})"),
        }
    }
}

/// Simulates `sys` on `m` processors under the SFQ model with a plain
/// priority order. Runs until every released subtask is scheduled.
#[must_use]
pub fn simulate_sfq(
    sys: &TaskSystem,
    m: u32,
    order: &dyn PriorityOrder,
    cost: &mut dyn CostModel,
) -> Schedule {
    simulate_sfq_observed(sys, m, order, cost, &mut NoopObserver)
}

/// [`simulate_sfq`] with a streaming [`Observer`] attached. With
/// [`NoopObserver`] this monomorphizes to exactly [`simulate_sfq`]'s code
/// (every emission site is gated by the compile-time `O::ENABLED`).
#[must_use]
pub fn simulate_sfq_observed<O: Observer>(
    sys: &TaskSystem,
    m: u32,
    order: &dyn PriorityOrder,
    cost: &mut dyn CostModel,
    obs: &mut O,
) -> Schedule {
    simulate_sfq_with(
        sys,
        m,
        SfqPolicy::Priority(order),
        AffinityMode::ByDecision,
        cost,
        obs,
    )
}

/// Simulates `sys` on `m` processors under the SFQ model with the PD^B
/// selection procedure, resolving Table 1's two-way ties the paper's
/// worst-case way ([`pdb::PdbLinearization::MAX_BLOCKING`]).
#[must_use]
pub fn simulate_sfq_pdb(sys: &TaskSystem, m: u32, cost: &mut dyn CostModel) -> Schedule {
    simulate_sfq_with(
        sys,
        m,
        SfqPolicy::PdB(pdb::PdbLinearization::MAX_BLOCKING),
        AffinityMode::ByDecision,
        cost,
        &mut NoopObserver,
    )
}

/// How picked subtasks are mapped onto processors within a slot.
///
/// Processor mapping never changes *which* subtasks run in a slot — only
/// where — so tardiness and validity are identical across modes; only
/// migration counts (`pfair-analysis::overhead`) differ.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum AffinityMode {
    /// Decision order → ascending processor index (the paper's figures).
    #[default]
    ByDecision,
    /// Prefer the processor the task last ran on (reduces migrations, as
    /// real implementations do to preserve cache affinity).
    Sticky,
}

/// Per-slot top-`M` selection for [`SfqPolicy::Priority`] runs.
///
/// The keyed variants map the slot's ready refs to precomputed keys once,
/// then select/sort by plain key comparisons; the comparator variant is the
/// fallback for orders with no registered key type. Selection is
/// select-then-sort either way: the priority order is strict (unique ids
/// break every tie), so the partial selection yields exactly the full
/// sort's prefix, and keyed and comparator runs pick identical slots.
enum SlotSelector<'a> {
    Comparator(&'a dyn PriorityOrder),
    Pd2(KeyCache<Pd2Key>, Vec<(Pd2Key, SubtaskRef)>),
    Epdf(KeyCache<EpdfKey>, Vec<(EpdfKey, SubtaskRef)>),
    Pd(KeyCache<PdKey>, Vec<(PdKey, SubtaskRef)>),
}

impl<'a> SlotSelector<'a> {
    fn new(sys: &TaskSystem, order: &'a dyn PriorityOrder) -> SlotSelector<'a> {
        match order.key_dispatch() {
            KeyDispatch::Pd2 => SlotSelector::Pd2(KeyCache::build(sys), Vec::new()),
            KeyDispatch::Epdf => SlotSelector::Epdf(KeyCache::build(sys), Vec::new()),
            KeyDispatch::Pd => SlotSelector::Pd(KeyCache::build(sys), Vec::new()),
            KeyDispatch::Comparator => SlotSelector::Comparator(order),
        }
    }

    /// Shrinks `ready` to the top `mcap` subtasks, sorted by priority.
    fn select(&mut self, sys: &TaskSystem, ready: &mut Vec<SubtaskRef>, mcap: usize) {
        match self {
            SlotSelector::Comparator(order) => {
                if ready.len() > mcap {
                    ready.select_nth_unstable_by(mcap - 1, |&a, &b| order.cmp(sys, a, b));
                    ready.truncate(mcap);
                }
                sort_by_priority(*order, sys, ready);
            }
            SlotSelector::Pd2(cache, scratch) => select_keyed(cache, scratch, ready, mcap),
            SlotSelector::Epdf(cache, scratch) => select_keyed(cache, scratch, ready, mcap),
            SlotSelector::Pd(cache, scratch) => select_keyed(cache, scratch, ready, mcap),
        }
    }
}

/// Keyed top-`mcap` selection: pair each ready ref with its cached key,
/// partial-select, sort, write the refs back.
fn select_keyed<K: SubtaskKey>(
    cache: &KeyCache<K>,
    scratch: &mut Vec<(K, SubtaskRef)>,
    ready: &mut Vec<SubtaskRef>,
    mcap: usize,
) {
    scratch.clear();
    scratch.extend(ready.iter().map(|&st| (cache.key(st), st)));
    if scratch.len() > mcap {
        scratch.select_nth_unstable_by(mcap - 1, |a, b| a.0.cmp(&b.0));
        scratch.truncate(mcap);
    }
    scratch.sort_unstable_by_key(|a| a.0);
    ready.clear();
    ready.extend(scratch.iter().map(|&(_, st)| st));
}

/// The SFQ driver every entry point runs: `policy` picks each slot's
/// subtasks, `affinity` maps them onto processors, and `obs` receives the
/// event stream. The PD^B partition behind a [`SfqPolicy::PdB`] run can be
/// rebuilt from its schedule with `pfair_analysis::pdb_slot_stats`.
#[must_use]
pub fn simulate_sfq_with<O: Observer>(
    sys: &TaskSystem,
    m: u32,
    policy: SfqPolicy<'_>,
    affinity: AffinityMode,
    cost: &mut dyn CostModel,
    obs: &mut O,
) -> Schedule {
    assert!(m >= 1, "need at least one processor");
    let mut selector = match policy {
        SfqPolicy::Priority(order) => Some(SlotSelector::new(sys, order)),
        SfqPolicy::PdB(_) => None,
    };
    let total = sys.num_subtasks();
    let mut rec = Recorder::new(sys, obs);
    // Slot in which each subtask was scheduled (for readiness / PD^B).
    let mut slot_of: Vec<Option<i64>> = vec![None; total];
    // Per task: next unscheduled subtask (absolute ref), end of span.
    let mut cursor: Vec<(u32, u32)> = (0..sys.num_tasks())
        .map(|k| sys.task_span(pfair_taskmodel::TaskId(k as u32)))
        .collect();
    // Tasks whose chains still have unscheduled subtasks, ascending; a
    // task leaves the list for good once its cursor reaches its span end,
    // so long-finished tasks stop costing the per-slot gather anything.
    let mut active: Vec<u32> = (0..sys.num_tasks() as u32)
        .filter(|&k| {
            let (cur, hi) = cursor[k as usize];
            cur < hi
        })
        .collect();
    let mut t = 0i64;
    let mut ready: Vec<SubtaskRef> = Vec::with_capacity(sys.num_tasks());
    // Per task: last processor used (for sticky affinity).
    let mut last_proc: Vec<Option<u32>> = vec![None; sys.num_tasks()];

    while rec.placed() < total {
        // Gather the (≤ one per task) ready subtasks, dropping exhausted
        // tasks from the active list as we go.
        ready.clear();
        let mut next_interesting = i64::MAX;
        active.retain(|&k| {
            let (cur, hi) = cursor[k as usize];
            if cur >= hi {
                return false;
            }
            let st = SubtaskRef(cur);
            let s = sys.subtask(st);
            let pred_done_at = match s.pred {
                None => i64::MIN,
                Some(p) => slot_of[p.idx()].expect("cursor implies pred scheduled") + 1,
            };
            let ready_at = s.eligible.max(pred_done_at);
            if ready_at <= t {
                ready.push(st);
            } else {
                next_interesting = next_interesting.min(ready_at);
            }
            true
        });

        if ready.is_empty() {
            let placed = rec.placed();
            // With nothing ready, the driver can only jump forward to the
            // next readiness time. If none exists (or it does not advance),
            // `continue` would spin forever with unscheduled subtasks left
            // — a driver bug that a debug-only assert would let a release
            // build loop on silently. Fail hard instead.
            assert!(
                next_interesting < i64::MAX,
                "SFQ driver stuck at slot {t}: no subtask is ready, none becomes \
                 ready later, yet only {placed}/{total} subtasks are placed \
                 (lost readiness: broken predecessor chain or eligible time?)"
            );
            assert!(
                next_interesting > t,
                "SFQ driver stuck at slot {t}: next readiness time \
                 {next_interesting} does not advance ({placed}/{total} placed)"
            );
            t = next_interesting;
            continue;
        }

        // Every quantum from an earlier slot completed at or before `t`.
        let at = Rat::int(t);
        rec.open_instant(at);
        // The driver never jumps past a readiness time, so a subtask is
        // newly ready exactly when its eligibility or its predecessor's
        // slot gates it at `t`.
        rec.report_ready(
            at,
            ready
                .iter()
                .filter(|&&st| {
                    let s = sys.subtask(st);
                    s.eligible == t || s.pred.is_some_and(|p| slot_of[p.idx()] == Some(t - 1))
                })
                .map(|&st| (st, at)),
        );

        let pdb_holder: Vec<SubtaskRef>;
        let picked: &[SubtaskRef] = match policy {
            SfqPolicy::Priority(_) => {
                // Only the top M matter; a partial selection beats a full
                // sort once the ready set outgrows the machine (and cached
                // keys beat comparator calls; see `SlotSelector`).
                let sel = selector.as_mut().expect("Priority policy has a selector");
                sel.select(sys, &mut ready, m as usize);
                &ready
            }
            SfqPolicy::PdB(lin) => {
                let readiness: Vec<pdb::Ready> = ready
                    .iter()
                    .map(|&st| pdb::Ready {
                        st,
                        pred_holds_until_t: sys
                            .subtask(st)
                            .pred
                            .is_some_and(|p| slot_of[p.idx()] == Some(t - 1)),
                    })
                    .collect();
                let part = pdb::classify(sys, t, &readiness);
                pdb_holder = pdb::select_slot_with(sys, m as usize, &part, lin);
                &pdb_holder
            }
        };

        // By decision, the k-th pick runs on processor k.
        let sticky = match affinity {
            AffinityMode::ByDecision => None,
            AffinityMode::Sticky => Some(sticky_processors(sys, picked, m, &last_proc)),
        };
        for (k, &st) in picked.iter().enumerate() {
            let proc = sticky.as_ref().map_or(k as u32, |procs| procs[k]);
            rec.place(st, proc, at, Rat::int(t + 1), cost);
            slot_of[st.idx()] = Some(t);
            let task = sys.subtask(st).id.task;
            last_proc[task.idx()] = Some(proc);
            cursor[task.idx()].0 += 1;
        }
        rec.report_idle(at, m - picked.len() as u32);
        t += 1;
    }
    rec.into_schedule(QuantumModel::Sfq, m)
}

/// Maps this slot's picked subtasks onto processors under
/// [`AffinityMode::Sticky`]: each keeps the processor its task last ran on
/// while that is free, the rest take the lowest free processors.
fn sticky_processors(
    sys: &TaskSystem,
    picked: &[SubtaskRef],
    m: u32,
    last_proc: &[Option<u32>],
) -> Vec<u32> {
    let mut taken = vec![false; m as usize];
    let mut assigned: Vec<Option<u32>> = vec![None; picked.len()];
    // First pass: grant preferences that are still free.
    for (k, &st) in picked.iter().enumerate() {
        let task = sys.subtask(st).id.task;
        if let Some(p) = last_proc[task.idx()] {
            if !taken[p as usize] {
                taken[p as usize] = true;
                assigned[k] = Some(p);
            }
        }
    }
    // Second pass: fill the rest with the lowest free processors.
    let mut next_free = 0u32;
    for slot in assigned.iter_mut() {
        if slot.is_none() {
            while taken[next_free as usize] {
                next_free += 1;
            }
            taken[next_free as usize] = true;
            *slot = Some(next_free);
        }
    }
    assigned.into_iter().map(|a| a.expect("assigned")).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use pfair_core::{Epdf, Pd2};
    use pfair_taskmodel::release;

    use crate::cost::FullQuantum;
    use crate::{fig2_system, find};

    fn slot(sys: &TaskSystem, sched: &Schedule, task: u32, index: u64) -> i64 {
        sched.start(find(sys, task, index)).floor()
    }

    #[test]
    fn fig2a_sfq_pd2_schedule() {
        // Fig. 2(a): the PD² SFQ schedule of the paper's running example.
        let sys = fig2_system();
        let sched = simulate_sfq(&sys, 2, &Pd2, &mut FullQuantum);
        // D1,E1 in slot 0; F1,A1 in slot 1; D2,E2 in slot 2; F2,B1 in
        // slot 3; D3,E3 in slot 4; F3,C1 in slot 5.
        assert_eq!(slot(&sys, &sched, 3, 1), 0); // D1
        assert_eq!(slot(&sys, &sched, 4, 1), 0); // E1
        assert_eq!(slot(&sys, &sched, 5, 1), 1); // F1
        assert_eq!(slot(&sys, &sched, 0, 1), 1); // A1
        assert_eq!(slot(&sys, &sched, 3, 2), 2); // D2
        assert_eq!(slot(&sys, &sched, 4, 2), 2); // E2
        assert_eq!(slot(&sys, &sched, 5, 2), 3); // F2
        assert_eq!(slot(&sys, &sched, 1, 1), 3); // B1
        assert_eq!(slot(&sys, &sched, 3, 3), 4); // D3
        assert_eq!(slot(&sys, &sched, 4, 3), 4); // E3
        assert_eq!(slot(&sys, &sched, 5, 3), 5); // F3
        assert_eq!(slot(&sys, &sched, 2, 1), 5); // C1
                                                 // Everything meets its deadline (PD² optimal under SFQ).
        for (st, s) in sys.iter_refs() {
            assert!(sched.completion(st) <= Rat::int(s.deadline));
        }
    }

    #[test]
    fn fig2c_sfq_pdb_schedule() {
        // Fig. 2(c): PD^B postpones the DVQ allocations of Fig. 2(b) to
        // slot boundaries: B1 and C1 run in slot 2 (blocking D2, E2), so
        // D2, E2 run in slot 3 and F2 in slot 4 — F2 misses its deadline
        // (4) by exactly one quantum.
        let sys = fig2_system();
        let sched = simulate_sfq_pdb(&sys, 2, &mut FullQuantum);
        assert_eq!(slot(&sys, &sched, 3, 1), 0); // D1
        assert_eq!(slot(&sys, &sched, 4, 1), 0); // E1
        assert_eq!(slot(&sys, &sched, 5, 1), 1); // F1
        assert_eq!(slot(&sys, &sched, 0, 1), 1); // A1
        assert_eq!(slot(&sys, &sched, 1, 1), 2); // B1 — eligibility-blocks D2
        assert_eq!(slot(&sys, &sched, 2, 1), 2); // C1 — eligibility-blocks E2
        assert_eq!(slot(&sys, &sched, 3, 2), 3); // D2 (deadline 4: met)
        assert_eq!(slot(&sys, &sched, 4, 2), 3); // E2 (deadline 4: met)
        let f2 = find(&sys, 5, 2);
        // F2: deadline 4, completes at 5 ⇒ tardiness exactly one quantum.
        assert_eq!(sched.completion(f2), Rat::int(5));
        assert_eq!(sys.subtask(f2).deadline, 4);
    }

    #[test]
    fn epdf_differs_from_pd2_only_in_tiebreaks() {
        // On this simple set EPDF (deadline + id) happens to produce the
        // same slot-0 picks as PD²; sanity-check the driver under both.
        let sys = fig2_system();
        let a = simulate_sfq(&sys, 2, &Pd2, &mut FullQuantum);
        let b = simulate_sfq(&sys, 2, &Epdf, &mut FullQuantum);
        assert_eq!(a.placements().len(), b.placements().len());
    }

    #[test]
    fn idle_slots_are_skipped() {
        // One light task: subtasks at r = 0 and r = 6; the driver must
        // jump over the empty slots rather than spin.
        let sys = release::periodic(&[(1, 6)], 12);
        let sched = simulate_sfq(&sys, 1, &Pd2, &mut FullQuantum);
        let starts: Vec<i64> = sched.placements().iter().map(|p| p.start.floor()).collect();
        assert_eq!(starts, vec![0, 6]);
    }

    #[test]
    fn schedule_independent_of_cost_model() {
        let sys = fig2_system();
        let full = simulate_sfq(&sys, 2, &Pd2, &mut FullQuantum);
        let mut cheap = crate::cost::ScaledCost(Rat::new(1, 3));
        let scaled = simulate_sfq(&sys, 2, &Pd2, &mut cheap);
        for (a, b) in full.placements().iter().zip(scaled.placements()) {
            assert_eq!(a.st, b.st);
            assert_eq!(a.start, b.start);
            assert_eq!(a.holds_until, b.holds_until);
        }
        // But waste differs.
        assert_eq!(full.placements()[0].waste(), Rat::ZERO);
        assert_eq!(scaled.placements()[0].waste(), Rat::new(2, 3));
    }

    #[test]
    fn partial_selection_matches_full_sort() {
        // Many more ready tasks than processors: the select-then-sort fast
        // path must pick exactly the full sort's prefix every slot.
        let weights: Vec<(i64, i64)> = (0..24).map(|k| (1, 3 + (k % 5))).collect();
        let sys = release::periodic(&weights, 30);
        let fast = simulate_sfq(&sys, 3, &Pd2, &mut FullQuantum);
        // Reference: recompute each slot's expected set by full sort.
        for t in 0..fast.makespan().ceil() {
            let mut in_slot: Vec<_> = fast
                .placements()
                .iter()
                .filter(|p| p.start == Rat::int(t))
                .map(|p| p.st)
                .collect();
            in_slot.sort_by(|&a, &b| Pd2.cmp(&sys, a, b));
            // No subtask outside the slot may outrank the slot's worst
            // while being ready at t (ready ⇔ eligible and pred done).
            if let Some(&worst) = in_slot.last() {
                for (st, s) in sys.iter_refs() {
                    let ready = s.eligible <= t
                        && fast.start(st) > Rat::int(t) // unscheduled at t
                        && s
                            .pred
                            .is_none_or(|p| fast.start(p) < Rat::int(t));
                    if ready && in_slot.len() == 3 {
                        assert!(
                            Pd2.cmp(&sys, worst, st) == std::cmp::Ordering::Less,
                            "slot {t}: {:?} should have preempted {:?}",
                            s.id,
                            sys.subtask(worst).id
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn sticky_affinity_same_slots_fewer_switches() {
        // Enough contention that round-robin decision order would bounce
        // tasks across processors.
        let sys = release::periodic(&[(1, 2), (1, 2), (1, 2), (1, 2), (1, 2), (1, 2)], 24);
        let plain = simulate_sfq(&sys, 3, &Pd2, &mut FullQuantum);
        let sticky = simulate_sfq_with(
            &sys,
            3,
            SfqPolicy::Priority(&Pd2),
            AffinityMode::Sticky,
            &mut FullQuantum,
            &mut NoopObserver,
        );
        // Identical slot assignment…
        for (st, _) in sys.iter_refs() {
            assert_eq!(plain.start(st), sticky.start(st));
        }
        // …but sticky keeps each task on one processor here: within every
        // task, all placements share a processor.
        for task in sys.tasks() {
            let procs: std::collections::HashSet<u32> = sys
                .task_subtask_refs(task.id)
                .map(|st| sticky.placement(st).proc)
                .collect();
            assert_eq!(procs.len(), 1, "task {:?} migrated under sticky", task.id);
        }
    }

    #[test]
    fn respects_processor_limit() {
        let sys = release::periodic(&[(1, 1), (1, 1), (1, 1)], 4);
        let sched = simulate_sfq(&sys, 2, &Pd2, &mut FullQuantum);
        for t in 0..8 {
            assert!(sched.executing_in_slot(t).count() <= 2);
        }
    }
}
