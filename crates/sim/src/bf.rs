//! The Boundary-Fair (BF) engine: allocation decisions at period
//! boundaries only.
//!
//! Pfair schedulers decide every slot; BF (Zhu, Mossé & Melhem; the
//! DP-Fair family follows the same shape) decides only at **period
//! boundaries** — the distinct multiples of task periods — and hands each
//! task a whole number of quanta per boundary interval. Between boundaries
//! the per-task allocations are laid out by McNaughton's wrap-around rule,
//! so the number of scheduling decisions (and hence context switches)
//! collapses from one per slot to one per boundary.
//!
//! At each boundary `b` with successor `b'` (interval length `L = b' − b`),
//! every task `T` with remaining units receives:
//!
//! * **mandatory** units `m_T = max(0, ⌊PW_T⌋)` where
//!   `PW_T = fluid_T(b') − alloc_T` is the pending work against the fluid
//!   allocation `fluid_T(t) = min(wt(T)·t, n_T)` (`n_T` = released units),
//!   computed in exact rational arithmetic; and
//! * at most one **optional** unit, granted from the interval's spare
//!   capacity `m·L − Σ m_T` to the tasks with a fractional remainder, in
//!   the PD² order of the unit each grant would hand out (the task's
//!   first unit past its allocated and mandatory ones).
//!
//! The optional rule is the Pfair reading of Zhu, Mossé & Melhem's rule,
//! which ranks tasks by characteristic string: PF compares exactly those
//! strings through its deadline / b-bit / successor chain, and PD² is the
//! constant-time Pfair order that replaces the successor chain with the
//! group deadline. Ranking the unit each grant hands out by PD² grants
//! the most urgent future work first. Ranking by largest fractional
//! remainder instead lets light tasks take an interval's spare and leaves
//! heavier ones owing more mandatory units in a later interval than it
//! has slots: m = 3, weights 1/9 ×3, 1/1, 1/2 ×2, 2/3 then over-commits
//! `[5, 6)` at horizon 6 or 18 (`tests/bf_feasibility.rs`).
//!
//! Allocations are exact at each task's own period boundaries (the
//! boundary lag lies in `(−1, 1)` and fluid is integral there), so every
//! **job** deadline is met on feasible systems. Subtask (Pfair) windows are
//! *not* respected — BF legitimately runs a unit earlier or later than its
//! Pfair window — which is exactly the trade the family makes for fewer
//! preemptions; the conformance suite therefore checks BF schedules
//! against its own boundary-conservation invariant, never against the
//! Pfair structural bank.
//!
//! BF is defined for synchronous periodic systems (subtasks `1..n`, no IS
//! offsets, no early releasing). [`simulate_bf`] fails fast on anything
//! else; use [`is_boundary_periodic`] to gate.
//!
//! Like SFQ, BF is slot-based and non-work-conserving: the *schedule* is
//! independent of the cost model; only completions and waste depend on it.

use pfair_core::{Pd2, PriorityOrder};
use pfair_numeric::Rat;
use pfair_obs::{NoopObserver, Observer};
use pfair_taskmodel::{SubtaskRef, TaskId, TaskSystem};

use crate::cost::CostModel;
use crate::schedule::{QuantumModel, Schedule};
use crate::slotplay::{replay, Cell};

/// Whether `sys` is a synchronous periodic system — the class BF is
/// defined on: every task released exactly subtasks `1..n` with zero IS
/// offset and no early releasing.
#[must_use]
pub fn is_boundary_periodic(sys: &TaskSystem) -> bool {
    sys.tasks().iter().all(|task| {
        sys.task_subtasks(task.id)
            .iter()
            .enumerate()
            .all(|(k, s)| s.id.index == (k as u64) + 1 && s.theta == 0 && s.eligible == s.release)
    })
}

/// Simulates `sys` on `m` processors under the Boundary-Fair rules.
///
/// # Panics
/// Panics unless `m ≥ 1` and `sys` is synchronous periodic
/// ([`is_boundary_periodic`]), or if an interval's mandatory demand
/// exceeds the interval or its capacity. With optional units granted in
/// PD² order those two asserts cannot fire on a feasible system
/// (`Σ wt ≤ m`), which is BF's optimality argument; they stay as checks
/// of it. `tests/bf_feasibility.rs` runs every small system over periods
/// {1, 2, 3, 9} at every horizon up to the hyperperiod, and the fuzz
/// campaign's `bf-boundary-conservation` runs BF on every synchronous
/// periodic case.
#[must_use]
pub fn simulate_bf(sys: &TaskSystem, m: u32, cost: &mut dyn CostModel) -> Schedule {
    simulate_bf_observed(sys, m, cost, &mut NoopObserver)
}

/// [`simulate_bf`] with a streaming [`Observer`] attached. With
/// [`NoopObserver`] this monomorphizes to exactly [`simulate_bf`]'s code.
#[must_use]
pub fn simulate_bf_observed<O: Observer>(
    sys: &TaskSystem,
    m: u32,
    cost: &mut dyn CostModel,
    obs: &mut O,
) -> Schedule {
    assert!(m >= 1, "need at least one processor");
    assert!(
        is_boundary_periodic(sys),
        "BF is defined for synchronous periodic systems: every task must \
         release subtasks 1..n with zero IS offset and no early releasing \
         (got a GIS/IS/early-release system; use a Pfair engine instead)"
    );
    let cells = bf_slot_table(sys, m);
    replay(sys, QuantumModel::Bf, m, cells, cost, obs)
}

/// The sorted distinct period boundaries of `sys`, from `0` through the
/// last boundary at which any task still has fluid demand.
///
/// For a task with `n` released units and reduced weight `e/p`, fluid
/// demand ends at `n·p/e`, so its own boundaries are `p, 2p, …, ⌈n/e⌉·p`.
#[must_use]
pub fn bf_boundaries(sys: &TaskSystem) -> Vec<i64> {
    let mut bounds = vec![0i64];
    for task in sys.tasks() {
        let n = sys.task_subtasks(task.id).len() as i64;
        let (e, p) = (task.weight.e(), task.weight.p());
        let jobs = pfair_numeric::ceil_div(n, e);
        for k in 1..=jobs {
            bounds.push(k * p);
        }
    }
    bounds.sort_unstable();
    bounds.dedup();
    bounds
}

/// Computes the full BF slot table: per boundary interval, mandatory +
/// optional units per task, laid out by McNaughton wrap-around.
fn bf_slot_table(sys: &TaskSystem, m: u32) -> Vec<Cell> {
    let n_tasks = sys.num_tasks();
    let bounds = bf_boundaries(sys);
    // Units already allocated per task, and the next unscheduled subtask.
    let mut alloc: Vec<i64> = vec![0; n_tasks];
    let mut cursor: Vec<u32> = (0..n_tasks)
        .map(|k| sys.task_span(TaskId(k as u32)).0)
        .collect();
    let mut cells: Vec<Cell> = Vec::with_capacity(sys.num_subtasks());
    // Per-interval allocation `a[k]` and the optional-unit candidates
    // `(unit the optional grant would receive, task)`.
    let mut a: Vec<i64> = vec![0; n_tasks];
    let mut candidates: Vec<(SubtaskRef, usize)> = Vec::new();

    for w in bounds.windows(2) {
        let (b, b2) = (w[0], w[1]);
        let len = b2 - b;
        a.iter_mut().for_each(|x| *x = 0);
        candidates.clear();
        let mut mandatory_total = 0i64;
        for (k, task) in sys.tasks().iter().enumerate() {
            let n = sys.task_subtasks(task.id).len() as i64;
            if alloc[k] >= n {
                continue;
            }
            let fluid = (task.weight.as_rat() * Rat::int(b2)).min(Rat::int(n));
            let pw = fluid - Rat::int(alloc[k]);
            if !pw.is_positive() {
                continue;
            }
            let mand = pw.floor();
            assert!(
                mand <= len,
                "BF: task {:?} mandatory {mand} exceeds interval [{b}, {b2})",
                task.id
            );
            a[k] = mand;
            mandatory_total += mand;
            if pw > Rat::int(mand) && mand < len {
                // `pw ≤ n − alloc`, so a fractional remainder means the
                // task has a unit beyond its mandatory ones.
                let next = u32::try_from(mand).expect("mandatory units fit u32");
                candidates.push((SubtaskRef(cursor[k] + next), k));
            }
        }
        let capacity = i64::from(m) * len;
        assert!(
            mandatory_total <= capacity,
            "BF: interval [{b}, {b2}) over-committed: mandatory {mandatory_total} \
             > capacity {capacity} (the system is infeasible on {m} processors)"
        );
        let spare = capacity - mandatory_total;
        // Urgency order: the Pfair (PD²) priority of the unit each grant
        // would hand out; `Pd2::cmp` is total, so the order is
        // deterministic.
        candidates.sort_unstable_by(|x, y| Pd2.cmp(sys, x.0, y.0));
        for &(_, k) in candidates.iter().take(spare as usize) {
            a[k] += 1;
        }

        // McNaughton wrap-around: concatenate the per-task allocations into
        // one tape of `Σ a[k] ≤ m·len` unit cells and cut it every `len`
        // cells, one strip per processor. Each task's `a[k] ≤ len`
        // consecutive cells land in distinct slots, so a task never runs on
        // two processors in the same slot; assigning its subtasks in index
        // order to its occupied slots sorted ascending keeps precedence.
        let mut tape = 0i64;
        for k in 0..n_tasks {
            if a[k] == 0 {
                continue;
            }
            let mut mine: Vec<(i64, u32)> = (0..a[k])
                .map(|j| {
                    let cell = tape + j;
                    (b + cell % len, (cell / len) as u32)
                })
                .collect();
            tape += a[k];
            mine.sort_unstable();
            for (slot, proc) in mine {
                let st = SubtaskRef(cursor[k]);
                cursor[k] += 1;
                alloc[k] += 1;
                cells.push(Cell { slot, proc, st });
            }
        }
    }
    cells
}

#[cfg(test)]
mod tests {
    use super::*;
    use pfair_taskmodel::release;
    use proptest::prelude::*;

    use crate::cost::{FullQuantum, ScaledCost};
    use crate::fig2_system;

    /// All job deadlines met: for every task with weight `e/p`, the `j`-th
    /// job's units (indices `(j−1)e+1 ..= je`) complete by `j·p`.
    fn assert_job_deadlines_met(sys: &TaskSystem, sched: &Schedule) {
        for task in sys.tasks() {
            let (e, p) = (task.weight.e(), task.weight.p());
            for (k, st) in sys.task_subtask_refs(task.id).enumerate() {
                let job = (k as i64) / e + 1;
                let job_deadline = job * p;
                assert!(
                    sched.placement(st).holds_until <= Rat::int(job_deadline),
                    "task {:?} unit {} past its job deadline {job_deadline}",
                    task.id,
                    k + 1,
                );
            }
        }
    }

    fn assert_capacity_respected(sys: &TaskSystem, sched: &Schedule, m: u32) {
        let horizon = sched.makespan().ceil();
        for t in 0..horizon {
            assert!(sched.executing_in_slot(t).count() <= m as usize);
            // No task on two processors in one slot.
            let mut tasks: Vec<u32> = sched
                .executing_in_slot(t)
                .map(|pl| sys.subtask(pl.st).id.task.0)
                .collect();
            tasks.sort_unstable();
            tasks.dedup();
            assert_eq!(
                tasks.len(),
                sched.executing_in_slot(t).count(),
                "intra-task parallelism in slot {t}"
            );
        }
    }

    #[test]
    fn boundaries_of_fig2() {
        let sys = fig2_system();
        assert_eq!(bf_boundaries(&sys), vec![0, 2, 4, 6]);
    }

    #[test]
    fn fig2_bf_meets_all_job_deadlines() {
        let sys = fig2_system();
        let sched = simulate_bf(&sys, 2, &mut FullQuantum);
        assert_job_deadlines_met(&sys, &sched);
        assert_capacity_respected(&sys, &sched, 2);
    }

    #[test]
    fn allocation_exact_at_own_boundaries() {
        // At every multiple of a task's period, the units it has received
        // equal its fluid allocation exactly.
        let sys = release::periodic(&[(2, 5), (1, 2), (3, 10), (1, 5)], 10);
        let sched = simulate_bf(&sys, 2, &mut FullQuantum);
        for task in sys.tasks() {
            let p = task.weight.p();
            let e = task.weight.e();
            let mut bound = p;
            while bound <= 10 {
                let got = sys
                    .task_subtask_refs(task.id)
                    .filter(|&st| sched.placement(st).holds_until <= Rat::int(bound))
                    .count() as i64;
                assert_eq!(
                    got,
                    bound / p * e,
                    "task {:?} allocation at boundary {bound}",
                    task.id
                );
                bound += p;
            }
        }
    }

    #[test]
    fn full_utilization_hyperperiod_is_tight() {
        // U = 2 on m = 2: every slot of the hyperperiod must be full and
        // every job deadline met.
        let sys = release::periodic(&[(1, 2), (1, 3), (1, 6), (2, 2)], 6);
        assert_eq!(sys.utilization(), Rat::int(2));
        let sched = simulate_bf(&sys, 2, &mut FullQuantum);
        assert_job_deadlines_met(&sys, &sched);
        for t in 0..6 {
            assert_eq!(sched.executing_in_slot(t).count(), 2, "slot {t} not full");
        }
    }

    #[test]
    fn schedule_independent_of_cost_model() {
        let sys = fig2_system();
        let full = simulate_bf(&sys, 2, &mut FullQuantum);
        let scaled = simulate_bf(&sys, 2, &mut ScaledCost(Rat::new(1, 3)));
        for (x, y) in full.placements().iter().zip(scaled.placements()) {
            assert_eq!(x.st, y.st);
            assert_eq!(x.start, y.start);
            assert_eq!(x.proc, y.proc);
        }
        assert_eq!(scaled.placements()[0].waste(), Rat::new(2, 3));
    }

    #[test]
    fn partial_last_job_is_still_placed() {
        // Horizon not a multiple of the period: the trailing partial job's
        // units are all placed by the final boundary.
        let sys = release::periodic(&[(2, 3)], 4);
        let sched = simulate_bf(&sys, 1, &mut FullQuantum);
        assert_eq!(sched.placements().len(), sys.num_subtasks());
        assert_capacity_respected(&sys, &sched, 1);
    }

    #[test]
    #[should_panic(expected = "synchronous periodic")]
    fn rejects_non_periodic_systems() {
        // Shift windows but not eligibility: an IS offset with early
        // releasing, outside BF's domain.
        let sys = release::periodic(&[(1, 2)], 4).shifted(1, 0);
        let _ = simulate_bf(&sys, 1, &mut FullQuantum);
    }

    proptest! {
        /// Random periodic systems at or below `⌈U⌉ ≤ 4` processors: BF
        /// never trips its capacity asserts, meets every job deadline,
        /// and respects per-slot capacity and task exclusivity.
        #[test]
        fn prop_bf_meets_job_deadlines(
            raw in proptest::collection::vec((1i64..=8, 1i64..=8), 1..5)
        ) {
            let weights: Vec<(i64, i64)> =
                raw.iter().map(|&(a, p)| (a.min(p), p)).collect();
            let hyper = weights
                .iter()
                .fold(1i64, |acc, &(_, p)| pfair_numeric::lcm(acc, p));
            let sys = release::periodic(&weights, hyper);
            let u = sys.utilization();
            let m = u32::try_from(u.ceil().max(1)).expect("small m");
            prop_assume!(m <= 4);
            let sched = simulate_bf(&sys, m, &mut FullQuantum);
            assert_job_deadlines_met(&sys, &sched);
            assert_capacity_respected(&sys, &sched, m);
        }
    }

    #[test]
    fn randomized_periodic_soak() {
        // A deterministic sweep over mixed-weight systems at and below full
        // utilization: BF must meet every job deadline, respect capacity,
        // and never trip its interval asserts.
        let menus: &[&[(i64, i64)]] = &[
            &[(1, 2), (1, 3), (1, 6)],
            &[(3, 4), (2, 3), (5, 12), (1, 12)],
            &[(1, 5), (2, 5), (3, 5), (4, 5)],
            &[(7, 8), (5, 6), (1, 8), (1, 3)],
            &[(2, 7), (3, 7), (5, 7), (4, 7), (6, 7)],
            &[(1, 10), (9, 10), (1, 2), (1, 2)],
        ];
        for (mi, weights) in menus.iter().enumerate() {
            let hyper = weights
                .iter()
                .fold(1i64, |acc, &(_, p)| pfair_numeric::lcm(acc, p));
            let sys = release::periodic(weights, 2 * hyper);
            let u = sys.utilization();
            let m = u32::try_from(u.ceil().max(1)).expect("small m");
            let sched = simulate_bf(&sys, m, &mut FullQuantum);
            assert_job_deadlines_met(&sys, &sched);
            assert_capacity_respected(&sys, &sched, m);
            assert!(mi < menus.len());
        }
    }
}
