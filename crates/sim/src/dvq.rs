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
//! [`simulate_dvq`] drives [`crate::kernel::DvqKernel`], the DVQ event
//! loop the online schedulers and the runtime run too. A subtask becomes
//! *ready* at `max(e(T_i), completion of predecessor)`; all events at an
//! instant are drained before free processors (ascending index) take ready
//! subtasks in priority order; a subtask placed at `τ` with actual cost
//! `c` frees its processor at `τ + c` — no holds, no waste. The driver
//! loads each task's chain straight from the [`TaskSystem`] (GIS, IS and
//! early releases as released; no `Released` events), opens the batch at
//! time 0 even when nothing is eligible then, and stops at the last
//! placement, announcing the ends of quanta still in flight in completion
//! order.
//!
//! With a cost model's denominator hint
//! ([`crate::cost::CostModel::denominator_hint`]) the kernel's clock runs
//! on `i64` ticks at that scale; the first cost off that grid moves it to
//! exact rationals mid-batch, losslessly, so schedules and observer
//! streams are identical down both tiers (`tick_times_match_exact_times`,
//! `mid_run_migration_is_invisible`, `tests/keyed_equivalence.rs`).

use pfair_core::priority::PriorityOrder;
use pfair_numeric::{Rat, Ticks};
use pfair_obs::{NoopObserver, Observer};
use pfair_taskmodel::{SubtaskRef, TaskSystem};

use crate::cost::{checked_cost, CostModel};
use crate::kernel::{DvqKernel, Placed, SubSpec};
use crate::ready::{with_ready_set, ReadySet};
use crate::schedule::{Placement, QuantumModel, Schedule};

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

/// The driver over the ready set `ready`: loads the chains, runs the
/// kernel batch by batch until the last placement, then flushes the
/// quanta still in flight.
fn run_dvq<R: ReadySet<Key = SubtaskRef>, O: Observer>(
    sys: &TaskSystem,
    m: u32,
    ready: R,
    cost: &mut dyn CostModel,
    obs: &mut O,
) -> Schedule {
    let scale = cost.denominator_hint().filter(|&d| d > 0).map(Ticks::new);
    let mut kernel = DvqKernel::with_ready(m, true, ready, scale);
    for task in sys.tasks() {
        let id = kernel.add_task(task.weight);
        if let Some(head) = sys.task_subtask_refs(task.id).next() {
            kernel.load(id, SubSpec::of(sys, head));
        }
    }
    let total = sys.num_subtasks();
    let mut placements: Vec<Placement> = Vec::with_capacity(total);
    let mut draw = |_, spec: &SubSpec<SubtaskRef>| checked_cost(cost.cost(sys, spec.key), spec.key);
    if total > 0 {
        // Every processor is free at time 0, so the batch there opens
        // even when nothing is eligible yet.
        kernel.open(Rat::ZERO, obs);
        kernel.run_batch(&mut draw, &mut |p| placements.push(placement(&p)), obs);
    }
    while placements.len() < total {
        // Every unplaced subtask owes the queue either an activation or
        // the completion that will trigger one, so an empty queue here is
        // a lost-event bug — abort loudly (also in release builds) rather
        // than looping forever.
        let stepped = kernel.step_with(
            None,
            &mut draw,
            &mut |p| placements.push(placement(&p)),
            obs,
        );
        assert!(
            stepped,
            "DVQ event queue drained with only {placed}/{total} subtasks placed: \
             an activation or completion event was lost (broken successor chain?)",
            placed = placements.len()
        );
    }
    if O::ENABLED {
        kernel.free_in_flight(obs);
    }
    Schedule::new(sys, QuantumModel::Dvq, m, placements)
}

/// The schedule's record of a placement.
fn placement(p: &Placed<'_, SubtaskRef>) -> Placement {
    Placement {
        st: p.spec.key,
        proc: p.proc,
        start: p.start,
        cost: p.cost,
        holds_until: p.completion,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pfair_core::key::{KeyCache, Pd2Key};
    use pfair_core::Pd2;
    use pfair_numeric::{Rat, Time};
    use pfair_obs::SchedEvent;
    use pfair_taskmodel::{release, TaskId};

    use crate::cost::{ExactOnly, FixedCosts, FullQuantum};
    use crate::{fig2_system, find};

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
