//! The staggered model of Holman & Anderson (RTAS 2004).
//!
//! A "slight variant of the SFQ model" designed to reduce bus contention on
//! symmetric multiprocessors: processor `k`'s quantum boundaries are offset
//! by a *fixed* `k/M`, so quantum starting points are "distributed on
//! different processors uniformly over the interval of each quantum". All
//! quanta are still uniform in size (one unit) and the system is still
//! non-work-conserving: a subtask that yields early leaves the rest of its
//! quantum unused, exactly as under SFQ.
//!
//! The model sits between SFQ and DVQ: decisions are desynchronized across
//! processors (like DVQ) but at *fixed* per-processor times with
//! *fixed-size* quanta (like SFQ). The waste/reclamation experiment (E5)
//! runs all three side by side.
//!
//! The event loop runs on exact [`Rat`] times over the DVQ loop's ready
//! set (the deadline-bucketed key queue for keyed orders, the comparator
//! scan otherwise; see `ready.rs`).

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use pfair_core::priority::PriorityOrder;
use pfair_numeric::{Rat, Time};
use pfair_obs::{NoopObserver, Observer};
use pfair_taskmodel::{SubtaskRef, TaskSystem};

use crate::cost::CostModel;
use crate::emit::Recorder;
use crate::ready::{with_ready_set, ReadySet};
use crate::schedule::{QuantumModel, Schedule};

#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
enum Event {
    /// Processor `k` reached one of its quantum boundaries.
    Boundary(u32),
    /// A subtask became ready.
    Activate(SubtaskRef),
}

/// Simulates `sys` on `m` processors under the staggered-quantum model.
///
/// Processor `k` makes scheduling decisions at times `k/m, k/m + 1, …` and
/// holds whatever it schedules until its next boundary.
#[must_use]
pub fn simulate_staggered(
    sys: &TaskSystem,
    m: u32,
    order: &dyn PriorityOrder,
    cost: &mut dyn CostModel,
) -> Schedule {
    simulate_staggered_observed(sys, m, order, cost, &mut NoopObserver)
}

/// Hard liveness check at the end of each batch: with nothing ready and no
/// activation in flight, the boundary events would respin forever without
/// placing anything — a lost-event bug this driver must surface loudly
/// (also in release builds) rather than hang on.
fn check_liveness(
    now: Time,
    has_ready: bool,
    pending_activates: usize,
    placed: usize,
    total: usize,
) {
    assert!(
        has_ready || pending_activates > 0 || placed >= total,
        "staggered driver stuck at {now}: nothing is ready, no activation is \
         pending, yet only {placed}/{total} subtasks are placed (lost \
         readiness: broken predecessor chain or eligible time?)"
    );
}

/// [`simulate_staggered`] with a streaming [`Observer`] attached. With
/// [`NoopObserver`] this monomorphizes to exactly [`simulate_staggered`]'s
/// code (every emission site is gated by the compile-time `O::ENABLED`).
#[must_use]
pub fn simulate_staggered_observed<O: Observer>(
    sys: &TaskSystem,
    m: u32,
    order: &dyn PriorityOrder,
    cost: &mut dyn CostModel,
    obs: &mut O,
) -> Schedule {
    assert!(m >= 1, "need at least one processor");
    with_ready_set!(sys, order, |ready| run_staggered(sys, m, ready, cost, obs))
}

/// The staggered event loop over the ready set `ready`.
fn run_staggered<R: ReadySet<Key = SubtaskRef>, O: Observer>(
    sys: &TaskSystem,
    m: u32,
    mut ready: R,
    cost: &mut dyn CostModel,
    obs: &mut O,
) -> Schedule {
    let total = sys.num_subtasks();
    // Every chain head activates at its eligibility time; processor
    // `k`'s first boundary is at `k/m`.
    let mut events: BinaryHeap<Reverse<(Time, Event)>> = BinaryHeap::new();
    let mut pending_activates = 0usize;
    for task in sys.tasks() {
        if let Some(head) = sys.task_subtask_refs(task.id).next() {
            let e = Rat::int(sys.subtask(head).eligible);
            events.push(Reverse((e, Event::Activate(head))));
            pending_activates += 1;
        }
    }
    for k in 0..m {
        let b = Rat::new(i64::from(k), i64::from(m));
        events.push(Reverse((b, Event::Boundary(k))));
    }
    let mut rec = Recorder::new(sys, obs);
    // This instant's boundary-crossing processors, reused across batches.
    let mut boundaries: Vec<u32> = Vec::with_capacity(m as usize);

    while rec.placed() < total {
        let Some(&Reverse((now, _))) = events.peek() else {
            // Boundary events re-arm themselves while work remains, so
            // the queue can only drain if this driver lost one — abort
            // loudly (also in release builds) rather than looping
            // forever.
            panic!(
                "staggered event queue drained with only {placed}/{total} subtasks \
                 placed: a Boundary/Activate event was lost",
                placed = rec.placed()
            );
        };
        rec.open_instant(now);
        boundaries.clear();
        while let Some(&Reverse((t, ev))) = events.peek() {
            if t != now {
                break;
            }
            events.pop();
            match ev {
                Event::Boundary(k) => boundaries.push(k),
                Event::Activate(st) => {
                    pending_activates -= 1;
                    rec.report_ready(now, [(st, now)]);
                    ready.push(st, st.0);
                }
            }
        }
        // Serve the crossings in ascending processor order; every
        // placement holds until the processor's next boundary.
        boundaries.sort_unstable();
        let next_b = now + Rat::ONE;
        let mut idle_procs = 0u32;
        for &proc in &boundaries {
            if let Some(st) = ready.pop_best().map(SubtaskRef) {
                let c = rec.place(st, proc, now, next_b, cost);
                // The successor becomes ready once both eligible and
                // its predecessor (this subtask) has completed.
                if let Some(succ) = sys.subtask(st).succ {
                    let at = Rat::int(sys.subtask(succ).eligible).max(now + c);
                    events.push(Reverse((at, Event::Activate(succ))));
                    pending_activates += 1;
                }
            } else {
                idle_procs += 1;
            }
            // The processor re-examines the world at its next boundary
            // whether or not it scheduled anything.
            if rec.placed() < total {
                events.push(Reverse((next_b, Event::Boundary(proc))));
            }
        }
        rec.report_idle(now, idle_procs);
        check_liveness(
            now,
            !ready.is_empty(),
            pending_activates,
            rec.placed(),
            total,
        );
    }
    rec.into_schedule(QuantumModel::Staggered, m)
}

#[cfg(test)]
mod tests {
    use super::*;
    use pfair_core::Pd2;
    use pfair_taskmodel::release;

    use crate::cost::{FullQuantum, ScaledCost};

    #[test]
    fn boundaries_are_staggered() {
        let sys = release::periodic(&[(1, 2), (1, 2), (1, 2), (1, 2)], 8);
        let sched = simulate_staggered(&sys, 4, &Pd2, &mut FullQuantum);
        for p in sched.placements() {
            // Every start time on processor k is ≡ k/4 (mod 1).
            assert_eq!(
                p.start.fract(),
                Rat::new(i64::from(p.proc), 4),
                "proc {} start {}",
                p.proc,
                p.start
            );
        }
    }

    #[test]
    fn non_work_conserving_waste() {
        let sys = release::periodic(&[(1, 1), (1, 1)], 4);
        let mut half = ScaledCost(Rat::new(1, 2));
        let sched = simulate_staggered(&sys, 2, &Pd2, &mut half);
        for p in sched.placements() {
            assert_eq!(p.waste(), Rat::new(1, 2));
        }
    }

    #[test]
    fn single_processor_matches_sfq_timing() {
        // With m = 1 the stagger offset is 0 and boundaries are integral:
        // identical decisions to SFQ.
        let sys = release::periodic(&[(3, 4), (1, 2)], 8);
        let stag = simulate_staggered(&sys, 1, &Pd2, &mut FullQuantum);
        let sfq = crate::sfq::simulate_sfq(&sys, 1, &Pd2, &mut FullQuantum);
        for (st, _) in sys.iter_refs() {
            assert_eq!(stag.start(st), sfq.start(st));
        }
    }

    #[test]
    fn respects_eligibility_at_fractional_boundaries() {
        // Processor 1 (boundary at 1/2) must not run a subtask eligible at
        // time 1 before time 1; its first chance is 3/2.
        let sys = release::periodic(&[(1, 2)], 4);
        // Subtask 2 of wt 1/2 has r = e = 2.
        let sched = simulate_staggered(&sys, 2, &Pd2, &mut FullQuantum);
        for (st, s) in sys.iter_refs() {
            assert!(sched.start(st) >= Rat::int(s.eligible));
        }
    }

    #[test]
    fn all_subtasks_eventually_run() {
        let sys = release::periodic(&[(1, 3), (2, 5), (1, 2)], 30);
        let sched = simulate_staggered(&sys, 2, &Pd2, &mut FullQuantum);
        assert_eq!(sched.placements().len(), sys.num_subtasks());
    }

    #[test]
    fn stuck_scheduler_panics_with_diagnostics() {
        // The liveness check must fire — with a diagnosable message — on
        // the state a lost Activate event would leave behind: nothing
        // ready, nothing pending, subtasks unplaced. (The public API cannot
        // reach this state precisely because the check guards every batch.)
        let err = std::panic::catch_unwind(|| {
            check_liveness(Rat::new(7, 2), false, 0, 3, 5);
        })
        .expect_err("stuck state must panic");
        let msg = err.downcast_ref::<String>().cloned().unwrap_or_default();
        assert!(msg.contains("stuck at 7/2"), "got: {msg}");
        assert!(msg.contains("3/5 subtasks"), "got: {msg}");
    }

    #[test]
    fn liveness_check_accepts_live_states() {
        // Ready work, a pending activation, or completion each keep the
        // driver alive; idle gaps between releases must not trip it.
        check_liveness(Rat::int(4), true, 0, 3, 5);
        check_liveness(Rat::int(4), false, 2, 3, 5);
        check_liveness(Rat::int(4), false, 0, 5, 5);
        // End-to-end: a release gap (subtasks at r = 0 and r = 6) makes
        // every intermediate batch boundary-only; the run must still
        // complete rather than being misdiagnosed as stuck.
        let sys = release::periodic(&[(1, 6)], 12);
        let sched = simulate_staggered(&sys, 2, &Pd2, &mut FullQuantum);
        assert_eq!(sched.placements().len(), 2);
        let starts: Vec<i64> = sched.placements().iter().map(|p| p.start.floor()).collect();
        assert_eq!(starts, vec![0, 6]);
    }
}
