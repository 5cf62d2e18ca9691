//! A tick-driven online scheduler — the SFQ model as an OS kernel would
//! host it.
//!
//! Where [`crate::OnlineDvq`] is event-driven (the DVQ model),
//! [`OnlineSfq`] matches the classical integration: a periodic timer
//! interrupt fires at every slot boundary, the kernel calls
//! [`OnlineSfq::tick`], and the scheduler answers with the ≤ M subtasks to
//! run for the next quantum. Early completions within the slot are simply
//! not reported — the SFQ model holds each processor to the boundary, so
//! the scheduler needs no mid-slot upcalls at all (that simplicity is
//! exactly what the paper's §1 trades against the wasted yield tails).
//!
//! [`OnlineSfq`] is a unit-cost driver of the [`DvqKernel`]
//! (`pfair_sim::kernel`): when every
//! quantum runs its full length the DVQ model makes exactly the SFQ
//! model's decisions. A tick at slot `t` opens the kernel's batch at `t`,
//! applies the chain activations queued there, dispatches with every cost
//! fixed at one quantum and frees each dispatched processor at once. Ready
//! set, dispatch order (the kernel's [`crate::Pd2Key`] heap) and emission
//! are the kernel's; equivalence with the offline SFQ simulator is
//! asserted in this module's tests and in `tests/online_equivalence.rs`.

use pfair_numeric::Rat;
use pfair_obs::{NoopObserver, Observer};
use pfair_taskmodel::{TaskId, Weight};

use pfair_sim::kernel::DvqKernel;

use crate::{OnlineError, Pd2Key};

/// A subtask handed out by [`OnlineSfq::tick`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TickAssignment {
    /// The task.
    pub task: TaskId,
    /// The subtask index.
    pub index: u64,
    /// Processor (decision order, `0..M`).
    pub proc: u32,
    /// The subtask's pseudo-deadline.
    pub deadline: i64,
}

/// Tick-driven online SFQ scheduler (PD² priorities).
#[derive(Debug)]
pub struct OnlineSfq {
    kernel: DvqKernel,
}

impl OnlineSfq {
    /// A scheduler over `m ≥ 1` processors; the first tick is slot 0.
    ///
    /// # Panics
    /// Panics if `m == 0`.
    #[must_use]
    pub fn new(m: u32) -> OnlineSfq {
        OnlineSfq {
            kernel: DvqKernel::new(m, false),
        }
    }

    /// Registers a task.
    pub fn add_task(&mut self, weight: Weight) -> TaskId {
        self.kernel.add_task(weight)
    }

    /// The next slot boundary `tick` will serve.
    #[must_use]
    pub fn next_slot(&self) -> i64 {
        self.kernel.now().floor()
    }

    /// Submits the next job of `task`, released at slot `at` (sporadic
    /// separation enforced; must not precede the next tick).
    ///
    /// # Errors
    /// [`OnlineError`] on separation, past, unknown-task or window-overflow violations.
    pub fn submit_job(&mut self, task: TaskId, at: i64) -> Result<(), OnlineError> {
        self.submit_job_observed(task, at, &mut NoopObserver)
    }

    /// [`Self::submit_job`] with a streaming [`Observer`] attached: emits a
    /// [`pfair_obs::SchedEvent::Released`] for every subtask the job
    /// contributes.
    ///
    /// # Errors
    /// [`OnlineError`] on separation, past, unknown-task or window-overflow violations.
    pub fn submit_job_observed<O: Observer>(
        &mut self,
        task: TaskId,
        at: i64,
        obs: &mut O,
    ) -> Result<(), OnlineError> {
        self.kernel.submit_job(
            task,
            at,
            |w, id, theta| Pd2Key::of(w, id, id.index, theta),
            obs,
        )
    }

    /// The timer interrupt: decides slot `self.next_slot()` and returns
    /// the ≤ M subtasks to run, in decision (processor) order.
    pub fn tick(&mut self) -> Vec<TickAssignment> {
        self.tick_observed(&mut NoopObserver)
    }

    /// [`Self::tick`] with a streaming [`Observer`] attached. With
    /// [`NoopObserver`] this monomorphizes to exactly [`Self::tick`]'s code
    /// (every emission site is gated by the compile-time `O::ENABLED`).
    /// Each dispatched quantum's end and deadline verdict are emitted
    /// within the same tick — under the SFQ model the quantum provably
    /// holds its processor to the boundary at `t + 1`, so nothing about it
    /// remains unknown at decision time.
    pub fn tick_observed<O: Observer>(&mut self, obs: &mut O) -> Vec<TickAssignment> {
        let t = self.kernel.now();
        self.kernel.open(t, obs);
        while self.kernel.apply_at(t, obs) {}
        let mut log = Vec::new();
        self.kernel.dispatch(|_, _| Rat::ONE, &mut log, obs);
        for a in &log {
            self.kernel.free(a.proc, obs);
        }
        // Submissions from here on must not precede the next slot.
        self.kernel.wait_until(t + Rat::ONE);
        log.into_iter()
            .map(|a| TickAssignment {
                task: a.task,
                index: a.index,
                proc: a.proc,
                deadline: a.deadline,
            })
            .collect()
    }

    /// `true` iff no submitted work remains.
    #[must_use]
    pub fn is_idle(&self) -> bool {
        self.kernel.peek().is_none() && self.kernel.is_drained()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pfair_core::Pd2;
    use pfair_numeric::Rat;
    use pfair_sim::{simulate_sfq, FullQuantum};
    use pfair_taskmodel::{SubtaskId, TaskSystemBuilder};

    /// Drive both the tick scheduler and the offline SFQ simulator on the
    /// same periodic workload; their decisions must match slot for slot.
    #[test]
    fn tick_matches_offline_sfq() {
        let weights = [
            Weight::new(1, 6),
            Weight::new(1, 6),
            Weight::new(1, 6),
            Weight::new(1, 2),
            Weight::new(1, 2),
            Weight::new(1, 2),
        ];
        let jobs = 2u64;

        let mut s = OnlineSfq::new(2);
        let ids: Vec<TaskId> = weights.iter().map(|&w| s.add_task(w)).collect();
        for (&t, &w) in ids.iter().zip(&weights) {
            for j in 0..jobs {
                s.submit_job(t, j as i64 * w.p()).unwrap();
            }
        }

        let mut b = TaskSystemBuilder::new();
        for &w in &weights {
            let t = b.add_task(w);
            for i in 1..=jobs * w.e() as u64 {
                b.push(t, i, 0, None).unwrap();
            }
        }
        let sys = b.build();
        let offline = simulate_sfq(&sys, 2, &Pd2, &mut FullQuantum);

        let mut ticked = 0usize;
        while !s.is_idle() {
            let slot = s.next_slot();
            for a in s.tick() {
                let st = sys
                    .find(SubtaskId {
                        task: a.task,
                        index: a.index,
                    })
                    .unwrap();
                assert_eq!(
                    offline.start(st),
                    Rat::int(slot),
                    "T{}_{}",
                    a.task.0,
                    a.index
                );
                assert_eq!(offline.placement(st).proc, a.proc);
                ticked += 1;
            }
        }
        assert_eq!(ticked, sys.num_subtasks());
    }

    #[test]
    fn deadlines_met_at_full_utilization() {
        let mut s = OnlineSfq::new(2);
        let ids: Vec<(TaskId, Weight)> = [(1i64, 2i64); 4]
            .iter()
            .map(|&(e, p)| {
                let w = Weight::new(e, p);
                (s.add_task(w), w)
            })
            .collect();
        for j in 0..10i64 {
            for &(t, w) in &ids {
                s.submit_job(t, j * w.p()).unwrap();
            }
        }
        while !s.is_idle() {
            let slot = s.next_slot();
            for a in s.tick() {
                // Running in slot t completes at t + 1 ≤ deadline.
                assert!(slot < a.deadline, "{a:?} late at slot {slot}");
            }
        }
    }

    #[test]
    fn empty_ticks_are_fine() {
        let mut s = OnlineSfq::new(2);
        let t = s.add_task(Weight::new(1, 2));
        s.submit_job(t, 3).unwrap();
        assert!(s.tick().is_empty()); // slot 0
        assert!(s.tick().is_empty()); // slot 1
        assert!(s.tick().is_empty()); // slot 2
        let a = s.tick(); // slot 3
        assert_eq!(a.len(), 1);
        assert_eq!(a[0].index, 1);
    }

    #[test]
    fn submission_rules_enforced() {
        let mut s = OnlineSfq::new(1);
        let t = s.add_task(Weight::new(1, 2));
        s.submit_job(t, 0).unwrap();
        assert!(matches!(
            s.submit_job(t, 1),
            Err(OnlineError::TooEarly { .. })
        ));
        let _ = s.tick();
        let _ = s.tick();
        let _ = s.tick(); // next slot is now 3
        assert!(matches!(
            s.submit_job(t, 2), // separation OK (≥ 0 + 2), but in the past
            Err(OnlineError::InThePast { .. })
        ));
    }
}
