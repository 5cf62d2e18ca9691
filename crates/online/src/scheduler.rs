//! The online DVQ scheduler: the single-threaded driver of the
//! [`DvqKernel`] event loop (`pfair_sim::kernel`).
//!
//! [`OnlineDvq`] accepts **sporadic job arrivals** at runtime and plays
//! the DVQ model forward: at every instant a processor frees (a quantum
//! completes — possibly early) or a subtask becomes eligible, the
//! highest-PD²-priority ready subtask is dispatched, chosen in
//! `O(log n)` from a binary heap of [`Pd2Key`]s. Semantics are exactly
//! those of `pfair_sim::simulate_dvq` — the cross-check tests drive both
//! on identical workloads and require identical schedules.
//!
//! # Usage
//!
//! ```
//! use pfair_numeric::Rat;
//! use pfair_online::OnlineDvq;
//! use pfair_taskmodel::Weight;
//!
//! let mut sched = OnlineDvq::new(2);
//! let video = sched.add_task(Weight::new(1, 2));
//! let audio = sched.add_task(Weight::new(1, 6));
//! sched.submit_job(video, 0).unwrap();
//! sched.submit_job(audio, 0).unwrap();
//! sched.submit_job(video, 2).unwrap(); // sporadic: ≥ previous + period
//! let log = sched.run_until_idle(&mut |_task, _index| Rat::ONE);
//! assert_eq!(log.len(), 3); // three quantum-length subtasks dispatched
//! assert!(log.iter().all(|a| a.start + a.cost <= Rat::int(a.deadline)));
//! ```

use pfair_numeric::{Rat, Time};
use pfair_obs::{NoopObserver, Observer};
use pfair_sim::kernel::DvqKernel;
use pfair_taskmodel::{TaskId, Weight};

use crate::{OnlineAssignment, OnlineError, Pd2Key};

/// An online, heap-based PD² scheduler for the DVQ model: a driver of
/// the [`DvqKernel`] that keys subtasks from the window formulas and costs
/// quanta from a caller-supplied source.
#[derive(Debug)]
pub struct OnlineDvq {
    kernel: DvqKernel,
}

impl OnlineDvq {
    /// A scheduler over `m ≥ 1` processors, starting at time 0.
    ///
    /// The kernel's clock starts on integer ticks at the workload cost
    /// grid's resolution (`lcm(1..13)` ticks per quantum) and falls back
    /// to exact rational times automatically on the first off-grid value.
    /// The tier never affects the schedule — only how much of the run
    /// enjoys integer arithmetic.
    ///
    /// # Panics
    /// Panics if `m == 0`.
    #[must_use]
    pub fn new(m: u32) -> OnlineDvq {
        OnlineDvq {
            kernel: DvqKernel::new(m, true),
        }
    }

    /// Registers a task; returns its id. Tasks may be added at any time.
    pub fn add_task(&mut self, weight: Weight) -> TaskId {
        self.kernel.add_task(weight)
    }

    /// Current scheduler time.
    #[must_use]
    pub fn now(&self) -> Time {
        self.kernel.now()
    }

    /// Processor count.
    #[must_use]
    pub fn num_processors(&self) -> u32 {
        self.kernel.num_processors()
    }

    /// Submits the next job of `task`, released at integral time `at`.
    ///
    /// Sporadic semantics: `at` must be at least the previous job's
    /// release plus the task's period, and must not lie in the past.
    ///
    /// # Errors
    /// [`OnlineError`] on separation, past, unknown-task or window-overflow violations.
    pub fn submit_job(&mut self, task: TaskId, at: i64) -> Result<(), OnlineError> {
        self.submit_job_observed(task, at, &mut NoopObserver)
    }

    /// [`Self::submit_job`] with a streaming [`Observer`] attached: emits a
    /// [`pfair_obs::SchedEvent::Released`] for every subtask the job contributes
    /// (release events are input-side and exempt from the stream's time
    /// ordering).
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

    /// Processes events up to (and including) `horizon`, dispatching with
    /// costs from `cost` (each must lie in `(0, 1]`). Returns the
    /// assignments made during this call, in dispatch order; afterwards
    /// [`Self::now`] is `horizon` (or later, if an earlier call ran past
    /// it).
    pub fn run_until(
        &mut self,
        horizon: Time,
        cost: &mut dyn FnMut(TaskId, u64) -> Rat,
    ) -> Vec<OnlineAssignment> {
        self.run_until_impl(Some(horizon), cost, &mut NoopObserver)
    }

    /// [`Self::run_until`] with a streaming [`Observer`] attached. With
    /// [`NoopObserver`] this monomorphizes to exactly [`Self::run_until`]'s
    /// code (every emission site is gated by the compile-time
    /// `O::ENABLED`). Quanta still in flight at `horizon` announce their
    /// [`pfair_obs::SchedEvent::QuantumEnd`] in whichever later call processes their
    /// completion.
    pub fn run_until_observed<O: Observer>(
        &mut self,
        horizon: Time,
        cost: &mut dyn FnMut(TaskId, u64) -> Rat,
        obs: &mut O,
    ) -> Vec<OnlineAssignment> {
        self.run_until_impl(Some(horizon), cost, obs)
    }

    /// The event loop: drains every instant up to `horizon` (all of them
    /// when `None`) and runs the dispatch pass after each.
    fn run_until_impl<O: Observer>(
        &mut self,
        horizon: Option<Time>,
        cost: &mut dyn FnMut(TaskId, u64) -> Rat,
        obs: &mut O,
    ) -> Vec<OnlineAssignment> {
        let mut log = Vec::new();
        while self.kernel.step(horizon, &mut *cost, &mut log, obs) {}
        if let Some(h) = horizon {
            self.kernel.wait_until(h);
        }
        log
    }

    /// Runs until every submitted job has completed; returns the
    /// assignments made during this call. Afterwards [`Self::now`] is the
    /// last instant processed, so later jobs may still be submitted.
    pub fn run_until_idle(
        &mut self,
        cost: &mut dyn FnMut(TaskId, u64) -> Rat,
    ) -> Vec<OnlineAssignment> {
        self.run_until_impl(None, cost, &mut NoopObserver)
    }

    /// [`Self::run_until_idle`] with a streaming [`Observer`] attached.
    /// Because the system drains completely, every dispatched quantum's
    /// [`pfair_obs::SchedEvent::QuantumEnd`] (and deadline verdict) is emitted before
    /// this returns.
    pub fn run_until_idle_observed<O: Observer>(
        &mut self,
        cost: &mut dyn FnMut(TaskId, u64) -> Rat,
        obs: &mut O,
    ) -> Vec<OnlineAssignment> {
        self.run_until_impl(None, cost, obs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pfair_core::Pd2;
    use pfair_sim::{simulate_dvq, FixedCosts};
    use pfair_taskmodel::{release, SubtaskId};

    fn unit_cost() -> impl FnMut(TaskId, u64) -> Rat {
        |_, _| Rat::ONE
    }

    #[test]
    fn dispatches_in_pd2_order() {
        let mut s = OnlineDvq::new(1);
        let light = s.add_task(Weight::new(1, 6));
        let heavy = s.add_task(Weight::new(1, 2));
        s.submit_job(light, 0).unwrap();
        s.submit_job(heavy, 0).unwrap();
        let log = s.run_until_idle(&mut unit_cost());
        // Heavy (d = 2) dispatches before light (d = 6).
        assert_eq!(log[0].task, heavy);
        assert_eq!(log[1].task, light);
    }

    #[test]
    fn sporadic_separation_enforced() {
        let mut s = OnlineDvq::new(1);
        let t = s.add_task(Weight::new(1, 2));
        s.submit_job(t, 0).unwrap();
        assert!(matches!(
            s.submit_job(t, 1),
            Err(OnlineError::TooEarly { earliest: 2, .. })
        ));
        s.submit_job(t, 5).unwrap(); // late is fine (sporadic)
    }

    #[test]
    fn rejects_past_submissions_and_unknown_tasks() {
        let mut s = OnlineDvq::new(1);
        let t = s.add_task(Weight::new(1, 2));
        s.submit_job(t, 0).unwrap();
        let _ = s.run_until(Rat::int(4), &mut unit_cost());
        assert!(matches!(
            s.submit_job(t, 3),
            Err(OnlineError::InThePast { .. })
        ));
        assert!(matches!(
            s.submit_job(TaskId(9), 10),
            Err(OnlineError::UnknownTask)
        ));
    }

    #[test]
    fn early_yield_starts_next_quantum_immediately() {
        let mut s = OnlineDvq::new(1);
        let a = s.add_task(Weight::new(1, 2));
        let b = s.add_task(Weight::new(1, 6));
        s.submit_job(a, 0).unwrap();
        s.submit_job(b, 0).unwrap();
        let half = Rat::new(1, 2);
        let log = s.run_until_idle(&mut |_, _| half);
        assert_eq!(log[0].start, Rat::ZERO);
        // Work conservation: B starts the moment A's quantum completes.
        assert_eq!(log[1].start, half);
    }

    #[test]
    fn incremental_run_until() {
        let mut s = OnlineDvq::new(1);
        let t = s.add_task(Weight::new(1, 2));
        s.submit_job(t, 0).unwrap();
        let first = s.run_until(Rat::int(1), &mut unit_cost());
        assert_eq!(first.len(), 1);
        // Submit the next job mid-flight and continue.
        s.submit_job(t, 2).unwrap();
        let second = s.run_until_idle(&mut unit_cost());
        assert_eq!(second.len(), 1);
        assert_eq!(second[0].start, Rat::int(2));
    }

    #[test]
    fn submit_after_run_until_idle_is_accepted() {
        let mut s = OnlineDvq::new(1);
        let t = s.add_task(Weight::new(1, 2));
        s.submit_job(t, 0).unwrap();
        let first = s.run_until_idle(&mut unit_cost());
        assert_eq!(first.len(), 1);
        // Time rests at the last instant processed (the completion at 1),
        // not at an unbounded horizon.
        assert_eq!(s.now(), Rat::ONE);
        s.submit_job(t, 4).unwrap();
        let second = s.run_until_idle(&mut unit_cost());
        assert_eq!(second.len(), 1);
        assert_eq!(second[0].start, Rat::int(4));
    }

    #[test]
    fn run_until_does_not_cross_the_horizon() {
        let mut s = OnlineDvq::new(1);
        let t = s.add_task(Weight::new(1, 2));
        s.submit_job(t, 0).unwrap();
        s.submit_job(t, 2).unwrap();
        s.submit_job(t, 4).unwrap();
        // Horizon 3: only the jobs released at 0 and 2 dispatch.
        let log = s.run_until(Rat::int(3), &mut unit_cost());
        assert_eq!(log.len(), 2);
        assert!(log.iter().all(|a| a.start <= Rat::int(3)));
        assert_eq!(s.now(), Rat::int(3));
        // The rest dispatches later.
        let rest = s.run_until_idle(&mut unit_cost());
        assert_eq!(rest.len(), 1);
        assert_eq!(rest[0].start, Rat::int(4));
    }

    #[test]
    fn cost_source_validated() {
        let mut s = OnlineDvq::new(1);
        let t = s.add_task(Weight::new(1, 2));
        s.submit_job(t, 0).unwrap();
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            s.run_until_idle(&mut |_, _| Rat::int(2))
        }));
        assert!(result.is_err(), "cost 2 must be rejected");
    }

    #[test]
    fn num_processors_accessor() {
        assert_eq!(OnlineDvq::new(5).num_processors(), 5);
    }

    #[test]
    fn off_grid_cost_migrates_without_changing_the_schedule() {
        // Cost 1/17 is off the 720720-tick grid: the first such completion
        // moves the event queue to exact mode mid-run. The assignments must
        // still be exactly the offline simulator's on the same jobs.
        let weights = [(1, 2), (1, 3), (2, 5)];
        let sys = release::periodic(&weights, 30);
        let mut s = OnlineDvq::new(2);
        for &(e, p) in &weights {
            let t = s.add_task(Weight::new(e, p));
            for j in 0..30 / p {
                s.submit_job(t, j * p).unwrap();
            }
        }
        let cost_of = |task: TaskId| {
            if task == TaskId(1) {
                Rat::new(1, 17)
            } else {
                Rat::new(1, 2)
            }
        };
        let log = s.run_until_idle(&mut |task, _| cost_of(task));
        let mut costs = FixedCosts::new(Rat::ONE);
        for (_, sub) in sys.iter_refs() {
            costs = costs.with(sub.id.task, sub.id.index, cost_of(sub.id.task));
        }
        let offline = simulate_dvq(&sys, 2, &Pd2, &mut costs);
        assert_eq!(log.len(), sys.num_subtasks());
        for a in &log {
            let st = sys
                .find(SubtaskId {
                    task: a.task,
                    index: a.index,
                })
                .expect("released offline too");
            let p = offline.placement(st);
            assert_eq!(
                (a.proc, a.start, a.cost),
                (p.proc, p.start, p.cost),
                "{a:?}"
            );
        }
    }

    #[test]
    fn release_overflow_is_rejected_without_state_change() {
        // Weight 1/2 released at i64::MAX − 1 has its deadline past i64:
        // both schedulers refuse the job, again on a retry, and keep the
        // task's chain as it was.
        let far = i64::MAX - 1;
        let overflow = Err(OnlineError::ReleaseOverflow { requested: far });
        let mut dvq = OnlineDvq::new(1);
        let t = dvq.add_task(Weight::new(1, 2));
        assert_eq!(dvq.submit_job(t, far), overflow);
        assert_eq!(dvq.submit_job(t, far), overflow);
        dvq.submit_job(t, 0).unwrap();
        let log = dvq.run_until_idle(&mut unit_cost());
        assert_eq!((log.len(), log[0].index, log[0].deadline), (1, 1, 2));

        let mut sfq = crate::OnlineSfq::new(1);
        let t = sfq.add_task(Weight::new(1, 2));
        assert_eq!(sfq.submit_job(t, far), overflow);
        assert_eq!(sfq.submit_job(t, far), overflow);
        sfq.submit_job(t, 0).unwrap();
        let picks = sfq.tick();
        assert_eq!((picks.len(), picks[0].index, picks[0].deadline), (1, 1, 2));
    }

    #[test]
    fn off_grid_eligibility_migrates_cleanly() {
        // An eligibility far past i64 ticks at the default scale forces
        // the queue exact on submission; dispatch must still be correct.
        let mut s = OnlineDvq::new(1);
        let t = s.add_task(Weight::new(1, 2));
        let far = i64::MAX / 720_720 + 10; // unrepresentable as ticks
        s.submit_job(t, far).unwrap();
        let log = s.run_until_idle(&mut unit_cost());
        assert_eq!(log.len(), 1);
        assert_eq!(log[0].start, Rat::int(far));
    }

    #[test]
    fn batch_assignments_use_ascending_processors() {
        // Three subtasks ready at t = 0 on three processors: dispatch
        // order (PD² priority) must map to processors 0, 1, 2.
        let mut s = OnlineDvq::new(3);
        for _ in 0..3 {
            let t = s.add_task(Weight::new(1, 2));
            s.submit_job(t, 0).unwrap();
        }
        let log = s.run_until_idle(&mut unit_cost());
        let procs: Vec<u32> = log
            .iter()
            .filter(|a| a.start == Rat::ZERO)
            .map(|a| a.proc)
            .collect();
        assert_eq!(procs, vec![0, 1, 2]);
    }

    #[test]
    fn deadlines_met_on_feasible_periodic_load() {
        // Full utilization on 2 processors, strictly periodic arrivals.
        let mut s = OnlineDvq::new(2);
        let tasks: Vec<(TaskId, Weight)> = [(1i64, 2i64), (1, 2), (1, 2), (1, 2)]
            .iter()
            .map(|&(e, p)| {
                let w = Weight::new(e, p);
                (s.add_task(w), w)
            })
            .collect();
        for j in 0..8 {
            for &(t, w) in &tasks {
                s.submit_job(t, j * w.p()).unwrap();
            }
        }
        let log = s.run_until_idle(&mut unit_cost());
        assert_eq!(log.len(), 4 * 8);
        for a in &log {
            assert!(a.start + a.cost <= Rat::int(a.deadline), "{a:?}");
        }
    }
}
