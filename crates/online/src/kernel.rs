//! The one online PD² event loop, shared by its three drivers.
//!
//! [`DvqKernel`] owns the state of the DVQ model played forward online:
//! every task's chain of not-yet-dispatched subtasks and its arming, the
//! event queue (on [`Ticks`] with a lossless fall-back to [`Exact`]
//! rationals), the PD² ready heap and the per-processor quanta in flight.
//! It exposes the loop as step functions, each generic over an
//! [`Observer`] so emission compiles away under [`pfair_obs::NoopObserver`]:
//!
//! * [`DvqKernel::open`] — open the batch at instant `t` (emits `Tick`);
//! * [`DvqKernel::apply_at`] — apply the next queued event of that batch
//!   (a chain head becomes ready, or an eagerly queued completion frees
//!   its processor);
//! * [`DvqKernel::free`] — free processor `p` at its quantum's completion
//!   (emits `QuantumEnd` and the deadline verdict, re-arms the chain);
//! * [`DvqKernel::dispatch`] — the dispatch pass: free processors, lowest
//!   index first, to ready subtasks in PD² order.
//!
//! The drivers decide *when* each step runs. [`crate::OnlineDvq`] drains
//! each instant then dispatches, with costs from a caller-supplied source.
//! `pfair_runtime::DispatchCore` runs the same steps behind a delegation
//! lock, gated on worker threads' physical completion reports.
//! [`crate::OnlineSfq`] runs them once per slot boundary with every cost
//! fixed at one quantum and frees each processor within the tick: with
//! full-length quanta the DVQ model makes exactly the SFQ model's
//! decisions. Each driver supplies the PD² key of every subtask it
//! submits, so the runtime can serve keys from its `KeyCache` while the
//! online schedulers build them from the window formulas.

use std::cell::Cell;
use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};

use pfair_numeric::{Exact, Rat, Ticks, Tier, Time};
use pfair_obs::{Observer, ReadyCause, SchedEvent};
use pfair_taskmodel::window;
use pfair_taskmodel::{SubtaskId, TaskId, Weight};

use crate::{OnlineAssignment, OnlineError, Pd2Key};

/// One not-yet-dispatched subtask of a task's chain.
#[derive(Clone, Debug)]
struct SubSpec {
    index: u64,
    eligible: i64,
    deadline: i64,
    key: Pd2Key,
}

/// A task's chain in the kernel: its submitted jobs, the subtasks
/// awaiting dispatch and the arming state.
#[derive(Clone, Debug)]
struct Chain {
    weight: Weight,
    /// Jobs submitted so far.
    count: u64,
    /// Release time of the most recent job.
    last_release: Option<i64>,
    /// Subtasks awaiting dispatch, in chain order.
    queue: VecDeque<SubSpec>,
    /// Completion time of the task's most recently dispatched subtask.
    pred_completion: Time,
    /// `true` while a subtask of this task is ready or running (the chain
    /// head must not be armed twice).
    chain_busy: bool,
    /// `true` while the chain head's activation event is pending.
    head_armed: bool,
    /// The chain head while it sits in the ready heap.
    ready: Option<SubSpec>,
}

impl Chain {
    /// Appends the next job of `task`, released at `at`, to the queue.
    /// `key(weight, id, theta)` supplies the PD² key of each subtask the
    /// job contributes, in index order; a [`SchedEvent::Released`] is
    /// emitted for each.
    ///
    /// # Errors
    /// [`OnlineError`] if `at` violates sporadic separation, precedes
    /// `now` or puts the job's windows past `i64`; nothing changes then.
    fn submit<O: Observer>(
        &mut self,
        task: TaskId,
        at: i64,
        now: Time,
        mut key: impl FnMut(Weight, SubtaskId, i64) -> Pd2Key,
        obs: &mut O,
    ) -> Result<(), OnlineError> {
        let w = self.weight;
        let overflow = || OnlineError::ReleaseOverflow { requested: at };
        if let Some(prev) = self.last_release {
            let earliest = prev.checked_add(w.p()).ok_or_else(overflow)?;
            if at < earliest {
                return Err(OnlineError::TooEarly {
                    earliest,
                    requested: at,
                });
            }
        }
        if Rat::int(at) < now {
            return Err(OnlineError::InThePast { now, requested: at });
        }
        let (first, last, theta) = self.job_span(at).ok_or_else(overflow)?;
        for index in first..=last {
            let id = SubtaskId { task, index };
            let eligible = theta + window::release(w, index);
            let spec = SubSpec {
                index,
                eligible,
                deadline: theta + window::deadline(w, index),
                key: key(w, id, theta),
            };
            if O::ENABLED {
                obs.on_event(&SchedEvent::Released { id, at: eligible });
            }
            self.queue.push_back(spec);
        }
        self.count += 1;
        self.last_release = Some(at);
        Ok(())
    }

    /// The next job released at `at`: its first and last subtask index
    /// and its shift `θ`, or `None` if any of its windows leaves `i64`.
    fn job_span(&self, at: i64) -> Option<(u64, u64, i64)> {
        let w = self.weight;
        let e = u64::try_from(w.e()).expect("execution requirement is positive");
        let first = self.count.checked_mul(e)?.checked_add(1)?;
        let last = first.checked_add(e - 1)?;
        let theta = at.checked_sub(i64::try_from(self.count).ok()?.checked_mul(w.p())?)?;
        // Subtasks `count·e + 1 ..= (count + 1)·e` have their windows in
        // `[θ + count·p, θ + (count + 1)·p] = [at, at + p]`.
        at.checked_add(w.p())?;
        Some((first, last, theta))
    }
}

/// A queued event. At equal instants completions come before activations,
/// then by processor / task id.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum Event {
    /// The quantum on this processor completes (queued only when
    /// completions are eager, see [`DvqKernel::new`]).
    Free(u32),
    /// This task's chain head becomes ready.
    Activate(TaskId),
}

impl Event {
    /// The 64-bit payload code for [`Tier::key`]. Code order equals the
    /// derived `Ord` above: all `Free` codes (`< 2^32`, ascending by
    /// processor) sort before all `Activate` codes (`2^32 | task`,
    /// ascending by task).
    fn code(self) -> u64 {
        match self {
            Event::Free(proc) => u64::from(proc),
            Event::Activate(task) => (1 << 32) | u64::from(task.0),
        }
    }

    /// Inverse of [`Event::code`].
    fn from_code(code: u64) -> Event {
        #[allow(clippy::cast_possible_truncation)]
        let payload = code as u32;
        if code >> 32 == 0 {
            Event::Free(payload)
        } else {
            Event::Activate(TaskId(payload))
        }
    }
}

/// The event queue's fast tier: `lcm(1..13)` ticks per quantum, the
/// workload generators' cost grid.
const GRID: Ticks = Ticks::new(720_720);

/// The quantum occupying a processor: `(subtask, completion, deadline)`.
type RunningQuantum = (SubtaskId, Time, i64);

/// The event heap, in one of two tiers. The kernel cannot know its costs
/// before they arrive, so the tier is a run-time switch.
///
/// `Ticks` orders packed [`GRID`] keys: every heap comparison is a single
/// `u128` compare. It also keeps the last instant peeked or popped, with
/// its ticks, so a caller that peeks the same head again, or drains a
/// batch at that instant, converts nothing. The first instant the grid
/// cannot represent (an off-grid cost or an out-of-range eligibility)
/// moves the queue to `Exact` for good, losslessly, so schedules never
/// depend on the tier.
#[derive(Debug)]
enum EventQueue {
    Ticks(BinaryHeap<Reverse<u128>>, Cell<(i64, Rat)>),
    Exact(BinaryHeap<Reverse<(Rat, u64)>>),
}

impl EventQueue {
    fn peek(&self) -> Option<(Time, Event)> {
        let (at, code) = match self {
            EventQueue::Ticks(heap, last) => {
                let (t, code) = GRID.split(heap.peek()?.0);
                if t != last.get().0 {
                    last.set((t, GRID.to_rat(t)));
                }
                (last.get().1, code)
            }
            EventQueue::Exact(heap) => heap.peek()?.0,
        };
        Some((at, Event::from_code(code)))
    }

    /// Pops the next event if it is queued exactly at `at`.
    fn pop_at(&mut self, at: Time) -> Option<Event> {
        let code = match self {
            EventQueue::Ticks(heap, last) => {
                let (t, code) = GRID.split(heap.peek()?.0);
                if (t, at) != last.get() && GRID.from_rat(at) != Some(t) {
                    return None;
                }
                heap.pop();
                last.set((t, at));
                code
            }
            EventQueue::Exact(heap) => {
                let (t, code) = heap.peek()?.0;
                if t != at {
                    return None;
                }
                heap.pop();
                code
            }
        };
        Some(Event::from_code(code))
    }

    fn push(&mut self, at: Time, ev: Event) {
        if let EventQueue::Ticks(heap, _) = self {
            if let Some(t) = GRID.from_rat(at) {
                heap.push(Reverse(GRID.key(t, ev.code())));
                return;
            }
            let exact = heap
                .drain()
                .map(|Reverse(k)| {
                    let (t, code) = GRID.split(k);
                    Reverse(Exact.key(GRID.to_rat(t), code))
                })
                .collect();
            *self = EventQueue::Exact(exact);
        }
        if let EventQueue::Exact(heap) = self {
            heap.push(Reverse(Exact.key(at, ev.code())));
        }
    }
}

/// The online PD²-DVQ kernel: chain state, event queue, PD² ready heap
/// and processors, advanced by its driver one step at a time.
#[derive(Debug)]
pub struct DvqKernel {
    now: Time,
    /// Whether [`Self::dispatch`] queues each quantum's completion as an
    /// [`Event::Free`]; otherwise the driver frees processors itself.
    eager: bool,
    chains: Vec<Chain>,
    events: EventQueue,
    /// Ready chain heads, min-keyed by PD² priority: `(key, task id)`.
    ready: BinaryHeap<Reverse<(Pd2Key, u32)>>,
    /// Free processors as a min-heap, so `pop()` serves the lowest index
    /// first.
    free: BinaryHeap<Reverse<u32>>,
    running: Vec<Option<RunningQuantum>>,
}

impl DvqKernel {
    /// A kernel over `m ≥ 1` processors at time 0, its event queue in tick
    /// mode at `lcm(1..13)` ticks per quantum. With `eager_completions`,
    /// every dispatched quantum's completion is queued as an
    /// [`Event::Free`] at `start + cost`; without, the driver reports
    /// completions through [`Self::free`].
    ///
    /// # Panics
    /// Panics if `m == 0`.
    #[must_use]
    pub fn new(m: u32, eager_completions: bool) -> DvqKernel {
        assert!(m >= 1, "need at least one processor");
        DvqKernel {
            now: Rat::ZERO,
            eager: eager_completions,
            chains: Vec::new(),
            events: EventQueue::Ticks(BinaryHeap::new(), Cell::new((0, Rat::ZERO))),
            ready: BinaryHeap::new(),
            free: (0..m).map(Reverse).collect(),
            running: vec![None; m as usize],
        }
    }

    /// Registers a task; returns its id.
    pub fn add_task(&mut self, weight: Weight) -> TaskId {
        let id = TaskId(u32::try_from(self.chains.len()).expect("task count fits u32"));
        self.chains.push(Chain {
            weight,
            count: 0,
            last_release: None,
            queue: VecDeque::new(),
            pred_completion: Rat::ZERO,
            chain_busy: false,
            head_armed: false,
            ready: None,
        });
        id
    }

    /// The current instant: the last batch opened.
    #[must_use]
    pub fn now(&self) -> Time {
        self.now
    }

    /// Processor count.
    #[must_use]
    pub fn num_processors(&self) -> u32 {
        u32::try_from(self.running.len()).expect("m fits u32")
    }

    /// Appends the next job of `task`, released at `at`, to its chain and
    /// arms the chain head. `key(weight, id, theta)` supplies the PD² key
    /// of each subtask the job contributes, in index order; a
    /// [`SchedEvent::Released`] is emitted for each.
    ///
    /// # Errors
    /// [`OnlineError`] if `task` is unknown, `at` violates sporadic
    /// separation, `at` precedes [`Self::now`], or the job's windows leave
    /// `i64`; nothing changes then.
    pub fn submit_job<O: Observer>(
        &mut self,
        task: TaskId,
        at: i64,
        key: impl FnMut(Weight, SubtaskId, i64) -> Pd2Key,
        obs: &mut O,
    ) -> Result<(), OnlineError> {
        self.chains
            .get_mut(task.idx())
            .ok_or(OnlineError::UnknownTask)?
            .submit(task, at, self.now, key, obs)?;
        self.arm_head(task);
        Ok(())
    }

    /// Arms the chain head's activation event if the task has pending work
    /// and nothing of it is ready or running.
    fn arm_head(&mut self, task: TaskId) {
        let chain = &mut self.chains[task.idx()];
        if chain.chain_busy || chain.head_armed {
            return;
        }
        let Some(head) = chain.queue.front() else {
            return;
        };
        let act = Rat::int(head.eligible).max(chain.pred_completion);
        chain.head_armed = true;
        self.events.push(act, Event::Activate(task));
    }

    /// The next queued event's instant and the event, if any.
    #[must_use]
    pub fn peek(&self) -> Option<(Time, Event)> {
        self.events.peek()
    }

    /// Opens the batch at instant `at`: it becomes [`Self::now`].
    pub fn open<O: Observer>(&mut self, at: Time, obs: &mut O) {
        self.now = at;
        if O::ENABLED {
            obs.on_event(&SchedEvent::Tick { at });
        }
    }

    /// Moves [`Self::now`] forward to `at` without opening a batch (a
    /// driver that ran to a horizon with nothing left to process there).
    pub fn wait_until(&mut self, at: Time) {
        self.now = self.now.max(at);
    }

    /// Applies the next queued event if it is queued at `at`; returns
    /// whether one was. The open batch's instant ([`Self::now`]) is when
    /// it takes effect, which may lie after `at` for a driver whose time
    /// already moved past it.
    pub fn apply_at<O: Observer>(&mut self, at: Time, obs: &mut O) -> bool {
        match self.events.pop_at(at) {
            Some(Event::Free(proc)) => self.free(proc, obs),
            Some(Event::Activate(task)) => self.activate(task, obs),
            None => return false,
        }
        true
    }

    /// Frees `proc` at its quantum's completion: the `QuantumEnd` and
    /// deadline verdict, then the task's next chain head is armed.
    ///
    /// # Panics
    /// Panics if `proc` is idle.
    pub fn free<O: Observer>(&mut self, proc: u32, obs: &mut O) {
        let (id, completion, deadline) = self.running[proc as usize]
            .take()
            .expect("a freed processor was running a quantum");
        if O::ENABLED {
            obs.on_event(&SchedEvent::QuantumEnd {
                id,
                proc,
                completion,
                deadline,
                waste: Rat::ZERO,
            });
            let d = Rat::int(deadline);
            if completion > d {
                obs.on_event(&SchedEvent::DeadlineMiss {
                    id,
                    completion,
                    deadline,
                    tardiness: completion - d,
                });
            } else {
                obs.on_event(&SchedEvent::DeadlineHit {
                    id,
                    completion,
                    deadline,
                });
            }
        }
        self.free.push(Reverse(proc));
        self.chains[id.task.idx()].chain_busy = false;
        self.arm_head(id.task);
    }

    /// Moves the chain head of `task` to the ready heap (a stale arm — a
    /// job submitted while the chain was busy — does nothing).
    fn activate<O: Observer>(&mut self, task: TaskId, obs: &mut O) {
        let chain = &mut self.chains[task.idx()];
        chain.head_armed = false;
        if chain.chain_busy {
            return;
        }
        let Some(spec) = chain.queue.pop_front() else {
            return;
        };
        chain.chain_busy = true;
        if O::ENABLED {
            let cause = if self.now == Rat::int(spec.eligible) {
                ReadyCause::Eligibility
            } else {
                ReadyCause::Predecessor
            };
            obs.on_event(&SchedEvent::Ready {
                id: SubtaskId {
                    task,
                    index: spec.index,
                },
                at: self.now,
                cause,
            });
        }
        self.ready.push(Reverse((spec.key, task.0)));
        chain.ready = Some(spec);
    }

    /// The dispatch pass at [`Self::now`]: hands free processors, lowest
    /// index first, to ready subtasks in PD² priority order, costing each
    /// quantum with `cost` (which must lie in `(0, 1]`) and appending it
    /// to `log`.
    ///
    /// # Panics
    /// Panics if `cost` leaves `(0, 1]`.
    pub fn dispatch<O: Observer>(
        &mut self,
        mut cost: impl FnMut(TaskId, u64) -> Rat,
        log: &mut Vec<OnlineAssignment>,
        obs: &mut O,
    ) {
        while !self.free.is_empty() && !self.ready.is_empty() {
            let Reverse((_, task_raw)) = self.ready.pop().expect("ready nonempty");
            let task = TaskId(task_raw);
            let chain = &mut self.chains[task.idx()];
            let spec = chain.ready.take().expect("ready entry has a spec");
            let Reverse(proc) = self.free.pop().expect("free nonempty");
            let c = cost(task, spec.index);
            assert!(
                c.is_positive() && c <= Rat::ONE,
                "cost source produced {c} for T{}_{}; must be in (0, 1]",
                task.0,
                spec.index
            );
            let completion = self.now + c;
            let id = SubtaskId {
                task,
                index: spec.index,
            };
            if O::ENABLED {
                obs.on_event(&SchedEvent::QuantumStart {
                    id,
                    proc,
                    start: self.now,
                    cost: c,
                    holds_until: completion,
                    deadline: spec.deadline,
                    bbit: spec.key.bbit,
                    group_deadline: spec.key.group_deadline,
                });
            }
            self.running[proc as usize] = Some((id, completion, spec.deadline));
            log.push(OnlineAssignment {
                task,
                index: spec.index,
                proc,
                start: self.now,
                cost: c,
                deadline: spec.deadline,
            });
            chain.pred_completion = completion;
            if self.eager {
                self.events.push(completion, Event::Free(proc));
            }
        }
        if O::ENABLED && !self.free.is_empty() {
            obs.on_event(&SchedEvent::Idle {
                at: self.now,
                procs: u32::try_from(self.free.len()).expect("m fits u32"),
            });
        }
    }

    /// The logical completion of the quantum in flight on `proc`, if any.
    #[must_use]
    pub fn completion_of(&self, proc: u32) -> Option<Time> {
        self.running[proc as usize].map(|(_, completion, _)| completion)
    }

    /// The earliest logical completion among quanta in flight, if any.
    #[must_use]
    pub fn min_completion(&self) -> Option<Time> {
        self.running.iter().flatten().map(|&(_, c, _)| c).min()
    }

    /// `true` when nothing is running or ready.
    #[must_use]
    pub fn is_drained(&self) -> bool {
        self.free.len() == self.running.len() && self.ready.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pfair_obs::RecordingObserver;

    /// Submits periodic jobs of four tasks up to 30 and runs `kernel`
    /// until idle, the `trip`-th cost drawn off the tick grid (1/17).
    fn run_tripped(
        kernel: &mut DvqKernel,
        trip: usize,
        obs: &mut RecordingObserver,
    ) -> Vec<OnlineAssignment> {
        for (e, p) in [(1, 2), (1, 3), (2, 5), (3, 4)] {
            let task = kernel.add_task(Weight::new(e, p));
            for j in 0..30 / p {
                kernel
                    .submit_job(
                        task,
                        j * p,
                        |w, id, theta| Pd2Key::of(w, id, id.index, theta),
                        obs,
                    )
                    .expect("periodic jobs are admissible");
            }
        }
        let mut draws = 0;
        let mut cost = |_, _| {
            draws += 1;
            if draws == trip {
                Rat::new(1, 17)
            } else {
                Rat::new(1, 2)
            }
        };
        let mut log = Vec::new();
        while let Some((at, _)) = kernel.peek() {
            kernel.open(at, obs);
            while kernel.apply_at(at, obs) {}
            kernel.dispatch(&mut cost, &mut log, obs);
        }
        log
    }

    #[test]
    fn tier_migration_is_invisible_in_the_stream() {
        // A queue that migrates to exact time at an off-grid cost must
        // give the assignments and the event stream of one that starts
        // exact.
        for trip in [1usize, 3, 7, 20] {
            let mut migrating = DvqKernel::new(2, true);
            let mut migrating_obs = RecordingObserver::new();
            let a = run_tripped(&mut migrating, trip, &mut migrating_obs);
            assert!(
                matches!(migrating.events, EventQueue::Exact(_)),
                "trip = {trip}"
            );
            let mut exact = DvqKernel::new(2, true);
            exact.events = EventQueue::Exact(BinaryHeap::new());
            let mut exact_obs = RecordingObserver::new();
            let b = run_tripped(&mut exact, trip, &mut exact_obs);
            assert_eq!(a, b, "trip = {trip}");
            assert_eq!(migrating_obs.events(), exact_obs.events(), "trip = {trip}");
        }
    }
}
