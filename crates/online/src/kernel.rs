//! The one online PD² event loop, shared by its three drivers.
//!
//! [`DvqKernel`] owns the state of the DVQ model played forward online:
//! every task's chain of not-yet-dispatched subtasks and its arming, the
//! event queue (integer ticks with a lossless fall-back to exact
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

use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};

use pfair_numeric::{QScale, QTime, Rat, Time};
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
    /// [`OnlineError`] if `at` violates sporadic separation or precedes
    /// `now`; nothing changes then.
    fn submit<O: Observer>(
        &mut self,
        task: TaskId,
        at: i64,
        now: Time,
        mut key: impl FnMut(Weight, SubtaskId, i64) -> Pd2Key,
        obs: &mut O,
    ) -> Result<(), OnlineError> {
        let w = self.weight;
        if let Some(prev) = self.last_release {
            let earliest = prev + w.p();
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
        let theta = at - i64::try_from(self.count).expect("job count fits i64") * w.p();
        let e = u64::try_from(w.e()).expect("execution requirement is positive");
        let first = self.count * e + 1;
        for index in first..first + e {
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

/// Tick resolution of the event queue's fast mode: `lcm(1..13)`, the
/// workload generators' cost grid.
const TICKS_PER_QUANTUM: i64 = 720_720;

/// The quantum occupying a processor: `(subtask, completion, deadline)`.
type RunningQuantum = (SubtaskId, Time, i64);

/// The event heap, in one of two arithmetic modes — the online analogue
/// of `pfair-sim`'s two-tier time domains.
///
/// `Ticks` orders the heap by [`QTime`] counts at a fixed [`QScale`]:
/// every heap comparison is a single `i64` compare. Each entry also keeps
/// its exact instant, so peeking never converts back (`(ticks, event)`
/// pairs are unique, so the instant never decides an order). The first
/// time the scale cannot represent (an off-grid cost or an out-of-range
/// eligibility) pushes the queue permanently into `Exact` mode, losslessly,
/// so schedules never depend on the mode.
#[derive(Debug)]
enum EventQueue {
    Ticks {
        scale: QScale,
        heap: BinaryHeap<Reverse<(QTime, Event, Time)>>,
    },
    Exact(BinaryHeap<Reverse<(Time, Event)>>),
}

impl EventQueue {
    fn peek(&self) -> Option<(Time, Event)> {
        match self {
            EventQueue::Ticks { heap, .. } => heap.peek().map(|&Reverse((_, ev, at))| (at, ev)),
            EventQueue::Exact(heap) => heap.peek().map(|&Reverse((at, ev))| (at, ev)),
        }
    }

    /// Pops the next event if it is queued exactly at `at`.
    fn pop_at(&mut self, at: Time) -> Option<Event> {
        let (t, ev) = self.peek()?;
        if t != at {
            return None;
        }
        match self {
            EventQueue::Ticks { heap, .. } => drop(heap.pop()),
            EventQueue::Exact(heap) => drop(heap.pop()),
        }
        Some(ev)
    }

    fn push(&mut self, at: Time, ev: Event) {
        if let EventQueue::Ticks { scale, heap } = self {
            match scale.from_rat(at) {
                Some(qt) => {
                    heap.push(Reverse((qt, ev, at)));
                    return;
                }
                None => self.migrate(),
            }
        }
        let EventQueue::Exact(heap) = self else {
            unreachable!("migrate leaves the queue in exact mode")
        };
        heap.push(Reverse((at, ev)));
    }

    /// Converts the queue to exact mode.
    fn migrate(&mut self) {
        if let EventQueue::Ticks { heap, .. } =
            std::mem::replace(self, EventQueue::Exact(BinaryHeap::new()))
        {
            let exact = heap
                .into_iter()
                .map(|Reverse((_, ev, at))| Reverse((at, ev)))
                .collect();
            *self = EventQueue::Exact(exact);
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
            events: EventQueue::Ticks {
                scale: QScale::new(TICKS_PER_QUANTUM),
                heap: BinaryHeap::new(),
            },
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
    /// separation, or `at` precedes [`Self::now`]; nothing changes then.
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
