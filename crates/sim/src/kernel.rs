//! The one DVQ event loop, shared by every DVQ driver.
//!
//! [`DvqKernel`] plays the DVQ model (§3) forward — a processor whose
//! quantum ends early "begins a new quantum immediately" — over every
//! task's chain of pending subtasks, the event queue, a ready set `R` and
//! the quantum in flight on each processor. Its step functions are generic
//! over an [`Observer`], so emission compiles away under
//! [`pfair_obs::NoopObserver`]: [`DvqKernel::open`] a batch (emits
//! `Tick`), [`DvqKernel::apply_at`] its queued events (a chain head
//! becomes ready, or a completion frees its processor via
//! [`DvqKernel::free`]: `QuantumEnd`, the deadline verdict, re-arming),
//! then [`DvqKernel::dispatch`] free processors, lowest index first, to
//! ready subtasks in priority order; [`DvqKernel::step`] does all three.
//!
//! The drivers decide when each step runs and what keys a subtask:
//! [`crate::simulate_dvq`] loads the chains of a
//! [`pfair_taskmodel::TaskSystem`] and keys them by `SubtaskRef` into the
//! ready set any priority order calls for; `pfair_online::OnlineDvq` and
//! `OnlineSfq` admit sporadic jobs ([`DvqKernel::submit_job`]) into a
//! [`KeyHeap`] of PD² keys; `pfair_runtime::DispatchCore` runs the steps
//! behind a delegation lock, gated on its workers' completion reports.
//!
//! # Time
//!
//! The open instant, the completions and the event keys live in the run's
//! [`Tier`]: [`Ticks`] at the driver's scale ([`GRID`] online, the cost
//! model's denominator hint offline) or [`Exact`]. The clock is a
//! [`Tiered`], the switch the streaming observers use too (see
//! [`pfair_numeric::tier`]): every fallible conversion of a step runs
//! before its side effects, and the first value the ticks cannot
//! represent moves the clock to [`Exact`] — losslessly, a tick count *is*
//! a rational — where the step resumes with what it already drew.
//! Schedules and streams never depend on the tier; times cross the public
//! edges as [`Rat`]s.

use std::cell::Cell;
use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};
use std::fmt;

use pfair_core::key::Pd2Key;
use pfair_numeric::{on_tier, on_tier_or_exact, Exact, Lift, Rat, Ticks, Tier, Tiered, Time, GRID};
use pfair_obs::{Observer, SchedEvent};
use pfair_taskmodel::window;
use pfair_taskmodel::{SubtaskId, SubtaskRef, TaskId, TaskSystem, Weight};

use crate::emit::{emit_end, ready_cause};
pub use crate::ready::{KeyHeap, ReadySet};

/// One pending subtask of a task's chain: its ready-set key and what the
/// loop and its events need of it.
#[derive(Clone, Copy, Debug)]
pub struct SubSpec<K> {
    /// The ready-set key.
    pub key: K,
    /// The subtask index within its task.
    pub index: u64,
    /// Eligibility time `e(T_i)`.
    pub eligible: i64,
    /// Pseudo-deadline `d(T_i)`.
    pub deadline: i64,
    /// The b-bit.
    pub bbit: bool,
    /// Group deadline `D(T_i)` (0 for light tasks).
    pub group_deadline: i64,
}

impl SubSpec<SubtaskRef> {
    /// Subtask `st` of `sys`, keyed by its ref.
    pub(crate) fn of(sys: &TaskSystem, st: SubtaskRef) -> SubSpec<SubtaskRef> {
        let s = sys.subtask(st);
        SubSpec {
            key: st,
            index: s.id.index,
            eligible: s.eligible,
            deadline: s.deadline,
            bbit: s.bbit,
            group_deadline: s.group_deadline,
        }
    }
}

/// A dispatched quantum, as the kernel reports it to its driver.
pub(crate) struct Placed<'a, K> {
    pub(crate) task: TaskId,
    pub(crate) spec: &'a SubSpec<K>,
    pub(crate) proc: u32,
    pub(crate) start: Time,
    pub(crate) cost: Rat,
    pub(crate) completion: Time,
}

/// A dispatched quantum, as the online schedulers report it.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct OnlineAssignment {
    /// The task.
    pub task: TaskId,
    /// The subtask index within the task.
    pub index: u64,
    /// Processor the quantum runs on.
    pub proc: u32,
    /// Commencement time.
    pub start: Time,
    /// Actual cost (from the caller's cost source).
    pub cost: Rat,
    /// The subtask's pseudo-deadline (for the caller's tardiness
    /// accounting).
    pub deadline: i64,
}

/// Errors from job submission.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum OnlineError {
    /// Job release precedes the previous job's release plus the period
    /// (sporadic separation violated).
    TooEarly {
        /// Earliest admissible release.
        earliest: i64,
        /// Requested release.
        requested: i64,
    },
    /// Job release lies in the scheduler's past.
    InThePast {
        /// Current scheduler time.
        now: Time,
        /// Requested release.
        requested: i64,
    },
    /// Unknown task id.
    UnknownTask,
    /// A release or pseudo-deadline of the job would leave the `i64`
    /// time range.
    ReleaseOverflow {
        /// Requested release.
        requested: i64,
    },
}

impl fmt::Display for OnlineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            OnlineError::TooEarly {
                earliest,
                requested,
            } => write!(
                f,
                "sporadic separation violated: job released at {requested}, earliest {earliest}"
            ),
            OnlineError::InThePast { now, requested } => {
                write!(f, "job released at {requested} but scheduler time is {now}")
            }
            OnlineError::UnknownTask => f.write_str("unknown task id"),
            OnlineError::ReleaseOverflow { requested } => write!(
                f,
                "job released at {requested} has windows past the i64 time range"
            ),
        }
    }
}

impl std::error::Error for OnlineError {}

/// A task's chain in the kernel: its submitted jobs, the subtasks
/// awaiting dispatch and the arming state.
#[derive(Clone, Debug)]
struct Chain<K> {
    weight: Weight,
    /// Jobs submitted so far.
    count: u64,
    /// Release time of the most recent job.
    last_release: Option<i64>,
    /// The chain head: awaiting activation, or (while `busy`) ready or
    /// running.
    head: Option<SubSpec<K>>,
    /// The submitted subtasks after the head, in chain order.
    rest: VecDeque<SubSpec<K>>,
    /// `true` while the chain head's activation event is pending.
    armed: bool,
    /// `true` while the chain head is ready or running (it must not be
    /// armed meanwhile).
    busy: bool,
}

impl Chain<Pd2Key> {
    /// Appends the next job of `task`, released at `at`, to the queue.
    /// `past` is the scheduler time if `at` precedes it. `key(weight, id,
    /// theta)` supplies the PD² key of each subtask the job contributes,
    /// in index order; a [`SchedEvent::Released`] is emitted for each.
    ///
    /// # Errors
    /// [`OnlineError`] if `at` violates sporadic separation, precedes
    /// the scheduler time or puts the job's windows past `i64`; nothing
    /// changes then.
    fn admit<O: Observer>(
        &mut self,
        task: TaskId,
        at: i64,
        past: Option<Time>,
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
        if let Some(now) = past {
            return Err(OnlineError::InThePast { now, requested: at });
        }
        let (first, last, theta) = self.job_span(at).ok_or_else(overflow)?;
        for index in first..=last {
            let id = SubtaskId { task, index };
            let eligible = theta + window::release(w, index);
            let key = key(w, id, theta);
            if O::ENABLED {
                obs.on_event(&SchedEvent::Released { id, at: eligible });
            }
            let spec = SubSpec {
                key,
                index,
                eligible,
                deadline: theta + window::deadline(w, index),
                bbit: key.bbit,
                group_deadline: key.group_deadline,
            };
            if self.head.is_none() {
                self.head = Some(spec);
            } else {
                self.rest.push_back(spec);
            }
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
    /// completions are eager, see [`DvqKernel::with_ready`]).
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

/// Everything the kernel holds in its time tier.
#[derive(Debug)]
struct Clock<D: Tier> {
    dom: D,
    /// The open batch's instant.
    now: D::T,
    /// `now` as a rational, once something asked for it.
    now_rat: Cell<Option<Rat>>,
    /// The last event instant converted at the public edge, with its
    /// value: a driver that peeks the same head again, or applies the
    /// event it peeked, converts nothing.
    seen: Cell<(D::T, Rat)>,
    /// Min-heap of packed (instant, event) keys ([`Tier::key`]).
    events: BinaryHeap<Reverse<D::Key>>,
    /// The completion of the quantum on each processor (meaningful while
    /// it runs).
    ends: Vec<D::T>,
    /// The completion of each task's most recently dispatched subtask.
    preds: Vec<D::T>,
}

impl<D: Tier> Clock<D> {
    fn new(dom: D, m: u32) -> Clock<D> {
        let zero = dom.int(0).expect("time zero is representable");
        Clock {
            dom,
            now: zero,
            now_rat: Cell::new(Some(Rat::ZERO)),
            seen: Cell::new((zero, Rat::ZERO)),
            events: BinaryHeap::new(),
            ends: vec![zero; m as usize],
            preds: Vec::new(),
        }
    }

    /// The open batch's instant as a rational.
    fn now_rat(&self) -> Rat {
        self.now_rat.get().unwrap_or_else(|| {
            let r = self.dom.to_rat(self.now);
            self.now_rat.set(Some(r));
            r
        })
    }

    fn set_now(&mut self, t: D::T, r: Option<Rat>) {
        self.now = t;
        self.now_rat.set(r);
    }

    /// An event instant as a rational.
    fn rat(&self, t: D::T) -> Rat {
        let (last, r) = self.seen.get();
        if last == t {
            return r;
        }
        let r = self.dom.to_rat(t);
        self.seen.set((t, r));
        r
    }

    /// `at` in this tier, or `None` if it cannot represent it.
    fn tier(&self, at: Rat) -> Option<D::T> {
        let (t, r) = self.seen.get();
        if r == at {
            Some(t)
        } else if self.now_rat.get() == Some(at) {
            Some(self.now)
        } else {
            self.dom.from_rat(at)
        }
    }

    fn push(&mut self, at: D::T, ev: Event) {
        self.events.push(Reverse(self.dom.key(at, ev.code())));
    }

    /// The head event's instant and the event, if any.
    fn head(&self) -> Option<(D::T, Event)> {
        let (t, code) = self.dom.split(self.events.peek()?.0);
        Some((t, Event::from_code(code)))
    }

    /// Opens the batch at the head event's instant unless the queue is
    /// empty or the instant lies past `horizon`; returns whether it did.
    fn open_next<O: Observer>(&mut self, horizon: Option<Time>, obs: &mut O) -> bool {
        let Some((t, _)) = self.head() else {
            return false;
        };
        if horizon.is_some_and(|h| self.dom.to_rat(t) > h) {
            return false;
        }
        self.set_now(t, None);
        if O::ENABLED {
            obs.on_event(&SchedEvent::Tick { at: self.now_rat() });
        }
        true
    }
}

impl<D: Tier> Lift for Clock<D> {
    type Exact = Clock<Exact>;

    fn to_exact(&self) -> Clock<Exact> {
        let exact = |t| self.dom.to_rat(t);
        Clock {
            dom: Exact,
            now: exact(self.now),
            now_rat: Cell::new(Some(exact(self.now))),
            seen: Cell::new((exact(self.seen.get().0), self.seen.get().1)),
            events: self
                .events
                .iter()
                .map(|&Reverse(k)| {
                    let (t, code) = self.dom.split(k);
                    Reverse(Exact.key(exact(t), code))
                })
                .collect(),
            ends: self.ends.iter().map(|&t| exact(t)).collect(),
            preds: self.preds.iter().map(|&t| exact(t)).collect(),
        }
    }
}

/// The kernel's tier-free state.
#[derive(Debug)]
struct Parts<R: ReadySet> {
    /// Whether a dispatch queues each quantum's completion as an
    /// [`Event::Free`]; otherwise the driver frees processors itself.
    eager: bool,
    chains: Vec<Chain<R::Key>>,
    ready: R,
    /// Free processors as a min-heap, so `pop()` serves the lowest index
    /// first.
    free: BinaryHeap<Reverse<u32>>,
    /// The task whose current subtask runs on each processor.
    running: Vec<Option<TaskId>>,
}

/// A dispatch a tick clock could not complete: the task popped from the
/// ready set and the cost drawn for it.
type Carried = (TaskId, Rat);

impl<R: ReadySet> Parts<R> {
    /// Arms the chain head of `task` if it has pending work and nothing of
    /// it is ready or running. `None` if the head's activation instant is
    /// unrepresentable in `D`; nothing changes then.
    fn arm<D: Tier>(&mut self, c: &mut Clock<D>, task: TaskId) -> Option<()> {
        let chain = &mut self.chains[task.idx()];
        if chain.armed || chain.busy {
            return Some(());
        }
        let Some(head) = &chain.head else {
            return Some(());
        };
        let eligible = c.dom.int(head.eligible)?;
        chain.armed = true;
        c.push(eligible.max(c.preds[task.idx()]), Event::Activate(task));
        Some(())
    }

    /// Pops and applies the head event if it is queued at `at`; returns
    /// whether one was. `Err(task)`: the event was applied, but arming
    /// `task`'s chain needs the exact tier.
    fn apply<D: Tier, O: Observer>(
        &mut self,
        c: &mut Clock<D>,
        at: D::T,
        obs: &mut O,
    ) -> Result<bool, TaskId> {
        match c.head() {
            Some((t, ev)) if t == at => {
                c.events.pop();
                match ev {
                    Event::Free(proc) => self.free(c, proc, obs)?,
                    Event::Activate(task) => self.activate(c, task, obs),
                }
                Ok(true)
            }
            _ => Ok(false),
        }
    }

    /// Applies every event queued at the open instant. `Err(task)`: as
    /// for [`Self::apply`]; the rest of the batch is still queued.
    fn drain<D: Tier, O: Observer>(&mut self, c: &mut Clock<D>, obs: &mut O) -> Result<(), TaskId> {
        let now = c.now;
        while self.apply(c, now, obs)? {}
        Ok(())
    }

    /// Frees `proc` at its quantum's completion: the `QuantumEnd` and
    /// deadline verdict, then the task's next chain head is armed.
    /// `Err(task)`: arming needs the exact tier.
    fn free<D: Tier, O: Observer>(
        &mut self,
        c: &mut Clock<D>,
        proc: u32,
        obs: &mut O,
    ) -> Result<(), TaskId> {
        let task = self.running[proc as usize]
            .take()
            .expect("a freed processor was running a quantum");
        let chain = &mut self.chains[task.idx()];
        chain.busy = false;
        let spec = chain
            .head
            .take()
            .expect("a running task's chain holds its subtask");
        chain.head = chain
            .rest
            .pop_front()
            .or_else(|| self.ready.successor(spec.key));
        if O::ENABLED {
            let id = SubtaskId {
                task,
                index: spec.index,
            };
            let completion = c.dom.to_rat(c.ends[proc as usize]);
            emit_end(id, spec.deadline, proc, completion, Rat::ZERO, obs);
        }
        self.free.push(Reverse(proc));
        self.arm(c, task).ok_or(task)
    }

    /// Moves the chain head of `task` to the ready set (a stale arm — a
    /// job submitted while the chain was busy — does nothing).
    fn activate<D: Tier, O: Observer>(&mut self, c: &Clock<D>, task: TaskId, obs: &mut O) {
        let chain = &mut self.chains[task.idx()];
        chain.armed = false;
        if chain.busy {
            return;
        }
        let Some(spec) = &chain.head else {
            return;
        };
        chain.busy = true;
        if O::ENABLED {
            obs.on_event(&SchedEvent::Ready {
                id: SubtaskId {
                    task,
                    index: spec.index,
                },
                at: c.now_rat(),
                cause: ready_cause(c.dom.int(spec.eligible), Some(c.now)),
            });
        }
        self.ready.push(spec.key, task.0);
    }

    /// The dispatch pass at the open instant, resuming `carried` first.
    /// `cost` must return costs in `(0, 1]`; the drivers check them.
    /// `Err`: a drawn cost's completion is unrepresentable in `D`; only
    /// the pop and the draw of that dispatch have happened.
    fn dispatch<D: Tier, O: Observer>(
        &mut self,
        c: &mut Clock<D>,
        mut carried: Option<Carried>,
        cost: &mut impl FnMut(TaskId, &SubSpec<R::Key>) -> Rat,
        sink: &mut impl FnMut(Placed<'_, R::Key>),
        obs: &mut O,
    ) -> Result<(), Carried> {
        loop {
            let (task, cst) = match carried.take() {
                Some(p) => p,
                None => {
                    if self.free.is_empty() {
                        break;
                    }
                    let Some(tag) = self.ready.pop_best() else {
                        break;
                    };
                    let task = TaskId(tag);
                    let spec = self.chains[task.idx()]
                        .head
                        .as_ref()
                        .expect("ready entry has a spec");
                    (task, cost(task, spec))
                }
            };
            let Some(end) = c.dom.from_rat(cst).and_then(|x| c.dom.add(c.now, x)) else {
                return Err((task, cst));
            };
            let spec = self.chains[task.idx()]
                .head
                .as_ref()
                .expect("ready entry has a spec");
            let Reverse(proc) = self.free.pop().expect("free nonempty in the dispatch pass");
            let start = c.now_rat();
            let completion = c.dom.to_rat(end);
            if O::ENABLED {
                obs.on_event(&SchedEvent::QuantumStart {
                    id: SubtaskId {
                        task,
                        index: spec.index,
                    },
                    proc,
                    start,
                    cost: cst,
                    holds_until: completion,
                    deadline: spec.deadline,
                    bbit: spec.bbit,
                    group_deadline: spec.group_deadline,
                });
            }
            sink(Placed {
                task,
                spec,
                proc,
                start,
                cost: cst,
                completion,
            });
            c.ends[proc as usize] = end;
            c.preds[task.idx()] = end;
            self.running[proc as usize] = Some(task);
            if self.eager {
                c.push(end, Event::Free(proc));
            }
        }
        if O::ENABLED && !self.free.is_empty() {
            obs.on_event(&SchedEvent::Idle {
                at: c.now_rat(),
                procs: u32::try_from(self.free.len()).expect("m fits u32"),
            });
        }
        Ok(())
    }
}

/// The DVQ kernel: chain state, event queue, ready set `R` and
/// processors, advanced by its driver one step at a time. The online
/// drivers run it over the PD² [`KeyHeap`].
#[derive(Debug)]
pub struct DvqKernel<R: ReadySet = KeyHeap> {
    parts: Parts<R>,
    clock: Tiered<Clock<Ticks>>,
}

impl DvqKernel {
    /// An online kernel over `m ≥ 1` processors at time 0: the PD² key
    /// heap, ticks at [`GRID`]. See [`Self::with_ready`] for
    /// `eager_completions`.
    ///
    /// # Panics
    /// Panics if `m == 0`.
    #[must_use]
    pub fn new(m: u32, eager_completions: bool) -> DvqKernel {
        DvqKernel::with_ready(m, eager_completions, KeyHeap::default(), Some(GRID))
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
        let past = on_tier!(&self.clock, |c| {
            let now = c.now_rat();
            (Rat::int(at) < now).then_some(now)
        });
        self.parts
            .chains
            .get_mut(task.idx())
            .ok_or(OnlineError::UnknownTask)?
            .admit(task, at, past, key, obs)?;
        self.arm(task);
        Ok(())
    }
}

impl<R: ReadySet> DvqKernel<R> {
    /// A kernel over `m ≥ 1` processors at time 0 with ready set `ready`,
    /// its clock on ticks at `scale` (exact rationals if `None`). With
    /// `eager_completions`, every dispatched quantum's completion is
    /// queued as an [`Event::Free`] at `start + cost`; without, the driver
    /// reports completions through [`Self::free`].
    ///
    /// # Panics
    /// Panics if `m == 0`.
    #[must_use]
    pub fn with_ready(
        m: u32,
        eager_completions: bool,
        ready: R,
        scale: Option<Ticks>,
    ) -> DvqKernel<R> {
        assert!(m >= 1, "need at least one processor");
        DvqKernel {
            parts: Parts {
                eager: eager_completions,
                chains: Vec::new(),
                ready,
                free: (0..m).map(Reverse).collect(),
                running: vec![None; m as usize],
            },
            clock: match scale {
                Some(ticks) => Tiered::Ticks(Clock::new(ticks, m)),
                None => Tiered::Exact(Clock::new(Exact, m)),
            },
        }
    }

    /// Registers a task; returns its id.
    pub fn add_task(&mut self, weight: Weight) -> TaskId {
        let id = TaskId(u32::try_from(self.parts.chains.len()).expect("task count fits u32"));
        self.parts.chains.push(Chain {
            weight,
            count: 0,
            last_release: None,
            head: None,
            rest: VecDeque::new(),
            armed: false,
            busy: false,
        });
        on_tier!(&mut self.clock, |c| {
            let zero = c.dom.int(0).expect("time zero is representable");
            c.preds.push(zero);
        });
        id
    }

    /// Starts the chain of `task`, with no admission check and no
    /// emission, at `head` and arms it; the ready set supplies each
    /// successor ([`ReadySet::successor`]).
    pub(crate) fn load(&mut self, task: TaskId, head: SubSpec<R::Key>) {
        self.parts.chains[task.idx()].head = Some(head);
        self.arm(task);
    }

    /// The current instant: the last batch opened.
    #[must_use]
    pub fn now(&self) -> Time {
        on_tier!(&self.clock, |c| c.now_rat())
    }

    /// Processor count.
    #[must_use]
    pub fn num_processors(&self) -> u32 {
        u32::try_from(self.parts.running.len()).expect("m fits u32")
    }

    /// Arms the chain head of `task`, on exact rationals if the ticks
    /// cannot hold its activation instant.
    fn arm(&mut self, task: TaskId) {
        on_tier_or_exact!(self.clock, |c| self.parts.arm(c, task));
    }

    /// The next queued event's instant and the event, if any.
    #[must_use]
    pub fn peek(&self) -> Option<(Time, Event)> {
        on_tier!(&self.clock, |c| c.head().map(|(t, ev)| (c.rat(t), ev)))
    }

    /// Opens the batch at instant `at`: it becomes [`Self::now`].
    pub fn open<O: Observer>(&mut self, at: Time, obs: &mut O) {
        self.move_to(at);
        if O::ENABLED {
            obs.on_event(&SchedEvent::Tick { at });
        }
    }

    /// Moves [`Self::now`] forward to `at` without opening a batch (a
    /// driver that ran to a horizon with nothing left to process there).
    pub fn wait_until(&mut self, at: Time) {
        if at > self.now() {
            self.move_to(at);
        }
    }

    fn move_to(&mut self, at: Time) {
        on_tier_or_exact!(self.clock, |c| c.tier(at).map(|t| c.set_now(t, Some(at))));
    }

    /// Applies the next queued event if it is queued at `at`; returns
    /// whether one was. The open batch's instant ([`Self::now`]) is when
    /// it takes effect, which may lie after `at` for a driver whose time
    /// already moved past it.
    pub fn apply_at<O: Observer>(&mut self, at: Time, obs: &mut O) -> bool {
        let r = on_tier!(&mut self.clock, |c| match c.tier(at) {
            Some(t) => self.parts.apply(c, t, obs),
            None => Ok(false),
        });
        if let Err(task) = r {
            self.arm(task);
        }
        r.unwrap_or(true)
    }

    /// Frees `proc` at its quantum's completion: the `QuantumEnd` and
    /// deadline verdict, then the task's next chain head is armed.
    ///
    /// # Panics
    /// Panics if `proc` is idle.
    pub fn free<O: Observer>(&mut self, proc: u32, obs: &mut O) {
        if let Err(task) = on_tier!(&mut self.clock, |c| self.parts.free(c, proc, obs)) {
            self.arm(task);
        }
    }

    /// The dispatch pass at [`Self::now`]: hands free processors, lowest
    /// index first, to ready subtasks in priority order, costing each
    /// quantum with `cost(task, index)` (which must lie in `(0, 1]`) and
    /// appending it to `log`.
    ///
    /// # Panics
    /// Panics if `cost` leaves `(0, 1]`.
    pub fn dispatch<O: Observer>(
        &mut self,
        mut cost: impl FnMut(TaskId, u64) -> Rat,
        log: &mut Vec<OnlineAssignment>,
        obs: &mut O,
    ) {
        self.dispatch_with(
            &mut |task, spec| checked(task, spec.index, cost(task, spec.index)),
            &mut |p| log.push(assignment(&p)),
            obs,
        );
    }

    /// [`Self::dispatch`] with the driver's own view of each subtask:
    /// `cost` sees its spec, `sink` every placement.
    pub(crate) fn dispatch_with<O: Observer>(
        &mut self,
        cost: &mut impl FnMut(TaskId, &SubSpec<R::Key>) -> Rat,
        sink: &mut impl FnMut(Placed<'_, R::Key>),
        obs: &mut O,
    ) {
        let mut carried = None;
        while let Err(pending) = on_tier!(&mut self.clock, |c| self.parts.dispatch(
            c,
            carried.take(),
            cost,
            sink,
            obs
        )) {
            carried = Some(pending);
            self.clock.go_exact();
        }
    }

    /// One batch: opens the next queued instant unless it lies past
    /// `horizon`, applies every event queued there, then runs the
    /// dispatch pass. Returns whether a batch was opened.
    pub fn step<O: Observer>(
        &mut self,
        horizon: Option<Time>,
        mut cost: impl FnMut(TaskId, u64) -> Rat,
        log: &mut Vec<OnlineAssignment>,
        obs: &mut O,
    ) -> bool {
        self.step_with(
            horizon,
            &mut |task, spec| checked(task, spec.index, cost(task, spec.index)),
            &mut |p| log.push(assignment(&p)),
            obs,
        )
    }

    /// [`Self::step`] with the driver's own view of each subtask, as in
    /// [`Self::dispatch_with`].
    pub(crate) fn step_with<O: Observer>(
        &mut self,
        horizon: Option<Time>,
        cost: &mut impl FnMut(TaskId, &SubSpec<R::Key>) -> Rat,
        sink: &mut impl FnMut(Placed<'_, R::Key>),
        obs: &mut O,
    ) -> bool {
        let opened = on_tier!(&mut self.clock, |c| c.open_next(horizon, obs));
        if opened {
            self.run_batch(cost, sink, obs);
        }
        opened
    }

    /// Applies every event queued at the open instant, then runs the
    /// dispatch pass.
    pub(crate) fn run_batch<O: Observer>(
        &mut self,
        cost: &mut impl FnMut(TaskId, &SubSpec<R::Key>) -> Rat,
        sink: &mut impl FnMut(Placed<'_, R::Key>),
        obs: &mut O,
    ) {
        while let Err(task) = on_tier!(&mut self.clock, |c| self.parts.drain(c, obs)) {
            self.arm(task);
        }
        self.dispatch_with(cost, sink, obs);
    }

    /// Frees every processor still running, in completion order (ties
    /// by processor), announcing each quantum's end.
    pub(crate) fn free_in_flight<O: Observer>(&mut self, obs: &mut O) {
        let mut busy: Vec<(Time, u32)> = (0..self.num_processors())
            .filter_map(|p| self.completion_of(p).map(|c| (c, p)))
            .collect();
        busy.sort_unstable();
        for (_, proc) in busy {
            self.free(proc, obs);
        }
    }

    /// The logical completion of the quantum in flight on `proc`, if any.
    #[must_use]
    pub fn completion_of(&self, proc: u32) -> Option<Time> {
        let p = proc as usize;
        self.parts.running[p].as_ref()?;
        Some(on_tier!(&self.clock, |c| c.dom.to_rat(c.ends[p])))
    }

    /// The earliest logical completion among quanta in flight, if any.
    #[must_use]
    pub fn min_completion(&self) -> Option<Time> {
        let running = &self.parts.running;
        on_tier!(&self.clock, |c| running
            .iter()
            .zip(&c.ends)
            .filter(|(r, _)| r.is_some())
            .map(|(_, &end)| end)
            .min()
            .map(|end| c.dom.to_rat(end)))
    }

    /// `true` when nothing is running or ready.
    #[must_use]
    pub fn is_drained(&self) -> bool {
        self.parts.free.len() == self.parts.running.len() && self.parts.ready.is_empty()
    }
}

/// A cost from an online cost source, checked to lie in `(0, 1]`.
fn checked(task: TaskId, index: u64, cost: Rat) -> Rat {
    assert!(
        cost.is_positive() && cost <= Rat::ONE,
        "cost source produced {cost} for T{}_{index}; must be in (0, 1]",
        task.0
    );
    cost
}

/// The online record of a placement.
fn assignment<K>(p: &Placed<'_, K>) -> OnlineAssignment {
    OnlineAssignment {
        task: p.task,
        index: p.spec.index,
        proc: p.proc,
        start: p.start,
        cost: p.cost,
        deadline: p.spec.deadline,
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
        // A clock that migrates to exact time at an off-grid cost must
        // give the assignments and the event stream of one that starts
        // exact.
        for trip in [1usize, 3, 7, 20] {
            let mut migrating = DvqKernel::new(2, true);
            let mut migrating_obs = RecordingObserver::new();
            let a = run_tripped(&mut migrating, trip, &mut migrating_obs);
            assert!(matches!(migrating.clock, Tiered::Exact(_)), "trip = {trip}");
            let mut exact = DvqKernel::with_ready(2, true, KeyHeap::default(), None);
            let mut exact_obs = RecordingObserver::new();
            let b = run_tripped(&mut exact, trip, &mut exact_obs);
            assert_eq!(a, b, "trip = {trip}");
            assert_eq!(migrating_obs.events(), exact_obs.events(), "trip = {trip}");
        }
    }
}
