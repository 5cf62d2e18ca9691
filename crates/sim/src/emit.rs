//! Event emission shared by the simulators.
//!
//! The DVQ kernel knows a quantum's completion when it frees the
//! processor, so it emits its own events and announces each end at once
//! through [`emit_end`]. SFQ, the staggered loop and the BF/flow slot
//! replay fix a quantum's length at its start, so its end is due at a
//! later instant: they record every quantum through one [`Recorder`],
//! which decides the event format and order for all three. Both kinds
//! share [`ready_cause`], and every `O::ENABLED` gate sits in this module.
//! [`replay_events`] goes the other way, from a recorded stream to a
//! schedule.

use pfair_numeric::Rat;
use pfair_obs::{Observer, ReadyCause, SchedEvent};
use pfair_taskmodel::{SubtaskId, SubtaskRef, TaskSystem};

use crate::cost::{checked_cost, CostModel};
use crate::schedule::{Placement, QuantumModel, Schedule};

/// Why a subtask became ready at `since`: its eligibility time `eligible`
/// gated it when the two coincide, its predecessor otherwise.
pub(crate) fn ready_cause<T: PartialEq>(eligible: T, since: T) -> ReadyCause {
    if eligible == since {
        ReadyCause::Eligibility
    } else {
        ReadyCause::Predecessor
    }
}

/// Emits `QuantumEnd` followed by the deadline verdict for one quantum of
/// subtask `id`, whose pseudo-deadline is `deadline`.
pub(crate) fn emit_end<O: Observer>(
    id: SubtaskId,
    deadline: i64,
    proc: u32,
    completion: Rat,
    waste: Rat,
    obs: &mut O,
) {
    if O::ENABLED {
        obs.on_event(&SchedEvent::QuantumEnd {
            id,
            proc,
            completion,
            deadline,
            waste,
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
}

/// A quantum whose end is still unannounced:
/// `(completion, proc, subtask, waste)`.
type PendingEnd = (Rat, u32, SubtaskRef, Rat);

/// A fixed-quantum run's record: its placements, its unannounced quantum
/// ends and its observer. Under `NoopObserver` only the placements remain.
pub(crate) struct Recorder<'a, O: Observer> {
    sys: &'a TaskSystem,
    obs: &'a mut O,
    placements: Vec<Placement>,
    /// Quanta whose ends are still unannounced.
    pending: Vec<PendingEnd>,
}

impl<'a, O: Observer> Recorder<'a, O> {
    /// An empty record of a run of `sys` that `obs` listens to.
    pub(crate) fn new(sys: &'a TaskSystem, obs: &'a mut O) -> Recorder<'a, O> {
        Recorder {
            sys,
            obs,
            placements: Vec::with_capacity(sys.num_subtasks()),
            pending: Vec::new(),
        }
    }

    /// Quanta placed so far.
    pub(crate) fn placed(&self) -> usize {
        self.placements.len()
    }

    /// Opens the decision instant `at`: announces every quantum end due by
    /// `at`, then emits `Tick`.
    pub(crate) fn open_instant(&mut self, at: Rat) {
        if O::ENABLED {
            self.announce_ends(Some(at));
            self.obs.on_event(&SchedEvent::Tick { at });
        }
    }

    /// Reports each `(subtask, since)` as ready at `at`, `since` being when
    /// its readiness began; `ready` is only consumed by an enabled observer.
    pub(crate) fn report_ready(
        &mut self,
        at: Rat,
        ready: impl IntoIterator<Item = (SubtaskRef, Rat)>,
    ) {
        if O::ENABLED {
            for (st, since) in ready {
                let s = self.sys.subtask(st);
                self.obs.on_event(&SchedEvent::Ready {
                    id: s.id,
                    at,
                    cause: ready_cause(Rat::int(s.eligible), since),
                });
            }
        }
    }

    /// Places `st` on `proc` from `start` until `holds_until` at the cost
    /// `cost` draws for it, and returns that cost. The quantum's end is
    /// announced when an instant at or after its completion opens.
    pub(crate) fn place(
        &mut self,
        st: SubtaskRef,
        proc: u32,
        start: Rat,
        holds_until: Rat,
        cost: &mut dyn CostModel,
    ) -> Rat {
        let c = checked_cost(cost.cost(self.sys, st), st);
        self.placements.push(Placement {
            st,
            proc,
            start,
            cost: c,
            holds_until,
        });
        if O::ENABLED {
            let s = self.sys.subtask(st);
            self.obs.on_event(&SchedEvent::QuantumStart {
                id: s.id,
                proc,
                start,
                cost: c,
                holds_until,
                deadline: s.deadline,
                bbit: s.bbit,
                group_deadline: s.group_deadline,
            });
            let completion = start + c;
            self.pending
                .push((completion, proc, st, holds_until - completion));
        }
        c
    }

    /// Reports `procs` processors left idle at `at` (nothing when zero).
    pub(crate) fn report_idle(&mut self, at: Rat, procs: u32) {
        if O::ENABLED && procs > 0 {
            self.obs.on_event(&SchedEvent::Idle { at, procs });
        }
    }

    /// Announces the remaining quantum ends and assembles the schedule.
    pub(crate) fn into_schedule(mut self, model: QuantumModel, m: u32) -> Schedule {
        if O::ENABLED {
            self.announce_ends(None);
        }
        Schedule::new(self.sys, model, m, self.placements)
    }

    /// Announces the pending ends completing at or before `by` (all of
    /// them for `None`) in `(completion, proc)` order, keeping event
    /// times nondecreasing. The due ends are swapped to the front, sorted,
    /// announced and drained, so no call allocates.
    fn announce_ends(&mut self, by: Option<Rat>) {
        let mut due = 0;
        for i in 0..self.pending.len() {
            if by.is_none_or(|by| self.pending[i].0 <= by) {
                self.pending.swap(i, due);
                due += 1;
            }
        }
        let ends = &mut self.pending[..due];
        ends.sort_unstable_by_key(|&(completion, proc, _, _)| (completion, proc));
        for &(completion, proc, st, waste) in &*ends {
            let s = self.sys.subtask(st);
            emit_end(s.id, s.deadline, proc, completion, waste, &mut *self.obs);
        }
        self.pending.drain(..due);
    }
}

/// Replays a recorded event stream into a DVQ [`Schedule`], validating it
/// along the way.
///
/// This is the inverse of the emitting engines: where they turn decisions
/// into `QuantumStart` events, this turns a stream of events — typically
/// recorded from a *real* multi-threaded `pfair-runtime` execution — back
/// into the `Schedule` the conformance bank and `pfair-analysis` judge.
/// Only `QuantumStart` events carry placements; everything else is
/// ignored here (the invariants that care about ends and verdicts recompute
/// them from `start + cost`).
///
/// # Errors
/// An explanatory message when the stream names a subtask the system does
/// not contain, schedules one twice, runs one on a processor `≥ m`, or
/// fails to schedule a released subtask at all. These are exactly the
/// torn-publication shapes a concurrency bug produces, so the message
/// carries the offending subtask.
pub fn replay_events(sys: &TaskSystem, m: u32, events: &[SchedEvent]) -> Result<Schedule, String> {
    let mut placements = Vec::new();
    let mut placed = vec![false; sys.num_subtasks()];
    for ev in events {
        let SchedEvent::QuantumStart {
            id,
            proc,
            start,
            cost,
            holds_until,
            ..
        } = ev
        else {
            continue;
        };
        let st = sys.find(*id).ok_or_else(|| {
            format!(
                "replayed stream schedules T{}_{}, which the system never released",
                id.task.0, id.index
            )
        })?;
        if placed[st.idx()] {
            return Err(format!(
                "replayed stream schedules T{}_{} twice",
                id.task.0, id.index
            ));
        }
        placed[st.idx()] = true;
        if *proc >= m {
            return Err(format!(
                "replayed stream runs T{}_{} on processor {proc}, but m = {m}",
                id.task.0, id.index
            ));
        }
        placements.push(Placement {
            st,
            proc: *proc,
            start: *start,
            cost: *cost,
            holds_until: *holds_until,
        });
    }
    if let Some(idx) = placed.iter().position(|&p| !p) {
        let s = sys.subtasks()[idx].id;
        return Err(format!(
            "replayed stream never schedules T{}_{} (released subtask lost)",
            s.task.0, s.index
        ));
    }
    Ok(Schedule::new(sys, QuantumModel::Dvq, m, placements))
}
