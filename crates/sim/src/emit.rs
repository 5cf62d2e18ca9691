//! Shared event-emission plumbing for the simulator drivers.

use pfair_numeric::Rat;
use pfair_obs::{Observer, SchedEvent};
use pfair_taskmodel::{SubtaskId, SubtaskRef, TaskSystem};

/// A quantum whose end has not been announced yet:
/// `(completion, proc, subtask, waste)`.
pub(crate) type PendingEnd = (Rat, u32, SubtaskRef, Rat);

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

/// Announces every pending quantum end in `(completion, proc)` order and
/// clears the list. Callers invoke this once all pending completions are at
/// or before the stream's current time, keeping event times nondecreasing.
pub(crate) fn flush_ends<O: Observer>(
    sys: &TaskSystem,
    pending: &mut Vec<PendingEnd>,
    obs: &mut O,
) {
    pending.sort_unstable_by_key(|&(completion, proc, _, _)| (completion, proc));
    for &(completion, proc, st, waste) in pending.iter() {
        let s = sys.subtask(st);
        emit_end(s.id, s.deadline, proc, completion, waste, obs);
    }
    pending.clear();
}

/// Like [`flush_ends`], but only for quanta completing at or before `now`
/// (staggered batches run at fractional times while quanta may complete
/// after the batch instant).
pub(crate) fn flush_due<O: Observer>(
    sys: &TaskSystem,
    pending: &mut Vec<PendingEnd>,
    now: Rat,
    obs: &mut O,
) {
    let mut due: Vec<PendingEnd> = Vec::new();
    pending.retain(|&end| {
        if end.0 <= now {
            due.push(end);
            false
        } else {
            true
        }
    });
    flush_ends(sys, &mut due, obs);
}
