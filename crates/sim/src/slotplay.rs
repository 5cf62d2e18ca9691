//! Shared replay driver for the *slot-table* engines (BF, flow-network).
//!
//! Unlike the event-driven simulators, the BF and flow engines decide the
//! complete mapping `subtask → (slot, processor)` up front — BF at period
//! boundaries, the flow engine by solving a max-flow instance. What remains
//! identical between them is the act of turning that table into a
//! [`Schedule`] while threading the cost model and the observer: visiting
//! slots in order, announcing quantum ends before the next decision
//! instant, and emitting `Tick`/`Ready`/`QuantumStart`/`Idle` exactly the
//! way the per-slot SFQ driver does.
//!
//! The replay runs on exact [`Rat`] times: every decision instant is an
//! integral slot, there is no event heap to speed up, and costs enter only
//! as completion offsets.

use pfair_numeric::Rat;
use pfair_obs::{Observer, ReadyCause, SchedEvent};
use pfair_taskmodel::{SubtaskRef, TaskSystem};

use crate::cost::{checked_cost, CostModel};
use crate::emit::{flush_ends, PendingEnd};
use crate::schedule::{Placement, QuantumModel, Schedule};

/// One decided cell of a slot table: `st` runs in slot `[slot, slot + 1)`
/// on processor `proc`.
#[derive(Clone, Copy, Debug)]
pub(crate) struct Cell {
    /// The (integral) slot.
    pub slot: i64,
    /// The processor, in `0..m`.
    pub proc: u32,
    /// The subtask.
    pub st: SubtaskRef,
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

/// Replays a decided slot table into a [`Schedule`], emitting the standard
/// event stream along the way.
pub(crate) fn replay<O: Observer>(
    sys: &TaskSystem,
    model: QuantumModel,
    m: u32,
    mut cells: Vec<Cell>,
    cost: &mut dyn CostModel,
    obs: &mut O,
) -> Schedule {
    cells.sort_unstable_by_key(|c| (c.slot, c.proc));
    let mut placements = Vec::with_capacity(cells.len());
    // Slot each subtask ran in (for the readiness cause of successors).
    let mut slot_of: Vec<Option<i64>> = vec![None; sys.num_subtasks()];
    let mut pending_ends: Vec<PendingEnd> = Vec::new();

    let mut i = 0;
    while i < cells.len() {
        let t = cells[i].slot;
        let end = i + cells[i..].iter().take_while(|c| c.slot == t).count();
        let batch = &cells[i..end];
        // Every quantum from an earlier slot completed at or before `t`
        // (costs are ≤ 1): announce those ends before this slot emits.
        if O::ENABLED {
            flush_ends(sys, &mut pending_ends, obs);
            obs.on_event(&SchedEvent::Tick { at: Rat::int(t) });
            // Slot engines commit to dispatch instants ahead of time, so a
            // subtask's observable readiness *is* its dispatch slot; the
            // cause still records what gated it last (chain vs eligibility).
            for cell in batch {
                let s = sys.subtask(cell.st);
                let pred_done_at = match s.pred {
                    None => i64::MIN,
                    Some(p) => slot_of[p.idx()].expect("slot table respects precedence") + 1,
                };
                let cause = if pred_done_at > s.eligible {
                    ReadyCause::Predecessor
                } else {
                    ReadyCause::Eligibility
                };
                obs.on_event(&SchedEvent::Ready {
                    id: s.id,
                    at: Rat::int(t),
                    cause,
                });
            }
        }
        for cell in batch {
            let start = Rat::int(t);
            let holds_until = start + Rat::ONE;
            let c = checked_cost(cost.cost(sys, cell.st), cell.st);
            placements.push(Placement {
                st: cell.st,
                proc: cell.proc,
                start,
                cost: c,
                holds_until,
            });
            slot_of[cell.st.idx()] = Some(t);
            if O::ENABLED {
                let s = sys.subtask(cell.st);
                obs.on_event(&SchedEvent::QuantumStart {
                    id: s.id,
                    proc: cell.proc,
                    start,
                    cost: c,
                    holds_until,
                    deadline: s.deadline,
                    bbit: s.bbit,
                    group_deadline: s.group_deadline,
                });
                pending_ends.push((start + c, cell.proc, cell.st, holds_until - start - c));
            }
        }
        if O::ENABLED && batch.len() < m as usize {
            obs.on_event(&SchedEvent::Idle {
                at: Rat::int(t),
                procs: m - batch.len() as u32,
            });
        }
        i = end;
    }

    if O::ENABLED {
        flush_ends(sys, &mut pending_ends, obs);
    }
    Schedule::new(sys, model, m, placements)
}
