//! Shared replay driver for the *slot-table* engines (BF, flow-network).
//!
//! Unlike the event-driven simulators, the BF and flow engines decide the
//! complete mapping `subtask → (slot, processor)` up front — BF at period
//! boundaries, the flow engine by solving a max-flow instance. What remains
//! identical between them is the act of turning that table into a
//! [`Schedule`]: visiting slots in order and recording each one through
//! the fixed-quantum recorder of the `emit` module, which draws the costs,
//! announces quantum ends before the next decision instant and emits
//! `Tick`/`Ready`/`QuantumStart`/`Idle` as it does for SFQ. One rule is
//! the replay's own: a subtask's `Ready` is reported at its dispatch slot,
//! the only readiness a precomputed table makes observable.
//!
//! The replay runs on exact [`Rat`] times: every decision instant is an
//! integral slot, there is no event heap to speed up, and costs enter only
//! as completion offsets.

use pfair_numeric::Rat;
use pfair_obs::Observer;
use pfair_taskmodel::{SubtaskRef, TaskSystem};

use crate::cost::CostModel;
use crate::emit::Recorder;
use crate::schedule::{QuantumModel, Schedule};

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

/// Replays a decided slot table into a [`Schedule`], recording every
/// quantum through the fixed-quantum [`Recorder`].
pub(crate) fn replay<O: Observer>(
    sys: &TaskSystem,
    model: QuantumModel,
    m: u32,
    mut cells: Vec<Cell>,
    cost: &mut dyn CostModel,
    obs: &mut O,
) -> Schedule {
    cells.sort_unstable_by_key(|c| (c.slot, c.proc));
    let mut rec = Recorder::new(sys, obs);
    // Slot each subtask ran in (for the readiness cause of successors).
    let mut slot_of: Vec<Option<i64>> = vec![None; sys.num_subtasks()];
    for batch in cells.chunk_by(|a, b| a.slot == b.slot) {
        let t = batch[0].slot;
        let (at, until) = (Rat::int(t), Rat::int(t + 1));
        // Every quantum from an earlier slot completed at or before `t`
        // (costs are ≤ 1), so its end is announced before this slot emits.
        rec.open_instant(at);
        // Slot engines commit to dispatch instants ahead of time, so a
        // subtask's observable readiness *is* its dispatch slot; the cause
        // still records what gated it last (chain vs eligibility).
        rec.report_ready(
            at,
            batch.iter().map(|cell| {
                let s = sys.subtask(cell.st);
                let since = s.pred.map_or(s.eligible, |p| {
                    let pred_slot = slot_of[p.idx()].expect("slot table respects precedence");
                    s.eligible.max(pred_slot + 1)
                });
                (cell.st, Rat::int(since))
            }),
        );
        for cell in batch {
            rec.place(cell.st, cell.proc, at, until, cost);
            slot_of[cell.st.idx()] = Some(t);
        }
        rec.report_idle(at, m - batch.len() as u32);
    }
    rec.into_schedule(model, m)
}
