//! The DVQ reference: the one DVQ event loop that shares no code with
//! `pfair_sim`'s DVQ kernel, which every shipped DVQ driver runs. The
//! bank's `keyed-vs-comparator` law and the root tests check the kernel
//! against it, and the `dvq-eager-successor` mutant is the same loop with
//! its one planted bug switched on.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use pfair_core::priority::PriorityOrder;
use pfair_numeric::Rat;
use pfair_sim::cost::checked_cost;
use pfair_sim::{CostModel, Placement, QuantumModel, Schedule};
use pfair_taskmodel::{SubtaskRef, TaskSystem};

/// The DVQ schedule of `sys` on `m` processors under `order`: a plain
/// event loop on exact [`Rat`] times that scans the ready subtasks with
/// `order`'s comparator at every pick. Every processor frees at time 0 and
/// every chain head becomes ready at its eligibility; all events at an
/// instant are drained (frees first, ascending) before free processors,
/// lowest index first, go to ready subtasks in priority order. A subtask
/// placed at `τ` with cost `c` frees its processor at `τ + c` and readies
/// its successor at `max(e, τ + c)`.
///
/// # Panics
/// If `m` is 0 while `sys` has subtasks, or if `cost` yields a cost
/// outside `(0, 1]`.
#[must_use]
pub fn scan_dvq(
    sys: &TaskSystem,
    m: u32,
    order: &dyn PriorityOrder,
    cost: &mut dyn CostModel,
) -> Schedule {
    scan(sys, m, order, cost, false)
}

/// [`scan_dvq`]'s loop. `eager_successor` is the planted bug, set only by
/// the `dvq-eager-successor` mutant: a successor becomes ready at
/// `max(e, τ)`, its predecessor's *start*, ignoring the completion.
pub(crate) fn scan(
    sys: &TaskSystem,
    m: u32,
    order: &dyn PriorityOrder,
    cost: &mut dyn CostModel,
    eager_successor: bool,
) -> Schedule {
    // `(instant, 0 = processor frees | 1 = subtask becomes ready, id)`.
    let mut events: BinaryHeap<Reverse<(Rat, u8, u32)>> = BinaryHeap::new();
    for proc in 0..m {
        events.push(Reverse((Rat::ZERO, 0, proc)));
    }
    for t in sys.tasks() {
        if let Some(head) = sys.task_subtask_refs(t.id).next() {
            events.push(Reverse((Rat::int(sys.subtask(head).eligible), 1, head.0)));
        }
    }
    let n = sys.num_subtasks();
    let (mut free, mut ready, mut placements) = (Vec::new(), Vec::new(), Vec::with_capacity(n));
    while placements.len() < n {
        let Reverse((now, _, _)) = *events.peek().expect("every unplaced subtask has an event");
        while let Some(&Reverse((t, kind, id))) = events.peek() {
            if t != now {
                break;
            }
            events.pop();
            if kind == 0 {
                free.push(id);
            } else {
                ready.push(SubtaskRef(id));
            }
        }
        free.sort_unstable_by(|a, b| b.cmp(a)); // `pop` serves the lowest index
        while !free.is_empty() && !ready.is_empty() {
            let best = (0..ready.len())
                .min_by(|&a, &b| order.cmp(sys, ready[a], ready[b]))
                .expect("ready is nonempty");
            let st = ready.swap_remove(best);
            let c = checked_cost(cost.cost(sys, st), st);
            let proc = free.pop().expect("free is nonempty");
            let end = now + c;
            placements.push(Placement {
                st,
                proc,
                start: now,
                cost: c,
                holds_until: end,
            });
            events.push(Reverse((end, 0, proc)));
            if let Some(succ) = sys.subtask(st).succ {
                let armed = if eager_successor { now } else { end };
                let at = Rat::int(sys.subtask(succ).eligible).max(armed);
                events.push(Reverse((at, 1, succ.0)));
            }
        }
    }
    Schedule::new(sys, QuantumModel::Dvq, m, placements)
}
