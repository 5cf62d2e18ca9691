//! The flow-network engine: per-slot allocations from a Dinic max flow.
//!
//! Cho & Easwaran model optimal multiprocessor scheduling of unit-cost
//! subtasks as a bipartite flow problem: `source → subtask` (capacity 1),
//! `subtask → (task, slot)` for every slot in the subtask's PF-window
//! (capacity 1, so a task never runs twice in one slot), `(task, slot) →
//! slot` (capacity 1) and `slot → sink` (capacity `m`). A saturating
//! integral max flow *is* a valid schedule: the unit edges carrying flow
//! name each subtask's slot, and Dinic on unit-capacity bipartite graphs
//! returns integral flow by construction.
//!
//! The engine builds this network **deterministically** (dense,
//! insertion-ordered ids; Dinic scans each node's arcs in insertion order,
//! so the same network always yields the same flow) and solves it
//! *incrementally*: each task's demand is patched into the graph and
//! re-augmented via [`FlowNetwork::max_flow`]'s residual state, rather
//! than re-solving from scratch — the patching workflow the maxflow crate
//! documents. The kernel keeps its scratch across those calls, so a
//! re-augmentation allocates nothing beyond the new arcs.
//!
//! Every placement lands inside its PF-window, so on feasible systems the
//! extracted schedule has zero tardiness and — unlike BF — satisfies the
//! Pfair window discipline. Like all slot engines it is non-work-conserving
//! and its schedule is independent of the cost model.

use pfair_maxflow::{EdgeId, FlowNetwork};
use pfair_obs::{NoopObserver, Observer};
use pfair_taskmodel::{SubtaskRef, TaskSystem};

use crate::cost::CostModel;
use crate::schedule::{QuantumModel, Schedule};
use crate::slotplay::{replay, Cell};

/// Simulates `sys` on `m` processors by extracting the schedule from a
/// saturating max flow over the PF-window network.
///
/// # Panics
/// Panics unless `m ≥ 1` and all releases are nonnegative, or if the flow
/// does not saturate (the system is infeasible on `m` processors — the
/// campaign generators filter to `U ≤ m`, where saturation is the
/// classical feasibility result this engine rests on).
#[must_use]
pub fn simulate_flow(sys: &TaskSystem, m: u32, cost: &mut dyn CostModel) -> Schedule {
    simulate_flow_observed(sys, m, cost, &mut NoopObserver)
}

/// [`simulate_flow`] with a streaming [`Observer`] attached. With
/// [`NoopObserver`] this monomorphizes to exactly [`simulate_flow`]'s code.
#[must_use]
pub fn simulate_flow_observed<O: Observer>(
    sys: &TaskSystem,
    m: u32,
    cost: &mut dyn CostModel,
    obs: &mut O,
) -> Schedule {
    assert!(m >= 1, "need at least one processor");
    let cells = flow_slot_table(sys, m);
    replay(sys, QuantumModel::Flow, m, cells, cost, obs)
}

/// Solves the PF-window flow network and extracts the slot table.
fn flow_slot_table(sys: &TaskSystem, m: u32) -> Vec<Cell> {
    let n = sys.num_subtasks();
    if n == 0 {
        return Vec::new();
    }
    let horizon = sys.max_deadline();

    // Deterministic node layout: source, the subtasks, each task's
    // (task, slot) exclusivity nodes over its own [min release, max
    // deadline) range, the slots, the sink.
    let n_tasks = sys.num_tasks();
    let mut ts_base = vec![0usize; n_tasks];
    let mut task_lo = vec![0i64; n_tasks];
    let mut task_hi = vec![0i64; n_tasks];
    let mut next = 1 + n;
    for (k, task) in sys.tasks().iter().enumerate() {
        let subs = sys.task_subtasks(task.id);
        if subs.is_empty() {
            ts_base[k] = next;
            continue;
        }
        let lo = subs.iter().map(|s| s.release).min().expect("nonempty");
        let hi = subs.iter().map(|s| s.deadline).max().expect("nonempty");
        assert!(
            lo >= 0,
            "flow engine requires nonnegative releases (task {:?} releases at {lo})",
            task.id
        );
        ts_base[k] = next;
        task_lo[k] = lo;
        task_hi[k] = hi;
        next += usize::try_from(hi - lo).expect("window span fits usize");
    }
    let slot_base = next;
    let horizon_len = usize::try_from(horizon).expect("horizon fits usize");
    let sink = slot_base + horizon_len;
    let mut net = FlowNetwork::new(sink + 1);

    for t in 0..horizon_len {
        net.add_edge(slot_base + t, sink, i64::from(m));
    }

    // Patch each task's demand into the network and re-augment: Dinic's
    // residual state is preserved across calls, so each call only finds
    // the new task's augmenting paths.
    let mut window_edges: Vec<(EdgeId, SubtaskRef, i64)> = Vec::new();
    let mut saturated = 0i64;
    for (k, task) in sys.tasks().iter().enumerate() {
        let subs = sys.task_subtasks(task.id);
        if subs.is_empty() {
            continue;
        }
        for st in sys.task_subtask_refs(task.id) {
            let s = sys.subtask(st);
            net.add_edge(0, 1 + st.idx(), 1);
            for slot in s.release..s.deadline {
                let ts = ts_base[k] + usize::try_from(slot - task_lo[k]).expect("in range");
                let eid = net.add_edge(1 + st.idx(), ts, 1);
                window_edges.push((eid, st, slot));
            }
        }
        for slot in task_lo[k]..task_hi[k] {
            let ts = ts_base[k] + usize::try_from(slot - task_lo[k]).expect("in range");
            let slot_idx = usize::try_from(slot).expect("in range");
            net.add_edge(ts, slot_base + slot_idx, 1);
        }
        saturated += net.max_flow(0, sink);
    }
    assert!(
        saturated == i64::try_from(n).expect("subtask count fits i64"),
        "flow engine: max flow {saturated} < {n} subtasks — the system is \
         infeasible on {m} processors (window demand exceeds capacity)"
    );

    // Extraction: the saturated window edges name each subtask's slot.
    let mut slot_of: Vec<Option<i64>> = vec![None; n];
    for &(eid, st, slot) in &window_edges {
        if net.flow(eid) == 1 {
            assert!(
                slot_of[st.idx()].is_none(),
                "unit subtask {st:?} carries flow in two slots"
            );
            slot_of[st.idx()] = Some(slot);
        }
    }
    let mut by_slot: Vec<(i64, SubtaskRef)> = slot_of
        .iter()
        .enumerate()
        .map(|(i, s)| {
            let i_u32 = u32::try_from(i).expect("subtask count fits u32");
            (
                s.expect("saturation places every subtask"),
                SubtaskRef(i_u32),
            )
        })
        .collect();
    by_slot.sort_unstable();
    let mut cells = Vec::with_capacity(n);
    let mut i = 0;
    while i < by_slot.len() {
        let slot = by_slot[i].0;
        let run = by_slot[i..].iter().take_while(|x| x.0 == slot).count();
        assert!(run <= m as usize, "slot {slot} over capacity");
        for (proc, &(_, st)) in by_slot[i..i + run].iter().enumerate() {
            cells.push(Cell {
                slot,
                proc: u32::try_from(proc).expect("proc fits u32"),
                st,
            });
        }
        i += run;
    }
    cells
}

#[cfg(test)]
mod tests {
    use super::*;
    use pfair_numeric::Rat;
    use pfair_taskmodel::release;

    use crate::cost::{FullQuantum, ScaledCost};
    use crate::fig2_system;

    fn assert_windows_respected(sys: &TaskSystem, sched: &Schedule) {
        for (st, s) in sys.iter_refs() {
            let start = sched.start(st).floor();
            assert!(
                s.release <= start && start < s.deadline,
                "{:?} at slot {start} outside its PF-window [{}, {})",
                s.id,
                s.release,
                s.deadline
            );
        }
    }

    #[test]
    fn fig2_flow_is_window_valid_and_meets_deadlines() {
        let sys = fig2_system();
        let sched = simulate_flow(&sys, 2, &mut FullQuantum);
        assert_windows_respected(&sys, &sched);
        for t in 0..6 {
            assert!(sched.executing_in_slot(t).count() <= 2);
        }
        for (st, s) in sys.iter_refs() {
            assert!(sched.completion(st) <= Rat::int(s.deadline));
        }
    }

    #[test]
    fn full_utilization_saturates_every_slot() {
        let sys = release::periodic(&[(1, 2), (1, 3), (1, 6), (1, 1)], 6);
        assert_eq!(sys.utilization(), Rat::int(2));
        let sched = simulate_flow(&sys, 2, &mut FullQuantum);
        assert_windows_respected(&sys, &sched);
        for t in 0..6 {
            assert_eq!(sched.executing_in_slot(t).count(), 2, "slot {t} not full");
        }
    }

    #[test]
    fn handles_is_offsets() {
        // An IS system (offset windows) is still feasible and still
        // window-valid under the flow engine.
        let sys = release::periodic(&[(2, 5), (1, 3), (3, 7)], 21).shifted(2, 2);
        let sched = simulate_flow(&sys, 2, &mut FullQuantum);
        assert_windows_respected(&sys, &sched);
        assert_eq!(sched.placements().len(), sys.num_subtasks());
    }

    #[test]
    fn schedule_independent_of_cost_model() {
        let sys = fig2_system();
        let full = simulate_flow(&sys, 2, &mut FullQuantum);
        let scaled = simulate_flow(&sys, 2, &mut ScaledCost(Rat::new(1, 2)));
        for (x, y) in full.placements().iter().zip(scaled.placements()) {
            assert_eq!((x.st, x.proc, x.start), (y.st, y.proc, y.start));
        }
    }

    #[test]
    fn precedence_holds_within_every_task() {
        let sys = release::periodic(&[(3, 4), (2, 3), (5, 12)], 12);
        let sched = simulate_flow(&sys, 2, &mut FullQuantum);
        for task in sys.tasks() {
            let mut prev: Option<i64> = None;
            for st in sys.task_subtask_refs(task.id) {
                let slot = sched.start(st).floor();
                if let Some(p) = prev {
                    assert!(p < slot, "task {:?} precedence violated", task.id);
                }
                prev = Some(slot);
            }
        }
    }

    #[test]
    #[should_panic(expected = "infeasible")]
    fn rejects_infeasible_demand() {
        // Three unit-weight tasks on one processor: windows cannot fit.
        let sys = release::periodic(&[(1, 1), (1, 1), (1, 1)], 2);
        let _ = simulate_flow(&sys, 1, &mut FullQuantum);
    }
}
