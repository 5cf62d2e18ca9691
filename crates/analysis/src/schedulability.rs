//! An independent schedulability oracle via maximum flow.
//!
//! §2 of the paper states the classical feasibility result: *"a correct
//! schedule in which no subtask misses its deadline exists for a GIS task
//! system τ on M processors iff its total utilization is at most M."* The
//! "exists" direction is proved in the literature by a flow argument, and
//! that argument is directly executable: build the network
//!
//! ```text
//! source ──1──▶ subtask T_i ──1──▶ (task T, slot t) ──1──▶ slot t ──M──▶ sink
//!                                  for every slot t in T_i's window
//! ```
//!
//! The per-(task, slot) middle layer enforces "at most one subtask of a
//! task per slot" (no intra-task parallelism); the slot layer enforces the
//! processor count. A valid windowed schedule over the generated subtasks
//! exists **iff** the max flow saturates every subtask — in which case the
//! flow's unit edges *are* the schedule.
//!
//! This oracle shares no code with the simulators, so agreement between
//! "the oracle says schedulable" and "PD² under SFQ misses nothing" is a
//! genuine cross-check of both (exercised in `tests/oracle.rs`).

use pfair_maxflow::FlowNetwork;
use pfair_taskmodel::{Subtask, SubtaskRef, TaskSystem};

/// A slot or (task, slot) pair no window touches.
const UNSEEN: u32 = u32::MAX;

/// Which window each subtask may be placed in.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum WindowMode {
    /// The PF-window `[r(T_i), d(T_i))` — the classical validity notion.
    PfWindow,
    /// The IS-window `[e(T_i), d(T_i))` — allows early-released placement.
    IsWindow,
}

/// The oracle's answer.
#[derive(Clone, Debug)]
pub struct FlowSchedule {
    /// `true` iff every released subtask can be placed within its window.
    pub schedulable: bool,
    /// A witness assignment `subtask → slot` (complete iff `schedulable`).
    pub assignment: Vec<(SubtaskRef, i64)>,
}

/// Decides, by max flow, whether every released subtask of `sys` can be
/// scheduled within its window on `m` processors.
#[must_use]
pub fn flow_schedulable(sys: &TaskSystem, m: u32, mode: WindowMode) -> FlowSchedule {
    let n = sys.num_subtasks();
    if n == 0 {
        return FlowSchedule {
            schedulable: true,
            assignment: Vec::new(),
        };
    }

    let window = |st: SubtaskRef| {
        let s = sys.subtask(st);
        let lo = match mode {
            WindowMode::PfWindow => s.release,
            WindowMode::IsWindow => s.eligible,
        };
        (lo, s.deadline)
    };

    // Dense ids, assigned in first-seen order (windows can be sparse): one
    // per slot any window touches, and one per touched (task, slot) pair in
    // a task-major table over the same slot span.
    let (mut slot_lo, mut slot_hi) = (i64::MAX, i64::MIN);
    for (st, _) in sys.iter_refs() {
        let (lo, hi) = window(st);
        if lo < hi {
            (slot_lo, slot_hi) = (slot_lo.min(lo), slot_hi.max(hi));
        }
    }
    let width = usize::try_from(slot_hi.saturating_sub(slot_lo)).unwrap_or(0);
    let cell = |t: i64| usize::try_from(t - slot_lo).expect("slot in span");
    let ts_cell = |s: &Subtask, t: i64| s.id.task.idx() * width + cell(t);
    let mut slot_ids = vec![UNSEEN; width];
    let mut task_slot_ids = vec![UNSEEN; sys.num_tasks() * width];
    let (mut n_slots, mut n_task_slots) = (0u32, 0u32);
    for (st, s) in sys.iter_refs() {
        let (lo, hi) = window(st);
        for t in lo..hi {
            let id = &mut slot_ids[cell(t)];
            if *id == UNSEEN {
                *id = n_slots;
                n_slots += 1;
            }
            let id = &mut task_slot_ids[ts_cell(s, t)];
            if *id == UNSEEN {
                *id = n_task_slots;
                n_task_slots += 1;
            }
        }
    }

    // Node layout: 0 = source; 1..=n subtasks; then task-slot nodes; then
    // slot nodes; last = sink.
    let ts_base = 1 + n;
    let slot_base = ts_base + n_task_slots as usize;
    let sink = slot_base + n_slots as usize;
    let mut net = FlowNetwork::new(sink + 1);

    let mut subtask_edges = Vec::with_capacity(n);
    for (st, s) in sys.iter_refs() {
        let node = 1 + st.idx();
        net.add_edge(0, node, 1);
        let (lo, hi) = window(st);
        for t in lo..hi {
            let ts = ts_base + task_slot_ids[ts_cell(s, t)] as usize;
            let e = net.add_edge(node, ts, 1);
            subtask_edges.push((st, t, e));
        }
    }
    // The remaining edges go in by key — (task, slot), then slot — so the
    // network, and with it the witness, is the same on every run.
    for (i, &ts) in task_slot_ids.iter().enumerate() {
        if ts != UNSEEN {
            let sl = slot_ids[i % width];
            net.add_edge(ts_base + ts as usize, slot_base + sl as usize, 1);
        }
    }
    for &sl in &slot_ids {
        if sl != UNSEEN {
            net.add_edge(slot_base + sl as usize, sink, i64::from(m));
        }
    }

    let flow = net.max_flow(0, sink);
    let mut assignment = Vec::with_capacity(n);
    for (st, t, e) in subtask_edges {
        if net.flow(e) == 1 {
            assignment.push((st, t));
        }
    }
    FlowSchedule {
        schedulable: flow == n as i64,
        assignment,
    }
}

#[cfg(test)]
mod tests {
    use std::collections::BTreeMap;

    use super::*;
    use pfair_taskmodel::release;

    fn fig2_system() -> TaskSystem {
        release::periodic_named(
            &[
                ("A", 1, 6),
                ("B", 1, 6),
                ("C", 1, 6),
                ("D", 1, 2),
                ("E", 1, 2),
                ("F", 1, 2),
            ],
            6,
        )
    }

    #[test]
    fn feasible_system_saturates() {
        let sys = fig2_system();
        let fs = flow_schedulable(&sys, 2, WindowMode::PfWindow);
        assert!(fs.schedulable);
        assert_eq!(fs.assignment.len(), sys.num_subtasks());
        // The witness really is a valid windowed schedule.
        let mut per_slot: BTreeMap<i64, usize> = BTreeMap::new();
        let mut per_task_slot: BTreeMap<(u32, i64), usize> = BTreeMap::new();
        for (st, t) in &fs.assignment {
            let s = sys.subtask(*st);
            assert!(s.release <= *t && *t < s.deadline, "{:?} slot {t}", s.id);
            *per_slot.entry(*t).or_default() += 1;
            *per_task_slot.entry((s.id.task.0, *t)).or_default() += 1;
        }
        assert!(per_slot.values().all(|&k| k <= 2));
        assert!(per_task_slot.values().all(|&k| k == 1));
    }

    #[test]
    fn overloaded_system_does_not_saturate() {
        // Three weight-1 tasks on two processors: slot 0 needs 3 quanta.
        let sys = release::periodic(&[(1, 1), (1, 1), (1, 1)], 2);
        let fs = flow_schedulable(&sys, 2, WindowMode::PfWindow);
        assert!(!fs.schedulable);
        assert!(fs.assignment.len() < sys.num_subtasks());
    }

    #[test]
    fn boundary_utilization_exactly_m() {
        let sys = release::periodic(&[(1, 1), (1, 2), (1, 2)], 8);
        assert_eq!(sys.utilization(), pfair_numeric::Rat::int(2));
        assert!(flow_schedulable(&sys, 2, WindowMode::PfWindow).schedulable);
        assert!(!flow_schedulable(&sys, 1, WindowMode::PfWindow).schedulable);
    }

    #[test]
    fn is_window_mode_is_weaker() {
        // Early release can only add options.
        use pfair_taskmodel::release::{structured, ReleaseSpec};
        let sys = structured(
            &[ReleaseSpec {
                name: "T",
                e: 1,
                p: 2,
                delays: &[],
                drops: &[],
                early: 1,
            }],
            6,
        )
        .unwrap();
        let pf = flow_schedulable(&sys, 1, WindowMode::PfWindow);
        let is = flow_schedulable(&sys, 1, WindowMode::IsWindow);
        assert!(pf.schedulable && is.schedulable);
    }

    #[test]
    fn gis_system_schedulable() {
        use pfair_taskmodel::release::{structured, ReleaseSpec};
        let sys = structured(
            &[
                ReleaseSpec {
                    name: "T",
                    e: 3,
                    p: 4,
                    delays: &[(3, 1)],
                    drops: &[2],
                    early: 0,
                },
                ReleaseSpec::periodic("U", 1, 4),
            ],
            9,
        )
        .unwrap();
        assert!(flow_schedulable(&sys, 1, WindowMode::PfWindow).schedulable);
    }

    #[test]
    fn empty_system_trivially_schedulable() {
        let sys = release::periodic(&[], 4);
        assert!(flow_schedulable(&sys, 1, WindowMode::PfWindow).schedulable);
    }
}
