//! A DVQ-shaped event stream for the observers' tests.

use crate::SchedEvent;
use pfair_numeric::Rat;
use pfair_taskmodel::{SubtaskRef, TaskSystem};

/// Every subtask of `sys`, in `(eligible, deadline)` order, takes the
/// first processor of `m` to free, at the latest of that, its
/// eligibility and its predecessor's completion, for `cost(k)` (the
/// `k`-th dispatch); the events come sorted by time, completions
/// before starts at one instant.
pub(crate) fn dvq_stream(
    sys: &TaskSystem,
    m: usize,
    cost: impl Fn(usize) -> Rat,
) -> Vec<SchedEvent> {
    let mut order: Vec<SubtaskRef> = sys.iter_refs().map(|(st, _)| st).collect();
    order.sort_by_key(|&st| {
        let s = sys.subtask(st);
        (s.eligible, s.deadline, st.idx())
    });
    let mut free = vec![Rat::ZERO; m];
    let mut done = vec![Rat::ZERO; sys.num_subtasks()];
    let mut timed: Vec<(Rat, u8, SchedEvent)> = Vec::new();
    for (k, &st) in order.iter().enumerate() {
        let s = sys.subtask(st);
        let proc = (0..m).min_by_key(|&p| free[p]).expect("m ≥ 1");
        let pred = s.pred.map_or(Rat::ZERO, |p| done[p.idx()]);
        let start = free[proc].max(Rat::int(s.eligible)).max(pred);
        let (cost, id, deadline) = (cost(k), s.id, s.deadline);
        let completion = start + cost;
        free[proc] = completion;
        done[st.idx()] = completion;
        let proc = u32::try_from(proc).expect("m fits u32");
        timed.push((
            start,
            1,
            SchedEvent::QuantumStart {
                id,
                proc,
                start,
                cost,
                holds_until: completion,
                deadline,
                bbit: s.bbit,
                group_deadline: s.group_deadline,
            },
        ));
        timed.push((
            completion,
            0,
            SchedEvent::QuantumEnd {
                id,
                proc,
                completion,
                deadline,
                waste: Rat::ZERO,
            },
        ));
        let tardiness = completion - Rat::int(deadline);
        timed.push((
            completion,
            0,
            if tardiness.is_positive() {
                SchedEvent::DeadlineMiss {
                    id,
                    completion,
                    deadline,
                    tardiness,
                }
            } else {
                SchedEvent::DeadlineHit {
                    id,
                    completion,
                    deadline,
                }
            },
        ));
    }
    timed.sort_by_key(|a| (a.0, a.1));
    timed.into_iter().map(|(_, _, ev)| ev).collect()
}

/// Costs `k/720720`-grid draws in `[1/2, 1]`, off the grid (`16/17`)
/// from dispatch `off` on.
pub(crate) fn grid_cost(off: usize) -> impl Fn(usize) -> Rat {
    move |k| {
        if k >= off {
            Rat::new(16, 17)
        } else {
            let k = i64::try_from(k).expect("small");
            Rat::new(360_360 + (k * 104_729) % 360_361, 720_720)
        }
    }
}
