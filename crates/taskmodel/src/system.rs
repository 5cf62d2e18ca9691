//! The immutable task system: tasks plus their released subtasks.

use core::fmt;
use std::sync::OnceLock;

use pfair_numeric::Rat;
use serde::{Deserialize, Serialize, Value};

use crate::subtask::{Subtask, SubtaskId, SubtaskRef};
use crate::weight::Weight;

/// Identity of a task within a system (dense, 0-based).
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct TaskId(pub u32);

impl fmt::Debug for TaskId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "T{}", self.0)
    }
}

impl TaskId {
    /// The index into the system's task table.
    #[must_use]
    pub fn idx(self) -> usize {
        self.0 as usize
    }
}

/// A recurrent task: a weight plus an optional human-readable name.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct Task {
    /// Identity within the owning system.
    pub id: TaskId,
    /// Weight `wt(T) = e/p`.
    pub weight: Weight,
    /// Display name (defaults to `T<id>`; the paper's examples use letters).
    pub name: String,
}

/// An immutable GIS task system: the unit simulators and analyses consume.
///
/// Holds the task table and the full table of *released* subtasks (up to the
/// construction horizon), each with resolved windows, eligibility, tie-break
/// parameters and predecessor/successor links. Built via
/// [`crate::TaskSystemBuilder`] or the [`crate::release`] helpers; all model
/// constraints (Eqns (5), (6), GIS separation) are enforced at build time,
/// so holders of a `TaskSystem` may assume they hold.
#[derive(Clone)]
pub struct TaskSystem {
    pub(crate) tasks: Vec<Task>,
    /// All released subtasks, grouped by task and ordered by index within
    /// each task (the global order is task-major).
    pub(crate) subtasks: Vec<Subtask>,
    /// For each task, the range of its subtasks in `subtasks`.
    pub(crate) spans: Vec<(u32, u32)>,
    /// [`TaskSystem::weight_ranks`], sorted on first use. A function of
    /// `tasks`, so equality, `Debug` and serialization leave it out.
    pub(crate) weight_ranks: OnceLock<Box<[u32]>>,
}

impl PartialEq for TaskSystem {
    fn eq(&self, other: &TaskSystem) -> bool {
        (&self.tasks, &self.subtasks, &self.spans) == (&other.tasks, &other.subtasks, &other.spans)
    }
}

impl Eq for TaskSystem {}

impl fmt::Debug for TaskSystem {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("TaskSystem")
            .field("tasks", &self.tasks)
            .field("subtasks", &self.subtasks)
            .field("spans", &self.spans)
            .finish()
    }
}

impl Serialize for TaskSystem {
    fn to_value(&self) -> Value {
        Value::Map(vec![
            ("tasks".to_owned(), self.tasks.to_value()),
            ("subtasks".to_owned(), self.subtasks.to_value()),
            ("spans".to_owned(), self.spans.to_value()),
        ])
    }
}

impl Deserialize for TaskSystem {
    fn from_value(v: &Value) -> Result<TaskSystem, serde::de::Error> {
        Ok(TaskSystem {
            tasks: Deserialize::from_value(v.field("tasks")?)?,
            subtasks: Deserialize::from_value(v.field("subtasks")?)?,
            spans: Deserialize::from_value(v.field("spans")?)?,
            weight_ranks: OnceLock::new(),
        })
    }
}

impl TaskSystem {
    /// The tasks.
    #[must_use]
    pub fn tasks(&self) -> &[Task] {
        &self.tasks
    }

    /// Number of tasks.
    #[must_use]
    pub fn num_tasks(&self) -> usize {
        self.tasks.len()
    }

    /// A task by id.
    #[must_use]
    pub fn task(&self, id: TaskId) -> &Task {
        &self.tasks[id.idx()]
    }

    /// Each task's place, indexed by task id, when the tasks are sorted
    /// by weight descending, then id ascending: the weight and id
    /// tie-breaks that end the PD², EPDF and PD orders, as one integer.
    /// Sorted on the first call and kept, so every engine run on the
    /// system shares one sort.
    #[must_use]
    pub fn weight_ranks(&self) -> &[u32] {
        self.weight_ranks.get_or_init(|| {
            let n = u32::try_from(self.tasks.len()).expect("task ids fit u32");
            let mut by_priority: Vec<u32> = (0..n).collect();
            // Stable, so equal weights stay in id order.
            by_priority.sort_by(|&a, &b| {
                self.tasks[b as usize]
                    .weight
                    .cmp(&self.tasks[a as usize].weight)
            });
            let mut ranks = vec![0; by_priority.len()].into_boxed_slice();
            for (rank, &task) in (0..).zip(&by_priority) {
                ranks[task as usize] = rank;
            }
            ranks
        })
    }

    /// All released subtasks (task-major order).
    #[must_use]
    pub fn subtasks(&self) -> &[Subtask] {
        &self.subtasks
    }

    /// Number of released subtasks.
    #[must_use]
    pub fn num_subtasks(&self) -> usize {
        self.subtasks.len()
    }

    /// A subtask by dense reference.
    #[must_use]
    pub fn subtask(&self, r: SubtaskRef) -> &Subtask {
        &self.subtasks[r.idx()]
    }

    /// Iterates over `(SubtaskRef, &Subtask)` pairs.
    pub fn iter_refs(&self) -> impl Iterator<Item = (SubtaskRef, &Subtask)> {
        self.subtasks
            .iter()
            .enumerate()
            .map(|(i, s)| (SubtaskRef(i as u32), s))
    }

    /// The released subtasks of one task, in index order.
    #[must_use]
    pub fn task_subtasks(&self, id: TaskId) -> &[Subtask] {
        let (lo, hi) = self.spans[id.idx()];
        &self.subtasks[lo as usize..hi as usize]
    }

    /// Dense refs of the released subtasks of one task, in index order.
    pub fn task_subtask_refs(&self, id: TaskId) -> impl Iterator<Item = SubtaskRef> {
        let (lo, hi) = self.spans[id.idx()];
        (lo..hi).map(SubtaskRef)
    }

    /// The half-open range `[lo, hi)` of dense refs belonging to one task.
    #[must_use]
    pub fn task_span(&self, id: TaskId) -> (u32, u32) {
        self.spans[id.idx()]
    }

    /// Looks up the dense ref of a subtask id (binary search within the
    /// task's span). Returns `None` for unreleased (skipped) indices.
    #[must_use]
    pub fn find(&self, id: SubtaskId) -> Option<SubtaskRef> {
        let (lo, hi) = *self.spans.get(id.task.idx())?;
        let span = &self.subtasks[lo as usize..hi as usize];
        span.binary_search_by_key(&id.index, |s| s.id.index)
            .ok()
            .map(|off| SubtaskRef(lo + off as u32))
    }

    /// Total utilization `Σ wt(T)` as an exact rational.
    #[must_use]
    pub fn utilization(&self) -> Rat {
        self.tasks.iter().map(|t| t.weight.as_rat()).sum()
    }

    /// `true` iff the system is feasible on `m` processors
    /// (`Σ wt(T) ≤ m`; §2, citing reference \[2\] of the paper).
    #[must_use]
    pub fn is_feasible(&self, m: u32) -> bool {
        self.utilization() <= Rat::int(i64::from(m))
    }

    /// The latest deadline among released subtasks (0 for an empty system).
    /// Simulation horizons are derived from this.
    #[must_use]
    pub fn max_deadline(&self) -> i64 {
        self.subtasks.iter().map(|s| s.deadline).max().unwrap_or(0)
    }

    /// The latest *group deadline or deadline* among released subtasks —
    /// an upper bound on any time the scheduler can still owe work given
    /// tardiness ≤ 1 (used to size traces).
    #[must_use]
    pub fn horizon(&self) -> i64 {
        self.subtasks
            .iter()
            .map(|s| s.deadline.max(s.group_deadline))
            .max()
            .unwrap_or(0)
            + 2
    }

    /// A copy of this system with every subtask's window shifted right by
    /// `delta_window` slots (`θ += delta_window`, hence `r`, `d`, `D` all
    /// shift) and every eligibility time shifted by `delta_eligible`.
    ///
    /// This is the transformation of §3.3: from `τ^B`, the system `τ` with
    /// every IS-window right-shifted by one slot is obtained via
    /// `shifted(1, 1)`; decreasing eligibility back (the `k`-compliance
    /// construction) corresponds to `shifted(1, 0)`.
    ///
    /// # Panics
    /// Panics if the result would violate `e(T_i) ≤ r(T_i)` (i.e. if
    /// `delta_eligible > delta_window`) or place a window before time 0.
    #[must_use]
    pub fn shifted(&self, delta_window: i64, delta_eligible: i64) -> TaskSystem {
        assert!(
            delta_eligible <= delta_window,
            "shift would make subtasks eligible after their release"
        );
        let mut out = self.clone();
        for s in &mut out.subtasks {
            s.theta += delta_window;
            s.release += delta_window;
            s.deadline += delta_window;
            // Light tasks keep the sentinel D = 0; heavy group deadlines
            // shift with the window.
            if s.group_deadline != 0 {
                s.group_deadline += delta_window;
            }
            s.eligible += delta_eligible;
            assert!(s.eligible >= 0 && s.release >= 0, "shift before time 0");
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::release;

    fn fig2_system() -> TaskSystem {
        // Fig. 2 task set: A,B,C at 1/6 and D,E,F at 1/2 on M = 2, one
        // hyperperiod.
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
    fn utilization_and_feasibility() {
        let sys = fig2_system();
        assert_eq!(sys.utilization(), Rat::int(2));
        assert!(sys.is_feasible(2));
        assert!(!sys.is_feasible(1));
    }

    #[test]
    fn spans_and_lookup() {
        let sys = fig2_system();
        assert_eq!(sys.num_tasks(), 6);
        // 1/6 tasks have 1 subtask in [0, 6); 1/2 tasks have 3.
        assert_eq!(sys.task_subtasks(TaskId(0)).len(), 1);
        assert_eq!(sys.task_subtasks(TaskId(3)).len(), 3);
        assert_eq!(sys.num_subtasks(), 3 + 9);
        let d2 = sys
            .find(SubtaskId {
                task: TaskId(3),
                index: 2,
            })
            .unwrap();
        let st = sys.subtask(d2);
        assert_eq!((st.release, st.deadline), (2, 4));
        assert!(sys
            .find(SubtaskId {
                task: TaskId(0),
                index: 99
            })
            .is_none());
    }

    #[test]
    fn weight_ranks_put_heavier_then_lower_ids_first() {
        let sys = release::periodic(&[(1, 6), (1, 2), (1, 6), (2, 3), (1, 2)], 6);
        assert_eq!(sys.weight_ranks(), [3, 1, 4, 0, 2]);
    }

    /// The ranks are left out of the serialized form and rebuilt from
    /// the tasks.
    #[test]
    fn serialization_leaves_the_ranks_out() {
        let sys = fig2_system();
        let _ = sys.weight_ranks();
        let value = sys.to_value();
        let Value::Map(fields) = &value else {
            panic!("a system serializes to a map");
        };
        let names: Vec<&str> = fields.iter().map(|(name, _)| name.as_str()).collect();
        assert_eq!(names, ["tasks", "subtasks", "spans"]);
        let back = TaskSystem::from_value(&value).expect("round trip");
        assert_eq!(back, sys);
        assert_eq!(back.weight_ranks(), sys.weight_ranks());
    }

    #[test]
    fn pred_succ_links() {
        let sys = fig2_system();
        let refs: Vec<_> = sys.task_subtask_refs(TaskId(3)).collect();
        assert_eq!(refs.len(), 3);
        assert_eq!(sys.subtask(refs[0]).pred, None);
        assert_eq!(sys.subtask(refs[0]).succ, Some(refs[1]));
        assert_eq!(sys.subtask(refs[1]).pred, Some(refs[0]));
        assert_eq!(sys.subtask(refs[2]).succ, None);
    }

    #[test]
    fn shifted_moves_windows_and_eligibility() {
        let sys = fig2_system();
        let shifted = sys.shifted(1, 1);
        for (a, b) in sys.subtasks().iter().zip(shifted.subtasks()) {
            assert_eq!(b.release, a.release + 1);
            assert_eq!(b.deadline, a.deadline + 1);
            assert_eq!(b.eligible, a.eligible + 1);
        }
        // shifted(1, 0): windows move, eligibility stays (the k-compliance
        // construction of §3.3 at k = n).
        let hybrid = sys.shifted(1, 0);
        for (a, b) in sys.subtasks().iter().zip(hybrid.subtasks()) {
            assert_eq!(b.release, a.release + 1);
            assert_eq!(b.eligible, a.eligible);
        }
    }

    #[test]
    #[should_panic(expected = "eligible after their release")]
    fn shifted_rejects_bad_deltas() {
        let _ = fig2_system().shifted(0, 1);
    }

    #[test]
    fn horizon_covers_deadlines() {
        let sys = fig2_system();
        assert!(sys.horizon() > sys.max_deadline());
    }
}
