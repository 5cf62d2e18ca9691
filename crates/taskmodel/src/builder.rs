//! Incremental, validated construction of GIS task systems.

use std::sync::OnceLock;

use crate::error::ModelError;
use crate::subtask::{Subtask, SubtaskId, SubtaskRef};
use crate::system::{Task, TaskId, TaskSystem};
use crate::weight::Weight;
use crate::window;

/// Builds a [`TaskSystem`] one released subtask at a time, enforcing every
/// constraint of the GIS model as it goes:
///
/// * indices within a task are strictly increasing and start at 1
///   (skipped indices model GIS drops);
/// * IS offsets are monotone (Eq. (5)) — which in offset form *is* the GIS
///   release-separation rule of §2;
/// * eligibility times satisfy Eq. (6): `e(T_i) ≤ r(T_i)` and monotone over
///   released subtasks (eligibility strictly before the release models
///   early releasing, as in the ER-Pfair work the paper cites);
/// * no window starts before time 0.
///
/// ```
/// use pfair_taskmodel::{TaskSystemBuilder, Weight};
/// let mut b = TaskSystemBuilder::new();
/// let t = b.add_task(Weight::new(3, 4));
/// // Fig. 1(b): T_3 becomes eligible (and is released) one slot late.
/// b.push(t, 1, 0, None).unwrap();
/// b.push(t, 2, 0, None).unwrap();
/// b.push(t, 3, 1, None).unwrap(); // θ(T_3) = 1
/// let sys = b.build();
/// let s3 = sys.task_subtasks(t)[2].clone();
/// assert_eq!((s3.release, s3.deadline), (3, 5));
/// ```
#[derive(Clone, Debug, Default)]
pub struct TaskSystemBuilder {
    tasks: Vec<Task>,
    /// Per-task accumulated subtasks.
    per_task: Vec<Vec<Subtask>>,
}

impl TaskSystemBuilder {
    /// An empty builder.
    #[must_use]
    pub fn new() -> TaskSystemBuilder {
        TaskSystemBuilder::default()
    }

    /// Adds a task with an autogenerated name (`T<id>`), returning its id.
    pub fn add_task(&mut self, weight: Weight) -> TaskId {
        let id = TaskId(self.tasks.len() as u32);
        self.add_named_task(weight, format!("T{}", id.0))
    }

    /// Adds a task with an explicit display name, returning its id.
    pub fn add_named_task(&mut self, weight: Weight, name: impl Into<String>) -> TaskId {
        let id = TaskId(self.tasks.len() as u32);
        self.tasks.push(Task {
            id,
            weight,
            name: name.into(),
        });
        self.per_task.push(Vec::new());
        id
    }

    /// Number of tasks added so far.
    #[must_use]
    pub fn num_tasks(&self) -> usize {
        self.tasks.len()
    }

    /// Weight of a previously added task.
    ///
    /// # Panics
    /// Panics on an unknown id.
    #[must_use]
    pub fn weight_of(&self, task: TaskId) -> Weight {
        self.tasks[task.idx()].weight
    }

    /// The most recently released subtask index of `task` (`None` if none).
    #[must_use]
    pub fn last_index(&self, task: TaskId) -> Option<u64> {
        self.per_task[task.idx()].last().map(|s| s.id.index)
    }

    /// The θ offset of the most recently released subtask of `task`.
    #[must_use]
    pub fn last_theta(&self, task: TaskId) -> Option<i64> {
        self.per_task[task.idx()].last().map(|s| s.theta)
    }

    /// Releases subtask `T_index` of `task` with IS offset `theta`.
    ///
    /// `eligible`: `None` means `e(T_i) = r(T_i)` (no early release, the
    /// plain IS reading of Fig. 1(b)); `Some(t)` sets an explicit
    /// eligibility time, which must satisfy Eq. (6).
    ///
    /// # Errors
    /// Any violated model constraint, as a precise [`ModelError`].
    pub fn push(
        &mut self,
        task: TaskId,
        index: u64,
        theta: i64,
        eligible: Option<i64>,
    ) -> Result<SubtaskId, ModelError> {
        let t = self
            .tasks
            .get(task.idx())
            .ok_or(ModelError::UnknownTask { task })?;
        let weight = t.weight;
        let id = SubtaskId { task, index };
        if index == 0 {
            return Err(ModelError::ZeroIndex { task });
        }
        let prev = self.per_task[task.idx()].last();
        if let Some(prev) = prev {
            if prev.id.index >= index {
                return Err(ModelError::NonIncreasingIndex {
                    task,
                    prev: prev.id.index,
                    next: index,
                });
            }
            if prev.theta > theta {
                return Err(ModelError::DecreasingOffset {
                    subtask: id,
                    prev_theta: prev.theta,
                    theta,
                });
            }
        }
        let release = theta + window::release(weight, index);
        let deadline = theta + window::deadline(weight, index);
        let eligible = eligible.unwrap_or(release);
        if eligible > release {
            return Err(ModelError::EligibilityAfterRelease {
                subtask: id,
                eligible,
                release,
            });
        }
        if let Some(prev) = prev {
            if prev.eligible > eligible {
                return Err(ModelError::DecreasingEligibility {
                    subtask: id,
                    prev_eligible: prev.eligible,
                    eligible,
                });
            }
        }
        if eligible < 0 || release < 0 {
            return Err(ModelError::NegativeTime { subtask: id });
        }
        let gd = window::group_deadline(weight, index);
        let group_deadline = if gd == 0 { 0 } else { theta + gd };
        self.per_task[task.idx()].push(Subtask {
            id,
            theta,
            release,
            deadline,
            eligible,
            bbit: window::bbit(weight, index),
            group_deadline,
            pred: None, // fixed up in build()
            succ: None,
        });
        Ok(id)
    }

    /// Finalizes the system: lays subtasks out task-major and resolves
    /// predecessor/successor links.
    #[must_use]
    pub fn build(self) -> TaskSystem {
        let mut subtasks = Vec::with_capacity(self.per_task.iter().map(Vec::len).sum());
        let mut spans = Vec::with_capacity(self.per_task.len());
        for chain in self.per_task {
            let lo = subtasks.len() as u32;
            subtasks.extend(chain);
            let hi = subtasks.len() as u32;
            spans.push((lo, hi));
            for k in lo..hi {
                if k > lo {
                    subtasks[k as usize].pred = Some(SubtaskRef(k - 1));
                }
                if k + 1 < hi {
                    subtasks[k as usize].succ = Some(SubtaskRef(k + 1));
                }
            }
        }
        TaskSystem {
            tasks: self.tasks,
            subtasks,
            spans,
            weight_ranks: OnceLock::new(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rejects_zero_index() {
        let mut b = TaskSystemBuilder::new();
        let t = b.add_task(Weight::new(1, 2));
        assert!(matches!(
            b.push(t, 0, 0, None),
            Err(ModelError::ZeroIndex { .. })
        ));
    }

    #[test]
    fn rejects_non_increasing_index() {
        let mut b = TaskSystemBuilder::new();
        let t = b.add_task(Weight::new(1, 2));
        b.push(t, 2, 0, None).unwrap();
        assert!(matches!(
            b.push(t, 2, 0, None),
            Err(ModelError::NonIncreasingIndex { .. })
        ));
        assert!(matches!(
            b.push(t, 1, 0, None),
            Err(ModelError::NonIncreasingIndex { .. })
        ));
    }

    #[test]
    fn rejects_decreasing_offset() {
        let mut b = TaskSystemBuilder::new();
        let t = b.add_task(Weight::new(1, 2));
        b.push(t, 1, 3, None).unwrap();
        let err = b.push(t, 2, 2, None).unwrap_err();
        assert!(matches!(err, ModelError::DecreasingOffset { .. }));
    }

    #[test]
    fn rejects_bad_eligibility() {
        let mut b = TaskSystemBuilder::new();
        let t = b.add_task(Weight::new(1, 2));
        // e > r violates Eq. (6).
        assert!(matches!(
            b.push(t, 1, 0, Some(1)),
            Err(ModelError::EligibilityAfterRelease { .. })
        ));
        // Monotonicity of e over released subtasks.
        b.push(t, 1, 0, Some(0)).unwrap();
        b.push(t, 2, 1, Some(2)).unwrap(); // r(T_2) = 1 + 2 = 3, e = 2 ok
        let err = b.push(t, 3, 1, Some(1)).unwrap_err();
        assert!(matches!(err, ModelError::DecreasingEligibility { .. }));
    }

    #[test]
    fn rejects_unknown_task() {
        let mut b = TaskSystemBuilder::new();
        let _ = b.add_task(Weight::new(1, 2));
        assert!(matches!(
            b.push(TaskId(9), 1, 0, None),
            Err(ModelError::UnknownTask { .. })
        ));
    }

    #[test]
    fn gis_skip_allowed() {
        // Fig. 1(c): T_2 absent, T_3 eligible/released one unit late.
        let mut b = TaskSystemBuilder::new();
        let t = b.add_task(Weight::new(3, 4));
        b.push(t, 1, 0, None).unwrap();
        b.push(t, 3, 1, None).unwrap(); // skip index 2, θ = 1
        let sys = b.build();
        let sts = sys.task_subtasks(t);
        assert_eq!(sts.len(), 2);
        assert_eq!(sts[0].id.index, 1);
        assert_eq!(sts[1].id.index, 3);
        // r(T_3) = 1 + ⌊2·4/3⌋ = 1 + 2 = 3, d(T_3) = 1 + ⌈3·4/3⌉ = 5.
        assert_eq!((sts[1].release, sts[1].deadline), (3, 5));
        // Predecessor of T_3 is T_1 (the previously *released* subtask).
        assert_eq!(sts[1].pred, Some(SubtaskRef(0)));
        assert_eq!(sts[0].succ, Some(SubtaskRef(1)));
    }

    #[test]
    fn early_release_allowed() {
        let mut b = TaskSystemBuilder::new();
        let t = b.add_task(Weight::new(1, 2));
        b.push(t, 1, 0, Some(0)).unwrap();
        // r(T_2) = 2; early releasing makes it eligible at 1.
        b.push(t, 2, 0, Some(1)).unwrap();
        let sys = b.build();
        let s2 = &sys.task_subtasks(t)[1];
        assert_eq!(s2.eligible, 1);
        assert_eq!(s2.release, 2);
        assert_eq!(s2.is_window(), (1, 4));
        assert_eq!(s2.pf_window(), (2, 4));
    }

    #[test]
    fn group_deadline_shifts_with_theta() {
        let mut b = TaskSystemBuilder::new();
        let t = b.add_task(Weight::new(3, 4));
        b.push(t, 1, 5, None).unwrap();
        let sys = b.build();
        let s = &sys.task_subtasks(t)[0];
        assert_eq!(s.group_deadline, 5 + 4);
        // Light task: sentinel stays 0 regardless of θ.
        let mut b = TaskSystemBuilder::new();
        let t = b.add_task(Weight::new(1, 6));
        b.push(t, 1, 5, None).unwrap();
        let sys = b.build();
        assert_eq!(sys.task_subtasks(t)[0].group_deadline, 0);
    }
}
