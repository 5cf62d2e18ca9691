//! Schedule validity checks.
//!
//! Two notions, deliberately separated:
//!
//! * [`check_structural`] — invariants every model must respect, tardy or
//!   not: a processor runs one subtask at a time; a subtask never starts
//!   before its eligibility time or before its predecessor completes (no
//!   intra-task parallelism, §2); under SFQ, at most `M` subtasks per slot
//!   and integral commencement times.
//! * [`check_window_containment`] — the classical Pfair validity criterion
//!   ("each subtask must be scheduled within its window", §2): every
//!   subtask completes by its pseudo-deadline. PD² under SFQ satisfies it
//!   for every feasible system; DVQ schedules may violate it by design —
//!   that violation, bounded by one quantum, is the paper's subject.
//!
//! Both run on the schedule's `i64` tick grid when one fits (see the crate
//! docs). [`check_structural`] is one pass over the start-sorted
//! placements per check: a per-processor "last hold" array finds
//! overlaps, and over-full SFQ slots are runs of equal start slot, so the
//! cost is O(P + V) for P placements and V subtasks, whatever `M`.

use core::fmt;

use pfair_numeric::{on_tier, Tier, Time};
use pfair_sim::{QuantumModel, Schedule};
use pfair_taskmodel::{SubtaskRef, TaskSystem};

use crate::grid::{times, Grid};

/// A violated schedule invariant.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ValidityError {
    /// Two quanta overlap on one processor.
    ProcessorOverlap {
        /// The processor.
        proc: u32,
        /// Earlier subtask.
        first: SubtaskRef,
        /// Overlapping later subtask.
        second: SubtaskRef,
    },
    /// A subtask commenced before its eligibility time.
    BeforeEligibility {
        /// The subtask.
        st: SubtaskRef,
        /// Its commencement time.
        start: Time,
        /// Its eligibility time.
        eligible: i64,
    },
    /// A subtask commenced before its predecessor completed.
    BeforePredecessor {
        /// The subtask.
        st: SubtaskRef,
        /// Its commencement time.
        start: Time,
        /// Predecessor completion time.
        pred_completion: Time,
    },
    /// An SFQ/staggered schedule placed more than `M` subtasks in one slot.
    TooManyInSlot {
        /// The slot.
        slot: i64,
        /// How many were found.
        count: usize,
    },
    /// An SFQ schedule contains a non-integral commencement time.
    NonIntegralStart {
        /// The subtask.
        st: SubtaskRef,
        /// Its commencement time.
        start: Time,
    },
    /// A subtask completed after its pseudo-deadline (window containment).
    DeadlineMiss {
        /// The subtask.
        st: SubtaskRef,
        /// Its completion time.
        completion: Time,
        /// Its pseudo-deadline.
        deadline: i64,
    },
}

impl fmt::Display for ValidityError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ValidityError::ProcessorOverlap {
                proc,
                first,
                second,
            } => {
                write!(f, "processor {proc}: {first:?} and {second:?} overlap")
            }
            ValidityError::BeforeEligibility {
                st,
                start,
                eligible,
            } => {
                write!(f, "{st:?} starts at {start} before eligibility {eligible}")
            }
            ValidityError::BeforePredecessor {
                st,
                start,
                pred_completion,
            } => write!(
                f,
                "{st:?} starts at {start} before predecessor completes at {pred_completion}"
            ),
            ValidityError::TooManyInSlot { slot, count } => {
                write!(f, "slot {slot}: {count} subtasks exceed processor count")
            }
            ValidityError::NonIntegralStart { st, start } => {
                write!(
                    f,
                    "{st:?} starts at non-integral {start} in an SFQ schedule"
                )
            }
            ValidityError::DeadlineMiss {
                st,
                completion,
                deadline,
            } => write!(
                f,
                "{st:?} completes at {completion} after deadline {deadline}"
            ),
        }
    }
}

impl std::error::Error for ValidityError {}

/// Checks the structural invariants; returns every violation found.
///
/// Errors come grouped by kind: processor overlaps (by processor, then in
/// time order), early starts in subtask order, then for SFQ schedules
/// non-integral starts in placement order and over-full slots in slot
/// order.
#[must_use]
pub fn check_structural(sys: &TaskSystem, sched: &Schedule) -> Vec<ValidityError> {
    on_tier!(&times(Some(sys), sched), |tm| structural_in(sys, sched, tm))
}

/// [`check_structural`] in the arithmetic of `tm`: one pass over the
/// start-sorted placements per check.
pub(crate) fn structural_in<K: Tier>(
    sys: &TaskSystem,
    sched: &Schedule,
    tm: &Grid<K>,
) -> Vec<ValidityError> {
    let placements = sched.placements();

    // Per-processor exclusivity: each processor's latest quantum and the
    // instant it frees the processor. Placements on processors outside
    // `0..m` are not checked.
    let mut last: Vec<Option<(SubtaskRef, K::T)>> = vec![None; sched.m() as usize];
    let mut overlaps = Vec::new();
    for (i, p) in placements.iter().enumerate() {
        let Some(slot) = last.get_mut(p.proc as usize) else {
            continue;
        };
        if let Some((first, until)) = *slot {
            if tm.start(i) < until {
                overlaps.push((p.proc, first, p.st));
            }
        }
        *slot = Some((p.st, tm.holds_until(i).max(tm.completion(i))));
    }
    // Stable: each processor's overlaps stay in time order.
    overlaps.sort_by_key(|&(proc, _, _)| proc);
    let mut errors: Vec<ValidityError> = overlaps
        .into_iter()
        .map(|(proc, first, second)| ValidityError::ProcessorOverlap {
            proc,
            first,
            second,
        })
        .collect();

    for (st, s) in sys.iter_refs() {
        let start = tm.start(tm.index(st));
        if start < tm.int(s.eligible) {
            errors.push(ValidityError::BeforeEligibility {
                st,
                start: tm.to_rat(start),
                eligible: s.eligible,
            });
        }
        if let Some(pred) = s.pred {
            let pc = tm.completion(tm.index(pred));
            if start < pc {
                errors.push(ValidityError::BeforePredecessor {
                    st,
                    start: tm.to_rat(start),
                    pred_completion: tm.to_rat(pc),
                });
            }
        }
    }

    if sched.model() == QuantumModel::Sfq {
        for (p, &start) in placements.iter().zip(tm.starts()) {
            if !tm.is_integral(start) {
                errors.push(ValidityError::NonIntegralStart {
                    st: p.st,
                    start: tm.to_rat(start),
                });
            }
        }
        // ≤ M per slot (placements have unit holds, so count by start
        // slot). Starts are sorted, so each slot is one run.
        let m = sched.m() as usize;
        for run in tm.starts().chunk_by(|&a, &b| tm.floor(a) == tm.floor(b)) {
            if run.len() > m {
                errors.push(ValidityError::TooManyInSlot {
                    slot: tm.floor(run[0]),
                    count: run.len(),
                });
            }
        }
    }

    errors
}

/// Checks the classical Pfair validity criterion: every subtask completes
/// by its pseudo-deadline. Returns the violations (deadline misses).
#[must_use]
pub fn check_window_containment(sys: &TaskSystem, sched: &Schedule) -> Vec<ValidityError> {
    let grid = times(Some(sys), sched);
    on_tier!(&grid, |tm| window_containment_in(sys, tm))
}

/// [`check_window_containment`] in the arithmetic of `tm`.
pub(crate) fn window_containment_in<K: Tier>(sys: &TaskSystem, tm: &Grid<K>) -> Vec<ValidityError> {
    let mut errors = Vec::new();
    for (st, s) in sys.iter_refs() {
        let completion = tm.completion(tm.index(st));
        if completion > tm.int(s.deadline) {
            errors.push(ValidityError::DeadlineMiss {
                st,
                completion: tm.to_rat(completion),
                deadline: s.deadline,
            });
        }
    }
    errors
}

#[cfg(test)]
mod tests {
    use super::*;
    use pfair_core::{Epdf, Pd2};
    use pfair_numeric::Rat;
    use pfair_sim::{simulate_dvq, simulate_sfq, simulate_staggered, FixedCosts, FullQuantum};
    use pfair_taskmodel::{release, TaskId};

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
    fn sfq_pd2_fully_valid() {
        let sys = fig2_system();
        let sched = simulate_sfq(&sys, 2, &Pd2, &mut FullQuantum);
        assert!(check_structural(&sys, &sched).is_empty());
        assert!(check_window_containment(&sys, &sched).is_empty());
    }

    #[test]
    fn dvq_structurally_valid_but_misses() {
        let sys = fig2_system();
        let delta = Rat::new(1, 8);
        let mut costs = FixedCosts::new(Rat::ONE)
            .with(TaskId(0), 1, Rat::ONE - delta)
            .with(TaskId(5), 1, Rat::ONE - delta);
        let sched = simulate_dvq(&sys, 2, &Pd2, &mut costs);
        assert!(check_structural(&sys, &sched).is_empty());
        let misses = check_window_containment(&sys, &sched);
        assert_eq!(misses.len(), 1);
        assert!(matches!(misses[0], ValidityError::DeadlineMiss { .. }));
    }

    #[test]
    fn staggered_structurally_valid() {
        let sys = fig2_system();
        let sched = simulate_staggered(&sys, 2, &Pd2, &mut FullQuantum);
        assert!(check_structural(&sys, &sched).is_empty());
    }

    #[test]
    fn epdf_on_two_processors_meets_deadlines_here() {
        // EPDF is optimal on ≤ 2 processors (Anderson & Srinivasan); this
        // instance is on 2.
        let sys = fig2_system();
        let sched = simulate_sfq(&sys, 2, &Epdf, &mut FullQuantum);
        assert!(check_window_containment(&sys, &sched).is_empty());
    }

    #[test]
    fn over_full_slots_are_reported_in_slot_order() {
        // Three unit quanta in slot 4 and three in slot 1 on two
        // processors (subtasks placed in any order): both slots are
        // over-full, and the errors come in slot order.
        let sys = release::periodic(&[(1, 1), (1, 1), (1, 1)], 2);
        let refs: Vec<SubtaskRef> = sys.iter_refs().map(|(st, _)| st).collect();
        let placements = refs
            .iter()
            .enumerate()
            .map(|(i, &st)| {
                let start = if i % 2 == 0 { 4 } else { 1 };
                pfair_sim::Placement {
                    st,
                    proc: (i / 2) as u32 % 2,
                    start: Rat::int(start),
                    cost: Rat::ONE,
                    holds_until: Rat::int(start + 1),
                }
            })
            .collect();
        let sched = Schedule::new(&sys, QuantumModel::Sfq, 2, placements);
        let over_full: Vec<ValidityError> = check_structural(&sys, &sched)
            .into_iter()
            .filter(|e| matches!(e, ValidityError::TooManyInSlot { .. }))
            .collect();
        assert_eq!(
            over_full,
            [
                ValidityError::TooManyInSlot { slot: 1, count: 3 },
                ValidityError::TooManyInSlot { slot: 4, count: 3 },
            ]
        );
    }

    #[test]
    fn error_display_is_informative() {
        let e = ValidityError::DeadlineMiss {
            st: SubtaskRef(3),
            completion: Rat::new(9, 2),
            deadline: 4,
        };
        let msg = e.to_string();
        assert!(msg.contains("st#3") && msg.contains("9/2") && msg.contains('4'));
    }
}
