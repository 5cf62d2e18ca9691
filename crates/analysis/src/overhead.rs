//! Migration and contention accounting.
//!
//! Two practicality concerns frame the paper's related work:
//!
//! * Pfair allows **inter-processor migration** ("a task may be allocated
//!   time on different processors, but not in the same slot", §2) —
//!   migrations cost cache refills on real hardware, and implementations
//!   care how often they happen;
//! * the staggered model of Holman & Anderson exists to reduce **bus
//!   contention** caused by all `M` processors starting quanta at the same
//!   instant under SFQ.
//!
//! [`migration_stats`] counts, per task, how often consecutive subtasks run
//! on different processors. [`contention_profile`] histograms the number of
//! quanta that *commence simultaneously*: under SFQ that number is
//! typically `M` at every occupied slot boundary; under the staggered
//! model it is at most 1 per boundary offset; under DVQ it falls in
//! between, depending on yields.

use pfair_numeric::Time;
use pfair_sim::Schedule;
use pfair_taskmodel::TaskSystem;
use serde::{Deserialize, Serialize};

/// Migration counts for a schedule.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct MigrationStats {
    /// Number of adjacent subtask pairs (within a task) that ran on
    /// different processors.
    pub migrations: usize,
    /// Number of adjacent subtask pairs considered.
    pub adjacent_pairs: usize,
    /// Per-task migration counts, indexed by task id.
    pub per_task: Vec<usize>,
}

impl MigrationStats {
    /// Fraction of adjacent pairs that migrated (0 if none).
    #[must_use]
    pub fn migration_rate(&self) -> f64 {
        if self.adjacent_pairs == 0 {
            0.0
        } else {
            self.migrations as f64 / self.adjacent_pairs as f64
        }
    }
}

/// Counts migrations: a task "migrates" when subtask `T_{i+1}` executes on
/// a different processor than its predecessor.
#[must_use]
pub fn migration_stats(sys: &TaskSystem, sched: &Schedule) -> MigrationStats {
    let mut per_task = vec![0usize; sys.num_tasks()];
    let mut adjacent_pairs = 0usize;
    for task in sys.tasks() {
        let mut prev_proc: Option<u32> = None;
        for st in sys.task_subtask_refs(task.id) {
            let proc = sched.placement(st).proc;
            if let Some(p) = prev_proc {
                adjacent_pairs += 1;
                if p != proc {
                    per_task[task.id.idx()] += 1;
                }
            }
            prev_proc = Some(proc);
        }
    }
    MigrationStats {
        migrations: per_task.iter().sum(),
        adjacent_pairs,
        per_task,
    }
}

/// Per-processor context-switch accounting.
///
/// A *chunk* is a maximal run of placements on one processor executing the
/// same task back-to-back: each placement starts exactly where the previous
/// one released the processor (`holds_until`). Every chunk after the first
/// on a processor begins with a context switch — the processor either
/// picked up a different task or sat idle in between. Boundary-Fair
/// scheduling exists to shrink this number relative to per-slot Pfair
/// decisions, so the golden figure tests compare it across engine families.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct SwitchStats {
    /// Maximal contiguous same-task runs, summed over processors.
    pub chunks: usize,
    /// Processors that executed at least one quantum.
    pub busy_procs: usize,
}

impl SwitchStats {
    /// Context switches: every chunk after the first per busy processor.
    #[must_use]
    pub fn switches(&self) -> usize {
        self.chunks - self.busy_procs
    }
}

/// Counts contiguous execution chunks per processor.
#[must_use]
pub fn context_switch_stats(sys: &TaskSystem, sched: &Schedule) -> SwitchStats {
    // (proc, start, holds_until, task) per placement, in execution order.
    let mut runs: Vec<(u32, Time, Time, u32)> = Vec::new();
    for task in sys.tasks() {
        for st in sys.task_subtask_refs(task.id) {
            let p = sched.placement(st);
            runs.push((p.proc, p.start, p.holds_until, task.id.0));
        }
    }
    runs.sort_unstable();
    let mut chunks = 0usize;
    let mut busy_procs = 0usize;
    let mut prev: Option<(u32, Time, u32)> = None;
    for (proc, start, holds_until, task) in runs {
        let continues = prev == Some((proc, start, task));
        if !continues {
            chunks += 1;
            if prev.is_none_or(|(p, _, _)| p != proc) {
                busy_procs += 1;
            }
        }
        prev = Some((proc, holds_until, task));
    }
    SwitchStats { chunks, busy_procs }
}

/// The simultaneous-start profile: for each distinct commencement instant,
/// how many quanta begin at exactly that instant. Returned as a histogram
/// `counts[k]` = number of instants at which exactly `k+1` quanta start.
#[must_use]
pub fn contention_profile(sched: &Schedule) -> Vec<usize> {
    // Placements are start-sorted, so each instant is one run.
    let mut counts = Vec::new();
    for run in sched.placements().chunk_by(|a, b| a.start == b.start) {
        if counts.len() < run.len() {
            counts.resize(run.len(), 0);
        }
        counts[run.len() - 1] += 1;
    }
    counts
}

/// The largest number of quanta commencing at one instant.
#[must_use]
pub fn peak_simultaneous_starts(sched: &Schedule) -> usize {
    contention_profile(sched).len()
}

#[cfg(test)]
mod tests {
    use super::*;
    use pfair_core::Pd2;
    use pfair_numeric::Rat;
    use pfair_sim::{simulate_sfq, simulate_staggered, FullQuantum, ScaledCost};
    use pfair_taskmodel::release;

    fn sys4() -> TaskSystem {
        release::periodic(
            &[
                (1, 2),
                (1, 2),
                (1, 2),
                (1, 2),
                (1, 2),
                (1, 2),
                (1, 2),
                (1, 2),
            ],
            12,
        )
    }

    #[test]
    fn sfq_peak_contention_is_m() {
        let sys = sys4();
        let sched = simulate_sfq(&sys, 4, &Pd2, &mut FullQuantum);
        assert_eq!(peak_simultaneous_starts(&sched), 4);
    }

    #[test]
    fn staggered_peak_contention_is_one() {
        // Distinct per-processor offsets mean no two quanta ever commence
        // at the same instant (with full costs).
        let sys = sys4();
        let sched = simulate_staggered(&sys, 4, &Pd2, &mut FullQuantum);
        assert_eq!(peak_simultaneous_starts(&sched), 1);
    }

    #[test]
    fn staggered_contention_stays_low_with_yields() {
        let sys = sys4();
        let mut c = ScaledCost(Rat::new(3, 4));
        let sched = simulate_staggered(&sys, 4, &Pd2, &mut c);
        assert!(peak_simultaneous_starts(&sched) <= 2);
    }

    #[test]
    fn migration_counting() {
        let sys = release::periodic(&[(1, 2), (1, 2)], 8);
        let sched = simulate_sfq(&sys, 2, &Pd2, &mut FullQuantum);
        let m = migration_stats(&sys, &sched);
        // Two tasks × (4 − 1) adjacent pairs.
        assert_eq!(m.adjacent_pairs, 6);
        // Deterministic assignment keeps each task on one processor here.
        assert_eq!(m.migrations, 0);
        assert_eq!(m.migration_rate(), 0.0);
    }

    #[test]
    fn context_switches_on_a_dedicated_processor_schedule() {
        // Two half-weight tasks on two processors: PD²-SFQ parks each on
        // its own processor, but each executes in alternating slots, so
        // every occupied slot starts a fresh chunk (idle gaps in between).
        let sys = release::periodic(&[(1, 2), (1, 2)], 8);
        let sched = simulate_sfq(&sys, 2, &Pd2, &mut FullQuantum);
        let s = context_switch_stats(&sys, &sched);
        assert_eq!(s.busy_procs, 2);
        assert_eq!(s.chunks, 8);
        assert_eq!(s.switches(), 6);
    }

    #[test]
    fn full_utilization_single_task_is_one_chunk() {
        let sys = release::periodic(&[(1, 1)], 6);
        let sched = simulate_sfq(&sys, 1, &Pd2, &mut FullQuantum);
        let s = context_switch_stats(&sys, &sched);
        assert_eq!(s.chunks, 1);
        assert_eq!(s.switches(), 0);
    }

    #[test]
    fn migrations_detected_when_they_occur() {
        // Three half-weight tasks on two processors: someone must migrate.
        let sys = release::periodic(&[(1, 2), (1, 2), (1, 2), (1, 2)], 12);
        let sched = simulate_sfq(&sys, 2, &Pd2, &mut FullQuantum);
        let m = migration_stats(&sys, &sched);
        assert!(m.adjacent_pairs > 0);
        // Rate is well-defined either way.
        assert!(m.migration_rate() >= 0.0 && m.migration_rate() <= 1.0);
    }
}
