//! Tardiness (Eq. (7)): `tardiness(T_i, S) = max(0, t − d(T_i))` where `t`
//! is the completion time of `T_i` in `S`.
//!
//! The tardiness of a task system under an algorithm is the maximum
//! subtask tardiness over any valid schedule; the paper's headline results
//! bound it by one quantum for PD^B under SFQ (Theorem 2) and PD² under
//! DVQ (Theorem 3).

use pfair_numeric::{on_tier, Rat, Tier};
use pfair_sim::Schedule;
use pfair_taskmodel::{SubtaskRef, TaskSystem};
use serde::{Deserialize, Serialize};

use crate::grid::{times, Grid};

/// Tardiness of one subtask in a schedule.
#[must_use]
pub fn subtask_tardiness(sys: &TaskSystem, sched: &Schedule, st: SubtaskRef) -> Rat {
    let completion = sched.completion(st);
    let deadline = Rat::int(sys.subtask(st).deadline);
    (completion - deadline).max(Rat::ZERO)
}

/// Aggregate tardiness statistics for a schedule.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct TardinessStats {
    /// Maximum subtask tardiness.
    pub max: Rat,
    /// Sum of all subtask tardiness values.
    pub total: Rat,
    /// Number of released subtasks considered.
    pub subtasks: usize,
    /// Number of subtasks with strictly positive tardiness.
    pub misses: usize,
    /// The subtask attaining the maximum (`None` when no subtasks).
    pub worst: Option<SubtaskRef>,
}

impl TardinessStats {
    /// Mean tardiness over all subtasks (0 for an empty schedule).
    #[must_use]
    pub fn mean(&self) -> Rat {
        if self.subtasks == 0 {
            Rat::ZERO
        } else {
            self.total / Rat::int(self.subtasks as i64)
        }
    }

    /// Fraction of subtasks that missed their deadline, as `f64` (for
    /// reporting only).
    #[must_use]
    pub fn miss_rate(&self) -> f64 {
        if self.subtasks == 0 {
            0.0
        } else {
            self.misses as f64 / self.subtasks as f64
        }
    }
}

/// Computes [`TardinessStats`] over an entire schedule.
#[must_use]
pub fn tardiness_stats(sys: &TaskSystem, sched: &Schedule) -> TardinessStats {
    on_tier!(&times(Some(sys), sched), |tm| tardiness_in(sys, tm))
}

/// [`tardiness_stats`] in the arithmetic of `tm`.
pub(crate) fn tardiness_in<K: Tier>(sys: &TaskSystem, tm: &Grid<K>) -> TardinessStats {
    let zero = tm.int(0);
    let (mut max, mut total) = (zero, tm.sum(zero));
    let mut misses = 0;
    let mut worst = None;
    for (st, s) in sys.iter_refs() {
        let t = tm.completion(tm.index(st)) - tm.int(s.deadline);
        if t > zero {
            misses += 1;
            total = total + tm.sum(t);
            if t > max {
                max = t;
                worst = Some(st);
            }
        }
    }
    TardinessStats {
        max: tm.to_rat(max),
        total: tm.sum_rat(total),
        subtasks: sys.num_subtasks(),
        misses,
        worst,
    }
}

/// Histogram of subtask tardiness: `buckets` equal-width bins over
/// `[0, 1]` quantum (values above 1 — impossible under the paper's bound
/// for PD²-DVQ/PD^B, but possible for ablated or overloaded runs — land
/// in the last bin). Bin 0 counts on-time subtasks.
#[must_use]
pub fn tardiness_histogram(sys: &TaskSystem, sched: &Schedule, buckets: usize) -> Vec<usize> {
    assert!(buckets >= 2, "need at least an on-time bin and a tardy bin");
    let grid = times(Some(sys), sched);
    on_tier!(&grid, |tm| histogram_in(sys, tm, buckets))
}

/// [`tardiness_histogram`] in the arithmetic of `tm`.
pub(crate) fn histogram_in<K: Tier>(sys: &TaskSystem, tm: &Grid<K>, buckets: usize) -> Vec<usize> {
    let mut hist = vec![0usize; buckets];
    let last = buckets - 1;
    let zero = tm.int(0);
    for (st, s) in sys.iter_refs() {
        let t = (tm.completion(tm.index(st)) - tm.int(s.deadline)).max(zero);
        // Tardiness in (0, 1] maps to bins 1..buckets by `⌈t·(buckets − 1)⌉`
        // (0 for on time); anything beyond the scale (including an
        // out-of-usize ceiling) lands in the last bin.
        let scaled = tm.times(
            i64::try_from(last).expect("bucket count fits i64"),
            tm.sum(t),
        );
        let bin = tm
            .ceil(scaled)
            .and_then(|b| usize::try_from(b).ok())
            .map_or(last, |b| b.min(last));
        hist[bin] += 1;
    }
    hist
}

/// Maximum *job* tardiness: subtasks are grouped into jobs of their task
/// (job `j` of a weight-`e/p` task consists of subtask indices
/// `(j−1)e+1 ..= je` and has deadline `θ-adjusted j·p`); a job completes
/// when its last released subtask completes.
///
/// Job deadlines coincide with the pseudo-deadline of each job's final
/// subtask, so bounded subtask tardiness gives the same bound on job
/// tardiness — this function exists to report the job-level view the
/// introduction frames (soft real-time guarantees for applications).
#[must_use]
pub fn max_job_tardiness(sys: &TaskSystem, sched: &Schedule) -> Rat {
    let mut max = Rat::ZERO;
    for task in sys.tasks() {
        let e = u64::try_from(task.weight.e()).expect("execution numerator is positive");
        for s in sys.task_subtasks(task.id) {
            // Last subtask of its job ⇔ index ≡ 0 (mod e).
            if s.id.index % e == 0 {
                let st = sys.find(s.id).expect("released subtask");
                let job_deadline = Rat::int(s.theta + (s.id.index / e) as i64 * task.weight.p());
                let t = (sched.completion(st) - job_deadline).max(Rat::ZERO);
                max = max.max(t);
            }
        }
    }
    max
}

#[cfg(test)]
mod tests {
    use super::*;
    use pfair_core::Pd2;
    use pfair_sim::{simulate_dvq, simulate_sfq, FixedCosts, FullQuantum};
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
    fn pd2_sfq_has_zero_tardiness() {
        let sys = fig2_system();
        let sched = simulate_sfq(&sys, 2, &Pd2, &mut FullQuantum);
        let stats = tardiness_stats(&sys, &sched);
        assert_eq!(stats.max, Rat::ZERO);
        assert_eq!(stats.misses, 0);
        assert_eq!(stats.mean(), Rat::ZERO);
        assert_eq!(stats.worst, None);
        assert_eq!(max_job_tardiness(&sys, &sched), Rat::ZERO);
    }

    #[test]
    fn fig2b_dvq_tardiness_is_one_minus_delta() {
        let sys = fig2_system();
        let delta = Rat::new(1, 8);
        let mut costs = FixedCosts::new(Rat::ONE)
            .with(TaskId(0), 1, Rat::ONE - delta)
            .with(TaskId(5), 1, Rat::ONE - delta);
        let sched = simulate_dvq(&sys, 2, &Pd2, &mut costs);
        let stats = tardiness_stats(&sys, &sched);
        assert_eq!(stats.max, Rat::ONE - delta);
        assert_eq!(stats.misses, 1);
        let worst = stats.worst.unwrap();
        assert_eq!(sys.subtask(worst).id.task, TaskId(5)); // F_2
        assert_eq!(sys.subtask(worst).id.index, 2);
        // Miss rate: 1 of 12 subtasks.
        assert!((stats.miss_rate() - 1.0 / 12.0).abs() < 1e-12);
    }

    #[test]
    fn histogram_bins_partition_the_subtasks() {
        let sys = fig2_system();
        let delta = Rat::new(1, 8);
        let mut costs = FixedCosts::new(Rat::ONE)
            .with(TaskId(0), 1, Rat::ONE - delta)
            .with(TaskId(5), 1, Rat::ONE - delta);
        let sched = simulate_dvq(&sys, 2, &Pd2, &mut costs);
        let hist = tardiness_histogram(&sys, &sched, 5);
        assert_eq!(hist.iter().sum::<usize>(), sys.num_subtasks());
        assert_eq!(hist[0], sys.num_subtasks() - 1); // one miss
                                                     // Tardiness 7/8 lands in the last bin (width 1/4 × 4 bins).
        assert_eq!(hist[4], 1);
    }

    #[test]
    fn job_tardiness_bounded_by_subtask_tardiness() {
        let sys = fig2_system();
        let delta = Rat::new(1, 8);
        let mut costs = FixedCosts::new(Rat::ONE)
            .with(TaskId(0), 1, Rat::ONE - delta)
            .with(TaskId(5), 1, Rat::ONE - delta);
        let sched = simulate_dvq(&sys, 2, &Pd2, &mut costs);
        let stats = tardiness_stats(&sys, &sched);
        assert!(max_job_tardiness(&sys, &sched) <= stats.max);
    }
}
