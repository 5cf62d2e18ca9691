//! One-call schedule reports.
//!
//! [`ScheduleReport`] bundles every analysis this crate offers — tardiness,
//! waste, migrations, blocking, response times, structural validity — into
//! a single value with a human-readable `Display`. The `pfairsim` CLI and
//! several examples print one; downstream users get the "tell me
//! everything about this run" entry point.

use core::fmt;

use pfair_core::priority::PriorityOrder;
use pfair_numeric::{on_tier, Rat, Tier};
use pfair_sim::Schedule;
use pfair_taskmodel::TaskSystem;

use crate::blocking::{inversions_in, BlockingKind};
use crate::grid::{times, Grid};
use crate::overhead::{migration_stats, MigrationStats};
use crate::response::{response_in, ResponseStats};
use crate::tardiness::{tardiness_in, TardinessStats};
use crate::validity::{structural_in, window_containment_in};
use crate::waste::{waste_in, WasteStats};

/// Every analysis of one schedule, in one struct.
#[derive(Clone, Debug)]
pub struct ScheduleReport {
    /// Tardiness statistics (Eq. (7)).
    pub tardiness: TardinessStats,
    /// Busy / wasted / idle accounting.
    pub waste: WasteStats,
    /// Migration counts.
    pub migrations: MigrationStats,
    /// Response-time statistics.
    pub response: ResponseStats,
    /// Observed eligibility-blocking events.
    pub eligibility_blocking: usize,
    /// Observed predecessor-blocking events.
    pub predecessor_blocking: usize,
    /// Number of structural invariant violations (0 for a sound run).
    pub structural_violations: usize,
    /// Number of window-containment violations (deadline misses).
    pub window_violations: usize,
}

/// Runs every analysis on a schedule.
///
/// The tick grid of the schedule (or, off-grid, its exact `Rat` times) is
/// built once and shared by every analysis; see the crate docs. The
/// inversion search only counts, so each wait stops at its first blocker.
#[must_use]
pub fn schedule_report(
    sys: &TaskSystem,
    sched: &Schedule,
    order: &dyn PriorityOrder,
) -> ScheduleReport {
    let grid = times(Some(sys), sched);
    on_tier!(&grid, |tm| report_in(sys, sched, tm, order))
}

pub(crate) fn report_in<K: Tier>(
    sys: &TaskSystem,
    sched: &Schedule,
    tm: &Grid<K>,
    order: &dyn PriorityOrder,
) -> ScheduleReport {
    let (mut eligibility_blocking, mut predecessor_blocking) = (0, 0);
    inversions_in(sys, sched, tm, order, true, |_, _, _, kind, _| match kind {
        BlockingKind::Eligibility => eligibility_blocking += 1,
        BlockingKind::Predecessor => predecessor_blocking += 1,
    });
    ScheduleReport {
        tardiness: tardiness_in(sys, tm),
        waste: waste_in(sched, tm),
        migrations: migration_stats(sys, sched),
        response: response_in(sys, tm),
        eligibility_blocking,
        predecessor_blocking,
        structural_violations: structural_in(sys, sched, tm).len(),
        window_violations: window_containment_in(sys, tm).len(),
    }
}

impl fmt::Display for ScheduleReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "tardiness: max {}  misses {}/{}  mean {}",
            self.tardiness.max,
            self.tardiness.misses,
            self.tardiness.subtasks,
            self.tardiness.mean()
        )?;
        writeln!(
            f,
            "capacity:  busy {:.1}%  wasted {:.1}%  makespan {}",
            self.waste.busy_fraction().to_f64() * 100.0,
            self.waste.wasted_fraction().to_f64() * 100.0,
            self.waste.makespan
        )?;
        writeln!(
            f,
            "overheads: migrations {}/{} pairs  mean response {}",
            self.migrations.migrations,
            self.migrations.adjacent_pairs,
            self.response.mean()
        )?;
        writeln!(
            f,
            "blocking:  eligibility {}  predecessor {}",
            self.eligibility_blocking, self.predecessor_blocking
        )?;
        write!(
            f,
            "validity:  structural violations {}  deadline misses {}",
            self.structural_violations, self.window_violations
        )
    }
}

impl ScheduleReport {
    /// `true` iff the run is structurally sound and within the paper's
    /// one-quantum tardiness bound.
    #[must_use]
    pub fn within_dvq_bound(&self) -> bool {
        self.structural_violations == 0 && self.tardiness.max <= Rat::ONE
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pfair_core::Pd2;
    use pfair_numeric::Rat;
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
    fn clean_run_reports_clean() {
        let sys = fig2_system();
        let sched = simulate_sfq(&sys, 2, &Pd2, &mut FullQuantum);
        let r = schedule_report(&sys, &sched, &Pd2);
        assert_eq!(r.tardiness.max, Rat::ZERO);
        assert_eq!(r.window_violations, 0);
        assert_eq!(r.structural_violations, 0);
        assert_eq!(r.eligibility_blocking + r.predecessor_blocking, 0);
        assert!(r.within_dvq_bound());
        let text = r.to_string();
        assert!(text.contains("tardiness: max 0"));
        assert!(text.contains("deadline misses 0"));
    }

    #[test]
    fn dvq_run_reports_the_damage() {
        let sys = fig2_system();
        let delta = Rat::new(1, 4);
        let mut costs = FixedCosts::new(Rat::ONE)
            .with(TaskId(0), 1, Rat::ONE - delta)
            .with(TaskId(5), 1, Rat::ONE - delta);
        let sched = simulate_dvq(&sys, 2, &Pd2, &mut costs);
        let r = schedule_report(&sys, &sched, &Pd2);
        assert_eq!(r.tardiness.max, Rat::new(3, 4));
        assert_eq!(r.window_violations, 1);
        assert!(r.eligibility_blocking > 0);
        assert!(r.within_dvq_bound());
    }
}
