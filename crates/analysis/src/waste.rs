//! Busy / idle / wasted-quantum accounting.
//!
//! The paper's §1 motivates the DVQ model with exactly this arithmetic:
//! "because WCET estimates are generally pessimistic, many task
//! invocations will execute for less than their WCETs. When a job
//! completes before the next quantum boundary, the rest of that quantum
//! (on the associated processor) is wasted." Under SFQ and the staggered
//! model the wasted tail of each quantum is unrecoverable; the DVQ model
//! reclaims it. Experiment E5 sweeps the mean actual cost and reports
//! these statistics for all three models.

use pfair_numeric::{on_tier, Rat, Tier};
use pfair_sim::Schedule;
use serde::{Deserialize, Serialize};

use crate::grid::{times, Grid};

/// Aggregate processor-time accounting for one schedule.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct WasteStats {
    /// Total processor time actually executing subtasks (`Σ c(T_i)`).
    pub busy: Rat,
    /// Total processor time held by quanta but not executing
    /// (`Σ holds_until − completion`): the unreclaimed yield tails.
    pub wasted: Rat,
    /// Total processor time not held by any quantum, up to the makespan.
    pub idle: Rat,
    /// The makespan (latest completion).
    pub makespan: Rat,
    /// Number of processors.
    pub m: u32,
}

impl WasteStats {
    /// Fraction of total capacity (`m × makespan`) wasted inside quanta.
    #[must_use]
    pub fn wasted_fraction(&self) -> Rat {
        let cap = self.capacity();
        if cap.is_zero() {
            Rat::ZERO
        } else {
            self.wasted / cap
        }
    }

    /// Fraction of total capacity spent executing.
    #[must_use]
    pub fn busy_fraction(&self) -> Rat {
        let cap = self.capacity();
        if cap.is_zero() {
            Rat::ZERO
        } else {
            self.busy / cap
        }
    }

    /// Total capacity `m × makespan`.
    #[must_use]
    pub fn capacity(&self) -> Rat {
        Rat::int(i64::from(self.m)) * self.makespan
    }
}

/// Computes [`WasteStats`] for a schedule.
#[must_use]
pub fn waste_stats(sched: &Schedule) -> WasteStats {
    on_tier!(&times(None, sched), |tm| waste_in(sched, tm))
}

/// [`waste_stats`] in the arithmetic of `tm`.
pub(crate) fn waste_in<K: Tier>(sched: &Schedule, tm: &Grid<K>) -> WasteStats {
    let n = tm.starts().len();
    let makespan = (0..n).map(|i| tm.completion(i)).max().unwrap_or(tm.int(0));
    let mut busy = tm.sum(tm.int(0));
    let mut wasted = busy;
    for i in 0..n {
        busy = busy + tm.sum(tm.cost(i));
        // Clamp holds to the makespan so SFQ's final boundary hold does
        // not count as waste beyond the horizon of interest.
        let completion = tm.completion(i);
        let hold_end = tm.holds_until(i).min(makespan).max(completion);
        wasted = wasted + tm.sum(hold_end - completion);
    }
    let capacity = tm.times(i64::from(sched.m()), tm.sum(makespan));
    WasteStats {
        busy: tm.sum_rat(busy),
        wasted: tm.sum_rat(wasted),
        idle: tm.sum_rat(capacity - busy - wasted),
        makespan: tm.to_rat(makespan),
        m: sched.m(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pfair_core::Pd2;
    use pfair_sim::{simulate_dvq, simulate_sfq, FullQuantum, ScaledCost};
    use pfair_taskmodel::{release, TaskSystem};

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
    fn full_costs_waste_nothing() {
        let sys = fig2_system();
        let sched = simulate_sfq(&sys, 2, &Pd2, &mut FullQuantum);
        let w = waste_stats(&sched);
        assert_eq!(w.wasted, Rat::ZERO);
        assert_eq!(w.busy, Rat::int(12)); // 12 subtasks × 1 quantum
        assert_eq!(w.makespan, Rat::int(6));
        assert_eq!(w.idle, Rat::ZERO); // full utilization, full costs
        assert_eq!(w.busy_fraction(), Rat::ONE);
    }

    #[test]
    fn sfq_wastes_yield_tails_dvq_reclaims() {
        let sys = fig2_system();
        let mut half = ScaledCost(Rat::new(1, 2));
        let sfq = waste_stats(&simulate_sfq(&sys, 2, &Pd2, &mut half.clone()));
        let dvq = waste_stats(&simulate_dvq(&sys, 2, &Pd2, &mut half));
        assert!(sfq.wasted.is_positive());
        assert_eq!(dvq.wasted, Rat::ZERO);
        // Same total work.
        assert_eq!(sfq.busy, dvq.busy);
        // DVQ finishes no later than SFQ.
        assert!(dvq.makespan <= sfq.makespan);
    }

    #[test]
    fn accounting_balances() {
        let sys = fig2_system();
        let mut c = ScaledCost(Rat::new(3, 4));
        for sched in [
            simulate_sfq(&sys, 2, &Pd2, &mut c.clone()),
            simulate_dvq(&sys, 2, &Pd2, &mut c),
        ] {
            let w = waste_stats(&sched);
            assert_eq!(w.busy + w.wasted + w.idle, w.capacity());
            assert!(!w.idle.is_negative());
        }
    }
}
