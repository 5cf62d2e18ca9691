//! Response-time analysis.
//!
//! The response time of a subtask is how long it takes to complete from
//! the moment it *could* first run — its eligibility time:
//! `resp(T_i) = completion(T_i) − e(T_i)`. Where tardiness measures
//! lateness against the Pfair contract, response time measures perceived
//! latency; the early-release study (`examples/early_release.rs`) uses it
//! to show how ER-Pfair under DVQ soaks up idle capacity — the effect the
//! paper credits as the "less-expensive and simpler alternative" to DFS's
//! auxiliary scheduler (§1).

use pfair_numeric::{on_tier, Rat, Tier};
use pfair_sim::Schedule;
use pfair_taskmodel::{SubtaskRef, TaskSystem};
use serde::{Deserialize, Serialize};

use crate::grid::{times, Grid};

/// Response time of one subtask (from eligibility to completion).
#[must_use]
pub fn subtask_response(sys: &TaskSystem, sched: &Schedule, st: SubtaskRef) -> Rat {
    sched.completion(st) - Rat::int(sys.subtask(st).eligible)
}

/// Aggregate response-time statistics.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct ResponseStats {
    /// Largest response time.
    pub max: Rat,
    /// Sum of response times.
    pub total: Rat,
    /// Number of subtasks.
    pub subtasks: usize,
}

impl ResponseStats {
    /// Mean response time.
    #[must_use]
    pub fn mean(&self) -> Rat {
        if self.subtasks == 0 {
            Rat::ZERO
        } else {
            self.total / Rat::int(self.subtasks as i64)
        }
    }
}

/// Computes [`ResponseStats`] over a schedule.
#[must_use]
pub fn response_stats(sys: &TaskSystem, sched: &Schedule) -> ResponseStats {
    on_tier!(&times(Some(sys), sched), |tm| response_in(sys, tm))
}

/// [`response_stats`] in the arithmetic of `tm`.
pub(crate) fn response_in<K: Tier>(sys: &TaskSystem, tm: &Grid<K>) -> ResponseStats {
    let mut max = tm.int(0);
    let mut total = tm.sum(max);
    for (st, s) in sys.iter_refs() {
        let r = tm.completion(tm.index(st)) - tm.int(s.eligible);
        max = max.max(r);
        total = total + tm.sum(r);
    }
    ResponseStats {
        max: tm.to_rat(max),
        total: tm.sum_rat(total),
        subtasks: sys.num_subtasks(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pfair_core::Pd2;
    use pfair_sim::{simulate_dvq, simulate_sfq, FullQuantum, ScaledCost};
    use pfair_taskmodel::release;
    use pfair_taskmodel::release::{structured, ReleaseSpec};

    #[test]
    fn response_is_at_least_cost() {
        let sys = release::periodic(&[(1, 2), (1, 3)], 12);
        let sched = simulate_sfq(&sys, 1, &Pd2, &mut FullQuantum);
        for (st, _) in sys.iter_refs() {
            assert!(subtask_response(&sys, &sched, st) >= Rat::ONE);
        }
        let stats = response_stats(&sys, &sched);
        assert!(stats.mean() >= Rat::ONE);
        assert!(stats.max >= stats.mean());
    }

    #[test]
    fn dvq_improves_mean_response_with_yields() {
        let sys = release::periodic(&[(1, 2), (1, 2), (1, 3), (1, 6)], 12);
        let sfq = simulate_sfq(&sys, 2, &Pd2, &mut ScaledCost(Rat::new(1, 2)));
        let dvq = simulate_dvq(&sys, 2, &Pd2, &mut ScaledCost(Rat::new(1, 2)));
        let r_sfq = response_stats(&sys, &sfq);
        let r_dvq = response_stats(&sys, &dvq);
        assert!(r_dvq.mean() < r_sfq.mean());
    }

    #[test]
    fn early_release_increases_nominal_response_measure() {
        // Response is measured from eligibility, so early releasing (which
        // moves eligibility earlier) can only increase the *measured*
        // response while decreasing actual completion times — both facts
        // checked here.
        let plain = structured(&[ReleaseSpec::periodic("T", 1, 2)], 10).unwrap();
        let early = structured(
            &[ReleaseSpec {
                name: "T",
                e: 1,
                p: 2,
                delays: &[],
                drops: &[],
                early: 1,
            }],
            10,
        )
        .unwrap();
        let s_plain = simulate_dvq(&plain, 1, &Pd2, &mut ScaledCost(Rat::new(1, 2)));
        let s_early = simulate_dvq(&early, 1, &Pd2, &mut ScaledCost(Rat::new(1, 2)));
        // Completions never later with early release…
        for (a, b) in plain.iter_refs().zip(early.iter_refs()) {
            assert!(s_early.completion(b.0) <= s_plain.completion(a.0));
        }
        // …and makespan strictly improves on this instance.
        assert!(s_early.makespan() < s_plain.makespan());
    }
}
