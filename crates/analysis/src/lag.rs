//! Fluid (processor-sharing) allocation and `LAG`.
//!
//! Classical Pfair analysis compares a discrete schedule against the
//! *ideal fluid schedule* in which each subtask `T_i` receives processor
//! time at constant rate `1/|w(T_i)|` across its PF-window. For a task
//! system `τ` and schedule `S`:
//!
//! ```text
//! lag(T, t)  = ideal(T, t) − received(T, t)
//! LAG(τ, t)  = Σ_{T ∈ τ} lag(T, t)
//! ```
//!
//! A positive `LAG` means the system as a whole is behind the fluid
//! schedule. The paper's tardiness results say, in lag terms, that DVQ's
//! inversions never let any subtask fall more than one quantum behind its
//! window; the lag utilities here let tests and experiments watch that
//! directly.
//!
//! Service accounting: a subtask scheduled at `s` with actual cost `c`
//! delivers its one quantum of value linearly over `[s, s+c)` — the early
//! yield means the subtask needed less time, not that the task received
//! less of its reservation. (This is the WCET-pessimism reading of §1.)
//!
//! Two layers:
//!
//! * **Definitions.** [`ideal_allocation`], [`received_allocation`],
//!   [`task_lag`] and [`total_lag`] evaluate one instant from scratch,
//!   walking every subtask of the task (or of the system). They are the
//!   statement of the quantities above, and the oracle the sweep is tested
//!   against (`tests/lag_sweep.rs`).
//! * **Sweep.** [`lag_series`] evaluates `LAG(τ, t)` at every integral
//!   `t ∈ [0, horizon]` in one time-ordered pass: the windows are sorted by
//!   release once, the placements are already start-ordered, and running
//!   counts hold the windows that have passed (`d ≤ t`) and the quanta
//!   that have completed (`completion ≤ t`), each of which contributes
//!   exactly 1. Only the active windows (`r < t < d`) and the
//!   in-flight quanta (`start < t < completion`) are summed per slot, so a
//!   slot costs O(active windows + in-flight quanta) instead of
//!   O(subtasks). [`max_lag_over_slots`] is the maximum of that series.
//!
//!   Each slot is one exact sum, reduced once ([`FracSum`]) instead of a
//!   `Rat` add per term. The ideal part is an integer over `L`, the lcm
//!   of the system's window lengths: `(t − r)·L/(d − r)` per active
//!   window. The placements are read on the schedule's tick grid (the
//!   analyses' `Grid`), where a quantum's received part
//!   `(t − start)/cost` is a ratio of tick counts and needs no scale.
//!   When `L` or a step of the sum leaves its integer type, that slot is
//!   summed in `Rat`s; when no tick grid fits the schedule, the sweep
//!   reads its exact times. Every path gives the same reduced `Rat`.
//!
//! `pfair_obs::LagObserver` keeps the same state while a run streams; it
//! is deliberately a separate implementation, since the conformance bank
//! compares the two.

use pfair_numeric::{checked_lcm_of, on_tier, FracSum, Rat, Tier, Time};
use pfair_sim::Schedule;
use pfair_taskmodel::{TaskId, TaskSystem};

use crate::grid::{or_exact, Grid};

/// Ideal fluid allocation of task `T` up to time `t`: each released
/// subtask contributes the fraction of its PF-window elapsed by `t`.
#[must_use]
pub fn ideal_allocation(sys: &TaskSystem, task: TaskId, t: Time) -> Rat {
    let mut total = Rat::ZERO;
    for s in sys.task_subtasks(task) {
        let r = Rat::int(s.release);
        let d = Rat::int(s.deadline);
        if t <= r {
            // Windows are release-ordered; nothing later contributes.
            break;
        }
        if t >= d {
            total += Rat::ONE;
        } else {
            total += (t - r) / (d - r);
        }
    }
    total
}

/// Service received by task `T` up to time `t` in `sched`, normalized so
/// each subtask is one quantum of value delivered linearly over its actual
/// execution.
#[must_use]
pub fn received_allocation(sys: &TaskSystem, sched: &Schedule, task: TaskId, t: Time) -> Rat {
    let mut total = Rat::ZERO;
    for st in sys.task_subtask_refs(task) {
        let p = sched.placement(st);
        if t >= p.completion() {
            total += Rat::ONE;
        } else if t > p.start {
            total += (t - p.start) / p.cost;
        }
    }
    total
}

/// `lag(T, t) = ideal(T, t) − received(T, t)`.
#[must_use]
pub fn task_lag(sys: &TaskSystem, sched: &Schedule, task: TaskId, t: Time) -> Rat {
    ideal_allocation(sys, task, t) - received_allocation(sys, sched, task, t)
}

/// `LAG(τ, t) = Σ_T lag(T, t)`.
#[must_use]
pub fn total_lag(sys: &TaskSystem, sched: &Schedule, t: Time) -> Rat {
    sys.tasks()
        .iter()
        .map(|task| task_lag(sys, sched, task.id, t))
        .sum()
}

/// `LAG(τ, t)` at every integral `t ∈ [0, horizon]`, index `t`, in one
/// time-ordered sweep. Element `t` equals [`total_lag`] at `t` exactly,
/// including quanta that complete past `horizon`. Empty when `horizon < 0`.
#[must_use]
pub fn lag_series(sys: &TaskSystem, sched: &Schedule, horizon: i64) -> Vec<Rat> {
    // Every slot through the horizon must be an instant of the grid.
    let ticks = Grid::ticks(None, sched).filter(|grid| Tier::int(&**grid, horizon).is_some());
    let grid = or_exact(sched, ticks);
    on_tier!(&grid, |tm| lag_series_in(sys, tm, horizon))
}

/// [`lag_series`] in the arithmetic of `tm`, on which `horizon` is an
/// instant.
pub(crate) fn lag_series_in<K: Tier>(sys: &TaskSystem, tm: &Grid<K>, horizon: i64) -> Vec<Rat> {
    let mut windows: Vec<(i64, i64)> = sys
        .subtasks()
        .iter()
        .map(|s| (s.release, s.deadline))
        .collect();
    windows.sort_unstable();
    // `L`, the lcm of the window lengths: every ideal term is an integer
    // over it.
    let lcm = checked_lcm_of(windows.iter().map(|&(r, d)| d - r));
    let tier: &K = tm;
    // Placements are start-ordered.
    let starts = tm.starts();

    let mut series = Vec::with_capacity(usize::try_from(horizon + 1).unwrap_or(0));
    let (mut next_window, mut next_quantum) = (0, 0);
    // Windows with `r < t < d`, with `L/(d − r)` (0 without `L`), and the
    // placements with `start < t < completion`.
    let mut active: Vec<(i64, i64, i64)> = Vec::new();
    let mut inflight: Vec<usize> = Vec::new();
    // Windows with `d ≤ t` and quanta with `completion ≤ t`.
    let (mut passed, mut completed) = (0usize, 0usize);
    for t in 0..=horizon {
        let at = tier.int(t).expect("the caller checked the horizon");
        while let Some(&(r, d)) = windows.get(next_window).filter(|w| w.0 < t) {
            active.push((r, d, lcm.map_or(0, |l| l / (d - r))));
            next_window += 1;
        }
        let before = active.len();
        active.retain(|&(_, d, _)| d > t);
        passed += before - active.len();
        while starts.get(next_quantum).is_some_and(|&s| s < at) {
            inflight.push(next_quantum);
            next_quantum += 1;
        }
        let before = inflight.len();
        inflight.retain(|&i| tm.completion(i) > at);
        completed += before - inflight.len();

        let base = i64::try_from(passed).expect("window count fits i64")
            - i64::try_from(completed).expect("quantum count fits i64");
        // One exact sum over `L` and the in-flight costs, reduced once.
        let fast = lcm.and_then(|l| {
            let part = active.iter().try_fold(0i64, |sum, &(r, _, k)| {
                sum.checked_add((t - r).checked_mul(k)?)
            })?;
            let ideal = FracSum::new(
                i128::from(base) * i128::from(l) + i128::from(part),
                i128::from(l),
            )?;
            inflight.iter().try_fold(ideal, |sum, &i| {
                let (n, d) = tier.ratio(at - tm.start(i), tm.cost(i));
                sum.sub(n, d)
            })
        });
        series.push(fast.map_or_else(
            || {
                // `L` or a step of the sum left its integer type: sum this
                // slot in `Rat`s, which reduce as they go.
                let mut lag = Rat::int(base);
                for &(r, d, _) in &active {
                    lag += Rat::new(t - r, d - r);
                }
                for &i in &inflight {
                    lag -= (Rat::int(t) - tier.to_rat(tm.start(i))) / tier.to_rat(tm.cost(i));
                }
                lag
            },
            FracSum::to_rat,
        ));
    }
    series
}

/// Maximum of `LAG(τ, t)` over all integral `t` in `[0, horizon]`: the
/// maximum of [`lag_series`].
#[must_use]
pub fn max_lag_over_slots(sys: &TaskSystem, sched: &Schedule, horizon: i64) -> Rat {
    lag_series(sys, sched, horizon)
        .into_iter()
        .max()
        .unwrap_or(Rat::ZERO)
}

#[cfg(test)]
mod tests {
    use super::*;
    use pfair_core::Pd2;
    use pfair_sim::{simulate_dvq, simulate_sfq, FixedCosts, FullQuantum};
    use pfair_taskmodel::{release, TaskId, TaskSystem};

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
    fn ideal_allocation_tracks_windows() {
        let sys = fig2_system();
        // Task D (wt 1/2): windows [0,2),[2,4),[4,6) ⇒ ideal at t = 3 is
        // 1 + 1/2.
        assert_eq!(
            ideal_allocation(&sys, TaskId(3), Rat::int(3)),
            Rat::new(3, 2)
        );
        // At the hyperperiod boundary every released subtask is fully due.
        assert_eq!(ideal_allocation(&sys, TaskId(3), Rat::int(6)), Rat::int(3));
        assert_eq!(ideal_allocation(&sys, TaskId(0), Rat::int(6)), Rat::int(1));
        // Before release: zero.
        assert_eq!(ideal_allocation(&sys, TaskId(3), Rat::ZERO), Rat::ZERO);
    }

    #[test]
    fn lag_zero_at_start_and_hyperperiod_under_pd2_sfq() {
        let sys = fig2_system();
        let sched = simulate_sfq(&sys, 2, &Pd2, &mut FullQuantum);
        assert_eq!(total_lag(&sys, &sched, Rat::ZERO), Rat::ZERO);
        // Full-utilization periodic system: LAG returns to 0 at the
        // hyperperiod.
        assert_eq!(total_lag(&sys, &sched, Rat::int(6)), Rat::ZERO);
    }

    #[test]
    fn lag_bounded_under_pd2_sfq() {
        let sys = release::periodic(&[(3, 4), (1, 2), (2, 3), (1, 12)], 24);
        let m = 3;
        let sched = simulate_sfq(&sys, m, &Pd2, &mut FullQuantum);
        // LAG can never exceed the processor count in a valid PD² SFQ
        // schedule (each slot serves M quanta whenever LAG is positive).
        let max = max_lag_over_slots(&sys, &sched, 24);
        assert!(max <= Rat::int(i64::from(m)));
        assert!(max >= Rat::ZERO);
    }

    #[test]
    fn per_task_lag_bounded_by_one_when_deadlines_met() {
        // If every subtask meets its deadline, each task's lag stays
        // below 1 at slot boundaries... in fact below its per-window
        // remainder; we assert the coarser bound.
        let sys = fig2_system();
        let sched = simulate_sfq(&sys, 2, &Pd2, &mut FullQuantum);
        for task in sys.tasks() {
            for t in 0..=6 {
                let lag = task_lag(&sys, &sched, task.id, Rat::int(t));
                assert!(lag <= Rat::ONE, "task {:?} lag {lag} at {t}", task.id);
            }
        }
    }

    #[test]
    fn dvq_lag_reflects_tardiness() {
        let sys = fig2_system();
        let delta = Rat::new(1, 4);
        let mut costs = FixedCosts::new(Rat::ONE)
            .with(TaskId(0), 1, Rat::ONE - delta)
            .with(TaskId(5), 1, Rat::ONE - delta);
        let sched = simulate_dvq(&sys, 2, &Pd2, &mut costs);
        // F misses by 1 − δ, so F's lag at its deadline (4) is positive.
        let lag_f = task_lag(&sys, &sched, TaskId(5), Rat::int(4));
        assert!(lag_f.is_positive());
        // And bounded by one quantum (Theorem 3 in lag terms).
        assert!(lag_f <= Rat::ONE);
    }
}
