//! Boundary-Fair never over-commits an interval on a feasible system.
//!
//! BF grants each task its mandatory units per boundary interval, plus one
//! optional unit from the spare capacity in the PD² order of the unit each
//! grant would hand out. The earlier largest-fractional-remainder rule let
//! three 1/9 tasks take the spare of `[3, 4)` and `[4, 5)`, so the heavier
//! tasks owed four mandatory units in `[5, 6)` on three processors and the
//! engine's capacity assert fired. These tests pin that repro and sweep
//! every small system over periods {1, 2, 3, 9}: BF must not panic, and
//! every job must complete by its deadline.

use std::panic::{catch_unwind, AssertUnwindSafe};

use pfair::numeric::lcm;
use pfair::prelude::*;

/// Every job of every task completes by its deadline: the `j`-th job of a
/// task of weight `e/p` (units `(j−1)e + 1 ..= je`) by `j·p`.
fn assert_job_deadlines_met(sys: &TaskSystem, sched: &Schedule) {
    for task in sys.tasks() {
        let (e, p) = (task.weight.e(), task.weight.p());
        for (k, st) in sys.task_subtask_refs(task.id).enumerate() {
            let job = i64::try_from(k).expect("unit index fits i64") / e + 1;
            assert!(
                sched.placement(st).holds_until <= Rat::int(job * p),
                "task {:?} unit {} past its job deadline {}",
                task.id,
                k + 1,
                job * p
            );
        }
    }
}

/// Runs BF and checks it; `Err` carries the panic message.
fn run_bf(weights: &[(i64, i64)], m: u32, horizon: i64) -> Result<(), String> {
    let sys = release::periodic(weights, horizon);
    catch_unwind(AssertUnwindSafe(|| {
        let sched = simulate_bf(&sys, m, &mut FullQuantum);
        assert_eq!(sched.placements().len(), sys.num_subtasks());
        assert_job_deadlines_met(&sys, &sched);
    }))
    .map_err(|e| {
        e.downcast_ref::<String>()
            .cloned()
            .or_else(|| e.downcast_ref::<&str>().map(|s| (*s).to_string()))
            .unwrap_or_default()
    })
}

const REPRO: [(i64, i64); 7] = [(1, 9), (1, 9), (1, 9), (1, 1), (1, 2), (1, 2), (2, 3)];

#[test]
fn bf_repro_at_horizon_6_meets_job_deadlines() {
    run_bf(&REPRO, 3, 6).unwrap();
}

#[test]
fn bf_repro_over_a_full_hyperperiod_meets_job_deadlines() {
    run_bf(&REPRO, 3, 18).unwrap();
}

/// Calls `visit` on every nonempty multiset of at most `max` indices into
/// a menu of `len` items, as a nondecreasing sequence extending `cur`.
fn for_each_multiset(
    len: usize,
    max: usize,
    cur: &mut Vec<usize>,
    visit: &mut dyn FnMut(&[usize]),
) {
    let from = cur.last().copied().unwrap_or(0);
    for i in from..len {
        cur.push(i);
        visit(cur);
        if cur.len() < max {
            for_each_multiset(len, max, cur, visit);
        }
        cur.pop();
    }
}

/// Every multiset of at most 7 weights with period 1, 2, 3 or 9 and
/// integral utilization `U ≤ 3`, on `m = U` processors, at every horizon
/// up to the hyperperiod.
#[test]
fn bf_meets_job_deadlines_on_every_small_system_over_periods_1_2_3_9() {
    let menu: Vec<(i64, i64)> = [1i64, 2, 3, 9]
        .iter()
        .flat_map(|&p| (1..=p).map(move |e| (e, p)))
        .filter(|&(e, p)| pfair::numeric::gcd(e, p) == 1)
        .collect();
    let mut failures = Vec::new();
    let mut runs = 0;
    for_each_multiset(menu.len(), 7, &mut Vec::new(), &mut |picks| {
        let weights: Vec<(i64, i64)> = picks.iter().map(|&i| menu[i]).collect();
        let u: Rat = weights.iter().map(|&(e, p)| Rat::new(e, p)).sum();
        if !u.is_integer() || u > Rat::int(3) {
            return;
        }
        let m = u32::try_from(u.floor()).expect("m ≤ 3");
        let hyper = weights.iter().fold(1, |acc, &(_, p)| lcm(acc, p));
        for horizon in 1..=hyper {
            runs += 1;
            if let Err(msg) = run_bf(&weights, m, horizon) {
                failures.push(format!("{weights:?} m={m} horizon={horizon}: {msg}"));
            }
        }
    });
    assert_eq!(runs, 7_662, "runs in the sweep");
    assert!(
        failures.is_empty(),
        "{} of {runs} BF runs failed:\n{}",
        failures.len(),
        failures.join("\n")
    );
}
