//! The one-pass `lag_series` sweep must equal the per-instant definition
//! `total_lag` at every slot, and `max_lag_over_slots` must equal the
//! maximum of `total_lag` over `[0, horizon]`.
//!
//! The proptest runs DVQ, SFQ, staggered and Boundary-Fair schedules of
//! the seeded systems and cost regimes in `tests/common`, plus costs just
//! short of a quantum over three primes near 2²² (no `i64` tick grid fits
//! them; slot-based and staggered engines only). It sweeps one slot past
//! the last completion, so tardy quanta that end after the system horizon
//! are covered. The hand-built schedules pin the three boundaries of the
//! sweep: a quantum completing exactly at a slot, one starting exactly at
//! a slot, and windows released at a slot.

mod common;

use common::{cost_model, dvq, random_system, OffGrid};
use pfair::analysis::{lag_series, max_lag_over_slots, total_lag};
use pfair::prelude::*;
use proptest::prelude::*;

/// Regimes 0–3 of `tests/common`, and 4: its `1 − 1/p` costs ([`OffGrid`]).
fn costs(regime: u8, seed: u64) -> Box<dyn CostModel> {
    if regime == 4 {
        Box::new(OffGrid(false))
    } else {
        cost_model(regime, seed)
    }
}

/// Checks the sweep against `total_lag` through the later of the system
/// horizon and one slot past the last completion.
fn check(sys: &TaskSystem, sched: &Schedule, what: &str) -> Result<(), TestCaseError> {
    let h = sys.horizon();
    let end = h.max(sched.makespan().ceil() + 1);
    let series = lag_series(sys, sched, end);
    prop_assert_eq!(series.len(), usize::try_from(end + 1).unwrap(), "{}", what);
    for (t, got) in (0..).zip(&series) {
        let want = total_lag(sys, sched, Rat::int(t));
        prop_assert_eq!(*got, want, "{} LAG({})", what, t);
    }
    let want_max = (0..=h)
        .map(|t| total_lag(sys, sched, Rat::int(t)))
        .max()
        .unwrap_or(Rat::ZERO);
    prop_assert_eq!(max_lag_over_slots(sys, sched, h), want_max, "{} max", what);
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn lag_series_matches_total_lag(
        seed in 0u64..1_000_000,
        m in 1u32..=6,
        light in 0u8..2,
        gis in 0u8..2,
        horizon in 6i64..=14,
        regime in 0u8..5,
    ) {
        let sys = random_system(seed, m, light == 1, gis == 1, horizon);
        for alg in [Algorithm::Pd2, Algorithm::Epdf] {
            let order = alg.order();
            // DVQ starts accumulate the off-grid denominators, and the
            // exact LAG sum then leaves `i128` (the definition overflows
            // as well), so DVQ runs regimes 0–3 only.
            if regime < 4 {
                let dvq = simulate_dvq(&sys, m, order, costs(regime, seed).as_mut());
                check(&sys, &dvq, &format!("{alg} DVQ"))?;
            }
            let sfq = simulate_sfq(&sys, m, order, costs(regime, seed).as_mut());
            check(&sys, &sfq, &format!("{alg} SFQ"))?;
            let stag = simulate_staggered(&sys, m, order, costs(regime, seed).as_mut());
            check(&sys, &stag, &format!("{alg} staggered"))?;
        }
        if is_boundary_periodic(&sys) && sys.utilization() <= Rat::int(i64::from(m)) {
            let bf = simulate_bf(&sys, m, costs(regime, seed).as_mut());
            check(&sys, &bf, "BF")?;
        }
    }
}

fn check_hand_built(sys: &TaskSystem, sched: &Schedule) {
    if let Err(e) = check(sys, sched, "hand-built") {
        panic!("{e:?}");
    }
}

/// `V` (weight 1/2: windows `[0, 2)` and `[2, 4)`) and `L` (weight 1/6:
/// window `[0, 6)`), one processor each. `V_1` runs `[1/2, 1)` and so
/// completes exactly at slot 1; `V_2` starts exactly at slot 2, where its
/// window is released, and runs a full quantum; `L_1` starts at 5/2 with
/// cost 3/4.
#[test]
fn boundaries_match_the_definition() {
    let sys = release::periodic_named(&[("V", 1, 2), ("L", 1, 6)], 4);
    let refs: Vec<SubtaskRef> = sys.iter_refs().map(|(st, _)| st).collect();
    let [v1, v2, l1] = refs[..] else {
        panic!("three subtasks expected, got {}", refs.len());
    };
    let sched = Schedule::new(
        &sys,
        QuantumModel::Dvq,
        2,
        vec![
            dvq(v1, 0, Rat::new(1, 2), Rat::new(1, 2)),
            dvq(v2, 0, Rat::int(2), Rat::ONE),
            dvq(l1, 1, Rat::new(5, 2), Rat::new(3, 4)),
        ],
    );
    check_hand_built(&sys, &sched);
    let series = lag_series(&sys, &sched, 7);
    // t = 1: V ideal 1/2, received 1 (complete); L ideal 1/6.
    assert_eq!(series[1], Rat::new(1, 2) - Rat::ONE + Rat::new(1, 6));
    // t = 2: V ideal 1 (V_2 released, contributes 0), received 1;
    // L ideal 2/6.
    assert_eq!(series[2], Rat::new(1, 3));
    // t = 3: V ideal 3/2, received 1 + 1 (V_2 completes exactly at 3);
    // L ideal 3/6, received (3 − 5/2)/(3/4) = 2/3.
    assert_eq!(
        series[3],
        Rat::new(3, 2) - Rat::int(2) + Rat::new(1, 2) - Rat::new(2, 3)
    );
    // Past every window and completion: all due and all received.
    assert_eq!(series[7], Rat::ZERO);
    assert!(lag_series(&sys, &sched, -1).is_empty());
}

/// A tardy quantum that completes after the system horizon: the sweep
/// keeps it in flight past the horizon, exactly like `total_lag`.
#[test]
fn tardy_quanta_past_the_horizon_match_the_definition() {
    let sys = release::periodic_named(&[("V", 1, 2)], 2);
    let refs: Vec<SubtaskRef> = sys.iter_refs().map(|(st, _)| st).collect();
    let sched = Schedule::new(
        &sys,
        QuantumModel::Dvq,
        1,
        vec![dvq(refs[0], 0, Rat::new(5, 2), Rat::new(7, 8))],
    );
    check_hand_built(&sys, &sched);
    let series = lag_series(&sys, &sched, 4);
    assert_eq!(series[2], Rat::ONE);
    assert_eq!(series[3], Rat::ONE - Rat::new(4, 7));
    assert_eq!(series[4], Rat::ZERO);
}
