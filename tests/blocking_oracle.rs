//! The windowed priority-inversion search must be invisible:
//! `detect_blocking` and the streaming `BlockingObserver` only look at the
//! quanta starting in `(r − c_max, s)` of a wait `(r, s]`, and both must
//! report exactly what the plain quadratic predicate reports — same
//! victims, ready and dispatch times, kinds, and blockers in the same
//! order — on seeded systems of up to ~100 tasks, under PD², EPDF and PD
//! (compared through their keys), PF and `ComparatorOnly(&Pd2)` (through
//! the comparator), with full, scaled, adversarial and GRID-resolution
//! (720720) costs.
//!
//! The hand-built schedules pin the window's edges: a quantum that ends
//! exactly at the ready time is not a blocker, one that ends a GRID tick
//! later is, and a charged quantum longer than 1 still is one. One more is
//! off every `i64` tick grid, so `detect_blocking` runs on exact `Rat`s.

mod common;

use common::{cost_model, dvq, quadratic_blocking as oracle, random_system, Flat, PRIMES};
use pfair::prelude::*;
use proptest::prelude::*;

fn flatten_posthoc(sys: &TaskSystem, sched: &Schedule, order: &dyn PriorityOrder) -> Flat {
    detect_blocking(sys, sched, order)
        .into_iter()
        .map(|e| (e.victim, e.ready_at, e.scheduled_at, e.kind, e.blockers))
        .collect()
}

fn flatten_streaming(records: Vec<BlockingRecord>) -> Flat {
    records
        .into_iter()
        .map(|r| {
            let kind = match r.kind {
                InversionKind::Eligibility => BlockingKind::Eligibility,
                InversionKind::Predecessor => BlockingKind::Predecessor,
            };
            (r.victim, r.ready_at, r.scheduled_at, kind, r.blockers)
        })
        .collect()
}

/// Feeds a finished schedule to a fresh observer as its `QuantumStart`
/// stream, in `(start, proc)` order.
fn stream_schedule(sys: &TaskSystem, sched: &Schedule, order: &dyn PriorityOrder) -> Flat {
    let mut obs = BlockingObserver::new(sys, order);
    for p in sched.placements() {
        let s = sys.subtask(p.st);
        obs.on_event(&SchedEvent::QuantumStart {
            id: s.id,
            proc: p.proc,
            start: p.start,
            cost: p.cost,
            holds_until: p.holds_until,
            deadline: s.deadline,
            bbit: s.bbit,
            group_deadline: s.group_deadline,
        });
    }
    flatten_streaming(obs.into_parts().0)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Both windowed detectors equal the quadratic oracle on DVQ runs;
    /// `detect_blocking` also on the SFQ run of the same system.
    #[test]
    fn windowed_detectors_match_the_quadratic_oracle(
        seed in 0u64..1_000_000,
        m in 1u32..=24,
        light in 0u8..2,
        gis in 0u8..2,
        horizon in 6i64..=14,
        regime in 0u8..4,
    ) {
        let sys = random_system(seed, m, light == 1, gis == 1, horizon);
        let pd2_by_comparator = ComparatorOnly(&Pd2);
        let orders: [&dyn PriorityOrder; 5] =
            [&Pd2, &Epdf, &Pd, &Pf, &pd2_by_comparator];
        for order in orders {
            let alg = format!("{order:?}");
            let mut obs = BlockingObserver::new(&sys, order);
            let mut cost = cost_model(regime, seed);
            let dvq = simulate_dvq_observed(&sys, m, order, cost.as_mut(), &mut obs);
            let want = oracle(&sys, &dvq, order);
            prop_assert_eq!(&flatten_posthoc(&sys, &dvq, order), &want, "{} DVQ post-hoc", alg);
            prop_assert_eq!(
                &flatten_streaming(obs.into_parts().0),
                &want,
                "{} DVQ streaming",
                alg
            );

            let mut cost = cost_model(regime, seed);
            let sfq = simulate_sfq(&sys, m, order, cost.as_mut());
            prop_assert_eq!(
                flatten_posthoc(&sys, &sfq, order),
                oracle(&sys, &sfq, order),
                "{} SFQ post-hoc",
                alg
            );
        }
    }
}

/// `V` (weight 1/2: `V_1` eligible at 0, `V_2` at 2) and `L` (weight 1/6,
/// one subtask with deadline 6, so strictly lower PD² priority than
/// `V_2`, whose deadline is 4).
fn edge_system() -> (TaskSystem, SubtaskRef, SubtaskRef, SubtaskRef) {
    let sys = release::periodic_named(&[("V", 1, 2), ("L", 1, 6)], 4);
    let find = |task, index| {
        sys.find(SubtaskId {
            task: TaskId(task),
            index,
        })
        .unwrap()
    };
    let (v1, v2, l1) = (find(0, 1), find(0, 2), find(1, 1));
    assert_eq!(sys.num_subtasks(), 3);
    assert!(Pd2.precedes(&sys, v2, l1));
    (sys, v1, v2, l1)
}

/// `V_2` is ready at `r = 2` and waits until 3; `L_1` runs from
/// `l_start` for `l_cost` on the other processor.
fn edge_schedule(sys: &TaskSystem, l_start: Rat, l_cost: Rat) -> Schedule {
    let (_, v1, v2, l1) = edge_system();
    Schedule::new(
        sys,
        QuantumModel::Dvq,
        2,
        vec![
            dvq(v1, 0, Rat::ZERO, Rat::ONE),
            dvq(v2, 0, Rat::int(3), Rat::ONE),
            dvq(l1, 1, l_start, l_cost),
        ],
    )
}

fn assert_edge(l_start: Rat, l_cost: Rat, expect_blocked: bool) {
    let (sys, _, v2, l1) = edge_system();
    let sched = edge_schedule(&sys, l_start, l_cost);
    let want = if expect_blocked {
        vec![(
            v2,
            Rat::int(2),
            Rat::int(3),
            BlockingKind::Eligibility,
            vec![l1],
        )]
    } else {
        Vec::new()
    };
    assert_eq!(oracle(&sys, &sched, &Pd2), want, "oracle");
    assert_eq!(flatten_posthoc(&sys, &sched, &Pd2), want, "detect_blocking");
    assert_eq!(
        stream_schedule(&sys, &sched, &Pd2),
        want,
        "BlockingObserver"
    );
}

#[test]
fn quantum_ending_exactly_at_the_ready_time_is_not_a_blocker() {
    // L_1 occupies [r − 1, r): it starts exactly at r − c_max.
    assert_edge(Rat::ONE, Rat::ONE, false);
}

#[test]
fn quantum_ending_one_grid_tick_after_the_ready_time_is_a_blocker() {
    // L_1 occupies [r − 1 + 1/720720, r + 1/720720): it overlaps the wait.
    assert_edge(Rat::ONE + Rat::new(1, 720_720), Rat::ONE, true);
}

#[test]
fn charged_quantum_longer_than_one_widens_the_window() {
    // L_1 starts before r − 1 but runs 3/2, past r: c_max comes from the
    // data, so the window still reaches it.
    assert_edge(Rat::new(3, 4), Rat::new(3, 2), true);
}

#[test]
fn off_grid_schedule_matches_the_oracle() {
    let (sys, v1, v2, l1) = edge_system();
    let [p1, p2, p3] = PRIMES;
    assert_eq!(
        pfair::numeric::checked_lcm(p1 * p2, p3),
        None,
        "the premise: no i64 grid"
    );
    // V_1 ends before 2, so V_2 is ready at its eligibility, 2; L_1 runs
    // from 3/2 + 1/p2 to past 2 and blocks it until 3.
    let l_start = Rat::new(3, 2) + Rat::new(1, p2);
    let sched = Schedule::new(
        &sys,
        QuantumModel::Dvq,
        2,
        vec![
            dvq(v1, 0, Rat::ZERO, Rat::new(p1 - 1, p1)),
            dvq(v2, 0, Rat::int(3), Rat::ONE),
            dvq(l1, 1, l_start, Rat::new(p3 - 1, p3)),
        ],
    );
    let want = vec![(
        v2,
        Rat::int(2),
        Rat::int(3),
        BlockingKind::Eligibility,
        vec![l1],
    )];
    assert_eq!(oracle(&sys, &sched, &Pd2), want, "oracle");
    assert_eq!(flatten_posthoc(&sys, &sched, &Pd2), want, "detect_blocking");
    assert_eq!(
        stream_schedule(&sys, &sched, &Pd2),
        want,
        "BlockingObserver"
    );
}
