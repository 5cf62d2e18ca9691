//! The tick-grid analyses must be invisible: `tardiness_stats`,
//! `waste_stats`, `response_stats`, `check_structural`,
//! `check_window_containment` and `schedule_report` run on an exact `i64`
//! grid of the schedule whenever one fits, and must report exactly what
//! the straightforward `Rat` definitions below report — same error lists
//! in the same order, same `worst`, same value in every `Rat` field.
//!
//! The proptest sweeps the seeded systems of `blocking_oracle.rs` on DVQ,
//! SFQ and staggered schedules, with full, scaled, adversarial and
//! GRID-resolution (720720) costs; all of those fit a grid. The
//! hand-built schedules reach the exact `Rat` tier that no engine run
//! reaches — denominators whose lcm leaves `i64`, or a deadline whose tick
//! count does — and plant the violations engines never produce: processor
//! overlaps, starts before eligibility or before the predecessor
//! completes, non-integral SFQ starts and over-full SFQ slots.

mod common;

use std::collections::BTreeMap;

use common::{cost_model, dvq, quadratic_blocking, random_system, PRIMES};
use pfair::analysis::{response_stats, ResponseStats, ScheduleReport, ValidityError};
use pfair::prelude::*;
use proptest::prelude::*;

/// The `Rat` definitions of the analyses, one subtask or placement at a
/// time.
mod oracle {
    use super::*;

    pub fn tardiness(sys: &TaskSystem, sched: &Schedule) -> TardinessStats {
        let mut stats = TardinessStats {
            max: Rat::ZERO,
            total: Rat::ZERO,
            subtasks: sys.num_subtasks(),
            misses: 0,
            worst: None,
        };
        for (st, s) in sys.iter_refs() {
            let t = (sched.completion(st) - Rat::int(s.deadline)).max(Rat::ZERO);
            if t.is_positive() {
                stats.misses += 1;
                stats.total += t;
                if t > stats.max {
                    stats.max = t;
                    stats.worst = Some(st);
                }
            }
        }
        stats
    }

    pub fn waste(sched: &Schedule) -> WasteStats {
        let mut busy = Rat::ZERO;
        let mut wasted = Rat::ZERO;
        let makespan = sched.makespan();
        for p in sched.placements() {
            busy += p.cost;
            let hold_end = p.holds_until.min(makespan).max(p.completion());
            wasted += hold_end - p.completion();
        }
        let capacity = Rat::int(i64::from(sched.m())) * makespan;
        WasteStats {
            busy,
            wasted,
            idle: capacity - busy - wasted,
            makespan,
            m: sched.m(),
        }
    }

    pub fn response(sys: &TaskSystem, sched: &Schedule) -> ResponseStats {
        let mut stats = ResponseStats {
            max: Rat::ZERO,
            total: Rat::ZERO,
            subtasks: sys.num_subtasks(),
        };
        for (st, s) in sys.iter_refs() {
            let r = sched.completion(st) - Rat::int(s.eligible);
            stats.max = stats.max.max(r);
            stats.total += r;
        }
        stats
    }

    /// Per-processor scans, then per-subtask checks, then (SFQ) per
    /// placement and per slot, in slot order.
    pub fn structural(sys: &TaskSystem, sched: &Schedule) -> Vec<ValidityError> {
        let mut errors = Vec::new();
        for proc in 0..sched.m() {
            let mut prev: Option<&Placement> = None;
            for p in sched.on_processor(proc) {
                if let Some(q) = prev {
                    if p.start < q.holds_until.max(q.completion()) {
                        errors.push(ValidityError::ProcessorOverlap {
                            proc,
                            first: q.st,
                            second: p.st,
                        });
                    }
                }
                prev = Some(p);
            }
        }
        for (st, s) in sys.iter_refs() {
            let start = sched.start(st);
            if start < Rat::int(s.eligible) {
                errors.push(ValidityError::BeforeEligibility {
                    st,
                    start,
                    eligible: s.eligible,
                });
            }
            if let Some(pred) = s.pred {
                let pc = sched.completion(pred);
                if start < pc {
                    errors.push(ValidityError::BeforePredecessor {
                        st,
                        start,
                        pred_completion: pc,
                    });
                }
            }
        }
        if sched.model() == QuantumModel::Sfq {
            for p in sched.placements() {
                if !p.start.is_integer() {
                    errors.push(ValidityError::NonIntegralStart {
                        st: p.st,
                        start: p.start,
                    });
                }
            }
            let mut counts: BTreeMap<i64, usize> = BTreeMap::new();
            for p in sched.placements() {
                *counts.entry(p.start.floor()).or_default() += 1;
            }
            for (slot, count) in counts {
                if count > sched.m() as usize {
                    errors.push(ValidityError::TooManyInSlot { slot, count });
                }
            }
        }
        errors
    }

    pub fn window_containment(sys: &TaskSystem, sched: &Schedule) -> Vec<ValidityError> {
        sys.iter_refs()
            .filter(|&(st, s)| sched.completion(st) > Rat::int(s.deadline))
            .map(|(st, s)| ValidityError::DeadlineMiss {
                st,
                completion: sched.completion(st),
                deadline: s.deadline,
            })
            .collect()
    }
}

/// Every analysis against its oracle, and the report against the one
/// assembled from the oracles, the quadratic inversion predicate and
/// `migration_stats`.
fn assert_matches_oracles(
    sys: &TaskSystem,
    sched: &Schedule,
    order: &dyn PriorityOrder,
    what: &str,
) -> Result<(), TestCaseError> {
    let tardiness = oracle::tardiness(sys, sched);
    let waste = oracle::waste(sched);
    let response = oracle::response(sys, sched);
    let structural = oracle::structural(sys, sched);
    let window = oracle::window_containment(sys, sched);
    prop_assert_eq!(
        &tardiness_stats(sys, sched),
        &tardiness,
        "{} tardiness",
        what
    );
    prop_assert_eq!(&waste_stats(sched), &waste, "{} waste", what);
    prop_assert_eq!(&response_stats(sys, sched), &response, "{} response", what);
    prop_assert_eq!(
        &check_structural(sys, sched),
        &structural,
        "{} structural",
        what
    );
    prop_assert_eq!(
        &check_window_containment(sys, sched),
        &window,
        "{} window containment",
        what
    );

    let inversions = quadratic_blocking(sys, sched, order);
    let count = |kind| inversions.iter().filter(|e| e.3 == kind).count();
    let want = ScheduleReport {
        tardiness,
        waste,
        migrations: migration_stats(sys, sched),
        response,
        eligibility_blocking: count(BlockingKind::Eligibility),
        predecessor_blocking: count(BlockingKind::Predecessor),
        structural_violations: structural.len(),
        window_violations: window.len(),
    };
    let got = schedule_report(sys, sched, order);
    prop_assert_eq!(&got.tardiness, &want.tardiness, "{} report tardiness", what);
    prop_assert_eq!(&got.waste, &want.waste, "{} report waste", what);
    prop_assert_eq!(
        &got.migrations,
        &want.migrations,
        "{} report migrations",
        what
    );
    prop_assert_eq!(&got.response, &want.response, "{} report response", what);
    prop_assert_eq!(
        (got.eligibility_blocking, got.predecessor_blocking),
        (want.eligibility_blocking, want.predecessor_blocking),
        "{} report blocking",
        what
    );
    prop_assert_eq!(
        (got.structural_violations, got.window_violations),
        (want.structural_violations, want.window_violations),
        "{} report validity",
        what
    );
    prop_assert_eq!(got.to_string(), want.to_string(), "{} report text", what);
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The grid tier equals the oracles on DVQ, SFQ and staggered runs.
    #[test]
    fn grid_analyses_match_the_rat_oracles(
        seed in 0u64..1_000_000,
        m in 1u32..=24,
        light in 0u8..2,
        gis in 0u8..2,
        horizon in 6i64..=14,
        regime in 0u8..4,
    ) {
        let sys = random_system(seed, m, light == 1, gis == 1, horizon);
        for alg in [Algorithm::Pd2, Algorithm::Epdf, Algorithm::Pd] {
            let order = alg.order();
            let dvq = simulate_dvq(&sys, m, order, cost_model(regime, seed).as_mut());
            assert_matches_oracles(&sys, &dvq, order, &format!("{alg} DVQ"))?;
            let sfq = simulate_sfq(&sys, m, order, cost_model(regime, seed).as_mut());
            assert_matches_oracles(&sys, &sfq, order, &format!("{alg} SFQ"))?;
            let stag = simulate_staggered(&sys, m, order, cost_model(regime, seed).as_mut());
            assert_matches_oracles(&sys, &stag, order, &format!("{alg} staggered"))?;
        }
    }
}

/// `1 − 1/p`, a cost just short of a quantum.
fn short(p: i64) -> Rat {
    Rat::new(p - 1, p)
}

fn place(st: SubtaskRef, proc: u32, start: Rat, cost: Rat, holds_until: Rat) -> Placement {
    Placement {
        st,
        proc,
        start,
        cost,
        holds_until,
    }
}

/// `V` (weight 1/2: `V_1` eligible at 0 with deadline 2, `V_2` at 2 with
/// deadline 4) and `L` (weight 1/6: `L_1` eligible at 0, deadline 6, so
/// strictly lower priority than `V_2`).
fn edge_system() -> (TaskSystem, [SubtaskRef; 3]) {
    let sys = release::periodic_named(&[("V", 1, 2), ("L", 1, 6)], 4);
    let find = |task, index| {
        sys.find(SubtaskId {
            task: TaskId(task),
            index,
        })
        .unwrap()
    };
    let refs = [find(0, 1), find(0, 2), find(1, 1)];
    assert_eq!(sys.num_subtasks(), 3);
    (sys, refs)
}

/// A valid DVQ schedule of [`edge_system`] with costs `1 − 1/p`: `V_2`
/// is ready at 2 and waits until 3 behind `L_1`, which started at
/// `3/2 + 1/p2` — eligibility blocking.
fn blocked(ps: [i64; 3]) -> (TaskSystem, Schedule) {
    let (sys, [v1, v2, l1]) = edge_system();
    let [p1, p2, p3] = ps;
    let sched = Schedule::new(
        &sys,
        QuantumModel::Dvq,
        2,
        vec![
            dvq(v1, 0, Rat::ZERO, short(p1)),
            dvq(l1, 1, Rat::new(3, 2) + Rat::new(1, p2), short(p3)),
            dvq(v2, 0, Rat::int(3), Rat::ONE),
        ],
    );
    (sys, sched)
}

/// A DVQ schedule of [`edge_system`] that breaks every rule it can:
/// `V_2` starts at `1/p2` — before its eligibility, before `V_1`
/// completes, on `V_1`'s processor — and `L_1` misses its deadline.
fn violating(ps: [i64; 3]) -> (TaskSystem, Schedule) {
    let (sys, [v1, v2, l1]) = edge_system();
    let [p1, p2, p3] = ps;
    let sched = Schedule::new(
        &sys,
        QuantumModel::Dvq,
        2,
        vec![
            dvq(v1, 0, Rat::ZERO, short(p1)),
            dvq(v2, 0, Rat::new(1, p2), short(p3)),
            dvq(l1, 1, Rat::int(5) + Rat::new(1, p2), Rat::ONE),
        ],
    );
    (sys, sched)
}

fn check_hand_built(sys: &TaskSystem, sched: &Schedule, order: &dyn PriorityOrder) {
    if let Err(e) = assert_matches_oracles(sys, sched, order, "hand-built") {
        panic!("{e:?}");
    }
}

fn assert_off_grid(ps: [i64; 3]) {
    let [p1, p2, p3] = ps;
    assert_eq!(
        pfair::numeric::checked_lcm(p1 * p2, p3),
        None,
        "the premise: no i64 grid"
    );
}

#[test]
fn violations_match_the_oracles_on_and_off_the_grid() {
    for ps in [[2, 3, 5], PRIMES] {
        let (sys, sched) = violating(ps);
        let v2 = sched.placements()[1].st;
        let errors = check_structural(&sys, &sched);
        assert!(
            matches!(errors[0], ValidityError::ProcessorOverlap { proc: 0, second, .. } if second == v2),
            "{errors:?}"
        );
        assert!(matches!(errors[1], ValidityError::BeforeEligibility { st, .. } if st == v2));
        assert!(matches!(errors[2], ValidityError::BeforePredecessor { st, .. } if st == v2));
        assert_eq!(errors.len(), 3);
        assert_eq!(check_window_containment(&sys, &sched).len(), 1);
        assert!(tardiness_stats(&sys, &sched).max.is_positive());
        for order in [&Pd2 as &dyn PriorityOrder, &Epdf] {
            check_hand_built(&sys, &sched, order);
        }
    }
    assert_off_grid(PRIMES);
}

#[test]
fn blocking_matches_the_oracles_on_and_off_the_grid() {
    for ps in [[2, 3, 5], PRIMES] {
        let (sys, sched) = blocked(ps);
        let report = schedule_report(&sys, &sched, &Pd2);
        assert_eq!(
            (report.eligibility_blocking, report.predecessor_blocking),
            (1, 0)
        );
        assert_eq!(report.structural_violations, 0);
        for order in [&Pd2 as &dyn PriorityOrder, &Epdf, &Pd, &Pf] {
            check_hand_built(&sys, &sched, order);
        }
    }
    assert_off_grid(PRIMES);
}

#[test]
fn sfq_slots_match_the_oracles_on_and_off_the_grid() {
    // One processor; non-integral starts at 1/p2 and 2 + 1/p3 overlap the
    // quanta before them and make slots 0 and 2 over-full. Every quantum
    // holds to its slot boundary.
    let sys = release::periodic(&[(1, 2), (1, 3)], 6);
    let refs: Vec<SubtaskRef> = sys.iter_refs().map(|(st, _)| st).collect();
    assert_eq!(refs.len(), 5);
    for ps in [[2, 3, 5], PRIMES] {
        let [p1, p2, p3] = ps;
        let starts = [
            Rat::ZERO,
            Rat::int(2),
            Rat::int(4),
            Rat::new(1, p2),
            Rat::int(2) + Rat::new(1, p3),
        ];
        let sched = Schedule::new(
            &sys,
            QuantumModel::Sfq,
            1,
            refs.iter()
                .zip(starts)
                .map(|(&st, start)| place(st, 0, start, short(p1), Rat::int(start.floor() + 1)))
                .collect(),
        );
        let errors = check_structural(&sys, &sched);
        let count = |kind: fn(&ValidityError) -> bool| errors.iter().filter(|e| kind(e)).count();
        assert_eq!(
            count(|e| matches!(e, ValidityError::ProcessorOverlap { .. })),
            2
        );
        assert_eq!(
            count(|e| matches!(e, ValidityError::NonIntegralStart { .. })),
            2
        );
        let slots: Vec<i64> = errors
            .iter()
            .filter_map(|e| match e {
                ValidityError::TooManyInSlot { slot, .. } => Some(*slot),
                _ => None,
            })
            .collect();
        assert_eq!(slots, [0, 2]);
        check_hand_built(&sys, &sched, &Pd2);
    }
    assert_off_grid(PRIMES);
}

#[test]
fn deadline_beyond_the_grid_takes_the_exact_tier() {
    // One subtask whose deadline, 2⁴⁰, is 2⁶³ ticks at the cost's scale of
    // 2²³: the placements fit a grid, the system does not.
    let sys = release::periodic(&[(1, 1 << 40)], 1 << 40);
    assert_eq!(sys.num_subtasks(), 1);
    let (st, s) = sys.iter_refs().next().unwrap();
    assert_eq!(s.deadline, 1 << 40);
    let cost = Rat::new((1 << 23) - 1, 1 << 23);
    let sched = Schedule::new(
        &sys,
        QuantumModel::Dvq,
        1,
        vec![dvq(st, 0, Rat::int(5), cost)],
    );
    check_hand_built(&sys, &sched, &Pd2);
}
