//! Machine-checked reproductions of every figure of the paper.
//!
//! | test prefix | paper artifact |
//! |---|---|
//! | `fig1_*` | Fig. 1: windows of a weight-3/4 task (periodic / IS / GIS) |
//! | `fig2_*` | Fig. 2: SFQ vs DVQ vs PD^B on the 6-task, M = 2 example |
//! | `fig3_*` | Fig. 3: predecessor blocking (reconstructed instance; see EXPERIMENTS.md) |
//! | `fig4_*` | Fig. 4: Aligned / Olapped / Free classification + S_B postponement |
//! | `fig6_*` | Fig. 6: PD^B one-quantum miss, right-shifted PD², k-compliance |
//!
//! (Fig. 5 and Fig. 7 illustrate proof steps of Lemmas 4 and 6; their
//! content is exercised by `fig4_*`/`fig6_*` and `tests/theorems.rs`.)

use pfair::prelude::*;

/// The task set of Figs. 2 and 6: A, B, C at weight 1/6; D, E, F at 1/2;
/// total utilization 2 on M = 2 processors.
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

fn find(sys: &TaskSystem, task: u32, index: u64) -> SubtaskRef {
    sys.find(SubtaskId {
        task: TaskId(task),
        index,
    })
    .unwrap()
}

// ---------------------------------------------------------------- Fig. 1

#[test]
fn fig1a_periodic_windows_of_weight_3_4() {
    let sys = release::periodic(&[(3, 4)], 8);
    let sts = sys.task_subtasks(TaskId(0));
    // First job: [0,2), [1,3), [2,4); second job repeats shifted by 4.
    let expected = [(0, 2), (1, 3), (2, 4), (4, 6), (5, 7), (6, 8)];
    assert_eq!(sts.len(), 6);
    for (s, &(r, d)) in sts.iter().zip(&expected) {
        assert_eq!(s.pf_window(), (r, d), "subtask {:?}", s.id);
        assert_eq!(s.eligible, r);
    }
}

#[test]
fn fig1b_is_task_with_late_t3() {
    // T_3 becomes eligible (is released) one time unit late; later
    // subtasks inherit the shift.
    let spec = pfair::taskmodel::release::ReleaseSpec {
        name: "T",
        e: 3,
        p: 4,
        delays: &[(3, 1)],
        drops: &[],
        early: 0,
    };
    let sys = pfair::taskmodel::release::structured(&[spec], 9).unwrap();
    let sts = sys.task_subtasks(TaskId(0));
    assert_eq!(sts[0].pf_window(), (0, 2));
    assert_eq!(sts[1].pf_window(), (1, 3));
    assert_eq!(sts[2].pf_window(), (3, 5)); // right-shifted by θ = 1
    assert_eq!(sts[3].pf_window(), (5, 7));
    // Eq. (5): offsets are monotone.
    for w in sts.windows(2) {
        assert!(w[0].theta <= w[1].theta);
    }
}

#[test]
fn fig1c_gis_task_with_absent_t2() {
    // T_2 absent and T_3 eligible one unit late.
    let spec = pfair::taskmodel::release::ReleaseSpec {
        name: "T",
        e: 3,
        p: 4,
        delays: &[(3, 1)],
        drops: &[2],
        early: 0,
    };
    let sys = pfair::taskmodel::release::structured(&[spec], 9).unwrap();
    let sts = sys.task_subtasks(TaskId(0));
    let indices: Vec<u64> = sts.iter().map(|s| s.id.index).collect();
    assert_eq!(&indices[..3], &[1, 3, 4]);
    assert_eq!(sts[1].pf_window(), (3, 5));
    // T_3's predecessor (previously released subtask) is T_1.
    let t3 = find(&sys, 0, 3);
    let t1 = find(&sys, 0, 1);
    assert_eq!(sys.subtask(t3).pred, Some(t1));
    // GIS separation: r(T_3) − r(T_1) ≥ ⌊2/wt⌋ − ⌊0/wt⌋ = 2.
    assert!(sys.subtask(t3).release - sys.subtask(t1).release >= 2);
}

#[test]
fn fig1_window_diagram_renders() {
    let sys = release::periodic(&[(3, 4)], 4);
    let art = render_windows(&sys, TaskId(0), 8);
    assert!(art.contains("wt 3/4"));
    assert!(art.contains("[===)"));
}

// ---------------------------------------------------------------- Fig. 2

#[test]
fn fig2a_sfq_pd2_schedule_meets_all_deadlines() {
    let sys = fig2_system();
    let sched = simulate_sfq(&sys, 2, &Pd2, &mut FullQuantum);
    let expected = [
        // (task, index, slot)
        (3, 1, 0), // D1
        (4, 1, 0), // E1
        (5, 1, 1), // F1
        (0, 1, 1), // A1
        (3, 2, 2), // D2
        (4, 2, 2), // E2
        (5, 2, 3), // F2
        (1, 1, 3), // B1
        (3, 3, 4), // D3
        (4, 3, 4), // E3
        (5, 3, 5), // F3
        (2, 1, 5), // C1
    ];
    for &(task, index, slot) in &expected {
        assert_eq!(
            sched.start(find(&sys, task, index)),
            Rat::int(slot),
            "task {task} subtask {index}"
        );
    }
    assert_eq!(tardiness_stats(&sys, &sched).max, Rat::ZERO);
}

#[test]
fn fig2b_dvq_pd2_schedule_with_delta_yields() {
    // A_1 and F_1 execute for 1 − δ; B_1 and C_1 grab the processors at
    // 2 − δ; D_2/E_2 are eligibility-blocked; F_2 misses by 1 − δ.
    let sys = fig2_system();
    let delta = Rat::new(1, 4);
    let mut costs = FixedCosts::new(Rat::ONE)
        .with(TaskId(0), 1, Rat::ONE - delta)
        .with(TaskId(5), 1, Rat::ONE - delta);
    let sched = simulate_dvq(&sys, 2, &Pd2, &mut costs);

    assert_eq!(sched.start(find(&sys, 1, 1)), Rat::int(2) - delta);
    assert_eq!(sched.start(find(&sys, 2, 1)), Rat::int(2) - delta);
    assert_eq!(sched.start(find(&sys, 3, 2)), Rat::int(3) - delta);
    assert_eq!(sched.start(find(&sys, 4, 2)), Rat::int(3) - delta);

    let stats = tardiness_stats(&sys, &sched);
    assert_eq!(stats.max, Rat::ONE - delta);
    assert_eq!(sys.subtask(stats.worst.unwrap()).id.task, TaskId(5));

    // The blocking analysis labels D_2's wait as eligibility blocking.
    let events = detect_blocking(&sys, &sched, &Pd2);
    let d2_event = events
        .iter()
        .find(|e| e.victim == find(&sys, 3, 2))
        .expect("D_2 blocked");
    assert_eq!(d2_event.kind, BlockingKind::Eligibility);
}

#[test]
fn fig2c_pdb_postpones_fig2b_to_slot_boundaries() {
    // PD^B in the SFQ model makes the δ → 0 limit decisions of Fig. 2(b):
    // B_1, C_1 occupy slot 2 (blocking D_2, E_2) and F_2 slips to slot 4,
    // missing its deadline by exactly one quantum.
    let sys = fig2_system();
    let sched = simulate_sfq_pdb(&sys, 2, &mut FullQuantum);
    let expected = [
        (3, 1, 0), // D1
        (4, 1, 0), // E1
        (5, 1, 1), // F1
        (0, 1, 1), // A1
        (1, 1, 2), // B1 (DB beats newly-eligible D2/E2)
        (2, 1, 2), // C1
        (3, 2, 3), // D2
        (4, 2, 3), // E2
        (5, 2, 4), // F2 — misses d = 4 by one quantum
        (3, 3, 4), // D3
        (4, 3, 5), // E3
        (5, 3, 5), // F3
    ];
    for &(task, index, slot) in &expected {
        assert_eq!(
            sched.start(find(&sys, task, index)),
            Rat::int(slot),
            "task {task} subtask {index}"
        );
    }
    let stats = tardiness_stats(&sys, &sched);
    assert_eq!(stats.max, Rat::ONE);
    assert_eq!(stats.misses, 1);
}

#[test]
fn fig2_dvq_limit_matches_pdb_slot_assignment() {
    // The reduction step of §3: as δ → 0, each DVQ allocation of
    // Fig. 2(b) lands in the slot in which PD^B schedules the same
    // subtask in Fig. 2(c) (allocations commencing mid-slot postpone to
    // the next boundary — the Charged construction).
    let sys = fig2_system();
    let delta = Rat::new(1, 1024);
    let mut costs = FixedCosts::new(Rat::ONE)
        .with(TaskId(0), 1, Rat::ONE - delta)
        .with(TaskId(5), 1, Rat::ONE - delta);
    let dvq = simulate_dvq(&sys, 2, &Pd2, &mut costs);
    let pdb = simulate_sfq_pdb(&sys, 2, &mut FullQuantum);
    for (st, _) in sys.iter_refs() {
        let limit_slot = dvq.start(st).ceil(); // δ → 0: 2 − δ ↦ 2
        assert_eq!(
            Rat::int(limit_slot),
            pdb.start(st),
            "{:?} dvq start {} vs pdb {}",
            sys.subtask(st).id,
            dvq.start(st),
            pdb.start(st)
        );
    }
}

// --------------------------------- BF vs PD²-DVQ context-switch overheads

/// Boundary-Fair on the Fig. 2 task set versus PD²-DVQ with the figure's
/// δ-yields: BF incurs strictly less preemption overhead. On this task set
/// every subtask is a single unit quantum, so processor-*local* switch
/// counts are structurally forced equal (each occupied slot is its own
/// chunk under any engine); the overhead BF eliminates shows up entirely
/// in cross-processor resumptions. A migration is the expensive kind of
/// context switch — the incoming task's state lives in another
/// processor's cache — so the preemption cost below counts it on top of
/// the local switch. The full comparison is snapshot-tested verbatim
/// against `figures/fig2_bf_vs_dvq.snapshot`.
#[test]
fn fig2_bf_strictly_cheaper_preemptions_than_dvq() {
    let horizon = 24;
    let sys = release::periodic_named(
        &[
            ("A", 1, 6),
            ("B", 1, 6),
            ("C", 1, 6),
            ("D", 1, 2),
            ("E", 1, 2),
            ("F", 1, 2),
        ],
        horizon,
    );
    let delta = Rat::new(1, 4);
    let mk = || {
        FixedCosts::new(Rat::ONE)
            .with(TaskId(0), 1, Rat::ONE - delta)
            .with(TaskId(5), 1, Rat::ONE - delta)
    };
    let dvq = simulate_dvq(&sys, 2, &Pd2, &mut mk());
    let bf = simulate_bf(&sys, 2, &mut mk());

    let mut lines = format!(
        "BF vs PD²-DVQ on the Fig. 2 task set (horizon {horizon}, δ = 1/4 yields on A₁, F₁)\n\n\
         engine    switches  migrations  preemption-cost  max-tardiness\n"
    );
    let mut cost = |name: &str, sched: &Schedule| {
        let sw = context_switch_stats(&sys, sched);
        let mig = migration_stats(&sys, sched);
        let tard = tardiness_stats(&sys, sched);
        let total = sw.switches() + mig.migrations;
        lines += &format!(
            "{name:<8}  {:>8}  {:>10}  {:>15}  {:>13}\n",
            sw.switches(),
            mig.migrations,
            total,
            tard.max.to_string()
        );
        total
    };
    let dvq_cost = cost("PD²-DVQ", &dvq);
    let bf_cost = cost("BF", &bf);
    assert!(
        bf_cost < dvq_cost,
        "BF preemption cost {bf_cost} must beat DVQ's {dvq_cost}"
    );
    // BF's wrap-around tape pins every task of this set to one processor.
    assert_eq!(migration_stats(&sys, &bf).migrations, 0);
    assert_eq!(tardiness_stats(&sys, &bf).max, Rat::ZERO);

    let golden = include_str!("../figures/fig2_bf_vs_dvq.snapshot");
    assert_eq!(lines, golden, "regenerate figures/fig2_bf_vs_dvq.snapshot");
}

// ---------------------------------------------------------------- Fig. 3

/// A concrete instance exhibiting the predecessor-blocking scenario of
/// Fig. 3 (reconstructed: the paper's figure text fixes the phenomenon but
/// not every weight; see EXPERIMENTS.md F3). Six tasks on M = 3:
/// at slot 2 {B_1, E_2, F_3} run; E_2 and F_3 yield early and the freed
/// processors go to C_2 and A_1 (lower priority than B_2); B_1 runs to the
/// boundary; at t = 3 its processor goes to the newly-eligible D_3, so
/// B_2 is predecessor-blocked by A_1.
fn fig3_system() -> TaskSystem {
    use pfair::taskmodel::release::{structured, ReleaseSpec};
    structured(
        &[
            ReleaseSpec::periodic("A", 1, 84),
            // B: weight 1/3, early-released by one slot so e(B_2) = 2 < 3.
            ReleaseSpec {
                name: "B",
                e: 1,
                p: 3,
                delays: &[],
                drops: &[],
                early: 1,
            },
            ReleaseSpec::periodic("C", 1, 2),
            ReleaseSpec::periodic("D", 2, 3),
            ReleaseSpec::periodic("E", 2, 3),
            ReleaseSpec::periodic("F", 3, 4),
        ],
        6,
    )
    .unwrap()
}

#[test]
fn fig3_predecessor_blocking_in_dvq() {
    let sys = fig3_system();
    assert!(sys.is_feasible(3));
    let delta = Rat::new(1, 4);
    // E_2 and F_3 (scheduled in slot 2) yield before the end of the slot.
    let mut costs = FixedCosts::new(Rat::ONE)
        .with(TaskId(4), 2, Rat::ONE - delta) // E_2
        .with(TaskId(5), 3, Rat::ONE - delta); // F_3
    let sched = simulate_dvq(&sys, 3, &Pd2, &mut costs);

    // Slot-2 occupancy: B_1, E_2, F_3.
    assert_eq!(sched.start(find(&sys, 1, 1)), Rat::int(2)); // B_1
    assert_eq!(sched.start(find(&sys, 4, 2)), Rat::int(2)); // E_2
    assert_eq!(sched.start(find(&sys, 5, 3)), Rat::int(2)); // F_3
                                                            // The early-freed processors go to C_2 and A_1 at 3 − δ.
    assert_eq!(sched.start(find(&sys, 2, 2)), Rat::int(3) - delta); // C_2
    assert_eq!(sched.start(find(&sys, 0, 1)), Rat::int(3) - delta); // A_1
                                                                    // At t = 3, B_1's processor goes to the newly-eligible D_3 (higher
                                                                    // priority than B_2)...
    assert_eq!(sched.start(find(&sys, 3, 3)), Rat::int(3)); // D_3
                                                            // ...so B_2, ready at 3 via its predecessor, waits behind A_1.
    let b2 = find(&sys, 1, 2);
    assert!(sched.start(b2) > Rat::int(3));

    let events = detect_blocking(&sys, &sched, &Pd2);
    let ev = events
        .iter()
        .find(|e| e.victim == b2)
        .expect("B_2 must be predecessor-blocked");
    assert_eq!(ev.kind, BlockingKind::Predecessor);
    assert_eq!(ev.ready_at, Rat::int(3));
    let a1 = find(&sys, 0, 1);
    assert!(
        ev.blockers.contains(&a1),
        "A_1 blocks B_2: {:?}",
        ev.blockers
    );
}

#[test]
fn fig3_property_pb_holds() {
    // Property PB: when subtasks are predecessor-blocked at t, at least as
    // many subtasks with e = t and equal-or-higher priority are scheduled
    // at t. In our instance U = {B_2} and V ∋ D_3 with e(D_3) = 3,
    // S(D_3) = 3, D_3 ⪯ B_2.
    let sys = fig3_system();
    let delta = Rat::new(1, 4);
    let mut costs = FixedCosts::new(Rat::ONE)
        .with(TaskId(4), 2, Rat::ONE - delta)
        .with(TaskId(5), 3, Rat::ONE - delta);
    let sched = simulate_dvq(&sys, 3, &Pd2, &mut costs);
    let b2 = find(&sys, 1, 2);
    let d3 = find(&sys, 3, 3);
    assert_eq!(sys.subtask(d3).eligible, 3);
    assert_eq!(sched.start(d3), Rat::int(3));
    assert!(Pd2.precedes_eq(&sys, d3, b2));
}

#[test]
fn fig3b_no_blocking_when_no_early_yield() {
    // Fig. 3(b)'s point: without the early yields there is no priority
    // inversion — B_2 may still wait, but only behind strictly
    // higher-priority work, which is ordinary contention, not blocking.
    let sys = fig3_system();
    let sched = simulate_dvq(&sys, 3, &Pd2, &mut FullQuantum);
    let b2 = find(&sys, 1, 2);
    // B_2 starts on a slot boundary (full costs ⇒ SFQ-like behaviour)...
    assert!(sched.start(b2).is_integer());
    // ...and no inversion is reported anywhere in the schedule.
    let events = detect_blocking(&sys, &sched, &Pd2);
    assert!(events.is_empty(), "unexpected inversions: {events:?}");
    // And nothing misses a deadline.
    assert_eq!(tardiness_stats(&sys, &sched).max, Rat::ZERO);
}

#[test]
fn fig3c_early_yield_of_b1_trades_predecessor_for_eligibility_blocking() {
    // Fig. 3(c): if B_1 itself yields early, B_2 starts before D_3's
    // eligibility and D_3 (higher priority) is the one delayed at t = 3.
    let sys = fig3_system();
    let delta = Rat::new(1, 4);
    let mut costs = FixedCosts::new(Rat::ONE)
        .with(TaskId(4), 2, Rat::ONE - delta) // E_2
        .with(TaskId(5), 3, Rat::ONE - delta) // F_3
        .with(TaskId(1), 1, Rat::ONE - delta); // B_1 yields too
    let sched = simulate_dvq(&sys, 3, &Pd2, &mut costs);
    let b2 = find(&sys, 1, 2);
    // B_2 now starts before time 3 (its predecessor freed early)…
    assert!(sched.start(b2) < Rat::int(3));
    // …and D_3 cannot start at 3 (all processors busy mid-quantum).
    let d3 = find(&sys, 3, 3);
    assert!(sched.start(d3) > Rat::int(3));
    let events = detect_blocking(&sys, &sched, &Pd2);
    let ev = events.iter().find(|e| e.victim == d3).expect("D_3 blocked");
    assert_eq!(ev.kind, BlockingKind::Eligibility);
}

// ---------------------------------------------------------------- Fig. 4

#[test]
fn fig4_classification_and_postponement() {
    let sys = fig2_system();
    let delta = Rat::new(1, 4);
    let mut costs = FixedCosts::new(Rat::ONE)
        .with(TaskId(0), 1, Rat::ONE - delta)
        .with(TaskId(5), 1, Rat::ONE - delta);
    let sched = simulate_dvq(&sys, 2, &Pd2, &mut costs);

    let classes: std::collections::HashMap<_, _> = classify_subtasks(&sched).into_iter().collect();
    // D_1 commences at 0: Aligned. B_1 commences at 2 − δ with cost 1:
    // Olapped (straddles t = 2).
    assert_eq!(classes[&find(&sys, 3, 1)], SubtaskClass::Aligned);
    assert_eq!(classes[&find(&sys, 1, 1)], SubtaskClass::Olapped);
    // A_1 commences at 1 (integral): Aligned even though it yields early.
    assert_eq!(classes[&find(&sys, 0, 1)], SubtaskClass::Aligned);

    // Lemma 3: postponed (S_B) times never precede the DVQ times.
    for (st, postponed) in postpone_charged(&sched) {
        assert!(postponed >= sched.start(st));
        assert!(postponed.is_integer());
    }
}

#[test]
fn fig4_free_subtasks_exist_when_quanta_fit_within_slots() {
    // Two weight-1/2 tasks sharing one processor with half-cost quanta:
    // the second task's quantum runs [1/2, 1) — entirely inside slot 0 —
    // and is Free.
    let sys = release::periodic(&[(1, 2), (1, 2)], 4);
    let mut half = ScaledCost(Rat::new(1, 2));
    let sched = simulate_dvq(&sys, 1, &Pd2, &mut half);
    let classes = classify_subtasks(&sched);
    assert!(classes.iter().any(|&(_, c)| c == SubtaskClass::Free));
    assert!(classes.iter().any(|&(_, c)| c == SubtaskClass::Aligned));
    // Every subtask gets exactly one class.
    assert_eq!(classes.len(), sys.num_subtasks());
}

// ---------------------------------------------------------------- Fig. 6

#[test]
fn fig6a_pdb_f2_misses_by_exactly_one_quantum() {
    let sys = fig2_system();
    let sched = simulate_sfq_pdb(&sys, 2, &mut FullQuantum);
    let f2 = find(&sys, 5, 2);
    assert_eq!(sched.completion(f2), Rat::int(5));
    assert_eq!(sys.subtask(f2).deadline, 4);
    let stats = tardiness_stats(&sys, &sched);
    assert_eq!(stats.max, Rat::ONE);
}

#[test]
fn fig6b_right_shifted_system_meets_all_deadlines_under_pd2() {
    // τ: every IS-window of τ^B right-shifted one slot. PD² (optimal)
    // misses nothing; viewed against τ^B's original deadlines that is
    // exactly a one-quantum tardiness bound.
    let sys_b = fig2_system();
    let tau = sys_b.shifted(1, 1);
    let sched = simulate_sfq(&tau, 2, &Pd2, &mut FullQuantum);
    assert!(check_window_containment(&tau, &sched).is_empty());
}

#[test]
fn fig6c_k_compliant_systems_all_schedulable() {
    let sys_b = fig2_system();
    let sched_b = simulate_sfq_pdb(&sys_b, 2, &mut FullQuantum);
    let order = ranks(&sched_b);
    // The paper's inset (c) is the k = 4 stage; we walk all of them.
    for k in 0..=sys_b.num_subtasks() {
        let tau_k = k_compliant_system(&sys_b, &order, k);
        let sched = simulate_sfq(&tau_k, 2, &Pd2, &mut FullQuantum);
        assert!(
            check_window_containment(&tau_k, &sched).is_empty(),
            "τ^{k} missed a deadline"
        );
    }
}

// ------------------------------------- Streaming (observer) golden metrics

/// Fig. 2(a) under streaming observation: the metrics summary produced
/// *during* the SFQ run is snapshot-tested verbatim. The same text (plus
/// the CLI header) is what `pfairsim run --metrics` prints, and CI diffs
/// that against a checked-in snapshot.
#[test]
fn fig2_streaming_metrics_golden_snapshot() {
    let sys = fig2_system();
    let mut obs = BlockingObserver::with_inner(&sys, &Pd2, MetricsObserver::new(2));
    let _ = simulate_sfq_observed(&sys, 2, &Pd2, &mut FullQuantum, &mut obs);
    let (records, metrics) = obs.into_parts();
    assert!(records.is_empty(), "SFQ full quanta admit no inversions");
    let golden = "\
quanta: 12 started, 12 completed over 6 ticks (end 6)
deadlines: 12 hit, 0 missed (total tardiness 0, max 0)
blocking: 0 eligibility, 0 predecessor
histogram: [12, 0, 0, 0, 0, 0, 0, 0] (bucket 0 = on time, width 1/7)
proc 0: busy 6, idle 0, waste 0, 5 switches
proc 1: busy 6, idle 0, waste 0, 5 switches
";
    assert_eq!(metrics.summary(), golden);
}

/// Fig. 3 under streaming observation: the run emits exactly one
/// predecessor-blocking record — B₂, ready at t = 3 behind its
/// predecessor, blocked by the lower-priority A₁.
#[test]
fn fig3_streaming_blocking_golden() {
    let sys = fig3_system();
    let delta = Rat::new(1, 4);
    let mut costs = FixedCosts::new(Rat::ONE)
        .with(TaskId(4), 2, Rat::ONE - delta)
        .with(TaskId(5), 3, Rat::ONE - delta);
    let mut obs = BlockingObserver::new(&sys, &Pd2);
    let _ = simulate_dvq_observed(&sys, 3, &Pd2, &mut costs, &mut obs);
    let (records, _) = obs.into_parts();
    let pred: Vec<&BlockingRecord> = records
        .iter()
        .filter(|r| r.kind == InversionKind::Predecessor)
        .collect();
    assert_eq!(
        pred.len(),
        1,
        "exactly one predecessor inversion: {records:?}"
    );
    let b2 = find(&sys, 1, 2);
    let a1 = find(&sys, 0, 1);
    assert_eq!(pred[0].victim, b2);
    assert_eq!(pred[0].ready_at, Rat::int(3));
    assert!(pred[0].scheduled_at > Rat::int(3));
    assert!(pred[0].blockers.contains(&a1));
}

/// Fig. 6(a) under streaming observation: PD^B's single miss — F₂, by
/// exactly one quantum — is visible live in the metrics stream.
#[test]
fn fig6_streaming_f2_misses_by_one_quantum() {
    let sys = fig2_system();
    let mut metrics = MetricsObserver::new(2);
    let _ = simulate_sfq_with(
        &sys,
        2,
        SfqPolicy::PdB(pdb::PdbLinearization::MAX_BLOCKING),
        AffinityMode::ByDecision,
        &mut FullQuantum,
        &mut metrics,
    );
    assert_eq!(metrics.deadline_misses(), 1);
    assert_eq!(metrics.max_tardiness(), Rat::ONE);
    assert_eq!(metrics.total_tardiness(), Rat::ONE);
    assert_eq!(
        metrics.worst(),
        Some(SubtaskId {
            task: TaskId(5),
            index: 2
        })
    );
    assert_eq!(metrics.deadline_hits(), 11);
}

// ------------------------------------------------- Gantt renderings exist

#[test]
fn figures_render_to_gantt_charts() {
    let sys = fig2_system();
    let delta = Rat::new(1, 4);
    let mut costs = FixedCosts::new(Rat::ONE)
        .with(TaskId(0), 1, Rat::ONE - delta)
        .with(TaskId(5), 1, Rat::ONE - delta);
    let opts = GanttOptions {
        resolution: 4,
        horizon: 6,
    };
    let sfq = render_gantt(&sys, &simulate_sfq(&sys, 2, &Pd2, &mut FullQuantum), &opts);
    let dvq = render_gantt(&sys, &simulate_dvq(&sys, 2, &Pd2, &mut costs), &opts);
    let pdb = render_gantt(&sys, &simulate_sfq_pdb(&sys, 2, &mut FullQuantum), &opts);
    for art in [&sfq, &dvq, &pdb] {
        assert_eq!(art.lines().count(), 4);
    }
    assert_ne!(sfq, dvq);
    assert_ne!(sfq, pdb);
}
