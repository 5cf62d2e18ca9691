//! Differential equivalence of the streaming observers and the post-hoc
//! analyses: over hundreds of seeded random task systems (periodic,
//! sporadic, intra-sporadic and GIS releases alike), under both
//! simulators and several actual-cost regimes, the metrics produced
//! *during* the run by [`LagObserver`], [`MetricsObserver`] and
//! [`BlockingObserver`] must agree — by exact rational equality, never a
//! tolerance — with `pfair-analysis` recomputing the same quantities from
//! the finished [`Schedule`].
//!
//! The broad sweeps run small-denominator (≤ 17) cost regimes; a dedicated
//! regression drives the GRID-resolution (denominator 720720) cost model
//! whose lag sums exceeded the old i64-backed `Rat` outright — the
//! i128-backed `Rat` now carries them exactly, so the same rational
//! equality holds with no representability carve-out anywhere.
//!
//! The observers keep their state in ticks of the 720720 grid and move it
//! to exact rationals when a stream leaves that grid. The 1/17 regime and
//! a hand-set run whose costs leave the grid mid-run hold that path to the
//! same equality.

use pfair::analysis::{max_lag_over_slots, tardiness_histogram, total_lag};
use pfair::conformance::{generate_case, Case, GenConfig};
use pfair::obs::DEFAULT_BUCKETS;
use pfair::prelude::*;

/// Seeded systems per engine sweep. Together with three cost regimes each
/// this crosses well over the 500-system floor the suite promises.
const SYSTEMS: u64 = 600;

/// The actual-cost regimes each system runs under. All denominators are
/// ≤ 17, keeping exact lag arithmetic far from `Rat` overflow; 17 is off
/// the 720720 grid, so those streams leave the observers' ticks mid-run.
fn regimes(seed: u64) -> Vec<(&'static str, Box<dyn CostModel>)> {
    vec![
        ("full-quantum", Box::new(FullQuantum)),
        ("scaled-5/8", Box::new(ScaledCost(Rat::new(5, 8)))),
        (
            "adversarial-1/8",
            Box::new(AdversarialYield::new(
                Rat::new(1, 8),
                60,
                seed ^ 0x0b5e_711e,
            )),
        ),
        (
            "adversarial-1/17",
            Box::new(AdversarialYield::new(
                Rat::new(1, 17),
                60,
                seed ^ 0x0ff9_21d0,
            )),
        ),
    ]
}

fn system_for(seed: u64) -> (TaskSystem, u32) {
    let spec = generate_case(&GenConfig::default(), seed);
    let m = spec.m;
    (Case::build(spec).expect("generated spec builds").sys, m)
}

/// Checks every streaming-vs-post-hoc relation for one finished run.
fn assert_run_agrees(
    ctx: &str,
    sys: &TaskSystem,
    sched: &Schedule,
    mut lag: LagObserver,
    metrics: &MetricsObserver,
    blocking: Option<Vec<BlockingRecord>>,
) {
    let h = sys.horizon();
    lag.finish(h);
    assert_eq!(
        lag.series().len(),
        usize::try_from(h + 1).unwrap(),
        "{ctx}: lag series covers slots 0..={h}"
    );
    for &(t, l) in lag.series() {
        assert_eq!(
            l,
            total_lag(sys, sched, Rat::int(t)),
            "{ctx}: streaming LAG at slot {t}"
        );
    }
    assert_eq!(
        lag.max_lag(),
        max_lag_over_slots(sys, sched, h),
        "{ctx}: streaming max LAG"
    );

    let stats = tardiness_stats(sys, sched);
    assert_eq!(
        metrics.deadline_misses(),
        stats.misses as u64,
        "{ctx}: miss count"
    );
    assert_eq!(
        metrics.total_tardiness(),
        stats.total,
        "{ctx}: total tardiness"
    );
    assert_eq!(metrics.max_tardiness(), stats.max, "{ctx}: max tardiness");
    assert_eq!(
        metrics.worst(),
        stats.worst.map(|st| sys.subtask(st).id),
        "{ctx}: worst subtask"
    );
    let want_hist = tardiness_histogram(sys, sched, DEFAULT_BUCKETS);
    let got_hist: Vec<usize> = metrics.histogram().iter().map(|&c| c as usize).collect();
    assert_eq!(got_hist, want_hist, "{ctx}: tardiness histogram");

    if let Some(records) = blocking {
        let posthoc = detect_blocking(sys, sched, &Pd2);
        assert_eq!(
            records.len(),
            posthoc.len(),
            "{ctx}: inversion count (streaming victims {:?}, post-hoc {:?})",
            records.iter().map(|r| r.victim).collect::<Vec<_>>(),
            posthoc.iter().map(|e| e.victim).collect::<Vec<_>>(),
        );
        for (r, e) in records.iter().zip(&posthoc) {
            assert_eq!(r.victim, e.victim, "{ctx}: inversion victim");
            assert_eq!(r.ready_at, e.ready_at, "{ctx}: ready time");
            assert_eq!(r.scheduled_at, e.scheduled_at, "{ctx}: dispatch time");
            assert!(
                matches!(
                    (r.kind, e.kind),
                    (InversionKind::Eligibility, BlockingKind::Eligibility)
                        | (InversionKind::Predecessor, BlockingKind::Predecessor)
                ),
                "{ctx}: inversion kind {:?} vs {:?}",
                r.kind,
                e.kind
            );
            assert_eq!(r.blockers, e.blockers, "{ctx}: blocker set");
        }
    }
}

/// Regression for the former `Rat` overflow: on the generator's
/// GRID-resolution (720720) cost grid, DVQ lag terms `(t − start)/cost`
/// have near-coprime reduced denominators around `GRID · cost_numerator`,
/// and per-slot sums over a few straddling quanta exceed `i64` — the
/// i64-backed `Rat` panicked here, and the conformance invariant carried a
/// `den ≤ 32` carve-out to dodge it. The i128-backed `Rat` must carry the
/// full comparison exactly, and the sweep must actually visit beyond-i64
/// denominators (else this test guards nothing).
#[test]
fn grid_resolution_lag_agrees_exactly_beyond_i64() {
    let mut saw_beyond_i64 = false;
    for seed in 0..60u64 {
        let (sys, m) = system_for(seed);
        let mut cost = UniformCost::new(Rat::new(1, 4), seed ^ 0x9e37);
        let mut lag = LagObserver::new(&sys);
        let sched = simulate_dvq_observed(&sys, m, &Pd2, &mut cost, &mut lag);
        let h = sys.horizon();
        lag.finish(h);
        for &(t, l) in lag.series() {
            assert_eq!(
                l,
                total_lag(&sys, &sched, Rat::int(t)),
                "seed {seed}: streaming LAG at slot {t}"
            );
            saw_beyond_i64 |= l.den() > i128::from(i64::MAX);
        }
        assert_eq!(
            lag.max_lag(),
            max_lag_over_slots(&sys, &sched, h),
            "seed {seed}: streaming max LAG"
        );
    }
    assert!(
        saw_beyond_i64,
        "sweep never produced a lag denominator beyond i64 — the regression lost its witness"
    );
}

#[test]
fn sfq_streaming_observers_match_posthoc_analysis() {
    for seed in 0..SYSTEMS {
        let (sys, m) = system_for(seed);
        for (regime, mut cost) in regimes(seed) {
            let mut obs = (LagObserver::new(&sys), MetricsObserver::new(m));
            let sched = simulate_sfq_observed(&sys, m, &Pd2, cost.as_mut(), &mut obs);
            let (lag, metrics) = obs;
            let ctx = format!("seed {seed} / sfq / {regime}");
            assert_run_agrees(&ctx, &sys, &sched, lag, &metrics, None);
        }
    }
}

#[test]
fn dvq_streaming_observers_match_posthoc_analysis() {
    for seed in 0..SYSTEMS {
        let (sys, m) = system_for(seed);
        for (regime, mut cost) in regimes(seed ^ 0xd5c0) {
            let mut obs = (
                LagObserver::new(&sys),
                (MetricsObserver::new(m), BlockingObserver::new(&sys, &Pd2)),
            );
            let sched = simulate_dvq_observed(&sys, m, &Pd2, cost.as_mut(), &mut obs);
            let (lag, (metrics, blocking)) = obs;
            let (records, _) = blocking.into_parts();
            let ctx = format!("seed {seed} / dvq / {regime}");
            assert_run_agrees(&ctx, &sys, &sched, lag, &metrics, Some(records));
        }
    }
}

/// Fig. 2's system with hand-set costs: on the 720720 grid (7/8, 5/6) for
/// the first subtasks, then off it (16/17) from the second job of `F` on,
/// with a grid cost (12/13) after that. Every observer starts on ticks and moves to exact
/// rationals mid-run; the streamed values must still equal the post-hoc
/// ones exactly, under both simulators.
#[test]
fn a_run_that_leaves_the_grid_mid_run_agrees_exactly() {
    let sys = release::periodic(&[(1, 6), (1, 6), (1, 6), (1, 2), (1, 2), (1, 2)], 12);
    let m = 2;
    let costs = || {
        FixedCosts::new(Rat::ONE)
            .with(TaskId(0), 1, Rat::new(7, 8))
            .with(TaskId(3), 1, Rat::new(5, 6))
            .with(TaskId(5), 2, Rat::new(16, 17))
            .with(TaskId(4), 4, Rat::new(12, 13))
            .with(TaskId(1), 2, Rat::new(16, 17))
    };
    let mut obs = (
        LagObserver::new(&sys),
        (MetricsObserver::new(m), BlockingObserver::new(&sys, &Pd2)),
    );
    let sched = simulate_dvq_observed(&sys, m, &Pd2, &mut costs(), &mut obs);
    assert!(
        sched
            .placements()
            .iter()
            .any(|p| p.completion().den() % 17 == 0),
        "no quantum of the DVQ run completed off the grid"
    );
    let (lag, (metrics, blocking)) = obs;
    let (records, _) = blocking.into_parts();
    assert_run_agrees("hand-set / dvq", &sys, &sched, lag, &metrics, Some(records));

    let mut obs = (LagObserver::new(&sys), MetricsObserver::new(m));
    let sched = simulate_sfq_observed(&sys, m, &Pd2, &mut costs(), &mut obs);
    let (lag, metrics) = obs;
    assert_run_agrees("hand-set / sfq", &sys, &sched, lag, &metrics, None);
}
