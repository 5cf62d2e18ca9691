//! Shared by the oracle tests: the seeded systems and cost regimes they
//! sweep (the `1 − 1/p` off-grid costs among them), hand-built DVQ
//! placements, and the quadratic priority-inversion predicate every
//! inversion search is checked against.
//! The independent DVQ loop every DVQ driver is checked against is
//! `pfair::conformance::scan_dvq`, which the conformance bank runs too.
//! The identity tests (`dvq_identity`, `stream_identity`) render runs and
//! digest them with the helpers at the end.

// Each test binary compiles this module and uses only part of it.
#![allow(dead_code)]

use std::fmt::Write as _;

use pfair::prelude::*;
use pfair::workload::{random_weights, releasegen};
use proptest::fnv1a;

/// Inversions as `(victim, ready_at, scheduled_at, kind, blockers)` tuples.
pub type Flat = Vec<(SubtaskRef, Time, Time, BlockingKind, Vec<SubtaskRef>)>;

/// The quadratic reference: every placement tested against every waiting
/// subtask.
pub fn quadratic_blocking(sys: &TaskSystem, sched: &Schedule, order: &dyn PriorityOrder) -> Flat {
    let mut events = Vec::new();
    for (st, s) in sys.iter_refs() {
        let eligible = Rat::int(s.eligible);
        let pred_completion = s.pred.map(|p| sched.completion(p));
        let ready_at = match pred_completion {
            Some(pc) => pc.max(eligible),
            None => eligible,
        };
        let scheduled_at = sched.start(st);
        if scheduled_at <= ready_at {
            continue;
        }
        let blockers: Vec<SubtaskRef> = sched
            .placements()
            .iter()
            .filter(|p| {
                p.st != st
                    && p.start < scheduled_at
                    && p.completion() > ready_at
                    && order.precedes(sys, st, p.st)
            })
            .map(|p| p.st)
            .collect();
        if blockers.is_empty() {
            continue;
        }
        let kind = if ready_at == eligible {
            BlockingKind::Eligibility
        } else {
            BlockingKind::Predecessor
        };
        events.push((st, ready_at, scheduled_at, kind, blockers));
    }
    events
}

/// Cost regime `regime` (0–3): full quanta, a fixed 5/8, adversarial
/// yields, and uniform draws at GRID resolution (720720).
pub fn cost_model(regime: u8, seed: u64) -> Box<dyn CostModel> {
    match regime {
        0 => Box::new(FullQuantum),
        1 => Box::new(ScaledCost(Rat::new(5, 8))),
        2 => Box::new(AdversarialYield::new(Rat::new(1, 8), 60, seed ^ 0xb10c)),
        _ => Box::new(UniformCost::new(Rat::new(1, 4), seed ^ 0x720)),
    }
}

/// A seeded system of up to 12 tasks per processor: light or uniform
/// weights, periodic or GIS releases (early releases on even seeds).
pub fn random_system(seed: u64, m: u32, light: bool, gis: bool, horizon: i64) -> TaskSystem {
    let cfg = TaskGenConfig {
        dist: if light {
            WeightDist::Light
        } else {
            WeightDist::Uniform
        },
        ..TaskGenConfig::full(m, 12)
    };
    let ws = random_weights(&cfg, seed);
    let rel = if gis {
        ReleaseConfig {
            early: i64::from(seed.is_multiple_of(2)),
            ..ReleaseConfig::gis(horizon)
        }
    } else {
        ReleaseConfig::periodic(horizon)
    };
    releasegen::generate(&ws, &rel, seed)
}

/// Three distinct primes near 2²²: a schedule using all three as cost
/// denominators has no `i64` tick grid (their product exceeds 2⁶³).
pub const PRIMES: [i64; 3] = [4_194_301, 4_194_287, 4_194_277];

/// Costs `1 − 1/p`, `p` cycling through [`PRIMES`] by subtask, so a DVQ run
/// takes exact times. `OffGrid(true)` bills chain heads half a quantum
/// under a hint of 2 instead: the run starts on ticks and moves to exact
/// times at the first successor it dispatches.
pub struct OffGrid(pub bool);

impl CostModel for OffGrid {
    fn cost(&mut self, sys: &TaskSystem, st: SubtaskRef) -> Rat {
        if self.0 && sys.subtask(st).pred.is_none() {
            return Rat::new(1, 2);
        }
        let p = PRIMES[st.idx() % PRIMES.len()];
        Rat::new(p - 1, p)
    }

    fn denominator_hint(&self) -> Option<i64> {
        self.0.then_some(2)
    }
}

/// A DVQ placement: the processor is held until completion.
pub fn dvq(st: SubtaskRef, proc: u32, start: Rat, cost: Rat) -> Placement {
    Placement {
        st,
        proc,
        start,
        cost,
        holds_until: start + cost,
    }
}

/// Appends the FNV-1a digest of one rendered run to `out`, one per line.
pub fn push_digest(out: &mut String, run: &str) {
    writeln!(out, "{:016x}", fnv1a(run)).unwrap();
}

/// Renders a schedule's placements as `st:proc:start:cost:holds_until;`.
pub fn render_placements(run: &mut String, sched: &Schedule) {
    for p in sched.placements() {
        write!(
            run,
            "{}:{}:{}:{}:{};",
            p.st.0, p.proc, p.start, p.cost, p.holds_until
        )
        .unwrap();
    }
}

/// Renders an event stream: `|`, then every event's `Debug` form.
pub fn render_events(run: &mut String, events: &[SchedEvent]) {
    run.push('|');
    for ev in events {
        write!(run, "{ev:?};").unwrap();
    }
}
