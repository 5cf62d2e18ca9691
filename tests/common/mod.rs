//! Shared by the oracle tests: the seeded systems and cost regimes they
//! sweep, the quadratic priority-inversion predicate every inversion
//! search is checked against, and the exact-time comparator-scan DVQ loop
//! every DVQ driver is checked against.

// Each test binary compiles this module and uses only part of it.
#![allow(dead_code)]

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use pfair::prelude::*;
use pfair::workload::{random_weights, releasegen};

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

/// The DVQ reference: a plain event loop on exact [`Rat`] times that scans
/// the ready subtasks with `order`'s comparator at every pick. It shares
/// no code with the library's DVQ kernel. Every processor frees at time 0
/// and every chain head becomes ready at its eligibility; all events at an
/// instant are drained (frees first, ascending) before free processors,
/// lowest index first, go to ready subtasks in priority order. A subtask
/// placed at `τ` with cost `c` frees its processor at `τ + c` and readies
/// its successor at `max(e, τ + c)`.
pub fn scan_dvq(
    sys: &TaskSystem,
    m: u32,
    order: &dyn PriorityOrder,
    cost: &mut dyn CostModel,
) -> Schedule {
    // `(instant, 0 = processor frees | 1 = subtask becomes ready, id)`.
    let mut events: BinaryHeap<Reverse<(Rat, u8, u32)>> = BinaryHeap::new();
    for proc in 0..m {
        events.push(Reverse((Rat::ZERO, 0, proc)));
    }
    for t in sys.tasks() {
        if let Some(head) = sys.task_subtask_refs(t.id).next() {
            events.push(Reverse((Rat::int(sys.subtask(head).eligible), 1, head.0)));
        }
    }
    let (mut free, mut ready, mut placements) = (Vec::new(), Vec::new(), Vec::new());
    while placements.len() < sys.num_subtasks() {
        let Reverse((now, _, _)) = *events.peek().expect("unplaced subtasks have an event");
        while let Some(&Reverse((t, kind, id))) = events.peek() {
            if t != now {
                break;
            }
            events.pop();
            if kind == 0 {
                free.push(id);
            } else {
                ready.push(SubtaskRef(id));
            }
        }
        free.sort_unstable_by(|a, b| b.cmp(a)); // `pop` serves the lowest index
        while !free.is_empty() && !ready.is_empty() {
            let best = (0..ready.len())
                .min_by(|&a, &b| order.cmp(sys, ready[a], ready[b]))
                .expect("ready is nonempty");
            let st = ready.swap_remove(best);
            let c = cost.cost(sys, st);
            let proc = free.pop().expect("free is nonempty");
            placements.push(Placement {
                st,
                proc,
                start: now,
                cost: c,
                holds_until: now + c,
            });
            events.push(Reverse((now + c, 0, proc)));
            if let Some(succ) = sys.subtask(st).succ {
                let at = Rat::int(sys.subtask(succ).eligible).max(now + c);
                events.push(Reverse((at, 1, succ.0)));
            }
        }
    }
    Schedule::new(sys, QuantumModel::Dvq, m, placements)
}
