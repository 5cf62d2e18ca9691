//! Cross-check: the online schedulers must produce *exactly* the
//! schedules of independent references on identical workloads —
//! `OnlineDvq` against `pfair::conformance::scan_dvq` (an exact-time
//! comparator scan that shares no code with the DVQ kernel) and against `simulate_dvq`
//! (which drives the same kernel), `OnlineSfq` against the SFQ simulator.
//!
//! The online schedulers pop a binary heap of static PD² keys; the scan
//! reference calls the PD² comparator at every pick, so agreement here
//! certifies both the `Pd2Key` encoding and the event-loop semantics.

use std::collections::HashMap;

use pfair::conformance::scan_dvq;
use pfair::obs::RecordingObserver;
use pfair::prelude::*;
use pfair::workload::{random_weights, UniformCost};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Submits each task's job stream and runs the online scheduler with
/// costs drawn from the same per-subtask map as the offline run.
fn run_online(
    weights: &[Weight],
    releases: &[Vec<i64>],
    costs: &HashMap<(u32, u64), Rat>,
    m: u32,
) -> Vec<OnlineAssignment> {
    let mut s = OnlineDvq::new(m);
    for (&w, jobs) in weights.iter().zip(releases) {
        let t = s.add_task(w);
        for &at in jobs {
            s.submit_job(t, at).unwrap();
        }
    }
    s.run_until_idle(&mut |task, index| costs.get(&(task.0, index)).copied().unwrap_or(Rat::ONE))
}

/// Periodic releases: job `j` at `j·p`.
fn periodic_releases(weights: &[Weight], jobs: u64) -> Vec<Vec<i64>> {
    weights
        .iter()
        .map(|w| (0..jobs as i64).map(|j| j * w.p()).collect())
        .collect()
}

/// Builds the offline system whose job `j` of each task is released at
/// `releases[task][j]` (offset `θ = at − j·p`).
fn release_system(weights: &[Weight], releases: &[Vec<i64>]) -> TaskSystem {
    let mut b = TaskSystemBuilder::new();
    for (&w, jobs) in weights.iter().zip(releases) {
        let t = b.add_task(w);
        let e = w.e() as u64;
        for (j, &at) in jobs.iter().enumerate() {
            let theta = at - j as i64 * w.p();
            for i in j as u64 * e + 1..=(j as u64 + 1) * e {
                b.push(t, i, theta, None).unwrap();
            }
        }
    }
    b.build()
}

fn check_equivalence(weights: &[Weight], jobs: u64, m: u32, seed: u64) {
    let releases = periodic_releases(weights, jobs);
    let sys = release_system(weights, &releases);
    // Draw per-subtask costs once, deterministically.
    let mut draw = UniformCost::new(Rat::new(1, 3), seed);
    let mut cost_map: HashMap<(u32, u64), Rat> = HashMap::new();
    for (st, s) in sys.iter_refs() {
        cost_map.insert((s.id.task.0, s.id.index), draw.cost(&sys, st));
    }
    let mut offline_costs = FixedCosts::new(Rat::ONE);
    for (&(task, index), &c) in &cost_map {
        offline_costs.set(
            SubtaskId {
                task: TaskId(task),
                index,
            },
            c,
        );
    }

    let offline = scan_dvq(&sys, m, &Pd2, &mut offline_costs.clone());
    let kernel = simulate_dvq(&sys, m, &Pd2, &mut offline_costs);
    assert_eq!(kernel.placements(), offline.placements(), "seed {seed}");
    let online = run_online(weights, &releases, &cost_map, m);

    assert_eq!(online.len(), sys.num_subtasks(), "assignment counts differ");
    for a in &online {
        let st = sys
            .find(SubtaskId {
                task: a.task,
                index: a.index,
            })
            .expect("subtask exists offline");
        assert_eq!(
            a.start,
            offline.start(st),
            "start of T{}_{} differs (seed {seed})",
            a.task.0,
            a.index
        );
        assert_eq!(
            a.proc,
            offline.placement(st).proc,
            "processor of T{}_{} differs (seed {seed})",
            a.task.0,
            a.index
        );
        assert_eq!(a.deadline, sys.subtask(st).deadline);
    }
}

#[test]
fn online_matches_offline_on_fig2_set() {
    let weights: Vec<Weight> = [(1i64, 6i64), (1, 6), (1, 6), (1, 2), (1, 2), (1, 2)]
        .iter()
        .map(|&(e, p)| Weight::new(e, p))
        .collect();
    for seed in 0..5 {
        check_equivalence(&weights, 2, 2, seed);
    }
}

#[test]
fn online_matches_offline_on_random_systems() {
    for m in [2u32, 3, 4] {
        for seed in 0..6u64 {
            let ws = random_weights(&TaskGenConfig::full(m, 8), 60_000 + seed);
            check_equivalence(&ws, 2, m, seed);
        }
    }
}

/// The sporadic workload's task weights.
fn sporadic_weights() -> [Weight; 5] {
    [
        Weight::new(1, 2),
        Weight::new(2, 3),
        Weight::new(3, 4),
        Weight::new(1, 3),
        Weight::new(1, 4),
    ]
}

/// Five job releases per task: the first in `0..3`, each later one a
/// period plus `0..3` slots of sporadic slack after the last.
fn sporadic_releases(rng: &mut StdRng, weights: &[Weight]) -> Vec<Vec<i64>> {
    weights
        .iter()
        .map(|w| {
            let mut at = rng.gen_range(0..3);
            (0..5)
                .map(|_| {
                    let release = at;
                    at += w.p() + rng.gen_range(0..3i64);
                    release
                })
                .collect()
        })
        .collect()
}

#[test]
fn online_bound_holds_on_sporadic_arrivals() {
    // Sporadic (late) arrivals with early yields: Theorem 3's bound must
    // hold for the online scheduler directly.
    let mut rng = StdRng::seed_from_u64(7);
    let mut s = OnlineDvq::new(3);
    let weights = sporadic_weights();
    let releases = sporadic_releases(&mut rng, &weights);
    for (&w, jobs) in weights.iter().zip(&releases) {
        let t = s.add_task(w);
        for &at in jobs {
            s.submit_job(t, at).unwrap();
        }
    }
    let delta = Rat::new(1, 64);
    let log = s.run_until_idle(&mut |_, _| {
        if rng.gen_bool(0.6) {
            Rat::ONE - delta
        } else {
            Rat::ONE
        }
    });
    let expected: u64 = weights.iter().map(|w| 5 * w.e() as u64).sum();
    assert_eq!(log.len() as u64, expected); // Σ jobs × e per task
    let mut max_tard = Rat::ZERO;
    for a in &log {
        let t = (a.start + a.cost - Rat::int(a.deadline)).max(Rat::ZERO);
        max_tard = max_tard.max(t);
    }
    assert!(max_tard <= Rat::ONE, "online tardiness {max_tard}");
}

fn quantum_starts(events: &[SchedEvent]) -> Vec<SchedEvent> {
    events
        .iter()
        .filter(|ev| matches!(ev, SchedEvent::QuantumStart { .. }))
        .cloned()
        .collect()
}

/// Ticks `OnlineSfq` through the workload until idle and requires the
/// offline PD² SFQ simulator's slot and processor for every subtask, and
/// its `QuantumStart` stream.
fn check_sfq_equivalence(weights: &[Weight], releases: &[Vec<i64>], m: u32) {
    let sys = release_system(weights, releases);
    let offline = simulate_sfq(&sys, m, &Pd2, &mut FullQuantum);
    let mut offline_events = RecordingObserver::new();
    let _ = simulate_sfq_observed(&sys, m, &Pd2, &mut FullQuantum, &mut offline_events);

    let mut s = OnlineSfq::new(m);
    let mut online_events = RecordingObserver::new();
    for (&w, jobs) in weights.iter().zip(releases) {
        let t = s.add_task(w);
        for &at in jobs {
            s.submit_job(t, at).unwrap();
        }
    }
    let mut ticked = 0;
    while !s.is_idle() {
        let slot = s.next_slot();
        for a in s.tick_observed(&mut online_events) {
            let st = sys
                .find(SubtaskId {
                    task: a.task,
                    index: a.index,
                })
                .expect("subtask exists offline");
            let tag = format!("T{}_{} on {m} cpus", a.task.0, a.index);
            assert_eq!(offline.start(st), Rat::int(slot), "slot of {tag}");
            assert_eq!(offline.placement(st).proc, a.proc, "processor of {tag}");
            assert_eq!(a.deadline, sys.subtask(st).deadline);
            ticked += 1;
        }
    }
    assert_eq!(ticked, sys.num_subtasks(), "assignment counts differ");
    assert_eq!(
        quantum_starts(online_events.events()),
        quantum_starts(offline_events.events()),
        "QuantumStart streams differ on {m} cpus"
    );
}

#[test]
fn online_sfq_matches_offline_on_random_systems() {
    for m in [2u32, 3, 4] {
        for seed in 0..6u64 {
            let ws = random_weights(&TaskGenConfig::full(m, 8), 60_000 + seed);
            check_sfq_equivalence(&ws, &periodic_releases(&ws, 2), m);
        }
    }
}

#[test]
fn online_sfq_matches_offline_on_sporadic_arrivals() {
    let weights = sporadic_weights();
    for seed in 0..8 {
        let releases = sporadic_releases(&mut StdRng::seed_from_u64(seed), &weights);
        check_sfq_equivalence(&weights, &releases, 3);
    }
}
