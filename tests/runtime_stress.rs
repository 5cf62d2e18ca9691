//! Stress sweep for the real multi-threaded runtime.
//!
//! Every combination of worker count × jitter regime × seed is executed
//! twice — once in deterministic mode (proof: bit-equality against the
//! single-threaded `OnlineDvq`, plus placement-equality against
//! `pfair::conformance::scan_dvq`, an exact-time comparator scan that
//! shares no code
//! with the DVQ kernel, and against the offline `simulate_dvq`) and
//! once free-running (proof: the recorded event stream replays through
//! `pfair::sim::replay_events` into the conformance bank clean) — and the three planted
//! concurrency mutants must each be caught by the bank, with the
//! *expected* invariant firing first.
//!
//! Failures print the `(workers, regime, seed)` triple; re-run any single
//! seed across the whole sweep with
//! `PFAIR_PROPTEST_SEED=<seed> cargo test --test runtime_stress`.

use std::time::Duration;

use pfair::conformance::{
    check_runtime_run, generate_runtime_case, runtime_bank, runtime_mutants, scan_dvq, RuntimeCase,
};
use pfair::prelude::*;
use proptest::{fnv1a, resolve_seed};

const WORKERS: [u32; 4] = [1, 2, 4, 8];
const REGIMES: [JitterRegime; 3] = [
    JitterRegime::None,
    JitterRegime::Mild,
    JitterRegime::Adversarial,
];
const SEEDS_PER_COMBO: u64 = 50;

/// The sweep's seed list: 50 path-derived seeds, or exactly the one seed
/// pinned by `PFAIR_PROPTEST_SEED` when replaying a failure.
fn sweep_seeds() -> Vec<u64> {
    let base = fnv1a("tests/runtime_stress.rs");
    let pinned = resolve_seed(base);
    if pinned == base {
        (base..base + SEEDS_PER_COMBO).collect()
    } else {
        vec![pinned]
    }
}

fn config(m: u32, regime: JitterRegime, seed: u64, mode: Mode) -> RuntimeConfig {
    let mut cfg = RuntimeConfig::new(m);
    cfg.seed = seed;
    cfg.regime = regime;
    cfg.mode = mode;
    // Small but nonzero: quanta still burn real CPU proportional to their
    // jittered cost, so free-running completions arrive in roughly
    // physical order, without making 1200 runs take minutes.
    cfg.spin = 64;
    cfg
}

/// Deterministic mode against the independent reference: `scan_dvq` on
/// the case's system, each quantum costed by the run's seeded jitter draw,
/// must place every subtask at the same start on the same processor as
/// the run's log. `OnlineDvq` and `simulate_dvq` share the runtime's event
/// loop, so the scan is the check that compares against separate code;
/// `simulate_dvq` must agree too.
fn assert_matches_offline(case: &RuntimeCase, cfg: &RuntimeConfig, run: &RuntimeRun) {
    let mut costs = FixedCosts::new(Rat::ONE);
    for (_, s) in case.sys.iter_refs() {
        costs.set(
            s.id,
            quantum_cost(cfg.seed, cfg.regime, s.id.task, s.id.index),
        );
    }
    let reference = scan_dvq(&case.sys, cfg.m, &Pd2, &mut costs.clone());
    let offline = simulate_dvq(&case.sys, cfg.m, &Pd2, &mut costs);
    let ctx = format!(
        "workers={} regime={:?} seed={}",
        cfg.m, cfg.regime, cfg.seed
    );
    assert_eq!(
        offline.placements(),
        reference.placements(),
        "{ctx}: simulate_dvq differs from the scan reference"
    );
    assert_eq!(
        run.log.len(),
        case.sys.num_subtasks(),
        "{ctx}: log length differs from the reference schedule"
    );
    for a in &run.log {
        let st = case
            .sys
            .find(SubtaskId {
                task: a.task,
                index: a.index,
            })
            .expect("every logged subtask is in the system");
        let want = reference.placement(st);
        assert_eq!(
            (a.start, a.proc),
            (want.start, want.proc),
            "{ctx}: T{}_{} placed differently from the scan reference",
            a.task.0,
            a.index
        );
    }
}

/// The tentpole sweep: 4 worker counts × 3 jitter regimes × 50 seeds,
/// each run executed on real threads in both modes and checked against
/// the full replay bank (deterministic mode additionally proves
/// bit-equality with `OnlineDvq` and placement-equality with
/// `simulate_dvq` — 600 equality checks each, well past the 200-system
/// floor; the 600 free-running runs all replay clean).
#[test]
fn every_sweep_combination_passes_the_replay_bank_in_both_modes() {
    for &m in &WORKERS {
        for &regime in &REGIMES {
            for &seed in &sweep_seeds() {
                let case = generate_runtime_case(seed, m);
                for mode in [Mode::Deterministic, Mode::FreeRunning] {
                    let cfg = config(m, regime, seed, mode);
                    let run = execute(&case.sys, &case.jobs, &cfg);
                    if let Err(f) = check_runtime_run(&case, &cfg, &run) {
                        panic!(
                            "workers={m} regime={regime:?} seed={seed} mode={mode:?}: \
                             {} fired: {}\n\
                             replay with: PFAIR_PROPTEST_SEED={seed} \
                             cargo test --test runtime_stress",
                            f.invariant, f.detail
                        );
                    }
                    if mode == Mode::Deterministic {
                        assert_matches_offline(&case, &cfg, &run);
                    }
                }
            }
        }
    }
}

/// The bank's order is load-bearing for the mutation tests below: cheap
/// stream-level checks come before the replay-heavy ones, and the
/// reference-equality check (the only one that re-runs a scheduler) comes
/// last.
#[test]
fn the_replay_bank_is_ordered_cheap_first() {
    let names: Vec<&str> = runtime_bank().iter().map(|inv| inv.name).collect();
    assert_eq!(
        names,
        [
            "replay-completeness",
            "replay-conservation",
            "replay-structural",
            "replay-tardiness",
            "determinism-equality",
        ]
    );
}

/// Every planted concurrency mutant is caught by the replay bank within
/// the stress sweep, and for each the documented invariant is the one
/// that fires first in bank order — three faults, three *different*
/// invariants, proving the checks are independent.
#[test]
fn each_planted_concurrency_mutant_is_caught_by_its_own_invariant() {
    for mutant in runtime_mutants() {
        let mut fired: Vec<(u64, &'static str)> = Vec::new();
        let mut expected_seed = None;
        for seed in 0..300u64 {
            let m = 2;
            let case = generate_runtime_case(seed, m);
            let mut cfg = config(m, JitterRegime::Mild, seed, mutant.mode);
            cfg.fault = mutant.fault;
            if matches!(mutant.fault, FaultPlan::LostWakeupCombiner) {
                // The run is *supposed* to stall; keep the watchdog short.
                cfg.stall_timeout = Duration::from_millis(200);
            }
            let run = execute(&case.sys, &case.jobs, &cfg);
            if let Err(f) = check_runtime_run(&case, &cfg, &run) {
                fired.push((seed, f.invariant));
                if f.invariant == mutant.expect {
                    expected_seed = Some(seed);
                    break;
                }
            }
        }
        let caught = expected_seed.unwrap_or_else(|| {
            panic!(
                "mutant {}: no seed in 0..300 fired {} (fired: {:?})",
                mutant.name, mutant.expect, fired
            )
        });
        // A mutant may trip *later* invariants on other seeds (a stale
        // key read can push tardiness past the bound before the equality
        // check ever runs), but never an invariant the fault cannot
        // reach: a lost wakeup always truncates (completeness), and a
        // torn batch never changes costs (conservation stays clean).
        for &(seed, invariant) in &fired {
            assert!(
                runtime_bank().iter().any(|inv| inv.name == invariant),
                "mutant {} seed {seed} fired unknown invariant {invariant}",
                mutant.name
            );
        }
        println!(
            "mutant {} caught at seed {caught} by {} ({} firing seed(s) scanned)",
            mutant.name,
            mutant.expect,
            fired.len()
        );
    }
}

/// Deterministic mode is bit-stable across *repeated* runs: thread
/// scheduling varies between executions, but the logical-time barrier
/// makes the recorded artifacts a pure function of the workload.
#[test]
fn deterministic_artifacts_are_bit_stable_across_repeated_runs() {
    for &seed in sweep_seeds().iter().take(8) {
        for &m in &[2, 4] {
            let case = generate_runtime_case(seed, m);
            let cfg = config(m, JitterRegime::Adversarial, seed, Mode::Deterministic);
            let runs: Vec<RuntimeRun> = (0..4)
                .map(|_| execute(&case.sys, &case.jobs, &cfg))
                .collect();
            for run in &runs[1..] {
                assert_eq!(
                    run.log, runs[0].log,
                    "workers={m} seed={seed}: logs diverge across repeated runs"
                );
                assert_eq!(
                    run.events, runs[0].events,
                    "workers={m} seed={seed}: event streams diverge across repeated runs"
                );
            }
        }
    }
}
