//! Ablation of PD^B's tie linearization: Table 1 leaves the order between
//! a `DB` subtask and a higher-priority `EB` subtask open during the first
//! `M − p` decisions. The paper's worst case resolves every such tie
//! toward blocking; resolving them benignly (strict PD²) should eliminate
//! the Fig. 2(c) miss entirely — quantifying how much of the one-quantum
//! bound is the *adversary's* doing rather than the partition's.

use pfair::core::pdb::PdbLinearization;
use pfair::prelude::*;
use pfair::workload::{random_weights, releasegen};

/// PD^B-SFQ under the given tie linearization, with full-length quanta.
fn pdb_with(sys: &TaskSystem, m: u32, lin: PdbLinearization) -> Schedule {
    simulate_sfq_with(
        sys,
        m,
        SfqPolicy::PdB(lin),
        AffinityMode::ByDecision,
        &mut FullQuantum,
        &mut NoopObserver,
    )
}

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

#[test]
fn benign_linearization_eliminates_the_fig2_miss() {
    let sys = fig2_system();
    let max_blocking = simulate_sfq_pdb(&sys, 2, &mut FullQuantum);
    let min_blocking = pdb_with(&sys, 2, PdbLinearization::MIN_BLOCKING);
    assert_eq!(tardiness_stats(&sys, &max_blocking).max, Rat::ONE);
    assert_eq!(tardiness_stats(&sys, &min_blocking).max, Rat::ZERO);
}

#[test]
fn both_linearizations_respect_the_bound() {
    for m in [2u32, 4] {
        for seed in 0..12u64 {
            let ws = random_weights(&TaskGenConfig::full(m, 10), 71_500 + seed);
            let sys = releasegen::generate(&ws, &ReleaseConfig::periodic(20), seed);
            for lin in [
                PdbLinearization::MAX_BLOCKING,
                PdbLinearization::MIN_BLOCKING,
            ] {
                let sched = pdb_with(&sys, m, lin);
                let t = tardiness_stats(&sys, &sched).max;
                assert!(t <= Rat::ONE, "m={m} seed={seed} {lin:?}: {t}");
            }
        }
    }
}

#[test]
fn min_blocking_never_tardier_than_max_blocking() {
    for seed in 0..12u64 {
        let ws = random_weights(&TaskGenConfig::full(4, 10), 72_900 + seed);
        let sys = releasegen::generate(&ws, &ReleaseConfig::periodic(20), seed);
        let max_b = tardiness_stats(&sys, &pdb_with(&sys, 4, PdbLinearization::MAX_BLOCKING)).max;
        let min_b = tardiness_stats(&sys, &pdb_with(&sys, 4, PdbLinearization::MIN_BLOCKING)).max;
        assert!(
            min_b <= max_b,
            "seed={seed}: benign {min_b} vs adversarial {max_b}"
        );
    }
}
