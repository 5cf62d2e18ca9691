//! E10 (extension): migrations and quantum-start contention — the
//! implementation overheads behind the paper's §3 remark ("preemption and
//! migration costs … can be easily accounted for by inflating task
//! execution costs") and behind the staggered model's existence.
//!
//! Three measurements on the same random workloads:
//!
//! 1. migrations under plain SFQ (decision-order placement) vs SFQ with
//!    *sticky processor affinity* — identical schedules, different
//!    placements;
//! 2. peak simultaneous quantum starts under SFQ vs staggered vs DVQ
//!    (bus-contention proxy — the staggered model's raison d'être);
//! 3. the weight inflation needed to absorb a per-quantum overhead ε, and
//!    the largest sustainable ε (taskmodel::inflation).
//!
//! ```text
//! cargo run --release --example migration_affinity [trials]
//! ```

use pfair::analysis::overhead::{migration_stats, peak_simultaneous_starts};
use pfair::core::Algorithm;
use pfair::prelude::*;
use pfair::taskmodel::inflation::{inflate_set, max_sustainable_overhead};
use pfair::workload::{random_weights, releasegen};

fn main() {
    let trials: u64 = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(20);
    let m = 4;
    println!("E10: migrations, contention, and overhead inflation (M = {m})\n");

    // 1. Migrations: plain vs sticky-affinity SFQ.
    let mut plain_migrations = 0usize;
    let mut sticky_migrations = 0usize;
    let mut pairs = 0usize;
    for seed in 0..trials {
        let ws = random_weights(&TaskGenConfig::full(m, 12), 95_000 + seed);
        let sys = releasegen::generate(&ws, &ReleaseConfig::periodic(24), seed);
        let plain = simulate_sfq(&sys, m, Algorithm::Pd2.order(), &mut FullQuantum);
        let sticky = simulate_sfq_with(
            &sys,
            m,
            SfqPolicy::Priority(Algorithm::Pd2.order()),
            AffinityMode::Sticky,
            &mut FullQuantum,
            &mut NoopObserver,
        );
        // Same schedule, different placement.
        for (st, _) in sys.iter_refs() {
            assert_eq!(plain.start(st), sticky.start(st));
        }
        let mp = migration_stats(&sys, &plain);
        let ms = migration_stats(&sys, &sticky);
        plain_migrations += mp.migrations;
        sticky_migrations += ms.migrations;
        pairs += mp.adjacent_pairs;
    }
    println!(
        "1. migrations over {pairs} adjacent subtask pairs:\n\
         \u{20}  decision-order placement: {plain_migrations} ({:.1}%)\n\
         \u{20}  sticky affinity:          {sticky_migrations} ({:.1}%)\n",
        100.0 * plain_migrations as f64 / pairs as f64,
        100.0 * sticky_migrations as f64 / pairs as f64
    );
    assert!(sticky_migrations <= plain_migrations);

    // 2. Contention: peak simultaneous quantum starts.
    let ws = random_weights(&TaskGenConfig::full(m, 12), 96_000);
    let sys = releasegen::generate(&ws, &ReleaseConfig::periodic(24), 1);
    let mk = || ScaledCost(Rat::new(7, 8));
    let sfq = simulate_sfq(&sys, m, Algorithm::Pd2.order(), &mut mk());
    let stag = simulate_staggered(&sys, m, Algorithm::Pd2.order(), &mut mk());
    let dvq = simulate_dvq(&sys, m, Algorithm::Pd2.order(), &mut mk());
    println!(
        "2. peak simultaneous quantum starts (bus-contention proxy):\n\
         \u{20}  SFQ {}   staggered {}   DVQ {}\n",
        peak_simultaneous_starts(&sfq),
        peak_simultaneous_starts(&stag),
        peak_simultaneous_starts(&dvq)
    );
    assert_eq!(peak_simultaneous_starts(&sfq), m as usize);
    assert!(peak_simultaneous_starts(&stag) < m as usize);

    // 3. Overhead inflation.
    let base: Vec<Weight> = random_weights(
        &TaskGenConfig {
            target_util: Rat::new(3 * i64::from(m), 4),
            max_period: 12,
            dist: WeightDist::Uniform,
            fill_exact: false,
        },
        97_000,
    );
    let util: Rat = base.iter().map(|w| w.as_rat()).sum();
    println!(
        "3. overhead inflation on a util-{util} base set ({} tasks):",
        base.len()
    );
    for eps_den in [20i64, 10, 5] {
        let eps = Rat::new(1, eps_den);
        match inflate_set(&base, eps) {
            Ok(set) => println!(
                "   ε = {eps}: inflated utilization {} (fits on {m}: {})",
                set.utilization,
                set.utilization <= Rat::int(i64::from(m))
            ),
            Err(e) => println!("   ε = {eps}: not representable ({e})"),
        }
    }
    let max_eps = max_sustainable_overhead(&base, m, 100);
    println!("   largest sustainable ε (grid 1/100): {max_eps:?}");
}
