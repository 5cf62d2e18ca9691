//! Pinned outputs of the fixed-quantum engines.
//!
//! SFQ (every policy and affinity), the staggered model, Boundary-Fair and
//! the flow engine each run quanta of a fixed length, so each reports a
//! quantum's end after its start. These digests pin what each of them
//! places and the full event stream it emits, so a change to how the
//! engines record quanta may only make them smaller, never different:
//!
//! * `simulate_sfq_observed` under PD², EPDF, PD, PF and
//!   `ComparatorOnly(&Pd2)`;
//! * `simulate_sfq_with` under PD^B with both tie linearizations, and
//!   under PD² with `AffinityMode::Sticky`;
//! * `simulate_staggered_observed` under PD² and `ComparatorOnly(&Pd2)`;
//! * `simulate_bf_observed` on the boundary-periodic cases, the class BF is
//!   defined on;
//! * `simulate_flow_observed`;
//!
//! each on the first 2 000 default-`GenConfig` fuzz seeds, once with the
//! case's own costs and once with the `1 − 1/p` off-grid costs of
//! `common::OffGrid`.

mod common;

use pfair::conformance::{generate_case, Case, GenConfig};
use pfair::core::pdb::PdbLinearization;
use pfair::obs::RecordingObserver;
use pfair::prelude::*;
use proptest::fnv1a;

use common::{push_digest, render_events, render_placements};

/// Renders one observed run's placements and stream into `out`'s digest
/// list.
fn record(
    out: &mut String,
    run: impl FnOnce(&mut dyn CostModel, &mut RecordingObserver) -> Schedule,
    cost: &mut dyn CostModel,
) {
    let mut rec = RecordingObserver::new();
    let sched = run(cost, &mut rec);
    let mut line = String::new();
    render_placements(&mut line, &sched);
    render_events(&mut line, rec.events());
    push_digest(out, &line);
}

/// Runs `engine` on every pinned fuzz case under both cost regimes (cases
/// `keep` rejects are skipped) and returns the digest of all runs.
fn digest_cases(
    keep: impl Fn(&Case) -> bool,
    engine: impl Fn(&Case, &mut dyn CostModel, &mut RecordingObserver) -> Schedule,
) -> String {
    let mut out = String::new();
    for seed in 0..2_000u64 {
        let case = Case::build(generate_case(&GenConfig::default(), seed)).expect("case builds");
        if !keep(&case) {
            continue;
        }
        record(&mut out, |c, o| engine(&case, c, o), &mut case.cost_model());
        record(
            &mut out,
            |c, o| engine(&case, c, o),
            &mut common::OffGrid(false),
        );
    }
    format!("{:016x}", fnv1a(&out))
}

/// `simulate_sfq_with` on `case` under `policy` and `affinity`.
fn sfq_with(
    case: &Case,
    policy: SfqPolicy<'_>,
    affinity: AffinityMode,
    cost: &mut dyn CostModel,
    obs: &mut RecordingObserver,
) -> Schedule {
    simulate_sfq_with(&case.sys, case.spec.m, policy, affinity, cost, obs)
}

static ONLY: ComparatorOnly<'static> = ComparatorOnly(&Pd2);

#[test]
fn sfq_under_each_order_is_pinned() {
    let orders: [&dyn PriorityOrder; 5] = [&Pd2, &Epdf, &Pd, &Pf, &ONLY];
    let got = orders.map(|order| {
        digest_cases(
            |_| true,
            |case, cost, obs| simulate_sfq_observed(&case.sys, case.spec.m, order, cost, obs),
        )
    });
    assert_eq!(
        got,
        [
            "27b32b377a12b57e",
            "75e315dbd384493f",
            "27b32b377a12b57e",
            "2b3ee5f20c977d34",
            "27b32b377a12b57e"
        ],
        "[PD², EPDF, PD, PF, ComparatorOnly(PD²)]"
    );
}

#[test]
fn sfq_pdb_and_sticky_are_pinned() {
    let pdb = [
        PdbLinearization::MAX_BLOCKING,
        PdbLinearization::MIN_BLOCKING,
    ]
    .map(|lin| {
        digest_cases(
            |_| true,
            |case, cost, obs| {
                sfq_with(
                    case,
                    SfqPolicy::PdB(lin),
                    AffinityMode::ByDecision,
                    cost,
                    obs,
                )
            },
        )
    });
    let sticky = digest_cases(
        |_| true,
        |case, cost, obs| {
            sfq_with(
                case,
                SfqPolicy::Priority(&Pd2),
                AffinityMode::Sticky,
                cost,
                obs,
            )
        },
    );
    assert_eq!(
        [&pdb[0], &pdb[1], &sticky],
        ["93d8473cde757c43", "5a2d99e6e5a9b4ae", "33e3d269179f9557"],
        "[PD^B MAX_BLOCKING, PD^B MIN_BLOCKING, PD² sticky]"
    );
}

#[test]
fn staggered_is_pinned() {
    let orders: [&dyn PriorityOrder; 2] = [&Pd2, &ONLY];
    let got = orders.map(|order| {
        digest_cases(
            |_| true,
            |case, cost, obs| simulate_staggered_observed(&case.sys, case.spec.m, order, cost, obs),
        )
    });
    assert_eq!(
        got,
        ["38c7050c3523a90e", "38c7050c3523a90e"],
        "[PD², ComparatorOnly(PD²)]"
    );
}

#[test]
fn slot_table_engines_are_pinned() {
    let bf = digest_cases(
        |case| is_boundary_periodic(&case.sys),
        |case, cost, obs| simulate_bf_observed(&case.sys, case.spec.m, cost, obs),
    );
    let flow = digest_cases(
        |_| true,
        |case, cost, obs| simulate_flow_observed(&case.sys, case.spec.m, cost, obs),
    );
    assert_eq!(
        [bf, flow],
        ["4da1819a68e668d3", "d86111ee51bf5540"],
        "[BF, flow]"
    );
}
