//! Pinned outputs of the PD^B, Boundary-Fair and DVQ-eager engine mutants.
//!
//! The planted-bug engines in `pfair::conformance::mutants` are meant to
//! differ from the production engines by exactly one rule. These digests
//! pin what the selection mutants place, together with the reference PD^B
//! engine under both tie linearizations, so a change to how the mutants
//! are built may only make them smaller, never different:
//!
//! * `pdb-eb-before-db` and reference PD^B (`MAX_BLOCKING`, `MIN_BLOCKING`)
//!   on every case;
//! * `bf-optional-by-id` and `bf-mandatory-only` on the boundary-periodic
//!   cases, the class BF is defined on;
//! * `dvq-eager-successor` under PD² on every case (pinned while it was
//!   its own loop, before it became the reference scan's planted-bug
//!   switch);
//!
//! each as placements `(st, proc, start, cost)` under the case's own
//! costs, over the first 2 000 default-`GenConfig` fuzz seeds.

use std::fmt::Write as _;

use pfair::conformance::{generate_case, mutants, Case, GenConfig, Mutant};
use pfair::core::pdb::PdbLinearization;
use pfair::prelude::*;
use pfair::sim::is_boundary_periodic;
use proptest::fnv1a;

/// Renders a schedule's placements as one line of `out`.
fn render(out: &mut String, sched: &Schedule) {
    for p in sched.placements() {
        write!(out, "{}:{}:{}:{};", p.st.0, p.proc, p.start, p.cost).unwrap();
    }
    out.push('\n');
}

/// Reference PD^B under the given tie linearization.
fn reference_pdb(
    sys: &TaskSystem,
    m: u32,
    lin: PdbLinearization,
    cost: &mut dyn CostModel,
) -> Schedule {
    simulate_sfq_with(
        sys,
        m,
        SfqPolicy::PdB(lin),
        AffinityMode::ByDecision,
        cost,
        &mut NoopObserver,
    )
}

fn mutant(roster: &[Mutant], name: &str) -> Mutant {
    *roster
        .iter()
        .find(|m| m.name == name)
        .unwrap_or_else(|| panic!("mutant {name} is planted"))
}

#[test]
fn selection_mutant_placements_are_pinned() {
    let roster = mutants();
    let eb_first = mutant(&roster, "pdb-eb-before-db").engines.pdb;
    let by_id = mutant(&roster, "bf-optional-by-id").engines.bf;
    let mandatory_only = mutant(&roster, "bf-mandatory-only").engines.bf;
    let eager = mutant(&roster, "dvq-eager-successor").engines.dvq;

    let mut runs: [String; 6] = Default::default();
    let mut bf_cases = 0;
    for seed in 0..2_000u64 {
        let case = Case::build(generate_case(&GenConfig::default(), seed)).expect("case builds");
        let (sys, m) = (&case.sys, case.spec.m);
        render(&mut runs[0], &eb_first(sys, m, &mut case.cost_model()));
        render(&mut runs[5], &eager(sys, m, &Pd2, &mut case.cost_model()));
        render(
            &mut runs[1],
            &reference_pdb(
                sys,
                m,
                PdbLinearization::MAX_BLOCKING,
                &mut case.cost_model(),
            ),
        );
        render(
            &mut runs[2],
            &reference_pdb(
                sys,
                m,
                PdbLinearization::MIN_BLOCKING,
                &mut case.cost_model(),
            ),
        );
        if is_boundary_periodic(sys) {
            bf_cases += 1;
            render(&mut runs[3], &by_id(sys, m, &mut case.cost_model()));
            render(
                &mut runs[4],
                &mandatory_only(sys, m, &mut case.cost_model()),
            );
        }
    }
    let got = runs.each_ref().map(|s| format!("{:016x}", fnv1a(s)));
    assert_eq!(bf_cases, 864, "boundary-periodic cases among the seeds");
    assert_eq!(
        got,
        [
            "d577c5e586dd4a4a",
            "53d10a554321fb39",
            "a41800eb826c5507",
            "145ea3679ee2d980",
            "10a2d869c42d6165",
            "0ad3db0372040478"
        ],
        "[pdb-eb-before-db, PD^B MAX_BLOCKING, PD^B MIN_BLOCKING, bf-optional-by-id, bf-mandatory-only, dvq-eager-successor]"
    );
}
