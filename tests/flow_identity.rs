//! Pinned outputs of the two max-flow users.
//!
//! The flow-network engine (`simulate_flow`) and the schedulability oracle
//! (`flow_schedulable`) both read their answer off `pfair-maxflow`'s Dinic
//! solve. Which of several maximum flows Dinic returns depends on the order
//! it scans arcs in, so a change to the kernel's data layout can move a
//! placement or a witness without breaking any validity law. These digests
//! pin the exact outputs, so the kernel may only get faster, never
//! different:
//!
//! * `simulate_flow` placements `(st, proc, start, cost)` under the case's
//!   own costs;
//! * the oracle's verdict and witness `(st, slot)` in both window modes;
//!
//! over the first 2 000 default-`GenConfig` fuzz seeds and over the three
//! periodic systems of the oracle bench (O1).

use std::fmt::Write as _;

use pfair::analysis::schedulability::{flow_schedulable, WindowMode};
use pfair::conformance::{generate_case, Case, GenConfig};
use pfair::prelude::*;
use pfair::sim::simulate_flow;
use pfair::workload::{random_weights, releasegen};
use proptest::fnv1a;

/// Renders the engine's placements on `sys`.
fn flow_placements(out: &mut String, sys: &TaskSystem, m: u32, cost: &mut dyn CostModel) {
    let sched = simulate_flow(sys, m, cost);
    for p in sched.placements() {
        write!(out, "{}:{}:{}:{};", p.st.0, p.proc, p.start, p.cost).unwrap();
    }
    out.push('\n');
}

/// Renders the oracle's verdict and witness on `sys`.
fn oracle_answer(out: &mut String, sys: &TaskSystem, m: u32, mode: WindowMode) {
    let fs = flow_schedulable(sys, m, mode);
    write!(out, "{}|", fs.schedulable).unwrap();
    for (st, t) in &fs.assignment {
        write!(out, "{}@{t};", st.0).unwrap();
    }
    out.push('\n');
}

/// Digests `(engine placements, PF-window oracle, IS-window oracle)`.
#[derive(Default)]
struct Digests {
    flow: String,
    pf: String,
    is: String,
}

impl Digests {
    fn record(&mut self, sys: &TaskSystem, m: u32, cost: &mut dyn CostModel) {
        flow_placements(&mut self.flow, sys, m, cost);
        oracle_answer(&mut self.pf, sys, m, WindowMode::PfWindow);
        oracle_answer(&mut self.is, sys, m, WindowMode::IsWindow);
    }

    /// Asserts the three digests, in field order.
    fn assert_pinned(&self, pinned: [&str; 3]) {
        let got = [&self.flow, &self.pf, &self.is].map(|s| format!("{:016x}", fnv1a(s)));
        assert_eq!(
            got, pinned,
            "[simulate_flow, oracle PF-window, oracle IS-window]"
        );
    }
}

#[test]
fn fuzz_case_flow_outputs_are_pinned() {
    let mut d = Digests::default();
    for seed in 0..2_000u64 {
        let case = Case::build(generate_case(&GenConfig::default(), seed)).expect("case builds");
        // The engine asserts saturation; the generator targets U ≤ m.
        assert!(case.is_feasible(), "seed {seed}: infeasible case");
        d.record(&case.sys, case.spec.m, &mut case.cost_model());
    }
    d.assert_pinned(["449b883a465963cb", "ae5bc9755960fd99", "2584713608ff8877"]);
}

#[test]
fn oracle_bench_system_flow_outputs_are_pinned() {
    let mut d = Digests::default();
    for (m, horizon) in [(2u32, 16i64), (4, 24), (8, 32)] {
        let ws = random_weights(&TaskGenConfig::full(m, 10), 7_700 + u64::from(m));
        let sys = releasegen::generate(&ws, &ReleaseConfig::periodic(horizon), 7);
        d.record(&sys, m, &mut FullQuantum);
    }
    // Periodic releases without early release: both window modes coincide.
    d.assert_pinned(["af7c1e06ba28c43f", "54c8699e96f0e0e7", "54c8699e96f0e0e7"]);
}
