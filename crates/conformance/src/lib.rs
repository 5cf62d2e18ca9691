//! Differential conformance fuzzing for the Pfair engines.
//!
//! The paper's claims are *relational*: PD²-DVQ versus PD^B versus
//! right-shifted PD²-SFQ, keyed-heap versus comparator dispatch, online
//! versus offline scheduling — and the maxflow schedulability oracle
//! shares no code with any simulator. This crate turns those relations
//! into a standing correctness backstop:
//!
//! * [`invariant`] — an [`Invariant`] bank drawn
//!   from the theorems: schedule validity, the Theorem 2 and Theorem 3
//!   tardiness bounds, PD²-SFQ optimality, allocation conservation,
//!   maxflow-oracle agreement, keyed-vs-comparator equality,
//!   online/offline equivalence, PD^B Table-1 conformance, hyperperiod
//!   periodicity — plus the competing-family laws: Boundary-Fair
//!   boundary conservation (an independent re-derivation of the BF
//!   allocation rules), flow-solution validity (window containment,
//!   capacity, precedence), and Cucu-Grosjean predictability of the
//!   cost-independent slot engines (SFQ, BF, flow — deliberately *not*
//!   DVQ, whose anomalies are real; see EXPERIMENTS.md).
//! * [`gen`] — a seeded case generator: one `u64` deterministically picks
//!   the processor count, weight distribution, utilization, release model
//!   and actual-cost model, materialized into a serializable
//!   [`CaseSpec`].
//! * [`campaign`] — a threaded campaign runner reusing the
//!   `experiment::run_sweep` seeding discipline (`base_seed + trial`),
//!   so results are independent of the thread count.
//! * [`mod@shrink`] — a greedy delta-debugging shrinker reducing any failing
//!   case to a minimal replayable repro (drop tasks → erase offsets /
//!   early releases / index gaps → truncate chains → simplify yields →
//!   reduce processors).
//! * [`mod@reference`] — the DVQ reference scan, the one DVQ event loop that
//!   shares no code with the simulators' DVQ kernel.
//! * [`mod@mutants`] — planted-bug engine sets that the mutation test suite
//!   uses to prove the harness actually fires.
//! * [`mod@runtime`] — a replay bank for real multi-threaded
//!   `pfair-runtime` executions: the recorded event stream is replayed
//!   through `pfair_sim::replay_events` and checked for completeness, conservation,
//!   structural validity, the Theorem 3 bound, and (in deterministic
//!   mode) bit-equality against `OnlineDvq` — plus planted concurrency
//!   mutants, each caught by a different invariant.
//!
//! The `pfairsim fuzz` CLI subcommand and the CI smoke job are thin
//! wrappers over [`campaign::run_campaign`].

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod campaign;
pub mod case;
pub mod engines;
pub mod gen;
pub mod invariant;
pub mod mutants;
pub mod reference;
pub mod runtime;
pub mod shrink;

pub use campaign::{check_seed, run_campaign, CampaignConfig, CampaignOutcome, Violation};
pub use case::{Case, CaseSpec, CostOverride, SubtaskSpec, TaskSpec};
pub use engines::{Engines, REFERENCE};
pub use gen::{generate_case, GenConfig};
pub use invariant::{bank, check_case, check_one, Failure, Invariant, Run, Runs};
pub use mutants::{mutants, runtime_mutants, Mutant, RuntimeMutant};
pub use reference::scan_dvq;
pub use runtime::{
    check_runtime_run, generate_runtime_case, run_and_check, runtime_bank, RuntimeCase,
    RuntimeInvariant,
};
pub use shrink::shrink;
