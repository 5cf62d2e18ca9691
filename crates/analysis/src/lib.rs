//! Schedule analysis: everything the paper's theorems quantify.
//!
//! * [`tardiness`] — per-subtask and aggregate tardiness (Eq. (7)); the
//!   measurements behind Theorems 2 and 3.
//! * [`validity`] — structural soundness of a schedule (processor
//!   exclusivity, intra-task sequencing, eligibility) and SFQ window
//!   containment (the classical Pfair validity criterion of §2).
//! * [`classify`] — the `Aligned` / `Olapped` / `Free` partition of DVQ
//!   subtasks (§3.2, Fig. 4) and the `S_B` postponement construction used
//!   to reduce DVQ schedules to the SFQ model.
//! * [`blocking`] — detection of the two DVQ priority inversions
//!   (eligibility blocking, predecessor blocking) in a simulated schedule,
//!   and the per-slot PD^B partition of an SFQ schedule.
//! * [`compliance`] — the k-compliance construction of §3.3 (ranks,
//!   right-shifted systems with selectively restored eligibilities),
//!   letting tests walk Lemma 6's induction empirically.
//! * [`demand`] — demand-bound analysis (interval demand vs `M·len`
//!   supply), a cheap necessary condition companion to the exact oracle.
//! * [`displacement`](mod@displacement) — drift between two schedules of one system (the
//!   quantity the paper's proofs manipulate).
//! * [`lag`] — fluid (processor-sharing) allocation and `LAG`, the
//!   classical Pfair progress measure: per-instant definitions plus a
//!   one-pass per-slot sweep ([`lag_series`]).
//! * [`jobs`] — the job-level view (§1's "each task releases a job every
//!   T.p time units"), with per-job completions and tardiness.
//! * [`lemmas`] — executable checks of the paper's Lemma 1 / Property PB
//!   on simulated DVQ schedules.
//! * [`allocation`] — the slot-allocation matrix `S(T, t)` of Eq. (1) and
//!   its DVQ generalization (fractional slot occupancy).
//! * [`overhead`] — migration counts and simultaneous-quantum-start
//!   contention profiles (the staggered model's motivation, measured).
//! * [`report`] — one-call bundle of every analysis, with `Display`.
//! * [`response`] — response-time statistics (latency from eligibility).
//! * [`schedulability`] — an independent max-flow schedulability oracle
//!   (the executable form of §2's feasibility argument), cross-checking
//!   the simulators.
//! * [`waste`] — busy/idle/wasted-quantum accounting: the §1 motivation
//!   for the DVQ model, measured.
//!
//! # Two-tier time
//!
//! The analyses behind [`schedule_report`] — [`detect_blocking`],
//! [`check_structural`], [`check_window_containment`],
//! [`tardiness_stats`], [`waste_stats`] and [`response_stats`] — each have
//! one body, generic over the arithmetic it runs in. A private grid holds
//! every placement's start, completion, hold and cost as `i64` ticks at
//! the lcm of the schedule's denominators; when that lcm, a tick count,
//! or an eligibility or deadline of the system leaves `i64`, the same body
//! runs on the schedule's exact `Rat`s instead. The tier is chosen from
//! the data, never by the caller, and both are exact: every result is the
//! same `Rat`. On the grid a comparison is one `i64` compare instead of
//! an `i128` cross-multiplication, and a sum is an `i128` add instead of
//! two gcds; results become `Rat` once, at the end. [`schedule_report`]
//! builds the grid once for all six, and counts inversions without
//! listing their blockers.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod allocation;
pub mod blocking;
pub mod classify;
pub mod compliance;
pub mod demand;
pub mod displacement;
mod grid;
pub mod jobs;
pub mod lag;
pub mod lemmas;
pub mod overhead;
pub mod report;
pub mod response;
pub mod schedulability;
pub mod tardiness;
pub mod validity;
pub mod waste;

pub use allocation::{allocation_matrix, slot_occupancy};
pub use blocking::{
    detect_blocking, pdb_ready_sets, pdb_slot_stats, BlockingEvent, BlockingKind, PdbSlotStats,
};
pub use classify::{classify_subtasks, postpone_charged, SubtaskClass};
pub use compliance::{k_compliant_system, ranks};
pub use demand::{dbf, find_overload, OverloadWitness};
pub use displacement::{displacement, displacement_stats, DisplacementStats};
pub use jobs::{all_jobs, jobs_of, Job};
pub use lag::{
    ideal_allocation, lag_series, max_lag_over_slots, received_allocation, task_lag, total_lag,
};
pub use lemmas::{check_lemma1, Lemma1Violation};
pub use overhead::{
    contention_profile, context_switch_stats, migration_stats, peak_simultaneous_starts,
    MigrationStats, SwitchStats,
};
pub use report::{schedule_report, ScheduleReport};
pub use response::{response_stats, subtask_response, ResponseStats};
pub use schedulability::{flow_schedulable, FlowSchedule, WindowMode};
pub use tardiness::{subtask_tardiness, tardiness_histogram, tardiness_stats, TardinessStats};
pub use validity::{check_structural, check_window_containment, ValidityError};
pub use waste::{waste_stats, WasteStats};
