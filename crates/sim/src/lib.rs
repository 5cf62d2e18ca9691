//! Multiprocessor schedule simulators for the three quantum models the
//! paper discusses.
//!
//! * [`sfq`] — the **SFQ model** (synchronized, fixed-size quanta): all
//!   processors make scheduling decisions at integral slot boundaries; a
//!   subtask that yields early leaves the rest of its quantum unused
//!   (non-work-conserving). Drives any [`pfair_core::PriorityOrder`] or the
//!   paper's PD^B procedure.
//! * [`dvq`] — the **DVQ model** (desynchronized, variable-size quanta):
//!   event-driven; a processor whose subtask completes at any rational time
//!   immediately begins a new quantum with the highest-priority *ready*
//!   subtask (work-conserving). This is where the paper's priority
//!   inversions arise. [`simulate_dvq`] is a driver of [`kernel`], the one
//!   DVQ event loop, which `pfair-online`'s schedulers and
//!   `pfair-runtime`'s dispatch core drive too.
//! * [`staggered`] — the staggered model of Holman & Anderson: fixed-size
//!   quanta whose boundaries on processor `k` are offset by `k/M`;
//!   synchronized but not aligned, still non-work-conserving.
//!
//! The two event-driven engines share one ready set (`ready.rs`: a
//! deadline-bucketed key queue for keyed orders, a comparator scan
//! otherwise; online, a PD² key heap). Only the DVQ kernel, the hot path,
//! also runs on [`pfair_numeric::Ticks`] when its driver's scale allows;
//! the staggered loop runs on exact rationals.
//!
//! Two further engine *families* compete with the Pfair variants under the
//! same conformance roof (both slot-based, replayed through the shared
//! exact-time driver in `slotplay`):
//!
//! * [`bf`] — **Boundary-Fair** scheduling (Zhu/Mossé/Melhem, DP-Fair):
//!   allocation decisions only at period boundaries, McNaughton wrap-around
//!   layout in between. Meets every *job* deadline on feasible periodic
//!   systems while making far fewer scheduling decisions than any per-slot
//!   Pfair scheduler — at the price of ignoring Pfair subtask windows.
//! * [`flow`] — **flow-network** scheduling (Cho & Easwaran): per-slot
//!   allocations extracted from a saturating Dinic max flow over the
//!   PF-window network, patched incrementally task by task. Window-valid
//!   and zero-tardiness on feasible systems.
//!
//! Every engine streams its decisions to a `pfair_obs::Observer` as
//! `SchedEvent`s. The DVQ kernel builds its own; SFQ, the staggered loop
//! and the slot-table replay record every quantum through the one
//! recorder of module `emit`, which owns the run's placements, its
//! unannounced quantum ends and the observer.
//!
//! All simulators consume a [`pfair_taskmodel::TaskSystem`] plus a
//! [`cost::CostModel`] assigning each subtask its *actual*
//! execution cost `c(T_i) ∈ (0, 1]`, and produce a [`Schedule`] — the
//! record of every placement, from which `pfair-analysis` computes
//! tardiness, validity, blocking events, and waste.
//!
//! # Determinism
//!
//! Every simulator is deterministic given its inputs: ties inside priority
//! orders are pinned by `(task, index)`, processors are assigned in
//! ascending index order, and simultaneous events are drained in one batch
//! before any assignment. Reproducing the paper's figures depends on this.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod bf;
pub mod cost;
pub mod dvq;
mod emit;
pub mod flow;
pub mod kernel;
mod ready;
pub mod schedule;
pub mod sfq;
mod slotplay;
pub mod staggered;

pub use bf::{bf_boundaries, is_boundary_periodic, simulate_bf, simulate_bf_observed};
pub use cost::{CostModel, ExactOnly, FixedCosts, FullQuantum, ScaledCost};
pub use dvq::{simulate_dvq, simulate_dvq_observed};
pub use emit::replay_events;
pub use flow::{simulate_flow, simulate_flow_observed};
pub use schedule::{Placement, QuantumModel, Schedule};
pub use sfq::{
    simulate_sfq, simulate_sfq_observed, simulate_sfq_pdb, simulate_sfq_with, AffinityMode,
    SfqPolicy,
};
pub use staggered::{simulate_staggered, simulate_staggered_observed};

/// The running example of the paper's Fig. 2, shared by the engines'
/// tests: three tasks of weight 1/6 and three of weight 1/2 over six
/// slots.
#[cfg(test)]
fn fig2_system() -> pfair_taskmodel::TaskSystem {
    pfair_taskmodel::release::periodic_named(
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

/// Subtask `index` of task `task` in `sys`, for the engines' tests.
#[cfg(test)]
fn find(sys: &pfair_taskmodel::TaskSystem, task: u32, index: u64) -> pfair_taskmodel::SubtaskRef {
    let id = pfair_taskmodel::SubtaskId {
        task: pfair_taskmodel::TaskId(task),
        index,
    };
    sys.find(id).expect("the test system releases this subtask")
}
