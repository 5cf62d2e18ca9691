//! **Online** PD² schedulers for the DVQ and SFQ models.
//!
//! The simulators in `pfair-sim` consume a fully pre-generated
//! [`pfair_taskmodel::TaskSystem`] — the right shape for reproducing the
//! paper's figures and sweeps. A deployment, however, sees its workload
//! *online*: sporadic jobs arrive at runtime, the scheduler must decide
//! "what runs now" in sub-linear time, and nothing about the future is
//! known. This crate provides that embedding:
//!
//! * [`Pd2Key`] — PD² priority as a *static, totally ordered key*
//!   (deadline, b-bit, conditional group deadline, weight, identity),
//!   re-exported from `pfair-core`, where it is proven equivalent to the
//!   comparator, so a ready queue can be a binary heap with `O(log n)`
//!   dispatch instead of an `O(n)` scan;
//! * two drivers of `pfair_sim::kernel::DvqKernel`, the one DVQ event
//!   loop ("a new quantum begins immediately" when a subtask yields),
//!   over its PD² key heap:
//!   * [`scheduler::OnlineDvq`] — sporadic job submissions and a
//!     caller-supplied cost source, run to a horizon or until idle;
//!   * [`tick::OnlineSfq`] — the SFQ counterpart as a kernel would host
//!     it: a `tick()` per slot boundary steps the loop with every quantum
//!     at full length (where DVQ and SFQ decide alike) and returns the
//!     ≤ M subtasks to run.
//!
//!   `pfair_sim::simulate_dvq` and `pfair_runtime::DispatchCore` drive
//!   the same kernel.
//!
//! Both schedulers also come in `*_observed` variants that stream
//! [`pfair_obs::SchedEvent`]s to a [`pfair_obs::Observer`] — see
//! [`OnlineDvq::run_until_observed`] and [`OnlineSfq::tick_observed`]. The
//! unobserved entry points delegate with [`pfair_obs::NoopObserver`] and
//! compile to the same code.
//!
//! The headline guarantee carries over unchanged: as long as the submitted
//! workload is feasible (`Σ wt ≤ M`, job separations ≥ periods), every
//! subtask completes within one quantum of its Pfair pseudo-deadline
//! (Theorem 3) — asserted in this crate's tests and cross-checked against
//! the offline simulator on identical workloads.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod scheduler;
pub mod tick;

pub use pfair_core::key::Pd2Key;
pub use pfair_sim::kernel::{OnlineAssignment, OnlineError};
pub use scheduler::OnlineDvq;
pub use tick::{OnlineSfq, TickAssignment};
