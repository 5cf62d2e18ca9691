//! Workload generation and experiment sweeps.
//!
//! The paper is analytical — there is no testbed to copy. To validate its
//! theorems empirically (experiments E1–E6 of DESIGN.md) we need:
//!
//! * [`taskgen`] — random *feasible* GIS task systems: weight distributions
//!   (uniform / light / heavy / bimodal), exact-utilization filling so the
//!   fully-loaded case `Σ wt = M` (where Pfair has no slack at all) is
//!   exercised, not just approached;
//! * [`releasegen`] — randomized recurrence: per-subtask IS delays, GIS
//!   drops, early releasing, all within the model constraints enforced by
//!   `pfair-taskmodel`;
//! * [`costgen`] — stochastic actual-cost models (`c(T_i) ∈ (0, 1]`):
//!   uniform, bimodal, and the adversarial near-boundary yields (`1 − δ`)
//!   that maximize DVQ blocking;
//! * [`experiment`] — a deterministic, seedable sweep harness that fans
//!   runs out across threads (crossbeam) and aggregates
//!   tardiness/waste/blocking summaries.
//!
//! Everything is reproducible: a seed fully determines a generated system,
//! its costs, and hence the simulated schedule.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod costgen;
pub mod experiment;
pub mod releasegen;
pub mod taskgen;

pub use costgen::{AdversarialYield, BimodalCost, PartialFinalSubtask, UniformCost};
pub use experiment::{run_sweep, ExperimentConfig, ModelKind, RunSummary};
pub use releasegen::{cycle_system, ReleaseConfig, ReleaseKind};
pub use taskgen::{random_weights, TaskGenConfig, WeightDist};
