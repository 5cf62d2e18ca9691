//! # pfair — Desynchronized Pfair Scheduling on Multiprocessors
//!
//! A complete, from-scratch implementation and experimental reproduction of
//! *UmaMaheswari C. Devi and James H. Anderson, "Desynchronized Pfair
//! Scheduling on Multiprocessors" (IPPS 2005)*: Pfair task models, the
//! EPDF/PD²/PF/PD priority algorithms and the paper's PD^B worst-case
//! construction, simulators for the SFQ / DVQ / staggered quantum models,
//! and the analysis and workload machinery that validates the paper's
//! tardiness bounds.
//!
//! ## Sixty-second tour
//!
//! ```
//! use pfair::prelude::*;
//!
//! // The paper's Fig. 2 task set: three weight-1/6 and three weight-1/2
//! // tasks, total utilization 2, on M = 2 processors.
//! let sys = release::periodic_named(
//!     &[("A", 1, 6), ("B", 1, 6), ("C", 1, 6),
//!       ("D", 1, 2), ("E", 1, 2), ("F", 1, 2)],
//!     6,
//! );
//! assert!(sys.is_feasible(2));
//!
//! // Under the classical SFQ model, PD² is optimal: zero tardiness.
//! let sfq = simulate_sfq(&sys, 2, &Pd2, &mut FullQuantum);
//! assert_eq!(tardiness_stats(&sys, &sfq).max, Rat::ZERO);
//!
//! // Under the DVQ model, let A_1 and F_1 yield δ early: the resulting
//! // priority inversion makes F_2 miss its deadline — but by less than
//! // one quantum (Theorem 3).
//! let delta = Rat::new(1, 4);
//! let mut costs = FixedCosts::new(Rat::ONE)
//!     .with(TaskId(0), 1, Rat::ONE - delta)
//!     .with(TaskId(5), 1, Rat::ONE - delta);
//! let dvq = simulate_dvq(&sys, 2, &Pd2, &mut costs);
//! let stats = tardiness_stats(&sys, &dvq);
//! assert!(stats.max.is_positive() && stats.max < Rat::ONE);
//! ```
//!
//! ## Crate map
//!
//! | Crate | Contents |
//! |---|---|
//! | [`numeric`] | exact rationals, time |
//! | [`taskmodel`] | periodic/IS/GIS tasks, windows, b-bits, group deadlines |
//! | [`core`] | EPDF, PD², PF, PD, PD^B priorities |
//! | [`sim`] | SFQ / DVQ / staggered simulators, cost models |
//! | [`obs`] | streaming observers: metrics, exact lag, blocking, JSONL export |
//! | [`analysis`] | tardiness, validity, lag, blocking, waste |
//! | [`workload`] | random task systems, stochastic costs, sweep harness |
//! | [`trace`] | ASCII Gantt / window diagrams, JSON export |
//! | [`online`] | online heap-based PD² scheduler (sporadic arrivals) |
//! | [`runtime`] | real multi-threaded execution: delegation-lock dispatch, replay-proven |
//! | [`conformance`] | differential fuzzing: invariant bank, campaigns, shrinking |

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use pfair_analysis as analysis;
pub use pfair_conformance as conformance;
pub use pfair_core as core;
pub use pfair_numeric as numeric;
pub use pfair_obs as obs;
pub use pfair_online as online;
pub use pfair_runtime as runtime;
pub use pfair_sim as sim;
pub use pfair_taskmodel as taskmodel;
pub use pfair_trace as trace;
pub use pfair_workload as workload;

// pfair-lint: allow(dead-pub): the guided tour is consumed as rendered docs and doctests, never referenced by path.
pub mod paper;

/// The most common imports, re-exported flat.
pub mod prelude {
    pub use pfair_analysis::{
        all_jobs, check_structural, check_window_containment, classify_subtasks,
        context_switch_stats, dbf, detect_blocking, find_overload, jobs_of, k_compliant_system,
        migration_stats, pdb_slot_stats, postpone_charged, ranks, schedule_report,
        subtask_tardiness, tardiness_stats, waste_stats, BlockingKind, PdbSlotStats, SubtaskClass,
        SwitchStats, TardinessStats, WasteStats,
    };
    pub use pfair_core::{
        pdb, Algorithm, ComparatorOnly, Epdf, EpdfKey, KeyCache, KeyDispatch, Pd, Pd2, PdKey, Pf,
        PriorityOrder, SubtaskKey,
    };
    pub use pfair_numeric::{QuantumScale, Rat, Time};
    pub use pfair_obs::{
        BlockingObserver, BlockingRecord, InversionKind, JsonlObserver, LagObserver,
        MetricsObserver, NoopObserver, Observer, ReadyCause, SchedEvent,
    };
    pub use pfair_online::{
        OnlineAssignment, OnlineDvq, OnlineError, OnlineSfq, Pd2Key, TickAssignment,
    };
    pub use pfair_runtime::{
        execute, quantum_cost, DispatchCore, FaultPlan, JitterRegime, Mode, RuntimeConfig,
        RuntimeRun,
    };
    pub use pfair_sim::{
        is_boundary_periodic, simulate_bf, simulate_bf_observed, simulate_dvq,
        simulate_dvq_observed, simulate_flow, simulate_flow_observed, simulate_sfq,
        simulate_sfq_observed, simulate_sfq_pdb, simulate_sfq_with, simulate_staggered,
        simulate_staggered_observed, AffinityMode, CostModel, ExactOnly, FixedCosts, FullQuantum,
        Placement, QuantumModel, ScaledCost, Schedule, SfqPolicy,
    };
    pub use pfair_taskmodel::{
        release, ModelError, Subtask, SubtaskId, SubtaskRef, Task, TaskId, TaskSystem,
        TaskSystemBuilder, Weight,
    };
    pub use pfair_trace::{
        render_gantt, render_svg, render_windows, trace_bundle, GanttOptions, SvgOptions,
        TraceBundle,
    };
    pub use pfair_workload::{
        run_sweep, AdversarialYield, BimodalCost, ExperimentConfig, ModelKind, PartialFinalSubtask,
        ReleaseConfig, ReleaseKind, RunSummary, TaskGenConfig, UniformCost, WeightDist,
    };
}
