//! The engine set a campaign exercises.
//!
//! An [`Engines`] value bundles the priority orders and simulator entry
//! points the invariant bank calls. The default, [`REFERENCE`], is the
//! production PD² stack; mutation tests substitute deliberately broken
//! components to prove the bank detects them.
//!
//! The bank shares each plain engine's schedule between invariants
//! ([`crate::invariant::Runs`]), and every streamed observer of one
//! simulator shape rides a single [`Engines::stream_probe`] run.

use pfair_core::priority::PriorityOrder;
use pfair_core::Pd2;
use pfair_numeric::Rat;
use pfair_obs::{BlockingObserver, BlockingRecord, LagObserver, MetricsObserver};
use pfair_sim::{
    simulate_bf, simulate_dvq, simulate_dvq_observed, simulate_flow, simulate_sfq,
    simulate_sfq_observed, simulate_sfq_pdb, simulate_staggered, CostModel, Schedule,
};
use pfair_taskmodel::TaskSystem;

/// A priority-ordered simulator entry point (SFQ / DVQ / staggered shape).
pub type SimFn = fn(&TaskSystem, u32, &dyn PriorityOrder, &mut dyn CostModel) -> Schedule;

/// A PD^B simulator entry point (the selection procedure is built in).
pub type PdbFn = fn(&TaskSystem, u32, &mut dyn CostModel) -> Schedule;

/// Which simulator shape a stream probe drives.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ProbeSim {
    /// Synchronized fixed quanta.
    Sfq,
    /// Desynchronized variable quanta.
    Dvq,
}

/// What one observed run streamed, next to the schedule it produced.
#[derive(Clone, Debug)]
pub struct Streamed {
    /// The observed run's schedule.
    pub sched: Schedule,
    /// Streamed priority inversions, sorted by victim (DVQ probes only;
    /// empty for SFQ).
    pub blocking: Vec<BlockingRecord>,
    /// Streamed per-slot series `(t, LAG(τ, t))` through the system
    /// horizon.
    pub lag: Vec<(i64, Rat)>,
    /// The streamed maximum of [`Self::lag`].
    pub max_lag: Rat,
    /// Streamed run metrics (tardiness tallies and histogram).
    pub metrics: MetricsObserver,
}

/// An observed run with the streaming observers attached.
pub type StreamProbeFn =
    fn(&TaskSystem, u32, &dyn PriorityOrder, &mut dyn CostModel, ProbeSim) -> Streamed;

/// The engines and priority orders one campaign checks against each other.
#[derive(Clone, Copy, Debug)]
pub struct Engines {
    /// Name shown in violation reports (`"reference"` or a mutant name).
    pub name: &'static str,
    /// Order driving the keyed-heap dispatch path.
    pub keyed_order: &'static dyn PriorityOrder,
    /// Order driving the comparator-scan dispatch path (wrapped in
    /// [`pfair_core::priority::ComparatorOnly`] by the invariants) and the
    /// DVQ reference scan ([`crate::reference::scan_dvq`]).
    pub comparator_order: &'static dyn PriorityOrder,
    /// Order used for SFQ runs whose tardiness the theorems bound.
    pub sfq_order: &'static dyn PriorityOrder,
    /// SFQ simulator.
    pub sfq: SimFn,
    /// DVQ simulator.
    pub dvq: SimFn,
    /// Staggered-quantum simulator.
    pub staggered: SimFn,
    /// SFQ/PD^B simulator.
    pub pdb: PdbFn,
    /// Boundary-Fair simulator (invariants call it only on synchronous
    /// periodic cases — the class BF is defined on).
    pub bf: PdbFn,
    /// Flow-network simulator.
    pub flow: PdbFn,
    /// Observed run with the streaming observers attached.
    pub stream_probe: StreamProbeFn,
}

/// The production stream probe: the real observed drivers with a
/// [`LagObserver`] (finished through the system horizon) and a
/// [`MetricsObserver`] listening, plus a [`BlockingObserver`] on DVQ. The
/// observers sit side by side in one tuple, so the `Blocked` events the
/// blocking detector synthesizes never reach the other two.
fn observed_probe(
    sys: &TaskSystem,
    m: u32,
    order: &dyn PriorityOrder,
    cost: &mut dyn CostModel,
    sim: ProbeSim,
) -> Streamed {
    let mut lag = LagObserver::new(sys);
    let mut metrics = MetricsObserver::new(m);
    let (sched, blocking) = match sim {
        ProbeSim::Sfq => {
            let obs = &mut (&mut lag, &mut metrics);
            (simulate_sfq_observed(sys, m, order, cost, obs), Vec::new())
        }
        ProbeSim::Dvq => {
            let mut obs = (BlockingObserver::new(sys, order), (&mut lag, &mut metrics));
            let sched = simulate_dvq_observed(sys, m, order, cost, &mut obs);
            (sched, obs.0.into_parts().0)
        }
    };
    lag.finish(sys.horizon());
    Streamed {
        sched,
        blocking,
        max_lag: lag.max_lag(),
        lag: lag.series().to_vec(),
        metrics,
    }
}

/// The production engine set: PD² everywhere, the real simulators.
pub const REFERENCE: Engines = Engines {
    name: "reference",
    keyed_order: &Pd2,
    comparator_order: &Pd2,
    sfq_order: &Pd2,
    sfq: simulate_sfq,
    dvq: simulate_dvq,
    staggered: simulate_staggered,
    pdb: simulate_sfq_pdb,
    bf: simulate_bf,
    flow: simulate_flow,
    stream_probe: observed_probe,
};
