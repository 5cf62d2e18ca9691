//! Actual execution-cost models (`c(T_i) ∈ (0, 1]`).
//!
//! Pfair budgets every subtask a full quantum, but WCET estimates are
//! pessimistic: "many task invocations will execute for less than their
//! WCETs" (§1). A [`CostModel`] supplies the *actual* cost of each subtask;
//! the SFQ simulator wastes `1 − c` at the end of each quantum while the
//! DVQ simulator reclaims it — the behavioural gap the paper studies.
//!
//! Deterministic models live here (the figure reproductions need exact
//! per-subtask yields like `1 − δ`); randomized models (uniform, bimodal)
//! live in `pfair-workload`, keeping this crate free of RNG dependencies.

use std::collections::BTreeMap;

use pfair_numeric::{checked_lcm, Rat};
use pfair_taskmodel::{SubtaskId, SubtaskRef, TaskSystem};

/// Supplies the actual execution cost `c(T_i) ∈ (0, 1]` of each subtask.
///
/// `&mut self` so stochastic implementations can carry RNG state. The
/// simulators funnel every cost through [`checked_cost`], so a model that
/// emits a value outside `(0, 1]` panics at the point of use.
pub trait CostModel {
    /// The actual cost of `st`.
    fn cost(&mut self, sys: &TaskSystem, st: SubtaskRef) -> Rat;

    /// A `d > 0` such that every cost this model will ever produce has a
    /// reduced denominator dividing `d` — or `None` when no such bound is
    /// known (the default).
    ///
    /// Purely **advisory**: the DVQ simulator takes it up front as the
    /// scale of its [`pfair_numeric::Ticks`] fast path, but still checks
    /// every drawn cost against the scale at dispatch time and migrates the
    /// run to exact [`Rat`] arithmetic on the first mismatch. A wrong hint
    /// therefore costs performance, never correctness — and `None` simply
    /// keeps the whole run on the exact path.
    fn denominator_hint(&self) -> Option<i64> {
        None
    }
}

/// Validates a cost: panics unless `0 < c ≤ 1`.
#[must_use]
pub fn checked_cost(c: Rat, st: SubtaskRef) -> Rat {
    assert!(
        c.is_positive() && c <= Rat::ONE,
        "cost model produced c = {c} for {st:?}; must satisfy 0 < c <= 1"
    );
    c
}

/// Every subtask uses its full quantum (`c = 1`). Under this model SFQ and
/// DVQ coincide and PD² misses nothing (the classical optimality setting).
#[derive(Clone, Copy, Debug, Default)]
pub struct FullQuantum;

impl CostModel for FullQuantum {
    fn cost(&mut self, _sys: &TaskSystem, _st: SubtaskRef) -> Rat {
        Rat::ONE
    }

    fn denominator_hint(&self) -> Option<i64> {
        Some(1)
    }
}

/// Explicit per-subtask costs with a default — the model behind the
/// paper's worked examples ("subtasks `A_1` and `F_1` … execute for an
/// interval `1 − δ` only").
///
/// ```
/// use pfair_numeric::Rat;
/// use pfair_sim::FixedCosts;
/// use pfair_taskmodel::{SubtaskId, TaskId};
/// let delta = Rat::new(1, 4);
/// let costs = FixedCosts::new(Rat::ONE)
///     .with(TaskId(0), 1, Rat::ONE - delta)   // A_1 yields δ early
///     .with(TaskId(5), 1, Rat::ONE - delta);  // F_1 yields δ early
/// ```
#[derive(Clone, Debug)]
pub struct FixedCosts {
    default: Rat,
    map: BTreeMap<SubtaskId, Rat>,
}

impl FixedCosts {
    /// A model where every unlisted subtask costs `default`.
    #[must_use]
    pub fn new(default: Rat) -> FixedCosts {
        FixedCosts {
            default,
            map: BTreeMap::new(),
        }
    }

    /// Sets the cost of `T_index` of `task` (builder style).
    #[must_use]
    pub fn with(mut self, task: pfair_taskmodel::TaskId, index: u64, cost: Rat) -> FixedCosts {
        self.map.insert(SubtaskId { task, index }, cost);
        self
    }

    /// Sets the cost of a subtask by id.
    pub fn set(&mut self, id: SubtaskId, cost: Rat) {
        self.map.insert(id, cost);
    }
}

impl CostModel for FixedCosts {
    fn cost(&mut self, sys: &TaskSystem, st: SubtaskRef) -> Rat {
        let id = sys.subtask(st).id;
        self.map.get(&id).copied().unwrap_or(self.default)
    }

    fn denominator_hint(&self) -> Option<i64> {
        // lcm over the default's and every override's denominator; `None`
        // if any denominator exceeds i64 or the lcm overflows.
        let mut d = i64::try_from(self.default.den()).ok()?;
        for c in self.map.values() {
            d = checked_lcm(d, i64::try_from(c.den()).ok()?)?;
        }
        Some(d)
    }
}

/// Every subtask costs the same fixed fraction of a quantum — the simplest
/// "mean early yield" model, used by the waste/reclamation experiment
/// (E5) for its deterministic sweeps.
#[derive(Clone, Copy, Debug)]
pub struct ScaledCost(pub Rat);

impl CostModel for ScaledCost {
    fn cost(&mut self, _sys: &TaskSystem, _st: SubtaskRef) -> Rat {
        self.0
    }

    fn denominator_hint(&self) -> Option<i64> {
        i64::try_from(self.0.den()).ok()
    }
}

/// Forces the exact-`Rat` event loop for any inner model by withholding
/// its denominator hint — the cost-model analogue of
/// `ComparatorOnly` on the priority side. The equivalence tests wrap a
/// model in this to run the identical workload down both time domains and
/// diff the schedules; it has no other behavioural effect.
pub struct ExactOnly<'a>(pub &'a mut dyn CostModel);

impl CostModel for ExactOnly<'_> {
    fn cost(&mut self, sys: &TaskSystem, st: SubtaskRef) -> Rat {
        self.0.cost(sys, st)
    }

    // Deliberately inherits the default `None` hint: no scale, no fast
    // path, every event time an exact `Rat`.
}

#[cfg(test)]
mod tests {
    use super::*;
    use pfair_taskmodel::{release, TaskId};

    #[test]
    fn full_quantum_is_one() {
        let sys = release::periodic(&[(1, 2)], 4);
        assert_eq!(FullQuantum.cost(&sys, SubtaskRef(0)), Rat::ONE);
    }

    #[test]
    fn fixed_costs_override_default() {
        let sys = release::periodic(&[(1, 2)], 4);
        let mut m = FixedCosts::new(Rat::ONE).with(TaskId(0), 2, Rat::new(1, 2));
        assert_eq!(m.cost(&sys, SubtaskRef(0)), Rat::ONE);
        assert_eq!(m.cost(&sys, SubtaskRef(1)), Rat::new(1, 2));
    }

    #[test]
    fn checked_cost_accepts_valid() {
        assert_eq!(checked_cost(Rat::new(1, 3), SubtaskRef(0)), Rat::new(1, 3));
        assert_eq!(checked_cost(Rat::ONE, SubtaskRef(0)), Rat::ONE);
    }

    #[test]
    fn denominator_hints_cover_emitted_costs() {
        assert_eq!(FullQuantum.denominator_hint(), Some(1));
        assert_eq!(ScaledCost(Rat::new(7, 8)).denominator_hint(), Some(8));
        let m = FixedCosts::new(Rat::new(3, 4)).with(TaskId(0), 1, Rat::new(5, 6));
        assert_eq!(m.denominator_hint(), Some(12));
        // ExactOnly withholds the inner hint by design.
        let mut inner = FullQuantum;
        assert_eq!(ExactOnly(&mut inner).denominator_hint(), None);
    }

    #[test]
    #[should_panic(expected = "must satisfy 0 < c <= 1")]
    fn checked_cost_rejects_zero() {
        let _ = checked_cost(Rat::ZERO, SubtaskRef(0));
    }

    #[test]
    #[should_panic(expected = "must satisfy 0 < c <= 1")]
    fn checked_cost_rejects_over_one() {
        let _ = checked_cost(Rat::new(5, 4), SubtaskRef(0));
    }
}
