//! Stochastic actual-cost models.
//!
//! These implement [`pfair_sim::CostModel`] with seeded randomness. All
//! drawn costs are exact rationals on a fixed grid (denominator
//! [`GRID`] = 720720 = lcm(1..13)), so boundary comparisons stay exact and
//! schedules remain reproducible.

use pfair_numeric::{Rat, Tier};
use pfair_sim::CostModel;
use pfair_taskmodel::{SubtaskRef, TaskSystem};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Denominator of the rational cost grid: the ticks per quantum of
/// [`pfair_numeric::GRID`], so every drawn cost is on the tick grid the
/// online schedulers and the streaming observers run at.
pub const GRID: i64 = pfair_numeric::GRID.per_quantum();

/// Uniform costs: `c ~ U{min, …, 1}` on the rational grid.
///
/// Models generic WCET pessimism ("many task invocations will execute for
/// less than their WCETs", §1).
#[derive(Clone, Debug)]
pub struct UniformCost {
    min_num: i64,
    rng: StdRng,
}

impl UniformCost {
    /// Costs uniform in `[min, 1]`; `min ∈ (0, 1]`.
    ///
    /// # Panics
    /// Panics unless `0 < min ≤ 1`.
    #[must_use]
    pub fn new(min: Rat, seed: u64) -> UniformCost {
        assert!(
            min.is_positive() && min <= Rat::ONE,
            "min must be in (0, 1]"
        );
        let min_num = (min * Rat::int(GRID)).ceil();
        UniformCost {
            min_num,
            rng: StdRng::seed_from_u64(seed),
        }
    }
}

impl CostModel for UniformCost {
    fn cost(&mut self, _sys: &TaskSystem, _st: SubtaskRef) -> Rat {
        let num = self.rng.gen_range(self.min_num..=GRID);
        // A tick count at `GRID`: reduced without a gcd (see
        // `pfair_numeric::tier`).
        pfair_numeric::GRID.to_rat(num)
    }

    fn denominator_hint(&self) -> Option<i64> {
        // Every draw is num/GRID; reduced denominators all divide GRID.
        Some(GRID)
    }
}

/// Bimodal costs: the full quantum with probability `full_percent`%, else
/// a fixed low cost — jobs either hit their WCET or finish well early.
#[derive(Clone, Debug)]
pub struct BimodalCost {
    full_percent: u8,
    low: Rat,
    rng: StdRng,
}

impl BimodalCost {
    /// `full_percent`% of subtasks cost 1; the rest cost `low ∈ (0, 1]`.
    ///
    /// # Panics
    /// Panics unless `0 < low ≤ 1` and `full_percent ≤ 100`.
    #[must_use]
    pub fn new(full_percent: u8, low: Rat, seed: u64) -> BimodalCost {
        assert!(full_percent <= 100);
        assert!(low.is_positive() && low <= Rat::ONE);
        BimodalCost {
            full_percent,
            low,
            rng: StdRng::seed_from_u64(seed),
        }
    }
}

impl CostModel for BimodalCost {
    fn cost(&mut self, _sys: &TaskSystem, _st: SubtaskRef) -> Rat {
        if self.rng.gen_range(0u8..100) < self.full_percent {
            Rat::ONE
        } else {
            self.low
        }
    }

    fn denominator_hint(&self) -> Option<i64> {
        i64::try_from(self.low.den()).ok()
    }
}

/// Adversarial near-boundary yields: with probability `yield_percent`%, a
/// subtask executes for `1 − δ` (freeing its processor *just* before the
/// next slot boundary — the timing that maximizes eligibility blocking,
/// per the paper's worst-case discussion); otherwise the full quantum.
#[derive(Clone, Debug)]
pub struct AdversarialYield {
    delta: Rat,
    yield_percent: u8,
    rng: StdRng,
}

impl AdversarialYield {
    /// New adversarial model with the given `δ ∈ (0, 1)`.
    ///
    /// # Panics
    /// Panics unless `0 < δ < 1` and `yield_percent ≤ 100`.
    #[must_use]
    pub fn new(delta: Rat, yield_percent: u8, seed: u64) -> AdversarialYield {
        assert!(delta.is_positive() && delta < Rat::ONE);
        assert!(yield_percent <= 100);
        AdversarialYield {
            delta,
            yield_percent,
            rng: StdRng::seed_from_u64(seed),
        }
    }
}

impl CostModel for AdversarialYield {
    fn cost(&mut self, _sys: &TaskSystem, _st: SubtaskRef) -> Rat {
        if self.rng.gen_range(0u8..100) < self.yield_percent {
            Rat::ONE - self.delta
        } else {
            Rat::ONE
        }
    }

    fn denominator_hint(&self) -> Option<i64> {
        // 1 − δ has the same reduced denominator as δ; 1 divides it.
        i64::try_from(self.delta.den()).ok()
    }
}

/// Non-integral per-job execution costs — the paper's §4 *future work*
/// direction, realized through the cost layer.
///
/// The Pfair task model requires `T.e` to be an integral number of quanta;
/// real jobs rarely oblige. A job whose true cost is `e − 1 + frac` quanta
/// (for `frac ∈ (0, 1]`) is modelled as the usual `e` subtasks with the
/// *final subtask of every job* executing for only `frac` of its quantum.
/// Under SFQ the residue `1 − frac` is stranded every job; under DVQ it is
/// reclaimed — and Theorem 3 keeps the tardiness of the (conservative,
/// integral) reservation within one quantum.
#[derive(Clone, Debug)]
pub struct PartialFinalSubtask {
    /// The fractional cost of each job's final subtask (`(0, 1]`).
    pub frac: Rat,
}

impl PartialFinalSubtask {
    /// New model; `frac ∈ (0, 1]`.
    ///
    /// # Panics
    /// Panics unless `0 < frac ≤ 1`.
    #[must_use]
    pub fn new(frac: Rat) -> PartialFinalSubtask {
        assert!(frac.is_positive() && frac <= Rat::ONE);
        PartialFinalSubtask { frac }
    }
}

impl CostModel for PartialFinalSubtask {
    fn cost(&mut self, sys: &TaskSystem, st: SubtaskRef) -> Rat {
        let s = sys.subtask(st);
        let e =
            u64::try_from(sys.task(s.id.task).weight.e()).expect("execution numerator is positive");
        // Subtask i is the last of its job iff i ≡ 0 (mod e).
        if s.id.index.is_multiple_of(e) {
            self.frac
        } else {
            Rat::ONE
        }
    }

    fn denominator_hint(&self) -> Option<i64> {
        // Costs are `frac` or 1; both denominators divide `frac`'s.
        i64::try_from(self.frac.den()).ok()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pfair_sim::cost::checked_cost;
    use pfair_taskmodel::release;

    #[test]
    fn uniform_in_range_and_deterministic() {
        let sys = release::periodic(&[(1, 2)], 20);
        let mut a = UniformCost::new(Rat::new(1, 4), 9);
        let mut b = UniformCost::new(Rat::new(1, 4), 9);
        for (st, _) in sys.iter_refs() {
            let ca = a.cost(&sys, st);
            let cb = b.cost(&sys, st);
            assert_eq!(ca, cb);
            assert!(ca >= Rat::new(1, 4) && ca <= Rat::ONE);
            let _ = checked_cost(ca, st);
        }
    }

    #[test]
    fn bimodal_takes_both_modes() {
        let sys = release::periodic(&[(1, 1)], 100);
        let mut m = BimodalCost::new(50, Rat::new(1, 3), 4);
        let costs: Vec<Rat> = sys.iter_refs().map(|(st, _)| m.cost(&sys, st)).collect();
        assert!(costs.contains(&Rat::ONE));
        assert!(costs.contains(&Rat::new(1, 3)));
    }

    #[test]
    fn adversarial_yields_one_minus_delta() {
        let sys = release::periodic(&[(1, 1)], 50);
        let delta = Rat::new(1, 100);
        let mut m = AdversarialYield::new(delta, 100, 0);
        for (st, _) in sys.iter_refs() {
            assert_eq!(m.cost(&sys, st), Rat::ONE - delta);
        }
        let mut never = AdversarialYield::new(delta, 0, 0);
        for (st, _) in sys.iter_refs() {
            assert_eq!(never.cost(&sys, st), Rat::ONE);
        }
    }

    #[test]
    #[should_panic(expected = "min must be in (0, 1]")]
    fn uniform_rejects_zero_min() {
        let _ = UniformCost::new(Rat::ZERO, 0);
    }

    #[test]
    fn partial_final_subtask_targets_job_boundaries() {
        // wt 3/4: subtasks 3, 6, 9, … end their jobs.
        let sys = release::periodic(&[(3, 4)], 12);
        let mut m = PartialFinalSubtask::new(Rat::new(2, 5));
        for (st, s) in sys.iter_refs() {
            let c = m.cost(&sys, st);
            if s.id.index.is_multiple_of(3) {
                assert_eq!(c, Rat::new(2, 5), "job-final subtask {:?}", s.id);
            } else {
                assert_eq!(c, Rat::ONE, "mid-job subtask {:?}", s.id);
            }
        }
    }

    #[test]
    fn denominator_hints_cover_every_draw() {
        // Each generator's hint must be a multiple of every reduced
        // denominator it can emit — the contract the simulators' tick fast
        // path relies on to never bail on these models.
        let sys = release::periodic(&[(3, 4), (1, 2)], 40);
        let models: Vec<Box<dyn CostModel>> = vec![
            Box::new(UniformCost::new(Rat::new(1, 5), 11)),
            Box::new(BimodalCost::new(40, Rat::new(2, 7), 12)),
            Box::new(AdversarialYield::new(Rat::new(1, 1000), 60, 13)),
            Box::new(PartialFinalSubtask::new(Rat::new(3, 8))),
        ];
        for mut m in models {
            let hint = m.denominator_hint().expect("all costgen models hint");
            for (st, _) in sys.iter_refs() {
                let c = m.cost(&sys, st);
                assert_eq!(
                    hint % c.den_i64(),
                    0,
                    "cost {c} off the hinted grid 1/{hint}"
                );
            }
        }
    }

    #[test]
    fn partial_final_subtask_weight_one_task() {
        // Weight-1 tasks: every subtask is its own job's end (e = 1).
        let sys = release::periodic(&[(1, 1)], 4);
        let mut m = PartialFinalSubtask::new(Rat::new(1, 2));
        for (st, _) in sys.iter_refs() {
            assert_eq!(m.cost(&sys, st), Rat::new(1, 2));
        }
    }
}
