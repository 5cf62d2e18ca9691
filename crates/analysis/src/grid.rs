//! The two time tiers of the post-hoc analyses: an exact `i64` tick grid
//! of a schedule, and the `Rat` schedule itself when no grid fits.
//!
//! A schedule's times live on a grid: every start, cost and hold is a
//! rational whose denominator divides the lcm of them all (720720 for the
//! workload generators' costs, 8 for `--cost 7/8`). [`Grid::ticks`] reads
//! that lcm off the placements and stores, in placement order, every
//! start, completion, `holds_until` and cost as an `i64` tick count, plus a
//! subtask → placement index. The analyses then compare and subtract plain
//! integers where the `Rat` tier cross-multiplies `i128`s and reduces by
//! gcds.
//!
//! Each analysis is written once over a [`Grid<K>`], generic over the
//! [`Tier`] `K` it runs in, as the DVQ loop is, and runs on the grid
//! [`times`] picks, through [`on_tier!`](pfair_numeric::on_tier!).
//! [`Ticks`] is chosen whenever the data allows; [`Grid::exact`], the
//! schedule's `Rat`s, only when [`Grid::ticks`] is `None`: the lcm or some
//! tick count leaves `i64`, or (with a system) some eligibility or
//! deadline does. The choice is made once per schedule: a grid never
//! migrates.
//!
//! Both tiers are exact, so they give the same answers; results become
//! `Rat` once, at the end ([`Tier::to_rat`], [`Tier::sum_rat`]), and sums
//! of ticks are taken in `i128`. Every tick count is kept below
//! [`LIMIT`] in magnitude, so the difference of two instants — a
//! tardiness, a response time, `r − c_max` — is again an `i64`.

use core::ops::Deref;

use pfair_numeric::{Exact, Rat, Ticks, Tier, Tiered};
use pfair_sim::Schedule;
use pfair_taskmodel::{SubtaskRef, TaskSystem};

/// Exclusive bound on the magnitude of every tick count on a tick
/// [`Grid`] (2⁶²): the difference of two in-range instants fits `i64`.
const LIMIT: i64 = 1 << 62;

/// Every placement of one schedule in tier `K`. Indices are placement
/// indices, in the schedule's `(start, proc)` order. Derefs to `K` for
/// the arithmetic.
pub(crate) struct Grid<K: Tier> {
    tier: K,
    start: Vec<K::T>,
    completion: Vec<K::T>,
    holds_until: Vec<K::T>,
    cost: Vec<K::T>,
    /// `SubtaskRef` → placement index.
    index: Vec<u32>,
}

impl Grid<Ticks> {
    /// The tick grid of `sched`, or `None` when it does not fit `i64`
    /// (see the module docs). With `sys`, every eligibility time and
    /// pseudo-deadline of `sys` must fit as well, so [`Grid::int`] is
    /// exact on them.
    pub(crate) fn ticks(sys: Option<&TaskSystem>, sched: &Schedule) -> Option<Grid<Ticks>> {
        let mut scale = 1;
        for p in sched.placements() {
            for t in [p.start, p.cost, p.holds_until] {
                let den = i64::try_from(t.den()).ok()?;
                if scale % den != 0 {
                    scale = Ticks::lcm_of([scale, den])?.per_quantum();
                }
            }
        }
        let tier = Ticks::new(scale);
        let fits = |n: i64| tier.int(n).is_some_and(|t| t.abs() < LIMIT);
        if sys.is_some_and(|sys| {
            !sys.iter_refs()
                .all(|(_, s)| fits(s.eligible) && fits(s.deadline))
        }) {
            return None;
        }
        Grid::of(tier, sched, |t| t.abs() < LIMIT)
    }
}

impl Grid<Exact> {
    /// The exact times of `sched`.
    pub(crate) fn exact(sched: &Schedule) -> Grid<Exact> {
        Grid::of(Exact, sched, |_| true).expect("the exact tier represents every schedule")
    }
}

impl<K: Tier> Grid<K> {
    /// Converts every placement of `sched` to `tier`; `None` when a time
    /// does not convert or falls outside `in_range`.
    fn of(tier: K, sched: &Schedule, in_range: impl Fn(&K::T) -> bool) -> Option<Grid<K>> {
        let placements = sched.placements();
        let n = placements.len();
        let mut grid = Grid {
            tier,
            start: Vec::with_capacity(n),
            completion: Vec::with_capacity(n),
            holds_until: Vec::with_capacity(n),
            cost: Vec::with_capacity(n),
            index: vec![0; n],
        };
        for (i, p) in placements.iter().enumerate() {
            let tier = &grid.tier;
            let conv = |t: Rat| tier.from_rat(t).filter(&in_range);
            let (start, cost) = (conv(p.start)?, conv(p.cost)?);
            let completion = tier.add(start, cost).filter(&in_range)?;
            let holds_until = conv(p.holds_until)?;
            grid.start.push(start);
            grid.cost.push(cost);
            grid.completion.push(completion);
            grid.holds_until.push(holds_until);
            grid.index[p.st.idx()] = u32::try_from(i).expect("placement count fits u32");
        }
        Some(grid)
    }

    /// The placement index of `st`.
    pub(crate) fn index(&self, st: SubtaskRef) -> usize {
        self.index[st.idx()] as usize
    }

    /// Every placement's start, in placement order.
    pub(crate) fn starts(&self) -> &[K::T] {
        &self.start
    }

    /// Placement `i`'s start.
    pub(crate) fn start(&self, i: usize) -> K::T {
        self.start[i]
    }

    /// Placement `i`'s completion, `start + cost`.
    pub(crate) fn completion(&self, i: usize) -> K::T {
        self.completion[i]
    }

    /// When placement `i` frees its processor.
    pub(crate) fn holds_until(&self, i: usize) -> K::T {
        self.holds_until[i]
    }

    /// Placement `i`'s cost.
    pub(crate) fn cost(&self, i: usize) -> K::T {
        self.cost[i]
    }

    /// The integral instant `n`, which the constructor checked fits.
    pub(crate) fn int(&self, n: i64) -> K::T {
        self.tier
            .int(n)
            .expect("integral instants are within the grid's checked range")
    }
}

impl<K: Tier> Deref for Grid<K> {
    type Target = K;

    fn deref(&self) -> &K {
        &self.tier
    }
}

/// A schedule's times, on a tick grid or exact.
pub(crate) type Times = Tiered<Grid<Ticks>, Grid<Exact>>;

/// The times of `sched`: the tick grid of `sched` when one fits (see
/// [`Grid::ticks`] for `sys`), else its exact `Rat` times.
pub(crate) fn times(sys: Option<&TaskSystem>, sched: &Schedule) -> Times {
    or_exact(sched, Grid::ticks(sys, sched))
}

/// `ticks`, a tick grid of `sched`, or `sched`'s exact `Rat` times.
pub(crate) fn or_exact(sched: &Schedule, ticks: Option<Grid<Ticks>>) -> Times {
    ticks.map_or_else(|| Tiered::Exact(Grid::exact(sched)), Tiered::Ticks)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::blocking::inversions_in;
    use crate::lag::lag_series_in;
    use crate::report::report_in;
    use crate::response::response_in;
    use crate::tardiness::{histogram_in, tardiness_in};
    use crate::validity::{structural_in, window_containment_in};
    use crate::waste::waste_in;
    use pfair_conformance::{generate_case, Case, GenConfig};
    use pfair_core::Pd2;
    use pfair_sim::{simulate_dvq, simulate_sfq, FullQuantum, Placement, QuantumModel, ScaledCost};
    use pfair_taskmodel::release;

    fn fig2_system() -> TaskSystem {
        release::periodic(&[(1, 6), (1, 6), (1, 6), (1, 2), (1, 2), (1, 2)], 12)
    }

    #[test]
    fn grid_scale_is_the_lcm_of_the_schedule() {
        let sys = fig2_system();
        let full = simulate_dvq(&sys, 2, &Pd2, &mut FullQuantum);
        assert_eq!(Grid::ticks(Some(&sys), &full).unwrap().per_quantum(), 1);
        let sched = simulate_dvq(&sys, 2, &Pd2, &mut ScaledCost(Rat::new(7, 8)));
        let grid = Grid::ticks(Some(&sys), &sched).expect("eighths fit i64");
        assert_eq!(grid.per_quantum(), 8);
        let exact = Grid::exact(&sched);
        for (i, p) in sched.placements().iter().enumerate() {
            assert_eq!(grid.to_rat(grid.start(i)), p.start);
            assert_eq!(grid.to_rat(grid.completion(i)), p.completion());
            assert_eq!(grid.to_rat(grid.holds_until(i)), p.holds_until);
            assert_eq!(grid.to_rat(grid.cost(i)), p.cost);
            assert_eq!(exact.completion(i), p.completion());
            assert_eq!(grid.index(p.st), i);
            assert_eq!(exact.index(p.st), i);
        }
    }

    /// Every `_in` analysis of `sched` in the arithmetic of `tm`, times as
    /// `Rat`s, by its `Debug` rendering.
    fn outputs<K: Tier>(sys: &TaskSystem, sched: &Schedule, tm: &Grid<K>) -> String {
        let mut inversions = Vec::new();
        inversions_in(
            sys,
            sched,
            tm,
            &Pd2,
            false,
            |victim, ready, at, kind, by| {
                inversions.push((victim, tm.to_rat(ready), tm.to_rat(at), kind, by.to_vec()));
            },
        );
        let horizon = sched.makespan().ceil();
        format!(
            "{:?}",
            (
                tardiness_in(sys, tm),
                histogram_in(sys, tm, 8),
                response_in(sys, tm),
                waste_in(sched, tm),
                structural_in(sys, sched, tm),
                window_containment_in(sys, tm),
                lag_series_in(sys, tm, horizon),
                report_in(sys, sched, tm, &Pd2),
                inversions,
            )
        )
    }

    /// The two tiers on one schedule: the Fig. 2 DVQ run at cost 7/8 and
    /// the DVQ and SFQ runs of default fuzz cases, all on a tick grid,
    /// give the same outputs on [`Grid::ticks`] and [`Grid::exact`].
    #[test]
    fn both_tiers_agree_on_one_schedule() {
        let fig2 = fig2_system();
        let mut runs = vec![(
            simulate_dvq(&fig2, 2, &Pd2, &mut ScaledCost(Rat::new(7, 8))),
            fig2,
        )];
        for seed in 0..12 {
            let case = Case::build(generate_case(&GenConfig::default(), seed))
                .expect("generated cases build");
            let m = case.spec.m;
            let dvq = simulate_dvq(&case.sys, m, &Pd2, &mut case.cost_model());
            let sfq = simulate_sfq(&case.sys, m, &Pd2, &mut case.cost_model());
            runs.push((dvq, case.sys.clone()));
            runs.push((sfq, case.sys));
        }
        for (sched, sys) in &runs {
            let ticks = Grid::ticks(Some(sys), sched).expect("engine schedules lie on a grid");
            assert_eq!(
                outputs(sys, sched, &ticks),
                outputs(sys, sched, &Grid::exact(sched))
            );
        }
    }

    #[test]
    fn no_grid_when_the_lcm_leaves_i64() {
        // Three primes near 2²²: their product exceeds 2⁶³.
        let sys = release::periodic(&[(1, 2), (1, 6)], 4);
        let refs: Vec<SubtaskRef> = sys.iter_refs().map(|(st, _)| st).collect();
        assert_eq!(refs.len(), 3);
        let placements = refs
            .iter()
            .zip([4_194_301, 4_194_287, 4_194_277])
            .enumerate()
            .map(|(i, (&st, p))| {
                let cost = Rat::new(p - 1, p);
                Placement {
                    st,
                    proc: i as u32,
                    start: Rat::ZERO,
                    cost,
                    holds_until: cost,
                }
            })
            .collect();
        let sched = Schedule::new(&sys, QuantumModel::Dvq, 3, placements);
        assert!(Grid::ticks(None, &sched).is_none());
    }

    #[test]
    fn no_grid_when_a_deadline_leaves_the_range() {
        // Deadline 2⁴⁰ at 2²³ ticks per quantum is 2⁶³ ticks.
        let sys = release::periodic(&[(1, 1 << 40)], 1 << 40);
        let (st, _) = sys.iter_refs().next().unwrap();
        let cost = Rat::new((1 << 23) - 1, 1 << 23);
        let sched = Schedule::new(
            &sys,
            QuantumModel::Dvq,
            1,
            vec![Placement {
                st,
                proc: 0,
                start: Rat::ZERO,
                cost,
                holds_until: cost,
            }],
        );
        assert!(Grid::ticks(None, &sched).is_some());
        assert!(Grid::ticks(Some(&sys), &sched).is_none());
    }
}
