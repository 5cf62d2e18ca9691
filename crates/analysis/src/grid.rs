//! The two-tier time of the post-hoc analyses: an exact `i64` tick grid of
//! a schedule, and the `Rat` schedule itself when no grid fits.
//!
//! A schedule's times live on a grid: every start, cost and hold is a
//! rational whose denominator divides the lcm of them all (720720 for the
//! workload generators' costs, 8 for `--cost 7/8`). [`Grid::new`] reads
//! that lcm off the placements with [`QScale::lcm_of`] and stores, in
//! placement order, every start, completion, `holds_until` and cost as an
//! `i64` tick count, plus a subtask → placement index. The analyses then
//! compare and subtract plain integers where the `Rat` tier
//! cross-multiplies `i128`s and reduces by gcds.
//!
//! Each analysis is written once, generic over [`Times`], the arithmetic
//! it runs in — the post-hoc counterpart of the simulators' `TimeDomain`:
//!
//! * [`Grid`] — ticks. Chosen whenever the data allows.
//! * [`Exact`] — `Rat`s read from the schedule. Used only when the grid is
//!   `None`: the lcm or some tick count leaves `i64`, or (with a system)
//!   some eligibility or deadline does.
//!
//! Both tiers are exact, so they give the same answers; results become
//! `Rat` once, at the end ([`Times::rat`], [`Times::sum_rat`]), and sums
//! of ticks are taken in `i128`. Every tick count is kept below
//! [`LIMIT`] in magnitude, so the difference of two instants — a
//! tardiness, a response time, `r − c_max` — is again an `i64`.

use core::fmt::Debug;
use core::ops::{Add, Sub};

use pfair_numeric::{QScale, Rat};
use pfair_sim::{Placement, Schedule};
use pfair_taskmodel::{SubtaskRef, TaskSystem};

/// Exclusive bound on the magnitude of every tick count on a [`Grid`]
/// (2⁶²): the difference of two in-range instants fits `i64`.
const LIMIT: i64 = 1 << 62;

/// The arithmetic an analysis runs in. Indices are placement indices,
/// in the schedule's `(start, proc)` order.
pub(crate) trait Times {
    /// An instant, or the difference of two instants.
    type T: Copy + Ord + Debug + Sub<Output = Self::T>;
    /// A sum of durations.
    type Sum: Copy + Ord + Add<Output = Self::Sum> + Sub<Output = Self::Sum>;

    /// The placement index of `st`.
    fn index(&self, st: SubtaskRef) -> usize;
    /// Every placement's start, in placement order.
    fn starts(&self) -> &[Self::T];
    /// Placement `i`'s completion, `start + cost`.
    fn completion(&self, i: usize) -> Self::T;
    /// When placement `i` frees its processor.
    fn holds_until(&self, i: usize) -> Self::T;
    /// Placement `i`'s cost.
    fn cost(&self, i: usize) -> Self::T;
    /// The integral instant `n`.
    fn int(&self, n: i64) -> Self::T;
    /// `t` as a summand.
    fn sum(&self, t: Self::T) -> Self::Sum;
    /// `k · s`.
    fn times(&self, k: i64, s: Self::Sum) -> Self::Sum;
    /// `⌊t⌋`.
    fn floor(&self, t: Self::T) -> i64;
    /// Whether `t` is an integer.
    fn is_integral(&self, t: Self::T) -> bool;
    /// The exact value of `t`.
    fn rat(&self, t: Self::T) -> Rat;
    /// The exact value of `s`.
    fn sum_rat(&self, s: Self::Sum) -> Rat;

    /// Placement `i`'s start.
    fn start(&self, i: usize) -> Self::T {
        self.starts()[i]
    }
}

/// Every placement of one schedule in `i64` ticks at one scale.
pub(crate) struct Grid {
    scale: QScale,
    start: Vec<i64>,
    completion: Vec<i64>,
    holds_until: Vec<i64>,
    cost: Vec<i64>,
    /// `SubtaskRef` → placement index.
    index: Vec<u32>,
}

impl Grid {
    /// The tick grid of `sched`, or `None` when it does not fit `i64`
    /// (see the module docs). With `sys`, every eligibility time and
    /// pseudo-deadline of `sys` must fit as well, so [`Times::int`] is
    /// exact on them.
    pub(crate) fn new(sys: Option<&TaskSystem>, sched: &Schedule) -> Option<Grid> {
        let placements = sched.placements();
        let mut scale = QScale::new(1);
        for p in placements {
            for t in [p.start, p.cost, p.holds_until] {
                let den = i64::try_from(t.den()).ok()?;
                if scale.ticks_per_quantum() % den != 0 {
                    scale = QScale::lcm_of([scale.ticks_per_quantum(), den])?;
                }
            }
        }
        let ticks = |t: Rat| {
            scale
                .from_rat(t)
                .map(|q| q.ticks())
                .filter(|t| t.abs() < LIMIT)
        };
        if let Some(sys) = sys {
            let fits = |n: i64| {
                n.checked_mul(scale.ticks_per_quantum())
                    .is_some_and(|t| t.abs() < LIMIT)
            };
            if !sys
                .iter_refs()
                .all(|(_, s)| fits(s.eligible) && fits(s.deadline))
            {
                return None;
            }
        }
        let n = placements.len();
        let mut grid = Grid {
            scale,
            start: Vec::with_capacity(n),
            completion: Vec::with_capacity(n),
            holds_until: Vec::with_capacity(n),
            cost: Vec::with_capacity(n),
            index: Vec::new(),
        };
        for p in placements {
            let (start, cost) = (ticks(p.start)?, ticks(p.cost)?);
            grid.start.push(start);
            grid.cost.push(cost);
            grid.completion
                .push(Some(start + cost).filter(|t| t.abs() < LIMIT)?);
            grid.holds_until.push(ticks(p.holds_until)?);
        }
        grid.index = placement_index(placements);
        Some(grid)
    }
}

/// `SubtaskRef` → index into `placements` (every subtask is placed once).
fn placement_index(placements: &[Placement]) -> Vec<u32> {
    let mut index = vec![0; placements.len()];
    for (i, p) in placements.iter().enumerate() {
        index[p.st.idx()] = u32::try_from(i).expect("placement count fits u32");
    }
    index
}

impl Times for Grid {
    type T = i64;
    type Sum = i128;

    fn index(&self, st: SubtaskRef) -> usize {
        self.index[st.idx()] as usize
    }

    fn starts(&self) -> &[i64] {
        &self.start
    }

    fn completion(&self, i: usize) -> i64 {
        self.completion[i]
    }

    fn holds_until(&self, i: usize) -> i64 {
        self.holds_until[i]
    }

    fn cost(&self, i: usize) -> i64 {
        self.cost[i]
    }

    fn int(&self, n: i64) -> i64 {
        n * self.scale.ticks_per_quantum()
    }

    fn sum(&self, t: i64) -> i128 {
        i128::from(t)
    }

    fn times(&self, k: i64, s: i128) -> i128 {
        i128::from(k) * s
    }

    fn floor(&self, t: i64) -> i64 {
        t.div_euclid(self.scale.ticks_per_quantum())
    }

    fn is_integral(&self, t: i64) -> bool {
        t % self.scale.ticks_per_quantum() == 0
    }

    fn rat(&self, t: i64) -> Rat {
        Rat::new(t, self.scale.ticks_per_quantum())
    }

    fn sum_rat(&self, s: i128) -> Rat {
        Rat::new_i128(s, i128::from(self.scale.ticks_per_quantum()))
    }
}

/// The schedule's own `Rat` times: the tier for schedules no [`Grid`]
/// fits.
pub(crate) struct Exact<'a> {
    placements: &'a [Placement],
    start: Vec<Rat>,
    completion: Vec<Rat>,
    index: Vec<u32>,
}

impl Exact<'_> {
    pub(crate) fn new(sched: &Schedule) -> Exact<'_> {
        let placements = sched.placements();
        Exact {
            placements,
            start: placements.iter().map(|p| p.start).collect(),
            completion: placements.iter().map(Placement::completion).collect(),
            index: placement_index(placements),
        }
    }
}

impl Times for Exact<'_> {
    type T = Rat;
    type Sum = Rat;

    fn index(&self, st: SubtaskRef) -> usize {
        self.index[st.idx()] as usize
    }

    fn starts(&self) -> &[Rat] {
        &self.start
    }

    fn completion(&self, i: usize) -> Rat {
        self.completion[i]
    }

    fn holds_until(&self, i: usize) -> Rat {
        self.placements[i].holds_until
    }

    fn cost(&self, i: usize) -> Rat {
        self.placements[i].cost
    }

    fn int(&self, n: i64) -> Rat {
        Rat::int(n)
    }

    fn sum(&self, t: Rat) -> Rat {
        t
    }

    fn times(&self, k: i64, s: Rat) -> Rat {
        Rat::int(k) * s
    }

    fn floor(&self, t: Rat) -> i64 {
        t.floor()
    }

    fn is_integral(&self, t: Rat) -> bool {
        t.is_integer()
    }

    fn rat(&self, t: Rat) -> Rat {
        t
    }

    fn sum_rat(&self, s: Rat) -> Rat {
        s
    }
}

/// Runs `$body` with `$tm` bound to the tick grid of `$sched` when one
/// fits (see [`Grid::new`] for `$sys`), else to its exact `Rat` times.
macro_rules! with_times {
    ($sys:expr, $sched:expr, |$tm:ident| $body:expr) => {
        match $crate::grid::Grid::new($sys, $sched) {
            Some(grid) => {
                let $tm = &grid;
                $body
            }
            None => {
                let $tm = &$crate::grid::Exact::new($sched);
                $body
            }
        }
    };
}
pub(crate) use with_times;

#[cfg(test)]
mod tests {
    use super::*;
    use pfair_core::Pd2;
    use pfair_sim::{simulate_dvq, FullQuantum, QuantumModel, ScaledCost};
    use pfair_taskmodel::release;

    fn fig2_system() -> TaskSystem {
        release::periodic(&[(1, 6), (1, 6), (1, 6), (1, 2), (1, 2), (1, 2)], 12)
    }

    #[test]
    fn grid_scale_is_the_lcm_of_the_schedule() {
        let sys = fig2_system();
        let full = simulate_dvq(&sys, 2, &Pd2, &mut FullQuantum);
        assert_eq!(Grid::new(Some(&sys), &full).unwrap().scale, QScale::new(1));
        let sched = simulate_dvq(&sys, 2, &Pd2, &mut ScaledCost(Rat::new(7, 8)));
        let grid = Grid::new(Some(&sys), &sched).expect("eighths fit i64");
        assert_eq!(grid.scale, QScale::new(8));
        let exact = Exact::new(&sched);
        for (i, p) in sched.placements().iter().enumerate() {
            assert_eq!(grid.rat(grid.start(i)), p.start);
            assert_eq!(grid.rat(grid.completion(i)), p.completion());
            assert_eq!(grid.rat(grid.holds_until(i)), p.holds_until);
            assert_eq!(grid.rat(grid.cost(i)), p.cost);
            assert_eq!(exact.completion(i), p.completion());
            assert_eq!(grid.index(p.st), i);
            assert_eq!(exact.index(p.st), i);
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
        assert!(Grid::new(None, &sched).is_none());
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
        assert!(Grid::new(None, &sched).is_some());
        assert!(Grid::new(Some(&sys), &sched).is_none());
    }
}
