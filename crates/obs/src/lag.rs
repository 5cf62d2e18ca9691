//! Streaming exact LAG accounting (Lemma 1 of the paper).

use crate::{Observer, SchedEvent};
use pfair_numeric::{
    checked_lcm_of, on_tier, on_tier_or_exact, Exact, FracSum, Lift, Rat, Ticks, Tier, Tiered, GRID,
};
use pfair_taskmodel::TaskSystem;

/// Streams the system-wide lag `LAG(τ, t)` at every integral slot, with
/// state proportional to the number of *active* windows and in-flight
/// quanta instead of the whole trace.
///
/// Replicates the post-hoc sweep `pfair_analysis::lag::lag_series` (and so
/// the definitions `total_lag` and `max_lag_over_slots`) exactly, with the
/// same state. The two are written separately on purpose: the conformance
/// invariant `streaming-posthoc-agreement` compares them on every fuzz
/// case. The ideal allocation of a window `[r, d)` at integral `t` is
/// `1` once `t ≥ d`, `(t − r)/(d − r)` while `r < t < d`, and `0` before;
/// the received allocation of a quantum is `1` once `t ≥ completion` and
/// `(t − start)/cost` while `start < t < completion`.
///
/// Each slot is one exact sum, reduced once ([`FracSum`]): the ideal part
/// is an integer over `L`, the lcm of the system's window lengths, and
/// the in-flight quanta are kept in ticks at [`pfair_numeric::GRID`],
/// where `(t − start)/cost` needs no scale. A stream that leaves the grid
/// moves them to exact rationals (a [`Tiered`] switch), and a slot
/// whose sum leaves `i128` is summed in `Rat`s instead. Every path is
/// exact, so the streaming totals are equal — not approximately equal —
/// to the post-hoc ones (`tests/observer_equivalence.rs`).
///
/// A slot `s` is evaluated as soon as an event with time strictly greater
/// than `s` arrives (events are nondecreasing in time, so everything at or
/// before `s` has been applied by then); call [`LagObserver::finish`] to
/// evaluate the remaining slots up to a horizon once the run ends.
#[derive(Clone, Debug)]
pub struct LagObserver {
    /// All subtask windows `(release, deadline)`, sorted by release.
    windows: Vec<(i64, i64)>,
    cursor: usize,
    /// `L`, or `None` if it leaves `i64`.
    lcm: Option<i64>,
    /// Windows with `release < next_slot` not yet fully in the past, with
    /// `L / (deadline − release)` (0 without `L`).
    active: Vec<(i64, i64, i64)>,
    /// Count of windows whose deadline has passed (each contributes 1).
    ideal_done: i64,
    /// In-flight quanta.
    inflight: Tiered<InFlight<Ticks>>,
    /// Count of completed quanta (each contributes 1).
    recv_done: i64,
    next_slot: i64,
    /// The latest event time seen: every slot before it is evaluated.
    seen: Rat,
    series: Vec<(i64, Rat)>,
    /// Slots summed in `Rat`s because a checked step overflowed.
    rat_slots: usize,
}

/// The quanta in flight `(start, cost, completion)`, in tier `K`.
#[derive(Clone, Debug)]
struct InFlight<K: Tier> {
    tier: K,
    quanta: Vec<(K::T, K::T, K::T)>,
}

impl<K: Tier> InFlight<K> {
    /// Records a quantum of `cost` starting at `start`; `None` (and no
    /// change) off the tier.
    fn push(&mut self, start: Rat, cost: Rat) -> Option<()> {
        let start = self.tier.from_rat(start)?;
        let cost = self.tier.from_rat(cost)?;
        let completion = self.tier.add(start, cost)?;
        self.quanta.push((start, cost, completion));
        Some(())
    }

    /// Retires the quanta complete by slot `s` and returns how many;
    /// `None` (and no change) if `s` is off the tier.
    fn retire(&mut self, s: i64) -> Option<i64> {
        let at = self.tier.int(s)?;
        let before = self.quanta.len();
        self.quanta.retain(|&(_, _, completion)| completion > at);
        Some(i64::try_from(before - self.quanta.len()).expect("quantum count fits i64"))
    }

    /// The instant `s` and the `(start, cost)` of the quanta started
    /// before it.
    fn received(&self, s: i64) -> (K::T, impl Iterator<Item = (K::T, K::T)> + '_) {
        let at = self.tier.int(s).expect("retired slots are on the tier");
        let quanta = self.quanta.iter().filter(move |q| q.0 < at);
        (at, quanta.map(|&(start, cost, _)| (start, cost)))
    }

    /// `LAG(s)` as `ideal` (the ideal part and the whole quanta, over `L`)
    /// minus what the quanta in flight have received, `(s − start)/cost`
    /// each, reduced once; `None` if a step leaves `i128`.
    fn lag(&self, s: i64, ideal: FracSum) -> Option<Rat> {
        let (at, mut quanta) = self.received(s);
        quanta
            .try_fold(ideal, |sum, (start, cost)| {
                let (n, d) = self.tier.ratio(at - start, cost);
                sum.sub(n, d)
            })
            .map(FracSum::to_rat)
    }

    /// `LAG(s)` summed in `Rat`s, which reduce as they go: `base` whole
    /// quanta, the active windows' ideal part, and the received part of
    /// the quanta in flight.
    fn rat_lag(&self, s: i64, base: i64, active: &[(i64, i64, i64)]) -> Rat {
        let mut lag = Rat::int(base);
        for &(r, d, _) in active {
            lag += Rat::new(s - r, d - r);
        }
        let sr = Rat::int(s);
        for (start, cost) in self.received(s).1 {
            lag -= (sr - self.tier.to_rat(start)) / self.tier.to_rat(cost);
        }
        lag
    }
}

impl<K: Tier> Lift for InFlight<K> {
    type Exact = InFlight<Exact>;

    fn to_exact(&self) -> InFlight<Exact> {
        let rat = |t| self.tier.to_rat(t);
        InFlight {
            tier: Exact,
            quanta: self
                .quanta
                .iter()
                .map(|&(s, c, e)| (rat(s), rat(c), rat(e)))
                .collect(),
        }
    }
}

impl LagObserver {
    /// A lag accountant for `sys` (copies the window list; the observer
    /// does not borrow the system).
    #[must_use]
    pub fn new(sys: &TaskSystem) -> Self {
        let mut windows: Vec<(i64, i64)> = sys
            .subtasks()
            .iter()
            .map(|s| (s.release, s.deadline))
            .collect();
        windows.sort_unstable();
        let lcm = checked_lcm_of(windows.iter().map(|&(r, d)| d - r));
        LagObserver {
            windows,
            cursor: 0,
            lcm,
            active: Vec::new(),
            ideal_done: 0,
            inflight: Tiered::Ticks(InFlight {
                tier: GRID,
                quanta: Vec::new(),
            }),
            recv_done: 0,
            next_slot: 0,
            seen: Rat::ZERO,
            series: Vec::new(),
            rat_slots: 0,
        }
    }

    fn eval(&mut self, s: i64) {
        while let Some(&(r, d)) = self.windows.get(self.cursor).filter(|w| w.0 < s) {
            self.active
                .push((r, d, self.lcm.map_or(0, |l| l / (d - r))));
            self.cursor += 1;
        }
        let before = self.active.len();
        self.active.retain(|&(_, d, _)| d > s);
        self.ideal_done +=
            i64::try_from(before - self.active.len()).expect("window count fits i64");
        self.recv_done += on_tier_or_exact!(self.inflight, |f| f.retire(s));
        let base = self.ideal_done - self.recv_done;
        // `base` wholes and Σ (s − r)·L/(d − r) over the active windows,
        // over `L`.
        let ideal = self.lcm.and_then(|l| {
            let part = self.active.iter().try_fold(0i64, |sum, &(r, _, k)| {
                sum.checked_add((s - r).checked_mul(k)?)
            })?;
            FracSum::new(
                i128::from(base) * i128::from(l) + i128::from(part),
                i128::from(l),
            )
        });
        let lag = on_tier!(&self.inflight, |f| ideal.and_then(|sum| f.lag(s, sum))).unwrap_or_else(
            || {
                self.rat_slots += 1;
                on_tier!(&self.inflight, |f| f.rat_lag(s, base, &self.active))
            },
        );
        self.series.push((s, lag));
    }

    /// Evaluates all remaining slots through `horizon` inclusive. Call once
    /// after the run; further events must not arrive at or before `horizon`.
    pub fn finish(&mut self, horizon: i64) {
        while self.next_slot <= horizon {
            let s = self.next_slot;
            self.next_slot += 1;
            self.eval(s);
        }
    }

    /// The per-slot series `(t, LAG(τ, t))` evaluated so far.
    #[must_use]
    pub fn series(&self) -> &[(i64, Rat)] {
        &self.series
    }

    /// The maximum LAG over all evaluated slots (`Rat::ZERO` if none),
    /// matching `max_lag_over_slots` when finished to the same horizon.
    #[must_use]
    pub fn max_lag(&self) -> Rat {
        let mut it = self.series.iter().map(|&(_, l)| l);
        match it.next() {
            None => Rat::ZERO,
            Some(first) => it.fold(first, Rat::max),
        }
    }
}

impl Observer for LagObserver {
    fn on_event(&mut self, ev: &SchedEvent) {
        // Evaluate every pending slot strictly before this event's time:
        // all events at or before those slots have already been applied,
        // and this event (time > s) cannot affect them. Events of one
        // instant come in runs, and only a new instant can complete a slot.
        if let Some(t) = ev.time().filter(|&t| t != self.seen) {
            self.seen = t;
            while Rat::int(self.next_slot) < t {
                let s = self.next_slot;
                self.next_slot += 1;
                self.eval(s);
            }
        }
        if let SchedEvent::QuantumStart { start, cost, .. } = ev {
            on_tier_or_exact!(self.inflight, |f| f.push(*start, *cost));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fixture::{dvq_stream, grid_cost};
    use pfair_taskmodel::{release, SubtaskId, TaskId};

    fn system() -> TaskSystem {
        release::periodic(&[(1, 2), (2, 3), (1, 3), (3, 4), (1, 6)], 24)
    }

    /// `events` through a fresh observer, its in-flight quanta on exact
    /// rationals from the start with `exact`, finished at `horizon`.
    fn run(sys: &TaskSystem, events: &[SchedEvent], exact: bool, horizon: i64) -> LagObserver {
        let mut lag = LagObserver::new(sys);
        if exact {
            lag.inflight.go_exact();
        }
        for ev in events {
            lag.on_event(ev);
        }
        lag.finish(horizon);
        lag
    }

    #[test]
    fn grid_streams_stay_on_ticks() {
        let sys = system();
        let events = dvq_stream(&sys, 3, grid_cost(usize::MAX));
        let (ticks, exact) = (run(&sys, &events, false, 30), run(&sys, &events, true, 30));
        assert!(ticks.inflight.on_ticks(), "a GRID stream left the ticks");
        assert_eq!(ticks.rat_slots, 0, "a GRID stream fell back to Rat sums");
        assert_eq!(ticks.series(), exact.series());
        // The stream has quanta in flight across slots: not a trivial sum.
        assert!(ticks.series().iter().any(|&(_, l)| !l.is_integer()));
    }

    #[test]
    fn leaving_the_grid_mid_run_moves_to_exact() {
        let sys = system();
        let events = dvq_stream(&sys, 3, grid_cost(20));
        let (moved, exact) = (run(&sys, &events, false, 30), run(&sys, &events, true, 30));
        assert!(!moved.inflight.on_ticks());
        assert_eq!(moved.series(), exact.series());
        assert_eq!(moved.max_lag(), exact.max_lag());
    }

    fn start(task: u32, index: u64, start: Rat, cost: Rat) -> SchedEvent {
        SchedEvent::QuantumStart {
            id: SubtaskId {
                task: TaskId(task),
                index,
            },
            proc: task,
            start,
            cost,
            holds_until: start + cost,
            deadline: 0,
            bbit: false,
            group_deadline: 0,
        }
    }

    /// `V` (weight 1/2): `V_1` runs `[0, 1/2)` on the grid, `V_2` runs
    /// from `5/2` for `16/17`, off it. At slot 3 the ideal part is `3/2`
    /// and `V_2` has received `(1/2)/(16/17) = 17/32`.
    #[test]
    fn an_off_grid_quantum_is_summed_exactly() {
        let sys = release::periodic(&[(1, 2)], 4);
        let events = [
            start(0, 1, Rat::ZERO, Rat::new(1, 2)),
            start(0, 2, Rat::new(5, 2), Rat::new(16, 17)),
        ];
        let lag = run(&sys, &events, false, 4);
        assert!(!lag.inflight.on_ticks());
        let want = [
            Rat::ZERO,
            Rat::new(-1, 2),
            Rat::ZERO,
            Rat::new(3, 2) - Rat::ONE - Rat::new(17, 32),
            Rat::ZERO,
        ];
        let got: Vec<Rat> = lag.series().iter().map(|&(_, l)| l).collect();
        assert_eq!(got, want);
        assert_eq!(lag.rat_slots, 0);
    }

    /// Window lengths of three primes near 2²²: their lcm leaves `i64`,
    /// so every slot is summed in `Rat`s, to the same values.
    #[test]
    fn an_unrepresentable_window_lcm_sums_in_rats() {
        let ps = [4_194_301, 4_194_287, 4_194_277];
        let sys = release::periodic(&ps.map(|p| (1, p)), 2);
        let events: Vec<SchedEvent> = (0..3).map(|k| start(k, 1, Rat::ZERO, Rat::ONE)).collect();
        let lag = run(&sys, &events, false, 2);
        assert_eq!(lag.rat_slots, 3);
        for &(s, l) in lag.series() {
            let ideal: Rat = ps.iter().map(|&p| Rat::new(s, p)).sum();
            let received = Rat::int(if s >= 1 { 3 } else { 0 });
            assert_eq!(l, ideal - received, "LAG({s})");
        }
    }
}
