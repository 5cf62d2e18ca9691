//! The observers' time tiers.
//!
//! Events carry `Rat` times, but a run's times almost always lie on the
//! workload generators' cost grid. The Metrics, Lag and Blocking observers
//! therefore keep their time-valued state in [`Ticks`] at [`GRID`], so a
//! sum is an integer add and a compare one instruction. Their state is
//! written once over a [`Tier`] and held in a [`Tiered`]: the first event
//! time the ticks cannot represent moves the state to [`Exact`] through
//! [`Tier::to_rat`], which loses nothing, and the event is applied there,
//! as the DVQ kernel's clock does. Every fallible conversion of an event
//! runs before its side effects, so a refused event changes nothing.
//!
//! [`Exact`]: pfair_numeric::Exact

#[cfg(doc)]
use pfair_numeric::Tier;
use pfair_numeric::{Ticks, GRID};

/// An observer's time-valued state, on ticks at [`GRID`] or on exact
/// rationals.
#[derive(Clone, Debug)]
pub(crate) enum Tiered<S: Lift> {
    Ticks(S),
    Exact(S::Exact),
}

/// Tick state that can move to [`Exact`] losslessly.
///
/// [`Exact`]: pfair_numeric::Exact
pub(crate) trait Lift {
    /// The same state on exact rationals.
    type Exact;
    /// Converts every time with [`Tier::to_rat`].
    fn to_exact(&self) -> Self::Exact;
}

impl<S: Lift> Tiered<S> {
    /// State built by `new` on ticks at [`GRID`].
    pub(crate) fn on_grid(new: impl FnOnce(Ticks) -> S) -> Tiered<S> {
        Tiered::Ticks(new(GRID))
    }

    /// Moves the state to exact rationals, if it is not there yet.
    pub(crate) fn go_exact(&mut self) {
        if let Tiered::Ticks(s) = self {
            *self = Tiered::Exact(s.to_exact());
        }
    }

    /// Whether the state is still on ticks.
    #[cfg(test)]
    pub(crate) fn on_ticks(&self) -> bool {
        matches!(self, Tiered::Ticks(_))
    }
}

/// Runs `$body` with `$s` bound to the state in its current tier.
macro_rules! on_tier {
    ($state:expr, |$s:ident| $body:expr) => {
        match $state {
            $crate::tiered::Tiered::Ticks($s) => $body,
            $crate::tiered::Tiered::Exact($s) => $body,
        }
    };
}
pub(crate) use on_tier;

/// Runs the fallible `$body` on the state in its current tier; if the
/// ticks refuse (`None`), moves to exact rationals and runs it again
/// there, where it cannot fail.
macro_rules! on_tier_or_exact {
    ($state:expr, |$s:ident| $body:expr) => {{
        match $crate::tiered::on_tier!(&mut $state, |$s| $body) {
            Some(v) => v,
            None => {
                $state.go_exact();
                $crate::tiered::on_tier!(&mut $state, |$s| $body)
                    .expect("the exact tier represents every time")
            }
        }
    }};
}
pub(crate) use on_tier_or_exact;

/// A DVQ-shaped event stream for the observers' tests.
#[cfg(test)]
pub(crate) mod fixture {
    use crate::SchedEvent;
    use pfair_numeric::Rat;
    use pfair_taskmodel::{SubtaskRef, TaskSystem};

    /// Every subtask of `sys`, in `(eligible, deadline)` order, takes the
    /// first processor of `m` to free, at the latest of that, its
    /// eligibility and its predecessor's completion, for `cost(k)` (the
    /// `k`-th dispatch); the events come sorted by time, completions
    /// before starts at one instant.
    pub(crate) fn dvq_stream(
        sys: &TaskSystem,
        m: usize,
        cost: impl Fn(usize) -> Rat,
    ) -> Vec<SchedEvent> {
        let mut order: Vec<SubtaskRef> = sys.iter_refs().map(|(st, _)| st).collect();
        order.sort_by_key(|&st| {
            let s = sys.subtask(st);
            (s.eligible, s.deadline, st.idx())
        });
        let mut free = vec![Rat::ZERO; m];
        let mut done = vec![Rat::ZERO; sys.num_subtasks()];
        let mut timed: Vec<(Rat, u8, SchedEvent)> = Vec::new();
        for (k, &st) in order.iter().enumerate() {
            let s = sys.subtask(st);
            let proc = (0..m).min_by_key(|&p| free[p]).expect("m ≥ 1");
            let pred = s.pred.map_or(Rat::ZERO, |p| done[p.idx()]);
            let start = free[proc].max(Rat::int(s.eligible)).max(pred);
            let (cost, id, deadline) = (cost(k), s.id, s.deadline);
            let completion = start + cost;
            free[proc] = completion;
            done[st.idx()] = completion;
            let proc = u32::try_from(proc).expect("m fits u32");
            timed.push((
                start,
                1,
                SchedEvent::QuantumStart {
                    id,
                    proc,
                    start,
                    cost,
                    holds_until: completion,
                    deadline,
                    bbit: s.bbit,
                    group_deadline: s.group_deadline,
                },
            ));
            timed.push((
                completion,
                0,
                SchedEvent::QuantumEnd {
                    id,
                    proc,
                    completion,
                    deadline,
                    waste: Rat::ZERO,
                },
            ));
            let tardiness = completion - Rat::int(deadline);
            timed.push((
                completion,
                0,
                if tardiness.is_positive() {
                    SchedEvent::DeadlineMiss {
                        id,
                        completion,
                        deadline,
                        tardiness,
                    }
                } else {
                    SchedEvent::DeadlineHit {
                        id,
                        completion,
                        deadline,
                    }
                },
            ));
        }
        timed.sort_by_key(|a| (a.0, a.1));
        timed.into_iter().map(|(_, _, ev)| ev).collect()
    }

    /// Costs `k/720720`-grid draws in `[1/2, 1]`, off the grid (`16/17`)
    /// from dispatch `off` on.
    pub(crate) fn grid_cost(off: usize) -> impl Fn(usize) -> Rat {
        move |k| {
            if k >= off {
                Rat::new(16, 17)
            } else {
                let k = i64::try_from(k).expect("small");
                Rat::new(360_360 + (k * 104_729) % 360_361, 720_720)
            }
        }
    }
}
