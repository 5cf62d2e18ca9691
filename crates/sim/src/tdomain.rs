//! Time domains: the two-tier representation of event times.
//!
//! The DVQ event loop ([`crate::dvq`]) is written once, generic over a
//! [`TimeDomain`] — the arithmetic its event heap and completion sums run
//! in. It is the only user: the staggered loop and the slot replay run on
//! exact [`Rat`]s directly.
//!
//! * [`ExactTimes`] — times are exact [`Rat`]s; every operation is
//!   infallible. The reference tier, always correct.
//! * [`TickTimes`] — times are [`QTime`] tick counts at a per-run
//!   [`QScale`] (the lcm of the cost model's denominators, from
//!   [`CostModel::denominator_hint`](crate::cost::CostModel::denominator_hint)).
//!   Heap comparisons become single `i64` compares — the DVQ hot path's
//!   dominant cost under `Rat` — and every fallible conversion returns
//!   `Option` so the loop can **bail out** to [`ExactTimes`] mid-run.
//!
//! The bail-out contract is what keeps the fast path honest: the loop must
//! attempt every fallible conversion for a dispatch *before* any of that
//! dispatch's side effects (observer emissions, placements, heap pushes),
//! so that on `None` it can convert its whole state to exact rationals via
//! [`TimeDomain::to_rat`] — which never loses information, a tick count
//! *is* a rational — and resume at the same instant without re-running
//! anything. Costs already drawn from a stochastic model are carried over
//! verbatim, so RNG streams and observer streams are identical down both
//! tiers; the keyed-equivalence tests diff the resulting schedules
//! placement-for-placement.

use pfair_numeric::{QScale, QTime, Rat, Time};
use pfair_taskmodel::TaskSystem;

/// The arithmetic of one simulation run's event times. See the module docs
/// for the two implementations and the bail-out contract.
pub(crate) trait TimeDomain {
    /// An event time: totally ordered, cheap to copy and compare.
    type T: Copy + Ord + core::fmt::Debug;

    /// An event-heap entry: a time paired with a 64-bit payload code,
    /// ordered by time, then by code. The tick tier packs both into a
    /// single `u128`, so a heap sift step is one wide-integer compare
    /// instead of a tuple-then-enum cascade; the exact tier keeps the
    /// tuple. The simulators encode their event enums into the code such
    /// that code order equals the enum's derived order.
    type EvKey: Copy + Ord + core::fmt::Debug;

    /// Packs `(t, code)` into a heap entry.
    fn ev_key(&self, t: Self::T, code: u64) -> Self::EvKey;

    /// Recovers `(t, code)` from a heap entry.
    fn ev_split(&self, k: Self::EvKey) -> (Self::T, u64);

    /// The integral time `n` (quanta); `None` if unrepresentable.
    fn int(&self, n: i64) -> Option<Self::T>;

    /// An arbitrary rational instant; `None` if unrepresentable. Used to
    /// re-enter a domain at a bail-out's resume point.
    #[allow(clippy::wrong_self_convention)] // mirrors `QScale::from_rat`
    fn from_rat(&self, t: Rat) -> Option<Self::T>;

    /// `t + c` for a cost `c ∈ (0, 1]`; `None` if the cost is off the
    /// domain's grid or the sum overflows.
    fn add_cost(&self, t: Self::T, c: Rat) -> Option<Self::T>;

    /// The exact rational value of `t`. Total: both domains represent
    /// rationals exactly, so nothing is ever lost leaving the fast tier.
    fn to_rat(&self, t: Self::T) -> Rat;
}

/// Exact rational times — the infallible reference tier.
pub(crate) struct ExactTimes;

impl TimeDomain for ExactTimes {
    type T = Time;
    type EvKey = (Time, u64);

    fn ev_key(&self, t: Time, code: u64) -> (Time, u64) {
        (t, code)
    }

    fn ev_split(&self, k: (Time, u64)) -> (Time, u64) {
        k
    }

    fn int(&self, n: i64) -> Option<Time> {
        Some(Rat::int(n))
    }

    fn from_rat(&self, t: Rat) -> Option<Time> {
        Some(t)
    }

    fn add_cost(&self, t: Time, c: Rat) -> Option<Time> {
        Some(t + c)
    }

    fn to_rat(&self, t: Time) -> Rat {
        t
    }
}

/// Fixed-point tick times at a per-run scale — the fast tier.
pub(crate) struct TickTimes {
    pub scale: QScale,
}

/// Order-preserving lift of an `i64` into `u64` (flip the sign bit).
const SIGN: u64 = 1 << 63;

impl TimeDomain for TickTimes {
    type T = QTime;
    type EvKey = u128;

    fn ev_key(&self, t: QTime, code: u64) -> u128 {
        (u128::from((t.ticks() as u64) ^ SIGN) << 64) | u128::from(code)
    }

    fn ev_split(&self, k: u128) -> (QTime, u64) {
        let ticks = (((k >> 64) as u64) ^ SIGN) as i64;
        (QTime::from_ticks(ticks), k as u64)
    }

    fn int(&self, n: i64) -> Option<QTime> {
        self.scale.int(n)
    }

    fn from_rat(&self, t: Rat) -> Option<QTime> {
        self.scale.from_rat(t)
    }

    fn add_cost(&self, t: QTime, c: Rat) -> Option<QTime> {
        t.checked_add(self.scale.from_rat(c)?)
    }

    fn to_rat(&self, t: QTime) -> Rat {
        self.scale.to_rat(t)
    }
}

/// An upper bound on every integral instant a DVQ run over `sys` can
/// produce, or `None` on overflow (which simply keeps the run exact).
/// Each dispatch pushes a completion `≤ now + 1` and an activation
/// `≤ max(eligible, now + 1)`, so by induction every event time is at most
/// `max |eligible| + num_subtasks + 2`.
pub(crate) fn event_span(sys: &TaskSystem) -> Option<i64> {
    let max_e = sys
        .iter_refs()
        .map(|(_, s)| s.eligible.unsigned_abs())
        .max()
        .unwrap_or(0);
    i64::try_from(max_e)
        .ok()?
        .checked_add(i64::try_from(sys.num_subtasks()).ok()?)?
        .checked_add(2)
}

/// Picks the tick scale for a run over `sys`-like event times, or `None`
/// to stay exact: requires a denominator hint and headroom for every time
/// the run can produce. `max_int` must bound every integral instant the
/// caller will convert ([`event_span`]); with that guarantee, in-run bails
/// can only come from costs off the hinted grid, never from overflow.
pub(crate) fn tick_scale(hint: Option<i64>, max_int: i64) -> Option<QScale> {
    let den = hint?;
    if den <= 0 {
        return None;
    }
    let scale = QScale::new(den);
    // The whole run must fit i64 ticks — otherwise start exact.
    scale.int(max_int)?;
    Some(scale)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exact_domain_is_infallible_identity() {
        let d = ExactTimes;
        let t = d.int(3).expect("exact int");
        assert_eq!(d.to_rat(t), Rat::int(3));
        let c = Rat::new(7, 8);
        assert_eq!(
            d.add_cost(t, c).expect("exact add"),
            Rat::int(3) + Rat::new(7, 8)
        );
        assert_eq!(d.from_rat(c).expect("exact from_rat"), c);
    }

    #[test]
    fn tick_domain_agrees_with_exact_on_grid() {
        let d = TickTimes {
            scale: QScale::new(24),
        };
        let t = d.int(5).expect("5 quanta in 24ths");
        let stepped = d.add_cost(t, Rat::new(7, 8)).expect("7/8 on the grid");
        assert_eq!(d.to_rat(stepped), Rat::int(5) + Rat::new(7, 8));
        // Off-grid cost: refuse, don't round.
        assert_eq!(d.add_cost(t, Rat::new(1, 7)), None);
    }

    #[test]
    fn tick_scale_requires_hint_and_headroom() {
        assert_eq!(tick_scale(None, 100), None);
        assert_eq!(tick_scale(Some(0), 100), None);
        let s = tick_scale(Some(720_720), 1_000_000).expect("plenty of headroom");
        assert_eq!(s.ticks_per_quantum(), 720_720);
        // A span too wide for i64 ticks keeps the run exact.
        assert_eq!(tick_scale(Some(720_720), i64::MAX / 2), None);
    }
}
