//! Fixed-point quantum-boundary times: the i64 fast path under [`Rat`].
//!
//! DVQ event times are rationals, but in any concrete run they live on a
//! *grid*: every decision time is an integer combination of subtask
//! eligibility times (integers) and actual costs, and every cost model in
//! this workspace draws costs whose denominators divide a small, known
//! constant (e.g. the workload generators' 720720 = lcm(1..13) grid). On
//! that grid a time is just an integer count of **ticks** — `1/scale`-ths
//! of a quantum — and the event heap can compare plain `i64`s instead of
//! cross-multiplying `i128` rationals on every sift.
//!
//! This module provides the two types of that fast path:
//!
//! * [`QScale`] — the ticks-per-quantum scale, computed once per run as the
//!   lcm of the cost model's denominators (see
//!   `CostModel::denominator_hint` in `pfair-sim`);
//! * [`QTime`] — a time point as a signed tick count at a given scale.
//!
//! # The fallback contract
//!
//! Every conversion and arithmetic op is **checked** and total: anything
//! that cannot be represented exactly — a cost off the grid
//! ([`QScale::from_rat`] returns `None` unless the reduced denominator
//! divides the scale), or a tick count outside `i64` — returns `None`
//! instead of rounding. Callers (the simulators' event loops) treat `None`
//! as "leave the fast path": they migrate their state to exact [`Rat`]
//! times via [`QScale::to_rat`] — which is always exact, a `QTime` *is* a
//! rational — and resume. Fixed point is an optimization, never a change
//! of semantics; the equivalence tests in `pfair-numeric` and the
//! schedule-identity tests in the workspace root pin that down.

use crate::int::checked_lcm;
use crate::rational::Rat;

/// Number of ticks per quantum for a [`QTime`] — the fixed-point scale.
///
/// Always strictly positive. Conversions between [`Rat`] and [`QTime`] go
/// through the scale; see the module docs for the exactness contract.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct QScale {
    ticks_per_quantum: i64,
}

impl QScale {
    /// A scale of `ticks_per_quantum` ticks per quantum.
    ///
    /// # Panics
    /// Panics unless `ticks_per_quantum > 0`.
    #[must_use]
    pub fn new(ticks_per_quantum: i64) -> QScale {
        assert!(
            ticks_per_quantum > 0,
            "QScale requires a positive ticks-per-quantum, got {ticks_per_quantum}"
        );
        QScale { ticks_per_quantum }
    }

    /// The smallest scale representing every denominator in `dens` exactly:
    /// their (checked) lcm. `None` if the lcm overflows `i64` or any
    /// denominator is non-positive; an empty iterator yields scale 1.
    #[must_use]
    pub fn lcm_of(dens: impl IntoIterator<Item = i64>) -> Option<QScale> {
        let mut scale = 1i64;
        for d in dens {
            if d <= 0 {
                return None;
            }
            scale = checked_lcm(scale, d)?;
        }
        Some(QScale::new(scale))
    }

    /// The scale as a raw tick count per quantum.
    #[must_use]
    pub fn ticks_per_quantum(self) -> i64 {
        self.ticks_per_quantum
    }

    /// The integral time `n` (quanta) in ticks; `None` on overflow.
    #[must_use]
    pub fn int(self, n: i64) -> Option<QTime> {
        let ticks = i128::from(n).checked_mul(i128::from(self.ticks_per_quantum))?;
        i64::try_from(ticks).ok().map(|ticks| QTime { ticks })
    }

    /// `t` in ticks, **exactly** — `None` unless `t`'s reduced denominator
    /// divides the scale and the tick count fits `i64`. Never rounds.
    #[must_use]
    pub fn from_rat(self, t: Rat) -> Option<QTime> {
        // Machine words only: i128 division is a library call, and the
        // online event queue converts every instant it queues. A
        // denominator wider than i64 exceeds the scale, so cannot divide
        // it; a numerator wider than i64 gives a tick count wider still.
        let den = i64::try_from(t.den()).ok()?;
        if self.ticks_per_quantum % den != 0 {
            // `t` is reduced, so `num·scale/den` is integral iff den | scale.
            return None;
        }
        let num = i64::try_from(t.num()).ok()?;
        num.checked_mul(self.ticks_per_quantum / den)
            .map(|ticks| QTime { ticks })
    }

    /// The exact rational value of `t` at this scale (always succeeds: a
    /// tick count *is* a rational with denominator `scale`).
    #[must_use]
    pub fn to_rat(self, t: QTime) -> Rat {
        Rat::new(t.ticks, self.ticks_per_quantum)
    }
}

/// A point on the time line as a signed tick count at some [`QScale`].
///
/// The scale is deliberately *not* stored per value — a run fixes one scale
/// up front and all its `QTime`s share it, which is what makes comparisons
/// a single `i64` compare. Mixing ticks from different scales is a caller
/// bug that the type system does not catch; keep the scale alongside the
/// collection, as the simulators' time domains do.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub struct QTime {
    ticks: i64,
}

impl QTime {
    /// Time zero (zero ticks at every scale).
    pub const ZERO: QTime = QTime { ticks: 0 };

    /// The raw tick count.
    #[must_use]
    pub fn ticks(self) -> i64 {
        self.ticks
    }

    /// A time from a raw tick count (the inverse of [`QTime::ticks`]). The
    /// caller owns the scale discipline, as with every other `QTime` op;
    /// the simulators use this to unpack tick counts they packed into
    /// wider integer keys.
    #[must_use]
    pub fn from_ticks(ticks: i64) -> QTime {
        QTime { ticks }
    }

    /// Tick-count sum; `None` on `i64` overflow (take the exact fallback).
    #[must_use]
    pub fn checked_add(self, rhs: QTime) -> Option<QTime> {
        self.ticks
            .checked_add(rhs.ticks)
            .map(|ticks| QTime { ticks })
    }

    /// Tick-count difference; `None` on `i64` overflow.
    #[must_use]
    pub fn checked_sub(self, rhs: QTime) -> Option<QTime> {
        self.ticks
            .checked_sub(rhs.ticks)
            .map(|ticks| QTime { ticks })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn int_and_to_rat_round_trip() {
        let s = QScale::new(720_720);
        for n in [-3i64, 0, 1, 24, 1000] {
            let t = s.int(n).expect("small integers fit any sane scale");
            assert_eq!(s.to_rat(t), Rat::int(n));
        }
    }

    #[test]
    fn from_rat_is_exact_only() {
        let s = QScale::new(12);
        assert_eq!(s.from_rat(Rat::new(1, 4)).map(QTime::ticks), Some(3));
        assert_eq!(s.from_rat(Rat::new(-5, 6)).map(QTime::ticks), Some(-10));
        // 1/5 is not on the 12-tick grid: no rounding, just refusal.
        assert_eq!(s.from_rat(Rat::new(1, 5)), None);
        assert_eq!(s.from_rat(Rat::new(7, 13)), None);
    }

    #[test]
    fn from_rat_round_trips_through_to_rat() {
        let s = QScale::new(720_720);
        for (n, d) in [(1i64, 2i64), (7, 8), (719, 720), (5, 13), (-3, 11)] {
            let r = Rat::new(n, d);
            let t = s.from_rat(r).expect("grid denominators divide 720720");
            assert_eq!(s.to_rat(t), r);
        }
    }

    #[test]
    fn overflow_returns_none() {
        let s = QScale::new(720_720);
        assert_eq!(s.int(i64::MAX / 2), None);
        let big = s.int(i64::MAX / 720_720 - 1).expect("near the edge fits");
        assert_eq!(big.checked_add(big), None);
        assert_eq!(s.from_rat(Rat::int(i64::MAX / 2)), None);
    }

    #[test]
    fn checked_ops_are_tick_arithmetic() {
        let s = QScale::new(6);
        let a = s.from_rat(Rat::new(1, 2)).expect("1/2 on the 6-grid");
        let b = s.from_rat(Rat::new(1, 3)).expect("1/3 on the 6-grid");
        let sum = a.checked_add(b).expect("no overflow");
        assert_eq!(s.to_rat(sum), Rat::new(5, 6));
        let diff = a.checked_sub(b).expect("no overflow");
        assert_eq!(s.to_rat(diff), Rat::new(1, 6));
    }

    #[test]
    fn lcm_of_accumulates_and_checks() {
        assert_eq!(
            QScale::lcm_of([2, 3, 8]).map(QScale::ticks_per_quantum),
            Some(24)
        );
        assert_eq!(QScale::lcm_of([]).map(QScale::ticks_per_quantum), Some(1));
        assert_eq!(QScale::lcm_of([0]), None);
        // Pairwise-coprime primes near 2^32 overflow the i64 lcm.
        assert_eq!(QScale::lcm_of([4_294_967_291, 4_294_967_279]), None);
    }

    #[test]
    #[should_panic(expected = "positive ticks-per-quantum")]
    fn zero_scale_rejected() {
        let _ = QScale::new(0);
    }
}
