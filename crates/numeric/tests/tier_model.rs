//! Model-based properties for the [`Ticks`] tier, the fixed-point fast
//! path.
//!
//! Every `Ticks` op must agree with a naive `i128` rational reference
//! model on GRID-scale operands (the denominators the workload generators
//! actually produce), and every edge the fast path cannot represent —
//! off-grid denominators, tick counts past `i64` — must come back as
//! `None` while exact [`Rat`] arithmetic (the fallback the simulators
//! migrate to) still carries the true value. Companion to
//! `overflow_edges.rs`, one layer down: that file pins `Rat` to the
//! reference model, this one pins `Ticks` to `Rat`.

use pfair_numeric::{gcd_i128, Rat, Ticks, Tier};
use proptest::collection;
use proptest::prelude::*;

/// The cost grid used by the workload generators.
const GRID: i64 = 720_720;

/// Naive reference rational: cross-multiply in `i128`, reduce once at the
/// end — deliberately free of the tick representation under test.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct Ref {
    num: i128,
    den: i128,
}

impl Ref {
    fn new(num: i128, den: i128) -> Ref {
        assert!(den != 0);
        let g = gcd_i128(num, den);
        let (mut num, mut den) = if g == 0 { (0, 1) } else { (num / g, den / g) };
        if den < 0 {
            num = -num;
            den = -den;
        }
        Ref { num, den }
    }

    fn of(r: Rat) -> Ref {
        Ref::new(r.num(), r.den())
    }

    fn add(self, o: Ref) -> Ref {
        Ref::new(self.num * o.den + o.num * self.den, self.den * o.den)
    }

    fn sub(self, o: Ref) -> Ref {
        Ref::new(self.num * o.den - o.num * self.den, self.den * o.den)
    }
}

proptest! {
    /// Conversion is exact both ways: ticks of `a/GRID` at scale GRID are
    /// exactly `a`, and `to_rat ∘ from_rat` is the identity.
    #[test]
    fn prop_grid_conversion_round_trips(a in -20_000_000i64..20_000_000) {
        let s = Ticks::new(GRID);
        let r = Rat::new(a, GRID);
        let t = s.from_rat(r).expect("GRID-denominator value is on the grid");
        prop_assert_eq!(t, a);
        prop_assert_eq!(s.to_rat(t), r);
    }

    /// Checked add and tick subtraction agree with the i128 reference model wherever they
    /// return `Some` — across event-time magnitudes (thousands of quanta)
    /// combined with single-quantum grid costs, the DVQ loop's exact mix.
    #[test]
    fn prop_ops_agree_with_i128_reference(
        quanta in -100_000i64..100_000,
        a in -GRID..=GRID,
        b in -GRID..=GRID,
    ) {
        let s = Ticks::new(GRID);
        let base = s.int(quanta).expect("10^5 quanta fit the GRID scale");
        let ca = s.from_rat(Rat::new(a, GRID)).expect("on grid");
        let cb = s.from_rat(Rat::new(b, GRID)).expect("on grid");

        let m = |r: Rat| Ref::of(r);
        let sum = s
            .add(base, ca)
            .and_then(|t| s.add(t, cb))
            .expect("well within i64 ticks");
        prop_assert_eq!(
            m(s.to_rat(sum)),
            m(Rat::int(quanta)).add(m(Rat::new(a, GRID))).add(m(Rat::new(b, GRID)))
        );
        let diff = base - ca;
        prop_assert_eq!(
            m(s.to_rat(diff)),
            m(Rat::int(quanta)).sub(m(Rat::new(a, GRID)))
        );
    }

    /// Ordering of tick counts is the ordering of the rationals they
    /// denote — the whole point of the fast path's heap keys.
    #[test]
    fn prop_tick_order_is_rational_order(
        a in -20_000_000i64..20_000_000,
        b in -20_000_000i64..20_000_000,
    ) {
        let s = Ticks::new(GRID);
        let (ta, tb) = (
            s.from_rat(Rat::new(a, GRID)).expect("on grid"),
            s.from_rat(Rat::new(b, GRID)).expect("on grid"),
        );
        prop_assert_eq!(ta.cmp(&tb), s.to_rat(ta).cmp(&s.to_rat(tb)));
    }

    /// Forced overflow: push a tick count past `i64::MAX`. The checked op
    /// must refuse (`None`), and the exact fallback — plain `Rat`
    /// arithmetic on the same values — must still produce the true result,
    /// matching the reference model.
    #[test]
    fn prop_overflow_takes_the_exact_fallback(extra in 1i64..1_000_000) {
        let s = Ticks::new(GRID);
        let near_max = i64::MAX / GRID;
        let big = s.int(near_max).expect("floor(i64::MAX/GRID) quanta fit");
        let step = s.int(extra).expect("small step fits");
        // Tick arithmetic refuses…
        prop_assert_eq!(s.add(big, step), None);
        prop_assert_eq!(s.int(near_max.checked_add(extra).expect("i64 sum")), None);
        // …and the exact domain carries on, agreeing with the reference.
        let exact = s.to_rat(big) + Rat::int(extra);
        prop_assert_eq!(
            Ref::of(exact),
            Ref::of(s.to_rat(big)).add(Ref::of(Rat::int(extra)))
        );
    }

    /// Off-grid denominators are refused exactly (never rounded): `p/q`
    /// with `q` coprime to the grid converts iff `q == 1`, and the exact
    /// fallback represents it regardless.
    #[test]
    fn prop_off_grid_is_refused_not_rounded(p in 1i64..1_000, q in 1i64..1_000) {
        let s = Ticks::new(GRID);
        let r = Rat::new(p, q);
        match s.from_rat(r) {
            Some(t) => {
                // Accepted ⇒ the reduced denominator divides the grid and
                // the round trip is exact.
                prop_assert_eq!(GRID % r.den_i64(), 0);
                prop_assert_eq!(s.to_rat(t), r);
            }
            None => {
                // Refused ⇒ genuinely off-grid; the fallback still has it.
                prop_assert!(GRID % r.den_i64() != 0);
                prop_assert_eq!(Ref::of(r), Ref::new(i128::from(p), i128::from(q)));
            }
        }
    }
    /// Packed heap keys sort exactly as the `(ticks, code)` pairs they
    /// pack, negative ticks included: a heap over `Ticks::key`s pops in
    /// the same order as one over the pairs.
    #[test]
    fn prop_packed_keys_sort_as_pairs(
        wide in collection::vec((i64::MIN..=i64::MAX, 0u64..=u64::MAX), 0..32),
        narrow in collection::vec((-3i64..=3, 0u64..=3), 0..32),
    ) {
        // The narrow pairs collide on ticks, so the code breaks ties.
        let pairs: Vec<(i64, u64)> = wide.into_iter().chain(narrow).collect();
        let s = Ticks::new(GRID);
        let mut keys: Vec<u128> = pairs.iter().map(|&(t, c)| s.key(t, c)).collect();
        keys.sort_unstable();
        let mut sorted = pairs.clone();
        sorted.sort_unstable();
        let unpacked: Vec<(i64, u64)> = keys.into_iter().map(|k| s.split(k)).collect();
        prop_assert_eq!(unpacked, sorted);
    }
}

/// Deterministic forced-overflow edge: the largest representable integral
/// time, one tick past it, and zero ticks as the additive identity.
#[test]
fn overflow_edge_is_one_tick_wide() {
    let s = Ticks::new(GRID);
    let max_quanta = i64::MAX / GRID;
    let edge = s.int(max_quanta).expect("max integral time fits");
    assert_eq!(s.int(max_quanta + 1), None);
    assert_eq!(s.add(edge, 0), Some(edge));
    let tick = s
        .from_rat(Rat::new(1, GRID))
        .expect("one tick is on the grid");
    // One whole quantum past the edge must refuse; a single tick still
    // fits (i64::MAX − max_quanta·GRID ≥ 1 tick of headroom here).
    assert_eq!(s.add(edge, s.int(1).expect("one quantum fits")), None);
    assert_eq!(s.add(edge, tick), Some(max_quanta * GRID + 1));
}
