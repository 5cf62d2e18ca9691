//! The time tiers: exact `i64` ticks as the fast path, [`Rat`] as the
//! lossless fall-back.
//!
//! DVQ event times are rationals, but in any concrete run they live on a
//! *grid*: every decision time is an integer plus a sum of costs, and the
//! cost models draw costs whose denominators divide a small, known
//! constant (the workload generators' 720720 = lcm(1..13)). On that grid a
//! time is an integer count of **ticks** — `1/scale`-ths of a quantum —
//! and a heap compares plain integers instead of cross-multiplying `i128`
//! rationals. Every hot loop that exploits this is written once, generic
//! over a [`Tier`]: [`Ticks`] (`i64` ticks at one scale, summed in
//! `i128`) or [`Exact`] ([`Rat`]s).
//!
//! # The fallback contract
//!
//! Every conversion into a tier and every [`Tier::add`] is **checked**:
//! anything a tier cannot represent exactly — a value off the grid (its
//! reduced denominator does not divide the scale), or a tick count outside
//! `i64` — returns `None` instead of rounding. Callers treat `None` as
//! "leave the fast path": they migrate their state to [`Exact`] through
//! [`Tier::to_rat`], which is always exact (a tick count *is* a rational),
//! and resume. Ticks are an optimization, never a change of semantics.
//!
//! # The switch
//!
//! State written once over a [`Tier`] is held in a [`Tiered`]: on ticks,
//! or on exact rationals. [`on_tier!`](crate::on_tier!) runs code on the
//! state in its current tier, and
//! [`on_tier_or_exact!`](crate::on_tier_or_exact!) runs a fallible step there
//! and, when the ticks refuse it, moves the state to exact rationals
//! ([`Tiered::go_exact`], through the state's [`Lift`]) and runs the step
//! again. Every fallible conversion of a step must run before its side
//! effects, so a refused step changes nothing. The DVQ kernel's clock
//! and the streaming observers migrate this way mid-run; the post-hoc
//! analyses pick a tier once per schedule and never migrate.
//!
//! [`GRID`] is the one scale shared by everything that cannot read a scale
//! off its data in advance: the online schedulers' clocks and the
//! streaming observers.
//!
//! # Leaving ticks without dividing
//!
//! [`Tier::to_rat`] on ticks sits under every completion, batch instant
//! and cost draw of the simulators, and a reduction by gcd is a loop of
//! data-dependent steps. So [`Ticks::new`] factors its scale once over 2
//! and the odd primes of [`GRID`] = 2⁴·3²·5·7·11·13 (3 to 13), which
//! every scale the workloads use divides. When nothing else divides the
//! scale, a positive tick count `t` is reduced by cancelling common
//! factors only: `trailing_zeros` and a shift for the twos, then, for
//! each odd prime of the scale, a multiply by its inverse modulo 2⁶⁴
//! both tests whether it divides `t` and divides it exactly. No gcd loop, no divide
//! instruction. Any other scale, and any zero or negative count, falls
//! back to [`Rat::new`]. Both give the same `Rat`.

use core::fmt::Debug;
use core::ops::{Add, Sub};

use crate::int::checked_lcm_of;
use crate::rational::Rat;

/// `lcm(1..13)` ticks per quantum: the workload generators' cost grid, and
/// the tick scale of the online schedulers and the streaming observers.
pub const GRID: Ticks = Ticks::new(720_720);

/// The arithmetic of one run's times. See the module docs for the two
/// implementations and the fallback contract.
pub trait Tier {
    /// An instant, or the difference of two instants.
    type T: Copy + Ord + Debug + Sub<Output = Self::T>;
    /// A sum of durations.
    type Sum: Copy + Ord + Debug + Add<Output = Self::Sum> + Sub<Output = Self::Sum>;
    /// An event-heap entry: an instant paired with a 64-bit payload code,
    /// ordered by instant, then by code (see [`Tier::key`]).
    type Key: Copy + Ord + Debug;

    /// The integral instant `n` (quanta); `None` if unrepresentable.
    fn int(&self, n: i64) -> Option<Self::T>;
    /// `t`, exactly; `None` if unrepresentable. Never rounds.
    #[allow(clippy::wrong_self_convention)] // a conversion *into* the tier
    fn from_rat(&self, t: Rat) -> Option<Self::T>;
    /// The exact rational value of `t`. Total: both tiers represent
    /// rationals exactly, so nothing is lost leaving the fast tier.
    fn to_rat(&self, t: Self::T) -> Rat;
    /// `a + b`; `None` on overflow.
    fn add(&self, a: Self::T, b: Self::T) -> Option<Self::T>;
    /// `⌊t⌋`.
    fn floor(&self, t: Self::T) -> i64;
    /// Whether `t` is an integer.
    fn is_integral(&self, t: Self::T) -> bool;
    /// `t` as a summand.
    fn sum(&self, t: Self::T) -> Self::Sum;
    /// `k · s`.
    fn times(&self, k: i64, s: Self::Sum) -> Self::Sum;
    /// The exact value of `s`.
    fn sum_rat(&self, s: Self::Sum) -> Rat;
    /// `⌈s⌉`; `None` if it leaves `i64`.
    fn ceil(&self, s: Self::Sum) -> Option<i64>;
    /// `a / b` for `b > 0`, as a fraction `(num, den)` with `den > 0`, not
    /// necessarily reduced. On ticks the scale cancels.
    fn ratio(&self, a: Self::T, b: Self::T) -> (i128, i128);
    /// Packs `(t, code)` into a heap entry whose order is `(t, code)`
    /// order. Callers encode their event enums so that code order equals
    /// the enum's order.
    fn key(&self, t: Self::T, code: u64) -> Self::Key;
    /// Recovers `(t, code)` from a heap entry.
    fn split(&self, k: Self::Key) -> (Self::T, u64);
}

/// `i64` ticks at a fixed number of ticks per quantum — the fast tier.
///
/// The scale is not stored per value: a run fixes one scale up front and
/// all its ticks share it, which is what makes a comparison a single
/// `i64` compare. Mixing ticks from different scales is a caller bug.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Ticks {
    per_quantum: i64,
    /// The scale's prime factors, when they all lie in `{2} ∪
    /// ODD_PRIMES`: what lets [`Tier::to_rat`] reduce without dividing.
    smooth: Option<Smooth>,
}

/// The odd primes a scale may be built from for the division-free
/// reduction: those of `GRID` = 2⁴·3²·5·7·11·13, which every measured
/// scale divides.
const ODD_PRIMES: [u64; 5] = [3, 5, 7, 11, 13];

/// Per entry of [`ODD_PRIMES`]: the prime's inverse modulo 2⁶⁴ and
/// `u64::MAX / p`. `n` is a multiple of `p` iff `n · p⁻¹ mod 2⁶⁴` is at
/// most the bound, and then that product *is* `n / p` (Granlund &
/// Montgomery, "Division by invariant integers using multiplication",
/// 1994).
const ODD_INVERSES: [(u64, u64); ODD_PRIMES.len()] = {
    let mut table = [(0, 0); ODD_PRIMES.len()];
    let mut k = 0;
    while k < ODD_PRIMES.len() {
        let p = ODD_PRIMES[k];
        // Newton's iteration x ← x·(2 − p·x) doubles the correct low
        // bits; p·p ≡ 1 (mod 8) gives the first 3, five steps give 96.
        let mut inv = p;
        let mut step = 0;
        while step < 5 {
            inv = inv.wrapping_mul(2u64.wrapping_sub(p.wrapping_mul(inv)));
            step += 1;
        }
        table[k] = (inv, u64::MAX / p);
        k += 1;
    }
    table
};

/// A scale `2^twos · Π ODD_PRIMES[k]^odd[k]`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct Smooth {
    twos: u32,
    odd: [u8; ODD_PRIMES.len()],
}

impl Smooth {
    /// The factorization of `scale > 0`, or `None` if a prime outside
    /// the table divides it.
    const fn of(scale: i64) -> Option<Smooth> {
        let mut rest = scale.unsigned_abs();
        let twos = rest.trailing_zeros();
        rest >>= twos;
        let mut odd = [0; ODD_PRIMES.len()];
        let mut k = 0;
        while k < ODD_PRIMES.len() {
            while rest.is_multiple_of(ODD_PRIMES[k]) {
                rest /= ODD_PRIMES[k];
                odd[k] += 1;
            }
            k += 1;
        }
        if rest == 1 {
            Some(Smooth { twos, odd })
        } else {
            None
        }
    }

    /// `t / scale` in lowest terms for `t > 0`, with no gcd loop and no
    /// divide instruction: a shift cancels the common twos, and each odd
    /// prime of the scale is cancelled by exact division (a multiply by
    /// its inverse) while it divides the numerator.
    fn reduce(self, t: u64, scale: u64) -> Rat {
        let twos = t.trailing_zeros().min(self.twos);
        let (mut num, mut den) = (t >> twos, scale >> twos);
        for (&(inv, bound), &e) in ODD_INVERSES.iter().zip(&self.odd) {
            for _ in 0..e {
                let q = num.wrapping_mul(inv);
                if q > bound {
                    break;
                }
                num = q;
                den = den.wrapping_mul(inv);
            }
        }
        // Both shrank from a positive `i64` each.
        Rat::from_reduced(num as i64, den as i64)
    }
}

/// Order-preserving lift of an `i64` into `u64` (flip the sign bit).
const SIGN: u64 = 1 << 63;

impl Ticks {
    /// A tier of `per_quantum` ticks per quantum.
    ///
    /// # Panics
    /// Panics unless `per_quantum > 0`.
    #[must_use]
    pub const fn new(per_quantum: i64) -> Ticks {
        assert!(
            per_quantum > 0,
            "Ticks requires a positive ticks-per-quantum"
        );
        Ticks {
            per_quantum,
            smooth: Smooth::of(per_quantum),
        }
    }

    /// The smallest scale representing every denominator in `dens` exactly:
    /// their (checked) lcm. `None` if the lcm overflows `i64` or any
    /// denominator is non-positive; an empty iterator yields scale 1.
    #[must_use]
    pub fn lcm_of(dens: impl IntoIterator<Item = i64>) -> Option<Ticks> {
        checked_lcm_of(dens).map(Ticks::new)
    }

    /// Ticks per quantum.
    #[must_use]
    pub const fn per_quantum(self) -> i64 {
        self.per_quantum
    }
}

impl Tier for Ticks {
    type T = i64;
    type Sum = i128;
    type Key = u128;

    fn int(&self, n: i64) -> Option<i64> {
        n.checked_mul(self.per_quantum)
    }

    fn from_rat(&self, t: Rat) -> Option<i64> {
        // Machine words only: i128 division is a library call, and the
        // online event queue converts every instant it queues. A
        // denominator wider than i64 exceeds the scale, so cannot divide
        // it; a numerator wider than i64 gives a tick count wider still.
        let den = i64::try_from(t.den()).ok()?;
        if self.per_quantum % den != 0 {
            // `t` is reduced, so `num·scale/den` is integral iff den | scale.
            return None;
        }
        i64::try_from(t.num())
            .ok()?
            .checked_mul(self.per_quantum / den)
    }

    /// Division-free on a scale of small primes for `t > 0` (see the
    /// module docs); `Rat::new`'s gcd otherwise.
    fn to_rat(&self, t: i64) -> Rat {
        match self.smooth {
            Some(smooth) if t > 0 => smooth.reduce(t as u64, self.per_quantum as u64),
            _ => Rat::new(t, self.per_quantum),
        }
    }

    fn add(&self, a: i64, b: i64) -> Option<i64> {
        a.checked_add(b)
    }

    fn floor(&self, t: i64) -> i64 {
        t.div_euclid(self.per_quantum)
    }

    fn is_integral(&self, t: i64) -> bool {
        t % self.per_quantum == 0
    }

    fn sum(&self, t: i64) -> i128 {
        i128::from(t)
    }

    fn times(&self, k: i64, s: i128) -> i128 {
        i128::from(k) * s
    }

    fn sum_rat(&self, s: i128) -> Rat {
        Rat::new_i128(s, i128::from(self.per_quantum))
    }

    fn ceil(&self, s: i128) -> Option<i64> {
        let q = i128::from(self.per_quantum);
        i64::try_from(-s.checked_neg()?.div_euclid(q)).ok()
    }

    fn ratio(&self, a: i64, b: i64) -> (i128, i128) {
        (i128::from(a), i128::from(b))
    }

    /// Sign-flipped ticks in the high half, the code in the low half: a
    /// heap sift step is one wide-integer compare.
    fn key(&self, t: i64, code: u64) -> u128 {
        (u128::from((t as u64) ^ SIGN) << 64) | u128::from(code)
    }

    #[allow(clippy::cast_possible_truncation)] // unpacks the two halves
    fn split(&self, k: u128) -> (i64, u64) {
        ((((k >> 64) as u64) ^ SIGN) as i64, k as u64)
    }
}

/// State on ticks (`T`) or on exact rationals (`E`). See the module docs
/// for the switch.
#[derive(Clone, Debug)]
pub enum Tiered<T, E = <T as Lift>::Exact> {
    /// The fast tier.
    Ticks(T),
    /// The exact tier.
    Exact(E),
}

/// Tick state that can move to [`Exact`] losslessly.
pub trait Lift {
    /// The same state on exact rationals.
    type Exact;
    /// Converts every time with [`Tier::to_rat`].
    fn to_exact(&self) -> Self::Exact;
}

impl<T, E> Tiered<T, E> {
    /// Whether the state is still on ticks.
    pub fn on_ticks(&self) -> bool {
        matches!(self, Tiered::Ticks(_))
    }
}

impl<T: Lift<Exact = E>, E> Tiered<T, E> {
    /// Moves the state to exact rationals, if it is not there yet.
    pub fn go_exact(&mut self) {
        if let Tiered::Ticks(s) = self {
            *self = Tiered::Exact(s.to_exact());
        }
    }
}

/// Runs `$body` with `$s` bound to the state of a
/// [`Tiered`](crate::Tiered) in its current tier.
#[macro_export]
macro_rules! on_tier {
    ($state:expr, |$s:ident| $body:expr) => {
        match $state {
            $crate::Tiered::Ticks($s) => $body,
            $crate::Tiered::Exact($s) => $body,
        }
    };
}

/// Runs the fallible `$body` on the state of a
/// [`Tiered`](crate::Tiered) in its current tier; if the ticks refuse
/// (`None`), moves to exact rationals and runs it again there, where it
/// cannot fail.
#[macro_export]
macro_rules! on_tier_or_exact {
    ($state:expr, |$s:ident| $body:expr) => {
        match $crate::on_tier!(&mut $state, |$s| $body) {
            Some(v) => v,
            None => {
                $state.go_exact();
                $crate::on_tier!(&mut $state, |$s| $body)
                    .expect("the exact tier represents every time")
            }
        }
    };
}

/// Exact rational times — the reference tier.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Exact;

impl Tier for Exact {
    type T = Rat;
    type Sum = Rat;
    type Key = (Rat, u64);

    fn int(&self, n: i64) -> Option<Rat> {
        Some(Rat::int(n))
    }

    fn from_rat(&self, t: Rat) -> Option<Rat> {
        Some(t)
    }

    fn to_rat(&self, t: Rat) -> Rat {
        t
    }

    fn add(&self, a: Rat, b: Rat) -> Option<Rat> {
        Some(a + b)
    }

    fn floor(&self, t: Rat) -> i64 {
        t.floor()
    }

    fn is_integral(&self, t: Rat) -> bool {
        t.is_integer()
    }

    fn sum(&self, t: Rat) -> Rat {
        t
    }

    fn times(&self, k: i64, s: Rat) -> Rat {
        Rat::int(k) * s
    }

    fn sum_rat(&self, s: Rat) -> Rat {
        s
    }

    fn ceil(&self, s: Rat) -> Option<i64> {
        i64::try_from(-(-s.num()).div_euclid(s.den())).ok()
    }

    fn ratio(&self, a: Rat, b: Rat) -> (i128, i128) {
        let q = a / b;
        (q.num(), q.den())
    }

    fn key(&self, t: Rat, code: u64) -> (Rat, u64) {
        (t, code)
    }

    fn split(&self, k: (Rat, u64)) -> (Rat, u64) {
        k
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn int_and_to_rat_round_trip() {
        let s = Ticks::new(720_720);
        for n in [-3i64, 0, 1, 24, 1000] {
            let t = s.int(n).expect("small integers fit any sane scale");
            assert_eq!(s.to_rat(t), Rat::int(n));
        }
    }

    #[test]
    fn from_rat_is_exact_only() {
        let s = Ticks::new(12);
        assert_eq!(s.from_rat(Rat::new(1, 4)), Some(3));
        assert_eq!(s.from_rat(Rat::new(-5, 6)), Some(-10));
        // 1/5 is not on the 12-tick grid: no rounding, just refusal.
        assert_eq!(s.from_rat(Rat::new(1, 5)), None);
        assert_eq!(s.from_rat(Rat::new(7, 13)), None);
    }

    #[test]
    fn from_rat_round_trips_through_to_rat() {
        let s = Ticks::new(720_720);
        for (n, d) in [(1i64, 2i64), (7, 8), (719, 720), (5, 13), (-3, 11)] {
            let r = Rat::new(n, d);
            let t = s.from_rat(r).expect("grid denominators divide 720720");
            assert_eq!(s.to_rat(t), r);
        }
    }

    #[test]
    fn overflow_returns_none() {
        let s = Ticks::new(720_720);
        assert_eq!(s.int(i64::MAX / 2), None);
        let big = s.int(i64::MAX / 720_720 - 1).expect("near the edge fits");
        assert_eq!(s.add(big, big), None);
        assert_eq!(s.from_rat(Rat::int(i64::MAX / 2)), None);
    }

    #[test]
    fn tick_arithmetic_agrees_with_exact() {
        let s = Ticks::new(6);
        let a = s.from_rat(Rat::new(1, 2)).expect("1/2 on the 6-grid");
        let b = s.from_rat(Rat::new(1, 3)).expect("1/3 on the 6-grid");
        assert_eq!(s.to_rat(s.add(a, b).expect("no overflow")), Rat::new(5, 6));
        assert_eq!(s.to_rat(a - b), Rat::new(1, 6));
        assert_eq!(s.floor(s.int(-2).unwrap() + a), -2);
        assert!(s.is_integral(s.int(7).unwrap()) && !s.is_integral(a));
        let total = s.times(3, s.sum(a)) + s.sum(b);
        assert_eq!(s.sum_rat(total), Rat::new(11, 6));
        let e = Exact;
        let (ra, rb) = (Rat::new(1, 2), Rat::new(1, 3));
        assert_eq!(e.add(ra, rb), Some(Rat::new(5, 6)));
        assert_eq!(
            e.sum_rat(e.times(3, e.sum(ra)) + e.sum(rb)),
            Rat::new(11, 6)
        );
        assert_eq!((e.floor(Rat::new(-3, 2)), e.is_integral(ra)), (-2, false));
    }

    #[test]
    fn ceil_and_ratio_agree_with_exact() {
        let s = Ticks::new(6);
        for (n, d) in [(7i64, 6i64), (-7, 6), (2, 1), (0, 1), (1, 3)] {
            let r = Rat::new(n, d);
            let t = s.from_rat(r).expect("on the 6-grid");
            assert_eq!(s.ceil(s.sum(t)), Some(r.ceil()), "ceil {r}");
            assert_eq!(Exact.ceil(r), Some(r.ceil()), "exact ceil {r}");
        }
        assert_eq!(s.ceil(i128::MAX), None);
        assert_eq!(Exact.ceil(Rat::new_i128(i128::MAX, 1)), None);
        let (a, b) = (Rat::new(5, 2), Rat::new(3, 4));
        let s = Ticks::new(12);
        let (ta, tb) = (s.from_rat(a).unwrap(), s.from_rat(b).unwrap());
        let (n, d) = s.ratio(ta, tb);
        assert_eq!(Rat::new_i128(n, d), a / b);
        let (n, d) = Exact.ratio(a, b);
        assert_eq!(Rat::new_i128(n, d), Rat::new(10, 3));
        assert_eq!(GRID.per_quantum(), 720_720);
    }

    #[test]
    fn keys_split_back() {
        let s = Ticks::new(6);
        for (t, code) in [
            (i64::MIN, 0u64),
            (-1, u64::MAX),
            (0, 7),
            (i64::MAX, 1 << 32),
        ] {
            assert_eq!(s.split(s.key(t, code)), (t, code));
        }
        assert!(s.key(-1, u64::MAX) < s.key(0, 0));
        assert_eq!(Exact.split(Exact.key(Rat::ONE, 3)), (Rat::ONE, 3));
    }

    #[test]
    fn lcm_of_accumulates_and_checks() {
        assert_eq!(Ticks::lcm_of([2, 3, 8]).map(Ticks::per_quantum), Some(24));
        assert_eq!(Ticks::lcm_of([]).map(Ticks::per_quantum), Some(1));
        assert_eq!(Ticks::lcm_of([0]), None);
        // Pairwise-coprime primes near 2^32 overflow the i64 lcm.
        assert_eq!(Ticks::lcm_of([4_294_967_291, 4_294_967_279]), None);
    }

    #[test]
    #[should_panic(expected = "positive ticks-per-quantum")]
    fn zero_scale_rejected() {
        let _ = Ticks::new(0);
    }

    #[test]
    fn scales_factor_over_the_table() {
        assert_eq!(
            GRID.smooth,
            Some(Smooth {
                twos: 4,
                odd: [2, 1, 1, 1, 1]
            })
        );
        assert!(Ticks::new(1).smooth.is_some());
        assert!(Ticks::new(13 << 40).smooth.is_some());
        assert_eq!(Ticks::new(17).smooth, None);
        assert_eq!(Ticks::new(4_194_301).smooth, None);
        assert_eq!(Ticks::new(720_720 * 41).smooth, None);
        for (k, &(inv, bound)) in ODD_INVERSES.iter().enumerate() {
            assert_eq!(ODD_PRIMES[k].wrapping_mul(inv), 1);
            assert_eq!(bound, u64::MAX / ODD_PRIMES[k]);
        }
    }

    /// Every tick count of four quanta around zero at GRID: far too many
    /// for a debug build, a fraction of a second in release.
    #[test]
    #[cfg_attr(debug_assertions, ignore = "exhaustive; run with --release")]
    fn to_rat_matches_rat_new_across_four_grid_quanta() {
        let q = GRID.per_quantum();
        for t in -2 * q..=2 * q {
            assert_eq!(GRID.to_rat(t), Rat::new(t, q), "{t}");
        }
    }

    /// A scale `2^twos · Π ODD_PRIMES[k]^exps[k]`, skipping any factor
    /// that would leave `i64`, times `foreign` (1 for a smooth scale).
    fn scale_of(twos: u32, exps: &[u32], foreign: i64) -> i64 {
        let mut scale = 1i64 << twos;
        for (&p, &e) in ODD_PRIMES.iter().zip(exps) {
            for _ in 0..e {
                scale = scale.checked_mul(p as i64).unwrap_or(scale);
            }
        }
        scale.checked_mul(foreign).unwrap_or(foreign)
    }

    proptest::proptest! {
        /// The division-free reduction and its fallback agree with
        /// `Rat::new` on smooth scales, on scales with a prime outside
        /// the table, and on every kind of tick count.
        #[test]
        fn prop_to_rat_matches_rat_new(
            twos in 0u32..=20,
            exps in proptest::collection::vec(0u32..=2, ODD_PRIMES.len()),
            foreign in 0usize..4,
            kind in 0usize..5,
            edge in 0usize..7,
            raw in i64::MIN..=i64::MAX,
            small in -100_000i64..=100_000,
            mult in -64i64..=64,
        ) {
            let foreign = [1, 1, 4_194_301, 17][foreign];
            let scale = scale_of(twos, &exps, foreign);
            let s = Ticks::new(scale);
            proptest::prop_assert_eq!(s.smooth.is_some(), foreign == 1);
            let edges = [0, 1, -1, i64::MAX, -i64::MAX, i64::MIN, scale];
            let t = match kind {
                0 => raw,
                1 => small,
                2 => edges[edge],
                // Multiples of the scale cancel every factor.
                3 => scale.checked_mul(mult).unwrap_or(raw),
                _ => small.checked_mul(1 << twos).unwrap_or(raw),
            };
            proptest::prop_assert_eq!(s.to_rat(t), Rat::new(t, scale), "{}/{}", t, scale);
        }
    }
}
