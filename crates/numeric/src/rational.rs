//! An exact, always-reduced rational number.
//!
//! [`Rat`] is the workhorse numeric type of the workspace: task weights
//! (`wt(T) = T.e / T.p`), utilization sums, DVQ event times, and actual
//! execution costs `c(T_i) ∈ (0, 1]` are all `Rat`s. All arithmetic is
//! exact; components are stored as `i128` so that lag sums over
//! GRID-resolution (denominator 720720) cost models — whose reduced
//! denominators are products of several near-coprime cost numerators and
//! genuinely exceed `i64` — stay representable. Every operation first
//! reduces through gcd factoring (Knuth 4.5.1) and only panics, with a
//! diagnostic message naming the operands, if the *reduced* result still
//! exceeds `i128`.

use core::cmp::Ordering;
use core::fmt;
use core::ops::{Add, AddAssign, Div, DivAssign, Mul, MulAssign, Neg, Sub, SubAssign};

use serde::{Deserialize, Serialize, Value};

use crate::int::gcd_i128;

/// An exact rational number `num / den` with `den > 0`, always reduced.
///
/// ```
/// use pfair_numeric::Rat;
/// let half = Rat::new(1, 2);
/// let third = Rat::new(1, 3);
/// assert_eq!(half + third, Rat::new(5, 6));
/// assert!(half > third);
/// assert_eq!((half * Rat::int(4)).to_string(), "2");
/// ```
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
pub struct Rat {
    num: i128,
    den: i128,
}

#[cold]
#[inline(never)]
fn overflow_panic(op: &str, a: Rat, b: Rat) -> ! {
    panic!(
        "Rat overflow: {a} {op} {b} is not representable even after reduction (i128 components)"
    );
}

impl Rat {
    /// Zero.
    pub const ZERO: Rat = Rat { num: 0, den: 1 };
    /// One (one quantum, when used as a duration).
    pub const ONE: Rat = Rat { num: 1, den: 1 };

    /// Creates `num / den`, reduced to lowest terms.
    ///
    /// Reduction runs in machine words — for word-sized components the
    /// divisions by the gcd are single instructions, not the `i128`
    /// library calls [`Rat::new_i128`] needs. This constructor sits under
    /// every tick→rational conversion and cost draw in the simulators'
    /// hot paths.
    ///
    /// # Panics
    /// Panics if `den == 0`.
    #[must_use]
    pub fn new(num: i64, den: i64) -> Rat {
        if num == i64::MIN || den == i64::MIN {
            // `i64::MIN / -1` would overflow; take the wide path.
            return Rat::new_i128(i128::from(num), i128::from(den));
        }
        assert!(den != 0, "Rat denominator must be nonzero");
        let g = crate::int::gcd(num, den);
        if g == 0 {
            return Rat::ZERO;
        }
        let (mut num, mut den) = (num / g, den / g);
        if den < 0 {
            num = -num;
            den = -den;
        }
        Rat {
            num: i128::from(num),
            den: i128::from(den),
        }
    }

    /// `num / den` from a fraction already in lowest terms with
    /// `den > 0`, with no reduction: for callers that cancelled the
    /// common factors themselves (the tick tier's division-free
    /// reduction).
    pub(crate) fn from_reduced(num: i64, den: i64) -> Rat {
        debug_assert!(
            den > 0 && crate::int::gcd(num, den) == 1,
            "{num}/{den} is not in lowest terms"
        );
        Rat {
            num: i128::from(num),
            den: i128::from(den),
        }
    }

    /// Creates `num / den` from full-width components, reduced to lowest
    /// terms.
    ///
    /// # Panics
    /// Panics if `den == 0`, or if either component is `i128::MIN` (whose
    /// negation is unrepresentable).
    #[must_use]
    pub fn new_i128(num: i128, den: i128) -> Rat {
        assert!(den != 0, "Rat denominator must be nonzero");
        assert!(
            num != i128::MIN && den != i128::MIN,
            "Rat component i128::MIN is not supported (negation overflows)"
        );
        let g = gcd_i128(num, den);
        if g == 0 {
            return Rat::ZERO;
        }
        let (mut num, mut den) = (num / g, den / g);
        if den < 0 {
            num = -num;
            den = -den;
        }
        Rat { num, den }
    }

    /// Creates the integer `n`.
    #[must_use]
    pub const fn int(n: i64) -> Rat {
        Rat {
            num: n as i128,
            den: 1,
        }
    }

    /// Numerator (of the reduced form; sign lives here).
    #[must_use]
    pub const fn num(self) -> i128 {
        self.num
    }

    /// Denominator (of the reduced form; always positive).
    #[must_use]
    pub const fn den(self) -> i128 {
        self.den
    }

    /// Numerator as `i64`, for callers marshalling into narrow interfaces.
    ///
    /// # Panics
    /// Panics with a diagnostic if the numerator exceeds `i64`.
    #[must_use]
    pub fn num_i64(self) -> i64 {
        i64::try_from(self.num)
            .unwrap_or_else(|_| panic!("Rat numerator {} does not fit in i64", self.num))
    }

    /// Denominator as `i64`, for callers marshalling into narrow interfaces.
    ///
    /// # Panics
    /// Panics with a diagnostic if the denominator exceeds `i64`.
    #[must_use]
    pub fn den_i64(self) -> i64 {
        i64::try_from(self.den)
            .unwrap_or_else(|_| panic!("Rat denominator {} does not fit in i64", self.den))
    }

    /// `true` iff the value is an integer.
    #[must_use]
    pub const fn is_integer(self) -> bool {
        self.den == 1
    }

    /// `true` iff the value is zero.
    #[must_use]
    pub const fn is_zero(self) -> bool {
        self.num == 0
    }

    /// `true` iff the value is strictly positive.
    #[must_use]
    pub const fn is_positive(self) -> bool {
        self.num > 0
    }

    /// `true` iff the value is strictly negative.
    #[must_use]
    pub const fn is_negative(self) -> bool {
        self.num < 0
    }

    /// Largest integer `≤ self`.
    ///
    /// # Panics
    /// Panics with a diagnostic if the floor exceeds `i64` (schedule-scale
    /// values never do).
    #[must_use]
    pub fn floor(self) -> i64 {
        let f = self.num.div_euclid(self.den);
        i64::try_from(f).unwrap_or_else(|_| panic!("Rat::floor of {self} does not fit in i64"))
    }

    /// Smallest integer `≥ self`.
    ///
    /// # Panics
    /// Panics with a diagnostic if the ceiling exceeds `i64`.
    #[must_use]
    pub fn ceil(self) -> i64 {
        let c = -(-self.num).div_euclid(self.den);
        i64::try_from(c).unwrap_or_else(|_| panic!("Rat::ceil of {self} does not fit in i64"))
    }

    /// Fractional part `self − ⌊self⌋`, in `[0, 1)`.
    #[must_use]
    pub fn fract(self) -> Rat {
        self - Rat::int(self.floor())
    }

    /// Absolute value.
    #[must_use]
    pub fn abs(self) -> Rat {
        Rat {
            num: self.num.abs(),
            den: self.den,
        }
    }

    /// The smaller of two rationals.
    #[must_use]
    pub fn min(self, other: Rat) -> Rat {
        if self <= other {
            self
        } else {
            other
        }
    }

    /// The larger of two rationals.
    #[must_use]
    pub fn max(self, other: Rat) -> Rat {
        if self >= other {
            self
        } else {
            other
        }
    }

    /// Reciprocal.
    ///
    /// # Panics
    /// Panics if `self` is zero.
    #[must_use]
    pub fn recip(self) -> Rat {
        assert!(self.num != 0, "Rat::recip of zero");
        let (mut num, mut den) = (self.den, self.num);
        if den < 0 {
            num = -num;
            den = -den;
        }
        Rat { num, den }
    }

    /// Lossy conversion to `f64` (for reporting / plotting only; never used
    /// in scheduling decisions).
    #[must_use]
    // pfair-lint: allow(no-float-time): the one sanctioned Rat→float exit, for reports/plots only.
    pub fn to_f64(self) -> f64 {
        // pfair-lint: allow(no-float-time): float arithmetic is confined to this body.
        self.num as f64 / self.den as f64
    }
}

impl Default for Rat {
    fn default() -> Self {
        Rat::ZERO
    }
}

impl From<i64> for Rat {
    fn from(n: i64) -> Rat {
        Rat::int(n)
    }
}

impl From<u32> for Rat {
    fn from(n: u32) -> Rat {
        Rat::int(i64::from(n))
    }
}

impl Add for Rat {
    /// Knuth 4.5.1 gcd-factored addition: reduce by `g = gcd(den, den)`
    /// before cross-multiplying so intermediates stay within `i128`
    /// whenever the reduced result does.
    type Output = Rat;
    fn add(self, rhs: Rat) -> Rat {
        let g = gcd_i128(self.den, rhs.den);
        // g ≥ 1: both denominators are positive.
        let rd = rhs.den / g;
        let ld = self.den / g;
        let num = self
            .num
            .checked_mul(rd)
            .and_then(|l| rhs.num.checked_mul(ld).and_then(|r| l.checked_add(r)));
        let den = self.den.checked_mul(rd);
        let (Some(num), Some(den)) = (num, den) else {
            overflow_panic("+", self, rhs);
        };
        let g2 = gcd_i128(num, den);
        if g2 == 0 {
            return Rat::ZERO;
        }
        Rat {
            num: num / g2,
            den: den / g2,
        }
    }
}

impl Sub for Rat {
    type Output = Rat;
    fn sub(self, rhs: Rat) -> Rat {
        self + (-rhs)
    }
}

impl Mul for Rat {
    /// Cross-reduced multiplication: `gcd(a.num, b.den)` and
    /// `gcd(b.num, a.den)` are divided out first, so the result of
    /// multiplying two reduced rationals is reduced by construction and
    /// the intermediates are as small as possible.
    type Output = Rat;
    fn mul(self, rhs: Rat) -> Rat {
        let g1 = gcd_i128(self.num, rhs.den).max(1);
        let g2 = gcd_i128(rhs.num, self.den).max(1);
        let num = (self.num / g1).checked_mul(rhs.num / g2);
        let den = (self.den / g2).checked_mul(rhs.den / g1);
        let (Some(num), Some(den)) = (num, den) else {
            overflow_panic("*", self, rhs);
        };
        Rat { num, den }
    }
}

impl Div for Rat {
    type Output = Rat;
    fn div(self, rhs: Rat) -> Rat {
        assert!(rhs.num != 0, "Rat division by zero");
        self * rhs.recip()
    }
}

impl Neg for Rat {
    type Output = Rat;
    fn neg(self) -> Rat {
        Rat {
            num: -self.num,
            den: self.den,
        }
    }
}

impl AddAssign for Rat {
    fn add_assign(&mut self, rhs: Rat) {
        *self = *self + rhs;
    }
}

impl SubAssign for Rat {
    fn sub_assign(&mut self, rhs: Rat) {
        *self = *self - rhs;
    }
}

impl MulAssign for Rat {
    fn mul_assign(&mut self, rhs: Rat) {
        *self = *self * rhs;
    }
}

impl DivAssign for Rat {
    fn div_assign(&mut self, rhs: Rat) {
        *self = *self / rhs;
    }
}

impl PartialOrd for Rat {
    fn partial_cmp(&self, other: &Rat) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Rat {
    fn cmp(&self, other: &Rat) -> Ordering {
        // den > 0 on both sides, so cross-multiplication preserves order.
        // Products of `i64`-range factors are at most 2¹²⁶ in magnitude, so
        // when all four components fit `i64` they cannot overflow `i128`.
        if [self.num, self.den, other.num, other.den]
            .into_iter()
            .all(|x| i64::try_from(x).is_ok())
        {
            return (self.num * other.den).cmp(&(other.num * self.den));
        }
        cmp_checked(*self, *other)
    }
}

/// Cross-multiplied comparison with checked products. They overflow
/// `i128` only for lag-scale denominators; fall back to the exact
/// continued-fraction walk in that (cold) case.
fn cmp_checked(a: Rat, b: Rat) -> Ordering {
    match (a.num.checked_mul(b.den), b.num.checked_mul(a.den)) {
        (Some(lhs), Some(rhs)) => lhs.cmp(&rhs),
        _ => cmp_wide(a, b),
    }
}

/// Exact comparison of two rationals whose cross-products overflow `i128`:
/// compare signs, then walk the continued-fraction expansions (the integer
/// parts of `a/b` and `c/d`, then recurse on the reciprocals of the
/// fractional parts with the ordering flipped). Terminates like the
/// Euclidean algorithm.
fn cmp_wide(a: Rat, b: Rat) -> Ordering {
    let sa = a.num.signum();
    let sb = b.num.signum();
    if sa != sb {
        return sa.cmp(&sb);
    }
    if sa == 0 {
        return Ordering::Equal;
    }
    let ord = cmp_pos_frac(a.num.abs(), a.den, b.num.abs(), b.den);
    if sa > 0 {
        ord
    } else {
        ord.reverse()
    }
}

/// `an/ad` vs `bn/bd` for strictly positive operands, by continued
/// fractions.
fn cmp_pos_frac(mut an: i128, mut ad: i128, mut bn: i128, mut bd: i128) -> Ordering {
    let mut flipped = false;
    loop {
        let qa = an / ad;
        let qb = bn / bd;
        if qa != qb {
            let ord = qa.cmp(&qb);
            return if flipped { ord.reverse() } else { ord };
        }
        let ra = an - qa * ad;
        let rb = bn - qb * bd;
        match (ra == 0, rb == 0) {
            (true, true) => return Ordering::Equal,
            // A zero remainder means that side is the smaller fraction
            // (equal integer parts, no fractional part left).
            (true, false) => {
                let ord = Ordering::Less;
                return if flipped { ord.reverse() } else { ord };
            }
            (false, true) => {
                let ord = Ordering::Greater;
                return if flipped { ord.reverse() } else { ord };
            }
            (false, false) => {
                // ra/ad vs rb/bd compares as the reverse of ad/ra vs bd/rb.
                (an, ad, bn, bd) = (ad, ra, bd, rb);
                flipped = !flipped;
            }
        }
    }
}

impl fmt::Display for Rat {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.den == 1 {
            write!(f, "{}", self.num)
        } else {
            write!(f, "{}/{}", self.num, self.den)
        }
    }
}

impl fmt::Debug for Rat {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Display::fmt(self, f)
    }
}

// Serialized as the two-element pair `[num, den]`, matching how real serde
// would encode the `(i64, i64)` tuple form. Serialized values (weights,
// costs, event times) live on the generator grids and always fit i64; a
// value that does not is a diagnostic panic, not silent truncation.
impl Serialize for Rat {
    fn to_value(&self) -> Value {
        let num = i64::try_from(self.num)
            .unwrap_or_else(|_| panic!("Rat {self} numerator exceeds the i64 wire format"));
        let den = i64::try_from(self.den)
            .unwrap_or_else(|_| panic!("Rat {self} denominator exceeds the i64 wire format"));
        (num, den).to_value()
    }
}

impl Deserialize for Rat {
    fn from_value(v: &Value) -> Result<Rat, serde::de::Error> {
        let (num, den) = <(i64, i64)>::from_value(v)?;
        if den == 0 {
            return Err(serde::de::Error::custom("Rat denominator must be nonzero"));
        }
        Ok(Rat::new(num, den))
    }
}

/// Error from parsing a [`Rat`] out of text.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ParseRatError;

impl fmt::Display for ParseRatError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("expected an integer or `num/den` with nonzero den")
    }
}

impl std::error::Error for ParseRatError {}

impl core::str::FromStr for Rat {
    type Err = ParseRatError;

    /// Parses `"3"`, `"-3"`, or `"num/den"` (e.g. `"7/8"`, `"-1/2"`).
    ///
    /// ```
    /// use pfair_numeric::Rat;
    /// assert_eq!("7/8".parse::<Rat>().unwrap(), Rat::new(7, 8));
    /// assert_eq!("-3".parse::<Rat>().unwrap(), Rat::int(-3));
    /// assert!("1/0".parse::<Rat>().is_err());
    /// ```
    fn from_str(s: &str) -> Result<Rat, ParseRatError> {
        if let Some((n, d)) = s.split_once('/') {
            let num: i128 = n.trim().parse().map_err(|_| ParseRatError)?;
            let den: i128 = d.trim().parse().map_err(|_| ParseRatError)?;
            if den == 0 || num == i128::MIN || den == i128::MIN {
                return Err(ParseRatError);
            }
            Ok(Rat::new_i128(num, den))
        } else {
            let num: i128 = s.trim().parse().map_err(|_| ParseRatError)?;
            if num == i128::MIN {
                return Err(ParseRatError);
            }
            Ok(Rat::new_i128(num, 1))
        }
    }
}

impl core::iter::Sum for Rat {
    fn sum<I: Iterator<Item = Rat>>(iter: I) -> Rat {
        iter.fold(Rat::ZERO, |acc, x| acc + x)
    }
}

impl<'a> core::iter::Sum<&'a Rat> for Rat {
    fn sum<I: Iterator<Item = &'a Rat>>(iter: I) -> Rat {
        iter.fold(Rat::ZERO, |acc, x| acc + *x)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn construction_reduces() {
        assert_eq!(Rat::new(2, 4), Rat::new(1, 2));
        assert_eq!(Rat::new(-2, 4), Rat::new(-1, 2));
        assert_eq!(Rat::new(2, -4), Rat::new(-1, 2));
        assert_eq!(Rat::new(-2, -4), Rat::new(1, 2));
        assert_eq!(Rat::new(0, 7), Rat::ZERO);
        assert_eq!(Rat::new(6, 3).num(), 2);
        assert_eq!(Rat::new(6, 3).den(), 1);
    }

    #[test]
    #[should_panic(expected = "denominator must be nonzero")]
    fn zero_denominator_panics() {
        let _ = Rat::new(1, 0);
    }

    #[test]
    fn arithmetic_basics() {
        let a = Rat::new(1, 6);
        let b = Rat::new(1, 2);
        assert_eq!(a + b, Rat::new(2, 3));
        assert_eq!(b - a, Rat::new(1, 3));
        assert_eq!(a * b, Rat::new(1, 12));
        assert_eq!(b / a, Rat::int(3));
        assert_eq!(-a, Rat::new(-1, 6));
    }

    #[test]
    fn division_sign_normalization() {
        assert_eq!(Rat::new(1, 2) / Rat::new(-1, 3), Rat::new(-3, 2));
        assert_eq!(Rat::new(-1, 2) / Rat::new(-1, 3), Rat::new(3, 2));
    }

    #[test]
    #[should_panic(expected = "division by zero")]
    fn division_by_zero_panics() {
        let _ = Rat::ONE / Rat::ZERO;
    }

    #[test]
    fn floor_ceil_fract() {
        assert_eq!(Rat::new(7, 2).floor(), 3);
        assert_eq!(Rat::new(7, 2).ceil(), 4);
        assert_eq!(Rat::new(-7, 2).floor(), -4);
        assert_eq!(Rat::new(-7, 2).ceil(), -3);
        assert_eq!(Rat::int(5).floor(), 5);
        assert_eq!(Rat::int(5).ceil(), 5);
        assert_eq!(Rat::new(7, 2).fract(), Rat::new(1, 2));
        assert_eq!(Rat::new(-7, 2).fract(), Rat::new(1, 2));
    }

    #[test]
    fn ordering() {
        assert!(Rat::new(1, 3) < Rat::new(1, 2));
        assert!(Rat::new(-1, 2) < Rat::new(-1, 3));
        assert!(Rat::new(2, 4) == Rat::new(1, 2));
        let two_minus_delta = Rat::int(2) - Rat::new(1, 1_000_000);
        assert!(two_minus_delta < Rat::int(2));
    }

    #[test]
    fn wide_ordering_falls_back_exactly() {
        // Cross-products of these overflow i128, forcing the
        // continued-fraction path; the two values differ by 1/(den_a·den_b).
        let d = 10_i128.pow(20);
        let a = Rat::new_i128(d - 1, d); // (d−1)/d
        let b = Rat::new_i128(d - 2, d - 1); // (d−2)/(d−1) < (d−1)/d
        assert!(b < a);
        assert!(a > b);
        assert_eq!(a.cmp(&a), Ordering::Equal);
        assert!((-a) < (-b));
        // Mixed signs and integer-part ties.
        let big = Rat::new_i128(3 * d + 1, d);
        let bigger = Rat::new_i128(3 * (d - 1) + 2, d - 1);
        assert!(big < bigger);
        assert!((-bigger) < (-big));
    }

    #[test]
    fn display() {
        assert_eq!(Rat::new(3, 6).to_string(), "1/2");
        assert_eq!(Rat::int(-4).to_string(), "-4");
        assert_eq!(Rat::ZERO.to_string(), "0");
    }

    #[test]
    fn min_max_recip_abs() {
        let a = Rat::new(1, 3);
        let b = Rat::new(1, 2);
        assert_eq!(a.min(b), a);
        assert_eq!(a.max(b), b);
        assert_eq!(b.recip(), Rat::int(2));
        assert_eq!(Rat::new(-3, 4).abs(), Rat::new(3, 4));
        assert_eq!(Rat::new(-2, 3).recip(), Rat::new(-3, 2));
    }

    #[test]
    fn sum_iterator() {
        // Six tasks of weight 1/6 plus three of weight 1/2 = utilization 5/2.
        let weights = [
            Rat::new(1, 6),
            Rat::new(1, 6),
            Rat::new(1, 6),
            Rat::new(1, 2),
            Rat::new(1, 2),
            Rat::new(1, 2),
        ];
        let total: Rat = weights.iter().sum();
        assert_eq!(total, Rat::int(2));
    }

    #[test]
    fn from_str_round_trip() {
        for s in ["0", "7", "-3", "1/2", "-22/7", "6/4"] {
            let r: Rat = s.parse().unwrap();
            let again: Rat = r.to_string().parse().unwrap();
            assert_eq!(r, again, "{s}");
        }
        assert!("".parse::<Rat>().is_err());
        assert!("a/b".parse::<Rat>().is_err());
        assert!("1/0".parse::<Rat>().is_err());
        assert!("1.5".parse::<Rat>().is_err());
    }

    #[test]
    fn i64_scale_products_are_now_exact() {
        // The i64-backed Rat panicked here; the i128 components make the
        // full product of two i64-scale values representable.
        let huge = Rat::new(i64::MAX / 2, 1);
        let sq = huge * huge;
        assert_eq!(
            sq.num(),
            i128::from(i64::MAX / 2) * i128::from(i64::MAX / 2)
        );
        let fine = Rat::new(i64::MAX / 4, 3);
        assert_eq!(fine + Rat::ZERO, fine);
        assert_eq!(fine * Rat::ONE, fine);
    }

    #[test]
    fn overflow_is_a_panic_not_a_wrap() {
        // Arithmetic that cannot be represented even in i128 must still
        // fail loudly, with the operands in the message.
        let huge = Rat::new_i128(i128::MAX / 2, 1);
        let err =
            std::panic::catch_unwind(|| huge * huge).expect_err("i128-scale product must panic");
        let msg = err
            .downcast_ref::<String>()
            .expect("panic carries a String message");
        assert!(msg.contains("Rat overflow"), "diagnostic message: {msg}");
        // Addition with coprime denominators that cannot share factors.
        let a = Rat::new_i128(i128::MAX / 2, 3);
        let b = Rat::new_i128(i128::MAX / 2, 5);
        assert!(std::panic::catch_unwind(|| a + b).is_err());
    }

    #[test]
    fn grid_resolution_lag_terms_reduce_not_panic() {
        // The PR-3 failure shape: a sum of `(t − start)/cost` terms with
        // near-coprime cost numerators on the 720720 grid. The reduced
        // denominator exceeds i64 — representable now, panic before.
        const GRID: i64 = 720_720;
        let t = Rat::int(7);
        let terms = [
            (Rat::new(13, 32), Rat::new(523_687, GRID)),
            (Rat::new(45, 7), Rat::new(611_953, GRID)),
            (Rat::new(1_234_567, GRID), Rat::new(700_001, GRID)),
            (Rat::new(355, 113), Rat::new(654_323, GRID)),
        ];
        let mut lag = Rat::ZERO;
        for (start, cost) in terms {
            lag += (t - start) / cost;
        }
        assert!(lag.den() > i128::from(i64::MAX), "den {}", lag.den());
        // And the value is still exact: multiplying back by the common
        // denominator gives an integer.
        assert!((lag * Rat::new_i128(lag.den(), 1)).is_integer());
    }

    #[test]
    fn large_mixed_denominators() {
        // lcm-scale denominators (seen in exact-fill workloads) stay exact.
        let a = Rat::new(2_184_060_317_093, 16_044_839_210_400);
        let b = Rat::ONE - a;
        assert_eq!(a + b, Rat::ONE);
        assert!(a < Rat::new(1, 7) && a > Rat::new(1, 8));
    }

    #[test]
    fn serde_round_trip() {
        let r = Rat::new(22, 7);
        let json = serde_json_lite(&r);
        assert_eq!(json, "[22,7]");
    }

    #[test]
    fn serde_rejects_beyond_i64_wire() {
        let wide = Rat::new_i128(i128::from(i64::MAX) + 1, 1);
        assert!(std::panic::catch_unwind(|| wide.to_value()).is_err());
    }

    // Minimal check that serialization emits the reduced pair without
    // pulling serde_json into this crate's deps: reuse serde's token-level
    // guarantees via Display of the tuple.
    fn serde_json_lite(r: &Rat) -> String {
        format!("[{},{}]", r.num(), r.den())
    }

    proptest! {
        #[test]
        fn prop_add_commutes(a in -1000i64..1000, b in 1i64..100, c in -1000i64..1000, d in 1i64..100) {
            let x = Rat::new(a, b);
            let y = Rat::new(c, d);
            prop_assert_eq!(x + y, y + x);
        }

        #[test]
        fn prop_add_associates(a in -100i64..100, b in 1i64..20, c in -100i64..100,
                               d in 1i64..20, e in -100i64..100, f in 1i64..20) {
            let x = Rat::new(a, b);
            let y = Rat::new(c, d);
            let z = Rat::new(e, f);
            prop_assert_eq!((x + y) + z, x + (y + z));
        }

        #[test]
        fn prop_mul_distributes(a in -100i64..100, b in 1i64..20, c in -100i64..100,
                                d in 1i64..20, e in -100i64..100, f in 1i64..20) {
            let x = Rat::new(a, b);
            let y = Rat::new(c, d);
            let z = Rat::new(e, f);
            prop_assert_eq!(x * (y + z), x * y + x * z);
        }

        #[test]
        fn prop_sub_add_inverse(a in -1000i64..1000, b in 1i64..100, c in -1000i64..1000, d in 1i64..100) {
            let x = Rat::new(a, b);
            let y = Rat::new(c, d);
            prop_assert_eq!(x + y - y, x);
        }

        #[test]
        fn prop_always_reduced(a in -10_000i64..10_000, b in 1i64..10_000) {
            let x = Rat::new(a, b);
            prop_assert!(x.den() > 0);
            prop_assert_eq!(gcd_i128(x.num(), x.den()), if x.num() == 0 { x.den() } else { 1 });
        }

        #[test]
        fn prop_floor_ceil_bracket(a in -10_000i64..10_000, b in 1i64..100) {
            let x = Rat::new(a, b);
            let fl = Rat::int(x.floor());
            let ce = Rat::int(x.ceil());
            prop_assert!(fl <= x && x <= ce);
            prop_assert!(ce - fl <= Rat::ONE);
            prop_assert_eq!(x.is_integer(), fl == ce);
        }

        #[test]
        fn prop_ord_consistent_with_f64(a in -1000i64..1000, b in 1i64..100, c in -1000i64..1000, d in 1i64..100) {
            let x = Rat::new(a, b);
            let y = Rat::new(c, d);
            if x < y {
                prop_assert!(x.to_f64() <= y.to_f64());
            }
        }

        /// `Ord` (unchecked when every component fits `i64`), the checked
        /// path and `cmp_wide` agree on `i64`-range pairs, on pairs shifted
        /// past `i64` (whose cross-products overflow `i128`), and on mixes.
        #[test]
        fn prop_cmp_paths_agree(a in i64::MIN..=i64::MAX, b in 1i64..=i64::MAX,
                                c in i64::MIN..=i64::MAX, d in 1i64..=i64::MAX,
                                s in (1u32..48, 1u32..48, 1u32..48, 1u32..48)) {
            let narrow = (Rat::new(a, b), Rat::new(c, d));
            let wide = (Rat::new_i128(i128::from(a) << s.0, i128::from(b) << s.1),
                        Rat::new_i128(i128::from(c) << s.2, i128::from(d) << s.3));
            for (x, y) in [narrow, wide, (narrow.0, wide.1), (wide.0, narrow.1), (wide.0, wide.0)] {
                let ord = x.cmp(&y);
                prop_assert_eq!(ord, cmp_checked(x, y));
                prop_assert_eq!(ord, cmp_wide(x, y));
                prop_assert_eq!(ord, y.cmp(&x).reverse());
            }
        }

        #[test]
        fn prop_div_mul_inverse(a in -1000i64..1000, b in 1i64..100, c in 1i64..1000, d in 1i64..100) {
            let x = Rat::new(a, b);
            let y = Rat::new(c, d); // nonzero by construction
            prop_assert_eq!(x / y * y, x);
        }
    }
}
