//! An exact sum of fractions, reduced once at the end.
//!
//! Adding [`Rat`]s term by term pays for two gcds and four `i128`
//! divisions per term to keep every partial sum reduced. A per-slot sum
//! whose value is only read at the end — a LAG value (Lemma 1), summed
//! over the active windows and the quanta in flight — needs none of that:
//! [`FracSum`] keeps the running numerator over the lcm of the terms'
//! denominators, which costs one gcd per term, and reduces once in
//! [`FracSum::to_rat`].
//!
//! Every step is checked. A term whose numerator or lcm leaves `i128`
//! returns `None` and never a wrong value; callers sum that value in
//! [`Rat`]s instead, which reduce as they go.

use crate::int::gcd_i128;
use crate::rational::Rat;

/// A sum of fractions `num / den` with `den > 0`, not necessarily reduced.
/// Both components stay within `±i128::MAX`.
///
/// ```
/// use pfair_numeric::{FracSum, Rat};
/// let s = FracSum::ZERO.add(3, 4).and_then(|s| s.sub(1, 3)).unwrap();
/// assert_eq!(s.to_rat(), Rat::new(5, 12));
/// ```
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct FracSum {
    num: i128,
    den: i128,
}

impl FracSum {
    /// The empty sum.
    pub const ZERO: FracSum = FracSum { num: 0, den: 1 };

    /// `num / den`; `None` unless `den > 0` and `num ≠ i128::MIN`.
    #[must_use]
    pub fn new(num: i128, den: i128) -> Option<FracSum> {
        (den > 0 && num != i128::MIN).then_some(FracSum { num, den })
    }

    /// The sum plus `num / den` (`den > 0`), over the lcm of the two
    /// denominators; `None` if that leaves `i128`.
    #[must_use]
    pub fn add(self, num: i128, den: i128) -> Option<FracSum> {
        let term = FracSum::new(num, den)?;
        if term.den == self.den {
            return FracSum::new(self.num.checked_add(term.num)?, den);
        }
        let g = gcd_i128(self.den, term.den);
        let (mine, theirs) = (div(term.den, g), div(self.den, g));
        let num = mul(self.num, mine)?.checked_add(mul(term.num, theirs)?)?;
        FracSum::new(num, mul(self.den, mine)?)
    }

    /// The sum minus `num / den` (`den > 0`); `None` as for
    /// [`FracSum::add`].
    #[must_use]
    pub fn sub(self, num: i128, den: i128) -> Option<FracSum> {
        self.add(num.checked_neg()?, den)
    }

    /// The exact value, reduced. Components that fit `i64` reduce in
    /// machine words.
    #[must_use]
    pub fn to_rat(self) -> Rat {
        match (i64::try_from(self.num), i64::try_from(self.den)) {
            (Ok(num), Ok(den)) => Rat::new(num, den),
            _ => Rat::new_i128(self.num, self.den),
        }
    }
}

/// `a · b`; `None` if it leaves `i128`. Machine-word operands take one
/// widening multiply and need no overflow check.
fn mul(a: i128, b: i128) -> Option<i128> {
    match (i64::try_from(a), i64::try_from(b)) {
        (Ok(a), Ok(b)) => Some(i128::from(a) * i128::from(b)),
        _ => a.checked_mul(b),
    }
}

/// `a / b` for positive `a` and `b`, in machine words when both fit.
fn div(a: i128, b: i128) -> i128 {
    match (u64::try_from(a), u64::try_from(b)) {
        (Ok(a), Ok(b)) => i128::from(a / b),
        _ => a / b,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sum(terms: &[(i128, i128)]) -> Option<Rat> {
        terms
            .iter()
            .try_fold(FracSum::ZERO, |s, &(n, d)| s.add(n, d))
            .map(FracSum::to_rat)
    }

    #[test]
    fn equal_and_coprime_denominators() {
        assert_eq!(sum(&[(1, 6), (1, 6), (1, 6)]), Some(Rat::new(1, 2)));
        assert_eq!(sum(&[(1, 3), (1, 5), (1, 7)]), Some(Rat::new(71, 105)));
        assert_eq!(sum(&[(3, 4), (1, 6)]), Some(Rat::new(11, 12)));
        assert_eq!(sum(&[]), Some(Rat::ZERO));
    }

    #[test]
    fn signed_terms_cancel() {
        let s = FracSum::new(2, 1)
            .and_then(|s| s.add(1, 3))
            .and_then(|s| s.sub(7, 3))
            .expect("small terms fit");
        assert_eq!(s.to_rat(), Rat::ZERO);
        assert_eq!(sum(&[(-5, 8), (1, 8)]), Some(Rat::new(-1, 2)));
    }

    #[test]
    fn reduces_once_across_the_word_boundary() {
        // An unreduced numerator and denominator past i64 whose value is
        // small: the single reduction takes the wide path.
        let big = i128::from(i64::MAX) * 4;
        let s = FracSum::new(big, big * 3).expect("positive denominator");
        assert_eq!(s.to_rat(), Rat::new(1, 3));
        let s = FracSum::new(6, 4).expect("positive denominator");
        assert_eq!(s.to_rat(), Rat::new(3, 2));
    }

    #[test]
    fn overflow_returns_none() {
        // Three consecutive integers past 2⁴³, pairwise coprime (the
        // outer two are odd): the lcm of all three leaves i128.
        let p = [(1_i128 << 43) + 1, (1 << 43) + 2, (1 << 43) + 3];
        let two = FracSum::ZERO.add(1, p[0]).and_then(|s| s.add(1, p[1]));
        assert!(two.is_some());
        assert_eq!(two.and_then(|s| s.add(1, p[2])), None);
        // A numerator that leaves i128 on its own.
        assert_eq!(
            FracSum::ZERO.add(1, 1).and_then(|s| s.add(i128::MAX, 1)),
            None
        );
        assert_eq!(FracSum::ZERO.sub(i128::MIN, 1), None);
    }

    #[test]
    fn rejects_non_positive_denominators() {
        assert_eq!(FracSum::new(1, 0), None);
        assert_eq!(FracSum::new(1, -2), None);
        assert_eq!(FracSum::ZERO.add(1, 0), None);
        assert_eq!(FracSum::new(i128::MIN, 1), None);
    }
}
