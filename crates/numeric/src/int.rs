//! Integer helpers used by the Pfair window formulas.
//!
//! The release and deadline of subtask `T_i` of a task with weight
//! `wt = e/p` are `r(T_i) = ⌊(i−1)·p/e⌋` and `d(T_i) = ⌈i·p/e⌉`
//! (Eq. (2) of the paper). Rust's integer division truncates toward zero,
//! which differs from mathematical floor/ceil for negative operands, so we
//! provide explicit [`floor_div`] / [`ceil_div`].

/// Greatest common divisor (non-negative result; `gcd(0, 0) == 0`).
#[must_use]
pub fn gcd(a: i64, b: i64) -> i64 {
    i64::try_from(gcd_u64(a.unsigned_abs(), b.unsigned_abs()))
        .expect("gcd overflows i64 only for (i64::MIN, 0) or (0, i64::MIN)")
}

/// Binary (Stein) GCD over machine words. This sits under every `Rat`
/// reduction — the schedulers construct a rational per cost draw and per
/// emitted boundary — so it must not fall back to division loops.
#[must_use]
pub fn gcd_u64(mut a: u64, mut b: u64) -> u64 {
    if a == 0 {
        return b;
    }
    if b == 0 {
        return a;
    }
    let shift = (a | b).trailing_zeros();
    a >>= a.trailing_zeros();
    loop {
        b >>= b.trailing_zeros();
        if a > b {
            std::mem::swap(&mut a, &mut b);
        }
        b -= a;
        if b == 0 {
            return a << shift;
        }
    }
}

/// Greatest common divisor over the full `i128` range used by [`Rat`]
/// internals (non-negative result; `gcd_i128(0, 0) == 0`).
///
/// `i128::MIN` operands are rejected by [`Rat`]'s constructors, so the
/// absolute values here never overflow.
///
/// Nearly every rational in the workspace has machine-word components, and
/// `i128` `%` is a library call on 64-bit targets — so this dispatches to
/// the word-sized binary GCD whenever both operands fit, and otherwise
/// runs Euclid only until they do.
///
/// [`Rat`]: crate::Rat
#[must_use]
pub fn gcd_i128(a: i128, b: i128) -> i128 {
    let (mut a, mut b) = (a.unsigned_abs(), b.unsigned_abs());
    loop {
        if let (Ok(a), Ok(b)) = (u64::try_from(a), u64::try_from(b)) {
            return i128::from(gcd_u64(a, b));
        }
        if b == 0 {
            return i128::try_from(a).expect("gcd of Rat components fits i128 (no i128::MIN)");
        }
        let t = a % b;
        a = b;
        b = t;
    }
}

/// Least common multiple (non-negative; `lcm(0, x) == 0`).
///
/// # Panics
/// Panics if the result does not fit into `i64`.
#[must_use]
pub fn lcm(a: i64, b: i64) -> i64 {
    if a == 0 || b == 0 {
        return 0;
    }
    let g = gcd(a, b);
    let res = (i128::from(a) / i128::from(g)) * i128::from(b);
    i64::try_from(res.abs()).expect("lcm overflow")
}

/// Least common multiple that reports overflow instead of panicking:
/// `None` iff the exact lcm does not fit `i64`. Used where an oversized
/// lcm is an expected outcome that callers degrade around (e.g. picking a
/// [`Ticks`](crate::Ticks) scale — an unrepresentable scale just means
/// staying on exact [`Rat`](crate::Rat) arithmetic), in contrast to
/// [`lcm`], whose panic marks a broken invariant.
#[must_use]
pub fn checked_lcm(a: i64, b: i64) -> Option<i64> {
    if a == 0 || b == 0 {
        return Some(0);
    }
    let g = gcd(a, b);
    let res = (i128::from(a) / i128::from(g)) * i128::from(b);
    i64::try_from(res.abs()).ok()
}

/// The lcm of `values`, checked: `None` if it leaves `i64` or any value is
/// non-positive; 1 for none. A value that already divides the running lcm
/// costs one remainder, not a gcd.
#[must_use]
pub fn checked_lcm_of(values: impl IntoIterator<Item = i64>) -> Option<i64> {
    values.into_iter().try_fold(1, |l, v| {
        if v <= 0 {
            None
        } else if l % v == 0 {
            Some(l)
        } else {
            checked_lcm(l, v)
        }
    })
}

/// Mathematical floor division: `⌊a / b⌋`, requires `b > 0`.
#[must_use]
pub fn floor_div(a: i64, b: i64) -> i64 {
    debug_assert!(b > 0, "floor_div requires a positive divisor");
    a.div_euclid(b)
}

/// Mathematical ceiling division: `⌈a / b⌉`, requires `b > 0`.
#[must_use]
pub fn ceil_div(a: i64, b: i64) -> i64 {
    debug_assert!(b > 0, "ceil_div requires a positive divisor");
    // div_euclid floors; add (b-1) safely via i128 to avoid overflow at the
    // extremes.
    let num = i128::from(a) + i128::from(b) - 1;
    i64::try_from(num.div_euclid(i128::from(b))).expect("ceil_div overflow")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gcd_basics() {
        assert_eq!(gcd(12, 18), 6);
        assert_eq!(gcd(18, 12), 6);
        assert_eq!(gcd(7, 13), 1);
        assert_eq!(gcd(0, 5), 5);
        assert_eq!(gcd(5, 0), 5);
        assert_eq!(gcd(0, 0), 0);
        assert_eq!(gcd(-12, 18), 6);
        assert_eq!(gcd(12, -18), 6);
        assert_eq!(gcd(-12, -18), 6);
    }

    #[test]
    fn binary_gcd_matches_euclid() {
        fn euclid(mut a: u64, mut b: u64) -> u64 {
            while b != 0 {
                let t = a % b;
                a = b;
                b = t;
            }
            a
        }
        let samples = [
            0u64,
            1,
            2,
            3,
            12,
            18,
            720_720,
            i64::MAX as u64,
            u64::MAX,
            1 << 63,
            (1 << 63) - 1,
            999_999_937,
        ];
        for &a in &samples {
            for &b in &samples {
                assert_eq!(gcd_u64(a, b), euclid(a, b), "gcd_u64({a}, {b})");
            }
        }
    }

    #[test]
    fn gcd_i128_wide_operands() {
        // Operands beyond u64 exercise the Euclid-until-word prefix.
        let big = i128::from(u64::MAX) * 6;
        assert_eq!(gcd_i128(big, 4), 2);
        assert_eq!(gcd_i128(big, big), big);
        // 2⁶⁴ − 1 is divisible by 3, so 6·(2⁶⁴ − 1) is divisible by 9.
        assert_eq!(gcd_i128(-big, 9), 9);
        assert_eq!(gcd_i128(big, 27), 9);
        assert_eq!(gcd_i128(0, big), big);
        assert_eq!(gcd_i128(i128::MAX, i128::MAX - 1), 1);
    }

    #[test]
    fn lcm_basics() {
        assert_eq!(lcm(4, 6), 12);
        assert_eq!(lcm(6, 4), 12);
        assert_eq!(lcm(0, 9), 0);
        assert_eq!(lcm(1, 9), 9);
        assert_eq!(lcm(-4, 6), 12);
    }

    #[test]
    fn checked_lcm_matches_lcm_and_reports_overflow() {
        assert_eq!(checked_lcm(4, 6), Some(12));
        assert_eq!(checked_lcm(0, 9), Some(0));
        assert_eq!(checked_lcm(-4, 6), Some(12));
        assert_eq!(checked_lcm(720_720, 7), Some(720_720));
        assert_eq!(checked_lcm(i64::MAX, i64::MAX - 1), None);
    }

    #[test]
    fn checked_lcm_of_folds_and_checks() {
        assert_eq!(checked_lcm_of([2, 3, 4, 6, 12, 5]), Some(60));
        assert_eq!(checked_lcm_of([]), Some(1));
        assert_eq!(checked_lcm_of([3, 0]), None);
        assert_eq!(checked_lcm_of([3, -3]), None);
        assert_eq!(checked_lcm_of([4_294_967_291, 4_294_967_279]), None);
    }

    #[test]
    fn floor_div_matches_math() {
        assert_eq!(floor_div(7, 2), 3);
        assert_eq!(floor_div(-7, 2), -4);
        assert_eq!(floor_div(6, 3), 2);
        assert_eq!(floor_div(-6, 3), -2);
        assert_eq!(floor_div(0, 5), 0);
    }

    #[test]
    fn ceil_div_matches_math() {
        assert_eq!(ceil_div(7, 2), 4);
        assert_eq!(ceil_div(-7, 2), -3);
        assert_eq!(ceil_div(6, 3), 2);
        assert_eq!(ceil_div(-6, 3), -2);
        assert_eq!(ceil_div(0, 5), 0);
        assert_eq!(ceil_div(1, 1), 1);
    }

    #[test]
    fn window_formula_fig1a() {
        // Fig. 1(a): wt = 3/4 ⇒ windows [0,2), [1,3), [2,4) for i = 1..3.
        let (e, p) = (3_i64, 4_i64);
        let r = |i: i64| floor_div((i - 1) * p, e);
        let d = |i: i64| ceil_div(i * p, e);
        assert_eq!((r(1), d(1)), (0, 2));
        assert_eq!((r(2), d(2)), (1, 3));
        assert_eq!((r(3), d(3)), (2, 4));
        // The pattern repeats for every job: job 2 spans [4, 8).
        assert_eq!((r(4), d(4)), (4, 6));
    }
}
