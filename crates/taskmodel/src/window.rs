//! Pure Pfair window and tie-break formulas.
//!
//! These are the *offsetless* quantities — a concrete IS/GIS subtask adds
//! its offset `θ(T_i)` on top (Eqns (3), (4) of the paper). For a task of
//! weight `wt = e/p` and subtask index `i ≥ 1`:
//!
//! * pseudo-release  `r(T_i) = ⌊(i−1)·p/e⌋`
//! * pseudo-deadline `d(T_i) = ⌈i·p/e⌉`
//! * b-bit `b(T_i) = ⌈i/wt⌉ − ⌊i/wt⌋` — `1` iff `T_i`'s window overlaps
//!   `T_{i+1}`'s (equivalently, iff `i·p mod e ≠ 0`)
//! * group deadline `D(T_i)` — for a *heavy* task (`wt ≥ 1/2`), the time at
//!   which the cascade of unit-slack windows starting at `d(T_i)` ends; for
//!   light tasks defined as `0` (the PD² tie-break then favours heavy
//!   tasks). Closed form used (validated against first-principles cascade
//!   search in the tests below):
//!
//!   ```text
//!   D(T_i) = ⌈ x · p / (p − e) ⌉   where   x = ⌈ d(T_i) · (p − e) / p ⌉
//!   ```
//!
//!   and `D(T_i) = d(T_i)` for weight-1 tasks (whose windows have no slack,
//!   but whose b-bit is always 0 so the value is never compared).

use crate::weight::Weight;

/// Offsetless pseudo-release `⌊(i−1)·p/e⌋` of subtask index `i ≥ 1`.
///
/// Products that leave `i64` are taken in `i128`, so arbitrary filler
/// weights (whose reduced periods can be lcm-scale) never overflow
/// silently; a result that does not fit `i64` panics with a clear
/// message.
#[must_use]
pub fn release(w: Weight, i: u64) -> i64 {
    debug_assert!(i >= 1, "subtask indices start at 1");
    let (v, _) = mul_div(i128::from(i) - 1, w.p(), w.e());
    i64::try_from(v).expect("pseudo-release overflows i64")
}

/// Offsetless pseudo-deadline `⌈i·p/e⌉` of subtask index `i ≥ 1`.
#[must_use]
pub fn deadline(w: Weight, i: u64) -> i64 {
    debug_assert!(i >= 1, "subtask indices start at 1");
    let v = ceil_mul_div(i128::from(i), w.p(), w.e());
    i64::try_from(v).expect("pseudo-deadline overflows i64")
}

/// Window length `d(T_i) − r(T_i)` (always ≥ 1; ≥ 2 unless `wt = 1`).
#[must_use]
pub fn window_length(w: Weight, i: u64) -> i64 {
    deadline(w, i) - release(w, i)
}

/// The b-bit: `true` iff the window of `T_i` overlaps the window of
/// `T_{i+1}` (deadline slot of `T_i` = release slot of `T_{i+1}`).
#[must_use]
pub fn bbit(w: Weight, i: u64) -> bool {
    mul_div(i128::from(i), w.p(), w.e()).1
}

/// Offsetless group deadline `D(T_i)`.
///
/// `0` for light tasks; `d(T_i)` for weight-1 tasks; otherwise the closed
/// form above. The group deadline is the time by which the "cascade" of
/// forced allocations ends if `T_i` is scheduled in the last slot of its
/// window: successive windows of length 2 each force the next subtask into
/// its own final slot, until a window of length 3 or a b-bit of 0 absorbs
/// the displacement.
#[must_use]
pub fn group_deadline(w: Weight, i: u64) -> i64 {
    if w.is_light() {
        return 0;
    }
    if w.is_full() {
        return deadline(w, i);
    }
    let (e, p) = (w.e(), w.p());
    let x = ceil_mul_div(i128::from(deadline(w, i)), p - e, p);
    i64::try_from(ceil_mul_div(x, p, p - e)).expect("group deadline overflows i64")
}

/// `a·b / c` for `|a| < 2⁶⁴`, `0 ≤ b` and `0 < c`: the floor of the
/// quotient, and whether the division leaves a remainder. The product
/// and the division stay in `i64` when the product fits, since an `i128`
/// division is a library call, and move to `i128` when it does not.
fn mul_div(a: i128, b: i64, c: i64) -> (i128, bool) {
    debug_assert!(a.unsigned_abs() < 1 << 64 && b >= 0 && c > 0);
    match i64::try_from(a).ok().and_then(|a| a.checked_mul(b)) {
        Some(n) => (i128::from(n.div_euclid(c)), n.rem_euclid(c) != 0),
        None => {
            let (n, c) = (a * i128::from(b), i128::from(c));
            (n.div_euclid(c), n.rem_euclid(c) != 0)
        }
    }
}

/// `⌈a·b / c⌉`, within the bounds of [`mul_div`].
fn ceil_mul_div(a: i128, b: i64, c: i64) -> i128 {
    let (floor, inexact) = mul_div(a, b, c);
    floor + i128::from(inexact)
}

/// First-principles group deadline by walking the cascade (test oracle,
/// also exposed for cross-validation in property tests).
///
/// Walks successors from `i`: the cascade continues through `T_j` while
/// `b(T_j) = 1` and `|w(T_{j+1})| = 2`; it ends at `d(T_j)` when
/// `b(T_j) = 0`, or at `d(T_j) + 1` when `b(T_j) = 1` but `T_{j+1}`'s
/// window has length 3 (the displacement is absorbed by the slack).
#[must_use]
pub fn group_deadline_by_cascade(w: Weight, i: u64) -> i64 {
    if w.is_light() {
        return 0;
    }
    if w.is_full() {
        return deadline(w, i);
    }
    let mut j = i;
    loop {
        if !bbit(w, j) {
            return deadline(w, j);
        }
        if window_length(w, j + 1) >= 3 {
            return deadline(w, j) + 1;
        }
        j += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn fig1a_windows_weight_3_4() {
        // Fig. 1(a): first job of a weight-3/4 periodic task.
        let w = Weight::new(3, 4);
        assert_eq!((release(w, 1), deadline(w, 1)), (0, 2));
        assert_eq!((release(w, 2), deadline(w, 2)), (1, 3));
        assert_eq!((release(w, 3), deadline(w, 3)), (2, 4));
        // Pattern repeats every job.
        assert_eq!((release(w, 4), deadline(w, 4)), (4, 6));
        assert_eq!((release(w, 5), deadline(w, 5)), (5, 7));
        assert_eq!((release(w, 6), deadline(w, 6)), (6, 8));
    }

    #[test]
    fn fig2_windows_weight_1_6_and_1_2() {
        // The task set of Fig. 2: A,B,C of weight 1/6 and D,E,F of weight 1/2.
        let light = Weight::new(1, 6);
        assert_eq!((release(light, 1), deadline(light, 1)), (0, 6));
        assert_eq!((release(light, 2), deadline(light, 2)), (6, 12));
        let heavy = Weight::new(1, 2);
        assert_eq!((release(heavy, 1), deadline(heavy, 1)), (0, 2));
        assert_eq!((release(heavy, 2), deadline(heavy, 2)), (2, 4));
        assert_eq!((release(heavy, 3), deadline(heavy, 3)), (4, 6));
    }

    #[test]
    fn bbit_examples() {
        let w34 = Weight::new(3, 4);
        // Windows [0,2),[1,3),[2,4): consecutive windows overlap, except at
        // the job boundary (i = 3: d = 4 = r(T_4) would be 4, no overlap).
        assert!(bbit(w34, 1));
        assert!(bbit(w34, 2));
        assert!(!bbit(w34, 3));
        let w12 = Weight::new(1, 2);
        assert!(!bbit(w12, 1));
        assert!(!bbit(w12, 2));
        let w16 = Weight::new(1, 6);
        assert!(!bbit(w16, 1));
        // Weight-1 tasks never overlap.
        let w11 = Weight::new(1, 1);
        assert!(!bbit(w11, 1));
        assert!(!bbit(w11, 7));
    }

    #[test]
    fn bbit_matches_definition() {
        // b(T_i) = ⌈i/wt⌉ − ⌊i/wt⌋.
        for &(e, p) in &[(3i64, 4i64), (2, 3), (1, 2), (5, 7), (1, 6), (7, 11)] {
            let w = Weight::new(e, p);
            for i in 1..=50u64 {
                let ii = i as i64;
                let expected = pfair_numeric::ceil_div(ii * w.p(), w.e())
                    - pfair_numeric::floor_div(ii * w.p(), w.e());
                assert_eq!(bbit(w, i) as i64, expected, "wt={e}/{p} i={i}");
            }
        }
    }

    #[test]
    fn group_deadline_weight_3_4() {
        let w = Weight::new(3, 4);
        // Cascade of job 1 ends at time 4 for all three subtasks.
        assert_eq!(group_deadline(w, 1), 4);
        assert_eq!(group_deadline(w, 2), 4);
        assert_eq!(group_deadline(w, 3), 4);
        // Job 2's cascade ends at 8.
        assert_eq!(group_deadline(w, 4), 8);
    }

    #[test]
    fn group_deadline_weight_2_3() {
        let w = Weight::new(2, 3);
        assert_eq!(group_deadline(w, 1), 3);
        assert_eq!(group_deadline(w, 2), 3);
        assert_eq!(group_deadline(w, 3), 6);
        assert_eq!(group_deadline(w, 4), 6);
    }

    #[test]
    fn group_deadline_weight_1_2_equals_deadline() {
        // Weight exactly 1/2: all windows length 2, b = 0 ⇒ cascade is
        // trivial, D = d.
        let w = Weight::new(1, 2);
        for i in 1..=20 {
            assert_eq!(group_deadline(w, i), deadline(w, i));
        }
    }

    #[test]
    fn group_deadline_light_is_zero() {
        for &(e, p) in &[(1i64, 3i64), (1, 6), (2, 5), (49, 100)] {
            let w = Weight::new(e, p);
            for i in 1..=10 {
                assert_eq!(group_deadline(w, i), 0);
            }
        }
    }

    #[test]
    fn group_deadline_weight_one() {
        let w = Weight::new(1, 1);
        for i in 1..=10u64 {
            assert_eq!(group_deadline(w, i), i as i64);
        }
    }

    #[test]
    fn closed_form_matches_cascade_oracle() {
        for &(e, p) in &[
            (1i64, 2i64),
            (2, 3),
            (3, 4),
            (3, 5),
            (4, 5),
            (5, 6),
            (4, 7),
            (5, 7),
            (6, 7),
            (7, 8),
            (5, 8),
            (7, 9),
            (8, 9),
            (9, 10),
            (7, 10),
            (11, 12),
            (7, 12),
            (13, 14),
            (1, 1),
        ] {
            let w = Weight::new(e, p);
            for i in 1..=(3 * p as u64) {
                assert_eq!(
                    group_deadline(w, i),
                    group_deadline_by_cascade(w, i),
                    "wt={e}/{p} i={i}"
                );
            }
        }
    }

    /// Near `i64::MAX` the closed form's first product, `d(T_i)·(p − e)`,
    /// leaves `i64` and takes the `i128` path; it must still agree with
    /// the cascade.
    #[test]
    fn closed_form_matches_cascade_near_i64_max() {
        for &(e, p) in &[(5i64, 8i64), (3, 5), (4, 7), (7, 12), (11, 14)] {
            let w = Weight::new(e, p);
            // Indices whose deadlines sit a few periods below i64::MAX.
            let top = u64::try_from(i128::from(i64::MAX) * i128::from(e) / i128::from(p))
                .expect("below i64::MAX")
                - 4 * p as u64;
            for i in top - 3 * p as u64..top {
                assert!(deadline(w, i).checked_mul(p - e).is_none());
                assert_eq!(
                    group_deadline(w, i),
                    group_deadline_by_cascade(w, i),
                    "wt={e}/{p} i={i}"
                );
            }
        }
    }

    #[test]
    fn window_lengths_bound() {
        // Every PF-window has length ≥ 1 and ≤ ⌈1/wt⌉ + 1.
        for &(e, p) in &[(3i64, 4i64), (1, 2), (1, 6), (5, 7), (1, 1), (99, 100)] {
            let w = Weight::new(e, p);
            let cap = pfair_numeric::ceil_div(p, e) + 1;
            for i in 1..=100 {
                let len = window_length(w, i);
                assert!(len >= 1 && len <= cap, "wt={e}/{p} i={i} len={len}");
            }
        }
    }

    proptest! {
        #[test]
        fn prop_windows_monotone(e in 1i64..40, p in 1i64..40, i in 1u64..200) {
            prop_assume!(e <= p);
            let w = Weight::new(e, p);
            // Releases and deadlines are nondecreasing in i, and each
            // window is nonempty.
            prop_assert!(release(w, i) < deadline(w, i));
            prop_assert!(release(w, i) <= release(w, i + 1));
            prop_assert!(deadline(w, i) <= deadline(w, i + 1));
            // Consecutive windows overlap by at most one slot.
            prop_assert!(release(w, i + 1) >= deadline(w, i) - 1);
        }

        #[test]
        fn prop_bbit_iff_overlap(e in 1i64..40, p in 1i64..40, i in 1u64..200) {
            prop_assume!(e <= p);
            let w = Weight::new(e, p);
            prop_assert_eq!(bbit(w, i), release(w, i + 1) < deadline(w, i));
        }

        #[test]
        fn prop_group_deadline_closed_form(e in 1i64..30, p in 1i64..30, i in 1u64..120) {
            prop_assume!(e <= p && 2 * e >= p);
            let w = Weight::new(e, p);
            prop_assert_eq!(group_deadline(w, i), group_deadline_by_cascade(w, i));
        }

        /// Both paths of `mul_div` give the `i128` quotient: small
        /// factors stay in `i64`, products near or past `i64::MAX` leave.
        #[test]
        fn prop_mul_div_matches_i128(
            a in -1i64..=i64::MAX,
            b in 0i64..=i64::MAX,
            c in 1i64..=i64::MAX,
            shift in 0u32..63,
        ) {
            for (a, b) in [(a, b), (a >> shift, b >> (62 - shift))] {
                let (n, d) = (i128::from(a) * i128::from(b), i128::from(c));
                prop_assert_eq!(
                    mul_div(i128::from(a), b, c),
                    (n.div_euclid(d), n.rem_euclid(d) != 0)
                );
            }
        }

        #[test]
        fn prop_group_deadline_at_least_deadline(e in 1i64..30, p in 1i64..30, i in 1u64..120) {
            prop_assume!(e <= p && 2 * e >= p);
            let w = Weight::new(e, p);
            prop_assert!(group_deadline(w, i) >= deadline(w, i));
            // And monotone in i.
            prop_assert!(group_deadline(w, i + 1) >= group_deadline(w, i));
        }

        #[test]
        fn prop_lag_consistency(e in 1i64..40, p in 1i64..40, n in 1u64..200) {
            prop_assume!(e <= p);
            // Exactly e subtasks have deadlines within each period:
            // d(T_i) ≤ j·p  ⟺  i ≤ j·e.
            let w = Weight::new(e, p);
            let j = (n as i64 + w.e() - 1) / w.e(); // job of subtask n
            prop_assert!(deadline(w, n) <= j * w.p());
            prop_assert!(release(w, n) >= (j - 1) * w.p());
        }
    }
}
