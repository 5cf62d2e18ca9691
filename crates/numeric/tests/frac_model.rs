//! Model-based properties for [`FracSum`], the once-reduced fraction
//! accumulator: every sum it returns equals the pairwise [`Rat`] sum of
//! the same terms, and a sum it cannot carry comes back as `None`, never
//! as a wrong value.

use pfair_numeric::{FracSum, Rat};
use proptest::collection;
use proptest::prelude::*;

/// The cost grid used by the workload generators.
const GRID: i64 = 720_720;

/// The terms summed pairwise in `Rat`s, which reduce after every add.
fn pairwise(terms: &[(i64, i64)]) -> Rat {
    terms
        .iter()
        .fold(Rat::ZERO, |s, &(n, d)| s + Rat::new(n, d))
}

fn accumulate(terms: &[(i64, i64)]) -> Option<Rat> {
    terms
        .iter()
        .try_fold(FracSum::ZERO, |s, &(n, d)| {
            s.add(i128::from(n), i128::from(d))
        })
        .map(FracSum::to_rat)
}

proptest! {
    /// Signed terms on the cost grid, equal denominators included: up to
    /// five terms never leave `i128` and always match the `Rat` sum.
    #[test]
    fn prop_grid_terms_match_pairwise_rat(
        terms in collection::vec((-GRID..=GRID, 1..=GRID), 0..6),
        same in collection::vec(-GRID..=GRID, 0..6),
    ) {
        let got = accumulate(&terms);
        prop_assert_eq!(got, Some(pairwise(&terms)));
        let over_grid: Vec<(i64, i64)> = same.iter().map(|&n| (n, GRID)).collect();
        prop_assert_eq!(accumulate(&over_grid), Some(pairwise(&over_grid)));
    }

    /// Small coprime denominators mixed with a subtraction: `sub` is
    /// `add` of the negated term.
    #[test]
    fn prop_sub_is_add_of_the_negation(
        base in -1_000i64..1_000,
        terms in collection::vec((-100i64..=100, 1i64..=97), 0..8),
    ) {
        let sub = terms
            .iter()
            .try_fold(FracSum::new(i128::from(base), 1).unwrap(), |s, &(n, d)| {
                s.sub(i128::from(n), i128::from(d))
            })
            .map(FracSum::to_rat);
        let want = terms
            .iter()
            .fold(Rat::int(base), |s, &(n, d)| s - Rat::new(n, d));
        prop_assert_eq!(sub, Some(want));
    }

    /// Denominators up to 2⁴⁴ overflow the lcm within a few terms. A
    /// returned sum is still exact: its lcm fit `i128`, so the pairwise
    /// `Rat` sum (whose denominators divide that lcm) is representable to
    /// compare against.
    #[test]
    fn prop_wide_terms_are_exact_or_none(
        terms in collection::vec((-(1i64 << 44)..=(1 << 44), 1i64..=(1 << 44)), 1..6),
    ) {
        if let Some(got) = accumulate(&terms) {
            prop_assert_eq!(got, pairwise(&terms));
        }
    }
}

/// Three pairwise-coprime denominators past 2⁴³ leave `i128`: the third
/// term is refused, and a sum of equal denominators that cancels is
/// still carried.
#[test]
fn overflowing_lcm_is_refused() {
    let terms = [
        (1, (1i64 << 43) + 1),
        (1, (1 << 43) + 2),
        (1, (1 << 43) + 3),
    ];
    assert_eq!(accumulate(&terms[..2]), Some(pairwise(&terms[..2])));
    assert_eq!(accumulate(&terms), None);
    let d = (1i128 << 100) + 1;
    let cancel = FracSum::ZERO.add(3, d).and_then(|s| s.sub(3, d));
    assert_eq!(cancel.map(FracSum::to_rat), Some(Rat::ZERO));
}
