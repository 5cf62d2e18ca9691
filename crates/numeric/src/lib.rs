//! Exact numeric foundations for Pfair scheduling simulation.
//!
//! Under the **DVQ model** (desynchronized, variable-sized quanta) of
//! Devi & Anderson (IPPS 2005), scheduling decisions occur at *non-integral*
//! times: a subtask that yields `δ` before the end of its quantum frees its
//! processor at a time like `2 − δ`, and the chain of subsequent decisions
//! produces arbitrary rational event times. Reproducing the paper's
//! boundary-sensitive scenarios (e.g. a processor freeing "just before" an
//! eligibility boundary) with floating point would be fragile: the whole
//! analysis turns on exact comparisons such as `t < 2` vs `t = 2`.
//!
//! This crate therefore provides:
//!
//! * [`Rat`] — an exact, always-reduced rational number backed by `i128`
//!   numerator/denominator with gcd-factored checked arithmetic (a
//!   diagnostic panic only when even the *reduced* result overflows, which
//!   lag sums on the 720720 cost grid never do);
//! * [`Time`] — a transparent alias of [`Rat`] used for points on the real
//!   time line;
//! * [`Tier`] — the arithmetic of a run's times, written once for two
//!   tiers: [`Ticks`], `i64` tick counts that compare in one instruction,
//!   and [`Exact`], `Rat`s. Every conversion into ticks is exact-or-`None`,
//!   so callers fall back to [`Exact`] instead of ever rounding (see the
//!   [`tier`] module docs for the contract);
//! * [`Tiered`] — the one switch between the tiers: state on ticks until
//!   a time leaves them, then on exact rationals ([`Lift`], [`on_tier!`],
//!   [`on_tier_or_exact!`]);
//! * [`FracSum`] — an exact sum of fractions over the lcm of their
//!   denominators, one gcd per term and a single reduction at the end;
//!   every step is checked, so callers fall back to `Rat` sums on `None`;
//! * integer helpers ([`gcd`], [`lcm`], [`checked_lcm`], [`checked_lcm_of`],
//!   [`floor_div`],
//!   [`ceil_div`]) used by the Pfair window formulas
//!   `r(T_i) = ⌊(i−1)p/e⌋`, `d(T_i) = ⌈ip/e⌉`.
//!
//! The quantum size is normalized to `1` throughout the workspace, matching
//! the paper's convention ("we henceforth assume that the quantum size is
//! one time unit").

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod frac;
pub mod int;
pub mod quantum;
pub mod rational;
pub mod tier;
pub mod time;

pub use frac::FracSum;
pub use int::{ceil_div, checked_lcm, checked_lcm_of, floor_div, gcd, gcd_i128, lcm};
pub use quantum::QuantumScale;
pub use rational::Rat;
pub use tier::{Exact, Lift, Ticks, Tier, Tiered, GRID};
pub use time::Time;
