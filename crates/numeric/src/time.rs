//! Points and durations on the real time line, in quantum units.
//!
//! The paper normalizes the quantum size to one time unit; "slot `t`" is the
//! interval `[t, t+1)` for integral `t`, and "time `t`" is the beginning of
//! slot `t` (a *slot boundary*). Under the SFQ model all scheduling events
//! are slot boundaries; under the DVQ model they may be arbitrary rationals.

use crate::rational::Rat;

/// A point on the real time line (or a duration), in quantum units.
///
/// Exact rational: DVQ event times like `2 − δ` are represented precisely.
pub type Time = Rat;
