//! Pfair scheduling algorithms (the paper's contribution and its context).
//!
//! This crate implements the *priority side* of Pfair scheduling:
//!
//! * [`EPDF`](epdf::Epdf) — earliest-pseudo-deadline-first, the suboptimal
//!   baseline with no tie-breaks;
//! * [`PD²`](pd2::Pd2) — the most efficient optimal algorithm: deadline,
//!   then b-bit, then group deadline;
//! * [`PF`](pf::Pf) — the original optimal algorithm of Baruah et al.,
//!   breaking deadline ties by recursively comparing successor windows;
//! * [`PD`](pd::Pd) — Baruah/Gehrke/Plaxton's constant-time variant
//!   (implemented as a tie-break superset of PD², see DESIGN.md §3.3);
//! * [`PD^B`](pdb) — the paper's worst-case *blocking* algorithm: an SFQ
//!   algorithm that mimics the eligibility- and predecessor-blocking a
//!   subtask can suffer under PD² in the DVQ model (§3.1, Table 1).
//!
//! Priorities are exposed as total orders over released subtasks
//! ([`PriorityOrder`]); the simulators in `pfair-sim` consume them. For
//! the EPDF/PD/PD² orders, [`key`] additionally provides precomputed
//! `Ord` keys ([`Pd2Key`], [`EpdfKey`], [`PdKey`]) plus a per-system
//! [`KeyCache`], letting the simulators' hot loops sort and heap on
//! plain struct comparisons instead of re-deriving window formulas —
//! provably schedule-for-schedule identical to the comparator path. The
//! paper's precedence symbol `T_i ≺ U_j` ("`T_i` has strictly higher
//! priority") corresponds to `cmp(a, b) == Ordering::Less` *before* the
//! deterministic final tie-break; see [`priority`] for how ties that the
//! paper leaves "arbitrary" are pinned down reproducibly.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod ablation;
pub mod epdf;
pub mod key;
pub mod pd;
pub mod pd2;
pub mod pdb;
pub mod pf;
pub mod priority;

pub use ablation::{Pd2NoBBit, Pd2NoGroupDeadline};
pub use epdf::Epdf;
pub use key::{
    EpdfKey, KeyCache, KeyDispatch, Packed, Packer, Pd2Key, PdKey, StrictKeys, SubtaskKey,
};
pub use pd::Pd;
pub use pd2::Pd2;
pub use pf::Pf;
pub use priority::{Algorithm, ComparatorOnly, PriorityOrder};
