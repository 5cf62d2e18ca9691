//! Priority orders as static, totally ordered **keys**.
//!
//! The comparators in this crate ([`Pd2`](crate::Pd2), [`Epdf`](crate::Epdf),
//! [`Pd`](crate::Pd)) re-read the compared subtasks' parameters from the
//! [`TaskSystem`] on every call. That is the right shape for *defining* the
//! orders, but in the simulators' hot loops the same subtask is compared
//! many times, and each comparison chases `SubtaskRef → Subtask → Task`
//! twice. This module precomputes, once per subtask, a small `Copy` key
//! whose derived-free custom `Ord` reproduces the comparator's total order
//! exactly — so ready queues can be binary heaps and slot selection can
//! sort plain keys.
//!
//! # What is precomputed
//!
//! Every key carries the θ-adjusted parameters its order reads — pseudo-
//! deadline, b-bit, group deadline, task weight — plus the subtask id for
//! the deterministic final tie-break. Since a subtask's parameters never
//! change after release, a key is valid for the lifetime of the system and
//! a [`KeyCache`] built once (O(n)) serves every subsequent comparison in
//! O(1) with no pointer chasing.
//!
//! # Why the conditional group deadline needs a custom `Ord`
//!
//! PD²'s third rule compares group deadlines **only when both b-bits are
//! 1**. A naive lexicographic tuple `(d, ¬b, −D, …)` cannot express that:
//! for a b = 0 pair it would still let `D` discriminate, inverting ties the
//! comparator leaves to the weight/id stages. [`Pd2Key`]'s manual `Ord`
//! gates the `D` stage on `self.bbit && other.bbit`, exactly mirroring
//! [`Pd2::cmp_strict`](crate::PriorityOrder::cmp_strict).
//!
//! # Equivalence obligation
//!
//! Each key type is *proven against its comparator*, not trusted: unit and
//! property tests below (and cross-crate integration tests) require
//! `key(a).cmp(&key(b)) == order.cmp(sys, a, b)` and
//! `key(a).cmp_strict(&key(b)) == order.cmp_strict(sys, a, b)` for every
//! pair — the simulators additionally assert schedule-for-schedule
//! identity on the paper's golden traces, and the inversion searches,
//! which test the strict order through [`StrictKeys`], are held to the
//! comparator's answers by their oracle tests. Any change to a
//! comparator must be mirrored here and re-proven.

use core::cmp::Ordering;
use core::ops::ControlFlow;

use pfair_taskmodel::window;
use pfair_taskmodel::{SubtaskId, SubtaskRef, TaskSystem, Weight};

/// A precomputed priority key: a `Copy` value whose `Ord` reproduces one
/// [`PriorityOrder`](crate::PriorityOrder)'s total order (smaller = higher
/// priority, i.e. scheduled first).
pub trait SubtaskKey: Copy + Ord + core::fmt::Debug {
    /// Builds the key of `st` from its precomputed (θ-adjusted) parameters.
    fn of_subtask(sys: &TaskSystem, st: SubtaskRef) -> Self;

    /// The key's leading comparison stage: the θ-adjusted pseudo-deadline.
    ///
    /// Every order in this module compares deadlines first, so a ready
    /// queue may bucket subtasks by this integer and run the remaining
    /// stages (b-bit, group deadline, weight, id) only on bucket
    /// collisions — see the simulators' bucketed ready sets.
    fn deadline(&self) -> i64;

    /// The order's own comparison without the deterministic weight/id
    /// tie-breaks, mirroring
    /// [`PriorityOrder::cmp_strict`](crate::PriorityOrder::cmp_strict):
    /// `Less` is the paper's `≺`, and `Equal` means the algorithm regards
    /// the two subtasks as equal priority. `Ord::cmp` refines it.
    fn cmp_strict(&self, other: &Self) -> Ordering;
}

/// The PD² total order as a key. Smaller = higher priority, matching
/// `PriorityOrder::cmp` (deadline asc; b = 1 first; for b = 1 pairs,
/// group deadline desc; then heavier weight first; then `(task, index)`).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Pd2Key {
    /// Pseudo-deadline `d(T_i)` (θ-adjusted).
    pub deadline: i64,
    /// The b-bit.
    pub bbit: bool,
    /// Group deadline `D(T_i)` (θ-adjusted; 0 for light tasks).
    pub group_deadline: i64,
    /// Task weight (for the deterministic residual tie-break).
    pub weight: Weight,
    /// Subtask identity (final tie-break).
    pub id: SubtaskId,
}

impl Pd2Key {
    /// Builds the key of subtask `index` of a task with `weight` and IS
    /// offset `theta`, from the window formulas directly (no `TaskSystem`
    /// needed — the online scheduler has none).
    #[must_use]
    pub fn of(weight: Weight, id: SubtaskId, index: u64, theta: i64) -> Pd2Key {
        let gd = window::group_deadline(weight, index);
        Pd2Key {
            deadline: theta + window::deadline(weight, index),
            bbit: window::bbit(weight, index),
            group_deadline: if gd == 0 { 0 } else { theta + gd },
            weight,
            id,
        }
    }
}

impl PartialOrd for Pd2Key {
    fn partial_cmp(&self, other: &Pd2Key) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Pd2Key {
    fn cmp(&self, other: &Pd2Key) -> Ordering {
        self.cmp_strict(other)
            // Heavier weight first, then identity.
            .then_with(|| other.weight.cmp(&self.weight))
            .then_with(|| self.id.cmp(&other.id))
    }
}

impl SubtaskKey for Pd2Key {
    fn of_subtask(sys: &TaskSystem, st: SubtaskRef) -> Pd2Key {
        let s = sys.subtask(st);
        Pd2Key {
            deadline: s.deadline,
            bbit: s.bbit,
            group_deadline: s.group_deadline,
            weight: sys.task(s.id.task).weight,
            id: s.id,
        }
    }

    fn deadline(&self) -> i64 {
        self.deadline
    }

    #[inline]
    fn cmp_strict(&self, other: &Pd2Key) -> Ordering {
        self.deadline
            .cmp(&other.deadline)
            // b = 1 first.
            .then_with(|| other.bbit.cmp(&self.bbit))
            // Group deadline only when both b-bits are set; larger first.
            .then_with(|| {
                if self.bbit && other.bbit {
                    other.group_deadline.cmp(&self.group_deadline)
                } else {
                    Ordering::Equal
                }
            })
    }
}

/// The EPDF total order as a key: deadline asc, then (from the shared
/// deterministic refinement in `PriorityOrder::cmp`) heavier weight first,
/// then `(task, index)`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct EpdfKey {
    /// Pseudo-deadline `d(T_i)` (θ-adjusted).
    pub deadline: i64,
    /// Task weight (deterministic residual tie-break).
    pub weight: Weight,
    /// Subtask identity (final tie-break).
    pub id: SubtaskId,
}

impl PartialOrd for EpdfKey {
    fn partial_cmp(&self, other: &EpdfKey) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for EpdfKey {
    fn cmp(&self, other: &EpdfKey) -> Ordering {
        self.cmp_strict(other)
            .then_with(|| other.weight.cmp(&self.weight))
            .then_with(|| self.id.cmp(&other.id))
    }
}

impl SubtaskKey for EpdfKey {
    fn of_subtask(sys: &TaskSystem, st: SubtaskRef) -> EpdfKey {
        let s = sys.subtask(st);
        EpdfKey {
            deadline: s.deadline,
            weight: sys.task(s.id.task).weight,
            id: s.id,
        }
    }

    fn deadline(&self) -> i64 {
        self.deadline
    }

    #[inline]
    fn cmp_strict(&self, other: &EpdfKey) -> Ordering {
        self.deadline.cmp(&other.deadline)
    }
}

/// The PD total order as a key: PD²'s three rules, then heavy-before-light,
/// then heavier weight first, then `(task, index)`. (The `weight` stage of
/// the shared refinement is already decided by PD's own weight tie-break,
/// so it adds nothing further.)
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct PdKey {
    /// The PD² stages (deadline, b-bit, conditional group deadline) plus
    /// weight and id; PD's extra stages slot in between.
    pub pd2: Pd2Key,
    /// Whether the task is heavy (`wt ≥ 1/2`): heavy wins PD's first
    /// refinement stage.
    pub heavy: bool,
}

impl PartialOrd for PdKey {
    fn partial_cmp(&self, other: &PdKey) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for PdKey {
    fn cmp(&self, other: &PdKey) -> Ordering {
        self.cmp_strict(other)
            .then_with(|| self.pd2.id.cmp(&other.pd2.id))
    }
}

impl SubtaskKey for PdKey {
    fn of_subtask(sys: &TaskSystem, st: SubtaskRef) -> PdKey {
        let pd2 = Pd2Key::of_subtask(sys, st);
        PdKey {
            heavy: pd2.weight.is_heavy(),
            pd2,
        }
    }

    fn deadline(&self) -> i64 {
        self.pd2.deadline
    }

    #[inline]
    fn cmp_strict(&self, other: &PdKey) -> Ordering {
        self.pd2
            .cmp_strict(&other.pd2)
            // PD's refinements: heavy first, then heavier weight.
            .then_with(|| other.heavy.cmp(&self.heavy))
            .then_with(|| other.pd2.weight.cmp(&self.pd2.weight))
    }
}

/// A per-system table of precomputed keys, indexed by [`SubtaskRef`].
///
/// Built once in O(n); every lookup thereafter is a plain array read, so
/// hot scheduler loops compare keys without touching the [`TaskSystem`].
#[derive(Clone, Debug)]
pub struct KeyCache<K> {
    keys: Vec<K>,
}

impl<K: SubtaskKey> KeyCache<K> {
    /// Precomputes the key of every subtask of `sys`.
    #[must_use]
    pub fn build(sys: &TaskSystem) -> KeyCache<K> {
        let n = sys.num_subtasks();
        let keys = (0..n)
            .map(|i| K::of_subtask(sys, SubtaskRef(i as u32)))
            .collect();
        KeyCache { keys }
    }

    /// The precomputed key of `st`.
    #[inline]
    #[must_use]
    pub fn key(&self, st: SubtaskRef) -> K {
        self.keys[st.idx()]
    }

    /// Number of cached keys (= subtasks of the system).
    #[must_use]
    pub fn len(&self) -> usize {
        self.keys.len()
    }

    /// Whether the cache is empty (the system has no subtasks).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.keys.is_empty()
    }
}

/// Which precomputed key type reproduces a
/// [`PriorityOrder`](crate::PriorityOrder)'s total order, if any.
/// Returned by
/// [`PriorityOrder::key_dispatch`](crate::PriorityOrder::key_dispatch);
/// simulators use it to swap comparator calls for cached-key comparisons
/// without changing any schedule.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum KeyDispatch {
    /// [`Pd2Key`] reproduces the order.
    Pd2,
    /// [`EpdfKey`] reproduces the order.
    Epdf,
    /// [`PdKey`] reproduces the order.
    Pd,
    /// No key type registered; callers must use the comparator.
    #[default]
    Comparator,
}

/// The paper's strict priority `≺` of one order over a column of
/// subtasks, with each entry's key precomputed when the order registers a
/// key type.
///
/// The column is laid out in whatever order its owner scans it — the
/// post-hoc inversion search uses placement order, the streaming detector
/// dispatch order — so a scan over a range of entries reads its keys
/// contiguously. Under [`KeyDispatch::Pd2`], [`KeyDispatch::Epdf`] and
/// [`KeyDispatch::Pd`] a test is one [`SubtaskKey::cmp_strict`]; under
/// [`KeyDispatch::Comparator`] (PF, ablations, custom orders, and
/// [`ComparatorOnly`](crate::ComparatorOnly) wrappers) it is
/// [`PriorityOrder::precedes`](crate::PriorityOrder::precedes), so the
/// answer is the comparator's for every order.
#[derive(Clone, Debug)]
pub struct StrictKeys<'a> {
    sys: &'a TaskSystem,
    order: &'a dyn crate::PriorityOrder,
    column: Column,
}

#[derive(Clone, Debug)]
enum Column {
    Pd2(Vec<Pd2Key>),
    Epdf(Vec<EpdfKey>),
    Pd(Vec<PdKey>),
    /// No key type: the entries themselves, for the comparator.
    Comparator(Vec<SubtaskRef>),
}

impl<'a> StrictKeys<'a> {
    /// An empty column of `sys`'s subtasks under `order`.
    #[must_use]
    pub fn new(sys: &'a TaskSystem, order: &'a dyn crate::PriorityOrder) -> StrictKeys<'a> {
        let column = match order.key_dispatch() {
            KeyDispatch::Pd2 => Column::Pd2(Vec::new()),
            KeyDispatch::Epdf => Column::Epdf(Vec::new()),
            KeyDispatch::Pd => Column::Pd(Vec::new()),
            KeyDispatch::Comparator => Column::Comparator(Vec::new()),
        };
        StrictKeys { sys, order, column }
    }

    /// The column of `entries`, in the given order.
    #[must_use]
    pub fn of_subtasks(
        sys: &'a TaskSystem,
        order: &'a dyn crate::PriorityOrder,
        entries: impl IntoIterator<Item = SubtaskRef>,
    ) -> StrictKeys<'a> {
        let entries = entries.into_iter();
        let mut keys = StrictKeys::new(sys, order);
        keys.reserve(entries.size_hint().0);
        for st in entries {
            keys.push(st);
        }
        keys
    }

    /// Makes room for at least `additional` more entries.
    fn reserve(&mut self, additional: usize) {
        match &mut self.column {
            Column::Pd2(keys) => keys.reserve(additional),
            Column::Epdf(keys) => keys.reserve(additional),
            Column::Pd(keys) => keys.reserve(additional),
            Column::Comparator(refs) => refs.reserve(additional),
        }
    }

    /// Appends `st` as the next entry.
    pub fn push(&mut self, st: SubtaskRef) {
        let sys = self.sys;
        match &mut self.column {
            Column::Pd2(keys) => keys.push(Pd2Key::of_subtask(sys, st)),
            Column::Epdf(keys) => keys.push(EpdfKey::of_subtask(sys, st)),
            Column::Pd(keys) => keys.push(PdKey::of_subtask(sys, st)),
            Column::Comparator(refs) => refs.push(st),
        }
    }

    /// Each entry's dense rank under the strict priority: entry `a`
    /// strictly precedes entry `b` iff `ranks[a] < ranks[b]`, so equal
    /// priority gets an equal rank. `None` for the comparator column,
    /// which has no key to sort by.
    ///
    /// One sort of the column. A rank is 4 bytes where a key is 24 to 56,
    /// so a caller that needs only the order can drop the column after.
    #[must_use]
    pub fn ranks(&self) -> Option<Vec<u32>> {
        match &self.column {
            Column::Pd2(keys) => Some(dense_ranks(keys)),
            Column::Epdf(keys) => Some(dense_ranks(keys)),
            Column::Pd(keys) => Some(dense_ranks(keys)),
            Column::Comparator(_) => None,
        }
    }

    /// Calls `visit` on each entry of `candidates` (indices into the
    /// column) that `victim` strictly precedes, in `candidates` order,
    /// until `visit` breaks.
    pub fn for_each_lower(
        &self,
        victim: SubtaskRef,
        candidates: impl Iterator<Item = usize>,
        visit: impl FnMut(usize) -> ControlFlow<()>,
    ) {
        let sys = self.sys;
        match &self.column {
            Column::Pd2(keys) => lower_keys(keys, sys, victim, candidates, visit),
            Column::Epdf(keys) => lower_keys(keys, sys, victim, candidates, visit),
            Column::Pd(keys) => lower_keys(keys, sys, victim, candidates, visit),
            Column::Comparator(refs) => lower_by(
                candidates,
                |i| self.order.precedes(sys, victim, refs[i]),
                visit,
            ),
        }
    }
}

fn dense_ranks<K: SubtaskKey>(keys: &[K]) -> Vec<u32> {
    let n = u32::try_from(keys.len()).expect("a column's length fits u32");
    let mut by_priority: Vec<u32> = (0..n).collect();
    by_priority.sort_unstable_by(|&a, &b| keys[a as usize].cmp_strict(&keys[b as usize]));
    let mut ranks = vec![0; keys.len()];
    let mut rank = 0;
    for pair in by_priority.windows(2) {
        let [a, b] = [pair[0] as usize, pair[1] as usize];
        if keys[a].cmp_strict(&keys[b]) == Ordering::Less {
            rank += 1;
        }
        ranks[b] = rank;
    }
    ranks
}

fn lower_keys<K: SubtaskKey>(
    keys: &[K],
    sys: &TaskSystem,
    victim: SubtaskRef,
    candidates: impl Iterator<Item = usize>,
    visit: impl FnMut(usize) -> ControlFlow<()>,
) {
    let v = K::of_subtask(sys, victim);
    lower_by(
        candidates,
        |i| v.cmp_strict(&keys[i]) == Ordering::Less,
        visit,
    );
}

fn lower_by(
    candidates: impl Iterator<Item = usize>,
    mut lower: impl FnMut(usize) -> bool,
    mut visit: impl FnMut(usize) -> ControlFlow<()>,
) {
    for i in candidates {
        if lower(i) && visit(i).is_break() {
            return;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{ComparatorOnly, Epdf, Pd, Pd2, Pf, PriorityOrder};
    use pfair_taskmodel::release;
    use proptest::prelude::*;

    /// The key order must coincide with the comparator's total order on
    /// every pair of a representative system — for all three key types —
    /// and each key's `cmp_strict` with the order's `cmp_strict`.
    #[test]
    fn key_order_matches_comparator() {
        let sys = release::periodic(
            &[
                (7, 8),
                (3, 4),
                (1, 2),
                (2, 3),
                (1, 6),
                (5, 6),
                (1, 1),
                (5, 12),
            ],
            24,
        );
        let cache = KeyCache::<Pd2Key>::build(&sys);
        for (a, _) in sys.iter_refs() {
            for (b, _) in sys.iter_refs() {
                assert_eq!(
                    cache.key(a).cmp(&cache.key(b)),
                    Pd2.cmp(&sys, a, b),
                    "{:?} vs {:?}",
                    sys.subtask(a).id,
                    sys.subtask(b).id
                );
            }
        }
        let epdf = KeyCache::<EpdfKey>::build(&sys);
        let pd = KeyCache::<PdKey>::build(&sys);
        for (a, _) in sys.iter_refs() {
            for (b, _) in sys.iter_refs() {
                assert_eq!(epdf.key(a).cmp(&epdf.key(b)), Epdf.cmp(&sys, a, b));
                assert_eq!(pd.key(a).cmp(&pd.key(b)), Pd.cmp(&sys, a, b));
                assert_eq!(
                    cache.key(a).cmp_strict(&cache.key(b)),
                    Pd2.cmp_strict(&sys, a, b),
                    "{:?} vs {:?}",
                    sys.subtask(a).id,
                    sys.subtask(b).id
                );
                assert_eq!(
                    epdf.key(a).cmp_strict(&epdf.key(b)),
                    Epdf.cmp_strict(&sys, a, b)
                );
                assert_eq!(pd.key(a).cmp_strict(&pd.key(b)), Pd.cmp_strict(&sys, a, b));
            }
        }
    }

    /// `StrictKeys` answers `order.precedes` for every pair, keyed or not:
    /// PD², EPDF and PD through their keys, PF and a `ComparatorOnly`
    /// wrapper through the comparator.
    #[test]
    fn strict_keys_answer_precedes() {
        let sys = release::periodic(&[(7, 8), (3, 4), (1, 2), (2, 3), (1, 6), (5, 12)], 24);
        let pd2 = ComparatorOnly(&Pd2);
        let orders: [&dyn PriorityOrder; 5] = [&Pd2, &Epdf, &Pd, &Pf, &pd2];
        let refs: Vec<SubtaskRef> = sys.iter_refs().map(|(st, _)| st).collect();
        for order in orders {
            let keys = StrictKeys::of_subtasks(&sys, order, refs.iter().copied());
            assert_eq!(
                matches!(keys.column, Column::Comparator(_)),
                order.key_dispatch() == KeyDispatch::Comparator,
                "{}",
                order.name()
            );
            for &victim in &refs {
                let mut lower = Vec::new();
                keys.for_each_lower(victim, 0..refs.len(), |i| {
                    lower.push(refs[i]);
                    ControlFlow::Continue(())
                });
                let want: Vec<SubtaskRef> = refs
                    .iter()
                    .copied()
                    .filter(|&b| order.precedes(&sys, victim, b))
                    .collect();
                assert_eq!(lower, want, "{} {victim:?}", order.name());
                let mut first = None;
                keys.for_each_lower(victim, 0..refs.len(), |i| {
                    first = Some(refs[i]);
                    ControlFlow::Break(())
                });
                assert_eq!(first, want.first().copied(), "{}", order.name());
            }
        }
    }

    /// Keyed columns rank their entries densely, in the strict order;
    /// the comparator column has no ranks.
    #[test]
    fn ranks_follow_the_strict_order() {
        let sys = release::periodic(&[(7, 8), (3, 4), (1, 2), (2, 3), (1, 6), (5, 12)], 24);
        let pd2 = ComparatorOnly(&Pd2);
        let orders: [&dyn PriorityOrder; 5] = [&Pd2, &Epdf, &Pd, &Pf, &pd2];
        // Reversed, so the column is not already in priority order.
        let mut refs: Vec<SubtaskRef> = sys.iter_refs().map(|(st, _)| st).collect();
        refs.reverse();
        for order in orders {
            let keys = StrictKeys::of_subtasks(&sys, order, refs.iter().copied());
            let Some(ranks) = keys.ranks() else {
                assert_eq!(order.key_dispatch(), KeyDispatch::Comparator);
                continue;
            };
            assert_eq!(ranks.len(), refs.len());
            for (a, &ra) in refs.iter().zip(&ranks) {
                for (b, &rb) in refs.iter().zip(&ranks) {
                    assert_eq!(ra < rb, order.precedes(&sys, *a, *b), "{}", order.name());
                }
            }
            let mut distinct = ranks.clone();
            distinct.sort_unstable();
            distinct.dedup();
            assert!(
                distinct.iter().zip(0..).all(|(&r, i)| r == i),
                "{} ranks are dense",
                order.name()
            );
        }
    }

    /// `Pd2Key::of` (window formulas) and `of_subtask` (precomputed
    /// fields) must agree: the online scheduler uses the former, the
    /// simulators the latter.
    #[test]
    fn of_and_of_subtask_agree() {
        let sys = release::periodic(&[(7, 8), (3, 4), (1, 2), (1, 6)], 24);
        for (st, s) in sys.iter_refs() {
            let w = sys.task(s.id.task).weight;
            assert_eq!(
                Pd2Key::of(w, s.id, s.id.index, s.theta),
                Pd2Key::of_subtask(&sys, st),
                "{:?}",
                s.id
            );
        }
    }

    #[test]
    fn conditional_group_deadline_gating() {
        // Two heavy b = 0 subtasks with different D must tie through the
        // D stage and fall to weight/id — exactly like the comparator.
        // wt 1/2 with different θ: d equal requires matching θ… instead
        // compare equal-weight b = 0 at same deadline from two tasks.
        let w = Weight::new(1, 2);
        let a = Pd2Key::of(
            w,
            SubtaskId {
                task: pfair_taskmodel::TaskId(0),
                index: 1,
            },
            1,
            0,
        );
        let b = Pd2Key::of(
            w,
            SubtaskId {
                task: pfair_taskmodel::TaskId(1),
                index: 1,
            },
            1,
            0,
        );
        assert!(!a.bbit && !b.bbit);
        assert_eq!(a.cmp(&b), core::cmp::Ordering::Less); // id tie-break
    }

    #[test]
    fn deadline_accessor_is_the_leading_stage() {
        // `SubtaskKey::deadline` must expose exactly the field the first
        // comparison stage reads — the bucketing contract.
        let sys = release::periodic(&[(3, 4), (1, 2), (5, 6)], 12);
        for (st, s) in sys.iter_refs() {
            assert_eq!(Pd2Key::of_subtask(&sys, st).deadline(), s.deadline);
            assert_eq!(EpdfKey::of_subtask(&sys, st).deadline(), s.deadline);
            assert_eq!(PdKey::of_subtask(&sys, st).deadline(), s.deadline);
        }
    }

    #[test]
    fn cache_reports_size() {
        let sys = release::periodic(&[(1, 2), (1, 3)], 6);
        let cache = KeyCache::<Pd2Key>::build(&sys);
        assert_eq!(cache.len(), sys.num_subtasks());
        assert!(!cache.is_empty());
    }

    proptest! {
        /// Key equivalence over random weights/indices/offsets — all three
        /// key types, both comparison directions.
        #[test]
        fn prop_key_matches_comparator(
            e1 in 1i64..12, p1 in 1i64..12, i1 in 1u64..40, th1 in 0i64..6,
            e2 in 1i64..12, p2 in 1i64..12, i2 in 1u64..40, th2 in 0i64..6,
        ) {
            prop_assume!(e1 <= p1 && e2 <= p2);
            // Build a two-task system exposing exactly these subtasks.
            let mut b = pfair_taskmodel::TaskSystemBuilder::new();
            let w1 = Weight::new(e1, p1);
            let w2 = Weight::new(e2, p2);
            let t1 = b.add_task(w1);
            let t2 = b.add_task(w2);
            b.push(t1, i1, th1, None).unwrap();
            b.push(t2, i2, th2, None).unwrap();
            let sys = b.build();
            let (ra, sa) = sys.iter_refs().next().unwrap();
            let (rb, sb) = sys.iter_refs().nth(1).unwrap();
            let ka = Pd2Key::of(w1, sa.id, i1, th1);
            let kb = Pd2Key::of(w2, sb.id, i2, th2);
            prop_assert_eq!(ka.cmp(&kb), Pd2.cmp(&sys, ra, rb));
            prop_assert_eq!(kb.cmp(&ka), Pd2.cmp(&sys, rb, ra));
            let (ea, eb) = (EpdfKey::of_subtask(&sys, ra), EpdfKey::of_subtask(&sys, rb));
            prop_assert_eq!(ea.cmp(&eb), Epdf.cmp(&sys, ra, rb));
            prop_assert_eq!(eb.cmp(&ea), Epdf.cmp(&sys, rb, ra));
            let (pa, pb) = (PdKey::of_subtask(&sys, ra), PdKey::of_subtask(&sys, rb));
            prop_assert_eq!(pa.cmp(&pb), Pd.cmp(&sys, ra, rb));
            prop_assert_eq!(pb.cmp(&pa), Pd.cmp(&sys, rb, ra));
            prop_assert_eq!(ka.cmp_strict(&kb), Pd2.cmp_strict(&sys, ra, rb));
            prop_assert_eq!(kb.cmp_strict(&ka), Pd2.cmp_strict(&sys, rb, ra));
            prop_assert_eq!(ea.cmp_strict(&eb), Epdf.cmp_strict(&sys, ra, rb));
            prop_assert_eq!(eb.cmp_strict(&ea), Epdf.cmp_strict(&sys, rb, ra));
            prop_assert_eq!(pa.cmp_strict(&pb), Pd.cmp_strict(&sys, ra, rb));
            prop_assert_eq!(pb.cmp_strict(&pa), Pd.cmp_strict(&sys, rb, ra));
        }
    }
}
