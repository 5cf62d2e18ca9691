//! The ready sets of the event-driven simulators ([`crate::kernel`] and
//! [`crate::staggered`]): push an entry with the set's [`ReadySet::Key`]
//! and a tag of the loop's choosing, pop the tag of the best entry.
//!
//! Over a [`TaskSystem`], `with_ready_set!` keys subtasks by
//! [`SubtaskRef`] into the deadline-bucketed [`BucketReady`] when
//! [`PriorityOrder::key_dispatch`] names a key type (EPDF, PD², PD), and
//! into the comparator scan [`ComparatorReady`] otherwise; both pop in the
//! same total order. Online, [`KeyHeap`] orders the PD² keys its driver
//! supplies.

use std::cmp::{Ordering, Reverse};
use std::collections::BinaryHeap;

use pfair_core::key::{Packer, Pd2Key, SubtaskKey};
use pfair_core::priority::PriorityOrder;
use pfair_taskmodel::{SubtaskRef, TaskSystem};

use crate::kernel::SubSpec;

/// The ready set of an event loop: push activated subtasks, pop the
/// highest-priority one.
pub trait ReadySet {
    /// What an entry is ranked by.
    type Key: Copy + std::fmt::Debug;
    /// Adds the entry `key`, returned by a later pop as `tag`.
    fn push(&mut self, key: Self::Key, tag: u32);
    /// Removes the highest-priority entry and returns its tag.
    fn pop_best(&mut self) -> Option<u32>;
    /// Whether nothing is ready.
    fn is_empty(&self) -> bool;
    /// The subtask after `key`'s in its chain, for a set that knows the
    /// chains (one over a [`TaskSystem`]); `None` for one that does not.
    fn successor(&self, _key: Self::Key) -> Option<SubSpec<Self::Key>> {
        None
    }
}

/// The PD² ready heap of the online drivers: entries ordered by the
/// [`Pd2Key`] their driver supplies, a total order, so ties never reach
/// the tags.
#[derive(Debug, Default)]
pub struct KeyHeap(BinaryHeap<Reverse<(Pd2Key, u32)>>);

impl ReadySet for KeyHeap {
    type Key = Pd2Key;

    fn push(&mut self, key: Pd2Key, tag: u32) {
        self.0.push(Reverse((key, tag)));
    }

    fn pop_best(&mut self) -> Option<u32> {
        self.0.pop().map(|Reverse((_, tag))| tag)
    }

    fn is_empty(&self) -> bool {
        self.0.is_empty()
    }
}

/// Hard cap on the number of deadline buckets: beyond this, the far tail
/// shares the last bucket (clamping is *correct* because in-bucket order
/// uses the full key, whose leading stage is the deadline — the tail
/// bucket just degrades toward a plain binary heap).
const MAX_BUCKETS: usize = 1 << 16;

/// Ready set over packed keys, bucketed by their leading comparison
/// stage (the integer θ-adjusted pseudo-deadline).
///
/// Every priority order in `pfair-core` compares deadlines first
/// ([`Packed::deadline`]), so the bucket index alone decides most pops;
/// the remaining stages (b-bit, group deadline, weight, id) are evaluated
/// only on bucket collisions, via a per-bucket binary heap. Each entry is
/// the subtask's [`Packed`] image, built when it is pushed and stored
/// inline with its tag in 32 bytes, so a sift comparison is two integer
/// compares over contiguous bucket memory and a run allocates no
/// per-subtask key table.
///
/// [`Packed`]: pfair_core::key::Packed
/// [`Packed::deadline`]: pfair_core::key::Packed::deadline
pub(crate) struct BucketReady<'a, K: SubtaskKey> {
    packer: Packer<'a, K>,
    buckets: Vec<Vec<Entry>>,
    /// Deadline of bucket 0.
    base: i64,
    /// First bucket that may be nonempty (monotone within a pop run;
    /// rewound by pushes of earlier deadlines).
    cursor: usize,
    len: usize,
}

/// A bucket entry: a [`Packed`] image flattened, so that the tag fills
/// its padding.
///
/// [`Packed`]: pfair_core::key::Packed
#[derive(Clone, Copy, Debug)]
struct Entry {
    strict: u128,
    tie: u64,
    tag: u32,
}

impl Entry {
    /// Whether `self`'s image orders before `other`'s.
    fn before(&self, other: &Entry) -> bool {
        (self.strict, self.tie) < (other.strict, other.tie)
    }
}

impl<'a, K: SubtaskKey> BucketReady<'a, K> {
    pub(crate) fn new(sys: &'a TaskSystem) -> BucketReady<'a, K> {
        let (mut lo, mut hi) = (i64::MAX, i64::MIN);
        for (_, s) in sys.iter_refs() {
            lo = lo.min(s.deadline);
            hi = hi.max(s.deadline);
        }
        let width = if lo > hi {
            1 // no subtasks; keep one bucket so indexing stays total
        } else {
            let span = i128::from(hi) - i128::from(lo) + 1;
            usize::try_from(span)
                .unwrap_or(MAX_BUCKETS)
                .min(MAX_BUCKETS)
        };
        BucketReady {
            packer: Packer::new(sys),
            buckets: vec![Vec::new(); width],
            base: if lo > hi { 0 } else { lo },
            cursor: 0,
            len: 0,
        }
    }

    fn bucket_index(&self, d: i64) -> usize {
        let off = i128::from(d) - i128::from(self.base);
        usize::try_from(off)
            .expect("deadline below the bucket base: a key and the task system disagree")
            .min(self.buckets.len() - 1)
    }
}

impl<K: SubtaskKey> ReadySet for BucketReady<'_, K> {
    type Key = SubtaskRef;

    fn push(&mut self, st: SubtaskRef, tag: u32) {
        let key = self.packer.pack(st);
        let idx = self.bucket_index(key.deadline());
        if idx < self.cursor {
            self.cursor = idx;
        }
        let (strict, tie) = (key.strict, key.tie);
        heap_push(&mut self.buckets[idx], Entry { strict, tie, tag });
        self.len += 1;
    }

    fn pop_best(&mut self) -> Option<u32> {
        if self.len == 0 {
            return None;
        }
        while self.buckets[self.cursor].is_empty() {
            self.cursor += 1;
        }
        self.len -= 1;
        Some(heap_pop(&mut self.buckets[self.cursor]))
    }

    fn is_empty(&self) -> bool {
        self.len == 0
    }

    fn successor(&self, st: SubtaskRef) -> Option<SubSpec<SubtaskRef>> {
        let sys = self.packer.sys();
        Some(SubSpec::of(sys, sys.subtask(st).succ?))
    }
}

/// Sift-up push into a min-heap of entries.
fn heap_push(bucket: &mut Vec<Entry>, entry: Entry) {
    bucket.push(entry);
    let mut i = bucket.len() - 1;
    while i > 0 {
        let parent = (i - 1) / 2;
        if bucket[i].before(&bucket[parent]) {
            bucket.swap(i, parent);
            i = parent;
        } else {
            break;
        }
    }
}

/// Sift-down pop of the image-minimal entry's tag; callers guarantee
/// nonempty.
fn heap_pop(bucket: &mut Vec<Entry>) -> u32 {
    let last = bucket.len() - 1;
    bucket.swap(0, last);
    let best = bucket.pop().expect("heap_pop on an empty bucket").tag;
    let mut i = 0;
    loop {
        let (l, r) = (2 * i + 1, 2 * i + 2);
        if l >= bucket.len() {
            break;
        }
        let child = if r < bucket.len() && bucket[r].before(&bucket[l]) {
            r
        } else {
            l
        };
        if bucket[child].before(&bucket[i]) {
            bucket.swap(i, child);
            i = child;
        } else {
            break;
        }
    }
    best
}

/// O(n)-per-pop ready set calling the comparator (for orders with no
/// registered key type, e.g. PF or the ablations).
pub(crate) struct ComparatorReady<'a> {
    sys: &'a TaskSystem,
    order: &'a dyn PriorityOrder,
    items: Vec<(SubtaskRef, u32)>,
}

impl<'a> ComparatorReady<'a> {
    pub(crate) fn new(sys: &'a TaskSystem, order: &'a dyn PriorityOrder) -> ComparatorReady<'a> {
        ComparatorReady {
            sys,
            order,
            items: Vec::with_capacity(sys.num_tasks()),
        }
    }
}

impl ReadySet for ComparatorReady<'_> {
    type Key = SubtaskRef;

    fn push(&mut self, st: SubtaskRef, tag: u32) {
        self.items.push((st, tag));
    }

    fn pop_best(&mut self) -> Option<u32> {
        let (best_pos, _) = self
            .items
            .iter()
            .enumerate()
            .min_by(|(_, a), (_, b)| self.order.cmp(self.sys, a.0, b.0))?;
        let (best, tag) = self.items.swap_remove(best_pos);
        // The keyed path breaks every tie by subtask id (the keys' last
        // stage); a comparator that leaves ties unresolved would silently
        // pop in scan order instead and diverge from it. Surface that here
        // rather than in a downstream schedule diff.
        debug_assert!(
            self.items
                .iter()
                .all(|&(o, _)| self.order.cmp(self.sys, best, o) != Ordering::Equal),
            "comparator {} left a tie unresolved at pop ({best:?} ties another ready \
             subtask): ComparatorReady needs a total order — pin ties by subtask id",
            self.order.name()
        );
        Some(tag)
    }

    fn is_empty(&self) -> bool {
        self.items.is_empty()
    }

    fn successor(&self, st: SubtaskRef) -> Option<SubSpec<SubtaskRef>> {
        Some(SubSpec::of(self.sys, self.sys.subtask(st).succ?))
    }
}

/// Runs `$body` with `$ready` bound to the ready set `$order` calls for:
/// a deadline-bucketed key queue when
/// [`PriorityOrder::key_dispatch`] names a key type, the comparator scan
/// otherwise. `$body` is monomorphized once per set; the schedule is
/// identical either way.
macro_rules! with_ready_set {
    ($sys:expr, $order:expr, |$ready:ident| $body:expr) => {{
        use pfair_core::key::{EpdfKey, KeyDispatch, Pd2Key, PdKey};
        use $crate::ready::{BucketReady, ComparatorReady};
        match $order.key_dispatch() {
            KeyDispatch::Pd2 => {
                let $ready = BucketReady::<Pd2Key>::new($sys);
                $body
            }
            KeyDispatch::Epdf => {
                let $ready = BucketReady::<EpdfKey>::new($sys);
                $body
            }
            KeyDispatch::Pd => {
                let $ready = BucketReady::<PdKey>::new($sys);
                $body
            }
            KeyDispatch::Comparator => {
                let $ready = ComparatorReady::new($sys, $order);
                $body
            }
        }
    }};
}
pub(crate) use with_ready_set;

#[cfg(test)]
mod tests {
    use super::*;
    use pfair_core::key::Pd2Key;
    use pfair_core::{ComparatorOnly, Pd2};
    use pfair_taskmodel::release;

    use crate::cost::FullQuantum;
    use crate::dvq::simulate_dvq;

    #[test]
    fn duplicate_key_ties_pop_identically_keyed_and_comparator() {
        // Same-weight tasks tie on every key stage except the id; both
        // ready-set implementations must break those ties identically
        // (satellite for the ComparatorReady tie assertion).
        let sys = release::periodic(&[(1, 2); 5], 8);
        let mut a = BucketReady::<Pd2Key>::new(&sys);
        let mut b = ComparatorReady {
            sys: &sys,
            order: &Pd2,
            items: Vec::new(),
        };
        for (st, _) in sys.iter_refs() {
            a.push(st, st.0);
            b.push(st, st.0);
        }
        while !a.is_empty() {
            assert_eq!(a.pop_best(), b.pop_best());
        }
        assert!(b.is_empty() && b.pop_best().is_none() && a.pop_best().is_none());

        // And end to end: the full schedules agree placement for placement.
        let keyed = simulate_dvq(&sys, 2, &Pd2, &mut FullQuantum);
        let scanned = simulate_dvq(&sys, 2, &ComparatorOnly(&Pd2), &mut FullQuantum);
        for (st, _) in sys.iter_refs() {
            assert_eq!(keyed.placement(st).start, scanned.placement(st).start);
            assert_eq!(keyed.placement(st).proc, scanned.placement(st).proc);
        }
    }

    use proptest::prelude::*;

    /// Pops both ready sets dry, asserting they agree pop for pop.
    fn drain_and_compare(bucket: &mut BucketReady<Pd2Key>, scan: &mut ComparatorReady<'_>) {
        while !bucket.is_empty() {
            assert_eq!(bucket.pop_best(), scan.pop_best());
        }
        assert!(scan.is_empty());
        assert!(bucket.pop_best().is_none() && scan.pop_best().is_none());
    }

    proptest! {
        /// Arbitrary push/pop interleavings agree with the comparator scan.
        /// Pushes arrive latest-deadline first, so a push after a pop run
        /// lands *before* the monotone cursor and must rewind it — the
        /// regression surface of the bucketed queue's one mutable
        /// shortcut.
        #[test]
        fn prop_bucket_interleaving_matches_comparator(
            raw in proptest::collection::vec((1i64..=6, 1i64..=6), 1..4),
            ops in proptest::collection::vec(0u8..2, 1..60),
        ) {
            let weights: Vec<(i64, i64)> =
                raw.iter().map(|&(a, p)| (a.min(p), p)).collect();
            let sys = release::periodic(&weights, 12);
            let mut bucket = BucketReady::<Pd2Key>::new(&sys);
            let mut scan = ComparatorReady {
                sys: &sys,
                order: &Pd2,
                items: Vec::new(),
            };
            let mut pending: Vec<SubtaskRef> = sys.iter_refs().map(|(st, _)| st).collect();
            pending.sort_by_key(|&st| sys.subtask(st).deadline); // pop() yields latest first
            for &op in &ops {
                if op == 1 {
                    if let Some(st) = pending.pop() {
                        bucket.push(st, st.0);
                        scan.push(st, st.0);
                    }
                } else {
                    prop_assert_eq!(bucket.pop_best(), scan.pop_best());
                }
            }
            for st in pending {
                bucket.push(st, st.0);
                scan.push(st, st.0);
            }
            drain_and_compare(&mut bucket, &mut scan);
        }

        /// A bucket table squeezed to an arbitrary tiny width (the
        /// MAX_BUCKETS clamp in miniature: every deadline past the end
        /// shares the tail bucket) still pops in exactly the comparator
        /// order, because in-bucket order uses the full key.
        #[test]
        fn prop_clamped_width_still_pops_in_order(
            raw in proptest::collection::vec((1i64..=6, 1i64..=6), 1..4),
            width in 1usize..4,
        ) {
            let weights: Vec<(i64, i64)> =
                raw.iter().map(|&(a, p)| (a.min(p), p)).collect();
            let sys = release::periodic(&weights, 12);
            let mut bucket = BucketReady::<Pd2Key>::new(&sys);
            bucket.buckets = vec![Vec::new(); width];
            bucket.cursor = 0;
            let mut scan = ComparatorReady {
                sys: &sys,
                order: &Pd2,
                items: Vec::new(),
            };
            for (st, _) in sys.iter_refs() {
                bucket.push(st, st.0);
                scan.push(st, st.0);
            }
            drain_and_compare(&mut bucket, &mut scan);
        }

        /// Adversarial deadline collisions: many identical-weight tasks tie
        /// on every key stage except the id, piling into the same buckets.
        /// The in-bucket heap must still break every tie exactly as the
        /// comparator does.
        #[test]
        fn prop_deadline_collisions_tie_break_identically(
            count in 1usize..16,
            p in 1i64..=4,
            ops in proptest::collection::vec(0u8..2, 1..48),
        ) {
            let weights = vec![(1, p); count];
            let sys = release::periodic(&weights, 2 * p);
            let mut bucket = BucketReady::<Pd2Key>::new(&sys);
            let mut scan = ComparatorReady {
                sys: &sys,
                order: &Pd2,
                items: Vec::new(),
            };
            let mut pending: Vec<SubtaskRef> = sys.iter_refs().map(|(st, _)| st).collect();
            pending.reverse(); // push ascending subtask ids
            for &op in &ops {
                if op == 1 {
                    if let Some(st) = pending.pop() {
                        bucket.push(st, st.0);
                        scan.push(st, st.0);
                    }
                } else {
                    prop_assert_eq!(bucket.pop_best(), scan.pop_best());
                }
            }
            for st in pending {
                bucket.push(st, st.0);
                scan.push(st, st.0);
            }
            drain_and_compare(&mut bucket, &mut scan);
        }
    }

    #[test]
    fn bucket_width_clamps_at_max_buckets() {
        // A deadline span wider than MAX_BUCKETS must clamp the table and
        // still pop correctly (the far tail shares the last bucket).
        let sys = release::periodic(&[(1, 2), (1, 1 << 17)], 12); // span ≫ MAX_BUCKETS
        let ready = BucketReady::<Pd2Key>::new(&sys);
        assert_eq!(ready.buckets.len(), MAX_BUCKETS);
        let mut ready = ready;
        let mut scan = ComparatorReady {
            sys: &sys,
            order: &Pd2,
            items: Vec::new(),
        };
        for (st, _) in sys.iter_refs() {
            ready.push(st, st.0);
            scan.push(st, st.0);
        }
        drain_and_compare(&mut ready, &mut scan);
    }

    #[test]
    fn far_deadlines_share_the_clamped_tail_bucket() {
        // Deadline spans past MAX_BUCKETS clamp into the last bucket; the
        // full-key in-bucket order keeps pops correct regardless.
        let sys = release::periodic(&[(1, 2), (1, 2)], 4);
        let mut ready = BucketReady::<Pd2Key>::new(&sys);
        // Force a tiny bucket table so every push collides in the tail.
        ready.buckets = vec![Vec::new(); 1];
        ready.cursor = 0;
        let mut scan = ComparatorReady {
            sys: &sys,
            order: &Pd2,
            items: Vec::new(),
        };
        for (st, _) in sys.iter_refs() {
            ready.push(st, st.0);
            scan.push(st, st.0);
        }
        while !ready.is_empty() {
            assert_eq!(ready.pop_best(), scan.pop_best());
        }
    }
}
