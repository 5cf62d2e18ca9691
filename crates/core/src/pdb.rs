//! PD^B: the paper's worst-case *blocking* algorithm (§3.1, Table 1).
//!
//! PD^B is an SFQ-model algorithm constructed so that, as far as tardiness
//! is concerned, it represents a worst case for PD² under the DVQ model:
//! it mimics, at slot boundaries, the two priority inversions that DVQ's
//! work-conserving quantum reclamation makes possible —
//!
//! * **eligibility blocking**: a processor becomes free *just before* an
//!   integral eligibility boundary `t` and is handed to a lower-priority
//!   subtask, so a higher-priority subtask with `e(T_i) = t` finds no
//!   processor at `t` (Fig. 2(b));
//! * **predecessor blocking**: a subtask `T_i` with `e(T_i) < t` cannot run
//!   before `t` because its predecessor occupies a processor up to `t`,
//!   while another processor frees early and is given to a lower-priority
//!   subtask; at `t` the predecessor's processor goes to a newly-eligible
//!   higher-priority subtask instead (Fig. 3(a), Property PB).
//!
//! At each slot `t`, the *ready* subtasks are partitioned (Eqns (9)–(11)):
//!
//! ```text
//! EB(t) = { T_i ready at t | e(T_i) = t }
//! PB(t) = { T_i ready at t | e(T_i) < t ∧ predecessor executed up to t }
//! DB(t) = every other ready subtask
//! ```
//!
//! With `p = |PB(t)|`, the `M` scheduling decisions for slot `t` obey
//! Table 1: during the first `M − p` decisions subtasks in `PB` are passed
//! over entirely, and a subtask from `DB` may be chosen ahead of a
//! higher-priority subtask from `EB` (both directions of the tie are
//! permitted by the table; choosing `DB` first is what *maximizes*
//! blocking, so that is what this implementation does — PD^B is a
//! worst-case construction); the final `p` decisions are strict PD² over
//! everything still ready. Within each subset, order is always PD².
//!
//! [`select_slot`] implements that procedure; [`table1_leq`] transcribes
//! Table 1 literally so the tests can check the procedure against the
//! paper's definition case by case.

use pfair_taskmodel::{SubtaskRef, TaskSystem};

use crate::pd2::Pd2;
use crate::priority::PriorityOrder;

/// Which of the three ready subsets a subtask falls into at slot `t`.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Class {
    /// `EB(t)`: eligible exactly at `t` — can be *eligibility-blocked*.
    Eb,
    /// `PB(t)`: eligible earlier, predecessor executes up to `t` — can be
    /// *predecessor-blocked*.
    Pb,
    /// `DB(t)`: definitely not blocked at `t`.
    Db,
}

/// A ready subtask at some slot, with the readiness fact PD^B needs.
#[derive(Clone, Copy, Debug)]
pub struct Ready {
    /// The ready subtask.
    pub st: SubtaskRef,
    /// `true` iff its predecessor was scheduled in slot `t − 1` (and thus,
    /// under SFQ, holds its processor up to time `t`).
    pub pred_holds_until_t: bool,
}

/// The partition of the ready set at a slot (each subset PD²-sorted,
/// highest priority first).
#[derive(Clone, Debug, Default)]
pub struct Partition {
    /// `EB(t)`.
    pub eb: Vec<SubtaskRef>,
    /// `PB(t)`.
    pub pb: Vec<SubtaskRef>,
    /// `DB(t)`.
    pub db: Vec<SubtaskRef>,
}

impl Partition {
    /// `p = |PB(t)|`: the number of processors that subtasks in `PB` could
    /// contend for, and (Property PB) a lower bound on the number of
    /// processors making scheduling decisions at `t` under DVQ.
    #[must_use]
    pub fn p(&self) -> usize {
        self.pb.len()
    }

    /// Class of a given subtask, if it is in the partition.
    #[must_use]
    pub fn class_of(&self, st: SubtaskRef) -> Option<Class> {
        if self.eb.contains(&st) {
            Some(Class::Eb)
        } else if self.pb.contains(&st) {
            Some(Class::Pb)
        } else if self.db.contains(&st) {
            Some(Class::Db)
        } else {
            None
        }
    }

    /// Total number of ready subtasks.
    #[must_use]
    pub fn len(&self) -> usize {
        self.eb.len() + self.pb.len() + self.db.len()
    }

    /// `true` iff no subtask is ready.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// Partitions the ready set at slot `t` per Eqns (9)–(11) and PD²-sorts
/// each subset.
#[must_use]
pub fn classify(sys: &TaskSystem, t: i64, ready: &[Ready]) -> Partition {
    let mut part = Partition::default();
    for r in ready {
        let s = sys.subtask(r.st);
        debug_assert!(s.eligible <= t, "subtask not yet eligible is not ready");
        if s.eligible == t {
            part.eb.push(r.st);
        } else if r.pred_holds_until_t {
            part.pb.push(r.st);
        } else {
            part.db.push(r.st);
        }
    }
    let by_pd2 = |a: &SubtaskRef, b: &SubtaskRef| Pd2.cmp(sys, *a, *b);
    part.eb.sort_by(by_pd2);
    part.pb.sort_by(by_pd2);
    part.db.sort_by(by_pd2);
    part
}

/// How the two-way ties Table 1 leaves open are resolved in the first
/// `M − p` scheduling decisions: the rule that decides, given the
/// PD²-first heads of `DB` and `EB`, whether the `DB` subtask goes first.
///
/// Table 1 permits either order between a `DB` subtask and a
/// higher-priority `EB` subtask during the early decisions. PD^B is a
/// *worst-case* construction, so its rule resolves every such tie in
/// favour of `DB` ([`MAX_BLOCKING`](PdbLinearization::MAX_BLOCKING) —
/// maximizing eligibility blocking). [`MIN_BLOCKING`](PdbLinearization::MIN_BLOCKING)
/// resolves them by strict PD² instead (still excluding `PB`, as the
/// table requires); comparing the two isolates how much of the
/// one-quantum bound is due to the adversarial resolution rather than the
/// partition itself. The rule is a plain function, so a test harness can
/// substitute one the table forbids.
#[derive(Clone, Copy)]
pub struct PdbLinearization {
    /// Name shown in debug output.
    pub name: &'static str,
    /// `db_first(sys, d, e)`: does `d`, the head of `DB`, go before `e`,
    /// the head of `EB`?
    pub db_first: fn(&TaskSystem, SubtaskRef, SubtaskRef) -> bool,
}

impl PdbLinearization {
    /// DB before EB regardless of PD² priority (the paper's worst case).
    pub const MAX_BLOCKING: PdbLinearization = PdbLinearization {
        name: "MaxBlocking",
        db_first: |_, _, _| true,
    };
    /// Strict PD² between DB and EB (benign resolution).
    pub const MIN_BLOCKING: PdbLinearization = PdbLinearization {
        name: "MinBlocking",
        db_first: |sys, d, e| Pd2.cmp(sys, d, e) == core::cmp::Ordering::Less,
    };
}

impl core::fmt::Debug for PdbLinearization {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.write_str(self.name)
    }
}

/// One slot's worth of PD^B scheduling decisions (maximally blocking
/// linearization — the paper's worst case).
///
/// Returns the subtasks selected for the `m` processors, in decision order
/// (`r = 1, 2, …`); fewer than `m` entries means idle processors.
#[must_use]
pub fn select_slot(sys: &TaskSystem, m: usize, part: &Partition) -> Vec<SubtaskRef> {
    select_slot_with(sys, m, part, PdbLinearization::MAX_BLOCKING)
}

/// [`select_slot`] with an explicit tie linearization.
#[must_use]
pub fn select_slot_with(
    sys: &TaskSystem,
    m: usize,
    part: &Partition,
    lin: PdbLinearization,
) -> Vec<SubtaskRef> {
    let p = part.p().min(m);
    let mut eb = part.eb.as_slice();
    let mut pb = part.pb.as_slice();
    let mut db = part.db.as_slice();
    let mut picked = Vec::with_capacity(m.min(part.len()));

    // First M − p decisions: PB is passed over; DB vs EB resolved per the
    // linearization; within each subset, PD² order.
    while picked.len() < m - p {
        let take_db = match (db.first(), eb.first()) {
            (Some(_), None) => true,
            (None, Some(_)) => false,
            (Some(&d), Some(&e)) => (lin.db_first)(sys, d, e),
            (None, None) => {
                if let Some((&head, rest)) = pb.split_first() {
                    // Only PB subtasks remain: idling a processor while
                    // work is ready is permitted by no row of Table 1.
                    picked.push(head);
                    pb = rest;
                    continue;
                }
                return picked; // nothing ready at all
            }
        };
        if take_db {
            let (&head, rest) = db.split_first().expect("checked");
            picked.push(head);
            db = rest;
        } else {
            let (&head, rest) = eb.split_first().expect("checked");
            picked.push(head);
            eb = rest;
        }
    }

    // Final p decisions: strict PD² over everything still ready.
    while picked.len() < m {
        let candidates = [db.first(), eb.first(), pb.first()];
        let best = candidates
            .into_iter()
            .flatten()
            .copied()
            .min_by(|&a, &b| Pd2.cmp(sys, a, b));
        let Some(best) = best else { break };
        if db.first() == Some(&best) {
            db = &db[1..];
        } else if eb.first() == Some(&best) {
            eb = &eb[1..];
        } else {
            pb = &pb[1..];
        }
        picked.push(best);
    }
    picked
}

/// Literal transcription of Table 1: does `T_i ⊑ U_j` hold for scheduling
/// decision `r` (1-based) at a slot with partition classes `ca`, `cb` and
/// `p = |PB(t)|`?
///
/// (`⪯` in the entries is PD²'s `precedes_eq`.)
#[must_use]
#[allow(clippy::too_many_arguments)] // mirrors the paper's parameterization
pub fn table1_leq(
    sys: &TaskSystem,
    a: SubtaskRef,
    ca: Class,
    b: SubtaskRef,
    cb: Class,
    r: usize,
    m: usize,
    p: usize,
) -> bool {
    let pd2_leq = Pd2.precedes_eq(sys, a, b);
    let early = r <= m - p;
    match (ca, cb) {
        (Class::Eb, Class::Eb) => pd2_leq,
        (Class::Eb, Class::Pb) => pd2_leq || early,
        (Class::Eb, Class::Db) => pd2_leq,
        (Class::Pb, Class::Eb) => pd2_leq && !early,
        (Class::Pb, Class::Pb) => pd2_leq,
        (Class::Pb, Class::Db) => pd2_leq && !early,
        (Class::Db, Class::Eb) => pd2_leq || early,
        (Class::Db, Class::Pb) => pd2_leq || early,
        (Class::Db, Class::Db) => pd2_leq,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pfair_taskmodel::{release, SubtaskId, TaskId, TaskSystem};

    fn find(sys: &TaskSystem, task: u32, index: u64) -> SubtaskRef {
        sys.find(SubtaskId {
            task: TaskId(task),
            index,
        })
        .unwrap()
    }

    /// The Fig. 2 task set: A,B,C of weight 1/6; D,E,F of weight 1/2; M=2.
    fn fig2() -> TaskSystem {
        release::periodic_named(
            &[
                ("A", 1, 6),
                ("B", 1, 6),
                ("C", 1, 6),
                ("D", 1, 2),
                ("E", 1, 2),
                ("F", 1, 2),
            ],
            6,
        )
    }

    #[test]
    fn classify_fig2c_slot2() {
        // Fig. 2(c) at t = 2: ready = {B1, C1, D2, E2, F2}; D2, E2, F2 are
        // in EB(2) (e = r = 2), B1 and C1 in DB(2). (A1 was scheduled
        // earlier; D1/E1/F1's processors were held to the boundary, but
        // their successors D2,E2,F2 have e = 2 ⇒ EB regardless.)
        let sys = fig2();
        let ready = vec![
            Ready {
                st: find(&sys, 1, 1), // B1, e = 0
                pred_holds_until_t: false,
            },
            Ready {
                st: find(&sys, 2, 1), // C1, e = 0
                pred_holds_until_t: false,
            },
            Ready {
                st: find(&sys, 3, 2), // D2, e = 2
                pred_holds_until_t: true,
            },
            Ready {
                st: find(&sys, 4, 2), // E2
                pred_holds_until_t: true,
            },
            Ready {
                st: find(&sys, 5, 2), // F2
                pred_holds_until_t: true,
            },
        ];
        let part = classify(&sys, 2, &ready);
        assert_eq!(part.eb.len(), 3);
        assert_eq!(part.pb.len(), 0);
        assert_eq!(part.db.len(), 2);
        assert_eq!(part.class_of(find(&sys, 1, 1)), Some(Class::Db));
        assert_eq!(part.class_of(find(&sys, 3, 2)), Some(Class::Eb));
    }

    #[test]
    fn select_blocks_eb_behind_db() {
        // Continuing Fig. 2(c) at t = 2 with M = 2: PD^B gives both
        // processors to B1 and C1 (DB) even though D2/E2/F2 (EB) have
        // earlier deadlines — exactly the eligibility blocking of
        // Fig. 2(b)/(c).
        let sys = fig2();
        let ready = vec![
            Ready {
                st: find(&sys, 1, 1),
                pred_holds_until_t: false,
            },
            Ready {
                st: find(&sys, 2, 1),
                pred_holds_until_t: false,
            },
            Ready {
                st: find(&sys, 3, 2),
                pred_holds_until_t: true,
            },
            Ready {
                st: find(&sys, 4, 2),
                pred_holds_until_t: true,
            },
            Ready {
                st: find(&sys, 5, 2),
                pred_holds_until_t: true,
            },
        ];
        let part = classify(&sys, 2, &ready);
        let picked = select_slot(&sys, 2, &part);
        assert_eq!(picked, vec![find(&sys, 1, 1), find(&sys, 2, 1)]);
    }

    #[test]
    fn final_p_decisions_are_strict_pd2() {
        // Build a slot with one PB subtask: D's second subtask with e < t
        // is impossible periodically (e = r), so use an early-released
        // system: D2 eligible at 1, predecessor D1 runs in slot 1.
        use pfair_taskmodel::release::{structured, ReleaseSpec};
        let sys = structured(
            &[
                ReleaseSpec {
                    name: "D",
                    e: 1,
                    p: 2,
                    delays: &[],
                    drops: &[],
                    early: 1,
                },
                ReleaseSpec::periodic("X", 1, 6),
                ReleaseSpec::periodic("Y", 2, 6),
            ],
            6,
        )
        .unwrap();
        let d2 = find(&sys, 0, 2); // e = 1, r = 2
        let x1 = find(&sys, 1, 1); // d = 6
        let y1 = find(&sys, 2, 1); // d = 3
                                   // At t = 2 with M = 2: D2 ready (pred ran slot 1, holds until 2) ⇒
                                   // PB; X1, Y1 ⇒ DB. p = 1: first decision from DB (Y1, the PD²
                                   // better of the two), final decision strict PD² between D2 (d = 4)
                                   // and X1 (d = 6) ⇒ D2.
        let ready = vec![
            Ready {
                st: d2,
                pred_holds_until_t: true,
            },
            Ready {
                st: x1,
                pred_holds_until_t: false,
            },
            Ready {
                st: y1,
                pred_holds_until_t: false,
            },
        ];
        let part = classify(&sys, 2, &ready);
        assert_eq!(part.class_of(d2), Some(Class::Pb));
        assert_eq!(part.p(), 1);
        let picked = select_slot(&sys, 2, &part);
        assert_eq!(picked, vec![y1, d2]);
    }

    #[test]
    fn pb_runs_when_nothing_else_ready() {
        use pfair_taskmodel::release::{structured, ReleaseSpec};
        let sys = structured(
            &[ReleaseSpec {
                name: "D",
                e: 1,
                p: 2,
                delays: &[],
                drops: &[],
                early: 1,
            }],
            4,
        )
        .unwrap();
        let d2 = find(&sys, 0, 2);
        let ready = vec![Ready {
            st: d2,
            pred_holds_until_t: true,
        }];
        let part = classify(&sys, 2, &ready);
        // M = 2, p = 1: first decision has only PB available; it must not
        // idle.
        let picked = select_slot(&sys, 2, &part);
        assert_eq!(picked, vec![d2]);
    }

    #[test]
    fn table1_matches_selection_procedure() {
        // Property: whenever the procedure schedules x at decision r while
        // y remains ready, Table 1 must not say y ⊏ x (y strictly higher).
        // Exercise over the Fig. 2 set with every readiness combination of
        // pred_holds flags for successors.
        let sys = fig2();
        let t = 2;
        let d2 = find(&sys, 3, 2);
        let e2 = find(&sys, 4, 2);
        let f2 = find(&sys, 5, 2);
        let b1 = find(&sys, 1, 1);
        let c1 = find(&sys, 2, 1);
        for mask in 0u32..8 {
            let ready: Vec<Ready> = [(d2, 0), (e2, 1), (f2, 2)]
                .iter()
                .map(|&(st, bit)| Ready {
                    st,
                    pred_holds_until_t: mask & (1 << bit) != 0,
                })
                .chain([b1, c1].iter().map(|&st| Ready {
                    st,
                    pred_holds_until_t: false,
                }))
                .collect();
            let part = classify(&sys, t, &ready);
            let m = 2;
            let p = part.p().min(m);
            let picked = select_slot(&sys, m, &part);
            let mut remaining: Vec<SubtaskRef> = ready.iter().map(|r| r.st).collect();
            for (r0, &x) in picked.iter().enumerate() {
                let r = r0 + 1;
                remaining.retain(|&s| s != x);
                let cx = part.class_of(x).unwrap();
                for &y in &remaining {
                    let cy = part.class_of(y).unwrap();
                    // y ⊏ x  ⟺  y ⊑ x ∧ ¬(x ⊑ y)
                    let y_strictly_higher = table1_leq(&sys, y, cy, x, cx, r, m, p)
                        && !table1_leq(&sys, x, cx, y, cy, r, m, p);
                    assert!(
                        !y_strictly_higher,
                        "mask={mask} r={r}: scheduled {x:?}({cx:?}) while {y:?}({cy:?}) strictly higher"
                    );
                }
            }
        }
    }

    #[test]
    fn table1_exhaustive_pairwise_semantics() {
        // Spot-check each cell of Table 1 with hand-picked pd2 relations.
        let sys = fig2();
        let hi = find(&sys, 3, 1); // D1: d = 2 (higher priority)
        let lo = find(&sys, 0, 1); // A1: d = 6 (lower priority)
        let (m, p) = (2, 1);
        // Diagonal: plain PD².
        for c in [Class::Eb, Class::Pb, Class::Db] {
            for r in 1..=m {
                assert!(table1_leq(&sys, hi, c, lo, c, r, m, p));
                assert!(!table1_leq(&sys, lo, c, hi, c, r, m, p));
            }
        }
        // EB vs DB: pure PD² in both directions *except* DB gains the
        // early-decision override.
        assert!(table1_leq(&sys, hi, Class::Eb, lo, Class::Db, 1, m, p));
        assert!(table1_leq(&sys, lo, Class::Db, hi, Class::Eb, 1, m, p)); // early: DB may pass EB
        assert!(!table1_leq(&sys, lo, Class::Db, hi, Class::Eb, 2, m, p)); // late: strict PD²
        assert!(!table1_leq(&sys, lo, Class::Eb, hi, Class::Db, 1, m, p));
        // PB loses the early decisions entirely...
        assert!(!table1_leq(&sys, hi, Class::Pb, lo, Class::Db, 1, m, p));
        assert!(!table1_leq(&sys, hi, Class::Pb, lo, Class::Eb, 1, m, p));
        // ...and regains strict PD² in the final p decisions.
        assert!(table1_leq(&sys, hi, Class::Pb, lo, Class::Db, 2, m, p));
        assert!(table1_leq(&sys, hi, Class::Pb, lo, Class::Eb, 2, m, p));
        // EB/DB vs PB in early decisions: always ⊑.
        assert!(table1_leq(&sys, lo, Class::Eb, hi, Class::Pb, 1, m, p));
        assert!(table1_leq(&sys, lo, Class::Db, hi, Class::Pb, 1, m, p));
        // Late decisions revert to PD².
        assert!(!table1_leq(&sys, lo, Class::Eb, hi, Class::Pb, 2, m, p));
        assert!(!table1_leq(&sys, lo, Class::Db, hi, Class::Pb, 2, m, p));
    }
}
