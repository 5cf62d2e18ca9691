//! Planted-bug engines ("mutants") for validating the harness itself.
//!
//! A fuzzing harness that never fires is indistinguishable from one that
//! cannot fire. Each mutant here swaps exactly one deliberately broken
//! component into the reference engine set — an inverted tie-break, a
//! dropped rule stage, a driver that ignores a precondition — and the
//! mutation test suite asserts that a seeded campaign catches every one
//! and shrinks its counterexample to a handful of tasks on ≤ 2
//! processors.
//!
//! Wherever the production engine has a seam for the bug, the mutant runs
//! the production engine with one planted difference, so the bank is
//! proven against the code that ships:
//!
//! * the priority-order mutants hand a broken [`PriorityOrder`] to the
//!   real SFQ, DVQ and staggered engines (and, as the comparator order, to
//!   the DVQ reference scan);
//! * `pdb-eb-before-db` runs [`simulate_sfq_with`] with a
//!   [`PdbLinearization`] that Table 1 forbids (EB always before DB);
//! * `flow-overfull-slot` is [`simulate_flow`] on `m + 1` processors, and
//!   `flow-window-slip` is [`simulate_flow`] on the system right-shifted by
//!   one slot (§3.3's shift where it does not belong), each reported
//!   against the case's own system and `m`;
//! * `dvq-cost-blind` and the two stream mutants wrap the real drivers;
//! * `dvq-eager-successor` is the bank's own DVQ reference
//!   ([`crate::reference`]) with its one planted-bug switch on: a
//!   successor is armed at its predecessor's start. The DVQ kernel has no
//!   seam for when a successor is armed, and adding one would make the
//!   shared loop branch on its caller.
//!
//! One engine is a copy: the Boundary-Fair allocation of the BF mutants
//! (which takes its boundaries from [`bf_boundaries`]). The production
//! table asserts exactly where a broken allocation must be clamped
//! instead, so that it reaches the schedule and the conservation invariant
//! can see it.

use core::cmp::Ordering;

use pfair_core::pdb::PdbLinearization;
use pfair_core::priority::PriorityOrder;
use pfair_core::{Pd2, Pd2NoGroupDeadline};
use pfair_numeric::Rat;
use pfair_obs::NoopObserver;
use pfair_sim::cost::checked_cost;
use pfair_sim::{
    bf_boundaries, simulate_dvq, simulate_flow, simulate_sfq_with, AffinityMode, CostModel,
    Placement, QuantumModel, Schedule, SfqPolicy,
};
use pfair_taskmodel::{SubtaskRef, TaskId, TaskSystem};

use crate::engines::{Engines, ProbeSim, Streamed, REFERENCE};
use crate::reference;

/// One deliberately broken engine set.
#[derive(Clone, Copy, Debug)]
pub struct Mutant {
    /// Mutant name (doubles as [`Engines::name`]).
    pub name: &'static str,
    /// What was broken, in one sentence.
    pub description: &'static str,
    /// The reference engines with the broken component swapped in.
    pub engines: Engines,
}

/// The full mutant roster.
#[must_use]
pub fn mutants() -> Vec<Mutant> {
    vec![
        Mutant {
            name: "inverted-b-bit",
            description: "PD² with the b-bit tie-break inverted (b = 0 wins instead of b = 1)",
            engines: Engines {
                name: "inverted-b-bit",
                comparator_order: &InvertedBBit,
                ..REFERENCE
            },
        },
        Mutant {
            name: "no-group-deadline",
            description: "PD² missing the group-deadline tie-break stage",
            engines: Engines {
                name: "no-group-deadline",
                comparator_order: &Pd2NoGroupDeadline,
                ..REFERENCE
            },
        },
        Mutant {
            name: "no-id-tie-break",
            description: "PD² without the deterministic final tie-break (residual ties left to container order)",
            engines: Engines {
                name: "no-id-tie-break",
                comparator_order: &NoIdTieBreak,
                ..REFERENCE
            },
        },
        Mutant {
            name: "latest-deadline-first",
            description: "priority order inverted outright: latest deadline first",
            engines: Engines {
                name: "latest-deadline-first",
                sfq_order: &LatestDeadlineFirst,
                ..REFERENCE
            },
        },
        Mutant {
            name: "pdb-eb-before-db",
            description: "PD^B selection that prefers EB over DB in the first M − p decisions",
            engines: Engines {
                name: "pdb-eb-before-db",
                pdb: simulate_pdb_eb_first,
                ..REFERENCE
            },
        },
        Mutant {
            name: "dvq-eager-successor",
            description: "DVQ that activates successors at predecessor start, ignoring completion",
            engines: Engines {
                name: "dvq-eager-successor",
                dvq: |sys, m, order, cost| reference::scan(sys, m, order, cost, true),
                ..REFERENCE
            },
        },
        Mutant {
            name: "bf-optional-by-id",
            description: "Boundary-Fair that grants optional units in task-id order instead of by the PD² priority of the unit each grant hands out",
            engines: Engines {
                name: "bf-optional-by-id",
                bf: simulate_bf_optional_by_id,
                ..REFERENCE
            },
        },
        Mutant {
            name: "bf-mandatory-only",
            description: "Boundary-Fair that never grants optional units (mandatory floor only)",
            engines: Engines {
                name: "bf-mandatory-only",
                bf: simulate_bf_mandatory_only,
                ..REFERENCE
            },
        },
        Mutant {
            name: "flow-overfull-slot",
            description: "flow engine whose slot → sink edges carry capacity m + 1 instead of m",
            engines: Engines {
                name: "flow-overfull-slot",
                flow: simulate_flow_overfull,
                ..REFERENCE
            },
        },
        Mutant {
            name: "flow-window-slip",
            description: "flow engine whose subtask windows sit one slot late (the system right-shifted by one slot)",
            engines: Engines {
                name: "flow-window-slip",
                flow: simulate_flow_window_slip,
                ..REFERENCE
            },
        },
        Mutant {
            name: "dvq-cost-blind",
            description: "DVQ that ignores the cost model and bills every quantum as full",
            engines: Engines {
                name: "dvq-cost-blind",
                dvq: simulate_dvq_cost_blind,
                ..REFERENCE
            },
        },
        Mutant {
            name: "obs-drops-fractional-blocking",
            description: "streaming blocking detector that silently drops inversions dispatched at non-integral times",
            engines: Engines {
                name: "obs-drops-fractional-blocking",
                stream_probe: probe_drops_fractional_blocking,
                ..REFERENCE
            },
        },
        Mutant {
            name: "rat-wraps-on-overflow",
            description: "lag accountant whose rational arithmetic silently wraps at i64 instead of widening to i128",
            engines: Engines {
                name: "rat-wraps-on-overflow",
                stream_probe: wrapping_lag_probe,
                ..REFERENCE
            },
        },
    ]
}

/// PD² with the b-bit comparison inverted: among equal deadlines, `b = 0`
/// is preferred over `b = 1`.
#[derive(Debug)]
struct InvertedBBit;

impl PriorityOrder for InvertedBBit {
    fn name(&self) -> &'static str {
        "PD2-inverted-b"
    }

    fn cmp_strict(&self, sys: &TaskSystem, a: SubtaskRef, b: SubtaskRef) -> Ordering {
        let x = sys.subtask(a);
        let y = sys.subtask(b);
        x.deadline
            .cmp(&y.deadline)
            .then_with(|| x.bbit.cmp(&y.bbit))
            .then_with(|| {
                if x.bbit && y.bbit {
                    y.group_deadline.cmp(&x.group_deadline)
                } else {
                    Ordering::Equal
                }
            })
    }
}

/// PD²'s strict relation with residual ties left unresolved — the paper's
/// "broken arbitrarily" taken literally, so the comparator scan and the
/// keyed heap disagree whenever a tie survives.
#[derive(Debug)]
struct NoIdTieBreak;

impl PriorityOrder for NoIdTieBreak {
    fn name(&self) -> &'static str {
        "PD2-no-id-tie"
    }

    fn cmp_strict(&self, sys: &TaskSystem, a: SubtaskRef, b: SubtaskRef) -> Ordering {
        Pd2.cmp_strict(sys, a, b)
    }

    fn cmp(&self, sys: &TaskSystem, a: SubtaskRef, b: SubtaskRef) -> Ordering {
        self.cmp_strict(sys, a, b)
    }
}

/// The outright wrong order: latest deadline first.
#[derive(Debug)]
struct LatestDeadlineFirst;

impl PriorityOrder for LatestDeadlineFirst {
    fn name(&self) -> &'static str {
        "latest-deadline-first"
    }

    fn cmp_strict(&self, sys: &TaskSystem, a: SubtaskRef, b: SubtaskRef) -> Ordering {
        let x = sys.subtask(a);
        let y = sys.subtask(b);
        y.deadline.cmp(&x.deadline)
    }
}

/// The PD^B tie rule with the planted bug: in the first `M − p`
/// decisions, EB is taken before DB whenever both are nonempty. Table 1
/// lets a `DB` subtask pass a higher-priority `EB` one there, never the
/// reverse, so always preferring EB lets a lower-priority
/// eligibility-blocked subtask jump a deadline-based one that the table
/// ranks strictly higher at every decision index.
const EB_FIRST: PdbLinearization = PdbLinearization {
    name: "EbFirst",
    db_first: |_, _, _| false,
};

/// The production SFQ/PD^B driver under [`EB_FIRST`].
fn simulate_pdb_eb_first(sys: &TaskSystem, m: u32, cost: &mut dyn CostModel) -> Schedule {
    simulate_sfq_with(
        sys,
        m,
        SfqPolicy::PdB(EB_FIRST),
        AffinityMode::ByDecision,
        cost,
        &mut NoopObserver,
    )
}

/// Stream probe with the planted bug: inversions whose victim was
/// dispatched at a non-integral time are silently dropped — exactly the
/// fractional-time events that distinguish DVQ from SFQ, so a purely
/// slot-aligned test diet would never notice.
fn probe_drops_fractional_blocking(
    sys: &TaskSystem,
    m: u32,
    order: &dyn PriorityOrder,
    cost: &mut dyn CostModel,
    sim: ProbeSim,
) -> Streamed {
    let mut run = (REFERENCE.stream_probe)(sys, m, order, cost, sim);
    run.blocking.retain(|r| r.scheduled_at.den() == 1);
    run
}

/// An i64-backed rational that silently wraps on overflow — the
/// arithmetic bug the full-range streaming-vs-post-hoc lag comparison
/// exists to catch. The classic naive implementation: no i128
/// intermediates, no gcd reduction, no checks. Numerators and
/// denominators just multiply and wrap, so it agrees exactly with
/// [`Rat`] while every product fits i64 and corrupts silently once a
/// GRID-resolution (720720) cost denominator enters a lag sum.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct WrapRat {
    num: i64,
    den: i64,
}

impl WrapRat {
    fn int(v: i64) -> WrapRat {
        WrapRat { num: v, den: 1 }
    }

    fn from_rat(r: Rat) -> WrapRat {
        WrapRat {
            num: r.num() as i64, // pfair-lint: allow(no-lossy-cast): the planted truncation is the point of this mutant.
            den: r.den() as i64, // pfair-lint: allow(no-lossy-cast): ditto — the mutant must stay in wrapping i64.
        }
    }

    fn add(self, o: WrapRat) -> WrapRat {
        WrapRat {
            num: self
                .num
                .wrapping_mul(o.den)
                .wrapping_add(o.num.wrapping_mul(self.den)),
            den: self.den.wrapping_mul(o.den),
        }
    }

    fn sub(self, o: WrapRat) -> WrapRat {
        self.add(WrapRat {
            num: o.num.wrapping_neg(),
            den: o.den,
        })
    }

    fn div(self, o: WrapRat) -> WrapRat {
        WrapRat {
            num: self.num.wrapping_mul(o.den),
            den: self.den.wrapping_mul(o.num),
        }
    }

    fn to_rat(self) -> Rat {
        Rat::new(self.num, if self.den == 0 { 1 } else { self.den })
    }
}

/// `LAG(τ, t)` recomputed in [`WrapRat`] arithmetic — the same fluid
/// formulas as `pfair_analysis::total_lag`, minus the overflow safety.
fn wrap_total_lag(sys: &TaskSystem, sched: &Schedule, t: i64) -> WrapRat {
    let t_rat = Rat::int(t);
    let mut total = WrapRat::int(0);
    for task in sys.tasks() {
        for s in sys.task_subtasks(task.id) {
            if t <= s.release {
                break;
            }
            if t >= s.deadline {
                total = total.add(WrapRat::int(1));
            } else {
                total = total
                    .add(WrapRat::int(t - s.release).div(WrapRat::int(s.deadline - s.release)));
            }
        }
        for st in sys.task_subtask_refs(task.id) {
            let p = sched.placement(st);
            if t_rat >= p.completion() {
                total = total.sub(WrapRat::int(1));
            } else if t_rat > p.start {
                total =
                    total.sub(WrapRat::from_rat(t_rat - p.start).div(WrapRat::from_rat(p.cost)));
            }
        }
    }
    total
}

/// Stream probe with the planted bug: the schedule is the real one, but
/// the per-slot LAG series is accounted in [`WrapRat`], whose i64
/// arithmetic wraps silently where the widened [`Rat`] reduces or panics.
fn wrapping_lag_probe(
    sys: &TaskSystem,
    m: u32,
    order: &dyn PriorityOrder,
    cost: &mut dyn CostModel,
    sim: ProbeSim,
) -> Streamed {
    let mut run = (REFERENCE.stream_probe)(sys, m, order, cost, sim);
    run.lag = (0..=sys.horizon())
        .map(|t| (t, wrap_total_lag(sys, &run.sched, t).to_rat()))
        .collect();
    run.max_lag = run.lag.iter().map(|&(_, l)| l).max().unwrap_or(Rat::ZERO);
    run
}

/// DVQ driver with the planted bug: the caller's cost model is discarded
/// and every quantum is billed as full.
fn simulate_dvq_cost_blind(
    sys: &TaskSystem,
    m: u32,
    order: &dyn PriorityOrder,
    _cost: &mut dyn CostModel,
) -> Schedule {
    simulate_dvq(sys, m, order, &mut pfair_sim::FullQuantum)
}

/// Which optional-unit policy a Boundary-Fair mutant runs.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum BfOptionalPolicy {
    /// BUG: grant optional units in plain task-id order, discarding the
    /// PD² priority of the unit each grant would hand out.
    ByIdOrder,
    /// BUG: never grant optional units at all.
    Never,
}

/// The Boundary-Fair chassis both BF mutants share: the production
/// boundaries, and exact fluid pending work, mandatory floors and
/// McNaughton wrap-around exactly as the reference, with the optional-unit
/// stage swapped for `policy`. Overruns are clamped instead of asserted so
/// the broken allocation flows through to the schedule, where the
/// conservation invariant can see it.
fn bf_mutant_schedule(
    sys: &TaskSystem,
    m: u32,
    cost: &mut dyn CostModel,
    policy: BfOptionalPolicy,
) -> Schedule {
    let n_tasks = sys.num_tasks();
    let mut alloc = vec![0i64; n_tasks];
    let mut cursor: Vec<u32> = (0..n_tasks)
        .map(|k| {
            sys.task_span(TaskId(u32::try_from(k).expect("task count fits u32")))
                .0
        })
        .collect();
    let mut placements = Vec::with_capacity(sys.num_subtasks());
    let mut a = vec![0i64; n_tasks];
    let mut cands: Vec<usize> = Vec::new();
    for w in bf_boundaries(sys).windows(2) {
        let (b, b2) = (w[0], w[1]);
        let len = b2 - b;
        a.iter_mut().for_each(|x| *x = 0);
        cands.clear();
        let mut used = 0i64;
        for (k, task) in sys.tasks().iter().enumerate() {
            let n = sys.task_subtasks(task.id).len() as i64;
            if alloc[k] >= n {
                continue;
            }
            let fluid = (task.weight.as_rat() * Rat::int(b2)).min(Rat::int(n));
            let pw = fluid - Rat::int(alloc[k]);
            if !pw.is_positive() {
                continue;
            }
            let mand = pw.floor().min(len);
            a[k] = mand;
            used += mand;
            if pw > Rat::int(pw.floor()) && mand < len {
                cands.push(k);
            }
        }
        let spare = (i64::from(m) * len - used).max(0);
        match policy {
            // Candidates are pushed in task-id order already.
            BfOptionalPolicy::ByIdOrder => {}
            BfOptionalPolicy::Never => cands.clear(),
        }
        for &k in cands
            .iter()
            .take(usize::try_from(spare).expect("spare is nonnegative"))
        {
            a[k] += 1;
        }

        let mut tape = 0i64;
        for k in 0..n_tasks {
            if a[k] == 0 {
                continue;
            }
            let mut mine: Vec<(i64, u32)> = (0..a[k])
                .map(|j| {
                    let cell = tape + j;
                    (
                        b + cell % len,
                        u32::try_from(cell / len).expect("strip index fits u32"),
                    )
                })
                .collect();
            tape += a[k];
            mine.sort_unstable();
            for (slot, proc) in mine {
                let st = SubtaskRef(cursor[k]);
                cursor[k] += 1;
                alloc[k] += 1;
                let c = checked_cost(cost.cost(sys, st), st);
                placements.push(Placement {
                    st,
                    proc,
                    start: Rat::int(slot),
                    cost: c,
                    holds_until: Rat::int(slot + 1),
                });
            }
        }
    }
    Schedule::new(sys, QuantumModel::Bf, m, placements)
}

/// BF with optional units granted by task id instead of urgency.
fn simulate_bf_optional_by_id(sys: &TaskSystem, m: u32, cost: &mut dyn CostModel) -> Schedule {
    bf_mutant_schedule(sys, m, cost, BfOptionalPolicy::ByIdOrder)
}

/// BF that never grants optional units.
fn simulate_bf_mandatory_only(sys: &TaskSystem, m: u32, cost: &mut dyn CostModel) -> Schedule {
    bf_mutant_schedule(sys, m, cost, BfOptionalPolicy::Never)
}

/// Flow engine with per-slot capacity `m + 1`: the production engine on
/// one processor too many, reported on the case's `m`.
fn simulate_flow_overfull(sys: &TaskSystem, m: u32, cost: &mut dyn CostModel) -> Schedule {
    let sched = simulate_flow(sys, m + 1, cost);
    Schedule::new(sys, QuantumModel::Flow, m, sched.placements().to_vec())
}

/// Flow engine whose windows sit one slot late: the production engine on
/// the system right-shifted by one slot, reported against the unshifted
/// system (the shift keeps every subtask ref).
fn simulate_flow_window_slip(sys: &TaskSystem, m: u32, cost: &mut dyn CostModel) -> Schedule {
    let sched = simulate_flow(&sys.shifted(1, 0), m, cost);
    Schedule::new(sys, QuantumModel::Flow, m, sched.placements().to_vec())
}

/// One deliberately planted concurrency bug in the real runtime.
///
/// Unlike [`Mutant`], which swaps a broken *engine* into the differential
/// harness, a runtime mutant arms a [`FaultPlan`](pfair_runtime::FaultPlan) inside `pfair-runtime`
/// itself — a torn dispatch batch, a lost combiner wakeup, a stale
/// KeyCache read — and the replay bank
/// ([`crate::runtime::runtime_bank`]) must catch the damage in the
/// recorded artifacts of a real multi-threaded run.
#[derive(Clone, Copy, Debug)]
pub struct RuntimeMutant {
    /// Mutant name.
    pub name: &'static str,
    /// What was broken, in one sentence.
    pub description: &'static str,
    /// The fault to arm in [`pfair_runtime::RuntimeConfig::fault`].
    pub fault: pfair_runtime::FaultPlan,
    /// The execution mode under which the bug is observable.
    pub mode: pfair_runtime::Mode,
    /// The bank invariant expected to fire first on a catching seed.
    pub expect: &'static str,
}

/// The concurrency-mutant roster: each fault is caught by a *different*
/// invariant of the replay bank, which is what proves the bank's checks
/// are independent rather than one law firing for everything.
#[must_use]
pub fn runtime_mutants() -> Vec<RuntimeMutant> {
    use pfair_runtime::{FaultPlan, Mode};
    vec![
        RuntimeMutant {
            name: "torn-dispatch-batch",
            description: "the combiner records stale processor ids for all but the \
                          first entry of a multi-assignment dispatch batch, as if the \
                          batch were published non-atomically; delivery stays correct, \
                          so only the recorded stream is torn",
            fault: FaultPlan::TornDispatchBatch,
            mode: Mode::FreeRunning,
            expect: "replay-structural",
        },
        RuntimeMutant {
            name: "lost-wakeup-combiner",
            description: "the combiner drops the first completion it drains, the \
                          classic lost-wakeup: the worker already published and will \
                          never re-notify, so the run stalls and the watchdog \
                          truncates the log",
            fault: FaultPlan::LostWakeupCombiner,
            mode: Mode::FreeRunning,
            expect: "replay-completeness",
        },
        RuntimeMutant {
            name: "stale-keycache-read",
            description: "dispatch reads the predecessor's KeyCache slot for any \
                          subtask that has one, a stale-read race: every quantum still \
                          executes and replays cleanly, but priorities shift and the \
                          schedule silently diverges from the reference",
            fault: FaultPlan::StaleKeyCacheRead,
            mode: Mode::Deterministic,
            expect: "determinism-equality",
        },
    ]
}
