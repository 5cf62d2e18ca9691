//! The invariant bank.
//!
//! Each [`Invariant`] encodes one theorem or cross-engine agreement law
//! from the paper and checks it against a single [`Case`]. The bank is
//! deliberately redundant: a planted bug that slips past one checker (say,
//! a tardiness bound that happens to hold on small systems) is usually
//! caught by another (schedule equality across dispatch paths, or the
//! maxflow oracle, which shares no code with the simulators).
//!
//! Laws read their schedules from a per-case [`Runs`] context, which runs
//! each shared engine on first use. [`check_case`] hands one context to
//! the whole bank; [`check_one`] builds its own, so a law checked alone
//! (by the shrinker, or one at a time in a trace) runs everything itself.

use std::cell::OnceCell;
use std::panic::{catch_unwind, AssertUnwindSafe};

use pfair_analysis::{
    check_structural, check_window_containment, detect_blocking, flow_schedulable, lag_series,
    pdb_ready_sets, tardiness_histogram, tardiness_stats, BlockingKind, WindowMode,
};
use pfair_core::pdb;
use pfair_core::priority::ComparatorOnly;
use pfair_core::{KeyDispatch, Pd2, PriorityOrder};
use pfair_numeric::Rat;
use pfair_obs::{InversionKind, DEFAULT_BUCKETS};
use pfair_online::OnlineDvq;
use pfair_sim::{FullQuantum, Schedule};
use pfair_taskmodel::hyperperiod::{hyperperiod_of_weights, subtasks_per_hyperperiod};
use pfair_taskmodel::{SubtaskRef, TaskSystem};
use pfair_workload::{releasegen, ReleaseConfig};

use crate::case::Case;
use crate::engines::{Engines, PdbFn, ProbeSim, SimFn, Streamed};
use crate::reference::scan_dvq;

/// One checkable law drawn from the paper's theorems (or from an
/// implementation-level agreement the repo guarantees).
pub trait Invariant: Sync {
    /// Stable name used in reports and by the shrinker to re-check.
    fn name(&self) -> &'static str;

    /// Whether the law is meaningful for this case (e.g. the online
    /// scheduler only expresses synchronous whole-job workloads). Cases
    /// are already feasibility-filtered before reaching the bank.
    fn applies(&self, _case: &Case) -> bool {
        true
    }

    /// Checks the law against [`Runs::case`], reading shared schedules
    /// from `runs`; `Err` carries a human-readable violation report.
    ///
    /// # Errors
    /// A description of the violated law and the witnessing subtasks.
    fn check(&self, runs: &Runs<'_>) -> Result<(), String>;
}

/// An engine run that more than one law reads, on the case's own costs.
#[derive(Clone, Copy, Debug)]
pub enum Run {
    /// SFQ under [`Engines::sfq_order`].
    Sfq,
    /// SFQ under [`Engines::keyed_order`].
    SfqKeyed,
    /// DVQ under [`Engines::keyed_order`].
    Dvq,
    /// The staggered model under [`Engines::keyed_order`].
    Staggered,
    /// SFQ/PD^B.
    Pdb,
    /// Boundary-Fair (meaningful on synchronous periodic cases only).
    Bf,
    /// The flow-network engine.
    Flow,
}

/// The per-case run context: the case, the engines under check, and one
/// lazily filled schedule per [`Run`].
///
/// SFQ has two cells, told apart by the order's *role*
/// ([`Engines::sfq_order`] or [`Engines::keyed_order`]), never by
/// comparing the orders: a mutant may set the two apart. Comparator,
/// full-quantum, online and hyperperiod runs each serve a single law,
/// which runs them itself. An engine that panics leaves its cell empty, so
/// the law that forced it reports the panic.
pub struct Runs<'a> {
    /// The case under check.
    pub case: &'a Case,
    /// The engines under check.
    pub engines: &'a Engines,
    cells: [OnceCell<Schedule>; 7],
}

impl<'a> Runs<'a> {
    /// A context with every cell empty.
    #[must_use]
    pub fn new(case: &'a Case, engines: &'a Engines) -> Self {
        Runs {
            case,
            engines,
            cells: Default::default(),
        }
    }

    /// The schedule of `run`, computed on first use.
    pub fn get(&self, run: Run) -> &Schedule {
        let (e, sys, m) = (self.engines, &self.case.sys, self.case.spec.m);
        self.cells[run as usize].get_or_init(|| {
            let cost = &mut self.case.cost_model();
            match run {
                Run::Sfq => (e.sfq)(sys, m, e.sfq_order, cost),
                Run::SfqKeyed => (e.sfq)(sys, m, e.keyed_order, cost),
                Run::Dvq => (e.dvq)(sys, m, e.keyed_order, cost),
                Run::Staggered => (e.staggered)(sys, m, e.keyed_order, cost),
                Run::Pdb => (e.pdb)(sys, m, cost),
                Run::Bf => (e.bf)(sys, m, cost),
                Run::Flow => (e.flow)(sys, m, cost),
            }
        })
    }
}

/// An invariant violation (or an engine panic) on one case.
#[derive(Clone, Debug)]
pub struct Failure {
    /// [`Invariant::name`] of the violated law, or `"panic"` if an engine
    /// panicked outright.
    pub invariant: &'static str,
    /// Human-readable description of the violation.
    pub detail: String,
}

/// Runs every applicable invariant in [`bank`] against `case` over one
/// shared [`Runs`] context, converting engine panics into failures.
///
/// # Errors
/// The first violated invariant, as a [`Failure`].
pub fn check_case(case: &Case, engines: &Engines) -> Result<(), Failure> {
    let runs = Runs::new(case, engines);
    bank().iter().try_for_each(|&inv| check_in(inv, &runs))
}

/// Runs the single invariant named `name` against `case` (panics from the
/// engines are reported as failures, so the shrinker can chase crashes the
/// same way it chases violations).
///
/// # Errors
/// A [`Failure`] if the invariant is violated or an engine panics.
///
/// # Panics
/// If `name` does not match any invariant in [`bank`].
pub fn check_one(name: &str, case: &Case, engines: &Engines) -> Result<(), Failure> {
    let inv = bank()
        .iter()
        .find(|i| i.name() == name)
        .unwrap_or_else(|| panic!("unknown invariant {name:?}"));
    check_in(*inv, &Runs::new(case, engines))
}

/// Checks `inv` against the context's case, if it applies.
fn check_in(inv: &dyn Invariant, runs: &Runs<'_>) -> Result<(), Failure> {
    if !inv.applies(runs.case) {
        return Ok(());
    }
    match catch_unwind(AssertUnwindSafe(|| inv.check(runs))) {
        Ok(Ok(())) => Ok(()),
        Ok(Err(detail)) => Err(Failure {
            invariant: inv.name(),
            detail,
        }),
        Err(payload) => {
            let msg = payload
                .downcast_ref::<String>()
                .map(String::as_str)
                .or_else(|| payload.downcast_ref::<&str>().copied())
                .unwrap_or("opaque panic payload");
            Err(Failure {
                invariant: inv.name(),
                detail: format!("engine panicked: {msg}"),
            })
        }
    }
}

/// The full invariant bank, in checking order (cheap structural laws
/// first, expensive cross-engine comparisons last).
#[must_use]
pub fn bank() -> &'static [&'static dyn Invariant] {
    static BANK: [&dyn Invariant; 15] = [
        &StructuralValidity,
        &AllocationConservation,
        &SfqZeroTardiness,
        &DvqTardinessBound,
        &PdbTardinessBound,
        &BfBoundaryConservation,
        &FlowSolutionValidity,
        &MaxflowAgreement,
        &KeyedComparatorEquality,
        &SfqDvqFullCostAgreement,
        &Predictability,
        &PdbTable1Conformance,
        &OnlineOfflineEquivalence,
        &HyperperiodPeriodicity,
        &StreamingPosthocAgreement,
    ];
    &BANK
}

fn describe(sys: &TaskSystem, st: SubtaskRef) -> String {
    let s = sys.subtask(st);
    format!(
        "T{}_{} (r={}, d={}, e={})",
        s.id.task.0, s.id.index, s.release, s.deadline, s.eligible
    )
}

/// The slot each placement occupies, asserting integral starts (only
/// meaningful for slot-based runs, i.e. SFQ-shaped schedules).
fn slot_of(sched: &Schedule) -> Vec<(SubtaskRef, i64)> {
    sched
        .placements()
        .iter()
        .map(|pl| {
            assert!(
                pl.start.den() == 1,
                "expected integral slot start, got {:?}",
                pl.start
            );
            (pl.st, pl.start.num_i64())
        })
        .collect()
}

/// Every engine must produce a structurally valid schedule: each released
/// subtask placed once, within capacity, respecting eligibility and
/// predecessor completion.
#[derive(Debug)]
struct StructuralValidity;

impl Invariant for StructuralValidity {
    fn name(&self) -> &'static str {
        "structural-validity"
    }

    fn check(&self, runs: &Runs<'_>) -> Result<(), String> {
        let sys = &runs.case.sys;
        let scheds = [
            ("sfq", runs.get(Run::Sfq)),
            ("dvq", runs.get(Run::Dvq)),
            ("staggered", runs.get(Run::Staggered)),
            ("pdb", runs.get(Run::Pdb)),
        ];
        for (label, sched) in scheds {
            if let Some(err) = check_structural(sys, sched).into_iter().next() {
                return Err(format!("{label}: {err}"));
            }
        }
        Ok(())
    }
}

/// Eq. (1) conservation: every placement executes for exactly the cost the
/// case's cost model assigns — engines may neither truncate nor pad work.
#[derive(Debug)]
struct AllocationConservation;

impl Invariant for AllocationConservation {
    fn name(&self) -> &'static str {
        "allocation-conservation"
    }

    fn check(&self, runs: &Runs<'_>) -> Result<(), String> {
        let (case, sys) = (runs.case, &runs.case.sys);
        for (label, sched) in [("sfq", runs.get(Run::Sfq)), ("dvq", runs.get(Run::Dvq))] {
            for pl in sched.placements() {
                let s = sys.subtask(pl.st);
                let want = case.expected_cost(s.id.task, s.id.index);
                if pl.cost != want {
                    return Err(format!(
                        "{label}: {} executed for {:?}, cost model says {:?}",
                        describe(sys, pl.st),
                        pl.cost,
                        want
                    ));
                }
            }
        }
        Ok(())
    }
}

/// PD² optimality under SFQ: zero tardiness on every feasible system.
#[derive(Debug)]
struct SfqZeroTardiness;

impl Invariant for SfqZeroTardiness {
    fn name(&self) -> &'static str {
        "sfq-zero-tardiness"
    }

    fn check(&self, runs: &Runs<'_>) -> Result<(), String> {
        let stats = tardiness_stats(&runs.case.sys, runs.get(Run::Sfq));
        if stats.max > Rat::ZERO {
            return Err(format!(
                "SFQ tardiness {:?} > 0 ({} deadline misses)",
                stats.max, stats.misses
            ));
        }
        Ok(())
    }
}

/// Theorem 3: PD²-DVQ tardiness is at most one quantum.
#[derive(Debug)]
struct DvqTardinessBound;

impl Invariant for DvqTardinessBound {
    fn name(&self) -> &'static str {
        "dvq-tardiness-bound"
    }

    fn check(&self, runs: &Runs<'_>) -> Result<(), String> {
        let stats = tardiness_stats(&runs.case.sys, runs.get(Run::Dvq));
        if stats.max > Rat::ONE {
            return Err(format!(
                "DVQ tardiness {:?} > 1 (Theorem 3 bound, {} misses)",
                stats.max, stats.misses
            ));
        }
        Ok(())
    }
}

/// Theorem 2: PD^B tardiness under SFQ is at most one quantum.
#[derive(Debug)]
struct PdbTardinessBound;

impl Invariant for PdbTardinessBound {
    fn name(&self) -> &'static str {
        "pdb-tardiness-bound"
    }

    fn check(&self, runs: &Runs<'_>) -> Result<(), String> {
        let stats = tardiness_stats(&runs.case.sys, runs.get(Run::Pdb));
        if stats.max > Rat::ONE {
            return Err(format!(
                "PD^B tardiness {:?} > 1 (Theorem 2 bound, {} misses)",
                stats.max, stats.misses
            ));
        }
        Ok(())
    }
}

/// `true` iff the case is a synchronous periodic system: indices `1..n`
/// with no IS offsets and no early releasing (partial trailing jobs
/// allowed) — exactly the class [`pfair_sim::simulate_bf`] is defined on.
fn is_sync_periodic(case: &Case) -> bool {
    case.spec.tasks.iter().all(|t| {
        t.subtasks
            .iter()
            .enumerate()
            .all(|(k, s)| s.index == k as u64 + 1 && s.theta == 0 && s.early == 0)
    })
}

/// Slot-engine discipline shared by the BF and flow checkers: every
/// processor index below `m`, no processor double-booked in a slot, and no
/// task on two processors in one slot. Capacity `≤ m` per slot follows.
fn check_slot_discipline(sys: &TaskSystem, sched: &Schedule, m: u32) -> Result<(), String> {
    if let Some(pl) = sched.placements().iter().find(|pl| pl.proc >= m) {
        return Err(format!(
            "{} on processor {} ≥ m = {m}",
            describe(sys, pl.st),
            pl.proc
        ));
    }
    let mut by_proc: Vec<(i64, u32)> = Vec::with_capacity(sched.placements().len());
    let mut by_task: Vec<(i64, u32)> = Vec::with_capacity(sched.placements().len());
    for pl in sched.placements() {
        assert!(
            pl.start.den() == 1,
            "expected integral slot start, got {:?}",
            pl.start
        );
        by_proc.push((pl.start.num_i64(), pl.proc));
        by_task.push((pl.start.num_i64(), sys.subtask(pl.st).id.task.0));
    }
    by_proc.sort_unstable();
    if let Some(w) = by_proc.windows(2).find(|w| w[0] == w[1]) {
        return Err(format!(
            "slot {}: processor {} double-booked",
            w[0].0, w[0].1
        ));
    }
    by_task.sort_unstable();
    if let Some(w) = by_task.windows(2).find(|w| w[0] == w[1]) {
        return Err(format!(
            "slot {}: task T{} runs on two processors at once",
            w[0].0, w[0].1
        ));
    }
    Ok(())
}

/// Boundary-Fair conservation: the BF schedule must match an independent
/// re-derivation of the family's allocation rules, interval by interval —
/// per boundary interval `[b, b′)` every task receives exactly its
/// mandatory units `⌊fluid(b′) − alloc(b)⌋` plus at most one optional
/// unit, optional units granted from spare capacity in urgency order
/// (the PD² priority of the unit each grant would hand out, the task's
/// first unit past its allocated and mandatory ones) —
/// together with the slot discipline, intra-task precedence, and
/// containment of every unit inside its job window (which is what makes
/// BF meet every *job* deadline despite ignoring Pfair subtask windows).
#[derive(Debug)]
struct BfBoundaryConservation;

impl Invariant for BfBoundaryConservation {
    fn name(&self) -> &'static str {
        "bf-boundary-conservation"
    }

    fn applies(&self, case: &Case) -> bool {
        is_sync_periodic(case)
    }

    #[allow(clippy::too_many_lines)]
    fn check(&self, runs: &Runs<'_>) -> Result<(), String> {
        let sys = &runs.case.sys;
        let m = runs.case.spec.m;
        let sched = runs.get(Run::Bf);
        if sched.placements().len() != sys.num_subtasks() {
            return Err(format!(
                "BF placed {} of {} subtasks",
                sched.placements().len(),
                sys.num_subtasks()
            ));
        }
        check_slot_discipline(sys, sched, m)?;
        let slots = slot_of(sched);
        let mut slot = vec![0i64; sys.num_subtasks()];
        for &(st, t) in &slots {
            slot[st.idx()] = t;
        }

        // Intra-task precedence and job-window containment.
        for task in sys.tasks() {
            let (e, p) = (task.weight.e(), task.weight.p());
            let mut prev: Option<i64> = None;
            for (j, st) in sys.task_subtask_refs(task.id).enumerate() {
                let t = slot[st.idx()];
                if let Some(pt) = prev {
                    if pt >= t {
                        return Err(format!(
                            "{} at slot {t} does not follow its predecessor (slot {pt})",
                            describe(sys, st)
                        ));
                    }
                }
                prev = Some(t);
                let job = i64::try_from(j).expect("subtask count fits i64") / e;
                if t < job * p || t + 1 > (job + 1) * p {
                    return Err(format!(
                        "{} at slot {t} outside its job window [{}, {})",
                        describe(sys, st),
                        job * p,
                        (job + 1) * p
                    ));
                }
            }
        }

        // Independent re-derivation of the allocation table: boundaries,
        // then per-interval mandatory + optional units in exact rationals.
        let n_tasks = sys.num_tasks();
        let mut bounds = vec![0i64];
        for task in sys.tasks() {
            let n = sys.task_subtasks(task.id).len() as i64;
            if n == 0 {
                continue;
            }
            let (e, p) = (task.weight.e(), task.weight.p());
            let jobs = (n + e - 1) / e;
            bounds.extend((1..=jobs).map(|k| k * p));
        }
        bounds.sort_unstable();
        bounds.dedup();
        let end = *bounds.last().expect("boundary 0 always present");
        if let Some(&(st, t)) = slots.iter().find(|&&(_, t)| t < 0 || t >= end) {
            return Err(format!(
                "{} at slot {t} outside the boundary horizon [0, {end})",
                describe(sys, st)
            ));
        }

        let mut task_slots: Vec<Vec<i64>> = vec![Vec::new(); n_tasks];
        for &(st, t) in &slots {
            task_slots[sys.subtask(st).id.task.idx()].push(t);
        }
        let mut alloc = vec![0i64; n_tasks];
        for w in bounds.windows(2) {
            let (b, b2) = (w[0], w[1]);
            let len = b2 - b;
            let mut expect = vec![0i64; n_tasks];
            let mut spare = i64::from(m) * len;
            let mut cands: Vec<(SubtaskRef, usize)> = Vec::new();
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
                let mand = pw.floor();
                if mand > len || spare < mand {
                    return Err(format!(
                        "interval [{b}, {b2}): derived mandatory demand for task T{k} \
                         ({mand} units) exceeds the interval — the case is infeasible, \
                         which the campaign filter should have excluded"
                    ));
                }
                expect[k] = mand;
                spare -= mand;
                if pw > Rat::int(mand) && mand < len {
                    // The unit an optional grant would hand out: the task's
                    // first unit past its allocated and mandatory ones.
                    let unit = i64::from(sys.task_span(task.id).0) + alloc[k] + mand;
                    let unit = u32::try_from(unit).expect("subtask ref fits u32");
                    cands.push((SubtaskRef(unit), k));
                }
            }
            cands.sort_by(|x, y| Pd2.cmp(sys, x.0, y.0));
            for &(_, k) in cands
                .iter()
                .take(usize::try_from(spare).expect("spare is nonnegative"))
            {
                expect[k] += 1;
            }
            for (k, want) in expect.iter().enumerate() {
                let got = task_slots[k].iter().filter(|&&t| b <= t && t < b2).count();
                let got = i64::try_from(got).expect("unit count fits i64");
                if got != *want {
                    return Err(format!(
                        "interval [{b}, {b2}): task T{k} received {got} units, \
                         the BF allocation rules say {want}"
                    ));
                }
                alloc[k] += want;
            }
        }
        Ok(())
    }
}

/// Flow-solution validity: every placement the flow engine extracts must
/// sit inside its subtask's PF-window (hence zero tardiness), respect the
/// slot discipline (capacity, processor and task exclusivity), and honor
/// intra-task precedence — i.e. the claimed max-flow solution really is a
/// window-valid schedule, independently re-checked against the task model.
#[derive(Debug)]
struct FlowSolutionValidity;

impl Invariant for FlowSolutionValidity {
    fn name(&self) -> &'static str {
        "flow-solution-validity"
    }

    fn check(&self, runs: &Runs<'_>) -> Result<(), String> {
        let sys = &runs.case.sys;
        let sched = runs.get(Run::Flow);
        if sched.placements().len() != sys.num_subtasks() {
            return Err(format!(
                "flow engine placed {} of {} subtasks",
                sched.placements().len(),
                sys.num_subtasks()
            ));
        }
        check_slot_discipline(sys, sched, runs.case.spec.m)?;
        let slots = slot_of(sched);
        let mut slot = vec![0i64; sys.num_subtasks()];
        for &(st, t) in &slots {
            slot[st.idx()] = t;
        }
        for (st, s) in sys.iter_refs() {
            let t = slot[st.idx()];
            if t < s.release || t >= s.deadline {
                return Err(format!(
                    "{} placed at slot {t} outside its PF-window [{}, {})",
                    describe(sys, st),
                    s.release,
                    s.deadline
                ));
            }
            if let Some(p) = s.pred {
                if slot[p.idx()] >= t {
                    return Err(format!(
                        "{} at slot {t} does not follow its predecessor (slot {})",
                        describe(sys, st),
                        slot[p.idx()]
                    ));
                }
            }
        }
        Ok(())
    }
}

/// Predictability (Cucu-Grosjean sense) of the cost-independent families:
/// the slot engines — SFQ, BF, flow — commit to `(slot, processor)`
/// assignments without consulting actual execution costs, so replacing
/// the case's costs by the worst case (a full quantum) must leave every
/// assignment unchanged. DVQ is deliberately *not* covered: its
/// event-driven dispatch has genuine scheduling anomalies — shrinking one
/// cost reorders later dispatches (see EXPERIMENTS.md).
#[derive(Debug)]
struct Predictability;

impl Invariant for Predictability {
    fn name(&self) -> &'static str {
        "predictability"
    }

    fn applies(&self, case: &Case) -> bool {
        // With no cost overrides the two runs are literally the same call.
        !case.spec.costs.is_empty()
    }

    fn check(&self, runs: &Runs<'_>) -> Result<(), String> {
        let (case, e) = (runs.case, runs.engines);
        let (sys, m) = (&case.sys, case.spec.m);
        // Each actual run is forced before its worst-case twin, so a
        // panicking engine is reported from the same run as by `check_one`.
        let sfq = runs.get(Run::SfqKeyed);
        let worst_case = |sim: PdbFn| sim(sys, m, &mut FullQuantum);
        let mut pairs = vec![
            ("sfq", sfq, (e.sfq)(sys, m, e.keyed_order, &mut FullQuantum)),
            ("flow", runs.get(Run::Flow), worst_case(e.flow)),
        ];
        if is_sync_periodic(case) {
            pairs.push(("bf", runs.get(Run::Bf), worst_case(e.bf)));
        }
        for (label, actual, worst) in &pairs {
            for (st, _) in sys.iter_refs() {
                let a = actual.placement(st);
                let b = worst.placement(st);
                if a.start != b.start || a.proc != b.proc {
                    return Err(format!(
                        "{label}: {} moves when costs shrink below the worst case — \
                         (start {:?}, proc {}) with actual costs vs (start {:?}, proc {}) at full cost",
                        describe(sys, st),
                        a.start,
                        a.proc,
                        b.start,
                        b.proc
                    ));
                }
            }
        }
        Ok(())
    }
}

/// The maxflow oracle and the SFQ engine must agree on PF-window
/// schedulability. The oracle shares no code with the simulators, so this
/// is the harness's independent referee. Early releases move placements
/// ahead of PF windows by design, so the law applies only to cases
/// without them.
#[derive(Debug)]
struct MaxflowAgreement;

impl Invariant for MaxflowAgreement {
    fn name(&self) -> &'static str {
        "maxflow-agreement"
    }

    fn applies(&self, case: &Case) -> bool {
        case.spec
            .tasks
            .iter()
            .all(|t| t.subtasks.iter().all(|s| s.early == 0))
    }

    fn check(&self, runs: &Runs<'_>) -> Result<(), String> {
        let (case, engines) = (runs.case, runs.engines);
        let flow = flow_schedulable(&case.sys, case.spec.m, WindowMode::PfWindow);
        let sched = (engines.sfq)(&case.sys, case.spec.m, engines.sfq_order, &mut FullQuantum);
        let contained = check_window_containment(&case.sys, &sched).is_empty();
        if flow.schedulable != contained {
            return Err(format!(
                "maxflow oracle says schedulable={}, SFQ window containment={}",
                flow.schedulable, contained
            ));
        }
        Ok(())
    }
}

/// The keyed-heap and comparator dispatch paths must produce identical
/// schedules (same start and processor per subtask) under SFQ, DVQ and
/// the staggered model. The DVQ comparator side is the reference scan
/// ([`scan_dvq`]), which shares no code with the DVQ kernel, so this row
/// checks the kernel's event loop as well as its keyed dispatch.
#[derive(Debug)]
struct KeyedComparatorEquality;

impl Invariant for KeyedComparatorEquality {
    fn name(&self) -> &'static str {
        "keyed-vs-comparator"
    }

    fn check(&self, runs: &Runs<'_>) -> Result<(), String> {
        let (case, e) = (runs.case, runs.engines);
        if e.keyed_order.key_dispatch() == KeyDispatch::Comparator {
            return Ok(());
        }
        let (sys, m) = (&case.sys, case.spec.m);
        let comparator = ComparatorOnly(e.comparator_order);
        let cost = || case.cost_model();
        let scan = |sim: SimFn| sim(sys, m, &comparator, &mut cost());
        let reference = || scan_dvq(sys, m, e.comparator_order, &mut cost());
        for (label, keyed, scanned) in [
            ("sfq", runs.get(Run::SfqKeyed), scan(e.sfq)),
            ("dvq", runs.get(Run::Dvq), reference()),
            ("staggered", runs.get(Run::Staggered), scan(e.staggered)),
        ] {
            for (st, _) in sys.iter_refs() {
                let a = keyed.placement(st);
                let b = scanned.placement(st);
                if a.start != b.start || a.proc != b.proc {
                    return Err(format!(
                        "{label}: {} keyed→(start {:?}, proc {}) vs comparator→(start {:?}, proc {})",
                        describe(sys, st),
                        a.start,
                        a.proc,
                        b.start,
                        b.proc
                    ));
                }
            }
        }
        Ok(())
    }
}

/// With every actual cost a full quantum, DVQ degenerates to SFQ: the two
/// engines must place every subtask at the same time.
#[derive(Debug)]
struct SfqDvqFullCostAgreement;

impl Invariant for SfqDvqFullCostAgreement {
    fn name(&self) -> &'static str {
        "sfq-dvq-full-cost"
    }

    fn applies(&self, case: &Case) -> bool {
        case.spec.costs.is_empty()
    }

    fn check(&self, runs: &Runs<'_>) -> Result<(), String> {
        let engines = runs.engines;
        let sys = &runs.case.sys;
        let m = runs.case.spec.m;
        let sfq = (engines.sfq)(sys, m, engines.keyed_order, &mut FullQuantum);
        let dvq = (engines.dvq)(sys, m, engines.keyed_order, &mut FullQuantum);
        for (st, _) in sys.iter_refs() {
            let a = sfq.start(st);
            let b = dvq.start(st);
            if a != b {
                return Err(format!(
                    "{} starts at {a:?} under SFQ but {b:?} under full-cost DVQ",
                    describe(sys, st)
                ));
            }
        }
        Ok(())
    }
}

/// Every PD^B slot decision must be justified by Table 1: the driver may
/// never idle a processor while work is ready, and may never schedule a
/// subtask over a waiting one that strictly dominates it at *every*
/// possible decision index.
#[derive(Debug)]
struct PdbTable1Conformance;

impl Invariant for PdbTable1Conformance {
    fn name(&self) -> &'static str {
        "pdb-table1-conformance"
    }

    fn check(&self, runs: &Runs<'_>) -> Result<(), String> {
        let sys = &runs.case.sys;
        let m = runs.case.spec.m as usize;
        let sched = (runs.engines.pdb)(sys, runs.case.spec.m, &mut FullQuantum);
        let mut slot = vec![0i64; sys.num_subtasks()];
        for (st, t) in slot_of(&sched) {
            slot[st.idx()] = t;
        }
        for (t, ready) in pdb_ready_sets(sys, &sched) {
            let scheduled: Vec<SubtaskRef> = ready
                .iter()
                .map(|r| r.st)
                .filter(|st| slot[st.idx()] == t)
                .collect();
            if scheduled.len() != ready.len().min(m) {
                return Err(format!(
                    "slot {t}: scheduled {} of {} ready subtasks on {m} processors",
                    scheduled.len(),
                    ready.len()
                ));
            }
            let part = pdb::classify(sys, t, &ready);
            let p = part.p().min(m);
            for r in &ready {
                let y = r.st;
                if slot[y.idx()] == t {
                    continue;
                }
                let cy = part.class_of(y).expect("waiting subtask is classified");
                for &x in &scheduled {
                    let cx = part.class_of(x).expect("scheduled subtask is classified");
                    let dominates_at_all_r = (1..=m).all(|rr| {
                        pdb::table1_leq(sys, y, cy, x, cx, rr, m, p)
                            && !pdb::table1_leq(sys, x, cx, y, cy, rr, m, p)
                    });
                    if dominates_at_all_r {
                        return Err(format!(
                            "slot {t}: scheduled {} ({cx:?}) over waiting {} ({cy:?}) that strictly dominates it at every decision index",
                            describe(sys, x),
                            describe(sys, y)
                        ));
                    }
                }
            }
        }
        Ok(())
    }
}

/// The incremental online DVQ scheduler and the offline DVQ engine must
/// produce the same schedule on workloads both can express (synchronous
/// periodic systems of whole jobs). Both drive the one DVQ kernel, so this
/// law checks online admission and keying against the `TaskSystem` load,
/// not the event loop; the loop's independent oracle is the reference
/// scan that `keyed-vs-comparator` runs.
#[derive(Debug)]
struct OnlineOfflineEquivalence;

impl Invariant for OnlineOfflineEquivalence {
    fn name(&self) -> &'static str {
        "online-offline-equivalence"
    }

    fn applies(&self, case: &Case) -> bool {
        case.is_whole_jobs()
    }

    fn check(&self, runs: &Runs<'_>) -> Result<(), String> {
        let (case, sys) = (runs.case, &runs.case.sys);
        let offline = runs.get(Run::Dvq);

        let mut online = OnlineDvq::new(case.spec.m);
        let mut ids = Vec::new();
        for t in &case.spec.tasks {
            ids.push(online.add_task(pfair_taskmodel::Weight::new(t.e, t.p)));
        }
        for (t, &id) in case.spec.tasks.iter().zip(&ids) {
            let jobs = t.subtasks.len() as i64 / t.e;
            for j in 0..jobs {
                online
                    .submit_job(id, j * t.p)
                    .map_err(|e| format!("online submit_job failed: {e:?}"))?;
            }
        }
        let log = online.run_until_idle(&mut |task, index| case.expected_cost(task, index));
        if log.len() != sys.num_subtasks() {
            return Err(format!(
                "online scheduler made {} assignments for {} subtasks",
                log.len(),
                sys.num_subtasks()
            ));
        }
        for a in &log {
            let st = sys
                .find(pfair_taskmodel::SubtaskId {
                    task: a.task,
                    index: a.index,
                })
                .ok_or_else(|| {
                    format!("online scheduled unknown subtask T{}_{}", a.task.0, a.index)
                })?;
            let pl = offline.placement(st);
            if pl.start != a.start || pl.proc != a.proc {
                return Err(format!(
                    "{}: online (start {:?}, proc {}) vs offline DVQ (start {:?}, proc {})",
                    describe(sys, st),
                    a.start,
                    a.proc,
                    pl.start,
                    pl.proc
                ));
            }
        }
        Ok(())
    }
}

/// Streaming observability must agree exactly with post-hoc analysis on
/// the same run: the engine's streaming blocking detector against
/// `detect_blocking`, and the streaming lag/metrics observers against
/// `lag_series` / `tardiness_stats` / `tardiness_histogram` — rational
/// equality throughout, no tolerance. Every streamed value of one engine
/// comes from one observed run ([`Engines::stream_probe`]); the DVQ probe
/// runs first, then the SFQ one. The post-hoc lag series is built
/// once per probe, through the horizon and every streamed slot past it;
/// each streamed `LAG(t)` is compared with its element `t`, and the
/// streamed maximum with the series' maximum over `[0, horizon]` (what
/// `max_lag_over_slots` returns). `lag_series` is a sweep written
/// independently of `LagObserver`, and `tests/lag_sweep.rs` holds it
/// equal to the per-instant definition `total_lag`.
#[derive(Debug)]
struct StreamingPosthocAgreement;

impl StreamingPosthocAgreement {
    fn check_blocking(
        sys: &TaskSystem,
        dvq: &Streamed,
        order: &dyn PriorityOrder,
    ) -> Result<(), String> {
        let records = &dvq.blocking;
        let posthoc = detect_blocking(sys, &dvq.sched, order);
        if records.len() != posthoc.len() {
            return Err(format!(
                "streaming blocking found {} inversions, post-hoc found {} (victims {:?} vs {:?})",
                records.len(),
                posthoc.len(),
                records.iter().map(|r| r.victim).collect::<Vec<_>>(),
                posthoc.iter().map(|e| e.victim).collect::<Vec<_>>(),
            ));
        }
        for (r, e) in records.iter().zip(&posthoc) {
            let kinds_agree = matches!(
                (r.kind, e.kind),
                (InversionKind::Eligibility, BlockingKind::Eligibility)
                    | (InversionKind::Predecessor, BlockingKind::Predecessor)
            );
            if r.victim != e.victim
                || r.ready_at != e.ready_at
                || r.scheduled_at != e.scheduled_at
                || !kinds_agree
                || r.blockers != e.blockers
            {
                return Err(format!(
                    "blocking record diverges for {}: streaming (ready {:?}, at {:?}, {:?}, blockers {:?}) vs post-hoc (ready {:?}, at {:?}, {:?}, blockers {:?})",
                    describe(sys, e.victim),
                    r.ready_at,
                    r.scheduled_at,
                    r.kind,
                    r.blockers,
                    e.ready_at,
                    e.scheduled_at,
                    e.kind,
                    e.blockers,
                ));
            }
        }
        Ok(())
    }

    fn check_lag_and_metrics(sys: &TaskSystem, label: &str, run: &Streamed) -> Result<(), String> {
        let h = sys.horizon();
        // Lag involves the division `(t − start) / cost`, whose exact-
        // rational denominators grow multiplicatively in the cost
        // denominators; on the generator's GRID-resolution (720720) cost
        // models the reduced sums exceed i64 but stay far inside the
        // i128-backed `Rat`, so every generated case is compared — no
        // representability carve-out.
        let (sched, series, max) = (&run.sched, &run.lag, run.max_lag);
        // One post-hoc sweep covers the horizon and every streamed slot
        // past it.
        let last = series.iter().fold(h, |last, &(t, _)| last.max(t));
        let posthoc = lag_series(sys, sched, last);
        for &(t, l) in series {
            let want = posthoc[usize::try_from(t).expect("streamed slots start at 0")];
            if l != want {
                return Err(format!(
                    "{label}: streaming LAG({t}) = {l:?}, post-hoc = {want:?}"
                ));
            }
        }
        let upto = usize::try_from(h).map_or(0, |h| h + 1);
        let want_max = posthoc
            .iter()
            .take(upto)
            .max()
            .copied()
            .unwrap_or(Rat::ZERO);
        if max != want_max {
            return Err(format!(
                "{label}: streaming max LAG {max:?} vs post-hoc {want_max:?}"
            ));
        }
        let metrics = &run.metrics;
        let stats = tardiness_stats(sys, sched);
        let worst_id = stats.worst.map(|st| sys.subtask(st).id);
        if metrics.deadline_misses() != stats.misses as u64
            || metrics.total_tardiness() != stats.total
            || metrics.max_tardiness() != stats.max
            || metrics.worst() != worst_id
        {
            return Err(format!(
                "{label}: streaming tardiness (misses {}, total {:?}, max {:?}, worst {:?}) vs post-hoc (misses {}, total {:?}, max {:?}, worst {:?})",
                metrics.deadline_misses(),
                metrics.total_tardiness(),
                metrics.max_tardiness(),
                metrics.worst(),
                stats.misses,
                stats.total,
                stats.max,
                worst_id,
            ));
        }
        let want_hist = tardiness_histogram(sys, sched, DEFAULT_BUCKETS);
        let got_hist: Vec<usize> = metrics.histogram().iter().map(|&c| c as usize).collect();
        if got_hist != want_hist {
            return Err(format!(
                "{label}: streaming histogram {got_hist:?} vs post-hoc {want_hist:?}"
            ));
        }
        Ok(())
    }
}

impl Invariant for StreamingPosthocAgreement {
    fn name(&self) -> &'static str {
        "streaming-posthoc-agreement"
    }

    fn check(&self, runs: &Runs<'_>) -> Result<(), String> {
        let (case, e) = (runs.case, runs.engines);
        let (sys, m) = (&case.sys, case.spec.m);
        let probe = |sim| (e.stream_probe)(sys, m, e.keyed_order, &mut case.cost_model(), sim);
        let dvq = probe(ProbeSim::Dvq);
        Self::check_blocking(sys, &dvq, e.keyed_order)?;
        Self::check_lag_and_metrics(sys, "sfq", &probe(ProbeSim::Sfq))?;
        Self::check_lag_and_metrics(sys, "dvq", &dvq)
    }
}

/// Hyperperiod periodicity: on the synchronous periodic closure of the
/// case's weights, the SFQ schedule repeats with period `H` — subtask
/// `i + k` starts exactly `H` after subtask `i`, at full *and* partial
/// utilization.
#[derive(Debug)]
struct HyperperiodPeriodicity;

impl Invariant for HyperperiodPeriodicity {
    fn name(&self) -> &'static str {
        "hyperperiod-periodicity"
    }

    fn applies(&self, case: &Case) -> bool {
        hyperperiod_of_weights(&case.weights()) <= 24
    }

    fn check(&self, runs: &Runs<'_>) -> Result<(), String> {
        let (case, engines) = (runs.case, runs.engines);
        let weights = case.weights();
        let h = hyperperiod_of_weights(&weights);
        let periodic = releasegen::generate(&weights, &ReleaseConfig::periodic(2 * h), 0);
        let sched = (engines.sfq)(&periodic, case.spec.m, engines.sfq_order, &mut FullQuantum);
        for (task, &w) in periodic.tasks().iter().zip(&weights) {
            let k = usize::try_from(subtasks_per_hyperperiod(w, h))
                .expect("subtasks per hyperperiod is positive and small");
            let refs: Vec<SubtaskRef> = periodic.task_subtask_refs(task.id).collect();
            for i in 0..refs.len().saturating_sub(k) {
                let a = sched.start(refs[i]);
                let b = sched.start(refs[i + k]);
                if b != a + Rat::int(h) {
                    return Err(format!(
                        "{} starts at {:?} but its successor one hyperperiod (H={h}) later starts at {:?}",
                        describe(&periodic, refs[i]),
                        a,
                        b
                    ));
                }
            }
        }
        Ok(())
    }
}
