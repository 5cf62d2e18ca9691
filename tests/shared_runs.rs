//! The conformance bank's shared per-case runs.
//!
//! `check_case` hands one `Runs` context to the whole bank, so each engine
//! run that several laws read is computed once per case; `check_one`
//! builds a context of its own. These tests pin what the sharing must
//! keep and what it must save:
//!
//! * the verdict of `check_case` is exactly the first failing `check_one`
//!   in bank order — the definition before runs were shared — for the
//!   reference engines and every planted engine mutant;
//! * exact work counters: one `check_case` runs each shared run once and
//!   the stream probe once per simulator shape, on top of the runs that
//!   serve a single law;
//! * a panicking engine is reported by the first law that forces it, with
//!   the same message, on every check.

use std::cell::{Cell, RefCell};
use std::cmp::Ordering;
use std::panic::{catch_unwind, AssertUnwindSafe};

use pfair::conformance::engines::{ProbeSim, Streamed};
use pfair::conformance::{
    bank, check_case, check_one, generate_case, mutants, Case, Engines, Failure, GenConfig, Run,
    Runs, REFERENCE,
};
use pfair::core::{KeyDispatch, Pd2, PriorityOrder};
use pfair::numeric::Rat;
use pfair::sim::{CostModel, Schedule};
use pfair::taskmodel::hyperperiod::hyperperiod_of_weights;
use pfair::taskmodel::{SubtaskRef, TaskSystem};

/// Seeds of the default generator checked for verdict equivalence.
const VERDICT_SEEDS: u64 = 300;

/// The feasible case generated from `seed`, as `check_seed` builds it.
fn case_of(seed: u64) -> Option<Case> {
    Case::build(generate_case(&GenConfig::default(), seed))
        .ok()
        .filter(Case::is_feasible)
}

/// The bank's verdict before runs were shared: the first law, in bank
/// order, that fails when checked alone.
fn first_failing_alone(case: &Case, engines: &Engines) -> Result<(), Failure> {
    bank()
        .iter()
        .try_for_each(|inv| check_one(inv.name(), case, engines))
}

fn verdict(r: Result<(), Failure>) -> Option<(&'static str, String)> {
    r.err().map(|f| (f.invariant, f.detail))
}

#[test]
fn shared_verdicts_match_each_law_checked_alone() {
    let mut rosters = vec![("reference", REFERENCE)];
    rosters.extend(mutants().into_iter().map(|m| (m.name, m.engines)));
    assert_eq!(rosters.len(), 14, "the reference plus 13 engine mutants");
    let cases: Vec<Case> = (0..VERDICT_SEEDS).filter_map(case_of).collect();
    for (name, engines) in &rosters {
        let mut failures = 0;
        for case in &cases {
            let shared = verdict(check_case(case, engines));
            let alone = verdict(first_failing_alone(case, engines));
            assert_eq!(shared, alone, "{name}, seed {}", case.spec.seed);
            failures += usize::from(shared.is_some());
        }
        if *name == "reference" {
            assert_eq!(failures, 0, "the reference engines fail the bank");
        }
    }
}

/// One engine call as the counting hooks see it.
#[derive(Clone, Debug, PartialEq, Eq, PartialOrd, Ord)]
struct Call {
    hook: &'static str,
    /// The order's role name (empty for the hooks that take no order).
    role: &'static str,
    /// Whether the call ran on the case's own system (the hyperperiod law
    /// builds a periodic system of its own).
    on_case: bool,
    /// What the call's cost model charges, subtask by subtask.
    costs: Costs,
}

/// A cost model, told by the costs it charges.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
enum Costs {
    /// A full quantum everywhere: `FullQuantum`, or the model of a case
    /// without cost overrides.
    Full,
    /// The case's own costs, some below a full quantum.
    Case,
    /// Anything else.
    Other,
}

thread_local! {
    static CALLS: RefCell<Vec<Call>> = const { RefCell::new(Vec::new()) };
    static CASE_SYS: Cell<usize> = const { Cell::new(0) };
    static CASE_COSTS: RefCell<Vec<Rat>> = const { RefCell::new(Vec::new()) };
}

fn case_costs(case: &Case) -> Vec<Rat> {
    case.sys
        .iter_refs()
        .map(|(_, s)| case.expected_cost(s.id.task, s.id.index))
        .collect()
}

fn costs_of(costs: &[Rat]) -> Costs {
    if costs.iter().all(|&c| c == Rat::ONE) {
        Costs::Full
    } else {
        Costs::Case
    }
}

fn record(hook: &'static str, role: &'static str, sys: &TaskSystem, cost: &mut dyn CostModel) {
    let on_case = CASE_SYS.with(Cell::get) == std::ptr::from_ref(sys) as usize;
    let charged: Vec<Rat> = sys.iter_refs().map(|(st, _)| cost.cost(sys, st)).collect();
    let costs = match costs_of(&charged) {
        Costs::Full => Costs::Full,
        _ if on_case && CASE_COSTS.with(|c| *c.borrow() == charged) => Costs::Case,
        _ => Costs::Other,
    };
    CALLS.with(|c| {
        c.borrow_mut().push(Call {
            hook,
            role,
            on_case,
            costs,
        });
    });
}

/// Runs `f` on `case` with the counting hooks armed, returning its result
/// and the calls it made.
fn counted<T>(case: &Case, f: impl FnOnce() -> T) -> (T, Vec<Call>) {
    CASE_SYS.with(|s| s.set(std::ptr::from_ref(&case.sys) as usize));
    CASE_COSTS.with(|c| *c.borrow_mut() = case_costs(case));
    CALLS.with(|c| c.borrow_mut().clear());
    let out = f();
    (out, CALLS.with(|c| c.take()))
}

/// PD² under a role name, so the hooks can tell which of the engine set's
/// orders a call was given.
#[derive(Debug)]
struct Role(&'static str);

impl PriorityOrder for Role {
    fn name(&self) -> &'static str {
        self.0
    }

    fn cmp_strict(&self, sys: &TaskSystem, a: SubtaskRef, b: SubtaskRef) -> Ordering {
        Pd2.cmp_strict(sys, a, b)
    }

    fn cmp(&self, sys: &TaskSystem, a: SubtaskRef, b: SubtaskRef) -> Ordering {
        Pd2.cmp(sys, a, b)
    }

    fn key_dispatch(&self) -> KeyDispatch {
        Pd2.key_dispatch()
    }
}

static SFQ_ROLE: Role = Role("sfq");
static KEYED_ROLE: Role = Role("keyed");
static COMPARATOR_ROLE: Role = Role("comparator");

macro_rules! ordered_hook {
    ($name:ident, $hook:literal, $sim:ident) => {
        fn $name(
            sys: &TaskSystem,
            m: u32,
            order: &dyn PriorityOrder,
            cost: &mut dyn CostModel,
        ) -> Schedule {
            record($hook, order.name(), sys, cost);
            (REFERENCE.$sim)(sys, m, order, cost)
        }
    };
}

macro_rules! unordered_hook {
    ($name:ident, $hook:literal, $sim:ident) => {
        fn $name(sys: &TaskSystem, m: u32, cost: &mut dyn CostModel) -> Schedule {
            record($hook, "", sys, cost);
            (REFERENCE.$sim)(sys, m, cost)
        }
    };
}

ordered_hook!(counted_sfq, "sfq", sfq);
ordered_hook!(counted_dvq, "dvq", dvq);
ordered_hook!(counted_staggered, "staggered", staggered);
unordered_hook!(counted_pdb, "pdb", pdb);
unordered_hook!(counted_bf, "bf", bf);
unordered_hook!(counted_flow, "flow", flow);

fn counted_probe(
    sys: &TaskSystem,
    m: u32,
    order: &dyn PriorityOrder,
    cost: &mut dyn CostModel,
    sim: ProbeSim,
) -> Streamed {
    let hook = match sim {
        ProbeSim::Sfq => "probe-sfq",
        ProbeSim::Dvq => "probe-dvq",
    };
    record(hook, order.name(), sys, cost);
    (REFERENCE.stream_probe)(sys, m, order, cost, sim)
}

/// The reference engines behind counting hooks, with each order role
/// under a name of its own.
const COUNTING: Engines = Engines {
    name: "counting",
    keyed_order: &KEYED_ROLE,
    comparator_order: &COMPARATOR_ROLE,
    sfq_order: &SFQ_ROLE,
    sfq: counted_sfq,
    dvq: counted_dvq,
    staggered: counted_staggered,
    pdb: counted_pdb,
    bf: counted_bf,
    flow: counted_flow,
    stream_probe: counted_probe,
};

fn is_sync_periodic(case: &Case) -> bool {
    case.spec.tasks.iter().all(|t| {
        t.subtasks
            .iter()
            .enumerate()
            .all(|(k, s)| s.index == k as u64 + 1 && s.theta == 0 && s.early == 0)
    })
}

/// Every engine call one `check_case` must make on `case`: each shared
/// run once, then the runs that serve a single law.
fn expected_calls(case: &Case) -> Vec<Call> {
    let actual = &costs_of(&case_costs(case));
    let full = &Costs::Full;
    let call = |hook, role, costs: &Costs| Call {
        hook,
        role,
        on_case: true,
        costs: *costs,
    };
    let sync = is_sync_periodic(case);
    // Shared runs on the case's costs.
    let mut calls = vec![
        call("sfq", "sfq", actual),
        call("sfq", "keyed", actual),
        call("dvq", "keyed", actual),
        call("staggered", "keyed", actual),
        call("pdb", "", actual),
        call("flow", "", actual),
    ];
    if sync {
        calls.push(call("bf", "", actual));
    }
    // Keyed-vs-comparator's scans; its DVQ side is the reference scan,
    // which is no engine hook.
    for hook in ["sfq", "staggered"] {
        calls.push(call(hook, "comparator", actual));
    }
    if case
        .spec
        .tasks
        .iter()
        .all(|t| t.subtasks.iter().all(|s| s.early == 0))
    {
        calls.push(call("sfq", "sfq", full)); // maxflow-agreement
    }
    if case.spec.costs.is_empty() {
        calls.push(call("sfq", "keyed", full)); // sfq-dvq-full-cost
        calls.push(call("dvq", "keyed", full));
    } else {
        calls.push(call("sfq", "keyed", full)); // predictability
        calls.push(call("flow", "", full));
        if sync {
            calls.push(call("bf", "", full));
        }
    }
    calls.push(call("pdb", "", full)); // pdb-table1-conformance
    let h = hyperperiod_of_weights(&case.weights());
    if h <= 24 {
        calls.push(Call {
            hook: "sfq",
            role: "sfq",
            on_case: false,
            costs: Costs::Full,
        });
    }
    calls.push(call("probe-dvq", "keyed", actual));
    calls.push(call("probe-sfq", "keyed", actual));
    calls
}

#[test]
fn one_check_case_runs_each_shared_run_once() {
    let mut seen = [false; 6];
    let mut checked = 0;
    for case in (0..60).filter_map(case_of) {
        let (verdict, mut calls) = counted(&case, || check_case(&case, &COUNTING));
        assert!(verdict.is_ok(), "seed {}: {verdict:?}", case.spec.seed);
        let mut want = expected_calls(&case);
        calls.sort();
        want.sort();
        assert_eq!(
            calls, want,
            "seed {}: engine calls of one check_case",
            case.spec.seed
        );
        let probes = calls.iter().filter(|c| c.hook.starts_with("probe")).count();
        assert_eq!(probes, 2, "one stream probe per simulator shape");

        let costs = &case.spec.costs;
        let uniform = !costs.is_empty()
            && costs.len() == case.sys.num_subtasks()
            && costs.iter().all(|c| c.cost == costs[0].cost);
        seen[0] |= costs.is_empty();
        seen[1] |= uniform;
        seen[2] |= !costs.is_empty() && !uniform;
        seen[3] |= is_sync_periodic(&case);
        seen[4] |= !is_sync_periodic(&case);
        seen[5] |= hyperperiod_of_weights(&case.weights()) <= 24;
        checked += 1;
    }
    assert!(checked >= 40, "only {checked} feasible cases");
    assert_eq!(
        seen, [true; 6],
        "coverage: full-quantum, uniform-cost and mixed-cost cases, \
         synchronous periodic and other cases, a short hyperperiod"
    );
}

#[test]
fn a_law_checked_alone_runs_its_own_engines() {
    let case = case_of(0).expect("seed 0 builds a feasible case");
    let (verdict, calls) = counted(&case, || check_one("structural-validity", &case, &COUNTING));
    assert!(verdict.is_ok(), "{verdict:?}");
    let runs: Vec<(&str, &str)> = calls.iter().map(|c| (c.hook, c.role)).collect();
    assert_eq!(
        runs,
        [
            ("sfq", "sfq"),
            ("dvq", "keyed"),
            ("staggered", "keyed"),
            ("pdb", "")
        ]
    );
    // A second law checked alone shares nothing with the first.
    let (_, calls) = counted(&case, || check_one("dvq-tardiness-bound", &case, &COUNTING));
    assert_eq!(calls.len(), 1);
    assert_eq!((calls[0].hook, calls[0].role), ("dvq", "keyed"));
}

fn panicking_dvq(_: &TaskSystem, _: u32, _: &dyn PriorityOrder, _: &mut dyn CostModel) -> Schedule {
    panic!("planted DVQ crash")
}

fn panicking_flow(_: &TaskSystem, _: u32, _: &mut dyn CostModel) -> Schedule {
    panic!("planted flow crash")
}

fn panicking_bf(_: &TaskSystem, _: u32, _: &mut dyn CostModel) -> Schedule {
    panic!("planted BF crash")
}

#[test]
fn a_panicking_engine_is_reported_by_the_first_law_that_runs_it() {
    let periodic = &(0..60)
        .filter_map(case_of)
        .find(is_sync_periodic)
        .expect("a synchronous periodic case among the first seeds");
    let planted = [
        (
            Engines {
                dvq: panicking_dvq,
                ..REFERENCE
            },
            "structural-validity",
            "planted DVQ crash",
        ),
        (
            Engines {
                flow: panicking_flow,
                ..REFERENCE
            },
            "flow-solution-validity",
            "planted flow crash",
        ),
        (
            Engines {
                bf: panicking_bf,
                ..REFERENCE
            },
            "bf-boundary-conservation",
            "planted BF crash",
        ),
    ];
    for (engines, invariant, msg) in &planted {
        let want = Some((*invariant, format!("engine panicked: {msg}")));
        for _ in 0..2 {
            let got = verdict(check_case(periodic, engines));
            assert_eq!(got, want, "seed {}", periodic.spec.seed);
        }
        assert_eq!(verdict(first_failing_alone(periodic, engines)), want);
    }
    // The panic leaves the shared cell empty: forcing it again re-runs
    // the engine, which panics again, rather than yielding a schedule.
    let runs = Runs::new(periodic, &planted[0].0);
    for _ in 0..2 {
        let forced = catch_unwind(AssertUnwindSafe(|| runs.get(Run::Dvq).placements().len()));
        assert!(forced.is_err(), "an emptied cell yielded a schedule");
    }
}
