//! Pinned outputs of every DVQ event-loop driver.
//!
//! The offline simulator (`simulate_dvq`), the online schedulers
//! (`OnlineDvq`, `OnlineSfq`) and the runtime's `DispatchCore` all play
//! the DVQ model forward. These digests pin what each of them decides and
//! emits, so a change to the loop they run on may only make it faster or
//! smaller, never different:
//!
//! * `simulate_dvq_observed` placements and the full recorded
//!   `SchedEvent` stream under PD², EPDF, PD, PF and `ComparatorOnly(&Pd2)`,
//!   on the first 2 000 default-`GenConfig` fuzz seeds with their own
//!   costs, and on `common::random_system` GIS and light systems with
//!   on-grid, `1 − 1/p` off-grid and mid-run-migrating costs;
//! * `OnlineDvq::run_until_observed` with a horizon cut, then run to idle,
//!   and `OnlineSfq::tick_observed`, assignments and streams;
//! * a one-thread `DispatchCore` drive's `into_parts()` in both modes.

mod common;

use std::fmt::Write as _;

use pfair::conformance::{generate_case, generate_runtime_case, Case, GenConfig, RuntimeCase};
use pfair::obs::RecordingObserver;
use pfair::prelude::*;
use pfair::runtime::Status;
use proptest::fnv1a;

use common::{push_digest, render_events, render_placements};

/// The orders every offline run is repeated under: three keyed orders,
/// one comparator-only order and a keyed order forced onto the
/// comparator ready set.
fn orders() -> [&'static dyn PriorityOrder; 5] {
    static ONLY: ComparatorOnly<'static> = ComparatorOnly(&Pd2);
    [&Pd2, &Epdf, &Pd, &Pf, &ONLY]
}

/// Renders `simulate_dvq_observed`'s placements and stream on `sys`.
fn offline_run(
    out: &mut String,
    sys: &TaskSystem,
    m: u32,
    order: &dyn PriorityOrder,
    cost: &mut dyn CostModel,
) {
    let mut rec = RecordingObserver::new();
    let sched = simulate_dvq_observed(sys, m, order, cost, &mut rec);
    let mut run = String::new();
    render_placements(&mut run, &sched);
    render_events(&mut run, rec.events());
    push_digest(out, &run);
}

/// Hints denominator 2 but draws 1/3 on the `trip`-th cost, so a tick
/// run leaves the tick tier mid-run.
struct WrongHint {
    draws: usize,
    trip: usize,
}

impl CostModel for WrongHint {
    fn cost(&mut self, _sys: &TaskSystem, _st: SubtaskRef) -> Rat {
        self.draws += 1;
        if self.draws == self.trip {
            Rat::new(1, 3)
        } else {
            Rat::new(1, 2)
        }
    }

    fn denominator_hint(&self) -> Option<i64> {
        Some(2)
    }
}

#[test]
fn offline_dvq_on_fuzz_cases_is_pinned() {
    let mut out = String::new();
    for seed in 0..2_000u64 {
        let case = Case::build(generate_case(&GenConfig::default(), seed)).expect("case builds");
        for order in orders() {
            offline_run(
                &mut out,
                &case.sys,
                case.spec.m,
                order,
                &mut case.cost_model(),
            );
        }
    }
    assert_eq!(format!("{:016x}", fnv1a(&out)), "c7dad18f7f44dbfe");
}

#[test]
fn offline_dvq_on_random_systems_is_pinned() {
    let mut out = String::new();
    for seed in 0..12u64 {
        let m = 2 + (seed % 3) as u32;
        for (light, gis) in [(false, true), (true, false), (true, true)] {
            let sys = common::random_system(seed, m, light, gis, 12);
            for order in orders() {
                offline_run(&mut out, &sys, m, order, &mut *common::cost_model(3, seed));
                offline_run(&mut out, &sys, m, order, &mut common::OffGrid(false));
                let trip = 1 + (seed as usize * 5) % 23;
                offline_run(&mut out, &sys, m, order, &mut WrongHint { draws: 0, trip });
            }
        }
    }
    assert_eq!(format!("{:016x}", fnv1a(&out)), "c2836e8ec7d4e432");
}

/// Renders an online dispatch log.
fn render_log(run: &mut String, log: &[OnlineAssignment]) {
    for a in log {
        write!(
            run,
            "{}_{}:{}:{}:{}:{};",
            a.task.0, a.index, a.proc, a.start, a.cost, a.deadline
        )
        .unwrap();
    }
}

/// The online cost sources: on the tick grid, and off it from the
/// `trip`-th draw on.
fn online_cost(seed: u64, off_grid: bool) -> impl FnMut(TaskId, u64) -> Rat {
    let mut draws = 0u64;
    move |task, index| {
        draws += 1;
        if off_grid && draws >= 3 + seed % 5 {
            Rat::ONE - Rat::new(1, common::PRIMES[(draws % 3) as usize])
        } else {
            quantum_cost(seed, JitterRegime::Adversarial, task, index)
        }
    }
}

/// `OnlineDvq` on `case`: submissions, a run cut at a mid-run horizon,
/// then the rest to idle.
fn online_dvq_run(out: &mut String, case: &RuntimeCase, m: u32, seed: u64, off_grid: bool) {
    let mut rec = RecordingObserver::new();
    let mut s = OnlineDvq::new(m);
    for t in case.sys.tasks() {
        s.add_task(t.weight);
    }
    for &(t, at) in &case.jobs {
        s.submit_job_observed(t, at, &mut rec).expect("valid plan");
    }
    let mut cost = online_cost(seed, off_grid);
    let horizon = Rat::new(5 + 2 * (seed as i64 % 4), 2);
    let mut log = s.run_until_observed(horizon, &mut cost, &mut rec);
    let now = s.now();
    log.extend(s.run_until_idle_observed(&mut cost, &mut rec));
    let mut run = format!("{now}#");
    render_log(&mut run, &log);
    render_events(&mut run, rec.events());
    push_digest(out, &run);
}

/// `OnlineSfq` on `case`, ticked until idle.
fn online_sfq_run(out: &mut String, case: &RuntimeCase, m: u32) {
    let mut rec = RecordingObserver::new();
    let mut s = OnlineSfq::new(m);
    for t in case.sys.tasks() {
        s.add_task(t.weight);
    }
    for &(t, at) in &case.jobs {
        s.submit_job_observed(t, at, &mut rec).expect("valid plan");
    }
    let mut run = String::new();
    while !s.is_idle() {
        let slot = s.next_slot();
        for a in s.tick_observed(&mut rec) {
            write!(
                run,
                "{slot}:{}_{}:{}:{};",
                a.task.0, a.index, a.proc, a.deadline
            )
            .unwrap();
        }
    }
    render_events(&mut run, rec.events());
    push_digest(out, &run);
}

#[test]
fn online_schedulers_are_pinned() {
    let (mut dvq, mut sfq) = (String::new(), String::new());
    for seed in 0..60u64 {
        let m = 2 + (seed % 3) as u32;
        let case = generate_runtime_case(seed, m);
        online_dvq_run(&mut dvq, &case, m, seed, false);
        online_dvq_run(&mut dvq, &case, m, seed, true);
        online_sfq_run(&mut sfq, &case, m);
    }
    let got = [&dvq, &sfq].map(|s| format!("{:016x}", fnv1a(s)));
    assert_eq!(
        got,
        ["4bff7c26e95524aa", "1679b66377617d8f"],
        "[OnlineDvq, OnlineSfq]"
    );
}

/// Drives a `DispatchCore` on one thread: whenever it waits, the
/// earliest-completing quantum in flight reports done at once.
fn drive_core(out: &mut String, case: &RuntimeCase, m: u32, seed: u64, mode: Mode) {
    let mut core = DispatchCore::new(
        case.sys.clone(),
        m,
        seed,
        JitterRegime::Adversarial,
        mode,
        FaultPlan::None,
    );
    for &(task, at) in &case.jobs {
        core.submit(task, at);
    }
    core.begin();
    let mut in_flight: Vec<Option<Time>> = vec![None; m as usize];
    loop {
        let status = core.advance();
        for a in core.take_assignments() {
            in_flight[a.proc as usize] = Some(a.start + a.cost);
        }
        if status == Status::Done {
            break;
        }
        let (proc, _) = in_flight
            .iter()
            .enumerate()
            .filter_map(|(p, c)| c.map(|c| (p, c)))
            .min_by_key(|&(p, c)| (c, p))
            .expect("a waiting core has a quantum in flight");
        in_flight[proc] = None;
        let proc = u32::try_from(proc).expect("proc fits u32");
        match mode {
            Mode::Deterministic => core.mark_done(proc),
            Mode::FreeRunning => core.complete_unordered(proc),
        }
    }
    let (log, events) = core.into_parts();
    let mut run = String::new();
    render_log(&mut run, &log);
    render_events(&mut run, &events);
    push_digest(out, &run);
}

#[test]
fn dispatch_core_drives_are_pinned() {
    let (mut det, mut free) = (String::new(), String::new());
    for seed in 0..60u64 {
        let m = 2 + (seed % 3) as u32;
        let case = generate_runtime_case(seed, m);
        drive_core(&mut det, &case, m, seed, Mode::Deterministic);
        drive_core(&mut free, &case, m, seed, Mode::FreeRunning);
    }
    let got = [&det, &free].map(|s| format!("{:016x}", fnv1a(s)));
    assert_eq!(
        got,
        ["d1f468b1c047520d", "11a91d1f0e102687"],
        "[deterministic, free-running]"
    );
}
