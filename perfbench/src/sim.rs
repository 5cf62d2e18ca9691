//! `sim-run-1k`: the `pfairsim run` path on the perf ratchet's n = 1000
//! periodic system (8 500 quanta, `releasegen` seed 46). One operation
//! runs PD²-DVQ and PD²-SFQ under `UniformCost(1/2)` δ-yields, replays the
//! DVQ run's jobs and costs through `OnlineDvq`, and builds the
//! `schedule_report` of the DVQ schedule. `--seed` picks the cost draws:
//! operation `k` uses cost seed `mix(seed, k)`.

use std::hint::black_box;
use std::time::{Duration, Instant};

use pfair::analysis::{response_stats, ScheduleReport};
use pfair::prelude::*;

use crate::stats::{median, mix, ratio, setup_sample, Digest, Metric};
use crate::trace::Tracer;
use crate::Outcome;

/// Set-up calls timed together as one `setup_s` sample, taken after each
/// engine repetition: one call (~1 ms) is too short to time steadily.
const SETUP_BLOCK: u32 = 5;
/// Extra timed runs of each engine after every operation.
const ENGINE_REPS: usize = 9;

/// The ratchet system and what the online scheduler needs to replay it.
struct Inputs {
    sys: TaskSystem,
    m: u32,
    /// `(task, release)` of every job, in release order.
    jobs: Vec<(TaskId, i64)>,
}

/// The perf ratchet's weights (`pfairsim perf`): the n = 1000 cycle, and
/// the processor count its utilization needs.
fn ratchet_weights() -> (Vec<Weight>, u32) {
    const CYCLE: [(i64, i64); 10] = [
        (1, 2),
        (1, 3),
        (2, 5),
        (3, 8),
        (1, 6),
        (5, 12),
        (1, 4),
        (7, 24),
        (2, 3),
        (1, 8),
    ];
    let weights: Vec<Weight> = (0..1000)
        .map(|i| Weight::new(CYCLE[i % 10].0, CYCLE[i % 10].1))
        .collect();
    let util: Rat = weights.iter().map(|w| w.as_rat()).sum();
    let m = u32::try_from(util.ceil()).expect("utilization fits u32");
    (weights, m)
}

/// The ratchet's periodic release, seed 46 — bit for bit the system
/// `pfairsim perf` measures.
fn release(weights: &[Weight]) -> TaskSystem {
    pfair::workload::releasegen::generate(
        weights,
        &pfair::workload::ReleaseConfig::periodic(24),
        46,
    )
}

fn setup() -> Inputs {
    let (weights, m) = ratchet_weights();
    let sys = release(&weights);
    let mut jobs = Vec::new();
    for t in sys.tasks() {
        let e = usize::try_from(t.weight.e()).expect("e > 0");
        for j in 0..sys.task_subtasks(t.id).len() / e {
            jobs.push((
                t.id,
                i64::try_from(j).expect("job count fits i64") * t.weight.p(),
            ));
        }
    }
    jobs.sort_by_key(|&(t, at)| (at, t));
    Inputs { sys, m, jobs }
}

fn cost_model(seed: u64) -> UniformCost {
    UniformCost::new(Rat::new(1, 2), seed)
}

/// Per-task actual costs of the DVQ run, indexed by `index − 1`: the
/// online scheduler is fed the very costs the DVQ simulation drew.
fn drawn_costs(inp: &Inputs, dvq: &Schedule) -> Vec<Vec<Rat>> {
    let mut costs: Vec<Vec<Rat>> = inp
        .sys
        .tasks()
        .iter()
        .map(|t| vec![Rat::ONE; inp.sys.task_subtasks(t.id).len()])
        .collect();
    for pl in dvq.placements() {
        let id = inp.sys.subtask(pl.st).id;
        let i = usize::try_from(id.index - 1).expect("index fits usize");
        costs[id.task.0 as usize][i] = pl.cost;
    }
    costs
}

fn online_submit(inp: &Inputs) -> OnlineDvq {
    let mut online = OnlineDvq::new(inp.m);
    for t in inp.sys.tasks() {
        online.add_task(t.weight);
    }
    for &(task, at) in &inp.jobs {
        online
            .submit_job(task, at)
            .expect("the periodic plan respects sporadic separation");
    }
    online
}

fn online_run(online: &mut OnlineDvq, costs: &[Vec<Rat>]) -> Vec<OnlineAssignment> {
    online.run_until_idle(&mut |task, index| {
        costs[task.0 as usize][usize::try_from(index - 1).expect("index fits usize")]
    })
}

/// Everything one operation produced.
struct OpOut {
    dvq: Schedule,
    sfq: Schedule,
    online: Vec<OnlineAssignment>,
    report: ScheduleReport,
}

/// Wall time of each stage of one untraced operation.
struct OpTimes {
    dvq: f64,
    sfq: f64,
    online: f64,
    report: f64,
}

impl OpTimes {
    fn total(&self) -> f64 {
        self.dvq + self.sfq + self.online + self.report
    }
}

fn timed<R>(f: impl FnOnce() -> R) -> (R, f64) {
    let t = Instant::now();
    let r = black_box(f());
    (r, t.elapsed().as_secs_f64())
}

/// One untraced operation; preparing the online scheduler's cost table
/// sits outside the timed stages.
fn op(inp: &Inputs, cost_seed: u64) -> (OpOut, OpTimes) {
    let (dvq, t_dvq) = timed(|| simulate_dvq(&inp.sys, inp.m, &Pd2, &mut cost_model(cost_seed)));
    let (sfq, t_sfq) = timed(|| simulate_sfq(&inp.sys, inp.m, &Pd2, &mut cost_model(cost_seed)));
    let costs = drawn_costs(inp, &dvq);
    let (online, t_online) = timed(|| online_run(&mut online_submit(inp), &costs));
    let (report, t_report) = timed(|| schedule_report(&inp.sys, &dvq, &Pd2));
    (
        OpOut {
            dvq,
            sfq,
            online,
            report,
        },
        OpTimes {
            dvq: t_dvq,
            sfq: t_sfq,
            online: t_online,
            report: t_report,
        },
    )
}

/// Checks one operation's outputs: structural validity of both
/// simulations, Theorem 3 (tardiness ≤ 1) for the DVQ and online runs,
/// zero tardiness for PD²-SFQ, online = offline DVQ placement for
/// placement, and a report that agrees with the direct analyses.
fn check(inp: &Inputs, out: &OpOut) -> Result<(), String> {
    let sys = &inp.sys;
    for (name, sched) in [("dvq", &out.dvq), ("sfq", &out.sfq)] {
        if let Some(err) = check_structural(sys, sched).first() {
            return Err(format!("{name} schedule invalid: {err}"));
        }
    }
    let dvq_tard = tardiness_stats(sys, &out.dvq).max;
    if dvq_tard > Rat::ONE {
        return Err(format!("DVQ tardiness {dvq_tard} > 1 (Theorem 3)"));
    }
    let sfq_tard = tardiness_stats(sys, &out.sfq).max;
    if sfq_tard != Rat::ZERO {
        return Err(format!("PD²-SFQ tardiness {sfq_tard} on a feasible system"));
    }
    if out.online.len() != sys.num_subtasks() {
        return Err(format!(
            "online made {} assignments for {} subtasks",
            out.online.len(),
            sys.num_subtasks()
        ));
    }
    for a in &out.online {
        let st = sys
            .find(SubtaskId {
                task: a.task,
                index: a.index,
            })
            .ok_or_else(|| format!("online scheduled unknown T{}_{}", a.task.0, a.index))?;
        let pl = out.dvq.placement(st);
        if (pl.start, pl.proc, pl.cost) != (a.start, a.proc, a.cost) {
            return Err(format!(
                "online T{}_{} at ({}, P{}) vs offline DVQ ({}, P{})",
                a.task.0, a.index, a.start, a.proc, pl.start, pl.proc
            ));
        }
        if a.start + a.cost - Rat::int(a.deadline) > Rat::ONE {
            return Err(format!(
                "online T{}_{} tardy by more than 1",
                a.task.0, a.index
            ));
        }
    }
    let r = &out.report;
    if r.structural_violations != 0 || !r.within_dvq_bound() || r.tardiness.max != dvq_tard {
        return Err(format!("report disagrees with the direct checks:\n{r}"));
    }
    Ok(())
}

fn digests(out: &OpOut) -> [(&'static str, String); 4] {
    let sched_digest = |s: &Schedule| {
        let mut d = Digest::new();
        for pl in s.placements() {
            d.add(&format!(
                "{} {} {} {};",
                pl.st.0, pl.proc, pl.start, pl.cost
            ));
        }
        d.hex()
    };
    let mut online = Digest::new();
    for a in &out.online {
        online.add(&format!("{} {} {} {};", a.task.0, a.index, a.proc, a.start));
    }
    let mut report = Digest::new();
    report.add(&out.report.to_string());
    [
        ("dvq", sched_digest(&out.dvq)),
        ("sfq", sched_digest(&out.sfq)),
        ("online", online.hex()),
        ("report", report.hex()),
    ]
}

/// Counts one operation's check into `out`, printing the run's first
/// failure.
fn tally(inp: &Inputs, res: &OpOut, out: &mut Outcome) {
    out.attempted += 1;
    if let Err(e) = check(inp, res) {
        if out.failed == 0 {
            println!("sim-run-1k: an operation failed its check: {e}");
        }
        out.failed += 1;
        out.correct = false;
    }
}

fn print_digests(res: &OpOut) {
    let line: Vec<String> = digests(res)
        .iter()
        .map(|(n, h)| format!("{n}={h}"))
        .collect();
    println!("digest sim-run-1k op0: {}", line.join(" "));
    println!("report sim-run-1k op0:\n{}", res.report);
}

/// The untraced run: end-to-end metrics.
pub fn measure(seed: u64, budget: Duration) -> Outcome {
    let inp = setup();
    let mut setups = Vec::new();
    let quanta = inp.sys.num_subtasks() as f64;
    let mut out = Outcome {
        correct: true,
        ..Outcome::default()
    };
    let mut times: Vec<OpTimes> = Vec::new();
    // Engine samples: each operation's own, plus ENGINE_REPS more on its
    // inputs, so the millisecond-scale engine medians rest on many
    // samples while the report keeps one per operation.
    let (mut dvq, mut sfq, mut online) = (Vec::new(), Vec::new(), Vec::new());
    let start = Instant::now();
    let mut k = 0;
    while k < 3 || start.elapsed() < budget {
        let cs = mix(seed, k);
        let (res, t) = op(&inp, cs);
        tally(&inp, &res, &mut out);
        if k == 0 {
            print_digests(&res);
        }
        dvq.push(t.dvq);
        sfq.push(t.sfq);
        online.push(t.online);
        times.push(t);
        let costs = drawn_costs(&inp, &res.dvq);
        for _ in 0..ENGINE_REPS {
            dvq.push(timed(|| simulate_dvq(&inp.sys, inp.m, &Pd2, &mut cost_model(cs))).1);
            sfq.push(timed(|| simulate_sfq(&inp.sys, inp.m, &Pd2, &mut cost_model(cs))).1);
            online.push(timed(|| online_run(&mut online_submit(&inp), &costs)).1);
            setups.push(setup_sample(SETUP_BLOCK, |_| setup()));
        }
        k += 1;
    }
    let (dvq_s, sfq_s, online_s) = (median(&dvq), median(&sfq), median(&online));
    let report_s = median(&times.iter().map(|t| t.report).collect::<Vec<_>>());
    println!(
        "sim-run-1k: {} ops; dvq_quanta_per_s {} sfq_quanta_per_s {} online_quanta_per_s {} \
         report_s {}",
        times.len(),
        quanta / dvq_s,
        quanta / sfq_s,
        quanta / online_s,
        report_s
    );
    out.metrics = vec![
        Metric::new("setup_s", median(&setups), "s"),
        Metric::new(
            "op_s",
            median(&times.iter().map(OpTimes::total).collect::<Vec<_>>()),
            "s",
        ),
        Metric::new("throughput_per_s", quanta / dvq_s, "1/s"),
    ];
    out
}

/// Counts every event an engine emits: the exact events-per-quantum
/// figure for the DVQ event loop.
#[derive(Debug, Default)]
struct CountingObserver(u64);

impl Observer for CountingObserver {
    fn on_event(&mut self, _ev: &SchedEvent) {
        self.0 += 1;
    }
}

/// The seven calls `schedule_report` makes, as span names.
const ANALYSES: [&str; 7] = [
    "analysis.detect_blocking",
    "analysis.check_structural",
    "analysis.check_window_containment",
    "analysis.tardiness_stats",
    "analysis.waste_stats",
    "analysis.response_stats",
    "analysis.migration_stats",
];

/// The traced run: one span per call into `workload`, `core`, `sim`,
/// `obs`, `online` and `analysis`, with an untraced operation between
/// traced ones to measure the tracing overhead.
pub fn breakdown(seed: u64, budget: Duration, tr: &mut Tracer) -> Outcome {
    let n_op = tr.name("sim.op");
    let n_gen = tr.name("workload.releasegen");
    let n_keys = tr.name("core.keycache_build");
    let n_dvq = tr.name("sim.dvq");
    let n_sfq = tr.name("sim.sfq");
    let n_exact = tr.name("sim.dvq_exact");
    let n_noop = tr.name("obs.dvq_noop");
    let n_metrics = tr.name("obs.dvq_metrics");
    let n_submit = tr.name("online.submit");
    let n_run = tr.name("online.run");
    let n_costs = tr.name("bench.cost_table");
    let n_an: Vec<_> = ANALYSES.iter().map(|a| tr.name(a)).collect();

    let inp = setup();
    let (weights, _) = ratchet_weights();
    let (sys, m) = (&inp.sys, inp.m);
    let quanta = sys.num_subtasks() as f64;
    let mut out = Outcome {
        correct: true,
        ..Outcome::default()
    };
    let mut untraced: Vec<OpTimes> = Vec::new();
    let start = Instant::now();
    let mut k = 0;
    while k < 2 || start.elapsed() < budget {
        let cs = mix(seed, k);
        tr.span(n_gen, || black_box(release(&weights)));
        tr.span(n_keys, || black_box(KeyCache::<Pd2Key>::build(sys)));
        tr.span(n_exact, || {
            black_box(simulate_dvq(
                sys,
                m,
                &Pd2,
                &mut ExactOnly(&mut cost_model(cs)),
            ))
        });
        tr.span(n_noop, || {
            black_box(simulate_dvq_observed(
                sys,
                m,
                &Pd2,
                &mut cost_model(cs),
                &mut NoopObserver,
            ))
        });
        tr.span(n_metrics, || {
            let mut obs = MetricsObserver::new(m);
            black_box(simulate_dvq_observed(
                sys,
                m,
                &Pd2,
                &mut cost_model(cs),
                &mut obs,
            ))
        });

        tr.enter(n_op);
        let dvq = tr.span(n_dvq, || simulate_dvq(sys, m, &Pd2, &mut cost_model(cs)));
        let sfq = tr.span(n_sfq, || simulate_sfq(sys, m, &Pd2, &mut cost_model(cs)));
        let costs = tr.span(n_costs, || drawn_costs(&inp, &dvq));
        let mut online = tr.span(n_submit, || online_submit(&inp));
        let log = tr.span(n_run, || online_run(&mut online, &costs));
        let blocking = tr.span(n_an[0], || detect_blocking(sys, &dvq, &Pd2));
        let structural = tr.span(n_an[1], || check_structural(sys, &dvq));
        let window = tr.span(n_an[2], || check_window_containment(sys, &dvq));
        let tardiness = tr.span(n_an[3], || tardiness_stats(sys, &dvq));
        let waste = tr.span(n_an[4], || waste_stats(&dvq));
        let response = tr.span(n_an[5], || response_stats(sys, &dvq));
        let migrations = tr.span(n_an[6], || migration_stats(sys, &dvq));
        tr.exit();
        let report = ScheduleReport {
            tardiness,
            waste,
            migrations,
            response,
            eligibility_blocking: blocking
                .iter()
                .filter(|e| e.kind == BlockingKind::Eligibility)
                .count(),
            predecessor_blocking: blocking
                .iter()
                .filter(|e| e.kind == BlockingKind::Predecessor)
                .count(),
            structural_violations: structural.len(),
            window_violations: window.len(),
        };
        let traced = OpOut {
            dvq,
            sfq,
            online: log,
            report,
        };
        tally(&inp, &traced, &mut out);
        let (res, t) = op(&inp, cs);
        tally(&inp, &res, &mut out);
        untraced.push(t);
        k += 1;
    }

    let mut counter = CountingObserver::default();
    let _ = simulate_dvq_observed(sys, m, &Pd2, &mut cost_model(mix(seed, 0)), &mut counter);

    let med = |n| median(&tr.durations(n));
    // The cost-table preparation is benchmark work, untimed in the
    // untraced operation: leave it out of the traced one too.
    let traced_ops: Vec<f64> = tr
        .durations(n_op)
        .iter()
        .zip(tr.child_sums(n_op, n_costs))
        .map(|(op, costs)| op - costs)
        .collect();
    let traced_op = median(&traced_ops);
    let untraced_op = median(&untraced.iter().map(OpTimes::total).collect::<Vec<_>>());
    let report_s = median(&untraced.iter().map(|t| t.report).collect::<Vec<_>>());
    let mut rows: Vec<Metric> = vec![
        Metric::new("workload.releasegen_s", med(n_gen), "s"),
        Metric::new("core.keycache_build_s", med(n_keys), "s"),
        Metric::new("sim.dvq_s", med(n_dvq), "s"),
        Metric::new("sim.sfq_s", med(n_sfq), "s"),
        Metric::new("sim.dvq_exact_s", med(n_exact), "s"),
        Metric::new(
            "obs.noop_overhead_frac",
            med(n_noop) / med(n_dvq) - 1.0,
            "ratio",
        ),
        Metric::new(
            "obs.metrics_overhead_frac",
            med(n_metrics) / med(n_dvq) - 1.0,
            "ratio",
        ),
        Metric::new(
            "sim.dvq.events_per_quantum",
            counter.0 as f64 / quanta,
            "count",
        ),
        Metric::new("online.submit_s", med(n_submit), "s"),
        Metric::new("online.run_s", med(n_run), "s"),
    ];
    let mut analysis_sum = 0.0;
    for (name, &n) in ANALYSES.iter().zip(&n_an) {
        analysis_sum += med(n);
        rows.push(Metric::new(&format!("{name}_s"), med(n), "s"));
    }
    let row_sum = med(n_dvq) + med(n_sfq) + med(n_submit) + med(n_run) + analysis_sum;
    rows.extend([
        Metric::new("sim.report_s", report_s, "s"),
        Metric::new(
            "sim.detect_blocking_share",
            med(n_an[0]) / analysis_sum,
            "ratio",
        ),
        Metric::new("trace.sim.op_s", traced_op, "s"),
        Metric::new(
            "trace.sim.overhead_frac",
            traced_op / untraced_op - 1.0,
            "ratio",
        ),
    ]);
    println!(
        "sim-run-1k trace: {k} traced + {k} untraced ops; rows sum {row_sum} s vs untraced \
         op {untraced_op} s ({} of it); analysis rows sum {analysis_sum} s vs untraced \
         report {report_s} s",
        ratio(row_sum, untraced_op)
    );
    out.metrics = rows;
    out
}
