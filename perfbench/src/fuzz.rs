//! `fuzz-campaign`: `run_campaign` on 2 threads with shrinking on, over
//! 200-seed batches of the default `GenConfig` — what CI and `pfairsim
//! fuzz` run. Batch `b` checks seeds `base + 200·b …`, `base = seed · 10⁶`.

use std::time::{Duration, Instant};

use pfair::conformance::{
    bank, check_one, generate_case, mutants, run_campaign, shrink, CampaignConfig, CampaignOutcome,
    Case, GenConfig, REFERENCE,
};

use crate::stats::{median, ratio, setup_sample, Digest, Metric};
use crate::trace::Tracer;
use crate::Outcome;

/// Seeds per campaign call (one operation).
const BATCH: usize = 200;
/// Campaign worker threads.
const THREADS: usize = 2;
/// The planted mutant whose violation the traced run shrinks: a clean
/// campaign never shrinks, so shrink cost is measured where it is paid.
const SHRINK_MUTANT: &str = "dvq-eager-successor";

/// The one violation recorded as a known defect rather than counted
/// against `correct`: Boundary-Fair panics with an over-committed interval
/// on some feasible periodic systems truncated at the horizon (first seen
/// at seed 102010797, shrunk to m = 3, weights 1/9 ×3, 1/1, 1/2 ×2, 2/3,
/// horizon 6). It fires in roughly one case in 2·10⁵. The panic is matched
/// on its message alone: more than one invariant runs BF, and whichever
/// reaches the case first reports it. The violation still counts in
/// `failed`; any other violation makes the run incorrect.
fn known_defect(detail: &str) -> bool {
    detail.starts_with("engine panicked: BF: interval") && detail.contains("over-committed")
}

fn batch_base(seed: u64, b: u64) -> u64 {
    seed.wrapping_mul(1_000_000).wrapping_add(b * BATCH as u64)
}

fn campaign(base_seed: u64, threads: usize) -> CampaignConfig {
    CampaignConfig {
        trials: BATCH,
        base_seed,
        threads,
        gen: GenConfig::default(),
        time_limit: None,
        shrink: true,
        stop_on_first: false,
    }
}

/// Batches whose outcomes make up the printed digest (every run checks
/// at least these).
const DIGEST_BATCHES: u64 = 3;

fn add_outcome(d: &mut Digest, o: &CampaignOutcome) {
    d.add(&format!("{};", o.trials_run));
    for v in &o.violations {
        d.add(&format!("{} {} {:?};", v.seed, v.invariant, v.shrunk));
    }
}

/// The inputs the campaign's workers derive from a batch: each seed's
/// generated spec, built and feasibility-checked.
fn build_batch(base: u64) -> Vec<Case> {
    (base..base + BATCH as u64)
        .filter_map(|s| Case::build(generate_case(&GenConfig::default(), s)).ok())
        .filter(Case::is_feasible)
        .collect()
}

/// Batches built per `setup_s` sample, taken after each operation: the
/// operation's own batch and the next, so that a sample (~5 ms) is long
/// enough to time steadily and the median covers every batch of the run.
const SETUP_BLOCK: u32 = 2;

/// Counts a campaign call into `out` and `known` (its known-defect
/// violations) and reports its violations.
fn tally(o: &CampaignOutcome, out: &mut Outcome, known: &mut u64) {
    out.attempted += o.trials_run as u64;
    out.failed += o.violations.len() as u64;
    out.correct &= o.trials_run == BATCH;
    for v in &o.violations {
        count_violation(&v.detail, out, known);
        println!(
            "fuzz-campaign: seed {} violates {}: {}",
            v.seed, v.invariant, v.detail
        );
    }
}

fn count_violation(detail: &str, out: &mut Outcome, known: &mut u64) {
    if known_defect(detail) {
        *known += 1;
    } else {
        out.correct = false;
    }
}

/// Applies the known-defect budget to a finished run: `known`
/// known-defect violations leave it correct only up to 3, plus one per
/// 10⁴ attempted cases — about twenty times the measured rate, so a change
/// that made BF panic often fails the run.
fn close_budget(out: &mut Outcome, known: u64) {
    let within = known <= 3 + out.attempted / 10_000;
    println!(
        "fuzz-campaign: {known} known-defect violations in {} cases ({})",
        out.attempted,
        if within {
            "within budget"
        } else {
            "over budget"
        }
    );
    out.correct &= within;
}

/// The untraced run: end-to-end metrics.
pub fn measure(seed: u64, budget: Duration) -> Outcome {
    let mut setups = Vec::new();
    let mut out = Outcome {
        correct: true,
        ..Outcome::default()
    };
    // Warm-up call on a seed range of its own, timings discarded.
    let _ = run_campaign(&campaign(batch_base(seed, 999), THREADS), &REFERENCE);
    let mut known = 0;
    let mut times = Vec::new();
    let mut digest = Digest::new();
    let mut spent = 0.0;
    let start = Instant::now();
    let mut b = 0;
    while b < DIGEST_BATCHES || start.elapsed() < budget {
        let cfg = campaign(batch_base(seed, b), THREADS);
        let t = Instant::now();
        let o = run_campaign(&cfg, &REFERENCE);
        let dt = t.elapsed().as_secs_f64();
        spent += dt;
        times.push(dt);
        tally(&o, &mut out, &mut known);
        if b < DIGEST_BATCHES {
            add_outcome(&mut digest, &o);
        }
        if b + 1 == DIGEST_BATCHES {
            println!(
                "digest fuzz-campaign batches 0-{b}: outcome={}",
                digest.hex()
            );
        }
        setups.push(setup_sample(SETUP_BLOCK, |i| {
            build_batch(batch_base(seed, b + u64::from(i)))
        }));
        b += 1;
    }
    close_budget(&mut out, known);
    let cases_per_s = out.attempted as f64 / spent;
    println!("fuzz-campaign: {b} batches of {BATCH}; fuzz_cases_per_s {cases_per_s}");
    out.metrics = vec![
        Metric::new("setup_s", median(&setups), "s"),
        Metric::new("op_s", median(&times), "s"),
        Metric::new("throughput_per_s", cases_per_s, "1/s"),
    ];
    out
}

/// The traced run: the campaign's per-seed work — generation, case
/// build, each of the 15 bank invariants through `check_one` — in a
/// single-threaded loop over each batch's seeds, one span per call, plus
/// one shrink of a planted mutant's violation.
pub fn breakdown(seed: u64, budget: Duration, tr: &mut Tracer) -> Outcome {
    let n_batch = tr.name("fuzz.batch");
    let n_gen = tr.name("conformance.gen");
    let n_build = tr.name("taskmodel.case_build");
    let n_shrink = tr.name("conformance.shrink");
    let invs: Vec<(&'static str, _)> = bank()
        .iter()
        .map(|inv| {
            (
                inv.name(),
                tr.name(&format!("conformance.inv.{}", inv.name())),
            )
        })
        .collect();

    let mut out = Outcome {
        correct: true,
        ..Outcome::default()
    };
    let gen = GenConfig::default();
    let mut known = 0;
    let mut subtasks = 0usize;
    let mut cases = 0usize;
    let mut untraced_serial = Vec::new();
    let mut campaign_wall = Vec::new();
    let start = Instant::now();
    let mut b = 0;
    while b < 1 || start.elapsed() < budget {
        let base = batch_base(seed, b);
        tr.enter(n_batch);
        for s in base..base + BATCH as u64 {
            let spec = tr.span(n_gen, || generate_case(&gen, s));
            let built = tr.span(n_build, || Case::build(spec).ok().filter(Case::is_feasible));
            out.attempted += 1;
            let Some(case) = built else {
                println!("fuzz-campaign: seed {s} does not build a feasible case");
                out.failed += 1;
                out.correct = false;
                continue;
            };
            if b == 0 {
                subtasks += case.sys.num_subtasks();
                cases += 1;
            }
            // Like `check_case`, a seed's check stops at its first failure.
            for &(name, n) in &invs {
                if let Err(f) = tr.span(n, || check_one(name, &case, &REFERENCE)) {
                    println!(
                        "fuzz-campaign: seed {s} violates {}: {}",
                        f.invariant, f.detail
                    );
                    count_violation(&f.detail, &mut out, &mut known);
                    out.failed += 1;
                    break;
                }
            }
        }
        tr.exit();

        let t = Instant::now();
        let serial = run_campaign(&campaign(base, 1), &REFERENCE);
        untraced_serial.push(t.elapsed().as_secs_f64());
        let t = Instant::now();
        let threaded = run_campaign(&campaign(base, THREADS), &REFERENCE);
        campaign_wall.push(t.elapsed().as_secs_f64());
        tally(&serial, &mut out, &mut known);
        tally(&threaded, &mut out, &mut known);
        b += 1;
    }
    close_budget(&mut out, known);

    // Shrink cost, where it is paid: the first violation a planted
    // mutant produces on this workload's seeds.
    let mutant = mutants()
        .into_iter()
        .find(|m| m.name == SHRINK_MUTANT)
        .expect("the mutant roster names the shrink mutant");
    let mut hunt = CampaignConfig {
        shrink: false,
        stop_on_first: true,
        ..campaign(batch_base(seed, 0), 1)
    };
    hunt.trials = 5 * BATCH;
    let found = run_campaign(&hunt, &mutant.engines);
    out.attempted += 1;
    let shrink_s = match found.violations.first() {
        Some(v) => {
            for _ in 0..5 {
                let shrunk = tr.span(n_shrink, || {
                    shrink(&v.original, &v.invariant, &mutant.engines)
                });
                if shrunk.tasks.len() > v.original.tasks.len() {
                    out.failed += 1;
                    out.correct = false;
                }
            }
            median(&tr.durations(n_shrink))
        }
        None => {
            println!(
                "fuzz-campaign: mutant {SHRINK_MUTANT} survived {} seeds",
                hunt.trials
            );
            out.failed += 1;
            out.correct = false;
            0.0
        }
    };

    let per_batch = |n| median(&tr.child_sums(n_batch, n));
    let mut rows = vec![
        Metric::new("conformance.gen_s", per_batch(n_gen), "s"),
        Metric::new("taskmodel.case_build_s", per_batch(n_build), "s"),
        Metric::new("conformance.shrink_s", shrink_s, "s"),
        Metric::new(
            "fuzz.subtasks_per_case",
            ratio(subtasks as f64, cases as f64),
            "count",
        ),
    ];
    let mut row_sum = per_batch(n_gen) + per_batch(n_build);
    for &(name, n) in &invs {
        row_sum += per_batch(n);
        rows.push(Metric::new(
            &format!("conformance.inv.{name}_s"),
            per_batch(n),
            "s",
        ));
    }
    let traced = median(&tr.durations(n_batch));
    let serial = median(&untraced_serial);
    let wall = median(&campaign_wall);
    println!(
        "fuzz-campaign trace: {b} batches; rows sum {row_sum} s per batch, serial campaign \
         {serial} s, {THREADS}-thread campaign {wall} s"
    );
    rows.extend([
        Metric::new("trace.fuzz.batch_s", traced, "s"),
        Metric::new("trace.fuzz.overhead_frac", traced / serial - 1.0, "ratio"),
        Metric::new("fuzz.thread_speedup", serial / wall, "ratio"),
    ]);
    out.metrics = rows;
    out
}
