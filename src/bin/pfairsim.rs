//! `pfairsim` — a command-line front end for the library.
//!
//! ```text
//! pfairsim --m 2 --model dvq --alg pd2 --cost 7/8 --horizon 12 1/6 1/6 1/6 1/2 1/2 1/2
//! pfairsim run --metrics --events trace.jsonl 1/6 1/6 1/6 1/2 1/2 1/2
//! pfairsim fuzz --trials 5000 --seed 1 --threads 4
//! ```
//!
//! Positional arguments are task weights (`e/p`); `run` names the default
//! mode explicitly. Options:
//!
//! * `--m <n>`        processors, at least 1 (default 2)
//! * `--model <x>`    `sfq` | `dvq` | `staggered` | `pdb` | `bf` | `flow` (default `sfq`)
//! * `--alg <x>`      `epdf` | `pd2` | `pf` | `pd` (default `pd2`; ignored for
//!   `pdb`, `bf` and `flow`, whose selection procedures are built in)
//! * `--cost <r>`     fixed actual cost in `(0, 1]` for every subtask, e.g. `7/8`
//!   (default 1)
//! * `--horizon <n>`  generate subtasks while `r < horizon` (default one hyperperiod-ish 24)
//! * `--res <n>`      Gantt cells per slot (default 4)
//! * `--json`         emit the trace bundle as JSON instead of text
//! * `--metrics`      attach the streaming observers and print their summary
//! * `--events <p>`   write the streamed event log to `p` as JSON Lines
//!
//! Exit code 0 on every run; scheduling outcomes are printed, not judged.
//! Bad arguments (an invalid weight, `--m 0`, a cost outside `(0, 1]`, an
//! unknown `--model`) exit 2 before anything runs.
//!
//! The `fuzz` subcommand runs a differential conformance campaign against
//! the reference engines (see `pfair::conformance`) and exits non-zero if
//! any invariant is violated:
//!
//! * `--trials <n>`     number of generated cases (default 1000)
//! * `--seconds <s>`    wall-clock budget; stops early when exceeded
//! * `--seed <s>`       base seed; trial `k` uses seed `s + k` (default 1)
//! * `--threads <t>`    worker threads (default: available parallelism)
//! * `--no-shrink`      report violations without minimizing them
//! * `--repro-out <p>`  on violation, also write the (shrunk) repro specs
//!   to `p` as a JSON array — what the CI smoke job uploads as an artifact
//!
//! The `serve-sim` subcommand runs the real multi-threaded runtime
//! (`pfair::runtime`): worker threads execute seeded jittered quanta,
//! dispatch rides a flat-combining delegation lock, and every run's
//! recorded event stream is checked against the conformance replay bank
//! before the process exits 0:
//!
//! * `--threads <n>`  worker threads = virtual processors (default 2)
//! * `--runs <k>`     generated workloads to execute (default 25)
//! * `--seed <s>`     base seed; run `k` uses seed `s + k` (default 1)
//! * `--regime <x>`   `none` | `mild` | `adversarial` jitter (default `mild`)
//! * `--mode <x>`     `free` (replay-proven) | `det` (bit-identical to
//!   `OnlineDvq`, additionally cross-checked here) (default `free`)
//! * `--spin <n>`     busy-work iterations per full quantum (default 10000)
//!
//! The `perf` subcommand is a wall-clock ratchet over the keyed DVQ hot
//! path (the bench suite's `dvq_keyed/1000` workload). `--update PATH`
//! writes `bench-baseline.json` for the current machine; `--check PATH`
//! exits 1 if ns/quantum regressed more than 15% over it. With
//! `--runtime` it ratchets the multi-threaded runtime's end-to-end
//! dispatch path instead (2 workers, free-running, separate
//! `bench-runtime-baseline.json`):
//!
//! ```text
//! cargo run --release --bin pfairsim -- perf --update bench-baseline.json
//! cargo run --release --bin pfairsim -- perf --quick --check bench-baseline.json
//! cargo run --release --bin pfairsim -- perf --runtime --quick --check bench-runtime-baseline.json
//! ```

use pfair::conformance::{
    check_runtime_run, generate_case, generate_runtime_case, run_campaign, CampaignConfig, Case,
    GenConfig, REFERENCE,
};
use pfair::core::Algorithm;
use pfair::prelude::*;

fn parse_rat(s: &str) -> Option<Rat> {
    s.parse().ok()
}

/// Boundary-Fair is defined only for synchronous periodic systems; a
/// pointed message beats the engine's assertion when the gate fails.
/// (Every system `pfairsim run` builds today is synchronous periodic, so
/// this is a guard against future release-model flags, not live paths.)
fn require_boundary_periodic(sys: &TaskSystem) {
    if !is_boundary_periodic(sys) {
        eprintln!(
            "--model bf needs a synchronous periodic system (subtasks 1..n, \
             no IS offsets, no early releases); use sfq/dvq/flow for GIS workloads"
        );
        std::process::exit(2);
    }
}

fn usage() -> ! {
    eprintln!(
        "usage: pfairsim [run] [--m N] [--model sfq|dvq|staggered|pdb|bf|flow] [--alg epdf|pd2|pf|pd]\n\
         \u{20}               [--cost R] [--horizon N] [--res N] [--json]\n\
         \u{20}               [--metrics] [--events PATH] WEIGHT [WEIGHT ...]\n\
         \u{20}      pfairsim fuzz [--trials N] [--seconds S] [--seed S] [--threads T] [--no-shrink]\n\
         \u{20}                    [--repro-out PATH]\n\
         \u{20}      pfairsim serve-sim [--threads N] [--runs K] [--seed S] [--regime none|mild|adversarial]\n\
         \u{20}                         [--mode free|det] [--spin N]\n\
         \u{20}      pfairsim perf [--runtime] (--check PATH | --update PATH) [--quick] [--plant-slowdown F]\n\
         example: pfairsim --m 2 --model dvq --cost 7/8 1/6 1/6 1/6 1/2 1/2 1/2"
    );
    std::process::exit(2)
}

/// Regression threshold: fail when the measured ns/quantum exceeds the
/// baseline by more than this fraction. Mirrors `lint-baseline.txt`'s
/// ratchet spirit: the baseline may be re-tightened any time with
/// `--update`, but CI never lets it silently regress.
const PERF_TOLERANCE: f64 = 0.15;

/// The bench the default ratchet measures; `--check` refuses a baseline
/// naming anything else (a stale or foreign artifact must not green-light
/// CI).
const PERF_BENCH: &str = "perf/dvq_keyed/1000";

/// The bench the `--runtime` ratchet measures: the multi-threaded
/// runtime's end-to-end dispatch path at 2 workers, free-running.
const PERF_RUNTIME_BENCH: &str = "perf/runtime_free/2t";

/// Reads and validates a `--check` baseline for `bench`. Exits 2 with a
/// pointed, panic-free message on a missing file, invalid JSON, a
/// baseline naming a different bench, or a missing/non-numeric
/// `ns_per_quantum` field.
fn read_baseline(path: &str, bench: &str) -> f64 {
    let regen =
        format!("regenerate with: cargo run --release --bin pfairsim -- perf --update {path}");
    let body = match std::fs::read_to_string(path) {
        Ok(b) => b,
        Err(e) => {
            eprintln!("cannot read baseline {path}: {e}\n{regen}");
            std::process::exit(2);
        }
    };
    let v = match serde_json::from_str::<serde_json::Value>(&body) {
        Ok(v) => v,
        Err(e) => {
            eprintln!("baseline {path} is not valid JSON: {e}\n{regen}");
            std::process::exit(2);
        }
    };
    match v.field("bench") {
        Ok(serde_json::Value::Str(name)) if name == bench => {}
        Ok(serde_json::Value::Str(name)) => {
            eprintln!(
                "baseline {path} is for bench {name:?}; this ratchet measures {bench:?}\n{regen}"
            );
            std::process::exit(2);
        }
        _ => {
            eprintln!("baseline {path} has no `bench` name\n{regen}");
            std::process::exit(2);
        }
    }
    #[allow(clippy::cast_precision_loss)]
    let num = match v.field("ns_per_quantum") {
        Ok(&serde_json::Value::Float(x)) => Some(x),
        Ok(&serde_json::Value::Int(n)) => Some(n as f64),
        _ => None,
    };
    num.unwrap_or_else(|| {
        eprintln!("baseline {path} has no numeric `ns_per_quantum` field\n{regen}");
        std::process::exit(2);
    })
}

/// The `perf` subcommand: a quick wall-clock ratchet over the hot keyed
/// DVQ path. `--update PATH` (re)writes the baseline for this machine;
/// `--check PATH` measures and exits 1 if ns/quantum regressed more than
/// 15% over it. `--quick` trims repetitions for CI; `--plant-slowdown F`
/// multiplies the measured time by `F` — a test hook that proves the
/// ratchet actually trips (see EXPERIMENTS.md). Exits 2 on bad args or
/// unreadable baselines.
fn perf(mut args: std::env::Args) -> ! {
    let mut check: Option<String> = None;
    let mut update: Option<String> = None;
    let mut quick = false;
    let mut runtime_path = false;
    let mut plant: f64 = 1.0;
    while let Some(a) = args.next() {
        match a.as_str() {
            "--check" => check = Some(args.next().unwrap_or_else(|| usage())),
            "--update" => update = Some(args.next().unwrap_or_else(|| usage())),
            "--quick" => quick = true,
            "--runtime" => runtime_path = true,
            "--plant-slowdown" => {
                plant = args
                    .next()
                    .and_then(|s| s.parse().ok())
                    .unwrap_or_else(|| usage());
            }
            "--help" | "-h" => usage(),
            _ => usage(),
        }
    }
    if check.is_none() && update.is_none() {
        usage();
    }
    let bench = if runtime_path {
        PERF_RUNTIME_BENCH
    } else {
        PERF_BENCH
    };

    // Read and validate the baseline BEFORE measuring: a missing, corrupt
    // or mismatched baseline should fail in milliseconds with a pointed
    // message, not after thirty timed repetitions.
    let baseline: Option<f64> = check.as_deref().map(|p| read_baseline(p, bench));

    // Each rep is only a few ms, so even `--quick` can afford a deep
    // min: noise on shared CI hosts easily exceeds the 15% tolerance
    // with too few samples.
    let (warmup, reps) = if quick { (2, 12) } else { (3, 30) };
    let (quanta, best) = if runtime_path {
        // End-to-end runtime dispatch: worker spawn, delegation-lock
        // combining, dispatch passes, join — over a fixed pool of seeded
        // 2-processor workloads. `spin = 0` keeps quanta near-instant so
        // the measurement is dominated by the machinery being ratcheted.
        let cases: Vec<_> = (0..16u64)
            .map(|s| (s, generate_runtime_case(s, 2)))
            .collect();
        let cfg_for = |seed: u64| {
            let mut cfg = RuntimeConfig::new(2);
            cfg.seed = seed;
            cfg.spin = 0;
            cfg
        };
        let quanta: u64 = cases.iter().map(|(_, c)| c.sys.num_subtasks() as u64).sum();
        for _ in 0..warmup {
            for (seed, case) in &cases {
                std::hint::black_box(execute(&case.sys, &case.jobs, &cfg_for(*seed)));
            }
        }
        let mut best = std::time::Duration::MAX;
        for _ in 0..reps {
            let t = std::time::Instant::now();
            for (seed, case) in &cases {
                std::hint::black_box(execute(&case.sys, &case.jobs, &cfg_for(*seed)));
            }
            best = best.min(t.elapsed());
        }
        (quanta, best)
    } else {
        // The bench suite's `keyed_vs_comparator/dvq_keyed/1000` case, bit
        // for bit: same system, same stochastic cost model.
        let (sys, m) = pfair::workload::cycle_system(1000);
        let quanta = sys.num_subtasks() as u64;
        for _ in 0..warmup {
            let mut cost = UniformCost::new(Rat::new(1, 2), 7);
            std::hint::black_box(simulate_dvq(&sys, m, &Pd2, &mut cost));
        }
        // Minimum over repetitions: the robust statistic on a noisy host —
        // every perturbation only ever adds time.
        let mut best = std::time::Duration::MAX;
        for _ in 0..reps {
            let mut cost = UniformCost::new(Rat::new(1, 2), 7);
            let t = std::time::Instant::now();
            std::hint::black_box(simulate_dvq(&sys, m, &Pd2, &mut cost));
            best = best.min(t.elapsed());
        }
        (quanta, best)
    };
    #[allow(clippy::cast_precision_loss)]
    let ns_per_quantum = best.as_nanos() as f64 / quanta as f64 * plant;
    println!(
        "perf: {} — {quanta} quanta in {best:?} (min of {reps}) \
         = {ns_per_quantum:.1} ns/quantum{}",
        bench.trim_start_matches("perf/"),
        if plant != 1.0 {
            format!(" [planted x{plant}]")
        } else {
            String::new()
        }
    );

    if let Some(path) = update {
        let body = format!(
            "{{\"bench\": \"{bench}\", \"quanta\": {quanta}, \
             \"ns_per_quantum\": {ns_per_quantum:.1}}}\n"
        );
        if let Err(e) = std::fs::write(&path, body) {
            eprintln!("cannot write {path}: {e}");
            std::process::exit(2);
        }
        println!("baseline written to {path}");
        std::process::exit(0);
    }

    let path = check.expect("checked above: --check or --update is present");
    let baseline = baseline.expect("baseline parsed before measuring");
    let limit = baseline * (1.0 + PERF_TOLERANCE);
    println!(
        "baseline {baseline:.1} ns/quantum, limit {limit:.1} (+{:.0}%)",
        PERF_TOLERANCE * 100.0
    );
    if ns_per_quantum > limit {
        eprintln!(
            "perf regression: {ns_per_quantum:.1} ns/quantum exceeds {limit:.1} \
             ({baseline:.1} +{:.0}%)\n\
             if intentional, regenerate with: \
             cargo run --release --bin pfairsim -- perf --update {path}",
            PERF_TOLERANCE * 100.0
        );
        std::process::exit(1);
    }
    if ns_per_quantum < baseline * (1.0 - PERF_TOLERANCE) {
        println!(
            "note: {:.0}% faster than baseline — consider re-tightening with \
             `cargo run --release --bin pfairsim -- perf --update {path}`",
            (1.0 - ns_per_quantum / baseline) * 100.0
        );
    }
    println!("perf ratchet ok");
    std::process::exit(0)
}

/// The `fuzz` subcommand: a seeded differential conformance campaign
/// against the reference engines. Exits 1 on any invariant violation,
/// 0 on a clean run, 2 on bad arguments.
fn fuzz(mut args: std::env::Args) -> ! {
    let mut cfg = CampaignConfig {
        trials: 1000,
        base_seed: 1,
        threads: std::thread::available_parallelism().map_or(1, usize::from),
        gen: GenConfig::default(),
        time_limit: None,
        shrink: true,
        stop_on_first: false,
    };
    let mut repro_out: Option<String> = None;
    while let Some(a) = args.next() {
        match a.as_str() {
            "--repro-out" => repro_out = Some(args.next().unwrap_or_else(|| usage())),
            "--trials" => {
                cfg.trials = args
                    .next()
                    .and_then(|s| s.parse().ok())
                    .unwrap_or_else(|| usage())
            }
            "--seconds" => {
                let secs: u64 = args
                    .next()
                    .and_then(|s| s.parse().ok())
                    .unwrap_or_else(|| usage());
                cfg.time_limit = Some(std::time::Duration::from_secs(secs));
            }
            "--seed" => {
                cfg.base_seed = args
                    .next()
                    .and_then(|s| s.parse().ok())
                    .unwrap_or_else(|| usage())
            }
            "--threads" => {
                cfg.threads = args
                    .next()
                    .and_then(|s| s.parse().ok())
                    .unwrap_or_else(|| usage())
            }
            "--no-shrink" => cfg.shrink = false,
            "--help" | "-h" => usage(),
            _ => usage(),
        }
    }
    println!(
        "fuzz: {} trials from seed {} on {} threads (shrink: {})",
        cfg.trials, cfg.base_seed, cfg.threads, cfg.shrink
    );
    let outcome = run_campaign(&cfg, &REFERENCE);
    println!("ran {} trials", outcome.trials_run);
    // One streamed-metrics line over a fixed sample of the campaign's own
    // seeds: live counters from the observers, not post-hoc analysis.
    let sample = cfg.trials.min(100);
    let (mut quanta, mut misses, mut inversions) = (0u64, 0u64, 0u64);
    let mut max_tardiness = Rat::ZERO;
    for k in 0..sample {
        let spec = generate_case(&cfg.gen, cfg.base_seed + k as u64);
        let Ok(case) = Case::build(spec) else {
            continue;
        };
        let mut obs =
            BlockingObserver::with_inner(&case.sys, &Pd2, MetricsObserver::new(case.spec.m));
        let _ = simulate_dvq_observed(
            &case.sys,
            case.spec.m,
            &Pd2,
            &mut case.cost_model(),
            &mut obs,
        );
        let (records, metrics) = obs.into_parts();
        quanta += metrics.started();
        misses += metrics.deadline_misses();
        if metrics.max_tardiness() > max_tardiness {
            max_tardiness = metrics.max_tardiness();
        }
        inversions += records.len() as u64;
    }
    println!(
        "metrics[dvq, first {sample} seeds]: {quanta} quanta, {misses} deadline misses \
         (max tardiness {max_tardiness}), {inversions} inversions"
    );
    if outcome.clean() {
        println!("no violations");
        std::process::exit(0);
    }
    for v in &outcome.violations {
        println!(
            "violation at seed {}: {} — {}",
            v.seed, v.invariant, v.detail
        );
        let spec = v.shrunk.as_ref().unwrap_or(&v.original);
        match serde_json::to_string(spec) {
            Ok(json) => println!(
                "  {} repro: {json}",
                if v.shrunk.is_some() {
                    "shrunk"
                } else {
                    "original"
                }
            ),
            Err(e) => println!("  (repro serialization failed: {e})"),
        }
        println!("  replay: pfairsim fuzz --seed {} --trials 1", v.seed);
    }
    if let Some(path) = &repro_out {
        // One JSON array of the minimal repros (shrunk when available) —
        // the artifact CI uploads when the smoke campaign fails.
        let specs: Vec<_> = outcome
            .violations
            .iter()
            .map(|v| v.shrunk.as_ref().unwrap_or(&v.original))
            .collect();
        match serde_json::to_string(&specs) {
            Ok(json) => {
                if let Err(e) = std::fs::write(path, json + "\n") {
                    eprintln!("cannot write repros to {path}: {e}");
                } else {
                    println!("{} repro(s) written to {path}", specs.len());
                }
            }
            Err(e) => eprintln!("repro serialization failed: {e}"),
        }
    }
    eprintln!("{} violation(s) found", outcome.violations.len());
    std::process::exit(1)
}

/// The `serve-sim` subcommand: execute seeded workloads on real worker
/// threads and prove every run against the conformance replay bank
/// (plus `OnlineDvq` bit-equality in deterministic mode). Exits 1 on any
/// violation or stall, 0 on a clean sweep, 2 on bad arguments.
fn serve_sim(mut args: std::env::Args) -> ! {
    let mut cfg = RuntimeConfig::new(2);
    let mut runs: u64 = 25;
    let mut base_seed: u64 = 1;
    while let Some(a) = args.next() {
        match a.as_str() {
            "--threads" => {
                cfg.m = args
                    .next()
                    .and_then(|s| s.parse().ok())
                    .filter(|&n| n > 0)
                    .unwrap_or_else(|| usage());
            }
            "--runs" => {
                runs = args
                    .next()
                    .and_then(|s| s.parse().ok())
                    .unwrap_or_else(|| usage());
            }
            "--seed" => {
                base_seed = args
                    .next()
                    .and_then(|s| s.parse().ok())
                    .unwrap_or_else(|| usage());
            }
            "--regime" => {
                cfg.regime = match args.next().as_deref() {
                    Some("none") => JitterRegime::None,
                    Some("mild") => JitterRegime::Mild,
                    Some("adversarial") => JitterRegime::Adversarial,
                    _ => usage(),
                };
            }
            "--mode" => {
                cfg.mode = match args.next().as_deref() {
                    Some("free") => Mode::FreeRunning,
                    Some("det") => Mode::Deterministic,
                    _ => usage(),
                };
            }
            "--spin" => {
                cfg.spin = args
                    .next()
                    .and_then(|s| s.parse().ok())
                    .unwrap_or_else(|| usage());
            }
            "--help" | "-h" => usage(),
            _ => usage(),
        }
    }
    println!(
        "serve-sim: {} runs from seed {base_seed} on {} worker thread(s), \
         {:?} jitter, {:?} mode",
        runs, cfg.m, cfg.regime, cfg.mode
    );
    let mut quanta: u64 = 0;
    for k in 0..runs {
        let seed = base_seed + k;
        cfg.seed = seed;
        let case = generate_runtime_case(seed, cfg.m);
        let run = execute(&case.sys, &case.jobs, &cfg);
        quanta += run.log.len() as u64;
        if let Err(f) = check_runtime_run(&case, &cfg, &run) {
            eprintln!("violation at seed {seed}: {} — {}", f.invariant, f.detail);
            eprintln!(
                "replay: pfairsim serve-sim --threads {} --runs 1 --seed {seed} \
                 --regime {} --mode {}",
                cfg.m,
                match cfg.regime {
                    JitterRegime::None => "none",
                    JitterRegime::Mild => "mild",
                    JitterRegime::Adversarial => "adversarial",
                },
                match cfg.mode {
                    Mode::FreeRunning => "free",
                    Mode::Deterministic => "det",
                }
            );
            std::process::exit(1);
        }
    }
    println!(
        "{runs} run(s), {quanta} quanta executed; every event stream replayed \
         clean through the conformance bank"
    );
    std::process::exit(0)
}

fn main() {
    let mut argv = std::env::args();
    let _ = argv.next();
    // Peek for the subcommand before falling back to weight parsing.
    let rest: Vec<String> = argv.collect();
    if rest.first().map(String::as_str) == Some("fuzz") {
        let mut args = std::env::args();
        let _ = args.next();
        let _ = args.next();
        fuzz(args);
    }
    if rest.first().map(String::as_str) == Some("serve-sim") {
        let mut args = std::env::args();
        let _ = args.next();
        let _ = args.next();
        serve_sim(args);
    }
    if rest.first().map(String::as_str) == Some("perf") {
        let mut args = std::env::args();
        let _ = args.next();
        let _ = args.next();
        perf(args);
    }
    let mut m: u32 = 2;
    let mut model = "sfq".to_string();
    let mut alg = Algorithm::Pd2;
    let mut cost = Rat::ONE;
    let mut horizon: i64 = 24;
    let mut res: u32 = 4;
    let mut json = false;
    let mut metrics = false;
    let mut events_path: Option<String> = None;
    let mut weights: Vec<(i64, i64)> = Vec::new();

    // `run` is the optional explicit name of the default mode.
    let skip = 1 + usize::from(rest.first().map(String::as_str) == Some("run"));
    let mut args = std::env::args().skip(skip);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--m" => {
                m = args
                    .next()
                    .and_then(|s| s.parse().ok())
                    .unwrap_or_else(|| usage())
            }
            "--model" => model = args.next().unwrap_or_else(|| usage()),
            "--alg" => {
                alg = args
                    .next()
                    .and_then(|s| Algorithm::parse(&s))
                    .unwrap_or_else(|| usage())
            }
            "--cost" => {
                cost = args
                    .next()
                    .and_then(|s| parse_rat(&s))
                    .unwrap_or_else(|| usage())
            }
            "--horizon" => {
                horizon = args
                    .next()
                    .and_then(|s| s.parse().ok())
                    .unwrap_or_else(|| usage())
            }
            "--res" => {
                res = args
                    .next()
                    .and_then(|s| s.parse().ok())
                    .unwrap_or_else(|| usage())
            }
            "--json" => json = true,
            "--metrics" => metrics = true,
            "--events" => events_path = Some(args.next().unwrap_or_else(|| usage())),
            "--help" | "-h" => usage(),
            w => {
                let r = parse_rat(w).unwrap_or_else(|| usage());
                weights.push((r.num_i64(), r.den_i64()));
            }
        }
    }
    if weights.is_empty() {
        usage();
    }
    for &(e, p) in &weights {
        if Weight::checked(e, p).is_err() {
            eprintln!("invalid weight {e}/{p}: need 0 < e <= p");
            std::process::exit(2);
        }
    }
    if m == 0 {
        eprintln!("invalid --m 0: need at least one processor");
        std::process::exit(2);
    }
    if !cost.is_positive() || cost > Rat::ONE {
        eprintln!("invalid --cost {cost}: need 0 < cost <= 1");
        std::process::exit(2);
    }
    let Some(kind) = ModelKind::parse(&model) else {
        eprintln!("unknown --model {model:?}: need sfq, dvq, staggered, pdb, bf or flow");
        std::process::exit(2);
    };

    let sys = release::periodic(&weights, horizon);
    println!(
        "system: {} tasks, {} subtasks, utilization {} on {} cpus (feasible: {})",
        sys.num_tasks(),
        sys.num_subtasks(),
        sys.utilization(),
        m,
        sys.is_feasible(m)
    );

    let mut costs = ScaledCost(cost);
    let order = alg.order();
    let observe = metrics || events_path.is_some();
    let mut jsonl = JsonlObserver::new();
    let mut tracked = BlockingObserver::with_inner(&sys, order, MetricsObserver::new(m));
    if kind == ModelKind::Bf {
        require_boundary_periodic(&sys);
    }
    let sched = if observe {
        kind.simulate(&sys, m, order, &mut costs, &mut (&mut tracked, &mut jsonl))
    } else {
        kind.simulate(&sys, m, order, &mut costs, &mut NoopObserver)
    };

    if let Some(path) = &events_path {
        if let Err(e) = std::fs::write(path, jsonl.to_jsonl()) {
            eprintln!("cannot write {path}: {e}");
            std::process::exit(2);
        }
        println!("events: {} records -> {path}", jsonl.lines().len());
    }
    if metrics {
        let (_, streamed) = tracked.into_parts();
        print!("metrics:\n{}", streamed.summary());
    }
    if json {
        println!("{}", trace_bundle(&sys, &sched).to_json());
        return;
    }

    print!(
        "{}",
        render_gantt(
            &sys,
            &sched,
            &GanttOptions {
                resolution: res,
                horizon: sched.makespan().ceil().max(1),
            }
        )
    );
    println!(
        "model {model}  alg {}  cost {cost}",
        kind.builtin_selection()
            .map_or_else(|| alg.to_string(), str::to_string),
    );
    println!("{}", schedule_report(&sys, &sched, alg.order()));
    for ev in detect_blocking(&sys, &sched, alg.order()) {
        println!(
            "  {:?} blocking: {:?} waited {} (ready {}, scheduled {})",
            ev.kind,
            sys.subtask(ev.victim).id,
            ev.duration(),
            ev.ready_at,
            ev.scheduled_at
        );
    }
}
