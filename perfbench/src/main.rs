//! `perfbench` — the repository benchmark.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload sim-run-1k --seed 1 --seconds 40 --trace 0
//! ```
//!
//! Three workloads, each driven from outside through the public API of
//! the `pfair` facade:
//!
//! * `sim-run-1k` — the `pfairsim run` path on the perf ratchet's
//!   n = 1000 periodic system: PD²-DVQ, PD²-SFQ and `OnlineDvq` on the
//!   same jobs, then `schedule_report` on the DVQ schedule ([`sim`]).
//! * `runtime-free-2w` — `pfair_runtime::execute` in free-running mode on
//!   2 workers over a ≥ 10⁴-quantum case, every run replay-checked
//!   ([`runtime`]). Not listed in `BENCHMARK.json`: on a shared 2-vCPU
//!   host its wall-clock figures move by a third between runs of the same
//!   code, wider than any bound a gate can use; its layers are measured
//!   in every traced run.
//! * `fuzz-campaign` — `run_campaign` on 2 threads with shrinking on, over
//!   fixed 200-seed batches of the default `GenConfig` ([`fuzz`]).
//!
//! `--trace 0` measures the selected workload with tracing off and prints
//! the end-to-end metrics. `--trace 1` runs the layer breakdown of all
//! three paths, each on its own inputs from `--seed`, with spans recorded
//! around every call into a crate, and prints the per-layer metrics;
//! every workload's traced run reports the same per-layer list. The spans
//! are kept in memory and written to `perfbench/out/` at the end.
//!
//! Correctness is checked on every operation outside the timed regions;
//! the last stdout line is one JSON object with `correct`, `attempted`,
//! `failed` and `metrics`.

mod fuzz;
mod runtime;
mod sim;
mod stats;
mod trace;

use std::process::ExitCode;
use std::time::Duration;

use stats::Metric;
use trace::Tracer;

/// The workloads, by the names `BENCHMARK.json` lists.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Workload {
    SimRun1k,
    RuntimeFree2w,
    FuzzCampaign,
}

impl Workload {
    fn parse(s: &str) -> Option<Workload> {
        match s {
            "sim-run-1k" => Some(Workload::SimRun1k),
            "runtime-free-2w" => Some(Workload::RuntimeFree2w),
            "fuzz-campaign" => Some(Workload::FuzzCampaign),
            _ => None,
        }
    }

    fn name(self) -> &'static str {
        match self {
            Workload::SimRun1k => "sim-run-1k",
            Workload::RuntimeFree2w => "runtime-free-2w",
            Workload::FuzzCampaign => "fuzz-campaign",
        }
    }
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(&value).ok_or_else(|| format!("unknown workload {value:?}"))?,
                );
            }
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad seed {value:?}"))?),
            "--seconds" => {
                let s: u64 = value
                    .parse()
                    .map_err(|_| format!("bad --seconds {value:?}"))?;
                if !(1..=60).contains(&s) {
                    return Err("--seconds must be in 1..=60".to_owned());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value:?}")),
                });
            }
            _ => return Err(format!("unknown flag {flag:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.unwrap_or(40),
        trace: trace.unwrap_or(false),
    })
}

/// What one measured path reports back: its metrics plus the operation
/// counts and verdict of the correctness checks.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Every check on every operation passed (see each path for what a
    /// failed operation may still count as correct).
    pub correct: bool,
    /// Operations run.
    pub attempted: u64,
    /// Operations whose outputs failed a check.
    pub failed: u64,
    /// Metrics, in print order.
    pub metrics: Vec<Metric>,
}

impl Outcome {
    fn merge(&mut self, other: Outcome) {
        self.correct &= other.correct;
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.metrics.extend(other.metrics);
    }
}

/// Peak resident set size of this process, from `/proc/self/status`.
fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("cannot read /proc/self/status: {e}"))?;
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or("no VmHWM line in /proc/self/status")?;
    Ok(kb / 1024.0)
}

fn run(args: &Args) -> Result<Outcome, String> {
    let budget = Duration::from_secs(args.seconds);
    if !args.trace {
        let mut out = match args.workload {
            Workload::SimRun1k => sim::measure(args.seed, budget),
            Workload::RuntimeFree2w => runtime::measure(args.seed, budget),
            Workload::FuzzCampaign => fuzz::measure(args.seed, budget),
        };
        out.metrics
            .push(Metric::new("peak_rss_mb", peak_rss_mb()?, "MB"));
        return Ok(out);
    }
    // Every path's breakdown runs whatever the workload, so that each
    // traced run reports the full per-layer list; the split keeps the run
    // near its `--seconds`.
    let share = budget / 3;
    let mut tracer = Tracer::new();
    let mut out = Outcome {
        correct: true,
        ..Outcome::default()
    };
    out.merge(sim::breakdown(args.seed, share, &mut tracer));
    out.merge(runtime::breakdown(args.seed, share, &mut tracer));
    out.merge(fuzz::breakdown(args.seed, share, &mut tracer));
    let path = format!(
        "perfbench/out/spans-{}-seed{}.jsonl",
        args.workload.name(),
        args.seed
    );
    tracer.write_jsonl(&path)?;
    println!("spans: {} written to {path}", tracer.len());
    println!(
        "exact counts (repeat for a seed): sim.dvq.events_per_quantum, \
         runtime.core.advance_per_quantum, runtime.events_per_quantum, fuzz.subtasks_per_case; \
         not exact: runtime.late_quanta, runtime.failure_share, runtime.failed.*"
    );
    Ok(out)
}

fn main() -> ExitCode {
    // Engines under test may panic inside the conformance bank's
    // `catch_unwind`. Print each panic on one line and never capture a
    // backtrace, so time and memory do not depend on `RUST_BACKTRACE`.
    std::panic::set_hook(Box::new(|info| eprintln!("panic: {info}")));
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload sim-run-1k|runtime-free-2w|fuzz-campaign \
                 --seed N [--seconds S] [--trace 0|1]"
            );
            return ExitCode::from(2);
        }
    };
    println!(
        "perfbench: workload {} seed {} seconds {} trace {} on {} hardware threads",
        args.workload.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace),
        std::thread::available_parallelism().map_or(1, usize::from)
    );
    match run(&args) {
        Ok(out) => {
            for m in &out.metrics {
                println!("  {:<48} {:>18} {}", m.name, m.value, m.unit);
            }
            println!(
                "ops: {} attempted, {} failed (error rate {}), correct: {}",
                out.attempted,
                out.failed,
                stats::ratio(out.failed as f64, out.attempted.max(1) as f64),
                out.correct
            );
            println!("{}", stats::result_json(&out));
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}
