//! Integration tests for the `pfairsim` CLI surface that CI leans on:
//! the perf-ratchet `--check` edge cases (a broken baseline must fail in
//! milliseconds with a pointed message and exit 2 — never a panic, never
//! thirty timed repetitions first), the `fuzz --repro-out` artifact
//! path the smoke job uploads on failure, and the off-grid `run --metrics`
//! snapshot.

use std::process::{Command, Output};

fn pfairsim(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_pfairsim"))
        .args(args)
        .output()
        .expect("pfairsim runs")
}

fn stderr(out: &Output) -> String {
    String::from_utf8_lossy(&out.stderr).into_owned()
}

fn stdout(out: &Output) -> String {
    String::from_utf8_lossy(&out.stdout).into_owned()
}

/// A scratch file path unique to this test binary run.
fn scratch(name: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("pfairsim-cli-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("scratch dir");
    dir.join(name)
}

#[test]
fn perf_check_missing_baseline_fails_fast_and_pointed() {
    let out = pfairsim(&[
        "perf",
        "--quick",
        "--check",
        "/nonexistent/bench-baseline.json",
    ]);
    assert_eq!(out.status.code(), Some(2));
    let err = stderr(&out);
    assert!(
        err.contains("cannot read baseline"),
        "pointed message expected, got: {err}"
    );
    assert!(
        err.contains("perf --update"),
        "must tell the user how to regenerate: {err}"
    );
    assert!(!err.contains("panicked"), "no panic: {err}");
    // Fail-fast contract: no measurement output before the error.
    assert!(!stdout(&out).contains("ns/quantum"));
}

#[test]
fn perf_check_corrupt_json_is_reported_not_panicked() {
    let path = scratch("corrupt.json");
    std::fs::write(&path, "{\"bench\": \"perf/dvq_keyed/1000\", ns_per").unwrap();
    let out = pfairsim(&["perf", "--quick", "--check", path.to_str().unwrap()]);
    assert_eq!(out.status.code(), Some(2));
    let err = stderr(&out);
    assert!(err.contains("not valid JSON"), "got: {err}");
    assert!(!err.contains("panicked"), "no panic: {err}");
}

#[test]
fn perf_check_foreign_bench_name_is_refused() {
    // A stale artifact from some other bench must not green-light the
    // ratchet just because it happens to carry a plausible number.
    let path = scratch("foreign.json");
    std::fs::write(
        &path,
        "{\"bench\": \"perf/other_engine/9\", \"ns_per_quantum\": 1.0}\n",
    )
    .unwrap();
    let out = pfairsim(&["perf", "--quick", "--check", path.to_str().unwrap()]);
    assert_eq!(out.status.code(), Some(2));
    let err = stderr(&out);
    assert!(
        err.contains("perf/other_engine/9") && err.contains("perf/dvq_keyed/1000"),
        "must name both benches: {err}"
    );
}

#[test]
fn perf_check_missing_bench_name_is_refused() {
    let path = scratch("unnamed.json");
    std::fs::write(&path, "{\"ns_per_quantum\": 424.6}\n").unwrap();
    let out = pfairsim(&["perf", "--quick", "--check", path.to_str().unwrap()]);
    assert_eq!(out.status.code(), Some(2));
    assert!(stderr(&out).contains("no `bench` name"));
}

#[test]
fn perf_check_non_numeric_ns_field_is_refused() {
    let path = scratch("nonnumeric.json");
    std::fs::write(
        &path,
        "{\"bench\": \"perf/dvq_keyed/1000\", \"ns_per_quantum\": \"fast\"}\n",
    )
    .unwrap();
    let out = pfairsim(&["perf", "--quick", "--check", path.to_str().unwrap()]);
    assert_eq!(out.status.code(), Some(2));
    assert!(stderr(&out).contains("no numeric `ns_per_quantum`"));
}

#[test]
fn perf_update_writes_a_baseline_check_accepts() {
    // Wall-clock round trip: the two measurements can land >15% apart on
    // a noisy single-core host, so allow a few attempts — if the ratchet
    // is actually broken (always rejects its own baseline) every attempt
    // fails identically.
    let path = scratch("roundtrip.json");
    let mut last = String::new();
    for _ in 0..4 {
        let up = pfairsim(&["perf", "--quick", "--update", path.to_str().unwrap()]);
        assert!(up.status.success(), "update failed: {}", stderr(&up));
        let check = pfairsim(&["perf", "--quick", "--check", path.to_str().unwrap()]);
        if check.status.success() {
            assert!(stdout(&check).contains("perf ratchet ok"));
            return;
        }
        last = format!("{} {}", stdout(&check), stderr(&check));
    }
    panic!("self-check failed on every attempt: {last}");
}

#[test]
fn fuzz_clean_run_writes_no_repro_artifact() {
    let path = scratch("clean-repros.json");
    let out = pfairsim(&[
        "fuzz",
        "--trials",
        "25",
        "--seed",
        "1",
        "--threads",
        "1",
        "--repro-out",
        path.to_str().unwrap(),
    ]);
    assert!(out.status.success(), "clean fuzz failed: {}", stderr(&out));
    // The CI artifact step only runs on failure; a clean campaign must not
    // leave a stale file behind for it to pick up.
    assert!(!path.exists(), "repro file written on a clean campaign");
}

#[test]
fn run_rejects_unknown_model_with_usage() {
    let out = pfairsim(&["run", "--m", "2", "--model", "zigzag", "1/2"]);
    assert!(!out.status.success());
}

#[test]
fn run_bf_and_flow_models_meet_deadlines_on_fig2() {
    for model in ["bf", "flow"] {
        let out = pfairsim(&[
            "run", "--m", "2", "--model", model, "1/6", "1/6", "1/6", "1/2", "1/2", "1/2",
        ]);
        assert!(out.status.success(), "{model} run failed: {}", stderr(&out));
        let text = stdout(&out);
        assert!(
            text.contains("misses 0/"),
            "{model} should meet every deadline on fig2: {text}"
        );
    }
}

/// An out-of-range `--m` or `--cost` is a usage error naming the flag:
/// exit 2 before anything runs, never an engine panic.
fn assert_run_rejects(flag: &str, value: &str) {
    let out = pfairsim(&["run", flag, value, "1/2", "1/2"]);
    assert_eq!(out.status.code(), Some(2), "{flag} {value}");
    let err = stderr(&out);
    assert!(
        err.contains(flag),
        "{flag} {value}: message must name the flag: {err}"
    );
    assert!(!err.contains("panicked"), "{flag} {value}: no panic: {err}");
    assert!(stdout(&out).is_empty(), "{flag} {value}: nothing runs");
}

#[test]
fn run_rejects_zero_processors() {
    assert_run_rejects("--m", "0");
}

#[test]
fn run_rejects_an_unknown_model() {
    assert_run_rejects("--model", "zigzag");
}

#[test]
fn run_rejects_zero_cost() {
    assert_run_rejects("--cost", "0");
}

#[test]
fn run_rejects_cost_above_one_quantum() {
    assert_run_rejects("--cost", "3/2");
}

/// Costs of 4194301/4194302 are off the observers' 720720 tick grid, so
/// `run --metrics` streams this run on exact rationals. Its output must
/// stay byte for byte the checked-in snapshot (CI diffs it too).
#[test]
fn off_grid_metrics_match_the_snapshot() {
    let out = pfairsim(&[
        "run",
        "--metrics",
        "--m",
        "2",
        "--model",
        "dvq",
        "--cost",
        "4194301/4194302",
        "--horizon",
        "12",
        "1/6",
        "1/6",
        "1/6",
        "1/2",
        "1/2",
        "1/2",
    ]);
    assert!(out.status.success(), "pfairsim failed: {}", stderr(&out));
    assert_eq!(
        stdout(&out),
        include_str!("../figures/fig2_dvq_offgrid_metrics.snapshot"),
        "regenerate figures/fig2_dvq_offgrid_metrics.snapshot"
    );
}
