//! The whole workspace must lint clean — this is the same gate CI runs
//! via `cargo run -p pfair-lint`, wired into `cargo test` so a violation
//! fails locally before it fails in CI. A second test mutates the real
//! DVQ engine in memory to prove emission-parity is load-bearing, not
//! vacuously green.

use std::path::Path;

use pfair_lint::{collect_workspace_files, lint_files};

fn workspace_root() -> std::path::PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .and_then(Path::parent)
        .expect("crates/lint sits two levels below the workspace root")
        .to_path_buf()
}

#[test]
fn the_workspace_lints_clean() {
    let root = workspace_root();
    let files = collect_workspace_files(&root).expect("workspace sources are readable");
    assert!(
        files.len() > 50,
        "workspace walk found only {} files — collection is broken",
        files.len()
    );
    let diags = lint_files(&files);
    assert!(
        diags.is_empty(),
        "pfair-lint found {} violation(s):\n{}",
        diags.len(),
        diags
            .iter()
            .map(ToString::to_string)
            .collect::<Vec<_>>()
            .join("\n")
    );
}

/// The emission-parity messages after replacing `from` with `to` in the
/// workspace file whose path ends in `path` (in memory only).
fn parity_after_edit(path: &str, from: &str, to: &str) -> Vec<String> {
    let mut files =
        collect_workspace_files(&workspace_root()).expect("workspace sources are readable");
    let file = files
        .iter_mut()
        .find(|(p, _)| p.ends_with(path))
        .unwrap_or_else(|| panic!("{path} exists"));
    assert!(
        file.1.contains(from),
        "{path} no longer contains `{from}` — update this test if that \
         plumbing moved"
    );
    file.1 = file.1.replace(from, to);
    lint_files(&files)
        .into_iter()
        .filter(|d| d.rule == "emission-parity")
        .map(|d| d.message)
        .collect()
}

/// Removing DVQ's terminal-event emission must fail emission-parity.
///
/// Every DVQ driver (`simulate_dvq`, the online schedulers, the runtime)
/// runs the one kernel in `crates/sim/src/kernel.rs`, which emits
/// `QuantumEnd`/`DeadlineHit`/`DeadlineMiss` at its terminal-event site
/// through the shared `emit_end` helper in `emit.rs`. We rename that call
/// in the kernel's source (in memory only) so it resolves to nothing —
/// exactly what a refactor that forgot the deadline bookkeeping would
/// look like — and assert the linter notices DVQ no longer reaches a
/// `DeadlineMiss` construction while SFQ and the staggered engine still
/// do.
#[test]
fn removing_dvq_deadline_emission_fails_emission_parity() {
    let parity = parity_after_edit("crates/sim/src/kernel.rs", "emit_end(", "emit_end_gone(");
    assert!(
        parity
            .iter()
            .any(|m| m.contains("`dvq`") && m.contains("DeadlineMiss")),
        "severing DVQ's emit helpers must surface a `dvq` DeadlineMiss parity \
         finding; emission-parity reported: {parity:?}"
    );
}

/// Removing the fixed-quantum recorder's `Idle` emission must fail
/// emission-parity for SFQ, staggered, BF and flow, which all emit through
/// the `Recorder` in `crates/sim/src/emit.rs`, and not for DVQ, whose
/// kernel builds its own. Renaming `report_idle` (in memory only) leaves
/// the engines' calls resolving to nothing.
#[test]
fn removing_the_recorder_idle_emission_fails_emission_parity() {
    let parity = parity_after_edit(
        "crates/sim/src/emit.rs",
        "fn report_idle(",
        "fn report_idle_gone(",
    );
    for engine in ["sfq", "staggered", "bf", "flow"] {
        let want = format!("engine `{engine}` never constructs `SchedEvent::Idle`");
        assert!(
            parity.iter().any(|m| m.contains(&want)),
            "severing the recorder's `Idle` must surface a `{engine}` parity \
             finding; emission-parity reported: {parity:?}"
        );
    }
    assert!(
        !parity.iter().any(|m| m.contains("engine `dvq`")),
        "the DVQ kernel emits its own `Idle`; emission-parity reported: {parity:?}"
    );
}
