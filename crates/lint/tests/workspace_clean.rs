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
    let root = workspace_root();
    let mut files = collect_workspace_files(&root).expect("workspace sources are readable");
    let kernel = files
        .iter_mut()
        .find(|(path, _)| path.ends_with("crates/sim/src/kernel.rs"))
        .expect("the DVQ kernel exists");
    assert!(
        kernel.1.contains("emit_end("),
        "the DVQ kernel emits terminal events via emit_end — update this \
         test if that plumbing moves"
    );
    kernel.1 = kernel.1.replace("emit_end(", "emit_end_gone(");
    let diags = lint_files(&files);
    let parity: Vec<_> = diags
        .iter()
        .filter(|d| d.rule == "emission-parity")
        .collect();
    assert!(
        parity
            .iter()
            .any(|d| d.message.contains("`dvq`") && d.message.contains("DeadlineMiss")),
        "severing DVQ's emit helpers must surface a `dvq` DeadlineMiss parity \
         finding; emission-parity reported: {parity:?}"
    );
}
