//! Fixture tests: every rule must fire on a planted violation with the
//! right `file:line`, stay silent out of scope, and honor (and police)
//! suppression comments. The v2 semantic rules (hot-path reachability,
//! emission parity, dead-pub) each get a fixture mini-crate with a
//! planted violation plus a scoping negative.

use pfair_lint::{lint_files, Diagnostic};

fn lint_one(path: &str, src: &str) -> Vec<Diagnostic> {
    lint_files(&[(path.to_string(), src.to_string())])
}

fn rules_of(diags: &[Diagnostic]) -> Vec<&'static str> {
    diags.iter().map(|d| d.rule).collect()
}

#[test]
fn no_float_time_fires_in_exact_crates_with_line() {
    let d = lint_one(
        "crates/sim/src/x.rs",
        "fn a() {}\nfn speed(x: f64) -> f64 {\n    x * 2.0\n}\n",
    );
    assert_eq!(rules_of(&d), ["no-float-time"]);
    assert_eq!(d[0].path, "crates/sim/src/x.rs");
    assert_eq!(d[0].line, 2);
}

#[test]
fn no_float_time_is_scoped_and_skips_strings_comments_tests() {
    // Report crates are out of scope.
    assert!(lint_one("crates/trace/src/x.rs", "fn f(x: f64) -> f64 { x }").is_empty());
    // Strings, comments and test modules never match.
    let src = "// f64 is mentioned here\nfn a() { let s = \"f64\"; }\n#[cfg(test)]\nmod tests {\n    fn approx() -> f64 { 0.5 }\n}\n";
    assert!(lint_one("crates/numeric/src/x.rs", src).is_empty());
}

#[test]
fn no_lossy_cast_fires_on_value_expressions_only() {
    let d = lint_one(
        "crates/analysis/src/x.rs",
        "fn f(lag: i128) -> i64 {\n    max_lag.num() as i64\n}\n",
    );
    assert_eq!(rules_of(&d), ["no-lossy-cast"]);
    assert_eq!(d[0].line, 2);
    // Index/counter casts are not value casts.
    assert!(lint_one(
        "crates/analysis/src/x.rs",
        "fn f(i: usize, n: u64) -> u32 {\n    (i + n as usize) as u32\n}\n"
    )
    .is_empty());
    // Widening to i128 is always fine.
    assert!(lint_one(
        "crates/analysis/src/x.rs",
        "fn f(deadline: i64) -> i128 { deadline as i128 }\n"
    )
    .is_empty());
}

#[test]
fn panic_policy_v2_fires_on_reachable_helpers_with_chain() {
    // `pick` is in no hot file-path heuristic's scope — it is hot because
    // the call graph reaches it from the `simulate_` entry point.
    let src = "fn simulate_fix(sys: &Sys) {\n    let order = prep(sys);\n    pick(sys, order);\n}\nfn prep(sys: &Sys) -> u32 { 0 }\nfn pick(sys: &Sys, order: u32) {\n    let a = sys.heap.peek().unwrap();\n    let b = sys.heap.peek().expect(\"\");\n    let c = sys.heap.peek().expect(\"heap nonempty: checked above\");\n    unreachable!()\n}\n";
    let d = lint_one("crates/conformance/src/x.rs", src);
    assert_eq!(
        rules_of(&d),
        ["panic-policy-v2", "panic-policy-v2", "panic-policy-v2"]
    );
    assert_eq!(
        d.iter().map(|d| d.line).collect::<Vec<_>>(),
        [7, 8, 10],
        "the diagnostic expect on line 9 is fine"
    );
    assert!(
        d[0].message.contains("reachable via simulate_fix → pick"),
        "chain witness missing: {}",
        d[0].message
    );
}

#[test]
fn panic_policy_v2_spares_unreachable_and_test_code() {
    // The same panic sites with NO hot entry point reaching them: cold
    // helper code may unwrap (it fails fast in analysis tooling).
    let cold = "fn pick(sys: &Sys) {\n    sys.heap.peek().unwrap();\n}\n";
    assert!(lint_one("crates/core/src/x.rs", cold).is_empty());
    // A `#[cfg(test)]` entry point does not make its callees hot.
    let test_entry = "#[cfg(test)]\nmod tests {\n    fn simulate_fix() {\n        pick();\n    }\n}\nfn pick() {\n    x.unwrap();\n}\n";
    assert!(lint_one("crates/sim/src/x.rs", test_entry).is_empty());
    // Hot entries in tests/ or shims/ don't produce findings there.
    let in_tests = "fn simulate_fix() {\n    x.unwrap();\n}\n";
    assert!(lint_one("tests/x.rs", in_tests).is_empty());
    assert!(lint_one("shims/fake/src/lib.rs", in_tests).is_empty());
}

#[test]
fn alloc_in_hot_loop_fires_inside_loops_only() {
    let src = "fn simulate_fix(items: &[u32]) {\n    let outside = Vec::new();\n    for i in items {\n        let v = Vec::new();\n        let s = i.to_string();\n    }\n    stage(items);\n}\nfn stage(items: &[u32]) {\n    while go() {\n        let label = format!(\"{items:?}\");\n    }\n}\n";
    let d = lint_one("crates/sim/src/x.rs", src);
    assert_eq!(
        rules_of(&d),
        [
            "alloc-in-hot-loop",
            "alloc-in-hot-loop",
            "alloc-in-hot-loop"
        ]
    );
    assert_eq!(d.iter().map(|d| d.line).collect::<Vec<_>>(), [4, 5, 11]);
    assert!(
        d[2].message.contains("reachable via simulate_fix → stage"),
        "{}",
        d[2].message
    );
    // The same loop in a function no hot entry reaches is fine.
    let cold = "fn build_report(items: &[u32]) {\n    for i in items {\n        let v = Vec::new();\n    }\n}\n";
    assert!(lint_one("crates/sim/src/x.rs", cold).is_empty());
}

#[test]
fn emission_parity_flags_an_engine_missing_a_variant() {
    // Two engines; `dvq` never constructs `QuantumEnd`. The finding
    // anchors at the lagging engine's entry point and names the witness.
    let sfq = "fn simulate_sfq_fix(log: &mut Vec<SchedEvent>) {\n    log.push(SchedEvent::Tick { at: 0 });\n    wrap_up(log);\n}\nfn wrap_up(log: &mut Vec<SchedEvent>) {\n    log.push(SchedEvent::QuantumEnd { at: 1 });\n}\n";
    let dvq = "fn simulate_dvq_fix(log: &mut Vec<SchedEvent>) {\n    log.push(SchedEvent::Tick { at: 0 });\n}\n";
    let d = lint_files(&[
        ("crates/sim/src/sfq.rs".to_string(), sfq.to_string()),
        ("crates/sim/src/dvq.rs".to_string(), dvq.to_string()),
    ]);
    assert_eq!(rules_of(&d), ["emission-parity"]);
    assert_eq!(d[0].path, "crates/sim/src/dvq.rs");
    assert_eq!(d[0].line, 1);
    assert!(
        d[0].message
            .contains("`dvq` never constructs `SchedEvent::QuantumEnd`"),
        "{}",
        d[0].message
    );
    assert!(
        d[0].message
            .contains("reachable via simulate_sfq_fix → wrap_up"),
        "witness chain missing: {}",
        d[0].message
    );
}

#[test]
fn emission_parity_is_not_masked_by_test_helpers_sharing_a_method_name() {
    // `dvq` calls a method named `record`, and so does a helper in a root
    // integration test, which drives the SFQ engine. Library code cannot
    // call into a test crate, so that name match must not lend `dvq`
    // SFQ's `QuantumEnd`.
    let sfq = "pub fn simulate_sfq_fix(log: &mut Vec<SchedEvent>) {\n    log.push(SchedEvent::Tick { at: 0 });\n    log.push(SchedEvent::QuantumEnd { at: 1 });\n}\n";
    let dvq = "fn simulate_dvq_fix(log: &mut Vec<SchedEvent>, tier: &Tier) {\n    log.push(SchedEvent::Tick { at: 0 });\n    tier.record(0);\n}\npub struct Tier;\n";
    let helper = "struct Digests;\nimpl Digests {\n    fn record(&mut self, log: &mut Vec<SchedEvent>) {\n        simulate_sfq_fix(log);\n    }\n}\n";
    let d = lint_files(&[
        ("crates/sim/src/sfq.rs".to_string(), sfq.to_string()),
        ("crates/sim/src/dvq.rs".to_string(), dvq.to_string()),
        ("tests/identity.rs".to_string(), helper.to_string()),
    ]);
    assert_eq!(rules_of(&d), ["emission-parity"], "{d:?}");
    assert_eq!(
        (d[0].path.as_str(), d[0].line),
        ("crates/sim/src/dvq.rs", 1)
    );
    assert!(
        d[0].message
            .contains("`dvq` never constructs `SchedEvent::QuantumEnd`"),
        "{}",
        d[0].message
    );
}

#[test]
fn emission_parity_honors_exemptions_and_flags_stale_ones() {
    // `Released` is exempt for the offline engines: only the online
    // engine constructing it is NOT a parity break…
    let sfq = "fn simulate_sfq_fix(log: &mut Vec<SchedEvent>) {\n    log.push(SchedEvent::Tick { at: 0 });\n}\n";
    let dvq = "fn simulate_dvq_fix(log: &mut Vec<SchedEvent>) {\n    log.push(SchedEvent::Tick { at: 0 });\n}\n";
    let online = "fn tick_fix(log: &mut Vec<SchedEvent>) {\n    log.push(SchedEvent::Tick { at: 0 });\n    log.push(SchedEvent::Released { at: 0 });\n}\n";
    let clean = lint_files(&[
        ("crates/sim/src/sfq.rs".to_string(), sfq.to_string()),
        ("crates/sim/src/dvq.rs".to_string(), dvq.to_string()),
        ("crates/online/src/tick.rs".to_string(), online.to_string()),
    ]);
    assert!(clean.is_empty(), "{clean:?}");

    // …but an offline engine constructing its exempted variant is stale.
    let sfq_stale = "fn simulate_sfq_fix(log: &mut Vec<SchedEvent>) {\n    log.push(SchedEvent::Tick { at: 0 });\n    log.push(SchedEvent::Released { at: 0 });\n}\n";
    let d = lint_files(&[
        ("crates/sim/src/sfq.rs".to_string(), sfq_stale.to_string()),
        ("crates/sim/src/dvq.rs".to_string(), dvq.to_string()),
        ("crates/online/src/tick.rs".to_string(), online.to_string()),
    ]);
    assert_eq!(rules_of(&d), ["emission-parity"]);
    assert_eq!(
        (d[0].path.as_str(), d[0].line),
        ("crates/sim/src/sfq.rs", 3)
    );
    assert!(d[0].message.contains("stale exemption"), "{}", d[0].message);
}

#[test]
fn emission_parity_requires_full_observer_matches() {
    let enum_decl = "pub enum SchedEvent {\n    Tick { at: i64 },\n    Idle { at: i64 },\n    Done { at: i64 },\n}\nfn touch(e: &SchedEvent) {}\n";
    // A wildcard arm swallows future variants silently.
    let wild = "fn digest(ev: &SchedEvent) {\n    match ev {\n        SchedEvent::Tick { .. } => {}\n        _ => {}\n    }\n}\n";
    let d = lint_files(&[
        ("crates/obs/src/event.rs".to_string(), enum_decl.to_string()),
        ("crates/obs/src/m.rs".to_string(), wild.to_string()),
    ]);
    assert_eq!(rules_of(&d), ["emission-parity"]);
    assert_eq!((d[0].path.as_str(), d[0].line), ("crates/obs/src/m.rs", 2));
    assert!(d[0].message.contains("wildcard"), "{}", d[0].message);

    // A wildcard-free match missing a declared variant is flagged too.
    let partial = "fn digest(ev: &SchedEvent) {\n    match ev {\n        SchedEvent::Tick { .. } => {}\n        SchedEvent::Idle { .. } => {}\n    }\n}\n";
    let d = lint_files(&[
        ("crates/obs/src/event.rs".to_string(), enum_decl.to_string()),
        ("crates/obs/src/m.rs".to_string(), partial.to_string()),
    ]);
    assert_eq!(rules_of(&d), ["emission-parity"]);
    assert!(d[0].message.contains("`Done`"), "{}", d[0].message);

    // Full enumeration is clean, and matches outside `crates/obs` (the
    // engines match events in tests, say) are out of scope.
    let full = "fn digest(ev: &SchedEvent) {\n    match ev {\n        SchedEvent::Tick { .. } => {}\n        SchedEvent::Idle { .. } => {}\n        SchedEvent::Done { .. } => {}\n    }\n}\n";
    assert!(lint_files(&[
        ("crates/obs/src/event.rs".to_string(), enum_decl.to_string()),
        ("crates/obs/src/m.rs".to_string(), full.to_string()),
    ])
    .is_empty());
    assert!(lint_files(&[
        ("crates/obs/src/event.rs".to_string(), enum_decl.to_string()),
        ("crates/sim/src/m.rs".to_string(), wild.to_string()),
    ])
    .is_empty());
}

#[test]
fn dead_pub_flags_unreferenced_crate_exports() {
    let lib = "pub fn used_entry() -> u64 { 7 }\npub fn dead_entry() -> u64 { 8 }\npub struct DeadMarker;\n";
    let user = "fn f() { let x = used_entry(); }\n";
    let d = lint_files(&[
        ("crates/analysis/src/lib.rs".to_string(), lib.to_string()),
        ("crates/sim/src/y.rs".to_string(), user.to_string()),
    ]);
    assert_eq!(rules_of(&d), ["dead-pub", "dead-pub"]);
    assert_eq!(d[0].line, 2);
    assert!(d[0].message.contains("dead_entry"));
    assert_eq!(d[1].line, 3);
    assert!(d[1].message.contains("DeadMarker"));
    // Usage from examples/ or tests/ keeps an export alive.
    let example_user = "fn main() { let x = dead_entry(); let m = DeadMarker; }\n";
    assert!(lint_files(&[
        ("crates/analysis/src/lib.rs".to_string(), lib.to_string()),
        ("crates/sim/src/y.rs".to_string(), user.to_string()),
        ("examples/demo.rs".to_string(), example_user.to_string()),
    ])
    .is_empty());
    // `pub(crate)` is not an export; test-gated items are exempt.
    let scoped =
        "pub(crate) fn helper() {}\n#[cfg(test)]\npub fn test_support() {}\nfn f() { helper(); }\n";
    assert!(lint_one("crates/analysis/src/z.rs", scoped).is_empty());
}

#[test]
fn dead_pub_keeps_shim_drift_semantics_for_shims() {
    let shim = "pub fn used_helper() -> u64 { 7 }\npub fn dead_helper() -> u64 { 8 }\n";
    let user = "fn f() { let x = used_helper(); }\n";
    let d = lint_files(&[
        ("shims/fake/src/lib.rs".to_string(), shim.to_string()),
        ("crates/sim/src/y.rs".to_string(), user.to_string()),
    ]);
    assert_eq!(rules_of(&d), ["dead-pub"]);
    assert_eq!(d[0].path, "shims/fake/src/lib.rs");
    assert_eq!(d[0].line, 2);
    assert!(
        d[0].message
            .contains("shims may not grow surface beyond what the crates use"),
        "{}",
        d[0].message
    );
}

#[test]
fn dead_pub_sees_macros_and_skips_methods() {
    let shim = "#[macro_export]\nmacro_rules! dead_macro {\n    () => {};\n}\npub struct Thing;\nimpl Thing {\n    pub fn method_never_called_by_name(&self) {}\n}\n";
    let user = "fn f(t: Thing) {}\n";
    let d = lint_files(&[
        ("shims/fake/src/lib.rs".to_string(), shim.to_string()),
        ("crates/sim/src/y.rs".to_string(), user.to_string()),
    ]);
    // Only the macro is dead: `Thing` is used, and methods ride their
    // type's usage.
    assert_eq!(rules_of(&d), ["dead-pub"]);
    assert_eq!(d[0].line, 2);
    assert!(d[0].message.contains("dead_macro"));
}

#[test]
fn misplaced_suppression_flags_doc_comment_allows() {
    let src = "/// pfair-lint: allow(no-float-time): this is rendered docs, not policy.\nfn speed(x: f64) -> f64 { x }\n";
    let d = lint_one("crates/sim/src/x.rs", src);
    assert_eq!(rules_of(&d), ["misplaced-suppression", "no-float-time"]);
    assert_eq!(d[0].line, 1);
    assert!(
        d[0].message.contains("inert") && d[0].message.contains("move it out of the docs"),
        "{}",
        d[0].message
    );
    // The same text in a plain comment suppresses the finding instead.
    let plain = "// pfair-lint: allow(no-float-time): sanctioned report-only exit.\nfn speed(x: f64) -> f64 { x }\n";
    assert!(lint_one("crates/sim/src/x.rs", plain).is_empty());
}

#[test]
fn suppression_with_justification_silences_a_finding() {
    let src = "// pfair-lint: allow(no-float-time): sanctioned report-only exit.\nfn to_float() -> f64 { 0.0 }\n";
    assert!(lint_one("crates/numeric/src/x.rs", src).is_empty());
    // Same-line form.
    let same = "fn to_float() -> f64 { 0.0 } // pfair-lint: allow(no-float-time): report-only.\n";
    assert!(lint_one("crates/numeric/src/x.rs", same).is_empty());
}

#[test]
fn suppression_without_justification_is_a_finding() {
    let src = "// pfair-lint: allow(no-float-time)\nfn to_float() -> f64 { 0.0 }\n";
    let d = lint_one("crates/numeric/src/x.rs", src);
    assert_eq!(rules_of(&d), ["suppression"]);
    assert!(d[0].message.contains("justification"));
}

#[test]
fn suppression_of_nothing_or_unknown_rule_is_a_finding() {
    let unused = "// pfair-lint: allow(no-float-time): this guards nothing.\nfn f() {}\n";
    let d = lint_one("crates/numeric/src/x.rs", unused);
    assert_eq!(rules_of(&d), ["suppression"]);
    assert!(d[0].message.contains("suppresses nothing"));

    let unknown = "// pfair-lint: allow(no-such-rule): whatever.\nfn f() {}\n";
    let d = lint_one("crates/numeric/src/x.rs", unknown);
    assert_eq!(rules_of(&d), ["suppression"]);
    assert!(d[0].message.contains("unknown rule"));

    // The retired v1 rule names are unknown now: stale allows surface.
    let retired = "// pfair-lint: allow(panic-policy): kept from v1.\nfn f() {}\n";
    let d = lint_one("crates/numeric/src/x.rs", retired);
    assert_eq!(rules_of(&d), ["suppression"]);
}

#[test]
fn suppression_does_not_leak_to_other_rules_or_lines() {
    let src = "// pfair-lint: allow(no-float-time): floats ok here.\nlet t = Instant::now();\n";
    let d = lint_one("crates/sim/src/x.rs", src);
    // The nondeterminism finding survives; the allow is also flagged as
    // suppressing nothing.
    assert_eq!(rules_of(&d), ["suppression", "no-nondeterminism"]);
}

#[test]
fn no_nondeterminism_fires_on_clocks_and_hash_iteration() {
    let src = "use std::collections::HashMap;\nfn f() {\n    let t = Instant::now();\n}\n";
    let d = lint_one("crates/conformance/src/x.rs", src);
    assert_eq!(rules_of(&d), ["no-nondeterminism", "no-nondeterminism"]);
    assert_eq!(d[0].line, 1);
    assert_eq!(d[1].line, 3);
    // BTreeMap is the sanctioned replacement.
    assert!(lint_one(
        "crates/sim/src/x.rs",
        "use std::collections::BTreeMap;\nfn f(m: &BTreeMap<u32, u32>) {}\n"
    )
    .is_empty());
    // Analysis is in scope: its error lists and reports must not depend
    // on hash order either.
    assert_eq!(
        rules_of(&lint_one(
            "crates/analysis/src/x.rs",
            "use std::collections::HashMap;"
        )),
        ["no-nondeterminism"]
    );
    // Rendering crates are out of scope.
    assert!(lint_one("crates/trace/src/x.rs", "use std::collections::HashMap;").is_empty());
}

#[test]
fn no_nondeterminism_covers_the_runtime_crate_including_thread_spawns() {
    // The runtime crate is deterministic-scope: wall clocks AND bare
    // thread spawns need a justified allow.
    let src = "fn run() {\n    crossbeam::scope(|s| {});\n    let t = Instant::now();\n}\n";
    let d = lint_one("crates/runtime/src/x.rs", src);
    assert_eq!(rules_of(&d), ["no-nondeterminism", "no-nondeterminism"]);
    assert_eq!(d[0].line, 2);
    assert!(
        d[0].message.contains("crossbeam::scope"),
        "thread-specific message missing: {}",
        d[0].message
    );
    assert_eq!(d[1].line, 3);
    // std thread entry points are flagged the same way.
    let d = lint_one(
        "crates/runtime/src/x.rs",
        "fn run() {\n    std::thread::spawn(|| {});\n}\n",
    );
    assert_eq!(rules_of(&d), ["no-nondeterminism"]);
    // A justified allow on the spawn site is the sanctioned escape hatch —
    // this is how `exec.rs` hosts the one real spawn while the
    // deterministic-mode dispatch core stays allow-free.
    assert!(lint_one(
        "crates/runtime/src/x.rs",
        "fn run() {\n    // pfair-lint: allow(no-nondeterminism): decisions come from the deterministic core; the race is replay-proven.\n    crossbeam::scope(|s| {});\n}\n",
    )
    .is_empty());
    // Thread spawns outside deterministic scope are not the lint's business.
    assert!(lint_one(
        "crates/trace/src/x.rs",
        "fn run() {\n    crossbeam::scope(|s| {});\n}\n"
    )
    .is_empty());
}

#[test]
fn observer_gating_requires_enabled_guard() {
    let ungated =
        "fn drive<O: Observer>(obs: &mut O) {\n    obs.on_event(&SchedEvent::Tick { at });\n}\n";
    let d = lint_one("crates/sim/src/x.rs", ungated);
    assert_eq!(rules_of(&d), ["observer-gating"]);
    assert_eq!(d[0].line, 2);

    let gated = "fn drive<O: Observer>(obs: &mut O) {\n    if O::ENABLED {\n        obs.on_event(&SchedEvent::Tick { at });\n    }\n}\n";
    assert!(lint_one("crates/sim/src/x.rs", gated).is_empty());

    let single_line =
        "fn drive<O: Observer>(obs: &mut O) {\n    if O::ENABLED { obs.on_event(&e); }\n}\n";
    assert!(lint_one("crates/online/src/x.rs", single_line).is_empty());

    // Forwarding inside an observer's own `fn on_event` is exempt.
    let forward = "impl<A: Observer> Observer for W<A> {\n    fn on_event(&mut self, e: &SchedEvent) {\n        self.0.on_event(e);\n    }\n}\n";
    assert!(lint_one("crates/obs/src/x.rs", forward).is_empty());
}

#[test]
fn diagnostics_render_as_file_line_rule() {
    let d = lint_one("crates/sim/src/x.rs", "fn f(x: f64) {}\n");
    assert_eq!(d.len(), 1);
    let shown = d[0].to_string();
    assert!(
        shown.starts_with("crates/sim/src/x.rs:1: [no-float-time]"),
        "{shown}"
    );
}
