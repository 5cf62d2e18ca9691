//! The rule set.
//!
//! Two layers. The *per-file* rules are pure functions over the scanned
//! lexical model, scoped by workspace-relative path. The *semantic*
//! rules ([`graph_findings`], [`dead_pub`]) run over the workspace
//! [`Graph`]: hot-path membership is call-graph reachability from the
//! scheduler entry points (`simulate_*` / `run_until*` / `tick*`), not a
//! file-path heuristic, and every such finding names its witness chain
//! (`reachable via a → b → c`). Test modules (`#[cfg(test)]` regions)
//! are exempt everywhere: they assert behavior, including the float exit
//! and panic paths the production rules forbid.

use std::collections::{BTreeMap, BTreeSet};

use crate::graph::{Graph, TRACKED_ENUM};
use crate::scan::ScannedFile;
use crate::Diagnostic;

/// The rules the engine knows, in reporting order.
pub const RULE_NAMES: [&str; 10] = [
    "no-float-time",
    "no-lossy-cast",
    "panic-policy-v2",
    "no-nondeterminism",
    "observer-gating",
    "alloc-in-hot-loop",
    "emission-parity",
    "dead-pub",
    "misplaced-suppression",
    "suppression",
];

/// Where a file sits in the workspace.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Scope {
    /// `crates/<name>/…`.
    Crate(String),
    /// The root package's `src/`.
    RootSrc,
    /// Workspace-level integration tests (`tests/`).
    Tests,
    /// `shims/<name>/…`.
    Shim(String),
    /// Root-package examples (`examples/`).
    Examples,
    /// Anything else (benches, xtask-style helpers).
    Other,
}

/// Classifies a workspace-relative path.
#[must_use]
pub fn scope_of(path: &str) -> Scope {
    let mut parts = path.split('/');
    match parts.next() {
        Some("crates") => parts
            .next()
            .map_or(Scope::Other, |c| Scope::Crate(c.to_string())),
        Some("shims") => parts
            .next()
            .map_or(Scope::Other, |s| Scope::Shim(s.to_string())),
        Some("src") => Scope::RootSrc,
        Some("tests") => Scope::Tests,
        Some("examples") => Scope::Examples,
        _ => Scope::Other,
    }
}

fn in_crates(scope: &Scope, names: &[&str]) -> bool {
    matches!(scope, Scope::Crate(c) if names.iter().any(|n| n == c))
}

/// Exact-time crates where `f32`/`f64` may not appear: every boundary
/// comparison in the paper's analysis is exact, and one float corrupts
/// all of them. Bench/report crates (`bench`, `trace`) are excluded.
const FLOAT_FREE: [&str; 8] = [
    "numeric",
    "core",
    "sim",
    "online",
    "obs",
    "conformance",
    "runtime",
    "pfair",
];

/// Crates whose values carry times, lags and weights — `as` narrowing on
/// those must go through `try_from` with a diagnostic.
const VALUE_CRATES: [&str; 12] = [
    "numeric",
    "core",
    "sim",
    "online",
    "obs",
    "conformance",
    "analysis",
    "taskmodel",
    "workload",
    "maxflow",
    "runtime",
    "pfair",
];

/// Scheduling and campaign code must be bit-for-bit deterministic:
/// violations replay from a seed, so wall clocks, hash-order iteration
/// and (in `runtime`, whose *decisions* must stay a pure function of the
/// workload even when execution rides real threads) unjustified thread
/// spawns are banned.
const DETERMINISTIC: [&str; 7] = [
    "analysis",
    "core",
    "sim",
    "online",
    "conformance",
    "workload",
    "runtime",
];

/// Crates that emit or forward [`SchedEvent`]s.
const OBSERVED: [&str; 3] = ["sim", "online", "obs"];

/// Function-name prefixes that make a function a *hot entry point*: the
/// drivers a simulation or online run spends its life inside. Everything
/// reachable from one of these through the call graph is hot.
pub const HOT_ENTRY_PREFIXES: [&str; 3] = ["simulate_", "run_until", "tick"];

/// Integer cast targets that can narrow the workspace's value types
/// (`i64` slots/quanta, `i128` rational components).
const NARROWING_TARGETS: [&str; 10] = [
    "i8", "i16", "i32", "i64", "u8", "u16", "u32", "u64", "usize", "isize",
];

/// Method-call markers that identify a time/lag/weight-typed expression.
const VALUE_METHODS: [&str; 6] = [
    ".num()",
    ".den()",
    ".floor()",
    ".ceil()",
    ".num_i64()",
    ".den_i64()",
];

/// Identifier fragments that identify a time/lag/weight-typed expression.
const VALUE_WORDS: [&str; 14] = [
    "lag",
    "time",
    "cost",
    "weight",
    "start",
    "deadline",
    "release",
    "tardiness",
    "theta",
    "horizon",
    "completion",
    "period",
    "slack",
    "waste",
];

fn is_word_char(c: char) -> bool {
    c.is_alphanumeric() || c == '_'
}

/// Finds `word` in `line` at word boundaries; returns byte offsets.
fn find_words(line: &str, word: &str) -> Vec<usize> {
    let mut out = Vec::new();
    let mut from = 0;
    while let Some(rel) = line[from..].find(word) {
        let pos = from + rel;
        let before_ok = line[..pos]
            .chars()
            .next_back()
            .is_none_or(|c| !is_word_char(c));
        let after_ok = line[pos + word.len()..]
            .chars()
            .next()
            .is_none_or(|c| !is_word_char(c));
        if before_ok && after_ok {
            out.push(pos);
        }
        from = pos + word.len();
    }
    out
}

/// The expression tail immediately preceding an `as` cast: the trailing
/// identifier/field/call chain, with balanced `(…)`/`[…]` groups included.
fn expr_tail(s: &str) -> String {
    let b: Vec<char> = s.trim_end().chars().collect();
    let mut i = b.len();
    while i > 0 {
        let c = b[i - 1];
        if c == ')' || c == ']' {
            let (open, close) = if c == ')' { ('(', ')') } else { ('[', ']') };
            let mut depth = 0;
            while i > 0 {
                let ch = b[i - 1];
                if ch == close {
                    depth += 1;
                } else if ch == open {
                    depth -= 1;
                    if depth == 0 {
                        i -= 1;
                        break;
                    }
                }
                i -= 1;
            }
            continue;
        }
        if is_word_char(c) || c == '.' {
            i -= 1;
            continue;
        }
        break;
    }
    b[i..].iter().collect()
}

/// Does `tail` read as a time/lag/weight value?
fn is_value_expr(tail: &str) -> bool {
    if VALUE_METHODS.iter().any(|m| tail.contains(m)) {
        return true;
    }
    tail.split(|c: char| !is_word_char(c))
        .filter(|w| !w.is_empty())
        .any(|w| {
            let lw = w.to_ascii_lowercase();
            VALUE_WORDS.iter().any(|v| lw.contains(v))
        })
}

/// Runs every per-file rule on one scanned file (suppressions are applied
/// later by the engine).
#[must_use]
pub fn per_file_findings(f: &ScannedFile) -> Vec<Diagnostic> {
    let scope = scope_of(&f.path);
    let mut out = Vec::new();
    let mut diag = |rule: &'static str, line: usize, message: String| {
        out.push(Diagnostic {
            rule,
            path: f.path.clone(),
            line: line + 1,
            message,
        });
    };

    for (i, line) in f.masked.iter().enumerate() {
        let ctx = f.ctx.get(i).copied().unwrap_or_default();
        if ctx.in_test {
            continue;
        }

        if in_crates(&scope, &FLOAT_FREE) {
            for ty in ["f32", "f64"] {
                if !find_words(line, ty).is_empty() {
                    diag(
                        "no-float-time",
                        i,
                        format!("`{ty}` in an exact-arithmetic crate: all times, lags and weights are exact rationals; floats break boundary comparisons"),
                    );
                }
            }
        }

        if in_crates(&scope, &VALUE_CRATES) || scope == Scope::RootSrc {
            for pos in find_words(line, "as") {
                let Some(target) = line[pos + 2..].split_whitespace().next() else {
                    continue;
                };
                let target: String = target.chars().take_while(|&c| is_word_char(c)).collect();
                if !NARROWING_TARGETS.contains(&target.as_str()) {
                    continue;
                }
                let tail = expr_tail(&line[..pos]);
                if is_value_expr(&tail) {
                    diag(
                        "no-lossy-cast",
                        i,
                        format!("`{} as {target}` narrows a time/lag/weight value silently; use `try_from` (or the `num_i64`/`den_i64` accessors) so overflow panics with a diagnostic", tail.trim()),
                    );
                }
            }
        }

        if in_crates(&scope, &DETERMINISTIC) {
            for ty in ["HashMap", "HashSet"] {
                if !find_words(line, ty).is_empty() {
                    diag(
                        "no-nondeterminism",
                        i,
                        format!("`{ty}` in scheduling/campaign code: iteration order varies across runs, breaking seed replay; use `BTreeMap`/`BTreeSet` or index by dense ids"),
                    );
                }
            }
            for pat in ["Instant::now", "SystemTime", "thread_rng", "from_entropy"] {
                if line.contains(pat) {
                    diag(
                        "no-nondeterminism",
                        i,
                        format!("`{pat}` injects wall-clock/entropy nondeterminism into code that must replay from a seed"),
                    );
                }
            }
            for pat in ["thread::spawn", "thread::scope", "crossbeam::scope"] {
                if line.contains(pat) {
                    diag(
                        "no-nondeterminism",
                        i,
                        format!("`{pat}` spawns threads in code whose decisions must replay from a seed; justify why scheduling stays deterministic (or replay-proven) despite the race"),
                    );
                }
            }
        }

        if in_crates(&scope, &OBSERVED) {
            if let Some(pos) = line.find(".on_event(") {
                let gated = ctx.enabled_gated
                    || ctx.in_on_event_fn
                    || line[..pos].contains("ENABLED")
                    || line.contains("fn on_event");
                if !gated {
                    diag(
                        "observer-gating",
                        i,
                        "observer emission not gated on `O::ENABLED`: ungated sites pay event-construction cost even under `NoopObserver`".to_string(),
                    );
                }
            }
        }
    }
    out
}

/// Is this function eligible for hot-path findings? Shims, tests,
/// examples and workspace-level test helpers assert behavior — only
/// production crate code answers for what happens inside a simulation.
fn hot_findings_apply(scope: &Scope) -> bool {
    matches!(scope, Scope::Crate(_))
}

/// The hot set: every non-test crate function whose name starts with a
/// [`HOT_ENTRY_PREFIXES`] prefix, plus everything reachable from one,
/// as a parent map for witness chains.
#[must_use]
pub fn hot_parents(scanned: &[ScannedFile], g: &Graph) -> BTreeMap<usize, usize> {
    let entries: Vec<usize> = (0..g.fns.len())
        .filter(|&i| {
            let f = &g.fns[i];
            !f.in_test
                && matches!(scope_of(&scanned[f.file].path), Scope::Crate(_))
                && HOT_ENTRY_PREFIXES.iter().any(|p| f.name.starts_with(p))
        })
        .collect();
    g.reach(&entries)
}

/// Semantic rules over the item graph: `panic-policy-v2` and
/// `alloc-in-hot-loop`, both scoped to the call-graph hot set, plus
/// `emission-parity` over the engines' [`TRACKED_ENUM`] construction
/// sites and the observer `match` coverage.
#[must_use]
pub fn graph_findings(scanned: &[ScannedFile], g: &Graph) -> Vec<Diagnostic> {
    let parents = hot_parents(scanned, g);
    let mut out = Vec::new();
    let mut seen: BTreeSet<(usize, usize, String)> = BTreeSet::new();

    for (fi, f) in g.fns.iter().enumerate() {
        if f.in_test || !parents.contains_key(&fi) {
            continue;
        }
        let file = &scanned[f.file];
        if !hot_findings_apply(&scope_of(&file.path)) {
            continue;
        }
        let chain = g.chain(&parents, fi);
        let via = if chain.contains('→') {
            format!("reachable via {chain}")
        } else {
            format!("a hot entry point, `{chain}`")
        };

        // panic-policy-v2: diagnostic-free panics anywhere in a hot body.
        for lineno in f.body.0..=f.body.1 {
            let Some(line) = file.masked.get(lineno - 1) else {
                continue;
            };
            if file.ctx.get(lineno - 1).is_some_and(|c| c.in_test) {
                continue;
            }
            let mut hit = |msg: String| {
                if seen.insert((f.file, lineno, msg.clone())) {
                    out.push(Diagnostic {
                        rule: "panic-policy-v2",
                        path: file.path.clone(),
                        line: lineno,
                        message: msg,
                    });
                }
            };
            if line.contains(".unwrap()") {
                hit(format!(
                    "bare `.unwrap()` on a hot path ({via}): use `.expect(\"<what invariant held and broke>\")`"
                ));
            }
            if line.contains(".expect(\"\")") {
                hit(format!(
                    "`.expect(\"\")` carries no diagnostic on a hot path ({via}); state the invariant that failed"
                ));
            }
            for bare in ["unreachable!()", "panic!()", "todo!(", "unimplemented!("] {
                if line.contains(bare) {
                    hit(format!(
                        "`{bare}…` without a message on a hot path ({via}); every panic must say which invariant broke"
                    ));
                }
            }
        }

        // alloc-in-hot-loop: allocation patterns inside loop bodies.
        for &(lo, hi) in &f.loops {
            for lineno in lo..=hi {
                let Some(line) = file.masked.get(lineno - 1) else {
                    continue;
                };
                if file.ctx.get(lineno - 1).is_some_and(|c| c.in_test) {
                    continue;
                }
                for pat in ["Vec::new(", "vec![", ".clone()", "format!(", ".to_string("] {
                    if line.contains(pat) {
                        let msg = format!(
                            "`{pat}…` allocates inside a loop on a hot path ({via}); hoist the allocation out of the loop or reuse a buffer"
                        );
                        if seen.insert((f.file, lineno, msg.clone())) {
                            out.push(Diagnostic {
                                rule: "alloc-in-hot-loop",
                                path: file.path.clone(),
                                line: lineno,
                                message: msg,
                            });
                        }
                    }
                }
            }
        }
    }

    out.extend(emission_parity(scanned, g));
    out
}

/// One engine whose emission vocabulary must stay in parity with the
/// others: its entry-point name prefix and the variants it is declared
/// exempt from emitting.
struct EngineSpec {
    name: &'static str,
    prefix: &'static str,
    exempt: &'static [&'static str],
}

/// The engines and their declared exemptions. The offline simulators
/// never see a release (their input is the full release sequence), so
/// `Released` is exempt there. `dvq`, `online-dvq` and `online-sfq` are
/// drivers of one kernel (`pfair_sim::kernel::DvqKernel`): their
/// `simulate_dvq*`, `run_until*` and `tick*` entries reach the same
/// emission sites in its step functions. The kernel constructs
/// `Released` only on online job submission, which no engine entry
/// reaches; `simulate_dvq` loads its chains without it, so the `dvq`
/// exemption stays live, and the online engines need none. `Blocked`
/// appears in no engine set by construction: it is synthesized by
/// `BlockingObserver`, and the collection below is restricted to the
/// emitting crates (`sim`, `online`).
const ENGINES: [EngineSpec; 7] = [
    EngineSpec {
        name: "sfq",
        prefix: "simulate_sfq",
        exempt: &["Released", "Blocked"],
    },
    EngineSpec {
        name: "dvq",
        prefix: "simulate_dvq",
        exempt: &["Released", "Blocked"],
    },
    EngineSpec {
        name: "staggered",
        prefix: "simulate_staggered",
        exempt: &["Released", "Blocked"],
    },
    EngineSpec {
        name: "bf",
        prefix: "simulate_bf",
        exempt: &["Released", "Blocked"],
    },
    EngineSpec {
        name: "flow",
        prefix: "simulate_flow",
        exempt: &["Released", "Blocked"],
    },
    EngineSpec {
        name: "online-sfq",
        prefix: "tick",
        exempt: &["Blocked"],
    },
    EngineSpec {
        name: "online-dvq",
        prefix: "run_until",
        exempt: &["Blocked"],
    },
];

/// Crates whose function bodies count as engine emission sites.
const EMITTING: [&str; 2] = ["sim", "online"];

/// Cross-engine emission parity, in three parts: (1) every engine's
/// constructed-variant set, unioned with its declared exemptions, must
/// equal every other engine's; (2) an exemption an engine nonetheless
/// constructs is stale; (3) every `match` over the tracked enum in the
/// observer crate must enumerate all declared variants with no `_ =>`
/// wildcard — the vocabulary is closed, and a new variant must be a
/// compile-or-lint-time event in every built-in observer, not a silent
/// fall-through.
fn emission_parity(scanned: &[ScannedFile], g: &Graph) -> Vec<Diagnostic> {
    let mut out = Vec::new();

    // Per-engine constructed sets with one witness site each.
    struct EngineSet<'a> {
        spec: &'a EngineSpec,
        entry: usize, // fn index of the first entry, for anchoring
        constructed: BTreeMap<String, (usize, usize, String)>, // variant → (file, line, chain)
    }
    let mut sets: Vec<EngineSet<'_>> = Vec::new();
    for spec in &ENGINES {
        let entries: Vec<usize> = (0..g.fns.len())
            .filter(|&i| {
                let f = &g.fns[i];
                !f.in_test
                    && f.name.starts_with(spec.prefix)
                    && in_crates(&scope_of(&scanned[f.file].path), &EMITTING)
            })
            .collect();
        let Some(&entry) = entries.first() else {
            continue;
        };
        let parents = g.reach(&entries);
        let mut constructed: BTreeMap<String, (usize, usize, String)> = BTreeMap::new();
        for &fi in parents.keys() {
            let f = &g.fns[fi];
            if f.in_test || !in_crates(&scope_of(&scanned[f.file].path), &EMITTING) {
                continue;
            }
            for (variant, line) in &f.event_refs {
                constructed
                    .entry(variant.clone())
                    .or_insert_with(|| (f.file, *line, g.chain(&parents, fi)));
            }
        }
        sets.push(EngineSet {
            spec,
            entry,
            constructed,
        });
    }

    if sets.len() >= 2 {
        // Effective vocabulary union.
        let mut union: BTreeMap<String, String> = BTreeMap::new(); // variant → witness text
        for s in &sets {
            for (v, (file, line, chain)) in &s.constructed {
                union.entry(v.clone()).or_insert_with(|| {
                    format!(
                        "`{}` does ({}:{}, reachable via {})",
                        s.spec.name, scanned[*file].path, line, chain
                    )
                });
            }
        }
        for s in &sets {
            let entry_fn = &g.fns[s.entry];
            for (v, witness) in &union {
                let exempt = s.spec.exempt.contains(&v.as_str());
                if !exempt && !s.constructed.contains_key(v) {
                    out.push(Diagnostic {
                        rule: "emission-parity",
                        path: scanned[entry_fn.file].path.clone(),
                        line: entry_fn.line,
                        message: format!(
                            "engine `{}` never constructs `{TRACKED_ENUM}::{v}`, but {witness}; restore the emission site or declare a per-engine exemption in the lint",
                            s.spec.name
                        ),
                    });
                }
            }
            for v in s.spec.exempt {
                if let Some((file, line, chain)) = s.constructed.get(*v) {
                    out.push(Diagnostic {
                        rule: "emission-parity",
                        path: scanned[*file].path.clone(),
                        line: *line,
                        message: format!(
                            "engine `{}` declares `{TRACKED_ENUM}::{v}` exempt but constructs it here (reachable via {chain}); drop the stale exemption",
                            s.spec.name
                        ),
                    });
                }
            }
        }
    }

    // Observer match coverage against the declared variant vocabulary.
    let declared: Option<&crate::graph::EnumDef> = g.enums.iter().find(|e| e.name == TRACKED_ENUM);
    if let Some(decl) = declared {
        let all: BTreeSet<&str> = decl.variants.iter().map(String::as_str).collect();
        for m in &g.matches {
            if m.in_test || m.variants.is_empty() {
                continue;
            }
            if !in_crates(&scope_of(&scanned[m.file].path), &["obs"]) {
                continue;
            }
            if m.wildcard {
                out.push(Diagnostic {
                    rule: "emission-parity",
                    path: scanned[m.file].path.clone(),
                    line: m.line,
                    message: format!(
                        "`match` over `{TRACKED_ENUM}` uses a `_ =>` wildcard: the event vocabulary is closed; enumerate the variants so adding one is a lint-time event, not a silent fall-through"
                    ),
                });
            } else {
                let missing: Vec<&str> = all
                    .iter()
                    .copied()
                    .filter(|v| !m.variants.contains(*v))
                    .collect();
                if !missing.is_empty() {
                    out.push(Diagnostic {
                        rule: "emission-parity",
                        path: scanned[m.file].path.clone(),
                        line: m.line,
                        message: format!(
                            "`match` over `{TRACKED_ENUM}` does not handle variant(s) {}; the vocabulary is closed — handle them explicitly",
                            missing
                                .iter()
                                .map(|v| format!("`{v}`"))
                                .collect::<Vec<_>>()
                                .join(", ")
                        ),
                    });
                }
            }
        }
    }

    out
}

/// Dead-pub: every top-level fully-`pub` item in the crates, shims and
/// root `src/` must be referenced somewhere else in the workspace
/// (examples, tests and benches count as usage). This generalizes PR 4's
/// shim-drift rule — shims exist to cover exactly the API surface the
/// crates use, and crate exports nobody references are drift in the
/// other direction. Shim sources themselves count as usage (minus the
/// defining line) so helpers reached through macro expansions —
/// `$crate::…` paths in a `macro_rules!` body — are not false positives.
/// `#[proc_macro*]` entry points are exempt (referenced via derive
/// attributes, not by name), as is `main`.
#[must_use]
pub fn dead_pub(scanned: &[ScannedFile], g: &Graph) -> Vec<Diagnostic> {
    // Usage corpus: every masked source line of every scanned file.
    let corpus: String = scanned
        .iter()
        .flat_map(|f| f.masked.iter().map(|l| format!("{l}\n")))
        .collect();

    let mut out = Vec::new();
    for item in &g.pub_items {
        if item.in_test || item.name == "main" {
            continue;
        }
        let file = &scanned[item.file];
        let scope = scope_of(&file.path);
        let shim = matches!(scope, Scope::Shim(_));
        if !matches!(scope, Scope::Crate(_) | Scope::Shim(_) | Scope::RootSrc) {
            continue;
        }
        let total = find_words(&corpus, &item.name).len();
        let on_def_line = file
            .masked
            .get(item.line - 1)
            .map_or(0, |l| find_words(l, &item.name).len());
        if total <= on_def_line {
            let message = if shim {
                format!(
                    "shim item `{}` is referenced nowhere else in the workspace; shims may not grow surface beyond what the crates use",
                    item.name
                )
            } else {
                format!(
                    "pub {} `{}` is referenced nowhere else in the workspace; delete it, narrow it to `pub(crate)`, or justify the export",
                    item.kind, item.name
                )
            };
            out.push(Diagnostic {
                rule: "dead-pub",
                path: file.path.clone(),
                line: item.line,
                message,
            });
        }
    }
    out
}

/// Misplaced suppressions: an `allow(…)` suppression inside a `///`,
/// `//!` or `/** … */` doc comment is rendered documentation, not policy
/// — the engine never honors it there. Flag each one with the fix.
#[must_use]
pub fn misplaced_suppressions(scanned: &[ScannedFile]) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    for f in scanned {
        for (i, allows) in f.misplaced_allows.iter().enumerate() {
            for a in allows {
                out.push(Diagnostic {
                    rule: "misplaced-suppression",
                    path: f.path.clone(),
                    line: i + 1,
                    message: format!(
                        "`pfair-lint: allow({})` inside a doc comment is inert: suppressions are honored only in plain `//` comments on the finding's line or the line above; move it out of the docs",
                        a.rule
                    ),
                });
            }
        }
    }
    out
}
