//! The item graph: every `fn`/`impl`/`struct`/`enum` in the workspace,
//! with a conservative call graph over the functions.
//!
//! Built from the token stream (no `rustc`, no dependencies) by tracking
//! brace frames whose headers — the tokens since the last `;`/`{`/`}`
//! boundary — classify each block as a module, function, impl, trait,
//! enum, `match`, loop, or plain block. On top of the items:
//!
//! * **calls** are collected per function body (free calls, `.method(…)`
//!   calls, and `Path::to::fn(…)` calls, turbofish included) and resolved
//!   *by name*, conservatively: a method call edges to every workspace
//!   method of that name, a `Type::f` call to the impls of `Type` when
//!   the workspace knows the type (falling back to free functions for
//!   module paths). Over-approximation is the safe direction here — a
//!   spurious edge can only make the hot set larger;
//! * **reachability** (`reach`) BFS-walks the resolved edges from a set
//!   of entry functions, recording parent pointers so every diagnostic
//!   can print the witness chain (`reachable via a → b → c`);
//! * **loops**, **`match` expressions over tracked enums**, **enum
//!   variant declarations**, and **top-level `pub` items** are recorded
//!   for the `alloc-in-hot-loop`, `emission-parity`, and `dead-pub`
//!   rules.
//!
//! Function bodies templated inside `macro_rules!` definitions are
//! deliberately not graphed (their `$metavariables` are not items); the
//! text-corpus usage counting in `dead-pub` still sees them.

use std::collections::{BTreeMap, BTreeSet, VecDeque};

use crate::scan::ScannedFile;
use crate::tokens::{Tok, TokKind};

/// The enum whose construction sites and `match` coverage the
/// emission-parity rule tracks.
pub const TRACKED_ENUM: &str = "SchedEvent";

/// One call site inside a function body.
#[derive(Clone, Debug)]
pub struct CallSite {
    /// The qualifying path segment directly before the name
    /// (`Rat::int(…)` → `Rat`), if any. `Self` is resolved against the
    /// caller's impl type.
    pub qual: Option<String>,
    /// The called name.
    pub name: String,
    /// Whether this was a `.name(…)` method call.
    pub method: bool,
    /// 1-based line.
    pub line: usize,
}

/// One function in the workspace.
#[derive(Clone, Debug)]
pub struct FnItem {
    /// The function's name.
    pub name: String,
    /// Index into the scanned-file slice the graph was built from.
    pub file: usize,
    /// 1-based line of the `fn` header's opening brace.
    pub line: usize,
    /// 1-based inclusive line range of the body (opening to closing
    /// brace).
    pub body: (usize, usize),
    /// Declared `pub` (unrestricted — `pub(crate)` and narrower count as
    /// private).
    pub is_pub: bool,
    /// Inside a `#[cfg(test)]` region (directly or via an enclosing
    /// item).
    pub in_test: bool,
    /// The `impl` target type, for methods.
    pub impl_ty: Option<String>,
    /// Call sites in the body.
    pub calls: Vec<CallSite>,
    /// Line ranges of `for`/`while`/`loop` bodies in this function
    /// (nested loops appear once per loop).
    pub loops: Vec<(usize, usize)>,
    /// `TRACKED_ENUM::Variant` occurrences in the body: `(variant, line)`.
    pub event_refs: Vec<(String, usize)>,
}

/// A top-level item (for `dead-pub`).
#[derive(Clone, Debug)]
pub struct PubItem {
    /// Item kind keyword (`fn`, `struct`, `enum`, `trait`, `type`,
    /// `const`, `static`, `mod`, `macro_rules`).
    pub kind: String,
    /// The item's name.
    pub name: String,
    /// Index into the scanned-file slice.
    pub file: usize,
    /// 1-based line of the item header.
    pub line: usize,
    /// Inside a `#[cfg(test)]` region.
    pub in_test: bool,
}

/// An enum declaration with its variants.
#[derive(Clone, Debug)]
pub struct EnumDef {
    /// The enum's name.
    pub name: String,
    /// Index into the scanned-file slice.
    pub file: usize,
    /// 1-based line.
    pub line: usize,
    /// Variant names, in declaration order.
    pub variants: Vec<String>,
}

/// A `match` expression that mentions the tracked enum.
#[derive(Clone, Debug)]
pub struct MatchExpr {
    /// Index into the scanned-file slice.
    pub file: usize,
    /// 1-based line of the `match` block's opening brace.
    pub line: usize,
    /// Inside a `#[cfg(test)]` region.
    pub in_test: bool,
    /// `TRACKED_ENUM::Variant` names mentioned directly under this match
    /// (not under a nested match).
    pub variants: BTreeSet<String>,
    /// Whether a top-level `_ =>` arm is present.
    pub wildcard: bool,
}

/// The workspace item graph.
#[derive(Clone, Debug, Default)]
pub struct Graph {
    /// Every function, across all files.
    pub fns: Vec<FnItem>,
    /// Top-level `pub` items.
    pub pub_items: Vec<PubItem>,
    /// Enum declarations (with variants).
    pub enums: Vec<EnumDef>,
    /// `match` expressions mentioning the tracked enum.
    pub matches: Vec<MatchExpr>,
    /// Resolved adjacency: `edges[f]` are the functions `f` may call.
    pub edges: Vec<Vec<usize>>,
}

#[derive(Clone, Debug, PartialEq, Eq)]
enum FrameKind {
    Mod,
    Fn(usize),
    Impl(Option<String>),
    Trait,
    Enum(usize),
    Struct,
    Match(usize),
    Loop(usize),
    Macro,
    Block,
}

struct Frame {
    kind: FrameKind,
    test: bool,
    paren0: i32,
    bracket0: i32,
    expect_variant: bool,
}

const KEYWORDS: [&str; 34] = [
    "if", "while", "for", "match", "loop", "return", "fn", "let", "move", "ref", "in", "as",
    "else", "unsafe", "break", "continue", "use", "pub", "impl", "struct", "enum", "trait", "type",
    "const", "static", "mod", "where", "dyn", "box", "await", "async", "self", "super", "crate",
];

const ITEM_KINDS: [&str; 9] = [
    "fn",
    "struct",
    "enum",
    "trait",
    "type",
    "const",
    "static",
    "mod",
    "macro_rules",
];

impl Graph {
    /// Builds the item graph over `files` and resolves the call edges.
    #[must_use]
    pub fn build(files: &[ScannedFile]) -> Graph {
        let mut g = Graph::default();
        for (fi, f) in files.iter().enumerate() {
            parse_file(&mut g, fi, &f.tokens);
        }
        let leaf: Vec<bool> = files.iter().map(|f| is_leaf_target(&f.path)).collect();
        g.resolve(&leaf);
        g
    }

    /// Name → function indices, for entry-point selection.
    #[must_use]
    pub fn fns_named(&self, pred: impl Fn(&str) -> bool) -> Vec<usize> {
        (0..self.fns.len())
            .filter(|&i| pred(&self.fns[i].name))
            .collect()
    }

    /// BFS over the call edges from `entries`; returns a parent map
    /// (`fn → caller`, entries map to themselves). Test functions are
    /// never traversed *into* as entries but are reachable like any
    /// other node (the rules filter findings by context).
    #[must_use]
    pub fn reach(&self, entries: &[usize]) -> BTreeMap<usize, usize> {
        let mut parent: BTreeMap<usize, usize> = BTreeMap::new();
        let mut queue: VecDeque<usize> = VecDeque::new();
        let mut sorted: Vec<usize> = entries.to_vec();
        sorted.sort_unstable();
        for &e in &sorted {
            if let std::collections::btree_map::Entry::Vacant(v) = parent.entry(e) {
                v.insert(e);
                queue.push_back(e);
            }
        }
        while let Some(f) = queue.pop_front() {
            for &c in &self.edges[f] {
                if let std::collections::btree_map::Entry::Vacant(v) = parent.entry(c) {
                    v.insert(f);
                    queue.push_back(c);
                }
            }
        }
        parent
    }

    /// The witness chain `entry → … → f` as function names, from a
    /// parent map produced by [`Graph::reach`].
    #[must_use]
    pub fn chain(&self, parents: &BTreeMap<usize, usize>, f: usize) -> String {
        let mut names: Vec<&str> = Vec::new();
        let mut cur = f;
        loop {
            names.push(&self.fns[cur].name);
            let p = parents.get(&cur).copied().unwrap_or(cur);
            if p == cur {
                break;
            }
            cur = p;
        }
        names.reverse();
        names.join(" → ")
    }

    /// Resolves every call site to its candidate functions. `leaf[file]`
    /// marks files no library code can call ([`is_leaf_target`]): calls
    /// from outside them get no edge into them.
    fn resolve(&mut self, leaf: &[bool]) {
        // Known workspace types: impl targets plus declared type names.
        let mut type_names: BTreeSet<&str> = BTreeSet::new();
        for it in &self.pub_items {
            if matches!(it.kind.as_str(), "struct" | "enum" | "trait") {
                type_names.insert(&it.name);
            }
        }
        for f in &self.fns {
            if let Some(t) = &f.impl_ty {
                type_names.insert(t);
            }
        }
        let mut by_name: BTreeMap<&str, Vec<usize>> = BTreeMap::new();
        for (i, f) in self.fns.iter().enumerate() {
            by_name.entry(&f.name).or_default().push(i);
        }
        let mut edges: Vec<Vec<usize>> = Vec::with_capacity(self.fns.len());
        for f in &self.fns {
            let mut out: BTreeSet<usize> = BTreeSet::new();
            for call in &f.calls {
                let Some(cands) = by_name.get(call.name.as_str()) else {
                    continue;
                };
                let qual = match call.qual.as_deref() {
                    Some("Self") => f.impl_ty.clone(),
                    q => q.map(str::to_string),
                };
                match qual {
                    Some(q) => {
                        let of_type: Vec<usize> = cands
                            .iter()
                            .copied()
                            .filter(|&c| self.fns[c].impl_ty.as_deref() == Some(q.as_str()))
                            .collect();
                        if !of_type.is_empty() {
                            out.extend(of_type);
                        } else if !type_names.contains(q.as_str()) {
                            // A module path (`emit::flush_ends`): free fns.
                            out.extend(
                                cands
                                    .iter()
                                    .copied()
                                    .filter(|&c| self.fns[c].impl_ty.is_none()),
                            );
                        }
                        // A known type with no such workspace method:
                        // std/shim associated fn or a variant constructor —
                        // no edge.
                    }
                    None if call.method => {
                        // `.name(…)`: every workspace method of that name
                        // (dyn dispatch over-approximation).
                        out.extend(
                            cands
                                .iter()
                                .copied()
                                .filter(|&c| self.fns[c].impl_ty.is_some()),
                        );
                    }
                    None => {
                        out.extend(
                            cands
                                .iter()
                                .copied()
                                .filter(|&c| self.fns[c].impl_ty.is_none()),
                        );
                    }
                }
            }
            if !leaf[f.file] {
                out.retain(|&c| !leaf[self.fns[c].file]);
            }
            edges.push(out.into_iter().collect());
        }
        self.edges = edges;
    }
}

/// Whether `path` lies in a `tests/`, `examples/` or `benches/` tree
/// outside any `src/`: each such file builds its own crate on top of the
/// libraries, so nothing in a library can call into it. Name-resolved
/// method calls would otherwise route an engine's reach through a test
/// helper that merely shares a method name.
fn is_leaf_target(path: &str) -> bool {
    let mut dirs = path.split('/');
    dirs.next_back();
    for dir in dirs {
        match dir {
            "src" => return false,
            "tests" | "examples" | "benches" => return true,
            _ => {}
        }
    }
    false
}

fn buf_has_ident(toks: &[Tok], buf: &[usize], name: &str) -> bool {
    buf.iter().any(|&k| toks[k].is_ident(name))
}

fn buf_has_cfg_test(toks: &[Tok], buf: &[usize]) -> bool {
    buf.windows_cfg_test(toks)
}

trait CfgTest {
    fn windows_cfg_test(&self, toks: &[Tok]) -> bool;
}

impl CfgTest for [usize] {
    fn windows_cfg_test(&self, toks: &[Tok]) -> bool {
        // `cfg` `(` … `test` …: attribute tokens land in the header
        // buffer, so an adjacency scan suffices.
        self.iter().enumerate().any(|(i, &k)| {
            toks[k].is_ident("cfg")
                && self[i + 1..]
                    .iter()
                    .take(4)
                    .any(|&k2| toks[k2].is_ident("test"))
        })
    }
}

/// The impl target's last path segment: `impl<T> a::b::Ty<T> for …` and
/// `impl Tr for Ty` both yield `Ty`.
fn impl_target(toks: &[Tok], buf: &[usize]) -> Option<String> {
    let pos = buf.iter().position(|&k| toks[k].is_ident("impl"))?;
    let rest = &buf[pos + 1..];
    let mut i = 0;
    // Skip the generic parameter list, tolerating `->` inside bounds.
    if rest.first().is_some_and(|&k| toks[k].is_punct('<')) {
        let mut depth = 0i32;
        let mut prev_minus = false;
        while i < rest.len() {
            let t = &toks[rest[i]];
            if t.is_punct('<') {
                depth += 1;
            } else if t.is_punct('>') && !prev_minus {
                depth -= 1;
                if depth == 0 {
                    i += 1;
                    break;
                }
            }
            prev_minus = t.is_punct('-');
            i += 1;
        }
    }
    // If a `for` appears at angle depth 0, the type path follows it.
    let mut angle = 0i32;
    let mut prev_minus = false;
    let mut start = i;
    for (j, &k) in rest.iter().enumerate().skip(i) {
        let t = &toks[k];
        if t.is_punct('<') {
            angle += 1;
        } else if t.is_punct('>') && !prev_minus {
            angle -= 1;
        } else if angle == 0 && t.is_ident("for") {
            start = j + 1;
        }
        prev_minus = t.is_punct('-');
    }
    // Last path segment before the type's own generics.
    let mut name: Option<String> = None;
    let mut angle = 0i32;
    let mut prev_minus = false;
    for &k in rest.iter().skip(start) {
        let t = &toks[k];
        if t.is_punct('<') {
            angle += 1;
            if angle > 0 && name.is_some() {
                break;
            }
        } else if t.is_punct('>') && !prev_minus {
            angle -= 1;
        } else if angle == 0 && t.kind == TokKind::Ident && !KEYWORDS.contains(&t.text.as_str()) {
            name = Some(t.text.clone());
        } else if angle == 0 && t.is_punct('&') {
            // `impl Tr for &mut O` — keep scanning.
        }
        prev_minus = t.is_punct('-');
    }
    name
}

fn innermost_fn(frames: &[Frame]) -> Option<usize> {
    frames.iter().rev().find_map(|fr| match fr.kind {
        FrameKind::Fn(i) => Some(i),
        _ => None,
    })
}

#[allow(clippy::too_many_lines)] // one linear scan over the token stream; the frame transitions read best together
fn parse_file(g: &mut Graph, fi: usize, toks: &[Tok]) {
    let mut frames: Vec<Frame> = Vec::new();
    let mut buf: Vec<usize> = Vec::new();
    let mut paren = 0i32;
    let mut bracket = 0i32;

    let all_mod = |frames: &[Frame]| frames.iter().all(|f| f.kind == FrameKind::Mod);
    let in_macro = |frames: &[Frame]| frames.iter().any(|f| f.kind == FrameKind::Macro);

    let mut k = 0usize;
    while k < toks.len() {
        let t = &toks[k];

        // --- pattern detection (pure lookaround, consumes nothing) ---
        if t.kind == TokKind::Ident && !in_macro(&frames) {
            let prev = k.checked_sub(1).map(|p| &toks[p]);
            let at_path_head = !prev.is_some_and(|p| p.is_punct(':'));
            let is_method = prev.is_some_and(|p| p.is_punct('.'));
            let after_fn_kw = prev.is_some_and(|p| p.is_ident("fn"));
            if at_path_head && !after_fn_kw {
                // Collect the path `a::b::c`.
                let mut segs: Vec<&str> = vec![&t.text];
                let mut j = k;
                while toks.get(j + 1).is_some_and(|x| x.is_punct(':'))
                    && toks.get(j + 2).is_some_and(|x| x.is_punct(':'))
                    && toks.get(j + 3).is_some_and(|x| x.kind == TokKind::Ident)
                {
                    segs.push(&toks[j + 3].text);
                    j += 3;
                }
                // Tracked-enum reference: `SchedEvent::Variant` anywhere.
                if segs.len() >= 2 && segs[0] == TRACKED_ENUM {
                    let variant = segs[1].to_string();
                    if let Some(fidx) = innermost_fn(&frames) {
                        g.fns[fidx].event_refs.push((variant.clone(), t.line));
                    }
                    if let Some(m) = frames.iter().rev().find_map(|fr| match fr.kind {
                        FrameKind::Match(i) => Some(i),
                        _ => None,
                    }) {
                        g.matches[m].variants.insert(variant);
                    }
                }
                // Turbofish `::<…>` between the path and the call parens.
                let mut end = j;
                if toks.get(j + 1).is_some_and(|x| x.is_punct(':'))
                    && toks.get(j + 2).is_some_and(|x| x.is_punct(':'))
                    && toks.get(j + 3).is_some_and(|x| x.is_punct('<'))
                {
                    let mut depth = 0i32;
                    let mut m = j + 3;
                    let mut prev_minus = false;
                    while m < toks.len() {
                        let x = &toks[m];
                        if x.is_punct('<') {
                            depth += 1;
                        } else if x.is_punct('>') && !prev_minus {
                            depth -= 1;
                            if depth == 0 {
                                break;
                            }
                        }
                        prev_minus = x.is_punct('-');
                        m += 1;
                    }
                    end = m;
                }
                let called = toks.get(end + 1).is_some_and(|x| x.is_punct('('));
                let is_macro_call = toks.get(end + 1).is_some_and(|x| x.is_punct('!'));
                let name = (*segs.last().expect("path has at least one segment")).to_string();
                let record = if segs.len() >= 2 {
                    // Qualified paths are informative even without parens
                    // (`map(Rat::int)` passes the fn by name).
                    !is_macro_call
                } else {
                    called && !is_macro_call && !KEYWORDS.contains(&name.as_str())
                };
                if record {
                    if let Some(fidx) = innermost_fn(&frames) {
                        let qual = if segs.len() >= 2 {
                            Some(segs[segs.len() - 2].to_string())
                        } else {
                            None
                        };
                        g.fns[fidx].calls.push(CallSite {
                            qual,
                            name,
                            method: is_method && segs.len() == 1,
                            line: t.line,
                        });
                    }
                }
            }
            // Enum variant declarations.
            if let Some(fr) = frames.last_mut() {
                if let FrameKind::Enum(ei) = fr.kind {
                    if fr.expect_variant
                        && paren == fr.paren0
                        && bracket == fr.bracket0
                        && at_path_head
                    {
                        g.enums[ei].variants.push(t.text.clone());
                        fr.expect_variant = false;
                    }
                }
            }
            // Top-level wildcard arm in a tracked match.
            if t.text == "_"
                && toks.get(k + 1).is_some_and(|x| x.is_punct('='))
                && toks.get(k + 2).is_some_and(|x| x.is_punct('>'))
            {
                if let Some(fr) = frames.last() {
                    if let FrameKind::Match(mi) = fr.kind {
                        if paren == fr.paren0 && bracket == fr.bracket0 {
                            g.matches[mi].wildcard = true;
                        }
                    }
                }
            }
        }

        // --- frame machinery ---
        if t.kind == TokKind::Punct {
            let c = t.text.chars().next().unwrap_or(' ');
            match c {
                '(' => {
                    paren += 1;
                    buf.push(k);
                }
                ')' => {
                    paren -= 1;
                    buf.push(k);
                }
                '[' => {
                    bracket += 1;
                    buf.push(k);
                }
                ']' => {
                    bracket -= 1;
                    buf.push(k);
                }
                ',' => {
                    if let Some(fr) = frames.last_mut() {
                        if matches!(fr.kind, FrameKind::Enum(_))
                            && paren == fr.paren0
                            && bracket == fr.bracket0
                        {
                            fr.expect_variant = true;
                        }
                    }
                    buf.push(k);
                }
                '{' => {
                    let parent_test = frames.last().is_some_and(|f| f.test);
                    let test = parent_test || buf_has_cfg_test(toks, &buf);
                    let is_proc_macro = buf.iter().any(|&b| toks[b].text.starts_with("proc_macro"));
                    let kind = classify_header(g, fi, toks, &buf, &frames, t.line, test);
                    if all_mod(&frames) && !in_macro(&frames) && !is_proc_macro {
                        record_item(g, fi, toks, &buf, test, &kind);
                    }
                    frames.push(Frame {
                        kind,
                        test,
                        paren0: paren,
                        bracket0: bracket,
                        expect_variant: true,
                    });
                    buf.clear();
                }
                '}' => {
                    if let Some(fr) = frames.pop() {
                        match fr.kind {
                            FrameKind::Fn(i) => g.fns[i].body.1 = t.line,
                            FrameKind::Loop(start) => {
                                if let Some(fidx) = innermost_fn(&frames) {
                                    g.fns[fidx].loops.push((start, t.line));
                                }
                            }
                            _ => {}
                        }
                    }
                    buf.clear();
                }
                ';' => {
                    if all_mod(&frames) && !in_macro(&frames) {
                        let test =
                            frames.last().is_some_and(|f| f.test) || buf_has_cfg_test(toks, &buf);
                        let is_proc_macro =
                            buf.iter().any(|&b| toks[b].text.starts_with("proc_macro"));
                        if !is_proc_macro && !buf_has_ident(toks, &buf, "use") {
                            record_semi_item(g, fi, toks, &buf, test);
                        }
                    }
                    buf.clear();
                }
                _ => buf.push(k),
            }
        } else {
            buf.push(k);
        }
        k += 1;
    }
}

/// Classifies the block opened by a `{` from its header tokens, creating
/// the graph node for function/enum/match frames as a side effect.
fn classify_header(
    g: &mut Graph,
    fi: usize,
    toks: &[Tok],
    buf: &[usize],
    frames: &[Frame],
    open_line: usize,
    test: bool,
) -> FrameKind {
    let has = |w: &str| buf_has_ident(toks, buf, w);
    if buf_has_ident(toks, buf, "macro_rules") {
        return FrameKind::Macro;
    }
    if frames.iter().any(|f| f.kind == FrameKind::Macro) {
        return FrameKind::Block;
    }
    if has("fn") {
        let pos = buf
            .iter()
            .position(|&k| toks[k].is_ident("fn"))
            .expect("checked above");
        let name = buf[pos + 1..]
            .iter()
            .find(|&&k| toks[k].kind == TokKind::Ident)
            .map(|&k| toks[k].text.clone())
            .unwrap_or_default();
        let is_pub = is_pub_header(toks, buf);
        let impl_ty = frames.iter().rev().find_map(|f| match &f.kind {
            FrameKind::Impl(t) => t.clone(),
            _ => None,
        });
        g.fns.push(FnItem {
            name,
            file: fi,
            line: toks[buf[pos]].line,
            body: (open_line, open_line),
            is_pub,
            in_test: test,
            impl_ty,
            calls: Vec::new(),
            loops: Vec::new(),
            event_refs: Vec::new(),
        });
        return FrameKind::Fn(g.fns.len() - 1);
    }
    if has("impl") {
        return FrameKind::Impl(impl_target(toks, buf));
    }
    if has("trait") {
        return FrameKind::Trait;
    }
    if has("enum") {
        let pos = buf
            .iter()
            .position(|&k| toks[k].is_ident("enum"))
            .expect("checked above");
        let name = buf[pos + 1..]
            .iter()
            .find(|&&k| toks[k].kind == TokKind::Ident)
            .map(|&k| toks[k].text.clone())
            .unwrap_or_default();
        g.enums.push(EnumDef {
            name,
            file: fi,
            line: toks[buf[pos]].line,
            variants: Vec::new(),
        });
        return FrameKind::Enum(g.enums.len() - 1);
    }
    if has("struct") || has("union") {
        return FrameKind::Struct;
    }
    if has("mod") {
        return FrameKind::Mod;
    }
    if has("match") {
        g.matches.push(MatchExpr {
            file: fi,
            line: open_line,
            in_test: test,
            variants: BTreeSet::new(),
            wildcard: false,
        });
        return FrameKind::Match(g.matches.len() - 1);
    }
    if has("for") || has("while") || has("loop") {
        return FrameKind::Loop(open_line);
    }
    FrameKind::Block
}

/// `pub` with no `(restriction)` directly after it.
fn is_pub_header(toks: &[Tok], buf: &[usize]) -> bool {
    buf.iter().enumerate().any(|(i, &k)| {
        toks[k].is_ident("pub") && !buf.get(i + 1).is_some_and(|&k2| toks[k2].is_punct('('))
    })
}

/// Records a braced top-level item (`fn`/`struct`/`enum`/`trait`/`mod`/
/// `macro_rules`) into `pub_items` when it is public.
fn record_item(
    g: &mut Graph,
    fi: usize,
    toks: &[Tok],
    buf: &[usize],
    test: bool,
    kind: &FrameKind,
) {
    let (kw, name, line) = match kind {
        FrameKind::Fn(i) => ("fn", g.fns[*i].name.clone(), g.fns[*i].line),
        FrameKind::Enum(i) => ("enum", g.enums[*i].name.clone(), g.enums[*i].line),
        FrameKind::Macro => {
            // Public iff `#[macro_export]`-attributed.
            if !buf_has_ident(toks, buf, "macro_export") {
                return;
            }
            let pos = buf
                .iter()
                .position(|&k| toks[k].is_ident("macro_rules"))
                .expect("Macro frames always contain macro_rules");
            let name = buf[pos + 1..]
                .iter()
                .find(|&&k| toks[k].kind == TokKind::Ident)
                .map(|&k| toks[k].text.clone())
                .unwrap_or_default();
            ("macro_rules", name, toks[buf[pos]].line)
        }
        FrameKind::Struct | FrameKind::Trait | FrameKind::Mod => {
            let Some(pos) = buf.iter().position(|&k| {
                toks[k].is_ident("struct")
                    || toks[k].is_ident("union")
                    || toks[k].is_ident("trait")
                    || toks[k].is_ident("mod")
            }) else {
                return; // the crate root is a `Mod` frame with no header
            };
            let kw = if toks[buf[pos]].is_ident("trait") {
                "trait"
            } else if toks[buf[pos]].is_ident("mod") {
                "mod"
            } else {
                "struct"
            };
            let name = buf[pos + 1..]
                .iter()
                .find(|&&k| toks[k].kind == TokKind::Ident)
                .map(|&k| toks[k].text.clone())
                .unwrap_or_default();
            (kw, name, toks[buf[pos]].line)
        }
        _ => return,
    };
    let is_pub = match kind {
        FrameKind::Fn(i) => g.fns[*i].is_pub,
        FrameKind::Macro => true, // macro_export established above
        _ => is_pub_header(toks, buf),
    };
    if is_pub && !name.is_empty() {
        g.pub_items.push(PubItem {
            kind: kw.to_string(),
            name,
            file: fi,
            line,
            in_test: test,
        });
    }
}

/// Records a `;`-terminated top-level item (`struct Unit;`, `const`,
/// `static`, `type`, `mod decl;`).
fn record_semi_item(g: &mut Graph, fi: usize, toks: &[Tok], buf: &[usize], test: bool) {
    let Some(pos) = buf.iter().position(|&k| {
        let t = &toks[k];
        t.kind == TokKind::Ident && ITEM_KINDS.contains(&t.text.as_str()) && !t.is_ident("fn")
    }) else {
        return;
    };
    if !is_pub_header(toks, buf) {
        return;
    }
    let kw = toks[buf[pos]].text.clone();
    let name = buf[pos + 1..]
        .iter()
        .find(|&&k| toks[k].kind == TokKind::Ident)
        .map(|&k| toks[k].text.clone())
        .unwrap_or_default();
    if name.is_empty() {
        return;
    }
    g.pub_items.push(PubItem {
        kind: kw,
        name,
        file: fi,
        line: toks[buf[pos]].line,
        in_test: test,
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scan::scan;

    fn graph_of(files: &[(&str, &str)]) -> (Graph, Vec<ScannedFile>) {
        let scanned: Vec<ScannedFile> = files.iter().map(|(p, s)| scan(p, s)).collect();
        (Graph::build(&scanned), scanned)
    }

    #[test]
    fn items_and_bodies_are_extracted() {
        let src = "pub fn simulate_x() {\n    helper();\n}\n\nfn helper() {\n    let v = 1;\n}\n\npub struct S;\npub const K: u64 = 3;\n#[cfg(test)]\nmod tests {\n    fn t() {}\n}\n";
        let (g, _) = graph_of(&[("crates/sim/src/a.rs", src)]);
        let names: Vec<&str> = g.fns.iter().map(|f| f.name.as_str()).collect();
        assert_eq!(names, ["simulate_x", "helper", "t"]);
        assert!(g.fns[0].is_pub && !g.fns[1].is_pub);
        assert!(g.fns[2].in_test);
        assert_eq!(g.fns[0].body, (1, 3));
        let items: Vec<(&str, &str)> = g
            .pub_items
            .iter()
            .map(|i| (i.kind.as_str(), i.name.as_str()))
            .collect();
        assert_eq!(
            items,
            [("fn", "simulate_x"), ("struct", "S"), ("const", "K")]
        );
    }

    #[test]
    fn call_edges_resolve_free_method_and_qualified() {
        let a = "pub fn simulate_x() {\n    free_helper();\n    obj.method_helper();\n    Ty::assoc_helper();\n    other::mod_helper();\n}\n";
        let b = "pub fn free_helper() {}\npub fn mod_helper() {}\npub struct Ty;\nimpl Ty {\n    pub fn assoc_helper() {}\n    pub fn method_helper(&self) {}\n}\npub struct Unrelated;\nimpl Unrelated {\n    pub fn free_helper(&self) {}\n}\n";
        let (g, _) = graph_of(&[("crates/sim/src/a.rs", a), ("crates/sim/src/b.rs", b)]);
        let entry = g.fns_named(|n| n == "simulate_x")[0];
        let reached = g.reach(&[entry]);
        let reached_names: Vec<&str> = reached.keys().map(|&i| g.fns[i].name.as_str()).collect();
        assert!(reached_names.contains(&"free_helper"));
        assert!(reached_names.contains(&"method_helper"));
        assert!(reached_names.contains(&"assoc_helper"));
        assert!(reached_names.contains(&"mod_helper"));
        // The free call must NOT edge to Unrelated::free_helper's method
        // twin — but the method twin is also never called as `.free_helper()`.
        let unrelated = g
            .fns
            .iter()
            .position(|f| f.name == "free_helper" && f.impl_ty.is_some())
            .expect("method twin exists");
        assert!(!reached.contains_key(&unrelated));
    }

    #[test]
    fn leaf_targets_are_the_test_example_and_bench_trees() {
        for path in [
            "tests/flow_identity.rs",
            "tests/common/mod.rs",
            "examples/online_server.rs",
            "crates/lint/tests/rules.rs",
            "crates/bench/benches/throughput.rs",
        ] {
            assert!(is_leaf_target(path), "{path}");
        }
        for path in [
            "crates/sim/src/dvq.rs",
            "src/main.rs",
            "crates/x/src/tests/a.rs",
        ] {
            assert!(!is_leaf_target(path), "{path}");
        }
    }

    #[test]
    fn self_calls_resolve_to_the_impl_type() {
        let src = "pub struct T;\nimpl T {\n    pub fn tick(&mut self) {\n        Self::step();\n    }\n    fn step() {}\n}\n";
        let (g, _) = graph_of(&[("crates/online/src/a.rs", src)]);
        let entry = g.fns_named(|n| n == "tick")[0];
        let reached = g.reach(&[entry]);
        let step = g.fns.iter().position(|f| f.name == "step").expect("step");
        assert!(reached.contains_key(&step));
        assert_eq!(g.chain(&reached, step), "tick → step");
    }

    #[test]
    fn loops_are_attached_to_their_function() {
        let src = "fn f() {\n    for i in 0..3 {\n        g(i);\n    }\n    while cond {\n        h();\n    }\n}\n";
        let (g, _) = graph_of(&[("crates/sim/src/a.rs", src)]);
        assert_eq!(g.fns[0].loops, [(2, 4), (5, 7)]);
    }

    #[test]
    fn enum_variants_and_event_refs_are_collected() {
        let src = "pub enum SchedEvent {\n    Tick { at: i64 },\n    Idle(u32),\n    Done,\n}\nfn emit() {\n    let e = SchedEvent::Tick { at: 0 };\n    take(SchedEvent::Done);\n}\n";
        let (g, _) = graph_of(&[("crates/obs/src/e.rs", src)]);
        assert_eq!(g.enums.len(), 1);
        assert_eq!(g.enums[0].variants, ["Tick", "Idle", "Done"]);
        let emit = &g.fns[0];
        let vars: Vec<&str> = emit.event_refs.iter().map(|(v, _)| v.as_str()).collect();
        assert_eq!(vars, ["Tick", "Done"]);
    }

    #[test]
    fn match_wildcards_and_coverage_are_tracked() {
        let src = "fn f(ev: &SchedEvent) {\n    match ev {\n        SchedEvent::Tick { .. } => a(),\n        _ => b(),\n    }\n    match ev {\n        SchedEvent::Tick { .. } => c(),\n        SchedEvent::Idle(n) => d(*n),\n    }\n}\n";
        let (g, _) = graph_of(&[("crates/obs/src/m.rs", src)]);
        assert_eq!(g.matches.len(), 2);
        assert!(g.matches[0].wildcard);
        assert!(!g.matches[1].wildcard);
        let v: Vec<&String> = g.matches[1].variants.iter().collect();
        assert_eq!(v, ["Idle", "Tick"]);
    }

    #[test]
    fn nested_tuple_wildcards_are_not_match_wildcards() {
        let src = "fn f(x: (u8, u8)) {\n    match x {\n        (_, 0) => a(),\n        (1, _) => b(),\n        SchedEvent::Nope => c(),\n    }\n}\n";
        let (g, _) = graph_of(&[("crates/obs/src/m.rs", src)]);
        assert!(!g.matches[0].wildcard);
    }

    #[test]
    fn macro_bodies_are_not_graphed() {
        let src = "#[macro_export]\nmacro_rules! make_fn {\n    ($name:ident) => {\n        pub fn $name() { inner_call(); }\n    };\n}\n";
        let (g, _) = graph_of(&[("shims/fake/src/lib.rs", src)]);
        assert!(g.fns.is_empty(), "{:?}", g.fns);
        assert_eq!(g.pub_items.len(), 1);
        assert_eq!(g.pub_items[0].kind, "macro_rules");
        assert_eq!(g.pub_items[0].name, "make_fn");
    }

    #[test]
    fn impl_targets_survive_generics_and_trait_impls() {
        let src = "pub struct Wide<T>(T);\nimpl<T: Clone> Wide<T> {\n    fn direct(&self) {}\n}\nimpl<T> Iterator for Wide<T> {\n    fn next(&mut self) -> Option<T> { None }\n}\nimpl<F: Fn() -> i64> From<F> for Wide<F> {\n    fn from(f: F) -> Self { Wide(f) }\n}\n";
        let (g, _) = graph_of(&[("crates/core/src/w.rs", src)]);
        for f in &g.fns {
            assert_eq!(f.impl_ty.as_deref(), Some("Wide"), "{f:?}");
        }
    }
}
