//! Pass 5 — the rules.
//!
//! Per-line rules (`wall_clock`, `raw_queue`, `panic_path`,
//! `metric_name`, `nondeterministic_iter`) consume the shared lexed
//! files directly; the reachability rules (`panic_reachable`,
//! `float_in_digest`, `shared_mut_across_shards`) walk the call graph
//! from semantic entry points; `metrics_catalog` cross-checks
//! registration literals against METRICS.md; `stale_allow` runs last
//! over the directive use-tracking the other rules populated.

use crate::callgraph::CallGraph;
use crate::index::{FnId, SymbolIndex};
use crate::lexer::{trailing_ident, word_match, SourceFile};
use crate::{Finding, Workspace};
use std::collections::{HashMap, HashSet};

/// Whether `rule` is in force for a crate directory named `crate_name`
/// (`"core"`, `"sim"`, …; the facade crate and root tests scan as `"f4t"`).
pub fn rule_applies(rule: &str, crate_name: &str) -> bool {
    match rule {
        // bench measures real elapsed time on purpose (simulated-vs-wall
        // throughput); everything else runs on the cycle counter.
        "wall_clock" => crate_name != "bench",
        "raw_queue" => matches!(crate_name, "core" | "mem"),
        // panic_path is the cheap per-line guard over the whole of
        // crates/core; panic_reachable extends it workspace-wide along
        // the call graph (and therefore skips core to avoid doubling).
        "panic_path" => crate_name == "core",
        _ => true,
    }
}

/// Panic-family expressions that must not execute on a tick path.
pub const PANIC_PATTERNS: &[&str] =
    &[".unwrap()", ".expect(", "panic!(", "unreachable!(", "todo!(", "unimplemented!("];

/// Iterator-producing methods whose order is the hash order.
const HASH_ITER_METHODS: &[&str] =
    &[".iter()", ".iter_mut()", ".keys()", ".values()", ".values_mut()", ".drain()", ".into_iter()"];

fn finding(file: &SourceFile, line: usize, rule: &'static str, message: String) -> Finding {
    Finding { file: file.label.clone(), line: line + 1, rule, message }
}

/// Emits unless an allow directive covers (rule, line); marks the
/// directive used either way it fires.
fn emit(
    file: &mut SourceFile,
    line: usize,
    rule: &'static str,
    message: String,
    out: &mut Vec<Finding>,
) {
    if !file.directives.check(rule, line) {
        let f = finding(file, line, rule, message);
        out.push(f);
    }
}

// ---------------------------------------------------------------------------
// Per-line rules.
// ---------------------------------------------------------------------------

/// `wall_clock`: no `std::time::Instant`/`SystemTime` in simulated code.
pub fn wall_clock(ws: &mut Workspace, out: &mut Vec<Finding>) {
    for file in &mut ws.files {
        if !rule_applies("wall_clock", &file.crate_name) {
            continue;
        }
        for i in 0..file.code.len() {
            let code = &file.code[i];
            if word_match(code, "Instant") || word_match(code, "SystemTime") {
                emit(
                    file,
                    i,
                    "wall_clock",
                    "wall-clock time in simulated code; use the cycle counter / now_ns()".into(),
                    out,
                );
            }
        }
    }
}

/// `raw_queue`: no `VecDeque` fields/locals in the hardware-model crates.
pub fn raw_queue(ws: &mut Workspace, out: &mut Vec<Finding>) {
    for file in &mut ws.files {
        if !rule_applies("raw_queue", &file.crate_name) {
            continue;
        }
        for i in 0..file.code.len() {
            if file.code[i].contains("VecDeque<") {
                emit(
                    file,
                    i,
                    "raw_queue",
                    "unbounded VecDeque models an on-chip queue; use f4t_sim::Fifo or \
                     justify with // f4tlint: allow(raw_queue): <why bounded>"
                        .into(),
                    out,
                );
            }
        }
    }
}

/// `panic_path`: no panic-family expressions in non-test `crates/core`.
pub fn panic_path(ws: &mut Workspace, out: &mut Vec<Finding>) {
    for file in &mut ws.files {
        if !rule_applies("panic_path", &file.crate_name) {
            continue;
        }
        for i in 0..file.code.len() {
            if file.tests[i] {
                continue;
            }
            for pat in PANIC_PATTERNS {
                if file.code[i].contains(pat) {
                    emit(
                        file,
                        i,
                        "panic_path",
                        format!(
                            "`{}` is reachable from Engine::tick; return/skip instead (or \
                             debug_assert! for dispatch-gate contracts)",
                            pat.trim_start_matches('.')
                        ),
                        out,
                    );
                    break;
                }
            }
        }
    }
}

/// Identifiers this file declares with a `HashMap`/`HashSet` type or
/// constructor: `name: HashMap<..>` fields/params and
/// `let [mut] name = HashMap::new()`-style bindings.
fn hash_container_idents(code: &[String]) -> HashSet<String> {
    let mut names = HashSet::new();
    for line in code {
        for pat in ["HashMap<", "HashSet<", "HashMap::", "HashSet::"] {
            let mut start = 0;
            while let Some(pos) = line[start..].find(pat) {
                let at = start + pos;
                let before = line[..at].trim_end();
                let binding =
                    before.strip_suffix(':').or_else(|| before.strip_suffix('=')).map(str::trim_end);
                if let Some(b) = binding {
                    let ident = trailing_ident(b);
                    if !ident.is_empty() && !ident.starts_with(|c: char| c.is_ascii_digit()) {
                        names.insert(ident);
                    }
                }
                start = at + pat.len();
            }
        }
    }
    names
}

/// How a loop expression was matched to an unordered container.
enum IterSource {
    /// A binding/field declared in the same file.
    Local,
    /// A struct field resolved through the workspace index.
    Field { owner: String, decl_file: String, decl_line: usize },
}

/// Whether the loop expression after `for … in` iterates an unordered
/// container. `locals` are this file's hash-typed idents; `self_fields`
/// maps field names of the enclosing impl type (resolved workspace-wide)
/// to their declaration site.
fn unordered_iter_source(
    expr: &str,
    locals: &HashSet<String>,
    self_fields: &HashMap<String, (String, String, usize)>,
) -> Option<IterSource> {
    let classify = |before: &str, ident: &str| -> Option<IterSource> {
        if locals.contains(ident) {
            return Some(IterSource::Local);
        }
        if before.ends_with("self.") {
            if let Some((owner, decl_file, decl_line)) = self_fields.get(ident) {
                return Some(IterSource::Field {
                    owner: owner.clone(),
                    decl_file: decl_file.clone(),
                    decl_line: *decl_line,
                });
            }
        }
        None
    };
    for method in HASH_ITER_METHODS {
        let mut start = 0;
        while let Some(pos) = expr[start..].find(method) {
            let at = start + pos;
            let ident = trailing_ident(&expr[..at]);
            if !ident.is_empty() {
                let before = &expr[..at - ident.len()];
                if let Some(src) = classify(before, &ident) {
                    return Some(src);
                }
            }
            start = at + method.len();
        }
    }
    let t = expr.trim_start();
    if let Some(r) = t.strip_prefix('&') {
        let r = r.trim_start();
        let r = r.strip_prefix("mut ").unwrap_or(r).trim_start();
        let (before, r) = match r.strip_prefix("self.") {
            Some(rest) => ("self.", rest),
            None => ("", r),
        };
        let ident: String = r.chars().take_while(|c| c.is_alphanumeric() || *c == '_').collect();
        let rest = r[ident.len()..].trim_start();
        if rest.is_empty() || rest.starts_with('{') {
            return classify(before, &ident);
        }
    }
    None
}

/// `nondeterministic_iter`: no for-loops over unordered-container
/// iteration anywhere in the workspace. Declared types flow from struct
/// fields (workspace index) and same-file bindings to their use sites.
pub fn nondeterministic_iter(ws: &mut Workspace, idx: &SymbolIndex, out: &mut Vec<Finding>) {
    // (field name → (owner, decl file, decl line)) per (crate, impl type).
    for fi in 0..ws.files.len() {
        if ws.files[fi].test_file {
            continue;
        }
        let locals = hash_container_idents(&ws.files[fi].code);
        for i in 0..ws.files[fi].code.len() {
            if ws.files[fi].tests[i] || !word_match(&ws.files[fi].code[i], "for") {
                continue;
            }
            // Line-based: the loop expression is everything after the
            // last ` in ` on the `for` line (good enough for rustfmt'd
            // single-line headers; multi-line headers are rare).
            let Some(pos) = ws.files[fi].code[i].rfind(" in ") else { continue };
            // Fields of the enclosing impl type, resolved cross-file
            // within the same crate.
            let impl_type = idx
                .enclosing_fn(fi, i)
                .and_then(|f| idx.fns[f].impl_type.clone());
            let mut self_fields: HashMap<String, (String, String, usize)> = HashMap::new();
            if let Some(ty) = &impl_type {
                for uf in &idx.unordered_fields {
                    if uf.owner == *ty && uf.crate_name == ws.files[fi].crate_name {
                        self_fields.insert(
                            uf.name.clone(),
                            (uf.owner.clone(), ws.files[uf.file].label.clone(), uf.line + 1),
                        );
                    }
                }
            }
            let expr = ws.files[fi].code[i][pos + 4..].to_string();
            if let Some(src) = unordered_iter_source(&expr, &locals, &self_fields) {
                let message = match src {
                    IterSource::Local => "for-loop over HashMap/HashSet iteration order is \
                                          nondeterministic and breaks the golden-digest \
                                          contract; iterate a FlowSlab/FlowSet or \
                                          collect-and-sort (or justify with // f4tlint: \
                                          allow(nondeterministic_iter): <why order-insensitive>)"
                        .to_string(),
                    IterSource::Field { owner, decl_file, decl_line } => format!(
                        "for-loop over `{owner}` field declared HashMap/HashSet at \
                         {decl_file}:{decl_line}; hash order is nondeterministic and breaks \
                         the golden-digest contract — iterate a FlowSlab/FlowSet or \
                         collect-and-sort"
                    ),
                };
                emit(&mut ws.files[fi], i, "nondeterministic_iter", message, out);
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Call-graph reachability rules.
// ---------------------------------------------------------------------------

/// Whether the body of `f` mentions `word` (stripped code).
fn body_mentions(files: &[SourceFile], idx: &SymbolIndex, f: FnId, word: &str) -> bool {
    let r = &idx.fns[f];
    let Some((start, end)) = r.body else { return false };
    files[r.file].code[start..=end].iter().any(|l| word_match(l, word))
}

/// Entry points for the tick-path rules: every `tick`, every
/// `ParallelRunner` method, and every function that lexically hosts a
/// worker closure (calls `run_rounds`).
fn tick_entries(files: &[SourceFile], idx: &SymbolIndex) -> Vec<FnId> {
    let mut entries = Vec::new();
    for (id, f) in idx.fns.iter().enumerate() {
        if f.is_test {
            continue;
        }
        if f.name == "tick"
            || f.impl_type.as_deref() == Some("ParallelRunner")
            || body_mentions(files, idx, id, "run_rounds")
        {
            entries.push(id);
        }
    }
    entries
}

/// `panic_reachable`: no panic-family expression in any function
/// reachable from a tick/ParallelRunner entry point, workspace-wide.
pub fn panic_reachable(
    ws: &mut Workspace,
    idx: &SymbolIndex,
    graph: &CallGraph,
    out: &mut Vec<Finding>,
) {
    let entries = tick_entries(&ws.files, idx);
    let pred = graph.reachable_from(&entries);
    for (id, f) in idx.fns.iter().enumerate() {
        if pred[id].is_none() || f.is_test {
            continue;
        }
        // crates/core is already guarded line-by-line by panic_path.
        if ws.files[f.file].crate_name == "core" {
            continue;
        }
        let Some((start, end)) = f.body else { continue };
        let path = graph.path_to_entry(idx, &pred, id);
        for i in start..=end.min(ws.files[f.file].code.len() - 1) {
            if ws.files[f.file].tests[i] {
                continue;
            }
            for pat in PANIC_PATTERNS {
                if ws.files[f.file].code[i].contains(pat) {
                    let fi = f.file;
                    emit(
                        &mut ws.files[fi],
                        i,
                        "panic_reachable",
                        format!(
                            "`{}` on a tick-reachable path ({path}); a model that panics \
                             mid-tick cannot report what went wrong — return/skip instead",
                            pat.trim_start_matches('.')
                        ),
                        out,
                    );
                    break;
                }
            }
        }
    }
}

/// Whether a stripped code line performs f32/f64 work: the type names
/// as words, or a float literal (`1.5`, `2.0e9` — not tuple indexing,
/// not ranges).
fn has_float_use(code: &str) -> bool {
    if word_match(code, "f32") || word_match(code, "f64") {
        return true;
    }
    let b = code.as_bytes();
    for (i, &c) in b.iter().enumerate() {
        if c != b'.' {
            continue;
        }
        // digits on both sides of the dot …
        if i == 0 || !b[i - 1].is_ascii_digit() || !b.get(i + 1).is_some_and(u8::is_ascii_digit) {
            continue;
        }
        // … and the integer part is a standalone number, not `x.0.1`
        // tuple chains or an identifier tail like `base64`.
        let mut j = i - 1;
        while j > 0 && (b[j - 1].is_ascii_digit() || b[j - 1] == b'_') {
            j -= 1;
        }
        let before = if j == 0 { None } else { Some(b[j - 1]) };
        let ident_before =
            before.is_some_and(|c| c.is_ascii_alphanumeric() || c == b'_' || c == b'.');
        if !ident_before {
            return true;
        }
    }
    false
}

/// `float_in_digest`: no f32/f64 arithmetic reachable from digest or
/// artifact-merge entry points (`fold_digests`, FNV helpers, `merge`,
/// `*digest*`). Float rounding is order-sensitive; anything feeding the
/// byte-identical merge contract must stay in integers.
pub fn float_in_digest(
    ws: &mut Workspace,
    idx: &SymbolIndex,
    graph: &CallGraph,
    out: &mut Vec<Finding>,
) {
    let mut entries = Vec::new();
    for (id, f) in idx.fns.iter().enumerate() {
        if f.is_test {
            continue;
        }
        if f.name == "fold_digests"
            || f.name == "merge"
            || f.name.contains("digest")
            || f.name.contains("fnv")
        {
            entries.push(id);
        }
    }
    let pred = graph.reachable_from(&entries);
    for (id, f) in idx.fns.iter().enumerate() {
        if pred[id].is_none() || f.is_test {
            continue;
        }
        let Some((start, end)) = f.body else { continue };
        let path = graph.path_to_entry(idx, &pred, id);
        for i in start..=end.min(ws.files[f.file].code.len() - 1) {
            if ws.files[f.file].tests[i] {
                continue;
            }
            if has_float_use(&ws.files[f.file].code[i]) {
                let fi = f.file;
                emit(
                    &mut ws.files[fi],
                    i,
                    "float_in_digest",
                    format!(
                        "f32/f64 on a digest/merge path ({path}); float rounding is \
                         order-sensitive and breaks the byte-identical merge contract — \
                         keep digests and merged artifacts in integers"
                    ),
                    out,
                );
            }
        }
    }
}

/// Shared-mutable-state patterns hunted inside worker-reachable code.
const SHARED_MUT_PATTERNS: &[(&str, &str)] = &[
    ("static mut ", "a `static mut` is unsynchronized shared state across shard workers"),
    ("thread_local!", "thread-locals diverge between pool sizes (shard-to-thread mapping varies)"),
    ("Rc<", "`Rc` is not Sync; a clone smuggled across the rendezvous is a data race"),
    ("RefCell<", "`RefCell` has non-Sync interior mutability; workers sharing one race"),
    ("UnsafeCell<", "raw interior mutability shared across workers is unchecked"),
];

/// `shared_mut_across_shards`: statics, `Rc`, non-`Sync` interior
/// mutability or `unsafe` referenced from `parallel.rs` worker closures
/// or anything they reach. The determinism contract (pool-size
/// invariance, byte-identical digests) holds only if shards never share
/// mutable state outside the rendezvous barrier.
pub fn shared_mut_across_shards(
    ws: &mut Workspace,
    idx: &SymbolIndex,
    graph: &CallGraph,
    out: &mut Vec<Finding>,
) {
    let mut entries = Vec::new();
    for (id, f) in idx.fns.iter().enumerate() {
        if f.is_test {
            continue;
        }
        let in_parallel_file = ws.files[f.file].label.ends_with("parallel.rs");
        if in_parallel_file || body_mentions(&ws.files, idx, id, "run_rounds") {
            entries.push(id);
        }
    }
    let pred = graph.reachable_from(&entries);

    // (a) module-level statics in any file holding worker-reachable code.
    let mut reached_files: Vec<bool> = vec![false; ws.files.len()];
    for (id, f) in idx.fns.iter().enumerate() {
        if pred[id].is_some() && !f.is_test {
            reached_files[f.file] = true;
        }
    }
    for (fi, reached) in reached_files.iter().enumerate() {
        if !reached {
            continue;
        }
        let statics: Vec<(usize, String)> =
            idx.parsed[fi].statics.iter().map(|s| (s.line, s.decl.clone())).collect();
        for (line, decl) in statics {
            if ws.files[fi].tests.get(line).copied().unwrap_or(false) {
                continue;
            }
            emit(
                &mut ws.files[fi],
                line,
                "shared_mut_across_shards",
                format!(
                    "module-level `{decl}` is visible to shard workers; cross-shard state \
                     must flow through the rendezvous barrier (ParallelRunner), not globals"
                ),
                out,
            );
        }
    }

    // (b) non-Sync/unsafe patterns inside worker-reachable bodies.
    for (id, f) in idx.fns.iter().enumerate() {
        if pred[id].is_none() || f.is_test {
            continue;
        }
        let Some((start, end)) = f.body else { continue };
        let path = graph.path_to_entry(idx, &pred, id);
        for i in start..=end.min(ws.files[f.file].code.len() - 1) {
            if ws.files[f.file].tests[i] {
                continue;
            }
            let code = ws.files[f.file].code[i].clone();
            let hit = SHARED_MUT_PATTERNS
                .iter()
                .find(|(pat, _)| code.contains(pat))
                .map(|&(pat, why)| (pat, why))
                .or_else(|| {
                    word_match(&code, "unsafe")
                        .then_some(("unsafe", "unsafe code on a worker path is unaudited by the determinism contract"))
                });
            if let Some((pat, why)) = hit {
                let fi = f.file;
                emit(
                    &mut ws.files[fi],
                    i,
                    "shared_mut_across_shards",
                    format!("`{}` on a shard-worker path ({path}): {why}", pat.trim_end()),
                    out,
                );
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Metric-name rules.
// ---------------------------------------------------------------------------

/// Removes `{...}` format placeholders from a metric-name literal.
pub fn strip_placeholders(lit: &str) -> String {
    let mut out = String::new();
    let mut depth = 0u32;
    for c in lit.chars() {
        match c {
            '{' => depth += 1,
            '}' => depth = depth.saturating_sub(1),
            _ if depth == 0 => out.push(c),
            _ => {}
        }
    }
    out
}

/// Replaces `{...}` placeholders with `*` wildcards (for catalog
/// matching).
fn placeholder_glob(lit: &str) -> String {
    let mut out = String::new();
    let mut depth = 0u32;
    for c in lit.chars() {
        match c {
            '{' => {
                if depth == 0 {
                    out.push('*');
                }
                depth += 1;
            }
            '}' => depth = depth.saturating_sub(1),
            _ if depth == 0 => out.push(c),
            _ => {}
        }
    }
    out
}

/// `metric_name`: FtScope/FtFlight/FtJournal names are dotted
/// snake_case and unique per file.
pub fn metric_name(ws: &mut Workspace, idx: &SymbolIndex, out: &mut Vec<Finding>) {
    let mut seen: HashMap<(usize, String), usize> = HashMap::new();
    for m in &idx.metrics {
        let fi = m.file;
        let name = strip_placeholders(&m.literal);
        if name.is_empty() {
            continue; // fully dynamic name
        }
        if !name.chars().all(|c| c.is_ascii_lowercase() || c.is_ascii_digit() || c == '_' || c == '.')
        {
            emit(
                &mut ws.files[fi],
                m.line,
                "metric_name",
                format!("metric name {:?} is not dotted snake_case ([a-z0-9_.])", m.literal),
                out,
            );
        }
        if let Some(first) = seen.insert((fi, format!("{}{}", m.method, m.literal)), m.line + 1) {
            emit(
                &mut ws.files[fi],
                m.line,
                "metric_name",
                format!(
                    "metric {:?} already registered at line {first}; duplicate registration \
                     under one prefix silently overwrites",
                    m.literal
                ),
                out,
            );
        }
    }
}

/// Glob match where `pat` may contain `*` (matching any run, dots
/// included) and `name` is literal.
fn glob_match(pat: &str, name: &str) -> bool {
    let parts: Vec<&str> = pat.split('*').collect();
    if parts.len() == 1 {
        return pat == name;
    }
    let mut rest = name;
    if !rest.starts_with(parts[0]) {
        return false;
    }
    rest = &rest[parts[0].len()..];
    let last = parts[parts.len() - 1];
    if rest.len() < last.len() || !rest.ends_with(last) {
        return false;
    }
    rest = &rest[..rest.len() - last.len()];
    for mid in &parts[1..parts.len() - 1] {
        if mid.is_empty() {
            continue;
        }
        match rest.find(mid) {
            Some(p) => rest = &rest[p + mid.len()..],
            None => return false,
        }
    }
    true
}

/// `metrics_catalog`: every registration literal must match an entry of
/// METRICS.md (instance indices there appear as `<i>`; placeholders in
/// code match any run). Stage and event names check their catalog
/// families (`engine.flight.<stage>.cycles`, `engine.journal.kind.<kind>`).
pub fn metrics_catalog(ws: &mut Workspace, idx: &SymbolIndex, out: &mut Vec<Finding>) {
    let Some(catalog) = ws.catalog.clone() else { return };
    for m in &idx.metrics {
        let fi = m.file;
        if ws.files[fi].test_file {
            continue;
        }
        let full = match m.method {
            "stage_name(" => format!("engine.flight.{}.cycles", m.literal),
            "event_name(" | "journal_event(" => format!("engine.journal.kind.{}", m.literal),
            "series_name(" => format!("engine.pulse.last.{}", m.literal),
            _ => m.literal.clone(),
        };
        let pat = placeholder_glob(&full);
        // A fully dynamic name carries nothing to check.
        if !pat.chars().any(|c| c.is_ascii_alphanumeric()) {
            continue;
        }
        // Malformed names are metric_name's findings, not ours.
        let static_part = strip_placeholders(&full);
        if !static_part
            .chars()
            .all(|c| c.is_ascii_lowercase() || c.is_ascii_digit() || c == '_' || c == '.')
        {
            continue;
        }
        if !catalog.iter().any(|entry| glob_match(&pat, entry)) {
            emit(
                &mut ws.files[fi],
                m.line,
                "metrics_catalog",
                format!(
                    "metric {:?} (family `{pat}`) is not in METRICS.md; regenerate the \
                     catalog with UPDATE_METRICS=1 cargo test --test metrics_catalog, or fix \
                     the name",
                    m.literal
                ),
                out,
            );
        }
    }
}

// ---------------------------------------------------------------------------
// Manifest + staleness rules.
// ---------------------------------------------------------------------------

/// `cargo_deps`: every dependency entry is `path =`/`workspace = true`.
pub fn cargo_deps(ws: &Workspace, out: &mut Vec<Finding>) {
    for (label, src) in &ws.manifests {
        out.extend(crate::scan_manifest(label, src));
    }
}

/// `stale_allow`: an allow directive that suppressed nothing is dead
/// weight — it either outlived the violation it excused or names a rule
/// that never fires there. Delete it or fix the rule name.
pub fn stale_allow(ws: &mut Workspace, out: &mut Vec<Finding>) {
    let known: Vec<&str> = crate::RULES.iter().map(|(name, _)| *name).collect();
    for file in &mut ws.files {
        let mut findings = Vec::new();
        for (i, d) in file.directives.list.iter().enumerate() {
            if file.directives.used[i] {
                continue;
            }
            let kind = if d.file_level { "allow-file" } else { "allow" };
            let message = if known.contains(&d.rule.as_str()) {
                format!(
                    "`{kind}({})` suppresses no findings; the violation it excused is gone — \
                     delete the directive",
                    d.rule
                )
            } else {
                format!(
                    "`{kind}({})` names an unknown rule (known: {}); it can never suppress \
                     anything",
                    d.rule,
                    known.join(", ")
                )
            };
            findings.push(finding(file, d.line, "stale_allow", message));
        }
        out.extend(findings);
    }
}
