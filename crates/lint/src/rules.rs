//! The six invariant-discipline rules (plus the `L0` meta-rule that
//! audits `lint:allow` escapes themselves). L6 is cross-file and lives
//! in [`crate::orphan`]; the rest run per file.
//!
//! Every rule works on a [`Scrub`]bed file: comments and strings are
//! already blanked, `#[cfg(test)]` / `#[test]` items are masked (test
//! batteries may panic on known-good data), and per-line
//! `lint:allow(<id>): <reason>` escapes suppress a finding on their
//! own line or the line directly below.

use crate::lexer::Scrub;
use crate::model::{self, CrateModel};
use crate::report::Finding;

/// Static description of one rule, for `--list-rules` and the docs.
#[derive(Debug, Clone, Copy)]
pub struct RuleInfo {
    /// Short code (`L0`..`L6`).
    pub code: &'static str,
    /// Stable kebab-case id — what `lint:allow(...)` must name.
    pub id: &'static str,
    /// One-line summary of the discipline the rule enforces.
    pub summary: &'static str,
}

/// Every rule the pass runs, in report order.
pub const RULES: &[RuleInfo] = &[
    RuleInfo {
        code: "L0",
        id: "allow-audit",
        summary: "every lint:allow names a known rule and carries a `: <reason>` justification",
    },
    RuleInfo {
        code: "L1",
        id: "crate-dag",
        summary: "Cargo.toml dependencies and `use mda_*` imports must follow the documented DAG",
    },
    RuleInfo {
        code: "L2",
        id: "panic-free-decode",
        summary:
            "no unwrap/expect/panic!/assert!/non-literal indexing in the fallible decode surface",
    },
    RuleInfo {
        code: "L3",
        id: "deterministic-iteration",
        summary:
            "no raw HashMap/HashSet iteration in emission/merge paths unless immediately sorted",
    },
    RuleInfo {
        code: "L4",
        id: "wall-clock",
        summary: "Instant::now/SystemTime::now banned outside mda-bench (event-time purity)",
    },
    RuleInfo {
        code: "L5",
        id: "lock-order",
        summary: "no lock acquisition while another guard is lexically held, unless shard-ordered",
    },
    RuleInfo {
        code: "L6",
        id: "orphan-module",
        summary: "every library `pub mod` has a caller outside its own file and its crate's tests/",
    },
];

/// True for bytes that can continue a Rust identifier.
fn is_ident(b: u8) -> bool {
    b.is_ascii_alphanumeric() || b == b'_'
}

/// Push a finding unless its line is test code or carries an allow.
fn push(
    out: &mut Vec<Finding>,
    scrub: &Scrub,
    code: &'static str,
    id: &'static str,
    file: &str,
    line: usize,
    msg: String,
) {
    if scrub.is_test_line(line) || scrub.allowed(id, line) {
        return;
    }
    out.push(Finding { code, id, file: file.to_string(), line, msg });
}

/// Iterate the byte offsets where `needle` occurs in `text` as a whole
/// token (not embedded in a longer identifier on either side).
fn token_positions<'a>(text: &'a str, needle: &'a str) -> impl Iterator<Item = usize> + 'a {
    let bytes = text.as_bytes();
    let first = needle.as_bytes().first().copied().unwrap_or(b' ');
    let mut from = 0usize;
    std::iter::from_fn(move || {
        while let Some(rel) = text.get(from..).and_then(|t| t.find(needle)) {
            let at = from + rel;
            from = at + 1;
            let lead = first;
            let prev_ok = at == 0 || !(is_ident(bytes[at - 1]) && is_ident(lead));
            let end = at + needle.len();
            let next_ok = end >= bytes.len() || !is_ident(bytes[end]) || !is_ident(bytes[end - 1]);
            if prev_ok && next_ok {
                return Some(at);
            }
        }
        None
    })
}

// ---------------------------------------------------------------------------
// L0 — allow audit

/// Audit the file's `lint:allow` directives: unknown rule ids and
/// missing justifications are findings themselves (an escape without a
/// reason is a violation of the escape discipline).
pub fn check_allows(file: &str, scrub: &Scrub) -> Vec<Finding> {
    let mut out = Vec::new();
    for a in &scrub.allows {
        if !RULES.iter().any(|r| r.id == a.rule) {
            out.push(Finding {
                code: "L0",
                id: "allow-audit",
                file: file.to_string(),
                line: a.line,
                msg: format!("lint:allow names unknown rule id `{}`", a.rule),
            });
        } else if !a.has_reason {
            out.push(Finding {
                code: "L0",
                id: "allow-audit",
                file: file.to_string(),
                line: a.line,
                msg: format!(
                    "lint:allow({}) without a `: <reason>` justification (allows must say why)",
                    a.rule
                ),
            });
        }
    }
    out
}

// ---------------------------------------------------------------------------
// L1 — crate-DAG layering

/// Check one crate's `Cargo.toml` for `mda-*` dependency edges that
/// are not in the documented DAG.
pub fn check_manifest(krate: &CrateModel, toml: &str, file: &str) -> Vec<Finding> {
    let mut out = Vec::new();
    let mut in_deps = false;
    for (idx, raw) in toml.lines().enumerate() {
        let line = raw.trim();
        if line.starts_with('[') {
            in_deps = line == "[dependencies]" || line == "[dev-dependencies]";
            continue;
        }
        if !in_deps {
            continue;
        }
        let Some(name) = line.split(['=', ' ', '\t']).next() else { continue };
        if name.starts_with("mda-") && name != krate.name && !krate.deps.contains(&name) {
            out.push(Finding {
                code: "L1",
                id: "crate-dag",
                file: file.to_string(),
                line: idx + 1,
                msg: format!(
                    "`{}` may not depend on `{name}`: the documented crate DAG keeps {} {}",
                    krate.name, name, "leaf-side of it (see ARCHITECTURE.md and mda-lint's model)"
                ),
            });
        }
    }
    out
}

/// Check one source file for `mda_*` imports outside the crate's
/// allowed dependency set.
pub fn check_imports(krate: &CrateModel, file: &str, scrub: &Scrub) -> Vec<Finding> {
    let mut out = Vec::new();
    let text = &scrub.text;
    let bytes = text.as_bytes();
    // Prefix search: `mda_` must start an identifier but the crate
    // name continues past it, so token_positions (whole-token only)
    // does not apply here.
    let mut from = 0usize;
    while let Some(rel) = text.get(from..).and_then(|t| t.find("mda_")) {
        let at = from + rel;
        from = at + 4;
        if at > 0 && is_ident(bytes[at - 1]) {
            continue;
        }
        let mut end = at + 4;
        while end < bytes.len() && is_ident(bytes[end]) {
            end += 1;
        }
        // Only crate *paths* count (`mda_geo::...`); a local symbol
        // that merely starts with `mda_` is not an import.
        if !text[end..].starts_with("::") {
            continue;
        }
        let dep = format!("mda-{}", &text[at + 4..end].replace('_', "-"));
        if dep == krate.name || dep == "mda-" {
            continue;
        }
        if !krate.deps.contains(&dep.as_str()) {
            let line = scrub.line_of(at);
            push(
                &mut out,
                scrub,
                "L1",
                "crate-dag",
                file,
                line,
                format!(
                    "`{}` imports `{dep}` but the documented crate DAG allows only {:?}",
                    krate.name, krate.deps
                ),
            );
        }
    }
    out
}

// ---------------------------------------------------------------------------
// L2 — panic-free decode surface

/// Rust keywords that can directly precede a non-indexing `[` (slice
/// patterns, array literals after `=`/`in`, etc.).
const KEYWORDS: &[&str] = &[
    "let", "in", "if", "else", "match", "return", "mut", "ref", "move", "as", "break", "continue",
    "where", "dyn", "impl", "for", "loop", "while", "static", "const", "enum", "struct", "fn",
    "pub", "use", "crate", "self", "super", "type", "box", "yield",
];

/// Check a decode-surface file: no `unwrap`/`expect`, no panicking
/// macros, no slice/array indexing with a non-literal index. Decoding
/// untrusted disk bytes must surface `CodecError`/`Option`, never a
/// panic (the PR 7 corruption battery's promise, made lexical).
pub fn check_decode_surface(file: &str, scrub: &Scrub) -> Vec<Finding> {
    let mut out = Vec::new();
    let text = &scrub.text;
    let bytes = text.as_bytes();
    const ID: &str = "panic-free-decode";

    for method in ["unwrap", "expect"] {
        for at in token_positions(text, method) {
            if at == 0 || bytes[at - 1] != b'.' {
                continue;
            }
            let mut k = at + method.len();
            while k < bytes.len() && bytes[k] == b' ' {
                k += 1;
            }
            if bytes.get(k) != Some(&b'(') {
                continue;
            }
            let line = scrub.line_of(at);
            push(
                &mut out,
                scrub,
                "L2",
                ID,
                file,
                line,
                format!("`.{method}()` in the fallible decode surface — return a CodecError (or justify infallibility with lint:allow)"),
            );
        }
    }

    for mac in
        ["panic!", "unreachable!", "todo!", "unimplemented!", "assert!", "assert_eq!", "assert_ne!"]
    {
        for at in token_positions(text, mac) {
            let line = scrub.line_of(at);
            push(
                &mut out,
                scrub,
                "L2",
                ID,
                file,
                line,
                format!("`{mac}` can panic on disk bytes — decode paths must degrade to an error (debug_assert! is exempt)"),
            );
        }
    }

    // Non-literal indexing: `expr[...]` where the index is not a pure
    // numeric literal or literal range. `buf.get(..)` is the
    // panic-free alternative; provably-in-bounds sites take an allow.
    let mut i = 0usize;
    while i < bytes.len() {
        if bytes[i] != b'[' {
            i += 1;
            continue;
        }
        let open = i;
        i += 1;
        let mut j = open;
        while j > 0 && (bytes[j - 1] == b' ' || bytes[j - 1] == b'\n') {
            j -= 1;
        }
        if j == 0 {
            continue;
        }
        let p = bytes[j - 1];
        if !(is_ident(p) || p == b')' || p == b']') {
            continue;
        }
        if is_ident(p) {
            let mut w = j - 1;
            while w > 0 && is_ident(bytes[w - 1]) {
                w -= 1;
            }
            if KEYWORDS.contains(&&text[w..j]) {
                continue;
            }
            // A lifetime before a slice type (`&'a [u8]`) is not an
            // indexing expression.
            if w > 0 && bytes[w - 1] == b'\'' {
                continue;
            }
        }
        let mut depth = 1usize;
        let mut k = open + 1;
        while k < bytes.len() && depth > 0 {
            match bytes[k] {
                b'[' => depth += 1,
                b']' => depth -= 1,
                _ => {}
            }
            k += 1;
        }
        let content = &text[open + 1..k.saturating_sub(1).max(open + 1)];
        let literal_only = !content.trim().is_empty()
            && content.bytes().all(|c| matches!(c, b'0'..=b'9' | b'.' | b'_' | b' ' | b'\n'))
            || content.trim().chars().all(|c| c == '.') && !content.trim().is_empty();
        if literal_only {
            continue;
        }
        let line = scrub.line_of(open);
        push(
            &mut out,
            scrub,
            "L2",
            ID,
            file,
            line,
            format!(
                "non-literal indexing `[{}]` in the decode surface — use .get(..) or justify bounds with lint:allow",
                content.trim()
            ),
        );
    }
    out
}

// ---------------------------------------------------------------------------
// L3 — deterministic iteration in emission/merge paths

/// Sinks that make raw map iteration order-insensitive: the result is
/// sorted (or canonically sorted) right away, reduced commutatively,
/// or collected back into an unordered container.
const ORDER_SINKS: &[&str] = &[
    "sort", // sort_unstable / sort_by / canonical_sort all contain it
    ".sum",
    ".count()",
    ".len()",
    ".min",
    ".max",
    ".any(",
    ".all(",
    ".contains",
    ".is_empty",
    "collect::<HashSet",
    "collect::<HashMap",
    "BTree",
];

/// How far past the iteration call the rule looks for an
/// order-restoring sink ("immediately sorted" ≈ the same or the next
/// statement).
const SINK_WINDOW: usize = 300;

/// Identify names declared as `HashMap`/`HashSet` in this file
/// (bindings, struct fields, fn params, type aliases), sorted.
fn map_names(text: &str) -> Vec<String> {
    let bytes = text.as_bytes();
    let mut names = Vec::new();
    for ty in ["HashMap", "HashSet"] {
        for at in token_positions(text, ty) {
            // Walk back over whitespace, `&`, and `mut` to the
            // declaration punctuation.
            let mut j = at;
            loop {
                while j > 0 && (bytes[j - 1] == b' ' || bytes[j - 1] == b'\n') {
                    j -= 1;
                }
                if j >= 1 && bytes[j - 1] == b'&' {
                    j -= 1;
                    continue;
                }
                if j >= 3 && &text[j - 3..j] == "mut" && (j == 3 || !is_ident(bytes[j - 4])) {
                    j -= 3;
                    continue;
                }
                break;
            }
            if j == 0 {
                continue;
            }
            let punct = bytes[j - 1];
            if punct != b':' && punct != b'=' {
                continue;
            }
            let mut w = j - 1;
            // `::` path position (e.g. `std::collections::HashMap`) is
            // not a declaration.
            if punct == b':' && w >= 1 && bytes[w - 1] == b':' {
                continue;
            }
            while w > 0 && (bytes[w - 1] == b' ' || bytes[w - 1] == b'\n') {
                w -= 1;
            }
            // `-> HashMap` / `>= HashMap` / `== HashMap`: no name.
            if punct == b'=' && w >= 1 && matches!(bytes[w - 1], b'>' | b'<' | b'=' | b'!') {
                continue;
            }
            let end = w;
            while w > 0 && is_ident(bytes[w - 1]) {
                w -= 1;
            }
            let name = &text[w..end];
            if !name.is_empty() && !KEYWORDS.contains(&name) {
                names.push(name.to_string());
            }
        }
    }
    names.sort_unstable();
    names.dedup();
    names
}

/// Last path segment of the dotted receiver ending at `end`
/// (exclusive): for `self.latest.` this is `latest`.
fn receiver_last_segment(text: &str, end: usize) -> Option<&str> {
    let bytes = text.as_bytes();
    let mut start = end;
    while start > 0 && (is_ident(bytes[start - 1]) || bytes[start - 1] == b'.') {
        start -= 1;
    }
    let path = &text[start..end];
    let last = path.rsplit('.').next().unwrap_or("");
    (!last.is_empty() && last.bytes().all(is_ident)).then_some(last)
}

/// True when an order-restoring sink appears shortly after `at`.
fn sink_follows(text: &str, at: usize) -> bool {
    let window = &text[at..text.len().min(at + SINK_WINDOW)];
    ORDER_SINKS.iter().any(|s| window.contains(s))
}

/// Check an emission/merge file: direct `HashMap`/`HashSet` iteration
/// must be immediately sorted or fed to an order-insensitive sink —
/// the `LiveIndex::neighbours` bug class (PR 2) made lexical.
pub fn check_emission_surface(file: &str, scrub: &Scrub) -> Vec<Finding> {
    let mut out = Vec::new();
    let text = &scrub.text;
    let bytes = text.as_bytes();
    const ID: &str = "deterministic-iteration";
    let names = map_names(text);
    if names.is_empty() {
        return out;
    }
    let named = |s: &str| names.iter().any(|n| n == s);

    const ITERS: &[&str] = &[
        "iter",
        "iter_mut",
        "keys",
        "values",
        "values_mut",
        "drain",
        "into_iter",
        "into_keys",
        "into_values",
    ];
    for method in ITERS {
        for at in token_positions(text, method) {
            if at == 0 || bytes[at - 1] != b'.' {
                continue;
            }
            let mut k = at + method.len();
            while k < bytes.len() && bytes[k] == b' ' {
                k += 1;
            }
            if bytes.get(k) != Some(&b'(') {
                continue;
            }
            let Some(recv) = receiver_last_segment(text, at - 1) else { continue };
            if !named(recv) || sink_follows(text, at) {
                continue;
            }
            let line = scrub.line_of(at);
            push(
                &mut out,
                scrub,
                "L3",
                ID,
                file,
                line,
                format!(
                    "`{recv}.{method}()` iterates a HashMap/HashSet in an emission/merge path without an immediate sort — emission order must be a pure function of the event-time stream"
                ),
            );
        }
    }

    // `for x in &map { ... }` consuming/borrowing loops.
    for at in token_positions(text, "in") {
        // Must be a `for ... in` (not `impl`, generics, etc.).
        let stmt_start = text[..at].rfind(['{', '}', ';']).map_or(0, |p| p + 1);
        if !token_positions(&text[stmt_start..at], "for").any(|_| true) {
            continue;
        }
        let mut k = at + 2;
        while k < bytes.len() && (bytes[k] == b' ' || bytes[k] == b'\n') {
            k += 1;
        }
        while k < bytes.len() && (bytes[k] == b'&' || bytes[k] == b' ') {
            k += 1;
        }
        if text[k..].starts_with("mut ") {
            k += 4;
        }
        let expr_start = k;
        while k < bytes.len() && (is_ident(bytes[k]) || bytes[k] == b'.') {
            k += 1;
        }
        // A pure path expression only (method calls are handled above).
        let mut w = k;
        while w < bytes.len() && bytes[w] == b' ' {
            w += 1;
        }
        if bytes.get(w) != Some(&b'{') {
            continue;
        }
        let Some(recv) = receiver_last_segment(text, k) else { continue };
        let _ = expr_start;
        if !named(recv) || sink_follows(text, k) {
            continue;
        }
        let line = scrub.line_of(at);
        push(
            &mut out,
            scrub,
            "L3",
            ID,
            file,
            line,
            format!(
                "`for … in {recv}` iterates a HashMap/HashSet in an emission/merge path without an immediate sort"
            ),
        );
    }
    out
}

// ---------------------------------------------------------------------------
// L4 — no wall clock in deterministic paths

/// Check any non-bench file for wall-clock reads: every pipeline
/// observable must be a pure function of event time, so
/// `Instant::now`/`SystemTime::now` are banned outside `mda-bench`
/// (metrics-only sites take a justified allow).
pub fn check_wall_clock(file: &str, scrub: &Scrub) -> Vec<Finding> {
    let mut out = Vec::new();
    if model::WALL_CLOCK_EXEMPT.iter().any(|p| file.starts_with(p)) {
        return out;
    }
    for tok in ["Instant::now", "SystemTime::now"] {
        for at in token_positions(&scrub.text, tok) {
            let line = scrub.line_of(at);
            push(
                &mut out,
                scrub,
                "L4",
                "wall-clock",
                file,
                line,
                format!(
                    "`{tok}` outside mda-bench — deterministic paths are pure functions of event time (metrics-only use needs lint:allow)"
                ),
            );
        }
    }
    out
}

// ---------------------------------------------------------------------------
// L5 — lock-order discipline

/// Check a file for nested lock acquisitions: taking `.lock()` /
/// `.read()` / `.write()` while an earlier guard is still lexically
/// held is the deadlock class the `TickBarrier` design exists to
/// avoid; shard-index-ordered acquisition takes a justified allow.
pub fn check_lock_order(file: &str, scrub: &Scrub) -> Vec<Finding> {
    let mut out = Vec::new();
    let text = &scrub.text;
    let bytes = text.as_bytes();
    const ID: &str = "lock-order";

    // Zero-argument acquisition sites, in order.
    let mut acquisitions: Vec<usize> = Vec::new();
    for method in ["lock", "read", "write"] {
        for at in token_positions(text, method) {
            if at == 0 || bytes[at - 1] != b'.' {
                continue;
            }
            let mut k = at + method.len();
            if bytes.get(k) != Some(&b'(') {
                continue;
            }
            k += 1;
            while k < bytes.len() && (bytes[k] == b' ' || bytes[k] == b'\n') {
                k += 1;
            }
            if bytes.get(k) == Some(&b')') {
                acquisitions.push(at);
            }
        }
    }
    acquisitions.sort_unstable();

    let mut ai = 0usize;
    let mut depth = 0usize;
    let mut let_guards: Vec<usize> = Vec::new();
    let mut temp_guard = false;
    let mut stmt_start = 0usize;
    for i in 0..bytes.len() {
        match bytes[i] {
            b'{' => {
                depth += 1;
                temp_guard = false;
                stmt_start = i + 1;
            }
            b'}' => {
                depth = depth.saturating_sub(1);
                while let_guards.last().is_some_and(|&d| depth < d) {
                    let_guards.pop();
                }
                temp_guard = false;
                stmt_start = i + 1;
            }
            b';' => {
                temp_guard = false;
                stmt_start = i + 1;
            }
            _ => {}
        }
        if ai < acquisitions.len() && acquisitions[ai] == i {
            ai += 1;
            if !let_guards.is_empty() || temp_guard {
                let line = scrub.line_of(i);
                push(
                    &mut out,
                    scrub,
                    "L5",
                    ID,
                    file,
                    line,
                    "nested lock acquisition while an earlier guard is still held — order by shard index (and justify with lint:allow) or split the scopes".to_string(),
                );
            }
            let stmt = &text[stmt_start..i];
            if token_positions(stmt, "let").next().is_some() {
                let_guards.push(depth);
            } else {
                temp_guard = true;
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scrubbed(src: &str) -> Scrub {
        Scrub::new(src)
    }

    #[test]
    fn token_positions_respect_boundaries() {
        let hits: Vec<usize> = token_positions("unwrap unwrap_or x.unwrap()", "unwrap").collect();
        // `unwrap_or` must not match.
        assert_eq!(hits.len(), 2);
    }

    #[test]
    fn map_names_finds_fields_bindings_and_params() {
        let s = scrubbed(
            "struct S { counts: HashMap<u32, u64> }\nfn f(gone: &HashSet<u32>) { let mut cells: HashMap<u32, u32> = HashMap::new(); }\n",
        );
        let names = map_names(&s.text);
        assert_eq!(names, vec!["cells", "counts", "gone"]);
    }

    #[test]
    fn use_statement_declares_no_names() {
        let s = scrubbed("use std::collections::{HashMap, HashSet};\n");
        assert!(map_names(&s.text).is_empty());
    }
}
