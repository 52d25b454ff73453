//! L6 — `orphan-module`: the one cross-file rule.
//!
//! A `pub mod m;` in a library crate's `src/lib.rs` is alive only if
//! live (scrubbed, non-test) text outside `m`'s own file and outside
//! the crate's own `tests/` refers to it, either
//!
//! - by a crate-qualified path: `crate::m::` / `m::` inside its own
//!   crate, `mda_x::m::` or `maritime::x::m::` anywhere; or
//! - by the name of one of `m`'s top-level `pub` items, provided no
//!   other item or module anywhere in the workspace declares that name
//!   (a shared name like `Episode` proves nothing about *which*
//!   `Episode` a caller means).
//!
//! lib.rs's own `pub mod m;` and `pub use m::…;` lines do not count.
//! The pass runs once over the files `scan_workspace` already read.

use std::collections::HashSet;

use crate::lexer::Scrub;
use crate::model::CrateModel;
use crate::report::Finding;

/// One scanned source file, kept for the cross-file pass.
#[derive(Debug)]
pub struct SourceFile {
    /// The owning crate.
    pub krate: &'static CrateModel,
    /// Workspace-relative path with forward slashes.
    pub rel: String,
    /// The file's scrubbed text.
    pub scrub: Scrub,
}

/// Crates whose modules L6 does not check: the bench harness and the
/// linter are libraries of their own binaries, and the facade only
/// re-exports crates.
const EXEMPT: &[&str] = &["mda-bench", "mda-lint", "maritime"];

/// Keywords that introduce a named item.
const ITEM_KWS: &[&str] =
    &["fn", "struct", "enum", "trait", "type", "const", "static", "mod", "union"];

/// Identifier tokens of `text` as `(byte offset, word)`; numeric
/// literals are skipped.
fn words(text: &str) -> impl Iterator<Item = (usize, &str)> {
    let base = text.as_ptr() as usize;
    text.split(|c: char| !(c.is_ascii_alphanumeric() || c == '_'))
        .filter(|w| w.bytes().next().is_some_and(|b| !b.is_ascii_digit()))
        .map(move |w| (w.as_ptr() as usize - base, w))
}

/// The identifier that follows `at` after at least one whitespace byte.
fn word_after(text: &str, at: usize) -> Option<&str> {
    let rest = text.get(at..)?;
    let trimmed = rest.trim_start();
    let first = words(trimmed).next().filter(|&(p, _)| p == 0 && trimmed.len() < rest.len());
    first.map(|(_, w)| w)
}

/// What one file's live text references and declares.
#[derive(Default)]
struct Facts {
    /// Every identifier token.
    idents: HashSet<String>,
    /// Every path prefix that ends in a segment followed by `::`
    /// (`mda_geo::bbox` for `mda_geo::bbox::BoundingBox`).
    paths: HashSet<String>,
    /// Every name an item keyword introduces (`struct Foo`, `mod m`),
    /// plus every enum variant name.
    decls: HashSet<String>,
}

/// Variant names of the enum body whose `{` is at `open`: the first
/// identifier at body depth after the `{` and after each `,`.
fn variants(text: &str, open: usize) -> Vec<&str> {
    let (body, mut out, mut depth, mut expect, mut last) = (&text[open..], vec![], 0i64, true, 0);
    for (s, w) in words(body) {
        for b in body[last..s].bytes() {
            depth += i64::from(b"{([".contains(&b)) - i64::from(b"})]".contains(&b));
            if depth == 0 {
                return out;
            }
            expect |= depth == 1 && b == b',';
        }
        last = s + w.len();
        if depth == 1 && expect {
            out.push(w);
            expect = false;
        }
    }
    out
}

/// Gather one file's facts; `masked` spans hide references, not
/// declarations.
fn facts(scrub: &Scrub, masked: &[(usize, usize)]) -> Facts {
    let text = &scrub.text;
    let mut f = Facts::default();
    let mut path = String::new();
    let mut path_end = usize::MAX;
    for (s, w) in words(text) {
        if scrub.is_test_line(scrub.line_of(s)) {
            continue;
        }
        let e = s + w.len();
        if let Some(name) = ITEM_KWS.contains(&w).then(|| word_after(text, e)).flatten() {
            f.decls.insert(name.to_string());
            if w == "enum" {
                if let Some(open) = text[e..].find('{') {
                    f.decls.extend(variants(text, e + open).into_iter().map(String::from));
                }
            }
        }
        if masked.iter().any(|&(a, b)| (a..b).contains(&s)) {
            continue;
        }
        f.idents.insert(w.to_string());
        if s != path_end {
            path.clear();
        }
        if text[e..].starts_with("::") {
            if !path.is_empty() {
                path.push_str("::");
            }
            path.push_str(w);
            f.paths.insert(path.clone());
            path_end = e + 2;
        }
    }
    f
}

/// Top-level (depth-0, non-test) `pub` statements of a file as
/// `(offset of pub, keyword, name)`: `pub mod m` yields `("mod", "m")`,
/// `pub use m::X` yields `("use", "m")`, `pub const fn f` yields
/// `("fn", "f")`. `pub(crate)` restrictions are skipped.
fn top_level_pub(scrub: &Scrub) -> Vec<(usize, &str, &str)> {
    let text = &scrub.text;
    let mut out = Vec::new();
    let (mut depth, mut last) = (0i64, 0usize);
    for (s, w) in words(text) {
        for b in text[last..s].bytes() {
            depth += i64::from(b == b'{') - i64::from(b == b'}');
        }
        last = s;
        if depth != 0 || w != "pub" || scrub.is_test_line(scrub.line_of(s)) {
            continue;
        }
        let mut at = s + 3;
        if text[at..].starts_with('(') {
            at += text[at..].find(')').map_or(0, |p| p + 1);
        }
        // `pub const fn f` is an `fn`; modifiers (`unsafe`, `async`,
        // `extern`) are simply not item keywords.
        let ws: Vec<&str> = words(&text[at..]).map(|(_, w)| w).take(4).collect();
        if let Some(p) = ws.windows(2).find(|p| {
            (ITEM_KWS.contains(&p[0]) || p[0] == "use")
                && !matches!(p[1], "fn" | "unsafe" | "async" | "extern")
        }) {
            out.push((s, p[0], p[1]));
        }
    }
    out
}

/// True when `f` is its crate's `src/lib.rs`.
fn is_lib(f: &SourceFile) -> bool {
    f.rel == format!("{}/src/lib.rs", f.krate.dir)
}

/// Byte spans of lib.rs's own `pub mod m;` and `pub use m::…;`
/// statements, which declare and re-export a module but do not use it.
fn lib_masks(f: &SourceFile) -> Vec<(usize, usize)> {
    if !is_lib(f) {
        return Vec::new();
    }
    let stmts = top_level_pub(&f.scrub);
    let mods: Vec<&str> = stmts.iter().filter(|s| s.1 == "mod").map(|s| s.2).collect();
    let text = &f.scrub.text;
    stmts
        .iter()
        .filter(|(_, kw, name)| *kw == "mod" || *kw == "use" && mods.contains(name))
        .map(|&(at, _, _)| (at, text[at..].find(';').map_or(text.len(), |p| at + p + 1)))
        .collect()
}

/// Run L6 over the files of a whole-workspace scan. Returns the
/// findings and how many `pub mod` declarations were checked.
pub fn check_orphan_modules(files: &[SourceFile]) -> (Vec<Finding>, usize) {
    const ID: &str = "orphan-module";
    let facts: Vec<Facts> = files.iter().map(|f| facts(&f.scrub, &lib_masks(f))).collect();
    let files_facts = || files.iter().zip(&facts);
    let mut out = Vec::new();
    let mut checked = 0usize;
    for lib in files.iter().filter(|f| is_lib(f) && !EXEMPT.contains(&f.krate.name)) {
        let text = &lib.scrub.text;
        for (at, kw, m) in top_level_pub(&lib.scrub) {
            let after = text[at..].find(m).map_or(at, |p| at + p + m.len());
            if kw != "mod" || !text[after..].trim_start().starts_with(';') {
                continue;
            }
            checked += 1;
            let dir = lib.krate.dir;
            let (own_file, own_dir) = (format!("{dir}/src/{m}.rs"), format!("{dir}/src/{m}/"));
            let own_tests = format!("{dir}/tests/");
            let is_own = |f: &SourceFile| f.rel == own_file || f.rel.starts_with(&own_dir);
            let alias = lib.krate.name.trim_start_matches("mda-");
            let global = [
                format!("{}::{m}", lib.krate.name.replace('-', "_")),
                format!("maritime::{alias}::{m}"),
            ];
            let local =
                [m.to_string(), format!("crate::{m}"), format!("super::{m}"), format!("self::{m}")];
            // The module's top-level pub item names that nothing else declares.
            let names: Vec<&str> = files
                .iter()
                .filter(|f| is_own(f))
                .flat_map(|f| top_level_pub(&f.scrub))
                .filter(|&(_, kw, name)| {
                    kw != "use" && !files_facts().any(|(f, x)| !is_own(f) && x.decls.contains(name))
                })
                .map(|(_, _, name)| name)
                .collect();
            let alive = files_facts().any(|(f, x)| {
                !is_own(f)
                    && !f.rel.starts_with(&own_tests)
                    && (global.iter().any(|p| x.paths.contains(p))
                        || f.krate.name == lib.krate.name
                            && local.iter().any(|p| x.paths.contains(p))
                        || names.iter().any(|n| x.idents.contains(*n)))
            });
            let line = lib.scrub.line_of(at);
            if !alive && !lib.scrub.allowed(ID, line) {
                let msg = format!("`pub mod {m}` has no caller outside its own file and {own_tests} — wire it onto a path that uses it or delete it");
                out.push(Finding { code: "L6", id: ID, file: lib.rel.clone(), line, msg });
            }
        }
    }
    (out, checked)
}
