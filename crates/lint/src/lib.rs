//! `mda-lint` — a workspace-aware static analysis pass that enforces
//! the invariant disciplines at compile-review time.
//!
//! The datAcron architecture (EDBT'17) makes promises the Rust type
//! system cannot state: the crate DAG stays layered, decode paths
//! never panic on disk bytes, emission order is a pure function of the
//! event-time stream, nothing reads the wall clock, locks nest in
//! shard order, and every library module has a caller. Each promise
//! lives in ARCHITECTURE.md as prose; this crate makes them lexical. It is deliberately dependency-free — a
//! hand-rolled scrubbing lexer (comments, strings, raw strings,
//! char-vs-lifetime) plus per-rule pattern passes over the scrubbed
//! text — so it builds offline before anything else is trusted.
//!
//! Run it with `cargo run -p mda-lint -- --workspace` (or the
//! `cargo lint` alias). Findings are suppressed per line with
//! `// lint:allow(<rule-id>): <reason>` — the reason is mandatory and
//! audited by the `L0` meta-rule.

pub mod lexer;
pub mod model;
pub mod orphan;
pub mod report;
pub mod rules;

use std::fs;
use std::io;
use std::path::{Path, PathBuf};

use lexer::Scrub;
use model::CrateModel;
use report::Finding;

/// Result of a workspace scan: the findings plus how many source
/// files were actually read (so self-tests can assert the walker did
/// not silently skip the world).
#[derive(Debug)]
pub struct ScanOutcome {
    /// All findings, sorted by (file, line, code).
    pub findings: Vec<Finding>,
    /// Number of `.rs` files scanned.
    pub files_scanned: usize,
    /// Number of `pub mod` declarations L6 checked (0 for a `--crate`
    /// scan: L6 needs the whole workspace to see a module's callers).
    pub modules_checked: usize,
}

/// Run every rule over one source file. `rel` is the workspace-
/// relative path with forward slashes; `krate` is the owning crate's
/// model (rules L2–L4 key off the path, L1 off the crate).
pub fn scan_source(krate: &CrateModel, rel: &str, src: &str) -> Vec<Finding> {
    scan_scrubbed(krate, rel, &Scrub::new(src))
}

fn scan_scrubbed(krate: &CrateModel, rel: &str, scrub: &Scrub) -> Vec<Finding> {
    let mut out = rules::check_allows(rel, scrub);
    out.extend(rules::check_imports(krate, rel, scrub));
    if model::DECODE_SURFACE.contains(&rel) {
        out.extend(rules::check_decode_surface(rel, scrub));
    }
    if model::EMISSION_SURFACE.contains(&rel) {
        out.extend(rules::check_emission_surface(rel, scrub));
    }
    out.extend(rules::check_wall_clock(rel, scrub));
    out.extend(rules::check_lock_order(rel, scrub));
    out
}

/// Run the manifest rule (L1) over one crate's `Cargo.toml` text.
pub fn scan_manifest(krate: &CrateModel, rel: &str, toml: &str) -> Vec<Finding> {
    rules::check_manifest(krate, toml, rel)
}

/// Collect `.rs` files under `dir` (recursively), sorted for
/// deterministic reports. Missing directories are fine (not every
/// crate has `tests/`); fixture trees are skipped — they are lint
/// counter-examples by design.
fn collect_rs(dir: &Path, out: &mut Vec<PathBuf>) -> io::Result<()> {
    let Ok(entries) = fs::read_dir(dir) else { return Ok(()) };
    let mut paths: Vec<PathBuf> = entries.filter_map(|e| e.ok().map(|e| e.path())).collect();
    paths.sort();
    for p in paths {
        let name = p.file_name().and_then(|n| n.to_str()).unwrap_or("");
        if p.is_dir() {
            if name == "target" || name == "fixtures" || name == ".git" {
                continue;
            }
            collect_rs(&p, out)?;
        } else if name.ends_with(".rs") {
            out.push(p);
        }
    }
    Ok(())
}

/// Scan the crates listed in the workspace model (all of them, or the
/// single crate named by `only`) — manifests and every `.rs` file
/// under `src/`, `tests/`, `benches/` and `examples/`. A whole-
/// workspace scan then runs L6 once over the files it read.
pub fn scan_workspace(root: &Path, only: Option<&str>) -> io::Result<ScanOutcome> {
    let mut findings = Vec::new();
    let mut sources = Vec::new();
    for krate in model::CRATES {
        if only.is_some_and(|name| name != krate.name) {
            continue;
        }
        let dir = if krate.dir == "." { root.to_path_buf() } else { root.join(krate.dir) };
        let manifest = dir.join("Cargo.toml");
        if let Ok(toml) = fs::read_to_string(&manifest) {
            let rel = rel_path(root, &manifest);
            findings.extend(scan_manifest(krate, &rel, &toml));
        }
        let mut files = Vec::new();
        for sub in ["src", "tests", "benches", "examples"] {
            collect_rs(&dir.join(sub), &mut files)?;
        }
        for path in files {
            let rel = rel_path(root, &path);
            // The root facade's walk must not re-scan crates/* files.
            if krate.dir == "." && rel.starts_with("crates/") {
                continue;
            }
            let scrub = Scrub::new(&fs::read_to_string(&path)?);
            findings.extend(scan_scrubbed(krate, &rel, &scrub));
            sources.push(orphan::SourceFile { krate, rel, scrub });
        }
    }
    let mut modules_checked = 0;
    if only.is_none() {
        let (orphans, checked) = orphan::check_orphan_modules(&sources);
        findings.extend(orphans);
        modules_checked = checked;
    }
    findings.sort_by(|a, b| (&a.file, a.line, a.code).cmp(&(&b.file, b.line, b.code)));
    Ok(ScanOutcome { findings, files_scanned: sources.len(), modules_checked })
}

/// Workspace-relative path with forward slashes.
fn rel_path(root: &Path, path: &Path) -> String {
    path.strip_prefix(root)
        .unwrap_or(path)
        .components()
        .map(|c| c.as_os_str().to_string_lossy())
        .collect::<Vec<_>>()
        .join("/")
}

/// Walk upward from `start` to the directory whose `Cargo.toml`
/// declares `[workspace]`.
pub fn find_workspace_root(start: &Path) -> Option<PathBuf> {
    let mut dir = start.to_path_buf();
    loop {
        let manifest = dir.join("Cargo.toml");
        if let Ok(text) = fs::read_to_string(&manifest) {
            if text.contains("[workspace]") {
                return Some(dir);
            }
        }
        if !dir.pop() {
            return None;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scan_source_routes_by_surface() {
        let krate = model::crate_model("mda-store").unwrap();
        // In the decode surface: unwrap is a finding.
        let f = scan_source(krate, "crates/store/src/frame.rs", "fn f() { x.unwrap(); }\n");
        assert!(f.iter().any(|f| f.id == "panic-free-decode"), "{f:?}");
        // Outside it: the same text is clean.
        let f = scan_source(krate, "crates/store/src/lib.rs", "fn f() { x.unwrap(); }\n");
        assert!(f.iter().all(|f| f.id != "panic-free-decode"), "{f:?}");
    }

    #[test]
    fn rel_path_uses_forward_slashes() {
        let root = Path::new("/w");
        assert_eq!(rel_path(root, Path::new("/w/crates/geo/src/lib.rs")), "crates/geo/src/lib.rs");
    }
}
