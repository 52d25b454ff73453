//! Fixture battery: one bad + one clean counterpart per rule. Files
//! under `tests/fixtures/` are never compiled (and the workspace
//! walker skips `fixtures` directories) — they exist purely as lint
//! inputs, loaded here as strings. L6 is cross-file, so its cases
//! run on a synthetic three-crate workspace written to a temp dir.

use std::path::PathBuf;

use mda_lint::model::crate_model;
use mda_lint::report::Finding;
use mda_lint::{scan_manifest, scan_source, scan_workspace};

/// Scan `src` as if it were `rel` inside crate `name`.
fn scan(name: &str, rel: &str, src: &str) -> Vec<Finding> {
    scan_source(crate_model(name).expect("crate in model"), rel, src)
}

/// The bad fixture must trip its rule; the clean one must be silent.
fn assert_pair(rule: &str, bad: Vec<Finding>, clean: Vec<Finding>) {
    assert!(
        bad.iter().any(|f| f.id == rule),
        "bad fixture for {rule} produced no {rule} finding: {bad:?}"
    );
    assert!(clean.is_empty(), "clean fixture for {rule} is not clean: {clean:?}");
}

#[test]
fn l0_allow_audit_pair() {
    let path = "crates/core/src/metrics.rs";
    let bad = scan("mda-core", path, include_str!("fixtures/l0_bad.rs"));
    assert_eq!(bad.len(), 2, "missing reason AND unknown id: {bad:?}");
    let clean = scan("mda-core", path, include_str!("fixtures/l0_clean.rs"));
    assert_pair("allow-audit", bad, clean);
}

#[test]
fn l1_crate_dag_source_pair() {
    let bad = scan("mda-geo", "crates/geo/src/bad.rs", include_str!("fixtures/l1_bad.rs"));
    let clean = scan("mda-ais", "crates/ais/src/clean.rs", include_str!("fixtures/l1_clean.rs"));
    assert_pair("crate-dag", bad, clean);
}

#[test]
fn l1_crate_dag_manifest_pair() {
    let geo = crate_model("mda-geo").unwrap();
    let ais = crate_model("mda-ais").unwrap();
    let bad = scan_manifest(geo, "crates/geo/Cargo.toml", include_str!("fixtures/l1_bad.toml"));
    let clean = scan_manifest(ais, "crates/ais/Cargo.toml", include_str!("fixtures/l1_clean.toml"));
    assert_pair("crate-dag", bad, clean);
}

#[test]
fn l2_panic_free_decode_pair() {
    // The path must be one the model lists as decode surface.
    let path = "crates/store/src/frame.rs";
    let bad = scan("mda-store", path, include_str!("fixtures/l2_bad.rs"));
    assert!(bad.len() >= 4, "unwrap, expect, panic! and slicing: {bad:?}");
    let clean = scan("mda-store", path, include_str!("fixtures/l2_clean.rs"));
    assert_pair("panic-free-decode", bad, clean);
}

#[test]
fn l3_deterministic_iteration_pair() {
    let path = "crates/events/src/engine.rs";
    let bad = scan("mda-events", path, include_str!("fixtures/l3_bad.rs"));
    let clean = scan("mda-events", path, include_str!("fixtures/l3_clean.rs"));
    assert_pair("deterministic-iteration", bad, clean);
}

#[test]
fn l4_wall_clock_pair() {
    let path = "crates/stream/src/clock.rs";
    let bad = scan("mda-stream", path, include_str!("fixtures/l4_bad.rs"));
    let clean = scan("mda-stream", path, include_str!("fixtures/l4_clean.rs"));
    assert_pair("wall-clock", bad, clean);

    // The same wall-clock read is fine inside the bench harness.
    let bench =
        scan("mda-bench", "crates/bench/src/harness.rs", include_str!("fixtures/l4_bad.rs"));
    assert!(bench.is_empty(), "mda-bench is exempt from L4: {bench:?}");
}

#[test]
fn l5_lock_order_pair() {
    let path = "crates/core/src/barrier.rs";
    let bad = scan("mda-core", path, include_str!("fixtures/l5_bad.rs"));
    let clean = scan("mda-core", path, include_str!("fixtures/l5_clean.rs"));
    assert_pair("lock-order", bad, clean);
}

#[test]
fn an_allow_with_reason_suppresses_the_finding() {
    let path = "crates/stream/src/clock.rs";
    let direct = "pub fn stamp() -> std::time::Instant {\n\
               // lint:allow(wall-clock): fixture exercising the escape\n\
               std::time::Instant::now()\n}\n";
    let with_blank = "pub fn stamp() -> std::time::Instant {\n\
               // lint:allow(wall-clock): fixture exercising the escape\n\
               \n    std::time::Instant::now()\n}\n";
    assert!(scan("mda-stream", path, direct).is_empty());
    assert!(scan("mda-stream", path, with_blank).is_empty(), "blank lines are skipped");
}

/// End-to-end: the binary must exit non-zero when a synthetic tree
/// contains a bad fixture, and report it on stdout.
#[test]
fn cli_exits_nonzero_on_a_bad_tree() {
    let root = std::env::temp_dir().join(format!("mda-lint-fixture-{}", std::process::id()));
    let src_dir = root.join("crates/store/src");
    std::fs::create_dir_all(&src_dir).unwrap();
    std::fs::write(src_dir.join("frame.rs"), include_str!("fixtures/l2_bad.rs")).unwrap();

    let out = std::process::Command::new(env!("CARGO_BIN_EXE_mda-lint"))
        .args(["--root", root.to_str().unwrap(), "--format", "json"])
        .output()
        .expect("run mda-lint");
    std::fs::remove_dir_all(&root).ok();

    assert_eq!(out.status.code(), Some(1), "findings must exit 1: {out:?}");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        stdout.contains("\"rule\":\"panic-free-decode\""),
        "machine-readable report names the rule: {stdout}"
    );
}

/// L6 case 1: `lonely` is used only by its crate's own `tests/`.
const LONELY: &[(&str, &str)] = &[
    ("crates/geo/src/lonely.rs", "pub fn lonely_helper() -> u8 { 1 }\n"),
    ("crates/geo/tests/t.rs", "#[test]\nfn t() { mda_geo::lonely::lonely_helper(); }\n"),
];

/// L6 cases 2-4: `used` is called through `mda_geo::used::` from
/// another crate; `shadowed`'s only "caller" means the same-named
/// `Episode` of an unrelated crate; `kept` carries a justified allow.
const OTHERS: &[(&str, &str)] = &[
    ("crates/geo/src/used.rs", "pub fn used_helper() -> u8 { 2 }\n"),
    ("crates/geo/src/shadowed.rs", "pub struct Episode;\n"),
    ("crates/geo/src/kept.rs", "pub struct Kept;\n"),
    ("crates/stream/src/lib.rs", "pub fn f() -> u8 { mda_geo::used::used_helper() }\n"),
    ("crates/sim/src/lib.rs", "pub struct Episode;\npub fn g() -> Episode { Episode }\n"),
];

/// The geo `lib.rs` declaring every module of `files`, in order.
fn geo_lib(files: &[(&str, &str)]) -> String {
    let mut lib = String::new();
    for (rel, _) in files {
        if let Some(m) = rel.strip_prefix("crates/geo/src/").and_then(|r| r.strip_suffix(".rs")) {
            lib += &format!("pub mod {m};");
            if m == "kept" {
                lib += " // lint:allow(orphan-module): fixture exercising the escape";
            }
            lib.push('\n');
        }
    }
    lib
}

/// Write a mini-workspace of `files` plus the geo `lib.rs` declaring
/// them into a fresh temp dir named after `tag`.
fn mini_workspace(tag: &str, files: &[(&str, &str)]) -> PathBuf {
    let root = std::env::temp_dir().join(format!("mda-lint-l6-{tag}-{}", std::process::id()));
    let lib = geo_lib(files);
    for (rel, src) in files.iter().chain([&("crates/geo/src/lib.rs", lib.as_str())]) {
        let path = root.join(rel);
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        std::fs::write(path, src).unwrap();
    }
    root
}

#[test]
fn l6_orphan_module_mini_workspace() {
    let files: Vec<_> = LONELY.iter().chain(OTHERS).copied().collect();
    let root = mini_workspace("all", &files);
    let outcome = scan_workspace(&root, None).unwrap();
    std::fs::remove_dir_all(&root).ok();

    assert_eq!(outcome.modules_checked, 4);
    let flagged: Vec<(&str, &str, usize)> =
        outcome.findings.iter().map(|f| (f.id, f.file.as_str(), f.line)).collect();
    // Line 1 is `lonely` (case 1), line 3 is `shadowed` (case 3);
    // `used` (case 2) and `kept` (case 4) are clean.
    assert_eq!(
        flagged,
        [
            ("orphan-module", "crates/geo/src/lib.rs", 1),
            ("orphan-module", "crates/geo/src/lib.rs", 3)
        ]
    );
}

#[test]
fn cli_exits_nonzero_on_an_orphan_module() {
    let root = mini_workspace("cli", LONELY);
    let out = std::process::Command::new(env!("CARGO_BIN_EXE_mda-lint"))
        .args(["--root", root.to_str().unwrap()])
        .output()
        .expect("run mda-lint");
    std::fs::remove_dir_all(&root).ok();

    assert_eq!(out.status.code(), Some(1), "an orphan module must exit 1: {out:?}");
    assert!(String::from_utf8_lossy(&out.stdout).contains("orphan-module"), "{out:?}");
}
