//! Self-test: the workspace at HEAD must be lint-clean. This is the
//! same gate CI runs — a PR that introduces a violation without a
//! justified `lint:allow` fails here first.

use std::path::Path;

#[test]
fn workspace_is_lint_clean_at_head() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let outcome = mda_lint::scan_workspace(&root, None).expect("scan workspace");
    assert!(
        outcome.findings.is_empty(),
        "workspace has lint findings:\n{}",
        outcome
            .findings
            .iter()
            .map(mda_lint::report::Finding::human)
            .collect::<Vec<_>>()
            .join("\n")
    );
    // Guard against the walker silently scanning nothing: the
    // workspace has well over a hundred Rust files.
    assert!(
        outcome.files_scanned > 100,
        "walker found only {} files — did the crate layout move?",
        outcome.files_scanned
    );
    // The same guard for L6: the workspace declares well over forty
    // library `pub mod`s, so checking fewer means L6 saw nothing.
    assert!(
        outcome.modules_checked >= 40,
        "L6 checked only {} `pub mod` declarations — did lib.rs parsing break?",
        outcome.modules_checked
    );
}

#[test]
fn every_rule_is_documented_in_architecture_md() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let arch = std::fs::read_to_string(root.join("ARCHITECTURE.md")).expect("ARCHITECTURE.md");
    for rule in mda_lint::rules::RULES {
        assert!(
            arch.contains(rule.id),
            "ARCHITECTURE.md §10 must document rule {} ({})",
            rule.code,
            rule.id
        );
    }
}
