//! End-to-end runs of the analyzer over the fixture mini-workspaces in
//! `tests/fixtures/`: one tree whose every panic site carries a line or a
//! file-wide `panic-ok` marker, and one with each kind of finding.

use analyzer::{run_check, Finding};
use std::path::PathBuf;

fn fixture(name: &str) -> Vec<Finding> {
    run_check(&PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures").join(name))
}

fn count(findings: &[Finding], needle: &str) -> usize {
    findings.iter().filter(|f| f.message.contains(needle)).count()
}

#[test]
fn clean_fixture_passes_both_rules() {
    // both kinds of marker: a line marker on or above its site, and a
    // file-wide one in the harness
    let findings = fixture("clean");
    assert!(findings.is_empty(), "expected a clean pass, got: {findings:#?}");
}

#[test]
fn panic_fixture_flags_sites_and_stale_allows_but_not_tests() {
    let findings = fixture("panic_bad");
    assert!(findings.iter().all(|f| f.rule == "panic-freedom"), "{findings:#?}");
    assert_eq!(findings.len(), 8, "{findings:#?}");
    assert_eq!(count(&findings, "`panic!`"), 1, "{findings:#?}");
    // `assert!` panics too; `debug_assert!` is compiled out of release
    // builds and is not flagged
    assert_eq!(count(&findings, "`assert!`"), 1, "{findings:#?}");
    // `unwrap_err` / `expect_err` panic like `unwrap` / `expect`
    assert_eq!(count(&findings, "`unwrap_err()`"), 1, "{findings:#?}");
    assert_eq!(count(&findings, "`expect_err()`"), 1, "{findings:#?}");
    // a marker that excuses nothing is itself a finding, on its own line
    // and file-wide, and so is one that gives no reason (its site stays
    // excused: one finding per fault)
    let at = |file: &str, line: u32| {
        findings.iter().find(|f| f.file == file && f.line == line).map(|f| f.message.as_str())
    };
    assert!(at("crates/demo/src/lib.rs", 22).is_some_and(|m| m.contains("stale")));
    assert!(at("crates/demo/src/quiet.rs", 2).is_some_and(|m| m.contains("stale file-wide")));
    assert!(at("crates/demo/src/lib.rs", 28).is_some_and(|m| m.contains("without a reason")));
    // the unwraps and asserts inside #[cfg(test)] contribute nothing
    assert_eq!(count(&findings, "`unwrap()`"), 1, "{findings:#?}");
}

#[test]
fn findings_serialize_to_json() {
    let findings = fixture("panic_bad");
    let json = analyzer::json::findings_to_json(&findings);
    assert!(json.contains("\"version\": 1"));
    assert!(json.contains("\"count\": 8"));
    assert!(json.contains("panic-freedom"));
}
