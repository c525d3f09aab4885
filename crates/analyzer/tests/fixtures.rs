//! End-to-end runs of the analyzer over the fixture mini-workspaces in
//! `tests/fixtures/`: one passing tree exercising both rules, and one
//! failing tree per rule family.

use analyzer::{run_check, Finding};
use std::path::PathBuf;

fn fixture(name: &str) -> Vec<Finding> {
    let root = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures").join(name);
    run_check(&root).expect("fixture config parses")
}

fn rules(findings: &[Finding]) -> Vec<&'static str> {
    findings.iter().map(|f| f.rule).collect()
}

#[test]
fn clean_fixture_passes_both_rules() {
    let findings = fixture("clean");
    assert!(findings.is_empty(), "expected a clean pass, got: {findings:#?}");
}

#[test]
fn stats_fixture_fails_each_conservation_check() {
    let findings = fixture("stats_bad");
    assert!(rules(&findings).iter().all(|r| *r == "stat-conservation"), "{findings:#?}");
    let messages: Vec<&str> = findings.iter().map(|f| f.message.as_str()).collect();
    // ALL drifted: declared length 3, lists 2, misses variant C
    assert!(
        messages.iter().any(|m| m.contains("ALL")),
        "missing ALL-sync finding: {messages:#?}"
    );
    // variant C belongs to no declared class
    assert!(
        messages.iter().any(|m| m.contains('C') && m.contains("class")),
        "missing unclassified-variant finding: {messages:#?}"
    );
    // the substrate declares class alpha but never emits Kind::B
    assert!(
        messages.iter().any(|m| m.contains("Kind::B") && m.contains("no")),
        "missing deleted-emission finding: {messages:#?}"
    );
}

#[test]
fn deleting_an_emission_site_fails_the_pass() {
    // the stats_bad substrate emits Kind::A but not Kind::B — exactly
    // the shape left behind by deleting a `sent(...)` call
    let findings = fixture("stats_bad");
    assert!(
        findings
            .iter()
            .any(|f| f.file == "crates/demo/src/node.rs" && f.message.contains("Kind::B")),
        "{findings:#?}"
    );
}

#[test]
fn panic_fixture_flags_sites_and_stale_allows_but_not_tests() {
    let findings = fixture("panic_bad");
    assert!(rules(&findings).iter().all(|r| *r == "panic-freedom"), "{findings:#?}");
    assert_eq!(findings.len(), 4, "{findings:#?}");
    assert!(findings.iter().any(|f| f.message.contains("unwrap")));
    assert!(findings.iter().any(|f| f.message.contains("`panic!`")));
    // `assert!` panics too; `debug_assert!` is compiled out of release
    // builds and is not flagged
    assert!(findings.iter().any(|f| f.message.contains("`assert!`")));
    // the allow entry whose pattern matches nothing is itself a finding
    assert!(findings
        .iter()
        .any(|f| f.file == "analyzer-allow.toml" && f.message.contains("stale")));
    // the unwraps and asserts inside #[cfg(test)] contribute nothing
    assert!(findings.iter().filter(|f| f.message.contains("unwrap")).count() == 1);
    assert!(findings.iter().filter(|f| f.message.contains("assert")).count() == 1);
}

#[test]
fn findings_serialize_to_json() {
    let findings = fixture("panic_bad");
    let json = analyzer::json::findings_to_json(&findings);
    assert!(json.contains("\"version\": 1"));
    assert!(json.contains("\"count\": 4"));
    assert!(json.contains("panic-freedom"));
}
