//! The panic gate's own test: run over a fixture workspace, it flags
//! each seeded fault and passes the fixture's clean module.

mod panic_gate;

use panic_gate::{gate, repo, Finding};

/// A workspace of its own: a library whose `lib.rs` seeds one of each
/// fault and whose `clean.rs` has none, and a binary that unwraps.
const FIXTURE: &str = "tests/fixtures/panic_gate";

/// Each seeded line of the fixture, found by a needle unique in its file,
/// and the lints it must draw.
const SEEDED: &[(&str, &str, &[&str])] = &[
    ("src/lib.rs", "o.unwrap();", &["clippy::unwrap_used"]),
    ("src/lib.rs", "r.unwrap_err()", &["clippy::unwrap_used"]),
    ("src/lib.rs", "o.expect(", &["clippy::expect_used"]),
    ("src/lib.rs", "r.expect_err(", &["clippy::expect_used"]),
    ("src/lib.rs", "panic!(", &["clippy::panic"]),
    ("src/lib.rs", "unreachable!(", &["clippy::unreachable"]),
    ("src/lib.rs", "assert!(", &["clippy::disallowed_macros"]),
    ("src/lib.rs", "assert_eq!(", &["clippy::disallowed_macros"]),
    ("tool/src/bin/tool.rs", ".unwrap()", &["clippy::unwrap_used"]),
    // an excuse with nothing left to excuse
    ("src/lib.rs", "reason = \"a stale", &["unfulfilled_lint_expectations"]),
    ("src/lib.rs", "#[expect(clippy::unwrap_used)]", &["clippy::allow_attributes_without_reason"]),
    (
        "src/lib.rs",
        "#[allow(dead_code)]",
        &["clippy::allow_attributes", "clippy::allow_attributes_without_reason"],
    ),
    // a function that can panic and has no `# Panics` section
    ("src/lib.rs", "pub fn undocumented", &["clippy::missing_panics_doc"]),
    ("src/lib.rs", "o.unwrap() + 1", &["clippy::unwrap_used"]),
    ("src/lib.rs", "pub type Lock", &["clippy::disallowed_types"]),
];

fn line_of(file: &str, needle: &str) -> usize {
    let text = std::fs::read_to_string(repo().join(FIXTURE).join(file))
        .unwrap_or_else(|e| panic!("{file}: {e}"));
    let lines: Vec<usize> =
        (1..).zip(text.lines()).filter(|(_, l)| l.contains(needle)).map(|(n, _)| n).collect();
    assert_eq!(lines.len(), 1, "{file}: {needle:?} must be on exactly one line");
    lines[0]
}

/// The fixture's clean module draws no finding of either kind, neither
/// a panic site nor a stale or unexplained excuse: it holds an excused
/// site, a parser's own `expect` method, and asserts and unwraps under
/// `#[cfg(test)]`.
#[test]
fn clean_fixture_passes_both_rules() {
    let outcome = gate(&repo().join(FIXTURE).join("Cargo.toml"));
    let in_clean: Vec<&Finding> =
        outcome.findings.iter().filter(|f| f.file == "src/clean.rs").collect();
    assert!(in_clean.is_empty(), "{in_clean:#?}\n{}", outcome.stderr);
}

/// Exactly the seeded findings: one fault of each kind drawn where it
/// is seeded, stale and unexplained excuses included, and none from
/// test code.
#[test]
fn panic_fixture_flags_sites_and_stale_allows_but_not_tests() {
    let outcome = gate(&repo().join(FIXTURE).join("Cargo.toml"));
    assert!(!outcome.passed);
    let mut expected: Vec<Finding> = SEEDED
        .iter()
        .flat_map(|&(file, needle, lints)| {
            let line = line_of(file, needle);
            lints.iter().map(move |lint| Finding { file: file.into(), line, lint: lint.to_string() })
        })
        .collect();
    let mut found = outcome.findings;
    expected.sort();
    found.sort();
    assert_eq!(found, expected, "{}", outcome.stderr);
}
