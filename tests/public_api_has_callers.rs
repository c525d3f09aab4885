//! Every `pub fn` and `pub const` of the workspace's crates has a caller
//! outside tests.
//!
//! A public item that only tests, doctests and doc comments reach is
//! code the product carries for nobody: the tests should drive the
//! product path it duplicates instead. For each `pub fn` and `pub const`
//! in the non-test text of `crates/*/src`, the name must appear again,
//! outside comments, in the non-test text of `crates/*/src`, `src/`,
//! `examples/` or `up2p_bench/src`. A file's non-test text is its lines
//! before its first `#[cfg(test)]`, as CI's line count reads it.
//!
//! The match is by name only: a test-only method that shares its name
//! with a used one (`new`, `len`, `name`) escapes it. Names kept on
//! purpose are listed in [`KEPT`], each with its reason.

use std::collections::BTreeMap;
use std::fs;
use std::path::{Path, PathBuf};

/// Public names kept with no non-test caller, and why.
const KEPT: &[(&str, &str)] = &[
    ("add_record", "RoutingDigest's one-record reference, which the digest proptests build from"),
    ("layer", "RoutingDigest's per-depth reference read, checked against the route table"),
    ("min_depth", "RoutingDigest's reference of the route table's first possible layer"),
    ("is_connected", "Topology reference property the generators are tested against"),
    ("degree", "Topology reference read the generators are tested against"),
    ("from_edges", "Topology built from an explicit edge list, the reference worlds of tests"),
    ("enable_trace", "DesNetwork's per-hop trace: the observability surface"),
    ("unlimited", "FailFs, the fault-injection tool: a filesystem that never fails"),
    ("bytes_written", "FailFs, the fault-injection tool: what reached the medium"),
    ("publish_xml", "DurableRepository's XML write path, which the benchmark's CI step pins"),
];

fn collect_rs(path: &Path, out: &mut Vec<PathBuf>) {
    if path.is_dir() {
        let mut entries: Vec<PathBuf> = fs::read_dir(path)
            .unwrap_or_else(|e| panic!("{}: {e}", path.display()))
            .map(|e| e.expect("directory entry").path())
            .collect();
        entries.sort();
        for entry in entries {
            collect_rs(&entry, out);
        }
    } else if path.extension().is_some_and(|e| e == "rs") {
        out.push(path.to_path_buf());
    }
}

/// The lines of `source` before its first `#[cfg(test)]` at column 0,
/// each without its comment.
fn non_test_code(source: &str) -> String {
    let mut out = String::new();
    for line in source.lines().take_while(|l| !l.starts_with("#[cfg(test)]")) {
        out.push_str(code_of(line));
        out.push('\n');
    }
    out
}

/// `line` without its comment: the text before the first `//` that no
/// string literal on the line opened, so doc comments and their examples
/// name nothing. String text counts as code; a string that spans lines
/// is read line by line.
fn code_of(line: &str) -> &str {
    let (mut in_string, mut chars) = (false, line.char_indices());
    while let Some((at, c)) = chars.next() {
        match c {
            '\\' if in_string => {
                chars.next();
            }
            '"' => in_string = !in_string,
            '\'' if !in_string && line[at..].starts_with("'\"'") => {
                chars.nth(1);
            }
            '/' if !in_string && line[at..].starts_with("//") => return &line[..at],
            _ => {}
        }
    }
    line
}

fn is_ident(c: char) -> bool {
    c.is_ascii_alphanumeric() || c == '_'
}

/// The identifiers of `code`, each with the text between it and the
/// previous identifier.
fn idents(code: &str) -> Vec<(&str, &str)> {
    let mut out = Vec::new();
    let mut last = 0;
    let mut rest = code;
    while let Some(start) = rest.find(|c: char| is_ident(c)) {
        let end = rest[start..].find(|c: char| !is_ident(c)).map_or(rest.len(), |e| start + e);
        let at = code.len() - rest.len();
        out.push((&code[last..at + start], &rest[start..end]));
        last = at + end;
        rest = &rest[end..];
    }
    out
}

/// The names `code` defines as `pub fn`, `pub const fn` or `pub const`.
/// A `pub(crate)` item is the compiler's to flag, and a name a macro
/// pastes in (`$name`) is not a name.
fn public_definitions(code: &str) -> Vec<&str> {
    let words = idents(code);
    let mut out = Vec::new();
    for (at, &(_, word)) in words.iter().enumerate() {
        if word != "pub" {
            continue;
        }
        let next = |k: usize| words.get(at + k).map(|&(gap, w)| (gap.trim(), w));
        let name = match (next(1), next(2), next(3)) {
            (Some(("", "fn")), Some(("", name)), _) => Some(name),
            (Some(("", "const")), Some(("", "fn")), Some(("", name))) => Some(name),
            (Some(("", "const")), Some(("", name)), _) if name != "fn" => Some(name),
            _ => None,
        };
        out.extend(name);
    }
    out
}

/// The non-test, comment-free text of every Rust file under `trees`,
/// relative to the repository root.
fn product_code(root: &Path, trees: &[PathBuf]) -> Vec<(PathBuf, String)> {
    let mut files = Vec::new();
    for tree in trees {
        collect_rs(&root.join(tree), &mut files);
    }
    files
        .into_iter()
        .map(|f| {
            let text = fs::read_to_string(&f).unwrap_or_else(|e| panic!("{}: {e}", f.display()));
            let name = f.strip_prefix(root).unwrap_or(&f).to_path_buf();
            (name, non_test_code(&text))
        })
        .collect()
}

#[test]
fn every_public_fn_and_const_has_a_product_caller() {
    let root = PathBuf::from(env!("CARGO_MANIFEST_DIR"));
    let mut crates: Vec<PathBuf> = fs::read_dir(root.join("crates"))
        .expect("crates/")
        .map(|e| e.expect("directory entry").path().join("src"))
        .filter(|p| p.is_dir())
        .map(|p| p.strip_prefix(&root).unwrap_or(&p).to_path_buf())
        .collect();
    crates.sort();
    let defining = product_code(&root, &crates);
    let callers = product_code(&root, &["src".into(), "examples".into(), "up2p_bench/src".into()]);

    // name → where it is defined
    let mut defined: BTreeMap<&str, Vec<String>> = BTreeMap::new();
    for (file, code) in &defining {
        for name in public_definitions(code) {
            defined.entry(name).or_default().push(file.display().to_string());
        }
    }
    // A collector that stopped matching would pass vacuously.
    assert!(defined.len() >= 300, "only {} public names", defined.len());

    let mut uses: BTreeMap<&str, usize> = BTreeMap::new();
    for (_, code) in defining.iter().chain(&callers) {
        for (_, word) in idents(code) {
            *uses.entry(word).or_default() += 1;
        }
    }
    let uncalled = |name: &str| uses.get(name).copied().unwrap_or(0) <= defined[name].len();

    let unexplained: Vec<String> = defined
        .keys()
        .filter(|name| uncalled(name) && !KEPT.iter().any(|(kept, _)| kept == *name))
        .map(|name| format!("{name} ({})", defined[name].join(", ")))
        .collect();
    assert!(
        unexplained.is_empty(),
        "public, and called only from tests, doctests or comments (delete it, move it under \
         #[cfg(test)], or list it in KEPT with its reason):\n{}",
        unexplained.join("\n")
    );

    let stale: Vec<&str> = KEPT
        .iter()
        .map(|&(name, _)| name)
        .filter(|name| !defined.contains_key(name) || !uncalled(name))
        .collect();
    assert!(stale.is_empty(), "in KEPT, but undefined or called after all: {stale:?}");
}

#[test]
fn the_scanner_reads_every_form_in_use() {
    let source = "pub fn a() {}\npub const fn b() {}\npub const C: u8 = 0;\n\
        pub(crate) fn d() {}\n    pub fn e(&self) {}\nfn f() {}\npub fn $g() {}\n\
        pub struct H; // pub fn h\n/// pub fn i\n#[cfg(test)]\npub fn t() {}\n";
    let code = non_test_code(source);
    assert!(!code.contains("pub fn t"), "the test part is cut");
    assert_eq!(public_definitions(&code), ["a", "b", "C", "e"]);

    for (line, code) in [
        ("x // y", "x "),
        ("let s = \"// k\"; m", "let s = \"// k\"; m"),
        ("let q = \"a\\\"// b\"; n", "let q = \"a\\\"// b\"; n"),
        ("if c == '\"' { o } // p", "if c == '\"' { o } "),
        ("fn l<'a>(c: &'a str) {} // r", "fn l<'a>(c: &'a str) {} "),
    ] {
        assert_eq!(code_of(line), code, "{line}");
    }
}
