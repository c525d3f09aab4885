//! **Panic freedom.** Non-test code in every `crates/*/src` must not call
//! `unwrap()` / `expect()` / `unwrap_err()` / `expect_err()` or invoke
//! `panic!` / `unreachable!` / `todo!` / `unimplemented!` / `assert!` /
//! `assert_eq!` / `assert_ne!` — a servent that aborts on a malformed
//! message or a broken internal invariant takes the whole node down with
//! it. `debug_assert!` and kin are not flagged: every number in this
//! repository comes from a release build, which compiles them out.
//!
//! A site that is provably infallible, or where failing fast is the
//! designed behavior (the experiment harness), carries its excuse beside
//! it: a `// panic-ok: <reason>` comment on the site's line or the line
//! directly above, or `//! panic-ok: <reason>` in the file's inner doc for
//! every site of the file. A marker is itself a finding when its reason is
//! empty, when no site is on its line or the next, or, file-wide, when the
//! file has no site — so markers go as the sites they excuse are fixed.
//! Markers are matched on raw lines; a line marker's `//` opens the line
//! or follows whitespace, so a marker quoted in a string or a doc is none.
//!
//! Heuristic note: `.expect(` with the literal receiver `self` is
//! skipped — that is a method *named* `expect` (the CMIP parser has
//! one), not `Option::expect`.

use crate::lexer::{Token, TokenKind};
use crate::{collect_src_files, load_source, Finding, SourceFile};
use std::path::Path;

const RULE: &str = "panic-freedom";

/// Methods whose call in non-test code is a finding.
const PANIC_METHODS: [&str; 4] = ["unwrap", "expect", "unwrap_err", "expect_err"];

/// Macros whose invocation in non-test code is a finding.
const PANIC_MACROS: [&str; 7] =
    ["panic", "unreachable", "todo", "unimplemented", "assert", "assert_eq", "assert_ne"];

/// Runs the rule over every `crates/*/src` file under `root`, appending
/// findings.
pub fn check(root: &Path, findings: &mut Vec<Finding>) {
    for rel in collect_src_files(root) {
        if let Some(file) = load_source(root, &rel, findings) {
            check_file(&file, findings);
        }
    }
}

/// The panic sites of a file's non-test tokens, as `(line, message)`.
fn sites(code: &[Token]) -> Vec<(u32, String)> {
    let mut sites = Vec::new();
    for (j, t) in code.iter().enumerate() {
        if t.kind != TokenKind::Ident {
            continue;
        }
        let next_is = |ch: char| code.get(j + 1).is_some_and(|n| n.is_punct(ch));
        let method_call = j > 0 && code[j - 1].is_punct('.') && next_is('(');
        if method_call && PANIC_METHODS.contains(&t.text.as_str()) {
            // a method named `expect` on a parser: `self.expect('(')`
            if !(t.is_ident("expect") && j >= 2 && code[j - 2].is_ident("self")) {
                sites.push((t.line, format!("call to `{}()` outside tests", t.text)));
            }
        } else if PANIC_MACROS.contains(&t.text.as_str()) && next_is('!') {
            sites.push((t.line, format!("`{}!` invocation outside tests", t.text)));
        }
    }
    sites
}

/// The marker on a raw source line, if any: whether it is file-wide, and
/// the reason it gives.
fn marker(text: &str) -> Option<(bool, &str)> {
    if let Some(reason) = text.trim_start().strip_prefix("//! panic-ok:") {
        return Some((true, reason));
    }
    let (before, reason) = text.split_once("// panic-ok:")?;
    before.chars().next_back().is_none_or(char::is_whitespace).then_some((false, reason))
}

/// Checks one file: its unexcused sites, and its markers that excuse
/// nothing or give no reason.
fn check_file(file: &SourceFile, findings: &mut Vec<Finding>) {
    let sites = sites(&file.code);
    let mut push = |line: u32, message: String| {
        findings.push(Finding { rule: RULE, file: file.rel_path.clone(), line, message });
    };
    let mut file_wide = false;
    let mut line_markers = Vec::new();
    for (line, text) in (1u32..).zip(&file.lines) {
        let Some((whole_file, reason)) = marker(text) else { continue };
        if reason.trim().is_empty() {
            push(line, "`panic-ok` marker without a reason".to_string());
        }
        if whole_file {
            file_wide = true;
            if sites.is_empty() {
                push(line, "stale file-wide `panic-ok` marker: the file has no panic site".into());
            }
        } else {
            line_markers.push(line);
            if !sites.iter().any(|&(site, _)| site == line || site == line + 1) {
                push(line, "stale `panic-ok` marker: no panic site on its line or the next".into());
            }
        }
    }
    for (site, message) in sites {
        if !file_wide && !line_markers.iter().any(|&m| m == site || m + 1 == site) {
            push(site, message);
        }
    }
}
