//! **Panic freedom.** Non-test code of the scanned crates must not call
//! `unwrap()` / `expect()` or invoke `panic!` / `unreachable!` / `todo!`
//! / `unimplemented!` / `assert!` / `assert_eq!` / `assert_ne!` — a
//! servent that aborts on a malformed message or a broken internal
//! invariant takes the whole node down with it. `debug_assert!` and kin
//! are not flagged: every number in this repository comes from a release
//! build, which compiles them out. Sites
//! that are provably infallible (or where fail-fast is the designed
//! behavior, as in the experiment harness) are tolerated only when
//! listed with a reason in `analyzer-allow.toml`; stale allowlist
//! entries are themselves findings, so the list can only shrink.
//!
//! Heuristic note: `.expect(` with the literal receiver `self` is
//! skipped — that is a method *named* `expect` (the CMIP parser has
//! one), not `Option::expect`.

use crate::config::{AllowEntry, PanicConfig};
use crate::lexer::TokenKind;
use crate::{collect_src_files, load_source, Finding};
use std::path::Path;

const RULE: &str = "panic-freedom";

/// Macros whose invocation in non-test code is a finding.
const PANIC_MACROS: [&str; 7] =
    ["panic", "unreachable", "todo", "unimplemented", "assert", "assert_eq", "assert_ne"];

/// Runs the rule, appending findings.
pub fn check(root: &Path, cfg: &PanicConfig, allow: &[AllowEntry], findings: &mut Vec<Finding>) {
    let mut allow_used = vec![false; allow.len()];
    for dir in &cfg.scan {
        for rel in collect_src_files(root, dir) {
            let Some(file) = load_source(root, &rel, findings) else { continue };
            let mut sites: Vec<(u32, String)> = Vec::new();
            let code = &file.code;
            for j in 0..code.len() {
                let t = &code[j];
                if t.kind != TokenKind::Ident {
                    continue;
                }
                let next_is = |ch: char| code.get(j + 1).map(|n| n.is_punct(ch)).unwrap_or(false);
                // `.unwrap()` / `.expect(…)` method calls
                if (t.is_ident("unwrap") || t.is_ident("expect"))
                    && j > 0
                    && code[j - 1].is_punct('.')
                    && next_is('(')
                {
                    // a method named `expect` on a parser: `self.expect('(')`
                    let receiver_is_self = j >= 2 && code[j - 2].is_ident("self");
                    if t.is_ident("expect") && receiver_is_self {
                        continue;
                    }
                    sites.push((t.line, format!("call to `{}()` outside tests", t.text)));
                    continue;
                }
                // `panic!` family macro invocations
                if PANIC_MACROS.contains(&t.text.as_str()) && next_is('!') {
                    sites.push((t.line, format!("`{}!` invocation outside tests", t.text)));
                }
            }
            for (line, message) in sites {
                let src_line =
                    file.lines.get(line as usize - 1).map(String::as_str).unwrap_or("");
                let allowed = allow.iter().enumerate().find(|(_, e)| {
                    e.file == rel
                        && e.pattern.as_deref().map(|p| src_line.contains(p)).unwrap_or(true)
                });
                match allowed {
                    Some((idx, _)) => allow_used[idx] = true,
                    None => findings.push(Finding {
                        rule: RULE,
                        file: rel.clone(),
                        line,
                        message,
                    }),
                }
            }
        }
    }
    // an allow entry that matches nothing is dead weight — flag it so the
    // list can only shrink as sites get fixed
    for (entry, used) in allow.iter().zip(&allow_used) {
        if !used {
            findings.push(Finding {
                rule: RULE,
                file: "analyzer-allow.toml".to_string(),
                line: entry.line,
                message: format!(
                    "stale allow entry for `{}`{}: no matching panic site",
                    entry.file,
                    entry
                        .pattern
                        .as_deref()
                        .map(|p| format!(" (pattern `{p}`)"))
                        .unwrap_or_default()
                ),
            });
        }
    }
}
