//! `up2p-analyzer` — the workspace's panic-freedom check
//! ([`panic_free`]): no `unwrap()` / `expect()` / `panic!` / `assert!`
//! and kin in the non-test code of any `crates/*/src`, except at a site
//! whose excuse is written beside it as a `panic-ok` marker. No compiler
//! lint that runs under `cargo test` says this, and clippy's
//! `disallowed_macros` cannot tell `assert!` from `debug_assert!`.
//!
//! It holds no other rule. Message conservation is a test of the net
//! crate (`crates/net/tests/conservation.rs`, beside the one list
//! `MsgKind` is generated from), and there is no lock-order rule: no code
//! takes a lock while holding another (DESIGN.md §3d).
//!
//! It is built on a hand-rolled lexer ([`lexer`]) — the workspace takes
//! no external dependencies — and reads no configuration.

pub mod json;
pub mod lexer;
pub mod panic_free;

use std::fmt;
use std::path::Path;

/// One diagnostic the pass emits. Findings are deny-by-default: any
/// finding makes `up2p-analyzer check` exit non-zero.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    /// Rule family: `panic-freedom`, or `lex` for a file that could not
    /// be read or tokenized.
    pub rule: &'static str,
    /// Workspace-relative file (`/`-separated on every platform).
    pub file: String,
    /// 1-based line, 0 when the finding has no specific line.
    pub line: u32,
    /// Human-readable description.
    pub message: String,
}

impl fmt::Display for Finding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[{}] {}:{}: {}", self.rule, self.file, self.line, self.message)
    }
}

/// A lexed source file with its workspace-relative path.
pub(crate) struct SourceFile {
    /// `/`-separated path relative to the analysis root.
    pub rel_path: String,
    /// Raw source lines (for marker matching).
    pub lines: Vec<String>,
    /// Token stream with test-only items removed.
    pub code: Vec<lexer::Token>,
}

/// Loads and lexes one file, pushing a `lex` finding on tokenizer errors.
/// Returns `None` when the file cannot be read or lexed.
pub(crate) fn load_source(
    root: &Path,
    rel: &str,
    findings: &mut Vec<Finding>,
) -> Option<SourceFile> {
    let src = match std::fs::read_to_string(root.join(rel)) {
        Ok(s) => s,
        Err(e) => {
            findings.push(Finding {
                rule: "lex",
                file: rel.to_string(),
                line: 0,
                message: format!("cannot read file: {e}"),
            });
            return None;
        }
    };
    let tokens = match lexer::lex(&src) {
        Ok(t) => t,
        Err(e) => {
            findings.push(Finding {
                rule: "lex",
                file: rel.to_string(),
                line: e.line,
                message: format!("tokenizer error: {}", e.message),
            });
            return None;
        }
    };
    Some(SourceFile {
        rel_path: rel.to_string(),
        lines: src.lines().map(str::to_string).collect(),
        code: lexer::strip_test_code(&tokens),
    })
}

/// Path components that exclude a file from non-test rule scans.
const EXCLUDED_COMPONENTS: [&str; 5] = ["tests", "benches", "examples", "fixtures", "target"];

/// Collects the `.rs` files under `root/crates` that belong to shipped
/// code: inside a `src/` tree and outside `tests/`, `benches/`,
/// `examples/`, `fixtures/` and `target/`. Paths come back root-relative,
/// `/`-separated and sorted.
pub(crate) fn collect_src_files(root: &Path) -> Vec<String> {
    let mut out = Vec::new();
    let mut stack = vec![root.join("crates")];
    while let Some(d) = stack.pop() {
        let Ok(entries) = std::fs::read_dir(&d) else { continue };
        for entry in entries.flatten() {
            let path = entry.path();
            if path.is_dir() {
                stack.push(path);
            } else if path.extension().and_then(|e| e.to_str()) == Some("rs") {
                if let Some(rel) = rel_slash_path(root, &path) {
                    let comps: Vec<&str> = rel.split('/').collect();
                    if comps.contains(&"src")
                        && !comps.iter().any(|c| EXCLUDED_COMPONENTS.contains(c))
                    {
                        out.push(rel);
                    }
                }
            }
        }
    }
    out.sort();
    out.dedup();
    out
}

/// Root-relative `/`-separated rendering of `path`, when under `root`.
fn rel_slash_path(root: &Path, path: &Path) -> Option<String> {
    let rel = path.strip_prefix(root).ok()?;
    let parts: Vec<String> =
        rel.components().map(|c| c.as_os_str().to_string_lossy().into_owned()).collect();
    Some(parts.join("/"))
}

/// Runs the pass over the workspace at `root`. Findings come back sorted
/// by (file, line, rule, message) for deterministic output.
pub fn run_check(root: &Path) -> Vec<Finding> {
    let mut findings = Vec::new();
    panic_free::check(root, &mut findings);
    findings.sort_by(|a, b| {
        (a.file.as_str(), a.line, a.rule, a.message.as_str())
            .cmp(&(b.file.as_str(), b.line, b.rule, b.message.as_str()))
    });
    findings
}
