//! `up2p-analyzer` — workspace static analysis for the invariants that
//! live *across* files and therefore evade per-crate unit tests:
//!
//! 1. **Stat conservation** — every `MsgKind` variant is emitted by every
//!    substrate that declares its message class, `MsgKind::ALL` stays in
//!    sync with the enum, and no substrate counts a kind outside the
//!    classes it declares (`rules::stats`).
//! 2. **Panic freedom** — no `unwrap()` / `expect()` / `panic!` /
//!    `assert!` and kin in non-test code of the scanned crates, except
//!    sites allowlisted with a reason in `analyzer-allow.toml`
//!    (`rules::panic_free`).
//!
//! There is no lock-order rule: no code in the workspace takes a lock
//! while holding another, so there is no order to check (DESIGN.md §3d).
//!
//! Everything is built on a hand-rolled lexer ([`lexer`]) and a
//! subset-of-TOML config reader ([`config`]) — the workspace takes no
//! external dependencies.

pub mod config;
pub mod json;
pub mod lexer;
pub mod rules;

use std::fmt;
use std::path::{Path, PathBuf};

/// One diagnostic the pass emits. Findings are deny-by-default: any
/// finding makes `up2p-analyzer check` exit non-zero.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    /// Rule family: `stat-conservation`, `panic-freedom`, `lex`, or
    /// `config`.
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

/// Fatal analyzer failure (unreadable config, I/O error) — distinct from
/// findings: findings mean "the code violates an invariant", an error
/// means "the pass could not run".
#[derive(Debug)]
pub struct AnalyzerError {
    /// What went wrong.
    pub message: String,
}

impl fmt::Display for AnalyzerError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.message)
    }
}

impl std::error::Error for AnalyzerError {}

/// A lexed source file with its workspace-relative path.
pub struct SourceFile {
    /// `/`-separated path relative to the analysis root.
    pub rel_path: String,
    /// Raw source lines (for allowlist pattern matching).
    pub lines: Vec<String>,
    /// Token stream with test-only items removed.
    pub code: Vec<lexer::Token>,
}

/// Loads and lexes one file, pushing a `lex` finding on tokenizer errors.
/// Returns `None` when the file cannot be read or lexed.
pub fn load_source(root: &Path, rel: &str, findings: &mut Vec<Finding>) -> Option<SourceFile> {
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

/// Collects the `.rs` files under `root/dir` that belong to shipped code:
/// inside a `src/` tree and outside `tests/`, `benches/`, `examples/`,
/// `fixtures/` and `target/`. Paths come back root-relative,
/// `/`-separated and sorted.
pub fn collect_src_files(root: &Path, dir: &str) -> Vec<String> {
    let mut out = Vec::new();
    let mut stack = vec![root.join(dir)];
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
pub fn rel_slash_path(root: &Path, path: &Path) -> Option<String> {
    let rel = path.strip_prefix(root).ok()?;
    let parts: Vec<String> =
        rel.components().map(|c| c.as_os_str().to_string_lossy().into_owned()).collect();
    Some(parts.join("/"))
}

/// Runs every configured rule against the workspace at `root`, reading
/// `root/analyzer-allow.toml`. Findings come back sorted by (file, line,
/// rule, message) for deterministic output.
///
/// # Errors
///
/// Returns [`AnalyzerError`] when the configuration file is missing or
/// does not parse — a broken config must never look like a clean run.
pub fn run_check(root: &Path) -> Result<Vec<Finding>, AnalyzerError> {
    let config_path: PathBuf = root.join("analyzer-allow.toml");
    let src = std::fs::read_to_string(&config_path).map_err(|e| AnalyzerError {
        message: format!("cannot read {}: {e}", config_path.display()),
    })?;
    let cfg = config::parse_config(&src)
        .map_err(|e| AnalyzerError { message: e.to_string() })?;

    let mut findings = Vec::new();
    if let Some(stats) = &cfg.stats {
        rules::stats::check(root, stats, &mut findings);
    }
    if let Some(panic_cfg) = &cfg.panic {
        rules::panic_free::check(root, panic_cfg, &cfg.allow, &mut findings);
    }
    findings.sort_by(|a, b| {
        (a.file.as_str(), a.line, a.rule, a.message.as_str())
            .cmp(&(b.file.as_str(), b.line, b.rule, b.message.as_str()))
    });
    Ok(findings)
}
