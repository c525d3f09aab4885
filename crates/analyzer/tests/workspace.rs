//! The analyzer against the real repository: the lexer must tokenize
//! every Rust file in the workspace, and the pass must be clean — these
//! tests are what makes an unmarked panic site or a stale marker a test
//! failure and not just a CI-job failure.

use std::path::{Path, PathBuf};

fn repo_root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../..").canonicalize().expect("repo root")
}

fn rust_files(dir: &Path, out: &mut Vec<PathBuf>) {
    let Ok(entries) = std::fs::read_dir(dir) else { return };
    for entry in entries.flatten() {
        let path = entry.path();
        let name = entry.file_name();
        if path.is_dir() {
            if name != "target" {
                rust_files(&path, out);
            }
        } else if path.extension().and_then(|e| e.to_str()) == Some("rs") {
            out.push(path);
        }
    }
}

#[test]
fn lexer_tokenizes_every_workspace_file() {
    let root = repo_root();
    let mut files = Vec::new();
    for dir in ["crates", "shims", "src", "tests"] {
        rust_files(&root.join(dir), &mut files);
    }
    assert!(files.len() > 40, "workspace walk looks broken: {} files", files.len());
    for path in files {
        let src = std::fs::read_to_string(&path)
            .unwrap_or_else(|e| panic!("read {}: {e}", path.display()));
        let tokens = analyzer::lexer::lex(&src)
            .unwrap_or_else(|e| panic!("lex {}:{}: {}", path.display(), e.line, e.message));
        assert!(!tokens.is_empty() || src.trim().is_empty(), "{}", path.display());
    }
}

#[test]
fn repo_self_check_is_clean() {
    // deny-by-default on the repo itself: the same invariants CI's
    // `analyze` job enforces, as a plain `cargo test`
    let findings = analyzer::run_check(&repo_root());
    assert!(findings.is_empty(), "repository violates its own invariants:\n{findings:#?}");
}
