//! The panic gate (DESIGN.md §3d), shared by the test that runs it
//! over the workspace (`panic_free.rs`) and the one that runs it over
//! a seeded fixture (`fixtures.rs`). It holds the only copy of the
//! lint list.

use std::path::Path;
use std::process::Command;

/// What the gate denies beyond `-D warnings`, which also makes an
/// unfulfilled `#[expect]` an error. `disallowed_macros` and
/// `disallowed_types` take their lists from the repository's
/// `clippy.toml`.
const LINTS: &[&str] = &[
    "clippy::unwrap_used",
    "clippy::expect_used",
    "clippy::panic",
    "clippy::unreachable",
    "clippy::disallowed_macros",
    "clippy::disallowed_types",
    "clippy::allow_attributes",
    "clippy::allow_attributes_without_reason",
    "clippy::missing_panics_doc",
];

pub fn repo() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR"))
}

/// One diagnostic: its file (relative to the linted workspace's root),
/// line and lint.
#[derive(Debug, PartialEq, Eq, PartialOrd, Ord)]
pub struct Finding {
    pub file: String,
    pub line: usize,
    pub lint: String,
}

pub struct Outcome {
    pub passed: bool,
    pub findings: Vec<Finding>,
    pub stderr: String,
}

/// Lints the library and binary targets of the workspace at `manifest`
/// with the gate's flags and the repository's `clippy.toml`.
pub fn gate(manifest: &Path) -> Outcome {
    let cargo = std::env::var_os("CARGO").unwrap_or_else(|| env!("CARGO").into());
    let mut cmd = Command::new(cargo);
    cmd.args(["clippy", "--offline", "--workspace", "--lib", "--bins", "--keep-going"])
        // proptest is a dev-dependency only, and its asserts are how a
        // property test fails
        .args(["--exclude", "proptest", "--message-format=json", "--manifest-path"])
        .arg(manifest)
        .arg("--target-dir")
        .arg(repo().join("target/panic-gate"))
        .env("CLIPPY_CONF_DIR", repo())
        .args(["--", "-D", "warnings"]);
    for lint in LINTS {
        cmd.args(["-D", lint]);
    }
    let out = cmd.output().unwrap_or_else(|e| panic!("cannot run cargo clippy: {e}"));
    Outcome {
        passed: out.status.success(),
        findings: String::from_utf8_lossy(&out.stdout).lines().filter_map(finding).collect(),
        stderr: String::from_utf8_lossy(&out.stderr).into_owned(),
    }
}

/// The finding in one line of cargo's JSON messages, if it holds a
/// diagnostic with a place: the lint from its `code`, the place from the
/// first `-->` of its rendered text.
fn finding(json: &str) -> Option<Finding> {
    let after = |key: &str| json.split_once(key).map(|(_, rest)| rest);
    let place = after("--> ")?.split_once("\\n")?.0;
    let mut parts = place.rsplitn(3, ':').skip(1);
    let (line, file) = (parts.next()?.parse().ok()?, parts.next()?.to_string());
    let lint = after("\"code\":{\"code\":\"").and_then(|rest| rest.split_once('"'));
    Some(Finding { file, line, lint: lint.map_or("", |(code, _)| code).to_string() })
}
