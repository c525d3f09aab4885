//! Command-line contract of `run_experiments`: its three options (four
//! spellings), its exit codes, that a run prints markdown tables and
//! writes nothing, and that what `--smoke` prints is the committed
//! `golden/smoke.md`.

use std::path::Path;
use std::process::{Command, Output};

const EXE: &str = env!("CARGO_BIN_EXE_run_experiments");

fn run_in(cwd: &Path, args: &[&str]) -> Output {
    Command::new(EXE).args(args).current_dir(cwd).output().expect("run_experiments starts")
}

fn run(args: &[&str]) -> Output {
    run_in(&std::env::temp_dir(), args)
}

#[test]
fn help_lists_exactly_the_four_flags() {
    let out = run(&["--help"]);
    assert_eq!(out.status.code(), Some(0));
    let help = String::from_utf8(out.stdout).expect("utf-8 help");
    let (_, flags) = help.split_once("FLAGS:").expect("help has a FLAGS section");
    let listed: Vec<&str> = flags
        .split(|c: char| c.is_whitespace() || c == ',')
        .filter(|token| token.starts_with('-'))
        .collect();
    assert_eq!(listed, ["--smoke", "--scenario", "-h", "--help"]);
}

#[test]
fn bad_invocations_exit_2() {
    // `--md` was a flag until markdown became the only format
    for args in [&["--frobnicate"][..], &["--md"], &["--scenario"], &["--scenario", "e99"]] {
        let out = run(args);
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        assert!(out.stdout.is_empty(), "{args:?} printed a table");
    }
}

#[test]
fn retired_scenarios_exit_2_and_name_the_benchmark() {
    for name in ["e8", "e9", "e10", "e12"] {
        let out = run(&["--scenario", name]);
        assert_eq!(out.status.code(), Some(2), "{name}");
        let message = String::from_utf8_lossy(&out.stderr);
        assert!(message.contains("up2p_bench"), "{name}: {message}");
    }
}

#[test]
fn a_scenario_run_prints_one_table_and_leaves_the_directory_empty() {
    let dir = std::env::temp_dir().join(format!("up2p-run-experiments-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("temp dir");
    let out = run_in(&dir, &["--scenario", "e11", "--smoke"]);
    assert_eq!(out.status.code(), Some(0), "{}", String::from_utf8_lossy(&out.stderr));
    let stdout = String::from_utf8(out.stdout).expect("utf-8 table");
    // a markdown table is one `**title**` line above its `| … |` rows
    let titles: Vec<&str> =
        stdout.lines().filter(|l| !l.is_empty() && !l.starts_with('|')).collect();
    assert_eq!(titles.len(), 1, "{titles:?}");
    assert!(titles[0].starts_with("**E11"), "{titles:?}");
    let left_behind: Vec<_> = std::fs::read_dir(&dir).expect("temp dir").flatten().collect();
    assert!(left_behind.is_empty(), "run_experiments wrote {left_behind:?}");
    std::fs::remove_dir_all(&dir).expect("temp dir removed");
}

/// Every cell of E1–E11 is a function of the seed, so the smoke tables
/// are a committed value: a PR that moves a count commits the new file.
#[test]
fn smoke_stdout_is_the_golden_file() {
    let golden = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden/smoke.md");
    let want = std::fs::read_to_string(&golden).expect("golden file is committed");
    let out = run(&["--smoke"]);
    assert_eq!(out.status.code(), Some(0), "{}", String::from_utf8_lossy(&out.stderr));
    let got = String::from_utf8(out.stdout).expect("utf-8 tables");
    assert!(
        got == want,
        "`run_experiments --smoke` no longer prints crates/sim/tests/golden/smoke.md; if the \
         change is meant, regenerate it from the repo root and commit the diff:\n  cargo run \
         --release --bin run_experiments -- --smoke > crates/sim/tests/golden/smoke.md\n\
         first difference:\n{}",
        got.lines()
            .zip(want.lines())
            .find(|(g, w)| g != w)
            .map_or("(one output is a prefix of the other)".to_string(), |(g, w)| format!(
                "  printed: {g}\n  golden:  {w}"
            ))
    );
}
