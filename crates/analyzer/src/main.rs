//! `up2p-analyzer` — run the workspace static-analysis pass.
//!
//! ```text
//! cargo run -p analyzer -- check [--root DIR] [--json FILE]
//! ```
//!
//! Exit codes: `0` clean, `1` findings (deny-by-default), `2` bad usage
//! or a failed `--json` write.

use std::path::PathBuf;
use std::process::ExitCode;

fn usage() -> ExitCode {
    eprintln!("usage: up2p-analyzer check [--root DIR] [--json FILE]");
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let mut args = std::env::args().skip(1);
    let Some(command) = args.next() else { return usage() };
    if command != "check" {
        eprintln!("unknown command `{command}`");
        return usage();
    }
    let mut root = PathBuf::from(".");
    let mut json_out: Option<PathBuf> = None;
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--root" => match args.next() {
                Some(v) => root = PathBuf::from(v),
                None => return usage(),
            },
            "--json" => match args.next() {
                Some(v) => json_out = Some(PathBuf::from(v)),
                None => return usage(),
            },
            other => {
                eprintln!("unknown flag `{other}`");
                return usage();
            }
        }
    }

    if !root.join("crates").is_dir() {
        eprintln!("no `crates` directory under {}", root.display());
        return usage();
    }
    let findings = analyzer::run_check(&root);
    if let Some(path) = &json_out {
        let json = analyzer::json::findings_to_json(&findings);
        if let Err(e) = std::fs::write(path, json) {
            eprintln!("up2p-analyzer: cannot write {}: {e}", path.display());
            return ExitCode::from(2);
        }
    }

    for f in &findings {
        println!("{f}");
    }
    if findings.is_empty() {
        println!("up2p-analyzer: clean (0 findings)");
        ExitCode::SUCCESS
    } else {
        println!("up2p-analyzer: {} finding(s)", findings.len());
        ExitCode::from(1)
    }
}
