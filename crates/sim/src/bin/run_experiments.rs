//! Prints the experiment tables (E1–E7, E11) as markdown and writes no
//! file. Stdout is a function of the scale and the fixed seed: the
//! `--smoke` output is committed as `crates/sim/tests/golden/smoke.md`.
//!
//! ```text
//! cargo run -p up2p-sim --release --bin run_experiments             # all
//! cargo run -p up2p-sim --release --bin run_experiments -- --smoke  # reduced sizes
//! cargo run -p up2p-sim --release --bin run_experiments -- --scenario e11
//! ```
//!
//! Wall-clock measurement of the product (index, search, durability,
//! guided routing) is the repo benchmark's job: `up2p_bench/`.

use up2p_sim::{run_all, run_scenario, Scale};

fn print_help() {
    println!("run_experiments — print the U-P2P experiment tables (E1-E7, E11)");
    println!();
    println!("USAGE:");
    println!("    cargo run -p up2p-sim --release --bin run_experiments [-- FLAGS]");
    println!();
    println!("FLAGS:");
    println!("    --smoke           reduced sizes for a quick sanity run");
    println!("    --scenario NAME   run one scenario only (e1..e7, e11)");
    println!("    -h, --help        print this help");
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.iter().any(|a| a == "--help" || a == "-h") {
        print_help();
        return;
    }
    let mut scale = Scale::Full;
    let mut scenario: Option<String> = None;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--smoke" => scale = Scale::Smoke,
            "--scenario" => match it.next() {
                Some(name) => scenario = Some(name.clone()),
                None => {
                    eprintln!("error: --scenario needs a name (e1..e7, e11)");
                    std::process::exit(2);
                }
            },
            unknown => {
                eprintln!("error: unknown flag '{unknown}' (try --help)");
                std::process::exit(2);
            }
        }
    }
    let seed = 42;

    let tables = match scenario.as_deref() {
        None => {
            eprintln!("running all scenarios at {scale:?} scale (seed {seed}) ...");
            run_all(scale, seed)
        }
        Some(name) => run_scenario(name, scale, seed).unwrap_or_else(|| {
            eprintln!(
                "error: unknown scenario '{name}' (expected e1..e7 or e11; e8, e9, e10 and \
                 e12 are retired, their measurements are up2p_bench workloads and probes)"
            );
            std::process::exit(2)
        }),
    };
    for table in tables {
        println!("{}\n", table.to_markdown());
    }
}
