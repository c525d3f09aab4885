//! Prints the experiment tables (E1–E7, E11) and writes no file.
//!
//! ```text
//! cargo run -p up2p-sim --release --bin run_experiments             # all, ASCII
//! cargo run -p up2p-sim --release --bin run_experiments -- --md     # markdown
//! cargo run -p up2p-sim --release --bin run_experiments -- --smoke  # reduced sizes
//! cargo run -p up2p-sim --release --bin run_experiments -- --scenario e11
//! ```
//!
//! Wall-clock measurement of the product (index, search, durability,
//! guided routing) is the repo benchmark's job: `up2p_bench/`.

use up2p_sim::{
    e11_des_scale, e1_pipeline, e2_generation, e3_discovery, e4_metadata, e5_replication,
    e6_dedup_ablation, e6_protocols, e6_topologies, e6_ttl_sweep, e7_indexing, run_all, Scale,
};

fn print_help() {
    println!("run_experiments — print the U-P2P experiment tables (E1-E7, E11)");
    println!();
    println!("USAGE:");
    println!("    cargo run -p up2p-sim --release --bin run_experiments [-- FLAGS]");
    println!();
    println!("FLAGS:");
    println!("    --md              emit markdown tables instead of ASCII");
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
    let mut markdown = false;
    let mut scale = Scale::Full;
    let mut scenario: Option<String> = None;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--md" => markdown = true,
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
        Some("e1") => vec![e1_pipeline()],
        Some("e2") => vec![e2_generation(&[4, 8, 16, 32, 64])],
        Some("e3") => vec![e3_discovery(scale, seed)],
        Some("e4") => vec![e4_metadata()],
        Some("e5") => vec![e5_replication(scale, seed)],
        Some("e6") => vec![
            e6_protocols(scale, seed),
            e6_ttl_sweep(scale, seed),
            e6_dedup_ablation(scale, seed),
            e6_topologies(scale, seed),
        ],
        Some("e7") => vec![e7_indexing()],
        Some("e11") => vec![e11_des_scale(scale, seed)],
        Some(other) => {
            eprintln!(
                "error: unknown scenario '{other}' (expected e1..e7 or e11; e8, e9, e10 and \
                 e12 are retired, their measurements are up2p_bench workloads and probes)"
            );
            std::process::exit(2);
        }
    };
    for table in tables {
        if markdown {
            println!("{}\n", table.to_markdown());
        } else {
            println!("{table}");
        }
    }
}
