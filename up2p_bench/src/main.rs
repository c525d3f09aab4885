//! `up2p_bench` — the repo benchmark.
//!
//! ```text
//! up2p_bench [--workload NAME] [--seed N] [--scale F] [--seconds S]
//!            [--trace [0|1]] [--repeat N] [--out PATH]
//! up2p_bench --compare A.json B.json
//! ```
//!
//! With `--workload` the workload runs in this process and the last
//! line of standard output is the result object the driver reads.
//! Without it every workload runs in a fresh child process of its own,
//! so peak RSS and allocator state belong to that workload alone.

use std::path::{Path, PathBuf};
use std::process::ExitCode;
use up2p_perfbench::harness::{self, scratch_root, Budget, Config, Report, DEFAULT_BLOCKS};
use up2p_perfbench::metrics::{self, Json, END_TO_END, EXACT, WORKLOADS};
use up2p_perfbench::{des, publish, search, ui};

const USAGE: &str = "usage: up2p_bench [--workload NAME] [--seed N] [--scale F] [--seconds S] \
[--trace [0|1]] [--repeat N] [--out PATH] | --compare A.json B.json";

#[derive(Debug)]
struct Args {
    workload: Option<String>,
    seed: u64,
    scale: f64,
    seconds: Option<f64>,
    trace: bool,
    repeat: u32,
    out: Option<PathBuf>,
    compare: Option<(PathBuf, PathBuf)>,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: 42,
        scale: 1.0,
        seconds: None,
        trace: false,
        repeat: 1,
        out: None,
        compare: None,
    };
    let mut it = argv.iter().peekable();
    fn value<'a>(
        it: &mut impl Iterator<Item = &'a String>,
        flag: &str,
    ) -> Result<&'a String, String> {
        it.next().ok_or_else(|| format!("{flag} needs a value"))
    }
    fn number<T: std::str::FromStr>(s: &str, flag: &str) -> Result<T, String> {
        s.parse().map_err(|_| format!("{flag}: cannot read {s:?}"))
    }
    while let Some(flag) = it.next() {
        match flag.as_str() {
            "--workload" => {
                let name = value(&mut it, flag)?;
                if !WORKLOADS.contains(&name.as_str()) {
                    return Err(format!("unknown workload {name:?}; one of {WORKLOADS:?}"));
                }
                args.workload = Some(name.clone());
            }
            "--seed" => args.seed = number(value(&mut it, flag)?, flag)?,
            "--scale" => args.scale = number(value(&mut it, flag)?, flag)?,
            "--seconds" => args.seconds = Some(number(value(&mut it, flag)?, flag)?),
            "--repeat" => args.repeat = number(value(&mut it, flag)?, flag)?,
            "--out" => args.out = Some(PathBuf::from(value(&mut it, flag)?)),
            // bare `--trace`, or the driver's `--trace 0|1`
            "--trace" => {
                args.trace = it
                    .next_if(|v| matches!(v.as_str(), "0" | "1"))
                    .is_none_or(|v| v == "1");
            }
            "--compare" => {
                let a = PathBuf::from(value(&mut it, flag)?);
                args.compare = Some((a, PathBuf::from(value(&mut it, flag)?)));
            }
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    if !(args.scale > 0.0 && args.scale.is_finite()) {
        return Err("--scale must be positive".to_string());
    }
    if args.seconds.is_some_and(|s| !(s > 0.0 && s.is_finite())) {
        return Err("--seconds must be positive".to_string());
    }
    if args.repeat == 0 {
        return Err("--repeat must be at least 1".to_string());
    }
    Ok(args)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("up2p_bench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let outcome = match &args.compare {
        Some((a, b)) => compare(a, b),
        None if args.workload.is_some() && args.repeat == 1 => run_here(&args),
        None => run_children(&args),
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("up2p_bench: {e}");
            ExitCode::from(1)
        }
    }
}

// ---------------------------------------------------------------------
// running
// ---------------------------------------------------------------------

fn run_workload(name: &str, cfg: &Config) -> Report {
    match name {
        "author_publish" => harness::run::<publish::AuthorPublish>(cfg),
        "community_ui" => harness::run::<ui::CommunityUi>(cfg),
        "search_napster" => harness::run::<search::SearchWorkload<search::Napster>>(cfg),
        "search_flood" => harness::run::<search::SearchWorkload<search::Flood>>(cfg),
        "search_guided" => harness::run::<search::SearchWorkload<search::Guided>>(cfg),
        _ => harness::run::<des::DesGuided>(cfg),
    }
}

fn metric_map<'a>(values: impl Iterator<Item = (&'a str, f64, &'a str)>) -> Json {
    Json::obj(values.map(|(name, value, unit)| {
        (
            name,
            Json::obj([
                ("value", Json::Num(value)),
                ("unit", Json::Str(unit.to_string())),
            ]),
        )
    }))
}

/// The commit a result was taken at, read from `.git` by hand (the
/// driver's checkout has none, and no process is spawned for it).
fn git_revision() -> String {
    let Ok(mut dir) = std::env::current_dir() else {
        return "unknown".to_string();
    };
    loop {
        let git = dir.join(".git");
        if let Ok(head) = std::fs::read_to_string(git.join("HEAD")) {
            let head = head.trim();
            let Some(reference) = head.strip_prefix("ref: ") else {
                return head.to_string();
            };
            if let Ok(rev) = std::fs::read_to_string(git.join(reference)) {
                return rev.trim().to_string();
            }
            let packed = std::fs::read_to_string(git.join("packed-refs")).unwrap_or_default();
            return packed
                .lines()
                .find_map(|l| l.strip_suffix(reference).map(|rev| rev.trim().to_string()))
                .unwrap_or_else(|| "unknown".to_string());
        }
        if !dir.pop() {
            return "unknown".to_string();
        }
    }
}

fn stamp(args: &Args) -> Json {
    let nproc = std::thread::available_parallelism().map_or(1, usize::from);
    Json::obj([
        ("seed", Json::Num(args.seed as f64)),
        ("scale", Json::Num(args.scale)),
        ("seconds", args.seconds.map_or(Json::Null, Json::Num)),
        ("nproc", Json::Num(nproc as f64)),
        ("git_revision", Json::Str(git_revision())),
        (
            "load",
            Json::Str("one thread, closed loop, one client".to_string()),
        ),
    ])
}

fn run_json(report: &Report, trace: bool) -> Json {
    let e2e = END_TO_END
        .iter()
        .map(|m| (m.name, report.end_to_end[m.name], m.unit));
    let mut fields = vec![
        ("workload", Json::Str(report.workload.to_string())),
        ("trace", Json::Bool(trace)),
        ("attempted", Json::Num(report.attempted as f64)),
        ("failed", Json::Num(report.failed as f64)),
        ("end_to_end", metric_map(e2e)),
        ("info", report.info.clone()),
    ];
    if let Some(layers) = &report.per_layer {
        let defs = metrics::per_layer();
        fields.push((
            "per_layer",
            metric_map(
                defs.iter()
                    .map(|(name, unit, _)| (name.as_str(), layers[name], *unit)),
            ),
        ));
    }
    Json::obj(fields)
}

fn write_result(path: &Path, args: &Args, runs: Vec<Json>) -> Result<(), String> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    }
    let doc = Json::obj([("stamp", stamp(args)), ("runs", Json::Arr(runs))]);
    std::fs::write(path, doc.render() + "\n").map_err(|e| format!("{}: {e}", path.display()))
}

/// Runs one workload in this process and prints the driver's line.
fn run_here(args: &Args) -> Result<bool, String> {
    let name = args.workload.as_deref().expect("checked by the caller");
    let scratch = scratch_root();
    std::fs::create_dir_all(&scratch).map_err(|e| format!("{}: {e}", scratch.display()))?;
    let cfg = Config {
        seed: args.seed,
        scale: args.scale,
        budget: args
            .seconds
            .map_or(Budget::Blocks(DEFAULT_BLOCKS), Budget::Seconds),
        trace: args.trace,
        scratch: scratch.clone(),
    };
    let report = run_workload(name, &cfg);

    println!(
        "workload {name}  seed {}  scale {}  trace {}",
        args.seed, args.scale, args.trace
    );
    for m in END_TO_END {
        println!(
            "  {:<44} {:>16.4} {}",
            m.name, report.end_to_end[m.name], m.unit
        );
    }
    if let Some(layers) = &report.per_layer {
        for (name, unit, _) in metrics::per_layer() {
            println!("  {:<44} {:>16.4} {}", name, layers[&name], unit);
        }
    }
    let path = args
        .out
        .clone()
        .unwrap_or_else(|| scratch.join(format!("result-{name}.json")));
    let run = run_json(&report, args.trace);
    // the driver's line: per-layer metrics on a traced run, end-to-end
    // metrics otherwise
    let shown = run
        .get("per_layer")
        .or(run.get("end_to_end"))
        .cloned()
        .unwrap_or(Json::Null);
    write_result(&path, args, vec![run])?;
    println!("result written to {}", path.display());

    let correct = report.failed == 0;
    let line = Json::obj([
        ("correct", Json::Bool(correct)),
        ("attempted", Json::Num(report.attempted.max(1) as f64)),
        ("failed", Json::Num(report.failed as f64)),
        ("metrics", shown),
    ]);
    println!("{}", line.render());
    Ok(correct)
}

/// Runs every selected workload `--repeat` times, each run in a fresh
/// child process, and merges the children's result files.
fn run_children(args: &Args) -> Result<bool, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let scratch = scratch_root();
    std::fs::create_dir_all(&scratch).map_err(|e| format!("{}: {e}", scratch.display()))?;
    let names: Vec<&str> = match &args.workload {
        Some(name) => vec![name.as_str()],
        None => WORKLOADS.to_vec(),
    };
    let mut runs = Vec::new();
    let mut all_ok = true;
    for name in names {
        for rep in 0..args.repeat {
            let part = scratch.join(format!("part-{name}-{rep}.json"));
            let mut cmd = std::process::Command::new(&exe);
            cmd.args(["--workload", name, "--seed", &args.seed.to_string()])
                .args(["--scale", &args.scale.to_string()])
                .args(["--trace", if args.trace { "1" } else { "0" }])
                .arg("--out")
                .arg(&part);
            if let Some(s) = args.seconds {
                cmd.args(["--seconds", &s.to_string()]);
            }
            // `status` waits for the child, so none outlives this loop
            let status = cmd
                .status()
                .map_err(|e| format!("cannot start {name}: {e}"))?;
            all_ok &= status.success();
            let text =
                std::fs::read_to_string(&part).map_err(|e| format!("{}: {e}", part.display()))?;
            let doc = Json::parse(&text).map_err(|e| format!("{}: {e}", part.display()))?;
            runs.extend(
                doc.get("runs")
                    .map(Json::as_arr)
                    .unwrap_or_default()
                    .iter()
                    .cloned(),
            );
            let _ = std::fs::remove_file(&part);
        }
    }
    let path = args
        .out
        .clone()
        .unwrap_or_else(|| scratch.join("result.json"));
    write_result(&path, args, runs)?;
    println!("result written to {}", path.display());
    Ok(all_ok)
}

// ---------------------------------------------------------------------
// comparing
// ---------------------------------------------------------------------

/// One side of a comparison: the values of each metric of each
/// workload, over the file's untraced runs.
struct RunSet {
    seed: f64,
    values: std::collections::BTreeMap<(String, String), Vec<f64>>,
    attempted: std::collections::BTreeMap<String, Vec<f64>>,
}

fn load_runs(path: &Path) -> Result<RunSet, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    let doc = Json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))?;
    let seed = doc
        .get("stamp")
        .and_then(|s| s.get("seed"))
        .and_then(Json::as_f64)
        .unwrap_or(-1.0);
    let mut set = RunSet {
        seed,
        values: Default::default(),
        attempted: Default::default(),
    };
    for run in doc.get("runs").map(Json::as_arr).unwrap_or_default() {
        if run.get("trace") == Some(&Json::Bool(true)) {
            continue;
        }
        let workload = run
            .get("workload")
            .and_then(Json::as_str)
            .unwrap_or_default()
            .to_string();
        let attempted = run.get("attempted").and_then(Json::as_f64).unwrap_or(0.0);
        set.attempted
            .entry(workload.clone())
            .or_default()
            .push(attempted);
        for m in END_TO_END {
            let value = run
                .get("end_to_end")
                .and_then(|e| e.get(m.name))
                .and_then(|v| v.get("value"))
                .and_then(Json::as_f64)
                .ok_or_else(|| format!("{}: run of {workload} lacks {}", path.display(), m.name))?;
            set.values
                .entry((workload.clone(), m.name.to_string()))
                .or_default()
                .push(value);
        }
    }
    Ok(set)
}

/// Each end-to-end metric's bound, from `BENCHMARK.json` in the working
/// directory or beside this package.
fn load_bounds() -> Result<std::collections::BTreeMap<String, f64>, String> {
    let beside = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text = std::fs::read_to_string("BENCHMARK.json")
        .or_else(|_| std::fs::read_to_string(&beside))
        .map_err(|e| format!("BENCHMARK.json: {e}"))?;
    let doc = Json::parse(&text).map_err(|e| format!("BENCHMARK.json: {e}"))?;
    let bounds = doc.get("end_to_end").map(Json::as_arr).unwrap_or_default();
    Ok(bounds
        .iter()
        .filter_map(|m| {
            Some((
                m.get("name")?.as_str()?.to_string(),
                m.get("bound")?.as_f64()?,
            ))
        })
        .collect())
}

/// Spread of one set: the distance between its quartiles as a share of
/// its median (the whole range below four values).
fn spread(values: &[f64]) -> f64 {
    let median = metrics::median(values);
    let width = match metrics::quartiles(values) {
        Some((q1, q3)) if values.len() >= 4 => q3 - q1,
        _ => {
            values.iter().copied().fold(f64::MIN, f64::max)
                - values.iter().copied().fold(f64::MAX, f64::min)
        }
    };
    if median == 0.0 {
        0.0
    } else {
        (width / median).abs()
    }
}

/// `B` against `A`: one row per workload and metric. Returns whether no
/// metric regressed.
fn compare(a: &Path, b: &Path) -> Result<bool, String> {
    let (set_a, set_b) = (load_runs(a)?, load_runs(b)?);
    let bounds = load_bounds()?;
    println!(
        "{:<16} {:<18} {:>14} {:>14} {:>9} {:>7}  verdict   (A = {}, base of every ratio)",
        "workload",
        "metric",
        "median A",
        "median B",
        "worse by",
        "bound",
        a.display()
    );
    let mut ok = true;
    for ((workload, metric), va) in &set_a.values {
        let Some(vb) = set_b.values.get(&(workload.clone(), metric.clone())) else {
            continue;
        };
        let def = END_TO_END
            .iter()
            .find(|m| m.name == metric)
            .expect("loaded by name");
        let bound = bounds
            .get(metric)
            .copied()
            .ok_or_else(|| format!("no bound for {metric}"))?;
        let (ma, mb) = (metrics::median(va), metrics::median(vb));
        let worse = match def.better {
            "lower" => (mb - ma) / ma.abs().max(f64::MIN_POSITIVE),
            _ => (ma - mb) / ma.abs().max(f64::MIN_POSITIVE),
        };
        // the same ops on both sides: counts must repeat exactly
        let same_ops = set_a.seed == set_b.seed
            && set_a.attempted.get(workload) == set_b.attempted.get(workload);
        let all_b_better = vb.iter().all(|&y| {
            va.iter()
                .all(|&x| if def.better == "lower" { y < x } else { y > x })
        });
        let verdict = if EXACT.contains(&def.name) && same_ops {
            if va == vb {
                "same"
            } else {
                "REGRESSED"
            }
        } else if spread(va).max(spread(vb)) > bound && !all_b_better {
            "unresolved"
        } else if worse > bound {
            "REGRESSED"
        } else {
            "ok"
        };
        ok &= verdict != "REGRESSED";
        println!(
            "{workload:<16} {metric:<18} {ma:>14.4} {mb:>14.4} {:>8.2}% {:>6.1}%  {verdict}",
            worse * 100.0,
            bound * 100.0
        );
    }
    Ok(ok)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(str::to_string).collect()
    }

    #[test]
    fn driver_and_issue_spellings_of_trace_both_parse() {
        let a = parse_args(&argv(
            "--workload search_flood --seed 7 --seconds 10 --trace 1",
        ))
        .unwrap();
        assert!(a.trace && a.seed == 7 && a.seconds == Some(10.0));
        assert!(!parse_args(&argv("--trace 0 --seed 7")).unwrap().trace);
        let bare = parse_args(&argv("--trace --scale 0.5")).unwrap();
        assert!(bare.trace && bare.scale == 0.5);
    }

    #[test]
    fn bad_arguments_are_usage_errors() {
        for bad in [
            "--bogus",
            "--workload nope",
            "--seed",
            "--scale 0",
            "--seconds -1",
            "--repeat 0",
        ] {
            assert!(parse_args(&argv(bad)).is_err(), "{bad}");
        }
    }

    #[test]
    fn spread_is_quartile_distance_over_median() {
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(spread(&v), 5.5 / 5.5);
        assert_eq!(spread(&[10.0, 11.0]), 1.0 / 10.5);
        assert_eq!(spread(&[3.0]), 0.0);
    }
}
