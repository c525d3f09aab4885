//! The benchmark's contract with `BENCHMARK.json` and with itself:
//! every named workload and metric is emitted, counts repeat exactly for
//! a seed, results are stamped, and `--compare` applies the bounds.
//! Runs every workload at `--scale 0.01`.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::{Command, Output};
use up2p_perfbench::metrics::{self, Json, END_TO_END, WORKLOADS};

const EXE: &str = env!("CARGO_BIN_EXE_up2p_bench");

fn benchmark_json() -> Json {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    Json::parse(&std::fs::read_to_string(&path).expect("BENCHMARK.json at the repo root"))
        .expect("BENCHMARK.json parses")
}

fn scratch(name: &str) -> PathBuf {
    let dir = up2p_perfbench::harness::scratch_root().join("contract");
    std::fs::create_dir_all(&dir).unwrap();
    dir.join(name)
}

fn bench(args: &[&str]) -> Output {
    Command::new(EXE)
        .args(args)
        .output()
        .expect("the benchmark binary starts")
}

/// The metrics of the last line of a run's standard output.
fn last_line_metrics(out: &Output) -> BTreeMap<String, f64> {
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    let line =
        Json::parse(stdout.lines().last().expect("a result line")).expect("result line is JSON");
    assert_eq!(line.get("correct"), Some(&Json::Bool(true)));
    assert_eq!(line.get("failed").and_then(Json::as_f64), Some(0.0));
    assert!(line.get("attempted").and_then(Json::as_f64).unwrap() >= 1.0);
    let Some(Json::Obj(metrics)) = line.get("metrics") else {
        panic!("no metrics object")
    };
    metrics
        .iter()
        .map(|(name, m)| {
            assert!(
                m.get("unit").and_then(Json::as_str).is_some(),
                "{name} has a unit"
            );
            (
                name.clone(),
                m.get("value")
                    .and_then(Json::as_f64)
                    .expect("a numeric value"),
            )
        })
        .collect()
}

fn names(section: &Json) -> Vec<(String, String, String)> {
    section
        .as_arr()
        .iter()
        .map(|m| {
            let field = |k: &str| {
                m.get(k)
                    .and_then(Json::as_str)
                    .unwrap_or_default()
                    .to_string()
            };
            (field("name"), field("unit"), field("better"))
        })
        .collect()
}

#[test]
fn benchmark_json_mirrors_the_metric_definitions() {
    let doc = benchmark_json();
    let workloads: Vec<String> = doc
        .get("workloads")
        .unwrap()
        .as_arr()
        .iter()
        .map(|w| w.get("name").and_then(Json::as_str).unwrap().to_string())
        .collect();
    assert_eq!(workloads, WORKLOADS);
    let e2e: Vec<_> = END_TO_END
        .iter()
        .map(|m| (m.name.to_string(), m.unit.to_string(), m.better.to_string()))
        .collect();
    assert_eq!(names(doc.get("end_to_end").unwrap()), e2e);
    let layers: Vec<_> = metrics::per_layer()
        .into_iter()
        .map(|(name, unit, better)| (name, unit.to_string(), better.to_string()))
        .collect();
    assert_eq!(names(doc.get("per_layer").unwrap()), layers);
    for m in doc.get("end_to_end").unwrap().as_arr() {
        let bound = m.get("bound").and_then(Json::as_f64).unwrap();
        assert!(bound > 0.0 && bound <= 0.25, "{m:?}");
    }
    let paths = doc.get("paths").unwrap().as_arr();
    assert_eq!(paths, [Json::Str("up2p_bench".to_string())]);
}

#[test]
fn every_workload_emits_every_metric_and_counts_repeat() {
    let doc = benchmark_json();
    let e2e_names: Vec<String> = names(doc.get("end_to_end").unwrap())
        .into_iter()
        .map(|n| n.0)
        .collect();
    let layer_names: Vec<String> = names(doc.get("per_layer").unwrap())
        .into_iter()
        .map(|n| n.0)
        .collect();
    for workload in WORKLOADS {
        let out = scratch(&format!("{workload}.json"));
        let run = |trace: &str| {
            bench(&[
                "--workload",
                workload,
                "--scale",
                "0.01",
                "--seed",
                "7",
                "--trace",
                trace,
                "--out",
                out.to_str().unwrap(),
            ])
        };
        // end-to-end: all eight, and the counts identical on a re-run
        let (a, b) = (last_line_metrics(&run("0")), last_line_metrics(&run("0")));
        assert_eq!(a.keys().collect::<Vec<_>>(), {
            let mut sorted: Vec<&String> = e2e_names.iter().collect();
            sorted.sort();
            sorted
        });
        for exact in metrics::EXACT {
            assert_eq!(
                a[exact], b[exact],
                "{workload}: {exact} must repeat for a seed"
            );
        }
        assert!(
            a.values().all(|v| v.is_finite() && *v > 0.0),
            "{workload}: {a:?}"
        );

        // the result file is stamped
        let file = Json::parse(&std::fs::read_to_string(&out).unwrap()).unwrap();
        let stamp = file.get("stamp").unwrap();
        assert_eq!(stamp.get("seed").and_then(Json::as_f64), Some(7.0));
        assert_eq!(stamp.get("scale").and_then(Json::as_f64), Some(0.01));
        assert!(stamp.get("nproc").and_then(Json::as_f64).unwrap() >= 1.0);
        assert!(stamp.get("git_revision").and_then(Json::as_str).is_some());

        // per-layer: every named metric, and every call count identical
        let (ta, tb) = (last_line_metrics(&run("1")), last_line_metrics(&run("1")));
        assert_eq!(ta.len(), layer_names.len());
        for name in &layer_names {
            assert!(ta.contains_key(name), "{workload} lacks {name}");
            if name.ends_with("_calls")
                || name.starts_with("net.msgs.")
                || name.starts_with("oracle.")
            {
                assert_eq!(
                    ta[name], tb[name],
                    "{workload}: {name} must repeat for a seed"
                );
            }
        }
        let msgs: f64 = ta
            .iter()
            .filter(|(n, _)| n.starts_with("net.msgs."))
            .map(|(_, v)| v)
            .sum();
        let traced_file = Json::parse(&std::fs::read_to_string(&out).unwrap()).unwrap();
        let msgs_per_op = traced_file.get("runs").unwrap().as_arr()[0]
            .get("end_to_end")
            .and_then(|e| e.get("msgs_per_op"))
            .and_then(|m| m.get("value"))
            .and_then(Json::as_f64)
            .unwrap();
        assert!(
            (msgs - msgs_per_op).abs() < 1e-9,
            "{workload}: net.msgs.* sum to msgs_per_op"
        );
        if matches!(workload, "author_publish" | "community_ui") {
            let coverage = ta["trace.coverage_ratio"];
            assert!(
                (0.9..=1.05).contains(&coverage),
                "{workload}: coverage {coverage}"
            );
        }
    }
}

#[test]
fn layers_separate_the_workloads() {
    let ui = last_line_metrics(&bench(&[
        "--workload",
        "community_ui",
        "--scale",
        "0.05",
        "--trace",
    ]));
    assert!(ui["trace.share.xml_schema_xslt_core"] >= 0.6, "{ui:?}");
    assert_eq!(ui["net.gnutella.search_calls"], 0.0);
    let flood = last_line_metrics(&bench(&[
        "--workload",
        "search_flood",
        "--scale",
        "0.05",
        "--trace",
    ]));
    assert!(flood["trace.share.xml_schema_xslt_core"] <= 0.05);
    assert_eq!(flood["xslt.apply_calls"], 0.0);
}

#[test]
fn unknown_flags_exit_with_two() {
    for args in [&["--frobnicate"][..], &["--workload", "nope"], &["--seed"]] {
        assert_eq!(bench(args).status.code(), Some(2), "{args:?}");
    }
}

/// A result file holding `runs` untraced runs of one workload.
fn result_file(name: &str, seed: u64, runs: &[(f64, f64)]) -> PathBuf {
    let runs = runs.iter().map(|&(ops_per_s, msgs_per_op)| {
        let metric = |v: f64| Json::obj([("value", Json::Num(v)), ("unit", Json::Str("x".into()))]);
        let e2e = END_TO_END.iter().map(|m| {
            let value = match m.name {
                "ops_per_s" => ops_per_s,
                "msgs_per_op" => msgs_per_op,
                _ => 1.0,
            };
            (m.name, metric(value))
        });
        Json::obj([
            ("workload", Json::Str("search_flood".into())),
            ("trace", Json::Bool(false)),
            ("attempted", Json::Num(100.0)),
            ("end_to_end", Json::obj(e2e)),
        ])
    });
    let doc = Json::obj([
        ("stamp", Json::obj([("seed", Json::Num(seed as f64))])),
        ("runs", Json::Arr(runs.collect())),
    ]);
    let path = scratch(name);
    std::fs::write(&path, doc.render()).unwrap();
    path
}

#[test]
fn compare_applies_bounds_and_exact_counts() {
    let steady = [
        (1000.0, 5.0),
        (1004.0, 5.0),
        (998.0, 5.0),
        (1001.0, 5.0),
        (1002.0, 5.0),
    ];
    let base = result_file("base.json", 1, &steady);
    let compare = |other: &Path| {
        let out = bench(&["--compare", base.to_str().unwrap(), other.to_str().unwrap()]);
        (
            out.status.code(),
            String::from_utf8_lossy(&out.stdout).into_owned(),
        )
    };
    let (code, text) = compare(&result_file("same.json", 1, &steady));
    assert_eq!(code, Some(0), "{text}");
    assert!(text.contains("same") && !text.contains("REGRESSED"));

    let slower: Vec<(f64, f64)> = steady.iter().map(|&(o, m)| (o * 0.5, m)).collect();
    let (code, text) = compare(&result_file("slower.json", 1, &slower));
    assert_eq!(code, Some(1), "{text}");
    assert!(text
        .lines()
        .any(|l| l.contains("ops_per_s") && l.contains("REGRESSED")));

    // a count that moved at the same seed is a regression however small
    let chattier: Vec<(f64, f64)> = steady.iter().map(|&(o, m)| (o, m + 0.001)).collect();
    let (code, text) = compare(&result_file("chattier.json", 1, &chattier));
    assert_eq!(code, Some(1), "{text}");
    assert!(text
        .lines()
        .any(|l| l.contains("msgs_per_op") && l.contains("REGRESSED")));

    // sets too noisy for the bound are unresolved, not regressed
    let noisy = [
        (1000.0, 5.0),
        (400.0, 5.0),
        (1600.0, 5.0),
        (700.0, 5.0),
        (1300.0, 5.0),
    ];
    let (code, text) = compare(&result_file("noisy.json", 1, &noisy));
    assert_eq!(code, Some(0), "{text}");
    assert!(text
        .lines()
        .any(|l| l.contains("ops_per_s") && l.contains("unresolved")));
}
