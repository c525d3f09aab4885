//! Schema round-trip over the committed benchmark artifacts: every
//! `BENCH_*.json` at the repo root — the E8/E9/E10/E11 files from
//! earlier PRs plus E12's durability report — must parse through
//! [`BenchReport::from_json`] and re-serialize byte-identically. This
//! pins the artifact schema: a writer change that CI's trajectory
//! tooling wouldn't understand fails here before it lands.

use up2p_sim::BenchReport;

const ARTIFACTS: &[(&str, &str, &[&str])] = &[
    (
        "BENCH_e8_index_scale.json",
        "e8_index_scale",
        &["objects", "insert_per_sec"],
    ),
    (
        "BENCH_e9_search_scale.json",
        "e9_search_scale",
        &["objects", "peers"],
    ),
    (
        "BENCH_e10_guided_search.json",
        "e10_guided_search",
        &["gnutella_guided_reduction", "fasttrack_guided_reduction"],
    ),
    (
        "BENCH_e11_des_scale.json",
        "e11_des_scale",
        &["peers_small", "peers_large"],
    ),
    (
        "BENCH_e12_durability.json",
        "e12_durability",
        &[
            "objects",
            "publish_durable_per_sec",
            "publish_fsync_each_per_sec",
            "compact_ms",
            "recovery_ms",
            "durable_bytes",
        ],
    ),
];

fn artifact_path(file: &str) -> std::path::PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../..").join(file)
}

#[test]
fn committed_bench_artifacts_round_trip() {
    for (file, name, required) in ARTIFACTS {
        let path = artifact_path(file);
        let text = std::fs::read_to_string(&path)
            .unwrap_or_else(|e| panic!("missing committed artifact {}: {e}", path.display()));
        let report = BenchReport::from_json(&text)
            .unwrap_or_else(|| panic!("{file}: committed JSON does not parse"));
        assert_eq!(report.name(), *name, "{file}: report name drifted");
        assert!(
            report.metrics().count() >= required.len(),
            "{file}: expected at least {} metrics",
            required.len()
        );
        for key in *required {
            assert!(
                report.get(key).is_some(),
                "{file}: required metric '{key}' missing — scenario key schema drifted"
            );
        }
        assert_eq!(report.to_json(), text, "{file}: to_json(from_json(x)) != x");
    }
}

#[test]
fn e12_artifact_shows_full_scale_recovery_win() {
    let text = std::fs::read_to_string(artifact_path("BENCH_e12_durability.json"))
        .expect("BENCH_e12_durability.json is committed at the repo root");
    let report = BenchReport::from_json(&text).expect("parses");
    assert_eq!(report.get("objects").unwrap() as usize, 100_000, "full-scale run recorded");
    for key in ["recovery_ms", "compact_ms"] {
        let ms = report.get(key).unwrap();
        assert!(ms > 0.0 && ms.is_finite(), "{key} = {ms}");
    }
}

#[test]
fn e9_artifact_is_a_full_scale_run_on_a_multi_core_host() {
    let text = std::fs::read_to_string(artifact_path("BENCH_e9_search_scale.json"))
        .expect("BENCH_e9_search_scale.json is committed at the repo root");
    let report = BenchReport::from_json(&text).expect("parses");
    assert_eq!(report.get("objects").unwrap() as usize, 100_000, "full-scale run recorded");
    // the worker grid and the batch row time-slice one core when there is
    // only one: a single-thread run once recorded batched Napster at half
    // the sequential rate, which was the host and not the code
    let threads = report.get("hardware_threads").unwrap() as usize;
    assert!(threads >= 2, "E9 taken on {threads} hardware thread(s); re-take it on two or more");
}

#[test]
fn e11_artifact_reports_scale_grid() {
    let text = std::fs::read_to_string(artifact_path("BENCH_e11_des_scale.json"))
        .expect("BENCH_e11_des_scale.json is committed at the repo root");
    let report = BenchReport::from_json(&text).expect("parses");
    let small = report.get("peers_small").unwrap() as usize;
    let large = report.get("peers_large").unwrap() as usize;
    assert_eq!((small, large), (10_000, 100_000), "full-scale grid recorded");
    // every protocol has throughput + cost + success + footprint at both sizes
    for peers in [small, large] {
        for proto in ["napster", "gnutella", "fasttrack"] {
            for metric in ["events_per_sec", "msgs_per_query", "success_rate", "bytes_per_peer"] {
                let key = format!("{proto}_{peers}_{metric}");
                let v = report.get(&key).unwrap_or_else(|| panic!("missing {key}"));
                assert!(v.is_finite() && v >= 0.0, "{key} = {v}");
            }
        }
    }
}
