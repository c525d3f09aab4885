//! E4 integration assertions: schema-driven metadata search must beat
//! filename matching on complex objects, with the gap shrinking when
//! filenames are descriptive (the §II argument, quantified).

use up2p::sim::{e4_metadata, e7_indexing};

fn cell(t: &up2p::sim::Table, row_pred: impl Fn(&[String]) -> bool, col: usize) -> f64 {
    t.rows
        .iter()
        .find(|r| row_pred(r))
        .unwrap_or_else(|| panic!("row not found in {}", t.title))[col]
        .parse()
        .unwrap()
}

#[test]
fn metadata_search_dominates_on_complex_objects() {
    let t = e4_metadata();
    let meta_f1 = cell(&t, |r| r[0] == "patterns" && r[1].starts_with("metadata"), 5);
    let file_f1 = cell(&t, |r| r[0] == "patterns" && r[1].starts_with("filename"), 5);
    assert!(meta_f1 >= 0.9, "metadata F1 should be near-perfect, got {meta_f1}");
    assert!(file_f1 <= 0.4, "filename F1 should be poor on patterns, got {file_f1}");
}

#[test]
fn filename_recall_is_the_bottleneck() {
    let t = e4_metadata();
    let file_precision = cell(&t, |r| r[0] == "patterns" && r[1].starts_with("filename"), 3);
    let file_recall = cell(&t, |r| r[0] == "patterns" && r[1].starts_with("filename"), 4);
    // filenames only contain the pattern name: what they find is right,
    // they just cannot find purpose/keyword matches
    assert!(
        file_precision > file_recall,
        "precision {file_precision} should exceed recall {file_recall}"
    );
}

#[test]
fn descriptive_filenames_narrow_the_gap() {
    let t = e4_metadata();
    let gap = |corpus: &str| {
        cell(&t, |r| r[0] == corpus && r[1].starts_with("metadata"), 5)
            - cell(&t, |r| r[0] == corpus && r[1].starts_with("filename"), 5)
    };
    let pattern_gap = gap("patterns");
    let mp3_gap = gap("mp3");
    assert!(
        pattern_gap > mp3_gap,
        "complex objects should show the larger gap: patterns {pattern_gap} vs mp3 {mp3_gap}"
    );
}

#[test]
fn index_filtering_trades_size_for_recall_monotonically() {
    let t = e7_indexing();
    let postings: Vec<f64> = t.rows.iter().map(|r| r[2].parse().unwrap()).collect();
    let recalls: Vec<f64> = t.rows.iter().map(|r| r[4].parse().unwrap()).collect();
    for w in postings.windows(2) {
        assert!(w[1] <= w[0], "smaller profile, smaller index: {postings:?}");
    }
    for w in recalls.windows(2) {
        assert!(w[1] <= w[0] + 1e-9, "smaller profile, no recall gain: {recalls:?}");
    }
    assert_eq!(recalls[0], 1.0);
}
