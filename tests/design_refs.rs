//! Every section reference into DESIGN.md names a section that exists.
//!
//! Code comments, the README, the ROADMAP, the verify skill and the CI
//! workflow cite DESIGN.md sections by number, and DESIGN.md cites its
//! own sections with a bare `§`. Cutting or renumbering a `## ` heading
//! must not leave one of those pointing at nothing.

use std::collections::BTreeSet;
use std::fs;
use std::path::{Path, PathBuf};

/// Where references into DESIGN.md are looked for, relative to the
/// repository root; directories are walked recursively.
const SOURCES: &[&str] = &[
    "crates",
    "src",
    "tests",
    "README.md",
    "ROADMAP.md",
    ".claude/skills/verify/SKILL.md",
    ".github/workflows/ci.yml",
];

fn collect_files(path: &Path, out: &mut Vec<PathBuf>) {
    if path.is_dir() {
        let mut entries: Vec<PathBuf> = fs::read_dir(path)
            .unwrap_or_else(|e| panic!("{}: {e}", path.display()))
            .map(|e| e.expect("directory entry").path())
            .collect();
        entries.sort();
        for entry in entries {
            collect_files(&entry, out);
        }
    } else {
        out.push(path.to_path_buf());
    }
}

/// The section numbers of DESIGN.md's `## N.` / `## Nx.` headings.
fn headings(design: &str) -> BTreeSet<String> {
    design
        .lines()
        .filter_map(|line| line.strip_prefix("## "))
        .filter_map(|rest| rest.split_once(". ").map(|(number, _)| number))
        .filter(|number| section_len(number) == Some(number.len()))
        .map(str::to_string)
        .collect()
}

/// Length of the section number `N` or `Nx` at the start of `s` (digits,
/// then at most one lowercase letter that does not start a word), or
/// `None` when `s` does not start with one or continues as `N.M`, the
/// form of another document's section numbers.
fn section_len(s: &str) -> Option<usize> {
    let b = s.as_bytes();
    let digits = b.iter().take_while(|c| c.is_ascii_digit()).count();
    let dotted = b.get(digits) == Some(&b'.') && b.get(digits + 1).is_some_and(u8::is_ascii_digit);
    if digits == 0 || dotted {
        return None;
    }
    let letter = b.get(digits).is_some_and(u8::is_ascii_lowercase)
        && !b.get(digits + 1).is_some_and(u8::is_ascii_alphanumeric);
    Some(digits + usize::from(letter))
}

/// The sections `text` cites as `DESIGN.md §N[x]`, with the line each
/// citation starts on. The two parts may be split over a line break,
/// with a comment prefix (`//`, `///`, `//!`, `#`) before the second.
fn design_refs(text: &str) -> Vec<(usize, String)> {
    let mut out = Vec::new();
    for (at, _) in text.match_indices("DESIGN.md") {
        let after = &text[at + "DESIGN.md".len()..];
        let gap = after
            .find(|c: char| !(c.is_whitespace() || matches!(c, '/' | '!' | '#')))
            .unwrap_or(after.len());
        let (space, rest) = after.split_at(gap);
        if space.is_empty() || (!space.trim().is_empty() && !space.contains('\n')) {
            continue;
        }
        let Some(section) = rest.strip_prefix('§') else { continue };
        if let Some(len) = section_len(section) {
            let line = text[..at].matches('\n').count() + 1;
            out.push((line, section[..len].to_string()));
        }
    }
    out
}

/// The sections DESIGN.md cites of itself with a bare `§N[x]`.
fn self_refs(design: &str) -> Vec<(usize, String)> {
    let sign = '§'.len_utf8();
    let mut out = Vec::new();
    for (at, _) in design.match_indices('§') {
        if let Some(len) = section_len(&design[at + sign..]) {
            let line = design[..at].matches('\n').count() + 1;
            out.push((line, design[at + sign..at + sign + len].to_string()));
        }
    }
    out
}

#[test]
fn every_design_reference_names_a_heading() {
    let root = PathBuf::from(env!("CARGO_MANIFEST_DIR"));
    let design = fs::read_to_string(root.join("DESIGN.md")).expect("DESIGN.md");
    let sections = headings(&design);
    assert!(sections.contains("3a") && sections.contains("5"), "headings: {sections:?}");

    let mut files = Vec::new();
    for source in SOURCES {
        collect_files(&root.join(source), &mut files);
    }
    let mut refs = Vec::new();
    for file in &files {
        let Ok(text) = fs::read_to_string(file) else { continue };
        let name = file.strip_prefix(&root).unwrap_or(file).display().to_string();
        refs.extend(design_refs(&text).into_iter().map(|(line, s)| (name.clone(), line, s)));
    }
    // A collector that stopped matching would pass vacuously.
    assert!(refs.len() >= 10, "only {} references outside DESIGN.md", refs.len());
    refs.extend(self_refs(&design).into_iter().map(|(line, s)| ("DESIGN.md".into(), line, s)));

    let orphans: Vec<String> = refs
        .iter()
        .filter(|(_, _, s)| !sections.contains(s))
        .map(|(file, line, s)| format!("{file}:{line}: §{s}"))
        .collect();
    assert!(orphans.is_empty(), "references to no DESIGN.md heading:\n{}", orphans.join("\n"));
}

#[test]
fn the_collector_reads_every_spelling_in_use() {
    // Spelled through `d` so that the scan of this file does not read
    // the samples as citations.
    let d = "DESIGN.md";
    let text = format!(
        "a ({d} §3b) b\n/// see {d}\n/// §3e: c\n//! {d}\n//! §4 and\n\
         # {d} §3c, §3g\n{d}'s §9 {d} §7.3 {d} §3f grid"
    );
    let found = design_refs(&text);
    let sections: Vec<&str> = found.iter().map(|(_, s)| s.as_str()).collect();
    assert_eq!(sections, ["3b", "3e", "4", "3c", "3f"]);
    let lines: Vec<usize> = found.iter().map(|&(line, _)| line).collect();
    assert_eq!(lines, [1, 2, 4, 6, 7]);

    let own: Vec<String> =
        self_refs("(§3c, §IV-A) XSLT §7.3–7.4 §3e's §4 §2x2").into_iter().map(|(_, s)| s).collect();
    assert_eq!(own, ["3c", "3e", "4", "2"]);

    let heads = headings("# t\n## 1. Map\n## 3a. Store\n### 3z. Sub\n## Notes\n## 4. E\n");
    assert_eq!(heads.into_iter().collect::<Vec<_>>(), ["1", "3a", "4"]);
}
