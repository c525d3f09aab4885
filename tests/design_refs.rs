//! Every section reference into DESIGN.md names a section that exists,
//! and every item and test DESIGN.md names by code is defined.
//!
//! Code comments, the README, the ROADMAP, the verify skill and the CI
//! workflow cite DESIGN.md sections by number, and DESIGN.md cites its
//! own sections with a bare `§`. Cutting or renumbering a `## ` heading
//! must not leave one of those pointing at nothing. Likewise deleting or
//! renaming a method, variant or test must not leave DESIGN.md naming it.

use std::collections::{BTreeMap, BTreeSet};
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

/// Where the definitions DESIGN.md names are looked for: the workspace's
/// sources, relative to the repository root.
const DEFINITIONS: &[&str] = &["crates", "shims", "src", "tests", "examples"];

/// Types of the standard library DESIGN.md names an item of.
const STD_TYPES: &[&str] = &["Arc", "Box", "HashMap", "Mutex", "Option", "Rc", "Result", "Vec"];

fn is_ident(c: char) -> bool {
    c.is_ascii_alphanumeric() || c == '_'
}

/// The backticked code spans of `text`, with the line each is on; fenced
/// blocks' fence lines are skipped.
fn code_spans(text: &str) -> Vec<(usize, &str)> {
    let mut out = Vec::new();
    for (at, line) in text.lines().enumerate() {
        if line.trim_start().starts_with("```") {
            continue;
        }
        out.extend(line.split('`').skip(1).step_by(2).map(|span| (at + 1, span)));
    }
    out
}

/// The `Type::item` paths in a code span: an identifier that starts with
/// an uppercase letter, `::`, then an identifier.
fn type_items(span: &str) -> Vec<(&str, &str)> {
    let mut out = Vec::new();
    for (at, _) in span.match_indices("::") {
        let before = &span[..at];
        let start = before.rfind(|c: char| !is_ident(c)).map_or(0, |i| i + 1);
        let after = &span[at + 2..];
        let end = after.find(|c: char| !is_ident(c)).unwrap_or(after.len());
        let (ty, item) = (&before[start..], &after[..end]);
        if ty.starts_with(|c: char| c.is_ascii_uppercase()) && !item.is_empty() {
            out.push((ty, item));
        }
    }
    out
}

/// The tests DESIGN.md cites: in a `*Tests.*` paragraph (to the next
/// blank line), each code span that is a snake_case name of three words
/// or more, bare or as a path; anywhere, each `module::tests::name`.
fn cited_tests(design: &str) -> Vec<(usize, &str)> {
    let mut in_tests = false;
    let mut out = Vec::new();
    for (at, line) in design.lines().enumerate() {
        if line.starts_with("*Tests.*") {
            in_tests = true;
        } else if line.trim().is_empty() {
            in_tests = false;
        }
        for span in line.split('`').skip(1).step_by(2) {
            let snake = span.split("::").all(|s| !s.is_empty() && s.chars().all(is_ident))
                && !span.starts_with(|c: char| c.is_ascii_uppercase());
            let name = span.rsplit("::").next().unwrap_or(span);
            if snake && (span.contains("::tests::") || in_tests && name.matches('_').count() >= 2) {
                out.push((at + 1, span));
            }
        }
    }
    out
}

/// What one source file defines: the types it declares or implements,
/// and the names it declares items, variants or fields under. Read line
/// by line, generously: a name that merely looks defined passes.
#[derive(Default)]
struct Defines {
    types: BTreeSet<String>,
    items: BTreeSet<String>,
}

impl Defines {
    fn of(source: &str) -> Defines {
        let mut defines = Defines::default();
        for line in source.lines() {
            let line = line.trim_start();
            let words: Vec<&str> =
                line.split(|c: char| !is_ident(c)).filter(|w| !w.is_empty()).collect();
            for pair in words.windows(2) {
                match pair[0] {
                    "struct" | "enum" | "trait" | "type" | "union" => {
                        defines.types.insert(pair[1].to_string());
                    }
                    "fn" | "const" | "static" | "mod" => {
                        defines.items.insert(pair[1].to_string());
                    }
                    _ => {}
                }
            }
            if let Some(ty) = implemented_type(line) {
                defines.types.insert(ty.to_string());
            }
            // a variant (`Dead,`, `Corrupt(..)`) or a field (`seen: ..`)
            let field =
                line.strip_prefix("pub(crate) ").or(line.strip_prefix("pub ")).unwrap_or(line);
            let end = field.find(|c: char| !is_ident(c)).unwrap_or(field.len());
            let rest = field[end..].trim_start();
            let opens = if field.starts_with(|c: char| c.is_ascii_uppercase()) {
                rest.is_empty() || rest.starts_with([',', '(', '{', '='])
            } else {
                rest.starts_with(':') && !rest.starts_with("::")
            };
            if end > 0 && opens {
                defines.items.insert(field[..end].to_string());
            }
        }
        defines
    }
}

/// The type an `impl` line implements: `Type` of `impl<G> Type<G>` or of
/// `impl<G> Trait for Type<G>`.
fn implemented_type(line: &str) -> Option<&str> {
    let mut rest = line.strip_prefix("impl")?;
    if rest.starts_with('<') {
        let mut depth = 0;
        let close = rest.find(|c| {
            depth += match c {
                '<' => 1,
                '>' => -1,
                _ => 0,
            };
            depth == 0
        })?;
        rest = &rest[close + 1..];
    } else if !rest.starts_with(' ') {
        return None;
    }
    let header = rest.split(['{', ';']).next().unwrap_or(rest);
    let ty = header.rsplit(" for ").next().unwrap_or(header).trim_start();
    let path = &ty[..ty.find(|c: char| !is_ident(c) && c != ':').unwrap_or(ty.len())];
    path.rsplit("::").next().filter(|t| !t.is_empty())
}

#[test]
fn every_item_and_test_design_names_is_defined() {
    let root = PathBuf::from(env!("CARGO_MANIFEST_DIR"));
    let design = fs::read_to_string(root.join("DESIGN.md")).expect("DESIGN.md");
    let mut files = Vec::new();
    for source in DEFINITIONS {
        collect_files(&root.join(source), &mut files);
    }
    // file stem (or directory of a `mod.rs`) → what the file defines
    let mut defined: BTreeMap<String, Vec<Defines>> = BTreeMap::new();
    for file in files.iter().filter(|f| f.extension().is_some_and(|e| e == "rs")) {
        let Ok(text) = fs::read_to_string(file) else { continue };
        let stem = match file.file_stem().and_then(|s| s.to_str()) {
            Some("mod") => file.parent().and_then(Path::file_name).and_then(|s| s.to_str()),
            stem => stem,
        };
        defined.entry(stem.unwrap_or_default().to_string()).or_default().push(Defines::of(&text));
    }
    let all = || defined.values().flatten();

    let refs: Vec<(usize, &str, &str)> = code_spans(&design)
        .into_iter()
        .flat_map(|(line, span)| type_items(span).into_iter().map(move |(t, i)| (line, t, i)))
        .filter(|(_, ty, _)| !STD_TYPES.contains(ty))
        .collect();
    let tests = cited_tests(&design);
    // A collector that stopped matching would pass vacuously.
    assert!(refs.len() >= 40, "only {} `Type::item` references", refs.len());
    assert!(tests.len() >= 30, "only {} cited tests", tests.len());

    let mut missing: Vec<String> = refs
        .iter()
        .filter(|(_, ty, item)| !all().any(|d| d.types.contains(*ty) && d.items.contains(*item)))
        .map(|(line, ty, item)| format!("DESIGN.md:{line}: `{ty}::{item}`"))
        .collect();
    for (line, test) in &tests {
        let mut path = test.rsplit("::");
        let name = path.next().unwrap_or(test);
        let module = path.find(|&m| m != "tests");
        let found = match module {
            Some(m) => defined.get(m).into_iter().flatten().any(|d| d.items.contains(name)),
            None => all().any(|d| d.items.contains(name)),
        };
        if !found {
            missing.push(format!("DESIGN.md:{line}: test `{test}`"));
        }
    }
    assert!(missing.is_empty(), "named in DESIGN.md, defined nowhere:\n{}", missing.join("\n"));
}

#[test]
fn the_definition_reader_reads_every_form_in_use() {
    let source = "pub struct Table {\n    pub(crate) seen: Vec<u64>,\n}\n\
        pub enum Fate {\n    Dead,\n    Corrupt(String),\n}\n\
        impl<S, V: Clone> Entries<S, V> {\n    pub fn lookup(&self) {}\n}\n\
        impl<'a> Iterator for crate::walk::Walk<'a> {\n    const SERVER: u32 = 0;\n}\n\
        impl Probe {\n    fn new() {}\n}\nimplement(x);\n";
    let d = Defines::of(source);
    let types: Vec<&str> = d.types.iter().map(String::as_str).collect();
    assert_eq!(types, ["Entries", "Fate", "Probe", "Table", "Walk"]);
    for item in ["seen", "Dead", "Corrupt", "lookup", "SERVER", "new"] {
        assert!(d.items.contains(item), "{item} in {:?}", d.items);
    }
    assert!(!d.items.contains("implement"), "a call is no definition");

    let spans: Vec<&str> = code_spans("a `X::y` b `up2p_net::IndexNode::insert(..)`\n```sh\nz\n")
        .into_iter()
        .map(|(_, s)| s)
        .collect();
    assert_eq!(spans, ["X::y", "up2p_net::IndexNode::insert(..)"]);
    assert_eq!(type_items(spans[1]), [("IndexNode", "insert")]);
    assert!(type_items("digest::for_each_record_entry").is_empty());

    let cited =
        cited_tests("`a_b_c`\n*Tests.* `a_b_c`, `one_two`, `m::tests::x`, `Type::a_b`\n\n`z_y_x`");
    let names: Vec<&str> = cited.iter().map(|&(_, t)| t).collect();
    assert_eq!(names, ["a_b_c", "m::tests::x"]);
}
