//! **Lock discipline.** Statically approximates guard lifetimes to catch
//! the two deadlock-and-contention shapes that bite threaded serving
//! planes:
//!
//! * **Order cycles** — every nested acquisition (`b.lock()` while a
//!   guard from `a.lock()` is live) contributes an `a → b` edge to a
//!   cross-file lock-order graph; any cycle in that graph is a finding
//!   (two functions taking the same pair of locks in opposite order is
//!   the classic ABBA deadlock). Nested acquisition of the *same* class
//!   is flagged immediately — there is no intra-class order.
//! * **Guard held across a send** — a `.send(…)`-shaped call while any
//!   guard is live serializes network traffic behind the lock (and, with
//!   bounded channels, can deadlock outright).
//!
//! The approximation is lexical, not type-checked: an acquisition is a
//! `.lock()` / `.read()` / `.write()` call with empty parentheses; its
//! class is the last identifier of the receiver chain (`p.shared.lock()`
//! → `shared`); a `let`-bound guard lives to the end of its block
//! (`drop(g)` ends it early), a temporary to the end of its statement.
//! The instrumented `parking_lot` shim checks the same discipline
//! dynamically in debug builds, so what the lexical pass under-reports
//! the runtime checker still catches.

use crate::config::LocksConfig;
use crate::lexer::{Token, TokenKind};
use crate::{collect_src_files, load_source, Finding};
use std::collections::BTreeMap;
use std::path::Path;

const RULE: &str = "lock-discipline";

/// Methods whose empty-parens call acquires a guard.
const ACQUIRE_METHODS: [&str; 3] = ["lock", "read", "write"];

#[derive(Debug)]
struct Guard {
    class: String,
    binding: Option<String>,
    line: u32,
    /// Brace depth the guard was created at.
    depth: u32,
    /// `true` for `let`-bound guards (live to end of block), `false` for
    /// temporaries (live to end of statement).
    let_bound: bool,
}

/// One observed `from → to` nested-acquisition edge.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct Edge {
    /// Class whose guard was held.
    pub from: String,
    /// Class acquired while `from` was held.
    pub to: String,
    /// Where the nested acquisition happened.
    pub file: String,
    /// 1-based line of the nested acquisition.
    pub line: u32,
}

/// Scans one function body (tokens strictly inside its braces), pushing
/// findings and observed edges.
fn scan_body(
    file: &str,
    body: &[Token],
    send_methods: &[String],
    edges: &mut Vec<Edge>,
    findings: &mut Vec<Finding>,
) {
    let mut brace_depth: u32 = 1;
    let mut paren_depth: i32 = 0;
    let mut held: Vec<Guard> = Vec::new();
    let mut j = 0usize;
    while j < body.len() {
        let t = &body[j];
        if t.is_punct('{') {
            brace_depth += 1;
        } else if t.is_punct('}') {
            held.retain(|g| g.depth < brace_depth);
            brace_depth = brace_depth.saturating_sub(1);
        } else if t.is_punct('(') {
            paren_depth += 1;
        } else if t.is_punct(')') {
            paren_depth -= 1;
        } else if t.is_punct(';') && paren_depth == 0 {
            held.retain(|g| g.let_bound || g.depth < brace_depth);
        } else if t.is_ident("drop")
            && body.get(j + 1).map(|n| n.is_punct('(')).unwrap_or(false)
            && body.get(j + 2).map(|n| n.kind == TokenKind::Ident).unwrap_or(false)
            && body.get(j + 3).map(|n| n.is_punct(')')).unwrap_or(false)
        {
            let name = body[j + 2].text.as_str();
            if let Some(pos) = held.iter().rposition(|g| g.binding.as_deref() == Some(name)) {
                held.remove(pos);
            }
        } else if t.is_punct('.') {
            let Some(m) = body.get(j + 1) else {
                j += 1;
                continue;
            };
            let empty_call = body.get(j + 2).map(|n| n.is_punct('(')).unwrap_or(false)
                && body.get(j + 3).map(|n| n.is_punct(')')).unwrap_or(false);
            let open_call = body.get(j + 2).map(|n| n.is_punct('(')).unwrap_or(false);
            if ACQUIRE_METHODS.contains(&m.text.as_str()) && empty_call {
                let class = match j.checked_sub(1).and_then(|k| body.get(k)) {
                    Some(prev) if prev.kind == TokenKind::Ident => prev.text.clone(),
                    _ => "<expr>".to_string(),
                };
                let (let_bound, binding) = statement_binding(body, j);
                for g in &held {
                    if g.class == class {
                        findings.push(Finding {
                            rule: RULE,
                            file: file.to_string(),
                            line: m.line,
                            message: format!(
                                "nested acquisition of lock class `{class}` (outer guard \
                                 taken at line {}): no intra-class order exists",
                                g.line
                            ),
                        });
                    } else {
                        edges.push(Edge {
                            from: g.class.clone(),
                            to: class.clone(),
                            file: file.to_string(),
                            line: m.line,
                        });
                    }
                }
                held.push(Guard { class, binding, line: m.line, depth: brace_depth, let_bound });
                j += 4; // past `.name()`
                continue;
            }
            if open_call
                && m.kind == TokenKind::Ident
                && send_methods.iter().any(|s| s == &m.text)
            {
                if let Some(g) = held.last() {
                    findings.push(Finding {
                        rule: RULE,
                        file: file.to_string(),
                        line: m.line,
                        message: format!(
                            "guard on `{}` (taken at line {}) held across `.{}(…)` — \
                             release the lock before sending",
                            g.class, g.line, m.text
                        ),
                    });
                }
            }
        }
        j += 1;
    }
}

/// Determines whether the acquisition at `dot` starts a `let`-bound
/// statement and, if so, the bound name (first identifier of the
/// pattern, `mut` skipped — good enough for `drop(g)` matching).
fn statement_binding(body: &[Token], dot: usize) -> (bool, Option<String>) {
    let mut k = dot;
    while k > 0 {
        let t = &body[k - 1];
        if t.is_punct(';') || t.is_punct('{') || t.is_punct('}') {
            break;
        }
        k -= 1;
    }
    if !body.get(k).map(|t| t.is_ident("let")).unwrap_or(false) {
        return (false, None);
    }
    let mut p = k + 1;
    if body.get(p).map(|t| t.is_ident("mut")).unwrap_or(false) {
        p += 1;
    }
    let name = body.get(p).and_then(|t| {
        if t.kind == TokenKind::Ident {
            Some(t.text.clone())
        } else {
            None
        }
    });
    (true, name)
}

/// Detects cycles in the observed lock-order graph and reports each once.
fn report_cycles(edges: &[Edge], findings: &mut Vec<Finding>) {
    // adjacency with one example site per directed pair
    let mut adj: BTreeMap<&str, BTreeMap<&str, &Edge>> = BTreeMap::new();
    for e in edges {
        adj.entry(e.from.as_str()).or_default().entry(e.to.as_str()).or_insert(e);
    }
    let nodes: Vec<&str> = adj
        .iter()
        .flat_map(|(from, tos)| std::iter::once(*from).chain(tos.keys().copied()))
        .collect();
    let mut reported: Vec<Vec<&str>> = Vec::new();
    for &start in &nodes {
        // DFS from each node; a path returning to `start` is a cycle
        let mut stack: Vec<(&str, Vec<&str>)> = vec![(start, vec![start])];
        while let Some((node, path)) = stack.pop() {
            let Some(tos) = adj.get(node) else { continue };
            for (&to, _) in tos.iter() {
                if to == start {
                    // canonical form: rotate so the smallest node leads
                    let mut cycle = path.clone();
                    let Some(min_pos) = cycle
                        .iter()
                        .enumerate()
                        .min_by_key(|(_, n)| **n)
                        .map(|(i, _)| i)
                    else {
                        continue;
                    };
                    cycle.rotate_left(min_pos);
                    if reported.contains(&cycle) {
                        continue;
                    }
                    reported.push(cycle.clone());
                    let mut parts = Vec::new();
                    for w in 0..cycle.len() {
                        let from = cycle[w];
                        let to = cycle[(w + 1) % cycle.len()];
                        if let Some(e) = adj.get(from).and_then(|t| t.get(to)) {
                            parts.push(format!("`{from}` → `{to}` at {}:{}", e.file, e.line));
                        }
                    }
                    let site = adj
                        .get(cycle[0])
                        .and_then(|t| t.get(cycle.get(1).copied().unwrap_or(cycle[0])));
                    findings.push(Finding {
                        rule: RULE,
                        file: site.map(|e| e.file.clone()).unwrap_or_default(),
                        line: site.map(|e| e.line).unwrap_or(0),
                        message: format!("lock-order cycle: {}", parts.join(", ")),
                    });
                } else if !path.contains(&to) {
                    let mut next = path.clone();
                    next.push(to);
                    stack.push((to, next));
                }
            }
        }
    }
}

/// Extracts every function body in a token stream and scans it.
fn scan_file(
    file: &str,
    code: &[Token],
    send_methods: &[String],
    edges: &mut Vec<Edge>,
    findings: &mut Vec<Finding>,
) {
    let mut i = 0usize;
    while i < code.len() {
        if code[i].is_ident("fn") && code.get(i + 1).map(|t| t.kind == TokenKind::Ident).unwrap_or(false)
        {
            // find the body's `{`, skipping the parameter list; a `;`
            // first means a bodyless declaration (trait method, extern)
            let mut j = i + 2;
            let mut body_open = None;
            while j < code.len() {
                if code[j].is_punct('(') {
                    let mut d = 0usize;
                    while j < code.len() {
                        if code[j].is_punct('(') {
                            d += 1;
                        } else if code[j].is_punct(')') {
                            d -= 1;
                            if d == 0 {
                                break;
                            }
                        }
                        j += 1;
                    }
                } else if code[j].is_punct('{') {
                    body_open = Some(j);
                    break;
                } else if code[j].is_punct(';') {
                    break;
                }
                j += 1;
            }
            if let Some(open) = body_open {
                let mut d = 0usize;
                let mut end = open;
                while end < code.len() {
                    if code[end].is_punct('{') {
                        d += 1;
                    } else if code[end].is_punct('}') {
                        d -= 1;
                        if d == 0 {
                            break;
                        }
                    }
                    end += 1;
                }
                scan_body(file, &code[open + 1..end.min(code.len())], send_methods, edges, findings);
                i = end + 1;
                continue;
            }
        }
        i += 1;
    }
}

/// Runs the rule, appending findings.
pub fn check(root: &Path, cfg: &LocksConfig, findings: &mut Vec<Finding>) {
    let mut edges: Vec<Edge> = Vec::new();
    for dir in &cfg.scan {
        for rel in collect_src_files(root, dir) {
            let Some(file) = load_source(root, &rel, findings) else { continue };
            scan_file(&rel, &file.code, &cfg.send_methods, &mut edges, findings);
        }
    }
    edges.sort();
    edges.dedup();
    report_cycles(&edges, findings);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    fn run(src: &str, sends: &[&str]) -> (Vec<Edge>, Vec<Finding>) {
        let code = lex(src).expect("lexes");
        let mut edges = Vec::new();
        let mut findings = Vec::new();
        let sends: Vec<String> = sends.iter().map(|s| s.to_string()).collect();
        scan_file("t.rs", &code, &sends, &mut edges, &mut findings);
        (edges, findings)
    }

    #[test]
    fn nested_let_guards_record_an_edge() {
        let (edges, findings) =
            run("fn f(&self) { let a = self.alpha.lock(); let b = self.beta.lock(); }", &[]);
        assert_eq!(findings.len(), 0);
        assert_eq!(edges.len(), 1);
        assert_eq!((edges[0].from.as_str(), edges[0].to.as_str()), ("alpha", "beta"));
    }

    #[test]
    fn guard_dies_with_its_block() {
        let (edges, _) =
            run("fn f(&self) { { let a = self.alpha.lock(); } let b = self.beta.lock(); }", &[]);
        assert!(edges.is_empty(), "alpha's guard ended before beta's acquisition: {edges:?}");
    }

    #[test]
    fn temporary_guard_dies_at_statement_end() {
        let (edges, _) = run(
            "fn f(&self) { self.alpha.lock().touch(); let b = self.beta.lock(); }",
            &[],
        );
        assert!(edges.is_empty(), "{edges:?}");
    }

    #[test]
    fn explicit_drop_ends_the_guard() {
        let (edges, _) = run(
            "fn f(&self) { let a = self.alpha.lock(); drop(a); let b = self.beta.lock(); }",
            &[],
        );
        assert!(edges.is_empty(), "{edges:?}");
    }

    #[test]
    fn same_class_nesting_is_flagged() {
        let (_, findings) =
            run("fn f(&self) { let a = self.table.lock(); let b = self.table.lock(); }", &[]);
        assert_eq!(findings.len(), 1);
        assert!(findings[0].message.contains("intra-class"));
    }

    #[test]
    fn send_under_guard_is_flagged() {
        let (_, findings) = run(
            "fn f(&self) { let g = self.node.lock(); self.tx.send(1); }",
            &["send"],
        );
        assert_eq!(findings.len(), 1, "{findings:?}");
        assert!(findings[0].message.contains("held across"));
    }

    #[test]
    fn send_after_block_is_clean() {
        let (_, findings) = run(
            "fn f(&self) { { let g = self.node.lock(); g.touch(); } self.tx.send(1); }",
            &["send"],
        );
        assert!(findings.is_empty(), "{findings:?}");
    }

    #[test]
    fn abba_cycle_is_reported() {
        let (edges, mut findings) = run(
            "fn f(&self) { let a = self.alpha.lock(); let b = self.beta.lock(); }\n\
             fn g(&self) { let b = self.beta.lock(); let a = self.alpha.lock(); }",
            &[],
        );
        report_cycles(&edges, &mut findings);
        assert_eq!(findings.len(), 1, "{findings:?}");
        assert!(findings[0].message.contains("lock-order cycle"));
    }

    #[test]
    fn consistent_order_has_no_cycle() {
        let (edges, mut findings) = run(
            "fn f(&self) { let a = self.alpha.lock(); let b = self.beta.lock(); }\n\
             fn g(&self) { let a = self.alpha.lock(); let b = self.beta.lock(); }",
            &[],
        );
        report_cycles(&edges, &mut findings);
        assert!(findings.is_empty(), "{findings:?}");
    }

    #[test]
    fn rwlock_read_write_count_as_acquisitions() {
        let (edges, _) = run(
            "fn f(&self) { let r = self.index.read(); let w = self.journal.write(); }",
            &[],
        );
        assert_eq!(edges.len(), 1);
        assert_eq!((edges[0].from.as_str(), edges[0].to.as_str()), ("index", "journal"));
    }

    #[test]
    fn closure_inside_guard_scope_still_counts() {
        // a search callback that sends while the node guard still lives
        let (_, findings) = run(
            "fn f(&self) { let node = shared.lock(); node.search(|k| { let _ = reply.send(k); }); }",
            &["send"],
        );
        assert_eq!(findings.len(), 1, "{findings:?}");
    }
}
