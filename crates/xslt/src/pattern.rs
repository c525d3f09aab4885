//! XSLT match patterns.
//!
//! A pattern is a restricted XPath (`a/b`, `//c`, `*`, `text()`, `@x`,
//! alternatives with `|`). A node matches when the last step matches the
//! node itself and the preceding steps match its ancestors with the
//! required relationship (`/` = parent, `//` = any ancestor distance).

use crate::error::XsltError;
use up2p_xml::xpath::{eval_step, node_test_matches, Axis, Expr, NodeTest, Path, Step};
use up2p_xml::{Context, Document, XNode, XPath};

/// A compiled match pattern: one or more alternative paths.
#[derive(Debug, Clone, PartialEq)]
pub struct Pattern {
    alternatives: Vec<PatternPath>,
    source: String,
}

#[derive(Debug, Clone, PartialEq)]
struct PatternPath {
    absolute: bool,
    steps: Vec<Step>,
}

impl Pattern {
    /// Compiles a pattern from its textual form.
    ///
    /// # Errors
    ///
    /// Returns [`XsltError`] when the text is not a valid pattern (e.g.
    /// uses functions or arithmetic at the top level).
    pub fn parse(source: &str) -> Result<Pattern, XsltError> {
        let xp = XPath::parse(source)
            .map_err(|e| XsltError::new(format!("invalid pattern {source:?}: {e}")))?;
        let mut alternatives = Vec::new();
        collect_alternatives(xp.expr(), &mut alternatives, source)?;
        Ok(Pattern { alternatives, source: source.to_string() })
    }

    /// The pattern's textual form.
    pub fn source(&self) -> &str {
        &self.source
    }

    /// Does `node` match this pattern?
    pub fn matches(&self, doc: &Document, node: XNode) -> bool {
        self.alternatives.iter().any(|p| path_matches(p, doc, node))
    }

    /// XSLT 1.0 default priority of the most specific alternative, used
    /// for conflict resolution between templates.
    pub fn default_priority(&self) -> f64 {
        self.alternatives
            .iter()
            .map(path_priority)
            .fold(f64::NEG_INFINITY, f64::max)
    }
}

fn collect_alternatives(
    expr: &Expr,
    out: &mut Vec<PatternPath>,
    source: &str,
) -> Result<(), XsltError> {
    match expr {
        Expr::Union(a, b) => {
            collect_alternatives(a, out, source)?;
            collect_alternatives(b, out, source)?;
        }
        Expr::Path(Path { absolute, steps }) => {
            out.push(PatternPath { absolute: *absolute, steps: steps.clone() });
        }
        _ => {
            return Err(XsltError::new(format!(
                "pattern {source:?} must be a location path"
            )))
        }
    }
    Ok(())
}

fn path_priority(p: &PatternPath) -> f64 {
    if p.steps.len() != 1 || p.absolute {
        return 0.5;
    }
    match &p.steps[0] {
        Step { test: NodeTest::Name { prefix: None, local }, predicates, .. }
            if predicates.is_empty() && local != "*" =>
        {
            0.0
        }
        Step { test: NodeTest::Wildcard, predicates, .. } if predicates.is_empty() => -0.5,
        Step { test: NodeTest::Text | NodeTest::AnyNode | NodeTest::Comment, predicates, .. }
            if predicates.is_empty() =>
        {
            -0.5
        }
        _ => 0.5,
    }
}

fn path_matches(p: &PatternPath, doc: &Document, node: XNode) -> bool {
    // bare "/" matches the root node
    if p.steps.is_empty() {
        return p.absolute && node == XNode::Node(doc.root());
    }
    match_from(p, p.steps.len() - 1, doc, node)
}

/// Matches steps right-to-left walking ancestors.
fn match_from(p: &PatternPath, idx: usize, doc: &Document, node: XNode) -> bool {
    let step = &p.steps[idx];
    // `//` appears as a DescendantOrSelf+AnyNode step: it matches any
    // ancestor chain, so try the remaining prefix at every ancestor.
    if step.axis == Axis::DescendantOrSelf && step.test == NodeTest::AnyNode {
        if idx == 0 {
            return true; // pattern began with `//`
        }
        let mut cur = Some(node);
        while let Some(n) = cur {
            if match_from(p, idx - 1, doc, n) {
                return true;
            }
            cur = parent_of(doc, n);
        }
        return false;
    }
    if !step_matches_node(doc, node, step) {
        return false;
    }
    if idx == 0 {
        if p.absolute {
            // the first step's parent must be the document root
            return parent_of(doc, node) == Some(XNode::Node(doc.root()));
        }
        return true;
    }
    match parent_of(doc, node) {
        Some(parent) => match_from(p, idx - 1, doc, parent),
        None => false,
    }
}

fn parent_of(doc: &Document, node: XNode) -> Option<XNode> {
    match node {
        XNode::Node(n) => doc.parent(n).map(XNode::Node),
        XNode::Attr(owner, _) => Some(XNode::Node(owner)),
    }
}

/// Would `step`, taken from `node`'s parent, select `node`? XPath's own
/// node test and predicate rules decide, once the axis has fixed the
/// kind of node a pattern step can denote: a child or an attribute of
/// some parent (no other axis is valid in a pattern).
fn step_matches_node(doc: &Document, node: XNode, step: &Step) -> bool {
    let parent = match (step.axis, node) {
        (Axis::Child, XNode::Node(n)) => doc.parent(n),
        (Axis::Attribute, XNode::Attr(owner, _)) => Some(owner),
        _ => None,
    };
    let Some(parent) = parent else { return false };
    if !node_test_matches(doc, node, step.axis, &step.test) {
        return false;
    }
    if step.predicates.is_empty() {
        return true;
    }
    // predicates count positions among the parent's children (or
    // attributes) that pass the node test: ask XPath what the step
    // selects from the parent
    let vars = std::collections::HashMap::new();
    let from = Context::new(doc, XNode::Node(parent), &vars);
    eval_step(step, &from).is_ok_and(|selected| selected.contains(&node))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn doc() -> Document {
        Document::parse(
            "<a xmlns:p='urn:p' xmlns:q='urn:q'><b id='1'><c>x</c></b><b id='2'><d>y</d></b>\
             <e><c>z</c><id>7</id></e><p:item/><q:item/></a>",
        )
        .unwrap()
    }

    fn select(doc: &Document, path: &str) -> Vec<XNode> {
        XPath::parse(path).unwrap().eval_root(doc).unwrap().into_nodes().unwrap()
    }

    fn node(doc: &Document, path: &str) -> XNode {
        let xp = XPath::parse(path).unwrap();
        let nodes = xp.eval_root(doc).unwrap().into_nodes().unwrap();
        nodes[0]
    }

    #[test]
    fn name_pattern_matches_by_name() {
        let d = doc();
        let p = Pattern::parse("b").unwrap();
        assert!(p.matches(&d, node(&d, "//b[1]")));
        assert!(!p.matches(&d, node(&d, "//e")));
    }

    #[test]
    fn path_pattern_requires_parent_chain() {
        let d = doc();
        let p = Pattern::parse("b/c").unwrap();
        assert!(p.matches(&d, node(&d, "/a/b[1]/c")));
        assert!(!p.matches(&d, node(&d, "/a/e/c")));
    }

    #[test]
    fn absolute_pattern_anchors_to_root() {
        let d = doc();
        let p = Pattern::parse("/a/b").unwrap();
        assert!(p.matches(&d, node(&d, "/a/b[1]")));
        let p2 = Pattern::parse("/b").unwrap();
        assert!(!p2.matches(&d, node(&d, "/a/b[1]")));
    }

    #[test]
    fn double_slash_matches_any_depth() {
        let d = doc();
        let p = Pattern::parse("a//c").unwrap();
        assert!(p.matches(&d, node(&d, "/a/b[1]/c")));
        assert!(p.matches(&d, node(&d, "/a/e/c")));
        let p2 = Pattern::parse("//c").unwrap();
        assert!(p2.matches(&d, node(&d, "/a/e/c")));
    }

    #[test]
    fn wildcard_and_text_patterns() {
        let d = doc();
        assert!(Pattern::parse("*").unwrap().matches(&d, node(&d, "//e")));
        assert!(Pattern::parse("text()").unwrap().matches(&d, node(&d, "//c/text()")));
        assert!(!Pattern::parse("text()").unwrap().matches(&d, node(&d, "//e")));
    }

    #[test]
    fn root_pattern() {
        let d = doc();
        let p = Pattern::parse("/").unwrap();
        assert!(p.matches(&d, XNode::Node(d.root())));
        assert!(!p.matches(&d, node(&d, "/a")));
    }

    #[test]
    fn attribute_pattern() {
        let d = doc();
        let p = Pattern::parse("@id").unwrap();
        assert!(p.matches(&d, node(&d, "//b[1]/@id")));
        assert!(!p.matches(&d, node(&d, "//b[1]")));
    }

    #[test]
    fn alternatives() {
        let d = doc();
        let p = Pattern::parse("c | d").unwrap();
        assert!(p.matches(&d, node(&d, "//d")));
        assert!(p.matches(&d, node(&d, "/a/b[1]/c")));
        assert!(!p.matches(&d, node(&d, "//e")));
    }

    #[test]
    fn predicate_on_pattern() {
        let d = doc();
        let p = Pattern::parse("b[@id='2']").unwrap();
        assert!(!p.matches(&d, node(&d, "//b[1]")));
        assert!(p.matches(&d, node(&d, "//b[2]")));
        let pos = Pattern::parse("b[2]").unwrap();
        assert!(pos.matches(&d, node(&d, "//b[2]")));
        assert!(!pos.matches(&d, node(&d, "//b[1]")));
    }

    /// XSLT 1.0 §5.2: a node matches a pattern when the pattern, read as
    /// an expression, selects it from some ancestor-or-self context — for
    /// a relative pattern `P` that is `//P`, for an absolute one `P`
    /// itself. Checked on every node and attribute of the fixture, so a
    /// private notion of "node test" in this module cannot come back:
    /// `id` must not match the `id` attributes, `p:item` must not match
    /// `<q:item>`, `node()` must match neither an attribute nor the root.
    #[test]
    fn a_pattern_matches_exactly_what_it_selects() {
        let d = doc();
        let mut everything = select(&d, "//node() | //@*");
        everything.push(XNode::Node(d.root()));
        assert_eq!(everything.len(), 19, "10 elements, 4 texts, 4 attributes, the root");
        for pattern in [
            "b", "c", "id", "item", "p:item", "q:item", "p:*", "*", "@id", "@*", "b/@id",
            "text()", "c/text()", "node()", "e/node()", "b[2]", "b[@id='2']", "b[@id][2]",
            "*[1]", "a//c", "b//c", "/a/b", "/b", "/a", "//c", "//@id", "/", "c | d", "/a/e | @id",
        ] {
            let as_path = pattern
                .split('|')
                .map(|alt| match alt.trim() {
                    absolute if absolute.starts_with('/') => absolute.to_string(),
                    relative => format!("//{relative}"),
                })
                .collect::<Vec<_>>()
                .join(" | ");
            let selected = select(&d, &as_path);
            let compiled = Pattern::parse(pattern).unwrap();
            for &n in &everything {
                assert_eq!(
                    compiled.matches(&d, n),
                    selected.contains(&n),
                    "match={pattern:?} against select={as_path:?} at {n:?}"
                );
            }
        }
    }

    #[test]
    fn priorities() {
        assert_eq!(Pattern::parse("b").unwrap().default_priority(), 0.0);
        assert_eq!(Pattern::parse("*").unwrap().default_priority(), -0.5);
        assert_eq!(Pattern::parse("text()").unwrap().default_priority(), -0.5);
        assert_eq!(Pattern::parse("a/b").unwrap().default_priority(), 0.5);
        assert_eq!(Pattern::parse("b[@id]").unwrap().default_priority(), 0.5);
    }

    #[test]
    fn non_path_pattern_rejected() {
        assert!(Pattern::parse("1 + 2").is_err());
        assert!(Pattern::parse("concat('a','b')").is_err());
    }
}
