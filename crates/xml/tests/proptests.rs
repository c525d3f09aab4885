//! Property-based tests for the XML substrate: serialization round-trips
//! and equivalence with the pre-change writer, escaping, XPath consistency
//! against naive reference traversals, and a seeded mutation fuzz of the
//! XPath grammar.

use proptest::prelude::*;
use std::collections::HashMap;
use std::fmt::Write as _;
use up2p_xml::{Context, Document, ElementBuilder, NodeId, NodeKind, Value, XNode, XPath};

/// Strategy for XML-safe text content (excludes control chars the parser
/// legitimately never sees from our writers).
fn text_strategy() -> impl Strategy<Value = String> {
    "[ -~]{0,40}".prop_map(|s| s)
}

fn name_strategy() -> impl Strategy<Value = String> {
    "[a-z][a-z0-9]{0,8}".prop_map(|s| s)
}

/// Any printable text: markup characters `& < > " '` and non-ASCII
/// included, weighted so that the markup characters turn up often.
fn any_text() -> impl Strategy<Value = String> {
    prop_oneof![3 => "\\PC{0,40}", 1 => "[&<>\"' a-zé✓]{0,12}"]
}

/// Up to three attributes. Names carry an `a` prefix so none is `xmlns`.
fn attrs_strategy() -> impl Strategy<Value = Vec<(String, String)>> {
    prop::collection::vec(("a[a-z0-9]{0,6}", any_text()), 0..3)
}

fn with_attrs(mut b: ElementBuilder, attrs: Vec<(String, String)>) -> ElementBuilder {
    for (name, value) in attrs {
        b = b.attr(name.as_str(), value);
    }
    b
}

/// A comment's or a PI's text: printable ASCII, or runs of `-`, `?` and
/// `>` — the `--`, `-->` and `?>` that would end one early unless the
/// writer breaks them up.
fn markup_text() -> impl Strategy<Value = String> {
    prop_oneof![text_strategy(), "[-?> a]{0,10}"]
}

/// A child of a non-leaf element.
enum Child {
    Element(ElementBuilder),
    Comment(String),
    Pi(String, String),
}

/// A small recursive tree strategy producing element builders: attributes
/// on every element, and mixed content — text before each child (an
/// element, a comment or a processing instruction) and after the last.
fn tree_strategy() -> impl Strategy<Value = ElementBuilder> {
    let leaf = (name_strategy(), attrs_strategy(), any_text())
        .prop_map(|(n, attrs, t)| with_attrs(ElementBuilder::new(n.as_str()), attrs).text(t));
    leaf.prop_recursive(3, 24, 4, |inner| {
        let child = prop_oneof![
            4 => inner.prop_map(Child::Element),
            1 => markup_text().prop_map(Child::Comment),
            // the parser skips the space after a PI's target, so data
            // cannot start with one and round-trip
            1 => (name_strategy(), markup_text())
                .prop_map(|(target, data)| Child::Pi(target, data.trim_start().to_string())),
        ];
        (
            name_strategy(),
            attrs_strategy(),
            prop::collection::vec((any_text(), child), 0..4),
            any_text(),
        )
            .prop_map(|(n, attrs, children, tail)| {
                let mut b = with_attrs(ElementBuilder::new(n.as_str()), attrs);
                for (text, child) in children {
                    if !text.is_empty() {
                        b = b.text(text);
                    }
                    b = match child {
                        Child::Element(e) => b.child(e),
                        Child::Comment(c) => b.comment(c),
                        Child::Pi(target, data) => b.pi(target, data),
                    };
                }
                if !tail.is_empty() {
                    b = b.text(tail);
                }
                b
            })
    })
}

/// The oracle: the serializer as it stood before it wrote in place — each
/// element's children collected into a `Vec`, tags formatted by `write!`,
/// a `String` per escaped value, one character at a time — plus the
/// comment and PI recovery of XSLT 1.0 §7.3–7.4, spelled out per
/// character. Every object key hashes the writer's bytes, so the one
/// writer must produce exactly these.
fn write_oracle(doc: &Document, id: NodeId, indent: Option<&str>, depth: usize, out: &mut String) {
    let pad = |out: &mut String, depth: usize| {
        for _ in 0..depth {
            out.push_str(indent.unwrap_or(""));
        }
    };
    match doc.kind(id) {
        NodeKind::Document => {
            for &c in doc.children(id) {
                write_oracle(doc, c, indent, depth, out);
            }
        }
        NodeKind::Element { name, attributes } => {
            pad(out, depth);
            let _ = write!(out, "<{name}");
            for a in attributes {
                let _ = write!(out, " {}=\"{}\"", a.name, escape_oracle(&a.value, true));
            }
            let children: Vec<NodeId> = doc
                .children(id)
                .iter()
                .copied()
                .filter(|&c| doc.text(c).is_none_or(|t| !t.is_empty()))
                .collect();
            if children.is_empty() {
                out.push_str("/>");
                return;
            }
            out.push('>');
            let text_only = children.iter().all(|&c| matches!(doc.kind(c), NodeKind::Text(_)));
            if indent.is_some() && !text_only {
                for &c in &children {
                    out.push('\n');
                    write_oracle(doc, c, indent, depth + 1, out);
                }
                out.push('\n');
                pad(out, depth);
            } else {
                for &c in &children {
                    write_oracle(doc, c, None, 0, out);
                }
            }
            let _ = write!(out, "</{name}>");
        }
        NodeKind::Text(t) => out.push_str(&escape_oracle(t, false)),
        NodeKind::Comment(c) => {
            pad(out, depth);
            let mut body = String::new();
            let mut chars = c.chars().peekable();
            while let Some(ch) = chars.next() {
                body.push(ch);
                if ch == '-' && matches!(chars.peek(), None | Some('-')) {
                    body.push(' ');
                }
            }
            let _ = write!(out, "<!--{body}-->");
        }
        NodeKind::ProcessingInstruction { target, data } => {
            pad(out, depth);
            if data.is_empty() {
                let _ = write!(out, "<?{target}?>");
            } else {
                let _ = write!(out, "<?{target} {}?>", data.replace("?>", "? >"));
            }
        }
    }
}

fn escape_oracle(s: &str, attr: bool) -> String {
    let mut out = String::new();
    for c in s.chars() {
        match c {
            '&' => out.push_str("&amp;"),
            '<' => out.push_str("&lt;"),
            '>' => out.push_str("&gt;"),
            '"' if attr => out.push_str("&quot;"),
            '\t' if attr => out.push_str("&#9;"),
            '\n' if attr => out.push_str("&#10;"),
            '\r' if attr => out.push_str("&#13;"),
            _ => out.push(c),
        }
    }
    out
}

/// [`write_oracle`] over a whole document: compact, or two-space pretty
/// with the declaration, as `to_xml_string` and `to_xml_pretty` write it.
fn to_xml_oracle(doc: &Document, pretty: bool) -> String {
    let indent = pretty.then_some("  ");
    let mut out = String::new();
    if pretty {
        out.push_str("<?xml version=\"1.0\" encoding=\"UTF-8\"?>\n");
    }
    for &child in doc.children(doc.root()) {
        write_oracle(doc, child, indent, 0, &mut out);
        if pretty {
            out.push('\n');
        }
    }
    if pretty && out.ends_with('\n') {
        out.pop();
    }
    out
}

proptest! {
    /// The one in-place writer against [`write_oracle`], byte for byte:
    /// compact, pretty, and a subtree.
    #[test]
    fn writer_matches_the_pre_change_writer(tree in tree_strategy(), note in markup_text()) {
        let mut doc = tree.build();
        let top = doc.create_comment(note);
        doc.append_child(doc.root(), top);
        prop_assert_eq!(doc.to_xml_string(), to_xml_oracle(&doc, false));
        prop_assert_eq!(doc.to_xml_pretty(), to_xml_oracle(&doc, true));
        let root = doc.document_element().unwrap();
        let mut subtree = String::new();
        write_oracle(&doc, root, None, 0, &mut subtree);
        prop_assert_eq!(doc.node_to_xml_string(root), subtree);
    }

    #[test]
    fn escape_unescape_round_trip(s in "\\PC{0,200}") {
        let escaped = up2p_xml::escape_text(&s);
        prop_assert_eq!(up2p_xml::unescape(&escaped).unwrap(), s);
    }

    #[test]
    fn attr_escape_round_trip(s in "\\PC{0,120}") {
        let escaped = up2p_xml::escape_attr(&s);
        prop_assert_eq!(up2p_xml::unescape(&escaped).unwrap(), s);
    }

    #[test]
    fn serialize_parse_round_trip(tree in tree_strategy()) {
        let doc = tree.build();
        let s1 = doc.to_xml_string();
        let doc2 = Document::parse(&s1).unwrap();
        let s2 = doc2.to_xml_string();
        prop_assert_eq!(s1, s2);
    }

    #[test]
    fn attribute_values_round_trip(v in "\\PC{0,80}") {
        let doc = ElementBuilder::new("e").attr("v", v.clone()).build();
        let parsed = Document::parse(&doc.to_xml_string()).unwrap();
        let el = parsed.document_element().unwrap();
        prop_assert_eq!(parsed.attr(el, "v"), Some(v.as_str()));
    }

    #[test]
    fn xpath_star_count_matches_manual_walk(tree in tree_strategy()) {
        let doc = tree.build();
        let all = doc.descendants(doc.root());
        let elements = all.iter().filter(|&&n| doc.is_element(n)).count();
        let counted = XPath::parse("count(//*)").unwrap()
            .eval_root(&doc).unwrap()
            .into_number(&doc);
        prop_assert_eq!(counted as usize, elements);
    }

    #[test]
    fn text_content_is_concatenated_descendant_text(tree in tree_strategy()) {
        let doc = tree.build();
        let root = doc.document_element().unwrap();
        let mut expected = String::new();
        for n in doc.descendants(root) {
            if let Some(t) = doc.text(n) {
                expected.push_str(t);
            }
        }
        prop_assert_eq!(doc.text_content(root), expected);
    }

    #[test]
    fn pretty_and_compact_agree_on_structure(tree in tree_strategy()) {
        let doc = tree.build();
        let pretty = Document::parse(&doc.to_xml_pretty()).unwrap();
        let compact = Document::parse(&doc.to_xml_string()).unwrap();
        // element structure must be identical (text may gain whitespace
        // in pretty mode only *between* elements, never inside leaves)
        let count = |d: &Document| {
            d.descendants(d.root()).iter().filter(|&&n| d.is_element(n)).count()
        };
        prop_assert_eq!(count(&pretty), count(&compact));
    }

    #[test]
    fn parser_never_panics_on_arbitrary_input(s in "\\PC{0,120}") {
        let _ = Document::parse(&s); // must not panic
    }

    #[test]
    fn xpath_parser_never_panics(s in "\\PC{0,60}") {
        let _ = XPath::parse(&s); // must not panic
    }

    /// `name()`, `string()` and `number()` without their argument read the
    /// context node, exactly as `name(.)`, `string(.)` and `number(.)` do,
    /// at every node of the tree and at an attribute.
    #[test]
    fn absent_argument_is_the_context_node(tree in tree_strategy(), v in text_strategy()) {
        let doc = ElementBuilder::new("w").attr("k", v).child(tree).build();
        let mut nodes = XPath::parse("//node() | //@*").unwrap()
            .eval_root(&doc).unwrap().into_nodes().unwrap();
        nodes.push(XNode::Node(doc.root()));
        let vars = HashMap::new();
        for f in ["name", "string", "number"] {
            let bare = XPath::parse(&format!("{f}()")).unwrap();
            let dot = XPath::parse(&format!("{f}(.)")).unwrap();
            for &node in &nodes {
                let ctx = Context::new(&doc, node, &vars);
                let (b, d) = (bare.eval(&ctx).unwrap(), dot.eval(&ctx).unwrap());
                // NaN != NaN: compare what the values print as
                prop_assert_eq!(b.into_string(&doc), d.into_string(&doc), "{}() at {:?}", f, node);
            }
        }
    }
}

/// Every expression the tree's stylesheets, examples, store and benchmark
/// generator hand to XPath (AVT bodies included, XML escapes undone).
const SEEDS: &[&str] = &[
    ".", "..", "/", "*", "*[1]", "@*|node()", "@name", "@kind", "@path", "@community",
    "@input", "@communityname", "//b", "//item", "//keep", "//marker", "//n", "//name",
    "//num", "//row", "//title", "//x", "//tag", "/form", "/hello", "/pattern", "/x",
    "/community/name", "@attachment = 'true'", "@input = 'checkbox'", "@input = 'number'",
    "@input = 'select'", "@kind = 'create'", "@repeated = 'true'", "@required = 'true'",
    "aka", "aka != ''", "applicability", "b", "category", "cell", "field", "intent", "item",
    "n", "name", "option", "participants", "x", ". > 10", ". = 5", "count(*)",
    "count(*) > 0", "count(field)", "count(/*/*) > 2", "concat($greeting, ' there')",
    "concat($prefix, .)", "name()", "position()", "$missing", "$text", "$v", "$who", "'#'",
    "'default'", "/pattern[category='behavioral']", "//artist[contains(., 'Davis')]",
    "/catalog/pattern[last()]/name", "//pattern[@cat='behavioral'][uses > 10]",
    "not(false()) and true() or boolean(1)", "string(number('3')) = '3'", "-2 + 5 * 3 div 4 mod 2",
    "/catalog/child::pattern/attribute::id | //self::name/parent::*/descendant-or-self::text()",
    "//comment()", "//a:x",
];

/// Byte mutations of [`SEEDS`] from a fixed seed: whatever parses must
/// evaluate without panicking, and may fail only for what depends on the
/// expression's values — an unbound variable or a non-node-set where a
/// node-set is required — never for an unknown function or a wrong
/// argument count, which the parser has already ruled out.
#[test]
fn mutated_expressions_parse_or_fail_cleanly() {
    const ALPHABET: &[u8] = b"/@.*:|$'\"()[],=!<>+- abcnt0123456789";
    let doc = Document::parse(
        "<catalog xmlns:a='urn:a'><pattern id='1' cat='behavioral'><name>Observer</name>\
         <uses>12</uses><!--c--></pattern><a:x>5</a:x><b>hi<c/></b></catalog>",
    )
    .unwrap();
    let mut vars = HashMap::new();
    for name in ["v", "greeting", "prefix", "who"] {
        vars.insert(name.to_string(), Value::Str("hi".to_string()));
    }
    let mut state = 0x5EED_u64;
    let mut next = |bound: usize| {
        // splitmix64
        state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        ((z ^ (z >> 31)) % bound.max(1) as u64) as usize
    };
    let (mut parsed, mut evaluated) = (0, 0);
    for _ in 0..20_000 {
        let mut bytes = SEEDS[next(SEEDS.len())].as_bytes().to_vec();
        for _ in 0..1 + next(3) {
            let at = next(bytes.len() + 1);
            match next(4) {
                0 => bytes.insert(at, ALPHABET[next(ALPHABET.len())]),
                1 if at < bytes.len() => {
                    bytes.remove(at);
                }
                2 if at < bytes.len() => bytes[at] = ALPHABET[next(ALPHABET.len())],
                _ => {
                    // splice in a slice of another seed
                    let other = SEEDS[next(SEEDS.len())].as_bytes();
                    let from = next(other.len());
                    let to = from + next(other.len() - from + 1);
                    bytes.splice(at..at, other[from..to].iter().copied());
                }
            }
        }
        let source = String::from_utf8_lossy(&bytes);
        let Ok(xp) = XPath::parse(&source) else { continue };
        parsed += 1;
        let ctx = Context::new(&doc, XNode::Node(doc.root()), &vars);
        match xp.eval(&ctx) {
            Ok(_) => evaluated += 1,
            Err(e) => assert!(
                e.message().starts_with("unknown variable")
                    || e.message().starts_with("expected node-set"),
                "{source:?}: {e}"
            ),
        }
    }
    // the mutants reach both the parser's errors and the evaluator
    assert!(parsed > 5_000 && evaluated > 5_000, "{parsed} parsed, {evaluated} evaluated");
}
