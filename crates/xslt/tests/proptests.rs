//! Property tests for the XSLT engine: the identity transform must
//! reproduce any tree, sorting must agree with a reference sort, and the
//! streamed page must be the bytes of the result tree serialized by the
//! same output method.

use proptest::prelude::*;
use proptest::strategy::BoxedStrategy;
use up2p_xml::{
    escape_attr, escape_attr_into, escape_comment_into, escape_text, escape_text_into, Document,
    ElementBuilder, NodeId, NodeKind, OutputMethod,
};
use up2p_xslt::{to_html, Stylesheet};

const IDENTITY: &str = r#"<xsl:stylesheet version="1.0"
    xmlns:xsl="http://www.w3.org/1999/XSL/Transform">
  <xsl:template match="@*|node()">
    <xsl:copy><xsl:apply-templates select="@*|node()"/></xsl:copy>
  </xsl:template>
</xsl:stylesheet>"#;

fn name_strategy() -> impl Strategy<Value = String> {
    "[a-z][a-z0-9]{0,6}"
}

fn text_strategy() -> impl Strategy<Value = String> {
    // printable, non-empty to avoid <a></a> vs <a/> ambiguity
    "[ -~&&[^<>&]]{1,20}"
}

fn tree_strategy() -> impl Strategy<Value = ElementBuilder> {
    let leaf = (name_strategy(), text_strategy())
        .prop_map(|(n, t)| ElementBuilder::new(n.as_str()).text(t));
    leaf.prop_recursive(3, 20, 4, |inner| {
        (
            name_strategy(),
            prop::collection::vec(("[a-z]{1,5}", "[a-z0-9 ]{0,10}"), 0..3),
            prop::collection::vec(inner, 1..4),
        )
            .prop_map(|(n, attrs, children)| {
                let mut b = ElementBuilder::new(n.as_str());
                let mut seen = std::collections::BTreeSet::new();
                for (k, v) in attrs {
                    if seen.insert(k.clone()) {
                        b = b.attr(k.as_str(), v);
                    }
                }
                for c in children {
                    b = b.child(c);
                }
                b
            })
    })
}

// ---------------------------------------------------------------------
// generated stylesheets
// ---------------------------------------------------------------------

/// Element names: plain, HTML void (any case), raw-text and plain again.
const ELEMENTS: &[&str] = &[
    "div", "p", "br", "input", "IMG", "script", "Style", "span", "e",
];
/// Attribute names, shared by literal attributes and `xsl:attribute` so
/// a later one replaces an earlier one.
const ATTRIBUTES: &[&str] = &["id", "class", "value", "a"];
/// Text as a sheet writes it: markup characters, comment and PI closers,
/// script-like text, a lone space, and nothing at all.
const TEXTS: &[&str] = &[
    "",
    "a",
    "x < y & z",
    "\"q\" 'q'",
    "--",
    "a-",
    "->b",
    ">c",
    "p?>q",
    "if (a < b) {}",
    " ",
];
/// Attribute value templates, written as they appear in the sheet.
const AVTS: &[&str] = &[
    "lit",
    "{name()}",
    "x{position()}y",
    "{$p}",
    "{@*}",
    "a&quot;&lt;b",
    "{{b}}",
    "",
    "{.}",
];
/// String-valued expressions (`$p` is always bound: a global param).
const STRINGS: &[&str] = &[
    ".",
    "name()",
    "@*",
    "*",
    "*[1]",
    "text()",
    "count(*)",
    "position()",
    "concat(name(), '-', last())",
    "'<&>'",
    "$p",
    "//*[2]",
    "..",
    "''",
];
/// Node-set expressions that never select the document node, so
/// `apply-templates` cannot re-enter the `/` template.
const NODES: &[&str] = &["*", "node()", "@*", "text()", "*[2]", "//*", "@*|*"];
/// What `copy-of` copies: node-sets, the document node, and strings.
const COPIES: &[&str] = &[
    "*", "node()", "@*", ".", "/", "/*/@*", "..", "count(*)", "'s<'",
];

/// `xsl:element` names: a name that comes out empty (`name()` of a text
/// node) fails on both paths.
const NAMES: &[&str] = &["e", "br", "Script", "x{position()}", "{name()}"];

fn pick(pool: &'static [&'static str]) -> impl Strategy<Value = &'static str> {
    (0..pool.len()).prop_map(move |i| pool[i])
}

fn maybe<S: Strategy + 'static>(s: S) -> BoxedStrategy<Option<S::Value>>
where
    S::Value: Clone + 'static,
{
    prop_oneof![Just(None), s.prop_map(Some)].boxed()
}

fn attr_list() -> impl Strategy<Value = String> {
    prop::collection::vec((pick(ATTRIBUTES), pick(AVTS)), 0..3).prop_map(|attrs| {
        let mut seen = Vec::new();
        let mut out = String::new();
        for (name, avt) in attrs {
            if !seen.contains(&name) {
                seen.push(name);
                out.push_str(&format!(r#" {name}="{avt}""#));
            }
        }
        out
    })
}

/// One instruction without a body. Only with `calls` does it apply or
/// call a template, and only the `/` template gets those, so no
/// generated sheet recurses.
fn leaf(calls: bool) -> BoxedStrategy<String> {
    let text = pick(TEXTS).prop_flat_map(|t| {
        prop_oneof![
            Just(format!("<xsl:text>{}</xsl:text>", escape_text(t))),
            Just(escape_text(t)),
        ]
    });
    let value_of =
        pick(STRINGS).prop_map(|e| format!(r#"<xsl:value-of select="{}"/>"#, escape_attr(e)));
    let copy_of =
        pick(COPIES).prop_map(|e| format!(r#"<xsl:copy-of select="{}"/>"#, escape_attr(e)));
    let empty = (pick(ELEMENTS), attr_list()).prop_map(|(n, a)| format!("<{n}{a}/>"));
    let attribute = (pick(ATTRIBUTES), pick(TEXTS)).prop_map(|(n, t)| {
        format!(
            r#"<xsl:attribute name="{n}">{}</xsl:attribute>"#,
            escape_text(t)
        )
    });
    let comment =
        pick(TEXTS).prop_map(|t| format!("<xsl:comment>{}</xsl:comment>", escape_text(t)));
    let copy = Just("<xsl:copy/>".to_string());
    if !calls {
        return prop_oneof![
            3 => text, 3 => value_of, 1 => copy_of, 1 => empty, 2 => attribute, 1 => comment,
            1 => copy
        ]
        .boxed();
    }
    let apply = (maybe(pick(NODES)), any::<bool>(), maybe(pick(STRINGS))).prop_map(
        |(select, mode, param)| {
            let select = select.map(|s| format!(r#" select="{}""#, escape_attr(s)));
            let mode = if mode { r#" mode="m""# } else { "" };
            let param =
                param.map(|p| format!(r#"<xsl:with-param name="p" select="{}"/>"#, escape_attr(p)));
            format!(
                "<xsl:apply-templates{}{mode}>{}</xsl:apply-templates>",
                select.unwrap_or_default(),
                param.unwrap_or_default()
            )
        },
    );
    let call = maybe(pick(STRINGS)).prop_map(|param| {
        let param =
            param.map(|p| format!(r#"<xsl:with-param name="p" select="{}"/>"#, escape_attr(p)));
        format!(
            r#"<xsl:call-template name="named">{}</xsl:call-template>"#,
            param.unwrap_or_default()
        )
    });
    prop_oneof![
        3 => text, 3 => value_of, 1 => copy_of, 1 => empty, 2 => attribute, 1 => comment,
        1 => copy, 2 => apply, 1 => call
    ]
    .boxed()
}

/// A sequence of instructions, nested up to three deep.
fn body(calls: bool) -> BoxedStrategy<String> {
    let leaves = prop::collection::vec(leaf(calls), 1..4).prop_map(|v| v.concat());
    leaves
        .prop_recursive(3, 24, 4, move |inner| {
            let one = prop_oneof![
                3 => leaf(calls),
                3 => (pick(ELEMENTS), attr_list(), inner.clone())
                    .prop_map(|(n, a, b)| format!("<{n}{a}>{b}</{n}>")),
                1 => (pick(NAMES), inner.clone())
                    .prop_map(|(n, b)| format!(r#"<xsl:element name="{n}">{b}</xsl:element>"#)),
                1 => (pick(ATTRIBUTES), inner.clone())
                    .prop_map(|(n, b)| format!(r#"<xsl:attribute name="{n}">{b}</xsl:attribute>"#)),
                1 => inner.clone().prop_map(|b| format!("<xsl:comment>{b}</xsl:comment>")),
                1 => (inner.clone(), any::<bool>()).prop_map(|(b, in_attr)| {
                    let use_it = if in_attr {
                        r#"<span class="{$v}"/>"#
                    } else {
                        r#"<xsl:value-of select="$v"/>"#
                    };
                    format!(r#"<xsl:variable name="v">{b}</xsl:variable>{use_it}"#)
                }),
                1 => (pick(NODES), maybe((pick(STRINGS), any::<bool>(), any::<bool>())), inner.clone())
                    .prop_map(|(select, sort, b)| {
                        let sort = sort.map(|(key, descending, numeric)| {
                            format!(
                                r#"<xsl:sort select="{}" order="{}" data-type="{}"/>"#,
                                escape_attr(key),
                                if descending { "descending" } else { "ascending" },
                                if numeric { "number" } else { "text" },
                            )
                        });
                        format!(
                            r#"<xsl:for-each select="{}">{}{b}</xsl:for-each>"#,
                            escape_attr(select),
                            sort.unwrap_or_default()
                        )
                    }),
                1 => (pick(STRINGS), inner.clone()).prop_map(|(test, b)| {
                    format!(r#"<xsl:if test="{}">{b}</xsl:if>"#, escape_attr(test))
                }),
                1 => (pick(STRINGS), inner.clone(), inner.clone()).prop_map(|(test, b, otherwise)| {
                    format!(
                        r#"<xsl:choose><xsl:when test="{}">{b}</xsl:when><xsl:otherwise>{otherwise}</xsl:otherwise></xsl:choose>"#,
                        escape_attr(test)
                    )
                }),
                1 => inner.clone().prop_map(|b| format!("<xsl:copy>{b}</xsl:copy>")),
            ];
            prop::collection::vec(one, 1..5).prop_map(|v| v.concat())
        })
        .boxed()
}

/// A sheet: a global `$p`, the `/` template, a mode `m` template for
/// every element and a named template, each taking `$p`.
fn sheet(method: &str, root: &str, moded: &str, named: &str) -> String {
    format!(
        r#"<xsl:stylesheet version="1.0" xmlns:xsl="http://www.w3.org/1999/XSL/Transform">
<xsl:output method="{method}"/>
<xsl:param name="p" select="'g'"/>
<xsl:template match="/">{root}</xsl:template>
<xsl:template match="*" mode="m"><xsl:param name="p" select="'d'"/>{moded}</xsl:template>
<xsl:template name="named"><xsl:param name="p"/>{named}</xsl:template>
</xsl:stylesheet>"#
    )
}

/// The result tree serialized by the sheet's own output method, and by
/// the tree walkers that wrote the compact XML and the HTML before both
/// were replayed into one writer per method.
fn tree_bytes(sheet: &Stylesheet, src: &Document) -> Result<[String; 2], String> {
    let tree = sheet.apply(src).map_err(|e| e.to_string())?;
    let mut oracle = String::new();
    for &c in tree.children(tree.root()) {
        match sheet.output_method() {
            OutputMethod::Xml => xml_oracle(&tree, c, &mut oracle),
            OutputMethod::Html => html_oracle(&tree, c, &mut oracle, false),
            OutputMethod::Text => oracle.push_str(&tree.text_content(c)),
        }
    }
    Ok([
        match sheet.output_method() {
            OutputMethod::Xml => tree.to_xml_string(),
            OutputMethod::Html => to_html(&tree),
            OutputMethod::Text => tree.text_content(tree.root()),
        },
        oracle,
    ])
}

fn start_tag(doc: &Document, id: NodeId, out: &mut String) {
    out.push('<');
    out.push_str(&doc.name(id).unwrap().to_string());
    for a in doc.attributes(id) {
        out.push_str(&format!(" {}=\"", a.name));
        escape_attr_into(out, &a.value);
        out.push('"');
    }
}

/// The compact XML tree walker (PIs never reach a result here).
fn xml_oracle(doc: &Document, id: NodeId, out: &mut String) {
    match doc.kind(id) {
        NodeKind::Element { name, .. } => {
            start_tag(doc, id, out);
            let children = doc.children(id);
            if children.iter().all(|&c| doc.text(c) == Some("")) {
                out.push_str("/>");
                return;
            }
            out.push('>');
            for &c in children {
                xml_oracle(doc, c, out);
            }
            out.push_str(&format!("</{name}>"));
        }
        NodeKind::Text(t) => escape_text_into(out, t),
        NodeKind::Comment(c) => {
            out.push_str("<!--");
            escape_comment_into(out, c);
            out.push_str("-->");
        }
        _ => {}
    }
}

/// The HTML tree walker.
fn html_oracle(doc: &Document, id: NodeId, out: &mut String, raw_text: bool) {
    match doc.kind(id) {
        NodeKind::Element { name, .. } => {
            start_tag(doc, id, out);
            out.push('>');
            let local = name.local().to_ascii_lowercase();
            let void = [
                "area", "base", "br", "col", "hr", "img", "input", "link", "meta", "param",
            ];
            if void.contains(&local.as_str()) {
                return;
            }
            let raw = local == "script" || local == "style";
            for &c in doc.children(id) {
                html_oracle(doc, c, out, raw);
            }
            out.push_str(&format!("</{name}>"));
        }
        NodeKind::Text(t) if raw_text => out.push_str(t),
        NodeKind::Text(t) => escape_text_into(out, t),
        NodeKind::Comment(c) => {
            out.push_str("<!--");
            if c.starts_with('>') || c.starts_with("->") {
                out.push(' ');
            }
            escape_comment_into(out, c);
            out.push_str("-->");
        }
        _ => {}
    }
}

proptest! {
    /// The licence for streaming: for every output method,
    /// `apply_to_string` writes exactly the bytes of `apply`'s tree
    /// serialized by that method, and fails exactly when it fails; the
    /// tree serializes as the pre-change tree walkers wrote it.
    #[test]
    fn streamed_output_is_the_serialized_tree(
        root in body(true),
        moded in body(false),
        named in body(false),
        tree in tree_strategy(),
        wrap in any::<bool>(),
    ) {
        let doc = tree.build();
        // unwrapped, an `xsl:attribute` at the top fails on both paths
        let root = if wrap { format!("<div>{root}</div>") } else { root };
        for method in ["xml", "html", "text"] {
            let source = sheet(method, &root, &moded, &named);
            let compiled = Stylesheet::parse(&source);
            prop_assert!(compiled.is_ok(), "{source}: {:?}", compiled.err());
            let compiled = compiled.unwrap();
            let streamed = compiled.apply_to_string(&doc).map_err(|e| e.to_string());
            let tree = tree_bytes(&compiled, &doc);
            prop_assert_eq!(&streamed, &tree.clone().map(|[bytes, _]| bytes), "{}", source);
            prop_assert_eq!(streamed, tree.map(|[_, oracle]| oracle), "{}", source);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// The classic identity stylesheet reproduces any element tree
    /// exactly (modulo canonical serialization).
    #[test]
    fn identity_transform_reproduces_tree(tree in tree_strategy()) {
        let doc = tree.build();
        let sheet = Stylesheet::parse(IDENTITY).unwrap();
        let out = sheet.apply(&doc).unwrap();
        prop_assert_eq!(doc.to_xml_string(), out.to_xml_string());
    }

    /// `xsl:for-each` with `xsl:sort` agrees with a reference sort of the
    /// item string values.
    #[test]
    fn sort_agrees_with_reference(values in prop::collection::vec("[a-z]{1,8}", 1..12)) {
        let mut b = ElementBuilder::new("list");
        for v in &values {
            b = b.child_text("item", v.clone());
        }
        let doc = b.build();
        let sheet = Stylesheet::parse(r#"<xsl:stylesheet version="1.0"
            xmlns:xsl="http://www.w3.org/1999/XSL/Transform">
          <xsl:output method="text"/>
          <xsl:template match="/">
            <xsl:for-each select="//item">
              <xsl:sort select="."/>
              <xsl:value-of select="."/><xsl:text>,</xsl:text>
            </xsl:for-each>
          </xsl:template>
        </xsl:stylesheet>"#).unwrap();
        let out = sheet.apply_to_string(&doc).unwrap();
        let mut expected = values.clone();
        expected.sort();
        let expected: String = expected.iter().map(|v| format!("{v},")).collect();
        prop_assert_eq!(out, expected);
    }

    /// `value-of select="//x"` equals the first matching node's text
    /// content, for arbitrary trees that contain a known marker.
    #[test]
    fn value_of_matches_text_content(tree in tree_strategy(), marker in "[a-z0-9 ]{1,12}") {
        let doc = ElementBuilder::new("root")
            .child(ElementBuilder::new("marker").text(marker.clone()))
            .child(tree)
            .build();
        let sheet = Stylesheet::parse(r#"<xsl:stylesheet version="1.0"
            xmlns:xsl="http://www.w3.org/1999/XSL/Transform">
          <xsl:output method="text"/>
          <xsl:template match="/"><xsl:value-of select="//marker"/></xsl:template>
        </xsl:stylesheet>"#).unwrap();
        prop_assert_eq!(sheet.apply_to_string(&doc).unwrap(), marker);
    }

    /// The engine never panics on arbitrary stylesheet-shaped input.
    #[test]
    fn compiler_never_panics(s in "\\PC{0,200}") {
        let _ = Stylesheet::parse(&s);
    }
}
