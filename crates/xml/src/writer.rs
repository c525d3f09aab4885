//! Serialization of [`Document`] trees back to XML text.

use crate::document::{Document, NodeId, NodeKind};
use crate::escape::{escape_attr_into, escape_comment_into, escape_pi_into, escape_text_into};

/// Serialization options.
#[derive(Debug, Clone)]
#[derive(Default)]
pub struct WriteOptions {
    /// Emit an `<?xml version="1.0" encoding="UTF-8"?>` declaration.
    pub declaration: bool,
    /// Pretty-print with the given indent string, or `None` for compact
    /// output that preserves text exactly.
    pub indent: Option<String>,
}


impl WriteOptions {
    /// Compact output without a declaration (the default).
    pub fn compact() -> Self {
        Self::default()
    }

    /// Two-space pretty-printing with a declaration.
    pub fn pretty() -> Self {
        WriteOptions { declaration: true, indent: Some("  ".to_string()) }
    }
}

impl Document {
    /// Serializes the whole document compactly (no declaration).
    ///
    /// Compact output round-trips: `Document::parse(doc.to_xml_string())`
    /// reproduces an equivalent tree.
    pub fn to_xml_string(&self) -> String {
        self.to_xml_with(&WriteOptions::compact())
    }

    /// Serializes the whole document with a declaration and two-space
    /// indentation. Pretty output inserts whitespace and is intended for
    /// human consumption, not round-tripping of mixed content.
    pub fn to_xml_pretty(&self) -> String {
        self.to_xml_with(&WriteOptions::pretty())
    }

    /// Serializes the whole document with explicit options.
    pub fn to_xml_with(&self, options: &WriteOptions) -> String {
        let indent = options.indent.as_deref();
        let mut out = String::with_capacity(self.len() * BYTES_PER_NODE);
        if options.declaration {
            out.push_str("<?xml version=\"1.0\" encoding=\"UTF-8\"?>");
            if indent.is_some() {
                out.push('\n');
            }
        }
        for &child in self.children(self.root()) {
            self.write_node(child, indent, 0, &mut out);
            if indent.is_some() {
                out.push('\n');
            }
        }
        if indent.is_some() && out.ends_with('\n') {
            out.pop();
        }
        out
    }

    /// Serializes the subtree rooted at `node` compactly.
    pub fn node_to_xml_string(&self, node: NodeId) -> String {
        let mut out = String::new();
        self.write_node(node, None, 0, &mut out);
        out
    }

    /// The one writer, compact (`indent` `None`) and pretty alike.
    fn write_node(&self, id: NodeId, indent: Option<&str>, depth: usize, out: &mut String) {
        match self.kind(id) {
            NodeKind::Document => {
                for &c in self.children(id) {
                    self.write_node(c, indent, depth, out);
                }
            }
            NodeKind::Element { name, attributes } => {
                push_indent(out, indent, depth);
                out.push('<');
                name.push_to(out);
                for a in attributes {
                    out.push(' ');
                    a.name.push_to(out);
                    out.push_str("=\"");
                    escape_attr_into(out, &a.value);
                    out.push('"');
                }
                // empty text nodes contribute nothing; skip them so that
                // `<a></a>` and `<a/>` serialize identically
                let shown = |&c: &NodeId| self.text(c).is_none_or(|t| !t.is_empty());
                let children = self.children(id);
                if !children.iter().any(shown) {
                    out.push_str("/>");
                    return;
                }
                out.push('>');
                let text_only = children.iter().all(|&c| self.text(c).is_some());
                match indent {
                    Some(_) if !text_only => {
                        for &c in children.iter().filter(|c| shown(c)) {
                            out.push('\n');
                            self.write_node(c, indent, depth + 1, out);
                        }
                        out.push('\n');
                        push_indent(out, indent, depth);
                    }
                    _ => {
                        for &c in children {
                            self.write_node(c, None, 0, out);
                        }
                    }
                }
                out.push_str("</");
                name.push_to(out);
                out.push('>');
            }
            NodeKind::Text(t) => escape_text_into(out, t),
            NodeKind::Comment(c) => {
                push_indent(out, indent, depth);
                out.push_str("<!--");
                escape_comment_into(out, c);
                out.push_str("-->");
            }
            NodeKind::ProcessingInstruction { target, data } => {
                push_indent(out, indent, depth);
                out.push_str("<?");
                out.push_str(target);
                if !data.is_empty() {
                    out.push(' ');
                    escape_pi_into(out, data);
                }
                out.push_str("?>");
            }
        }
    }
}

/// First guess at a document's serialized size per arena node: a
/// form-filled object (14 nodes, ~190 bytes) fits without growing.
const BYTES_PER_NODE: usize = 24;

fn push_indent(out: &mut String, indent: Option<&str>, depth: usize) {
    if let Some(indent) = indent {
        for _ in 0..depth {
            out.push_str(indent);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ElementBuilder;

    #[test]
    fn compact_round_trip() {
        let src = r#"<a x="1&quot;2"><b>t &amp; u</b><c/><!--note--><?pi data?></a>"#;
        let d = Document::parse(src).unwrap();
        let out = d.to_xml_string();
        let d2 = Document::parse(&out).unwrap();
        assert_eq!(out, d2.to_xml_string());
        assert_eq!(d.text_content(d.document_element().unwrap()), "t & u");
    }

    #[test]
    fn pretty_output_has_declaration_and_indent() {
        let d = Document::parse("<a><b>x</b></a>").unwrap();
        let s = d.to_xml_pretty();
        assert!(s.starts_with("<?xml version=\"1.0\""));
        assert!(s.contains("\n  <b>x</b>"));
    }

    #[test]
    fn text_only_elements_stay_inline_when_pretty() {
        let d = Document::parse("<a><name>Observer</name></a>").unwrap();
        let s = d.to_xml_pretty();
        assert!(s.contains("<name>Observer</name>"), "got: {s}");
    }

    #[test]
    fn empty_element_collapses() {
        let d = Document::parse("<a></a>").unwrap();
        assert_eq!(d.to_xml_string(), "<a/>");
    }

    #[test]
    fn node_to_xml_serializes_subtree() {
        let d = Document::parse("<a><b i='1'>x</b></a>").unwrap();
        let a = d.document_element().unwrap();
        let b = d.child_named(a, "b").unwrap();
        assert_eq!(d.node_to_xml_string(b), "<b i=\"1\">x</b>");
    }

    /// XSLT 1.0 §7.3–7.4: a space after a `-` that another `-` follows or
    /// that ends the comment, and between `?` and `>` in a PI — compact
    /// and pretty — so the text parses back to one comment and one PI.
    #[test]
    fn comment_and_pi_cannot_close_early() {
        let mut d =
            ElementBuilder::new("a").comment("x-->y").comment("---").pi("t", "a?>b").build();
        let top = d.create_comment("end-");
        d.append_child(d.root(), top);
        let compact = d.to_xml_string();
        assert_eq!(compact, "<a><!--x- ->y--><!--- - - --><?t a? >b?></a><!--end- -->");
        assert!(d.to_xml_pretty().ends_with(
            "<a>\n  <!--x- ->y-->\n  <!--- - - -->\n  <?t a? >b?>\n</a>\n<!--end- -->"
        ));
        let back = Document::parse(&compact).unwrap();
        let a = back.document_element().unwrap();
        let kinds: Vec<_> = back.children(a).iter().map(|&c| back.kind(c).clone()).collect();
        assert_eq!(
            kinds,
            [
                NodeKind::Comment("x- ->y".into()),
                NodeKind::Comment("- - - ".into()),
                NodeKind::ProcessingInstruction { target: "t".into(), data: "a? >b".into() },
            ]
        );
        assert_eq!(back.to_xml_string(), compact, "the recovered text is stable");
    }

    #[test]
    fn attr_special_chars_escaped() {
        let mut d = Document::new();
        let e = d.create_element("a".into());
        d.append_child(d.root(), e);
        d.set_attr(e, "v".into(), "a\"b<c>&d\ne");
        let s = d.to_xml_string();
        assert_eq!(s, "<a v=\"a&quot;b&lt;c&gt;&amp;d&#10;e\"/>");
        // and it parses back to the same value
        let d2 = Document::parse(&s).unwrap();
        assert_eq!(d2.attr(d2.document_element().unwrap(), "v"), Some("a\"b<c>&d\ne"));
    }
}
