//! HTML output method (`xsl:output method="html"`).
//!
//! Differences from XML serialization that matter for browser-facing
//! output: void elements (`<br>`, `<input>`, ...) are written without a
//! closing tag, non-void empty elements keep an explicit closing tag
//! (`<div></div>`, never `<div/>`), and the contents of `<script>` and
//! `<style>` are not entity-escaped.

use up2p_xml::{escape_attr_into, escape_comment_into, escape_text_into, Document, NodeId, NodeKind};

/// HTML void elements per the HTML 4.01 / XHTML-era list the paper's
/// browser targets understood.
const VOID_ELEMENTS: &[&str] = &[
    "area", "base", "br", "col", "hr", "img", "input", "link", "meta", "param",
];

/// Serializes a result tree using the HTML output method.
pub fn to_html(doc: &Document) -> String {
    let mut out = String::new();
    for &child in doc.children(doc.root()) {
        write_html(doc, child, &mut out, false);
    }
    out
}

fn write_html(doc: &Document, id: NodeId, out: &mut String, raw_text: bool) {
    match doc.kind(id) {
        NodeKind::Document => {
            for &c in doc.children(id) {
                write_html(doc, c, out, raw_text);
            }
        }
        NodeKind::Element { name, attributes } => {
            out.push('<');
            name.push_to(out);
            for a in attributes {
                out.push(' ');
                a.name.push_to(out);
                out.push_str("=\"");
                escape_attr_into(out, &a.value);
                out.push('"');
            }
            out.push('>');
            let local = name.local();
            if VOID_ELEMENTS.iter().any(|v| local.eq_ignore_ascii_case(v)) {
                return; // no closing tag, children ignored
            }
            let raw = local.eq_ignore_ascii_case("script") || local.eq_ignore_ascii_case("style");
            for &c in doc.children(id) {
                write_html(doc, c, out, raw);
            }
            out.push_str("</");
            name.push_to(out);
            out.push('>');
        }
        NodeKind::Text(t) => {
            if raw_text {
                out.push_str(t);
            } else {
                escape_text_into(out, t);
            }
        }
        NodeKind::Comment(c) => {
            out.push_str("<!--");
            // an HTML parser also ends a comment at a `>` or `->` right
            // after `<!--`; the space keeps those inside it
            if c.starts_with('>') || c.starts_with("->") {
                out.push(' ');
            }
            escape_comment_into(out, c);
            out.push_str("-->");
        }
        NodeKind::ProcessingInstruction { .. } => {}
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use up2p_xml::ElementBuilder;

    #[test]
    fn void_elements_have_no_close_tag() {
        let doc = ElementBuilder::new("p")
            .text("a")
            .child(ElementBuilder::new("br"))
            .text("b")
            .build();
        assert_eq!(to_html(&doc), "<p>a<br>b</p>");
    }

    #[test]
    fn empty_non_void_elements_keep_close_tag() {
        let doc = ElementBuilder::new("div").build();
        assert_eq!(to_html(&doc), "<div></div>");
    }

    #[test]
    fn script_content_not_escaped() {
        let doc = ElementBuilder::new("script").text("if (a < b && c > d) {}").build();
        assert_eq!(to_html(&doc), "<script>if (a < b && c > d) {}</script>");
    }

    #[test]
    fn regular_text_is_escaped() {
        let doc = ElementBuilder::new("p").text("a < b").build();
        assert_eq!(to_html(&doc), "<p>a &lt; b</p>");
    }

    #[test]
    fn attributes_escaped() {
        let doc = ElementBuilder::new("input").attr("value", "say \"hi\"").build();
        assert_eq!(to_html(&doc), r#"<input value="say &quot;hi&quot;">"#);
    }

    #[test]
    fn element_names_match_void_and_raw_in_any_case() {
        let doc = ElementBuilder::new("P")
            .child(ElementBuilder::new("BR"))
            .child(ElementBuilder::new("Script").text("a<b"))
            .build();
        assert_eq!(to_html(&doc), "<P><BR><Script>a<b</Script></P>");
    }

    /// A display style that writes an object's field into a comment: the
    /// field is a stranger's text, and must not end the comment and
    /// inject markup into the rendered page.
    #[test]
    fn hostile_field_stays_inside_xsl_comment() {
        let sheet = crate::Stylesheet::parse(
            r#"<xsl:stylesheet version="1.0" xmlns:xsl="http://www.w3.org/1999/XSL/Transform">
                 <xsl:output method="html"/>
                 <xsl:template match="/">
                   <div><xsl:comment><xsl:value-of select="item/title"/></xsl:comment></div>
                 </xsl:template>
               </xsl:stylesheet>"#,
        )
        .unwrap();
        for (title, html) in [
            ("--><b>x</b>", "<div><!--- -><b>x</b>--></div>"),
            ("ok-", "<div><!--ok- --></div>"),
            ("-><b>x</b>", "<div><!-- -><b>x</b>--></div>"),
            ("><b>x</b>", "<div><!-- ><b>x</b>--></div>"),
        ] {
            let src = ElementBuilder::new("item").child_text("title", title).build();
            let out = sheet.apply_to_string(&src).unwrap();
            assert_eq!(out, html, "{title:?}");
            // the page holds exactly one comment, and it ends where it
            // was meant to
            let body = &out["<div><!--".len()..];
            assert_eq!(body.find("-->"), Some(body.len() - "--></div>".len()), "{title:?}");
            assert!(!body.contains("--!>"), "{title:?}");
        }
    }
}
