//! The sinks a transformation writes into.
//!
//! The engine runs every stylesheet once, generic over an [`Output`]:
//!
//! * [`Writer`] (from `up2p-xml`): [`Stylesheet::apply_to_string`]
//!   streams the result straight into text by the sheet's `xsl:output`
//!   method, building no tree;
//! * [`TreeSink`]: [`Stylesheet::apply`] builds the result [`Document`];
//! * [`Capture`]: the body of an `xsl:variable`, `xsl:param`,
//!   `xsl:with-param`, `xsl:attribute` or `xsl:comment` becomes its text.
//!
//! The output methods' rules (escaping, `<a/>`, HTML void elements, raw
//! `script`/`style` text, the comment guard) live in the writer alone:
//! [`to_html`] replays a tree into it. Every sink ignores an attribute
//! that arrives after its element's first content (XSLT 1.0 §7.1.3).
//!
//! [`Stylesheet::apply_to_string`]: crate::Stylesheet::apply_to_string
//! [`Stylesheet::apply`]: crate::Stylesheet::apply

use up2p_xml::{Document, NodeId, OutputMethod, QName, Sink, Writer};

/// A sink the engine can run a stylesheet into.
pub(crate) trait Output: Sink {
    /// Whether an `xsl:attribute` here has an element (or, in a capture,
    /// a result tree fragment) to go to.
    fn in_element(&self) -> bool;
}

impl Output for Writer {
    fn in_element(&self) -> bool {
        self.open_elements() > 0
    }
}

/// Builds the result tree.
pub(crate) struct TreeSink {
    doc: Document,
    /// The innermost open node: an element, or the document node.
    open: NodeId,
    /// Whether `open` has content yet.
    content: bool,
}

impl TreeSink {
    pub(crate) fn new() -> Self {
        let doc = Document::new();
        let open = doc.root();
        TreeSink { doc, open, content: false }
    }

    pub(crate) fn into_document(self) -> Document {
        self.doc
    }

    /// Appends `id` to the innermost open node; `shown` marks it content.
    fn append(&mut self, id: NodeId, shown: bool) {
        self.doc.append_child(self.open, id);
        self.content |= shown;
    }
}

impl Sink for TreeSink {
    fn start_element(&mut self, name: &QName) {
        let el = self.doc.create_element(name.clone());
        self.append(el, true);
        self.open = el;
        self.content = false;
    }

    fn attribute(&mut self, name: &QName, value: &str) {
        if !self.content {
            self.doc.set_attr(self.open, name.clone(), value);
        }
    }

    fn end_element(&mut self, _: &QName) {
        if let Some(parent) = self.doc.parent(self.open) {
            // the element just closed is content of its parent
            self.open = parent;
            self.content = true;
        }
    }

    fn text(&mut self, text: &str) {
        let id = self.doc.create_text(text);
        self.append(id, !text.is_empty());
    }

    fn comment(&mut self, text: &str) {
        let id = self.doc.create_comment(text);
        self.append(id, true);
    }

    fn processing_instruction(&mut self, target: &str, data: &str) {
        let id = self.doc.create_pi(target, data);
        self.append(id, true);
    }
}

impl Output for TreeSink {
    fn in_element(&self) -> bool {
        self.open != self.doc.root()
    }
}

/// Keeps the text of what a body writes: its string value as a result
/// tree fragment. Markup, attributes and comments leave nothing.
#[derive(Default)]
pub(crate) struct Capture(pub(crate) String);

impl Sink for Capture {
    fn start_element(&mut self, _: &QName) {}
    fn attribute(&mut self, _: &QName, _: &str) {}
    fn end_element(&mut self, _: &QName) {}
    fn text(&mut self, text: &str) {
        self.0.push_str(text);
    }
    fn comment(&mut self, _: &str) {}
    fn processing_instruction(&mut self, _: &str, _: &str) {}
}

impl Output for Capture {
    fn in_element(&self) -> bool {
        true
    }
}

/// Serializes a result tree using the HTML output method.
pub fn to_html(doc: &Document) -> String {
    doc.serialize(OutputMethod::Html)
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
            assert_eq!(to_html(&sheet.apply(&src).unwrap()), html, "{title:?}");
            // the page holds exactly one comment, and it ends where it
            // was meant to
            let body = &out["<div><!--".len()..];
            assert_eq!(body.find("-->"), Some(body.len() - "--></div>".len()), "{title:?}");
            assert!(!body.contains("--!>"), "{title:?}");
        }
    }
}
