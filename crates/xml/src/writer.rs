//! Serialization: one [`Writer`] per output method, fed by a [`Sink`]'s
//! events.
//!
//! A [`Document`] is serialized by replaying it into a [`Writer`]
//! ([`Document::replay`]); the XSLT engine streams a transformation's
//! result into the same writer without building a tree. So the escaping
//! rules, the empty-element rule and the HTML rules (void elements, raw
//! `script`/`style` text, the comment guard) each live here once.

use std::ops::Range;

use crate::document::{Document, NodeId, NodeKind};
use crate::escape::{escape_attr_into, escape_comment_into, escape_pi_into, escape_text_into};
use crate::name::QName;

/// Output method, as `xsl:output method=".."` names it (XSLT 1.0 §16).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum OutputMethod {
    /// XML serialization (default).
    #[default]
    Xml,
    /// HTML serialization (void elements, no self-closing).
    Html,
    /// Concatenated text.
    Text,
}

/// A receiver of a document's content as events in document order.
///
/// An element's attributes follow its `start_element`; an attribute that
/// arrives after the element's first content (a non-empty text, an
/// element, a comment or a processing instruction) is ignored, the
/// recovery XSLT 1.0 §7.1.3 allows. An empty text is not content.
pub trait Sink {
    /// Opens an element.
    fn start_element(&mut self, name: &QName);
    /// Sets an attribute of the innermost open element, replacing one of
    /// the same name; ignored outside an element or after its content.
    fn attribute(&mut self, name: &QName, value: &str);
    /// Closes the innermost open element, named `name`.
    fn end_element(&mut self, name: &QName);
    /// Character data.
    fn text(&mut self, text: &str);
    /// A comment, without its delimiters.
    fn comment(&mut self, text: &str);
    /// A processing instruction.
    fn processing_instruction(&mut self, target: &str, data: &str);
}

/// HTML void elements per the HTML 4.01 / XHTML-era list the paper's
/// browser targets understood: no closing tag, content dropped.
const VOID_ELEMENTS: &[&str] = &[
    "area", "base", "br", "col", "hr", "img", "input", "link", "meta", "param",
];

/// How an open element's markup and content are written.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Shown {
    /// Tags written, text escaped.
    Markup,
    /// An HTML void element: start tag only, content dropped.
    Void,
    /// HTML `script`/`style`: text written unescaped.
    Raw,
    /// Inside a void element: nothing written.
    Hidden,
}

#[derive(Debug, Clone, Copy)]
struct Open {
    /// Offset of the start tag's `<` in the output.
    start: usize,
    /// The element has content: its start tag is closed and takes no
    /// more attributes.
    content: bool,
    shown: Shown,
}

/// Writes [`Sink`] events as text by one [`OutputMethod`]: compact XML,
/// HTML (void elements without a closing tag, non-void empty elements
/// with one, `script`/`style` text unescaped, a comment that cannot end
/// at its first byte) or the concatenated text.
///
/// A start tag stays open for attributes until the element's first
/// content; an XML element with none is written `<a/>`.
///
/// ```
/// use up2p_xml::{OutputMethod, QName, Sink, Writer};
/// let mut w = Writer::new(OutputMethod::Html);
/// let (p, br) = (QName::local_only("p"), QName::local_only("br"));
/// w.start_element(&p);
/// w.text("a < b");
/// w.start_element(&br);
/// w.end_element(&br);
/// w.end_element(&p);
/// assert_eq!(w.finish(), "<p>a &lt; b<br></p>");
/// ```
#[derive(Debug)]
pub struct Writer {
    out: String,
    method: OutputMethod,
    open: Vec<Open>,
}

impl Writer {
    /// An empty writer for `method`.
    pub fn new(method: OutputMethod) -> Self {
        Self::with_capacity(method, 0)
    }

    /// An empty writer whose buffer holds `bytes` before it grows.
    pub fn with_capacity(method: OutputMethod, bytes: usize) -> Self {
        Writer { out: String::with_capacity(bytes), method, open: Vec::new() }
    }

    /// Number of elements opened and not yet closed.
    pub fn open_elements(&self) -> usize {
        self.open.len()
    }

    /// The text written so far.
    pub fn finish(self) -> String {
        self.out
    }

    /// Writes `text` as is: the declaration, and pretty output's line
    /// breaks and indents.
    fn layout(&mut self, text: &str) {
        self.content();
        self.out.push_str(text);
    }

    /// Marks the innermost open element as having content, closing its
    /// start tag, and says how content written there is shown.
    fn content(&mut self) -> Shown {
        let Some(top) = self.open.last_mut() else { return Shown::Markup };
        if !top.content {
            top.content = true;
            if top.shown != Shown::Hidden && self.method != OutputMethod::Text {
                self.out.push('>');
            }
        }
        top.shown
    }
}

impl Sink for Writer {
    fn start_element(&mut self, name: &QName) {
        let shown = match self.content() {
            Shown::Void | Shown::Hidden => Shown::Hidden,
            _ if self.method == OutputMethod::Html => {
                let local = name.local();
                if VOID_ELEMENTS.iter().any(|v| local.eq_ignore_ascii_case(v)) {
                    Shown::Void
                } else if local.eq_ignore_ascii_case("script") || local.eq_ignore_ascii_case("style")
                {
                    Shown::Raw
                } else {
                    Shown::Markup
                }
            }
            _ => Shown::Markup,
        };
        let start = self.out.len();
        if shown != Shown::Hidden && self.method != OutputMethod::Text {
            self.out.push('<');
            name.push_to(&mut self.out);
        }
        self.open.push(Open { start, content: false, shown });
    }

    fn attribute(&mut self, name: &QName, value: &str) {
        let Some(&Open { start, content: false, shown }) = self.open.last() else { return };
        if shown == Shown::Hidden || self.method == OutputMethod::Text {
            return;
        }
        match attr_value(&self.out[start..], name) {
            Some(at) => {
                let mut escaped = String::new();
                escape_attr_into(&mut escaped, value);
                self.out.replace_range(start + at.start..start + at.end, &escaped);
            }
            None => {
                self.out.push(' ');
                name.push_to(&mut self.out);
                self.out.push_str("=\"");
                escape_attr_into(&mut self.out, value);
                self.out.push('"');
            }
        }
    }

    fn end_element(&mut self, name: &QName) {
        let Some(Open { content, shown, .. }) = self.open.pop() else { return };
        if shown == Shown::Hidden || self.method == OutputMethod::Text {
            return;
        }
        if !content {
            if self.method == OutputMethod::Xml {
                self.out.push_str("/>");
                return;
            }
            self.out.push('>');
        }
        if shown != Shown::Void {
            self.out.push_str("</");
            name.push_to(&mut self.out);
            self.out.push('>');
        }
    }

    fn text(&mut self, text: &str) {
        if text.is_empty() {
            return;
        }
        match self.content() {
            Shown::Void | Shown::Hidden => {}
            Shown::Raw => self.out.push_str(text),
            Shown::Markup if self.method == OutputMethod::Text => self.out.push_str(text),
            Shown::Markup => escape_text_into(&mut self.out, text),
        }
    }

    fn comment(&mut self, text: &str) {
        if matches!(self.content(), Shown::Void | Shown::Hidden)
            || self.method == OutputMethod::Text
        {
            return;
        }
        self.out.push_str("<!--");
        // an HTML parser also ends a comment at a `>` or `->` right after
        // `<!--`; the space keeps those inside it
        if self.method == OutputMethod::Html && (text.starts_with('>') || text.starts_with("->")) {
            self.out.push(' ');
        }
        escape_comment_into(&mut self.out, text);
        self.out.push_str("-->");
    }

    fn processing_instruction(&mut self, target: &str, data: &str) {
        self.content();
        if self.method != OutputMethod::Xml {
            return;
        }
        self.out.push_str("<?");
        self.out.push_str(target);
        if !data.is_empty() {
            self.out.push(' ');
            escape_pi_into(&mut self.out, data);
        }
        self.out.push_str("?>");
    }
}

/// Where the value of attribute `name` lies in an open start tag
/// (`<e a="1" b="2"`), if the tag has one. Every `"` inside a value is
/// written `&quot;`, so each value ends at the next `"`.
fn attr_value(tag: &str, name: &QName) -> Option<Range<usize>> {
    let bytes = tag.as_bytes();
    let after = |from: usize, byte: u8| {
        bytes.get(from..)?.iter().position(|&b| b == byte).map(|i| from + i)
    };
    let mut at = after(0, b' ')?;
    loop {
        let eq = after(at, b'=')?;
        let end = after(eq + 2, b'"')?;
        let written = tag.get(at + 1..eq)?;
        let same = match name.prefix() {
            None => written == name.local(),
            Some(prefix) => written
                .strip_prefix(prefix)
                .and_then(|rest| rest.strip_prefix(':'))
                .is_some_and(|local| local == name.local()),
        };
        if same {
            return Some(eq + 2..end);
        }
        at = end + 1;
    }
}

impl Document {
    /// Replays the subtree at `node` into `sink` in document order; the
    /// document node replays its children.
    pub fn replay(&self, node: NodeId, sink: &mut impl Sink) {
        match self.kind(node) {
            NodeKind::Document => {
                for &c in self.children(node) {
                    self.replay(c, sink);
                }
            }
            NodeKind::Element { name, attributes } => {
                sink.start_element(name);
                for a in attributes {
                    sink.attribute(&a.name, &a.value);
                }
                for &c in self.children(node) {
                    self.replay(c, sink);
                }
                sink.end_element(name);
            }
            NodeKind::Text(t) => sink.text(t),
            NodeKind::Comment(c) => sink.comment(c),
            NodeKind::ProcessingInstruction { target, data } => {
                sink.processing_instruction(target, data)
            }
        }
    }

    /// Serializes the whole document by `method`.
    pub fn serialize(&self, method: OutputMethod) -> String {
        let mut w = Writer::with_capacity(method, self.len() * BYTES_PER_NODE);
        self.replay(self.root(), &mut w);
        w.finish()
    }

    /// Serializes the whole document compactly (no declaration).
    ///
    /// Compact output round-trips: `Document::parse(doc.to_xml_string())`
    /// reproduces an equivalent tree.
    pub fn to_xml_string(&self) -> String {
        self.serialize(OutputMethod::Xml)
    }

    /// Serializes the whole document with a declaration and two-space
    /// indentation. Pretty output inserts whitespace and is intended for
    /// human consumption, not round-tripping of mixed content.
    pub fn to_xml_pretty(&self) -> String {
        let mut w = Writer::with_capacity(OutputMethod::Xml, self.len() * BYTES_PER_NODE);
        w.layout("<?xml version=\"1.0\" encoding=\"UTF-8\"?>");
        for &child in self.children(self.root()) {
            w.layout("\n");
            self.replay_pretty(child, 0, &mut w);
        }
        w.finish()
    }

    /// [`Document::replay`] with line breaks and indents between the
    /// children of an element that holds more than text; the caller
    /// indents `node` itself.
    fn replay_pretty(&self, node: NodeId, depth: usize, w: &mut Writer) {
        let children = self.children(node);
        let NodeKind::Element { name, attributes } = self.kind(node) else {
            return self.replay(node, w);
        };
        if children.iter().all(|&c| self.is_text(c)) {
            return self.replay(node, w);
        }
        w.start_element(name);
        for a in attributes {
            w.attribute(&a.name, &a.value);
        }
        // empty text nodes contribute nothing, not even a line
        for &c in children.iter().filter(|&&c| self.text(c).is_none_or(|t| !t.is_empty())) {
            w.layout("\n");
            if !self.is_text(c) {
                w.layout(&INDENT.repeat(depth + 1));
            }
            self.replay_pretty(c, depth + 1, w);
        }
        w.layout("\n");
        w.layout(&INDENT.repeat(depth));
        w.end_element(name);
    }
}

/// Pretty output's indent per level.
const INDENT: &str = "  ";

/// First guess at a document's serialized size per arena node: a
/// form-filled object (14 nodes, ~190 bytes) fits without growing.
const BYTES_PER_NODE: usize = 24;

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
        let mut w = Writer::new(OutputMethod::Xml);
        d.replay(b, &mut w);
        assert_eq!(w.finish(), "<b i=\"1\">x</b>");
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
