//! Ergonomic construction of XML trees.
//!
//! ```
//! use up2p_xml::ElementBuilder;
//!
//! let doc = ElementBuilder::new("community")
//!     .attr("category", "music")
//!     .child_text("name", "mp3")
//!     .child(ElementBuilder::new("protocol").text("Gnutella"))
//!     .build();
//! assert_eq!(
//!     doc.to_xml_string(),
//!     r#"<community category="music"><name>mp3</name><protocol>Gnutella</protocol></community>"#
//! );
//! ```

use crate::document::{Document, NodeId};
use crate::name::QName;

#[derive(Debug, Clone)]
enum BuilderNode {
    Element(ElementBuilder),
    Text(String),
    Comment(String),
    Pi(String, String),
}

/// A consuming builder for element subtrees.
#[derive(Debug, Clone)]
pub struct ElementBuilder {
    name: QName,
    attrs: Vec<(QName, String)>,
    children: Vec<BuilderNode>,
}

impl ElementBuilder {
    /// Starts building an element with the given name.
    ///
    /// # Panics
    ///
    /// Panics if `name` is not a valid qualified name.
    pub fn new(name: impl Into<QName>) -> Self {
        ElementBuilder { name: name.into(), attrs: Vec::new(), children: Vec::new() }
    }

    /// Adds an attribute.
    pub fn attr(mut self, name: impl Into<QName>, value: impl Into<String>) -> Self {
        self.attrs.push((name.into(), value.into()));
        self
    }

    /// Appends a text child.
    pub fn text(mut self, text: impl Into<String>) -> Self {
        self.children.push(BuilderNode::Text(text.into()));
        self
    }

    /// Appends a comment child.
    pub fn comment(mut self, text: impl Into<String>) -> Self {
        self.children.push(BuilderNode::Comment(text.into()));
        self
    }

    /// Appends a processing-instruction child, `<?target data?>`.
    pub fn pi(mut self, target: impl Into<String>, data: impl Into<String>) -> Self {
        self.children.push(BuilderNode::Pi(target.into(), data.into()));
        self
    }

    /// Appends an element child.
    pub fn child(mut self, child: ElementBuilder) -> Self {
        self.children.push(BuilderNode::Element(child));
        self
    }

    /// Appends `<name>text</name>` — the most common leaf shape in U-P2P
    /// object documents.
    pub fn child_text(self, name: impl Into<QName>, text: impl Into<String>) -> Self {
        self.child(ElementBuilder::new(name).text(text))
    }

    /// Appends several element children.
    pub fn children<I: IntoIterator<Item = ElementBuilder>>(mut self, iter: I) -> Self {
        self.children.extend(iter.into_iter().map(BuilderNode::Element));
        self
    }

    /// Builds a fresh document whose document element is this subtree.
    pub fn build(self) -> Document {
        let mut doc = Document::new();
        let root = doc.root();
        self.attach(&mut doc, root);
        doc
    }

    /// Materializes this subtree inside `doc` under `parent`, returning the
    /// id of the newly created element.
    ///
    /// # Panics
    ///
    /// Panics if `parent` cannot have children.
    pub fn attach(self, doc: &mut Document, parent: NodeId) -> NodeId {
        let el = doc.create_element(self.name);
        for (name, value) in self.attrs {
            doc.set_attr(el, name, value);
        }
        doc.append_child(parent, el);
        for child in self.children {
            match child {
                BuilderNode::Element(b) => {
                    b.attach(doc, el);
                }
                BuilderNode::Text(t) => {
                    let id = doc.create_text(t);
                    doc.append_child(el, id);
                }
                BuilderNode::Comment(c) => {
                    let id = doc.create_comment(c);
                    doc.append_child(el, id);
                }
                BuilderNode::Pi(target, data) => {
                    let id = doc.create_pi(target, data);
                    doc.append_child(el, id);
                }
            }
        }
        el
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builds_nested_structure() {
        let doc = ElementBuilder::new("pattern")
            .attr("lang", "en")
            .child_text("name", "Observer")
            .child(
                ElementBuilder::new("participants")
                    .child_text("participant", "Subject")
                    .child_text("participant", "Observer"),
            )
            .build();
        let root = doc.document_element().unwrap();
        assert_eq!(doc.attr(root, "lang"), Some("en"));
        let participants = doc.child_named(root, "participants").unwrap();
        assert_eq!(doc.children_named(participants, "participant").count(), 2);
    }

    #[test]
    fn attach_into_existing_document() {
        let mut doc = ElementBuilder::new("results").build();
        let root = doc.document_element().unwrap();
        let id = ElementBuilder::new("hit").attr("peer", "p1").attach(&mut doc, root);
        assert_eq!(doc.parent(id), Some(root));
        assert_eq!(doc.to_xml_string(), r#"<results><hit peer="p1"/></results>"#);
    }

    #[test]
    fn children_from_iterator() {
        let doc = ElementBuilder::new("list")
            .children((0..3).map(|i| ElementBuilder::new("item").text(i.to_string())))
            .build();
        let root = doc.document_element().unwrap();
        assert_eq!(doc.children_named(root, "item").count(), 3);
    }

    #[test]
    fn comments_round_trip() {
        let doc = ElementBuilder::new("a").comment("generated").build();
        assert_eq!(doc.to_xml_string(), "<a><!--generated--></a>");
    }
}
