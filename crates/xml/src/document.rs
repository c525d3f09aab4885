//! Arena-based XML document tree with parent pointers.
//!
//! Nodes are addressed by [`NodeId`] handles into a [`Document`] arena. The
//! arena layout keeps the tree cheap to traverse in all directions (child,
//! parent, sibling), which the XPath and XSLT engines rely on.

use crate::name::QName;

/// Handle to a node within a [`Document`].
///
/// A `NodeId` is only meaningful together with the document that produced
/// it; using it with another document yields unspecified (but memory-safe)
/// results.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NodeId(u32);

impl NodeId {
    /// Index into the arena. Exposed for use as a map key / posting id.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// A single attribute: qualified name plus value.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Attribute {
    /// Attribute name as written (`xsl:match`, `name`, `xmlns:up2p`, ...).
    pub name: QName,
    /// Attribute value after entity expansion.
    pub value: String,
}

/// The payload of a node.
#[derive(Debug, Clone, PartialEq)]
pub enum NodeKind {
    /// The document root. Exactly one per document; parent of the document
    /// element, top-level comments and processing instructions.
    Document,
    /// An element with a name and attributes.
    Element {
        /// Element name as written.
        name: QName,
        /// Attributes in document order.
        attributes: Vec<Attribute>,
    },
    /// Character data (entity references already expanded).
    Text(String),
    /// A comment (`<!-- ... -->`), without the delimiters.
    Comment(String),
    /// A processing instruction (`<?target data?>`).
    ProcessingInstruction {
        /// The PI target.
        target: String,
        /// The PI data, possibly empty.
        data: String,
    },
}

#[derive(Debug, Clone)]
struct NodeData {
    parent: Option<NodeId>,
    children: Vec<NodeId>,
    kind: NodeKind,
}

/// An XML document: an arena of nodes rooted at [`Document::root`].
///
/// ```
/// use up2p_xml::Document;
/// let doc = Document::parse("<a><b>hi</b></a>")?;
/// let root_elem = doc.document_element().unwrap();
/// assert_eq!(doc.local_name(root_elem), Some("a"));
/// assert_eq!(doc.text_content(root_elem), "hi");
/// # Ok::<(), up2p_xml::ParseXmlError>(())
/// ```
#[derive(Debug, Clone)]
pub struct Document {
    nodes: Vec<NodeData>,
}

impl Default for Document {
    fn default() -> Self {
        Self::new()
    }
}

impl Document {
    /// Creates an empty document containing only the document root node.
    pub fn new() -> Self {
        Document {
            nodes: vec![NodeData { parent: None, children: Vec::new(), kind: NodeKind::Document }],
        }
    }

    /// The document root node (kind [`NodeKind::Document`]).
    pub fn root(&self) -> NodeId {
        NodeId(0)
    }

    /// The outermost element, if the document has one.
    pub fn document_element(&self) -> Option<NodeId> {
        self.children(self.root()).iter().copied().find(|&c| self.is_element(c))
    }

    /// Number of nodes in the arena (including detached ones).
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// `true` when the document contains only the root node.
    pub fn is_empty(&self) -> bool {
        self.nodes.len() == 1 && self.nodes[0].children.is_empty()
    }

    fn data(&self, id: NodeId) -> &NodeData {
        &self.nodes[id.index()]
    }

    fn data_mut(&mut self, id: NodeId) -> &mut NodeData {
        &mut self.nodes[id.index()]
    }

    /// The kind (element/text/comment/...) of `id`.
    pub fn kind(&self, id: NodeId) -> &NodeKind {
        &self.data(id).kind
    }

    /// `true` when `id` is an element node.
    pub fn is_element(&self, id: NodeId) -> bool {
        matches!(self.data(id).kind, NodeKind::Element { .. })
    }

    /// `true` when `id` is a text node.
    pub fn is_text(&self, id: NodeId) -> bool {
        matches!(self.data(id).kind, NodeKind::Text(_))
    }

    /// Element name, or `None` for non-element nodes.
    pub fn name(&self, id: NodeId) -> Option<&QName> {
        match &self.data(id).kind {
            NodeKind::Element { name, .. } => Some(name),
            _ => None,
        }
    }

    /// Local part of the element name, or `None` for non-elements.
    pub fn local_name(&self, id: NodeId) -> Option<&str> {
        self.name(id).map(|q| q.local())
    }

    /// Text of a text node, or `None` for other kinds.
    pub fn text(&self, id: NodeId) -> Option<&str> {
        match &self.data(id).kind {
            NodeKind::Text(t) => Some(t),
            _ => None,
        }
    }

    /// Attributes of an element (empty slice for non-elements).
    pub fn attributes(&self, id: NodeId) -> &[Attribute] {
        match &self.data(id).kind {
            NodeKind::Element { attributes, .. } => attributes,
            _ => &[],
        }
    }

    /// Value of the attribute whose full name (as written) is `name`.
    pub fn attr(&self, id: NodeId, name: &str) -> Option<&str> {
        self.attributes(id).iter().find(|a| a.name.to_string() == name).map(|a| a.value.as_str())
    }

    /// Value of the first attribute whose *local* name is `local`,
    /// regardless of prefix.
    pub fn attr_local(&self, id: NodeId, local: &str) -> Option<&str> {
        self.attributes(id).iter().find(|a| a.name.local() == local).map(|a| a.value.as_str())
    }

    /// Sets (or replaces) an attribute on an element. Only elements
    /// carry attributes: on any other node this does nothing.
    pub fn set_attr(&mut self, id: NodeId, name: QName, value: impl Into<String>) {
        let NodeKind::Element { attributes, .. } = &mut self.data_mut(id).kind else { return };
        let value = value.into();
        if let Some(a) = attributes.iter_mut().find(|a| a.name == name) {
            a.value = value;
        } else {
            attributes.push(Attribute { name, value });
        }
    }

    /// Removes an attribute by full name, returning its value if present.
    pub fn remove_attr(&mut self, id: NodeId, name: &str) -> Option<String> {
        match &mut self.data_mut(id).kind {
            NodeKind::Element { attributes, .. } => {
                let i = attributes.iter().position(|a| a.name.to_string() == name)?;
                Some(attributes.remove(i).value)
            }
            _ => None,
        }
    }

    /// Children of `id` in document order.
    pub fn children(&self, id: NodeId) -> &[NodeId] {
        &self.data(id).children
    }

    /// Child elements of `id` in document order.
    pub fn child_elements(&self, id: NodeId) -> impl Iterator<Item = NodeId> + '_ {
        self.data(id).children.iter().copied().filter(move |&c| self.is_element(c))
    }

    /// First child element with the given local name.
    pub fn child_named(&self, id: NodeId, local: &str) -> Option<NodeId> {
        self.child_elements(id).find(|&c| self.local_name(c) == Some(local))
    }

    /// All child elements with the given local name.
    pub fn children_named<'a>(
        &'a self,
        id: NodeId,
        local: &'a str,
    ) -> impl Iterator<Item = NodeId> + 'a {
        self.child_elements(id).filter(move |&c| self.local_name(c) == Some(local))
    }

    /// Parent of `id`, or `None` for the root and detached nodes.
    pub fn parent(&self, id: NodeId) -> Option<NodeId> {
        self.data(id).parent
    }

    /// Concatenation of all descendant text nodes, in document order.
    pub fn text_content(&self, id: NodeId) -> String {
        let mut out = String::new();
        self.collect_text(id, &mut out);
        out
    }

    fn collect_text(&self, id: NodeId, out: &mut String) {
        match &self.data(id).kind {
            NodeKind::Text(t) => out.push_str(t),
            _ => {
                for &c in &self.data(id).children {
                    self.collect_text(c, out);
                }
            }
        }
    }

    /// All descendants of `id` (excluding `id`) in document order.
    pub fn descendants(&self, id: NodeId) -> Vec<NodeId> {
        let mut out = Vec::new();
        self.push_descendants(id, &mut out);
        out
    }

    fn push_descendants(&self, id: NodeId, out: &mut Vec<NodeId>) {
        for &c in &self.data(id).children {
            out.push(c);
            self.push_descendants(c, out);
        }
    }

    /// Creates a detached element node.
    pub fn create_element(&mut self, name: QName) -> NodeId {
        self.push_node(NodeKind::Element { name, attributes: Vec::new() })
    }

    /// Creates a detached text node.
    pub fn create_text(&mut self, text: impl Into<String>) -> NodeId {
        self.push_node(NodeKind::Text(text.into()))
    }

    /// Creates a detached comment node.
    pub fn create_comment(&mut self, text: impl Into<String>) -> NodeId {
        self.push_node(NodeKind::Comment(text.into()))
    }

    /// Creates a detached processing-instruction node.
    pub fn create_pi(&mut self, target: impl Into<String>, data: impl Into<String>) -> NodeId {
        self.push_node(NodeKind::ProcessingInstruction {
            target: target.into(),
            data: data.into(),
        })
    }

    fn push_node(&mut self, kind: NodeKind) -> NodeId {
        let id = NodeId(self.nodes.len() as u32);
        self.nodes.push(NodeData { parent: None, children: Vec::new(), kind });
        id
    }

    /// Appends `child` (which must be detached) as the last child of
    /// `parent`.
    ///
    /// # Panics
    ///
    /// Panics if `child` already has a parent, if `parent` cannot have
    /// children (text/comment/PI), or if the edge would create a cycle.
    pub fn append_child(&mut self, parent: NodeId, child: NodeId) {
        let container =
            matches!(self.data(parent).kind, NodeKind::Document | NodeKind::Element { .. });
        let misuse = match (self.data(child).parent.is_some(), container, parent == child) {
            (true, _, _) => "node already has a parent",
            (_, false, _) => "parent node cannot have children",
            (_, _, true) => "node cannot be its own child",
            _ => "",
        };
        // panic-ok: `# Panics` unless the child is detached, the parent is the document or an element, and they differ; the parser, `ElementBuilder`, the XSLT engine, forms and the servent each append a node they created or imported a line before to an element or document node they hold
        assert!(misuse.is_empty(), "append_child: {misuse}");
        debug_assert!(
            !self.descendants(child).contains(&parent),
            "appending would create a cycle"
        );
        self.data_mut(parent).children.push(child);
        self.data_mut(child).parent = Some(parent);
    }

    /// Detaches `id` from its parent (no-op if already detached).
    pub fn detach(&mut self, id: NodeId) {
        if let Some(p) = self.data_mut(id).parent.take() {
            self.data_mut(p).children.retain(|&c| c != id);
        }
    }

    /// Recursively copies `node` from `src` into this document, returning
    /// the (detached) copy root.
    pub fn import_subtree(&mut self, src: &Document, node: NodeId) -> NodeId {
        let kind = src.data(node).kind.clone();
        let copy = self.push_node(kind);
        for &c in src.children(node) {
            let cc = self.import_subtree(src, c);
            self.data_mut(cc).parent = Some(copy);
            self.data_mut(copy).children.push(cc);
        }
        copy
    }

    /// Resolves `prefix` (or the default namespace for `None`) to a
    /// namespace URI by walking `xmlns` declarations from `node` upward.
    ///
    /// The `xml` prefix is bound per the XML namespaces spec.
    pub fn namespace_uri(&self, node: NodeId, prefix: Option<&str>) -> Option<String> {
        if prefix == Some("xml") {
            return Some("http://www.w3.org/XML/1998/namespace".to_string());
        }
        let mut cur = Some(node);
        while let Some(n) = cur {
            for a in self.attributes(n) {
                let matches = match prefix {
                    None => a.name.is_unprefixed("xmlns"),
                    Some(p) => a.name.prefix() == Some("xmlns") && a.name.local() == p,
                };
                if matches {
                    if a.value.is_empty() {
                        return None; // explicit un-declaration
                    }
                    return Some(a.value.clone());
                }
            }
            cur = self.parent(n);
        }
        None
    }

    /// Namespace URI of an element, resolved through its own prefix.
    pub fn element_namespace(&self, node: NodeId) -> Option<String> {
        let name = self.name(node)?;
        self.namespace_uri(node, name.prefix())
    }

    /// Compares two nodes by document order (pre-order position).
    ///
    /// Detached nodes order after attached ones.
    pub fn cmp_document_order(&self, a: NodeId, b: NodeId) -> std::cmp::Ordering {
        if a == b {
            return std::cmp::Ordering::Equal;
        }
        let pa = self.root_path(a);
        let pb = self.root_path(b);
        pa.cmp(&pb)
    }

    /// Path of child indices from the root to `id`; used for document-order
    /// comparison. A leading `usize::MAX` marks detached nodes.
    fn root_path(&self, id: NodeId) -> Vec<usize> {
        let mut rev = Vec::new();
        let mut cur = id;
        while let Some(p) = self.parent(cur) {
            let idx = self.children(p).iter().position(|&c| c == cur).unwrap_or(usize::MAX);
            rev.push(idx);
            cur = p;
        }
        if cur != self.root() {
            rev.push(usize::MAX);
        }
        rev.reverse();
        rev
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> (Document, NodeId, NodeId, NodeId) {
        let mut d = Document::new();
        let root = d.create_element(QName::local_only("community"));
        d.append_child(d.root(), root);
        let name = d.create_element(QName::local_only("name"));
        d.append_child(root, name);
        let t = d.create_text("mp3");
        d.append_child(name, t);
        (d, root, name, t)
    }

    #[test]
    fn build_and_navigate() {
        let (d, root, name, t) = sample();
        assert_eq!(d.document_element(), Some(root));
        assert_eq!(d.parent(name), Some(root));
        assert_eq!(d.parent(t), Some(name));
        assert_eq!(d.children(root), &[name]);
        assert_eq!(d.text_content(root), "mp3");
        assert_eq!(d.local_name(root), Some("community"));
    }

    #[test]
    fn attributes_set_get_remove() {
        let (mut d, root, ..) = sample();
        d.set_attr(root, QName::local_only("category"), "music");
        assert_eq!(d.attr(root, "category"), Some("music"));
        d.set_attr(root, QName::local_only("category"), "audio");
        assert_eq!(d.attr(root, "category"), Some("audio"));
        assert_eq!(d.attributes(root).len(), 1);
        assert_eq!(d.remove_attr(root, "category"), Some("audio".into()));
        assert_eq!(d.attr(root, "category"), None);
    }

    #[test]
    fn attr_local_ignores_prefix() {
        let (mut d, root, ..) = sample();
        d.set_attr(root, QName::prefixed("up2p", "searchable"), "true");
        assert_eq!(d.attr_local(root, "searchable"), Some("true"));
        assert_eq!(d.attr(root, "up2p:searchable"), Some("true"));
        assert_eq!(d.attr(root, "searchable"), None);
    }

    #[test]
    fn detach_and_reattach() {
        let (mut d, root, name, _) = sample();
        d.detach(name);
        assert_eq!(d.children(root), &[] as &[NodeId]);
        assert_eq!(d.parent(name), None);
        d.append_child(root, name);
        assert_eq!(d.children(root), &[name]);
    }

    #[test]
    #[should_panic(expected = "already has a parent")]
    fn double_append_panics() {
        let (mut d, root, name, _) = sample();
        d.append_child(root, name);
    }

    #[test]
    fn descendants_in_document_order() {
        let (d, root, name, t) = sample();
        assert_eq!(d.descendants(root), vec![name, t]);
        assert_eq!(d.descendants(d.root()), vec![root, name, t]);
    }

    #[test]
    fn document_order_comparison() {
        let (mut d, root, name, t) = sample();
        let late = d.create_element(QName::local_only("description"));
        d.append_child(root, late);
        use std::cmp::Ordering::*;
        assert_eq!(d.cmp_document_order(root, name), Less);
        assert_eq!(d.cmp_document_order(t, late), Less);
        assert_eq!(d.cmp_document_order(late, root), Greater);
        assert_eq!(d.cmp_document_order(name, name), Equal);
    }

    #[test]
    fn namespace_resolution_walks_ancestors() {
        let mut d = Document::new();
        let root = d.create_element(QName::local_only("schema"));
        d.append_child(d.root(), root);
        d.set_attr(root, QName::local_only("xmlns"), "http://www.w3.org/2001/XMLSchema");
        d.set_attr(root, QName::prefixed("xmlns", "up2p"), "http://up2p.example/ns");
        let child = d.create_element(QName::local_only("element"));
        d.append_child(root, child);
        assert_eq!(
            d.namespace_uri(child, None).as_deref(),
            Some("http://www.w3.org/2001/XMLSchema")
        );
        assert_eq!(d.namespace_uri(child, Some("up2p")).as_deref(), Some("http://up2p.example/ns"));
        assert_eq!(d.namespace_uri(child, Some("zzz")), None);
        assert_eq!(d.element_namespace(child).as_deref(), Some("http://www.w3.org/2001/XMLSchema"));
    }

    #[test]
    fn import_subtree_copies_recursively() {
        let (src, root, ..) = sample();
        let mut dst = Document::new();
        let copy = dst.import_subtree(&src, root);
        dst.append_child(dst.root(), copy);
        assert_eq!(dst.text_content(copy), "mp3");
        assert_eq!(dst.local_name(copy), Some("community"));
        // the copy is independent of the source
        assert_eq!(src.text_content(root), "mp3");
    }

    #[test]
    fn empty_document_reports_empty() {
        let d = Document::new();
        assert!(d.is_empty());
        assert_eq!(d.document_element(), None);
        assert_eq!(d.len(), 1);
    }
}
