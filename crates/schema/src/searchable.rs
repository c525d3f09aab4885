//! Extraction of searchable / indexable fields from a community schema.
//!
//! The paper (§IV-C2) requires schema authors to mark fields as searchable;
//! only those fields appear on generated search forms and in the metadata
//! index. Fig. 3's bootstrap community schema predates the marking
//! convention, so when a schema marks *no* field we default to "all textual
//! leaf fields are searchable" — this keeps the bootstrap community (and
//! other 2002-era schemas) searchable and is recorded as a deviation in
//! DESIGN.md.

use crate::model::{ElementDecl, Particle, Schema, TypeRef};
use crate::types::BuiltinType;
use std::collections::HashSet;

/// A leaf field of a community schema, as used by forms and the index.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Field {
    /// Slash-separated element path from the root element, e.g.
    /// `community/name`.
    pub path: String,
    /// Leaf element name.
    pub name: String,
    /// Base built-in type of the leaf.
    pub base: BuiltinType,
    /// Allowed values when the leaf is an enumeration, else empty.
    pub enumeration: Vec<String>,
    /// Marked `up2p:searchable`.
    pub searchable: bool,
    /// Marked `up2p:attachment`.
    pub attachment: bool,
    /// `minOccurs == 0`.
    pub optional: bool,
    /// `maxOccurs > 1`.
    pub repeated: bool,
}

/// Collects every simple-typed leaf field of the schema's root element,
/// in document order.
pub fn leaf_fields(schema: &Schema) -> Vec<Field> {
    let mut out = Vec::new();
    walk_root(schema, &mut |decl, path, leaf| {
        if let Some((base, enumeration)) = leaf {
            out.push(Field {
                path: path.to_string(),
                name: decl.name.clone(),
                base,
                enumeration: enumeration.to_vec(),
                searchable: decl.searchable,
                attachment: decl.attachment,
                optional: decl.min_occurs == 0,
                repeated: !matches!(decl.max_occurs, crate::model::Occurs::Bounded(0 | 1)),
            });
        }
        true
    });
    out
}

/// Does the root element expand to more than `limit` elements, leaf
/// fields and the complex elements above them alike? Named complex types
/// that each hold several elements of the next one expand like a tree, so
/// a few kilobytes of XSD can name billions of fields; this stops
/// counting at `limit + 1` instead of building them.
pub(crate) fn expands_past(schema: &Schema, limit: usize) -> bool {
    let mut reached = 0;
    walk_root(schema, &mut |_, _, _| {
        reached += 1;
        reached <= limit
    });
    reached > limit
}

/// The fields that should appear on search forms and in the metadata
/// index: those marked searchable, or — when none is marked — every
/// textual leaf.
pub fn searchable_fields(schema: &Schema) -> Vec<Field> {
    let all = leaf_fields(schema);
    let marked: Vec<Field> = all.iter().filter(|f| f.searchable).cloned().collect();
    if !marked.is_empty() {
        return marked;
    }
    all.into_iter().filter(|f| f.base.is_textual()).collect()
}

/// Fields holding attachment URIs (paper §IV-C1: downloaded only when the
/// object is retrieved).
pub fn attachment_fields(schema: &Schema) -> Vec<Field> {
    leaf_fields(schema).into_iter().filter(|f| f.attachment).collect()
}

/// Called with every element the root expands to, in document order: its
/// declaration, its slash-separated path and, for a leaf, its base type
/// and enumeration. Returning `false` stops the walk.
type Visit<'v> = dyn FnMut(&ElementDecl, &str, Option<(BuiltinType, &[String])>) -> bool + 'v;

fn walk_root(schema: &Schema, visit: &mut Visit<'_>) {
    if let Some(root) = schema.root_element() {
        walk_decl(schema, root, &mut root.name.clone(), &mut HashSet::new(), 0, visit);
    }
}

/// `false` once `visit` has stopped the walk.
fn walk_decl(
    schema: &Schema,
    decl: &ElementDecl,
    path: &mut String,
    visited: &mut HashSet<String>,
    depth: usize,
    visit: &mut Visit<'_>,
) -> bool {
    if depth > 16 {
        return true; // recursive schema guard
    }
    let (leaf, body) = match &decl.type_ref {
        TypeRef::Builtin(b) => (Some((*b, &[][..])), None),
        TypeRef::InlineSimple(st) => (Some((st.base, &st.facets.enumeration[..])), None),
        TypeRef::InlineComplex(ct) => (None, ct.particle.as_ref()),
        TypeRef::Named(name) => match schema.simple_type(name) {
            Some(st) => (Some((st.base, &st.facets.enumeration[..])), None),
            None => (None, schema.complex_type(name).and_then(|ct| ct.particle.as_ref())),
        },
    };
    if !visit(decl, path, leaf) {
        return false;
    }
    let Some(body) = body else { return true };
    // a named type already being expanded above this element is skipped
    let named = match &decl.type_ref {
        TypeRef::Named(name) if !visited.insert(name.clone()) => return true,
        TypeRef::Named(name) => Some(name),
        _ => None,
    };
    let go_on = walk_particle(schema, body, path, visited, depth, visit);
    if let Some(name) = named {
        visited.remove(name);
    }
    go_on
}

fn walk_particle(
    schema: &Schema,
    particle: &Particle,
    path: &mut String,
    visited: &mut HashSet<String>,
    depth: usize,
    visit: &mut Visit<'_>,
) -> bool {
    let mut child = |d: &ElementDecl, path: &mut String, visited: &mut HashSet<String>| {
        let len = path.len();
        path.push('/');
        path.push_str(&d.name);
        let go_on = walk_decl(schema, d, path, visited, depth + 1, visit);
        path.truncate(len);
        go_on
    };
    match particle {
        Particle::Element(d) => child(d, path, visited),
        Particle::Sequence { items, .. } | Particle::Choice { items, .. } => {
            items.iter().all(|item| walk_particle(schema, item, path, visited, depth, visit))
        }
        Particle::All { items } => items.iter().all(|d| child(d, path, visited)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_schema_str;

    #[test]
    fn fig3_defaults_to_textual_leaves() {
        let s = parse_schema_str(crate::parser::tests::FIG3).unwrap();
        let leaves = leaf_fields(&s);
        assert_eq!(leaves.len(), 10);
        assert_eq!(leaves[0].path, "community/name");
        let searchable = searchable_fields(&s);
        // anyURI fields are not textual → name, description, keywords,
        // category, security, protocol (protocol is a string enumeration)
        let names: Vec<&str> = searchable.iter().map(|f| f.name.as_str()).collect();
        assert_eq!(
            names,
            vec!["name", "description", "keywords", "category", "security", "protocol"]
        );
        let protocol = searchable.iter().find(|f| f.name == "protocol").unwrap();
        assert_eq!(protocol.enumeration.len(), 4);
    }

    #[test]
    fn explicit_markers_win_over_default() {
        let s = parse_schema_str(
            r#"<schema xmlns="http://www.w3.org/2001/XMLSchema"
                       xmlns:up2p="http://up2p.sce.carleton.ca/ns">
              <element name="song"><complexType><sequence>
                <element name="title" type="xsd:string" up2p:searchable="true"/>
                <element name="lyrics" type="xsd:string"/>
                <element name="data" type="xsd:anyURI" up2p:attachment="true"/>
              </sequence></complexType></element></schema>"#,
        )
        .unwrap();
        let searchable = searchable_fields(&s);
        assert_eq!(searchable.len(), 1);
        assert_eq!(searchable[0].name, "title");
        let atts = attachment_fields(&s);
        assert_eq!(atts.len(), 1);
        assert_eq!(atts[0].name, "data");
    }

    #[test]
    fn nested_paths_accumulate() {
        let s = parse_schema_str(
            r#"<schema xmlns="http://www.w3.org/2001/XMLSchema">
              <element name="pattern"><complexType><sequence>
                <element name="name" type="xsd:string"/>
                <element name="solution"><complexType><sequence>
                  <element name="structure" type="xsd:string"/>
                  <element name="participants" type="xsd:string" maxOccurs="unbounded"/>
                </sequence></complexType></element>
              </sequence></complexType></element></schema>"#,
        )
        .unwrap();
        let leaves = leaf_fields(&s);
        let paths: Vec<&str> = leaves.iter().map(|f| f.path.as_str()).collect();
        assert_eq!(
            paths,
            vec![
                "pattern/name",
                "pattern/solution/structure",
                "pattern/solution/participants"
            ]
        );
        assert!(leaves[2].repeated);
    }

    #[test]
    fn named_complex_types_resolved() {
        let s = parse_schema_str(
            r#"<schema xmlns="http://www.w3.org/2001/XMLSchema">
              <element name="doc" type="docType"/>
              <complexType name="docType"><sequence>
                <element name="title" type="xsd:string"/>
              </sequence></complexType>
            </schema>"#,
        )
        .unwrap();
        let leaves = leaf_fields(&s);
        assert_eq!(leaves.len(), 1);
        assert_eq!(leaves[0].path, "doc/title");
    }

    #[test]
    fn recursive_schema_terminates() {
        let s = parse_schema_str(
            r#"<schema xmlns="http://www.w3.org/2001/XMLSchema">
              <element name="node" type="nodeType"/>
              <complexType name="nodeType"><sequence>
                <element name="label" type="xsd:string"/>
                <element name="child" type="nodeType" minOccurs="0"/>
              </sequence></complexType>
            </schema>"#,
        )
        .unwrap();
        let leaves = leaf_fields(&s); // must terminate
        assert!(leaves.iter().any(|f| f.path == "node/label"));
    }
}
