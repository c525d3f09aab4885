//! Parsing XSD documents into the [`Schema`] model.
//!
//! Tolerances matching the paper's usage: schema elements are recognized by
//! local name when their namespace is the XSD namespace *or* unresolvable
//! (Fig. 3 of the paper declares `xmlns="...XMLSchema"` but uses the
//! undeclared `xsd:` prefix in `type` attributes — real-world schemas from
//! 2002 are sloppy, so `xs`/`xsd` prefixes fall back to built-ins).

use crate::error::ParseSchemaError;
use crate::model::{
    AttributeDecl, ComplexType, ElementDecl, Facets, Occurs, Particle, Schema, SimpleTypeDef,
    TypeRef,
};
use crate::regex::Regex;
use crate::types::BuiltinType;
use up2p_xml::{Document, NodeId, XSD_NS};

/// Parses an XSD document into a [`Schema`].
///
/// # Errors
///
/// Returns [`ParseSchemaError`] when the document is not a schema, when
/// declarations are missing required attributes, when facet values are
/// malformed, or when the root element expands to more than 1 024
/// elements.
pub fn parse_schema(doc: &Document) -> Result<Schema, ParseSchemaError> {
    let root = doc
        .document_element()
        .ok_or_else(|| ParseSchemaError::new("document has no root element"))?;
    if doc.local_name(root) != Some("schema") {
        return Err(ParseSchemaError::new(format!(
            "root element is <{}>, expected <schema>",
            doc.local_name(root).unwrap_or("?")
        )));
    }
    let mut schema = Schema {
        target_namespace: doc.attr(root, "targetNamespace").map(str::to_string),
        ..Schema::default()
    };
    for child in doc.child_elements(root) {
        match doc.local_name(child) {
            Some("element") => {
                let decl = parse_element_decl(doc, child)?;
                schema.root_elements.push(decl);
            }
            Some("simpleType") => {
                let name = required_attr(doc, child, "name")?;
                let def = parse_simple_type_body(doc, child)?;
                schema.simple_types.insert(name, def);
            }
            Some("complexType") => {
                let name = required_attr(doc, child, "name")?;
                let def = parse_complex_type_body(doc, child)?;
                schema.complex_types.insert(name, def);
            }
            Some("annotation") | Some("import") | Some("include") | None => {}
            Some(other) => {
                return Err(ParseSchemaError::new(format!(
                    "unsupported top-level schema construct <{other}>"
                )))
            }
        }
    }
    if schema.root_elements.is_empty() {
        return Err(ParseSchemaError::new("schema declares no global element"));
    }
    if crate::searchable::expands_past(&schema, MAX_FIELDS) {
        return Err(ParseSchemaError::new(format!(
            "root element expands to more than {MAX_FIELDS} elements"
        )));
    }
    Ok(schema)
}

/// How many elements — leaf fields and the complex elements above them —
/// a parsed schema's root element may expand to. A downloaded schema is
/// walked for its fields on every derive, so it must not choose how long
/// that takes; the largest committed schema (E2's) has 64 fields.
const MAX_FIELDS: usize = 1024;

/// Parses an XSD document from text.
///
/// # Errors
///
/// Returns [`ParseSchemaError`] for XML syntax errors as well as schema
/// construct errors.
pub fn parse_schema_str(xsd: &str) -> Result<Schema, ParseSchemaError> {
    let doc = Document::parse(xsd)
        .map_err(|e| ParseSchemaError::new(format!("invalid schema XML: {e}")))?;
    parse_schema(&doc)
}

fn required_attr(doc: &Document, node: NodeId, name: &str) -> Result<String, ParseSchemaError> {
    doc.attr(node, name).map(str::to_string).ok_or_else(|| {
        ParseSchemaError::new(format!(
            "<{}> missing required attribute {name:?}",
            doc.local_name(node).unwrap_or("?")
        ))
    })
}

fn parse_occurs(
    doc: &Document,
    node: NodeId,
) -> Result<(u32, Occurs), ParseSchemaError> {
    let min = match doc.attr(node, "minOccurs") {
        None => 1,
        Some(v) => v
            .parse::<u32>()
            .map_err(|_| ParseSchemaError::new(format!("invalid minOccurs {v:?}")))?,
    };
    let max = match doc.attr(node, "maxOccurs") {
        None => Occurs::Bounded(1),
        Some("unbounded") => Occurs::Unbounded,
        Some(v) => Occurs::Bounded(
            v.parse::<u32>()
                .map_err(|_| ParseSchemaError::new(format!("invalid maxOccurs {v:?}")))?,
        ),
    };
    if let Occurs::Bounded(m) = max {
        if m < min {
            return Err(ParseSchemaError::new(format!(
                "maxOccurs {m} below minOccurs {min}"
            )));
        }
    }
    Ok((min, max))
}

fn bool_attr(doc: &Document, node: NodeId, local: &str) -> bool {
    doc.attributes(node)
        .iter()
        .any(|a| a.name.local() == local && matches!(a.value.as_str(), "true" | "1"))
}

/// `type="xsd:string"` / `type="protocolTypes"` resolution.
fn resolve_type_name(
    doc: &Document,
    node: NodeId,
    value: &str,
) -> Result<TypeRef, ParseSchemaError> {
    let (prefix, local) = match value.split_once(':') {
        Some((p, l)) => (Some(p), l),
        None => (None, value),
    };
    if let Some(p) = prefix {
        let is_xsd = doc.namespace_uri(node, Some(p)).as_deref() == Some(XSD_NS)
            || matches!(p, "xs" | "xsd");
        if is_xsd {
            return BuiltinType::from_name(local)
                .map(TypeRef::Builtin)
                .ok_or_else(|| {
                    ParseSchemaError::new(format!("unknown built-in type {value:?}"))
                });
        }
        return Ok(TypeRef::Named(local.to_string()));
    }
    // Unprefixed names: built-in when the name is one (Fig. 3 writes
    // base="string" under a default XSD namespace), otherwise a reference
    // to a schema-local named type (Fig. 3's type="protocolTypes").
    if let Some(b) = BuiltinType::from_name(local) {
        return Ok(TypeRef::Builtin(b));
    }
    Ok(TypeRef::Named(local.to_string()))
}

fn parse_element_decl(doc: &Document, node: NodeId) -> Result<ElementDecl, ParseSchemaError> {
    let name = required_attr(doc, node, "name")?;
    let (min_occurs, max_occurs) = parse_occurs(doc, node)?;
    let searchable = bool_attr(doc, node, "searchable") || has_appinfo(doc, node, "searchable");
    let attachment = bool_attr(doc, node, "attachment") || has_appinfo(doc, node, "attachment");

    let type_ref = if let Some(t) = doc.attr(node, "type") {
        resolve_type_name(doc, node, t)?
    } else if let Some(ct) = doc.child_named(node, "complexType") {
        TypeRef::InlineComplex(Box::new(parse_complex_type_body(doc, ct)?))
    } else if let Some(st) = doc.child_named(node, "simpleType") {
        TypeRef::InlineSimple(Box::new(parse_simple_type_body(doc, st)?))
    } else {
        // elements with neither type nor inline definition: xsd:string
        TypeRef::Builtin(BuiltinType::String)
    };

    Ok(ElementDecl { name, type_ref, min_occurs, max_occurs, searchable, attachment })
}

fn has_appinfo(doc: &Document, node: NodeId, marker: &str) -> bool {
    doc.children_named(node, "annotation").any(|ann| {
        doc.children_named(ann, "appinfo")
            .any(|ai| doc.text_content(ai).split_whitespace().any(|w| w == marker))
    })
}

fn parse_complex_type_body(
    doc: &Document,
    node: NodeId,
) -> Result<ComplexType, ParseSchemaError> {
    let mut ct = ComplexType { mixed: bool_attr(doc, node, "mixed"), ..ComplexType::default() };
    for child in doc.child_elements(node) {
        match doc.local_name(child) {
            Some("sequence") | Some("choice") => {
                ct.particle = Some(parse_group(doc, child)?);
            }
            Some("all") => {
                let mut items = Vec::new();
                for el in doc.children_named(child, "element") {
                    items.push(parse_element_decl(doc, el)?);
                }
                ct.particle = Some(Particle::All { items });
            }
            Some("attribute") => {
                ct.attributes.push(parse_attribute_decl(doc, child)?);
            }
            Some("annotation") | None => {}
            Some(other) => {
                return Err(ParseSchemaError::new(format!(
                    "unsupported complexType construct <{other}>"
                )))
            }
        }
    }
    Ok(ct)
}

fn parse_group(doc: &Document, node: NodeId) -> Result<Particle, ParseSchemaError> {
    let (min_occurs, max_occurs) = parse_occurs(doc, node)?;
    let mut items = Vec::new();
    for child in doc.child_elements(node) {
        match doc.local_name(child) {
            Some("element") => items.push(Particle::Element(parse_element_decl(doc, child)?)),
            Some("sequence") | Some("choice") => items.push(parse_group(doc, child)?),
            Some("annotation") | None => {}
            Some(other) => {
                return Err(ParseSchemaError::new(format!(
                    "unsupported group construct <{other}>"
                )))
            }
        }
    }
    Ok(match doc.local_name(node) {
        Some("sequence") => Particle::Sequence { items, min_occurs, max_occurs },
        _ => Particle::Choice { items, min_occurs, max_occurs },
    })
}

fn parse_attribute_decl(
    doc: &Document,
    node: NodeId,
) -> Result<AttributeDecl, ParseSchemaError> {
    let name = required_attr(doc, node, "name")?;
    let required = doc.attr(node, "use") == Some("required");
    let simple_type = if let Some(t) = doc.attr(node, "type") {
        // attribute types must be simple, and a named one would only
        // resolve at validation
        let TypeRef::Builtin(b) = resolve_type_name(doc, node, t)? else {
            return Err(ParseSchemaError::new(format!(
                "attribute {name:?} references named type {t:?}; only built-in attribute types are supported"
            )));
        };
        SimpleTypeDef::plain(b)
    } else if let Some(st) = doc.child_named(node, "simpleType") {
        parse_simple_type_body(doc, st)?
    } else {
        SimpleTypeDef::plain(BuiltinType::String)
    };
    Ok(AttributeDecl { name, simple_type, required })
}

fn parse_simple_type_body(
    doc: &Document,
    node: NodeId,
) -> Result<SimpleTypeDef, ParseSchemaError> {
    let restriction = doc
        .child_named(node, "restriction")
        .ok_or_else(|| ParseSchemaError::new("simpleType without <restriction>"))?;
    let base_name = required_attr(doc, restriction, "base")?;
    let base = match resolve_type_name(doc, restriction, &base_name)? {
        TypeRef::Builtin(b) => Some(b),
        // a built-in's name under a prefix the document binds elsewhere
        TypeRef::Named(n) => BuiltinType::from_name(&n),
        TypeRef::InlineSimple(_) | TypeRef::InlineComplex(_) => None,
    }
    .ok_or_else(|| {
        ParseSchemaError::new(format!("restriction base {base_name:?} is not a built-in type"))
    })?;
    let mut facets = Facets::default();
    for facet in doc.child_elements(restriction) {
        let value = doc.attr(facet, "value").unwrap_or_default().to_string();
        match doc.local_name(facet) {
            Some("enumeration") => facets.enumeration.push(value),
            Some("pattern") => {
                facets.pattern = Some(Regex::parse(&value).map_err(|e| {
                    ParseSchemaError::new(format!("invalid pattern facet: {e}"))
                })?)
            }
            Some("length") => facets.length = Some(parse_usize(&value)?),
            Some("minLength") => facets.min_length = Some(parse_usize(&value)?),
            Some("maxLength") => facets.max_length = Some(parse_usize(&value)?),
            Some("minInclusive") => facets.min_inclusive = Some(parse_f64(&value)?),
            Some("maxInclusive") => facets.max_inclusive = Some(parse_f64(&value)?),
            Some("minExclusive") => facets.min_exclusive = Some(parse_f64(&value)?),
            Some("maxExclusive") => facets.max_exclusive = Some(parse_f64(&value)?),
            Some("annotation") | None => {}
            Some(other) => {
                return Err(ParseSchemaError::new(format!("unsupported facet <{other}>")))
            }
        }
    }
    Ok(SimpleTypeDef { base, facets })
}

fn parse_usize(v: &str) -> Result<usize, ParseSchemaError> {
    v.parse().map_err(|_| ParseSchemaError::new(format!("invalid length facet {v:?}")))
}

fn parse_f64(v: &str) -> Result<f64, ParseSchemaError> {
    v.parse().map_err(|_| ParseSchemaError::new(format!("invalid numeric facet {v:?}")))
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;

    /// The element declarations of a complex type's flat sequence.
    fn sequence_decls(ct: &ComplexType) -> Vec<&ElementDecl> {
        let Some(Particle::Sequence { items, .. }) = &ct.particle else {
            panic!("expected a sequence: {:?}", ct.particle)
        };
        items
            .iter()
            .map(|p| match p {
                Particle::Element(d) => d,
                other => panic!("expected an element: {other:?}"),
            })
            .collect()
    }

    /// The community schema of Fig. 3, verbatim from the paper.
    pub const FIG3: &str = r#"<?xml version="1.0"?>
<schema xmlns="http://www.w3.org/2001/XMLSchema">
 <element name="community">
  <complexType>
   <sequence>
    <element name="name" type="xsd:string"/>
    <element name="description" type="xsd:string"/>
    <element name="keywords" type="xsd:string"/>
    <element name="category" type="xsd:string"/>
    <element name="security" type="xsd:string"/>
    <element name="protocol" type="protocolTypes"/>
    <element name="schema" type="xsd:anyURI"/>
    <element name="displaystyle" type="xsd:anyURI"/>
    <element name="createstyle" type="xsd:anyURI"/>
    <element name="searchstyle" type="xsd:anyURI"/>
   </sequence>
  </complexType>
 </element>
 <simpleType name="protocolTypes">
  <restriction base="string">
   <enumeration value=""/>
   <enumeration value="Napster"/>
   <enumeration value="Gnutella"/>
   <enumeration value="FastTrack"/>
  </restriction>
 </simpleType>
</schema>"#;

    #[test]
    fn parses_fig3_community_schema() {
        let s = parse_schema_str(FIG3).unwrap();
        let root = s.root_element().unwrap();
        assert_eq!(root.name, "community");
        let TypeRef::InlineComplex(ct) = &root.type_ref else {
            panic!("expected inline complex type")
        };
        let decls = sequence_decls(ct);
        assert_eq!(decls.len(), 10);
        assert_eq!(decls[0].name, "name");
        assert_eq!(decls[5].name, "protocol");
        assert!(matches!(decls[5].type_ref, TypeRef::Named(ref n) if n == "protocolTypes"));
        assert!(matches!(decls[6].type_ref, TypeRef::Builtin(BuiltinType::AnyUri)));
        let proto = s.simple_type("protocolTypes").unwrap();
        assert_eq!(proto.base, BuiltinType::String);
        assert_eq!(
            proto.facets.enumeration,
            vec!["", "Napster", "Gnutella", "FastTrack"]
        );
    }

    #[test]
    fn occurs_bounds_parse() {
        let s = parse_schema_str(
            r#"<schema xmlns="http://www.w3.org/2001/XMLSchema">
              <element name="list">
                <complexType><sequence>
                  <element name="item" type="xsd:string" minOccurs="0" maxOccurs="unbounded"/>
                  <element name="tail" type="xsd:string" minOccurs="2" maxOccurs="3"/>
                </sequence></complexType>
              </element>
            </schema>"#,
        )
        .unwrap();
        let root = s.root_element().unwrap();
        let TypeRef::InlineComplex(ct) = &root.type_ref else { panic!() };
        let decls = sequence_decls(ct);
        assert_eq!(decls[0].min_occurs, 0);
        assert_eq!(decls[0].max_occurs, Occurs::Unbounded);
        assert_eq!(decls[1].min_occurs, 2);
        assert_eq!(decls[1].max_occurs, Occurs::Bounded(3));
    }

    #[test]
    fn searchable_markers_via_attribute_and_appinfo() {
        let s = parse_schema_str(
            r#"<schema xmlns="http://www.w3.org/2001/XMLSchema"
                      xmlns:up2p="http://up2p.sce.carleton.ca/ns">
              <element name="song">
                <complexType><sequence>
                  <element name="title" type="xsd:string" up2p:searchable="true"/>
                  <element name="artist" type="xsd:string">
                    <annotation><appinfo>searchable</appinfo></annotation>
                  </element>
                  <element name="data" type="xsd:anyURI" up2p:attachment="true"/>
                </sequence></complexType>
              </element>
            </schema>"#,
        )
        .unwrap();
        let TypeRef::InlineComplex(ct) = &s.root_element().unwrap().type_ref else { panic!() };
        let decls = sequence_decls(ct);
        assert!(decls[0].searchable);
        assert!(decls[1].searchable);
        assert!(!decls[2].searchable);
        assert!(decls[2].attachment);
    }

    #[test]
    fn nested_choice_inside_sequence() {
        let s = parse_schema_str(
            r#"<schema xmlns="http://www.w3.org/2001/XMLSchema">
              <element name="media">
                <complexType><sequence>
                  <element name="title" type="xsd:string"/>
                  <choice>
                    <element name="audio" type="xsd:anyURI"/>
                    <element name="video" type="xsd:anyURI"/>
                  </choice>
                </sequence></complexType>
              </element>
            </schema>"#,
        )
        .unwrap();
        let TypeRef::InlineComplex(ct) = &s.root_element().unwrap().type_ref else { panic!() };
        let Particle::Sequence { items, .. } = ct.particle.as_ref().unwrap() else { panic!() };
        assert_eq!(items.len(), 2);
        assert!(matches!(items[1], Particle::Choice { .. }));
    }

    #[test]
    fn xs_all_group() {
        let s = parse_schema_str(
            r#"<xs:schema xmlns:xs="http://www.w3.org/2001/XMLSchema">
              <xs:element name="card">
                <xs:complexType><xs:all>
                  <xs:element name="front" type="xs:string"/>
                  <xs:element name="back" type="xs:string"/>
                </xs:all></xs:complexType>
              </xs:element>
            </xs:schema>"#,
        )
        .unwrap();
        let TypeRef::InlineComplex(ct) = &s.root_element().unwrap().type_ref else { panic!() };
        assert!(matches!(ct.particle.as_ref().unwrap(), Particle::All { items } if items.len() == 2));
    }

    #[test]
    fn attributes_with_use_required() {
        let s = parse_schema_str(
            r#"<schema xmlns="http://www.w3.org/2001/XMLSchema">
              <element name="pattern">
                <complexType>
                  <sequence><element name="name" type="xsd:string"/></sequence>
                  <attribute name="lang" type="xsd:string" use="required"/>
                  <attribute name="version" type="xsd:integer"/>
                </complexType>
              </element>
            </schema>"#,
        )
        .unwrap();
        let TypeRef::InlineComplex(ct) = &s.root_element().unwrap().type_ref else { panic!() };
        assert_eq!(ct.attributes.len(), 2);
        assert!(ct.attributes[0].required);
        assert!(!ct.attributes[1].required);
        assert_eq!(ct.attributes[1].simple_type.base, BuiltinType::Integer);
    }

    #[test]
    fn errors_on_non_schema_document() {
        assert!(parse_schema_str("<community/>").is_err());
    }

    #[test]
    fn errors_on_missing_name() {
        let e = parse_schema_str(
            r#"<schema xmlns="http://www.w3.org/2001/XMLSchema"><element type="xsd:string"/></schema>"#,
        )
        .unwrap_err();
        assert!(e.message().contains("name"));
    }

    #[test]
    fn errors_on_unknown_builtin() {
        let e = parse_schema_str(
            r#"<schema xmlns="http://www.w3.org/2001/XMLSchema">
               <element name="x" type="xsd:frobnicate"/></schema>"#,
        )
        .unwrap_err();
        assert!(e.message().contains("frobnicate"));
    }

    /// A schema whose named types each hold four elements of the next one:
    /// `levels` levels name 4^levels leaf fields in a few kilobytes.
    fn fan_out_xsd(levels: usize) -> String {
        let mut xsd = String::from(
            r#"<schema xmlns="http://www.w3.org/2001/XMLSchema"><element name="r" type="t0"/>"#,
        );
        for l in 0..levels {
            xsd += &format!(r#"<complexType name="t{l}"><sequence>"#);
            for i in 0..4 {
                xsd += &format!(r#"<element name="e{i}" type="t{}"/>"#, l + 1);
            }
            xsd += "</sequence></complexType>";
        }
        xsd += &format!(r#"<simpleType name="t{levels}"><restriction base="string"/></simpleType>"#);
        xsd + "</schema>"
    }

    #[test]
    fn fan_out_past_max_fields_fails_fast() {
        // 4 levels: 256 fields under 85 complex elements
        let s = parse_schema_str(&fan_out_xsd(4)).unwrap();
        assert_eq!(crate::leaf_fields(&s).len(), 256);
        // 12 levels: 16 777 216 fields, seconds to walk, never walked
        let xsd = fan_out_xsd(12);
        assert!(xsd.len() < 3_000, "{} bytes", xsd.len());
        let started = std::time::Instant::now();
        let e = parse_schema_str(&xsd).unwrap_err();
        assert!(e.message().contains(&MAX_FIELDS.to_string()), "{e}");
        assert!(started.elapsed() < std::time::Duration::from_secs(1), "{:?}", started.elapsed());
    }

    #[test]
    fn errors_on_empty_schema() {
        assert!(parse_schema_str(r#"<schema xmlns="http://www.w3.org/2001/XMLSchema"/>"#).is_err());
    }

    #[test]
    fn errors_on_bad_occurs() {
        let e = parse_schema_str(
            r#"<schema xmlns="http://www.w3.org/2001/XMLSchema">
              <element name="l"><complexType><sequence>
                <element name="i" type="xsd:string" minOccurs="3" maxOccurs="2"/>
              </sequence></complexType></element></schema>"#,
        )
        .unwrap_err();
        assert!(e.message().contains("maxOccurs"));
    }

    #[test]
    fn untyped_element_defaults_to_string() {
        let s = parse_schema_str(
            r#"<schema xmlns="http://www.w3.org/2001/XMLSchema"><element name="note"/></schema>"#,
        )
        .unwrap();
        assert!(matches!(
            s.root_element().unwrap().type_ref,
            TypeRef::Builtin(BuiltinType::String)
        ));
    }

    #[test]
    fn facets_parse() {
        let s = parse_schema_str(
            r#"<schema xmlns="http://www.w3.org/2001/XMLSchema">
              <element name="x" type="year"/>
              <simpleType name="year">
                <restriction base="integer">
                  <minInclusive value="1970"/>
                  <maxInclusive value="2030"/>
                  <pattern value="\d{4}"/>
                </restriction>
              </simpleType>
            </schema>"#,
        )
        .unwrap();
        let t = s.simple_type("year").unwrap();
        assert_eq!(t.facets.min_inclusive, Some(1970.0));
        assert_eq!(t.facets.max_inclusive, Some(2030.0));
        assert!(t.facets.pattern.is_some());
        assert!(t.check("2002").is_ok());
        assert!(t.check("1802").is_err());
    }
}
