//! Object model for the XML Schema subset.
//!
//! A [`Schema`] holds global element declarations plus named simple and
//! complex types. Content models are [`Particle`] trees (sequence/choice
//! with occurrence bounds); simple types are a built-in base plus
//! [`Facets`].

use crate::regex::Regex;
use crate::types::BuiltinType;
use std::collections::BTreeMap;
use std::fmt;

/// Maximum-occurrence bound of a particle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Occurs {
    /// At most this many times.
    Bounded(u32),
    /// `maxOccurs="unbounded"`.
    Unbounded,
}

impl Occurs {
    /// Does `n` repetitions satisfy this bound?
    pub fn allows(self, n: u32) -> bool {
        match self {
            Occurs::Bounded(m) => n <= m,
            Occurs::Unbounded => true,
        }
    }
}

impl fmt::Display for Occurs {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Occurs::Bounded(n) => write!(f, "{n}"),
            Occurs::Unbounded => write!(f, "unbounded"),
        }
    }
}

/// Reference to the type of an element or attribute.
#[derive(Debug, Clone, PartialEq)]
pub enum TypeRef {
    /// One of the XSD built-ins (`xsd:string`, ...).
    Builtin(BuiltinType),
    /// A named type defined in the same schema (simple or complex —
    /// resolved at validation time).
    Named(String),
    /// An anonymous inline simple type.
    InlineSimple(Box<SimpleTypeDef>),
    /// An anonymous inline complex type.
    InlineComplex(Box<ComplexType>),
}

/// Restriction facets on a simple type.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Facets {
    /// Allowed values; empty = no enumeration constraint.
    pub enumeration: Vec<String>,
    /// Anchored pattern the value must match.
    pub pattern: Option<Regex>,
    /// Exact length in characters.
    pub length: Option<usize>,
    /// Minimum length in characters.
    pub min_length: Option<usize>,
    /// Maximum length in characters.
    pub max_length: Option<usize>,
    /// Numeric lower bound (inclusive).
    pub min_inclusive: Option<f64>,
    /// Numeric upper bound (inclusive).
    pub max_inclusive: Option<f64>,
    /// Numeric lower bound (exclusive).
    pub min_exclusive: Option<f64>,
    /// Numeric upper bound (exclusive).
    pub max_exclusive: Option<f64>,
}

impl Facets {
    /// `true` when no facet is set.
    pub fn is_empty(&self) -> bool {
        self == &Facets::default()
    }

    /// Checks `value` against every facet; returns the name of the first
    /// violated facet.
    pub fn check(&self, value: &str) -> Result<(), String> {
        if !self.enumeration.is_empty() && !self.enumeration.iter().any(|e| e == value) {
            return Err("enumeration".to_string());
        }
        if let Some(re) = &self.pattern {
            if !re.is_match(value) {
                return Err(format!("pattern {}", re.source()));
            }
        }
        let chars = value.chars().count();
        if let Some(l) = self.length {
            if chars != l {
                return Err(format!("length {l}"));
            }
        }
        if let Some(l) = self.min_length {
            if chars < l {
                return Err(format!("minLength {l}"));
            }
        }
        if let Some(l) = self.max_length {
            if chars > l {
                return Err(format!("maxLength {l}"));
            }
        }
        if self.min_inclusive.is_some()
            || self.max_inclusive.is_some()
            || self.min_exclusive.is_some()
            || self.max_exclusive.is_some()
        {
            let n: f64 = value.trim().parse().map_err(|_| "numeric facet".to_string())?;
            if let Some(b) = self.min_inclusive {
                if n < b {
                    return Err(format!("minInclusive {b}"));
                }
            }
            if let Some(b) = self.max_inclusive {
                if n > b {
                    return Err(format!("maxInclusive {b}"));
                }
            }
            if let Some(b) = self.min_exclusive {
                if n <= b {
                    return Err(format!("minExclusive {b}"));
                }
            }
            if let Some(b) = self.max_exclusive {
                if n >= b {
                    return Err(format!("maxExclusive {b}"));
                }
            }
        }
        Ok(())
    }
}

/// A simple type: a built-in base restricted by facets.
#[derive(Debug, Clone, PartialEq)]
pub struct SimpleTypeDef {
    /// The base built-in type.
    pub base: BuiltinType,
    /// Restriction facets.
    pub facets: Facets,
}

impl SimpleTypeDef {
    /// An unrestricted simple type over `base`.
    pub fn plain(base: BuiltinType) -> Self {
        SimpleTypeDef { base, facets: Facets::default() }
    }

    /// Full check of a value: base type then facets. Returns the violated
    /// constraint name on failure.
    pub fn check(&self, value: &str) -> Result<(), String> {
        if !self.base.is_valid(value) {
            return Err(self.base.to_string());
        }
        self.facets.check(value)
    }
}

/// An element declaration.
#[derive(Debug, Clone, PartialEq)]
pub struct ElementDecl {
    /// Element name (NCName; U-P2P communities use unqualified locals).
    pub name: String,
    /// Declared type.
    pub type_ref: TypeRef,
    /// Minimum occurrences (default 1).
    pub min_occurs: u32,
    /// Maximum occurrences (default 1).
    pub max_occurs: Occurs,
    /// `up2p:searchable` — field is extracted into the metadata index and
    /// appears on generated search forms (paper §IV-C2).
    pub searchable: bool,
    /// `up2p:attachment` — field holds a URI naming a network-retrievable
    /// attachment (paper §IV-C1).
    pub attachment: bool,
}

impl ElementDecl {
    /// A mandatory single-occurrence element of the given type.
    pub fn new(name: impl Into<String>, type_ref: TypeRef) -> Self {
        ElementDecl {
            name: name.into(),
            type_ref,
            min_occurs: 1,
            max_occurs: Occurs::Bounded(1),
            searchable: false,
            attachment: false,
        }
    }
}

/// An attribute declaration on a complex type.
#[derive(Debug, Clone, PartialEq)]
pub struct AttributeDecl {
    /// Attribute name.
    pub name: String,
    /// Declared simple type.
    pub simple_type: SimpleTypeDef,
    /// `use="required"`.
    pub required: bool,
}

/// Content-model particle.
#[derive(Debug, Clone, PartialEq)]
pub enum Particle {
    /// A single element declaration (occurrence bounds live on the decl).
    Element(ElementDecl),
    /// Ordered group.
    Sequence {
        /// Group members in order.
        items: Vec<Particle>,
        /// Group minimum occurrences.
        min_occurs: u32,
        /// Group maximum occurrences.
        max_occurs: Occurs,
    },
    /// Exclusive-or group.
    Choice {
        /// Alternatives.
        items: Vec<Particle>,
        /// Group minimum occurrences.
        min_occurs: u32,
        /// Group maximum occurrences.
        max_occurs: Occurs,
    },
    /// Unordered group (`xs:all`): each member element at most once, in any
    /// order.
    All {
        /// Member element declarations.
        items: Vec<ElementDecl>,
    },
}

/// A complex type: an optional content particle plus attributes.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct ComplexType {
    /// Content model; `None` = empty content.
    pub particle: Option<Particle>,
    /// Declared attributes.
    pub attributes: Vec<AttributeDecl>,
    /// `mixed="true"` — character data allowed between child elements.
    pub mixed: bool,
}

/// A parsed schema: global element declarations plus named types.
///
/// Use [`crate::parse_schema`] to obtain one from an XSD document and
/// [`crate::Validator`] to validate instances.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Schema {
    /// `targetNamespace`, when declared.
    pub target_namespace: Option<String>,
    /// Global element declarations, in document order.
    pub root_elements: Vec<ElementDecl>,
    /// Named simple types.
    pub simple_types: BTreeMap<String, SimpleTypeDef>,
    /// Named complex types.
    pub complex_types: BTreeMap<String, ComplexType>,
}

impl Schema {
    /// The first global element declaration — the document element of
    /// instances. U-P2P community schemas declare exactly one.
    pub fn root_element(&self) -> Option<&ElementDecl> {
        self.root_elements.first()
    }

    /// Looks up a global element declaration by name.
    pub fn root_element_named(&self, name: &str) -> Option<&ElementDecl> {
        self.root_elements.iter().find(|e| e.name == name)
    }

    /// Resolves a named type to a simple type, if it is one.
    pub fn simple_type(&self, name: &str) -> Option<&SimpleTypeDef> {
        self.simple_types.get(name)
    }

    /// Resolves a named type to a complex type, if it is one.
    pub fn complex_type(&self, name: &str) -> Option<&ComplexType> {
        self.complex_types.get(name)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn occurs_allows() {
        assert!(Occurs::Bounded(2).allows(2));
        assert!(!Occurs::Bounded(2).allows(3));
        assert!(Occurs::Unbounded.allows(1_000_000));
        assert_eq!(Occurs::Unbounded.to_string(), "unbounded");
    }

    #[test]
    fn facets_enumeration() {
        let f = Facets {
            enumeration: vec!["".into(), "Napster".into(), "Gnutella".into()],
            ..Facets::default()
        };
        assert!(f.check("Napster").is_ok());
        assert!(f.check("").is_ok());
        assert_eq!(f.check("Kazaa").unwrap_err(), "enumeration");
    }

    #[test]
    fn facets_lengths() {
        let f = Facets { min_length: Some(2), max_length: Some(4), ..Facets::default() };
        assert!(f.check("ab").is_ok());
        assert!(f.check("abcd").is_ok());
        assert!(f.check("a").is_err());
        assert!(f.check("abcde").is_err());
    }

    #[test]
    fn facets_numeric_bounds() {
        let f = Facets { min_inclusive: Some(0.0), max_exclusive: Some(10.0), ..Facets::default() };
        assert!(f.check("0").is_ok());
        assert!(f.check("9.9").is_ok());
        assert!(f.check("10").is_err());
        assert!(f.check("-1").is_err());
        assert!(f.check("abc").is_err());
    }

    #[test]
    fn facets_pattern() {
        let f = Facets {
            pattern: Some(Regex::parse(r"\d{4}").unwrap()),
            ..Facets::default()
        };
        assert!(f.check("2002").is_ok());
        assert!(f.check("02").is_err());
    }

    #[test]
    fn simple_type_checks_base_before_facets() {
        let t = SimpleTypeDef {
            base: BuiltinType::Integer,
            facets: Facets { min_inclusive: Some(1.0), ..Facets::default() },
        };
        assert!(t.check("5").is_ok());
        assert_eq!(t.check("abc").unwrap_err(), "xsd:integer");
        assert_eq!(t.check("0").unwrap_err(), "minInclusive 1");
    }

    /// The product's walk of a particle tree (`leaf_fields`) collects
    /// its element declarations depth-first, through a nested choice.
    #[test]
    fn particle_collects_decls() {
        let s = crate::parse_schema_str(
            r#"<schema xmlns="http://www.w3.org/2001/XMLSchema">
              <element name="r"><complexType><sequence>
                <element name="a" type="xsd:string"/>
                <choice>
                  <element name="b" type="xsd:string"/>
                  <element name="c" type="xsd:string"/>
                </choice>
              </sequence></complexType></element>
            </schema>"#,
        )
        .unwrap();
        let fields = crate::leaf_fields(&s);
        let names: Vec<&str> = fields.iter().map(|f| f.name.as_str()).collect();
        assert_eq!(names, ["a", "b", "c"]);
    }
}
