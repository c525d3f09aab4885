//! Structured metadata queries.
//!
//! Two query surfaces share this AST, the two a servent offers (§IV-B):
//!
//! * programmatic construction ([`Query`] builders), what a search form
//!   derives,
//! * the CMIP/LDAP-style filter text syntax ([`crate::parse_cmip`]), the
//!   paper's query format.

use crate::tokenizer::normalize;
use std::fmt;

/// How a field value is compared.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ValuePattern {
    /// Case-insensitive equality on the normalized value.
    Exact(String),
    /// Value starts with the fragment (`observ*`).
    Prefix(String),
    /// Value ends with the fragment (`*pattern`).
    Suffix(String),
    /// Value contains the fragment (`*serve*`).
    Contains(String),
    /// Field merely has to be present with any value (`*`).
    Present,
}

impl ValuePattern {
    /// Compiles a pattern from a CMIP-style value with optional leading /
    /// trailing `*` wildcards.
    pub fn from_wildcard(raw: &str) -> ValuePattern {
        match (raw.starts_with('*'), raw.ends_with('*') && raw.len() > 1) {
            _ if raw == "*" => ValuePattern::Present,
            (true, true) => ValuePattern::Contains(normalize(&raw[1..raw.len() - 1])),
            (true, false) => ValuePattern::Suffix(normalize(&raw[1..])),
            (false, true) => ValuePattern::Prefix(normalize(&raw[..raw.len() - 1])),
            (false, false) => ValuePattern::Exact(normalize(raw)),
        }
    }

    /// Does the (raw) value match? Values already in normalized form are
    /// compared in place; only denormalized input pays an allocation.
    pub fn matches(&self, value: &str) -> bool {
        if matches!(self, ValuePattern::Present) || crate::tokenizer::is_normalized(value) {
            self.matches_normalized(value)
        } else {
            self.matches_normalized(&normalize(value))
        }
    }

    /// Does an already-[`normalize`]d value match? This is the zero-
    /// allocation comparison the index scan fallback uses against the
    /// normalized values it interned.
    pub fn matches_normalized(&self, v: &str) -> bool {
        match self {
            ValuePattern::Exact(p) => v == *p,
            ValuePattern::Prefix(p) => v.starts_with(p.as_str()),
            ValuePattern::Suffix(p) => v.ends_with(p.as_str()),
            ValuePattern::Contains(p) => v.contains(p.as_str()),
            ValuePattern::Present => true,
        }
    }
}

impl fmt::Display for ValuePattern {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ValuePattern::Exact(p) => write!(f, "{p}"),
            ValuePattern::Prefix(p) => write!(f, "{p}*"),
            ValuePattern::Suffix(p) => write!(f, "*{p}"),
            ValuePattern::Contains(p) => write!(f, "*{p}*"),
            ValuePattern::Present => write!(f, "*"),
        }
    }
}

/// A metadata query over indexed fields.
#[derive(Debug, Clone, PartialEq)]
pub enum Query {
    /// Matches every object.
    All,
    /// Conjunction.
    And(Vec<Query>),
    /// Disjunction.
    Or(Vec<Query>),
    /// Negation.
    Not(Box<Query>),
    /// Field comparison. `field` is the slash path from the root element
    /// (`pattern/name`); a bare leaf name (`name`) matches any field whose
    /// path ends with `/name`.
    Match {
        /// Field path or leaf name.
        field: String,
        /// Comparison pattern.
        pattern: ValuePattern,
    },
    /// Token search: does any indexed token of the field (or of *any*
    /// field when `field` is `None`) equal `word`? This is the fast path
    /// the inverted index accelerates.
    Keyword {
        /// Field restriction, or `None` for all fields.
        field: Option<String>,
        /// Single lowercase token.
        word: String,
    },
}

impl Query {
    /// `field = value` (exact, case-insensitive).
    pub fn eq(field: impl Into<String>, value: &str) -> Query {
        Query::Match { field: field.into(), pattern: ValuePattern::Exact(normalize(value)) }
    }

    /// `field` contains the fragment.
    pub fn contains(field: impl Into<String>, fragment: &str) -> Query {
        Query::Match { field: field.into(), pattern: ValuePattern::Contains(normalize(fragment)) }
    }

    /// Keyword in a specific field.
    pub fn keyword(field: impl Into<String>, word: &str) -> Query {
        Query::Keyword { field: Some(field.into()), word: word.to_lowercase() }
    }

    /// Keyword in any field — the "search box" query.
    pub fn any_keyword(word: &str) -> Query {
        Query::Keyword { field: None, word: word.to_lowercase() }
    }

    /// Conjunction helper.
    pub fn and(queries: impl IntoIterator<Item = Query>) -> Query {
        Query::And(queries.into_iter().collect())
    }

    /// Disjunction helper.
    pub fn or(queries: impl IntoIterator<Item = Query>) -> Query {
        Query::Or(queries.into_iter().collect())
    }

    /// Evaluates the query directly against one object's extracted
    /// `(field path, value)` pairs — the reference semantics the index
    /// must agree with (property-tested).
    pub fn matches_fields(&self, fields: &[(String, String)]) -> bool {
        match self {
            Query::All => true,
            Query::And(qs) => qs.iter().all(|q| q.matches_fields(fields)),
            Query::Or(qs) => qs.iter().any(|q| q.matches_fields(fields)),
            Query::Not(q) => !q.matches_fields(fields),
            Query::Match { field, pattern } => fields
                .iter()
                .filter(|(path, _)| field_matches(path, field))
                .any(|(_, value)| pattern.matches(value)),
            Query::Keyword { field, word } => fields
                .iter()
                .filter(|(path, _)| {
                    field.as_deref().is_none_or(|f| field_matches(path, f))
                })
                .any(|(_, value)| crate::tokenizer::has_token(value, word)),
        }
    }
}

/// Does a stored field `path` (e.g. `pattern/name`) satisfy a query field
/// reference? A reference matches its own full path and any path for which
/// it is a `/`-aligned suffix: `name` and `b/name` both match `a/b/name`.
/// Allocation-free — this runs once per stored field on every scan.
pub fn field_matches(path: &str, reference: &str) -> bool {
    path.len() >= reference.len()
        && path.ends_with(reference)
        && (path.len() == reference.len()
            || path.as_bytes()[path.len() - reference.len() - 1] == b'/')
}

impl fmt::Display for Query {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Query::All => write!(f, "(*)"),
            Query::And(qs) => {
                write!(f, "(&")?;
                for q in qs {
                    write!(f, "{q}")?;
                }
                write!(f, ")")
            }
            Query::Or(qs) => {
                write!(f, "(|")?;
                for q in qs {
                    write!(f, "{q}")?;
                }
                write!(f, ")")
            }
            Query::Not(q) => write!(f, "(!{q})"),
            Query::Match { field, pattern } => write!(f, "({field}={pattern})"),
            Query::Keyword { field: Some(fl), word } => write!(f, "({fl}~={word})"),
            Query::Keyword { field: None, word } => write!(f, "(~={word})"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fields() -> Vec<(String, String)> {
        vec![
            ("pattern/name".to_string(), "Abstract Factory".to_string()),
            ("pattern/category".to_string(), "creational".to_string()),
            ("pattern/intent".to_string(), "Provide an interface for creating families".to_string()),
        ]
    }

    #[test]
    fn exact_match_is_case_insensitive() {
        assert!(Query::eq("pattern/category", "Creational").matches_fields(&fields()));
        assert!(!Query::eq("pattern/category", "behavioral").matches_fields(&fields()));
    }

    #[test]
    fn leaf_name_reference() {
        assert!(Query::eq("category", "creational").matches_fields(&fields()));
        assert!(Query::eq("name", "abstract factory").matches_fields(&fields()));
    }

    #[test]
    fn wildcards() {
        assert!(ValuePattern::from_wildcard("abstract*").matches("Abstract Factory"));
        assert!(ValuePattern::from_wildcard("*factory").matches("Abstract Factory"));
        assert!(ValuePattern::from_wildcard("*act*").matches("Abstract Factory"));
        assert!(ValuePattern::from_wildcard("*").matches("anything"));
        assert!(!ValuePattern::from_wildcard("factory*").matches("Abstract Factory"));
    }

    #[test]
    fn keyword_queries_tokenize() {
        assert!(Query::any_keyword("families").matches_fields(&fields()));
        assert!(Query::keyword("intent", "interface").matches_fields(&fields()));
        assert!(!Query::keyword("name", "interface").matches_fields(&fields()));
        // stopwords never match (they are not indexed)
        assert!(!Query::any_keyword("an").matches_fields(&fields()));
    }

    #[test]
    fn boolean_combinators() {
        let q = Query::and([
            Query::eq("category", "creational"),
            Query::any_keyword("factory"),
        ]);
        assert!(q.matches_fields(&fields()));
        let q2 = Query::or([Query::eq("category", "behavioral"), Query::any_keyword("nope")]);
        assert!(!q2.matches_fields(&fields()));
        let q3 = Query::Not(Box::new(Query::eq("category", "behavioral")));
        assert!(q3.matches_fields(&fields()));
    }

    #[test]
    fn display_round_trips_through_cmip_shapes() {
        let q = Query::and([
            Query::Match {
                field: "name".into(),
                pattern: ValuePattern::from_wildcard("observ*"),
            },
            Query::Not(Box::new(Query::eq("category", "structural"))),
        ]);
        assert_eq!(q.to_string(), "(&(name=observ*)(!(category=structural)))");
    }

    #[test]
    fn all_matches_everything() {
        assert!(Query::All.matches_fields(&[]));
    }

    #[test]
    fn field_reference_suffix_semantics() {
        // exact path and bare leaf
        assert!(field_matches("a/b/c", "a/b/c"));
        assert!(field_matches("a/b/c", "c"));
        // a multi-segment reference matches as a /-aligned suffix
        assert!(field_matches("a/b/c", "b/c"));
        // but never mid-segment
        assert!(!field_matches("a/xb/c", "b/c"));
        assert!(!field_matches("a/b/c", "b"));
        assert!(!field_matches("a/b/cc", "c"));
        // a longer reference than the path never matches
        assert!(!field_matches("b/c", "a/b/c"));
        // degenerate references keep the historical semantics
        assert!(field_matches("a/", ""));
        assert!(!field_matches("a", ""));
    }

    #[test]
    fn matches_normalized_agrees_with_matches() {
        let patterns = [
            ValuePattern::Exact("abstract factory".into()),
            ValuePattern::Prefix("abstract".into()),
            ValuePattern::Suffix("factory".into()),
            ValuePattern::Contains("act".into()),
            ValuePattern::Present,
        ];
        for p in &patterns {
            for value in ["Abstract   Factory", "abstract factory", "other"] {
                assert_eq!(
                    p.matches(value),
                    p.matches_normalized(&crate::tokenizer::normalize(value)),
                    "{p} on {value:?}"
                );
            }
        }
    }
}
