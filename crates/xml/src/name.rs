//! Qualified names (`prefix:local`) and XML name validity checks.

use std::fmt;

/// A qualified XML name: an optional prefix plus a local part.
///
/// `QName` does not itself resolve the prefix to a namespace URI — resolution
/// depends on the in-scope `xmlns` declarations and is provided by
/// [`crate::Document::namespace_uri`].
///
/// ```
/// use up2p_xml::QName;
/// let q: QName = "xsl:template".parse().unwrap();
/// assert_eq!(q.prefix(), Some("xsl"));
/// assert_eq!(q.local(), "template");
/// assert_eq!(q.to_string(), "xsl:template");
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct QName {
    prefix: Option<Box<str>>,
    local: Box<str>,
}

impl QName {
    /// Creates a name with no prefix.
    ///
    /// # Panics
    ///
    /// Panics if `local` is not a valid XML name (use `str::parse::<QName>`
    /// for a fallible version).
    pub fn local_only(local: &str) -> Self {
        QName { prefix: None, local: ncname("name", local) }
    }

    /// Creates a prefixed name.
    ///
    /// # Panics
    ///
    /// Panics if either part is not a valid NCName.
    pub fn prefixed(prefix: &str, local: &str) -> Self {
        QName { prefix: Some(ncname("prefix", prefix)), local: ncname("name", local) }
    }

    /// The prefix part, if any.
    pub fn prefix(&self) -> Option<&str> {
        self.prefix.as_deref()
    }

    /// The local part.
    pub fn local(&self) -> &str {
        &self.local
    }

    /// `true` when this name has the given local part and no prefix.
    pub fn is_unprefixed(&self, local: &str) -> bool {
        self.prefix.is_none() && &*self.local == local
    }

    /// Appends the name as written (`prefix:local`) to `out`: what
    /// `Display` prints, without a formatter.
    pub fn push_to(&self, out: &mut String) {
        if let Some(p) = &self.prefix {
            out.push_str(p);
            out.push(':');
        }
        out.push_str(&self.local);
    }
}

impl fmt::Display for QName {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match &self.prefix {
            Some(p) => write!(f, "{p}:{}", self.local),
            None => write!(f, "{}", self.local),
        }
    }
}

/// Error returned when parsing an invalid qualified name.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseQNameError(String);

impl fmt::Display for ParseQNameError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid qualified name {:?}", self.0)
    }
}

impl std::error::Error for ParseQNameError {}

impl std::str::FromStr for QName {
    type Err = ParseQNameError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s.split_once(':') {
            Some((p, l)) if is_valid_ncname(p) && is_valid_ncname(l) => {
                Ok(QName { prefix: Some(p.into()), local: l.into() })
            }
            None if is_valid_ncname(s) => Ok(QName { prefix: None, local: s.into() }),
            _ => Err(ParseQNameError(s.to_string())),
        }
    }
}

impl From<&str> for QName {
    /// Converts a string to a `QName`.
    ///
    /// # Panics
    ///
    /// Panics if the string is not a valid qualified name. Use `str::parse`
    /// for the fallible conversion.
    #[expect(clippy::panic, reason = "the documented panicking conversion for names written as literals in this source; strings from a schema, a form or the wire go through `str::parse`")]
    fn from(s: &str) -> Self {
        s.parse().unwrap_or_else(|e| panic!("{e}"))
    }
}

/// `part` of a name written as a literal, checked: the one panic of
/// [`QName::local_only`] and [`QName::prefixed`].
#[expect(clippy::disallowed_macros, reason = "`QName::local_only` / `prefixed` panic on an invalid NCName (`# Panics`); they take literals only — the XSLT engine's `fragment`, and tests — and names read from input go through `str::parse`")]
fn ncname(what: &str, part: &str) -> Box<str> {
    assert!(is_valid_ncname(part), "invalid XML {what}: {part:?}");
    part.into()
}

/// Is `c` valid as the first character of an XML name?
pub fn is_name_start_char(c: char) -> bool {
    matches!(c,
        'A'..='Z' | 'a'..='z' | '_'
        | '\u{C0}'..='\u{D6}' | '\u{D8}'..='\u{F6}' | '\u{F8}'..='\u{2FF}'
        | '\u{370}'..='\u{37D}' | '\u{37F}'..='\u{1FFF}'
        | '\u{200C}'..='\u{200D}' | '\u{2070}'..='\u{218F}'
        | '\u{2C00}'..='\u{2FEF}' | '\u{3001}'..='\u{D7FF}'
        | '\u{F900}'..='\u{FDCF}' | '\u{FDF0}'..='\u{FFFD}'
        | '\u{10000}'..='\u{EFFFF}')
}

/// Is `c` valid as a subsequent character of an XML name?
pub fn is_name_char(c: char) -> bool {
    is_name_start_char(c)
        || matches!(c, '-' | '.' | '0'..='9' | '\u{B7}' | '\u{300}'..='\u{36F}' | '\u{203F}'..='\u{2040}')
}

/// Is `s` a valid NCName (an XML name with no colon)?
pub fn is_valid_ncname(s: &str) -> bool {
    let mut chars = s.chars();
    match chars.next() {
        Some(c) if is_name_start_char(c) => chars.all(is_name_char),
        _ => false,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_prefixed() {
        let q: QName = "xs:element".parse().unwrap();
        assert_eq!(q.prefix(), Some("xs"));
        assert_eq!(q.local(), "element");
    }

    #[test]
    fn parse_unprefixed() {
        let q: QName = "community".parse().unwrap();
        assert_eq!(q.prefix(), None);
        assert!(q.is_unprefixed("community"));
    }

    #[test]
    fn rejects_empty_and_bad_names() {
        assert!("".parse::<QName>().is_err());
        assert!(":x".parse::<QName>().is_err());
        assert!("x:".parse::<QName>().is_err());
        assert!("a:b:c".parse::<QName>().is_err());
        assert!("1abc".parse::<QName>().is_err());
        assert!("a b".parse::<QName>().is_err());
    }

    #[test]
    fn accepts_names_with_digits_dots_dashes_inside() {
        assert!("a1-b.c_d".parse::<QName>().is_ok());
        assert!(is_valid_ncname("_private"));
        assert!(!is_valid_ncname("-lead"));
        assert!(!is_valid_ncname(".lead"));
    }

    #[test]
    fn display_round_trip() {
        for s in ["a", "xsl:value-of", "x_1:y-2.z"] {
            let q: QName = s.parse().unwrap();
            assert_eq!(q.to_string(), s);
            let mut pushed = String::new();
            q.push_to(&mut pushed);
            assert_eq!(pushed, s);
        }
    }

    #[test]
    fn ordering_is_stable() {
        let a: QName = "a:x".parse().unwrap();
        let b: QName = "b:x".parse().unwrap();
        assert!(a < b);
    }
}
