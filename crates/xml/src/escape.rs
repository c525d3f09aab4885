//! Escaping and unescaping of XML character data and attribute values,
//! and the recovery that keeps a comment or processing instruction from
//! closing early.

use crate::error::{ParseErrorKind, ParseXmlError, TextPos};

/// Escapes text content: `&`, `<`, `>` are replaced by entity references.
///
/// ```
/// assert_eq!(up2p_xml::escape_text("a < b & c"), "a &lt; b &amp; c");
/// ```
pub fn escape_text(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    escape_text_into(&mut out, s);
    out
}

/// Escapes an attribute value for inclusion in double quotes: additionally
/// escapes `"`, tab, CR and LF so the value round-trips exactly.
pub fn escape_attr(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    escape_attr_into(&mut out, s);
    out
}

/// [`escape_text`], appended to `out`.
pub fn escape_text_into(out: &mut String, s: &str) {
    escape_into(out, s, false);
}

/// [`escape_attr`], appended to `out`.
pub fn escape_attr_into(out: &mut String, s: &str) {
    escape_into(out, s, true);
}

/// Copies the runs between special bytes whole. Every byte substituted is
/// ASCII, so each cut falls on a character boundary.
fn escape_into(out: &mut String, s: &str, attr: bool) {
    let mut clean = 0;
    for (i, b) in s.bytes().enumerate() {
        let entity = match b {
            b'&' => "&amp;",
            b'<' => "&lt;",
            b'>' => "&gt;",
            b'"' if attr => "&quot;",
            b'\t' if attr => "&#9;",
            b'\n' if attr => "&#10;",
            b'\r' if attr => "&#13;",
            _ => continue,
        };
        out.push_str(&s[clean..i]);
        out.push_str(entity);
        clean = i + 1;
    }
    out.push_str(&s[clean..]);
}

/// Appends a comment's text, to go between `<!--` and `-->`, with the
/// recovery XSLT 1.0 §7.4 prescribes: a space after any `-` that another
/// `-` follows or that ends the text, so no `--` and no `-->` is written
/// and the comment cannot close early.
///
/// ```
/// let mut out = String::new();
/// up2p_xml::escape_comment_into(&mut out, "x-->y-");
/// assert_eq!(out, "x- ->y- ");
/// ```
pub fn escape_comment_into(out: &mut String, text: &str) {
    let bytes = text.as_bytes();
    let mut clean = 0;
    for (i, &b) in bytes.iter().enumerate() {
        if b == b'-' && bytes.get(i + 1).is_none_or(|&next| next == b'-') {
            out.push_str(&text[clean..=i]);
            out.push(' ');
            clean = i + 1;
        }
    }
    out.push_str(&text[clean..]);
}

/// Appends a processing instruction's data with the recovery of XSLT 1.0
/// §7.3: a space between `?` and `>`, so the data cannot close the PI.
pub(crate) fn escape_pi_into(out: &mut String, data: &str) {
    let mut clean = 0;
    for (i, _) in data.match_indices("?>") {
        out.push_str(&data[clean..=i]);
        out.push(' ');
        clean = i + 1;
    }
    out.push_str(&data[clean..]);
}

/// Expands the five predefined entities and numeric character references in
/// `s`.
///
/// # Errors
///
/// Returns an error for unknown entities (`&foo;`), unterminated references
/// and numeric references that do not denote a valid character.
pub fn unescape(s: &str) -> Result<String, ParseXmlError> {
    let mut out = String::with_capacity(s.len());
    let mut chars = s.char_indices();
    while let Some((i, c)) = chars.next() {
        if c != '&' {
            out.push(c);
            continue;
        }
        let rest = &s[i + 1..];
        let Some(end) = rest.find(';') else {
            return Err(err_at("unterminated entity reference", s, i));
        };
        let name = &rest[..end];
        out.push(expand_entity(name).map_err(|k| ParseXmlError::new(k, pos_of(s, i)))?);
        // advance the iterator past the entity
        for _ in 0..=end {
            chars.next();
        }
    }
    Ok(out)
}

/// Expands a single entity name (without `&` and `;`) to its character.
pub(crate) fn expand_entity(name: &str) -> Result<char, ParseErrorKind> {
    match name {
        "lt" => Ok('<'),
        "gt" => Ok('>'),
        "amp" => Ok('&'),
        "apos" => Ok('\''),
        "quot" => Ok('"'),
        _ => {
            if let Some(num) = name.strip_prefix("#x").or_else(|| name.strip_prefix("#X")) {
                u32::from_str_radix(num, 16)
                    .ok()
                    .and_then(char::from_u32)
                    .ok_or_else(|| ParseErrorKind::InvalidCharRef(name.to_string()))
            } else if let Some(num) = name.strip_prefix('#') {
                num.parse::<u32>()
                    .ok()
                    .and_then(char::from_u32)
                    .ok_or_else(|| ParseErrorKind::InvalidCharRef(name.to_string()))
            } else {
                Err(ParseErrorKind::UnknownEntity(name.to_string()))
            }
        }
    }
}

fn pos_of(s: &str, byte: usize) -> TextPos {
    let mut line = 1;
    let mut col = 1;
    for (i, c) in s.char_indices() {
        if i >= byte {
            break;
        }
        if c == '\n' {
            line += 1;
            col = 1;
        } else {
            col += 1;
        }
    }
    TextPos { line, col }
}

fn err_at(msg: &str, s: &str, byte: usize) -> ParseXmlError {
    ParseXmlError::new(ParseErrorKind::Other(msg.to_string()), pos_of(s, byte))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn escape_and_unescape_text_round_trip() {
        let original = "design <patterns> & \"gang of four\" 'quotes'";
        let escaped = escape_text(original);
        assert_eq!(unescape(&escaped).unwrap(), original);
    }

    #[test]
    fn attr_escaping_handles_quotes_and_whitespace() {
        assert_eq!(escape_attr("a\"b\nc"), "a&quot;b&#10;c");
    }

    #[test]
    fn unescape_numeric_refs() {
        assert_eq!(unescape("&#65;&#x42;&#x63;").unwrap(), "ABc");
    }

    #[test]
    fn unescape_rejects_unknown_entity() {
        let e = unescape("&nbsp;").unwrap_err();
        assert!(e.to_string().contains("unknown entity"));
    }

    #[test]
    fn unescape_rejects_unterminated() {
        assert!(unescape("x &amp y").is_err());
    }

    #[test]
    fn unescape_rejects_surrogate_char_ref() {
        assert!(unescape("&#xD800;").is_err());
    }

    #[test]
    fn error_position_counts_lines() {
        let e = unescape("ok\nok &bad; x").unwrap_err();
        assert_eq!(e.pos().line, 2);
        assert_eq!(e.pos().col, 4);
    }
}
