//! Recursive-descent parser producing a [`Document`] arena.
//!
//! Supported XML 1.0 subset: prolog (`<?xml ...?>`), `DOCTYPE` declarations
//! (skipped, including a bracketed internal subset), elements, attributes
//! with `'` or `"` quotes, character data, the five predefined entities,
//! numeric character references, CDATA sections, comments, and processing
//! instructions. Not supported: custom entity declarations and DTD
//! validation — the paper's documents need neither.

use crate::document::{Document, NodeId};
use crate::error::{ParseErrorKind, ParseXmlError, TextPos};
use crate::escape::expand_entity;
use crate::name::{is_name_char, is_name_start_char, QName};

impl Document {
    /// Parses an XML document from a string.
    ///
    /// # Errors
    ///
    /// Returns [`ParseXmlError`] with line/column information for malformed
    /// input (mismatched tags, invalid names, unknown entities, trailing
    /// content, ...).
    pub fn parse(input: &str) -> Result<Document, ParseXmlError> {
        let mut p = Parser::new(input);
        p.parse_document()?;
        Ok(p.doc)
    }

    /// Parses a string that contains a single element (fragment form).
    ///
    /// Convenience wrapper over [`Document::parse`] returning the document
    /// element id alongside the document.
    ///
    /// # Errors
    ///
    /// Same conditions as [`Document::parse`], plus an error when the input
    /// has no document element.
    pub fn parse_element(input: &str) -> Result<(Document, NodeId), ParseXmlError> {
        let doc = Document::parse(input)?;
        let el = doc.document_element().ok_or_else(|| {
            ParseXmlError::new(
                ParseErrorKind::InvalidDocumentStructure("no document element".into()),
                TextPos { line: 1, col: 1 },
            )
        })?;
        Ok((doc, el))
    }
}

/// How many elements may be open at once. `parse_element` recurses once
/// per open element, as does every walk over the tree afterwards, so
/// input from another peer must not choose the depth. The XSLT engine's
/// own bound on source trees is the same 64.
const MAX_DEPTH: usize = 64;

struct Parser<'a> {
    chars: Vec<char>,
    pos: usize,
    line: u32,
    col: u32,
    /// Elements open at `pos`.
    depth: usize,
    doc: Document,
    _input: &'a str,
}

impl<'a> Parser<'a> {
    fn new(input: &'a str) -> Self {
        Parser {
            chars: input.chars().collect(),
            pos: 0,
            line: 1,
            col: 1,
            depth: 0,
            doc: Document::new(),
            _input: input,
        }
    }

    fn text_pos(&self) -> TextPos {
        TextPos { line: self.line, col: self.col }
    }

    fn err(&self, kind: ParseErrorKind) -> ParseXmlError {
        ParseXmlError::new(kind, self.text_pos())
    }

    fn peek(&self) -> Option<char> {
        self.chars.get(self.pos).copied()
    }

    fn peek_at(&self, offset: usize) -> Option<char> {
        self.chars.get(self.pos + offset).copied()
    }

    fn bump(&mut self) -> Option<char> {
        let c = self.peek()?;
        self.pos += 1;
        if c == '\n' {
            self.line += 1;
            self.col = 1;
        } else {
            self.col += 1;
        }
        Some(c)
    }

    fn eat(&mut self, expected: char) -> Result<(), ParseXmlError> {
        match self.bump() {
            Some(c) if c == expected => Ok(()),
            Some(c) => Err(self.err(ParseErrorKind::UnexpectedChar(c))),
            None => Err(self.err(ParseErrorKind::UnexpectedEof)),
        }
    }

    fn starts_with(&self, s: &str) -> bool {
        s.chars().enumerate().all(|(i, c)| self.peek_at(i) == Some(c))
    }

    fn eat_str(&mut self, s: &str) -> Result<(), ParseXmlError> {
        for c in s.chars() {
            self.eat(c)?;
        }
        Ok(())
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(' ' | '\t' | '\r' | '\n')) {
            self.bump();
        }
    }

    fn parse_document(&mut self) -> Result<(), ParseXmlError> {
        // byte-order mark
        if self.peek() == Some('\u{FEFF}') {
            self.bump();
        }
        self.skip_ws();
        if self.starts_with("<?xml") {
            self.skip_pi_or_decl()?;
        }
        let mut saw_element = false;
        loop {
            self.skip_ws();
            match self.peek() {
                None => break,
                Some('<') => match self.peek_at(1) {
                    Some('!') if self.starts_with("<!--") => {
                        let c = self.parse_comment()?;
                        let root = self.doc.root();
                        self.doc.append_child(root, c);
                    }
                    Some('!') if self.starts_with("<!DOCTYPE") => self.skip_doctype()?,
                    Some('?') => {
                        let pi = self.parse_pi()?;
                        let root = self.doc.root();
                        self.doc.append_child(root, pi);
                    }
                    _ => {
                        if saw_element {
                            return Err(self.err(ParseErrorKind::InvalidDocumentStructure(
                                "multiple root elements".into(),
                            )));
                        }
                        let el = self.parse_element()?;
                        let root = self.doc.root();
                        self.doc.append_child(root, el);
                        saw_element = true;
                    }
                },
                Some(c) => return Err(self.err(ParseErrorKind::UnexpectedChar(c))),
            }
        }
        if !saw_element {
            return Err(self.err(ParseErrorKind::InvalidDocumentStructure(
                "document has no root element".into(),
            )));
        }
        Ok(())
    }

    fn skip_pi_or_decl(&mut self) -> Result<(), ParseXmlError> {
        self.eat_str("<?")?;
        while !self.starts_with("?>") {
            if self.bump().is_none() {
                return Err(self.err(ParseErrorKind::UnexpectedEof));
            }
        }
        self.eat_str("?>")
    }

    fn skip_doctype(&mut self) -> Result<(), ParseXmlError> {
        self.eat_str("<!DOCTYPE")?;
        let mut depth = 0usize;
        loop {
            match self.bump() {
                Some('[') => depth += 1,
                Some(']') => depth = depth.saturating_sub(1),
                Some('>') if depth == 0 => return Ok(()),
                Some(_) => {}
                None => return Err(self.err(ParseErrorKind::UnexpectedEof)),
            }
        }
    }

    fn parse_name(&mut self) -> Result<QName, ParseXmlError> {
        let start_pos = self.text_pos();
        let mut s = String::new();
        match self.peek() {
            Some(c) if is_name_start_char(c) || c == ':' => {}
            Some(c) => return Err(self.err(ParseErrorKind::UnexpectedChar(c))),
            None => return Err(self.err(ParseErrorKind::UnexpectedEof)),
        }
        while let Some(c) = self.peek() {
            if is_name_char(c) || c == ':' {
                s.push(c);
                self.bump();
            } else {
                break;
            }
        }
        s.parse::<QName>()
            .map_err(|_| ParseXmlError::new(ParseErrorKind::InvalidName(s), start_pos))
    }

    fn parse_element(&mut self) -> Result<NodeId, ParseXmlError> {
        self.eat('<')?;
        let name = self.parse_name()?;
        let el = self.doc.create_element(name.clone());
        // attributes
        loop {
            self.skip_ws();
            match self.peek() {
                Some('>') => {
                    self.bump();
                    break;
                }
                Some('/') => {
                    self.bump();
                    self.eat('>')?;
                    return Ok(el);
                }
                Some(c) if is_name_start_char(c) => {
                    let aname = self.parse_name()?;
                    if self.doc.attributes(el).iter().any(|a| a.name == aname) {
                        return Err(
                            self.err(ParseErrorKind::DuplicateAttribute(aname.to_string()))
                        );
                    }
                    self.skip_ws();
                    self.eat('=')?;
                    self.skip_ws();
                    let value = self.parse_attr_value()?;
                    self.doc.set_attr(el, aname, value);
                }
                Some(c) => return Err(self.err(ParseErrorKind::UnexpectedChar(c))),
                None => return Err(self.err(ParseErrorKind::UnexpectedEof)),
            }
        }
        // content
        self.depth += 1;
        if self.depth > MAX_DEPTH {
            return Err(self.err(ParseErrorKind::InvalidDocumentStructure(format!(
                "elements nested deeper than {MAX_DEPTH}"
            ))));
        }
        self.parse_content(el)?;
        self.depth -= 1;
        // close tag
        self.eat_str("</")?;
        let close = self.parse_name()?;
        if close != name {
            return Err(self.err(ParseErrorKind::MismatchedTag {
                open: name.to_string(),
                close: close.to_string(),
            }));
        }
        self.skip_ws();
        self.eat('>')?;
        Ok(el)
    }

    fn parse_content(&mut self, parent: NodeId) -> Result<(), ParseXmlError> {
        let mut text = String::new();
        loop {
            match self.peek() {
                None => return Err(self.err(ParseErrorKind::UnexpectedEof)),
                Some('<') => {
                    if self.starts_with("</") {
                        self.flush_text(parent, &mut text);
                        return Ok(());
                    } else if self.starts_with("<!--") {
                        self.flush_text(parent, &mut text);
                        let c = self.parse_comment()?;
                        self.doc.append_child(parent, c);
                    } else if self.starts_with("<![CDATA[") {
                        self.parse_cdata(&mut text)?;
                    } else if self.starts_with("<?") {
                        self.flush_text(parent, &mut text);
                        let pi = self.parse_pi()?;
                        self.doc.append_child(parent, pi);
                    } else {
                        self.flush_text(parent, &mut text);
                        let child = self.parse_element()?;
                        self.doc.append_child(parent, child);
                    }
                }
                Some('&') => {
                    self.bump();
                    let mut ent = String::new();
                    loop {
                        match self.bump() {
                            Some(';') => break,
                            Some(c) if ent.len() < 12 => ent.push(c),
                            Some(_) => {
                                return Err(self.err(ParseErrorKind::UnknownEntity(ent)));
                            }
                            None => return Err(self.err(ParseErrorKind::UnexpectedEof)),
                        }
                    }
                    let c = expand_entity(&ent).map_err(|k| self.err(k))?;
                    text.push(c);
                }
                Some(c) => {
                    self.bump();
                    text.push(c);
                }
            }
        }
    }

    fn flush_text(&mut self, parent: NodeId, text: &mut String) {
        if !text.is_empty() {
            let t = self.doc.create_text(std::mem::take(text));
            self.doc.append_child(parent, t);
        }
    }

    fn parse_attr_value(&mut self) -> Result<String, ParseXmlError> {
        let quote = match self.bump() {
            Some(c @ ('"' | '\'')) => c,
            Some(c) => return Err(self.err(ParseErrorKind::UnexpectedChar(c))),
            None => return Err(self.err(ParseErrorKind::UnexpectedEof)),
        };
        let mut out = String::new();
        loop {
            match self.bump() {
                Some(c) if c == quote => return Ok(out),
                Some('<') => return Err(self.err(ParseErrorKind::UnexpectedChar('<'))),
                Some('&') => {
                    let mut ent = String::new();
                    loop {
                        match self.bump() {
                            Some(';') => break,
                            Some(c) if ent.len() < 12 => ent.push(c),
                            Some(_) => {
                                return Err(self.err(ParseErrorKind::UnknownEntity(ent)));
                            }
                            None => return Err(self.err(ParseErrorKind::UnexpectedEof)),
                        }
                    }
                    out.push(expand_entity(&ent).map_err(|k| self.err(k))?);
                }
                Some(c) => out.push(c),
                None => return Err(self.err(ParseErrorKind::UnexpectedEof)),
            }
        }
    }

    fn parse_comment(&mut self) -> Result<NodeId, ParseXmlError> {
        self.eat_str("<!--")?;
        let mut s = String::new();
        while !self.starts_with("-->") {
            match self.bump() {
                Some(c) => s.push(c),
                None => return Err(self.err(ParseErrorKind::UnexpectedEof)),
            }
        }
        self.eat_str("-->")?;
        Ok(self.doc.create_comment(s))
    }

    fn parse_cdata(&mut self, text: &mut String) -> Result<(), ParseXmlError> {
        self.eat_str("<![CDATA[")?;
        while !self.starts_with("]]>") {
            match self.bump() {
                Some(c) => text.push(c),
                None => return Err(self.err(ParseErrorKind::UnexpectedEof)),
            }
        }
        self.eat_str("]]>")
    }

    fn parse_pi(&mut self) -> Result<NodeId, ParseXmlError> {
        self.eat_str("<?")?;
        let target = self.parse_name()?.to_string();
        let mut data = String::new();
        self.skip_ws();
        while !self.starts_with("?>") {
            match self.bump() {
                Some(c) => data.push(c),
                None => return Err(self.err(ParseErrorKind::UnexpectedEof)),
            }
        }
        self.eat_str("?>")?;
        Ok(self.doc.create_pi(target, data))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::document::NodeKind;

    #[test]
    fn parse_simple_element() {
        let d = Document::parse("<a/>").unwrap();
        assert_eq!(d.local_name(d.document_element().unwrap()), Some("a"));
    }

    #[test]
    fn parse_nested_with_text() {
        let d = Document::parse("<a><b>one</b><b>two</b></a>").unwrap();
        let a = d.document_element().unwrap();
        let bs: Vec<_> = d.children_named(a, "b").collect();
        assert_eq!(bs.len(), 2);
        assert_eq!(d.text_content(bs[0]), "one");
        assert_eq!(d.text_content(bs[1]), "two");
    }

    #[test]
    fn parse_attributes_both_quote_styles() {
        let d = Document::parse(r#"<e a="1" b='2' xmlns:x="u"/>"#).unwrap();
        let e = d.document_element().unwrap();
        assert_eq!(d.attr(e, "a"), Some("1"));
        assert_eq!(d.attr(e, "b"), Some("2"));
        assert_eq!(d.attr(e, "xmlns:x"), Some("u"));
    }

    #[test]
    fn parse_prolog_doctype_comment_pi() {
        let src = r#"<?xml version="1.0"?>
<!DOCTYPE pattern [ <!ELEMENT pattern ANY> ]>
<!-- top comment -->
<?style hint?>
<pattern name="Observer"/>"#;
        let d = Document::parse(src).unwrap();
        let el = d.document_element().unwrap();
        assert_eq!(d.attr(el, "name"), Some("Observer"));
        // comment + pi + element are children of the root
        assert_eq!(d.children(d.root()).len(), 3);
    }

    #[test]
    fn entities_in_text_and_attrs() {
        let d = Document::parse(r#"<a t="&lt;&amp;&quot;&#65;">x &gt; y &#x41;</a>"#).unwrap();
        let a = d.document_element().unwrap();
        assert_eq!(d.attr(a, "t"), Some("<&\"A"));
        assert_eq!(d.text_content(a), "x > y A");
    }

    #[test]
    fn cdata_becomes_text() {
        let d = Document::parse("<a><![CDATA[1 < 2 && 3 > 2]]></a>").unwrap();
        assert_eq!(d.text_content(d.document_element().unwrap()), "1 < 2 && 3 > 2");
    }

    #[test]
    fn mismatched_tags_error() {
        let e = Document::parse("<a><b></a></b>").unwrap_err();
        assert!(matches!(e.kind(), ParseErrorKind::MismatchedTag { .. }));
    }

    #[test]
    fn duplicate_attribute_error() {
        let e = Document::parse(r#"<a x="1" x="2"/>"#).unwrap_err();
        assert!(matches!(e.kind(), ParseErrorKind::DuplicateAttribute(_)));
    }

    #[test]
    fn multiple_roots_error() {
        let e = Document::parse("<a/><b/>").unwrap_err();
        assert!(matches!(e.kind(), ParseErrorKind::InvalidDocumentStructure(_)));
    }

    #[test]
    fn empty_input_error() {
        assert!(Document::parse("").is_err());
        assert!(Document::parse("   \n ").is_err());
    }

    #[test]
    fn unknown_entity_error_with_position() {
        let e = Document::parse("<a>&nope;</a>").unwrap_err();
        assert!(matches!(e.kind(), ParseErrorKind::UnknownEntity(_)));
        assert_eq!(e.pos().line, 1);
    }

    #[test]
    fn unclosed_element_error() {
        let e = Document::parse("<a><b>").unwrap_err();
        assert!(matches!(e.kind(), ParseErrorKind::UnexpectedEof));
    }

    #[test]
    fn lt_in_attribute_rejected() {
        assert!(Document::parse(r#"<a x="<"/>"#).is_err());
    }

    #[test]
    fn whitespace_preserved_in_mixed_content() {
        let d = Document::parse("<a>one <b>two</b> three</a>").unwrap();
        assert_eq!(d.text_content(d.document_element().unwrap()), "one two three");
    }

    #[test]
    fn pi_inside_element() {
        let d = Document::parse("<a><?target some data?></a>").unwrap();
        let a = d.document_element().unwrap();
        let pi = d.children(a)[0];
        match d.kind(pi) {
            NodeKind::ProcessingInstruction { target, data } => {
                assert_eq!(target, "target");
                assert_eq!(data, "some data");
            }
            other => panic!("expected PI, got {other:?}"),
        }
    }

    #[test]
    fn bom_is_skipped() {
        let d = Document::parse("\u{FEFF}<a/>").unwrap();
        assert!(d.document_element().is_some());
    }

    #[test]
    fn error_position_tracks_lines() {
        let e = Document::parse("<a>\n  <b>\n</a>").unwrap_err();
        assert!(e.pos().line >= 3, "expected error on line 3+, got {}", e.pos());
    }

    #[test]
    fn parse_element_fragment_helper() {
        let (d, el) = Document::parse_element("<x v='1'/>").unwrap();
        assert_eq!(d.attr(el, "v"), Some("1"));
    }

    #[test]
    fn fig3_community_schema_parses() {
        // The exact schema of Fig. 3 in the paper.
        let src = r#"<?xml version="1.0"?>
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
        let d = Document::parse(src).unwrap();
        let schema = d.document_element().unwrap();
        assert_eq!(d.local_name(schema), Some("schema"));
        assert_eq!(
            d.namespace_uri(schema, None).as_deref(),
            Some("http://www.w3.org/2001/XMLSchema")
        );
        let element = d.child_named(schema, "element").unwrap();
        assert_eq!(d.attr(element, "name"), Some("community"));
        let st = d.child_named(schema, "simpleType").unwrap();
        let restriction = d.child_named(st, "restriction").unwrap();
        assert_eq!(d.children_named(restriction, "enumeration").count(), 4);
    }

    #[test]
    fn nesting_is_bounded_by_max_depth() {
        let nested = |n: usize| format!("{}{}", "<a>".repeat(n), "</a>".repeat(n));
        let deep = Document::parse(&nested(MAX_DEPTH)).unwrap();
        assert_eq!(deep.descendants(deep.root()).len(), MAX_DEPTH);
        // a leaf that opens no content adds no level
        assert!(Document::parse(&nested(MAX_DEPTH).replacen("<a></a>", "<a><b/></a>", 1)).is_ok());
        for n in [MAX_DEPTH + 1, 200_000] {
            let err = Document::parse(&nested(n)).unwrap_err();
            assert!(
                matches!(err.kind(), ParseErrorKind::InvalidDocumentStructure(d) if d.contains("nested deeper")),
                "{n}: {err}"
            );
        }
    }
}
