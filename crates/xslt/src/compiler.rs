//! Compilation of `xsl:stylesheet` documents into executable form.
//!
//! Supported instruction set (the subset Xalan-era U-P2P stylesheets use):
//! `template` (match/name/mode/priority), `apply-templates` (select/mode,
//! with-param), `call-template` (with-param), `value-of`, `for-each` (with
//! `sort`), `if`, `choose`/`when`/`otherwise`, `variable`, `param`,
//! `element`, `attribute`, `text`, `copy-of`, `copy`, `comment`, and
//! literal result elements with `{...}` attribute value templates.

use crate::error::XsltError;
use crate::pattern::Pattern;
use up2p_xml::{Document, NodeId, OutputMethod, QName, XPath, XSLT_NS};

/// One part of an attribute value template: literal text or an embedded
/// expression.
#[derive(Debug, Clone, PartialEq)]
pub enum AvtPart {
    /// Literal text.
    Text(String),
    /// A `{expr}` segment.
    Expr(XPath),
}

/// A compiled attribute value template (`"item-{position()}"`).
#[derive(Debug, Clone, PartialEq)]
pub struct Avt {
    pub(crate) parts: Vec<AvtPart>,
}

impl Avt {
    /// Compiles an attribute value, treating `{...}` as expressions and
    /// `{{`/`}}` as escapes.
    ///
    /// # Errors
    ///
    /// Returns [`XsltError`] when an embedded expression fails to parse or
    /// a brace is unbalanced.
    pub fn parse(value: &str) -> Result<Avt, XsltError> {
        let mut parts = Vec::new();
        let mut text = String::new();
        let mut chars = value.chars().peekable();
        while let Some(c) = chars.next() {
            match c {
                '{' if chars.peek() == Some(&'{') => {
                    chars.next();
                    text.push('{');
                }
                '}' if chars.peek() == Some(&'}') => {
                    chars.next();
                    text.push('}');
                }
                '{' => {
                    if !text.is_empty() {
                        parts.push(AvtPart::Text(std::mem::take(&mut text)));
                    }
                    let mut expr = String::new();
                    loop {
                        match chars.next() {
                            Some('}') => break,
                            Some(c) => expr.push(c),
                            None => {
                                return Err(XsltError::new(format!(
                                    "unterminated {{ in attribute value template {value:?}"
                                )))
                            }
                        }
                    }
                    let xp = XPath::parse(&expr)
                        .map_err(|e| XsltError::new(format!("in AVT {value:?}: {e}")))?;
                    parts.push(AvtPart::Expr(xp));
                }
                '}' => {
                    return Err(XsltError::new(format!(
                        "unbalanced }} in attribute value template {value:?}"
                    )))
                }
                c => text.push(c),
            }
        }
        if !text.is_empty() {
            parts.push(AvtPart::Text(text));
        }
        Ok(Avt { parts })
    }
}

/// A sort key on `xsl:for-each` / `xsl:apply-templates`.
#[derive(Debug, Clone, PartialEq)]
pub struct SortSpec {
    /// Key expression.
    pub select: XPath,
    /// Descending order when true.
    pub descending: bool,
    /// Compare as numbers when true (`data-type="number"`).
    pub numeric: bool,
}

/// A `xsl:with-param` / `xsl:param` binding.
#[derive(Debug, Clone, PartialEq)]
pub struct ParamBinding {
    /// Parameter name.
    pub name: String,
    /// Value expression (`select`), or `None` when the value comes from
    /// the element body (treated as a string).
    pub select: Option<XPath>,
    /// Body instructions when no `select` is given.
    pub body: Vec<Instruction>,
}

/// Compiled instruction tree.
#[derive(Debug, Clone, PartialEq)]
pub enum Instruction {
    /// Literal text output.
    Text(String),
    /// Literal result element with AVT attributes.
    LiteralElement {
        /// Element name.
        name: QName,
        /// Attribute name → value template.
        attributes: Vec<(QName, Avt)>,
        /// Child instructions.
        body: Vec<Instruction>,
    },
    /// `xsl:value-of select=".."`.
    ValueOf(XPath),
    /// `xsl:apply-templates`.
    ApplyTemplates {
        /// Node selection (default `node()`).
        select: Option<XPath>,
        /// Template mode.
        mode: Option<String>,
        /// Passed parameters.
        params: Vec<ParamBinding>,
        /// Sort keys.
        sort: Vec<SortSpec>,
    },
    /// `xsl:call-template name=".."`.
    CallTemplate {
        /// Callee name.
        name: String,
        /// Passed parameters.
        params: Vec<ParamBinding>,
    },
    /// `xsl:for-each select=".."`.
    ForEach {
        /// Iterated node-set.
        select: XPath,
        /// Sort keys.
        sort: Vec<SortSpec>,
        /// Body instructions.
        body: Vec<Instruction>,
    },
    /// `xsl:if test=".."`.
    If {
        /// Condition.
        test: XPath,
        /// Body when true.
        body: Vec<Instruction>,
    },
    /// `xsl:choose`.
    Choose {
        /// `(test, body)` pairs in order.
        whens: Vec<(XPath, Vec<Instruction>)>,
        /// `xsl:otherwise` body.
        otherwise: Vec<Instruction>,
    },
    /// `xsl:variable`.
    Variable(ParamBinding),
    /// `xsl:element name="{avt}"`.
    Element {
        /// Element name template.
        name: Avt,
        /// Body instructions.
        body: Vec<Instruction>,
    },
    /// `xsl:attribute name="{avt}"`.
    Attribute {
        /// Attribute name template.
        name: Avt,
        /// Body instructions (string value).
        body: Vec<Instruction>,
    },
    /// `xsl:copy-of select=".."` — deep copy of selected nodes.
    CopyOf(XPath),
    /// `xsl:copy` — shallow copy of the context node.
    Copy {
        /// Body instructions executed inside the copy.
        body: Vec<Instruction>,
    },
    /// `xsl:comment`.
    Comment {
        /// Body instructions (string value).
        body: Vec<Instruction>,
    },
}

/// A compiled template rule.
#[derive(Debug, Clone)]
pub struct Template {
    /// Match pattern (`None` for named-only templates).
    pub pattern: Option<Pattern>,
    /// Template name (`None` for match-only templates).
    pub name: Option<String>,
    /// Mode.
    pub mode: Option<String>,
    /// Conflict-resolution priority.
    pub priority: f64,
    /// Declared parameters.
    pub params: Vec<ParamBinding>,
    /// Body instructions.
    pub body: Vec<Instruction>,
    /// Declaration order (later wins among equal priority).
    pub order: usize,
}

/// A compiled stylesheet, ready to be applied to source documents.
#[derive(Debug, Clone)]
pub struct Stylesheet {
    pub(crate) templates: Vec<Template>,
    pub(crate) globals: Vec<ParamBinding>,
    pub(crate) output: OutputMethod,
}

impl Stylesheet {
    /// Compiles a stylesheet from XML text.
    ///
    /// # Errors
    ///
    /// Returns [`XsltError`] for XML syntax errors and unsupported or
    /// malformed XSLT constructs.
    pub fn parse(source: &str) -> Result<Stylesheet, XsltError> {
        let doc = Document::parse(source)?;
        Self::from_document(&doc)
    }

    /// Compiles a stylesheet from a parsed document.
    ///
    /// # Errors
    ///
    /// Same conditions as [`Stylesheet::parse`].
    pub fn from_document(doc: &Document) -> Result<Stylesheet, XsltError> {
        let root = doc
            .document_element()
            .ok_or_else(|| XsltError::new("stylesheet has no root element"))?;
        let root_local = doc.local_name(root).unwrap_or_default();
        if !matches!(root_local, "stylesheet" | "transform") {
            return Err(XsltError::new(format!(
                "root element <{root_local}> is not xsl:stylesheet"
            )));
        }
        let mut templates = Vec::new();
        let mut globals = Vec::new();
        let mut output = OutputMethod::default();
        for child in doc.child_elements(root) {
            if !is_xsl(doc, child) {
                continue;
            }
            match doc.local_name(child) {
                Some("template") => {
                    let order = templates.len();
                    templates.push(compile_template(doc, child, order)?);
                }
                Some("output") => {
                    output = match doc.attr(child, "method") {
                        Some("html") => OutputMethod::Html,
                        Some("text") => OutputMethod::Text,
                        _ => OutputMethod::Xml,
                    };
                }
                Some("variable") | Some("param") => {
                    globals.push(compile_binding(doc, child)?);
                }
                // tolerated no-ops
                Some("strip-space") | Some("preserve-space") | Some("key")
                | Some("decimal-format") | Some("namespace-alias") | Some("import")
                | Some("include") => {}
                Some(other) => {
                    return Err(XsltError::new(format!(
                        "unsupported top-level xsl:{other}"
                    )))
                }
                None => {}
            }
        }
        if templates.is_empty() {
            return Err(XsltError::new("stylesheet has no templates"));
        }
        Ok(Stylesheet { templates, globals, output })
    }

    /// The requested output method.
    pub fn output_method(&self) -> OutputMethod {
        self.output
    }
}

/// Is `node` an element in the XSLT namespace?
fn is_xsl(doc: &Document, node: NodeId) -> bool {
    doc.is_element(node)
        && (doc.element_namespace(node).as_deref() == Some(XSLT_NS)
            // tolerate the conventional prefix when xmlns:xsl is missing
            || doc.name(node).map(|q| q.prefix() == Some("xsl")).unwrap_or(false))
}

fn compile_template(doc: &Document, node: NodeId, order: usize) -> Result<Template, XsltError> {
    let pattern = match doc.attr(node, "match") {
        Some(m) => Some(Pattern::parse(m)?),
        None => None,
    };
    let name = doc.attr(node, "name").map(str::to_string);
    if pattern.is_none() && name.is_none() {
        return Err(XsltError::new("template needs match or name"));
    }
    let mode = doc.attr(node, "mode").map(str::to_string);
    let priority = match doc.attr(node, "priority") {
        Some(p) => p
            .parse::<f64>()
            .map_err(|_| XsltError::new(format!("invalid priority {p:?}")))?,
        None => pattern.as_ref().map(|p| p.default_priority()).unwrap_or(0.0),
    };
    let mut params = Vec::new();
    let mut body_nodes = Vec::new();
    for child in doc.children(node) {
        if doc.is_element(*child) && is_xsl(doc, *child) && doc.local_name(*child) == Some("param")
        {
            params.push(compile_binding(doc, *child)?);
        } else {
            body_nodes.push(*child);
        }
    }
    let body = compile_body_nodes(doc, &body_nodes)?;
    Ok(Template { pattern, name, mode, priority, params, body, order })
}

fn compile_binding(doc: &Document, node: NodeId) -> Result<ParamBinding, XsltError> {
    let name = doc
        .attr(node, "name")
        .ok_or_else(|| XsltError::new("variable/param without name"))?
        .to_string();
    let select = match doc.attr(node, "select") {
        Some(s) => Some(XPath::parse(s).map_err(XsltError::from)?),
        None => None,
    };
    let body =
        if select.is_none() { compile_body(doc, node)? } else { Vec::new() };
    Ok(ParamBinding { name, select, body })
}

/// Compiles the children of `node` into instructions.
pub(crate) fn compile_body(doc: &Document, node: NodeId) -> Result<Vec<Instruction>, XsltError> {
    let children: Vec<NodeId> = doc.children(node).to_vec();
    compile_body_nodes(doc, &children)
}

fn compile_body_nodes(doc: &Document, nodes: &[NodeId]) -> Result<Vec<Instruction>, XsltError> {
    let mut out = Vec::new();
    for &child in nodes {
        if let Some(text) = doc.text(child) {
            // whitespace-only text in stylesheets is stripped
            if !text.trim().is_empty() {
                out.push(Instruction::Text(text.to_string()));
            }
            continue;
        }
        let Some(name) = doc.name(child) else {
            continue; // comments/PIs in stylesheet are ignored
        };
        if is_xsl(doc, child) {
            out.push(compile_xsl_instruction(doc, child)?);
        } else {
            out.push(compile_literal_element(doc, child, name.clone())?);
        }
    }
    Ok(out)
}

fn attr_xpath(doc: &Document, node: NodeId, name: &str) -> Result<XPath, XsltError> {
    let v = doc.attr(node, name).ok_or_else(|| {
        XsltError::new(format!(
            "xsl:{} missing required attribute {name:?}",
            doc.local_name(node).unwrap_or("?")
        ))
    })?;
    XPath::parse(v).map_err(XsltError::from)
}

fn compile_sorts(doc: &Document, node: NodeId) -> Result<Vec<SortSpec>, XsltError> {
    let mut sorts = Vec::new();
    for child in doc.child_elements(node) {
        if is_xsl(doc, child) && doc.local_name(child) == Some("sort") {
            let select = XPath::parse(doc.attr(child, "select").unwrap_or("."))?;
            sorts.push(SortSpec {
                select,
                descending: doc.attr(child, "order") == Some("descending"),
                numeric: doc.attr(child, "data-type") == Some("number"),
            });
        }
    }
    Ok(sorts)
}

fn compile_with_params(doc: &Document, node: NodeId) -> Result<Vec<ParamBinding>, XsltError> {
    let mut params = Vec::new();
    for child in doc.child_elements(node) {
        if is_xsl(doc, child) && doc.local_name(child) == Some("with-param") {
            params.push(compile_binding(doc, child)?);
        }
    }
    Ok(params)
}

fn compile_xsl_instruction(doc: &Document, node: NodeId) -> Result<Instruction, XsltError> {
    match doc.local_name(node) {
        Some("value-of") => Ok(Instruction::ValueOf(attr_xpath(doc, node, "select")?)),
        Some("apply-templates") => {
            let select = match doc.attr(node, "select") {
                Some(s) => Some(XPath::parse(s).map_err(XsltError::from)?),
                None => None,
            };
            Ok(Instruction::ApplyTemplates {
                select,
                mode: doc.attr(node, "mode").map(str::to_string),
                params: compile_with_params(doc, node)?,
                sort: compile_sorts(doc, node)?,
            })
        }
        Some("call-template") => Ok(Instruction::CallTemplate {
            name: doc
                .attr(node, "name")
                .ok_or_else(|| XsltError::new("call-template without name"))?
                .to_string(),
            params: compile_with_params(doc, node)?,
        }),
        Some("for-each") => Ok(Instruction::ForEach {
            select: attr_xpath(doc, node, "select")?,
            sort: compile_sorts(doc, node)?,
            body: compile_body_filtered(doc, node, &["sort"])?,
        }),
        Some("if") => Ok(Instruction::If {
            test: attr_xpath(doc, node, "test")?,
            body: compile_body(doc, node)?,
        }),
        Some("choose") => {
            let mut whens = Vec::new();
            let mut otherwise = Vec::new();
            for child in doc.child_elements(node) {
                if !is_xsl(doc, child) {
                    continue;
                }
                match doc.local_name(child) {
                    Some("when") => {
                        whens.push((attr_xpath(doc, child, "test")?, compile_body(doc, child)?))
                    }
                    Some("otherwise") => otherwise = compile_body(doc, child)?,
                    _ => {
                        return Err(XsltError::new("choose may only contain when/otherwise"))
                    }
                }
            }
            if whens.is_empty() {
                return Err(XsltError::new("choose without when"));
            }
            Ok(Instruction::Choose { whens, otherwise })
        }
        Some("variable") | Some("param") => Ok(Instruction::Variable(compile_binding(doc, node)?)),
        Some("element") => Ok(Instruction::Element {
            name: Avt::parse(
                doc.attr(node, "name")
                    .ok_or_else(|| XsltError::new("xsl:element without name"))?,
            )?,
            body: compile_body(doc, node)?,
        }),
        Some("attribute") => Ok(Instruction::Attribute {
            name: Avt::parse(
                doc.attr(node, "name")
                    .ok_or_else(|| XsltError::new("xsl:attribute without name"))?,
            )?,
            body: compile_body(doc, node)?,
        }),
        Some("text") => Ok(Instruction::Text(doc.text_content(node))),
        Some("copy-of") => Ok(Instruction::CopyOf(attr_xpath(doc, node, "select")?)),
        Some("copy") => Ok(Instruction::Copy { body: compile_body(doc, node)? }),
        Some("comment") => Ok(Instruction::Comment { body: compile_body(doc, node)? }),
        Some(other) => Err(XsltError::new(format!("unsupported instruction xsl:{other}"))),
        None => Err(XsltError::new("non-element instruction")),
    }
}

fn compile_body_filtered(
    doc: &Document,
    node: NodeId,
    skip_locals: &[&str],
) -> Result<Vec<Instruction>, XsltError> {
    let children: Vec<NodeId> = doc
        .children(node)
        .iter()
        .copied()
        .filter(|&c| {
            !(doc.is_element(c)
                && is_xsl(doc, c)
                && skip_locals.contains(&doc.local_name(c).unwrap_or("")))
        })
        .collect();
    compile_body_nodes(doc, &children)
}

fn compile_literal_element(doc: &Document, node: NodeId, name: QName) -> Result<Instruction, XsltError> {
    let mut attributes = Vec::new();
    for a in doc.attributes(node) {
        // xmlns:xsl on literal elements is stylesheet plumbing, not output
        if a.name.prefix() == Some("xmlns") && a.value == XSLT_NS {
            continue;
        }
        attributes.push((a.name.clone(), Avt::parse(&a.value)?));
    }
    Ok(Instruction::LiteralElement { name, attributes, body: compile_body(doc, node)? })
}

#[cfg(test)]
mod tests {
    use super::*;

    const MINIMAL: &str = r#"<xsl:stylesheet version="1.0"
        xmlns:xsl="http://www.w3.org/1999/XSL/Transform">
      <xsl:output method="html"/>
      <xsl:template match="/">
        <html><body>
          <h1><xsl:value-of select="//title"/></h1>
          <xsl:apply-templates select="//item"/>
        </body></html>
      </xsl:template>
      <xsl:template match="item">
        <p class="item-{position()}"><xsl:value-of select="."/></p>
      </xsl:template>
    </xsl:stylesheet>"#;

    #[test]
    fn compiles_minimal_stylesheet() {
        let s = Stylesheet::parse(MINIMAL).unwrap();
        assert_eq!(s.templates.len(), 2);
        assert_eq!(s.output_method(), OutputMethod::Html);
    }

    #[test]
    fn avt_parsing() {
        let avt = Avt::parse("item-{position()}-x").unwrap();
        assert_eq!(avt.parts.len(), 3);
        assert!(matches!(&avt.parts[0], AvtPart::Text(t) if t == "item-"));
        assert!(matches!(&avt.parts[1], AvtPart::Expr(_)));
        let escaped = Avt::parse("{{literal}}").unwrap();
        assert_eq!(escaped.parts, vec![AvtPart::Text("{literal}".into())]);
        assert!(Avt::parse("{unterminated").is_err());
        assert!(Avt::parse("bad}brace").is_err());
    }

    #[test]
    fn rejects_non_stylesheet() {
        assert!(Stylesheet::parse("<html/>").is_err());
    }

    #[test]
    fn rejects_template_without_match_or_name() {
        let err = Stylesheet::parse(
            r#"<xsl:stylesheet xmlns:xsl="http://www.w3.org/1999/XSL/Transform">
              <xsl:template><p/></xsl:template></xsl:stylesheet>"#,
        )
        .unwrap_err();
        assert!(err.message().contains("match or name"));
    }

    #[test]
    fn rejects_unknown_instruction() {
        let err = Stylesheet::parse(
            r#"<xsl:stylesheet xmlns:xsl="http://www.w3.org/1999/XSL/Transform">
              <xsl:template match="/"><xsl:frobnicate/></xsl:template>
            </xsl:stylesheet>"#,
        )
        .unwrap_err();
        assert!(err.message().contains("frobnicate"));
    }

    /// A stylesheet that names a function, axis or node test XPath here
    /// does not have — in a `select`, a `test`, a `match` or an attribute
    /// value template — is rejected when it compiles, not when it renders.
    #[test]
    fn rejects_what_xpath_does_not_have() {
        for expr in [
            "frobnicate(.)",
            "contains(.)",
            "ancestor::x",
            "translate(., 'a', 'b')",
            "processing-instruction()",
        ] {
            for body in [
                format!(r#"<xsl:template match="/"><xsl:value-of select="{expr}"/></xsl:template>"#),
                format!(r#"<xsl:template match="/"><xsl:if test="{expr}"><p/></xsl:if></xsl:template>"#),
                format!(r#"<xsl:template match="a[{expr}]"><p/></xsl:template>"#),
                format!(r#"<xsl:template match="/"><p class="{{{expr}}}"/></xsl:template>"#),
            ] {
                let sheet = format!(
                    r#"<xsl:stylesheet xmlns:xsl="http://www.w3.org/1999/XSL/Transform">{body}</xsl:stylesheet>"#
                );
                let name = expr.split(['(', ':']).next().unwrap_or(expr);
                let err = Stylesheet::parse(&sheet).unwrap_err();
                assert!(err.message().contains(name), "{body}: {err}");
            }
        }
    }

    #[test]
    fn template_params_separated_from_body() {
        let s = Stylesheet::parse(
            r#"<xsl:stylesheet xmlns:xsl="http://www.w3.org/1999/XSL/Transform">
              <xsl:template name="greet">
                <xsl:param name="who" select="'world'"/>
                <p><xsl:value-of select="$who"/></p>
              </xsl:template>
              <xsl:template match="/"><xsl:call-template name="greet"/></xsl:template>
            </xsl:stylesheet>"#,
        )
        .unwrap();
        let t = s.templates.iter().find(|t| t.name.as_deref() == Some("greet")).unwrap();
        assert_eq!(t.params.len(), 1);
        assert_eq!(t.body.len(), 1);
    }

    #[test]
    fn transform_alias_accepted() {
        let s = Stylesheet::parse(
            r#"<xsl:transform xmlns:xsl="http://www.w3.org/1999/XSL/Transform">
              <xsl:template match="/"><out/></xsl:template>
            </xsl:transform>"#,
        )
        .unwrap();
        assert_eq!(s.templates.len(), 1);
    }

    #[test]
    fn nesting_a_downloaded_stylesheet_chooses_is_an_error_not_a_stack_overflow() {
        let sheet = |body: &str| {
            format!(
                r#"<xsl:stylesheet xmlns:xsl="http://www.w3.org/1999/XSL/Transform">{body}</xsl:stylesheet>"#
            )
        };
        let parens = |n: usize| format!("{}1{}", "(".repeat(n), ")".repeat(n));
        let elements = |n: usize| format!("{}{}", "<p>".repeat(n), "</p>".repeat(n));
        for n in [1_000, 200_000] {
            let deep = parens(n);
            for body in [
                format!(r#"<xsl:template match="/"><xsl:value-of select="{deep}"/></xsl:template>"#),
                format!(r#"<xsl:template match="/"><xsl:if test="{deep}"><p/></xsl:if></xsl:template>"#),
                format!(r#"<xsl:template match="a[{deep}]"><p/></xsl:template>"#),
                format!(r#"<xsl:template match="/"><p class="{{{deep}}}"/></xsl:template>"#),
            ] {
                let err = Stylesheet::parse(&sheet(&body)).unwrap_err();
                assert!(err.to_string().contains("levels deep"), "{n}: {err}");
            }
            let err = Stylesheet::parse(&sheet(&format!(
                r#"<xsl:template match="/">{}</xsl:template>"#,
                elements(n)
            )))
            .unwrap_err();
            assert!(err.to_string().contains("nested deeper"), "{n}: {err}");
        }
        // what real stylesheets nest still compiles
        let ok = format!(r#"<xsl:template match="a[{}]">{}</xsl:template>"#, parens(8), elements(20));
        assert_eq!(Stylesheet::parse(&sheet(&ok)).unwrap().templates.len(), 1);
    }
}
