//! The transformation engine: applies a compiled [`Stylesheet`] to a source
//! document, producing a result document.

use crate::compiler::{
    Avt, AvtPart, Instruction, OutputMethod, ParamBinding, SortSpec, Stylesheet, Template,
};
use crate::error::XsltError;
use crate::output;
use std::collections::HashMap;
use up2p_xml::{Context, Document, NodeId, NodeKind, QName, Value, XNode, XPath};

/// Maximum template-application nesting before the engine reports runaway
/// recursion. Kept conservative: each level costs several stack frames and
/// the engine must stay usable on 2 MiB test-thread stacks. Real U-P2P
/// stylesheets nest a handful of levels; source trees deeper than this are
/// pathological.
const MAX_DEPTH: usize = 64;

impl Stylesheet {
    /// Applies the stylesheet to `source`, returning the result tree.
    ///
    /// # Errors
    ///
    /// Returns [`XsltError`] for evaluation failures (unknown variables or
    /// functions, non-node-set `select`s, runaway recursion, ...).
    pub fn apply(&self, source: &Document) -> Result<Document, XsltError> {
        self.apply_with_params(source, &HashMap::new())
    }

    /// Applies the stylesheet with externally supplied global parameters.
    ///
    /// # Errors
    ///
    /// Same conditions as [`Stylesheet::apply`].
    pub fn apply_with_params(
        &self,
        source: &Document,
        params: &HashMap<String, Value>,
    ) -> Result<Document, XsltError> {
        let mut engine = Engine {
            sheet: self,
            src: source,
            out: Document::new(),
            vars: params.clone(),
            depth: 0,
        };
        // global variables, evaluated against the root context
        for g in &self.globals {
            if engine.vars.contains_key(&g.name) {
                continue; // external parameter overrides xsl:param default
            }
            let v = engine.eval_binding(g, XNode::Node(source.root()), 1, 1)?;
            engine.vars.insert(g.name.clone(), v);
        }
        let root = engine.out.root();
        engine.apply_templates_to(
            &[XNode::Node(source.root())],
            None,
            &[],
            root,
        )?;
        Ok(engine.out)
    }

    /// Applies the stylesheet and serializes per its `xsl:output` method.
    ///
    /// # Errors
    ///
    /// Same conditions as [`Stylesheet::apply`].
    pub fn apply_to_string(&self, source: &Document) -> Result<String, XsltError> {
        let doc = self.apply(source)?;
        Ok(match self.output_method() {
            OutputMethod::Xml => doc.to_xml_string(),
            OutputMethod::Html => output::to_html(&doc),
            OutputMethod::Text => doc.text_content(doc.root()),
        })
    }
}

struct Engine<'s, 'd> {
    sheet: &'s Stylesheet,
    src: &'d Document,
    out: Document,
    /// Flat variable map with shadow/restore handled by an undo log at
    /// each scope boundary.
    vars: HashMap<String, Value>,
    depth: usize,
}

/// Undo log entry for variable shadowing.
type Undo = Vec<(String, Option<Value>)>;

impl Engine<'_, '_> {
    fn bind_var(&mut self, undo: &mut Undo, name: &str, value: Value) {
        let old = self.vars.insert(name.to_string(), value);
        undo.push((name.to_string(), old));
    }

    fn unwind(&mut self, undo: Undo) {
        for (name, old) in undo.into_iter().rev() {
            match old {
                Some(v) => {
                    self.vars.insert(name, v);
                }
                None => {
                    self.vars.remove(&name);
                }
            }
        }
    }

    fn ctx<'a>(&'a self, node: XNode, position: usize, size: usize) -> Context<'a> {
        Context { doc: self.src, node, position, size, vars: &self.vars }
    }

    fn eval(&self, xp: &XPath, node: XNode, pos: usize, size: usize) -> Result<Value, XsltError> {
        Ok(xp.eval(&self.ctx(node, pos, size))?)
    }

    fn eval_string(
        &self,
        xp: &XPath,
        node: XNode,
        pos: usize,
        size: usize,
    ) -> Result<String, XsltError> {
        Ok(self.eval(xp, node, pos, size)?.into_string(self.src))
    }

    fn eval_avt(
        &mut self,
        avt: &Avt,
        node: XNode,
        pos: usize,
        size: usize,
    ) -> Result<String, XsltError> {
        let mut out = String::new();
        for part in &avt.parts {
            match part {
                AvtPart::Text(t) => out.push_str(t),
                AvtPart::Expr(xp) => out.push_str(&self.eval_string(xp, node, pos, size)?),
            }
        }
        Ok(out)
    }

    fn eval_binding(
        &mut self,
        binding: &ParamBinding,
        node: XNode,
        pos: usize,
        size: usize,
    ) -> Result<Value, XsltError> {
        match &binding.select {
            Some(xp) => self.eval(xp, node, pos, size),
            None => {
                if binding.body.is_empty() {
                    return Ok(Value::Str(String::new()));
                }
                let s = self.exec_to_string(&binding.body, node, pos, size)?;
                Ok(Value::Str(s))
            }
        }
    }

    /// Executes instructions into a detached fragment and returns its
    /// string value (used for variables-with-body, attribute bodies, ...).
    fn exec_to_string(
        &mut self,
        body: &[Instruction],
        node: XNode,
        pos: usize,
        size: usize,
    ) -> Result<String, XsltError> {
        let frag = self.out.create_element(QName::local_only("fragment"));
        self.exec_all(body, node, pos, size, frag)?;
        Ok(self.out.text_content(frag))
    }

    fn exec_all(
        &mut self,
        body: &[Instruction],
        node: XNode,
        pos: usize,
        size: usize,
        parent: NodeId,
    ) -> Result<(), XsltError> {
        let mut undo = Undo::new();
        for inst in body {
            self.exec(inst, node, pos, size, parent, &mut undo)?;
        }
        self.unwind(undo);
        Ok(())
    }

    fn exec(
        &mut self,
        inst: &Instruction,
        node: XNode,
        pos: usize,
        size: usize,
        parent: NodeId,
        undo: &mut Undo,
    ) -> Result<(), XsltError> {
        match inst {
            Instruction::Text(t) => {
                let id = self.out.create_text(t.clone());
                self.out.append_child(parent, id);
            }
            Instruction::ValueOf(xp) => {
                let s = self.eval_string(xp, node, pos, size)?;
                if !s.is_empty() {
                    let id = self.out.create_text(s);
                    self.out.append_child(parent, id);
                }
            }
            Instruction::LiteralElement { name, attributes, body } => {
                let el = self.out.create_element(name.clone());
                self.out.append_child(parent, el);
                for (aname, avt) in attributes {
                    let v = self.eval_avt(avt, node, pos, size)?;
                    self.out.set_attr(el, aname.clone(), v);
                }
                self.exec_all(body, node, pos, size, el)?;
            }
            Instruction::Element { name, body } => {
                let n = self.eval_avt(name, node, pos, size)?;
                let qname: QName = n
                    .parse()
                    .map_err(|_| XsltError::new(format!("xsl:element produced bad name {n:?}")))?;
                let el = self.out.create_element(qname);
                self.out.append_child(parent, el);
                self.exec_all(body, node, pos, size, el)?;
            }
            Instruction::Attribute { name, body } => {
                if !self.out.is_element(parent) {
                    return Err(XsltError::new(
                        "xsl:attribute outside an element context",
                    ));
                }
                let n = self.eval_avt(name, node, pos, size)?;
                let qname: QName = n.parse().map_err(|_| {
                    XsltError::new(format!("xsl:attribute produced bad name {n:?}"))
                })?;
                let v = self.exec_to_string(body, node, pos, size)?;
                self.out.set_attr(parent, qname, v);
            }
            Instruction::If { test, body } => {
                if self.eval(test, node, pos, size)?.into_bool() {
                    self.exec_all(body, node, pos, size, parent)?;
                }
            }
            Instruction::Choose { whens, otherwise } => {
                for (test, body) in whens {
                    if self.eval(test, node, pos, size)?.into_bool() {
                        return self.exec_all(body, node, pos, size, parent);
                    }
                }
                self.exec_all(otherwise, node, pos, size, parent)?;
            }
            Instruction::ForEach { select, sort, body } => {
                let nodes = self.eval(select, node, pos, size)?.into_nodes()?;
                let nodes = self.sorted(nodes, sort)?;
                let n = nodes.len();
                for (i, item) in nodes.into_iter().enumerate() {
                    self.exec_all(body, item, i + 1, n, parent)?;
                }
            }
            Instruction::Variable(binding) => {
                let v = self.eval_binding(binding, node, pos, size)?;
                self.bind_var(undo, &binding.name, v);
            }
            Instruction::CopyOf(xp) => match self.eval(xp, node, pos, size)? {
                Value::Nodes(nodes) => {
                    for n in nodes {
                        match n {
                            XNode::Node(id) => {
                                if matches!(self.src.kind(id), NodeKind::Document) {
                                    for &c in self.src.children(id) {
                                        let copy = self.out.import_subtree(self.src, c);
                                        self.out.append_child(parent, copy);
                                    }
                                } else {
                                    let copy = self.out.import_subtree(self.src, id);
                                    self.out.append_child(parent, copy);
                                }
                            }
                            XNode::Attr(owner, idx) => {
                                if let Some(a) = self.src.attributes(owner).get(idx) {
                                    if self.out.is_element(parent) {
                                        self.out.set_attr(
                                            parent,
                                            a.name.clone(),
                                            a.value.clone(),
                                        );
                                    }
                                }
                            }
                        }
                    }
                }
                other => {
                    let s = other.into_string(self.src);
                    if !s.is_empty() {
                        let id = self.out.create_text(s);
                        self.out.append_child(parent, id);
                    }
                }
            },
            Instruction::Copy { body } => match node {
                XNode::Node(id) => match self.src.kind(id).clone() {
                    NodeKind::Element { name, .. } => {
                        let el = self.out.create_element(name);
                        self.out.append_child(parent, el);
                        self.exec_all(body, node, pos, size, el)?;
                    }
                    NodeKind::Text(t) => {
                        let id = self.out.create_text(t);
                        self.out.append_child(parent, id);
                    }
                    NodeKind::Comment(c) => {
                        let id = self.out.create_comment(c);
                        self.out.append_child(parent, id);
                    }
                    NodeKind::Document => {
                        self.exec_all(body, node, pos, size, parent)?;
                    }
                    NodeKind::ProcessingInstruction { target, data } => {
                        let id = self.out.create_pi(target, data);
                        self.out.append_child(parent, id);
                    }
                },
                XNode::Attr(owner, idx) => {
                    if let Some(a) = self.src.attributes(owner).get(idx) {
                        if self.out.is_element(parent) {
                            let (n, v) = (a.name.clone(), a.value.clone());
                            self.out.set_attr(parent, n, v);
                        }
                    }
                }
            },
            Instruction::Comment { body } => {
                let s = self.exec_to_string(body, node, pos, size)?;
                let id = self.out.create_comment(s);
                self.out.append_child(parent, id);
            }
            Instruction::ApplyTemplates { select, mode, params, sort } => {
                let nodes = match select {
                    Some(xp) => self.eval(xp, node, pos, size)?.into_nodes()?,
                    None => match node {
                        XNode::Node(id) => {
                            self.src.children(id).iter().map(|&c| XNode::Node(c)).collect()
                        }
                        XNode::Attr(..) => Vec::new(),
                    },
                };
                let nodes = self.sorted(nodes, sort)?;
                let bound = self.bind_params(params, node, pos, size)?;
                self.apply_templates_to(&nodes, mode.as_deref(), &bound, parent)?;
            }
            Instruction::CallTemplate { name, params } => {
                let template = self
                    .sheet
                    .templates
                    .iter()
                    .find(|t| t.name.as_deref() == Some(name.as_str()))
                    .ok_or_else(|| XsltError::new(format!("no template named {name:?}")))?;
                let bound = self.bind_params(params, node, pos, size)?;
                self.run_template(template, node, pos, size, &bound, parent)?;
            }
        }
        Ok(())
    }

    fn bind_params(
        &mut self,
        params: &[ParamBinding],
        node: XNode,
        pos: usize,
        size: usize,
    ) -> Result<Vec<(String, Value)>, XsltError> {
        let mut out = Vec::with_capacity(params.len());
        for p in params {
            let v = self.eval_binding(p, node, pos, size)?;
            out.push((p.name.clone(), v));
        }
        Ok(out)
    }

    fn sorted(&mut self, nodes: Vec<XNode>, sorts: &[SortSpec]) -> Result<Vec<XNode>, XsltError> {
        if sorts.is_empty() {
            return Ok(nodes);
        }
        // evaluate all keys first (stable sort over precomputed keys)
        let mut keyed: Vec<(Vec<String>, XNode)> = Vec::with_capacity(nodes.len());
        let size = nodes.len();
        for (i, n) in nodes.iter().enumerate() {
            let mut keys = Vec::with_capacity(sorts.len());
            for s in sorts {
                keys.push(self.eval_string(&s.select, *n, i + 1, size)?);
            }
            keyed.push((keys, *n));
        }
        keyed.sort_by(|(ka, _), (kb, _)| {
            for (i, s) in sorts.iter().enumerate() {
                let ord = if s.numeric {
                    let na: f64 = ka[i].trim().parse().unwrap_or(f64::NAN);
                    let nb: f64 = kb[i].trim().parse().unwrap_or(f64::NAN);
                    na.partial_cmp(&nb).unwrap_or(std::cmp::Ordering::Equal)
                } else {
                    ka[i].cmp(&kb[i])
                };
                let ord = if s.descending { ord.reverse() } else { ord };
                if ord != std::cmp::Ordering::Equal {
                    return ord;
                }
            }
            std::cmp::Ordering::Equal
        });
        Ok(keyed.into_iter().map(|(_, n)| n).collect())
    }

    fn apply_templates_to(
        &mut self,
        nodes: &[XNode],
        mode: Option<&str>,
        params: &[(String, Value)],
        parent: NodeId,
    ) -> Result<(), XsltError> {
        let size = nodes.len();
        for (i, &node) in nodes.iter().enumerate() {
            match best_template(self.sheet, self.src, node, mode) {
                Some(t) => {
                    self.run_template(t, node, i + 1, size, params, parent)?;
                }
                None => self.builtin_rule(node, mode, parent)?,
            }
        }
        Ok(())
    }

    fn run_template(
        &mut self,
        template: &Template,
        node: XNode,
        pos: usize,
        size: usize,
        params: &[(String, Value)],
        parent: NodeId,
    ) -> Result<(), XsltError> {
        self.depth += 1;
        if self.depth > MAX_DEPTH {
            self.depth -= 1;
            return Err(XsltError::new("template recursion too deep"));
        }
        let mut undo = Undo::new();
        // declared params: passed value or default
        for p in &template.params {
            let value = match params.iter().find(|(n, _)| n == &p.name) {
                Some((_, v)) => v.clone(),
                None => self.eval_binding(p, node, pos, size)?,
            };
            self.bind_var(&mut undo, &p.name, value);
        }
        let result = self.exec_all(&template.body, node, pos, size, parent);
        self.unwind(undo);
        self.depth -= 1;
        result
    }

    /// XSLT built-in template rules.
    fn builtin_rule(
        &mut self,
        node: XNode,
        mode: Option<&str>,
        parent: NodeId,
    ) -> Result<(), XsltError> {
        match node {
            XNode::Node(id) => match self.src.kind(id) {
                NodeKind::Document | NodeKind::Element { .. } => {
                    self.depth += 1;
                    if self.depth > MAX_DEPTH {
                        self.depth -= 1;
                        return Err(XsltError::new("template recursion too deep"));
                    }
                    let children: Vec<XNode> =
                        self.src.children(id).iter().map(|&c| XNode::Node(c)).collect();
                    let r = self.apply_templates_to(&children, mode, &[], parent);
                    self.depth -= 1;
                    r
                }
                NodeKind::Text(t) => {
                    let id = self.out.create_text(t.clone());
                    self.out.append_child(parent, id);
                    Ok(())
                }
                _ => Ok(()),
            },
            XNode::Attr(owner, idx) => {
                if let Some(a) = self.src.attributes(owner).get(idx) {
                    let id = self.out.create_text(a.value.clone());
                    self.out.append_child(parent, id);
                }
                Ok(())
            }
        }
    }
}

/// Highest-priority template matching `node` in `mode` (later declaration
/// wins ties). Free function so the template borrow is tied to the
/// stylesheet, not the engine.
fn best_template<'s>(
    sheet: &'s Stylesheet,
    src: &Document,
    node: XNode,
    mode: Option<&str>,
) -> Option<&'s Template> {
    sheet
        .templates
        .iter()
        .filter(|t| t.mode.as_deref() == mode)
        .filter(|t| t.pattern.as_ref().map(|p| p.matches(src, node)).unwrap_or(false))
        .max_by(|a, b| {
            a.priority
                .partial_cmp(&b.priority)
                .unwrap_or(std::cmp::Ordering::Equal)
                .then(a.order.cmp(&b.order))
        })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn transform(xslt: &str, xml: &str) -> String {
        let sheet = Stylesheet::parse(xslt).unwrap();
        let src = Document::parse(xml).unwrap();
        sheet.apply_to_string(&src).unwrap()
    }

    const XSL_NS: &str = r#"xmlns:xsl="http://www.w3.org/1999/XSL/Transform""#;

    #[test]
    fn identity_ish_value_of() {
        let out = transform(
            &format!(
                r#"<xsl:stylesheet {XSL_NS}>
                  <xsl:template match="/">
                    <greeting><xsl:value-of select="/hello"/></greeting>
                  </xsl:template>
                </xsl:stylesheet>"#
            ),
            "<hello>world</hello>",
        );
        assert_eq!(out, "<greeting>world</greeting>");
    }

    #[test]
    fn apply_templates_with_match_rules() {
        let out = transform(
            &format!(
                r#"<xsl:stylesheet {XSL_NS}>
                  <xsl:template match="/"><list><xsl:apply-templates select="//item"/></list></xsl:template>
                  <xsl:template match="item"><li><xsl:value-of select="."/></li></xsl:template>
                </xsl:stylesheet>"#
            ),
            "<items><item>a</item><item>b</item></items>",
        );
        assert_eq!(out, "<list><li>a</li><li>b</li></list>");
    }

    #[test]
    fn builtin_rules_copy_text_through() {
        let out = transform(
            &format!(
                r#"<xsl:stylesheet {XSL_NS}>
                  <xsl:template match="b"><strong><xsl:apply-templates/></strong></xsl:template>
                </xsl:stylesheet>"#
            ),
            "<p>one <b>two</b> three</p>",
        );
        assert_eq!(out, "one <strong>two</strong> three");
    }

    #[test]
    fn for_each_with_position() {
        let out = transform(
            &format!(
                r#"<xsl:stylesheet {XSL_NS}>
                  <xsl:template match="/">
                    <xsl:for-each select="//n"><v p="{{position()}}"><xsl:value-of select="."/></v></xsl:for-each>
                  </xsl:template>
                </xsl:stylesheet>"#
            ),
            "<d><n>x</n><n>y</n></d>",
        );
        assert_eq!(out, r#"<v p="1">x</v><v p="2">y</v>"#);
    }

    #[test]
    fn if_and_choose() {
        let out = transform(
            &format!(
                r#"<xsl:stylesheet {XSL_NS}>
                  <xsl:template match="/">
                    <xsl:for-each select="//n">
                      <xsl:choose>
                        <xsl:when test=". &gt; 10"><big/></xsl:when>
                        <xsl:otherwise><small/></xsl:otherwise>
                      </xsl:choose>
                      <xsl:if test=". = 5"><five/></xsl:if>
                    </xsl:for-each>
                  </xsl:template>
                </xsl:stylesheet>"#
            ),
            "<d><n>5</n><n>20</n></d>",
        );
        assert_eq!(out, "<small/><five/><big/>");
    }

    #[test]
    fn variables_and_params() {
        let out = transform(
            &format!(
                r#"<xsl:stylesheet {XSL_NS}>
                  <xsl:template match="/">
                    <xsl:variable name="greeting" select="'hi'"/>
                    <xsl:call-template name="emit">
                      <xsl:with-param name="text" select="concat($greeting, ' there')"/>
                    </xsl:call-template>
                  </xsl:template>
                  <xsl:template name="emit">
                    <xsl:param name="text" select="'default'"/>
                    <out><xsl:value-of select="$text"/></out>
                  </xsl:template>
                </xsl:stylesheet>"#
            ),
            "<x/>",
        );
        assert_eq!(out, "<out>hi there</out>");
    }

    #[test]
    fn param_default_used_when_not_passed() {
        let out = transform(
            &format!(
                r#"<xsl:stylesheet {XSL_NS}>
                  <xsl:template match="/">
                    <xsl:call-template name="emit"/>
                  </xsl:template>
                  <xsl:template name="emit">
                    <xsl:param name="text" select="'default'"/>
                    <out><xsl:value-of select="$text"/></out>
                  </xsl:template>
                </xsl:stylesheet>"#
            ),
            "<x/>",
        );
        assert_eq!(out, "<out>default</out>");
    }

    #[test]
    fn xsl_element_and_attribute() {
        let out = transform(
            &format!(
                r#"<xsl:stylesheet {XSL_NS}>
                  <xsl:template match="/">
                    <xsl:element name="{{//tag}}">
                      <xsl:attribute name="id">x<xsl:value-of select="//num"/></xsl:attribute>
                      <xsl:text>body</xsl:text>
                    </xsl:element>
                  </xsl:template>
                </xsl:stylesheet>"#
            ),
            "<d><tag>section</tag><num>7</num></d>",
        );
        assert_eq!(out, r#"<section id="x7">body</section>"#);
    }

    #[test]
    fn copy_of_deep_copies() {
        let out = transform(
            &format!(
                r#"<xsl:stylesheet {XSL_NS}>
                  <xsl:template match="/"><wrap><xsl:copy-of select="//keep"/></wrap></xsl:template>
                </xsl:stylesheet>"#
            ),
            "<d><keep a='1'><inner>t</inner></keep><drop/></d>",
        );
        assert_eq!(out, r#"<wrap><keep a="1"><inner>t</inner></keep></wrap>"#);
    }

    #[test]
    fn copy_shallow_with_recursive_identity() {
        // classic identity transform via xsl:copy
        let out = transform(
            &format!(
                r#"<xsl:stylesheet {XSL_NS}>
                  <xsl:template match="@*|node()">
                    <xsl:copy><xsl:apply-templates select="@*|node()"/></xsl:copy>
                  </xsl:template>
                </xsl:stylesheet>"#
            ),
            r#"<a x="1"><b>text</b><!--c--></a>"#,
        );
        assert_eq!(out, r#"<a x="1"><b>text</b><!--c--></a>"#);
    }

    #[test]
    fn modes_select_different_rules() {
        let out = transform(
            &format!(
                r#"<xsl:stylesheet {XSL_NS}>
                  <xsl:template match="/">
                    <xsl:apply-templates select="//x"/>
                    <xsl:apply-templates select="//x" mode="loud"/>
                  </xsl:template>
                  <xsl:template match="x"><quiet/></xsl:template>
                  <xsl:template match="x" mode="loud"><LOUD/></xsl:template>
                </xsl:stylesheet>"#
            ),
            "<d><x/></d>",
        );
        assert_eq!(out, "<quiet/><LOUD/>");
    }

    #[test]
    fn priority_resolves_conflicts() {
        let out = transform(
            &format!(
                r#"<xsl:stylesheet {XSL_NS}>
                  <xsl:template match="/"><xsl:apply-templates select="//b"/></xsl:template>
                  <xsl:template match="*"><star/></xsl:template>
                  <xsl:template match="b"><bee/></xsl:template>
                </xsl:stylesheet>"#
            ),
            "<a><b/></a>",
        );
        assert_eq!(out, "<bee/>"); // name test beats wildcard
    }

    #[test]
    fn sort_ascending_and_numeric() {
        let out = transform(
            &format!(
                r#"<xsl:stylesheet {XSL_NS}>
                  <xsl:template match="/">
                    <xsl:for-each select="//n">
                      <xsl:sort select="." data-type="number"/>
                      <v><xsl:value-of select="."/></v>
                    </xsl:for-each>
                  </xsl:template>
                </xsl:stylesheet>"#
            ),
            "<d><n>10</n><n>2</n><n>33</n></d>",
        );
        assert_eq!(out, "<v>2</v><v>10</v><v>33</v>");
    }

    #[test]
    fn sort_descending_string() {
        let out = transform(
            &format!(
                r#"<xsl:stylesheet {XSL_NS}>
                  <xsl:template match="/">
                    <xsl:for-each select="//n">
                      <xsl:sort select="." order="descending"/>
                      <xsl:value-of select="."/>
                    </xsl:for-each>
                  </xsl:template>
                </xsl:stylesheet>"#
            ),
            "<d><n>apple</n><n>cherry</n><n>banana</n></d>",
        );
        assert_eq!(out, "cherrybananaapple");
    }

    #[test]
    fn global_variables_and_external_params() {
        let sheet = Stylesheet::parse(
            &format!(
                r#"<xsl:stylesheet {XSL_NS}>
                  <xsl:param name="who" select="'nobody'"/>
                  <xsl:template match="/"><p><xsl:value-of select="$who"/></p></xsl:template>
                </xsl:stylesheet>"#
            ),
        )
        .unwrap();
        let src = Document::parse("<x/>").unwrap();
        // default
        assert_eq!(sheet.apply(&src).unwrap().to_xml_string(), "<p>nobody</p>");
        // overridden
        let mut params = HashMap::new();
        params.insert("who".to_string(), Value::Str("alice".to_string()));
        assert_eq!(
            sheet.apply_with_params(&src, &params).unwrap().to_xml_string(),
            "<p>alice</p>"
        );
    }

    #[test]
    fn comment_output() {
        let out = transform(
            &format!(
                r#"<xsl:stylesheet {XSL_NS}>
                  <xsl:template match="/"><r><xsl:comment>gen</xsl:comment></r></xsl:template>
                </xsl:stylesheet>"#
            ),
            "<x/>",
        );
        assert_eq!(out, "<r><!--gen--></r>");
    }

    #[test]
    fn runaway_recursion_is_detected() {
        let sheet = Stylesheet::parse(
            &format!(
                r#"<xsl:stylesheet {XSL_NS}>
                  <xsl:template match="/"><xsl:call-template name="loop"/></xsl:template>
                  <xsl:template name="loop"><xsl:call-template name="loop"/></xsl:template>
                </xsl:stylesheet>"#
            ),
        )
        .unwrap();
        let src = Document::parse("<x/>").unwrap();
        let err = sheet.apply(&src).unwrap_err();
        assert!(err.message().contains("recursion"));
    }

    #[test]
    fn unknown_variable_reported() {
        let sheet = Stylesheet::parse(
            &format!(
                r#"<xsl:stylesheet {XSL_NS}>
                  <xsl:template match="/"><xsl:value-of select="$missing"/></xsl:template>
                </xsl:stylesheet>"#
            ),
        )
        .unwrap();
        let src = Document::parse("<x/>").unwrap();
        assert!(sheet.apply(&src).is_err());
    }

    #[test]
    fn variable_scoping_is_lexical() {
        let out = transform(
            &format!(
                r#"<xsl:stylesheet {XSL_NS}>
                  <xsl:template match="/">
                    <xsl:variable name="v" select="'outer'"/>
                    <xsl:for-each select="//n">
                      <xsl:variable name="v" select="'inner'"/>
                      <a><xsl:value-of select="$v"/></a>
                    </xsl:for-each>
                    <b><xsl:value-of select="$v"/></b>
                  </xsl:template>
                </xsl:stylesheet>"#
            ),
            "<d><n/></d>",
        );
        assert_eq!(out, "<a>inner</a><b>outer</b>");
    }

    #[test]
    fn apply_templates_passes_with_params() {
        let out = transform(
            &format!(
                r#"<xsl:stylesheet {XSL_NS}>
                  <xsl:template match="/">
                    <xsl:apply-templates select="//item">
                      <xsl:with-param name="prefix" select="'#'"/>
                    </xsl:apply-templates>
                  </xsl:template>
                  <xsl:template match="item">
                    <xsl:param name="prefix" select="'?'"/>
                    <v><xsl:value-of select="concat($prefix, .)"/></v>
                  </xsl:template>
                </xsl:stylesheet>"#
            ),
            "<d><item>a</item><item>b</item></d>",
        );
        assert_eq!(out, "<v>#a</v><v>#b</v>");
    }

    #[test]
    fn apply_templates_with_sort() {
        let out = transform(
            &format!(
                r#"<xsl:stylesheet {XSL_NS}>
                  <xsl:template match="/">
                    <xsl:apply-templates select="//n">
                      <xsl:sort select="." data-type="number" order="descending"/>
                    </xsl:apply-templates>
                  </xsl:template>
                  <xsl:template match="n"><v><xsl:value-of select="."/></v></xsl:template>
                </xsl:stylesheet>"#
            ),
            "<d><n>2</n><n>10</n><n>5</n></d>",
        );
        assert_eq!(out, "<v>10</v><v>5</v><v>2</v>");
    }

    #[test]
    fn nested_literal_elements_with_avts_in_nested_scopes() {
        let out = transform(
            &format!(
                r#"<xsl:stylesheet {XSL_NS}>
                  <xsl:template match="/">
                    <table>
                      <xsl:for-each select="//row">
                        <tr id="r{{position()}}">
                          <xsl:for-each select="cell">
                            <td c="{{position()}}"><xsl:value-of select="."/></td>
                          </xsl:for-each>
                        </tr>
                      </xsl:for-each>
                    </table>
                  </xsl:template>
                </xsl:stylesheet>"#
            ),
            "<t><row><cell>a</cell><cell>b</cell></row><row><cell>c</cell></row></t>",
        );
        assert_eq!(
            out,
            r#"<table><tr id="r1"><td c="1">a</td><td c="2">b</td></tr><tr id="r2"><td c="1">c</td></tr></table>"#
        );
    }

    #[test]
    fn text_output_method() {
        let sheet = Stylesheet::parse(
            &format!(
                r#"<xsl:stylesheet {XSL_NS}>
                  <xsl:output method="text"/>
                  <xsl:template match="/">name=<xsl:value-of select="//name"/></xsl:template>
                </xsl:stylesheet>"#
            ),
        )
        .unwrap();
        let src = Document::parse("<o><name>Observer</name></o>").unwrap();
        assert_eq!(sheet.apply_to_string(&src).unwrap(), "name=Observer");
    }
}
