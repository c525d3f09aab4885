//! XPath 1.0 subset ("XPath-lite") used by the XSLT engine and the U-P2P
//! query layer.
//!
//! The language is closed, and checked when an expression is parsed:
//!
//! * axes: `child`, `attribute`, `self`, `parent` and
//!   `descendant-or-self`, with the `@` `.` `..` `//` abbreviations;
//! * node tests: names (`p:x`, `p:*`), `*`, `text()`, `node()` and
//!   `comment()`;
//! * functions ([`Function`]): `position()`, `last()`, `count(ns)`,
//!   `name(ns?)`, `contains(s, s)`, `concat(s, s, …)` and the conversions
//!   `string(x?)`, `number(x?)`, `boolean(x)`, `not(x)`, `true()`,
//!   `false()`;
//! * predicates, variables (`$x`), unions and the full
//!   boolean/relational/arithmetic operator set.
//!
//! Any other axis, node test or function name, and a function given the
//! wrong number of arguments, is a parse error — a stylesheet a stranger
//! wrote fails when it compiles, not when it renders. Node-sets may
//! contain attribute nodes ([`XNode::Attr`]) with correct set-comparison
//! semantics. One evaluation visits at most `MAX_VISITS` nodes (2^22) and
//! reports an error past that, so a nested query such as `//*[//*[//*]]`
//! over a deep document fails fast instead of running for hours.
//!
//! ```
//! use up2p_xml::{Document, XPath};
//! let doc = Document::parse("<c><name>mp3</name><name>cml</name></c>")?;
//! let xp = XPath::parse("/c/name[2]")?;
//! let v = xp.eval_root(&doc)?;
//! assert_eq!(v.into_string(&doc), "cml");
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

use crate::document::{Document, NodeId, NodeKind};
use crate::error::XPathError;
use std::cell::{Cell, OnceCell};
use std::collections::HashMap;
use std::fmt;

// ---------------------------------------------------------------------------
// values
// ---------------------------------------------------------------------------

/// A node in the XPath data model: either a tree node or an attribute of
/// one (attributes are not arena nodes in [`Document`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum XNode {
    /// An element, text, comment, PI or the document root.
    Node(NodeId),
    /// Attribute `index` of element `NodeId`.
    Attr(NodeId, usize),
}

impl XNode {
    /// The underlying tree node (the owning element for attributes).
    pub fn node_id(self) -> NodeId {
        match self {
            XNode::Node(n) | XNode::Attr(n, _) => n,
        }
    }

    /// String-value per XPath 1.0 (text content for elements, the value for
    /// attributes).
    pub fn string_value(self, doc: &Document) -> String {
        match self {
            XNode::Node(n) => doc.text_content(n),
            XNode::Attr(n, i) => {
                doc.attributes(n).get(i).map(|a| a.value.clone()).unwrap_or_default()
            }
        }
    }

    /// Name of the node (element name or attribute name), empty for other
    /// kinds.
    pub fn name(self, doc: &Document) -> String {
        match self {
            XNode::Node(n) => doc.name(n).map(|q| q.to_string()).unwrap_or_default(),
            XNode::Attr(n, i) => {
                doc.attributes(n).get(i).map(|a| a.name.to_string()).unwrap_or_default()
            }
        }
    }
}

/// Result of evaluating an XPath expression.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// A set of nodes in document order without duplicates.
    Nodes(Vec<XNode>),
    /// A string.
    Str(String),
    /// A double-precision number (may be NaN).
    Num(f64),
    /// A boolean.
    Bool(bool),
}

impl Value {
    /// Converts to a string per XPath rules (first node's string-value for
    /// node-sets; empty string for the empty set).
    pub fn into_string(self, doc: &Document) -> String {
        match self {
            Value::Nodes(ns) => ns.first().map(|n| n.string_value(doc)).unwrap_or_default(),
            Value::Str(s) => s,
            Value::Num(n) => format_number(n),
            Value::Bool(b) => if b { "true" } else { "false" }.to_string(),
        }
    }

    /// Converts to a number per XPath rules.
    pub fn into_number(self, doc: &Document) -> f64 {
        match self {
            Value::Num(n) => n,
            Value::Str(s) => parse_number(&s),
            Value::Bool(b) => {
                if b {
                    1.0
                } else {
                    0.0
                }
            }
            v @ Value::Nodes(_) => parse_number(&v.into_string(doc)),
        }
    }

    /// Converts to a boolean per XPath rules (non-empty node-set, non-empty
    /// string, non-zero non-NaN number).
    pub fn into_bool(self) -> bool {
        match self {
            Value::Nodes(ns) => !ns.is_empty(),
            Value::Str(s) => !s.is_empty(),
            Value::Num(n) => n != 0.0 && !n.is_nan(),
            Value::Bool(b) => b,
        }
    }

    /// The node-set, or an error for non-node values.
    ///
    /// # Errors
    ///
    /// Returns [`XPathError`] when the value is a string, number or boolean.
    pub fn into_nodes(self) -> Result<Vec<XNode>, XPathError> {
        match self {
            Value::Nodes(ns) => Ok(ns),
            other => Err(XPathError::new(format!("expected node-set, got {other:?}"))),
        }
    }
}

/// Formats a number the way XPath's `string()` does (integers without a
/// decimal point).
pub fn format_number(n: f64) -> String {
    if n.is_nan() {
        "NaN".to_string()
    } else if n.is_infinite() {
        if n > 0.0 { "Infinity" } else { "-Infinity" }.to_string()
    } else if n == n.trunc() && n.abs() < 1e15 {
        format!("{}", n as i64)
    } else {
        format!("{n}")
    }
}

fn parse_number(s: &str) -> f64 {
    s.trim().parse::<f64>().unwrap_or(f64::NAN)
}

// ---------------------------------------------------------------------------
// AST
// ---------------------------------------------------------------------------

/// Axes supported by the subset.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[expect(missing_docs, reason = "variants mirror the XPath axis names directly")]
pub enum Axis {
    Child,
    Attribute,
    SelfAxis,
    Parent,
    DescendantOrSelf,
}

/// Node tests.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum NodeTest {
    /// A name test, optionally prefixed. `prefix:*` is expressed as a
    /// wildcard local part `*`.
    Name {
        /// Namespace prefix, when written.
        prefix: Option<String>,
        /// Local name, or `*` for a prefix wildcard.
        local: String,
    },
    /// `*` — any element (or any attribute on the attribute axis).
    Wildcard,
    /// `text()`
    Text,
    /// `node()`
    AnyNode,
    /// `comment()`
    Comment,
}

/// One step of a location path.
#[derive(Debug, Clone, PartialEq)]
pub struct Step {
    /// Axis to walk.
    pub axis: Axis,
    /// Which nodes on the axis are kept.
    pub test: NodeTest,
    /// Zero or more predicate expressions.
    pub predicates: Vec<Expr>,
}

/// A location path.
#[derive(Debug, Clone, PartialEq)]
pub struct Path {
    /// `true` for paths starting with `/` (evaluated from the document
    /// root).
    pub absolute: bool,
    /// The steps, possibly empty (bare `/`).
    pub steps: Vec<Step>,
}

/// Binary comparison operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[expect(missing_docs, reason = "variants are the operators =, !=, <, <=, >, >=")]
pub enum CmpOp {
    Eq,
    Ne,
    Lt,
    Le,
    Gt,
    Ge,
}

/// Binary arithmetic operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[expect(missing_docs, reason = "variants are the operators +, -, *, div, mod")]
pub enum ArithOp {
    Add,
    Sub,
    Mul,
    Div,
    Mod,
}

/// The function library. The parser resolves a call's name to one of
/// these and checks its argument count, so evaluation never meets an
/// unknown name or a missing argument.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[expect(missing_docs, reason = "variants mirror the XPath function names directly")]
pub enum Function {
    Position,
    Last,
    Count,
    Name,
    Contains,
    Concat,
    String,
    Number,
    Boolean,
    Not,
    True,
    False,
}

impl Function {
    /// The function `name` names, if it accepts `args` arguments.
    fn resolve(name: &str, args: usize) -> Result<Function, XPathError> {
        use Function::*;
        let (function, min, max) = match name {
            "position" => (Position, 0, 0),
            "last" => (Last, 0, 0),
            "count" => (Count, 1, 1),
            "name" => (Name, 0, 1),
            "contains" => (Contains, 2, 2),
            "concat" => (Concat, 2, usize::MAX),
            "string" => (String, 0, 1),
            "number" => (Number, 0, 1),
            "boolean" => (Boolean, 1, 1),
            "not" => (Not, 1, 1),
            "true" => (True, 0, 0),
            "false" => (False, 0, 0),
            other => return Err(XPathError::new(format!("unsupported function {other}()"))),
        };
        if !(min..=max).contains(&args) {
            return Err(XPathError::new(format!("{name}() does not take {args} argument(s)")));
        }
        Ok(function)
    }
}

/// Parsed expression tree.
#[derive(Debug, Clone, PartialEq)]
#[expect(missing_docs, reason = "variants mirror the XPath grammar productions")]
pub enum Expr {
    Or(Box<Expr>, Box<Expr>),
    And(Box<Expr>, Box<Expr>),
    Compare(CmpOp, Box<Expr>, Box<Expr>),
    Arith(ArithOp, Box<Expr>, Box<Expr>),
    Neg(Box<Expr>),
    Union(Box<Expr>, Box<Expr>),
    Literal(String),
    Number(f64),
    Var(String),
    Call(Function, Vec<Expr>),
    Path(Path),
}

/// A compiled XPath expression.
///
/// Parse once with [`XPath::parse`], evaluate many times with
/// [`XPath::eval`] / [`XPath::eval_root`].
#[derive(Debug, Clone, PartialEq)]
pub struct XPath {
    expr: Expr,
    source: String,
}

impl fmt::Display for XPath {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.source)
    }
}

impl XPath {
    /// Parses an expression.
    ///
    /// # Errors
    ///
    /// Returns [`XPathError`] describing the first syntax error, including
    /// an axis, node test or function outside the supported set and a
    /// function given the wrong number of arguments.
    pub fn parse(source: &str) -> Result<XPath, XPathError> {
        let tokens = tokenize(source)?;
        let mut p = ExprParser { tokens, pos: 0, depth: 0, height: 0 };
        let expr = p.parse_or()?;
        if p.pos != p.tokens.len() {
            return Err(XPathError::new(format!(
                "trailing tokens after expression in {source:?}"
            )));
        }
        Ok(XPath { expr, source: source.to_string() })
    }

    /// The parsed tree (exposed for the XSLT pattern compiler).
    pub fn expr(&self) -> &Expr {
        &self.expr
    }

    /// Evaluates against an explicit context.
    ///
    /// # Errors
    ///
    /// Returns [`XPathError`] for an unbound variable, a value that is
    /// not a node-set where one is required (`count('a')`, `'a' | b`), or
    /// an evaluation that visits more than `MAX_VISITS` nodes.
    pub fn eval(&self, ctx: &Context<'_>) -> Result<Value, XPathError> {
        eval_expr(&self.expr, ctx, &Budget::new())
    }

    /// Evaluates with the document root as context node.
    ///
    /// # Errors
    ///
    /// Same conditions as [`XPath::eval`].
    pub fn eval_root(&self, doc: &Document) -> Result<Value, XPathError> {
        let vars = HashMap::new();
        let ctx = Context::new(doc, XNode::Node(doc.root()), &vars);
        self.eval(&ctx)
    }

    /// Convenience: evaluates and converts to a string.
    ///
    /// # Errors
    ///
    /// Same conditions as [`XPath::eval`].
    pub fn eval_string(&self, doc: &Document, node: NodeId) -> Result<String, XPathError> {
        let vars = HashMap::new();
        let ctx = Context::new(doc, XNode::Node(node), &vars);
        Ok(self.eval(&ctx)?.into_string(doc))
    }

    /// Convenience: evaluates to a node-set of tree nodes (attributes
    /// dropped).
    ///
    /// # Errors
    ///
    /// Returns an error if the expression does not yield a node-set.
    pub fn select_nodes(&self, doc: &Document, node: NodeId) -> Result<Vec<NodeId>, XPathError> {
        let vars = HashMap::new();
        let ctx = Context::new(doc, XNode::Node(node), &vars);
        Ok(self
            .eval(&ctx)?
            .into_nodes()?
            .into_iter()
            .filter_map(|x| match x {
                XNode::Node(n) => Some(n),
                XNode::Attr(..) => None,
            })
            .collect())
    }
}

impl std::str::FromStr for XPath {
    type Err = XPathError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        XPath::parse(s)
    }
}

// ---------------------------------------------------------------------------
// tokenizer
// ---------------------------------------------------------------------------

#[derive(Debug, Clone, PartialEq)]
enum Tok {
    Slash,
    DoubleSlash,
    Dot,
    DotDot,
    At,
    LBracket,
    RBracket,
    LParen,
    RParen,
    Comma,
    Pipe,
    Plus,
    Minus,
    Star,
    Eq,
    Ne,
    Lt,
    Le,
    Gt,
    Ge,
    Dollar,
    ColonColon,
    Colon,
    Name(String),
    Literal(String),
    Number(f64),
}

fn tokenize(src: &str) -> Result<Vec<Tok>, XPathError> {
    let chars: Vec<char> = src.chars().collect();
    let mut toks = Vec::new();
    let mut i = 0;
    while i < chars.len() {
        let c = chars[i];
        match c {
            ' ' | '\t' | '\r' | '\n' => i += 1,
            '/' => {
                if chars.get(i + 1) == Some(&'/') {
                    toks.push(Tok::DoubleSlash);
                    i += 2;
                } else {
                    toks.push(Tok::Slash);
                    i += 1;
                }
            }
            '.' => {
                if chars.get(i + 1) == Some(&'.') {
                    toks.push(Tok::DotDot);
                    i += 2;
                } else if chars.get(i + 1).is_some_and(|c| c.is_ascii_digit()) {
                    let (n, len) = lex_number(&chars[i..]);
                    toks.push(Tok::Number(n));
                    i += len;
                } else {
                    toks.push(Tok::Dot);
                    i += 1;
                }
            }
            '@' => {
                toks.push(Tok::At);
                i += 1;
            }
            '[' => {
                toks.push(Tok::LBracket);
                i += 1;
            }
            ']' => {
                toks.push(Tok::RBracket);
                i += 1;
            }
            '(' => {
                toks.push(Tok::LParen);
                i += 1;
            }
            ')' => {
                toks.push(Tok::RParen);
                i += 1;
            }
            ',' => {
                toks.push(Tok::Comma);
                i += 1;
            }
            '|' => {
                toks.push(Tok::Pipe);
                i += 1;
            }
            '+' => {
                toks.push(Tok::Plus);
                i += 1;
            }
            '-' => {
                toks.push(Tok::Minus);
                i += 1;
            }
            '*' => {
                toks.push(Tok::Star);
                i += 1;
            }
            '$' => {
                toks.push(Tok::Dollar);
                i += 1;
            }
            '=' => {
                toks.push(Tok::Eq);
                i += 1;
            }
            '!' => {
                if chars.get(i + 1) == Some(&'=') {
                    toks.push(Tok::Ne);
                    i += 2;
                } else {
                    return Err(XPathError::new("unexpected '!'"));
                }
            }
            '<' => {
                if chars.get(i + 1) == Some(&'=') {
                    toks.push(Tok::Le);
                    i += 2;
                } else {
                    toks.push(Tok::Lt);
                    i += 1;
                }
            }
            '>' => {
                if chars.get(i + 1) == Some(&'=') {
                    toks.push(Tok::Ge);
                    i += 2;
                } else {
                    toks.push(Tok::Gt);
                    i += 1;
                }
            }
            ':' => {
                if chars.get(i + 1) == Some(&':') {
                    toks.push(Tok::ColonColon);
                    i += 2;
                } else {
                    toks.push(Tok::Colon);
                    i += 1;
                }
            }
            '\'' | '"' => {
                let quote = c;
                let mut s = String::new();
                i += 1;
                loop {
                    match chars.get(i) {
                        Some(&ch) if ch == quote => {
                            i += 1;
                            break;
                        }
                        Some(&ch) => {
                            s.push(ch);
                            i += 1;
                        }
                        None => return Err(XPathError::new("unterminated string literal")),
                    }
                }
                toks.push(Tok::Literal(s));
            }
            '0'..='9' => {
                let (n, len) = lex_number(&chars[i..]);
                toks.push(Tok::Number(n));
                i += len;
            }
            c if crate::name::is_name_start_char(c) => {
                let mut s = String::new();
                while i < chars.len() && crate::name::is_name_char(chars[i]) {
                    s.push(chars[i]);
                    i += 1;
                }
                toks.push(Tok::Name(s));
            }
            other => return Err(XPathError::new(format!("unexpected character {other:?}"))),
        }
    }
    Ok(toks)
}

fn lex_number(chars: &[char]) -> (f64, usize) {
    let mut len = 0;
    let mut seen_dot = false;
    while len < chars.len() {
        match chars[len] {
            '0'..='9' => len += 1,
            '.' if !seen_dot => {
                seen_dot = true;
                len += 1;
            }
            _ => break,
        }
    }
    let s: String = chars[..len].iter().collect();
    (s.parse().unwrap_or(f64::NAN), len)
}

// ---------------------------------------------------------------------------
// parser
// ---------------------------------------------------------------------------

/// How many parentheses, predicates, function arguments and unary
/// minuses may be open at once, and how high the parsed tree may be
/// (`a or b or c` is two operators high). The parser recurses per
/// nesting, evaluation and drop recurse per level of the tree, so a
/// downloaded stylesheet's `select=` must choose neither; real
/// expressions use a handful of each.
const MAX_DEPTH: usize = 32;

/// Builds a binary expression from its operands.
type BinaryExpr = fn(Box<Expr>, Box<Expr>) -> Expr;

struct ExprParser {
    tokens: Vec<Tok>,
    pos: usize,
    /// Nestings open at `pos`.
    depth: usize,
    /// Height of the tree the last `parse_*` call returned.
    height: usize,
}

impl ExprParser {
    fn peek(&self) -> Option<&Tok> {
        self.tokens.get(self.pos)
    }

    fn bump(&mut self) -> Option<Tok> {
        let t = self.tokens.get(self.pos).cloned();
        if t.is_some() {
            self.pos += 1;
        }
        t
    }

    fn eat(&mut self, t: &Tok) -> Result<(), XPathError> {
        match self.bump() {
            Some(ref got) if got == t => Ok(()),
            got => Err(XPathError::new(format!("expected {t:?}, got {got:?}"))),
        }
    }

    fn within_max_depth(levels: usize) -> Result<(), XPathError> {
        if levels > MAX_DEPTH {
            return Err(XPathError::new(format!("expression is more than {MAX_DEPTH} levels deep")));
        }
        Ok(())
    }

    /// Runs `parse` one nesting down.
    fn nested<T>(&mut self, parse: fn(&mut Self) -> Result<T, XPathError>) -> Result<T, XPathError> {
        self.depth += 1;
        Self::within_max_depth(self.depth)?;
        let parsed = parse(self)?;
        self.depth -= 1;
        Ok(parsed)
    }

    /// The expression being built sits one level above a tree `below` high.
    fn raise(&mut self, below: usize) -> Result<(), XPathError> {
        self.height = below + 1;
        Self::within_max_depth(self.height)
    }

    /// `operand (operator operand)*`, left-associative.
    fn parse_chain(
        &mut self,
        operand: impl Fn(&mut Self) -> Result<Expr, XPathError>,
        operator: impl Fn(&Tok) -> Option<BinaryExpr>,
    ) -> Result<Expr, XPathError> {
        let mut left = operand(self)?;
        while let Some(build) = self.peek().and_then(&operator) {
            self.bump();
            let left_height = self.height;
            let right = operand(self)?;
            self.raise(left_height.max(self.height))?;
            left = build(Box::new(left), Box::new(right));
        }
        Ok(left)
    }

    /// Every nested expression — parenthesized, predicate, function
    /// argument — is parsed through here.
    fn parse_expr(&mut self) -> Result<Expr, XPathError> {
        self.nested(Self::parse_or)
    }

    fn parse_or(&mut self) -> Result<Expr, XPathError> {
        self.parse_chain(Self::parse_and, |t| match t {
            Tok::Name(n) if n == "or" => Some(Expr::Or),
            _ => None,
        })
    }

    fn parse_and(&mut self) -> Result<Expr, XPathError> {
        self.parse_chain(Self::parse_equality, |t| match t {
            Tok::Name(n) if n == "and" => Some(Expr::And),
            _ => None,
        })
    }

    fn parse_equality(&mut self) -> Result<Expr, XPathError> {
        self.parse_chain(Self::parse_relational, |t| match t {
            Tok::Eq => Some(|l, r| Expr::Compare(CmpOp::Eq, l, r)),
            Tok::Ne => Some(|l, r| Expr::Compare(CmpOp::Ne, l, r)),
            _ => None,
        })
    }

    fn parse_relational(&mut self) -> Result<Expr, XPathError> {
        self.parse_chain(Self::parse_additive, |t| match t {
            Tok::Lt => Some(|l, r| Expr::Compare(CmpOp::Lt, l, r)),
            Tok::Le => Some(|l, r| Expr::Compare(CmpOp::Le, l, r)),
            Tok::Gt => Some(|l, r| Expr::Compare(CmpOp::Gt, l, r)),
            Tok::Ge => Some(|l, r| Expr::Compare(CmpOp::Ge, l, r)),
            _ => None,
        })
    }

    fn parse_additive(&mut self) -> Result<Expr, XPathError> {
        self.parse_chain(Self::parse_multiplicative, |t| match t {
            Tok::Plus => Some(|l, r| Expr::Arith(ArithOp::Add, l, r)),
            Tok::Minus => Some(|l, r| Expr::Arith(ArithOp::Sub, l, r)),
            _ => None,
        })
    }

    fn parse_multiplicative(&mut self) -> Result<Expr, XPathError> {
        self.parse_chain(Self::parse_unary, |t| match t {
            Tok::Star => Some(|l, r| Expr::Arith(ArithOp::Mul, l, r)),
            Tok::Name(n) if n == "div" => Some(|l, r| Expr::Arith(ArithOp::Div, l, r)),
            Tok::Name(n) if n == "mod" => Some(|l, r| Expr::Arith(ArithOp::Mod, l, r)),
            _ => None,
        })
    }

    fn parse_unary(&mut self) -> Result<Expr, XPathError> {
        if matches!(self.peek(), Some(Tok::Minus)) {
            self.bump();
            let e = self.nested(Self::parse_unary)?;
            self.raise(self.height)?;
            return Ok(Expr::Neg(Box::new(e)));
        }
        self.parse_union()
    }

    fn parse_union(&mut self) -> Result<Expr, XPathError> {
        self.parse_chain(Self::parse_path_expr, |t| match t {
            Tok::Pipe => Some(Expr::Union),
            _ => None,
        })
    }

    fn parse_path_expr(&mut self) -> Result<Expr, XPathError> {
        let call = self.tokens.get(self.pos + 1) == Some(&Tok::LParen);
        self.height = 0;
        match self.peek() {
            Some(Tok::Literal(s)) => {
                let e = Expr::Literal(s.clone());
                self.pos += 1;
                Ok(e)
            }
            Some(&Tok::Number(n)) => {
                self.pos += 1;
                Ok(Expr::Number(n))
            }
            Some(Tok::Dollar) => {
                self.bump();
                match self.bump() {
                    Some(Tok::Name(n)) => Ok(Expr::Var(n)),
                    got => Err(XPathError::new(format!("expected variable name, got {got:?}"))),
                }
            }
            Some(Tok::LParen) => {
                self.bump();
                let e = self.parse_expr()?;
                self.eat(&Tok::RParen)?;
                Ok(e)
            }
            Some(Tok::Name(n)) if call && !is_node_type_name(n) => {
                let name = n.clone();
                self.pos += 2; // name (
                let (mut args, mut highest) = (Vec::new(), 0);
                if self.peek() != Some(&Tok::RParen) {
                    loop {
                        args.push(self.parse_expr()?);
                        highest = highest.max(self.height);
                        if self.peek() == Some(&Tok::Comma) {
                            self.bump();
                        } else {
                            break;
                        }
                    }
                }
                self.eat(&Tok::RParen)?;
                self.raise(highest)?;
                Ok(Expr::Call(Function::resolve(&name, args.len())?, args))
            }
            _ => Ok(Expr::Path(self.parse_location_path()?)),
        }
    }

    fn parse_location_path(&mut self) -> Result<Path, XPathError> {
        let mut steps = Vec::new();
        let absolute = match self.peek() {
            Some(Tok::Slash) => {
                self.bump();
                // bare "/" with nothing following
                if !self.step_can_start() {
                    return Ok(Path { absolute: true, steps });
                }
                true
            }
            Some(Tok::DoubleSlash) => {
                self.bump();
                steps.push(Step {
                    axis: Axis::DescendantOrSelf,
                    test: NodeTest::AnyNode,
                    predicates: Vec::new(),
                });
                true
            }
            _ => false,
        };
        steps.push(self.parse_step()?);
        loop {
            match self.peek() {
                Some(Tok::Slash) => {
                    self.bump();
                    steps.push(self.parse_step()?);
                }
                Some(Tok::DoubleSlash) => {
                    self.bump();
                    steps.push(Step {
                        axis: Axis::DescendantOrSelf,
                        test: NodeTest::AnyNode,
                        predicates: Vec::new(),
                    });
                    steps.push(self.parse_step()?);
                }
                _ => break,
            }
        }
        Ok(Path { absolute, steps })
    }

    fn step_can_start(&self) -> bool {
        matches!(
            self.peek(),
            Some(Tok::Name(_) | Tok::Star | Tok::At | Tok::Dot | Tok::DotDot)
        )
    }

    fn parse_step(&mut self) -> Result<Step, XPathError> {
        let mut axis = Axis::Child;
        match self.peek() {
            Some(Tok::Dot) => {
                self.bump();
                return Ok(Step {
                    axis: Axis::SelfAxis,
                    test: NodeTest::AnyNode,
                    predicates: self.parse_predicates()?,
                });
            }
            Some(Tok::DotDot) => {
                self.bump();
                return Ok(Step {
                    axis: Axis::Parent,
                    test: NodeTest::AnyNode,
                    predicates: self.parse_predicates()?,
                });
            }
            Some(Tok::At) => {
                self.bump();
                axis = Axis::Attribute;
            }
            Some(Tok::Name(name))
                if self.tokens.get(self.pos + 1) == Some(&Tok::ColonColon) =>
            {
                axis = match name.as_str() {
                    "child" => Axis::Child,
                    "attribute" => Axis::Attribute,
                    "self" => Axis::SelfAxis,
                    "parent" => Axis::Parent,
                    "descendant-or-self" => Axis::DescendantOrSelf,
                    other => {
                        return Err(XPathError::new(format!("unsupported axis {other:?}")))
                    }
                };
                self.pos += 2; // name ::
            }
            _ => {}
        }
        let test = self.parse_node_test()?;
        let predicates = self.parse_predicates()?;
        Ok(Step { axis, test, predicates })
    }

    fn parse_node_test(&mut self) -> Result<NodeTest, XPathError> {
        match self.bump() {
            Some(Tok::Star) => Ok(NodeTest::Wildcard),
            Some(Tok::Name(n)) if self.peek() == Some(&Tok::LParen) => {
                let test = match n.as_str() {
                    "text" => NodeTest::Text,
                    "node" => NodeTest::AnyNode,
                    "comment" => NodeTest::Comment,
                    other => {
                        return Err(XPathError::new(format!("unsupported node test {other}()")))
                    }
                };
                self.bump();
                self.eat(&Tok::RParen)?;
                Ok(test)
            }
            Some(Tok::Name(n)) => {
                if self.peek() == Some(&Tok::Colon) {
                    self.bump();
                    match self.bump() {
                        Some(Tok::Name(local)) => {
                            Ok(NodeTest::Name { prefix: Some(n), local })
                        }
                        Some(Tok::Star) => {
                            Ok(NodeTest::Name { prefix: Some(n), local: "*".to_string() })
                        }
                        got => Err(XPathError::new(format!(
                            "expected local name after prefix, got {got:?}"
                        ))),
                    }
                } else {
                    Ok(NodeTest::Name { prefix: None, local: n })
                }
            }
            got => Err(XPathError::new(format!("expected node test, got {got:?}"))),
        }
    }

    fn parse_predicates(&mut self) -> Result<Vec<Expr>, XPathError> {
        let mut preds = Vec::new();
        // a path is one level above the highest predicate of its steps
        let mut path_height = self.height;
        while self.peek() == Some(&Tok::LBracket) {
            self.bump();
            preds.push(self.parse_expr()?);
            self.raise(self.height)?;
            path_height = path_height.max(self.height);
            self.eat(&Tok::RBracket)?;
        }
        self.height = path_height;
        Ok(preds)
    }
}

fn is_node_type_name(n: &str) -> bool {
    matches!(n, "text" | "node" | "comment")
}

// ---------------------------------------------------------------------------
// evaluation
// ---------------------------------------------------------------------------

/// Evaluation context: document, context node, position/size within the
/// current node list, and variable bindings.
#[derive(Debug, Clone)]
pub struct Context<'d> {
    /// The document being queried.
    pub doc: &'d Document,
    /// The context node.
    pub node: XNode,
    /// 1-based context position.
    pub position: usize,
    /// Context size.
    pub size: usize,
    /// In-scope variable bindings.
    pub vars: &'d HashMap<String, Value>,
}

impl<'d> Context<'d> {
    /// Creates a context with position 1 of 1.
    pub fn new(doc: &'d Document, node: XNode, vars: &'d HashMap<String, Value>) -> Self {
        Context { doc, node, position: 1, size: 1, vars }
    }
}

fn eval_expr(expr: &Expr, ctx: &Context<'_>, budget: &Budget) -> Result<Value, XPathError> {
    match expr {
        Expr::Or(a, b) => {
            if eval_expr(a, ctx, budget)?.into_bool() {
                Ok(Value::Bool(true))
            } else {
                Ok(Value::Bool(eval_expr(b, ctx, budget)?.into_bool()))
            }
        }
        Expr::And(a, b) => {
            if !eval_expr(a, ctx, budget)?.into_bool() {
                Ok(Value::Bool(false))
            } else {
                Ok(Value::Bool(eval_expr(b, ctx, budget)?.into_bool()))
            }
        }
        Expr::Compare(op, a, b) => {
            let va = eval_expr(a, ctx, budget)?;
            let vb = eval_expr(b, ctx, budget)?;
            Ok(Value::Bool(compare_values(*op, va, vb, ctx.doc)))
        }
        Expr::Arith(op, a, b) => {
            let va = eval_expr(a, ctx, budget)?.into_number(ctx.doc);
            let vb = eval_expr(b, ctx, budget)?.into_number(ctx.doc);
            Ok(Value::Num(match op {
                ArithOp::Add => va + vb,
                ArithOp::Sub => va - vb,
                ArithOp::Mul => va * vb,
                ArithOp::Div => va / vb,
                ArithOp::Mod => va % vb,
            }))
        }
        Expr::Neg(e) => Ok(Value::Num(-eval_expr(e, ctx, budget)?.into_number(ctx.doc))),
        Expr::Union(a, b) => {
            let mut na = eval_expr(a, ctx, budget)?.into_nodes()?;
            let nb = eval_expr(b, ctx, budget)?.into_nodes()?;
            na.extend(nb);
            Ok(Value::Nodes(sort_dedup(na, ctx.doc, budget)?))
        }
        Expr::Literal(s) => Ok(Value::Str(s.clone())),
        Expr::Number(n) => Ok(Value::Num(*n)),
        Expr::Var(name) => ctx
            .vars
            .get(name)
            .cloned()
            .ok_or_else(|| XPathError::new(format!("unknown variable ${name}"))),
        Expr::Call(function, args) => call_function(*function, args, ctx, budget),
        Expr::Path(path) => Ok(Value::Nodes(eval_path(path, ctx, budget)?)),
    }
}

fn eval_path(path: &Path, ctx: &Context<'_>, budget: &Budget) -> Result<Vec<XNode>, XPathError> {
    let start = if path.absolute {
        XNode::Node(ctx.doc.root())
    } else {
        ctx.node
    };
    let mut current = vec![start];
    for step in &path.steps {
        // from one node, a step yields its nodes in document order, once each
        if let [node] = current[..] {
            current = step_nodes(step, &Context { node, ..*ctx }, budget)?;
            continue;
        }
        let mut next = Vec::new();
        for &node in &current {
            next.extend(step_nodes(step, &Context { node, ..*ctx }, budget)?);
        }
        current = sort_dedup(next, ctx.doc, budget)?;
    }
    Ok(current)
}

/// The nodes one step selects from the context node, in axis order:
/// those on the axis that pass the node test, filtered by each predicate
/// in turn with positions counted in what the previous one kept. Exposed
/// for the XSLT engine: a pattern step with predicates matches a node
/// when the step, taken from the node's parent, selects it.
///
/// # Errors
///
/// Returns [`XPathError`] for evaluation failures inside predicates.
pub fn eval_step(step: &Step, ctx: &Context<'_>) -> Result<Vec<XNode>, XPathError> {
    step_nodes(step, ctx, &Budget::new())
}

fn step_nodes(step: &Step, ctx: &Context<'_>, budget: &Budget) -> Result<Vec<XNode>, XPathError> {
    let mut kept = axis_nodes(ctx.doc, ctx.node, step.axis);
    budget.charge(kept.len())?;
    kept.retain(|&c| node_test_matches(ctx.doc, c, step.axis, &step.test));
    for pred in &step.predicates {
        let size = kept.len();
        let mut filtered = Vec::new();
        for (i, &cand) in kept.iter().enumerate() {
            let sub = Context { node: cand, position: i + 1, size, ..*ctx };
            let keep = match eval_expr(pred, &sub, budget)? {
                Value::Num(n) => (i + 1) as f64 == n,
                other => other.into_bool(),
            };
            if keep {
                filtered.push(cand);
            }
        }
        kept = filtered;
    }
    Ok(kept)
}

fn axis_nodes(doc: &Document, node: XNode, axis: Axis) -> Vec<XNode> {
    match axis {
        Axis::SelfAxis => vec![node],
        Axis::Child => match node {
            XNode::Node(n) => doc.children(n).iter().map(|&c| XNode::Node(c)).collect(),
            XNode::Attr(..) => Vec::new(),
        },
        Axis::Attribute => match node {
            XNode::Node(n) => {
                (0..doc.attributes(n).len()).map(|i| XNode::Attr(n, i)).collect()
            }
            XNode::Attr(..) => Vec::new(),
        },
        Axis::Parent => match node {
            XNode::Node(n) => doc.parent(n).map(XNode::Node).into_iter().collect(),
            XNode::Attr(n, _) => vec![XNode::Node(n)],
        },
        Axis::DescendantOrSelf => match node {
            XNode::Node(n) => std::iter::once(XNode::Node(n))
                .chain(doc.descendants(n).into_iter().map(XNode::Node))
                .collect(),
            XNode::Attr(..) => vec![node],
        },
    }
}

/// Does `node`, reached along `axis`, pass the node test? Exposed for
/// the XSLT engine: a match pattern's step accepts exactly the nodes the
/// same step would select.
pub fn node_test_matches(doc: &Document, node: XNode, axis: Axis, test: &NodeTest) -> bool {
    match test {
        NodeTest::AnyNode => true,
        NodeTest::Text => matches!(node, XNode::Node(n) if doc.is_text(n)),
        NodeTest::Comment => {
            matches!(node, XNode::Node(n) if matches!(doc.kind(n), NodeKind::Comment(_)))
        }
        NodeTest::Wildcard => match (axis, node) {
            (Axis::Attribute, XNode::Attr(..)) => true,
            (_, XNode::Node(n)) => doc.is_element(n),
            _ => false,
        },
        NodeTest::Name { prefix, local } => {
            let name = match node {
                XNode::Node(n) => doc.name(n),
                XNode::Attr(n, i) => doc.attributes(n).get(i).map(|a| &a.name),
            };
            let Some(name) = name else { return false };
            if local != "*" && name.local() != local {
                return false;
            }
            match prefix.as_deref() {
                None => true, // match on local name regardless of node prefix
                Some(p) => {
                    // compare namespace URIs when resolvable, else prefixes
                    let base = node.node_id();
                    let test_uri = doc.namespace_uri(base, Some(p));
                    let node_uri = doc.namespace_uri(base, name.prefix());
                    match (test_uri, node_uri) {
                        (Some(a), Some(b)) => a == b,
                        _ => name.prefix() == Some(p),
                    }
                }
            }
        }
    }
}

/// Most nodes one [`XPath::eval`] may visit: each node an axis yields
/// counts once, and so does each node of the document-order ranking a
/// sort of more than one context's nodes builds. `//*[//*]` over a
/// 1 000-element chain stays under it (about 2 million visits);
/// `//*[//*[//*]]` over 2 000 elements, about 10^10, does not.
const MAX_VISITS: usize = 1 << 22;

/// One evaluation's remaining visits, and its document-order ranking,
/// built on the first sort that needs it.
struct Budget {
    left: Cell<usize>,
    ranks: OnceCell<Vec<u32>>,
}

/// The rank of a node the root does not reach.
const DETACHED: u32 = u32::MAX;

impl Budget {
    fn new() -> Self {
        Budget { left: Cell::new(MAX_VISITS), ranks: OnceCell::new() }
    }

    fn charge(&self, visits: usize) -> Result<(), XPathError> {
        let left = self.left.get();
        if visits > left {
            self.left.set(0);
            return Err(XPathError::new(format!(
                "evaluation visits more than {MAX_VISITS} nodes"
            )));
        }
        self.left.set(left - visits);
        Ok(())
    }

    /// Each node's position in a pre-order walk from the root.
    fn ranks(&self, doc: &Document) -> Result<&[u32], XPathError> {
        if let Some(ranks) = self.ranks.get() {
            return Ok(ranks);
        }
        self.charge(doc.len())?;
        let mut ranks = vec![DETACHED; doc.len()];
        let mut next = 0;
        let mut stack = vec![doc.root()];
        while let Some(n) = stack.pop() {
            if let Some(r) = ranks.get_mut(n.index()) {
                *r = next;
                next += 1;
            }
            stack.extend(doc.children(n).iter().rev());
        }
        Ok(self.ranks.get_or_init(|| ranks))
    }
}

fn sort_dedup(
    mut nodes: Vec<XNode>,
    doc: &Document,
    budget: &Budget,
) -> Result<Vec<XNode>, XPathError> {
    if nodes.len() > 1 {
        let ranks = budget.ranks(doc)?;
        nodes.sort_by(|a, b| cmp_xnode(doc, ranks, *a, *b));
        nodes.dedup();
    }
    Ok(nodes)
}

fn cmp_xnode(doc: &Document, ranks: &[u32], a: XNode, b: XNode) -> std::cmp::Ordering {
    use std::cmp::Ordering;
    let (a_id, b_id) = (a.node_id(), b.node_id());
    let rank = |id: NodeId| ranks.get(id.index()).copied().unwrap_or(DETACHED);
    let base = match (rank(a_id), rank(b_id)) {
        (DETACHED, DETACHED) => doc.cmp_document_order(a_id, b_id),
        (ra, rb) => ra.cmp(&rb),
    };
    if base != Ordering::Equal {
        return base;
    }
    match (a, b) {
        (XNode::Node(_), XNode::Node(_)) => Ordering::Equal,
        (XNode::Node(_), XNode::Attr(..)) => Ordering::Less,
        (XNode::Attr(..), XNode::Node(_)) => Ordering::Greater,
        (XNode::Attr(_, i), XNode::Attr(_, j)) => i.cmp(&j),
    }
}

fn compare_values(op: CmpOp, a: Value, b: Value, doc: &Document) -> bool {
    use CmpOp::*;
    match (&a, &b) {
        (Value::Nodes(ns), other) | (other, Value::Nodes(ns)) => {
            let flipped = !matches!(&a, Value::Nodes(_));
            match other {
                // both are node-sets (`ns` is the left one)
                Value::Nodes(nb) => {
                    let sa: Vec<String> = ns.iter().map(|n| n.string_value(doc)).collect();
                    let sb: Vec<String> = nb.iter().map(|n| n.string_value(doc)).collect();
                    sa.iter().any(|x| sb.iter().any(|y| cmp_strings(op, x, y)))
                }
                Value::Bool(bv) => {
                    let nsb = !ns.is_empty();
                    let (l, r) = if flipped { (*bv, nsb) } else { (nsb, *bv) };
                    cmp_bools(op, l, r)
                }
                Value::Num(n) => ns.iter().any(|x| {
                    let xv = parse_number(&x.string_value(doc));
                    let (l, r) = if flipped { (*n, xv) } else { (xv, *n) };
                    cmp_numbers(op, l, r)
                }),
                Value::Str(s) => ns.iter().any(|x| {
                    let xv = x.string_value(doc);
                    if flipped {
                        cmp_strings(op, s, &xv)
                    } else {
                        cmp_strings(op, &xv, s)
                    }
                }),
            }
        }
        _ => {
            if matches!(a, Value::Bool(_)) || matches!(b, Value::Bool(_)) {
                cmp_bools(op, a.into_bool(), b.into_bool())
            } else if matches!(a, Value::Num(_))
                || matches!(b, Value::Num(_))
                || matches!(op, Lt | Le | Gt | Ge)
            {
                cmp_numbers(op, a.into_number(doc), b.into_number(doc))
            } else {
                cmp_strings(op, &a.into_string(doc), &b.into_string(doc))
            }
        }
    }
}

fn cmp_strings(op: CmpOp, a: &str, b: &str) -> bool {
    match op {
        CmpOp::Eq => a == b,
        CmpOp::Ne => a != b,
        _ => cmp_numbers(op, parse_number(a), parse_number(b)),
    }
}

fn cmp_numbers(op: CmpOp, a: f64, b: f64) -> bool {
    match op {
        CmpOp::Eq => a == b,
        CmpOp::Ne => a != b,
        CmpOp::Lt => a < b,
        CmpOp::Le => a <= b,
        CmpOp::Gt => a > b,
        CmpOp::Ge => a >= b,
    }
}

fn cmp_bools(op: CmpOp, a: bool, b: bool) -> bool {
    match op {
        CmpOp::Eq => a == b,
        CmpOp::Ne => a != b,
        _ => cmp_numbers(op, a as u8 as f64, b as u8 as f64),
    }
}

/// Runs a call the parser resolved: `args` holds as many arguments as
/// `f` accepts. An absent optional argument is the context node.
fn call_function(
    f: Function,
    args: &[Expr],
    ctx: &Context<'_>,
    budget: &Budget,
) -> Result<Value, XPathError> {
    let doc = ctx.doc;
    let arg = |i: usize| eval_expr(&args[i], ctx, budget);
    Ok(match f {
        Function::Position => Value::Num(ctx.position as f64),
        Function::Last => Value::Num(ctx.size as f64),
        Function::Count => Value::Num(arg(0)?.into_nodes()?.len() as f64),
        Function::Name => Value::Str(match args.first() {
            None => ctx.node.name(doc),
            Some(_) => arg(0)?.into_nodes()?.first().map(|n| n.name(doc)).unwrap_or_default(),
        }),
        Function::Contains => {
            Value::Bool(arg(0)?.into_string(doc).contains(&arg(1)?.into_string(doc)))
        }
        Function::Concat => {
            let mut out = String::new();
            for i in 0..args.len() {
                out.push_str(&arg(i)?.into_string(doc));
            }
            Value::Str(out)
        }
        Function::String => Value::Str(match args.first() {
            None => ctx.node.string_value(doc),
            Some(_) => arg(0)?.into_string(doc),
        }),
        Function::Number => Value::Num(match args.first() {
            None => parse_number(&ctx.node.string_value(doc)),
            Some(_) => arg(0)?.into_number(doc),
        }),
        Function::Boolean => Value::Bool(arg(0)?.into_bool()),
        Function::Not => Value::Bool(!arg(0)?.into_bool()),
        Function::True => Value::Bool(true),
        Function::False => Value::Bool(false),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn doc() -> Document {
        Document::parse(
            r#"<catalog>
  <pattern id="1" cat="behavioral"><name>Observer</name><uses>12</uses></pattern>
  <pattern id="2" cat="creational"><name>Singleton</name><uses>40</uses></pattern>
  <pattern id="3" cat="behavioral"><name>Visitor</name><uses>5</uses></pattern>
</catalog>"#,
        )
        .unwrap()
    }

    fn eval(d: &Document, s: &str) -> Value {
        let vars = HashMap::new();
        let ctx = Context::new(d, XNode::Node(d.root()), &vars);
        XPath::parse(s).unwrap().eval(&ctx).unwrap()
    }

    fn eval_str(d: &Document, s: &str) -> String {
        eval(d, s).into_string(d)
    }

    #[test]
    fn absolute_path_selects_children() {
        let d = doc();
        let v = eval(&d, "/catalog/pattern");
        assert_eq!(v.into_nodes().unwrap().len(), 3);
    }

    #[test]
    fn descendant_shortcut() {
        let d = doc();
        let v = eval(&d, "//name");
        assert_eq!(v.into_nodes().unwrap().len(), 3);
    }

    #[test]
    fn positional_predicate() {
        let d = doc();
        assert_eq!(eval_str(&d, "/catalog/pattern[2]/name"), "Singleton");
        assert_eq!(eval_str(&d, "/catalog/pattern[last()]/name"), "Visitor");
        assert_eq!(eval_str(&d, "/catalog/pattern[position()=1]/name"), "Observer");
    }

    #[test]
    fn attribute_predicate_and_selection() {
        let d = doc();
        assert_eq!(eval_str(&d, "/catalog/pattern[@id='2']/name"), "Singleton");
        assert_eq!(eval_str(&d, "/catalog/pattern[1]/@cat"), "behavioral");
        let v = eval(&d, "//pattern[@cat='behavioral']");
        assert_eq!(v.into_nodes().unwrap().len(), 2);
    }

    #[test]
    fn comparisons_on_node_values() {
        let d = doc();
        let v = eval(&d, "//pattern[uses > 10]");
        assert_eq!(v.into_nodes().unwrap().len(), 2);
        assert_eq!(eval(&d, "count(//pattern[uses > 10])"), Value::Num(2.0));
    }

    #[test]
    fn string_functions() {
        let d = doc();
        assert_eq!(eval(&d, "contains('Observer', 'serve')"), Value::Bool(true));
        assert_eq!(eval_str(&d, "concat('a', 'b', 'c')"), "abc");
    }

    #[test]
    fn arithmetic_and_precedence() {
        let d = doc();
        assert_eq!(eval(&d, "1 + 2 * 3"), Value::Num(7.0));
        assert_eq!(eval(&d, "(1 + 2) * 3"), Value::Num(9.0));
        assert_eq!(eval(&d, "10 mod 3"), Value::Num(1.0));
        assert_eq!(eval(&d, "10 div 4"), Value::Num(2.5));
        assert_eq!(eval(&d, "-2 + 5"), Value::Num(3.0));
    }

    #[test]
    fn boolean_logic() {
        let d = doc();
        assert_eq!(eval(&d, "true() and false()"), Value::Bool(false));
        assert_eq!(eval(&d, "true() or false()"), Value::Bool(true));
        assert_eq!(eval(&d, "not(false())"), Value::Bool(true));
        assert_eq!(eval(&d, "1 = 1 and 2 = 2"), Value::Bool(true));
    }

    #[test]
    fn sum_and_count() {
        let d = doc();
        assert_eq!(eval(&d, "count(//pattern)"), Value::Num(3.0));
    }

    #[test]
    fn union_sorts_in_document_order() {
        let d = doc();
        let v = eval(&d, "//pattern[3]/name | //pattern[1]/name").into_nodes().unwrap();
        assert_eq!(v.len(), 2);
        assert_eq!(v[0].string_value(&d), "Observer");
        assert_eq!(v[1].string_value(&d), "Visitor");
    }

    #[test]
    fn parent_and_self_axes() {
        let d = doc();
        assert_eq!(eval_str(&d, "string(//name[1]/../@id)"), "1");
        let v = eval(&d, "//pattern[1]/self::pattern");
        assert_eq!(v.into_nodes().unwrap().len(), 1);
    }

    #[test]
    fn explicit_axes() {
        let d = doc();
        let v = eval(&d, "/catalog/child::pattern/attribute::id");
        assert_eq!(v.into_nodes().unwrap().len(), 3);
    }

    #[test]
    fn text_node_test() {
        let d = doc();
        assert_eq!(eval_str(&d, "//name[1]/text()"), "Observer");
    }

    #[test]
    fn chained_predicates() {
        let d = doc();
        assert_eq!(
            eval_str(&d, "//pattern[@cat='behavioral'][2]/name"),
            "Visitor",
            "second behavioral pattern"
        );
        assert_eq!(eval(&d, "count(//pattern[@cat='behavioral'][uses > 10])"), Value::Num(1.0));
    }

    #[test]
    fn prefix_wildcard_name_test() {
        let d = Document::parse(
            r#"<r xmlns:a="http://a" xmlns:b="http://b"><a:x>1</a:x><b:x>2</b:x></r>"#,
        )
        .unwrap();
        let vars = HashMap::new();
        let ctx = Context::new(&d, XNode::Node(d.root()), &vars);
        let v = XPath::parse("//a:x").unwrap().eval(&ctx).unwrap();
        assert_eq!(v.into_string(&d), "1");
        let v = XPath::parse("//a:*").unwrap().eval(&ctx).unwrap().into_nodes().unwrap();
        assert_eq!(v.len(), 1);
    }

    #[test]
    fn variables() {
        let d = doc();
        let mut vars = HashMap::new();
        vars.insert("target".to_string(), Value::Str("Visitor".to_string()));
        let ctx = Context::new(&d, XNode::Node(d.root()), &vars);
        let v = XPath::parse("//pattern[name = $target]/@id").unwrap().eval(&ctx).unwrap();
        assert_eq!(v.into_string(&d), "3");
    }

    #[test]
    fn unknown_variable_is_error() {
        let d = doc();
        let vars = HashMap::new();
        let ctx = Context::new(&d, XNode::Node(d.root()), &vars);
        assert!(XPath::parse("$nope").unwrap().eval(&ctx).is_err());
    }

    #[test]
    fn unknown_function_is_error() {
        let err = XPath::parse("frobnicate(1)").unwrap_err();
        assert!(err.message().contains("frobnicate"), "{err}");
    }

    /// What the language does not have fails at parse, naming what was
    /// written — each of these parsed, and most evaluated, before the
    /// function library and the axes were closed.
    #[test]
    fn closed_language_is_checked_at_parse() {
        for (source, named) in [
            ("frobnicate(.)", "frobnicate"),
            ("contains(.)", "contains"),
            ("count()", "count"),
            ("position(1)", "position"),
            ("concat('a')", "concat"),
            ("name(., .)", "name"),
            ("ancestor::x", "ancestor"),
            ("//a/following-sibling::b", "following-sibling"),
            ("descendant::*", "descendant"),
            ("translate(., 'a', 'b')", "translate"),
            ("sum(//uses)", "sum"),
            ("processing-instruction()", "processing-instruction"),
            ("/c/processing-instruction()", "processing-instruction"),
            ("/c/frobnicate()", "frobnicate"),
        ] {
            let err = XPath::parse(source).expect_err(source);
            assert!(err.message().contains(named), "{source}: {err}");
        }
        assert_eq!(eval(&doc(), "count(/catalog/descendant-or-self::*)"), Value::Num(10.0));
    }

    #[test]
    fn parse_errors() {
        assert!(XPath::parse("").is_err());
        assert!(XPath::parse("//[1]").is_err());
        assert!(XPath::parse("'unterminated").is_err());
        assert!(XPath::parse("a b").is_err());
        assert!(XPath::parse("following::x").is_err());
    }

    #[test]
    fn nodeset_to_string_uses_first_node() {
        let d = doc();
        assert_eq!(eval_str(&d, "//name"), "Observer");
    }

    #[test]
    fn nodeset_comparison_any_semantics() {
        let d = doc();
        assert_eq!(eval(&d, "//name = 'Visitor'"), Value::Bool(true));
        assert_eq!(eval(&d, "//name = 'Nonexistent'"), Value::Bool(false));
        assert_eq!(eval(&d, "//uses > 39"), Value::Bool(true));
        assert_eq!(eval(&d, "//uses > 100"), Value::Bool(false));
    }

    #[test]
    fn number_formatting() {
        assert_eq!(format_number(3.0), "3");
        assert_eq!(format_number(2.5), "2.5");
        assert_eq!(format_number(-4.0), "-4");
        assert_eq!(format_number(f64::NAN), "NaN");
    }

    #[test]
    fn wildcard_and_node_tests() {
        let d = doc();
        assert_eq!(eval(&d, "count(/catalog/*)"), Value::Num(3.0));
        assert_eq!(eval(&d, "count(//pattern[1]/node())"), Value::Num(2.0));
    }

    #[test]
    fn relative_path_from_context_node() {
        let d = doc();
        let catalog = d.document_element().unwrap();
        let first = d.child_named(catalog, "pattern").unwrap();
        let vars = HashMap::new();
        let ctx = Context::new(&d, XNode::Node(first), &vars);
        let v = XPath::parse("name").unwrap().eval(&ctx).unwrap();
        assert_eq!(v.into_string(&d), "Observer");
        let v = XPath::parse(".").unwrap().eval(&ctx).unwrap();
        assert_eq!(v.into_nodes().unwrap(), vec![XNode::Node(first)]);
        let v = XPath::parse("..").unwrap().eval(&ctx).unwrap();
        assert_eq!(v.into_nodes().unwrap(), vec![XNode::Node(catalog)]);
    }

    #[test]
    fn bare_slash_selects_root() {
        let d = doc();
        let v = eval(&d, "/");
        assert_eq!(v.into_nodes().unwrap(), vec![XNode::Node(d.root())]);
    }

    #[test]
    fn select_nodes_helper() {
        let d = doc();
        let xp = XPath::parse("//pattern").unwrap();
        assert_eq!(xp.select_nodes(&d, d.root()).unwrap().len(), 3);
    }

    /// Visits are counted, not timed: `//*` over an `n`-element chain is
    /// the root's `n + 1` nodes on `descendant-or-self`, one child from
    /// each of `n` and an `n + 1`-node ranking; `//*[//*]` adds `//*` less
    /// its ranking per element; one more level exceeds the budget.
    #[test]
    fn evaluation_stops_at_its_visit_budget() {
        let chain = |n: usize| {
            let mut d = Document::new();
            let mut parent = d.root();
            for _ in 0..n {
                let e = d.create_element(crate::QName::local_only("e"));
                d.append_child(parent, e);
                parent = e;
            }
            d
        };
        let visits = |d: &Document, source: &str| {
            let vars = HashMap::new();
            let budget = Budget::new();
            let ctx = Context::new(d, XNode::Node(d.root()), &vars);
            let value = eval_expr(XPath::parse(source).unwrap().expr(), &ctx, &budget);
            (value.map(|v| v.into_nodes().unwrap().len()), MAX_VISITS - budget.left.get())
        };
        let (short, long) = (chain(1_000), chain(2_000));
        assert_eq!(visits(&long, "//*"), (Ok(2_000), 2_001 + 2_000 + 2_001));
        let quadratic = 1_001 + 1_000 + 1_000 * (1_001 + 1_000) + 1_001;
        assert_eq!(visits(&short, "//*[//*]"), (Ok(1_000), quadratic));
        let (value, n) = visits(&long, "//*[//*[//*]]");
        assert!(value.unwrap_err().message().contains("visits more than"));
        assert_eq!(n, MAX_VISITS);
    }

    #[test]
    fn nesting_is_bounded_by_max_depth() {
        type Nest = fn(usize) -> String;
        let shapes: [(&str, Nest); 7] = [
            ("parentheses", |n| format!("{}1{}", "(".repeat(n), ")".repeat(n))),
            ("predicates", |n| format!("a{}{}", "[a".repeat(n), "]".repeat(n))),
            ("unary minus", |n| format!("{}1", "-".repeat(n))),
            ("arguments", |n| format!("{}1{}", "not(".repeat(n), ")".repeat(n))),
            // no nesting at all: the tree is as high as the chain is long
            ("one operator", |n| format!("1{}", "+1".repeat(n))),
            ("all operators", |n| {
                let ops = [" or a", " and a", "=a", "<a", "+a", "*a", "|a"];
                (0..n).rev().fold("a".to_string(), |chain, i| chain + ops[i * ops.len() / n.max(1)])
            }),
            // height adds up through nestings: half predicates, half operators
            ("chains in predicates", |n| {
                format!("{}a{}{}", "a[".repeat(n / 2), "+a".repeat(n % 2), "]+a".repeat(n / 2))
            }),
        ];
        let d = doc();
        for (shape, nest) in shapes {
            let deepest = XPath::parse(&nest(MAX_DEPTH)).unwrap_or_else(|e| panic!("{shape}: {e}"));
            deepest.eval_root(&d).unwrap_or_else(|e| panic!("{shape}: {e}"));
            for n in [MAX_DEPTH + 1, 200_000] {
                let err = XPath::parse(&nest(n)).expect_err(shape);
                assert!(err.message().contains("levels deep"), "{shape} x {n}: {err}");
            }
        }
    }
}
