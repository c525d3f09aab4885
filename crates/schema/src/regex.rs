//! A small anchored regular-expression engine for the XSD `pattern` facet.
//!
//! XML Schema patterns are implicitly anchored at both ends, so this engine
//! always matches the *whole* input. Supported syntax: literal characters,
//! `.`, escapes (`\d \D \w \W \s \S \n \t \r \\ \. \- \[ \] \( \) \* \+ \?
//! \{ \} \|`), character classes `[a-z0-9_]` with ranges and negation,
//! groups `( )`, alternation `|`, and the quantifiers `* + ? {n} {n,} {n,m}`.
//!
//! A pattern is a stranger's bytes (a downloaded community's XSD) run on
//! every object created in that community, so neither compiling nor
//! matching may cost more than a polynomial in their sizes: groups nest
//! at most [`MAX_DEPTH`] deep, and the matcher carries the *set* of
//! positions a sub-pattern can end at instead of trying them one by one
//! — `(a*)*b` against a run of `a`s is quadratic at worst, where a
//! backtracker is exponential.
//!
//! ```
//! use up2p_schema::Regex;
//! let re = Regex::parse(r"[A-Z][a-z]+( [A-Z][a-z]+)*")?;
//! assert!(re.is_match("Abstract Factory"));
//! assert!(!re.is_match("abstract factory"));
//! # Ok::<(), up2p_schema::ParseSchemaError>(())
//! ```

use crate::error::ParseSchemaError;
use std::collections::BTreeSet;

/// A compiled, anchored regular expression.
#[derive(Debug, Clone, PartialEq)]
pub struct Regex {
    node: Node,
    source: String,
}

#[derive(Debug, Clone, PartialEq)]
enum Node {
    /// Empty string.
    Empty,
    /// A single character matcher.
    Char(CharClass),
    /// Concatenation of parts.
    Seq(Vec<Node>),
    /// Alternation between branches.
    Alt(Vec<Node>),
    /// Repetition of the inner node between `min` and `max` (inclusive;
    /// `None` = unbounded) times.
    Repeat { inner: Box<Node>, min: u32, max: Option<u32> },
}

#[derive(Debug, Clone, PartialEq)]
enum CharClass {
    Literal(char),
    Any,
    Digit(bool),
    Word(bool),
    Space(bool),
    /// Explicit set: (negated, single chars, ranges)
    Set { negated: bool, chars: Vec<char>, ranges: Vec<(char, char)> },
}

impl CharClass {
    fn matches(&self, c: char) -> bool {
        match self {
            CharClass::Literal(l) => *l == c,
            CharClass::Any => c != '\n',
            CharClass::Digit(pos) => c.is_ascii_digit() == *pos,
            CharClass::Word(pos) => (c.is_alphanumeric() || c == '_') == *pos,
            CharClass::Space(pos) => c.is_whitespace() == *pos,
            CharClass::Set { negated, chars, ranges } => {
                let inside =
                    chars.contains(&c) || ranges.iter().any(|&(a, b)| c >= a && c <= b);
                inside != *negated
            }
        }
    }
}

impl Regex {
    /// Compiles a pattern.
    ///
    /// # Errors
    ///
    /// Returns [`ParseSchemaError`] for malformed patterns (unbalanced
    /// groups, bad ranges, dangling quantifiers, ...).
    pub fn parse(pattern: &str) -> Result<Regex, ParseSchemaError> {
        let chars: Vec<char> = pattern.chars().collect();
        let mut p = PatternParser { chars, pos: 0, depth: 0 };
        let node = p.parse_alt()?;
        if let Some(c) = p.peek() {
            return Err(ParseSchemaError::new(format!("unexpected {c:?} in pattern {pattern:?}")));
        }
        Ok(Regex { node, source: pattern.to_string() })
    }

    /// The original pattern text.
    pub fn source(&self) -> &str {
        &self.source
    }

    /// Does the pattern match the *entire* input (XSD anchoring)?
    pub fn is_match(&self, input: &str) -> bool {
        let chars: Vec<char> = input.chars().collect();
        ends(&self.node, &chars, &[0]).contains(&chars.len())
    }
}

impl std::fmt::Display for Regex {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.source)
    }
}

/// Every position `node` can end at when it starts at one of `from`.
/// Both are sorted and hold no position twice.
///
/// One call costs at most `from.len()` per character class, and a
/// repetition calls its inner node at most `input.len() + 2` times (see
/// there), so a match is polynomial in pattern × input, with the
/// repetition nesting — bounded by [`MAX_DEPTH`] — as the exponent's
/// ceiling. No anchor, look-around or back-reference exists in this
/// syntax, which is what lets a set of positions stand for every way of
/// having reached them.
fn ends(node: &Node, input: &[char], from: &[usize]) -> Vec<usize> {
    match node {
        Node::Empty => from.to_vec(),
        Node::Char(class) => from
            .iter()
            .filter(|&&p| input.get(p).is_some_and(|&c| class.matches(c)))
            .map(|&p| p + 1)
            .collect(),
        Node::Seq(parts) => parts.iter().fold(from.to_vec(), |at, part| ends(part, input, &at)),
        Node::Alt(branches) => {
            let mut all: Vec<usize> = branches.iter().flat_map(|b| ends(b, input, from)).collect();
            all.sort_unstable();
            all.dedup();
            all
        }
        Node::Repeat { inner, min, max } => {
            // The mandatory rounds. An inner node that cannot match the
            // empty string moves every position forward, so the set runs
            // empty within `input.len() + 1` rounds; one that can keeps
            // every position it starts from, so the set only grows, and
            // where a round changes nothing no later round will.
            let mut at = from.to_vec();
            for _ in 0..*min {
                let next = ends(inner, input, &at);
                if next == at {
                    break;
                }
                at = next;
            }
            // The optional rounds, from the positions not seen before
            // only: an earlier arrival has more rounds left than a later
            // one. Each round adds a position or is the last.
            let mut reached: BTreeSet<usize> = at.iter().copied().collect();
            let mut rounds = *min;
            while max.is_none_or(|m| rounds < m) && !at.is_empty() {
                at = ends(inner, input, &at).into_iter().filter(|&p| reached.insert(p)).collect();
                rounds = rounds.saturating_add(1);
            }
            reached.into_iter().collect()
        }
    }
}

/// Deepest group nesting a pattern may have. The parser, the matcher and
/// the drop of the parsed tree recurse once per level; real `pattern`
/// facets nest two or three.
const MAX_DEPTH: usize = 32;

struct PatternParser {
    chars: Vec<char>,
    pos: usize,
    /// Groups open at `pos`.
    depth: usize,
}

impl PatternParser {
    fn peek(&self) -> Option<char> {
        self.chars.get(self.pos).copied()
    }

    fn bump(&mut self) -> Option<char> {
        let c = self.peek()?;
        self.pos += 1;
        Some(c)
    }

    /// Consumes a (possibly empty) run of ASCII digits.
    fn digits(&mut self) -> String {
        let mut digits = String::new();
        while let Some(c) = self.peek().filter(char::is_ascii_digit) {
            digits.push(c);
            self.pos += 1;
        }
        digits
    }

    fn parse_alt(&mut self) -> Result<Node, ParseSchemaError> {
        let first = self.parse_seq()?;
        if self.peek() != Some('|') {
            return Ok(first);
        }
        let mut branches = vec![first];
        while self.peek() == Some('|') {
            self.bump();
            branches.push(self.parse_seq()?);
        }
        Ok(Node::Alt(branches))
    }

    fn parse_seq(&mut self) -> Result<Node, ParseSchemaError> {
        let mut parts = Vec::new();
        while let Some(c) = self.peek() {
            if c == '|' || c == ')' {
                break;
            }
            parts.push(self.parse_repeat()?);
        }
        Ok(match parts.pop() {
            None => Node::Empty,
            Some(only) if parts.is_empty() => only,
            Some(last) => {
                parts.push(last);
                Node::Seq(parts)
            }
        })
    }

    fn parse_repeat(&mut self) -> Result<Node, ParseSchemaError> {
        let atom = self.parse_atom()?;
        match self.peek() {
            Some('*') => {
                self.bump();
                Ok(Node::Repeat { inner: Box::new(atom), min: 0, max: None })
            }
            Some('+') => {
                self.bump();
                Ok(Node::Repeat { inner: Box::new(atom), min: 1, max: None })
            }
            Some('?') => {
                self.bump();
                Ok(Node::Repeat { inner: Box::new(atom), min: 0, max: Some(1) })
            }
            Some('{') => {
                self.bump();
                let min: u32 = self
                    .digits()
                    .parse()
                    .map_err(|_| ParseSchemaError::new("invalid repetition count"))?;
                let max = match self.bump() {
                    Some('}') => Some(min),
                    Some(',') => {
                        let d2 = self.digits();
                        if self.bump() != Some('}') {
                            return Err(ParseSchemaError::new("unterminated {m,n}"));
                        }
                        if d2.is_empty() {
                            None
                        } else {
                            Some(
                                d2.parse().map_err(|_| {
                                    ParseSchemaError::new("invalid repetition count")
                                })?,
                            )
                        }
                    }
                    _ => return Err(ParseSchemaError::new("unterminated {m,n}")),
                };
                if let Some(m) = max {
                    if m < min {
                        return Err(ParseSchemaError::new("repetition max below min"));
                    }
                }
                Ok(Node::Repeat { inner: Box::new(atom), min, max })
            }
            _ => Ok(atom),
        }
    }

    fn parse_atom(&mut self) -> Result<Node, ParseSchemaError> {
        match self.bump() {
            None => Err(ParseSchemaError::new("unexpected end of pattern")),
            Some('(') => {
                self.depth += 1;
                if self.depth > MAX_DEPTH {
                    return Err(ParseSchemaError::new(format!(
                        "pattern nests groups more than {MAX_DEPTH} deep"
                    )));
                }
                let inner = self.parse_alt()?;
                if self.bump() != Some(')') {
                    return Err(ParseSchemaError::new("unbalanced group"));
                }
                self.depth -= 1;
                Ok(inner)
            }
            Some('.') => Ok(Node::Char(CharClass::Any)),
            Some('[') => self.parse_class(),
            Some('\\') => Ok(Node::Char(self.parse_escape()?)),
            Some(c @ ('*' | '+' | '?' | '{')) => {
                Err(ParseSchemaError::new(format!("dangling quantifier {c:?}")))
            }
            Some(c) => Ok(Node::Char(CharClass::Literal(c))),
        }
    }

    fn parse_escape(&mut self) -> Result<CharClass, ParseSchemaError> {
        match self.bump() {
            None => Err(ParseSchemaError::new("dangling escape")),
            Some('d') => Ok(CharClass::Digit(true)),
            Some('D') => Ok(CharClass::Digit(false)),
            Some('w') => Ok(CharClass::Word(true)),
            Some('W') => Ok(CharClass::Word(false)),
            Some('s') => Ok(CharClass::Space(true)),
            Some('S') => Ok(CharClass::Space(false)),
            Some('n') => Ok(CharClass::Literal('\n')),
            Some('t') => Ok(CharClass::Literal('\t')),
            Some('r') => Ok(CharClass::Literal('\r')),
            Some(c) => Ok(CharClass::Literal(c)),
        }
    }

    fn parse_class(&mut self) -> Result<Node, ParseSchemaError> {
        let negated = if self.peek() == Some('^') {
            self.bump();
            true
        } else {
            false
        };
        let mut chars = Vec::new();
        let mut ranges = Vec::new();
        loop {
            match self.bump() {
                None => return Err(ParseSchemaError::new("unterminated character class")),
                Some(']') => break,
                Some('\\') => match self.parse_escape()? {
                    CharClass::Literal(c) => chars.push(c),
                    CharClass::Digit(true) => ranges.push(('0', '9')),
                    CharClass::Word(true) => {
                        ranges.extend([('a', 'z'), ('A', 'Z'), ('0', '9')]);
                        chars.push('_');
                    }
                    CharClass::Space(true) => chars.extend([' ', '\t', '\n', '\r']),
                    _ => {
                        return Err(ParseSchemaError::new(
                            "negated escape not supported inside class",
                        ))
                    }
                },
                Some(c) => {
                    if self.peek() == Some('-')
                        && self.chars.get(self.pos + 1).is_some_and(|&n| n != ']')
                    {
                        self.bump(); // '-'
                        let hi = match self.bump() {
                            Some('\\') => match self.parse_escape()? {
                                CharClass::Literal(h) => h,
                                _ => {
                                    return Err(ParseSchemaError::new(
                                        "class shorthand cannot end a range",
                                    ))
                                }
                            },
                            Some(h) => h,
                            None => {
                                return Err(ParseSchemaError::new(
                                    "unterminated character class",
                                ))
                            }
                        };
                        if hi < c {
                            return Err(ParseSchemaError::new(format!(
                                "invalid range {c}-{hi}"
                            )));
                        }
                        ranges.push((c, hi));
                    } else {
                        chars.push(c);
                    }
                }
            }
        }
        Ok(Node::Char(CharClass::Set { negated, chars, ranges }))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn m(p: &str, s: &str) -> bool {
        Regex::parse(p).unwrap().is_match(s)
    }

    #[test]
    fn literals_are_anchored() {
        assert!(m("abc", "abc"));
        assert!(!m("abc", "xabc"));
        assert!(!m("abc", "abcx"));
        assert!(!m("abc", "ab"));
    }

    #[test]
    fn quantifiers() {
        assert!(m("a*", ""));
        assert!(m("a*", "aaaa"));
        assert!(m("a+", "a"));
        assert!(!m("a+", ""));
        assert!(m("a?b", "b"));
        assert!(m("a?b", "ab"));
        assert!(!m("a?b", "aab"));
    }

    #[test]
    fn counted_repetition() {
        assert!(m("a{3}", "aaa"));
        assert!(!m("a{3}", "aa"));
        assert!(m("a{2,4}", "aaa"));
        assert!(!m("a{2,4}", "aaaaa"));
        assert!(m("a{2,}", "aaaaaaa"));
        assert!(!m("a{2,}", "a"));
    }

    #[test]
    fn alternation_and_groups() {
        assert!(m("cat|dog", "dog"));
        assert!(m("(ab)+", "ababab"));
        assert!(!m("(ab)+", "aba"));
        assert!(m("a(b|c)d", "acd"));
    }

    #[test]
    fn classes_and_escapes() {
        assert!(m(r"\d{4}-\d{2}-\d{2}", "2002-02-14"));
        assert!(!m(r"\d{4}-\d{2}-\d{2}", "02-02-14"));
        assert!(m(r"[a-z]+", "gnutella"));
        assert!(!m(r"[a-z]+", "Gnutella"));
        assert!(m(r"[A-Za-z ]+", "Abstract Factory"));
        assert!(m(r"[^0-9]+", "abc"));
        assert!(!m(r"[^0-9]+", "a1c"));
        assert!(m(r"\w+\s\w+", "hello world"));
        assert!(m(r"a\.b", "a.b"));
        assert!(!m(r"a\.b", "axb"));
        assert!(m("a.c", "axc"));
    }

    #[test]
    fn dash_at_class_end_is_literal() {
        assert!(m(r"[a-]+", "a-a-"));
    }

    #[test]
    fn zero_width_star_terminates() {
        // must not hang
        assert!(m("(a?)*b", "b"));
        assert!(m("(a?)*b", "aab"));
    }

    #[test]
    fn nested_quantifiers_over_a_long_run_answer_at_once() {
        // a backtracker doubles its work with every two more `a`s here
        // (551 ms at 24 of them, in a release build)
        let run = "a".repeat(5_000);
        assert!(!m("(a*)*b", &run));
        assert!(m("(a*)*b", &format!("{run}b")));
        assert!(!m("(a|aa)*b", &run));
        assert!(m("(a|aa)*b", &format!("{run}b")));
        assert!(m("(a+)+", &run));
        assert!(!m("(a+)+", &format!("{run}b")));
    }

    #[test]
    fn counted_repetition_of_an_empty_match_terminates() {
        assert!(m("(a?){4000000000}", "aaa"));
        assert!(!m("(a?){2}b{4000000000,}", "aab"));
        assert!(m("(a{0,3}){2,4000000000}b", "aaaaab"));
        assert!(m("(ab|a){2,3}", "aba"));
        assert!(!m("(ab|a){2,3}", "ab"));
        assert!(!m("(ab|a){2,3}", "aaaab"));
    }

    #[test]
    fn group_nesting_is_bounded() {
        let nest = |n: usize| format!("{}a{}", "(".repeat(n), ")".repeat(n));
        assert!(Regex::parse(&nest(MAX_DEPTH)).unwrap().is_match("a"));
        for pattern in [nest(MAX_DEPTH + 1), "(".repeat(100_000)] {
            let err = Regex::parse(&pattern).unwrap_err();
            assert!(err.message().contains("deep"), "{err}");
        }
        // depth counts open groups, not groups seen
        assert!(m(&"(a)".repeat(MAX_DEPTH + 1), &"a".repeat(MAX_DEPTH + 1)));
    }

    #[test]
    fn parse_errors() {
        assert!(Regex::parse("(ab").is_err());
        assert!(Regex::parse("[ab").is_err());
        assert!(Regex::parse("*a").is_err());
        assert!(Regex::parse("a{3,1}").is_err());
        assert!(Regex::parse("a{x}").is_err());
        assert!(Regex::parse("a)").is_err());
    }

    #[test]
    fn uri_like_pattern() {
        let re = Regex::parse(r"(http|file)://\S+").unwrap();
        assert!(re.is_match("http://up2p.example/schema.xsd"));
        assert!(re.is_match("file://patterns/observer.xml"));
        assert!(!re.is_match("ftp://other"));
    }

    #[test]
    fn empty_pattern_matches_empty_only() {
        assert!(m("", ""));
        assert!(!m("", "a"));
    }
}
