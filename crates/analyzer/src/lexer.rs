//! A small hand-rolled Rust lexer — just enough token structure for the
//! analyzer's rules: identifiers, lifetimes, literals (including raw and
//! byte strings), numbers and single-character punctuation, each tagged
//! with its 1-based source line. Comments and whitespace are discarded;
//! nested block comments and multi-line strings keep line counts exact.
//!
//! The lexer is deliberately forgiving about token *classes* (a malformed
//! exponent lexes as a number followed by an identifier) but strict about
//! delimiters: an unterminated string or block comment is a hard
//! [`LexError`], because every downstream rule depends on knowing where
//! tokens end.

use std::fmt;

/// Lexical class of a [`Token`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TokenKind {
    /// Identifier or keyword (`fn`, `MsgKind`, `r#raw_ident`).
    Ident,
    /// Lifetime (`'a`, `'static`, `'_`).
    Lifetime,
    /// String literal of any flavor (`"…"`, `r#"…"#`, `b"…"`).
    Str,
    /// Character or byte literal (`'x'`, `b'\n'`).
    Char,
    /// Numeric literal (`42`, `0xff`, `1.5e-3`, `2_000u64`).
    Num,
    /// A single punctuation character (`.`, `:`, `{`, `!`, …).
    Punct,
}

/// One lexed token with its source position.
#[derive(Debug, Clone)]
pub struct Token {
    /// Lexical class.
    pub kind: TokenKind,
    /// Exact source text of the token.
    pub text: String,
    /// 1-based line the token starts on.
    pub line: u32,
}

impl Token {
    fn new(kind: TokenKind, text: impl Into<String>, line: u32) -> Token {
        Token { kind, text: text.into(), line }
    }

    /// `true` when the token is punctuation with exactly this text.
    pub fn is_punct(&self, ch: char) -> bool {
        self.kind == TokenKind::Punct && self.text.len() == ch.len_utf8() && self.text.starts_with(ch)
    }

    /// `true` when the token is an identifier with exactly this text.
    pub fn is_ident(&self, text: &str) -> bool {
        self.kind == TokenKind::Ident && self.text == text
    }
}

/// Failure to tokenize a source file.
#[derive(Debug, Clone)]
pub struct LexError {
    /// 1-based line of the failure.
    pub line: u32,
    /// What went wrong.
    pub message: String,
}

impl fmt::Display for LexError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "line {}: {}", self.line, self.message)
    }
}

impl std::error::Error for LexError {}

struct Lexer {
    chars: Vec<char>,
    pos: usize,
    line: u32,
}

impl Lexer {
    fn peek(&self, ahead: usize) -> Option<char> {
        self.chars.get(self.pos + ahead).copied()
    }

    fn bump(&mut self) -> Option<char> {
        let c = self.chars.get(self.pos).copied();
        if let Some(c) = c {
            self.pos += 1;
            if c == '\n' {
                self.line += 1;
            }
        }
        c
    }

    fn err(&self, message: impl Into<String>) -> LexError {
        LexError { line: self.line, message: message.into() }
    }

    /// Consumes `"…"` after the opening quote has been consumed.
    fn string_body(&mut self) -> Result<(), LexError> {
        loop {
            match self.bump() {
                Some('"') => return Ok(()),
                Some('\\') => {
                    self.bump();
                }
                Some(_) => {}
                None => return Err(self.err("unterminated string literal")),
            }
        }
    }

    /// Consumes `r"…"` / `r#"…"#` after the `r` (and optional `b`) prefix.
    fn raw_string_body(&mut self) -> Result<(), LexError> {
        let mut hashes = 0usize;
        while self.peek(0) == Some('#') {
            hashes += 1;
            self.bump();
        }
        if self.bump() != Some('"') {
            return Err(self.err("malformed raw string prefix"));
        }
        loop {
            match self.bump() {
                Some('"') => {
                    let mut matched = 0usize;
                    while matched < hashes && self.peek(0) == Some('#') {
                        matched += 1;
                        self.bump();
                    }
                    if matched == hashes {
                        return Ok(());
                    }
                }
                Some(_) => {}
                None => return Err(self.err("unterminated raw string literal")),
            }
        }
    }

    /// Consumes `'x'` / `'\n'` after the opening quote has been consumed.
    fn char_body(&mut self) -> Result<(), LexError> {
        loop {
            match self.bump() {
                Some('\'') => return Ok(()),
                Some('\\') => {
                    self.bump();
                }
                Some(_) => {}
                None => return Err(self.err("unterminated character literal")),
            }
        }
    }
}

fn is_ident_start(c: char) -> bool {
    c == '_' || c.is_alphabetic()
}

fn is_ident_continue(c: char) -> bool {
    c == '_' || c.is_alphanumeric()
}

/// Tokenizes one Rust source file.
///
/// # Errors
///
/// Returns [`LexError`] on unterminated strings, characters or block
/// comments — the constructs that would make token boundaries ambiguous.
pub fn lex(src: &str) -> Result<Vec<Token>, LexError> {
    let mut lx = Lexer { chars: src.chars().collect(), pos: 0, line: 1 };
    let mut out = Vec::new();
    while let Some(c) = lx.peek(0) {
        let line = lx.line;
        // whitespace
        if c.is_whitespace() {
            lx.bump();
            continue;
        }
        // comments
        if c == '/' && lx.peek(1) == Some('/') {
            while let Some(c) = lx.peek(0) {
                if c == '\n' {
                    break;
                }
                lx.bump();
            }
            continue;
        }
        if c == '/' && lx.peek(1) == Some('*') {
            lx.bump();
            lx.bump();
            let mut depth = 1usize;
            loop {
                match (lx.peek(0), lx.peek(1)) {
                    (Some('/'), Some('*')) => {
                        lx.bump();
                        lx.bump();
                        depth += 1;
                    }
                    (Some('*'), Some('/')) => {
                        lx.bump();
                        lx.bump();
                        depth -= 1;
                        if depth == 0 {
                            break;
                        }
                    }
                    (Some(_), _) => {
                        lx.bump();
                    }
                    (None, _) => return Err(lx.err("unterminated block comment")),
                }
            }
            continue;
        }
        // string-ish prefixes: r" r#" br" b" b' (and raw identifiers r#ident)
        if c == 'r' || c == 'b' {
            let (next, next2) = (lx.peek(1), lx.peek(2));
            let start = lx.pos;
            match (c, next) {
                ('r', Some('"')) | ('r', Some('#')) => {
                    // r#ident (raw identifier) vs r#"…"# (raw string): a raw
                    // identifier has an ident char right after a single '#'
                    let is_raw_ident =
                        next == Some('#') && next2.map(is_ident_start).unwrap_or(false);
                    if is_raw_ident {
                        lx.bump(); // r
                        lx.bump(); // #
                        while lx.peek(0).map(is_ident_continue).unwrap_or(false) {
                            lx.bump();
                        }
                        let text: String = lx.chars[start..lx.pos].iter().collect();
                        out.push(Token::new(TokenKind::Ident, text, line));
                        continue;
                    }
                    lx.bump(); // r
                    lx.raw_string_body()?;
                    let text: String = lx.chars[start..lx.pos].iter().collect();
                    out.push(Token::new(TokenKind::Str, text, line));
                    continue;
                }
                ('b', Some('"')) => {
                    lx.bump(); // b
                    lx.bump(); // "
                    lx.string_body()?;
                    let text: String = lx.chars[start..lx.pos].iter().collect();
                    out.push(Token::new(TokenKind::Str, text, line));
                    continue;
                }
                ('b', Some('\'')) => {
                    lx.bump(); // b
                    lx.bump(); // '
                    lx.char_body()?;
                    let text: String = lx.chars[start..lx.pos].iter().collect();
                    out.push(Token::new(TokenKind::Char, text, line));
                    continue;
                }
                ('b', Some('r')) if next2 == Some('"') || next2 == Some('#') => {
                    lx.bump(); // b
                    lx.bump(); // r
                    lx.raw_string_body()?;
                    let text: String = lx.chars[start..lx.pos].iter().collect();
                    out.push(Token::new(TokenKind::Str, text, line));
                    continue;
                }
                _ => {} // plain identifier starting with r/b
            }
        }
        // identifiers and keywords
        if is_ident_start(c) {
            let start = lx.pos;
            while lx.peek(0).map(is_ident_continue).unwrap_or(false) {
                lx.bump();
            }
            let text: String = lx.chars[start..lx.pos].iter().collect();
            out.push(Token::new(TokenKind::Ident, text, line));
            continue;
        }
        // lifetimes vs character literals
        if c == '\'' {
            let next = lx.peek(1);
            let is_lifetime = next.map(is_ident_start).unwrap_or(false) && lx.peek(2) != Some('\'');
            if is_lifetime {
                let start = lx.pos;
                lx.bump(); // '
                while lx.peek(0).map(is_ident_continue).unwrap_or(false) {
                    lx.bump();
                }
                let text: String = lx.chars[start..lx.pos].iter().collect();
                out.push(Token::new(TokenKind::Lifetime, text, line));
            } else {
                let start = lx.pos;
                lx.bump(); // '
                lx.char_body()?;
                let text: String = lx.chars[start..lx.pos].iter().collect();
                out.push(Token::new(TokenKind::Char, text, line));
            }
            continue;
        }
        // strings
        if c == '"' {
            let start = lx.pos;
            lx.bump();
            lx.string_body()?;
            let text: String = lx.chars[start..lx.pos].iter().collect();
            out.push(Token::new(TokenKind::Str, text, line));
            continue;
        }
        // numbers: digits, then ident-continue chars (hex digits, suffixes,
        // exponents), '.' when followed by a digit, and the sign of an
        // exponent (1e-5)
        if c.is_ascii_digit() {
            let start = lx.pos;
            lx.bump();
            loop {
                match lx.peek(0) {
                    Some(n) if is_ident_continue(n) => {
                        lx.bump();
                    }
                    Some('.') if lx.peek(1).map(|d| d.is_ascii_digit()).unwrap_or(false) => {
                        lx.bump();
                    }
                    Some('+') | Some('-')
                        if lx.chars[lx.pos - 1] == 'e' || lx.chars[lx.pos - 1] == 'E' =>
                    {
                        // only part of the number inside an exponent; `1-2`
                        // never reaches here because '1' has no trailing e
                        lx.bump();
                    }
                    _ => break,
                }
            }
            let text: String = lx.chars[start..lx.pos].iter().collect();
            out.push(Token::new(TokenKind::Num, text, line));
            continue;
        }
        // everything else: single-character punctuation
        lx.bump();
        out.push(Token::new(TokenKind::Punct, c, line));
    }
    Ok(out)
}

/// Removes test-only code from a token stream: items annotated
/// `#[cfg(test)]` (or any `cfg(...)` mentioning `test`) and functions
/// annotated `#[test]`, attribute included. Everything the panic-freedom
/// rule sees has gone through this filter, so test `unwrap()`s and
/// `assert!`s stay legal.
pub fn strip_test_code(tokens: &[Token]) -> Vec<Token> {
    let mut out = Vec::with_capacity(tokens.len());
    let mut i = 0usize;
    while i < tokens.len() {
        if tokens[i].is_punct('#') && tokens.get(i + 1).map(|t| t.is_punct('[')).unwrap_or(false) {
            let attr_end = match skip_group(tokens, i + 1, '[', ']') {
                Some(end) => end,
                None => {
                    out.push(tokens[i].clone());
                    i += 1;
                    continue;
                }
            };
            let attr = &tokens[i + 2..attr_end - 1];
            let is_test_attr = attr.first().map(|t| t.is_ident("test")).unwrap_or(false)
                || (attr.first().map(|t| t.is_ident("cfg")).unwrap_or(false)
                    && attr.iter().any(|t| t.is_ident("test")));
            if !is_test_attr {
                out.extend_from_slice(&tokens[i..attr_end]);
                i = attr_end;
                continue;
            }
            // drop the attribute, any further attributes, and the item that
            // follows: up to its `;`, or through its balanced `{…}` body
            i = attr_end;
            while i < tokens.len()
                && tokens[i].is_punct('#')
                && tokens.get(i + 1).map(|t| t.is_punct('[')).unwrap_or(false)
            {
                match skip_group(tokens, i + 1, '[', ']') {
                    Some(end) => i = end,
                    None => break,
                }
            }
            while i < tokens.len() {
                if tokens[i].is_punct(';') {
                    i += 1;
                    break;
                }
                if tokens[i].is_punct('{') {
                    i = skip_group(tokens, i, '{', '}').unwrap_or(tokens.len());
                    break;
                }
                i += 1;
            }
            continue;
        }
        out.push(tokens[i].clone());
        i += 1;
    }
    out
}

/// Returns the index one past the group's closing delimiter, given the
/// index of the opening delimiter. `None` when unbalanced.
fn skip_group(tokens: &[Token], open_at: usize, open: char, close: char) -> Option<usize> {
    let mut depth = 0usize;
    let mut i = open_at;
    while i < tokens.len() {
        if tokens[i].is_punct(open) {
            depth += 1;
        } else if tokens[i].is_punct(close) {
            depth -= 1;
            if depth == 0 {
                return Some(i + 1);
            }
        }
        i += 1;
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    fn texts(src: &str) -> Vec<String> {
        lex(src).expect("lexes").into_iter().map(|t| t.text).collect()
    }

    #[test]
    fn idents_puncts_numbers() {
        assert_eq!(texts("fn f(x: u32) -> u32 { x + 0xff }"), vec![
            "fn", "f", "(", "x", ":", "u32", ")", "-", ">", "u32", "{", "x", "+", "0xff", "}"
        ]);
    }

    #[test]
    fn strings_and_chars_and_lifetimes() {
        let src = "let s = \"a\\\"b\"; let c = 'x'; let e = '\\n'; let l: &'static str = \"y\";";
        let toks = lex(src).expect("lexes");
        let kinds: Vec<TokenKind> = toks.iter().map(|t| t.kind).collect();
        assert_eq!(kinds.iter().filter(|&&k| k == TokenKind::Str).count(), 2);
        assert_eq!(kinds.iter().filter(|&&k| k == TokenKind::Char).count(), 2);
        assert_eq!(kinds.iter().filter(|&&k| k == TokenKind::Lifetime).count(), 1);
    }

    #[test]
    fn raw_strings_with_hashes_and_newlines() {
        let src = "let x = r#\"line1\nline2 \"quoted\"\n\"#; let after = 1;";
        let toks = lex(src).expect("lexes");
        let after = toks.iter().find(|t| t.text == "after").expect("token after raw string");
        assert_eq!(after.line, 3, "newlines inside raw strings advance the line counter");
    }

    #[test]
    fn nested_block_comments() {
        assert_eq!(texts("a /* x /* y */ z */ b"), vec!["a", "b"]);
    }

    #[test]
    fn line_numbers_track() {
        let toks = lex("a\nb\n\nc").expect("lexes");
        let lines: Vec<u32> = toks.iter().map(|t| t.line).collect();
        assert_eq!(lines, vec![1, 2, 4]);
    }

    #[test]
    fn unterminated_string_is_an_error() {
        assert!(lex("let s = \"oops").is_err());
        assert!(lex("/* never closed").is_err());
    }

    #[test]
    fn byte_literals() {
        let toks = lex("let a = b\"bytes\"; let c = b'x'; let r = br\"raw\";").expect("lexes");
        let kinds: Vec<TokenKind> =
            toks.iter().filter(|t| t.text.starts_with('b')).map(|t| t.kind).collect();
        assert!(kinds.contains(&TokenKind::Str));
        assert!(kinds.contains(&TokenKind::Char));
    }

    #[test]
    fn strip_cfg_test_mod() {
        let toks = lex("fn live() {} #[cfg(test)] mod tests { fn x() { y.unwrap(); } } fn more() {}")
            .expect("lexes");
        let kept = strip_test_code(&toks);
        let texts: Vec<&str> = kept.iter().map(|t| t.text.as_str()).collect();
        assert!(texts.contains(&"live"));
        assert!(texts.contains(&"more"));
        assert!(!texts.contains(&"unwrap"));
    }

    #[test]
    fn strip_test_fn_with_extra_attrs() {
        let toks = lex("#[test]\n#[ignore]\nfn t() { x.unwrap(); }\nfn keep() {}").expect("lexes");
        let kept = strip_test_code(&toks);
        let texts: Vec<&str> = kept.iter().map(|t| t.text.as_str()).collect();
        assert!(!texts.contains(&"unwrap"));
        assert!(texts.contains(&"keep"));
    }

    #[test]
    fn non_test_attrs_survive() {
        let toks = lex("#[derive(Debug)] struct S; #[cfg(feature = \"x\")] fn f() {}").expect("lexes");
        let kept = strip_test_code(&toks);
        let texts: Vec<&str> = kept.iter().map(|t| t.text.as_str()).collect();
        assert!(texts.contains(&"derive"));
        assert!(texts.contains(&"feature"));
    }
}
