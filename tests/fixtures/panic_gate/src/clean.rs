//! What the gate must pass: an excused site, a parser's own `expect`
//! method, and asserts in test code.

/// Parses `(` followed by digits.
pub struct Parser<'a> {
    rest: std::str::Chars<'a>,
}

impl<'a> Parser<'a> {
    /// A parser over `text`.
    pub fn new(text: &'a str) -> Self {
        Parser { rest: text.chars() }
    }

    /// Consumes `c`, or says what came instead.
    pub fn expect(&mut self, c: char) -> Result<(), String> {
        match self.rest.next() {
            Some(got) if got == c => Ok(()),
            got => Err(format!("expected {c:?}, got {got:?}")),
        }
    }

    /// Parses `(` and the number after it.
    pub fn number(&mut self) -> Result<u32, String> {
        self.expect('(')?;
        self.rest.as_str().parse().map_err(|e| format!("{e}"))
    }
}

/// The number in a literal written in this source.
///
/// # Panics
///
/// Panics if `text` is not `(` and digits.
#[expect(clippy::expect_used, reason = "takes literals only; input goes through `Parser::number`")]
pub fn literal(text: &str) -> u32 {
    Parser::new(text).number().expect("a literal parses")
}

#[cfg(test)]
mod tests {
    #[test]
    fn parses() {
        assert_eq!(super::literal("(42"), 42);
        assert!(super::Parser::new("x").number().is_err());
        super::Parser::new("(1").number().unwrap();
    }
}
