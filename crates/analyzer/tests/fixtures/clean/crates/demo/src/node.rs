pub fn serve(&self) {
    let cfg = self.config.parse().expect("config is loaded at boot"); // panic-ok: boot-time config parse failure is fatal by design
    // panic-ok: the table was sized from this very config a line above
    self.table.merge(cfg).unwrap();
    self.expect('('); // a parser's method named `expect`, not `Option::expect`
    debug_assert!(self.table.len() > 0, "compiled out of release builds");
}

/// A doc mentioning `// panic-ok: <reason>` is not a marker.
pub const MARKER_TEXT: &str = "// panic-ok: quoted, not a marker";

#[cfg(test)]
mod tests {
    #[test]
    fn test_code_may_unwrap() {
        let v: Option<u8> = Some(1);
        assert_eq!(v.unwrap(), 1);
    }
}
