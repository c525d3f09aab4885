//! `analyzer-allow.toml` — the analyzer's one checked-in configuration
//! file: the panic-freedom allowlist plus the declarative inputs of the
//! stat-conservation rule and the panic-freedom scope.
//!
//! Parsed with a purpose-built subset-of-TOML reader (the workspace has
//! no external dependencies by policy): tables `[a.b]`, arrays of tables
//! `[[a]]`, bare or quoted keys, string values and (possibly multi-line)
//! arrays of strings. That subset is the whole format; anything else in
//! the file is a hard parse error so typos can't silently disable a rule.

use std::collections::BTreeMap;
use std::fmt;

/// One `[[allow]]` entry: a tolerated panic site with its justification.
#[derive(Debug, Clone)]
pub struct AllowEntry {
    /// Workspace-relative file the entry covers.
    pub file: String,
    /// Optional substring of the offending source line; when present the
    /// entry only matches lines containing it (so unrelated new panics in
    /// the same file still get flagged).
    pub pattern: Option<String>,
    /// Why the site is acceptable. Required.
    pub reason: String,
    /// Line of the entry in the config file (for stale-entry findings).
    pub line: u32,
}

/// `[stats]` — inputs of the stat-conservation rule.
#[derive(Debug, Clone)]
pub struct StatsConfig {
    /// File holding the message-kind enum and its `ALL` array.
    pub kinds_file: String,
    /// Name of the enum (`MsgKind`).
    pub enum_name: String,
    /// Message class name → enum variants in that class.
    pub classes: BTreeMap<String, Vec<String>>,
    /// Substrate file → message classes it declares it handles.
    pub substrates: BTreeMap<String, Vec<String>>,
}

/// `[panic]` — scope of the panic-freedom rule.
#[derive(Debug, Clone)]
pub struct PanicConfig {
    /// Crate directories whose `src/` trees are scanned.
    pub scan: Vec<String>,
}

/// The parsed configuration.
#[derive(Debug, Clone, Default)]
pub struct Config {
    /// Panic-freedom allowlist.
    pub allow: Vec<AllowEntry>,
    /// Stat-conservation inputs; rule skipped when absent.
    pub stats: Option<StatsConfig>,
    /// Panic-freedom scope; rule skipped when absent.
    pub panic: Option<PanicConfig>,
}

/// Configuration file failure.
#[derive(Debug, Clone)]
pub struct ConfigError {
    /// 1-based line in the config file.
    pub line: u32,
    /// What went wrong.
    pub message: String,
}

impl fmt::Display for ConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "analyzer-allow.toml:{}: {}", self.line, self.message)
    }
}

impl std::error::Error for ConfigError {}

#[derive(Debug, Clone, PartialEq)]
enum Value {
    Str(String),
    Arr(Vec<String>),
}

/// Raw parse product: dotted table path → one map per occurrence
/// (normal tables occur once, `[[array]]` tables once per header).
type RawTables = Vec<(String, u32, Vec<(String, Value, u32)>)>;

struct Parser<'a> {
    lines: std::iter::Peekable<std::iter::Enumerate<std::str::Lines<'a>>>,
}

impl<'a> Parser<'a> {
    fn err(line: usize, message: impl Into<String>) -> ConfigError {
        ConfigError { line: line as u32 + 1, message: message.into() }
    }

    fn parse(src: &'a str) -> Result<RawTables, ConfigError> {
        let mut p = Parser { lines: src.lines().enumerate().peekable() };
        let mut tables: RawTables = Vec::new();
        // keys before any [table] header go to the implicit root table
        tables.push((String::new(), 0, Vec::new()));
        while let Some((n, raw)) = p.lines.next() {
            let line = strip_comment(raw).trim();
            if line.is_empty() {
                continue;
            }
            if let Some(rest) = line.strip_prefix("[[") {
                let name = rest
                    .strip_suffix("]]")
                    .ok_or_else(|| Self::err(n, "missing ]] on table header"))?;
                tables.push((parse_key_path(name, n)?, n as u32 + 1, Vec::new()));
            } else if let Some(rest) = line.strip_prefix('[') {
                let name = rest
                    .strip_suffix(']')
                    .ok_or_else(|| Self::err(n, "missing ] on table header"))?;
                let path = parse_key_path(name, n)?;
                if tables.iter().any(|(p, _, _)| *p == path) {
                    return Err(Self::err(n, format!("table [{path}] defined twice")));
                }
                tables.push((path, n as u32 + 1, Vec::new()));
            } else {
                let eq = line
                    .find('=')
                    .ok_or_else(|| Self::err(n, "expected `key = value`"))?;
                let key = parse_single_key(line[..eq].trim(), n)?;
                let mut value_src = line[eq + 1..].trim().to_string();
                // multi-line arrays: keep consuming lines until brackets
                // balance outside strings
                while !value_balanced(&value_src) {
                    match p.lines.next() {
                        Some((_, more)) => {
                            value_src.push('\n');
                            value_src.push_str(strip_comment(more));
                        }
                        None => return Err(Self::err(n, "unterminated array value")),
                    }
                }
                let value = parse_value(value_src.trim(), n)?;
                if let Some(current) = tables.last_mut() {
                    current.2.push((key, value, n as u32 + 1));
                }
            }
        }
        Ok(tables)
    }
}

/// Strips a `#` comment that is outside any string literal.
fn strip_comment(line: &str) -> &str {
    let mut in_str = false;
    let mut escaped = false;
    for (i, c) in line.char_indices() {
        if escaped {
            escaped = false;
            continue;
        }
        match c {
            '\\' if in_str => escaped = true,
            '"' => in_str = !in_str,
            '#' if !in_str => return &line[..i],
            _ => {}
        }
    }
    line
}

/// `true` when every `[` outside a string has a matching `]`.
fn value_balanced(src: &str) -> bool {
    let mut depth = 0i32;
    let mut in_str = false;
    let mut escaped = false;
    for c in src.chars() {
        if escaped {
            escaped = false;
            continue;
        }
        match c {
            '\\' if in_str => escaped = true,
            '"' => in_str = !in_str,
            '[' if !in_str => depth += 1,
            ']' if !in_str => depth -= 1,
            _ => {}
        }
    }
    depth <= 0 && !in_str
}

/// Parses a dotted table path with bare or quoted segments, returning it
/// re-joined with `.` (quoted segments keep their inner text).
fn parse_key_path(src: &str, line: usize) -> Result<String, ConfigError> {
    let src = src.trim();
    let mut out = String::new();
    let mut rest = src;
    loop {
        rest = rest.trim_start();
        let segment;
        if let Some(inner) = rest.strip_prefix('"') {
            let end = inner
                .find('"')
                .ok_or_else(|| Parser::err(line, "unterminated quoted key"))?;
            segment = &inner[..end];
            rest = &inner[end + 1..];
        } else {
            let end = rest.find('.').unwrap_or(rest.len());
            segment = rest[..end].trim();
            rest = &rest[end..];
        }
        if segment.is_empty() {
            return Err(Parser::err(line, "empty key segment"));
        }
        if !out.is_empty() {
            out.push('.');
        }
        out.push_str(segment);
        rest = rest.trim_start();
        if rest.is_empty() {
            return Ok(out);
        }
        rest = rest
            .strip_prefix('.')
            .ok_or_else(|| Parser::err(line, "expected `.` between key segments"))?;
    }
}

/// Parses one (possibly quoted) key, rejecting dotted keys.
fn parse_single_key(src: &str, line: usize) -> Result<String, ConfigError> {
    if let Some(inner) = src.strip_prefix('"') {
        let end = inner
            .find('"')
            .ok_or_else(|| Parser::err(line, "unterminated quoted key"))?;
        if !inner[end + 1..].trim().is_empty() {
            return Err(Parser::err(line, "unexpected text after quoted key"));
        }
        return Ok(inner[..end].to_string());
    }
    if src.is_empty() || src.contains(|c: char| c.is_whitespace() || c == '.') {
        return Err(Parser::err(line, format!("malformed key `{src}`")));
    }
    Ok(src.to_string())
}

fn parse_string(src: &str, line: usize) -> Result<(String, &str), ConfigError> {
    let inner = src
        .strip_prefix('"')
        .ok_or_else(|| Parser::err(line, "expected a quoted string"))?;
    let mut out = String::new();
    let mut escaped = false;
    for (i, c) in inner.char_indices() {
        if escaped {
            match c {
                'n' => out.push('\n'),
                't' => out.push('\t'),
                '\\' => out.push('\\'),
                '"' => out.push('"'),
                other => {
                    out.push('\\');
                    out.push(other);
                }
            }
            escaped = false;
            continue;
        }
        match c {
            '\\' => escaped = true,
            '"' => return Ok((out, &inner[i + 1..])),
            other => out.push(other),
        }
    }
    Err(Parser::err(line, "unterminated string value"))
}

fn parse_value(src: &str, line: usize) -> Result<Value, ConfigError> {
    if src.starts_with('"') {
        let (s, rest) = parse_string(src, line)?;
        if !rest.trim().is_empty() {
            return Err(Parser::err(line, "unexpected text after string value"));
        }
        return Ok(Value::Str(s));
    }
    if let Some(mut rest) = src.strip_prefix('[') {
        let mut items = Vec::new();
        loop {
            rest = rest.trim_start();
            if let Some(after) = rest.strip_prefix(']') {
                if !after.trim().is_empty() {
                    return Err(Parser::err(line, "unexpected text after array value"));
                }
                return Ok(Value::Arr(items));
            }
            let (s, after) = parse_string(rest, line)?;
            items.push(s);
            rest = after.trim_start();
            rest = rest.strip_prefix(',').unwrap_or(rest);
        }
    }
    Err(Parser::err(line, format!("unsupported value `{src}` (strings and string arrays only)")))
}

fn get_str(kvs: &[(String, Value, u32)], key: &str) -> Option<String> {
    kvs.iter().find(|(k, _, _)| k == key).and_then(|(_, v, _)| match v {
        Value::Str(s) => Some(s.clone()),
        Value::Arr(_) => None,
    })
}

fn get_arr(kvs: &[(String, Value, u32)], key: &str) -> Option<Vec<String>> {
    kvs.iter().find(|(k, _, _)| k == key).and_then(|(_, v, _)| match v {
        Value::Arr(a) => Some(a.clone()),
        Value::Str(_) => None,
    })
}

/// Parses the configuration from file contents.
///
/// # Errors
///
/// Returns [`ConfigError`] on any syntax the subset reader does not
/// understand, on `[[allow]]` entries missing `file`/`reason`, and on
/// rule sections missing their required keys.
pub fn parse_config(src: &str) -> Result<Config, ConfigError> {
    let tables = Parser::parse(src)?;
    let mut cfg = Config::default();
    let mut stats_kinds: Option<(String, String, u32)> = None;
    let mut stats_classes: BTreeMap<String, Vec<String>> = BTreeMap::new();
    let mut stats_substrates: BTreeMap<String, Vec<String>> = BTreeMap::new();
    let mut saw_stats = false;
    for (path, header_line, kvs) in &tables {
        let line = *header_line;
        match path.as_str() {
            "" => {
                if let Some((key, _, l)) = kvs.first() {
                    return Err(ConfigError {
                        line: *l,
                        message: format!("top-level key `{key}` outside any table"),
                    });
                }
            }
            "allow" => {
                let file = get_str(kvs, "file").ok_or(ConfigError {
                    line,
                    message: "[[allow]] entry needs a `file`".into(),
                })?;
                let reason = get_str(kvs, "reason").filter(|r| !r.trim().is_empty()).ok_or(
                    ConfigError {
                        line,
                        message: format!("[[allow]] entry for `{file}` needs a non-empty `reason`"),
                    },
                )?;
                cfg.allow.push(AllowEntry {
                    file,
                    pattern: get_str(kvs, "pattern"),
                    reason,
                    line,
                });
            }
            "panic" => {
                cfg.panic = Some(PanicConfig {
                    scan: get_arr(kvs, "scan").ok_or(ConfigError {
                        line,
                        message: "[panic] needs `scan = [\"crate-dir\", …]`".into(),
                    })?,
                });
            }
            "stats" => {
                saw_stats = true;
                let kinds_file = get_str(kvs, "kinds_file").ok_or(ConfigError {
                    line,
                    message: "[stats] needs `kinds_file`".into(),
                })?;
                let enum_name = get_str(kvs, "enum_name").unwrap_or_else(|| "MsgKind".into());
                stats_kinds = Some((kinds_file, enum_name, line));
            }
            "stats.classes" => {
                saw_stats = true;
                for (k, v, l) in kvs {
                    match v {
                        Value::Arr(a) => {
                            stats_classes.insert(k.clone(), a.clone());
                        }
                        Value::Str(_) => {
                            return Err(ConfigError {
                                line: *l,
                                message: format!("class `{k}` must list variants as an array"),
                            })
                        }
                    }
                }
            }
            "stats.substrates" => {
                saw_stats = true;
                for (k, v, l) in kvs {
                    match v {
                        Value::Arr(a) => {
                            stats_substrates.insert(k.clone(), a.clone());
                        }
                        Value::Str(_) => {
                            return Err(ConfigError {
                                line: *l,
                                message: format!("substrate `{k}` must list classes as an array"),
                            })
                        }
                    }
                }
            }
            other => {
                return Err(ConfigError {
                    line,
                    message: format!("unknown table [{other}]"),
                });
            }
        }
    }
    if saw_stats {
        let (kinds_file, enum_name, line) = stats_kinds.ok_or(ConfigError {
            line: 1,
            message: "[stats.classes]/[stats.substrates] present but [stats] kinds_file missing"
                .into(),
        })?;
        if stats_classes.is_empty() {
            return Err(ConfigError { line, message: "[stats.classes] is empty".into() });
        }
        cfg.stats = Some(StatsConfig {
            kinds_file,
            enum_name,
            classes: stats_classes,
            substrates: stats_substrates,
        });
    }
    Ok(cfg)
}

#[cfg(test)]
mod tests {
    use super::*;

    const SAMPLE: &str = r##"
# comment
[[allow]]
file = "crates/x/src/a.rs"
pattern = "static schema"
reason = "compile-time literal"

[[allow]]
file = "crates/x/src/b.rs"
reason = "harness fails fast"

[panic]
scan = ["crates/x", "crates/y"]

[stats]
kinds_file = "crates/net/src/stats.rs"

[stats.classes]
query = [
    "Query",
    "QueryHit",  # trailing comment
]
retrieve = ["Retrieve"]

[stats.substrates]
"crates/net/src/overlay.rs" = ["query", "retrieve"]
"##;

    #[test]
    fn parses_the_full_shape() {
        let cfg = parse_config(SAMPLE).expect("parses");
        assert_eq!(cfg.allow.len(), 2);
        assert_eq!(cfg.allow[0].pattern.as_deref(), Some("static schema"));
        assert!(cfg.allow[1].pattern.is_none());
        let p = cfg.panic.expect("panic section");
        assert_eq!(p.scan, vec!["crates/x", "crates/y"]);
        let s = cfg.stats.expect("stats section");
        assert_eq!(s.enum_name, "MsgKind");
        assert_eq!(s.classes["query"], vec!["Query", "QueryHit"]);
        assert_eq!(s.substrates["crates/net/src/overlay.rs"], vec!["query", "retrieve"]);
    }

    #[test]
    fn allow_without_reason_is_rejected() {
        let src = "[[allow]]\nfile = \"x.rs\"\n";
        let err = parse_config(src).expect_err("must fail");
        assert!(err.message.contains("reason"), "{}", err.message);
    }

    #[test]
    fn unknown_table_is_rejected() {
        // `[locks]` configured a rule that no longer exists: a config
        // still carrying it must fail, not silently check less
        for src in ["[mystery]\nx = \"1\"\n", "[locks]\nscan = [\"crates\"]\n"] {
            let err = parse_config(src).expect_err("must fail");
            assert!(err.message.contains("unknown table"), "{}", err.message);
        }
    }

    #[test]
    fn comments_inside_strings_survive() {
        let cfg = parse_config("[[allow]]\nfile = \"a#b.rs\"\nreason = \"has # inside\"\n")
            .expect("parses");
        assert_eq!(cfg.allow[0].file, "a#b.rs");
        assert_eq!(cfg.allow[0].reason, "has # inside");
    }

    #[test]
    fn empty_config_is_all_rules_skipped() {
        let cfg = parse_config("").expect("parses");
        assert!(cfg.stats.is_none() && cfg.panic.is_none());
        assert!(cfg.allow.is_empty());
    }

    #[test]
    fn duplicate_table_rejected() {
        assert!(parse_config("[panic]\nscan = []\n[panic]\nscan = []\n").is_err());
    }
}
