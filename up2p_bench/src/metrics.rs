//! Metric definitions (the single list `BENCHMARK.json` mirrors), the
//! statistics the harness reports, and a small JSON reader/writer.

use std::collections::BTreeMap;
use std::fmt::Write as _;

#[derive(Debug, Clone, Copy)]
pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    /// `"lower"` or `"higher"`.
    pub better: &'static str,
}

const fn lower(name: &'static str, unit: &'static str) -> MetricDef {
    MetricDef {
        name,
        unit,
        better: "lower",
    }
}

const fn higher(name: &'static str, unit: &'static str) -> MetricDef {
    MetricDef {
        name,
        unit,
        better: "higher",
    }
}

pub const WORKLOADS: [&str; 6] = [
    "author_publish",
    "community_ui",
    "search_napster",
    "search_flood",
    "search_guided",
    "des_guided",
];

/// What a user of the servent sees. Every workload emits all eight.
pub const END_TO_END: [MetricDef; 8] = [
    higher("ops_per_s", "ops/s"),
    lower("op_p50_us", "us"),
    lower("op_p99_us", "us"),
    higher("ok_ops_ratio", "ratio"),
    higher("answerable_recall", "ratio"),
    lower("msgs_per_op", "msgs/op"),
    lower("peak_rss_mb", "MiB"),
    lower("setup_s", "s"),
];

/// End-to-end metrics that are counts: identical between two runs that
/// executed the same ops.
pub const EXACT: [&str; 3] = ["ok_ops_ratio", "answerable_recall", "msgs_per_op"];

/// Span names whose mean duration and call count become the layer
/// metrics `<name>_us` and `<name>_calls`.
pub const SPAN_METRICS: [&str; 32] = [
    "xml.parse",
    "xml.serialize",
    "xml.xpath",
    "schema.parse",
    "schema.validate",
    "xslt.compile",
    "xslt.apply",
    "core.form_derive",
    "core.form_fill",
    "core.index_style",
    "core.view_html",
    "core.form_html",
    "core.community_from_object",
    "core.payload_put",
    "core.payload_fetch",
    "store.extract_fields",
    "store.tokenize",
    "store.repo_insert",
    "store.index_insert",
    "store.index_remove",
    "store.index_query",
    "store.index_wildcard",
    "store.cmip_parse",
    "store.durable_publish",
    "net.index_node.eval",
    "net.napster.search",
    "net.gnutella.search",
    "net.fasttrack.search",
    "net.fasttrack.publish",
    "net.fasttrack.unpublish",
    "net.publish",
    "net.des.schedule",
];

/// Layer metrics that are not `<span>_us`/`<span>_calls`.
pub const LAYER_SCALARS: [MetricDef; 44] = [
    lower("core.servent_overhead_us", "us"),
    higher("core.style_cache.hit_ratio", "ratio"),
    lower("core.style_cache.entries", "count"),
    lower("store.token_passes", "1/op"),
    lower("store.index_bytes", "B"),
    lower("store.token_postings", "count"),
    lower("store.wal_append_us", "us"),
    lower("store.wal_bytes_per_op", "B/op"),
    lower("store.wal_fsyncs_per_op", "1/op"),
    lower("store.wal_writes_per_op", "1/op"),
    lower("store.compact_ms", "ms"),
    lower("store.save_state_ms", "ms"),
    lower("store.recover_ms", "ms"),
    lower("store.disk_bytes_per_user_byte", "ratio"),
    lower("net.index_node.hits_per_query", "1/op"),
    lower("net.sharded.write_guards", "count"),
    higher("net.pool.batch_ops_per_s", "ops/s"),
    higher("net.pool.batch_speedup", "ratio"),
    lower("net.gnutella.ns_per_msg", "ns"),
    lower("net.gnutella.msgs_per_query", "msgs/op"),
    lower("net.gnutella.mean_hops", "hops"),
    lower("net.fasttrack.ns_per_msg", "ns"),
    lower("net.digest.msgs_per_write", "msgs/op"),
    lower("net.digest.build_ms", "ms"),
    higher("net.des.events_per_s", "1/s"),
    lower("net.des.ns_per_event", "ns"),
    lower("net.des.peak_queue_len", "count"),
    lower("net.des.bytes_per_peer", "B"),
    lower("net.des.refresh_ms", "ms"),
    lower("net.msgs.Query", "msgs/op"),
    lower("net.msgs.QueryHit", "msgs/op"),
    lower("net.msgs.Publish", "msgs/op"),
    lower("net.msgs.Unpublish", "msgs/op"),
    lower("net.msgs.Retrieve", "msgs/op"),
    lower("net.msgs.RetrieveOk", "msgs/op"),
    lower("net.msgs.RetrieveFail", "msgs/op"),
    lower("net.msgs.DigestPush", "msgs/op"),
    lower("net.msgs.DigestRequest", "msgs/op"),
    lower("oracle.unanswerable_ops", "count"),
    lower("oracle.false_positive_hits", "count"),
    higher("trace.coverage_ratio", "ratio"),
    lower("trace.overhead_ratio", "ratio"),
    higher("trace.share.xml_schema_xslt_core", "ratio"),
    higher("trace.share.store_net", "ratio"),
];

/// Every per-layer metric, in output order.
pub fn per_layer() -> Vec<(String, &'static str, &'static str)> {
    let mut out = Vec::new();
    for name in SPAN_METRICS {
        out.push((format!("{name}_us"), "us", "lower"));
        out.push((format!("{name}_calls"), "count", "lower"));
    }
    out.extend(
        LAYER_SCALARS
            .iter()
            .map(|m| (m.name.to_string(), m.unit, m.better)),
    );
    out
}

// ---------------------------------------------------------------------
// statistics
// ---------------------------------------------------------------------

pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// Nearest-rank percentile of a sorted sample.
pub fn percentile_sorted(sorted: &[u64], p: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// First and third quartile as Python's `statistics.quantiles(v, n=4)`
/// gives them (exclusive method); `None` below two values.
pub fn quartiles(values: &[f64]) -> Option<(f64, f64)> {
    let n = values.len();
    if n < 2 {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let q = |k: usize| {
        let pos = k * (n + 1);
        let (j, delta) = ((pos / 4).clamp(1, n - 1), pos as f64 / 4.0);
        let frac = delta - j as f64;
        v[j - 1] + (v[j] - v[j - 1]) * frac
    };
    Some((q(1), q(3)))
}

/// Peak resident set (`VmHWM`) in MiB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

// ---------------------------------------------------------------------
// JSON
// ---------------------------------------------------------------------

#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    Null,
    Bool(bool),
    Num(f64),
    Str(String),
    Arr(Vec<Json>),
    Obj(BTreeMap<String, Json>),
}

impl Json {
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(m) => m.get(key),
            _ => None,
        }
    }

    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    pub fn as_arr(&self) -> &[Json] {
        match self {
            Json::Arr(a) => a,
            _ => &[],
        }
    }

    pub fn obj(pairs: impl IntoIterator<Item = (impl Into<String>, Json)>) -> Json {
        Json::Obj(pairs.into_iter().map(|(k, v)| (k.into(), v)).collect())
    }

    pub fn parse(text: &str) -> Result<Json, String> {
        let mut p = Parser {
            bytes: text.as_bytes(),
            pos: 0,
        };
        let v = p.value()?;
        p.ws();
        if p.pos != p.bytes.len() {
            return Err(format!("trailing input at byte {}", p.pos));
        }
        Ok(v)
    }

    /// Compact rendering; numbers keep every digit `f64` round-trips.
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.render_into(&mut out);
        out
    }

    fn render_into(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Num(n) if n.is_finite() => {
                let _ = write!(out, "{n}");
            }
            Json::Num(_) => out.push_str("null"),
            Json::Str(s) => {
                out.push('"');
                for c in s.chars() {
                    match c {
                        '"' => out.push_str("\\\""),
                        '\\' => out.push_str("\\\\"),
                        '\n' => out.push_str("\\n"),
                        c if (c as u32) < 0x20 => {
                            let _ = write!(out, "\\u{:04x}", c as u32);
                        }
                        c => out.push(c),
                    }
                }
                out.push('"');
            }
            Json::Arr(a) => {
                out.push('[');
                for (i, v) in a.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    v.render_into(out);
                }
                out.push(']');
            }
            Json::Obj(m) => {
                out.push('{');
                for (i, (k, v)) in m.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    Json::Str(k.clone()).render_into(out);
                    out.push(':');
                    v.render_into(out);
                }
                out.push('}');
            }
        }
    }
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn ws(&mut self) {
        while self
            .bytes
            .get(self.pos)
            .is_some_and(u8::is_ascii_whitespace)
        {
            self.pos += 1;
        }
    }

    fn eat(&mut self, lit: &str) -> bool {
        let hit = self.bytes[self.pos..].starts_with(lit.as_bytes());
        if hit {
            self.pos += lit.len();
        }
        hit
    }

    fn value(&mut self) -> Result<Json, String> {
        self.ws();
        match self.bytes.get(self.pos) {
            Some(b'{') => {
                self.pos += 1;
                let mut m = BTreeMap::new();
                loop {
                    self.ws();
                    if self.eat("}") {
                        return Ok(Json::Obj(m));
                    }
                    if !m.is_empty() && !self.eat(",") {
                        return Err(format!("expected ',' at byte {}", self.pos));
                    }
                    self.ws();
                    let key = self.string()?;
                    self.ws();
                    if !self.eat(":") {
                        return Err(format!("expected ':' at byte {}", self.pos));
                    }
                    m.insert(key, self.value()?);
                }
            }
            Some(b'[') => {
                self.pos += 1;
                let mut a = Vec::new();
                loop {
                    self.ws();
                    if self.eat("]") {
                        return Ok(Json::Arr(a));
                    }
                    if !a.is_empty() && !self.eat(",") {
                        return Err(format!("expected ',' at byte {}", self.pos));
                    }
                    a.push(self.value()?);
                }
            }
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(_) if self.eat("true") => Ok(Json::Bool(true)),
            Some(_) if self.eat("false") => Ok(Json::Bool(false)),
            Some(_) if self.eat("null") => Ok(Json::Null),
            Some(_) => {
                let start = self.pos;
                while self
                    .bytes
                    .get(self.pos)
                    .is_some_and(|b| matches!(b, b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E'))
                {
                    self.pos += 1;
                }
                std::str::from_utf8(&self.bytes[start..self.pos])
                    .ok()
                    .and_then(|s| s.parse().ok())
                    .map(Json::Num)
                    .ok_or_else(|| format!("bad number at byte {start}"))
            }
            None => Err("unexpected end of input".to_string()),
        }
    }

    fn string(&mut self) -> Result<String, String> {
        if !self.eat("\"") {
            return Err(format!("expected string at byte {}", self.pos));
        }
        let mut out = Vec::new();
        loop {
            match self.bytes.get(self.pos) {
                None => return Err("unterminated string".to_string()),
                Some(b'"') => {
                    self.pos += 1;
                    return String::from_utf8(out).map_err(|e| e.to_string());
                }
                Some(b'\\') => {
                    let esc = self.bytes.get(self.pos + 1).copied();
                    self.pos += 2;
                    match esc {
                        Some(b'n') => out.push(b'\n'),
                        Some(b't') => out.push(b'\t'),
                        Some(b'r') => out.push(b'\r'),
                        Some(b'u') => {
                            let hex = self.bytes.get(self.pos..self.pos + 4);
                            let c = hex
                                .and_then(|h| std::str::from_utf8(h).ok())
                                .and_then(|h| u32::from_str_radix(h, 16).ok())
                                .and_then(char::from_u32)
                                .ok_or("bad \\u escape")?;
                            self.pos += 4;
                            out.extend(c.to_string().bytes());
                        }
                        Some(c) => out.push(c),
                        None => return Err("dangling escape".to_string()),
                    }
                }
                Some(&b) => {
                    out.push(b);
                    self.pos += 1;
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_round_trip() {
        let text = r#"{"a": [1, 2.5e3, -0.125], "b": {"c": "x\"y\n", "d": true, "e": null}}"#;
        let v = Json::parse(text).unwrap();
        assert_eq!(v.get("a").unwrap().as_arr()[1].as_f64(), Some(2500.0));
        assert_eq!(
            v.get("b").unwrap().get("c").unwrap().as_str(),
            Some("x\"y\n")
        );
        assert_eq!(Json::parse(&v.render()).unwrap(), v);
        assert!(Json::parse("{\"a\": }").is_err());
        assert!(Json::parse("[1 2]").is_err());
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), Some((2.75, 8.25)));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), Some((1.0, 3.0)));
        assert_eq!(quartiles(&[1.0]), None);
    }

    #[test]
    fn percentiles_and_median() {
        let s: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile_sorted(&s, 50.0), 50);
        assert_eq!(percentile_sorted(&s, 99.0), 99);
        assert_eq!(percentile_sorted(&[7], 99.0), 7);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }

    #[test]
    fn metric_names_are_unique_and_well_formed() {
        let mut names: Vec<String> = END_TO_END.iter().map(|m| m.name.to_string()).collect();
        names.extend(per_layer().into_iter().map(|(n, _, _)| n));
        assert!(per_layer().len() <= 128);
        let ok = |n: &str| {
            n.len() <= 64
                && n.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
                && n.chars().next().is_some_and(|c| c.is_ascii_alphanumeric())
        };
        assert!(names.iter().all(|n| ok(n)));
        let unique: std::collections::HashSet<&String> = names.iter().collect();
        assert_eq!(unique.len(), names.len());
        assert!(peak_rss_mb() > 0.0);
    }
}
