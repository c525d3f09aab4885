//! Harness-side spans: name, start, end, parent, op id. Kept in memory
//! and written out when the workload ends.
//!
//! A span opened while another is open is its child. Spans opened with
//! no op open are *probes*: unit-cost measurements of a layer call the
//! op itself does not expose; they count toward `*_us`/`*_calls` but not
//! toward coverage.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

const NONE: u32 = u32::MAX;

/// Name of the root span of every op.
pub const OP: &str = "op";

#[derive(Debug, Clone)]
struct Span {
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
    parent: u32,
    op: u32,
}

#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<u32>,
    op: u32,
    next_op: u32,
}

/// Per-name totals over a finished trace.
#[derive(Debug, Clone, Copy, Default)]
pub struct SpanStat {
    pub calls: u64,
    /// Sum of span durations.
    pub total_ns: u64,
    /// Sum of durations minus the part covered by child spans, over the
    /// spans that belong to an op.
    pub op_self_ns: u64,
}

impl SpanStat {
    pub fn mean_us(&self) -> f64 {
        if self.calls == 0 {
            0.0
        } else {
            self.total_ns as f64 / self.calls as f64 / 1e3
        }
    }
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer::new()
    }
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            op: NONE,
            next_op: 0,
        }
    }

    fn now(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span under the innermost open one.
    pub fn begin(&mut self, name: &'static str) -> u32 {
        let id = self.spans.len() as u32;
        let parent = self.open.last().copied().unwrap_or(NONE);
        self.open.push(id);
        let start_ns = self.now();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent,
            op: self.op,
        });
        id
    }

    /// Closes the innermost span, which must be `id`.
    pub fn end(&mut self, id: u32) {
        let end_ns = self.now();
        assert_eq!(self.open.pop(), Some(id), "spans close innermost first");
        self.spans[id as usize].end_ns = end_ns;
    }

    /// Times `f` as one span.
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        let id = self.begin(name);
        let out = f();
        self.end(id);
        out
    }

    /// Opens the root span of a new op.
    pub fn begin_op(&mut self) -> u32 {
        assert!(self.open.is_empty(), "ops do not nest");
        self.op = self.next_op;
        self.next_op += 1;
        self.begin(OP)
    }

    /// Closes an op's root span; returns its duration in nanoseconds.
    pub fn end_op(&mut self, id: u32) -> u64 {
        self.end(id);
        self.op = NONE;
        let s = &self.spans[id as usize];
        s.end_ns - s.start_ns
    }

    /// Totals per span name.
    pub fn stats(&self) -> BTreeMap<&'static str, SpanStat> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if s.parent != NONE {
                child_ns[s.parent as usize] += s.end_ns - s.start_ns;
            }
        }
        let mut out: BTreeMap<&'static str, SpanStat> = BTreeMap::new();
        for (s, children) in self.spans.iter().zip(child_ns) {
            let stat = out.entry(s.name).or_default();
            let dur = s.end_ns - s.start_ns;
            stat.calls += 1;
            stat.total_ns += dur;
            if s.op != NONE {
                stat.op_self_ns += dur.saturating_sub(children);
            }
        }
        out
    }

    /// Writes the spans as a JSON array, one object per line.
    pub fn write_json(&self, path: &Path) -> std::io::Result<()> {
        let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(w, "[")?;
        for (i, s) in self.spans.iter().enumerate() {
            let field = |v: u32| {
                if v == NONE {
                    "null".to_string()
                } else {
                    v.to_string()
                }
            };
            writeln!(
                w,
                r#"{{"id":{i},"name":"{}","start_ns":{},"end_ns":{},"parent":{},"op":{}}}{}"#,
                s.name,
                s.start_ns,
                s.end_ns,
                field(s.parent),
                field(s.op),
                if i + 1 == self.spans.len() { "" } else { "," },
            )?;
        }
        writeln!(w, "]")?;
        w.flush()
    }
}

/// Runs `f`, as a span when there is a tracer.
pub fn span_opt<R>(
    tracer: &mut Option<&mut Tracer>,
    name: &'static str,
    f: impl FnOnce() -> R,
) -> R {
    match tracer.as_deref_mut() {
        Some(t) => t.span(name, f),
        None => f(),
    }
}

/// The layer a span belongs to: the part of its name before the first
/// dot (`xml`, `schema`, `xslt`, `core`, `store`, `net`).
pub fn layer_of(name: &str) -> &str {
    name.split('.').next().unwrap_or(name)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children_and_probes_stay_outside_ops() {
        let mut t = Tracer::new();
        let op = t.begin_op();
        let a = t.begin("core.a");
        t.span("xml.b", || {
            std::thread::sleep(std::time::Duration::from_millis(2))
        });
        t.end(a);
        let dur = t.end_op(op);
        t.span("store.probe", || {
            std::thread::sleep(std::time::Duration::from_millis(1))
        });
        let stats = t.stats();
        assert_eq!(stats[OP].calls, 1);
        assert_eq!(stats[OP].total_ns, dur);
        assert!(stats["xml.b"].op_self_ns >= 2_000_000);
        assert!(stats["core.a"].op_self_ns < stats["xml.b"].op_self_ns);
        assert_eq!(stats["store.probe"].op_self_ns, 0, "probes are outside ops");
        assert!(stats["store.probe"].total_ns >= 1_000_000);
        let in_op: u64 = stats.values().map(|s| s.op_self_ns).sum();
        assert_eq!(in_op, dur, "self times partition the op");
        assert_eq!(layer_of("xml.b"), "xml");
    }
}
