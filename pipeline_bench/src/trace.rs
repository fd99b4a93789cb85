//! Spans recorded by the harness at its own call sites.
//!
//! The traced run drives the pipeline inline on one thread and wraps
//! every call into a layer in a span. Spans stay in memory and are
//! written out as JSON lines when the run ends. A span's *self time*
//! is its duration minus the part its child spans cover.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// One recorded interval.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// Index in the recorder (the span's identifier).
    pub id: usize,
    /// The enclosing span, if any.
    pub parent: Option<usize>,
    /// `layer.call` name.
    pub name: String,
    /// Start, nanoseconds since the recorder was created.
    pub start_ns: u64,
    /// End, same clock.
    pub end_ns: u64,
    /// Records that went through the call.
    pub records: u64,
    /// Bytes that went through the call.
    pub bytes: u64,
}

/// Per-name totals over a set of spans.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SelfTime {
    /// Spans of this name.
    pub count: u64,
    /// Summed duration minus summed direct-child durations.
    pub self_ns: u64,
    /// Summed records.
    pub records: u64,
}

/// An in-memory span recorder. A disabled recorder records nothing
/// and its methods cost one branch, so the same driver code runs with
/// tracing on and off (the difference is the tracing overhead).
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    /// A recorder; `enabled = false` makes every call a no-op.
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            enabled,
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Whether spans are being recorded.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span under the innermost open one.
    pub fn begin(&mut self, name: &str) {
        if !self.enabled {
            return;
        }
        let id = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            id,
            parent: self.open.last().copied(),
            name: name.to_owned(),
            start_ns,
            end_ns: start_ns,
            records: 0,
            bytes: 0,
        });
        self.open.push(id);
    }

    /// Closes the innermost open span.
    pub fn end(&mut self, records: u64, bytes: u64) {
        if !self.enabled {
            return;
        }
        let end_ns = self.now_ns();
        let id = self.open.pop().expect("end without begin");
        let span = &mut self.spans[id];
        span.end_ns = end_ns;
        span.records = records;
        span.bytes = bytes;
    }

    /// Runs `f` inside a span; `f` returns its result plus the records
    /// and bytes the call handled.
    pub fn span<T>(&mut self, name: &str, f: impl FnOnce(&mut Tracer) -> (T, u64, u64)) -> T {
        self.begin(name);
        let (out, records, bytes) = f(self);
        self.end(records, bytes);
        out
    }

    /// Records a child of the innermost open span whose time was
    /// accumulated piecewise (many short calls inside one callback):
    /// it starts where its parent starts and lasts `dur_ns`.
    pub fn child_total(&mut self, name: &str, dur_ns: u64, records: u64, bytes: u64) {
        if !self.enabled {
            return;
        }
        let parent = *self.open.last().expect("child_total outside a span");
        let start_ns = self.spans[parent].start_ns;
        let id = self.spans.len();
        self.spans.push(Span {
            id,
            parent: Some(parent),
            name: name.to_owned(),
            start_ns,
            end_ns: start_ns + dur_ns,
            records,
            bytes,
        });
    }

    /// The spans recorded so far.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Self time per span name, sorted by name.
    pub fn self_times(&self) -> BTreeMap<String, SelfTime> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.end_ns - s.start_ns;
            }
        }
        let mut out: BTreeMap<String, SelfTime> = BTreeMap::new();
        for s in &self.spans {
            let e = out.entry(s.name.clone()).or_default();
            e.count += 1;
            e.self_ns += (s.end_ns - s.start_ns).saturating_sub(child_ns[s.id]);
            e.records += s.records;
        }
        out
    }

    /// The spans as JSON lines, one object per span.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for s in &self.spans {
            let parent = s.parent.map_or("null".to_owned(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{},\"parent\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"records\":{},\"bytes\":{}}}",
                s.id, parent, s.name, s.start_ns, s.end_ns, s.records, s.bytes
            )
            .expect("write to String");
        }
        out
    }

    /// The self-time table, widest self time first.
    pub fn self_time_table(&self) -> String {
        let mut rows: Vec<(String, SelfTime)> = self.self_times().into_iter().collect();
        rows.sort_by_key(|row| std::cmp::Reverse(row.1.self_ns));
        let total: u64 = rows.iter().map(|r| r.1.self_ns).sum();
        let mut out = format!(
            "{:<28} {:>8} {:>12} {:>7} {:>12}\n",
            "span", "count", "self_ms", "share", "ns/record"
        );
        for (name, t) in rows {
            let per = if t.records == 0 {
                "-".to_owned()
            } else {
                format!("{:.1}", t.self_ns as f64 / t.records as f64)
            };
            writeln!(
                out,
                "{:<28} {:>8} {:>12.3} {:>6.1}% {:>12}",
                name,
                t.count,
                t.self_ns as f64 / 1e6,
                100.0 * t.self_ns as f64 / total.max(1) as f64,
                per
            )
            .expect("write to String");
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_is_duration_minus_children() {
        let mut t = Tracer::new(true);
        t.begin("outer");
        t.span("inner", |_| ((), 3, 30));
        t.child_total("piecewise", 5, 2, 20);
        t.end(5, 50);
        let spans = t.spans();
        assert_eq!(spans.len(), 3);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[2].parent, Some(0));
        assert_eq!(spans[2].end_ns - spans[2].start_ns, 5);
        let outer = spans[0].end_ns - spans[0].start_ns;
        let inner = spans[1].end_ns - spans[1].start_ns;
        let st = t.self_times();
        assert_eq!(st["outer"].self_ns, outer.saturating_sub(inner + 5));
        assert_eq!(st["inner"].records, 3);
        assert_eq!(t.to_jsonl().lines().count(), 3);
        assert!(t.to_jsonl().contains("\"parent\":null"));
        assert!(t.self_time_table().contains("piecewise"));
    }

    #[test]
    fn a_disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false);
        let got = t.span("x", |t| {
            t.child_total("y", 9, 1, 1);
            (7, 1, 1)
        });
        assert_eq!(got, 7);
        assert!(t.spans().is_empty());
    }
}
