//! The metric registry: named, labelled metrics with snapshot and
//! rendering support.
//!
//! Metrics are keyed by `(component, name, label)` — component is the
//! pipeline stage (`meterd`, `filter`, `store`, `live`, `e2e`, ...),
//! name the quantity, and label the instance (a machine, a link like
//! `bsd1->bsd2`, a shard). Registration is get-or-create and returns
//! a shared handle; hot paths register once and hold the `Arc`, so
//! the registry lock is never on a per-record path.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::{Arc, Mutex};

use crate::metrics::{Counter, Gauge, HistSnapshot, Histogram};

/// A registered metric handle.
#[derive(Debug, Clone)]
enum Metric {
    Counter(Arc<Counter>),
    Gauge(Arc<Gauge>),
    Histogram(Arc<Histogram>),
}

impl Metric {
    fn kind(&self) -> &'static str {
        match self {
            Metric::Counter(_) => "counter",
            Metric::Gauge(_) => "gauge",
            Metric::Histogram(_) => "histogram",
        }
    }
}

/// The value of one metric at snapshot time.
#[derive(Debug, Clone, PartialEq)]
pub enum MetricValue {
    /// Event count.
    Counter(u64),
    /// Instantaneous level.
    Gauge(i64),
    /// Distribution snapshot (boxed: a `HistSnapshot` carries its
    /// whole bucket array, far larger than the scalar variants).
    Histogram(Box<HistSnapshot>),
}

/// One metric in a [`TelemetrySnapshot`].
#[derive(Debug, Clone, PartialEq)]
pub struct MetricSnapshot {
    /// Pipeline stage (`meterd`, `filter`, `store`, `live`, `e2e`, ...).
    pub component: String,
    /// Quantity name (`rpc_retries`, `flush_batch_bytes`, ...).
    pub name: String,
    /// Instance label (machine, link, shard); empty for singletons.
    pub label: String,
    /// The observed value.
    pub value: MetricValue,
}

/// A point-in-time copy of every registered metric, sorted by
/// `(component, name, label)`.
#[derive(Debug, Clone, Default)]
pub struct TelemetrySnapshot {
    /// The metrics, in key order.
    pub metrics: Vec<MetricSnapshot>,
}

/// A collection of named metrics.
///
/// Most code uses the process-global registry via
/// [`crate::registry`]; tests that need isolation build their own.
#[derive(Debug, Default)]
pub struct Registry {
    map: Mutex<BTreeMap<(String, String, String), Metric>>,
}

impl Registry {
    /// An empty registry.
    pub fn new() -> Registry {
        Registry::default()
    }

    /// The counter `(component, name, label)`, created on first use.
    ///
    /// # Panics
    /// If the key is already registered as a different metric kind.
    pub fn counter(&self, component: &str, name: &str, label: &str) -> Arc<Counter> {
        let mut map = self.map.lock().unwrap();
        let m = map
            .entry(key(component, name, label))
            .or_insert_with(|| Metric::Counter(Arc::new(Counter::new())));
        match m {
            Metric::Counter(c) => c.clone(),
            other => mismatch(component, name, label, "counter", other.kind()),
        }
    }

    /// The gauge `(component, name, label)`, created on first use.
    ///
    /// # Panics
    /// If the key is already registered as a different metric kind.
    pub fn gauge(&self, component: &str, name: &str, label: &str) -> Arc<Gauge> {
        let mut map = self.map.lock().unwrap();
        let m = map
            .entry(key(component, name, label))
            .or_insert_with(|| Metric::Gauge(Arc::new(Gauge::new())));
        match m {
            Metric::Gauge(g) => g.clone(),
            other => mismatch(component, name, label, "gauge", other.kind()),
        }
    }

    /// The histogram `(component, name, label)`, created on first use.
    ///
    /// # Panics
    /// If the key is already registered as a different metric kind.
    pub fn histogram(&self, component: &str, name: &str, label: &str) -> Arc<Histogram> {
        let mut map = self.map.lock().unwrap();
        let m = map
            .entry(key(component, name, label))
            .or_insert_with(|| Metric::Histogram(Arc::new(Histogram::new())));
        match m {
            Metric::Histogram(h) => h.clone(),
            other => mismatch(component, name, label, "histogram", other.kind()),
        }
    }

    /// Copies every registered metric into a sorted snapshot.
    pub fn snapshot(&self) -> TelemetrySnapshot {
        let map = self.map.lock().unwrap();
        let metrics = map
            .iter()
            .map(|((component, name, label), m)| MetricSnapshot {
                component: component.clone(),
                name: name.clone(),
                label: label.clone(),
                value: match m {
                    Metric::Counter(c) => MetricValue::Counter(c.get()),
                    Metric::Gauge(g) => MetricValue::Gauge(g.get()),
                    Metric::Histogram(h) => MetricValue::Histogram(Box::new(h.snapshot())),
                },
            })
            .collect();
        TelemetrySnapshot { metrics }
    }
}

fn key(component: &str, name: &str, label: &str) -> (String, String, String) {
    (component.to_string(), name.to_string(), label.to_string())
}

fn mismatch(component: &str, name: &str, label: &str, want: &str, got: &str) -> ! {
    panic!(
        "telemetry metric {component}/{name}{{{label}}} registered as {got}, requested as {want}"
    )
}

impl TelemetrySnapshot {
    /// The metrics whose component matches `filter` (all when `None`).
    pub fn filtered(&self, filter: Option<&str>) -> Vec<&MetricSnapshot> {
        self.metrics
            .iter()
            .filter(|m| filter.is_none_or(|f| m.component == f))
            .collect()
    }

    /// Renders Prometheus-style text exposition.
    ///
    /// Counters and gauges become one sample each,
    /// `dpm_<component>_<name>{label="<label>"} <value>` (the label
    /// clause omitted when empty). Histograms expand to `_count`,
    /// `_sum`, and `_max` samples plus one `{quantile="..."}` sample
    /// each for p50/p95/p99. The format is pinned by a golden test.
    pub fn render_prometheus(&self) -> String {
        let mut out = String::new();
        for m in &self.metrics {
            let base = format!("dpm_{}_{}", m.component, m.name);
            match &m.value {
                MetricValue::Counter(v) => {
                    let _ = writeln!(out, "{}{} {}", base, label_clause(&m.label, &[]), v);
                }
                MetricValue::Gauge(v) => {
                    let _ = writeln!(out, "{}{} {}", base, label_clause(&m.label, &[]), v);
                }
                MetricValue::Histogram(h) => {
                    let lc = label_clause(&m.label, &[]);
                    let _ = writeln!(out, "{base}_count{lc} {}", h.count);
                    let _ = writeln!(out, "{base}_sum{lc} {}", h.sum);
                    let _ = writeln!(out, "{base}_max{lc} {}", h.max);
                    for (q, v) in [("0.5", h.p50()), ("0.95", h.p95()), ("0.99", h.p99())] {
                        let qc = label_clause(&m.label, &[("quantile", q)]);
                        let _ = writeln!(out, "{base}{qc} {v}");
                    }
                }
            }
        }
        out
    }

    /// Renders a line-JSON snapshot: one
    /// `"component/name{label}": {...}` entry per line inside a single
    /// object, keys sorted.
    pub fn render_json(&self) -> String {
        let mut out = String::from("{\n");
        let mut first = true;
        for m in &self.metrics {
            if !first {
                out.push_str(",\n");
            }
            first = false;
            let k = if m.label.is_empty() {
                format!("{}/{}", m.component, m.name)
            } else {
                format!("{}/{}{{{}}}", m.component, m.name, m.label)
            };
            match &m.value {
                MetricValue::Counter(v) => {
                    let _ = write!(
                        out,
                        "\"{}\": {{\"type\": \"counter\", \"value\": {}}}",
                        k, v
                    );
                }
                MetricValue::Gauge(v) => {
                    let _ = write!(out, "\"{}\": {{\"type\": \"gauge\", \"value\": {}}}", k, v);
                }
                MetricValue::Histogram(h) => {
                    let _ = write!(
                        out,
                        "\"{}\": {{\"type\": \"histogram\", \"count\": {}, \"sum\": {}, \"max\": {}, \"p50\": {}, \"p95\": {}, \"p99\": {}}}",
                        k,
                        h.count,
                        h.sum,
                        h.max,
                        h.p50(),
                        h.p95(),
                        h.p99()
                    );
                }
            }
        }
        out.push_str("\n}\n");
        out
    }

    /// Renders the human-oriented `stats` readout the controller
    /// session prints: metrics grouped by `component/name`, counters
    /// summed and histograms merged across labels, with a per-label
    /// breakdown indented under each group.
    pub fn render_stats(&self, filter: Option<&str>) -> String {
        let picked = self.filtered(filter);
        if picked.is_empty() {
            return match filter {
                Some(f) => format!("no telemetry for component '{f}'\n"),
                None => "no telemetry recorded\n".to_string(),
            };
        }
        // Group by (component, name); keys arrive sorted so labels
        // within a group are contiguous and ordered.
        let mut out = String::new();
        let mut i = 0;
        while i < picked.len() {
            let j = picked[i..]
                .iter()
                .take_while(|m| m.component == picked[i].component && m.name == picked[i].name)
                .count()
                + i;
            let group = &picked[i..j];
            render_stats_group(&mut out, group);
            i = j;
        }
        out
    }
}

fn render_stats_group(out: &mut String, group: &[&MetricSnapshot]) {
    let head = format!("{}/{}", group[0].component, group[0].name);
    match &group[0].value {
        MetricValue::Counter(_) => {
            let total: u64 = group
                .iter()
                .map(|m| match m.value {
                    MetricValue::Counter(v) => v,
                    _ => 0,
                })
                .sum();
            let _ = writeln!(out, "{head}: {total}");
            if group.len() > 1 || !group[0].label.is_empty() {
                for m in group {
                    if let MetricValue::Counter(v) = m.value {
                        let _ = writeln!(out, "  {}: {}", display_label(&m.label), v);
                    }
                }
            }
        }
        MetricValue::Gauge(_) => {
            let total: i64 = group
                .iter()
                .map(|m| match m.value {
                    MetricValue::Gauge(v) => v,
                    _ => 0,
                })
                .sum();
            let _ = writeln!(out, "{head}: {total}");
            if group.len() > 1 || !group[0].label.is_empty() {
                for m in group {
                    if let MetricValue::Gauge(v) = m.value {
                        let _ = writeln!(out, "  {}: {}", display_label(&m.label), v);
                    }
                }
            }
        }
        MetricValue::Histogram(_) => {
            let merged = group
                .iter()
                .fold(HistSnapshot::default(), |acc, m| match &m.value {
                    MetricValue::Histogram(h) => acc.merge(h),
                    _ => acc,
                });
            let _ = writeln!(
                out,
                "{head}: count={} mean={:.1} p50={} p95={} p99={} max={}",
                merged.count,
                merged.mean(),
                merged.p50(),
                merged.p95(),
                merged.p99(),
                merged.max
            );
            if group.len() > 1 || !group[0].label.is_empty() {
                for m in group {
                    if let MetricValue::Histogram(h) = &m.value {
                        let _ = writeln!(
                            out,
                            "  {}: count={} p50={} p99={} max={}",
                            display_label(&m.label),
                            h.count,
                            h.p50(),
                            h.p99(),
                            h.max
                        );
                    }
                }
            }
        }
    }
}

fn display_label(label: &str) -> &str {
    if label.is_empty() {
        "(unlabelled)"
    } else {
        label
    }
}

fn label_clause(label: &str, extra: &[(&str, &str)]) -> String {
    let mut parts = Vec::new();
    if !label.is_empty() {
        parts.push(format!("label=\"{label}\""));
    }
    for (k, v) in extra {
        parts.push(format!("{k}=\"{v}\""));
    }
    if parts.is_empty() {
        String::new()
    } else {
        format!("{{{}}}", parts.join(","))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn get_or_create_returns_the_same_handle() {
        let r = Registry::new();
        let a = r.counter("store", "seals", "s0");
        let b = r.counter("store", "seals", "s0");
        a.inc();
        b.inc();
        assert_eq!(a.get(), 2);
        assert!(Arc::ptr_eq(&a, &b));
    }

    #[test]
    #[should_panic(expected = "registered as counter, requested as gauge")]
    fn kind_mismatch_panics() {
        let r = Registry::new();
        r.counter("store", "seals", "");
        r.gauge("store", "seals", "");
    }

    #[test]
    fn snapshot_is_sorted_by_key() {
        let r = Registry::new();
        r.counter("z", "last", "");
        r.counter("a", "first", "b");
        r.counter("a", "first", "a");
        let s = r.snapshot();
        let keys: Vec<_> = s
            .metrics
            .iter()
            .map(|m| format!("{}/{}/{}", m.component, m.name, m.label))
            .collect();
        assert_eq!(keys, ["a/first/a", "a/first/b", "z/last/"]);
    }

    #[test]
    fn stats_groups_and_sums_across_labels() {
        let r = Registry::new();
        r.counter("meterd", "rpc_retries", "a->b").add(3);
        r.counter("meterd", "rpc_retries", "a->c").add(2);
        let txt = r.snapshot().render_stats(None);
        assert!(txt.contains("meterd/rpc_retries: 5"), "{txt}");
        assert!(txt.contains("  a->b: 3"), "{txt}");
        assert!(txt.contains("  a->c: 2"), "{txt}");
        let none = r.snapshot().render_stats(Some("live"));
        assert!(none.contains("no telemetry for component 'live'"));
    }
}
