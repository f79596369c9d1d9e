//! Exporters: Prometheus text exposition format and a JSON snapshot.

use crate::metrics::HistogramSnapshot;
use crate::registry::{MetricKind, MetricSnapshot, Snapshot, Value};
use std::collections::BTreeMap;
use std::fmt::Write;

/// Escapes a label *value* per the Prometheus text exposition format:
/// backslash, double-quote, and line-feed become `\\`, `\"`, and `\n`.
/// (Label names and metric names are `[a-zA-Z0-9_:]` by construction and
/// need no escaping.)
pub(crate) fn prom_escape_label(v: &str) -> String {
    let mut out = String::with_capacity(v.len());
    for c in v.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '"' => out.push_str("\\\""),
            '\n' => out.push_str("\\n"),
            c => out.push(c),
        }
    }
    out
}

/// Renders `{k="v",…}` (with `extra` appended), or "" with no labels.
/// Label values are escaped with [`prom_escape_label`].
fn label_block(labels: &[(&'static str, &'static str)], extra: Option<(&str, &str)>) -> String {
    let mut pairs: Vec<String> = labels
        .iter()
        .map(|(k, v)| format!("{k}=\"{}\"", prom_escape_label(v)))
        .collect();
    if let Some((k, v)) = extra {
        pairs.push(format!("{k}=\"{}\"", prom_escape_label(v)));
    }
    if pairs.is_empty() {
        String::new()
    } else {
        format!("{{{}}}", pairs.join(","))
    }
}

/// Renders a snapshot in the Prometheus text exposition format: one
/// `# HELP` / `# TYPE` pair per metric family, histograms as cumulative
/// `_bucket{le=…}` series plus `_sum` / `_count`.
pub(crate) fn render_prometheus(snap: &Snapshot) -> String {
    // Group series by family name so multi-label families (e.g. the stage
    // histograms) emit their header exactly once.
    let mut families: BTreeMap<&str, Vec<&MetricSnapshot>> = BTreeMap::new();
    for m in &snap.metrics {
        families.entry(m.name).or_default().push(m);
    }
    let mut out = String::new();
    for (name, series) in families {
        let kind = match series[0].kind() {
            MetricKind::Counter => "counter",
            MetricKind::Gauge => "gauge",
            MetricKind::Histogram => "histogram",
        };
        let _ = writeln!(out, "# HELP {name} {}", series[0].help);
        let _ = writeln!(out, "# TYPE {name} {kind}");
        for m in series {
            match &m.value {
                Value::Counter(v) => {
                    let _ = writeln!(out, "{name}{} {v}", label_block(&m.labels, None));
                }
                Value::Gauge(v) => {
                    let _ = writeln!(out, "{name}{} {v}", label_block(&m.labels, None));
                }
                Value::Float(v) => {
                    let _ = writeln!(out, "{name}{} {v}", label_block(&m.labels, None));
                }
                Value::Histogram(h) => render_prometheus_histogram(&mut out, name, m, h),
            }
        }
    }
    out
}

fn render_prometheus_histogram(
    out: &mut String,
    name: &str,
    m: &MetricSnapshot,
    h: &HistogramSnapshot,
) {
    // Emit cumulative buckets up to the highest occupied one; trailing
    // empty buckets collapse into `+Inf` (Prometheus buckets need not be
    // exhaustive, only cumulative).
    let last = h.buckets.iter().rposition(|&n| n > 0).unwrap_or(0);
    let mut cum = 0u64;
    for (i, &n) in h.buckets.iter().enumerate().take(last + 1) {
        cum += n;
        let le = HistogramSnapshot::upper_bound(i).to_string();
        let _ = writeln!(
            out,
            "{name}_bucket{} {cum}",
            label_block(&m.labels, Some(("le", &le)))
        );
    }
    let _ = writeln!(
        out,
        "{name}_bucket{} {}",
        label_block(&m.labels, Some(("le", "+Inf"))),
        h.count
    );
    let _ = writeln!(out, "{name}_sum{} {}", label_block(&m.labels, None), h.sum);
    let _ = writeln!(
        out,
        "{name}_count{} {}",
        label_block(&m.labels, None),
        h.count
    );
}

/// Escapes `s` for use inside a JSON string literal: quotes, backslashes
/// and every control character; the workspace's one JSON string escaper.
pub fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
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
    out
}

fn json_labels(labels: &[(&'static str, &'static str)]) -> String {
    let pairs: Vec<String> = labels
        .iter()
        .map(|(k, v)| format!("\"{}\":\"{}\"", json_escape(k), json_escape(v)))
        .collect();
    format!("{{{}}}", pairs.join(","))
}

/// Formats an `f64` for JSON (no NaN/Inf — both render as 0).
fn json_f64(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

/// Renders a snapshot as a JSON document:
///
/// ```json
/// {
///   "counters":   [ {"name": "...", "labels": {...}, "value": 1}, ... ],
///   "gauges":     [ {"name": "...", "labels": {...}, "value": 2.5}, ... ],
///   "histograms": [ {"name": "...", "labels": {...}, "count": 3,
///                    "sum": 99, "mean": 33.0,
///                    "p50": 30.0, "p95": 60.0, "p99": 62.0,
///                    "buckets": [{"le": 63, "count": 3}, ...]}, ... ]
/// }
/// ```
///
/// Quantiles are precomputed so downstream trend tracking needs no
/// knowledge of the bucket layout; `buckets` lists occupied buckets only.
pub(crate) fn render_json(snap: &Snapshot) -> String {
    let mut counters = Vec::new();
    let mut gauges = Vec::new();
    let mut histograms = Vec::new();
    for m in &snap.metrics {
        let head = format!(
            "\"name\":\"{}\",\"labels\":{}",
            json_escape(m.name),
            json_labels(&m.labels)
        );
        match &m.value {
            Value::Counter(v) => counters.push(format!("{{{head},\"value\":{v}}}")),
            Value::Gauge(v) => gauges.push(format!("{{{head},\"value\":{v}}}")),
            Value::Float(v) => gauges.push(format!("{{{head},\"value\":{}}}", json_f64(*v))),
            Value::Histogram(h) => {
                let buckets: Vec<String> = h
                    .buckets
                    .iter()
                    .enumerate()
                    .filter(|(_, &n)| n > 0)
                    .map(|(i, &n)| {
                        format!(
                            "{{\"le\":{},\"count\":{n}}}",
                            HistogramSnapshot::upper_bound(i)
                        )
                    })
                    .collect();
                histograms.push(format!(
                    "{{{head},\"count\":{},\"sum\":{},\"mean\":{},\"p50\":{},\"p95\":{},\"p99\":{},\"buckets\":[{}]}}",
                    h.count,
                    h.sum,
                    json_f64(h.mean()),
                    json_f64(h.quantile(0.50)),
                    json_f64(h.quantile(0.95)),
                    json_f64(h.quantile(0.99)),
                    buckets.join(",")
                ));
            }
        }
    }
    format!(
        "{{\"counters\":[{}],\"gauges\":[{}],\"histograms\":[{}]}}",
        counters.join(","),
        gauges.join(","),
        histograms.join(",")
    )
}
