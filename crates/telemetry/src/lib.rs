//! End-to-end telemetry for the SecNDP pipeline.
//!
//! The paper's evaluation (§VI, Figures 7–11) is an exercise in knowing
//! where every cycle and byte goes: AES pad generation, NDP-side summation,
//! checksum verification, wire traffic. This crate gives the *runtime*
//! crates the same visibility the simulator's counters give the model —
//! without pulling in `prometheus` or `tracing` (the workspace builds
//! offline; like `crates/compat`, everything here is hand-rolled).
//!
//! # Building blocks
//!
//! - [`Counter`] — a monotonically increasing `AtomicU64`.
//! - [`Gauge`] / [`FloatGauge`] — last-value instruments (integer / `f64`).
//! - [`Histogram`] — log2-bucketed value distribution with
//!   p50/p95/p99 estimation.
//! - [`Registry`] — a named collection of the above with two exporters:
//!   [Prometheus text exposition](Registry::render_prometheus) and a
//!   [JSON snapshot](Registry::render_json).
//! - [`trace`] — per-query distributed tracing: a fixed-capacity span
//!   journal with RAII [`trace::Span`] guards, wire-propagatable
//!   [`trace::SpanContext`]s, and Chrome-trace / tree exporters. A span is
//!   also the only interval timer: [`trace::Span::timed`] sends the span's
//!   one duration to a histogram as well as the journal. One trace in 64
//!   is recorded, decided from its root's id; the rest cost no clock read.
//! - [`audit`] — a bounded security audit log recording every integrity
//!   failure (verify / malformed-response / shape) with its trace id,
//!   region, version and checksum scheme; its FIFO also holds the
//!   [`faultlog`] of injected faults. Both are compiled in every build.
//! - [`profile`] — a continuous profiler folding completed spans into a
//!   flamegraph-ready self-time call tree (`/profilez`), and into one
//!   cost record per local trace root, kept as a top-K-by-latency digest.
//! - [`health`] — one ring of registry snapshots, sampled in the
//!   background, read as one window by component checks (`/healthz`); a
//!   verdict that gets worse at a sample writes a [`recorder`] dump.
//!
//! Metrics live in the process-wide [`global()`] registry and are looked up
//! once per call site through the [`counter!`], [`gauge!`],
//! [`float_gauge!`] and [`histogram!`] macros, which cache the `Arc` in a
//! `static OnceLock` — after first touch a metric access is one atomic
//! load.
//!
//! # Stage taxonomy
//!
//! Pipeline latencies share a single histogram family,
//! `secndp_stage_latency_ns{stage="…"}`, labelled with the span names of
//! [`trace::names`]: `encrypt` → `ndp_compute` → `verify` → `decrypt` mirror
//! the protocol arrows of Figure 4, and `pad_gen` is the streamed pad pass
//! inside `decrypt`. A stage is timed by its span, so the family samples
//! the traces the span journal records: one in
//! [`trace::RECORD_ONE_IN`]. See `DESIGN.md` § Telemetry for every
//! instrument and the reader that keeps it.
//!
//! # Compile-out
//!
//! The `enabled` cargo feature (default on, re-exported as the `telemetry`
//! feature of every runtime crate) gates all storage and timing. With the
//! feature off every instrument is zero-sized, every method body is empty
//! (and inlines to nothing), a span never reads the clock, and the
//! exporters render empty snapshots — call sites need no `cfg` of their
//! own. The [`audit`] and [`faultlog`] logs are evidence, not
//! instrumentation, and stay (with trace ids of 0).
//!
//! # Example
//!
//! ```
//! use secndp_telemetry as telemetry;
//!
//! let reqs = telemetry::counter!("doc_requests_total", "Requests served");
//! reqs.inc();
//! let lat = telemetry::histogram!("doc_latency_ns", "Request latency");
//! {
//!     // A recorded trace journals the span; on drop its duration lands in
//!     // `lat`. (Outside such a scope, one root in 64 is recorded.)
//!     let _t = telemetry::trace::record_trace();
//!     let _s = telemetry::trace::span("doc_request").timed(lat);
//! }
//! let text = telemetry::global().render_prometheus();
//! # #[cfg(feature = "enabled")]
//! assert!(text.contains("doc_requests_total 1") && text.contains("doc_latency_ns_count 1"));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod audit;
mod export;
pub mod faultlog;
pub mod health;
mod metrics;
pub mod process;
pub mod profile;
pub mod recorder;
mod registry;
pub mod serve;
#[cfg(all(test, feature = "enabled"))]
mod tests;
pub mod trace;

pub use export::json_escape;
pub use metrics::{Counter, FloatGauge, Gauge, Histogram, HistogramSnapshot, BUCKETS};
pub use process::init_process_metrics;
pub use recorder::install_panic_hook_in;
pub use registry::{global, MetricKind, MetricSnapshot, Registry, Snapshot, Value};

/// Looks up (registering on first use) a [`Counter`] in the global
/// registry, caching the handle in a call-site `static`. Expands to a
/// `&'static Counter`.
#[macro_export]
macro_rules! counter {
    ($name:expr, $help:expr) => {
        $crate::counter!($name, &[], $help)
    };
    ($name:expr, $labels:expr, $help:expr) => {{
        static CELL: ::std::sync::OnceLock<::std::sync::Arc<$crate::Counter>> =
            ::std::sync::OnceLock::new();
        &**CELL.get_or_init(|| $crate::global().counter($name, $labels, $help))
    }};
}

/// Looks up (registering on first use) a [`Gauge`] in the global registry.
/// Expands to a `&'static Gauge`.
#[macro_export]
macro_rules! gauge {
    ($name:expr, $help:expr) => {
        $crate::gauge!($name, &[], $help)
    };
    ($name:expr, $labels:expr, $help:expr) => {{
        static CELL: ::std::sync::OnceLock<::std::sync::Arc<$crate::Gauge>> =
            ::std::sync::OnceLock::new();
        &**CELL.get_or_init(|| $crate::global().gauge($name, $labels, $help))
    }};
}

/// Looks up (registering on first use) a [`FloatGauge`] in the global
/// registry. Expands to a `&'static FloatGauge`.
#[macro_export]
macro_rules! float_gauge {
    ($name:expr, $help:expr) => {
        $crate::float_gauge!($name, &[], $help)
    };
    ($name:expr, $labels:expr, $help:expr) => {{
        static CELL: ::std::sync::OnceLock<::std::sync::Arc<$crate::FloatGauge>> =
            ::std::sync::OnceLock::new();
        &**CELL.get_or_init(|| $crate::global().float_gauge($name, $labels, $help))
    }};
}

/// Looks up (registering on first use) a [`Histogram`] in the global
/// registry. Expands to a `&'static Histogram`.
#[macro_export]
macro_rules! histogram {
    ($name:expr, $help:expr) => {
        $crate::histogram!($name, &[], $help)
    };
    ($name:expr, $labels:expr, $help:expr) => {{
        static CELL: ::std::sync::OnceLock<::std::sync::Arc<$crate::Histogram>> =
            ::std::sync::OnceLock::new();
        &**CELL.get_or_init(|| $crate::global().histogram($name, $labels, $help))
    }};
}
