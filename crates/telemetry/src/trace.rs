//! Per-query distributed tracing: a span journal with wire-propagatable
//! contexts and two exporters.
//!
//! Aggregate metrics (the [`crate::Histogram`] family) answer "how slow is
//! the verify stage on average"; they cannot answer "where did *this*
//! query spend its time" or "which table did *this* verification failure
//! hit". This module records **spans** — named begin/end intervals with
//! parent links — into a fixed-capacity ring-buffer journal, so a single
//! `weighted_sum_batch` call can be reconstructed as one connected
//! timeline spanning both sides of the processor ↔ NDP trust boundary.
//!
//! # Design
//!
//! - [`TraceId`] / [`SpanId`] come from process-wide atomic counters —
//!   deterministic, allocation-free, and `Date`-free (ids are stable under
//!   `--test-threads=1` replay and never depend on wall-clock identity).
//! - The journal ([`SpanJournal`]) is a fixed-capacity ring: slot
//!   reservation is one wait-free `fetch_add`; each slot is guarded by its
//!   own tiny mutex that is only ever contended across ring wrap-arounds.
//!   Memory is bounded — old events are overwritten, never reallocated.
//! - The *current* span context lives in a thread-local and is managed by
//!   RAII [`Span`] guards, so call sites never thread an explicit context
//!   argument through the protocol stack. Remote sides stitch into the
//!   same trace by carrying the `(trace, span)` ids over the wire (see
//!   `secndp-core::wire`) and opening children with [`span_child_of`].
//! - Timestamps are monotonic nanoseconds since the first event in the
//!   process (a `OnceLock<Instant>` epoch), so exported traces always
//!   start near zero.
//!
//! # Exporters
//!
//! - [`SpanJournal::render_chrome_trace`]: Chrome `trace_event` JSON,
//!   loadable in `chrome://tracing` or <https://ui.perfetto.dev>. Each
//!   trace id becomes one timeline row (`tid`), so concurrent queries are
//!   visually separated.
//! - [`SpanJournal::render_tree`]: a human-readable indented span tree,
//!   one block per trace.
//!
//! # Compile-out
//!
//! Without the `enabled` feature every function is an inlined no-op:
//! [`Span`] is zero-sized, no ids are allocated, the clock is never read,
//! and the exporters render valid-but-empty documents.

use std::fmt;

#[cfg(feature = "enabled")]
use std::cell::Cell;
#[cfg(feature = "enabled")]
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering::Relaxed};
#[cfg(feature = "enabled")]
use std::sync::{Mutex, OnceLock};
#[cfg(feature = "enabled")]
use std::time::Instant;

/// Identifier of one end-to-end request (all spans of one query share it).
/// `TraceId(0)` means "no trace".
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct TraceId(pub u64);

/// Identifier of one span within a trace. `SpanId(0)` means "no parent".
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SpanId(pub u64);

impl fmt::Display for TraceId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "t{}", self.0)
    }
}

impl fmt::Display for SpanId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "s{}", self.0)
    }
}

/// A `(trace, span)` pair: everything a remote party needs to attach child
/// spans to an in-flight request. This is the value carried in traced wire
/// frames; it exists (as plain ids) even when tracing is compiled out so
/// the wire format does not change shape with the feature.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SpanContext {
    /// The trace every descendant span will join.
    pub trace: TraceId,
    /// The span that becomes the parent of remote children.
    pub span: SpanId,
}

impl SpanContext {
    /// The empty context (no active trace).
    pub const NONE: SpanContext = SpanContext {
        trace: TraceId(0),
        span: SpanId(0),
    };

    /// Whether this context carries no trace.
    pub fn is_none(&self) -> bool {
        self.trace.0 == 0
    }
}

/// A small typed attribute value attached to a span.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum AttrValue {
    /// Unsigned integer (counts, addresses, byte sizes).
    U64(u64),
    /// Signed integer.
    I64(i64),
    /// Static string (mode names, error kinds).
    Str(&'static str),
}

impl fmt::Display for AttrValue {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AttrValue::U64(v) => write!(f, "{v}"),
            AttrValue::I64(v) => write!(f, "{v}"),
            AttrValue::Str(s) => f.write_str(s),
        }
    }
}

/// Whether a journal record opens or closes a span.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SpanEventKind {
    /// Span opened.
    Begin,
    /// Span closed (carries the span's accumulated attributes).
    End,
}

/// One begin/end record in the journal.
#[derive(Debug, Clone, PartialEq)]
pub struct SpanEvent {
    /// Global sequence number (monotonic across the process; gaps indicate
    /// ring overwrites).
    pub seq: u64,
    /// Begin or end.
    pub kind: SpanEventKind,
    /// The trace this span belongs to.
    pub trace: TraceId,
    /// This span's id.
    pub span: SpanId,
    /// Parent span id (`SpanId(0)` for roots).
    pub parent: SpanId,
    /// Static span name (see [`names`]).
    pub name: &'static str,
    /// Monotonic nanoseconds since the process trace epoch.
    pub t_ns: u64,
    /// Typed attributes (populated on `End` records).
    pub attrs: Vec<(&'static str, AttrValue)>,
}

/// Canonical span names for the SecNDP pipeline, mirroring the Figure 4
/// protocol arrows plus the wire layer. Using these constants keeps the
/// processor- and device-side timelines stitchable by name.
pub mod names {
    /// OTP pad planning + batched AES encryption (`PadPlanner::execute`).
    pub const PAD_GEN: &str = "pad_gen";
    /// Cross-query pad-cache probe (nested under [`PAD_GEN`]).
    pub const PAD_CACHE: &str = "pad_cache";
    /// Table encryption and tag generation inside the TEE.
    pub const ENCRYPT: &str = "encrypt";
    /// Request-frame serialization on the processor side.
    pub const WIRE_ENCODE: &str = "wire_encode";
    /// Full encode → serve → decode wire round trip.
    pub const WIRE_ROUND_TRIP: &str = "wire_round_trip";
    /// The untrusted device computing `Σ aₖ·C_{iₖ}`.
    pub const NDP_COMPUTE: &str = "ndp_compute";
    /// Device-side frame dispatch (the DIMM firmware view).
    pub const NDP_SERVE: &str = "ndp_serve";
    /// Checksum recomputation and tag comparison.
    pub const VERIFY: &str = "verify";
    /// OTP-share regeneration and final reconstruction.
    pub const DECRYPT: &str = "decrypt";
}

/// Default journal capacity (events, not spans; one span = two events).
pub const DEFAULT_JOURNAL_CAPACITY: usize = 32 * 1024;

#[cfg(feature = "enabled")]
mod enabled {
    use super::*;

    static NEXT_TRACE: AtomicU64 = AtomicU64::new(1);
    static NEXT_SPAN: AtomicU64 = AtomicU64::new(1);
    static IO_SPANS: AtomicBool = AtomicBool::new(false);

    thread_local! {
        static CURRENT: Cell<SpanContext> = const { Cell::new(SpanContext::NONE) };
    }

    fn epoch() -> Instant {
        static EPOCH: OnceLock<Instant> = OnceLock::new();
        *EPOCH.get_or_init(Instant::now)
    }

    fn now_ns() -> u64 {
        u64::try_from(epoch().elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    pub(super) fn next_trace_id() -> TraceId {
        TraceId(NEXT_TRACE.fetch_add(1, Relaxed))
    }

    pub(super) fn next_span_id() -> SpanId {
        SpanId(NEXT_SPAN.fetch_add(1, Relaxed))
    }

    pub(super) fn current_ctx() -> SpanContext {
        CURRENT.with(|c| c.get())
    }

    pub(super) fn set_current(ctx: SpanContext) {
        CURRENT.with(|c| c.set(ctx));
    }

    pub(super) fn io_spans() -> bool {
        IO_SPANS.load(Relaxed)
    }

    pub(super) fn set_io_spans(on: bool) {
        IO_SPANS.store(on, Relaxed);
    }

    /// Ring-buffer state: slot reservation is a wait-free `fetch_add` on
    /// `cursor`; each slot's mutex only serializes the (rare) writer that
    /// laps the ring against a concurrent snapshot reader.
    pub(super) struct JournalState {
        pub slots: Box<[Mutex<Option<SpanEvent>>]>,
        pub cursor: AtomicU64,
    }

    impl JournalState {
        pub fn with_capacity(capacity: usize) -> Self {
            let cap = capacity.max(2);
            Self {
                slots: (0..cap).map(|_| Mutex::new(None)).collect(),
                cursor: AtomicU64::new(0),
            }
        }

        pub fn record(&self, mut ev: SpanEvent) {
            let seq = self.cursor.fetch_add(1, Relaxed);
            ev.seq = seq;
            let slot = (seq % self.slots.len() as u64) as usize;
            *self.slots[slot].lock().unwrap() = Some(ev);
        }
    }

    /// Journals a `Begin` record and returns the stamp it carries.
    pub(super) fn begin_event(
        trace: TraceId,
        span: SpanId,
        parent: SpanId,
        name: &'static str,
    ) -> u64 {
        let t_ns = now_ns();
        journal().record_event(SpanEvent {
            seq: 0,
            kind: SpanEventKind::Begin,
            trace,
            span,
            parent,
            name,
            t_ns,
            attrs: Vec::new(),
        });
        t_ns
    }

    /// Journals an `End` record and returns the stamp it carries.
    pub(super) fn end_event(
        trace: TraceId,
        span: SpanId,
        parent: SpanId,
        name: &'static str,
        attrs: Vec<(&'static str, AttrValue)>,
    ) -> u64 {
        let t_ns = now_ns();
        journal().record_event(SpanEvent {
            seq: 0,
            kind: SpanEventKind::End,
            trace,
            span,
            parent,
            name,
            t_ns,
            attrs,
        });
        t_ns
    }
}

/// The fixed-capacity span journal.
///
/// With tracing compiled out this is an empty type whose snapshot is
/// always empty and whose exporters render valid empty documents.
pub struct SpanJournal {
    #[cfg(feature = "enabled")]
    state: enabled::JournalState,
}

impl fmt::Debug for SpanJournal {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("SpanJournal")
            .field("capacity", &self.capacity())
            .field("recorded", &self.recorded())
            .finish()
    }
}

impl SpanJournal {
    /// A journal holding at most `capacity` events (clamped to ≥ 2).
    pub fn with_capacity(capacity: usize) -> Self {
        #[cfg(feature = "enabled")]
        {
            Self {
                state: enabled::JournalState::with_capacity(capacity),
            }
        }
        #[cfg(not(feature = "enabled"))]
        {
            let _ = capacity;
            Self {}
        }
    }

    /// Maximum number of retained events (0 when tracing is compiled out).
    pub fn capacity(&self) -> usize {
        #[cfg(feature = "enabled")]
        {
            self.state.slots.len()
        }
        #[cfg(not(feature = "enabled"))]
        0
    }

    /// Total events ever recorded (including overwritten ones).
    pub fn recorded(&self) -> u64 {
        #[cfg(feature = "enabled")]
        {
            self.state.cursor.load(std::sync::atomic::Ordering::Relaxed)
        }
        #[cfg(not(feature = "enabled"))]
        0
    }

    /// Events lost to ring overwrites so far.
    pub fn dropped(&self) -> u64 {
        self.recorded().saturating_sub(self.capacity() as u64)
    }

    /// Appends one event (used by [`Span`]; public so tests and custom
    /// instrumentation can journal synthetic events).
    pub fn record_event(&self, ev: SpanEvent) {
        #[cfg(feature = "enabled")]
        self.state.record(ev);
        #[cfg(not(feature = "enabled"))]
        let _ = ev;
    }

    /// A point-in-time copy of the retained events, in recording order.
    /// Like metric snapshots, a snapshot taken during concurrent recording
    /// may miss a handful of in-flight events.
    pub fn snapshot(&self) -> Vec<SpanEvent> {
        #[cfg(feature = "enabled")]
        {
            let mut evs: Vec<SpanEvent> = self
                .state
                .slots
                .iter()
                .filter_map(|s| s.lock().unwrap().clone())
                .collect();
            evs.sort_by_key(|e| e.seq);
            evs
        }
        #[cfg(not(feature = "enabled"))]
        Vec::new()
    }

    /// Clears all retained events (the sequence counter keeps advancing so
    /// `seq` values stay unique per process).
    pub fn clear(&self) {
        #[cfg(feature = "enabled")]
        for s in self.state.slots.iter() {
            *s.lock().unwrap() = None;
        }
    }

    /// Renders the journal as Chrome `trace_event` JSON (the array-of-events
    /// form with a `traceEvents` wrapper), loadable in `chrome://tracing`
    /// and Perfetto.
    ///
    /// Every emitted `"ph":"B"` has a matching `"ph":"E"`: spans whose
    /// begin record was overwritten by the ring (or that are still open)
    /// are skipped rather than emitted half-paired. Timestamps are
    /// microseconds (`ts`), one timeline row (`tid`) per trace id, and
    /// `args` carries the trace/span/parent ids plus the span's typed
    /// attributes.
    pub fn render_chrome_trace(&self) -> String {
        render_chrome_trace(&self.snapshot())
    }

    /// Renders the journal as a human-readable span tree, one indented
    /// block per trace. Only complete (begin + end retained) spans appear.
    pub fn render_tree(&self) -> String {
        render_tree(&self.snapshot())
    }
}

/// The process-wide journal that [`Span`] guards record into.
pub fn journal() -> &'static SpanJournal {
    #[cfg(feature = "enabled")]
    {
        static JOURNAL: OnceLock<SpanJournal> = OnceLock::new();
        JOURNAL.get_or_init(|| SpanJournal::with_capacity(DEFAULT_JOURNAL_CAPACITY))
    }
    #[cfg(not(feature = "enabled"))]
    {
        static JOURNAL: SpanJournal = SpanJournal {};
        &JOURNAL
    }
}

/// The calling thread's current span context ([`SpanContext::NONE`] when
/// no span is open or tracing is compiled out). This is the value a wire
/// layer should stamp onto outgoing frames.
pub fn current() -> SpanContext {
    #[cfg(feature = "enabled")]
    {
        enabled::current_ctx()
    }
    #[cfg(not(feature = "enabled"))]
    SpanContext::NONE
}

/// Whether high-frequency I/O spans (e.g. per-burst DRAM access spans in
/// the simulator) should be recorded. Off by default — they are opt-in
/// because hot simulation loops can wrap the journal in milliseconds.
pub fn io_spans_enabled() -> bool {
    #[cfg(feature = "enabled")]
    {
        enabled::io_spans()
    }
    #[cfg(not(feature = "enabled"))]
    false
}

/// Enables or disables high-frequency I/O spans process-wide.
pub fn set_io_spans(on: bool) {
    #[cfg(feature = "enabled")]
    enabled::set_io_spans(on);
    #[cfg(not(feature = "enabled"))]
    let _ = on;
}

/// An RAII span guard: records a `Begin` event on creation, installs
/// itself as the thread's current context, and records an `End` event
/// (carrying any attached attributes) on drop, restoring the previous
/// context. Zero-sized and clock-free when tracing is compiled out.
#[must_use = "a span ends when dropped; binding it to `_` ends it immediately"]
#[derive(Debug)]
pub struct Span {
    #[cfg(feature = "enabled")]
    ctx: SpanContext,
    #[cfg(feature = "enabled")]
    parent: SpanId,
    #[cfg(feature = "enabled")]
    prev: SpanContext,
    #[cfg(feature = "enabled")]
    name: &'static str,
    #[cfg(feature = "enabled")]
    attrs: Vec<(&'static str, AttrValue)>,
    /// The `Begin` record's stamp.
    #[cfg(feature = "enabled")]
    start_ns: u64,
    /// Set by [`timed`](Span::timed): where the span's duration goes on
    /// close, besides the journal.
    #[cfg(feature = "enabled")]
    stage: Option<&'static crate::Histogram>,
}

/// Opens a span as a child of the thread's current span, or as the root of
/// a fresh trace when no span is open.
pub fn span(name: &'static str) -> Span {
    span_child_of(name, current())
}

/// Opens a span under an explicit parent context — how a remote party
/// (e.g. the device side of the wire) stitches its spans into a trace
/// whose ids arrived over the wire. An empty context behaves like
/// [`span`] (ambient parent, or a fresh root trace).
pub fn span_child_of(name: &'static str, ctx: SpanContext) -> Span {
    #[cfg(feature = "enabled")]
    {
        let ambient = enabled::current_ctx();
        let (trace, parent) = if !ctx.is_none() {
            (ctx.trace, ctx.span)
        } else if !ambient.is_none() {
            (ambient.trace, ambient.span)
        } else {
            (enabled::next_trace_id(), SpanId(0))
        };
        let span = enabled::next_span_id();
        let start_ns = enabled::begin_event(trace, span, parent, name);
        let me = SpanContext { trace, span };
        enabled::set_current(me);
        Span {
            ctx: me,
            parent,
            prev: ambient,
            name,
            attrs: Vec::new(),
            start_ns,
            stage: None,
        }
    }
    #[cfg(not(feature = "enabled"))]
    {
        let _ = (name, ctx);
        Span {}
    }
}

impl Span {
    /// This span's `(trace, span)` context — what gets carried on wire
    /// frames so remote children join the same trace.
    pub fn context(&self) -> SpanContext {
        #[cfg(feature = "enabled")]
        {
            self.ctx
        }
        #[cfg(not(feature = "enabled"))]
        SpanContext::NONE
    }

    /// The raw trace id (0 when tracing is compiled out).
    pub fn trace_id(&self) -> u64 {
        self.context().trace.0
    }

    /// The raw span id (0 when tracing is compiled out).
    pub fn id(&self) -> u64 {
        self.context().span.0
    }

    /// Attaches a typed attribute, recorded on the span's `End` event.
    pub fn attr(&mut self, key: &'static str, value: AttrValue) {
        #[cfg(feature = "enabled")]
        self.attrs.push((key, value));
        #[cfg(not(feature = "enabled"))]
        let _ = (key, value);
    }

    /// Attaches an unsigned-integer attribute.
    pub fn attr_u64(&mut self, key: &'static str, value: u64) {
        self.attr(key, AttrValue::U64(value));
    }

    /// Attaches a static-string attribute.
    pub fn attr_str(&mut self, key: &'static str, value: &'static str) {
        self.attr(key, AttrValue::Str(value));
    }

    /// Makes this span a pipeline stage: on close its duration — the
    /// difference of the two stamps the journal records — is observed into
    /// `hist` and billed to the active [`QueryCost`](crate::profile::QueryCost)
    /// under the span's name, so the journal, the histogram and the cost
    /// ledger report one number from one pair of clock reads.
    /// Still zero-sized and clock-free with tracing compiled out.
    #[cfg_attr(not(feature = "enabled"), allow(unused_mut))]
    pub fn timed(mut self, hist: &'static crate::Histogram) -> Span {
        #[cfg(feature = "enabled")]
        {
            self.stage = Some(hist);
        }
        #[cfg(not(feature = "enabled"))]
        let _ = hist;
        self
    }

    /// Ends the span now (equivalent to dropping it).
    pub fn end(self) {}
}

impl Drop for Span {
    fn drop(&mut self) {
        #[cfg(feature = "enabled")]
        {
            let end_ns = enabled::end_event(
                self.ctx.trace,
                self.ctx.span,
                self.parent,
                self.name,
                std::mem::take(&mut self.attrs),
            );
            enabled::set_current(self.prev);
            if let Some(hist) = self.stage {
                let ns = end_ns.saturating_sub(self.start_ns);
                hist.observe(ns);
                crate::profile::add_stage_ns(self.name, ns);
            }
        }
    }
}

// ─── Exporters ──────────────────────────────────────────────────────────

/// Pairs begin/end records by span id, returning complete spans as
/// `(begin, end)` in begin-seq order. Orphans (open spans, or spans whose
/// begin was overwritten by the ring) are dropped.
fn complete_spans(events: &[SpanEvent]) -> Vec<(&SpanEvent, &SpanEvent)> {
    use std::collections::HashMap;
    let mut begins: HashMap<SpanId, &SpanEvent> = HashMap::new();
    let mut pairs: Vec<(&SpanEvent, &SpanEvent)> = Vec::new();
    for ev in events {
        match ev.kind {
            SpanEventKind::Begin => {
                begins.insert(ev.span, ev);
            }
            SpanEventKind::End => {
                if let Some(b) = begins.remove(&ev.span) {
                    pairs.push((b, ev));
                }
            }
        }
    }
    pairs.sort_by_key(|(b, _)| b.seq);
    pairs
}

fn chrome_args(ev: &SpanEvent, attrs: &[(&'static str, AttrValue)]) -> String {
    let mut fields = vec![
        format!("\"trace\":{}", ev.trace.0),
        format!("\"span\":{}", ev.span.0),
        format!("\"parent\":{}", ev.parent.0),
    ];
    for (k, v) in attrs {
        let val = match v {
            AttrValue::U64(n) => n.to_string(),
            AttrValue::I64(n) => n.to_string(),
            AttrValue::Str(s) => format!("\"{}\"", crate::export::json_escape(s)),
        };
        fields.push(format!("\"{}\":{val}", crate::export::json_escape(k)));
    }
    format!("{{{}}}", fields.join(","))
}

/// Renders a slice of journal events as Chrome `trace_event` JSON. See
/// [`SpanJournal::render_chrome_trace`].
pub fn render_chrome_trace(events: &[SpanEvent]) -> String {
    let mut out: Vec<(u64, String)> = Vec::new();
    for (b, e) in complete_spans(events) {
        let name = crate::export::json_escape(b.name);
        out.push((
            b.seq,
            format!(
                "{{\"name\":\"{name}\",\"cat\":\"secndp\",\"ph\":\"B\",\"pid\":1,\
                 \"tid\":{},\"ts\":{:.3},\"args\":{}}}",
                b.trace.0,
                b.t_ns as f64 / 1000.0,
                chrome_args(b, &[]),
            ),
        ));
        out.push((
            e.seq,
            format!(
                "{{\"name\":\"{name}\",\"cat\":\"secndp\",\"ph\":\"E\",\"pid\":1,\
                 \"tid\":{},\"ts\":{:.3},\"args\":{}}}",
                e.trace.0,
                e.t_ns as f64 / 1000.0,
                chrome_args(e, &e.attrs),
            ),
        ));
    }
    // Seq order is begin/end recording order, which is well-nested per
    // thread and therefore per trace row for the synchronous pipeline.
    out.sort_by_key(|(seq, _)| *seq);
    let events: Vec<String> = out.into_iter().map(|(_, s)| s).collect();
    format!(
        "{{\"displayTimeUnit\":\"ns\",\"traceEvents\":[{}]}}\n",
        events.join(",")
    )
}

/// Renders a slice of journal events as an indented per-trace span tree.
/// See [`SpanJournal::render_tree`].
pub fn render_tree(events: &[SpanEvent]) -> String {
    use std::collections::{BTreeMap, HashMap, HashSet};
    let pairs = complete_spans(events);
    let ids: HashSet<SpanId> = pairs.iter().map(|(b, _)| b.span).collect();
    // Children in begin order, grouped under each parent.
    let mut children: HashMap<SpanId, Vec<usize>> = HashMap::new();
    let mut roots: BTreeMap<TraceId, Vec<usize>> = BTreeMap::new();
    for (i, (b, _)) in pairs.iter().enumerate() {
        if b.parent.0 != 0 && ids.contains(&b.parent) {
            children.entry(b.parent).or_default().push(i);
        } else {
            roots.entry(b.trace).or_default().push(i);
        }
    }
    fn write_node(
        out: &mut String,
        pairs: &[(&SpanEvent, &SpanEvent)],
        children: &std::collections::HashMap<SpanId, Vec<usize>>,
        i: usize,
        depth: usize,
    ) {
        let (b, e) = pairs[i];
        let dur = e.t_ns.saturating_sub(b.t_ns);
        let attrs: Vec<String> = e.attrs.iter().map(|(k, v)| format!("{k}={v}")).collect();
        out.push_str(&"  ".repeat(depth));
        out.push_str(&format!(
            "{} [{}] {}ns{}{}\n",
            b.name,
            b.span,
            dur,
            if attrs.is_empty() { "" } else { "  " },
            attrs.join(" ")
        ));
        if let Some(kids) = children.get(&b.span) {
            for &k in kids {
                write_node(out, pairs, children, k, depth + 1);
            }
        }
    }
    let mut out = String::new();
    for (trace, idxs) in roots {
        out.push_str(&format!("{trace}\n"));
        for i in idxs {
            write_node(&mut out, &pairs, &children, i, 1);
        }
    }
    out
}

#[cfg(all(test, not(feature = "enabled")))]
mod compiled_out {
    /// With tracing compiled out a `timed` span is still the zero-sized
    /// guard: no stamps to keep, nothing observed.
    #[test]
    fn timed_span_is_zero_sized_and_observes_nothing() {
        let hist = crate::histogram!("timed_span_off_ns", "compiled-out test");
        let sp = super::span("timed_span_off").timed(hist);
        assert_eq!(std::mem::size_of::<super::Span>(), 0);
        drop(sp);
        assert_eq!(hist.count(), 0);
        assert!(super::journal().snapshot().is_empty());
    }
}
