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
//! - The journal ([`SpanJournal`]) is a fixed ring of 64-byte plain
//!   records, overwritten in place: a span writes a `Begin` record, then on
//!   close one `Attr` record per attribute (key and `U64` or `Str` value,
//!   strings as interned indices) and an `End` record. It allocates
//!   nothing; [`SpanJournal::snapshot`] puts the attributes back on their
//!   `End`, so readers see one `Begin`/`End` stream with one seq per event.
//! - One trace in [`RECORD_ONE_IN`] (64) is **recorded**, decided once, by
//!   [`TraceId::is_recorded`], from the id its root takes: ids 1, 65,
//!   129, … . A [`record_trace`] scope takes the next such id, so a test
//!   or an operator can ask for a query's trace. Every party that sees the
//!   id decides alike, the far side of a socket from the frame header's id,
//!   so a trace is recorded whole or not at all. A span of an unrecorded
//!   trace takes its ids and is the thread's current context (wire headers
//!   and audit events carry it unchanged), but reads no clock, writes no
//!   record and observes no histogram. The journal, `/tracez`, `/profilez`
//!   and every [`Span::timed`] histogram therefore cover recorded traces
//!   only; audit events cover every query.
//! - Capacity is counted in records and sized by its largest reader's
//!   need, one whole 256-query pipelined batch trace with its rank-side
//!   spans (4 617 records): 8 Ki records, 512 KiB. At the ledger's rates
//!   (2-vCPU host), recording one trace in 64, 8 Ki records hold ~110 ms
//!   of `sls_hot_inline` (24 records a recorded query, ~200 k queries/s),
//!   ~350 ms of `sls_small_tcp` (17 client-side, ~88 k/s), ~250 ms of
//!   `batch256_async` (4 617 a recorded 256-query packet, ~115 k
//!   queries/s) and ~1.1 s of `table_update_inline` (399 an update, ~1.2
//!   k/s). Recording every trace, they held 2.7, 7, 4 and 20 ms.
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

use std::sync::atomic::Ordering::{Acquire, Relaxed, Release};
use std::sync::atomic::{fence, AtomicU64};
use std::sync::OnceLock;

/// Identifier of one end-to-end request (all spans of one query share it).
/// `TraceId(0)` means "no trace".
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct TraceId(pub u64);

/// Identifier of one span within a trace. `SpanId(0)` means "no parent".
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SpanId(pub u64);

/// One trace in this many is recorded: the share of the traffic whose
/// spans read the clock and reach the journal, the stage histograms and the
/// profiler. A constant, not a setting (see [`TraceId::is_recorded`]).
pub const RECORD_ONE_IN: u64 = 64;

impl TraceId {
    /// Whether this trace's spans are recorded: a pure function of the id,
    /// so every party that sees the id (the processor, and a server that
    /// read it from a frame header) takes the same decision without a bit
    /// on the wire. Ids 1, 65, 129, … are recorded: a process's first root
    /// is, and [`record_trace`] hands out the next such id.
    #[inline]
    pub const fn is_recorded(self) -> bool {
        self.0 % RECORD_ONE_IN == 1
    }
}

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
    /// Static string (mode names, error kinds).
    Str(&'static str),
}

impl fmt::Display for AttrValue {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AttrValue::U64(v) => write!(f, "{v}"),
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
    /// OTP pad regeneration (`OtpGenerator::stream_pads`), one per query,
    /// nested under [`DECRYPT`].
    pub const PAD_GEN: &str = "pad_gen";
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

/// Most attributes one span carries (the most any shipped span sets);
/// later ones are ignored.
pub const MAX_SPAN_ATTRS: usize = 4;

/// Default journal capacity, in records: one whole 256-query pipelined
/// batch trace, rank side included, is ~4.6 k (see the module docs).
pub const DEFAULT_JOURNAL_CAPACITY: usize = 8 * 1024;

#[cfg(feature = "enabled")]
mod enabled {
    use super::*;
    use std::cell::Cell;
    use std::time::Instant;

    static NEXT_TRACE: AtomicU64 = AtomicU64::new(1);
    static NEXT_SPAN: AtomicU64 = AtomicU64::new(1);

    thread_local! {
        static CURRENT: Cell<SpanContext> = const { Cell::new(SpanContext::NONE) };
    }

    fn epoch() -> Instant {
        static EPOCH: OnceLock<Instant> = OnceLock::new();
        *EPOCH.get_or_init(Instant::now)
    }

    pub(super) fn now_ns() -> u64 {
        u64::try_from(epoch().elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    pub(super) fn next_trace_id() -> TraceId {
        TraceId(NEXT_TRACE.fetch_add(1, Relaxed))
    }

    /// The first recorded id at or after the counter, taken with every id
    /// it skips.
    pub(super) fn next_recorded_trace_id() -> TraceId {
        let at_or_after = |n: u64| n + (RECORD_ONE_IN + 1 - n % RECORD_ONE_IN) % RECORD_ONE_IN;
        let take = |n| Some(at_or_after(n) + 1);
        let (Ok(prev) | Err(prev)) = NEXT_TRACE.fetch_update(Relaxed, Relaxed, take);
        TraceId(at_or_after(prev))
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
}

/// The strings records name (span names, attribute keys and values), held
/// as indices into write-once cells: open addressing on address and length.
/// Past 1 024 distinct strings, a new one reads back as `?`.
static INTERNED: [OnceLock<&'static str>; 1024] = [const { OnceLock::new() }; 1024];

fn intern(s: &'static str) -> u64 {
    let key = (s.as_ptr() as usize ^ s.len()) as u64;
    let home = (key.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 54) as usize;
    let same = |t: &&str| std::ptr::eq(t.as_ptr(), s.as_ptr()) && t.len() == s.len();
    let mut cells = (0..1024).map(|i| (home + i) % 1024);
    let i = cells.find(|&i| same(INTERNED[i].get_or_init(|| s)));
    i.unwrap_or(1024) as u64
}

fn interned(i: u64) -> &'static str {
    let cell = INTERNED.get(i as usize);
    cell.and_then(OnceLock::get).map_or("?", |s| s)
}

// Word 1 of a record: its kind in bits 0..8 (`SpanEventKind` as a number,
// or `ATTR`), a string index (name or key) in bits 8..40, and from bit 40
// an event's attribute count or whether an attribute's value is a string.
const ATTR: u64 = 2;

fn attr_words(key: &'static str, value: AttrValue) -> [u64; 2] {
    let (is_str, v) = match value {
        AttrValue::U64(v) => (0, v),
        AttrValue::Str(s) => (1, intern(s)),
    };
    [ATTR | (intern(key) << 8) | (is_str << 40), v]
}

fn attr_of(w: &[u64; 5]) -> (&'static str, AttrValue) {
    let value = match w[0] >> 40 {
        0 => AttrValue::U64(w[1]),
        _ => AttrValue::Str(interned(w[1])),
    };
    (interned((w[0] >> 8) & 0xFFFF_FFFF), value)
}

/// The stamp of a slot a writer is inside; an empty slot's is 0. Any other
/// is `(event seq + 1) << 3 | the record's offset in its group`.
const BUSY: u64 = u64::MAX;

/// One ring record: its stamp and five plain words (an event's kind and
/// name, trace, span, parent and time; an attribute's key and value). A
/// cache line of its own: two writers never share one.
#[repr(align(64))]
#[derive(Default)]
pub(crate) struct Slot([AtomicU64; 6]);

impl Slot {
    /// Writes one record, unless another writer is inside (a lap caught up
    /// with a stalled writer): then the record is lost, never mixed.
    fn write(&self, stamp: u64, words: &[u64]) {
        if self.0[0].swap(BUSY, Acquire) == BUSY {
            return;
        }
        fence(Release);
        for (w, &v) in self.0[1..].iter().zip(words) {
            w.store(v, Relaxed);
        }
        self.0[0].store(stamp, Release);
    }

    /// The stamp and words, unless the slot is empty or was written while
    /// being read.
    fn read(&self) -> Option<(u64, [u64; 5])> {
        let stamp = self.0[0].load(Acquire);
        let words = std::array::from_fn(|i| self.0[i + 1].load(Relaxed));
        fence(Acquire);
        let valid = stamp != 0 && stamp != BUSY && self.0[0].load(Relaxed) == stamp;
        valid.then_some((stamp, words))
    }
}

/// The cursor holds the next event seq above the next slot's index. It is
/// `Relaxed`: stamps (`Release` store, `Acquire` load) publish records.
const POS_BITS: u32 = 16;

/// The fixed-capacity span journal: a ring of plain records. An event and
/// the `Attr` records before it are one group of contiguous slots,
/// reserved by one compare-exchange that takes the event's seq and the
/// group's first slot together. Writers share no lock; a reader checks
/// each slot's stamp around its copy (a seqlock).
///
/// With tracing compiled out it has no slots: it records nothing, its
/// snapshot is empty and its exporters render valid empty documents.
pub struct SpanJournal {
    slots: Box<[Slot]>,
    cursor: AtomicU64,
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
    /// A journal holding at most `capacity` records (clamped to 2..=65 536).
    pub fn with_capacity(capacity: usize) -> Self {
        let cap = if cfg!(feature = "enabled") {
            capacity.clamp(2, 1 << POS_BITS)
        } else {
            0
        };
        let slots = (0..cap).map(|_| Slot::default()).collect();
        Self {
            slots,
            cursor: AtomicU64::new(0),
        }
    }

    /// Maximum number of retained records (0 when tracing is compiled out).
    pub fn capacity(&self) -> usize {
        self.slots.len()
    }

    /// Total events ever recorded (including overwritten ones).
    pub fn recorded(&self) -> u64 {
        self.cursor.load(Relaxed) >> POS_BITS
    }

    /// Events recorded but not in a snapshot taken now: lost to ring
    /// overwrites (or cleared).
    pub fn dropped(&self) -> u64 {
        self.recorded().saturating_sub(self.snapshot().len() as u64)
    }

    /// Appends one event and at most [`MAX_SPAN_ATTRS`] of its attributes
    /// (used by [`Span`]; public so tests and custom instrumentation can
    /// journal synthetic events). `ev.seq` is assigned, not read.
    pub fn record_event(&self, ev: SpanEvent) {
        let mut attrs = [[0; 2]; MAX_SPAN_ATTRS];
        for (w, &(k, v)) in attrs.iter_mut().zip(&ev.attrs) {
            *w = attr_words(k, v);
        }
        let n = ev.attrs.len().min(MAX_SPAN_ATTRS);
        let ids = [ev.trace.0, ev.span.0, ev.parent.0, ev.t_ns];
        self.record(ev.kind, ids, ev.name, &attrs[..n]);
    }

    /// Journals one event (trace, span, parent and time) after its
    /// attributes' records.
    fn record(&self, kind: SpanEventKind, ids: [u64; 4], name: &'static str, attrs: &[[u64; 2]]) {
        let (cap, n) = (self.slots.len() as u64, attrs.len() as u64);
        if cap == 0 {
            return;
        }
        let mut cur = self.cursor.load(Relaxed);
        let (seq, first) = loop {
            let (seq, pos) = (cur >> POS_BITS, cur & ((1 << POS_BITS) - 1));
            let next = ((seq + 1) << POS_BITS) | ((pos + n + 1) % cap);
            match self
                .cursor
                .compare_exchange_weak(cur, next, Relaxed, Relaxed)
            {
                Ok(_) => break (seq, pos),
                Err(now) => cur = now,
            }
        };
        let stamp = |i: u64| ((seq + 1) << 3) | i;
        let slot = |i: u64| &self.slots[((first + i) % cap) as usize];
        for (i, a) in (0..).zip(attrs) {
            slot(i).write(stamp(i), a);
        }
        let head = kind as u64 | (intern(name) << 8) | (n << 40);
        let [trace, span, parent, t_ns] = ids;
        slot(n).write(stamp(n), &[head, trace, span, parent, t_ns]);
    }

    /// A point-in-time copy of the retained events, in recording order,
    /// each with its attributes. An event missing any of its `Attr` records
    /// (lapped, or still being written) is left out whole: a lost span,
    /// never a partial one. Like metric snapshots, a snapshot taken during
    /// concurrent recording may miss a handful of in-flight events.
    pub fn snapshot(&self) -> Vec<SpanEvent> {
        let mut recs: Vec<_> = self.slots.iter().filter_map(Slot::read).collect();
        recs.sort_unstable_by_key(|r| r.0);
        let mut out = Vec::new();
        for (i, &(stamp, w)) in recs.iter().enumerate() {
            let (kind, n) = (w[0] & 0xFF, w[0] >> 40);
            let Some(group) = recs.get(i.wrapping_sub(n as usize)..i) else {
                continue;
            };
            if kind == ATTR || group.iter().zip(stamp - n..).any(|(r, s)| r.0 != s) {
                continue;
            }
            out.push(SpanEvent {
                seq: (stamp >> 3) - 1,
                kind: [SpanEventKind::Begin, SpanEventKind::End][kind as usize],
                trace: TraceId(w[1]),
                span: SpanId(w[2]),
                parent: SpanId(w[3]),
                name: interned((w[0] >> 8) & 0xFFFF_FFFF),
                t_ns: w[4],
                attrs: group.iter().map(|(_, a)| attr_of(a)).collect(),
            });
        }
        out
    }

    /// Clears all retained events (the sequence counter keeps advancing so
    /// `seq` values stay unique per process).
    pub fn clear(&self) {
        for s in self.slots.iter() {
            let _ = s.0[0].fetch_update(Relaxed, Relaxed, |st| (st != BUSY).then_some(0));
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
    static JOURNAL: OnceLock<SpanJournal> = OnceLock::new();
    JOURNAL.get_or_init(|| SpanJournal::with_capacity(DEFAULT_JOURNAL_CAPACITY))
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

/// An RAII span guard: installs itself as the thread's current context on
/// creation and restores the previous one on drop. In a recorded trace it
/// also records a `Begin` event on creation and an `End` event (carrying
/// any attached attributes) on drop. Zero-sized and clock-free when
/// tracing is compiled out.
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
    /// Attributes as their `Attr` records, journaled before the `End`
    /// (an unset one is all zero: no record's first word is).
    #[cfg(feature = "enabled")]
    attrs: [[u64; 2]; MAX_SPAN_ATTRS],
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
///
/// A span of a trace that is not [recorded](TraceId::is_recorded) takes its
/// ids and becomes the thread's current context like any other, so wire
/// headers and audit events carry it, but reads no clock and journals
/// nothing.
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
        let me = SpanContext {
            trace,
            span: enabled::next_span_id(),
        };
        let mut start_ns = 0;
        if trace.is_recorded() {
            start_ns = enabled::now_ns();
            let ids = [trace.0, me.span.0, parent.0, start_ns];
            journal().record(SpanEventKind::Begin, ids, name, &[]);
        }
        enabled::set_current(me);
        Span {
            ctx: me,
            parent,
            prev: ambient,
            name,
            attrs: [[0; 2]; MAX_SPAN_ATTRS],
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

/// Scope of a trace that is always recorded, whatever its id's turn: while
/// it lives, the calling thread's spans belong to one fresh trace that
/// takes the next [recorded](TraceId::is_recorded) id, and a span opened
/// with no other span open is one of its roots. Dropping it restores the
/// context it replaced. For tests, and for anyone who asks to see a
/// particular query's trace.
#[must_use = "the recorded trace ends when this scope is dropped"]
#[derive(Debug)]
pub struct RecordedTrace {
    #[cfg(feature = "enabled")]
    ctx: SpanContext,
    #[cfg(feature = "enabled")]
    prev: SpanContext,
}

/// Opens a [`RecordedTrace`] scope on the calling thread.
pub fn record_trace() -> RecordedTrace {
    #[cfg(feature = "enabled")]
    {
        let ctx = SpanContext {
            trace: enabled::next_recorded_trace_id(),
            span: SpanId(0),
        };
        let prev = enabled::current_ctx();
        enabled::set_current(ctx);
        RecordedTrace { ctx, prev }
    }
    #[cfg(not(feature = "enabled"))]
    RecordedTrace {}
}

impl RecordedTrace {
    /// The raw id of the recorded trace (0 when tracing is compiled out).
    pub fn trace_id(&self) -> u64 {
        #[cfg(feature = "enabled")]
        {
            self.ctx.trace.0
        }
        #[cfg(not(feature = "enabled"))]
        0
    }
}

impl Drop for RecordedTrace {
    fn drop(&mut self) {
        #[cfg(feature = "enabled")]
        enabled::set_current(self.prev);
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

    /// Attaches a typed attribute, recorded on the span's `End` event (at
    /// most [`MAX_SPAN_ATTRS`]; later ones are ignored, and all of them in
    /// an unrecorded trace).
    pub fn attr(&mut self, key: &'static str, value: AttrValue) {
        #[cfg(feature = "enabled")]
        if self.ctx.trace.is_recorded() {
            if let Some(slot) = self.attrs.iter_mut().find(|a| a[0] == 0) {
                *slot = attr_words(key, value);
            }
        }
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
    /// `hist`, so the journal, the histogram and the
    /// [`QueryCost`](crate::profile::QueryCost) the profiler folds from the
    /// journal report one number from one pair of clock reads. A span of
    /// an unrecorded trace takes no reads and observes nothing. Still
    /// zero-sized and clock-free with tracing compiled out.
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
            enabled::set_current(self.prev);
            if !self.ctx.trace.is_recorded() {
                return;
            }
            let end_ns = enabled::now_ns();
            let ids = [self.ctx.trace.0, self.ctx.span.0, self.parent.0, end_ns];
            let n = self.attrs.iter().take_while(|a| a[0] != 0).count();
            let attrs = &self.attrs[..n];
            journal().record(SpanEventKind::End, ids, self.name, attrs);
            if let Some(hist) = self.stage {
                hist.observe(end_ns.saturating_sub(self.start_ns));
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
        if ev.kind == SpanEventKind::Begin {
            begins.insert(ev.span, ev);
        } else if let Some(b) = begins.remove(&ev.span) {
            pairs.push((b, ev));
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
        for (ph, ev, attrs) in [("B", b, &[][..]), ("E", e, &e.attrs[..])] {
            let ts = ev.t_ns as f64 / 1000.0;
            out.push((
                ev.seq,
                format!(
                    "{{\"name\":\"{name}\",\"cat\":\"secndp\",\"ph\":\"{ph}\",\"pid\":1,\
                     \"tid\":{},\"ts\":{ts:.3},\"args\":{}}}",
                    ev.trace.0,
                    chrome_args(ev, attrs),
                ),
            ));
        }
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
