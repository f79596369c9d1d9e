//! Security audit log: a bounded record of protocol-integrity events, and
//! the one bounded log the [fault journal](crate::faultlog) shares.
//!
//! In SecNDP the device is *untrusted*: a failed verification is not an
//! operational hiccup but a security signal — possibly an active tamper
//! attempt against the checksum scheme of Algorithm 5. Aggregate counters
//! (`secndp_verify_failures_total`) say *how many*; this log says *which
//! query* (trace id), *which table* (address / region / version) and
//! *under which checksum scheme* each event happened.
//!
//! Events are recorded by the error-constructor helpers in
//! `secndp-core::metrics` whenever a `VerificationFailed`,
//! `MalformedResponse` or `ShapeMismatch` error is built, stamping the
//! calling thread's current [`trace`] context so audit records join the
//! same timeline as the span journal.
//!
//! [`AuditLog`] is a fixed-capacity FIFO behind a plain mutex — integrity
//! events are rare by construction (an honest deployment records none), so
//! lock cost is irrelevant and boundedness matters more than speed. It is
//! compiled in every build: the guarantee that every detection leaves an
//! audit event is a correctness property, not an observability one. With
//! the `enabled` feature off, trace and span ids are 0.

use crate::trace::{self, SpanContext, SpanId, TraceId};
use std::collections::VecDeque;
use std::sync::{Mutex, MutexGuard, PoisonError};

/// Default bound on retained audit events.
pub const DEFAULT_AUDIT_CAPACITY: usize = 1024;

/// One recorded integrity event.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AuditEvent {
    /// Monotonic per-process sequence number (unique even after eviction).
    pub seq: u64,
    /// Trace the offending query belonged to (`TraceId(0)` if untraced).
    pub trace: TraceId,
    /// Innermost span open when the event was recorded.
    pub span: SpanId,
    /// Event kind: `"verification_failed"`, `"malformed_response"` or
    /// `"shape_mismatch"`.
    pub kind: &'static str,
    /// Base address of the table involved (0 when not applicable).
    pub table_addr: u64,
    /// OTP region id of the table (0 when not applicable).
    pub region: u64,
    /// OTP stream version in use (0 when not applicable).
    pub version: u64,
    /// Checksum scheme name (`"single_s"`/`"multi_s"`, "" when n/a).
    pub scheme: &'static str,
    /// Free-form static detail (e.g. the malformed-response reason).
    pub detail: &'static str,
}

struct Fifo<E> {
    records: VecDeque<E>,
    next_seq: u64,
}

/// A bounded FIFO of sequence-numbered, trace-stamped records: integrity
/// [`AuditEvent`]s (the process-wide instance is [`audit_log()`]) or
/// injected faults ([`FaultLog`](crate::faultlog::FaultLog)).
pub struct AuditLog<E = AuditEvent> {
    inner: Mutex<Fifo<E>>,
    capacity: usize,
}

impl<E: Clone> std::fmt::Debug for AuditLog<E> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("AuditLog")
            .field("len", &self.len())
            .finish()
    }
}

impl<E: Clone> AuditLog<E> {
    /// A log retaining at most `capacity` records (oldest evicted first).
    pub fn with_capacity(capacity: usize) -> Self {
        Self {
            inner: Mutex::new(Fifo {
                records: VecDeque::new(),
                next_seq: 0,
            }),
            capacity: capacity.max(1),
        }
    }

    /// Locks the FIFO, recovering from poisoning: a panic elsewhere must
    /// not cost the evidence already recorded.
    fn lock(&self) -> MutexGuard<'_, Fifo<E>> {
        self.inner.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Appends the record `make` builds from the next sequence number and
    /// the calling thread's trace context, evicting the oldest when full.
    pub(crate) fn push(&self, make: impl FnOnce(u64, SpanContext) -> E) {
        let ctx = trace::current();
        let mut fifo = self.lock();
        let seq = fifo.next_seq;
        fifo.next_seq += 1;
        if fifo.records.len() == self.capacity {
            fifo.records.pop_front();
        }
        fifo.records.push_back(make(seq, ctx));
    }

    /// Number of currently retained records.
    pub fn len(&self) -> usize {
        self.lock().records.len()
    }

    /// Whether the log holds no records.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Total records ever recorded, including evicted ones.
    pub fn total(&self) -> u64 {
        self.lock().next_seq
    }

    /// A point-in-time copy of the retained records, oldest first.
    pub fn snapshot(&self) -> Vec<E> {
        self.lock().records.iter().cloned().collect()
    }

    /// Drops all retained records (sequence numbers keep advancing).
    pub fn clear(&self) {
        self.lock().records.clear();
    }

    /// `{"<key>":[…]}`, one JSON object per retained record.
    pub(crate) fn render(&self, key: &str, one: impl Fn(&E) -> String) -> String {
        let records: Vec<String> = self.lock().records.iter().map(one).collect();
        format!("{{\"{key}\":[{}]}}\n", records.join(","))
    }
}

impl AuditLog {
    /// Records an integrity event, stamping the calling thread's current
    /// trace context. `kind`, `scheme` and `detail` are static so the hot
    /// (error) path never allocates strings.
    pub fn record(
        &self,
        kind: &'static str,
        table_addr: u64,
        region: u64,
        version: u64,
        scheme: &'static str,
        detail: &'static str,
    ) {
        self.push(|seq, ctx| AuditEvent {
            seq,
            trace: ctx.trace,
            span: ctx.span,
            kind,
            table_addr,
            region,
            version,
            scheme,
            detail,
        });
    }

    /// Renders the log as a JSON document in the same spirit as
    /// [`Registry::render_json`](crate::Registry::render_json):
    ///
    /// ```json
    /// {"audit_events":[{"seq":0,"trace":3,"span":7,
    ///   "kind":"verification_failed","table_addr":4096,"region":1,
    ///   "version":2,"scheme":"single_s","detail":"checksum tag mismatch"},
    ///   …]}
    /// ```
    pub fn render_json(&self) -> String {
        self.render("audit_events", |e| {
            format!(
                "{{\"seq\":{},\"trace\":{},\"span\":{},\"kind\":\"{}\",\
                 \"table_addr\":{},\"region\":{},\"version\":{},\
                 \"scheme\":\"{}\",\"detail\":\"{}\"}}",
                e.seq,
                e.trace.0,
                e.span.0,
                crate::export::json_escape(e.kind),
                e.table_addr,
                e.region,
                e.version,
                crate::export::json_escape(e.scheme),
                crate::export::json_escape(e.detail),
            )
        })
    }
}

/// The process-wide audit log.
pub fn audit_log() -> &'static AuditLog {
    static LOG: std::sync::OnceLock<AuditLog> = std::sync::OnceLock::new();
    LOG.get_or_init(|| AuditLog::with_capacity(DEFAULT_AUDIT_CAPACITY))
}
