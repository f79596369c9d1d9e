//! Fault journal: a bounded record of deliberately injected faults.
//!
//! The chaos harness (`secndp-core::fault`) injects faults — bit flips,
//! replays, dropped replies, rank stalls — into the untrusted-device path
//! and must later prove that **every single one** was either masked or
//! detected. That proof needs a ground-truth ledger of what was injected,
//! where, and under which query; this journal is that ledger.
//!
//! Each record stamps the injecting thread's current
//! [`trace`](crate::trace) context (device-side injections run inside the
//! device's `ndp_serve` span, channel-side ones on the caller's thread, so
//! the query's trace id is ambient at both) plus the
//! harness-assigned operation index, the rank the fault landed on, and a
//! static kind name matching `FaultKind` in `secndp-core`. The
//! `InvariantChecker` reconciles these records against query outcomes and
//! the [audit log](crate::audit), whose bounded FIFO the journal is.
//!
//! Like the audit log, the journal is compiled in every build: the
//! masked-or-detected invariant is a correctness property of the chaos
//! suite, not an observability nicety, so it must hold in
//! `--no-default-features` builds too. (Trace ids are then zero — context
//! propagation is a telemetry feature — but op-index reconciliation still
//! works.)

use crate::audit::AuditLog;
use crate::trace::{SpanId, TraceId};

/// Default bound on retained fault records.
pub const DEFAULT_FAULT_CAPACITY: usize = 4096;

/// One injected fault, as journaled at the injection site.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FaultRecord {
    /// Monotonic per-process sequence number (unique even after eviction).
    pub seq: u64,
    /// Harness-assigned operation index the fault was scheduled for.
    pub op: u64,
    /// Device rank the fault landed on.
    pub rank: u32,
    /// Static fault-kind name (e.g. `"flip_response_bit"`, `"drop_reply"`),
    /// matching `FaultKind::name()` in `secndp-core`.
    pub kind: &'static str,
    /// Trace the affected query belonged to (`TraceId(0)` if untraced).
    pub trace: TraceId,
    /// Innermost span open at the injection site.
    pub span: SpanId,
    /// Static detail string (e.g. `"no stale image; served fresh"`).
    pub detail: &'static str,
}

/// The fault journal: the [`AuditLog`] FIFO over [`FaultRecord`]s. The
/// process-wide instance is [`fault_log()`].
pub type FaultLog = AuditLog<FaultRecord>;

impl FaultLog {
    /// Journals an injected fault, stamping the calling thread's current
    /// trace context.
    pub fn record(&self, op: u64, rank: u32, kind: &'static str, detail: &'static str) {
        self.push(|seq, ctx| FaultRecord {
            seq,
            op,
            rank,
            kind,
            trace: ctx.trace,
            span: ctx.span,
            detail,
        });
    }

    /// Renders the journal as a JSON document:
    ///
    /// ```json
    /// {"fault_events":[{"seq":0,"op":17,"rank":1,
    ///   "kind":"drop_reply","trace":9,"span":12,"detail":""}, …]}
    /// ```
    pub fn render_json(&self) -> String {
        self.render("fault_events", |r| {
            format!(
                "{{\"seq\":{},\"op\":{},\"rank\":{},\"kind\":\"{}\",\
                 \"trace\":{},\"span\":{},\"detail\":\"{}\"}}",
                r.seq,
                r.op,
                r.rank,
                crate::export::json_escape(r.kind),
                r.trace.0,
                r.span.0,
                crate::export::json_escape(r.detail),
            )
        })
    }
}

/// The process-wide fault journal.
pub fn fault_log() -> &'static FaultLog {
    static LOG: std::sync::OnceLock<FaultLog> = std::sync::OnceLock::new();
    LOG.get_or_init(|| FaultLog::with_capacity(DEFAULT_FAULT_CAPACITY))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn journal_is_bounded_and_sequenced() {
        let log = FaultLog::with_capacity(3);
        for op in 0..5u64 {
            log.record(op, 0, "flip_response_bit", "");
        }
        assert_eq!(log.len(), 3);
        assert_eq!(log.total(), 5);
        let ops: Vec<u64> = log.snapshot().iter().map(|r| r.op).collect();
        assert_eq!(ops, vec![2, 3, 4]);
        let seqs: Vec<u64> = log.snapshot().iter().map(|r| r.seq).collect();
        assert_eq!(seqs, vec![2, 3, 4]);
        log.clear();
        assert!(log.is_empty());
        assert_eq!(log.total(), 5, "clear must not rewind sequence numbers");
    }

    #[test]
    fn render_json_is_well_formed() {
        let log = FaultLog::with_capacity(8);
        log.record(7, 2, "rank_stall", "300ms");
        let json = log.render_json();
        assert!(json.starts_with("{\"fault_events\":["));
        assert!(json.contains("\"op\":7"));
        assert!(json.contains("\"kind\":\"rank_stall\""));
        assert_eq!(json.matches('{').count(), json.matches('}').count());
    }
}
