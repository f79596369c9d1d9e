//! Continuous profiling and per-query cost attribution.
//!
//! The span journal ([`crate::trace`]) answers "what happened on *this*
//! query"; the metric histograms answer "how slow is this stage on
//! average". Neither answers the operator's question under sustained
//! load: *where does the process spend its time right now, and what did
//! each query cost?* This module closes that gap with two always-on,
//! recording-side-wait-free facilities:
//!
//! - A [`Profiler`] that **folds completed spans** from a
//!   [`SpanJournal`](crate::trace::SpanJournal) into a live call-tree
//!   profile. Each node is a semicolon-joined stack path (e.g.
//!   `weighted_sum_batch;pad_gen;pad_cache`) carrying *self time* (time in
//!   the span minus time in its children), *total time* and a call count.
//!   The fold is incremental — a persistent cursor over the journal's
//!   sequence numbers means each event is consumed once — and runs on the
//!   scrape thread, so recording stays exactly as wait-free as the journal
//!   itself. Rendered as flamegraph-ready collapsed-stack text
//!   ([`Profiler::render_collapsed`]) and JSON ([`Profiler::render_json`])
//!   behind the `/profilez` endpoint.
//! - A [`QueryCost`] ledger: protocol entry points open a
//!   [`QueryCostGuard`]; every [`timed`](crate::trace::Span::timed) span
//!   that closes underneath bills its duration as a stage, and the layers
//!   attribute AES blocks (generated vs cache-served), wire bytes and
//!   transport retries to the guard through the ambient thread-local
//!   collector ([`add_aes_blocks`] and friends). On drop the finished
//!   record — stamped with its trace id — lands in the global
//!   [`CostLedger`], which keeps a recent ring plus a top-K-by-latency
//!   digest surfaced at `/profilez?top=K`: the index from a slow query to
//!   its trace id (resolve it at `/tracez?trace=`), with the stages
//!   attached.
//!
//! # Self-time algorithm
//!
//! On a span `End` the span's duration is added to both its own node's
//! `self` and `total`, and *subtracted* from the `self` of its (still
//! open) parent's node. Because every child subtracts exactly what it
//! adds, the self times of a subtree always sum to the root's total time
//! — the invariant the `/profilez` acceptance check relies on. Self time
//! is accumulated as `i64` (a parent's self goes transiently negative
//! while its children fold before it) and clamped at render time.
//!
//! # Bounds
//!
//! The open-span map is capped at [`MAX_OPEN_SPANS`] (oldest entry
//! evicted; its eventual `End` counts as lost). Spans whose `Begin` was
//! overwritten by the journal ring before a fold are counted in
//! `lost_spans` rather than silently dropped. The ledger keeps at most
//! [`RECENT_CAPACITY`] recent records and [`TOP_K_CAPACITY`] digest
//! entries, so memory is bounded regardless of query volume.
//!
//! With the `enabled` feature off everything here is a no-op: guards are
//! zero-sized, folds consume nothing, and the renderers produce valid
//! empty documents.

use crate::trace::SpanJournal;

#[cfg(feature = "enabled")]
use crate::trace::SpanEventKind;
#[cfg(feature = "enabled")]
use std::collections::{BTreeMap, HashMap, VecDeque};
#[cfg(feature = "enabled")]
use std::sync::Mutex;
#[cfg(feature = "enabled")]
use std::time::Instant;

/// Maximum spans the profiler keeps open (begun, not yet ended) before
/// evicting the oldest; bounds fold-state memory under journal loss.
pub const MAX_OPEN_SPANS: usize = 8 * 1024;

/// Recent [`QueryCost`] records retained by the ledger.
pub const RECENT_CAPACITY: usize = 256;

/// Top-by-latency [`QueryCost`] digests retained by the ledger.
pub const TOP_K_CAPACITY: usize = 64;

/// Room a fresh [`QueryCost::stage_ns`] starts with: the six timed span
/// names of `trace::names` and two to spare, so billing a query's stages
/// never regrows the vector.
#[cfg(feature = "enabled")]
const STAGE_SLOTS: usize = 8;

/// One node of the folded call-tree profile.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ProfileNode {
    /// Semicolon-joined stack path, root first (collapsed-stack syntax).
    pub stack: String,
    /// Nanoseconds spent in this node excluding folded children. May be
    /// negative transiently (children folded before their parent ended);
    /// clamp with `.max(0)` for display.
    pub self_ns: i64,
    /// Nanoseconds spent in this node including children.
    pub total_ns: u64,
    /// Completed spans folded into this node.
    pub count: u64,
}

/// A point-in-time copy of the folded profile.
#[derive(Debug, Clone, Default)]
pub struct ProfileSnapshot {
    /// All nodes, sorted by stack path.
    pub nodes: Vec<ProfileNode>,
    /// Journal events consumed by folds so far.
    pub folded_events: u64,
    /// Spans lost to ring overwrites or open-map eviction.
    pub lost_spans: u64,
}

#[cfg(feature = "enabled")]
struct OpenSpan {
    path: String,
    parent: u64,
    begin_ns: u64,
}

#[cfg(feature = "enabled")]
#[derive(Default)]
struct NodeAcc {
    self_ns: i64,
    total_ns: u64,
    count: u64,
}

#[cfg(feature = "enabled")]
#[derive(Default)]
struct FoldState {
    /// Next journal sequence number to consume.
    cursor: u64,
    /// Begun-but-not-ended spans, keyed by span id.
    open: HashMap<u64, OpenSpan>,
    /// Accumulated profile, keyed by stack path.
    nodes: BTreeMap<String, NodeAcc>,
    folded_events: u64,
    lost_spans: u64,
}

/// The incremental span-folding profiler. The process-wide instance is
/// [`profiler()`]; tests can build private ones over private journals.
pub struct Profiler {
    #[cfg(feature = "enabled")]
    state: Mutex<FoldState>,
}

impl Default for Profiler {
    fn default() -> Self {
        Self::new()
    }
}

impl std::fmt::Debug for Profiler {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let snap = self.snapshot();
        f.debug_struct("Profiler")
            .field("nodes", &snap.nodes.len())
            .field("folded_events", &snap.folded_events)
            .finish()
    }
}

impl Profiler {
    /// An empty profiler (cursor at the journal's next unseen event once
    /// first folded).
    pub fn new() -> Self {
        Self {
            #[cfg(feature = "enabled")]
            state: Mutex::new(FoldState::default()),
        }
    }

    /// Folds every journal event recorded since the previous fold into the
    /// profile. Returns the number of events consumed. Folding is
    /// serialized on the profiler's own lock; the journal's recording path
    /// is never touched.
    pub fn fold(&self, journal: &SpanJournal) -> u64 {
        #[cfg(feature = "enabled")]
        {
            let events = journal.snapshot();
            let mut s = self.state.lock().unwrap();
            // Events older than the cursor were folded already; events
            // whose seq jumped past the cursor were lost to the ring
            // (2 events per span).
            if let Some(first) = events.iter().find(|e| e.seq >= s.cursor) {
                if s.cursor > 0 && first.seq > s.cursor {
                    s.lost_spans += (first.seq - s.cursor).div_ceil(2);
                }
            }
            let mut consumed = 0u64;
            let start_cursor = s.cursor;
            for ev in events.iter().filter(|e| e.seq >= start_cursor) {
                consumed += 1;
                match ev.kind {
                    SpanEventKind::Begin => {
                        let path = match s.open.get(&ev.parent.0) {
                            Some(p) => format!("{};{}", p.path, ev.name),
                            None => ev.name.to_string(),
                        };
                        s.open.insert(
                            ev.span.0,
                            OpenSpan {
                                path,
                                parent: ev.parent.0,
                                begin_ns: ev.t_ns,
                            },
                        );
                        if s.open.len() > MAX_OPEN_SPANS {
                            // Evict the stalest open span; its End will
                            // count as lost when (if) it arrives.
                            if let Some(oldest) = s
                                .open
                                .iter()
                                .min_by_key(|(_, o)| o.begin_ns)
                                .map(|(&id, _)| id)
                            {
                                s.open.remove(&oldest);
                                s.lost_spans += 1;
                            }
                        }
                    }
                    SpanEventKind::End => match s.open.remove(&ev.span.0) {
                        Some(o) => {
                            let dur = ev.t_ns.saturating_sub(o.begin_ns);
                            let parent_path = s.open.get(&o.parent).map(|p| p.path.clone());
                            if let Some(ppath) = parent_path {
                                s.nodes.entry(ppath).or_default().self_ns -= dur as i64;
                            }
                            let n = s.nodes.entry(o.path).or_default();
                            n.self_ns += dur as i64;
                            n.total_ns += dur;
                            n.count += 1;
                        }
                        None => s.lost_spans += 1,
                    },
                }
                s.cursor = ev.seq + 1;
            }
            s.folded_events += consumed;
            drop(s);
            crate::counter!(
                "secndp_profile_folds_total",
                "Incremental profile folds over the span journal."
            )
            .inc();
            crate::counter!(
                "secndp_profile_events_folded_total",
                "Span-journal events consumed by the continuous profiler."
            )
            .add(consumed);
            consumed
        }
        #[cfg(not(feature = "enabled"))]
        {
            let _ = journal;
            0
        }
    }

    /// A point-in-time copy of the folded profile.
    pub fn snapshot(&self) -> ProfileSnapshot {
        #[cfg(feature = "enabled")]
        {
            let s = self.state.lock().unwrap();
            ProfileSnapshot {
                nodes: s
                    .nodes
                    .iter()
                    .map(|(stack, n)| ProfileNode {
                        stack: stack.clone(),
                        self_ns: n.self_ns,
                        total_ns: n.total_ns,
                        count: n.count,
                    })
                    .collect(),
                folded_events: s.folded_events,
                lost_spans: s.lost_spans,
            }
        }
        #[cfg(not(feature = "enabled"))]
        ProfileSnapshot::default()
    }

    /// Clears the accumulated profile and loss counters. The cursor is
    /// kept, so already-folded events are not re-folded.
    pub fn reset(&self) {
        #[cfg(feature = "enabled")]
        {
            let mut s = self.state.lock().unwrap();
            s.open.clear();
            s.nodes.clear();
            s.folded_events = 0;
            s.lost_spans = 0;
        }
    }

    /// Renders the profile as collapsed-stack text — one
    /// `stack;path self_ns` line per node, directly consumable by
    /// `flamegraph.pl` (self time plays the "sample count" role).
    pub fn render_collapsed(&self) -> String {
        let snap = self.snapshot();
        let mut out = String::new();
        for n in &snap.nodes {
            out.push_str(&format!("{} {}\n", n.stack, n.self_ns.max(0)));
        }
        out
    }

    /// Renders the profile as JSON:
    /// `{"folded_events":…,"lost_spans":…,"nodes":[{"stack":…,"self_ns":…,
    /// "total_ns":…,"count":…}]}`.
    pub fn render_json(&self) -> String {
        let snap = self.snapshot();
        let nodes: Vec<String> = snap
            .nodes
            .iter()
            .map(|n| {
                format!(
                    "{{\"stack\":\"{}\",\"self_ns\":{},\"total_ns\":{},\"count\":{}}}",
                    crate::export::json_escape(&n.stack),
                    n.self_ns.max(0),
                    n.total_ns,
                    n.count
                )
            })
            .collect();
        format!(
            "{{\"folded_events\":{},\"lost_spans\":{},\"nodes\":[{}]}}\n",
            snap.folded_events,
            snap.lost_spans,
            nodes.join(",")
        )
    }
}

/// The process-wide profiler behind `/profilez` (folds the global
/// [`journal`](crate::trace::journal)).
pub fn profiler() -> &'static Profiler {
    #[cfg(feature = "enabled")]
    {
        static PROFILER: std::sync::OnceLock<Profiler> = std::sync::OnceLock::new();
        PROFILER.get_or_init(Profiler::new)
    }
    #[cfg(not(feature = "enabled"))]
    {
        static PROFILER: Profiler = Profiler {};
        &PROFILER
    }
}

// ─── Per-query cost attribution ─────────────────────────────────────────

/// Everything one protocol-level query (or batch call) cost, assembled by
/// the layers it passed through.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct QueryCost {
    /// Trace id of the query's root span (0 when untraced).
    pub trace_id: u64,
    /// The protocol entry point (`"weighted_sum"`, `"weighted_sum_batch"`,
    /// …).
    pub op: &'static str,
    /// Wall-clock nanoseconds from guard open to close.
    pub total_ns: u64,
    /// Per-stage nanoseconds, in the order the stages first closed
    /// (`wire_round_trip`, `ndp_compute`, `pad_gen`, `decrypt`, `verify`,
    /// …): each entry is the summed duration of the timed spans of that
    /// name, so `ndp_compute` is the time spent waiting on the untrusted
    /// device, wire included.
    pub stage_ns: Vec<(&'static str, u64)>,
    /// AES pad blocks freshly generated for this query.
    pub aes_blocks_generated: u64,
    /// AES pad blocks served from the cross-query pad cache.
    pub aes_blocks_cached: u64,
    /// Request bytes shipped over the device wire.
    pub wire_tx_bytes: u64,
    /// Reply bytes received over the device wire.
    pub wire_rx_bytes: u64,
    /// Transport retries this query triggered.
    pub retries: u64,
}

impl QueryCost {
    fn render_json(&self) -> String {
        let stages: Vec<String> = self
            .stage_ns
            .iter()
            .map(|(k, v)| format!("\"{}\":{v}", crate::export::json_escape(k)))
            .collect();
        format!(
            "{{\"trace_id\":{},\"op\":\"{}\",\"total_ns\":{},\"stages\":{{{}}},\
             \"aes_blocks_generated\":{},\"aes_blocks_cached\":{},\
             \"wire_tx_bytes\":{},\"wire_rx_bytes\":{},\"retries\":{}}}",
            self.trace_id,
            crate::export::json_escape(self.op),
            self.total_ns,
            stages.join(","),
            self.aes_blocks_generated,
            self.aes_blocks_cached,
            self.wire_tx_bytes,
            self.wire_rx_bytes,
            self.retries,
        )
    }
}

#[cfg(feature = "enabled")]
struct ActiveCost {
    cost: QueryCost,
    start: Instant,
    prev: Option<Box<ActiveCost>>,
}

#[cfg(feature = "enabled")]
thread_local! {
    static ACTIVE: std::cell::RefCell<Option<Box<ActiveCost>>> =
        const { std::cell::RefCell::new(None) };
}

/// RAII guard opened by a protocol entry point; while alive, the
/// attribution functions below feed this thread's cost record. On drop the
/// finished [`QueryCost`] is pushed into the global [`ledger`]. Guards
/// nest (an inner guard shadows the outer until dropped). Zero-sized and
/// clock-free with telemetry compiled out.
#[must_use = "a query cost records when dropped; binding it to `_` drops it immediately"]
#[derive(Debug, Default)]
pub struct QueryCostGuard {
    #[cfg(feature = "enabled")]
    armed: bool,
}

/// Opens a per-query cost collector for the calling thread. The trace id
/// is captured from the ambient [`trace::current`](crate::trace::current)
/// context (refreshed at drop if a trace starts later).
pub fn begin_query(op: &'static str) -> QueryCostGuard {
    #[cfg(feature = "enabled")]
    {
        let trace_id = crate::trace::current().trace.0;
        ACTIVE.with(|a| {
            let prev = a.borrow_mut().take();
            *a.borrow_mut() = Some(Box::new(ActiveCost {
                cost: QueryCost {
                    trace_id,
                    op,
                    stage_ns: Vec::with_capacity(STAGE_SLOTS),
                    ..QueryCost::default()
                },
                start: Instant::now(),
                prev,
            }));
        });
        QueryCostGuard { armed: true }
    }
    #[cfg(not(feature = "enabled"))]
    {
        let _ = op;
        QueryCostGuard::default()
    }
}

impl Drop for QueryCostGuard {
    fn drop(&mut self) {
        #[cfg(feature = "enabled")]
        {
            if !self.armed {
                return;
            }
            let finished = ACTIVE.with(|a| {
                let mut slot = a.borrow_mut();
                match slot.take() {
                    Some(mut active) => {
                        *slot = active.prev.take();
                        Some(active)
                    }
                    None => None,
                }
            });
            if let Some(mut active) = finished {
                active.cost.total_ns =
                    u64::try_from(active.start.elapsed().as_nanos()).unwrap_or(u64::MAX);
                if active.cost.trace_id == 0 {
                    active.cost.trace_id = crate::trace::current().trace.0;
                }
                ledger().record(active.cost);
            }
        }
    }
}

#[cfg(feature = "enabled")]
fn with_active(f: impl FnOnce(&mut QueryCost)) {
    ACTIVE.with(|a| {
        if let Some(active) = a.borrow_mut().as_mut() {
            f(&mut active.cost);
        }
    });
}

/// Attributes `ns` nanoseconds of pipeline stage `stage` to the active
/// query cost (no-op without one). Its one caller is a closing
/// [`timed`](crate::trace::Span::timed) span.
#[cfg(feature = "enabled")]
pub(crate) fn add_stage_ns(stage: &'static str, ns: u64) {
    with_active(|c| match c.stage_ns.iter_mut().find(|(s, _)| *s == stage) {
        Some((_, v)) => *v += ns,
        None => c.stage_ns.push((stage, ns)),
    });
}

/// Attributes AES pad blocks (freshly `generated` vs `cached`-served) to
/// the active query cost.
pub fn add_aes_blocks(generated: u64, cached: u64) {
    #[cfg(feature = "enabled")]
    with_active(|c| {
        c.aes_blocks_generated += generated;
        c.aes_blocks_cached += cached;
    });
    #[cfg(not(feature = "enabled"))]
    let _ = (generated, cached);
}

/// Attributes wire traffic (`tx` request bytes, `rx` reply bytes) to the
/// active query cost.
pub fn add_wire_bytes(tx: u64, rx: u64) {
    #[cfg(feature = "enabled")]
    with_active(|c| {
        c.wire_tx_bytes += tx;
        c.wire_rx_bytes += rx;
    });
    #[cfg(not(feature = "enabled"))]
    let _ = (tx, rx);
}

/// Attributes `n` transport retries to the active query cost.
pub fn add_retries(n: u64) {
    #[cfg(feature = "enabled")]
    with_active(|c| c.retries += n);
    #[cfg(not(feature = "enabled"))]
    let _ = n;
}

#[cfg(feature = "enabled")]
#[derive(Default)]
struct LedgerState {
    recent: VecDeque<QueryCost>,
    /// Sorted descending by `total_ns`, truncated at [`TOP_K_CAPACITY`].
    top: Vec<QueryCost>,
    recorded: u64,
}

/// The global store of finished [`QueryCost`] records: a bounded recent
/// ring plus a top-K-by-latency digest.
pub struct CostLedger {
    #[cfg(feature = "enabled")]
    state: Mutex<LedgerState>,
}

impl std::fmt::Debug for CostLedger {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CostLedger")
            .field("recorded", &self.recorded())
            .finish()
    }
}

impl CostLedger {
    #[cfg_attr(not(feature = "enabled"), allow(dead_code))]
    fn new() -> Self {
        Self {
            #[cfg(feature = "enabled")]
            state: Mutex::new(LedgerState::default()),
        }
    }

    /// Records one finished query cost.
    pub fn record(&self, cost: QueryCost) {
        #[cfg(feature = "enabled")]
        {
            crate::counter!(
                "secndp_profile_query_costs_total",
                "Per-query cost records collected by the profiler ledger."
            )
            .inc();
            let mut s = self.state.lock().unwrap();
            s.recorded += 1;
            if s.recent.len() == RECENT_CAPACITY {
                s.recent.pop_front();
            }
            s.recent.push_back(cost.clone());
            let pos = s.top.partition_point(|c| c.total_ns >= cost.total_ns);
            if pos < TOP_K_CAPACITY {
                s.top.insert(pos, cost);
                s.top.truncate(TOP_K_CAPACITY);
            }
        }
        #[cfg(not(feature = "enabled"))]
        let _ = cost;
    }

    /// Total records ever recorded (0 when telemetry is compiled out).
    pub fn recorded(&self) -> u64 {
        #[cfg(feature = "enabled")]
        {
            self.state.lock().unwrap().recorded
        }
        #[cfg(not(feature = "enabled"))]
        0
    }

    /// The `k` highest-latency records, descending.
    pub fn top(&self, k: usize) -> Vec<QueryCost> {
        #[cfg(feature = "enabled")]
        {
            let s = self.state.lock().unwrap();
            s.top.iter().take(k).cloned().collect()
        }
        #[cfg(not(feature = "enabled"))]
        {
            let _ = k;
            Vec::new()
        }
    }

    /// The newest `n` records, oldest first.
    pub fn recent(&self, n: usize) -> Vec<QueryCost> {
        #[cfg(feature = "enabled")]
        {
            let s = self.state.lock().unwrap();
            let skip = s.recent.len().saturating_sub(n);
            s.recent.iter().skip(skip).cloned().collect()
        }
        #[cfg(not(feature = "enabled"))]
        {
            let _ = n;
            Vec::new()
        }
    }

    /// Clears the ledger (tests and bench sweep boundaries).
    pub fn clear(&self) {
        #[cfg(feature = "enabled")]
        {
            let mut s = self.state.lock().unwrap();
            s.recent.clear();
            s.top.clear();
            s.recorded = 0;
        }
    }

    /// Renders the top-`k` digest as JSON:
    /// `{"recorded":…,"top":[…]}` (each entry a full [`QueryCost`]).
    pub fn render_top_json(&self, k: usize) -> String {
        let entries: Vec<String> = self.top(k).iter().map(QueryCost::render_json).collect();
        format!(
            "{{\"recorded\":{},\"top\":[{}]}}\n",
            self.recorded(),
            entries.join(",")
        )
    }
}

/// The process-wide query-cost ledger behind `/profilez?top=K`.
pub fn ledger() -> &'static CostLedger {
    #[cfg(feature = "enabled")]
    {
        static LEDGER: std::sync::OnceLock<CostLedger> = std::sync::OnceLock::new();
        LEDGER.get_or_init(CostLedger::new)
    }
    #[cfg(not(feature = "enabled"))]
    {
        static LEDGER: CostLedger = CostLedger {};
        &LEDGER
    }
}

#[cfg(all(test, feature = "enabled"))]
mod tests {
    use super::*;
    use crate::trace::{SpanEvent, SpanEventKind, SpanId, TraceId};

    fn ev(
        seq: u64,
        kind: SpanEventKind,
        span: u64,
        parent: u64,
        name: &'static str,
        t_ns: u64,
    ) -> SpanEvent {
        SpanEvent {
            seq,
            kind,
            trace: TraceId(1),
            span: SpanId(span),
            parent: SpanId(parent),
            name,
            t_ns,
            attrs: Vec::new(),
        }
    }

    /// A synthetic well-nested tree with known self/total times:
    ///
    /// ```text
    /// root   [0 ns .. 100 ns]              total 100, self 30
    ///   a    [10 .. 50]                    total 40,  self 25
    ///     b  [20 .. 35]                    total 15,  self 15
    ///   a    [60 .. 90]  (second call)     (folds into the same node)
    /// ```
    #[test]
    fn fold_reproduces_known_tree_exactly() {
        let j = SpanJournal::with_capacity(64);
        j.record_event(ev(0, SpanEventKind::Begin, 1, 0, "root", 0));
        j.record_event(ev(0, SpanEventKind::Begin, 2, 1, "a", 10));
        j.record_event(ev(0, SpanEventKind::Begin, 3, 2, "b", 20));
        j.record_event(ev(0, SpanEventKind::End, 3, 2, "b", 35));
        j.record_event(ev(0, SpanEventKind::End, 2, 1, "a", 50));
        j.record_event(ev(0, SpanEventKind::Begin, 4, 1, "a", 60));
        j.record_event(ev(0, SpanEventKind::End, 4, 1, "a", 90));
        j.record_event(ev(0, SpanEventKind::End, 1, 0, "root", 100));
        let p = Profiler::new();
        assert_eq!(p.fold(&j), 8);
        let snap = p.snapshot();
        let get = |stack: &str| {
            snap.nodes
                .iter()
                .find(|n| n.stack == stack)
                .unwrap_or_else(|| panic!("missing node {stack}"))
        };
        let root = get("root");
        assert_eq!((root.self_ns, root.total_ns, root.count), (30, 100, 1));
        let a = get("root;a");
        assert_eq!((a.self_ns, a.total_ns, a.count), (55, 70, 2));
        let b = get("root;a;b");
        assert_eq!((b.self_ns, b.total_ns, b.count), (15, 15, 1));
        // Self-time decomposition: subtree self sums to the root total.
        let self_sum: i64 = snap.nodes.iter().map(|n| n.self_ns).sum();
        assert_eq!(self_sum, root.total_ns as i64);
        assert_eq!(snap.lost_spans, 0);
        // Idempotent: a second fold consumes nothing and changes nothing.
        assert_eq!(p.fold(&j), 0);
        assert_eq!(p.snapshot().nodes, snap.nodes);
        // Collapsed output carries the same numbers.
        let collapsed = p.render_collapsed();
        assert!(collapsed.contains("root 30\n"), "{collapsed}");
        assert!(collapsed.contains("root;a 55\n"), "{collapsed}");
        assert!(collapsed.contains("root;a;b 15\n"), "{collapsed}");
    }

    #[test]
    fn fold_counts_ring_loss_and_orphan_ends() {
        let j = SpanJournal::with_capacity(64);
        let p = Profiler::new();
        // An End whose Begin was never journaled (simulates ring loss).
        j.record_event(ev(0, SpanEventKind::End, 9, 0, "ghost", 5));
        p.fold(&j);
        assert_eq!(p.snapshot().lost_spans, 1);
    }

    #[test]
    fn incremental_fold_spans_open_across_folds() {
        let j = SpanJournal::with_capacity(64);
        let p = Profiler::new();
        j.record_event(ev(0, SpanEventKind::Begin, 1, 0, "root", 0));
        p.fold(&j);
        assert!(p.snapshot().nodes.is_empty(), "open span must not render");
        j.record_event(ev(0, SpanEventKind::End, 1, 0, "root", 40));
        p.fold(&j);
        let snap = p.snapshot();
        assert_eq!(snap.nodes.len(), 1);
        assert_eq!(snap.nodes[0].total_ns, 40);
    }

    #[test]
    fn concurrent_fold_while_recording() {
        use std::sync::atomic::{AtomicBool, Ordering};
        use std::sync::Arc;
        let j = Arc::new(SpanJournal::with_capacity(4096));
        let p = Arc::new(Profiler::new());
        let stop = Arc::new(AtomicBool::new(false));
        let writers: Vec<_> = (0..3)
            .map(|w| {
                let j = Arc::clone(&j);
                let stop = Arc::clone(&stop);
                std::thread::spawn(move || {
                    let mut id = w * 1_000_000 + 1;
                    while !stop.load(Ordering::Relaxed) {
                        j.record_event(ev(0, SpanEventKind::Begin, id, 0, "work", 0));
                        j.record_event(ev(0, SpanEventKind::End, id, 0, "work", 100));
                        id += 1;
                    }
                })
            })
            .collect();
        for _ in 0..50 {
            p.fold(&j);
        }
        stop.store(true, Ordering::Relaxed);
        for w in writers {
            w.join().unwrap();
        }
        p.fold(&j);
        let snap = p.snapshot();
        // Whatever survived the ring folded cleanly: every folded span is
        // a complete 100 ns "work" span.
        if let Some(n) = snap.nodes.iter().find(|n| n.stack == "work") {
            assert_eq!(n.total_ns, 100 * n.count);
            assert_eq!(n.self_ns, (100 * n.count) as i64);
        }
    }

    #[test]
    fn ledger_top_k_is_latency_sorted_and_bounded() {
        let l = CostLedger::new();
        for ns in [50u64, 10, 90, 30, 70] {
            l.record(QueryCost {
                op: "t",
                total_ns: ns,
                ..QueryCost::default()
            });
        }
        let top = l.top(3);
        let lat: Vec<u64> = top.iter().map(|c| c.total_ns).collect();
        assert_eq!(lat, vec![90, 70, 50]);
        assert_eq!(l.recorded(), 5);
        for i in 0..(RECENT_CAPACITY + 10) {
            l.record(QueryCost {
                op: "bulk",
                total_ns: i as u64,
                ..QueryCost::default()
            });
        }
        let s = l.state.lock().unwrap();
        assert_eq!(s.recent.len(), RECENT_CAPACITY);
        assert!(s.top.len() <= TOP_K_CAPACITY);
    }

    #[test]
    fn cost_guard_collects_attributions() {
        let before = ledger().recorded();
        {
            let _g = begin_query("unit_test_op");
            add_stage_ns("pad_gen", 100);
            add_stage_ns("pad_gen", 50);
            add_stage_ns("verify", 25);
            add_aes_blocks(8, 24);
            add_wire_bytes(512, 128);
            add_retries(2);
        }
        assert_eq!(ledger().recorded(), before + 1);
        let rec = ledger()
            .recent(64)
            .into_iter()
            .rev()
            .find(|c| c.op == "unit_test_op")
            .expect("recorded cost");
        assert_eq!(rec.stage_ns, vec![("pad_gen", 150), ("verify", 25)]);
        assert_eq!((rec.aes_blocks_generated, rec.aes_blocks_cached), (8, 24));
        assert_eq!((rec.wire_tx_bytes, rec.wire_rx_bytes), (512, 128));
        assert_eq!(rec.retries, 2);
        assert!(rec.render_json().contains("\"pad_gen\":150"));
    }

    #[test]
    fn attribution_without_guard_is_a_noop() {
        let before = ledger().recorded();
        add_stage_ns("pad_gen", 1);
        add_aes_blocks(1, 1);
        assert_eq!(ledger().recorded(), before);
    }
}
