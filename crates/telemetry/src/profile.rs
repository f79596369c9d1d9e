//! Continuous profiling and per-query cost attribution.
//!
//! The span journal ([`crate::trace`]) answers "what happened on *this*
//! query"; the metric histograms answer "how slow is this stage on
//! average". Neither answers the operator's question under sustained
//! load: *where does the process spend its time right now, and what did
//! each query cost?* The [`Profiler`] answers both from one pass over the
//! journal, on the scrape thread, so recording stays exactly as wait-free
//! as the journal itself:
//!
//! - It **folds completed spans** into a live call-tree profile. Each node
//!   is a semicolon-joined stack path (e.g.
//!   `weighted_sum_batch;decrypt;pad_gen`) carrying *self time* (time in
//!   the span minus time in its children), *total time* and a call count.
//!   The fold is incremental — a persistent cursor over the journal's
//!   sequence numbers means each event is consumed once. Rendered as
//!   flamegraph-ready collapsed-stack text ([`Profiler::render_collapsed`])
//!   and JSON ([`Profiler::render_json`]) behind the `/profilez` endpoint.
//! - The same pass builds one [`QueryCost`] per **local trace root** (a
//!   span opened with no parent, such as `weighted_sum`): while the root is
//!   open the fold sums the durations of its trace's other spans by name
//!   and the `blocks` attribute of its `pad_gen` spans; when the root ends
//!   the record — the root's name, duration and trace id — joins a recent
//!   ring and a top-K-by-latency digest surfaced at `/profilez?top=K`: the
//!   index from a slow query to its trace id (resolve it at
//!   `/tracez?trace=`), with the stages attached. A record exists once a
//!   fold has seen its root end.
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
//! evicted; its eventual `End` counts as lost, and an evicted root takes
//! its trace's cost with it). Spans whose `Begin` was overwritten by the
//! journal ring before a fold are counted in `lost_spans` rather than
//! silently dropped; a trace whose root `Begin` was lost, or whose root
//! is remote (a span opened under a context that arrived over the wire),
//! gets no cost record. Cost accumulators live only while their root is
//! open, and at most [`RECENT_CAPACITY`] recent records and
//! [`TOP_K_CAPACITY`] digest entries are kept, so memory is bounded
//! regardless of query volume.
//!
//! The journal holds recorded traces only (one in
//! [`RECORD_ONE_IN`](crate::trace::RECORD_ONE_IN), decided at the root), so
//! the profile and the cost records sample the traffic: shares and
//! per-query costs, not totals.
//!
//! With the `enabled` feature off the journal records nothing, so folds
//! consume nothing and the renderers produce valid empty documents.

use crate::trace::{names, AttrValue, SpanEvent, SpanEventKind, SpanJournal};
use std::collections::{BTreeMap, HashMap, VecDeque};
use std::sync::Mutex;

/// Maximum spans the profiler keeps open (begun, not yet ended) before
/// evicting the oldest; bounds fold-state memory under journal loss.
pub const MAX_OPEN_SPANS: usize = 8 * 1024;

/// Recent [`QueryCost`] records retained by the profiler.
pub const RECENT_CAPACITY: usize = 256;

/// Top-by-latency [`QueryCost`] digests retained by the profiler.
pub const TOP_K_CAPACITY: usize = 64;

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

/// What one locally rooted trace — a protocol-level query, batch, publish
/// or encrypt — cost, folded from its spans.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct QueryCost {
    /// Trace id of the root span.
    pub trace_id: u64,
    /// The root span's name (`"weighted_sum"`, `"weighted_sum_batch"`,
    /// `"publish"`, …).
    pub op: &'static str,
    /// The root span's duration in nanoseconds.
    pub total_ns: u64,
    /// Per-stage nanoseconds, in the order the stages first closed
    /// (`wire_encode`, `ndp_serve`, `wire_round_trip`, `ndp_compute`,
    /// `pad_gen`, …): each entry is the summed duration of the trace's
    /// spans of that name, so `ndp_compute` is the time spent waiting on
    /// the untrusted device, wire included.
    pub stage_ns: Vec<(&'static str, u64)>,
    /// AES pad blocks generated for this query: the summed `blocks`
    /// attribute of its `pad_gen` spans (every pad is regenerated).
    pub aes_blocks_generated: u64,
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
             \"aes_blocks_generated\":{}}}",
            self.trace_id,
            crate::export::json_escape(self.op),
            self.total_ns,
            stages.join(","),
            self.aes_blocks_generated,
        )
    }
}

struct OpenSpan {
    path: String,
    trace: u64,
    parent: u64,
    begin_ns: u64,
}

#[derive(Default)]
struct NodeAcc {
    self_ns: i64,
    total_ns: u64,
    count: u64,
}

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
    /// Costs under construction, keyed by trace id: one per open local
    /// root.
    building: HashMap<u64, QueryCost>,
    recent: VecDeque<QueryCost>,
    /// Sorted descending by `total_ns`, truncated at [`TOP_K_CAPACITY`].
    top: Vec<QueryCost>,
    recorded: u64,
}

impl FoldState {
    fn begin(&mut self, ev: &SpanEvent) {
        let path = match self.open.get(&ev.parent.0) {
            Some(p) => format!("{};{}", p.path, ev.name),
            None => ev.name.to_string(),
        };
        if ev.parent.0 == 0 {
            let cost = QueryCost {
                trace_id: ev.trace.0,
                op: ev.name,
                ..QueryCost::default()
            };
            self.building.insert(ev.trace.0, cost);
        }
        self.open.insert(
            ev.span.0,
            OpenSpan {
                path,
                trace: ev.trace.0,
                parent: ev.parent.0,
                begin_ns: ev.t_ns,
            },
        );
        if self.open.len() > MAX_OPEN_SPANS {
            // Evict the stalest open span; its End will count as lost
            // when (if) it arrives, and an evicted root takes its trace's
            // cost with it.
            if let Some(oldest) = self
                .open
                .iter()
                .min_by_key(|(_, o)| o.begin_ns)
                .map(|(&id, _)| id)
            {
                if let Some(o) = self.open.remove(&oldest) {
                    if o.parent == 0 {
                        self.building.remove(&o.trace);
                    }
                }
                self.lost_spans += 1;
            }
        }
    }

    /// Folds one `End`; returns whether it finished a cost record.
    fn end(&mut self, ev: &SpanEvent) -> bool {
        let Some(o) = self.open.remove(&ev.span.0) else {
            self.lost_spans += 1;
            return false;
        };
        let dur = ev.t_ns.saturating_sub(o.begin_ns);
        let parent_path = self.open.get(&o.parent).map(|p| p.path.clone());
        if let Some(ppath) = parent_path {
            self.nodes.entry(ppath).or_default().self_ns -= dur as i64;
        }
        let n = self.nodes.entry(o.path).or_default();
        n.self_ns += dur as i64;
        n.total_ns += dur;
        n.count += 1;
        if o.parent == 0 {
            let Some(mut cost) = self.building.remove(&o.trace) else {
                return false;
            };
            cost.total_ns = dur;
            self.record(cost);
            return true;
        }
        if let Some(cost) = self.building.get_mut(&o.trace) {
            match cost.stage_ns.iter_mut().find(|(s, _)| *s == ev.name) {
                Some((_, v)) => *v += dur,
                None => cost.stage_ns.push((ev.name, dur)),
            }
            if ev.name == names::PAD_GEN {
                for (key, value) in &ev.attrs {
                    if let ("blocks", AttrValue::U64(b)) = (*key, value) {
                        cost.aes_blocks_generated += b;
                    }
                }
            }
        }
        false
    }

    fn record(&mut self, cost: QueryCost) {
        self.recorded += 1;
        let pos = self.top.partition_point(|c| c.total_ns >= cost.total_ns);
        if pos < TOP_K_CAPACITY {
            self.top.insert(pos, cost.clone());
            self.top.truncate(TOP_K_CAPACITY);
        }
        if self.recent.len() == RECENT_CAPACITY {
            self.recent.pop_front();
        }
        self.recent.push_back(cost);
    }
}

/// The incremental span-folding profiler. The process-wide instance is
/// [`profiler()`]; tests can build private ones over private journals.
#[derive(Default)]
pub struct Profiler {
    state: Mutex<FoldState>,
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
        Self::default()
    }

    /// Folds every journal event recorded since the previous fold into the
    /// profile and the cost records. Returns the number of events
    /// consumed. Folding is serialized on the profiler's own lock; the
    /// journal's recording path is never touched.
    pub fn fold(&self, journal: &SpanJournal) -> u64 {
        let events = journal.snapshot();
        let mut s = self.state.lock().unwrap();
        // Events older than the cursor were folded already. A seq past the
        // cursor skips events lost to the ring or left out of the snapshot
        // (2 per span); a first fold does not count the history before it.
        let (mut consumed, mut costs) = (0u64, 0u64);
        let start_cursor = s.cursor;
        for ev in events.iter().filter(|e| e.seq >= start_cursor) {
            if s.cursor > 0 && ev.seq > s.cursor {
                s.lost_spans += (ev.seq - s.cursor).div_ceil(2);
            }
            consumed += 1;
            match ev.kind {
                SpanEventKind::Begin => s.begin(ev),
                SpanEventKind::End => costs += u64::from(s.end(ev)),
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
        crate::counter!(
            "secndp_profile_query_costs_total",
            "Per-query cost records folded from the span journal."
        )
        .add(costs);
        consumed
    }

    /// A point-in-time copy of the folded profile.
    pub fn snapshot(&self) -> ProfileSnapshot {
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

    /// Clears the accumulated profile, the cost records and the loss
    /// counters. The cursor is kept, so already-folded events are not
    /// re-folded.
    pub fn reset(&self) {
        let mut s = self.state.lock().unwrap();
        *s = FoldState {
            cursor: s.cursor,
            ..FoldState::default()
        };
    }

    /// Cost records folded so far.
    pub fn recorded(&self) -> u64 {
        self.state.lock().unwrap().recorded
    }

    /// The `k` highest-latency cost records, descending.
    pub fn top(&self, k: usize) -> Vec<QueryCost> {
        let s = self.state.lock().unwrap();
        s.top.iter().take(k).cloned().collect()
    }

    /// The newest `n` cost records, oldest first.
    pub fn recent(&self, n: usize) -> Vec<QueryCost> {
        let s = self.state.lock().unwrap();
        s.recent
            .iter()
            .skip(s.recent.len().saturating_sub(n))
            .cloned()
            .collect()
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

    /// Renders the top-`k` cost digest as JSON:
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

/// The process-wide profiler behind `/profilez` (folds the global
/// [`journal`](crate::trace::journal)).
pub fn profiler() -> &'static Profiler {
    static PROFILER: std::sync::OnceLock<Profiler> = std::sync::OnceLock::new();
    PROFILER.get_or_init(Profiler::new)
}

#[cfg(all(test, feature = "enabled"))]
mod tests {
    use super::*;
    use crate::tests::ev;
    use crate::trace::{SpanContext, SpanId, TraceId};

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
        j.record_event(ev(SpanEventKind::Begin, 1, 1, 0, "root", 0));
        j.record_event(ev(SpanEventKind::Begin, 1, 2, 1, "a", 10));
        j.record_event(ev(SpanEventKind::Begin, 1, 3, 2, "b", 20));
        j.record_event(ev(SpanEventKind::End, 1, 3, 2, "b", 35));
        j.record_event(ev(SpanEventKind::End, 1, 2, 1, "a", 50));
        j.record_event(ev(SpanEventKind::Begin, 1, 4, 1, "a", 60));
        j.record_event(ev(SpanEventKind::End, 1, 4, 1, "a", 90));
        j.record_event(ev(SpanEventKind::End, 1, 1, 0, "root", 100));
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
        j.record_event(ev(SpanEventKind::End, 1, 9, 0, "ghost", 5));
        p.fold(&j);
        assert_eq!(p.snapshot().lost_spans, 1);
    }

    #[test]
    fn incremental_fold_spans_open_across_folds() {
        let j = SpanJournal::with_capacity(64);
        let p = Profiler::new();
        j.record_event(ev(SpanEventKind::Begin, 1, 1, 0, "root", 0));
        p.fold(&j);
        assert!(p.snapshot().nodes.is_empty(), "open span must not render");
        j.record_event(ev(SpanEventKind::End, 1, 1, 0, "root", 40));
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
                        j.record_event(ev(SpanEventKind::Begin, id, id, 0, "work", 0));
                        j.record_event(ev(SpanEventKind::End, id, id, 0, "work", 100));
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
        // a complete 100 ns "work" span, and each one a 100 ns record.
        if let Some(n) = snap.nodes.iter().find(|n| n.stack == "work") {
            assert_eq!(n.total_ns, 100 * n.count);
            assert_eq!(n.self_ns, (100 * n.count) as i64);
            assert_eq!(p.recorded(), n.count);
        }
        assert!(p.top(TOP_K_CAPACITY).iter().all(|c| c.total_ns == 100));
    }

    #[test]
    fn ledger_top_k_is_latency_sorted_and_bounded() {
        let j = SpanJournal::with_capacity(1024);
        let p = Profiler::new();
        let root = |trace: u64, ns: u64| {
            j.record_event(ev(SpanEventKind::Begin, trace, trace, 0, "t", 0));
            j.record_event(ev(SpanEventKind::End, trace, trace, 0, "t", ns));
        };
        for (trace, ns) in [(1, 50u64), (2, 10), (3, 90), (4, 30), (5, 70)] {
            root(trace, ns);
        }
        p.fold(&j);
        let lat: Vec<u64> = p.top(3).iter().map(|c| c.total_ns).collect();
        assert_eq!(lat, vec![90, 70, 50]);
        assert_eq!(p.top(1)[0].trace_id, 3);
        assert_eq!(p.recorded(), 5);
        for i in 0..(RECENT_CAPACITY + 10) as u64 {
            root(100 + i, i);
        }
        p.fold(&j);
        assert_eq!(p.recorded(), 5 + RECENT_CAPACITY as u64 + 10);
        let s = p.state.lock().unwrap();
        assert_eq!(s.recent.len(), RECENT_CAPACITY);
        assert_eq!(s.top.len(), TOP_K_CAPACITY);
        assert!(s.open.is_empty() && s.building.is_empty());
    }

    /// One synthetic trace folds into one record: its root's name and
    /// duration, its other spans summed by name in the order they first
    /// closed, and the `blocks` of its `pad_gen` spans. No record exists
    /// until a fold sees the root end.
    #[test]
    fn cost_guard_collects_attributions() {
        let j = SpanJournal::with_capacity(64);
        let p = Profiler::new();
        let pad_gen = |span, begin, end, blocks| {
            j.record_event(ev(SpanEventKind::Begin, 7, span, 2, "pad_gen", begin));
            let attrs = vec![("blocks", AttrValue::U64(blocks))];
            j.record_event(SpanEvent {
                attrs,
                ..ev(SpanEventKind::End, 7, span, 2, "pad_gen", end)
            });
        };
        j.record_event(ev(SpanEventKind::Begin, 7, 1, 0, "weighted_sum", 0));
        j.record_event(ev(SpanEventKind::Begin, 7, 2, 1, "decrypt", 10));
        pad_gen(3, 20, 40, 8);
        pad_gen(4, 45, 55, 4);
        j.record_event(ev(SpanEventKind::End, 7, 2, 1, "decrypt", 60));
        p.fold(&j);
        assert_eq!(p.recorded(), 0, "open root must not record");
        j.record_event(ev(SpanEventKind::Begin, 7, 5, 1, "verify", 60));
        j.record_event(ev(SpanEventKind::End, 7, 5, 1, "verify", 70));
        j.record_event(ev(SpanEventKind::End, 7, 1, 0, "weighted_sum", 100));
        p.fold(&j);
        assert_eq!(p.recorded(), 1);
        let rec = p.recent(1).pop().expect("recorded cost");
        assert_eq!(
            (rec.trace_id, rec.op, rec.total_ns),
            (7, "weighted_sum", 100)
        );
        assert_eq!(
            rec.stage_ns,
            vec![("pad_gen", 30), ("decrypt", 50), ("verify", 10)]
        );
        assert_eq!(rec.aes_blocks_generated, 12);
        assert!(rec.render_json().contains("\"pad_gen\":30"));
        assert!(p.state.lock().unwrap().building.is_empty());
    }

    /// A span whose parent arrived over the wire (as on `secndp-server`)
    /// is no local root: it creates no record and no accumulator. Neither
    /// does a trace whose root `Begin` the ring overwrote before a fold.
    #[test]
    fn attribution_without_guard_is_a_noop() {
        // A recorded id (1 modulo `RECORD_ONE_IN`): the remote span must
        // reach the journal, or the fold below has nothing to refuse.
        let remote = SpanContext {
            trace: TraceId(u64::MAX - 62),
            span: SpanId(u64::MAX - 1),
        };
        assert!(remote.trace.is_recorded());
        drop(crate::trace::span_child_of("remote_served", remote));
        let journaled: Vec<SpanEventKind> = crate::trace::journal()
            .snapshot()
            .into_iter()
            .filter(|e| e.trace == remote.trace && e.name == "remote_served")
            .map(|e| e.kind)
            .collect();
        assert_eq!(journaled, [SpanEventKind::Begin, SpanEventKind::End]);
        let p = Profiler::new();
        p.fold(crate::trace::journal());
        let has_remote = |c: &QueryCost| c.trace_id == remote.trace.0;
        assert!(!p.recent(RECENT_CAPACITY).iter().any(has_remote));
        assert!(!p
            .state
            .lock()
            .unwrap()
            .building
            .contains_key(&remote.trace.0));

        // Six events through a four-slot ring: the root's Begin and its
        // first child's Begin are gone when the fold runs.
        let j = SpanJournal::with_capacity(4);
        j.record_event(ev(SpanEventKind::Begin, 5, 1, 0, "weighted_sum", 0));
        j.record_event(ev(SpanEventKind::Begin, 5, 2, 1, "decrypt", 10));
        j.record_event(ev(SpanEventKind::End, 5, 2, 1, "decrypt", 20));
        j.record_event(ev(SpanEventKind::Begin, 5, 3, 1, "verify", 30));
        j.record_event(ev(SpanEventKind::End, 5, 3, 1, "verify", 40));
        j.record_event(ev(SpanEventKind::End, 5, 1, 0, "weighted_sum", 50));
        let p = Profiler::new();
        p.fold(&j);
        assert_eq!(p.recorded(), 0);
        assert_eq!(p.snapshot().lost_spans, 2);
        let s = p.state.lock().unwrap();
        assert!(s.open.is_empty() && s.building.is_empty());
    }
}
