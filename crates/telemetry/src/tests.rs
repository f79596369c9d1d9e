//! Unit tests for the instruments, registry, and exporters (compiled only
//! with the `enabled` feature; without it every instrument is a no-op and
//! there is nothing to test).

use crate::audit::{AuditEvent, AuditLog};
use crate::metrics::{Histogram, HistogramSnapshot, BUCKETS};
use crate::registry::Registry;
use crate::trace::SpanEventKind::{self, Begin, End};
use crate::trace::{
    self, render_chrome_trace, render_tree, AttrValue, SpanContext, SpanEvent, SpanId, SpanJournal,
    TraceId,
};

/// Returns the single bucket index a value lands in.
fn bucket_of(v: u64) -> usize {
    let h = Histogram::new();
    h.observe(v);
    let snap = h.snapshot();
    let hits: Vec<usize> = (0..BUCKETS).filter(|&i| snap.buckets[i] == 1).collect();
    assert_eq!(hits.len(), 1, "value {v} landed in {} buckets", hits.len());
    hits[0]
}

#[test]
fn bucket_boundaries() {
    // Zero gets its own bucket.
    assert_eq!(bucket_of(0), 0);
    // 1 = 2^0 starts bucket 1.
    assert_eq!(bucket_of(1), 1);
    // For every k: 2^k−1 closes bucket k; 2^k opens bucket k+1, which
    // also holds 2^k+1.
    for k in 1..63 {
        let p = 1u64 << k;
        assert_eq!(bucket_of(p - 1), k, "2^{k}-1");
        assert_eq!(bucket_of(p), k + 1, "2^{k}");
        assert_eq!(bucket_of(p + 1), k + 1, "2^{k}+1");
    }
    // The top of the range: 2^63 and u64::MAX share the last bucket.
    assert_eq!(bucket_of(1u64 << 63), 64);
    assert_eq!(bucket_of(u64::MAX), 64);
    // Upper bounds are inclusive and cover the whole u64 range.
    assert_eq!(HistogramSnapshot::upper_bound(0), 0);
    assert_eq!(HistogramSnapshot::upper_bound(1), 1);
    assert_eq!(HistogramSnapshot::upper_bound(8), 255);
    assert_eq!(HistogramSnapshot::upper_bound(64), u64::MAX);
}

#[test]
fn histogram_count_sum_mean() {
    let h = Histogram::new();
    for v in [10u64, 20, 30] {
        h.observe(v);
    }
    let s = h.snapshot();
    assert_eq!(s.count, 3);
    assert_eq!(s.sum, 60);
    assert!((s.mean() - 20.0).abs() < 1e-12);
}

#[test]
fn quantiles_are_ordered_and_bracketed() {
    let h = Histogram::new();
    // 100 samples spread over two decades.
    for i in 1..=100u64 {
        h.observe(i * 10);
    }
    let s = h.snapshot();
    let (p50, p95, p99) = (s.quantile(0.5), s.quantile(0.95), s.quantile(0.99));
    assert!(p50 <= p95 && p95 <= p99, "{p50} {p95} {p99}");
    // Bucketed estimates are exact to within one power of two.
    assert!((256.0..=1023.0).contains(&p50), "p50={p50}");
    assert!(p99 <= 1023.0, "p99={p99}");
    // Degenerate cases.
    assert_eq!(
        HistogramSnapshot {
            count: 0,
            sum: 0,
            buckets: vec![0; BUCKETS],
        }
        .quantile(0.5),
        0.0
    );
    let one = {
        let h = Histogram::new();
        h.observe(7);
        h.snapshot()
    };
    assert!(one.quantile(0.0) >= 4.0 && one.quantile(1.0) <= 7.0);
}

#[test]
fn concurrent_counter_increments() {
    let reg = Registry::new();
    let c = reg.counter("concurrent_total", &[], "scoped-thread hammering");
    let h = reg.histogram("concurrent_ns", &[], "scoped-thread samples");
    const THREADS: usize = 8;
    const PER_THREAD: u64 = 10_000;
    std::thread::scope(|s| {
        for t in 0..THREADS {
            let c = &c;
            let h = &h;
            s.spawn(move || {
                for i in 0..PER_THREAD {
                    c.inc();
                    h.observe(t as u64 * PER_THREAD + i);
                }
            });
        }
    });
    assert_eq!(c.get(), THREADS as u64 * PER_THREAD);
    assert_eq!(h.snapshot().count, THREADS as u64 * PER_THREAD);
}

#[test]
fn registration_is_idempotent_and_shared() {
    let reg = Registry::new();
    let a = reg.counter("shared_total", &[("x", "1")], "help");
    let b = reg.counter("shared_total", &[("x", "1")], "help");
    a.inc();
    b.inc();
    assert_eq!(a.get(), 2);
    // Different labels are a different series.
    let c = reg.counter("shared_total", &[("x", "2")], "help");
    assert_eq!(c.get(), 0);
    assert_eq!(reg.snapshot().counter_total("shared_total"), 2);
}

#[test]
#[should_panic(expected = "different kind")]
fn kind_mismatch_panics() {
    let reg = Registry::new();
    let _ = reg.counter("mixed", &[], "help");
    let _ = reg.gauge("mixed", &[], "help");
}

#[test]
fn reset_zeroes_but_keeps_instruments() {
    let reg = Registry::new();
    let c = reg.counter("r_total", &[], "h");
    let g = reg.float_gauge("r_rate", &[], "h");
    let h = reg.histogram("r_ns", &[], "h");
    c.add(5);
    g.set(0.75);
    h.observe(9);
    reg.reset();
    assert_eq!(c.get(), 0);
    assert_eq!(g.get(), 0.0);
    assert_eq!(h.snapshot().count, 0);
    // The same Arc still feeds the same registry entry.
    c.inc();
    assert_eq!(reg.snapshot().counter_total("r_total"), 1);
}

/// Golden test: the exact Prometheus text exposition output for a small
/// registry. Locks the format (header order, label rendering, cumulative
/// buckets, +Inf, _sum/_count) against accidental drift.
#[test]
fn prometheus_exposition_golden() {
    let reg = Registry::new();
    reg.counter("requests_total", &[], "Requests served.")
        .add(3);
    reg.gauge("queue_depth", &[], "Packets queued.").set(-2);
    reg.float_gauge("hit_rate", &[], "Row-buffer hit rate.")
        .set(0.5);
    let h = reg.histogram(
        "latency_ns",
        &[("stage", "verify")],
        "Stage latency in nanoseconds.",
    );
    h.observe(0); // bucket 0, le="0"
    h.observe(3); // bucket 2, le="3"
    h.observe(4); // bucket 3, le="7"
    let want = "\
# HELP hit_rate Row-buffer hit rate.
# TYPE hit_rate gauge
hit_rate 0.5
# HELP latency_ns Stage latency in nanoseconds.
# TYPE latency_ns histogram
latency_ns_bucket{stage=\"verify\",le=\"0\"} 1
latency_ns_bucket{stage=\"verify\",le=\"1\"} 1
latency_ns_bucket{stage=\"verify\",le=\"3\"} 2
latency_ns_bucket{stage=\"verify\",le=\"7\"} 3
latency_ns_bucket{stage=\"verify\",le=\"+Inf\"} 3
latency_ns_sum{stage=\"verify\"} 7
latency_ns_count{stage=\"verify\"} 3
# HELP queue_depth Packets queued.
# TYPE queue_depth gauge
queue_depth -2
# HELP requests_total Requests served.
# TYPE requests_total counter
requests_total 3
";
    assert_eq!(reg.render_prometheus(), want);
}

#[test]
fn json_snapshot_shape() {
    let reg = Registry::new();
    reg.counter("j_total", &[("kind", "x")], "h").add(2);
    reg.histogram("j_ns", &[], "h").observe(100);
    let json = reg.render_json();
    assert_eq!(
        json,
        "{\"counters\":[{\"name\":\"j_total\",\"labels\":{\"kind\":\"x\"},\"value\":2}],\
         \"gauges\":[],\
         \"histograms\":[{\"name\":\"j_ns\",\"labels\":{},\"count\":1,\"sum\":100,\
         \"mean\":100,\"p50\":127,\"p95\":127,\"p99\":127,\
         \"buckets\":[{\"le\":127,\"count\":1}]}]}"
    );
}

#[test]
fn global_registry_macros_share_state() {
    let c = crate::counter!("global_macro_test_total", "macro cache test");
    let before = c.get();
    crate::counter!("global_macro_test_total", "macro cache test").inc();
    // Another *call site* for the same name reaches the same instrument
    // through the global registry.
    assert!(c.get() > before);
}

// ─── quantile edge cases ────────────────────────────────────────────────

#[test]
fn quantile_empty_histogram_is_zero() {
    let empty = HistogramSnapshot {
        count: 0,
        sum: 0,
        buckets: vec![0; BUCKETS],
    };
    assert_eq!(empty.quantile(0.0), 0.0);
    assert_eq!(empty.quantile(0.5), 0.0);
    assert_eq!(empty.quantile(1.0), 0.0);
}

#[test]
fn quantile_single_observation_is_flat() {
    // One sample: every q targets rank 1 at frac 1, i.e. the upper bound
    // of the sample's bucket — identical for q = 0, 0.5, and 1.
    let h = Histogram::new();
    h.observe(100); // bucket (64, 127]
    let s = h.snapshot();
    assert_eq!(s.quantile(0.0), 127.0);
    assert_eq!(s.quantile(0.5), 127.0);
    assert_eq!(s.quantile(1.0), 127.0);
}

#[test]
fn quantile_extremes_hit_first_and_last_buckets() {
    let h = Histogram::new();
    h.observe(0); // bucket [0, 0]
    h.observe(1000); // bucket (512, 1023]
    let s = h.snapshot();
    // q = 0 targets rank 1 → the zero bucket, whose bounds collapse to 0.
    assert_eq!(s.quantile(0.0), 0.0);
    // q = 1 targets the last rank → upper bound of the last sample's
    // bucket (frac = 1 within it).
    assert_eq!(s.quantile(1.0), 1023.0);
}

#[test]
#[should_panic(expected = "outside [0, 1]")]
fn quantile_rejects_out_of_range() {
    let h = Histogram::new();
    h.observe(1);
    let _ = h.snapshot().quantile(1.5);
}

#[test]
fn quantile_upper_bound_is_conservative() {
    let empty = HistogramSnapshot {
        count: 0,
        sum: 0,
        buckets: vec![0; BUCKETS],
    };
    assert_eq!(empty.quantile_upper_bound(0.5), 0.0);
    let h = Histogram::new();
    h.observe(100); // bucket (64, 127]
    let s = h.snapshot();
    // A single observation answers the bucket upper bound for every q.
    assert_eq!(s.quantile_upper_bound(0.0), 127.0);
    assert_eq!(s.quantile_upper_bound(0.5), 127.0);
    assert_eq!(s.quantile_upper_bound(1.0), 127.0);
    // Never below the interpolated estimate, across a spread of samples.
    let h = Histogram::new();
    for i in 1..=100u64 {
        h.observe(i * 10);
    }
    let s = h.snapshot();
    for q in [0.0, 0.5, 0.9, 0.95, 0.99, 1.0] {
        assert!(
            s.quantile_upper_bound(q) >= s.quantile(q),
            "q={q}: ub {} < interpolated {}",
            s.quantile_upper_bound(q),
            s.quantile(q)
        );
    }
    // Zeros land in the zero bucket whose bound is 0.
    let h = Histogram::new();
    h.observe(0);
    assert_eq!(h.snapshot().quantile_upper_bound(1.0), 0.0);
}

#[test]
#[should_panic(expected = "outside [0, 1]")]
fn quantile_upper_bound_rejects_out_of_range() {
    let h = Histogram::new();
    h.observe(1);
    let _ = h.snapshot().quantile_upper_bound(-0.1);
}

// ─── label escaping (Prometheus exposition) ─────────────────────────────

#[test]
fn prometheus_escapes_label_values_round_trip() {
    let reg = Registry::new();
    let tricky = "a\\b\"c\nd";
    reg.counter("esc_total", &[("path", tricky)], "Escaping test.")
        .inc();
    let text = reg.render_prometheus();
    let line = text
        .lines()
        .find(|l| l.starts_with("esc_total{"))
        .expect("series line");
    assert_eq!(line, "esc_total{path=\"a\\\\b\\\"c\\nd\"} 1");
    // Round-trip: un-escaping the emitted value recovers the original.
    let start = line.find("path=\"").unwrap() + 6;
    let end = line.rfind('"').unwrap();
    let escaped = &line[start..end];
    let mut unescaped = String::new();
    let mut chars = escaped.chars();
    while let Some(c) = chars.next() {
        if c == '\\' {
            match chars.next() {
                Some('\\') => unescaped.push('\\'),
                Some('"') => unescaped.push('"'),
                Some('n') => unescaped.push('\n'),
                other => panic!("unknown escape \\{other:?}"),
            }
        } else {
            unescaped.push(c);
        }
    }
    assert_eq!(unescaped, tricky);
}

// ─── span journal ───────────────────────────────────────────────────────

/// A synthetic journal event with no attributes (`seq` is the journal's
/// to assign).
pub(crate) fn ev(
    kind: SpanEventKind,
    trace: u64,
    span: u64,
    parent: u64,
    name: &'static str,
    t_ns: u64,
) -> SpanEvent {
    SpanEvent {
        seq: 0,
        kind,
        trace: TraceId(trace),
        span: SpanId(span),
        parent: SpanId(parent),
        name,
        t_ns,
        attrs: Vec::new(),
    }
}

#[test]
fn span_guards_nest_and_restore_thread_context() {
    // The ambient context is thread-local, so this test is immune to
    // parallel tests opening their own spans.
    assert_eq!(trace::current(), SpanContext::NONE);
    let root = trace::span("test_root");
    let root_ctx = root.context();
    assert!(root_ctx.trace.0 != 0 && root_ctx.span.0 != 0);
    assert_eq!(trace::current(), root_ctx);
    {
        let child = trace::span("test_child");
        assert_eq!(child.context().trace, root_ctx.trace, "same trace");
        assert_ne!(child.context().span, root_ctx.span, "fresh span id");
        assert_eq!(trace::current(), child.context());
    }
    assert_eq!(trace::current(), root_ctx, "child drop restores parent");
    drop(root);
    assert_eq!(trace::current(), SpanContext::NONE);
}

#[test]
fn span_child_of_stitches_remote_context() {
    let recorded = trace::record_trace();
    let root = trace::span("test_remote_root");
    let carried = root.context();
    drop(root); // the "remote" side has no ambient span from the root
    drop(recorded);
    assert_eq!(trace::current(), SpanContext::NONE);
    let remote = trace::span_child_of("test_remote_child", carried);
    assert_eq!(remote.context().trace, carried.trace);
    let remote_span = remote.context().span;
    drop(remote);
    // The journal recorded the child with the carried span as parent.
    let evs = trace::journal().snapshot();
    let begin = evs
        .iter()
        .find(|e| e.span == remote_span && e.kind == Begin)
        .expect("remote begin journaled");
    assert_eq!(begin.parent, carried.span);
    assert_eq!(begin.trace, carried.trace);
}

#[test]
fn journal_records_begin_end_pairs_with_attrs() {
    let tid = {
        let _recorded = trace::record_trace();
        let mut sp = trace::span("test_attrs");
        sp.attr_u64("rows", 8);
        sp.attr_str("mode", "batch");
        sp.trace_id()
    };
    let evs: Vec<SpanEvent> = trace::journal()
        .snapshot()
        .into_iter()
        .filter(|e| e.trace.0 == tid)
        .collect();
    assert_eq!(evs.len(), 2);
    assert_eq!(evs[0].kind, Begin);
    assert_eq!(evs[1].kind, End);
    assert_eq!(evs[0].span, evs[1].span);
    assert!(evs[0].seq < evs[1].seq);
    assert!(evs[0].t_ns <= evs[1].t_ns, "monotonic timestamps");
    assert!(evs[0].attrs.is_empty(), "attrs ride on the End record");
    assert_eq!(
        evs[1].attrs,
        vec![
            ("rows", AttrValue::U64(8)),
            ("mode", AttrValue::Str("batch"))
        ]
    );
}

#[test]
fn journal_ring_wraps_and_counts_drops() {
    let j = SpanJournal::with_capacity(4);
    for i in 0..10u64 {
        j.record_event(ev(Begin, 1, i + 1, 0, "w", i * 10));
    }
    assert_eq!(j.capacity(), 4);
    assert_eq!(j.recorded(), 10);
    assert_eq!(j.dropped(), 6);
    let snap = j.snapshot();
    assert_eq!(snap.len(), 4);
    // Only the newest events survive, in seq order.
    assert_eq!(snap.iter().map(|e| e.seq).collect::<Vec<_>>(), [6, 7, 8, 9]);
    j.clear();
    assert!(j.snapshot().is_empty());
    assert_eq!(j.recorded(), 10, "clear keeps the sequence counter");
}

/// Three writers lap a 64-record ring every few spans while a reader
/// snapshots and folds it until they finish: every `End` carries exactly
/// its own span's attributes (they encode its writer and index), no seq
/// repeats, and every folded span pairs its own stamps.
#[test]
fn journal_snapshot_never_tears_a_span_under_laps() {
    use std::sync::atomic::{AtomicUsize, Ordering::Relaxed};
    let attrs = |t: u64, i: u64| {
        let parity = ["even", "odd"][i as usize % 2];
        vec![
            ("t", AttrValue::U64(t)),
            ("i", AttrValue::U64(i)),
            ("parity", AttrValue::Str(parity)),
        ]
    };
    let (j, done) = (SpanJournal::with_capacity(64), AtomicUsize::new(0));
    let profiler = crate::profile::Profiler::new();
    std::thread::scope(|s| {
        for t in 1..=3u64 {
            let (j, done) = (&j, &done);
            s.spawn(move || {
                for i in 0..20_000 {
                    let span = t << 32 | i;
                    j.record_event(ev(Begin, t, span, 0, "tear", i));
                    let end = ev(End, t, span, 0, "tear", i + 1);
                    j.record_event(SpanEvent {
                        attrs: attrs(t, i),
                        ..end
                    });
                }
                done.fetch_add(1, Relaxed);
            });
        }
        // Writers stop on their own, so a failed assertion cannot hang.
        let mut rounds = 0;
        while rounds < 2_000 || done.load(Relaxed) < 3 {
            let snap = j.snapshot();
            assert!(
                snap.windows(2).all(|w| w[0].seq < w[1].seq),
                "a seq repeated"
            );
            for e in &snap {
                let (t, i) = (e.span.0 >> 32, e.span.0 & 0xFFFF_FFFF);
                assert_eq!((e.trace.0, e.name), (t, "tear"));
                match e.kind {
                    Begin => assert_eq!((e.t_ns, e.attrs.len()), (i, 0)),
                    End => assert_eq!((e.t_ns, &e.attrs), (i + 1, &attrs(t, i))),
                }
            }
            profiler.fold(&j);
            rounds += 1;
        }
    });
    let nodes = profiler.snapshot().nodes;
    assert!(
        nodes.iter().all(|n| n.total_ns == n.count),
        "stamps of two spans paired"
    );
}

/// A span whose `Attr` records a lap overwrote in part is lost whole: no
/// snapshot shows it with some of its attributes, and the fold counts it.
/// (A record is one cache line at most.)
#[test]
fn journal_lapped_span_is_lost_never_partial() {
    assert!(std::mem::size_of::<trace::Slot>() <= 64);
    let (j, p) = (
        SpanJournal::with_capacity(8),
        crate::profile::Profiler::new(),
    );
    let four: Vec<_> = (0..4).map(|k| ("k", AttrValue::U64(k))).collect();
    let record = |kind, span, a: &[_]| {
        j.record_event(SpanEvent {
            attrs: a.to_vec(),
            ..ev(kind, 1, span, 0, "s", 0)
        })
    };
    record(Begin, 9, &[]);
    record(End, 9, &[]);
    assert_eq!(p.fold(&j), 2);
    // Span 1 fills slots 2..=7: its Begin, four attributes, its End.
    record(Begin, 1, &[]);
    record(End, 1, &four);
    let end_of_1 = || {
        j.snapshot()
            .into_iter()
            .find(|e| e.span.0 == 1 && e.kind == End)
    };
    assert_eq!(end_of_1().map(|e| e.attrs), Some(four));
    // Four Begins wrap onto slots 0..=3: span 1's Begin and first attribute.
    (2..6).for_each(|span| record(Begin, span, &[]));
    assert_eq!(end_of_1(), None, "partial attributes reported");
    assert_eq!((j.snapshot().len(), j.dropped()), (4, 8 - 4));
    p.fold(&j);
    assert_eq!(p.snapshot().lost_spans, 1);
}

/// One duration, three views: a `timed` span's journal stamps, its
/// histogram sample and its stage entry in the cost the profiler folds
/// for its trace are the same number — they come from one pair of clock
/// reads.
#[test]
fn timed_span_reports_one_duration_to_journal_histogram_and_cost() {
    let hist = crate::histogram!("timed_span_test_ns", "one-duration test");
    let sum_before = hist.snapshot().sum;
    let (root_ctx, span_id) = {
        let _recorded = trace::record_trace();
        let root = trace::span("timed_span_test_op");
        let sp = trace::span("timed_span_test_stage").timed(hist);
        std::hint::black_box(0u64);
        (root.context(), sp.context().span)
    };
    let evs = trace::journal().snapshot();
    let stamp = |span, kind| {
        evs.iter()
            .find(|e| e.span == span && e.kind == kind)
            .expect("span journaled")
            .t_ns
    };
    let dur = stamp(span_id, End) - stamp(span_id, Begin);
    let snap = hist.snapshot();
    assert_eq!(snap.count, 1);
    assert_eq!(snap.sum - sum_before, dur, "histogram sample");
    let profiler = crate::profile::Profiler::new();
    profiler.fold(trace::journal());
    let cost = profiler
        .recent(crate::profile::RECENT_CAPACITY)
        .into_iter()
        .find(|c| c.trace_id == root_ctx.trace.0)
        .expect("cost recorded");
    assert_eq!(cost.op, "timed_span_test_op");
    assert_eq!(cost.stage_ns, vec![("timed_span_test_stage", dur)]);
    let root_dur = stamp(root_ctx.span, End) - stamp(root_ctx.span, Begin);
    assert_eq!(cost.total_ns, root_dur, "root duration");
}

#[test]
fn chrome_trace_export_golden() {
    let events = [
        ev(Begin, 7, 1, 0, "wire_round_trip", 1000),
        SpanEvent {
            attrs: vec![
                ("tx_bytes", AttrValue::U64(42)),
                ("op", AttrValue::Str("load")),
            ],
            ..ev(End, 7, 1, 0, "wire_round_trip", 3500)
        },
    ];
    let want = "{\"displayTimeUnit\":\"ns\",\"traceEvents\":[\
        {\"name\":\"wire_round_trip\",\"cat\":\"secndp\",\"ph\":\"B\",\"pid\":1,\
        \"tid\":7,\"ts\":1.000,\"args\":{\"trace\":7,\"span\":1,\"parent\":0}},\
        {\"name\":\"wire_round_trip\",\"cat\":\"secndp\",\"ph\":\"E\",\"pid\":1,\
        \"tid\":7,\"ts\":3.500,\"args\":{\"trace\":7,\"span\":1,\"parent\":0,\
        \"tx_bytes\":42,\"op\":\"load\"}}]}\n";
    assert_eq!(render_chrome_trace(&events), want);
}

#[test]
fn chrome_trace_drops_unpaired_events() {
    let events = [
        // Complete span.
        ev(Begin, 1, 1, 0, "a", 0),
        ev(End, 1, 1, 0, "a", 10),
        // Still-open span: begin without end.
        ev(Begin, 1, 2, 1, "open", 5),
        // Begin overwritten by the ring: end without begin.
        ev(End, 1, 3, 1, "lost", 8),
    ];
    let json = render_chrome_trace(&events);
    assert_eq!(json.matches("\"ph\":\"B\"").count(), 1);
    assert_eq!(json.matches("\"ph\":\"E\"").count(), 1);
    assert!(!json.contains("open") && !json.contains("lost"));
    // And the degenerate case renders a valid empty document.
    assert_eq!(
        render_chrome_trace(&[]),
        "{\"displayTimeUnit\":\"ns\",\"traceEvents\":[]}\n"
    );
}

#[test]
fn tree_export_golden() {
    let events = [
        ev(Begin, 5, 1, 0, "weighted_sum", 1000),
        ev(Begin, 5, 2, 1, "verify", 1200),
        SpanEvent {
            attrs: vec![("rows", AttrValue::U64(3))],
            ..ev(End, 5, 2, 1, "verify", 1700)
        },
        ev(End, 5, 1, 0, "weighted_sum", 2000),
    ];
    let want = "t5\n  weighted_sum [s1] 1000ns\n    verify [s2] 500ns  rows=3\n";
    assert_eq!(render_tree(&events), want);
}

// ─── audit log ──────────────────────────────────────────────────────────

#[test]
fn audit_log_is_bounded_fifo_with_stable_seq() {
    let log: AuditLog = AuditLog::with_capacity(2);
    log.record("verification_failed", 0x1000, 1, 2, "single_s", "tag");
    log.record("malformed_response", 0, 0, 0, "", "short frame");
    log.record("shape_mismatch", 0, 0, 0, "", "bad length");
    assert_eq!(log.len(), 2);
    assert_eq!(log.total(), 3, "total counts evicted events");
    let snap = log.snapshot();
    // Oldest evicted first; sequence numbers survive eviction.
    assert_eq!(snap[0].seq, 1);
    assert_eq!(snap[0].kind, "malformed_response");
    assert_eq!(snap[1].seq, 2);
    assert_eq!(snap[1].kind, "shape_mismatch");
    log.clear();
    assert!(log.is_empty());
    log.record("verification_failed", 0, 0, 0, "single_s", "x");
    assert_eq!(log.snapshot()[0].seq, 3, "seq keeps advancing after clear");
}

#[test]
fn audit_events_stamp_the_current_trace() {
    let log: AuditLog = AuditLog::with_capacity(8);
    let sp = trace::span("test_audit_span");
    log.record("verification_failed", 0x9000, 4, 7, "multi_s", "tamper");
    let e = &log.snapshot()[0];
    assert_eq!(e.trace, sp.context().trace);
    assert_eq!(e.span, sp.context().span);
    assert_eq!((e.table_addr, e.region, e.version), (0x9000, 4, 7));
    assert_eq!(e.scheme, "multi_s");
    drop(sp);
    log.record("malformed_response", 0, 0, 0, "", "r");
    assert_eq!(
        log.snapshot()[1].trace,
        TraceId(0),
        "untraced outside spans"
    );
}

#[test]
fn audit_json_export_golden() {
    let log: AuditLog = AuditLog::with_capacity(4);
    log.record(
        "verification_failed",
        4096,
        1,
        2,
        "single_s",
        "checksum tag mismatch",
    );
    let want = "{\"audit_events\":[{\"seq\":0,\"trace\":0,\"span\":0,\
        \"kind\":\"verification_failed\",\"table_addr\":4096,\"region\":1,\
        \"version\":2,\"scheme\":\"single_s\",\
        \"detail\":\"checksum tag mismatch\"}]}\n";
    assert_eq!(log.render_json(), want);
    assert_eq!(
        AuditLog::<AuditEvent>::with_capacity(1).render_json(),
        "{\"audit_events\":[]}\n"
    );
}
