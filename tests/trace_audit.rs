//! Acceptance tests for per-query distributed tracing: one batched query
//! against the wire-attached device must journal a single *connected*
//! span tree (processor- and device-side spans share the trace id carried
//! in the traced wire frames), exportable as well-formed Chrome
//! `trace_event` JSON — and a tampered response must leave a security
//! audit record stamped with that same trace id. Both hold on each link:
//! served on the caller's thread, and across a loopback socket, where the
//! device side runs on a server thread and only the frame carries the
//! trace.
#![cfg(feature = "telemetry")]

use std::collections::{HashMap, HashSet};

use secndp::core::device::{Tamper, TamperingNdp};
use secndp::core::net::TcpEndpoint;
use secndp::core::wire::RemoteNdp;
use secndp::core::{
    AsyncEndpoint, EndpointConfig, Error, HonestNdp, NdpDevice, SecretKey, TransportConfig,
    TrustedProcessor,
};
use secndp::telemetry::audit::audit_log;
use secndp::telemetry::trace::{self, SpanEvent, SpanEventKind};

/// `dev()` behind each link, named: served on the caller's thread, and
/// over a loopback socket to a private `NetServer`.
fn each_link<D: NdpDevice + Send + 'static>(
    dev: impl Fn() -> D,
) -> [(&'static str, RemoteNdp<D>); 2] {
    let tcp = TcpEndpoint::self_hosted(dev(), EndpointConfig::default()).expect("loopback bind");
    [
        ("inline", RemoteNdp::inline(dev())),
        ("tcp", RemoteNdp::tcp_backed(tcp)),
    ]
}

/// Runs `f` under a fresh explicit root span of a recorded trace and
/// returns the trace id it pinned plus the journal events belonging to
/// that trace.
fn traced<R>(f: impl FnOnce() -> R) -> (u64, R, Vec<SpanEvent>) {
    let recorded = trace::record_trace();
    let root = trace::span("test_query_root");
    let tid = root.trace_id();
    let out = f();
    drop(root);
    drop(recorded);
    let events: Vec<SpanEvent> = trace::journal()
        .snapshot()
        .into_iter()
        .filter(|e| e.trace.0 == tid)
        .collect();
    (tid, out, events)
}

#[test]
fn batched_query_produces_one_connected_span_tree() {
    for (link, mut ndp) in each_link(HonestNdp::new) {
        let (tid, _, events) = traced(|| {
            let mut cpu = TrustedProcessor::new(SecretKey::derive_from_seed(0x7AC6));
            let rows = 16;
            let cols = 8;
            let pt: Vec<u32> = (0..rows * cols).map(|x| x as u32).collect();
            let table = cpu.encrypt_table(&pt, rows, cols, 0x4000).unwrap();
            let handle = cpu.publish(&table, &mut ndp).unwrap();
            let queries: Vec<(Vec<usize>, Vec<u32>)> =
                (0..3).map(|q| (vec![q, q + 4], vec![1u32, 2])).collect();
            let res = cpu
                .weighted_sum_batch(&handle, &ndp, &queries, true)
                .unwrap();
            assert_eq!(res.len(), 3);
        });

        // Every begin has a matching end within the trace.
        let begins: HashMap<u64, &SpanEvent> = events
            .iter()
            .filter(|e| e.kind == SpanEventKind::Begin)
            .map(|e| (e.span.0, e))
            .collect();
        let ends: HashSet<u64> = events
            .iter()
            .filter(|e| e.kind == SpanEventKind::End)
            .map(|e| e.span.0)
            .collect();
        assert!(!begins.is_empty(), "{link}");
        assert_eq!(
            begins.keys().copied().collect::<HashSet<_>>(),
            ends,
            "{link}: every span of the trace is complete"
        );

        // Connectedness: exactly one root, and every other span's parent is a
        // span of the same trace — the processor- and device-side timelines
        // form ONE tree even though the device only saw wire frames.
        let ids: HashSet<u64> = begins.keys().copied().collect();
        let roots: Vec<&&SpanEvent> = begins.values().filter(|e| e.parent.0 == 0).collect();
        assert_eq!(roots.len(), 1, "{link}: single root span");
        assert_eq!(roots[0].name, "test_query_root");
        for e in begins.values() {
            assert!(
                e.parent.0 == 0 || ids.contains(&e.parent.0),
                "{link}: span {} ({}) has out-of-trace parent {}",
                e.span,
                e.name,
                e.parent
            );
        }

        // Both sides of the trust boundary are present in the same trace.
        let names: HashSet<&str> = begins.values().map(|e| e.name).collect();
        for want in [
            "weighted_sum_batch",
            trace::names::PAD_GEN,
            trace::names::WIRE_ROUND_TRIP,
            trace::names::WIRE_ENCODE,
            trace::names::NDP_SERVE,
            "device_weighted_sum",
            trace::names::NDP_COMPUTE,
            trace::names::VERIFY,
            trace::names::DECRYPT,
        ] {
            assert!(
                names.contains(want),
                "{link}: missing span {want:?} in {names:?}"
            );
        }

        // The device-side dispatch span hangs under the processor-side wire
        // span — the stitch the frame's trace header exists for.
        let serve = begins
            .values()
            .find(|e| e.name == trace::names::NDP_SERVE)
            .unwrap();
        assert_eq!(
            begins[&serve.parent.0].name,
            trace::names::WIRE_ROUND_TRIP,
            "{link}: ndp_serve stitches under wire_round_trip"
        );

        // The filtered trace exports as well-formed Chrome trace JSON.
        let json = trace::render_chrome_trace(&events);
        assert!(json.starts_with("{\"displayTimeUnit\":\"ns\",\"traceEvents\":["));
        assert!(json.ends_with("]}\n"));
        let b = json.matches("\"ph\":\"B\"").count();
        let e = json.matches("\"ph\":\"E\"").count();
        assert_eq!(b, e, "{link}: every B has a matching E");
        assert_eq!(b, begins.len());
        assert!(json.contains(&format!("\"tid\":{tid},")));
        assert!(json.contains(&format!("\"trace\":{tid},")));
    }
}

/// The OTP PU regenerates every pad, once per query: each verified query
/// journals exactly one `pad_gen` span, nested under its `decrypt` span and
/// carrying the blocks it encrypted, and no pad-cache probe span exists.
#[test]
fn pad_gen_nests_under_decrypt_and_no_pad_cache_span_exists() {
    const QUERIES: usize = 12;
    let (_tid, _, events) = traced(|| {
        let mut cpu = TrustedProcessor::new(SecretKey::derive_from_seed(0x21FF));
        let mut ndp = HonestNdp::new();
        let pt: Vec<u32> = (0..64 * 8).map(|x| (x % 5) as u32).collect();
        let table = cpu.encrypt_table(&pt, 64, 8, 0x8000).unwrap();
        let handle = cpu.publish(&table, &mut ndp).unwrap();
        for q in 0..QUERIES {
            // The same hot rows every time: nothing is remembered anyway.
            let idx: Vec<usize> = (0..32).map(|k| (q + k * k) % 4).collect();
            let weights = vec![1u32; idx.len()];
            cpu.weighted_sum(&handle, &ndp, &idx, &weights, true)
                .unwrap();
        }
    });

    let begins: HashMap<u64, &SpanEvent> = events
        .iter()
        .filter(|e| e.kind == SpanEventKind::Begin)
        .map(|e| (e.span.0, e))
        .collect();
    let pad_gens: Vec<&&SpanEvent> = begins
        .values()
        .filter(|e| e.name == trace::names::PAD_GEN)
        .collect();
    assert_eq!(pad_gens.len(), QUERIES, "one pad_gen span per query");
    let mut parents = HashSet::new();
    for e in &pad_gens {
        assert_eq!(
            begins[&e.parent.0].name,
            trace::names::DECRYPT,
            "pad_gen must nest under decrypt"
        );
        assert!(
            parents.insert(e.parent.0),
            "two pad_gen spans in one decrypt"
        );
    }
    // 32 rows × (2 data blocks + 1 tag block) per query, on the span: the
    // checksum secret is the table version's held verification key, made
    // with the table, not a block of any query.
    for end in events
        .iter()
        .filter(|e| e.kind == SpanEventKind::End && e.name == trace::names::PAD_GEN)
    {
        let blocks = end.attrs.iter().find(|(k, _)| *k == "blocks");
        assert!(
            matches!(blocks, Some((_, trace::AttrValue::U64(96)))),
            "{:?}",
            end.attrs
        );
    }
    assert!(
        !events.iter().any(|e| e.name == "pad_cache"),
        "a pad-cache probe span was journaled"
    );
    let json = trace::render_chrome_trace(&events);
    assert!(json.contains("\"name\":\"pad_gen\""));
    assert!(!json.contains("\"name\":\"pad_cache\""));
}

#[test]
fn tampered_response_leaves_audit_event_in_the_same_trace() {
    let flip = || TamperingNdp::new(Tamper::FlipResultBit { element: 0, bit: 3 });
    for (link, mut evil) in each_link(flip) {
        let (tid, handle_info, _) = traced(|| {
            let mut cpu = TrustedProcessor::new(SecretKey::derive_from_seed(0xE71));
            let pt: Vec<u32> = (0..64).collect();
            let table = cpu.encrypt_table(&pt, 8, 8, 0x6000).unwrap();
            let handle = cpu.publish(&table, &mut evil).unwrap();
            let err = cpu
                .weighted_sum(&handle, &evil, &[0, 1], &[1u32, 1], true)
                .unwrap_err();
            assert!(
                matches!(err, Error::VerificationFailed { table_addr: 0x6000 }),
                "{link}: {err:?}"
            );
            (handle.region().0, handle.version())
        });
        let (region, version) = handle_info;

        let ev = audit_log()
            .snapshot()
            .into_iter()
            .find(|e| e.trace.0 == tid)
            .unwrap_or_else(|| panic!("{link}: no audit event stamped with the query's trace id"));
        assert_eq!(ev.kind, "verification_failed");
        assert_eq!(ev.table_addr, 0x6000);
        assert_eq!(ev.region, region);
        assert_eq!(ev.version, version);
        assert_eq!(ev.scheme, "single_s");
        assert!(ev.span.0 != 0, "recorded inside an open span");
    }
}

/// The journal is sized to hold one whole pipelined batch of the paper's
/// headline shape (256 PF-80 queries over two ranks): every caller-side
/// and rank-side span of that trace is in the snapshot, with its
/// attributes, and the tree nests each rank's `ndp_serve` under the
/// caller's `wire_round_trip`.
#[test]
fn a_whole_batch_trace_fits_the_journal() {
    const QUERIES: usize = 256;
    const ROWS: usize = 1024;
    const COLS: usize = 32;
    let mut cpu = TrustedProcessor::new(SecretKey::derive_from_seed(0xB256));
    let pt: Vec<u32> = (0..ROWS * COLS).map(|x| x as u32).collect();
    let table = cpu.encrypt_table(&pt, ROWS, COLS, 0x6000).unwrap();
    let mut ep = AsyncEndpoint::new(
        vec![HonestNdp::new(), HonestNdp::new()],
        TransportConfig {
            ranks: 2,
            ..TransportConfig::default()
        },
    );
    let handle = cpu.publish(&table, &mut ep).unwrap();
    let queries: Vec<(Vec<usize>, Vec<u32>)> = (0..QUERIES)
        .map(|q| {
            let idx = (0..80).map(|k| (q * 131 + k * 17) % ROWS).collect();
            (idx, (1..=80).collect())
        })
        .collect();
    let tid = {
        let _recorded = trace::record_trace();
        let batch = trace::span("test_batch_root");
        let out = cpu
            .weighted_sum_batch_pipelined(&handle, &ep, &queries, true)
            .unwrap();
        assert_eq!(out.len(), QUERIES);
        batch.trace_id()
    };
    let events: Vec<SpanEvent> = trace::journal()
        .snapshot()
        .into_iter()
        .filter(|e| e.trace.0 == tid)
        .collect();
    let spans = |kind| -> HashMap<u64, &SpanEvent> {
        events
            .iter()
            .filter(|e| e.kind == kind)
            .map(|e| (e.span.0, e))
            .collect()
    };
    let (begins, ends) = (spans(SpanEventKind::Begin), spans(SpanEventKind::End));
    let ids = |m: &HashMap<u64, &SpanEvent>| m.keys().copied().collect::<HashSet<_>>();
    assert_eq!(
        ids(&begins),
        ids(&ends),
        "a span of the trace is incomplete"
    );
    let count = |name| ends.values().filter(|e| e.name == name).count();
    assert!(begins.values().any(|e| e.name == "test_batch_root"));
    for name in [
        trace::names::PAD_GEN,
        trace::names::DECRYPT,
        trace::names::VERIFY,
        trace::names::WIRE_ENCODE,
        trace::names::NDP_SERVE,
        "device_weighted_sum",
    ] {
        assert_eq!(count(name), QUERIES, "{name} spans");
    }
    let attrs_of = |name| {
        ends.values()
            .filter(move |e| e.name == name)
            .map(|e| e.attrs.iter().map(|(k, _)| *k).collect::<Vec<_>>())
    };
    assert!(attrs_of(trace::names::PAD_GEN).all(|a| a == ["blocks"]));
    assert!(attrs_of(trace::names::NDP_SERVE).all(|a| a == ["op"]));
    assert!(attrs_of("device_weighted_sum").all(|a| a == ["table_addr", "rows"]));
    let root = &ends
        .values()
        .find(|e| e.name == "weighted_sum_batch")
        .unwrap()
        .attrs;
    assert_eq!(
        root[..],
        [
            ("base_addr", trace::AttrValue::U64(0x6000)),
            ("queries", trace::AttrValue::U64(QUERIES as u64)),
            ("ranks", trace::AttrValue::U64(2)),
        ]
    );
    // One round trip carries the packet; each rank's serve nests under it.
    let tree = trace::render_tree(&events);
    let depth = |l: &str| l.len() - l.trim_start().len();
    let round_trip = tree
        .lines()
        .position(|l| l.trim_start().starts_with("wire_round_trip "))
        .expect("no wire_round_trip in the tree");
    let under = tree.lines().skip(round_trip + 1);
    let d = depth(tree.lines().nth(round_trip).unwrap());
    let served = under
        .take_while(|l| depth(l) > d)
        .filter(|l| depth(l) == d + 2 && l.trim_start().starts_with("ndp_serve "))
        .count();
    assert_eq!(served, QUERIES, "{tree}");
}
