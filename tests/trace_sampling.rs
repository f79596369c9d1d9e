//! Root-decided trace recording: one trace in `RECORD_ONE_IN` is recorded,
//! decided from its id alone. A span of an unrecorded trace still takes
//! its ids and is the thread's current context, so the wire header and
//! the audit log carry it, but it reads no clock, journals nothing and
//! feeds no stage histogram. The processor and a server behind a socket
//! agree on the decision from the id the frame header carries.
#![cfg(feature = "telemetry")]

use std::sync::{Mutex, MutexGuard};

use secndp::core::device::{Tamper, TamperingNdp};
use secndp::core::net::TcpEndpoint;
use secndp::core::wire::RemoteNdp;
use secndp::core::{
    EndpointConfig, Error, HonestNdp, NdpDevice, SecretKey, TableHandle, TrustedProcessor,
};
use secndp::telemetry::audit::audit_log;
use secndp::telemetry::trace::{self, SpanEvent, TraceId};
use secndp::telemetry::{global, Value};

const ROWS: usize = 128;
const COLS: usize = 16;
const ADDR: u64 = 0x7000;

/// The journal and the registry are process-wide: each test here counts
/// what one query adds to them, so they run one at a time.
fn serial() -> MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

/// Opens a root span whose trace is not recorded (the recorded ids a loop
/// passes over are journaled before the caller counts anything).
fn unrecorded_root() -> trace::Span {
    loop {
        let root = trace::span("unrecorded_root");
        if !TraceId(root.trace_id()).is_recorded() {
            return root;
        }
    }
}

/// Samples observed so far across every `secndp_stage_latency_ns` stage.
fn stage_samples() -> u64 {
    let snap = global().snapshot();
    let stages = snap
        .metrics
        .iter()
        .filter(|m| m.name == "secndp_stage_latency_ns");
    stages
        .map(|m| match &m.value {
            Value::Histogram(h) => h.count,
            _ => 0,
        })
        .sum()
}

/// The journal's events of one trace.
fn events_of(tid: u64) -> Vec<SpanEvent> {
    let events = trace::journal().snapshot().into_iter();
    events.filter(|e| e.trace.0 == tid).collect()
}

/// A processor with a published `ROWS × COLS` table on `ndp`.
fn published<D: NdpDevice>(seed: u64, ndp: &mut D) -> (TrustedProcessor, TableHandle) {
    let mut cpu = TrustedProcessor::new(SecretKey::derive_from_seed(seed));
    let pt: Vec<u32> = (0..ROWS * COLS).map(|x| x as u32 % 251).collect();
    let table = cpu.encrypt_table(&pt, ROWS, COLS, ADDR).unwrap();
    let handle = cpu.publish(&table, ndp).unwrap();
    (cpu, handle)
}

/// One verified PF-80 weighted sum.
fn pf80<D: NdpDevice>(cpu: &TrustedProcessor, handle: &TableHandle, ndp: &D) {
    let idx: Vec<usize> = (0..80).map(|k| (k * 37) % ROWS).collect();
    let weights: Vec<u32> = (1..=80).collect();
    cpu.weighted_sum(handle, ndp, &idx, &weights, true).unwrap();
}

#[test]
fn an_unrecorded_query_journals_nothing_and_a_recorded_one_its_records() {
    let _g = serial();
    let mut ndp = RemoteNdp::inline(HonestNdp::new());
    let (cpu, handle) = published(0x5A3F, &mut ndp);

    let root = unrecorded_root();
    let tid = root.trace_id();
    let (events, samples) = (trace::journal().recorded(), stage_samples());
    pf80(&cpu, &handle, &ndp);
    assert_eq!(trace::current().trace.0, tid, "the query ran in the trace");
    assert_eq!(trace::journal().recorded(), events, "a journal record");
    assert_eq!(stage_samples(), samples, "a stage histogram sample");
    drop(root);
    assert!(events_of(tid).is_empty());

    let recorded = trace::record_trace();
    let tid = recorded.trace_id();
    assert!(TraceId(tid).is_recorded());
    let (events, samples) = (trace::journal().recorded(), stage_samples());
    pf80(&cpu, &handle, &ndp);
    drop(recorded);
    // 9 spans: a Begin and an End each, and 6 attributes on the Ends.
    let journaled = events_of(tid);
    let attrs: usize = journaled.iter().map(|e| e.attrs.len()).sum();
    assert_eq!(journaled.len(), 18);
    assert_eq!(journaled.len() + attrs, 24, "records of one PF-80 query");
    assert_eq!(trace::journal().recorded() - events, 18);
    // ndp_compute, decrypt, pad_gen and verify.
    assert_eq!(stage_samples() - samples, 4);
}

#[test]
fn a_tampered_reply_in_an_unrecorded_trace_is_still_audited() {
    let _g = serial();
    let flip = || TamperingNdp::new(Tamper::FlipResultBit { element: 0, bit: 3 });
    let tcp = TcpEndpoint::self_hosted(flip(), EndpointConfig::default()).expect("loopback bind");
    for (link, mut evil) in [
        ("inline", RemoteNdp::inline(flip())),
        ("tcp", RemoteNdp::tcp_backed(tcp)),
    ] {
        let (cpu, handle) = published(0xA0D1, &mut evil);
        let root = unrecorded_root();
        let tid = root.trace_id();
        let err = cpu
            .weighted_sum(&handle, &evil, &[0, 1], &[1u32, 1], true)
            .unwrap_err();
        drop(root);
        assert!(
            matches!(err, Error::VerificationFailed { table_addr: ADDR }),
            "{link}: {err:?}"
        );
        let ev = audit_log()
            .snapshot()
            .into_iter()
            .find(|e| e.trace.0 == tid)
            .unwrap_or_else(|| panic!("{link}: no audit event stamped with the query's trace id"));
        assert_eq!(ev.kind, "verification_failed", "{link}");
        assert_eq!(ev.table_addr, ADDR, "{link}");
        assert!(ev.span.0 != 0, "{link}: recorded inside an open span");
        assert!(events_of(tid).is_empty(), "{link}: journaled");
    }
}

#[test]
fn the_server_behind_a_socket_records_what_the_caller_records() {
    let _g = serial();
    let tcp = TcpEndpoint::self_hosted(HonestNdp::new(), EndpointConfig::default())
        .expect("loopback bind");
    let mut ndp = RemoteNdp::<HonestNdp>::tcp_backed(tcp);
    let (cpu, handle) = published(0x50CC, &mut ndp);
    let serves = |tid| {
        let events = events_of(tid);
        events
            .iter()
            .filter(|e| e.name == trace::names::NDP_SERVE)
            .count()
    };

    let recorded = trace::record_trace();
    let tid = recorded.trace_id();
    pf80(&cpu, &handle, &ndp);
    drop(recorded);
    assert_eq!(serves(tid), 2, "the server's ndp_serve Begin and End");

    let root = unrecorded_root();
    let tid = root.trace_id();
    pf80(&cpu, &handle, &ndp);
    drop(root);
    assert_eq!(serves(tid), 0, "the server journaled an unrecorded trace");
}
