//! Acceptance tests for the continuous profiler, per-query cost
//! attribution (the slow-query index included), and the SLO/error-budget
//! layer.
//!
//! Three end-to-end claims are pinned here:
//! 1. the folded profile's per-stage self-times sum to the wall time of a
//!    traced `weighted_sum_batch` (within 5%),
//! 2. the slowest query's trace id, taken from `/profilez?top=K`,
//!    resolves to the matching trace at `/tracez?trace=<id>`, and
//! 3. a breached latency objective pushes `/sloz` burn above 1 and
//!    degrades `/healthz` through the registered `slo` component.
#![cfg(feature = "telemetry")]

use std::io::{Read as _, Write as _};
use std::net::{SocketAddr, TcpStream};
use std::sync::{Mutex, MutexGuard};
use std::time::{Duration, Instant};

use secndp::core::device::DelayedNdp;
use secndp::core::wire::RemoteNdp;
use secndp::core::{HonestNdp, SecretKey, TrustedProcessor};
use secndp::telemetry::serve::ServerBuilder;
use secndp::telemetry::slo::{engine, register_slo_health, Objective, SloConfig};
use secndp::telemetry::{profile, trace};

/// The profiler, SLO engine, journal, and registry are process globals:
/// serialize the tests that mutate them.
fn serial() -> MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

struct HttpReply {
    status: u16,
    body: String,
}

/// Minimal HTTP/1.1 GET against the scrape server.
fn http_get(addr: SocketAddr, path: &str) -> HttpReply {
    let mut conn = TcpStream::connect_timeout(&addr, Duration::from_secs(2)).unwrap();
    conn.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
    write!(
        conn,
        "GET {path} HTTP/1.1\r\nHost: secndp-test\r\nConnection: close\r\n\r\n"
    )
    .unwrap();
    let mut raw = Vec::new();
    conn.read_to_end(&mut raw).unwrap();
    let raw = String::from_utf8(raw).unwrap();
    let (head, body) = raw
        .split_once("\r\n\r\n")
        .unwrap_or_else(|| panic!("no header/body split in {raw:?}"));
    let status: u16 = head
        .lines()
        .next()
        .unwrap()
        .split_whitespace()
        .nth(1)
        .unwrap()
        .parse()
        .unwrap();
    HttpReply {
        status,
        body: body.to_string(),
    }
}

/// A processor wired to a delayed honest device over the inline wire
/// backend, with a small published table.
fn wired_setup(
    seed: u64,
    delay: Duration,
) -> (
    TrustedProcessor,
    RemoteNdp<DelayedNdp<HonestNdp>>,
    secndp::core::TableHandle,
) {
    let mut cpu = TrustedProcessor::new(SecretKey::derive_from_seed(seed));
    let mut ndp = RemoteNdp::inline(DelayedNdp::new(HonestNdp::new(), delay));
    let rows = 64;
    let cols = 16;
    let pt: Vec<u32> = (0..rows * cols).map(|x| x as u32 % 97).collect();
    let table = cpu.encrypt_table(&pt, rows, cols, 0x5000).unwrap();
    let handle = cpu.publish(&table, &mut ndp).unwrap();
    (cpu, ndp, handle)
}

/// Acceptance 1: after folding, the self-times of the `weighted_sum_batch`
/// subtree sum exactly to the root's total, and that total matches the
/// externally measured wall time of the call within 5%.
#[test]
fn profile_self_times_sum_to_traced_batch_wall_time() {
    let _g = serial();
    let profiler = profile::profiler();
    // Drain residue from other tests, then zero the nodes so the profile
    // below covers exactly the one traced batch.
    profiler.fold(trace::journal());
    profiler.reset();

    // 300 µs of device latency per query dominates the run, so the 5%
    // tolerance has real slack over scheduler noise.
    let (cpu, ndp, handle) = wired_setup(0x9F0F, Duration::from_micros(300));
    let queries: Vec<(Vec<usize>, Vec<u32>)> = (0..32)
        .map(|q| (vec![q % 64, (q * 7 + 1) % 64], vec![1u32, 2]))
        .collect();
    let t0 = Instant::now();
    cpu.weighted_sum_batch(&handle, &ndp, &queries, true)
        .unwrap();
    let wall_ns = t0.elapsed().as_nanos() as u64;

    profiler.fold(trace::journal());
    let snap = profiler.snapshot();
    let root = snap
        .nodes
        .iter()
        .find(|n| n.stack == "weighted_sum_batch")
        .expect("batch root missing from profile");
    assert_eq!(root.count, 1, "exactly one traced batch expected");
    assert_eq!(snap.lost_spans, 0, "journal must not have wrapped");

    // The fold algorithm guarantees subtree self-times sum to the root
    // total exactly (self = total − children, telescoping).
    let subtree_self: i64 = snap
        .nodes
        .iter()
        .filter(|n| n.stack == "weighted_sum_batch" || n.stack.starts_with("weighted_sum_batch;"))
        .map(|n| n.self_ns)
        .sum();
    assert_eq!(
        subtree_self, root.total_ns as i64,
        "subtree self-times must telescope to the root total"
    );

    // The stages of Figure 4 all appear under the batch root.
    for stage in ["ndp_compute", "decrypt", "verify", "pad_gen"] {
        assert!(
            snap.nodes
                .iter()
                .any(|n| n.stack.starts_with("weighted_sum_batch;") && n.stack.contains(stage)),
            "stage {stage} missing from profile: {:?}",
            snap.nodes.iter().map(|n| &n.stack).collect::<Vec<_>>()
        );
    }

    // And the root total matches the measured wall time within 5%.
    let diff = wall_ns.abs_diff(root.total_ns) as f64;
    assert!(
        diff / wall_ns as f64 <= 0.05,
        "profiled total {} ns vs wall {} ns differs by more than 5%",
        root.total_ns,
        wall_ns
    );
}

/// Acceptance 2: the cost ledger's top-K-by-latency digest is the index
/// from a slow query to its trace: `/profilez?top=K` lists the slow query
/// first, with its trace id and its stages, and `/tracez?trace=<id>`
/// resolves that id to the recorded spans. (The test keeps the name it had
/// when histogram exemplars were a second such index.)
#[test]
fn tail_exemplar_trace_resolves_in_tracez() {
    let _g = serial();
    let server = ServerBuilder::new(secndp::telemetry::global())
        .bind("127.0.0.1:0")
        .unwrap();
    let addr = server.local_addr();

    // One deliberately slow round trip: 20 ms dwarfs every other query in
    // this process, so it heads the digest.
    profile::ledger().clear();
    let (cpu, ndp, handle) = wired_setup(0xE8E8, Duration::from_millis(20));
    cpu.weighted_sum(&handle, &ndp, &[1, 2], &[1u32, 1], true)
        .unwrap();

    let top = http_get(addr, "/profilez?top=1");
    assert_eq!(top.status, 200);
    let field = |key: &str| -> u64 {
        top.body
            .split(&format!("\"{key}\":"))
            .nth(1)
            .and_then(|s| s.split([',', '}']).next())
            .and_then(|s| s.parse().ok())
            .unwrap_or_else(|| panic!("{key} missing from /profilez?top=1: {}", top.body))
    };
    assert!(
        field("total_ns") >= 20_000_000,
        "the slowest query should be the 20 ms one: {}",
        top.body
    );
    assert!(
        field("wire_round_trip") >= 20_000_000,
        "the digest must say where the time went: {}",
        top.body
    );
    let tid = format!("t{}", field("trace_id"));

    // The digest's trace id must resolve to the recorded trace.
    let tracez = http_get(addr, &format!("/tracez?trace={tid}"));
    assert_eq!(tracez.status, 200);
    assert!(
        tracez.body.contains(&tid),
        "trace {tid} not found at /tracez: {:.300}",
        tracez.body
    );
    assert!(
        tracez.body.contains("wire_round_trip"),
        "resolved trace must contain the wire round-trip span: {:.300}",
        tracez.body
    );
    server.shutdown();
}

/// Acceptance 3: an impossible latency objective (1 ns threshold) burns
/// its error budget, flips `/sloz` to burn > 1 / breached, and degrades
/// `/healthz` via the `slo` component.
#[test]
fn latency_slo_breach_flips_sloz_and_degrades_healthz() {
    let _g = serial();
    let slo = engine();
    slo.clear();
    // Hour-wide windows: the baseline below stays inside both windows for
    // the whole test regardless of process uptime.
    slo.configure(SloConfig {
        fast_window_ms: 3_600_000,
        slow_window_ms: 3_600_000,
    });
    slo.add(Objective::Latency {
        name: "impossible_rtt".into(),
        metric: "secndp_wire_round_trip_ns".into(),
        threshold_ns: 1,
        target: 0.99,
    });
    register_slo_health();
    let server = ServerBuilder::new(secndp::telemetry::global())
        .bind("127.0.0.1:0")
        .unwrap();
    let addr = server.local_addr();

    // Baseline sample, then traffic that cannot meet a 1 ns bound.
    slo.sample(secndp::telemetry::global());
    std::thread::sleep(Duration::from_millis(5));
    let (cpu, ndp, handle) = wired_setup(0x510, Duration::ZERO);
    for q in 0..8 {
        cpu.weighted_sum(&handle, &ndp, &[q % 64], &[1u32], true)
            .unwrap();
    }

    // `/sloz` takes its own fresh sample, so the burn is live.
    let sloz = http_get(addr, "/sloz");
    assert_eq!(sloz.status, 200);
    assert!(
        sloz.body.contains("\"name\":\"impossible_rtt\""),
        "{}",
        sloz.body
    );
    assert!(
        sloz.body.contains("\"breached\":true"),
        "objective must be breached: {}",
        sloz.body
    );
    let burn: f64 = sloz
        .body
        .split("\"burn_fast\":")
        .nth(1)
        .and_then(|s| s.split(',').next())
        .and_then(|s| s.parse().ok())
        .expect("burn_fast missing");
    assert!(burn > 1.0, "burn rate must exceed 1, got {burn}");

    // The registered `slo` health component degrades the process verdict.
    let health = http_get(addr, "/healthz");
    assert_eq!(health.status, 200, "degraded is still scrapeable");
    assert!(
        health.body.contains("\"status\":\"degraded\""),
        "breach must degrade /healthz: {}",
        health.body
    );
    assert!(
        health.body.contains("error budget burning") && health.body.contains("impossible_rtt"),
        "degradation must blame the burning objective: {}",
        health.body
    );

    // Clean up: later tests must not inherit the breached objective.
    slo.clear();
    server.shutdown();
}

/// Satellite: query parameters are validated on the live server — bad
/// values 400 with a reason, good values shape the response.
#[test]
fn query_params_validated_on_live_server() {
    let _g = serial();
    let server = ServerBuilder::new(secndp::telemetry::global())
        .bind("127.0.0.1:0")
        .unwrap();
    let addr = server.local_addr();

    for bad in [
        "/tracez?trace=banana",
        "/tracez?limit=-3",
        "/tracez?trace=t0",
        "/metrics.json?limit=zz",
        "/profilez?top=many",
        "/profilez?format=xml",
    ] {
        let r = http_get(addr, bad);
        assert_eq!(r.status, 400, "{bad} must 400, body: {}", r.body);
        assert!(
            r.body.contains("malformed query parameter"),
            "{bad} must explain itself: {}",
            r.body
        );
    }

    let r = http_get(addr, "/metrics.json?limit=1");
    assert_eq!(r.status, 200);
    assert!(r.body.trim_end().starts_with('{') && r.body.trim_end().ends_with('}'));
    let r = http_get(addr, "/profilez?top=2");
    assert_eq!(r.status, 200);
    assert!(r.body.contains("\"top\":"), "{}", r.body);
    let r = http_get(addr, "/profilez?format=json");
    assert_eq!(r.status, 200);
    assert!(r.body.contains("\"nodes\":"), "{}", r.body);
    let r = http_get(addr, "/tracez?limit=1");
    assert_eq!(r.status, 200);
    server.shutdown();
}

/// Satellite: a verified wire query records a per-query cost with stage
/// attribution, AES block counts, and wire bytes — retrievable from the
/// ledger digest with its trace id.
#[test]
fn query_cost_ledger_attributes_wire_query() {
    let _g = serial();
    let before = profile::ledger().recorded();
    let (cpu, ndp, handle) = wired_setup(0xC057, Duration::ZERO);
    cpu.weighted_sum(&handle, &ndp, &[3, 4, 5], &[1u32, 2, 3], true)
        .unwrap();
    assert!(
        profile::ledger().recorded() > before,
        "verified query must record a cost"
    );
    let recent = profile::ledger().recent(16);
    let cost = recent
        .iter()
        .rev()
        .find(|c| c.op == "weighted_sum")
        .expect("weighted_sum cost missing");
    assert!(cost.total_ns > 0);
    // Every timed span under the query bills its stage; `ndp_compute` is
    // the time spent waiting on the device.
    for stage in [
        "pad_gen",
        "ndp_compute",
        "wire_round_trip",
        "decrypt",
        "verify",
    ] {
        assert!(
            cost.stage_ns.iter().any(|(s, ns)| *s == stage && *ns > 0),
            "{stage} stage missing: {:?}",
            cost.stage_ns
        );
    }
    assert!(
        cost.aes_blocks_generated + cost.aes_blocks_cached > 0,
        "AES block accounting missing"
    );
    assert!(cost.wire_tx_bytes > 0 && cost.wire_rx_bytes > 0);
    assert_ne!(cost.trace_id, 0, "cost must carry the query's trace id");
}
