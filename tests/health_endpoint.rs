//! Acceptance tests for the live health subsystem: the
//! `/metrics` + `/healthz` scrape server, component health scoring fed by
//! transport vitals and protocol counters, and the flight recorder a
//! worse verdict triggers.
//!
//! The paper's threat model makes these *security* signals: a burst of
//! verification failures is indistinguishable from active tampering
//! (§V-C), so the health verdict must catch it and capture forensics.
#![cfg(feature = "telemetry")]

use std::io::{Read as _, Write as _};
use std::net::{SocketAddr, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::{Duration, Instant};

use secndp::core::device::{Tamper, TamperingNdp};
use secndp::core::{
    Error, HonestNdp, NdpDevice, NetConfig, NetServer, SecretKey, TcpEndpoint, TrustedProcessor,
};
use secndp::telemetry::health::{monitor, HealthConfig};
use secndp::telemetry::serve::{ServerBuilder, CONTENT_TYPE_PROMETHEUS};
use secndp::telemetry::trace;
use secndp_testkit::DelayedNdp;

/// The scrape server, health monitor, and metric registry are process
/// globals: serialize the tests that mutate them.
fn serial() -> MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

/// Flushes cross-test residue out of the monitor's check window:
/// two fresh samples make every `counter_delta` over a window of 2 zero.
fn reset_health_window() {
    let m = monitor();
    m.configure(HealthConfig {
        interval: Duration::from_millis(50),
        window: 2,
        flight_dir: std::env::temp_dir(),
    });
    m.sample(secndp::telemetry::global());
    m.sample(secndp::telemetry::global());
}

struct HttpReply {
    status: u16,
    content_type: String,
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
    parse_response(&String::from_utf8(raw).unwrap())
}

fn parse_response(raw: &str) -> HttpReply {
    let (head, body) = raw
        .split_once("\r\n\r\n")
        .unwrap_or_else(|| panic!("no header/body split in {raw:?}"));
    let mut lines = head.lines();
    let status_line = lines.next().unwrap();
    assert!(
        status_line.starts_with("HTTP/1.1 "),
        "bad status line {status_line:?}"
    );
    let status: u16 = status_line
        .split_whitespace()
        .nth(1)
        .unwrap()
        .parse()
        .unwrap();
    let content_type = lines
        .filter_map(|l| l.split_once(':'))
        .find(|(k, _)| k.eq_ignore_ascii_case("content-type"))
        .map(|(_, v)| v.trim().to_string())
        .unwrap_or_default();
    HttpReply {
        status,
        content_type,
        body: body.to_string(),
    }
}

fn fresh_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("secndp-{tag}-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// A socket rank that holds frames past the request deadline must flip
/// `/healthz` from ok to degraded — the endpoint's `net-epN` component
/// blaming the timeouts in its window — and recover once the window has
/// slid past them. The query itself is masked by a retry onto the other
/// rank.
#[test]
fn stalled_transport_rank_degrades_healthz_and_recovers() {
    let _g = serial();
    reset_health_window();
    let m = monitor();
    let loaded = || {
        let mut dev = HonestNdp::new();
        dev.load(0x1, vec![0u8; 64], 16, None).unwrap();
        dev
    };
    // Two ranks, the first holding every read 800 ms against a 200 ms
    // deadline.
    let slow = DelayedNdp::new(loaded(), Duration::from_millis(800));
    let servers = [
        NetServer::host_device(slow, "127.0.0.1:0").unwrap(),
        NetServer::host_device(loaded(), "127.0.0.1:0").unwrap(),
    ];
    let ep = TcpEndpoint::connect(NetConfig {
        addrs: servers.iter().map(|s| s.local_addr().to_string()).collect(),
        timeout: Duration::from_millis(200),
        max_retries: 1,
        ..NetConfig::default()
    })
    .unwrap();
    let component = ep.health_component().to_string();
    assert!(component.starts_with("net-ep"), "{component}");
    let server = ServerBuilder::new(secndp::telemetry::global())
        .bind("127.0.0.1:0")
        .unwrap();
    let addr = server.local_addr();

    let healthy = http_get(addr, "/healthz");
    assert_eq!(healthy.status, 200, "{}", healthy.body);
    assert!(
        healthy.body.contains("\"status\":\"ok\""),
        "expected ok before the stall: {}",
        healthy.body
    );
    assert!(
        healthy.body.contains(&component),
        "transport component must be scored: {}",
        healthy.body
    );

    // Round-robin sends the read to the slow rank first; it times out and
    // the retry lands on the live one.
    assert_eq!(ep.read_row(0x1, 0).unwrap(), vec![0u8; 16]);
    m.sample(secndp::telemetry::global());
    let degraded = http_get(addr, "/healthz");
    // Degraded is still scrapeable (200); only Failing returns 503.
    assert_eq!(degraded.status, 200);
    assert!(
        degraded.body.contains("\"status\":\"degraded\""),
        "a stalled rank never degraded /healthz: {}",
        degraded.body
    );
    let blamed = format!(
        "\"component\":\"{component}\",\"status\":\"degraded\",\"reason\":\"1 request timeout(s)"
    );
    assert!(
        degraded.body.contains(&blamed),
        "degradation must blame the endpoint's timeouts: {}",
        degraded.body
    );

    // Two samples with no timeout between them slide the window past it.
    m.sample(secndp::telemetry::global());
    m.sample(secndp::telemetry::global());
    let recovered = http_get(addr, "/healthz");
    assert!(
        recovered.body.contains("\"status\":\"ok\""),
        "health must recover once the window slides: {}",
        recovered.body
    );
    server.shutdown();
}

/// A burst of tampered NDP replies must degrade the `protocol` component
/// at the next sample and so dump a flight-recorder artifact carrying the
/// counter spike, the matching audit events, and their trace ids.
#[test]
fn tamper_burst_triggers_flight_dump_with_forensics() {
    let _g = serial();
    let dir = fresh_dir("flight");
    let m = monitor();
    m.configure(HealthConfig {
        interval: Duration::from_millis(50),
        window: 4,
        flight_dir: dir.clone(),
    });
    let reg = secndp::telemetry::global();
    // Clean baseline window so only the burst below registers as a delta.
    m.sample(reg);
    m.sample(reg);
    m.sample(reg);
    m.sample(reg);
    let before = m.last_flight_dump();

    let root = trace::span("tamper_burst_acceptance");
    let tid = root.trace_id();
    let mut cpu = TrustedProcessor::new(SecretKey::derive_from_seed(0xBAD));
    let mut ndp = TamperingNdp::new(Tamper::FlipResultBit { element: 0, bit: 1 });
    let pt: Vec<u32> = (0..32).collect();
    let table = cpu.encrypt_table(&pt, 8, 4, 0x9000).unwrap();
    let handle = cpu.publish(&table, &mut ndp).unwrap();
    // Any verify failure within the window degrades `protocol`.
    for i in 0..6 {
        match cpu.weighted_sum(&handle, &ndp, &[i % 8], &[1u32], true) {
            Err(Error::VerificationFailed { .. }) => {}
            other => panic!("tampered query must fail verification, got {other:?}"),
        }
    }
    drop(root);

    m.sample(reg);
    let dump = m
        .last_flight_dump()
        .expect("tamper burst must write a flight dump");
    assert_ne!(Some(&dump), before.as_ref(), "a NEW dump must be written");
    let json = std::fs::read_to_string(&dump).unwrap();
    let reason = json.split("\"reason\":\"").nth(1).unwrap_or("");
    let reason = reason.split('"').next().unwrap_or("");
    assert!(
        reason.contains("protocol: "),
        "dump reason must name the component: {reason}"
    );
    assert!(
        json.contains("secndp_verify_failures_total"),
        "dump snapshots must carry the spiked counter"
    );
    assert!(
        json.contains("\"kind\":\"verification_failed\""),
        "dump must embed the matching audit events"
    );
    assert!(
        json.contains(&format!("\"trace\":{tid}")),
        "audit events must carry the burst's trace id {tid}"
    );
    // The spike is visible in the window: newest snapshot ≥ baseline + 6.
    std::fs::remove_dir_all(&dir).ok();
    reset_health_window();
}

/// Concurrent scrapes against `/metrics` and `/healthz` while writer
/// threads mutate the registry must stay well-formed, carry the right
/// Content-Type, and the server must shut down cleanly (joined thread,
/// closed listener — no leaks).
#[test]
fn concurrent_scrapes_stay_well_formed_and_shutdown_is_clean() {
    let _g = serial();
    reset_health_window();
    let server = ServerBuilder::new(secndp::telemetry::global())
        .bind("127.0.0.1:0")
        .unwrap();
    let addr = server.local_addr();
    let stop = Arc::new(AtomicBool::new(false));

    // Writers: hammer a counter while readers scrape.
    let writers: Vec<_> = (0..2)
        .map(|_| {
            let stop = stop.clone();
            std::thread::spawn(move || {
                let c = secndp::telemetry::counter!(
                    "secndp_test_scrape_writes_total",
                    "Concurrency-test writer traffic."
                );
                while !stop.load(Ordering::Relaxed) {
                    c.inc();
                }
            })
        })
        .collect();

    let readers: Vec<_> = (0..4)
        .map(|t| {
            std::thread::spawn(move || {
                for i in 0..25 {
                    match (t + i) % 3 {
                        0 => {
                            let r = http_get(addr, "/metrics");
                            assert_eq!(r.status, 200);
                            assert_eq!(r.content_type, CONTENT_TYPE_PROMETHEUS);
                            assert!(r.body.contains("secndp_"), "metrics body lost");
                            // Prometheus text: every line is a comment or
                            // a sample; no torn lines.
                            for line in r.body.lines() {
                                assert!(
                                    line.starts_with('#')
                                        || line
                                            .chars()
                                            .next()
                                            .is_some_and(|c| c.is_ascii_alphabetic()),
                                    "torn metrics line: {line:?}"
                                );
                            }
                            assert!(r.body.ends_with('\n'));
                        }
                        1 => {
                            let r = http_get(addr, "/healthz");
                            assert!(r.status == 200 || r.status == 503);
                            assert_eq!(r.content_type, "application/json");
                            assert!(r.body.trim_end().starts_with('{'));
                            assert!(r.body.trim_end().ends_with('}'));
                        }
                        _ => {
                            let r = http_get(addr, "/metrics.json");
                            assert_eq!(r.status, 200);
                            assert_eq!(r.content_type, "application/json");
                            assert!(r.body.trim_end().starts_with('{'));
                            assert!(r.body.trim_end().ends_with('}'));
                        }
                    }
                }
            })
        })
        .collect();
    for r in readers {
        r.join().unwrap();
    }
    stop.store(true, Ordering::Relaxed);
    for w in writers {
        w.join().unwrap();
    }

    // `shutdown` consumes the handle; Drop joins the accept thread, so
    // returning at all proves the thread is gone. The port must then stop
    // accepting.
    server.shutdown();
    let deadline = Instant::now() + Duration::from_secs(2);
    loop {
        match TcpStream::connect_timeout(&addr, Duration::from_millis(200)) {
            Err(_) => break,
            Ok(_) if Instant::now() >= deadline => {
                panic!("listener still accepting after shutdown")
            }
            Ok(_) => std::thread::sleep(Duration::from_millis(20)),
        }
    }
}

/// Unknown routes 404, garbage requests 400, and the built-in index and
/// tracez routes answer.
#[test]
fn error_routes_and_index() {
    let _g = serial();
    let server = ServerBuilder::new(secndp::telemetry::global())
        .bind("127.0.0.1:0")
        .unwrap();
    let addr = server.local_addr();

    let r = http_get(addr, "/no-such-route");
    assert_eq!(r.status, 404);
    let r = http_get(addr, "/");
    assert_eq!(r.status, 200);
    let r = http_get(addr, "/tracez");
    assert_eq!(r.status, 200);
    assert!(
        r.content_type.starts_with("text/plain"),
        "{}",
        r.content_type
    );

    // A request with no parseable request line must get a 400.
    let mut conn = TcpStream::connect_timeout(&addr, Duration::from_secs(2)).unwrap();
    conn.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
    conn.write_all(b"BOGUS\r\n\r\n").unwrap();
    let mut raw = Vec::new();
    conn.read_to_end(&mut raw).unwrap();
    let r = parse_response(&String::from_utf8(raw).unwrap());
    assert_eq!(r.status, 400);
    server.shutdown();
}

/// The panic hook must leave a `secndp-crash-<pid>.json` forensic dump.
#[test]
fn panic_hook_writes_crash_dump() {
    let _g = serial();
    let dir = fresh_dir("crash");
    secndp::telemetry::recorder::install_panic_hook_in(&dir);
    let result = std::panic::catch_unwind(|| panic!("health-endpoint-crash-probe"));
    assert!(result.is_err());
    let path = dir.join(format!("secndp-crash-{}.json", std::process::id()));
    let json = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("crash dump missing at {}: {e}", path.display()));
    assert!(json.contains("flight_recorder"));
    assert!(
        json.contains("health-endpoint-crash-probe"),
        "dump must carry the panic message"
    );
    std::fs::remove_dir_all(&dir).ok();
}
