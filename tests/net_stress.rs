//! Concurrency stress for the TCP transport: 8 client threads hammer one
//! spawned `secndp-server` process over the rank's one connection, so the
//! request-id demultiplexer is forced to interleave many in-flight
//! requests on that socket. Every result must verify *and* equal both the
//! inline transport's answer and the plaintext ground truth per query (a
//! cross-wired reply would produce a verification failure or a
//! differential mismatch), and afterwards the endpoint counters must
//! reconcile exactly:
//! `submitted + retries == completed + timeouts + connection failures`.
//!
//! This file is a separate integration-test binary on purpose — it owns
//! its process's global metric registry, so the reconciliation holds with
//! no interference from other tests' transport activity.

use std::io::{BufRead, BufReader};
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicU64, Ordering};
use std::thread;
use std::time::Duration;

use secndp::core::device::HonestNdp;
use secndp::core::net::{NetConfig, TcpEndpoint};
use secndp::core::wire::RemoteNdp;
use secndp::core::{SecretKey, TrustedProcessor};

const ROWS: usize = 64;
const COLS: usize = 8;
const ADDR: u64 = 0xA000;
const THREADS: usize = 8;
const QUERIES_PER_THREAD: usize = 150;

/// Kills and reaps the child server even when an assertion unwinds.
struct Reaper(Child);

impl Drop for Reaper {
    fn drop(&mut self) {
        let _ = self.0.kill();
        let _ = self.0.wait();
    }
}

fn spawn_server() -> (Reaper, String) {
    let mut child = Command::new(env!("CARGO_BIN_EXE_secndp-server"))
        .args(["--addr", "127.0.0.1:0"])
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawn secndp-server");
    let stdout = child.stdout.take().expect("child stdout piped");
    let reaper = Reaper(child);
    for line in BufReader::new(stdout).lines() {
        let line = line.expect("read child stdout");
        if let Some(addr) = line.strip_prefix("SECNDP_SERVER_LISTENING ") {
            return (reaper, addr.trim().to_string());
        }
    }
    panic!("server never printed its listening line");
}

/// A counter's value, or a histogram's sample count.
#[cfg(feature = "telemetry")]
fn count(name: &str) -> u64 {
    secndp::telemetry::global()
        .snapshot()
        .metrics
        .iter()
        .find(|m| m.name == name)
        .and_then(|m| match &m.value {
            secndp::telemetry::Value::Counter(v) => Some(*v),
            secndp::telemetry::Value::Histogram(h) => Some(h.count),
            _ => None,
        })
        .unwrap_or(0)
}

#[test]
fn eight_threads_hundreds_of_queries_verify_and_counters_reconcile() {
    let (_server, addr) = spawn_server();

    let mut cpu = TrustedProcessor::new(SecretKey::derive_from_seed(0x57E55));
    let pt: Vec<u32> = (0..ROWS * COLS).map(|x| (x * 29 + 3) as u32).collect();
    let table = cpu.encrypt_table(&pt, ROWS, COLS, ADDR).unwrap();

    // One connection for eight threads: the demux has to carry several
    // in-flight request ids on it at all times.
    let mut tcp = TcpEndpoint::connect(NetConfig {
        addrs: vec![addr],
        timeout: Duration::from_millis(10_000),
        ..NetConfig::default()
    })
    .unwrap();
    let mut inline = RemoteNdp::inline(HonestNdp::new());
    let h_tcp = cpu.publish(&table, &mut tcp).unwrap();
    let h_inl = cpu.publish(&table, &mut inline).unwrap();

    let wrong = AtomicU64::new(0);
    let (cpu, tcp_ref, inline_ref) = (&cpu, &tcp, &inline);
    let (pt_ref, h_tcp, h_inl) = (&pt, &h_tcp, &h_inl);
    thread::scope(|s| {
        for t in 0..THREADS {
            let wrong = &wrong;
            s.spawn(move || {
                let mut state = (0xBEEF << 8 | t as u64) | 1;
                let mut next = move || {
                    state = state
                        .wrapping_mul(6_364_136_223_846_793_005)
                        .wrapping_add(1_442_695_040_888_963_407);
                    (state >> 33) as usize
                };
                for _ in 0..QUERIES_PER_THREAD {
                    let len = 2 + next() % 6;
                    let idx: Vec<usize> = (0..len).map(|_| next() % ROWS).collect();
                    let w: Vec<u32> = (0..len).map(|_| (next() % 100) as u32 + 1).collect();
                    // Verified over the socket …
                    let over_socket = cpu.weighted_sum(h_tcp, tcp_ref, &idx, &w, true).unwrap();
                    // … differentially equal to the inline transport —
                    // a cross-wired reply could not satisfy both checks.
                    let in_process = cpu.weighted_sum(h_inl, inline_ref, &idx, &w, true).unwrap();
                    let mut want = vec![0u32; COLS];
                    for (&i, &a) in idx.iter().zip(&w) {
                        for (j, o) in want.iter_mut().enumerate() {
                            *o = o.wrapping_add(a.wrapping_mul(pt_ref[i * COLS + j]));
                        }
                    }
                    if over_socket != in_process || over_socket != want {
                        wrong.fetch_add(1, Ordering::Relaxed);
                    }
                }
            });
        }
    });
    assert_eq!(
        wrong.load(Ordering::Relaxed),
        0,
        "every query must verify and match inline + plaintext"
    );

    // The one connection carried all the traffic and is still live.
    assert_eq!(tcp.link().vitals(0).live_connections(), 1);
    assert_eq!(
        tcp.served(0) as usize,
        THREADS * QUERIES_PER_THREAD + 1, // + the publish load
    );

    // Counter reconciliation: every send settled into exactly one bucket
    // (a completed request is one sample of the completion histogram).
    // This process ran no other endpoint, so the totals are exact, not
    // deltas.
    #[cfg(feature = "telemetry")]
    {
        let sent =
            count("secndp_transport_submitted_total") + count("secndp_transport_retries_total");
        let completed = count("secndp_transport_completion_ns");
        let timeouts = count("secndp_transport_timeouts_total");
        let conn_failures = count("secndp_net_conn_failures_total");
        assert_eq!(
            sent,
            completed + timeouts + conn_failures,
            "sends must reconcile with completed + timeouts + failures"
        );
        assert!(
            completed as usize > THREADS * QUERIES_PER_THREAD,
            "at least every query and the publish completed ({completed})"
        );
    }

    drop(tcp);
}
