//! Standalone NDP device server: hosts honest NDP device ranks behind a
//! TCP listener, speaking the net framing from `secndp_core::net`.
//!
//! Each client session gets its own device instances (keyed by the
//! session id the client's `TcpEndpoint` stamps on every request), so
//! concurrent clients — or concurrent test processes — never clobber
//! each other's tables. This is the *untrusted* side of the SecNDP
//! boundary: it sees only ciphertext shares and blinded checksum tags,
//! and nothing it can do (including tampering with what it serves)
//! defeats the client-side verification.
//!
//! Run with:
//! `cargo run --bin secndp-server -- [--addr 127.0.0.1:7070] [--serve-metrics 127.0.0.1:9464] [--flight-dir DIR]`
//!
//! Flight and crash dumps land in `--flight-dir` (default `.`). A flag
//! that is unknown or has no value exits 2 with the usage line, before
//! anything else starts.
//!
//! Prints a parseable `SECNDP_SERVER_LISTENING <addr>` line once bound
//! (the cross-process tests scrape it to learn the ephemeral port), then
//! serves until a client sends the shutdown sentinel, draining in-flight
//! connections before exiting.

use secndp_core::device::HonestNdp;
use secndp_core::net::NetServer;
use secndp_telemetry::health::HealthConfig;
use secndp_telemetry::serve::ServerBuilder;
use std::io::Write;
use std::path::PathBuf;

const USAGE: &str =
    "usage: secndp-server [--addr host:port] [--serve-metrics host:port] [--flight-dir DIR]";

fn usage_exit(err: &str) -> ! {
    eprintln!("secndp-server: {err}");
    eprintln!("{USAGE}");
    std::process::exit(2)
}

fn main() {
    // Every flag is parsed before the panic hook goes in, so a usage error
    // exits 2 and leaves no crash dump behind.
    let mut addr = String::from("127.0.0.1:0");
    let mut metrics_addr: Option<String> = None;
    let mut flight_dir = PathBuf::from(".");
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let mut value = || {
            args.next()
                .unwrap_or_else(|| usage_exit(&format!("{flag} needs a value")))
        };
        match flag.as_str() {
            "--addr" => addr = value(),
            "--serve-metrics" => metrics_addr = Some(value()),
            "--flight-dir" => flight_dir = value().into(),
            _ => usage_exit(&format!("unknown flag: {flag}")),
        }
    }

    // Observability next: crash dumps, build-info gauges, the health
    // sampler, and (when requested) the live scrape server.
    secndp_telemetry::install_panic_hook_in(&flight_dir);
    secndp_telemetry::init_process_metrics();
    let _sampler = secndp_telemetry::health::monitor().start_sampler(
        secndp_telemetry::global(),
        HealthConfig {
            flight_dir,
            ..HealthConfig::default()
        },
    );

    let _metrics = metrics_addr.map(|addr| {
        let server = ServerBuilder::new(secndp_telemetry::global())
            .bind(&addr)
            .unwrap_or_else(|e| panic!("cannot serve metrics on {addr}: {e}"));
        println!(
            "serving /metrics /healthz on http://{}",
            server.local_addr()
        );
        server
    });

    let mut server = NetServer::host_sessions(|_session, _rank| HonestNdp::new(), addr.as_str())
        .unwrap_or_else(|e| panic!("cannot listen on {addr}: {e}"));
    // Parseable and flushed: child-process tests block on this line to
    // learn the ephemeral port before dialing.
    println!("SECNDP_SERVER_LISTENING {}", server.local_addr());
    std::io::stdout().flush().expect("flush listening line");
    server.wait();
    println!("secndp-server drained, exiting");
}
