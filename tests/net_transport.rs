//! Acceptance tests for the TCP socket transport: a *real* process and
//! socket boundary between the trusted processor and the untrusted NDP
//! device. The `secndp-server` binary is spawned as a child process
//! (CARGO_BIN_EXE), and the client side must (a) return exactly what the
//! in-process inline transport returns — which must equal the plaintext
//! ground truth; (b) catch a byte flipped on the wire by checksum
//! verification, with a security audit event in the same trace (the
//! socket is untrusted; integrity comes from the crypto, not the
//! channel); (c) turn a killed server into a typed availability error and
//! recover once it respawns; and (d) survive arbitrarily hostile framing
//! — torn writes, truncated prefixes, garbage, oversized lengths — with
//! typed errors or closed connections, never a panic.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::process::{Child, Command, Stdio};
use std::time::Duration;

use secndp::core::device::HonestNdp;
use secndp::core::net::{NetConfig, NetServer, TcpEndpoint};
use secndp::core::wire::{RemoteNdp, Request, Response, CODE_BAD_ELEM_BYTES, CODE_BAD_FRAME};
use secndp::core::{Error, NdpDevice, SecretKey, TrustedProcessor};

const ROWS: usize = 32;
const COLS: usize = 8;
const ADDR: u64 = 0x9000;

fn plaintext() -> Vec<u32> {
    (0..ROWS * COLS).map(|x| (x * 41 + 7) as u32).collect()
}

/// Deterministic LCG query stream over `ROWS`.
fn queries(n: usize, seed: u64) -> Vec<(Vec<usize>, Vec<u32>)> {
    let mut state = seed | 1;
    let mut next = move || {
        state = state
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        (state >> 33) as usize
    };
    (0..n)
        .map(|_| {
            let len = 2 + next() % 6;
            let idx: Vec<usize> = (0..len).map(|_| next() % ROWS).collect();
            let w: Vec<u32> = (0..len).map(|_| (next() % 100) as u32 + 1).collect();
            (idx, w)
        })
        .collect()
}

/// Ground truth computed directly over the plaintext (wrapping ring math).
fn expected(pt: &[u32], idx: &[usize], w: &[u32]) -> Vec<u32> {
    let mut out = vec![0u32; COLS];
    for (&i, &a) in idx.iter().zip(w) {
        for (j, o) in out.iter_mut().enumerate() {
            *o = o.wrapping_add(a.wrapping_mul(pt[i * COLS + j]));
        }
    }
    out
}

/// A spawned `secndp-server` child plus the address it bound.
struct ChildServer {
    child: Child,
    addr: String,
}

impl ChildServer {
    /// Spawns the built server binary and blocks until it prints its
    /// `SECNDP_SERVER_LISTENING <addr>` line.
    fn spawn(addr: &str) -> Option<ChildServer> {
        let mut child = Command::new(env!("CARGO_BIN_EXE_secndp-server"))
            .args(["--addr", addr])
            .stdout(Stdio::piped())
            .stderr(Stdio::null())
            .spawn()
            .expect("spawn secndp-server");
        let stdout = child.stdout.take().expect("child stdout piped");
        let mut lines = BufReader::new(stdout).lines();
        for line in lines.by_ref() {
            let Ok(line) = line else { break };
            if let Some(bound) = line.strip_prefix("SECNDP_SERVER_LISTENING ") {
                return Some(ChildServer {
                    child,
                    addr: bound.trim().to_string(),
                });
            }
        }
        // The child exited without binding (e.g. the port was not yet
        // reusable after a kill); reap it so the caller can retry.
        let _ = child.wait();
        None
    }
}

impl Drop for ChildServer {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// A client config tuned for tests: short deadlines and few connect
/// retries so failure paths resolve in milliseconds, not seconds.
fn client_cfg(addr: &str) -> NetConfig {
    NetConfig {
        addrs: vec![addr.to_string()],
        timeout: Duration::from_millis(5_000),
        connect_retries: 4,
        connect_backoff: Duration::from_millis(10),
        ..NetConfig::default()
    }
}

/// Differential SLS across a real process boundary: the TCP endpoint
/// (→ spawned child server) must return exactly what the in-process
/// inline transport returns, which must equal the plaintext ground truth,
/// with verification on for every query.
#[test]
fn cross_process_differential_verified_sls() {
    let server = ChildServer::spawn("127.0.0.1:0").expect("first spawn binds");
    let mut cpu = TrustedProcessor::new(SecretKey::derive_from_seed(0xA11CE));
    let pt = plaintext();
    let table = cpu.encrypt_table(&pt, ROWS, COLS, ADDR).unwrap();

    let mut tcp = TcpEndpoint::connect(client_cfg(&server.addr)).unwrap();
    let mut inline = RemoteNdp::inline(HonestNdp::new());
    let h_tcp = cpu.publish(&table, &mut tcp).unwrap();
    let h_inl = cpu.publish(&table, &mut inline).unwrap();

    for (idx, w) in queries(64, 0xD1FF) {
        let over_socket = cpu.weighted_sum(&h_tcp, &tcp, &idx, &w, true).unwrap();
        let in_process = cpu.weighted_sum(&h_inl, &inline, &idx, &w, true).unwrap();
        assert_eq!(over_socket, in_process, "tcp ≢ inline for {idx:?}");
        assert_eq!(over_socket, expected(&pt, &idx, &w), "tcp ≢ plaintext");
    }
    // Rank vitals saw the live connection and the traffic.
    assert!(tcp.link().vitals(0).ever_connected());
    assert!(tcp.served(0) >= 64);
}

/// Plaintext row readback across the process boundary (exercises the
/// `ReadRow` leg of the protocol over the socket).
#[test]
fn cross_process_read_row_roundtrip() {
    let server = ChildServer::spawn("127.0.0.1:0").expect("spawn binds");
    let mut tcp = TcpEndpoint::connect(client_cfg(&server.addr)).unwrap();
    let mut cpu = TrustedProcessor::new(SecretKey::derive_from_seed(0x0DD));
    let pt = plaintext();
    let table = cpu.encrypt_table(&pt, ROWS, COLS, ADDR).unwrap();
    cpu.publish(&table, &mut tcp).unwrap();
    // The device stores ciphertext rows; reading one back over the socket
    // must return exactly what the in-process device stores for that row.
    let mut inline = HonestNdp::new();
    cpu.publish(&table, &mut inline).unwrap();
    let over_socket = tcp.read_row(ADDR, 3).unwrap();
    assert_eq!(over_socket, inline.read_row(ADDR, 3).unwrap());
    assert_eq!(over_socket.len(), COLS * 4);
}

/// A man-in-the-middle proxy between client and child server that flips
/// one bit in every sufficiently large server reply (i.e. every
/// weighted-sum result, skipping the small `Load` acks). Returns the
/// proxy's listen address.
#[cfg(feature = "telemetry")]
fn tamper_proxy(upstream: String) -> String {
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap().to_string();
    std::thread::spawn(move || {
        for conn in listener.incoming() {
            let Ok(client) = conn else { return };
            let upstream = upstream.clone();
            std::thread::spawn(move || {
                let Ok(server) = TcpStream::connect(&upstream) else {
                    return;
                };
                // Upstream direction: bytes pass through untouched.
                let (mut c_read, mut s_write) =
                    (client.try_clone().unwrap(), server.try_clone().unwrap());
                std::thread::spawn(move || {
                    let mut buf = [0u8; 4096];
                    loop {
                        match c_read.read(&mut buf) {
                            Ok(0) | Err(_) => return,
                            Ok(n) => {
                                if s_write.write_all(&buf[..n]).is_err() {
                                    return;
                                }
                            }
                        }
                    }
                });
                // Downstream direction: parse reply records and flip a
                // ciphertext bit in every large one.
                let mut s_read = server;
                let mut c_write = client;
                loop {
                    let mut len_buf = [0u8; 4];
                    if s_read.read_exact(&mut len_buf).is_err() {
                        return;
                    }
                    let len = u32::from_le_bytes(len_buf) as usize;
                    let mut payload = vec![0u8; len];
                    if s_read.read_exact(&mut payload).is_err() {
                        return;
                    }
                    // payload = req_id(8) | envelope(17) | tag | body.
                    // Flip a bit inside a Sum reply's c_res bytes; leave
                    // small frames (Load acks, error codes) intact.
                    if len > 60 {
                        payload[34] ^= 0x01;
                    }
                    if c_write.write_all(&len_buf).is_err() || c_write.write_all(&payload).is_err()
                    {
                        return;
                    }
                }
            });
        }
    });
    addr
}

/// A byte flipped **on the wire** (not by the device) must fail checksum
/// verification exactly like a tampering device — and leave a security
/// audit event carrying the same trace id as the query. The socket adds
/// no integrity of its own and needs none.
#[cfg(feature = "telemetry")]
#[test]
fn tamper_over_socket_detected_with_same_trace_audit() {
    use secndp::telemetry::audit::audit_log;
    use secndp::telemetry::trace;

    let server = ChildServer::spawn("127.0.0.1:0").expect("spawn binds");
    let proxy_addr = tamper_proxy(server.addr.clone());
    let mut tcp = TcpEndpoint::connect(client_cfg(&proxy_addr)).unwrap();
    let mut cpu = TrustedProcessor::new(SecretKey::derive_from_seed(0xE71));
    let pt = plaintext();
    let table = cpu.encrypt_table(&pt, ROWS, COLS, ADDR).unwrap();
    let handle = cpu.publish(&table, &mut tcp).unwrap();

    let root = trace::span("tamper_over_socket");
    let tid = root.trace_id();
    let res = cpu.weighted_sum(&handle, &tcp, &[1, 2, 3], &[5u32, 7, 9], true);
    drop(root);
    assert!(
        matches!(res, Err(Error::VerificationFailed { table_addr }) if table_addr == ADDR),
        "wire tampering must fail verification, got {res:?}"
    );
    let ev = audit_log()
        .snapshot()
        .into_iter()
        .find(|e| e.trace.0 == tid)
        .expect("audit event stamped with the query's trace id");
    assert_eq!(ev.table_addr, ADDR);
}

/// Killing the server mid-stream turns the next query into a typed
/// availability error (never a panic, never unverified data); once the
/// server respawns on the same port and the table is republished, queries
/// verify again.
#[test]
fn server_kill_is_typed_error_then_reconnect_recovers() {
    let server = ChildServer::spawn("127.0.0.1:0").expect("first spawn binds");
    let addr = server.addr.clone();
    let mut tcp = TcpEndpoint::connect(client_cfg(&addr)).unwrap();
    let mut cpu = TrustedProcessor::new(SecretKey::derive_from_seed(0xDEAD));
    let pt = plaintext();
    let table = cpu.encrypt_table(&pt, ROWS, COLS, ADDR).unwrap();
    let handle = cpu.publish(&table, &mut tcp).unwrap();
    let ok = cpu
        .weighted_sum(&handle, &tcp, &[0, 1], &[1u32, 1], true)
        .unwrap();
    assert_eq!(ok, expected(&pt, &[0, 1], &[1, 1]));

    drop(server); // SIGKILL: connections reset, port released.
    let res = cpu.weighted_sum(&handle, &tcp, &[2, 3], &[1u32, 1], true);
    assert!(
        matches!(
            res,
            Err(Error::ConnectionLost { .. } | Error::DeviceTimeout { .. })
        ),
        "dead server must be a typed availability error, got {res:?}"
    );
    assert!(tcp.link().vitals(0).disconnected());

    // Respawn on the *same* address (SO_REUSEADDR makes the listener
    // rebindable immediately; retry a few times for scheduler slack).
    let mut respawned = None;
    for _ in 0..40 {
        if let Some(s) = ChildServer::spawn(&addr) {
            respawned = Some(s);
            break;
        }
        std::thread::sleep(Duration::from_millis(50));
    }
    let _respawned = respawned.expect("server respawns on the same port");

    // The new server process has empty device state: republish, then the
    // endpoint transparently reconnects and the query verifies.
    cpu.publish(&table, &mut tcp).unwrap();
    let after = cpu
        .weighted_sum(&handle, &tcp, &[4, 5], &[2u32, 3], true)
        .unwrap();
    assert_eq!(after, expected(&pt, &[4, 5], &[2, 3]));
    assert!(tcp.link().vitals(0).live_connections() > 0);
}

/// Hand-writes one net request record carrying `frame` and returns the
/// reply frame (after the 8-byte req-id header).
fn raw_round_trip(stream: &mut TcpStream, req_id: u64, frame: &[u8]) -> Vec<u8> {
    let len = 20 + frame.len();
    let mut buf = Vec::with_capacity(4 + len);
    buf.extend_from_slice(&(len as u32).to_le_bytes());
    buf.extend_from_slice(&req_id.to_le_bytes());
    buf.extend_from_slice(&77u64.to_le_bytes()); // session
    buf.extend_from_slice(&0u32.to_le_bytes()); // rank
    buf.extend_from_slice(frame);
    stream.write_all(&buf).unwrap();
    let mut len_buf = [0u8; 4];
    stream.read_exact(&mut len_buf).unwrap();
    let len = u32::from_le_bytes(len_buf) as usize;
    let mut payload = vec![0u8; len];
    stream.read_exact(&mut payload).unwrap();
    assert_eq!(
        u64::from_le_bytes(payload[0..8].try_into().unwrap()),
        req_id
    );
    payload[8..].to_vec()
}

/// Torn writes: a valid request record delivered one byte at a time must
/// still be served (the reader tolerates arbitrary fragmentation).
#[test]
fn torn_one_byte_writes_still_served() {
    let server = NetServer::host_device(HonestNdp::new(), "127.0.0.1:0").unwrap();
    let mut stream = TcpStream::connect(server.local_addr()).unwrap();
    let frame = Request::ReadRow {
        table_addr: 1,
        row: 0,
    }
    .encode()
    .unwrap();
    let len = 20 + frame.len();
    let mut record = Vec::new();
    record.extend_from_slice(&(len as u32).to_le_bytes());
    record.extend_from_slice(&9u64.to_le_bytes());
    record.extend_from_slice(&77u64.to_le_bytes());
    record.extend_from_slice(&0u32.to_le_bytes());
    record.extend_from_slice(&frame);
    for b in &record {
        stream.write_all(std::slice::from_ref(b)).unwrap();
        stream.flush().unwrap();
    }
    let mut len_buf = [0u8; 4];
    stream.read_exact(&mut len_buf).unwrap();
    let len = u32::from_le_bytes(len_buf) as usize;
    let mut payload = vec![0u8; len];
    stream.read_exact(&mut payload).unwrap();
    // Unknown table → a typed device error frame, served despite the torn
    // delivery.
    assert_eq!(Response::decode(&payload[8..]).unwrap(), Response::Err(1));
}

/// A decodable-but-invalid request (element width 3) over the socket must
/// earn a typed error *frame* — not a dropped connection and a client
/// timeout. Pins the `wire::serve` error-path fix at the socket level.
#[test]
fn bad_elem_bytes_over_socket_is_typed_error_frame() {
    let server = NetServer::host_device(HonestNdp::new(), "127.0.0.1:0").unwrap();
    let mut stream = TcpStream::connect(server.local_addr()).unwrap();
    let mut frame = Request::WeightedSum {
        table_addr: ADDR,
        elem_bytes: 4,
        indices: vec![0, 1],
        weights: vec![1, 2],
        with_tag: false,
    }
    .encode()
    .unwrap();
    frame[9] = 3; // byte 9 is elem_bytes (tag + 8-byte addr)
    let reply = raw_round_trip(&mut stream, 1, &frame);
    assert_eq!(
        Response::decode(&reply).unwrap(),
        Response::Err(CODE_BAD_ELEM_BYTES)
    );
    // Undecodable garbage inside valid net framing: same story, and the
    // connection survives both for the next (valid) request.
    let reply = raw_round_trip(&mut stream, 2, &[0x42, 0, 1, 2]);
    assert_eq!(
        Response::decode(&reply).unwrap(),
        Response::Err(CODE_BAD_FRAME)
    );
    let ok = Request::ReadRow {
        table_addr: 1,
        row: 0,
    }
    .encode()
    .unwrap();
    let reply = raw_round_trip(&mut stream, 3, &ok);
    assert_eq!(Response::decode(&reply).unwrap(), Response::Err(1));
}

/// Hostile framing matrix against a live server: truncated length
/// prefixes, garbage preambles, oversized declared lengths, and seeded
/// random byte soup. The server must close the offending connection (or
/// ignore the truncation) and keep serving everyone else — never panic.
#[test]
fn hostile_framing_never_kills_the_server() {
    let server = NetServer::host_device(HonestNdp::new(), "127.0.0.1:0").unwrap();
    let addr = server.local_addr();

    // Truncated length prefix, then close.
    let mut s = TcpStream::connect(addr).unwrap();
    s.write_all(&[7u8, 0]).unwrap();
    drop(s);

    // Garbage preamble: a "length" of 0x6867_6665 (ascii soup) is outside
    // the accepted window, so the server closes the connection.
    let mut s = TcpStream::connect(addr).unwrap();
    s.write_all(b"efghijklmnop").unwrap();
    let mut buf = [0u8; 1];
    assert_eq!(s.read(&mut buf).unwrap(), 0, "server must close, not serve");

    // Oversized declared length: rejected before allocation, closed.
    let mut s = TcpStream::connect(addr).unwrap();
    s.write_all(&(1u32 << 30).to_le_bytes()).unwrap();
    assert_eq!(s.read(&mut buf).unwrap(), 0, "oversized length must close");

    // Zero/undersized length (no room for the request header): closed.
    let mut s = TcpStream::connect(addr).unwrap();
    s.write_all(&5u32.to_le_bytes()).unwrap();
    s.write_all(&[0u8; 5]).unwrap();
    assert_eq!(s.read(&mut buf).unwrap(), 0, "undersized length must close");

    // Seeded random-bytes matrix: whatever happens, no panic, and the
    // server still serves a valid request afterwards.
    let mut state = 0xC4A05u64;
    for _ in 0..32 {
        let mut s = TcpStream::connect(addr).unwrap();
        let n = 1 + (state >> 33) as usize % 64;
        let junk: Vec<u8> = (0..n)
            .map(|_| {
                state = state
                    .wrapping_mul(6_364_136_223_846_793_005)
                    .wrapping_add(1_442_695_040_888_963_407);
                (state >> 56) as u8
            })
            .collect();
        let _ = s.write_all(&junk);
        drop(s);
    }

    let mut s = TcpStream::connect(addr).unwrap();
    let ok = Request::ReadRow {
        table_addr: 1,
        row: 0,
    }
    .encode()
    .unwrap();
    let reply = raw_round_trip(&mut s, 99, &ok);
    assert_eq!(Response::decode(&reply).unwrap(), Response::Err(1));
}

/// A server declaring an absurd reply length must surface as a typed
/// `FrameTooLarge` on the client — the length is never allocated.
#[test]
fn oversized_reply_length_is_frame_too_large() {
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap().to_string();
    std::thread::spawn(move || {
        let (mut conn, _) = listener.accept().unwrap();
        // Drain the request record, then declare a 1 GiB reply.
        let mut len_buf = [0u8; 4];
        conn.read_exact(&mut len_buf).unwrap();
        let mut payload = vec![0u8; u32::from_le_bytes(len_buf) as usize];
        conn.read_exact(&mut payload).unwrap();
        conn.write_all(&(1u32 << 30).to_le_bytes()).unwrap();
        // Hold the socket open so the failure is the length, not EOF.
        std::thread::sleep(Duration::from_secs(2));
    });
    let cfg = NetConfig {
        addrs: vec![addr],
        max_retries: 0,
        ..NetConfig::default()
    };
    let tcp = TcpEndpoint::connect(cfg).unwrap();
    let res = tcp.read_row(ADDR, 0);
    assert!(
        matches!(res, Err(Error::FrameTooLarge { len }) if len == 1 << 30),
        "oversized reply must be typed, got {res:?}"
    );
}

/// The graceful-drain sentinel: a client writing the shutdown sentinel
/// stops the server (echoed ack, listener drained) — the binary's exit
/// path, exercised in-process.
#[test]
fn shutdown_sentinel_drains_server() {
    let mut server = NetServer::host_device(HonestNdp::new(), "127.0.0.1:0").unwrap();
    let addr = server.local_addr();
    let mut s = TcpStream::connect(addr).unwrap();
    s.write_all(&secndp::core::net::SHUTDOWN_SENTINEL.to_le_bytes())
        .unwrap();
    let mut echo = [0u8; 4];
    s.read_exact(&mut echo).unwrap();
    assert_eq!(
        u32::from_le_bytes(echo),
        secndp::core::net::SHUTDOWN_SENTINEL
    );
    server.wait();
    assert!(server.is_stopping());
}

/// Trace stitching across the socket: with a self-hosted TCP endpoint
/// (client and server sharing this process's journal), a traced query
/// must produce `ndp_serve` spans in the *same trace* as the caller's
/// root span — the envelope rides the socket intact.
#[cfg(feature = "telemetry")]
#[test]
fn trace_ids_stitch_across_the_socket() {
    use secndp::telemetry::trace;

    let mut cpu = TrustedProcessor::new(SecretKey::derive_from_seed(0x77AC3));
    let mut ndp = RemoteNdp::<HonestNdp>::tcp_backed(
        TcpEndpoint::self_hosted(HonestNdp::new(), NetConfig::default()).unwrap(),
    );
    let pt = plaintext();
    let table = cpu.encrypt_table(&pt, ROWS, COLS, ADDR).unwrap();

    let root = trace::span("net_stitch_root");
    let tid = root.trace_id();
    let handle = cpu.publish(&table, &mut ndp).unwrap();
    let res = cpu
        .weighted_sum(&handle, &ndp, &[1, 2], &[3u32, 4], true)
        .unwrap();
    drop(root);
    assert_eq!(res, expected(&pt, &[1, 2], &[3, 4]));

    let events = trace::journal().snapshot();
    assert!(
        events
            .iter()
            .any(|e| e.trace.0 == tid && e.name == "ndp_serve"),
        "server-side ndp_serve span must stitch into the caller's trace"
    );
}
