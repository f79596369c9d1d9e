//! The TCP link: the wire protocol over a real network boundary.
//!
//! SecNDP's threat model places the trusted processor and the untrusted
//! NDP memory on opposite sides of a *channel an adversary owns*. This
//! module puts the length-prefixed traced wire frames (unchanged, byte for
//! byte) onto one `TcpStream` per rank: a [`NetServer`] hosts devices
//! behind a listener, and [`TcpEndpoint`] is an [`Endpoint`] (request ids,
//! window, deadlines, retry: see that module) over a [`TcpLink`].
//!
//! # Net framing
//!
//! The socket carries the traced wire frames inside a thin transport
//! header (all fields little-endian):
//!
//! ```text
//! request:  len: u32 | req_id: u64 | session: u64 | rank: u32 | wire frame
//! reply:    len: u32 | req_id: u64 | wire frame
//! ```
//!
//! `len` counts everything after itself and is capped at
//! [`MAX_NET_FRAME`] plus the header — an oversized declared length closes
//! the connection (server side) or fails the in-flight requests with
//! [`Error::FrameTooLarge`] (client side); it is never allocated. The
//! sentinel length [`SHUTDOWN_SENTINEL`] is a graceful-drain request: the
//! server echoes it, stops accepting, and lets in-flight connections
//! finish their current frame (there is no portable signal handling
//! without a libc dependency, so drain rides the framing instead).
//!
//! `req_id` is the endpoint's request id: client threads share a rank's
//! one connection, and its reader thread hands each reply to the pending
//! table by id. `session` namespaces device state per client
//! endpoint: a [`NetServer::host_sessions`] server creates one device per
//! `(session, rank)` pair on first use, so concurrent clients never
//! clobber each other's tables.
//!
//! # What this link adds to the shared rules
//!
//! - **Connections are lazy** and re-established with bounded backoff
//!   when broken; `secndp_net_reconnects_total` counts the churn, and
//!   reconnects within the health window degrade the `net-epN`
//!   component, as does a rank with no live connection.
//! - **Route-scoped failure.** A reader that sees EOF, a reset or an
//!   unframeable reply fails exactly the requests in flight on its own
//!   `(rank, generation)`: idempotent ones are re-sent, a
//!   `Load` surfaces [`Error::ConnectionLost`] at once.
//! - **The socket is untrusted.** Nothing here adds integrity: a byte
//!   flipped on the wire is caught by the same checksum-tag verification
//!   that catches a tampering device, and an undecodable reply is a typed
//!   [`Error::MalformedResponse`] — never a panic.
//!
//! [`Error::FrameTooLarge`]: crate::Error::FrameTooLarge
//! [`Error::ConnectionLost`]: crate::Error::ConnectionLost
//! [`Error::MalformedResponse`]: crate::Error::MalformedResponse

// Every byte a socket delivers may come from the untrusted side.
#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

use crate::device::NdpDevice;
use crate::endpoint::{locked, Completer, Endpoint, EndpointConfig, Link, LinkFail, Route};
use crate::error::Error;
use crate::wire::{self, ServeScratch};
use std::collections::HashMap;
use std::io::{self, IoSlice, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

/// Largest wire frame the net framing will carry, in bytes. A declared
/// length above this is rejected *before* any allocation — a 4-byte
/// header must not be able to command a multi-gigabyte buffer.
pub const MAX_NET_FRAME: usize = 64 << 20;

/// Sentinel `len` value requesting a graceful server drain (see the
/// [module docs](self)).
pub const SHUTDOWN_SENTINEL: u32 = u32::MAX;

/// Bytes of request header after the length prefix (id + session + rank).
const REQ_HEADER: usize = 8 + 8 + 4;

/// Bytes of reply header after the length prefix (id).
const REPLY_HEADER: usize = 8;

/// Socket read-timeout tick: blocked reads wake this often to check
/// shutdown flags, so teardown never waits on a silent peer.
const IO_TICK: Duration = Duration::from_millis(50);

/// The endpoint configuration, under the name it had when the TCP
/// transport kept its own.
pub type NetConfig = EndpointConfig;

/// An endpoint over TCP sockets.
pub type TcpEndpoint = Endpoint<TcpLink>;

/// One length-prefixed record off a socket, or why there is none.
enum Record {
    /// Everything after the length prefix: header, then wire frame.
    Payload(Vec<u8>),
    /// The peer sent [`SHUTDOWN_SENTINEL`].
    Sentinel,
    /// The declared length cannot hold a header plus one frame byte, or
    /// exceeds [`MAX_NET_FRAME`]: the stream cannot be resynchronized.
    BadLen(usize),
    /// EOF (a torn record is an EOF), an I/O error, or `stopped()` rose.
    Closed,
}

/// Fills `buf` from `stream`, tolerating arbitrarily torn reads (the
/// stream has an [`IO_TICK`] read timeout; timeouts just loop) and polling
/// `stopped` on every tick so teardown is never held hostage by a silent
/// peer. `false` on EOF, error or stop.
fn read_full(stream: &mut TcpStream, buf: &mut [u8], stopped: &impl Fn() -> bool) -> bool {
    let mut pos = 0;
    while pos < buf.len() {
        if stopped() {
            return false;
        }
        match stream.read(&mut buf[pos..]) {
            Ok(0) => return false,
            Ok(n) => pos += n,
            Err(e)
                if matches!(
                    e.kind(),
                    io::ErrorKind::WouldBlock
                        | io::ErrorKind::TimedOut
                        | io::ErrorKind::Interrupted
                ) => {}
            Err(_) => return false,
        }
    }
    true
}

/// Reads one record whose payload starts with a `header`-byte transport
/// header — the one reader both ends of the socket use. The length is
/// range-checked before the payload buffer is allocated.
fn read_record(stream: &mut TcpStream, header: usize, stopped: impl Fn() -> bool) -> Record {
    let mut len_buf = [0u8; 4];
    if !read_full(stream, &mut len_buf, &stopped) {
        return Record::Closed;
    }
    let len = u32::from_le_bytes(len_buf);
    if len == SHUTDOWN_SENTINEL {
        return Record::Sentinel;
    }
    let len = len as usize;
    if !(header + 1..=MAX_NET_FRAME + header).contains(&len) {
        return Record::BadLen(len);
    }
    let mut payload = vec![0u8; len];
    if !read_full(stream, &mut payload, &stopped) {
        return Record::Closed;
    }
    Record::Payload(payload)
}

/// Little-endian `u64` at `at`. Callers index inside the transport header,
/// which [`read_record`] has checked the payload is longer than.
fn u64_at(payload: &[u8], at: usize) -> u64 {
    let mut b = [0u8; 8];
    b.copy_from_slice(&payload[at..at + 8]);
    u64::from_le_bytes(b)
}

/// Writes one record — length prefix, `header`, `frame` — with a single
/// gathered write in the common case and no copy of the frame.
fn write_record(stream: &mut TcpStream, header: &[u8], frame: &[u8]) -> io::Result<()> {
    let mut head = [0u8; 4 + REQ_HEADER];
    let head = &mut head[..4 + header.len()];
    head[..4].copy_from_slice(&((header.len() + frame.len()) as u32).to_le_bytes());
    head[4..].copy_from_slice(header);
    let total = head.len() + frame.len();
    let mut sent = 0;
    while sent < total {
        let n = if sent < head.len() {
            stream.write_vectored(&[IoSlice::new(&head[sent..]), IoSlice::new(frame)])
        } else {
            stream.write(&frame[sent - head.len()..])
        };
        match n {
            Ok(0) => return Err(io::ErrorKind::WriteZero.into()),
            Ok(n) => sent += n,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    Ok(())
}

// ---------------------------------------------------------------------------
// Server
// ---------------------------------------------------------------------------

/// How a host turns an incoming wire frame into a reply frame, written
/// into `out`. A [`NetServer`] shares one instance (behind a mutex) among
/// its connection threads; an [`InlineLink`](crate::transport::InlineLink)
/// holds one per rank. Either way a host serves one frame at a time.
pub(crate) trait FrameHost: Send {
    fn serve_frame(&mut self, session: u64, rank: u32, frame: &[u8], out: &mut Vec<u8>);
}

/// A single device serving every session and rank — the backend of a
/// [`TcpEndpoint::self_hosted`] endpoint, which owns one wrapped device,
/// and each rank of an in-caller link.
pub(crate) struct DeviceHost<D> {
    device: D,
    scratch: ServeScratch,
}

impl<D> DeviceHost<D> {
    pub(crate) fn new(device: D) -> Self {
        Self {
            device,
            scratch: ServeScratch::default(),
        }
    }
}

impl<D: NdpDevice + Send> FrameHost for DeviceHost<D> {
    fn serve_frame(&mut self, _session: u64, _rank: u32, frame: &[u8], out: &mut Vec<u8>) {
        wire::serve_or_reply_into(&mut self.device, frame, &mut self.scratch, out);
    }
}

/// Lazily creates one device per `(session, rank)` — the multi-client
/// standalone server. Sessions are never evicted; a long-lived public
/// server would pair this with an idle-session reaper.
struct SessionHost<D, F> {
    make: F,
    devices: HashMap<(u64, u32), D>,
    scratch: ServeScratch,
}

impl<D, F> FrameHost for SessionHost<D, F>
where
    D: NdpDevice + Send,
    F: Fn(u64, u32) -> D + Send,
{
    fn serve_frame(&mut self, session: u64, rank: u32, frame: &[u8], out: &mut Vec<u8>) {
        let dev = self
            .devices
            .entry((session, rank))
            .or_insert_with(|| (self.make)(session, rank));
        wire::serve_or_reply_into(dev, frame, &mut self.scratch, out);
    }
}

/// A TCP listener hosting NDP devices behind the net framing: one thread
/// per connection, frames dispatched through [`wire::serve_or_reply`] so
/// even decodable-but-invalid requests get a typed error reply instead of
/// a dropped connection.
pub struct NetServer {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    listener: Option<JoinHandle<()>>,
    /// Threads of connections that may still be open: the acceptor drops
    /// finished ones on every accept, so a connect-and-close flood cannot
    /// grow it without bound.
    conns: Arc<Mutex<Vec<JoinHandle<()>>>>,
}

impl std::fmt::Debug for NetServer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("NetServer")
            .field("addr", &self.addr)
            .field("stopping", &self.stop.load(Ordering::SeqCst))
            .finish()
    }
}

impl NetServer {
    /// Hosts one shared device: every session and rank hits the same
    /// instance (the self-hosted single-client topology).
    ///
    /// # Errors
    ///
    /// Propagates the listener bind (or acceptor spawn) failure.
    pub fn host_device<D: NdpDevice + Send + 'static>(
        device: D,
        addr: impl ToSocketAddrs,
    ) -> io::Result<Self> {
        Self::bind(Box::new(DeviceHost::new(device)), addr)
    }

    /// Hosts per-client devices: `make(session, rank)` builds a fresh
    /// device the first time that pair appears, so concurrent clients are
    /// isolated from each other (the multi-client topology the
    /// `secndp-server` binary runs).
    ///
    /// # Errors
    ///
    /// Propagates the listener bind (or acceptor spawn) failure.
    pub fn host_sessions<D, F>(make: F, addr: impl ToSocketAddrs) -> io::Result<Self>
    where
        D: NdpDevice + Send + 'static,
        F: Fn(u64, u32) -> D + Send + 'static,
    {
        Self::bind(
            Box::new(SessionHost {
                make,
                devices: HashMap::new(),
                scratch: ServeScratch::default(),
            }),
            addr,
        )
    }

    fn bind(host: Box<dyn FrameHost>, addr: impl ToSocketAddrs) -> io::Result<Self> {
        // Touch the server-side instrument so it exists (as zero) in
        // exported metrics before the first violation.
        crate::metrics::net_rejected_frames();
        let listener = TcpListener::bind(addr)?;
        let addr = listener.local_addr()?;
        let stop = Arc::new(AtomicBool::new(false));
        let conns: Arc<Mutex<Vec<JoinHandle<()>>>> = Arc::new(Mutex::new(Vec::new()));
        let host = Arc::new(Mutex::new(host));
        let accept_stop = Arc::clone(&stop);
        let accept_conns = Arc::clone(&conns);
        let listener_thread = std::thread::Builder::new()
            .name("secndp-net-accept".into())
            .spawn(move || {
                for stream in listener.incoming() {
                    if accept_stop.load(Ordering::SeqCst) {
                        break;
                    }
                    let Ok(stream) = stream else { continue };
                    let _ = stream.set_nodelay(true);
                    let _ = stream.set_read_timeout(Some(IO_TICK));
                    let host = Arc::clone(&host);
                    let stop = Arc::clone(&accept_stop);
                    let spawned = std::thread::Builder::new()
                        .name("secndp-net-conn".into())
                        .spawn(move || connection_loop(stream, host, stop, addr));
                    let mut conns = locked(&accept_conns);
                    conns.retain(|h| !h.is_finished());
                    match spawned {
                        Ok(handle) => conns.push(handle),
                        // Out of threads (a connection flood): the closure
                        // and its socket are dropped, this peer sees a
                        // close, and the acceptor keeps serving.
                        Err(_) => crate::metrics::net_rejected_frames().inc(),
                    }
                }
            })?;
        Ok(Self {
            addr,
            stop,
            listener: Some(listener_thread),
            conns,
        })
    }

    /// The bound address (resolves `:0` to the ephemeral port).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Whether a drain was requested (by [`shutdown`](Self::shutdown) or
    /// a client's [`SHUTDOWN_SENTINEL`] frame).
    pub fn is_stopping(&self) -> bool {
        self.stop.load(Ordering::SeqCst)
    }

    /// Raises the drain flag and wakes the acceptor; does not join.
    pub fn shutdown(&self) {
        self.stop.store(true, Ordering::SeqCst);
        // Self-connect so the blocking accept observes the flag.
        let _ = TcpStream::connect(self.addr);
    }

    /// Blocks until the server has drained: the acceptor exits (after a
    /// [`shutdown`](Self::shutdown) or a client-sent sentinel) and every
    /// connection thread finishes its in-flight frame and joins.
    pub fn wait(&mut self) {
        if let Some(h) = self.listener.take() {
            let _ = h.join();
        }
        let handles = std::mem::take(&mut *locked(&self.conns));
        for h in handles {
            let _ = h.join();
        }
    }
}

impl Drop for NetServer {
    fn drop(&mut self) {
        self.shutdown();
        self.wait();
    }
}

/// Per-connection server loop: reads request records, dispatches through
/// the shared host, writes reply records. Every framing violation —
/// garbage preamble, truncated or oversized length, torn frame — closes
/// *this* connection (counted, never a panic); the listener keeps serving
/// everyone else.
fn connection_loop(
    mut stream: TcpStream,
    host: Arc<Mutex<Box<dyn FrameHost>>>,
    stop: Arc<AtomicBool>,
    server_addr: SocketAddr,
) {
    let mut reply = Vec::new();
    loop {
        let payload = match read_record(&mut stream, REQ_HEADER, || stop.load(Ordering::SeqCst)) {
            Record::Payload(payload) => payload,
            Record::Sentinel => {
                // Graceful drain: acknowledge by echoing the sentinel,
                // raise the flag, and wake the acceptor so it exits too.
                let _ = stream.write_all(&SHUTDOWN_SENTINEL.to_le_bytes());
                stop.store(true, Ordering::SeqCst);
                let _ = TcpStream::connect(server_addr);
                return;
            }
            Record::BadLen(_) => {
                crate::metrics::net_rejected_frames().inc();
                let _ = stream.shutdown(Shutdown::Both);
                return;
            }
            Record::Closed => return,
        };
        let session = u64_at(&payload, 8);
        let rank = u32::from_le_bytes([payload[16], payload[17], payload[18], payload[19]]);
        locked(&host).serve_frame(session, rank, &payload[REQ_HEADER..], &mut reply);
        // The reply header is the request id, echoed.
        if write_record(&mut stream, &payload[..REPLY_HEADER], &reply).is_err() {
            return;
        }
    }
}

// ---------------------------------------------------------------------------
// Client
// ---------------------------------------------------------------------------

/// Liveness vitals for one rank's connection, feeding the `net-epN`
/// health component.
#[derive(Debug, Default)]
pub struct ConnVitals {
    /// Currently-established connections.
    live: AtomicUsize,
    /// Whether this rank ever connected (a rank that was never used is
    /// idle, not down).
    ever: AtomicBool,
}

impl ConnVitals {
    /// Currently-established connections to this rank (0 or 1).
    pub fn live_connections(&self) -> usize {
        self.live.load(Ordering::Relaxed)
    }

    /// Whether the rank has ever had an established connection.
    pub fn ever_connected(&self) -> bool {
        self.ever.load(Ordering::Relaxed)
    }

    /// Connected in the past but holds no live connection now.
    pub fn disconnected(&self) -> bool {
        self.ever_connected() && self.live_connections() == 0
    }
}

/// One established connection: the writing half plus its reader thread.
struct LiveConn {
    stream: TcpStream,
    gen: u64,
    alive: Arc<AtomicBool>,
    reader: Option<JoinHandle<()>>,
    vitals: Arc<ConnVitals>,
}

impl Drop for LiveConn {
    fn drop(&mut self) {
        // The swap makes the live-count decrement exactly-once between
        // this drop and the reader thread's own exit path.
        if self.alive.swap(false, Ordering::SeqCst) {
            self.vitals.live.fetch_sub(1, Ordering::Relaxed);
        }
        let _ = self.stream.shutdown(Shutdown::Both);
        if let Some(h) = self.reader.take() {
            let _ = h.join();
        }
    }
}

/// A rank's connection slot. `next_gen` monotonically labels successive
/// connections so a stale reader cannot fail a successor's requests.
struct ConnCell {
    conn: Option<LiveConn>,
    next_gen: u64,
}

/// One rank: a server address plus its one connection, which every caller
/// multiplexes over.
struct RankConn {
    addr: String,
    cell: Mutex<ConnCell>,
    vitals: Arc<ConnVitals>,
}

/// Process-unique session ids: the pid keeps concurrent *processes*
/// apart on a shared server, the counter keeps concurrent endpoints in
/// one process apart.
fn fresh_session() -> u64 {
    static SEQ: AtomicU64 = AtomicU64::new(1);
    (u64::from(std::process::id()) << 32) | (SEQ.fetch_add(1, Ordering::Relaxed) & 0xFFFF_FFFF)
}

/// The [`Link`] to [`NetServer`] ranks, one TCP connection each: see the
/// [module docs](self).
pub struct TcpLink {
    ranks: Vec<RankConn>,
    done: Completer,
    session: u64,
    stop: Arc<AtomicBool>,
    /// Socket write timeout: the request deadline, at least one tick.
    write_timeout: Duration,
    connect_retries: u32,
    connect_backoff: Duration,
    /// The private loopback server of a self-hosted endpoint; dropped
    /// after the connections so teardown drains cleanly.
    self_server: Option<NetServer>,
}

impl std::fmt::Debug for TcpLink {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TcpLink")
            .field("ranks", &self.ranks.len())
            .field("session", &self.session)
            .field("self_hosted", &self.self_server.is_some())
            .finish()
    }
}

impl Endpoint<TcpLink> {
    /// Connects to external server(s): one rank per entry of `cfg.addrs`.
    /// Connections are lazy — no I/O happens until the first request.
    ///
    /// # Errors
    ///
    /// Returns [`Error::MalformedResponse`] when `cfg.addrs` is empty (a
    /// TCP endpoint with zero ranks could answer nothing).
    pub fn connect(cfg: NetConfig) -> Result<Self, Error> {
        require_addrs(&cfg)?;
        Ok(Self::over_tcp(cfg, None))
    }

    /// Spawns a private loopback [`NetServer`] hosting `device` and
    /// connects a single-rank endpoint to it: every frame crosses a real
    /// kernel TCP socket while the device semantics (honest, tampering,
    /// delayed, …) are fully preserved. Wrapped in
    /// [`RemoteNdp::tcp_backed`](crate::wire::RemoteNdp::tcp_backed), it
    /// is the socket twin of [`RemoteNdp::inline`](crate::wire::RemoteNdp::inline).
    ///
    /// # Errors
    ///
    /// Propagates the loopback bind failure.
    pub fn self_hosted<D: NdpDevice + Send + 'static>(
        device: D,
        cfg: NetConfig,
    ) -> io::Result<Self> {
        let server = NetServer::host_device(device, "127.0.0.1:0")?;
        let mut cfg = cfg;
        cfg.addrs = vec![server.local_addr().to_string()];
        Ok(Self::over_tcp(cfg, Some(server)))
    }

    fn over_tcp(cfg: NetConfig, self_server: Option<NetServer>) -> Self {
        let ranks = cfg.addrs.len();
        Self::with_link(cfg.clone(), ranks, |done| {
            TcpLink::open(&cfg, self_server, done)
        })
    }
}

/// A TCP endpoint with zero ranks could answer nothing.
pub(crate) fn require_addrs(cfg: &NetConfig) -> Result<(), Error> {
    if cfg.addrs.is_empty() {
        return Err(Error::MalformedResponse {
            reason: "tcp endpoint needs at least one rank address",
        });
    }
    Ok(())
}

impl TcpLink {
    /// One lazily connected rank per entry of `cfg.addrs`, completing
    /// through `done`. `self_server` is dropped after the connections.
    pub(crate) fn open(cfg: &NetConfig, self_server: Option<NetServer>, done: Completer) -> Self {
        // Touch the link's instruments so they exist (as zeros) in
        // exported metrics before the first connection.
        crate::metrics::net_reconnects();
        crate::metrics::net_conn_failures();
        let ranks = cfg
            .addrs
            .iter()
            .map(|addr| RankConn {
                addr: addr.clone(),
                cell: Mutex::new(ConnCell {
                    conn: None,
                    next_gen: 0,
                }),
                vitals: Arc::new(ConnVitals::default()),
            })
            .collect();
        TcpLink {
            ranks,
            done,
            session: fresh_session(),
            stop: Arc::new(AtomicBool::new(false)),
            write_timeout: cfg.timeout.max(IO_TICK),
            connect_retries: cfg.connect_retries,
            connect_backoff: cfg.connect_backoff,
            self_server,
        }
    }

    /// Connection vitals of `rank`.
    pub fn vitals(&self, rank: usize) -> &ConnVitals {
        &self.ranks[rank].vitals
    }

    /// Establishes (or re-establishes) the connection in `cell`, retrying
    /// with backoff up to `connect_retries` times. Returns its generation.
    fn ensure_connected(&self, cell: &mut ConnCell, rank: usize) -> Result<u64, LinkFail> {
        if let Some(c) = &cell.conn {
            if c.alive.load(Ordering::SeqCst) {
                return Ok(c.gen);
            }
        }
        // Dropping the dead connection joins its reader before dialing,
        // keeping the thread count bounded across reconnect storms.
        let reconnect = cell.conn.take().is_some() || cell.next_gen > 0;
        let peer = &self.ranks[rank];
        let mut attempt = 0u32;
        let stream = loop {
            match TcpStream::connect(&peer.addr) {
                Ok(s) => break s,
                Err(_) if attempt < self.connect_retries => {
                    attempt += 1;
                    std::thread::sleep(self.connect_backoff);
                }
                Err(_) => return Err(LinkFail::ConnLost),
            }
        };
        let _ = stream.set_nodelay(true);
        let _ = stream.set_write_timeout(Some(self.write_timeout));
        let reader_stream = stream.try_clone().map_err(|_| LinkFail::ConnLost)?;
        let _ = reader_stream.set_read_timeout(Some(IO_TICK));
        let gen = cell.next_gen;
        let alive = Arc::new(AtomicBool::new(true));
        let reader = {
            let done = Arc::clone(&self.done);
            let alive = Arc::clone(&alive);
            let stop = Arc::clone(&self.stop);
            let vitals = Arc::clone(&peer.vitals);
            let route = (rank, gen);
            std::thread::Builder::new()
                .name("secndp-net-reader".into())
                .spawn(move || reader_loop(reader_stream, done, alive, stop, vitals, route))
                .map_err(|_| LinkFail::ConnLost)?
        };
        cell.next_gen += 1;
        if reconnect {
            crate::metrics::net_reconnects().inc();
        }
        peer.vitals.live.fetch_add(1, Ordering::Relaxed);
        peer.vitals.ever.store(true, Ordering::Relaxed);
        cell.conn = Some(LiveConn {
            stream,
            gen,
            alive,
            reader: Some(reader),
            vitals: Arc::clone(&peer.vitals),
        });
        Ok(gen)
    }
}

impl Link for TcpLink {
    const KIND: &'static str = "net";
    const CHURN: Option<(&'static str, &'static str)> =
        Some(("secndp_net_reconnects_total", "tcp reconnect"));

    fn ranks(&self) -> usize {
        self.ranks.len()
    }

    fn route(&self, rank: usize) -> Result<Route, LinkFail> {
        let mut cell = locked(&self.ranks[rank].cell);
        let gen = self.ensure_connected(&mut cell, rank)?;
        Ok((rank, gen))
    }

    fn send(&self, route: Route, id: u64, frame: &Arc<Vec<u8>>) -> Result<(), LinkFail> {
        if frame.len() > MAX_NET_FRAME {
            return Err(LinkFail::TooLarge(frame.len()));
        }
        let (rank, gen) = route;
        let mut cell = locked(&self.ranks[rank].cell);
        // The connection `route` picked may have died (or been replaced)
        // since; its reader has then already failed this request.
        let conn = cell
            .conn
            .as_mut()
            .filter(|c| c.gen == gen && c.alive.load(Ordering::SeqCst))
            .ok_or(LinkFail::ConnLost)?;
        let mut header = [0u8; REQ_HEADER];
        header[..8].copy_from_slice(&id.to_le_bytes());
        header[8..16].copy_from_slice(&self.session.to_le_bytes());
        header[16..].copy_from_slice(&(rank as u32).to_le_bytes());
        write_record(&mut conn.stream, &header, frame).map_err(|_| {
            // The write tore mid-record: the stream cannot be reused.
            // Dropping it joins the reader, which fails every request
            // in flight on this route (and counts them).
            cell.conn = None;
            LinkFail::ConnLost
        })
    }

    fn down(&self) -> Vec<usize> {
        (0..self.ranks.len())
            .filter(|&i| self.ranks[i].vitals.disconnected())
            .collect()
    }
}

impl Drop for TcpLink {
    fn drop(&mut self) {
        // Stop the readers, close every connection, then drain the
        // loopback server.
        self.stop.store(true, Ordering::SeqCst);
        for rank in &self.ranks {
            locked(&rank.cell).conn = None;
        }
        self.self_server.take();
    }
}

/// Reader half of one connection: hands reply records to the pending
/// table by request id. When the connection ends — close, reset, an
/// unframeable reply, local teardown — it fails whatever is still in
/// flight on its own route, and nothing else.
fn reader_loop(
    mut stream: TcpStream,
    done: Completer,
    alive: Arc<AtomicBool>,
    stop: Arc<AtomicBool>,
    vitals: Arc<ConnVitals>,
    route: Route,
) {
    let stopped = || !alive.load(Ordering::SeqCst) || stop.load(Ordering::SeqCst);
    let why = loop {
        match read_record(&mut stream, REPLY_HEADER, stopped) {
            Record::Payload(mut payload) => {
                let id = u64_at(&payload, 0);
                payload.drain(..REPLY_HEADER);
                done.complete(id, payload);
            }
            Record::BadLen(len) => break LinkFail::TooLarge(len),
            // A sentinel is the server acknowledging a drain: the
            // connection is over.
            Record::Sentinel | Record::Closed => break LinkFail::ConnLost,
        }
    };
    // Exactly-once live-count decrement (see LiveConn::drop).
    if alive.swap(false, Ordering::SeqCst) {
        vitals.live.fetch_sub(1, Ordering::Relaxed);
    }
    crate::metrics::net_conn_failures().add(done.fail(route, why) as u64);
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
mod tests {
    use super::*;
    use crate::device::HonestNdp;

    /// A connect-and-close flood must not leave the server holding a
    /// thread handle per connection ever accepted: finished ones are
    /// dropped on the next accept.
    #[test]
    fn closed_connections_do_not_accumulate_handles() {
        let server = NetServer::host_device(HonestNdp::new(), "127.0.0.1:0").unwrap();
        let cycle = || drop(TcpStream::connect(server.local_addr()).unwrap());
        (0..200).for_each(|_| cycle());
        // Each further accept reaps whatever finished since the last one;
        // once the 200 threads have seen their close, a handful remain.
        let deadline = std::time::Instant::now() + Duration::from_secs(10);
        loop {
            cycle();
            let retained = locked(&server.conns).len();
            if retained <= 8 {
                break;
            }
            assert!(
                std::time::Instant::now() < deadline,
                "{retained} handles still retained after 200 closed connections"
            );
            std::thread::yield_now();
        }
    }

    /// A length prefix over the frame cap is refused before any
    /// allocation, closes that connection and counts in
    /// `secndp_net_rejected_frames_total`; the server still answers a
    /// well-framed request on the next connection.
    #[cfg(feature = "telemetry")]
    #[test]
    fn unframeable_record_is_counted_and_the_server_keeps_serving() {
        let mut dev = HonestNdp::new();
        dev.load(0x1, vec![7u8; 64], 16, None).unwrap();
        let server = NetServer::host_device(dev, "127.0.0.1:0").unwrap();
        let rejected = crate::metrics::net_rejected_frames();
        let before = rejected.get();

        let mut bad = TcpStream::connect(server.local_addr()).unwrap();
        bad.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
        let over_cap = (REQ_HEADER + MAX_NET_FRAME + 1) as u32;
        bad.write_all(&over_cap.to_le_bytes()).unwrap();
        // The server counts the record, then shuts the socket: EOF here.
        assert_eq!(bad.read(&mut [0u8; 1]).unwrap_or(0), 0);
        assert!(rejected.get() > before, "rejection not counted");

        let mut good = TcpStream::connect(server.local_addr()).unwrap();
        good.set_read_timeout(Some(IO_TICK)).unwrap();
        let frame = wire::Request::ReadRow {
            table_addr: 0x1,
            row: 1,
        }
        .encode()
        .unwrap();
        let mut header = [0u8; REQ_HEADER];
        header[..8].copy_from_slice(&42u64.to_le_bytes());
        write_record(&mut good, &header, &frame).unwrap();
        let deadline = std::time::Instant::now() + Duration::from_secs(5);
        let Record::Payload(reply) = read_record(&mut good, REPLY_HEADER, || {
            std::time::Instant::now() > deadline
        }) else {
            panic!("no reply after a rejected connection");
        };
        assert_eq!(u64_at(&reply, 0), 42, "reply must echo the request id");
        assert_eq!(
            wire::Response::decode(&reply[REPLY_HEADER..]).unwrap(),
            wire::Response::Row(vec![7u8; 16])
        );
    }
}
