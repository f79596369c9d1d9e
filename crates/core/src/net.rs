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
//! one connection, and whichever of them the endpoint gave the rank's
//! reader role hands each reply back by id. `session` namespaces
//! device state per client endpoint: a [`NetServer::host_sessions`]
//! server creates one device per `(session, rank)` pair on first use, so
//! concurrent clients never clobber each other's tables.
//!
//! # What this link adds to the shared rules
//!
//! Who reads a connection, and when, is the endpoint's decision (DESIGN.md
//! "Endpoint and links"); this link has no thread of its own and only
//! moves bytes.
//!
//! - **Connections are lazy** and re-established with bounded backoff
//!   when broken; `secndp_net_reconnects_total` counts the churn, and
//!   reconnects within the health window degrade the `net-epN`
//!   component, as does a rank with no live connection.
//! - **A reply is read whole** once its first byte is: a peer that stalls
//!   mid-reply past the reader's deadline ends the connection.
//! - **Route-scoped failure.** EOF, a reset, an unframeable reply or a
//!   torn write ends exactly one `(rank, generation)`, whose requests the
//!   endpoint then fails: idempotent ones are re-sent, a `Load` surfaces
//!   [`Error::ConnectionLost`] at once.
//! - **The socket is untrusted.** Nothing here adds integrity: a byte
//!   flipped on the wire is caught by the same checksum-tag verification
//!   that catches a tampering device, and an undecodable reply is a typed
//!   [`Error::MalformedResponse`] — never a panic.
//!
//! [`Error::FrameTooLarge`]: crate::Error::FrameTooLarge
//! [`Error::ConnectionLost`]: crate::Error::ConnectionLost
//! [`Error::MalformedResponse`]: crate::Error::MalformedResponse

use crate::device::NdpDevice;
use crate::endpoint::{locked, Endpoint, EndpointConfig, Got, Link, LinkFail, Route};
use crate::error::Error;
use crate::wire::{self, ServeScratch};
use std::collections::HashMap;
use std::io::{self, IoSlice, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::ops::Range;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

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

/// A server connection's read-timeout tick: a blocked read wakes this
/// often to check the drain flag, so teardown never waits on a silent
/// peer. Also the floor of a client's write timeout.
const IO_TICK: Duration = Duration::from_millis(50);

/// The endpoint configuration, under the name it had when the TCP
/// transport kept its own.
pub type NetConfig = EndpointConfig;

/// An endpoint over TCP sockets.
pub type TcpEndpoint = Endpoint<TcpLink>;

/// Room of the buffer each end reads its socket through: one `read` takes
/// what has arrived up to this much, so a length prefix and a typical
/// frame behind it — often several records — cost one syscall.
const INBUF: usize = 8 << 10;

/// Bytes read off a socket ahead of the parser; a record is parsed where
/// it lies.
struct Inbuf {
    bytes: Vec<u8>,
    /// First byte not yet parsed.
    at: usize,
    /// One past the last byte read.
    end: usize,
}

/// What an [`Inbuf`] holds next.
enum Next {
    /// A whole record, consumed: its payload (transport header, then wire
    /// frame) lies at this range of the buffer.
    Record(Range<usize>),
    /// Not all of it yet: the declared length, once the prefix is in.
    Short(Option<usize>),
    /// The peer sent [`SHUTDOWN_SENTINEL`].
    Sentinel,
    /// The declared length cannot hold a header plus one frame byte, or
    /// exceeds [`MAX_NET_FRAME`]: the stream cannot be resynchronized.
    BadLen(usize),
}

impl Inbuf {
    fn new() -> Self {
        Self {
            bytes: vec![0; INBUF],
            at: 0,
            end: 0,
        }
    }

    fn unparsed(&self) -> &[u8] {
        &self.bytes[self.at..self.end]
    }

    fn clear(&mut self) {
        (self.at, self.end) = (0, 0);
    }

    /// Parses the next record, whose payload starts with a `header`-byte
    /// transport header, consuming it if it is whole. The length is
    /// range-checked before it is used.
    fn next(&mut self, header: usize) -> Next {
        let Some(prefix) = self.unparsed().first_chunk::<4>() else {
            return Next::Short(None);
        };
        let len = u32::from_le_bytes(*prefix);
        if len == SHUTDOWN_SENTINEL {
            self.at += 4;
            return Next::Sentinel;
        }
        let len = len as usize;
        if !(header + 1..=MAX_NET_FRAME + header).contains(&len) {
            return Next::BadLen(len);
        }
        if self.end - self.at < 4 + len {
            return Next::Short(Some(len));
        }
        let payload = self.at + 4;
        self.at = payload + len;
        Next::Record(payload..self.at)
    }

    /// One `read` from `stream` into the free room, after moving the
    /// unparsed bytes to the front when the `whole` bytes of the record
    /// they start would not fit behind them, and growing a buffer full of
    /// that record towards `whole` bytes: by what has arrived, never ahead
    /// of it, so a declared length commits no memory by itself.
    fn fill(&mut self, mut stream: &TcpStream, whole: usize) -> io::Result<usize> {
        if self.at == self.end {
            self.clear();
        } else if self.at + whole > self.bytes.len() {
            self.bytes.copy_within(self.at..self.end, 0);
            (self.at, self.end) = (0, self.end - self.at);
        }
        if self.end == self.bytes.len() {
            self.bytes.resize(whole.min(2 * self.bytes.len()), 0);
        }
        let n = stream.read(&mut self.bytes[self.end..])?;
        self.end += n;
        Ok(n)
    }
}

/// A read that only timed out or was interrupted: try again.
fn retryable(e: &io::Error) -> bool {
    matches!(
        e.kind(),
        io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut | io::ErrorKind::Interrupted
    )
}

/// Little-endian `u64` at `at`. Callers index inside the transport header,
/// which [`Inbuf::next`] has checked the payload is longer than.
fn u64_at(payload: &[u8], at: usize) -> u64 {
    let mut b = [0u8; 8];
    b.copy_from_slice(&payload[at..at + 8]);
    u64::from_le_bytes(b)
}

/// Writes one record — length prefix, `header`, `frame` — with a single
/// gathered write in the common case and no copy of the frame.
fn write_record(mut stream: &TcpStream, header: &[u8], frame: &[u8]) -> io::Result<()> {
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
/// the shared host, writes reply records. Each request is served where it
/// lies in the connection's read buffer, which grows to the longest
/// record and is kept, as the reply buffer is. Every framing violation —
/// garbage preamble, truncated or oversized length, torn frame — closes
/// *this* connection (counted, never a panic); the listener keeps serving
/// everyone else.
fn connection_loop(
    stream: TcpStream,
    host: Arc<Mutex<Box<dyn FrameHost>>>,
    stop: Arc<AtomicBool>,
    server_addr: SocketAddr,
) {
    let mut inbuf = Inbuf::new();
    let mut reply = Vec::new();
    // The stream has an IO_TICK read timeout, so a silent peer never holds
    // teardown hostage: a drain finishes the frame being served, and no
    // other.
    while !stop.load(Ordering::SeqCst) {
        let whole = match inbuf.next(REQ_HEADER) {
            Next::Record(at) => {
                let payload = &inbuf.bytes[at];
                let session = u64_at(payload, 8);
                let rank = u32::from_le_bytes([payload[16], payload[17], payload[18], payload[19]]);
                locked(&host).serve_frame(session, rank, &payload[REQ_HEADER..], &mut reply);
                // The reply header is the request id, echoed.
                if write_record(&stream, &payload[..REPLY_HEADER], &reply).is_err() {
                    return;
                }
                continue;
            }
            Next::Short(len) => 4 + len.unwrap_or(0),
            Next::Sentinel => {
                // Graceful drain: acknowledge by echoing the sentinel,
                // raise the flag, and wake the acceptor so it exits too.
                let _ = (&stream).write_all(&SHUTDOWN_SENTINEL.to_le_bytes());
                stop.store(true, Ordering::SeqCst);
                let _ = TcpStream::connect(server_addr);
                return;
            }
            Next::BadLen(_) => {
                crate::metrics::net_rejected_frames().inc();
                let _ = stream.shutdown(Shutdown::Both);
                return;
            }
        };
        // A torn record is an EOF.
        match inbuf.fill(&stream, whole) {
            Ok(0) => return,
            Ok(_) => {}
            Err(e) if retryable(&e) => {}
            Err(_) => return,
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

/// One established connection: written by whoever holds its rank's
/// `cell`, read by whoever holds its rank's reader role.
struct Conn {
    stream: TcpStream,
    gen: u64,
    /// Cleared exactly once, by [`TcpLink::kill`].
    alive: AtomicBool,
}

/// A rank's connection slot. `next_gen` monotonically labels successive
/// connections so a stale route cannot fail a successor's requests.
struct ConnCell {
    conn: Option<Arc<Conn>>,
    next_gen: u64,
}

/// What a rank's reader reads through. The endpoint gives the reader role
/// to one thread at a time, so its lock is never contended for long.
struct Inbox {
    /// The connection to read, put here by the dial that made it.
    conn: Option<Arc<Conn>>,
    /// Replies as they arrive; like a server's request buffer, it grows
    /// to the longest record and is kept.
    buf: Inbuf,
    /// Bytes of the record under way, once its length is in.
    want: usize,
    /// The socket's read timeout as last set; `None` until the first
    /// read sets one.
    timeout: Option<Duration>,
}

impl Inbox {
    /// The reader role over `conn`, with nothing read yet.
    fn new(conn: Option<Arc<Conn>>) -> Self {
        Self {
            conn,
            buf: Inbuf::new(),
            want: 0,
            timeout: None,
        }
    }

    /// Hands over the next whole reply buffered, returning `false` when
    /// there is none yet.
    fn step(&mut self, got: Got) -> Result<bool, LinkFail> {
        let (id, frame) = match self.buf.next(REPLY_HEADER) {
            Next::Record(at) => {
                let payload = &self.buf.bytes[at];
                (u64_at(payload, 0), payload[REPLY_HEADER..].to_vec())
            }
            Next::Short(len) => {
                self.want = 4 + len.unwrap_or(0);
                return Ok(false);
            }
            Next::BadLen(len) => return Err(LinkFail::TooLarge(len)),
            // A sentinel is the server acknowledging a drain: the
            // connection is over.
            Next::Sentinel => return Err(LinkFail::ConnLost),
        };
        got(id, frame);
        Ok(true)
    }

    /// Reads replies off `conn` into `got` until at least one has been
    /// handed over and none is left half-read, or until `deadline`,
    /// returning how many it handed over. A deadline already past makes
    /// one read of what has arrived, waiting at most one tick of the
    /// socket's timer, and may leave a reply half-read for the next reader.
    ///
    /// # Errors
    ///
    /// The connection is over: EOF, a reset, an unframeable reply, or a
    /// peer that stalled mid-reply past the deadline.
    fn read(&mut self, conn: &Conn, deadline: Instant, got: Got) -> Result<usize, LinkFail> {
        let wait = Instant::now() < deadline;
        let (mut handed, mut tried) = (0, false);
        loop {
            while self.step(got)? {
                handed += 1;
            }
            let started = !self.buf.unparsed().is_empty();
            if handed > 0 && !started {
                return Ok(handed);
            }
            let left = deadline.saturating_duration_since(Instant::now());
            if left.is_zero() && tried {
                return if started && wait {
                    Err(LinkFail::ConnLost)
                } else {
                    Ok(handed)
                };
            }
            tried = true;
            self.time_out(conn, left)?;
            match self.buf.fill(&conn.stream, self.want) {
                Ok(0) => return Err(LinkFail::ConnLost),
                Ok(_) => {}
                Err(e) if retryable(&e) => {}
                Err(_) => return Err(LinkFail::ConnLost),
            }
        }
    }

    /// Keeps the socket's read timeout within `left` of now, so a read
    /// returns by the deadline, while changing it (a syscall) only when it
    /// is past `left` or well short of it: a run of replies that each
    /// arrive well inside a fresh deadline reads with the timeout as it is.
    fn time_out(&mut self, conn: &Conn, left: Duration) -> Result<(), LinkFail> {
        let set = match self.timeout {
            Some(t) if t <= left && t >= left / 4 => return Ok(()),
            Some(t) if t > left => left,
            _ => left / 2,
        };
        // A zero timeout would mean none at all.
        let set = set.max(Duration::from_micros(1));
        conn.stream
            .set_read_timeout(Some(set))
            .map_err(|_| LinkFail::ConnLost)?;
        self.timeout = Some(set);
        Ok(())
    }
}

/// One rank: a server address plus its one connection, which every caller
/// multiplexes over.
struct RankConn {
    addr: String,
    cell: Mutex<ConnCell>,
    inbox: Mutex<Inbox>,
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
    session: u64,
    /// Socket write timeout: the request deadline, at least one tick.
    write_timeout: Duration,
    connect_retries: u32,
    connect_backoff: Duration,
    /// The private loopback server of a self-hosted endpoint; dropped
    /// after the connections so teardown drains cleanly.
    self_server: Option<NetServer>,
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
        let link = TcpLink::open(&cfg, self_server);
        Self::with_link(cfg, link)
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
    /// One lazily connected rank per entry of `cfg.addrs`. `self_server`
    /// is dropped after the connections.
    pub(crate) fn open(cfg: &NetConfig, self_server: Option<NetServer>) -> Self {
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
                inbox: Mutex::new(Inbox::new(None)),
                vitals: Arc::new(ConnVitals::default()),
            })
            .collect();
        TcpLink {
            ranks,
            session: fresh_session(),
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
    /// with backoff up to `connect_retries` times, and hands it to the
    /// rank's reader role. Returns its generation.
    fn ensure_connected(&self, cell: &mut ConnCell, rank: usize) -> Result<u64, LinkFail> {
        if let Some(c) = &cell.conn {
            if c.alive.load(Ordering::SeqCst) {
                return Ok(c.gen);
            }
        }
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
        let conn = Arc::new(Conn {
            stream,
            gen: cell.next_gen,
            alive: AtomicBool::new(true),
        });
        // A reader of the dead connection it replaces has already left:
        // the connection died of what it read, or was shut under it.
        *locked(&peer.inbox) = Inbox::new(Some(Arc::clone(&conn)));
        cell.next_gen += 1;
        if reconnect {
            crate::metrics::net_reconnects().inc();
        }
        peer.vitals.live.fetch_add(1, Ordering::Relaxed);
        peer.vitals.ever.store(true, Ordering::Relaxed);
        let gen = conn.gen;
        cell.conn = Some(conn);
        Ok(gen)
    }

    /// Ends `conn`, the connection of `rank`, exactly once, whoever sees it
    /// die first — its reader (EOF, a reset, an unframeable or stalled
    /// reply), a writer whose record tore, teardown: it leaves the rank's
    /// live count and its socket is shut.
    fn kill(&self, rank: usize, conn: &Conn) {
        if conn.alive.swap(false, Ordering::SeqCst) {
            self.ranks[rank].vitals.live.fetch_sub(1, Ordering::Relaxed);
            let _ = conn.stream.shutdown(Shutdown::Both);
        }
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

    fn send(&self, route: Route, id: u64, frame: &[u8], _: Got) -> Result<bool, LinkFail> {
        if frame.len() > MAX_NET_FRAME {
            return Err(LinkFail::TooLarge(frame.len()));
        }
        let (rank, gen) = route;
        let cell = locked(&self.ranks[rank].cell);
        // The connection `route` picked may have died (or been replaced)
        // since; its requests have then already failed.
        let conn = cell
            .conn
            .as_ref()
            .filter(|c| c.gen == gen && c.alive.load(Ordering::SeqCst))
            .ok_or(LinkFail::ConnLost)?;
        let mut header = [0u8; REQ_HEADER];
        header[..8].copy_from_slice(&id.to_le_bytes());
        header[8..16].copy_from_slice(&self.session.to_le_bytes());
        header[16..].copy_from_slice(&(rank as u32).to_le_bytes());
        match write_record(&conn.stream, &header, frame) {
            Ok(()) => Ok(true),
            Err(_) => {
                // The write tore mid-record: the stream cannot be reused.
                self.kill(rank, conn);
                Err(LinkFail::ConnLost)
            }
        }
    }

    fn read(&self, route: Route, deadline: Instant, got: Got) -> Result<usize, LinkFail> {
        let (rank, gen) = route;
        let mut inbox = locked(&self.ranks[rank].inbox);
        // The route may have died (or been replaced) since it was picked.
        let conn = inbox
            .conn
            .clone()
            .filter(|c| c.gen == gen && c.alive.load(Ordering::SeqCst))
            .ok_or(LinkFail::ConnLost)?;
        inbox
            .read(&conn, deadline, got)
            .inspect_err(|_| self.kill(rank, &conn))
    }

    fn down(&self) -> Vec<usize> {
        (0..self.ranks.len())
            .filter(|&i| self.ranks[i].vitals.disconnected())
            .collect()
    }
}

impl Drop for TcpLink {
    fn drop(&mut self) {
        // Close every connection, then drain the loopback server.
        for (rank, peer) in self.ranks.iter().enumerate() {
            if let Some(conn) = locked(&peer.cell).conn.take() {
                self.kill(rank, &conn);
            }
        }
        self.self_server.take();
    }
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

        let good = TcpStream::connect(server.local_addr()).unwrap();
        good.set_read_timeout(Some(IO_TICK)).unwrap();
        let frame = wire::Request::ReadRow {
            table_addr: 0x1,
            row: 1,
        }
        .encode()
        .unwrap();
        let mut header = [0u8; REQ_HEADER];
        header[..8].copy_from_slice(&42u64.to_le_bytes());
        write_record(&good, &header, &frame).unwrap();
        let deadline = Instant::now() + Duration::from_secs(5);
        let mut inbuf = Inbuf::new();
        let reply = loop {
            match inbuf.next(REPLY_HEADER) {
                Next::Record(at) => break inbuf.bytes[at].to_vec(),
                Next::Short(_) => {
                    assert!(
                        Instant::now() < deadline,
                        "no reply after a rejected connection"
                    );
                    let _ = inbuf.fill(&good, INBUF);
                }
                _ => panic!("unframeable reply"),
            }
        };
        assert_eq!(u64_at(&reply, 0), 42, "reply must echo the request id");
        assert_eq!(
            wire::Response::decode(&reply[REPLY_HEADER..]).unwrap(),
            wire::Response::Row(vec![7u8; 16])
        );
    }
}
