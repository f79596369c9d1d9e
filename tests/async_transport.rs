//! The endpoint conformance suite: one set of scenarios, run over every
//! [`Link`] — `WorkerLink` (in-process rank threads) and `TcpLink`
//! (sockets to in-process `NetServer`s, one per rank). The completion
//! core is shared, so each rule is checked once here and must hold on
//! both: differential ≡ blocking ≡ plaintext, batch ≡ pipelined ≡ single
//! (results and errors), out-of-order `poll`, window backpressure (one
//! submitter, eight, and one asleep on a full window when its route
//! dies), stall → `DeviceTimeout` + counter, retry onto a healthy rank,
//! `Load` never retried, `wait` twice is a typed error, a duplicate reply
//! is counted late, pipelined verified batches (with tamper detection) at
//! every window against every packet length, a packet that fails part-way
//! abandoning what it had sent ahead, and no waiter left asleep by a
//! completion that skipped its wake-up. Socket-only cases (hostile framing, torn writes, MITM,
//! kill/respawn, drain) live in `tests/net_transport.rs`; one rides here
//! because it shares the duplicate-reply rig's rogue server: a `Sum` reply
//! of ragged length is a typed error, not a panic.
//!
//! The file keeps the name it had when it covered the worker link alone.

use std::io::{Read, Write};
use std::net::TcpListener;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{mpsc, Arc, Mutex, MutexGuard};
use std::time::{Duration, Instant};

use secndp::arith::mersenne::Fq;
use secndp::arith::ring::RingWord;
use secndp::core::device::{DelayedNdp, NdpResponse, Tamper, TamperingNdp};
use secndp::core::fault::PlannedFault;
use secndp::core::net::{NetServer, TcpLink};
use secndp::core::transport::WorkerLink;
use secndp::core::wire::{self, RemoteNdp, Request, Response};
use secndp::core::{
    AsyncEndpoint, Endpoint, EndpointConfig, Error, FaultInjector, FaultKind, HonestNdp, Link,
    NdpDevice, SecretKey, TcpEndpoint, TrustedProcessor,
};

const ROWS: usize = 32;
const COLS: usize = 8;
const ADDR: u64 = 0x7000;

/// An endpoint over link `L`, plus whatever must outlive it (declared
/// after it, so dropped after it).
struct Rigged<L: Link> {
    ep: Endpoint<L>,
    /// Behind a lock so [`kill`](Self::kill) works on a shared rig.
    _keep: Mutex<Vec<NetServer>>,
    /// The worker link's fault hook, where a scenario needs one.
    chaos: Option<Arc<FaultInjector>>,
}

impl<L: Link> Rigged<L> {
    /// Makes the next reply arrive twice, on links where that takes
    /// arming (the duplicating socket server does it unasked).
    fn duplicate_next_reply(&self) {
        if let Some(injector) = &self.chaos {
            injector.arm(PlannedFault {
                op: 0,
                rank: 0,
                kind: FaultKind::DuplicateReply,
            });
        }
    }

    /// Takes rank 0 of a [`Rig::mortal`] endpoint down for good: the
    /// worker link's rank thread exits at its next frame without
    /// replying; the socket link's server goes away.
    fn kill(&self) {
        match &self.chaos {
            Some(injector) => injector.arm(PlannedFault {
                op: 0,
                rank: 0,
                kind: FaultKind::RankCrash,
            }),
            None => self._keep.lock().unwrap().clear(),
        }
    }
}

/// How to stand up an endpoint over one kind of link.
trait Rig {
    type L: Link;

    /// One rank per device.
    fn ranks<D: NdpDevice + Send + 'static>(
        devices: Vec<D>,
        cfg: EndpointConfig,
    ) -> Rigged<Self::L>;

    /// A `RemoteNdp` riding a default-configured single-rank endpoint.
    fn remote<D: NdpDevice + Send + 'static>(device: D) -> RemoteNdp<D>;

    /// One honest rank whose every reply arrives twice.
    fn duplicating() -> Rigged<Self::L>;

    /// One rank that [`Rigged::kill`] can take down.
    fn mortal<D: NdpDevice + Send + 'static>(device: D, cfg: EndpointConfig) -> Rigged<Self::L>;
}

struct Worker;
struct Tcp;

impl Rig for Worker {
    type L = WorkerLink;

    fn ranks<D: NdpDevice + Send + 'static>(
        devices: Vec<D>,
        cfg: EndpointConfig,
    ) -> Rigged<WorkerLink> {
        Rigged {
            ep: AsyncEndpoint::new(devices, cfg),
            _keep: Mutex::default(),
            chaos: None,
        }
    }

    fn remote<D: NdpDevice + Send + 'static>(device: D) -> RemoteNdp<D> {
        RemoteNdp::async_backed(device, EndpointConfig::default())
    }

    fn duplicating() -> Rigged<WorkerLink> {
        let injector = Arc::new(FaultInjector::new());
        Rigged {
            ep: AsyncEndpoint::new_with_faults(
                vec![HonestNdp::new()],
                EndpointConfig::default(),
                Arc::clone(&injector),
            ),
            _keep: Mutex::default(),
            chaos: Some(injector),
        }
    }

    fn mortal<D: NdpDevice + Send + 'static>(device: D, cfg: EndpointConfig) -> Rigged<WorkerLink> {
        let injector = Arc::new(FaultInjector::new());
        Rigged {
            ep: AsyncEndpoint::new_with_faults(vec![device], cfg, Arc::clone(&injector)),
            _keep: Mutex::default(),
            chaos: Some(injector),
        }
    }
}

impl Rig for Tcp {
    type L = TcpLink;

    fn ranks<D: NdpDevice + Send + 'static>(
        devices: Vec<D>,
        cfg: EndpointConfig,
    ) -> Rigged<TcpLink> {
        let servers: Vec<NetServer> = devices
            .into_iter()
            .map(|d| NetServer::host_device(d, "127.0.0.1:0").unwrap())
            .collect();
        let addrs = servers.iter().map(|s| s.local_addr().to_string()).collect();
        Rigged {
            ep: TcpEndpoint::connect(EndpointConfig { addrs, ..cfg }).unwrap(),
            _keep: Mutex::new(servers),
            chaos: None,
        }
    }

    fn remote<D: NdpDevice + Send + 'static>(device: D) -> RemoteNdp<D> {
        RemoteNdp::tcp_backed(TcpEndpoint::self_hosted(device, EndpointConfig::default()).unwrap())
    }

    fn duplicating() -> Rigged<TcpLink> {
        Rigged {
            ep: rogue_server(|reply| vec![reply.clone(), reply]),
            _keep: Mutex::default(),
            chaos: None,
        }
    }

    fn mortal<D: NdpDevice + Send + 'static>(device: D, cfg: EndpointConfig) -> Rigged<TcpLink> {
        Self::ranks(vec![device], cfg)
    }
}

/// An endpoint connected to a hand-rolled socket server: net framing in,
/// an honest device behind it, and for every reply frame the frames
/// `rewrite` makes of it out, one record each. One connection is all a
/// pool of one ever opens.
fn rogue_server(rewrite: fn(Vec<u8>) -> Vec<Vec<u8>>) -> TcpEndpoint {
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addrs = vec![listener.local_addr().unwrap().to_string()];
    std::thread::spawn(move || {
        let (mut conn, _) = listener.accept().unwrap();
        let mut dev = HonestNdp::new();
        let mut len = [0u8; 4];
        while conn.read_exact(&mut len).is_ok() {
            let mut payload = vec![0u8; u32::from_le_bytes(len) as usize];
            if conn.read_exact(&mut payload).is_err() {
                return;
            }
            // payload = req_id(8) | session(8) | rank(4) | frame.
            let mut records = Vec::new();
            for reply in rewrite(wire::serve_or_reply(&mut dev, &payload[20..])) {
                records.extend_from_slice(&((8 + reply.len()) as u32).to_le_bytes());
                records.extend_from_slice(&payload[..8]);
                records.extend_from_slice(&reply);
            }
            if conn.write_all(&records).is_err() {
                return;
            }
        }
    });
    TcpEndpoint::connect(EndpointConfig {
        addrs,
        ..EndpointConfig::default()
    })
    .unwrap()
}

/// Runs a scenario over every link.
macro_rules! on_every_link {
    ($scenario:ident) => {{
        $scenario::<Worker>();
        $scenario::<Tcp>();
    }};
}

/// Scenarios that assert exact counter movement hold this, so no other
/// scenario's timeouts land in their delta.
fn counters() -> MutexGuard<'static, ()> {
    static SERIAL: Mutex<()> = Mutex::new(());
    SERIAL.lock().unwrap_or_else(|e| e.into_inner())
}

#[cfg(feature = "telemetry")]
fn counter(name: &'static str) -> u64 {
    secndp::telemetry::global()
        .snapshot()
        .metrics
        .iter()
        .find(|m| m.name == name)
        .and_then(|m| match m.value {
            secndp::telemetry::Value::Counter(v) => Some(v),
            _ => None,
        })
        .unwrap_or(0)
}

fn plaintext() -> Vec<u32> {
    (0..ROWS * COLS).map(|x| (x * 37 + 11) as u32).collect()
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

fn read_row(row: u64) -> Request {
    Request::ReadRow {
        table_addr: ADDR,
        row,
    }
}

/// The endpoint (4 jittered ranks, genuinely reordering completions)
/// must return exactly what the blocking in-process wire path returns —
/// which must equal the plaintext ground truth.
fn differential<R: Rig>() {
    let pt = plaintext();
    let qs = queries(24, 0xD1FF);

    // Blocking leg: classic RemoteNdp over an in-process device.
    let mut cpu = TrustedProcessor::new(SecretKey::derive_from_seed(0xA51));
    let mut ndp = RemoteNdp::inline(HonestNdp::new());
    let table = cpu.encrypt_table(&pt, ROWS, COLS, ADDR).unwrap();
    let handle = cpu.publish(&table, &mut ndp).unwrap();
    let blocking = cpu.weighted_sum_batch(&handle, &ndp, &qs, true).unwrap();

    // Pipelined leg: 4 ranks with distinct jitter streams, so replies
    // genuinely complete out of submission order.
    let mut cpu = TrustedProcessor::new(SecretKey::derive_from_seed(0xA52));
    let ranks: Vec<DelayedNdp<HonestNdp>> = (0..4)
        .map(|r| {
            DelayedNdp::with_jitter(
                HonestNdp::new(),
                Duration::from_micros(50),
                Duration::from_micros(900),
                0xBEEF ^ ((r as u64) << 17),
            )
        })
        .collect();
    let mut rig = R::ranks(
        ranks,
        EndpointConfig {
            window: 8,
            timeout: Duration::from_secs(10),
            ..EndpointConfig::default()
        },
    );
    let table = cpu.encrypt_table(&pt, ROWS, COLS, ADDR).unwrap();
    let handle = cpu.publish(&table, &mut rig.ep).unwrap();
    let pipelined = cpu
        .weighted_sum_batch_pipelined(&handle, &rig.ep, &qs, true)
        .unwrap();

    // Single-query leg: a RemoteNdp riding the link.
    let mut cpu = TrustedProcessor::new(SecretKey::derive_from_seed(0xA53));
    let mut remote = R::remote(DelayedNdp::with_jitter(
        HonestNdp::new(),
        Duration::from_micros(50),
        Duration::from_micros(500),
        0x5A5A,
    ));
    let table = cpu.encrypt_table(&pt, ROWS, COLS, ADDR).unwrap();
    let handle = cpu.publish(&table, &mut remote).unwrap();

    for (qi, (idx, w)) in qs.iter().enumerate() {
        let want = expected(&pt, idx, w);
        assert_eq!(blocking[qi], want, "blocking leg diverged on query {qi}");
        assert_eq!(pipelined[qi], want, "pipelined leg diverged on query {qi}");
        let one = cpu.weighted_sum(&handle, &remote, idx, w, true).unwrap();
        assert_eq!(one, want, "single-query leg diverged on query {qi}");
    }
}

#[test]
fn async_endpoint_matches_blocking_path_differentially() {
    on_every_link!(differential);
}

/// How [`SpoilNth`] spoils the one reply it spoils.
#[derive(Debug, Clone, Copy)]
enum Spoil {
    /// A wrong value in `c_res`.
    Value,
    /// No `c_t_res`, though a tag was asked for.
    NoTag,
    /// `c_res` one element short.
    Width,
}

/// An honest device, except for its `at`-th weighted sum (from 0).
#[derive(Debug)]
struct SpoilNth {
    inner: HonestNdp,
    at: usize,
    how: Spoil,
    sums: AtomicUsize,
}

impl SpoilNth {
    fn new(at: usize, how: Spoil) -> Self {
        Self {
            inner: HonestNdp::new(),
            at,
            how,
            sums: AtomicUsize::new(0),
        }
    }
}

impl NdpDevice for SpoilNth {
    fn load(
        &mut self,
        table_addr: u64,
        ciphertext: Vec<u8>,
        row_bytes: usize,
        tags: Option<Vec<Fq>>,
    ) -> Result<(), Error> {
        self.inner.load(table_addr, ciphertext, row_bytes, tags)
    }

    fn weighted_sum<W: RingWord>(
        &self,
        table_addr: u64,
        indices: &[usize],
        weights: &[W],
        with_tag: bool,
    ) -> Result<NdpResponse<W>, Error> {
        let mut reply = self
            .inner
            .weighted_sum(table_addr, indices, weights, with_tag)?;
        if self.sums.fetch_add(1, Ordering::Relaxed) == self.at {
            match self.how {
                Spoil::Value => reply.c_res[0] = reply.c_res[0].wadd(W::ONE),
                Spoil::NoTag => reply.c_t_res = None,
                Spoil::Width => drop(reply.c_res.pop()),
            }
        }
        Ok(reply)
    }

    fn read_row(&self, table_addr: u64, row: usize) -> Result<Vec<u8>, Error> {
        self.inner.read_row(table_addr, row)
    }
}

/// The three ways to run a packet — the blocking batch, the pipelined
/// batch, a loop of single queries — share one reconstruct-and-verify
/// path, so over any link they return the same vectors, and for a packet
/// that goes wrong at query `K` the same error: whether the device spoiled
/// that reply (a wrong value, a missing tag, a short result) or the caller
/// asked for a row that does not exist — and then nothing is sent at all.
fn batch_equals_single<R: Rig>() {
    const K: usize = 5;
    let pt = plaintext();
    let qs = queries(12, 0xBA7C);
    let mut cpu = TrustedProcessor::new(SecretKey::derive_from_seed(0xE9));
    let table = cpu.encrypt_table(&pt, ROWS, COLS, ADDR).unwrap();

    // Each leg gets a device of its own from `device`, so the K-th sum is
    // the K-th query on every leg (one rank: replies in request order).
    // The loop's result is its first error, after checking that every
    // query before it came back right.
    let legs = |device: &dyn Fn() -> SpoilNth, qs: &[(Vec<usize>, Vec<u32>)]| {
        let mut remote = R::remote(device());
        let handle = cpu.publish(&table, &mut remote).unwrap();
        let batch = cpu.weighted_sum_batch(&handle, &remote, qs, true);

        let mut rig = R::ranks(vec![device()], EndpointConfig::default());
        cpu.publish(&table, &mut rig.ep).unwrap();
        let served = rig.ep.served(0);
        let pipelined = cpu.weighted_sum_batch_pipelined(&handle, &rig.ep, qs, true);
        let sent = rig.ep.served(0) - served;

        let mut remote = R::remote(device());
        cpu.publish(&table, &mut remote).unwrap();
        let singles: Result<Vec<_>, Error> = qs
            .iter()
            .map(|(idx, w)| {
                let one = cpu.weighted_sum(&handle, &remote, idx, w, true)?;
                assert_eq!(one, expected(&pt, idx, w));
                Ok(one)
            })
            .collect();
        (batch, pipelined, singles, sent)
    };

    let honest = || SpoilNth::new(usize::MAX, Spoil::Value);
    let (batch, pipelined, singles, sent) = legs(&honest, &qs);
    let want: Vec<_> = qs.iter().map(|(idx, w)| expected(&pt, idx, w)).collect();
    assert_eq!(batch.unwrap(), want);
    assert_eq!(pipelined.unwrap(), want);
    assert_eq!(singles.unwrap(), want);
    assert_eq!(sent, qs.len() as u64);

    for how in [Spoil::Value, Spoil::NoTag, Spoil::Width] {
        let (batch, pipelined, singles, _) = legs(&|| SpoilNth::new(K, how), &qs);
        let err = singles.unwrap_err();
        match how {
            Spoil::Value => assert_eq!(err, Error::VerificationFailed { table_addr: ADDR }),
            _ => assert!(matches!(err, Error::MalformedResponse { .. }), "{err:?}"),
        }
        assert_eq!(batch.unwrap_err(), err, "batch, {how:?}");
        assert_eq!(pipelined.unwrap_err(), err, "pipelined, {how:?}");
    }
    // The two malformed replies are told apart.
    let reason = |how| legs(&|| SpoilNth::new(K, how), &qs).2.unwrap_err();
    assert_ne!(reason(Spoil::NoTag), reason(Spoil::Width));

    let mut bad = qs.clone();
    bad[K].0[0] = ROWS;
    let (batch, pipelined, singles, sent) = legs(&honest, &bad);
    let err = Error::RowOutOfBounds {
        index: ROWS,
        rows: ROWS,
    };
    assert_eq!(singles.unwrap_err(), err);
    assert_eq!(batch.unwrap_err(), err);
    assert_eq!(pipelined.unwrap_err(), err);
    assert_eq!(sent, 0, "a packet with an invalid query was partly sent");
}

#[test]
fn batch_pipelined_and_single_queries_agree_on_results_and_errors() {
    on_every_link!(batch_equals_single);
}

/// What a request on a dead or silent rank may fail with — never a panic,
/// never an untyped error. (`MalformedResponse` is the worker link's word
/// for a rank thread that is gone.)
fn typed_failure(e: &Error) -> bool {
    matches!(
        e,
        Error::DeviceTimeout { .. }
            | Error::ConnectionLost { .. }
            | Error::MalformedResponse { .. }
    )
}

/// Requests answered first by any rank.
fn served_total<L: Link>(ep: &Endpoint<L>) -> u64 {
    (0..ep.ranks()).map(|r| ep.served(r)).sum()
}

/// The pipelined packet keeps at most a window of its own requests
/// outstanding and prepares each query while its reply is on the way — at
/// the smallest windows (1: submit, prepare, wait, finish; 2 and 3: the
/// top-up runs every query) and the default, for packets shorter than the
/// window, exactly it, one longer and five times it. Three ranks of
/// different speeds complete out of order; the results come back in
/// submission order, equal to the blocking batch's and a loop of single
/// queries', and each packet redeems every id it was given. A packet
/// holding an out-of-range index still sends nothing.
fn pipelined_windows<R: Rig>() {
    let pt = plaintext();
    let qs = queries(5 * 32, 0x91BE);
    let mut cpu = TrustedProcessor::new(SecretKey::derive_from_seed(0x3157));
    let table = cpu.encrypt_table(&pt, ROWS, COLS, ADDR).unwrap();

    // The blocking legs once, over the longest packet: every shorter one
    // is a prefix of it.
    let mut remote = R::remote(HonestNdp::new());
    let handle = cpu.publish(&table, &mut remote).unwrap();
    let batch = cpu.weighted_sum_batch(&handle, &remote, &qs, true).unwrap();
    for ((idx, w), got) in qs.iter().zip(&batch) {
        assert_eq!(got, &expected(&pt, idx, w));
        assert_eq!(
            &cpu.weighted_sum(&handle, &remote, idx, w, true).unwrap(),
            got
        );
    }

    for window in [1, 2, 3, 32] {
        let ranks = [0, 150, 40]
            .into_iter()
            .map(|us| DelayedNdp::new(HonestNdp::new(), Duration::from_micros(us)))
            .collect();
        let mut rig = R::ranks(
            ranks,
            EndpointConfig {
                window,
                timeout: Duration::from_secs(10),
                ..EndpointConfig::default()
            },
        );
        cpu.publish(&table, &mut rig.ep).unwrap();
        for n in [1, window - 1, window, window + 1, 5 * window] {
            let before = served_total(&rig.ep);
            let got = cpu
                .weighted_sum_batch_pipelined(&handle, &rig.ep, &qs[..n], true)
                .unwrap();
            assert_eq!(got, batch[..n], "window {window}, {n} queries");
            assert_eq!(rig.ep.in_flight(), 0, "window {window}, {n} queries");
            assert_eq!(served_total(&rig.ep) - before, n as u64);
        }

        let mut bad = qs[..window + 1].to_vec();
        bad[window].0[0] = ROWS;
        let before = served_total(&rig.ep);
        assert_eq!(
            cpu.weighted_sum_batch_pipelined(&handle, &rig.ep, &bad, true),
            Err(Error::RowOutOfBounds {
                index: ROWS,
                rows: ROWS,
            })
        );
        assert_eq!(served_total(&rig.ep), before, "an invalid packet was sent");
    }
}

#[test]
fn pipelined_packets_agree_at_every_window_and_length() {
    on_every_link!(pipelined_windows);
}

/// A packet that fails at query `K` — a spoiled value, a missing tag, a
/// short result, or its rank dying under it — has requests sent ahead that
/// nobody will wait for. They are abandoned with the packet: their window
/// credits come back at once, so the endpoint serves the next, honest
/// packet as if nothing had happened. (That their slots and retained
/// frames are freed too is pinned where the table can be seen, in
/// `core::endpoint`'s unit test.)
fn failed_packet_abandons<R: Rig>() {
    const K: usize = 5;
    let _serial = counters(); // the killed rank times requests out
    let pt = plaintext();
    let qs = queries(24, 0xAB4D);
    let want: Vec<_> = qs.iter().map(|(idx, w)| expected(&pt, idx, w)).collect();
    let mut cpu = TrustedProcessor::new(SecretKey::derive_from_seed(0x1EAC));
    let table = cpu.encrypt_table(&pt, ROWS, COLS, ADDR).unwrap();
    // Window 4: when reply K is refused, K+1..K+3 are out and the rest of
    // the packet is not yet sent.
    let cfg = EndpointConfig {
        window: 4,
        ..EndpointConfig::default()
    };

    for how in [Spoil::Value, Spoil::NoTag, Spoil::Width] {
        let mut rig = R::ranks(vec![SpoilNth::new(K, how)], cfg.clone());
        let handle = cpu.publish(&table, &mut rig.ep).unwrap();
        let err = cpu
            .weighted_sum_batch_pipelined(&handle, &rig.ep, &qs, true)
            .unwrap_err();
        assert!(err.is_integrity_violation(), "{how:?}: {err:?}");
        assert_eq!(
            rig.ep.in_flight(),
            0,
            "{how:?}: abandoned requests kept credits"
        );
        let next = cpu.weighted_sum_batch_pipelined(&handle, &rig.ep, &qs, true);
        assert_eq!(next.unwrap(), want, "{how:?}: the next packet");
        assert_eq!(rig.ep.in_flight(), 0);
    }

    // The only rank dies a few queries into a 24-query packet.
    let mut rig = R::mortal(
        DelayedNdp::new(HonestNdp::new(), Duration::from_millis(2)),
        EndpointConfig {
            timeout: Duration::from_millis(300),
            max_retries: 0,
            connect_retries: 2,
            connect_backoff: Duration::from_millis(5),
            ..cfg
        },
    );
    let handle = cpu.publish(&table, &mut rig.ep).unwrap();
    let err = std::thread::scope(|s| {
        s.spawn(|| {
            std::thread::sleep(Duration::from_millis(15));
            rig.kill();
        });
        cpu.weighted_sum_batch_pipelined(&handle, &rig.ep, &qs, true)
            .unwrap_err()
    });
    assert!(typed_failure(&err), "untyped failure {err:?}");
    assert_eq!(rig.ep.in_flight(), 0, "a dead rank's packet kept credits");
}

#[test]
fn failed_packet_abandons_its_outstanding_requests() {
    on_every_link!(failed_packet_abandons);
}

/// A fast rank's reply must be redeemable through `poll` while a slow
/// rank's earlier request is still in flight — completion order is
/// decoupled from submission order.
fn out_of_order_poll<R: Rig>() {
    let mut cpu = TrustedProcessor::new(SecretKey::derive_from_seed(0x00D));
    let slow = DelayedNdp::new(HonestNdp::new(), Duration::from_millis(300));
    let fast = DelayedNdp::new(HonestNdp::new(), Duration::ZERO);
    let mut rig = R::ranks(
        vec![slow, fast],
        EndpointConfig {
            timeout: Duration::from_secs(10),
            ..EndpointConfig::default()
        },
    );
    let pt = plaintext();
    let table = cpu.encrypt_table(&pt, ROWS, COLS, ADDR).unwrap();
    cpu.publish(&table, &mut rig.ep).unwrap();

    // Round-robin: the first submit lands on the slow rank, the second
    // on the fast one.
    let a = rig.ep.submit(&read_row(0)).unwrap();
    let b = rig.ep.submit(&read_row(1)).unwrap();

    let deadline = Instant::now() + Duration::from_secs(5);
    let b_result = loop {
        if let Some(r) = rig.ep.poll(b) {
            break r;
        }
        assert!(Instant::now() < deadline, "fast rank never completed");
        std::thread::sleep(Duration::from_micros(200));
    };
    b_result.unwrap();
    // The earlier request (slow rank) must still be pending when the
    // later one has already settled.
    assert!(
        rig.ep.poll(a).is_none(),
        "slow rank finished before its 300ms delay — completion order not exercised"
    );
    rig.ep.wait(a).unwrap();
}

#[test]
fn poll_redeems_completions_out_of_submission_order() {
    on_every_link!(out_of_order_poll);
}

/// A device holding the 4 × 16-byte table `read_row` reads.
fn four_rows() -> HonestNdp {
    let mut dev = HonestNdp::new();
    dev.load(ADDR, vec![0u8; 64], 16, None).unwrap();
    dev
}

/// Submitting more requests than the window must block until completions
/// free credits — `in_flight` never exceeds the window — at the smallest
/// windows (where a blocked submitter is woken by every completion) and at
/// one whose low-water mark batches the wake-ups.
fn window_backpressure<R: Rig>() {
    for (window, ranks) in [(1, 1), (2, 1), (2, 2), (8, 2)] {
        let rig = R::ranks(
            (0..ranks).map(|_| four_rows()).collect(),
            EndpointConfig {
                window,
                ..EndpointConfig::default()
            },
        );
        let ids: Vec<_> = (0..24)
            .map(|i| {
                let id = rig.ep.submit(&read_row(i % 4)).unwrap();
                assert!(rig.ep.in_flight() <= window, "window {window} violated");
                id
            })
            .collect();
        for id in ids {
            rig.ep.wait(id).unwrap();
        }
        assert_eq!(rig.ep.in_flight(), 0);
        let served: u64 = (0..ranks).map(|r| rig.ep.served(r)).sum();
        assert_eq!(served, 24, "window {window} over {ranks} rank(s)");
    }
}

#[test]
fn window_backpressure_caps_in_flight() {
    on_every_link!(window_backpressure);
}

/// How long a scenario's helper threads get before the scenario is
/// declared hung (a deadlocked submitter would otherwise hang the suite).
const WATCHDOG: Duration = Duration::from_secs(30);

/// Eight threads submitting through one endpoint — each keeps several
/// requests outstanding, so most submits find the window full — never put
/// more than `window` requests in flight and all run to completion.
fn many_submitters<R: Rig>() {
    const THREADS: usize = 8;
    const WINDOW: usize = 4;
    let slow = || DelayedNdp::new(four_rows(), Duration::from_micros(200));
    let rig = Arc::new(R::ranks(
        vec![slow(), slow()],
        EndpointConfig {
            window: WINDOW,
            timeout: Duration::from_secs(10),
            ..EndpointConfig::default()
        },
    ));
    let peak = Arc::new(AtomicUsize::new(0));
    let (done, finished) = mpsc::channel();
    for t in 0..THREADS {
        let (rig, peak, done) = (Arc::clone(&rig), Arc::clone(&peak), done.clone());
        std::thread::spawn(move || {
            for round in 0..10 {
                let ids: Vec<_> = (0..3)
                    .map(|i| {
                        let id = rig.ep.submit(&read_row((t + round + i) as u64 % 4));
                        peak.fetch_max(rig.ep.in_flight(), Ordering::Relaxed);
                        id.unwrap()
                    })
                    .collect();
                for id in ids {
                    rig.ep.wait(id).unwrap();
                }
            }
            done.send(()).unwrap();
        });
    }
    for _ in 0..THREADS {
        finished
            .recv_timeout(WATCHDOG)
            .expect("a submitter deadlocked (or died) on the window");
    }
    assert!(peak.load(Ordering::Relaxed) <= WINDOW, "window violated");
    assert_eq!(rig.ep.in_flight(), 0);
    assert_eq!(rig.ep.served(0) + rig.ep.served(1), (THREADS * 30) as u64);
}

#[test]
fn eight_submitters_share_the_window_without_deadlock() {
    on_every_link!(many_submitters);
}

/// A submitter asleep on a full window whose only rank then dies must come
/// back with a typed error — as must every request the rank took with it —
/// and the window must end up empty. The window's other requests never
/// complete, so it never drains to the low-water mark: the failure paths
/// have to wake the sleeper themselves.
fn route_dies_under_a_parked_submitter<R: Rig>() {
    const WINDOW: usize = 4;
    let _serial = counters(); // this scenario times requests out
    let rig = Arc::new(R::mortal(
        DelayedNdp::new(four_rows(), Duration::from_millis(100)),
        EndpointConfig {
            window: WINDOW,
            timeout: Duration::from_millis(400),
            max_retries: 0,
            connect_retries: 2,
            connect_backoff: Duration::from_millis(5),
            ..EndpointConfig::default()
        },
    ));
    // Fill the window; the rank takes 100 ms over the first request.
    let doomed: Vec<_> = (0..WINDOW)
        .map(|i| rig.ep.submit(&read_row(i as u64 % 4)).unwrap())
        .collect();
    let (done, finished) = mpsc::channel();
    let sleeper = Arc::clone(&rig);
    std::thread::spawn(move || {
        let outcome = sleeper
            .ep
            .submit(&read_row(1))
            .and_then(|id| sleeper.ep.wait(id));
        done.send(outcome).unwrap();
    });
    // Let the extra submitter reach the full window before the rank dies
    // under it; the assertions hold in any order.
    std::thread::sleep(Duration::from_millis(50));
    rig.kill();

    let typed = |e: &Error| {
        matches!(
            e,
            Error::DeviceTimeout { .. }
                | Error::ConnectionLost { .. }
                | Error::MalformedResponse { .. }
        )
    };
    let mut failures = 0;
    for id in doomed {
        // The request the rank was serving when it died is still answered.
        if let Err(e) = rig.ep.wait(id) {
            assert!(typed(&e), "untyped failure {e:?}");
            failures += 1;
        }
    }
    assert!(failures > 0, "the dead rank failed nothing");
    let err = finished
        .recv_timeout(WATCHDOG)
        .expect("the parked submitter never woke")
        .expect_err("a dead rank served the parked submitter");
    assert!(typed(&err), "untyped failure {err:?}");
    assert_eq!(rig.ep.in_flight(), 0, "a failed request kept its credit");
}

#[test]
fn route_failure_wakes_a_parked_submitter_with_a_typed_error() {
    on_every_link!(route_dies_under_a_parked_submitter);
}

/// A completion wakes `wait`'s condvar only when somebody sleeps on it, and
/// the count of sleepers is kept under the same lock as the slots — so a
/// waiter either sees its reply before it sleeps or is counted before the
/// reply lands. Two threads, 10 000 submit-then-wait rounds each, against
/// a rank that replies at once (the reply races the waiter to the lock)
/// and one that replies late (the waiter is asleep): a skipped wake-up
/// would leave a waiter asleep until its 5 s deadline and fail its round
/// with `DeviceTimeout`. Then the failure side: a waiter asleep on a
/// request whose rank dies is woken by the dead route on the socket link —
/// before its deadline — and by its own deadline on the worker link,
/// whose crashed rank reports nothing.
fn no_waiter_left_asleep<R: Rig>() {
    const ROUNDS: usize = 10_000;
    let _serial = counters(); // the second half times a request out
    let rig = Arc::new(R::ranks(
        vec![
            DelayedNdp::new(four_rows(), Duration::ZERO),
            DelayedNdp::new(four_rows(), Duration::from_micros(50)),
        ],
        EndpointConfig {
            window: 4,
            timeout: Duration::from_secs(5),
            max_retries: 0,
            ..EndpointConfig::default()
        },
    ));
    let (done, finished) = mpsc::channel();
    for t in 0..2 {
        let (rig, done) = (Arc::clone(&rig), done.clone());
        std::thread::spawn(move || {
            for round in 0..ROUNDS {
                let id = rig.ep.submit(&read_row((t + round) as u64 % 4)).unwrap();
                if let Err(e) = rig.ep.wait(id) {
                    panic!("round {round}: {e:?}");
                }
            }
            done.send(()).unwrap();
        });
    }
    for _ in 0..2 {
        finished
            .recv_timeout(WATCHDOG)
            .expect("a waiter was left asleep (or its round failed)");
    }
    assert_eq!(rig.ep.in_flight(), 0);
    assert_eq!(rig.ep.served(0) + rig.ep.served(1), 2 * ROUNDS as u64);

    const DEADLINE: Duration = Duration::from_secs(2);
    let rig = Arc::new(R::mortal(
        DelayedNdp::new(four_rows(), Duration::from_millis(100)),
        EndpointConfig {
            timeout: DEADLINE,
            max_retries: 0,
            connect_retries: 2,
            connect_backoff: Duration::from_millis(5),
            ..EndpointConfig::default()
        },
    ));
    // The rank is busy with the first request when it dies; the second
    // is queued behind it and is never served.
    let served = rig.ep.submit(&read_row(0)).unwrap();
    let doomed = rig.ep.submit(&read_row(1)).unwrap();
    let (done, finished) = mpsc::channel();
    let sleeper = Arc::clone(&rig);
    std::thread::spawn(move || {
        let asleep = Instant::now();
        let outcome = sleeper.ep.wait(doomed);
        done.send((outcome, asleep.elapsed())).unwrap();
    });
    std::thread::sleep(Duration::from_millis(30));
    rig.kill();
    let (outcome, took) = finished
        .recv_timeout(WATCHDOG)
        .expect("the waiter on a dead rank never woke");
    let err = outcome.expect_err("a dead rank served the queued request");
    assert!(typed_failure(&err), "untyped failure {err:?}");
    if rig.chaos.is_none() {
        assert!(took < DEADLINE, "the dead route did not wake its waiter");
    }
    let _ = rig.ep.wait(served);
    assert_eq!(rig.ep.in_flight(), 0);
}

#[test]
fn completions_and_dead_routes_leave_no_waiter_asleep() {
    on_every_link!(no_waiter_left_asleep);
}

/// A redeemed id is gone: a second `wait` is a typed error, not a hang.
fn wait_twice<R: Rig>() {
    let mut dev = HonestNdp::new();
    dev.load(ADDR, vec![0u8; 64], 16, None).unwrap();
    let rig = R::ranks(vec![dev], EndpointConfig::default());
    let id = rig.ep.submit(&read_row(0)).unwrap();
    rig.ep.wait(id).unwrap();
    assert!(matches!(
        rig.ep.wait(id),
        Err(Error::MalformedResponse { .. })
    ));
    assert!(matches!(
        rig.ep.poll(id),
        Some(Err(Error::MalformedResponse { .. }))
    ));
}

#[test]
fn wait_twice_is_a_typed_error() {
    on_every_link!(wait_twice);
}

/// A device stall must surface as `Error::DeviceTimeout` after the
/// per-request deadline, with `secndp_transport_timeouts_total` — the
/// counter the default `timeout-spike` detector reads — moved by exactly
/// one, whichever link carried the request.
fn stall_times_out<R: Rig>() {
    let _serial = counters();
    let mut cpu = TrustedProcessor::new(SecretKey::derive_from_seed(0xDEAD));
    let stalled = DelayedNdp::new(HonestNdp::new(), Duration::from_millis(500));
    let mut rig = R::ranks(
        vec![stalled],
        EndpointConfig {
            timeout: Duration::from_millis(40),
            max_retries: 0,
            ..EndpointConfig::default()
        },
    );
    let pt = plaintext();
    let table = cpu.encrypt_table(&pt, ROWS, COLS, ADDR).unwrap();
    // Load passes straight through `DelayedNdp`, so publish succeeds;
    // only the data path stalls.
    let handle = cpu.publish(&table, &mut rig.ep).unwrap();

    // With telemetry compiled out the counters are no-op stubs.
    #[cfg(feature = "telemetry")]
    let before = counter("secndp_transport_timeouts_total");
    let err = cpu
        .weighted_sum(&handle, &rig.ep, &[0], &[1u32], true)
        .unwrap_err();
    match err {
        Error::DeviceTimeout { attempts, .. } => assert_eq!(attempts, 1),
        other => panic!("expected DeviceTimeout, got {other:?}"),
    }
    #[cfg(feature = "telemetry")]
    assert_eq!(counter("secndp_transport_timeouts_total") - before, 1);
    assert_eq!(rig.ep.in_flight(), 0, "the timed-out slot keeps no credit");
}

#[test]
fn stalled_rank_times_out_with_typed_error() {
    on_every_link!(stall_times_out);
}

/// After the slow rank misses its deadline, the retry must land on the
/// healthy rank and the verified result must still check out — one
/// timeout, one retry, and the slow rank's eventual reply a straggler.
fn retry_to_healthy_rank<R: Rig>() {
    let _serial = counters();
    let mut cpu = TrustedProcessor::new(SecretKey::derive_from_seed(0x2E7));
    let slow = DelayedNdp::new(HonestNdp::new(), Duration::from_millis(500));
    let fast = DelayedNdp::new(HonestNdp::new(), Duration::ZERO);
    let mut rig = R::ranks(
        vec![slow, fast],
        EndpointConfig {
            timeout: Duration::from_millis(60),
            max_retries: 2,
            ..EndpointConfig::default()
        },
    );
    let pt = plaintext();
    let table = cpu.encrypt_table(&pt, ROWS, COLS, ADDR).unwrap();
    let handle = cpu.publish(&table, &mut rig.ep).unwrap();

    #[cfg(feature = "telemetry")]
    let before = (
        counter("secndp_transport_timeouts_total"),
        counter("secndp_transport_retries_total"),
    );
    // Round-robin sends the first request to the slow rank; the deadline
    // expires and the retry lands on the fast rank.
    let res = cpu
        .weighted_sum(&handle, &rig.ep, &[0, 4], &[3u32, 2], true)
        .unwrap();
    assert_eq!(res, expected(&pt, &[0, 4], &[3, 2]));
    #[cfg(feature = "telemetry")]
    assert_eq!(
        (
            counter("secndp_transport_timeouts_total") - before.0,
            counter("secndp_transport_retries_total") - before.1,
        ),
        (1, 1)
    );
    assert_eq!((rig.ep.served(0), rig.ep.served(1)), (1, 2), "load + sum");
}

#[test]
fn retry_moves_to_a_healthy_rank_and_still_verifies() {
    on_every_link!(retry_to_healthy_rank);
}

/// Replies that silently never come hold their credits until their
/// requests are waited on. A lone submitter asleep on such a window is
/// woken by nothing — the one honest completion leaves the window above
/// its low-water mark, and no failure path runs while nobody waits — so it
/// must re-check on its own, and take the credit that did come back, by
/// the time those requests would have timed out. Worker link only: it is
/// the one with a hook that drops replies.
#[test]
fn lone_submitter_rechecks_a_window_that_cannot_drain() {
    let _serial = counters(); // this scenario times requests out
    let rig = Worker::mortal(
        DelayedNdp::new(four_rows(), Duration::from_millis(20)),
        EndpointConfig {
            window: 4,
            timeout: Duration::from_millis(150),
            max_retries: 0,
            ..EndpointConfig::default()
        },
    );
    let injector = rig.chaos.as_ref().unwrap();
    let dropped: Vec<_> = (1..=3)
        .map(|n| {
            injector.arm(PlannedFault {
                op: 0,
                rank: 0,
                kind: FaultKind::DropReply,
            });
            let id = rig.ep.submit(&read_row(0)).unwrap();
            let deadline = Instant::now() + WATCHDOG;
            while injector.injected() < n {
                assert!(Instant::now() < deadline, "drop {n} never landed");
                std::thread::sleep(Duration::from_micros(200));
            }
            id
        })
        .collect();
    let answered = rig.ep.submit(&read_row(1)).unwrap();
    assert_eq!(rig.ep.in_flight(), 4, "the window is full");
    // Parks here: 4 in flight, then 3 — above the low-water mark of 2.
    let parked = rig.ep.submit(&read_row(2)).unwrap();
    assert!(rig.ep.in_flight() <= 4);
    rig.ep.wait(answered).unwrap();
    rig.ep.wait(parked).unwrap();
    for id in dropped {
        assert!(matches!(
            rig.ep.wait(id),
            Err(Error::DeviceTimeout { attempts: 1, .. })
        ));
    }
    assert_eq!(rig.ep.in_flight(), 0);
}

/// Wraps a device so that `load` stalls — `weighted_sum`/`read_row` pass
/// straight through. Used to prove `Load` is never retried.
#[derive(Debug)]
struct SlowLoadNdp {
    inner: HonestNdp,
    delay: Duration,
}

impl NdpDevice for SlowLoadNdp {
    fn load(
        &mut self,
        table_addr: u64,
        ciphertext: Vec<u8>,
        row_bytes: usize,
        tags: Option<Vec<Fq>>,
    ) -> Result<(), Error> {
        std::thread::sleep(self.delay);
        self.inner.load(table_addr, ciphertext, row_bytes, tags)
    }

    fn weighted_sum<W: RingWord>(
        &self,
        table_addr: u64,
        indices: &[usize],
        weights: &[W],
        with_tag: bool,
    ) -> Result<NdpResponse<W>, Error> {
        self.inner
            .weighted_sum(table_addr, indices, weights, with_tag)
    }

    fn read_row(&self, table_addr: u64, row: usize) -> Result<Vec<u8>, Error> {
        self.inner.read_row(table_addr, row)
    }
}

/// A stalled `Load` must time out on its *first* attempt — never be
/// re-sent, even with retries enabled — because re-sending a load after
/// a timeout could overwrite a newer table image on the device.
fn load_never_retried<R: Rig>() {
    let _serial = counters();
    let mut cpu = TrustedProcessor::new(SecretKey::derive_from_seed(0x10AD));
    let device = SlowLoadNdp {
        inner: HonestNdp::new(),
        delay: Duration::from_millis(400),
    };
    let mut rig = R::ranks(
        vec![device],
        EndpointConfig {
            timeout: Duration::from_millis(40),
            max_retries: 3, // retries are on; Load must still not use them
            ..EndpointConfig::default()
        },
    );
    let pt = plaintext();
    let table = cpu.encrypt_table(&pt, ROWS, COLS, ADDR).unwrap();
    #[cfg(feature = "telemetry")]
    let before = counter("secndp_transport_retries_total");
    let err = cpu.publish(&table, &mut rig.ep).unwrap_err();
    match err {
        Error::DeviceTimeout { attempts, .. } => {
            assert_eq!(attempts, 1, "Load was retried {} times", attempts - 1)
        }
        other => panic!("expected DeviceTimeout, got {other:?}"),
    }
    #[cfg(feature = "telemetry")]
    assert_eq!(counter("secndp_transport_retries_total"), before);
}

#[test]
fn load_is_never_retried() {
    on_every_link!(load_never_retried);
}

/// A reply that arrives twice settles its request once; the copy finds
/// the slot settled (or gone) and is counted late, never delivered.
fn duplicate_counted_late<R: Rig>() {
    let _serial = counters();
    let mut rig = R::duplicating();
    rig.ep.load(ADDR, vec![7u8; 64], 16, None).unwrap();
    #[cfg(feature = "telemetry")]
    let before = counter("secndp_transport_late_completions_total");
    for row in 0..4 {
        rig.duplicate_next_reply();
        assert_eq!(rig.ep.read_row(ADDR, row).unwrap(), vec![7u8; 16]);
    }
    assert_eq!(rig.ep.served(0), 5, "each request is served once");
    // The last copy may still be in the link's hands; it lands shortly.
    #[cfg(feature = "telemetry")]
    {
        let deadline = Instant::now() + Duration::from_secs(5);
        while counter("secndp_transport_late_completions_total") - before < 4 {
            assert!(Instant::now() < deadline, "duplicates never counted late");
            std::thread::sleep(Duration::from_millis(1));
        }
    }
}

#[test]
fn duplicate_reply_is_counted_late() {
    on_every_link!(duplicate_counted_late);
}

/// The full end-to-end protocol — publish, verified single, batched and
/// pipelined summations, and tamper detection — behaves identically
/// whichever link the frames ride.
fn end_to_end<R: Rig>() {
    let pt = plaintext();
    let qs = queries(8, 0xE2E);

    let mut cpu = TrustedProcessor::new(SecretKey::derive_from_seed(0xE7E));
    let mut ndp = R::remote(HonestNdp::new());
    let table = cpu.encrypt_table(&pt, ROWS, COLS, ADDR).unwrap();
    let handle = cpu.publish(&table, &mut ndp).unwrap();

    let res = cpu
        .weighted_sum(&handle, &ndp, &[1, 2], &[5u32, 7], true)
        .unwrap();
    assert_eq!(res, expected(&pt, &[1, 2], &[5, 7]));

    let batch = cpu.weighted_sum_batch(&handle, &ndp, &qs, true).unwrap();
    for (qi, (idx, w)) in qs.iter().enumerate() {
        assert_eq!(batch[qi], expected(&pt, idx, w));
    }

    // Tampering must still be caught through the wire: by a single query
    // and by a pipelined packet whose replies are tampered.
    let flip = Tamper::FlipResultBit { element: 0, bit: 5 };
    let mut cpu = TrustedProcessor::new(SecretKey::derive_from_seed(0xBAD2));
    let mut evil = R::remote(TamperingNdp::new(flip));
    let mut evil_rig = R::ranks(vec![TamperingNdp::new(flip)], EndpointConfig::default());
    let table = cpu.encrypt_table(&pt, ROWS, COLS, 0x9000).unwrap();
    let handle = cpu.publish(&table, &mut evil).unwrap();
    cpu.publish(&table, &mut evil_rig.ep).unwrap();
    let single = cpu.weighted_sum(&handle, &evil, &[0, 1], &[1u32, 1], true);
    let packet = cpu.weighted_sum_batch_pipelined(&handle, &evil_rig.ep, &qs, true);
    for err in [single.unwrap_err(), packet.unwrap_err()] {
        assert!(matches!(
            err,
            Error::VerificationFailed { table_addr: 0x9000 }
        ));
    }
}

#[test]
fn end_to_end_protocol_over_async_endpoint() {
    on_every_link!(end_to_end);
}

/// The device chooses how many result bytes it sends. A `Sum` reply that
/// is not a whole number of elements must reach the caller of
/// `weighted_sum` as a typed, audited error — over a real socket, where a
/// hostile server can write any bytes it likes — not as a panic in the
/// byte-to-word conversion. (Socket only: behind the worker link a device
/// answers in typed words, so it cannot send a ragged reply.)
#[test]
fn ragged_sum_reply_over_a_socket_is_a_typed_error() {
    let mut ndp = RemoteNdp::<HonestNdp>::tcp_backed(rogue_server(|reply| {
        vec![match Response::decode(&reply) {
            Ok(Response::Sum { mut c_res, c_t_res }) => {
                c_res.push(0xAB);
                Response::Sum { c_res, c_t_res }.encode().unwrap()
            }
            _ => reply,
        }]
    }));
    let mut cpu = TrustedProcessor::new(SecretKey::derive_from_seed(0x4A66));
    let table = cpu.encrypt_table(&plaintext(), ROWS, COLS, ADDR).unwrap();
    let handle = cpu.publish(&table, &mut ndp).unwrap();
    let res = cpu.weighted_sum(&handle, &ndp, &[1, 2], &[1u32, 1], true);
    assert!(
        matches!(res, Err(Error::MalformedResponse { .. })),
        "33 result bytes for a u32 table must be typed, got {res:?}"
    );
    #[cfg(feature = "telemetry")]
    assert!(
        secndp::telemetry::audit::audit_log()
            .snapshot()
            .iter()
            .any(|e| e.detail == "result bytes are not a whole number of elements"),
        "the refusal must leave an audit event"
    );
}
