//! One endpoint for every link to the NDP ranks.
//!
//! SecNDP's channel is untrusted and may only deny service (paper §III),
//! so everything between "frame encoded" and "reply decoded" — matching a
//! reply to its request, the in-flight window, who reads a connection,
//! deadlines, retry, at-most-once `Load` — is trusted-side logic. Its
//! decisions are made in one pure state machine, the completion core
//! (`crate::completion`); [`Endpoint`] drives it under one lock and one
//! condvar, and a small [`Link`] moves frame bytes:
//! [`InlineLink`](crate::transport::InlineLink) (in-process ranks served
//! on the caller's thread) and [`TcpLink`](crate::net::TcpLink) (one
//! socket per rank to a [`NetServer`](crate::net::NetServer)). The rules
//! are stated once, in DESIGN.md "Endpoint and links".
//!
//! Frames are written under the caller's ambient span, so the device-side
//! `ndp_serve` span stitches under it on every link.

use crate::completion::{Action, Core, Event, Task};
use crate::error::Error;
use crate::wire::{self, Response, RoundTrip, Writer};
use secndp_telemetry::health::{self, HealthStatus};
use secndp_telemetry::trace;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::time::{Duration, Instant};

/// Configuration of an [`Endpoint`]; `TransportConfig` and `NetConfig`
/// are aliases of it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EndpointConfig {
    /// Read by nothing: an endpoint has one rank per device or address it
    /// is given. Kept only because `benchmark/` sets it in struct
    /// literals and may not be edited.
    pub ranks: usize,
    /// Maximum unanswered requests in flight before `submit` blocks.
    pub window: usize,
    /// Per-request deadline; expiry triggers retry or `DeviceTimeout`.
    pub timeout: Duration,
    /// Maximum re-sends of an idempotent request (`0` disables retries).
    pub max_retries: u32,
    /// TCP link: server address per rank (`host:port`). Duplicates address
    /// several ranks on one server; the rank header tells them apart.
    pub addrs: Vec<String>,
    /// TCP link: connect attempts before a rank is `ConnectionLost`.
    pub connect_retries: u32,
    /// TCP link: pause between connect attempts.
    pub connect_backoff: Duration,
}

impl Default for EndpointConfig {
    fn default() -> Self {
        Self {
            ranks: 1,
            window: 32,
            timeout: Duration::from_millis(1000),
            max_retries: 2,
            addrs: Vec::new(),
            connect_retries: 20,
            connect_backoff: Duration::from_millis(25),
        }
    }
}

/// The physical path a request rides: `(rank, generation)`, where the
/// generation names one connection to the rank. A link that dies fails
/// exactly the requests on its own route.
pub type Route = (usize, u64);

/// Why a link could not carry (or stopped carrying) a request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LinkFail {
    /// The connection to the rank was lost or could not be established,
    /// or the link to it was cut: the device denied service, it sent no
    /// bytes to distrust.
    ConnLost,
    /// The peer declared a reply of this many bytes, past the frame cap.
    TooLarge(usize),
}

/// Where a [`Link`] hands each reply it carried: the request's id and the
/// reply's bytes.
pub type Got<'a> = &'a mut dyn FnMut(u64, Vec<u8>);

/// What differs per transport: moving frame bytes to a rank and reply
/// bytes back. A link makes no decision: the endpoint tells it which
/// route to write and which to read, and until when.
pub trait Link: Send + Sync + 'static {
    /// Health component prefix (`transport`, `net`).
    const KIND: &'static str;
    /// A counter of this link whose movement within the health window
    /// degrades the endpoint, with the noun for it.
    const CHURN: Option<(&'static str, &'static str)> = None;

    /// Number of device ranks.
    fn ranks(&self) -> usize;

    /// Picks — establishing it if needed — the path the next frame to
    /// `rank` will ride. Called before the request enters the pending
    /// table, so a reply can never arrive for an unknown id.
    ///
    /// # Errors
    ///
    /// The rank cannot be reached.
    fn route(&self, rank: usize) -> Result<Route, LinkFail>;

    /// Hands frame `id` to `route`, in one piece or not at all, and hands
    /// `got` any reply that came back on the way (`id`, bytes). Returns
    /// whether a reply is still owed on the route: `false` for a link
    /// whose replies settle inside `send`, or a frame that never left.
    ///
    /// # Errors
    ///
    /// The route is gone (it died since [`route`](Self::route) picked it,
    /// or this write broke it), or the frame is past the link's cap.
    fn send(&self, route: Route, id: u64, frame: &[u8], got: Got) -> Result<bool, LinkFail>;

    /// Reads replies off `route` into `got` until at least one has been
    /// handed over or `deadline` passes; a deadline already past reads
    /// only what has arrived. Only the thread the endpoint gave the
    /// route's reader role calls it. Returns how many replies it read;
    /// the default, for a link whose replies settle inside
    /// [`send`](Self::send), reads nothing and returns at once.
    ///
    /// # Errors
    ///
    /// The route is dead: every request on it fails.
    fn read(&self, _route: Route, _deadline: Instant, _got: Got) -> Result<usize, LinkFail> {
        Ok(0)
    }

    /// Ranks that cannot serve right now (none, unless the link can tell).
    fn down(&self) -> Vec<usize> {
        Vec::new()
    }
}

/// Handle to one in-flight request; redeem it with [`Endpoint::wait`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct RequestId(u64);

/// The completion core under the endpoint's one lock, and the one condvar
/// its sleepers wait on.
struct Table {
    core: Mutex<Core>,
    cv: Condvar,
}

/// Locks `m`. Poisoning takes a panic under the guard, and nothing that
/// runs under these guards (table edits, socket writes, channel sends)
/// can panic on bytes from the untrusted side — so it is a bug in this
/// crate, not something a peer can cause.
#[allow(clippy::expect_used)] // poisoning is a local panic, never a peer's bytes
pub(crate) fn locked<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().expect(POISONED)
}

const POISONED: &str = "endpoint lock poisoned by a local panic";

/// A non-blocking wire endpoint over link `L`: `submit` / `wait` with the
/// rules in DESIGN.md "Endpoint and links". It is also a
/// [`RoundTrip`], hence an [`NdpDevice`](crate::device::NdpDevice) (each
/// call is submit-then-wait, a `load` goes to every rank), so
/// trait-generic code runs over any link unchanged.
pub struct Endpoint<L: Link> {
    /// Held for its drop, and declared first so it drops first: the check
    /// is unregistered before the link closes its connections, and
    /// `/healthz` never scores a half-torn-down endpoint.
    _health: health::HealthCheckHandle,
    component: String,
    link: Arc<L>,
    table: Arc<Table>,
    next_id: AtomicU64,
    cfg: EndpointConfig,
}

impl<L: Link> std::fmt::Debug for Endpoint<L> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Endpoint")
            .field("component", &self.component)
            .field("ranks", &self.ranks())
            .field("cfg", &self.cfg)
            .field("in_flight", &self.in_flight())
            .finish()
    }
}

impl<L: Link> Endpoint<L> {
    /// An endpoint over `link`, registered as the `{KIND}-epN` health
    /// component.
    pub(crate) fn with_link(cfg: EndpointConfig, link: L) -> Self {
        // Touch every instrument so each exists (as zero) in exported
        // metrics before the first timeout or retry.
        crate::metrics::transport_inflight();
        crate::metrics::transport_submitted();
        crate::metrics::transport_timeouts();
        crate::metrics::transport_retries();
        crate::metrics::transport_late_completions();
        crate::metrics::transport_completion();
        let core = Core::new(link.ranks(), cfg.window, cfg.timeout, cfg.max_retries);
        let table = Arc::new(Table {
            core: Mutex::new(core),
            cv: Condvar::new(),
        });
        let link = Arc::new(link);
        let (health, component) = register_health(Arc::clone(&link), Arc::clone(&table));
        Self {
            _health: health,
            component,
            link,
            table,
            next_id: AtomicU64::new(1),
            cfg,
        }
    }

    /// The link, for what only it knows (connection vitals, a cut rank).
    pub fn link(&self) -> &L {
        &self.link
    }

    /// Number of device ranks.
    pub fn ranks(&self) -> usize {
        self.link.ranks()
    }

    /// Requests sent and not yet answered, failed or abandoned — what the
    /// window is enforced against. A reply nobody has redeemed yet no
    /// longer counts; a request its caller gave up on (a packet that failed
    /// part-way) is abandoned, not left to count for ever.
    pub fn in_flight(&self) -> usize {
        self.with_core(|core| core.in_flight())
    }

    /// The in-flight window: how many unanswered requests
    /// [`submit`](Self::submit) allows before it blocks (at least 1). A
    /// caller that keeps no more than this outstanding, and is the only
    /// submitter, never blocks in `submit`.
    pub fn window(&self) -> usize {
        self.cfg.window.max(1)
    }

    /// Requests `rank` answered first (stragglers are not counted).
    pub fn served(&self, rank: usize) -> u64 {
        self.with_core(|core| core.served(rank))
    }

    /// The name this endpoint is scored under in `/healthz`
    /// (`transport-epN`, `net-epN`).
    pub fn health_component(&self) -> &str {
        &self.component
    }

    /// Sends a request to the next rank, round-robin. Blocks while the
    /// in-flight window is full, then returns at once; redeem the id with
    /// [`wait`](Self::wait).
    ///
    /// # Errors
    ///
    /// [`Error::FrameTooLarge`] if the request cannot be encoded (or
    /// carried); the link's typed failure if no rank can be reached.
    pub fn submit(&self, req: &wire::Request) -> Result<RequestId, Error> {
        self.submit_with(&mut |w| w.request(req))
    }

    /// [`submit`](Self::submit) for the request `write` writes.
    pub(crate) fn submit_with(
        &self,
        write: &mut dyn FnMut(Writer<'_>) -> Result<(), Error>,
    ) -> Result<RequestId, Error> {
        self.submit_frame(write_frame(write)?, None)
    }

    /// Sends `frame` to `rank`, or to the next rank round-robin. A `Load`
    /// (the core reads the frame's own tag) mutates device state, so it is
    /// neither retried nor re-routed: either would load fewer or staler
    /// replicas than asked.
    fn submit_frame(&self, frame: Arc<Vec<u8>>, rank: Option<usize>) -> Result<RequestId, Error> {
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        crate::metrics::wire_packets().inc();
        self.run(Task::submit(id, frame, rank))
            .map(|_| RequestId(id))
    }

    /// Removes a request whose caller will never redeem it, with its
    /// retained frame and any reply it holds, returning its window credit.
    /// A reply that arrives afterwards finds no slot and is counted late.
    pub(crate) fn abandon(&self, id: RequestId) {
        self.with_core(|core| core.abandon(id.0));
    }

    /// Blocks until the request settles, re-sending an idempotent request
    /// whose deadline expired or whose route died, and decodes the reply.
    ///
    /// # Errors
    ///
    /// [`Error::DeviceTimeout`] when the deadline (plus permitted
    /// retries) expires, [`Error::ConnectionLost`] /
    /// [`Error::FrameTooLarge`] when the link failed the request,
    /// [`Error::MalformedResponse`] for an undecodable reply or an id
    /// that was already redeemed.
    pub fn wait(&self, id: RequestId) -> Result<Response, Error> {
        wire::decode_reply(&self.wait_frame(id)?)
    }

    /// [`wait`](Self::wait), returning the reply frame undecoded.
    pub(crate) fn wait_frame(&self, id: RequestId) -> Result<Vec<u8>, Error> {
        self.run(Task::wait(id.0))
    }

    /// Drives `task` through the completion core to its end: performs
    /// each action it returns — with the lock released for the link's
    /// calls, on the condvar for a sleep — and hands back what happened.
    fn run(&self, mut task: Task) -> Result<Vec<u8>, Error> {
        let table = &*self.table;
        let mut got = |id, reply| self.with_core(|core| core.complete(id, reply));
        let mut event = Event::Start;
        let mut core = locked(&table.core);
        loop {
            let action = core.step(&mut task, event, Instant::now());
            if core.take_wake() {
                table.cv.notify_all();
            }
            event = match action {
                Action::Done(result) => return result,
                Action::Sleep(deadline) => {
                    let nap = deadline.saturating_duration_since(Instant::now());
                    #[allow(clippy::expect_used)] // as in `locked`
                    let woken = table.cv.wait_timeout(core, nap).expect(POISONED);
                    core = woken.0;
                    Event::Woke
                }
                call => {
                    drop(core);
                    let event = match call {
                        Action::Route(rank) => Event::Routed(self.link.route(rank)),
                        Action::Send(route, frame) => {
                            Event::Sent(self.link.send(route, task.id(), &frame, &mut got))
                        }
                        Action::Read(route, until) => {
                            Event::Read(self.link.read(route, until, &mut got))
                        }
                        _ => Event::Woke, // the arms above took the rest
                    };
                    core = locked(&table.core);
                    event
                }
            };
        }
    }

    /// Runs `f` on the core under the lock, waking every sleeper if it
    /// settled something they wait on.
    fn with_core<T>(&self, f: impl FnOnce(&mut Core) -> T) -> T {
        let mut core = locked(&self.table.core);
        let out = f(&mut core);
        if core.take_wake() {
            self.table.cv.notify_all();
        }
        out
    }
}

/// Submit-then-wait. A `Load` (the endpoint reads its own frame's tag)
/// goes once to **every** rank, which must all hold the replica, and `read`
/// is handed each rank's reply: never retried, and every rank is attempted
/// before the first failure is reported, so a `Load` is never silently
/// half-done.
impl<L: Link> RoundTrip for Endpoint<L> {
    fn round_trip(
        &self,
        write: &mut dyn FnMut(Writer<'_>) -> Result<(), Error>,
        read: &mut dyn FnMut(&[u8]) -> Result<(), Error>,
    ) -> Result<(), Error> {
        let frame = write_frame(write)?;
        if !wire::is_load(&frame) {
            let id = self.submit_frame(frame, None)?;
            return read(&self.wait_frame(id)?);
        }
        let ids: Vec<_> = (0..self.ranks())
            .map(|rank| self.submit_frame(Arc::clone(&frame), Some(rank)))
            .collect();
        drop(frame);
        let mut first = Ok(());
        for id in ids {
            let r = id.and_then(|id| read(&self.wait_frame(id)?));
            first = first.and(r);
        }
        first
    }
}

/// The frame `write` writes, under the ambient span (captured before the
/// encode span opens) so the device-side `ndp_serve` stitches under the
/// caller.
fn write_frame(
    write: &mut dyn FnMut(Writer<'_>) -> Result<(), Error>,
) -> Result<Arc<Vec<u8>>, Error> {
    let ctx = trace::current();
    let _e = trace::span(trace::names::WIRE_ENCODE);
    let mut frame = Vec::new();
    write(Writer::new(&mut frame, ctx))?;
    Ok(Arc::new(frame))
}

/// Registers the endpoint's `{KIND}-epN` check with the process-wide
/// [`health::monitor`]: ranks the link reports down (all of them →
/// failing), request timeouts and link churn within the health window.
fn register_health<L: Link>(
    link: Arc<L>,
    table: Arc<Table>,
) -> (health::HealthCheckHandle, String) {
    static EP_SEQ: AtomicU64 = AtomicU64::new(0);
    let component = format!("{}-ep{}", L::KIND, EP_SEQ.fetch_add(1, Ordering::Relaxed));
    let handle = health::monitor().register(&component, move |ctx| {
        let (ranks, down) = (link.ranks(), link.down());
        if !down.is_empty() {
            let status = if down.len() == ranks {
                HealthStatus::Failing
            } else {
                HealthStatus::Degraded
            };
            let kind = L::KIND;
            return (status, format!("{kind} rank(s) {down:?} of {ranks} down"));
        }
        let timeouts = ctx.counter_delta("secndp_transport_timeouts_total");
        if timeouts > 0 {
            let late = ctx.counter_delta("secndp_transport_late_completions_total");
            return (
                HealthStatus::Degraded,
                format!(
                    "{timeouts} request timeout(s) within the window ({late} late completions)"
                ),
            );
        }
        if let Some((counter, noun)) = L::CHURN {
            let n = ctx.counter_delta(counter);
            if n > 0 {
                return (
                    HealthStatus::Degraded,
                    format!("{n} {noun}(s) within the window"),
                );
            }
        }
        let served: u64 = (0..ranks).map(|r| locked(&table.core).served(r)).sum();
        (
            HealthStatus::Ok,
            format!("{ranks} rank(s) live, {served} requests served"),
        )
    });
    (handle, component)
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
mod tests {
    use super::locked;
    use crate::device::{HonestNdp, NdpDevice, Tamper, TamperingNdp};
    use crate::error::Error;
    use crate::keys::SecretKey;
    use crate::protocol::TrustedProcessor;
    use crate::transport::{AsyncEndpoint, TransportConfig};

    /// A packet that fails part-way leaves nothing behind in the trusted
    /// side's pending table: not the slots of the requests it had sent
    /// ahead, with their retained frames and whatever replies arrived.
    /// Denial of service is all a device is allowed — one spoiled reply per
    /// packet must not also grow the TEE's heap by the rest of the window.
    #[test]
    fn failed_packets_leave_no_slots_behind() {
        const ADDR: u64 = 0x5000;
        let pt: Vec<u32> = (0..64 * 8).collect();
        let queries: Vec<(Vec<usize>, Vec<u32>)> =
            (0..40).map(|q| (vec![q, q + 1], vec![1, 2])).collect();
        let slots = |ep: &AsyncEndpoint| locked(&ep.table.core).slots();

        let mut cpu = TrustedProcessor::new(SecretKey::from_bytes([0x1E; 16]));
        let table = cpu.encrypt_table(&pt, 64, 8, ADDR).unwrap();
        let cfg = TransportConfig {
            window: 8,
            ..TransportConfig::default()
        };
        // Every reply is spoiled, so each packet fails at its first query
        // with the other seven requests of the window outstanding.
        let mut spoiled =
            AsyncEndpoint::new(vec![TamperingNdp::new(Tamper::ZeroResult)], cfg.clone());
        let handle = cpu.publish(&table, &mut spoiled).unwrap();
        for packet in 0..200 {
            let err = cpu
                .weighted_sum_batch_pipelined(&handle, &spoiled, &queries, true)
                .unwrap_err();
            assert_eq!(err, Error::VerificationFailed { table_addr: ADDR });
            assert_eq!(slots(&spoiled), 0, "packet {packet} left slots behind");
            assert_eq!(spoiled.in_flight(), 0, "packet {packet} kept credits");
        }
        // Abandoned requests are still served (and counted late); the
        // endpoint itself is as good as new.
        spoiled.read_row(ADDR, 3).unwrap();

        // An honest packet redeems every id it was given.
        let mut honest = AsyncEndpoint::new(vec![HonestNdp::new()], cfg);
        cpu.publish(&table, &mut honest).unwrap();
        cpu.weighted_sum_batch_pipelined(&handle, &honest, &queries, true)
            .unwrap();
        assert_eq!(slots(&honest), 0);
    }
}
