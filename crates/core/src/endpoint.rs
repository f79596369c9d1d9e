//! One endpoint core for every link to the NDP ranks.
//!
//! SecNDP's channel is untrusted and may only deny service (paper §III),
//! so everything between "frame encoded" and "reply decoded" — matching a
//! reply to its request, deadlines, retry, at-most-once `Load` — is
//! trusted-side logic. It lives here exactly once, in [`Endpoint`]; what
//! differs per transport is a small [`Link`] that moves frame bytes:
//! [`WorkerLink`](crate::transport::WorkerLink) (channels to in-process
//! rank threads) and [`TcpLink`](crate::net::TcpLink) (pooled sockets to a
//! [`NetServer`](crate::net::NetServer)).
//!
//! # Rules (the same on every link)
//!
//! - **Request ids, not protocol changes.** Every submission gets a
//!   process-local `u64` id keyed into a pending table; a link hands the
//!   reply bytes back by id ([`Pending::complete`]). The id only routes
//!   bytes — reply *content* is still verified cryptographically, so a
//!   device that swaps two ids produces two verification failures, never
//!   a wrong answer. Completions arrive in any order.
//! - **Bounded in-flight window.** [`submit`](Endpoint::submit) blocks
//!   while `window` requests are unanswered (backpressure). A submitter
//!   that had to block is woken once the window has drained to half, not
//!   per completion: it then refills the window in one run instead of
//!   being scheduled against the ranks for every single frame. A caller
//!   that keeps at most [`window`](Endpoint::window) of its own requests
//!   outstanding — the pipelined batch — never blocks here when it is the
//!   only submitter; it spends that time making pads.
//! - **A wake-up only for somebody asleep.** A completion notifies
//!   [`wait`](Endpoint::wait)'s condvar only when the table counts a caller
//!   asleep on it, and parked submitters only as above: a notify is a
//!   futex call under the table lock, and a pipelined caller is usually
//!   on a CPU, not asleep. Sleepers are counted under the same lock that
//!   settles slots, so a waiter either sees its reply before it sleeps or
//!   is counted before the reply lands.
//! - **An id is redeemed or abandoned.** [`poll`](Endpoint::poll) and
//!   [`wait`](Endpoint::wait) consume a settled slot; a caller that will
//!   never redeem an id (a packet that failed at an earlier query) abandons
//!   it, which frees the slot, its retained frame, any reply it holds and
//!   its window credit at once. A reply that arrives later is counted late.
//! - **Deadlines and idempotent-only retry.** A request with no reply by
//!   its deadline — or whose route died ([`Pending::fail`]) — is re-sent
//!   to the next rank, at most `max_retries` times with linear deadline
//!   backoff, **only if it is idempotent** (`WeightedSum`, `ReadRow`: pure
//!   reads). Then the caller gets [`Error::DeviceTimeout`] or
//!   [`Error::ConnectionLost`].
//! - **`Load` at most once per rank.** A re-sent `Load` could overwrite a
//!   table a concurrent re-encryption already replaced, resurrecting
//!   stale ciphertext; it is [`broadcast`](Endpoint::broadcast) once to
//!   every rank, never retried and never re-routed, and any failure
//!   surfaces after every rank was attempted.
//! - **First completion wins.** After a retry two replies may arrive for
//!   one id; the first fills the slot, the straggler is dropped and
//!   counted (`secndp_transport_late_completions_total`). Sound because
//!   only pure reads are ever re-sent.
//!
//! Frames are encoded under the caller's ambient span, so the device-side
//! `ndp_serve` span stitches under it on every link.

use crate::error::Error;
use crate::wire::{self, Request, Response, RoundTrip};
use secndp_telemetry::health::{self, HealthStatus};
use secndp_telemetry::trace;
use std::collections::hash_map::{Entry, HashMap};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
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
    /// Extra deadline granted per retry attempt (linear backoff).
    pub backoff: Duration,
    /// Worker link: how long a *busy* rank thread may go without a
    /// heartbeat before the rank counts as stalled.
    pub stall_grace: Duration,
    /// TCP link: server address per rank (`host:port`). Duplicates address
    /// several ranks on one server; the rank header tells them apart.
    pub addrs: Vec<String>,
    /// TCP link: connections per rank; callers multiplex over the pool.
    pub pool: usize,
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
            // The deadline itself bounds how long a rank is given; this
            // only staggers successive re-sends. Reconnect pacing is the
            // TCP link's own `connect_backoff`.
            backoff: Duration::from_millis(1),
            stall_grace: Duration::from_secs(2),
            addrs: Vec::new(),
            pool: 1,
            connect_retries: 20,
            connect_backoff: Duration::from_millis(25),
        }
    }
}

/// The physical path a request rides: `(rank, connection, generation)`.
/// A link that dies fails exactly the requests on its own route.
pub type Route = (usize, usize, u64);

/// Why a link could not carry (or stopped carrying) a request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LinkFail {
    /// The rank's device model is gone (its worker exited).
    RankGone,
    /// The connection to the rank was lost or could not be established.
    ConnLost,
    /// The peer declared a reply of this many bytes, past the frame cap.
    TooLarge(usize),
}

/// What differs per transport: moving one encoded frame to one rank.
/// Replies and route failures come back through the [`Completer`] the
/// link was built with.
pub trait Link: Send + Sync + 'static {
    /// Health component prefix (`transport`, `net`).
    const KIND: &'static str;
    /// What a rank reported by [`down`](Self::down) is doing.
    const DOWN: &'static str;
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

    /// Hands frame `id` to `route`, in one piece or not at all.
    ///
    /// # Errors
    ///
    /// The route is gone (it died since [`route`](Self::route) picked it).
    fn send(&self, route: Route, id: u64, frame: &Arc<Vec<u8>>) -> Result<(), LinkFail>;

    /// Ranks that cannot serve right now.
    fn down(&self) -> Vec<usize>;
}

/// Handle to one in-flight request; redeem it with [`Endpoint::poll`] or
/// [`Endpoint::wait`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct RequestId(u64);

enum State {
    /// Sent; no reply yet.
    Waiting,
    /// The link delivered reply bytes.
    Done(Vec<u8>),
    /// The route died before a reply arrived.
    Failed(LinkFail),
}

struct Slot {
    state: State,
    /// The encoded frame, retained only for idempotent requests so a
    /// retry re-sends the identical bytes (trace envelope included). A
    /// `Load` can never be re-sent, so its image is not kept alive here.
    frame: Option<Arc<Vec<u8>>>,
    /// Total sends so far (the first counts as 1).
    attempts: u32,
    deadline: Instant,
    submitted: Instant,
    route: Route,
}

struct Table {
    slots: HashMap<u64, Slot>,
    /// Slots in `State::Waiting`: what the window is enforced against.
    waiting: usize,
    /// Submitters asleep on a full window.
    parked: usize,
    /// Callers asleep in `wait`. Counted under the table lock on both
    /// sides, so a completion either sees its waiter or settles the slot
    /// before the waiter looks at it.
    sleepers: usize,
}

/// The pending-request table: the half of an endpoint its link's threads
/// see. One mutex; `cv` signals settled requests (for `wait`), `room`
/// freed window credits (for submitters parked on a full window).
pub struct Pending {
    table: Mutex<Table>,
    cv: Condvar,
    room: Condvar,
    /// Half the window: what `waiting` must drain to before completions
    /// wake a parked submitter. With a window of 1 or 2 that is every
    /// completion.
    low_water: usize,
    /// First completions per rank.
    served: Vec<AtomicU64>,
}

/// What a [`Link`] completes requests through.
pub type Completer = Arc<Pending>;

impl std::fmt::Debug for Pending {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Pending").finish_non_exhaustive()
    }
}

/// Locks `m`. Poisoning takes a panic under the guard, and nothing that
/// runs under these guards (table edits, socket writes, channel sends)
/// can panic on bytes from the untrusted side — so it is a bug in this
/// crate, not something a peer can cause.
pub(crate) fn locked<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().expect(POISONED)
}

const POISONED: &str = "endpoint lock poisoned by a local panic";

impl Pending {
    /// Returns `n` window credits and wakes whoever they concern: callers
    /// asleep in `wait`, if there are any (a notify is a futex call, and a
    /// pipelined caller is usually making pads, not sleeping); parked
    /// submitters once the window has drained to its low-water mark — or
    /// `at_once`, on the paths a dead route or a deadline takes, where the
    /// rest of the window may never drain.
    fn release(&self, t: &mut Table, n: usize, at_once: bool) {
        t.waiting -= n;
        crate::metrics::transport_inflight().add(-(n as i64));
        if t.sleepers > 0 {
            self.cv.notify_all();
        }
        if t.parked > 0 && (at_once || t.waiting <= self.low_water) {
            self.room.notify_all();
        }
    }

    /// Fills request `id` with its reply bytes and wakes its waiter — or,
    /// if the request already settled or was abandoned, counts the
    /// straggler.
    pub fn complete(&self, id: u64, reply: Vec<u8>) {
        let mut t = locked(&self.table);
        match t.slots.get_mut(&id) {
            Some(slot) if matches!(slot.state, State::Waiting) => {
                slot.state = State::Done(reply);
                if let Some(n) = self.served.get(slot.route.0) {
                    n.fetch_add(1, Ordering::Relaxed);
                }
                self.release(&mut t, 1, false);
            }
            _ => crate::metrics::transport_late_completions().inc(),
        }
    }

    /// Fails every request still waiting on `route`, so they error typed
    /// (or retry) at once instead of waiting out their deadline. Returns
    /// how many there were.
    pub fn fail(&self, route: Route, why: LinkFail) -> usize {
        let mut t = locked(&self.table);
        let mut hit = 0;
        for slot in t.slots.values_mut() {
            if slot.route == route && matches!(slot.state, State::Waiting) {
                slot.state = State::Failed(why);
                hit += 1;
            }
        }
        if hit > 0 {
            self.release(&mut t, hit, true);
        }
        hit
    }
}

/// A non-blocking wire endpoint over link `L`: `submit` / `poll` / `wait`
/// with the rules in the [module docs](self). It is also a [`RoundTrip`],
/// hence an [`NdpDevice`](crate::device::NdpDevice) (each call is
/// submit-then-wait, `load` broadcasts), so trait-generic code runs over
/// any link unchanged.
pub struct Endpoint<L: Link> {
    /// Held for its drop, and declared first so it drops first: the check
    /// is unregistered before the link joins its threads, and `/healthz`
    /// never scores a half-torn-down endpoint.
    _health: health::HealthCheckHandle,
    component: String,
    link: Arc<L>,
    pending: Completer,
    next_id: AtomicU64,
    next_rank: AtomicUsize,
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
    /// Builds the pending table for `ranks` ranks, the link around it,
    /// and registers the `{KIND}-epN` health component.
    pub(crate) fn with_link(
        cfg: EndpointConfig,
        ranks: usize,
        make: impl FnOnce(Completer) -> L,
    ) -> Self {
        // Touch every instrument so each exists (as zero) in exported
        // metrics before the first timeout or retry.
        crate::metrics::transport_inflight();
        crate::metrics::transport_submitted();
        crate::metrics::transport_timeouts();
        crate::metrics::transport_retries();
        crate::metrics::transport_late_completions();
        crate::metrics::transport_completion();
        let pending = Arc::new(Pending {
            table: Mutex::new(Table {
                slots: HashMap::new(),
                waiting: 0,
                parked: 0,
                sleepers: 0,
            }),
            cv: Condvar::new(),
            room: Condvar::new(),
            low_water: cfg.window / 2,
            served: (0..ranks).map(|_| AtomicU64::new(0)).collect(),
        });
        let link = Arc::new(make(Arc::clone(&pending)));
        let (health, component) = register_health(Arc::clone(&link), Arc::clone(&pending));
        Self {
            _health: health,
            component,
            link,
            pending,
            next_id: AtomicU64::new(1),
            next_rank: AtomicUsize::new(0),
            cfg,
        }
    }

    /// The link, for what only it knows (rank vitals, connections).
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
        locked(&self.pending.table).waiting
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
        self.pending.served[rank].load(Ordering::Relaxed)
    }

    /// Ranks that cannot serve right now: stalled worker threads,
    /// disconnected servers.
    pub fn down_ranks(&self) -> Vec<usize> {
        self.link.down()
    }

    /// The name this endpoint is scored under in `/healthz`
    /// (`transport-epN`, `net-epN`).
    pub fn health_component(&self) -> &str {
        &self.component
    }

    /// Sends a request to the next rank, round-robin. Blocks while the
    /// in-flight window is full, then returns at once; redeem the id with
    /// [`poll`](Self::poll) or [`wait`](Self::wait).
    ///
    /// # Errors
    ///
    /// [`Error::FrameTooLarge`] if the request cannot be encoded (or
    /// carried); the link's typed failure if no rank can be reached.
    pub fn submit(&self, req: &Request) -> Result<RequestId, Error> {
        let frame = Self::encode(req)?;
        // Load mutates device state, so it is neither retried after a
        // timeout nor re-routed past a dead rank: either would load fewer
        // or staler replicas than the caller asked for.
        let idempotent = !matches!(req, Request::Load { .. });
        self.start(&frame, self.pick_rank(), idempotent)
    }

    /// Encodes under the ambient span (captured before the encode span
    /// opens) so the device-side `ndp_serve` stitches under the caller.
    fn encode(req: &Request) -> Result<Arc<Vec<u8>>, Error> {
        let ctx = trace::current();
        let _e = trace::span(trace::names::WIRE_ENCODE);
        Ok(Arc::new(req.encode_traced(ctx)?))
    }

    fn pick_rank(&self) -> usize {
        self.next_rank.fetch_add(1, Ordering::Relaxed) % self.ranks()
    }

    fn start(
        &self,
        frame: &Arc<Vec<u8>>,
        rank: usize,
        idempotent: bool,
    ) -> Result<RequestId, Error> {
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        crate::metrics::wire_packets().inc();
        secndp_telemetry::profile::add_wire_bytes(frame.len() as u64, 0);
        let now = Instant::now();
        let mut fresh = Some(Slot {
            state: State::Waiting,
            frame: idempotent.then(|| Arc::clone(frame)),
            attempts: 1,
            deadline: now,
            submitted: now,
            route: (rank, 0, 0),
        });
        self.dispatch(id, frame, rank, idempotent, self.cfg.timeout, &mut fresh)?;
        Ok(RequestId(id))
    }

    /// Sends frame `id` to `first`, or — `failover`, idempotent requests
    /// only — to the next rank that will take it, so a dead rank costs
    /// capacity rather than correctness. On failure the slot is gone.
    fn dispatch(
        &self,
        id: u64,
        frame: &Arc<Vec<u8>>,
        first: usize,
        failover: bool,
        grace: Duration,
        fresh: &mut Option<Slot>,
    ) -> Result<(), Error> {
        let ranks = self.ranks();
        let mut last = LinkFail::RankGone;
        for i in 0..if failover { ranks } else { 1 } {
            let sent = self.link.route((first + i) % ranks).and_then(|route| {
                if self.arm(id, route, grace, fresh) {
                    self.link.send(route, id, frame)
                } else {
                    Ok(()) // a straggler already answered it
                }
            });
            match sent {
                Ok(()) => return Ok(()),
                Err(why) => last = why,
            }
        }
        let attempts = self.abandon(RequestId(id));
        Err(link_error(last, attempts))
    }

    /// Enters a `fresh` slot into the table (waiting for a window credit)
    /// or re-arms the existing one, pointing it at `route` with `grace`
    /// until its deadline. Returns `false` if the request already has its
    /// reply and needs no send.
    fn arm(&self, id: u64, route: Route, grace: Duration, fresh: &mut Option<Slot>) -> bool {
        let mut t = locked(&self.pending.table);
        if let Some(mut slot) = fresh.take() {
            // Parked until the window drains to its low-water mark (see
            // `Pending::release`), which is how several submitters share
            // an endpoint; a lone pipelined caller bounds its own requests
            // and never gets here. Re-checked after one request deadline:
            // when the rest of the window sits on a silent rank it never
            // drains that far, and the credits freed above the mark are
            // taken up no later than those requests time out.
            while t.waiting >= self.window() {
                t.parked += 1;
                let woken = self.pending.room.wait_timeout(t, self.cfg.timeout);
                t = woken.expect(POISONED).0;
                t.parked -= 1;
            }
            slot.submitted = Instant::now();
            slot.deadline = slot.submitted + grace;
            slot.route = route;
            t.slots.insert(id, slot);
            t.waiting += 1;
            drop(t);
            crate::metrics::transport_submitted().inc();
            crate::metrics::transport_inflight().add(1);
            return true;
        }
        let Some(slot) = t.slots.get_mut(&id) else {
            return false;
        };
        let revived = match slot.state {
            State::Done(_) => return false,
            State::Failed(_) => true,
            State::Waiting => false,
        };
        slot.state = State::Waiting;
        slot.deadline = Instant::now() + grace;
        slot.route = route;
        // A retry keeps its request's window credit; one whose route died
        // takes it back without queueing — its caller is inside `wait`.
        if revived {
            t.waiting += 1;
            crate::metrics::transport_inflight().add(1);
        }
        true
    }

    /// Removes a slot that will not be sent (again) or whose caller will
    /// never redeem it, with its retained frame and any reply it holds,
    /// returning its window credit and how often it was sent. A reply that
    /// arrives afterwards finds no slot and is counted late.
    pub(crate) fn abandon(&self, id: RequestId) -> u32 {
        let mut t = locked(&self.pending.table);
        let Some(slot) = t.slots.remove(&id.0) else {
            return 1;
        };
        if matches!(slot.state, State::Waiting) {
            self.pending.release(&mut t, 1, true);
        }
        slot.attempts
    }

    /// Non-blocking check: `None` while the request is in flight,
    /// `Some(result)` once it settled (consuming the slot). `poll` only
    /// observes: deadlines and retries run inside [`wait`](Self::wait),
    /// and a route failure is reported as it stands.
    pub fn poll(&self, id: RequestId) -> Option<Result<Response, Error>> {
        let mut t = locked(&self.pending.table);
        let Entry::Occupied(entry) = t.slots.entry(id.0) else {
            return Some(Err(crate::metrics::malformed("unknown request id")));
        };
        if matches!(entry.get().state, State::Waiting) {
            return None;
        }
        let slot = entry.remove();
        drop(t);
        Some(settle(slot))
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
        let mut t = locked(&self.pending.table);
        loop {
            let Entry::Occupied(mut entry) = t.slots.entry(id.0) else {
                return Err(crate::metrics::malformed("unknown request id"));
            };
            let slot = entry.get_mut();
            let expired = match slot.state {
                State::Waiting => {
                    let now = Instant::now();
                    if now < slot.deadline {
                        let nap = slot.deadline - now;
                        t.sleepers += 1;
                        t = self.pending.cv.wait_timeout(t, nap).expect(POISONED).0;
                        t.sleepers -= 1;
                        continue;
                    }
                    crate::metrics::transport_timeouts().inc();
                    true
                }
                State::Failed(LinkFail::ConnLost) => false,
                State::Done(_) | State::Failed(_) => {
                    let slot = entry.remove();
                    drop(t);
                    return settle(slot);
                }
            };
            let Some(frame) = slot
                .frame
                .clone()
                .filter(|_| slot.attempts <= self.cfg.max_retries)
            else {
                let slot = entry.remove();
                if expired {
                    self.pending.release(&mut t, 1, true);
                    return Err(Error::DeviceTimeout {
                        deadline_ms: self.cfg.timeout.as_millis() as u64,
                        attempts: slot.attempts,
                    });
                }
                drop(t);
                return settle(slot);
            };
            slot.attempts += 1;
            // Linear backoff: each retry gets a longer deadline, so a
            // transiently slow rank is not hammered at the same cadence.
            let grace = self.cfg.timeout + self.cfg.backoff * (slot.attempts - 1);
            drop(t);
            crate::metrics::transport_retries().inc();
            secndp_telemetry::profile::add_retries(1);
            self.dispatch(id.0, &frame, self.pick_rank(), true, grace, &mut None)?;
            t = locked(&self.pending.table);
        }
    }

    /// Sends the request once to **every** rank and waits for all of them
    /// (`Load` must reach every replica). Never retried; every rank is
    /// attempted before the first failure is reported, so a broadcast is
    /// never silently half-done.
    ///
    /// # Errors
    ///
    /// As for [`wait`](Self::wait), from the first failing rank.
    pub fn broadcast(&self, req: &Request) -> Result<Response, Error> {
        let frame = Self::encode(req)?;
        let ids: Vec<_> = (0..self.ranks())
            .map(|rank| self.start(&frame, rank, false))
            .collect();
        drop(frame);
        let mut first_err = None;
        let mut last = None;
        for id in ids {
            match id.and_then(|id| self.wait(id)) {
                Ok(Response::Err(code)) if first_err.is_none() => {
                    first_err = Some(Ok(Response::Err(code)));
                }
                Err(e) if first_err.is_none() => first_err = Some(Err(e)),
                r => last = Some(r),
            }
        }
        // Lazy on purpose: `malformed()` writes an audit event.
        first_err
            .or(last)
            .unwrap_or_else(|| Err(crate::metrics::malformed("broadcast to zero ranks")))
    }
}

impl<L: Link> RoundTrip for Endpoint<L> {
    fn round_trip(&self, req: &Request) -> Result<Response, Error> {
        if matches!(req, Request::Load { .. }) {
            self.broadcast(req)
        } else {
            self.wait(self.submit(req)?)
        }
    }
}

fn link_error(why: LinkFail, attempts: u32) -> Error {
    match why {
        LinkFail::RankGone => crate::metrics::malformed("transport worker disconnected"),
        LinkFail::ConnLost => Error::ConnectionLost { attempts },
        LinkFail::TooLarge(len) => Error::FrameTooLarge { len },
    }
}

/// Turns a settled slot into the caller's result, recording the reply's
/// latency and size.
fn settle(slot: Slot) -> Result<Response, Error> {
    match slot.state {
        State::Done(reply) => {
            crate::metrics::transport_completion()
                .observe(slot.submitted.elapsed().as_nanos() as u64);
            secndp_telemetry::profile::add_wire_bytes(0, reply.len() as u64);
            wire::decode_reply(&reply)
        }
        State::Failed(why) => Err(link_error(why, slot.attempts)),
        // Unreachable: callers only settle slots they saw leave Waiting
        // under the table lock. Typed anyway — this is the trust boundary.
        State::Waiting => Err(crate::metrics::malformed("request still in flight")),
    }
}

/// Registers the endpoint's `{KIND}-epN` check with the process-wide
/// [`health::monitor`]: ranks the link reports down (all of them →
/// failing), request timeouts and link churn within the health window.
fn register_health<L: Link>(
    link: Arc<L>,
    pending: Completer,
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
            let (kind, what) = (L::KIND, L::DOWN);
            return (status, format!("{kind} rank(s) {down:?} of {ranks} {what}"));
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
        let served: u64 = pending
            .served
            .iter()
            .map(|n| n.load(Ordering::Relaxed))
            .sum();
        (
            HealthStatus::Ok,
            format!("{ranks} rank(s) live, {served} requests served"),
        )
    });
    (handle, component)
}

#[cfg(test)]
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
        let slots = |ep: &AsyncEndpoint| locked(&ep.pending.table).slots.len();

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
