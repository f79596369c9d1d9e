//! The completion core: every decision between "frame encoded" and "reply
//! decoded", as one pure state machine.
//!
//! It holds no lock, condvar, socket or clock: the
//! [`Endpoint`](crate::endpoint::Endpoint) drives it under its one table
//! lock, handing it the time and what the link did, and performs the
//! [`Action`]s it returns. The rules it keeps are listed, once, in
//! DESIGN.md "Endpoint and links"; each is marked where it is decided.
//! Its tests (`completion/check.rs`) drive it through every interleaving
//! of a few threads.

use crate::endpoint::{LinkFail, Route};
use crate::error::Error;
use crate::wire;
use std::collections::HashMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Extra deadline granted per retry attempt (linear backoff). The deadline
/// itself bounds how long a rank is given; this only staggers successive
/// re-sends. Reconnect pacing is the TCP link's own `connect_backoff`.
pub(crate) const RETRY_BACKOFF: Duration = Duration::from_millis(1);

#[derive(Clone)]
enum State {
    /// Sent (or about to be); no reply yet.
    Waiting,
    /// The link delivered reply bytes.
    Done(Vec<u8>),
    /// The route died before a reply arrived.
    Failed(LinkFail),
}

#[derive(Clone)]
struct Slot {
    state: State,
    /// The encoded frame, kept so a re-send writes the identical bytes;
    /// `None` for a `Load`, which is never re-sent.
    frame: Option<Arc<Vec<u8>>>,
    /// Total sends so far (the first counts as 1).
    attempts: u32,
    deadline: Instant,
    submitted: Instant,
    route: Route,
}

/// One rank's connection as the core sees it.
#[derive(Clone, Default)]
struct Rank {
    /// Whether a thread holds the reader role of the rank's connection.
    reader: bool,
    /// The connection generation `owed` counts for.
    gen: u64,
    /// Frames written on that connection whose replies are not yet read.
    owed: usize,
    /// A `Load` is being written: other writes wait for it.
    loading: bool,
    /// Requests the rank answered first.
    served: u64,
}

/// The pending table, window, reader roles and sleepers of one endpoint.
#[derive(Clone, Default)]
pub(crate) struct Core {
    slots: HashMap<u64, Slot>,
    ranks: Vec<Rank>,
    next_rank: usize,
    /// Slots in `State::Waiting`: the window credits in use.
    waiting: usize,
    window: usize,
    timeout: Duration,
    max_retries: u32,
    /// Threads asleep on the endpoint's condvar, and how many of them are
    /// submitters parked on a full window.
    asleep: usize,
    parked: usize,
    /// Whether the endpoint must wake every sleeper before it unlocks.
    wake: bool,
}

/// What a caller is doing, and where it has got to.
#[derive(Clone, Default)]
pub(crate) struct Task {
    id: u64,
    phase: Phase,
    /// A `submit`, which is over once its frame is written; a `wait` goes
    /// on waiting after a re-send.
    submits: bool,
    /// The frame being sent: `submit`'s own, or a re-send's copy.
    frame: Option<Arc<Vec<u8>>>,
    /// The rank the send goes to, the ranks tried for it, and the route
    /// the link picked.
    rank: usize,
    tries: usize,
    route: Route,
    /// The route this task reads, and until when, while it holds its role.
    reading: Option<(Route, Instant)>,
    /// Asleep among the parked submitters.
    parked: bool,
    /// A read of this task's came back empty before its deadline: the
    /// link has nothing to wait on (its replies settle inside `send`), so
    /// the task sleeps instead of reading again.
    idle: bool,
}

#[derive(Clone, Copy, Default, PartialEq, Eq)]
enum Phase {
    /// A send (`submit`'s, or a re-send inside `wait`): the route is being
    /// picked.
    Route,
    /// Has a route; waits for a window credit, or for the route to owe
    /// nothing (a `Load`), then the frame is written.
    Arm,
    /// `wait`: until the slot settles.
    #[default]
    Wait,
    /// `poll`, before and after its one read.
    Poll,
    Polled,
}

/// What the link did, handed back to [`Core::step`].
#[derive(Clone, Copy, Debug)]
pub(crate) enum Event {
    /// The task's first step.
    Start,
    Routed(Result<Route, LinkFail>),
    /// The frame was written; whether a reply is owed on the route.
    Sent(Result<bool, LinkFail>),
    /// Replies read off the route.
    Read(Result<usize, LinkFail>),
    /// Woken, or the sleep's deadline passed.
    Woke,
}

/// What the endpoint must do next for a task.
#[derive(Debug, PartialEq)]
pub(crate) enum Action {
    /// Pick (dialling if need be) the route to this rank.
    Route(usize),
    /// Write the frame to the route.
    Send(Route, Arc<Vec<u8>>),
    /// Read the route until the deadline, holding its reader role.
    Read(Route, Instant),
    /// Sleep on the condvar until woken or the deadline.
    Sleep(Instant),
    /// `poll` only: the request is still in flight.
    Pending,
    /// The task is over: `submit` has sent its request (an empty reply),
    /// `wait` or `poll` hold its reply, or it failed.
    Done(Result<Vec<u8>, Error>),
}

impl Task {
    /// Sends request `id` to `rank`. A `Load` (the frame's own tag says
    /// so) goes to that rank only and is never re-sent.
    pub(crate) fn submit(id: u64, frame: Arc<Vec<u8>>, rank: usize) -> Self {
        let frame = Some(frame);
        let (phase, submits) = (Phase::Route, true);
        Task {
            id,
            phase,
            submits,
            frame,
            rank,
            ..Task::default()
        }
    }

    /// Blocks until request `id` settles, re-sending it as the rules allow.
    pub(crate) fn wait(id: u64) -> Self {
        Task {
            id,
            ..Task::default()
        }
    }

    /// Redeems request `id` if it has settled, reading what has arrived.
    pub(crate) fn poll(id: u64) -> Self {
        Task {
            id,
            phase: Phase::Poll,
            ..Task::default()
        }
    }

    /// The request this task is about.
    pub(crate) fn id(&self) -> u64 {
        self.id
    }
}

impl Core {
    pub(crate) fn new(ranks: usize, window: usize, timeout: Duration, max_retries: u32) -> Self {
        Core {
            // Room for twice the window: while no more than a window of
            // slots is live (a pipelined caller keeps no more), every
            // rehash the insert/remove churn forces happens in place, so
            // the table never allocates once built.
            slots: HashMap::with_capacity(2 * window),
            ranks: (0..ranks).map(|_| Rank::default()).collect(),
            window: window.max(1),
            timeout,
            max_retries,
            ..Core::default()
        }
    }

    /// Window credits in use.
    pub(crate) fn in_flight(&self) -> usize {
        self.waiting
    }

    /// First completions of `rank`.
    pub(crate) fn served(&self, rank: usize) -> u64 {
        self.ranks[rank].served
    }

    /// The next rank round-robin.
    pub(crate) fn pick_rank(&mut self) -> usize {
        let rank = self.next_rank;
        self.next_rank = (rank + 1) % self.ranks.len();
        rank
    }

    /// Whether the endpoint must wake every sleeper; clears the flag.
    pub(crate) fn take_wake(&mut self) -> bool {
        std::mem::take(&mut self.wake)
    }

    /// Advances `t` by what the link did (`ev`) at `now`.
    pub(crate) fn step(&mut self, t: &mut Task, ev: Event, now: Instant) -> Action {
        match ev {
            Event::Start => {}
            Event::Woke => {
                self.asleep -= 1;
                self.parked -= usize::from(std::mem::take(&mut t.parked));
            }
            Event::Routed(Ok(route)) => {
                (t.route, t.phase) = (route, Phase::Arm);
                if self.slots.contains_key(&t.id) && !self.rearm(t.id, route, now) {
                    return self.sent(t, now); // a straggler already answered it
                }
            }
            Event::Routed(Err(why)) => return self.failover(t, why),
            Event::Sent(sent) => {
                // The reply `arm` counted on is not owed after all.
                self.read_off(t.route, usize::from(sent != Ok(true)));
                if t.frame.as_ref().is_some_and(|f| wire::is_load(f)) {
                    // The writes held back behind the `Load` may go.
                    self.ranks[t.route.0].loading = false;
                    self.wake |= self.asleep > 0;
                }
                return match sent {
                    Ok(_) => self.sent(t, now),
                    Err(why) => {
                        if why == LinkFail::ConnLost {
                            self.fail(t.route, why);
                        }
                        self.failover(t, why)
                    }
                };
            }
            Event::Read(read) => {
                let (route, deadline) = t.reading.take().unwrap_or((t.route, now));
                self.ranks[route.0].reader = false;
                match read {
                    Ok(n) => {
                        self.read_off(route, n);
                        t.idle |= n == 0 && now < deadline;
                    }
                    Err(why) => self.fail(route, why),
                }
                // A reader that leaves wakes the sleepers, so that one of
                // them takes the role over.
                self.wake |= self.asleep > 0;
            }
        }
        match t.phase {
            Phase::Route => Action::Route(t.rank),
            Phase::Arm => self.arm(t, now),
            Phase::Wait => self.wait(t, now),
            Phase::Poll | Phase::Polled => self.poll(t, now),
        }
    }

    /// A routed send: a new request takes a window credit (parking while
    /// there is none), a `Load` waits for its route to owe nothing, then
    /// the frame is written.
    fn arm(&mut self, t: &mut Task, now: Instant) -> Action {
        let route = t.route;
        if t.submits && !self.slots.contains_key(&t.id) {
            if self.waiting >= self.window {
                // Parked until the window drains to half (see `release`);
                // meanwhile the route of the oldest waiting request, which
                // answers first, is read. Re-checked after one deadline:
                // when the rest of the window sits on a silent rank it
                // never drains that far.
                let oldest = self
                    .slots
                    .iter()
                    .filter(|(_, s)| matches!(s.state, State::Waiting))
                    .min_by_key(|(id, s)| (s.submitted, **id))
                    .map_or(route, |(_, s)| s.route);
                return self.block(t, oldest, now + self.timeout, true);
            }
            let frame = t.frame.clone().filter(|f| !wire::is_load(f));
            let (state, attempts, deadline) = (State::Waiting, 1, now + self.timeout);
            let slot = Slot {
                state,
                frame,
                attempts,
                deadline,
                submitted: now,
                route,
            };
            self.slots.insert(t.id, slot);
            self.waiting += 1;
            crate::metrics::transport_submitted().inc();
            crate::metrics::transport_inflight().add(1);
        }
        let live = |s: &Slot| matches!(s.state, State::Waiting) && now < s.deadline;
        let deadline = self
            .slots
            .get(&t.id)
            .filter(|s| live(s))
            .map(|s| s.deadline);
        let (Some(deadline), Some(frame)) = (deadline, t.frame.clone()) else {
            // Abandoned, or its route died or its deadline passed while it
            // waited to be written: `wait` reports it, and a `Load` is not
            // re-sent.
            return self.sent(t, now);
        };
        // A `Load` is written only once its route owes no replies, and
        // nothing is written beside it: the server answers in order and
        // blocks writing a reply nobody reads, so it would never read a
        // table-sized frame behind its requests.
        let load = wire::is_load(&frame);
        if self.ranks[route.0].loading {
            return self.sleep(t, deadline, false);
        }
        if load && self.owed(route).is_some_and(|n| *n > 0) {
            return self.block(t, route, deadline, false);
        }
        let rank = &mut self.ranks[route.0];
        // A newer connection owes nothing yet; a write to an older one is
        // to a dead connection and owes nothing at all.
        if rank.gen < route.1 {
            (rank.gen, rank.owed) = (route.1, 0);
        }
        rank.loading = load;
        if let Some(owed) = self.owed(route) {
            *owed += 1;
        }
        Action::Send(route, frame)
    }

    /// Points an existing slot at `route` for a re-send, with one more
    /// backoff step of deadline. Returns `false` if it has its reply.
    fn rearm(&mut self, id: u64, route: Route, now: Instant) -> bool {
        let Some(slot) = self.slots.get_mut(&id) else {
            return false;
        };
        if matches!(slot.state, State::Done(_)) {
            return false;
        }
        // A retry keeps its request's window credit; one whose route died
        // takes it back without queueing: its caller is inside `wait`.
        if matches!(slot.state, State::Failed(_)) {
            self.waiting += 1;
            crate::metrics::transport_inflight().add(1);
        }
        slot.state = State::Waiting;
        slot.deadline = now + self.timeout + RETRY_BACKOFF * (slot.attempts - 1);
        slot.route = route;
        true
    }

    /// The send of `t` is over (written, or not needed): a `submit` is
    /// done, a `wait` goes on waiting.
    fn sent(&mut self, t: &mut Task, now: Instant) -> Action {
        t.frame = None;
        if t.submits {
            return Action::Done(Ok(Vec::new()));
        }
        t.phase = Phase::Wait;
        self.wait(t, now)
    }

    /// The route of `t`'s send failed with `why`: a pure read fails over
    /// to the next rank until every rank was tried; a `Load`, or a request
    /// out of ranks, is abandoned with the link's error.
    fn failover(&mut self, t: &mut Task, why: LinkFail) -> Action {
        t.tries += 1;
        let idempotent = t.frame.as_ref().is_some_and(|f| !wire::is_load(f));
        if idempotent && t.tries < self.ranks.len() {
            (t.rank, t.phase) = ((t.rank + 1) % self.ranks.len(), Phase::Route);
            return Action::Route(t.rank);
        }
        Action::Done(Err(link_error(why, self.abandon(t.id))))
    }

    /// `wait`: settled → its result; out of time or route → re-sent, if
    /// the rules allow; otherwise read or sleep until it settles.
    fn wait(&mut self, t: &mut Task, now: Instant) -> Action {
        let Some(slot) = self.slots.get_mut(&t.id) else {
            return self.settle(t.id, now);
        };
        let expired = match slot.state {
            State::Waiting if now < slot.deadline => {
                let (route, deadline) = (slot.route, slot.deadline);
                return self.block(t, route, deadline, false);
            }
            State::Waiting => true,
            State::Failed(LinkFail::ConnLost) => false,
            State::Done(_) | State::Failed(_) => return self.settle(t.id, now),
        };
        if expired {
            crate::metrics::transport_timeouts().inc();
        }
        // Only pure reads are re-sent, at most `max_retries` times, each
        // with a longer deadline (linear backoff, in `rearm`).
        if slot.frame.is_some() && slot.attempts <= self.max_retries {
            slot.attempts += 1;
            t.frame = slot.frame.clone();
            crate::metrics::transport_retries().inc();
            (t.rank, t.tries, t.phase) = (self.pick_rank(), 0, Phase::Route);
            return Action::Route(t.rank);
        }
        if !expired {
            return self.settle(t.id, now);
        }
        let attempts = self.abandon(t.id);
        let deadline_ms = self.timeout.as_millis() as u64;
        Action::Done(Err(Error::DeviceTimeout {
            deadline_ms,
            attempts,
        }))
    }

    /// `poll`: settled → its result; otherwise what has already arrived on
    /// its route is read once, if nobody else is reading it.
    fn poll(&mut self, t: &mut Task, now: Instant) -> Action {
        let waiting = |s: &Slot| matches!(s.state, State::Waiting).then_some(s.route);
        match self.slots.get(&t.id).map(waiting) {
            Some(Some(route)) if t.phase == Phase::Poll && !self.ranks[route.0].reader => {
                t.phase = Phase::Polled;
                self.claim(t, route, now)
            }
            Some(Some(_)) => Action::Pending,
            _ => self.settle(t.id, now),
        }
    }

    /// Reads `route` until `deadline` if nobody holds its reader role and
    /// `t` has not found the link has nothing to read; sleeps otherwise.
    fn block(&mut self, t: &mut Task, route: Route, deadline: Instant, parked: bool) -> Action {
        if !t.idle && !self.ranks[route.0].reader {
            return self.claim(t, route, deadline);
        }
        self.sleep(t, deadline, parked)
    }

    fn sleep(&mut self, t: &mut Task, deadline: Instant, parked: bool) -> Action {
        self.asleep += 1;
        self.parked += usize::from(parked);
        t.parked = parked;
        Action::Sleep(deadline)
    }

    fn claim(&mut self, t: &mut Task, route: Route, deadline: Instant) -> Action {
        self.ranks[route.0].reader = true;
        t.reading = Some((route, deadline));
        Action::Read(route, deadline)
    }

    /// The replies owed on `route`, if it is its rank's connection.
    fn owed(&mut self, route: Route) -> Option<&mut usize> {
        let rank = &mut self.ranks[route.0];
        (rank.gen == route.1).then_some(&mut rank.owed)
    }

    /// `n` replies owed on `route` were read, or will never come.
    fn read_off(&mut self, route: Route, n: usize) {
        if let Some(owed) = self.owed(route) {
            *owed = owed.saturating_sub(n);
        }
    }

    /// Reply bytes for request `id`. First completion wins: a reply for a
    /// settled or abandoned request is dropped and counted late.
    pub(crate) fn complete(&mut self, id: u64, reply: Vec<u8>) {
        match self.slots.get_mut(&id) {
            Some(slot) if matches!(slot.state, State::Waiting) => {
                slot.state = State::Done(reply);
                self.ranks[slot.route.0].served += 1;
                self.release(1, false);
            }
            _ => crate::metrics::transport_late_completions().inc(),
        }
    }

    /// `route` died: fails every request waiting on it, so each errors
    /// typed (or is re-sent) at once instead of at its deadline.
    fn fail(&mut self, route: Route, why: LinkFail) {
        let mut hit = 0;
        for slot in self.slots.values_mut() {
            if slot.route == route && matches!(slot.state, State::Waiting) {
                slot.state = State::Failed(why);
                hit += 1;
            }
        }
        self.read_off(route, usize::MAX);
        crate::metrics::net_conn_failures().add(hit as u64);
        self.release(hit, true);
    }

    /// Removes a request whose caller will never redeem it (or that will
    /// not be sent), with its frame and any reply, returning its window
    /// credit at once and how often it was sent.
    pub(crate) fn abandon(&mut self, id: u64) -> u32 {
        let Some(slot) = self.slots.remove(&id) else {
            return 1;
        };
        if matches!(slot.state, State::Waiting) {
            self.release(1, true);
        }
        slot.attempts
    }

    /// Returns `n` window credits and decides who to wake: any caller
    /// asleep in `wait` (a wake-up only for somebody asleep); parked
    /// submitters once the window has drained to half — not per
    /// completion, so a woken submitter refills half a window at once —
    /// or `at_once`, on the paths a dead route or an abandoned request
    /// take, where the rest of the window may never drain.
    fn release(&mut self, n: usize, at_once: bool) {
        if n == 0 {
            return;
        }
        self.waiting -= n;
        crate::metrics::transport_inflight().add(-(n as i64));
        let low_water = self.waiting <= self.window / 2;
        self.wake |= self.asleep > self.parked || (self.parked > 0 && (at_once || low_water));
    }

    /// Removes a settled slot and turns it into the caller's result,
    /// recording the reply's latency.
    fn settle(&mut self, id: u64, now: Instant) -> Action {
        let Some(slot) = self.slots.remove(&id) else {
            return Action::Done(Err(crate::metrics::malformed("unknown request id")));
        };
        Action::Done(match slot.state {
            State::Done(reply) => {
                let latency = now.saturating_duration_since(slot.submitted);
                crate::metrics::transport_completion().observe(latency.as_nanos() as u64);
                Ok(reply)
            }
            State::Failed(why) => Err(link_error(why, slot.attempts)),
            // Unreachable: only settled slots are settled. Typed anyway,
            // this is the trust boundary.
            State::Waiting => Err(crate::metrics::malformed("request still in flight")),
        })
    }
}

fn link_error(why: LinkFail, attempts: u32) -> Error {
    match why {
        LinkFail::ConnLost => Error::ConnectionLost { attempts },
        LinkFail::TooLarge(len) => Error::FrameTooLarge { len },
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
mod check;
