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
    /// Sent (or about to be) within its deadline; no reply yet. The one
    /// state that holds a window credit.
    Waiting,
    /// The link delivered reply bytes.
    Done(Vec<u8>),
    /// The route died before a reply arrived.
    Failed(LinkFail),
    /// The deadline passed before a reply arrived.
    Expired,
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
    /// A send to the next rank round-robin: the rank is to be picked.
    Pick,
    /// A send (`submit`'s, or a re-send inside `wait`): the route is being
    /// picked.
    Route,
    /// Has a route; waits for a window credit, or for the route to owe
    /// nothing (a `Load`), then the frame is written.
    Arm,
    /// `wait`: until the slot settles.
    #[default]
    Wait,
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
    /// The task is over: `submit` has sent its request (an empty reply),
    /// `wait` holds its reply, or it failed.
    Done(Result<Vec<u8>, Error>),
}

impl Task {
    /// Sends request `id` to the next rank round-robin, or to `rank`: a
    /// `Load` to every rank goes to each once. A `Load` (the frame's own
    /// tag says so) is never re-sent.
    pub(crate) fn submit(id: u64, frame: Arc<Vec<u8>>, rank: Option<usize>) -> Self {
        Task {
            id,
            phase: rank.map_or(Phase::Pick, |_| Phase::Route),
            submits: true,
            frame: Some(frame),
            rank: rank.unwrap_or_default(),
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
            Event::Routed(Ok(route)) => (t.route, t.phase) = (route, Phase::Arm),
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
            Phase::Pick => self.pick(t),
            Phase::Route => Action::Route(t.rank),
            Phase::Arm => self.arm(t, now),
            Phase::Wait => self.wait(t, now),
        }
    }

    /// Sends `t`'s frame to the next rank round-robin.
    fn pick(&mut self, t: &mut Task) -> Action {
        let rank = self.next_rank;
        self.next_rank = (rank + 1) % self.ranks.len();
        (t.rank, t.tries, t.phase) = (rank, 0, Phase::Route);
        Action::Route(rank)
    }

    /// A routed send. A slot holds a window credit only while it is
    /// `Waiting`: a send of one that holds none — a new request, or a
    /// re-send of one that expired or whose route died — takes one here,
    /// with a fresh deadline, parking while there is none. A `Load` then
    /// waits for its route to owe nothing, and the frame is written.
    fn arm(&mut self, t: &mut Task, now: Instant) -> Action {
        let route = t.route;
        let credit = match self.slots.get(&t.id) {
            None => t.submits,
            Some(s) => matches!(s.state, State::Failed(_) | State::Expired),
        };
        if credit {
            if self.waiting >= self.window {
                self.expire(now, None);
            }
            if self.waiting >= self.window {
                // Parked until the window drains to half (see `release`);
                // meanwhile the route of the oldest waiting request, which
                // answers first, is read. Re-checked after one deadline,
                // when the slots past theirs give their credits back.
                let oldest = self
                    .slots
                    .iter()
                    .filter(|(_, s)| matches!(s.state, State::Waiting))
                    .min_by_key(|(id, s)| (s.submitted, **id))
                    .map_or(route, |(_, s)| s.route);
                return self.block(t, oldest, now + self.timeout, true);
            }
            let slot = self.slots.entry(t.id).or_insert_with(|| {
                crate::metrics::transport_submitted().inc();
                let frame = t.frame.clone().filter(|f| !wire::is_load(f));
                let (state, attempts, deadline) = (State::Waiting, 1, now);
                Slot {
                    state,
                    frame,
                    attempts,
                    deadline,
                    submitted: now,
                    route,
                }
            });
            slot.state = State::Waiting;
            // Each re-send is given one more backoff step (linear backoff).
            slot.deadline = now + self.timeout + RETRY_BACKOFF * (slot.attempts - 1);
            self.waiting += 1;
            crate::metrics::transport_inflight().add(1);
        }
        let live = |s: &&mut Slot| matches!(s.state, State::Waiting) && now < s.deadline;
        let (Some(slot), Some(frame)) = (self.slots.get_mut(&t.id).filter(live), t.frame.clone())
        else {
            // Abandoned, answered by a straggler, or its route died or its
            // deadline passed while it waited to be written: `wait` reports
            // it, and a `Load` is not re-sent.
            return self.sent(t, now);
        };
        slot.route = route;
        let deadline = slot.deadline;
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
        let Some(slot) = self.slots.get(&t.id) else {
            return self.settle(t.id, now);
        };
        match slot.state {
            State::Waiting if now < slot.deadline => {
                let (route, deadline) = (slot.route, slot.deadline);
                return self.block(t, route, deadline, false);
            }
            State::Waiting => self.expire(now, Some(t.id)),
            State::Expired | State::Failed(LinkFail::ConnLost) => {}
            State::Done(_) | State::Failed(_) => return self.settle(t.id, now),
        }
        // Only pure reads are re-sent, at most `max_retries` times.
        let retries = self.max_retries;
        let resend = |s: &&mut Slot| s.frame.is_some() && s.attempts <= retries;
        let Some(slot) = self.slots.get_mut(&t.id).filter(resend) else {
            return self.settle(t.id, now);
        };
        slot.attempts += 1;
        t.frame = slot.frame.clone();
        crate::metrics::transport_retries().inc();
        self.pick(t)
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
    /// settled, failed or abandoned request is dropped and counted late.
    pub(crate) fn complete(&mut self, id: u64, reply: Vec<u8>) {
        match self.slots.get_mut(&id) {
            Some(slot) if matches!(slot.state, State::Waiting | State::Expired) => {
                let credit = matches!(slot.state, State::Waiting);
                slot.state = State::Done(reply);
                self.ranks[slot.route.0].served += 1;
                self.release(usize::from(credit), false);
            }
            _ => crate::metrics::transport_late_completions().inc(),
        }
    }

    /// `route` died: fails every request waiting on it, so each errors
    /// typed (or is re-sent) at once instead of at its deadline.
    fn fail(&mut self, route: Route, why: LinkFail) {
        let hit = self.lose(State::Failed(why), |_, s| s.route == route);
        self.read_off(route, usize::MAX);
        crate::metrics::net_conn_failures().add(hit as u64);
    }

    /// Request `only` (or every request) past its deadline gives its window
    /// credit back: its owner's `wait` re-sends it (through `arm`'s window
    /// check) or reports `DeviceTimeout`.
    fn expire(&mut self, now: Instant, only: Option<u64>) {
        let hit = self.lose(State::Expired, |id, s| {
            now >= s.deadline && only.is_none_or(|only| only == id)
        });
        crate::metrics::transport_timeouts().add(hit as u64);
    }

    /// Moves each waiting slot `hit` picks to `to`, giving its window
    /// credit back at once; returns how many moved.
    fn lose(&mut self, to: State, hit: impl Fn(u64, &Slot) -> bool) -> usize {
        let mut n = 0;
        for (&id, slot) in &mut self.slots {
            if matches!(slot.state, State::Waiting) && hit(id, slot) {
                slot.state = to.clone();
                n += 1;
            }
        }
        self.release(n, true);
        n
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
    /// or `at_once`, on the paths a dead route, an expired or an abandoned
    /// request take, where the rest of the window may never drain.
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
            State::Expired => Err(Error::DeviceTimeout {
                deadline_ms: self.timeout.as_millis() as u64,
                attempts: slot.attempts,
            }),
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
