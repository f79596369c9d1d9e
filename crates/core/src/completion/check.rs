//! An explicit-state checker of the completion core.
//!
//! A small world drives the real [`Core`] the way the endpoint does: each
//! thread runs a script of operations (`submit`, a `Load`, `wait`,
//! `abandon`) as a [`Task`], taking one atomic step at a time — a locked
//! call of [`Core::step`], or one piece of a link call made with the lock
//! released (picking a route, writing a frame, reading one reply). Around
//! them an adversary moves time to the next deadline, and within small
//! budgets drops a frame, delivers a reply twice, kills a rank's
//! connection or refuses a dial. A socket link carries each written frame's reply on its
//! connection until a reader reads it; an in-caller link hands it back
//! inside `send`. Every interleaving is explored depth-first from a
//! visited set of world fingerprints, and five properties are asserted on
//! every reachable state:
//!
//! 1. every id settles exactly once (and no slot or credit outlives its
//!    request when the threads are done);
//! 2. window credits are conserved: the credits in use are the slots
//!    waiting for a reply, and never more than the window;
//! 3. no thread sleeps while a reply it waits for is unread on its route
//!    and no thread holds that route's reader role;
//! 4. every wait is given a deadline no later than its request's (a send
//!    parked for a credit: one timeout), and every operation returns: no
//!    state is stuck with a thread that can never return, and no world
//!    recurs on the path that reached it (a loop, in which a thread that
//!    re-parks every timeout runs for ever);
//! 5. no `Load` is written to a route that owes replies.
//!
//! A violation panics with the trace that reached it.

use super::{Action, Core, Event, Phase, State, Task};
use crate::endpoint::Route;
use crate::error::Error;
use crate::wire::{self, Request};
use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::hash::{Hash, Hasher};
use std::panic::{resume_unwind, AssertUnwindSafe};
use std::rc::Rc;
use std::sync::Arc;
use std::time::{Duration, Instant};

impl Core {
    /// Live slots, settled or not.
    pub(crate) fn slots(&self) -> usize {
        self.slots.len()
    }
}

/// Request deadline, in ticks of one millisecond (the retry backoff).
const TIMEOUT: u64 = 3;
/// No deadline the scripts below can reach lies past this.
const HORIZON: u64 = 200;
/// A case that reaches more worlds than this is too large to check within
/// a CI job's memory: it fails rather than grow.
const MAX_STATES: usize = 4_000_000;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Op {
    /// Submits a pure read.
    Read,
    /// Submits a `Load`.
    Load,
    /// Waits on or abandons the thread's n-th submitted request.
    Wait(usize),
    Abandon(usize),
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum LinkKind {
    /// Replies travel on the connection until a reader reads them.
    Socket,
    /// Replies are handed back inside `send`; there is nothing to read.
    Inline,
}

/// One case: the link, the endpoint's configuration, the adversary's
/// budgets and each thread's script.
#[derive(Clone, Debug)]
struct Case {
    link: LinkKind,
    ranks: usize,
    window: usize,
    retries: u32,
    drops: u8,
    dups: u8,
    kills: u8,
    /// Dials the link refuses.
    refusals: u8,
    scripts: Vec<Vec<Op>>,
}

/// What a thread is doing between atomic steps.
#[derive(Clone, Copy, Debug)]
enum Doing {
    /// Between operations.
    Idle,
    /// Runnable: its next step hands this event to the core.
    Ready(Event),
    /// On the condvar until woken or this tick.
    Asleep(u64),
    /// Inside `Link::route`.
    Routing(usize),
    /// Inside `Link::send`, writing a `Load` or not.
    Sending(Route, bool),
    /// Inside `Link::read` until this tick, with this many replies read.
    Reading(Route, u64, usize),
}

#[derive(Clone)]
struct Thread {
    pc: usize,
    task: Option<Task>,
    doing: Doing,
    /// The ids this thread submitted, in order.
    ids: Vec<u64>,
}

/// One rank's connection, as the server sees it.
#[derive(Clone, Default)]
struct Wire {
    gen: u64,
    dead: bool,
    /// Replies written by the server and not yet read, oldest first.
    replies: Vec<u64>,
}

#[derive(Clone)]
struct World {
    core: Core,
    now: u64,
    threads: Vec<Thread>,
    wires: Vec<Wire>,
    next_id: u64,
    /// How each id ended: redeemed by `wait`, failed in `submit`, or
    /// abandoned.
    ended: HashMap<u64, u8>,
    budget: (u8, u8, u8, u8),
    /// The steps that reached this world, newest first.
    trace: Option<Rc<Trail>>,
}

/// One step of a trace, and the steps before it.
struct Trail(String, Option<Rc<Trail>>);

impl World {
    fn log(&mut self, step: String) {
        self.trace = Some(Rc::new(Trail(step, self.trace.take())));
    }
}

struct Checker {
    name: &'static str,
    case: Case,
    base: Instant,
    read: Arc<Vec<u8>>,
    load: Arc<Vec<u8>>,
    /// Fingerprints of the worlds met, and whether each is on the path
    /// being explored.
    seen: HashMap<u64, bool>,
    states: usize,
}

impl Checker {
    fn new(name: &'static str, case: Case) -> Self {
        let read = Request::ReadRow {
            table_addr: 1,
            row: 0,
        };
        let load = Request::Load {
            table_addr: 1,
            row_bytes: 4,
            ciphertext: vec![0; 4],
            tags: None,
        };
        Checker {
            name,
            case,
            base: Instant::now(),
            read: Arc::new(read.encode().unwrap()),
            load: Arc::new(load.encode().unwrap()),
            seen: HashMap::new(),
            states: 0,
        }
    }

    fn at(&self, tick: u64) -> Instant {
        self.base + Duration::from_millis(tick)
    }

    fn tick(&self, at: Instant) -> u64 {
        at.saturating_duration_since(self.base).as_millis() as u64
    }

    /// Explores every reachable world depth-first; returns how many were
    /// distinct. A world met again while it is on the path that reached it
    /// closes a loop the threads can run round for ever.
    fn run(mut self) -> usize {
        let c = &self.case;
        let world = World {
            core: Core::new(c.ranks, c.window, Duration::from_millis(TIMEOUT), c.retries),
            now: 0,
            threads: vec![
                Thread {
                    pc: 0,
                    task: None,
                    doing: Doing::Idle,
                    ids: Vec::new(),
                };
                c.scripts.len()
            ],
            wires: vec![Wire::default(); c.ranks],
            next_id: 1,
            ended: HashMap::new(),
            budget: (c.drops, c.dups, c.kills, c.refusals),
            trace: None,
        };
        // The path: each world's fingerprint and its successors not yet
        // explored.
        let mut path: Vec<(u64, Vec<World>)> = Vec::new();
        let mut next = Some(world);
        loop {
            if let Some(w) = next.take() {
                let key = self.key(&w);
                match self.seen.get(&key) {
                    Some(true) => self.fail(&w, "a loop: a thread can run for ever"),
                    Some(false) => {}
                    None => {
                        self.seen.insert(key, true);
                        path.push((key, self.visit(&w)));
                    }
                }
            }
            let Some((key, pending)) = path.last_mut() else {
                return self.states;
            };
            next = pending.pop();
            if next.is_none() {
                self.seen.insert(*key, false);
                path.pop();
            }
        }
    }

    /// Checks a new world; returns its successors.
    fn visit(&mut self, w: &World) -> Vec<World> {
        self.states += 1;
        if self.states > MAX_STATES {
            self.fail(w, "the case is too large: shrink its scripts or budgets");
        }
        self.check(w);
        // A panic inside the core is a counterexample too.
        let next = std::panic::catch_unwind(AssertUnwindSafe(|| self.successors(w)))
            .unwrap_or_else(|panic| match panic.downcast_ref::<String>() {
                Some(p) if p.starts_with("counterexample") => resume_unwind(panic),
                _ => self.fail(w, "the next step panicked inside the core"),
            });
        if next.is_empty() {
            self.terminal(w);
        }
        next
    }

    fn fail(&self, w: &World, what: &str) -> ! {
        let mut steps = Vec::new();
        let mut at = w.trace.as_deref();
        while let Some(Trail(step, before)) = at {
            steps.push(step.as_str());
            at = before.as_deref();
        }
        steps.reverse();
        let trace = steps.join("\n  ");
        panic!(
            "counterexample in \"{}\" after {} states, {:?} — {what}\n{:?}\ntrace:\n  {trace}",
            self.name,
            self.states,
            self.base.elapsed(),
            self.case
        );
    }

    /// Properties 1–4 on one world.
    fn check(&self, w: &World) {
        let core = &w.core;
        let waiting = core
            .slots
            .values()
            .filter(|s| matches!(s.state, State::Waiting))
            .count();
        if core.waiting != waiting || waiting > self.case.window {
            self.fail(
                w,
                &format!("{} credits for {waiting} waiting", core.waiting),
            );
        }
        for (i, th) in w.threads.iter().enumerate() {
            let (Doing::Asleep(_), Some(t)) = (th.doing, &th.task) else {
                continue;
            };
            let (route, awaited) = self.awaited(w, t);
            let wire = &w.wires[route.0];
            let live = !wire.dead && wire.gen == route.1;
            let unread = live && wire.replies.iter().any(|id| awaited.contains(id));
            let reader = w.threads.iter().any(|o| {
                o.task
                    .as_ref()
                    .and_then(|t| t.reading)
                    .is_some_and(|(r, _)| r.0 == route.0)
            });
            if unread && !reader {
                self.fail(
                    w,
                    &format!("thread {i} asleep on an unread reply, no reader"),
                );
            }
        }
    }

    /// The route an asleep task waits on, and the replies that would end
    /// its wait.
    fn awaited(&self, w: &World, t: &Task) -> (Route, Vec<u64>) {
        let slots = &w.core.slots;
        match (t.phase, slots.get(&t.id)) {
            // Parked on a full window: the oldest waiting request's route.
            _ if t.parked => {
                let waiting = slots
                    .iter()
                    .filter(|(_, s)| matches!(s.state, State::Waiting));
                let oldest = waiting.clone().min_by_key(|(id, s)| (s.submitted, **id));
                let route = oldest.map_or(t.route, |(_, s)| s.route);
                let ids = waiting.filter(|(_, s)| s.route == route).map(|(&id, _)| id);
                (route, ids.collect())
            }
            // A write held back behind a `Load`'s waits for that write.
            (Phase::Arm, Some(_)) if w.core.ranks[t.route.0].loading => (t.route, Vec::new()),
            // A `Load` waiting for its route to owe nothing.
            (Phase::Arm, Some(_)) if t.frame.as_ref().is_some_and(|f| wire::is_load(f)) => {
                (t.route, w.wires[t.route.0].replies.clone())
            }
            (Phase::Arm, Some(_)) => (t.route, Vec::new()),
            (_, Some(s)) => (s.route, vec![t.id]),
            (_, None) => (t.route, Vec::new()),
        }
    }

    /// Property 1 once nothing can move, and property 4's "never stuck".
    fn terminal(&self, w: &World) {
        if w.threads.iter().any(|t| !matches!(t.doing, Doing::Idle)) {
            self.fail(w, "stuck: a thread can never return");
        }
        let submitted = w.threads.iter().map(|t| t.ids.len()).sum::<usize>();
        if w.ended.len() != submitted || w.core.slots() != 0 || w.core.waiting != 0 {
            self.fail(w, "a request never settled, or left a slot or a credit");
        }
    }

    /// Every world one atomic step away.
    fn successors(&self, w: &World) -> Vec<World> {
        let mut out = Vec::new();
        for i in 0..w.threads.len() {
            self.thread_steps(w, i, &mut out);
        }
        // Time moves on to the next deadline anyone holds.
        let deadlines = w.core.slots.values().map(|s| self.tick(s.deadline));
        let held = w.threads.iter().filter_map(|t| match t.doing {
            Doing::Asleep(d) | Doing::Reading(_, d, 0) => Some(d),
            _ => None,
        });
        // Time passes while threads are inside link calls or asleep, not
        // while one is runnable: a step's `now` is late because the link
        // call before it was slow.
        let runnable = w.threads.iter().any(|t| matches!(t.doing, Doing::Ready(_)));
        let next = deadlines.chain(held).filter(|&d| d > w.now).min();
        if let Some(next) = next.filter(|_| !runnable) {
            if next <= HORIZON {
                let mut n = w.clone();
                n.now = next;
                for t in &mut n.threads {
                    if matches!(t.doing, Doing::Asleep(d) if d <= next) {
                        t.doing = Doing::Ready(Event::Woke);
                    }
                }
                n.log(format!("time {next}"));
                out.push(n);
            }
        }
        if w.budget.2 > 0 {
            for (rank, wire) in w.wires.iter().enumerate().filter(|(_, w)| !w.dead) {
                let mut n = w.clone();
                n.budget.2 -= 1;
                n.wires[rank] = Wire {
                    dead: true,
                    gen: wire.gen,
                    replies: Vec::new(),
                };
                n.log(format!("rank {rank}'s connection dies"));
                out.push(n);
            }
        }
        out
    }

    fn thread_steps(&self, w: &World, i: usize, out: &mut Vec<World>) {
        let th = &w.threads[i];
        match th.doing {
            Doing::Idle => {
                let Some(&op) = self.case.scripts[i].get(th.pc) else {
                    return;
                };
                let mut n = w.clone();
                n.log(format!("T{i} starts {op:?}"));
                self.start(&mut n, i, op);
                out.push(n);
            }
            Doing::Ready(ev) => {
                let mut n = w.clone();
                self.locked_step(&mut n, i, ev);
                out.push(n);
            }
            Doing::Asleep(_) => {}
            Doing::Routing(rank) => {
                let mut n = w.clone();
                let wire = &mut n.wires[rank];
                if wire.dead {
                    *wire = Wire {
                        gen: wire.gen + 1,
                        ..Wire::default()
                    };
                }
                let route = (rank, wire.gen);
                n.threads[i].doing = Doing::Ready(Event::Routed(Ok(route)));
                n.log(format!("T{i} routed to {route:?}"));
                out.push(n);
                if w.budget.3 > 0 {
                    let mut n = w.clone();
                    n.budget.3 -= 1;
                    let refused = Err(crate::endpoint::LinkFail::ConnLost);
                    n.threads[i].doing = Doing::Ready(Event::Routed(refused));
                    n.log(format!("T{i}'s dial of rank {rank} is refused"));
                    out.push(n);
                }
            }
            Doing::Sending(route, load) => self.send_steps(w, i, route, load, out),
            Doing::Reading(route, until, read) => {
                let wire = &w.wires[route.0];
                let done = |n: &mut World, result, what: String| {
                    n.threads[i].doing = Doing::Ready(Event::Read(result));
                    n.log(format!("T{i} read of {route:?} {what}"));
                };
                if self.case.link == LinkKind::Inline {
                    let mut n = w.clone();
                    done(&mut n, Ok(0), "finds nothing to read".into());
                    return out.push(n);
                }
                if wire.dead || wire.gen != route.1 {
                    let mut n = w.clone();
                    let lost = Err(crate::endpoint::LinkFail::ConnLost);
                    done(&mut n, lost, "finds the connection dead".into());
                    return out.push(n);
                }
                if let Some(&id) = wire.replies.first() {
                    for twice in [false, true] {
                        if twice && w.budget.1 == 0 {
                            continue;
                        }
                        let mut n = w.clone();
                        n.wires[route.0].replies.remove(0);
                        n.budget.1 -= u8::from(twice);
                        n.threads[i].doing = Doing::Reading(route, until, read + 1);
                        let times = if twice { "twice" } else { "once" };
                        n.log(format!("T{i} reads the reply to {id}, {times}"));
                        self.deliver(&mut n, id, twice);
                        out.push(n);
                    }
                }
                if read > 0 || w.now >= until {
                    let mut n = w.clone();
                    done(&mut n, Ok(read), format!("returns {read}"));
                    out.push(n);
                }
            }
        }
    }

    fn start(&self, n: &mut World, i: usize, op: Op) {
        let ids = &n.threads[i].ids;
        let id = match op {
            Op::Read | Op::Load => n.next_id,
            Op::Wait(k) | Op::Abandon(k) => ids[k],
        };
        let task = match op {
            Op::Read | Op::Load => {
                n.next_id += 1;
                n.threads[i].ids.push(id);
                let frame = if op == Op::Load {
                    &self.load
                } else {
                    &self.read
                };
                Task::submit(id, Arc::clone(frame), None)
            }
            // A request whose submit failed has ended already.
            _ if n.ended.contains_key(&id) => {
                n.threads[i].pc += 1;
                return;
            }
            Op::Wait(_) => Task::wait(id),
            Op::Abandon(_) => {
                n.threads[i].pc += 1;
                n.core.abandon(id);
                n.ended.insert(id, 1);
                self.wake(n);
                return;
            }
        };
        n.threads[i].task = Some(task);
        n.threads[i].doing = Doing::Ready(Event::Start);
    }

    /// The core under the lock: one `step`, then whatever it asked for.
    fn locked_step(&self, n: &mut World, i: usize, ev: Event) {
        let now = self.at(n.now);
        let mut t = n.threads[i].task.take().unwrap();
        let action = n.core.step(&mut t, ev, now);
        // The endpoint notifies before it sleeps: its own notify is not for it.
        self.wake(n);
        let shown = match &action {
            Action::Send(route, frame) => {
                format!("Send({route:?}, load: {})", wire::is_load(frame))
            }
            Action::Read(route, until) => format!("Read({route:?}, until {})", self.tick(*until)),
            Action::Sleep(until) => format!("Sleep(until {})", self.tick(*until)),
            other => format!("{other:?}"),
        };
        n.log(format!("T{i} steps {ev:?} → {shown}"));
        let doing = match action {
            Action::Route(rank) => Doing::Routing(rank),
            Action::Send(route, frame) => Doing::Sending(route, wire::is_load(&frame)),
            Action::Read(route, until) => Doing::Reading(route, self.tick(until), 0),
            Action::Sleep(until) => Doing::Asleep(self.tick(until)),
            Action::Done(result) => {
                let op = self.case.scripts[i][n.threads[i].pc];
                if let Err(Error::MalformedResponse { reason }) = &result {
                    self.fail(n, &format!("T{i}'s {op:?}: {reason}"));
                }
                // A submit that succeeded has not ended its request.
                let ended = !(matches!(op, Op::Read | Op::Load) && result.is_ok());
                if ended && n.ended.insert(t.id, 0).is_some() {
                    self.fail(n, &format!("request {} settled twice", t.id));
                }
                n.threads[i].pc += 1;
                n.threads[i].doing = Doing::Idle;
                return;
            }
        };
        // Property 4: a wait is never given a later deadline than its
        // request's; a send parked for a credit re-checks within one
        // timeout.
        let until = match doing {
            Doing::Asleep(d) | Doing::Reading(_, d, _) => d,
            _ => 0,
        };
        let bound = match n.core.slots.get(&t.id) {
            Some(s) if matches!(s.state, State::Waiting) => self.tick(s.deadline),
            _ if t.phase == Phase::Arm => n.now + TIMEOUT,
            _ => n.now,
        };
        n.threads[i].task = Some(t);
        n.threads[i].doing = doing;
        if until > bound {
            self.fail(n, &format!("T{i} given deadline {until}, past {bound}"));
        }
    }

    fn send_steps(&self, w: &World, i: usize, route: Route, load: bool, out: &mut Vec<World>) {
        let id = w.threads[i].task.as_ref().map_or(0, |t| t.id);
        let wire = &w.wires[route.0];
        // Property 5.
        if load && !wire.dead && wire.gen == route.1 && !wire.replies.is_empty() {
            self.fail(
                w,
                &format!("T{i} writes a Load to {route:?}, which owes replies"),
            );
        }
        for drop in [false, true] {
            if drop && w.budget.0 == 0 {
                continue;
            }
            let mut n = w.clone();
            n.budget.0 -= u8::from(drop);
            let wire = &mut n.wires[route.0];
            let sent = if drop {
                n.log(format!("T{i}'s frame {id} is dropped"));
                Ok(false)
            } else if self.case.link == LinkKind::Inline {
                n.log(format!("T{i}'s frame {id} is served inline"));
                self.deliver(&mut n, id, false);
                Ok(false)
            } else if wire.dead || wire.gen != route.1 {
                n.log(format!("T{i}'s write of {id} finds {route:?} dead"));
                Err(crate::endpoint::LinkFail::ConnLost)
            } else {
                wire.replies.push(id);
                n.log(format!("T{i} writes {id} to {route:?}"));
                Ok(true)
            };
            n.threads[i].doing = Doing::Ready(Event::Sent(sent));
            out.push(n);
        }
    }

    /// A reply handed to the endpoint's callback (twice, for a duplicate).
    fn deliver(&self, n: &mut World, id: u64, twice: bool) {
        for _ in 0..=usize::from(twice) {
            n.core.complete(id, vec![0]);
            self.wake(n);
        }
    }

    /// `notify_all`, if the core asked for it.
    fn wake(&self, n: &mut World) {
        if n.core.take_wake() {
            for t in &mut n.threads {
                if matches!(t.doing, Doing::Asleep(_)) {
                    t.doing = Doing::Ready(Event::Woke);
                }
            }
        }
    }

    /// A fingerprint of everything but the trace.
    /// Times are taken relative to now, a past one as now: the core
    /// decides the same way whenever the whole world happens, so a thread
    /// that re-checks every timeout for ever meets its world again.
    fn key(&self, w: &World) -> u64 {
        let rel = |at: Instant| self.tick(at).saturating_sub(w.now);
        let mut h = DefaultHasher::new();
        (w.next_id, w.budget).hash(&mut h);
        let c = &w.core;
        let mut slots: Vec<_> = c.slots.iter().collect();
        slots.sort_by_key(|(id, s)| (s.submitted, **id));
        for (id, s) in slots {
            let state = match s.state {
                State::Waiting => 0,
                State::Done(_) => 1,
                State::Failed(_) => 2,
                State::Expired => 3,
            };
            let at = rel(s.deadline);
            (id, state, s.attempts, at, s.route, s.frame.is_some()).hash(&mut h);
        }
        // `served` is left out: no decision reads it.
        for r in &c.ranks {
            (r.reader, r.gen, r.owed, r.loading).hash(&mut h);
        }
        (c.next_rank, c.waiting, c.asleep, c.parked, c.wake).hash(&mut h);
        for th in &w.threads {
            (th.pc, &th.ids).hash(&mut h);
            match th.doing {
                Doing::Idle => 0.hash(&mut h),
                Doing::Ready(ev) => (1, event_key(ev)).hash(&mut h),
                Doing::Asleep(d) => (2, d.saturating_sub(w.now)).hash(&mut h),
                Doing::Routing(r) => (3, r).hash(&mut h),
                Doing::Sending(r, l) => (4, r, l).hash(&mut h),
                Doing::Reading(r, d, n) => (5, r, d.saturating_sub(w.now), n).hash(&mut h),
            }
            if let Some(t) = &th.task {
                let reading = t.reading.map(|(r, d)| (r, rel(d)));
                (
                    t.id,
                    t.phase as u8,
                    t.submits,
                    t.frame.is_some(),
                    t.rank,
                    t.tries,
                )
                    .hash(&mut h);
                (t.route, reading, t.parked, t.idle).hash(&mut h);
            }
        }
        for wire in &w.wires {
            (wire.gen, wire.dead, &wire.replies).hash(&mut h);
        }
        let mut ended: Vec<_> = w.ended.iter().collect();
        ended.sort();
        ended.hash(&mut h);
        h.finish()
    }
}

/// An event as numbers, for the fingerprint.
fn event_key(ev: Event) -> (u8, u64, u64) {
    let fail = |why: crate::endpoint::LinkFail| match why {
        crate::endpoint::LinkFail::ConnLost => u64::MAX,
        crate::endpoint::LinkFail::TooLarge(n) => n as u64,
    };
    match ev {
        Event::Start => (0, 0, 0),
        Event::Woke => (1, 0, 0),
        Event::Routed(Ok((rank, gen))) => (2, rank as u64, gen),
        Event::Routed(Err(why)) => (3, fail(why), 0),
        Event::Sent(Ok(owes)) => (4, u64::from(owes), 0),
        Event::Sent(Err(why)) => (5, fail(why), 0),
        Event::Read(Ok(n)) => (6, n as u64, 0),
        Event::Read(Err(why)) => (7, fail(why), 0),
    }
}

use LinkKind::{Inline, Socket};
use Op::{Abandon, Load, Read, Wait};

fn case(link: LinkKind, ranks: usize, window: usize, retries: u32) -> Case {
    Case {
        link,
        ranks,
        window,
        retries,
        drops: 0,
        dups: 0,
        kills: 0,
        refusals: 0,
        scripts: Vec::new(),
    }
}

/// The two-thread cases: each rule's interleavings at the smallest window
/// that exercises it.
fn two_thread_cases() -> Vec<(&'static str, Case)> {
    vec![
        (
            "lone submitter parks on a full window",
            Case {
                scripts: vec![vec![Read, Read, Wait(0), Wait(1)], vec![]],
                ..case(Socket, 1, 1, 0)
            },
        ),
        (
            "two waiters share one connection",
            Case {
                scripts: vec![vec![Read, Wait(0)], vec![Read, Wait(0)]],
                ..case(Socket, 1, 2, 0)
            },
        ),
        (
            "a parked submitter beside a waiter",
            Case {
                scripts: vec![vec![Read, Read, Wait(0), Wait(1)], vec![Read, Wait(0)]],
                ..case(Socket, 1, 1, 0)
            },
        ),
        (
            "a Load behind unread replies",
            Case {
                scripts: vec![vec![Read, Read, Wait(1), Wait(0)], vec![Load, Wait(0)]],
                ..case(Socket, 1, 3, 0)
            },
        ),
        (
            "a Load whose connection dies",
            Case {
                kills: 1,
                scripts: vec![vec![Read, Wait(0)], vec![Load, Wait(0)]],
                ..case(Socket, 1, 2, 1)
            },
        ),
        (
            "a retry after a dropped frame",
            Case {
                drops: 1,
                scripts: vec![vec![Read, Wait(0)], vec![Read, Wait(0)]],
                ..case(Socket, 2, 2, 1)
            },
        ),
        (
            "a retry after a dead connection",
            Case {
                kills: 1,
                scripts: vec![vec![Read, Wait(0)], vec![Read, Wait(0)]],
                ..case(Socket, 2, 2, 1)
            },
        ),
        (
            "a retry after a dead connection, at window 1",
            Case {
                kills: 1,
                scripts: vec![vec![Read, Wait(0)], vec![Read, Wait(0)]],
                ..case(Socket, 2, 1, 1)
            },
        ),
        (
            "failover past a refused dial",
            Case {
                refusals: 1,
                scripts: vec![vec![Read, Wait(0)], vec![Load, Wait(0)]],
                ..case(Socket, 2, 2, 0)
            },
        ),
        (
            "every rank refuses",
            Case {
                refusals: 2,
                scripts: vec![vec![Read, Wait(0)], vec![Read, Wait(0)]],
                ..case(Inline, 1, 1, 1)
            },
        ),
        (
            "a duplicate reply",
            Case {
                dups: 1,
                scripts: vec![vec![Read, Wait(0)], vec![Read, Wait(0)]],
                ..case(Socket, 1, 2, 0)
            },
        ),
        (
            "abandon beside a parked submitter",
            Case {
                scripts: vec![vec![Read, Abandon(0)], vec![Read, Wait(0)]],
                ..case(Socket, 1, 1, 0)
            },
        ),
        (
            "in-caller link with a dropped frame",
            Case {
                drops: 1,
                dups: 1,
                scripts: vec![vec![Read, Read, Wait(0), Wait(1)], vec![Read, Wait(0)]],
                ..case(Inline, 1, 1, 1)
            },
        ),
    ]
}

/// Runs `cases`, printing each one's state count and time.
fn explore(cases: Vec<(&'static str, Case)>) {
    for (name, case) in cases {
        let started = Instant::now();
        let states = Checker::new(name, case).run();
        eprintln!("{name}: {states} states in {:?}", started.elapsed());
    }
}

#[test]
fn every_two_thread_interleaving_keeps_the_rules() {
    explore(two_thread_cases());
}

/// A third thread beside each two-thread case the adversary does not
/// touch — a waiter, a `Load`, or a submitter that abandons —
/// and three waiters against a duplicated reply and, in the caller, a
/// dropped frame. (Three threads with a dropped frame or a dead
/// connection on a socket reach more than `MAX_STATES` worlds; two
/// threads cover them.)
#[test]
#[ignore = "minutes in a debug build; CI runs it with --release"]
fn every_three_thread_interleaving_keeps_the_rules() {
    let thirds = [
        vec![Read, Wait(0)],
        vec![Load, Wait(0)],
        vec![Read, Abandon(0)],
    ];
    let mut cases = Vec::new();
    for (name, base) in two_thread_cases().into_iter().rev() {
        if base.drops + base.dups + base.kills > 0 {
            continue;
        }
        for third in &thirds {
            let mut c = base.clone();
            c.scripts.push(third.clone());
            c.window += 1;
            cases.push((name, c));
        }
    }
    let waiters = vec![vec![Read, Wait(0)]; 3];
    let scripts = || waiters.clone();
    cases.splice(
        0..0,
        [
            (
                "three waiters, one reply twice",
                Case {
                    dups: 1,
                    scripts: scripts(),
                    ..case(Socket, 1, 3, 0)
                },
            ),
            (
                "three waiters in the caller, one frame dropped",
                Case {
                    drops: 1,
                    scripts: scripts(),
                    ..case(Inline, 1, 2, 1)
                },
            ),
        ],
    );
    explore(cases);
}

/// The drain rule on its own: a `Load` is written only once its route
/// owes no replies.
#[test]
fn a_load_waits_until_its_route_owes_nothing() {
    let checker = Checker::new("drain", case(Socket, 1, 4, 0));
    let mut core = Core::new(1, 4, Duration::from_millis(TIMEOUT), 0);
    let now = checker.at(0);
    let route = (0, 0);
    let mut read = Task::submit(1, Arc::clone(&checker.read), Some(0));
    assert_eq!(core.step(&mut read, Event::Start, now), Action::Route(0));
    let sent = core.step(&mut read, Event::Routed(Ok(route)), now);
    assert!(matches!(sent, Action::Send(..)));
    assert!(matches!(
        core.step(&mut read, Event::Sent(Ok(true)), now),
        Action::Done(Ok(_))
    ));

    let mut load = Task::submit(2, Arc::clone(&checker.load), Some(0));
    core.step(&mut load, Event::Start, now);
    let until = checker.at(TIMEOUT);
    assert_eq!(
        core.step(&mut load, Event::Routed(Ok(route)), now),
        Action::Read(route, until),
        "a Load must read its route's owed reply before it is written"
    );
    core.complete(1, vec![0]);
    let sent = core.step(&mut load, Event::Read(Ok(1)), now);
    assert!(matches!(sent, Action::Send(r, _) if r == route));
}

impl Checker {
    /// Runs `t` alone to its end from tick `now`, the endpoint's way, over
    /// an in-caller link that serves each frame inside `send` (or drops it,
    /// if `drop`). Returns its result, the core steps it took and the tick
    /// it ended at.
    fn solo(&self, core: &mut Core, mut t: Task, mut now: u64, drop: bool) -> Solo {
        let mut ev = Event::Start;
        for steps in 1..=1_000 {
            ev = match core.step(&mut t, ev, self.at(now)) {
                Action::Done(result) => return (result, steps, now),
                Action::Route(rank) => Event::Routed(Ok((rank, 0))),
                Action::Send(..) if drop => Event::Sent(Ok(false)),
                Action::Send(..) => {
                    core.complete(t.id, vec![0]);
                    Event::Sent(Ok(false))
                }
                Action::Read(..) => Event::Read(Ok(0)),
                Action::Sleep(until) => {
                    now = self.tick(until);
                    Event::Woke
                }
            };
            core.take_wake();
        }
        panic!("request {} still running at tick {now}", t.id);
    }
}

type Solo = (Result<Vec<u8>, Error>, usize, u64);

/// A submit reaches the core three times: to start (the rank is picked
/// there), with its route, and once its frame is written.
#[test]
fn a_submit_takes_three_core_steps() {
    let checker = Checker::new("solo", case(Inline, 2, 1, 0));
    let mut core = Core::new(2, 1, Duration::from_millis(TIMEOUT), 0);
    let submit = Task::submit(1, Arc::clone(&checker.read), None);
    let (result, steps, _) = checker.solo(&mut core, submit, 0, false);
    assert_eq!((result, steps), (Ok(Vec::new()), 3));
    let (result, steps, _) = checker.solo(&mut core, Task::wait(1), 0, false);
    assert_eq!((result, steps), (Ok(vec![0]), 1));
}

/// At window 1, a request whose frame the channel dropped holds the one
/// credit, and its owner waits on it only after its next submit. That
/// submit parks; at its re-check the dropped request is past its deadline
/// and gives its credit back, so the submit returns within two timeouts,
/// and the dropped request's `wait` re-sends it.
#[test]
fn a_parked_submitter_takes_back_the_credit_of_a_dropped_frame() {
    let checker = Checker::new("solo", case(Inline, 1, 1, 1));
    let mut core = Core::new(1, 1, Duration::from_millis(TIMEOUT), 1);
    let frame = || Arc::clone(&checker.read);
    let (a, _, now) = checker.solo(&mut core, Task::submit(1, frame(), None), 0, true);
    assert_eq!(a, Ok(Vec::new()));
    let (b, _, now) = checker.solo(&mut core, Task::submit(2, frame(), None), now, false);
    assert_eq!(b, Ok(Vec::new()));
    assert!(now <= 2 * TIMEOUT, "the submit was parked until tick {now}");
    let (a, _, now) = checker.solo(&mut core, Task::wait(1), now, false);
    assert_eq!(a, Ok(vec![0]), "the dropped request was not re-sent");
    let (b, _, _) = checker.solo(&mut core, Task::wait(2), now, false);
    assert_eq!(b, Ok(vec![0]));
    assert_eq!((core.in_flight(), core.slots()), (0, 0));
}
