//! Deterministic fault injection: the chaos harness's ground layer.
//!
//! SecNDP's safety argument (paper §II, Theorems 2/A.4) is conditional:
//! *whatever* the untrusted device does, the trusted side either gets the
//! correct result or a verification failure. Each device attack is written
//! once, as a [`Tamper`] arm in [`device`](crate::device); this module
//! turns the argument into a **soak-testable invariant** — schedule a
//! randomized mix of faults against real queries (under the concurrent
//! endpoint, over any link) and prove that every injected fault was either
//!
//! - **masked**: the query still returned the correct, verified result
//!   (retries, replication or fault-free luck absorbed it), or
//! - **detected**: the query failed with a typed error, and — for
//!   integrity-class errors — an audit event in the *same trace*.
//!
//! Anything else is a **silent corruption**: the invariant the whole
//! scheme exists to rule out.
//!
//! # Determinism
//!
//! Everything is driven by a [`FaultPlan`] seeded [SplitMix64] generator —
//! no wall clock, no OS entropy. `fault_for(op)` is a *pure function* of
//! `(seed, op)`, so a failing run's seed replays the identical fault
//! schedule, and violations print the seed plus the schedule for
//! one-command reproduction.
//!
//! [SplitMix64]: https://prng.di.unimi.it/splitmix64.c
//!
//! # Pieces
//!
//! - [`FaultPlan`] — pure seeded schedule: which op gets which
//!   [`FaultKind`] on which rank.
//! - [`FaultInjector`] — the armed-fault mailbox shared between the
//!   harness (which arms) and the two injection sites (which consume by
//!   [`FaultClass`] and journal to the telemetry
//!   [fault log](secndp_telemetry::faultlog)).
//! - [`FaultyNdp`] — a device wrapper landing device-class faults inside
//!   the serve path: each data attack through its [`Tamper`] arm, the
//!   stale-image replay only it can mount, and a rank holding a frame.
//! - [`FaultyLink`] — a [`Link`] decorator landing channel-class faults
//!   (drops, duplicates, late and corrupted replies, a cut link) on the
//!   frames it carries, over the in-caller link and the TCP link alike.
//! - [`InvariantChecker`] — reconciles the fault journal against query
//!   outcomes and the audit log into an [`InvariantReport`].
//!
//! Both sites sit on seams every deployment has — the device trait and the
//! link trait — so no transport carries a fault hook of its own, and faults
//! hit under real submit/wait concurrency.

use crate::device::{HonestNdp, NdpDevice, NdpResponse, StoredTable, Tamper};
use crate::endpoint::{locked, Endpoint, EndpointConfig, Got, Link, LinkFail, Route};
use crate::error::Error;
use crate::net::{require_addrs, NetConfig, TcpLink};
use crate::transport::{InlineLink, TransportConfig};
use secndp_arith::mersenne::Fq;
use secndp_arith::ring::RingWord;
use secndp_telemetry::audit::AuditEvent;
use secndp_telemetry::faultlog::{fault_log, FaultRecord};
use std::collections::{BTreeMap, HashMap, HashSet};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Weyl-sequence increment shared by SplitMix64 and the repo's jitter
/// decorrelation constant.
const GOLDEN: u64 = 0x9E37_79B9_7F4A_7C15;

/// The SplitMix64 generator: tiny, seedable, full-period, and — unlike
/// `rand` — dependency-free. Used for every scheduling decision so runs
/// replay exactly from their seed.
#[derive(Debug, Clone)]
pub struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    /// A generator whose whole output stream is a function of `seed`.
    pub fn new(seed: u64) -> Self {
        Self { state: seed }
    }

    /// The next 64-bit output.
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(GOLDEN);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// A value uniform in `[0, bound)`; `bound` must be nonzero.
    pub fn below(&mut self, bound: u64) -> u64 {
        debug_assert!(bound > 0);
        // Multiply-shift reduction: biased by < 2⁻⁴⁰ for our tiny bounds,
        // and branch-free — determinism matters here, statistics do not.
        ((self.next_u64() as u128 * bound as u128) >> 64) as u64
    }
}

/// Which layer of the stack an injected fault lands in.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultClass {
    /// Device faults, landed by [`FaultyNdp`] inside the serve path: wrong
    /// data, and a rank holding a frame.
    Device,
    /// Channel faults, landed by [`FaultyLink`] on the frames and replies
    /// it carries: drops, duplicates, late or corrupted replies, a cut link.
    Channel,
}

/// One kind of injectable fault, with its materialized parameters.
///
/// Each variant maps to a concrete adversary from the paper's threat
/// model — see `DESIGN.md` § Fault injection & chaos for the full mapping.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// Lands as [`Tamper::FlipResultBit`].
    FlipResponseBit {
        /// Element (or byte) index, reduced mod the response length.
        element: u32,
        /// Bit to flip, reduced mod the element width.
        bit: u32,
    },
    /// Lands as [`Tamper::SwapFirstRow`], with the row `offset` past the
    /// first requested one.
    SwapValue {
        /// Row-index offset added mod the table's row count (≥ 1).
        offset: u32,
    },
    /// Lands as [`Tamper::ForgeTag`].
    SwapTag,
    /// Serve the query from the table image *before* the latest load —
    /// a stale-version replay against the OTP versioning scheme.
    ReplayStale,
    /// Lands as [`Tamper::ZeroResult`].
    ZeroResult,
    /// Never deliver the frame — the request must time out.
    DropReply,
    /// Complete the reply twice; the second must be dropped as a late
    /// completion, never double-settled.
    DuplicateReply,
    /// Complete the reply only after `delay_ms` — past the deadline, so a
    /// retry races the straggler.
    LateReply {
        /// Sleep before completing, in milliseconds.
        delay_ms: u32,
    },
    /// XOR the first byte of the encoded reply — an undecodable frame.
    MalformedReply {
        /// Nonzero mask XORed into the reply's first byte.
        mask: u8,
    },
    /// The device holds the frame for `stall_ms` before serving: past the
    /// deadline, so a socket rank's request times out and is retried; an
    /// in-caller rank holds its caller that long.
    RankStall {
        /// Sleep before serving, in milliseconds.
        stall_ms: u32,
    },
    /// The link to the rank is cut for good: the frame, and whatever else
    /// is in flight to that rank, fails as a lost connection, and so does
    /// every later send to it.
    RankCrash,
}

impl FaultKind {
    /// Static snake-case name, journaled with every injection.
    pub fn name(&self) -> &'static str {
        match self {
            FaultKind::FlipResponseBit { .. } => "flip_response_bit",
            FaultKind::SwapValue { .. } => "swap_value",
            FaultKind::SwapTag => "swap_tag",
            FaultKind::ReplayStale => "replay_stale",
            FaultKind::ZeroResult => "zero_result",
            FaultKind::DropReply => "drop_reply",
            FaultKind::DuplicateReply => "duplicate_reply",
            FaultKind::LateReply { .. } => "late_reply",
            FaultKind::MalformedReply { .. } => "malformed_reply",
            FaultKind::RankStall { .. } => "rank_stall",
            FaultKind::RankCrash => "rank_crash",
        }
    }

    /// The stack layer this fault is injected at.
    pub fn class(&self) -> FaultClass {
        match self {
            FaultKind::FlipResponseBit { .. }
            | FaultKind::SwapValue { .. }
            | FaultKind::SwapTag
            | FaultKind::ReplayStale
            | FaultKind::ZeroResult
            | FaultKind::RankStall { .. } => FaultClass::Device,
            FaultKind::DropReply
            | FaultKind::DuplicateReply
            | FaultKind::LateReply { .. }
            | FaultKind::MalformedReply { .. }
            | FaultKind::RankCrash => FaultClass::Channel,
        }
    }
}

impl std::fmt::Display for FaultKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FaultKind::FlipResponseBit { element, bit } => {
                write!(f, "flip_response_bit(element={element},bit={bit})")
            }
            FaultKind::SwapValue { offset } => write!(f, "swap_value(offset={offset})"),
            FaultKind::LateReply { delay_ms } => write!(f, "late_reply(delay_ms={delay_ms})"),
            FaultKind::MalformedReply { mask } => write!(f, "malformed_reply(mask={mask:#04x})"),
            FaultKind::RankStall { stall_ms } => write!(f, "rank_stall(stall_ms={stall_ms})"),
            other => f.write_str(other.name()),
        }
    }
}

/// A parameter-free fault selector — the unit of the plan's kind mix.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultSel {
    /// → [`FaultKind::FlipResponseBit`]
    Flip,
    /// → [`FaultKind::SwapValue`]
    Swap,
    /// → [`FaultKind::SwapTag`]
    SwapTag,
    /// → [`FaultKind::ReplayStale`]
    Stale,
    /// → [`FaultKind::ZeroResult`]
    Zero,
    /// → [`FaultKind::DropReply`]
    Drop,
    /// → [`FaultKind::DuplicateReply`]
    Duplicate,
    /// → [`FaultKind::LateReply`]
    Late,
    /// → [`FaultKind::MalformedReply`]
    Malformed,
    /// → [`FaultKind::RankStall`]
    Stall,
    /// → [`FaultKind::RankCrash`]
    Crash,
}

impl FaultSel {
    /// Every selector, in the canonical order the plan indexes into.
    pub const ALL: &'static [FaultSel] = &[
        FaultSel::Flip,
        FaultSel::Swap,
        FaultSel::SwapTag,
        FaultSel::Stale,
        FaultSel::Zero,
        FaultSel::Drop,
        FaultSel::Duplicate,
        FaultSel::Late,
        FaultSel::Malformed,
        FaultSel::Stall,
        FaultSel::Crash,
    ];

    /// This selector's kind, with its parameters drawn from `rng`.
    fn materialize(self, rng: &mut SplitMix64) -> FaultKind {
        match self {
            FaultSel::Flip => FaultKind::FlipResponseBit {
                element: rng.below(64) as u32,
                bit: rng.below(64) as u32,
            },
            FaultSel::Swap => FaultKind::SwapValue {
                offset: 1 + rng.below(7) as u32,
            },
            FaultSel::SwapTag => FaultKind::SwapTag,
            FaultSel::Stale => FaultKind::ReplayStale,
            FaultSel::Zero => FaultKind::ZeroResult,
            FaultSel::Drop => FaultKind::DropReply,
            FaultSel::Duplicate => FaultKind::DuplicateReply,
            FaultSel::Late => FaultKind::LateReply { delay_ms: LATE_MS },
            FaultSel::Malformed => FaultKind::MalformedReply {
                mask: 1 << rng.below(8),
            },
            FaultSel::Stall => FaultKind::RankStall { stall_ms: STALL_MS },
            FaultSel::Crash => FaultKind::RankCrash,
        }
    }
}

/// One scheduled fault: which op, which rank the plan *suggested*, and the
/// fully materialized kind. The rank is advisory — the consuming site
/// journals the rank the fault actually landed on, since the endpoint's
/// round-robin decides which rank serves an op.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PlannedFault {
    /// Harness-assigned operation index.
    pub op: u64,
    /// Rank the plan drew (informational; see above).
    pub rank: u32,
    /// The materialized fault.
    pub kind: FaultKind,
}

impl std::fmt::Display for PlannedFault {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "op={} rank={} kind={}", self.op, self.rank, self.kind)
    }
}

/// A pure, seeded fault schedule: `fault_for(op)` depends only on
/// `(plan, op)`, never on wall clock or prior calls.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FaultPlan {
    /// Master seed; the whole schedule is a function of it.
    pub seed: u64,
    /// Injection probability per op, in permille (0 = never, 1000 =
    /// every op).
    pub rate_permille: u32,
    /// Kinds the plan draws from, uniformly.
    pub mix: Vec<FaultSel>,
    /// Ranks the plan draws the (advisory) landing rank from.
    pub ranks: u32,
}

/// `delay_ms` of every [`FaultKind::LateReply`]: past the soak's 150 ms
/// deadline, so a retry races the straggler.
const LATE_MS: u32 = 350;
/// `stall_ms` of every [`FaultKind::RankStall`]: past the soak's 40 ms
/// stall grace but under its deadline.
const STALL_MS: u32 = 60;

impl FaultPlan {
    /// A plan with the full kind mix and the soak defaults: 8 ‰ rate,
    /// late replies of 350 ms and stalls of 60 ms.
    pub fn new(seed: u64) -> Self {
        Self {
            seed,
            rate_permille: 8,
            mix: FaultSel::ALL.to_vec(),
            ranks: 1,
        }
    }

    /// The fault (if any) scheduled for operation `op` — a pure function
    /// of `(self, op)`.
    pub fn fault_for(&self, op: u64) -> Option<PlannedFault> {
        if self.rate_permille == 0 || self.mix.is_empty() {
            return None;
        }
        // Per-op generator: decorrelate ops by folding the op index into
        // the seed, so the schedule is random-access (pure), not a stream.
        let mut rng = SplitMix64::new(self.seed ^ op.wrapping_mul(GOLDEN).wrapping_add(op));
        if rng.below(1000) >= self.rate_permille as u64 {
            return None;
        }
        let sel = self.mix[rng.below(self.mix.len() as u64) as usize];
        let rank = rng.below(self.ranks.max(1) as u64) as u32;
        let kind = sel.materialize(&mut rng);
        Some(PlannedFault { op, rank, kind })
    }

    /// The full schedule for ops `0..ops`.
    pub fn schedule(&self, ops: u64) -> Vec<PlannedFault> {
        (0..ops).filter_map(|op| self.fault_for(op)).collect()
    }

    /// Human-readable schedule dump, printed when the invariant is
    /// violated so one command replays the exact run.
    pub fn render_schedule(&self, ops: u64) -> String {
        let mut out = format!(
            "fault schedule: seed={} rate={}permille ops={ops}\n",
            self.seed, self.rate_permille
        );
        for f in self.schedule(ops) {
            out.push_str(&format!("  {f}\n"));
        }
        out
    }
}

/// The armed-fault mailbox between the harness and the injection sites.
///
/// The harness arms at most one [`PlannedFault`] before issuing the op it
/// is scheduled for; whichever injection site of the matching
/// [`FaultClass`] serves that op consumes it with [`take`](Self::take)
/// and journals it (exactly once) to the fault log. Faults
/// are journaled at *consumption* time: an armed fault that never fires
/// (e.g. the op errored before reaching the device) is simply
/// [`disarm`](Self::disarm)ed and never counted, so the checker only
/// reconciles faults that actually landed.
#[derive(Debug, Default)]
pub struct FaultInjector {
    armed: Mutex<Option<PlannedFault>>,
    injected: AtomicU64,
}

impl FaultInjector {
    /// A mailbox with nothing armed.
    pub fn new() -> Self {
        Self::default()
    }

    /// Arms `fault` for the next matching injection site, replacing any
    /// previously armed fault.
    pub fn arm(&self, fault: PlannedFault) {
        *locked(&self.armed) = Some(fault);
    }

    /// Removes and returns the armed fault without consuming it as an
    /// injection.
    pub fn disarm(&self) -> Option<PlannedFault> {
        locked(&self.armed).take()
    }

    /// Consumes the armed fault if its class matches the calling site.
    pub fn take(&self, class: FaultClass) -> Option<PlannedFault> {
        locked(&self.armed).take_if(|f| f.kind.class() == class)
    }

    /// Journals a consumed fault to the process-wide
    /// [fault log](secndp_telemetry::faultlog::fault_log) with the rank it
    /// actually landed on, and counts it into [`injected`](Self::injected).
    /// Both sites run inside the query's trace — the device under its
    /// `ndp_serve` span, the link on the caller's thread — so the record
    /// carries the query's trace id.
    fn journal(&self, fault: &PlannedFault, actual_rank: u32, detail: &'static str) {
        self.injected.fetch_add(1, Ordering::Relaxed);
        fault_log().record(fault.op, actual_rank, fault.kind.name(), detail);
    }

    /// Faults journaled through this injector so far.
    pub fn injected(&self) -> u64 {
        self.injected.load(Ordering::Relaxed)
    }
}

/// Where an armed data fault sends the one operation it lands on.
enum Landing<'a> {
    /// Through the wrapped device, under this attack.
    Tamper(Tamper),
    /// To the table's image before its latest load.
    Stale(&'a HonestNdp),
}

/// A device wrapper that lands **device-class** faults inside the serve
/// path: each data attack maps to its [`Tamper`] arm, except the
/// stale-version replay, which serves the previous image of a reloaded
/// table; a rank stall holds the frame before serving it honestly.
///
/// Wrap one per rank around the real device and serve the fleet behind
/// any link — [`FaultyLink::over_inline`], or one
/// [`NetServer`](crate::net::NetServer) per rank — so faults land under
/// real concurrency; the shared [`FaultInjector`] decides which op is hit.
/// With nothing armed the wrapper is a pure pass-through.
#[derive(Debug)]
pub struct FaultyNdp<D> {
    inner: D,
    injector: Arc<FaultInjector>,
    rank: u32,
    /// The image of every loaded table, tracked for its row count.
    current: HashMap<u64, StoredTable>,
    /// Each reloaded table's previous image, as a device serving it.
    stale: HashMap<u64, HonestNdp>,
}

impl<D: NdpDevice> FaultyNdp<D> {
    /// Wraps `inner` as rank `rank`, consuming faults from `injector`.
    pub fn new(inner: D, injector: Arc<FaultInjector>, rank: u32) -> Self {
        Self {
            inner,
            injector,
            rank,
            current: HashMap::new(),
            stale: HashMap::new(),
        }
    }

    /// A fleet of `ranks` wrappers around clones of `device`, all
    /// consuming from one shared injector — the input to
    /// [`FaultyLink::over_inline`].
    pub fn fleet(device: D, ranks: usize, injector: Arc<FaultInjector>) -> Vec<Self>
    where
        D: Clone,
    {
        (0..ranks.max(1))
            .map(|rank| Self::new(device.clone(), Arc::clone(&injector), rank as u32))
            .collect()
    }

    /// Consumes the armed device fault, if any, for one operation on
    /// `table_addr` whose first row is `first`, and journals it. `None`
    /// serves the operation honestly: nothing was armed, the fault only
    /// held the frame, or it cannot land on it, which the journal says why.
    fn land(&self, table_addr: u64, first: Option<usize>, tagged: bool) -> Option<Landing<'_>> {
        let fault = self.injector.take(FaultClass::Device)?;
        let landed = match fault.kind {
            FaultKind::FlipResponseBit { element, bit } => {
                let element = element as usize;
                Ok(Landing::Tamper(Tamper::FlipResultBit { element, bit }))
            }
            FaultKind::SwapValue { offset } => {
                let rows = self.current.get(&table_addr).map_or(0, StoredTable::rows);
                match first {
                    Some(i) if rows >= 2 => {
                        let with = i.wrapping_add(offset as usize) % rows;
                        Ok(Landing::Tamper(Tamper::SwapFirstRow { with }))
                    }
                    _ => Err("untracked or trivial table; passthrough"),
                }
            }
            FaultKind::SwapTag if !tagged => Err("no tag to forge; passthrough"),
            FaultKind::SwapTag => Ok(Landing::Tamper(Tamper::ForgeTag)),
            FaultKind::ZeroResult => Ok(Landing::Tamper(Tamper::ZeroResult)),
            FaultKind::ReplayStale => match self.stale.get(&table_addr) {
                Some(image) => Ok(Landing::Stale(image)),
                None => Err("no stale image; served fresh"),
            },
            FaultKind::RankStall { .. } => Err("held before serving"),
            // Channel kinds are filtered out by `take`'s class match.
            _ => unreachable!("channel fault taken by FaultyNdp"),
        };
        let detail = landed.as_ref().err().copied().unwrap_or("");
        self.injector.journal(&fault, self.rank, detail);
        if let FaultKind::RankStall { stall_ms } = fault.kind {
            // Busy with a frame and silent past the request deadline.
            std::thread::sleep(Duration::from_millis(stall_ms.into()));
        }
        landed.ok()
    }
}

impl<D: NdpDevice> NdpDevice for FaultyNdp<D> {
    fn load(
        &mut self,
        table_addr: u64,
        ciphertext: Vec<u8>,
        row_bytes: usize,
        tags: Option<Vec<Fq>>,
    ) -> Result<(), Error> {
        let image = StoredTable::new(ciphertext.clone(), row_bytes, tags.clone())?;
        self.inner.load(table_addr, ciphertext, row_bytes, tags)?;
        // Only successful loads rotate the image history: the previous
        // image becomes the stale-replay source.
        if let Some(prev) = self.current.insert(table_addr, image) {
            self.stale
                .insert(table_addr, HonestNdp::serving(table_addr, prev));
        }
        Ok(())
    }

    fn weighted_sum<W: RingWord>(
        &self,
        table_addr: u64,
        indices: &[usize],
        weights: &[W],
        with_tag: bool,
    ) -> Result<NdpResponse<W>, Error> {
        match self.land(table_addr, indices.first().copied(), with_tag) {
            None => self
                .inner
                .weighted_sum(table_addr, indices, weights, with_tag),
            Some(Landing::Tamper(t)) => {
                t.weighted_sum(&self.inner, table_addr, indices, weights, with_tag)
            }
            Some(Landing::Stale(d)) => d.weighted_sum(table_addr, indices, weights, with_tag),
        }
    }

    fn read_row(&self, table_addr: u64, row: usize) -> Result<Vec<u8>, Error> {
        match self.land(table_addr, Some(row), false) {
            None => self.inner.read_row(table_addr, row),
            Some(Landing::Tamper(t)) => t.read_row(&self.inner, table_addr, row),
            Some(Landing::Stale(d)) => d.read_row(table_addr, row),
        }
    }
}

/// A [`Link`] decorator that lands **channel-class** faults on the frames
/// it carries, over any link: the adversary owns the channel, whichever
/// transport the channel is.
///
/// An armed channel fault lands on the next frame sent, on the caller's
/// thread and so inside the query's trace:
///
/// - [`DropReply`](FaultKind::DropReply): the frame is never delivered;
/// - [`RankCrash`](FaultKind::RankCrash): the link to the frame's rank is
///   [cut](Self::crash);
/// - [`DuplicateReply`](FaultKind::DuplicateReply),
///   [`LateReply`](FaultKind::LateReply) and
///   [`MalformedReply`](FaultKind::MalformedReply): the frame is delivered,
///   and its reply arrives twice, `delay_ms` late (the thread that reads
///   the reply sleeps, as a slow channel would hold it: on every link the
///   caller, which reads its reply inside `send` on the in-caller link and
///   off the socket while it waits on the TCP link), or with its first
///   byte XORed.
///
/// Both directions cross this link's own `send` and `read`, which apply
/// those reply faults before the endpoint sees a reply. With nothing
/// armed every frame and reply passes through unchanged.
pub struct FaultyLink<L> {
    inner: L,
    injector: Arc<FaultInjector>,
    state: Mutex<TapState>,
}

#[derive(Default)]
struct TapState {
    /// The reply fault landed on each delivered request that has one, by
    /// id, with the route it was sent on, until its reply or its route's
    /// failure.
    faults: HashMap<u64, (Route, FaultKind)>,
    /// Ranks whose link was cut.
    dead: HashSet<usize>,
}

impl<L: Link> FaultyLink<L> {
    /// An endpoint over `inner`, every frame of which crosses this
    /// decorator.
    fn endpoint(cfg: EndpointConfig, injector: Arc<FaultInjector>, inner: L) -> Endpoint<Self> {
        let state = Mutex::default();
        Endpoint::with_link(
            cfg,
            FaultyLink {
                inner,
                injector,
                state,
            },
        )
    }

    /// Cuts the link to `rank` for good, as a dead server or a severed
    /// cable would: every later send to it fails at once as a lost
    /// connection, and so does the next read of a route to it, which fails
    /// what was in flight there (idempotent requests fail over); a reply
    /// the rank still sends is never delivered.
    pub fn crash(&self, rank: usize) {
        let mut st = locked(&self.state);
        st.dead.insert(rank);
        st.faults.retain(|_, (route, _)| route.0 != rank);
    }

    fn is_dead(&self, rank: usize) -> bool {
        locked(&self.state).dead.contains(&rank)
    }

    /// Hands `got` the reply to `id` that arrived on `route`, with the
    /// fault its send landed, if any.
    fn deliver(&self, route: Route, id: u64, mut reply: Vec<u8>, got: Got) {
        let fault = {
            let mut st = locked(&self.state);
            if st.dead.contains(&route.0) {
                return; // A cut link delivers nothing.
            }
            st.faults.remove(&id).map(|(_, kind)| kind)
        };
        match fault {
            Some(FaultKind::DuplicateReply) => {
                // The copy must hit the settled slot and be counted as a
                // late completion, never double-settled.
                got(id, reply.clone());
                got(id, reply);
            }
            Some(FaultKind::LateReply { delay_ms }) => {
                std::thread::sleep(Duration::from_millis(delay_ms.into()));
                got(id, reply);
            }
            Some(FaultKind::MalformedReply { mask }) => {
                if let Some(b) = reply.first_mut() {
                    *b ^= mask;
                }
                got(id, reply);
            }
            _ => got(id, reply),
        }
    }

    /// `route` failed: no reply will come for what was in flight on it.
    fn forget(&self, route: Route) {
        locked(&self.state).faults.retain(|_, (r, _)| *r != route);
    }
}

impl FaultyLink<InlineLink> {
    /// [`AsyncEndpoint::new`](crate::transport::AsyncEndpoint::new) with
    /// channel faults from `injector`: one in-caller rank per device, every
    /// frame crossing a `FaultyLink`. Serve [`FaultyNdp::fleet`] ranks to
    /// land device faults too.
    ///
    /// # Panics
    ///
    /// Panics if `devices` is empty.
    pub fn over_inline<D: NdpDevice + Send + 'static>(
        devices: Vec<D>,
        cfg: TransportConfig,
        injector: Arc<FaultInjector>,
    ) -> Endpoint<Self> {
        assert!(!devices.is_empty(), "endpoint needs at least one rank");
        Self::endpoint(cfg, injector, InlineLink::new(devices))
    }
}

impl FaultyLink<TcpLink> {
    /// [`TcpEndpoint::connect`](crate::net::TcpEndpoint::connect) with
    /// channel faults from `injector`: one rank per entry of `cfg.addrs`,
    /// every frame crossing a `FaultyLink`. Host [`FaultyNdp`] ranks behind
    /// the servers to land device faults too.
    ///
    /// # Errors
    ///
    /// As for `connect`: `cfg.addrs` is empty.
    pub fn over_tcp(cfg: NetConfig, injector: Arc<FaultInjector>) -> Result<Endpoint<Self>, Error> {
        require_addrs(&cfg)?;
        let inner = TcpLink::open(&cfg, None);
        Ok(Self::endpoint(cfg, injector, inner))
    }
}

impl<L: Link> Link for FaultyLink<L> {
    const KIND: &'static str = L::KIND;
    const CHURN: Option<(&'static str, &'static str)> = L::CHURN;

    fn ranks(&self) -> usize {
        self.inner.ranks()
    }

    fn route(&self, rank: usize) -> Result<Route, LinkFail> {
        if self.is_dead(rank) {
            return Err(LinkFail::ConnLost);
        }
        self.inner.route(rank)
    }

    fn send(&self, route: Route, id: u64, frame: &[u8], got: Got) -> Result<bool, LinkFail> {
        if self.is_dead(route.0) {
            return Err(LinkFail::ConnLost);
        }
        if let Some(fault) = self.injector.take(FaultClass::Channel) {
            let rank = route.0 as u32;
            let detail = match fault.kind {
                FaultKind::DropReply => {
                    self.injector
                        .journal(&fault, rank, "frame dropped; slot left waiting");
                    return Ok(false);
                }
                FaultKind::RankCrash => {
                    self.injector.journal(&fault, rank, "link to the rank cut");
                    self.crash(route.0);
                    return Err(LinkFail::ConnLost);
                }
                FaultKind::DuplicateReply => "reply completed twice",
                FaultKind::LateReply { .. } => "reply delayed past deadline",
                _ => "reply first byte corrupted",
            };
            self.injector.journal(&fault, rank, detail);
            locked(&self.state).faults.insert(id, (route, fault.kind));
        }
        let sent = self.inner.send(route, id, frame, &mut |id, reply| {
            self.deliver(route, id, reply, got)
        });
        if sent.is_err() {
            // No reply will come for a frame the link refused.
            locked(&self.state).faults.remove(&id);
        }
        sent
    }

    fn read(&self, route: Route, deadline: Instant, got: Got) -> Result<usize, LinkFail> {
        if self.is_dead(route.0) {
            return Err(LinkFail::ConnLost);
        }
        self.inner
            .read(route, deadline, &mut |id, reply| {
                self.deliver(route, id, reply, got)
            })
            .inspect_err(|_| self.forget(route))
    }

    fn down(&self) -> Vec<usize> {
        self.inner.down()
    }
}

/// What a query under test actually produced, as the harness saw it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Outcome {
    /// The query succeeded and matched the plaintext ground truth.
    Correct,
    /// The query succeeded but the value was **wrong** — a silent
    /// corruption unless something else detected it.
    Wrong,
    /// The query failed with a typed error.
    Failed(Error),
}

/// One query's identity and outcome, recorded by the harness.
#[derive(Debug, Clone)]
pub struct QueryRecord {
    /// Harness-assigned operation index (joins the fault journal).
    pub op: u64,
    /// Trace id the query ran under (0 if untraced).
    pub trace: u64,
    /// What the query produced.
    pub outcome: Outcome,
}

/// Per-kind injection tally inside an [`InvariantReport`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct KindTally {
    /// Faults of this kind journaled.
    pub injected: u64,
    /// …that were masked (correct result anyway).
    pub masked: u64,
    /// …that were detected (typed error, audited when integrity-class).
    pub detected: u64,
}

/// The checker's verdict over one run.
#[derive(Debug, Clone)]
pub struct InvariantReport {
    /// Seed of the plan that produced the run.
    pub seed: u64,
    /// Queries examined.
    pub ops: u64,
    /// Faults journaled.
    pub injected: u64,
    /// Faults masked.
    pub masked: u64,
    /// Faults detected.
    pub detected: u64,
    /// Faults (or fault-free queries) that produced a wrong result —
    /// must be **zero**.
    pub silent_corruptions: u64,
    /// Human-readable invariant violations (empty iff [`ok`](Self::ok)).
    pub violations: Vec<String>,
    /// Per-kind breakdown, deterministically ordered by kind name.
    pub by_kind: BTreeMap<&'static str, KindTally>,
}

impl InvariantReport {
    /// Whether the masked-or-detected invariant held.
    pub fn ok(&self) -> bool {
        self.silent_corruptions == 0 && self.violations.is_empty()
    }

    /// Deterministic JSON rendering (no wall-clock fields), suitable for
    /// byte-comparing two runs of the same seed.
    pub fn render_json(&self) -> String {
        let kinds: Vec<String> = self
            .by_kind
            .iter()
            .map(|(k, t)| {
                format!(
                    "\"{k}\":{{\"injected\":{},\"masked\":{},\"detected\":{}}}",
                    t.injected, t.masked, t.detected
                )
            })
            .collect();
        let violations: Vec<String> = self
            .violations
            .iter()
            .map(|v| format!("\"{}\"", secndp_telemetry::json_escape(v)))
            .collect();
        format!(
            "{{\"seed\":{},\"ops\":{},\"injected\":{},\"masked\":{},\
             \"detected\":{},\"silent_corruptions\":{},\"by_kind\":{{{}}},\
             \"violations\":[{}]}}",
            self.seed,
            self.ops,
            self.injected,
            self.masked,
            self.detected,
            self.silent_corruptions,
            kinds.join(","),
            violations.join(","),
        )
    }
}

/// Reconciles the fault journal against query outcomes and the audit log:
/// every journaled fault must be **masked** (its query verified and
/// returned the correct result) or **detected** (its query failed with a
/// typed error — and, when the error is integrity-class, an
/// [`AuditEvent`] exists in the *same trace*; with telemetry compiled out
/// every trace id is 0, so any audit event backs it).
/// Wrong results — with or without a matching fault — are silent
/// corruptions, and every violation message carries the seed for replay.
#[derive(Debug, Clone, Copy)]
pub struct InvariantChecker {
    /// Seed echoed into the report and every violation message.
    pub seed: u64,
}

impl InvariantChecker {
    /// A checker for a run produced from `seed`.
    pub fn new(seed: u64) -> Self {
        Self { seed }
    }

    /// Runs the reconciliation. `faults` is the journal snapshot,
    /// `queries` the harness's outcome records, `audit` the audit-log
    /// snapshot.
    pub fn check(
        &self,
        faults: &[FaultRecord],
        queries: &[QueryRecord],
        audit: &[AuditEvent],
    ) -> InvariantReport {
        let mut report = InvariantReport {
            seed: self.seed,
            ops: queries.len() as u64,
            injected: 0,
            masked: 0,
            detected: 0,
            silent_corruptions: 0,
            violations: Vec::new(),
            by_kind: BTreeMap::new(),
        };
        let by_op: HashMap<u64, &QueryRecord> = queries.iter().map(|q| (q.op, q)).collect();
        let mut faulted_ops: HashMap<u64, usize> = HashMap::new();
        for f in faults {
            *faulted_ops.entry(f.op).or_insert(0) += 1;
            report.injected += 1;
            let tally = report.by_kind.entry(f.kind).or_default();
            tally.injected += 1;
            let Some(q) = by_op.get(&f.op) else {
                report.violations.push(format!(
                    "seed {}: fault {} at op {} has no query record",
                    self.seed, f.kind, f.op
                ));
                continue;
            };
            match &q.outcome {
                Outcome::Correct => {
                    report.masked += 1;
                    tally.masked += 1;
                }
                Outcome::Wrong => {
                    report.silent_corruptions += 1;
                    report.violations.push(format!(
                        "seed {}: SILENT CORRUPTION — fault {} at op {} (rank {}) \
                         returned a wrong result without an error",
                        self.seed, f.kind, f.op, f.rank
                    ));
                }
                Outcome::Failed(e) => {
                    report.detected += 1;
                    tally.detected += 1;
                    let audited = || audit.iter().any(|a| a.trace.0 == q.trace);
                    if e.is_integrity_violation() && !audited() {
                        report.violations.push(format!(
                            "seed {}: fault {} at op {} detected ({e}) but no \
                             audit event in trace {}",
                            self.seed, f.kind, f.op, q.trace
                        ));
                    }
                }
            }
        }
        // Queries that went wrong — or failed — with no fault on record
        // are violations too: the harness only ever issues valid queries,
        // so a clean op must verify and round-trip correctly.
        for q in queries {
            if faulted_ops.contains_key(&q.op) {
                continue;
            }
            match &q.outcome {
                Outcome::Correct => {}
                Outcome::Wrong => {
                    report.silent_corruptions += 1;
                    report.violations.push(format!(
                        "seed {}: SILENT CORRUPTION — op {} returned a wrong result \
                         with no fault injected",
                        self.seed, q.op
                    ));
                }
                Outcome::Failed(e) => {
                    report.violations.push(format!(
                        "seed {}: op {} failed ({e}) with no fault injected",
                        self.seed, q.op
                    ));
                }
            }
        }
        report
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
mod tests {
    use super::*;
    use secndp_telemetry::trace::{SpanId, TraceId};

    fn record(op: u64, kind: &'static str) -> FaultRecord {
        FaultRecord {
            seq: op,
            op,
            rank: 0,
            kind,
            trace: TraceId(op + 100),
            span: SpanId(0),
            detail: "",
        }
    }

    #[test]
    fn splitmix_is_deterministic_and_seed_sensitive() {
        let a: Vec<u64> = {
            let mut r = SplitMix64::new(42);
            (0..8).map(|_| r.next_u64()).collect()
        };
        let b: Vec<u64> = {
            let mut r = SplitMix64::new(42);
            (0..8).map(|_| r.next_u64()).collect()
        };
        let c: Vec<u64> = {
            let mut r = SplitMix64::new(43);
            (0..8).map(|_| r.next_u64()).collect()
        };
        assert_eq!(a, b);
        assert_ne!(a, c);
        let mut r = SplitMix64::new(7);
        for bound in [1u64, 2, 3, 1000] {
            for _ in 0..64 {
                assert!(r.below(bound) < bound);
            }
        }
    }

    #[test]
    fn plan_is_pure_and_rate_bounded() {
        let plan = FaultPlan {
            ranks: 3,
            ..FaultPlan::new(0xFEED)
        };
        let s1 = plan.schedule(5000);
        let s2 = plan.schedule(5000);
        assert_eq!(s1, s2, "same seed must replay the same schedule");
        assert!(!s1.is_empty(), "8 permille over 5000 ops injects something");
        assert!(s1.len() < 200, "8 permille must stay rare");
        for f in &s1 {
            assert!(f.rank < 3);
        }
        // Purity: fault_for is random-access, independent of call order.
        assert_eq!(plan.fault_for(s1[0].op), Some(s1[0]));

        let never = FaultPlan {
            rate_permille: 0,
            ..plan.clone()
        };
        assert!(never.schedule(1000).is_empty());
        let always = FaultPlan {
            rate_permille: 1000,
            ..plan
        };
        assert_eq!(always.schedule(100).len(), 100);
    }

    #[test]
    fn schedule_render_names_every_fault() {
        let plan = FaultPlan {
            rate_permille: 1000,
            ..FaultPlan::new(9)
        };
        let text = plan.render_schedule(50);
        assert!(text.contains("seed=9"));
        assert!(text.lines().count() > 50 / 2);
    }

    #[test]
    fn injector_takes_only_matching_class() {
        let inj = FaultInjector::new();
        let fault = PlannedFault {
            op: 1,
            rank: 0,
            kind: FaultKind::DropReply,
        };
        inj.arm(fault);
        assert_eq!(
            inj.take(FaultClass::Device),
            None,
            "wrong class must not consume"
        );
        assert_eq!(inj.take(FaultClass::Channel), Some(fault));
        assert_eq!(inj.take(FaultClass::Channel), None, "consumed exactly once");
        inj.arm(fault);
        assert_eq!(inj.disarm(), Some(fault));
        assert_eq!(inj.injected(), 0, "journal only counts consumed faults");
    }

    #[test]
    fn faulty_ndp_replays_stale_image_and_flips_bits() {
        let inj = Arc::new(FaultInjector::new());
        let mut dev = FaultyNdp::new(HonestNdp::new(), Arc::clone(&inj), 0);
        let old = secndp_arith::ring::words_to_le_bytes(&[1u32, 2, 3, 4]);
        let new = secndp_arith::ring::words_to_le_bytes(&[9u32, 9, 9, 9]);
        dev.load(0x10, old.clone(), 16, None).unwrap();
        dev.load(0x10, new.clone(), 16, None).unwrap();

        // Unarmed: pure pass-through of the *current* image.
        assert_eq!(dev.read_row(0x10, 0).unwrap(), new);

        inj.arm(PlannedFault {
            op: 7,
            rank: 0,
            kind: FaultKind::ReplayStale,
        });
        assert_eq!(dev.read_row(0x10, 0).unwrap(), old, "stale image served");
        assert_eq!(inj.injected(), 1);

        inj.arm(PlannedFault {
            op: 8,
            rank: 0,
            kind: FaultKind::FlipResponseBit { element: 0, bit: 1 },
        });
        let r = dev.weighted_sum::<u32>(0x10, &[0], &[1], false).unwrap();
        assert_eq!(r.c_res, vec![9 ^ 2, 9, 9, 9]);
        assert_eq!(inj.injected(), 2);

        // A channel-class fault must pass through the device untouched.
        inj.arm(PlannedFault {
            op: 9,
            rank: 0,
            kind: FaultKind::DropReply,
        });
        assert_eq!(dev.read_row(0x10, 0).unwrap(), new);
        assert!(inj.disarm().is_some(), "channel fault left armed");
    }

    /// One implementation of each attack: a `FaultyNdp` armed with a
    /// shared data kind answers exactly as a `TamperingNdp` mounting the
    /// matching `Tamper`, on a weighted sum and on a row read.
    #[test]
    fn faulty_and_tampering_ndp_land_each_data_kind_identically() {
        use crate::device::TamperingNdp;
        const ADDR: u64 = 0x20;
        let bytes = secndp_arith::ring::words_to_le_bytes(&(1..=16).collect::<Vec<u32>>());
        let tags: Vec<Fq> = (0..4).map(|i| Fq::new(100 + i)).collect();
        let (first, offset) = (2usize, 3u32);
        let (indices, weights) = ([first, 0], [3u32, 5]);
        let mut honest = HonestNdp::new();
        honest
            .load(ADDR, bytes.clone(), 16, Some(tags.clone()))
            .unwrap();
        let honest = honest.weighted_sum(ADDR, &indices, &weights, true).unwrap();
        for (kind, tamper) in [
            (
                FaultKind::FlipResponseBit { element: 5, bit: 9 },
                Tamper::FlipResultBit { element: 5, bit: 9 },
            ),
            (
                FaultKind::SwapValue { offset },
                Tamper::SwapFirstRow {
                    with: (first + offset as usize) % 4,
                },
            ),
            (FaultKind::SwapTag, Tamper::ForgeTag),
            (FaultKind::ZeroResult, Tamper::ZeroResult),
        ] {
            let inj = Arc::new(FaultInjector::new());
            let mut faulty = FaultyNdp::new(HonestNdp::new(), Arc::clone(&inj), 0);
            let mut tampering = TamperingNdp::new(tamper);
            faulty
                .load(ADDR, bytes.clone(), 16, Some(tags.clone()))
                .unwrap();
            tampering
                .load(ADDR, bytes.clone(), 16, Some(tags.clone()))
                .unwrap();
            let arm = || {
                inj.arm(PlannedFault {
                    op: 0,
                    rank: 0,
                    kind,
                })
            };

            arm();
            let got = faulty.weighted_sum(ADDR, &indices, &weights, true).unwrap();
            let want = tampering.weighted_sum(ADDR, &indices, &weights, true);
            assert_eq!(got, want.unwrap(), "{kind}: weighted sum");
            assert_ne!(got, honest, "{kind}: the weighted sum was not attacked");
            arm();
            let got = faulty.read_row(ADDR, first).unwrap();
            assert_eq!(
                got,
                tampering.read_row(ADDR, first).unwrap(),
                "{kind}: row read"
            );
            assert_eq!(
                inj.injected(),
                2,
                "{kind}: not journaled once per operation"
            );
        }
    }

    /// A link that takes every frame and answers none: whatever is sent
    /// stays in flight until its route dies, which a read of rank 1 finds.
    struct Silent;

    impl Link for Silent {
        const KIND: &'static str = "silent";

        fn ranks(&self) -> usize {
            2
        }

        fn route(&self, rank: usize) -> Result<Route, LinkFail> {
            Ok((rank, 0))
        }

        fn send(&self, _: Route, _: u64, _: &[u8], _: Got) -> Result<bool, LinkFail> {
            Ok(false)
        }

        fn read(&self, route: Route, _: Instant, _: Got) -> Result<usize, LinkFail> {
            match route.0 {
                1 => Err(LinkFail::ConnLost),
                _ => Ok(0),
            }
        }
    }

    /// Requests a cut link or a dead route failed, and that are never
    /// re-sent — a `Load`, or a read out of retries — leave nothing behind
    /// in the decorator: denial of service must not also grow the trusted
    /// side's heap.
    #[test]
    fn crashed_and_dead_routes_leave_no_tapped_requests_behind() {
        use crate::wire::Request;
        let cfg = EndpointConfig {
            max_retries: 0,
            ..EndpointConfig::default()
        };
        let injector = Arc::new(FaultInjector::new());
        let ep = FaultyLink::endpoint(cfg, Arc::clone(&injector), Silent);
        let tapped = || locked(&ep.link().state).faults.len();
        let read = |row| Request::ReadRow { table_addr: 1, row };
        let load = Request::Load {
            table_addr: 1,
            row_bytes: 4,
            ciphertext: vec![0; 8],
            tags: None,
        };
        // Reads to ranks 0, 1, 0, 1, then a `Load` to rank 0, each with a
        // reply fault landed on its send.
        let ids: Vec<_> = [read(0), read(1), read(2), read(3), load]
            .iter()
            .map(|req| {
                injector.arm(PlannedFault {
                    op: 0,
                    rank: 0,
                    kind: FaultKind::DuplicateReply,
                });
                ep.submit(req).unwrap()
            })
            .collect();
        assert_eq!(tapped(), 5);

        ep.link().crash(0);
        assert_eq!(tapped(), 2, "the cut rank's requests are still tapped");
        for id in ids {
            assert!(matches!(ep.wait(id), Err(Error::ConnectionLost { .. })));
        }
        assert_eq!(tapped(), 0, "failed requests left tapped routes behind");
        assert_eq!(ep.in_flight(), 0);
    }

    #[test]
    fn checker_classifies_masked_detected_and_silent() {
        let faults = vec![
            record(0, "drop_reply"),
            record(1, "flip_response_bit"),
            record(2, "zero_result"),
            record(3, "swap_value"),
        ];
        let queries = vec![
            QueryRecord {
                op: 0,
                trace: 100,
                outcome: Outcome::Correct,
            },
            QueryRecord {
                op: 1,
                trace: 101,
                outcome: Outcome::Failed(Error::VerificationFailed { table_addr: 0x10 }),
            },
            QueryRecord {
                op: 2,
                trace: 102,
                outcome: Outcome::Wrong,
            },
            QueryRecord {
                op: 3,
                trace: 103,
                outcome: Outcome::Failed(Error::DeviceTimeout {
                    deadline_ms: 150,
                    attempts: 4,
                }),
            },
            QueryRecord {
                op: 4,
                trace: 104,
                outcome: Outcome::Correct,
            },
        ];
        let audit = vec![AuditEvent {
            seq: 0,
            trace: TraceId(101),
            span: SpanId(0),
            kind: "verification_failed",
            table_addr: 0x10,
            region: 0,
            version: 0,
            scheme: "single_s",
            detail: "",
        }];
        let checker = InvariantChecker::new(42);
        let report = checker.check(&faults, &queries, &audit);
        assert_eq!(report.injected, 4);
        assert_eq!(report.masked, 1);
        // op 1 (audited integrity error) and op 3 (timeout, no audit
        // required for non-integrity errors) both count as detected.
        assert_eq!(report.detected, 2);
        assert_eq!(report.silent_corruptions, 1);
        assert!(!report.ok());
        assert!(report.violations[0].contains("SILENT CORRUPTION"));
        assert!(report.violations[0].contains("seed 42"));
        assert_eq!(report.by_kind["drop_reply"].masked, 1);
        assert_eq!(report.by_kind["flip_response_bit"].detected, 1);
    }

    #[test]
    fn checker_demands_same_trace_audit_for_integrity_errors() {
        let faults = vec![record(0, "swap_tag")];
        let queries = vec![QueryRecord {
            op: 0,
            trace: 100,
            outcome: Outcome::Failed(Error::VerificationFailed { table_addr: 1 }),
        }];
        // Audit event exists but in a *different* trace: not good enough.
        let audit = vec![AuditEvent {
            seq: 0,
            trace: TraceId(999),
            span: SpanId(0),
            kind: "verification_failed",
            table_addr: 1,
            region: 0,
            version: 0,
            scheme: "single_s",
            detail: "",
        }];
        let report = InvariantChecker::new(7).check(&faults, &queries, &audit);
        assert_eq!(report.detected, 1);
        assert!(!report.ok());
        assert!(report.violations[0].contains("no audit event"));
    }

    #[test]
    fn checker_flags_wrong_and_failed_queries_without_faults() {
        let queries = vec![
            QueryRecord {
                op: 0,
                trace: 1,
                outcome: Outcome::Wrong,
            },
            QueryRecord {
                op: 1,
                trace: 2,
                outcome: Outcome::Failed(Error::TagsUnavailable),
            },
        ];
        let report = InvariantChecker::new(1).check(&[], &queries, &[]);
        assert_eq!(report.silent_corruptions, 1);
        assert_eq!(report.violations.len(), 2);
        assert_eq!(report.injected, 0);
    }

    #[test]
    fn report_json_is_deterministic_and_well_formed() {
        let faults = vec![record(0, "drop_reply"), record(1, "rank_stall")];
        let queries = vec![
            QueryRecord {
                op: 0,
                trace: 100,
                outcome: Outcome::Correct,
            },
            QueryRecord {
                op: 1,
                trace: 101,
                outcome: Outcome::Correct,
            },
        ];
        let checker = InvariantChecker::new(5);
        let a = checker.check(&faults, &queries, &[]).render_json();
        let b = checker.check(&faults, &queries, &[]).render_json();
        assert_eq!(a, b);
        assert!(a.contains("\"seed\":5"));
        assert!(a.contains("\"silent_corruptions\":0"));
        assert!(a.contains("\"drop_reply\""));
        assert_eq!(a.matches('{').count(), a.matches('}').count());
    }
}
