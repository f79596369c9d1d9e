//! Deterministic fault injection: the chaos harness's ground layer.
//!
//! SecNDP's safety argument (paper §II, Theorems 2/A.4) is conditional:
//! *whatever* the untrusted device does, the trusted side either gets the
//! correct result or a verification failure. The unit adversaries in
//! [`device`](crate::device) each probe one attack; this module turns the
//! argument into a **soak-testable invariant** — schedule a randomized mix
//! of faults against real queries (including under the concurrent
//! [`AsyncEndpoint`](crate::transport::AsyncEndpoint) path) and prove that
//! every injected fault was either
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
//!   harness (which arms) and the injection sites (which consume by
//!   [`FaultClass`] and journal to the telemetry
//!   [fault log](secndp_telemetry::faultlog)).
//! - [`FaultyNdp`] — a device wrapper landing data-class faults inside
//!   the serve path, with stale-image tracking for replay attacks.
//! - [`InvariantChecker`] — reconciles the fault journal against query
//!   outcomes and the audit log into an [`InvariantReport`].
//!
//! Frame-class faults (drops, duplicates, stalls, crashes…) are landed by
//! the transport worker loop itself — see
//! [`AsyncEndpoint::new_with_faults`](crate::transport::AsyncEndpoint::new_with_faults)
//! — so they hit under real submit/poll/wait concurrency.

use crate::device::{HonestNdp, NdpDevice, NdpResponse};
use crate::error::Error;
use secndp_arith::mersenne::Fq;
use secndp_arith::ring::RingWord;
use secndp_telemetry::audit::AuditEvent;
use secndp_telemetry::faultlog::{fault_log, FaultRecord};
use std::collections::{BTreeMap, HashMap};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

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
    /// Device-computation faults, applied by [`FaultyNdp`] inside the
    /// serve path (bit flips, swaps, stale replays…).
    Data,
    /// Transport-frame faults, applied by the endpoint's worker loop
    /// (drops, duplicates, stalls, crashes…).
    Frame,
    /// Trusted-side faults, applied by the harness itself (pad-cache
    /// corruption).
    Host,
}

/// One kind of injectable fault, with its materialized parameters.
///
/// Each variant maps to a concrete adversary from the paper's threat
/// model (or, for [`CorruptPadCache`](Self::CorruptPadCache), a
/// trusted-side SRAM failure the verification scheme happens to cover) —
/// see `DESIGN.md` § Fault injection & chaos for the full mapping.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// Flip one bit of one element of the weighted-sum response (or one
    /// bit of one byte of a row read) — a Trojan corrupting results.
    FlipResponseBit {
        /// Element (or byte) index, reduced mod the response length.
        element: u32,
        /// Bit to flip, reduced mod the element width.
        bit: u32,
    },
    /// Substitute a different row for the first requested index — the
    /// "copy valid ciphertext from another address" attack.
    SwapValue {
        /// Row-index offset added mod the table's row count (≥ 1).
        offset: u32,
    },
    /// Return the correct result with a forged combined tag.
    SwapTag,
    /// Serve the query from the table image *before* the latest load —
    /// a stale-version replay against the OTP versioning scheme.
    ReplayStale,
    /// Return all-zero results (lazy / denial-of-quality device).
    ZeroResult,
    /// Never complete the reply frame — the request must time out.
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
    /// Hold the frame busy for `stall_ms` before serving — long enough to
    /// trip the health monitor's stall detector, short enough to recover.
    RankStall {
        /// Busy-sleep before serving, in milliseconds.
        stall_ms: u32,
    },
    /// The rank's worker exits without replying and never comes back.
    RankCrash,
    /// XOR a mask into a cached OTP pad on the *trusted* side.
    CorruptPadCache {
        /// Nonzero mask XORed into every byte of the cached pad.
        mask: u8,
    },
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
            FaultKind::CorruptPadCache { .. } => "corrupt_pad_cache",
        }
    }

    /// The stack layer this fault is injected at.
    pub fn class(&self) -> FaultClass {
        match self {
            FaultKind::FlipResponseBit { .. }
            | FaultKind::SwapValue { .. }
            | FaultKind::SwapTag
            | FaultKind::ReplayStale
            | FaultKind::ZeroResult => FaultClass::Data,
            FaultKind::DropReply
            | FaultKind::DuplicateReply
            | FaultKind::LateReply { .. }
            | FaultKind::MalformedReply { .. }
            | FaultKind::RankStall { .. }
            | FaultKind::RankCrash => FaultClass::Frame,
            FaultKind::CorruptPadCache { .. } => FaultClass::Host,
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
            FaultKind::CorruptPadCache { mask } => {
                write!(f, "corrupt_pad_cache(mask={mask:#04x})")
            }
            other => f.write_str(other.name()),
        }
    }
}

/// A parameter-free fault selector — the unit of the plan's kind mix and
/// of the `SECNDP_FAULT_KINDS` environment knob.
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
    /// → [`FaultKind::CorruptPadCache`]
    PadCache,
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
        FaultSel::PadCache,
    ];

    /// Parses one `SECNDP_FAULT_KINDS` entry (the snake-case
    /// [`FaultKind::name`] strings).
    pub fn parse(s: &str) -> Option<FaultSel> {
        match s.trim() {
            "flip_response_bit" => Some(FaultSel::Flip),
            "swap_value" => Some(FaultSel::Swap),
            "swap_tag" => Some(FaultSel::SwapTag),
            "replay_stale" => Some(FaultSel::Stale),
            "zero_result" => Some(FaultSel::Zero),
            "drop_reply" => Some(FaultSel::Drop),
            "duplicate_reply" => Some(FaultSel::Duplicate),
            "late_reply" => Some(FaultSel::Late),
            "malformed_reply" => Some(FaultSel::Malformed),
            "rank_stall" => Some(FaultSel::Stall),
            "rank_crash" => Some(FaultSel::Crash),
            "corrupt_pad_cache" => Some(FaultSel::PadCache),
            _ => None,
        }
    }
}

/// One scheduled fault: which op, which rank the plan *suggested*, and the
/// fully materialized kind. The rank is advisory — the consuming site
/// journals the rank the fault actually landed on, since the transport's
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
    /// `delay_ms` for [`FaultKind::LateReply`].
    pub late_ms: u32,
    /// `stall_ms` for [`FaultKind::RankStall`].
    pub stall_ms: u32,
}

impl FaultPlan {
    /// A plan with the full kind mix and the soak defaults: 8 ‰ rate,
    /// late replies past a 150 ms deadline, stalls past a 40 ms grace but
    /// under the deadline.
    pub fn new(seed: u64) -> Self {
        Self {
            seed,
            rate_permille: 8,
            mix: FaultSel::ALL.to_vec(),
            ranks: 1,
            late_ms: 350,
            stall_ms: 60,
        }
    }

    /// Overrides from the environment: `SECNDP_FAULT_SEED`,
    /// `SECNDP_FAULT_RATE` (permille), `SECNDP_FAULT_KINDS`
    /// (comma-separated [`FaultKind::name`]s; unknown names are ignored),
    /// `SECNDP_FAULT_LATE_MS`, `SECNDP_FAULT_STALL_MS`.
    pub fn from_env(seed_default: u64) -> Self {
        fn parse<T: std::str::FromStr>(name: &str, default: T) -> T {
            std::env::var(name)
                .ok()
                .and_then(|v| v.parse().ok())
                .unwrap_or(default)
        }
        let mut plan = Self::new(parse("SECNDP_FAULT_SEED", seed_default));
        plan.rate_permille = parse("SECNDP_FAULT_RATE", plan.rate_permille).min(1000);
        plan.late_ms = parse("SECNDP_FAULT_LATE_MS", plan.late_ms);
        plan.stall_ms = parse("SECNDP_FAULT_STALL_MS", plan.stall_ms);
        if let Ok(kinds) = std::env::var("SECNDP_FAULT_KINDS") {
            let mix: Vec<FaultSel> = kinds.split(',').filter_map(FaultSel::parse).collect();
            if !mix.is_empty() {
                plan.mix = mix;
            }
        }
        plan
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
        let kind = match sel {
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
            FaultSel::Late => FaultKind::LateReply {
                delay_ms: self.late_ms,
            },
            FaultSel::Malformed => FaultKind::MalformedReply {
                mask: 1 << rng.below(8),
            },
            FaultSel::Stall => FaultKind::RankStall {
                stall_ms: self.stall_ms,
            },
            FaultSel::Crash => FaultKind::RankCrash,
            FaultSel::PadCache => FaultKind::CorruptPadCache {
                mask: 1 + rng.below(255) as u8,
            },
        };
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
/// and journals it (exactly once) via [`journal`](Self::journal). Faults
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
        *self.armed.lock().unwrap() = Some(fault);
    }

    /// Removes and returns the armed fault without consuming it as an
    /// injection.
    pub fn disarm(&self) -> Option<PlannedFault> {
        self.armed.lock().unwrap().take()
    }

    /// Consumes the armed fault if its class matches the calling site.
    pub fn take(&self, class: FaultClass) -> Option<PlannedFault> {
        let mut armed = self.armed.lock().unwrap();
        if armed.map(|f| f.kind.class()) == Some(class) {
            armed.take()
        } else {
            None
        }
    }

    /// Journals a consumed fault to the process-wide
    /// [fault log](secndp_telemetry::faultlog::fault_log) with the rank it
    /// actually landed on, and counts it into [`injected`](Self::injected).
    ///
    /// `trace_override` carries the trace id recovered from the request
    /// frame when the site has no ambient span (the transport worker
    /// outside `ndp_serve`).
    pub fn journal(
        &self,
        fault: &PlannedFault,
        actual_rank: u32,
        detail: &'static str,
        trace_override: Option<u64>,
    ) {
        self.injected.fetch_add(1, Ordering::Relaxed);
        fault_log().record(
            fault.op,
            actual_rank,
            fault.kind.name(),
            detail,
            trace_override,
        );
    }

    /// Faults journaled through this injector so far.
    pub fn injected(&self) -> u64 {
        self.injected.load(Ordering::Relaxed)
    }
}

/// A retained copy of one loaded table, for stale-replay faults.
#[derive(Debug, Clone)]
struct TableImage {
    data: Vec<u8>,
    row_bytes: usize,
    tags: Option<Vec<Fq>>,
}

impl TableImage {
    fn rows(&self) -> usize {
        self.data.len().checked_div(self.row_bytes).unwrap_or(0)
    }

    /// A throwaway honest device serving exactly this image.
    fn as_device(&self, table_addr: u64) -> Result<HonestNdp, Error> {
        let mut d = HonestNdp::new();
        d.load(
            table_addr,
            self.data.clone(),
            self.row_bytes,
            self.tags.clone(),
        )?;
        Ok(d)
    }
}

/// A device wrapper that lands **data-class** faults inside the serve
/// path: bit flips, value/tag swaps, zeroed results, and stale-version
/// replays (it retains the previous image of every reloaded table).
///
/// Wrap one per rank around the real device and hand the fleet to
/// [`AsyncEndpoint::new_with_faults`](crate::transport::AsyncEndpoint::new_with_faults)
/// so faults land under real concurrency; the shared [`FaultInjector`]
/// decides which op is hit. With nothing armed the wrapper is a pure
/// pass-through.
#[derive(Debug)]
pub struct FaultyNdp<D> {
    inner: D,
    injector: Arc<FaultInjector>,
    rank: u32,
    current: Mutex<HashMap<u64, TableImage>>,
    stale: Mutex<HashMap<u64, TableImage>>,
}

impl<D: NdpDevice> FaultyNdp<D> {
    /// Wraps `inner` as rank `rank`, consuming faults from `injector`.
    pub fn new(inner: D, injector: Arc<FaultInjector>, rank: u32) -> Self {
        Self {
            inner,
            injector,
            rank,
            current: Mutex::new(HashMap::new()),
            stale: Mutex::new(HashMap::new()),
        }
    }

    /// The rank this wrapper journals injections under.
    pub fn rank(&self) -> u32 {
        self.rank
    }

    /// The shared injector.
    pub fn injector(&self) -> &Arc<FaultInjector> {
        &self.injector
    }

    fn journal(&self, fault: &PlannedFault, detail: &'static str) {
        self.injector.journal(fault, self.rank, detail, None);
    }

    /// Rows of the currently loaded image at `table_addr`, if tracked.
    fn current_rows(&self, table_addr: u64) -> Option<usize> {
        self.current
            .lock()
            .unwrap()
            .get(&table_addr)
            .map(|img| img.rows())
    }
}

impl<D: NdpDevice + Clone> FaultyNdp<D> {
    /// A fleet of `ranks` wrappers around clones of `device`, all
    /// consuming from one shared injector — the input to
    /// [`AsyncEndpoint::new_with_faults`](crate::transport::AsyncEndpoint::new_with_faults).
    pub fn fleet(device: D, ranks: usize, injector: Arc<FaultInjector>) -> Vec<Self> {
        (0..ranks.max(1))
            .map(|rank| Self::new(device.clone(), Arc::clone(&injector), rank as u32))
            .collect()
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
        let image = TableImage {
            data: ciphertext.clone(),
            row_bytes,
            tags: tags.clone(),
        };
        self.inner.load(table_addr, ciphertext, row_bytes, tags)?;
        // Only successful loads rotate the image history: the previous
        // image becomes the stale-replay source.
        let mut current = self.current.lock().unwrap();
        if let Some(prev) = current.insert(table_addr, image) {
            self.stale.lock().unwrap().insert(table_addr, prev);
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
        let Some(fault) = self.injector.take(FaultClass::Data) else {
            return self
                .inner
                .weighted_sum(table_addr, indices, weights, with_tag);
        };
        match fault.kind {
            FaultKind::FlipResponseBit { element, bit } => {
                self.journal(&fault, "");
                let mut r = self
                    .inner
                    .weighted_sum(table_addr, indices, weights, with_tag)?;
                let slot = element as usize % r.c_res.len().max(1);
                if let Some(x) = r.c_res.get_mut(slot) {
                    *x = W::from_u64(x.as_u64() ^ (1u64 << (bit % W::BITS)));
                }
                Ok(r)
            }
            FaultKind::SwapValue { offset } => {
                let rows = self.current_rows(table_addr).unwrap_or(0);
                if rows < 2 || indices.is_empty() {
                    self.journal(&fault, "untracked or trivial table; passthrough");
                    return self
                        .inner
                        .weighted_sum(table_addr, indices, weights, with_tag);
                }
                self.journal(&fault, "");
                let mut idx = indices.to_vec();
                // Combine the swapped row's tag too: the checksum still
                // catches it because tag pads bind to row addresses.
                idx[0] = (idx[0] + offset as usize) % rows;
                self.inner.weighted_sum(table_addr, &idx, weights, with_tag)
            }
            FaultKind::SwapTag => {
                let mut r = self
                    .inner
                    .weighted_sum(table_addr, indices, weights, with_tag)?;
                match r.c_t_res.as_mut() {
                    Some(t) => {
                        self.journal(&fault, "");
                        *t += Fq::new(0xD15E_A5ED_u128);
                    }
                    None => self.journal(&fault, "untagged response; passthrough"),
                }
                Ok(r)
            }
            FaultKind::ReplayStale => {
                let stale = self.stale.lock().unwrap().get(&table_addr).cloned();
                match stale {
                    Some(img) => {
                        self.journal(&fault, "");
                        img.as_device(table_addr)?
                            .weighted_sum(table_addr, indices, weights, with_tag)
                    }
                    None => {
                        self.journal(&fault, "no stale image; served fresh");
                        self.inner
                            .weighted_sum(table_addr, indices, weights, with_tag)
                    }
                }
            }
            FaultKind::ZeroResult => {
                self.journal(&fault, "");
                let mut r = self
                    .inner
                    .weighted_sum(table_addr, indices, weights, with_tag)?;
                r.c_res.iter_mut().for_each(|x| *x = W::ZERO);
                Ok(r)
            }
            // Frame/Host kinds are filtered out by `take`'s class match.
            _ => unreachable!("non-data fault taken by FaultyNdp"),
        }
    }

    fn read_row(&self, table_addr: u64, row: usize) -> Result<Vec<u8>, Error> {
        let Some(fault) = self.injector.take(FaultClass::Data) else {
            return self.inner.read_row(table_addr, row);
        };
        match fault.kind {
            FaultKind::FlipResponseBit { element, bit } => {
                self.journal(&fault, "");
                let mut bytes = self.inner.read_row(table_addr, row)?;
                if !bytes.is_empty() {
                    let i = element as usize % bytes.len();
                    bytes[i] ^= 1 << (bit % 8);
                }
                Ok(bytes)
            }
            FaultKind::SwapValue { offset } => {
                let rows = self.current_rows(table_addr).unwrap_or(0);
                if rows < 2 {
                    self.journal(&fault, "untracked or trivial table; passthrough");
                    return self.inner.read_row(table_addr, row);
                }
                self.journal(&fault, "");
                self.inner
                    .read_row(table_addr, (row + offset as usize) % rows)
            }
            FaultKind::SwapTag => {
                // A raw row read carries no tag to forge.
                self.journal(&fault, "row read carries no tag; passthrough");
                self.inner.read_row(table_addr, row)
            }
            FaultKind::ReplayStale => {
                let stale = self.stale.lock().unwrap().get(&table_addr).cloned();
                match stale {
                    Some(img) => {
                        self.journal(&fault, "");
                        img.as_device(table_addr)?.read_row(table_addr, row)
                    }
                    None => {
                        self.journal(&fault, "no stale image; served fresh");
                        self.inner.read_row(table_addr, row)
                    }
                }
            }
            FaultKind::ZeroResult => {
                self.journal(&fault, "");
                let bytes = self.inner.read_row(table_addr, row)?;
                Ok(vec![0u8; bytes.len()])
            }
            _ => unreachable!("non-data fault taken by FaultyNdp"),
        }
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
            .map(|v| format!("\"{}\"", json_escape(v)))
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

/// Minimal JSON string escaping for violation messages.
fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// Reconciles the fault journal against query outcomes and the audit log:
/// every journaled fault must be **masked** (its query verified and
/// returned the correct result) or **detected** (its query failed with a
/// typed error — and, when the error is integrity-class and
/// `require_audit` is set, an [`AuditEvent`] exists in the *same trace*).
/// Wrong results — with or without a matching fault — are silent
/// corruptions, and every violation message carries the seed for replay.
#[derive(Debug, Clone, Copy)]
pub struct InvariantChecker {
    /// Seed echoed into the report and every violation message.
    pub seed: u64,
    /// Whether detections must be backed by a same-trace audit event
    /// (true only when telemetry is compiled in *and* traces are on —
    /// with the feature off, trace ids are all zero and audit is empty).
    pub require_audit: bool,
}

impl InvariantChecker {
    /// A checker for a run produced from `seed`, demanding audit-event
    /// backing exactly when the `telemetry` feature is compiled in.
    pub fn new(seed: u64) -> Self {
        Self {
            seed,
            require_audit: cfg!(feature = "telemetry"),
        }
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
                    if self.require_audit && e.is_integrity_violation() {
                        let audited = audit.iter().any(|a| a.trace.0 == q.trace);
                        if !audited {
                            report.violations.push(format!(
                                "seed {}: fault {} at op {} detected ({e}) but no \
                                 audit event in trace {}",
                                self.seed, f.kind, f.op, q.trace
                            ));
                        }
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
    fn sel_parse_round_trips_every_kind_name() {
        let plan = FaultPlan {
            rate_permille: 1000,
            ..FaultPlan::new(3)
        };
        for f in plan.schedule(200) {
            let sel = FaultSel::parse(f.kind.name());
            assert!(sel.is_some(), "unparseable kind name {}", f.kind.name());
        }
        assert_eq!(FaultSel::parse("nonsense"), None);
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
            inj.take(FaultClass::Data),
            None,
            "wrong class must not consume"
        );
        assert_eq!(inj.take(FaultClass::Frame), Some(fault));
        assert_eq!(inj.take(FaultClass::Frame), None, "consumed exactly once");
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

        // A frame-class fault must pass through the device untouched.
        inj.arm(PlannedFault {
            op: 9,
            rank: 0,
            kind: FaultKind::DropReply,
        });
        assert_eq!(dev.read_row(0x10, 0).unwrap(), new);
        assert!(inj.disarm().is_some(), "frame fault left armed");
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
        let checker = InvariantChecker {
            seed: 42,
            require_audit: true,
        };
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
        let strict = InvariantChecker {
            seed: 7,
            require_audit: true,
        };
        let report = strict.check(&faults, &queries, &audit);
        assert_eq!(report.detected, 1);
        assert!(!report.ok());
        assert!(report.violations[0].contains("no audit event"));
        // Without the audit requirement the same run is clean.
        let lax = InvariantChecker {
            seed: 7,
            require_audit: false,
        };
        assert!(lax.check(&faults, &queries, &audit).ok());
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
        let report = InvariantChecker {
            seed: 1,
            require_audit: false,
        }
        .check(&[], &queries, &[]);
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
        let checker = InvariantChecker {
            seed: 5,
            require_audit: false,
        };
        let a = checker.check(&faults, &queries, &[]).render_json();
        let b = checker.check(&faults, &queries, &[]).render_json();
        assert_eq!(a, b);
        assert!(a.contains("\"seed\":5"));
        assert!(a.contains("\"silent_corruptions\":0"));
        assert!(a.contains("\"drop_reply\""));
        assert_eq!(a.matches('{').count(), a.matches('}').count());
    }
}
