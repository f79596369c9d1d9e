//! Cross-query OTP pad cache — a bounded, sharded CLOCK cache over
//! counter blocks.
//!
//! SecNDP's on-chip cost is dominated by regenerating counter-mode pads
//! `E(K, D ‖ addr ‖ v)` for every query (§VI-B, Table II). DLRM embedding
//! traces are Zipfian: the same hot rows are referenced thousands of times
//! per second, and each reference re-encrypts the same counter blocks. The
//! [`PadCache`] memoizes those encryptions *across* queries: the
//! [`PadPlanner`](crate::otp::PadPlanner) remembers nothing, not even
//! within one plan, so this is the only place a pad is reused.
//!
//! # Why caching a one-time pad is safe
//!
//! A pad is a *deterministic* function of the cache key: the full 128-bit
//! counter tuple `(domain ‖ addr ‖ version)`. Counter-mode security
//! requires that a `(addr, version)` pair is never reused for different
//! plaintexts — and the version manager already guarantees every rewrite
//! moves to a fresh version. Therefore a cached entry can only ever be
//! served for the *same* plaintext epoch it was generated for:
//!
//! 1. **Key-miss by construction** — a bumped region's queries carry the
//!    new version, which hashes to a different key; stale entries are
//!    unreachable even if still resident.
//! 2. **Eager invalidation** — the version manager's retire hook calls
//!    [`PadCache::invalidate_version`] the moment a version is retired
//!    (bump or release), evicting every entry of the dead epoch. This is
//!    defense in depth against key-construction bugs of the class fixed by
//!    the high-water-mark regression (release/re-register resuming an old
//!    counter stream).
//!
//! The cache lives inside the trusted processor next to the key; its
//! contents are exactly as secret as the cipher output it memoizes. A
//! *corrupted* entry (software fault, test-injected poison) produces a
//! wrong share, which the checksum verification of Algorithm 5 rejects
//! like any other tampering — see `tests/pad_cache_staleness.rs`.
//!
//! # Shape
//!
//! A cache hit has to be cheaper than the software AES block encryption
//! it replaces — and a hot hit path is memory-bound, not compute-bound —
//! so the layout minimizes cache-line traffic per served block:
//!
//! * **Line-granular entries.** Entries hold a 128-byte *line* of eight
//!   pad blocks (with a presence mask) under one line-aligned counter
//!   key. The planner emits a row's blocks as consecutive counters, so
//!   one hash lookup serves the whole run; the entry's header and pads
//!   are contiguous, costing ~3 cache lines per 8 blocks instead of
//!   2–3 lines per block for a per-block map.
//! * **Sixteen independently locked shards** (selected by line key), each
//!   a hash index over a slab of lines with CLOCK (second-chance)
//!   eviction: a hit sets a referenced flag — no list relinking — and
//!   the eviction hand gives referenced lines one lap of grace.
//! * **Shard-batched probes.** The batch probe/fill entry points group
//!   blocks by shard so each shard's mutex is taken once per planner
//!   execute rather than once per block, and same-line runs reuse the
//!   previous lookup.
//!
//! Capacity is in 16-byte pad blocks, rounded up to whole lines; `0`
//! disables the cache entirely (probes are not even counted). Counters
//! whose address is not 16-byte aligned (impossible through the planner,
//! reachable through the raw [`PadCache::insert`]/[`PadCache::peek`] API)
//! are uncacheable: they would alias a block slot of their line.

use crate::aes::{Block, BLOCK_BYTES};
use crate::otp::CounterBlock;
use std::collections::HashMap;
use std::hash::BuildHasherDefault;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering::Relaxed};
use std::sync::{Mutex, OnceLock};

/// Default cache capacity in pad blocks (512 KiB of pad material — larger
/// than the hot set of a Zipfian embedding trace, small next to the
/// enclave memory the paper's software version manager already assumes).
pub const DEFAULT_PAD_CACHE_BLOCKS: usize = 32_768;

/// Environment variable overriding [`DEFAULT_PAD_CACHE_BLOCKS`] for
/// processors built through the default constructors (`0` disables the
/// cache). Bench binaries expose the same knob as `--pad-cache-blocks`.
pub const PAD_CACHE_BLOCKS_ENV: &str = "SECNDP_PAD_CACHE_BLOCKS";

/// The process-wide default capacity: [`PAD_CACHE_BLOCKS_ENV`] if set and
/// parseable, else [`DEFAULT_PAD_CACHE_BLOCKS`]. Read once — the CI matrix
/// leg uses it to run the whole test suite with the cache disabled.
pub fn default_pad_cache_blocks() -> usize {
    static BLOCKS: OnceLock<usize> = OnceLock::new();
    *BLOCKS.get_or_init(|| {
        std::env::var(PAD_CACHE_BLOCKS_ENV)
            .ok()
            .and_then(|v| v.parse().ok())
            .unwrap_or(DEFAULT_PAD_CACHE_BLOCKS)
    })
}

/// Shard count (power of two; one mutex each).
const SHARDS: usize = 16;

/// Version comparison mask for [`PadCache::invalidate_version`]: the low
/// 56 bits. The top version byte is reserved by the checksum layer for the
/// multi-`s` secret index (`derive_secrets` tweaks `version | k·2⁵⁶`), so
/// invalidating a retired version must also sweep its tweaked aliases.
/// The version manager issues monotonically increasing counters that stay
/// far below 2⁵⁶ for the lifetime of any process.
const VERSION_MASK: u64 = (1 << 56) - 1;

/// Pad blocks per cache line entry (128 bytes of pad material — one DLRM
/// embedding row at the bench's 32 × u32 shape, a CPU cache line pair).
pub const LINE_BLOCKS: usize = 8;

/// Splits a serialized counter key into its line-aligned key and the
/// block index within the line. `None` for addresses that are not
/// 16-byte aligned — those would alias an aligned block's slot, so they
/// are uncacheable (the planner never emits them).
#[inline]
fn split_key(key: u128) -> Option<(u128, usize)> {
    if key & (0xF << 64) != 0 {
        return None;
    }
    Some((key & !(0x7F_u128 << 64), ((key >> 68) as usize) & 0x7))
}

/// Hasher for the shards' line index, keyed by the serialized 128-bit
/// counter block. Counter keys are structured, attacker-independent values
/// (the cache lives inside the trusted processor), so a two-round
/// multiply–rotate mix replaces SipHash: at hundreds of probes per query
/// the default hasher alone costs as much as the AES work a hit saves.
#[derive(Default)]
struct CounterKeyHasher(u64);

impl std::hash::Hasher for CounterKeyHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut buf = [0u8; 8];
            buf[..chunk.len()].copy_from_slice(chunk);
            self.write_u64(u64::from_le_bytes(buf));
        }
    }

    fn write_u64(&mut self, v: u64) {
        self.0 = (self.0.rotate_left(26) ^ v).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    }

    fn write_u128(&mut self, v: u128) {
        // One multiply over both halves, then fold the entropy-rich high
        // bits back down: the table index comes from the LOW bits of the
        // hash, which a bare multiply leaves correlated for block-aligned
        // address strides.
        let x = ((v >> 64) as u64).rotate_left(26) ^ (v as u64);
        let h = x.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        self.0 = h ^ (h >> 32);
    }
}

/// One line entry: eight pad blocks under a line-aligned counter key,
/// `mask` flagging which are present. Header first, so the key compare
/// and the first pads share cache lines.
#[repr(C)]
struct Line {
    key: u128,
    /// Presence bit per block slot.
    mask: u8,
    /// CLOCK second-chance bit: set by hits, cleared (one lap of grace)
    /// by the eviction hand.
    referenced: bool,
    pads: [Block; LINE_BLOCKS],
}

/// One shard: hash index into a slab of [`Line`]s, evicted CLOCK-style.
///
/// A hit only sets the line's `referenced` flag — O(1) with no pointer
/// chasing — and eviction sweeps the `hand` over the slab, giving
/// referenced lines a second chance. That approximates LRU (a recently
/// probed line survives at least one full lap) at a fraction of a linked
/// list's per-hit cost, which matters because the hit path competes with
/// a single software AES block encryption.
///
/// Invariant: `free` holds exactly the unoccupied slots (only
/// [`Self::remove_version`] creates them), so the eviction sweep — which
/// runs only when `free` is empty and the slab is at capacity — never
/// lands on an empty slot.
struct Shard {
    map: HashMap<u128, u32, BuildHasherDefault<CounterKeyHasher>>,
    lines: Vec<Line>,
    free: Vec<u32>,
    hand: u32,
    cap_lines: u32,
    /// Total presence bits across resident lines (`len()` accounting).
    resident_blocks: usize,
}

impl Shard {
    fn new(cap_lines: u32) -> Self {
        Self {
            map: HashMap::default(),
            lines: Vec::new(),
            free: Vec::new(),
            hand: 0,
            cap_lines,
            resident_blocks: 0,
        }
    }

    /// Slot of the line for `line_key`, if resident.
    #[inline]
    fn find(&self, line_key: u128) -> Option<u32> {
        self.map.get(&line_key).copied()
    }

    /// Reads one block out of a resident line, marking the line
    /// referenced on success.
    #[inline]
    fn read(&mut self, slot: u32, sub: usize) -> Option<Block> {
        let line = &mut self.lines[slot as usize];
        if line.mask & (1 << sub) == 0 {
            return None;
        }
        line.referenced = true;
        Some(line.pads[sub])
    }

    fn peek(&self, line_key: u128, sub: usize) -> Option<Block> {
        let line = &self.lines[self.find(line_key)? as usize];
        (line.mask & (1 << sub) != 0).then(|| line.pads[sub])
    }

    /// The slot of the line for `line_key`, creating (and possibly
    /// evicting — returning the number of blocks displaced) if absent.
    fn find_or_create(&mut self, line_key: u128) -> (u32, usize) {
        if let Some(slot) = self.find(line_key) {
            return (slot, 0);
        }
        let (slot, evicted_blocks) = if let Some(i) = self.free.pop() {
            (i, 0)
        } else if self.lines.len() < self.cap_lines as usize {
            self.lines.push(Line {
                key: 0,
                mask: 0,
                referenced: false,
                pads: [[0; BLOCK_BYTES]; LINE_BLOCKS],
            });
            ((self.lines.len() - 1) as u32, 0)
        } else {
            // CLOCK sweep: clear referenced bits until an unreferenced
            // victim turns up (at most one full lap clears every bit, so
            // the second lap must terminate).
            let len = self.lines.len() as u32;
            let mut victim = self.hand % len;
            loop {
                let line = &mut self.lines[victim as usize];
                if !line.referenced {
                    break;
                }
                line.referenced = false;
                victim = (victim + 1) % len;
            }
            self.hand = (victim + 1) % len;
            let line = &self.lines[victim as usize];
            let dropped = line.mask.count_ones() as usize;
            self.map.remove(&line.key);
            self.resident_blocks -= dropped;
            (victim, dropped)
        };
        let line = &mut self.lines[slot as usize];
        line.key = line_key;
        line.mask = 0;
        // Fresh lines start unreferenced: a line earns its second chance
        // by being hit, which keeps one-shot blocks churning among
        // themselves instead of displacing the proven-hot set.
        line.referenced = false;
        self.map.insert(line_key, slot);
        (slot, evicted_blocks)
    }

    /// Stores one block into a line slot, returning whether the presence
    /// bit was newly set (vs. a refresh — which happens when two threads
    /// miss the same block concurrently).
    #[inline]
    fn store(&mut self, slot: u32, sub: usize, pad: Block) -> bool {
        let line = &mut self.lines[slot as usize];
        let fresh = line.mask & (1 << sub) == 0;
        line.mask |= 1 << sub;
        line.pads[sub] = pad;
        self.resident_blocks += fresh as usize;
        fresh
    }

    /// Inserts (or refreshes) one block, returning
    /// `(fresh, evicted_blocks)`.
    fn insert(&mut self, key: u128, pad: Block) -> (bool, usize) {
        if self.cap_lines == 0 {
            return (false, 0);
        }
        let Some((line_key, sub)) = split_key(key) else {
            return (false, 0);
        };
        let (slot, evicted) = self.find_or_create(line_key);
        (self.store(slot, sub, pad), evicted)
    }

    /// Removes every line whose (masked) version field equals `v`,
    /// returning the number of *blocks* dropped.
    fn remove_version(&mut self, v: u64) -> usize {
        let stale: Vec<u128> = self
            .map
            .keys()
            .copied()
            .filter(|&k| (k as u64) & VERSION_MASK == v)
            .collect();
        let mut dropped = 0;
        for key in &stale {
            if let Some(i) = self.map.remove(key) {
                let line = &mut self.lines[i as usize];
                dropped += line.mask.count_ones() as usize;
                line.mask = 0;
                self.free.push(i);
            }
        }
        self.resident_blocks -= dropped;
        dropped
    }

    fn reset(&mut self, cap_lines: u32) {
        self.map.clear();
        self.lines.clear();
        self.free.clear();
        self.hand = 0;
        self.cap_lines = cap_lines;
        self.resident_blocks = 0;
    }
}

/// Running counters of cache behaviour, independent of the telemetry
/// feature (plain relaxed atomics; the concurrency stress suite asserts
/// `hits + misses` equals the number of blocks planners handed to the
/// cache).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PadCacheStats {
    /// Probes answered from the cache.
    pub hits: u64,
    /// Blocks that went to AES: probes that missed, plus the blocks of
    /// plans too large to admit (never probed).
    pub misses: u64,
    /// Entries written (misses filled plus explicit inserts).
    pub insertions: u64,
    /// Entries displaced by capacity pressure.
    pub evictions: u64,
    /// Entries dropped by eager version invalidation.
    pub invalidations: u64,
}

/// A bounded, sharded CLOCK cache from 128-bit counter tuples
/// `(domain ‖ addr ‖ version)` to their 16-byte one-time-pad blocks,
/// shared across query packets. See the module docs for the invalidation
/// safety argument.
pub struct PadCache {
    shards: Box<[Mutex<Shard>]>,
    /// Configured total capacity in blocks; `0` disables the cache.
    total_blocks: AtomicUsize,
    hits: AtomicU64,
    misses: AtomicU64,
    insertions: AtomicU64,
    evictions: AtomicU64,
    invalidations: AtomicU64,
}

/// Per-shard line budget for a requested total block capacity.
fn per_shard_lines(total_blocks: usize) -> u32 {
    if total_blocks == 0 {
        return 0;
    }
    u32::try_from(total_blocks.div_ceil(SHARDS).div_ceil(LINE_BLOCKS)).unwrap_or(u32::MAX)
}

/// The actual block capacity for a requested one: rounded up to whole
/// lines per shard (so a tiny request still caches whole rows).
fn rounded_capacity(total_blocks: usize) -> usize {
    per_shard_lines(total_blocks) as usize * LINE_BLOCKS * SHARDS
}

/// Shard selector: same multiply–fold mix as [`CounterKeyHasher`], but
/// taking *middle* bits so the shard index stays independent of the bits
/// the shard-local hash map indexes with.
fn shard_index(key: u128) -> usize {
    let x = ((key >> 64) as u64).rotate_left(26) ^ (key as u64);
    let h = x.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    ((h ^ (h >> 32)) >> 24) as usize & (SHARDS - 1)
}

fn hits_counter() -> &'static secndp_telemetry::Counter {
    secndp_telemetry::counter!(
        "secndp_pad_cache_hits_total",
        "Pad-cache probes answered without AES work."
    )
}

fn misses_counter() -> &'static secndp_telemetry::Counter {
    secndp_telemetry::counter!(
        "secndp_pad_cache_misses_total",
        "Pad-cache probes that fell through to AES encryption."
    )
}

fn bypassed_counter() -> &'static secndp_telemetry::Counter {
    secndp_telemetry::counter!(
        "secndp_pad_cache_bypassed_total",
        "Blocks of plans larger than the pad cache, encrypted without probe or fill (also counted as misses)."
    )
}

fn evictions_counter() -> &'static secndp_telemetry::Counter {
    secndp_telemetry::counter!(
        "secndp_pad_cache_evictions_total",
        "Pad-cache entries displaced by capacity pressure."
    )
}

fn invalidations_counter() -> &'static secndp_telemetry::Counter {
    secndp_telemetry::counter!(
        "secndp_pad_cache_invalidations_total",
        "Pad-cache entries dropped by eager version invalidation."
    )
}

/// Scores one health window of pad-cache traffic: a collapsing hit rate
/// or eviction thrash silently multiplies AES work, so either surfaces as
/// `Degraded` long before it shows up in latency. `misses` includes
/// `bypassed` — blocks of plans too large to admit, which never probed: a
/// batch workload that bypasses by design is not a collapsed hit rate, so
/// the rate is judged over real probes only.
fn score_window(
    hits: u64,
    misses: u64,
    bypassed: u64,
    evictions: u64,
) -> (secndp_telemetry::health::HealthStatus, String) {
    use secndp_telemetry::health::HealthStatus;
    let refs = hits + misses.saturating_sub(bypassed);
    // Too few probes to judge a rate: idle is healthy.
    if refs < 512 {
        return (HealthStatus::Ok, format!("idle ({refs} probes in window)"));
    }
    let hit_rate = hits as f64 / refs as f64;
    if hit_rate < 0.02 {
        return (
            HealthStatus::Degraded,
            format!(
                "hit rate collapsed to {:.1}% over {refs} probes \
                 (full AES pad regeneration on nearly every access)",
                hit_rate * 100.0
            ),
        );
    }
    if evictions >= refs {
        return (
            HealthStatus::Degraded,
            format!("eviction thrash: {evictions} evictions vs {refs} probes"),
        );
    }
    (
        HealthStatus::Ok,
        format!("hit rate {:.1}% over {refs} probes", hit_rate * 100.0),
    )
}

/// Registers the `"pad-cache"` health component with the process-wide
/// monitor (idempotent; lives for the rest of the process): the windowed
/// hit/miss/bypass/eviction counters through [`score_window`].
fn register_pad_cache_health() {
    static ONCE: std::sync::Once = std::sync::Once::new();
    ONCE.call_once(|| {
        secndp_telemetry::health::monitor()
            .register("pad-cache", |ctx| {
                score_window(
                    ctx.counter_delta("secndp_pad_cache_hits_total"),
                    ctx.counter_delta("secndp_pad_cache_misses_total"),
                    ctx.counter_delta("secndp_pad_cache_bypassed_total"),
                    ctx.counter_delta("secndp_pad_cache_evictions_total"),
                )
            })
            .leak();
    });
}

impl PadCache {
    /// A cache holding at most `blocks` pad blocks, rounded up to whole
    /// [`LINE_BLOCKS`]-block lines per shard (`0` disables it).
    pub fn new(blocks: usize) -> Self {
        if blocks > 0 {
            register_pad_cache_health();
        }
        let cap = per_shard_lines(blocks);
        Self {
            shards: (0..SHARDS).map(|_| Mutex::new(Shard::new(cap))).collect(),
            total_blocks: AtomicUsize::new(rounded_capacity(blocks)),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            insertions: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
            invalidations: AtomicU64::new(0),
        }
    }

    /// A cache with the process default capacity
    /// ([`default_pad_cache_blocks`]).
    pub fn with_default_capacity() -> Self {
        Self::new(default_pad_cache_blocks())
    }

    /// Whether probes will be served (capacity > 0).
    pub fn is_enabled(&self) -> bool {
        self.total_blocks.load(Relaxed) > 0
    }

    /// The capacity in pad blocks (the requested capacity rounded up to
    /// whole lines).
    pub fn capacity_blocks(&self) -> usize {
        self.total_blocks.load(Relaxed)
    }

    /// Reconfigures the capacity (rounded up to whole lines),
    /// **dropping all cached entries** (the stats counters are
    /// preserved). `0` disables the cache.
    pub fn set_capacity_blocks(&self, blocks: usize) {
        let cap = per_shard_lines(blocks);
        for shard in self.shards.iter() {
            shard.lock().unwrap().reset(cap);
        }
        self.total_blocks.store(rounded_capacity(blocks), Relaxed);
    }

    /// Drops every cached entry (capacity and stats unchanged). Called on
    /// key rotation: entries are keyed by counter tuple only, so pads from
    /// the old key must not survive into the new key's epoch.
    pub fn clear(&self) {
        let cap = per_shard_lines(self.total_blocks.load(Relaxed));
        for shard in self.shards.iter() {
            shard.lock().unwrap().reset(cap);
        }
    }

    /// Number of resident pad blocks.
    pub fn len(&self) -> usize {
        self.shards
            .iter()
            .map(|s| s.lock().unwrap().resident_blocks)
            .sum()
    }

    /// Whether the cache holds no entries.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// A consistent-enough snapshot of the running counters.
    pub fn stats(&self) -> PadCacheStats {
        PadCacheStats {
            hits: self.hits.load(Relaxed),
            misses: self.misses.load(Relaxed),
            insertions: self.insertions.load(Relaxed),
            evictions: self.evictions.load(Relaxed),
            invalidations: self.invalidations.load(Relaxed),
        }
    }

    /// Inserts (or overwrites) the pad for `counter`. Public so tests can
    /// pre-warm or deliberately *poison* entries; the protocol layer
    /// treats cache contents as untrusted-against-faults — verification
    /// catches a wrong pad downstream.
    pub fn insert(&self, counter: CounterBlock, pad: Block) {
        if !self.is_enabled() {
            return;
        }
        let key = u128::from_be_bytes(counter.to_bytes());
        let Some((line_key, _)) = split_key(key) else {
            return; // unaligned: uncacheable
        };
        let (fresh, evicted) = self.shards[shard_index(line_key)]
            .lock()
            .unwrap()
            .insert(key, pad);
        self.insertions.fetch_add(fresh as u64, Relaxed);
        if evicted > 0 {
            self.evictions.fetch_add(evicted as u64, Relaxed);
            evictions_counter().add(evicted as u64);
        }
    }

    /// Fault-injection hook: XORs `mask` over every byte of the cached pad
    /// for `counter`, in place. Returns `false` (and corrupts nothing) when
    /// the entry is not cached or the mask is zero.
    ///
    /// This models a bit-flip in the trusted side's own SRAM — outside
    /// SecNDP's adversary (who controls only the untrusted memory) but
    /// inside its *safety* argument: a corrupted pad decrypts to a wrong
    /// share, and the checksum verification of Algorithm 5 must flag the
    /// reconstructed result exactly as it flags device tampering. The chaos
    /// suite injects through here and asserts that detection.
    pub fn corrupt(&self, counter: CounterBlock, mask: u8) -> bool {
        if mask == 0 {
            return false;
        }
        match self.peek(counter) {
            Some(mut pad) => {
                for b in pad.iter_mut() {
                    *b ^= mask;
                }
                self.insert(counter, pad);
                true
            }
            None => false,
        }
    }

    /// Reads the pad for `counter` without touching recency state or the
    /// hit/miss counters (test and introspection hook).
    pub fn peek(&self, counter: CounterBlock) -> Option<Block> {
        let key = u128::from_be_bytes(counter.to_bytes());
        let (line_key, sub) = split_key(key)?;
        self.shards[shard_index(line_key)]
            .lock()
            .unwrap()
            .peek(line_key, sub)
    }

    /// Eagerly drops every entry generated under `version` (compared on
    /// the low 56 bits, so multi-`s` tweaked aliases are swept too).
    /// Called by the version manager's retire hook on bump/release;
    /// returns the number of entries dropped.
    pub fn invalidate_version(&self, version: u64) -> usize {
        let v = version & VERSION_MASK;
        let mut dropped = 0;
        for shard in self.shards.iter() {
            dropped += shard.lock().unwrap().remove_version(v);
        }
        if dropped > 0 {
            self.invalidations.fetch_add(dropped as u64, Relaxed);
            invalidations_counter().add(dropped as u64);
        }
        dropped
    }

    /// Accounts `blocks` blocks an admission rule kept out of the cache —
    /// the planner's (a plan larger than the cache) or the protocol's (a
    /// query of a packet larger than the cache, executed uncached): they
    /// went straight to AES, so they are misses — `hits + misses` stays the
    /// number of blocks generated beside an enabled cache — but not probes,
    /// which the health check discounts through the bypass counter. A
    /// disabled cache counts nothing, here as on every other path.
    pub fn note_bypassed(&self, blocks: usize) {
        if !self.is_enabled() {
            return;
        }
        let n = blocks as u64;
        self.misses.fetch_add(n, Relaxed);
        misses_counter().add(n);
        bypassed_counter().add(n);
    }

    /// Batch probe for the planner: fills `pads[i]` for every cached
    /// `counters[i]` and records the missing indices in `miss` (assumed
    /// empty; emitted grouped by shard, not ascending — the caller
    /// scatters by index, so order is immaterial). Counts one hit or miss
    /// per planned block — a tuple the plan holds twice probes twice.
    /// Blocks are visited shard by shard so each shard's
    /// mutex is taken once per batch instead of once per block, and a run
    /// of same-line blocks (a row's worth of consecutive counters — the
    /// schedule's counting sort is stable, so runs survive the shard
    /// grouping) reuses the previous hash lookup.
    pub(crate) fn probe_into(&self, counters: &[Block], pads: &mut [Block], miss: &mut Vec<u32>) {
        debug_assert_eq!(counters.len(), pads.len());
        let (offsets, order) = shard_schedule(counters);
        for s in 0..SHARDS {
            let group = &order[offsets[s] as usize..offsets[s + 1] as usize];
            if group.is_empty() {
                continue;
            }
            let mut shard = self.shards[s].lock().unwrap();
            let mut run_key = None;
            let mut run_slot = None;
            for &i in group {
                let key = u128::from_be_bytes(counters[i as usize]);
                let Some((line_key, sub)) = split_key(key) else {
                    miss.push(i);
                    continue;
                };
                if run_key != Some(line_key) {
                    run_key = Some(line_key);
                    run_slot = shard.find(line_key);
                }
                match run_slot.and_then(|slot| shard.read(slot, sub)) {
                    Some(pad) => pads[i as usize] = pad,
                    None => miss.push(i),
                }
            }
        }
        let h = (counters.len() - miss.len()) as u64;
        let m = miss.len() as u64;
        self.hits.fetch_add(h, Relaxed);
        self.misses.fetch_add(m, Relaxed);
        hits_counter().add(h);
        misses_counter().add(m);
    }

    /// Batch insert of freshly encrypted miss blocks (shard-grouped and
    /// run-coalesced like [`Self::probe_into`]).
    pub(crate) fn fill(&self, counters: &[Block], pads: &[Block]) {
        debug_assert_eq!(counters.len(), pads.len());
        let (offsets, order) = shard_schedule(counters);
        let mut fresh = 0u64;
        let mut evicted = 0u64;
        for s in 0..SHARDS {
            let group = &order[offsets[s] as usize..offsets[s + 1] as usize];
            if group.is_empty() {
                continue;
            }
            let mut shard = self.shards[s].lock().unwrap();
            if shard.cap_lines == 0 {
                continue;
            }
            let mut run_key = None;
            let mut run_slot = 0u32;
            for &i in group {
                let key = u128::from_be_bytes(counters[i as usize]);
                let Some((line_key, sub)) = split_key(key) else {
                    continue; // unaligned: uncacheable
                };
                if run_key != Some(line_key) {
                    run_key = Some(line_key);
                    let (slot, dropped) = shard.find_or_create(line_key);
                    run_slot = slot;
                    evicted += dropped as u64;
                }
                fresh += shard.store(run_slot, sub, pads[i as usize]) as u64;
            }
        }
        self.insertions.fetch_add(fresh, Relaxed);
        if evicted > 0 {
            self.evictions.fetch_add(evicted, Relaxed);
            evictions_counter().add(evicted);
        }
    }
}

/// Counting sort of block indices by shard (of their *line* key):
/// returns `(offsets, order)` where `order[offsets[s]..offsets[s + 1]]`
/// are the indices of the blocks owned by shard `s`, in input order
/// within each shard. Two small allocations per batch, instead of one
/// mutex round trip per block.
fn shard_schedule(counters: &[Block]) -> ([u32; SHARDS + 1], Vec<u32>) {
    let mut shard_of = vec![0u8; counters.len()];
    let mut offsets = [0u32; SHARDS + 1];
    for (i, c) in counters.iter().enumerate() {
        let key = u128::from_be_bytes(*c);
        let line_key = split_key(key).map_or(key, |(lk, _)| lk);
        let s = shard_index(line_key);
        shard_of[i] = s as u8;
        offsets[s + 1] += 1;
    }
    for s in 0..SHARDS {
        offsets[s + 1] += offsets[s];
    }
    let mut cursor = offsets;
    let mut order = vec![0u32; counters.len()];
    for (i, &s) in shard_of.iter().enumerate() {
        order[cursor[s as usize] as usize] = i as u32;
        cursor[s as usize] += 1;
    }
    (offsets, order)
}

impl std::fmt::Debug for PadCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PadCache")
            .field("capacity_blocks", &self.capacity_blocks())
            .field("len", &self.len())
            .field("stats", &self.stats())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::otp::Domain;

    fn cb(addr: u64, version: u64) -> CounterBlock {
        CounterBlock::new(Domain::Data, addr, version)
    }

    fn pad(b: u8) -> Block {
        [b; BLOCK_BYTES]
    }

    #[test]
    fn insert_peek_round_trip() {
        let c = PadCache::new(64);
        assert!(c.is_enabled());
        assert!(c.peek(cb(0, 1)).is_none());
        c.insert(cb(0, 1), pad(7));
        assert_eq!(c.peek(cb(0, 1)), Some(pad(7)));
        // Distinct version / domain / addr are distinct keys.
        assert!(c.peek(cb(0, 2)).is_none());
        assert!(c.peek(cb(16, 1)).is_none());
        assert!(c.peek(CounterBlock::new(Domain::Tag, 0, 1)).is_none());
    }

    #[test]
    fn corrupt_flips_cached_pad_in_place() {
        let c = PadCache::new(64);
        // Missing entry and zero mask are both no-ops.
        assert!(!c.corrupt(cb(0, 1), 0xA5));
        c.insert(cb(0, 1), pad(0x0F));
        assert!(!c.corrupt(cb(0, 1), 0));
        assert_eq!(c.peek(cb(0, 1)), Some(pad(0x0F)));
        // A real corruption XORs every byte and persists.
        assert!(c.corrupt(cb(0, 1), 0xA5));
        assert_eq!(c.peek(cb(0, 1)), Some(pad(0x0F ^ 0xA5)));
        // Corrupting twice with the same mask restores the pad — the hook
        // is an involution, handy for masked-recovery tests.
        assert!(c.corrupt(cb(0, 1), 0xA5));
        assert_eq!(c.peek(cb(0, 1)), Some(pad(0x0F)));
    }

    /// First `n` line-aligned data counters (stride = one 128-byte line)
    /// whose *line* lands in shard 0 — they contend for the same shard's
    /// line slots.
    fn same_shard_lines(n: usize) -> Vec<CounterBlock> {
        let mut keys = Vec::new();
        let mut addr = 0u64;
        while keys.len() < n {
            let k = cb(addr, 1);
            if shard_index(u128::from_be_bytes(k.to_bytes())) == 0 {
                keys.push(k);
            }
            addr += (LINE_BLOCKS * BLOCK_BYTES) as u64;
        }
        keys
    }

    #[test]
    fn eviction_displaces_unreferenced_entries() {
        // One line per insert with a tiny per-shard capacity: lines that
        // land in the same shard must displace the unreferenced resident.
        let c = PadCache::new(SHARDS); // cap 1 line per shard
        let same_shard = same_shard_lines(2);
        c.insert(same_shard[0], pad(1));
        c.insert(same_shard[1], pad(2)); // evicts [0]'s line
        assert!(c.peek(same_shard[0]).is_none());
        assert_eq!(c.peek(same_shard[1]), Some(pad(2)));
        assert!(c.stats().evictions >= 1);
        // Refreshing an existing key is not an eviction.
        let ev = c.stats().evictions;
        c.insert(same_shard[1], pad(3));
        assert_eq!(c.stats().evictions, ev);
        assert_eq!(c.peek(same_shard[1]), Some(pad(3)));
    }

    #[test]
    fn eviction_respects_recency() {
        let c = PadCache::new(2 * SHARDS * LINE_BLOCKS); // cap 2 lines per shard
        let keys = same_shard_lines(3);
        c.insert(keys[0], pad(1));
        c.insert(keys[1], pad(2));
        // Touch [0] through the probe path so it earns its second chance.
        let counters = [keys[0].to_bytes()];
        let mut out = [[0u8; BLOCK_BYTES]];
        let mut miss = Vec::new();
        c.probe_into(&counters, &mut out, &mut miss);
        assert!(miss.is_empty());
        // Inserting a third line now evicts [1]'s line, not [0]'s.
        c.insert(keys[2], pad(3));
        assert_eq!(c.peek(keys[0]), Some(pad(1)));
        assert!(c.peek(keys[1]).is_none());
    }

    #[test]
    fn line_granularity_and_capacity_rounding() {
        // Blocks of the same 128-byte line share one entry: filling a
        // row's 8 consecutive blocks occupies one line, and a partial
        // line answers only its present sub-blocks.
        let c = PadCache::new(1);
        assert_eq!(c.capacity_blocks(), SHARDS * LINE_BLOCKS); // whole lines
        c.insert(cb(0, 1), pad(1));
        c.insert(cb(16, 1), pad(2));
        assert_eq!(c.len(), 2);
        assert_eq!(c.peek(cb(0, 1)), Some(pad(1)));
        assert_eq!(c.peek(cb(16, 1)), Some(pad(2)));
        assert!(
            c.peek(cb(32, 1)).is_none(),
            "absent sub-block of a resident line"
        );
        // An unaligned address is uncacheable, never aliasing a block.
        c.insert(cb(8, 1), pad(9));
        assert!(c.peek(cb(8, 1)).is_none());
        assert_eq!(c.peek(cb(0, 1)), Some(pad(1)));
    }

    #[test]
    fn invalidate_version_sweeps_only_that_version() {
        let c = PadCache::new(256);
        for a in 0..8u64 {
            c.insert(cb(a * 16, 5), pad(5));
            c.insert(cb(a * 16, 6), pad(6));
        }
        // Multi-s tweaked alias of version 5 (top byte = secret index).
        c.insert(
            CounterBlock::new(Domain::ChecksumSecret, 0, 5 | (3 << 56)),
            pad(55),
        );
        let dropped = c.invalidate_version(5);
        assert_eq!(dropped, 9);
        assert_eq!(c.stats().invalidations, 9);
        for a in 0..8u64 {
            assert!(c.peek(cb(a * 16, 5)).is_none());
            assert_eq!(c.peek(cb(a * 16, 6)), Some(pad(6)));
        }
        // Freed slots are reusable without eviction.
        let ev = c.stats().evictions;
        c.insert(cb(0, 7), pad(7));
        assert_eq!(c.stats().evictions, ev);
    }

    #[test]
    fn disabled_cache_is_inert() {
        let c = PadCache::new(0);
        assert!(!c.is_enabled());
        c.insert(cb(0, 1), pad(1));
        assert!(c.peek(cb(0, 1)).is_none());
        assert_eq!(c.len(), 0);
    }

    #[test]
    fn set_capacity_drops_contents_and_reenables() {
        let c = PadCache::new(64);
        c.insert(cb(0, 1), pad(1));
        c.set_capacity_blocks(0);
        assert!(!c.is_enabled());
        assert!(c.peek(cb(0, 1)).is_none());
        c.set_capacity_blocks(32);
        assert!(c.is_enabled());
        c.insert(cb(0, 1), pad(2));
        assert_eq!(c.peek(cb(0, 1)), Some(pad(2)));
    }

    #[test]
    fn clear_empties_but_keeps_capacity() {
        let c = PadCache::new(1024);
        c.insert(cb(0, 1), pad(1));
        c.clear();
        assert!(c.is_empty());
        assert_eq!(c.capacity_blocks(), 1024);
    }

    #[test]
    fn probe_and_fill_round_trip() {
        let c = PadCache::new(1024);
        let counters: Vec<Block> = (0..10).map(|i| cb(i * 16, 3).to_bytes()).collect();
        let mut pads = vec![[0u8; BLOCK_BYTES]; 10];
        let mut miss = Vec::new();
        c.probe_into(&counters, &mut pads, &mut miss);
        assert_eq!(miss.len(), 10);
        let fresh: Vec<Block> = (0..10).map(|i| pad(i as u8 + 1)).collect();
        c.fill(&counters, &fresh);
        let mut pads2 = vec![[0u8; BLOCK_BYTES]; 10];
        let mut miss2 = Vec::new();
        c.probe_into(&counters, &mut pads2, &mut miss2);
        assert!(miss2.is_empty());
        assert_eq!(pads2, fresh);
        let s = c.stats();
        assert_eq!(s.hits, 10);
        assert_eq!(s.misses, 10);
        assert_eq!(s.hits + s.misses, 20);
    }

    #[test]
    fn health_judges_probes_not_bypassed_blocks() {
        use secndp_telemetry::health::HealthStatus;
        // A batch workload whose every plan bypasses: no probes, idle, ok.
        assert_eq!(score_window(0, 1_000_000, 1_000_000, 0).0, HealthStatus::Ok);
        // The same bypass traffic beside a healthy probed stream.
        assert_eq!(
            score_window(900, 1_000_100, 1_000_000, 0).0,
            HealthStatus::Ok
        );
        // Real probes that all miss are still a collapse...
        assert_eq!(score_window(0, 1_000, 0, 0).0, HealthStatus::Degraded);
        assert_eq!(
            score_window(5, 1_001_000, 1_000_000, 0).0,
            HealthStatus::Degraded
        );
        // ...and churn that outruns the probes is still thrash.
        assert_eq!(score_window(500, 500, 0, 1_000).0, HealthStatus::Degraded);
        assert_eq!(score_window(500, 500, 0, 999).0, HealthStatus::Ok);
    }

    #[test]
    fn default_capacity_is_env_or_constant() {
        // Can't portably set the env var mid-process (OnceLock), but the
        // resolved value must be a valid capacity either way.
        let blocks = default_pad_cache_blocks();
        if std::env::var(PAD_CACHE_BLOCKS_ENV).is_err() {
            assert_eq!(blocks, DEFAULT_PAD_CACHE_BLOCKS);
        }
    }
}

#[cfg(test)]
mod probe_micro {
    use super::*;
    use crate::otp::{CounterBlock, Domain};
    use std::time::Instant;

    /// Manual probe-latency microbench (run with
    /// `cargo test --release -p secndp-cipher probe_micro -- --ignored --nocapture`).
    #[test]
    #[ignore]
    fn probe_latency() {
        let cache = PadCache::new(32768);
        let n = 472usize;
        let mut all: Vec<Block> = Vec::new();
        for b in 0..9154u64 {
            let c = CounterBlock::new(Domain::Data, b * 16, 1);
            cache.insert(c, [b as u8; 16]);
            all.push(c.to_bytes());
        }
        let mut state = 0x5EEDu64;
        let counters: Vec<Block> = (0..n)
            .map(|_| {
                state = state
                    .wrapping_mul(6_364_136_223_846_793_005)
                    .wrapping_add(1_442_695_040_888_963_407);
                let u = ((state >> 11) as f64) / ((1u64 << 53) as f64);
                all[((9154.0 * u.powf(5.0)).floor() as usize).min(9153)]
            })
            .collect();
        let mut pads = vec![[0u8; 16]; n];
        let mut miss = Vec::new();
        for _ in 0..100 {
            miss.clear();
            cache.probe_into(&counters, &mut pads, &mut miss);
        }
        let iters = 20000u32;
        let t = Instant::now();
        for _ in 0..iters {
            miss.clear();
            cache.probe_into(&counters, &mut pads, &mut miss);
        }
        let el = t.elapsed().as_nanos() as f64;
        println!(
            "probe_into: {:.1} ns/block ({n} blocks, {} misses/batch)",
            el / (f64::from(iters) * n as f64),
            miss.len()
        );
        std::hint::black_box(&pads);
    }
}
