//! Counter-block layout and one-time-pad (OTP) generation.
//!
//! Algorithms 1–3 of the paper derive every pad from
//! `E(K, D ‖ addr ‖ v ‖ 0…)` where `D` is a 2-bit domain tag:
//!
//! | tag | use |
//! |-----|-----|
//! | `00` | data pads (arithmetic encryption, Alg 1) |
//! | `01` | checksum secret `s` (Alg 2) |
//! | `10` | verification-tag pads (Alg 3) |
//!
//! The domain separation guarantees the three randomized systems
//! `E_00`, `E_01`, `E_10` of Definition A.2 never collide on inputs even when
//! addresses and versions coincide.
//!
//! The paper assumes 38-bit physical addresses and `w_v ≤ w_c − 38 − 2`
//! version bits. We generalize to a 62-bit address field and a 64-bit version
//! field, which fills the 128-bit block exactly:
//! `[D:2][addr:62][version:64]` (big-endian). This is a strict superset of
//! the paper's layout and preserves the uniqueness argument.

use crate::aes::{Block, BlockCipher, BLOCK_BYTES};

/// Maximum representable address in a counter block (62 bits).
pub const MAX_ADDR: u64 = (1 << 62) - 1;

/// Counter blocks [`OtpGenerator::stream_pads`] encrypts per cipher call:
/// 1 KiB of pad, eight passes of the AES-NI loop's eight interleaved lanes.
/// Small enough that clearing its stack arrays per call costs little, large
/// enough that the call's own overhead vanishes beside its AES work.
pub const PAD_WINDOW_BLOCKS: usize = 64;

/// Domain tag separating the three pad-generation oracles of Definition A.2.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Domain {
    /// `00` — pads for data elements (Algorithm 1).
    Data,
    /// `01` — the checksum secret `s` (Algorithm 2).
    ChecksumSecret,
    /// `10` — pads for verification tags (Algorithm 3).
    Tag,
}

impl Domain {
    /// The 2-bit encoding placed in the top bits of the counter block.
    #[inline]
    pub fn bits(self) -> u8 {
        match self {
            Domain::Data => 0b00,
            Domain::ChecksumSecret => 0b01,
            Domain::Tag => 0b10,
        }
    }
}

/// The cipher input `[D:2][addr:62][version:64]`, big-endian; `addr` must
/// fit its 62 bits ([`CounterBlock::new`], `validate_pad_range` and
/// `stream_blocks` check).
#[inline]
fn counter_bytes(domain: Domain, addr: u64, version: u64) -> Block {
    let hi = ((domain.bits() as u64) << 62) | addr;
    let mut out = [0u8; BLOCK_BYTES];
    out[..8].copy_from_slice(&hi.to_be_bytes());
    out[8..].copy_from_slice(&version.to_be_bytes());
    out
}

/// The 128-bit block-cipher input `D ‖ addr ‖ v` of Algorithms 1–3.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct CounterBlock {
    domain: Domain,
    addr: u64,
    version: u64,
}

impl CounterBlock {
    /// Builds a counter block for `domain`, byte address `addr` and version
    /// `version`.
    ///
    /// # Panics
    ///
    /// Panics if `addr` exceeds the 62-bit address field ([`MAX_ADDR`]).
    #[inline]
    pub fn new(domain: Domain, addr: u64, version: u64) -> Self {
        assert!(addr <= MAX_ADDR, "address {addr:#x} exceeds 62-bit field");
        Self {
            domain,
            addr,
            version,
        }
    }

    /// Serializes to the 16-byte cipher input `[D:2][addr:62][version:64]`.
    #[inline]
    pub fn to_bytes(self) -> Block {
        counter_bytes(self.domain, self.addr, self.version)
    }

    /// The domain tag.
    pub fn domain(&self) -> Domain {
        self.domain
    }

    /// The byte address field.
    pub fn addr(&self) -> u64 {
        self.addr
    }

    /// The version field.
    pub fn version(&self) -> u64 {
        self.version
    }
}

/// A run of consecutive counter blocks, the unit
/// [`BlockCipher::encrypt_runs_into`] takes: block `j` is the cipher input
/// `D ‖ first + 16·j ‖ v`. A data range is one run of the blocks covering
/// it; a tag pad or a checksum secret is a run of one block.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CounterRun {
    /// `D ‖ first` as the integer the block's first eight bytes encode.
    high: u64,
    version: u64,
    blocks: usize,
}

impl CounterRun {
    /// The run of `blocks` counters from `first` in `domain` under
    /// `version`.
    ///
    /// # Panics
    ///
    /// Panics if a block's address exceeds [`MAX_ADDR`].
    pub fn new(domain: Domain, first: u64, blocks: usize, version: u64) -> Self {
        let last = (blocks.saturating_sub(1) as u64)
            .checked_mul(BLOCK_BYTES as u64)
            .and_then(|span| first.checked_add(span));
        assert!(
            last.is_some_and(|a| a <= MAX_ADDR),
            "counter run from {first:#x} exceeds the 62-bit address field"
        );
        Self::within(domain, first, blocks, version)
    }

    /// [`new`](Self::new) for a run whose last address is known to fit.
    #[inline]
    fn within(domain: Domain, first: u64, blocks: usize, version: u64) -> Self {
        Self {
            high: ((domain.bits() as u64) << 62) | first,
            version,
            blocks,
        }
    }

    /// Counter blocks in the run.
    #[inline]
    pub fn blocks(&self) -> usize {
        self.blocks
    }

    /// The first eight bytes of block `j` as a big-endian integer,
    /// `D ‖ first + 16·j`.
    #[inline]
    pub fn high(&self, j: usize) -> u64 {
        self.high + (j * BLOCK_BYTES) as u64
    }

    /// The version field, the last eight bytes of every block.
    #[inline]
    pub fn version(&self) -> u64 {
        self.version
    }

    /// Block `j` serialized: `[D:2][addr:62][version:64]`, big-endian.
    #[inline]
    pub fn counter(&self, j: usize) -> Block {
        let mut out = [0u8; BLOCK_BYTES];
        out[..8].copy_from_slice(&self.high(j).to_be_bytes());
        out[8..].copy_from_slice(&self.version.to_be_bytes());
        out
    }

    /// The blocks of all `runs`.
    #[inline]
    pub fn total(runs: &[CounterRun]) -> usize {
        runs.iter().map(CounterRun::blocks).sum()
    }

    const EMPTY: Self = Self {
        high: 0,
        version: 0,
        blocks: 0,
    };
}

/// Ranges [`OtpGenerator::stream_pads`] hands the cipher per call at most,
/// beside its [`PAD_WINDOW_BLOCKS`] bound on blocks.
const RUN_WINDOW: usize = 16;

/// Generates one-time pads from a [`BlockCipher`], mirroring the processor's
/// on-chip encryption engine.
///
/// Pads are deterministic functions of `(domain, address, version)`: the
/// processor regenerates them at decryption time instead of fetching its
/// share from memory — this is what makes SecNDP's secret sharing free of
/// extra off-chip traffic.
pub struct OtpGenerator<C> {
    cipher: C,
}

impl<C: BlockCipher> OtpGenerator<C> {
    /// Wraps a keyed block cipher.
    pub fn new(cipher: C) -> Self {
        Self { cipher }
    }

    /// Returns a reference to the underlying cipher.
    pub fn cipher(&self) -> &C {
        &self.cipher
    }

    /// The 16-byte data pad for the cipher-aligned block at byte address
    /// `block_addr` (must be 16-byte aligned), i.e. `e_Addr_i` of Alg 1 line 7.
    ///
    /// # Panics
    ///
    /// Panics if `block_addr` is not 16-byte aligned.
    pub fn data_pad_block(&self, block_addr: u64, version: u64) -> Block {
        assert_eq!(
            block_addr % BLOCK_BYTES as u64,
            0,
            "data pads are generated per 16-byte cipher block"
        );
        self.cipher
            .encrypt_block(&CounterBlock::new(Domain::Data, block_addr, version).to_bytes())
    }

    /// Pad bytes covering the (possibly unaligned) byte range
    /// `[addr, addr + len)`, concatenated in address order.
    ///
    /// This is the concatenation `e` of Alg 1 sliced to the requested window;
    /// it lets callers pad single elements (Alg 4 lines 8–11) or whole rows.
    /// The one-range case of [`stream_pads`](Self::stream_pads); the bytes
    /// are identical to [`data_pad_bytes_scalar`](Self::data_pad_bytes_scalar).
    ///
    /// # Panics
    ///
    /// Panics if `addr + len` overflows `u64` or if any byte of the range
    /// lies beyond [`MAX_ADDR`].
    pub fn data_pad_bytes(&self, addr: u64, len: usize, version: u64) -> Vec<u8> {
        let mut out = Vec::with_capacity(len);
        self.stream_pads(Domain::Data, version, len, [addr], |_, pads| {
            out.extend_from_slice(pads)
        });
        out
    }

    /// The OTP PU's loop (§V-C, Fig 5): regenerates the pads of a run of
    /// equal-length ranges and hands each one to `sink(k, pads)` — `k` its
    /// place in `addrs` — as one contiguous slice, in order, before the
    /// next window of pads is made. Nothing is cached and nothing outlives
    /// the call.
    ///
    /// In [`Domain::Data`] a range is the `len` pad bytes at byte address
    /// `addr`, exactly [`data_pad_bytes`](Self::data_pad_bytes)`(addr, len,
    /// version)`. In the other domains `len` is one block and `addr` names
    /// its counter: the block is `E(K, D ‖ addr ‖ v)`, the tag pad of the
    /// row at `addr` or a table's checksum secret, whose first 127 bits
    /// [`first_127_bits`] takes.
    ///
    /// Each range is one [`CounterRun`]; up to [`PAD_WINDOW_BLOCKS`] blocks
    /// of them go to the cipher in one
    /// [`encrypt_runs_into`](BlockCipher::encrypt_runs_into) call, which
    /// builds the counters itself. A range wider than the window grows the
    /// window to its own size, so no range is ever split. Returns the number
    /// of blocks encrypted.
    ///
    /// # Panics
    ///
    /// Panics if a data range's end overflows `u64` or lies beyond
    /// [`MAX_ADDR`]; in the other domains, if `len` is not [`BLOCK_BYTES`]
    /// or an address exceeds [`MAX_ADDR`].
    pub fn stream_pads(
        &self,
        domain: Domain,
        version: u64,
        len: usize,
        addrs: impl IntoIterator<Item = u64>,
        mut sink: impl FnMut(usize, &[u8]),
    ) -> u64 {
        if domain != Domain::Data {
            assert!(
                len == BLOCK_BYTES,
                "a {domain:?} pad is one {BLOCK_BYTES}-byte block"
            );
            return self.stream_blocks(domain, version, addrs, sink);
        }
        if len == 0 {
            for (k, _) in addrs.into_iter().enumerate() {
                sink(k, &[]);
            }
            return 0;
        }
        // The most blocks a range can touch: it may start at the last byte
        // of its first block.
        let widest = (len + BLOCK_BYTES - 1).div_ceil(BLOCK_BYTES);
        let mut stack_pads = [[0u8; BLOCK_BYTES]; PAD_WINDOW_BLOCKS];
        let mut grown;
        let pads = if widest <= PAD_WINDOW_BLOCKS {
            &mut stack_pads[..]
        } else {
            grown = vec![[0u8; BLOCK_BYTES]; widest];
            &mut grown[..]
        };
        // The ranges waiting for the window's cipher call, and how far
        // each starts into its first block.
        let mut runs = [CounterRun::EMPTY; RUN_WINDOW];
        let mut leads = [0u8; RUN_WINDOW];
        let (mut used, mut waiting, mut seen, mut total) = (0, 0, 0, 0);
        for addr in addrs {
            let first = validate_pad_range(addr, len);
            let lead = (addr - first) as usize;
            let blocks = (lead + len).div_ceil(BLOCK_BYTES);
            if used + blocks > pads.len() || waiting == RUN_WINDOW {
                self.drain(
                    &runs[..waiting],
                    &leads[..waiting],
                    &mut pads[..used],
                    len,
                    seen - waiting,
                    &mut sink,
                );
                total += used as u64;
                (used, waiting) = (0, 0);
            }
            // The range ends at or below `MAX_ADDR` (just checked).
            runs[waiting] = CounterRun::within(domain, first, blocks, version);
            leads[waiting] = lead as u8;
            used += blocks;
            waiting += 1;
            seen += 1;
        }
        self.drain(
            &runs[..waiting],
            &leads[..waiting],
            &mut pads[..used],
            len,
            seen - waiting,
            &mut sink,
        );
        total + used as u64
    }

    /// Encrypts one window's `runs` into `pads` in one cipher call and
    /// hands the `len` pad bytes of each run, from its lead on, to `sink`,
    /// numbered from `first_k`.
    fn drain(
        &self,
        runs: &[CounterRun],
        leads: &[u8],
        pads: &mut [Block],
        len: usize,
        first_k: usize,
        sink: &mut impl FnMut(usize, &[u8]),
    ) {
        self.cipher.encrypt_runs_into(runs, pads);
        let pads = pads.as_flattened();
        let mut at = 0;
        for (j, (run, &lead)) in runs.iter().zip(leads).enumerate() {
            let start = at + lead as usize;
            sink(first_k + j, &pads[start..start + len]);
            at += run.blocks() * BLOCK_BYTES;
        }
    }

    /// [`stream_pads`](Self::stream_pads) in a one-block domain: a range is
    /// its one counter. A window's counters are written out as blocks and
    /// encrypted in one [`encrypt_blocks_into`](BlockCipher::encrypt_blocks_into)
    /// call, which loads them whole: a one-block [`CounterRun`] would cost
    /// the cipher a run's bookkeeping per block.
    fn stream_blocks(
        &self,
        domain: Domain,
        version: u64,
        addrs: impl IntoIterator<Item = u64>,
        mut sink: impl FnMut(usize, &[u8]),
    ) -> u64 {
        let mut counters = [[0u8; BLOCK_BYTES]; RUN_WINDOW];
        let mut pads = [[0u8; BLOCK_BYTES]; RUN_WINDOW];
        let (mut waiting, mut seen) = (0, 0);
        let mut flush = |counters: &[Block], first_k: usize| {
            let pads = &mut pads[..counters.len()];
            self.cipher.encrypt_blocks_into(counters, pads);
            for (j, pad) in pads.iter().enumerate() {
                sink(first_k + j, pad);
            }
        };
        for addr in addrs {
            assert!(addr <= MAX_ADDR, "address {addr:#x} exceeds 62-bit field");
            counters[waiting] = counter_bytes(domain, addr, version);
            waiting += 1;
            seen += 1;
            if waiting == RUN_WINDOW {
                flush(&counters, seen - waiting);
                waiting = 0;
            }
        }
        flush(&counters[..waiting], seen - waiting);
        seen as u64
    }

    /// The scalar (one cipher call per block) reference implementation of
    /// [`data_pad_bytes`](Self::data_pad_bytes) — the seed hot path, kept
    /// for differential tests and benchmarks.
    ///
    /// # Panics
    ///
    /// Same conditions as [`data_pad_bytes`](Self::data_pad_bytes).
    pub fn data_pad_bytes_scalar(&self, addr: u64, len: usize, version: u64) -> Vec<u8> {
        validate_pad_range(addr, len);
        let mut out = Vec::with_capacity(len);
        let mut cur = addr;
        let end = addr + len as u64;
        while cur < end {
            let block_addr = cur - (cur % BLOCK_BYTES as u64);
            let pad = self.data_pad_block(block_addr, version);
            let lo = (cur - block_addr) as usize;
            let hi = usize::min(BLOCK_BYTES, (end - block_addr) as usize);
            out.extend_from_slice(&pad[lo..hi]);
            cur = block_addr + hi as u64;
        }
        out
    }

    /// The checksum secret `s`: the first `w_t = 127` bits of
    /// `E(K, 01 ‖ paddr(P) ‖ v)` (Alg 2 line 4), returned as a raw `u128`
    /// with the top bit cleared.
    pub fn checksum_secret(&self, matrix_addr: u64, version: u64) -> u128 {
        let blk = self.cipher.encrypt_block(
            &CounterBlock::new(Domain::ChecksumSecret, matrix_addr, version).to_bytes(),
        );
        first_127_bits(&blk)
    }

    /// The tag pad `E_T_i`: the first `w_t = 127` bits of
    /// `E(K, 10 ‖ paddr(P_i) ‖ v)` (Alg 3 line 4), as a raw `u128` with the
    /// top bit cleared.
    pub fn tag_pad(&self, row_addr: u64, version: u64) -> u128 {
        let blk = self
            .cipher
            .encrypt_block(&CounterBlock::new(Domain::Tag, row_addr, version).to_bytes());
        first_127_bits(&blk)
    }
}

impl<C: BlockCipher> std::fmt::Debug for OtpGenerator<C> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("OtpGenerator { cipher: <keyed> }")
    }
}

/// The first (most-significant) 127 bits of a one-block pad as a `u128`
/// whose top bit is zero — how Algorithms 2 and 3 take `s` and `E_Tᵢ` from
/// a cipher block.
///
/// # Panics
///
/// Panics if `pad` is not one [`BLOCK_BYTES`]-byte block.
#[inline]
pub fn first_127_bits(pad: &[u8]) -> u128 {
    let block: &Block = pad.try_into().expect("a tag pad or secret is one block");
    u128::from_be_bytes(*block) >> 1
}

/// Validates the byte range `[addr, addr + len)` against the 62-bit counter
/// address field and returns the 16-byte-aligned address of its first
/// covering block.
///
/// # Panics
///
/// Panics if `addr + len` overflows `u64` or the range's last byte exceeds
/// [`MAX_ADDR`]. (Before this check existed, `addr + len` near `u64::MAX`
/// wrapped silently and produced a short or empty pad.)
#[inline]
fn validate_pad_range(addr: u64, len: usize) -> u64 {
    let end = addr
        .checked_add(len as u64)
        .expect("pad range end overflows u64");
    assert!(
        len == 0 || end - 1 <= MAX_ADDR,
        "pad range [{addr:#x}, {end:#x}) exceeds the 62-bit address field"
    );
    addr - addr % BLOCK_BYTES as u64
}

/// A handle to one requested pad range inside a [`PadPlanner`]: where its
/// bytes start in the planner's pad buffer, and how many there are.
#[derive(Debug, Clone, Copy)]
pub struct PadRange {
    /// Byte offset into the pad buffer: the range's first planned block
    /// plus its lead into that block.
    start: usize,
    len: usize,
}

/// Collects a query's counter blocks, encrypts them in one batched pass —
/// through a [`PadCache`](crate::cache::PadCache) when given one — and
/// serves each requested byte range back as a slice of the pad buffer.
///
/// No processor path uses it: queries stream their pads through
/// [`OtpGenerator::stream_pads`]. It stays, with the methods the perf
/// ledger (`benchmark/src`) calls, because the ledger imports it and its
/// files are held byte-identical across perf changes; ROADMAP item 1(c)/(l)
/// moves the ledger off it, and this type goes with that change.
///
/// Usage is two-phase: [`request_bytes`](Self::request_bytes) /
/// [`request_block`](Self::request_block), one [`execute`](Self::execute),
/// then [`pad_slice`](Self::pad_slice). [`reset`](Self::reset) recycles the
/// allocations.
#[derive(Default)]
pub struct PadPlanner {
    /// Serialized counter blocks, in request order.
    counters: Vec<Block>,
    /// `pads[i] = E(K, counters[i])`, filled by [`execute`](Self::execute).
    pads: Vec<Block>,
    /// Scratch of [`execute_cached`](Self::execute_cached): the blocks the
    /// cache missed, their counters gathered for one cipher call, and the
    /// pads that call produced.
    miss: Vec<u32>,
    miss_counters: Vec<Block>,
    miss_pads: Vec<Block>,
    executed: bool,
}

impl PadPlanner {
    /// An empty planner.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of counter blocks planned so far (the number of AES
    /// invocations [`execute`](Self::execute) will spend).
    pub fn planned_blocks(&self) -> usize {
        self.counters.len()
    }

    /// Total block references across all requests. Every reference plans
    /// its own block, so this equals
    /// [`planned_blocks`](Self::planned_blocks).
    pub fn requested_refs(&self) -> usize {
        self.counters.len()
    }

    /// Plans pads for the byte range `[addr, addr + len)` in `domain`.
    ///
    /// # Panics
    ///
    /// Panics if called after [`execute`](Self::execute) (call
    /// [`reset`](Self::reset) first), if `addr + len` overflows, or if the
    /// range exceeds [`MAX_ADDR`].
    pub fn request_bytes(
        &mut self,
        domain: Domain,
        addr: u64,
        len: usize,
        version: u64,
    ) -> PadRange {
        assert!(!self.executed, "planner already executed; reset() first");
        let first_block = validate_pad_range(addr, len);
        let base = self.counters.len() * BLOCK_BYTES;
        if len == 0 {
            return PadRange {
                start: base,
                len: 0,
            };
        }
        let lead = (addr - first_block) as usize;
        let blocks = (lead + len).div_ceil(BLOCK_BYTES) as u64;
        self.counters.extend(
            (0..blocks)
                .map(|k| counter_bytes(domain, first_block + k * BLOCK_BYTES as u64, version)),
        );
        PadRange {
            start: base + lead,
            len,
        }
    }

    /// Plans the single counter block `(domain, addr, version)` — the shape
    /// of tag pads and checksum secrets.
    ///
    /// # Panics
    ///
    /// Panics if called after [`execute`](Self::execute) or if `addr`
    /// exceeds [`MAX_ADDR`].
    pub fn request_block(&mut self, domain: Domain, addr: u64, version: u64) -> PadRange {
        assert!(!self.executed, "planner already executed; reset() first");
        let start = self.counters.len() * BLOCK_BYTES;
        self.counters
            .push(CounterBlock::new(domain, addr, version).to_bytes());
        PadRange {
            start,
            len: BLOCK_BYTES,
        }
    }

    /// Encrypts the planned counter blocks in one batched pass:
    /// [`execute_cached`](Self::execute_cached) with no cache.
    pub fn execute<C: BlockCipher + ?Sized>(&mut self, cipher: &C) {
        self.execute_cached(cipher, None);
    }

    /// Encrypts the planned counter blocks, serving blocks from `cache`
    /// when one is supplied (and enabled): one probe per planned block,
    /// one cipher call for the misses, which are filled back. A plan with
    /// more blocks than the cache holds skips probe and fill and counts its
    /// blocks as misses.
    pub fn execute_cached<C: BlockCipher + ?Sized>(
        &mut self,
        cipher: &C,
        cache: Option<&crate::cache::PadCache>,
    ) {
        self.pads.clear();
        self.pads.resize(self.counters.len(), [0u8; BLOCK_BYTES]);
        let cache = cache.filter(|c| c.is_enabled());
        match cache.filter(|c| self.counters.len() <= c.capacity_blocks()) {
            None => {
                if let Some(cache) = cache {
                    cache.count_misses(self.counters.len() as u64);
                }
                cipher.encrypt_blocks_into(&self.counters, &mut self.pads);
            }
            Some(cache) => {
                self.miss.clear();
                cache.probe_into(&self.counters, &mut self.pads, &mut self.miss);
                if !self.miss.is_empty() {
                    self.miss_counters.clear();
                    self.miss_counters
                        .extend(self.miss.iter().map(|&i| self.counters[i as usize]));
                    self.miss_pads.clear();
                    self.miss_pads
                        .resize(self.miss_counters.len(), [0u8; BLOCK_BYTES]);
                    cipher.encrypt_blocks_into(&self.miss_counters, &mut self.miss_pads);
                    for (&i, pad) in self.miss.iter().zip(&self.miss_pads) {
                        self.pads[i as usize] = *pad;
                    }
                    cache.fill(&self.miss_counters, &self.miss_pads);
                }
            }
        }
        self.executed = true;
    }

    /// The pad bytes of `range`, in address order, borrowed from the pad
    /// buffer — byte-identical to [`OtpGenerator::data_pad_bytes`] over the
    /// same range.
    ///
    /// # Panics
    ///
    /// Panics if [`execute`](Self::execute) has not run.
    pub fn pad_slice(&self, range: &PadRange) -> &[u8] {
        assert!(self.executed, "planner not executed yet");
        &self.pads.as_flattened()[range.start..range.start + range.len]
    }

    /// Clears all planned state so the planner can be reused; outstanding
    /// [`PadRange`]s become invalid, allocations — the cache-miss scratch
    /// included — are kept (asserted by `planner_reset_preserves_capacity`).
    pub fn reset(&mut self) {
        self.counters.clear();
        self.pads.clear();
        self.executed = false;
    }
}

impl std::fmt::Debug for PadPlanner {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PadPlanner")
            .field("planned_blocks", &self.planned_blocks())
            .field("executed", &self.executed)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::aes::Aes128;

    fn gen() -> OtpGenerator<Aes128> {
        OtpGenerator::new(Aes128::new(&[0xA5; 16]))
    }

    #[test]
    fn counter_block_layout_roundtrip() {
        let cb = CounterBlock::new(Domain::Tag, 0x1234_5678, 99);
        let bytes = cb.to_bytes();
        let hi = u64::from_be_bytes(bytes[..8].try_into().unwrap());
        assert_eq!(hi >> 62, 0b10);
        assert_eq!(hi & MAX_ADDR, 0x1234_5678);
        assert_eq!(u64::from_be_bytes(bytes[8..].try_into().unwrap()), 99);
    }

    #[test]
    #[should_panic(expected = "62-bit")]
    fn oversized_address_rejected() {
        CounterBlock::new(Domain::Data, MAX_ADDR + 1, 0);
    }

    #[test]
    fn domains_are_separated() {
        let g = gen();
        let a = g.data_pad_block(0, 1);
        let s = g.checksum_secret(0, 1);
        let t = g.tag_pad(0, 1);
        assert_ne!(first_127_bits(&a), s);
        assert_ne!(s, t);
        assert_ne!(first_127_bits(&a), t);
    }

    #[test]
    fn pads_unique_per_address_and_version() {
        let g = gen();
        assert_ne!(g.data_pad_block(0, 0), g.data_pad_block(16, 0));
        assert_ne!(g.data_pad_block(0, 0), g.data_pad_block(0, 1));
    }

    #[test]
    fn unaligned_pad_slicing_matches_aligned() {
        let g = gen();
        let full: Vec<u8> = [g.data_pad_block(0, 7), g.data_pad_block(16, 7)].concat();
        // Window [5, 27) crosses a block boundary.
        assert_eq!(g.data_pad_bytes(5, 22, 7), &full[5..27]);
        // Aligned full-range request.
        assert_eq!(g.data_pad_bytes(0, 32, 7), full);
        // Empty request.
        assert!(g.data_pad_bytes(12, 0, 7).is_empty());
    }

    #[test]
    fn pad_bytes_deterministic() {
        let g = gen();
        assert_eq!(g.data_pad_bytes(40, 100, 3), g.data_pad_bytes(40, 100, 3));
    }

    #[test]
    fn secret_top_bit_clear() {
        let g = gen();
        for addr in [0u64, 64, 4096] {
            assert_eq!(g.checksum_secret(addr, 5) >> 127, 0);
            assert_eq!(g.tag_pad(addr, 5) >> 127, 0);
        }
    }

    #[test]
    #[should_panic(expected = "16-byte")]
    fn misaligned_block_pad_rejected() {
        gen().data_pad_block(8, 0);
    }

    #[test]
    fn batched_pad_bytes_match_scalar() {
        let g = gen();
        for (addr, len) in [(0u64, 16usize), (5, 22), (3, 1), (16, 0), (4090, 4096)] {
            assert_eq!(
                g.data_pad_bytes(addr, len, 9),
                g.data_pad_bytes_scalar(addr, len, 9),
                "diverged at addr={addr} len={len}"
            );
        }
    }

    #[test]
    fn data_pad_bytes_around_the_window_are_seamless() {
        // Ranges around the window size, aligned and not, and several
        // windows wide: the one range grows the window, and its bytes must
        // equal the block-at-a-time reference byte for byte.
        let g = gen();
        let window = PAD_WINDOW_BLOCKS * BLOCK_BYTES;
        for (addr, len) in [
            (0u64, window),
            (0, window + 1),
            (7, window - 7),
            (7, window),
            (9, 3 * window + 5),
            (16, 2 * window),
            (4090, 1),
        ] {
            assert_eq!(
                g.data_pad_bytes(addr, len, 11),
                g.data_pad_bytes_scalar(addr, len, 11),
                "diverged at addr={addr} len={len}"
            );
        }
    }

    #[test]
    #[should_panic(expected = "overflows u64")]
    fn pad_range_end_overflow_rejected() {
        gen().data_pad_bytes(u64::MAX - 4, 16, 0);
    }

    #[test]
    #[should_panic(expected = "62-bit address field")]
    fn pad_range_beyond_max_addr_rejected() {
        // Doesn't wrap u64, but the last byte exceeds the counter field.
        gen().data_pad_bytes(MAX_ADDR - 3, 16, 0);
    }

    #[test]
    #[should_panic(expected = "62-bit")]
    fn scalar_pad_range_checked_too() {
        gen().data_pad_bytes_scalar(MAX_ADDR, 2, 0);
    }

    #[test]
    fn pad_range_boundary_accepted() {
        // The inclusive last representable byte is fine.
        let g = gen();
        assert_eq!(g.data_pad_bytes(MAX_ADDR, 1, 0).len(), 1);
        assert_eq!(g.data_pad_bytes(MAX_ADDR - 15, 16, 0).len(), 16);
        // Zero-length never touches the address field.
        assert!(g.data_pad_bytes(u64::MAX, 0, 0).is_empty());
    }

    /// A cipher that keeps every [`BlockCipher`] default, so its pad
    /// stream runs the default `encrypt_runs_into` over the wrapped
    /// cipher's blocks.
    struct Defaults<C>(C);

    impl<C: BlockCipher> BlockCipher for Defaults<C> {
        fn encrypt_block(&self, block: &Block) -> Block {
            self.0.encrypt_block(block)
        }
        fn decrypt_block(&self, block: &Block) -> Block {
            self.0.decrypt_block(block)
        }
        fn key_bytes(&self) -> usize {
            self.0.key_bytes()
        }
    }

    /// Every range `g` streams against its own scalar reference: leads
    /// 0–15, lengths inside one block, across block and window edges and
    /// wider than the window, runs that fill windows exactly and ones that
    /// leave a tail, with repeated addresses; then ranges that end exactly
    /// at [`MAX_ADDR`].
    fn check_streamed_ranges<C: BlockCipher>(g: &OtpGenerator<C>, name: &str) {
        let window = PAD_WINDOW_BLOCKS * BLOCK_BYTES;
        for len in [
            1usize,
            3,
            8,
            16,
            22,
            100,
            window - 1,
            window,
            window + 1,
            4800,
        ] {
            for lead in [0u64, 3, 15] {
                // Short ranges share windows; a window-sized one fills its
                // own, so three of them cross every edge there is.
                let counts: &[usize] = if len < 256 {
                    &[1, 7, 64, 65, 200]
                } else {
                    &[1, 3]
                };
                for &count in counts {
                    // Strides that overlap, abut and skip; the last address
                    // repeats the first.
                    let stride = (len as u64 / 2).max(1) + lead;
                    let mut addrs: Vec<u64> = (0..count as u64)
                        .map(|k| 0x2000 + lead + k * stride)
                        .collect();
                    addrs[count - 1] = addrs[0];
                    check_stream(g, &addrs, len, &format!("{name} len {len} lead {lead}"));
                }
            }
        }
        for len in [1usize, 15, 16, 17, 100, window + 3] {
            let end = MAX_ADDR - len as u64 + 1;
            check_stream(g, &[end, end - 1, end], len, &format!("{name} to MAX_ADDR"));
        }
    }

    /// `g.stream_pads` over `addrs` against `data_pad_bytes_scalar`, range
    /// by range and in block count.
    fn check_stream<C: BlockCipher>(g: &OtpGenerator<C>, addrs: &[u64], len: usize, at: &str) {
        let mut seen = 0;
        let blocks = g.stream_pads(Domain::Data, 9, len, addrs.iter().copied(), |k, pads| {
            assert_eq!(k, seen, "ranges arrive in order");
            assert_eq!(
                pads,
                g.data_pad_bytes_scalar(addrs[k], len, 9),
                "{at}, {} ranges, range {k}",
                addrs.len()
            );
            seen += 1;
        });
        assert_eq!(seen, addrs.len(), "{at}");
        let want: usize = addrs
            .iter()
            .map(|&a| (a as usize % BLOCK_BYTES + len).div_ceil(BLOCK_BYTES))
            .sum();
        assert_eq!(blocks, want as u64, "{at}, {} ranges", addrs.len());
    }

    #[test]
    fn streamed_ranges_match_the_scalar_reference() {
        use crate::aes_fast::Aes128Fast;
        check_streamed_ranges(&gen(), "reference");
        let key = [0xA5; 16];
        for (name, cipher) in Aes128Fast::both_paths(&key) {
            check_streamed_ranges(&OtpGenerator::new(cipher), name);
        }
        check_streamed_ranges(
            &OtpGenerator::new(Defaults(Aes128Fast::new(&key))),
            "trait default",
        );
    }

    /// The trait's default `encrypt_runs_into` and `Aes128Fast`'s override
    /// (on both of its paths) encrypt the same runs to the same bytes: runs
    /// of one block and of many, across the default's window edge, in
    /// every domain, up to the last address.
    #[test]
    fn runs_encrypt_alike_by_default_and_by_override() {
        use crate::aes_fast::Aes128Fast;
        let key = [0x5A; 16];
        let reference = Defaults(Aes128::new(&key));
        let mut runs = Vec::new();
        for (k, blocks) in [1usize, 9, 64, 1, 63, 2, 130, 1, 1, 7]
            .into_iter()
            .enumerate()
        {
            let domain = [Domain::Data, Domain::Tag, Domain::ChecksumSecret][k % 3];
            runs.push(CounterRun::new(
                domain,
                0x1003 + 4096 * k as u64,
                blocks,
                k as u64,
            ));
        }
        runs.push(CounterRun::new(Domain::Data, MAX_ADDR - 47, 3, u64::MAX));
        let total = CounterRun::total(&runs);
        let mut want = vec![[0u8; BLOCK_BYTES]; total];
        reference.encrypt_runs_into(&runs, &mut want);
        let scalar: Vec<Block> = runs
            .iter()
            .flat_map(|r| (0..r.blocks()).map(|j| reference.encrypt_block(&r.counter(j))))
            .collect();
        assert_eq!(want, scalar, "the default is the scalar loop");
        for (name, cipher) in Aes128Fast::both_paths(&key) {
            for n in 0..=runs.len() {
                let blocks = CounterRun::total(&runs[..n]);
                let mut got = vec![[0u8; BLOCK_BYTES]; blocks];
                cipher.encrypt_runs_into(&runs[..n], &mut got);
                assert_eq!(got, want[..blocks], "{name}, first {n} runs");
            }
        }
    }

    #[test]
    #[should_panic(expected = "62-bit address field")]
    fn counter_run_past_max_addr_rejected() {
        CounterRun::new(Domain::Data, MAX_ADDR - 31, 3, 0);
    }

    #[test]
    fn empty_ranges_and_runs_encrypt_nothing() {
        let g = gen();
        let mut calls = 0;
        let blocks = g.stream_pads(Domain::Data, 1, 0, [5, u64::MAX, 7], |_, pads| {
            assert!(pads.is_empty());
            calls += 1;
        });
        assert_eq!((blocks, calls), (0, 3));
        let blocks = g.stream_pads(Domain::Tag, 1, BLOCK_BYTES, [], |_, _| unreachable!());
        assert_eq!(blocks, 0);
    }

    #[test]
    fn streamed_tag_pads_and_secrets_match_on_both_cipher_paths() {
        // One-block domains name their counter by `addr` — unaligned row
        // addresses included — through the same detected cipher path as the
        // scalar pads, and both paths agree with the reference cipher.
        use crate::aes_fast::Aes128Fast;
        let key = [0x3D; 16];
        let reference = OtpGenerator::new(Aes128::new(&key));
        let addrs: Vec<u64> = (0..150u64).map(|i| 0x2003 + i * 4096 + 16 * i).collect();
        for (name, cipher) in Aes128Fast::both_paths(&key) {
            let g = OtpGenerator::new(cipher);
            for domain in [Domain::Tag, Domain::ChecksumSecret] {
                let scalar = |a| match domain {
                    Domain::Tag => g.tag_pad(a, 4),
                    _ => g.checksum_secret(a, 4),
                };
                // Runs that end just short of, at and just past each edge
                // of the one-block window, and the whole list.
                for n in [
                    1,
                    RUN_WINDOW - 1,
                    RUN_WINDOW,
                    RUN_WINDOW + 1,
                    2 * RUN_WINDOW + 1,
                    150,
                ] {
                    let addrs = &addrs[..n];
                    let mut seen = 0;
                    let blocks = g.stream_pads(domain, 4, BLOCK_BYTES, addrs.to_vec(), |k, pad| {
                        assert_eq!(k, seen, "{name} {domain:?} in order");
                        assert_eq!(first_127_bits(pad), scalar(addrs[k]), "{name} {domain:?}");
                        seen += 1;
                    });
                    assert_eq!((blocks, seen), (n as u64, n), "{name} {domain:?}");
                }
                let last = [MAX_ADDR, MAX_ADDR - 1];
                g.stream_pads(domain, 4, BLOCK_BYTES, last, |k, pad| {
                    assert_eq!(first_127_bits(pad), scalar(last[k]), "{name} at MAX_ADDR");
                });
            }
            for &a in &addrs {
                assert_eq!(g.tag_pad(a, 4), reference.tag_pad(a, 4), "{name}");
                assert_eq!(
                    g.checksum_secret(a, 4),
                    reference.checksum_secret(a, 4),
                    "{name}"
                );
                let block = a - a % 16;
                assert_eq!(
                    g.data_pad_block(block, 4),
                    reference.data_pad_block(block, 4),
                    "{name}"
                );
            }
        }
    }

    #[test]
    #[should_panic(expected = "one 16-byte block")]
    fn wide_tag_range_rejected() {
        gen().stream_pads(Domain::Tag, 1, 32, [0], |_, _| {});
    }

    #[test]
    #[should_panic(expected = "62-bit")]
    fn streamed_tag_address_checked() {
        gen().stream_pads(Domain::Tag, 1, BLOCK_BYTES, [MAX_ADDR + 1], |_, _| {});
    }

    #[test]
    fn planner_matches_direct_generation() {
        let g = gen();
        let mut p = PadPlanner::new();
        let r1 = p.request_bytes(Domain::Data, 5, 22, 7);
        let r2 = p.request_bytes(Domain::Data, 0, 64, 7);
        let t = p.request_block(Domain::Tag, 48, 7);
        let s = p.request_block(Domain::ChecksumSecret, 0, 7);
        p.execute(g.cipher());
        assert_eq!(p.pad_slice(&r1), g.data_pad_bytes(5, 22, 7));
        assert_eq!(p.pad_slice(&r2), g.data_pad_bytes(0, 64, 7));
        assert_eq!(first_127_bits(p.pad_slice(&t)), g.tag_pad(48, 7));
        assert_eq!(first_127_bits(p.pad_slice(&s)), g.checksum_secret(0, 7));
    }

    #[test]
    fn planner_appends_repeated_tuples() {
        // No dedup: the same tuple requested twice plans its blocks twice,
        // as two ranges with equal bytes.
        let g = gen();
        let mut p = PadPlanner::new();
        let a = p.request_bytes(Domain::Data, 0, 32, 3);
        let b = p.request_bytes(Domain::Data, 0, 32, 3);
        assert_eq!((p.planned_blocks(), p.requested_refs()), (4, 4));
        let t1 = p.request_block(Domain::Tag, 0, 3);
        let t2 = p.request_block(Domain::Tag, 0, 3);
        assert_eq!((p.planned_blocks(), p.requested_refs()), (6, 6));
        p.execute(g.cipher());
        assert_eq!(p.pad_slice(&a), g.data_pad_bytes(0, 32, 3));
        assert_eq!(p.pad_slice(&a), p.pad_slice(&b));
        assert_eq!(first_127_bits(p.pad_slice(&t1)), g.tag_pad(0, 3));
        assert_eq!(p.pad_slice(&t1), p.pad_slice(&t2));
    }

    #[test]
    fn planner_ranges_match_direct_generation_at_every_alignment() {
        // An unaligned lead, a length that is not a multiple of 16, a
        // window inside one block, and an 8-byte element straddling two
        // blocks — interleaved with other domains and versions, so every
        // range's offset into the pad buffer is exercised.
        let g = gen();
        let mut p = PadPlanner::new();
        let shapes = [
            (0u64, 16usize),
            (5, 22),
            (3, 1),
            (0x100c, 8),
            (0x1009, 5 * 8),
            (0x100f, 13 * 4),
            (4090, 4096),
            (MAX_ADDR - 15, 16),
        ];
        let ranges: Vec<_> = shapes
            .iter()
            .enumerate()
            .map(|(k, &(addr, len))| {
                let v = 3 + k as u64 % 2;
                let _ = p.request_block(Domain::Tag, addr, v);
                (v, p.request_bytes(Domain::Data, addr, len, v))
            })
            .collect();
        let blocks: usize = shapes
            .iter()
            .map(|&(addr, len)| 1 + (addr as usize % 16 + len).div_ceil(16))
            .sum();
        assert_eq!((p.planned_blocks(), p.requested_refs()), (blocks, blocks));
        p.execute(g.cipher());
        for (&(addr, len), (v, r)) in shapes.iter().zip(&ranges) {
            assert_eq!(r.len, len);
            assert_eq!(
                p.pad_slice(r),
                g.data_pad_bytes_scalar(addr, len, *v),
                "diverged at addr={addr:#x} len={len}"
            );
        }
    }

    #[test]
    fn planner_reset_reuses_cleanly() {
        let g = gen();
        let mut p = PadPlanner::new();
        let _ = p.request_bytes(Domain::Data, 0, 160, 1);
        p.execute(g.cipher());
        p.reset();
        assert_eq!(p.planned_blocks(), 0);
        let r = p.request_bytes(Domain::Data, 32, 16, 2);
        p.execute(g.cipher());
        assert_eq!(p.pad_slice(&r), g.data_pad_bytes(32, 16, 2));
    }

    #[test]
    fn planner_reset_preserves_capacity() {
        // The reset contract: planned state is dropped, allocations are
        // not — replanning a query of the same shape must not reallocate.
        let g = gen();
        let mut p = PadPlanner::new();
        for q in 0..8u64 {
            let _ = p.request_bytes(Domain::Data, q * 64, 64, 1);
        }
        p.execute(g.cipher());
        let blocks_cap = p.counters.capacity();
        assert!(blocks_cap >= p.planned_blocks());
        for _ in 0..4 {
            p.reset();
            assert_eq!(p.planned_blocks(), 0, "planned state dropped");
            assert_eq!(p.requested_refs(), 0);
            assert_eq!(
                p.counters.capacity(),
                blocks_cap,
                "reset must keep capacity"
            );
            for q in 0..8u64 {
                let _ = p.request_bytes(Domain::Data, q * 64, 64, 2);
            }
            p.execute(g.cipher());
            assert_eq!(
                p.counters.capacity(),
                blocks_cap,
                "steady state reallocated"
            );
        }

        // The same contract through the cache: the miss scratch is the
        // planner's own, so once a PF-80 plan has run all-miss, neither an
        // all-miss nor an all-hit repeat changes any buffer's capacity.
        let cache = crate::cache::PadCache::new(4096);
        let mut p = PadPlanner::new();
        let plan = |p: &mut PadPlanner, first_row: u64, version: u64| {
            p.reset();
            for row in first_row..first_row + 80 {
                let _ = p.request_bytes(Domain::Data, row * 640, 128, version);
                let _ = p.request_block(Domain::Tag, row * 640, version);
            }
            p.execute_cached(g.cipher(), Some(&cache));
        };
        let caps = |p: &PadPlanner| {
            [
                p.counters.capacity(),
                p.pads.capacity(),
                p.miss.capacity(),
                p.miss_counters.capacity(),
                p.miss_pads.capacity(),
            ]
        };
        plan(&mut p, 0, 1); // warm-up: every block misses
        let warmed = caps(&p);
        assert!(p.miss.capacity() >= p.planned_blocks());
        let s0 = cache.stats();
        plan(&mut p, 0, 2); // fresh version: all-miss again
        assert_eq!(caps(&p), warmed, "all-miss repeat reallocated");
        plan(&mut p, 0, 2); // same version: all-hit
        assert_eq!(caps(&p), warmed, "all-hit repeat reallocated");
        let s1 = cache.stats();
        let n = p.planned_blocks() as u64;
        assert_eq!((s1.misses - s0.misses, s1.hits - s0.hits), (n, n));

        // A packet's worth: 256 PF-80 per-query plans through the one
        // planner, hits and misses mixed, grow no buffer after the first.
        for q in 0..256u64 {
            plan(&mut p, q * 37 % 500, 3);
            assert_eq!(caps(&p), warmed, "query {q} of the packet reallocated");
        }
    }

    #[test]
    fn scalar_pads_match_planner_on_both_cipher_paths() {
        // tag_pad / checksum_secret / data_pad_block go through the same
        // detected cipher path as the batched planner, and both paths agree
        // with the reference cipher.
        use crate::aes_fast::Aes128Fast;
        let key = [0x3D; 16];
        let reference = OtpGenerator::new(Aes128::new(&key));
        for (name, cipher) in Aes128Fast::both_paths(&key) {
            let g = OtpGenerator::new(cipher);
            let mut p = PadPlanner::new();
            let probes: Vec<(u64, u64)> = (0..19u64).map(|i| (i * 4096 + 16 * i, i + 1)).collect();
            let ranges: Vec<_> = probes
                .iter()
                .map(|&(addr, v)| {
                    (
                        p.request_block(Domain::Tag, addr, v),
                        p.request_block(Domain::ChecksumSecret, addr, v),
                        p.request_bytes(Domain::Data, addr, BLOCK_BYTES, v),
                    )
                })
                .collect();
            p.execute(g.cipher());
            for (&(addr, v), (t, s, d)) in probes.iter().zip(&ranges) {
                assert_eq!(g.tag_pad(addr, v), first_127_bits(p.pad_slice(t)), "{name}");
                assert_eq!(
                    g.checksum_secret(addr, v),
                    first_127_bits(p.pad_slice(s)),
                    "{name}"
                );
                assert_eq!(g.data_pad_block(addr, v).to_vec(), p.pad_slice(d), "{name}");
                assert_eq!(g.tag_pad(addr, v), reference.tag_pad(addr, v), "{name}");
                assert_eq!(
                    g.checksum_secret(addr, v),
                    reference.checksum_secret(addr, v),
                    "{name}"
                );
                assert_eq!(
                    g.data_pad_block(addr, v),
                    reference.data_pad_block(addr, v),
                    "{name}"
                );
            }
        }
    }

    #[test]
    fn planner_empty_range() {
        let g = gen();
        let mut p = PadPlanner::new();
        let r = p.request_bytes(Domain::Data, 40, 0, 1);
        assert_eq!(r.len, 0);
        p.execute(g.cipher());
        assert!(p.pad_slice(&r).is_empty());
    }

    #[test]
    fn oversized_plan_bypasses_the_cache() {
        // Scan-resistant admission: one block more than the cache holds and
        // the plan neither probes nor fills; exactly the capacity still does.
        use crate::cache::PadCache;
        let g = gen();
        let cache = PadCache::new(256);
        let cap = cache.capacity_blocks();
        let plan = |blocks: usize, version: u64| {
            let mut p = PadPlanner::new();
            let r = p.request_bytes(Domain::Data, 0, blocks * BLOCK_BYTES, version);
            (p, r)
        };

        // A resident hot set the scan must not disturb.
        let (mut hot, _) = plan(8, 1);
        hot.execute_cached(g.cipher(), Some(&cache));
        let resident = cache.len();

        let s0 = cache.stats();
        let (mut big, r) = plan(cap + 1, 2);
        big.execute_cached(g.cipher(), Some(&cache));
        let s1 = cache.stats();
        assert_eq!(
            big.pad_slice(&r),
            g.data_pad_bytes(0, (cap + 1) * BLOCK_BYTES, 2)
        );
        assert_eq!(s1.insertions, s0.insertions, "bypass must not fill");
        assert_eq!(s1.evictions, s0.evictions, "bypass must not evict");
        assert_eq!(s1.hits, s0.hits);
        assert_eq!(
            s1.misses - s0.misses,
            (cap + 1) as u64,
            "bypassed blocks are misses"
        );
        assert_eq!(cache.len(), resident);

        let (mut exact, r) = plan(cap, 3);
        exact.execute_cached(g.cipher(), Some(&cache));
        let s2 = cache.stats();
        assert_eq!(
            exact.pad_slice(&r),
            g.data_pad_bytes(0, cap * BLOCK_BYTES, 3)
        );
        assert_eq!(s2.misses - s1.misses, cap as u64);
        assert_eq!(
            s2.insertions - s1.insertions,
            cap as u64,
            "a full-capacity plan fills"
        );
        // And a repeat of it is served from the cache (all of it but the
        // few lines an unevenly loaded shard had to displace).
        let (mut again, _) = plan(cap, 3);
        again.execute_cached(g.cipher(), Some(&cache));
        assert!(cache.stats().hits - s2.hits > cap as u64 / 2);
    }

    #[test]
    fn execute_cached_matches_uncached() {
        use crate::cache::PadCache;
        let g = gen();
        let cache = PadCache::new(1024);
        let plan = |p: &mut PadPlanner| {
            let a = p.request_bytes(Domain::Data, 5, 100, 7);
            let t = p.request_block(Domain::Tag, 48, 7);
            let s = p.request_block(Domain::ChecksumSecret, 0, 7);
            (a, t, s)
        };
        // Cold cache: all misses.
        let mut p1 = PadPlanner::new();
        let (a1, t1, s1) = plan(&mut p1);
        p1.execute_cached(g.cipher(), Some(&cache));
        // Warm cache: all hits.
        let mut p2 = PadPlanner::new();
        let (a2, t2, s2) = plan(&mut p2);
        p2.execute_cached(g.cipher(), Some(&cache));
        // Uncached reference.
        let mut p3 = PadPlanner::new();
        let (a3, t3, s3) = plan(&mut p3);
        p3.execute(g.cipher());
        for (p, (a, t, s)) in [(&p1, (a1, t1, s1)), (&p2, (a2, t2, s2))] {
            assert_eq!(p.pad_slice(&a), p3.pad_slice(&a3));
            assert_eq!(p.pad_slice(&t), p3.pad_slice(&t3));
            assert_eq!(p.pad_slice(&s), p3.pad_slice(&s3));
        }
        let st = cache.stats();
        assert_eq!(st.misses, p1.planned_blocks() as u64, "cold run all misses");
        assert_eq!(st.hits, p2.planned_blocks() as u64, "warm run all hits");
    }

    #[test]
    fn execute_cached_with_disabled_cache_is_uncached() {
        use crate::cache::PadCache;
        let g = gen();
        let cache = PadCache::new(0);
        let mut p = PadPlanner::new();
        let r = p.request_bytes(Domain::Data, 0, 64, 3);
        p.execute_cached(g.cipher(), Some(&cache));
        assert_eq!(p.pad_slice(&r), g.data_pad_bytes(0, 64, 3));
        let st = cache.stats();
        assert_eq!((st.hits, st.misses), (0, 0), "disabled cache never probed");
        assert!(cache.is_empty());
    }

    #[test]
    #[should_panic(expected = "reset() first")]
    fn planner_request_after_execute_rejected() {
        let mut p = PadPlanner::new();
        p.execute(gen().cipher());
        let _ = p.request_bytes(Domain::Data, 0, 16, 1);
    }

    #[test]
    #[should_panic(expected = "not executed")]
    fn planner_read_before_execute_rejected() {
        let mut p = PadPlanner::new();
        let r = p.request_bytes(Domain::Data, 0, 16, 1);
        p.pad_slice(&r);
    }
}
