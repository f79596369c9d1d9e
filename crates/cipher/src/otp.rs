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

/// Counter blocks [`OtpGenerator::data_pad_into`] encrypts per cipher call:
/// 4 KiB of pad, small enough for the stack and the L1 cache, large enough
/// that the per-call cost vanishes beside the AES work.
const PAD_CHUNK_BLOCKS: usize = 256;

/// Encrypts `blocks` into `out` in one [`BlockCipher::encrypt_blocks_into`]
/// call — the single door every batched pad passes through.
///
/// Mirrors the paper's pipelined pad engine (§VI-B): counter blocks are
/// independent, so the cipher interleaves them. It runs on the caller's
/// thread: at hardware-AES speed a 65 536-block table is ~130 µs of work,
/// less than spawning and joining helpers costs (the name predates that
/// measurement and is kept for callers).
///
/// # Panics
///
/// Panics if `blocks.len() != out.len()`.
pub fn encrypt_blocks_parallel<C: BlockCipher + ?Sized>(
    cipher: &C,
    blocks: &[Block],
    out: &mut [Block],
) {
    assert_eq!(blocks.len(), out.len(), "batch and output length differ");
    cipher.encrypt_blocks_into(blocks, out);
}

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
/// fit its 62 bits ([`CounterBlock::new`] and `validate_pad_range` check).
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
    /// One allocation — the returned buffer — around
    /// [`data_pad_into`](Self::data_pad_into); the bytes are identical to
    /// [`data_pad_bytes_scalar`](Self::data_pad_bytes_scalar).
    ///
    /// # Panics
    ///
    /// Panics if `addr + len` overflows `u64` or if any byte of the range
    /// lies beyond [`MAX_ADDR`].
    pub fn data_pad_bytes(&self, addr: u64, len: usize, version: u64) -> Vec<u8> {
        let mut out = vec![0u8; len];
        self.data_pad_into(addr, version, &mut out);
        out
    }

    /// Fills `out` with the pad bytes of `[addr, addr + out.len())` without
    /// allocating: the covering counter blocks are built and encrypted
    /// 4 KiB at a time in stack buffers, so a caller can walk a whole table
    /// through a small reusable window.
    ///
    /// # Panics
    ///
    /// Same conditions as [`data_pad_bytes`](Self::data_pad_bytes).
    pub fn data_pad_into(&self, addr: u64, version: u64, out: &mut [u8]) {
        let mut block_addr = validate_pad_range(addr, out.len());
        if out.is_empty() {
            return;
        }
        let mut counters = [[0u8; BLOCK_BYTES]; PAD_CHUNK_BLOCKS];
        let mut pads = [[0u8; BLOCK_BYTES]; PAD_CHUNK_BLOCKS];
        // Only the first chunk starts mid-block.
        let mut lead = (addr - block_addr) as usize;
        let mut rest = out;
        while !rest.is_empty() {
            let n = (lead + rest.len())
                .div_ceil(BLOCK_BYTES)
                .min(PAD_CHUNK_BLOCKS);
            for c in &mut counters[..n] {
                *c = CounterBlock::new(Domain::Data, block_addr, version).to_bytes();
                block_addr += BLOCK_BYTES as u64;
            }
            encrypt_blocks_parallel(&self.cipher, &counters[..n], &mut pads[..n]);
            let take = usize::min(n * BLOCK_BYTES - lead, rest.len());
            let (head, tail) = rest.split_at_mut(take);
            head.copy_from_slice(&pads.as_flattened()[lead..lead + take]);
            rest = tail;
            lead = 0;
        }
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

/// Extracts the first (most-significant) 127 bits of a cipher block as a
/// `u128` whose top bit is zero.
fn first_127_bits(block: &Block) -> u128 {
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

impl PadRange {
    /// The requested length in bytes.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the range is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }
}

/// Collects the counter blocks a query needs, encrypts them in one batched
/// [`BlockCipher::encrypt_blocks_into`] pass, and serves each requested
/// byte range back as one contiguous slice of the pad buffer.
///
/// This is the software analogue of the paper's pipelined pad engine
/// (§VI-B, Table II): instead of one scalar AES call per block per row,
/// a query's pad material is generated in one planned sweep.
///
/// The planner only appends: every request adds its own run of counter
/// blocks, so a tuple requested twice is encrypted twice. At hardware-AES
/// speed a block regenerates in under 2 ns; remembering that it was already
/// planned cost ~60 ns per reference for the one reference in seven that
/// repeats in a DLRM packet. Reuse *across* queries is the
/// [`PadCache`](crate::cache::PadCache)'s job.
///
/// Usage is two-phase: [`request_bytes`](Self::request_bytes) /
/// [`request_block`](Self::request_block) during planning, one
/// [`execute`](Self::execute), then [`pad_slice`](Self::pad_slice) /
/// [`pad_first_127_bits`](Self::pad_first_127_bits) to read results.
/// [`reset`](Self::reset) recycles the allocations for the next query.
#[derive(Default)]
pub struct PadPlanner {
    /// Serialized counter blocks, in request order.
    counters: Vec<Block>,
    /// `pads[i] = E(K, counters[i])`, filled by [`execute`](Self::execute).
    pads: Vec<Block>,
    /// Scratch of [`execute_cached`](Self::execute_cached): the blocks the
    /// cache missed, their counters gathered for one cipher call, and the
    /// pads that call produced. Kept across [`reset`](Self::reset) so a
    /// warmed planner executes without allocating.
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

    /// An empty planner with room for `blocks` counter blocks, for callers
    /// that know their request count up front: the buffers are sized once
    /// instead of doubling their way up from empty.
    pub fn with_capacity(blocks: usize) -> Self {
        Self {
            counters: Vec::with_capacity(blocks),
            pads: Vec::with_capacity(blocks),
            ..Self::default()
        }
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
        // The whole run ends at or below `MAX_ADDR` (just validated), so
        // no block needs `CounterBlock::new`'s check of its own.
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
    /// tag pads ([`Domain::Tag`]) and checksum secrets
    /// ([`Domain::ChecksumSecret`]) use, where `addr` is a row or table
    /// address rather than an aligned data offset.
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

    /// Encrypts the planned counter blocks in one batched pass. After this,
    /// ranges can be read; further requests need [`reset`](Self::reset).
    ///
    /// Equivalent to [`execute_cached`](Self::execute_cached) with no
    /// cache: every planned block is encrypted.
    pub fn execute<C: BlockCipher + ?Sized>(&mut self, cipher: &C) {
        self.execute_cached(cipher, None);
    }

    /// Encrypts the planned counter blocks, serving hot blocks from a
    /// cross-query [`PadCache`](crate::cache::PadCache) when one is supplied (and enabled).
    ///
    /// The cache is probed once per planned block; only misses reach the
    /// batched [`encrypt_blocks_parallel`] call, and their freshly
    /// generated pads are inserted back. Output is byte-identical to the
    /// uncached [`execute`](Self::execute) — pads are deterministic in the
    /// counter tuple — which `tests/pad_cache_differential.rs` asserts
    /// across randomized query streams.
    ///
    /// **Admission.** A plan with more blocks than the cache holds cannot
    /// reuse what it fills — CLOCK evicts the head of the plan before its
    /// tail is in — so it is a scan: it skips probe and fill, encrypts
    /// straight into the pad buffer and leaves the resident hot set alone.
    /// Its blocks still count as misses, so `hits + misses` stays the
    /// number of blocks handed to an enabled cache. A plan of exactly the
    /// capacity is admitted.
    pub fn execute_cached<C: BlockCipher + ?Sized>(
        &mut self,
        cipher: &C,
        cache: Option<&crate::cache::PadCache>,
    ) {
        use secndp_telemetry::trace;
        let mut sp = trace::span(trace::names::PAD_GEN).timed(secndp_telemetry::histogram!(
            "secndp_stage_latency_ns",
            &[("stage", trace::names::PAD_GEN)],
            "Per-stage protocol latency in nanoseconds (the Figure 4 arrows)."
        ));
        sp.attr_u64("blocks", self.counters.len() as u64);
        self.pads.clear();
        self.pads.resize(self.counters.len(), [0u8; BLOCK_BYTES]);
        let mut generated = self.counters.len() as u64;
        let cache = cache.filter(|c| c.is_enabled());
        let admitted = cache.filter(|c| self.counters.len() <= c.capacity_blocks());
        match admitted {
            None => {
                if let Some(cache) = cache {
                    cache.note_bypassed(self.counters.len());
                }
                encrypt_blocks_parallel(cipher, &self.counters, &mut self.pads);
            }
            Some(cache) => {
                self.miss.clear();
                {
                    let mut csp = trace::span(trace::names::PAD_CACHE);
                    cache.probe_into(&self.counters, &mut self.pads, &mut self.miss);
                    csp.attr_u64("hits", (self.counters.len() - self.miss.len()) as u64);
                    csp.attr_u64("misses", self.miss.len() as u64);
                }
                generated = self.miss.len() as u64;
                if !self.miss.is_empty() {
                    self.miss_counters.clear();
                    self.miss_counters
                        .extend(self.miss.iter().map(|&i| self.counters[i as usize]));
                    self.miss_pads.clear();
                    self.miss_pads
                        .resize(self.miss_counters.len(), [0u8; BLOCK_BYTES]);
                    encrypt_blocks_parallel(cipher, &self.miss_counters, &mut self.miss_pads);
                    for (&i, pad) in self.miss.iter().zip(&self.miss_pads) {
                        self.pads[i as usize] = *pad;
                    }
                    cache.fill(&self.miss_counters, &self.miss_pads);
                }
            }
        }
        let cached = self.counters.len() as u64 - generated;
        secndp_telemetry::profile::add_aes_blocks(generated, cached);
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

    /// The first 127 bits of a single-block range — the tag-pad /
    /// checksum-secret extraction of Algorithms 2–3.
    ///
    /// # Panics
    ///
    /// Panics if [`execute`](Self::execute) has not run or `range` is not a
    /// full single block.
    pub fn pad_first_127_bits(&self, range: &PadRange) -> u128 {
        assert!(self.executed, "planner not executed yet");
        assert!(
            range.start.is_multiple_of(BLOCK_BYTES) && range.len == BLOCK_BYTES,
            "127-bit extraction requires a full single-block range"
        );
        first_127_bits(&self.pads[range.start / BLOCK_BYTES])
    }

    /// Clears all planned state so the planner can be reused for the next
    /// query.
    ///
    /// # Contract
    ///
    /// - **Outstanding [`PadRange`]s become invalid** and must not be read
    ///   against the reset planner.
    /// - **All allocations are retained**: the counter/pad buffers and the
    ///   cache-miss scratch keep their capacity, so a steady-state query
    ///   loop performs no reallocation once warmed up to its peak query
    ///   shape (asserted by `planner_reset_preserves_capacity`).
    pub fn reset(&mut self) {
        self.counters.clear();
        self.pads.clear();
        self.executed = false;
    }

    /// Capacity (in counter blocks) currently reserved by the planner's
    /// block buffer — survives [`reset`](Self::reset), so a warmed-up
    /// planner replans equally-sized queries allocation-free.
    pub fn reserved_blocks(&self) -> usize {
        self.counters.capacity()
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
        assert_eq!(p.pad_first_127_bits(&t), g.tag_pad(48, 7));
        assert_eq!(p.pad_first_127_bits(&s), g.checksum_secret(0, 7));
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
        assert_eq!(p.pad_first_127_bits(&t1), g.tag_pad(0, 3));
        assert_eq!(p.pad_first_127_bits(&t1), p.pad_first_127_bits(&t2));
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
            assert_eq!(r.len(), len);
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
        let blocks_cap = p.reserved_blocks();
        assert!(blocks_cap >= p.planned_blocks());
        for _ in 0..4 {
            p.reset();
            assert_eq!(p.planned_blocks(), 0, "planned state dropped");
            assert_eq!(p.requested_refs(), 0);
            assert_eq!(p.reserved_blocks(), blocks_cap, "reset must keep capacity");
            for q in 0..8u64 {
                let _ = p.request_bytes(Domain::Data, q * 64, 64, 2);
            }
            p.execute(g.cipher());
            assert_eq!(p.reserved_blocks(), blocks_cap, "steady state reallocated");
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
    fn with_capacity_plans_without_growing() {
        let g = gen();
        let mut p = PadPlanner::with_capacity(80 * 9);
        let blocks_cap = p.reserved_blocks();
        assert!(blocks_cap >= 720);
        for row in 0..80u64 {
            let _ = p.request_bytes(Domain::Data, row * 128, 128, 1);
            let _ = p.request_block(Domain::Tag, row * 128, 1);
        }
        p.execute(g.cipher());
        assert_eq!(p.planned_blocks(), 720);
        assert_eq!(p.reserved_blocks(), blocks_cap);
        assert_eq!(
            p.pads.capacity(),
            blocks_cap,
            "pad buffer sized with the rest"
        );
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
                assert_eq!(g.tag_pad(addr, v), p.pad_first_127_bits(t), "{name}");
                assert_eq!(
                    g.checksum_secret(addr, v),
                    p.pad_first_127_bits(s),
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
    fn data_pad_into_chunks_are_seamless() {
        // Ranges around the 4 KiB chunk size, aligned and not: the chunked
        // fill must equal the block-at-a-time reference byte for byte.
        let g = gen();
        let chunk = PAD_CHUNK_BLOCKS * BLOCK_BYTES;
        for (addr, len) in [
            (0u64, chunk),
            (0, chunk + 1),
            (7, chunk - 7),
            (7, chunk),
            (9, 3 * chunk + 5),
            (16, 2 * chunk),
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
        assert_eq!(p1.pad_slice(&a1), p3.pad_slice(&a3));
        assert_eq!(p2.pad_slice(&a2), p3.pad_slice(&a3));
        assert_eq!(p1.pad_first_127_bits(&t1), p3.pad_first_127_bits(&t3));
        assert_eq!(p2.pad_first_127_bits(&t2), p3.pad_first_127_bits(&t3));
        assert_eq!(p1.pad_first_127_bits(&s1), p3.pad_first_127_bits(&s3));
        assert_eq!(p2.pad_first_127_bits(&s2), p3.pad_first_127_bits(&s3));
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
    fn planner_empty_range() {
        let g = gen();
        let mut p = PadPlanner::new();
        let r = p.request_bytes(Domain::Data, 40, 0, 1);
        assert!(r.is_empty());
        p.execute(g.cipher());
        assert!(p.pad_slice(&r).is_empty());
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
