//! Fast AES-128: hardware AES-NI where the CPU has it, T-tables elsewhere.
//!
//! The byte-oriented cipher in [`crate::aes`] is the readable reference.
//! [`Aes128Fast`] produces the same bytes two other ways and picks one,
//! once, when it is keyed:
//!
//! * **AES-NI** (x86-64 with `aes` + `sse2`, detected at run time): one
//!   `aesenc` per round, eight independent blocks interleaved so the
//!   pipelined unit stays full. Block encryption touches no table and
//!   branches on no data, so this path is constant-time. The call across
//!   the `#[target_feature]` boundary, made after detection, is the one
//!   place the workspace steps outside safe Rust.
//! * **T-tables** (every other host, and the only path that runs there):
//!   the classical 32-bit formulation (Daemen & Rijmen), which fuses
//!   SubBytes, ShiftRows and MixColumns into four table lookups and three
//!   XORs per column per round. Like all table-based AES its lookups are
//!   *not* constant-time with respect to data-dependent cache behaviour;
//!   SecNDP's threat model keeps the cipher inside the trusted processor
//!   where that channel is out of scope (paper §II).
//!
//! Key expansion is shared and runs once per key; it indexes the S-box by
//! key bytes on both paths.
//!
//! Equivalence of both paths with the reference implementation is enforced
//! by differential tests over random keys and every batch remainder, and
//! the FIPS-197 vectors are checked independently on each.

use crate::aes::{Block, BlockCipher, BLOCK_BYTES};

/// The forward S-box, duplicated here to build the T-tables at first use.
#[rustfmt::skip]
const SBOX: [u8; 256] = [
    0x63, 0x7c, 0x77, 0x7b, 0xf2, 0x6b, 0x6f, 0xc5, 0x30, 0x01, 0x67, 0x2b, 0xfe, 0xd7, 0xab, 0x76,
    0xca, 0x82, 0xc9, 0x7d, 0xfa, 0x59, 0x47, 0xf0, 0xad, 0xd4, 0xa2, 0xaf, 0x9c, 0xa4, 0x72, 0xc0,
    0xb7, 0xfd, 0x93, 0x26, 0x36, 0x3f, 0xf7, 0xcc, 0x34, 0xa5, 0xe5, 0xf1, 0x71, 0xd8, 0x31, 0x15,
    0x04, 0xc7, 0x23, 0xc3, 0x18, 0x96, 0x05, 0x9a, 0x07, 0x12, 0x80, 0xe2, 0xeb, 0x27, 0xb2, 0x75,
    0x09, 0x83, 0x2c, 0x1a, 0x1b, 0x6e, 0x5a, 0xa0, 0x52, 0x3b, 0xd6, 0xb3, 0x29, 0xe3, 0x2f, 0x84,
    0x53, 0xd1, 0x00, 0xed, 0x20, 0xfc, 0xb1, 0x5b, 0x6a, 0xcb, 0xbe, 0x39, 0x4a, 0x4c, 0x58, 0xcf,
    0xd0, 0xef, 0xaa, 0xfb, 0x43, 0x4d, 0x33, 0x85, 0x45, 0xf9, 0x02, 0x7f, 0x50, 0x3c, 0x9f, 0xa8,
    0x51, 0xa3, 0x40, 0x8f, 0x92, 0x9d, 0x38, 0xf5, 0xbc, 0xb6, 0xda, 0x21, 0x10, 0xff, 0xf3, 0xd2,
    0xcd, 0x0c, 0x13, 0xec, 0x5f, 0x97, 0x44, 0x17, 0xc4, 0xa7, 0x7e, 0x3d, 0x64, 0x5d, 0x19, 0x73,
    0x60, 0x81, 0x4f, 0xdc, 0x22, 0x2a, 0x90, 0x88, 0x46, 0xee, 0xb8, 0x14, 0xde, 0x5e, 0x0b, 0xdb,
    0xe0, 0x32, 0x3a, 0x0a, 0x49, 0x06, 0x24, 0x5c, 0xc2, 0xd3, 0xac, 0x62, 0x91, 0x95, 0xe4, 0x79,
    0xe7, 0xc8, 0x37, 0x6d, 0x8d, 0xd5, 0x4e, 0xa9, 0x6c, 0x56, 0xf4, 0xea, 0x65, 0x7a, 0xae, 0x08,
    0xba, 0x78, 0x25, 0x2e, 0x1c, 0xa6, 0xb4, 0xc6, 0xe8, 0xdd, 0x74, 0x1f, 0x4b, 0xbd, 0x8b, 0x8a,
    0x70, 0x3e, 0xb5, 0x66, 0x48, 0x03, 0xf6, 0x0e, 0x61, 0x35, 0x57, 0xb9, 0x86, 0xc1, 0x1d, 0x9e,
    0xe1, 0xf8, 0x98, 0x11, 0x69, 0xd9, 0x8e, 0x94, 0x9b, 0x1e, 0x87, 0xe9, 0xce, 0x55, 0x28, 0xdf,
    0x8c, 0xa1, 0x89, 0x0d, 0xbf, 0xe6, 0x42, 0x68, 0x41, 0x99, 0x2d, 0x0f, 0xb0, 0x54, 0xbb, 0x16,
];

const RCON: [u32; 10] = [
    0x0100_0000,
    0x0200_0000,
    0x0400_0000,
    0x0800_0000,
    0x1000_0000,
    0x2000_0000,
    0x4000_0000,
    0x8000_0000,
    0x1b00_0000,
    0x3600_0000,
];

#[inline]
const fn xtime(b: u8) -> u8 {
    (b << 1) ^ (((b >> 7) & 1) * 0x1b)
}

/// Builds T0; T1..T3 are byte rotations of T0.
const fn build_t0() -> [u32; 256] {
    let mut t = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        let s = SBOX[i];
        let s2 = xtime(s);
        let s3 = s2 ^ s;
        // Column (2·s, s, s, 3·s) packed big-endian.
        t[i] = ((s2 as u32) << 24) | ((s as u32) << 16) | ((s as u32) << 8) | (s3 as u32);
        i += 1;
    }
    t
}

static T0: [u32; 256] = build_t0();

#[inline]
fn t0(x: u8) -> u32 {
    T0[x as usize]
}
#[inline]
fn t1(x: u8) -> u32 {
    T0[x as usize].rotate_right(8)
}
#[inline]
fn t2(x: u8) -> u32 {
    T0[x as usize].rotate_right(16)
}
#[inline]
fn t3(x: u8) -> u32 {
    T0[x as usize].rotate_right(24)
}

#[inline]
fn sub_word(w: u32) -> u32 {
    ((SBOX[(w >> 24) as usize] as u32) << 24)
        | ((SBOX[((w >> 16) & 0xff) as usize] as u32) << 16)
        | ((SBOX[((w >> 8) & 0xff) as usize] as u32) << 8)
        | (SBOX[(w & 0xff) as usize] as u32)
}

/// The expanded key, in the form the selected path consumes.
#[derive(Clone)]
enum RoundKeys {
    /// Eleven round keys as little-endian 128-bit words (the byte order an
    /// XMM register loads). Built only by [`Aes128Fast::new`], only after
    /// `aes` and `sse2` were detected on the running CPU — the dispatch in
    /// `encrypt_blocks_into` relies on that.
    #[cfg(target_arch = "x86_64")]
    AesNi([u128; 11]),
    /// Forty-four big-endian words for the T-table rounds.
    Table([u32; 44]),
}

/// AES-128 at the speed of the host: AES-NI when detected, fused T-table
/// rounds otherwise. Encrypt-only (counter-mode never decrypts blocks);
/// `decrypt_block` delegates to the reference cipher.
#[derive(Clone)]
pub struct Aes128Fast {
    keys: RoundKeys,
    /// Reference cipher for the (rare) inverse direction.
    reference: crate::aes::Aes128,
}

/// The FIPS-197 key expansion as 44 big-endian words.
fn expand_key(key: &[u8; 16]) -> [u32; 44] {
    let mut rk = [0u32; 44];
    for (i, chunk) in key.chunks_exact(4).enumerate() {
        rk[i] = u32::from_be_bytes(chunk.try_into().unwrap());
    }
    for i in 4..44 {
        let mut temp = rk[i - 1];
        if i % 4 == 0 {
            temp = sub_word(temp.rotate_left(8)) ^ RCON[i / 4 - 1];
        }
        rk[i] = rk[i - 4] ^ temp;
    }
    rk
}

impl Aes128Fast {
    /// Expands `key` and selects the path: AES-NI if the running CPU
    /// reports `aes` and `sse2`, the portable T-table rounds otherwise.
    pub fn new(key: &[u8; 16]) -> Self {
        let rk = expand_key(key);
        #[cfg(target_arch = "x86_64")]
        let keys = if is_x86_feature_detected!("aes") && is_x86_feature_detected!("sse2") {
            RoundKeys::AesNi(core::array::from_fn(|r| {
                let mut bytes = [0u8; BLOCK_BYTES];
                for (w, word) in rk[4 * r..4 * r + 4].iter().enumerate() {
                    bytes[4 * w..4 * w + 4].copy_from_slice(&word.to_be_bytes());
                }
                u128::from_le_bytes(bytes)
            }))
        } else {
            RoundKeys::Table(rk)
        };
        #[cfg(not(target_arch = "x86_64"))]
        let keys = RoundKeys::Table(rk);
        Self {
            keys,
            reference: crate::aes::Aes128::new(key),
        }
    }

    /// Keys the portable T-table path whatever the CPU offers, so tests can
    /// hold both paths against each other on one host.
    #[cfg(test)]
    fn new_portable(key: &[u8; 16]) -> Self {
        Self {
            keys: RoundKeys::Table(expand_key(key)),
            reference: crate::aes::Aes128::new(key),
        }
    }

    /// Whether this instance encrypts with AES-NI.
    #[cfg(test)]
    fn is_hardware(&self) -> bool {
        !matches!(self.keys, RoundKeys::Table(_))
    }

    /// Both paths keyed alike, for differential tests: the portable one
    /// always, the detected one only where it really is AES-NI (a host
    /// without `aes` gets a printed note instead of a second copy of the
    /// portable path).
    #[cfg(test)]
    pub(crate) fn both_paths(key: &[u8; 16]) -> Vec<(&'static str, Self)> {
        let mut paths = vec![("portable", Self::new_portable(key))];
        let detected = Self::new(key);
        if detected.is_hardware() {
            paths.push(("aes-ni", detected));
        } else {
            println!("note: no AES-NI on this host; hardware half skipped");
        }
        paths
    }
}

/// The AES-NI rounds. Everything here is safe code compiled for `aes` +
/// `sse2`; only calling in from code compiled without them is not.
#[cfg(target_arch = "x86_64")]
mod ni {
    use super::Block;
    use core::arch::x86_64::{
        __m128i, _mm_aesenc_si128, _mm_aesenclast_si128, _mm_cvtsi128_si64, _mm_set_epi64x,
        _mm_unpackhi_epi64, _mm_xor_si128,
    };

    /// Blocks in flight per loop iteration: enough independent `aesenc`
    /// chains to cover the unit's latency at one issue per cycle.
    const LANES: usize = 8;

    #[inline]
    #[target_feature(enable = "aes,sse2")]
    fn load(v: u128) -> __m128i {
        _mm_set_epi64x((v >> 64) as i64, v as i64)
    }

    #[inline]
    #[target_feature(enable = "aes,sse2")]
    fn store(x: __m128i) -> Block {
        let lo = _mm_cvtsi128_si64(x) as u64;
        let hi = _mm_cvtsi128_si64(_mm_unpackhi_epi64(x, x)) as u64;
        ((u128::from(hi) << 64) | u128::from(lo)).to_le_bytes()
    }

    /// `N` blocks with their rounds interleaved.
    #[inline]
    #[target_feature(enable = "aes,sse2")]
    fn encrypt_lanes<const N: usize>(
        rk: &[__m128i; 11],
        blocks: &[Block; N],
        out: &mut [Block; N],
    ) {
        let mut s = [rk[0]; N];
        for (x, b) in s.iter_mut().zip(blocks) {
            *x = _mm_xor_si128(load(u128::from_le_bytes(*b)), rk[0]);
        }
        for k in &rk[1..10] {
            for x in &mut s {
                *x = _mm_aesenc_si128(*x, *k);
            }
        }
        for (o, x) in out.iter_mut().zip(s) {
            *o = store(_mm_aesenclast_si128(x, rk[10]));
        }
    }

    /// Encrypts `blocks` into `out` (equal lengths, checked by the caller):
    /// [`LANES`] at a time, then the remainder one by one.
    #[target_feature(enable = "aes,sse2")]
    pub(super) fn encrypt_blocks(keys: &[u128; 11], blocks: &[Block], out: &mut [Block]) {
        let mut rk = [load(0); 11];
        for (r, k) in rk.iter_mut().zip(keys) {
            *r = load(*k);
        }
        let mut ins = blocks.chunks_exact(LANES);
        let mut outs = out.chunks_exact_mut(LANES);
        for (b, o) in (&mut ins).zip(&mut outs) {
            let b: &[Block; LANES] = b.try_into().expect("chunks_exact yields LANES blocks");
            let o: &mut [Block; LANES] = o.try_into().expect("chunks_exact yields LANES blocks");
            encrypt_lanes(&rk, b, o);
        }
        for (b, o) in ins.remainder().iter().zip(outs.into_remainder()) {
            encrypt_lanes(&rk, core::array::from_ref(b), core::array::from_mut(o));
        }
    }
}

/// Encrypts four independent blocks with their rounds interleaved.
///
/// Counter-mode pad blocks have no data dependencies between them, so
/// the four state updates can issue in parallel; interleaving hides the
/// T-table load latency behind the other lanes' arithmetic. Produces
/// exactly the same bytes as four [`table_encrypt1`] calls.
#[inline]
fn table_encrypt4(rk: &[u32; 44], blocks: &[Block; 4]) -> [Block; 4] {
    let mut s = [[0u32; 4]; 4];
    for (lane, blk) in blocks.iter().enumerate() {
        for w in 0..4 {
            s[lane][w] = u32::from_be_bytes(blk[4 * w..4 * w + 4].try_into().unwrap()) ^ rk[w];
        }
    }

    for round in 1..10 {
        let k = 4 * round;
        for lane in s.iter_mut() {
            let [s0, s1, s2, s3] = *lane;
            lane[0] = t0((s0 >> 24) as u8)
                ^ t1((s1 >> 16) as u8)
                ^ t2((s2 >> 8) as u8)
                ^ t3(s3 as u8)
                ^ rk[k];
            lane[1] = t0((s1 >> 24) as u8)
                ^ t1((s2 >> 16) as u8)
                ^ t2((s3 >> 8) as u8)
                ^ t3(s0 as u8)
                ^ rk[k + 1];
            lane[2] = t0((s2 >> 24) as u8)
                ^ t1((s3 >> 16) as u8)
                ^ t2((s0 >> 8) as u8)
                ^ t3(s1 as u8)
                ^ rk[k + 2];
            lane[3] = t0((s3 >> 24) as u8)
                ^ t1((s0 >> 16) as u8)
                ^ t2((s1 >> 8) as u8)
                ^ t3(s2 as u8)
                ^ rk[k + 3];
        }
    }

    let b = |w: u32, shift: u32| SBOX[((w >> shift) & 0xff) as usize] as u32;
    let mut out = [[0u8; BLOCK_BYTES]; 4];
    for (lane, o) in s.iter().zip(out.iter_mut()) {
        let [s0, s1, s2, s3] = *lane;
        let o0 = (b(s0, 24) << 24 | b(s1, 16) << 16 | b(s2, 8) << 8 | b(s3, 0)) ^ rk[40];
        let o1 = (b(s1, 24) << 24 | b(s2, 16) << 16 | b(s3, 8) << 8 | b(s0, 0)) ^ rk[41];
        let o2 = (b(s2, 24) << 24 | b(s3, 16) << 16 | b(s0, 8) << 8 | b(s1, 0)) ^ rk[42];
        let o3 = (b(s3, 24) << 24 | b(s0, 16) << 16 | b(s1, 8) << 8 | b(s2, 0)) ^ rk[43];
        o[0..4].copy_from_slice(&o0.to_be_bytes());
        o[4..8].copy_from_slice(&o1.to_be_bytes());
        o[8..12].copy_from_slice(&o2.to_be_bytes());
        o[12..16].copy_from_slice(&o3.to_be_bytes());
    }
    out
}

/// One block through the T-table rounds.
fn table_encrypt1(rk: &[u32; 44], block: &Block) -> Block {
    let mut s0 = u32::from_be_bytes(block[0..4].try_into().unwrap()) ^ rk[0];
    let mut s1 = u32::from_be_bytes(block[4..8].try_into().unwrap()) ^ rk[1];
    let mut s2 = u32::from_be_bytes(block[8..12].try_into().unwrap()) ^ rk[2];
    let mut s3 = u32::from_be_bytes(block[12..16].try_into().unwrap()) ^ rk[3];

    for round in 1..10 {
        let k = 4 * round;
        let t_0 = t0((s0 >> 24) as u8)
            ^ t1((s1 >> 16) as u8)
            ^ t2((s2 >> 8) as u8)
            ^ t3(s3 as u8)
            ^ rk[k];
        let t_1 = t0((s1 >> 24) as u8)
            ^ t1((s2 >> 16) as u8)
            ^ t2((s3 >> 8) as u8)
            ^ t3(s0 as u8)
            ^ rk[k + 1];
        let t_2 = t0((s2 >> 24) as u8)
            ^ t1((s3 >> 16) as u8)
            ^ t2((s0 >> 8) as u8)
            ^ t3(s1 as u8)
            ^ rk[k + 2];
        let t_3 = t0((s3 >> 24) as u8)
            ^ t1((s0 >> 16) as u8)
            ^ t2((s1 >> 8) as u8)
            ^ t3(s2 as u8)
            ^ rk[k + 3];
        (s0, s1, s2, s3) = (t_0, t_1, t_2, t_3);
    }

    // Final round: SubBytes + ShiftRows + AddRoundKey (no MixColumns).
    let b = |w: u32, shift: u32| SBOX[((w >> shift) & 0xff) as usize] as u32;
    let o0 = (b(s0, 24) << 24 | b(s1, 16) << 16 | b(s2, 8) << 8 | b(s3, 0)) ^ rk[40];
    let o1 = (b(s1, 24) << 24 | b(s2, 16) << 16 | b(s3, 8) << 8 | b(s0, 0)) ^ rk[41];
    let o2 = (b(s2, 24) << 24 | b(s3, 16) << 16 | b(s0, 8) << 8 | b(s1, 0)) ^ rk[42];
    let o3 = (b(s3, 24) << 24 | b(s0, 16) << 16 | b(s1, 8) << 8 | b(s2, 0)) ^ rk[43];

    let mut out = [0u8; BLOCK_BYTES];
    out[0..4].copy_from_slice(&o0.to_be_bytes());
    out[4..8].copy_from_slice(&o1.to_be_bytes());
    out[8..12].copy_from_slice(&o2.to_be_bytes());
    out[12..16].copy_from_slice(&o3.to_be_bytes());
    out
}

impl BlockCipher for Aes128Fast {
    fn encrypt_block(&self, block: &Block) -> Block {
        let mut out = [[0u8; BLOCK_BYTES]];
        self.encrypt_blocks_into(core::slice::from_ref(block), &mut out);
        out[0]
    }

    fn decrypt_block(&self, block: &Block) -> Block {
        self.reference.decrypt_block(block)
    }

    fn key_bytes(&self) -> usize {
        16
    }

    #[allow(unsafe_code)]
    fn encrypt_blocks_into(&self, blocks: &[Block], out: &mut [Block]) {
        assert_eq!(blocks.len(), out.len(), "batch and output length differ");
        match &self.keys {
            #[cfg(target_arch = "x86_64")]
            RoundKeys::AesNi(keys) => {
                // SAFETY: `RoundKeys::AesNi` is built only in `Aes128Fast::new`,
                // after `is_x86_feature_detected!` reported both `aes` and
                // `sse2` on this CPU — the features `ni::encrypt_blocks` is
                // compiled for. The callee itself is safe code.
                unsafe { ni::encrypt_blocks(keys, blocks, out) }
            }
            RoundKeys::Table(rk) => {
                let mut chunks = blocks.chunks_exact(4);
                let mut outs = out.chunks_exact_mut(4);
                for (quad, o) in (&mut chunks).zip(&mut outs) {
                    let quad: &[Block; 4] = quad.try_into().unwrap();
                    o.copy_from_slice(&table_encrypt4(rk, quad));
                }
                for (b, o) in chunks.remainder().iter().zip(outs.into_remainder()) {
                    *o = table_encrypt1(rk, b);
                }
            }
        }
    }
}

impl std::fmt::Debug for Aes128Fast {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("Aes128Fast { key: <redacted> }")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::aes::Aes128;

    fn hex16(s: &str) -> [u8; 16] {
        core::array::from_fn(|i| u8::from_str_radix(&s[2 * i..2 * i + 2], 16).unwrap())
    }

    #[test]
    fn fips197_vectors_on_both_paths() {
        // (key, plaintext, ciphertext): Appendix B, then Appendix C.1.
        let vectors = [
            (
                "2b7e151628aed2a6abf7158809cf4f3c",
                "3243f6a8885a308d313198a2e0370734",
                "3925841d02dc09fbdc118597196a0b32",
            ),
            (
                "000102030405060708090a0b0c0d0e0f",
                "00112233445566778899aabbccddeeff",
                "69c4e0d86a7b0430d8cdb78070b4c55a",
            ),
        ];
        for (key, pt, ct) in vectors {
            for (name, cipher) in Aes128Fast::both_paths(&hex16(key)) {
                assert_eq!(cipher.encrypt_block(&hex16(pt)), hex16(ct), "{name}");
                assert_eq!(cipher.encrypt_blocks(&[hex16(pt)]), [hex16(ct)], "{name}");
            }
        }
    }

    #[test]
    fn both_paths_match_reference_at_every_batch_length() {
        // 0..=33 covers every remainder of the 8-wide AES-NI loop and of
        // the 4-wide T-table loop, plus a batch past four full iterations.
        let mut state = 0x5EC0_4D9Fu64;
        let mut next = move || {
            state = state
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            (state >> 33) as u8
        };
        for _ in 0..32 {
            let key: [u8; 16] = core::array::from_fn(|_| next());
            let slow = Aes128::new(&key);
            let blocks: Vec<Block> = (0..33).map(|_| core::array::from_fn(|_| next())).collect();
            let want: Vec<Block> = blocks.iter().map(|b| slow.encrypt_block(b)).collect();
            for (name, cipher) in Aes128Fast::both_paths(&key) {
                for n in 0..=33 {
                    assert_eq!(
                        cipher.encrypt_blocks(&blocks[..n]),
                        want[..n],
                        "{name} diverged from the reference at batch length {n}"
                    );
                }
                for (b, w) in blocks.iter().zip(&want) {
                    assert_eq!(cipher.encrypt_block(b), *w, "{name} scalar");
                }
            }
        }
    }

    #[test]
    fn detection_matches_the_host() {
        #[cfg(target_arch = "x86_64")]
        let host = is_x86_feature_detected!("aes") && is_x86_feature_detected!("sse2");
        #[cfg(not(target_arch = "x86_64"))]
        let host = false;
        assert_eq!(Aes128Fast::new(&[7; 16]).is_hardware(), host);
        assert!(!Aes128Fast::new_portable(&[7; 16]).is_hardware());
    }

    #[test]
    fn decrypt_round_trips_via_reference() {
        let fast = Aes128Fast::new(&[0x5a; 16]);
        let blk = [0x3cu8; 16];
        assert_eq!(fast.decrypt_block(&fast.encrypt_block(&blk)), blk);
    }

    #[test]
    fn t_table_structure() {
        // T0[s] columns: (2x, x, x, 3x) of SBOX output.
        let e = T0[0x00];
        let s = SBOX[0] as u32;
        assert_eq!(e >> 24, xtime(SBOX[0]) as u32);
        assert_eq!((e >> 16) & 0xff, s);
        assert_eq!((e >> 8) & 0xff, s);
        assert_eq!(e & 0xff, (xtime(SBOX[0]) ^ SBOX[0]) as u32);
    }

    #[test]
    fn debug_redacts() {
        assert!(format!("{:?}", Aes128Fast::new(&[1; 16])).contains("redacted"));
    }

    #[test]
    #[should_panic(expected = "length differ")]
    fn batched_length_mismatch_rejected() {
        let fast = Aes128Fast::new(&[1; 16]);
        let mut out = [[0u8; 16]; 2];
        fast.encrypt_blocks_into(&[[0u8; 16]; 3], &mut out);
    }
}
