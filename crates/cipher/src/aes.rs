//! AES-128 and AES-256 block ciphers (FIPS-197), implemented from scratch.
//!
//! The implementation is a straightforward byte-oriented cipher: SubBytes via
//! the S-box table, ShiftRows, MixColumns over GF(2⁸) with the AES polynomial
//! `x⁸ + x⁴ + x³ + x + 1`, and AddRoundKey. It favours clarity and
//! auditability over raw speed — throughput modelling for the hardware engine
//! lives in [`crate::engine`], not here.
//!
//! Both forward and inverse ciphers are provided; SecNDP itself only ever
//! *encrypts* counter blocks (counter-mode usage), but the inverse cipher is
//! exercised by round-trip tests to validate key expansion.

use crate::otp::{CounterRun, PAD_WINDOW_BLOCKS};
use std::fmt;

/// AES block size in bytes (`w_c = 128` bits in the paper's notation).
pub const BLOCK_BYTES: usize = 16;

/// A 128-bit cipher block.
pub type Block = [u8; BLOCK_BYTES];

/// A keyed 128-bit block cipher, `E(K, ·)` in the paper's notation.
///
/// Implementors are pseudo-random permutations over 128-bit blocks. The trait
/// is object-safe so simulator components can hold `Box<dyn BlockCipher>`.
pub trait BlockCipher: Send + Sync {
    /// Encrypts one 16-byte block.
    fn encrypt_block(&self, block: &Block) -> Block;
    /// Decrypts one 16-byte block (inverse permutation).
    fn decrypt_block(&self, block: &Block) -> Block;
    /// Key length in bytes (16 for AES-128, 32 for AES-256).
    fn key_bytes(&self) -> usize;

    /// Encrypts a batch of blocks into `out` (`out[i] = E(K, blocks[i])`).
    ///
    /// This is the batched entry point the OTP pad stream drives; counter
    /// blocks are independent, so implementations are free to pipeline or
    /// interleave them (see `Aes128Fast`). The default delegates to
    /// [`encrypt_block`](Self::encrypt_block) one block at a time and is
    /// always byte-identical to the scalar path.
    ///
    /// # Panics
    ///
    /// Panics if `blocks.len() != out.len()`.
    fn encrypt_blocks_into(&self, blocks: &[Block], out: &mut [Block]) {
        assert_eq!(blocks.len(), out.len(), "batch and output length differ");
        for (b, o) in blocks.iter().zip(out.iter_mut()) {
            *o = self.encrypt_block(b);
        }
    }

    /// Encrypts a batch of blocks, returning the ciphertexts in order.
    ///
    /// Convenience wrapper over
    /// [`encrypt_blocks_into`](Self::encrypt_blocks_into).
    fn encrypt_blocks(&self, blocks: &[Block]) -> Vec<Block> {
        let mut out = vec![[0u8; BLOCK_BYTES]; blocks.len()];
        self.encrypt_blocks_into(blocks, &mut out);
        out
    }

    /// Encrypts the counter blocks of `runs`, run after run, into `out`:
    /// the pad stream of [`OtpGenerator::stream_pads`](crate::OtpGenerator::stream_pads).
    ///
    /// The default serializes the counters into a window of
    /// [`PAD_WINDOW_BLOCKS`] blocks and encrypts each window with one
    /// [`encrypt_blocks_into`](Self::encrypt_blocks_into) call; `Aes128Fast`
    /// overrides it to build the counters in registers. Both produce the
    /// bytes the scalar [`encrypt_block`](Self::encrypt_block) gives each
    /// counter.
    ///
    /// # Panics
    ///
    /// Panics if `out` does not hold exactly the runs' blocks.
    fn encrypt_runs_into(&self, runs: &[CounterRun], out: &mut [Block]) {
        assert_eq!(
            CounterRun::total(runs),
            out.len(),
            "runs and output length differ"
        );
        let mut counters = [[0u8; BLOCK_BYTES]; PAD_WINDOW_BLOCKS];
        let (mut n, mut done) = (0, 0);
        for run in runs {
            for j in 0..run.blocks() {
                counters[n] = run.counter(j);
                n += 1;
                if n == PAD_WINDOW_BLOCKS {
                    self.encrypt_blocks_into(&counters, &mut out[done..done + n]);
                    (done, n) = (done + n, 0);
                }
            }
        }
        self.encrypt_blocks_into(&counters[..n], &mut out[done..]);
    }
}

/// The AES S-box (FIPS-197 Figure 7).
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

/// The inverse AES S-box (FIPS-197 Figure 14).
#[rustfmt::skip]
const INV_SBOX: [u8; 256] = [
    0x52, 0x09, 0x6a, 0xd5, 0x30, 0x36, 0xa5, 0x38, 0xbf, 0x40, 0xa3, 0x9e, 0x81, 0xf3, 0xd7, 0xfb,
    0x7c, 0xe3, 0x39, 0x82, 0x9b, 0x2f, 0xff, 0x87, 0x34, 0x8e, 0x43, 0x44, 0xc4, 0xde, 0xe9, 0xcb,
    0x54, 0x7b, 0x94, 0x32, 0xa6, 0xc2, 0x23, 0x3d, 0xee, 0x4c, 0x95, 0x0b, 0x42, 0xfa, 0xc3, 0x4e,
    0x08, 0x2e, 0xa1, 0x66, 0x28, 0xd9, 0x24, 0xb2, 0x76, 0x5b, 0xa2, 0x49, 0x6d, 0x8b, 0xd1, 0x25,
    0x72, 0xf8, 0xf6, 0x64, 0x86, 0x68, 0x98, 0x16, 0xd4, 0xa4, 0x5c, 0xcc, 0x5d, 0x65, 0xb6, 0x92,
    0x6c, 0x70, 0x48, 0x50, 0xfd, 0xed, 0xb9, 0xda, 0x5e, 0x15, 0x46, 0x57, 0xa7, 0x8d, 0x9d, 0x84,
    0x90, 0xd8, 0xab, 0x00, 0x8c, 0xbc, 0xd3, 0x0a, 0xf7, 0xe4, 0x58, 0x05, 0xb8, 0xb3, 0x45, 0x06,
    0xd0, 0x2c, 0x1e, 0x8f, 0xca, 0x3f, 0x0f, 0x02, 0xc1, 0xaf, 0xbd, 0x03, 0x01, 0x13, 0x8a, 0x6b,
    0x3a, 0x91, 0x11, 0x41, 0x4f, 0x67, 0xdc, 0xea, 0x97, 0xf2, 0xcf, 0xce, 0xf0, 0xb4, 0xe6, 0x73,
    0x96, 0xac, 0x74, 0x22, 0xe7, 0xad, 0x35, 0x85, 0xe2, 0xf9, 0x37, 0xe8, 0x1c, 0x75, 0xdf, 0x6e,
    0x47, 0xf1, 0x1a, 0x71, 0x1d, 0x29, 0xc5, 0x89, 0x6f, 0xb7, 0x62, 0x0e, 0xaa, 0x18, 0xbe, 0x1b,
    0xfc, 0x56, 0x3e, 0x4b, 0xc6, 0xd2, 0x79, 0x20, 0x9a, 0xdb, 0xc0, 0xfe, 0x78, 0xcd, 0x5a, 0xf4,
    0x1f, 0xdd, 0xa8, 0x33, 0x88, 0x07, 0xc7, 0x31, 0xb1, 0x12, 0x10, 0x59, 0x27, 0x80, 0xec, 0x5f,
    0x60, 0x51, 0x7f, 0xa9, 0x19, 0xb5, 0x4a, 0x0d, 0x2d, 0xe5, 0x7a, 0x9f, 0x93, 0xc9, 0x9c, 0xef,
    0xa0, 0xe0, 0x3b, 0x4d, 0xae, 0x2a, 0xf5, 0xb0, 0xc8, 0xeb, 0xbb, 0x3c, 0x83, 0x53, 0x99, 0x61,
    0x17, 0x2b, 0x04, 0x7e, 0xba, 0x77, 0xd6, 0x26, 0xe1, 0x69, 0x14, 0x63, 0x55, 0x21, 0x0c, 0x7d,
];

/// Round constants for key expansion.
const RCON: [u8; 10] = [0x01, 0x02, 0x04, 0x08, 0x10, 0x20, 0x40, 0x80, 0x1b, 0x36];

/// Multiplication by `x` in GF(2⁸) modulo the AES polynomial.
#[inline]
fn xtime(b: u8) -> u8 {
    (b << 1) ^ (((b >> 7) & 1) * 0x1b)
}

/// General multiplication in GF(2⁸) (used by the inverse MixColumns).
#[inline]
fn gf_mul(mut a: u8, mut b: u8) -> u8 {
    let mut acc = 0u8;
    while b != 0 {
        if b & 1 != 0 {
            acc ^= a;
        }
        a = xtime(a);
        b >>= 1;
    }
    acc
}

#[inline]
fn sub_bytes(state: &mut Block) {
    for b in state.iter_mut() {
        *b = SBOX[*b as usize];
    }
}

#[inline]
fn inv_sub_bytes(state: &mut Block) {
    for b in state.iter_mut() {
        *b = INV_SBOX[*b as usize];
    }
}

/// State layout: `state[4*c + r]` is row `r`, column `c` (column-major, as in
/// the FIPS byte ordering of the input block).
#[inline]
fn shift_rows(s: &mut Block) {
    // Row 1: rotate left by 1.
    let t = s[1];
    s[1] = s[5];
    s[5] = s[9];
    s[9] = s[13];
    s[13] = t;
    // Row 2: rotate left by 2.
    s.swap(2, 10);
    s.swap(6, 14);
    // Row 3: rotate left by 3 (= right by 1).
    let t = s[15];
    s[15] = s[11];
    s[11] = s[7];
    s[7] = s[3];
    s[3] = t;
}

#[inline]
fn inv_shift_rows(s: &mut Block) {
    // Row 1: rotate right by 1.
    let t = s[13];
    s[13] = s[9];
    s[9] = s[5];
    s[5] = s[1];
    s[1] = t;
    // Row 2: rotate right by 2.
    s.swap(2, 10);
    s.swap(6, 14);
    // Row 3: rotate right by 3 (= left by 1).
    let t = s[3];
    s[3] = s[7];
    s[7] = s[11];
    s[11] = s[15];
    s[15] = t;
}

#[inline]
fn mix_columns(s: &mut Block) {
    for c in 0..4 {
        let col = &mut s[4 * c..4 * c + 4];
        let (a0, a1, a2, a3) = (col[0], col[1], col[2], col[3]);
        col[0] = xtime(a0) ^ (xtime(a1) ^ a1) ^ a2 ^ a3;
        col[1] = a0 ^ xtime(a1) ^ (xtime(a2) ^ a2) ^ a3;
        col[2] = a0 ^ a1 ^ xtime(a2) ^ (xtime(a3) ^ a3);
        col[3] = (xtime(a0) ^ a0) ^ a1 ^ a2 ^ xtime(a3);
    }
}

#[inline]
fn inv_mix_columns(s: &mut Block) {
    for c in 0..4 {
        let col = &mut s[4 * c..4 * c + 4];
        let (a0, a1, a2, a3) = (col[0], col[1], col[2], col[3]);
        col[0] = gf_mul(a0, 0x0e) ^ gf_mul(a1, 0x0b) ^ gf_mul(a2, 0x0d) ^ gf_mul(a3, 0x09);
        col[1] = gf_mul(a0, 0x09) ^ gf_mul(a1, 0x0e) ^ gf_mul(a2, 0x0b) ^ gf_mul(a3, 0x0d);
        col[2] = gf_mul(a0, 0x0d) ^ gf_mul(a1, 0x09) ^ gf_mul(a2, 0x0e) ^ gf_mul(a3, 0x0b);
        col[3] = gf_mul(a0, 0x0b) ^ gf_mul(a1, 0x0d) ^ gf_mul(a2, 0x09) ^ gf_mul(a3, 0x0e);
    }
}

#[inline]
fn add_round_key(state: &mut Block, rk: &Block) {
    for (s, k) in state.iter_mut().zip(rk.iter()) {
        *s ^= k;
    }
}

/// Expands a key of `NK` 32-bit words into `rounds + 1` round keys.
fn expand_key(key: &[u8], nk: usize, rounds: usize) -> Vec<Block> {
    debug_assert_eq!(key.len(), nk * 4);
    let nwords = 4 * (rounds + 1);
    let mut w: Vec<[u8; 4]> = Vec::with_capacity(nwords);
    for i in 0..nk {
        w.push([key[4 * i], key[4 * i + 1], key[4 * i + 2], key[4 * i + 3]]);
    }
    for i in nk..nwords {
        let mut temp = w[i - 1];
        if i % nk == 0 {
            // RotWord + SubWord + Rcon.
            temp = [
                SBOX[temp[1] as usize] ^ RCON[i / nk - 1],
                SBOX[temp[2] as usize],
                SBOX[temp[3] as usize],
                SBOX[temp[0] as usize],
            ];
        } else if nk > 6 && i % nk == 4 {
            // AES-256 extra SubWord.
            temp = [
                SBOX[temp[0] as usize],
                SBOX[temp[1] as usize],
                SBOX[temp[2] as usize],
                SBOX[temp[3] as usize],
            ];
        }
        let prev = w[i - nk];
        w.push([
            prev[0] ^ temp[0],
            prev[1] ^ temp[1],
            prev[2] ^ temp[2],
            prev[3] ^ temp[3],
        ]);
    }
    w.chunks(4)
        .map(|c| {
            let mut rk = [0u8; BLOCK_BYTES];
            for (j, word) in c.iter().enumerate() {
                rk[4 * j..4 * j + 4].copy_from_slice(word);
            }
            rk
        })
        .collect()
}

fn encrypt_with(round_keys: &[Block], block: &Block) -> Block {
    let rounds = round_keys.len() - 1;
    let mut s = *block;
    add_round_key(&mut s, &round_keys[0]);
    for rk in &round_keys[1..rounds] {
        sub_bytes(&mut s);
        shift_rows(&mut s);
        mix_columns(&mut s);
        add_round_key(&mut s, rk);
    }
    sub_bytes(&mut s);
    shift_rows(&mut s);
    add_round_key(&mut s, &round_keys[rounds]);
    s
}

fn decrypt_with(round_keys: &[Block], block: &Block) -> Block {
    let rounds = round_keys.len() - 1;
    let mut s = *block;
    add_round_key(&mut s, &round_keys[rounds]);
    for rk in round_keys[1..rounds].iter().rev() {
        inv_shift_rows(&mut s);
        inv_sub_bytes(&mut s);
        add_round_key(&mut s, rk);
        inv_mix_columns(&mut s);
    }
    inv_shift_rows(&mut s);
    inv_sub_bytes(&mut s);
    add_round_key(&mut s, &round_keys[0]);
    s
}

/// AES-128: 10 rounds, 16-byte key (`w_K = 128`).
#[derive(Clone)]
pub struct Aes128 {
    round_keys: Vec<Block>,
}

impl Aes128 {
    /// Expands `key` into the round-key schedule.
    pub fn new(key: &[u8; 16]) -> Self {
        Self {
            round_keys: expand_key(key, 4, 10),
        }
    }
}

impl BlockCipher for Aes128 {
    fn encrypt_block(&self, block: &Block) -> Block {
        encrypt_with(&self.round_keys, block)
    }
    fn decrypt_block(&self, block: &Block) -> Block {
        decrypt_with(&self.round_keys, block)
    }
    fn key_bytes(&self) -> usize {
        16
    }
}

impl fmt::Debug for Aes128 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        // Never print key material.
        f.write_str("Aes128 { key: <redacted> }")
    }
}

/// AES-256: 14 rounds, 32-byte key (`w_K = 256`).
#[derive(Clone)]
pub struct Aes256 {
    round_keys: Vec<Block>,
}

impl Aes256 {
    /// Expands `key` into the round-key schedule.
    pub fn new(key: &[u8; 32]) -> Self {
        Self {
            round_keys: expand_key(key, 8, 14),
        }
    }
}

impl BlockCipher for Aes256 {
    fn encrypt_block(&self, block: &Block) -> Block {
        encrypt_with(&self.round_keys, block)
    }
    fn decrypt_block(&self, block: &Block) -> Block {
        decrypt_with(&self.round_keys, block)
    }
    fn key_bytes(&self) -> usize {
        32
    }
}

impl fmt::Debug for Aes256 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("Aes256 { key: <redacted> }")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hex(s: &str) -> Vec<u8> {
        (0..s.len())
            .step_by(2)
            .map(|i| u8::from_str_radix(&s[i..i + 2], 16).unwrap())
            .collect()
    }

    #[test]
    fn fips197_aes128_vector() {
        // FIPS-197 Appendix C.1.
        let key: [u8; 16] = hex("000102030405060708090a0b0c0d0e0f").try_into().unwrap();
        let pt: Block = hex("00112233445566778899aabbccddeeff").try_into().unwrap();
        let ct: Block = hex("69c4e0d86a7b0430d8cdb78070b4c55a").try_into().unwrap();
        let aes = Aes128::new(&key);
        assert_eq!(aes.encrypt_block(&pt), ct);
        assert_eq!(aes.decrypt_block(&ct), pt);
    }

    #[test]
    fn fips197_aes256_vector() {
        // FIPS-197 Appendix C.3.
        let key: [u8; 32] = hex("000102030405060708090a0b0c0d0e0f101112131415161718191a1b1c1d1e1f")
            .try_into()
            .unwrap();
        let pt: Block = hex("00112233445566778899aabbccddeeff").try_into().unwrap();
        let ct: Block = hex("8ea2b7ca516745bfeafc49904b496089").try_into().unwrap();
        let aes = Aes256::new(&key);
        assert_eq!(aes.encrypt_block(&pt), ct);
        assert_eq!(aes.decrypt_block(&ct), pt);
    }

    #[test]
    fn nist_aes128_ecb_kat() {
        // NIST SP 800-38A F.1.1 (first two ECB-AES128 blocks).
        let key: [u8; 16] = hex("2b7e151628aed2a6abf7158809cf4f3c").try_into().unwrap();
        let aes = Aes128::new(&key);
        let pt1: Block = hex("6bc1bee22e409f96e93d7e117393172a").try_into().unwrap();
        let ct1: Block = hex("3ad77bb40d7a3660a89ecaf32466ef97").try_into().unwrap();
        assert_eq!(aes.encrypt_block(&pt1), ct1);
        let pt2: Block = hex("ae2d8a571e03ac9c9eb76fac45af8e51").try_into().unwrap();
        let ct2: Block = hex("f5d3d58503b9699de785895a96fdbaaf").try_into().unwrap();
        assert_eq!(aes.encrypt_block(&pt2), ct2);
    }

    #[test]
    fn round_trip_many_blocks() {
        let aes = Aes128::new(&[0x5a; 16]);
        for i in 0u64..256 {
            let mut blk = [0u8; 16];
            blk[..8].copy_from_slice(&i.to_le_bytes());
            blk[8..].copy_from_slice(&(i.wrapping_mul(0x9e3779b97f4a7c15)).to_le_bytes());
            assert_eq!(aes.decrypt_block(&aes.encrypt_block(&blk)), blk);
        }
    }

    #[test]
    fn distinct_keys_distinct_ciphertexts() {
        let a = Aes128::new(&[0u8; 16]);
        let b = Aes128::new(&[1u8; 16]);
        let blk = [0x42u8; 16];
        assert_ne!(a.encrypt_block(&blk), b.encrypt_block(&blk));
    }

    #[test]
    fn gf_mul_matches_xtime() {
        for b in 0u8..=255 {
            assert_eq!(gf_mul(b, 2), xtime(b));
            assert_eq!(gf_mul(b, 1), b);
            assert_eq!(gf_mul(b, 3), xtime(b) ^ b);
        }
    }

    #[test]
    fn shift_rows_inverse() {
        let mut s: Block = core::array::from_fn(|i| i as u8);
        let orig = s;
        shift_rows(&mut s);
        assert_ne!(s, orig);
        inv_shift_rows(&mut s);
        assert_eq!(s, orig);
    }

    #[test]
    fn mix_columns_inverse() {
        let mut s: Block = core::array::from_fn(|i| (i * 17 + 3) as u8);
        let orig = s;
        mix_columns(&mut s);
        inv_mix_columns(&mut s);
        assert_eq!(s, orig);
    }

    #[test]
    fn debug_redacts_key() {
        let aes = Aes128::new(&[7u8; 16]);
        let s = format!("{aes:?}");
        assert!(s.contains("redacted"));
        assert!(!s.contains('7'));
    }
}
