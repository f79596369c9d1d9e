//! Arithmetic encryption — Algorithm 1 (`Arith-E`).
//!
//! The plaintext is chunked into 128-bit cipher blocks; each block's pad is
//! `E(K, 00 ‖ block_addr ‖ v)`, and each `wₑ`-bit element is *subtracted* by
//! its pad slice in ℤ(2^wₑ):
//!
//! ```text
//! cⱼ = pⱼ − eⱼ  (mod 2^wₑ)
//! ```
//!
//! Unlike XOR counter-mode, subtraction makes `(cⱼ, eⱼ)` an *arithmetic*
//! share pair — `cⱼ + eⱼ = pⱼ` — so linear computation distributes across
//! the two shares. Security is the same as counter-mode (Theorem 1): pads
//! are indistinguishable from uniform as long as `(addr, v)` never repeats.

use crate::checksum::{ChecksumScheme, VerifyKey};
use crate::error::Error;
use crate::layout::TableLayout;
use crate::version::RegionId;
use secndp_arith::mersenne::Fq;
use secndp_arith::ring::{words_to_le_bytes, RingWord};
use secndp_cipher::aes::{BlockCipher, BLOCK_BYTES};
use secndp_cipher::otp::{first_127_bits, Domain, OtpGenerator, PAD_WINDOW_BLOCKS};

/// An encrypted table ready to be placed in untrusted NDP memory: the
/// ciphertext share plus (optionally) one encrypted verification tag per
/// row.
///
/// The version number is carried here because it is *not* secret (the
/// security definitions hold with `dis = true`); confidentiality rests on
/// the key alone.
#[derive(Debug, Clone, PartialEq)]
pub struct EncryptedTable<W> {
    layout: TableLayout,
    region: RegionId,
    version: u64,
    ciphertext: Vec<W>,
    tags: Option<Vec<Fq>>,
}

impl<W: RingWord> EncryptedTable<W> {
    pub(crate) fn from_parts(
        layout: TableLayout,
        region: RegionId,
        version: u64,
        ciphertext: Vec<W>,
        tags: Option<Vec<Fq>>,
    ) -> Self {
        Self {
            layout,
            region,
            version,
            ciphertext,
            tags,
        }
    }

    /// The table's layout in physical memory.
    pub fn layout(&self) -> TableLayout {
        self.layout
    }

    /// The version-manager region backing this table.
    pub fn region(&self) -> RegionId {
        self.region
    }

    /// The (public) version number the pads were derived from.
    pub fn version(&self) -> u64 {
        self.version
    }

    /// The ciphertext share, row-major.
    pub fn ciphertext(&self) -> &[W] {
        &self.ciphertext
    }

    /// Encrypted per-row verification tags (`C_{T_i}`), if generated.
    pub fn tags(&self) -> Option<&[Fq]> {
        self.tags.as_deref()
    }

    /// Serializes the ciphertext to the little-endian byte image that is
    /// written to memory.
    ///
    /// No shipped path calls it: `publish` writes its `Load` frame from
    /// [`ciphertext`](Self::ciphertext). Tests and the perf ledger
    /// (`benchmark/src`) use it.
    pub fn ciphertext_bytes(&self) -> Vec<u8> {
        words_to_le_bytes(&self.ciphertext)
    }
}

/// Encrypts `plaintext` (row-major, shape given by `layout`) under
/// `version` — Algorithm 1.
///
/// # Errors
///
/// Returns [`Error::ShapeMismatch`] if `plaintext.len() != layout.len()`.
pub fn encrypt_elements<W: RingWord, C: BlockCipher>(
    otp: &OtpGenerator<C>,
    plaintext: &[W],
    layout: &TableLayout,
    version: u64,
) -> Result<Vec<W>, Error> {
    combine_with_pads(otp, plaintext, layout, version, W::wsub)
}

/// Decrypts a full ciphertext image (`p = c + e`).
///
/// # Errors
///
/// Returns [`Error::ShapeMismatch`] if `ciphertext.len() != layout.len()`.
pub fn decrypt_elements<W: RingWord, C: BlockCipher>(
    otp: &OtpGenerator<C>,
    ciphertext: &[W],
    layout: &TableLayout,
    version: u64,
) -> Result<Vec<W>, Error> {
    combine_with_pads(otp, ciphertext, layout, version, W::wadd)
}

/// Refuses a table image of `len` words that is not `layout`'s shape.
pub(crate) fn check_shape(len: usize, layout: &TableLayout) -> Result<(), Error> {
    if len != layout.len() {
        return Err(Error::ShapeMismatch {
            got: len,
            expected: layout.len(),
        });
    }
    Ok(())
}

/// `op(wordⱼ, eⱼ)` over the whole table image, `e` being the data pads of
/// `layout` under `version`. The image, whatever its rows, is streamed
/// through [`OtpGenerator::stream_pads`] as a run of equal contiguous
/// chunks, each one window's worth of whole elements even from mid-block,
/// then one call for the tail: a block two chunks share is generated twice,
/// at most once per window, and no pad outlives its window.
fn combine_with_pads<W: RingWord, C: BlockCipher>(
    otp: &OtpGenerator<C>,
    words: &[W],
    layout: &TableLayout,
    version: u64,
    op: impl Fn(W, W) -> W,
) -> Result<Vec<W>, Error> {
    check_shape(words.len(), layout)?;
    let mut out = Vec::with_capacity(words.len());
    let mut combine = |span: &[W], pads: &[u8]| {
        out.extend(
            span.iter()
                .zip(pads.chunks_exact(W::BYTES))
                .map(|(&x, e)| op(x, W::from_le_slice(e))),
        )
    };
    let chunk = (PAD_WINDOW_BLOCKS - 1) * BLOCK_BYTES / W::BYTES;
    let (whole, tail) = words.split_at(words.len() - words.len() % chunk);
    let base = layout.base_addr();
    let addr = |k: usize| base + (k * chunk * W::BYTES) as u64;
    otp.stream_pads(
        Domain::Data,
        version,
        chunk * W::BYTES,
        (0..whole.len() / chunk).map(addr),
        |k, pads| combine(&whole[k * chunk..(k + 1) * chunk], pads),
    );
    otp.stream_pads(
        Domain::Data,
        version,
        tail.len() * W::BYTES,
        [addr(whole.len() / chunk)],
        |_, pads| combine(tail, pads),
    );
    Ok(out)
}

/// Computes the encrypted per-row tags `C_{T_i}` (Algorithms 2 + 3) for the
/// whole table: [`encrypt_tags_with`] under the table's [`VerifyKey`],
/// derived here.
pub fn encrypt_tags<W: RingWord, C: BlockCipher>(
    otp: &OtpGenerator<C>,
    plaintext: &[W],
    layout: &TableLayout,
    version: u64,
    scheme: ChecksumScheme,
) -> Vec<Fq> {
    let key = VerifyKey::derive(otp, layout.base_addr(), version, scheme, layout.cols());
    encrypt_tags_with(otp, &key, plaintext, layout, version)
}

/// [`encrypt_tags`] under `key`, the table's verification key for
/// `version` — the one the processor then holds for the version's queries.
///
/// The tag pads `E_{T_i}` stream out of [`OtpGenerator::stream_pads`]
/// a window at a time, and each row's checksum is one dot product with the
/// key's powers, taken as its pad arrives.
///
/// # Panics
///
/// Panics if `key` covers a width other than the layout's columns.
pub fn encrypt_tags_with<W: RingWord, C: BlockCipher>(
    otp: &OtpGenerator<C>,
    key: &VerifyKey,
    plaintext: &[W],
    layout: &TableLayout,
    version: u64,
) -> Vec<Fq> {
    let m = layout.cols();
    let mut tags = Vec::with_capacity(layout.rows());
    otp.stream_pads(
        Domain::Tag,
        version,
        BLOCK_BYTES,
        (0..layout.rows()).map(|i| layout.row_addr(i)),
        |i, pad| {
            let t = key.checksum(&plaintext[i * m..(i + 1) * m]);
            // C_T = T − E_T (mod q), Algorithm 3 line 5.
            tags.push(t - Fq::new(first_127_bits(pad)));
        },
    );
    tags
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
mod tests {
    use super::*;
    use crate::checksum::derive_secrets;
    use proptest::prelude::*;
    use secndp_arith::mersenne::horner_high_to_low;
    use secndp_arith::ring::words_from_le_bytes;
    use secndp_cipher::aes::Aes128;

    fn otp() -> OtpGenerator<Aes128> {
        OtpGenerator::new(Aes128::new(&[0x11; 16]))
    }

    #[test]
    fn encrypt_decrypt_round_trip_u32() {
        let g = otp();
        let layout = TableLayout::new::<u32>(0x2000, 3, 5).unwrap();
        let pt: Vec<u32> = (0..15).map(|i| i * 1000 + 7).collect();
        let ct = encrypt_elements(&g, &pt, &layout, 4).unwrap();
        assert_ne!(ct, pt);
        assert_eq!(decrypt_elements(&g, &ct, &layout, 4).unwrap(), pt);
    }

    #[test]
    fn encrypt_decrypt_round_trip_u8_unaligned_rows() {
        // 3-byte rows: rows straddle cipher-block boundaries.
        let g = otp();
        let layout = TableLayout::new::<u8>(0x30, 7, 3).unwrap();
        let pt: Vec<u8> = (0..21).map(|i| (i * 37) as u8).collect();
        let ct = encrypt_elements(&g, &pt, &layout, 1).unwrap();
        assert_eq!(decrypt_elements(&g, &ct, &layout, 1).unwrap(), pt);
    }

    #[test]
    fn wrong_version_fails_to_decrypt() {
        let g = otp();
        let layout = TableLayout::new::<u16>(0, 2, 8).unwrap();
        let pt = vec![42u16; 16];
        let ct = encrypt_elements(&g, &pt, &layout, 5).unwrap();
        assert_ne!(decrypt_elements(&g, &ct, &layout, 6).unwrap(), pt);
    }

    #[test]
    fn wrong_address_fails_to_decrypt() {
        let g = otp();
        let l1 = TableLayout::new::<u16>(0, 2, 8).unwrap();
        let l2 = TableLayout::new::<u16>(64, 2, 8).unwrap();
        let pt = vec![42u16; 16];
        let ct = encrypt_elements(&g, &pt, &l1, 5).unwrap();
        assert_ne!(decrypt_elements(&g, &ct, &l2, 5).unwrap(), pt);
    }

    #[test]
    fn shares_sum_to_plaintext() {
        // c + e = p element-wise: the arithmetic-sharing invariant.
        let g = otp();
        let layout = TableLayout::new::<u32>(0x80, 2, 4).unwrap();
        let pt: Vec<u32> = vec![5, 10, 15, 20, 25, 30, 35, 40];
        let ct = encrypt_elements(&g, &pt, &layout, 9).unwrap();
        let pads: Vec<u32> = words_from_le_bytes(&g.data_pad_bytes(0x80, layout.size_bytes(), 9));
        for ((&c, &e), &p) in ct.iter().zip(&pads).zip(&pt) {
            assert_eq!(c.wadd(e), p);
        }
    }

    #[test]
    fn windowed_pads_match_whole_table_pads() {
        // Tables several pad windows long, on aligned and unaligned bases,
        // with rows narrower and wider than a window: streaming the pads a
        // chunk at a time must give the ciphertext the whole-table pad image
        // gives, at every element width.
        fn check<W: RingWord>(base: u64) {
            let g = otp();
            let window = PAD_WINDOW_BLOCKS * BLOCK_BYTES;
            let cols = 3 * window / W::BYTES / 7 + 1;
            table::<W>(&g, base, 7, cols);
            table::<W>(&g, base, 40, 3);
            // Exactly two chunks of one-block rows, so the tail is empty.
            table::<W>(
                &g,
                base,
                2 * (PAD_WINDOW_BLOCKS - 1),
                BLOCK_BYTES / W::BYTES,
            );
        }
        fn table<W: RingWord>(g: &OtpGenerator<Aes128>, base: u64, rows: usize, cols: usize) {
            let layout = TableLayout::new::<W>(base, rows, cols).unwrap();
            let pt: Vec<W> = (0..layout.len() as u64)
                .map(|i| W::from_u64(i.wrapping_mul(0x9E37_79B9_7F4A_7C15)))
                .collect();
            let pads: Vec<W> = words_from_le_bytes(&g.data_pad_bytes(base, layout.size_bytes(), 5));
            let want: Vec<W> = pt.iter().zip(&pads).map(|(&p, &e)| p.wsub(e)).collect();
            let ct = encrypt_elements(g, &pt, &layout, 5).unwrap();
            let at = format!("width {} base {base:#x} {rows}x{cols}", W::BITS);
            assert_eq!(ct, want, "{at}");
            assert_eq!(decrypt_elements(g, &ct, &layout, 5).unwrap(), pt, "{at}");
        }
        for base in [0x4000, 0x4003, 0x400d] {
            check::<u8>(base);
            check::<u16>(base);
            check::<u32>(base);
            check::<u64>(base);
        }
    }

    #[test]
    fn narrow_rows_cost_the_image_not_the_rows() {
        // 1- and 3-byte rows on a base that starts mid-block: the image's
        // pads cost its covering blocks plus at most one shared block per
        // chunk, not one block per row.
        use std::sync::atomic::{AtomicU64, Ordering};
        struct Counting(Aes128, AtomicU64);
        impl BlockCipher for Counting {
            fn encrypt_block(&self, block: &[u8; BLOCK_BYTES]) -> [u8; BLOCK_BYTES] {
                self.1.fetch_add(1, Ordering::Relaxed);
                self.0.encrypt_block(block)
            }
            fn decrypt_block(&self, block: &[u8; BLOCK_BYTES]) -> [u8; BLOCK_BYTES] {
                self.0.decrypt_block(block)
            }
            fn key_bytes(&self) -> usize {
                self.0.key_bytes()
            }
        }
        let g = OtpGenerator::new(Counting(Aes128::new(&[0x11; 16]), AtomicU64::new(0)));
        for cols in [1usize, 3] {
            let base = 0x4003u64;
            let layout = TableLayout::new::<u8>(base, 4096, cols).unwrap();
            let pt = vec![7u8; layout.len()];
            let before = g.cipher().1.load(Ordering::Relaxed);
            let ct = encrypt_elements(&g, &pt, &layout, 2).unwrap();
            let blocks = g.cipher().1.load(Ordering::Relaxed) - before;
            let size = layout.size_bytes() as u64;
            let covering = (base % 16 + size).div_ceil(16);
            let chunks = size.div_ceil(((PAD_WINDOW_BLOCKS - 1) * BLOCK_BYTES) as u64);
            assert!(
                (covering..covering + chunks).contains(&blocks),
                "{cols}-byte rows: {blocks} blocks for {covering} covering"
            );
            assert_eq!(decrypt_elements(&otp(), &ct, &layout, 2).unwrap(), pt);
        }
    }

    #[test]
    fn shape_mismatch_rejected() {
        let g = otp();
        let layout = TableLayout::new::<u32>(0, 2, 4).unwrap();
        assert!(matches!(
            encrypt_elements(&g, &[1u32; 7], &layout, 1),
            Err(Error::ShapeMismatch {
                got: 7,
                expected: 8
            })
        ));
        assert!(decrypt_elements(&g, &[1u32; 9], &layout, 1).is_err());
    }

    #[test]
    fn tags_one_per_row_and_version_sensitive() {
        let g = otp();
        let layout = TableLayout::new::<u32>(0x100, 4, 8).unwrap();
        let pt: Vec<u32> = (0..32).collect();
        let t1 = encrypt_tags(&g, &pt, &layout, 1, ChecksumScheme::SingleS);
        assert_eq!(t1.len(), 4);
        let t2 = encrypt_tags(&g, &pt, &layout, 2, ChecksumScheme::SingleS);
        assert_ne!(t1, t2);
    }

    #[test]
    fn identical_rows_get_distinct_tags() {
        // Tag pads differ per row address, so equal rows don't leak equality.
        let g = otp();
        let layout = TableLayout::new::<u32>(0, 2, 4).unwrap();
        let pt = vec![7u32; 8];
        let tags = encrypt_tags(&g, &pt, &layout, 1, ChecksumScheme::SingleS);
        assert_ne!(tags[0], tags[1]);
    }

    #[test]
    fn ciphertext_bytes_round_trip() {
        let g = otp();
        let layout = TableLayout::new::<u32>(0, 2, 2).unwrap();
        let pt = vec![1u32, 2, 3, 4];
        let ct = encrypt_elements(&g, &pt, &layout, 1).unwrap();
        let table = EncryptedTable::from_parts(layout, RegionId(0), 1, ct.clone(), None);
        assert_eq!(words_from_le_bytes::<u32>(&table.ciphertext_bytes()), ct);
    }

    /// Algorithm 2/8's tag of one row by Horner's rule alone, as the
    /// reference the tag pass is checked against. Alg 8 is one chain per
    /// secret: coefficient `j` sits in chain `(m − j) mod cnt` at exponent
    /// `⌊(m − j)/cnt⌋`, and `horner_high_to_low` lifts each chain's lowest
    /// term to `s¹` — one power too high for every chain but chain 0.
    fn horner_tag<W: RingWord>(row: &[W], secrets: &[Fq]) -> Fq {
        let (m, cnt) = (row.len(), secrets.len());
        (0..cnt)
            .map(|r| {
                let chain: Vec<Fq> = (0..m)
                    .filter(|j| (m - j) % cnt == r)
                    .map(|j| Fq::new(row[j].as_u128()))
                    .collect();
                let h = horner_high_to_low(&chain, secrets[r]);
                if r == 0 {
                    h
                } else {
                    h * secrets[r].inv().unwrap()
                }
            })
            .sum()
    }

    /// Every tag equals `horner_tag(row) − E_T` at every width, one secret
    /// and three, 1/5/32/33 columns on a base that starts mid-block, with
    /// rows at the width's maximum between seeded ones. The digest over the
    /// tables' ciphertext and tags was taken on the commit before the tag
    /// pass became a dot product over a power table.
    #[test]
    fn tags_match_per_row_horner_and_the_pinned_digest() {
        fn check<W: RingWord>(digest: &mut u64) {
            let g = otp();
            let (base, rows, version) = (0x2003u64, 6usize, 7u64);
            for scheme in [ChecksumScheme::SingleS, ChecksumScheme::MultiS { cnt: 3 }] {
                for cols in [1usize, 5, 32, 33] {
                    let layout = TableLayout::new::<W>(base, rows, cols).unwrap();
                    let pt: Vec<W> = (0..(rows * cols) as u64)
                        .map(|i| match (i as usize / cols) % 2 {
                            1 => W::from_u64(u64::MAX),
                            _ => W::from_u64(i.wrapping_mul(0x9E37_79B9_7F4A_7C15)),
                        })
                        .collect();
                    let secrets = derive_secrets(&g, base, version, scheme);
                    let tags = encrypt_tags(&g, &pt, &layout, version, scheme);
                    for (i, &tag) in tags.iter().enumerate() {
                        let e_t = Fq::new(g.tag_pad(layout.row_addr(i), version));
                        assert_eq!(
                            tag,
                            horner_tag(&pt[i * cols..(i + 1) * cols], &secrets) - e_t,
                            "u{} {scheme:?} cols {cols} row {i}",
                            W::BITS
                        );
                    }
                    let ct = encrypt_elements(&g, &pt, &layout, version).unwrap();
                    let table =
                        EncryptedTable::from_parts(layout, RegionId(0), version, ct, Some(tags));
                    let tag_bytes = table
                        .tags()
                        .unwrap()
                        .iter()
                        .flat_map(|t| t.value().to_le_bytes());
                    for b in table.ciphertext_bytes().into_iter().chain(tag_bytes) {
                        *digest = (*digest ^ u64::from(b)).wrapping_mul(0x0100_0000_01B3);
                    }
                }
            }
        }
        let mut digest = 0xCBF2_9CE4_8422_2325u64;
        check::<u8>(&mut digest);
        check::<u16>(&mut digest);
        check::<u32>(&mut digest);
        check::<u64>(&mut digest);
        assert_eq!(digest, 0x7EA8_09B7_78EB_F7A5, "{digest:#018x}");
    }

    proptest! {
        #[test]
        fn round_trip_random_u32(
            pt in proptest::collection::vec(any::<u32>(), 12),
            base in 0u64..1_000_000,
            version in 1u64..1000,
        ) {
            let g = otp();
            let layout = TableLayout::new::<u32>(base, 3, 4).unwrap();
            let ct = encrypt_elements(&g, &pt, &layout, version).unwrap();
            prop_assert_eq!(decrypt_elements(&g, &ct, &layout, version).unwrap(), pt);
        }

        #[test]
        fn ciphertext_of_zero_is_not_zero(
            base in (0u64..1_000_000).prop_map(|b| b * 4),
            version in 1u64..1000,
        ) {
            // A zero plaintext must not encrypt to zero (pads are dense).
            let g = otp();
            let layout = TableLayout::new::<u32>(base, 2, 8).unwrap();
            let ct = encrypt_elements(&g, &[0u32; 16], &layout, version).unwrap();
            prop_assert!(ct.iter().any(|&c| c != 0));
        }
    }
}
