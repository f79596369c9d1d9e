//! Linear modular checksums over 𝔽_q (Algorithm 2 and the Appendix-D
//! variant, Algorithm 8).
//!
//! The checksum of a row `Pᵢ = (P_{i,0}, …, P_{i,m−1})` is the polynomial
//! `Tᵢ = Σ_j P_{i,j} · s^(m−j) mod q` evaluated at a secret point `s`
//! derived from the block cipher (`E(K, 01 ‖ paddr(P) ‖ v)`). Two properties
//! make it the right MAC for SecNDP:
//!
//! - **Almost-universality**: a forger who does not know `s` succeeds with
//!   probability at most `m/q` (a degree-`m` polynomial has at most `m`
//!   roots) — Theorem A.4.
//! - **Linearity**: `h(Σ aₖ Pₖ) = Σ aₖ h(Pₖ)`, so the NDP can combine
//!   *encrypted* tags with the same weights it applies to data.
//!
//! Appendix D's Algorithm 8 strengthens the bound to `m/(cnt_s · q)` by
//! using `cnt_s` independent secrets round-robin across coefficients, which
//! divides the polynomial degree per secret. The paper slices the secrets
//! out of one cipher block; since our `w_t = 127` fills the block, we derive
//! each extra secret from its own cipher call, tweaking the version field's
//! top byte (documented substitution — the secrets stay independent
//! pseudo-random values, which is all the proof uses).

use secndp_arith::mersenne::{Fq, WideAcc};
use secndp_arith::ring::RingWord;
use secndp_cipher::aes::BlockCipher;
use secndp_cipher::otp::{Domain, OtpGenerator, PadPlanner, PadRange};

/// Which checksum construction to use for verification tags.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum ChecksumScheme {
    /// Algorithm 2: a single secret `s`, forgery bound `m/q`.
    #[default]
    SingleS,
    /// Algorithm 8: `cnt` secrets used round-robin, forgery bound
    /// `m/(cnt · q)`.
    MultiS {
        /// Number of independent secrets (`cnt_s` in the paper).
        cnt: usize,
    },
}

impl ChecksumScheme {
    /// Number of secret points this scheme evaluates at.
    pub fn num_secrets(self) -> usize {
        match self {
            ChecksumScheme::SingleS => 1,
            ChecksumScheme::MultiS { cnt } => cnt.max(1),
        }
    }

    /// The forgery probability bound `m / (cnt_s · q)` numerator scale —
    /// i.e. the effective polynomial degree for a row of `m` columns.
    pub fn effective_degree(self, m: usize) -> usize {
        m.div_ceil(self.num_secrets())
    }

    /// Stable scheme name for telemetry and audit records.
    pub fn name(self) -> &'static str {
        match self {
            ChecksumScheme::SingleS => "single_s",
            ChecksumScheme::MultiS { .. } => "multi_s",
        }
    }
}

/// Derives the checksum secrets for a table at `table_addr` under `version`.
///
/// Secret `k` is the first 127 bits of
/// `E(K, 01 ‖ table_addr ‖ (version | k·2⁵⁶))`; `k = 0` reproduces
/// Algorithm 2's `s` exactly.
///
/// # Panics
///
/// Panics if `version` uses the top byte (reserved for the secret index).
pub fn derive_secrets<C: BlockCipher>(
    otp: &OtpGenerator<C>,
    table_addr: u64,
    version: u64,
    scheme: ChecksumScheme,
) -> Vec<Fq> {
    assert_eq!(
        version >> 56,
        0,
        "top version byte reserved for multi-s index"
    );
    (0..scheme.num_secrets())
        .map(|k| {
            let tweaked = version | ((k as u64) << 56);
            Fq::new(otp.checksum_secret(table_addr, tweaked))
        })
        .collect()
}

/// Plans the cipher blocks behind [`derive_secrets`] on a [`PadPlanner`]
/// without executing them, so secret derivation can share one batched
/// (and pad-cache-probed) `execute` with the query's data and tag pads.
///
/// Returns one [`PadRange`] per secret; pass them to [`secrets_from_plan`]
/// after the planner has executed.
///
/// # Panics
///
/// Panics if `version` uses the top byte (reserved for the secret index).
pub fn plan_secrets(
    planner: &mut PadPlanner,
    table_addr: u64,
    version: u64,
    scheme: ChecksumScheme,
) -> Vec<PadRange> {
    assert_eq!(
        version >> 56,
        0,
        "top version byte reserved for multi-s index"
    );
    (0..scheme.num_secrets())
        .map(|k| {
            let tweaked = version | ((k as u64) << 56);
            planner.request_block(Domain::ChecksumSecret, table_addr, tweaked)
        })
        .collect()
}

/// Resolves the secrets planned by [`plan_secrets`] from an executed
/// planner. Produces exactly the same field elements as [`derive_secrets`]
/// for the same `(table_addr, version, scheme)`.
pub fn secrets_from_plan(planner: &PadPlanner, ranges: &[PadRange]) -> Vec<Fq> {
    ranges
        .iter()
        .map(|r| Fq::new(planner.pad_first_127_bits(r)))
        .collect()
}

/// The power table of an `m`-column checksum: `powers[j]` is the field
/// element coefficient `j` is multiplied by, `s^(m−j)` for one secret and
/// `s_{(m−j) mod cnt}^{⌊(m−j)/cnt⌋}` for Algorithm 8's `cnt`. It depends on
/// the table and version alone, so a table's tags share one.
///
/// Built from the constant end with at most `m` multiplications: the power
/// for exponent index `e = m − j` is the one for `e − cnt` (1 past the
/// end) times `s_{e mod cnt}`, and those for `e < cnt` are 1.
///
/// # Panics
///
/// Panics if `secrets` is empty.
pub fn checksum_powers(secrets: &[Fq], m: usize) -> Vec<Fq> {
    assert!(!secrets.is_empty(), "need at least one checksum secret");
    let cnt = secrets.len();
    let mut powers = vec![Fq::ONE; m];
    // `j` walks down from `e = cnt`, the first index whose power is not 1;
    // `r` is `e mod cnt`, kept without a division.
    let mut r = 0;
    for j in (0..(m + 1).saturating_sub(cnt)).rev() {
        powers[j] = powers.get(j + cnt).copied().unwrap_or(Fq::ONE) * secrets[r];
        r = if r + 1 == cnt { 0 } else { r + 1 };
    }
    powers
}

/// Computes the row checksum `Tᵢ` (Algorithm 2 for one secret, Algorithm 8
/// for several): the dot product of the row with its
/// [`checksum_powers`].
///
/// Elements are embedded into 𝔽_q as their *unsigned* residues — the same
/// convention Theorem A.2's overflow analysis uses.
///
/// # Panics
///
/// Panics if `secrets` is empty.
pub fn row_checksum<W: RingWord>(row: &[W], secrets: &[Fq]) -> Fq {
    WideAcc::dot(&checksum_powers(secrets, row.len()), row)
}

/// Weighted combination of checksums: `Σₖ aₖ · Tₖ mod q` with weights
/// embedded as unsigned residues. This is what the verification engine
/// computes on the reconstructed tags (Alg 5 line 14/15 shape).
pub fn combine_weighted<W: RingWord>(weights: &[W], tags: &[Fq]) -> Fq {
    debug_assert_eq!(weights.len(), tags.len());
    WideAcc::dot(tags, weights)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use secndp_arith::ring::weighted_sum;

    use secndp_cipher::aes::Aes128;

    fn otp() -> OtpGenerator<Aes128> {
        OtpGenerator::new(Aes128::new(&[0x42; 16]))
    }

    #[test]
    fn single_s_matches_naive_polynomial() {
        let row = [3u32, 1, 4, 1, 5];
        let s = Fq::new(0xdead_beef_cafe);
        let m = row.len() as u128;
        let naive: Fq = row
            .iter()
            .enumerate()
            .map(|(j, &p)| Fq::new(p as u128) * s.pow(m - j as u128))
            .sum();
        assert_eq!(row_checksum(&row, &[s]), naive);
    }

    /// Algorithm 8 written out: coefficient `j` times
    /// `s_{(m−j) mod cnt}^{⌊(m−j)/cnt⌋}`, one `pow` per coefficient.
    fn alg8_naive<W: RingWord>(row: &[W], secrets: &[Fq]) -> Fq {
        let (m, cnt) = (row.len(), secrets.len());
        row.iter()
            .enumerate()
            .map(|(j, &p)| {
                let e = m - j;
                Fq::new(p.as_u128()) * secrets[e % cnt].pow((e / cnt) as u128)
            })
            .sum()
    }

    #[test]
    fn multi_s_matches_alg8_formula() {
        let row = [7u32, 11, 13, 17, 19, 23];
        let secrets = [Fq::new(123), Fq::new(456), Fq::new(789)];
        assert_eq!(row_checksum(&row, &secrets), alg8_naive(&row, &secrets));
        // Every secret count against every row length around it, with
        // full-width secrets and words.
        for cnt in [1usize, 2, 3, 5, 8] {
            let secrets: Vec<Fq> = (0..cnt as u128)
                .map(|k| Fq::new((u128::MAX / (k + 3)) ^ 0x9E37_79B9_7F4A_7C15))
                .collect();
            for m in [1, cnt - 1, cnt, 31, 32, 33, 257] {
                let row: Vec<u64> = (0..m as u64)
                    .map(|j| j.wrapping_mul(0xD134_2543_DE82_EF95) | (j & 1) << 63)
                    .collect();
                assert_eq!(
                    row_checksum(&row, &secrets),
                    alg8_naive(&row, &secrets),
                    "cnt {cnt} m {m}"
                );
            }
        }
    }

    /// One secret used round-robin is Algorithm 2: the same secret, the
    /// same power table, the same checksum and the same tags.
    #[test]
    fn multi_s_with_one_secret_is_single_s() {
        let g = otp();
        let multi = ChecksumScheme::MultiS { cnt: 1 };
        let secrets = derive_secrets(&g, 0x700, 5, multi);
        assert_eq!(
            secrets,
            derive_secrets(&g, 0x700, 5, ChecksumScheme::SingleS)
        );
        let row: Vec<u16> = (0..33).map(|j| j * 1999).collect();
        assert_eq!(
            checksum_powers(&secrets, 33),
            (0..33).map(|j| secrets[0].pow(33 - j)).collect::<Vec<_>>()
        );
        assert_eq!(
            row_checksum(&row, &secrets),
            alg8_naive(&row, &[secrets[0]])
        );
        let layout = crate::layout::TableLayout::new::<u16>(0x700, 3, 11).unwrap();
        assert_eq!(
            crate::encrypt::encrypt_tags(&g, &row, &layout, 5, multi),
            crate::encrypt::encrypt_tags(&g, &row, &layout, 5, ChecksumScheme::SingleS)
        );
    }

    #[test]
    fn secrets_differ_per_index_address_version() {
        let g = otp();
        let multi = derive_secrets(&g, 0x100, 3, ChecksumScheme::MultiS { cnt: 3 });
        assert_eq!(multi.len(), 3);
        assert_ne!(multi[0], multi[1]);
        assert_ne!(multi[1], multi[2]);
        let single = derive_secrets(&g, 0x100, 3, ChecksumScheme::SingleS);
        // k = 0 of multi-s reproduces Algorithm 2's secret.
        assert_eq!(single[0], multi[0]);
        assert_ne!(
            derive_secrets(&g, 0x200, 3, ChecksumScheme::SingleS),
            single
        );
        assert_ne!(
            derive_secrets(&g, 0x100, 4, ChecksumScheme::SingleS),
            single
        );
    }

    #[test]
    #[should_panic(expected = "reserved")]
    fn huge_version_rejected() {
        derive_secrets(&otp(), 0, 1 << 60, ChecksumScheme::SingleS);
    }

    #[test]
    fn planned_secrets_match_derive_secrets() {
        let g = otp();
        for scheme in [ChecksumScheme::SingleS, ChecksumScheme::MultiS { cnt: 3 }] {
            let mut p = PadPlanner::new();
            let ranges = plan_secrets(&mut p, 0x3000, 9, scheme);
            p.execute(g.cipher());
            assert_eq!(
                secrets_from_plan(&p, &ranges),
                derive_secrets(&g, 0x3000, 9, scheme)
            );
        }
    }

    #[test]
    #[should_panic(expected = "reserved")]
    fn plan_secrets_rejects_huge_version() {
        plan_secrets(&mut PadPlanner::new(), 0, 1 << 60, ChecksumScheme::SingleS);
    }

    #[test]
    fn effective_degree_shrinks_with_secrets() {
        assert_eq!(ChecksumScheme::SingleS.effective_degree(1024), 1024);
        assert_eq!(
            ChecksumScheme::MultiS { cnt: 4 }.effective_degree(1024),
            256
        );
    }

    #[test]
    fn trailing_zero_changes_checksum() {
        // Because coefficient j pairs with s^(m−j), appending a zero shifts
        // all powers: h([1]) ≠ h([1, 0]). This defeats length-extension.
        let s = [Fq::new(99999)];
        assert_ne!(row_checksum(&[1u32], &s), row_checksum(&[1u32, 0], &s));
    }

    proptest! {
        /// The linearity property Theorem A.2 relies on:
        /// h(Σ aₖ Pₖ) ≡ Σ aₖ h(Pₖ) whenever no ring overflow occurs.
        /// We test it in the field (no mod-2^wₑ reduction): weighted sums of
        /// small values with small weights never overflow u32.
        #[test]
        fn checksum_commutes_with_weighted_sum(
            rows in proptest::collection::vec(
                proptest::collection::vec(0u32..1000, 8), 1..6),
            weights_raw in proptest::collection::vec(0u32..100, 6),
            s_seed in any::<u128>(),
            cnt in 1usize..4,
        ) {
            let n = rows.len();
            let weights = &weights_raw[..n];
            let secrets: Vec<Fq> = (0..cnt)
                .map(|k| Fq::new(s_seed.wrapping_add(k as u128 * 0x1234_5678_9abc)))
                .collect();
            // Element-wise weighted sum (no overflow: < 6·1000·100 < 2^32).
            let m = rows[0].len();
            let mut res = vec![0u32; m];
            for j in 0..m {
                let col: Vec<u32> = rows.iter().map(|r| r[j]).collect();
                res[j] = weighted_sum(weights, &col);
            }
            let lhs = row_checksum(&res, &secrets);
            let tags: Vec<Fq> = rows.iter().map(|r| row_checksum(r, &secrets)).collect();
            let rhs = combine_weighted(weights, &tags);
            prop_assert_eq!(lhs, rhs);
        }
    }
}
