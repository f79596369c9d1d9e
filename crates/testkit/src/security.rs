//! Concrete security bounds — Theorems 1 and 2 as executable formulas.
//!
//! The paper bounds the adversary's advantage in terms of system
//! parameters:
//!
//! - **Theorem 1** (encryption):
//!   `Adv_CPA ≤ 2^−w_K + Adv_E00(|Q|′)` with
//!   `|Q|′ = (m·n·wₑ/w_c)·|Q_e|` — for an ideal cipher the residual term
//!   follows the PRP/PRF switching bound `|Q|′² / 2^(w_c+1)`.
//! - **Theorem 2** (verification):
//!   `Adv_MAC ≤ m·|Q_v|/q + |Q_v|·(Adv_E00 + Adv_E01 + Adv_E10)`,
//!   improved to `m/(cnt_s·q)` per verification query by Algorithm 8.
//!
//! §IV-G instantiates this: with `w_t = 127`, `q = 2¹²⁷ − 1` and a
//! 1024-element row, "we can serve 2⁵³ queries without changing key, while
//! maintaining a security level higher than 64 bits". [`MacBound`]
//! reproduces that arithmetic, and tests pin it.
//!
//! All bounds are tracked in log₂ (security "bits") to avoid floating-point
//! underflow at the 2⁻¹²⁰ scale.

use secndp_core::checksum::ChecksumScheme;

/// Adds two probabilities expressed as log₂ (both ≤ 0): `log₂(2^a + 2^b)`.
fn log2_add(a: f64, b: f64) -> f64 {
    let (hi, lo) = if a >= b { (a, b) } else { (b, a) };
    hi + (1.0 + (lo - hi).exp2()).log2()
}

/// System parameters for the encryption bound (Theorem 1).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EncBound {
    /// Key width `w_K` in bits.
    pub key_bits: u32,
    /// Cipher block width `w_c` in bits (128 for AES).
    pub block_bits: u32,
    /// Element width `wₑ` in bits.
    pub elem_bits: u32,
    /// Matrix rows `n`.
    pub rows: u64,
    /// Matrix columns `m`.
    pub cols: u64,
    /// Encryption queries `|Q_e|` the adversary may observe.
    pub enc_queries: u64,
}

impl EncBound {
    /// Cipher invocations the adversary observes:
    /// `|Q|′ = (m·n·wₑ/w_c)·|Q_e|`.
    pub fn cipher_queries(&self) -> f64 {
        (self.rows as f64) * (self.cols as f64) * (self.elem_bits as f64) / (self.block_bits as f64)
            * (self.enc_queries as f64)
    }

    /// log₂ of the total CPA advantage, modelling the block cipher as an
    /// ideal PRP (switching lemma: `|Q|′²/2^(w_c+1)`), capped at 1.
    pub fn advantage_log2(&self) -> f64 {
        let key_guess = -(self.key_bits as f64);
        let q = self.cipher_queries().max(1.0);
        let switching = (2.0 * q.log2() - (self.block_bits as f64 + 1.0)).min(0.0);
        log2_add(key_guess, switching).min(0.0)
    }

    /// Security level in bits: `−log₂(Adv)`.
    pub fn security_bits(&self) -> f64 {
        -self.advantage_log2()
    }
}

/// System parameters for the verification bound (Theorem 2).
///
/// ```
/// use secndp_testkit::security::MacBound;
/// // The paper's §IV-G example: m = 1024, w_t = 127 allows 2^53 queries
/// // while keeping the forgery term at 64-bit security.
/// let budget = MacBound::max_query_budget_log2(1024, 127, 64.0);
/// assert_eq!(budget, 53.0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MacBound {
    /// Tag width `w_t` in bits (`q ≈ 2^w_t`).
    pub tag_bits: u32,
    /// Row width `m` (elements per row).
    pub cols: u64,
    /// Matrix rows `n`.
    pub rows: u64,
    /// Element width `wₑ` in bits.
    pub elem_bits: u32,
    /// Cipher block width `w_c` in bits.
    pub block_bits: u32,
    /// Sign queries `|Q_s|`.
    pub sign_queries: u64,
    /// Verification queries `|Q_v|`.
    pub verify_queries: u64,
    /// Checksum scheme (Algorithm 2 or 8).
    pub scheme: ChecksumScheme,
}

impl MacBound {
    /// The paper's §IV-G configuration: `w_t = 127`, row width `m`, equal
    /// sign/verify budgets of `queries` each, single-`s` checksums.
    pub fn paper_config(cols: u64, queries: u64) -> Self {
        Self {
            tag_bits: 127,
            cols,
            rows: 1 << 20,
            elem_bits: 32,
            block_bits: 128,
            sign_queries: queries,
            verify_queries: queries,
            scheme: ChecksumScheme::SingleS,
        }
    }

    /// log₂ of the information-theoretic forgery term
    /// `m·|Q_v| / (cnt_s·q)`.
    pub fn forgery_term_log2(&self) -> f64 {
        let degree = self.scheme.effective_degree(self.cols as usize) as f64;
        degree.log2() + (self.verify_queries as f64).max(1.0).log2() - self.tag_bits as f64
    }

    /// log₂ of the cipher-distinguishing term
    /// `|Q_v|·(Adv_E00 + Adv_E01 + Adv_E10)` under the switching lemma.
    pub fn cipher_term_log2(&self) -> f64 {
        let q00 = (self.rows * self.cols) as f64 * self.elem_bits as f64 / self.block_bits as f64
            * self.sign_queries as f64;
        let q01 = (self.sign_queries + self.verify_queries) as f64 + 1.0;
        let q10 = self.rows as f64 * (self.sign_queries + self.verify_queries) as f64;
        // Probabilities are capped at 1 (the bound is vacuous beyond the
        // cipher's birthday budget — which the switching lemma makes
        // explicit).
        let adv = |q: f64| (2.0 * q.max(1.0).log2() - (self.block_bits as f64 + 1.0)).min(0.0);
        let inner = log2_add(log2_add(adv(q00), adv(q01)), adv(q10));
        ((self.verify_queries as f64).max(1.0).log2() + inner).min(0.0)
    }

    /// log₂ of the total forgery advantage (Theorem 2), capped at 1.
    pub fn advantage_log2(&self) -> f64 {
        log2_add(self.forgery_term_log2(), self.cipher_term_log2()).min(0.0)
    }

    /// Security level in bits.
    pub fn security_bits(&self) -> f64 {
        -self.advantage_log2()
    }

    /// Largest per-key query budget (sign = verify = `2^k`) that keeps the
    /// *information-theoretic forgery term* above `target_bits` of
    /// security — the quantity the paper's §IV-G example discusses.
    pub fn max_query_budget_log2(cols: u64, tag_bits: u32, target_bits: f64) -> f64 {
        // m·|Q_v|/q ≤ 2^−target  ⇒  log₂|Q_v| ≤ tag_bits − log₂ m − target.
        tag_bits as f64 - (cols as f64).log2() - target_bits
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn log2_add_behaviour() {
        // 2^-10 + 2^-10 = 2^-9.
        assert!((log2_add(-10.0, -10.0) + 9.0).abs() < 1e-12);
        // Dominated by the larger term.
        assert!((log2_add(-10.0, -100.0) + 10.0).abs() < 1e-9);
    }

    #[test]
    fn paper_example_2_53_queries_64_bits() {
        // §IV-G: m = 1024, w_t = 127 ⇒ serving 2⁵³ queries keeps the
        // forgery term at 2^(10+53−127) = 2⁻⁶⁴: "security level higher
        // than 64 bits" (just at the boundary).
        let budget = MacBound::max_query_budget_log2(1024, 127, 64.0);
        assert!((budget - 53.0).abs() < 1e-9, "budget 2^{budget}");
        let b = MacBound {
            verify_queries: 1 << 53,
            sign_queries: 1 << 53,
            ..MacBound::paper_config(1024, 0)
        };
        let f = b.forgery_term_log2();
        assert!((f + 64.0).abs() < 1e-9, "forgery term 2^{f}");
    }

    #[test]
    fn multi_s_buys_security_bits() {
        let single = MacBound::paper_config(1024, 1 << 40);
        let multi = MacBound {
            scheme: ChecksumScheme::MultiS { cnt: 4 },
            ..single
        };
        let gain = single.forgery_term_log2() - multi.forgery_term_log2();
        assert!(
            (gain - 2.0).abs() < 1e-9,
            "cnt=4 should buy 2 bits, got {gain}"
        );
    }

    #[test]
    fn encryption_bound_is_strong_for_paper_params() {
        // A 1 GB table (2^23 rows × 32 cols × 32-bit) encrypted once.
        let b = EncBound {
            key_bits: 128,
            block_bits: 128,
            elem_bits: 32,
            rows: 1 << 23,
            cols: 32,
            enc_queries: 1,
        };
        // |Q|' = 2^26 blocks ⇒ switching term 2^(52−129) = 2^−77;
        // total ≈ 2^−77 (dominates the 2^−128 key guess).
        assert!((b.cipher_queries().log2() - 26.0).abs() < 1e-6);
        let s = b.security_bits();
        assert!((s - 77.0).abs() < 0.1, "security {s} bits");
    }

    #[test]
    fn more_queries_weaker_bound() {
        let few = MacBound::paper_config(1024, 1 << 12);
        let many = MacBound::paper_config(1024, 1 << 20);
        assert!(few.security_bits() > many.security_bits());
        assert!(few.security_bits() > 0.0, "{}", few.security_bits());
        // Past the cipher's birthday budget the bound goes vacuous — the
        // cap keeps it a probability.
        let silly = MacBound::paper_config(1024, 1 << 60);
        assert_eq!(silly.advantage_log2(), 0.0);
        assert!(silly.security_bits() >= 0.0);
    }

    #[test]
    fn wider_rows_weaker_forgery_term() {
        let narrow = MacBound::paper_config(32, 1 << 40);
        let wide = MacBound::paper_config(4096, 1 << 40);
        assert!(narrow.forgery_term_log2() < wide.forgery_term_log2());
    }

    #[test]
    fn total_advantage_includes_both_terms() {
        let b = MacBound::paper_config(1024, 1 << 12);
        assert!(b.advantage_log2() >= b.forgery_term_log2());
        assert!(b.advantage_log2() >= b.cipher_term_log2());
        assert!(b.security_bits() > 0.0, "{}", b.security_bits());
    }
}
