//! The Mersenne prime field 𝔽_q with `q = 2¹²⁷ − 1`.
//!
//! SecNDP's verification tags are linear modular checksums over a prime
//! field (paper §IV-F). The paper chooses `q = 2¹²⁷ − 1` — the largest
//! 127-bit Mersenne prime — "considering both security and performance"
//! (§IV-G): reduction modulo a Mersenne prime is a shift-and-add, so the
//! verification engine is ordinary integer arithmetic plus a fold on
//! overflow (the paper cites Bernstein's hash127 \[13\] for this trick).
//!
//! Elements are kept in canonical form `0 ≤ x < q` inside a `u128`.
//! Multiplication forms the full 254-bit product via 64-bit limbs and folds
//! with `2¹²⁷ ≡ 1 (mod q)`. Sums of elements times machine words — every
//! checksum, tag combination and dot product the protocol computes — go
//! through [`WideAcc`] instead, which folds once at the end.

use crate::ring::RingWord;
use std::fmt;
use std::iter::{Product, Sum};
use std::ops::{Add, AddAssign, Mul, MulAssign, Neg, Sub, SubAssign};

/// The field modulus `q = 2¹²⁷ − 1` (a Mersenne prime, `w_t = 127`).
pub const Q: u128 = (1u128 << 127) - 1;

/// An element of 𝔽_q, stored in canonical form `0 ≤ x < q`.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Default, PartialOrd, Ord)]
pub struct Fq(u128);

impl Fq {
    /// The additive identity.
    pub const ZERO: Fq = Fq(0);
    /// The multiplicative identity.
    pub const ONE: Fq = Fq(1);

    /// Builds an element from any `u128`, reducing modulo `q`.
    pub fn new(v: u128) -> Self {
        Fq(reduce(v))
    }

    /// Builds an element from a signed value (negative values map to
    /// `q − |v|`).
    pub fn from_i64(v: i64) -> Self {
        if v >= 0 {
            Fq(v as u128)
        } else {
            Fq(Q - (v.unsigned_abs() as u128))
        }
    }

    /// The canonical representative in `[0, q)`.
    pub fn value(self) -> u128 {
        self.0
    }

    /// `self^exp` by square-and-multiply.
    pub fn pow(self, mut exp: u128) -> Self {
        let mut base = self;
        let mut acc = Fq::ONE;
        while exp > 0 {
            if exp & 1 == 1 {
                acc *= base;
            }
            base *= base;
            exp >>= 1;
        }
        acc
    }

    /// The multiplicative inverse, or `None` for zero.
    ///
    /// Uses Fermat's little theorem: `x⁻¹ = x^(q−2)`.
    pub fn inv(self) -> Option<Self> {
        if self.0 == 0 {
            None
        } else {
            Some(self.pow(Q - 2))
        }
    }

    /// True iff this is the additive identity.
    pub fn is_zero(self) -> bool {
        self.0 == 0
    }

    /// Inverts every element of `values` with Montgomery's batch-inversion
    /// trick: one field inversion plus `3(n−1)` multiplications.
    ///
    /// Returns `None` if any element is zero (nothing is modified then).
    pub fn batch_inv(values: &mut [Fq]) -> Option<()> {
        if values.iter().any(|v| v.is_zero()) {
            return None;
        }
        // Prefix products: prefix[i] = v0·…·v(i−1).
        let mut prefix = Vec::with_capacity(values.len());
        let mut acc = Fq::ONE;
        for &v in values.iter() {
            prefix.push(acc);
            acc *= v;
        }
        // One inversion of the total product, then peel backwards.
        let mut inv_acc = acc.inv()?;
        for i in (0..values.len()).rev() {
            let orig = values[i];
            values[i] = inv_acc * prefix[i];
            inv_acc *= orig;
        }
        Some(())
    }
}

/// Reduces an arbitrary `u128` modulo `q = 2¹²⁷ − 1`.
#[inline]
fn reduce(x: u128) -> u128 {
    // x = hi·2¹²⁷ + lo ≡ hi + lo, with hi ∈ {0, 1}; one extra fold suffices.
    let folded = (x & Q) + (x >> 127);
    if folded >= Q {
        folded - Q
    } else {
        folded
    }
}

/// Full 128×128 → 256-bit multiply returning `(hi, lo)`.
#[inline]
fn mul_wide(a: u128, b: u128) -> (u128, u128) {
    let (a_hi, a_lo) = ((a >> 64) as u64, a as u64);
    let (b_hi, b_lo) = ((b >> 64) as u64, b as u64);

    let ll = (a_lo as u128) * (b_lo as u128);
    let lh = (a_lo as u128) * (b_hi as u128);
    let hl = (a_hi as u128) * (b_lo as u128);
    let hh = (a_hi as u128) * (b_hi as u128);

    // mid = lh + hl, tracking the carry out of 128 bits.
    let (mid, mid_carry) = lh.overflowing_add(hl);
    let mid_carry = (mid_carry as u128) << 64;

    let (lo, c1) = ll.overflowing_add(mid << 64);
    let hi = hh + (mid >> 64) + mid_carry + c1 as u128;
    (hi, lo)
}

impl Add for Fq {
    type Output = Fq;
    #[inline]
    fn add(self, rhs: Fq) -> Fq {
        // Both operands < q < 2¹²⁷, so the sum fits in u128.
        Fq(reduce(self.0 + rhs.0))
    }
}

impl Sub for Fq {
    type Output = Fq;
    #[inline]
    fn sub(self, rhs: Fq) -> Fq {
        Fq(if self.0 >= rhs.0 {
            self.0 - rhs.0
        } else {
            self.0 + Q - rhs.0
        })
    }
}

impl Neg for Fq {
    type Output = Fq;
    #[inline]
    fn neg(self) -> Fq {
        if self.0 == 0 {
            self
        } else {
            Fq(Q - self.0)
        }
    }
}

impl Mul for Fq {
    type Output = Fq;
    #[inline]
    fn mul(self, rhs: Fq) -> Fq {
        let (hi, lo) = mul_wide(self.0, rhs.0);
        // hi·2¹²⁸ + lo ≡ 2·hi + lo (mod q), since 2¹²⁷ ≡ 1.
        // a, b < 2¹²⁷ ⇒ product < 2²⁵⁴ ⇒ hi < 2¹²⁶ ⇒ 2·hi fits in u128.
        Fq(reduce(reduce(lo) + reduce(hi << 1)))
    }
}

impl AddAssign for Fq {
    fn add_assign(&mut self, rhs: Fq) {
        *self = *self + rhs;
    }
}
impl SubAssign for Fq {
    fn sub_assign(&mut self, rhs: Fq) {
        *self = *self - rhs;
    }
}
impl MulAssign for Fq {
    fn mul_assign(&mut self, rhs: Fq) {
        *self = *self * rhs;
    }
}

impl Sum for Fq {
    fn sum<I: Iterator<Item = Fq>>(iter: I) -> Fq {
        iter.fold(Fq::ZERO, |a, b| a + b)
    }
}

impl Product for Fq {
    fn product<I: Iterator<Item = Fq>>(iter: I) -> Fq {
        iter.fold(Fq::ONE, |a, b| a * b)
    }
}

impl From<u64> for Fq {
    fn from(v: u64) -> Fq {
        Fq(v as u128)
    }
}

impl From<u128> for Fq {
    fn from(v: u128) -> Fq {
        Fq::new(v)
    }
}

impl fmt::Debug for Fq {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Fq({:#x})", self.0)
    }
}

impl fmt::Display for Fq {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

/// Horner evaluation of `Σ_j coeffs[j] · s^(m−j)` — the checksum polynomial
/// shape of Algorithm 2 (coefficient `j` is paired with power `m − j`, so the
/// constant term is never used and a trailing zero row changes the tag).
pub fn horner_high_to_low(coeffs: &[Fq], s: Fq) -> Fq {
    // T = (((c₀·s + c₁)·s + c₂)·s + …)·s — all m coefficients, final ×s.
    let mut acc = Fq::ZERO;
    for &c in coeffs {
        acc = acc * s + c;
    }
    acc * s
}

/// Terms a [`WideAcc`] takes before it must fold: every half-product is
/// below 2⁹⁶, so 2³² of them stay below 2¹²⁸.
const LANE_TERMS: u64 = 1 << 32;

/// [`LANE_TERMS`] as a slice length (a slice on a 32-bit target is shorter).
const LANE_CHUNK: usize = if LANE_TERMS > usize::MAX as u64 {
    usize::MAX
} else {
    LANE_TERMS as usize
};

/// `x · 2^k mod q` for a canonical `x` and `k < 127`: a rotation of the 127
/// bits, since `2¹²⁷ ≡ 1`. The result is canonical too — only `q` itself
/// rotates to all ones.
#[inline]
fn rotate(x: u128, k: u32) -> u128 {
    ((x << k) & Q) | (x >> (127 - k))
}

/// A lazily reduced sum `Σ xⱼ·kⱼ` of field elements `xⱼ` times words `kⱼ`
/// of at most 64 bits, computed by [`WideAcc::dot`] over two slices — row
/// checksums (a dot product of the row with a power table), and the
/// weighted tag sums `Σ aₖ·Tₖ` on both sides of the wire — or fed one term
/// at a time by [`WideAcc::push`], as tag pads stream out of the cipher.
///
/// Each term splits as `x = x₁·2⁶⁴ + x₀` and `k = k₁·2³² + k₀` into four
/// half-products `x₀k₀, x₁k₀, x₀k₁, x₁k₁`, each below 2⁹⁶, which four plain
/// `u128` lanes add without a carry for up to 2³² terms. The lanes are
/// independent, so terms do not wait on each other the way a chain of
/// reduced products does; at the end the lanes are weighted by 2⁰, 2⁶⁴,
/// 2³² and 2⁹⁶ and folded once. A word of at most 32 bits has `k₁ = 0`:
/// [`dot`](Self::dot) over such words keeps and folds only the first two
/// lanes, a choice `W::BITS` makes at compile time, so one routine serves
/// every width. Past 2³² terms the lanes fold and start again — they never
/// wrap.
#[derive(Debug, Default)]
pub struct WideAcc {
    /// `Σx₀k₀, Σx₁k₀, Σx₀k₁, Σx₁k₁`: weights 2⁰, 2⁶⁴, 2³², 2⁹⁶.
    lanes: [u128; 4],
    /// Terms [`push`](Self::push) added since the lanes last folded.
    terms: u64,
    /// What [`push`](Self::push) folded out of full lanes.
    folded: Fq,
}

impl WideAcc {
    /// `Σⱼ xs[j] · ks[j] mod q` over the shorter of the two slices.
    #[inline]
    pub fn dot<W: RingWord>(xs: &[Fq], ks: &[W]) -> Fq {
        let wide = W::BITS > 32;
        // Every slice the protocol passes fits one pass. Handing it to
        // `pass` directly, rather than through the chunk loop that would
        // make that one pass, takes 8 % off a 32-column `u32` row checksum.
        if xs.len().min(ks.len()) <= LANE_CHUNK {
            return Self::pass(xs, ks, wide);
        }
        xs.chunks(LANE_CHUNK)
            .zip(ks.chunks(LANE_CHUNK))
            .map(|(xs, ks)| Self::pass(xs, ks, wide))
            .sum()
    }

    /// One pass of [`dot`](Self::dot) over at most [`LANE_TERMS`] terms.
    #[inline]
    fn pass<W: RingWord>(xs: &[Fq], ks: &[W], wide: bool) -> Fq {
        let mut acc = WideAcc::default();
        for (&x, k) in xs.iter().zip(ks) {
            acc.add(x, k.as_u64(), wide);
        }
        acc.fold(wide)
    }

    /// Adds `x · k` to the running [`sum`](Self::sum): [`dot`](Self::dot)
    /// for terms that arrive one at a time. Folds the lanes every 2³²
    /// terms, as `dot` does.
    #[inline]
    pub fn push(&mut self, x: Fq, k: u64) {
        if self.terms == LANE_TERMS {
            self.folded += self.fold(true);
            (self.lanes, self.terms) = ([0; 4], 0);
        }
        self.add(x, k, true);
        self.terms += 1;
    }

    /// The sum of every term [`push`](Self::push)ed, in 𝔽_q.
    #[inline]
    pub fn sum(&self) -> Fq {
        self.folded + self.fold(true)
    }

    /// Adds the half-products of `x · k`: all four when `wide`, else the
    /// two of `k₀`, `k` being at most 32 bits. At most [`LANE_TERMS`] calls
    /// between folds.
    #[inline]
    fn add(&mut self, x: Fq, k: u64, wide: bool) {
        let (x0, x1) = (x.0 as u64 as u128, x.0 >> 64);
        let k0 = k as u32 as u128;
        self.lanes[0] += x0 * k0;
        self.lanes[1] += x1 * k0;
        if wide {
            let k1 = (k >> 32) as u128;
            self.lanes[2] += x0 * k1;
            self.lanes[3] += x1 * k1;
        }
    }

    /// The lanes' sum in 𝔽_q: each lane reduced, weighted and added —
    /// the last two only when `wide` (otherwise [`add`](Self::add) left
    /// them zero).
    #[inline]
    fn fold(&self, wide: bool) -> Fq {
        let low = Fq(reduce(self.lanes[0])) + Fq(rotate(reduce(self.lanes[1]), 64));
        if !wide {
            return low;
        }
        low + Fq(rotate(reduce(self.lanes[2]), 32)) + Fq(rotate(reduce(self.lanes[3]), 96))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn q_is_the_mersenne_prime() {
        assert_eq!(Q, 170141183460469231731687303715884105727u128);
    }

    #[test]
    fn canonical_reduction() {
        assert_eq!(Fq::new(Q).value(), 0);
        assert_eq!(Fq::new(Q + 5).value(), 5);
        assert_eq!(Fq::new(u128::MAX).value(), u128::MAX - 2 * Q);
    }

    #[test]
    fn add_sub_neg_basics() {
        let a = Fq::new(Q - 1);
        assert_eq!((a + Fq::ONE).value(), 0);
        assert_eq!((Fq::ZERO - Fq::ONE).value(), Q - 1);
        assert_eq!((-Fq::ONE).value(), Q - 1);
        assert_eq!(-Fq::ZERO, Fq::ZERO);
    }

    #[test]
    fn mul_small_and_large() {
        assert_eq!((Fq::new(3) * Fq::new(5)).value(), 15);
        // (q-1)² = q² - 2q + 1 ≡ 1 (mod q): (-1)² = 1.
        assert_eq!((Fq::new(Q - 1) * Fq::new(Q - 1)), Fq::ONE);
        // 2^126 · 2 = 2^127 ≡ 1.
        assert_eq!(Fq::new(1 << 126) * Fq::new(2), Fq::ONE);
    }

    #[test]
    fn mul_wide_known_values() {
        let (hi, lo) = mul_wide(u128::MAX, u128::MAX);
        // (2¹²⁸−1)² = 2²⁵⁶ − 2¹²⁹ + 1.
        assert_eq!(lo, 1);
        assert_eq!(hi, u128::MAX - 1);
        let (hi, lo) = mul_wide(1 << 127, 2);
        assert_eq!((hi, lo), (1, 0));
    }

    #[test]
    fn fermat_inverse() {
        for v in [1u128, 2, 3, 12345, Q - 1, 1 << 126] {
            let x = Fq::new(v);
            assert_eq!(x * x.inv().unwrap(), Fq::ONE, "inverse of {v}");
        }
        assert!(Fq::ZERO.inv().is_none());
    }

    #[test]
    fn pow_edge_cases() {
        assert_eq!(Fq::new(7).pow(0), Fq::ONE);
        assert_eq!(Fq::new(7).pow(1), Fq::new(7));
        // Fermat: x^(q-1) = 1.
        assert_eq!(Fq::new(987654321).pow(Q - 1), Fq::ONE);
    }

    #[test]
    fn from_i64_signed_embedding() {
        assert_eq!(Fq::from_i64(-1), -Fq::ONE);
        assert_eq!(Fq::from_i64(-1) + Fq::ONE, Fq::ZERO);
        assert_eq!(Fq::from_i64(i64::MIN) + Fq::new(1u128 << 63), Fq::ZERO);
    }

    #[test]
    fn horner_matches_naive_power_sum() {
        let coeffs: Vec<Fq> = (1..=5u64).map(Fq::from).collect();
        let s = Fq::new(123456789);
        let m = coeffs.len() as u128;
        let naive: Fq = coeffs
            .iter()
            .enumerate()
            .map(|(j, &c)| c * s.pow(m - j as u128))
            .sum();
        assert_eq!(horner_high_to_low(&coeffs, s), naive);
    }

    #[test]
    fn horner_empty_is_zero() {
        assert_eq!(horner_high_to_low(&[], Fq::new(5)), Fq::ZERO);
    }

    /// Lanes holding 2³² of the largest half-products any `x < 2¹²⁷` and
    /// 64-bit `k` make — the most a fold ever sees — have not wrapped (a
    /// debug build panics on overflow) and fold to the right value: those
    /// of `x = q`, so 0, then plus the one more term they take, and then
    /// `push` folds before it adds another.
    #[test]
    fn wide_acc_folds_at_lane_capacity() {
        let full = (LANE_TERMS - 1) as u128;
        let (x0, x1, k_half) = (u64::MAX as u128, Q >> 64, u32::MAX as u128);
        let lanes = [
            full * x0 * k_half,
            full * x1 * k_half,
            full * x0 * k_half,
            full * x1 * k_half,
        ];
        let full = WideAcc {
            lanes,
            terms: LANE_TERMS - 1,
            folded: Fq::ZERO,
        };
        assert_eq!(full.sum(), Fq::ZERO);
        let (x, k) = (Fq::new(Q - 1), u64::MAX);
        let mut acc = full;
        acc.push(x, k); // the lanes' last term
        assert_eq!((acc.terms, acc.sum()), (LANE_TERMS, x * Fq::from(k)));
        acc.push(x, k); // folds first
        assert_eq!((acc.terms, acc.sum()), (1, x * Fq::from(k) * Fq::new(2)));
    }

    #[test]
    fn rotate_is_multiplication_by_a_power_of_two() {
        for x in [
            0,
            1,
            3,
            Q - 1,
            1 << 126,
            (1 << 64) - 1,
            0x1234_5678_9ABC_DEF0_1357_9BDF,
        ] {
            for k in [32, 64, 96] {
                assert_eq!(Fq(rotate(x, k)), Fq(x) * Fq::new(1 << k), "{x:#x} · 2^{k}");
            }
        }
    }

    #[test]
    fn sum_and_product_iterators() {
        let v = [Fq::new(1), Fq::new(2), Fq::new(3)];
        assert_eq!(v.iter().copied().sum::<Fq>(), Fq::new(6));
        assert_eq!(v.iter().copied().product::<Fq>(), Fq::new(6));
    }

    #[test]
    fn batch_inv_matches_individual() {
        let mut v: Vec<Fq> = (1u64..20).map(Fq::from).collect();
        let expect: Vec<Fq> = v.iter().map(|x| x.inv().unwrap()).collect();
        Fq::batch_inv(&mut v).unwrap();
        assert_eq!(v, expect);
    }

    #[test]
    fn batch_inv_rejects_zero_without_modifying() {
        let mut v = vec![Fq::new(3), Fq::ZERO, Fq::new(7)];
        let orig = v.clone();
        assert!(Fq::batch_inv(&mut v).is_none());
        assert_eq!(v, orig);
        // Empty batch is trivially fine.
        assert!(Fq::batch_inv(&mut []).is_some());
    }

    fn arb_fq() -> impl Strategy<Value = Fq> {
        any::<u128>().prop_map(Fq::new)
    }

    proptest! {
        #[test]
        fn addition_commutes_and_associates(a in arb_fq(), b in arb_fq(), c in arb_fq()) {
            prop_assert_eq!(a + b, b + a);
            prop_assert_eq!((a + b) + c, a + (b + c));
        }

        #[test]
        fn multiplication_commutes_and_associates(a in arb_fq(), b in arb_fq(), c in arb_fq()) {
            prop_assert_eq!(a * b, b * a);
            prop_assert_eq!((a * b) * c, a * (b * c));
        }

        #[test]
        fn distributivity(a in arb_fq(), b in arb_fq(), c in arb_fq()) {
            prop_assert_eq!(a * (b + c), a * b + a * c);
        }

        #[test]
        fn sub_is_add_neg(a in arb_fq(), b in arb_fq()) {
            prop_assert_eq!(a - b, a + (-b));
        }

        #[test]
        fn inverse_round_trip(a in arb_fq()) {
            prop_assume!(!a.is_zero());
            prop_assert_eq!(a * a.inv().unwrap(), Fq::ONE);
        }

        #[test]
        fn reduce_is_canonical(x in any::<u128>()) {
            let r = Fq::new(x).value();
            prop_assert!(r < Q);
            // x and r differ by a multiple of q.
            prop_assert_eq!(x % Q, r % Q);
        }

        /// Checksum linearity (the property Theorem A.2 relies on):
        /// h(a·x + b·y) = a·h(x) + b·h(y) where h is the Horner polynomial.
        #[test]
        fn horner_is_linear(x in proptest::collection::vec(arb_fq(), 1..16),
                            y_seed in any::<u64>(), a in arb_fq(), b in arb_fq(),
                            s in arb_fq()) {
            let y: Vec<Fq> = (0..x.len())
                .map(|i| Fq::new((y_seed as u128).wrapping_mul(i as u128 + 7)))
                .collect();
            let combo: Vec<Fq> = x.iter().zip(&y).map(|(&xi, &yi)| a * xi + b * yi).collect();
            let lhs = horner_high_to_low(&combo, s);
            let rhs = a * horner_high_to_low(&x, s) + b * horner_high_to_low(&y, s);
            prop_assert_eq!(lhs, rhs);
        }

        /// The lazily reduced dot product against one full product per term.
        #[test]
        fn wide_acc_matches_reduced_products(terms in proptest::collection::vec((arb_fq(), any::<u64>()), 0..64)) {
            let (xs, ks): (Vec<Fq>, Vec<u64>) = terms.iter().copied().unzip();
            let want: Fq = terms.iter().map(|&(x, k)| x * Fq::from(k)).sum();
            prop_assert_eq!(WideAcc::dot(&xs, &ks), want);
        }
    }
}
