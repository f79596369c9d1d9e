//! Seeded property-based differential tests for the arithmetic substrates.
//!
//! A pure-std SplitMix64 generator drives every case, so there is no
//! dependency on an external PRNG crate and a failing run replays exactly:
//! **every assertion message carries the master seed** (override it with
//! `SECNDP_PROP_SEED=<n>` to reproduce a reported failure verbatim).
//!
//! The properties are differential where possible: the ring share
//! arithmetic is checked against plain wrapping integer arithmetic, the
//! quantizers against a plain f32 reference, the field against its own
//! axioms — the same oracle style the chaos harness uses end to end.

use secndp_arith::fixed::{dequantize_i32_slice, quantize_f32_slice, Fixed32};
use secndp_arith::mersenne::{Fq, WideAcc, Q};
use secndp_arith::quant::{Granularity, Quantized8};
use secndp_arith::ring::{
    add_elementwise, sub_elementwise, weighted_sum, words_from_le_bytes, words_to_le_bytes,
    RingWord,
};

/// SplitMix64 — identical constants to `secndp_core::fault::SplitMix64`,
/// re-implemented here because integration tests of `secndp-arith` must
/// not depend on a downstream crate.
struct Rng(u64);

impl Rng {
    fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, bound: u64) -> u64 {
        ((self.next_u64() as u128 * bound as u128) >> 64) as u64
    }

    fn f32_in(&mut self, lo: f32, hi: f32) -> f32 {
        lo + (self.next_u64() as f32 / u64::MAX as f32) * (hi - lo)
    }
}

/// The master seed: fixed by default, overridable for replay.
fn master_seed() -> u64 {
    std::env::var("SECNDP_PROP_SEED")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(0x5EC_4D9)
}

/// Boundary values every width-generic ring property also visits: the
/// overflow edges Theorem A.2's verification argument cares about.
fn boundary_values<W: RingWord>() -> Vec<W> {
    vec![
        W::ZERO,
        W::ONE,
        W::from_u64(u64::MAX), // truncates to the width's MAX
        W::from_u64(u64::MAX - 1),
        W::from_u64(1u64 << (W::BITS - 1)), // sign bit alone
        W::from_u64((1u64 << (W::BITS - 1)).wrapping_sub(1)), // signed MAX
    ]
}

/// Core SecNDP identity, differentially against plain wrapping ops:
/// shares `c = p − e` reconstruct (`c + e = p`), and weighted sums
/// distribute over the shares exactly (Algorithm 4's correctness).
fn ring_share_props<W: RingWord>(seed: u64) {
    let mut rng = Rng(seed ^ W::BITS as u64);
    for case in 0..2000 {
        let n = 1 + rng.below(8) as usize;
        let mut plain: Vec<W> = (0..n).map(|_| W::from_u64(rng.next_u64())).collect();
        // Splice boundary values in so edges are hit every run.
        let boundaries = boundary_values::<W>();
        plain[0] = boundaries[case % boundaries.len()];
        let pads: Vec<W> = (0..n).map(|_| W::from_u64(rng.next_u64())).collect();
        let weights: Vec<W> = (0..n).map(|_| W::from_u64(rng.next_u64())).collect();

        let cipher = sub_elementwise(&plain, &pads);
        assert_eq!(
            add_elementwise(&cipher, &pads),
            plain,
            "share reconstruction failed (seed {seed}, width {}, case {case})",
            W::BITS
        );
        // Σ aᵢcᵢ + Σ aᵢeᵢ = Σ aᵢpᵢ in ℤ(2^wₑ).
        let s_c = weighted_sum(&weights, &cipher);
        let s_e = weighted_sum(&weights, &pads);
        let s_p = weighted_sum(&weights, &plain);
        assert_eq!(
            s_c.wadd(s_e),
            s_p,
            "weighted-sum share linearity failed (seed {seed}, width {}, case {case})",
            W::BITS
        );
        // Byte serialization round-trips.
        assert_eq!(
            words_from_le_bytes::<W>(&words_to_le_bytes(&plain)),
            plain,
            "byte round-trip failed (seed {seed}, width {}, case {case})",
            W::BITS
        );
        // Two's-complement embedding: as_i64 → from_i64 is the identity.
        for &x in &plain {
            assert_eq!(
                W::from_i64(x.as_i64()),
                x,
                "i64 round-trip failed for {x:?} (seed {seed}, width {})",
                W::BITS
            );
        }
    }
}

#[test]
fn ring_share_props_all_widths() {
    let seed = master_seed();
    ring_share_props::<u8>(seed);
    ring_share_props::<u16>(seed);
    ring_share_props::<u32>(seed);
    ring_share_props::<u64>(seed);
}

#[test]
fn fixed_point_round_trips_and_saturates() {
    let seed = master_seed();
    let mut rng = Rng(seed ^ 0xF1);
    for case in 0..4000 {
        // Representable range of Q15.16 is ±32768 with 2⁻¹⁶ resolution.
        let v = rng.f32_in(-30_000.0, 30_000.0) as f64;
        let f = Fixed32::from_f64(v);
        assert!(
            (f.to_f64() - v).abs() <= Fixed32::EPSILON / 2.0 + 1e-9,
            "from/to f64 drifted past half a ulp: {v} → {} (seed {seed}, case {case})",
            f.to_f64()
        );
        // Raw bit-pattern round-trip (the pattern that gets encrypted).
        assert_eq!(
            Fixed32::from_raw(f.raw()),
            f,
            "raw round-trip (seed {seed})"
        );
        // Addition is exact in fixed point.
        let w = rng.f32_in(-1_000.0, 1_000.0) as f64;
        let g = Fixed32::from_f64(w);
        assert_eq!(
            (f + g).raw(),
            f.raw().wrapping_add(g.raw()),
            "addition is raw wrapping add (seed {seed}, case {case})"
        );
    }
    // Saturation boundaries: the extremes clamp instead of wrapping.
    assert_eq!(Fixed32::from_f64(1e12).raw(), i32::MAX);
    assert_eq!(Fixed32::from_f64(-1e12).raw(), i32::MIN);
    let big = Fixed32::from_raw(i32::MAX);
    assert_eq!(
        big.saturating_mul(Fixed32::from_f64(4.0)).raw(),
        i32::MAX,
        "saturating_mul must clamp at +MAX (seed {seed})"
    );
    assert_eq!(
        Fixed32::from_raw(i32::MIN)
            .saturating_mul(Fixed32::from_f64(4.0))
            .raw(),
        i32::MIN,
        "saturating_mul must clamp at −MIN (seed {seed})"
    );
}

#[test]
fn fixed_slice_quantization_round_trips() {
    let seed = master_seed();
    let mut rng = Rng(seed ^ 0x51);
    for case in 0..200 {
        let n = 1 + rng.below(64) as usize;
        let values: Vec<f32> = (0..n).map(|_| rng.f32_in(-100.0, 100.0)).collect();
        let raw = quantize_f32_slice::<16>(&values);
        let back = dequantize_i32_slice::<16>(&raw);
        for (i, (&v, &b)) in values.iter().zip(&back).enumerate() {
            assert!(
                (v - b).abs() <= Fixed32::EPSILON as f32,
                "slice quantization drifted: {v} → {b} at {i} (seed {seed}, case {case})"
            );
        }
    }
}

#[test]
fn quantized8_sls_matches_f32_reference() {
    let seed = master_seed();
    let mut rng = Rng(seed ^ 0x08);
    for granularity in [
        Granularity::RowWise,
        Granularity::ColumnWise,
        Granularity::TableWise,
    ] {
        for case in 0..60 {
            let rows = 2 + rng.below(12) as usize;
            let cols = 1 + rng.below(12) as usize;
            let matrix: Vec<f32> = (0..rows * cols).map(|_| rng.f32_in(-8.0, 8.0)).collect();
            let q = Quantized8::quantize(&matrix, rows, cols, granularity);
            // dequantize_at agrees with the bulk dequantizer.
            let dq = q.dequantize();
            for i in 0..rows {
                for j in 0..cols {
                    assert_eq!(
                        q.dequantize_at(i, j),
                        dq[i * cols + j],
                        "dequantize_at disagrees at ({i},{j}) \
                         (seed {seed}, {granularity:?}, case {case})"
                    );
                }
            }
            // Differential: sls over codes == weighted sum of the
            // *dequantized* matrix (the affine-correction identity the
            // SecNDP offload relies on), within f32 accumulation noise.
            let k = 1 + rng.below(6) as usize;
            let indices: Vec<usize> = (0..k).map(|_| rng.below(rows as u64) as usize).collect();
            let weights: Vec<f32> = (0..k).map(|_| rng.f32_in(-4.0, 4.0)).collect();
            let got = q.sls(&indices, &weights);
            for j in 0..cols {
                let want: f32 = indices
                    .iter()
                    .zip(&weights)
                    .map(|(&i, &a)| a * dq[i * cols + j])
                    .sum();
                let tol = 1e-3 * (1.0 + want.abs());
                assert!(
                    (got[j] - want) / (1.0 + want.abs()) < 1e-3
                        && (got[j] - want).abs() <= tol + 1e-3,
                    "sls diverged from reference at col {j}: {} vs {want} \
                     (seed {seed}, {granularity:?}, case {case})",
                    got[j]
                );
            }
        }
    }
}

#[test]
fn mersenne_field_axioms_hold_on_random_and_boundary_values() {
    let seed = master_seed();
    let mut rng = Rng(seed ^ 0xF9);
    let sample = |rng: &mut Rng| Fq::new(((rng.next_u64() as u128) << 64) | rng.next_u64() as u128);
    let boundaries = [
        Fq::ZERO,
        Fq::ONE,
        Fq::new(Q - 1),
        Fq::new(Q),     // ≡ 0: the modulus itself reduces
        Fq::new(Q + 1), // ≡ 1
        Fq::new(u128::MAX),
    ];
    for case in 0..2000 {
        let a = if case < boundaries.len() {
            boundaries[case]
        } else {
            sample(&mut rng)
        };
        let b = sample(&mut rng);
        let c = sample(&mut rng);
        assert!(
            a.value() < Q,
            "non-canonical value (seed {seed}, case {case})"
        );
        // Distributivity — what tag linearity (Algorithm 5) rests on.
        assert_eq!(
            (a + b) * c,
            a * c + b * c,
            "distributivity failed (seed {seed}, case {case})"
        );
        // Additive inverse through the ring embedding.
        assert_eq!(
            a + (Fq::ZERO - a),
            Fq::ZERO,
            "additive inverse (seed {seed})"
        );
        // Multiplicative inverse for nonzero elements.
        match a.inv() {
            Some(ai) => assert_eq!(a * ai, Fq::ONE, "inverse failed (seed {seed}, case {case})"),
            None => assert!(a.is_zero(), "only zero lacks an inverse (seed {seed})"),
        }
    }
    assert_eq!(Fq::new(Q), Fq::ZERO);
    assert_eq!(
        Fq::new(Q - 1) + Fq::ONE,
        Fq::ZERO,
        "wraparound at q (seed {seed})"
    );
}

/// `WideAcc::dot` — the lanes and the final fold, at every word width —
/// against the generic `Mul` summed term by term, on the edge
/// values where a lazily reduced sum would first go wrong, at lengths 0,
/// 1, 80 (a PF-80 tag sum) and 4 096, and on 2²⁰ maximal terms.
#[test]
fn wide_acc_matches_the_generic_product_sum() {
    let seed = master_seed();
    let mut rng = Rng(seed ^ 0xACC);
    let xs_edge = [
        Fq::ZERO,
        Fq::ONE,
        Fq::new(Q - 1),
        Fq::new(u64::MAX as u128),
        Fq::new(1 << 64),
        Fq::new(1 << 126),
    ];
    let ks_edge = [0, 1, u32::MAX as u64, 1 << 32, u64::MAX];
    fn check<W: RingWord>(xs: &[Fq], ks: &[u64], seed: u64, what: &str) {
        let ks: Vec<W> = ks.iter().map(|&k| W::from_u64(k)).collect();
        let want: Fq = xs
            .iter()
            .zip(&ks)
            .map(|(&x, k)| x * Fq::from(k.as_u64()))
            .sum();
        assert_eq!(
            WideAcc::dot(xs, &ks),
            want,
            "dot over {} {what} terms at width {} (seed {seed})",
            xs.len(),
            W::BITS
        );
    }
    // Every edge pair on its own, then all of them in one sum.
    let (mut all_x, mut all_k) = (Vec::new(), Vec::new());
    for &x in &xs_edge {
        for &k in &ks_edge {
            check::<u64>(&[x], &[k], seed, "edge");
            all_x.push(x);
            all_k.push(k);
        }
    }
    check::<u64>(&all_x, &all_k, seed, "edge");
    for len in [0usize, 1, 80, 4096] {
        for case in 0..8 {
            let pick = |rng: &mut Rng, edge: bool| edge && rng.below(4) == 0;
            let xs: Vec<Fq> = (0..len)
                .map(|_| match pick(&mut rng, case % 2 == 0) {
                    true => xs_edge[rng.below(xs_edge.len() as u64) as usize],
                    false => Fq::new(((rng.next_u64() as u128) << 64) | rng.next_u64() as u128),
                })
                .collect();
            let ks: Vec<u64> = (0..len)
                .map(|_| match pick(&mut rng, case % 2 == 0) {
                    true => ks_edge[rng.below(ks_edge.len() as u64) as usize],
                    false => rng.next_u64(),
                })
                .collect();
            check::<u8>(&xs, &ks, seed, "seeded");
            check::<u16>(&xs, &ks, seed, "seeded");
            check::<u32>(&xs, &ks, seed, "seeded");
            check::<u64>(&xs, &ks, seed, "seeded");
        }
    }
    // 2²⁰ terms of the largest element times the largest word.
    let n = 1 << 20;
    let xs = vec![Fq::new(Q - 1); n];
    let ks = vec![u64::MAX; n];
    check::<u64>(&xs, &ks, seed, "maximal");
}
