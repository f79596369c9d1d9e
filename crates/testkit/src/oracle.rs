//! Sign/verify oracles and the MAC forgery game (Algorithms 6/7,
//! Definition A.4).
//!
//! The appendix proves Theorem 2 against a standard MAC adversary who may
//! issue adaptive *sign* queries (`ws-MAC`: run the honest protocol and
//! observe the NDP's response transcript) and *verification* queries
//! (`ws-Verify`: submit an arbitrary response transcript and learn
//! pass/fail). The adversary wins by making a transcript that was never
//! produced by a sign query pass verification.
//!
//! [`WsOracles`] packages exactly that interface around a
//! [`TrustedProcessor`] and an honest device, and
//! [`forgery_game`] runs a configurable randomized adversary against it.
//! The expected forgery probability for our parameters is
//! `m·|Q_v| / q ≈ 2⁻¹²⁰` — the game asserts zero successes, which a
//! correct implementation makes astronomically certain, while common
//! implementation bugs (unkeyed checksums, tags not bound to rows, sign
//! errors in reconstruction) produce successes immediately.

use secndp_arith::mersenne::Fq;
use secndp_arith::ring::RingWord;
use secndp_cipher::aes::BlockCipher;
use secndp_core::device::{HonestNdp, NdpDevice, NdpResponse};
use secndp_core::error::Error;
use secndp_core::fault::SplitMix64;
use secndp_core::protocol::{TableHandle, TrustedProcessor};

/// The sign and verification oracles of Algorithms 6 and 7, specialized to
/// one published table and a fixed query shape (the appendix likewise fixes
/// the index/weight sequences).
pub struct WsOracles<'a, W, C: BlockCipher> {
    cpu: &'a TrustedProcessor<C>,
    device: &'a HonestNdp,
    handle: TableHandle,
    indices: Vec<usize>,
    weights: Vec<W>,
}

impl<'a, W: RingWord, C: BlockCipher> WsOracles<'a, W, C> {
    /// Builds the oracle pair for `handle` with the fixed query
    /// `(indices, weights)`.
    pub fn new(
        cpu: &'a TrustedProcessor<C>,
        device: &'a HonestNdp,
        handle: TableHandle,
        indices: Vec<usize>,
        weights: Vec<W>,
    ) -> Self {
        Self {
            cpu,
            device,
            handle,
            indices,
            weights,
        }
    }

    /// `ws-MAC` (Algorithm 6): runs the honest protocol and returns the
    /// NDP's response transcript `(C_res…, C_T_res)`.
    ///
    /// # Errors
    ///
    /// Propagates protocol errors.
    pub fn sign(&self) -> Result<NdpResponse<W>, Error> {
        self.device.weighted_sum::<W>(
            self.handle.layout().base_addr(),
            &self.indices,
            &self.weights,
            true,
        )
    }

    /// `ws-Verify` (Algorithm 7): submits a transcript and returns whether
    /// verification passes.
    pub fn verify(&self, transcript: &NdpResponse<W>) -> bool {
        self.cpu
            .reconstruct_response(&self.handle, &self.indices, &self.weights, transcript, true)
            .is_ok()
    }
}

/// Outcome of a forgery game.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GameOutcome {
    /// Verification queries issued (`|Q_v|`).
    pub verify_queries: u64,
    /// Forgeries accepted (should be zero).
    pub forgeries_accepted: u64,
}

/// Runs a randomized MAC adversary: starting from one honest transcript,
/// it mutates results and tags in the ways real Trojans would (bit flips,
/// element swaps, tag offsets, fresh random tags) and submits each mutant
/// to the verification oracle. Returns the number of accepted forgeries —
/// zero for a sound scheme.
pub fn forgery_game<W: RingWord, C: BlockCipher>(
    oracles: &WsOracles<'_, W, C>,
    trials: u64,
    seed: u64,
) -> Result<GameOutcome, Error> {
    let honest = oracles.sign()?;
    let mut rng = SplitMix64::new(seed);
    let mut next = move || rng.next_u64();
    let mut accepted = 0u64;
    for trial in 0..trials {
        let mut mutant = honest.clone();
        match trial % 4 {
            0 => {
                // Flip a random bit of a random result element.
                let i = (next() as usize) % mutant.c_res.len();
                let bit = next() as u32 % W::BITS;
                let v = mutant.c_res[i].as_u64() ^ (1u64 << bit);
                mutant.c_res[i] = W::from_u64(v);
            }
            1 => {
                // Swap two result elements.
                let n = mutant.c_res.len();
                let (i, j) = ((next() as usize) % n, (next() as usize) % n);
                mutant.c_res.swap(i, j.max(1).min(n - 1));
                if mutant.c_res == honest.c_res {
                    // Degenerate swap; force a change.
                    mutant.c_res[0] = mutant.c_res[0].wadd(W::ONE);
                }
            }
            2 => {
                // Shift the tag by a random field element.
                let t = mutant.c_t_res.unwrap_or(Fq::ZERO);
                mutant.c_t_res = Some(t + Fq::new(next() as u128 | 1));
            }
            _ => {
                // Random result + random tag (blind forgery).
                for x in &mut mutant.c_res {
                    *x = W::from_u64(next());
                }
                mutant.c_t_res = Some(Fq::new(((next() as u128) << 64) | next() as u128));
            }
        }
        if mutant == honest {
            continue;
        }
        if oracles.verify(&mutant) {
            accepted += 1;
        }
    }
    Ok(GameOutcome {
        verify_queries: trials,
        forgeries_accepted: accepted,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use secndp_core::keys::SecretKey;

    fn setup() -> (TrustedProcessor, HonestNdp, TableHandle) {
        let mut cpu = TrustedProcessor::new(SecretKey::from_bytes([0x31; 16]));
        let mut ndp = HonestNdp::new();
        let pt: Vec<u32> = (0..256).map(|x| x * 5 + 3).collect();
        let table = cpu.encrypt_table(&pt, 32, 8, 0x1000).unwrap();
        let handle = cpu.publish(&table, &mut ndp).unwrap();
        (cpu, ndp, handle)
    }

    #[test]
    fn honest_transcript_verifies() {
        let (cpu, ndp, handle) = setup();
        let oracles = WsOracles::new(&cpu, &ndp, handle, vec![0, 7, 21], vec![1u32, 2, 3]);
        let t = oracles.sign().unwrap();
        assert!(oracles.verify(&t));
    }

    #[test]
    fn replayed_transcript_for_other_weights_fails() {
        // A transcript signed for weights (1,2,3) must not verify under
        // weights (3,2,1) — the tag binds the whole linear combination.
        let (cpu, ndp, handle) = setup();
        let o1 = WsOracles::new(&cpu, &ndp, handle, vec![0, 7, 21], vec![1u32, 2, 3]);
        let o2 = WsOracles::new(&cpu, &ndp, handle, vec![0, 7, 21], vec![3u32, 2, 1]);
        let t = o1.sign().unwrap();
        assert!(!o2.verify(&t));
        // Nor under a different index set.
        let o3 = WsOracles::new(&cpu, &ndp, handle, vec![0, 7, 22], vec![1u32, 2, 3]);
        assert!(!o3.verify(&t));
    }

    #[test]
    fn forgery_game_accepts_nothing() {
        let (cpu, ndp, handle) = setup();
        let oracles = WsOracles::new(
            &cpu,
            &ndp,
            handle,
            vec![1, 2, 3, 4],
            vec![10u32, 20, 30, 40],
        );
        let outcome = forgery_game(&oracles, 2000, 0xBAD5EED).unwrap();
        assert_eq!(outcome.forgeries_accepted, 0, "{outcome:?}");
        assert_eq!(outcome.verify_queries, 2000);
    }

    #[test]
    fn forgery_game_catches_a_broken_verifier() {
        // Sanity check that the game has teeth: with verification skipped
        // (reconstruct_response(…, false)), every mutant "passes".
        let (cpu, ndp, handle) = setup();
        let oracles = WsOracles::new(&cpu, &ndp, handle, vec![0, 1], vec![1u32, 1]);
        let honest = oracles.sign().unwrap();
        let mut mutant = honest.clone();
        mutant.c_res[0] = mutant.c_res[0].wadd(1);
        // Broken verifier = no verification.
        let passes_unverified = cpu
            .reconstruct_response(&handle, &[0, 1], &[1u32, 1], &mutant, false)
            .is_ok();
        assert!(passes_unverified);
        // Real verifier rejects the same mutant.
        assert!(!oracles.verify(&mutant));
    }
}
