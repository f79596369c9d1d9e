//! Property-based adversarial tests: randomized attacks on stored content,
//! responses and tags must never slip past verification.

use proptest::prelude::*;
use secndp::core::device::NdpResponse;
use secndp::core::{Error, HonestNdp, NdpDevice, SecretKey, TrustedProcessor};
use secndp_testkit::{MemoryBackedNdp, TagPlacement};

const ROWS: usize = 8;
const COLS: usize = 8;

fn setup_mem(
    placement: TagPlacement,
    key: u8,
) -> (
    TrustedProcessor,
    MemoryBackedNdp,
    secndp::core::TableHandle,
    Vec<u32>,
) {
    let mut cpu = TrustedProcessor::new(SecretKey::from_bytes([key; 16]));
    let mut dev = MemoryBackedNdp::new(placement);
    let pt: Vec<u32> = (0..(ROWS * COLS) as u32).map(|x| x * 3 + 1).collect();
    let table = cpu.encrypt_table(&pt, ROWS, COLS, 0x10_000).unwrap();
    let handle = cpu.publish(&table, &mut dev).unwrap();
    (cpu, dev, handle, pt)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Differential test: every device implementation — opaque in-memory,
    /// byte-addressable with each tag placement, and wire-framed on the
    /// caller's thread and over a loopback socket — returns the identical
    /// verified result for the same published table.
    #[test]
    fn all_device_implementations_agree(
        idx in proptest::collection::vec(0usize..ROWS, 1..6),
        w_seed in any::<u64>(),
    ) {
        use secndp::core::net::TcpEndpoint;
        use secndp::core::wire::RemoteNdp;
        use secndp::core::EndpointConfig;
        let weights: Vec<u32> = idx
            .iter()
            .enumerate()
            .map(|(k, _)| ((w_seed.wrapping_mul(k as u64 + 1) >> 9) % 1000) as u32)
            .collect();
        let mut cpu = TrustedProcessor::new(SecretKey::from_bytes([0x54; 16]));
        let pt: Vec<u32> = (0..(ROWS * COLS) as u32).map(|x| x % 211).collect();
        let table = cpu.encrypt_table(&pt, ROWS, COLS, 0x4_0000).unwrap();

        let mut honest = HonestNdp::new();
        let h0 = cpu.publish(&table, &mut honest).unwrap();
        let want = cpu.weighted_sum(&h0, &honest, &idx, &weights, true).unwrap();

        let tcp = TcpEndpoint::self_hosted(HonestNdp::new(), EndpointConfig::default()).unwrap();
        for (link, mut remote) in [
            ("inline", RemoteNdp::inline(HonestNdp::new())),
            ("tcp", RemoteNdp::tcp_backed(tcp)),
        ] {
            let h1 = cpu.publish(&table, &mut remote).unwrap();
            prop_assert_eq!(
                &cpu.weighted_sum(&h1, &remote, &idx, &weights, true).unwrap(),
                &want,
                "wire over {} diverged", link
            );
        }

        for placement in [TagPlacement::Inline, TagPlacement::Separate, TagPlacement::SideBand] {
            let mut mem = MemoryBackedNdp::new(placement);
            let h = cpu.publish(&table, &mut mem).unwrap();
            prop_assert_eq!(
                &cpu.weighted_sum(&h, &mem, &idx, &weights, true).unwrap(),
                &want,
                "placement {:?} diverged", placement
            );
        }
    }

    /// Flipping any bit anywhere in the table's memory image either leaves
    /// untouched rows readable or fails verification — it NEVER yields a
    /// wrong verified result.
    #[test]
    fn random_memory_corruption_never_passes_with_wrong_result(
        placement_sel in 0u8..3,
        offset in 0u64..((ROWS * (COLS * 4 + 16)) as u64),
        mask in 1u8..=255,
        idx in proptest::collection::vec(0usize..ROWS, 1..5),
    ) {
        let placement = match placement_sel {
            0 => TagPlacement::Inline,
            1 => TagPlacement::Separate,
            _ => TagPlacement::SideBand,
        };
        let (cpu, mut dev, handle, pt) = setup_mem(placement, 0x51);
        dev.memory_mut().corrupt(0x10_000 + offset, mask);
        let weights = vec![1u32; idx.len()];
        match cpu.weighted_sum(&handle, &dev, &idx, &weights, true) {
            Ok(res) => {
                // Verification passed ⇒ the result must be CORRECT (the
                // flip landed in padding or an untouched row).
                for j in 0..COLS {
                    let want: u32 = idx.iter().map(|&i| pt[i * COLS + j]).sum();
                    prop_assert_eq!(res[j], want, "verified-but-wrong result!");
                }
            }
            Err(Error::VerificationFailed { .. }) => {} // detected: fine
            Err(e) => return Err(TestCaseError::fail(format!("unexpected error {e}"))),
        }
    }

    /// Arbitrary fabricated responses (random result vector + random tag)
    /// never verify.
    #[test]
    fn fabricated_responses_never_verify(
        c_res in proptest::collection::vec(any::<u32>(), COLS),
        tag_lo in any::<u64>(),
        tag_hi in any::<u64>(),
        idx in proptest::collection::vec(0usize..ROWS, 1..5),
    ) {
        let mut cpu = TrustedProcessor::new(SecretKey::from_bytes([0x52; 16]));
        let mut ndp = HonestNdp::new();
        let pt: Vec<u32> = (0..(ROWS * COLS) as u32).collect();
        let table = cpu.encrypt_table(&pt, ROWS, COLS, 0x400).unwrap();
        let handle = cpu.publish(&table, &mut ndp).unwrap();
        let weights = vec![1u32; idx.len()];
        let honest = ndp.weighted_sum::<u32>(0x400, &idx, &weights, true).unwrap();
        let forged = NdpResponse {
            c_res,
            c_t_res: Some(secndp::arith::Fq::new(
                ((tag_hi as u128) << 64) | tag_lo as u128,
            )),
        };
        prop_assume!(forged != honest);
        let out = cpu.reconstruct_response(&handle, &idx, &weights, &forged, true);
        // Either rejected, or (astronomically unlikely, and then harmless)
        // the forgery reconstructs to the honest value.
        if let Ok(res) = out {
            let honest_res = cpu
                .reconstruct_response(&handle, &idx, &weights, &honest, true)
                .unwrap();
            prop_assert_eq!(res, honest_res, "forgery verified with a different result");
        }
    }

    /// Weights are bound by the tag: a transcript signed under one weight
    /// vector never verifies under a different one.
    #[test]
    fn weights_are_bound(
        idx in proptest::collection::vec(0usize..ROWS, 2..5),
        w1 in proptest::collection::vec(1u32..1000, 5),
        w2 in proptest::collection::vec(1u32..1000, 5),
    ) {
        let n = idx.len();
        let (w1, w2) = (&w1[..n], &w2[..n]);
        prop_assume!(w1 != w2);
        let mut cpu = TrustedProcessor::new(SecretKey::from_bytes([0x53; 16]));
        let mut ndp = HonestNdp::new();
        let pt: Vec<u32> = (0..(ROWS * COLS) as u32).map(|x| x % 101).collect();
        let table = cpu.encrypt_table(&pt, ROWS, COLS, 0x800).unwrap();
        let handle = cpu.publish(&table, &mut ndp).unwrap();
        let transcript = ndp.weighted_sum::<u32>(0x800, &idx, w1, true).unwrap();
        let replayed = cpu.reconstruct_response(&handle, &idx, w2, &transcript, true);
        prop_assert!(
            matches!(replayed, Err(Error::VerificationFailed { .. })),
            "transcript replayed across weights: {replayed:?}"
        );
    }
}
