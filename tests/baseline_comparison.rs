//! Integration tests contrasting SecNDP with the conventional-TEE
//! substrates (Figure 2 memory protection, the counter integrity tree) and
//! running the appendix's MAC forgery game across crate boundaries.

use secndp::core::{Error, HonestNdp, SecretKey, TrustedProcessor};
use secndp_testkit::baseline::{ProtectedMemory, LINE};
use secndp_testkit::integrity_tree::CounterTree;
use secndp_testkit::oracle::{forgery_game, WsOracles};

#[test]
fn conventional_tee_protects_but_cannot_offload() {
    // The conventional path: every line individually decrypted + verified.
    let mut mem = ProtectedMemory::new([0x77; 16]);
    let rows: Vec<[u8; LINE]> = (0..8u8)
        .map(|r| core::array::from_fn(|i| r.wrapping_mul(31).wrapping_add(i as u8)))
        .collect();
    for (r, line) in rows.iter().enumerate() {
        mem.write_line((r * LINE) as u64, line);
    }
    // The CPU can compute the sum after fetching everything…
    let mut sum = vec![0u8; LINE];
    for r in 0..8 {
        let line = mem.read_line((r * LINE) as u64).unwrap();
        for (s, v) in sum.iter_mut().zip(&line) {
            *s = s.wrapping_add(*v);
        }
    }
    let want: Vec<u8> = (0..LINE)
        .map(|i| rows.iter().fold(0u8, |a, r| a.wrapping_add(r[i])))
        .collect();
    assert_eq!(sum, want);
    // …and tampering/replay are caught per line.
    let snap = mem.snapshot(0).unwrap();
    mem.write_line(0, &[9u8; LINE]);
    mem.replay(0, snap);
    assert!(matches!(
        mem.read_line(0),
        Err(Error::VerificationFailed { .. })
    ));

    // The SecNDP path computes the same sum *without fetching the data*:
    // the device returns one line-sized result for the whole pooling.
    let mut cpu = TrustedProcessor::new(SecretKey::from_bytes([0x77; 16]));
    let mut ndp = HonestNdp::new();
    let flat: Vec<u8> = rows.iter().flatten().copied().collect();
    let table = cpu.encrypt_table(&flat, 8, LINE, 0x9000).unwrap();
    let handle = cpu.publish(&table, &mut ndp).unwrap();
    let res = cpu
        .weighted_sum(&handle, &ndp, &[0, 1, 2, 3, 4, 5, 6, 7], &[1u8; 8], false)
        .unwrap();
    assert_eq!(res, want);
}

#[test]
fn software_versions_and_integrity_tree_agree_on_protection() {
    // The integrity tree protects counters the hardware way; SecNDP's
    // software version manager achieves the same monotonicity invariant.
    let mut tree = CounterTree::new([0x12; 16], 64);
    for _ in 0..5 {
        tree.increment(10).unwrap();
    }
    assert_eq!(tree.read(10).unwrap(), 5);
    // Rollback on the stored counter: detected by the tree.
    tree.raw_counters_mut()[10] = 4;
    assert!(tree.read(10).is_err());

    // The software manager can't be rolled back at all: versions only
    // move forward and live inside the TEE.
    let mut cpu = TrustedProcessor::new(SecretKey::from_bytes([0x12; 16]));
    let pt = vec![1u32, 2, 3, 4];
    let t1 = cpu.encrypt_table(&pt, 2, 2, 0).unwrap();
    let t2 = cpu.reencrypt_table(&t1, &[5, 6, 7, 8]).unwrap();
    assert!(t2.version() > t1.version());
    let mut ndp = HonestNdp::new();
    let h2 = cpu.publish(&t2, &mut ndp).unwrap();
    // Replay t1's ciphertext at t2's address: caught by verification.
    cpu.publish(&t1, &mut ndp).unwrap();
    assert!(matches!(
        cpu.weighted_sum(&h2, &ndp, &[0], &[1u32], true),
        Err(Error::VerificationFailed { .. })
    ));
}

#[test]
fn forgery_game_holds_across_widths() {
    for width_seed in 0u8..2 {
        let mut cpu = TrustedProcessor::new(SecretKey::from_bytes([width_seed; 16]));
        let mut ndp = HonestNdp::new();
        let pt: Vec<u64> = (0..128).map(|x| x * 3 + width_seed as u64).collect();
        let table = cpu.encrypt_table(&pt, 16, 8, 0x5000).unwrap();
        let handle = cpu.publish(&table, &mut ndp).unwrap();
        let oracles = WsOracles::new(&cpu, &ndp, handle, vec![0, 5, 11], vec![2u64, 4, 8]);
        let outcome = forgery_game(&oracles, 500, 42 + width_seed as u64).unwrap();
        assert_eq!(
            outcome.forgeries_accepted, 0,
            "seed {width_seed}: {outcome:?}"
        );
    }
}

#[test]
fn decrypt_table_of_old_version_is_consistent() {
    // Semantics check: a table decrypts correctly with ITS OWN version
    // metadata even after the region has been re-encrypted — it is the
    // device-side replay of stale ciphertext under a NEW handle that
    // verification rejects.
    let mut cpu = TrustedProcessor::new(SecretKey::from_bytes([0x99; 16]));
    let pt = vec![11u32, 22, 33, 44];
    let t1 = cpu.encrypt_table(&pt, 2, 2, 0x40).unwrap();
    assert_eq!(cpu.decrypt_table(&t1).unwrap(), pt);
    let pt2 = vec![55u32, 66, 77, 88];
    let t2 = cpu.reencrypt_table(&t1, &pt2).unwrap();
    assert_eq!(cpu.decrypt_table(&t1).unwrap(), pt);
    assert_eq!(cpu.decrypt_table(&t2).unwrap(), pt2);
}
