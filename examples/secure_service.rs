//! A SecNDP-backed inference service, end to end: verified pooling over
//! encrypted tables, and a device that turns malicious mid-stream (caught
//! and failed over to an honest replica).
//!
//! Run with: `cargo run --release --example secure_service`

use secndp::core::device::{Tamper, TamperingNdp};
use secndp::core::{Error, HonestNdp, SecretKey, TrustedProcessor};

fn main() {
    // Serve verified queries; survive a Trojan device.
    let pt: Vec<u32> = (0..1024 * 32).map(|x| x % 613).collect();
    let mut cpu = TrustedProcessor::new(SecretKey::derive_from_seed(9));
    let table = cpu.encrypt_table(&pt, 1024, 32, 0x10_0000).unwrap();

    // Primary device develops a Trojan; replica stays honest.
    let mut primary = TamperingNdp::new(Tamper::FlipResultBit { element: 3, bit: 7 });
    let mut replica = HonestNdp::new();
    let h_primary = cpu.publish(&table, &mut primary).unwrap();
    let h_replica = cpu.publish(&table, &mut replica).unwrap();

    let mut served = 0u32;
    let mut failovers = 0u32;
    for q in 0..50usize {
        let idx: Vec<usize> = (0..80).map(|k| (q * 769 + k * 131) % 1024).collect();
        let w = vec![1u32; 80];
        let res = match cpu.weighted_sum(&h_primary, &primary, &idx, &w, true) {
            Ok(r) => r,
            Err(Error::VerificationFailed { .. }) => {
                // Detected: fail over to the replica, verified again.
                failovers += 1;
                cpu.weighted_sum(&h_replica, &replica, &idx, &w, true)
                    .expect("replica must verify")
            }
            Err(e) => panic!("unexpected error: {e}"),
        };
        // Spot-check correctness against plaintext.
        let want: u32 = idx.iter().map(|&i| pt[i * 32]).sum();
        assert_eq!(res[0], want, "query {q} wrong after verification");
        served += 1;
    }
    println!("served {served} queries; {failovers} tampered responses detected and failed over ✓");
}
