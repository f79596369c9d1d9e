//! Pad-cache admission on the batch path. A packet's queries are planned
//! and executed one at a time, so the planner's own rule (a *plan* larger
//! than the cache bypasses it) no longer sees the packet; the protocol
//! decides for the packet as a whole, once, and books what it kept out.
//!
//! One test function on purpose: it reads the process-wide
//! `secndp_pad_cache_bypassed_total` counter, which must not see another
//! test's traffic.

use secndp::cipher::PadCacheStats;
use secndp::core::{AsyncEndpoint, EndpointConfig, HonestNdp, SecretKey, TrustedProcessor};

const ROWS: usize = 1024;
const COLS: usize = 32; // 128-byte u32 rows: 8 cipher blocks, block-aligned.
const CACHE_BLOCKS: usize = 4096;

/// `n` queries of `pf` rows each, no row used twice.
fn packet(first_row: usize, n: usize, pf: usize) -> Vec<(Vec<usize>, Vec<u32>)> {
    (0..n)
        .map(|q| {
            let rows = (0..pf).map(|k| first_row + q * pf + k).collect();
            (rows, vec![1u32; pf])
        })
        .collect()
}

/// Blocks a verified packet generates: per row 8 data blocks and a tag
/// block, per query the checksum secret.
fn blocks(packet: &[(Vec<usize>, Vec<u32>)]) -> u64 {
    packet
        .iter()
        .map(|(rows, _)| rows.len() * 9 + 1)
        .sum::<usize>() as u64
}

/// The blocks among them that belong to its rows. The rest are one block,
/// the table's secret, once per query.
fn row_blocks(packet: &[(Vec<usize>, Vec<u32>)]) -> u64 {
    blocks(packet) - packet.len() as u64
}

#[cfg(feature = "telemetry")]
fn bypassed() -> u64 {
    secndp::telemetry::counter!(
        "secndp_pad_cache_bypassed_total",
        "Blocks encrypted beside the pad cache without probe or fill."
    )
    .get()
}

#[cfg(not(feature = "telemetry"))]
fn bypassed() -> u64 {
    0
}

#[test]
fn packet_admission_is_decided_per_packet_and_booked_exactly() {
    let mut cpu = TrustedProcessor::new(SecretKey::derive_from_seed(0xAD317));
    cpu.set_pad_cache_blocks(CACHE_BLOCKS);
    let pt: Vec<u32> = (0..ROWS * COLS).map(|x| (x % 17) as u32).collect();
    let table = cpu.encrypt_table(&pt, ROWS, COLS, 0x2_0000).unwrap();
    let mut ndp = HonestNdp::new();
    let handle = cpu.publish(&table, &mut ndp).unwrap();
    let mut ep = AsyncEndpoint::new(
        vec![HonestNdp::new(), HonestNdp::new()],
        EndpointConfig::default(),
    );
    cpu.publish(&table, &mut ep).unwrap();

    // Both batch entry points; results checked against the plaintext.
    let run = |cpu: &TrustedProcessor, packet: &[(Vec<usize>, Vec<u32>)]| {
        let blocking = cpu.weighted_sum_batch(&handle, &ndp, packet, true).unwrap();
        let pipelined = cpu
            .weighted_sum_batch_pipelined(&handle, &ep, packet, true)
            .unwrap();
        assert_eq!(blocking, pipelined);
        for ((rows, _), got) in packet.iter().zip(&blocking) {
            for (j, &g) in got.iter().enumerate() {
                assert_eq!(g, rows.iter().map(|&i| pt[i * COLS + j]).sum::<u32>());
            }
        }
    };
    let delta = |a: PadCacheStats, b: PadCacheStats| {
        (
            b.hits - a.hits,
            b.misses - a.misses,
            b.insertions - a.insertions,
            b.evictions - a.evictions,
        )
    };

    // Resident pads a scan must leave alone.
    let small = packet(0, 4, 5);
    run(&cpu, &small);
    let resident = cpu.pad_cache().len();
    assert_eq!(resident as u64, row_blocks(&small) + 1);

    // A packet larger than the cache: each of its queries alone would be
    // admitted (91 blocks), the packet is not. Nothing probes, nothing
    // fills, and every block is booked as a bypassed miss — twice, once
    // per entry point.
    let big = packet(100, 64, 10);
    assert!(blocks(&big) > CACHE_BLOCKS as u64);
    let (s0, b0) = (cpu.pad_cache().stats(), bypassed());
    run(&cpu, &big);
    let (s1, b1) = (cpu.pad_cache().stats(), bypassed());
    assert_eq!(delta(s0, s1), (0, 2 * blocks(&big), 0, 0));
    assert_eq!(cpu.pad_cache().len(), resident);
    if cfg!(feature = "telemetry") {
        assert_eq!(b1 - b0, 2 * blocks(&big));
    }

    // A packet that fits probes and fills query by query, exactly as its
    // queries would alone: every block probes; its rows' blocks miss and
    // fill once (the secret is resident, and the second entry point hits
    // throughout); a repeat hits throughout; nothing bypasses.
    let fits = packet(800, 4, 5);
    run(&cpu, &fits);
    let s2 = cpu.pad_cache().stats();
    let fresh = row_blocks(&fits);
    assert_eq!(delta(s1, s2), (2 * blocks(&fits) - fresh, fresh, fresh, 0));
    run(&cpu, &fits);
    let s3 = cpu.pad_cache().stats();
    assert_eq!(delta(s2, s3), (2 * blocks(&fits), 0, 0, 0));
    assert_eq!(bypassed(), b1);

    // A disabled cache counts nothing on either side of the rule.
    cpu.set_pad_cache_blocks(0);
    let s4 = cpu.pad_cache().stats();
    run(&cpu, &big);
    run(&cpu, &fits);
    assert_eq!(cpu.pad_cache().stats(), s4);
    assert_eq!(bypassed(), b1);
}
