//! Concurrency stress tests for the shared pad cache: many threads
//! hammering one `TrustedProcessor` (and therefore one sharded
//! `PadCache`) through `encrypt_blocks_parallel`-sized batches must stay
//! correct (no lost updates, no torn pads), keep eviction accounting
//! sane, and satisfy the probe-accounting invariant
//! `hits + misses == planned pad blocks` across the whole run.

use std::sync::atomic::{AtomicU64, Ordering};
use std::thread;

use secndp::core::{HonestNdp, SecretKey, TrustedProcessor};

const ROWS: usize = 512;
const COLS: usize = 32; // 128 bytes per u32 row = 8 cipher blocks.
const BLOCKS_PER_ROW: u64 = (COLS * 4 / 16) as u64;
const ROWS_PER_QUERY: usize = 256; // 256·8 = 2048 data blocks: the
                                   // parallel-encrypt threshold, so misses
                                   // go through `encrypt_blocks_parallel`.
const THREADS: usize = 8;
const QUERIES_PER_THREAD: usize = 20;

/// One big single-threaded-setup, multi-threaded-query stress run. Kept as
/// the binary's only processor-driving test so the global telemetry
/// counters can be compared 1:1 against the per-cache statistics.
#[test]
fn concurrent_queries_share_one_cache_without_lost_updates() {
    let mut cpu = TrustedProcessor::new(SecretKey::derive_from_seed(0x5712E55));
    // Large enough to admit a query's 2305-block plan (data + tags +
    // secret in one execute), small enough that the 4609-block working set
    // must churn: eviction paths run constantly under contention.
    cpu.set_pad_cache_blocks(4096);
    let mut ndp = HonestNdp::new();
    let pt: Vec<u32> = (0..ROWS * COLS).map(|x| (x % 13) as u32).collect();
    let table = cpu.encrypt_table(&pt, ROWS, COLS, 0x1_0000).unwrap();
    let handle = cpu.publish(&table, &mut ndp).unwrap();

    let s0 = cpu.pad_cache().stats();
    #[cfg(feature = "telemetry")]
    let (g_hits0, g_miss0) = (global_hits().get(), global_misses().get());

    let wrong = AtomicU64::new(0);
    let cpu_ref = &cpu;
    let ndp_ref = &ndp;
    let pt_ref = &pt;
    let handle_ref = &handle;
    thread::scope(|s| {
        for t in 0..THREADS {
            let wrong = &wrong;
            s.spawn(move || {
                for q in 0..QUERIES_PER_THREAD {
                    // Distinct rows per query (odd stride is coprime to
                    // ROWS); every requested pad ref is exactly one cache
                    // probe.
                    let start = (t * 97 + q * 31) % ROWS;
                    let stride = 2 * ((t + q) % 8) + 1;
                    let idx: Vec<usize> = (0..ROWS_PER_QUERY)
                        .map(|j| (start + j * stride) % ROWS)
                        .collect();
                    let weights = vec![1u32; ROWS_PER_QUERY];
                    let res = cpu_ref
                        .weighted_sum(handle_ref, ndp_ref, &idx, &weights, true)
                        .unwrap();
                    for (j, &got) in res.iter().enumerate() {
                        let want: u32 = idx.iter().map(|&i| pt_ref[i * COLS + j]).sum();
                        if got != want {
                            wrong.fetch_add(1, Ordering::Relaxed);
                        }
                    }
                }
            });
        }
    });
    assert_eq!(wrong.load(Ordering::Relaxed), 0, "lost/torn pad updates");

    let s1 = cpu.pad_cache().stats();
    let queries = (THREADS * QUERIES_PER_THREAD) as u64;
    // Per verified query: 256 rows × 8 data blocks + 256 tag blocks + 1
    // checksum secret, all distinct — every requested ref is one probe.
    let per_query = ROWS_PER_QUERY as u64 * BLOCKS_PER_ROW + ROWS_PER_QUERY as u64 + 1;
    let requested_refs = queries * per_query;
    assert_eq!(
        (s1.hits - s0.hits) + (s1.misses - s0.misses),
        requested_refs,
        "every requested pad ref must be exactly one hit or one miss"
    );
    // Eviction accounting: the slab never exceeds capacity, and what was
    // inserted is either still resident or was evicted/invalidated.
    assert!(s1.evictions > s0.evictions, "4096-block cache must churn");
    assert!(cpu.pad_cache().len() <= cpu.pad_cache().capacity_blocks());
    assert_eq!(
        (s1.insertions - s0.insertions) - (s1.evictions - s0.evictions),
        cpu.pad_cache().len() as u64,
        "insertions − evictions must equal resident entries"
    );
    // Every fresh insertion came from a miss; a miss may produce no fresh
    // insertion when two threads miss the same block concurrently (both
    // encrypt it, the second fill is a refresh) or when the entry was
    // evicted-then-refilled. Hence ≤, with equality in the
    // single-threaded case (covered by the cipher crate's unit tests).
    assert!(s1.insertions - s0.insertions <= s1.misses - s0.misses);
    assert!(s1.insertions > s0.insertions);

    // The global exported counters observed the same traffic (this test
    // is the binary's only processor user, so the deltas match exactly).
    #[cfg(feature = "telemetry")]
    {
        assert_eq!(
            (global_hits().get() - g_hits0) + (global_misses().get() - g_miss0),
            requested_refs,
            "secndp_pad_cache_{{hits,misses}}_total must account every ref"
        );
    }
}

#[cfg(feature = "telemetry")]
fn global_hits() -> &'static secndp::telemetry::Counter {
    secndp::telemetry::counter!(
        "secndp_pad_cache_hits_total",
        "Pad-cache probes served from cache."
    )
}

#[cfg(feature = "telemetry")]
fn global_misses() -> &'static secndp::telemetry::Counter {
    secndp::telemetry::counter!(
        "secndp_pad_cache_misses_total",
        "Pad-cache probes that fell through to the cipher."
    )
}

/// Raw cache-level concurrency: interleaved inserts and probes over
/// overlapping key sets never tear a pad — a probe either misses or
/// returns exactly the 16 bytes some thread inserted for that counter.
#[test]
fn concurrent_inserts_never_tear_pads() {
    use secndp::cipher::otp::{CounterBlock, Domain};
    use secndp::cipher::PadCache;

    let cache = PadCache::new(4096);
    let torn = AtomicU64::new(0);
    thread::scope(|s| {
        for t in 0..THREADS as u64 {
            let cache = &cache;
            let torn = &torn;
            s.spawn(move || {
                for round in 0..200u64 {
                    for k in 0..64u64 {
                        // Overlapping address space across threads; the
                        // pad value is a pure function of the counter, so
                        // cross-thread writes agree byte for byte.
                        let addr = ((t * 11 + k) % 128) * 16;
                        let ctr = CounterBlock::new(Domain::Data, addr, 1 + (round % 4));
                        let fill = (addr as u8) ^ (1 + (round % 4)) as u8;
                        cache.insert(ctr, [fill; 16]);
                        if let Some(got) = cache.peek(ctr) {
                            if got != [fill; 16] {
                                torn.fetch_add(1, Ordering::Relaxed);
                            }
                        }
                    }
                }
            });
        }
    });
    assert_eq!(torn.load(Ordering::Relaxed), 0, "torn pad observed");
    assert!(cache.len() <= 4096);
}
