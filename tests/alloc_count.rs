//! Allocations counted by a std-only counting allocator, per thread: a
//! span with attributes allocates nothing once the span journal has
//! wrapped, and a verified inline `weighted_sum`, and a pipelined packet
//! over a 2-rank `AsyncEndpoint` (whose ranks serve on the counting
//! thread), allocate a pinned number of times at PF 8 and at PF 80, the
//! same with telemetry compiled in or out.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use secndp::core::wire::RemoteNdp;
use secndp::core::{AsyncEndpoint, HonestNdp, SecretKey, TransportConfig, TrustedProcessor};
use secndp::telemetry::trace;

thread_local! {
    /// `const`-initialised, so reading it never allocates (the allocator
    /// cannot recurse into itself), and per thread, so tests running in
    /// parallel do not count each other's allocations.
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

/// The system allocator, counting every `alloc`, `alloc_zeroed` and
/// `realloc` of the calling thread.
struct Counting;

// SAFETY: every call forwards to `System` with the caller's arguments
// unchanged; the counter touches no allocator state.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        // SAFETY: forwarded as received.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count();
        // SAFETY: forwarded as received.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        // SAFETY: forwarded as received.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: forwarded as received.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static COUNTING: Counting = Counting;

fn count() {
    // `try_with`: a thread's last frees run after its locals are gone.
    let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
}

/// Allocations `f` makes on this thread.
fn allocs(f: impl FnOnce()) -> u64 {
    let before = ALLOCS.with(Cell::get);
    f();
    ALLOCS.with(Cell::get) - before
}

fn four_attribute_span() {
    let mut sp = trace::span("alloc_probe");
    sp.attr_u64("table_addr", 0x4000);
    sp.attr_u64("rows", 80);
    sp.attr_str("mode", "inline");
    sp.attr_u64("version", 1);
}

#[test]
fn a_span_with_attributes_allocates_nothing_once_the_journal_wraps() {
    // Six records a span: two laps of the ring, so every record below
    // overwrites an older one.
    for _ in 0..=trace::journal().capacity() / 3 {
        four_attribute_span();
    }
    assert_eq!(allocs(|| (0..1_000).for_each(|_| four_attribute_span())), 0);
}

/// Allocations of one verified inline `weighted_sum` over PF rows, after
/// one warm-up query has registered its instruments.
fn allocs_per_query(pf: usize) -> u64 {
    const ROWS: usize = 128;
    const COLS: usize = 32;
    let mut cpu = TrustedProcessor::new(SecretKey::derive_from_seed(0xA110C));
    let pt: Vec<u32> = (0..ROWS * COLS).map(|x| x as u32).collect();
    let table = cpu.encrypt_table(&pt, ROWS, COLS, 0x4000).unwrap();
    let mut ndp = RemoteNdp::inline(HonestNdp::new());
    let handle = cpu.publish(&table, &mut ndp).unwrap();
    let idx: Vec<usize> = (0..pf).map(|k| k * 7 % ROWS).collect();
    let w: Vec<u32> = (0..pf as u32).map(|k| k + 1).collect();
    let query = || drop(cpu.weighted_sum(&handle, &ndp, &idx, &w, true).unwrap());
    query();
    let queries = 16;
    let n = allocs(|| (0..queries).for_each(|_| query()));
    assert_eq!(n % queries, 0, "{n} allocations over {queries} queries");
    n / queries
}

/// The sites, client then device then client again:
/// - the request's index and weight `Vec<u64>`s, and its frame;
/// - the device decoding that frame: two `Vec<u64>`s, the `Vec<usize>` of
///   indices (collected through a `Result`, so it grows by doubling: 2
///   allocations at PF 8, 6 at PF 80), and the weights as ring words;
/// - the device's `c_res`, its bytes, and the response frame;
/// - the client decoding it: the body bytes and `c_res` as ring words;
/// - `prepare`'s result, `derive_secrets` and `checksum_powers`.
///
/// No span allocates, so telemetry compiled in or out reads the same.
#[test]
fn verified_inline_weighted_sum_allocations_are_pinned() {
    assert_eq!((allocs_per_query(8), allocs_per_query(80)), (16, 20));
}

/// Queries in the pipelined packet.
const QUERIES: usize = 32;

/// Allocations of one verified `QUERIES`-query
/// `weighted_sum_batch_pipelined` over PF rows on a 2-rank
/// `AsyncEndpoint`, after one warm-up packet has registered its
/// instruments.
fn allocs_per_packet(pf: usize) -> u64 {
    const ROWS: usize = 128;
    const COLS: usize = 32;
    let mut cpu = TrustedProcessor::new(SecretKey::derive_from_seed(0xA110D));
    let pt: Vec<u32> = (0..ROWS * COLS).map(|x| x as u32).collect();
    let table = cpu.encrypt_table(&pt, ROWS, COLS, 0x4000).unwrap();
    let mut ep = AsyncEndpoint::new(
        vec![HonestNdp::new(), HonestNdp::new()],
        TransportConfig {
            ranks: 2,
            ..TransportConfig::default()
        },
    );
    let handle = cpu.publish(&table, &mut ep).unwrap();
    let queries: Vec<(Vec<usize>, Vec<u32>)> = (0..QUERIES)
        .map(|q| {
            let idx = (0..pf).map(|k| (q + k * 7) % ROWS).collect();
            (idx, (0..pf as u32).map(|k| k + 1).collect())
        })
        .collect();
    let packet = || {
        let out = cpu.weighted_sum_batch_pipelined(&handle, &ep, &queries, true);
        assert_eq!(out.unwrap().len(), QUERIES);
    };
    packet();
    let packets = 8;
    let n = allocs(|| (0..packets).for_each(|_| packet()));
    assert_eq!(n % packets, 0, "{n} allocations over {packets} packets");
    n / packets
}

/// Each query allocates at the inline sites above, plus the `Arc` its
/// frame is submitted in (the pending table keeps it for a retry); the
/// pending table itself allocates nothing: it is built with room for
/// twice the window, so the tombstones its churn leaves are always
/// rehashed in place, whatever the hasher's seed. The packet adds its
/// results' `Vec` and its queue of outstanding ids.
#[test]
fn pipelined_packet_allocations_are_pinned() {
    let packet = |per_query: u64| QUERIES as u64 * per_query + 2;
    assert_eq!(
        (allocs_per_packet(8), allocs_per_packet(80)),
        (packet(17), packet(21))
    );
}
