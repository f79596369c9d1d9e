//! Allocations counted by a std-only counting allocator, per thread: a
//! span with attributes allocates nothing once the span journal has
//! wrapped, and a verified inline `weighted_sum`, and a pipelined packet
//! over a 2-rank `AsyncEndpoint` (whose ranks serve on the counting
//! thread), allocate a pinned number of times — and the inline query a
//! pinned number of bytes — the same at PF 8 and at PF 80, and the same
//! with telemetry compiled in or out. So do an inline row read, verified
//! and plain, an inline `publish` and a re-encryption, and a verified
//! `weighted_sum` over a socket, counted on the thread that calls it and
//! reads its reply.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use secndp::core::net::{NetConfig, TcpEndpoint};
use secndp::core::wire::RemoteNdp;
use secndp::core::{
    AsyncEndpoint, HonestNdp, NdpDevice, SecretKey, TransportConfig, TrustedProcessor,
};
use secndp::telemetry::trace;

thread_local! {
    /// `const`-initialised, so reading it never allocates (the allocator
    /// cannot recurse into itself), and per thread, so tests running in
    /// parallel do not count each other's allocations.
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
    /// The bytes those calls asked for (a `realloc` its new size).
    static BYTES: Cell<u64> = const { Cell::new(0) };
}

/// The system allocator, counting every `alloc`, `alloc_zeroed` and
/// `realloc` of the calling thread, and the bytes each asked for.
struct Counting;

// SAFETY: every call forwards to `System` with the caller's arguments
// unchanged; the counter touches no allocator state.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        // SAFETY: forwarded as received.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        // SAFETY: forwarded as received.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size);
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

fn count(bytes: usize) {
    // `try_with`: a thread's last frees run after its locals are gone.
    let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
    let _ = BYTES.try_with(|n| n.set(n.get() + bytes as u64));
}

/// Allocations `f` makes on this thread.
fn allocs(f: impl FnOnce()) -> u64 {
    allocs_and_bytes(f).0
}

/// Allocations `f` makes on this thread, and the bytes they asked for.
fn allocs_and_bytes(f: impl FnOnce()) -> (u64, u64) {
    let before = (ALLOCS.with(Cell::get), BYTES.with(Cell::get));
    f();
    (
        ALLOCS.with(Cell::get) - before.0,
        BYTES.with(Cell::get) - before.1,
    )
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
    // Six records a span of a recorded trace: two laps of the ring, so
    // every record below overwrites an older one.
    let _recorded = trace::record_trace();
    for _ in 0..=trace::journal().capacity() / 3 {
        four_attribute_span();
    }
    assert_eq!(allocs(|| (0..1_000).for_each(|_| four_attribute_span())), 0);
}

/// Columns of the tables below: 32 `u32`s, a 128-byte row.
const COLS: usize = 32;

/// Allocations of one verified inline `weighted_sum` over PF rows, and
/// their bytes, after one warm-up query has registered its instruments
/// and grown the link's buffers.
fn allocs_per_query(pf: usize) -> (u64, u64) {
    allocs_per_query_over(pf, RemoteNdp::inline(HonestNdp::new()))
}

/// [`allocs_per_query`] over `ndp`.
fn allocs_per_query_over(pf: usize, mut ndp: RemoteNdp<HonestNdp>) -> (u64, u64) {
    const ROWS: usize = 128;
    let mut cpu = TrustedProcessor::new(SecretKey::derive_from_seed(0xA110C));
    let pt: Vec<u32> = (0..ROWS * COLS).map(|x| x as u32).collect();
    let table = cpu.encrypt_table(&pt, ROWS, COLS, 0x4000).unwrap();
    let handle = cpu.publish(&table, &mut ndp).unwrap();
    let idx: Vec<usize> = (0..pf).map(|k| k * 7 % ROWS).collect();
    let w: Vec<u32> = (0..pf as u32).map(|k| k + 1).collect();
    let query = || drop(cpu.weighted_sum(&handle, &ndp, &idx, &w, true).unwrap());
    query();
    let queries = 16;
    let (n, bytes) = allocs_and_bytes(|| (0..queries).for_each(|_| query()));
    assert_eq!(n % queries, 0, "{n} allocations over {queries} queries");
    assert_eq!(bytes % queries, 0, "{bytes} bytes over {queries} queries");
    (n / queries, bytes / queries)
}

/// The two sites, one on each side of the wire, each one row wide:
/// - the query's result, into which the reply's `C_res` is added straight
///   from the reply frame and the processor's pads after it;
/// - the device's own `C_res`, which `HonestNdp` returns as a `Vec`.
///
/// Nothing else allocates: the request is written from the caller's
/// slices into the link's request buffer, the device reads its indices
/// and weights into its host's scratch and writes the reply into the
/// link's reply buffer, and the checksum is checked with the table
/// version's verification key, which the processor built with the table.
/// No span allocates, so telemetry compiled in or out reads the same.
#[test]
fn verified_inline_weighted_sum_allocations_are_pinned() {
    const SITES: u64 = 2;
    assert_eq!(
        (allocs_per_query(8).0, allocs_per_query(80).0),
        (SITES, SITES)
    );
}

/// The bytes of those two sites: a 128-byte row each, at any PF.
#[test]
fn verified_inline_weighted_sum_bytes_are_pinned() {
    let row = (COLS * std::mem::size_of::<u32>()) as u64;
    assert_eq!(
        (allocs_per_query(8).1, allocs_per_query(80).1),
        (2 * row, 2 * row)
    );
}

/// The same query over a socket, to an in-process `NetServer` whose
/// connection thread serves it (and allocates the device's `C_res`) on its
/// own thread. The caller's thread — which also reads the reply off the
/// socket — allocates the query's result, the request frame and the `Arc`
/// it is submitted in, and the reply frame it hands over from its read
/// buffer: four sites, at any PF.
#[test]
fn verified_tcp_weighted_sum_allocations_are_pinned() {
    const SITES: u64 = 4;
    let tcp = |pf| {
        let ep = TcpEndpoint::self_hosted(HonestNdp::new(), NetConfig::default()).unwrap();
        allocs_per_query_over(pf, RemoteNdp::tcp_backed(ep)).0
    };
    assert_eq!((tcp(8), tcp(80)), (SITES, SITES));
}

/// Queries in the pipelined packet.
const QUERIES: usize = 32;

/// Allocations of one verified `QUERIES`-query
/// `weighted_sum_batch_pipelined` over PF rows on a 2-rank
/// `AsyncEndpoint`, after one warm-up packet has registered its
/// instruments.
fn allocs_per_packet(pf: usize) -> u64 {
    const ROWS: usize = 128;
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

/// Each query allocates its result and the device's `C_res`, as inline,
/// plus three sites of a request that can be outstanding: its frame,
/// written from the caller's slices, the `Arc` it is submitted in (the
/// pending table keeps it for a retry) and the reply frame the rank
/// completes it with, which is read where it lies. The pending table
/// itself allocates nothing: it is built with room for twice the window,
/// so the tombstones its churn leaves are always rehashed in place,
/// whatever the hasher's seed. The packet adds its results' `Vec` and its
/// queue of outstanding ids.
#[test]
fn pipelined_packet_allocations_are_pinned() {
    const PER_QUERY: u64 = 5;
    let packet = QUERIES as u64 * PER_QUERY + 2;
    assert_eq!(
        (allocs_per_packet(8), allocs_per_packet(80)),
        (packet, packet)
    );
}

/// Rows of the tables the row reads and the publish below use.
const ROWS: usize = 16;

/// A processor, a published tagged `ROWS × COLS` table on an inline
/// device, and its handle.
fn published() -> (
    TrustedProcessor,
    secndp::core::EncryptedTable<u32>,
    RemoteNdp<HonestNdp>,
    secndp::core::TableHandle,
) {
    let mut cpu = TrustedProcessor::new(SecretKey::derive_from_seed(0xA110E));
    let pt: Vec<u32> = (0..ROWS * COLS).map(|x| x as u32).collect();
    let table = cpu.encrypt_table(&pt, ROWS, COLS, 0x4000).unwrap();
    let mut ndp = RemoteNdp::inline(HonestNdp::new());
    let handle = cpu.publish(&table, &mut ndp).unwrap();
    (cpu, table, ndp, handle)
}

/// Allocations of `op`, and their bytes, per call, after one warm-up call.
fn per_call(mut op: impl FnMut()) -> (u64, u64) {
    op();
    let calls = 16;
    let (n, bytes) = allocs_and_bytes(|| (0..calls).for_each(|_| op()));
    assert_eq!(n % calls, 0, "{n} allocations over {calls} calls");
    assert_eq!(bytes % calls, 0, "{bytes} bytes over {calls} calls");
    (n / calls, bytes / calls)
}

/// A verified row read is a one-row weighted sum: its result and the
/// device's `C_res`, a row each, as for any inline query. A plain one
/// allocates a row three times: the device's copy out of its table, the
/// row copied out of the reply frame, where it lies, and its decryption.
/// The `ReadRow` frame is written into the link's request buffer and its
/// reply into the reply buffer, so neither allocates.
#[test]
fn inline_row_read_allocations_are_pinned() {
    let (cpu, _, ndp, handle) = published();
    let verified = per_call(|| drop(cpu.read_row_verified::<u32, _>(&handle, &ndp, 3).unwrap()));
    let plain = per_call(|| drop(cpu.read_row::<u32, _>(&handle, &ndp, 3).unwrap()));
    let row = (COLS * std::mem::size_of::<u32>()) as u64;
    assert_eq!((verified, plain), ((2, 2 * row), (3, 3 * row)));
}

/// A publish allocates the device's copy of the image and of the tags out
/// of its `Load` frame, which is written straight from the table's
/// ciphertext words and tags into the link's request buffer, at its final
/// size. The link keeps that table-sized frame only when it is no longer
/// than the last `Load`'s: a publish longer than the link's last `Load`
/// (its first, say) allocates its frame, and the link lets it go; a table
/// re-published at its size reuses the last frame's room. The `Ack` lands
/// in the link's reply buffer.
#[test]
fn inline_publish_allocations_are_pinned() {
    let (cpu, table, mut ndp, _) = published();
    let again = per_call(|| {
        cpu.publish(&table, &mut ndp).unwrap();
    });
    // A link whose last `Load` was smaller, and whose device's table map
    // already has room.
    let mut grown = RemoteNdp::inline(HonestNdp::new());
    grown.load(0x100, vec![0; 64], 64, None).unwrap();
    let first = allocs_and_bytes(|| {
        cpu.publish(&table, &mut grown).unwrap();
    });
    let image = (ROWS * COLS * std::mem::size_of::<u32>()) as u64;
    let tags = (ROWS * 16) as u64;
    // Header, tag, address, row bytes, image length, tags flag and count.
    let frame = 17 + 1 + 8 + 4 + 4 + image + 1 + 4 + tags;
    assert_eq!(
        (first, again),
        ((3, image + tags + frame), (2, image + tags))
    );
}

/// Re-encrypting the tagged table allocates its ciphertext, its tags and
/// its verification key's two vectors — the checksum secret and the power
/// table — and nothing per pad window or row: the pads stream through the
/// cipher a window at a time on the stack, and the region's held key is
/// replaced in place.
#[test]
fn inline_reencrypt_allocations_are_pinned() {
    let (mut cpu, mut table, _, _) = published();
    let pt: Vec<u32> = (0..ROWS * COLS).map(|x| 3 * x as u32).collect();
    let reencrypt = per_call(|| {
        table = cpu.reencrypt_table(&table, &pt).unwrap();
    });
    let image = (ROWS * COLS * std::mem::size_of::<u32>()) as u64;
    let tags = (ROWS * 16) as u64;
    let key = 16 + (COLS * 16) as u64;
    assert_eq!(reencrypt, (4, image + tags + key));
}
