//! Per-layer micro legs: each calls one layer's public functions alone, on
//! fixed inputs, and reports the median of [`REPS`] repetitions. Iteration
//! counts are fixed (scaled only by `--seconds`), so the work is identical
//! on every commit.

use crate::server::ChildServer;
use crate::stats::median;
use crate::workloads::{
    gen_queries, gen_table, sum_request, Env, Shape, BATCH256, FRAME_CTX, SLS_HOT, SLS_SMALL,
    TABLE_ADDR as ADDR, UPDATE,
};
use secndp_arith::mersenne::{horner_high_to_low, Fq};
use secndp_arith::ring;
use secndp_cipher::aes::Block;
use secndp_cipher::cache::DEFAULT_PAD_CACHE_BLOCKS;
use secndp_cipher::{Aes128Fast, BlockCipher, CounterBlock, Domain, PadCache, PadPlanner};
use secndp_core::checksum::{combine_weighted, row_checksum, ChecksumScheme};
use secndp_core::device::{HonestNdp, NdpDevice};
use secndp_core::encrypt::{encrypt_elements, encrypt_tags};
use secndp_core::wire::{self, Request, Response};
use secndp_core::{AsyncEndpoint, NetConfig, SecretKey, TableLayout, TcpEndpoint, TransportConfig};
use secndp_telemetry::trace;
use std::hint::black_box;
use std::time::{Duration, Instant};

const REPS: usize = 7;
const VERSION: u64 = 1;
/// The paper's AES engine (§VI-B, Table II).
pub const PAPER_ENGINE_GBPS: f64 = 111.3;

pub type Values = Vec<(&'static str, f64)>;

struct Legs {
    scale: f64,
    out: Values,
}

impl Legs {
    fn iters(&self, at_full_length: usize) -> usize {
        ((at_full_length as f64 * self.scale) as usize).max(1)
    }

    /// Median nanoseconds per call of `f`.
    fn ns_per_call(&self, at_full_length: usize, mut f: impl FnMut()) -> f64 {
        let iters = self.iters(at_full_length);
        median_ns(|| {
            let t = Instant::now();
            for _ in 0..iters {
                f();
            }
            t.elapsed().as_nanos() as f64 / iters as f64
        })
    }

    fn put(&mut self, name: &'static str, value: f64) {
        self.out.push((name, value));
    }
}

/// Median over the repetitions of the nanoseconds `rep` chose to time.
fn median_ns(mut rep: impl FnMut() -> f64) -> f64 {
    median((0..REPS).map(|_| rep()).collect())
}

fn nanos(d: Duration) -> f64 {
    d.as_nanos() as f64
}

/// Bytes per nanosecond as MB/s (10⁶ bytes).
fn mb_per_s(bytes: usize, ns: f64) -> f64 {
    bytes as f64 / ns * 1e3
}

fn layout(shape: Shape) -> TableLayout {
    TableLayout::new::<u32>(ADDR, shape.rows, shape.cols).expect("fixed shape is valid")
}

/// An honest device holding a table of `shape` with arbitrary contents:
/// the device computes over whatever bytes it stores.
fn loaded_device(shape: Shape) -> HonestNdp {
    let words = gen_table(1, shape, 9);
    let tags = (0..shape.rows as u128).map(Fq::new).collect();
    let mut dev = HonestNdp::new();
    dev.load(
        ADDR,
        ring::words_to_le_bytes(&words),
        shape.cols * 4,
        Some(tags),
    )
    .expect("fixed shape loads");
    dev
}

fn read_row_request(row: u64) -> Request {
    Request::ReadRow {
        table_addr: ADDR,
        row,
    }
}

fn load_request() -> Request {
    Request::Load {
        table_addr: ADDR,
        row_bytes: (UPDATE.cols * 4) as u32,
        ciphertext: ring::words_to_le_bytes(&gen_table(1, UPDATE, 9)),
        tags: Some((0..UPDATE.rows as u128).collect()),
    }
}

fn cipher_legs(l: &mut Legs) {
    let key = SecretKey::from_bytes([7u8; 16]);
    let cipher = Aes128Fast::new(&[7u8; 16]);
    let otp = key.otp_generator_fast();

    let blocks: Vec<Block> = (0..4096u64)
        .map(|i| CounterBlock::new(Domain::Data, i * 16, VERSION).to_bytes())
        .collect();
    let mut pads = vec![[0u8; 16]; blocks.len()];
    let ns = l.ns_per_call(64, || {
        cipher.encrypt_blocks_into(black_box(&blocks), &mut pads);
        black_box(&pads);
    }) / blocks.len() as f64;
    let gbps = 128.0 / ns;
    l.put("cipher.aes_fast.blocks_per_s", 1e9 / ns);
    l.put("cipher.aes_fast.gbps", gbps);
    l.put("cipher.aes_fast.engines_equiv", PAPER_ENGINE_GBPS / gbps);

    let mut addr = 0u64;
    let ns = l.ns_per_call(30_000, || {
        addr = (addr + 128) & 0x00FF_FFFF;
        black_box(otp.data_pad_bytes(addr, 128, VERSION));
    });
    l.put("cipher.otp.data_pad_mb_per_s", mb_per_s(128, ns));

    // One 256 × 80 packet of the headline shape, planned and executed
    // without a cache.
    let lay = layout(BATCH256);
    let packet = gen_queries(1, BATCH256, 256);
    let mut planner = PadPlanner::new();
    let ns = median_ns(|| {
        planner.reset();
        let t = Instant::now();
        for (rows, _) in &packet {
            for &i in rows {
                black_box(planner.request_bytes(
                    Domain::Data,
                    lay.row_addr(i),
                    lay.row_bytes(),
                    VERSION,
                ));
            }
        }
        planner.execute(otp.cipher());
        nanos(t.elapsed())
    });
    l.put(
        "cipher.otp.planner_ns_per_block",
        ns / planner.planned_blocks() as f64,
    );
    l.put(
        "cipher.otp.dedup_ratio",
        planner.planned_blocks() as f64 / planner.requested_refs() as f64,
    );

    let ns = l.ns_per_call(100_000, || {
        addr = (addr + 128) & 0x00FF_FFFF;
        black_box(otp.tag_pad(addr, VERSION));
    });
    l.put("cipher.otp.tag_pad_ns", ns);

    cache_legs(l, &cipher);
}

/// `execute_cached` on PF-80 queries of 128 B rows: every block resident,
/// then every block new to a full cache (so each fill evicts).
fn cache_legs(l: &mut Legs, cipher: &Aes128Fast) {
    let lay = layout(SLS_HOT);
    let queries = gen_queries(1, SLS_HOT, 64);
    let cache = PadCache::new(DEFAULT_PAD_CACHE_BLOCKS);
    let mut planner = PadPlanner::new();
    let mut execute = |rows: &[usize], base: u64, timed: &mut Duration, blocks: &mut usize| {
        planner.reset();
        for &i in rows {
            planner.request_bytes(
                Domain::Data,
                base + lay.row_addr(i),
                lay.row_bytes(),
                VERSION,
            );
        }
        let t = Instant::now();
        planner.execute_cached(cipher, Some(&cache));
        *timed += t.elapsed();
        *blocks += planner.planned_blocks();
    };

    let (mut warm, mut n) = (Duration::ZERO, 0);
    for (rows, _) in &queries {
        execute(rows, 0, &mut warm, &mut n);
    }
    let rounds = l.iters(8);
    let per_block = |timed: Duration, blocks: usize| nanos(timed) / blocks as f64;
    let hit = median_ns(|| {
        let (mut timed, mut blocks) = (Duration::ZERO, 0);
        for _ in 0..rounds {
            for (rows, _) in &queries {
                execute(rows, 0, &mut timed, &mut blocks);
            }
        }
        per_block(timed, blocks)
    });
    l.put("cipher.cache.hit_ns", hit);

    // Fresh address space per query: nothing repeats, and after the first
    // 32 768 blocks every fill displaces a line.
    let table_bytes = lay.size_bytes() as u64;
    let mut region = 1u64;
    for _ in 0..DEFAULT_PAD_CACHE_BLOCKS / (SLS_HOT.pf * 8) + 1 {
        execute(&queries[0].0, region * table_bytes, &mut warm, &mut n);
        region += 1;
    }
    let miss = median_ns(|| {
        let (mut timed, mut blocks) = (Duration::ZERO, 0);
        for _ in 0..rounds {
            for (rows, _) in &queries {
                execute(rows, region * table_bytes, &mut timed, &mut blocks);
                region += 1;
            }
        }
        per_block(timed, blocks)
    });
    l.put("cipher.cache.miss_ns", miss);

    // A full cache of one version, swept by the version manager's hook.
    let mut fill = PadPlanner::new();
    let inval = median_ns(|| {
        fill.reset();
        fill.request_bytes(Domain::Data, 0, DEFAULT_PAD_CACHE_BLOCKS * 16, 5);
        fill.execute_cached(cipher, Some(&cache));
        let t = Instant::now();
        black_box(cache.invalidate_version(5));
        nanos(t.elapsed())
    });
    l.put("cipher.cache.invalidate_us", inval / 1e3);
}

fn arith_legs(l: &mut Legs) {
    let s = Fq::new(0x1234_5678_9ABC_DEF0_0FED_CBA9_8765_4321);
    let mut acc = Fq::new(3);
    const CHAIN: usize = 1_000;
    let ns = l.ns_per_call(1_000, || {
        for _ in 0..CHAIN {
            acc *= black_box(s);
        }
    });
    black_box(acc);
    l.put("arith.mersenne.mul_ns", ns / CHAIN as f64);

    let coeffs: Vec<Fq> = (1..=1024u128).map(Fq::new).collect();
    let ns = l.ns_per_call(600, || {
        black_box(horner_high_to_low(black_box(&coeffs), s));
    });
    l.put(
        "arith.mersenne.horner_ns_per_coeff",
        ns / coeffs.len() as f64,
    );

    let values = gen_table(1, SLS_HOT, 9);
    let values = &values[..4096];
    let weights = &gen_table(2, SLS_HOT, 9)[..4096];
    let ns = l.ns_per_call(10_000, || {
        black_box(ring::weighted_sum(black_box(weights), black_box(values)));
    });
    l.put(
        "arith.ring.weighted_sum_mb_per_s",
        mb_per_s(values.len() * 4, ns),
    );
    let ns = l.ns_per_call(10_000, || {
        black_box(ring::add_elementwise(black_box(weights), black_box(values)));
    });
    l.put(
        "arith.ring.add_elementwise_mb_per_s",
        mb_per_s(values.len() * 4, ns),
    );

    let row = &values[..32];
    let ns = l.ns_per_call(30_000, || {
        black_box(row_checksum(black_box(row), &[s]));
    });
    l.put("core.checksum.row_checksum_mb_per_s", mb_per_s(128, ns));
    let tags: Vec<Fq> = coeffs[..80].to_vec();
    let ns = l.ns_per_call(30_000, || {
        black_box(combine_weighted(
            black_box(&weights[..80]),
            black_box(&tags),
        ));
    });
    l.put("core.checksum.combine_weighted_ns_per_tag", ns / 80.0);
}

fn encrypt_legs(l: &mut Legs) {
    let otp = SecretKey::from_bytes([7u8; 16]).otp_generator_fast();
    let lay = layout(UPDATE);
    let plain = gen_table(1, UPDATE, 9);
    let ns = l.ns_per_call(8, || {
        black_box(encrypt_elements(&otp, black_box(&plain), &lay, VERSION).expect("shape fits"));
    });
    l.put(
        "core.encrypt.encrypt_elements_mb_per_s",
        mb_per_s(lay.size_bytes(), ns),
    );
    let ns = l.ns_per_call(8, || {
        black_box(encrypt_tags(
            &otp,
            black_box(&plain),
            &lay,
            VERSION,
            ChecksumScheme::SingleS,
        ));
    });
    l.put(
        "core.encrypt.encrypt_tags_rows_per_s",
        UPDATE.rows as f64 / ns * 1e9,
    );
}

fn wire_and_device_legs(l: &mut Legs) {
    for (shape, names) in [
        (
            BATCH256,
            [
                "core.wire.sum_request_encode_ns_pf80",
                "core.wire.sum_request_decode_ns_pf80",
                "core.wire.sum_response_encode_ns_pf80",
                "core.wire.sum_response_decode_ns_pf80",
            ],
        ),
        (
            SLS_SMALL,
            [
                "core.wire.sum_request_encode_ns_pf8",
                "core.wire.sum_request_decode_ns_pf8",
                "core.wire.sum_response_encode_ns_pf8",
                "core.wire.sum_response_decode_ns_pf8",
            ],
        ),
    ] {
        let request = sum_request(ADDR, &gen_queries(1, shape, 1)[0]);
        let frame = request.encode().expect("request encodes");
        let response = Response::Sum {
            c_res: vec![0xA5; shape.cols * 4],
            c_t_res: Some(12345),
        };
        let reply = response.encode().expect("reply encodes");
        let ns = [
            l.ns_per_call(40_000, || {
                black_box(black_box(&request).encode().expect("request encodes"));
            }),
            l.ns_per_call(40_000, || {
                black_box(Request::decode(black_box(&frame)).expect("own frame decodes"));
            }),
            l.ns_per_call(40_000, || {
                black_box(black_box(&response).encode().expect("reply encodes"));
            }),
            l.ns_per_call(40_000, || {
                black_box(Response::decode(black_box(&reply)).expect("own frame decodes"));
            }),
        ];
        for (name, ns) in names.into_iter().zip(ns) {
            l.put(name, ns);
        }
    }

    let mut dev = loaded_device(SLS_HOT);
    let query = gen_queries(1, SLS_HOT, 1).remove(0);
    let frame = sum_request(ADDR, &query)
        .encode_traced(FRAME_CTX)
        .expect("request encodes");
    let ns = l.ns_per_call(4_000, || {
        black_box(wire::serve(&mut dev, black_box(&frame)).expect("own frame serves"));
    });
    l.put("core.wire.serve_us", ns / 1e3);
    let ns = l.ns_per_call(5_000, || {
        black_box(
            dev.weighted_sum::<u32>(ADDR, &query.0, &query.1, true)
                .expect("rows in range"),
        );
    });
    l.put("core.device.weighted_sum_us", ns / 1e3);

    let load = load_request();
    let load_frame = load.encode().expect("load encodes");
    let ns = l.ns_per_call(40, || {
        black_box(black_box(&load).encode().expect("load encodes"));
    });
    l.put(
        "core.wire.load_encode_mb_per_s",
        mb_per_s(load_frame.len(), ns),
    );
    let ns = l.ns_per_call(40, || {
        black_box(Request::decode(black_box(&load_frame)).expect("own frame decodes"));
    });
    l.put(
        "core.wire.load_decode_mb_per_s",
        mb_per_s(load_frame.len(), ns),
    );

    let image = ring::words_to_le_bytes(&gen_table(1, UPDATE, 9));
    let tags: Vec<Fq> = (0..UPDATE.rows as u128).map(Fq::new).collect();
    let ns = median_ns(|| {
        let (image, tags) = (image.clone(), tags.clone());
        let t = Instant::now();
        dev.load(ADDR, image, UPDATE.cols * 4, Some(tags))
            .expect("fixed shape loads");
        nanos(t.elapsed())
    });
    l.put("core.device.load_mb_per_s", mb_per_s(image.len(), ns));
}

fn transport_legs(l: &mut Legs) {
    let dev = loaded_device(SLS_SMALL);
    let endpoint = AsyncEndpoint::new(
        vec![dev.clone(), dev],
        TransportConfig {
            ranks: 2,
            window: 32,
            timeout: Duration::from_secs(30),
            ..TransportConfig::default()
        },
    );
    let mut row = 0u64;
    let ns = l.ns_per_call(1_500, || {
        row = (row + 1) % SLS_SMALL.rows as u64;
        let id = endpoint
            .submit(&read_row_request(row))
            .expect("endpoint is up");
        black_box(endpoint.wait(id).expect("rank answers"));
    });
    l.put("core.transport.rtt_us", ns / 1e3);

    const FRAMES: usize = 1024;
    let ns = l.ns_per_call(4, || {
        let ids: Vec<_> = (0..FRAMES as u64)
            .map(|r| {
                endpoint
                    .submit(&read_row_request(r))
                    .expect("endpoint is up")
            })
            .collect();
        for id in ids {
            black_box(endpoint.wait(id).expect("rank answers"));
        }
    });
    l.put(
        "core.transport.pipelined_frames_per_s",
        FRAMES as f64 / ns * 1e9,
    );
}

fn telemetry_legs(l: &mut Legs) {
    let ns = l.ns_per_call(300_000, || drop(black_box(trace::span("perfbench_probe"))));
    l.put("telemetry.span_ns", ns);
    let ns = l.ns_per_call(1_000_000, || {
        secndp_telemetry::counter!(
            "secndp_perfbench_probe_total",
            "Probe counter of the perf ledger's telemetry leg."
        )
        .inc();
    });
    l.put("telemetry.counter_inc_ns", ns);
}

/// Every leg that stays inside this process.
pub fn run(scale: f64) -> Values {
    let mut l = Legs {
        scale,
        out: Values::new(),
    };
    cipher_legs(&mut l);
    arith_legs(&mut l);
    encrypt_legs(&mut l);
    wire_and_device_legs(&mut l);
    transport_legs(&mut l);
    telemetry_legs(&mut l);
    l.out
}

/// The `core.net` legs against a spawned server. The caller has pinned the
/// process to one core first, for the reason `sls_small_tcp` is pinned.
pub fn run_net(scale: f64, env: &Env) -> Result<Values, String> {
    let mut l = Legs {
        scale,
        out: Values::new(),
    };
    let server = ChildServer::spawn(&env.server_bin, &env.out_dir)?;
    let mut endpoint = TcpEndpoint::connect(NetConfig {
        addrs: vec![server.addr().to_string()],
        timeout: Duration::from_secs(30),
        ..NetConfig::default()
    })
    .map_err(|e| e.to_string())?;
    let image = ring::words_to_le_bytes(&gen_table(1, UPDATE, 9));
    let tags: Vec<Fq> = (0..UPDATE.rows as u128).map(Fq::new).collect();
    let mut failed = None;
    let ns = median_ns(|| {
        let (image, tags) = (image.clone(), tags.clone());
        let t = Instant::now();
        if let Err(e) = endpoint.load(ADDR, image, UPDATE.cols * 4, Some(tags)) {
            failed = Some(e);
        }
        nanos(t.elapsed())
    });
    l.put("core.net.load_mb_per_s", mb_per_s(image.len(), ns));

    let mut row = 0usize;
    let ns = l.ns_per_call(3_000, || {
        row = (row + 1) % UPDATE.rows;
        match endpoint.read_row(ADDR, row) {
            Ok(bytes) => drop(black_box(bytes)),
            Err(e) => failed = Some(e),
        }
    });
    l.put("core.net.rtt_us", ns / 1e3);
    drop(endpoint);
    match failed {
        Some(e) => Err(format!("core.net leg: {e}")),
        None => Ok(l.out),
    }
}
