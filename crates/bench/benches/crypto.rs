//! Criterion microbenchmarks for the cryptographic kernels: AES, pad
//! generation, field arithmetic, checksums, and table encryption.

use criterion::{black_box, criterion_group, criterion_main, Criterion, Throughput};
use secndp_arith::mersenne::Fq;
use secndp_cipher::aes::{Aes128, BlockCipher};
use secndp_cipher::aes_fast::Aes128Fast;
use secndp_cipher::otp::{Domain, OtpGenerator, PadPlanner};
use secndp_core::checksum::{row_checksum, ChecksumScheme};
use secndp_core::encrypt::encrypt_elements;
use secndp_core::layout::TableLayout;

fn bench_aes(c: &mut Criterion) {
    let aes = Aes128::new(&[7u8; 16]);
    let mut g = c.benchmark_group("aes");
    g.throughput(Throughput::Bytes(16));
    g.bench_function("encrypt_block", |b| {
        let blk = [0x42u8; 16];
        b.iter(|| black_box(aes.encrypt_block(black_box(&blk))))
    });
    g.finish();
}

fn bench_otp(c: &mut Criterion) {
    let otp = OtpGenerator::new(Aes128::new(&[7u8; 16]));
    let mut g = c.benchmark_group("otp");
    for bytes in [128usize, 4096] {
        g.throughput(Throughput::Bytes(bytes as u64));
        g.bench_function(format!("pad_{bytes}B"), |b| {
            b.iter(|| black_box(otp.data_pad_bytes(black_box(0x1000), bytes, 3)))
        });
    }
    g.finish();
}

/// Pad generation for an NDP packet of 64 rows × 256 u32 columns (64 KiB,
/// 4096 cipher blocks): the seed scalar path (reference AES, one call per
/// block) against the batched and planner paths introduced with the
/// `PadPlanner`.
fn bench_pad_batch(c: &mut Criterion) {
    let rows = 64usize;
    let row_bytes = 256usize * 4;
    let reference = OtpGenerator::new(Aes128::new(&[7u8; 16]));
    let fast = OtpGenerator::new(Aes128Fast::new(&[7u8; 16]));
    let mut g = c.benchmark_group("pad_batch_64x256_u32");
    g.throughput(Throughput::Bytes((rows * row_bytes) as u64));
    // The seed hot path: byte-oriented reference AES, scalar block loop.
    g.bench_function("scalar_reference", |b| {
        b.iter(|| {
            for i in 0..rows {
                black_box(reference.data_pad_bytes_scalar((i * row_bytes) as u64, row_bytes, 3));
            }
        })
    });
    g.bench_function("scalar_fast", |b| {
        b.iter(|| {
            for i in 0..rows {
                black_box(fast.data_pad_bytes_scalar((i * row_bytes) as u64, row_bytes, 3));
            }
        })
    });
    // Per-row batches through encrypt_blocks_into (interleaved rounds).
    g.bench_function("batched_per_row", |b| {
        b.iter(|| {
            for i in 0..rows {
                black_box(fast.data_pad_bytes((i * row_bytes) as u64, row_bytes, 3));
            }
        })
    });
    // One planned batch for the whole packet: a single 4096-block pass on
    // the caller's thread.
    g.bench_function("planned_batch", |b| {
        let mut planner = PadPlanner::new();
        b.iter(|| {
            planner.reset();
            let ranges: Vec<_> = (0..rows)
                .map(|i| planner.request_bytes(Domain::Data, (i * row_bytes) as u64, row_bytes, 3))
                .collect();
            planner.execute(fast.cipher());
            for r in &ranges {
                black_box(planner.pad_slice(r));
            }
        })
    });
    g.finish();
}

fn bench_field(c: &mut Criterion) {
    let mut g = c.benchmark_group("mersenne_fq");
    let a = Fq::new(0x0123_4567_89ab_cdef_0123_4567_89ab_cdef);
    let b_ = Fq::new(0xfedc_ba98_7654_3210_fedc_ba98_7654_3210);
    g.bench_function("mul", |b| {
        b.iter(|| black_box(black_box(a) * black_box(b_)))
    });
    g.bench_function("add", |b| {
        b.iter(|| black_box(black_box(a) + black_box(b_)))
    });
    g.bench_function("inv", |b| b.iter(|| black_box(black_box(a).inv())));
    g.finish();
}

fn bench_checksum(c: &mut Criterion) {
    let mut g = c.benchmark_group("checksum");
    let row: Vec<u32> = (0..1024).collect();
    let single = [Fq::new(0xdeadbeef)];
    let multi: Vec<Fq> = (0..4u64).map(|k| Fq::new(k as u128 + 99)).collect();
    g.throughput(Throughput::Elements(1024));
    // Ablation: Algorithm 2 (single s) vs Algorithm 8 (multi s).
    g.bench_function("alg2_single_s_m1024", |b| {
        b.iter(|| black_box(row_checksum(black_box(&row), &single)))
    });
    g.bench_function("alg8_multi_s4_m1024", |b| {
        b.iter(|| black_box(row_checksum(black_box(&row), &multi)))
    });
    g.finish();
    let _ = ChecksumScheme::SingleS; // linked for doc purposes
}

fn bench_encrypt(c: &mut Criterion) {
    let otp = OtpGenerator::new(Aes128::new(&[7u8; 16]));
    let mut g = c.benchmark_group("arith_encrypt");
    for (rows, cols) in [(64usize, 32usize), (256, 32)] {
        let layout = TableLayout::new::<u32>(0, rows, cols).unwrap();
        let pt: Vec<u32> = (0..rows * cols).map(|x| x as u32).collect();
        g.throughput(Throughput::Bytes((rows * cols * 4) as u64));
        g.bench_function(format!("alg1_{rows}x{cols}_u32"), |b| {
            b.iter(|| black_box(encrypt_elements(&otp, black_box(&pt), &layout, 5).unwrap()))
        });
    }
    g.finish();
}

criterion_group!(
    benches,
    bench_aes,
    bench_otp,
    bench_pad_batch,
    bench_field,
    bench_checksum,
    bench_encrypt
);
criterion_main!(benches);
