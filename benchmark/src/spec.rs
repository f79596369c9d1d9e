//! The names the ledger is judged on: workloads, end-to-end metrics with
//! their bounds, and per-layer metrics. `BENCHMARK.json` at the repository
//! root lists the same names; a test keeps the two identical.

/// Which direction of a metric is an improvement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Higher,
    Lower,
}

#[cfg(test)]
impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }
}

/// A metric name with its unit and direction; `bound` is the share of the
/// parent's median by which an end-to-end metric may worsen (0 for
/// per-layer metrics, which have no bound).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    pub bound: f64,
}

/// How long one driver run measures (`run_seconds` of `BENCHMARK.json`).
/// The fixed op counts of the traced pass and the micro legs are sized for
/// this length and scale with `--seconds`.
pub const RUN_SECONDS: f64 = 25.0;

/// `setup_s` may also worsen by this many seconds before the local
/// `--repeat-check` calls it a regression: the bound is
/// max(share × base, this). A 0.1 s set-up moves by 20 ms between runs.
pub const SETUP_SLACK_S: f64 = 0.05;

pub const WORKLOADS: [(&str, &str); 4] = [
    (
        "batch256_async",
        "paper headline shape: packets of 256 verified PF-80 queries over a 2-rank AsyncEndpoint, table 16x the pad cache, so AES pad generation dominates and the cache barely hits",
    ),
    (
        "sls_hot_inline",
        "single verified PF-80 queries, Zipf rows, pad working set resident in the cache: AES idle, so cache probe, ring combine, Fq verify and inline wire do the work",
    ),
    (
        "sls_small_tcp",
        "single verified PF-8 queries on 32 B rows to a spawned secndp-server, both pinned to one core: net framing, reader hand-off, wire and syscalls dominate, crypto is small",
    ),
    (
        "table_update_inline",
        "write side: re-encrypt a tagged 1 MiB table, publish it as one Load frame, read 16 rows back verified; stresses bulk pads, tags, Load and cache invalidation",
    ),
];

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> Metric {
    Metric {
        name,
        unit,
        better,
        bound,
    }
}

pub const END_TO_END: [Metric; 5] = [
    e2e("ops_per_s", "op/s", Better::Higher, 0.25),
    e2e("op_p50_us", "us", Better::Lower, 0.25),
    e2e("client_cpu_us_per_op", "us", Better::Lower, 0.25),
    e2e("peak_rss_mb", "MiB", Better::Lower, 0.10),
    e2e("setup_s", "s", Better::Lower, 0.25),
];

const fn layer(name: &'static str, unit: &'static str, better: Better) -> Metric {
    e2e(name, unit, better, 0.0)
}

use Better::{Higher, Lower};

pub const PER_LAYER: [Metric; 59] = [
    layer("cipher.aes_fast.blocks_per_s", "1/s", Higher),
    layer("cipher.aes_fast.gbps", "Gbps", Higher),
    layer("cipher.aes_fast.engines_equiv", "count", Lower),
    layer("cipher.otp.data_pad_mb_per_s", "MB/s", Higher),
    layer("cipher.otp.planner_ns_per_block", "ns", Lower),
    layer("cipher.otp.dedup_ratio", "ratio", Lower),
    layer("cipher.otp.tag_pad_ns", "ns", Lower),
    layer("cipher.cache.hit_ns", "ns", Lower),
    layer("cipher.cache.miss_ns", "ns", Lower),
    layer("cipher.cache.invalidate_us", "us", Lower),
    layer("cipher.cache.hit_rate", "ratio", Higher),
    layer("cipher.cache.evictions_per_op", "count", Lower),
    layer("arith.mersenne.mul_ns", "ns", Lower),
    layer("arith.mersenne.horner_ns_per_coeff", "ns", Lower),
    layer("arith.ring.weighted_sum_mb_per_s", "MB/s", Higher),
    layer("arith.ring.add_elementwise_mb_per_s", "MB/s", Higher),
    layer("core.checksum.row_checksum_mb_per_s", "MB/s", Higher),
    layer("core.checksum.combine_weighted_ns_per_tag", "ns", Lower),
    layer("core.encrypt.encrypt_elements_mb_per_s", "MB/s", Higher),
    layer("core.encrypt.encrypt_tags_rows_per_s", "1/s", Higher),
    layer("core.wire.sum_request_encode_ns_pf80", "ns", Lower),
    layer("core.wire.sum_request_decode_ns_pf80", "ns", Lower),
    layer("core.wire.sum_response_encode_ns_pf80", "ns", Lower),
    layer("core.wire.sum_response_decode_ns_pf80", "ns", Lower),
    layer("core.wire.sum_request_encode_ns_pf8", "ns", Lower),
    layer("core.wire.sum_request_decode_ns_pf8", "ns", Lower),
    layer("core.wire.sum_response_encode_ns_pf8", "ns", Lower),
    layer("core.wire.sum_response_decode_ns_pf8", "ns", Lower),
    layer("core.wire.serve_us", "us", Lower),
    layer("core.wire.load_encode_mb_per_s", "MB/s", Higher),
    layer("core.wire.load_decode_mb_per_s", "MB/s", Higher),
    layer("core.wire.tx_bytes_per_op", "B", Lower),
    layer("core.wire.rx_bytes_per_op", "B", Lower),
    layer("core.device.weighted_sum_us", "us", Lower),
    layer("core.device.load_mb_per_s", "MB/s", Higher),
    layer("core.transport.rtt_us", "us", Lower),
    layer("core.transport.pipelined_frames_per_s", "1/s", Higher),
    layer("core.net.rtt_us", "us", Lower),
    layer("core.net.load_mb_per_s", "MB/s", Higher),
    layer("telemetry.span_ns", "ns", Lower),
    layer("telemetry.counter_inc_ns", "ns", Lower),
    layer("trace.device_call_us", "us", Lower),
    layer("trace.reconstruct_us", "us", Lower),
    layer("trace.otp_share_us", "us", Lower),
    layer("trace.verify_us", "us", Lower),
    layer("trace.plan_us", "us", Lower),
    layer("trace.batch_wait_us", "us", Lower),
    layer("trace.reencrypt_us", "us", Lower),
    layer("trace.publish_us", "us", Lower),
    layer("trace.readback_us", "us", Lower),
    layer("trace.wire_encode_us", "us", Lower),
    layer("trace.wire_serve_us", "us", Lower),
    layer("trace.wire_decode_us", "us", Lower),
    layer("trace.device_compute_us", "us", Lower),
    layer("trace.transport_self_us", "us", Lower),
    layer("trace.coverage", "ratio", Higher),
    layer("trace.overhead_pct", "%", Lower),
    layer("op_p95_us", "us", Lower),
    layer("op_p99_us", "us", Lower),
];
