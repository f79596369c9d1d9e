//! End-to-end execution of a workload trace under each system mode.
//!
//! The mode set mirrors the paper's Figures 7 and 9:
//!
//! | mode | memory path | protection |
//! |------|-------------|------------|
//! | [`Mode::NonNdp`] | all data streams over the shared channel to the CPU | none |
//! | [`Mode::NonNdpEnc`] | same, with counter-mode decryption on-chip | confidentiality |
//! | [`Mode::UnprotectedNdp`] | rank-NDP PUs compute locally, only results return | none |
//! | [`Mode::SecNdpEnc`] | NDP over ciphertext; processor regenerates OTPs | confidentiality |
//! | [`Mode::SecNdpVer`] | + encrypted tag combine and check | confidentiality + integrity |
//!
//! The NDP path models the paper's packet semantics: the packet generator
//! groups `NDP_reg` queries; the packet's commands dispatch to all ranks in
//! parallel; the packet finishes when its slowest rank finishes ("the
//! latency is bounded by the slowest rank", §VI-B), plus initialization
//! cycles and the `NDPLd` result transfer. SecNDP adds the AES-engine
//! constraint: a packet cannot complete before the engine bank has produced
//! every pad the OTP PU needs — packets where the engine finishes last are
//! counted as *decryption-bottlenecked* (Figures 8 and 10).

use crate::config::{SimConfig, VerifPlacement, LINE_BYTES, NS_PER_CYCLE, TAG_BYTES};
use crate::dram::Channel;
use crate::ndp::{build_packets, AddressResolver};
use crate::stats::DramStats;
use crate::trace::WorkloadTrace;
use secndp_cipher::engine::AesEngineModel;

/// Execution mode of one simulation run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Mode {
    /// Unprotected baseline: the CPU pulls every row over the memory
    /// channel.
    NonNdp,
    /// A TEE without NDP: same traffic, with counter-mode decryption on the
    /// way in (timing-neutral given enough engines; costs engine energy).
    NonNdpEnc,
    /// A conventional TEE with full memory protection (Figure 2(a)+(b)):
    /// every line is decrypted AND its MAC is fetched from a separate tag
    /// region and verified — the mechanistic version of the SGX-style
    /// baseline (the analytic calibration lives in [`crate::sgx`]).
    NonNdpMacTee,
    /// Native NDP with no protection.
    UnprotectedNdp,
    /// SecNDP, encryption only (`Enc-only`).
    SecNdpEnc,
    /// SecNDP with verification under the given tag placement.
    SecNdpVer(VerifPlacement),
}

impl Mode {
    /// Whether this mode offloads computation to the rank-NDP PUs.
    pub fn uses_ndp(self) -> bool {
        !matches!(self, Mode::NonNdp | Mode::NonNdpEnc | Mode::NonNdpMacTee)
    }

    /// Whether the SecNDP engine generates pads in this mode.
    pub fn uses_engine(self) -> bool {
        matches!(
            self,
            Mode::NonNdpEnc | Mode::NonNdpMacTee | Mode::SecNdpEnc | Mode::SecNdpVer(_)
        )
    }

    /// The tag placement, if verification is on.
    pub fn placement(self) -> Option<VerifPlacement> {
        match self {
            Mode::SecNdpVer(p) => Some(p),
            _ => None,
        }
    }
}

impl std::fmt::Display for Mode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Mode::NonNdp => f.write_str("non-NDP"),
            Mode::NonNdpEnc => f.write_str("non-NDP Enc"),
            Mode::NonNdpMacTee => f.write_str("non-NDP Enc+MAC TEE"),
            Mode::UnprotectedNdp => f.write_str("NDP"),
            Mode::SecNdpEnc => f.write_str("SecNDP Enc"),
            Mode::SecNdpVer(p) => write!(f, "SecNDP Enc+{p}"),
        }
    }
}

/// The outcome of one simulation run.
#[derive(Debug, Clone, PartialEq)]
pub struct SimReport {
    /// The simulated mode.
    pub mode: Mode,
    /// End-to-end memory-clock cycles for the whole trace.
    pub total_cycles: u64,
    /// Number of NDP packets issued (0 for non-NDP modes).
    pub packets: u64,
    /// Packets whose completion was limited by AES pad generation.
    pub aes_limited_packets: u64,
    /// Merged DRAM command statistics across all channels.
    pub dram: DramStats,
    /// Bytes crossing the DIMM interface toward the processor.
    pub bytes_over_io: u64,
    /// 16-byte AES blocks produced by the SecNDP engine.
    pub aes_blocks: u64,
    /// Queries executed.
    pub queries: u64,
    /// Mean over packets of (busiest rank's lines / average rank's lines):
    /// 1.0 = perfectly balanced. Irregular SLS with small packets shows
    /// high imbalance; more `NDP_reg` smooths it (the paper's §VII-A
    /// explanation for the register sweep). 0 for non-NDP modes.
    pub rank_imbalance: f64,
    /// Per-packet service times in cycles (dispatch to completion),
    /// for latency-percentile reporting. Empty for non-NDP modes.
    pub packet_cycles: Vec<u64>,
}

impl SimReport {
    /// Wall-clock nanoseconds for the run.
    pub fn total_ns(&self) -> f64 {
        self.total_cycles as f64 * NS_PER_CYCLE
    }

    /// Fraction of packets bottlenecked by decryption bandwidth (Fig 8/10).
    pub fn aes_limited_fraction(&self) -> f64 {
        if self.packets == 0 {
            0.0
        } else {
            self.aes_limited_packets as f64 / self.packets as f64
        }
    }

    /// Speedup of this run relative to `baseline` (ratio of cycle counts).
    pub fn speedup_vs(&self, baseline: &SimReport) -> f64 {
        baseline.total_cycles as f64 / self.total_cycles.max(1) as f64
    }

    /// Packet-latency percentile in cycles (`p ∈ [0, 1]`, nearest-rank),
    /// or `None` for non-NDP runs.
    ///
    /// # Panics
    ///
    /// Panics if `p` is outside `[0, 1]`.
    pub fn latency_percentile(&self, p: f64) -> Option<u64> {
        assert!((0.0..=1.0).contains(&p), "percentile must be in [0, 1]");
        if self.packet_cycles.is_empty() {
            return None;
        }
        let mut sorted = self.packet_cycles.clone();
        sorted.sort_unstable();
        let rank = ((sorted.len() as f64 * p).ceil() as usize).clamp(1, sorted.len());
        Some(sorted[rank - 1])
    }
}

/// Simulates `trace` under `mode` and `cfg`.
pub fn simulate(trace: &WorkloadTrace, mode: Mode, cfg: &SimConfig) -> SimReport {
    if mode.uses_ndp() {
        simulate_ndp(trace, mode, cfg)
    } else {
        simulate_cpu(trace, mode, cfg)
    }
}

/// Outcome of the initialization phase (`T0` in Figure 4): encrypting every
/// table and writing the ciphertext (and tags) into NDP memory.
#[derive(Debug, Clone, PartialEq)]
pub struct InitReport {
    /// The mode initialization was performed for.
    pub mode: Mode,
    /// Memory-clock cycles to write all tables.
    pub total_cycles: u64,
    /// DRAM command statistics (writes, activations, …).
    pub dram: DramStats,
    /// AES blocks produced (pads + tag pads + secrets).
    pub aes_blocks: u64,
    /// Whether pad generation, not the write bandwidth, bounded the phase.
    pub aes_limited: bool,
}

/// Simulates the one-time initialization: every row of every table is
/// encrypted (for SecNDP modes) and written over the memory channel
/// (`ArithEnc` behaving like a cache-line flush, paper §V-E1).
pub fn simulate_initialization(trace: &WorkloadTrace, mode: Mode, cfg: &SimConfig) -> InitReport {
    let placement = mode.placement();
    let mut resolver = AddressResolver::new(cfg, placement, &trace.tables, 0x5ec0de);
    let mut chans: Vec<Channel> = (0..cfg.org.channels)
        .map(|_| Channel::new(cfg.timing, cfg.org, cfg.org.ranks))
        .collect();
    let mut lines = Vec::new();
    let mut aes_blocks = 0u64;
    for (t, table) in trace.tables.iter().enumerate() {
        for row in 0..table.rows {
            lines.extend(resolver.row_lines(t, row));
            if mode.uses_engine() {
                aes_blocks += table.row_bytes.div_ceil(16);
                if placement.is_some() {
                    aes_blocks += 1; // tag pad per row (Alg 3)
                }
            }
        }
        if mode.uses_engine() && placement.is_some() {
            aes_blocks += 1; // the checksum secret s (Alg 2)
        }
    }
    let mut write_done = 0u64;
    for loc in crate::ndp::schedule_lines(&lines, crate::ndp::CPU_REORDER_WINDOW) {
        let chan = &mut chans[loc.channel % cfg.org.channels];
        write_done = write_done.max(chan.write_line(loc, 0));
    }
    let engine = AesEngineModel::new(cfg.secndp.engine);
    let aes_cycles = (engine.time_for_blocks(aes_blocks) / NS_PER_CYCLE).ceil() as u64;
    let mut dram = DramStats::default();
    for c in &chans {
        dram.merge(c.stats());
    }
    InitReport {
        mode,
        total_cycles: write_done.max(aes_cycles),
        dram,
        aes_blocks,
        aes_limited: aes_cycles > write_done,
    }
}

/// Non-NDP path: every row streams over one shared channel. The MAC-TEE
/// mode lays tags out in a separate region (like Ver-sep) and fetches one
/// tag line per row, modelling Figure 2(b)'s per-access integrity check.
fn simulate_cpu(trace: &WorkloadTrace, mode: Mode, cfg: &SimConfig) -> SimReport {
    let placement = if mode == Mode::NonNdpMacTee {
        Some(VerifPlacement::Sep)
    } else {
        None
    };
    let mut resolver = AddressResolver::new(cfg, placement, &trace.tables, 0x5ec0de);
    let mut chans: Vec<Channel> = (0..cfg.org.channels)
        .map(|_| Channel::new(cfg.timing, cfg.org, cfg.org.ranks))
        .collect();
    let mut lines = Vec::new();
    let mut aes_blocks = 0u64;
    for q in &trace.queries {
        for r in &q.rows {
            lines.extend(resolver.row_lines(r.table as usize, r.row));
            if mode.uses_engine() {
                let bytes = trace.tables[r.table as usize].row_bytes;
                aes_blocks += bytes.div_ceil(16);
                if mode == Mode::NonNdpMacTee {
                    aes_blocks += 1; // tag pad per row (CWC-style verify)
                }
            }
        }
    }
    let lines = if cfg.reorder {
        crate::ndp::schedule_lines(&lines, crate::ndp::CPU_REORDER_WINDOW)
    } else {
        lines
    };
    let mut done = 0u64;
    for loc in lines {
        let chan = &mut chans[loc.channel % cfg.org.channels];
        done = done.max(chan.read_line(loc, 0));
    }
    let mut dram = DramStats::default();
    for c in &chans {
        dram.merge(c.stats());
    }
    SimReport {
        mode,
        total_cycles: done,
        packets: 0,
        aes_limited_packets: 0,
        bytes_over_io: dram.bytes_read(),
        dram,
        aes_blocks,
        queries: trace.queries.len() as u64,
        rank_imbalance: 0.0,
        packet_cycles: Vec::new(),
    }
}

/// NDP path: per-rank channels, packet barriers, optional AES constraint.
fn simulate_ndp(trace: &WorkloadTrace, mode: Mode, cfg: &SimConfig) -> SimReport {
    let placement = mode.placement();
    let verify = placement.is_some();
    let packets = build_packets(trace, cfg, placement, verify);
    let engine = AesEngineModel::new(cfg.secndp.engine);
    let single_rank_org = cfg.org;
    let mut chans: Vec<Channel> = (0..cfg.org.total_ranks())
        .map(|_| Channel::new(cfg.timing, single_rank_org, 1))
        .collect();

    let mut time = 0u64;
    let mut io_free = 0u64;
    let mut aes_limited = 0u64;
    let mut aes_blocks_total = 0u64;
    let mut bytes_over_io = 0u64;
    let mut imbalance_sum = 0.0f64;
    let mut packet_cycles = Vec::with_capacity(packets.len());
    for p in &packets {
        let dispatch = time;
        let start = time + cfg.overheads.init_cycles;
        // Load-balance metric: busiest rank vs the average.
        let total_lines: usize = p.per_rank.iter().map(Vec::len).sum();
        if total_lines > 0 {
            let max_lines = p.per_rank.iter().map(Vec::len).max().unwrap_or(0);
            let avg = total_lines as f64 / cfg.org.total_ranks() as f64;
            imbalance_sum += max_lines as f64 / avg.max(f64::MIN_POSITIVE);
        } else {
            imbalance_sum += 1.0;
        }
        // Dispatch to all ranks in parallel; packet bounded by slowest rank.
        let mut ndp_done = start;
        for (rank, lines) in p.per_rank.iter().enumerate() {
            let mut rank_done = start;
            for &loc in lines {
                rank_done = rank_done.max(chans[rank].read_line(loc, start));
            }
            ndp_done = ndp_done.max(rank_done);
        }
        // SecNDP: the engine must produce all pads for this packet.
        let mut done = ndp_done;
        if mode.uses_engine() {
            let blocks = p.otp_data_bytes.div_ceil(16) + p.otp_tag_blocks;
            aes_blocks_total += blocks;
            let aes_cycles = (engine.time_for_blocks(blocks) / NS_PER_CYCLE).ceil() as u64;
            let aes_done = start + aes_cycles;
            if aes_done > ndp_done {
                aes_limited += 1;
                done = aes_done;
            }
        }
        // NDPLd: pull one partial result (plus tag) per touched rank per
        // query back over the channel. The transfer occupies the channel
        // bus but overlaps with the next packet's rank-local reads — only
        // the bus occupancy is serialized.
        let result_unit = trace.result_bytes + if verify { TAG_BYTES } else { 0 };
        let result_lines = p.rank_results * result_unit.div_ceil(LINE_BYTES);
        bytes_over_io += p.rank_results * result_unit;
        io_free = done.max(io_free) + result_lines * cfg.overheads.ld_cycles_per_line;
        packet_cycles.push(io_free - dispatch);
        time = done;
    }
    let time = time.max(io_free);

    let mut dram = DramStats::default();
    for c in &chans {
        dram.merge(c.stats());
    }
    SimReport {
        mode,
        total_cycles: time,
        packets: packets.len() as u64,
        aes_limited_packets: aes_limited,
        dram,
        bytes_over_io,
        aes_blocks: aes_blocks_total,
        queries: trace.queries.len() as u64,
        rank_imbalance: if packets.is_empty() {
            0.0
        } else {
            imbalance_sum / packets.len() as f64
        },
        packet_cycles,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::NdpConfig;

    fn cfg(rank: usize, reg: usize, aes: usize) -> SimConfig {
        SimConfig::paper_default(NdpConfig {
            ndp_rank: rank,
            ndp_reg: reg,
        })
        .with_aes_engines(aes)
    }

    fn sls_trace() -> WorkloadTrace {
        WorkloadTrace::uniform_sls(1 << 26, 128, 80, 32, 7)
    }

    #[test]
    fn ndp_beats_non_ndp_on_sls() {
        let t = sls_trace();
        let c = cfg(8, 8, 12);
        let cpu = simulate(&t, Mode::NonNdp, &c);
        let ndp = simulate(&t, Mode::UnprotectedNdp, &c);
        let s = ndp.speedup_vs(&cpu);
        assert!(s > 2.0, "NDP speedup only {s:.2}×");
        assert!(s < 8.5, "NDP speedup implausibly high {s:.2}×");
    }

    #[test]
    fn analytics_speedup_higher_than_sls() {
        let c = cfg(8, 8, 12);
        let sls = sls_trace();
        let scan = WorkloadTrace::sequential_scan(1 << 26, 4096, 512, 8, 3);
        let s_sls =
            simulate(&sls, Mode::UnprotectedNdp, &c).speedup_vs(&simulate(&sls, Mode::NonNdp, &c));
        let s_scan = simulate(&scan, Mode::UnprotectedNdp, &c).speedup_vs(&simulate(
            &scan,
            Mode::NonNdp,
            &c,
        ));
        assert!(
            s_scan > s_sls,
            "regular scan ({s_scan:.2}×) should beat irregular SLS ({s_sls:.2}×)"
        );
    }

    #[test]
    fn more_ranks_more_speedup() {
        let t = sls_trace();
        let s2 = {
            let c = cfg(2, 8, 12);
            simulate(&t, Mode::UnprotectedNdp, &c).speedup_vs(&simulate(&t, Mode::NonNdp, &c))
        };
        let s8 = {
            let c = cfg(8, 8, 12);
            simulate(&t, Mode::UnprotectedNdp, &c).speedup_vs(&simulate(&t, Mode::NonNdp, &c))
        };
        assert!(
            s8 > s2,
            "rank scaling broken: 8 ranks {s8:.2}× vs 2 ranks {s2:.2}×"
        );
    }

    #[test]
    fn more_registers_help_irregular_sls() {
        let t = sls_trace();
        let r1 = simulate(&t, Mode::UnprotectedNdp, &cfg(8, 1, 12));
        let r8 = simulate(&t, Mode::UnprotectedNdp, &cfg(8, 8, 12));
        assert!(
            r8.total_cycles < r1.total_cycles,
            "NDP_reg=8 ({}) not faster than NDP_reg=1 ({})",
            r8.total_cycles,
            r1.total_cycles
        );
        // The mechanism: bigger packets average out per-rank load.
        assert!(
            r8.rank_imbalance < r1.rank_imbalance,
            "imbalance not smoothed: reg=1 {:.2} vs reg=8 {:.2}",
            r1.rank_imbalance,
            r8.rank_imbalance
        );
        assert!(r1.rank_imbalance >= 1.0);
    }

    #[test]
    fn few_aes_engines_bottleneck_secndp() {
        let t = sls_trace();
        let starved = simulate(&t, Mode::SecNdpEnc, &cfg(8, 8, 1));
        let fed = simulate(&t, Mode::SecNdpEnc, &cfg(8, 8, 16));
        assert!(starved.total_cycles > fed.total_cycles);
        assert!(starved.aes_limited_fraction() > 0.9);
        assert!(fed.aes_limited_fraction() < 0.3);
        // With ample engines, SecNDP-Enc matches unprotected NDP timing.
        let unprot = simulate(&t, Mode::UnprotectedNdp, &cfg(8, 8, 16));
        let overhead = fed.total_cycles as f64 / unprot.total_cycles as f64;
        assert!(
            overhead < 1.05,
            "SecNDP overhead {overhead:.3}× with 16 engines"
        );
    }

    #[test]
    fn verification_placements_ordering() {
        // Fig 9: Ecc ≈ Enc-only ≤ Coloc ≤ Sep for unquantized SLS.
        let t = sls_trace();
        let c = cfg(8, 8, 12);
        let enc = simulate(&t, Mode::SecNdpEnc, &c).total_cycles;
        let ecc = simulate(&t, Mode::SecNdpVer(VerifPlacement::Ecc), &c).total_cycles;
        let coloc = simulate(&t, Mode::SecNdpVer(VerifPlacement::Coloc), &c).total_cycles;
        let sep = simulate(&t, Mode::SecNdpVer(VerifPlacement::Sep), &c).total_cycles;
        assert!(ecc <= coloc, "ecc {ecc} vs coloc {coloc}");
        assert!(coloc <= sep, "coloc {coloc} vs sep {sep}");
        // ECC adds no DRAM traffic: within a whisker of Enc-only.
        let ratio = ecc as f64 / enc as f64;
        assert!(ratio < 1.10, "Ver-ECC overhead {ratio:.3}× over Enc-only");
    }

    #[test]
    fn more_channels_speed_up_the_baseline_not_ndp() {
        // Channel count is a baseline-bandwidth axis: the non-NDP stream
        // doubles its bus, while rank-private NDP bandwidth was never
        // channel-bound — so the NDP *speedup* shrinks with channels.
        let t = sls_trace();
        let one = cfg(8, 8, 12);
        let mut two = cfg(8, 8, 12);
        two.org.channels = 2;
        two.org.ranks = 4; // same total ranks / capacity
        let base1 = simulate(&t, Mode::NonNdp, &one);
        let base2 = simulate(&t, Mode::NonNdp, &two);
        assert!(
            (base2.total_cycles as f64) < base1.total_cycles as f64 * 0.65,
            "2 channels: {} vs {}",
            base2.total_cycles,
            base1.total_cycles
        );
        let s1 = simulate(&t, Mode::UnprotectedNdp, &one).speedup_vs(&base1);
        let s2 = simulate(&t, Mode::UnprotectedNdp, &two).speedup_vs(&base2);
        assert!(
            s2 < s1,
            "NDP speedup should shrink with channels: {s2:.2} vs {s1:.2}"
        );
        assert!(s2 > 1.0);
    }

    #[test]
    fn mac_tee_pays_for_integrity() {
        // Figure 2(b) mechanistically: per-line MAC fetches slow the
        // conventional TEE below the plain baseline, and SecNDP (which
        // verifies with ONE combined tag per query) stays far ahead.
        let t = sls_trace();
        let c = cfg(8, 8, 12);
        let plain = simulate(&t, Mode::NonNdp, &c);
        let enc = simulate(&t, Mode::NonNdpEnc, &c);
        let tee = simulate(&t, Mode::NonNdpMacTee, &c);
        let sec = simulate(&t, Mode::SecNdpVer(VerifPlacement::Ecc), &c);
        assert_eq!(
            enc.total_cycles, plain.total_cycles,
            "decrypt-on-fetch is free"
        );
        assert!(
            tee.total_cycles > plain.total_cycles,
            "MAC fetches must cost DRAM time"
        );
        assert!(tee.dram.reads > plain.dram.reads);
        assert!(sec.total_cycles * 3 < tee.total_cycles);
        // MAC pads: one extra block per row on top of the data pads.
        assert!(tee.aes_blocks > enc.aes_blocks);
    }

    #[test]
    fn non_ndp_io_equals_all_data() {
        let t = sls_trace();
        let c = cfg(8, 8, 12);
        let cpu = simulate(&t, Mode::NonNdp, &c);
        // Rows are 128 B = 2 lines; unaligned pages may add a line.
        assert!(cpu.bytes_over_io >= t.total_data_bytes());
        // NDP IO carries only results — orders of magnitude less.
        let ndp = simulate(&t, Mode::UnprotectedNdp, &c);
        assert!(ndp.bytes_over_io < cpu.bytes_over_io / 4);
    }

    #[test]
    fn engine_blocks_counted() {
        let t = WorkloadTrace::uniform_sls(1 << 22, 128, 10, 4, 1);
        let c = cfg(8, 8, 12);
        assert_eq!(simulate(&t, Mode::UnprotectedNdp, &c).aes_blocks, 0);
        let enc = simulate(&t, Mode::SecNdpEnc, &c);
        // 40 rows × 128 B / 16 = 320 pad blocks.
        assert_eq!(enc.aes_blocks, 320);
        let ver = simulate(&t, Mode::SecNdpVer(VerifPlacement::Ecc), &c);
        // + one tag block per row + one secret per query.
        assert_eq!(ver.aes_blocks, 320 + 40 + 4);
    }

    #[test]
    fn initialization_writes_every_table_line() {
        let t = WorkloadTrace::uniform_sls(1 << 20, 128, 10, 2, 1);
        let c = cfg(8, 8, 12);
        let unprot = simulate_initialization(&t, Mode::UnprotectedNdp, &c);
        // 1 MiB of 128-byte rows = 16 Ki lines written.
        assert_eq!(unprot.dram.writes, (1 << 20) / 64);
        assert_eq!(unprot.aes_blocks, 0);
        assert!(unprot.total_cycles > 0);
        // SecNDP pays pad generation: one block per 16 bytes.
        let sec = simulate_initialization(&t, Mode::SecNdpEnc, &c);
        assert_eq!(sec.aes_blocks, (1 << 20) / 16);
        assert!(sec.total_cycles >= unprot.total_cycles);
        // Verification adds a tag pad per row plus one secret.
        let ver = simulate_initialization(&t, Mode::SecNdpVer(VerifPlacement::Ecc), &c);
        assert_eq!(ver.aes_blocks, (1 << 20) / 16 + (1 << 20) / 128 + 1);
    }

    #[test]
    fn initialization_aes_limited_with_one_engine() {
        let t = WorkloadTrace::uniform_sls(1 << 20, 128, 10, 2, 1);
        let starved = simulate_initialization(&t, Mode::SecNdpEnc, &cfg(8, 8, 1));
        // One engine: 13.9 GB/s < 19.2 GB/s channel write bandwidth.
        assert!(starved.aes_limited);
        let fed = simulate_initialization(&t, Mode::SecNdpEnc, &cfg(8, 8, 8));
        assert!(!fed.aes_limited);
        assert!(fed.total_cycles < starved.total_cycles);
    }

    #[test]
    fn display_names() {
        assert_eq!(Mode::NonNdp.to_string(), "non-NDP");
        assert_eq!(
            Mode::SecNdpVer(VerifPlacement::Sep).to_string(),
            "SecNDP Enc+Ver-sep"
        );
    }

    #[test]
    fn latency_percentiles_are_ordered() {
        let t = sls_trace();
        let c = cfg(8, 8, 12);
        let r = simulate(&t, Mode::UnprotectedNdp, &c);
        let p50 = r.latency_percentile(0.5).unwrap();
        let p99 = r.latency_percentile(0.99).unwrap();
        let p0 = r.latency_percentile(0.0).unwrap();
        assert!(p0 <= p50 && p50 <= p99, "{p0} / {p50} / {p99}");
        assert_eq!(r.packet_cycles.len() as u64, r.packets);
        // Non-NDP runs have no packet latencies.
        assert_eq!(simulate(&t, Mode::NonNdp, &c).latency_percentile(0.5), None);
    }

    #[test]
    fn report_helpers() {
        let t = WorkloadTrace::uniform_sls(1 << 22, 128, 10, 2, 1);
        let c = cfg(4, 2, 8);
        let r = simulate(&t, Mode::UnprotectedNdp, &c);
        assert!(r.total_ns() > 0.0);
        assert_eq!(r.aes_limited_fraction(), 0.0);
        assert_eq!(r.queries, 2);
        assert_eq!(r.packets, 1);
    }
}
