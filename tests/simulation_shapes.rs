//! Integration tests pinning the headline evaluation *shapes* of the paper
//! — who wins, by roughly what factor, and where the crossovers fall.
//! These are the claims EXPERIMENTS.md reports; if a refactor breaks one of
//! them, the reproduction is no longer faithful.

use secndp::sim::config::{NdpConfig, SimConfig, VerifPlacement};
use secndp::sim::energy::{table5_row, EnergyModel};
use secndp::sim::exec::{simulate, Mode};
use secndp::sim::sgx::SgxModel;
use secndp::sim::trace::WorkloadTrace;
use secndp::workloads::dlrm::model::{sls_trace, sls_trace_quantized};
use secndp::workloads::dlrm::DlrmConfig;
use secndp::workloads::GeneDataset;

fn headline() -> SimConfig {
    SimConfig::paper_default(NdpConfig {
        ndp_rank: 8,
        ndp_reg: 8,
    })
    .with_aes_engines(12)
}

#[test]
fn sls_ndp_speedup_in_paper_range() {
    // Paper Fig 7 (rank=8, reg=8): 32-bit SLS speedup ~5.6×; ours should
    // land between 4× and the 8-rank ideal.
    let cfg = headline();
    let trace = sls_trace(&DlrmConfig::rmc1_small(), 80, 32, 7);
    let base = simulate(&trace, Mode::NonNdp, &cfg);
    let ndp = simulate(&trace, Mode::UnprotectedNdp, &cfg);
    let s = ndp.speedup_vs(&base);
    assert!((4.0..8.2).contains(&s), "SLS NDP speedup {s:.2}×");
}

#[test]
fn analytics_speedup_near_paper_7_46() {
    let cfg = headline();
    let trace = GeneDataset::perf_trace(500_000, 1024, 10_000, 2, 1);
    let base = simulate(&trace, Mode::NonNdp, &cfg);
    let ndp = simulate(&trace, Mode::UnprotectedNdp, &cfg);
    let sec = simulate(&trace, Mode::SecNdpVer(VerifPlacement::Ecc), &cfg);
    let s_ndp = ndp.speedup_vs(&base);
    let s_sec = sec.speedup_vs(&base);
    assert!(
        (6.5..8.1).contains(&s_ndp),
        "analytics NDP speedup {s_ndp:.2}×"
    );
    // Paper: SecNDP matches unprotected NDP on analytics (7.46× both).
    assert!(
        s_sec > s_ndp * 0.93,
        "SecNDP analytics {s_sec:.2}× vs NDP {s_ndp:.2}×"
    );
}

#[test]
fn secndp_enc_matches_ndp_with_enough_engines_only() {
    let trace = sls_trace(&DlrmConfig::rmc1_small(), 80, 24, 3);
    let cfg = headline();
    let ndp = simulate(&trace, Mode::UnprotectedNdp, &cfg).total_cycles;
    // Starved: 2 engines.
    let starved = simulate(&trace, Mode::SecNdpEnc, &cfg.with_aes_engines(2));
    assert!(starved.total_cycles as f64 > ndp as f64 * 1.5);
    assert!(starved.aes_limited_fraction() > 0.9);
    // Fed: 12 engines (paper: ~10 match rank=8 burst throughput).
    let fed = simulate(&trace, Mode::SecNdpEnc, &cfg.with_aes_engines(12));
    assert!((fed.total_cycles as f64) < ndp as f64 * 1.02);
}

#[test]
fn aes_requirement_scales_with_rank_and_drops_with_quantization() {
    // Fig 8: the minimum engine count clearing the bottleneck grows with
    // NDP_rank, and quantization cuts it to roughly a third.
    let min_engines = |trace: &WorkloadTrace, rank: usize| -> usize {
        for engines in 1..=24 {
            let cfg = SimConfig::paper_default(NdpConfig {
                ndp_rank: rank,
                ndp_reg: 8,
            })
            .with_aes_engines(engines);
            if simulate(trace, Mode::SecNdpEnc, &cfg).aes_limited_fraction() < 0.3 {
                return engines;
            }
        }
        25
    };
    let t32 = sls_trace(&DlrmConfig::rmc1_small(), 80, 24, 3);
    let t8 = sls_trace_quantized(&DlrmConfig::rmc1_small(), 80, 24, 3);
    let need_r2 = min_engines(&t32, 2);
    let need_r8 = min_engines(&t32, 8);
    let need_r8_q = min_engines(&t8, 8);
    assert!(
        need_r8 > need_r2,
        "rank=8 needs {need_r8}, rank=2 needs {need_r2}"
    );
    assert!(
        (8..=14).contains(&need_r8),
        "rank=8 engine requirement {need_r8} (paper: ~10)"
    );
    assert!(
        need_r8_q * 2 <= need_r8,
        "quantized requirement {need_r8_q} vs unquantized {need_r8}"
    );
}

#[test]
fn verification_placement_ordering_fig9() {
    let cfg = headline();
    let trace = sls_trace(&DlrmConfig::rmc1_small(), 80, 24, 3);
    let cyc = |m| simulate(&trace, m, &cfg).total_cycles;
    let enc = cyc(Mode::SecNdpEnc);
    let ecc = cyc(Mode::SecNdpVer(VerifPlacement::Ecc));
    let coloc = cyc(Mode::SecNdpVer(VerifPlacement::Coloc));
    let sep = cyc(Mode::SecNdpVer(VerifPlacement::Sep));
    // Paper Fig 9: Enc ≈ ECC < coloc < sep.
    assert!((ecc as f64) < enc as f64 * 1.10, "ECC {ecc} vs Enc {enc}");
    assert!(ecc < coloc);
    assert!(coloc < sep);
    // Ver-sep degradation is substantial (paper: ~40 % over Enc-only).
    assert!((sep as f64) > enc as f64 * 1.3);
}

#[test]
fn energy_table5_anchors() {
    for (mode, want) in [
        (Mode::UnprotectedNdp, 0.792),
        (Mode::SecNdpEnc, 0.8183),
        (Mode::SecNdpVer(VerifPlacement::Coloc), 0.9209),
        (Mode::NonNdpEnc, 1.015),
    ] {
        let got = table5_row(mode, 80.0).normalized(80.0);
        assert!(
            (got - want).abs() < 0.01,
            "{mode}: {got:.4} vs paper {want}"
        );
    }
    // Command-level model agrees with the sign of the savings.
    let cfg = headline();
    let trace = sls_trace(&DlrmConfig::rmc1_small(), 80, 16, 3);
    let m = EnergyModel;
    let e_cpu = m
        .from_report(&simulate(&trace, Mode::NonNdp, &cfg))
        .total_pj();
    let e_sec = m
        .from_report(&simulate(&trace, Mode::SecNdpEnc, &cfg))
        .total_pj();
    let saving = 1.0 - e_sec / e_cpu;
    assert!(
        (0.05..0.35).contains(&saving),
        "SecNDP energy saving {saving:.3} (paper: 0.18)"
    );
}

#[test]
fn sgx_table3_anchors() {
    // Table III SGX reference points.
    let cfl = SgxModel::cfl();
    let icl = SgxModel::icl();
    assert!((cfl.relative_performance(1 << 30) - 0.0038).abs() < 0.001);
    assert!((cfl.relative_performance(40 << 20) - 0.1738).abs() < 0.01);
    let icl_rel = icl.relative_performance(1 << 30);
    assert!((0.5..0.67).contains(&icl_rel), "ICL {icl_rel}");
}

#[test]
fn table3_end_to_end_ordering() {
    // End-to-end SecNDP speedup grows with model size and stays within a
    // hair of unprotected NDP (Table III).
    use secndp::workloads::dlrm::model::{cpu_portion_ns, TEE_CPU_FACTOR};
    let cfg = headline();
    let mut prev = 0.0;
    for model in DlrmConfig::all() {
        let batch = 16;
        let trace = sls_trace(&model, 80, batch, 3);
        let base = cpu_portion_ns(&model, batch) + simulate(&trace, Mode::NonNdp, &cfg).total_ns();
        let sec = cpu_portion_ns(&model, batch) * TEE_CPU_FACTOR
            + simulate(&trace, Mode::SecNdpVer(VerifPlacement::Ecc), &cfg).total_ns();
        let ndp =
            cpu_portion_ns(&model, batch) + simulate(&trace, Mode::UnprotectedNdp, &cfg).total_ns();
        let s_sec = base / sec;
        let s_ndp = base / ndp;
        assert!(s_sec > 1.8, "{}: SecNDP e2e {s_sec:.2}×", model.name);
        assert!(
            s_sec > s_ndp * 0.90,
            "{}: SecNDP {s_sec:.2}× too far below NDP {s_ndp:.2}×",
            model.name
        );
        assert!(
            s_sec > prev,
            "{}: speedup should grow with model size",
            model.name
        );
        prev = s_sec;
    }
}

#[test]
fn table4_accuracy_shape() {
    // Table IV: fixed ≈ float; 8-bit schemes < 0.1 %; column-wise beats
    // table-wise.
    let rows = secndp::workloads::dlrm::accuracy::table4(1500, 0x7AB4);
    assert_eq!(rows[0].degradation, 0.0);
    assert!(
        rows[1].degradation.abs() < 1e-6,
        "fixed {:.2e}",
        rows[1].degradation
    );
    let (table_w, column_w) = (rows[2].degradation, rows[3].degradation);
    assert!(table_w > 0.0 && table_w < 1e-3, "table-wise {table_w:.2e}");
    assert!(
        column_w > 0.0 && column_w < table_w,
        "column {column_w:.2e} vs table {table_w:.2e}"
    );
}

#[test]
fn engine_area_and_security_anchors() {
    // §VII-C: 1.625 mm² at ten engines; 111.3 Gbps per engine.
    use secndp::cipher::engine::{AesEngineModel, EngineConfig};
    let m = AesEngineModel::new(EngineConfig::paper_default(10));
    assert!((m.area_mm2() - 1.625).abs() < 1e-9);
    assert!(
        (AesEngineModel::new(EngineConfig::paper_default(1)).throughput_gbps() - 111.3).abs()
            < 0.05
    );
    // §IV-G: m = 1024, w_t = 127 ⇒ 2⁵³ queries at 64-bit forgery security.
    use secndp_testkit::security::MacBound;
    assert_eq!(MacBound::max_query_budget_log2(1024, 127, 64.0), 53.0);
}

#[test]
fn near_storage_extension_shape() {
    // §III-A extension: scans gain from near-storage; random SLS is
    // read-amplification-bound.
    use secndp::sim::storage::{simulate_storage, SsdConfig, StorageMode};
    let cfg = SsdConfig::default();
    let scan = WorkloadTrace::sequential_scan(1 << 26, 4096, 1024, 4, 1);
    let host = simulate_storage(&scan, StorageMode::HostRead, &cfg);
    let near = simulate_storage(&scan, StorageMode::SecNdpNearStorage, &cfg);
    assert!(near.speedup_vs(&host) > 1.5);
    assert!(near.bytes_over_host * 100 < host.bytes_over_host);
    let sls = WorkloadTrace::uniform_sls(1 << 28, 128, 40, 8, 2);
    let amp = simulate_storage(&sls, StorageMode::HostRead, &cfg)
        .read_amplification(sls.total_data_bytes(), cfg.page_bytes);
    assert!(amp > 50.0, "{amp}");
}

#[test]
fn ndp_reg_ablation_helps_sls_not_analytics() {
    // Paper §VII-A: more registers help irregular SLS; the analytics
    // workload has a single running sum, so extra registers do little.
    let mk = |reg| {
        SimConfig::paper_default(NdpConfig {
            ndp_rank: 8,
            ndp_reg: reg,
        })
    };
    let sls = sls_trace(&DlrmConfig::rmc1_small(), 80, 32, 3);
    let sls_r1 = simulate(&sls, Mode::UnprotectedNdp, &mk(1)).total_cycles;
    let sls_r8 = simulate(&sls, Mode::UnprotectedNdp, &mk(8)).total_cycles;
    assert!(
        (sls_r8 as f64) < sls_r1 as f64 * 0.95,
        "NDP_reg gave no SLS benefit: {sls_r1} -> {sls_r8}"
    );
    let scan = GeneDataset::perf_trace(100_000, 1024, 2_000, 4, 1);
    let scan_r1 = simulate(&scan, Mode::UnprotectedNdp, &mk(1)).total_cycles;
    let scan_r8 = simulate(&scan, Mode::UnprotectedNdp, &mk(8)).total_cycles;
    let ratio = scan_r1 as f64 / scan_r8 as f64;
    assert!(
        ratio < 1.3,
        "analytics should be register-insensitive, got {ratio:.2}×"
    );
}
