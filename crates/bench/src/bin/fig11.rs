//! Figure 11: (top) normalized end-to-end execution time of SecNDP with the
//! CPU-TEE and NDP portions broken out; (bottom) end-to-end inference
//! speedup across batch sizes.
//!
//! Run with: `cargo run --release -p secndp-bench --bin fig11`

use secndp_bench::{headline_config, print_table, HEADLINE_PF};
use secndp_sim::config::VerifPlacement;
use secndp_sim::exec::{simulate, Mode};
use secndp_workloads::dlrm::model::{cpu_portion_ns, end_to_end_ns, sls_trace, TEE_CPU_FACTOR};
use secndp_workloads::dlrm::DlrmConfig;

fn main() {
    let sim = headline_config();
    let mode = Mode::SecNdpVer(VerifPlacement::Ecc);

    // ── Top: execution-time breakdown at batch = 64. ────────────────────
    let batch = 64;
    let mut rows = Vec::new();
    for cfg in DlrmConfig::all() {
        let trace = sls_trace(&cfg, HEADLINE_PF, batch, 3);
        let base_sls = simulate(&trace, Mode::NonNdp, &sim).total_ns();
        let base_cpu = cpu_portion_ns(&cfg, batch);
        let base_total = base_cpu + base_sls;
        let sec_sls = simulate(&trace, mode, &sim).total_ns();
        let sec_cpu = base_cpu * TEE_CPU_FACTOR;
        rows.push(vec![
            cfg.name.to_string(),
            format!("{:.0}%", 100.0 * base_cpu / base_total),
            format!("{:.0}%", 100.0 * base_sls / base_total),
            format!("{:.0}%", 100.0 * sec_cpu / base_total),
            format!("{:.0}%", 100.0 * sec_sls / base_total),
            format!("{:.2}x", base_total / (sec_cpu + sec_sls)),
        ]);
    }
    print_table(
        &format!("Figure 11 (top): normalized execution time, batch={batch}, PF={HEADLINE_PF}"),
        &[
            "model",
            "base CPU",
            "base SLS",
            "SecNDP CPU",
            "SecNDP SLS",
            "e2e speedup",
        ],
        &rows,
    );

    // ── Bottom: speedup vs batch size. ──────────────────────────────────
    let mut rows = Vec::new();
    for cfg in [DlrmConfig::rmc1_small(), DlrmConfig::rmc2_large()] {
        let mut row = vec![cfg.name.to_string()];
        for batch in [16usize, 32, 64, 128, 256] {
            let trace = sls_trace(&cfg, HEADLINE_PF, batch, 3);
            let base = end_to_end_ns(
                &cfg,
                batch,
                simulate(&trace, Mode::NonNdp, &sim).total_ns(),
                false,
            );
            let sec = end_to_end_ns(&cfg, batch, simulate(&trace, mode, &sim).total_ns(), true);
            row.push(format!("{:.2}x", base / sec));
        }
        rows.push(row);
    }
    print_table(
        "Figure 11 (bottom): end-to-end speedup vs batch size",
        &["model", "b=16", "b=32", "b=64", "b=128", "b=256"],
        &rows,
    );
    println!("\npaper reference: 2.3x–4.3x end-to-end at batch=256; speedup grows");
    println!("with batch size (SGX, by contrast, does not scale with batch).");
}
