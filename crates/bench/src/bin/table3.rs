//! Table III: end-to-end speedup of unprotected NDP, SGX (CFL/ICL) and
//! SecNDP over the unprotected non-NDP baseline, for the four DLRM
//! configurations and the medical-analytics workload.
//!
//! Run with: `cargo run --release -p secndp-bench --bin table3 [batch]`

use secndp_bench::{
    analytics_trace, batch_from_args, dlrm_end_to_end_ns, headline_config, print_table, HEADLINE_PF,
};
use secndp_sim::config::VerifPlacement;
use secndp_sim::exec::{simulate, Mode};
use secndp_sim::sgx::SgxModel;
use secndp_workloads::dlrm::DlrmConfig;

fn main() {
    let batch = batch_from_args();
    let sim = headline_config();
    let secndp_mode = Mode::SecNdpVer(VerifPlacement::Ecc); // paper: Ver-ECC
    let mut rows = Vec::new();

    for cfg in DlrmConfig::all() {
        let base = dlrm_end_to_end_ns(&cfg, &sim, Mode::NonNdp, HEADLINE_PF, batch, false);
        let ndp = dlrm_end_to_end_ns(&cfg, &sim, Mode::UnprotectedNdp, HEADLINE_PF, batch, false);
        let sec = dlrm_end_to_end_ns(&cfg, &sim, secndp_mode, HEADLINE_PF, batch, true);
        let ws = cfg.total_emb_bytes;
        let (cfl, icl) = if cfg.name.starts_with("RMC1") {
            (
                format!("{:.4}x", SgxModel::cfl().relative_performance(ws)),
                format!("{:.2}x", SgxModel::icl().relative_performance(ws)),
            )
        } else {
            // The paper could not fit RMC2 in the SGX malloc limit.
            ("N/A".into(), "N/A".into())
        };
        rows.push(vec![
            cfg.name.to_string(),
            "1x".into(),
            format!("{:.2}x", base / ndp),
            cfl,
            icl,
            format!("{:.2}x", base / sec),
        ]);
    }

    // Medical data analytics: pure NDP-portion workload, 40 MB working set.
    let queries = (batch / 16).max(2);
    let trace = analytics_trace(queries);
    let base = simulate(&trace, Mode::NonNdp, &sim);
    let ndp = simulate(&trace, Mode::UnprotectedNdp, &sim);
    let sec = simulate(&trace, secndp_mode, &sim);
    rows.push(vec![
        "Data Analytics".into(),
        "1x".into(),
        format!("{:.2}x", ndp.speedup_vs(&base)),
        format!("{:.4}x", SgxModel::cfl().relative_performance(40 << 20)),
        format!("{:.2}x", SgxModel::icl().relative_performance(40 << 20)),
        format!("{:.2}x", sec.speedup_vs(&base)),
    ]);

    print_table(
        &format!("Table III: speedup vs unprotected non-NDP (batch={batch}, PF={HEADLINE_PF}, NDP_rank=8, NDP_reg=8, Ver-ECC)"),
        &["workload", "non-NDP", "unprot NDP", "SGX-CFL", "SGX-ICL", "SecNDP"],
        &rows,
    );
    println!("\npaper reference: unprot NDP {{2.46, 3.11, 4.05, 4.44, 7.46}}x;");
    println!("SGX-CFL 0.0038x / 0.1738x; SGX-ICL ~0.59x; SecNDP {{2.36, 3.02, 3.95, 4.33, 7.46}}x");
}
