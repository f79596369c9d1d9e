//! Figure 9: speedup of the SecNDP encryption and verification variants
//! (Enc-only, Ver-coloc, Ver-sep, Ver-ECC) over the unprotected non-NDP
//! baseline, at NDP_rank=8, NDP_reg=8 with twelve AES engines.
//!
//! Run with: `cargo run --release -p secndp-bench --bin fig9 [batch]`

use secndp_bench::{
    analytics_trace, batch_from_args, headline_config, print_table, speedups, HEADLINE_PF,
};
use secndp_sim::config::VerifPlacement;
use secndp_sim::exec::Mode;
use secndp_workloads::dlrm::model::{sls_trace, sls_trace_quantized};
use secndp_workloads::dlrm::DlrmConfig;

fn main() {
    let batch = batch_from_args();
    let sim = headline_config();
    let cfg = DlrmConfig::rmc1_small();

    let workloads = [
        ("SLS 32-bit", sls_trace(&cfg, HEADLINE_PF, batch, 7), false),
        (
            "SLS 8-bit quant",
            sls_trace_quantized(&cfg, HEADLINE_PF, batch, 7),
            true,
        ),
        (
            "data analytics",
            analytics_trace((batch / 16).max(2)),
            false,
        ),
    ];

    let mut rows = Vec::new();
    for (name, trace, quantized) in &workloads {
        let mut modes = vec![
            Mode::UnprotectedNdp,
            Mode::SecNdpEnc,
            Mode::SecNdpVer(VerifPlacement::Coloc),
            Mode::SecNdpVer(VerifPlacement::Sep),
        ];
        // Quantized rows: tags no longer fit the ECC chip (paper §VII-A).
        if !quantized {
            modes.push(Mode::SecNdpVer(VerifPlacement::Ecc));
        }
        let (_, results) = speedups(trace, &sim, &modes);
        let mut row = vec![name.to_string()];
        for (mode, _, s) in &results {
            row.push(format!("{mode}: {s:.2}x"));
        }
        if *quantized {
            row.push("Ver-ECC: N/A".into());
        }
        rows.push(row);
    }
    print_table(
        &format!("Figure 9: verification variants (rank=8, reg=8, 12 AES engines, batch={batch})"),
        &[
            "workload",
            "NDP",
            "Enc-only",
            "Ver-coloc",
            "Ver-sep",
            "Ver-ECC",
        ],
        &rows,
    );
    println!("\npaper reference: Ver-ECC matches Enc-only; Ver-coloc close behind");
    println!("(misaligned rows); Ver-sep worst (~40% degradation: extra row");
    println!("activation per tag fetch); analytics barely affected (large rows).");
}
