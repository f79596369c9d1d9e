//! Figure 7: speedup of unprotected NDP (red bars) and SecNDP-Enc with
//! varying numbers of AES engines (green bars) over the unprotected
//! non-NDP baseline, across NDP settings (NDP_rank, NDP_reg), for
//! 32-bit SLS, 8-bit quantized SLS, and the data-analytics workload.
//!
//! Run with: `cargo run --release -p secndp-bench --bin fig7 [batch]`

use secndp_bench::{analytics_trace, batch_from_args, print_table, HEADLINE_PF};
use secndp_sim::config::{NdpConfig, SimConfig};
use secndp_sim::exec::{simulate, Mode};
use secndp_sim::trace::WorkloadTrace;
use secndp_workloads::dlrm::model::{
    sls_trace, sls_trace_production, sls_trace_quantized, sls_trace_quantized_rowwise,
};
use secndp_workloads::dlrm::DlrmConfig;

const NDP_SETTINGS: [(usize, usize); 3] = [(2, 4), (4, 8), (8, 8)];
const AES_SWEEP: [usize; 4] = [2, 4, 8, 16];

fn sweep(name: &str, traces: &[(&str, WorkloadTrace)]) {
    let mut rows = Vec::new();
    for &(rank, reg) in &NDP_SETTINGS {
        let cfg = SimConfig::paper_default(NdpConfig {
            ndp_rank: rank,
            ndp_reg: reg,
        });
        for (label, trace) in traces {
            let base = simulate(trace, Mode::NonNdp, &cfg);
            let ndp = simulate(trace, Mode::UnprotectedNdp, &cfg);
            let mut row = vec![
                format!("({rank},{reg})"),
                label.to_string(),
                format!("{:.2}x", ndp.speedup_vs(&base)),
            ];
            for engines in AES_SWEEP {
                let c = cfg.with_aes_engines(engines);
                let sec = simulate(trace, Mode::SecNdpEnc, &c);
                row.push(format!("{:.2}x", sec.speedup_vs(&base)));
            }
            rows.push(row);
        }
    }
    let header: Vec<String> = ["(rank,reg)", "variant", "unprot NDP"]
        .iter()
        .map(|s| s.to_string())
        .chain(AES_SWEEP.iter().map(|n| format!("Enc {n}AES")))
        .collect();
    let header_refs: Vec<&str> = header.iter().map(String::as_str).collect();
    print_table(name, &header_refs, &rows);
}

fn main() {
    let batch = batch_from_args();
    let cfg = DlrmConfig::rmc1_small();

    // SLS, 32-bit elements (128-byte rows).
    let t32 = sls_trace(&cfg, HEADLINE_PF, batch, 7);
    // SLS, 8-bit quantized. Column/table-wise keep the SLS linear; the
    // row-wise scheme cannot run over ciphertext, so its SecNDP columns
    // apply to the column/table-wise trace only (footnote 5 of the paper).
    let t8 = sls_trace_quantized(&cfg, HEADLINE_PF, batch, 7);
    // Production-like trace: Zipfian popularity, PF ∈ [50, 100].
    let tprod = sls_trace_production(&cfg, batch, 7);
    sweep(
        &format!("Figure 7a: SLS 32-bit (RMC1-small, PF={HEADLINE_PF}, batch={batch})"),
        &[("SLS-32b", t32), ("SLS-prod", tprod)],
    );
    sweep(
        &format!("Figure 7b: SLS 8-bit col/table-wise quantization (batch={batch})"),
        &[("SLS-8b", t8)],
    );
    // Row-wise quantization: baseline and native-NDP bars only — the
    // per-row scale breaks linearity over ciphertext (footnote 5), so the
    // SecNDP columns for this variant are not meaningful (shown for the
    // sweep's completeness; the paper likewise only draws (row_quan) bars
    // for the unprotected settings).
    let trow = sls_trace_quantized_rowwise(&cfg, HEADLINE_PF, batch, 7);
    sweep(
        &format!("Figure 7b': SLS 8-bit row-wise quantization, unprotected bars (batch={batch})"),
        &[("SLS-8b-row", trow)],
    );

    // Data analytics.
    let ta = analytics_trace((batch / 16).max(2));
    sweep(
        "Figure 7c: medical data analytics (m=1024, PF=10000)",
        &[("analytics", ta)],
    );

    println!("\npaper reference: NDP speedup up to 5.59x (6.89x quantized) for SLS,");
    println!("7.46x for analytics; SecNDP-Enc approaches unprotected NDP once the");
    println!("AES-engine count matches the NDP memory throughput.");
}
