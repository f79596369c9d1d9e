//! Figure 10: percentage of NDP packets bottlenecked by decryption
//! bandwidth at NDP_rank=8, NDP_reg=8, per verification scheme and AES
//! engine count.
//!
//! Run with: `cargo run --release -p secndp-bench --bin fig10 [batch]`

use secndp_bench::{batch_from_args, headline_config, print_table, HEADLINE_PF};
use secndp_sim::config::VerifPlacement;
use secndp_sim::exec::{simulate, Mode};
use secndp_workloads::dlrm::model::{sls_trace, sls_trace_quantized};
use secndp_workloads::dlrm::DlrmConfig;

const AES_SWEEP: [usize; 6] = [2, 4, 8, 10, 12, 16];

fn main() {
    let batch = batch_from_args();
    let cfg = DlrmConfig::rmc1_small();
    let sim = headline_config();

    for (variant, quantized) in [("SLS 32-bit", false), ("SLS 8-bit quantized", true)] {
        let trace = if quantized {
            sls_trace_quantized(&cfg, HEADLINE_PF, batch, 7)
        } else {
            sls_trace(&cfg, HEADLINE_PF, batch, 7)
        };
        let mut schemes = vec![
            (Mode::SecNdpEnc, "Enc-only"),
            (Mode::SecNdpVer(VerifPlacement::Coloc), "Ver-coloc"),
            (Mode::SecNdpVer(VerifPlacement::Sep), "Ver-sep"),
        ];
        if !quantized {
            schemes.push((Mode::SecNdpVer(VerifPlacement::Ecc), "Ver-ECC"));
        }
        let mut rows = Vec::new();
        for (mode, label) in schemes {
            let mut row = vec![label.to_string()];
            for engines in AES_SWEEP {
                let r = simulate(&trace, mode, &sim.with_aes_engines(engines));
                row.push(format!("{:.0}%", 100.0 * r.aes_limited_fraction()));
            }
            rows.push(row);
        }
        let header: Vec<String> = std::iter::once("scheme".to_string())
            .chain(AES_SWEEP.iter().map(|n| format!("{n} AES")))
            .collect();
        let header_refs: Vec<&str> = header.iter().map(String::as_str).collect();
        print_table(
            &format!("Figure 10 ({variant}): % packets decryption-bottlenecked (rank=8, reg=8, batch={batch})"),
            &header_refs,
            &rows,
        );
    }

    println!("\npaper reference: Ver-ECC needs the most AES engines (tag pads add");
    println!("engine work but no DRAM traffic); with quantization far fewer engines");
    println!("are needed because less OTP material is required per packet.");
}
