//! Figure 8: percentage of NDP packets bottlenecked by AES decryption
//! bandwidth for SLS operations, as a function of the number of AES
//! engines, for different NDP_rank values and both element widths.
//!
//! Run with: `cargo run --release -p secndp-bench --bin fig8 [batch]`

use secndp_bench::{batch_from_args, print_table, HEADLINE_PF};
use secndp_sim::config::{NdpConfig, SimConfig};
use secndp_sim::exec::{simulate, Mode};
use secndp_workloads::dlrm::model::{sls_trace, sls_trace_quantized};
use secndp_workloads::dlrm::DlrmConfig;

const AES_SWEEP: [usize; 6] = [1, 2, 4, 6, 8, 10];

fn main() {
    let batch = batch_from_args();
    let cfg = DlrmConfig::rmc1_small();

    for (variant, quantized) in [("SLS 32-bit", false), ("SLS 8-bit quantized", true)] {
        let mut rows = Vec::new();
        for rank in [2usize, 4, 8] {
            let sim = SimConfig::paper_default(NdpConfig {
                ndp_rank: rank,
                ndp_reg: 8,
            });
            let trace = if quantized {
                sls_trace_quantized(&cfg, HEADLINE_PF, batch, 7)
            } else {
                sls_trace(&cfg, HEADLINE_PF, batch, 7)
            };
            let mut row = vec![format!("rank={rank}")];
            for engines in AES_SWEEP {
                let r = simulate(&trace, Mode::SecNdpEnc, &sim.with_aes_engines(engines));
                row.push(format!("{:.0}%", 100.0 * r.aes_limited_fraction()));
            }
            rows.push(row);
        }
        let header: Vec<String> = std::iter::once("NDP_rank".to_string())
            .chain(AES_SWEEP.iter().map(|n| format!("{n} AES")))
            .collect();
        let header_refs: Vec<&str> = header.iter().map(String::as_str).collect();
        print_table(
            &format!("Figure 8 ({variant}): % packets bottlenecked by decryption (PF={HEADLINE_PF}, batch={batch})"),
            &header_refs,
            &rows,
        );
    }

    println!("\npaper reference: more NDP_rank needs more AES engines; ~10 engines");
    println!("match burst-mode memory throughput at rank=8; quantization cuts the");
    println!("engine requirement to about one third.");
}
