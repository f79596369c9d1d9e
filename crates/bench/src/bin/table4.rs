//! Table IV: accuracy (LogLoss) of the precision/quantization schemes on a
//! synthetic production-like recommendation model with 40 K samples.
//!
//! Run with: `cargo run --release -p secndp-bench --bin table4 [samples]`

use secndp_bench::print_table;
use secndp_workloads::dlrm::accuracy::table4;

fn main() {
    let nsamples = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(40_000);
    let rows = table4(nsamples, 0x7AB4);
    let printable: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                r.precision.to_string(),
                format!("{:.5}", r.logloss),
                if r.degradation == 0.0 {
                    "0".to_string()
                } else if r.degradation.abs() < 1e-5 {
                    format!("{:+.1e}", r.degradation)
                } else {
                    format!("{:+.3}%", 100.0 * r.degradation)
                },
            ]
        })
        .collect();
    print_table(
        &format!("Table IV: accuracy of quantization schemes ({nsamples} samples)"),
        &["configuration", "LogLoss", "degradation"],
        &printable,
    );
    println!("\npaper reference: fp32 0.64013; 32-bit fixed −3.6e−10; table-wise");
    println!("8-bit +0.07%; column-wise 8-bit +0.02% (row-wise not reported —");
    println!("it cannot run over ciphertext).");

    // Footprint context (paper Fig 6: quantization reduces memory
    // footprint — 2 cache lines to ~0.5 per vector).
    use secndp_arith::quant::{Granularity, Quantized8};
    let rows = 4096;
    let cols = 32;
    let matrix: Vec<f32> = (0..rows * cols).map(|x| (x as f32 * 0.37).sin()).collect();
    let fp32 = rows * cols * 4;
    println!(
        "\nmemory footprint, {rows}×{cols} table: fp32 {} KiB",
        fp32 / 1024
    );
    for g in [
        Granularity::TableWise,
        Granularity::ColumnWise,
        Granularity::RowWise,
    ] {
        let q = Quantized8::quantize(&matrix, rows, cols, g);
        println!(
            "  8-bit {g:<12} {} KiB ({:.1}x smaller)",
            q.footprint_bytes() / 1024,
            fp32 as f64 / q.footprint_bytes() as f64
        );
    }
}
