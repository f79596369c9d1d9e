//! Table V: memory-system energy (pJ per result bit) of each configuration
//! at PF = 80, normalized to the unprotected non-NDP baseline, plus the
//! SecNDP engine area estimate of §VII-C.
//!
//! Run with: `cargo run --release -p secndp-bench --bin table5 [pf]`

use secndp_bench::print_table;
use secndp_cipher::engine::{AesEngineModel, EngineConfig};
use secndp_sim::energy::table5;

fn main() {
    let pf: f64 = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(80.0);
    let rows = table5(pf);
    let printable: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                r.name.to_string(),
                format!("{:.2}", r.dimm),
                format!("{:.2}", r.io),
                format!("{:.2}", r.engine),
                format!("{:.2}%", 100.0 * r.normalized(pf)),
            ]
        })
        .collect();
    print_table(
        &format!("Table V: memory energy (pJ per result bit, PF={pf})"),
        &[
            "configuration",
            "DIMM",
            "DIMM IO",
            "SecNDP engine",
            "normalized",
        ],
        &printable,
    );
    println!("\npaper reference @PF=80: 100% / 79.2% / 101.5% / 81.83% / 92.09%");
    println!("(SecNDP saves 18% memory energy with encryption, 8% with verification)");

    // §VII-C: engine area at 45 nm with ten AES engines.
    let model = AesEngineModel::new(EngineConfig::paper_default(10));
    println!(
        "\nSecNDP engine area @45nm, 10 AES engines: {:.3} mm^2 (paper: 1.625 mm^2)",
        model.area_mm2()
    );
    println!(
        "one AES engine: {:.1} Gbps ({:.2} ns per 128-bit block)",
        AesEngineModel::new(EngineConfig::paper_default(1)).throughput_gbps(),
        EngineConfig::paper_default(1).ns_per_block
    );
}
