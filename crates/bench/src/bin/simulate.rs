//! Standalone simulator CLI: run any workload (built-in generator or a
//! trace file) under any mode and system configuration.
//!
//! ```text
//! cargo run --release -p secndp-bench --bin simulate -- \
//!     [workload=sls|prod|scan|FILE.trace] [rank=8] [reg=8] [aes=12] \
//!     [pf=80] [queries=64] [rows=128] [mode=all|nonndp|ndp|enc|ecc|coloc|sep]
//! ```
//!
//! Trace files use the `secndp-trace v1` format (see
//! `secndp_sim::trace_io`).

use secndp_bench::print_table;
use secndp_sim::config::{NdpConfig, SimConfig, VerifPlacement};
use secndp_sim::energy::EnergyModel;
use secndp_sim::exec::{simulate, Mode};
use secndp_sim::trace::WorkloadTrace;
use secndp_sim::trace_io;

fn parse_args() -> std::collections::HashMap<String, String> {
    std::env::args()
        .skip(1)
        .filter_map(|a| {
            a.split_once('=')
                .map(|(k, v)| (k.to_string(), v.to_string()))
        })
        .collect()
}

fn main() {
    let args = parse_args();
    let get = |k: &str, default: usize| -> usize {
        args.get(k).and_then(|v| v.parse().ok()).unwrap_or(default)
    };
    let rank = get("rank", 8);
    let reg = get("reg", 8);
    let aes = get("aes", 12);
    let pf = get("pf", 80);
    let queries = get("queries", 64);
    let row_bytes = get("rows", 128) as u64;

    let workload = args.get("workload").map(String::as_str).unwrap_or("sls");
    let trace: WorkloadTrace = match workload {
        "sls" => WorkloadTrace::uniform_sls(1 << 30, row_bytes, pf, queries, 7),
        "prod" => WorkloadTrace::production_sls(1 << 30, row_bytes, 50..=100, queries, 7),
        "scan" => WorkloadTrace::sequential_scan(1 << 30, 4096, pf.max(64), queries, 7),
        path => {
            let text = match std::fs::read_to_string(path) {
                Ok(t) => t,
                Err(e) => {
                    eprintln!("cannot read trace file `{path}`: {e}");
                    std::process::exit(1);
                }
            };
            match trace_io::from_text(&text) {
                Ok(t) => t,
                Err(e) => {
                    eprintln!("cannot parse `{path}`: {e}");
                    std::process::exit(1);
                }
            }
        }
    };

    let mut cfg = SimConfig::paper_default(NdpConfig {
        ndp_rank: rank,
        ndp_reg: reg,
    })
    .with_aes_engines(aes);
    let channels = get("channels", 1);
    if channels > 1 {
        cfg.org.channels = channels;
        cfg.org.ranks = rank.div_ceil(channels).max(1);
    }

    let modes: Vec<Mode> = match args.get("mode").map(String::as_str).unwrap_or("all") {
        "nonndp" => vec![Mode::NonNdp],
        "tee" => vec![Mode::NonNdpMacTee],
        "ndp" => vec![Mode::UnprotectedNdp],
        "enc" => vec![Mode::SecNdpEnc],
        "ecc" => vec![Mode::SecNdpVer(VerifPlacement::Ecc)],
        "coloc" => vec![Mode::SecNdpVer(VerifPlacement::Coloc)],
        "sep" => vec![Mode::SecNdpVer(VerifPlacement::Sep)],
        _ => vec![
            Mode::NonNdp,
            Mode::NonNdpMacTee,
            Mode::UnprotectedNdp,
            Mode::SecNdpEnc,
            Mode::SecNdpVer(VerifPlacement::Ecc),
            Mode::SecNdpVer(VerifPlacement::Coloc),
            Mode::SecNdpVer(VerifPlacement::Sep),
        ],
    };

    println!(
        "workload: {} queries, {} row reads, {:.1} MiB touched; system: rank={rank} reg={reg} aes={aes}",
        trace.queries.len(),
        trace.total_row_accesses(),
        trace.total_data_bytes() as f64 / (1 << 20) as f64,
    );

    let base = simulate(&trace, Mode::NonNdp, &cfg);
    let energy = EnergyModel;
    let rows: Vec<Vec<String>> = modes
        .iter()
        .map(|&mode| {
            let r = simulate(&trace, mode, &cfg);
            let e = energy.from_report(&r);
            let pct = |p: f64| {
                r.latency_percentile(p)
                    .map_or_else(|| "-".into(), |c| format!("{c}"))
            };
            vec![
                mode.to_string(),
                format!("{}", r.total_cycles),
                format!("{:.1}", r.total_ns() / 1000.0),
                format!("{:.2}x", r.speedup_vs(&base)),
                format!("{:.0}%", 100.0 * r.aes_limited_fraction()),
                format!("{:.0}%", 100.0 * r.dram.hit_rate()),
                format!("{:.2}", r.rank_imbalance),
                pct(0.5),
                pct(0.99),
                format!("{:.1}", e.total_pj() / 1e6),
            ]
        })
        .collect();
    print_table(
        "simulation results",
        &[
            "mode",
            "cycles",
            "µs",
            "speedup",
            "AES-lim",
            "row hits",
            "imbalance",
            "p50 cyc",
            "p99 cyc",
            "energy µJ",
        ],
        &rows,
    );
}
