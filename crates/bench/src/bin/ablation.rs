//! Design-choice ablations called out in DESIGN.md (not a paper figure):
//!
//! 1. **Address mapping** — column bits kept below the bank bits
//!    (`col_low_bits`): 0 stripes every line across bank groups (each
//!    128-byte embedding vector costs two activations), 2 keeps a 256-byte
//!    block per bank row (one activation per vector).
//! 2. **Controller scheduling** — FR-FCFS-style reordering vs strict
//!    in-order issue.
//! 3. **Checksum scheme** — single-`s` (Alg 2) vs multi-`s` (Alg 8): the
//!    forgery bound improves by `cnt_s` at the cost of `cnt_s` AES blocks of
//!    secret derivation per query (both printed here).
//! 4. **`NDP_reg`** — rank-level register count: more registers balance
//!    the irregular SLS lookups of a packet across ranks (simulated cycles).
//!
//! Run with: `cargo run --release -p secndp-bench --bin ablation [batch]`

use secndp_bench::{batch_from_args, print_table, HEADLINE_PF};
use secndp_core::checksum::ChecksumScheme;
use secndp_sim::config::{NdpConfig, SimConfig};
use secndp_sim::exec::{simulate, Mode};
use secndp_workloads::dlrm::model::sls_trace;
use secndp_workloads::dlrm::DlrmConfig;

fn main() {
    let batch = batch_from_args();
    let trace = sls_trace(&DlrmConfig::rmc1_small(), HEADLINE_PF, batch, 7);

    // ── 1. Mapping ablation. ────────────────────────────────────────────
    let mut rows = Vec::new();
    for col_low in [0u64, 1, 2, 3] {
        let mut cfg = SimConfig::paper_default(NdpConfig {
            ndp_rank: 8,
            ndp_reg: 8,
        });
        cfg.org.col_low_bits = col_low;
        let base = simulate(&trace, Mode::NonNdp, &cfg);
        let ndp = simulate(&trace, Mode::UnprotectedNdp, &cfg);
        rows.push(vec![
            format!("col_low_bits={col_low}"),
            format!("{}", base.total_cycles),
            format!("{}", ndp.total_cycles),
            format!("{:.2}x", ndp.speedup_vs(&base)),
            format!("{:.0}%", 100.0 * ndp.dram.hit_rate()),
        ]);
    }
    print_table(
        "Ablation 1: address-mapping column split (SLS 32-bit, rank=8)",
        &[
            "mapping",
            "non-NDP cyc",
            "NDP cyc",
            "speedup",
            "row-hit rate",
        ],
        &rows,
    );

    // ── 2. Scheduler ablation. ──────────────────────────────────────────
    let mut rows = Vec::new();
    for reorder in [true, false] {
        let mut cfg = SimConfig::paper_default(NdpConfig {
            ndp_rank: 8,
            ndp_reg: 8,
        });
        cfg.reorder = reorder;
        let base = simulate(&trace, Mode::NonNdp, &cfg);
        let ndp = simulate(&trace, Mode::UnprotectedNdp, &cfg);
        rows.push(vec![
            if reorder { "FR-FCFS" } else { "in-order" }.to_string(),
            format!("{}", base.total_cycles),
            format!("{}", ndp.total_cycles),
            format!("{:.2}x", ndp.speedup_vs(&base)),
        ]);
    }
    print_table(
        "Ablation 2: controller scheduling",
        &["scheduler", "non-NDP cyc", "NDP cyc", "speedup"],
        &rows,
    );

    // ── 3. Checksum-scheme forgery bounds (Alg 2 vs Alg 8). ────────────
    let mut rows = Vec::new();
    for (name, scheme) in [
        ("single-s (Alg 2)", ChecksumScheme::SingleS),
        ("multi-s cnt=2 (Alg 8)", ChecksumScheme::MultiS { cnt: 2 }),
        ("multi-s cnt=4 (Alg 8)", ChecksumScheme::MultiS { cnt: 4 }),
    ] {
        for m in [32usize, 1024] {
            let degree = scheme.effective_degree(m);
            // Forgery bound ≈ degree / q; report as security bits.
            let bits = 127.0 - (degree as f64).log2();
            rows.push(vec![
                name.to_string(),
                format!("m={m}"),
                format!("deg {degree}"),
                format!("{bits:.1} bits/query"),
                format!("{}", scheme.num_secrets()),
            ]);
        }
    }
    print_table(
        "Ablation 3: checksum scheme forgery bounds",
        &[
            "scheme",
            "row width",
            "poly degree",
            "security",
            "secret AES blocks/query",
        ],
        &rows,
    );
    println!(
        "\n(either scheme checksums a row as one dot product over an m-entry power \
         table, so per query they differ only in secret derivation)"
    );

    // ── 4. NDP_reg ablation (load balancing on irregular SLS). ─────────
    let mut rows = Vec::new();
    for reg in [1usize, 4, 8, 16] {
        let cfg = SimConfig::paper_default(NdpConfig {
            ndp_rank: 8,
            ndp_reg: reg,
        });
        let ndp = simulate(&trace, Mode::UnprotectedNdp, &cfg);
        rows.push(vec![
            format!("ndp_reg={reg}"),
            format!("{}", ndp.packets),
            format!("{}", ndp.total_cycles),
        ]);
    }
    print_table(
        "Ablation 4: NDP_reg (SLS 32-bit, rank=8)",
        &["registers", "packets", "NDP cyc"],
        &rows,
    );
}
