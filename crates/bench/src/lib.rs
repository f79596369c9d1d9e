//! Shared harness for the per-table / per-figure reproduction binaries.
//!
//! Each binary in `src/bin/` regenerates one table or figure of the paper:
//!
//! | binary | reproduces |
//! |--------|------------|
//! | `table3` | Table III — end-to-end speedups vs non-NDP, SGX reference |
//! | `fig7`   | Figure 7 — SLS/analytics speedup vs #AES engines × NDP knobs |
//! | `fig8`   | Figure 8 — % packets bottlenecked by decryption bandwidth |
//! | `fig9`   | Figure 9 — verification-tag placement comparison |
//! | `fig10`  | Figure 10 — decryption bottleneck per placement |
//! | `fig11`  | Figure 11 — end-to-end breakdown and batch scaling |
//! | `table4` | Table IV — quantization accuracy (LogLoss) |
//! | `table5` | Table V — memory energy, plus engine area (§VII-C) |
//! | `ablation` | DESIGN.md ablations: address mapping, scheduler, checksum scheme, `NDP_reg` |
//! | `simulate` | free-form CLI simulation (built-in workloads or trace files) |
//! | `service`  | open-loop load sweep with response-time percentiles |
//!
//! All binaries accept an optional first argument scaling the batch/query
//! count (default chosen so each binary finishes in seconds in release
//! mode; the paper's full batch of 256 can be requested explicitly).

use secndp_sim::config::{NdpConfig, SimConfig};
use secndp_sim::exec::{simulate, Mode, SimReport};
use secndp_sim::trace::WorkloadTrace;
use secndp_workloads::dlrm::model::{end_to_end_ns, sls_trace};
use secndp_workloads::dlrm::DlrmConfig;
use secndp_workloads::medical::GeneDataset;

/// Pooling factor used for the headline DLRM results (paper: PF = 80).
pub const HEADLINE_PF: usize = 80;

/// Default batch size for the harness (paper Table III uses 256; the
/// speedups are batch-insensitive for SLS-bound workloads, so the default
/// keeps runtimes short).
pub const DEFAULT_BATCH: usize = 64;

/// Flags that consume a following value (so the batch-size scan can skip
/// them in either `--flag value` or `--flag=value` form). No binary that
/// reads a batch size takes any other flag.
const VALUE_FLAGS: &[&str] = &[
    "--metrics-json",
    "--trace-out",
    "--profile-out",
    "--serve-metrics",
    "--hold-secs",
];

/// The batch size in `args`: the first bare number, skipping each known
/// flag and its value (so `--metrics-json out.json 256` and
/// `256 --trace-out trace.json` both work). An unknown `--flag` is an
/// error rather than skipped, so its value is never taken for the batch.
fn parse_batch(args: impl IntoIterator<Item = String>) -> Result<usize, String> {
    let mut args = args.into_iter();
    while let Some(a) = args.next() {
        if VALUE_FLAGS.contains(&a.as_str()) {
            let _ = args.next(); // skip the flag's value
            continue;
        }
        if a.starts_with("--") {
            let name = a.split_once('=').map_or(a.as_str(), |(name, _)| name);
            if VALUE_FLAGS.contains(&name) {
                continue;
            }
            return Err(format!("unknown flag {a}"));
        }
        if let Ok(v) = a.parse() {
            return Ok(v);
        }
    }
    Ok(DEFAULT_BATCH)
}

/// Parses the optional batch-size CLI argument (see [`parse_batch`]);
/// prints an unknown flag and exits with status 2.
pub fn batch_from_args() -> usize {
    parse_batch(std::env::args().skip(1)).unwrap_or_else(|e| {
        eprintln!("{e}");
        std::process::exit(2)
    })
}

/// The path given via `--<flag> <path>` (or `--<flag>=<path>`), if any.
fn flag_path(flag: &str) -> Option<std::path::PathBuf> {
    let prefixed = format!("{flag}=");
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        if a == flag {
            return args.next().map(std::path::PathBuf::from);
        }
        if let Some(p) = a.strip_prefix(&prefixed) {
            return Some(std::path::PathBuf::from(p));
        }
    }
    None
}

/// The path given via `--metrics-json <path>` (or `--metrics-json=<path>`),
/// if any.
pub fn metrics_json_path() -> Option<std::path::PathBuf> {
    flag_path("--metrics-json")
}

/// The path given via `--trace-out <path>` (or `--trace-out=<path>`), if
/// any.
pub fn trace_out_path() -> Option<std::path::PathBuf> {
    flag_path("--trace-out")
}

/// The path given via `--profile-out <path>` (or `--profile-out=<path>`),
/// if any.
pub fn profile_out_path() -> Option<std::path::PathBuf> {
    flag_path("--profile-out")
}

/// Parses `--<flag> <v>` / `--<flag>=<v>` from an argument stream.
/// Public so single-purpose binaries (e.g. the chaos `soak` driver) can
/// reuse it for their own flags.
pub fn parse_value_flag<T: std::str::FromStr>(
    flag: &str,
    args: impl Iterator<Item = String>,
) -> Option<T> {
    let prefixed = format!("{flag}=");
    let mut args = args.peekable();
    while let Some(a) = args.next() {
        if a == flag {
            return args.next().and_then(|v| v.parse().ok());
        }
        if let Some(v) = a.strip_prefix(&prefixed) {
            return v.parse().ok();
        }
    }
    None
}

/// The live-scrape address for the `service` bench, via
/// `--serve-metrics <addr>` (or `--serve-metrics=<addr>`), falling back to
/// the `SECNDP_METRICS_ADDR` environment variable. `None` leaves the
/// scrape server off.
pub fn serve_metrics_addr() -> Option<String> {
    parse_value_flag("--serve-metrics", std::env::args().skip(1))
        .or_else(|| std::env::var("SECNDP_METRICS_ADDR").ok())
}

/// How long the `service` bench should stay alive (serving scrapes) after
/// the sweep completes, via `--hold-secs <n>`, if any. Used by the CI
/// health-smoke job to keep `/healthz` up while it curls.
pub fn hold_secs_from_args() -> Option<u64> {
    parse_value_flag("--hold-secs", std::env::args().skip(1))
}

/// Writes the global telemetry registry as JSON to the `--metrics-json`
/// path, when the flag is present. Every reproduction binary calls this
/// once on exit; without the flag (or with telemetry compiled out, which
/// yields an empty snapshot) it does nothing observable beyond the write.
pub fn write_metrics_json_if_requested() {
    if let Some(path) = metrics_json_path() {
        let json = secndp_telemetry::global().render_json();
        match std::fs::write(&path, &json) {
            Ok(()) => println!("\nmetrics snapshot written to {}", path.display()),
            Err(e) => eprintln!("failed to write {}: {e}", path.display()),
        }
    }
}

/// Writes the continuous profile as flamegraph-ready collapsed-stack text
/// to the `--profile-out` path, when the flag is present (pipe the file
/// through `flamegraph.pl` or drop it into <https://www.speedscope.app>).
/// Folds whatever is still pending in the span journal first, so the dump
/// covers every completed span. With telemetry compiled out the file is
/// empty but valid.
pub fn write_profile_if_requested() {
    if let Some(path) = profile_out_path() {
        let profiler = secndp_telemetry::profile::profiler();
        profiler.fold(secndp_telemetry::trace::journal());
        let collapsed = profiler.render_collapsed();
        match std::fs::write(&path, &collapsed) {
            Ok(()) => println!(
                "collapsed-stack profile written to {} ({} stacks)",
                path.display(),
                collapsed.lines().count()
            ),
            Err(e) => eprintln!("failed to write {}: {e}", path.display()),
        }
    }
}

/// Writes the span journal as Chrome `trace_event` JSON to the
/// `--trace-out` path, when the flag is present (open the file in
/// `chrome://tracing` or <https://ui.perfetto.dev>). Like
/// [`write_metrics_json_if_requested`], every reproduction binary calls
/// this once on exit; with tracing compiled out the file is a valid empty
/// trace.
pub fn write_trace_if_requested() {
    if let Some(path) = trace_out_path() {
        let journal = secndp_telemetry::trace::journal();
        let json = journal.render_chrome_trace();
        match std::fs::write(&path, &json) {
            Ok(()) => {
                println!(
                    "trace written to {} ({} events, {} dropped)",
                    path.display(),
                    journal.recorded() - journal.dropped(),
                    journal.dropped()
                );
            }
            Err(e) => eprintln!("failed to write {}: {e}", path.display()),
        }
    }
}

/// The medical-analytics trace at paper scale: m = 1024 genes, PF = 10 000
/// patients (40 MB per query).
pub fn analytics_trace(queries: usize) -> WorkloadTrace {
    GeneDataset::perf_trace(500_000, 1024, 10_000, queries, 0xA11A)
}

/// The Table II / §VII-A system: `NDP_rank = 8`, `NDP_reg = 8`, 12 AES
/// engines.
pub fn headline_config() -> SimConfig {
    SimConfig::paper_default(NdpConfig {
        ndp_rank: 8,
        ndp_reg: 8,
    })
    .with_aes_engines(12)
}

/// Simulates one trace under several modes against a shared non-NDP
/// baseline, returning `(mode, report, speedup)` rows.
pub fn speedups(
    trace: &WorkloadTrace,
    cfg: &SimConfig,
    modes: &[Mode],
) -> (SimReport, Vec<(Mode, SimReport, f64)>) {
    let base = simulate(trace, Mode::NonNdp, cfg);
    let rows = modes
        .iter()
        .map(|&m| {
            let r = simulate(trace, m, cfg);
            let s = r.speedup_vs(&base);
            (m, r, s)
        })
        .collect();
    (base, rows)
}

/// End-to-end DLRM time (CPU MLP portion + SLS portion) under one SLS
/// execution mode, in nanoseconds.
pub fn dlrm_end_to_end_ns(
    cfg: &DlrmConfig,
    sim: &SimConfig,
    mode: Mode,
    pf: usize,
    batch: usize,
    in_tee: bool,
) -> f64 {
    let trace = sls_trace(cfg, pf, batch, 0x5105);
    let sls = simulate(&trace, mode, sim).total_ns();
    end_to_end_ns(cfg, batch, sls, in_tee)
}

/// Prints a header row followed by aligned columns.
pub fn print_table(title: &str, header: &[&str], rows: &[Vec<String>]) {
    println!("\n=== {title} ===");
    let mut widths: Vec<usize> = header.iter().map(|h| h.len()).collect();
    for row in rows {
        for (w, cell) in widths.iter_mut().zip(row) {
            *w = (*w).max(cell.len());
        }
    }
    let fmt_row = |cells: &[String]| {
        cells
            .iter()
            .zip(&widths)
            .map(|(c, w)| format!("{c:>w$}"))
            .collect::<Vec<_>>()
            .join("  ")
    };
    println!(
        "{}",
        fmt_row(&header.iter().map(|s| s.to_string()).collect::<Vec<_>>())
    );
    for row in rows {
        println!("{}", fmt_row(row));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_batch_rejects_unknown_flags() {
        let parse = |args: &[&str]| parse_batch(args.iter().map(|s| s.to_string()));
        assert!(parse(&["--transport-ranks", "8"]).is_err());
        assert_eq!(parse(&["--trace-out", "t.json", "32"]), Ok(32));
        assert_eq!(parse(&["--hold-secs=5", "64"]), Ok(64));
        assert_eq!(parse(&[]), Ok(DEFAULT_BATCH));
    }

    #[test]
    fn serve_and_hold_flag_forms() {
        let parse_addr = |args: &[&str]| -> Option<String> {
            parse_value_flag("--serve-metrics", args.iter().map(|s| s.to_string()))
        };
        assert_eq!(
            parse_addr(&["--serve-metrics", "127.0.0.1:9184"]).as_deref(),
            Some("127.0.0.1:9184")
        );
        assert_eq!(
            parse_addr(&["64", "--serve-metrics=0.0.0.0:0"]).as_deref(),
            Some("0.0.0.0:0")
        );
        assert_eq!(parse_addr(&["--hold-secs", "30"]), None);
        let parse_hold = |args: &[&str]| -> Option<u64> {
            parse_value_flag("--hold-secs", args.iter().map(|s| s.to_string()))
        };
        assert_eq!(parse_hold(&["--hold-secs", "30"]), Some(30));
        assert_eq!(parse_hold(&["--hold-secs=5"]), Some(5));
        assert_eq!(parse_hold(&["--hold-secs", "soon"]), None);
    }

    #[test]
    fn analytics_trace_shape() {
        let t = analytics_trace(2);
        assert_eq!(t.queries.len(), 2);
        assert_eq!(t.total_data_bytes(), 2 * 10_000 * 4096);
    }

    #[test]
    fn speedups_run_all_modes() {
        let t = WorkloadTrace::uniform_sls(1 << 22, 128, 20, 8, 1);
        let cfg = headline_config();
        let (base, rows) = speedups(&t, &cfg, &[Mode::UnprotectedNdp, Mode::SecNdpEnc]);
        assert!(base.total_cycles > 0);
        assert_eq!(rows.len(), 2);
        assert!(rows.iter().all(|(_, _, s)| *s > 1.0));
    }

    #[test]
    fn end_to_end_is_positive_and_tee_slower() {
        let cfg = DlrmConfig::rmc1_small();
        let sim = headline_config();
        let plain = dlrm_end_to_end_ns(&cfg, &sim, Mode::UnprotectedNdp, 20, 4, false);
        let tee = dlrm_end_to_end_ns(&cfg, &sim, Mode::SecNdpEnc, 20, 4, true);
        assert!(plain > 0.0);
        assert!(tee >= plain * 0.99);
    }
}
