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
//!
//! All binaries accept an optional first argument scaling the batch/query
//! count (default chosen so each binary finishes in seconds in release
//! mode; the paper's full batch of 256 can be requested explicitly).
//!
//! The one binary that runs the real protocol, the chaos `soak` driver,
//! parses its flags with [`Flags`] and writes the telemetry files it is
//! asked for with the `write_*_if_requested` helpers.

use std::path::Path;

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

/// The batch size in `args`: the first bare number. No binary that reads
/// a batch size takes a flag, so any `--flag` is an error rather than
/// skipped, and its value is never taken for the batch.
fn parse_batch(args: impl IntoIterator<Item = String>) -> Result<usize, String> {
    for a in args {
        if a.starts_with("--") {
            return Err(format!("unknown flag {a}"));
        }
        if let Ok(v) = a.parse() {
            return Ok(v);
        }
    }
    Ok(DEFAULT_BATCH)
}

/// Parses the optional batch-size CLI argument: the first bare number, or
/// [`DEFAULT_BATCH`] without one. Prints an unknown flag and exits with
/// status 2.
pub fn batch_from_args() -> usize {
    parse_batch(std::env::args().skip(1)).unwrap_or_else(|e| {
        eprintln!("{e}");
        std::process::exit(2)
    })
}

/// The `--flag value` / `--flag=value` pairs of a binary that takes only
/// named flags (the chaos `soak` driver), checked against the flags it
/// knows.
#[derive(Debug)]
pub struct Flags(Vec<(String, String)>);

impl Flags {
    /// Parses `args` against `known`. An unknown flag, a bare word, a flag
    /// given twice or a flag without a value is an error, so a typo never
    /// leaves a default in force unnoticed.
    pub fn parse(args: impl IntoIterator<Item = String>, known: &[&str]) -> Result<Self, String> {
        let mut args = args.into_iter();
        let mut pairs: Vec<(String, String)> = Vec::new();
        while let Some(a) = args.next() {
            let (name, value) = match a.split_once('=') {
                Some((name, value)) => (name.to_string(), Some(value.to_string())),
                None => (a.clone(), None),
            };
            if !known.contains(&name.as_str()) {
                return Err(format!("unknown argument {a}"));
            }
            if pairs.iter().any(|(n, _)| *n == name) {
                return Err(format!("{name} given twice"));
            }
            let value = value
                .or_else(|| args.next())
                .ok_or_else(|| format!("{name} needs a value"))?;
            pairs.push((name, value));
        }
        Ok(Self(pairs))
    }

    /// The value of `flag` parsed as a `T`: `None` when the flag is absent,
    /// an error when its value does not parse.
    pub fn get<T: std::str::FromStr>(&self, flag: &str) -> Result<Option<T>, String> {
        self.0
            .iter()
            .find(|(name, _)| name == flag)
            .map(|(_, v)| {
                v.parse()
                    .map_err(|_| format!("{flag} {v}: not a valid value"))
            })
            .transpose()
    }
}

/// Writes the global telemetry registry as JSON to `path` (a
/// `--metrics-json` value), when given. With telemetry compiled out the
/// snapshot is empty but valid.
pub fn write_metrics_json_if_requested(path: Option<&Path>) {
    if let Some(path) = path {
        let json = secndp_telemetry::global().render_json();
        match std::fs::write(path, &json) {
            Ok(()) => println!("\nmetrics snapshot written to {}", path.display()),
            Err(e) => eprintln!("failed to write {}: {e}", path.display()),
        }
    }
}

/// Writes the continuous profile as flamegraph-ready collapsed-stack text
/// to `path` (a `--profile-out` value), when given (pipe the file
/// through `flamegraph.pl` or drop it into <https://www.speedscope.app>).
/// Folds whatever is still pending in the span journal first, so the dump
/// covers every completed span. With telemetry compiled out the file is
/// empty but valid.
pub fn write_profile_if_requested(path: Option<&Path>) {
    if let Some(path) = path {
        let profiler = secndp_telemetry::profile::profiler();
        profiler.fold(secndp_telemetry::trace::journal());
        let collapsed = profiler.render_collapsed();
        match std::fs::write(path, &collapsed) {
            Ok(()) => println!(
                "collapsed-stack profile written to {} ({} stacks)",
                path.display(),
                collapsed.lines().count()
            ),
            Err(e) => eprintln!("failed to write {}: {e}", path.display()),
        }
    }
}

/// Writes the span journal as Chrome `trace_event` JSON to `path` (a
/// `--trace-out` value), when given (open the file in
/// `chrome://tracing` or <https://ui.perfetto.dev>). With tracing
/// compiled out the file is a valid empty trace.
pub fn write_trace_if_requested(path: Option<&Path>) {
    if let Some(path) = path {
        let journal = secndp_telemetry::trace::journal();
        let json = journal.render_chrome_trace();
        match std::fs::write(path, &json) {
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
        assert!(parse(&["--trace-out", "t.json", "32"]).is_err());
        assert_eq!(parse(&["32"]), Ok(32));
        assert_eq!(parse(&[]), Ok(DEFAULT_BATCH));
    }

    /// A misspelt flag or a value that does not parse is an error, never
    /// a silent default: `--ops 2k` must not run the default op count, and
    /// `--lnk tcp` must not run the default link.
    #[test]
    fn flags_reject_unknown_names_and_bad_values() {
        const KNOWN: &[&str] = &["--ops", "--link", "--report"];
        let parse = |args: &[&str]| Flags::parse(args.iter().map(|s| s.to_string()), KNOWN);
        let flags = parse(&["--ops", "2000", "--link=tcp"]).unwrap();
        assert_eq!(flags.get::<u64>("--ops"), Ok(Some(2000)));
        assert_eq!(flags.get::<String>("--link"), Ok(Some("tcp".into())));
        assert_eq!(flags.get::<String>("--report"), Ok(None));
        let bad_ops = |args: &[&str]| parse(args).unwrap().get::<u64>("--ops").is_err();
        assert!(bad_ops(&["--ops", "2k"]) && bad_ops(&["--ops=2k"]));
        assert!(parse(&["--lnk", "tcp"]).is_err());
        assert!(parse(&["--lnk=tcp"]).is_err());
        assert!(parse(&["20000"]).is_err());
        assert!(parse(&["--ops"]).is_err());
        assert!(parse(&["--ops", "1", "--ops", "2"]).is_err());
        assert!(parse(&[]).is_ok());
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
