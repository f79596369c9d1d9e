//! Service-mode sweep (extension): open-loop packet arrivals at a fixed
//! rate, reporting response-time percentiles and the saturation point —
//! the operations view of a SecNDP-backed inference service.
//!
//! Besides the simulator sweep, the binary first drives the *real*
//! protocol stack (TrustedProcessor ↔ wire ↔ HonestNdp, plus a tampering
//! self-test) so the telemetry snapshot it emits covers the full pipeline:
//! pad generation, per-stage latency, wire traffic, and verification
//! failures.
//!
//! Run with:
//! `cargo run --release -p secndp-bench --bin service [batch] [--metrics-json <path>] [--trace-out <path>]`
//!
//! Emits the sweep as machine-readable `BENCH_service.json`, prints the
//! Prometheus text exposition of the global registry plus the security
//! audit log (the tampering self-test leaves one event), and honors
//! `--metrics-json <path>` for a JSON metrics snapshot and
//! `--trace-out <path>` for a Chrome `trace_event` dump of the span
//! journal.

use secndp_bench::{
    batch_from_args, headline_config, hold_secs_from_args, print_table, serve_metrics_addr,
    write_metrics_json_if_requested, write_trace_if_requested, HEADLINE_PF,
};
use secndp_core::device::{Tamper, TamperingNdp};
use secndp_core::wire::RemoteNdp;
use secndp_core::{AsyncEndpoint, Error, HonestNdp, SecretKey, TransportConfig, TrustedProcessor};
use secndp_sim::config::{VerifPlacement, NS_PER_CYCLE};
use secndp_sim::exec::{simulate, simulate_service, Mode, ServiceReport};
use secndp_telemetry::health::{HealthConfig, HealthStatus};
use secndp_telemetry::serve::{HttpResponse, ServerBuilder};
use secndp_workloads::dlrm::model::sls_trace;
use secndp_workloads::dlrm::DlrmConfig;

/// Queries issued against the real protocol stack in the warm-up phase.
const PROTOCOL_QUERIES: usize = 32;

/// Runs `n` verified queries against a bit-flipping device; every query
/// must fail verification (each recording a verify-failure counter tick
/// and an audit event). Returns the number of detected tamperings. The
/// warm-up runs this once as a self-test; the `/inject/tamper` route runs
/// a burst that degrades the `protocol` health component and so dumps.
fn tamper_burst(n: usize) -> Result<usize, Error> {
    let mut cpu = TrustedProcessor::new(SecretKey::derive_from_seed(0xBAD));
    let mut evil = RemoteNdp::new(TamperingNdp::new(Tamper::FlipResultBit {
        element: 0,
        bit: 1,
    }));
    let rows = 64;
    let cols = 32;
    let pt: Vec<u32> = (0..rows * cols).map(|x| x as u32 % 251).collect();
    let table = cpu.encrypt_table(&pt, rows, cols, 0x20_000)?;
    let handle = cpu.publish(&table, &mut evil)?;
    let mut detected = 0;
    for q in 0..n {
        match cpu.weighted_sum(
            &handle,
            &evil,
            &[q % rows, (q + 1) % rows],
            &[1u32, 1],
            true,
        ) {
            Err(Error::VerificationFailed { .. }) => detected += 1,
            other => panic!("tampering went undetected: {other:?}"),
        }
    }
    Ok(detected)
}

/// Drives the full software stack once — encrypt, publish over the wire,
/// verified weighted summations, one packet pipelined over an async
/// endpoint, and a tampering self-test — so the metrics snapshot contains
/// live values for every pipeline stage.
fn protocol_warmup() -> Result<(), Error> {
    let mut cpu = TrustedProcessor::new(SecretKey::derive_from_seed(0x5EC));
    let mut ndp = RemoteNdp::new(HonestNdp::new());
    let rows = 64;
    let cols = 32;
    let pt: Vec<u32> = (0..rows * cols).map(|x| x as u32 % 251).collect();
    let table = cpu.encrypt_table(&pt, rows, cols, 0x10_000)?;
    let handle = cpu.publish(&table, &mut ndp)?;
    for q in 0..PROTOCOL_QUERIES {
        let indices = [q % rows, (q * 7 + 3) % rows, (q * 13 + 5) % rows];
        let weights = [1u32, 2, 3];
        cpu.weighted_sum(&handle, &ndp, &indices, &weights, true)?;
    }
    // One batched packet, so the batch path's instruments exist too.
    let queries: Vec<(Vec<usize>, Vec<u32>)> = (0..8)
        .map(|q| (vec![q % rows, (q + 1) % rows], vec![1u32, 1]))
        .collect();
    cpu.weighted_sum_batch(&handle, &ndp, &queries, true)?;
    // The same packet pipelined across two ranks, so the endpoint's
    // `secndp_transport_*` instruments the smoke jobs read get traffic.
    let mut endpoint = AsyncEndpoint::new(
        vec![HonestNdp::new(), HonestNdp::new()],
        TransportConfig::default(),
    );
    let handle = cpu.publish(&table, &mut endpoint)?;
    cpu.weighted_sum_batch_pipelined(&handle, &endpoint, &queries, true)?;

    // Verification self-test: a tampering device must fail (and count).
    // The health sampler starts after the warm-up, so this deliberate
    // failure sits in its baseline and a healthy run never dumps.
    tamper_burst(1)?;
    println!("verification self-test: tampering detected (as expected)");
    Ok(())
}

/// Asserts the process is not `Failing` after a load phase and prints the
/// folded verdict — the bench doubles as a health smoke test. (Only
/// `Failing` aborts: a run that can still serve keeps going.)
fn assert_health(phase: &str) {
    let report = secndp_telemetry::health::monitor().report();
    assert!(
        report.status != HealthStatus::Failing,
        "health Failing after {phase}: {}",
        report.render_json()
    );
    println!("health after {phase}: {}", report.status.as_str());
}

struct SweepRow {
    offered_pct: u64,
    gap_cycles: u64,
    p50_us: f64,
    p95_us: f64,
    p99_us: f64,
    saturated: bool,
    dram_reads: u64,
    dram_writes: u64,
    dram_hit_rate: f64,
    dram_refresh_stalls: u64,
}

/// Extracts one sweep row from a service run. Every DRAM figure is a
/// **per-phase delta**: `simulate_service` builds fresh channels per call,
/// so `r.report.dram` covers exactly this row's run, never an accumulation
/// across rows. Reads/hit-rate are identical across offered loads by
/// construction (the access *sequence* is load-independent); the
/// pacing-sensitive signal is `refresh_stalls` — how many accesses landed
/// inside a tREFI/tRFC refresh window, which depends on arrival timing.
fn sweep_row(offered_pct: u64, gap_cycles: u64, r: &ServiceReport) -> SweepRow {
    let us = |p| r.response_percentile(p) as f64 * NS_PER_CYCLE / 1000.0;
    // Publish this row's response times into the global registry so the
    // end-of-run snapshot covers the sweep too.
    let lat = secndp_telemetry::histogram!(
        "secndp_service_response_ns",
        "Open-loop service response time (arrival to completion) in ns."
    );
    for &cyc in &r.response_cycles {
        lat.observe((cyc as f64 * NS_PER_CYCLE) as u64);
    }
    SweepRow {
        offered_pct,
        gap_cycles,
        p50_us: us(0.5),
        p95_us: us(0.95),
        p99_us: us(0.99),
        saturated: r.saturated(),
        dram_reads: r.report.dram.reads,
        dram_writes: r.report.dram.writes,
        dram_hit_rate: r.report.dram.hit_rate(),
        dram_refresh_stalls: r.report.dram.refresh_stalls,
    }
}

fn write_sweep_json(rows: &[SweepRow], batch: usize) {
    let entries: Vec<String> = rows
        .iter()
        .map(|r| {
            format!(
                "{{\"offered_pct\":{},\"gap_cycles\":{},\"p50_us\":{:.3},\"p95_us\":{:.3},\
                 \"p99_us\":{:.3},\"saturated\":{},\"dram_reads\":{},\"dram_writes\":{},\
                 \"dram_hit_rate\":{:.6},\"dram_refresh_stalls\":{}}}",
                r.offered_pct,
                r.gap_cycles,
                r.p50_us,
                r.p95_us,
                r.p99_us,
                r.saturated,
                r.dram_reads,
                r.dram_writes,
                r.dram_hit_rate,
                r.dram_refresh_stalls
            )
        })
        .collect();
    // `/sloz` renders a complete JSON object; embed it verbatim so the
    // sweep file carries the run's burn rates and budget verdicts.
    let slo = secndp_telemetry::health::monitor().render_sloz(secndp_telemetry::global());
    let costs = secndp_telemetry::profile::profiler().recorded();
    let json = format!(
        "{{\"bench\":\"service\",\"batch\":{batch},\"pf\":{HEADLINE_PF},\
         \"query_costs_recorded\":{costs},\"slo\":{},\"rows\":[{}]}}\n",
        slo.trim_end(),
        entries.join(",")
    );
    match std::fs::write("BENCH_service.json", &json) {
        Ok(()) => println!("sweep written to BENCH_service.json"),
        Err(e) => eprintln!("failed to write BENCH_service.json: {e}"),
    }
}

fn main() {
    // An unknown flag exits here, before any phase runs.
    let batch = batch_from_args().max(256);
    // Observability first, so every later phase is covered: crash dumps,
    // build-info gauges, the SLOs, and (when requested) the live scrape
    // server. The health sampler starts after the warm-up.
    secndp_telemetry::install_panic_hook();
    secndp_telemetry::init_process_metrics();
    // SLOs: the service's two objectives (wire round-trip latency,
    // verified-query error budget). The error target is deliberately
    // loose; an injected tamper burst (every query failing) still burns
    // it.
    use secndp_telemetry::slo::Objective;
    let monitor = secndp_telemetry::health::monitor();
    monitor.add_objective(Objective::Latency {
        name: "wire_rtt".into(),
        metric: "secndp_wire_round_trip_ns".into(),
        threshold_ns: 100_000_000,
        target: 0.99,
    });
    monitor.add_objective(Objective::ErrorRate {
        name: "verified_queries".into(),
        errors: "secndp_verify_failures_total".into(),
        total: "secndp_queries_total".into(),
        target: 0.5,
    });
    let _server = serve_metrics_addr().map(|addr| {
        let server = ServerBuilder::new(secndp_telemetry::global())
            // Fault injection for the CI health smoke: a tamper burst that
            // degrades the `protocol` component, which dumps.
            .route("/inject/tamper", || match tamper_burst(8) {
                Ok(n) => HttpResponse::json(format!("{{\"injected_tamperings\":{n}}}\n")),
                Err(e) => HttpResponse {
                    status: 500,
                    content_type: "text/plain; charset=utf-8",
                    body: format!("tamper burst failed: {e}\n"),
                },
            })
            .bind(&addr)
            .unwrap_or_else(|e| panic!("cannot serve metrics on {addr}: {e}"));
        println!(
            "serving /metrics /healthz /tracez /profilez /sloz on http://{}",
            server.local_addr()
        );
        server
    });

    protocol_warmup().expect("protocol warm-up failed");
    assert_health("protocol warm-up");
    let _sampler = monitor.start_sampler(secndp_telemetry::global(), HealthConfig::from_env());

    let sim = headline_config();
    let trace = sls_trace(&DlrmConfig::rmc1_small(), HEADLINE_PF, batch, 7);
    let mode = Mode::SecNdpVer(VerifPlacement::Ecc);

    // Capacity reference: mean packet service time under batch mode.
    let batch_run = simulate(&trace, mode, &sim);
    let service_cycles = batch_run.total_cycles / batch_run.packets.max(1);
    println!(
        "mean packet service time: {} cycles ({:.1} µs); sweeping offered load…",
        service_cycles,
        service_cycles as f64 * NS_PER_CYCLE / 1000.0
    );

    let mut rows = Vec::new();
    for util_pct in [25u64, 50, 75, 90, 110, 150] {
        let gap = (service_cycles * 100 / util_pct).max(1);
        let r = simulate_service(&trace, mode, &sim, gap);
        rows.push(sweep_row(util_pct, gap, &r));
    }
    print_table(
        &format!(
            "service sweep (SecNDP Enc+Ver-ECC, RMC1-small, PF={HEADLINE_PF}, {batch} queries)"
        ),
        &[
            "offered load",
            "gap cyc",
            "p50 µs",
            "p95 µs",
            "p99 µs",
            "state",
        ],
        &rows
            .iter()
            .map(|r| {
                vec![
                    format!("{}%", r.offered_pct),
                    format!("{}", r.gap_cycles),
                    format!("{:.1}", r.p50_us),
                    format!("{:.1}", r.p95_us),
                    format!("{:.1}", r.p99_us),
                    if r.saturated { "SATURATED" } else { "stable" }.into(),
                ]
            })
            .collect::<Vec<_>>(),
    );
    println!("\nbeyond ~100% utilization the queue grows without bound — the");
    println!("knee locates the service capacity of the configuration.");

    assert_health("service sweep");

    // Fold the span journal into the continuous profile and its cost
    // records so `/profilez`, BENCH_service.json, and the exposition below
    // all reflect the whole run (the SLO status scores a fresh snapshot by
    // itself).
    let profiler = secndp_telemetry::profile::profiler();
    profiler.fold(secndp_telemetry::trace::journal());
    write_sweep_json(&rows, batch);

    println!(
        "\n--- per-query cost digest ({} costs recorded; top 3 by latency) ---",
        profiler.recorded()
    );
    print!("{}", profiler.render_top_json(3));
    println!("\n--- SLO status ---");
    println!("{}", monitor.render_sloz(secndp_telemetry::global()));

    println!("\n--- telemetry (Prometheus text exposition) ---");
    print!("{}", secndp_telemetry::global().render_prometheus());

    let audit = secndp_telemetry::audit::audit_log();
    if !audit.is_empty() {
        println!("\n--- security audit log ---");
        print!("{}", audit.render_json());
    }

    write_metrics_json_if_requested();
    write_trace_if_requested();
    secndp_bench::write_profile_if_requested();

    // Stay alive serving scrapes (CI health-smoke curls us here).
    if let Some(secs) = hold_secs_from_args() {
        println!("holding for {secs}s (scrape server live); Ctrl-C to exit early");
        std::thread::sleep(std::time::Duration::from_secs(secs));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Pins the per-row DRAM reporting semantics: each sweep row is a
    /// per-phase delta (re-running a pacing reproduces its stats exactly,
    /// nothing accumulates across rows), reads are load-independent by
    /// construction, and the pacing-sensitive column is `refresh_stalls`.
    #[test]
    fn sweep_rows_report_per_run_dram_deltas() {
        let sim = headline_config();
        // 32 queries with NDP_reg = 8 → 4 packets, so pacing has packets
        // to spread out.
        let trace = sls_trace(&DlrmConfig::rmc1_small(), 8, 32, 7);
        let mode = Mode::SecNdpVer(VerifPlacement::Ecc);
        // Slow pacing at exactly tREFI: every packet after the first
        // starts at phase `init_cycles` (32) — inside the tRFC refresh
        // window — so its reads all stall. Fast pacing dispatches
        // back-to-back and rarely (here: never) lands in a window.
        let t_refi = sim.timing.t_refi;
        let fast = simulate_service(&trace, mode, &sim, 2);
        let slow = simulate_service(&trace, mode, &sim, t_refi);
        let fast_again = simulate_service(&trace, mode, &sim, 2);
        let r_fast = sweep_row(100, 2, &fast);
        let r_slow = sweep_row(1, t_refi, &slow);
        let r_fast2 = sweep_row(100, 2, &fast_again);
        assert!(r_fast.dram_reads > 0);
        // Per-run deltas: same pacing → identical stats, no accumulation.
        assert_eq!(r_fast.dram_reads, r_fast2.dram_reads);
        assert_eq!(r_fast.dram_refresh_stalls, r_fast2.dram_refresh_stalls);
        // The access sequence is load-independent, so read counts match
        // across pacings...
        assert_eq!(r_fast.dram_reads, r_slow.dram_reads);
        // ...but refresh stalls depend on *when* accesses arrive.
        assert!(
            r_slow.dram_refresh_stalls > r_fast.dram_refresh_stalls,
            "refresh stalls should be pacing-dependent \
             (fast={}, slow={})",
            r_fast.dram_refresh_stalls,
            r_slow.dram_refresh_stalls
        );
    }

    #[test]
    fn tamper_burst_detects_every_query() {
        assert_eq!(tamper_burst(3).unwrap(), 3);
    }
}
