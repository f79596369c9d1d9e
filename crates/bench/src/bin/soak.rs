//! Chaos soak: randomized SLS traffic against the concurrent endpoint
//! under a seeded fault mix, with the masked-or-detected invariant
//! checked at the end.
//!
//! Every op draws its indices/weights from a seeded LCG and compares the
//! verified result against a plaintext oracle; every fault the
//! [`FaultPlan`] schedules is journaled at the moment it lands — channel
//! faults by the [`FaultyLink`] every frame crosses, device faults by the
//! [`FaultyNdp`] serving each rank. After the traffic, the
//! [`InvariantChecker`] reconciles journal, query outcomes, and audit
//! events: each fault must be *masked* (correct verified result) or
//! *detected* (typed error with a same-trace audit event) — zero silent
//! corruptions.
//!
//! Run with:
//! `cargo run --release -p secndp-bench --bin soak -- --seed 42 --ops 20000 [--secs S] [--ranks 3] [--rate 8] [--link inline|tcp] [--flight-dir DIR] [--report soak.json] [--metrics-json m.json] [--trace-out t.json] [--profile-out p.collapsed]`
//!
//! The default link serves each rank on the caller's thread; `--link tcp`
//! serves each from its own loopback `NetServer`, so every fault crosses
//! real sockets, and its report names the link. The JSON report contains
//! no wall-clock fields, so two runs with the same seed, link and `--ops`
//! budget produce byte-identical reports — CI `cmp`s them. An unknown
//! flag or a value that does not parse exits 2 with the usage line.
//!
//! The run is observed like a deployed client: the health sampler scores
//! the `protocol` component (and each endpoint's) every second, and a
//! verdict that gets worse writes a flight-recorder dump to `--flight-dir`
//! (default `.`), where a panic's crash dump also lands. On exit the
//! registry, span journal and folded profile go to the `--metrics-json`,
//! `--trace-out` and `--profile-out` paths when given. On an invariant
//! violation the binary prints the seed and the full fault schedule, drops
//! one more flight dump, and exits nonzero.

use std::path::PathBuf;
use std::sync::Arc;
use std::time::{Duration, Instant};

use secndp_bench::{
    write_metrics_json_if_requested, write_profile_if_requested, write_trace_if_requested, Flags,
};
use secndp_core::fault::{
    FaultKind, FaultPlan, InvariantChecker, Outcome, PlannedFault, QueryRecord,
};
use secndp_core::{
    Endpoint, FaultInjector, FaultyLink, FaultyNdp, HonestNdp, Link, NetServer, SecretKey,
    TransportConfig, TrustedProcessor,
};
use secndp_telemetry::audit::audit_log;
use secndp_telemetry::faultlog::fault_log;
use secndp_telemetry::health::{self, HealthConfig};
use secndp_telemetry::trace;

const ROWS: usize = 256;
const COLS: usize = 16;
const ADDR: u64 = 0x4_0000;
/// Re-encrypt (version bump + republish) cadence, in ops. Stale replays
/// are only *detectable* once at least one re-encryption has happened.
const REENCRYPT_EVERY: u64 = 4096;

const USAGE: &str = "usage: soak [--seed N] [--ops N] [--secs S] [--ranks N] [--rate PERMILLE] \
                     [--link inline|tcp] [--flight-dir DIR] [--report PATH] \
                     [--metrics-json PATH] [--trace-out PATH] [--profile-out PATH]";

const KNOWN_FLAGS: &[&str] = &[
    "--seed",
    "--ops",
    "--secs",
    "--ranks",
    "--rate",
    "--link",
    "--flight-dir",
    "--report",
    "--metrics-json",
    "--trace-out",
    "--profile-out",
];

fn usage_exit(err: &str) -> ! {
    eprintln!("soak: {err}");
    eprintln!("{USAGE}");
    std::process::exit(2)
}

/// `name`'s value, or exit 2 when it does not parse.
fn flag<T: std::str::FromStr>(flags: &Flags, name: &str) -> Option<T> {
    flags.get(name).unwrap_or_else(|e| usage_exit(&e))
}

/// The run's shape and output files, from the command line.
struct Opts {
    ops: u64,
    secs: Option<u64>,
    report: Option<PathBuf>,
    metrics_json: Option<PathBuf>,
    trace_out: Option<PathBuf>,
    profile_out: Option<PathBuf>,
}

/// Small deterministic LCG driving the traffic shape (indices, weights,
/// op kinds) — independent of the fault plan's SplitMix stream.
struct Lcg(u64);

impl Lcg {
    fn below(&mut self, bound: u64) -> u64 {
        self.0 = self
            .0
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        (self.0 >> 33) % bound
    }
}

fn ground_truth(pt: &[u32], idx: &[usize], w: &[u32]) -> Vec<u32> {
    let mut out = vec![0u32; COLS];
    for (&i, &a) in idx.iter().zip(w) {
        for (j, o) in out.iter_mut().enumerate() {
            *o = o.wrapping_add(a.wrapping_mul(pt[i * COLS + j]));
        }
    }
    out
}

fn main() {
    let flags =
        Flags::parse(std::env::args().skip(1), KNOWN_FLAGS).unwrap_or_else(|e| usage_exit(&e));
    let seed: u64 = flag(&flags, "--seed").unwrap_or(0x5EC_C4A05);
    let ranks: usize = flag(&flags, "--ranks").unwrap_or(3).max(2);
    let link: String = flag(&flags, "--link").unwrap_or_else(|| "inline".into());
    if link != "inline" && link != "tcp" {
        usage_exit(&format!("unknown --link {link} (inline or tcp)"));
    }
    let opts = Opts {
        ops: flag(&flags, "--ops").unwrap_or(20_000),
        secs: flag(&flags, "--secs"),
        report: flag(&flags, "--report"),
        metrics_json: flag(&flags, "--metrics-json"),
        trace_out: flag(&flags, "--trace-out"),
        profile_out: flag(&flags, "--profile-out"),
    };

    let mut plan = FaultPlan::new(seed);
    plan.ranks = ranks as u32;
    if let Some(rate) = flag(&flags, "--rate") {
        plan.rate_permille = rate;
    }

    // Observed like a deployed client: crash dumps, build-info gauges and
    // the health sampler, whose worse verdicts dump to the flight dir.
    let flight_dir: PathBuf = flag(&flags, "--flight-dir").unwrap_or_else(|| ".".into());
    secndp_telemetry::install_panic_hook_in(&flight_dir);
    secndp_telemetry::init_process_metrics();
    let _sampler = health::monitor().start_sampler(
        secndp_telemetry::global(),
        HealthConfig {
            flight_dir,
            ..HealthConfig::default()
        },
    );

    let injector = Arc::new(FaultInjector::new());
    let fleet = FaultyNdp::fleet(HonestNdp::new(), ranks, Arc::clone(&injector));
    let cfg = TransportConfig {
        ranks,
        timeout: Duration::from_millis(150),
        max_retries: 3,
        ..TransportConfig::default()
    };
    if link == "tcp" {
        let servers: Vec<NetServer> = fleet
            .into_iter()
            .map(|d| NetServer::host_device(d, "127.0.0.1:0").expect("bind rank server"))
            .collect();
        let addrs = servers.iter().map(|s| s.local_addr().to_string()).collect();
        let ep = FaultyLink::over_tcp(TransportConfig { addrs, ..cfg }, Arc::clone(&injector))
            .expect("tcp endpoint");
        // `servers` outlives the endpoint, which `soak` drops.
        soak(ep, &plan, &injector, "tcp", &opts);
    } else {
        let ep = FaultyLink::over_inline(fleet, cfg, Arc::clone(&injector));
        soak(ep, &plan, &injector, "inline", &opts);
    }
}

/// Runs the traffic over `ep`, then reconciles and reports. A report for a
/// link other than the default names it.
fn soak<L: Link>(
    mut ep: Endpoint<L>,
    plan: &FaultPlan,
    injector: &FaultInjector,
    link: &str,
    opts: &Opts,
) {
    let seed = plan.seed;
    let ranks = plan.ranks as usize;
    let (ops_budget, secs) = (opts.ops, opts.secs);
    eprintln!(
        "soak: seed={seed} ops={ops_budget} ranks={ranks} link={link} rate={}permille mix={} kinds",
        plan.rate_permille,
        plan.mix.len()
    );
    let mut cpu = TrustedProcessor::new(SecretKey::derive_from_seed(seed));

    let pt: Vec<u32> = (0..ROWS * COLS).map(|x| (x as u32 % 97) + 1).collect();
    let mut table = cpu.encrypt_table(&pt, ROWS, COLS, ADDR).expect("encrypt");
    let mut handle = cpu.publish(&table, &mut ep).expect("publish");

    let mut lcg = Lcg(seed ^ 0x7AFF_1C00);
    let mut queries: Vec<QueryRecord> = Vec::new();
    let mut crashes = 0usize;
    let started = Instant::now();
    let mut op: u64 = 0;

    while op < ops_budget {
        if let Some(s) = secs {
            if started.elapsed() >= Duration::from_secs(s) {
                break;
            }
        }
        // Periodic re-encryption: version bump + republish, so stale
        // replays past this point decrypt with the wrong pads. A crashed
        // rank can no longer accept the broadcast Load, so stop once the
        // fleet has lost a rank.
        if op > 0 && op.is_multiple_of(REENCRYPT_EVERY) && crashes == 0 {
            table = cpu.reencrypt_table(&table, &pt).expect("reencrypt");
            handle = cpu.publish(&table, &mut ep).expect("republish");
        }

        let mut planned = plan.fault_for(op).map(|f| PlannedFault { op, ..f });
        // Crash budget: keep at least one live rank, or every later op
        // would fail with no fault to blame.
        if matches!(
            planned,
            Some(PlannedFault {
                kind: FaultKind::RankCrash,
                ..
            })
        ) {
            if crashes + 1 >= ranks {
                planned = None;
            } else {
                crashes += 1;
            }
        }

        // Traffic shape: ~70 % multi-row weighted sums, ~30 % verified
        // single-row reads (which travel as tagged sums themselves).
        let k = 1 + lcg.below(32) as usize;
        let idx: Vec<usize> = (0..k).map(|_| lcg.below(ROWS as u64) as usize).collect();
        let w: Vec<u32> = (0..k).map(|_| 1 + lcg.below(15) as u32).collect();
        let read_row = lcg.below(10) < 3;

        let sp = trace::span("soak_op");
        let my_trace = trace::current().trace.0;
        if let Some(f) = planned {
            injector.arm(f);
        }

        let outcome = if read_row {
            match cpu.read_row_verified::<u32, _>(&handle, &ep, idx[0]) {
                Ok(v) if v == pt[idx[0] * COLS..(idx[0] + 1) * COLS] => Outcome::Correct,
                Ok(_) => Outcome::Wrong,
                Err(e) => Outcome::Failed(e),
            }
        } else {
            match cpu.weighted_sum::<u32, _>(&handle, &ep, &idx, &w, true) {
                Ok(v) if v == ground_truth(&pt, &idx, &w) => Outcome::Correct,
                Ok(_) => Outcome::Wrong,
                Err(e) => Outcome::Failed(e),
            }
        };
        // An unconsumed armed fault must not leak into the next op.
        injector.disarm();
        queries.push(QueryRecord {
            op,
            trace: my_trace,
            outcome,
        });
        drop(sp);

        // A Late fault sleeps on the thread that reads the reply — on both
        // links this one, inside the op — so the straggler has landed
        // before the next op arms its fault, and which frame consumes that
        // fault never depends on OS scheduling: that is what keeps
        // same-seed reports byte-identical.
        op += 1;
    }
    let total_ops = queries.len() as u64;

    // Dropping the endpoint before reconciling guarantees every completion
    // (including duplicates and stragglers) has landed.
    drop(ep);

    let faults = fault_log().snapshot();
    let report = InvariantChecker::new(seed).check(&faults, &queries, &audit_log().snapshot());

    let link_field = if link == "inline" {
        String::new()
    } else {
        format!("\"link\":\"{link}\",")
    };
    let json = format!(
        "{{\"seed\":{seed},\"ranks\":{ranks},{link_field}\"rate_permille\":{},\
         \"ops\":{total_ops},\"invariant\":{}}}\n",
        plan.rate_permille,
        report.render_json()
    );
    if let Some(path) = &opts.report {
        std::fs::write(path, &json).expect("write report");
    }
    print!("{json}");
    eprintln!(
        "soak: {} faults injected over {total_ops} ops — {} masked, {} detected, {} silent",
        report.injected, report.masked, report.detected, report.silent_corruptions
    );
    // The profile first: its fold is counted in the metrics snapshot.
    write_profile_if_requested(opts.profile_out.as_deref());
    write_metrics_json_if_requested(opts.metrics_json.as_deref());
    write_trace_if_requested(opts.trace_out.as_deref());

    if !report.ok() {
        eprintln!("soak: INVARIANT VIOLATED (seed {seed}) — fault schedule:");
        eprintln!("{}", plan.render_schedule(total_ops));
        for v in &report.violations {
            eprintln!("  {v}");
        }
        match health::monitor().trigger_dump("chaos-soak-violation") {
            Ok(p) => eprintln!("soak: flight dump written to {}", p.display()),
            Err(e) => eprintln!("soak: flight dump failed: {e}"),
        }
        std::process::exit(1);
    }
}
