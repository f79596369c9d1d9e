//! Chaos soak: randomized SLS traffic against the concurrent transport
//! under a seeded fault mix, with the masked-or-detected invariant
//! checked at the end.
//!
//! Every op draws its indices/weights from a seeded LCG and compares the
//! verified result against a plaintext oracle; every fault the
//! [`FaultPlan`] schedules is journaled at the moment it lands. After the
//! traffic (plus a dedicated stall-and-recover phase for the health
//! pipeline), the [`InvariantChecker`] reconciles journal, query
//! outcomes, and audit events: each fault must be *masked* (correct
//! verified result) or *detected* (typed error with a same-trace audit
//! event) — zero silent corruptions.
//!
//! Run with:
//! `cargo run --release -p secndp-bench --bin soak -- --seed 42 --ops 20000 [--secs S] [--ranks 3] [--rate 8] [--report soak.json]`
//!
//! The JSON report contains no wall-clock fields, so two runs with the
//! same seed and `--ops` budget produce byte-identical reports — CI
//! `cmp`s them. On an invariant violation the binary prints the seed and
//! the full fault schedule, drops a flight-recorder dump (honoring
//! `SECNDP_FLIGHT_DIR`), and exits nonzero.
//!
//! The fault mix also honors the `SECNDP_FAULT_SEED` / `SECNDP_FAULT_RATE`
//! / `SECNDP_FAULT_KINDS` / `SECNDP_FAULT_LATE_MS` / `SECNDP_FAULT_STALL_MS`
//! environment knobs; CLI flags win where both are given.

use std::sync::Arc;
use std::time::{Duration, Instant};

use secndp_bench::parse_value_flag;
use secndp_cipher::{CounterBlock, Domain};
use secndp_core::fault::{
    FaultClass, FaultKind, FaultPlan, InvariantChecker, Outcome, PlannedFault, QueryRecord,
};
use secndp_core::{
    AsyncEndpoint, FaultInjector, FaultyNdp, HonestNdp, SecretKey, TransportConfig,
    TrustedProcessor,
};
use secndp_telemetry::audit::audit_log;
use secndp_telemetry::faultlog::fault_log;
use secndp_telemetry::{health, trace};

const ROWS: usize = 256;
const COLS: usize = 16;
const ADDR: u64 = 0x4_0000;
/// Re-encrypt (version bump + republish) cadence, in ops. Stale replays
/// are only *detectable* once at least one re-encryption has happened.
const REENCRYPT_EVERY: u64 = 4096;
/// The dedicated health-phase stall is long enough to observe Degraded
/// from the main thread while the worker is still busy-held.
const HEALTH_STALL_MS: u32 = 600;

fn flag<T: std::str::FromStr>(name: &str) -> Option<T> {
    parse_value_flag(name, std::env::args().skip(1))
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
    let seed: u64 = flag("--seed").unwrap_or(0x5EC_C4A05);
    let ops_budget: u64 = flag("--ops").unwrap_or(20_000);
    let secs: Option<u64> = flag("--secs");
    let ranks: usize = flag::<usize>("--ranks").unwrap_or(3).max(2);
    let report_path: Option<String> = flag("--report");

    let mut plan = FaultPlan::from_env(seed);
    plan.ranks = ranks as u32;
    if let Some(rate) = flag::<u32>("--rate") {
        plan.rate_permille = rate;
    }
    let seed = plan.seed; // SECNDP_FAULT_SEED may have overridden the flag
    eprintln!(
        "soak: seed={seed} ops={ops_budget} ranks={ranks} rate={}permille mix={} kinds",
        plan.rate_permille,
        plan.mix.len()
    );

    let injector = Arc::new(FaultInjector::new());
    let mut cpu = TrustedProcessor::new(SecretKey::derive_from_seed(seed));
    cpu.set_pad_cache_blocks(4096);
    let mut ep = AsyncEndpoint::new_with_faults(
        FaultyNdp::fleet(HonestNdp::new(), ranks, Arc::clone(&injector)),
        TransportConfig {
            ranks,
            timeout: Duration::from_millis(150),
            max_retries: 3,
            stall_grace: Duration::from_millis(40),
            ..TransportConfig::default()
        },
        Arc::clone(&injector),
    );

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
        // fleet has lost a worker.
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
        // Host-class faults never reach the device: the harness corrupts
        // the trusted side's pad cache directly, around the query.
        let mut restore: Option<(CounterBlock, u8)> = None;
        match planned {
            Some(f) if f.kind.class() == FaultClass::Host => {
                if let FaultKind::CorruptPadCache { mask } = f.kind {
                    let counter = CounterBlock::new(
                        Domain::Data,
                        handle.layout().row_addr(idx[0]),
                        handle.version(),
                    );
                    if cpu.pad_cache().corrupt(counter, mask) {
                        injector.journal(&f, u32::MAX, "cached data pad poisoned", None);
                        restore = Some((counter, mask));
                    } else {
                        injector.journal(&f, u32::MAX, "pad not cached; no-op", None);
                    }
                }
            }
            Some(f) => injector.arm(f),
            None => {}
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
        // Repair the poisoned pad (XOR is an involution) so later ops see
        // clean state again; an unconsumed armed fault must not leak into
        // the next op either.
        if let Some((counter, mask)) = restore {
            cpu.pad_cache().corrupt(counter, mask);
        }
        injector.disarm();
        queries.push(QueryRecord {
            op,
            trace: my_trace,
            outcome,
        });
        drop(sp);

        // A Late fault leaves its worker asleep with the reply pending;
        // drain the straggler before the next op so which frame consumes
        // the *next* fault never depends on OS scheduling — that is what
        // keeps same-seed reports byte-identical.
        if let Some(PlannedFault {
            kind: FaultKind::LateReply { delay_ms },
            ..
        }) = planned
        {
            std::thread::sleep(Duration::from_millis(delay_ms as u64 + 60));
        }
        op += 1;
    }
    let traffic_ops = op;

    // Dedicated health phase: one long rank stall must trip the stall
    // detector (endpoint component leaves Ok) while the query itself is
    // masked by a deadline retry — and the component must recover once
    // the worker wakes.
    let stall_fault = PlannedFault {
        op: traffic_ops,
        rank: 0,
        kind: FaultKind::RankStall {
            stall_ms: HEALTH_STALL_MS,
        },
    };
    injector.arm(stall_fault);
    let component = ep.health_component().to_string();
    // The query blocks for the whole stall when only one rank survives
    // (retries queue behind the sleeping worker), so the stall has to be
    // observed concurrently: run the query on a scoped thread and poll
    // the vitals plus the health monitor from here while it is held.
    let mut stall_seen = false;
    let mut degraded = false;
    let (my_trace, outcome) = std::thread::scope(|s| {
        let q = s.spawn(|| {
            let sp = trace::span("soak_health_stall");
            let t = trace::current().trace.0;
            let out = match cpu.weighted_sum::<u32, _>(&handle, &ep, &[0, 1], &[3, 2], true) {
                Ok(v) if v == ground_truth(&pt, &[0, 1], &[3, 2]) => Outcome::Correct,
                Ok(_) => Outcome::Wrong,
                Err(e) => Outcome::Failed(e),
            };
            drop(sp);
            (t, out)
        });
        let watch_until = Instant::now() + Duration::from_millis(2 * HEALTH_STALL_MS as u64);
        while (!q.is_finished() || !stall_seen) && Instant::now() < watch_until {
            if !ep.down_ranks().is_empty() {
                stall_seen = true;
            }
            if health::monitor().report().components.iter().any(|c| {
                c.component == component && c.status != secndp_telemetry::health::HealthStatus::Ok
            }) {
                degraded = true;
            }
            if stall_seen && degraded && q.is_finished() {
                break;
            }
            std::thread::sleep(Duration::from_millis(10));
        }
        q.join().expect("health-phase query thread")
    });
    injector.disarm();
    queries.push(QueryRecord {
        op: traffic_ops,
        trace: my_trace,
        outcome,
    });
    let mut recovered = false;
    let deadline = Instant::now() + Duration::from_millis(3 * HEALTH_STALL_MS as u64);
    while Instant::now() < deadline {
        let clear = ep.down_ranks().is_empty()
            && health::monitor().report().components.iter().any(|c| {
                c.component == component && c.status == secndp_telemetry::health::HealthStatus::Ok
            });
        if clear {
            recovered = true;
            break;
        }
        std::thread::sleep(Duration::from_millis(25));
    }
    let total_ops = traffic_ops + 1;

    // Joining the workers before reconciling guarantees every completion
    // (including duplicates and stragglers) has landed.
    drop(ep);

    let faults = fault_log().snapshot();
    let report = InvariantChecker::new(seed).check(&faults, &queries, &audit_log().snapshot());
    let stall_degraded_observed = stall_seen && degraded;

    let json = format!(
        "{{\"seed\":{seed},\"ranks\":{ranks},\"rate_permille\":{},\"ops\":{total_ops},\
         \"stall_degraded_observed\":{stall_degraded_observed},\"stall_recovered\":{recovered},\
         \"invariant\":{}}}\n",
        plan.rate_permille,
        report.render_json()
    );
    if let Some(path) = &report_path {
        std::fs::write(path, &json).expect("write report");
    }
    print!("{json}");
    eprintln!(
        "soak: {} faults injected over {total_ops} ops — {} masked, {} detected, {} silent",
        report.injected, report.masked, report.detected, report.silent_corruptions
    );

    let healthy = stall_degraded_observed && recovered;
    if !report.ok() || !healthy {
        eprintln!("soak: INVARIANT VIOLATED (seed {seed}) — fault schedule:");
        eprintln!("{}", plan.render_schedule(total_ops));
        for v in &report.violations {
            eprintln!("  {v}");
        }
        if !healthy {
            eprintln!(
                "  health: stall_degraded_observed={stall_degraded_observed} recovered={recovered}"
            );
        }
        match health::monitor().trigger_dump("chaos-soak-violation") {
            Ok(p) => eprintln!("soak: flight dump written to {}", p.display()),
            Err(e) => eprintln!("soak: flight dump failed: {e}"),
        }
        std::process::exit(1);
    }
}
