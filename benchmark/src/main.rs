//! The SecNDP perf ledger. See `README.md` for what is measured and why.
//!
//! One run (what `BENCHMARK.json`'s command starts):
//!   `--workload <name> --seed <n> --seconds <s> --trace <0|1>`
//! prints every metric as `name value unit`, an `info` line, and last one
//! JSON object with `correct`, `attempted`, `failed` and `metrics`.
//!
//! Without `--workload` it is the whole ledger: each workload untraced and
//! then traced, each in a fresh child process, collected into
//! `benchmark/out/results.json`. `--repeat-check` runs the untraced set
//! twice and fails if an end-to-end metric moved by more than its bound;
//! `--quick` is a smoke test at a twentieth of the length.

mod json;
mod micro;
mod rng;
mod server;
mod span;
mod spec;
mod stats;
mod sys;
mod workloads;

use json::Json;
use micro::Values;
use span::{Recorder, Total, ROOT};
use spec::{Metric, END_TO_END, PER_LAYER, RUN_SECONDS, WORKLOADS};
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::{Command, ExitCode, Stdio};
use std::time::Instant;
use workloads::{Env, Workload};

/// Set-ups per untraced run; `setup_s` is their median.
const SETUPS: usize = 5;
/// An untraced run is this many equal windows; each timing metric is the
/// median of its per-window values, so a burst of host noise shorter than
/// half the run does not move it.
const WINDOWS: usize = 10;
/// Latency samples a window can hold without growing: about ten times what
/// the fastest workload fits into a window today.
const WINDOW_SAMPLES: usize = 1 << 20;
/// The traced pass alternates this many untraced and traced segments, so
/// drift in the sandbox's speed falls on both alike.
const SEGMENTS: usize = 32;
const COVERAGE_RANGE: std::ops::RangeInclusive<f64> = 0.85..=1.15;

/// Ops per kind (untraced, traced) in a traced run at full length: fixed,
/// so that counts taken over them repeat exactly. Sized for about a
/// quarter of an untraced run's ops.
fn traced_ops(workload: &str) -> usize {
    match workload {
        "batch256_async" => 224,
        "sls_hot_inline" => 128_000,
        "sls_small_tcp" => 128_000,
        _ => 768,
    }
}

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    server: PathBuf,
    quick: bool,
    repeat_check: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut a = Args {
        workload: None,
        seed: 1,
        seconds: RUN_SECONDS,
        trace: false,
        server: PathBuf::from("target/release/secndp-server"),
        quick: false,
        repeat_check: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => a.workload = Some(value()?),
            "--seed" => a.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => a.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?,
            "--trace" => a.trace = value()? == "1",
            "--server" => a.server = PathBuf::from(value()?),
            "--quick" => a.quick = true,
            "--repeat-check" => a.repeat_check = true,
            other => return Err(format!("unknown flag {other}")),
        }
    }
    if a.seconds.is_nan() || a.seconds <= 0.0 {
        return Err("--seconds must be positive".into());
    }
    if a.quick {
        a.seconds = RUN_SECONDS / 20.0;
    }
    Ok(a)
}

/// One run's outcome, before it is checked against the metric names.
struct Outcome {
    values: Values,
    attempted: u64,
    failed: u64,
    info: Vec<(&'static str, Json)>,
}

/// The timing metrics of one window of an untraced run.
struct Window {
    ops_per_s: f64,
    p50_us: f64,
    cpu_us_per_op: f64,
}

/// The untimed loop state shared by the untraced and traced passes.
struct Counted {
    attempted: u64,
    failed: u64,
}

impl Counted {
    /// Books one op: a typed error or a result that differs from the
    /// plaintext reference is a failed op.
    fn book(&mut self, w: &dyn Workload, i: usize, result: Result<(), secndp_core::Error>) {
        let per = w.ops_per_sample() as u64;
        self.attempted += per;
        if result.is_err() || !w.check(i) {
            self.failed += per;
        }
    }
}

/// Nearest-rank percentile, in microseconds, of ascending nanosecond samples.
fn percentile_us(sorted_ns: &[u32], p: f64) -> f64 {
    f64::from(stats::percentile(sorted_ns, p)) / 1e3
}

fn run_untraced(name: &str, seed: u64, seconds: f64, env: &Env) -> Result<Outcome, String> {
    let t = Instant::now();
    let mut w = workloads::setup(name, seed, false, env)?;
    let mut setups = vec![t.elapsed().as_secs_f64()];

    let per = w.ops_per_sample() as f64;
    let mut counted = Counted {
        attempted: 0,
        failed: 0,
    };
    // Filled, not just reserved: the pages are resident before the first
    // op, so `peak_rss_mb` does not follow the number of ops a run fits in.
    let mut samples_ns = vec![u32::MAX; WINDOW_SAMPLES];
    let mut windows = Vec::with_capacity(WINDOWS);
    let mut total_samples = 0;
    let window_s = seconds / WINDOWS as f64;
    let mut i = w.warm_ops();
    // Set-up's own peak is a race: how many copies of the table two rank
    // threads hold at once while it is published. It stays out of the mark.
    let rss_reset = sys::reset_peak_rss();
    for _ in 0..WINDOWS {
        samples_ns.clear();
        let mut timed_s = 0.0;
        let cpu_before = sys::process_cpu_s();
        let start = Instant::now();
        while start.elapsed().as_secs_f64() < window_s {
            let t = Instant::now();
            let result = w.run(i);
            let dt = t.elapsed();
            // Result checking is outside every timed interval.
            counted.book(&*w, i, result);
            samples_ns.push(u32::try_from(dt.as_nanos()).unwrap_or(u32::MAX));
            timed_s += dt.as_secs_f64();
            i += 1;
        }
        let cpu_s = sys::process_cpu_s() - cpu_before;
        let ops = samples_ns.len() as f64 * per;
        samples_ns.sort_unstable();
        total_samples += samples_ns.len();
        windows.push(Window {
            ops_per_s: ops / timed_s,
            p50_us: percentile_us(&samples_ns, 50.0),
            cpu_us_per_op: cpu_s * 1e6 / ops,
        });
    }
    let peak_rss_mb = sys::peak_rss_mib();
    let pinned = w.pinned();
    drop(w);

    // The other set-ups come after the measured phase, so it ran on a fresh
    // heap, and one at a time, so each server has drained before the next.
    for _ in 1..SETUPS {
        let t = Instant::now();
        let again = workloads::setup(name, seed, false, env)?;
        setups.push(t.elapsed().as_secs_f64());
        drop(again);
    }

    println!("# set-ups: {setups:?} s");
    let tail = stats::highest_percentile(total_samples);
    println!(
        "# {total_samples} latency samples; highest percentile with ten samples beyond it: {}",
        tail.map_or("none".to_string(), |p| format!("p{p}"))
    );
    let over_windows = |f: fn(&Window) -> f64| stats::median(windows.iter().map(f).collect());
    let values = vec![
        ("ops_per_s", over_windows(|w| w.ops_per_s)),
        ("op_p50_us", over_windows(|w| w.p50_us)),
        ("client_cpu_us_per_op", over_windows(|w| w.cpu_us_per_op)),
        ("peak_rss_mb", peak_rss_mb),
        ("setup_s", stats::median(setups)),
    ];
    Ok(Outcome {
        values,
        attempted: counted.attempted,
        failed: counted.failed,
        info: vec![
            ("samples", Json::Num(total_samples as f64)),
            ("pinned", pinned.map_or(Json::Null, Json::Bool)),
            ("peak_rss_excludes_setup", Json::Bool(rss_reset)),
        ],
    })
}

/// `trace.*` means per op from the span totals. Spans a workload does not
/// have read 0. Two values are differences, not spans: `verify` is
/// `reconstruct − otp_share`, and where an op is one opaque call with its
/// plan and wait re-driven beside it (`batch256_async`), `reconstruct` is
/// `op − plan − batch_wait`.
fn trace_means(totals: &BTreeMap<&'static str, Total>, ops: usize) -> Values {
    let us = |name: &str| {
        totals
            .get(name)
            .map_or(0.0, |t| t.total_ns as f64 / ops as f64 / 1e3)
    };
    let has = |name: &str| totals.contains_key(name);
    let reconstruct = if has("plan") {
        us(ROOT) - us("plan") - us("batch_wait")
    } else {
        us("reconstruct")
    };
    let wire = us("wire_encode") + us("wire_serve") + us("wire_decode");
    vec![
        ("trace.device_call_us", us("device_call")),
        ("trace.reconstruct_us", reconstruct),
        ("trace.otp_share_us", us("otp_share")),
        (
            "trace.verify_us",
            if has("otp_share") {
                reconstruct - us("otp_share")
            } else {
                0.0
            },
        ),
        ("trace.plan_us", us("plan")),
        ("trace.batch_wait_us", us("batch_wait")),
        ("trace.reencrypt_us", us("reencrypt")),
        ("trace.publish_us", us("publish")),
        ("trace.readback_us", us("readback")),
        ("trace.wire_encode_us", us("wire_encode")),
        ("trace.wire_serve_us", us("wire_serve")),
        ("trace.wire_decode_us", us("wire_decode")),
        ("trace.device_compute_us", us("device_compute")),
        (
            "trace.transport_self_us",
            if has("device_call") {
                us("device_call") - wire
            } else {
                0.0
            },
        ),
    ]
}

fn run_traced(name: &str, seed: u64, seconds: f64, env: &Env) -> Result<Outcome, String> {
    let scale = seconds / RUN_SECONDS;
    // In-process legs first, before anything is pinned.
    let mut values = micro::run(scale);

    let mut w = workloads::setup(name, seed, true, env)?;
    let per_segment = ((traced_ops(name) as f64 * scale) as usize / SEGMENTS).max(1);
    let ops = per_segment * SEGMENTS;
    let mut rec = Recorder::with_capacity(ops * w.spans_per_op());
    let mut plain_ns: Vec<u32> = Vec::with_capacity(ops);
    let mut counted = Counted {
        attempted: 0,
        failed: 0,
    };
    let mut i = w.warm_ops();
    let cache_before = w.cache_stats();
    for _ in 0..SEGMENTS {
        for _ in 0..per_segment {
            let t = Instant::now();
            let result = w.run(i);
            plain_ns.push(u32::try_from(t.elapsed().as_nanos()).unwrap_or(u32::MAX));
            counted.book(&*w, i, result);
            i += 1;
        }
        for _ in 0..per_segment {
            let result = w.run_traced(i, &mut rec);
            counted.book(&*w, i, result);
            i += 1;
        }
    }
    let cache = w.cache_stats();
    let (tx, rx) = w.wire_bytes_per_op();
    let pinned = w.pinned();
    drop(w);

    let probes = (cache.hits - cache_before.hits) + (cache.misses - cache_before.misses);
    values.push((
        "cipher.cache.hit_rate",
        (cache.hits - cache_before.hits) as f64 / probes as f64,
    ));
    values.push((
        "cipher.cache.evictions_per_op",
        (cache.evictions - cache_before.evictions) as f64 / counted.attempted as f64,
    ));
    values.push(("core.wire.tx_bytes_per_op", tx));
    values.push(("core.wire.rx_bytes_per_op", rx));

    values.extend(trace_means(&rec.totals(), ops));
    let mut traced_ns: Vec<u32> = rec
        .spans()
        .iter()
        .filter(|s| s.name == ROOT)
        .map(|s| s.duration_ns() as u32)
        .collect();
    traced_ns.sort_unstable();
    let plain_total_ns: f64 = plain_ns.iter().map(|&ns| f64::from(ns)).sum();
    plain_ns.sort_unstable();
    let coverage = rec.op_tree_self_ns() as f64 / plain_total_ns;
    values.push(("trace.coverage", coverage));
    values.push((
        "trace.overhead_pct",
        (percentile_us(&traced_ns, 50.0) / percentile_us(&plain_ns, 50.0) - 1.0) * 100.0,
    ));
    values.push(("op_p95_us", percentile_us(&plain_ns, 95.0)));
    values.push(("op_p99_us", percentile_us(&plain_ns, 99.0)));

    let trace_file = env.out_dir.join(format!("trace_{name}.json"));
    rec.write_json(&trace_file, name, seed)
        .map_err(|e| format!("writing {}: {e}", trace_file.display()))?;

    // The socket legs last: they pin the process for good.
    let net_pinned = sys::pin_to_one_core();
    values.extend(micro::run_net(scale, env)?);

    if !COVERAGE_RANGE.contains(&coverage) {
        return Err(format!(
            "trace.coverage {coverage:.3} is outside {COVERAGE_RANGE:?}: \
             the traced ops are not the ops the untraced pass timed"
        ));
    }
    Ok(Outcome {
        values,
        attempted: counted.attempted,
        failed: counted.failed,
        info: vec![
            ("samples", Json::Num(ops as f64)),
            ("pinned", pinned.map_or(Json::Null, Json::Bool)),
            ("net_legs_pinned", Json::Bool(net_pinned)),
            ("spans", Json::Num(rec.spans().len() as f64)),
        ],
    })
}

/// The result object: exactly the metrics `BENCHMARK.json` lists for this
/// kind of run, by name. A missing or extra name is an error, so the
/// emitted names cannot drift from the contract.
fn result_json(kind: &[Metric], outcome: &Outcome) -> Result<Json, String> {
    let mut metrics = Vec::with_capacity(kind.len());
    for m in kind {
        let mut found = outcome.values.iter().filter(|(n, _)| *n == m.name);
        match (found.next(), found.next()) {
            (Some((_, v)), None) if v.is_finite() => metrics.push((
                m.name,
                Json::obj([("value", Json::Num(*v)), ("unit", Json::str(m.unit))]),
            )),
            (Some((_, v)), None) => return Err(format!("metric {} is {v}", m.name)),
            (None, _) => return Err(format!("metric {} was not measured", m.name)),
            (Some(_), Some(_)) => return Err(format!("metric {} was measured twice", m.name)),
        }
    }
    if let Some((extra, _)) = outcome
        .values
        .iter()
        .find(|(n, _)| !kind.iter().any(|m| m.name == *n))
    {
        return Err(format!("metric {extra} is not in BENCHMARK.json"));
    }
    Ok(Json::obj([
        ("correct", Json::Bool(outcome.failed == 0)),
        ("attempted", Json::Num(outcome.attempted as f64)),
        ("failed", Json::Num(outcome.failed as f64)),
        ("metrics", Json::obj(metrics)),
    ]))
}

fn single_run(args: &Args, name: &str, env: &Env) -> Result<bool, String> {
    if !WORKLOADS.iter().any(|(w, _)| *w == name) {
        return Err(format!("unknown workload {name}"));
    }
    let (kind, outcome) = if args.trace {
        (
            &PER_LAYER[..],
            run_traced(name, args.seed, args.seconds, env)?,
        )
    } else {
        (
            &END_TO_END[..],
            run_untraced(name, args.seed, args.seconds, env)?,
        )
    };
    let result = result_json(kind, &outcome)?;
    // `result_json` has checked that the values are exactly `kind`'s names.
    for (name, value) in &outcome.values {
        let unit = kind.iter().find(|m| m.name == *name).map_or("", |m| m.unit);
        let note = if *name == "cipher.aes_fast.gbps" {
            format!("  (paper engine: {} Gbps)", micro::PAPER_ENGINE_GBPS)
        } else {
            String::new()
        };
        println!("{name} {value} {unit}{note}");
    }
    println!("ops_attempted {} count", outcome.attempted);
    println!("ops_failed {} count", outcome.failed);
    let mut info = vec![
        ("workload", Json::str(name)),
        ("seed", Json::Num(args.seed as f64)),
        ("seconds", Json::Num(args.seconds)),
        ("trace", Json::Bool(args.trace)),
        ("quick", Json::Bool(args.quick)),
        ("nproc", Json::Num(env.nproc as f64)),
    ];
    info.extend(outcome.info);
    println!("info {}", Json::obj(info).render());
    println!("{}", result.render());
    Ok(outcome.failed == 0)
}

/// Runs one workload in a fresh child process and returns its `info` and
/// result objects.
fn child_run(args: &Args, name: &str, trace: bool) -> Result<(Json, Json), String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", name, "--seed", &args.seed.to_string()])
        .args(["--seconds", &args.seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .arg("--server")
        .arg(&args.server)
        .stderr(Stdio::inherit());
    if args.quick {
        cmd.arg("--quick");
    }
    let out = cmd.output().map_err(|e| format!("spawning {name}: {e}"))?;
    let text = String::from_utf8_lossy(&out.stdout);
    print!("{text}");
    if !out.status.success() {
        return Err(format!(
            "{name} (trace {}) exited {}",
            trace as u8, out.status
        ));
    }
    let info = text
        .lines()
        .find_map(|l| l.strip_prefix("info "))
        .ok_or("child printed no info line")
        .and_then(|l| Json::parse(l).map_err(|_| "child info line is not JSON"))?;
    let result = Json::parse(text.lines().last().unwrap_or_default())
        .map_err(|e| format!("{name}: last line is not a result: {e}"))?;
    Ok((info, result))
}

fn metric_value(result: &Json, name: &str) -> Option<f64> {
    result.get("metrics")?.get(name)?.get("value")?.as_f64()
}

/// Whether every end-to-end metric of `second` is within its bound of
/// `first`; prints each pair.
fn repeat_agrees(workload: &str, first: &Json, second: &Json) -> bool {
    let mut ok = true;
    for m in &END_TO_END {
        let (Some(a), Some(b)) = (metric_value(first, m.name), metric_value(second, m.name)) else {
            println!("repeat {workload} {} missing", m.name);
            ok = false;
            continue;
        };
        let within = stats::within_bound(m, a, b);
        println!(
            "repeat {workload} {} {a} -> {b} {} ({:+.2} % worse, bound {} %) {}",
            m.name,
            m.unit,
            stats::worse_by(m.better, a, b) * 100.0,
            m.bound * 100.0,
            if within { "ok" } else { "REGRESSED" }
        );
        ok &= within;
    }
    ok
}

fn ledger(args: &Args, env: &Env) -> Result<bool, String> {
    let mut ok = true;
    let mut workloads = Vec::new();
    for (name, why) in WORKLOADS {
        println!("## {name} untraced");
        let (info, end_to_end) = child_run(args, name, false)?;
        let mut entry = vec![
            ("why", Json::str(why)),
            ("info", info.clone()),
            ("end_to_end", end_to_end.clone()),
        ];
        if args.repeat_check {
            println!("## {name} untraced, repeat");
            let (_, again) = child_run(args, name, false)?;
            if info.get("pinned").and_then(Json::as_bool) == Some(false) {
                println!("repeat {name} skipped: pinned=false (taskset missing)");
            } else {
                ok &= repeat_agrees(name, &end_to_end, &again);
            }
            entry.push(("end_to_end_repeat", again));
        }
        workloads.push((name, entry));
    }
    for (name, entry) in &mut workloads {
        println!("## {name} traced");
        let (info, per_layer) = child_run(args, name, true)?;
        entry.push(("traced_info", info));
        entry.push(("per_layer", per_layer));
    }
    let doc = Json::obj([
        ("quick", Json::Bool(args.quick)),
        ("seed", Json::Num(args.seed as f64)),
        ("seconds", Json::Num(args.seconds)),
        ("nproc", Json::Num(env.nproc as f64)),
        ("rustc", Json::str(sys::first_line("rustc", &["-V"]))),
        (
            "commit",
            Json::str(sys::first_line("git", &["rev-parse", "HEAD"])),
        ),
        ("features", Json::str("default (telemetry compiled in)")),
        (
            "workloads",
            Json::obj(workloads.into_iter().map(|(n, e)| (n, Json::obj(e)))),
        ),
    ]);
    let path = env.out_dir.join("results.json");
    std::fs::write(&path, doc.render()).map_err(|e| format!("writing {}: {e}", path.display()))?;
    println!("wrote {}", path.display());
    Ok(ok)
}

fn run() -> Result<bool, String> {
    // Before any thread exists: the knobs must not reach this process, the
    // worker threads it starts, or the server it spawns.
    sys::scrub_env();
    let mut args = parse_args()?;
    let out_dir = PathBuf::from("benchmark/out");
    std::fs::create_dir_all(&out_dir)
        .map_err(|e| format!("creating {}: {e}", out_dir.display()))?;
    // Absolute: the server is started with `out_dir` as its directory.
    args.server = args
        .server
        .canonicalize()
        .map_err(|e| format!("server binary {}: {e}", args.server.display()))?;
    let env = Env {
        server_bin: args.server.clone(),
        out_dir: out_dir
            .canonicalize()
            .map_err(|e| format!("{}: {e}", out_dir.display()))?,
        nproc: sys::nproc(),
    };
    match &args.workload {
        Some(name) => single_run(&args, name, &env),
        None => ledger(&args, &env),
    }
}

fn main() -> ExitCode {
    match run() {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const CONTRACT: &str = include_str!("../../BENCHMARK.json");

    fn listed(section: &str) -> Vec<(String, String, String, f64)> {
        let doc = Json::parse(CONTRACT).expect("BENCHMARK.json parses");
        doc.get(section)
            .expect("section exists")
            .as_arr()
            .iter()
            .map(|m| {
                let s = |k: &str| {
                    m.get(k)
                        .and_then(Json::as_str)
                        .unwrap_or_default()
                        .to_string()
                };
                let bound = m.get("bound").and_then(Json::as_f64).unwrap_or(0.0);
                (s("name"), s("unit"), s("better"), bound)
            })
            .collect()
    }

    fn declared(kind: &[Metric]) -> Vec<(String, String, String, f64)> {
        kind.iter()
            .map(|m| {
                (
                    m.name.to_string(),
                    m.unit.to_string(),
                    m.better.as_str().to_string(),
                    m.bound,
                )
            })
            .collect()
    }

    #[test]
    fn benchmark_json_lists_exactly_the_declared_names() {
        assert_eq!(listed("end_to_end"), declared(&END_TO_END));
        assert_eq!(listed("per_layer"), declared(&PER_LAYER));
        let doc = Json::parse(CONTRACT).unwrap();
        let workloads: Vec<(&str, &str)> = doc
            .get("workloads")
            .unwrap()
            .as_arr()
            .iter()
            .map(|w| {
                (
                    w.get("name").and_then(Json::as_str).unwrap(),
                    w.get("why").and_then(Json::as_str).unwrap(),
                )
            })
            .collect();
        assert_eq!(workloads, WORKLOADS);
        assert_eq!(
            doc.get("run_seconds").and_then(Json::as_f64),
            Some(RUN_SECONDS)
        );
        assert_eq!(
            doc.fields()
                .iter()
                .map(|(k, _)| k.as_str())
                .collect::<Vec<_>>(),
            [
                "command",
                "paths",
                "run_seconds",
                "workloads",
                "end_to_end",
                "per_layer"
            ]
        );
    }

    fn outcome(values: Values) -> Outcome {
        Outcome {
            values,
            attempted: 10,
            failed: 0,
            info: Vec::new(),
        }
    }

    #[test]
    fn result_carries_exactly_the_contract_names() {
        let all: Values = END_TO_END.iter().map(|m| (m.name, 1.5)).collect();
        let result = result_json(&END_TO_END, &outcome(all.clone())).unwrap();
        let names: Vec<&str> = result
            .get("metrics")
            .unwrap()
            .fields()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        let contract: Vec<String> = listed("end_to_end").into_iter().map(|m| m.0).collect();
        assert_eq!(names, contract);
        assert_eq!(
            result
                .fields()
                .iter()
                .map(|(k, _)| k.as_str())
                .collect::<Vec<_>>(),
            ["correct", "attempted", "failed", "metrics"]
        );

        let missing = all[1..].to_vec();
        assert!(result_json(&END_TO_END, &outcome(missing)).is_err());
        let mut extra = all.clone();
        extra.push(("op_p99_us", 2.0));
        assert!(result_json(&END_TO_END, &outcome(extra)).is_err());
        let mut nan = all;
        nan[0].1 = f64::NAN;
        assert!(result_json(&END_TO_END, &outcome(nan)).is_err());
    }

    #[test]
    fn traced_run_names_fill_the_per_layer_list() {
        // Every per-layer name comes from one of three places; together
        // they must be the whole list, each exactly once.
        let totals = BTreeMap::new();
        let mut names: Vec<&str> = trace_means(&totals, 1).iter().map(|v| v.0).collect();
        names.extend([
            "cipher.cache.hit_rate",
            "cipher.cache.evictions_per_op",
            "core.wire.tx_bytes_per_op",
            "core.wire.rx_bytes_per_op",
            "trace.coverage",
            "trace.overhead_pct",
            "op_p95_us",
            "op_p99_us",
            "core.net.rtt_us",
            "core.net.load_mb_per_s",
        ]);
        names.extend(micro::run(0.0).iter().map(|v| v.0));
        let mut listed: Vec<&str> = PER_LAYER.iter().map(|m| m.name).collect();
        names.sort_unstable();
        listed.sort_unstable();
        assert_eq!(names, listed);
    }

    #[test]
    fn derived_trace_values() {
        let t = |total_ns| Total {
            count: 2,
            total_ns,
            self_ns: 0,
        };
        let single: BTreeMap<&'static str, Total> = [
            (ROOT, t(200_000)),
            ("device_call", t(80_000)),
            ("reconstruct", t(100_000)),
            ("otp_share", t(60_000)),
            ("wire_encode", t(10_000)),
            ("wire_serve", t(30_000)),
            ("wire_decode", t(10_000)),
        ]
        .into();
        let get = |v: &Values, n: &str| v.iter().find(|x| x.0 == n).unwrap().1;
        let v = trace_means(&single, 2);
        assert_eq!(get(&v, "trace.device_call_us"), 40.0);
        assert_eq!(get(&v, "trace.verify_us"), 20.0);
        assert_eq!(get(&v, "trace.transport_self_us"), 15.0);
        assert_eq!(get(&v, "trace.plan_us"), 0.0);

        let batch: BTreeMap<&'static str, Total> = [
            (ROOT, t(200_000)),
            ("plan", t(150_000)),
            ("batch_wait", t(20_000)),
        ]
        .into();
        let v = trace_means(&batch, 2);
        assert_eq!(get(&v, "trace.reconstruct_us"), 15.0);
        assert_eq!(get(&v, "trace.verify_us"), 0.0);
        assert_eq!(get(&v, "trace.transport_self_us"), 0.0);
    }
}
