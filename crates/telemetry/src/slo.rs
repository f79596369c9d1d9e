//! Declarative SLOs with multi-window burn-rate tracking.
//!
//! The paper's pitch is *verified queries at near-native latency*; in
//! operation that promise has to be stated as an objective ("99% of wire
//! round trips under 2 ms", "99.9% of queries verify") and *watched*. This
//! module lets a deployment declare [`Objective`]s — through the builder
//! ([`crate::serve::ServerBuilder::slo`]) or on the engine itself
//! ([`SloEngine::add`], [`SloEngine::configure`]); there is no environment
//! surface — and continuously scores them against the metric registry.
//!
//! # Burn rate
//!
//! Each [`SloEngine::sample`] appends cumulative `(good, total)` event
//! counts per objective (latency objectives estimate *good* from the
//! histogram buckets via
//! [`count_at_or_below`](crate::HistogramSnapshot::count_at_or_below);
//! error objectives use `total − errors`). The burn rate over a window is
//!
//! ```text
//! burn = (bad events / total events in window) / (1 − target)
//! ```
//!
//! i.e. how many times faster than "exactly on objective" the error budget
//! is being spent: 1.0 spends the budget exactly at the allowed rate, > 1
//! exhausts it early, 0 spends nothing. Two windows are evaluated
//! ([`SloConfig`]: 5 minutes and 1 hour by default) following the
//! multi-window multi-burn-rate alerting practice — the fast window
//! catches an active incident, the slow window a smoulder.
//!
//! The engine is sampled from [`HealthMonitor::sample`]
//! ((crate::health::HealthMonitor::sample)) so the background health
//! sampler drives it for free, and freshly on every `/sloz` scrape.
//! [`register_slo_health`] folds "any objective's fast burn > 1" into the
//! process [`health monitor`](crate::health::monitor) as a `Degraded`
//! verdict — budget exhaustion degrades `/healthz` without ever claiming
//! the process is unable to serve (that stays the transports' call).

use crate::registry::{Registry, Snapshot, Value};
use std::sync::Mutex;

/// Default fast burn window: 5 minutes.
pub const DEFAULT_FAST_WINDOW_MS: u64 = 5 * 60 * 1000;
/// Default slow burn window: 1 hour.
pub const DEFAULT_SLOW_WINDOW_MS: u64 = 60 * 60 * 1000;
/// Hard cap on retained samples (a sampler at 1 s fills an hour in 3600).
const MAX_SAMPLES: usize = 8 * 1024;

/// A declarative service-level objective.
#[derive(Debug, Clone, PartialEq)]
pub enum Objective {
    /// "`target` fraction of `metric` samples at or under `threshold_ns`"
    /// — scored against a histogram family (summed across label sets).
    Latency {
        /// Objective name (reported at `/sloz` and in health verdicts).
        name: String,
        /// Histogram family name, e.g. `secndp_wire_round_trip_ns`.
        metric: String,
        /// Good-event latency bound, inclusive, in nanoseconds.
        threshold_ns: u64,
        /// Target good fraction in `(0, 1)`, e.g. `0.99`.
        target: f64,
    },
    /// "`target` fraction of `total` events not counted by `errors`" —
    /// scored against two counter families.
    ErrorRate {
        /// Objective name.
        name: String,
        /// Error-counter family, e.g. `secndp_verify_failures_total`.
        errors: String,
        /// Total-counter family, e.g. `secndp_queries_total`.
        total: String,
        /// Target good fraction in `(0, 1)`, e.g. `0.999`.
        target: f64,
    },
}

impl Objective {
    /// The objective's name.
    pub fn name(&self) -> &str {
        match self {
            Objective::Latency { name, .. } | Objective::ErrorRate { name, .. } => name,
        }
    }

    /// The target good fraction.
    pub fn target(&self) -> f64 {
        match self {
            Objective::Latency { target, .. } | Objective::ErrorRate { target, .. } => *target,
        }
    }

    /// Cumulative `(good, total)` event estimates from a registry
    /// snapshot.
    fn counts(&self, snap: &Snapshot) -> (f64, f64) {
        match self {
            Objective::Latency {
                metric,
                threshold_ns,
                ..
            } => {
                let mut good = 0.0;
                let mut total = 0.0;
                for m in snap.metrics.iter().filter(|m| m.name == metric) {
                    if let Value::Histogram(h) = &m.value {
                        good += h.count_at_or_below(*threshold_ns);
                        total += h.count as f64;
                    }
                }
                (good, total)
            }
            Objective::ErrorRate { errors, total, .. } => {
                let t = snap.counter_total(total) as f64;
                let e = (snap.counter_total(errors) as f64).min(t);
                (t - e, t)
            }
        }
    }
}

/// Burn-window configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SloConfig {
    /// Fast (incident) burn window in milliseconds.
    pub fast_window_ms: u64,
    /// Slow (smoulder / budget) burn window in milliseconds.
    pub slow_window_ms: u64,
}

impl Default for SloConfig {
    fn default() -> Self {
        Self {
            fast_window_ms: DEFAULT_FAST_WINDOW_MS,
            slow_window_ms: DEFAULT_SLOW_WINDOW_MS,
        }
    }
}

/// One sample: cumulative `(good, total)` per objective, index-aligned
/// with the engine's objective list.
#[derive(Debug, Clone)]
struct SloSample {
    t_ms: u64,
    counts: Vec<(f64, f64)>,
}

/// A scored objective as reported at `/sloz`.
#[derive(Debug, Clone, PartialEq)]
pub struct ObjectiveStatus {
    /// Objective name.
    pub name: String,
    /// `"latency"` or `"error_rate"`.
    pub kind: &'static str,
    /// Target good fraction.
    pub target: f64,
    /// Burn rate over the fast window (0 with < 2 samples or no traffic).
    pub burn_fast: f64,
    /// Burn rate over the slow window.
    pub burn_slow: f64,
    /// Error budget left over the slow window: `1 − burn_slow` (negative
    /// = overspent).
    pub budget_remaining: f64,
    /// Cumulative good events at the newest sample.
    pub good: f64,
    /// Cumulative total events at the newest sample.
    pub total: f64,
}

impl ObjectiveStatus {
    /// Whether the fast window is burning budget faster than allowed.
    pub fn breached(&self) -> bool {
        self.burn_fast > 1.0
    }
}

#[derive(Debug, Default)]
struct EngineState {
    objectives: Vec<Objective>,
    samples: Vec<SloSample>,
    cfg: SloConfig,
}

/// The SLO scoring engine. The process-wide instance is [`engine()`];
/// tests can build private ones.
#[derive(Debug, Default)]
pub struct SloEngine {
    state: Mutex<EngineState>,
}

/// Burn rate between two cumulative `(good, total)` readings.
fn burn_between(old: (f64, f64), new: (f64, f64), target: f64) -> f64 {
    let dtotal = new.1 - old.1;
    if dtotal <= 0.0 {
        return 0.0;
    }
    let dgood = (new.0 - old.0).clamp(0.0, dtotal);
    let bad_frac = 1.0 - dgood / dtotal;
    bad_frac / (1.0 - target).max(1e-9)
}

impl SloEngine {
    /// An empty engine (no objectives, default windows).
    pub fn new() -> Self {
        Self::default()
    }

    /// Replaces the burn-window configuration.
    pub fn configure(&self, cfg: SloConfig) {
        self.state.lock().unwrap().cfg = cfg;
    }

    /// The active configuration (5 m / 1 h until [`configure`](Self::configure)d).
    pub fn config(&self) -> SloConfig {
        self.state.lock().unwrap().cfg
    }

    /// Adds an objective (deduplicated by name — re-adding replaces).
    /// Changing the objective list restarts sampling, since samples are
    /// index-aligned with it.
    pub fn add(&self, obj: Objective) {
        let mut s = self.state.lock().unwrap();
        if let Some(existing) = s.objectives.iter_mut().find(|o| o.name() == obj.name()) {
            *existing = obj;
        } else {
            s.objectives.push(obj);
        }
        s.samples.clear();
    }

    /// Names of the configured objectives.
    pub fn objectives(&self) -> Vec<String> {
        self.state
            .lock()
            .unwrap()
            .objectives
            .iter()
            .map(|o| o.name().to_string())
            .collect()
    }

    /// Removes every objective and sample (tests).
    pub fn clear(&self) {
        let mut s = self.state.lock().unwrap();
        s.objectives.clear();
        s.samples.clear();
    }

    /// Takes one sample from `registry` at the current process uptime.
    pub fn sample(&self, registry: &Registry) {
        self.sample_snapshot(crate::health::uptime_ms(), &registry.snapshot());
    }

    /// Takes one sample from an explicit snapshot at an explicit
    /// timestamp — the deterministic entry point tests drive directly.
    pub fn sample_snapshot(&self, t_ms: u64, snap: &Snapshot) {
        let mut s = self.state.lock().unwrap();
        if s.objectives.is_empty() {
            return;
        }
        let counts: Vec<(f64, f64)> = s.objectives.iter().map(|o| o.counts(snap)).collect();
        // Monotonic guard: a sample stamped earlier than the newest one
        // (clock quirks in tests) is appended with the newest stamp.
        let t_ms = s.samples.last().map_or(t_ms, |l| t_ms.max(l.t_ms));
        s.samples.push(SloSample { t_ms, counts });
        // Prune beyond the slow window (with one sample of slack to keep a
        // baseline at the window edge) and the hard cap.
        let keep_after = t_ms.saturating_sub(s.cfg.slow_window_ms);
        let first_inside = s.samples.partition_point(|x| x.t_ms < keep_after);
        let drop_n = first_inside.saturating_sub(1);
        if drop_n > 0 {
            s.samples.drain(..drop_n);
        }
        if s.samples.len() > MAX_SAMPLES {
            let excess = s.samples.len() - MAX_SAMPLES;
            s.samples.drain(..excess);
        }
        drop(s);
        crate::counter!(
            "secndp_slo_samples_total",
            "Samples folded into the SLO burn-rate engine."
        )
        .inc();
    }

    /// Scores every objective over both windows against the samples taken
    /// so far.
    pub fn status(&self) -> Vec<ObjectiveStatus> {
        let s = self.state.lock().unwrap();
        let cfg = s.cfg;
        let Some(latest) = s.samples.last().cloned() else {
            return s
                .objectives
                .iter()
                .map(|o| ObjectiveStatus {
                    name: o.name().to_string(),
                    kind: kind_of(o),
                    target: o.target(),
                    burn_fast: 0.0,
                    burn_slow: 0.0,
                    budget_remaining: 1.0,
                    good: 0.0,
                    total: 0.0,
                })
                .collect();
        };
        // Baseline for a window: the oldest sample at or after the window
        // cutoff that is not the newest sample itself (burn needs an
        // interval). `None` with a single sample.
        let baseline = |window_ms: u64| -> Option<SloSample> {
            let cutoff = latest.t_ms.saturating_sub(window_ms);
            let i = s.samples.partition_point(|x| x.t_ms < cutoff);
            (i + 1 < s.samples.len()).then(|| s.samples[i].clone())
        };
        let fast = baseline(cfg.fast_window_ms);
        let slow = baseline(cfg.slow_window_ms);
        s.objectives
            .iter()
            .enumerate()
            .map(|(i, o)| {
                let new = latest.counts.get(i).copied().unwrap_or((0.0, 0.0));
                let burn = |b: &Option<SloSample>| -> f64 {
                    match b {
                        Some(b) => burn_between(
                            b.counts.get(i).copied().unwrap_or((0.0, 0.0)),
                            new,
                            o.target(),
                        ),
                        None => 0.0,
                    }
                };
                let burn_fast = burn(&fast);
                let burn_slow = burn(&slow);
                ObjectiveStatus {
                    name: o.name().to_string(),
                    kind: kind_of(o),
                    target: o.target(),
                    burn_fast,
                    burn_slow,
                    budget_remaining: 1.0 - burn_slow,
                    good: new.0,
                    total: new.1,
                }
            })
            .collect()
    }

    /// Renders the `/sloz` JSON document:
    ///
    /// ```json
    /// {"fast_window_ms":300000,"slow_window_ms":3600000,"samples":12,
    ///  "objectives":[{"name":"...","kind":"latency","target":0.99,
    ///    "burn_fast":0.0,"burn_slow":0.0,"budget_remaining":1.0,
    ///    "good":100,"total":100,"breached":false}]}
    /// ```
    pub fn render_json(&self) -> String {
        let cfg = self.config();
        let n_samples = self.state.lock().unwrap().samples.len();
        let objectives: Vec<String> = self
            .status()
            .iter()
            .map(|st| {
                format!(
                    "{{\"name\":\"{}\",\"kind\":\"{}\",\"target\":{},\
                     \"burn_fast\":{},\"burn_slow\":{},\"budget_remaining\":{},\
                     \"good\":{},\"total\":{},\"breached\":{}}}",
                    crate::export::json_escape(&st.name),
                    st.kind,
                    fmt_f64(st.target),
                    fmt_f64(st.burn_fast),
                    fmt_f64(st.burn_slow),
                    fmt_f64(st.budget_remaining),
                    fmt_f64(st.good),
                    fmt_f64(st.total),
                    st.breached(),
                )
            })
            .collect();
        format!(
            "{{\"fast_window_ms\":{},\"slow_window_ms\":{},\"samples\":{},\
             \"objectives\":[{}]}}\n",
            cfg.fast_window_ms,
            cfg.slow_window_ms,
            n_samples,
            objectives.join(",")
        )
    }
}

fn kind_of(o: &Objective) -> &'static str {
    match o {
        Objective::Latency { .. } => "latency",
        Objective::ErrorRate { .. } => "error_rate",
    }
}

fn fmt_f64(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

/// The process-wide SLO engine behind `/sloz`.
pub fn engine() -> &'static SloEngine {
    static ENGINE: std::sync::OnceLock<SloEngine> = std::sync::OnceLock::new();
    ENGINE.get_or_init(SloEngine::new)
}

/// Registers (once per process) the `"slo"` component with the health
/// monitor: any objective whose fast-window burn exceeds 1 folds to
/// [`Degraded`](crate::health::HealthStatus::Degraded). Deliberately never
/// `Failing` — a burned error budget means the service is missing its
/// objective, not that it cannot serve.
pub fn register_slo_health() {
    static ONCE: std::sync::Once = std::sync::Once::new();
    ONCE.call_once(|| {
        crate::health::monitor()
            .register("slo", |_ctx| {
                let statuses = engine().status();
                if statuses.is_empty() {
                    return (
                        crate::health::HealthStatus::Ok,
                        "no objectives configured".to_string(),
                    );
                }
                let breached: Vec<String> = statuses
                    .iter()
                    .filter(|s| s.breached())
                    .map(|s| format!("{} burn {:.2}", s.name, s.burn_fast))
                    .collect();
                if breached.is_empty() {
                    (
                        crate::health::HealthStatus::Ok,
                        format!("{} objectives within budget", statuses.len()),
                    )
                } else {
                    (
                        crate::health::HealthStatus::Degraded,
                        format!("error budget burning: {}", breached.join(", ")),
                    )
                }
            })
            .leak();
    });
}

#[cfg(all(test, feature = "enabled"))]
mod tests {
    use super::*;

    fn lat_snapshot(values: &[u64]) -> Snapshot {
        let r = Registry::new();
        let h = r.histogram("slo_test_ns", &[], "t");
        for &v in values {
            h.observe(v);
        }
        r.snapshot()
    }

    fn lat_objective(threshold_ns: u64, target: f64) -> Objective {
        Objective::Latency {
            name: "lat".into(),
            metric: "slo_test_ns".into(),
            threshold_ns,
            target,
        }
    }

    #[test]
    fn burn_is_zero_when_within_objective() {
        let e = SloEngine::new();
        e.configure(SloConfig {
            fast_window_ms: 1000,
            slow_window_ms: 10_000,
        });
        e.add(lat_objective(1 << 20, 0.99)); // every sample is "good"
        e.sample_snapshot(0, &lat_snapshot(&[100]));
        e.sample_snapshot(500, &lat_snapshot(&[100, 200, 300]));
        let st = &e.status()[0];
        assert!(st.burn_fast < 0.2, "burn_fast={}", st.burn_fast);
        assert!(!st.breached());
        assert!(st.budget_remaining > 0.8);
    }

    #[test]
    fn breach_flips_fast_burn_above_one() {
        let e = SloEngine::new();
        e.configure(SloConfig {
            fast_window_ms: 1000,
            slow_window_ms: 10_000,
        });
        // Impossible threshold: nothing is good → bad_frac 1 → burn 1/0.01.
        e.add(lat_objective(0, 0.99));
        e.sample_snapshot(0, &lat_snapshot(&[100]));
        e.sample_snapshot(500, &lat_snapshot(&[100, 200, 300]));
        let st = &e.status()[0];
        assert!(st.burn_fast > 50.0, "burn_fast={}", st.burn_fast);
        assert!(st.breached());
        assert!(st.budget_remaining < 0.0);
        let json = e.render_json();
        assert!(json.contains("\"breached\":true"), "{json}");
    }

    #[test]
    fn no_traffic_means_no_burn() {
        let e = SloEngine::new();
        e.add(lat_objective(0, 0.99));
        let snap = lat_snapshot(&[100]);
        e.sample_snapshot(0, &snap);
        e.sample_snapshot(500, &snap); // identical cumulative counts
        let st = &e.status()[0];
        assert_eq!(st.burn_fast, 0.0);
        assert_eq!(st.burn_slow, 0.0);
    }

    #[test]
    fn error_rate_objective_counts_failures() {
        let e = SloEngine::new();
        e.configure(SloConfig {
            fast_window_ms: 1000,
            slow_window_ms: 10_000,
        });
        e.add(Objective::ErrorRate {
            name: "verify".into(),
            errors: "slo_err_total".into(),
            total: "slo_all_total".into(),
            target: 0.9,
        });
        let snap_at = |errs: u64, all: u64| {
            let r = Registry::new();
            r.counter("slo_err_total", &[], "t").add(errs);
            r.counter("slo_all_total", &[], "t").add(all);
            r.snapshot()
        };
        e.sample_snapshot(0, &snap_at(0, 10));
        // 5 of the next 10 events fail: bad_frac 0.5, budget 0.1 → burn 5.
        e.sample_snapshot(500, &snap_at(5, 20));
        let st = &e.status()[0];
        assert!((st.burn_fast - 5.0).abs() < 1e-9, "burn={}", st.burn_fast);
        assert!(st.breached());
    }

    #[test]
    fn windows_see_different_baselines() {
        let e = SloEngine::new();
        e.configure(SloConfig {
            fast_window_ms: 1_000,
            slow_window_ms: 100_000,
        });
        e.add(lat_objective(1000, 0.5));
        // Old sample: all good. Then a long quiet gap. Then a bad burst
        // inside the fast window only.
        e.sample_snapshot(0, &lat_snapshot(&[100]));
        e.sample_snapshot(99_500, &lat_snapshot(&[100, 100, 100]));
        e.sample_snapshot(
            99_900,
            &lat_snapshot(&[100, 100, 100, 1 << 30, 1 << 30, 1 << 30]),
        );
        let st = &e.status()[0];
        // Fast window: 3 events, all bad → burn 1/0.5 = 2.
        assert!((st.burn_fast - 2.0).abs() < 1e-9, "fast={}", st.burn_fast);
        // Slow window: 5 events, 2 good 3 bad → 0.6/0.5 = 1.2.
        assert!((st.burn_slow - 1.2).abs() < 1e-9, "slow={}", st.burn_slow);
    }

    #[test]
    fn adding_objectives_resets_samples_and_dedups_by_name() {
        let e = SloEngine::new();
        e.add(lat_objective(10, 0.9));
        e.sample_snapshot(0, &lat_snapshot(&[1]));
        assert_eq!(e.state.lock().unwrap().samples.len(), 1);
        e.add(lat_objective(20, 0.9)); // same name "lat" → replace + reset
        assert_eq!(e.objectives(), vec!["lat".to_string()]);
        assert_eq!(e.state.lock().unwrap().samples.len(), 0);
    }

    #[test]
    fn status_without_samples_is_idle() {
        let e = SloEngine::new();
        e.add(lat_objective(10, 0.9));
        let st = &e.status()[0];
        assert_eq!((st.burn_fast, st.burn_slow), (0.0, 0.0));
        assert_eq!(st.budget_remaining, 1.0);
        assert!(e.render_json().contains("\"samples\":0"));
    }
}
