//! Component health scoring and sliding-window anomaly detection.
//!
//! SecNDP's threat model makes *operational* signals *security* signals: a
//! verify-failure spike is possible active tampering (paper §V), a stalled
//! transport rank is an unresponsive untrusted device, a collapsing
//! pad-cache hit rate silently multiplies AES work. This module watches
//! all of them live:
//!
//! - Components (the async transport endpoints, the protocol core, the
//!   pad cache) [`register`](HealthMonitor::register) a check closure with
//!   the process-wide [`monitor`]. Each check folds its component into
//!   [`HealthStatus::Ok`]/[`Degraded`](HealthStatus::Degraded)/
//!   [`Failing`](HealthStatus::Failing) with a human-readable reason;
//!   [`HealthMonitor::report`] aggregates them (worst status wins) and
//!   drives the `/healthz` endpoint of [`serve`](crate::serve).
//! - A background sampler ([`HealthMonitor::start_sampler`]) snapshots the
//!   registry every [`HealthConfig::interval`] into the flight-recorder
//!   ring. Checks read **windowed counter deltas** from those snapshots
//!   through [`HealthCtx`], so a burst ages out of the verdict once the
//!   window slides past it.
//! - [`AnomalyDetector`]s (rate-over-threshold and delta-spike rules) run
//!   on every sample; on trigger the monitor dumps a
//!   [flight-recorder artifact](crate::recorder) to
//!   [`HealthConfig::flight_dir`] so the incident is diagnosable after the
//!   fact.
//!
//! Everything here works with telemetry compiled out: snapshots are then
//! empty (all deltas zero), but liveness-style checks that consult their
//! own state — e.g. transport worker heartbeats — still score honestly.

use crate::recorder::{FlightRecorder, WindowSample};
use crate::registry::{Registry, Snapshot};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, OnceLock, PoisonError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Milliseconds since the process-wide monotonic epoch (pinned on first
/// call). Shared by the sampler timestamps, uptime gauge and dumps.
pub fn uptime_ms() -> u64 {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    EPOCH.get_or_init(Instant::now).elapsed().as_millis() as u64
}

/// A component's folded health state, worst-wins ordered.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum HealthStatus {
    /// Operating normally.
    Ok,
    /// Alive but impaired (recent integrity failures, a stalled rank,
    /// cache thrash); `/healthz` still answers 200.
    Degraded,
    /// Unable to make progress (e.g. every transport rank stalled);
    /// `/healthz` answers 503.
    Failing,
}

impl HealthStatus {
    /// The lowercase wire name (`"ok"` / `"degraded"` / `"failing"`).
    pub fn as_str(&self) -> &'static str {
        match self {
            HealthStatus::Ok => "ok",
            HealthStatus::Degraded => "degraded",
            HealthStatus::Failing => "failing",
        }
    }
}

/// One component's verdict inside a [`HealthReport`].
#[derive(Debug, Clone)]
pub struct ComponentHealth {
    /// Component name as registered (e.g. `"transport-ep0"`).
    pub component: String,
    /// Folded status.
    pub status: HealthStatus,
    /// Human-readable explanation of the status.
    pub reason: String,
}

/// Aggregated output of every registered check.
#[derive(Debug, Clone)]
pub struct HealthReport {
    /// Worst status across components ([`HealthStatus::Ok`] with none).
    pub status: HealthStatus,
    /// Per-component verdicts, registration order.
    pub components: Vec<ComponentHealth>,
}

impl HealthReport {
    /// The HTTP status `/healthz` answers with: 200 while the process can
    /// serve (ok or degraded), 503 when failing.
    pub fn http_status(&self) -> u16 {
        match self.status {
            HealthStatus::Failing => 503,
            _ => 200,
        }
    }

    /// Renders the report as JSON:
    /// `{"status":"ok","uptime_ms":…,"components":[…]}`.
    pub fn render_json(&self) -> String {
        let comps: Vec<String> = self
            .components
            .iter()
            .map(|c| {
                format!(
                    "{{\"component\":\"{}\",\"status\":\"{}\",\"reason\":\"{}\"}}",
                    crate::export::json_escape(&c.component),
                    c.status.as_str(),
                    crate::export::json_escape(&c.reason),
                )
            })
            .collect();
        format!(
            "{{\"status\":\"{}\",\"uptime_ms\":{},\"components\":[{}]}}\n",
            self.status.as_str(),
            uptime_ms(),
            comps.join(","),
        )
    }
}

/// The sliding window a health check scores against: the newest
/// [`HealthConfig::window`] snapshots from the sampler ring (possibly
/// empty before the sampler has run).
pub struct HealthCtx<'a> {
    samples: &'a [WindowSample],
}

impl HealthCtx<'_> {
    /// Number of snapshots in the window.
    pub fn window_len(&self) -> usize {
        self.samples.len()
    }

    /// Wall-clock span of the window in milliseconds (0 with < 2 samples).
    pub fn window_ms(&self) -> u64 {
        match (self.samples.first(), self.samples.last()) {
            (Some(a), Some(b)) => b.t_ms.saturating_sub(a.t_ms),
            _ => 0,
        }
    }

    /// How much the counter family `name` (summed across label sets) rose
    /// across the window. Saturates to 0 on < 2 samples or a registry
    /// reset mid-window.
    pub fn counter_delta(&self, name: &str) -> u64 {
        match (self.samples.first(), self.samples.last()) {
            (Some(a), Some(b)) => b
                .snapshot
                .counter_total(name)
                .saturating_sub(a.snapshot.counter_total(name)),
            _ => 0,
        }
    }

    /// [`counter_delta`](Self::counter_delta) per second of window span.
    pub fn rate_per_sec(&self, name: &str) -> f64 {
        let ms = self.window_ms();
        if ms == 0 {
            0.0
        } else {
            self.counter_delta(name) as f64 * 1000.0 / ms as f64
        }
    }

    /// The newest snapshot in the window, if any.
    pub fn latest(&self) -> Option<&Snapshot> {
        self.samples.last().map(|s| &s.snapshot)
    }
}

/// An anomaly rule evaluated over the sampler window.
#[derive(Debug, Clone, Copy)]
pub enum DetectorRule {
    /// Triggers when a counter family rises by at least `threshold` across
    /// the window.
    RateOver {
        /// Counter family name.
        metric: &'static str,
        /// Minimum windowed rise that triggers.
        threshold: u64,
    },
    /// Triggers when the newest inter-sample delta is at least `min` *and*
    /// exceeds `factor ×` the mean of the window's earlier deltas — a
    /// sudden spike against recent history (a quiet history counts as
    /// mean 0, so the first burst ≥ `min` triggers).
    DeltaSpike {
        /// Counter family name.
        metric: &'static str,
        /// Spike factor over the mean of prior deltas.
        factor: f64,
        /// Minimum newest delta that can trigger.
        min: u64,
    },
}

/// A named anomaly detector; triggering dumps a flight-recorder artifact.
#[derive(Debug, Clone, Copy)]
pub struct AnomalyDetector {
    /// Detector name, used in the dump reason and for deduplication.
    pub name: &'static str,
    /// The rule evaluated each sample.
    pub rule: DetectorRule,
}

impl AnomalyDetector {
    /// Evaluates the rule over `window` (oldest first); `Some(reason)` on
    /// trigger.
    fn evaluate(&self, window: &[WindowSample]) -> Option<String> {
        if window.len() < 2 {
            return None;
        }
        match self.rule {
            DetectorRule::RateOver { metric, threshold } => {
                let first = window.first()?.snapshot.counter_total(metric);
                let last = window.last()?.snapshot.counter_total(metric);
                let delta = last.saturating_sub(first);
                (delta >= threshold).then(|| {
                    format!("{metric} rose by {delta} (threshold {threshold}) within the window")
                })
            }
            DetectorRule::DeltaSpike {
                metric,
                factor,
                min,
            } => {
                if window.len() < 3 {
                    return None;
                }
                let deltas: Vec<u64> = window
                    .windows(2)
                    .map(|p| {
                        p[1].snapshot
                            .counter_total(metric)
                            .saturating_sub(p[0].snapshot.counter_total(metric))
                    })
                    .collect();
                let (latest, prior) = deltas.split_last()?;
                let mean = prior.iter().sum::<u64>() as f64 / prior.len() as f64;
                (*latest >= min && *latest as f64 > factor * mean).then(|| {
                    format!(
                        "{metric} jumped by {latest} in one sample \
                         (vs mean {mean:.1} over the prior window, factor {factor})"
                    )
                })
            }
        }
    }
}

/// Sampler and flight-recorder tuning.
#[derive(Debug, Clone)]
pub struct HealthConfig {
    /// Background sampling period (default 1 s).
    pub interval: Duration,
    /// Snapshots per detector / check window (default 5).
    pub window: usize,
    /// Snapshots retained in the flight-recorder ring (default 64).
    pub retain: usize,
    /// Directory anomaly dumps are written to (default
    /// [`default_flight_dir`](crate::recorder::default_flight_dir)).
    pub flight_dir: PathBuf,
}

impl Default for HealthConfig {
    fn default() -> Self {
        Self {
            interval: Duration::from_millis(1000),
            window: 5,
            retain: 64,
            flight_dir: crate::recorder::default_flight_dir(),
        }
    }
}

impl HealthConfig {
    /// Reads the `SECNDP_HEALTH_INTERVAL_MS`, `SECNDP_HEALTH_WINDOW` and
    /// `SECNDP_FLIGHT_DIR` environment knobs, falling back to the defaults;
    /// [`retain`](Self::retain) is set in code only.
    pub fn from_env() -> Self {
        let d = Self::default();
        let parse = |name: &str, default: u64| -> u64 {
            std::env::var(name)
                .ok()
                .and_then(|v| v.parse().ok())
                .unwrap_or(default)
        };
        Self {
            interval: Duration::from_millis(
                parse("SECNDP_HEALTH_INTERVAL_MS", d.interval.as_millis() as u64).max(10),
            ),
            window: parse("SECNDP_HEALTH_WINDOW", d.window as u64).max(2) as usize,
            ..d
        }
    }
}

type CheckFn = Box<dyn Fn(&HealthCtx<'_>) -> (HealthStatus, String) + Send + Sync>;

struct CheckEntry {
    id: u64,
    component: String,
    check: CheckFn,
}

struct DetectorState {
    det: AnomalyDetector,
    /// Samples to skip before this detector may re-trigger.
    cooldown: u32,
}

struct MonitorState {
    checks: Vec<CheckEntry>,
    detectors: Vec<DetectorState>,
    recorder: FlightRecorder,
    cfg: HealthConfig,
    last_dump: Option<PathBuf>,
    dump_seq: u64,
    next_id: u64,
}

/// The per-component health registry plus the sampling/anomaly engine.
/// The process-wide instance is [`monitor()`].
pub struct HealthMonitor {
    state: Mutex<MonitorState>,
}

impl std::fmt::Debug for HealthMonitor {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = self.lock();
        f.debug_struct("HealthMonitor")
            .field("checks", &s.checks.len())
            .field("detectors", &s.detectors.len())
            .field("samples", &s.recorder.len())
            .finish()
    }
}

impl Default for HealthMonitor {
    fn default() -> Self {
        Self::new()
    }
}

impl HealthMonitor {
    /// An empty monitor with the default [`HealthConfig`].
    pub fn new() -> Self {
        let cfg = HealthConfig::default();
        Self {
            state: Mutex::new(MonitorState {
                checks: Vec::new(),
                detectors: Vec::new(),
                recorder: FlightRecorder::with_capacity(cfg.retain),
                cfg,
                last_dump: None,
                dump_seq: 0,
                next_id: 1,
            }),
        }
    }

    /// Locks the state, recovering from poisoning: health reporting must
    /// keep working after a panicked check closure.
    fn lock(&self) -> MutexGuard<'_, MonitorState> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Replaces the sampler/recorder configuration (resizing the ring).
    pub fn configure(&self, cfg: HealthConfig) {
        let mut s = self.lock();
        s.recorder.set_capacity(cfg.retain);
        s.cfg = cfg;
    }

    /// Registers a component check; the returned handle unregisters it on
    /// drop (call [`HealthCheckHandle::leak`] for process-lifetime
    /// components). The closure maps the current window to a status and a
    /// reason string.
    pub fn register<F>(&'static self, component: &str, check: F) -> HealthCheckHandle
    where
        F: Fn(&HealthCtx<'_>) -> (HealthStatus, String) + Send + Sync + 'static,
    {
        let mut s = self.lock();
        let id = s.next_id;
        s.next_id += 1;
        s.checks.push(CheckEntry {
            id,
            component: component.to_string(),
            check: Box::new(check),
        });
        HealthCheckHandle { id, monitor: self }
    }

    fn unregister(&self, id: u64) {
        self.lock().checks.retain(|c| c.id != id);
    }

    /// Names of the currently registered components, registration order.
    pub fn components(&self) -> Vec<String> {
        self.lock()
            .checks
            .iter()
            .map(|c| c.component.clone())
            .collect()
    }

    /// Adds (or replaces, matched by name) an anomaly detector.
    pub fn add_detector(&self, det: AnomalyDetector) {
        let mut s = self.lock();
        if let Some(existing) = s.detectors.iter_mut().find(|d| d.det.name == det.name) {
            existing.det = det;
        } else {
            s.detectors.push(DetectorState { det, cooldown: 0 });
        }
    }

    /// Installs the stock detectors (idempotent, matched by name):
    ///
    /// | name | rule |
    /// |------|------|
    /// | `verify-failure-burst` | ≥ 4 verify failures within one window |
    /// | `malformed-burst` | ≥ 8 malformed device replies within one window |
    /// | `timeout-spike` | newest-sample timeout delta ≥ 8 and > 4× the prior mean |
    ///
    /// The verify threshold sits above the single deliberate failure the
    /// service bench's tampering self-test records, so a healthy run never
    /// dumps.
    pub fn install_default_detectors(&self) {
        self.add_detector(AnomalyDetector {
            name: "verify-failure-burst",
            rule: DetectorRule::RateOver {
                metric: "secndp_verify_failures_total",
                threshold: 4,
            },
        });
        self.add_detector(AnomalyDetector {
            name: "malformed-burst",
            rule: DetectorRule::RateOver {
                metric: "secndp_malformed_responses_total",
                threshold: 8,
            },
        });
        self.add_detector(AnomalyDetector {
            name: "timeout-spike",
            rule: DetectorRule::DeltaSpike {
                metric: "secndp_transport_timeouts_total",
                factor: 4.0,
                min: 8,
            },
        });
    }

    /// Runs every registered check against the current window and folds
    /// the verdicts (worst status wins; an empty monitor reports Ok).
    pub fn report(&self) -> HealthReport {
        let mut s = self.lock();
        let window = s.cfg.window;
        // Split the borrow: the window slice lives in the recorder, the
        // checks alongside it.
        let MonitorState {
            ref mut recorder,
            ref checks,
            ..
        } = *s;
        let ctx = HealthCtx {
            samples: recorder.window(window),
        };
        let components: Vec<ComponentHealth> = checks
            .iter()
            .map(|c| {
                let (status, reason) = (c.check)(&ctx);
                ComponentHealth {
                    component: c.component.clone(),
                    status,
                    reason,
                }
            })
            .collect();
        let status = components
            .iter()
            .map(|c| c.status)
            .max()
            .unwrap_or(HealthStatus::Ok);
        HealthReport { status, components }
    }

    /// Takes one sample: snapshots `registry` into the recorder ring,
    /// refreshes the uptime gauge, and evaluates every detector over the
    /// new window. Triggered detectors (outside their cooldown of one
    /// window) dump a flight-recorder artifact to
    /// [`HealthConfig::flight_dir`] and count in
    /// `secndp_anomaly_dumps_total`.
    pub fn sample(&self, registry: &Registry) {
        crate::process::touch_uptime();
        // The health sampler doubles as the SLO engine's clock: every
        // window sample also advances the burn-rate baselines.
        crate::slo::engine().sample(registry);
        let sample = WindowSample {
            t_ms: uptime_ms(),
            snapshot: registry.snapshot(),
        };
        let dump = {
            let mut s = self.lock();
            s.recorder.push(sample);
            let window_n = s.cfg.window;
            let MonitorState {
                ref mut recorder,
                ref mut detectors,
                ..
            } = *s;
            let window = recorder.window(window_n);
            let mut reasons = Vec::new();
            for d in detectors.iter_mut() {
                if d.cooldown > 0 {
                    d.cooldown -= 1;
                    continue;
                }
                if let Some(reason) = d.det.evaluate(window) {
                    d.cooldown = window_n as u32;
                    reasons.push(format!("{}: {reason}", d.det.name));
                }
            }
            if reasons.is_empty() {
                None
            } else {
                let reason = reasons.join("; ");
                s.dump_seq += 1;
                let path = s
                    .cfg
                    .flight_dir
                    .join(format!("secndp-flight-{:04}.json", s.dump_seq));
                Some((reason, path, s.recorder.samples()))
            }
        };
        if let Some((reason, path, samples)) = dump {
            crate::counter!(
                "secndp_anomaly_dumps_total",
                "Flight-recorder dumps triggered by anomaly detectors."
            )
            .inc();
            if crate::recorder::write_flight_dump(&path, &reason, &samples).is_ok() {
                self.lock().last_dump = Some(path);
            }
        }
    }

    /// Writes a flight-recorder dump now, regardless of detectors.
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors from the write.
    pub fn trigger_dump(&self, reason: &str) -> std::io::Result<PathBuf> {
        let (path, samples) = {
            let mut s = self.lock();
            s.dump_seq += 1;
            let path = s
                .cfg
                .flight_dir
                .join(format!("secndp-flight-{:04}.json", s.dump_seq));
            (path, s.recorder.samples())
        };
        crate::recorder::write_flight_dump(&path, reason, &samples)?;
        self.lock().last_dump = Some(path.clone());
        Ok(path)
    }

    /// Path of the most recent successful dump, if any.
    pub fn last_flight_dump(&self) -> Option<PathBuf> {
        self.lock().last_dump.clone()
    }

    /// The recorder ring contents without blocking: empty when the monitor
    /// lock is held (used by the panic hook, which must never deadlock).
    pub fn try_samples(&self) -> Vec<WindowSample> {
        match self.state.try_lock() {
            Ok(s) => s.recorder.samples(),
            Err(std::sync::TryLockError::Poisoned(p)) => p.into_inner().recorder.samples(),
            Err(std::sync::TryLockError::WouldBlock) => Vec::new(),
        }
    }

    /// Starts the background sampler: one [`sample`](Self::sample) every
    /// `cfg.interval` until the returned handle drops. Also applies `cfg`
    /// via [`configure`](Self::configure).
    pub fn start_sampler(
        &'static self,
        registry: &'static Registry,
        cfg: HealthConfig,
    ) -> SamplerHandle {
        let interval = cfg.interval;
        self.configure(cfg);
        let stop = Arc::new(AtomicBool::new(false));
        let stop2 = Arc::clone(&stop);
        let thread = std::thread::Builder::new()
            .name("secndp-health".into())
            .spawn(move || {
                while !stop2.load(Ordering::SeqCst) {
                    self.sample(registry);
                    // Sleep in short slices so dropping the handle stops
                    // the thread promptly even with a long interval.
                    let mut remaining = interval;
                    while !remaining.is_zero() && !stop2.load(Ordering::SeqCst) {
                        let slice = remaining.min(Duration::from_millis(25));
                        std::thread::sleep(slice);
                        remaining = remaining.saturating_sub(slice);
                    }
                }
            })
            .expect("spawn health sampler");
        SamplerHandle {
            stop,
            thread: Some(thread),
        }
    }
}

/// Unregisters its check on drop; see [`HealthMonitor::register`].
pub struct HealthCheckHandle {
    id: u64,
    monitor: &'static HealthMonitor,
}

impl HealthCheckHandle {
    /// Keeps the check registered for the rest of the process (consumes
    /// the handle without unregistering) — for components that live as
    /// long as the process, like the protocol core.
    pub fn leak(self) {
        std::mem::forget(self);
    }
}

impl std::fmt::Debug for HealthCheckHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("HealthCheckHandle")
            .field("id", &self.id)
            .finish()
    }
}

impl Drop for HealthCheckHandle {
    fn drop(&mut self) {
        self.monitor.unregister(self.id);
    }
}

/// Stops the background sampler (and joins its thread) on drop.
#[derive(Debug)]
pub struct SamplerHandle {
    stop: Arc<AtomicBool>,
    thread: Option<JoinHandle<()>>,
}

impl Drop for SamplerHandle {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::SeqCst);
        if let Some(t) = self.thread.take() {
            let _ = t.join();
        }
    }
}

/// The process-wide health monitor `/healthz` reports from.
pub fn monitor() -> &'static HealthMonitor {
    static MONITOR: OnceLock<HealthMonitor> = OnceLock::new();
    MONITOR.get_or_init(HealthMonitor::new)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn snap_with(counter: &'static str, value: u64) -> Snapshot {
        // Build a snapshot through a private registry so tests don't
        // disturb the global one.
        let r = Registry::new();
        r.counter(counter, &[], "test").add(value);
        r.snapshot()
    }

    fn window_of(metric: &'static str, values: &[u64]) -> Vec<WindowSample> {
        values
            .iter()
            .enumerate()
            .map(|(i, &v)| WindowSample {
                t_ms: i as u64 * 100,
                snapshot: snap_with(metric, v),
            })
            .collect()
    }

    #[test]
    fn ctx_deltas_and_rates() {
        let w = window_of("x_total", &[10, 12, 19]);
        let ctx = HealthCtx { samples: &w };
        assert_eq!(ctx.window_len(), 3);
        assert_eq!(ctx.window_ms(), 200);
        #[cfg(feature = "enabled")]
        {
            assert_eq!(ctx.counter_delta("x_total"), 9);
            assert!((ctx.rate_per_sec("x_total") - 45.0).abs() < 1e-9);
        }
        assert_eq!(ctx.counter_delta("missing_total"), 0);
        let empty = HealthCtx { samples: &[] };
        assert_eq!(empty.counter_delta("x_total"), 0);
        assert_eq!(empty.window_ms(), 0);
    }

    #[cfg(feature = "enabled")]
    #[test]
    fn rate_over_detector_triggers_on_burst() {
        let det = AnomalyDetector {
            name: "t",
            rule: DetectorRule::RateOver {
                metric: "x_total",
                threshold: 4,
            },
        };
        assert!(det.evaluate(&window_of("x_total", &[0, 1, 3])).is_none());
        let reason = det.evaluate(&window_of("x_total", &[0, 1, 5])).unwrap();
        assert!(reason.contains("rose by 5"), "{reason}");
        // A registry reset mid-window saturates instead of underflowing.
        assert!(det.evaluate(&window_of("x_total", &[9, 0, 2])).is_none());
    }

    #[cfg(feature = "enabled")]
    #[test]
    fn delta_spike_detector_wants_a_quiet_history() {
        let det = AnomalyDetector {
            name: "t",
            rule: DetectorRule::DeltaSpike {
                metric: "x_total",
                factor: 4.0,
                min: 8,
            },
        };
        // Steady growth: newest delta (10) is not 4× the mean (10).
        assert!(det
            .evaluate(&window_of("x_total", &[0, 10, 20, 30]))
            .is_none());
        // Quiet then a burst ≥ min.
        assert!(det
            .evaluate(&window_of("x_total", &[5, 5, 5, 15]))
            .is_some());
        // Burst below min never triggers.
        assert!(det.evaluate(&window_of("x_total", &[0, 0, 0, 7])).is_none());
        // Too little history.
        assert!(det.evaluate(&window_of("x_total", &[0, 50])).is_none());
    }

    /// A private leaked monitor, so concurrent unit tests never race on
    /// the global one's fold.
    fn private_monitor() -> &'static HealthMonitor {
        Box::leak(Box::new(HealthMonitor::new()))
    }

    #[test]
    fn report_folds_worst_status_and_handles_unregister() {
        let m = private_monitor();
        let h1 = m.register("unit-ok", |_| (HealthStatus::Ok, "fine".into()));
        let h2 = m.register("unit-degraded", |_| {
            (HealthStatus::Degraded, "limping".into())
        });
        let r = m.report();
        assert_eq!(r.status, HealthStatus::Degraded);
        let mine: Vec<_> = r
            .components
            .iter()
            .filter(|c| c.component.starts_with("unit-"))
            .collect();
        assert_eq!(mine.len(), 2);
        assert!(r.render_json().contains("\"component\":\"unit-degraded\""));
        assert_eq!(r.http_status(), 200);
        drop(h2);
        let r = m.report();
        assert!(!r.components.iter().any(|c| c.component == "unit-degraded"));
        drop(h1);
        assert!(!m.components().iter().any(|c| c.starts_with("unit-")));
    }

    #[test]
    fn failing_reports_503() {
        let m = private_monitor();
        let h = m.register("unit-failing", |_| (HealthStatus::Failing, "dead".into()));
        let r = m.report();
        assert_eq!(r.status, HealthStatus::Failing);
        assert_eq!(r.http_status(), 503);
        drop(h);
    }

    #[test]
    fn detector_dedup_by_name() {
        let m = HealthMonitor::new();
        m.add_detector(AnomalyDetector {
            name: "dup",
            rule: DetectorRule::RateOver {
                metric: "a",
                threshold: 1,
            },
        });
        m.add_detector(AnomalyDetector {
            name: "dup",
            rule: DetectorRule::RateOver {
                metric: "b",
                threshold: 2,
            },
        });
        assert_eq!(m.lock().detectors.len(), 1);
        m.install_default_detectors();
        m.install_default_detectors();
        assert_eq!(m.lock().detectors.len(), 4);
    }
}
