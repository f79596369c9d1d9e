//! Component health scoring over one ring of registry snapshots, and the
//! flight dump its verdicts trigger.
//!
//! SecNDP's threat model makes *operational* signals *security* signals: a
//! verify-failure spike is possible active tampering (paper §V), a stalled
//! transport rank is an unresponsive untrusted device. This module watches
//! them live:
//!
//! - A background sampler ([`HealthMonitor::start_sampler`]) snapshots the
//!   registry every [`HealthConfig::interval`] into the monitor's ring, the
//!   only sample store: the newest [`HealthConfig::window`] snapshots.
//! - Components (the async transport endpoints, the protocol core)
//!   [`register`](HealthMonitor::register) a check closure with
//!   the process-wide [`monitor`]. Each check folds its component into
//!   [`HealthStatus::Ok`]/[`Degraded`](HealthStatus::Degraded)/
//!   [`Failing`](HealthStatus::Failing) with a human-readable reason;
//!   [`HealthMonitor::report`] aggregates them (worst status wins) and
//!   drives the `/healthz` endpoint of [`serve`](crate::serve).
//! - Checks read windowed counter deltas through one [`HealthCtx`] over
//!   the ring, so a burst ages out of every verdict once the window slides
//!   past it.
//! - Every sample scores the components over the new window; one whose
//!   status got worse since the previous sample dumps a
//!   [flight-recorder artifact](crate::recorder) to
//!   [`HealthConfig::flight_dir`] so the incident is diagnosable after the
//!   fact. The verdict that degrades `/healthz` is the one that dumps.
//!
//! Everything here works with telemetry compiled out: snapshots are then
//! empty (all deltas zero), but liveness-style checks that consult their
//! own state — e.g. a TCP endpoint's live connections — still score honestly.

use crate::recorder::WindowSample;
use crate::registry::Registry;
use std::collections::VecDeque;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, OnceLock, PoisonError, TryLockError};
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
    /// Alive but impaired (recent integrity failures, a stalled rank);
    /// `/healthz` still answers 200.
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

/// The sliding window a check scores against: the sampler ring's
/// snapshots, oldest first (possibly empty before the sampler has run).
pub struct HealthCtx<'a> {
    pub(crate) samples: &'a [WindowSample],
}

impl HealthCtx<'_> {
    /// The window's oldest and newest snapshots (the same one with a
    /// single point; `None` when empty).
    pub(crate) fn ends(&self) -> Option<(&WindowSample, &WindowSample)> {
        Some((self.samples.first()?, self.samples.last()?))
    }

    /// Wall-clock span of the window in milliseconds (0 with < 2 samples).
    pub fn window_ms(&self) -> u64 {
        self.ends()
            .map_or(0, |(a, b)| b.t_ms.saturating_sub(a.t_ms))
    }

    /// How much the counter family `name` (summed across label sets) rose
    /// across the window. Saturates to 0 on < 2 samples or a registry
    /// reset mid-window.
    pub fn counter_delta(&self, name: &str) -> u64 {
        self.ends().map_or(0, |(a, b)| {
            b.snapshot
                .counter_total(name)
                .saturating_sub(a.snapshot.counter_total(name))
        })
    }
}

/// Sampler and ring tuning.
#[derive(Debug, Clone)]
pub struct HealthConfig {
    /// Background sampling period (default 1 s).
    pub interval: Duration,
    /// Snapshots the ring holds, which is the window every check reads
    /// (default 5). A component that turns bad holds its verdict, and so
    /// dumps once, for as long as the burst stays inside this window.
    pub window: usize,
    /// Directory flight dumps are written to (default `.`, the working
    /// directory).
    pub flight_dir: PathBuf,
}

impl Default for HealthConfig {
    fn default() -> Self {
        Self {
            interval: Duration::from_millis(1000),
            window: 5,
            flight_dir: PathBuf::from("."),
        }
    }
}

type CheckFn = Box<dyn Fn(&HealthCtx<'_>) -> (HealthStatus, String) + Send + Sync>;

struct CheckEntry {
    id: u64,
    component: String,
    check: CheckFn,
}

#[derive(Default)]
struct MonitorState {
    checks: Vec<CheckEntry>,
    /// The newest `cfg.window` snapshots, oldest first.
    ring: VecDeque<WindowSample>,
    /// Each component's status at the previous sample.
    last: Vec<(String, HealthStatus)>,
    cfg: HealthConfig,
    last_dump: Option<PathBuf>,
    dump_seq: u64,
    next_id: u64,
}

impl MonitorState {
    /// Appends `sample`, evicting the oldest when the ring is full.
    fn record(&mut self, sample: WindowSample) {
        if self.ring.len() >= self.cfg.window {
            self.ring.pop_front();
        }
        self.ring.push_back(sample);
    }

    /// Every registered check, scored over the current window.
    fn score(&mut self) -> Vec<ComponentHealth> {
        let ctx = HealthCtx {
            samples: self.ring.make_contiguous(),
        };
        self.checks
            .iter()
            .map(|c| {
                let (status, reason) = (c.check)(&ctx);
                ComponentHealth {
                    component: c.component.clone(),
                    status,
                    reason,
                }
            })
            .collect()
    }
}

/// The per-component health registry plus the sampler and its flight
/// dumps. The process-wide instance is [`monitor()`].
#[derive(Default)]
pub struct HealthMonitor {
    state: Mutex<MonitorState>,
}

impl std::fmt::Debug for HealthMonitor {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = self.lock();
        f.debug_struct("HealthMonitor")
            .field("checks", &s.checks.len())
            .field("samples", &s.ring.len())
            .finish()
    }
}

impl HealthMonitor {
    /// An empty monitor with the default [`HealthConfig`].
    pub fn new() -> Self {
        Self::default()
    }

    /// Locks the state, recovering from poisoning: health reporting must
    /// keep working after a panicked check closure.
    fn lock(&self) -> MutexGuard<'_, MonitorState> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Replaces the sampler/ring configuration (evicting the oldest
    /// samples when the ring shrinks).
    pub fn configure(&self, mut cfg: HealthConfig) {
        cfg.window = cfg.window.max(1);
        let mut s = self.lock();
        let excess = s.ring.len().saturating_sub(cfg.window);
        s.ring.drain(..excess);
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

    /// Runs every registered check against the current window and folds
    /// the verdicts (worst status wins; an empty monitor reports Ok). A
    /// report never dumps; only [`sample`](Self::sample) does.
    pub fn report(&self) -> HealthReport {
        let components = self.lock().score();
        let status = components
            .iter()
            .map(|c| c.status)
            .max()
            .unwrap_or(HealthStatus::Ok);
        HealthReport { status, components }
    }

    /// Takes one sample: snapshots `registry` into the ring, refreshes the
    /// uptime gauge, and scores every component over the new window, as
    /// [`report`](Self::report) does. When any component's status is worse
    /// than at the previous sample (a new component counts as having been
    /// Ok), writes a flight-recorder dump to [`HealthConfig::flight_dir`]
    /// whose reason names each such component, and counts it in
    /// `secndp_anomaly_dumps_total`. A component that stays bad does not
    /// dump again: its burst holds the verdict for one window, which is
    /// the cooldown.
    pub fn sample(&self, registry: &Registry) {
        crate::process::touch_uptime();
        let sample = WindowSample {
            t_ms: uptime_ms(),
            snapshot: registry.snapshot(),
        };
        let worse: Vec<String> = {
            let mut s = self.lock();
            s.record(sample);
            let now = s.score();
            let was = |c: &ComponentHealth| {
                s.last
                    .iter()
                    .find(|(name, _)| *name == c.component)
                    .map_or(HealthStatus::Ok, |&(_, status)| status)
            };
            let worse = now
                .iter()
                .filter(|c| c.status > was(c))
                .map(|c| format!("{}: {}", c.component, c.reason))
                .collect();
            s.last = now.into_iter().map(|c| (c.component, c.status)).collect();
            worse
        };
        if !worse.is_empty() {
            crate::counter!(
                "secndp_anomaly_dumps_total",
                "Flight-recorder dumps written because a health component got worse."
            )
            .inc();
            let _ = self.trigger_dump(&worse.join("; "));
        }
    }

    /// Writes a flight-recorder dump now, whatever the verdicts.
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors from the write.
    pub fn trigger_dump(&self, reason: &str) -> std::io::Result<PathBuf> {
        let (path, samples) = {
            let mut s = self.lock();
            s.dump_seq += 1;
            // The pid keeps processes sharing a flight dir apart.
            let pid = std::process::id();
            let name = format!("secndp-flight-{pid}-{:04}.json", s.dump_seq);
            (
                s.cfg.flight_dir.join(name),
                s.ring.iter().cloned().collect::<Vec<_>>(),
            )
        };
        crate::recorder::write_flight_dump(&path, reason, &samples)?;
        self.lock().last_dump = Some(path.clone());
        Ok(path)
    }

    /// Path of the most recent successful dump, if any.
    pub fn last_flight_dump(&self) -> Option<PathBuf> {
        self.lock().last_dump.clone()
    }

    /// The ring contents without blocking: empty when the monitor lock is
    /// held (used by the panic hook, which must never deadlock).
    pub fn try_samples(&self) -> Vec<WindowSample> {
        let s = match self.state.try_lock() {
            Ok(s) => s,
            Err(TryLockError::Poisoned(p)) => p.into_inner(),
            Err(TryLockError::WouldBlock) => return Vec::new(),
        };
        s.ring.iter().cloned().collect()
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
    use crate::registry::Snapshot;

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
        assert_eq!(ctx.window_ms(), 200);
        #[cfg(feature = "enabled")]
        assert_eq!(ctx.counter_delta("x_total"), 9);
        assert_eq!(ctx.counter_delta("missing_total"), 0);
        let empty = HealthCtx { samples: &[] };
        assert_eq!(empty.counter_delta("x_total"), 0);
        assert_eq!(empty.window_ms(), 0);
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

    /// The dump rule: a sample dumps when a component's status is worse
    /// than at the previous sample, naming it. A held verdict stays quiet,
    /// scrapes never dump, and a recovery re-arms the component.
    #[test]
    fn worse_verdict_dumps_once_per_incident() {
        use std::sync::atomic::AtomicU8;
        let m = private_monitor();
        let dir = std::env::temp_dir().join(format!("secndp-dump-rule-{}", std::process::id()));
        m.configure(HealthConfig {
            flight_dir: dir.clone(),
            ..HealthConfig::default()
        });
        let level = Arc::new(AtomicU8::new(0));
        let lvl = Arc::clone(&level);
        let _check = m.register("unit-dump", move |_| match lvl.load(Ordering::SeqCst) {
            0 => (HealthStatus::Ok, "quiet".into()),
            1 => (HealthStatus::Degraded, "limping".into()),
            _ => (HealthStatus::Failing, "down".into()),
        });
        let reg = Registry::new();
        let dumps = || m.lock().dump_seq;
        let step = |l: u8| {
            level.store(l, Ordering::SeqCst);
            m.sample(&reg);
            dumps()
        };
        assert_eq!(step(0), 0, "an ok component dumped");
        assert_eq!(step(1), 1, "ok → degraded did not dump");
        let json = std::fs::read_to_string(m.last_flight_dump().unwrap()).unwrap();
        assert!(
            json.contains("\"reason\":\"unit-dump: limping\""),
            "{json:.200}"
        );
        assert_eq!(step(1), 1, "a held verdict dumped again");
        let _ = m.report();
        assert_eq!(dumps(), 1, "a scrape dumped");
        assert_eq!(step(2), 2, "degraded → failing did not dump");
        assert_eq!(step(0), 2, "a recovery dumped");
        assert_eq!(step(1), 3, "a relapse did not dump");
        std::fs::remove_dir_all(&dir).ok();
    }

    /// Processes that share a flight dir never overwrite each other's
    /// dumps: the name carries the pid, as a crash dump's does.
    #[test]
    fn flight_dump_names_carry_the_pid() {
        let m = private_monitor();
        let pid = std::process::id();
        let dir = std::env::temp_dir().join(format!("secndp-dump-pid-{pid}"));
        m.configure(HealthConfig {
            flight_dir: dir.clone(),
            ..HealthConfig::default()
        });
        let path = m.trigger_dump("unit: pid").unwrap();
        assert_eq!(path, dir.join(format!("secndp-flight-{pid}-0001.json")));
        assert!(path.is_file());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn ring_is_bounded_and_ordered() {
        let m = HealthMonitor::new();
        m.configure(HealthConfig {
            window: 3,
            ..HealthConfig::default()
        });
        let mut s = m.lock();
        assert!(s.ring.is_empty());
        for t in 0..5 {
            s.record(WindowSample {
                t_ms: t,
                snapshot: crate::global().snapshot(),
            });
        }
        let ts: Vec<u64> = s.ring.iter().map(|x| x.t_ms).collect();
        assert_eq!(ts, vec![2, 3, 4]);
        drop(s);
        m.configure(HealthConfig {
            window: 1,
            ..HealthConfig::default()
        });
        let ts: Vec<u64> = m.lock().ring.iter().map(|x| x.t_ms).collect();
        assert_eq!(ts, vec![4]);
    }

    /// One window, one verdict: a check's `counter_delta` turns on at the
    /// sample that first holds a burst, which is the sample that dumps,
    /// and off once the window slides past it. A `/healthz` scrape moves
    /// neither the ring nor the dump count.
    #[cfg(feature = "enabled")]
    #[test]
    fn check_and_dump_share_one_window() {
        let m = private_monitor();
        let dir = std::env::temp_dir().join(format!("secndp-shared-window-{}", std::process::id()));
        m.configure(HealthConfig {
            window: 3,
            flight_dir: dir.clone(),
            ..HealthConfig::default()
        });
        let reg = Registry::new();
        let bad = reg.counter("shared_bad_total", &[], "t");
        let _check = m.register("shared-check", |ctx| {
            if ctx.counter_delta("shared_bad_total") >= 4 {
                (HealthStatus::Degraded, "burst".into())
            } else {
                (HealthStatus::Ok, "quiet".into())
            }
        });
        let degraded = || m.report().status == HealthStatus::Degraded;
        let mut seen = Vec::new();
        for i in 0..8 {
            if i == 4 {
                bad.add(4);
            }
            let dumps = m.lock().dump_seq;
            m.sample(&reg);
            let fired = m.lock().dump_seq > dumps;
            seen.push((degraded(), fired));
        }
        // On at sample 4 (the burst), held while sample 3 is still in the
        // three-sample window, off from sample 6. The dump fires with the
        // check, once: the held verdict is the cooldown.
        assert!((0..4).all(|i| seen[i] == (false, false)), "{seen:?}");
        assert_eq!(seen[4], (true, true), "{seen:?}");
        assert_eq!(seen[5], (true, false), "{seen:?}");
        assert!((6..8).all(|i| seen[i] == (false, false)), "{seen:?}");
        let json = std::fs::read_to_string(m.last_flight_dump().unwrap()).unwrap();
        assert!(json.contains("shared-check: burst"), "{json:.300}");

        let state = |m: &HealthMonitor| {
            let s = m.lock();
            (s.ring.len(), s.dump_seq)
        };
        let before = state(m);
        let healthz = crate::serve::dispatch("/healthz", "", &reg, m);
        assert!(
            healthz.body.contains("\"status\":\"ok\""),
            "{}",
            healthz.body
        );
        assert_eq!(state(m), before);
        std::fs::remove_dir_all(&dir).ok();
    }
}
