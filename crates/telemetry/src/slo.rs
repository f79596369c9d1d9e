//! Declarative SLOs scored as multi-window burn rates.
//!
//! The paper's pitch is *verified queries at near-native latency*; in
//! operation that promise has to be stated as an objective ("99% of wire
//! round trips under 2 ms", "99.9% of queries verify") and *watched*. A
//! deployment declares [`Objective`]s in code with
//! [`HealthMonitor::add_objective`](crate::health::HealthMonitor::add_objective);
//! there is no environment surface. They are scored over the health
//! monitor's snapshot ring — the same samples, and the same
//! [`HealthCtx`] window, its checks read.
//!
//! # Burn rate
//!
//! An objective reads cumulative `(good, total)` event counts from a
//! snapshot (latency objectives estimate *good* from the histogram buckets
//! via [`count_at_or_below`](crate::HistogramSnapshot::count_at_or_below);
//! error objectives use `total − errors`). The burn rate over a window is
//!
//! ```text
//! burn = (bad events / total events in window) / (1 − target)
//! ```
//!
//! i.e. how many times faster than "exactly on objective" the error budget
//! is being spent: 1.0 spends the budget exactly at the allowed rate, > 1
//! exhausts it early, 0 spends nothing. Two windows are evaluated,
//! counted in samples: the fast window is
//! [`HealthConfig::window`](crate::health::HealthConfig::window) (the
//! window the checks read; it catches an active incident) and the slow
//! window is the whole ring,
//! [`HealthConfig::retain`](crate::health::HealthConfig::retain) (a
//! smoulder). Any fast burn > 1 degrades `/healthz` through the monitor's
//! built-in `"slo"` component.

use crate::health::{HealthCtx, HealthStatus};
use crate::registry::{Snapshot, Value};

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

    /// Burn rate across `window`: [`counts`](Self::counts) on its first
    /// and last snapshots (0 with < 2 points or no traffic).
    fn burn(&self, window: &HealthCtx<'_>) -> f64 {
        window.ends().map_or(0.0, |(a, b)| {
            burn_between(
                self.counts(&a.snapshot),
                self.counts(&b.snapshot),
                self.target(),
            )
        })
    }

    fn kind(&self) -> &'static str {
        match self {
            Objective::Latency { .. } => "latency",
            Objective::ErrorRate { .. } => "error_rate",
        }
    }
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

/// Scores every objective over a fast and a slow window that end at the
/// same newest point.
pub(crate) fn status(
    objectives: &[Objective],
    fast: &HealthCtx<'_>,
    slow: &HealthCtx<'_>,
) -> Vec<ObjectiveStatus> {
    objectives
        .iter()
        .map(|o| {
            let (good, total) = fast
                .ends()
                .map_or((0.0, 0.0), |(_, b)| o.counts(&b.snapshot));
            let burn_slow = o.burn(slow);
            ObjectiveStatus {
                name: o.name().to_string(),
                kind: o.kind(),
                target: o.target(),
                burn_fast: o.burn(fast),
                burn_slow,
                budget_remaining: 1.0 - burn_slow,
                good,
                total,
            }
        })
        .collect()
}

/// The `"slo"` component's verdict: Degraded while any objective's fast
/// burn exceeds 1, otherwise Ok.
pub(crate) fn verdict(statuses: &[ObjectiveStatus]) -> (HealthStatus, String) {
    let breached: Vec<String> = statuses
        .iter()
        .filter(|s| s.breached())
        .map(|s| format!("{} burn {:.2}", s.name, s.burn_fast))
        .collect();
    if breached.is_empty() {
        (
            HealthStatus::Ok,
            format!("{} objectives within budget", statuses.len()),
        )
    } else {
        (
            HealthStatus::Degraded,
            format!("error budget burning: {}", breached.join(", ")),
        )
    }
}

/// Renders the `/sloz` JSON document, with the measured span of each
/// window and the number of `samples` in the ring:
///
/// ```json
/// {"fast_window_ms":5000,"slow_window_ms":64000,"samples":64,
///  "objectives":[{"name":"...","kind":"latency","target":0.99,
///    "burn_fast":0.0,"burn_slow":0.0,"budget_remaining":1.0,
///    "good":100,"total":100,"breached":false}]}
/// ```
pub(crate) fn render_json(
    objectives: &[Objective],
    fast: &HealthCtx<'_>,
    slow: &HealthCtx<'_>,
    samples: usize,
) -> String {
    let objectives: Vec<String> = status(objectives, fast, slow)
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
        fast.window_ms(),
        slow.window_ms(),
        samples,
        objectives.join(",")
    )
}

fn fmt_f64(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

#[cfg(all(test, feature = "enabled"))]
mod tests {
    use super::*;
    use crate::health::HealthMonitor;
    use crate::recorder::WindowSample;
    use crate::registry::Registry;

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

    /// A ring of samples stamped 0, 500, 1000, … ms.
    fn ring(snaps: Vec<Snapshot>) -> Vec<WindowSample> {
        snaps
            .into_iter()
            .enumerate()
            .map(|(i, snapshot)| WindowSample {
                t_ms: i as u64 * 500,
                snapshot,
            })
            .collect()
    }

    fn window(samples: &[WindowSample]) -> HealthCtx<'_> {
        HealthCtx { samples }
    }

    /// Scores one objective with the whole ring as both windows.
    fn score(o: Objective, samples: &[WindowSample]) -> ObjectiveStatus {
        status(&[o], &window(samples), &window(samples)).remove(0)
    }

    #[test]
    fn burn_is_zero_when_within_objective() {
        // Every sample is "good".
        let w = ring(vec![lat_snapshot(&[100]), lat_snapshot(&[100, 200, 300])]);
        let st = score(lat_objective(1 << 20, 0.99), &w);
        assert!(st.burn_fast < 0.2, "burn_fast={}", st.burn_fast);
        assert!(!st.breached());
        assert!(st.budget_remaining > 0.8);
    }

    #[test]
    fn breach_flips_fast_burn_above_one() {
        // Impossible threshold: nothing is good → bad_frac 1 → burn 1/0.01.
        let o = lat_objective(0, 0.99);
        let w = ring(vec![lat_snapshot(&[100]), lat_snapshot(&[100, 200, 300])]);
        let st = score(o.clone(), &w);
        assert!(st.burn_fast > 50.0, "burn_fast={}", st.burn_fast);
        assert!(st.breached());
        assert!(st.budget_remaining < 0.0);
        let json = render_json(&[o], &window(&w), &window(&w), w.len());
        assert!(json.contains("\"breached\":true"), "{json}");
    }

    #[test]
    fn no_traffic_means_no_burn() {
        // Identical cumulative counts.
        let w = ring(vec![lat_snapshot(&[100]), lat_snapshot(&[100])]);
        let st = score(lat_objective(0, 0.99), &w);
        assert_eq!(st.burn_fast, 0.0);
        assert_eq!(st.burn_slow, 0.0);
    }

    #[test]
    fn error_rate_objective_counts_failures() {
        let o = Objective::ErrorRate {
            name: "verify".into(),
            errors: "slo_err_total".into(),
            total: "slo_all_total".into(),
            target: 0.9,
        };
        let snap_at = |errs: u64, all: u64| {
            let r = Registry::new();
            r.counter("slo_err_total", &[], "t").add(errs);
            r.counter("slo_all_total", &[], "t").add(all);
            r.snapshot()
        };
        // 5 of the next 10 events fail: bad_frac 0.5, budget 0.1 → burn 5.
        let st = score(o, &ring(vec![snap_at(0, 10), snap_at(5, 20)]));
        assert!((st.burn_fast - 5.0).abs() < 1e-9, "burn={}", st.burn_fast);
        assert!(st.breached());
    }

    #[test]
    fn windows_see_different_baselines() {
        // Old sample: all good. Then more good events. Then a bad burst
        // inside the fast window (the newest two samples) only.
        let w = ring(vec![
            lat_snapshot(&[100]),
            lat_snapshot(&[100, 100, 100]),
            lat_snapshot(&[100, 100, 100, 1 << 30, 1 << 30, 1 << 30]),
        ]);
        let st = status(&[lat_objective(1000, 0.5)], &window(&w[1..]), &window(&w)).remove(0);
        // Fast window: 3 events, all bad → burn 1/0.5 = 2.
        assert!((st.burn_fast - 2.0).abs() < 1e-9, "fast={}", st.burn_fast);
        // Slow window: 5 events, 2 good 3 bad → 0.6/0.5 = 1.2.
        assert!((st.burn_slow - 1.2).abs() < 1e-9, "slow={}", st.burn_slow);
    }

    #[test]
    fn adding_objectives_resets_samples_and_dedups_by_name() {
        let m = HealthMonitor::new();
        let reg = Registry::new();
        let h = reg.histogram("slo_test_ns", &[], "t");
        h.observe(1);
        m.sample(&reg);
        h.observe(1 << 20);
        m.sample(&reg);
        m.add_objective(lat_objective(10, 0.9));
        m.add_objective(lat_objective(20, 0.9)); // same name "lat" → replace
        let json = m.render_sloz(&reg);
        assert_eq!(json.matches("\"name\":\"lat\"").count(), 1, "{json}");
        // No reset: the late objective scores the history already in the
        // ring, whose one new event missed the bound.
        assert!(json.contains("\"samples\":2"), "{json}");
        let slo = m
            .report()
            .components
            .into_iter()
            .find(|c| c.component == "slo");
        assert_eq!(slo.map(|c| c.status), Some(HealthStatus::Degraded));
    }

    #[test]
    fn status_without_samples_is_idle() {
        let st = score(lat_objective(10, 0.9), &[]);
        assert_eq!((st.burn_fast, st.burn_slow), (0.0, 0.0));
        assert_eq!(st.budget_remaining, 1.0);
        let m = HealthMonitor::new();
        m.add_objective(lat_objective(10, 0.9));
        assert!(m.render_sloz(&Registry::new()).contains("\"samples\":0"));
    }
}
