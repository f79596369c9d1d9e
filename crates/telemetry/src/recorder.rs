//! Flight-recorder dumps: the health monitor's snapshot ring plus the span
//! journal, audit and fault logs in one artifact, and the crash-dump hook.
//!
//! When something goes wrong in a live SecNDP deployment — verify failures
//! signalling tampering, a stalled transport rank, a crash — the
//! counters alone say *that* it happened, not *how it unfolded*. The
//! [`HealthMonitor`](crate::health::HealthMonitor) keeps the last N
//! registry snapshots in its ring; this module serializes them **together
//! with the span journal and the security audit log** into one
//! self-contained JSON artifact:
//!
//! ```json
//! {"flight_recorder":{
//!    "reason":"protocol: integrity errors within the window: …",
//!    "t_ms":12345,
//!    "snapshots":[{"t_ms":11900,"metrics":{"counters":[…],…}}, …],
//!    "spans":{"displayTimeUnit":"ns","traceEvents":[…]},
//!    "audit":{"audit_events":[…]},
//!    "faults":{"fault_events":[…]}
//! }}
//! ```
//!
//! Dumps are written by
//! [`HealthMonitor::sample`](crate::health::HealthMonitor::sample) when a
//! health component's verdict gets worse, by
//! [`HealthMonitor::trigger_dump`](crate::health::HealthMonitor::trigger_dump),
//! and by the panic hook installed with [`install_panic_hook_in`], which
//! ships the same artifact as `secndp-crash-<pid>.json` before unwinding.
//! Where dumps land is the caller's choice: the binaries take a
//! `--flight-dir` flag and hand it to both.

use crate::registry::Snapshot;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Once;

/// One timestamped registry snapshot of the health monitor's ring.
#[derive(Debug, Clone)]
pub struct WindowSample {
    /// Milliseconds since the process epoch
    /// ([`health::uptime_ms`](crate::health::uptime_ms)) when sampled.
    pub t_ms: u64,
    /// The full registry snapshot at that instant.
    pub snapshot: Snapshot,
}

/// Renders a flight-recorder artifact: `reason`, the given metric
/// snapshots, the current span journal (Chrome `trace_event` form, trace
/// ids in `args.trace`) and the current audit log.
pub fn render_flight_json(reason: &str, samples: &[WindowSample]) -> String {
    let snaps: Vec<String> = samples
        .iter()
        .map(|s| {
            format!(
                "{{\"t_ms\":{},\"metrics\":{}}}",
                s.t_ms,
                crate::export::render_json(&s.snapshot)
            )
        })
        .collect();
    let spans = crate::trace::journal().render_chrome_trace();
    let audit = crate::audit::audit_log().render_json();
    let faults = crate::faultlog::fault_log().render_json();
    format!(
        "{{\"flight_recorder\":{{\"reason\":\"{}\",\"t_ms\":{},\"snapshots\":[{}],\
         \"spans\":{},\"audit\":{},\"faults\":{}}}}}\n",
        crate::export::json_escape(reason),
        crate::health::uptime_ms(),
        snaps.join(","),
        spans.trim_end(),
        audit.trim_end(),
        faults.trim_end(),
    )
}

/// Writes [`render_flight_json`] to `path`, creating parent directories.
///
/// # Errors
///
/// Propagates filesystem errors from directory creation or the write.
pub fn write_flight_dump(
    path: &Path,
    reason: &str,
    samples: &[WindowSample],
) -> std::io::Result<()> {
    if let Some(parent) = path.parent() {
        if !parent.as_os_str().is_empty() {
            std::fs::create_dir_all(parent)?;
        }
    }
    std::fs::write(path, render_flight_json(reason, samples))
}

/// Installs a process-wide panic hook that dumps the flight recorder (plus
/// span journal and audit log) to `secndp-crash-<pid>.json` in `dir`
/// before unwinding, then chains to the previously installed hook.
/// Idempotent: the first call wins, later calls are no-ops.
pub fn install_panic_hook_in(dir: impl Into<PathBuf>) {
    static ONCE: Once = Once::new();
    let dir: PathBuf = dir.into();
    ONCE.call_once(move || {
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            // Re-entrancy guard: a panic inside the dump itself must not
            // recurse into another dump attempt.
            static IN_HOOK: AtomicBool = AtomicBool::new(false);
            if !IN_HOOK.swap(true, Ordering::SeqCst) {
                let reason = format!("panic: {}", panic_message(info));
                // `try_samples` never blocks: if the monitor lock is held
                // (e.g. the panic originated under it), the dump still
                // ships the span journal and audit log.
                let samples = crate::health::monitor().try_samples();
                let path = dir.join(format!("secndp-crash-{}.json", std::process::id()));
                let _ = write_flight_dump(&path, &reason, &samples);
                IN_HOOK.store(false, Ordering::SeqCst);
            }
            prev(info);
        }));
    });
}

/// Best-effort panic payload + location rendering for the crash dump.
fn panic_message(info: &std::panic::PanicHookInfo<'_>) -> String {
    let payload = if let Some(s) = info.payload().downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = info.payload().downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    };
    match info.location() {
        Some(loc) => format!("{payload} at {}:{}", loc.file(), loc.line()),
        None => payload,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(t_ms: u64) -> WindowSample {
        WindowSample {
            t_ms,
            snapshot: crate::global().snapshot(),
        }
    }

    #[test]
    fn flight_json_embeds_all_four_sources() {
        let json = render_flight_json("unit \"test\"", &[sample(7)]);
        assert!(json.starts_with("{\"flight_recorder\":{"));
        assert!(json.contains("\"reason\":\"unit \\\"test\\\"\""));
        assert!(json.contains("\"t_ms\":7"));
        assert!(json.contains("\"traceEvents\""));
        assert!(json.contains("\"audit_events\""));
        assert!(json.contains("\"fault_events\""));
        // Balanced braces — the embedded documents splice in cleanly.
        let opens = json.matches('{').count();
        let closes = json.matches('}').count();
        assert_eq!(opens, closes, "unbalanced braces in {json}");
    }
}
