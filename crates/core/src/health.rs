//! Protocol-core health source for `/healthz`.
//!
//! SecNDP's integrity model turns error counters into security telemetry:
//! a verification failure means the untrusted side returned a result that
//! does not match its linear checksum — possible active tampering (paper
//! §V) — and a malformed frame means the device broke the wire contract.
//! This module registers one process-wide `"protocol"` component with the
//! [`health::monitor`] that scores the windowed rates of those
//! error-coupled counters
//! (`secndp_verify_failures_total`, `secndp_malformed_responses_total`,
//! `secndp_shape_errors_total`):
//!
//! | windowed verify failures | verdict |
//! |--------------------------|---------|
//! | ≥ 16 | `Failing` — sustained tampering, results untrustworthy |
//! | ≥ 1 (or any malformed/shape error) | `Degraded` |
//! | 0 | `Ok` |
//!
//! A burst ages out of the verdict once the sampler window slides past it,
//! so `/healthz` recovers on its own after an isolated incident.

use secndp_telemetry::health::{self, HealthStatus};
use std::sync::Once;

/// Registers the `"protocol"` health component (idempotent; the check
/// lives for the rest of the process). Called from every
/// [`TrustedProcessor`](crate::protocol::TrustedProcessor) constructor, so
/// any binary that builds a processor is scored automatically.
pub fn register_protocol_health() {
    static ONCE: Once = Once::new();
    ONCE.call_once(|| {
        health::monitor()
            .register("protocol", |ctx| {
                let verify = ctx.counter_delta("secndp_verify_failures_total");
                let malformed = ctx.counter_delta("secndp_malformed_responses_total");
                let shape = ctx.counter_delta("secndp_shape_errors_total");
                if verify >= 16 {
                    return (
                        HealthStatus::Failing,
                        format!(
                            "{verify} verification failures within the window — \
                             sustained tampering suspected"
                        ),
                    );
                }
                if verify > 0 || malformed > 0 || shape > 0 {
                    return (
                        HealthStatus::Degraded,
                        format!(
                            "integrity errors within the window: {verify} verify, \
                             {malformed} malformed, {shape} shape"
                        ),
                    );
                }
                (
                    HealthStatus::Ok,
                    "no integrity errors in window".to_string(),
                )
            })
            .leak();
    });
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
mod tests {
    use super::*;

    #[test]
    fn protocol_component_registers_once() {
        register_protocol_health();
        register_protocol_health();
        let n = health::monitor()
            .components()
            .iter()
            .filter(|c| c.as_str() == "protocol")
            .count();
        assert_eq!(n, 1);
    }
}
