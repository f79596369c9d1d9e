//! Shared telemetry handles for the protocol pipeline.
//!
//! One function per metric keeps each `counter!`/`histogram!` macro at a
//! single call site, so the per-site `OnceLock` cache always resolves to
//! the same instrument. Everything here compiles to no-ops without the
//! crate's `telemetry` feature (instruments become zero-sized).

use crate::error::Error;
use secndp_telemetry::trace::names;
use secndp_telemetry::{Counter, Gauge, Histogram};

const STAGE_HELP: &str = "Per-stage protocol latency in nanoseconds (the Figure 4 arrows).";

/// `encrypt`: table encryption + tag generation inside the TEE.
pub(crate) fn stage_encrypt() -> &'static Histogram {
    secndp_telemetry::histogram!(
        "secndp_stage_latency_ns",
        &[("stage", names::ENCRYPT)],
        STAGE_HELP
    )
}

/// `ndp_compute`: the untrusted device's weighted summation.
pub(crate) fn stage_ndp_compute() -> &'static Histogram {
    secndp_telemetry::histogram!(
        "secndp_stage_latency_ns",
        &[("stage", names::NDP_COMPUTE)],
        STAGE_HELP
    )
}

/// `verify`: checksum recomputation and tag comparison.
pub(crate) fn stage_verify() -> &'static Histogram {
    secndp_telemetry::histogram!(
        "secndp_stage_latency_ns",
        &[("stage", names::VERIFY)],
        STAGE_HELP
    )
}

/// `decrypt`: OTP-share regeneration plus final reconstruction.
pub(crate) fn stage_decrypt() -> &'static Histogram {
    secndp_telemetry::histogram!(
        "secndp_stage_latency_ns",
        &[("stage", names::DECRYPT)],
        STAGE_HELP
    )
}

/// Weighted-summation queries issued by the trusted processor.
pub(crate) fn queries() -> &'static Counter {
    secndp_telemetry::counter!(
        "secndp_queries_total",
        "Weighted-summation queries issued by the trusted processor."
    )
}

/// Ciphertext loads rejected for shape violations.
pub(crate) fn shape_errors() -> &'static Counter {
    secndp_telemetry::counter!(
        "secndp_shape_errors_total",
        "Ciphertext loads rejected for shape violations."
    )
}

/// Request/reply frames exchanged with a wire-backed device.
pub(crate) fn wire_packets() -> &'static Counter {
    secndp_telemetry::counter!(
        "secndp_wire_packets_total",
        "Request frames sent to wire-backed NDP devices."
    )
}

/// Full encode → serve → decode round-trip latency.
pub(crate) fn wire_round_trip() -> &'static Histogram {
    secndp_telemetry::histogram!(
        "secndp_wire_round_trip_ns",
        "Wire round-trip latency in nanoseconds (encode, serve, decode)."
    )
}

/// Requests in flight on an endpoint, any link (sent, not yet answered,
/// failed or abandoned).
pub(crate) fn transport_inflight() -> &'static Gauge {
    secndp_telemetry::gauge!(
        "secndp_transport_inflight",
        "Endpoint requests sent but not yet answered (any link)."
    )
}

/// Requests submitted through an endpoint, any link (first attempts
/// only; retries count separately).
pub(crate) fn transport_submitted() -> &'static Counter {
    secndp_telemetry::counter!(
        "secndp_transport_submitted_total",
        "Requests submitted through an NDP endpoint (any link)."
    )
}

/// Requests whose deadline expired at least once.
pub(crate) fn transport_timeouts() -> &'static Counter {
    secndp_telemetry::counter!(
        "secndp_transport_timeouts_total",
        "Endpoint requests whose per-request deadline expired (any link)."
    )
}

/// Idempotent requests re-sent after a deadline expiry or a route loss.
pub(crate) fn transport_retries() -> &'static Counter {
    secndp_telemetry::counter!(
        "secndp_transport_retries_total",
        "Idempotent endpoint requests re-sent after a timeout or route loss."
    )
}

/// Replies that arrived for a request already completed or abandoned
/// (e.g. the slow original after a retry already answered).
pub(crate) fn transport_late_completions() -> &'static Counter {
    secndp_telemetry::counter!(
        "secndp_transport_late_completions_total",
        "Endpoint replies for already-settled requests (dropped)."
    )
}

/// Submit → completion latency of endpoint requests, any link.
pub(crate) fn transport_completion() -> &'static Histogram {
    secndp_telemetry::histogram!(
        "secndp_transport_completion_ns",
        "Endpoint submit-to-completion latency in nanoseconds."
    )
}

/// Re-establishments of a previously-connected pool slot — churn here
/// degrades the `net-epN` health component.
pub(crate) fn net_reconnects() -> &'static Counter {
    secndp_telemetry::counter!(
        "secndp_net_reconnects_total",
        "TCP transport connections re-established after a loss."
    )
}

/// Requests whose carrying connection died (write error, reset, EOF, or
/// an oversized reply) before a reply settled.
pub(crate) fn net_conn_failures() -> &'static Counter {
    secndp_telemetry::counter!(
        "secndp_net_conn_failures_total",
        "TCP transport requests failed by a connection loss."
    )
}

/// Connections a server closed of its own accord: an unframeable stream
/// (garbage preamble, absurd declared length) or no thread to serve it.
pub(crate) fn net_rejected_frames() -> &'static Counter {
    secndp_telemetry::counter!(
        "secndp_net_rejected_frames_total",
        "TCP server connections closed on an unframeable record or for want of a thread."
    )
}

/// Counts a failed verification, writes a security audit event (stamped
/// with the current trace context, the table's OTP region/version, and the
/// checksum scheme in force), and builds the error — so no failure path
/// can increment without returning (and vice versa).
pub(crate) fn verification_failed(
    table_addr: u64,
    region: u64,
    version: u64,
    scheme: &'static str,
) -> Error {
    secndp_telemetry::counter!(
        "secndp_verify_failures_total",
        "Responses whose checksum tag failed verification."
    )
    .inc();
    secndp_telemetry::audit::audit_log().record(
        "verification_failed",
        table_addr,
        region,
        version,
        scheme,
        "checksum tag mismatch",
    );
    Error::VerificationFailed { table_addr }
}

/// Counts a malformed device reply, writes an audit event, and builds the
/// error.
pub(crate) fn malformed(reason: &'static str) -> Error {
    secndp_telemetry::counter!(
        "secndp_malformed_responses_total",
        "Device replies rejected as malformed."
    )
    .inc();
    secndp_telemetry::audit::audit_log().record("malformed_response", 0, 0, 0, "", reason);
    Error::MalformedResponse { reason }
}

/// Counts a ciphertext-shape violation at the device boundary, writes an
/// audit event, and builds the error.
pub(crate) fn shape_mismatch(got: usize, expected: usize) -> Error {
    shape_errors().inc();
    secndp_telemetry::audit::audit_log().record(
        "shape_mismatch",
        0,
        0,
        0,
        "",
        "ciphertext length not a multiple of row_bytes",
    );
    Error::ShapeMismatch { got, expected }
}
