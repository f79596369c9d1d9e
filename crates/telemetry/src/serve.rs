//! Zero-dependency HTTP scrape server for live observability.
//!
//! A tiny `std::net::TcpListener` HTTP/1.1 server — no hyper, no tokio,
//! matching the workspace's offline-build constraint — exposing the
//! telemetry surface while the process runs:
//!
//! | route | content |
//! |-------|---------|
//! | `/metrics` | Prometheus text exposition of the registry |
//! | `/metrics.json` | the JSON snapshot ([`Registry::render_json`]); `?limit=N` keeps the first N metrics |
//! | `/healthz` | [`HealthMonitor::report`](crate::health::HealthMonitor::report) as JSON; 503 when failing |
//! | `/tracez` | the span journal (recorded traces: one in 64) as an indented tree; `?trace=<id>` filters one trace, `?limit=N` keeps the newest N traces |
//! | `/profilez` | continuous profile, flamegraph-ready collapsed stacks; `?format=json` for JSON, `?top=K` for the K costliest queries |
//! | `/` | a plain-text index of the routes |
//!
//! Malformed query parameter values (a non-numeric `limit`, an unparsable
//! trace id) answer 400 rather than silently serving the unfiltered
//! document.
//!
//! Start it with [`ServerBuilder`] (typically
//! `ServerBuilder::new(telemetry::global()).bind("127.0.0.1:9184")`). The
//! returned [`ServeHandle`]
//! owns the accept thread: dropping it shuts the server down and joins the
//! thread, so no thread outlives the handle.
//!
//! Requests are served inline on the accept thread, one at a time — a
//! scrape endpoint serving `curl` and Prometheus needs no concurrency, and
//! the inline design makes clean shutdown trivial. Connections carry short
//! read/write timeouts so a stuck client cannot wedge the server.

use crate::health::{self, HealthMonitor};
use crate::registry::Registry;
use std::io::{Read, Write};
use std::net::{IpAddr, Ipv4Addr, SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

/// The Prometheus text exposition content type.
pub const CONTENT_TYPE_PROMETHEUS: &str = "text/plain; version=0.0.4; charset=utf-8";

/// Maximum accepted request-head size; larger requests get a 400.
const MAX_HEAD_BYTES: usize = 8 * 1024;

/// An HTTP response produced by a route handler.
#[derive(Debug, Clone)]
pub struct HttpResponse {
    /// HTTP status code (200, 404, 503, …).
    pub status: u16,
    /// `Content-Type` header value.
    pub content_type: &'static str,
    /// Response body.
    pub body: String,
}

impl HttpResponse {
    /// A 200 response with `text/plain; charset=utf-8` content.
    pub fn text(body: impl Into<String>) -> Self {
        Self::plain(200, body.into())
    }

    /// A 200 response with `application/json` content.
    pub fn json(body: impl Into<String>) -> Self {
        Self {
            status: 200,
            content_type: "application/json",
            body: body.into(),
        }
    }

    fn plain(status: u16, body: String) -> Self {
        Self {
            status,
            content_type: "text/plain; charset=utf-8",
            body,
        }
    }

    fn bad_param(detail: &str) -> Self {
        Self::plain(400, format!("malformed query parameter: {detail}\n"))
    }
}

/// Builds a scrape server over a registry.
#[derive(Debug)]
pub struct ServerBuilder {
    registry: &'static Registry,
}

impl ServerBuilder {
    /// A builder serving `registry` (plus the process-wide health monitor
    /// and span journal).
    pub fn new(registry: &'static Registry) -> Self {
        Self { registry }
    }

    /// Binds `addr` (e.g. `"127.0.0.1:9184"`, port 0 for an ephemeral
    /// port) and spawns the accept thread.
    ///
    /// # Errors
    ///
    /// Propagates bind/spawn I/O errors.
    pub fn bind<A: ToSocketAddrs>(self, addr: A) -> std::io::Result<ServeHandle> {
        crate::process::init_process_metrics();
        let listener = TcpListener::bind(addr)?;
        let local = listener.local_addr()?;
        let shutdown = Arc::new(AtomicBool::new(false));
        let sd = Arc::clone(&shutdown);
        let registry = self.registry;
        let thread = std::thread::Builder::new()
            .name("secndp-metrics".into())
            .spawn(move || accept_loop(&listener, registry, &sd))?;
        Ok(ServeHandle {
            addr: local,
            shutdown,
            thread: Some(thread),
        })
    }
}

/// Handle owning the scrape server; dropping it stops the accept loop and
/// joins the thread.
#[derive(Debug)]
pub struct ServeHandle {
    addr: SocketAddr,
    shutdown: Arc<AtomicBool>,
    thread: Option<JoinHandle<()>>,
}

impl ServeHandle {
    /// The bound address (resolves port 0 to the actual port).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Stops the server now (equivalent to dropping the handle).
    pub fn shutdown(self) {}
}

impl Drop for ServeHandle {
    fn drop(&mut self) {
        self.shutdown.store(true, Ordering::SeqCst);
        // Wake the blocking accept with a throwaway connection so the
        // loop observes the flag; bind-all addresses are woken via
        // loopback.
        let ip = if self.addr.ip().is_unspecified() {
            IpAddr::V4(Ipv4Addr::LOCALHOST)
        } else {
            self.addr.ip()
        };
        let wake = SocketAddr::new(ip, self.addr.port());
        let _ = TcpStream::connect_timeout(&wake, Duration::from_millis(250));
        if let Some(t) = self.thread.take() {
            let _ = t.join();
        }
    }
}

fn accept_loop(listener: &TcpListener, registry: &'static Registry, shutdown: &AtomicBool) {
    for conn in listener.incoming() {
        if shutdown.load(Ordering::SeqCst) {
            break;
        }
        let Ok(mut stream) = conn else { continue };
        let _ = stream.set_read_timeout(Some(Duration::from_secs(2)));
        let _ = stream.set_write_timeout(Some(Duration::from_secs(5)));
        let _ = serve_conn(&mut stream, registry, health::monitor());
    }
}

/// Reads one request head, dispatches, writes one response.
fn serve_conn(
    stream: &mut TcpStream,
    registry: &Registry,
    monitor: &HealthMonitor,
) -> std::io::Result<()> {
    let mut head = Vec::new();
    let mut chunk = [0u8; 1024];
    while !contains_blank_line(&head) && head.len() < MAX_HEAD_BYTES {
        let n = stream.read(&mut chunk)?;
        if n == 0 {
            break;
        }
        head.extend_from_slice(&chunk[..n]);
    }
    let text = String::from_utf8_lossy(&head);
    let resp = match request_target(&text) {
        Some((path, query)) => dispatch(&path, &query, registry, monitor),
        None => HttpResponse::plain(400, "malformed request\n".to_string()),
    };
    write_response(stream, &resp)
}

fn contains_blank_line(buf: &[u8]) -> bool {
    buf.windows(4).any(|w| w == b"\r\n\r\n") || buf.windows(2).any(|w| w == b"\n\n")
}

/// The request target of `GET /path?query HTTP/1.1` split into
/// `(path, query)` (query may be empty); `None` for anything that is not
/// a plausible request line.
fn request_target(head: &str) -> Option<(String, String)> {
    let line = head.lines().next()?;
    let mut parts = line.split_whitespace();
    let _method = parts.next()?;
    let target = parts.next()?;
    let version = parts.next()?;
    if !version.starts_with("HTTP/") || !target.starts_with('/') {
        return None;
    }
    match target.split_once('?') {
        Some((path, query)) => Some((path.to_string(), query.to_string())),
        None => Some((target.to_string(), String::new())),
    }
}

/// The value of `key` in an `a=1&b=2` query string.
fn query_param<'q>(query: &'q str, key: &str) -> Option<&'q str> {
    query
        .split('&')
        .filter_map(|pair| pair.split_once('='))
        .find(|(k, _)| *k == key)
        .map(|(_, v)| v)
}

/// A route's answer; `Err` carries a 400 for a malformed parameter.
type Answer = Result<HttpResponse, HttpResponse>;

/// Parses an optional numeric query parameter; `Err` carries a 400.
fn opt_usize(query: &str, key: &str) -> Result<Option<usize>, HttpResponse> {
    match query_param(query, key) {
        None => Ok(None),
        Some(v) => v
            .parse::<usize>()
            .map(Some)
            .map_err(|_| HttpResponse::bad_param(&format!("{key}={v} is not a number"))),
    }
}

/// Parses an optional trace-id parameter (`t123` or bare `123`); `Err`
/// carries a 400.
fn opt_trace_id(query: &str) -> Result<Option<u64>, HttpResponse> {
    match query_param(query, "trace") {
        None => Ok(None),
        Some(v) => v
            .strip_prefix('t')
            .unwrap_or(v)
            .parse::<u64>()
            .ok()
            .filter(|&id| id != 0)
            .map(Some)
            .ok_or_else(|| HttpResponse::bad_param(&format!("trace={v} is not a trace id"))),
    }
}

/// `/tracez`: the journal tree, optionally filtered to one trace
/// (`?trace=<id>`) and/or the newest `?limit=N` traces.
fn tracez(query: &str) -> Answer {
    let trace = opt_trace_id(query)?;
    let limit = opt_usize(query, "limit")?;
    let mut events = crate::trace::journal().snapshot();
    if let Some(id) = trace {
        events.retain(|e| e.trace.0 == id);
    }
    if let Some(n) = limit {
        // Keep the N traces with the newest activity (max seq), in full.
        let mut latest: Vec<(u64, u64)> = Vec::new(); // (trace, max seq)
        for e in &events {
            match latest.iter_mut().find(|(t, _)| *t == e.trace.0) {
                Some((_, s)) => *s = (*s).max(e.seq),
                None => latest.push((e.trace.0, e.seq)),
            }
        }
        latest.sort_by_key(|&(_, s)| std::cmp::Reverse(s));
        latest.truncate(n);
        events.retain(|e| latest.iter().any(|(t, _)| *t == e.trace.0));
    }
    Ok(HttpResponse::text(crate::trace::render_tree(&events)))
}

/// `/profilez`: folds the journal into the global profiler, then serves
/// collapsed stacks (default), the profile as JSON (`?format=json`), or
/// the top-K costliest queries (`?top=K`).
fn profilez(query: &str) -> HttpResponse {
    let top = match opt_usize(query, "top") {
        Ok(t) => t,
        Err(resp) => return resp,
    };
    let profiler = crate::profile::profiler();
    profiler.fold(crate::trace::journal());
    if let Some(k) = top {
        return HttpResponse::json(profiler.render_top_json(k));
    }
    match query_param(query, "format") {
        Some("json") => HttpResponse::json(profiler.render_json()),
        Some(other) => HttpResponse::bad_param(&format!("format={other} (want json)")),
        None => HttpResponse::text(profiler.render_collapsed()),
    }
}

/// `/metrics.json`: the JSON snapshot, optionally truncated to the first
/// `?limit=N` metrics (sorted by `name{labels}`).
fn metrics_json(query: &str, registry: &Registry) -> Answer {
    let limit = opt_usize(query, "limit")?;
    crate::process::touch_uptime();
    let mut snap = registry.snapshot();
    snap.metrics.truncate(limit.unwrap_or(usize::MAX));
    Ok(HttpResponse::json(crate::export::render_json(&snap)))
}

/// Answers one request from `registry` and `monitor` (the process-wide
/// ones when served).
pub(crate) fn dispatch(
    path: &str,
    query: &str,
    registry: &Registry,
    monitor: &HealthMonitor,
) -> HttpResponse {
    match path {
        "/metrics" => {
            crate::process::touch_uptime();
            HttpResponse {
                status: 200,
                content_type: CONTENT_TYPE_PROMETHEUS,
                body: registry.render_prometheus(),
            }
        }
        "/metrics.json" => metrics_json(query, registry).unwrap_or_else(|e| e),
        "/healthz" => {
            let report = monitor.report();
            HttpResponse {
                status: report.http_status(),
                content_type: "application/json",
                body: report.render_json(),
            }
        }
        "/tracez" => tracez(query).unwrap_or_else(|e| e),
        "/profilez" => profilez(query),
        "/" => HttpResponse::text(
            "secndp telemetry\n\
             routes: /metrics /metrics.json /healthz /tracez /profilez\n",
        ),
        other => HttpResponse::plain(404, format!("no such route: {other}\n")),
    }
}

fn status_reason(status: u16) -> &'static str {
    match status {
        200 => "OK",
        400 => "Bad Request",
        404 => "Not Found",
        503 => "Service Unavailable",
        _ => "Unknown",
    }
}

fn write_response(stream: &mut TcpStream, resp: &HttpResponse) -> std::io::Result<()> {
    let head = format!(
        "HTTP/1.1 {} {}\r\nContent-Type: {}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n",
        resp.status,
        status_reason(resp.status),
        resp.content_type,
        resp.body.len(),
    );
    stream.write_all(head.as_bytes())?;
    stream.write_all(resp.body.as_bytes())?;
    stream.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn request_target_parsing() {
        assert_eq!(
            request_target("GET /metrics HTTP/1.1\r\nHost: x\r\n\r\n"),
            Some(("/metrics".to_string(), String::new()))
        );
        assert_eq!(
            request_target("GET /healthz?verbose=1 HTTP/1.0\r\n\r\n"),
            Some(("/healthz".to_string(), "verbose=1".to_string()))
        );
        assert_eq!(
            request_target("GET /tracez?trace=t7&limit=2 HTTP/1.1\r\n\r\n"),
            Some(("/tracez".to_string(), "trace=t7&limit=2".to_string()))
        );
        assert_eq!(
            request_target("POST /metrics HTTP/1.1\r\n\r\n"),
            Some(("/metrics".to_string(), String::new()))
        );
        assert_eq!(request_target(""), None);
        assert_eq!(request_target("GET\r\n"), None);
        assert_eq!(request_target("GET metrics HTTP/1.1\r\n"), None);
        assert_eq!(request_target("GET /metrics SMTP\r\n"), None);
    }

    #[test]
    fn query_param_extraction() {
        assert_eq!(query_param("trace=t7&limit=2", "trace"), Some("t7"));
        assert_eq!(query_param("trace=t7&limit=2", "limit"), Some("2"));
        assert_eq!(query_param("trace=t7", "limit"), None);
        assert_eq!(query_param("", "limit"), None);
        assert_eq!(opt_trace_id("trace=t7").unwrap(), Some(7));
        assert_eq!(opt_trace_id("trace=7").unwrap(), Some(7));
        assert!(opt_trace_id("trace=xyz").is_err());
        assert!(opt_trace_id("trace=t0").is_err());
        assert!(opt_usize("limit=banana", "limit").is_err());
    }

    #[test]
    fn dispatch_builtin_routes() {
        let reg = crate::global();
        let m = dispatch("/metrics", "", reg, health::monitor());
        assert_eq!(m.status, 200);
        assert_eq!(m.content_type, CONTENT_TYPE_PROMETHEUS);
        let j = dispatch("/metrics.json", "", reg, health::monitor());
        assert_eq!(j.content_type, "application/json");
        assert!(j.body.starts_with('{'));
        let h = dispatch("/healthz", "", reg, health::monitor());
        assert!(h.body.contains("\"status\""));
        assert_eq!(dispatch("/tracez", "", reg, health::monitor()).status, 200);
        assert_eq!(dispatch("/nope", "", reg, health::monitor()).status, 404);
    }

    #[test]
    fn dispatch_profilez() {
        let reg = crate::global();
        let p = dispatch("/profilez", "", reg, health::monitor());
        assert_eq!(p.status, 200);
        assert_eq!(p.content_type, "text/plain; charset=utf-8");
        let pj = dispatch("/profilez", "format=json", reg, health::monitor());
        assert_eq!(pj.status, 200);
        assert!(pj.body.contains("\"nodes\""));
        let top = dispatch("/profilez", "top=5", reg, health::monitor());
        assert_eq!(top.status, 200);
        assert!(top.body.contains("\"top\""));
        assert_eq!(
            dispatch("/profilez", "top=x", reg, health::monitor()).status,
            400
        );
        assert_eq!(
            dispatch("/profilez", "format=xml", reg, health::monitor()).status,
            400
        );
    }

    #[test]
    fn dispatch_rejects_malformed_params() {
        let reg = crate::global();
        assert_eq!(
            dispatch("/tracez", "trace=banana", reg, health::monitor()).status,
            400
        );
        assert_eq!(
            dispatch("/tracez", "limit=-1", reg, health::monitor()).status,
            400
        );
        assert_eq!(
            dispatch("/metrics.json", "limit=zz", reg, health::monitor()).status,
            400
        );
        assert_eq!(
            dispatch("/tracez", "trace=t9&limit=1", reg, health::monitor()).status,
            200
        );
        assert_eq!(
            dispatch("/metrics.json", "limit=1", reg, health::monitor()).status,
            200
        );
    }
}
