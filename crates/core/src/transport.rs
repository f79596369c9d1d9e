//! The worker link: N device ranks on in-process threads.
//!
//! Real SecNDP deployments hang many ranks off the bus (paper §IV,
//! Figure 4), and once pads are cached the channel — not the crypto — is
//! the bottleneck. [`AsyncEndpoint`] is an [`Endpoint`] (request ids,
//! window, deadlines, retry: see that module) over a [`WorkerLink`]: one
//! thread per rank, each owning its device and draining an mpsc queue of
//! encoded frames through [`wire::serve_or_reply`], so a processor can
//! pipeline frames across ranks.
//!
//! What this link adds to the shared rules:
//!
//! - **Stall detection.** Each worker publishes [`RankVitals`]; a rank
//!   that is busy past `stall_grace` without a heartbeat is reported
//!   down, which degrades the endpoint's `transport-epN` health component.
//! - **A dead rank is a closed queue.** A worker that exited (the crashed
//!   device model) makes `send` fail, so idempotent requests fail over at
//!   send time and a `Load` surfaces the dead rank typed.
//! - **The chaos hook.** [`AsyncEndpoint::new_with_faults`] applies the
//!   [`FaultInjector`]'s frame-class faults inside the worker loop, between
//!   dequeue and serve.

use crate::device::NdpDevice;
use crate::endpoint::{locked, Completer, Endpoint, EndpointConfig, Link, LinkFail, Route};
use crate::fault::{FaultClass, FaultInjector, FaultKind};
use crate::wire;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{self, RecvTimeoutError, Sender};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// The endpoint configuration, under the name it had when only this link
/// existed.
pub type TransportConfig = EndpointConfig;

/// An endpoint over in-process rank threads.
pub type AsyncEndpoint = Endpoint<WorkerLink>;

/// Liveness vitals one rank worker publishes for health scoring.
///
/// The worker beats the heartbeat every loop iteration (at least every
/// 100 ms while idle) and around each served frame; `busy` is raised for
/// the duration of a serve. A rank is **stalled** when it is busy *and*
/// the heartbeat is older than the configured grace — the untrusted device
/// has held a frame past any plausible service time.
#[derive(Debug)]
pub struct RankVitals {
    /// Per-endpoint monotonic epoch heartbeats are measured against.
    epoch: Instant,
    /// Milliseconds since `epoch` at the last beat.
    heartbeat_ms: AtomicU64,
    /// Whether the worker is serving a frame right now.
    busy: AtomicBool,
}

impl RankVitals {
    fn new() -> Self {
        Self {
            epoch: Instant::now(),
            heartbeat_ms: AtomicU64::new(0),
            busy: AtomicBool::new(false),
        }
    }

    fn beat(&self) {
        self.heartbeat_ms
            .store(self.epoch.elapsed().as_millis() as u64, Ordering::Relaxed);
    }

    fn begin_serve(&self) {
        self.beat();
        self.busy.store(true, Ordering::Relaxed);
    }

    fn end_serve(&self) {
        self.busy.store(false, Ordering::Relaxed);
        self.beat();
    }

    /// Time since the worker last signalled liveness.
    pub fn heartbeat_age(&self) -> Duration {
        let now = self.epoch.elapsed().as_millis() as u64;
        Duration::from_millis(now.saturating_sub(self.heartbeat_ms.load(Ordering::Relaxed)))
    }

    /// Whether the worker is currently serving a frame.
    pub fn is_busy(&self) -> bool {
        self.busy.load(Ordering::Relaxed)
    }

    /// Busy past the grace period without a heartbeat.
    pub fn stalled(&self, grace: Duration) -> bool {
        self.is_busy() && self.heartbeat_age() > grace
    }
}

/// One frame queued to a rank worker.
struct Job {
    id: u64,
    frame: Arc<Vec<u8>>,
}

/// The [`Link`] to in-process rank threads: see the [module docs](self).
pub struct WorkerLink {
    /// One queue per rank; `None` where the worker thread could not be
    /// spawned. `mpsc::Sender` is `!Sync`, so each lives behind a mutex;
    /// sends are brief (unbounded channel, no blocking).
    senders: Vec<Option<Mutex<Sender<Job>>>>,
    workers: Vec<JoinHandle<()>>,
    vitals: Vec<Arc<RankVitals>>,
    stall_grace: Duration,
}

impl std::fmt::Debug for WorkerLink {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("WorkerLink")
            .field("ranks", &self.senders.len())
            .finish_non_exhaustive()
    }
}

impl WorkerLink {
    /// Per-rank liveness vitals, rank order.
    pub fn vitals(&self) -> &[Arc<RankVitals>] {
        &self.vitals
    }
}

impl Link for WorkerLink {
    const KIND: &'static str = "transport";
    const DOWN: &'static str = "stalled (busy past the grace without a heartbeat)";

    fn ranks(&self) -> usize {
        self.senders.len()
    }

    fn route(&self, rank: usize) -> Result<Route, LinkFail> {
        // No thread ever served this rank: a local resource failure, not
        // device misbehaviour.
        self.senders[rank]
            .as_ref()
            .map(|_| (rank, 0, 0))
            .ok_or(LinkFail::ConnLost)
    }

    fn send(&self, route: Route, id: u64, frame: &Arc<Vec<u8>>) -> Result<(), LinkFail> {
        let tx = self.senders[route.0].as_ref().ok_or(LinkFail::ConnLost)?;
        let job = Job {
            id,
            frame: Arc::clone(frame),
        };
        locked(tx).send(job).map_err(|_| LinkFail::RankGone)
    }

    fn down(&self) -> Vec<usize> {
        (0..self.vitals.len())
            .filter(|&i| self.vitals[i].stalled(self.stall_grace))
            .collect()
    }
}

impl Drop for WorkerLink {
    fn drop(&mut self) {
        // Hang up every queue, then join the workers so no thread outlives
        // the endpoint and the devices drop deterministically.
        self.senders.clear();
        for h in self.workers.drain(..) {
            let _ = h.join();
        }
    }
}

impl Endpoint<WorkerLink> {
    /// Spawns one worker thread per device in `devices`; each worker owns
    /// its device. A rank whose thread cannot be spawned is down from the
    /// start: requests that need it get [`Error::ConnectionLost`].
    ///
    /// [`Error::ConnectionLost`]: crate::Error::ConnectionLost
    ///
    /// # Panics
    ///
    /// Panics if `devices` is empty.
    pub fn new<D: NdpDevice + Send + 'static>(devices: Vec<D>, cfg: TransportConfig) -> Self {
        Self::build(devices, cfg, None)
    }

    /// [`new`](Self::new), with the chaos harness's [`FaultInjector`]
    /// wired into every rank worker: frame-class faults (drops,
    /// duplicates, late/malformed replies, stalls, crashes) are consumed
    /// and applied *inside* the worker loop, so they land under real
    /// submit/poll/wait concurrency. Pair with
    /// [`FaultyNdp`](crate::fault::FaultyNdp)-wrapped devices sharing the
    /// same injector so data-class faults land too.
    ///
    /// # Panics
    ///
    /// Panics if `devices` is empty.
    pub fn new_with_faults<D: NdpDevice + Send + 'static>(
        devices: Vec<D>,
        cfg: TransportConfig,
        injector: Arc<FaultInjector>,
    ) -> Self {
        Self::build(devices, cfg, Some(injector))
    }

    fn build<D: NdpDevice + Send + 'static>(
        devices: Vec<D>,
        cfg: TransportConfig,
        injector: Option<Arc<FaultInjector>>,
    ) -> Self {
        assert!(!devices.is_empty(), "endpoint needs at least one rank");
        let stall_grace = cfg.stall_grace;
        Self::with_link(cfg, devices.len(), |done| {
            let mut link = WorkerLink {
                senders: Vec::with_capacity(devices.len()),
                workers: Vec::with_capacity(devices.len()),
                vitals: Vec::with_capacity(devices.len()),
                stall_grace,
            };
            for (rank, device) in devices.into_iter().enumerate() {
                let (tx, rx) = mpsc::channel::<Job>();
                let vitals = Arc::new(RankVitals::new());
                let (done, v, inj) = (Arc::clone(&done), Arc::clone(&vitals), injector.clone());
                let spawned = std::thread::Builder::new()
                    .name(format!("secndp-rank{rank}"))
                    .spawn(move || worker_loop(device, rx, done, v, rank as u32, inj));
                link.vitals.push(vitals);
                link.senders.push(spawned.is_ok().then(|| Mutex::new(tx)));
                link.workers.extend(spawned);
            }
            link
        })
    }
}

fn worker_loop<D: NdpDevice>(
    mut device: D,
    rx: mpsc::Receiver<Job>,
    done: Completer,
    vitals: Arc<RankVitals>,
    rank: u32,
    injector: Option<Arc<FaultInjector>>,
) {
    let mut serve = |frame: &[u8]| {
        vitals.begin_serve();
        let reply = wire::serve_or_reply(&mut device, frame);
        vitals.end_serve();
        reply
    };
    loop {
        vitals.beat();
        let job = match rx.recv_timeout(Duration::from_millis(100)) {
            Ok(job) => job,
            // Idle tick: refresh the heartbeat so idleness never looks
            // like a stall, then keep listening.
            Err(RecvTimeoutError::Timeout) => continue,
            Err(RecvTimeoutError::Disconnected) => break,
        };
        // Chaos hook: frame-class faults land here, between dequeue and
        // serve, so they perturb the transport exactly where a flaky bus
        // or a hostile rank would. Each consumed fault is journaled with
        // the trace id carried in the request frame (the worker has no
        // ambient span until `wire::serve` opens one).
        let fault = injector
            .as_deref()
            .and_then(|inj| Some((inj, inj.take(FaultClass::Frame)?)));
        let Some((inj, fault)) = fault else {
            done.complete(job.id, serve(&job.frame));
            continue;
        };
        let trace = wire::peek_trace(&job.frame);
        match fault.kind {
            FaultKind::DropReply => {
                inj.journal(&fault, rank, "reply dropped; slot left waiting", trace);
            }
            FaultKind::RankCrash => {
                inj.journal(&fault, rank, "worker exited without replying", trace);
                return;
            }
            FaultKind::RankStall { stall_ms } => {
                inj.journal(&fault, rank, "busy-held before serving", trace);
                // Busy without heartbeats: exactly the signature the
                // stall detector scores against `stall_grace`.
                vitals.begin_serve();
                std::thread::sleep(Duration::from_millis(stall_ms as u64));
                done.complete(job.id, serve(&job.frame));
            }
            FaultKind::LateReply { delay_ms } => {
                inj.journal(&fault, rank, "reply delayed past deadline", trace);
                let reply = serve(&job.frame);
                std::thread::sleep(Duration::from_millis(delay_ms as u64));
                done.complete(job.id, reply);
            }
            FaultKind::MalformedReply { mask } => {
                inj.journal(&fault, rank, "reply first byte corrupted", trace);
                let mut reply = serve(&job.frame);
                if let Some(b) = reply.first_mut() {
                    *b ^= mask;
                }
                done.complete(job.id, reply);
            }
            FaultKind::DuplicateReply => {
                inj.journal(&fault, rank, "reply completed twice", trace);
                let reply = serve(&job.frame);
                done.complete(job.id, reply.clone());
                // The duplicate must hit the settled slot and be counted
                // as a late completion, never double-settled.
                done.complete(job.id, reply);
            }
            // `take(FaultClass::Frame)` hands out frame-class kinds only;
            // a data or host kind here is a bug in the injector, and the
            // frame is still owed its honest reply.
            _ => done.complete(job.id, serve(&job.frame)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::device::HonestNdp;
    use crate::wire::{Request, Response};

    fn loaded_endpoint() -> AsyncEndpoint {
        let mut dev = HonestNdp::new();
        let rows: Vec<u32> = (0..32).collect();
        dev.load(
            0x100,
            secndp_arith::ring::words_to_le_bytes(&rows),
            16,
            None,
        )
        .unwrap();
        AsyncEndpoint::new(vec![dev], TransportConfig::default())
    }

    #[test]
    fn device_errors_cross_the_transport_typed() {
        let ep = loaded_endpoint();
        let req = Request::WeightedSum {
            table_addr: 0xDEAD,
            elem_bytes: 4,
            indices: vec![0],
            weights: vec![1],
            with_tag: false,
        };
        let id = ep.submit(&req).unwrap();
        assert!(matches!(ep.wait(id).unwrap(), Response::Err(1)));
        assert_eq!(ep.in_flight(), 0);
    }

    #[test]
    fn stalled_rank_is_detected_and_recovers() {
        let mut dev = HonestNdp::new();
        dev.load(0x1, vec![0u8; 64], 16, None).unwrap();
        // A device that sits on reads for 400 ms against a 50 ms grace:
        // the rank must show as stalled mid-serve and clean afterwards.
        let slow = crate::device::DelayedNdp::new(dev, Duration::from_millis(400));
        let ep = AsyncEndpoint::new(
            vec![slow],
            TransportConfig {
                stall_grace: Duration::from_millis(50),
                timeout: Duration::from_secs(10),
                max_retries: 0,
                ..TransportConfig::default()
            },
        );
        assert!(ep.down_ranks().is_empty(), "idle rank must not stall");
        let id = ep
            .submit(&Request::ReadRow {
                table_addr: 0x1,
                row: 0,
            })
            .unwrap();
        std::thread::sleep(Duration::from_millis(200));
        assert_eq!(ep.down_ranks(), vec![0]);
        assert!(ep.link().vitals()[0].is_busy());
        ep.wait(id).unwrap();
        assert!(ep.down_ranks().is_empty(), "stall clears on completion");
        assert_eq!(ep.served(0), 1);
    }

    #[test]
    fn endpoint_registers_and_unregisters_health_component() {
        let ep = loaded_endpoint();
        let name = ep.health_component().to_string();
        assert!(name.starts_with("transport-ep"));
        let monitor = secndp_telemetry::health::monitor();
        assert!(monitor.components().contains(&name));
        drop(ep);
        assert!(
            !monitor.components().contains(&name),
            "dropping the endpoint must unregister its health check"
        );
    }
}
