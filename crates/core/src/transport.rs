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
//! - **A dead rank is a closed queue.** A worker that is gone makes `send`
//!   fail with a lost connection, so idempotent requests fail over at send
//!   time and a `Load` surfaces the dead rank as
//!   [`Error::ConnectionLost`](crate::Error::ConnectionLost).
//!
//! The worker loop knows nothing of fault injection: channel faults ride a
//! [`FaultyLink`](crate::fault::FaultyLink) over this link, and device
//! faults (a rank holding a frame included) a
//! [`FaultyNdp`](crate::fault::FaultyNdp) inside it.

use crate::device::NdpDevice;
use crate::endpoint::{locked, Completer, Endpoint, EndpointConfig, Link, LinkFail, Route};
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
        locked(tx).send(job).map_err(|_| LinkFail::ConnLost)
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

impl WorkerLink {
    /// Spawns one worker thread per device, each owning its device and
    /// completing through `done` (see [`AsyncEndpoint::new`]).
    pub(crate) fn spawn<D: NdpDevice + Send + 'static>(
        devices: Vec<D>,
        stall_grace: Duration,
        done: Completer,
    ) -> Self {
        let mut link = WorkerLink {
            senders: Vec::with_capacity(devices.len()),
            workers: Vec::with_capacity(devices.len()),
            vitals: Vec::with_capacity(devices.len()),
            stall_grace,
        };
        for (rank, device) in devices.into_iter().enumerate() {
            let (tx, rx) = mpsc::channel::<Job>();
            let vitals = Arc::new(RankVitals::new());
            let (done, v) = (Arc::clone(&done), Arc::clone(&vitals));
            let spawned = std::thread::Builder::new()
                .name(format!("secndp-rank{rank}"))
                .spawn(move || worker_loop(device, rx, done, v));
            link.vitals.push(vitals);
            link.senders.push(spawned.is_ok().then(|| Mutex::new(tx)));
            link.workers.extend(spawned);
        }
        link
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
        assert!(!devices.is_empty(), "endpoint needs at least one rank");
        let stall_grace = cfg.stall_grace;
        Self::with_link(cfg, devices.len(), |done| {
            WorkerLink::spawn(devices, stall_grace, done)
        })
    }
}

fn worker_loop<D: NdpDevice>(
    mut device: D,
    rx: mpsc::Receiver<Job>,
    done: Completer,
    vitals: Arc<RankVitals>,
) {
    loop {
        vitals.beat();
        let job = match rx.recv_timeout(Duration::from_millis(100)) {
            Ok(job) => job,
            // Idle tick: refresh the heartbeat so idleness never looks
            // like a stall, then keep listening.
            Err(RecvTimeoutError::Timeout) => continue,
            Err(RecvTimeoutError::Disconnected) => break,
        };
        vitals.begin_serve();
        let reply = wire::serve_or_reply(&mut device, &job.frame);
        vitals.end_serve();
        done.complete(job.id, reply);
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
