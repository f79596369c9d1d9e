//! The in-caller link: N device ranks served on the submitting thread.
//!
//! The paper overlaps OTP-PU work with the NDP PUs (§V-C). That is a
//! hardware timing property, and `secndp-sim` models it; in the functional
//! stack the only channel an adversary owns is the socket
//! ([`TcpLink`](crate::net::TcpLink)). So in-process ranks get no threads:
//! [`AsyncEndpoint`] is an [`Endpoint`] (request ids, window, deadlines,
//! retry: see DESIGN.md "Endpoint and links") over an [`InlineLink`],
//! whose [`send`](Link::send) serves the frame through
//! [`wire::serve_or_reply`] on the caller's thread, releases that rank's
//! lock, then hands the reply back before it returns. A reply is therefore
//! settled before `submit` returns; only a frame a fault swallowed is ever
//! still waiting, and this link has nothing to read.
//!
//! The same struct is [`RemoteNdp::inline`](crate::wire::RemoteNdp::inline)'s
//! transport: as a [`RoundTrip`] it serves rank 0 from reused request and
//! reply buffers and takes no pending-table entry, since a frame served in
//! the call cannot time out or reorder.
//!
//! Fault injection rides the seams: channel faults a
//! [`FaultyLink`](crate::fault::FaultyLink) over this link, device faults
//! (a rank holding a frame included) a
//! [`FaultyNdp`](crate::fault::FaultyNdp) inside it.

use crate::device::NdpDevice;
use crate::endpoint::{locked, Endpoint, EndpointConfig, Got, Link, LinkFail, Route};
use crate::error::Error;
use crate::net::{DeviceHost, FrameHost};
use crate::wire::{self, RoundTrip, Writer};
use secndp_telemetry::trace;
use std::sync::Mutex;

/// The endpoint configuration, under the name it had when only this link
/// existed.
pub type TransportConfig = EndpointConfig;

/// An endpoint over in-process ranks served on the caller's thread.
pub type AsyncEndpoint = Endpoint<InlineLink>;

/// The [`Link`] that serves each frame on the caller's thread: see the
/// [module docs](self).
pub struct InlineLink {
    /// One device per rank; its lock serializes that rank's frames.
    ranks: Vec<Mutex<Rank>>,
}

impl std::fmt::Debug for InlineLink {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("InlineLink")
            .field("ranks", &self.ranks.len())
            .finish_non_exhaustive()
    }
}

/// One rank: its device, and the frame buffers of the in-place round trip,
/// which keep their capacity from one request to the next.
struct Rank {
    host: Box<dyn FrameHost>,
    request: Vec<u8>,
    reply: Vec<u8>,
    /// The length of the last `Load` frame served, zero before the first.
    last_load: usize,
}

impl InlineLink {
    /// Hosts one rank per device.
    pub(crate) fn new<D: NdpDevice + Send + 'static>(devices: Vec<D>) -> Self {
        let ranks = devices
            .into_iter()
            .map(|d| {
                Mutex::new(Rank {
                    host: Box::new(DeviceHost::new(d)),
                    request: Vec::new(),
                    reply: Vec::new(),
                    last_load: 0,
                })
            })
            .collect();
        Self { ranks }
    }

    /// Serves `frame` on `rank` into a reply of its own; the rank's lock is
    /// released on return.
    fn serve(&self, rank: usize, frame: &[u8]) -> Vec<u8> {
        let mut reply = Vec::new();
        locked(&self.ranks[rank])
            .host
            .serve_frame(0, rank as u32, frame, &mut reply);
        reply
    }
}

impl Link for InlineLink {
    const KIND: &'static str = "transport";

    fn ranks(&self) -> usize {
        self.ranks.len()
    }

    fn route(&self, rank: usize) -> Result<Route, LinkFail> {
        Ok((rank, 0))
    }

    fn send(&self, route: Route, id: u64, frame: &[u8], got: Got) -> Result<bool, LinkFail> {
        got(id, self.serve(route.0, frame));
        Ok(false)
    }
}

/// Write, serve on rank 0, read: both directions cross the byte-exact
/// wire format.
impl RoundTrip for InlineLink {
    /// The request is written into rank 0's request buffer and served into
    /// its reply buffer, which `read` is handed: with the rank's lock held
    /// throughout, nothing is allocated once the buffers have grown to the
    /// query's size. A `Load`'s table-sized frame is kept only when it is
    /// no longer than the last `Load`'s: a table published once leaves no
    /// frame behind, and one re-published at its size writes each new
    /// frame into the last one's room.
    fn round_trip(
        &self,
        write: &mut dyn FnMut(Writer<'_>) -> Result<(), Error>,
        read: &mut dyn FnMut(&[u8]) -> Result<(), Error>,
    ) -> Result<(), Error> {
        let ctx = trace::current();
        let mut rank = locked(&self.ranks[0]);
        let Rank {
            host,
            request,
            reply,
            last_load,
        } = &mut *rank;
        {
            let _e = trace::span(trace::names::WIRE_ENCODE);
            request.clear();
            write(Writer::new(request, ctx))?;
        }
        crate::metrics::wire_packets().inc();
        host.serve_frame(0, 0, request, reply);
        if wire::is_load(request) && request.len() > std::mem::replace(last_load, request.len()) {
            *request = Vec::new();
        }
        read(reply)
    }
}

impl Endpoint<InlineLink> {
    /// One rank per device in `devices`, each served on the thread that
    /// submits to it.
    ///
    /// # Panics
    ///
    /// Panics if `devices` is empty.
    pub fn new<D: NdpDevice + Send + 'static>(devices: Vec<D>, cfg: TransportConfig) -> Self {
        assert!(!devices.is_empty(), "endpoint needs at least one rank");
        Self::with_link(cfg, InlineLink::new(devices))
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
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
