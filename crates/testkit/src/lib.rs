//! The paper's test substrate, kept out of the crate a TEE links.
//!
//! `secndp-core` ships what a deployment runs: keys, encryption, checksums,
//! the protocol and its transports. What only tests and experiments need
//! lives here, beside them:
//!
//! - [`baseline`] (with the Alg 3 reference [`mac`]) and [`integrity_tree`]:
//!   the conventional TEE protection of Figure 2;
//! - [`oracle`]: the sign/verify oracles and forgery game of Alg 6/7;
//! - [`security`]: the Theorem 1/2 bounds;
//! - [`device_mem`]: the §V-D memory-backed device with real tag placements;
//! - [`DelayedNdp`]: a device with service latency, for transport tests.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod baseline;
pub mod device_mem;
pub mod integrity_tree;
pub mod mac;
pub mod oracle;
pub mod security;

pub use device_mem::{MemoryBackedNdp, TagPlacement, UntrustedMemory};

use secndp_arith::mersenne::Fq;
use secndp_arith::ring::RingWord;
use secndp_core::device::{NdpDevice, NdpResponse};
use secndp_core::fault::SplitMix64;
use secndp_core::Error;
use std::sync::{Mutex, PoisonError};
use std::time::Duration;

/// A device model with service latency: wraps any inner device and sleeps
/// a fixed delay — plus optional deterministic jitter — before serving
/// each *query* (`weighted_sum` / `read_row`). `load` passes straight
/// through so test and bench setup is never throttled. Used to model bus
/// latency in transport tests; behind socket ranks the delay is what
/// pipelining across ranks overlaps, while an in-caller rank holds its
/// caller for it.
#[derive(Debug)]
pub struct DelayedNdp<D> {
    inner: D,
    delay: Duration,
    /// Maximum extra jitter; 0 disables it.
    jitter: Duration,
    /// The jitter sequence — deterministic per seed, but distinct per
    /// clone/rank so completions genuinely reorder.
    rng: Mutex<SplitMix64>,
}

impl<D> DelayedNdp<D> {
    /// Wraps `inner` with a fixed per-query delay.
    pub fn new(inner: D, delay: Duration) -> Self {
        Self::with_jitter(inner, delay, Duration::ZERO, 0)
    }

    /// Wraps `inner` with `delay` plus uniformly distributed jitter in
    /// `[0, jitter)`, seeded so delay sequences replay exactly.
    pub fn with_jitter(inner: D, delay: Duration, jitter: Duration, seed: u64) -> Self {
        Self {
            inner,
            delay,
            jitter,
            rng: Mutex::new(SplitMix64::new(seed)),
        }
    }

    fn rng(&self) -> std::sync::MutexGuard<'_, SplitMix64> {
        self.rng.lock().unwrap_or_else(PoisonError::into_inner)
    }

    fn pause(&self) {
        let mut d = self.delay;
        let jitter_ns = self.jitter.as_nanos() as u64;
        if jitter_ns > 0 {
            d += Duration::from_nanos(self.rng().below(jitter_ns));
        }
        if !d.is_zero() {
            std::thread::sleep(d);
        }
    }
}

impl<D: Clone> Clone for DelayedNdp<D> {
    fn clone(&self) -> Self {
        Self {
            inner: self.inner.clone(),
            delay: self.delay,
            jitter: self.jitter,
            // Seed the clone's jitter stream from this one's so replicated
            // ranks do not sleep in lockstep.
            rng: Mutex::new(SplitMix64::new(self.rng().next_u64())),
        }
    }
}

impl<D: NdpDevice> NdpDevice for DelayedNdp<D> {
    fn load(
        &mut self,
        table_addr: u64,
        ciphertext: Vec<u8>,
        row_bytes: usize,
        tags: Option<Vec<Fq>>,
    ) -> Result<(), Error> {
        self.inner.load(table_addr, ciphertext, row_bytes, tags)
    }

    fn weighted_sum<W: RingWord>(
        &self,
        table_addr: u64,
        indices: &[usize],
        weights: &[W],
        with_tag: bool,
    ) -> Result<NdpResponse<W>, Error> {
        self.pause();
        self.inner
            .weighted_sum(table_addr, indices, weights, with_tag)
    }

    fn read_row(&self, table_addr: u64, row: usize) -> Result<Vec<u8>, Error> {
        self.pause();
        self.inner.read_row(table_addr, row)
    }
}
