//! NDP device models: the honest device and a family of adversaries.
//!
//! Under SecNDP's threat model (paper §II) the NDP processing units are
//! **untrusted**: they may have backdoors or Trojans that leak data or
//! return malicious results. The protocol therefore never gives a device
//! anything but ciphertext and encrypted tags, and never trusts what comes
//! back without verification.
//!
//! [`HonestNdp`] implements the paper's NDP command semantics faithfully —
//! multiply each ciphertext row by its weight, accumulate in registers,
//! return the register contents. The adversarial devices model the attacks
//! the verification scheme (Theorems 2/A.4) must catch; security tests and
//! the `tamper_detection` example use them.

use crate::checksum::combine_weighted;
use crate::error::Error;
use secndp_arith::mersenne::Fq;
use secndp_arith::ring::RingWord;
use std::collections::HashMap;

/// The NDP's response to a weighted-summation command (Algorithm 4 line 7
/// plus, when verification is on, Algorithm 5 line 15).
#[derive(Debug, Clone, PartialEq)]
pub struct NdpResponse<W> {
    /// `C_res`: the ciphertext share of the result, one element per column.
    pub c_res: Vec<W>,
    /// `C_{T_res}`: the combined encrypted tag, if requested.
    pub c_t_res: Option<Fq>,
}

/// An untrusted near-data processing device holding ciphertext tables.
///
/// Methods mirror the NDP command protocol: [`load`](Self::load) models the
/// initialization write (`T0` in Figure 4), [`weighted_sum`](Self::weighted_sum)
/// models a `SecNDPInst` sequence followed by `SecNDPLd`, and
/// [`read_row`](Self::read_row) models a plain encrypted-memory read.
pub trait NdpDevice {
    /// Stores the ciphertext image of a table (and its encrypted tags) at
    /// `table_addr`. Overwrites any previous table at the same address.
    ///
    /// # Errors
    ///
    /// Returns [`Error::ShapeMismatch`] if `row_bytes` is zero or does not
    /// divide the ciphertext length. Wire-backed devices additionally
    /// return [`Error::MalformedResponse`] when the device's reply is not a
    /// valid acknowledgement — an untrusted device must not be able to
    /// crash the trusted side.
    fn load(
        &mut self,
        table_addr: u64,
        ciphertext: Vec<u8>,
        row_bytes: usize,
        tags: Option<Vec<Fq>>,
    ) -> Result<(), Error>;

    /// Executes `Σₖ aₖ · C_{iₖ}` over the stored ciphertext and, when
    /// `with_tag` is set, `Σₖ aₖ · C_{T_{iₖ}}` over the stored tags.
    ///
    /// # Errors
    ///
    /// Returns [`Error::UnknownTable`] for an unknown address,
    /// [`Error::RowOutOfBounds`] for a bad index, and
    /// [`Error::TagsUnavailable`] when tags are requested but absent.
    fn weighted_sum<W: RingWord>(
        &self,
        table_addr: u64,
        indices: &[usize],
        weights: &[W],
        with_tag: bool,
    ) -> Result<NdpResponse<W>, Error>;

    /// Reads back the raw ciphertext bytes of one row (an ordinary memory
    /// fetch through the untrusted DIMM).
    ///
    /// # Errors
    ///
    /// Returns [`Error::UnknownTable`] or [`Error::RowOutOfBounds`].
    fn read_row(&self, table_addr: u64, row: usize) -> Result<Vec<u8>, Error>;

    /// Element-granular weighted summation `Σₖ aₖ · C[iₖ][jₖ]` — the fully
    /// general form of Algorithm 4, which selects individual elements
    /// rather than whole rows. Returns a single ring element.
    ///
    /// The default implementation gathers each element through
    /// [`read_row`](Self::read_row); devices may override with a faster
    /// path.
    ///
    /// # Errors
    ///
    /// Returns [`Error::UnknownTable`], [`Error::RowOutOfBounds`],
    /// [`Error::ColOutOfBounds`], or [`Error::QueryLengthMismatch`].
    fn weighted_sum_elements<W: RingWord>(
        &self,
        table_addr: u64,
        coords: &[(usize, usize)],
        weights: &[W],
    ) -> Result<W, Error> {
        if coords.len() != weights.len() {
            return Err(Error::QueryLengthMismatch {
                indices: coords.len(),
                weights: weights.len(),
            });
        }
        let mut acc = W::ZERO;
        for (&(i, j), &a) in coords.iter().zip(weights) {
            let row = self.read_row(table_addr, i)?;
            let cols = row.len() / W::BYTES;
            if j >= cols {
                return Err(Error::ColOutOfBounds { index: j, cols });
            }
            let c = W::from_le_slice(&row[j * W::BYTES..]);
            acc = acc.wadd(a.wmul(c));
        }
        Ok(acc)
    }
}

/// Shared load-command validation: `row_bytes` must be positive and divide
/// the ciphertext image exactly.
pub(crate) fn validate_load(ciphertext_len: usize, row_bytes: usize) -> Result<(), Error> {
    if row_bytes == 0 || !ciphertext_len.is_multiple_of(row_bytes) {
        return Err(crate::metrics::shape_mismatch(ciphertext_len, row_bytes));
    }
    Ok(())
}

#[derive(Debug, Clone)]
struct StoredTable {
    data: Vec<u8>,
    row_bytes: usize,
    tags: Option<Vec<Fq>>,
}

impl StoredTable {
    fn rows(&self) -> usize {
        self.data.len() / self.row_bytes
    }

    fn row(&self, i: usize, table_addr: u64) -> Result<&[u8], Error> {
        if i >= self.rows() {
            return Err(Error::RowOutOfBounds {
                index: i,
                rows: self.rows(),
            });
        }
        let _ = table_addr;
        Ok(&self.data[i * self.row_bytes..(i + 1) * self.row_bytes])
    }
}

/// A faithful NDP device: computes exactly what it is told over ciphertext.
#[derive(Debug, Clone, Default)]
pub struct HonestNdp {
    tables: HashMap<u64, StoredTable>,
}

impl HonestNdp {
    /// Creates an empty device.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of tables currently loaded.
    pub fn table_count(&self) -> usize {
        self.tables.len()
    }

    fn table(&self, table_addr: u64) -> Result<&StoredTable, Error> {
        self.tables
            .get(&table_addr)
            .ok_or(Error::UnknownTable { table_addr })
    }
}

impl NdpDevice for HonestNdp {
    fn load(
        &mut self,
        table_addr: u64,
        ciphertext: Vec<u8>,
        row_bytes: usize,
        tags: Option<Vec<Fq>>,
    ) -> Result<(), Error> {
        let mut sp = secndp_telemetry::trace::span("device_load");
        sp.attr_u64("table_addr", table_addr);
        sp.attr_u64("bytes", ciphertext.len() as u64);
        validate_load(ciphertext.len(), row_bytes)?;
        self.tables.insert(
            table_addr,
            StoredTable {
                data: ciphertext,
                row_bytes,
                tags,
            },
        );
        Ok(())
    }

    fn weighted_sum<W: RingWord>(
        &self,
        table_addr: u64,
        indices: &[usize],
        weights: &[W],
        with_tag: bool,
    ) -> Result<NdpResponse<W>, Error> {
        let mut sp = secndp_telemetry::trace::span("device_weighted_sum");
        sp.attr_u64("table_addr", table_addr);
        sp.attr_u64("rows", indices.len() as u64);
        let t = self.table(table_addr)?;
        if indices.len() != weights.len() {
            return Err(Error::QueryLengthMismatch {
                indices: indices.len(),
                weights: weights.len(),
            });
        }
        let cols = t.row_bytes / W::BYTES;
        let mut c_res = vec![W::ZERO; cols];
        for (&i, &a) in indices.iter().zip(weights) {
            let row = t.row(i, table_addr)?;
            for (acc, c) in c_res.iter_mut().zip(row.chunks_exact(W::BYTES)) {
                *acc = acc.wadd(a.wmul(W::from_le_slice(c)));
            }
        }
        let c_t_res = if with_tag {
            let tags = t.tags.as_ref().ok_or(Error::TagsUnavailable)?;
            let picked = indices
                .iter()
                .map(|&i| {
                    tags.get(i).copied().ok_or(Error::RowOutOfBounds {
                        index: i,
                        rows: tags.len(),
                    })
                })
                .collect::<Result<Vec<Fq>, Error>>()?;
            Some(combine_weighted(weights, &picked))
        } else {
            None
        };
        Ok(NdpResponse { c_res, c_t_res })
    }

    fn read_row(&self, table_addr: u64, row: usize) -> Result<Vec<u8>, Error> {
        let mut sp = secndp_telemetry::trace::span("device_read_row");
        sp.attr_u64("table_addr", table_addr);
        Ok(self.table(table_addr)?.row(row, table_addr)?.to_vec())
    }
}

/// A device model with service latency: wraps any inner device and sleeps
/// a fixed delay — plus optional deterministic jitter — before serving
/// each *query* (`weighted_sum` / `read_row`). `load` passes straight
/// through so test and bench setup is never throttled. Used to model bus
/// latency in transport tests and the multi-rank service bench, where the
/// delay is what pipelining across ranks overlaps.
#[derive(Debug)]
pub struct DelayedNdp<D> {
    inner: D,
    delay: std::time::Duration,
    /// Maximum extra jitter; 0 disables it.
    jitter: std::time::Duration,
    /// LCG state for the jitter sequence — deterministic per seed, but
    /// distinct per clone/rank so completions genuinely reorder.
    state: std::sync::atomic::AtomicU64,
}

impl<D> DelayedNdp<D> {
    /// Wraps `inner` with a fixed per-query delay.
    pub fn new(inner: D, delay: std::time::Duration) -> Self {
        Self::with_jitter(inner, delay, std::time::Duration::ZERO, 0)
    }

    /// Wraps `inner` with `delay` plus uniformly LCG-distributed jitter in
    /// `[0, jitter)`, seeded so delay sequences replay exactly.
    pub fn with_jitter(
        inner: D,
        delay: std::time::Duration,
        jitter: std::time::Duration,
        seed: u64,
    ) -> Self {
        Self {
            inner,
            delay,
            jitter,
            state: std::sync::atomic::AtomicU64::new(seed | 1),
        }
    }

    fn pause(&self) {
        let mut d = self.delay;
        let jitter_ns = self.jitter.as_nanos() as u64;
        if jitter_ns > 0 {
            use std::sync::atomic::Ordering;
            let mut s = self.state.load(Ordering::Relaxed);
            s = s
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            self.state.store(s, Ordering::Relaxed);
            d += std::time::Duration::from_nanos((s >> 11) % jitter_ns);
        }
        if !d.is_zero() {
            std::thread::sleep(d);
        }
    }
}

impl<D: Clone> Clone for DelayedNdp<D> {
    fn clone(&self) -> Self {
        use std::sync::atomic::Ordering;
        Self {
            inner: self.inner.clone(),
            delay: self.delay,
            jitter: self.jitter,
            // Decorrelate the clone's jitter stream so replicated ranks
            // do not sleep in lockstep.
            state: std::sync::atomic::AtomicU64::new(
                self.state.load(Ordering::Relaxed) ^ 0x9E37_79B9_7F4A_7C15,
            ),
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

/// The attack a [`TamperingNdp`] mounts on each response.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Tamper {
    /// Flip one bit of the returned ciphertext result.
    FlipResultBit {
        /// Which result element to corrupt.
        element: usize,
        /// Which bit of that element to flip.
        bit: u32,
    },
    /// Silently substitute a different row for the first requested index
    /// (a "copy valid data from a different address" attack).
    SwapFirstRow {
        /// The row the device actually uses.
        with: usize,
    },
    /// Return a correctly computed result but a forged (random-looking) tag.
    ForgeTag,
    /// Return all-zero results (a lazy / denial-of-service device).
    ZeroResult,
    /// Corrupt one stored row before computing, but combine the *original*
    /// tags — models a memory-content attack (e.g. Rowhammer) between
    /// initialization and query.
    CorruptStoredRow {
        /// Row whose bytes are XOR-corrupted.
        row: usize,
    },
}

/// An NDP device with a Trojan: behaves like [`HonestNdp`] but applies a
/// [`Tamper`] to every weighted-summation response.
#[derive(Debug, Clone)]
pub struct TamperingNdp {
    inner: HonestNdp,
    tamper: Tamper,
}

impl TamperingNdp {
    /// Wraps a fresh honest device with the given tamper behaviour.
    pub fn new(tamper: Tamper) -> Self {
        Self {
            inner: HonestNdp::new(),
            tamper,
        }
    }

    /// The configured tamper behaviour.
    pub fn tamper(&self) -> Tamper {
        self.tamper
    }

    /// A clone of the inner device with `row` of `table_addr`
    /// XOR-corrupted — the memory-content attack all
    /// [`CorruptStoredRow`](Tamper::CorruptStoredRow) arms serve from.
    fn corrupted_copy(&self, table_addr: u64, row: usize) -> HonestNdp {
        let mut copy = self.inner.clone();
        if let Some(t) = copy.tables.get_mut(&table_addr) {
            let rb = t.row_bytes;
            if row < t.rows() {
                for b in &mut t.data[row * rb..(row + 1) * rb] {
                    *b ^= 0xA5;
                }
            }
        }
        copy
    }
}

impl NdpDevice for TamperingNdp {
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
        match self.tamper {
            Tamper::FlipResultBit { element, bit } => {
                let mut r = self
                    .inner
                    .weighted_sum(table_addr, indices, weights, with_tag)?;
                let slot = element % r.c_res.len().max(1);
                if let Some(x) = r.c_res.get_mut(slot) {
                    let flipped = x.as_u64() ^ (1u64 << (bit % W::BITS));
                    *x = W::from_u64(flipped);
                }
                Ok(r)
            }
            Tamper::SwapFirstRow { with } => {
                let mut idx = indices.to_vec();
                if !idx.is_empty() {
                    idx[0] = with;
                }
                // Data uses the swapped row; the tag is combined over the
                // swapped row's tag too — the checksum still catches it
                // because tag pads are bound to row addresses.
                self.inner.weighted_sum(table_addr, &idx, weights, with_tag)
            }
            Tamper::ForgeTag => {
                let mut r = self
                    .inner
                    .weighted_sum(table_addr, indices, weights, with_tag)?;
                if let Some(t) = r.c_t_res.as_mut() {
                    *t += Fq::new(0xf_026e_d7a6_u128);
                }
                Ok(r)
            }
            Tamper::ZeroResult => {
                let mut r = self
                    .inner
                    .weighted_sum(table_addr, indices, weights, with_tag)?;
                r.c_res.iter_mut().for_each(|x| *x = W::ZERO);
                Ok(r)
            }
            Tamper::CorruptStoredRow { row } => {
                // Recompute over a corrupted copy of the table.
                self.corrupted_copy(table_addr, row)
                    .weighted_sum(table_addr, indices, weights, with_tag)
            }
        }
    }

    fn read_row(&self, table_addr: u64, row: usize) -> Result<Vec<u8>, Error> {
        // Row reads are plain encrypted-memory fetches, so every tamper
        // applies to them too — a device that only cheats on summations
        // would be an oddly principled adversary. `ForgeTag` alone passes
        // through: a raw row carries no tag to forge (it still fires on
        // the verified-read path, which travels as a weighted sum).
        match self.tamper {
            Tamper::FlipResultBit { element, bit } => {
                let mut bytes = self.inner.read_row(table_addr, row)?;
                if !bytes.is_empty() {
                    let i = element % bytes.len();
                    bytes[i] ^= 1 << (bit % 8);
                }
                Ok(bytes)
            }
            Tamper::SwapFirstRow { with } => self.inner.read_row(table_addr, with),
            Tamper::ForgeTag => self.inner.read_row(table_addr, row),
            Tamper::ZeroResult => {
                let bytes = self.inner.read_row(table_addr, row)?;
                Ok(vec![0u8; bytes.len()])
            }
            Tamper::CorruptStoredRow { row: bad } => self
                .corrupted_copy(table_addr, bad)
                .read_row(table_addr, row),
        }
    }

    fn weighted_sum_elements<W: RingWord>(
        &self,
        table_addr: u64,
        coords: &[(usize, usize)],
        weights: &[W],
    ) -> Result<W, Error> {
        // The element-granular path returns a bare scalar (no tag is
        // even possible), so these tampers model what an unverifiable
        // query surface is exposed to.
        match self.tamper {
            Tamper::FlipResultBit { bit, .. } => {
                let r = self
                    .inner
                    .weighted_sum_elements(table_addr, coords, weights)?;
                Ok(W::from_u64(r.as_u64() ^ (1u64 << (bit % W::BITS))))
            }
            Tamper::SwapFirstRow { with } => {
                let mut coords = coords.to_vec();
                if let Some(c) = coords.first_mut() {
                    c.0 = with;
                }
                self.inner
                    .weighted_sum_elements(table_addr, &coords, weights)
            }
            Tamper::ForgeTag => self
                .inner
                .weighted_sum_elements(table_addr, coords, weights),
            Tamper::ZeroResult => {
                self.inner
                    .weighted_sum_elements(table_addr, coords, weights)?;
                Ok(W::ZERO)
            }
            Tamper::CorruptStoredRow { row } => self
                .corrupted_copy(table_addr, row)
                .weighted_sum_elements(table_addr, coords, weights),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use secndp_arith::ring::weighted_sum;

    fn loaded() -> HonestNdp {
        let mut d = HonestNdp::new();
        // Two rows of four u32s, stored as plain bytes (device never knows
        // whether bytes are ciphertext).
        let rows: Vec<u32> = vec![1, 2, 3, 4, 10, 20, 30, 40];
        let bytes = secndp_arith::ring::words_to_le_bytes(&rows);
        d.load(0x1000, bytes, 16, Some(vec![Fq::new(5), Fq::new(6)]))
            .unwrap();
        d
    }

    #[test]
    fn honest_weighted_sum() {
        let d = loaded();
        let r = d
            .weighted_sum::<u32>(0x1000, &[0, 1], &[3, 2], true)
            .unwrap();
        assert_eq!(r.c_res, vec![23, 46, 69, 92]);
        // 3·5 + 2·6 = 27 in the field.
        assert_eq!(r.c_t_res, Some(Fq::new(27)));
    }

    #[test]
    fn repeated_indices_allowed() {
        let d = loaded();
        let r = d
            .weighted_sum::<u32>(0x1000, &[0, 0], &[1, 1], false)
            .unwrap();
        assert_eq!(r.c_res, vec![2, 4, 6, 8]);
    }

    #[test]
    fn unknown_table_and_bad_row() {
        let d = loaded();
        assert!(matches!(
            d.weighted_sum::<u32>(0xdead, &[0], &[1], false),
            Err(Error::UnknownTable { .. })
        ));
        assert!(matches!(
            d.weighted_sum::<u32>(0x1000, &[5], &[1], false),
            Err(Error::RowOutOfBounds { index: 5, rows: 2 })
        ));
        assert!(matches!(
            d.read_row(0x1000, 9),
            Err(Error::RowOutOfBounds { .. })
        ));
    }

    #[test]
    fn load_rejects_bad_shape() {
        let mut d = HonestNdp::new();
        assert!(matches!(
            d.load(0, vec![0u8; 17], 16, None),
            Err(Error::ShapeMismatch {
                got: 17,
                expected: 16
            })
        ));
        assert!(matches!(
            d.load(0, vec![0u8; 16], 0, None),
            Err(Error::ShapeMismatch { .. })
        ));
        // A rejected load must not register the table.
        assert_eq!(d.table_count(), 0);
    }

    #[test]
    fn tag_requested_but_missing() {
        let mut d = HonestNdp::new();
        d.load(0, vec![0u8; 16], 16, None).unwrap();
        assert_eq!(
            d.weighted_sum::<u32>(0, &[0], &[1], true).unwrap_err(),
            Error::TagsUnavailable
        );
    }

    #[test]
    fn length_mismatch_rejected() {
        let d = loaded();
        assert!(matches!(
            d.weighted_sum::<u32>(0x1000, &[0, 1], &[1], false),
            Err(Error::QueryLengthMismatch { .. })
        ));
    }

    #[test]
    fn read_row_returns_stored_bytes() {
        let d = loaded();
        let row1 = d.read_row(0x1000, 1).unwrap();
        assert_eq!(
            secndp_arith::ring::words_from_le_bytes::<u32>(&row1),
            vec![10, 20, 30, 40]
        );
    }

    #[test]
    fn tampering_devices_change_results() {
        let rows: Vec<u32> = vec![1, 2, 3, 4, 10, 20, 30, 40];
        let bytes = secndp_arith::ring::words_to_le_bytes(&rows);
        let honest = {
            let d = loaded();
            d.weighted_sum::<u32>(0x1000, &[0, 1], &[3, 2], true)
                .unwrap()
        };
        for tamper in [
            Tamper::FlipResultBit { element: 0, bit: 3 },
            Tamper::SwapFirstRow { with: 1 },
            Tamper::ForgeTag,
            Tamper::ZeroResult,
            Tamper::CorruptStoredRow { row: 0 },
        ] {
            let mut d = TamperingNdp::new(tamper);
            d.load(
                0x1000,
                bytes.clone(),
                16,
                Some(vec![Fq::new(5), Fq::new(6)]),
            )
            .unwrap();
            let r = d
                .weighted_sum::<u32>(0x1000, &[0, 1], &[3, 2], true)
                .unwrap();
            assert_ne!(r, honest, "{tamper:?} did not alter the response");
        }
    }

    #[test]
    fn tampering_extends_to_row_reads() {
        let rows: Vec<u32> = vec![1, 2, 3, 4, 10, 20, 30, 40];
        let bytes = secndp_arith::ring::words_to_le_bytes(&rows);
        let honest_row0 = &bytes[..16];
        for tamper in [
            Tamper::FlipResultBit { element: 0, bit: 3 },
            Tamper::SwapFirstRow { with: 1 },
            Tamper::ZeroResult,
            Tamper::CorruptStoredRow { row: 0 },
        ] {
            let mut d = TamperingNdp::new(tamper);
            d.load(0x1000, bytes.clone(), 16, None).unwrap();
            let r = d.read_row(0x1000, 0).unwrap();
            assert_ne!(r, honest_row0, "{tamper:?} did not alter the row read");
            assert_eq!(r.len(), 16, "{tamper:?} changed the row length");
        }
        // ForgeTag alone is a no-op on raw reads: rows carry no tag.
        let mut d = TamperingNdp::new(Tamper::ForgeTag);
        d.load(0x1000, bytes.clone(), 16, None).unwrap();
        assert_eq!(d.read_row(0x1000, 0).unwrap(), honest_row0);
    }

    #[test]
    fn tampering_extends_to_element_queries() {
        let rows: Vec<u32> = vec![1, 2, 3, 4, 10, 20, 30, 40];
        let bytes = secndp_arith::ring::words_to_le_bytes(&rows);
        let coords = [(0usize, 0usize), (1, 1)];
        // 3·m[0][0] + 2·m[1][1] = 3·1 + 2·20
        let honest = 43u32;
        for tamper in [
            Tamper::FlipResultBit { element: 0, bit: 3 },
            Tamper::SwapFirstRow { with: 1 },
            Tamper::ZeroResult,
            Tamper::CorruptStoredRow { row: 0 },
        ] {
            let mut d = TamperingNdp::new(tamper);
            d.load(0x1000, bytes.clone(), 16, None).unwrap();
            let r = d
                .weighted_sum_elements::<u32>(0x1000, &coords, &[3, 2])
                .unwrap();
            assert_ne!(r, honest, "{tamper:?} did not alter the element query");
        }
    }

    #[test]
    fn weighted_sum_wraps_in_ring() {
        let mut d = HonestNdp::new();
        let rows = secndp_arith::ring::words_to_le_bytes(&[200u8, 100]);
        d.load(0, rows, 1, None).unwrap();
        let r = d.weighted_sum::<u8>(0, &[0, 1], &[2, 1], false).unwrap();
        assert_eq!(r.c_res, vec![(400u64 + 100) as u8]);
    }

    #[test]
    fn sanity_weighted_sum_helper_agrees() {
        // HonestNdp's accumulation must agree with ring::weighted_sum.
        let d = loaded();
        let r = d
            .weighted_sum::<u32>(0x1000, &[0, 1], &[7, 9], false)
            .unwrap();
        for j in 0..4 {
            let col = [1 + j as u32, 10 * (1 + j as u32)];
            assert_eq!(r.c_res[j], weighted_sum(&[7u32, 9], &col));
        }
    }
}
