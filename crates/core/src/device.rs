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
//! return the register contents. [`Tamper`] writes down, once, each attack
//! the verification scheme (Theorems 2/A.4) must catch: [`TamperingNdp`]
//! mounts one on every operation (security tests, the `tamper_detection`
//! example), and the chaos harness's [`FaultyNdp`](crate::fault::FaultyNdp)
//! lands them on scheduled operations.

use crate::error::Error;
use secndp_arith::mersenne::{Fq, WideAcc};
use secndp_arith::ring::{words_to_le_bytes, RingWord};
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

/// `acc[j] += c_res[j]` (`SecNDPLd`'s final ring addition), once the reply
/// is known to be as wide as `acc`.
pub(crate) fn add_c_res<W: RingWord>(acc: &mut [W], c_res: &[W]) -> Result<(), Error> {
    if c_res.len() != acc.len() {
        return Err(crate::metrics::malformed(
            "result width differs from table columns",
        ));
    }
    for (x, &c) in acc.iter_mut().zip(c_res) {
        *x = x.wadd(c);
    }
    Ok(())
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

    /// [`load`](Self::load) from a table as the processor holds it: the
    /// image as ring words, stored little-endian, and the tags borrowed.
    ///
    /// The default serializes both into `load`'s owned arguments; a device
    /// behind the wire writes its `Load` frame straight from them.
    ///
    /// # Errors
    ///
    /// As [`load`](Self::load).
    fn load_words<W: RingWord>(
        &mut self,
        table_addr: u64,
        ciphertext: &[W],
        row_bytes: usize,
        tags: Option<&[Fq]>,
    ) -> Result<(), Error> {
        self.load(
            table_addr,
            words_to_le_bytes(ciphertext),
            row_bytes,
            tags.map(<[Fq]>::to_vec),
        )
    }

    /// Executes `Σₖ aₖ · C_{iₖ}` over the stored ciphertext and, when
    /// `with_tag` is set, `Σₖ aₖ · C_{T_{iₖ}}` over the stored tags.
    ///
    /// # Errors
    ///
    /// Returns [`Error::UnknownTable`] for an unknown address,
    /// [`Error::QueryLengthMismatch`] when `weights` is not as long as
    /// `indices`, [`Error::RowOutOfBounds`] for a bad index, and
    /// [`Error::TagsUnavailable`] when tags are requested but absent.
    fn weighted_sum<W: RingWord>(
        &self,
        table_addr: u64,
        indices: &[usize],
        weights: &[W],
        with_tag: bool,
    ) -> Result<NdpResponse<W>, Error>;

    /// [`weighted_sum`](Self::weighted_sum) added into the caller's
    /// result: `acc[j] += C_res[j]`, returning `C_{T_res}`. `acc` is as
    /// wide as the table; a reply of another width is refused before any
    /// of it is added.
    ///
    /// The default adds the [`NdpResponse`]; a device behind the wire adds
    /// the reply's words straight from its frame.
    ///
    /// # Errors
    ///
    /// As [`weighted_sum`](Self::weighted_sum), and
    /// [`Error::MalformedResponse`] for a reply of the wrong width.
    fn weighted_sum_into<W: RingWord>(
        &self,
        table_addr: u64,
        indices: &[usize],
        weights: &[W],
        with_tag: bool,
        acc: &mut [W],
    ) -> Result<Option<Fq>, Error> {
        let r = self.weighted_sum(table_addr, indices, weights, with_tag)?;
        add_c_res(acc, &r.c_res)?;
        Ok(r.c_t_res)
    }

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

/// One table as a device stores it: the ciphertext image, its row width
/// and its encrypted tags, shaped by [`validate_load`].
#[derive(Debug, Clone)]
pub(crate) struct StoredTable {
    data: Vec<u8>,
    row_bytes: usize,
    tags: Option<Vec<Fq>>,
}

impl StoredTable {
    /// Takes a load command's image once its shape is valid.
    pub(crate) fn new(
        data: Vec<u8>,
        row_bytes: usize,
        tags: Option<Vec<Fq>>,
    ) -> Result<Self, Error> {
        validate_load(data.len(), row_bytes)?;
        Ok(Self {
            data,
            row_bytes,
            tags,
        })
    }

    pub(crate) fn rows(&self) -> usize {
        self.data.len() / self.row_bytes
    }

    fn row(&self, i: usize) -> Result<&[u8], Error> {
        if i >= self.rows() {
            return Err(Error::RowOutOfBounds {
                index: i,
                rows: self.rows(),
            });
        }
        Ok(self.row_at(i))
    }

    /// Row `i`, which the caller has checked against [`rows`](Self::rows).
    fn row_at(&self, i: usize) -> &[u8] {
        &self.data[i * self.row_bytes..(i + 1) * self.row_bytes]
    }

    /// The first pass of a weighted sum: checks every index in query order
    /// against the rows, then against the tags when `with_tag` is set, and
    /// returns the tags the second pass combines.
    ///
    /// The same pass reads one byte of each line of every row, the row's
    /// last byte (a row need not start on a line) and its tag. No load
    /// depends on another, so a query's misses are in flight together
    /// rather than one row at a time, as the paper's NDP overlaps a
    /// packet's reads across ranks and banks (§V).
    fn gather(&self, indices: &[usize], with_tag: bool) -> Result<Option<&[Fq]>, Error> {
        let rows = self.rows();
        let tags = if with_tag { self.tags.as_deref() } else { None };
        let mut short_tag = None;
        let mut touched = 0u8;
        for &i in indices {
            if i >= rows {
                return Err(Error::RowOutOfBounds { index: i, rows });
            }
            let row = self.row_at(i);
            let mut at = 0;
            while at < row.len() {
                touched ^= row[at];
                at += CACHE_LINE;
            }
            touched ^= row.last().copied().unwrap_or(0);
            match tags.map(|t| t.get(i)) {
                Some(Some(tag)) => touched ^= tag.value() as u8,
                Some(None) => {
                    short_tag.get_or_insert(i);
                }
                None => {}
            }
        }
        std::hint::black_box(touched);
        if !with_tag {
            return Ok(None);
        }
        let tags = tags.ok_or(Error::TagsUnavailable)?;
        match short_tag {
            Some(index) => Err(Error::RowOutOfBounds {
                index,
                rows: tags.len(),
            }),
            None => Ok(Some(tags)),
        }
    }
}

/// Bytes per cache line on x86-64 and most AArch64 cores: the stride of
/// [`StoredTable::gather`]'s reads, one per line a row spans.
const CACHE_LINE: usize = 64;

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

    /// A device holding exactly `table`, at `table_addr`.
    pub(crate) fn serving(table_addr: u64, table: StoredTable) -> Self {
        Self {
            tables: HashMap::from([(table_addr, table)]),
        }
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
        let table = StoredTable::new(ciphertext, row_bytes, tags)?;
        self.tables.insert(table_addr, table);
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
        let tags = t.gather(indices, with_tag)?;
        let cols = t.row_bytes / W::BYTES;
        let mut c_res = vec![W::ZERO; cols];
        for (&i, &a) in indices.iter().zip(weights) {
            for (acc, c) in c_res.iter_mut().zip(t.row_at(i).chunks_exact(W::BYTES)) {
                *acc = acc.wadd(a.wmul(W::from_le_slice(c)));
            }
        }
        let c_t_res = tags.map(|tags| {
            let mut acc = WideAcc::default();
            for (&i, &a) in indices.iter().zip(weights) {
                acc.push(tags[i], a.as_u64());
            }
            acc.sum()
        });
        Ok(NdpResponse { c_res, c_t_res })
    }

    fn read_row(&self, table_addr: u64, row: usize) -> Result<Vec<u8>, Error> {
        let mut sp = secndp_telemetry::trace::span("device_read_row");
        sp.attr_u64("table_addr", table_addr);
        Ok(self.table(table_addr)?.row(row)?.to_vec())
    }
}

/// The attacks of a malicious device, each written once: a
/// [`TamperingNdp`] mounts one on every operation, and
/// [`FaultyNdp`](crate::fault::FaultyNdp) lands the one its armed
/// data fault maps to. Every arm covers a weighted sum, a row read
/// and an element query.
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

/// `x` with bit `bit` (reduced mod the width) flipped.
fn flip<W: RingWord>(x: W, bit: u32) -> W {
    W::from_u64(x.as_u64() ^ (1u64 << (bit % W::BITS)))
}

/// Each arm runs `dev`'s operation with its first row swapped, then
/// corrupts the reply. [`CorruptStoredRow`](Tamper::CorruptStoredRow)
/// attacks memory, not replies: [`TamperingNdp`] corrupts the row as it is
/// stored, and its arms here serve `dev` as it is.
impl Tamper {
    /// The row read in place of the operation's first row `first`.
    fn row(self, first: usize) -> usize {
        match self {
            Tamper::SwapFirstRow { with } => with,
            _ => first,
        }
    }

    pub(crate) fn weighted_sum<D: NdpDevice, W: RingWord>(
        self,
        dev: &D,
        table_addr: u64,
        indices: &[usize],
        weights: &[W],
        with_tag: bool,
    ) -> Result<NdpResponse<W>, Error> {
        let mut idx = indices.to_vec();
        if let Some(i) = idx.first_mut() {
            // The swapped row's tag is combined too: the checksum still
            // catches it because tag pads are bound to row addresses.
            *i = self.row(*i);
        }
        let mut r = dev.weighted_sum(table_addr, &idx, weights, with_tag)?;
        match self {
            Tamper::FlipResultBit { element, bit } => {
                let slot = element % r.c_res.len().max(1);
                if let Some(x) = r.c_res.get_mut(slot) {
                    *x = flip(*x, bit);
                }
            }
            Tamper::ForgeTag => r.c_t_res = r.c_t_res.map(|t| t + Fq::new(0xf_026e_d7a6)),
            Tamper::ZeroResult => r.c_res.fill(W::ZERO),
            Tamper::SwapFirstRow { .. } | Tamper::CorruptStoredRow { .. } => {}
        }
        Ok(r)
    }

    /// Row reads are plain memory fetches, so every attack applies to them
    /// too, except `ForgeTag`: a raw row carries no tag (a verified read
    /// travels as a weighted sum, where it fires).
    pub(crate) fn read_row<D: NdpDevice>(
        self,
        dev: &D,
        table_addr: u64,
        row: usize,
    ) -> Result<Vec<u8>, Error> {
        let mut bytes = dev.read_row(table_addr, self.row(row))?;
        match self {
            Tamper::FlipResultBit { element, bit } if !bytes.is_empty() => {
                let i = element % bytes.len();
                bytes[i] ^= 1 << (bit % 8);
            }
            Tamper::ZeroResult => bytes.fill(0),
            _ => {}
        }
        Ok(bytes)
    }

    /// A bare scalar, with no tag possible: what an unverifiable query
    /// surface is exposed to.
    pub(crate) fn weighted_sum_elements<D: NdpDevice, W: RingWord>(
        self,
        dev: &D,
        table_addr: u64,
        coords: &[(usize, usize)],
        weights: &[W],
    ) -> Result<W, Error> {
        let mut swapped = coords.to_vec();
        if let Some(c) = swapped.first_mut() {
            c.0 = self.row(c.0);
        }
        let r = dev.weighted_sum_elements(table_addr, &swapped, weights)?;
        Ok(match self {
            Tamper::FlipResultBit { bit, .. } => flip(r, bit),
            Tamper::ZeroResult => W::ZERO,
            _ => r,
        })
    }
}

/// An NDP device with a Trojan: behaves like [`HonestNdp`] but applies a
/// [`Tamper`] to every operation.
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
}

impl NdpDevice for TamperingNdp {
    fn load(
        &mut self,
        table_addr: u64,
        ciphertext: Vec<u8>,
        row_bytes: usize,
        tags: Option<Vec<Fq>>,
    ) -> Result<(), Error> {
        self.inner.load(table_addr, ciphertext, row_bytes, tags)?;
        // Memory is attacked after initialization: the stored row changes,
        // the tags the processor wrote do not.
        if let (Tamper::CorruptStoredRow { row }, Some(t)) =
            (self.tamper, self.inner.tables.get_mut(&table_addr))
        {
            if let Some(bytes) = t.data.chunks_exact_mut(t.row_bytes).nth(row) {
                bytes.iter_mut().for_each(|b| *b ^= 0xA5);
            }
        }
        Ok(())
    }

    fn weighted_sum<W: RingWord>(
        &self,
        table_addr: u64,
        indices: &[usize],
        weights: &[W],
        with_tag: bool,
    ) -> Result<NdpResponse<W>, Error> {
        self.tamper
            .weighted_sum(&self.inner, table_addr, indices, weights, with_tag)
    }

    fn read_row(&self, table_addr: u64, row: usize) -> Result<Vec<u8>, Error> {
        self.tamper.read_row(&self.inner, table_addr, row)
    }

    fn weighted_sum_elements<W: RingWord>(
        &self,
        table_addr: u64,
        coords: &[(usize, usize)],
        weights: &[W],
    ) -> Result<W, Error> {
        self.tamper
            .weighted_sum_elements(&self.inner, table_addr, coords, weights)
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
mod tests {
    use super::*;
    use proptest::prelude::*;
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
    fn errors_keep_their_precedence() {
        // Four rows of one u32; table 0 carries tags for rows 0 and 1 only,
        // table 1 none at all.
        let mut d = HonestNdp::new();
        d.load(0, vec![0u8; 16], 4, Some(vec![Fq::new(5), Fq::new(6)]))
            .unwrap();
        d.load(1, vec![0u8; 16], 4, None).unwrap();
        let sum = |addr, indices: &[usize], weights: &[u32], with_tag| {
            d.weighted_sum(addr, indices, weights, with_tag)
                .unwrap_err()
        };
        // 1. An unknown table, before the query's shape is looked at.
        assert_eq!(
            sum(7, &[9], &[], true),
            Error::UnknownTable { table_addr: 7 }
        );
        // 2. Lengths, before any index.
        assert_eq!(
            sum(0, &[9, 9], &[1], true),
            Error::QueryLengthMismatch {
                indices: 2,
                weights: 1
            }
        );
        // 3. The first bad row in query order, even after a row whose tag
        //    is missing.
        assert_eq!(
            sum(0, &[0, 3, 9, 5], &[1; 4], true),
            Error::RowOutOfBounds { index: 9, rows: 4 }
        );
        assert_eq!(
            sum(1, &[0, 6], &[1; 2], true),
            Error::RowOutOfBounds { index: 6, rows: 4 }
        );
        // 4. Tags asked of a table without them, once every row is valid.
        assert_eq!(sum(1, &[0, 3], &[1; 2], true), Error::TagsUnavailable);
        // 5. The first index in query order past a short tag vector.
        assert_eq!(
            sum(0, &[1, 3, 2], &[1; 3], true),
            Error::RowOutOfBounds { index: 3, rows: 2 }
        );
        // Without tags, the same rows sum.
        assert!(d.weighted_sum::<u32>(0, &[1, 3, 2], &[1; 3], false).is_ok());
    }

    /// `weighted_sum` over a `rows × cols` table of `W` filled from `seed`,
    /// checked against a sum taken one row at a time. The query always
    /// names row 0, the last row and one index twice.
    fn check_against_reference<W: RingWord>(
        rows: usize,
        cols: usize,
        seed: u64,
        picks: &[u64],
        with_tags: bool,
    ) {
        let mut state = seed;
        let mut next = || {
            state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let z = (state ^ (state >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z ^ (z >> 31)
        };
        let row_bytes = cols * W::BYTES;
        let data: Vec<u8> = (0..rows * row_bytes).map(|_| next() as u8).collect();
        let tags: Vec<Fq> = (0..rows)
            .map(|_| Fq::new(u128::from(next()) << 64 | u128::from(next())))
            .collect();
        let mut indices = vec![0, rows - 1];
        indices.extend(picks.iter().map(|&p| p as usize % rows));
        indices.push(indices[indices.len() / 2]);
        let weights: Vec<W> = indices.iter().map(|_| W::from_u64(next())).collect();

        let mut d = HonestNdp::new();
        d.load(3, data.clone(), row_bytes, with_tags.then(|| tags.clone()))
            .unwrap();
        let got = d.weighted_sum(3, &indices, &weights, with_tags).unwrap();

        let mut c_res = vec![W::ZERO; cols];
        let mut c_t_res = Fq::ZERO;
        for (&i, &a) in indices.iter().zip(&weights) {
            let row = &data[i * row_bytes..(i + 1) * row_bytes];
            for (j, acc) in c_res.iter_mut().enumerate() {
                let c = W::from_le_slice(&row[j * W::BYTES..(j + 1) * W::BYTES]);
                *acc = acc.wadd(a.wmul(c));
            }
            c_t_res += tags[i] * Fq::new(u128::from(a.as_u64()));
        }
        assert_eq!(got.c_res, c_res);
        assert_eq!(got.c_t_res, with_tags.then_some(c_t_res));
    }

    proptest! {
        /// The gather-then-sum device agrees with a row-at-a-time sum at
        /// every width, on rows shorter than a line and rows that end
        /// mid-line, so the touch pass never reads past a row.
        #[test]
        fn gathered_sum_matches_row_by_row_reference(
            rows in 1usize..40,
            row_bytes in 1usize..300,
            seed in any::<u64>(),
            picks in proptest::collection::vec(any::<u64>(), 0..100),
            with_tags in any::<bool>(),
        ) {
            let cols = |bytes: usize| (row_bytes / bytes).max(1);
            check_against_reference::<u8>(rows, cols(1), seed, &picks, with_tags);
            check_against_reference::<u16>(rows, cols(2), seed, &picks, with_tags);
            check_against_reference::<u32>(rows, cols(4), seed, &picks, with_tags);
            check_against_reference::<u64>(rows, cols(8), seed, &picks, with_tags);
        }
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
