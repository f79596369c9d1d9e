//! A memory-backed NDP device: a flat, byte-addressable untrusted memory
//! with explicit verification-tag placement.
//!
//! [`HonestNdp`](secndp_core::device::HonestNdp) stores tables as opaque
//! blobs — convenient, but it cannot express *where* tags live. This module
//! models the DIMM the paper describes: a sparse physical memory
//! ([`UntrustedMemory`]) into which ciphertext rows and encrypted tags are
//! laid out according to §V-D:
//!
//! - [`TagPlacement::Inline`] (Ver-coloc): each row is followed by its
//!   16-byte tag, widening the row stride;
//! - [`TagPlacement::Separate`] (Ver-sep): tags live in a region after the
//!   data;
//! - [`TagPlacement::SideBand`] (Ver-ECC): tags are held out-of-band (the
//!   ECC chip), not in the addressable data space.
//!
//! Because the bytes are real, attacks on *memory content* (cold-boot
//! writes, Rowhammer flips) can be mounted directly with
//! [`UntrustedMemory::corrupt`] — and are caught by verification.

use secndp_arith::mersenne::Fq;
use secndp_arith::ring::RingWord;
use secndp_core::checksum::combine_weighted;
use secndp_core::device::{NdpDevice, NdpResponse};
use secndp_core::error::Error;
use std::collections::HashMap;

/// Size of one backing page in the sparse memory.
const MEM_PAGE: u64 = 4096;

/// Bytes of one stored verification tag (`w_t` rounded up to 16 bytes).
pub const TAG_BYTES: usize = 16;

/// A sparse, byte-addressable untrusted memory.
#[derive(Debug, Clone, Default)]
pub struct UntrustedMemory {
    pages: HashMap<u64, Box<[u8; MEM_PAGE as usize]>>,
}

impl UntrustedMemory {
    /// An empty memory.
    pub fn new() -> Self {
        Self::default()
    }

    /// Writes `data` at byte address `addr`.
    pub fn write(&mut self, addr: u64, data: &[u8]) {
        for (i, &b) in data.iter().enumerate() {
            let a = addr + i as u64;
            let page = self
                .pages
                .entry(a / MEM_PAGE)
                .or_insert_with(|| Box::new([0u8; MEM_PAGE as usize]));
            page[(a % MEM_PAGE) as usize] = b;
        }
    }

    /// Reads `len` bytes at `addr` (unwritten bytes read as zero).
    pub fn read(&self, addr: u64, len: usize) -> Vec<u8> {
        (0..len as u64)
            .map(|i| {
                let a = addr + i;
                self.pages
                    .get(&(a / MEM_PAGE))
                    .map_or(0, |p| p[(a % MEM_PAGE) as usize])
            })
            .collect()
    }

    /// XORs `mask` into the byte at `addr` — a Rowhammer-style bit flip on
    /// stored content.
    pub fn corrupt(&mut self, addr: u64, mask: u8) {
        let page = self
            .pages
            .entry(addr / MEM_PAGE)
            .or_insert_with(|| Box::new([0u8; MEM_PAGE as usize]));
        page[(addr % MEM_PAGE) as usize] ^= mask;
    }

    /// Number of touched pages.
    pub fn resident_pages(&self) -> usize {
        self.pages.len()
    }
}

/// Where a table's verification tags are stored (paper §V-D).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TagPlacement {
    /// Ver-coloc: tag bytes directly after each row.
    Inline,
    /// Ver-sep: a tag region after the whole data region.
    Separate,
    /// Ver-ECC: tags ride the ECC pins, held out-of-band.
    SideBand,
}

#[derive(Debug, Clone)]
struct TableMeta {
    row_bytes: usize,
    rows: usize,
    /// Base of the separate tag region (Separate placement).
    tag_base: Option<u64>,
    /// Out-of-band tags (SideBand placement).
    side_tags: Option<Vec<Fq>>,
    has_tags: bool,
}

/// An NDP device whose storage is a real byte-addressable memory with
/// explicit tag placement.
#[derive(Debug, Clone)]
pub struct MemoryBackedNdp {
    mem: UntrustedMemory,
    placement: TagPlacement,
    tables: HashMap<u64, TableMeta>,
}

impl MemoryBackedNdp {
    /// A device using the given tag placement for every table it stores.
    pub fn new(placement: TagPlacement) -> Self {
        Self {
            mem: UntrustedMemory::new(),
            placement,
            tables: HashMap::new(),
        }
    }

    /// The configured placement.
    pub fn placement(&self) -> TagPlacement {
        self.placement
    }

    /// Direct access to the raw memory — the attacker's view.
    pub fn memory(&self) -> &UntrustedMemory {
        &self.mem
    }

    /// Mutable access to the raw memory, for mounting content attacks.
    pub fn memory_mut(&mut self) -> &mut UntrustedMemory {
        &mut self.mem
    }

    fn meta(&self, table_addr: u64) -> Result<&TableMeta, Error> {
        self.tables
            .get(&table_addr)
            .ok_or(Error::UnknownTable { table_addr })
    }

    fn row_stride(&self, m: &TableMeta) -> u64 {
        match self.placement {
            TagPlacement::Inline if m.has_tags => (m.row_bytes + TAG_BYTES) as u64,
            _ => m.row_bytes as u64,
        }
    }

    fn stored_tag(&self, table_addr: u64, m: &TableMeta, row: usize) -> Result<Fq, Error> {
        let bytes = match self.placement {
            TagPlacement::Inline => {
                let addr = table_addr + row as u64 * self.row_stride(m) + m.row_bytes as u64;
                self.mem.read(addr, TAG_BYTES)
            }
            TagPlacement::Separate => {
                let base = m.tag_base.ok_or(Error::TagsUnavailable)?;
                self.mem.read(base + (row * TAG_BYTES) as u64, TAG_BYTES)
            }
            TagPlacement::SideBand => {
                let tags = m.side_tags.as_ref().ok_or(Error::TagsUnavailable)?;
                return tags.get(row).copied().ok_or(Error::RowOutOfBounds {
                    index: row,
                    rows: tags.len(),
                });
            }
        };
        Ok(Fq::new(u128::from_le_bytes(bytes.try_into().unwrap())))
    }
}

impl NdpDevice for MemoryBackedNdp {
    fn load(
        &mut self,
        table_addr: u64,
        ciphertext: Vec<u8>,
        row_bytes: usize,
        tags: Option<Vec<Fq>>,
    ) -> Result<(), Error> {
        if row_bytes == 0 || !ciphertext.len().is_multiple_of(row_bytes) {
            return Err(Error::ShapeMismatch {
                got: ciphertext.len(),
                expected: row_bytes,
            });
        }
        let rows = ciphertext.len() / row_bytes;
        let has_tags = tags.is_some();
        let stride = if has_tags && self.placement == TagPlacement::Inline {
            row_bytes + TAG_BYTES
        } else {
            row_bytes
        };
        for (i, row) in ciphertext.chunks_exact(row_bytes).enumerate() {
            self.mem.write(table_addr + (i * stride) as u64, row);
        }
        let mut tag_base = None;
        let mut side_tags = None;
        if let Some(tags) = tags {
            match self.placement {
                TagPlacement::Inline => {
                    for (i, t) in tags.iter().enumerate() {
                        let addr = table_addr + (i * stride + row_bytes) as u64;
                        self.mem.write(addr, &t.value().to_le_bytes());
                    }
                }
                TagPlacement::Separate => {
                    let base = table_addr + (rows * stride) as u64;
                    let base = base.div_ceil(MEM_PAGE) * MEM_PAGE; // page-align
                    for (i, t) in tags.iter().enumerate() {
                        self.mem
                            .write(base + (i * TAG_BYTES) as u64, &t.value().to_le_bytes());
                    }
                    tag_base = Some(base);
                }
                TagPlacement::SideBand => side_tags = Some(tags),
            }
        }
        self.tables.insert(
            table_addr,
            TableMeta {
                row_bytes,
                rows,
                tag_base,
                side_tags,
                has_tags,
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
        let m = self.meta(table_addr)?;
        if indices.len() != weights.len() {
            return Err(Error::QueryLengthMismatch {
                indices: indices.len(),
                weights: weights.len(),
            });
        }
        if with_tag && !m.has_tags {
            return Err(Error::TagsUnavailable);
        }
        let stride = self.row_stride(m);
        let cols = m.row_bytes / W::BYTES;
        let mut c_res = vec![W::ZERO; cols];
        let mut tags = Vec::with_capacity(if with_tag { indices.len() } else { 0 });
        for (&i, &a) in indices.iter().zip(weights) {
            if i >= m.rows {
                return Err(Error::RowOutOfBounds {
                    index: i,
                    rows: m.rows,
                });
            }
            let row = self.mem.read(table_addr + i as u64 * stride, m.row_bytes);
            for (acc, c) in c_res.iter_mut().zip(row.chunks_exact(W::BYTES)) {
                *acc = acc.wadd(a.wmul(W::from_le_slice(c)));
            }
            if with_tag {
                tags.push(self.stored_tag(table_addr, m, i)?);
            }
        }
        Ok(NdpResponse {
            c_res,
            c_t_res: with_tag.then(|| combine_weighted(weights, &tags)),
        })
    }

    fn read_row(&self, table_addr: u64, row: usize) -> Result<Vec<u8>, Error> {
        let m = self.meta(table_addr)?;
        if row >= m.rows {
            return Err(Error::RowOutOfBounds {
                index: row,
                rows: m.rows,
            });
        }
        Ok(self
            .mem
            .read(table_addr + row as u64 * self.row_stride(m), m.row_bytes))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use secndp_core::keys::SecretKey;
    use secndp_core::protocol::TrustedProcessor;

    #[test]
    fn memory_read_write_round_trip() {
        let mut mem = UntrustedMemory::new();
        // Cross a page boundary.
        let data: Vec<u8> = (0..100).collect();
        mem.write(MEM_PAGE - 50, &data);
        assert_eq!(mem.read(MEM_PAGE - 50, 100), data);
        assert_eq!(mem.read(1 << 30, 4), vec![0; 4]); // untouched reads zero
        assert_eq!(mem.resident_pages(), 2);
    }

    #[test]
    fn corrupt_flips_one_bit() {
        let mut mem = UntrustedMemory::new();
        mem.write(10, &[0b1010_1010]);
        mem.corrupt(10, 0b0000_0010);
        assert_eq!(mem.read(10, 1), vec![0b1010_1000]);
    }

    fn run_protocol(placement: TagPlacement) {
        let mut cpu = TrustedProcessor::new(SecretKey::from_bytes([0x21; 16]));
        let mut dev = MemoryBackedNdp::new(placement);
        let pt: Vec<u32> = (0..40).map(|x| x * 3 + 1).collect();
        let table = cpu.encrypt_table(&pt, 5, 8, 0x10_000).unwrap();
        let handle = cpu.publish(&table, &mut dev).unwrap();
        let res = cpu
            .weighted_sum(&handle, &dev, &[0, 4, 2], &[1u32, 2, 5], true)
            .unwrap();
        for j in 0..8 {
            assert_eq!(
                res[j],
                pt[j] + 2 * pt[32 + j] + 5 * pt[16 + j],
                "{placement:?}"
            );
        }
        // Plain row read matches HonestNdp semantics.
        let row3 = cpu.read_row::<u32, _>(&handle, &dev, 3).unwrap();
        assert_eq!(row3, &pt[24..32]);
    }

    #[test]
    fn protocol_works_under_all_placements() {
        run_protocol(TagPlacement::Inline);
        run_protocol(TagPlacement::Separate);
        run_protocol(TagPlacement::SideBand);
    }

    #[test]
    fn rowhammer_on_data_detected_under_every_placement() {
        for placement in [
            TagPlacement::Inline,
            TagPlacement::Separate,
            TagPlacement::SideBand,
        ] {
            let mut cpu = TrustedProcessor::new(SecretKey::from_bytes([0x22; 16]));
            let mut dev = MemoryBackedNdp::new(placement);
            let pt: Vec<u32> = (0..32).collect();
            let table = cpu.encrypt_table(&pt, 4, 8, 0x20_000).unwrap();
            let handle = cpu.publish(&table, &mut dev).unwrap();
            // Flip one bit in row 1's stored ciphertext.
            let stride = match placement {
                TagPlacement::Inline => 32 + TAG_BYTES as u64,
                _ => 32,
            };
            dev.memory_mut().corrupt(0x20_000 + stride + 5, 0x40);
            let err = cpu
                .weighted_sum(&handle, &dev, &[0, 1], &[1u32, 1], true)
                .unwrap_err();
            assert!(
                matches!(err, Error::VerificationFailed { .. }),
                "{placement:?} missed a data flip"
            );
        }
    }

    #[test]
    fn rowhammer_on_stored_tag_detected() {
        // Corrupting the in-memory tag (Inline/Separate placements store
        // tags as real bytes) must also fail verification.
        for placement in [TagPlacement::Inline, TagPlacement::Separate] {
            let mut cpu = TrustedProcessor::new(SecretKey::from_bytes([0x23; 16]));
            let mut dev = MemoryBackedNdp::new(placement);
            let pt: Vec<u32> = (0..32).collect();
            let table = cpu.encrypt_table(&pt, 4, 8, 0x30_000).unwrap();
            let handle = cpu.publish(&table, &mut dev).unwrap();
            let tag_addr = match placement {
                TagPlacement::Inline => 0x30_000 + 32, // after row 0
                TagPlacement::Separate => {
                    // Tag region page-aligned after data (4 rows × 32 B).
                    (0x30_000u64 + 4 * 32).div_ceil(MEM_PAGE) * MEM_PAGE
                }
                TagPlacement::SideBand => unreachable!(),
            };
            dev.memory_mut().corrupt(tag_addr, 0x01);
            let err = cpu
                .weighted_sum(&handle, &dev, &[0], &[1u32], true)
                .unwrap_err();
            assert!(
                matches!(err, Error::VerificationFailed { .. }),
                "{placement:?} missed a tag flip"
            );
        }
    }

    #[test]
    fn matches_honest_ndp_results() {
        use secndp_core::device::HonestNdp;
        let mut cpu = TrustedProcessor::new(SecretKey::from_bytes([0x24; 16]));
        let pt: Vec<u16> = (0..60).map(|x| x * 7).collect();
        let table = cpu.encrypt_table(&pt, 10, 6, 0x40_000).unwrap();
        let mut honest = HonestNdp::new();
        let mut membk = MemoryBackedNdp::new(TagPlacement::Separate);
        let h1 = cpu.publish(&table, &mut honest).unwrap();
        let h2 = cpu.publish(&table, &mut membk).unwrap();
        let idx = [9usize, 0, 5];
        let w = [3u16, 1, 2];
        assert_eq!(
            cpu.weighted_sum(&h1, &honest, &idx, &w, true).unwrap(),
            cpu.weighted_sum(&h2, &membk, &idx, &w, true).unwrap()
        );
    }

    #[test]
    fn untagged_tables_reject_tag_queries() {
        let mut cpu = TrustedProcessor::new(SecretKey::from_bytes([0x25; 16]));
        let mut dev = MemoryBackedNdp::new(TagPlacement::Inline);
        let pt: Vec<u32> = vec![1, 2, 3, 4];
        let table = cpu.encrypt_table_untagged(&pt, 2, 2, 0).unwrap();
        let handle = cpu.publish(&table, &mut dev).unwrap();
        assert_eq!(
            cpu.weighted_sum(&handle, &dev, &[0], &[1u32], true)
                .unwrap_err(),
            Error::TagsUnavailable
        );
        // Untagged tables use the compact stride.
        assert_eq!(
            cpu.weighted_sum(&handle, &dev, &[1], &[1u32], false)
                .unwrap(),
            vec![3, 4]
        );
    }
}
