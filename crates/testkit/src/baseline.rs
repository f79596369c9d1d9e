//! Conventional TEE memory protection — the Figure 2(a)/(b) baseline.
//!
//! A classical secure processor protects each cache line independently:
//! counter-mode **XOR** encryption (Fig 2a) plus a per-line **MAC** bound
//! to the address and version (Fig 2b). This is what SGX-style TEEs do on
//! every off-chip access — and precisely what *prevents* NDP, because the
//! memory side can compute nothing useful over XOR ciphertext.
//!
//! [`ProtectedMemory`] implements that baseline faithfully (per-line
//! versions, XOR pads from the same counter-block construction, CWC-style
//! MACs from the linear modular hash \[42\]). Tests use it to demonstrate:
//!
//! 1. the conventional scheme detects tampering and replay per line;
//! 2. XOR ciphertext is *not* additively homomorphic — summing two
//!    encrypted lines does not decrypt to the sum — whereas SecNDP's
//!    arithmetic shares are. This is the paper's core observation in
//!    executable form.

use crate::mac::{decrypt_tag, encrypt_tag};
use secndp_arith::mersenne::Fq;
use secndp_arith::ring::words_from_le_bytes;
use secndp_cipher::aes::Aes128;
use secndp_cipher::otp::OtpGenerator;
use secndp_core::checksum::row_checksum;
use secndp_core::error::Error;
use std::collections::HashMap;

/// Bytes per protected line.
pub const LINE: usize = 64;

#[derive(Debug, Clone)]
struct StoredLine {
    ciphertext: [u8; LINE],
    /// Encrypted MAC (`C_T` form, like Alg 3).
    tag: Fq,
    version: u64,
}

/// Counter-mode-XOR protected memory with per-line authenticated
/// encryption — the conventional TEE baseline of Figure 2.
pub struct ProtectedMemory {
    otp: OtpGenerator<Aes128>,
    /// Untrusted storage: ciphertext + tags (an attacker may rewrite).
    lines: HashMap<u64, StoredLine>,
    /// Trusted on-chip (or tree-protected) version counters.
    versions: HashMap<u64, u64>,
}

impl std::fmt::Debug for ProtectedMemory {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ProtectedMemory")
            .field("lines", &self.lines.len())
            .finish_non_exhaustive()
    }
}

impl ProtectedMemory {
    /// A protected memory keyed by `key`.
    pub fn new(key: [u8; 16]) -> Self {
        Self {
            otp: OtpGenerator::new(Aes128::new(&key)),
            lines: HashMap::new(),
            versions: HashMap::new(),
        }
    }

    /// Writes one 64-byte line at `addr` (must be line-aligned): bumps the
    /// version, XORs with a fresh pad, and stores an encrypted MAC.
    ///
    /// # Panics
    ///
    /// Panics if `addr` is not 64-byte aligned.
    pub fn write_line(&mut self, addr: u64, plaintext: &[u8; LINE]) {
        assert_eq!(addr % LINE as u64, 0, "line-aligned addresses only");
        let version = self.versions.entry(addr).or_insert(0);
        *version += 1;
        let version = *version;
        let pad = self.otp.data_pad_bytes(addr, LINE, version);
        let mut ciphertext = [0u8; LINE];
        for (c, (p, e)) in ciphertext.iter_mut().zip(plaintext.iter().zip(&pad)) {
            *c = p ^ e; // Fig 2(a): XOR counter mode.
        }
        // Fig 2(b): MAC over the *plaintext*, bound to (addr, version) via
        // the encrypted-tag pads; stored alongside the line.
        let checksum = line_checksum(&self.otp, addr, version, plaintext);
        let tag = encrypt_tag(&self.otp, checksum, addr, version);
        self.lines.insert(
            addr,
            StoredLine {
                ciphertext,
                tag,
                version,
            },
        );
    }

    /// Reads and verifies one line.
    ///
    /// # Errors
    ///
    /// [`Error::VerificationFailed`] on tampering or replay;
    /// [`Error::UnknownTable`] for a never-written address.
    pub fn read_line(&self, addr: u64) -> Result<[u8; LINE], Error> {
        let stored = self
            .lines
            .get(&addr)
            .ok_or(Error::UnknownTable { table_addr: addr })?;
        let version = *self.versions.get(&addr).unwrap_or(&0);
        // Replay detection: the trusted version must match the one the
        // line was written under (Fig 2(b): v is an input to the MAC).
        if stored.version != version {
            return Err(Error::VerificationFailed { table_addr: addr });
        }
        let pad = self.otp.data_pad_bytes(addr, LINE, version);
        let mut plaintext = [0u8; LINE];
        for (p, (c, e)) in plaintext.iter_mut().zip(stored.ciphertext.iter().zip(&pad)) {
            *p = c ^ e;
        }
        let expect = line_checksum(&self.otp, addr, version, &plaintext);
        let retrieved = decrypt_tag(&self.otp, stored.tag, addr, version);
        if expect != retrieved {
            return Err(Error::VerificationFailed { table_addr: addr });
        }
        Ok(plaintext)
    }

    /// The attacker's handle: overwrite the stored ciphertext of a line.
    pub fn tamper_ciphertext(&mut self, addr: u64, byte: usize, mask: u8) {
        if let Some(l) = self.lines.get_mut(&addr) {
            l.ciphertext[byte % LINE] ^= mask;
        }
    }

    /// The attacker's handle: replay a previously captured stored line.
    pub fn replay(&mut self, addr: u64, old: StoredLineSnapshot) {
        self.lines.insert(
            addr,
            StoredLine {
                ciphertext: old.ciphertext,
                tag: old.tag,
                version: old.version,
            },
        );
    }

    /// Captures the stored (untrusted) state of a line for a later replay.
    pub fn snapshot(&self, addr: u64) -> Option<StoredLineSnapshot> {
        self.lines.get(&addr).map(|l| StoredLineSnapshot {
            ciphertext: l.ciphertext,
            tag: l.tag,
            version: l.version,
        })
    }

    /// The raw stored ciphertext (what a bus probe sees).
    pub fn raw_ciphertext(&self, addr: u64) -> Option<[u8; LINE]> {
        self.lines.get(&addr).map(|l| l.ciphertext)
    }
}

/// A captured untrusted line state (ciphertext + tag + the version it was
/// produced under), as an attacker would record it from the bus.
#[derive(Debug, Clone, Copy)]
pub struct StoredLineSnapshot {
    ciphertext: [u8; LINE],
    tag: Fq,
    version: u64,
}

/// CWC-style line MAC: the linear modular hash of the line's 64-bit words
/// under the per-address secret.
fn line_checksum(otp: &OtpGenerator<Aes128>, addr: u64, version: u64, data: &[u8; LINE]) -> Fq {
    let words = words_from_le_bytes::<u64>(data);
    let s = Fq::new(otp.checksum_secret(addr, version));
    row_checksum(&words, &[s])
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mem() -> ProtectedMemory {
        ProtectedMemory::new([0x66; 16])
    }

    fn line(seed: u8) -> [u8; LINE] {
        core::array::from_fn(|i| seed.wrapping_add(i as u8).wrapping_mul(7))
    }

    #[test]
    fn write_read_round_trip() {
        let mut m = mem();
        m.write_line(0, &line(1));
        m.write_line(64, &line(2));
        assert_eq!(m.read_line(0).unwrap(), line(1));
        assert_eq!(m.read_line(64).unwrap(), line(2));
    }

    #[test]
    fn overwrite_bumps_version_and_still_reads() {
        let mut m = mem();
        m.write_line(128, &line(1));
        m.write_line(128, &line(9));
        assert_eq!(m.read_line(128).unwrap(), line(9));
    }

    #[test]
    fn tampering_detected() {
        let mut m = mem();
        m.write_line(0, &line(3));
        m.tamper_ciphertext(0, 17, 0x04);
        assert!(matches!(
            m.read_line(0),
            Err(Error::VerificationFailed { .. })
        ));
    }

    #[test]
    fn replay_detected() {
        let mut m = mem();
        m.write_line(0, &line(1));
        let old = m.snapshot(0).unwrap();
        m.write_line(0, &line(2));
        // Attacker restores the old (ciphertext, tag, version) triple.
        m.replay(0, old);
        assert!(matches!(
            m.read_line(0),
            Err(Error::VerificationFailed { .. })
        ));
    }

    #[test]
    fn unknown_address_rejected() {
        assert!(matches!(
            mem().read_line(4096),
            Err(Error::UnknownTable { .. })
        ));
    }

    #[test]
    fn ciphertext_looks_uniform() {
        let mut m = mem();
        m.write_line(0, &[0u8; LINE]);
        let ct = m.raw_ciphertext(0).unwrap();
        assert_ne!(ct, [0u8; LINE]);
        let distinct: std::collections::HashSet<u8> = ct.iter().copied().collect();
        assert!(distinct.len() > 16, "XOR pad not dense");
    }

    #[test]
    #[should_panic(expected = "aligned")]
    fn misaligned_write_panics() {
        mem().write_line(10, &line(0));
    }

    /// The paper's core observation, executable: XOR ciphertext is NOT
    /// additively homomorphic, SecNDP's subtraction ciphertext IS.
    #[test]
    fn xor_ciphertext_is_not_additively_homomorphic() {
        use secndp_core::keys::SecretKey;
        use secndp_core::layout::TableLayout;
        let mut m = mem();
        let a: [u8; LINE] = core::array::from_fn(|i| (i as u8) * 2 + 1);
        let b: [u8; LINE] = core::array::from_fn(|i| 100u8.wrapping_sub(i as u8));
        m.write_line(0, &a);
        m.write_line(64, &b);
        let ca = m.raw_ciphertext(0).unwrap();
        let cb = m.raw_ciphertext(64).unwrap();
        // "NDP" tries to add the XOR ciphertexts element-wise (u8 ring).
        let c_sum: Vec<u8> = ca
            .iter()
            .zip(&cb)
            .map(|(&x, &y)| x.wrapping_add(y))
            .collect();
        // No pad combination the processor can compute turns c_sum into
        // a+b under XOR ciphertext; in particular the "obvious" pad sum
        // fails. (Pads are internal, so we check the end-to-end effect:
        // decrypt-then-add differs from add-then-any-linear-fixup. Here we
        // simply confirm c_sum XOR (pad_a XOR pad_b) ≠ a+b by reading the
        // plaintexts back and comparing against the wrapped sum.)
        let plain_sum: Vec<u8> = a.iter().zip(&b).map(|(&x, &y)| x.wrapping_add(y)).collect();
        let pa = m.read_line(0).unwrap();
        let pb = m.read_line(64).unwrap();
        let xor_fixup: Vec<u8> = c_sum
            .iter()
            .zip(ca.iter().zip(&pa).map(|(c, p)| c ^ p)) // pad_a
            .zip(cb.iter().zip(&pb).map(|(c, p)| c ^ p)) // pad_b
            .map(|((s, ea), eb)| s ^ ea ^ eb)
            .collect();
        assert_ne!(xor_fixup, plain_sum, "XOR mode accidentally homomorphic?!");

        // SecNDP's arithmetic encryption: the same exercise succeeds.
        let mut cpu =
            secndp_core::protocol::TrustedProcessor::new(SecretKey::from_bytes([0x66; 16]));
        let pt: Vec<u8> = a.iter().chain(&b).copied().collect();
        let table = cpu.encrypt_table(&pt, 2, LINE, 0x1000).unwrap();
        let ct = table.ciphertext();
        let c_sum_arith: Vec<u8> = ct[..LINE]
            .iter()
            .zip(&ct[LINE..])
            .map(|(&x, &y)| x.wrapping_add(y))
            .collect();
        // Processor-side pad sum (e_a + e_b) reconstructs a+b exactly.
        let layout = TableLayout::new::<u8>(0x1000, 2, LINE).unwrap();
        let _ = layout;
        let mut ndp = secndp_core::device::HonestNdp::new();
        let handle = cpu.publish(&table, &mut ndp).unwrap();
        let res = cpu
            .weighted_sum(&handle, &ndp, &[0, 1], &[1u8, 1], false)
            .unwrap();
        assert_eq!(res, plain_sum);
        // And indeed the device-side share was exactly c_sum_arith.
        use secndp_core::device::NdpDevice;
        let dev_share = ndp
            .weighted_sum::<u8>(0x1000, &[0, 1], &[1, 1], false)
            .unwrap();
        assert_eq!(dev_share.c_res, c_sum_arith);
    }
}
