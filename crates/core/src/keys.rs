//! Processor secret key management.
//!
//! The secret key `K` never leaves the trusted processor (threat model,
//! paper §II). It seeds the block cipher from which all one-time pads, tag
//! pads and checksum secrets are derived.

use secndp_cipher::aes::Aes128;
use secndp_cipher::aes_fast::Aes128Fast;
use secndp_cipher::otp::OtpGenerator;
use std::fmt;

/// The processor's 128-bit secret key (`w_K = 128`).
///
/// `Debug` never prints key material.
#[derive(Clone, PartialEq, Eq)]
pub struct SecretKey {
    bytes: [u8; 16],
}

impl SecretKey {
    /// Builds a key from raw bytes (e.g. fused at manufacturing or derived
    /// from a PUF in a real TEE).
    pub fn from_bytes(bytes: [u8; 16]) -> Self {
        Self { bytes }
    }

    /// Derives a fresh key from an entropy source.
    ///
    /// This is a simple KDF over the seed (AES in Davies–Meyer-style
    /// chaining), adequate for simulation; a production TEE would use a
    /// hardware TRNG.
    pub fn derive_from_seed(seed: u64) -> Self {
        use secndp_cipher::BlockCipher;
        const KDF_CONSTANT: [u8; 16] = [
            0x5e, 0xc9, 0xd9, 0x00, 0x5e, 0xc9, 0xd9, 0x01, 0x5e, 0xc9, 0xd9, 0x02, 0x5e, 0xc9,
            0xd9, 0x03,
        ];
        let base = Aes128::new(&KDF_CONSTANT);
        let mut blk = [0u8; 16];
        blk[..8].copy_from_slice(&seed.to_le_bytes());
        let out = base.encrypt_block(&blk);
        let mut bytes = out;
        for (b, s) in bytes.iter_mut().zip(blk) {
            *b ^= s;
        }
        Self { bytes }
    }

    /// Instantiates the keyed pad generator (the encryption engine of the
    /// SecNDP engine, §V-C1) over [`Aes128Fast`] — the AES permutation on
    /// the host's AES-NI unit when it has one, on T-tables otherwise (see
    /// `secndp_cipher::aes_fast` for the constant-time status of each).
    pub fn otp_generator_fast(&self) -> OtpGenerator<Aes128Fast> {
        OtpGenerator::new(Aes128Fast::new(&self.bytes))
    }
}

impl fmt::Debug for SecretKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("SecretKey(<redacted>)")
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
mod tests {
    use super::*;

    #[test]
    fn debug_redacts() {
        let k = SecretKey::from_bytes([9; 16]);
        assert!(!format!("{k:?}").contains('9'));
    }

    #[test]
    fn derive_is_deterministic_and_seed_sensitive() {
        assert_eq!(
            SecretKey::derive_from_seed(1),
            SecretKey::derive_from_seed(1)
        );
        assert_ne!(
            SecretKey::derive_from_seed(1),
            SecretKey::derive_from_seed(2)
        );
    }

    #[test]
    fn generators_from_same_key_agree() {
        let k = SecretKey::from_bytes([3; 16]);
        let a = k.otp_generator_fast();
        let b = k.otp_generator_fast();
        assert_eq!(a.data_pad_block(64, 2), b.data_pad_block(64, 2));
    }
}
