//! SecNDP: arithmetic encryption, verification tags, and the secure
//! weighted-summation offload protocol (HPCA 2022).
//!
//! The scheme lets a trusted processor (a TEE) use an **untrusted**
//! near-data-processing unit to compute linear operations over data that
//! never leaves the chip in plaintext:
//!
//! 1. **Arithmetic encryption** ([`encrypt`], Algorithm 1): each `wₑ`-bit
//!    element `p` is stored in memory as `c = p − e (mod 2^wₑ)` where the
//!    one-time pad `e` is carved out of `AES_K(00 ‖ addr ‖ v)`. `c` and `e`
//!    are two-party arithmetic shares of `p`, but the processor's share is
//!    *regenerable on-chip* — no extra memory traffic, unlike classic MPC.
//! 2. **Computation over ciphertext** ([`protocol`], Algorithm 4): the NDP
//!    computes `Σ aₖ·c_{iₖ}` over its share while the processor's OTP PU
//!    computes `Σ aₖ·e_{iₖ}`; one final wrapping addition reconstructs the
//!    plaintext result.
//! 3. **Verification** ([`checksum`], [`mac`], Algorithms 2/3/5): each row
//!    carries an encrypted linear-modular-hash tag over `q = 2¹²⁷ − 1`.
//!    Linearity lets the NDP combine tags with the same weights, and the
//!    processor checks the reconstructed tag against a checksum of the
//!    reconstructed result — catching tampering *and* ring overflow
//!    (Theorem A.2).
//!
//! # Examples
//!
//! ```
//! use secndp_core::protocol::TrustedProcessor;
//! use secndp_core::device::{HonestNdp, NdpDevice};
//! use secndp_core::SecretKey;
//!
//! # fn main() -> Result<(), secndp_core::Error> {
//! let mut cpu = TrustedProcessor::new(SecretKey::from_bytes([7u8; 16]));
//! let mut ndp = HonestNdp::new();
//!
//! // A 2×4 matrix of 32-bit elements, stored encrypted at address 0x1000.
//! let table = cpu.encrypt_table::<u32>(&[1, 2, 3, 4, 10, 20, 30, 40], 2, 4, 0x1000)?;
//! let handle = cpu.publish(&table, &mut ndp)?;
//!
//! // res = 3·row0 + 2·row1, computed by the untrusted NDP over ciphertext.
//! let res = cpu.weighted_sum(&handle, &ndp, &[0, 1], &[3u32, 2], true)?;
//! assert_eq!(res, vec![23, 46, 69, 92]);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod baseline;
pub mod checksum;
pub mod device;
pub mod device_mem;
pub mod encrypt;
pub mod endpoint;
pub mod error;
pub mod fault;
pub mod health;
pub mod integrity_tree;
pub mod keys;
pub mod layout;
pub mod mac;
pub(crate) mod metrics;
pub mod net;
pub mod oracle;
pub mod protocol;
pub mod security;
pub mod transport;
pub mod version;
pub mod wire;

pub use checksum::ChecksumScheme;
pub use device::{HonestNdp, NdpDevice};
pub use device_mem::{MemoryBackedNdp, TagPlacement, UntrustedMemory};
pub use encrypt::EncryptedTable;
pub use endpoint::{Endpoint, EndpointConfig, Link};
pub use error::Error;
pub use fault::{FaultInjector, FaultKind, FaultPlan, FaultyNdp, InvariantChecker};
pub use keys::SecretKey;
pub use layout::TableLayout;
pub use net::{NetConfig, NetServer, TcpEndpoint};
pub use protocol::{TableHandle, TrustedProcessor};
pub use transport::{AsyncEndpoint, TransportConfig};
pub use version::VersionManager;
