//! Block-cipher substrate for SecNDP.
//!
//! SecNDP's arithmetic encryption (paper §IV) derives every one-time pad from
//! a block cipher invoked as `E(K, D ‖ addr ‖ version ‖ 0…)`, where `D` is a
//! two-bit domain tag separating data pads (`00`), the checksum secret `s`
//! (`01`) and tag pads (`10`). This crate provides:
//!
//! - [`aes`] — a from-scratch AES-128/AES-256 implementation validated
//!   against the FIPS-197 vectors,
//! - [`aes_fast`] — the same AES-128 on the host's AES-NI unit when one is
//!   detected, on T-tables otherwise,
//! - [`otp`] — the counter-block layout and one-time-pad generator shared by
//!   Algorithms 1–3 of the paper, whose [`OtpGenerator::stream_pads`] is the
//!   processor's one pad loop,
//! - [`engine`] — a timing model of a pipelined hardware AES engine
//!   (111.3 Gbps, 1.15 ns per 128-bit block, following the 45 nm design the
//!   paper cites \[22\]) used by the performance simulator.
//!
//! # Examples
//!
//! ```
//! use secndp_cipher::aes::Aes128;
//! use secndp_cipher::otp::{CounterBlock, Domain};
//! use secndp_cipher::BlockCipher;
//!
//! let key = Aes128::new(&[0u8; 16]);
//! let ctr = CounterBlock::new(Domain::Data, 0x1000, 7);
//! let pad = key.encrypt_block(&ctr.to_bytes());
//! assert_eq!(pad.len(), 16);
//! ```

// `deny`, not `forbid`: `aes_fast` carries the workspace's one scoped
// `#[allow]`, on the call into its AES-NI rounds.
#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod aes;
pub mod aes_fast;
pub mod cache;
pub mod engine;
pub mod otp;

pub use aes::{Aes128, Aes256, BlockCipher, BLOCK_BYTES};
pub use aes_fast::Aes128Fast;
pub use cache::{PadCache, PadCacheStats};
pub use engine::{AesEngineModel, EngineConfig};
pub use otp::{
    first_127_bits, CounterBlock, CounterRun, Domain, OtpGenerator, PadPlanner, PadRange,
};
