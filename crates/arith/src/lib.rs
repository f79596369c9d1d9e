//! Arithmetic substrates for SecNDP.
//!
//! Everything SecNDP computes lives in one of two algebraic structures:
//!
//! - the **integer ring** ℤ(2^wₑ) in which data elements, ciphertexts and
//!   one-time pads are added and multiplied (paper §III-C, §IV) — module
//!   [`ring`];
//! - the **Mersenne prime field** 𝔽_q with `q = 2¹²⁷ − 1` in which linear
//!   checksums and verification tags are computed (paper §IV-F, §V-D) —
//!   module [`mersenne`].
//!
//! Because arithmetic sharing only works over integers, floating-point
//! workload data must be quantized first (paper §III-C, §VI-A). Module
//! [`fixed`] provides fixed-point conversion and [`quant`] the row-wise,
//! column-wise and table-wise 8-bit quantization schemes the paper evaluates
//! in Figure 6 and Table IV.
//!
//! # Examples
//!
//! ```
//! use secndp_arith::mersenne::Fq;
//!
//! let a = Fq::new(12345);
//! let b = a.inv().expect("nonzero");
//! assert_eq!(a * b, Fq::ONE);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod fixed;
pub mod mersenne;
pub mod quant;
pub mod ring;
/// The checksum over a small prime field, where Theorem 2's forgery bound
/// is observable: test-only, so it is not in the crate a TEE links.
#[cfg(test)]
mod smallfield;

pub use fixed::Fixed32;
pub use mersenne::Fq;
pub use ring::RingWord;
