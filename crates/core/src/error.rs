//! Error type for SecNDP operations.

use std::error::Error as StdError;
use std::fmt;

/// Errors returned by SecNDP encryption, protocol and verification
/// operations.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum Error {
    /// The verification tag did not match the checksum of the reconstructed
    /// result — the NDP returned a tampered or overflowed result (the
    /// paper's verification-failure interrupt, §V-E3).
    VerificationFailed {
        /// The table whose result failed verification.
        table_addr: u64,
    },
    /// The table requires verification but was published without tags.
    TagsUnavailable,
    /// The software version manager ran out of version numbers or live
    /// regions (the paper's enclave manages at most 64, §VI-A).
    VersionExhausted,
    /// The provided data length does not match `rows × cols`.
    ShapeMismatch {
        /// Length the caller supplied.
        got: usize,
        /// Length the layout requires.
        expected: usize,
    },
    /// Index and weight slices have different lengths.
    QueryLengthMismatch {
        /// Number of row indices.
        indices: usize,
        /// Number of weights.
        weights: usize,
    },
    /// A row index exceeds the table's row count.
    RowOutOfBounds {
        /// The offending index.
        index: usize,
        /// The number of rows in the table.
        rows: usize,
    },
    /// A column index exceeds the table's column count.
    ColOutOfBounds {
        /// The offending index.
        index: usize,
        /// The number of columns in the table.
        cols: usize,
    },
    /// The table's byte extent would overflow the 62-bit address space of
    /// the counter block.
    AddressOverflow,
    /// The NDP device does not know the requested table.
    UnknownTable {
        /// Address the device was asked about.
        table_addr: u64,
    },
    /// The NDP returned a response of the wrong shape (protocol violation).
    MalformedResponse {
        /// Human-readable description of the violation.
        reason: &'static str,
    },
    /// A variable-length wire field exceeds the `u32` length prefix — the
    /// frame cannot be encoded without silent truncation.
    FrameTooLarge {
        /// Number of items (bytes or records) the caller tried to encode.
        len: usize,
    },
    /// The device did not answer an outstanding request before its
    /// deadline (after any permitted retries).
    DeviceTimeout {
        /// The per-request deadline that expired, in milliseconds.
        deadline_ms: u64,
        /// How many times the request was sent in total.
        attempts: u32,
    },
    /// The transport connection to the device was lost and could not be
    /// re-established. An availability failure, not an integrity one: no
    /// unverified data was accepted.
    ConnectionLost {
        /// Total attempts made before giving up.
        attempts: u32,
    },
}

impl Error {
    /// Whether this error is an **integrity** signal: the device (or a
    /// corrupted pad) produced data that failed verification or violated
    /// the wire protocol. Integrity errors are always built through the
    /// audited constructors in `metrics`, so each one has a matching
    /// [`AuditEvent`](secndp_telemetry::audit::AuditEvent) in the same
    /// trace — the chaos harness's `InvariantChecker` relies on that
    /// coupling when classifying a fault as *detected*.
    pub fn is_integrity_violation(&self) -> bool {
        matches!(
            self,
            Error::VerificationFailed { .. }
                | Error::MalformedResponse { .. }
                | Error::ShapeMismatch { .. }
        )
    }
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Error::VerificationFailed { table_addr } => {
                write!(f, "verification failed for table at {table_addr:#x}")
            }
            Error::TagsUnavailable => f.write_str("table was encrypted without verification tags"),
            Error::VersionExhausted => f.write_str("version number space exhausted"),
            Error::ShapeMismatch { got, expected } => {
                write!(f, "data length {got} does not match layout size {expected}")
            }
            Error::QueryLengthMismatch { indices, weights } => {
                write!(f, "{indices} indices but {weights} weights")
            }
            Error::RowOutOfBounds { index, rows } => {
                write!(f, "row index {index} out of bounds for {rows} rows")
            }
            Error::ColOutOfBounds { index, cols } => {
                write!(f, "column index {index} out of bounds for {cols} columns")
            }
            Error::AddressOverflow => f.write_str("table extent overflows the address field"),
            Error::UnknownTable { table_addr } => {
                write!(f, "ndp device has no table at {table_addr:#x}")
            }
            Error::MalformedResponse { reason } => {
                write!(f, "malformed ndp response: {reason}")
            }
            Error::FrameTooLarge { len } => {
                write!(f, "wire field of {len} items exceeds the u32 length prefix")
            }
            Error::DeviceTimeout {
                deadline_ms,
                attempts,
            } => {
                write!(
                    f,
                    "device did not answer within {deadline_ms} ms ({attempts} attempts)"
                )
            }
            Error::ConnectionLost { attempts } => {
                write!(f, "device connection lost after {attempts} attempt(s)")
            }
        }
    }
}

impl StdError for Error {}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
mod tests {
    use super::*;

    #[test]
    fn display_is_informative() {
        let e = Error::VerificationFailed { table_addr: 0x1000 };
        assert!(e.to_string().contains("0x1000"));
        let e = Error::ShapeMismatch {
            got: 3,
            expected: 8,
        };
        assert!(e.to_string().contains('3') && e.to_string().contains('8'));
        let e = Error::ColOutOfBounds { index: 9, cols: 4 };
        assert!(e.to_string().contains("column") && e.to_string().contains('9'));
        let e = Error::ConnectionLost { attempts: 3 };
        assert!(e.to_string().contains("connection lost") && e.to_string().contains('3'));
        // Availability, not integrity: no audit event is required.
        assert!(!e.is_integrity_violation());
    }

    #[test]
    fn error_is_send_sync() {
        fn assert_send_sync<T: Send + Sync + std::error::Error>() {}
        assert_send_sync::<Error>();
    }
}
