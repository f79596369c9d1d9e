//! Wire format for the processor ↔ NDP command protocol.
//!
//! Figure 4's long arrows are real bus messages: the processor ships
//! ciphertext and issues weighted-summation commands; the NDP returns its
//! share of the result. This module pins down a byte-exact framing for
//! those messages — the form they would take on a DIMM mailbox or a
//! CXL/PCIe queue — so the protocol is demonstrably *wire-complete*: no
//! hidden Rust-object channel is smuggling state between the parties.
//!
//! Framing: one tag byte, then fields in little-endian; variable-length
//! vectors are `u32` length-prefixed. [`RemoteNdp`] wraps any device and
//! forces every interaction through encode → decode → execute → encode →
//! decode, byte-for-byte.
//!
//! # Traced frames (v2 envelope)
//!
//! A frame may optionally be wrapped in a trace envelope so the device can
//! stitch its spans into the processor-side trace:
//!
//! ```text
//! 0x7E | trace_id: u64 LE | parent_span: u64 LE | v1 frame bytes
//! ```
//!
//! [`Request::decode`] / [`Response::decode`] accept both forms (the
//! envelope is stripped transparently), so old frames still decode and old
//! decoders reject enveloped frames cleanly with `BadTag(0x7E)` rather
//! than misparsing them. [`Request::encode`] emits the legacy form;
//! [`Request::encode_traced`] adds the envelope only when the supplied
//! context is non-empty, so untraced builds produce byte-identical frames.

use crate::device::{validate_load, NdpDevice, NdpResponse};
use crate::endpoint::EndpointConfig;
use crate::error::Error;
use crate::net::TcpEndpoint;
use crate::transport::AsyncEndpoint;
use secndp_arith::mersenne::Fq;
use secndp_arith::ring::{words_from_le_bytes, words_to_le_bytes, RingWord};
use secndp_telemetry::trace::{self, SpanContext, SpanId, TraceId};
use std::marker::PhantomData;
use std::sync::Mutex;

/// Envelope tag for traced (v2) frames. Disjoint from every v1 frame tag
/// (requests `0x01–0x03`, responses `0x81–0x83` / `0xFF`).
pub const FRAME_TRACED: u8 = 0x7E;

/// Byte length of the trace envelope (tag + trace id + parent span id).
const ENVELOPE_LEN: usize = 1 + 8 + 8;

/// Splits off a leading trace envelope, if present. Returns the inner
/// frame bytes and the carried context (`SpanContext::NONE` for legacy
/// frames).
fn strip_envelope(buf: &[u8]) -> Result<(&[u8], SpanContext), WireError> {
    if buf.first() != Some(&FRAME_TRACED) {
        return Ok((buf, SpanContext::NONE));
    }
    if buf.len() < ENVELOPE_LEN {
        return Err(WireError::Truncated);
    }
    let trace = u64::from_le_bytes(buf[1..9].try_into().unwrap());
    let span = u64::from_le_bytes(buf[9..17].try_into().unwrap());
    Ok((
        &buf[ENVELOPE_LEN..],
        SpanContext {
            trace: TraceId(trace),
            span: SpanId(span),
        },
    ))
}

/// Reads the trace id out of a traced frame without consuming it — used
/// by the transport's fault hooks to journal injections against the
/// query's trace even though the worker has no ambient span open.
pub(crate) fn peek_trace(frame: &[u8]) -> Option<u64> {
    if frame.first() == Some(&FRAME_TRACED) && frame.len() >= ENVELOPE_LEN {
        Some(u64::from_le_bytes(frame[1..9].try_into().unwrap()))
    } else {
        None
    }
}

/// A frame buffer of exactly `body_len` bytes plus the trace envelope
/// `ctx` calls for, with that envelope (if any) already written: the body
/// follows in the same allocation, which never grows.
fn frame_with_envelope(ctx: SpanContext, body_len: usize) -> Vec<u8> {
    if ctx.is_none() {
        return Vec::with_capacity(body_len);
    }
    let mut out = Vec::with_capacity(ENVELOPE_LEN + body_len);
    out.push(FRAME_TRACED);
    out.extend_from_slice(&ctx.trace.0.to_le_bytes());
    out.extend_from_slice(&ctx.span.0.to_le_bytes());
    out
}

/// A request frame from the processor to the NDP unit.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Store a table image (the `T0` transfer).
    Load {
        /// Table base address.
        table_addr: u64,
        /// Bytes per row.
        row_bytes: u32,
        /// Ciphertext image.
        ciphertext: Vec<u8>,
        /// Encrypted per-row tags, if any.
        tags: Option<Vec<u128>>,
    },
    /// `SecNDPInst` sequence + `SecNDPLd`: weighted summation over rows.
    WeightedSum {
        /// Table base address.
        table_addr: u64,
        /// Element width in bytes (1, 2, 4 or 8).
        elem_bytes: u8,
        /// Row indices.
        indices: Vec<u64>,
        /// Weights, zero-extended to 64 bits.
        weights: Vec<u64>,
        /// Whether the combined encrypted tag is requested.
        with_tag: bool,
    },
    /// Plain encrypted read of one row.
    ReadRow {
        /// Table base address.
        table_addr: u64,
        /// Row index.
        row: u64,
    },
}

/// A response frame from the NDP unit.
#[derive(Debug, Clone, PartialEq)]
pub enum Response {
    /// Load acknowledged.
    Ack,
    /// Result share bytes plus optional combined tag.
    Sum {
        /// `C_res` serialized little-endian.
        c_res: Vec<u8>,
        /// `C_T_res` canonical value, if requested.
        c_t_res: Option<u128>,
    },
    /// Raw row ciphertext.
    Row(Vec<u8>),
    /// Device-side error, by stable code.
    Err(u16),
}

/// Wire-level decode failures (distinct from protocol [`Error`]s).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WireError {
    /// The frame ended before a field was complete.
    Truncated,
    /// Unknown frame tag.
    BadTag(u8),
    /// Trailing bytes after a complete frame.
    TrailingBytes,
    /// A declared length exceeds the remaining frame.
    BadLength,
    /// A weighted-sum frame declared an element width outside {1, 2, 4, 8}.
    /// Rejected at decode time: coercing it to *any* width would silently
    /// compute a different query than the one the peer framed.
    BadElemBytes(u8),
    /// A field is too long for its `u32` length prefix (encode side).
    FrameTooLarge,
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WireError::Truncated => f.write_str("frame truncated"),
            WireError::BadTag(t) => write!(f, "unknown frame tag {t:#x}"),
            WireError::TrailingBytes => f.write_str("trailing bytes after frame"),
            WireError::BadLength => f.write_str("length field exceeds frame"),
            WireError::BadElemBytes(b) => {
                write!(f, "element width {b} is not one of 1, 2, 4, 8")
            }
            WireError::FrameTooLarge => f.write_str("field exceeds the u32 length prefix"),
        }
    }
}

impl std::error::Error for WireError {}

struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn new(buf: &'a [u8]) -> Self {
        Self { buf, pos: 0 }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], WireError> {
        if self.pos + n > self.buf.len() {
            return Err(WireError::Truncated);
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    fn u8(&mut self) -> Result<u8, WireError> {
        Ok(self.take(1)?[0])
    }
    fn u16(&mut self) -> Result<u16, WireError> {
        Ok(u16::from_le_bytes(self.take(2)?.try_into().unwrap()))
    }
    fn u32(&mut self) -> Result<u32, WireError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }
    fn u64(&mut self) -> Result<u64, WireError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }
    fn u128(&mut self) -> Result<u128, WireError> {
        Ok(u128::from_le_bytes(self.take(16)?.try_into().unwrap()))
    }

    fn len(&mut self) -> Result<usize, WireError> {
        let n = self.u32()? as usize;
        if self.pos + n > self.buf.len() {
            // Even a length of element-sized records cannot exceed bytes.
            return Err(WireError::BadLength);
        }
        Ok(n)
    }

    /// Reads a `u32` record count and checks `count × record_bytes` fits in
    /// the remaining frame *before* any element is parsed, so an oversized
    /// count is rejected up front instead of draining the reader item by
    /// item.
    fn count(&mut self, record_bytes: usize) -> Result<usize, WireError> {
        let n = self.u32()? as usize;
        let total = n.checked_mul(record_bytes).ok_or(WireError::BadLength)?;
        if self.pos + total > self.buf.len() {
            return Err(WireError::BadLength);
        }
        Ok(n)
    }

    fn bytes(&mut self) -> Result<Vec<u8>, WireError> {
        let n = self.len()?;
        Ok(self.take(n)?.to_vec())
    }

    fn finish(self) -> Result<(), WireError> {
        if self.pos == self.buf.len() {
            Ok(())
        } else {
            Err(WireError::TrailingBytes)
        }
    }
}

/// Encodes a `u32` length prefix, rejecting lengths that do not fit rather
/// than truncating them into a decodable-but-corrupt frame.
fn put_len(out: &mut Vec<u8>, len: usize) -> Result<(), Error> {
    let n = u32::try_from(len).map_err(|_| Error::FrameTooLarge { len })?;
    out.extend_from_slice(&n.to_le_bytes());
    Ok(())
}

fn put_bytes(out: &mut Vec<u8>, b: &[u8]) -> Result<(), Error> {
    put_len(out, b.len())?;
    out.extend_from_slice(b);
    Ok(())
}

impl Request {
    /// Serializes the request frame (the legacy form, without a trace
    /// envelope).
    ///
    /// # Errors
    ///
    /// Returns [`Error::FrameTooLarge`] when a variable-length field does
    /// not fit its `u32` length prefix (a ≥ 4 GiB payload would otherwise
    /// silently truncate into a decodable-but-corrupt frame).
    pub fn encode(&self) -> Result<Vec<u8>, Error> {
        self.encode_traced(SpanContext::NONE)
    }

    /// The encoded length of the frame body (everything after the
    /// envelope).
    fn body_len(&self) -> usize {
        match self {
            Request::Load {
                ciphertext, tags, ..
            } => {
                1 + 8 + 4 + 4 + ciphertext.len() + 1 + tags.as_ref().map_or(0, |t| 4 + 16 * t.len())
            }
            Request::WeightedSum {
                indices, weights, ..
            } => 1 + 8 + 1 + 1 + 4 + 8 * indices.len() + 4 + 8 * weights.len(),
            Request::ReadRow { .. } => 1 + 8 + 8,
        }
    }

    /// Serializes the request, wrapping it in a trace envelope when `ctx`
    /// is non-empty (an empty context yields the legacy byte-identical
    /// encoding). The frame is written once, into a buffer allocated at
    /// its final length.
    ///
    /// # Errors
    ///
    /// Returns [`Error::FrameTooLarge`] as for [`encode`](Self::encode).
    pub fn encode_traced(&self, ctx: SpanContext) -> Result<Vec<u8>, Error> {
        let mut out = frame_with_envelope(ctx, self.body_len());
        match self {
            Request::Load {
                table_addr,
                row_bytes,
                ciphertext,
                tags,
            } => {
                out.push(0x01);
                out.extend_from_slice(&table_addr.to_le_bytes());
                out.extend_from_slice(&row_bytes.to_le_bytes());
                put_bytes(&mut out, ciphertext)?;
                match tags {
                    None => out.push(0),
                    Some(tags) => {
                        out.push(1);
                        put_len(&mut out, tags.len())?;
                        for t in tags {
                            out.extend_from_slice(&t.to_le_bytes());
                        }
                    }
                }
            }
            Request::WeightedSum {
                table_addr,
                elem_bytes,
                indices,
                weights,
                with_tag,
            } => {
                out.push(0x02);
                out.extend_from_slice(&table_addr.to_le_bytes());
                out.push(*elem_bytes);
                out.push(*with_tag as u8);
                put_len(&mut out, indices.len())?;
                for i in indices {
                    out.extend_from_slice(&i.to_le_bytes());
                }
                put_len(&mut out, weights.len())?;
                for w in weights {
                    out.extend_from_slice(&w.to_le_bytes());
                }
            }
            Request::ReadRow { table_addr, row } => {
                out.push(0x03);
                out.extend_from_slice(&table_addr.to_le_bytes());
                out.extend_from_slice(&row.to_le_bytes());
            }
        }
        Ok(out)
    }

    /// Parses a request frame (legacy or traced), discarding any carried
    /// trace context.
    ///
    /// # Errors
    ///
    /// Returns a [`WireError`] for malformed frames.
    pub fn decode(buf: &[u8]) -> Result<Request, WireError> {
        Self::decode_traced(buf).map(|(req, _)| req)
    }

    /// Parses a request frame, also returning the trace context carried by
    /// a v2 envelope ([`SpanContext::NONE`] for legacy frames).
    ///
    /// # Errors
    ///
    /// Returns a [`WireError`] for malformed frames.
    pub fn decode_traced(buf: &[u8]) -> Result<(Request, SpanContext), WireError> {
        let (inner, ctx) = strip_envelope(buf)?;
        Ok((Self::decode_inner(inner)?, ctx))
    }

    fn decode_inner(buf: &[u8]) -> Result<Request, WireError> {
        let mut r = Reader::new(buf);
        let req = match r.u8()? {
            0x01 => {
                let table_addr = r.u64()?;
                let row_bytes = r.u32()?;
                let ciphertext = r.bytes()?;
                let tags = match r.u8()? {
                    0 => None,
                    _ => {
                        let n = r.count(16)?;
                        let mut tags = Vec::with_capacity(n);
                        for _ in 0..n {
                            tags.push(r.u128()?);
                        }
                        Some(tags)
                    }
                };
                Request::Load {
                    table_addr,
                    row_bytes,
                    ciphertext,
                    tags,
                }
            }
            0x02 => {
                let table_addr = r.u64()?;
                let elem_bytes = r.u8()?;
                // Reject unsupported widths at decode time: a device that
                // coerced, say, 3 to the u64 path would compute a *different
                // valid query* than the one the peer framed.
                if !matches!(elem_bytes, 1 | 2 | 4 | 8) {
                    return Err(WireError::BadElemBytes(elem_bytes));
                }
                let with_tag = r.u8()? != 0;
                let n = r.count(8)?;
                let mut indices = Vec::with_capacity(n);
                for _ in 0..n {
                    indices.push(r.u64()?);
                }
                let n = r.count(8)?;
                let mut weights = Vec::with_capacity(n);
                for _ in 0..n {
                    weights.push(r.u64()?);
                }
                Request::WeightedSum {
                    table_addr,
                    elem_bytes,
                    indices,
                    weights,
                    with_tag,
                }
            }
            0x03 => Request::ReadRow {
                table_addr: r.u64()?,
                row: r.u64()?,
            },
            t => return Err(WireError::BadTag(t)),
        };
        r.finish()?;
        Ok(req)
    }
}

impl Response {
    /// Serializes the response frame (the legacy form, without a trace
    /// envelope).
    ///
    /// # Errors
    ///
    /// Returns [`Error::FrameTooLarge`] when a variable-length field does
    /// not fit its `u32` length prefix.
    pub fn encode(&self) -> Result<Vec<u8>, Error> {
        self.encode_traced(SpanContext::NONE)
    }

    /// The encoded length of the frame body (everything after the
    /// envelope).
    fn body_len(&self) -> usize {
        match self {
            Response::Ack => 1,
            Response::Sum { c_res, c_t_res } => 1 + 4 + c_res.len() + 1 + c_t_res.map_or(0, |_| 16),
            Response::Row(b) => 1 + 4 + b.len(),
            Response::Err(_) => 1 + 2,
        }
    }

    /// Serializes the response, wrapping it in a trace envelope when `ctx`
    /// is non-empty. The frame is written once, into a buffer allocated at
    /// its final length.
    ///
    /// # Errors
    ///
    /// Returns [`Error::FrameTooLarge`] as for [`encode`](Self::encode).
    pub fn encode_traced(&self, ctx: SpanContext) -> Result<Vec<u8>, Error> {
        let mut out = frame_with_envelope(ctx, self.body_len());
        match self {
            Response::Ack => out.push(0x81),
            Response::Sum { c_res, c_t_res } => {
                out.push(0x82);
                put_bytes(&mut out, c_res)?;
                match c_t_res {
                    None => out.push(0),
                    Some(t) => {
                        out.push(1);
                        out.extend_from_slice(&t.to_le_bytes());
                    }
                }
            }
            Response::Row(b) => {
                out.push(0x83);
                put_bytes(&mut out, b)?;
            }
            Response::Err(code) => {
                out.push(0xFF);
                out.extend_from_slice(&code.to_le_bytes());
            }
        }
        Ok(out)
    }

    /// Parses a response frame (legacy or traced), discarding any carried
    /// trace context.
    ///
    /// # Errors
    ///
    /// Returns a [`WireError`] for malformed frames.
    pub fn decode(buf: &[u8]) -> Result<Response, WireError> {
        Self::decode_traced(buf).map(|(resp, _)| resp)
    }

    /// Parses a response frame, also returning the trace context carried
    /// by a v2 envelope ([`SpanContext::NONE`] for legacy frames).
    ///
    /// # Errors
    ///
    /// Returns a [`WireError`] for malformed frames.
    pub fn decode_traced(buf: &[u8]) -> Result<(Response, SpanContext), WireError> {
        let (inner, ctx) = strip_envelope(buf)?;
        Ok((Self::decode_inner(inner)?, ctx))
    }

    fn decode_inner(buf: &[u8]) -> Result<Response, WireError> {
        let mut r = Reader::new(buf);
        let resp = match r.u8()? {
            0x81 => Response::Ack,
            0x82 => {
                let c_res = r.bytes()?;
                let c_t_res = match r.u8()? {
                    0 => None,
                    _ => Some(r.u128()?),
                };
                Response::Sum { c_res, c_t_res }
            }
            0x83 => Response::Row(r.bytes()?),
            0xFF => Response::Err(r.u16()?),
            t => return Err(WireError::BadTag(t)),
        };
        r.finish()?;
        Ok(resp)
    }
}

/// Stable device-error codes carried in [`Response::Err`].
fn error_code(e: &Error) -> u16 {
    match e {
        Error::UnknownTable { .. } => 1,
        Error::RowOutOfBounds { .. } => 2,
        Error::TagsUnavailable => 3,
        Error::QueryLengthMismatch { .. } => 4,
        Error::ColOutOfBounds { .. } => 5,
        Error::ShapeMismatch { .. } => 6,
        _ => 0xFFFE,
    }
}

/// Device-side code for an unsupported element width: a frame that decodes
/// but names a width the device will not compute.
pub const CODE_BAD_ELEM_BYTES: u16 = 7;

/// Device-side code for a request frame the device could not decode at
/// all — sent by [`serve_or_reply`] so a networked client gets a typed
/// diagnostic instead of a dropped connection and a timeout.
pub const CODE_BAD_FRAME: u16 = 8;

pub(crate) fn error_from_code(code: u16, table_addr: u64) -> Error {
    match code {
        1 => Error::UnknownTable { table_addr },
        2 => Error::RowOutOfBounds { index: 0, rows: 0 },
        3 => Error::TagsUnavailable,
        4 => Error::QueryLengthMismatch {
            indices: 0,
            weights: 0,
        },
        5 => Error::ColOutOfBounds { index: 0, cols: 0 },
        6 => Error::ShapeMismatch {
            got: 0,
            expected: 0,
        },
        CODE_BAD_ELEM_BYTES => Error::MalformedResponse {
            reason: "unsupported element width",
        },
        CODE_BAD_FRAME => Error::MalformedResponse {
            reason: "device could not decode request frame",
        },
        _ => Error::MalformedResponse {
            reason: "device error",
        },
    }
}

fn request_op(req: &Request) -> &'static str {
    match req {
        Request::Load { .. } => "load",
        Request::WeightedSum { .. } => "weighted_sum",
        Request::ReadRow { .. } => "read_row",
    }
}

/// The device-side dispatcher: decodes a request, executes it against
/// `device`, and encodes the response — what the DIMM-side firmware does.
/// Traced frames open an `ndp_serve` child span under the processor-side
/// context carried in the envelope, and the reply frame carries the serve
/// span's context back.
pub fn serve<D: NdpDevice>(device: &mut D, frame: &[u8]) -> Result<Vec<u8>, WireError> {
    let (req, ctx) = Request::decode_traced(frame)?;
    let mut sp = trace::span_child_of(trace::names::NDP_SERVE, ctx);
    sp.attr_str("op", request_op(&req));
    let resp = match req {
        Request::Load {
            table_addr,
            row_bytes,
            ciphertext,
            tags,
        } => {
            match device.load(
                table_addr,
                ciphertext,
                row_bytes as usize,
                tags.map(|ts| ts.into_iter().map(Fq::new).collect()),
            ) {
                Ok(()) => Response::Ack,
                Err(e) => Response::Err(error_code(&e)),
            }
        }
        Request::WeightedSum {
            table_addr,
            elem_bytes,
            indices,
            weights,
            with_tag,
        } => dispatch_sum(device, table_addr, elem_bytes, &indices, &weights, with_tag),
        Request::ReadRow { table_addr, row } => dispatch_read_row(device, table_addr, row),
    };
    resp.encode_traced(sp.context())
        .map_err(|_| WireError::FrameTooLarge)
}

/// [`serve`] for network servers: a frame that fails to decode still gets
/// a typed [`Response::Err`] reply frame instead of no reply at all, so a
/// remote client sees an `Error::MalformedResponse`-class diagnostic
/// rather than a dropped connection and a timeout. The error reply echoes
/// the request's trace envelope (when one is readable), so even the
/// rejection stitches into the caller's trace.
pub fn serve_or_reply<D: NdpDevice>(device: &mut D, frame: &[u8]) -> Vec<u8> {
    match serve(device, frame) {
        Ok(reply) => reply,
        Err(err) => {
            let code = match err {
                WireError::BadElemBytes(_) => CODE_BAD_ELEM_BYTES,
                _ => CODE_BAD_FRAME,
            };
            let ctx = strip_envelope(frame)
                .map(|(_, c)| c)
                .unwrap_or(SpanContext::NONE);
            Response::Err(code)
                .encode_traced(ctx)
                .expect("error frame encodes")
        }
    }
}

/// Converts the wire's `u64` row indices to host `usize`, refusing (rather
/// than truncating) indices that do not fit — on a 32-bit device `as usize`
/// would alias row `2^32 + k` onto row `k`.
fn indices_to_usize(indices: &[u64]) -> Result<Vec<usize>, Error> {
    indices
        .iter()
        .map(|&i| {
            usize::try_from(i).map_err(|_| Error::RowOutOfBounds {
                index: usize::MAX,
                rows: 0,
            })
        })
        .collect()
}

/// Executes a weighted-sum request at the declared width. Decoding already
/// rejects widths outside {1, 2, 4, 8}; a device invoked with a hand-built
/// request still answers `Response::Err` instead of coercing the width.
fn dispatch_sum<D: NdpDevice>(
    device: &D,
    table_addr: u64,
    elem_bytes: u8,
    indices: &[u64],
    weights: &[u64],
    with_tag: bool,
) -> Response {
    let idx = match indices_to_usize(indices) {
        Ok(idx) => idx,
        Err(e) => return Response::Err(error_code(&e)),
    };
    let out = match elem_bytes {
        1 => run_sum::<u8, D>(device, table_addr, &idx, weights, with_tag),
        2 => run_sum::<u16, D>(device, table_addr, &idx, weights, with_tag),
        4 => run_sum::<u32, D>(device, table_addr, &idx, weights, with_tag),
        8 => run_sum::<u64, D>(device, table_addr, &idx, weights, with_tag),
        _ => return Response::Err(CODE_BAD_ELEM_BYTES),
    };
    match out {
        Ok((c_res, c_t_res)) => Response::Sum { c_res, c_t_res },
        Err(e) => Response::Err(error_code(&e)),
    }
}

fn dispatch_read_row<D: NdpDevice>(device: &D, table_addr: u64, row: u64) -> Response {
    let row = match usize::try_from(row) {
        Ok(row) => row,
        Err(_) => {
            return Response::Err(error_code(&Error::RowOutOfBounds {
                index: usize::MAX,
                rows: 0,
            }))
        }
    };
    match device.read_row(table_addr, row) {
        Ok(b) => Response::Row(b),
        Err(e) => Response::Err(error_code(&e)),
    }
}

fn run_sum<W: RingWord, D: NdpDevice>(
    device: &D,
    table_addr: u64,
    indices: &[usize],
    weights: &[u64],
    with_tag: bool,
) -> Result<(Vec<u8>, Option<u128>), Error> {
    let w: Vec<W> = weights.iter().map(|&x| W::from_u64(x)).collect();
    let r = device.weighted_sum::<W>(table_addr, indices, &w, with_tag)?;
    Ok((words_to_le_bytes(&r.c_res), r.c_t_res.map(|t| t.value())))
}

/// One request in, one reply out: the single method every path to a
/// device behind the wire implements — [`RemoteNdp`]'s inline service on
/// the caller's thread, and an [`Endpoint`](crate::endpoint::Endpoint)
/// over any link. Everything that implements it is an [`NdpDevice`]
/// through the one facade below.
pub trait RoundTrip {
    /// Carries `req` to the device and returns its decoded reply.
    ///
    /// # Errors
    ///
    /// Transport failures, typed; a device-side error is `Ok(Response::Err)`.
    fn round_trip(&self, req: &Request) -> Result<Response, Error>;
}

/// Decodes a reply frame from the untrusted device, mapping any wire-level
/// failure to a typed error. A malicious or faulty device must never be
/// able to panic the trusted side by sending garbage.
pub(crate) fn decode_reply(reply: &[u8]) -> Result<Response, Error> {
    Response::decode(reply).map_err(|_| crate::metrics::malformed("undecodable reply frame"))
}

/// Interprets a reply to a weighted-sum request.
pub(crate) fn sum_from_response<W: RingWord>(
    resp: Response,
    table_addr: u64,
) -> Result<NdpResponse<W>, Error> {
    match resp {
        // The device chose `c_res`'s length; `words_from_le_bytes` asserts
        // it is whole elements, so a ragged one is refused here first.
        Response::Sum { c_res, .. } if c_res.len() % W::BYTES != 0 => Err(
            crate::metrics::malformed("result bytes are not a whole number of elements"),
        ),
        Response::Sum { c_res, c_t_res } => Ok(NdpResponse {
            c_res: words_from_le_bytes::<W>(&c_res),
            c_t_res: c_t_res.map(Fq::new),
        }),
        Response::Err(code) => Err(error_from_code(code, table_addr)),
        Response::Ack => Err(crate::metrics::malformed("ack for a sum request")),
        Response::Row(_) => Err(crate::metrics::malformed("wrong response kind")),
    }
}

/// The blocking device facade over any [`RoundTrip`]: each trait call
/// frames one request under a `wire_round_trip` span and interprets the
/// reply, so trait-generic code — the whole e2e suite — runs over every
/// transport unchanged.
impl<T: RoundTrip> NdpDevice for T {
    fn load(
        &mut self,
        table_addr: u64,
        ciphertext: Vec<u8>,
        row_bytes: usize,
        tags: Option<Vec<Fq>>,
    ) -> Result<(), Error> {
        // Validate shape before the round trip: the wire error code carries
        // no payload, so a local check preserves the faithful field values
        // (and skips shipping a torn table to the device at all).
        validate_load(ciphertext.len(), row_bytes)?;
        let req = Request::Load {
            table_addr,
            row_bytes: row_bytes as u32,
            ciphertext,
            tags: tags.map(|ts| ts.iter().map(|t| t.value()).collect()),
        };
        match timed_round_trip(&*self, &req)? {
            Response::Ack => Ok(()),
            Response::Err(code) => Err(error_from_code(code, table_addr)),
            _ => Err(crate::metrics::malformed("unexpected load reply")),
        }
    }

    fn weighted_sum<W: RingWord>(
        &self,
        table_addr: u64,
        indices: &[usize],
        weights: &[W],
        with_tag: bool,
    ) -> Result<NdpResponse<W>, Error> {
        let req = Request::WeightedSum {
            table_addr,
            elem_bytes: W::BYTES as u8,
            indices: indices.iter().map(|&i| i as u64).collect(),
            weights: weights.iter().map(|w| w.as_u64()).collect(),
            with_tag,
        };
        sum_from_response(timed_round_trip(self, &req)?, table_addr)
    }

    fn read_row(&self, table_addr: u64, row: usize) -> Result<Vec<u8>, Error> {
        let req = Request::ReadRow {
            table_addr,
            row: row as u64,
        };
        match timed_round_trip(self, &req)? {
            Response::Row(b) => Ok(b),
            Response::Err(code) => Err(error_from_code(code, table_addr)),
            _ => Err(crate::metrics::malformed("wrong response kind")),
        }
    }
}

/// The span and latency histogram around one facade call. The request is
/// encoded under this span, so device-side spans stitch beneath it.
fn timed_round_trip(via: &impl RoundTrip, req: &Request) -> Result<Response, Error> {
    let _sp = trace::span(trace::names::WIRE_ROUND_TRIP).timed(crate::metrics::wire_round_trip());
    via.round_trip(req)
}

/// Serves every frame on the caller's thread. It cannot time out or
/// reorder, so it pays for no pending-table entry: encode, [`serve`],
/// decode — both directions re-decoded to guarantee byte-exactness.
struct Inline<D>(Mutex<D>);

impl<D: NdpDevice> RoundTrip for Inline<D> {
    fn round_trip(&self, req: &Request) -> Result<Response, Error> {
        let ctx = trace::current();
        let frame = {
            let _e = trace::span(trace::names::WIRE_ENCODE);
            req.encode_traced(ctx)?
        };
        crate::metrics::wire_packets().inc();
        secndp_telemetry::profile::add_wire_bytes(frame.len() as u64, 0);
        let reply = serve(&mut *crate::endpoint::locked(&self.0), &frame)
            .map_err(|_| crate::metrics::malformed("device rejected request frame"))?;
        secndp_telemetry::profile::add_wire_bytes(0, reply.len() as u64);
        decode_reply(&reply)
    }
}

/// A transport that could not be set up (no loopback port, no thread):
/// every request that needs it reports the loss, typed.
struct Unreachable;

impl RoundTrip for Unreachable {
    fn round_trip(&self, _: &Request) -> Result<Response, Error> {
        Err(Error::ConnectionLost { attempts: 1 })
    }
}

/// A device adaptor that forces every interaction through the byte-exact
/// wire format, proving the protocol carries everything it needs.
///
/// The transport is chosen once, at construction: [`inline`](Self::inline)
/// serves each frame on the caller's thread, [`async_backed`] and
/// [`tcp_backed`] ride an [`Endpoint`](crate::endpoint::Endpoint) over
/// worker threads or sockets, and [`new`](Self::new) picks by the
/// `SECNDP_TRANSPORT` environment variable. `D` names the device type
/// behind the wire; for a remote server it is only a label.
///
/// [`async_backed`]: Self::async_backed
/// [`tcp_backed`]: Self::tcp_backed
pub struct RemoteNdp<D> {
    via: Box<dyn RoundTrip + Send + Sync>,
    _device: PhantomData<fn() -> D>,
}

impl<D> std::fmt::Debug for RemoteNdp<D> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RemoteNdp").finish_non_exhaustive()
    }
}

impl<D> RemoteNdp<D> {
    fn over(via: impl RoundTrip + Send + Sync + 'static) -> Self {
        Self {
            via: Box::new(via),
            _device: PhantomData,
        }
    }

    /// Wraps an already-connected TCP endpoint, explicitly.
    pub fn tcp_backed(ep: TcpEndpoint) -> Self {
        Self::over(ep)
    }
}

impl<D: NdpDevice + Send + 'static> RemoteNdp<D> {
    /// Wraps a device behind the wire. `SECNDP_TRANSPORT=async` routes
    /// every frame through a single-rank [`AsyncEndpoint`];
    /// `SECNDP_TRANSPORT=tcp` through sockets — to the server ranks named
    /// in `SECNDP_TRANSPORT_ADDRS` (comma-separated `host:port`; `inner`
    /// is dropped, the server hosts the devices), else to a private
    /// loopback [`NetServer`](crate::net::NetServer) hosting `inner`.
    /// Anything else — or nothing — serves frames inline. Endpoints take
    /// the default [`EndpointConfig`]. Never fails: a transport that
    /// cannot be set up surfaces as [`Error::ConnectionLost`] from the
    /// requests that need it.
    pub fn new(inner: D) -> Self {
        let cfg = EndpointConfig::default();
        match std::env::var("SECNDP_TRANSPORT").as_deref() {
            Ok("async") => Self::async_backed(inner, cfg),
            Ok("tcp") => {
                let addrs: Vec<String> = std::env::var("SECNDP_TRANSPORT_ADDRS")
                    .unwrap_or_default()
                    .split(',')
                    .map(|a| a.trim().to_string())
                    .filter(|a| !a.is_empty())
                    .collect();
                let ep = if addrs.is_empty() {
                    TcpEndpoint::self_hosted(inner, cfg).ok()
                } else {
                    TcpEndpoint::connect(EndpointConfig { addrs, ..cfg }).ok()
                };
                ep.map_or_else(|| Self::over(Unreachable), Self::over)
            }
            _ => Self::inline(inner),
        }
    }

    /// Wraps a device behind the blocking inline transport, explicitly
    /// (ignores `SECNDP_TRANSPORT`).
    pub fn inline(inner: D) -> Self {
        Self::over(Inline(Mutex::new(inner)))
    }

    /// Wraps a device behind an async (worker-thread) transport, explicitly.
    pub fn async_backed(inner: D, cfg: EndpointConfig) -> Self {
        Self::over(AsyncEndpoint::new(vec![inner], cfg))
    }
}

impl<D> RoundTrip for RemoteNdp<D> {
    fn round_trip(&self, req: &Request) -> Result<Response, Error> {
        self.via.round_trip(req)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::device::HonestNdp;
    use crate::keys::SecretKey;
    use crate::protocol::TrustedProcessor;
    use proptest::prelude::*;

    #[test]
    fn request_frames_round_trip() {
        let frames = [
            Request::Load {
                table_addr: 0x1000,
                row_bytes: 64,
                ciphertext: vec![1, 2, 3, 4],
                tags: Some(vec![7u128, u128::MAX >> 1]),
            },
            Request::Load {
                table_addr: 0,
                row_bytes: 1,
                ciphertext: vec![],
                tags: None,
            },
            Request::WeightedSum {
                table_addr: 42,
                elem_bytes: 4,
                indices: vec![0, 5, 9],
                weights: vec![1, 2, 3],
                with_tag: true,
            },
            Request::ReadRow {
                table_addr: 7,
                row: 3,
            },
        ];
        for f in frames {
            assert_eq!(Request::decode(&f.encode().unwrap()).unwrap(), f);
        }
    }

    #[test]
    fn response_frames_round_trip() {
        let frames = [
            Response::Ack,
            Response::Sum {
                c_res: vec![9; 32],
                c_t_res: Some(12345),
            },
            Response::Sum {
                c_res: vec![],
                c_t_res: None,
            },
            Response::Row(vec![1, 2, 3]),
            Response::Err(3),
        ];
        for f in frames {
            assert_eq!(Response::decode(&f.encode().unwrap()).unwrap(), f);
        }
    }

    #[test]
    fn malformed_frames_rejected() {
        assert_eq!(Request::decode(&[]), Err(WireError::Truncated));
        assert_eq!(Request::decode(&[0x42]), Err(WireError::BadTag(0x42)));
        // Truncated weighted-sum.
        let mut f = Request::ReadRow {
            table_addr: 1,
            row: 2,
        }
        .encode()
        .unwrap();
        f.pop();
        assert_eq!(Request::decode(&f), Err(WireError::Truncated));
        // Trailing junk.
        let mut f = Response::Ack.encode().unwrap();
        f.push(0);
        assert_eq!(Response::decode(&f), Err(WireError::TrailingBytes));
        // Absurd length field.
        let mut f = vec![0x83];
        f.extend_from_slice(&u32::MAX.to_le_bytes());
        assert_eq!(Response::decode(&f), Err(WireError::BadLength));
    }

    /// Satellite bugfix: a weighted-sum frame declaring an element width
    /// outside {1, 2, 4, 8} must be rejected at decode time — the old code
    /// coerced every unknown width onto the u64 path, silently computing a
    /// different query than the peer framed.
    #[test]
    fn invalid_elem_bytes_rejected_at_decode() {
        let good = Request::WeightedSum {
            table_addr: 42,
            elem_bytes: 4,
            indices: vec![0, 1],
            weights: vec![1, 2],
            with_tag: false,
        }
        .encode()
        .unwrap();
        // Byte 9 is elem_bytes (tag + 8-byte addr).
        for bad in [0u8, 3, 5, 6, 7, 9, 16, 255] {
            let mut f = good.clone();
            f[9] = bad;
            assert_eq!(
                Request::decode(&f),
                Err(WireError::BadElemBytes(bad)),
                "width {bad} must not decode"
            );
            // And a device served such a frame answers nothing computable:
            // serve() refuses the frame at decode, before any dispatch.
            let mut dev = HonestNdp::new();
            assert_eq!(serve(&mut dev, &f), Err(WireError::BadElemBytes(bad)));
        }
        // The four legal widths still decode.
        for ok in [1u8, 2, 4, 8] {
            let mut f = good.clone();
            f[9] = ok;
            assert!(Request::decode(&f).is_ok());
        }
        // Defense in depth: a device invoked below the decoder (hand-built
        // request) still answers Err(7), never a coerced result.
        let resp = dispatch_sum(&HonestNdp::new(), 42, 3, &[0], &[1], false);
        assert_eq!(resp, Response::Err(CODE_BAD_ELEM_BYTES));
        assert!(matches!(
            error_from_code(CODE_BAD_ELEM_BYTES, 42),
            Error::MalformedResponse {
                reason: "unsupported element width"
            }
        ));
    }

    /// Satellite bugfix: a network server must answer a typed error frame
    /// when a request is decodable-but-invalid (or pure garbage), never
    /// drop the connection and leave the client to time out.
    #[test]
    fn serve_or_reply_answers_typed_error_frames() {
        // A frame that decodes structurally but names an illegal width.
        let mut f = Request::WeightedSum {
            table_addr: 42,
            elem_bytes: 4,
            indices: vec![0, 1],
            weights: vec![1, 2],
            with_tag: false,
        }
        .encode()
        .unwrap();
        f[9] = 3; // byte 9 is elem_bytes (tag + 8-byte addr)
        let mut dev = HonestNdp::new();
        assert_eq!(serve(&mut dev, &f), Err(WireError::BadElemBytes(3)));
        let reply = serve_or_reply(&mut dev, &f);
        assert_eq!(
            Response::decode(&reply).unwrap(),
            Response::Err(CODE_BAD_ELEM_BYTES)
        );
        // Pure garbage still earns a decodable reply frame.
        let reply = serve_or_reply(&mut dev, &[0x42, 1, 2, 3]);
        assert_eq!(
            Response::decode(&reply).unwrap(),
            Response::Err(CODE_BAD_FRAME)
        );
        assert!(matches!(
            error_from_code(CODE_BAD_FRAME, 0),
            Error::MalformedResponse {
                reason: "device could not decode request frame"
            }
        ));
        // A traced request's error reply echoes the trace envelope.
        let ctx = SpanContext {
            trace: TraceId(0xABCD),
            span: SpanId(7),
        };
        let traced = Request::WeightedSum {
            table_addr: 42,
            elem_bytes: 4,
            indices: vec![0],
            weights: vec![1],
            with_tag: false,
        }
        .encode_traced(ctx)
        .unwrap();
        let mut broken = traced.clone();
        broken[ENVELOPE_LEN + 9] = 3;
        let reply = serve_or_reply(&mut dev, &broken);
        assert_eq!(reply[0], FRAME_TRACED);
        assert_eq!(u64::from_le_bytes(reply[1..9].try_into().unwrap()), 0xABCD);
        assert_eq!(
            Response::decode(&reply).unwrap(),
            Response::Err(CODE_BAD_ELEM_BYTES)
        );
        // A well-formed frame passes through to the normal serve path
        // (here: a device-side error for an unknown table, code 1).
        let ok = Request::ReadRow {
            table_addr: 1,
            row: 0,
        }
        .encode()
        .unwrap();
        let reply = serve_or_reply(&mut dev, &ok);
        assert_eq!(Response::decode(&reply).unwrap(), Response::Err(1));
    }

    /// Satellite bugfix: an oversized record count must be rejected up
    /// front (`count × record_size` checked against the remaining frame),
    /// not by draining the reader item by item or attempting a huge
    /// allocation.
    #[test]
    fn oversized_count_frames_rejected() {
        // WeightedSum with an indices count of u32::MAX but no payload.
        let mut f = vec![0x02];
        f.extend_from_slice(&7u64.to_le_bytes()); // table_addr
        f.push(4); // elem_bytes
        f.push(0); // with_tag
        f.extend_from_slice(&u32::MAX.to_le_bytes()); // indices count
        assert_eq!(Request::decode(&f), Err(WireError::BadLength));
        // Same for the weights count after a valid (empty) indices vector.
        let mut f = vec![0x02];
        f.extend_from_slice(&7u64.to_le_bytes());
        f.push(4);
        f.push(0);
        f.extend_from_slice(&0u32.to_le_bytes()); // indices: none
        f.extend_from_slice(&u32::MAX.to_le_bytes()); // weights count
        assert_eq!(Request::decode(&f), Err(WireError::BadLength));
        // Load with an absurd tag count: `count × 16` would overflow a
        // 32-bit usize — checked_mul turns that into BadLength, not a wrap.
        let mut f = vec![0x01];
        f.extend_from_slice(&0u64.to_le_bytes()); // table_addr
        f.extend_from_slice(&16u32.to_le_bytes()); // row_bytes
        f.extend_from_slice(&0u32.to_le_bytes()); // ciphertext: empty
        f.push(1); // tags present
        f.extend_from_slice(&u32::MAX.to_le_bytes()); // tag count
        assert_eq!(Request::decode(&f), Err(WireError::BadLength));
    }

    /// Satellite bugfix: encoding a field longer than `u32::MAX` items must
    /// fail typed instead of truncating the length prefix into a
    /// decodable-but-corrupt frame. (Exercised on the prefix writer
    /// directly — materializing a real ≥4 GiB vector is not test-friendly.)
    #[test]
    #[cfg(target_pointer_width = "64")]
    fn frame_too_large_is_checked_at_encode() {
        let mut out = Vec::new();
        assert!(put_len(&mut out, u32::MAX as usize).is_ok());
        let too_big = u32::MAX as usize + 1;
        assert!(matches!(
            put_len(&mut out, too_big),
            Err(Error::FrameTooLarge { len }) if len == too_big
        ));
        // Nothing was appended by the failed encode.
        assert_eq!(out.len(), 4);
    }

    /// Satellite bugfix: a `ReadRow` whose u64 row index exceeds `usize`
    /// answers a typed device error; on 64-bit hosts (where every u64 row
    /// fits) the index is simply out of bounds. Either way: no `as usize`
    /// truncation aliasing row `2^32 + k` onto row `k`.
    #[test]
    fn huge_row_indices_never_truncate() {
        let mut dev = HonestNdp::new();
        dev.load(0x10, vec![0u8; 32], 16, None).unwrap();
        for row in [u64::MAX, 1u64 << 33] {
            let frame = Request::ReadRow {
                table_addr: 0x10,
                row,
            }
            .encode()
            .unwrap();
            let reply = serve(&mut dev, &frame).unwrap();
            assert_eq!(decode_reply(&reply).unwrap(), Response::Err(2));
        }
        // Same guard on the weighted-sum index path.
        let frame = Request::WeightedSum {
            table_addr: 0x10,
            elem_bytes: 4,
            indices: vec![u64::MAX],
            weights: vec![1],
            with_tag: false,
        }
        .encode()
        .unwrap();
        let reply = serve(&mut dev, &frame).unwrap();
        assert_eq!(decode_reply(&reply).unwrap(), Response::Err(2));
    }

    #[test]
    fn full_protocol_over_the_wire() {
        // The entire SecNDP protocol runs against a device reachable only
        // through byte frames — and still verifies.
        let mut cpu = TrustedProcessor::new(SecretKey::from_bytes([0x61; 16]));
        let mut remote = RemoteNdp::new(HonestNdp::new());
        let pt: Vec<u32> = (0..48).map(|x| x * 7 + 2).collect();
        let table = cpu.encrypt_table(&pt, 6, 8, 0x9000).unwrap();
        let handle = cpu.publish(&table, &mut remote).unwrap();
        let res = cpu
            .weighted_sum(&handle, &remote, &[0, 3, 5], &[1u32, 2, 3], true)
            .unwrap();
        for j in 0..8 {
            assert_eq!(res[j], pt[j] + 2 * pt[24 + j] + 3 * pt[40 + j]);
        }
        // Row reads too.
        assert_eq!(
            cpu.read_row::<u32, _>(&handle, &remote, 2).unwrap(),
            &pt[16..24]
        );
        // Device errors survive the wire as typed errors.
        assert!(matches!(
            remote.weighted_sum::<u32>(0xdead, &[0], &[1], false),
            Err(Error::UnknownTable { .. })
        ));
    }

    #[test]
    fn wire_works_at_all_widths() {
        let mut cpu = TrustedProcessor::new(SecretKey::from_bytes([0x62; 16]));
        let mut remote = RemoteNdp::new(HonestNdp::new());
        let pt: Vec<u64> = (0..16).collect();
        let table = cpu.encrypt_table(&pt, 4, 4, 0).unwrap();
        let handle = cpu.publish(&table, &mut remote).unwrap();
        let res = cpu
            .weighted_sum(&handle, &remote, &[3], &[2u64], true)
            .unwrap();
        assert_eq!(res, vec![24, 26, 28, 30]);
    }

    #[test]
    fn garbage_replies_surface_as_typed_errors() {
        // Any undecodable reply from the untrusted side becomes a typed
        // error, never a panic.
        for garbage in [&[][..], &[0x42][..], &[0x82, 1, 2][..], &[0xFF][..]] {
            assert!(matches!(
                decode_reply(garbage),
                Err(Error::MalformedResponse { .. })
            ));
        }
        // A well-formed but wrong-kind reply to a load is also an error.
        assert!(matches!(
            decode_reply(&Response::Row(vec![1]).encode().unwrap()),
            Ok(Response::Row(_))
        ));
        // A decodable sum whose result bytes are not whole elements: the
        // device picks that length, so it must not reach the conversion's
        // assert.
        fn ragged_sum_is_typed<W: RingWord>() {
            let cols = 4;
            for len in [1, W::BYTES - 1, cols * W::BYTES + 1] {
                let resp = Response::Sum {
                    c_res: vec![0xAB; len],
                    c_t_res: Some(1),
                };
                let resp = decode_reply(&resp.encode().unwrap()).unwrap();
                assert!(
                    matches!(
                        sum_from_response::<W>(resp, 0x100),
                        Err(Error::MalformedResponse { .. })
                    ),
                    "{len} result bytes at width {}",
                    W::BYTES
                );
            }
        }
        ragged_sum_is_typed::<u16>();
        ragged_sum_is_typed::<u32>();
        ragged_sum_is_typed::<u64>();
    }

    #[test]
    fn load_errors_survive_the_wire() {
        let mut remote = RemoteNdp::new(HonestNdp::new());
        // row_bytes does not divide the image: rejected before the round
        // trip, with the faithful field values the wire code cannot carry.
        assert!(matches!(
            remote.load(0x100, vec![0u8; 10], 16, None),
            Err(Error::ShapeMismatch {
                got: 10,
                expected: 16
            })
        ));
        // The device-side guard holds on its own too: a torn Load frame
        // served directly comes back as the ShapeMismatch wire code.
        let frame = Request::Load {
            table_addr: 0x100,
            row_bytes: 16,
            ciphertext: vec![0u8; 10],
            tags: None,
        }
        .encode()
        .unwrap();
        let mut dev = HonestNdp::new();
        let reply = serve(&mut dev, &frame).unwrap();
        assert_eq!(decode_reply(&reply).unwrap(), Response::Err(6));
        assert!(matches!(
            error_from_code(6, 0x100),
            Error::ShapeMismatch { .. }
        ));
        // A valid load still acks.
        remote.load(0x100, vec![0u8; 32], 16, None).unwrap();
    }

    /// `inner` behind a trace envelope, whatever it is — for frames the
    /// encoder never makes, such as a doubled envelope.
    fn envelope(ctx: SpanContext, inner: &[u8]) -> Vec<u8> {
        let mut out = frame_with_envelope(ctx, inner.len());
        out.extend_from_slice(inner);
        out
    }

    fn sample_requests() -> Vec<Request> {
        vec![
            Request::Load {
                table_addr: 0x1000,
                row_bytes: 64,
                ciphertext: vec![1, 2, 3, 4],
                tags: Some(vec![7u128, u128::MAX >> 1]),
            },
            Request::Load {
                table_addr: 0,
                row_bytes: 1,
                ciphertext: vec![9],
                tags: None,
            },
            Request::WeightedSum {
                table_addr: 42,
                elem_bytes: 4,
                indices: vec![0, 5, 9],
                weights: vec![1, 2, 3],
                with_tag: true,
            },
            Request::ReadRow {
                table_addr: 7,
                row: 3,
            },
        ]
    }

    fn sample_responses() -> Vec<Response> {
        vec![
            Response::Ack,
            Response::Sum {
                c_res: vec![9; 32],
                c_t_res: Some(12345),
            },
            Response::Row(vec![1, 2, 3]),
            Response::Err(3),
        ]
    }

    #[test]
    fn traced_frames_round_trip_and_interoperate() {
        let ctx = SpanContext {
            trace: TraceId(0xAABB_CCDD_EEFF_0011),
            span: SpanId(0x7788_99AA_BBCC_DDEE),
        };
        for req in sample_requests() {
            let traced = req.encode_traced(ctx).unwrap();
            assert_eq!(traced[0], FRAME_TRACED);
            // decode_traced recovers both the frame and the context.
            assert_eq!(Request::decode_traced(&traced).unwrap(), (req.clone(), ctx));
            // Plain decode strips the envelope transparently.
            assert_eq!(Request::decode(&traced).unwrap(), req);
            // Legacy frames carry no context; empty-ctx traced encoding is
            // byte-identical to legacy.
            let legacy = req.encode().unwrap();
            assert_eq!(req.encode_traced(SpanContext::NONE).unwrap(), legacy);
            assert_eq!(
                Request::decode_traced(&legacy).unwrap(),
                (req.clone(), SpanContext::NONE)
            );
        }
        for resp in sample_responses() {
            let traced = resp.encode_traced(ctx).unwrap();
            assert_eq!(
                Response::decode_traced(&traced).unwrap(),
                (resp.clone(), ctx)
            );
            assert_eq!(Response::decode(&traced).unwrap(), resp);
            assert_eq!(
                resp.encode_traced(SpanContext::NONE).unwrap(),
                resp.encode().unwrap()
            );
        }
        // A bare or truncated envelope is Truncated, not a panic.
        assert_eq!(Request::decode(&[FRAME_TRACED]), Err(WireError::Truncated));
        assert_eq!(
            Response::decode(&[FRAME_TRACED, 1, 2, 3]),
            Err(WireError::Truncated)
        );
        // An envelope cannot nest: the inner bytes must be a v1 frame.
        let double = envelope(
            ctx,
            &Request::ReadRow {
                table_addr: 1,
                row: 2,
            }
            .encode_traced(ctx)
            .unwrap(),
        );
        assert_eq!(
            Request::decode(&double),
            Err(WireError::BadTag(FRAME_TRACED))
        );
    }

    /// Every request and response shape, legacy and traced, encodes to the
    /// bytes the encoder that built the body and then copied it behind the
    /// envelope produced (the digest was taken on that commit), into one
    /// buffer allocated at the frame's final size.
    #[test]
    fn frames_are_byte_identical_and_allocated_at_final_size() {
        let ctx = SpanContext {
            trace: TraceId(0x0123_4567_89AB_CDEF),
            span: SpanId(0xFEDC_BA98_7654_3210),
        };
        let mut requests = sample_requests();
        requests.extend([
            Request::Load {
                table_addr: u64::MAX,
                row_bytes: 16,
                ciphertext: vec![0xA5; 4096],
                tags: Some(vec![]),
            },
            Request::Load {
                table_addr: 1,
                row_bytes: 0,
                ciphertext: vec![],
                tags: Some((0..256u128).map(|t| t * 0x1_0000_0001).collect()),
            },
            Request::WeightedSum {
                table_addr: 0,
                elem_bytes: 8,
                indices: vec![],
                weights: vec![],
                with_tag: false,
            },
            Request::WeightedSum {
                table_addr: 0x4000,
                elem_bytes: 1,
                indices: (0..80).collect(),
                weights: (0..80).map(|w| u64::MAX - w).collect(),
                with_tag: true,
            },
        ]);
        let mut responses = sample_responses();
        responses.extend([
            Response::Sum {
                c_res: vec![],
                c_t_res: None,
            },
            Response::Sum {
                c_res: vec![7; 4096],
                c_t_res: Some(u128::MAX >> 1),
            },
            Response::Row(vec![]),
            Response::Err(u16::MAX),
        ]);
        let mut frames = Vec::new();
        for req in &requests {
            frames.push(req.encode().unwrap());
            frames.push(req.encode_traced(SpanContext::NONE).unwrap());
            frames.push(req.encode_traced(ctx).unwrap());
        }
        for resp in &responses {
            frames.push(resp.encode().unwrap());
            frames.push(resp.encode_traced(SpanContext::NONE).unwrap());
            frames.push(resp.encode_traced(ctx).unwrap());
        }
        let mut digest = 0xCBF2_9CE4_8422_2325u64;
        for f in &frames {
            for b in (f.len() as u64).to_le_bytes().iter().chain(f) {
                digest = (digest ^ u64::from(*b)).wrapping_mul(0x0100_0000_01B3);
            }
        }
        for f in &frames {
            assert_eq!(f.len(), f.capacity(), "{:02x?}", &f[..f.len().min(24)]);
        }
        assert_eq!(digest, 0x8F4C_A372_0B73_451A, "{digest:#018x}");
    }

    /// Satellite: exhaustive small-frame + truncation + byte-flip matrix.
    /// Deterministic (no wall-clock, no external RNG): an LCG drives the
    /// random frames so failures replay exactly.
    #[test]
    fn decode_matrix_never_panics_and_errors_are_typed() {
        // 1) Exhaustive frames of length 0..=2: every decode returns
        //    Ok or a WireError — by construction it cannot panic, and we
        //    force evaluation of every byte pattern.
        let _ = Request::decode(&[]);
        let _ = Response::decode(&[]);
        for a in 0..=255u8 {
            let _ = Request::decode(&[a]);
            let _ = Response::decode(&[a]);
            for b in 0..=255u8 {
                let _ = Request::decode(&[a, b]);
                let _ = Response::decode(&[a, b]);
            }
        }
        // 2) Every strict prefix of every canonical frame (legacy and
        //    traced) fails to decode: no prefix of a valid frame is
        //    silently accepted as a different valid frame.
        let ctx = SpanContext {
            trace: TraceId(5),
            span: SpanId(6),
        };
        let req_frames: Vec<Vec<u8>> = sample_requests()
            .iter()
            .flat_map(|r| [r.encode().unwrap(), r.encode_traced(ctx).unwrap()])
            .collect();
        let resp_frames: Vec<Vec<u8>> = sample_responses()
            .iter()
            .flat_map(|r| [r.encode().unwrap(), r.encode_traced(ctx).unwrap()])
            .collect();
        for f in &req_frames {
            assert!(Request::decode(f).is_ok());
            for cut in 0..f.len() {
                assert!(
                    Request::decode(&f[..cut]).is_err(),
                    "prefix len {cut} of {f:02x?}"
                );
            }
        }
        for f in &resp_frames {
            assert!(Response::decode(f).is_ok());
            for cut in 0..f.len() {
                assert!(
                    Response::decode(&f[..cut]).is_err(),
                    "prefix len {cut} of {f:02x?}"
                );
            }
        }
        // 3) Single-byte corruptions of valid frames never panic (they may
        //    still decode, e.g. a flipped payload byte).
        for f in req_frames.iter().chain(&resp_frames) {
            for i in 0..f.len() {
                for flip in [0x01u8, 0x80, 0xFF] {
                    let mut m = f.clone();
                    m[i] ^= flip;
                    let _ = Request::decode(&m);
                    let _ = Response::decode(&m);
                }
            }
        }
        // 4) LCG-driven random frames up to 64 bytes.
        let mut state = 0x2545_F491_4F6C_DD1Du64;
        let mut next = move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (state >> 33) as u8
        };
        for _ in 0..20_000 {
            let len = (next() as usize) % 65;
            let bytes: Vec<u8> = (0..len).map(|_| next()).collect();
            let _ = Request::decode(&bytes);
            let _ = Response::decode(&bytes);
        }
    }

    /// Satellite: the traced-frame (0x7E) envelope gets its own fuzz
    /// matrix — truncated, duplicated and garbage trace headers must
    /// produce typed errors (never a panic), header *content* must be
    /// opaque (any 16 bytes decode as ids), and legacy↔traced interop
    /// stays pinned. Deterministic: the random stage is LCG-driven.
    #[test]
    fn traced_envelope_fuzz_matrix() {
        let ctx = SpanContext {
            trace: TraceId(0xAAAA),
            span: SpanId(0xBBBB),
        };
        // 1) Every truncated envelope — the tag alone plus 0..16 header
        //    bytes — is Truncated for requests and responses alike.
        for extra in 0..(ENVELOPE_LEN - 1) {
            let mut frame = vec![FRAME_TRACED];
            frame.extend((0..extra).map(|i| i as u8));
            assert_eq!(
                Request::decode(&frame),
                Err(WireError::Truncated),
                "request envelope with {extra} header bytes"
            );
            assert_eq!(
                Response::decode(&frame),
                Err(WireError::Truncated),
                "response envelope with {extra} header bytes"
            );
        }
        // 2) Header content is opaque: any 16 garbage bytes in front of a
        //    valid inner frame decode cleanly, and the ids round-trip
        //    verbatim — no interpretation, no validation, no panic.
        let inner_req = Request::ReadRow {
            table_addr: 7,
            row: 9,
        };
        for fill in [0x00u8, 0x7E, 0xA5, 0xFF] {
            let mut frame = vec![FRAME_TRACED];
            frame.extend([fill; ENVELOPE_LEN - 1]);
            frame.extend(inner_req.encode().unwrap());
            let (req, got) = Request::decode_traced(&frame).unwrap();
            assert_eq!(req, inner_req);
            let expect = u64::from_le_bytes([fill; 8]);
            assert_eq!(got.trace, TraceId(expect));
            assert_eq!(got.span, SpanId(expect));
        }
        // 3) Envelopes do not nest, in either direction and for both
        //    frame families: the duplicate tag is a typed BadTag.
        for req in sample_requests() {
            let doubled = envelope(ctx, &req.encode_traced(ctx).unwrap());
            assert_eq!(
                Request::decode(&doubled),
                Err(WireError::BadTag(FRAME_TRACED))
            );
            assert_eq!(
                Request::decode_traced(&doubled).map(|(r, _)| r),
                Err(WireError::BadTag(FRAME_TRACED))
            );
        }
        for resp in sample_responses() {
            let doubled = envelope(ctx, &resp.encode_traced(ctx).unwrap());
            assert_eq!(
                Response::decode(&doubled),
                Err(WireError::BadTag(FRAME_TRACED))
            );
        }
        // 4) A well-formed envelope around garbage inner bytes fails with
        //    the *inner* decoder's typed error — the envelope must not
        //    mask or transform it.
        let mut garbage_inner = vec![FRAME_TRACED];
        garbage_inner.extend([0x11; ENVELOPE_LEN - 1]);
        garbage_inner.extend([0xEE, 0xEE, 0xEE]);
        assert_eq!(
            Request::decode(&garbage_inner),
            Err(WireError::BadTag(0xEE))
        );
        // 5) Interop pin: the traced encoding is exactly envelope ‖
        //    legacy encoding, so stripping 17 bytes yields the legacy
        //    frame and both decoders agree on the payload.
        for resp in sample_responses() {
            let traced = resp.encode_traced(ctx).unwrap();
            let legacy = resp.encode().unwrap();
            assert_eq!(&traced[ENVELOPE_LEN..], &legacy[..]);
            assert_eq!(Response::decode(&traced).unwrap(), resp);
            assert_eq!(Response::decode(&legacy).unwrap(), resp);
        }
        // 6) LCG-driven random 0x7E-prefixed frames: never a panic, and
        //    `peek_trace` agrees with the full decoder on the trace id
        //    whenever the frame decodes at all.
        let mut state = 0x9E37_79B9_7F4A_7C15u64;
        let mut next = move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (state >> 33) as u8
        };
        for _ in 0..20_000 {
            let len = (next() as usize) % 64;
            let mut bytes = vec![FRAME_TRACED];
            bytes.extend((0..len).map(|_| next()));
            let peeked = peek_trace(&bytes);
            if let Ok((_, got)) = Request::decode_traced(&bytes) {
                assert_eq!(peeked, Some(got.trace.0));
            }
            let _ = Request::decode(&bytes);
            let _ = Response::decode(&bytes);
        }
        // peek_trace itself: short frames and legacy frames peek nothing.
        assert_eq!(peek_trace(&[FRAME_TRACED; 5]), None);
        assert_eq!(peek_trace(&inner_req.encode().unwrap()), None);
    }

    proptest! {
        /// Decoding never panics on arbitrary bytes.
        #[test]
        fn decode_never_panics(bytes in proptest::collection::vec(any::<u8>(), 0..256)) {
            let _ = Request::decode(&bytes);
            let _ = Response::decode(&bytes);
        }

        /// Any valid frame survives encode → decode exactly.
        #[test]
        fn weighted_sum_frames_round_trip(
            table_addr in any::<u64>(),
            idx in proptest::collection::vec(any::<u64>(), 0..32),
            w in proptest::collection::vec(any::<u64>(), 0..32),
            with_tag in any::<bool>(),
        ) {
            let f = Request::WeightedSum {
                table_addr,
                elem_bytes: 4,
                indices: idx,
                weights: w,
                with_tag,
            };
            prop_assert_eq!(Request::decode(&f.encode().unwrap()).unwrap(), f);
        }
    }
}
