//! Wire format for the processor ↔ NDP command protocol.
//!
//! Figure 4's long arrows are real bus messages: the processor ships
//! ciphertext and issues weighted-summation commands; the NDP returns its
//! share of the result. This module pins down a byte-exact framing for
//! those messages — the form they would take on a DIMM mailbox or a
//! CXL/PCIe queue — so the protocol is demonstrably *wire-complete*: no
//! hidden Rust-object channel is smuggling state between the parties.
//!
//! # One frame form
//!
//! Every frame, request or reply, starts with the trace header, then one
//! message: a tag byte and its fields in little-endian; variable-length
//! vectors are `u32` length-prefixed; a flag byte is 0 or 1.
//!
//! ```text
//! 0x7E | trace_id: u64 LE | parent_span: u64 LE | tag | fields
//! ```
//!
//! The header carries the sender's span so the device's spans stitch into
//! the processor's trace; with no span open its ids are zero. A frame
//! without it is a typed [`WireError`], so what the bytes look like does
//! not depend on the build or on whether a trace is open.
//!
//! One writer and one reader carry every frame. [`Writer`] appends a frame
//! to a buffer its caller owns, the header first; the reader parses a
//! frame in place, into views that borrow it, and is strict: a missing
//! header, an unknown tag, a flag byte other than 0 or 1, a weight wider
//! than the declared element, a length past the frame or a trailing byte
//! is a typed [`WireError`]. The owned [`Request`]/[`Response`] encode and
//! decode through them; a device call through [`RoundTrip`] never builds
//! them — its request is written from the caller's slices, its reply read
//! where it lies.

use crate::device::{validate_load, NdpDevice, NdpResponse};
use crate::error::Error;
use crate::net::TcpEndpoint;
use crate::transport::InlineLink;
use secndp_arith::mersenne::Fq;
use secndp_arith::ring::RingWord;
use secndp_telemetry::trace::{self, SpanContext, SpanId, TraceId};
use std::marker::PhantomData;

/// The trace header's tag, the first byte of every frame. Disjoint from
/// every message tag (requests `0x01–0x03`, responses `0x81–0x83` /
/// `0xFF`).
pub const FRAME_TRACED: u8 = 0x7E;

/// Byte length of the trace header (tag + trace id + parent span id).
const HEADER_LEN: usize = 1 + 8 + 8;

/// The message tag of a `Load`.
const LOAD: u8 = 0x01;

/// Reads the trace header a frame starts with: the context it carries,
/// and a reader at the message behind it.
fn read_header(buf: &[u8]) -> Result<(SpanContext, Reader<'_>), WireError> {
    let mut r = Reader::new(buf);
    match r.u8()? {
        FRAME_TRACED => {}
        t => return Err(WireError::MissingHeader(t)),
    }
    let trace = TraceId(r.u64()?);
    let span = SpanId(r.u64()?);
    Ok((SpanContext { trace, span }, r))
}

/// Whether `frame`, one this side wrote, is a `Load`: the one request
/// that changes device state, so it is never sent to a rank twice.
pub(crate) fn is_load(frame: &[u8]) -> bool {
    frame.get(HEADER_LEN) == Some(&LOAD)
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
    /// The frame does not start with the trace header: its first byte is
    /// this, not [`FRAME_TRACED`].
    MissingHeader(u8),
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
    /// A flag byte other than 0 or 1. Reading any non-zero byte as `true`
    /// would accept a frame that is not the one the encoder writes.
    BadFlag(u8),
    /// A weight wider than the frame's element width. Truncating it to
    /// the element would compute a different query than the one framed.
    BadWeight(u64),
    /// A field is too long for its `u32` length prefix (encode side).
    FrameTooLarge,
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WireError::Truncated => f.write_str("frame truncated"),
            WireError::MissingHeader(b) => {
                write!(f, "frame starts with {b:#x}, not a trace header")
            }
            WireError::BadTag(t) => write!(f, "unknown frame tag {t:#x}"),
            WireError::TrailingBytes => f.write_str("trailing bytes after frame"),
            WireError::BadLength => f.write_str("length field exceeds frame"),
            WireError::BadElemBytes(b) => {
                write!(f, "element width {b} is not one of 1, 2, 4, 8")
            }
            WireError::BadFlag(b) => write!(f, "flag byte {b} is not 0 or 1"),
            WireError::BadWeight(w) => write!(f, "weight {w:#x} is wider than its element"),
            WireError::FrameTooLarge => f.write_str("field exceeds the u32 length prefix"),
        }
    }
}

impl std::error::Error for WireError {}

// ---------------------------------------------------------------------------
// The reader
// ---------------------------------------------------------------------------

struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn new(buf: &'a [u8]) -> Self {
        Self { buf, pos: 0 }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], WireError> {
        let s = self
            .buf
            .get(self.pos..)
            .and_then(|rest| rest.get(..n))
            .ok_or(WireError::Truncated)?;
        self.pos += n;
        Ok(s)
    }

    fn array<const N: usize>(&mut self) -> Result<[u8; N], WireError> {
        self.take(N)?
            .first_chunk::<N>()
            .copied()
            .ok_or(WireError::Truncated)
    }

    fn u8(&mut self) -> Result<u8, WireError> {
        Ok(u8::from_le_bytes(self.array()?))
    }
    fn u16(&mut self) -> Result<u16, WireError> {
        Ok(u16::from_le_bytes(self.array()?))
    }
    fn u32(&mut self) -> Result<u32, WireError> {
        Ok(u32::from_le_bytes(self.array()?))
    }
    fn u64(&mut self) -> Result<u64, WireError> {
        Ok(u64::from_le_bytes(self.array()?))
    }
    fn u128(&mut self) -> Result<u128, WireError> {
        Ok(u128::from_le_bytes(self.array()?))
    }

    /// A flag byte: 0 or 1, nothing else.
    fn flag(&mut self) -> Result<bool, WireError> {
        match self.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            b => Err(WireError::BadFlag(b)),
        }
    }

    /// Reads a `u32` record count and takes `count × N` bytes of records,
    /// checking they fit the remaining frame *before* any record is read,
    /// so an oversized count is refused up front.
    fn records<const N: usize>(&mut self) -> Result<Records<'a, N>, WireError> {
        let n = self.u32()? as usize;
        let total = n.checked_mul(N).ok_or(WireError::BadLength)?;
        if total > self.buf.len().saturating_sub(self.pos) {
            return Err(WireError::BadLength);
        }
        Ok(Records(self.take(total)?))
    }

    /// A `u32`-length-prefixed byte field.
    fn bytes(&mut self) -> Result<&'a [u8], WireError> {
        Ok(self.records::<1>()?.0)
    }

    fn finish(self) -> Result<(), WireError> {
        if self.pos == self.buf.len() {
            Ok(())
        } else {
            Err(WireError::TrailingBytes)
        }
    }
}

/// `N`-byte little-endian records borrowed from a frame.
#[derive(Clone, Copy)]
pub(crate) struct Records<'a, const N: usize>(&'a [u8]);

impl<const N: usize> Records<'_, N> {
    fn chunks(&self) -> impl ExactSizeIterator<Item = &[u8; N]> {
        self.0.as_chunks::<N>().0.iter()
    }
}

impl Records<'_, 8> {
    /// The records as `u64`s, in order.
    pub(crate) fn iter(&self) -> impl ExactSizeIterator<Item = u64> + '_ {
        self.chunks().map(|c| u64::from_le_bytes(*c))
    }
}

impl Records<'_, 16> {
    /// The records as `u128`s, in order.
    pub(crate) fn iter(&self) -> impl ExactSizeIterator<Item = u128> + '_ {
        self.chunks().map(|c| u128::from_le_bytes(*c))
    }
}

/// A request frame read in place: what [`Request`] holds, borrowed.
#[derive(Clone, Copy)]
pub(crate) enum RequestView<'a> {
    Load {
        table_addr: u64,
        row_bytes: u32,
        ciphertext: &'a [u8],
        tags: Option<Records<'a, 16>>,
    },
    WeightedSum(SumView<'a>),
    ReadRow {
        table_addr: u64,
        row: u64,
    },
}

/// A weighted-sum request read in place.
#[derive(Clone, Copy)]
pub(crate) struct SumView<'a> {
    table_addr: u64,
    elem_bytes: u8,
    indices: Records<'a, 8>,
    weights: Records<'a, 8>,
    with_tag: bool,
}

impl<'a> RequestView<'a> {
    /// Parses a request frame, returning the context its header carries.
    /// The discriminating fields are checked as they are read: the element
    /// width before anything sized by it, every weight against that width.
    pub(crate) fn parse(buf: &'a [u8]) -> Result<(Self, SpanContext), WireError> {
        let (ctx, mut r) = read_header(buf)?;
        let req = match r.u8()? {
            LOAD => {
                let table_addr = r.u64()?;
                let row_bytes = r.u32()?;
                let ciphertext = r.bytes()?;
                let tags = if r.flag()? { Some(r.records()?) } else { None };
                Self::Load {
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
                let with_tag = r.flag()?;
                let indices = r.records()?;
                let weights: Records<'a, 8> = r.records()?;
                let bits = 8 * u32::from(elem_bytes);
                if let Some(w) = weights
                    .iter()
                    .find(|w| w.checked_shr(bits).unwrap_or(0) != 0)
                {
                    return Err(WireError::BadWeight(w));
                }
                Self::WeightedSum(SumView {
                    table_addr,
                    elem_bytes,
                    indices,
                    weights,
                    with_tag,
                })
            }
            0x03 => Self::ReadRow {
                table_addr: r.u64()?,
                row: r.u64()?,
            },
            t => return Err(WireError::BadTag(t)),
        };
        r.finish()?;
        Ok((req, ctx))
    }

    fn op(&self) -> &'static str {
        match self {
            Self::Load { .. } => "load",
            Self::WeightedSum(_) => "weighted_sum",
            Self::ReadRow { .. } => "read_row",
        }
    }

    fn owned(self) -> Request {
        match self {
            Self::Load {
                table_addr,
                row_bytes,
                ciphertext,
                tags,
            } => Request::Load {
                table_addr,
                row_bytes,
                ciphertext: ciphertext.to_vec(),
                tags: tags.map(|t| t.iter().collect()),
            },
            Self::WeightedSum(sum) => Request::WeightedSum {
                table_addr: sum.table_addr,
                elem_bytes: sum.elem_bytes,
                indices: sum.indices.iter().collect(),
                weights: sum.weights.iter().collect(),
                with_tag: sum.with_tag,
            },
            Self::ReadRow { table_addr, row } => Request::ReadRow { table_addr, row },
        }
    }
}

/// A response frame read in place: what [`Response`] holds, borrowed.
#[derive(Clone, Copy)]
pub(crate) enum ResponseView<'a> {
    Ack,
    Sum {
        c_res: &'a [u8],
        c_t_res: Option<u128>,
    },
    Row(&'a [u8]),
    Err(u16),
}

impl<'a> ResponseView<'a> {
    /// Parses a response frame, returning the context its header carries.
    pub(crate) fn parse(buf: &'a [u8]) -> Result<(Self, SpanContext), WireError> {
        let (ctx, mut r) = read_header(buf)?;
        let resp = match r.u8()? {
            0x81 => Self::Ack,
            0x82 => {
                let c_res = r.bytes()?;
                let c_t_res = if r.flag()? { Some(r.u128()?) } else { None };
                Self::Sum { c_res, c_t_res }
            }
            0x83 => Self::Row(r.bytes()?),
            0xFF => Self::Err(r.u16()?),
            t => return Err(WireError::BadTag(t)),
        };
        r.finish()?;
        Ok((resp, ctx))
    }

    fn owned(self) -> Response {
        match self {
            Self::Ack => Response::Ack,
            Self::Sum { c_res, c_t_res } => Response::Sum {
                c_res: c_res.to_vec(),
                c_t_res,
            },
            Self::Row(b) => Response::Row(b.to_vec()),
            Self::Err(code) => Response::Err(code),
        }
    }
}

// ---------------------------------------------------------------------------
// The writer
// ---------------------------------------------------------------------------

/// Appends one frame to a buffer its caller owns: the trace header of the
/// context it was made with, then the message one of its methods writes,
/// with room for both reserved exactly before the first byte. Length
/// prefixes are checked, never truncated.
///
/// A [`RoundTrip`] hands its caller's `write` one, bound to the
/// transport's buffer and the caller's trace context.
pub struct Writer<'a> {
    out: &'a mut Vec<u8>,
    ctx: SpanContext,
}

impl<'a> Writer<'a> {
    /// A frame appended to `out`, under the header of `ctx`.
    pub(crate) fn new(out: &'a mut Vec<u8>, ctx: SpanContext) -> Self {
        Self { out, ctx }
    }

    /// Reserves the header and a `body_len`-byte message, and writes the
    /// header: the one place it is written.
    fn begin(&mut self, body_len: usize) {
        self.out.reserve_exact(HEADER_LEN + body_len);
        self.u8(FRAME_TRACED);
        self.put(&self.ctx.trace.0.to_le_bytes());
        self.put(&self.ctx.span.0.to_le_bytes());
    }

    fn u8(&mut self, v: u8) {
        self.out.push(v);
    }

    fn put(&mut self, b: &[u8]) {
        self.out.extend_from_slice(b);
    }

    /// `records` as `N`-byte little-endian records, written into room
    /// made for all of them at once.
    fn records<const N: usize>(&mut self, records: impl ExactSizeIterator<Item = [u8; N]>) {
        let start = self.out.len();
        self.out.resize(start + N * records.len(), 0);
        let (room, _) = self.out[start..].as_chunks_mut::<N>();
        for (dst, r) in room.iter_mut().zip(records) {
            *dst = r;
        }
    }

    /// `words` little-endian, written into room made for all of them at
    /// once, as [`records`](Self::records) are.
    fn words<W: RingWord>(&mut self, words: &[W]) {
        let start = self.out.len();
        self.out.resize(start + words.len() * W::BYTES, 0);
        for (w, out) in words
            .iter()
            .zip(self.out[start..].chunks_exact_mut(W::BYTES))
        {
            w.write_le(out);
        }
    }

    /// A `u32` length prefix, refusing lengths that do not fit rather
    /// than truncating them into a decodable-but-corrupt frame.
    fn len(&mut self, len: usize) -> Result<(), Error> {
        let n = u32::try_from(len).map_err(|_| Error::FrameTooLarge { len })?;
        self.put(&n.to_le_bytes());
        Ok(())
    }

    /// Writes the owned request `req`.
    pub(crate) fn request(self, req: &Request) -> Result<(), Error> {
        match req {
            Request::Load {
                table_addr,
                row_bytes,
                ciphertext,
                tags,
            } => self.load(
                *table_addr,
                *row_bytes,
                ciphertext.as_slice(),
                tags.as_deref().map(|t| t.iter().copied()),
            ),
            Request::WeightedSum {
                table_addr,
                elem_bytes,
                indices,
                weights,
                with_tag,
            } => self.weighted_sum(
                *table_addr,
                *elem_bytes,
                indices.iter().copied(),
                weights.iter().copied(),
                *with_tag,
            ),
            Request::ReadRow { table_addr, row } => {
                self.read_row(*table_addr, *row);
                Ok(())
            }
        }
    }

    pub(crate) fn weighted_sum(
        mut self,
        table_addr: u64,
        elem_bytes: u8,
        indices: impl ExactSizeIterator<Item = u64>,
        weights: impl ExactSizeIterator<Item = u64>,
        with_tag: bool,
    ) -> Result<(), Error> {
        self.begin(1 + 8 + 1 + 1 + 4 + 8 * indices.len() + 4 + 8 * weights.len());
        self.u8(0x02);
        self.put(&table_addr.to_le_bytes());
        self.u8(elem_bytes);
        self.u8(with_tag.into());
        self.len(indices.len())?;
        self.records(indices.map(u64::to_le_bytes));
        self.len(weights.len())?;
        self.records(weights.map(u64::to_le_bytes));
        Ok(())
    }

    /// A `Load` of the image `ciphertext`, its words little-endian.
    fn load<W: RingWord>(
        mut self,
        table_addr: u64,
        row_bytes: u32,
        ciphertext: &[W],
        tags: Option<impl ExactSizeIterator<Item = u128>>,
    ) -> Result<(), Error> {
        let bytes = ciphertext.len() * W::BYTES;
        let tags_len = tags.as_ref().map_or(0, |t| 4 + 16 * t.len());
        self.begin(1 + 8 + 4 + 4 + bytes + 1 + tags_len);
        self.u8(LOAD);
        self.put(&table_addr.to_le_bytes());
        self.put(&row_bytes.to_le_bytes());
        self.len(bytes)?;
        self.words(ciphertext);
        match tags {
            None => self.u8(0),
            Some(tags) => {
                self.u8(1);
                self.len(tags.len())?;
                self.records(tags.map(u128::to_le_bytes));
            }
        }
        Ok(())
    }

    fn read_row(mut self, table_addr: u64, row: u64) {
        self.begin(1 + 8 + 8);
        self.u8(0x03);
        self.put(&table_addr.to_le_bytes());
        self.put(&row.to_le_bytes());
    }

    fn ack(mut self) {
        self.begin(1);
        self.u8(0x81);
    }

    /// A `Sum` reply of the words `c_res`, little-endian.
    fn sum<W: RingWord>(mut self, c_res: &[W], c_t_res: Option<u128>) -> Result<(), Error> {
        let bytes = c_res.len() * W::BYTES;
        self.begin(1 + 4 + bytes + 1 + c_t_res.map_or(0, |_| 16));
        self.u8(0x82);
        self.len(bytes)?;
        self.words(c_res);
        match c_t_res {
            None => self.u8(0),
            Some(t) => {
                self.u8(1);
                self.put(&t.to_le_bytes());
            }
        }
        Ok(())
    }

    fn row(mut self, bytes: &[u8]) -> Result<(), Error> {
        self.begin(1 + 4 + bytes.len());
        self.u8(0x83);
        self.len(bytes.len())?;
        self.put(bytes);
        Ok(())
    }

    fn err(mut self, code: u16) {
        self.begin(1 + 2);
        self.u8(0xFF);
        self.put(&code.to_le_bytes());
    }
}

impl Request {
    /// Serializes the request frame, its trace header's ids zero.
    ///
    /// # Errors
    ///
    /// Returns [`Error::FrameTooLarge`] when a variable-length field does
    /// not fit its `u32` length prefix (a ≥ 4 GiB payload would otherwise
    /// silently truncate into a decodable-but-corrupt frame).
    pub fn encode(&self) -> Result<Vec<u8>, Error> {
        self.encode_traced(SpanContext::NONE)
    }

    /// Serializes the request frame under the header of `ctx`, into a
    /// buffer allocated at the frame's final length.
    ///
    /// # Errors
    ///
    /// Returns [`Error::FrameTooLarge`] as for [`encode`](Self::encode).
    pub fn encode_traced(&self, ctx: SpanContext) -> Result<Vec<u8>, Error> {
        let mut out = Vec::new();
        Writer::new(&mut out, ctx).request(self)?;
        Ok(out)
    }

    /// Parses a request frame, discarding the context its header carries.
    ///
    /// # Errors
    ///
    /// Returns a [`WireError`] for malformed frames.
    pub fn decode(buf: &[u8]) -> Result<Request, WireError> {
        RequestView::parse(buf).map(|(view, _)| view.owned())
    }
}

impl Response {
    /// Serializes the response frame, its trace header's ids zero.
    ///
    /// # Errors
    ///
    /// Returns [`Error::FrameTooLarge`] when a variable-length field does
    /// not fit its `u32` length prefix.
    pub fn encode(&self) -> Result<Vec<u8>, Error> {
        self.encode_traced(SpanContext::NONE)
    }

    /// Serializes the response frame under the header of `ctx`, into a
    /// buffer allocated at the frame's final length.
    ///
    /// # Errors
    ///
    /// Returns [`Error::FrameTooLarge`] as for [`encode`](Self::encode).
    pub fn encode_traced(&self, ctx: SpanContext) -> Result<Vec<u8>, Error> {
        let mut out = Vec::new();
        let w = Writer::new(&mut out, ctx);
        match self {
            Response::Ack => w.ack(),
            Response::Sum { c_res, c_t_res } => w.sum(c_res, *c_t_res)?,
            Response::Row(b) => w.row(b)?,
            Response::Err(code) => w.err(*code),
        }
        Ok(out)
    }

    /// Parses a response frame, discarding the context its header carries.
    ///
    /// # Errors
    ///
    /// Returns a [`WireError`] for malformed frames.
    pub fn decode(buf: &[u8]) -> Result<Response, WireError> {
        ResponseView::parse(buf).map(|(view, _)| view.owned())
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

// ---------------------------------------------------------------------------
// The device side
// ---------------------------------------------------------------------------

/// A device server's buffers, kept across frames: a weighted sum's indices
/// and its weights at each element width, read out of the frame into them.
#[derive(Default)]
pub(crate) struct ServeScratch {
    indices: Vec<usize>,
    w8: Vec<u8>,
    w16: Vec<u16>,
    w32: Vec<u32>,
    w64: Vec<u64>,
}

/// The device-side dispatcher: decodes a request, executes it against
/// `device`, and encodes the response — what the DIMM-side firmware does.
/// It opens an `ndp_serve` child span under the processor-side context
/// the request's header carries, and the reply's header carries the serve
/// span's context back.
///
/// # Errors
///
/// The [`WireError`] of a frame that does not decode.
pub fn serve<D: NdpDevice>(device: &mut D, frame: &[u8]) -> Result<Vec<u8>, WireError> {
    let mut out = Vec::new();
    serve_into(device, frame, &mut ServeScratch::default(), &mut out)?;
    Ok(out)
}

/// [`serve`] into `out` (cleared first), with `scratch` for the request's
/// indices and weights.
fn serve_into<D: NdpDevice>(
    device: &mut D,
    frame: &[u8],
    scratch: &mut ServeScratch,
    out: &mut Vec<u8>,
) -> Result<(), WireError> {
    out.clear();
    let (req, ctx) = RequestView::parse(frame)?;
    let mut sp = trace::span_child_of(trace::names::NDP_SERVE, ctx);
    sp.attr_str("op", req.op());
    let w = Writer::new(out, sp.context());
    match req {
        RequestView::Load {
            table_addr,
            row_bytes,
            ciphertext,
            tags,
        } => {
            let ciphertext = ciphertext.to_vec();
            let tags = tags.map(|ts| ts.iter().map(Fq::new).collect());
            match device.load(table_addr, ciphertext, row_bytes as usize, tags) {
                Ok(()) => w.ack(),
                Err(e) => w.err(error_code(&e)),
            }
            Ok(())
        }
        RequestView::WeightedSum(sum) => dispatch_sum(device, sum, scratch, w),
        RequestView::ReadRow { table_addr, row } => {
            let row = usize::try_from(row).map_err(|_| Error::RowOutOfBounds {
                index: usize::MAX,
                rows: 0,
            });
            match row.and_then(|row| device.read_row(table_addr, row)) {
                Ok(b) => w.row(&b),
                Err(e) => {
                    w.err(error_code(&e));
                    Ok(())
                }
            }
        }
    }
    .map_err(|_| WireError::FrameTooLarge)
}

/// [`serve`] for network servers: a frame that fails to decode still gets
/// a typed [`Response::Err`] reply frame instead of no reply at all, so a
/// remote client sees an `Error::MalformedResponse`-class diagnostic
/// rather than a dropped connection and a timeout. The error reply echoes
/// the request's trace header (zeros when it has none), so even the
/// rejection stitches into the caller's trace.
pub fn serve_or_reply<D: NdpDevice>(device: &mut D, frame: &[u8]) -> Vec<u8> {
    let mut out = Vec::new();
    serve_or_reply_into(device, frame, &mut ServeScratch::default(), &mut out);
    out
}

/// [`serve_or_reply`] into `out`, with `scratch` kept by the caller.
pub(crate) fn serve_or_reply_into<D: NdpDevice>(
    device: &mut D,
    frame: &[u8],
    scratch: &mut ServeScratch,
    out: &mut Vec<u8>,
) {
    if let Err(err) = serve_into(device, frame, scratch, out) {
        let code = match err {
            WireError::BadElemBytes(_) => CODE_BAD_ELEM_BYTES,
            _ => CODE_BAD_FRAME,
        };
        let ctx = read_header(frame).map_or(SpanContext::NONE, |(ctx, _)| ctx);
        out.clear();
        Writer::new(out, ctx).err(code);
    }
}

/// Executes a weighted sum at the declared width, its indices and weights
/// read into `scratch`, and writes the reply with `w`. Decoding already
/// rejects widths outside {1, 2, 4, 8}; a width that gets here anyway is
/// answered with an error code, never coerced.
fn dispatch_sum<D: NdpDevice>(
    device: &D,
    sum: SumView<'_>,
    scratch: &mut ServeScratch,
    w: Writer<'_>,
) -> Result<(), Error> {
    // The wire's `u64` row indices become host `usize`s, refused (rather
    // than truncated) when they do not fit: on a 32-bit device `as usize`
    // would alias row `2^32 + k` onto row `k`.
    scratch.indices.clear();
    for i in sum.indices.iter() {
        match usize::try_from(i) {
            Ok(i) => scratch.indices.push(i),
            Err(_) => {
                w.err(error_code(&Error::RowOutOfBounds {
                    index: usize::MAX,
                    rows: 0,
                }));
                return Ok(());
            }
        }
    }
    let idx = &scratch.indices;
    match sum.elem_bytes {
        1 => run_sum(device, &sum, idx, &mut scratch.w8, w),
        2 => run_sum(device, &sum, idx, &mut scratch.w16, w),
        4 => run_sum(device, &sum, idx, &mut scratch.w32, w),
        8 => run_sum(device, &sum, idx, &mut scratch.w64, w),
        _ => {
            w.err(CODE_BAD_ELEM_BYTES);
            Ok(())
        }
    }
}

/// Runs the sum at width `W`, its weights read into `buf` (the reader has
/// checked each fits `W`), and writes the reply.
fn run_sum<W: RingWord, D: NdpDevice>(
    device: &D,
    sum: &SumView<'_>,
    indices: &[usize],
    buf: &mut Vec<W>,
    w: Writer<'_>,
) -> Result<(), Error> {
    buf.clear();
    buf.extend(sum.weights.iter().map(W::from_u64));
    match device.weighted_sum::<W>(sum.table_addr, indices, buf, sum.with_tag) {
        Ok(r) => w.sum(&r.c_res, r.c_t_res.map(Fq::value)),
        Err(e) => {
            w.err(error_code(&e));
            Ok(())
        }
    }
}

// ---------------------------------------------------------------------------
// The client side
// ---------------------------------------------------------------------------

/// One request out, its reply read where it lies: the single method every
/// path to a device behind the wire implements — [`RemoteNdp`]'s inline
/// service on the caller's thread, and an
/// [`Endpoint`](crate::endpoint::Endpoint) over any link. Everything that
/// implements it is an [`NdpDevice`] through the one facade below.
pub trait RoundTrip {
    /// Carries one request to the device: `write` is called once, to
    /// write it with the [`Writer`] it is handed — bound to the
    /// transport's buffer and the caller's trace context — and `read` is
    /// handed the reply frame where it lies. An endpoint sends a `Load` to
    /// every rank and hands `read` each rank's reply.
    ///
    /// # Errors
    ///
    /// Transport failures, typed, and whatever `write` or `read` returns
    /// (for a `Load`, the first rank's that failed).
    fn round_trip(
        &self,
        write: &mut dyn FnMut(Writer<'_>) -> Result<(), Error>,
        read: &mut dyn FnMut(&[u8]) -> Result<(), Error>,
    ) -> Result<(), Error>;
}

/// Parses a reply frame from the untrusted device in place, mapping any
/// wire-level failure to a typed error. A malicious or faulty device must
/// never be able to panic the trusted side by sending garbage.
fn parse_reply(reply: &[u8]) -> Result<ResponseView<'_>, Error> {
    ResponseView::parse(reply)
        .map(|(view, _)| view)
        .map_err(|_| crate::metrics::malformed("undecodable reply frame"))
}

/// [`parse_reply`], copied out.
pub(crate) fn decode_reply(reply: &[u8]) -> Result<Response, Error> {
    parse_reply(reply).map(ResponseView::owned)
}

/// Reads the reply to a weighted sum where it lies: its `C_res` words are
/// checked against `acc`'s width and added into it, and its `C_T_res` is
/// returned. Nothing is allocated.
pub(crate) fn add_sum_reply<W: RingWord>(
    reply: &[u8],
    table_addr: u64,
    acc: &mut [W],
) -> Result<Option<Fq>, Error> {
    add_sum(parse_reply(reply)?, table_addr, acc)
}

/// [`add_sum_reply`] on a parsed reply.
fn add_sum<W: RingWord>(
    reply: ResponseView<'_>,
    table_addr: u64,
    acc: &mut [W],
) -> Result<Option<Fq>, Error> {
    let c_res = sum_reply::<W>(reply, table_addr, |c_res| {
        if c_res.len() / W::BYTES != acc.len() {
            return Err(crate::metrics::malformed(
                "result width differs from table columns",
            ));
        }
        for (x, c) in acc.iter_mut().zip(c_res.chunks_exact(W::BYTES)) {
            *x = x.wadd(W::from_le_slice(c));
        }
        Ok(())
    })?;
    Ok(c_res.map(Fq::new))
}

/// Interprets a reply to a weighted-sum request: `use_c_res` gets the
/// result bytes once they are known to be whole elements of `W`, and the
/// tag is returned.
fn sum_reply<W: RingWord>(
    reply: ResponseView<'_>,
    table_addr: u64,
    use_c_res: impl FnOnce(&[u8]) -> Result<(), Error>,
) -> Result<Option<u128>, Error> {
    match reply {
        // The device chose `c_res`'s length, so a ragged one is refused
        // before anything reads it as elements.
        ResponseView::Sum { c_res, .. } if c_res.len() % W::BYTES != 0 => Err(
            crate::metrics::malformed("result bytes are not a whole number of elements"),
        ),
        ResponseView::Sum { c_res, c_t_res } => use_c_res(c_res).map(|()| c_t_res),
        ResponseView::Err(code) => Err(error_from_code(code, table_addr)),
        ResponseView::Ack => Err(crate::metrics::malformed("ack for a sum request")),
        ResponseView::Row(_) => Err(crate::metrics::malformed("wrong response kind")),
    }
}

/// The blocking device facade over any [`RoundTrip`]: each trait call
/// writes one request from the caller's arguments under a
/// `wire_round_trip` span and reads the reply where it lies, so
/// trait-generic code — the whole e2e suite — runs over every transport
/// unchanged.
impl<T: RoundTrip> NdpDevice for T {
    fn load(
        &mut self,
        table_addr: u64,
        ciphertext: Vec<u8>,
        row_bytes: usize,
        tags: Option<Vec<Fq>>,
    ) -> Result<(), Error> {
        load_round_trip::<u8, _, _>(self, table_addr, row_bytes, (ciphertext, tags))
    }

    fn load_words<W: RingWord>(
        &mut self,
        table_addr: u64,
        ciphertext: &[W],
        row_bytes: usize,
        tags: Option<&[Fq]>,
    ) -> Result<(), Error> {
        load_round_trip(self, table_addr, row_bytes, (ciphertext, tags))
    }

    fn weighted_sum<W: RingWord>(
        &self,
        table_addr: u64,
        indices: &[usize],
        weights: &[W],
        with_tag: bool,
    ) -> Result<NdpResponse<W>, Error> {
        let mut c_res = Vec::new();
        let c_t_res = sum_round_trip(self, table_addr, indices, weights, with_tag, |reply| {
            sum_reply::<W>(reply, table_addr, |bytes| {
                c_res = bytes.chunks_exact(W::BYTES).map(W::from_le_slice).collect();
                Ok(())
            })
        })?;
        Ok(NdpResponse {
            c_res,
            c_t_res: c_t_res.map(Fq::new),
        })
    }

    fn weighted_sum_into<W: RingWord>(
        &self,
        table_addr: u64,
        indices: &[usize],
        weights: &[W],
        with_tag: bool,
        acc: &mut [W],
    ) -> Result<Option<Fq>, Error> {
        sum_round_trip(self, table_addr, indices, weights, with_tag, |reply| {
            add_sum(reply, table_addr, acc)
        })
    }

    fn read_row(&self, table_addr: u64, row: usize) -> Result<Vec<u8>, Error> {
        call(
            self,
            |w| {
                w.read_row(table_addr, row as u64);
                Ok(())
            },
            |reply| match reply {
                ResponseView::Row(b) => Ok(b.to_vec()),
                ResponseView::Err(code) => Err(error_from_code(code, table_addr)),
                _ => Err(crate::metrics::malformed("wrong response kind")),
            },
        )
    }
}

/// One facade call's round trip, under its span: the request written by
/// `write`, each reply parsed where it lies and handed to `read`, whose
/// answer is returned.
fn call<R>(
    via: &impl RoundTrip,
    mut write: impl FnMut(Writer<'_>) -> Result<(), Error>,
    mut read: impl FnMut(ResponseView<'_>) -> Result<R, Error>,
) -> Result<R, Error> {
    let _sp = trace::span(trace::names::WIRE_ROUND_TRIP);
    let mut out = None;
    via.round_trip(&mut write, &mut |reply| {
        out = Some(read(parse_reply(reply)?)?);
        Ok(())
    })?;
    out.ok_or_else(|| crate::metrics::malformed("no reply to a request"))
}

/// A `Load`'s round trip: the frame written straight from `image`, the
/// table's words and tags, borrowed or owned. An owned image goes as soon
/// as it is in the frame, before the frame is served: the device keeps a
/// copy of its own.
fn load_round_trip<W: RingWord, C: AsRef<[W]>, T: AsRef<[Fq]>>(
    via: &impl RoundTrip,
    table_addr: u64,
    row_bytes: usize,
    image: (C, Option<T>),
) -> Result<(), Error> {
    // Validate shape before the round trip: the wire error code carries
    // no payload, so a local check preserves the faithful field values
    // (and skips shipping a torn table to the device at all).
    validate_load(image.0.as_ref().len() * W::BYTES, row_bytes)?;
    let mut image = Some(image);
    call(
        via,
        |w| {
            let (ciphertext, tags) = image.take().ok_or(Error::MalformedResponse {
                reason: "load frame written twice",
            })?;
            let tags = tags.as_ref().map(|t| t.as_ref().iter().map(|t| t.value()));
            w.load(table_addr, row_bytes as u32, ciphertext.as_ref(), tags)
        },
        |reply| match reply {
            ResponseView::Ack => Ok(()),
            ResponseView::Err(code) => Err(error_from_code(code, table_addr)),
            _ => Err(crate::metrics::malformed("unexpected load reply")),
        },
    )
}

/// A weighted sum's round trip: the request written from `indices` and
/// `weights`, the reply handed to `read`.
fn sum_round_trip<W: RingWord, R>(
    via: &impl RoundTrip,
    table_addr: u64,
    indices: &[usize],
    weights: &[W],
    with_tag: bool,
    read: impl FnMut(ResponseView<'_>) -> Result<R, Error>,
) -> Result<R, Error> {
    call(
        via,
        |w| {
            w.weighted_sum(
                table_addr,
                W::BYTES as u8,
                indices.iter().map(|&i| i as u64),
                weights.iter().map(|w| w.as_u64()),
                with_tag,
            )
        },
        read,
    )
}

/// A device adaptor that forces every interaction through the byte-exact
/// wire format, proving the protocol carries everything it needs.
///
/// The caller picks the transport, once, at construction:
/// [`inline`](Self::inline) serves each frame on the caller's thread, and
/// [`tcp_backed`] rides an [`Endpoint`](crate::endpoint::Endpoint) over
/// sockets (to a remote server, or to a private loopback one from
/// [`TcpEndpoint::self_hosted`]). `D` names the device type behind the
/// wire; for a remote server it is only a label.
///
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

    /// Wraps a TCP endpoint.
    pub fn tcp_backed(ep: TcpEndpoint) -> Self {
        Self::over(ep)
    }
}

impl<D: NdpDevice + Send + 'static> RemoteNdp<D> {
    /// Wraps a device behind the blocking inline transport: an
    /// [`InlineLink`] serving each frame on the caller's thread.
    pub fn inline(inner: D) -> Self {
        Self::over(InlineLink::new(vec![inner]))
    }
}

impl<D> RoundTrip for RemoteNdp<D> {
    fn round_trip(
        &self,
        write: &mut dyn FnMut(Writer<'_>) -> Result<(), Error>,
        read: &mut dyn FnMut(&[u8]) -> Result<(), Error>,
    ) -> Result<(), Error> {
        self.via.round_trip(write, read)
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
mod tests {
    use super::*;
    use crate::device::HonestNdp;
    use crate::endpoint::EndpointConfig;
    use crate::keys::SecretKey;
    use crate::protocol::TrustedProcessor;
    use proptest::prelude::*;
    use secndp_arith::ring::words_to_le_bytes;

    /// An honest device behind each link, named: served on the caller's
    /// thread, and over a loopback socket to a private `NetServer`.
    fn each_link() -> [(&'static str, RemoteNdp<HonestNdp>); 2] {
        let tcp = TcpEndpoint::self_hosted(HonestNdp::new(), EndpointConfig::default())
            .expect("loopback bind");
        [
            ("inline", RemoteNdp::inline(HonestNdp::new())),
            ("tcp", RemoteNdp::tcp_backed(tcp)),
        ]
    }

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

    /// Malformed frames are typed errors on both decoders, and a server
    /// answers each with `CODE_BAD_FRAME`: the empty frame, a frame without
    /// the trace header (any first byte but `0x7E`, the bare messages the
    /// header used to be optional in front of included), a truncated
    /// header, a truncated message, trailing junk and an absurd length.
    #[test]
    fn malformed_frames_rejected() {
        let mut dev = HonestNdp::new();
        let mut refused = |f: &[u8], err: WireError| {
            assert_eq!(Request::decode(f), Err(err), "{f:02x?}");
            assert_eq!(Response::decode(f), Err(err), "{f:02x?}");
            assert_eq!(
                Response::decode(&serve_or_reply(&mut dev, f)).unwrap(),
                Response::Err(CODE_BAD_FRAME),
                "{f:02x?}"
            );
        };
        refused(&[], WireError::Truncated);
        refused(&[0x42], WireError::MissingHeader(0x42));
        for tag in [0x01, 0x02, 0x03, 0x81, 0x82, 0x83, 0xFF] {
            refused(&[tag, 0, 0], WireError::MissingHeader(tag));
        }
        for req in sample_requests() {
            let f = req.encode().unwrap();
            refused(&f[HEADER_LEN..], WireError::MissingHeader(f[HEADER_LEN]));
        }
        for resp in sample_responses() {
            let f = resp.encode().unwrap();
            assert_eq!(
                Response::decode(&f[HEADER_LEN..]),
                Err(WireError::MissingHeader(f[HEADER_LEN]))
            );
        }
        for cut in 1..HEADER_LEN {
            refused(&[FRAME_TRACED; HEADER_LEN][..cut], WireError::Truncated);
        }
        // Truncated read-row.
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
        assert_eq!(
            Response::decode(&envelope(SpanContext::NONE, &f)),
            Err(WireError::BadLength)
        );
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
        // Byte 9 of the message is elem_bytes (tag + 8-byte addr).
        for bad in [0u8, 3, 5, 6, 7, 9, 16, 255] {
            let mut f = good.clone();
            f[HEADER_LEN + 9] = bad;
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
            f[HEADER_LEN + 9] = ok;
            assert!(Request::decode(&f).is_ok());
        }
        // Defense in depth: a device invoked below the decoder (a request
        // built by hand) still answers Err(7), never a coerced result.
        let one = 1u64.to_le_bytes();
        let sum = SumView {
            table_addr: 42,
            elem_bytes: 3,
            indices: Records(&[0; 8]),
            weights: Records(&one),
            with_tag: false,
        };
        let mut reply = Vec::new();
        let w = Writer::new(&mut reply, SpanContext::NONE);
        dispatch_sum(&HonestNdp::new(), sum, &mut ServeScratch::default(), w).unwrap();
        assert_eq!(
            Response::decode(&reply).unwrap(),
            Response::Err(CODE_BAD_ELEM_BYTES)
        );
        assert!(matches!(
            error_from_code(CODE_BAD_ELEM_BYTES, 42),
            Error::MalformedResponse {
                reason: "unsupported element width"
            }
        ));
    }

    /// A weight wider than the frame's element width is refused at
    /// decode, and a server answers `CODE_BAD_FRAME`: truncating it to the
    /// element (weight 256 at one byte was served as weight 0, a `Sum` of
    /// zeros) would compute a different query than the one framed.
    #[test]
    fn weights_wider_than_the_element_are_refused() {
        let mut dev = HonestNdp::new();
        dev.load(0x40, vec![9u8; 64], 16, None).unwrap();
        for elem_bytes in [1u8, 2, 4, 8] {
            let widest = u64::MAX >> (64 - 8 * u32::from(elem_bytes));
            let frame = |weight: u64| {
                Request::WeightedSum {
                    table_addr: 0x40,
                    elem_bytes,
                    indices: vec![1, 2],
                    weights: vec![1, weight],
                    with_tag: false,
                }
                .encode()
                .unwrap()
            };
            let fits = frame(widest);
            assert!(Request::decode(&fits).is_ok(), "width {elem_bytes}");
            assert!(matches!(
                Response::decode(&serve_or_reply(&mut dev, &fits)).unwrap(),
                Response::Sum { .. }
            ));
            if elem_bytes == 8 {
                continue;
            }
            let wide = frame(widest + 1);
            assert_eq!(
                Request::decode(&wide),
                Err(WireError::BadWeight(widest + 1)),
                "width {elem_bytes}"
            );
            assert_eq!(
                serve(&mut dev, &wide),
                Err(WireError::BadWeight(widest + 1))
            );
            assert_eq!(
                Response::decode(&serve_or_reply(&mut dev, &wide)).unwrap(),
                Response::Err(CODE_BAD_FRAME)
            );
        }
    }

    /// A flag byte is 0 or 1: a `with_tag` of 2, a `Load`'s tags-present
    /// byte of 2 and a `Sum` reply's tag-present byte of 2 are refused —
    /// they used to decode as `true`. A server answers such a request with
    /// `CODE_BAD_FRAME`, and the client refuses such a reply as malformed.
    #[test]
    fn flag_bytes_other_than_zero_or_one_are_refused() {
        let mut dev = HonestNdp::new();
        let sum = Request::WeightedSum {
            table_addr: 42,
            elem_bytes: 4,
            indices: vec![0],
            weights: vec![1],
            with_tag: true,
        }
        .encode()
        .unwrap();
        // Byte 10 of the message is with_tag (tag, 8-byte addr, elem_bytes).
        let load = Request::Load {
            table_addr: 0,
            row_bytes: 4,
            ciphertext: vec![1, 2, 3, 4],
            tags: Some(vec![5]),
        }
        .encode()
        .unwrap();
        // Byte 21 of the message is tags-present (tag, addr, row_bytes,
        // length, 4 bytes).
        for (mut frame, at) in [(sum, HEADER_LEN + 10), (load, HEADER_LEN + 21)] {
            assert_eq!(frame[at], 1);
            for bad in [2u8, 0x80, 0xFF] {
                frame[at] = bad;
                assert_eq!(Request::decode(&frame), Err(WireError::BadFlag(bad)));
                assert_eq!(
                    Response::decode(&serve_or_reply(&mut dev, &frame)).unwrap(),
                    Response::Err(CODE_BAD_FRAME)
                );
            }
        }
        let mut reply = Response::Sum {
            c_res: vec![0; 4],
            c_t_res: Some(7),
        }
        .encode()
        .unwrap();
        // Byte 9 of the message is tag-present (tag, length, 4 bytes).
        assert_eq!(reply[HEADER_LEN + 9], 1);
        reply[HEADER_LEN + 9] = 2;
        assert_eq!(Response::decode(&reply), Err(WireError::BadFlag(2)));
        assert!(matches!(
            add_sum_reply(&reply, 42, &mut [0u32]),
            Err(Error::MalformedResponse {
                reason: "undecodable reply frame"
            })
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
        f[HEADER_LEN + 9] = 3; // the message's byte 9 is elem_bytes
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
        // A traced request's error reply echoes the trace header.
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
        broken[HEADER_LEN + 9] = 3;
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
        let mut f = envelope(SpanContext::NONE, &[0x02]);
        f.extend_from_slice(&7u64.to_le_bytes()); // table_addr
        f.push(4); // elem_bytes
        f.push(0); // with_tag
        f.extend_from_slice(&u32::MAX.to_le_bytes()); // indices count
        assert_eq!(Request::decode(&f), Err(WireError::BadLength));
        // Same for the weights count after a valid (empty) indices vector.
        let mut f = envelope(SpanContext::NONE, &[0x02]);
        f.extend_from_slice(&7u64.to_le_bytes());
        f.push(4);
        f.push(0);
        f.extend_from_slice(&0u32.to_le_bytes()); // indices: none
        f.extend_from_slice(&u32::MAX.to_le_bytes()); // weights count
        assert_eq!(Request::decode(&f), Err(WireError::BadLength));
        // Load with an absurd tag count: `count × 16` would overflow a
        // 32-bit usize — checked_mul turns that into BadLength, not a wrap.
        let mut f = envelope(SpanContext::NONE, &[0x01]);
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
        let mut w = Writer::new(&mut out, SpanContext::NONE);
        assert!(w.len(u32::MAX as usize).is_ok());
        let too_big = u32::MAX as usize + 1;
        assert!(matches!(
            w.len(too_big),
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
        // through byte frames — and still verifies, on either link.
        for (link, mut remote) in each_link() {
            let mut cpu = TrustedProcessor::new(SecretKey::from_bytes([0x61; 16]));
            let pt: Vec<u32> = (0..48).map(|x| x * 7 + 2).collect();
            let table = cpu.encrypt_table(&pt, 6, 8, 0x9000).unwrap();
            let handle = cpu.publish(&table, &mut remote).unwrap();
            let res = cpu
                .weighted_sum(&handle, &remote, &[0, 3, 5], &[1u32, 2, 3], true)
                .unwrap();
            for j in 0..8 {
                assert_eq!(res[j], pt[j] + 2 * pt[24 + j] + 3 * pt[40 + j], "{link}");
            }
            // Row reads too.
            assert_eq!(
                cpu.read_row::<u32, _>(&handle, &remote, 2).unwrap(),
                &pt[16..24],
                "{link}"
            );
            // Device errors survive the wire as typed errors.
            assert!(
                matches!(
                    remote.weighted_sum::<u32>(0xdead, &[0], &[1], false),
                    Err(Error::UnknownTable { .. })
                ),
                "{link}"
            );
        }
    }

    #[test]
    fn wire_works_at_all_widths() {
        for (link, mut remote) in each_link() {
            let mut cpu = TrustedProcessor::new(SecretKey::from_bytes([0x62; 16]));
            let pt: Vec<u64> = (0..16).collect();
            let table = cpu.encrypt_table(&pt, 4, 4, 0).unwrap();
            let handle = cpu.publish(&table, &mut remote).unwrap();
            let res = cpu
                .weighted_sum(&handle, &remote, &[3], &[2u64], true)
                .unwrap();
            assert_eq!(res, vec![24, 26, 28, 30], "{link}");
        }
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
                let frame = resp.encode().unwrap();
                assert!(decode_reply(&frame).is_ok());
                assert!(
                    matches!(
                        add_sum_reply(&frame, 0x100, &mut [W::ZERO; 4]),
                        Err(Error::MalformedResponse {
                            reason: "result bytes are not a whole number of elements"
                        })
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
        for (link, mut remote) in each_link() {
            // row_bytes does not divide the image: rejected before the
            // round trip, with the faithful field values the wire code
            // cannot carry.
            assert!(
                matches!(
                    remote.load(0x100, vec![0u8; 10], 16, None),
                    Err(Error::ShapeMismatch {
                        got: 10,
                        expected: 16
                    })
                ),
                "{link}"
            );
            // A valid load still acks.
            remote.load(0x100, vec![0u8; 32], 16, None).unwrap();
        }
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
    }

    /// `inner` behind the trace header of `ctx`, whatever it is — for
    /// frames the encoder never makes, such as a doubled header.
    fn envelope(ctx: SpanContext, inner: &[u8]) -> Vec<u8> {
        let mut out = Vec::new();
        Writer::new(&mut out, ctx).begin(inner.len());
        out.extend_from_slice(inner);
        out
    }

    /// A request frame parsed and copied out, with the context its header
    /// carries.
    fn parse_request(buf: &[u8]) -> Result<(Request, SpanContext), WireError> {
        RequestView::parse(buf).map(|(view, ctx)| (view.owned(), ctx))
    }

    /// A response frame parsed and copied out, with its header's context.
    fn parse_response(buf: &[u8]) -> Result<(Response, SpanContext), WireError> {
        ResponseView::parse(buf).map(|(view, ctx)| (view.owned(), ctx))
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

    /// Every frame carries the trace header: a traced frame round-trips
    /// with its context, an untraced one is the same frame with zero ids,
    /// and the message without its header is refused by both decoders —
    /// and answered `CODE_BAD_FRAME` by a server — as is a bare or
    /// truncated header.
    #[test]
    fn traced_frames_round_trip_and_interoperate() {
        let ctx = SpanContext {
            trace: TraceId(0xAABB_CCDD_EEFF_0011),
            span: SpanId(0x7788_99AA_BBCC_DDEE),
        };
        let mut dev = HonestNdp::new();
        let zero_ids = |f: &[u8]| f[1..HEADER_LEN].iter().all(|&b| b == 0);
        for req in sample_requests() {
            let traced = req.encode_traced(ctx).unwrap();
            assert_eq!(traced[0], FRAME_TRACED);
            assert_eq!(parse_request(&traced).unwrap(), (req.clone(), ctx));
            assert_eq!(Request::decode(&traced).unwrap(), req);
            // No context: the same frame, its ids zero.
            let plain = req.encode().unwrap();
            assert_eq!(req.encode_traced(SpanContext::NONE).unwrap(), plain);
            assert_eq!(plain[0], FRAME_TRACED);
            assert!(zero_ids(&plain));
            assert_eq!(plain[HEADER_LEN..], traced[HEADER_LEN..]);
            assert_eq!(
                parse_request(&plain).unwrap(),
                (req.clone(), SpanContext::NONE)
            );
            // The message alone is no frame.
            let bare = &plain[HEADER_LEN..];
            let missing = WireError::MissingHeader(bare[0]);
            assert_eq!(Request::decode(bare), Err(missing));
            assert_eq!(Response::decode(bare), Err(missing));
            let reply = serve_or_reply(&mut dev, bare);
            assert!(zero_ids(&reply));
            assert_eq!(
                Response::decode(&reply).unwrap(),
                Response::Err(CODE_BAD_FRAME)
            );
        }
        for resp in sample_responses() {
            let traced = resp.encode_traced(ctx).unwrap();
            assert_eq!(parse_response(&traced).unwrap(), (resp.clone(), ctx));
            assert_eq!(Response::decode(&traced).unwrap(), resp);
            let plain = resp.encode().unwrap();
            assert_eq!(resp.encode_traced(SpanContext::NONE).unwrap(), plain);
            assert!(zero_ids(&plain));
            assert_eq!(plain[HEADER_LEN..], traced[HEADER_LEN..]);
            let bare = &plain[HEADER_LEN..];
            assert_eq!(
                Response::decode(bare),
                Err(WireError::MissingHeader(bare[0]))
            );
        }
        // A bare or truncated header is Truncated, not a panic.
        assert_eq!(Request::decode(&[FRAME_TRACED]), Err(WireError::Truncated));
        assert_eq!(
            Response::decode(&[FRAME_TRACED, 1, 2, 3]),
            Err(WireError::Truncated)
        );
        // A header cannot nest: the message behind it must start with a
        // message tag.
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

    /// Every request and response shape, with and without a context,
    /// encodes to the bytes of the earlier encoder that wrote the header
    /// only for a non-empty context — its traced frame, with zero ids when
    /// there is no context (the digest was taken on that commit) — into
    /// one buffer allocated at the frame's final size.
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
        assert_eq!(digest, 0xB08B_0ACB_7769_7C7E, "{digest:#018x}");
    }

    /// A device behind the wire that keeps the last frame written to it,
    /// and the context it was written under, and acknowledges it.
    #[derive(Default)]
    struct LastFrame(std::sync::Mutex<(Vec<u8>, SpanContext)>);

    impl RoundTrip for LastFrame {
        fn round_trip(
            &self,
            write: &mut dyn FnMut(Writer<'_>) -> Result<(), Error>,
            read: &mut dyn FnMut(&[u8]) -> Result<(), Error>,
        ) -> Result<(), Error> {
            let ctx = trace::current();
            let mut last = self.0.lock().unwrap();
            last.0.clear();
            last.1 = ctx;
            write(Writer::new(&mut last.0, ctx))?;
            read(&Response::Ack.encode().unwrap())
        }
    }

    /// The `Load` frame `publish` writes from a table's words and tags is,
    /// byte for byte, the owned request's frame over the table's byte
    /// image, at every width, tagged and untagged, on a base that starts
    /// mid-block; and the facade's `load` of that byte image writes it
    /// too.
    #[test]
    fn load_frames_written_from_words_match_the_owned_request() {
        fn check<W: RingWord>() {
            let mut cpu = TrustedProcessor::new(SecretKey::derive_from_seed(0x10AD));
            let (base, rows, cols) = (0x2003u64, 5usize, 7usize);
            let pt: Vec<W> = (0..(rows * cols) as u64)
                .map(|i| W::from_u64(i.wrapping_mul(0x9E37_79B9_7F4A_7C15)))
                .collect();
            let tagged = cpu.encrypt_table(&pt, rows, cols, base + 0x1000).unwrap();
            let untagged = cpu.encrypt_table_untagged(&pt, rows, cols, base).unwrap();
            for table in [tagged, untagged] {
                let at = format!("u{} tagged {}", W::BITS, table.tags().is_some());
                let (addr, row_bytes) = (table.layout().base_addr(), table.layout().row_bytes());
                let image = words_to_le_bytes(table.ciphertext());
                let want = |ctx| {
                    Request::Load {
                        table_addr: addr,
                        row_bytes: row_bytes as u32,
                        ciphertext: image.clone(),
                        tags: table.tags().map(|t| t.iter().map(|t| t.value()).collect()),
                    }
                    .encode_traced(ctx)
                    .unwrap()
                };
                let mut dev = LastFrame::default();
                cpu.publish(&table, &mut dev).unwrap();
                let (frame, ctx) = dev.0.lock().unwrap().clone();
                assert_eq!(frame, want(ctx), "{at}: publish");
                let tags = table.tags().map(<[Fq]>::to_vec);
                dev.load(addr, image.clone(), row_bytes, tags).unwrap();
                let (frame, ctx) = dev.0.lock().unwrap().clone();
                assert_eq!(frame, want(ctx), "{at}: load");
            }
        }
        check::<u8>();
        check::<u16>();
        check::<u32>();
        check::<u64>();
    }

    /// A frame's length does not depend on its context: `encode`, and
    /// `encode_traced` with and without one, agree for every shape, and
    /// the shapes the ledger sends have the lengths it reports.
    #[test]
    fn frame_lengths_do_not_depend_on_the_context() {
        let ctx = SpanContext {
            trace: TraceId(3),
            span: SpanId(4),
        };
        let sum = |pf: u64| Request::WeightedSum {
            table_addr: 0x4000,
            elem_bytes: 4,
            indices: (0..pf).collect(),
            weights: vec![1; pf as usize],
            with_tag: true,
        };
        let reply = |cols: usize| Response::Sum {
            c_res: vec![0; cols * 4],
            c_t_res: Some(1),
        };
        let load = Request::Load {
            table_addr: 0x4000,
            row_bytes: 128,
            ciphertext: vec![0; 8192 * 128],
            tags: Some(vec![0; 8192]),
        };
        let mut requests = sample_requests();
        requests.extend([sum(80), sum(8), sum(1), load]);
        let mut responses = sample_responses();
        responses.extend([reply(32), reply(8)]);
        let mut lens = Vec::new();
        for req in &requests {
            let len = req.encode().unwrap().len();
            assert_eq!(req.encode_traced(SpanContext::NONE).unwrap().len(), len);
            assert_eq!(req.encode_traced(ctx).unwrap().len(), len);
            lens.push(len);
        }
        for resp in &responses {
            let len = resp.encode().unwrap().len();
            assert_eq!(resp.encode_traced(SpanContext::NONE).unwrap().len(), len);
            assert_eq!(resp.encode_traced(ctx).unwrap().len(), len);
            lens.push(len);
        }
        // PF-80, PF-8 and PF-1 sums, the tagged 8192 × 128 B load, then
        // the ack and the 32- and 8-column sum replies.
        let n = sample_requests().len();
        assert_eq!(lens[n..n + 4], [1316, 164, 52, 1_179_687]);
        assert_eq!(lens[n + 4], 18);
        let m = lens.len();
        assert_eq!(lens[m - 2..], [167, 71]);
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
        // 2) Every strict prefix of every canonical frame (with and
        //    without a context) fails to decode: no prefix of a valid
        //    frame is silently accepted as a different valid frame.
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

    /// The trace header gets its own fuzz matrix: missing, truncated,
    /// duplicated and garbage headers are typed errors (never a panic) on
    /// both decoders, a server answers a headerless frame `CODE_BAD_FRAME`,
    /// and header *content* is opaque (any 16 bytes decode as ids).
    /// Deterministic: the random stage is LCG-driven.
    #[test]
    fn traced_envelope_fuzz_matrix() {
        let ctx = SpanContext {
            trace: TraceId(0xAAAA),
            span: SpanId(0xBBBB),
        };
        // 1) Every truncated header — the tag alone plus 0..16 header
        //    bytes — is Truncated for requests and responses alike.
        for extra in 0..(HEADER_LEN - 1) {
            let mut frame = vec![FRAME_TRACED];
            frame.extend((0..extra).map(|i| i as u8));
            assert_eq!(
                Request::decode(&frame),
                Err(WireError::Truncated),
                "request header with {extra} bytes"
            );
            assert_eq!(
                Response::decode(&frame),
                Err(WireError::Truncated),
                "response header with {extra} bytes"
            );
        }
        // 2) Header content is opaque: any 16 garbage bytes in front of a
        //    valid message decode cleanly, and the ids round-trip
        //    verbatim — no interpretation, no validation, no panic.
        let inner_req = Request::ReadRow {
            table_addr: 7,
            row: 9,
        };
        let inner = inner_req.encode().unwrap();
        for fill in [0x00u8, 0x7E, 0xA5, 0xFF] {
            let mut frame = vec![FRAME_TRACED];
            frame.extend([fill; HEADER_LEN - 1]);
            frame.extend(&inner[HEADER_LEN..]);
            let (req, got) = parse_request(&frame).unwrap();
            assert_eq!(req, inner_req);
            let expect = u64::from_le_bytes([fill; 8]);
            assert_eq!(got.trace, TraceId(expect));
            assert_eq!(got.span, SpanId(expect));
        }
        // 3) Headers do not nest, for both frame families: the duplicate
        //    tag is a typed BadTag.
        for req in sample_requests() {
            let doubled = envelope(ctx, &req.encode_traced(ctx).unwrap());
            assert_eq!(
                Request::decode(&doubled),
                Err(WireError::BadTag(FRAME_TRACED))
            );
            assert_eq!(
                parse_request(&doubled).map(|(r, _)| r),
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
        // 4) A well-formed header around a garbage message fails with the
        //    message decoder's typed error — the header must not mask or
        //    transform it.
        let mut garbage_inner = vec![FRAME_TRACED];
        garbage_inner.extend([0x11; HEADER_LEN - 1]);
        garbage_inner.extend([0xEE, 0xEE, 0xEE]);
        assert_eq!(
            Request::decode(&garbage_inner),
            Err(WireError::BadTag(0xEE))
        );
        // 5) Without its header no frame decodes: a frame is the header
        //    then the message, and the message alone — with any first byte
        //    but the header's tag — is MissingHeader to both decoders and
        //    CODE_BAD_FRAME to a server.
        let mut dev = HonestNdp::new();
        for f in sample_requests()
            .iter()
            .map(|r| r.encode_traced(ctx).unwrap())
            .chain(
                sample_responses()
                    .iter()
                    .map(|r| r.encode_traced(ctx).unwrap()),
            )
        {
            let bare = &f[HEADER_LEN..];
            for decoded in [
                Request::decode(bare).map(|_| ()),
                Response::decode(bare).map(|_| ()),
            ] {
                assert_eq!(decoded, Err(WireError::MissingHeader(bare[0])));
            }
            assert_eq!(
                Response::decode(&serve_or_reply(&mut dev, bare)).unwrap(),
                Response::Err(CODE_BAD_FRAME)
            );
        }
        // 6) LCG-driven random frames, with and without the header tag:
        //    never a panic, and without it always MissingHeader.
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
            let _ = parse_request(&bytes);
            let _ = Request::decode(&bytes);
            let _ = Response::decode(&bytes);
            let first = next() | 0x80;
            bytes[0] = first;
            assert_eq!(
                Request::decode(&bytes),
                Err(WireError::MissingHeader(first))
            );
            assert_eq!(
                Response::decode(&bytes),
                Err(WireError::MissingHeader(first))
            );
        }
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
            w in proptest::collection::vec(any::<u32>(), 0..32),
            with_tag in any::<bool>(),
        ) {
            // Weights of the frame's 4-byte elements: a wider one is
            // refused (`weights_wider_than_the_element_are_refused`).
            let f = Request::WeightedSum {
                table_addr,
                elem_bytes: 4,
                indices: idx,
                weights: w.into_iter().map(u64::from).collect(),
                with_tag,
            };
            prop_assert_eq!(Request::decode(&f.encode().unwrap()).unwrap(), f);
        }
    }
}
