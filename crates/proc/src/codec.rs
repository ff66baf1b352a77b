//! The wire codec: versioned length-delimited binary frames plus the
//! payload primitives the RPC layer is built from.
//!
//! Frame layout (all integers little-endian):
//!
//! ```text
//! [ version: u8 ][ type: u8 ][ len: u32 ][ seq: u32 ][ payload ][ crc: u32 ]
//! ```
//!
//! * `version` — [`PROTO_VERSION`]; a mismatch is a hard decode error, not
//!   a negotiation (both ends ship from the same tree).
//! * `type` — the message discriminant (see `proto::Msg`).
//! * `len` — payload length, capped at [`MAX_PAYLOAD`] so a corrupt or
//!   hostile length prefix cannot drive an unbounded allocation.
//! * `seq` — per-connection sequence number. Worker requests carry a
//!   monotonically increasing counter that survives reconnects; replies
//!   echo the request's seq, which is what lets the session layer discard
//!   duplicated replies and resend cached ones idempotently.
//! * `crc` — CRC-32 (IEEE) over `type, len, seq, payload` ([`crc32`]; how
//!   it is computed — table-driven, or by carry-less multiplication where
//!   the CPU has it — is `crc.rs`'s business and never shows in the value).
//!   A mismatch is [`CodecError::BadCrc`]: the frame was damaged in flight
//!   and the connection must be torn down and resumed, never trusted.
//!
//! Floats cross the wire via `to_le_bytes`/`from_le_bytes`, so parameter
//! payloads are bit-exact round trips — the cross-path conformance pins
//! (`logical.bytes` equality with the sim and threaded paths) depend on
//! that.
//!
//! Both transports build a frame in one buffer ([`encode_frame`]), hand
//! the socket that buffer in one `write_all`, and read through one
//! reusable payload buffer ([`read_frame_into`]).
//!
//! Every decode failure is an [`Err`], never a panic: the coordinator must
//! treat a garbled peer as a dead peer, not die with it.

use std::fmt;
use std::io::{self, Read, Write};

use dtrain_nn::ParamSet;
use dtrain_tensor::Tensor;

pub use crate::crc::crc32;

/// Wire protocol version; bumped on any frame or payload layout change.
/// v2 added the `seq` field and the CRC-32 trailer; v3 the `checkpoint`
/// byte of `BspResult`, whose deposit now carries the heartbeat.
pub const PROTO_VERSION: u8 = 3;

/// Hard cap on a single frame's payload (64 MiB). Large enough for any
/// model this repo trains; small enough that a corrupt length prefix
/// cannot OOM the coordinator.
pub const MAX_PAYLOAD: u32 = 64 << 20;

/// Why a frame or payload failed to decode.
#[derive(Debug)]
pub enum CodecError {
    /// Transport-level failure (includes clean EOF mid-frame).
    Io(io::Error),
    /// First byte was not [`PROTO_VERSION`].
    BadVersion(u8),
    /// Length prefix exceeded [`MAX_PAYLOAD`].
    Oversized(u32),
    /// Payload structure didn't match the declared message type.
    Malformed(&'static str),
    /// Unknown message discriminant.
    BadType(u8),
    /// Frame checksum mismatch: the bytes were damaged in flight.
    BadCrc { expected: u32, found: u32 },
}

impl fmt::Display for CodecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CodecError::Io(e) => write!(f, "io: {e}"),
            CodecError::BadVersion(v) => {
                write!(f, "bad protocol version {v} (expected {PROTO_VERSION})")
            }
            CodecError::Oversized(n) => {
                write!(f, "payload length {n} exceeds cap {MAX_PAYLOAD}")
            }
            CodecError::Malformed(what) => write!(f, "malformed payload: {what}"),
            CodecError::BadType(t) => write!(f, "unknown message type {t}"),
            CodecError::BadCrc { expected, found } => {
                write!(
                    f,
                    "frame crc mismatch: expected {expected:#010x}, found {found:#010x}"
                )
            }
        }
    }
}

impl std::error::Error for CodecError {}

impl From<io::Error> for CodecError {
    fn from(e: io::Error) -> Self {
        CodecError::Io(e)
    }
}

/// Frame bytes ahead of the payload: version, type, len, seq.
const HEADER_LEN: usize = 10;
/// Frame bytes after it: the CRC.
pub(crate) const TRAILER_LEN: usize = 4;

/// Build one complete frame in `frame` — header, the payload `fill` writes
/// (it returns the message type, and so does this), CRC trailer — so the
/// caller can hand the transport a single buffer in a single write.
/// `frame` is cleared first and its capacity reused: a connection that
/// keeps one around allocates nothing per frame.
pub fn encode_frame(frame: &mut Vec<u8>, seq: u32, fill: impl FnOnce(&mut Enc) -> u8) -> u8 {
    frame.clear();
    frame.resize(HEADER_LEN, 0);
    let mut enc = Enc {
        buf: std::mem::take(frame),
    };
    let msg_type = fill(&mut enc);
    *frame = enc.buf;
    let len = frame.len() - HEADER_LEN;
    debug_assert!(len as u64 <= MAX_PAYLOAD as u64);
    frame[0] = PROTO_VERSION;
    frame[1] = msg_type;
    frame[2..6].copy_from_slice(&(len as u32).to_le_bytes());
    frame[6..HEADER_LEN].copy_from_slice(&seq.to_le_bytes());
    let crc = crc32(&[&frame[1..]]);
    frame.extend_from_slice(&crc.to_le_bytes());
    msg_type
}

/// Write one frame around an already-encoded payload: assembled in one
/// buffer, written with one `write_all`, then flushed.
pub fn write_frame<W: Write>(
    w: &mut W,
    msg_type: u8,
    seq: u32,
    payload: &[u8],
) -> Result<(), CodecError> {
    let mut frame = Vec::with_capacity(HEADER_LEN + payload.len() + TRAILER_LEN);
    encode_frame(&mut frame, seq, |e| {
        e.buf.extend_from_slice(payload);
        msg_type
    });
    w.write_all(&frame)?;
    w.flush()?;
    Ok(())
}

/// Read one frame's payload into `payload` (cleared first, capacity
/// reused); returns `(type, seq)`. The length cap is checked before the
/// payload (or even the seq) is read, and the buffer grows with the bytes
/// that actually arrive, never with the length the prefix claims — so a
/// hostile length prefix can neither allocate nor stall.
pub fn read_frame_into<R: Read>(r: &mut R, payload: &mut Vec<u8>) -> Result<(u8, u32), CodecError> {
    let mut header = [0u8; HEADER_LEN];
    r.read_exact(&mut header[..6])?;
    if header[0] != PROTO_VERSION {
        return Err(CodecError::BadVersion(header[0]));
    }
    let len = u32::from_le_bytes([header[2], header[3], header[4], header[5]]);
    if len > MAX_PAYLOAD {
        return Err(CodecError::Oversized(len));
    }
    r.read_exact(&mut header[6..])?;
    let seq = u32::from_le_bytes([header[6], header[7], header[8], header[9]]);
    let len = len as usize;
    let want = len + TRAILER_LEN;
    payload.clear();
    let got = r.by_ref().take(want as u64).read_to_end(payload)?;
    if got < want {
        return Err(io::Error::from(io::ErrorKind::UnexpectedEof).into());
    }
    let found = Dec::new(&payload[len..]).u32()?;
    payload.truncate(len);
    let expected = crc32(&[&header[1..], payload]);
    if found != expected {
        return Err(CodecError::BadCrc { expected, found });
    }
    Ok((header[1], seq))
}

/// [`read_frame_into`] a fresh buffer; returns `(type, seq, payload)`.
pub fn read_frame<R: Read>(r: &mut R) -> Result<(u8, u32, Vec<u8>), CodecError> {
    let mut payload = Vec::new();
    let (msg_type, seq) = read_frame_into(r, &mut payload)?;
    Ok((msg_type, seq, payload))
}

/// Bytes [`Enc::params`] writes for a set whose tensors have these
/// `(rank, element count)`s. Saturating, so sizing a model from user input
/// ([`crate::ProcConfig::validate`]) needs no overflow checks of its own.
pub(crate) fn params_wire_len(tensors: impl IntoIterator<Item = (usize, u64)>) -> u64 {
    tensors.into_iter().fold(4, |n, (rank, len)| {
        n.saturating_add(1 + 4 * rank as u64)
            .saturating_add(len.saturating_mul(4))
    })
}

/// Payload writer: appends primitives to a byte buffer.
#[derive(Default)]
pub struct Enc {
    buf: Vec<u8>,
}

impl Enc {
    pub fn new() -> Self {
        Enc::default()
    }

    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    pub fn u8(&mut self, v: u8) -> &mut Self {
        self.buf.push(v);
        self
    }

    pub fn u32(&mut self, v: u32) -> &mut Self {
        self.buf.extend_from_slice(&v.to_le_bytes());
        self
    }

    pub fn u64(&mut self, v: u64) -> &mut Self {
        self.buf.extend_from_slice(&v.to_le_bytes());
        self
    }

    pub fn f32(&mut self, v: f32) -> &mut Self {
        self.buf.extend_from_slice(&v.to_le_bytes());
        self
    }

    /// Parameter/gradient set: `u32 ntensors`, then per tensor
    /// `u8 rank, rank x u32 dims, product x f32 data`. The whole set (and
    /// a frame trailer) is reserved once and each tensor's floats move as
    /// one block.
    pub fn params(&mut self, p: &ParamSet) -> &mut Self {
        self.tensors(&p.0)
    }

    /// [`Self::params`] from tensors the caller lends — a network's own
    /// gradients, say — with the same bytes and no set cloned to hold them.
    pub(crate) fn tensors<'t, I>(&mut self, tensors: I) -> &mut Self
    where
        I: IntoIterator<Item = &'t Tensor>,
        I::IntoIter: Clone,
    {
        let tensors = tensors.into_iter();
        let sizes = tensors.clone().map(|t| (t.shape().len(), t.len() as u64));
        self.buf
            .reserve(params_wire_len(sizes) as usize + TRAILER_LEN);
        self.u32(tensors.clone().count() as u32);
        for t in tensors {
            let shape = t.shape();
            self.u8(shape.len() as u8);
            for &d in shape {
                self.u32(d as u32);
            }
            let data = t.data();
            let at = self.buf.len();
            self.buf.resize(at + 4 * data.len(), 0);
            let (dst, _) = self.buf[at..].as_chunks_mut::<4>();
            for (dst, v) in dst.iter_mut().zip(data) {
                *dst = v.to_le_bytes();
            }
        }
        self
    }
}

/// Payload reader: consumes primitives from a byte slice; any overrun or
/// inconsistency is a [`CodecError::Malformed`].
pub struct Dec<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Dec<'a> {
    pub fn new(buf: &'a [u8]) -> Self {
        Dec { buf, pos: 0 }
    }

    /// Payload fully consumed? Call after the last field to reject
    /// trailing garbage.
    pub fn done(&self) -> Result<(), CodecError> {
        if self.pos == self.buf.len() {
            Ok(())
        } else {
            Err(CodecError::Malformed("trailing bytes"))
        }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], CodecError> {
        let end = self
            .pos
            .checked_add(n)
            .ok_or(CodecError::Malformed("length overflow"))?;
        if end > self.buf.len() {
            return Err(CodecError::Malformed("payload truncated"));
        }
        let s = &self.buf[self.pos..end];
        self.pos = end;
        Ok(s)
    }

    pub fn u8(&mut self) -> Result<u8, CodecError> {
        Ok(self.take(1)?[0])
    }

    pub fn u32(&mut self) -> Result<u32, CodecError> {
        let b = self.take(4)?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    pub fn u64(&mut self) -> Result<u64, CodecError> {
        let b = self.take(8)?;
        Ok(u64::from_le_bytes([
            b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7],
        ]))
    }

    pub fn f32(&mut self) -> Result<f32, CodecError> {
        let b = self.take(4)?;
        Ok(f32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    pub fn params(&mut self) -> Result<ParamSet, CodecError> {
        let ntensors = self.tensor_count()?;
        let mut tensors = Vec::with_capacity(ntensors);
        for _ in 0..ntensors {
            let rank = self.u8()? as usize;
            let mut shape = Vec::with_capacity(rank);
            for _ in 0..rank {
                shape.push(self.u32()? as usize);
            }
            let data = self
                .floats(&shape)?
                .iter()
                .map(|&b| f32::from_le_bytes(b))
                .collect();
            tensors.push(Tensor::from_vec(&shape, data));
        }
        Ok(ParamSet(tensors))
    }

    /// [`Self::params`] straight into `dst`, a set of tensors already
    /// shaped as the payload must be — a network's own parameters, say —
    /// with the same bits and no set allocated to hold them. A tensor
    /// count, rank or dimension that differs from `dst`'s, or a payload
    /// too short, is [`CodecError::Malformed`], found before any float of
    /// `dst` is written.
    pub fn params_into(&mut self, dst: &mut [&mut Tensor]) -> Result<(), CodecError> {
        if self.tensor_count()? != dst.len() {
            return Err(CodecError::Malformed("tensor count mismatch"));
        }
        let mut blocks = Vec::with_capacity(dst.len());
        for t in dst.iter() {
            let shape = t.shape();
            if self.u8()? as usize != shape.len() {
                return Err(CodecError::Malformed("tensor rank mismatch"));
            }
            for &d in shape {
                if self.u32()? as usize != d {
                    return Err(CodecError::Malformed("tensor dim mismatch"));
                }
            }
            blocks.push(self.floats(shape)?);
        }
        for (t, block) in dst.iter_mut().zip(blocks) {
            for (v, &b) in t.data_mut().iter_mut().zip(block) {
                *v = f32::from_le_bytes(b);
            }
        }
        Ok(())
    }

    /// A set's `u32 ntensors`, rejected when the remaining payload cannot
    /// possibly hold that many: a tensor costs at least 1 byte of rank.
    fn tensor_count(&mut self) -> Result<usize, CodecError> {
        let ntensors = self.u32()? as usize;
        if ntensors > self.buf.len().saturating_sub(self.pos) {
            return Err(CodecError::Malformed("tensor count exceeds payload"));
        }
        Ok(ntensors)
    }

    /// The float block of a tensor shaped `shape`, as 4-byte chunks.
    /// `take` is the one (exact) bounds check for the whole block.
    fn floats(&mut self, shape: &[usize]) -> Result<&'a [[u8; 4]], CodecError> {
        let nbytes = shape
            .iter()
            .try_fold(1usize, |n, &d| n.checked_mul(d))
            .and_then(|n| n.checked_mul(4))
            .ok_or(CodecError::Malformed("dim overflow"))?;
        Ok(self.take(nbytes)?.as_chunks::<4>().0)
    }
}
