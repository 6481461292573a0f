//! Length-prefixed wire codec for the inter-host plane.
//!
//! Two layers, both fully self-describing and versioned by a magic word:
//!
//! * [`WireMsg`] — the *semantic* messages of the dCUDA host plane
//!   (put/notify deliveries, flush acks, barrier tokens/releases, rank
//!   finish announcements). These are exactly the messages the in-process
//!   backend moves through its channels; the codec makes them portable
//!   across OS processes.
//! * [`Frame`] — the *connection* layer: a fixed header (magic, kind,
//!   destination device, connection sequence number, payload length)
//!   followed by the payload bytes. After the mesh handshake
//!   ([`FrameKind::Hello`]) a connection carries one kind of frame only:
//!   [`FrameKind::Data`], one encoded `WireMsg` each, whatever its size.
//!   Flow control is left to the byte stream underneath; the kind bytes of
//!   the retired credit and rendezvous frames (2–5) are decode errors.
//!
//! Every decoder returns a typed [`CodecError`] on malformed input — a
//! corrupt or truncated byte stream must surface as an error value, never a
//! panic or an unbounded read.

use std::fmt;

/// Magic word opening every frame (`b"dCN1"` little-endian, versioned).
pub const FRAME_MAGIC: u32 = 0x314E_4364;

/// Hard cap on a frame payload; a corrupt length field must not convince
/// the reader to allocate gigabytes or block forever.
pub const MAX_FRAME_PAYLOAD: usize = 64 << 20;

/// Size-class boundary: a message whose encoding (header included) is at
/// most this many bytes is *eager*-class, a longer one large-class (the
/// `rndz_msgs` counter, after MPI's eager/rendezvous split). Both ship at
/// once on every plane; the class decides whether a shm message is one ring
/// record or a streamed chain, and is reported per message.
pub const EAGER_MAX: usize = 2048;

/// The one size classifier, for the counters of both planes and the trace:
/// is a message of `encoded_len` bytes (header + payload) eager-class?
pub(crate) fn is_eager(encoded_len: usize) -> bool {
    encoded_len <= EAGER_MAX
}

/// The tcp plane flushes a connection's coalescing write buffer once it
/// holds this many bytes (or on `pump()`).
pub const COALESCE_LIMIT: usize = 8192;

/// Tcp payloads at least this large skip the coalescing buffer and ship as
/// their own iovec in a vectored write (single payload copy).
pub const VECTORED_MIN: usize = 1024;

/// Per-direction capacity of a same-host shared-memory ring.
pub const SHM_RING_BYTES: usize = 1 << 20;

/// A semantic message of the inter-host plane.
///
/// `Deliver.seq` is a spare wire slot the runtime writes as 0: ordering and
/// exactly-once delivery are the connection-level [`Frame::seq`]'s job.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WireMsg {
    /// Deliver a put (payload + optional notification) to a rank local to
    /// the receiving device.
    Deliver {
        /// Local rank index on the receiving device.
        dst_local: u32,
        /// Target window.
        win: u32,
        /// Byte offset in the target rank's window.
        dst_off: u64,
        /// Origin world rank (the notification source).
        source: u32,
        /// Notification tag.
        tag: u32,
        /// Enqueue a notification at the target (false: silent put).
        notify: bool,
        /// Spare slot, always 0 (kept for wire-format stability).
        seq: u64,
        /// Origin device (acks return here).
        origin_device: u32,
        /// Origin-local rank whose flush counter the ack advances.
        origin_local: u32,
        /// Origin's flush id for this operation.
        flush_id: u64,
        /// Payload bytes (may be empty for pure notifications).
        data: Vec<u8>,
    },
    /// Acknowledge a remote delivery (advances the origin's flush counter).
    Ack {
        /// Origin-local rank whose operation completed.
        origin_local: u32,
        /// The flush id that completed.
        flush_id: u64,
    },
    /// A rank on `device` finished its program (world quiescence counting
    /// across processes; the in-process backend uses a shared counter and
    /// never sends these).
    Finished {
        /// Reporting device.
        device: u32,
        /// Ranks that finished (currently always 1).
        ranks: u32,
    },
}

/// Typed decode failures.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CodecError {
    /// The frame header's magic word is wrong (stream corrupt or desynced).
    BadMagic {
        /// The word found where the magic belonged.
        found: u32,
    },
    /// An unknown message or frame kind byte.
    BadKind {
        /// The offending kind byte.
        kind: u8,
    },
    /// A declared length exceeds [`MAX_FRAME_PAYLOAD`].
    Oversize {
        /// The declared length.
        len: u64,
    },
    /// The buffer ended before the declared content did.
    Truncated {
        /// Bytes needed beyond what was available.
        needed: usize,
    },
    /// Content decoded but bytes were left over (framing bug upstream).
    TrailingBytes {
        /// Number of unconsumed bytes.
        extra: usize,
    },
}

impl fmt::Display for CodecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CodecError::BadMagic { found } => {
                write!(
                    f,
                    "bad frame magic {found:#010x} (stream corrupt or desynced)"
                )
            }
            CodecError::BadKind { kind } => write!(f, "unknown message kind {kind}"),
            CodecError::Oversize { len } => {
                write!(
                    f,
                    "declared length {len} exceeds the {MAX_FRAME_PAYLOAD}-byte cap"
                )
            }
            CodecError::Truncated { needed } => {
                write!(f, "truncated: {needed} more bytes expected")
            }
            CodecError::TrailingBytes { extra } => {
                write!(f, "{extra} trailing bytes after a complete message")
            }
        }
    }
}

impl std::error::Error for CodecError {}

// --- primitive readers/writers ------------------------------------------

fn put_u32(buf: &mut Vec<u8>, v: u32) {
    buf.extend_from_slice(&v.to_le_bytes());
}

fn put_u64(buf: &mut Vec<u8>, v: u64) {
    buf.extend_from_slice(&v.to_le_bytes());
}

/// Cursor over a byte slice with typed truncation errors.
struct Cursor<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    fn new(buf: &'a [u8]) -> Self {
        Cursor { buf, pos: 0 }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], CodecError> {
        let end = self
            .pos
            .checked_add(n)
            .ok_or(CodecError::Oversize { len: n as u64 })?;
        if end > self.buf.len() {
            return Err(CodecError::Truncated {
                needed: end - self.buf.len(),
            });
        }
        let s = &self.buf[self.pos..end];
        self.pos = end;
        Ok(s)
    }

    fn u8(&mut self) -> Result<u8, CodecError> {
        Ok(self.take(1)?[0])
    }

    fn u32(&mut self) -> Result<u32, CodecError> {
        let b = self.take(4)?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    fn u64(&mut self) -> Result<u64, CodecError> {
        let b = self.take(8)?;
        Ok(u64::from_le_bytes([
            b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7],
        ]))
    }
}

const MSG_DELIVER: u8 = 1;
const MSG_ACK: u8 = 2;
// Kinds 3 and 4 were the pre-0.4 centralized-barrier token/release
// messages; the dissemination barrier made them dead and they are now
// decode errors. Keep FINISHED at 5 so the wire format is unchanged.
const MSG_FINISHED: u8 = 5;

impl WireMsg {
    /// Upper bound on an encoded message *header* (everything except the
    /// trailing payload bytes). `Deliver` is the largest at 54 bytes; the
    /// streaming reader sizes its stack buffer with this.
    pub const HEADER_MAX: usize = 64;

    /// Append the encoded message **header** to `buf`: every field except
    /// the trailing payload bytes. The payload is deliberately the *final*
    /// field of the encoding, so `encode_header_into(buf); buf.extend(data)`
    /// produces exactly [`WireMsg::encode`] — the property the vectored
    /// send path and the shm ring rely on to ship header and payload as
    /// separate slices without re-staging.
    pub fn encode_header_into(&self, buf: &mut Vec<u8>) {
        match self {
            WireMsg::Deliver {
                dst_local,
                win,
                dst_off,
                source,
                tag,
                notify,
                seq,
                origin_device,
                origin_local,
                flush_id,
                data,
            } => {
                buf.push(MSG_DELIVER);
                put_u32(buf, *dst_local);
                put_u32(buf, *win);
                put_u64(buf, *dst_off);
                put_u32(buf, *source);
                put_u32(buf, *tag);
                buf.push(u8::from(*notify));
                put_u64(buf, *seq);
                put_u32(buf, *origin_device);
                put_u32(buf, *origin_local);
                put_u64(buf, *flush_id);
                put_u32(buf, data.len() as u32);
            }
            WireMsg::Ack {
                origin_local,
                flush_id,
            } => {
                buf.push(MSG_ACK);
                put_u32(buf, *origin_local);
                put_u64(buf, *flush_id);
            }
            WireMsg::Finished { device, ranks } => {
                buf.push(MSG_FINISHED);
                put_u32(buf, *device);
                put_u32(buf, *ranks);
            }
        }
    }

    /// Append the encoded message to `buf`.
    pub fn encode_into(&self, buf: &mut Vec<u8>) {
        self.encode_header_into(buf);
        if let WireMsg::Deliver { data, .. } = self {
            buf.extend_from_slice(data);
        }
    }

    /// Split the message into `(encoded header, payload bytes)` without
    /// copying the payload. Concatenating the parts reproduces
    /// [`WireMsg::encode`] exactly.
    pub fn into_parts(self) -> (Vec<u8>, Vec<u8>) {
        let mut header = Vec::with_capacity(Self::HEADER_MAX);
        self.encode_header_into(&mut header);
        let data = match self {
            WireMsg::Deliver { data, .. } => data,
            _ => Vec::new(),
        };
        (header, data)
    }

    /// Encode into a fresh buffer.
    pub fn encode(&self) -> Vec<u8> {
        let mut buf = Vec::with_capacity(48 + self.payload_len());
        self.encode_into(&mut buf);
        buf
    }

    /// Decode a message that must span the whole buffer.
    pub fn decode(buf: &[u8]) -> Result<WireMsg, CodecError> {
        let head = Self::decode_header(buf)?;
        let total = head.consumed + head.data_len;
        if buf.len() < total {
            return Err(CodecError::Truncated {
                needed: total - buf.len(),
            });
        }
        if buf.len() > total {
            return Err(CodecError::TrailingBytes {
                extra: buf.len() - total,
            });
        }
        let data = buf[head.consumed..total].to_vec();
        head.into_msg(data)
    }

    /// Decode only the message header from the front of `buf`, leaving the
    /// payload bytes unread. `buf` need not contain the payload — the first
    /// `min(len, HEADER_MAX)` bytes of the encoding always suffice. The
    /// streaming receive path uses this to learn the payload length, then
    /// reads the payload straight into its final buffer (single copy).
    pub fn decode_header(buf: &[u8]) -> Result<MsgHeader, CodecError> {
        let mut c = Cursor::new(buf);
        let (msg, data_len) = match c.u8()? {
            MSG_DELIVER => {
                let dst_local = c.u32()?;
                let win = c.u32()?;
                let dst_off = c.u64()?;
                let source = c.u32()?;
                let tag = c.u32()?;
                let notify = c.u8()? != 0;
                let seq = c.u64()?;
                let origin_device = c.u32()?;
                let origin_local = c.u32()?;
                let flush_id = c.u64()?;
                let len = c.u32()? as usize;
                if len > MAX_FRAME_PAYLOAD {
                    return Err(CodecError::Oversize { len: len as u64 });
                }
                (
                    WireMsg::Deliver {
                        dst_local,
                        win,
                        dst_off,
                        source,
                        tag,
                        notify,
                        seq,
                        origin_device,
                        origin_local,
                        flush_id,
                        data: Vec::new(),
                    },
                    len,
                )
            }
            MSG_ACK => (
                WireMsg::Ack {
                    origin_local: c.u32()?,
                    flush_id: c.u64()?,
                },
                0,
            ),
            MSG_FINISHED => (
                WireMsg::Finished {
                    device: c.u32()?,
                    ranks: c.u32()?,
                },
                0,
            ),
            kind => return Err(CodecError::BadKind { kind }),
        };
        Ok(MsgHeader {
            msg,
            data_len,
            consumed: c.pos,
        })
    }

    /// Bytes of user payload this message carries.
    pub fn payload_len(&self) -> usize {
        match self {
            WireMsg::Deliver { data, .. } => data.len(),
            _ => 0,
        }
    }
}

/// A decoded message header whose payload bytes have not been read yet
/// (see [`WireMsg::decode_header`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MsgHeader {
    msg: WireMsg,
    /// Payload bytes that follow the header in the encoded stream.
    pub data_len: usize,
    /// Encoded header length (bytes consumed from the front of the buffer).
    pub consumed: usize,
}

impl MsgHeader {
    /// Total encoded length of the message (header + payload).
    pub fn total_len(&self) -> usize {
        self.consumed + self.data_len
    }

    /// Attach the payload bytes and yield the complete message. `data` must
    /// be exactly the `data_len` bytes that followed the header.
    pub fn into_msg(self, data: Vec<u8>) -> Result<WireMsg, CodecError> {
        if data.len() != self.data_len {
            return Err(if data.len() < self.data_len {
                CodecError::Truncated {
                    needed: self.data_len - data.len(),
                }
            } else {
                CodecError::TrailingBytes {
                    extra: data.len() - self.data_len,
                }
            });
        }
        Ok(match self.msg {
            WireMsg::Deliver {
                dst_local,
                win,
                dst_off,
                source,
                tag,
                notify,
                seq,
                origin_device,
                origin_local,
                flush_id,
                ..
            } => WireMsg::Deliver {
                dst_local,
                win,
                dst_off,
                source,
                tag,
                notify,
                seq,
                origin_device,
                origin_local,
                flush_id,
                data,
            },
            other => other,
        })
    }
}

/// Connection-level frame kinds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FrameKind {
    /// Connection handshake: payload = origin process index (u32).
    Hello,
    /// One [`WireMsg`] of any size (payload = encoded message).
    Data,
}

impl FrameKind {
    fn to_u8(self) -> u8 {
        match self {
            FrameKind::Hello => 0,
            FrameKind::Data => 1,
        }
    }

    fn from_u8(v: u8) -> Result<Self, CodecError> {
        Ok(match v {
            0 => FrameKind::Hello,
            1 => FrameKind::Data,
            // 2–5 were the credit return and the three rendezvous frames.
            kind => return Err(CodecError::BadKind { kind }),
        })
    }
}

/// Number of bytes in an encoded frame header.
pub const FRAME_HEADER_BYTES: usize = 4 + 1 + 4 + 8 + 4;

/// A connection-level frame.
///
/// `seq` is the per-connection sequence number: [`FrameKind::Data`] frames
/// are numbered densely from 0 per (sender process → receiver process)
/// connection, and the receiver releases messages to the host layer
/// strictly in `seq` order. That single mechanism provides FIFO delivery,
/// duplicate suppression (a `seq` below the release frontier is dropped)
/// and loss recovery (the stream stalls until the sender's retransmission
/// fills the gap).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Frame {
    /// Frame kind.
    pub kind: FrameKind,
    /// Destination device (world device id; routing key on arrival).
    pub dst_device: u32,
    /// Connection sequence number; 0 for Hello.
    pub seq: u64,
    /// Payload bytes.
    pub payload: Vec<u8>,
}

impl Frame {
    /// Append the encoded frame (header + payload) to `buf`.
    pub fn encode_into(&self, buf: &mut Vec<u8>) {
        put_u32(buf, FRAME_MAGIC);
        buf.push(self.kind.to_u8());
        put_u32(buf, self.dst_device);
        put_u64(buf, self.seq);
        put_u32(buf, self.payload.len() as u32);
        buf.extend_from_slice(&self.payload);
    }

    /// Encode into a fresh buffer.
    pub fn encode(&self) -> Vec<u8> {
        let mut buf = Vec::with_capacity(FRAME_HEADER_BYTES + self.payload.len());
        self.encode_into(&mut buf);
        buf
    }

    /// Decode one frame from the front of `buf`; returns the frame and the
    /// number of bytes consumed. [`CodecError::Truncated`] means "read more
    /// bytes and retry" — the streaming reader relies on it.
    pub fn decode(buf: &[u8]) -> Result<(Frame, usize), CodecError> {
        let mut c = Cursor::new(buf);
        let magic = c.u32()?;
        if magic != FRAME_MAGIC {
            return Err(CodecError::BadMagic { found: magic });
        }
        let kind = FrameKind::from_u8(c.u8()?)?;
        let dst_device = c.u32()?;
        let seq = c.u64()?;
        let len = c.u32()? as usize;
        if len > MAX_FRAME_PAYLOAD {
            return Err(CodecError::Oversize { len: len as u64 });
        }
        let payload = c.take(len)?.to_vec();
        Ok((
            Frame {
                kind,
                dst_device,
                seq,
                payload,
            },
            c.pos,
        ))
    }

    /// Read exactly one frame from a blocking reader. `Err(Truncated)` here
    /// means the stream ended mid-frame (peer died); clean EOF *between*
    /// frames is reported as `Ok(None)`.
    pub fn read_from(r: &mut impl std::io::Read) -> std::io::Result<Option<Frame>> {
        let Some(head) = FrameHeader::read_from(r)? else {
            return Ok(None);
        };
        let mut payload = vec![0u8; head.payload_len];
        read_fully(r, &mut payload)?;
        Ok(Some(Frame {
            kind: head.kind,
            dst_device: head.dst_device,
            seq: head.seq,
            payload,
        }))
    }
}

/// A decoded frame header whose payload has not been read off the stream
/// yet. The streaming receive path reads this first, then dispatches on
/// `kind` to read the payload into its final destination.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FrameHeader {
    /// Frame kind.
    pub kind: FrameKind,
    /// Destination device.
    pub dst_device: u32,
    /// Connection sequence number.
    pub seq: u64,
    /// Declared payload length (already validated ≤ [`MAX_FRAME_PAYLOAD`]).
    pub payload_len: usize,
}

impl FrameHeader {
    /// Append the encoded header (no payload bytes) to `buf`. Appending
    /// `payload_len` payload bytes afterwards reproduces
    /// [`Frame::encode`] exactly — the vectored send path writes the two
    /// parts as separate iovecs.
    pub fn encode_into(&self, buf: &mut Vec<u8>) {
        put_u32(buf, FRAME_MAGIC);
        buf.push(self.kind.to_u8());
        put_u32(buf, self.dst_device);
        put_u64(buf, self.seq);
        put_u32(buf, self.payload_len as u32);
    }

    /// Read and validate one frame header from a blocking reader; clean EOF
    /// before the first byte is `Ok(None)`. A signal-interrupted read
    /// (`ErrorKind::Interrupted`) is retried, never surfaced — EINTR must
    /// not kill a connection mid-frame.
    pub fn read_from(r: &mut impl std::io::Read) -> std::io::Result<Option<FrameHeader>> {
        let mut header = [0u8; FRAME_HEADER_BYTES];
        let mut got = 0;
        while got < header.len() {
            match r.read(&mut header[got..]) {
                Ok(0) if got == 0 => return Ok(None),
                Ok(0) => {
                    return Err(std::io::Error::new(
                        std::io::ErrorKind::UnexpectedEof,
                        CodecError::Truncated {
                            needed: header.len() - got,
                        },
                    ))
                }
                Ok(n) => got += n,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(e) => return Err(e),
            }
        }
        Self::parse(&header).map(Some).map_err(codec_io)
    }

    /// Validate and decode an already-buffered header — the nonblocking
    /// receive machine accumulates [`FRAME_HEADER_BYTES`] across partial
    /// reads and parses here; [`FrameHeader::read_from`] is the blocking wrapper.
    pub fn parse(header: &[u8; FRAME_HEADER_BYTES]) -> Result<FrameHeader, CodecError> {
        let mut c = Cursor::new(header);
        let magic = c.u32()?;
        if magic != FRAME_MAGIC {
            return Err(CodecError::BadMagic { found: magic });
        }
        let kind = FrameKind::from_u8(c.u8()?)?;
        let dst_device = c.u32()?;
        let seq = c.u64()?;
        let len = c.u32()? as usize;
        if len > MAX_FRAME_PAYLOAD {
            return Err(CodecError::Oversize { len: len as u64 });
        }
        Ok(FrameHeader {
            kind,
            dst_device,
            seq,
            payload_len: len,
        })
    }
}

/// Fill `buf` from a blocking reader; EOF mid-buffer is an error (the
/// stream died inside a frame). Signal-interrupted reads are retried.
pub fn read_fully(r: &mut impl std::io::Read, buf: &mut [u8]) -> std::io::Result<()> {
    let mut got = 0;
    while got < buf.len() {
        match r.read(&mut buf[got..]) {
            Ok(0) => {
                return Err(std::io::Error::new(
                    std::io::ErrorKind::UnexpectedEof,
                    CodecError::Truncated {
                        needed: buf.len() - got,
                    },
                ))
            }
            Ok(n) => got += n,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(e),
        }
    }
    Ok(())
}

fn codec_io(e: CodecError) -> std::io::Error {
    std::io::Error::new(std::io::ErrorKind::InvalidData, e)
}

/// Encode a `u32` payload (the hello's process index).
pub fn u32_payload(v: u32) -> Vec<u8> {
    v.to_le_bytes().to_vec()
}

/// Decode a `u32` payload.
pub fn parse_u32_payload(buf: &[u8]) -> Result<u32, CodecError> {
    if buf.len() != 4 {
        return Err(if buf.len() < 4 {
            CodecError::Truncated {
                needed: 4 - buf.len(),
            }
        } else {
            CodecError::TrailingBytes {
                extra: buf.len() - 4,
            }
        });
    }
    Ok(u32::from_le_bytes([buf[0], buf[1], buf[2], buf[3]]))
}
