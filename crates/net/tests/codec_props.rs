//! Property tests for the wire codec: round-trips of arbitrary messages
//! and frames, plus adversarial corrupt/truncated input, asserting typed
//! [`CodecError`]s — never a panic, never an unbounded allocation.

use dcuda_des::check::{forall, Gen};
use dcuda_net::wire::{
    parse_u32_payload, u32_payload, CodecError, Frame, FrameKind, WireMsg, FRAME_HEADER_BYTES,
    FRAME_MAGIC, MAX_FRAME_PAYLOAD,
};

fn arb_msg(g: &mut Gen) -> WireMsg {
    match g.u32_below(3) {
        0 => WireMsg::Deliver {
            dst_local: g.u32_below(1 << 20),
            win: g.u32_below(64),
            dst_off: g.u64(),
            source: g.u32_below(1 << 20),
            tag: g.u32_below(1 << 16),
            notify: g.bool(),
            seq: g.u64(),
            origin_device: g.u32_below(1 << 10),
            origin_local: g.u32_below(1 << 20),
            flush_id: g.u64(),
            data: g.vec_with(4096, |g| g.u32_below(256) as u8),
        },
        1 => WireMsg::Ack {
            origin_local: g.u32_below(1 << 20),
            flush_id: g.u64(),
        },
        _ => WireMsg::Finished {
            device: g.u32_below(1 << 10),
            ranks: g.u32_below(1 << 10),
        },
    }
}

fn arb_frame(g: &mut Gen) -> Frame {
    let kind = *g.choose(&[FrameKind::Hello, FrameKind::Data]);
    Frame {
        kind,
        dst_device: g.u32_below(1 << 12),
        seq: g.u64(),
        payload: g.vec_with(2048, |g| g.u32_below(256) as u8),
    }
}

#[test]
fn wire_msg_roundtrips() {
    forall("wire_msg_roundtrip", 300, |g| {
        let msg = arb_msg(g);
        let bytes = msg.encode();
        let back = WireMsg::decode(&bytes).expect("own encoding must decode");
        assert_eq!(back, msg);
    });
}

#[test]
fn frame_roundtrips_and_reports_exact_length() {
    forall("frame_roundtrip", 300, |g| {
        let frame = arb_frame(g);
        let bytes = frame.encode();
        assert_eq!(bytes.len(), FRAME_HEADER_BYTES + frame.payload.len());
        let (back, consumed) = Frame::decode(&bytes).expect("own encoding must decode");
        assert_eq!(consumed, bytes.len());
        assert_eq!(back, frame);
        // Streaming reader agrees with the slice decoder.
        let mut cursor = &bytes[..];
        let streamed = Frame::read_from(&mut cursor)
            .expect("stream decode")
            .expect("one full frame");
        assert_eq!(streamed, frame);
    });
}

#[test]
fn frames_concatenate_cleanly() {
    // Coalesced writes put several frames back to back in one buffer; the
    // decoder must peel them off one at a time with exact offsets.
    forall("frame_concat", 100, |g| {
        let frames: Vec<Frame> = (0..g.usize_in(1, 6)).map(|_| arb_frame(g)).collect();
        let mut buf = Vec::new();
        for f in &frames {
            f.encode_into(&mut buf);
        }
        let mut off = 0;
        for f in &frames {
            let (got, used) = Frame::decode(&buf[off..]).expect("concatenated frame");
            assert_eq!(&got, f);
            off += used;
        }
        assert_eq!(off, buf.len());
    });
}

#[test]
fn truncated_input_yields_truncated_error_never_panics() {
    forall("truncation_typed", 300, |g| {
        let msg = arb_msg(g);
        let bytes = msg.encode();
        if bytes.is_empty() {
            return;
        }
        let cut = g.usize_below(bytes.len());
        match WireMsg::decode(&bytes[..cut]) {
            Err(CodecError::Truncated { needed }) => assert!(needed > 0),
            // Cutting inside the trailing payload bytes can also present as
            // a short data vector followed by trailing garbage — but never
            // as success with the wrong message.
            Err(_) => {}
            Ok(got) => assert_eq!(got, msg, "decode of a prefix must not invent a message"),
        }
        let frame = Frame {
            kind: FrameKind::Data,
            dst_device: 3,
            seq: 9,
            payload: bytes.clone(),
        };
        let fbytes = frame.encode();
        let fcut = g.usize_below(fbytes.len());
        match Frame::decode(&fbytes[..fcut]) {
            Err(CodecError::Truncated { needed }) => assert!(needed > 0),
            Err(e) => panic!("truncated frame must report Truncated, got {e}"),
            Ok(_) => panic!("truncated frame must not decode"),
        }
    });
}

/// A reader that surrenders at most one byte per `read` call, with an
/// injected `EINTR` before every byte — the worst case a nonblocking
/// socket (or a signal-happy kernel) can present to the streaming decoder.
struct TrickleReader<'a> {
    bytes: &'a [u8],
    pos: usize,
    interrupt_next: bool,
}

impl std::io::Read for TrickleReader<'_> {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        if self.interrupt_next {
            self.interrupt_next = false;
            return Err(std::io::Error::new(
                std::io::ErrorKind::Interrupted,
                "injected EINTR",
            ));
        }
        self.interrupt_next = true;
        if self.pos >= self.bytes.len() || buf.is_empty() {
            return Ok(0);
        }
        buf[0] = self.bytes[self.pos];
        self.pos += 1;
        Ok(1)
    }
}

#[test]
fn frame_split_at_every_byte_boundary_still_decodes() {
    // What the nonblocking receive machine depends on: a frame
    // arriving in arbitrary fragments must decode identically however the
    // byte stream is carved up.
    let frame = Frame {
        kind: FrameKind::Data,
        dst_device: 5,
        seq: 42,
        payload: (0u16..300).map(|b| b as u8).collect(),
    };
    let bytes = frame.encode();
    // Slice decoder: every strict prefix is Truncated with an exact
    // byte count, and prefix + needed always lands back on the frame end.
    for cut in 0..bytes.len() {
        match Frame::decode(&bytes[..cut]) {
            Err(CodecError::Truncated { needed }) => {
                assert!(needed > 0, "cut {cut}: zero-byte shortfall");
                assert!(
                    cut + needed <= bytes.len(),
                    "cut {cut}: claimed shortfall {needed} overshoots the frame"
                );
            }
            other => panic!("cut {cut}: expected Truncated, got {other:?}"),
        }
    }
    // Streaming reader: one byte per read call with EINTR injected before
    // every byte — the decoder must resume, never error, never drop data.
    let mut r = TrickleReader {
        bytes: &bytes,
        pos: 0,
        interrupt_next: true,
    };
    let got = Frame::read_from(&mut r)
        .expect("trickled frame must decode")
        .expect("one full frame");
    assert_eq!(got, frame);
    // EOF exactly at the frame boundary is the clean-shutdown signal.
    assert!(Frame::read_from(&mut r).expect("clean EOF").is_none());
    // EOF strictly inside a frame is an UnexpectedEof, not a hang or Ok.
    for cut in 1..bytes.len() {
        let mut r = TrickleReader {
            bytes: &bytes[..cut],
            pos: 0,
            interrupt_next: true,
        };
        let err = Frame::read_from(&mut r).expect_err("mid-frame EOF must error");
        assert_eq!(err.kind(), std::io::ErrorKind::UnexpectedEof, "cut {cut}");
    }
}

#[test]
fn corrupt_bytes_yield_typed_errors_never_panics() {
    forall("corruption_typed", 400, |g| {
        let frame = arb_frame(g);
        let mut bytes = frame.encode();
        // Flip a random byte anywhere in the frame.
        let at = g.usize_below(bytes.len());
        let flip = 1u8 << g.u32_below(8);
        bytes[at] ^= flip;
        // Whatever happens, it must be a value, not a panic. A flip in the
        // payload region leaves the header intact, so the frame still
        // decodes with its declared length; a header flip may do anything
        // except succeed beyond the buffer.
        match Frame::decode(&bytes) {
            Ok((got, used)) => {
                assert!(used <= bytes.len());
                if at >= FRAME_HEADER_BYTES {
                    assert_eq!(used, bytes.len());
                    assert_eq!(got.payload.len(), frame.payload.len());
                }
            }
            Err(
                CodecError::BadMagic { .. }
                | CodecError::BadKind { .. }
                | CodecError::Oversize { .. }
                | CodecError::Truncated { .. }
                | CodecError::TrailingBytes { .. },
            ) => {}
        }
    });
}

#[test]
fn oversize_length_is_rejected_without_allocation() {
    // A corrupt length field must not convince the decoder to allocate.
    let mut bytes = Vec::new();
    bytes.extend_from_slice(&FRAME_MAGIC.to_le_bytes());
    bytes.push(1); // Data
    bytes.extend_from_slice(&7u32.to_le_bytes()); // dst_device
    bytes.extend_from_slice(&0u64.to_le_bytes()); // seq
    bytes.extend_from_slice(&(u32::MAX).to_le_bytes()); // absurd length
    match Frame::decode(&bytes) {
        Err(CodecError::Oversize { len }) => {
            assert_eq!(len, u64::from(u32::MAX));
            assert!(len > MAX_FRAME_PAYLOAD as u64);
        }
        other => panic!("expected Oversize, got {other:?}"),
    }
    // The streaming reader rejects it identically (as InvalidData io error).
    let mut cursor = &bytes[..];
    let err = Frame::read_from(&mut cursor).expect_err("oversize must error");
    assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
}

#[test]
fn bad_magic_is_a_desync_error() {
    let frame = Frame {
        kind: FrameKind::Hello,
        dst_device: 0,
        seq: 0,
        payload: u32_payload(16),
    };
    let mut bytes = frame.encode();
    bytes[0] ^= 0xFF;
    match Frame::decode(&bytes) {
        Err(CodecError::BadMagic { found }) => assert_ne!(found, FRAME_MAGIC),
        other => panic!("expected BadMagic, got {other:?}"),
    }
}

#[test]
fn trailing_bytes_are_rejected() {
    let msg = WireMsg::Ack {
        origin_local: 1,
        flush_id: 2,
    };
    let mut bytes = msg.encode();
    bytes.push(0xAB);
    match WireMsg::decode(&bytes) {
        Err(CodecError::TrailingBytes { extra }) => assert_eq!(extra, 1),
        other => panic!("expected TrailingBytes, got {other:?}"),
    }
    assert!(parse_u32_payload(&[1, 2, 3]).is_err());
    assert!(parse_u32_payload(&[1, 2, 3, 4, 5]).is_err());
    assert_eq!(parse_u32_payload(&u32_payload(77)), Ok(77));
}
