//! Length-prefixed framing for stream transports.
//!
//! The TCP runtime carries every message as a *frame*: a 4-byte
//! big-endian length followed by that many payload bytes. The framing
//! layer is payload-agnostic — versioning and message typing live in the
//! payload's first bytes (see `dewe-core`'s `protocol::WireMsg`) — so the
//! same reader/writer pair serves every connection role.
//!
//! ```text
//!  ┌──────────────┬──────────────────────────────┐
//!  │ len: u32 BE  │ payload (len bytes)          │
//!  └──────────────┴──────────────────────────────┘
//! ```
//!
//! Both directions work on caller-owned buffers. A writer appends frames
//! into one reused buffer ([`push_frame`], [`BurstWriter`]) and hands the
//! whole burst to the socket in one write; a reader decodes each frame
//! out of one reused buffer ([`read_frame`]). A length cap guards the
//! reader against a corrupt or hostile peer declaring a multi-gigabyte
//! frame: oversized lengths are an [`std::io::ErrorKind::InvalidData`]
//! error, not an allocation.

use std::io::{self, Read, Write};

/// Default frame-length cap: generous for workflow DAG text (the largest
/// payload the runtime ships — a few MB at paper scale) while refusing
/// absurd lengths from corrupt streams.
pub const DEFAULT_MAX_FRAME: usize = 64 * 1024 * 1024;

/// Append one frame to `out`: a length prefix, then whatever `encode`
/// appends as the payload.
///
/// # Panics
///
/// If the payload exceeds `u32::MAX` bytes.
pub fn push_frame(out: &mut Vec<u8>, encode: impl FnOnce(&mut Vec<u8>)) {
    let start = out.len();
    out.extend_from_slice(&[0; 4]);
    encode(out);
    let len = u32::try_from(out.len() - start - 4).expect("frame payload exceeds u32 length");
    out[start..start + 4].copy_from_slice(&len.to_be_bytes());
}

/// Read one frame into `payload`, replacing its contents. Returns
/// `Ok(false)` on a clean end of stream (the peer closed between frames);
/// a stream that ends *inside* a frame is an
/// [`std::io::ErrorKind::UnexpectedEof`] error. Frames longer than
/// `max_frame` are rejected before any payload allocation, and `payload`
/// only grows to the length of the largest frame it has held.
pub fn read_frame(r: &mut impl Read, max_frame: usize, payload: &mut Vec<u8>) -> io::Result<bool> {
    let mut len_buf = [0u8; 4];
    let mut got = 0;
    while got < len_buf.len() {
        match r.read(&mut len_buf[got..]) {
            Ok(0) => {
                if got == 0 {
                    return Ok(false);
                }
                return Err(io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    "stream ended inside a frame length prefix",
                ));
            }
            Ok(n) => got += n,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(e),
        }
    }
    let len = u32::from_be_bytes(len_buf) as usize;
    if len > max_frame {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("frame length {len} exceeds cap {max_frame}"),
        ));
    }
    payload.clear();
    payload.reserve_exact(len);
    payload.resize(len, 0);
    r.read_exact(payload)?;
    Ok(true)
}

/// A connection's outbound side: frames accumulate in one reused buffer
/// and reach the stream as a single write per burst.
///
/// There is no timer and no size threshold inside: the owner decides
/// when a burst ends (typically when its send queue runs dry) and calls
/// [`write_burst`](Self::write_burst). A failed write keeps every frame
/// that did not completely reach the stream, so the owner can resend
/// them — in order, ahead of anything newer — on its next connection.
pub struct BurstWriter<W> {
    w: W,
    buf: Vec<u8>,
}

impl<W: Write> BurstWriter<W> {
    /// A writer with nothing buffered.
    pub fn new(w: W) -> Self {
        Self::resume(w, Vec::new())
    }

    /// A writer whose first burst starts with `unsent`: whole frames a
    /// previous writer failed to deliver (see
    /// [`into_unsent`](Self::into_unsent)).
    pub fn resume(w: W, unsent: Vec<u8>) -> Self {
        Self { w, buf: unsent }
    }

    /// Append one frame to the current burst (see [`push_frame`]).
    pub fn push(&mut self, encode: impl FnOnce(&mut Vec<u8>)) {
        push_frame(&mut self.buf, encode);
    }

    /// Bytes waiting for the next [`write_burst`](Self::write_burst).
    pub fn buffered(&self) -> usize {
        self.buf.len()
    }

    /// Write the buffered burst and flush the stream. On error the buffer
    /// keeps the frames that were not completely written, from the first
    /// partially written one on; frames written in full are dropped.
    pub fn write_burst(&mut self) -> io::Result<()> {
        let mut sent = 0;
        let result = loop {
            if sent == self.buf.len() {
                break self.w.flush();
            }
            match self.w.write(&self.buf[sent..]) {
                Ok(0) => break Err(io::ErrorKind::WriteZero.into()),
                Ok(n) => sent += n,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => break Err(e),
            }
        };
        if result.is_ok() {
            self.buf.clear();
        } else {
            let keep = complete_frames_within(&self.buf, sent);
            self.buf.drain(..keep);
        }
        result
    }

    /// Release buffer capacity beyond `min_capacity` (or beyond what is
    /// still buffered, if more). A burst only as large as its largest
    /// frames otherwise stays allocated for the writer's lifetime.
    pub fn shrink_to(&mut self, min_capacity: usize) {
        self.buf.shrink_to(min_capacity);
    }

    /// The frames a failed [`write_burst`](Self::write_burst) left
    /// behind (empty after a successful one).
    pub fn into_unsent(self) -> Vec<u8> {
        self.buf
    }
}

/// Length of the longest prefix of `frames` (a run of whole frames) made
/// of frames that end at or before byte `sent`.
fn complete_frames_within(frames: &[u8], sent: usize) -> usize {
    let mut at = 0;
    while let Some(prefix) = frames.get(at..at + 4) {
        let end = at + 4 + u32::from_be_bytes(prefix.try_into().expect("4-byte slice")) as usize;
        if end > sent {
            break;
        }
        at = end;
    }
    at
}

#[cfg(test)]
mod tests {
    use super::*;

    fn frame(out: &mut Vec<u8>, payload: &[u8]) {
        push_frame(out, |b| b.extend_from_slice(payload));
    }

    fn next(r: &mut &[u8], buf: &mut Vec<u8>) -> Option<Vec<u8>> {
        read_frame(r, DEFAULT_MAX_FRAME, buf).unwrap().then(|| buf.clone())
    }

    #[test]
    fn round_trips_frames_in_order() {
        let mut stream = Vec::new();
        frame(&mut stream, b"alpha");
        frame(&mut stream, b"");
        frame(&mut stream, b"beta");
        let mut r = stream.as_slice();
        let mut buf = Vec::new();
        assert_eq!(next(&mut r, &mut buf).unwrap(), b"alpha");
        assert_eq!(next(&mut r, &mut buf).unwrap(), b"");
        assert_eq!(next(&mut r, &mut buf).unwrap(), b"beta");
        assert!(next(&mut r, &mut buf).is_none(), "clean EOF");
    }

    #[test]
    fn push_frame_prefixes_the_big_endian_length() {
        let mut out = vec![0xEE];
        frame(&mut out, b"abc");
        assert_eq!(out, [0xEE, 0, 0, 0, 3, b'a', b'b', b'c']);
    }

    #[test]
    fn rejects_oversized_length_without_allocating() {
        let mut stream = Vec::new();
        stream.extend_from_slice(&(u32::MAX).to_be_bytes());
        let mut buf = Vec::new();
        let err = read_frame(&mut stream.as_slice(), 1024, &mut buf).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert_eq!(buf.capacity(), 0);
    }

    #[test]
    fn truncated_frame_is_an_error_not_eof() {
        let mut stream = Vec::new();
        frame(&mut stream, b"abcdef");
        // Cut the stream inside the payload.
        stream.truncate(7);
        let mut buf = Vec::new();
        let err = read_frame(&mut stream.as_slice(), 1024, &mut buf).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof);
        // And inside the length prefix.
        let err = read_frame(&mut [0u8, 0u8].as_slice(), 1024, &mut buf).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof);
    }

    #[test]
    fn burst_writer_issues_one_write_per_burst() {
        /// Counts `write` calls.
        struct Counting(Vec<u8>, usize);
        impl Write for Counting {
            fn write(&mut self, b: &[u8]) -> io::Result<usize> {
                self.1 += 1;
                self.0.extend_from_slice(b);
                Ok(b.len())
            }
            fn flush(&mut self) -> io::Result<()> {
                Ok(())
            }
        }
        let mut w = BurstWriter::new(Counting(Vec::new(), 0));
        for p in [&b"a"[..], b"bb", b"ccc"] {
            w.push(|b| b.extend_from_slice(p));
        }
        assert_eq!(w.buffered(), 3 * 4 + 6);
        w.write_burst().unwrap();
        assert_eq!(w.buffered(), 0);
        w.write_burst().unwrap();
        assert_eq!(w.w.1, 1, "one write for three frames; none for an empty burst");
        let mut expected = Vec::new();
        for p in [&b"a"[..], b"bb", b"ccc"] {
            frame(&mut expected, p);
        }
        assert_eq!(w.w.0, expected);
        // A large burst's capacity is given back on request.
        w.push(|b| b.resize(b.len() + 4096, 7));
        w.write_burst().unwrap();
        assert!(w.buf.capacity() >= 4096);
        w.shrink_to(64);
        assert!(w.buf.capacity() < 4096);
    }

    #[test]
    fn failed_burst_keeps_the_frames_not_fully_written() {
        /// Accepts `budget` bytes, then fails like a reset connection.
        struct Breaks(Vec<u8>, usize);
        impl Write for Breaks {
            fn write(&mut self, b: &[u8]) -> io::Result<usize> {
                if self.1 == 0 {
                    return Err(io::ErrorKind::ConnectionReset.into());
                }
                let n = b.len().min(self.1).min(3);
                self.1 -= n;
                self.0.extend_from_slice(&b[..n]);
                Ok(n)
            }
            fn flush(&mut self) -> io::Result<()> {
                Ok(())
            }
        }
        let payloads: [&[u8]; 4] = [b"one", b"two", b"three", b"four"];
        let mut all = Vec::new();
        for p in payloads {
            frame(&mut all, p);
        }
        // Every cut point: the kept bytes are exactly the frames from the
        // first one that did not make it completely.
        for budget in 0..all.len() {
            let mut w = BurstWriter::new(Breaks(Vec::new(), budget));
            for p in payloads {
                w.push(|b| b.extend_from_slice(p));
            }
            assert!(w.write_burst().is_err());
            let keep = complete_frames_within(&all, budget);
            assert!(keep <= budget);
            let unsent = w.into_unsent();
            assert_eq!(unsent, &all[keep..], "budget {budget}");
            // Resuming delivers the remainder first.
            let mut w = BurstWriter::resume(Vec::new(), unsent);
            w.push(|b| b.extend_from_slice(b"five"));
            w.write_burst().unwrap();
            let mut expected = all[keep..].to_vec();
            frame(&mut expected, b"five");
            assert_eq!(w.w, expected);
        }
    }
}
