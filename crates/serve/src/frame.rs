//! Length-prefixed, CRC-checked frames over a byte *stream* — the
//! durable tier's framing discipline adapted to sockets.
//!
//! A frame is `[u32 payload len][u32 CRC-32 of payload][payload]`, all
//! little-endian — the one frame format of [`mda_geo::codec`], which
//! the durable tier also writes to disk. The stream reader differs
//! from the disk reader in how it names the outcomes: a buffer that
//! ends mid-frame is **[`FrameStatus::Incomplete`]** (more bytes may
//! still arrive on the socket), not a torn tail, while a checksum
//! mismatch or an oversized length prefix is
//! **[`FrameStatus::Corrupt`]** — the stream cannot be resynchronised
//! and the connection must be dropped.
//!
//! This module is part of the registered `panic-free-decode` surface
//! (lint rule L2): every path through [`read_frame`] is total over
//! arbitrary socket bytes.

use mda_geo::codec::{check_frame, FrameCheck};

pub use mda_geo::codec::{crc32, write_frame};

/// Hard upper bound on one frame's payload (4 MiB). A length prefix
/// beyond this is treated as corruption rather than an allocation
/// request — socket bytes must never size our memory.
pub const MAX_FRAME_LEN: usize = 4 << 20;

/// Outcome of reading one frame from a stream buffer position.
#[derive(Debug)]
pub enum FrameStatus<'a> {
    /// A complete frame with a matching checksum; the cursor advanced
    /// past it.
    Ready(&'a [u8]),
    /// The buffer ends mid-frame — wait for more bytes; the cursor is
    /// unmoved.
    Incomplete,
    /// The bytes at the cursor cannot be a frame (oversized length or
    /// checksum mismatch). A byte stream cannot resync past this;
    /// close the connection. The cursor is unmoved.
    Corrupt,
}

/// Read the frame at `*at`, advancing the cursor past it on success.
/// Never allocates and never panics, whatever the bytes.
pub fn read_frame<'a>(buf: &'a [u8], at: &mut usize) -> FrameStatus<'a> {
    match check_frame(buf, at, MAX_FRAME_LEN) {
        FrameCheck::Whole(payload) => FrameStatus::Ready(payload),
        FrameCheck::Short => FrameStatus::Incomplete,
        FrameCheck::Bad => FrameStatus::Corrupt,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frames_round_trip_and_prefixes_are_incomplete() {
        let mut buf = Vec::new();
        write_frame(&mut buf, b"hello");
        write_frame(&mut buf, b"");
        let mut at = 0;
        assert!(matches!(read_frame(&buf, &mut at), FrameStatus::Ready(b"hello")));
        assert!(matches!(read_frame(&buf, &mut at), FrameStatus::Ready(b"")));
        assert!(matches!(read_frame(&buf, &mut at), FrameStatus::Incomplete));
        // Every strict prefix of the stream ends Incomplete (never
        // Corrupt: a cut can only truncate, not corrupt).
        for cut in 0..buf.len() {
            let mut at = 0;
            loop {
                match read_frame(&buf[..cut], &mut at) {
                    FrameStatus::Ready(_) => continue,
                    FrameStatus::Incomplete => break,
                    FrameStatus::Corrupt => panic!("truncation misread as corruption at {cut}"),
                }
            }
        }
    }

    #[test]
    fn corruption_is_detected_and_cursor_unmoved() {
        let mut buf = Vec::new();
        write_frame(&mut buf, &[0xAB; 100]);
        // Payload flip → CRC mismatch.
        let mut bad = buf.clone();
        bad[20] ^= 0x01;
        let mut at = 0;
        assert!(matches!(read_frame(&bad, &mut at), FrameStatus::Corrupt));
        assert_eq!(at, 0);
        // Oversized length prefix → Corrupt, not an allocation attempt.
        let mut huge = Vec::new();
        huge.extend_from_slice(&(u32::MAX).to_le_bytes());
        huge.extend_from_slice(&[0u8; 12]);
        assert!(matches!(read_frame(&huge, &mut 0), FrameStatus::Corrupt));
    }
}
