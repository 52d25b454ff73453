//! Length-prefixed, CRC-checked record framing — the one checksum
//! discipline shared by segment files, the WAL and the manifest.
//!
//! A frame on disk is `[u32 payload len][u32 CRC-32 of payload]
//! [payload]`, all little-endian ([`mda_geo::codec::check_frame`]).
//! Reading is over an in-memory byte slice (the durable tier reads
//! files back whole — `unsafe` is denied workspace-wide, so no mmap)
//! and distinguishes a *torn tail* (the file ends mid-frame, or the CRC
//! disagrees — expected after a crash, handled by truncate-and-continue)
//! from a clean end of input.

use mda_geo::codec::{check_frame, FrameCheck};

pub(crate) use mda_geo::codec::write_frame;

/// Outcome of reading one frame from a buffer position.
pub(crate) enum FrameRead<'a> {
    /// A complete frame with a matching checksum; cursor advanced past
    /// it.
    Ok(&'a [u8]),
    /// The buffer ends exactly at the cursor — a clean end of input.
    End,
    /// The bytes from the cursor on do not form a whole, checksummed
    /// frame: a torn tail. The cursor is left at the start of the bad
    /// frame — the valid prefix length for truncate-and-continue.
    Torn,
}

/// Read the frame at `*at`, advancing the cursor past it on success.
/// Never allocates and never panics: a corrupt length prefix simply
/// fails the range check against the real buffer.
pub(crate) fn read_frame<'a>(buf: &'a [u8], at: &mut usize) -> FrameRead<'a> {
    if *at == buf.len() {
        return FrameRead::End;
    }
    match check_frame(buf, at, usize::MAX) {
        FrameCheck::Whole(payload) => FrameRead::Ok(payload),
        FrameCheck::Short | FrameCheck::Bad => FrameRead::Torn,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frames_round_trip_and_reject_corruption() {
        let mut buf = Vec::new();
        write_frame(&mut buf, b"hello");
        write_frame(&mut buf, b"");
        write_frame(&mut buf, &[0xAB; 1000]);
        let mut at = 0;
        assert!(matches!(read_frame(&buf, &mut at), FrameRead::Ok(b"hello")));
        assert!(matches!(read_frame(&buf, &mut at), FrameRead::Ok(b"")));
        assert!(matches!(read_frame(&buf, &mut at), FrameRead::Ok(p) if p.len() == 1000));
        assert!(matches!(read_frame(&buf, &mut at), FrameRead::End));

        // Every truncation of the stream is Torn at the cut frame, with
        // the cursor naming the valid prefix.
        for cut in 0..buf.len() {
            let mut at = 0;
            loop {
                match read_frame(&buf[..cut], &mut at) {
                    FrameRead::Ok(_) => continue,
                    FrameRead::End => break,
                    FrameRead::Torn => {
                        assert!(at <= cut);
                        break;
                    }
                }
            }
        }

        // A flipped payload bit fails the CRC.
        let mut bad = buf.clone();
        bad[10] ^= 0x01;
        assert!(matches!(read_frame(&bad, &mut 0), FrameRead::Torn));
    }
}
