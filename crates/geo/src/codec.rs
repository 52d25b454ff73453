//! Compact integer/float codecs for sealed trajectory storage.
//!
//! The archive's cold tier stores per-vessel slabs of fixes
//! delta-encoded columnar; this module provides the shared primitives:
//!
//! - **LEB128 varints** ([`write_varint`] / [`read_varint`]) — small
//!   magnitudes (deltas of sorted timestamps, quantized position steps)
//!   cost one or two bytes instead of eight.
//! - **ZigZag mapping** ([`zigzag`] / [`unzigzag`]) — signed deltas of
//!   either sign stay small as varints.
//! - **Fixed-point quantization** ([`quantize`] / [`dequantize`]) — a
//!   lossy float→integer mapping with an explicit, recorded scale.
//! - **Bit-exact float transport** ([`write_f64_xor`] /
//!   [`read_f64_xor`]) — XOR against the previous value's bit pattern,
//!   varint-encoded; repeated values (a vessel holding course and
//!   speed) cost one byte and the round-trip is always exact.
//! - **Checksummed frames** ([`crc32`] / [`write_frame`] /
//!   [`check_frame`]) — the `[u32 len][u32 CRC-32][payload]` record
//!   framing (little-endian) the durable tier writes to disk and the
//!   serving tier writes to sockets.
//!
//! ## Example
//!
//! ```
//! use mda_geo::codec::{read_varint, write_varint, unzigzag, zigzag};
//!
//! let mut buf = Vec::new();
//! for delta in [0i64, -3, 60_000, 42] {
//!     write_varint(&mut buf, zigzag(delta));
//! }
//! let mut at = 0;
//! assert_eq!(unzigzag(read_varint(&buf, &mut at).unwrap()), 0);
//! assert_eq!(unzigzag(read_varint(&buf, &mut at).unwrap()), -3);
//! ```

/// Append `value` as an LEB128 varint (7 payload bits per byte).
pub fn write_varint(buf: &mut Vec<u8>, mut value: u64) {
    loop {
        let byte = (value & 0x7F) as u8;
        value >>= 7;
        if value == 0 {
            buf.push(byte);
            return;
        }
        buf.push(byte | 0x80);
    }
}

/// Read an LEB128 varint from `buf` at `*at`, advancing the cursor.
///
/// Returns `None` — never panics, never wraps — on any malformed
/// input: truncation mid-value, more than 10 bytes (the longest
/// encoding of a `u64`), or a 10th byte carrying payload bits past bit
/// 63 (which would silently overflow a `u64`). At most 10 bytes are
/// consumed even when rejecting.
pub fn read_varint(buf: &[u8], at: &mut usize) -> Option<u64> {
    let mut value = 0u64;
    let mut shift = 0u32;
    loop {
        let byte = *buf.get(*at)?;
        *at += 1;
        if shift == 63 && byte & 0xFE != 0 {
            // 10th byte: only the lowest payload bit fits in a u64, and
            // it must terminate — anything else is overflow or an 11th
            // byte, both rejected rather than wrapped.
            return None;
        }
        value |= u64::from(byte & 0x7F) << shift;
        if byte & 0x80 == 0 {
            return Some(value);
        }
        shift += 7;
    }
}

/// Map a signed integer onto an unsigned one so small magnitudes of
/// either sign become small varints: `0, -1, 1, -2, ... → 0, 1, 2, 3`.
#[inline]
pub const fn zigzag(v: i64) -> u64 {
    ((v << 1) ^ (v >> 63)) as u64
}

/// Inverse of [`zigzag`].
#[inline]
pub const fn unzigzag(v: u64) -> i64 {
    ((v >> 1) as i64) ^ -((v & 1) as i64)
}

/// Quantize a float onto the integer lattice of step `1 / scale`
/// (round-to-nearest). The reconstruction error of [`dequantize`] is at
/// most `0.5 / scale`.
///
/// Non-finite and out-of-range inputs saturate instead of producing
/// undefined lattice points: `NaN` maps to 0, and anything beyond the
/// `i64` range (including ±∞) clamps to `i64::MIN` / `i64::MAX`.
#[inline]
pub fn quantize(value: f64, scale: f64) -> i64 {
    let scaled = value * scale;
    if scaled.is_nan() {
        return 0;
    }
    if scaled >= i64::MAX as f64 {
        return i64::MAX;
    }
    if scaled <= i64::MIN as f64 {
        return i64::MIN;
    }
    scaled.round() as i64
}

/// Inverse of [`quantize`] (up to the quantization error).
#[inline]
pub fn dequantize(q: i64, scale: f64) -> f64 {
    q as f64 / scale
}

/// Append `value` bit-exactly as `varint(bits(value) XOR bits(prev))`.
/// Returns `value` (the next `prev`). Equal consecutive values cost one
/// byte; arbitrary values cost at most ten.
pub fn write_f64_xor(buf: &mut Vec<u8>, prev: f64, value: f64) -> f64 {
    write_varint(buf, value.to_bits() ^ prev.to_bits());
    value
}

/// Read a float written by [`write_f64_xor`] given the same `prev`.
pub fn read_f64_xor(buf: &[u8], at: &mut usize, prev: f64) -> Option<f64> {
    Some(f64::from_bits(read_varint(buf, at)? ^ prev.to_bits()))
}

/// CRC-32 (IEEE 802.3, reflected) lookup table, built at compile time.
static CRC_TABLE: [u32; 256] = crc_table();

const fn crc_table() -> [u32; 256] {
    let mut table = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 { 0xEDB8_8320 ^ (c >> 1) } else { c >> 1 };
            k += 1;
        }
        // lint:allow(panic-free-decode): i < 256 is the loop bound and
        // the table length; this is a const-eval table build, not a
        // byte-dependent decode.
        table[i] = c;
        i += 1;
    }
    table
}

/// CRC-32 (IEEE) of `bytes`.
pub fn crc32(bytes: &[u8]) -> u32 {
    let mut c = !0u32;
    for &b in bytes {
        // lint:allow(panic-free-decode): the index is masked to 0xFF
        // and CRC_TABLE has 256 entries.
        c = (c >> 8) ^ CRC_TABLE[((c ^ u32::from(b)) & 0xFF) as usize];
    }
    !c
}

/// Append one frame (length, CRC, payload) to `out`.
pub fn write_frame(out: &mut Vec<u8>, payload: &[u8]) {
    out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    out.extend_from_slice(&crc32(payload).to_le_bytes());
    out.extend_from_slice(payload);
}

/// What the bytes at a buffer position are, as a frame. Whether a
/// short buffer is a torn file or a socket still delivering, and
/// whether a bad frame ends a log or a connection, is the caller's
/// call.
#[derive(Debug)]
pub enum FrameCheck<'a> {
    /// A complete frame with a matching checksum: its payload. The
    /// cursor advanced past it.
    Whole(&'a [u8]),
    /// The buffer ends before the frame does (inside the header or the
    /// payload, or exactly at the cursor). The cursor is unmoved.
    Short,
    /// These bytes cannot be a frame: the length prefix exceeds the
    /// caller's bound, or the checksum disagrees. The cursor is
    /// unmoved.
    Bad,
}

/// Check the frame at `*at`, advancing the cursor past it when it is
/// whole. A length prefix above `max_len` is [`FrameCheck::Bad`]
/// whatever the buffer holds — outside bytes must never size memory or
/// a wait. Never allocates and never panics, whatever the bytes.
pub fn check_frame<'a>(buf: &'a [u8], at: &mut usize, max_len: usize) -> FrameCheck<'a> {
    let Some(rest) = buf.get(*at..) else { return FrameCheck::Short };
    let (Some(len4), Some(crc4)) =
        (rest.first_chunk::<4>(), rest.get(4..).and_then(|r| r.first_chunk::<4>()))
    else {
        return FrameCheck::Short;
    };
    let len = u32::from_le_bytes(*len4) as usize;
    if len > max_len {
        return FrameCheck::Bad;
    }
    let Some(payload) = rest.get(8..).and_then(|r| r.get(..len)) else { return FrameCheck::Short };
    if crc32(payload) != u32::from_le_bytes(*crc4) {
        return FrameCheck::Bad;
    }
    *at += 8 + len;
    FrameCheck::Whole(payload)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{rngs::StdRng, Rng, SeedableRng};

    #[test]
    fn crc32_matches_known_vectors() {
        // The classic check value for CRC-32/IEEE.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn frame_check_has_three_outcomes_and_moves_only_past_whole_frames() {
        let mut buf = Vec::new();
        write_frame(&mut buf, b"hello");
        write_frame(&mut buf, b"");
        let mut at = 0;
        assert!(matches!(check_frame(&buf, &mut at, usize::MAX), FrameCheck::Whole(b"hello")));
        assert!(matches!(check_frame(&buf, &mut at, usize::MAX), FrameCheck::Whole(b"")));
        assert_eq!(at, buf.len());
        assert!(matches!(check_frame(&buf, &mut at, usize::MAX), FrameCheck::Short));
        assert!(matches!(check_frame(&buf, &mut (buf.len() + 1), usize::MAX), FrameCheck::Short));
        // A cut can only shorten, never corrupt.
        for cut in 0..13 {
            let mut at = 0;
            assert!(matches!(check_frame(&buf[..cut], &mut at, usize::MAX), FrameCheck::Short));
            assert_eq!(at, 0);
        }
        // A flipped payload bit fails the CRC; a length above the bound
        // is bad before the buffer is even consulted.
        let mut flipped = buf.clone();
        flipped[10] ^= 0x01;
        let mut at = 0;
        assert!(matches!(check_frame(&flipped, &mut at, usize::MAX), FrameCheck::Bad));
        assert!(matches!(check_frame(&buf, &mut at, 4), FrameCheck::Bad));
        assert!(matches!(
            check_frame(&u32::MAX.to_le_bytes(), &mut at, 1 << 20),
            FrameCheck::Short
        ));
        let mut huge = u32::MAX.to_le_bytes().to_vec();
        huge.extend_from_slice(&[0; 4]);
        assert!(matches!(check_frame(&huge, &mut at, 1 << 20), FrameCheck::Bad));
        assert_eq!(at, 0);
    }

    #[test]
    fn varint_round_trip_edges() {
        let cases =
            [0u64, 1, 127, 128, 16_383, 16_384, u64::from(u32::MAX), u64::MAX - 1, u64::MAX];
        for v in cases {
            let mut buf = Vec::new();
            write_varint(&mut buf, v);
            assert!(buf.len() <= 10);
            let mut at = 0;
            assert_eq!(read_varint(&buf, &mut at), Some(v));
            assert_eq!(at, buf.len());
        }
    }

    #[test]
    fn varint_rejects_truncation() {
        let mut buf = Vec::new();
        write_varint(&mut buf, u64::MAX);
        let mut at = 0;
        assert_eq!(read_varint(&buf[..buf.len() - 1], &mut at), None);
        assert_eq!(read_varint(&[], &mut 0), None);
    }

    #[test]
    fn varint_rejects_overlong_and_overflow() {
        // 11 continuation bytes: must reject without consuming past 10.
        let mut at = 0;
        assert_eq!(read_varint(&[0x80; 11], &mut at), None);
        assert!(at <= 10, "consumed {at} bytes");
        // 10th byte with payload bits above bit 63 would wrap a u64.
        let mut overflow = vec![0xFF; 9];
        overflow.push(0x02);
        assert_eq!(read_varint(&overflow, &mut 0), None);
        // Adversarial all-0xFF stream: continuation forever, high bits set.
        assert_eq!(read_varint(&[0xFF; 32], &mut 0), None);
        // The canonical 10-byte encoding of u64::MAX still decodes.
        let mut max = vec![0xFF; 9];
        max.push(0x01);
        assert_eq!(read_varint(&max, &mut 0), Some(u64::MAX));
    }

    #[test]
    fn quantize_saturates_non_finite() {
        assert_eq!(quantize(f64::NAN, 1e5), 0);
        assert_eq!(quantize(f64::INFINITY, 1e5), i64::MAX);
        assert_eq!(quantize(f64::NEG_INFINITY, 1e5), i64::MIN);
        assert_eq!(quantize(1e300, 1e5), i64::MAX);
        assert_eq!(quantize(-1e300, 1e5), i64::MIN);
        // NaN can also arise from the multiply itself (0 × ∞).
        assert_eq!(quantize(0.0, f64::INFINITY), 0);
        assert_eq!(quantize(1.0, f64::INFINITY), i64::MAX);
    }

    #[test]
    fn zigzag_round_trip_and_order() {
        for v in [0i64, -1, 1, -2, 2, i64::MIN, i64::MAX, 12_345, -12_345] {
            assert_eq!(unzigzag(zigzag(v)), v);
        }
        // Small magnitudes map to small codes.
        assert_eq!(zigzag(0), 0);
        assert_eq!(zigzag(-1), 1);
        assert_eq!(zigzag(1), 2);
        assert!(zigzag(100) < zigzag(-1_000));
    }

    #[test]
    fn quantization_error_is_bounded() {
        let mut rng = StdRng::seed_from_u64(3);
        let scale = 1e5; // 1e-5 degrees ≈ 1.1 m of latitude
        for _ in 0..1_000 {
            let v: f64 = rng.gen_range(-180.0..180.0);
            let back = dequantize(quantize(v, scale), scale);
            assert!((back - v).abs() <= 0.5 / scale + 1e-12, "{v} → {back}");
        }
    }

    #[test]
    fn f64_xor_is_bit_exact() {
        let mut rng = StdRng::seed_from_u64(4);
        let values: Vec<f64> =
            (0..500).map(|i| if i % 3 == 0 { 42.5 } else { rng.gen_range(-1e9..1e9) }).collect();
        let mut buf = Vec::new();
        let mut prev = 0.0;
        for &v in &values {
            prev = write_f64_xor(&mut buf, prev, v);
        }
        let mut at = 0;
        let mut prev = 0.0;
        for &v in &values {
            let got = read_f64_xor(&buf, &mut at, prev).unwrap();
            assert_eq!(got.to_bits(), v.to_bits());
            prev = got;
        }
        assert_eq!(at, buf.len());
    }

    #[test]
    fn repeated_values_compress_to_one_byte() {
        let mut buf = Vec::new();
        let mut prev = 0.0;
        for _ in 0..100 {
            prev = write_f64_xor(&mut buf, prev, 123.456);
        }
        // First value costs up to 10 bytes, the 99 repeats one byte each.
        assert!(buf.len() <= 10 + 99, "buf {}", buf.len());
    }
}
