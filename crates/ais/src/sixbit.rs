//! Bit-level reader/writer for AIS 6-bit payloads.
//!
//! AIS payloads are bit streams grouped into 6-bit symbols which are then
//! "armored" into printable ASCII for NMEA transport. [`BitWriter`] and
//! [`BitReader`] operate on the raw bit stream; armoring lives in
//! [`crate::nmea`].

/// Append-only bit buffer (MSB-first within the stream).
#[derive(Debug, Default, Clone)]
pub struct BitWriter {
    bits: Vec<bool>,
}

impl BitWriter {
    /// New empty writer.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of bits written so far.
    pub fn len(&self) -> usize {
        self.bits.len()
    }

    /// True if no bits have been written.
    pub fn is_empty(&self) -> bool {
        self.bits.is_empty()
    }

    /// Write the low `width` bits of `value`, most significant first.
    pub fn put_u32(&mut self, value: u32, width: usize) {
        debug_assert!(width <= 32);
        for i in (0..width).rev() {
            self.bits.push((value >> i) & 1 == 1);
        }
    }

    /// Write a signed value in two's complement over `width` bits.
    pub fn put_i32(&mut self, value: i32, width: usize) {
        self.put_u32(value as u32, width);
    }

    /// Write a string as AIS 6-bit ASCII, padded with `@` (0) to exactly
    /// `chars` characters. Lower-case input is upper-cased; characters
    /// outside the 6-bit set become `@`.
    pub fn put_string(&mut self, s: &str, chars: usize) {
        let mut written = 0;
        for c in s.chars().take(chars) {
            self.put_u32(char_to_sixbit(c) as u32, 6);
            written += 1;
        }
        for _ in written..chars {
            self.put_u32(0, 6); // '@' padding
        }
    }

    /// Finish, padding with zero bits so the length is a multiple of 6,
    /// and return (bits, fill_bits_added).
    pub fn finish(mut self) -> (Vec<bool>, usize) {
        let fill = (6 - self.bits.len() % 6) % 6;
        for _ in 0..fill {
            self.bits.push(false);
        }
        (self.bits, fill)
    }
}

/// Sequential reader over a bit stream.
#[derive(Debug)]
pub struct BitReader<'a> {
    bits: &'a [bool],
    cursor: usize,
}

/// Error returned when a read runs past the end of the payload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OutOfBits;

impl std::fmt::Display for OutOfBits {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "payload too short")
    }
}

impl std::error::Error for OutOfBits {}

impl<'a> BitReader<'a> {
    /// Read from the start of `bits`.
    pub fn new(bits: &'a [bool]) -> Self {
        Self { bits, cursor: 0 }
    }

    /// Bits remaining.
    pub fn remaining(&self) -> usize {
        self.bits.len() - self.cursor
    }

    /// Read `width` bits as an unsigned value.
    pub fn take_u32(&mut self, width: usize) -> Result<u32, OutOfBits> {
        debug_assert!(width <= 32);
        let bits = self.bits.get(self.cursor..self.cursor + width).ok_or(OutOfBits)?;
        self.cursor += width;
        Ok(bits.iter().fold(0, |v, &b| (v << 1) | u32::from(b)))
    }

    /// Read `width` bits as a signed (two's complement) value.
    pub fn take_i32(&mut self, width: usize) -> Result<i32, OutOfBits> {
        let raw = self.take_u32(width)?;
        let shift = 32 - width;
        Ok(((raw << shift) as i32) >> shift)
    }

    /// Read `chars` 6-bit characters as a trimmed string (`@` and
    /// trailing spaces removed).
    pub fn take_string(&mut self, chars: usize) -> Result<String, OutOfBits> {
        let mut s = String::with_capacity(chars);
        for _ in 0..chars {
            let v = self.take_u32(6)? as u8;
            s.push(sixbit_to_char(v));
        }
        // '@' marks unused positions; also trim trailing spaces.
        let trimmed = s.trim_end_matches(['@', ' ']).to_string();
        Ok(trimmed)
    }

    /// Skip `width` bits.
    pub fn skip(&mut self, width: usize) -> Result<(), OutOfBits> {
        if self.remaining() < width {
            return Err(OutOfBits);
        }
        self.cursor += width;
        Ok(())
    }
}

/// Map a character to its AIS 6-bit code. Valid input is `@A–Z[\]^_`
/// (codes 0–31) and space through `?` (codes 32–63); everything else
/// (including lower case after upper-casing fails) maps to 0 (`@`).
pub fn char_to_sixbit(c: char) -> u8 {
    let c = c.to_ascii_uppercase();
    let v = c as u32;
    match v {
        64..=95 => (v - 64) as u8, // '@'..'_' -> 0..31
        32..=63 => v as u8,        // ' '..'?' -> 32..63
        _ => 0,
    }
}

/// Map an AIS 6-bit code back to its character.
pub fn sixbit_to_char(v: u8) -> char {
    let v = v & 0x3f;
    if v < 32 {
        (v + 64) as char
    } else {
        v as char
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn u32_round_trip() {
        let mut w = BitWriter::new();
        w.put_u32(6, 6);
        w.put_u32(0x3ffff, 18);
        w.put_u32(0, 3);
        w.put_u32(5, 3);
        let (bits, fill) = w.finish();
        assert_eq!(fill, 0);
        assert_eq!(bits.len(), 30);
        let mut r = BitReader::new(&bits);
        assert_eq!(r.take_u32(6).unwrap(), 6);
        assert_eq!(r.take_u32(18).unwrap(), 0x3ffff);
        assert_eq!(r.take_u32(3).unwrap(), 0);
        assert_eq!(r.take_u32(3).unwrap(), 5);
        assert_eq!(r.remaining(), 0);
    }

    #[test]
    fn i32_round_trip_negative() {
        let mut w = BitWriter::new();
        w.put_i32(-1, 8);
        w.put_i32(-12345, 28);
        w.put_i32(12345, 28);
        let (bits, _) = w.finish();
        let mut r = BitReader::new(&bits);
        assert_eq!(r.take_i32(8).unwrap(), -1);
        assert_eq!(r.take_i32(28).unwrap(), -12345);
        assert_eq!(r.take_i32(28).unwrap(), 12345);
    }

    #[test]
    fn string_round_trip_and_padding() {
        let mut w = BitWriter::new();
        w.put_string("MN TOUCAN", 20);
        let (bits, _) = w.finish();
        assert_eq!(bits.len(), 120);
        let mut r = BitReader::new(&bits);
        assert_eq!(r.take_string(20).unwrap(), "MN TOUCAN");
    }

    #[test]
    fn string_is_uppercased_and_truncated() {
        let mut w = BitWriter::new();
        w.put_string("marseille-fos port", 9);
        let (bits, _) = w.finish();
        let mut r = BitReader::new(&bits);
        assert_eq!(r.take_string(9).unwrap(), "MARSEILLE");
    }

    #[test]
    fn char_mapping_table() {
        assert_eq!(char_to_sixbit('@'), 0);
        assert_eq!(char_to_sixbit('A'), 1);
        assert_eq!(char_to_sixbit('Z'), 26);
        assert_eq!(char_to_sixbit(' '), 32);
        assert_eq!(char_to_sixbit('?'), 63);
        assert_eq!(char_to_sixbit('0'), 48);
        for v in 0..64u8 {
            assert_eq!(char_to_sixbit(sixbit_to_char(v)), v);
        }
    }

    #[test]
    fn finish_pads_to_multiple_of_six() {
        let mut w = BitWriter::new();
        w.put_u32(1, 4);
        let (bits, fill) = w.finish();
        assert_eq!(fill, 2);
        assert_eq!(bits.len(), 6);
    }

    #[test]
    fn reader_overrun_errors() {
        let bits = vec![true; 5];
        let mut r = BitReader::new(&bits);
        assert!(r.take_u32(6).is_err());
        assert!(r.take_u32(5).is_ok());
        assert!(r.take_u32(1).is_err());
    }

    #[test]
    fn skip_advances() {
        let bits = vec![false, true, false, true];
        let mut r = BitReader::new(&bits);
        r.skip(2).unwrap();
        assert_eq!(r.take_u32(2).unwrap(), 0b01);
        assert!(r.skip(1).is_err());
    }
}
