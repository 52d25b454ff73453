//! AIVDM/NMEA 0183 sentence framing.
//!
//! AIS payload bits are armored into printable ASCII and wrapped in
//! `!AIVDM` sentences with an XOR checksum; payloads longer than one
//! sentence (type 5) are split across fragments. [`SentenceAssembler`]
//! reassembles multi-fragment messages from an interleaved feed, as a
//! real receiver must.

use std::collections::hash_map::{Entry, HashMap};

/// Maximum payload characters per sentence (keeps sentences within the
/// 82-character NMEA limit).
const MAX_PAYLOAD_CHARS: usize = 60;

/// Errors arising while parsing NMEA sentences.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum NmeaError {
    /// The sentence does not start with `!AIVDM`/`!AIVDO`.
    NotAivdm,
    /// Wrong number of comma-separated fields.
    BadFieldCount,
    /// Checksum mismatch (got, want).
    BadChecksum(u8, u8),
    /// A numeric field failed to parse.
    BadNumber,
    /// A payload character is outside the armoring alphabet.
    BadPayloadChar(char),
    /// The fragment index is outside `1..=count` (index, count).
    BadFragment(u8, u8),
    /// The sequential message id is outside `0..=9`.
    BadMessageId(u8),
    /// The radio channel is not `A`, `B`, `1` or `2`.
    BadChannel(char),
}

impl std::fmt::Display for NmeaError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            NmeaError::NotAivdm => write!(f, "not an AIVDM sentence"),
            NmeaError::BadFieldCount => write!(f, "wrong AIVDM field count"),
            NmeaError::BadChecksum(g, w) => write!(f, "checksum {g:02X} != {w:02X}"),
            NmeaError::BadNumber => write!(f, "malformed numeric field"),
            NmeaError::BadPayloadChar(c) => write!(f, "invalid payload character {c:?}"),
            NmeaError::BadFragment(i, n) => write!(f, "fragment {i} of a {n}-fragment message"),
            NmeaError::BadMessageId(id) => write!(f, "sequential message id {id} is not 0-9"),
            NmeaError::BadChannel(c) => write!(f, "radio channel {c:?} is not A, B, 1 or 2"),
        }
    }
}

impl std::error::Error for NmeaError {}

/// One parsed AIVDM sentence (a fragment of a message).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Sentence {
    /// Total fragments of the message.
    pub frag_count: u8,
    /// 1-based index of this fragment.
    pub frag_index: u8,
    /// Sequential message id linking fragments (empty for single-fragment
    /// messages).
    pub message_id: Option<u8>,
    /// Radio channel (`A`, `B`, `1` or `2`).
    pub channel: char,
    /// Armored payload characters.
    pub payload: String,
    /// Number of fill bits appended to the final 6-bit group.
    pub fill_bits: u8,
}

impl Sentence {
    /// 0-based position of this fragment within its message.
    fn slot(&self) -> Result<usize, NmeaError> {
        if (1..=self.frag_count).contains(&self.frag_index) {
            Ok(usize::from(self.frag_index) - 1)
        } else {
            Err(NmeaError::BadFragment(self.frag_index, self.frag_count))
        }
    }

    /// The assembler key `(message id, channel)`. Only ids `0..=9` and
    /// channels `A`/`B`/`1`/`2` are in spec, so at most 11 × 4 = 44
    /// messages can be pending at once.
    fn key(&self) -> Result<(Option<u8>, char), NmeaError> {
        if let Some(id) = self.message_id.filter(|&id| id > 9) {
            return Err(NmeaError::BadMessageId(id));
        }
        if !matches!(self.channel, 'A' | 'B' | '1' | '2') {
            return Err(NmeaError::BadChannel(self.channel));
        }
        Ok((self.message_id, self.channel))
    }
}

/// XOR checksum over the characters between `!` and `*`.
fn checksum(body: &str) -> u8 {
    body.bytes().fold(0, |acc, b| acc ^ b)
}

/// Armor a 6-bit value into its payload character.
fn armor(v: u8) -> char {
    let mut c = v + 48;
    if c > 87 {
        c += 8;
    }
    c as char
}

/// De-armor a payload character into its 6-bit value.
fn dearmor(c: char) -> Result<u8, NmeaError> {
    let v = c as u32;
    if !(48..=119).contains(&v) || (88..=95).contains(&v) {
        return Err(NmeaError::BadPayloadChar(c));
    }
    let mut x = v as u8 - 48;
    if x > 40 {
        x -= 8;
    }
    Ok(x)
}

/// Armor a bit stream (length must be a multiple of 6) into payload
/// characters.
pub fn armor_bits(bits: &[bool]) -> String {
    debug_assert_eq!(bits.len() % 6, 0, "payload bits must be 6-bit aligned");
    bits.chunks(6)
        .map(|chunk| {
            let v = chunk.iter().fold(0u8, |acc, &b| (acc << 1) | b as u8);
            armor(v)
        })
        .collect()
}

/// De-armor payload characters back into bits, dropping `fill_bits`
/// trailing bits.
pub fn dearmor_payload(payload: &str, fill_bits: u8) -> Result<Vec<bool>, NmeaError> {
    let mut bits = Vec::with_capacity(payload.len() * 6);
    for c in payload.chars() {
        let v = dearmor(c)?;
        for i in (0..6).rev() {
            bits.push((v >> i) & 1 == 1);
        }
    }
    bits.truncate(bits.len().saturating_sub(fill_bits as usize));
    Ok(bits)
}

/// Frame payload bits into one or more `!AIVDM` sentences.
///
/// `message_id` is only emitted for multi-fragment messages, per
/// convention.
pub fn to_sentences(bits: &[bool], fill_bits: usize, channel: char, message_id: u8) -> Vec<String> {
    let payload = armor_bits(bits);
    let chunks: Vec<&str> = (0..payload.len())
        .step_by(MAX_PAYLOAD_CHARS)
        .filter_map(|at| payload.get(at..payload.len().min(at + MAX_PAYLOAD_CHARS)))
        .collect();
    let n = chunks.len().max(1);
    let mut out = Vec::with_capacity(n);
    for (i, chunk) in chunks.iter().enumerate() {
        let last = i + 1 == n;
        let fill = if last { fill_bits } else { 0 };
        let seq = if n > 1 { format!("{message_id}") } else { String::new() };
        let body = format!("AIVDM,{n},{},{seq},{channel},{chunk},{fill}", i + 1);
        out.push(format!("!{body}*{:02X}", checksum(&body)));
    }
    out
}

/// Parse one `!AIVDM` sentence, verifying the checksum, that the
/// fragment index lies in `1..=frag_count`, and that the message id and
/// channel are in spec (an empty channel means `A`).
pub fn parse_sentence(line: &str) -> Result<Sentence, NmeaError> {
    let line = line.trim();
    let rest = line.strip_prefix('!').ok_or(NmeaError::NotAivdm)?;
    let (body, cksum) = rest.split_once('*').ok_or(NmeaError::NotAivdm)?;
    let want = u8::from_str_radix(cksum.trim(), 16).map_err(|_| NmeaError::BadNumber)?;
    let got = checksum(body);
    if got != want {
        return Err(NmeaError::BadChecksum(got, want));
    }
    let fields: Vec<&str> = body.split(',').collect();
    if fields.len() != 7 {
        return Err(NmeaError::BadFieldCount);
    }
    if fields[0] != "AIVDM" && fields[0] != "AIVDO" {
        return Err(NmeaError::NotAivdm);
    }
    let frag_count: u8 = fields[1].parse().map_err(|_| NmeaError::BadNumber)?;
    let frag_index: u8 = fields[2].parse().map_err(|_| NmeaError::BadNumber)?;
    let message_id = if fields[3].is_empty() {
        None
    } else {
        Some(fields[3].parse().map_err(|_| NmeaError::BadNumber)?)
    };
    let channel = fields[4].chars().next().unwrap_or('A');
    let fill_bits: u8 = fields[6].parse().map_err(|_| NmeaError::BadNumber)?;
    let sentence = Sentence {
        frag_count,
        frag_index,
        message_id,
        channel,
        payload: fields[5].to_string(),
        fill_bits,
    };
    sentence.slot()?;
    sentence.key()?;
    Ok(sentence)
}

/// Reassembles multi-fragment messages from an interleaved sentence feed.
#[derive(Debug, Default)]
pub struct SentenceAssembler {
    pending: HashMap<(Option<u8>, char), Vec<Option<Sentence>>>,
}

impl SentenceAssembler {
    /// New assembler with no pending fragments.
    pub fn new() -> Self {
        Self::default()
    }

    /// Feed one sentence; returns the full payload bits when a message
    /// completes. A fragment index outside `1..=frag_count`, or an
    /// out-of-spec message id or channel, is an error and leaves every
    /// pending message as it was.
    pub fn push(&mut self, s: Sentence) -> Result<Option<Vec<bool>>, NmeaError> {
        if s.frag_count <= 1 {
            return Ok(Some(dearmor_payload(&s.payload, s.fill_bits)?));
        }
        let idx = s.slot()?;
        let count = usize::from(s.frag_count);
        let mut entry = match self.pending.entry(s.key()?) {
            Entry::Occupied(entry) => entry,
            Entry::Vacant(entry) => entry.insert_entry(vec![None; count]),
        };
        let parts = entry.get_mut();
        if parts.len() != count {
            // Conflicting fragment count: restart with the new one.
            *parts = vec![None; count];
        }
        if let Some(part) = parts.get_mut(idx) {
            *part = Some(s);
        }
        if parts.iter().all(Option::is_some) {
            let parts = entry.remove();
            let mut bits = Vec::new();
            for part in parts.into_iter().flatten() {
                bits.extend(dearmor_payload(&part.payload, part.fill_bits)?);
            }
            return Ok(Some(bits));
        }
        Ok(None)
    }

    /// Number of messages awaiting fragments.
    pub fn pending_count(&self) -> usize {
        self.pending.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::codec::{decode_payload, encode_payload};
    use crate::messages::{
        AisMessage, NavigationalStatus, PositionReport, ShipType, StaticVoyageData,
    };
    use mda_geo::Position;

    fn position_msg() -> AisMessage {
        AisMessage::Position(PositionReport {
            msg_type: 1,
            repeat: 0,
            mmsi: 227_006_760,
            status: NavigationalStatus::UnderWayUsingEngine,
            rot_deg_min: Some(-2.0),
            sog_kn: Some(10.1),
            position_accuracy: true,
            pos: Some(Position::new(49.4759, 0.1313)),
            cog_deg: Some(36.7),
            heading_deg: Some(38),
            utc_second: 15,
        })
    }

    fn static_msg() -> AisMessage {
        AisMessage::StaticVoyage(StaticVoyageData {
            repeat: 0,
            mmsi: 227_006_760,
            imo: 9_074_729,
            callsign: "FQHI".into(),
            name: "MN TOUCAN".into(),
            ship_type: ShipType::Cargo,
            dim_to_bow: 120,
            dim_to_stern: 34,
            dim_to_port: 10,
            dim_to_starboard: 12,
            eta_month: 6,
            eta_day: 14,
            eta_hour: 10,
            eta_minute: 30,
            draught_m: 7.4,
            destination: "MARSEILLE".into(),
        })
    }

    #[test]
    fn armor_dearmor_round_trip_all_values() {
        for v in 0..64u8 {
            assert_eq!(dearmor(armor(v)).unwrap(), v);
        }
    }

    #[test]
    fn dearmor_rejects_out_of_alphabet() {
        assert!(dearmor(' ').is_err());
        assert!(dearmor('X').is_err()); // 88 is in the forbidden gap
        assert!(dearmor('~').is_err());
    }

    #[test]
    fn single_sentence_round_trip() {
        let msg = position_msg();
        let (bits, fill) = encode_payload(&msg);
        let sentences = to_sentences(&bits, fill, 'A', 0);
        assert_eq!(sentences.len(), 1);
        assert!(sentences[0].starts_with("!AIVDM,1,1,,A,"));

        let parsed = parse_sentence(&sentences[0]).unwrap();
        let back = dearmor_payload(&parsed.payload, parsed.fill_bits).unwrap();
        assert_eq!(back, bits);
        let decoded = decode_payload(&back).unwrap();
        assert_eq!(decoded.mmsi(), 227_006_760);
    }

    #[test]
    fn multi_fragment_round_trip() {
        let msg = static_msg();
        let (bits, fill) = encode_payload(&msg);
        let sentences = to_sentences(&bits, fill, 'B', 3);
        assert!(sentences.len() >= 2, "type 5 must fragment");

        let mut asm = SentenceAssembler::new();
        let mut result = None;
        for s in &sentences {
            let parsed = parse_sentence(s).unwrap();
            if let Some(bits) = asm.push(parsed).unwrap() {
                result = Some(bits);
            }
        }
        let back = result.expect("message completed");
        // The receiver discards the `fill` padding bits.
        assert_eq!(back, bits[..bits.len() - fill]);
        match decode_payload(&back).unwrap() {
            AisMessage::StaticVoyage(s) => assert_eq!(s.name, "MN TOUCAN"),
            _ => panic!("wrong variant"),
        }
    }

    #[test]
    fn assembler_handles_interleaved_messages() {
        let (bits_a, fill_a) = encode_payload(&static_msg());
        let mut other = static_msg();
        if let AisMessage::StaticVoyage(s) = &mut other {
            s.mmsi = 228_000_111;
            s.name = "OTHER SHIP".into();
        }
        let (bits_b, fill_b) = encode_payload(&other);
        let sa = to_sentences(&bits_a, fill_a, 'A', 1);
        let sb = to_sentences(&bits_b, fill_b, 'A', 2);

        let mut asm = SentenceAssembler::new();
        // Interleave: a1 b1 a2 b2 ...
        let mut done = Vec::new();
        for pair in sa.iter().zip(sb.iter()) {
            for s in [pair.0, pair.1] {
                if let Some(bits) = asm.push(parse_sentence(s).unwrap()).unwrap() {
                    done.push(decode_payload(&bits).unwrap().mmsi());
                }
            }
        }
        assert_eq!(done.len(), 2);
        assert!(done.contains(&227_006_760));
        assert!(done.contains(&228_000_111));
        assert_eq!(asm.pending_count(), 0);
    }

    #[test]
    fn checksum_detects_corruption() {
        let msg = position_msg();
        let (bits, fill) = encode_payload(&msg);
        let mut sentence = to_sentences(&bits, fill, 'A', 0).remove(0);
        // Flip one payload character.
        let idx = 20;
        let mut chars: Vec<char> = sentence.chars().collect();
        chars[idx] = if chars[idx] == '0' { '1' } else { '0' };
        sentence = chars.into_iter().collect();
        match parse_sentence(&sentence) {
            Err(NmeaError::BadChecksum(_, _)) => {}
            other => panic!("expected checksum error, got {other:?}"),
        }
    }

    #[test]
    fn parse_rejects_malformed() {
        assert_eq!(parse_sentence("$GPGGA,foo*00"), Err(NmeaError::NotAivdm));
        assert!(parse_sentence("!AIVDM,1,1,,A*33").is_err());
        assert!(parse_sentence("garbage").is_err());
    }

    #[test]
    fn parse_rejects_fragment_index_outside_its_count() {
        for (count, index) in [(2, 0), (2, 9), (2, 3), (0, 0), (0, 1)] {
            let body = format!("AIVDM,{count},{index},3,A,55P5TL01VIaAL@7WKO@mBplU@<PDhh0000,0");
            let line = format!("!{body}*{:02X}", checksum(&body));
            assert_eq!(parse_sentence(&line), Err(NmeaError::BadFragment(index, count)), "{line}");
        }
    }

    #[test]
    fn out_of_range_fragment_leaves_the_pending_message_intact() {
        let (bits, fill) = encode_payload(&static_msg());
        let sentences = to_sentences(&bits, fill, 'B', 3);
        assert_eq!(sentences.len(), 2);
        let first = parse_sentence(&sentences[0]).unwrap();
        let second = parse_sentence(&sentences[1]).unwrap();

        let mut asm = SentenceAssembler::new();
        assert_eq!(asm.push(first).unwrap(), None);
        // Same message id and channel, indexes that used to be clamped
        // onto fragment 1 and fragment 2.
        for index in [0, 9] {
            let stray = Sentence { frag_index: index, payload: "0000".into(), ..second.clone() };
            assert_eq!(asm.push(stray), Err(NmeaError::BadFragment(index, 2)));
            assert_eq!(asm.pending_count(), 1);
        }
        let back = asm.push(second).unwrap().expect("message completed");
        assert_eq!(back, bits[..bits.len() - fill]);
        assert_eq!(asm.pending_count(), 0);
    }

    #[test]
    fn a_flood_of_first_fragments_keeps_the_assembler_bounded() {
        // Every printable channel character that keeps the sentence
        // well-formed (',' and '*' are field/checksum separators).
        let channels: Vec<char> = ('!'..='~').filter(|c| !matches!(c, ',' | '*')).collect();
        let mut asm = SentenceAssembler::new();
        for n in 0..100_000usize {
            let id = n % 256;
            let channel = channels[n / 256 % channels.len()];
            let body = format!("AIVDM,2,1,{id},{channel},55P5TL01VIaAL@7WKO@mBplU@<PDhh0000,0");
            let line = format!("!{body}*{:02X}", checksum(&body));
            let in_spec = id <= 9 && matches!(channel, 'A' | 'B' | '1' | '2');
            match parse_sentence(&line) {
                Ok(s) => {
                    assert!(in_spec, "{line} is out of spec but parsed");
                    assert_eq!(asm.push(s), Ok(None));
                }
                Err(e) => assert!(!in_spec, "{line} is in spec but failed: {e}"),
            }
        }
        assert!(asm.pending_count() <= 44, "{} pending", asm.pending_count());
    }

    #[test]
    fn sentences_respect_nmea_length() {
        let (bits, fill) = encode_payload(&static_msg());
        for s in to_sentences(&bits, fill, 'A', 0) {
            assert!(s.len() <= 82, "sentence too long: {} chars", s.len());
        }
    }
}
