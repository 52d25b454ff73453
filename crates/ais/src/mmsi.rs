//! Maritime Mobile Service Identity (MMSI) handling.
//!
//! An MMSI is a nine-digit identity whose leading digits encode the kind
//! of station and — for ships — the flag state (the three-digit Maritime
//! Identification Digits, MID). Identity-fraud detection in the veracity
//! experiments relies on these structural rules.

/// A validated-on-demand MMSI.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Mmsi(pub u32);

/// Coarse station category derived from the MMSI structure.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StationKind {
    /// Ordinary ship station (MID at digits 1–3).
    Ship,
    /// Coast station (00 prefix).
    CoastStation,
    /// Group ship station (0 prefix).
    Group,
    /// Search-and-rescue aircraft (111 prefix).
    SarAircraft,
    /// Aids to navigation (99 prefix).
    AidToNavigation,
    /// Craft associated with a parent ship (98 prefix).
    AuxiliaryCraft,
    /// Anything else / malformed.
    Unknown,
}

impl Mmsi {
    /// True if the value has exactly nine digits (i.e. is in
    /// `[100_000_000, 999_999_999]`) or is a structurally valid special
    /// prefix value below that range.
    pub fn is_plausible(&self) -> bool {
        self.0 >= 1_000_000 && self.0 <= 999_999_999
    }

    /// Station category from the leading digits.
    pub fn kind(&self) -> StationKind {
        let v = self.0;
        if !(1_000_000..=999_999_999).contains(&v) {
            return StationKind::Unknown;
        }
        let d9 = format!("{v:09}");
        let b = d9.as_bytes();
        match (b[0], b[1], b[2]) {
            (b'0', b'0', _) => StationKind::CoastStation,
            (b'0', _, _) => StationKind::Group,
            (b'1', b'1', b'1') => StationKind::SarAircraft,
            (b'9', b'9', _) => StationKind::AidToNavigation,
            (b'9', b'8', _) => StationKind::AuxiliaryCraft,
            (b'2'..=b'7', _, _) => StationKind::Ship,
            (b'8', _, _) => StationKind::Ship, // handheld VHF w/ DSC, treat as ship
            _ => StationKind::Unknown,
        }
    }

    /// The three Maritime Identification Digits for ship stations, or
    /// `None` for non-ship stations.
    pub fn mid(&self) -> Option<u16> {
        match self.kind() {
            StationKind::Ship => Some((self.0 / 1_000_000) as u16),
            _ => None,
        }
    }

    /// Flag state name for a handful of common MIDs (sufficient for the
    /// synthetic registries; unknown MIDs return `None`).
    pub fn flag(&self) -> Option<&'static str> {
        let mid = self.mid()?;
        Some(match mid {
            201 => "Albania",
            205 => "Belgium",
            211 | 218 => "Germany",
            219 | 220 => "Denmark",
            224 | 225 => "Spain",
            226..=228 => "France",
            229 | 248 | 249 | 256 => "Malta",
            230 => "Finland",
            231 | 257..=259 => "Norway",
            232..=235 => "United Kingdom",
            236 => "Gibraltar",
            237 | 239..=241 => "Greece",
            244..=246 => "Netherlands",
            247 => "Italy",
            255 | 263 => "Portugal",
            261 => "Poland",
            265 | 266 => "Sweden",
            271 => "Turkey",
            273 => "Russia",
            303 | 338 | 366..=369 => "United States",
            311 => "Bahamas",
            316 => "Canada",
            370..=373 => "Panama",
            354..=357 => "Panama",
            477 => "Hong Kong",
            412..=414 => "China",
            431 | 432 => "Japan",
            440 | 441 => "South Korea",
            533 => "Malaysia",
            563..=566 => "Singapore",
            636 => "Liberia",
            538 => "Marshall Islands",
            _ => return None,
        })
    }
}

impl std::fmt::Display for Mmsi {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{:09}", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plausibility() {
        assert!(Mmsi(227_006_760).is_plausible());
        assert!(!Mmsi(0).is_plausible());
        assert!(!Mmsi(1_000_000_000).is_plausible());
    }

    #[test]
    fn ship_kind_and_mid() {
        let m = Mmsi(227_006_760);
        assert_eq!(m.kind(), StationKind::Ship);
        assert_eq!(m.mid(), Some(227));
        assert_eq!(m.flag(), Some("France"));
    }

    #[test]
    fn special_prefixes() {
        assert_eq!(Mmsi(111_000_123).kind(), StationKind::SarAircraft);
        assert_eq!(Mmsi(992_351_000).kind(), StationKind::AidToNavigation);
        assert_eq!(Mmsi(2_345_678).kind(), StationKind::CoastStation);
        assert_eq!(Mmsi(98_765_432).kind(), StationKind::Group);
        assert_eq!(Mmsi(983_456_789).kind(), StationKind::AuxiliaryCraft);
    }

    #[test]
    fn non_ship_has_no_mid() {
        assert_eq!(Mmsi(992_351_000).mid(), None);
        assert_eq!(Mmsi(992_351_000).flag(), None);
    }

    #[test]
    fn display_pads_to_nine() {
        assert_eq!(Mmsi(2_345_678).to_string(), "002345678");
        assert_eq!(Mmsi(227_006_760).to_string(), "227006760");
    }
}
