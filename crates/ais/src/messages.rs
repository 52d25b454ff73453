//! Typed AIS messages.
//!
//! The structs mirror the decoded semantics of ITU-R M.1371 messages with
//! "not available" sentinels mapped to `Option`. Positions use
//! [`mda_geo::Position`]; raw field scales live only in [`crate::codec`].

use mda_geo::{Position, Timestamp};

/// Navigational status field of class-A position reports.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NavigationalStatus {
    /// Under way using engine.
    UnderWayUsingEngine,
    /// At anchor.
    AtAnchor,
    /// Not under command.
    NotUnderCommand,
    /// Restricted manoeuvrability.
    RestrictedManoeuvrability,
    /// Constrained by her draught.
    ConstrainedByDraught,
    /// Moored.
    Moored,
    /// Aground.
    Aground,
    /// Engaged in fishing.
    EngagedInFishing,
    /// Under way sailing.
    UnderWaySailing,
    /// Reserved / future use (raw value kept).
    Reserved(u8),
    /// Not defined (default, value 15).
    NotDefined,
}

impl NavigationalStatus {
    /// Decode the 4-bit field.
    pub fn from_raw(v: u8) -> Self {
        match v {
            0 => Self::UnderWayUsingEngine,
            1 => Self::AtAnchor,
            2 => Self::NotUnderCommand,
            3 => Self::RestrictedManoeuvrability,
            4 => Self::ConstrainedByDraught,
            5 => Self::Moored,
            6 => Self::Aground,
            7 => Self::EngagedInFishing,
            8 => Self::UnderWaySailing,
            15 => Self::NotDefined,
            v => Self::Reserved(v & 0x0f),
        }
    }

    /// Encode back to the 4-bit field.
    pub fn to_raw(self) -> u8 {
        match self {
            Self::UnderWayUsingEngine => 0,
            Self::AtAnchor => 1,
            Self::NotUnderCommand => 2,
            Self::RestrictedManoeuvrability => 3,
            Self::ConstrainedByDraught => 4,
            Self::Moored => 5,
            Self::Aground => 6,
            Self::EngagedInFishing => 7,
            Self::UnderWaySailing => 8,
            Self::Reserved(v) => v,
            Self::NotDefined => 15,
        }
    }

    /// True if the status implies the vessel is stationary.
    pub fn is_stationary(&self) -> bool {
        matches!(self, Self::AtAnchor | Self::Moored | Self::Aground)
    }
}

/// Coarse ship type (decoded from the 8-bit type-of-ship-and-cargo field).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ShipType {
    /// 30 — fishing vessel.
    Fishing,
    /// 31–32 — towing.
    Towing,
    /// 36 — sailing vessel.
    Sailing,
    /// 37 — pleasure craft.
    Pleasure,
    /// 40–49 — high-speed craft.
    HighSpeedCraft,
    /// 50 — pilot vessel.
    Pilot,
    /// 51 — search and rescue.
    SearchAndRescue,
    /// 52 — tug.
    Tug,
    /// 55 — law enforcement.
    LawEnforcement,
    /// 60–69 — passenger ship.
    Passenger,
    /// 70–79 — cargo ship.
    Cargo,
    /// 80–89 — tanker.
    Tanker,
    /// 90–99 — other.
    Other,
    /// 0 or unknown code.
    Unspecified,
}

impl ShipType {
    /// Decode the 8-bit raw code.
    pub fn from_raw(v: u8) -> Self {
        match v {
            30 => Self::Fishing,
            31 | 32 => Self::Towing,
            36 => Self::Sailing,
            37 => Self::Pleasure,
            40..=49 => Self::HighSpeedCraft,
            50 => Self::Pilot,
            51 => Self::SearchAndRescue,
            52 => Self::Tug,
            55 => Self::LawEnforcement,
            60..=69 => Self::Passenger,
            70..=79 => Self::Cargo,
            80..=89 => Self::Tanker,
            90..=99 => Self::Other,
            _ => Self::Unspecified,
        }
    }

    /// Canonical raw code for encoding (first code of the range).
    pub fn to_raw(self) -> u8 {
        match self {
            Self::Fishing => 30,
            Self::Towing => 31,
            Self::Sailing => 36,
            Self::Pleasure => 37,
            Self::HighSpeedCraft => 40,
            Self::Pilot => 50,
            Self::SearchAndRescue => 51,
            Self::Tug => 52,
            Self::LawEnforcement => 55,
            Self::Passenger => 60,
            Self::Cargo => 70,
            Self::Tanker => 80,
            Self::Other => 90,
            Self::Unspecified => 0,
        }
    }
}

/// Class-A position report (message types 1, 2 and 3).
#[derive(Debug, Clone, PartialEq)]
pub struct PositionReport {
    /// Message type (1, 2 or 3) — preserved for round-tripping.
    pub msg_type: u8,
    /// Repeat indicator (0–3).
    pub repeat: u8,
    /// Source MMSI.
    pub mmsi: u32,
    /// Navigational status.
    pub status: NavigationalStatus,
    /// Rate of turn in degrees/minute; `None` when not available.
    pub rot_deg_min: Option<f64>,
    /// Speed over ground in knots; `None` when not available (raw 1023).
    pub sog_kn: Option<f64>,
    /// High position accuracy flag (<10 m when true — the paper quotes
    /// ~10 m GPS accuracy for AIS).
    pub position_accuracy: bool,
    /// Position; `None` when lat/lon carry the "not available" sentinels.
    pub pos: Option<Position>,
    /// Course over ground in degrees; `None` when not available (3600).
    pub cog_deg: Option<f64>,
    /// True heading in degrees; `None` when not available (511).
    pub heading_deg: Option<u16>,
    /// UTC second of the report (0–59); 60+ are special codes.
    pub utc_second: u8,
}

/// Static and voyage-related data (message type 5).
#[derive(Debug, Clone, PartialEq)]
pub struct StaticVoyageData {
    /// Repeat indicator.
    pub repeat: u8,
    /// Source MMSI.
    pub mmsi: u32,
    /// IMO ship identification number (0 = not available).
    pub imo: u32,
    /// Radio call sign (up to 7 six-bit characters, trimmed).
    pub callsign: String,
    /// Ship name (up to 20 six-bit characters, trimmed).
    pub name: String,
    /// Ship and cargo type.
    pub ship_type: ShipType,
    /// Distance from reference point to bow, metres.
    pub dim_to_bow: u16,
    /// Distance to stern, metres.
    pub dim_to_stern: u16,
    /// Distance to port side, metres.
    pub dim_to_port: u8,
    /// Distance to starboard side, metres.
    pub dim_to_starboard: u8,
    /// ETA month (1–12, 0 = n/a).
    pub eta_month: u8,
    /// ETA day (1–31, 0 = n/a).
    pub eta_day: u8,
    /// ETA hour (0–23, 24 = n/a).
    pub eta_hour: u8,
    /// ETA minute (0–59, 60 = n/a).
    pub eta_minute: u8,
    /// Maximum present static draught in metres.
    pub draught_m: f64,
    /// Destination (up to 20 six-bit characters, trimmed).
    pub destination: String,
}

impl StaticVoyageData {
    /// Overall length in metres from the dimension fields.
    pub fn length_m(&self) -> u16 {
        self.dim_to_bow + self.dim_to_stern
    }

    /// Overall beam in metres from the dimension fields.
    pub fn beam_m(&self) -> u16 {
        self.dim_to_port as u16 + self.dim_to_starboard as u16
    }
}

/// Class-B position report (message type 18).
#[derive(Debug, Clone, PartialEq)]
pub struct ClassBPositionReport {
    /// Repeat indicator.
    pub repeat: u8,
    /// Source MMSI.
    pub mmsi: u32,
    /// Speed over ground in knots; `None` when not available.
    pub sog_kn: Option<f64>,
    /// High position accuracy flag.
    pub position_accuracy: bool,
    /// Position; `None` when not available.
    pub pos: Option<Position>,
    /// Course over ground in degrees; `None` when not available.
    pub cog_deg: Option<f64>,
    /// True heading; `None` when not available.
    pub heading_deg: Option<u16>,
    /// UTC second of the report.
    pub utc_second: u8,
}

/// Any decoded AIS message the workspace understands.
#[derive(Debug, Clone, PartialEq)]
pub enum AisMessage {
    /// Types 1/2/3.
    Position(PositionReport),
    /// Type 5.
    StaticVoyage(StaticVoyageData),
    /// Type 18.
    ClassBPosition(ClassBPositionReport),
}

impl AisMessage {
    /// The source MMSI of any message.
    pub fn mmsi(&self) -> u32 {
        match self {
            AisMessage::Position(m) => m.mmsi,
            AisMessage::StaticVoyage(m) => m.mmsi,
            AisMessage::ClassBPosition(m) => m.mmsi,
        }
    }

    /// The wire message type.
    pub fn msg_type(&self) -> u8 {
        match self {
            AisMessage::Position(m) => m.msg_type,
            AisMessage::StaticVoyage(_) => 5,
            AisMessage::ClassBPosition(_) => 18,
        }
    }

    /// Extract a kinematic fix if this message carries a usable position.
    /// `t` is the receiver timestamp to attach.
    pub fn to_fix(&self, t: Timestamp) -> Option<mda_geo::Fix> {
        match self {
            AisMessage::Position(m) => {
                let pos = m.pos?;
                Some(mda_geo::Fix::new(
                    m.mmsi,
                    t,
                    pos,
                    m.sog_kn.unwrap_or(0.0),
                    m.cog_deg.unwrap_or(0.0),
                ))
            }
            AisMessage::ClassBPosition(m) => {
                let pos = m.pos?;
                Some(mda_geo::Fix::new(
                    m.mmsi,
                    t,
                    pos,
                    m.sog_kn.unwrap_or(0.0),
                    m.cog_deg.unwrap_or(0.0),
                ))
            }
            AisMessage::StaticVoyage(_) => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nav_status_round_trip() {
        for raw in 0..=15u8 {
            assert_eq!(NavigationalStatus::from_raw(raw).to_raw(), raw);
        }
    }

    #[test]
    fn nav_status_stationary() {
        assert!(NavigationalStatus::Moored.is_stationary());
        assert!(NavigationalStatus::AtAnchor.is_stationary());
        assert!(!NavigationalStatus::UnderWayUsingEngine.is_stationary());
    }

    #[test]
    fn ship_type_ranges() {
        assert_eq!(ShipType::from_raw(74), ShipType::Cargo);
        assert_eq!(ShipType::from_raw(83), ShipType::Tanker);
        assert_eq!(ShipType::from_raw(30), ShipType::Fishing);
        assert_eq!(ShipType::from_raw(0), ShipType::Unspecified);
        assert_eq!(ShipType::from_raw(255), ShipType::Unspecified);
    }

    #[test]
    fn ship_type_round_trip_canonical() {
        for t in [
            ShipType::Fishing,
            ShipType::Cargo,
            ShipType::Tanker,
            ShipType::Passenger,
            ShipType::Tug,
        ] {
            assert_eq!(ShipType::from_raw(t.to_raw()), t);
        }
    }

    #[test]
    fn static_dimensions() {
        let s = StaticVoyageData {
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
        };
        assert_eq!(s.length_m(), 154);
        assert_eq!(s.beam_m(), 22);
    }

    #[test]
    fn to_fix_requires_position() {
        let m = AisMessage::Position(PositionReport {
            msg_type: 1,
            repeat: 0,
            mmsi: 227_000_001,
            status: NavigationalStatus::UnderWayUsingEngine,
            rot_deg_min: None,
            sog_kn: Some(11.5),
            position_accuracy: true,
            pos: Some(Position::new(43.1, 5.2)),
            cog_deg: Some(180.0),
            heading_deg: Some(181),
            utc_second: 30,
        });
        let f = m.to_fix(Timestamp::from_secs(100)).unwrap();
        assert_eq!(f.id, 227_000_001);
        assert_eq!(f.sog_kn, 11.5);

        let no_pos = AisMessage::Position(PositionReport {
            pos: None,
            ..match m {
                AisMessage::Position(p) => p,
                _ => unreachable!(),
            }
        });
        assert!(no_pos.to_fix(Timestamp::from_secs(100)).is_none());
    }
}
