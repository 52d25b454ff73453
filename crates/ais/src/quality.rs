//! Static, single-message quality validation.
//!
//! The paper quotes that roughly 5% of AIS *static* transmissions carry
//! errors of some kind. These checks detect exactly those per-message
//! defects (structural MMSI problems, invalid IMO check digits,
//! impossible kinematics, malformed ETAs). Cross-message consistency
//! (identity fraud, kinematic spoofing) needs history and lives in
//! `mda-events::veracity`.

use crate::messages::{AisMessage, ClassBPositionReport, PositionReport, StaticVoyageData};
use crate::mmsi::{Mmsi, StationKind};

/// A specific defect found in one message.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum QualityIssue {
    /// MMSI is not a structurally plausible station identity.
    ImplausibleMmsi,
    /// MMSI is not a ship station but the message claims ship movement.
    NonShipStation,
    /// Position fields carry the "not available" sentinel.
    MissingPosition,
    /// Reported speed exceeds what any surface vessel can do (>80 kn).
    ImpossibleSpeed,
    /// Course over ground missing while the vessel reports way.
    MissingCourseUnderWay,
    /// IMO number fails its check-digit test (or is absent).
    BadImoCheckDigit,
    /// Ship name is empty.
    EmptyName,
    /// Declared dimensions are all zero.
    ZeroDimensions,
    /// ETA fields are out of calendar range.
    InvalidEta,
    /// Draught of zero on a ship that declares cargo/tanker type.
    SuspiciousDraught,
    /// Destination field is empty (an "obscured destination" per the
    /// paper's veracity discussion).
    EmptyDestination,
}

/// Validation result for one message.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct QualityReport {
    /// All issues found (empty means clean).
    pub issues: Vec<QualityIssue>,
}

impl QualityReport {
    /// True when no defect was found.
    pub fn is_clean(&self) -> bool {
        self.issues.is_empty()
    }

    /// True when a specific issue was flagged.
    pub fn has(&self, issue: QualityIssue) -> bool {
        self.issues.contains(&issue)
    }
}

/// Verify an IMO ship identification number's check digit.
///
/// The first six digits are weighted 7,6,5,4,3,2; the weighted sum modulo
/// 10 must equal the seventh digit.
pub fn imo_check_digit_valid(imo: u32) -> bool {
    if !(1_000_000..=9_999_999).contains(&imo) {
        return false;
    }
    let digits: Vec<u32> = (0..7).rev().map(|i| (imo / 10u32.pow(i)) % 10).collect();
    let sum: u32 = digits[..6].iter().zip([7u32, 6, 5, 4, 3, 2]).map(|(d, w)| d * w).sum();
    sum % 10 == digits[6]
}

/// Produce a valid IMO number from a 6-digit stem by appending the
/// correct check digit (used by the simulator to mint plausible fleets).
pub fn imo_from_stem(stem: u32) -> u32 {
    let stem = stem % 1_000_000;
    let digits: Vec<u32> = (0..6).rev().map(|i| (stem / 10u32.pow(i)) % 10).collect();
    let sum: u32 = digits.iter().zip([7u32, 6, 5, 4, 3, 2]).map(|(d, w)| d * w).sum();
    stem * 10 + sum % 10
}

/// Validate any message.
pub fn validate(msg: &AisMessage) -> QualityReport {
    match msg {
        AisMessage::Position(m) => validate_position(m),
        AisMessage::StaticVoyage(m) => validate_static(m),
        AisMessage::ClassBPosition(m) => validate_class_b(m),
    }
}

/// Validate a class-A position report.
pub fn validate_position(m: &PositionReport) -> QualityReport {
    let mut issues = Vec::new();
    check_mmsi(m.mmsi, &mut issues);
    if m.pos.is_none() {
        issues.push(QualityIssue::MissingPosition);
    }
    if let Some(sog) = m.sog_kn {
        if sog > 80.0 {
            issues.push(QualityIssue::ImpossibleSpeed);
        }
        if sog > 0.5 && m.cog_deg.is_none() {
            issues.push(QualityIssue::MissingCourseUnderWay);
        }
    }
    QualityReport { issues }
}

/// Validate a class-B position report.
pub fn validate_class_b(m: &ClassBPositionReport) -> QualityReport {
    let mut issues = Vec::new();
    check_mmsi(m.mmsi, &mut issues);
    if m.pos.is_none() {
        issues.push(QualityIssue::MissingPosition);
    }
    if let Some(sog) = m.sog_kn {
        if sog > 80.0 {
            issues.push(QualityIssue::ImpossibleSpeed);
        }
    }
    QualityReport { issues }
}

/// Validate a static & voyage data message.
pub fn validate_static(m: &StaticVoyageData) -> QualityReport {
    let mut issues = Vec::new();
    check_mmsi(m.mmsi, &mut issues);
    if !imo_check_digit_valid(m.imo) {
        issues.push(QualityIssue::BadImoCheckDigit);
    }
    if m.name.trim().is_empty() {
        issues.push(QualityIssue::EmptyName);
    }
    if m.dim_to_bow == 0 && m.dim_to_stern == 0 && m.dim_to_port == 0 && m.dim_to_starboard == 0 {
        issues.push(QualityIssue::ZeroDimensions);
    }
    if m.eta_month > 12 || m.eta_day > 31 || m.eta_hour > 24 || m.eta_minute > 60 {
        issues.push(QualityIssue::InvalidEta);
    }
    if m.draught_m == 0.0
        && matches!(
            m.ship_type,
            crate::messages::ShipType::Cargo | crate::messages::ShipType::Tanker
        )
    {
        issues.push(QualityIssue::SuspiciousDraught);
    }
    if m.destination.trim().is_empty() {
        issues.push(QualityIssue::EmptyDestination);
    }
    QualityReport { issues }
}

fn check_mmsi(mmsi: u32, issues: &mut Vec<QualityIssue>) {
    let m = Mmsi(mmsi);
    if !m.is_plausible() {
        issues.push(QualityIssue::ImplausibleMmsi);
    } else if !matches!(m.kind(), StationKind::Ship) {
        issues.push(QualityIssue::NonShipStation);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::messages::{NavigationalStatus, ShipType};
    use mda_geo::Position;

    fn clean_static() -> StaticVoyageData {
        StaticVoyageData {
            repeat: 0,
            mmsi: 227_006_760,
            imo: imo_from_stem(907_472),
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
        }
    }

    fn clean_position() -> PositionReport {
        PositionReport {
            msg_type: 1,
            repeat: 0,
            mmsi: 227_006_760,
            status: NavigationalStatus::UnderWayUsingEngine,
            rot_deg_min: None,
            sog_kn: Some(12.0),
            position_accuracy: true,
            pos: Some(Position::new(43.0, 5.0)),
            cog_deg: Some(100.0),
            heading_deg: Some(101),
            utc_second: 9,
        }
    }

    #[test]
    fn imo_check_digit_known_values() {
        // 9074729 is the real IMO of a vessel; its check digit is valid.
        assert!(imo_check_digit_valid(9_074_729));
        assert!(!imo_check_digit_valid(9_074_728));
        assert!(!imo_check_digit_valid(0));
        assert!(!imo_check_digit_valid(123));
    }

    #[test]
    fn imo_from_stem_always_valid() {
        for stem in [0u32, 1, 907_472, 999_999, 123_456] {
            assert!(
                imo_check_digit_valid(imo_from_stem(stem).max(1_000_000)) || stem < 100_000,
                "stem {stem}"
            );
        }
        assert!(imo_check_digit_valid(imo_from_stem(907_472)));
    }

    #[test]
    fn clean_messages_pass() {
        assert!(validate_static(&clean_static()).is_clean());
        assert!(validate_position(&clean_position()).is_clean());
    }

    #[test]
    fn bad_mmsi_flagged() {
        let mut p = clean_position();
        p.mmsi = 42;
        assert!(validate_position(&p).has(QualityIssue::ImplausibleMmsi));
        p.mmsi = 992_000_001; // aid to navigation
        assert!(validate_position(&p).has(QualityIssue::NonShipStation));
    }

    #[test]
    fn impossible_speed_flagged() {
        let mut p = clean_position();
        p.sog_kn = Some(95.0);
        assert!(validate_position(&p).has(QualityIssue::ImpossibleSpeed));
    }

    #[test]
    fn missing_course_under_way_flagged() {
        let mut p = clean_position();
        p.cog_deg = None;
        assert!(validate_position(&p).has(QualityIssue::MissingCourseUnderWay));
        // But a stationary vessel may omit COG.
        p.sog_kn = Some(0.0);
        assert!(!validate_position(&p).has(QualityIssue::MissingCourseUnderWay));
    }

    #[test]
    fn static_defects_flagged() {
        let mut s = clean_static();
        s.imo = 9_074_728;
        s.name = "  ".into();
        s.destination = String::new();
        s.eta_month = 13;
        let r = validate_static(&s);
        assert!(r.has(QualityIssue::BadImoCheckDigit));
        assert!(r.has(QualityIssue::EmptyName));
        assert!(r.has(QualityIssue::EmptyDestination));
        assert!(r.has(QualityIssue::InvalidEta));
    }

    #[test]
    fn zero_dimensions_and_draught() {
        let mut s = clean_static();
        s.dim_to_bow = 0;
        s.dim_to_stern = 0;
        s.dim_to_port = 0;
        s.dim_to_starboard = 0;
        s.draught_m = 0.0;
        let r = validate_static(&s);
        assert!(r.has(QualityIssue::ZeroDimensions));
        assert!(r.has(QualityIssue::SuspiciousDraught));
    }

    #[test]
    fn validate_dispatches_over_enum() {
        let msg = AisMessage::StaticVoyage(clean_static());
        assert!(validate(&msg).is_clean());
    }
}
