//! Vessel specifications and behaviour profiles.

use mda_ais::messages::ShipType;
use mda_ais::quality::imo_from_stem;
use mda_geo::{Position, VesselId};
use rand::Rng;

/// How a vessel moves.
#[derive(Debug, Clone, PartialEq)]
pub enum Behavior {
    /// Sail a lane from origin to destination, dwell, come back.
    LaneTransit {
        /// Index into [`crate::world::World::lanes`].
        lane: usize,
        /// Cruise speed in knots.
        speed_kn: f64,
        /// Dwell time at each end, minutes.
        dwell_min: i64,
    },
    /// Transit to a fishing ground, fish (slow random walk), return.
    Fishing {
        /// Centre of the fishing ground.
        ground: Position,
        /// Radius of the ground in metres.
        radius_m: f64,
        /// Transit speed in knots.
        transit_kn: f64,
        /// Fishing speed in knots.
        fishing_kn: f64,
        /// Home port index.
        home_port: usize,
    },
    /// Loiter near a point (suspicious pattern: drifting/waiting).
    Loiter {
        /// Loiter centre.
        center: Position,
        /// Loiter radius in metres.
        radius_m: f64,
    },
}

/// Deception characteristics of a vessel (the veracity dimension).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct DeceptionProfile {
    /// Fraction of the scenario duration spent with the transponder off
    /// (0 = honest; the paper's population figure is 27% of ships dark
    /// at least 10% of the time).
    pub dark_fraction: f64,
    /// If true, reported positions are offset during a spoofing episode.
    pub gps_spoofing: bool,
    /// If set, the vessel transmits this stolen MMSI instead of its own
    /// for part of the run (identity fraud).
    pub cloned_mmsi: Option<VesselId>,
}

impl DeceptionProfile {
    /// An honest vessel.
    pub fn honest() -> Self {
        Self::default()
    }

    /// True if any deception is configured.
    pub fn is_deceptive(&self) -> bool {
        self.dark_fraction > 0.0 || self.gps_spoofing || self.cloned_mmsi.is_some()
    }
}

/// Full static description of a simulated vessel.
#[derive(Debug, Clone, PartialEq)]
pub struct VesselSpec {
    /// True MMSI.
    pub mmsi: VesselId,
    /// IMO number (valid check digit).
    pub imo: u32,
    /// Ship name.
    pub name: String,
    /// Call sign.
    pub callsign: String,
    /// Ship type.
    pub ship_type: ShipType,
    /// Length overall, metres.
    pub length_m: u16,
    /// Beam, metres.
    pub beam_m: u8,
    /// Draught, metres.
    pub draught_m: f64,
    /// Behaviour profile.
    pub behavior: Behavior,
    /// Deception profile.
    pub deception: DeceptionProfile,
}

const NAME_STEMS: [&str; 16] = [
    "ASTER", "BOREAL", "CORMORAN", "DAUPHIN", "ETOILE", "FLAMANT", "GOELAND", "HERMINE", "IBIS",
    "JASON", "KRAKEN", "LIBECCIO", "MISTRAL", "NEPTUNE", "ORION", "PELICAN",
];

impl VesselSpec {
    /// Mint a plausible vessel of the given type with a French-flag MMSI
    /// derived from `index`.
    pub fn mint(index: u32, ship_type: ShipType, behavior: Behavior, rng: &mut impl Rng) -> Self {
        let mmsi = 227_000_000 + index; // MID 227 = France
        let (length_m, beam_m, draught_m, speed_class): (u16, u8, f64, &str) = match ship_type {
            ShipType::Cargo => {
                (rng.gen_range(90..220), rng.gen_range(14..32), rng.gen_range(6.0..12.0), "C")
            }
            ShipType::Tanker => {
                (rng.gen_range(120..300), rng.gen_range(18..45), rng.gen_range(8.0..16.0), "T")
            }
            ShipType::Fishing => {
                (rng.gen_range(12..40), rng.gen_range(4..10), rng.gen_range(2.0..5.0), "F")
            }
            ShipType::Passenger => {
                (rng.gen_range(60..180), rng.gen_range(12..28), rng.gen_range(4.0..7.0), "P")
            }
            _ => (rng.gen_range(20..80), rng.gen_range(6..14), rng.gen_range(2.0..6.0), "V"),
        };
        let stem = NAME_STEMS[(index as usize) % NAME_STEMS.len()];
        VesselSpec {
            mmsi,
            imo: imo_from_stem(900_000 + index),
            name: format!("{stem} {}", index),
            callsign: format!("F{speed_class}{:04}", index % 10_000),
            ship_type,
            length_m,
            beam_m,
            draught_m,
            behavior,
            deception: DeceptionProfile::honest(),
        }
    }

    /// Static & voyage message content for this vessel.
    pub fn static_voyage(&self, destination: &str) -> mda_ais::messages::StaticVoyageData {
        mda_ais::messages::StaticVoyageData {
            repeat: 0,
            mmsi: self.mmsi,
            imo: self.imo,
            callsign: self.callsign.clone(),
            name: self.name.clone(),
            ship_type: self.ship_type,
            dim_to_bow: self.length_m.saturating_sub(self.length_m / 4),
            dim_to_stern: self.length_m / 4,
            dim_to_port: self.beam_m / 2,
            dim_to_starboard: self.beam_m - self.beam_m / 2,
            eta_month: 6,
            eta_day: 15,
            eta_hour: 12,
            eta_minute: 0,
            draught_m: self.draught_m,
            destination: destination.to_string(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mda_ais::quality::{imo_check_digit_valid, validate_static};
    use rand::{rngs::StdRng, SeedableRng};

    #[test]
    fn minted_vessels_are_clean() {
        let mut rng = StdRng::seed_from_u64(1);
        for i in 0..20 {
            let v = VesselSpec::mint(
                i,
                ShipType::Cargo,
                Behavior::Loiter { center: Position::new(43.0, 5.0), radius_m: 1000.0 },
                &mut rng,
            );
            assert!(imo_check_digit_valid(v.imo), "IMO {}", v.imo);
            assert!(mda_ais::Mmsi(v.mmsi).is_plausible());
            let report = validate_static(&v.static_voyage("MARSEILLE"));
            assert!(report.is_clean(), "vessel {i}: {:?}", report.issues);
        }
    }

    #[test]
    fn dimensions_by_type() {
        let mut rng = StdRng::seed_from_u64(2);
        let f = VesselSpec::mint(
            1,
            ShipType::Fishing,
            Behavior::Loiter { center: Position::new(0.0, 0.0), radius_m: 1.0 },
            &mut rng,
        );
        let t = VesselSpec::mint(
            2,
            ShipType::Tanker,
            Behavior::Loiter { center: Position::new(0.0, 0.0), radius_m: 1.0 },
            &mut rng,
        );
        assert!(f.length_m < t.length_m);
        let sv = t.static_voyage("DUBAI");
        assert_eq!(sv.length_m(), t.length_m);
        assert_eq!(sv.beam_m(), t.beam_m as u16);
    }

    #[test]
    fn deception_profile_flags() {
        assert!(!DeceptionProfile::honest().is_deceptive());
        assert!(DeceptionProfile { dark_fraction: 0.2, ..Default::default() }.is_deceptive());
        assert!(DeceptionProfile { gps_spoofing: true, ..Default::default() }.is_deceptive());
        assert!(DeceptionProfile { cloned_mmsi: Some(1), ..Default::default() }.is_deceptive());
    }
}
