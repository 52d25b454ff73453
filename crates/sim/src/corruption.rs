//! Labelled corruption injection: the veracity dimension.
//!
//! Every corrupted artefact carries its ground-truth label so the C2/C3
//! experiments can score detector precision and recall instead of
//! guessing. Rates default to the figures the paper quotes: ~5% of
//! static transmissions carry errors; 27% of ships going dark at least
//! 10% of the time.

use mda_ais::messages::StaticVoyageData;
use mda_geo::distance::destination;
use mda_geo::{DurationMs, Position, Timestamp};
use rand::Rng;

/// Ground-truth label attached to every simulated observation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CorruptionLabel {
    /// Unmodified.
    Clean,
    /// A static field was corrupted before transmission.
    StaticError,
    /// The position was offset by GPS spoofing.
    Spoofed,
    /// Transmitted under a stolen identity.
    IdentityFraud,
}

/// A time interval (closed) during which some deception is active.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Episode {
    /// Start of the episode.
    pub start: Timestamp,
    /// End of the episode.
    pub end: Timestamp,
}

impl Episode {
    /// True if `t` falls inside the episode.
    pub fn contains(&self, t: Timestamp) -> bool {
        t >= self.start && t <= self.end
    }

    /// Episode length.
    pub fn duration(&self) -> DurationMs {
        self.end - self.start
    }
}

/// Carve `count` non-overlapping episodes totalling `fraction` of
/// `[t0, t0+duration]`.
pub fn carve_episodes(
    t0: Timestamp,
    duration: DurationMs,
    fraction: f64,
    count: usize,
    rng: &mut impl Rng,
) -> Vec<Episode> {
    if fraction <= 0.0 || count == 0 || duration <= 0 {
        return Vec::new();
    }
    let total_dark = (duration as f64 * fraction.min(0.95)) as DurationMs;
    let each = total_dark / count as i64;
    let slot = duration / count as i64;
    (0..count)
        .map(|i| {
            let slot_start = t0 + slot * i as i64;
            let wiggle = (slot - each).max(1);
            let start = slot_start + rng.gen_range(0..wiggle);
            Episode { start, end: start + each }
        })
        .collect()
}

/// Corrupt one static & voyage message in place; returns what was done.
///
/// With probability `rate` one of the classical defects is injected:
/// broken IMO check digit, blanked name, blanked destination ("obscured
/// destination"), zeroed dimensions, absurd ETA.
pub fn corrupt_static(
    msg: &mut StaticVoyageData,
    rate: f64,
    rng: &mut impl Rng,
) -> CorruptionLabel {
    if !rng.gen_bool(rate.clamp(0.0, 1.0)) {
        return CorruptionLabel::Clean;
    }
    match rng.gen_range(0..5) {
        0 => msg.imo = msg.imo.wrapping_add(1), // breaks the check digit
        1 => msg.name = String::new(),
        2 => msg.destination = String::new(),
        3 => {
            msg.dim_to_bow = 0;
            msg.dim_to_stern = 0;
            msg.dim_to_port = 0;
            msg.dim_to_starboard = 0;
        }
        _ => {
            msg.eta_month = 13;
            msg.eta_day = 32;
        }
    }
    CorruptionLabel::StaticError
}

/// A GPS spoofing offset: positions reported during the episode are
/// displaced by a fixed vector (consistent with real spoofing traces,
/// where the fake track is smooth but elsewhere).
#[derive(Debug, Clone, Copy)]
pub struct SpoofOffset {
    /// Bearing of the displacement, degrees.
    pub bearing_deg: f64,
    /// Magnitude of the displacement, metres.
    pub distance_m: f64,
}

impl SpoofOffset {
    /// Random offset between 20 and 80 km — far enough to matter, close
    /// enough to be plausible.
    pub fn random(rng: &mut impl Rng) -> Self {
        Self {
            bearing_deg: rng.gen_range(0.0..360.0),
            distance_m: rng.gen_range(20_000.0..80_000.0),
        }
    }

    /// Apply the offset to a true position.
    pub fn apply(&self, p: Position) -> Position {
        destination(p, self.bearing_deg, self.distance_m)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mda_ais::messages::ShipType;
    use mda_ais::quality::{imo_from_stem, validate_static};
    use rand::{rngs::StdRng, SeedableRng};

    fn clean_static() -> StaticVoyageData {
        StaticVoyageData {
            repeat: 0,
            mmsi: 227_000_001,
            imo: imo_from_stem(900_001),
            callsign: "FC0001".into(),
            name: "ASTER 1".into(),
            ship_type: ShipType::Cargo,
            dim_to_bow: 90,
            dim_to_stern: 30,
            dim_to_port: 8,
            dim_to_starboard: 8,
            eta_month: 6,
            eta_day: 15,
            eta_hour: 12,
            eta_minute: 0,
            draught_m: 7.0,
            destination: "MARSEILLE".into(),
        }
    }

    #[test]
    fn episodes_cover_requested_fraction() {
        let mut rng = StdRng::seed_from_u64(1);
        let day = mda_geo::time::DAY;
        let eps = carve_episodes(Timestamp(0), day, 0.2, 3, &mut rng);
        assert_eq!(eps.len(), 3);
        let total: i64 = eps.iter().map(|e| e.duration()).sum();
        let frac = total as f64 / day as f64;
        assert!((frac - 0.2).abs() < 0.02, "fraction {frac}");
        // Non-overlapping and ordered.
        for w in eps.windows(2) {
            assert!(w[0].end <= w[1].start);
        }
    }

    #[test]
    fn zero_fraction_no_episodes() {
        let mut rng = StdRng::seed_from_u64(2);
        assert!(carve_episodes(Timestamp(0), 1_000_000, 0.0, 3, &mut rng).is_empty());
        assert!(carve_episodes(Timestamp(0), 1_000_000, 0.5, 0, &mut rng).is_empty());
    }

    #[test]
    fn episode_membership() {
        let e = Episode { start: Timestamp(100), end: Timestamp(200) };
        assert!(e.contains(Timestamp(100)));
        assert!(e.contains(Timestamp(150)));
        assert!(e.contains(Timestamp(200)));
        assert!(!e.contains(Timestamp(201)));
        assert_eq!(e.duration(), 100);
    }

    #[test]
    fn corruption_rate_matches_and_is_detectable() {
        let mut rng = StdRng::seed_from_u64(3);
        let n = 4_000;
        let mut corrupted = 0;
        let mut detected = 0;
        for _ in 0..n {
            let mut msg = clean_static();
            let label = corrupt_static(&mut msg, 0.05, &mut rng);
            if label == CorruptionLabel::StaticError {
                corrupted += 1;
                if !validate_static(&msg).is_clean() {
                    detected += 1;
                }
            } else {
                assert!(validate_static(&msg).is_clean(), "clean message flagged");
            }
        }
        let rate = corrupted as f64 / n as f64;
        assert!((0.035..0.065).contains(&rate), "rate {rate}");
        // Every injected defect is of a kind the validator can see.
        assert_eq!(detected, corrupted);
    }

    #[test]
    fn spoof_offset_is_consistent() {
        let mut rng = StdRng::seed_from_u64(4);
        let off = SpoofOffset::random(&mut rng);
        let p1 = Position::new(43.0, 5.0);
        let p2 = Position::new(43.01, 5.01);
        let d1 = mda_geo::distance::haversine_m(p1, off.apply(p1));
        let d2 = mda_geo::distance::haversine_m(p2, off.apply(p2));
        assert!((d1 - off.distance_m).abs() < 5.0);
        assert!((d1 - d2).abs() < 50.0, "offset is rigid");
        assert!(off.distance_m >= 20_000.0 && off.distance_m <= 80_000.0);
    }
}
