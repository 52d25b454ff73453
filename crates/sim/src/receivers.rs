//! Sensor/receiver models: terrestrial AIS, satellite AIS, coastal
//! radar, VMS.
//!
//! These models decide what of the ground truth is observed, when it
//! arrives, and how distorted it is — the volume/velocity/veracity
//! texture of real maritime feeds:
//!
//! - terrestrial AIS: range-limited, near-real-time, rare loss;
//! - satellite AIS: global but lossy (message collisions) and delivered
//!   in *delayed batches*, which is where out-of-order arrival comes
//!   from;
//! - coastal radar: range-limited, anonymous, coarse, but sees vessels
//!   whose transponder is off;
//! - VMS: fisheries-only, sparse polling, identity-bearing.

use mda_geo::distance::{destination, haversine_m};
use mda_geo::units::nm_to_meters;
use mda_geo::{DurationMs, Fix, Position, Timestamp, VesselId};
use rand::Rng;

/// Class-A AIS reporting interval as a function of speed (simplified
/// SOTDMA schedule).
pub fn ais_report_interval(sog_kn: f64) -> DurationMs {
    if sog_kn < 0.5 {
        3 * mda_geo::time::MINUTE // at anchor/moored
    } else if sog_kn < 14.0 {
        10 * mda_geo::time::SECOND
    } else if sog_kn < 23.0 {
        6 * mda_geo::time::SECOND
    } else {
        2 * mda_geo::time::SECOND
    }
}

/// A shore AIS receiving station.
#[derive(Debug, Clone)]
pub struct ShoreStation {
    /// Station position.
    pub pos: Position,
    /// Reception range in nautical miles (VHF horizon).
    pub range_nm: f64,
}

impl ShoreStation {
    /// True if a transmitter at `p` is within range.
    pub fn covers(&self, p: Position) -> bool {
        haversine_m(self.pos, p) <= nm_to_meters(self.range_nm)
    }
}

/// The terrestrial + satellite AIS reception model.
#[derive(Debug, Clone)]
pub struct AisReception {
    /// Shore stations.
    pub stations: Vec<ShoreStation>,
    /// Probability a satellite decodes a message outside shore coverage
    /// (message collisions in dense areas make this well below 1).
    pub satellite_decode_prob: f64,
    /// Satellite downlink batching period.
    pub satellite_batch: DurationMs,
    /// Additional satellite processing delay bounds (uniform).
    pub satellite_delay: (DurationMs, DurationMs),
}

impl AisReception {
    /// Typical regional setup: stations at the given points, moderate
    /// satellite pickup.
    pub fn regional(stations: Vec<Position>) -> Self {
        Self {
            stations: stations
                .into_iter()
                .map(|pos| ShoreStation { pos, range_nm: 40.0 })
                .collect(),
            satellite_decode_prob: 0.6,
            satellite_batch: 15 * mda_geo::time::MINUTE,
            satellite_delay: (5 * mda_geo::time::MINUTE, 30 * mda_geo::time::MINUTE),
        }
    }

    /// Satellite-only reception (the Figure-1 global picture).
    pub fn satellite_only(decode_prob: f64) -> Self {
        Self {
            stations: Vec::new(),
            satellite_decode_prob: decode_prob,
            satellite_batch: 15 * mda_geo::time::MINUTE,
            satellite_delay: (5 * mda_geo::time::MINUTE, 30 * mda_geo::time::MINUTE),
        }
    }

    /// Decide reception of a message transmitted at `t` from `pos`.
    /// Returns `(received_at, via_satellite)` or `None` if lost.
    pub fn receive(
        &self,
        t: Timestamp,
        pos: Position,
        rng: &mut impl Rng,
    ) -> Option<(Timestamp, bool)> {
        if self.stations.iter().any(|s| s.covers(pos)) {
            // Terrestrial: tiny latency, 2% loss.
            if rng.gen_bool(0.98) {
                return Some((t + rng.gen_range(0..2_000), false));
            }
            return None;
        }
        if rng.gen_bool(self.satellite_decode_prob) {
            // Delivered at the end of the batch window plus a processing
            // delay: late and out of order relative to terrestrial.
            let batch_end =
                Timestamp((t.millis().div_euclid(self.satellite_batch) + 1) * self.satellite_batch);
            let delay = rng.gen_range(self.satellite_delay.0..=self.satellite_delay.1);
            return Some((batch_end + delay, true));
        }
        None
    }
}

/// A coastal radar station.
#[derive(Debug, Clone)]
pub struct RadarStation {
    /// Antenna position.
    pub pos: Position,
    /// Instrumented range in nautical miles.
    pub range_nm: f64,
    /// Scan (revisit) period.
    pub scan_period: DurationMs,
    /// Probability of detecting a vessel in range on one scan.
    pub detection_prob: f64,
    /// 1-sigma plot noise in metres.
    pub sigma_m: f64,
}

impl RadarStation {
    /// Default coastal surveillance radar at `pos`.
    pub fn coastal(pos: Position) -> Self {
        Self {
            pos,
            range_nm: 24.0,
            scan_period: 30 * mda_geo::time::SECOND,
            detection_prob: 0.9,
            sigma_m: 150.0,
        }
    }

    /// Attempt to detect a true position on one scan; returns the noisy
    /// plot position.
    pub fn observe(&self, true_pos: Position, rng: &mut impl Rng) -> Option<Position> {
        if haversine_m(self.pos, true_pos) > nm_to_meters(self.range_nm) {
            return None;
        }
        if !rng.gen_bool(self.detection_prob) {
            return None;
        }
        // Rayleigh-ish radial error: uniform bearing, |N(0,sigma)| radius.
        let r: f64 = rng.gen_range(0.0f64..1.0);
        let radius = self.sigma_m * (-2.0 * (1.0 - r).max(1e-12).ln()).sqrt() / 1.414;
        Some(destination(true_pos, rng.gen_range(0.0..360.0), radius))
    }
}

/// An anonymous radar plot.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RadarPlot {
    /// Plot time.
    pub t: Timestamp,
    /// Measured position.
    pub pos: Position,
    /// The true vessel that caused the plot — ground truth for scoring,
    /// never shown to the analytics.
    pub truth_id: VesselId,
}

/// A VMS position report (fisheries monitoring).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct VmsReport {
    /// Report time (VMS delivery is effectively reliable).
    pub t: Timestamp,
    /// Reported position.
    pub pos: Position,
    /// Vessel identity (VMS is a regulated, identity-bearing channel).
    pub id: VesselId,
}

/// VMS polling period for fishing vessels.
pub const VMS_PERIOD: DurationMs = 2 * mda_geo::time::HOUR;

/// Generate a VMS report for a fix if the poll timer fires at `t`.
pub fn vms_poll(fix: &Fix, rng: &mut impl Rng) -> VmsReport {
    // VMS terminals use GPS too but are often older units: 30 m noise.
    let noisy = destination(fix.pos, rng.gen_range(0.0..360.0), rng.gen_range(0.0..30.0));
    VmsReport { t: fix.t, pos: noisy, id: fix.id }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{rngs::StdRng, SeedableRng};

    #[test]
    fn reporting_interval_by_speed() {
        assert_eq!(ais_report_interval(0.0), 180_000);
        assert_eq!(ais_report_interval(10.0), 10_000);
        assert_eq!(ais_report_interval(20.0), 6_000);
        assert_eq!(ais_report_interval(28.0), 2_000);
    }

    #[test]
    fn shore_coverage_is_range_limited() {
        let s = ShoreStation { pos: Position::new(43.3, 5.3), range_nm: 40.0 };
        assert!(s.covers(Position::new(43.0, 5.3)));
        assert!(!s.covers(Position::new(41.0, 5.3)));
    }

    #[test]
    fn terrestrial_reception_is_prompt() {
        let rx = AisReception::regional(vec![Position::new(43.3, 5.3)]);
        let mut rng = StdRng::seed_from_u64(1);
        let t = Timestamp::from_secs(1_000);
        let mut latencies = Vec::new();
        for _ in 0..100 {
            if let Some((rt, sat)) = rx.receive(t, Position::new(43.2, 5.3), &mut rng) {
                assert!(!sat);
                latencies.push(rt - t);
            }
        }
        assert!(latencies.len() > 90, "low loss expected");
        assert!(latencies.iter().all(|l| *l < 2_000));
    }

    #[test]
    fn satellite_reception_is_late_and_lossy() {
        let rx = AisReception::regional(vec![Position::new(43.3, 5.3)]);
        let mut rng = StdRng::seed_from_u64(2);
        let t = Timestamp::from_secs(1_000);
        let far = Position::new(40.0, 5.3); // outside shore range
        let mut received = 0;
        for _ in 0..200 {
            if let Some((rt, sat)) = rx.receive(t, far, &mut rng) {
                assert!(sat);
                assert!(rt - t >= 5 * mda_geo::time::MINUTE, "latency {}", rt - t);
                received += 1;
            }
        }
        let rate = received as f64 / 200.0;
        assert!((0.4..0.8).contains(&rate), "decode rate {rate}");
    }

    #[test]
    fn satellite_batching_quantises_delivery() {
        let rx = AisReception::satellite_only(1.0);
        let mut rng = StdRng::seed_from_u64(3);
        let far = Position::new(0.0, -30.0);
        // Two transmissions in the same batch window arrive after the
        // same batch boundary.
        let (r1, _) = rx.receive(Timestamp::from_secs(60), far, &mut rng).unwrap();
        let (r2, _) = rx.receive(Timestamp::from_secs(120), far, &mut rng).unwrap();
        let boundary = Timestamp(15 * mda_geo::time::MINUTE);
        assert!(r1 >= boundary && r2 >= boundary);
    }

    #[test]
    fn radar_detects_in_range_with_noise() {
        let radar = RadarStation::coastal(Position::new(43.3, 5.3));
        let mut rng = StdRng::seed_from_u64(4);
        let target = Position::new(43.1, 5.3);
        let mut detections = 0;
        let mut total_err = 0.0;
        for _ in 0..200 {
            if let Some(plot) = radar.observe(target, &mut rng) {
                detections += 1;
                total_err += haversine_m(plot, target);
            }
        }
        assert!(detections > 150, "detections {detections}");
        let mean_err = total_err / detections as f64;
        assert!((30.0..400.0).contains(&mean_err), "mean error {mean_err}");
        // Out of range: never detected.
        assert!(radar.observe(Position::new(40.0, 5.3), &mut rng).is_none());
    }

    #[test]
    fn vms_is_identity_bearing_and_mildly_noisy() {
        let mut rng = StdRng::seed_from_u64(5);
        let fix = Fix::new(42, Timestamp::from_secs(0), Position::new(42.5, 4.5), 4.0, 120.0);
        let r = vms_poll(&fix, &mut rng);
        assert_eq!(r.id, 42);
        assert!(haversine_m(r.pos, fix.pos) < 31.0);
    }
}
