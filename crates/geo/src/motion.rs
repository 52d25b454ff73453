//! Kinematic fixes and motion math: dead-reckoning, interpolation, CPA.
//!
//! [`Fix`] is the unit of data flowing through the whole workspace — a
//! timestamped kinematic observation of one moving object, independent of
//! which sensor produced it (AIS, radar plot, VMS report).

use crate::distance::{destination, haversine_m, initial_bearing_deg, interpolate};
use crate::pos::Position;
use crate::projection::{LocalFrame, LocalPoint};
use crate::time::Timestamp;
use crate::units::knots_to_mps;

/// Identifier of a moving object. For AIS sources this is the MMSI; for
/// anonymous sensors (radar) it is a locally assigned track id.
pub type VesselId = u32;

/// The canonical shard a vessel's keyed state lives in, for `shards`
/// shards.
///
/// This is THE routing function of the workspace: the sharded
/// trajectory store, the sharded event engine and shard-affine ingest
/// workers all derive their placement from it, so "shard *i* of the
/// store" and "shard *i* of the event engine" hold the same vessels
/// whenever their shard counts match. The hash is a splitmix64 finalizer
/// — sequential MMSIs scatter uniformly.
#[inline]
pub fn vessel_shard(id: VesselId, shards: usize) -> usize {
    debug_assert!(shards > 0, "shard count must be positive");
    let mut z = u64::from(id).wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^= z >> 31;
    (z % shards as u64) as usize
}

/// A timestamped kinematic observation of one moving object.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Fix {
    /// Object identifier (MMSI or local track id).
    pub id: VesselId,
    /// Event time of the observation.
    pub t: Timestamp,
    /// Observed position.
    pub pos: Position,
    /// Speed over ground in knots.
    pub sog_kn: f64,
    /// Course over ground in degrees `[0, 360)`.
    pub cog_deg: f64,
}

impl Fix {
    /// Construct a fix.
    pub fn new(id: VesselId, t: Timestamp, pos: Position, sog_kn: f64, cog_deg: f64) -> Self {
        Self { id, t, pos, sog_kn, cog_deg }
    }

    /// Speed over ground in metres per second.
    #[inline]
    pub fn speed_mps(&self) -> f64 {
        knots_to_mps(self.sog_kn)
    }

    /// Velocity vector (east, north) in metres per second.
    pub fn velocity_mps(&self) -> LocalPoint {
        let v = self.speed_mps();
        let c = self.cog_deg.to_radians();
        LocalPoint { x: v * c.sin(), y: v * c.cos() }
    }

    /// Dead-reckoned position at time `t`, assuming constant speed and
    /// course since this fix. Works backwards in time too.
    pub fn dead_reckon(&self, t: Timestamp) -> Position {
        let dt_s = (t - self.t) as f64 / 1_000.0;
        let dist = self.speed_mps() * dt_s;
        if dist == 0.0 {
            return self.pos;
        }
        if dist > 0.0 {
            destination(self.pos, self.cog_deg, dist)
        } else {
            destination(self.pos, (self.cog_deg + 180.0) % 360.0, -dist)
        }
    }
}

/// Time-interpolate a position between two fixes of the same object.
///
/// Returns the position at `t`; clamps to the endpoints if `t` is outside
/// the fix interval.
pub fn interpolate_fixes(a: &Fix, b: &Fix, t: Timestamp) -> Position {
    debug_assert!(a.t <= b.t);
    let span = (b.t - a.t) as f64;
    if span <= 0.0 {
        return a.pos;
    }
    let f = ((t - a.t) as f64 / span).clamp(0.0, 1.0);
    interpolate(a.pos, b.pos, f)
}

/// Observed speed implied by two consecutive fixes, in knots. Used by
/// veracity checks: a reported SOG wildly different from the implied speed
/// flags manipulation.
pub fn implied_speed_kn(a: &Fix, b: &Fix) -> f64 {
    let dt_s = (b.t - a.t).abs() as f64 / 1_000.0;
    if dt_s == 0.0 {
        return f64::INFINITY;
    }
    crate::units::mps_to_knots(haversine_m(a.pos, b.pos) / dt_s)
}

/// Observed course implied by two consecutive fixes, degrees `[0, 360)`.
pub fn implied_course_deg(a: &Fix, b: &Fix) -> f64 {
    initial_bearing_deg(a.pos, b.pos)
}

/// Closest point of approach between two moving objects, under the
/// constant-velocity assumption, computed in a local frame centred
/// between the two fixes.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Cpa {
    /// Time to CPA in seconds from the *later* of the two fix times
    /// (clamped at zero: if the objects are already diverging, the CPA is
    /// now).
    pub tcpa_s: f64,
    /// Distance at CPA in metres.
    pub dcpa_m: f64,
}

/// Compute CPA/TCPA between two fixes (typically aligned to the same
/// event time; if not, the earlier one is dead-reckoned forward first).
pub fn cpa(a: &Fix, b: &Fix) -> Cpa {
    // Align both to the later timestamp.
    let t0 = a.t.max(b.t);
    let pa = a.dead_reckon(t0);
    let pb = b.dead_reckon(t0);
    let mid = interpolate(pa, pb, 0.5);
    let frame = LocalFrame::new(mid);
    let dp = frame.project(pb).minus(frame.project(pa));
    let dv = b.velocity_mps().minus(a.velocity_mps());
    let dv2 = dv.dot(dv);
    if dv2 < 1e-12 {
        // Same velocity: distance is constant.
        return Cpa { tcpa_s: 0.0, dcpa_m: dp.norm() };
    }
    let tcpa = (-dp.dot(dv) / dv2).max(0.0);
    let at_cpa = LocalPoint { x: dp.x + dv.x * tcpa, y: dp.y + dv.y * tcpa };
    Cpa { tcpa_s: tcpa, dcpa_m: at_cpa.norm() }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::{Timestamp, MINUTE};
    use crate::units::nm_to_meters;

    fn fix(id: u32, t_min: i64, lat: f64, lon: f64, sog: f64, cog: f64) -> Fix {
        Fix::new(id, Timestamp::from_mins(t_min), Position::new(lat, lon), sog, cog)
    }

    #[test]
    fn dead_reckon_travels_expected_distance() {
        let f = fix(1, 0, 43.0, 5.0, 12.0, 90.0);
        let p = f.dead_reckon(Timestamp::from_mins(60));
        // 12 knots for 1h = 12 NM.
        let d = haversine_m(f.pos, p);
        assert!((d - nm_to_meters(12.0)).abs() < 5.0, "d = {d}");
        assert!(p.lon > f.pos.lon);
    }

    #[test]
    fn dead_reckon_backwards() {
        let f = fix(1, 60, 43.0, 5.0, 10.0, 0.0);
        let p = f.dead_reckon(Timestamp::from_mins(0));
        assert!(p.lat < f.pos.lat, "should have been further south");
        let d = haversine_m(f.pos, p);
        assert!((d - nm_to_meters(10.0)).abs() < 5.0);
    }

    #[test]
    fn dead_reckon_stationary() {
        let f = fix(1, 0, 43.0, 5.0, 0.0, 45.0);
        assert_eq!(f.dead_reckon(Timestamp::from_mins(30)), f.pos);
    }

    #[test]
    fn velocity_components() {
        let f = fix(1, 0, 0.0, 0.0, 10.0, 90.0);
        let v = f.velocity_mps();
        assert!((v.x - knots_to_mps(10.0)).abs() < 1e-9);
        assert!(v.y.abs() < 1e-9);
    }

    #[test]
    fn interpolation_midpoint() {
        let a = fix(1, 0, 0.0, 0.0, 10.0, 90.0);
        let b = fix(1, 10, 0.0, 0.1, 10.0, 90.0);
        let mid = interpolate_fixes(&a, &b, Timestamp::from_mins(5));
        assert!((mid.lon - 0.05).abs() < 1e-9);
        // Clamping outside the interval.
        let before = interpolate_fixes(&a, &b, Timestamp::from_mins(-5));
        assert_eq!(before, a.pos);
    }

    #[test]
    fn implied_speed_matches_reported_for_consistent_track() {
        let a = fix(1, 0, 43.0, 5.0, 10.0, 90.0);
        let b = Fix { t: a.t + 10 * MINUTE, pos: a.dead_reckon(a.t + 10 * MINUTE), ..a };
        let s = implied_speed_kn(&a, &b);
        assert!((s - 10.0).abs() < 0.1, "implied {s}");
        let c = implied_course_deg(&a, &b);
        assert!((c - 90.0).abs() < 0.5, "implied course {c}");
    }

    #[test]
    fn cpa_head_on_collision_course() {
        // Two vessels 2 NM apart closing head-on at 10 kn each.
        let a = fix(1, 0, 0.0, 0.0, 10.0, 90.0);
        let b = fix(2, 0, 0.0, 2.0 / 60.0, 10.0, 270.0);
        let r = cpa(&a, &b);
        assert!(r.dcpa_m < 50.0, "dcpa = {}", r.dcpa_m);
        // Closing speed 20 kn over 2 NM => 6 minutes.
        assert!((r.tcpa_s - 360.0).abs() < 10.0, "tcpa = {}", r.tcpa_s);
    }

    #[test]
    fn cpa_parallel_courses_keep_distance() {
        let a = fix(1, 0, 0.0, 0.0, 10.0, 0.0);
        let b = fix(2, 0, 0.0, 0.1, 10.0, 0.0);
        let r = cpa(&a, &b);
        assert_eq!(r.tcpa_s, 0.0);
        assert!((r.dcpa_m - haversine_m(a.pos, b.pos)).abs() < 20.0);
    }

    #[test]
    fn cpa_diverging_is_now() {
        let a = fix(1, 0, 0.0, 0.0, 10.0, 270.0);
        let b = fix(2, 0, 0.0, 0.1, 10.0, 90.0);
        let r = cpa(&a, &b);
        assert_eq!(r.tcpa_s, 0.0);
    }

    #[test]
    fn vessel_shard_is_uniform_and_stable() {
        // Sequential MMSIs must scatter, not clump, and routing must be
        // a pure function of (id, shards).
        let shards = 8;
        let mut counts = vec![0usize; shards];
        for id in 227_000_000u32..227_000_800 {
            let s = vessel_shard(id, shards);
            assert!(s < shards);
            assert_eq!(s, vessel_shard(id, shards), "routing must be stable");
            counts[s] += 1;
        }
        let (min, max) = (counts.iter().min().unwrap(), counts.iter().max().unwrap());
        assert!(*min * 2 > *max, "sequential ids clump: {counts:?}");
        // One shard degenerates to the identity routing.
        assert_eq!(vessel_shard(42, 1), 0);
    }
}
