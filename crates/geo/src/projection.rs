//! Local tangent-plane projection for metric computations.
//!
//! Kalman filtering, CPA computation and association gating all want flat
//! Euclidean coordinates. [`LocalFrame`] is an equirectangular projection
//! centred on a reference position: accurate to well under 0.1% within a
//! couple of degrees of the origin, which covers any single-vessel
//! processing context.

use crate::pos::Position;
use crate::units::EARTH_RADIUS_M;

/// A point in a local east/north metric frame, in metres.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct LocalPoint {
    /// Metres east of the frame origin.
    pub x: f64,
    /// Metres north of the frame origin.
    pub y: f64,
}

impl LocalPoint {
    /// Euclidean norm in metres.
    #[inline]
    pub fn norm(&self) -> f64 {
        self.x.hypot(self.y)
    }

    /// Vector difference `self - other`.
    #[inline]
    pub fn minus(&self, other: LocalPoint) -> LocalPoint {
        LocalPoint { x: self.x - other.x, y: self.y - other.y }
    }

    /// Dot product.
    #[inline]
    pub fn dot(&self, other: LocalPoint) -> f64 {
        self.x * other.x + self.y * other.y
    }
}

/// An equirectangular projection centred on `origin`.
#[derive(Debug, Clone, Copy)]
pub struct LocalFrame {
    origin: Position,
    cos_lat: f64,
}

impl LocalFrame {
    /// Create a frame centred at `origin`.
    pub fn new(origin: Position) -> Self {
        Self { origin, cos_lat: origin.lat_rad().cos() }
    }

    /// The frame origin.
    #[inline]
    pub fn origin(&self) -> Position {
        self.origin
    }

    /// Project a geographic position to local metres.
    pub fn project(&self, p: Position) -> LocalPoint {
        let mut dlon = p.lon - self.origin.lon;
        if dlon > 180.0 {
            dlon -= 360.0;
        } else if dlon < -180.0 {
            dlon += 360.0;
        }
        LocalPoint {
            x: dlon.to_radians() * self.cos_lat * EARTH_RADIUS_M,
            y: (p.lat - self.origin.lat).to_radians() * EARTH_RADIUS_M,
        }
    }

    /// Inverse projection: local metres back to a geographic position.
    pub fn unproject(&self, p: LocalPoint) -> Position {
        let lat = self.origin.lat + (p.y / EARTH_RADIUS_M).to_degrees();
        let lon = self.origin.lon + (p.x / (EARTH_RADIUS_M * self.cos_lat)).to_degrees();
        Position::new(lat, lon).normalized()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::distance::haversine_m;

    #[test]
    fn round_trip_identity() {
        let frame = LocalFrame::new(Position::new(43.3, 5.4));
        let p = Position::new(43.45, 5.61);
        let back = frame.unproject(frame.project(p));
        assert!(haversine_m(p, back) < 0.01, "round trip error too large");
    }

    #[test]
    fn projected_distance_matches_haversine_nearby() {
        let frame = LocalFrame::new(Position::new(43.3, 5.4));
        let a = Position::new(43.31, 5.43);
        let b = Position::new(43.36, 5.35);
        let planar = frame.project(a).minus(frame.project(b)).norm();
        let sphere = haversine_m(a, b);
        assert!((planar - sphere).abs() / sphere < 1e-3, "{planar} vs {sphere}");
    }

    #[test]
    fn origin_maps_to_zero() {
        let o = Position::new(-12.0, 96.0);
        let frame = LocalFrame::new(o);
        let z = frame.project(o);
        assert_eq!(z.x, 0.0);
        assert_eq!(z.y, 0.0);
    }

    #[test]
    fn handles_antimeridian_neighbourhood() {
        let frame = LocalFrame::new(Position::new(0.0, 179.9));
        let east = frame.project(Position::new(0.0, -179.9));
        assert!(east.x > 0.0 && east.x < 30_000.0, "x = {}", east.x);
    }

    #[test]
    fn local_point_algebra() {
        let a = LocalPoint { x: 3.0, y: 4.0 };
        assert_eq!(a.norm(), 5.0);
        let b = LocalPoint { x: 1.0, y: 1.0 };
        let d = a.minus(b);
        assert_eq!((d.x, d.y), (2.0, 3.0));
        assert_eq!(a.dot(b), 7.0);
    }
}
