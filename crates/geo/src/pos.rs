//! WGS84 positions in degrees.

/// A geographic position: latitude and longitude in decimal degrees
/// (WGS84). Latitude is positive north, longitude positive east.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Position {
    /// Latitude in degrees, valid range `[-90, 90]`.
    pub lat: f64,
    /// Longitude in degrees, valid range `[-180, 180]`.
    pub lon: f64,
}

impl Position {
    /// Create a position without validation. Prefer [`Position::checked`]
    /// at ingest boundaries.
    #[inline]
    pub const fn new(lat: f64, lon: f64) -> Self {
        Self { lat, lon }
    }

    /// Create a position, returning `None` for out-of-range or non-finite
    /// coordinates. AIS reserves lat=91/lon=181 for "not available"; those
    /// are rejected here, letting the codec map them to `Option`.
    pub fn checked(lat: f64, lon: f64) -> Option<Self> {
        if lat.is_finite()
            && lon.is_finite()
            && (-90.0..=90.0).contains(&lat)
            && (-180.0..=180.0).contains(&lon)
        {
            Some(Self { lat, lon })
        } else {
            None
        }
    }

    /// True if the coordinates are inside the valid WGS84 ranges.
    #[inline]
    pub fn is_valid(&self) -> bool {
        Position::checked(self.lat, self.lon).is_some()
    }

    /// Latitude in radians.
    #[inline]
    pub fn lat_rad(&self) -> f64 {
        self.lat.to_radians()
    }

    /// Longitude in radians.
    #[inline]
    pub fn lon_rad(&self) -> f64 {
        self.lon.to_radians()
    }

    /// Wrap a longitude that drifted outside `[-180, 180]` (e.g. after
    /// dead-reckoning across the antimeridian) back into range, and clamp
    /// latitude into `[-90, 90]`.
    pub fn normalized(&self) -> Self {
        let mut lon = (self.lon + 180.0).rem_euclid(360.0) - 180.0;
        if lon == -180.0 {
            lon = 180.0;
        }
        Self { lat: self.lat.clamp(-90.0, 90.0), lon }
    }
}

impl std::fmt::Display for Position {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "({:.5}, {:.5})", self.lat, self.lon)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn checked_accepts_valid() {
        assert!(Position::checked(43.3, 5.4).is_some());
        assert!(Position::checked(-90.0, 180.0).is_some());
        assert!(Position::checked(90.0, -180.0).is_some());
    }

    #[test]
    fn checked_rejects_sentinels_and_nan() {
        assert!(Position::checked(91.0, 0.0).is_none());
        assert!(Position::checked(0.0, 181.0).is_none());
        assert!(Position::checked(f64::NAN, 0.0).is_none());
        assert!(Position::checked(0.0, f64::INFINITY).is_none());
    }

    #[test]
    fn normalized_wraps_longitude() {
        let p = Position::new(10.0, 185.0).normalized();
        assert!((p.lon - -175.0).abs() < 1e-12);
        let q = Position::new(10.0, -185.0).normalized();
        assert!((q.lon - 175.0).abs() < 1e-12);
        let r = Position::new(95.0, 0.0).normalized();
        assert_eq!(r.lat, 90.0);
    }

    #[test]
    fn display_is_compact() {
        assert_eq!(Position::new(1.0, 2.0).to_string(), "(1.00000, 2.00000)");
    }
}
