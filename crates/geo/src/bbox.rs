//! Axis-aligned geographic bounding boxes.
//!
//! Boxes are closed on all sides and must not cross the antimeridian
//! (regions of interest in the experiments never do; global extents use
//! the full `[-180, 180]` box).

use crate::pos::Position;

/// A closed axis-aligned box in degrees.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BoundingBox {
    /// Southern edge (min latitude).
    pub min_lat: f64,
    /// Western edge (min longitude).
    pub min_lon: f64,
    /// Northern edge (max latitude).
    pub max_lat: f64,
    /// Eastern edge (max longitude).
    pub max_lon: f64,
}

impl BoundingBox {
    /// The whole globe.
    pub const WORLD: BoundingBox =
        BoundingBox { min_lat: -90.0, min_lon: -180.0, max_lat: 90.0, max_lon: 180.0 };

    /// Build from corners; panics in debug builds if inverted.
    pub fn new(min_lat: f64, min_lon: f64, max_lat: f64, max_lon: f64) -> Self {
        debug_assert!(min_lat <= max_lat && min_lon <= max_lon, "inverted bounding box");
        Self { min_lat, min_lon, max_lat, max_lon }
    }

    /// An empty box ready to be extended with [`BoundingBox::extend`].
    pub fn empty() -> Self {
        Self {
            min_lat: f64::INFINITY,
            min_lon: f64::INFINITY,
            max_lat: f64::NEG_INFINITY,
            max_lon: f64::NEG_INFINITY,
        }
    }

    /// True if no point has been added yet.
    pub fn is_empty(&self) -> bool {
        self.min_lat > self.max_lat || self.min_lon > self.max_lon
    }

    /// Smallest box containing all `points`; `None` for an empty slice.
    pub fn from_points(points: &[Position]) -> Option<Self> {
        if points.is_empty() {
            return None;
        }
        let mut b = Self::empty();
        for p in points {
            b.extend(*p);
        }
        Some(b)
    }

    /// Grow to include `p`.
    pub fn extend(&mut self, p: Position) {
        self.min_lat = self.min_lat.min(p.lat);
        self.max_lat = self.max_lat.max(p.lat);
        self.min_lon = self.min_lon.min(p.lon);
        self.max_lon = self.max_lon.max(p.lon);
    }

    /// Grow to include another box.
    pub fn union(&self, other: &BoundingBox) -> BoundingBox {
        BoundingBox {
            min_lat: self.min_lat.min(other.min_lat),
            min_lon: self.min_lon.min(other.min_lon),
            max_lat: self.max_lat.max(other.max_lat),
            max_lon: self.max_lon.max(other.max_lon),
        }
    }

    /// True if `p` lies inside or on the border.
    #[inline]
    pub fn contains(&self, p: Position) -> bool {
        p.lat >= self.min_lat
            && p.lat <= self.max_lat
            && p.lon >= self.min_lon
            && p.lon <= self.max_lon
    }

    /// True if the two boxes share at least a border point.
    #[inline]
    pub fn intersects(&self, other: &BoundingBox) -> bool {
        self.min_lat <= other.max_lat
            && self.max_lat >= other.min_lat
            && self.min_lon <= other.max_lon
            && self.max_lon >= other.min_lon
    }

    /// Expand the box by `margin_deg` degrees on every side (clamped to
    /// the world box).
    pub fn inflate(&self, margin_deg: f64) -> BoundingBox {
        BoundingBox {
            min_lat: (self.min_lat - margin_deg).max(-90.0),
            min_lon: (self.min_lon - margin_deg).max(-180.0),
            max_lat: (self.max_lat + margin_deg).min(90.0),
            max_lon: (self.max_lon + margin_deg).min(180.0),
        }
    }

    /// Centre of the box.
    pub fn center(&self) -> Position {
        Position::new((self.min_lat + self.max_lat) / 2.0, (self.min_lon + self.max_lon) / 2.0)
    }

    /// Height in degrees of latitude.
    #[inline]
    pub fn lat_span(&self) -> f64 {
        self.max_lat - self.min_lat
    }

    /// Width in degrees of longitude.
    #[inline]
    pub fn lon_span(&self) -> f64 {
        self.max_lon - self.min_lon
    }

    /// "Area" in square degrees (used only for index heuristics).
    #[inline]
    pub fn area_deg2(&self) -> f64 {
        if self.is_empty() {
            0.0
        } else {
            self.lat_span() * self.lon_span()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn gulf_of_lion() -> BoundingBox {
        BoundingBox::new(42.0, 3.0, 43.6, 6.2)
    }

    #[test]
    fn contains_and_borders() {
        let b = gulf_of_lion();
        assert!(b.contains(Position::new(43.0, 5.0)));
        assert!(b.contains(Position::new(42.0, 3.0)), "border is inside");
        assert!(!b.contains(Position::new(41.9, 5.0)));
        assert!(!b.contains(Position::new(43.0, 6.3)));
    }

    #[test]
    fn intersection_cases() {
        let b = gulf_of_lion();
        let overlapping = BoundingBox::new(43.0, 5.0, 44.0, 7.0);
        let disjoint = BoundingBox::new(10.0, 10.0, 11.0, 11.0);
        let touching = BoundingBox::new(43.6, 6.2, 45.0, 8.0);
        assert!(b.intersects(&overlapping));
        assert!(!b.intersects(&disjoint));
        assert!(b.intersects(&touching), "shared corner counts");
    }

    #[test]
    fn from_points_and_extend() {
        let pts = [Position::new(1.0, 2.0), Position::new(-1.0, 5.0), Position::new(0.5, 3.0)];
        let b = BoundingBox::from_points(&pts).unwrap();
        assert_eq!(b, BoundingBox::new(-1.0, 2.0, 1.0, 5.0));
        assert!(BoundingBox::from_points(&[]).is_none());
    }

    #[test]
    fn empty_box_behaviour() {
        let e = BoundingBox::empty();
        assert!(e.is_empty());
        assert!(!e.contains(Position::new(0.0, 0.0)));
        assert_eq!(e.area_deg2(), 0.0);
        let mut e2 = e;
        e2.extend(Position::new(1.0, 1.0));
        assert!(!e2.is_empty());
        assert_eq!(e2.area_deg2(), 0.0, "single point has zero area");
    }

    #[test]
    fn inflate_clamps_to_world() {
        let b = BoundingBox::new(89.0, 179.0, 90.0, 180.0).inflate(5.0);
        assert_eq!(b.max_lat, 90.0);
        assert_eq!(b.max_lon, 180.0);
        assert_eq!(b.min_lat, 84.0);
    }

    #[test]
    fn union_covers_both() {
        let a = BoundingBox::new(0.0, 0.0, 1.0, 1.0);
        let b = BoundingBox::new(2.0, -1.0, 3.0, 0.5);
        let u = a.union(&b);
        assert_eq!(u, BoundingBox::new(0.0, -1.0, 3.0, 1.0));
    }

    #[test]
    fn center_is_midpoint() {
        let b = BoundingBox::new(0.0, 0.0, 2.0, 4.0);
        assert_eq!(b.center(), Position::new(1.0, 2.0));
    }
}
