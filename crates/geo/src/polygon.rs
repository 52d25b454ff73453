//! Simple polygons on the lat/lon plane: containment, hulls, area.
//!
//! Zones of interest in the maritime domain (ports, anchorages, protected
//! areas, EEZ slices) are small enough that planar geometry on degrees is
//! adequate; containment is what the event detectors need and it must be
//! exact with respect to the polygon as drawn.

use crate::bbox::BoundingBox;
use crate::pos::Position;

/// A simple polygon (no self-intersection, not crossing the
/// antimeridian). The ring is stored open: first vertex is not repeated.
#[derive(Debug, Clone, PartialEq)]
pub struct Polygon {
    vertices: Vec<Position>,
    bbox: BoundingBox,
}

impl Polygon {
    /// Build a polygon from at least three vertices.
    ///
    /// Returns `None` if fewer than three vertices are supplied.
    pub fn new(mut vertices: Vec<Position>) -> Option<Self> {
        // Drop an explicitly closed ring's duplicate last vertex.
        if vertices.len() >= 2 && vertices.first() == vertices.last() {
            vertices.pop();
        }
        if vertices.len() < 3 {
            return None;
        }
        let bbox = BoundingBox::from_points(&vertices)?;
        Some(Self { vertices, bbox })
    }

    /// Convenience: an axis-aligned rectangle.
    pub fn rectangle(b: BoundingBox) -> Self {
        Polygon::new(vec![
            Position::new(b.min_lat, b.min_lon),
            Position::new(b.min_lat, b.max_lon),
            Position::new(b.max_lat, b.max_lon),
            Position::new(b.max_lat, b.min_lon),
        ])
        .expect("rectangle always has 4 vertices")
    }

    /// A regular n-gon approximating a circle of radius `radius_m` metres
    /// around `center` (n = 24). Useful for "within R of a point" zones.
    pub fn circle(center: Position, radius_m: f64) -> Self {
        const N: usize = 24;
        let vertices = (0..N)
            .map(|i| {
                let brg = 360.0 * i as f64 / N as f64;
                crate::distance::destination(center, brg, radius_m)
            })
            .collect();
        Polygon::new(vertices).expect("circle has 24 vertices")
    }

    /// The vertex ring (open).
    pub fn vertices(&self) -> &[Position] {
        &self.vertices
    }

    /// Precomputed bounding box, used as a cheap pre-filter.
    pub fn bbox(&self) -> &BoundingBox {
        &self.bbox
    }

    /// Even-odd (ray casting) containment test. Points exactly on an edge
    /// may fall on either side; maritime zones are defined with margins so
    /// this does not matter in practice.
    pub fn contains(&self, p: Position) -> bool {
        if !self.bbox.contains(p) {
            return false;
        }
        let mut inside = false;
        let n = self.vertices.len();
        let mut j = n - 1;
        for i in 0..n {
            let vi = self.vertices[i];
            let vj = self.vertices[j];
            if ((vi.lat > p.lat) != (vj.lat > p.lat))
                && (p.lon < (vj.lon - vi.lon) * (p.lat - vi.lat) / (vj.lat - vi.lat) + vi.lon)
            {
                inside = !inside;
            }
            j = i;
        }
        inside
    }

    /// Signed planar area in square degrees (positive if counter-clockwise).
    pub fn signed_area_deg2(&self) -> f64 {
        let n = self.vertices.len();
        let mut acc = 0.0;
        for i in 0..n {
            let a = self.vertices[i];
            let b = self.vertices[(i + 1) % n];
            acc += a.lon * b.lat - b.lon * a.lat;
        }
        acc / 2.0
    }

    /// Planar centroid (adequate for zone labelling).
    pub fn centroid(&self) -> Position {
        let n = self.vertices.len() as f64;
        let (mut lat, mut lon) = (0.0, 0.0);
        for v in &self.vertices {
            lat += v.lat;
            lon += v.lon;
        }
        Position::new(lat / n, lon / n)
    }
}

/// Convex hull of a point set (Andrew's monotone chain). Returns the hull
/// as a counter-clockwise polygon, or `None` if the input is degenerate
/// (fewer than three non-collinear points).
pub fn convex_hull(points: &[Position]) -> Option<Polygon> {
    if points.len() < 3 {
        return None;
    }
    let mut pts: Vec<Position> = points.to_vec();
    pts.sort_by(|a, b| a.lon.partial_cmp(&b.lon).unwrap().then(a.lat.partial_cmp(&b.lat).unwrap()));
    pts.dedup_by(|a, b| a.lon == b.lon && a.lat == b.lat);
    if pts.len() < 3 {
        return None;
    }
    fn cross(o: Position, a: Position, b: Position) -> f64 {
        (a.lon - o.lon) * (b.lat - o.lat) - (a.lat - o.lat) * (b.lon - o.lon)
    }
    let mut hull: Vec<Position> = Vec::with_capacity(pts.len() * 2);
    for &p in &pts {
        while hull.len() >= 2 && cross(hull[hull.len() - 2], hull[hull.len() - 1], p) <= 0.0 {
            hull.pop();
        }
        hull.push(p);
    }
    let lower_len = hull.len() + 1;
    for &p in pts.iter().rev() {
        while hull.len() >= lower_len && cross(hull[hull.len() - 2], hull[hull.len() - 1], p) <= 0.0
        {
            hull.pop();
        }
        hull.push(p);
    }
    hull.pop(); // last point repeats the first
    Polygon::new(hull)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn unit_square() -> Polygon {
        Polygon::rectangle(BoundingBox::new(0.0, 0.0, 1.0, 1.0))
    }

    #[test]
    fn rejects_degenerate() {
        assert!(Polygon::new(vec![]).is_none());
        assert!(Polygon::new(vec![Position::new(0.0, 0.0), Position::new(1.0, 1.0)]).is_none());
    }

    #[test]
    fn closed_ring_is_normalised() {
        let p = Polygon::new(vec![
            Position::new(0.0, 0.0),
            Position::new(0.0, 1.0),
            Position::new(1.0, 1.0),
            Position::new(0.0, 0.0),
        ])
        .unwrap();
        assert_eq!(p.vertices().len(), 3);
    }

    #[test]
    fn square_containment() {
        let sq = unit_square();
        assert!(sq.contains(Position::new(0.5, 0.5)));
        assert!(!sq.contains(Position::new(1.5, 0.5)));
        assert!(!sq.contains(Position::new(-0.1, 0.5)));
    }

    #[test]
    fn concave_polygon_containment() {
        // A "C" shape: the notch must be outside.
        let c = Polygon::new(vec![
            Position::new(0.0, 0.0),
            Position::new(0.0, 3.0),
            Position::new(3.0, 3.0),
            Position::new(3.0, 0.0),
            Position::new(2.0, 0.0),
            Position::new(2.0, 2.0),
            Position::new(1.0, 2.0),
            Position::new(1.0, 0.0),
        ])
        .unwrap();
        assert!(c.contains(Position::new(0.5, 1.0)), "left arm");
        assert!(c.contains(Position::new(2.5, 1.0)), "right arm");
        assert!(c.contains(Position::new(1.5, 2.5)), "bridge");
        assert!(!c.contains(Position::new(1.5, 1.0)), "notch is outside");
    }

    #[test]
    fn circle_contains_center_and_excludes_far() {
        let center = Position::new(43.0, 5.0);
        let circ = Polygon::circle(center, 5_000.0);
        assert!(circ.contains(center));
        assert!(circ.contains(crate::distance::destination(center, 77.0, 3_000.0)));
        assert!(!circ.contains(crate::distance::destination(center, 77.0, 6_000.0)));
    }

    #[test]
    fn area_of_unit_square() {
        let sq = unit_square();
        assert!((sq.signed_area_deg2().abs() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn centroid_of_square() {
        let c = unit_square().centroid();
        assert!((c.lat - 0.5).abs() < 1e-12 && (c.lon - 0.5).abs() < 1e-12);
    }

    #[test]
    fn hull_of_square_with_interior_points() {
        let mut pts = unit_square().vertices().to_vec();
        pts.push(Position::new(0.5, 0.5));
        pts.push(Position::new(0.2, 0.8));
        let hull = convex_hull(&pts).unwrap();
        assert_eq!(hull.vertices().len(), 4);
        assert!((hull.signed_area_deg2().abs() - 1.0).abs() < 1e-12);
        assert!(hull.signed_area_deg2() > 0.0, "ccw orientation");
    }

    #[test]
    fn hull_of_collinear_points_is_none() {
        let pts: Vec<Position> = (0..5).map(|i| Position::new(i as f64, i as f64)).collect();
        assert!(convex_hull(&pts).is_none());
    }
}
