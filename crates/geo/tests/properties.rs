//! Property-based tests for the geospatial substrate.

use mda_geo::distance::{destination, haversine_m, initial_bearing_deg, interpolate};
use mda_geo::pos::Position;
use mda_geo::projection::LocalFrame;
use mda_geo::units::{heading_delta, norm_deg_180, norm_deg_360};
use proptest::prelude::*;

fn arb_pos() -> impl Strategy<Value = Position> {
    // Stay away from the poles where bearings degenerate.
    (-80.0f64..80.0, -179.0f64..179.0).prop_map(|(lat, lon)| Position::new(lat, lon))
}

proptest! {
    #[test]
    fn haversine_symmetric_nonnegative(a in arb_pos(), b in arb_pos()) {
        let ab = haversine_m(a, b);
        let ba = haversine_m(b, a);
        prop_assert!(ab >= 0.0);
        prop_assert!((ab - ba).abs() < 1e-6);
    }

    #[test]
    fn haversine_triangle_inequality(a in arb_pos(), b in arb_pos(), c in arb_pos()) {
        let ab = haversine_m(a, b);
        let bc = haversine_m(b, c);
        let ac = haversine_m(a, c);
        prop_assert!(ac <= ab + bc + 1e-6);
    }

    #[test]
    fn destination_distance_round_trip(
        p in arb_pos(),
        bearing in 0.0f64..360.0,
        dist in 1.0f64..500_000.0,
    ) {
        let d = destination(p, bearing, dist);
        let measured = haversine_m(p, d);
        prop_assert!((measured - dist).abs() < dist * 1e-6 + 0.5,
            "asked {dist}, measured {measured}");
    }

    #[test]
    fn bearing_in_range(a in arb_pos(), b in arb_pos()) {
        prop_assume!(haversine_m(a, b) > 1.0);
        let brg = initial_bearing_deg(a, b);
        prop_assert!((0.0..360.0).contains(&brg));
    }

    #[test]
    fn angle_normalisation_invariants(deg in -10_000.0f64..10_000.0) {
        let n360 = norm_deg_360(deg);
        prop_assert!((0.0..360.0).contains(&n360));
        let n180 = norm_deg_180(deg);
        prop_assert!(n180 > -180.0 - 1e-9 && n180 <= 180.0 + 1e-9);
        // Both normalisations represent the same angle.
        prop_assert!(heading_delta(n360, n180) < 1e-9);
    }

    #[test]
    fn interpolation_stays_between(a in arb_pos(), b in arb_pos(), f in 0.0f64..1.0) {
        prop_assume!((a.lon - b.lon).abs() < 90.0); // avoid antimeridian subtleties
        let m = interpolate(a, b, f);
        let total = haversine_m(a, b);
        prop_assert!(haversine_m(a, m) <= total + 1.0);
        prop_assert!(haversine_m(m, b) <= total + 1.0);
    }

    #[test]
    fn local_frame_round_trip(origin in arb_pos(), dlat in -0.5f64..0.5, dlon in -0.5f64..0.5) {
        let frame = LocalFrame::new(origin);
        let p = Position::new(origin.lat + dlat, origin.lon + dlon);
        let back = frame.unproject(frame.project(p));
        prop_assert!(haversine_m(p, back) < 0.5, "round-trip error too large");
    }
}
