//! Property tests for trajectory synopses.

use mda_geo::distance::{destination, haversine_m};
use mda_geo::units::knots_to_mps;
use mda_geo::{Fix, Position, Timestamp};
use mda_synopses::compress::{compress_trajectory, ThresholdCompressor, ThresholdConfig};
use mda_synopses::douglas::douglas_peucker;
use mda_synopses::error::{compression_ratio, reconstruction_error};
use proptest::prelude::*;

/// A plausible random trajectory: piecewise-constant course/speed legs.
fn arb_trajectory() -> impl Strategy<Value = Vec<Fix>> {
    (
        -60.0f64..60.0,
        -170.0f64..170.0,
        prop::collection::vec((0.0f64..360.0, 2.0f64..20.0, 5usize..40), 1..6),
    )
        .prop_map(|(lat, lon, legs)| {
            let mut fixes = Vec::new();
            let mut pos = Position::new(lat, lon);
            let mut t = Timestamp(0);
            for (cog, sog, steps) in legs {
                for _ in 0..steps {
                    fixes.push(Fix::new(1, t, pos, sog, cog));
                    pos = destination(pos, cog, knots_to_mps(sog) * 30.0);
                    t += 30_000;
                }
            }
            fixes
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The synopsis is a subsequence: every kept fix appears verbatim in
    /// the original, in order.
    #[test]
    fn synopsis_is_a_subsequence(fixes in arb_trajectory(), tol in 20.0f64..500.0) {
        let cfg = ThresholdConfig { tolerance_m: tol, ..Default::default() };
        let kept = compress_trajectory(&fixes, cfg);
        prop_assert!(!kept.is_empty());
        let mut idx = 0usize;
        for k in &kept {
            while idx < fixes.len() && fixes[idx] != *k {
                idx += 1;
            }
            prop_assert!(idx < fixes.len(), "kept fix not found in order");
            idx += 1;
        }
        // First fix always kept.
        prop_assert_eq!(&kept[0], &fixes[0]);
    }

    /// Tighter tolerances keep at least as many fixes.
    #[test]
    fn monotone_in_tolerance(fixes in arb_trajectory()) {
        let loose = compress_trajectory(
            &fixes,
            ThresholdConfig { tolerance_m: 500.0, ..Default::default() },
        );
        let tight = compress_trajectory(
            &fixes,
            ThresholdConfig { tolerance_m: 25.0, ..Default::default() },
        );
        prop_assert!(tight.len() >= loose.len());
        let r_loose = compression_ratio(fixes.len(), loose.len());
        let r_tight = compression_ratio(fixes.len(), tight.len());
        prop_assert!(r_loose >= r_tight - 1e-12);
    }

    /// Streaming counts are consistent with the batch helper.
    #[test]
    fn streaming_matches_batch(fixes in arb_trajectory(), tol in 20.0f64..500.0) {
        let cfg = ThresholdConfig { tolerance_m: tol, ..Default::default() };
        let batch = compress_trajectory(&fixes, cfg);
        let mut c = ThresholdCompressor::new(cfg);
        let streamed: Vec<Fix> = fixes.iter().filter_map(|f| c.observe(*f)).collect();
        prop_assert_eq!(batch, streamed);
        let (seen, kept) = c.counts();
        prop_assert_eq!(seen as usize, fixes.len());
        prop_assert!(kept as usize <= fixes.len());
    }

    /// Douglas–Peucker honours its error bound: every original point is
    /// within tolerance of the simplified polyline.
    #[test]
    fn douglas_peucker_error_bound(fixes in arb_trajectory(), tol in 50.0f64..1_000.0) {
        let kept = douglas_peucker(&fixes, tol);
        prop_assert!(kept.len() >= 2 || fixes.len() < 2);
        for f in &fixes {
            let mut best = f64::INFINITY;
            if kept.len() == 1 {
                best = haversine_m(f.pos, kept[0].pos);
            }
            for w in kept.windows(2) {
                best = best.min(mda_geo::distance::segment_distance_m(f.pos, w[0].pos, w[1].pos));
            }
            prop_assert!(best <= tol + 1.0, "deviation {best} > {tol}");
        }
    }

    /// Reconstruction error of the identity synopsis is ~zero, and error
    /// statistics are internally consistent (mean ≤ rmse ≤ max).
    #[test]
    fn error_stats_consistent(fixes in arb_trajectory(), tol in 20.0f64..500.0) {
        let cfg = ThresholdConfig { tolerance_m: tol, ..Default::default() };
        let kept = compress_trajectory(&fixes, cfg);
        let e = reconstruction_error(&fixes, &kept);
        prop_assert_eq!(e.n, fixes.len());
        prop_assert!(e.mean_m <= e.rmse_m + 1e-9);
        prop_assert!(e.rmse_m <= e.max_m + 1e-9);
        let self_err = reconstruction_error(&fixes, &fixes);
        prop_assert!(self_err.max_m < 1e-3);
    }
}
