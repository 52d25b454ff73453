//! Reconstruction error metrics for synopses.
//!
//! The quality axis of the C1 trade-off: reconstruct the trajectory from
//! the synopsis by time interpolation and measure how far each original
//! fix lies from its reconstruction (*synchronized* distance: compared at
//! the same timestamp, not merely to the nearest point of the line).

use mda_geo::distance::haversine_m;
use mda_geo::motion::interpolate_fixes;
use mda_geo::Fix;

/// Summary statistics of reconstruction error, in metres.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct ErrorStats {
    /// Number of compared fixes.
    pub n: usize,
    /// Mean error.
    pub mean_m: f64,
    /// Root-mean-square error.
    pub rmse_m: f64,
    /// Maximum error.
    pub max_m: f64,
}

/// Fraction of fixes *removed* by the synopsis (0 = nothing removed,
/// 0.95 = the paper's headline ratio).
pub fn compression_ratio(original: usize, kept: usize) -> f64 {
    if original == 0 {
        return 0.0;
    }
    1.0 - kept as f64 / original as f64
}

/// Synchronized reconstruction error of `synopsis` against `original`.
///
/// For each original fix the reconstructed position at the same
/// timestamp is obtained by interpolating the bracketing synopsis fixes
/// (or clamping to the synopsis ends). Both slices must be sorted by
/// time and belong to the same vessel.
pub fn reconstruction_error(original: &[Fix], synopsis: &[Fix]) -> ErrorStats {
    if original.is_empty() || synopsis.is_empty() {
        return ErrorStats::default();
    }
    let mut sum = 0.0;
    let mut sum_sq = 0.0;
    let mut max = 0.0f64;
    let mut j = 0usize;
    for f in original {
        while j + 1 < synopsis.len() && synopsis[j + 1].t <= f.t {
            j += 1;
        }
        let rec = if j + 1 < synopsis.len() && synopsis[j].t <= f.t {
            interpolate_fixes(&synopsis[j], &synopsis[j + 1], f.t)
        } else if f.t < synopsis[j].t {
            // Before the synopsis begins: clamp to its first position.
            synopsis[j].pos
        } else {
            // Past the last kept fix: the synopsis carries velocity, so
            // the faithful reconstruction dead-reckons the tail.
            synopsis[j].dead_reckon(f.t)
        };
        let e = haversine_m(f.pos, rec);
        sum += e;
        sum_sq += e * e;
        max = max.max(e);
    }
    let n = original.len();
    ErrorStats { n, mean_m: sum / n as f64, rmse_m: (sum_sq / n as f64).sqrt(), max_m: max }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mda_geo::{Position, Timestamp};

    fn fix(i: i64, lat: f64, lon: f64) -> Fix {
        Fix::new(1, Timestamp::from_mins(i), Position::new(lat, lon), 10.0, 90.0)
    }

    #[test]
    fn identical_synopsis_has_zero_error() {
        let t: Vec<Fix> = (0..10).map(|i| fix(i, 43.0, 5.0 + i as f64 * 0.01)).collect();
        let e = reconstruction_error(&t, &t);
        assert_eq!(e.n, 10);
        assert!(e.max_m < 1e-6, "max {}", e.max_m);
        assert!(e.mean_m < 1e-6);
    }

    #[test]
    fn endpoints_only_synopsis_of_straight_line_is_near_zero() {
        let t: Vec<Fix> = (0..11).map(|i| fix(i, 43.0, 5.0 + i as f64 * 0.01)).collect();
        let synopsis = vec![t[0], t[10]];
        let e = reconstruction_error(&t, &synopsis);
        assert!(e.max_m < 1.0, "max {}", e.max_m);
    }

    #[test]
    fn detour_produces_expected_error() {
        // Straight baseline, but the original detours north by 0.01° at
        // the midpoint (~1111 m).
        let mut t: Vec<Fix> = (0..11).map(|i| fix(i, 43.0, 5.0 + i as f64 * 0.01)).collect();
        t[5] = fix(5, 43.01, 5.05);
        let synopsis = vec![t[0], t[10]];
        let e = reconstruction_error(&t, &synopsis);
        assert!((e.max_m - 1_111.0).abs() < 20.0, "max {}", e.max_m);
        assert!(e.mean_m < e.max_m);
        assert!(e.rmse_m >= e.mean_m && e.rmse_m <= e.max_m);
    }

    #[test]
    fn times_outside_synopsis_clamp() {
        let t: Vec<Fix> = (0..10).map(|i| fix(i, 43.0, 5.0 + i as f64 * 0.01)).collect();
        // Synopsis covers only minutes 3..6.
        let synopsis = vec![t[3], t[6]];
        let e = reconstruction_error(&t, &synopsis);
        // Fix 0 is clamped to synopsis[0] at lon 5.03 => ~0.03° of lon.
        assert!(e.max_m > 2_000.0);
        assert_eq!(e.n, 10);
    }

    #[test]
    fn ratio_helper() {
        assert_eq!(compression_ratio(100, 5), 0.95);
        assert_eq!(compression_ratio(0, 0), 0.0);
        assert_eq!(compression_ratio(10, 10), 0.0);
    }

    #[test]
    fn empty_inputs() {
        let t: Vec<Fix> = (0..3).map(|i| fix(i, 43.0, 5.0)).collect();
        assert_eq!(reconstruction_error(&[], &t), ErrorStats::default());
        assert_eq!(reconstruction_error(&t, &[]), ErrorStats::default());
    }
}
