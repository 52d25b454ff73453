//! Synthetic met-ocean fields.
//!
//! §2.5 describes the resolution mismatch of contextual sources: "freely
//! available meteorologic data have spatial resolution of few kilometres
//! ... provided with hourly and daily means". The synthetic field here
//! is smooth in space and time (sums of drifting sinusoids), sampled
//! either continuously or as the hourly gridded product the enrichment
//! layer joins against.

use mda_geo::{BoundingBox, Position, Timestamp};

/// Weather at one point: the variables the paper's use-cases need.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WeatherSample {
    /// Wind speed, m/s.
    pub wind_mps: f64,
    /// Wind direction (from), degrees.
    pub wind_dir_deg: f64,
    /// Significant wave height, metres.
    pub wave_height_m: f64,
    /// Surface current speed, m/s.
    pub current_mps: f64,
}

/// A deterministic synthetic weather field parameterised by a seed.
#[derive(Debug, Clone)]
pub struct WeatherField {
    seed: f64,
}

impl WeatherField {
    /// Create a field; different seeds give different (but equally
    /// smooth) weather systems.
    pub fn new(seed: u64) -> Self {
        Self { seed: (seed % 1_000) as f64 * 0.37 }
    }

    /// Sample the field at a position and time.
    pub fn sample(&self, p: Position, t: Timestamp) -> WeatherSample {
        let th = t.as_secs_f64() / 3_600.0; // hours
        let (la, lo) = (p.lat, p.lon);
        let s = self.seed;
        // Smooth pseudo-random combinations; amplitudes tuned to
        // plausible Mediterranean ranges.
        let wind = 6.0
            + 4.0 * ((la * 0.8 + s).sin() * (lo * 0.6 - th * 0.15 + s).cos())
            + 2.0 * ((lo * 1.3 + th * 0.05).sin());
        let dir = 180.0 + 170.0 * ((la * 0.5 - lo * 0.4 + th * 0.02 + s).sin());
        let wave =
            (0.4 + wind.max(0.0) * 0.22 + 0.5 * ((la * 1.1 + lo * 0.9 - th * 0.1).cos())).max(0.1);
        let current = 0.2 + 0.15 * ((la * 2.0 - th * 0.08 + s).cos()).abs();
        WeatherSample {
            wind_mps: wind.clamp(0.0, 30.0),
            wind_dir_deg: mda_geo::units::norm_deg_360(dir),
            wave_height_m: wave.min(9.0),
            current_mps: current,
        }
    }

    /// The hourly gridded product: samples at cell centres of an
    /// `rows × cols` grid over `bounds`, at the top of the hour
    /// containing `t`. This is what the semantic-integration layer joins
    /// trajectories against (coarse in space *and* time, per §2.5).
    pub fn gridded(
        &self,
        bounds: &BoundingBox,
        rows: usize,
        cols: usize,
        t: Timestamp,
    ) -> Vec<(Position, WeatherSample)> {
        let hour = t.window_start(mda_geo::time::HOUR);
        let mut out = Vec::with_capacity(rows * cols);
        for r in 0..rows {
            for c in 0..cols {
                let lat = bounds.min_lat + bounds.lat_span() * (r as f64 + 0.5) / rows as f64;
                let lon = bounds.min_lon + bounds.lon_span() * (c as f64 + 0.5) / cols as f64;
                let p = Position::new(lat, lon);
                out.push((p, self.sample(p, hour)));
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mda_geo::time::{HOUR, MINUTE};

    #[test]
    fn samples_are_in_physical_ranges() {
        let f = WeatherField::new(7);
        for i in 0..200 {
            let p = Position::new(40.0 + (i % 20) as f64 * 0.3, 2.0 + (i / 20) as f64 * 0.5);
            let s = f.sample(p, Timestamp::from_secs(i * 600));
            assert!((0.0..=30.0).contains(&s.wind_mps));
            assert!((0.0..360.0).contains(&s.wind_dir_deg));
            assert!(s.wave_height_m > 0.0 && s.wave_height_m <= 9.0);
            assert!(s.current_mps >= 0.0 && s.current_mps < 2.0);
        }
    }

    #[test]
    fn field_is_smooth_in_space() {
        let f = WeatherField::new(1);
        let t = Timestamp::from_secs(3_600);
        let a = f.sample(Position::new(43.0, 5.0), t);
        let b = f.sample(Position::new(43.01, 5.01), t);
        assert!((a.wind_mps - b.wind_mps).abs() < 0.5, "1 km apart, similar wind");
    }

    #[test]
    fn field_is_smooth_in_time() {
        let f = WeatherField::new(1);
        let p = Position::new(43.0, 5.0);
        let a = f.sample(p, Timestamp::from_secs(0));
        let b = f.sample(p, Timestamp(10 * MINUTE));
        assert!((a.wind_mps - b.wind_mps).abs() < 1.0);
    }

    #[test]
    fn different_seeds_differ() {
        let t = Timestamp::from_secs(0);
        let p = Position::new(43.0, 5.0);
        let a = WeatherField::new(1).sample(p, t);
        let b = WeatherField::new(2).sample(p, t);
        assert!((a.wind_mps - b.wind_mps).abs() > 1e-6);
    }

    #[test]
    fn gridded_product_is_hourly_constant() {
        let f = WeatherField::new(3);
        let bounds = BoundingBox::new(42.0, 3.0, 44.0, 6.0);
        let g1 = f.gridded(&bounds, 4, 6, Timestamp(HOUR + 5 * MINUTE));
        let g2 = f.gridded(&bounds, 4, 6, Timestamp(HOUR + 50 * MINUTE));
        assert_eq!(g1.len(), 24);
        for (a, b) in g1.iter().zip(&g2) {
            assert_eq!(a.1, b.1, "same hour, same product");
        }
        let g3 = f.gridded(&bounds, 4, 6, Timestamp(2 * HOUR + 5 * MINUTE));
        assert!(g1.iter().zip(&g3).any(|(a, b)| a.1 != b.1), "new hour, new product");
    }

    #[test]
    fn grid_cells_inside_bounds() {
        let f = WeatherField::new(4);
        let bounds = BoundingBox::new(42.0, 3.0, 44.0, 6.0);
        for (p, _) in f.gridded(&bounds, 3, 3, Timestamp(0)) {
            assert!(bounds.contains(p));
        }
    }
}
