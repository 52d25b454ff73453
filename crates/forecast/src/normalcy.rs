//! Pattern-of-life normalcy models and anomaly scoring.
//!
//! §4: "an explicit consideration of context provides an understanding
//! of normalcy as a reference for anomaly detection (i.e.
//! pattern-of-life)". The model learns per-cell speed statistics
//! (Welford mean/variance) and heading concentration from history;
//! scoring a live fix combines a speed z-score, a heading deviation
//! term, and an unvisited-cell penalty.

use mda_geo::units::heading_delta;
use mda_geo::{BoundingBox, Fix, Position};
use std::collections::HashMap;

/// Per-cell running statistics.
#[derive(Debug, Clone, Copy, Default)]
struct CellNorm {
    count: u64,
    mean_speed: f64,
    m2_speed: f64,
    sin_sum: f64,
    cos_sum: f64,
}

impl CellNorm {
    fn add(&mut self, sog_kn: f64, cog_deg: f64) {
        self.count += 1;
        let delta = sog_kn - self.mean_speed;
        self.mean_speed += delta / self.count as f64;
        self.m2_speed += delta * (sog_kn - self.mean_speed);
        self.sin_sum += cog_deg.to_radians().sin();
        self.cos_sum += cog_deg.to_radians().cos();
    }

    fn speed_std(&self) -> f64 {
        if self.count < 2 {
            return 0.0;
        }
        (self.m2_speed / (self.count - 1) as f64).sqrt()
    }

    fn mean_course_deg(&self) -> f64 {
        mda_geo::units::norm_deg_360(self.sin_sum.atan2(self.cos_sum).to_degrees())
    }

    fn course_concentration(&self) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        self.sin_sum.hypot(self.cos_sum) / self.count as f64
    }
}

/// An anomaly assessment of one fix.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AnomalyScore {
    /// Combined score (0 ≈ normal; ≥ 1 clearly anomalous).
    pub score: f64,
    /// Speed deviation component (z-score based).
    pub speed_component: f64,
    /// Heading deviation component.
    pub heading_component: f64,
    /// True if the cell had no (or almost no) historical traffic.
    pub unseen_cell: bool,
}

/// A learned pattern-of-life model.
#[derive(Debug, Clone)]
pub struct NormalcyModel {
    bounds: BoundingBox,
    cell_deg: f64,
    cells: HashMap<(i32, i32), CellNorm>,
    min_count: u64,
}

impl NormalcyModel {
    /// New empty model over `bounds`.
    pub fn new(bounds: BoundingBox, cell_deg: f64) -> Self {
        assert!(cell_deg > 0.0);
        Self { bounds, cell_deg, cells: HashMap::new(), min_count: 10 }
    }

    fn cell_of(&self, p: Position) -> (i32, i32) {
        (
            ((p.lat - self.bounds.min_lat) / self.cell_deg).floor() as i32,
            ((p.lon - self.bounds.min_lon) / self.cell_deg).floor() as i32,
        )
    }

    /// Learn one fix.
    pub fn learn(&mut self, fix: &Fix) {
        self.cells.entry(self.cell_of(fix.pos)).or_default().add(fix.sog_kn, fix.cog_deg);
    }

    /// Learn a whole history.
    pub fn learn_all<'a>(&mut self, fixes: impl IntoIterator<Item = &'a Fix>) {
        for f in fixes {
            self.learn(f);
        }
    }

    /// Number of cells with history.
    pub fn cell_count(&self) -> usize {
        self.cells.len()
    }

    /// Score one fix against the learned normalcy.
    pub fn score(&self, fix: &Fix) -> AnomalyScore {
        let Some(cell) = self.cells.get(&self.cell_of(fix.pos)) else {
            return AnomalyScore {
                score: 1.5,
                speed_component: 0.0,
                heading_component: 0.0,
                unseen_cell: true,
            };
        };
        if cell.count < self.min_count {
            return AnomalyScore {
                score: 1.0,
                speed_component: 0.0,
                heading_component: 0.0,
                unseen_cell: true,
            };
        }
        // Speed z-score, squashed: z of 3 → component ~1.
        let std = cell.speed_std().max(0.5);
        let z = (fix.sog_kn - cell.mean_speed).abs() / std;
        let speed_component = (z / 3.0).min(2.0);
        // Heading deviation, weighted by how directional the cell is
        // (an anchorage has no meaningful mean course).
        let conc = cell.course_concentration();
        let dev = heading_delta(cell.mean_course_deg(), fix.cog_deg);
        let heading_component = conc * (dev / 90.0).min(2.0);
        AnomalyScore {
            score: 0.6 * speed_component + 0.4 * heading_component,
            speed_component,
            heading_component,
            unseen_cell: false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mda_geo::Timestamp;

    fn bounds() -> BoundingBox {
        BoundingBox::new(42.0, 4.0, 44.0, 6.0)
    }

    fn lane_traffic() -> Vec<Fix> {
        // Eastbound lane at ~12 kn along lat 43.0.
        let mut out = Vec::new();
        for v in 0..20u32 {
            for i in 0..50 {
                out.push(Fix::new(
                    v + 1,
                    Timestamp::from_mins(i),
                    Position::new(43.0 + (v % 3) as f64 * 0.01, 4.2 + i as f64 * 0.02),
                    11.0 + (v % 5) as f64 * 0.5,
                    90.0 + (i % 7) as f64 - 3.0,
                ));
            }
        }
        out
    }

    fn model() -> NormalcyModel {
        let mut m = NormalcyModel::new(bounds(), 0.05);
        m.learn_all(&lane_traffic());
        m
    }

    #[test]
    fn normal_traffic_scores_low() {
        let m = model();
        let f = Fix::new(99, Timestamp::from_mins(0), Position::new(43.0, 4.5), 12.0, 90.0);
        let s = m.score(&f);
        assert!(!s.unseen_cell);
        assert!(s.score < 0.3, "score {}", s.score);
    }

    #[test]
    fn wrong_way_traffic_scores_high() {
        let m = model();
        let f = Fix::new(99, Timestamp::from_mins(0), Position::new(43.0, 4.5), 12.0, 270.0);
        let s = m.score(&f);
        assert!(s.heading_component > 0.5, "heading {}", s.heading_component);
        assert!(s.score > 0.3, "score {}", s.score);
    }

    #[test]
    fn abnormal_speed_scores_high() {
        let m = model();
        let f = Fix::new(99, Timestamp::from_mins(0), Position::new(43.0, 4.5), 1.0, 90.0);
        let s = m.score(&f);
        assert!(s.speed_component > 0.8, "speed comp {}", s.speed_component);
        // A stopped vessel in a transit lane is exactly the §4 anomaly.
        assert!(s.score > 0.5);
    }

    #[test]
    fn unseen_cell_is_anomalous() {
        let m = model();
        let f = Fix::new(99, Timestamp::from_mins(0), Position::new(42.2, 5.8), 12.0, 90.0);
        let s = m.score(&f);
        assert!(s.unseen_cell);
        assert!(s.score >= 1.0);
    }

    #[test]
    fn ranking_separates_normal_from_anomalous() {
        let m = model();
        let normal = Fix::new(1, Timestamp::from_mins(0), Position::new(43.0, 4.6), 11.5, 91.0);
        let odd = Fix::new(2, Timestamp::from_mins(0), Position::new(43.0, 4.6), 25.0, 200.0);
        assert!(m.score(&odd).score > m.score(&normal).score + 0.3);
    }

    #[test]
    fn cell_count_reflects_coverage() {
        let m = model();
        assert!(m.cell_count() > 10);
        let empty = NormalcyModel::new(bounds(), 0.05);
        assert_eq!(empty.cell_count(), 0);
    }
}
