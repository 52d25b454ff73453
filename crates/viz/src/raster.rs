//! Density rasters: position counts over a gridded region.

use mda_geo::{BoundingBox, Position};

/// A `rows × cols` count raster over a bounding box.
#[derive(Debug, Clone, PartialEq)]
pub struct DensityRaster {
    bounds: BoundingBox,
    rows: usize,
    cols: usize,
    counts: Vec<u64>,
    total: u64,
}

impl DensityRaster {
    /// New zeroed raster.
    pub fn new(bounds: BoundingBox, rows: usize, cols: usize) -> Self {
        assert!(rows > 0 && cols > 0);
        Self { bounds, rows, cols, counts: vec![0; rows * cols], total: 0 }
    }

    /// Raster shape `(rows, cols)`.
    pub fn shape(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }

    /// The covered region.
    pub fn bounds(&self) -> &BoundingBox {
        &self.bounds
    }

    /// Total positions added (including those outside the bounds, which
    /// are dropped — see [`DensityRaster::add`]).
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Row/col of a position, `None` if outside the bounds.
    pub fn cell_of(&self, p: Position) -> Option<(usize, usize)> {
        if !self.bounds.contains(p) {
            return None;
        }
        let r =
            ((p.lat - self.bounds.min_lat) / self.bounds.lat_span() * self.rows as f64) as usize;
        let c =
            ((p.lon - self.bounds.min_lon) / self.bounds.lon_span() * self.cols as f64) as usize;
        Some((r.min(self.rows - 1), c.min(self.cols - 1)))
    }

    /// Count a position; positions outside the bounds are ignored.
    /// Returns whether it was counted.
    pub fn add(&mut self, p: Position) -> bool {
        match self.cell_of(p) {
            Some((r, c)) => {
                self.counts[r * self.cols + c] += 1;
                self.total += 1;
                true
            }
            None => false,
        }
    }

    /// Count of one cell.
    pub fn count(&self, row: usize, col: usize) -> u64 {
        self.counts[row * self.cols + col]
    }

    /// Maximum cell count.
    pub fn max_count(&self) -> u64 {
        self.counts.iter().copied().max().unwrap_or(0)
    }

    /// Number of non-empty cells (coverage measure for Figure 1).
    pub fn occupied_cells(&self) -> usize {
        self.counts.iter().filter(|c| **c > 0).count()
    }

    /// Fraction of cells with at least one observation.
    pub fn coverage(&self) -> f64 {
        self.occupied_cells() as f64 / (self.rows * self.cols) as f64
    }

    /// Merge another raster of identical geometry into this one.
    pub fn merge(&mut self, other: &DensityRaster) {
        assert_eq!(self.shape(), other.shape(), "raster shapes differ");
        assert_eq!(self.bounds, other.bounds, "raster bounds differ");
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a += b;
        }
        self.total += other.total;
    }

    /// Row-major access to the raw counts.
    pub fn counts(&self) -> &[u64] {
        &self.counts
    }

    /// Mutable access to the raw counts (pyramid construction only).
    pub(crate) fn counts_mut(&mut self) -> &mut [u64] {
        &mut self.counts
    }

    /// Adjust the stored total by a signed delta (pyramid construction
    /// only).
    pub(crate) fn adjust_total(&mut self, delta: i64) {
        self.total = (self.total as i64 + delta).max(0) as u64;
    }

    /// Sum of counts in a sub-window of cells (inclusive bounds,
    /// clamped).
    pub fn window_sum(&self, r0: usize, c0: usize, r1: usize, c1: usize) -> u64 {
        let r1 = r1.min(self.rows - 1);
        let c1 = c1.min(self.cols - 1);
        let mut sum = 0;
        for r in r0..=r1 {
            for c in c0..=c1 {
                sum += self.counts[r * self.cols + c];
            }
        }
        sum
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn raster() -> DensityRaster {
        DensityRaster::new(BoundingBox::new(0.0, 0.0, 10.0, 10.0), 10, 10)
    }

    #[test]
    fn add_and_count() {
        let mut r = raster();
        assert!(r.add(Position::new(0.5, 0.5)));
        assert!(r.add(Position::new(0.6, 0.6)));
        assert!(r.add(Position::new(9.5, 9.5)));
        assert!(!r.add(Position::new(-1.0, 5.0)), "outside dropped");
        assert_eq!(r.count(0, 0), 2);
        assert_eq!(r.count(9, 9), 1);
        assert_eq!(r.total(), 3);
        assert_eq!(r.max_count(), 2);
    }

    #[test]
    fn coverage_metrics() {
        let mut r = raster();
        for i in 0..10 {
            r.add(Position::new(i as f64 + 0.5, 0.5));
        }
        assert_eq!(r.occupied_cells(), 10);
        assert!((r.coverage() - 0.1).abs() < 1e-12);
    }

    #[test]
    fn border_positions_clamp_into_last_cell() {
        let mut r = raster();
        assert!(r.add(Position::new(10.0, 10.0)));
        assert_eq!(r.count(9, 9), 1);
    }

    #[test]
    fn merge_adds_counts() {
        let mut a = raster();
        let mut b = raster();
        a.add(Position::new(1.5, 1.5));
        b.add(Position::new(1.5, 1.5));
        b.add(Position::new(2.5, 2.5));
        a.merge(&b);
        assert_eq!(a.count(1, 1), 2);
        assert_eq!(a.count(2, 2), 1);
        assert_eq!(a.total(), 3);
    }

    #[test]
    fn window_sum_clamps() {
        let mut r = raster();
        for lat in [1.5, 2.5, 3.5] {
            r.add(Position::new(lat, 1.5));
        }
        assert_eq!(r.window_sum(1, 1, 3, 1), 3);
        assert_eq!(r.window_sum(1, 1, 99, 99), 3);
        assert_eq!(r.window_sum(0, 0, 0, 0), 0);
    }

    #[test]
    #[should_panic(expected = "shapes differ")]
    fn merge_rejects_mismatched() {
        let mut a = raster();
        let b = DensityRaster::new(BoundingBox::new(0.0, 0.0, 10.0, 10.0), 5, 5);
        a.merge(&b);
    }
}
