//! Route networks learned from historical traffic.
//!
//! The archive is summarised into a grid of cells, each holding the
//! circular-mean course and mean speed of the traffic that crossed it.
//! Prediction *follows the learned flow*: starting from the vessel's
//! position, step along each cell's mean course at the cell's mean
//! speed. Unlike dead reckoning, this anticipates the turns that
//! shipping lanes make — the long-horizon advantage measured in C6.

use crate::Predictor;
use mda_geo::distance::destination;
use mda_geo::units::{knots_to_mps, norm_deg_360};
use mda_geo::{BoundingBox, Fix, Position, Timestamp};
use std::collections::HashMap;

/// Number of course sectors per cell (45° each). Lanes are sailed in
/// both directions; separating courses by sector keeps the two flows
/// from cancelling in the mean.
pub const SECTORS: usize = 8;

/// Fixed-point scale for unit-range accumulators (course sines and
/// cosines): 2³², leaving 2³¹ fixes of headroom per cell in an `i64`.
const TRIG_SCALE: f64 = 4_294_967_296.0;
/// Fixed-point scale for speed sums (knots): 2²⁰ ≈ a micro-knot,
/// leaving tens of billions of ~100 kn fixes of headroom per cell.
const SPEED_SCALE: f64 = 1_048_576.0;

fn trig_q(v: f64) -> i64 {
    (v * TRIG_SCALE).round() as i64
}

fn speed_q(kn: f64) -> i64 {
    (kn * SPEED_SCALE).round() as i64
}

/// Per-cell traffic statistics, separated into course sectors.
///
/// All accumulators are **integer fixed-point** (courses quantized to
/// 2⁻³² of a unit vector, speeds to 2⁻²⁰ kn). Integer addition is
/// exact, associative and commutative, so a cell's sums are a pure
/// function of the fix *multiset* — independent of learn order, of how
/// the stream was partitioned across writer lanes, and of the order
/// lane parts are [merged](RouteNetwork::merge_from). That is what
/// lets a multi-writer pipeline publish bit-identical predictors to a
/// single-writer run; the quantization error (≪ 1e-9 per fix) is far
/// below the physical meaning of a course-over-ground reading.
#[derive(Debug, Clone, Copy, Default)]
pub struct CellStats {
    /// Number of fixes observed in the cell.
    pub count: u64,
    /// Sum of course sines/cosines (for the aggregate circular mean),
    /// fixed-point at [`TRIG_SCALE`].
    sin_sum: i64,
    cos_sum: i64,
    /// Sum of speeds, fixed-point at [`SPEED_SCALE`] (knots).
    speed_sum: i64,
    /// Per-sector fix counts.
    sector_count: [u64; SECTORS],
    /// Per-sector course sine/cosine sums, fixed-point.
    sector_sin: [i64; SECTORS],
    sector_cos: [i64; SECTORS],
    /// Per-sector speed sums, fixed-point (knots).
    sector_speed: [i64; SECTORS],
}

fn sector_of(cog_deg: f64) -> usize {
    let d = mda_geo::units::norm_deg_360(cog_deg);
    ((d / (360.0 / SECTORS as f64)) as usize).min(SECTORS - 1)
}

impl CellStats {
    fn add(&mut self, cog_deg: f64, sog_kn: f64) {
        let (sin, cos) = (trig_q(cog_deg.to_radians().sin()), trig_q(cog_deg.to_radians().cos()));
        let speed = speed_q(sog_kn);
        self.count += 1;
        self.sin_sum += sin;
        self.cos_sum += cos;
        self.speed_sum += speed;
        let s = sector_of(cog_deg);
        self.sector_count[s] += 1;
        self.sector_sin[s] += sin;
        self.sector_cos[s] += cos;
        self.sector_speed[s] += speed;
    }

    /// Fold another cell's sums into this one. Exact (integer adds):
    /// merging per-lane partial cells in any order equals having
    /// learned every fix in one cell.
    fn merge(&mut self, other: &CellStats) {
        self.count += other.count;
        self.sin_sum += other.sin_sum;
        self.cos_sum += other.cos_sum;
        self.speed_sum += other.speed_sum;
        for s in 0..SECTORS {
            self.sector_count[s] += other.sector_count[s];
            self.sector_sin[s] += other.sector_sin[s];
            self.sector_cos[s] += other.sector_cos[s];
            self.sector_speed[s] += other.sector_speed[s];
        }
    }

    /// The directional flow compatible with a vessel on course
    /// `cog_deg`: the best-populated sector (own plus both neighbours
    /// pooled) whose pooled circular-mean course is within 90° of the
    /// vessel's. Returns `(mean course, mean speed, samples)`.
    pub fn directional_flow(&self, cog_deg: f64) -> Option<(f64, f64, u64)> {
        let own = sector_of(cog_deg);
        let mut best: Option<(f64, f64, u64)> = None;
        for centre in 0..SECTORS {
            // Pool the sector with its neighbours to smooth boundaries.
            let mut n = 0u64;
            let mut sin = 0i64;
            let mut cos = 0i64;
            let mut speed = 0i64;
            for d in [SECTORS - 1, 0, 1] {
                let s = (centre + d) % SECTORS;
                n += self.sector_count[s];
                sin += self.sector_sin[s];
                cos += self.sector_cos[s];
                speed += self.sector_speed[s];
            }
            if n == 0 {
                continue;
            }
            let mean = norm_deg_360((sin as f64).atan2(cos as f64).to_degrees());
            if mda_geo::units::heading_delta(mean, cog_deg) > 90.0 {
                continue;
            }
            // Prefer sectors centred near the vessel's own course, then
            // by population.
            let centre_bias = if centre == own { 2 } else { 0 };
            let score = n + centre_bias;
            if best.map(|(_, _, bn)| score > bn).unwrap_or(true) {
                best = Some((mean, speed as f64 / SPEED_SCALE / n as f64, score));
            }
        }
        best
    }

    /// Circular mean course, degrees.
    pub fn mean_course_deg(&self) -> f64 {
        norm_deg_360((self.sin_sum as f64).atan2(self.cos_sum as f64).to_degrees())
    }

    /// Mean speed, knots.
    pub fn mean_speed_kn(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.speed_sum as f64 / SPEED_SCALE / self.count as f64
        }
    }

    /// Concentration of the course distribution in `[0,1]` (1 = all
    /// traffic on the same course). Low concentration means the cell is
    /// ambiguous (crossing lanes) and its flow should not be trusted.
    pub fn course_concentration(&self) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        (self.sin_sum as f64).hypot(self.cos_sum as f64) / TRIG_SCALE / self.count as f64
    }
}

/// A learned route network.
#[derive(Debug, Clone)]
pub struct RouteNetwork {
    bounds: BoundingBox,
    cell_deg: f64,
    cells: HashMap<(i32, i32), CellStats>,
    total_fixes: u64,
}

impl RouteNetwork {
    /// New empty network over `bounds` with `cell_deg` cells.
    pub fn new(bounds: BoundingBox, cell_deg: f64) -> Self {
        assert!(cell_deg > 0.0);
        Self { bounds, cell_deg, cells: HashMap::new(), total_fixes: 0 }
    }

    fn cell_of(&self, p: Position) -> (i32, i32) {
        (
            ((p.lat - self.bounds.min_lat) / self.cell_deg).floor() as i32,
            ((p.lon - self.bounds.min_lon) / self.cell_deg).floor() as i32,
        )
    }

    /// Learn from one fix (moving traffic only; stationary fixes carry
    /// no flow information).
    pub fn learn(&mut self, fix: &Fix) {
        if fix.sog_kn < 1.0 {
            return;
        }
        self.cells.entry(self.cell_of(fix.pos)).or_default().add(fix.cog_deg, fix.sog_kn);
        self.total_fixes += 1;
    }

    /// Learn from a whole history.
    pub fn learn_all<'a>(&mut self, fixes: impl IntoIterator<Item = &'a Fix>) {
        for f in fixes {
            self.learn(f);
        }
    }

    /// Fold another network (same bounds and cell size) into this one.
    ///
    /// Cell sums are integer fixed-point, so the merge is **exact**:
    /// merging per-writer-lane partial networks in any order produces
    /// the same cells, bit for bit, as learning the whole stream into
    /// one network in any order. This is the cross-lane reduction the
    /// multi-writer pipeline's tick leader runs before publishing a
    /// predictor.
    pub fn merge_from(&mut self, other: &RouteNetwork) {
        assert!(
            self.cell_deg == other.cell_deg
                && self.bounds.min_lat == other.bounds.min_lat
                && self.bounds.min_lon == other.bounds.min_lon,
            "merging route networks with different grids"
        );
        for (cell, stats) in &other.cells {
            self.cells.entry(*cell).or_default().merge(stats);
        }
        self.total_fixes += other.total_fixes;
    }

    /// Statistics of the cell containing `p`, if any traffic crossed it.
    pub fn stats_at(&self, p: Position) -> Option<&CellStats> {
        self.cells.get(&self.cell_of(p))
    }

    /// Number of cells with traffic.
    pub fn cell_count(&self) -> usize {
        self.cells.len()
    }

    /// Total fixes learned.
    pub fn total_fixes(&self) -> u64 {
        self.total_fixes
    }
}

/// Predictor following a learned [`RouteNetwork`].
#[derive(Debug, Clone)]
pub struct RouteNetPredictor {
    /// The learned network.
    pub network: RouteNetwork,
    /// Integration step, seconds.
    pub step_s: f64,
    /// Minimum (pooled-sector) sample count to trust the flow.
    pub min_count: u64,
    /// Fraction of the course difference to the flow applied per step
    /// (0 = ignore the network, 1 = snap to it).
    pub flow_gain: f64,
}

impl RouteNetPredictor {
    /// Wrap a learned network with default integration parameters.
    pub fn new(network: RouteNetwork) -> Self {
        Self { network, step_s: 60.0, min_count: 5, flow_gain: 0.5 }
    }
}

impl Predictor for RouteNetPredictor {
    fn name(&self) -> &'static str {
        "route-network"
    }

    fn predict(&self, history: &[Fix], at: Timestamp) -> Option<Position> {
        let last = history.last()?;
        let horizon_s = ((at - last.t) as f64 / 1_000.0).max(0.0);
        let mut pos = last.pos;
        let mut cog = last.cog_deg;
        let mut sog = last.sog_kn;
        let mut remaining = horizon_s;
        while remaining > 0.0 {
            let step = remaining.min(self.step_s);
            // Consult the learned flow; fall back to current kinematics
            // in unseen or ambiguous cells.
            if let Some(stats) = self.network.stats_at(pos) {
                if let Some((course, _speed, n)) = stats.directional_flow(cog) {
                    let delta = mda_geo::units::heading_delta(course, cog);
                    // directional_flow already restricts to ≤90°; the
                    // extra margin lets right-angle lane corners engage.
                    if n >= self.min_count && delta <= 90.0 {
                        // Steer gently toward the learned flow instead of
                        // snapping to it: straight legs stay untouched,
                        // lane turns pull the course around over a few
                        // steps. Speed stays the vessel's own — cell
                        // means mix vessel classes.
                        let turn = mda_geo::units::norm_deg_180(course - cog);
                        cog = norm_deg_360(cog + self.flow_gain * turn);
                    }
                }
            }
            let _ = &mut sog;
            pos = destination(pos, cog, knots_to_mps(sog) * step);
            remaining -= step;
        }
        Some(pos)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kinematic::DeadReckoningPredictor;
    use mda_geo::distance::{haversine_m, initial_bearing_deg};
    use mda_geo::time::MINUTE;

    fn bounds() -> BoundingBox {
        BoundingBox::new(42.0, 4.0, 44.0, 6.0)
    }

    /// Historical traffic along an L-shaped lane: east then north.
    fn l_lane_history(runs: usize) -> Vec<Fix> {
        let mut fixes = Vec::new();
        for r in 0..runs {
            let f0 = Fix::new(
                r as u32 + 1,
                Timestamp::from_mins(0),
                Position::new(43.01, 4.2),
                12.0,
                90.0,
            );
            let mut pos = f0.pos;
            let mut t = f0.t;
            // East leg to lon 5.0.
            while pos.lon < 5.0 {
                fixes.push(Fix { t, pos, ..f0 });
                pos = destination(pos, 90.0, knots_to_mps(12.0) * 60.0);
                t += MINUTE;
            }
            // North leg.
            for _ in 0..60 {
                fixes.push(Fix { t, pos, cog_deg: 0.0, ..f0 });
                pos = destination(pos, 0.0, knots_to_mps(12.0) * 60.0);
                t += MINUTE;
            }
        }
        fixes
    }

    #[test]
    fn cell_stats_circular_mean() {
        let mut s = CellStats::default();
        s.add(350.0, 10.0);
        s.add(10.0, 12.0);
        let mean = s.mean_course_deg();
        assert!(!(5.0..=355.0).contains(&mean), "wrap-around mean: {mean}");
        assert!((s.mean_speed_kn() - 11.0).abs() < 1e-9);
        assert!(s.course_concentration() > 0.9);
    }

    #[test]
    fn directional_flow_separates_opposing_lanes() {
        let mut s = CellStats::default();
        for _ in 0..10 {
            s.add(90.0, 12.0); // eastbound traffic
            s.add(270.0, 8.0); // westbound traffic
        }
        // Aggregate mean is meaningless (flows cancel)...
        assert!(s.course_concentration() < 0.1);
        // ...but the directional flow matches the asking vessel.
        let (course_e, speed_e, _) = s.directional_flow(85.0).expect("east flow");
        assert!((course_e - 90.0).abs() < 5.0);
        assert!((speed_e - 12.0).abs() < 0.5);
        let (course_w, speed_w, _) = s.directional_flow(265.0).expect("west flow");
        assert!((course_w - 270.0).abs() < 5.0);
        assert!((speed_w - 8.0).abs() < 0.5);
        // A vessel heading north finds no compatible flow here.
        assert!(
            s.directional_flow(0.0).is_none() || {
                let (c, _, _) = s.directional_flow(0.0).unwrap();
                mda_geo::units::heading_delta(c, 0.0) <= 90.0
            }
        );
    }

    #[test]
    fn ambiguous_cell_has_low_concentration() {
        let mut s = CellStats::default();
        s.add(0.0, 10.0);
        s.add(180.0, 10.0);
        assert!(s.course_concentration() < 0.05);
    }

    #[test]
    fn partitioned_learning_merges_exactly() {
        // Learn the same history (a) whole, in order; (b) whole, in
        // reverse; (c) split across 4 partial networks by vessel id and
        // merged in a scrambled order. All three must agree bit-for-bit
        // in every derived statistic — the invariant the multi-writer
        // pipeline's predictor publication rests on.
        let history = l_lane_history(6);
        let mut whole = RouteNetwork::new(bounds(), 0.05);
        whole.learn_all(&history);
        let mut reversed = RouteNetwork::new(bounds(), 0.05);
        reversed.learn_all(history.iter().rev());
        let mut parts: Vec<RouteNetwork> =
            (0..4).map(|_| RouteNetwork::new(bounds(), 0.05)).collect();
        for f in &history {
            parts[f.id as usize % 4].learn(f);
        }
        let mut merged = RouteNetwork::new(bounds(), 0.05);
        for p in [2usize, 0, 3, 1] {
            merged.merge_from(&parts[p]);
        }
        assert_eq!(whole.total_fixes(), merged.total_fixes());
        assert_eq!(whole.cell_count(), merged.cell_count());
        for probe in &history {
            let a = whole.stats_at(probe.pos).expect("learned cell");
            let b = merged.stats_at(probe.pos).expect("merged cell");
            let c = reversed.stats_at(probe.pos).expect("reversed cell");
            assert_eq!(a.count, b.count);
            for s in [a, c] {
                assert_eq!(s.mean_course_deg().to_bits(), b.mean_course_deg().to_bits());
                assert_eq!(s.mean_speed_kn().to_bits(), b.mean_speed_kn().to_bits());
                assert_eq!(s.course_concentration().to_bits(), b.course_concentration().to_bits());
                assert_eq!(
                    s.directional_flow(90.0).map(|(c, v, n)| (c.to_bits(), v.to_bits(), n)),
                    b.directional_flow(90.0).map(|(c, v, n)| (c.to_bits(), v.to_bits(), n))
                );
            }
        }
    }

    #[test]
    fn network_learns_lane_structure() {
        let mut net = RouteNetwork::new(bounds(), 0.05);
        net.learn_all(&l_lane_history(5));
        assert!(net.cell_count() > 20);
        // A cell on the east leg should point east.
        let east = net.stats_at(Position::new(43.01, 4.5)).expect("traffic there");
        assert!((east.mean_course_deg() - 90.0).abs() < 10.0);
        // Stationary fixes are ignored.
        let before = net.total_fixes();
        net.learn(&Fix::new(9, Timestamp::from_mins(0), Position::new(43.01, 4.5), 0.1, 0.0));
        assert_eq!(net.total_fixes(), before);
    }

    #[test]
    fn routenet_beats_dead_reckoning_past_the_corner() {
        let history = l_lane_history(8);
        let mut net = RouteNetwork::new(bounds(), 0.05);
        net.learn_all(&history);
        let predictor = RouteNetPredictor::new(net);

        // A new vessel is on the east leg, 20 minutes before the corner.
        let vessel = Fix::new(99, Timestamp::from_mins(0), Position::new(43.01, 4.93), 12.0, 90.0);
        // Ground truth 60 min ahead: reaches the corner in ~17 min, then
        // sails north for ~43 min.
        let corner = Position::new(43.01, 5.0);
        let t_corner_s = haversine_m(vessel.pos, corner) / knots_to_mps(12.0);
        let truth = destination(corner, 0.0, knots_to_mps(12.0) * (3_600.0 - t_corner_s));

        let at = vessel.t + 60 * MINUTE;
        let rn = predictor.predict(&[vessel], at).unwrap();
        let dr = DeadReckoningPredictor.predict(&[vessel], at).unwrap();
        let rn_err = haversine_m(rn, truth);
        let dr_err = haversine_m(dr, truth);
        assert!(rn_err < dr_err * 0.5, "route-net {rn_err:.0} m vs dead-reckoning {dr_err:.0} m");
        // Sanity: route-net went north of the corner.
        assert!(initial_bearing_deg(corner, rn) < 45.0 || initial_bearing_deg(corner, rn) > 315.0);
    }

    #[test]
    fn unseen_area_falls_back_to_dead_reckoning() {
        let net = RouteNetwork::new(bounds(), 0.05); // empty network
        let predictor = RouteNetPredictor::new(net);
        let vessel = Fix::new(1, Timestamp::from_mins(0), Position::new(43.0, 4.5), 10.0, 45.0);
        let at = vessel.t + 30 * MINUTE;
        let rn = predictor.predict(&[vessel], at).unwrap();
        let dr = DeadReckoningPredictor.predict(&[vessel], at).unwrap();
        assert!(haversine_m(rn, dr) < 200.0, "{}", haversine_m(rn, dr));
    }

    #[test]
    fn empty_history_returns_none() {
        let net = RouteNetwork::new(bounds(), 0.05);
        assert!(RouteNetPredictor::new(net).predict(&[], Timestamp::from_mins(10)).is_none());
    }
}
