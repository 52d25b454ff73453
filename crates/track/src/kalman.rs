//! Constant-velocity Kalman filter over a local metric frame.
//!
//! State is `[x, y, vx, vy]` (metres, metres/second) in a
//! [`mda_geo::projection::LocalFrame`] centred near the
//! track. The filter uses the standard white-noise-acceleration process
//! model; measurements are positions with per-sensor noise. The
//! Mahalanobis innovation distance doubles as the association gate.

use mda_geo::projection::{LocalFrame, LocalPoint};
use mda_geo::{Position, Timestamp};

type M4 = [[f64; 4]; 4];

fn m4_zero() -> M4 {
    [[0.0; 4]; 4]
}

fn m4_identity() -> M4 {
    let mut m = m4_zero();
    for (i, row) in m.iter_mut().enumerate() {
        row[i] = 1.0;
    }
    m
}

fn m4_mul(a: &M4, b: &M4) -> M4 {
    let mut c = m4_zero();
    for i in 0..4 {
        for k in 0..4 {
            let aik = a[i][k];
            if aik == 0.0 {
                continue;
            }
            for j in 0..4 {
                c[i][j] += aik * b[k][j];
            }
        }
    }
    c
}

fn m4_add(a: &M4, b: &M4) -> M4 {
    let mut c = m4_zero();
    for i in 0..4 {
        for j in 0..4 {
            c[i][j] = a[i][j] + b[i][j];
        }
    }
    c
}

fn m4_transpose(a: &M4) -> M4 {
    let mut c = m4_zero();
    for i in 0..4 {
        for j in 0..4 {
            c[i][j] = a[j][i];
        }
    }
    c
}

/// Filter tuning parameters.
#[derive(Debug, Clone, Copy)]
pub struct KalmanConfig {
    /// Process noise intensity (white-noise acceleration PSD, m²/s³).
    pub process_noise: f64,
    /// Initial velocity variance when a track starts, (m/s)².
    pub initial_velocity_var: f64,
}

impl Default for KalmanConfig {
    fn default() -> Self {
        Self { process_noise: 0.05, initial_velocity_var: 25.0 }
    }
}

/// A constant-velocity Kalman filter for one track.
#[derive(Debug, Clone)]
pub struct CvKalman {
    frame: LocalFrame,
    /// State `[x, y, vx, vy]`.
    x: [f64; 4],
    /// State covariance.
    p: M4,
    t: Timestamp,
    config: KalmanConfig,
}

impl CvKalman {
    /// Initialise from a first position measurement with standard
    /// deviation `sigma_m` at time `t`.
    pub fn new(pos: Position, sigma_m: f64, t: Timestamp, config: KalmanConfig) -> Self {
        let frame = LocalFrame::new(pos);
        let mut p = m4_zero();
        p[0][0] = sigma_m * sigma_m;
        p[1][1] = sigma_m * sigma_m;
        p[2][2] = config.initial_velocity_var;
        p[3][3] = config.initial_velocity_var;
        Self { frame, x: [0.0; 4], p, t, config }
    }

    /// Initialise with a known velocity (east, north m/s), e.g. from an
    /// AIS SOG/COG report.
    pub fn with_velocity(mut self, v: LocalPoint, var: f64) -> Self {
        self.x[2] = v.x;
        self.x[3] = v.y;
        self.p[2][2] = var;
        self.p[3][3] = var;
        self
    }

    /// Time of the last predict/update.
    pub fn time(&self) -> Timestamp {
        self.t
    }

    /// Current position estimate.
    pub fn position(&self) -> Position {
        self.frame.unproject(LocalPoint { x: self.x[0], y: self.x[1] })
    }

    /// Current velocity estimate (east, north) in m/s.
    pub fn velocity(&self) -> LocalPoint {
        LocalPoint { x: self.x[2], y: self.x[3] }
    }

    /// Current speed estimate in m/s.
    pub fn speed_mps(&self) -> f64 {
        self.velocity().norm()
    }

    /// Position uncertainty: trace of the position covariance block, m².
    pub fn position_var(&self) -> f64 {
        self.p[0][0] + self.p[1][1]
    }

    /// Advance the state to time `t` (no-op when `t <= self.t`).
    pub fn predict(&mut self, t: Timestamp) {
        let dt = (t - self.t) as f64 / 1_000.0;
        if dt <= 0.0 {
            return;
        }
        self.t = t;
        // x' = F x
        self.x[0] += self.x[2] * dt;
        self.x[1] += self.x[3] * dt;
        // P' = F P Ft + Q
        let mut f = m4_identity();
        f[0][2] = dt;
        f[1][3] = dt;
        let fp = m4_mul(&f, &self.p);
        let mut p = m4_mul(&fp, &m4_transpose(&f));
        let q = self.config.process_noise;
        let dt2 = dt * dt;
        let dt3 = dt2 * dt;
        let q_pos = q * dt3 / 3.0;
        let q_cross = q * dt2 / 2.0;
        let q_vel = q * dt;
        let qm = {
            let mut m = m4_zero();
            m[0][0] = q_pos;
            m[1][1] = q_pos;
            m[0][2] = q_cross;
            m[2][0] = q_cross;
            m[1][3] = q_cross;
            m[3][1] = q_cross;
            m[2][2] = q_vel;
            m[3][3] = q_vel;
            m
        };
        p = m4_add(&p, &qm);
        self.p = p;
    }

    /// Squared Mahalanobis distance of a position measurement with noise
    /// `sigma_m` against the *current* (predicted) state. Used as the
    /// association gate (chi-square with 2 dof: 9.21 ≈ 99%).
    pub fn gate_distance_sq(&self, pos: Position, sigma_m: f64) -> f64 {
        let z = self.frame.project(pos);
        let dy = [z.x - self.x[0], z.y - self.x[1]];
        let r = sigma_m * sigma_m;
        let s00 = self.p[0][0] + r;
        let s11 = self.p[1][1] + r;
        let s01 = self.p[0][1];
        let det = s00 * s11 - s01 * s01;
        if det <= 0.0 {
            return f64::INFINITY;
        }
        (dy[0] * dy[0] * s11 - 2.0 * dy[0] * dy[1] * s01 + dy[1] * dy[1] * s00) / det
    }

    /// Fuse a position measurement with standard deviation `sigma_m`
    /// taken at time `t` (predicts to `t` first).
    pub fn update(&mut self, pos: Position, sigma_m: f64, t: Timestamp) {
        self.predict(t);
        let z = self.frame.project(pos);
        let y = [z.x - self.x[0], z.y - self.x[1]];
        let r = sigma_m * sigma_m;
        // S = H P Ht + R (2x2), H = [I2 0]
        let s00 = self.p[0][0] + r;
        let s11 = self.p[1][1] + r;
        let s01 = self.p[0][1];
        let det = s00 * s11 - s01 * s01;
        if det <= 0.0 {
            return;
        }
        let inv = [[s11 / det, -s01 / det], [-s01 / det, s00 / det]];
        // K = P Ht S^-1 (4x2)
        let mut k = [[0.0f64; 2]; 4];
        for (k_row, p_row) in k.iter_mut().zip(&self.p) {
            for (j, k_ij) in k_row.iter_mut().enumerate() {
                *k_ij = p_row[0] * inv[0][j] + p_row[1] * inv[1][j];
            }
        }
        // x += K y
        for (x_i, k_row) in self.x.iter_mut().zip(&k) {
            *x_i += k_row[0] * y[0] + k_row[1] * y[1];
        }
        // P = (I - K H) P
        let mut ikh = m4_identity();
        for i in 0..4 {
            ikh[i][0] -= k[i][0];
            ikh[i][1] -= k[i][1];
        }
        self.p = m4_mul(&ikh, &self.p);
        self.maybe_recenter();
    }

    /// Keep the local frame near the state so projection error stays
    /// negligible on long tracks.
    fn maybe_recenter(&mut self) {
        let here = LocalPoint { x: self.x[0], y: self.x[1] };
        if here.norm() > 50_000.0 {
            let new_origin = self.frame.unproject(here);
            self.frame = LocalFrame::new(new_origin);
            self.x[0] = 0.0;
            self.x[1] = 0.0;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mda_geo::distance::haversine_m;

    use mda_geo::units::knots_to_mps;

    fn truth_track(n: usize, dt_s: i64, speed_kn: f64, cog: f64) -> Vec<(Timestamp, Position)> {
        let f0 =
            mda_geo::Fix::new(1, Timestamp::from_secs(0), Position::new(43.0, 5.0), speed_kn, cog);
        (0..n)
            .map(|i| {
                let t = Timestamp::from_secs(i as i64 * dt_s);
                (t, f0.dead_reckon(t))
            })
            .collect()
    }

    #[test]
    fn converges_on_noiseless_track() {
        let truth = truth_track(30, 10, 12.0, 45.0);
        let mut kf = CvKalman::new(truth[0].1, 10.0, truth[0].0, KalmanConfig::default());
        for (t, p) in &truth[1..] {
            kf.update(*p, 10.0, *t);
        }
        let (t_last, p_last) = truth[truth.len() - 1];
        assert_eq!(kf.time(), t_last);
        assert!(haversine_m(kf.position(), p_last) < 15.0);
        let v = knots_to_mps(12.0);
        assert!((kf.speed_mps() - v).abs() < 0.5, "speed {}", kf.speed_mps());
    }

    #[test]
    fn smooths_noisy_measurements() {
        use rand::{rngs::StdRng, Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(99);
        let truth = truth_track(120, 10, 15.0, 90.0);
        let sigma = 50.0;
        let mut kf = CvKalman::new(truth[0].1, sigma, truth[0].0, KalmanConfig::default());
        let mut raw_err = 0.0;
        let mut kf_err = 0.0;
        let mut count = 0.0;
        for (t, p) in &truth[1..] {
            // Add ~sigma of noise in each axis.
            let noisy = mda_geo::distance::destination(
                *p,
                rng.gen_range(0.0..360.0),
                rng.gen_range(0.0..1.5) * sigma,
            );
            kf.update(noisy, sigma, *t);
            if kf.time() > Timestamp::from_secs(300) {
                raw_err += haversine_m(noisy, *p);
                kf_err += haversine_m(kf.position(), *p);
                count += 1.0;
            }
        }
        raw_err /= count;
        kf_err /= count;
        assert!(
            kf_err < raw_err * 0.8,
            "filter should beat raw measurements: {kf_err:.1} vs {raw_err:.1}"
        );
    }

    #[test]
    fn predict_moves_with_velocity() {
        let start = Position::new(43.0, 5.0);
        let mut kf = CvKalman::new(start, 10.0, Timestamp::from_secs(0), KalmanConfig::default())
            .with_velocity(LocalPoint { x: 5.0, y: 0.0 }, 1.0);
        kf.predict(Timestamp::from_secs(100));
        let moved = haversine_m(start, kf.position());
        assert!((moved - 500.0).abs() < 5.0, "moved {moved}");
    }

    #[test]
    fn predict_grows_uncertainty() {
        let mut kf = CvKalman::new(
            Position::new(43.0, 5.0),
            10.0,
            Timestamp::from_secs(0),
            KalmanConfig::default(),
        );
        let before = kf.position_var();
        kf.predict(Timestamp::from_secs(600));
        assert!(kf.position_var() > before);
    }

    #[test]
    fn update_shrinks_uncertainty() {
        let p = Position::new(43.0, 5.0);
        let mut kf = CvKalman::new(p, 100.0, Timestamp::from_secs(0), KalmanConfig::default());
        let before = kf.position_var();
        kf.update(p, 100.0, Timestamp::from_secs(1));
        assert!(kf.position_var() < before);
    }

    #[test]
    fn gate_accepts_consistent_rejects_wild() {
        let truth = truth_track(10, 10, 10.0, 0.0);
        let mut kf = CvKalman::new(truth[0].1, 10.0, truth[0].0, KalmanConfig::default());
        for (t, p) in &truth[1..] {
            kf.update(*p, 10.0, *t);
        }
        kf.predict(Timestamp::from_secs(100));
        let expected = truth[9].1;
        assert!(kf.gate_distance_sq(expected, 10.0) < 9.21);
        // 5 km off: far outside the 99% gate.
        let wild = mda_geo::distance::destination(expected, 90.0, 5_000.0);
        assert!(kf.gate_distance_sq(wild, 10.0) > 9.21);
    }

    #[test]
    fn long_track_recenters_frame() {
        // 30 kn for 2 hours ≈ 111 km: forces at least one recenter.
        let truth = truth_track(720, 10, 30.0, 90.0);
        let mut kf = CvKalman::new(truth[0].1, 10.0, truth[0].0, KalmanConfig::default());
        for (t, p) in &truth[1..] {
            kf.update(*p, 10.0, *t);
        }
        let end = truth.last().unwrap().1;
        assert!(
            haversine_m(kf.position(), end) < 30.0,
            "drift {}",
            haversine_m(kf.position(), end)
        );
    }

    #[test]
    fn out_of_order_update_ignored_by_predict() {
        let mut kf = CvKalman::new(
            Position::new(43.0, 5.0),
            10.0,
            Timestamp::from_secs(100),
            KalmanConfig::default(),
        );
        kf.predict(Timestamp::from_secs(50)); // stale: no-op
        assert_eq!(kf.time(), Timestamp::from_secs(100));
    }

    #[test]
    fn second_second_order_matrix_helpers() {
        let i = m4_identity();
        let z = m4_zero();
        assert_eq!(m4_mul(&i, &i), i);
        assert_eq!(m4_add(&z, &i), i);
        assert_eq!(m4_transpose(&i), i);
        let mut a = m4_zero();
        a[0][1] = 2.0;
        a[3][2] = -1.0;
        let at = m4_transpose(&a);
        assert_eq!(at[1][0], 2.0);
        assert_eq!(at[2][3], -1.0);
    }
}
