//! Streaming threshold (dead-reckoning) compression.
//!
//! The compressor keeps a fix only when the position dead-reckoned from
//! the last *kept* fix misses the observed position by more than
//! `tolerance_m` — i.e. it transmits exactly the information the receiver
//! cannot predict. This is the classical online counterpart of
//! Douglas–Peucker and gives a per-point reconstruction error bound equal
//! to the tolerance (at observation times).

use mda_geo::distance::haversine_m;
use mda_geo::{DurationMs, Fix};

/// Configuration of the threshold compressor.
#[derive(Debug, Clone, Copy)]
pub struct ThresholdConfig {
    /// Maximum allowed dead-reckoning error before a fix is kept.
    pub tolerance_m: f64,
    /// Always keep a fix after this long without keeping one, so gaps in
    /// the synopsis stay bounded even on perfectly straight legs.
    pub max_silence: DurationMs,
}

impl Default for ThresholdConfig {
    fn default() -> Self {
        Self { tolerance_m: 100.0, max_silence: 30 * mda_geo::time::MINUTE }
    }
}

impl ThresholdConfig {
    /// A configuration that keeps every fix (tolerance 0, no keepalive
    /// gap): compression becomes the identity. Used by the archive's
    /// cold tier when sealing must be exactly reversible.
    pub fn lossless() -> Self {
        Self { tolerance_m: 0.0, max_silence: 0 }
    }

    /// True when this configuration discards nothing (for time-ordered
    /// input): with `max_silence <= 0` the keepalive condition
    /// `gap >= max_silence` holds for every fix, so everything is
    /// kept. Tolerance alone does not decide this — a perfectly
    /// predicted fix (error exactly 0) is dropped even at tolerance 0.
    pub fn is_lossless(&self) -> bool {
        self.max_silence <= 0
    }
}

/// Streaming per-vessel threshold compressor.
#[derive(Debug, Clone)]
pub struct ThresholdCompressor {
    config: ThresholdConfig,
    last_kept: Option<Fix>,
    seen: u64,
    kept: u64,
}

impl ThresholdCompressor {
    /// New compressor with the given tolerance.
    pub fn new(config: ThresholdConfig) -> Self {
        Self { config, last_kept: None, seen: 0, kept: 0 }
    }

    /// Observe a fix; returns `Some(fix)` if it must be kept in the
    /// synopsis, `None` if it is predictable within tolerance.
    pub fn observe(&mut self, fix: Fix) -> Option<Fix> {
        self.seen += 1;
        let keep = match self.last_kept {
            None => true,
            Some(ref prev) => {
                let predicted = prev.dead_reckon(fix.t);
                haversine_m(predicted, fix.pos) > self.config.tolerance_m
                    || fix.t - prev.t >= self.config.max_silence
            }
        };
        if keep {
            self.kept += 1;
            self.last_kept = Some(fix);
            Some(fix)
        } else {
            None
        }
    }

    /// `(fixes seen, fixes kept)`.
    pub fn counts(&self) -> (u64, u64) {
        (self.seen, self.kept)
    }

    /// Compression ratio achieved so far: fraction of fixes *discarded*.
    pub fn ratio(&self) -> f64 {
        if self.seen == 0 {
            return 0.0;
        }
        1.0 - self.kept as f64 / self.seen as f64
    }
}

/// Compress a whole trajectory, returning the kept fixes.
pub fn compress_trajectory(fixes: &[Fix], config: ThresholdConfig) -> Vec<Fix> {
    let mut c = ThresholdCompressor::new(config);
    fixes.iter().filter_map(|f| c.observe(*f)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use mda_geo::time::MINUTE;
    use mda_geo::{Position, Timestamp};

    fn steady_track(n: usize) -> Vec<Fix> {
        // Perfect 10 kn eastbound track where dead-reckoning is exact.
        let start = Fix::new(7, Timestamp::from_mins(0), Position::new(43.0, 5.0), 10.0, 90.0);
        (0..n)
            .map(|i| {
                let t = Timestamp::from_mins(i as i64);
                Fix { t, pos: start.dead_reckon(t), ..start }
            })
            .collect()
    }

    #[test]
    fn straight_track_keeps_only_first() {
        let fixes = steady_track(25);
        let kept = compress_trajectory(&fixes, ThresholdConfig::default());
        assert_eq!(kept.len(), 1, "dead-reckoning predicts everything");
    }

    #[test]
    fn max_silence_forces_keepalives() {
        let fixes = steady_track(100);
        let cfg = ThresholdConfig { tolerance_m: 100.0, max_silence: 10 * MINUTE };
        let kept = compress_trajectory(&fixes, cfg);
        // 100 minutes / 10-minute keepalive => about 10 kept fixes.
        assert!((9..=11).contains(&kept.len()), "kept {}", kept.len());
    }

    #[test]
    fn maneuver_is_kept() {
        let mut fixes = steady_track(10);
        // Vessel turns north at minute 10 and sails on.
        let turn_start = *fixes.last().unwrap();
        let turned = Fix { cog_deg: 0.0, ..turn_start };
        for i in 1..10 {
            let t = Timestamp::from_mins(10 + i);
            fixes.push(Fix { t, pos: turned.dead_reckon(t), ..turned });
        }
        let kept = compress_trajectory(&fixes, ThresholdConfig::default());
        assert!(kept.len() >= 2, "the turn must be kept");
        assert!(kept.len() <= 4, "but the straight legs must not, kept {}", kept.len());
    }

    #[test]
    fn ratio_accounting() {
        let fixes = steady_track(100);
        let mut c = ThresholdCompressor::new(ThresholdConfig::default());
        for f in &fixes {
            c.observe(*f);
        }
        let (seen, kept) = c.counts();
        assert_eq!(seen, 100);
        assert!(c.ratio() > 0.9);
        assert_eq!(kept, (100.0 - c.ratio() * 100.0).round() as u64);
    }

    #[test]
    fn tolerance_zero_keeps_noisy_everything() {
        // With a tiny tolerance and noisy positions everything is kept.
        let mut fixes = steady_track(20);
        for (i, f) in fixes.iter_mut().enumerate() {
            f.pos = Position::new(f.pos.lat + 0.001 * ((i % 2) as f64), f.pos.lon);
        }
        let cfg = ThresholdConfig { tolerance_m: 1.0, max_silence: 60 * MINUTE };
        let kept = compress_trajectory(&fixes, cfg);
        assert!(kept.len() >= 19, "kept {}", kept.len());
    }

    #[test]
    fn lossless_config_keeps_perfectly_predicted_fixes() {
        // Tolerance 0 alone is NOT lossless: an exactly-predicted fix
        // has error 0, which is not > 0. Only the zero keepalive gap
        // forces every fix through.
        let fixes = steady_track(25);
        let kept = compress_trajectory(&fixes, ThresholdConfig::lossless());
        assert_eq!(kept.len(), fixes.len());
        assert!(ThresholdConfig::lossless().is_lossless());
        let zero_tol = ThresholdConfig { tolerance_m: 0.0, max_silence: 30 * MINUTE };
        assert!(!zero_tol.is_lossless(), "tolerance 0 with a keepalive gap still drops fixes");
        assert!(compress_trajectory(&fixes, zero_tol).len() < fixes.len());
    }

    #[test]
    fn empty_input() {
        let kept = compress_trajectory(&[], ThresholdConfig::default());
        assert!(kept.is_empty());
        let c = ThresholdCompressor::new(ThresholdConfig::default());
        assert_eq!(c.ratio(), 0.0);
    }
}
